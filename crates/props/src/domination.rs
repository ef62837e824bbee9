//! The domination relation between AD algorithms (paper §4.1).
//!
//! `G1` **dominates** `G2` (`G1 ≥ G2`) if, for every input (merged
//! alert arrival sequence), `G1`'s output is a supersequence of `G2`'s;
//! `G1 > G2` additionally requires some input where the supersequence
//! is strict. A dominant algorithm filters fewer alerts — all else
//! equal it is the "better" algorithm.
//!
//! [`check_domination`] evaluates the relation empirically over a given
//! set of arrival sequences (exhaustive proof is impossible for
//! arbitrary filters; the paper's Theorems 6 and 8 prove it for
//! AD-1 vs AD-2/AD-3, and the bench harness demonstrates it over large
//! randomized workloads).

use rcm_core::ad::{apply_filter, AlertFilter};
use rcm_core::seq::is_subsequence;
use rcm_core::Alert;

/// Outcome of an empirical domination check of `G1` over `G2`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DominationReport {
    /// `G1 ≥ G2` held on every tested arrival sequence.
    pub holds: bool,
    /// Some tested sequence produced a *strict* supersequence
    /// (`G1 > G2` evidence, meaningful only when `holds`).
    pub strict: bool,
    /// Number of arrival sequences tested.
    pub trials: usize,
    /// First arrival sequence on which `G2`'s output was *not* a
    /// subsequence of `G1`'s (present iff `!holds`).
    pub counterexample: Option<Vec<Alert>>,
    /// Total alerts passed by `G1` across all trials.
    pub passed_g1: usize,
    /// Total alerts passed by `G2` across all trials.
    pub passed_g2: usize,
}

/// Empirically checks whether `G1 ≥ G2` over the given arrival
/// sequences; fresh filter instances are created per sequence.
pub fn check_domination<F1, F2>(
    mut make_g1: impl FnMut() -> F1,
    mut make_g2: impl FnMut() -> F2,
    arrival_sequences: &[Vec<Alert>],
) -> DominationReport
where
    F1: AlertFilter,
    F2: AlertFilter,
{
    let mut holds = true;
    let mut strict = false;
    let mut counterexample = None;
    let (mut passed_g1, mut passed_g2) = (0, 0);
    for arrivals in arrival_sequences {
        let mut g1 = make_g1();
        let mut g2 = make_g2();
        let out1 = apply_filter(&mut g1, arrivals);
        let out2 = apply_filter(&mut g2, arrivals);
        passed_g1 += out1.len();
        passed_g2 += out2.len();
        if !is_subsequence(&out2, &out1) {
            if holds {
                counterexample = Some(arrivals.clone());
            }
            holds = false;
        } else if out1.len() > out2.len() {
            strict = true;
        }
    }
    DominationReport {
        holds,
        strict: holds && strict,
        trials: arrival_sequences.len(),
        counterexample,
        passed_g1,
        passed_g2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_core::ad::{Ad1, Ad2, Ad3, Ad4, DropAll, PassThrough};
    use rcm_core::{AlertId, CeId, CondId, HistoryFingerprint, SeqNo, VarId};

    fn alert(seqnos: &[u64]) -> Alert {
        Alert::new(
            CondId::SINGLE,
            HistoryFingerprint::single(
                VarId::new(0),
                seqnos.iter().map(|&s| SeqNo::new(s)).collect(),
            ),
            vec![],
            AlertId { ce: CeId::new(0), index: 0 },
        )
    }

    fn workloads() -> Vec<Vec<Alert>> {
        vec![
            vec![alert(&[1]), alert(&[2]), alert(&[3])],
            vec![alert(&[2]), alert(&[1]), alert(&[3])], // out of order
            vec![alert(&[3, 1]), alert(&[3, 2])],        // AD-3 conflict
            vec![alert(&[1]), alert(&[1])],              // duplicate
            vec![],
        ]
    }

    #[test]
    fn ad1_strictly_dominates_ad2() {
        // Theorem 6.
        let r = check_domination(Ad1::new, || Ad2::new(VarId::new(0)), &workloads());
        assert!(r.holds && r.strict);
        assert!(r.passed_g1 > r.passed_g2);
    }

    #[test]
    fn ad1_strictly_dominates_ad3() {
        // Theorem 8.
        let r = check_domination(Ad1::new, || Ad3::new([VarId::new(0)]), &workloads());
        assert!(r.holds && r.strict);
    }

    #[test]
    fn ad2_and_ad3_dominate_ad4() {
        let r =
            check_domination(|| Ad2::new(VarId::new(0)), || Ad4::new(VarId::new(0)), &workloads());
        assert!(r.holds);
        let r = check_domination(
            || Ad3::new([VarId::new(0)]),
            || Ad4::new(VarId::new(0)),
            &workloads(),
        );
        assert!(r.holds);
    }

    #[test]
    fn pass_through_dominates_everything() {
        let r = check_domination(PassThrough::new, Ad1::new, &workloads());
        assert!(r.holds);
        let r = check_domination(PassThrough::new, DropAll::new, &workloads());
        assert!(r.holds && r.strict);
    }

    #[test]
    fn domination_fails_the_other_way() {
        // AD-2 does not dominate AD-1: on the out-of-order workload AD-1
        // passes an alert AD-2 drops.
        let r = check_domination(|| Ad2::new(VarId::new(0)), Ad1::new, &workloads());
        assert!(!r.holds);
        assert!(r.counterexample.is_some());
        assert!(!r.strict); // strict only meaningful when holds
    }

    #[test]
    fn empty_trials_hold_vacuously() {
        let r = check_domination(Ad1::new, Ad1::new, &[]);
        assert!(r.holds && !r.strict);
        assert_eq!(r.trials, 0);
    }
}
