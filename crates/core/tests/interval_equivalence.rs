//! Seeded property tests pinning the interval-backed consistency bookkeeping
//! ([`VarConsistency`]) to the retained BTreeSet reference
//! ([`BTreeConsistency`]): across randomized alert streams, every
//! consistency-bearing AD algorithm must make identical
//! deliver/discard decisions with either representation, and the
//! stateless-wrt-consistency algorithms must stay deterministic.

use rcm_core::ad::{
    Ad1, Ad3, Ad5, Ad6, AlertFilter, BTreeConsistency, ConsistencyState, Decision, VarConsistency,
};
use rcm_core::{Alert, AlertId, CeId, CondId, HistoryFingerprint, SeqNo, VarId};
use rcm_net::{cases, Rng};

/// Newest-first strictly decreasing seqnos, degree 1–3, with gaps of
/// 1–3 between adjacent entries (a gap of 1 means consecutive).
fn history(rng: &mut Rng) -> Vec<u64> {
    let newest_off = 1 + rng.below(39) as u64;
    let gaps: Vec<u64> = (0..rng.below(3)).map(|_| 1 + rng.below(3) as u64).collect();
    let newest = 10 + newest_off + gaps.iter().sum::<u64>();
    let mut seqnos = vec![newest];
    let mut cur = newest;
    for g in gaps {
        cur -= g;
        seqnos.push(cur);
    }
    seqnos
}

/// `1..=size + 1` alerts over variables `v0..v{nv}`, every alert
/// carrying a history for every variable.
fn alerts(rng: &mut Rng, nv: usize, size: usize) -> Vec<Alert> {
    (0..1 + rng.below(size + 1))
        .map(|i| {
            let entries = (0..nv as u32)
                .map(|v| (VarId::new(v), history(rng).into_iter().map(SeqNo::new).collect()))
                .collect();
            Alert::new(
                CondId::SINGLE,
                HistoryFingerprint::new(entries),
                vec![],
                AlertId { ce: CeId::new(0), index: i as u64 },
            )
        })
        .collect()
}

/// One to three variables and [`alerts`] over them.
fn stream(rng: &mut Rng, size: usize) -> (Vec<VarId>, Vec<Alert>) {
    let nv = 1 + rng.below(3);
    ((0..nv as u32).map(VarId::new).collect(), alerts(rng, nv, size))
}

fn run_filter<F: AlertFilter>(f: &mut F, alerts: &[Alert]) -> Vec<Decision> {
    alerts.iter().map(|a| f.offer(a)).collect()
}

fn check_pair<A: AlertFilter, B: AlertFilter>(mut fast: A, mut reference: B, alerts: &[Alert]) {
    for (i, a) in alerts.iter().enumerate() {
        assert_eq!(fast.offer(a), reference.offer(a), "alert #{i} {a}");
    }
}

/// The tentpole equivalence: AD-3 and AD-6 decide identically with
/// interval and BTreeSet bookkeeping, on streams over 1–3 variables
/// (over one variable they are AD-3 and AD-4, over more AD-3/multi and
/// AD-6).
#[test]
fn consistency_filters_agree_with_reference() {
    cases("consistency_filters_agree_with_reference", 256, 18, |rng, size| {
        let (vars, alerts) = stream(rng, size);
        check_pair(
            Ad3::new(vars.clone()),
            Ad3::<BTreeConsistency>::with_state(vars.clone()),
            &alerts,
        );
        check_pair(
            Ad6::new(vars.clone()),
            Ad6::<BTreeConsistency>::with_state(vars.clone()),
            &alerts,
        );
    });
}

/// The consistency-free algorithms (AD-1, AD-5) have a single
/// implementation; pin their determinism on the same streams so every
/// algorithm is exercised by this suite (AD-2 is AD-5 over one
/// variable).
#[test]
fn stateless_filters_are_deterministic() {
    cases("stateless_filters_are_deterministic", 256, 18, |rng, size| {
        let (vars, alerts) = stream(rng, size);
        assert_eq!(run_filter(&mut Ad1::new(), &alerts), run_filter(&mut Ad1::new(), &alerts));
        assert_eq!(
            run_filter(&mut Ad5::new(vars.clone()), &alerts),
            run_filter(&mut Ad5::new(vars.clone()), &alerts)
        );
    });
}

/// State-machine-level equivalence: after every committed history, the
/// two representations expose the same `Received` witness and agree on
/// `Conflicts` for the next history — mirroring exactly how the filters
/// drive the state (record only on no-conflict).
#[test]
fn consistency_state_machines_agree() {
    cases("consistency_state_machines_agree", 256, 28, |rng, size| {
        let mut fast = VarConsistency::default();
        let mut reference = BTreeConsistency::default();
        for _ in 0..1 + rng.below(size + 1) {
            let h = history(rng);
            let seqnos: Vec<SeqNo> = h.iter().copied().map(SeqNo::new).collect();
            let c_fast = fast.conflicts(&seqnos);
            let c_ref = reference.conflicts(&seqnos);
            assert_eq!(c_fast, c_ref, "conflicts diverged on {h:?}");
            if !c_fast {
                fast.record(&seqnos);
                reference.record(&seqnos);
            }
            assert_eq!(
                fast.received().collect::<Vec<_>>(),
                reference.received().collect::<Vec<_>>()
            );
        }
        fast.clear();
        reference.clear();
        assert_eq!(fast.received().count(), 0);
        assert_eq!(reference.received().count(), 0);
    });
}
