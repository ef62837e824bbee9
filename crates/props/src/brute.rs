//! Brute-force oracles for the property definitions.
//!
//! These literally quantify over the definitions of §3.1 / Appendix C:
//! consistency enumerates every `U' ⊑ U1 ⊔ U2` (all 2^n subsets of the
//! merged pool), and the multi-variable variants additionally enumerate
//! every interleaving. They are exponential and exist purely to
//! cross-validate the polynomial checkers in the crate root — the test
//! suites compare both on randomized small traces.

use std::collections::HashSet;

use rcm_core::condition::expr::CompiledCondition;
use rcm_core::{Alert, Update};

use crate::multi::enumerate_merges;
use crate::util::{merge_all_single, merge_per_var, Replay};

/// Maximum pool size accepted by the subset-enumerating oracles.
pub const BRUTE_CAP: usize = 16;

fn explains(replay: &mut Replay, candidate: &[Update], displayed: &[Alert]) -> bool {
    let reference = replay.run(candidate);
    let set: HashSet<&Alert> = reference.iter().collect();
    displayed.iter().all(|a| set.contains(a))
}

/// Brute-force single-variable **consistency**: tries every subset of
/// the merged pool as `U'`.
///
/// # Panics
///
/// Panics if the merged pool exceeds [`BRUTE_CAP`] updates or spans
/// more than one variable.
// analyze: allow(reach): the reference the crossval suite compares the checkers against
pub fn brute_consistent_single(
    cond: &CompiledCondition,
    inputs: &[Vec<Update>],
    displayed: &[Alert],
) -> bool {
    let pool = merge_all_single(inputs);
    assert!(pool.len() <= BRUTE_CAP, "brute-force oracle capped at {BRUTE_CAP} updates");
    if displayed.is_empty() {
        return true;
    }
    // Iterate subsets from largest to smallest is unnecessary; any hit
    // suffices.
    let mut replay = Replay::new(cond);
    for mask in 0..(1u32 << pool.len()) {
        let candidate: Vec<Update> =
            pool.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1).map(|(_, u)| *u).collect();
        if explains(&mut replay, &candidate, displayed) {
            return true;
        }
    }
    false
}

/// Brute-force multi-variable **consistency**: tries every per-variable
/// subset and every interleaving of the chosen subsets.
///
/// # Panics
///
/// Panics if the merged pool exceeds [`BRUTE_CAP`] combined updates.
// analyze: allow(reach): the reference the crossval suite compares the checkers against
pub fn brute_consistent_multi(
    cond: &CompiledCondition,
    inputs: &[Vec<Update>],
    displayed: &[Alert],
) -> bool {
    let merged = merge_per_var(inputs);
    let lists: Vec<Vec<Update>> = merged.into_values().collect();
    let total: usize = lists.iter().map(Vec::len).sum();
    assert!(total <= BRUTE_CAP, "brute-force oracle capped at {BRUTE_CAP} updates");
    if displayed.is_empty() {
        return true;
    }
    // Enumerate per-variable subsets via one global mask over the
    // concatenation, then every interleaving of the kept updates.
    let flat_lens: Vec<usize> = lists.iter().map(Vec::len).collect();
    let mut replay = Replay::new(cond);
    for mask in 0..(1u32 << total) {
        let mut offset = 0;
        let mut kept: Vec<Vec<Update>> = Vec::with_capacity(lists.len());
        for (li, list) in lists.iter().enumerate() {
            kept.push(
                list.iter()
                    .enumerate()
                    .filter(|(i, _)| mask >> (offset + i) & 1 == 1)
                    .map(|(_, u)| *u)
                    .collect(),
            );
            offset += flat_lens[li];
        }
        let hit =
            enumerate_merges(&kept, &mut |candidate| explains(&mut replay, candidate, displayed));
        if hit {
            return true;
        }
    }
    false
}

/// Brute-force multi-variable **completeness**: tries every
/// interleaving of the *full* per-variable unions, looking for one with
/// `ΦA = ΦT(U_V)`.
///
/// # Panics
///
/// Panics if the merged pool exceeds [`BRUTE_CAP`] combined updates.
// analyze: allow(reach): the reference the crossval suite compares the checkers against
pub fn brute_complete_multi(
    cond: &CompiledCondition,
    inputs: &[Vec<Update>],
    displayed: &[Alert],
) -> bool {
    let merged = merge_per_var(inputs);
    let lists: Vec<Vec<Update>> = merged.into_values().collect();
    let total: usize = lists.iter().map(Vec::len).sum();
    assert!(total <= BRUTE_CAP, "brute-force oracle capped at {BRUTE_CAP} updates");
    let displayed_set: HashSet<&Alert> = displayed.iter().collect();
    let mut replay = Replay::new(cond);
    enumerate_merges(&lists, &mut |candidate| {
        let reference = replay.run(candidate);
        let set: HashSet<&Alert> = reference.iter().collect();
        set == displayed_set
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_core::condition::cond;
    use rcm_core::{transduce, CeId, VarId};

    fn x() -> VarId {
        VarId::new(0)
    }
    fn y() -> VarId {
        VarId::new(1)
    }

    fn u(s: u64, v: f64) -> Update {
        Update::new(x(), s, v)
    }

    #[test]
    fn brute_matches_theorem_4_counterexample() {
        let c2 = cond::delta_rise(x(), 200.0);
        let u1 = vec![u(1, 400.0), u(2, 700.0), u(3, 720.0)];
        let u2 = vec![u(1, 400.0), u(3, 720.0)];
        let a1 = transduce(&c2, CeId::new(1), &u1);
        let a2 = transduce(&c2, CeId::new(2), &u2);
        let both: Vec<Alert> = a1.iter().chain(a2.iter()).cloned().collect();
        assert!(!brute_consistent_single(&c2, &[u1.clone(), u2.clone()], &both));
        // Each alone is consistent.
        assert!(brute_consistent_single(&c2, &[u1.clone(), u2.clone()], &a1));
        assert!(brute_consistent_single(&c2, &[u1, u2], &a2));
    }

    #[test]
    fn brute_multi_matches_theorem_10() {
        let cm = cond::abs_difference(x(), y(), 100.0);
        let ux = |s, v| Update::new(x(), s, v);
        let uy = |s, v| Update::new(y(), s, v);
        let u1 = vec![ux(1, 1000.0), ux(2, 1200.0), uy(1, 1050.0), uy(2, 1150.0)];
        let u2 = vec![uy(1, 1050.0), uy(2, 1150.0), ux(1, 1000.0), ux(2, 1200.0)];
        let a1 = transduce(&cm, CeId::new(1), &u1);
        let a2 = transduce(&cm, CeId::new(2), &u2);
        let both: Vec<Alert> = a1.iter().chain(a2.iter()).cloned().collect();
        assert!(!brute_consistent_multi(&cm, &[u1.clone(), u2.clone()], &both));
        assert!(brute_consistent_multi(&cm, &[u1.clone(), u2.clone()], &a1));
        assert!(brute_complete_multi(&cm, &[u1, u2], &a1));
    }

    #[test]
    fn empty_displayed_is_trivially_consistent() {
        let c2 = cond::delta_rise(x(), 200.0);
        assert!(brute_consistent_single(&c2, &[vec![u(1, 0.0)]], &[]));
        let cm = cond::abs_difference(x(), y(), 100.0);
        assert!(brute_consistent_multi(&cm, &[vec![u(1, 0.0)]], &[]));
    }

    #[test]
    #[should_panic(expected = "capped")]
    fn cap_enforced() {
        let c2 = cond::delta_rise(x(), 200.0);
        let long: Vec<Update> = (1..=BRUTE_CAP as u64 + 1).map(|s| u(s, 0.0)).collect();
        brute_consistent_single(&c2, &[long], &[]);
    }
}
