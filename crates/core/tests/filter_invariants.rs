//! Seeded property invariants of the AD filtering algorithms over
//! arbitrary alert streams.

use rcm_core::ad::{
    apply_filter, Ad1, Ad1Digest, Ad2, Ad3, Ad4, Ad5, Ad6, AlertFilter, DelayedOrdered, LatePolicy,
};
use rcm_core::seq::{is_subsequence, project_alerts};
use rcm_core::{Alert, AlertId, CeId, CondId, HistoryFingerprint, SeqNo, VarId};
use rcm_net::{cases, Rng};

fn x() -> VarId {
    VarId::new(0)
}
fn y() -> VarId {
    VarId::new(1)
}

/// A strictly decreasing seqno history of degree 1–3 headed in
/// `7..head_hi`.
fn history(rng: &mut Rng, head_hi: usize) -> Vec<SeqNo> {
    let head = 7 + rng.below(head_hi - 7) as u64; // room for two gaps below
    let (degree, g1, g2) = (1 + rng.below(3), 1 + rng.below(2) as u64, 1 + rng.below(2) as u64);
    [head, head - g1, head - g1 - g2][..degree].iter().map(|&s| SeqNo::new(s)).collect()
}

/// `lo..=lo + size` single-variable alerts.
fn alerts1(rng: &mut Rng, lo: usize, size: usize) -> Vec<Alert> {
    (0..lo + rng.below(size + 1))
        .map(|_| {
            Alert::new(
                CondId::SINGLE,
                HistoryFingerprint::single(x(), history(rng, 40)),
                vec![],
                AlertId { ce: CeId::new(0), index: 0 },
            )
        })
        .collect()
}

/// `0..=size` two-variable alerts.
fn alerts2(rng: &mut Rng, size: usize) -> Vec<Alert> {
    (0..rng.below(size + 1))
        .map(|_| {
            let (xs, ys) = (history(rng, 25), history(rng, 25));
            Alert::new(
                CondId::SINGLE,
                HistoryFingerprint::new(vec![(x(), xs), (y(), ys)]),
                vec![],
                AlertId { ce: CeId::new(0), index: 0 },
            )
        })
        .collect()
}

fn ordered(alerts: &[Alert], var: VarId) -> bool {
    let proj = project_alerts(alerts, var);
    proj.windows(2).all(|w| w[0] <= w[1])
}

#[test]
fn ad2_output_always_ordered() {
    cases("ad2_output_always_ordered", 256, 39, |rng, size| {
        let stream = alerts1(rng, 0, size);
        let out = apply_filter(&mut Ad2::new(x()), &stream);
        assert!(ordered(&out, x()));
    });
}

#[test]
fn ad5_ad6_output_always_ordered_per_var() {
    cases("ad5_ad6_output_always_ordered_per_var", 256, 39, |rng, size| {
        let stream = alerts2(rng, size);
        let out5 = apply_filter(&mut Ad5::new([x(), y()]), &stream);
        assert!(ordered(&out5, x()) && ordered(&out5, y()));
        let out6 = apply_filter(&mut Ad6::new([x(), y()]), &stream);
        assert!(ordered(&out6, x()) && ordered(&out6, y()));
    });
}

#[test]
fn digest_filter_is_equivalent_to_ad1() {
    cases("digest_filter_is_equivalent_to_ad1", 256, 39, |rng, size| {
        let stream = alerts1(rng, 0, size);
        let full = apply_filter(&mut Ad1::new(), &stream);
        let digest = apply_filter(&mut Ad1Digest::new(), &stream);
        assert_eq!(full, digest);
    });
}

#[test]
fn all_filters_are_idempotent() {
    cases("all_filters_are_idempotent", 256, 29, |rng, size| {
        // Filtering a filter's own output must pass everything through:
        // the output already satisfies the filter's invariant.
        let stream = alerts1(rng, 0, size);
        for mut f in all_filters() {
            let once = apply_filter(&mut *f, &stream);
            f.reset();
            let twice = apply_filter(&mut *f, &once);
            assert_eq!(&once, &twice, "{} not idempotent", f.name());
        }
    });
}

#[test]
fn every_output_is_a_subsequence_of_arrivals() {
    cases("every_output_is_a_subsequence_of_arrivals", 256, 29, |rng, size| {
        let stream = alerts1(rng, 0, size);
        let filters: Vec<Box<dyn AlertFilter>> = vec![
            Box::new(Ad1::new()),
            Box::new(Ad2::new(x())),
            Box::new(Ad3::new([x()])),
            Box::new(Ad4::new(x())),
        ];
        for mut f in filters {
            let out = apply_filter(&mut *f, &stream);
            assert!(is_subsequence(&out, &stream), "{}", f.name());
        }
    });
}

#[test]
fn ad1_dominates_everything_on_random_streams() {
    cases("ad1_dominates_everything_on_random_streams", 256, 29, |rng, size| {
        // Theorems 6 and 8 (and the AD-4 corollary) on arbitrary inputs.
        let stream = alerts1(rng, 0, size);
        let base = apply_filter(&mut Ad1::new(), &stream);
        for mut f in [
            Box::new(Ad2::new(x())) as Box<dyn AlertFilter>,
            Box::new(Ad3::new([x()])),
            Box::new(Ad4::new(x())),
        ] {
            let out = apply_filter(&mut *f, &stream);
            assert!(is_subsequence(&out, &base), "AD-1 ≥ {} failed", f.name());
        }
    });
}

#[test]
fn ad4_output_within_both_parents_invariants() {
    cases("ad4_output_within_both_parents_invariants", 256, 29, |rng, size| {
        // AD-4's output must itself satisfy orderedness AND be accepted
        // in full by a fresh AD-3 (consistency closure).
        let stream = alerts1(rng, 0, size);
        let out = apply_filter(&mut Ad4::new(x()), &stream);
        assert!(ordered(&out, x()));
        let replay = apply_filter(&mut Ad3::new([x()]), &out);
        assert_eq!(replay.len(), out.len());
    });
}

#[test]
fn delayed_drop_policy_ordered_and_dominates_ad2_counts() {
    cases("delayed_drop_policy_ordered_and_dominates_ad2_counts", 256, 29, |rng, size| {
        let stream = alerts1(rng, 0, size);
        let hold = rng.below(6);
        let mut delayed = DelayedOrdered::new(x(), hold, LatePolicy::Drop);
        let out = delayed.display_all(&stream);
        assert!(ordered(&out, x()));
        // The buffer never displays fewer alerts than AD-2 (hold 0 is
        // AD-2's drop behaviour plus duplicate suppression).
        let ad2 = apply_filter(&mut Ad2::new(x()), &stream);
        assert!(out.len() + 1 >= ad2.len(), "{} + 1 < {}", out.len(), ad2.len());
    });
}

#[test]
fn filters_reset_to_initial_state() {
    cases("filters_reset_to_initial_state", 256, 18, |rng, size| {
        let stream = alerts1(rng, 1, size);
        for mut f in all_filters() {
            let first = apply_filter(&mut *f, &stream);
            f.reset();
            let second = apply_filter(&mut *f, &stream);
            assert_eq!(&first, &second, "{} reset incomplete", f.name());
        }
    });
}

/// One fresh instance of every filter over `x`.
fn all_filters() -> Vec<Box<dyn AlertFilter>> {
    vec![
        Box::new(Ad1::new()),
        Box::new(Ad1Digest::new()),
        Box::new(Ad2::new(x())),
        Box::new(Ad3::new([x()])),
        Box::new(Ad4::new(x())),
        Box::new(Ad5::new([x()])),
        Box::new(Ad6::new([x()])),
    ]
}
