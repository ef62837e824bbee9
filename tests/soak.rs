//! Long-running soak tests, ignored by default. Run with:
//!
//! ```text
//! cargo test --release --test soak -- --ignored
//! ```
//!
//! These push the Monte-Carlo budgets an order of magnitude past what
//! the regular suite uses, hunting for rare counterexamples to the √
//! cells — any failure here would be a bug in an AD algorithm or a
//! property checker.

use rcm::sim::montecarlo::{evaluate_cell_n, FilterKind, ScenarioKind, Topology};

const SOAK_RUNS: u64 = 1000;

#[test]
#[ignore = "soak test: ~minutes; run explicitly with --ignored"]
fn ad2_orderedness_never_violated_in_a_thousand_runs() {
    for kind in ScenarioKind::ALL {
        let c = evaluate_cell_n(kind, Topology::SingleVar, FilterKind::Ad2, SOAK_RUNS, 0xdead, 2);
        assert_eq!(c.unordered, 0, "{kind:?}: {c:?}");
    }
}

#[test]
#[ignore = "soak test: ~minutes; run explicitly with --ignored"]
fn ad4_guarantees_never_violated_in_a_thousand_runs() {
    for kind in ScenarioKind::ALL {
        let c = evaluate_cell_n(kind, Topology::SingleVar, FilterKind::Ad4, SOAK_RUNS, 0xbeef, 2);
        assert_eq!(c.unordered, 0, "{kind:?}: {c:?}");
        assert_eq!(c.inconsistent, 0, "{kind:?}: {c:?}");
    }
}

#[test]
#[ignore = "soak test: ~minutes; run explicitly with --ignored"]
fn ad6_guarantees_never_violated_multi_var() {
    for kind in ScenarioKind::ALL {
        let c =
            evaluate_cell_n(kind, Topology::MultiVar, FilterKind::Ad6, SOAK_RUNS / 4, 0xcafe, 2);
        assert_eq!(c.unordered, 0, "{kind:?}: {c:?}");
        assert_eq!(c.inconsistent, 0, "{kind:?}: {c:?}");
    }
}

#[test]
#[ignore = "soak test: ~minutes; run explicitly with --ignored"]
fn lossless_single_var_systems_keep_all_three_properties() {
    for filter in [FilterKind::Ad1, FilterKind::Ad2, FilterKind::Ad3, FilterKind::Ad4] {
        let c = evaluate_cell_n(
            ScenarioKind::Lossless,
            Topology::SingleVar,
            filter,
            SOAK_RUNS,
            0xf00d,
            2,
        );
        assert_eq!((c.unordered, c.incomplete, c.inconsistent), (0, 0, 0), "{filter:?}: {c:?}");
    }
}
