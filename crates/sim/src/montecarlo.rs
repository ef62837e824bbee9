//! Monte-Carlo reproduction of the paper's property tables.
//!
//! Each cell of Tables 1–3 claims that a property (orderedness,
//! completeness, consistency) is or is not guaranteed for a scenario
//! class (lossless links; lossy links with a non-historical,
//! conservative or aggressive condition) under an AD algorithm. We
//! reproduce the tables empirically:
//!
//! * a **√** cell is validated by finding *zero* violations across many
//!   randomized seeded runs;
//! * an **✗** cell is validated by *finding* a concrete violating run
//!   (whose seed is reported for replay).
//!
//! [`property_matrix`] produces one table; [`paper_expected`] returns
//! the paper's claimed cells so reports can show claimed vs measured.

use std::sync::Arc;

use rcm_core::ad::{self, apply_filter, AlertFilter};
use rcm_core::condition::expr::CompiledCondition;
use rcm_core::condition::{cond, Cmp, Condition};
use rcm_core::{Alert, VarId};
use rcm_props::{check_complete_multi, check_consistent_multi, check_ordered};

use crate::delay::DelaySpec;
use crate::engine::{run, RunResult};
use crate::report::{Matrix, MatrixCell, MatrixRow};
use crate::scenario::{LossSpec, Scenario, VarWorkload};
use crate::workload::ValueSpec;

/// The four scenario classes of Tables 1–3, in row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// Lossless front links, any condition (rotated per seed).
    Lossless,
    /// Lossy front links, non-historical condition.
    LossyNonHistorical,
    /// Lossy front links, conservatively triggered historical condition.
    LossyConservative,
    /// Lossy front links, aggressively triggered historical condition.
    LossyAggressive,
}

impl ScenarioKind {
    /// All kinds in the tables' row order.
    pub const ALL: [ScenarioKind; 4] = [
        ScenarioKind::Lossless,
        ScenarioKind::LossyNonHistorical,
        ScenarioKind::LossyConservative,
        ScenarioKind::LossyAggressive,
    ];

    /// Row label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            ScenarioKind::Lossless => "Lossless",
            ScenarioKind::LossyNonHistorical => "Lossy Non-his.",
            ScenarioKind::LossyConservative => "Lossy His. Cons.",
            ScenarioKind::LossyAggressive => "Lossy His. Aggr.",
        }
    }
}

/// Single- vs multi-variable systems (Tables 1–2 vs Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topology {
    /// One variable, one DM (paper §3–4).
    SingleVar,
    /// Two variables, two DMs (paper §5).
    MultiVar,
    /// Three variables, three DMs — the paper's §5 analysis "can be
    /// easily extended"; this topology checks that AD-5/AD-6 really do
    /// generalize beyond the two-variable pseudo-code.
    MultiVar3,
}

/// Which AD algorithm filters the merged alert stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FilterKind {
    /// No filtering at all.
    PassThrough,
    /// Exact duplicate removal (Fig. A-1).
    Ad1,
    /// Single-variable orderedness (Fig. A-2).
    Ad2,
    /// Single-variable consistency (Fig. A-3).
    Ad3,
    /// AD-2 ∧ AD-3 (Fig. A-4).
    Ad4,
    /// Multi-variable orderedness (Fig. A-5).
    Ad5,
    /// AD-5 ∧ multi-variable AD-3 (Fig. A-6).
    Ad6,
}

impl FilterKind {
    /// Every kind, pass-through first, then AD-1 to AD-6.
    pub const ALL: [FilterKind; 7] = [
        FilterKind::PassThrough,
        FilterKind::Ad1,
        FilterKind::Ad2,
        FilterKind::Ad3,
        FilterKind::Ad4,
        FilterKind::Ad5,
        FilterKind::Ad6,
    ];

    /// Display name ("AD-1", …).
    pub fn label(self) -> &'static str {
        match self {
            FilterKind::PassThrough => "pass-through",
            FilterKind::Ad1 => "AD-1",
            FilterKind::Ad2 => "AD-2",
            FilterKind::Ad3 => "AD-3",
            FilterKind::Ad4 => "AD-4",
            FilterKind::Ad5 => "AD-5",
            FilterKind::Ad6 => "AD-6",
        }
    }

    /// The name `simulate --filter`, `rcm-ad` and `rcm-monitor` know
    /// the filter by ("ad1", …), as [`ad::by_name`] reads it.
    pub fn name(self) -> &'static str {
        match self {
            FilterKind::PassThrough => "pass",
            FilterKind::Ad1 => "ad1",
            FilterKind::Ad2 => "ad2",
            FilterKind::Ad3 => "ad3",
            FilterKind::Ad4 => "ad4",
            FilterKind::Ad5 => "ad5",
            FilterKind::Ad6 => "ad6",
        }
    }

    /// Builds a fresh filter instance for a condition over `vars`,
    /// through [`ad::by_name`].
    ///
    /// # Panics
    ///
    /// Panics when a single-variable algorithm (AD-2/3/4) is built for
    /// a multi-variable set.
    pub fn build(self, vars: &[VarId]) -> Box<dyn AlertFilter> {
        ad::by_name(self.name(), vars)
            .unwrap_or_else(|| panic!("{} is single-variable", self.label()))
    }
}

fn x() -> VarId {
    VarId::new(0)
}
fn y() -> VarId {
    VarId::new(1)
}
fn z() -> VarId {
    VarId::new(2)
}

/// Deterministic tiny PRNG for scenario parameter derivation (splitmix64).
pub(crate) fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn single_condition(kind: ScenarioKind, seed: u64) -> CompiledCondition {
    let pick = mix(seed) % 3;
    let non_historical = match pick {
        0 => cond::threshold(x(), Cmp::Gt, 100.0),
        1 => cond::threshold(x(), Cmp::Lt, 90.0),
        _ => cond::outside_band(x(), 80.0, 120.0),
    };
    let aggressive = match pick {
        0 => cond::delta_rise(x(), 10.0),
        1 => cond::delta_rise(x(), 20.0),
        _ => cond::crosses_level(x(), 100.0),
    };
    let conservative = cond::conservative(aggressive.clone());
    pick_kind(kind, seed, non_historical, conservative, aggressive)
}

/// The condition of `kind`; a lossless run rotates over the three.
fn pick_kind(
    kind: ScenarioKind,
    seed: u64,
    non_historical: CompiledCondition,
    conservative: CompiledCondition,
    aggressive: CompiledCondition,
) -> CompiledCondition {
    match kind {
        ScenarioKind::Lossless => match mix(seed ^ 0xabcd) % 3 {
            0 => non_historical,
            1 => conservative,
            _ => aggressive,
        },
        ScenarioKind::LossyNonHistorical => non_historical,
        ScenarioKind::LossyConservative => conservative,
        ScenarioKind::LossyAggressive => aggressive,
    }
}

fn multi_condition(kind: ScenarioKind, seed: u64) -> CompiledCondition {
    let theta = if mix(seed).is_multiple_of(2) { 5.0 } else { 20.0 };
    let delta = if mix(seed ^ 0x11).is_multiple_of(2) { 8.0 } else { 15.0 };
    let non_historical = cond::abs_difference(x(), y(), theta);
    let aggressive = cond::delta_rise(x(), delta) | cond::delta_rise(y(), delta);
    let conservative = cond::conservative(aggressive.clone());
    pick_kind(kind, seed, non_historical, conservative, aggressive)
}

fn multi_condition3(kind: ScenarioKind, seed: u64) -> CompiledCondition {
    let theta = if mix(seed).is_multiple_of(2) { 5.0 } else { 20.0 };
    let delta = if mix(seed ^ 0x11).is_multiple_of(2) { 8.0 } else { 15.0 };
    let non_historical =
        cond::abs_difference(x(), y(), theta) | cond::abs_difference(y(), z(), theta);
    let aggressive =
        cond::delta_rise(x(), delta) | cond::delta_rise(y(), delta) | cond::delta_rise(z(), delta);
    let conservative = cond::conservative(aggressive.clone());
    pick_kind(kind, seed, non_historical, conservative, aggressive)
}

fn loss_spec(kind: ScenarioKind, seed: u64, link: u64) -> LossSpec {
    match kind {
        ScenarioKind::Lossless => LossSpec::Lossless,
        _ => match mix(seed ^ (0x77 + link)) % 2 {
            0 => LossSpec::Bernoulli(0.2),
            _ => LossSpec::Burst { target: 0.25, burst_len: 3.0 },
        },
    }
}

/// Builds the randomized scenario for one Monte-Carlo run.
///
/// Lossless scenarios use per-link constant delays (no loss, no
/// reordering — every replica receives everything, though multi-var
/// replicas may see different interleavings, exactly Theorem 10's
/// setting). Lossy scenarios add Bernoulli or burst loss; jittery front
/// delays additionally convert overtaking into loss at the in-order
/// gate, which is still "lossy front links" in the paper's model.
pub fn build_scenario(kind: ScenarioKind, topo: Topology, seed: u64) -> Scenario {
    build_scenario_n(kind, topo, seed, 2)
}

/// [`build_scenario`] with an explicit replica count (1 = the paper's
/// non-replicated system; the paper's two-CE analysis "can be easily
/// extended" to more).
pub fn build_scenario_n(
    kind: ScenarioKind,
    topo: Topology,
    seed: u64,
    replicas: usize,
) -> Scenario {
    let condition = Arc::new(match topo {
        Topology::SingleVar => single_condition(kind, seed),
        Topology::MultiVar => multi_condition(kind, seed),
        Topology::MultiVar3 => multi_condition3(kind, seed),
    });
    let vars = condition.variables();
    let (updates, period) = match topo {
        Topology::SingleVar => (24u64, 10u64),
        Topology::MultiVar => (6u64, 10u64),
        // 9 combined updates keeps the completeness enumeration
        // (multinomial over three streams) tractable.
        Topology::MultiVar3 => (3u64, 10u64),
    };
    let workloads: Vec<VarWorkload> = vars
        .iter()
        .enumerate()
        .map(|(vi, &var)| VarWorkload {
            var,
            updates,
            period,
            offset: (vi as u64) * 3 + mix(seed ^ (0x55 + vi as u64)) % 4,
            values: ValueSpec::RandomWalk { start: 100.0, step: 25.0, lo: 0.0, hi: 200.0 },
        })
        .collect();

    let links = vars.len() * replicas;
    let front_loss: Vec<LossSpec> = (0..links).map(|l| loss_spec(kind, seed, l as u64)).collect();
    let front_delay: Vec<DelaySpec> = (0..links)
        .map(|l| match kind {
            // Constant per-link delay: lossless AND in-order. Spreads
            // of several update periods give the replicas genuinely
            // different interleavings (Theorem 10's setting).
            ScenarioKind::Lossless => DelaySpec::Constant(1 + mix(seed ^ (0x99 + l as u64)) % 35),
            _ => DelaySpec::Uniform(0, 4),
        })
        .collect();
    // Replica-skewed back delays: one replica's alerts can lag several
    // update periods behind another's, making cross-replica arrival
    // inversions at the AD a regular occurrence rather than a
    // coincidence.
    let back_delay: Vec<DelaySpec> = (0..replicas)
        .map(|c| {
            let base = mix(seed ^ (0x33 + c as u64)) % 40;
            DelaySpec::Uniform(base, base + 25)
        })
        .collect();

    Scenario {
        condition,
        replicas,
        workloads,
        front_loss,
        front_delay,
        back_delay,
        outages: vec![],
        ad_outages: vec![],
        link_salt: 0,
        seed,
    }
}

/// Violation counters for one (scenario class, filter) cell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PropertyCounts {
    /// Runs executed.
    pub runs: u64,
    /// Runs whose displayed sequence was unordered.
    pub unordered: u64,
    /// Runs whose displayed sequence was incomplete.
    pub incomplete: u64,
    /// Runs whose displayed sequence was inconsistent.
    pub inconsistent: u64,
    /// Seed of the first unordered run.
    pub first_unordered_seed: Option<u64>,
    /// Seed of the first incomplete run.
    pub first_incomplete_seed: Option<u64>,
    /// Seed of the first inconsistent run.
    pub first_inconsistent_seed: Option<u64>,
}

/// Runs one simulation and checks all three properties of the filtered
/// output; returns `(ordered, complete, consistent)`.
pub fn check_run(
    condition: &CompiledCondition,
    result: &RunResult,
    displayed: &[Alert],
) -> (bool, bool, bool) {
    let vars = condition.variables();
    let ordered = check_ordered(displayed, &vars).ok;
    let inputs = &result.inputs;
    let complete = check_complete_multi(condition, inputs, displayed).ok;
    (ordered, complete, check_consistent_multi(condition, inputs, displayed).ok)
}

/// The per-run seed for run `i` of a cell evaluated with `base_seed`.
pub fn run_seed(base_seed: u64, i: u64) -> u64 {
    base_seed.wrapping_add(i.wrapping_mul(0x9e37_79b9))
}

/// One seeded trial: builds the scenario, runs it, filters the
/// arrivals, and checks the three properties. Returns
/// `(ordered, complete, consistent)`.
fn run_property_trial(
    kind: ScenarioKind,
    topo: Topology,
    filter: FilterKind,
    seed: u64,
    replicas: usize,
) -> (bool, bool, bool) {
    let scenario = build_scenario_n(kind, topo, seed, replicas);
    let condition = scenario.condition.clone();
    let vars = condition.variables();
    let result = run(scenario);
    let mut filt = filter.build(&vars);
    let displayed = apply_filter(&mut *filt, &result.arrivals);
    check_run(&condition, &result, &displayed)
}

/// Folds per-run trial outcomes into counters, in run order — the fold
/// is sequential so `first_*_seed` is the genuinely first violating
/// seed regardless of how the trials were executed.
fn fold_trials(
    runs: u64,
    trials: impl IntoIterator<Item = (u64, (bool, bool, bool))>,
) -> PropertyCounts {
    let mut counts = PropertyCounts { runs, ..Default::default() };
    for (seed, (ordered, complete, consistent)) in trials {
        if !ordered {
            counts.unordered += 1;
            counts.first_unordered_seed.get_or_insert(seed);
        }
        if !complete {
            counts.incomplete += 1;
            counts.first_incomplete_seed.get_or_insert(seed);
        }
        if !consistent {
            counts.inconsistent += 1;
            counts.first_inconsistent_seed.get_or_insert(seed);
        }
    }
    counts
}

/// Evaluates one table cell: `runs` randomized executions of the
/// scenario class under the filter with `replicas` CE replicas, with
/// property checks on each.
///
/// The `runs` trials execute on the deterministic parallel harness
/// ([`crate::par::map_indexed`]); each trial's seed is a pure function
/// of its index, so the returned counts are identical for any worker
/// count.
pub fn evaluate_cell_n(
    kind: ScenarioKind,
    topo: Topology,
    filter: FilterKind,
    runs: u64,
    base_seed: u64,
    replicas: usize,
) -> PropertyCounts {
    let trials = crate::par::map_indexed(runs as usize, |i| {
        let seed = run_seed(base_seed, i as u64);
        (seed, run_property_trial(kind, topo, filter, seed, replicas))
    });
    fold_trials(runs, trials)
}

/// The paper's claimed cells for a (topology, filter) pair, in
/// [`ScenarioKind::ALL`] row order; each row is
/// `[ordered, complete, consistent]`, `true` = guaranteed (√).
///
/// Sources: Table 1 (AD-1), Table 2 (AD-2), §4.3/§4.4 prose (AD-3 and
/// AD-4 variants), Theorem 10 (multi-variable AD-1), Table 3 (AD-5),
/// §5.2 prose (AD-6).
pub fn paper_expected(topo: Topology, filter: FilterKind) -> Option<[[bool; 3]; 4]> {
    use FilterKind::*;
    use Topology::*;
    let t = true;
    let f = false;
    match (topo, filter) {
        (SingleVar, Ad1) => Some([[t, t, t], [f, t, t], [f, f, t], [f, f, f]]),
        (SingleVar, Ad2) => Some([[t, t, t], [t, f, t], [t, f, t], [t, f, f]]),
        (SingleVar, Ad3) => Some([[t, t, t], [f, t, t], [f, f, t], [f, f, t]]),
        (SingleVar, Ad4) => Some([[t, t, t], [t, f, t], [t, f, t], [t, f, t]]),
        (MultiVar | MultiVar3, Ad1) => Some([[f, f, f], [f, f, f], [f, f, f], [f, f, f]]),
        (MultiVar | MultiVar3, Ad5) => Some([[t, f, t], [t, f, t], [t, f, t], [t, f, f]]),
        (MultiVar | MultiVar3, Ad6) => Some([[t, f, t], [t, f, t], [t, f, t], [t, f, t]]),
        _ => None,
    }
}

/// Produces a full property matrix (one of the paper's tables) by
/// Monte Carlo.
pub fn property_matrix(
    title: &str,
    topo: Topology,
    filter: FilterKind,
    runs: u64,
    base_seed: u64,
) -> Matrix {
    let expected = paper_expected(topo, filter);
    let replicas = 2;
    let per_cell = runs as usize;
    // Flatten the whole (scenario row × run) grid into one indexed job
    // list so the parallel harness balances across rows, not just
    // within a cell. Each job derives its row and its seed purely from
    // the flat index, and the per-row sequential folds below reproduce
    // exactly what per-cell serial loops would have counted.
    let trials = crate::par::map_indexed(ScenarioKind::ALL.len() * per_cell, |j| {
        let ri = j / per_cell.max(1);
        let i = (j % per_cell.max(1)) as u64;
        let kind = ScenarioKind::ALL[ri];
        let seed = run_seed(base_seed ^ (ri as u64) << 32, i);
        (seed, run_property_trial(kind, topo, filter, seed, replicas))
    });
    let rows = ScenarioKind::ALL
        .iter()
        .enumerate()
        .map(|(ri, &kind)| {
            let row_trials = trials[ri * per_cell..(ri + 1) * per_cell].iter().copied();
            let counts = fold_trials(runs, row_trials);
            let exp = expected.map(|e| e[ri]);
            MatrixRow {
                scenario: kind.label().to_owned(),
                cells: [
                    MatrixCell {
                        expected: exp.map(|e| e[0]),
                        violations: counts.unordered,
                        runs,
                        first_seed: counts.first_unordered_seed,
                    },
                    MatrixCell {
                        expected: exp.map(|e| e[1]),
                        violations: counts.incomplete,
                        runs,
                        first_seed: counts.first_incomplete_seed,
                    },
                    MatrixCell {
                        expected: exp.map(|e| e[2]),
                        violations: counts.inconsistent,
                        runs,
                        first_seed: counts.first_inconsistent_seed,
                    },
                ],
            }
        })
        .collect();
    Matrix { title: title.to_owned(), filter: filter.label().to_owned(), rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RUNS: u64 = 25;

    #[test]
    fn lossless_single_ad1_has_no_violations() {
        let c = evaluate_cell_n(
            ScenarioKind::Lossless,
            Topology::SingleVar,
            FilterKind::Ad1,
            RUNS,
            11,
            2,
        );
        assert_eq!((c.unordered, c.incomplete, c.inconsistent), (0, 0, 0), "{c:?}");
    }

    #[test]
    fn lossy_aggressive_ad1_finds_all_three_violations() {
        let c = evaluate_cell_n(
            ScenarioKind::LossyAggressive,
            Topology::SingleVar,
            FilterKind::Ad1,
            60,
            22,
            2,
        );
        assert!(c.unordered > 0, "{c:?}");
        assert!(c.incomplete > 0, "{c:?}");
        assert!(c.inconsistent > 0, "{c:?}");
        assert!(c.first_inconsistent_seed.is_some());
    }

    #[test]
    fn ad2_always_ordered_ad3_always_consistent() {
        for kind in ScenarioKind::ALL {
            let c2 = evaluate_cell_n(kind, Topology::SingleVar, FilterKind::Ad2, RUNS, 33, 2);
            assert_eq!(c2.unordered, 0, "AD-2 unordered under {kind:?}");
            let c3 = evaluate_cell_n(kind, Topology::SingleVar, FilterKind::Ad3, RUNS, 44, 2);
            assert_eq!(c3.inconsistent, 0, "AD-3 inconsistent under {kind:?}");
            let c4 = evaluate_cell_n(kind, Topology::SingleVar, FilterKind::Ad4, RUNS, 55, 2);
            assert_eq!(c4.unordered + c4.inconsistent, 0, "AD-4 violated under {kind:?}");
        }
    }

    #[test]
    fn multi_var_ad5_ordered_ad6_consistent() {
        for kind in ScenarioKind::ALL {
            let c5 = evaluate_cell_n(kind, Topology::MultiVar, FilterKind::Ad5, 15, 66, 2);
            assert_eq!(c5.unordered, 0, "AD-5 unordered under {kind:?}");
            let c6 = evaluate_cell_n(kind, Topology::MultiVar, FilterKind::Ad6, 15, 77, 2);
            assert_eq!(c6.unordered + c6.inconsistent, 0, "AD-6 violated under {kind:?}");
        }
    }

    #[test]
    fn three_variable_systems_keep_the_guarantees() {
        for kind in [ScenarioKind::Lossless, ScenarioKind::LossyAggressive] {
            let c5 = evaluate_cell_n(kind, Topology::MultiVar3, FilterKind::Ad5, 10, 88, 2);
            assert_eq!(c5.unordered, 0, "AD-5 unordered under {kind:?} with 3 vars");
            let c6 = evaluate_cell_n(kind, Topology::MultiVar3, FilterKind::Ad6, 10, 99, 2);
            assert_eq!(
                c6.unordered + c6.inconsistent,
                0,
                "AD-6 violated under {kind:?} with 3 vars"
            );
        }
    }

    #[test]
    fn single_replica_never_violates_anything() {
        // replicas = 1 is the paper's corresponding non-replicated
        // system: every property holds by construction.
        for filter in [FilterKind::PassThrough, FilterKind::Ad1] {
            let c = evaluate_cell_n(
                ScenarioKind::LossyAggressive,
                Topology::SingleVar,
                filter,
                40,
                123,
                1,
            );
            assert_eq!((c.unordered, c.incomplete, c.inconsistent), (0, 0, 0), "{filter:?}: {c:?}");
        }
    }

    #[test]
    fn more_replicas_expose_more_inconsistency_under_ad1() {
        let two = evaluate_cell_n(
            ScenarioKind::LossyAggressive,
            Topology::SingleVar,
            FilterKind::Ad1,
            40,
            7,
            2,
        );
        let four = evaluate_cell_n(
            ScenarioKind::LossyAggressive,
            Topology::SingleVar,
            FilterKind::Ad1,
            40,
            7,
            4,
        );
        assert!(
            four.inconsistent >= two.inconsistent,
            "four replicas {} < two replicas {}",
            four.inconsistent,
            two.inconsistent
        );
        // AD-4 keeps its guarantees regardless of the replica count.
        let four_ad4 = evaluate_cell_n(
            ScenarioKind::LossyAggressive,
            Topology::SingleVar,
            FilterKind::Ad4,
            40,
            7,
            4,
        );
        assert_eq!(four_ad4.unordered + four_ad4.inconsistent, 0);
    }

    #[test]
    fn scenario_building_is_deterministic() {
        let a = build_scenario(ScenarioKind::LossyAggressive, Topology::SingleVar, 9);
        let b = build_scenario(ScenarioKind::LossyAggressive, Topology::SingleVar, 9);
        assert_eq!(a.condition.name(), b.condition.name());
        assert_eq!(a.front_loss, b.front_loss);
        assert_eq!(a.front_delay, b.front_delay);
        let ra = run(a);
        let rb = run(b);
        assert_eq!(ra.arrivals, rb.arrivals);
    }

    #[test]
    fn filter_kinds_build_and_label() {
        let single = [x()];
        let multi = [x(), y()];
        for fk in [
            FilterKind::PassThrough,
            FilterKind::Ad1,
            FilterKind::Ad2,
            FilterKind::Ad3,
            FilterKind::Ad4,
        ] {
            let f = fk.build(&single);
            assert!(!f.name().is_empty());
        }
        for fk in [FilterKind::Ad5, FilterKind::Ad6] {
            let f = fk.build(&multi);
            assert!(!f.name().is_empty());
        }
        assert_eq!(FilterKind::Ad1.label(), "AD-1");
    }

    #[test]
    fn filter_kinds_are_named_as_by_name_reads_them() {
        assert_eq!(
            FilterKind::ALL.map(FilterKind::name),
            ["pass", "ad1", "ad2", "ad3", "ad4", "ad5", "ad6"]
        );
        for kind in FilterKind::ALL {
            let built =
                ad::by_name(kind.name(), &[x()]).expect("every filter runs on one variable");
            assert_eq!(kind.build(&[x()]).name(), built.name(), "{}", kind.label());
        }
        assert_eq!(FilterKind::Ad6.build(&[x(), y()]).name(), "AD-6");
    }

    #[test]
    #[should_panic(expected = "single-variable")]
    fn ad2_rejects_multi_var() {
        FilterKind::Ad2.build(&[x(), y()]);
    }

    #[test]
    fn expected_tables_shape() {
        let t1 = paper_expected(Topology::SingleVar, FilterKind::Ad1).unwrap();
        assert_eq!(t1[0], [true, true, true]);
        assert_eq!(t1[3], [false, false, false]);
        assert!(paper_expected(Topology::SingleVar, FilterKind::Ad5).is_none());
    }

    #[test]
    fn evaluate_cell_is_identical_for_any_thread_count() {
        let cell = |threads| {
            crate::par::with_threads(threads, || {
                evaluate_cell_n(
                    ScenarioKind::LossyAggressive,
                    Topology::SingleVar,
                    FilterKind::Ad1,
                    30,
                    22,
                    2,
                )
            })
        };
        let serial = cell(1);
        for threads in [2, 3, 8] {
            assert_eq!(cell(threads), serial, "threads = {threads}");
        }
    }

    #[test]
    fn property_matrix_is_bit_identical_serial_vs_parallel() {
        let matrix = |threads| {
            crate::par::with_threads(threads, || {
                property_matrix("Table 1", Topology::SingleVar, FilterKind::Ad1, 8, 0x5eed)
            })
        };
        let serial = matrix(1);
        for threads in [2, 7] {
            assert_eq!(matrix(threads), serial, "threads = {threads}");
        }
        assert_eq!(matrix(6), serial, "threads = 6");
    }
}
