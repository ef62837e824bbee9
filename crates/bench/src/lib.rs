//! # rcm-bench — the paper record of the PODC 2001 reproduction
//!
//! Every artifact of the paper's evaluation is one row of
//! [`ARTIFACTS`]: a name, the EXPERIMENTS.md section it owns, its
//! default run count and a `run(runs, seed)` function that returns a
//! [`Record`] — the artifact's property matrices, tables and verdicts,
//! as data. The `rcm-paper` binary runs the rows `--only` selects (all
//! by default) and shows every record one of three ways: plain text,
//! `--json`, or `--write FILE`, which rewrites the file's generated
//! Markdown blocks and leaves its prose alone.
//!
//! | Artifact | Section | Paper artifact |
//! |----------|---------|----------------|
//! | `table1` | T1 | Table 1 — single-variable systems under AD-1 |
//! | `table2` | T2 | Table 2 — single-variable systems under AD-2 |
//! | `table1_ad3` | T1′ | §4.3 — Table 1 variant under AD-3 |
//! | `table2_ad4` | T2′ | §4.4 — Table 2 variant under AD-4 |
//! | `thm10` | THM10 | Theorem 10 — multi-variable AD-1 matrix + worked counterexample |
//! | `table3` | T3 | Table 3 — multi-variable systems under AD-5 |
//! | `table3_ad6` | T3′ | §5.2 — Table 3 variant under AD-6 |
//! | `table3_trivar` | TRIVAR | Table 3 with three variables (§5 "easily extended") |
//! | `domination` | DOM | §4.1, Theorems 6 & 8 — pass-through counts and domination checks |
//! | `maximality` | MAX | Theorems 5, 7 & 9 — one-extra-alert probes |
//! | `availability` | FIG1 | Figure 1 motivation — missed alerts vs replication |
//! | `replication_sweep` | REPL | properties vs replica count (1 = non-replicated) |
//! | `delayed_display` | DELAY | §4.2's delayed-displaying alternative, measured |
//! | `pda_buffering` | PDA | §1's powered-off PDA: buffered alerts, late delivery |
//! | `table0_baseline` | BASE | no filtering at all — why dedup is the baseline |
//! | `ablation_ad6` | ABLATE | AD-6 without its AD-5 half loses consistency |
//! | `multi_condition_sim` | D | Appendix D multi-condition construction |
//! | `wire_sizes` | WIRE | §2's checksum remark — payload bytes per fidelity |
//!
//! Every record is a pure function of its runs and seed, for any
//! Monte-Carlo thread count (`RCM_THREADS`).
//!
//! How fast the implementation runs is not measured here: the
//! `rcm-e2e` driver under `benchmark/` (declared by `BENCHMARK.json`,
//! described in `benchmark/README.md`) is the one performance harness.

mod experiments;
mod record;
mod splice;
mod theorems;
mod wire_sizes;

use std::sync::Arc;

use rcm_core::condition::expr::CompiledCondition;
use rcm_core::{Alert, Update};
use rcm_sim::montecarlo::FilterKind::{Ad1, Ad2, Ad3, Ad4, Ad5, Ad6, PassThrough};
use rcm_sim::montecarlo::Topology::{MultiVar, MultiVar3, SingleVar};
use rcm_sim::montecarlo::{
    build_scenario, property_matrix, run_seed, FilterKind, ScenarioKind, Topology,
};
use rcm_sim::run;

pub use record::{failures, render_json, render_text, Record};

/// The seed every record in EXPERIMENTS.md is generated with.
pub const DEFAULT_SEED: u64 = 0x5eed;

/// One paper artifact: a row of [`ARTIFACTS`].
#[derive(Debug)]
pub struct Artifact {
    /// Its `--only` name, JSON key and block marker name.
    pub name: &'static str,
    /// The EXPERIMENTS.md section it owns.
    pub section: &'static str,
    /// Default runs per cell, scenario or sweep point.
    pub runs: u64,
    /// Its property matrices, one per `(title, topology, filter)`.
    matrices: &'static [(&'static str, Topology, FilterKind)],
    /// Everything else the artifact computes from `(runs, seed)`.
    more: Option<fn(u64, u64) -> Record>,
}

const fn matrix(
    name: &'static str,
    section: &'static str,
    runs: u64,
    matrices: &'static [(&'static str, Topology, FilterKind)],
) -> Artifact {
    Artifact { name, section, runs, matrices, more: None }
}

const fn sweep(
    name: &'static str,
    section: &'static str,
    runs: u64,
    run: fn(u64, u64) -> Record,
) -> Artifact {
    Artifact { name, section, runs, matrices: &[], more: Some(run) }
}

impl Artifact {
    /// Runs the artifact with `runs` (its default if `None`) from `seed`.
    pub fn record(&self, runs: Option<u64>, seed: u64) -> Record {
        let runs = runs.unwrap_or(self.runs);
        let mut record = Record::default();
        for &(title, topo, filter) in self.matrices {
            record.matrix(property_matrix(title, topo, filter, runs, seed));
        }
        if let Some(more) = self.more {
            record = record.and(more(runs, seed));
        }
        Record { name: self.name, section: self.section, runs, seed, ..record }
    }
}

/// Every artifact, in EXPERIMENTS.md's order. The nine with matrices
/// are the paper's property tables and their variants; THM10 also
/// replays the paper's counterexample.
pub const ARTIFACTS: &[Artifact] = &[
    matrix("table1", "T1", 200, &[("Table 1: single-variable systems", SingleVar, Ad1)]),
    matrix("table2", "T2", 200, &[("Table 2: single-variable systems", SingleVar, Ad2)]),
    matrix("table1_ad3", "T1′", 200, &[("Table 1': single-variable systems", SingleVar, Ad3)]),
    matrix("table2_ad4", "T2′", 200, &[("Table 2': single-variable systems", SingleVar, Ad4)]),
    Artifact {
        more: Some(|_, _| theorems::thm10_counterexample()),
        ..matrix("thm10", "THM10", 100, &[("Theorem 10: multi-variable systems", MultiVar, Ad1)])
    },
    matrix("table3", "T3", 100, &[("Table 3: multi-variable systems", MultiVar, Ad5)]),
    matrix("table3_ad6", "T3′", 100, &[("Table 3': multi-variable systems", MultiVar, Ad6)]),
    matrix(
        "table3_trivar",
        "TRIVAR",
        60,
        &[
            ("Table 3: three-variable systems", MultiVar3, Ad5),
            ("Table 3': three-variable systems", MultiVar3, Ad6),
        ],
    ),
    sweep("domination", "DOM", 120, theorems::domination),
    sweep("maximality", "MAX", 150, theorems::maximality),
    sweep("availability", "FIG1", 40, experiments::availability),
    sweep("replication_sweep", "REPL", 120, theorems::replication_sweep),
    sweep("delayed_display", "DELAY", 120, experiments::delayed_display),
    sweep("pda_buffering", "PDA", 30, experiments::pda_buffering),
    matrix(
        "table0_baseline",
        "BASE",
        100,
        &[("Baseline: single-variable systems, no filtering", SingleVar, PassThrough)],
    ),
    sweep("ablation_ad6", "ABLATE", 100, theorems::ablation_ad6),
    sweep("multi_condition_sim", "D", 100, experiments::multi_condition_sim),
    sweep("wire_sizes", "WIRE", 40, wire_sizes::wire_sizes),
];

/// Rewrites the generated blocks of `doc` (EXPERIMENTS.md's text) that
/// `records` own, leaving every other byte as it was.
///
/// # Errors
///
/// A marker naming no artifact, an artifact marked twice, an unclosed
/// block, or a record whose artifact has no block in `doc`.
pub fn write_blocks(doc: &str, records: &[Record]) -> Result<String, String> {
    let known: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
    let blocks: Vec<(&str, String)> = records.iter().map(|r| (r.name, r.markdown())).collect();
    splice::splice(doc, &known, &blocks)
}

/// One simulated execution used by the domination and maximality
/// experiments: the condition, each replica's received updates, and
/// the merged alert arrival sequence at the AD.
#[derive(Debug, Clone)]
pub(crate) struct Execution {
    /// The monitored condition.
    pub condition: Arc<CompiledCondition>,
    /// Per replica inputs `U_i`.
    pub inputs: Vec<Vec<Update>>,
    /// Merged alert arrivals, pre-filtering.
    pub arrivals: Vec<Alert>,
}

/// Generates `n` seeded executions of a scenario class.
pub(crate) fn executions(
    kind: ScenarioKind,
    topo: Topology,
    n: u64,
    base_seed: u64,
) -> Vec<Execution> {
    (0..n)
        .map(|i| {
            let seed = run_seed(base_seed, i);
            let scenario = build_scenario(kind, topo, seed);
            let condition = scenario.condition.clone();
            let result = run(scenario);
            Execution { condition, inputs: result.inputs, arrivals: result.arrivals }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn executions_are_seeded() {
        let a = executions(ScenarioKind::LossyAggressive, Topology::SingleVar, 3, 1);
        let b = executions(ScenarioKind::LossyAggressive, Topology::SingleVar, 3, 1);
        assert_eq!(a.len(), 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.arrivals, y.arrivals);
        }
    }
}
