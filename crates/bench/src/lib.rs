//! # rcm-bench — experiment harness for the PODC 2001 reproduction
//!
//! One binary per paper artifact (see DESIGN.md's experiment index):
//!
//! | Binary | Paper artifact |
//! |--------|----------------|
//! | `table1` | Table 1 — single-variable systems under AD-1 |
//! | `table2` | Table 2 — single-variable systems under AD-2 |
//! | `table1_ad3` | §4.3 — Table 1 variant under AD-3 |
//! | `table2_ad4` | §4.4 — Table 2 variant under AD-4 |
//! | `table3` | Table 3 — multi-variable systems under AD-5 |
//! | `table3_ad6` | §5.2 — Table 3 variant under AD-6 |
//! | `thm10` | Theorem 10 — multi-variable AD-1 matrix + worked counterexample |
//! | `domination` | §4.1, Theorems 6 & 8 — pass-through rates and domination checks |
//! | `maximality` | Theorems 5, 7 & 9 — one-extra-alert probes |
//! | `availability` | Figure 1 motivation — missed alerts vs replication |
//! | `table0_baseline` | no filtering at all — why dedup is the baseline |
//! | `table3_trivar` | Table 3 with three variables (§5 "easily extended") |
//! | `replication_sweep` | properties vs replica count (1 = non-replicated) |
//! | `delayed_display` | §4.2's delayed-displaying alternative, measured |
//! | `pda_buffering` | §1's powered-off PDA: buffered alerts, late delivery |
//! | `multi_condition_sim` | Appendix D multi-condition construction |
//! | `ablation_ad6` | AD-6 without its AD-5 half loses consistency |
//! | `wire_sizes` | §2's checksum remark — payload bytes per fidelity |
//!
//! Every binary accepts `--runs N`, `--seed N` and `--json`; all
//! results are pure functions of the seed.
//!
//! How fast the implementation runs is not measured here: the
//! `rcm-e2e` driver under `benchmark/` (declared by `BENCHMARK.json`,
//! described in `benchmark/README.md`) is the one performance harness.

use std::sync::Arc;

use rcm_core::condition::Condition;
use rcm_core::{Alert, Update};
use rcm_sim::montecarlo::{build_scenario, ScenarioKind, Topology};
use rcm_sim::report::Matrix;
use rcm_sim::run;

/// Common command-line options for the experiment binaries.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// Monte-Carlo runs per cell / sweep point.
    pub runs: u64,
    /// Base seed.
    pub seed: u64,
    /// Emit machine-readable JSON instead of ASCII tables.
    pub json: bool,
}

impl Cli {
    /// Parses `--runs N`, `--seed N`, `--json` from `std::env::args`,
    /// with the given default run count.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse(default_runs: u64) -> Self {
        let mut cli = Cli { runs: default_runs, seed: 0x5eed, json: false };
        let mut args = std::env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--runs" => {
                    cli.runs =
                        args.next().and_then(|v| v.parse().ok()).expect("--runs takes an integer");
                }
                "--seed" => {
                    cli.seed =
                        args.next().and_then(|v| v.parse().ok()).expect("--seed takes an integer");
                }
                "--json" => cli.json = true,
                other => panic!("unknown argument '{other}' (expected --runs/--seed/--json)"),
            }
        }
        cli
    }
}

/// Prints a reproduced matrix and its agreement verdict.
pub fn print_matrix(matrix: &Matrix, json: bool) {
    if json {
        println!("{}", matrix.to_json());
    } else {
        println!("{}", matrix.render());
        println!(
            "cells read claimed/measured (violations/runs); agreement with the paper: {}",
            if matrix.matches_paper() { "FULL" } else { "MISMATCH (see !! cells)" }
        );
    }
}

/// One simulated execution used by the domination and maximality
/// experiments: the condition, each replica's received updates, and
/// the merged alert arrival sequence at the AD.
#[derive(Debug, Clone)]
pub struct Execution {
    /// The monitored condition.
    pub condition: Arc<dyn Condition>,
    /// Per replica inputs `U_i`.
    pub inputs: Vec<Vec<Update>>,
    /// Merged alert arrivals, pre-filtering.
    pub arrivals: Vec<Alert>,
}

/// Generates `n` seeded executions of a scenario class.
pub fn executions(kind: ScenarioKind, topo: Topology, n: u64, base_seed: u64) -> Vec<Execution> {
    (0..n)
        .map(|i| {
            let seed = base_seed.wrapping_add(i.wrapping_mul(0x9e37_79b9));
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
