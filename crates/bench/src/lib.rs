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
//! The criterion benches (`cargo bench -p rcm-bench`) measure the cost
//! of this implementation: sequence ops, evaluator and filter
//! throughput, simulator runs, and a scaled-down table cell.

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

/// Shared workload for the multi-condition throughput benches: the
/// criterion `throughput` bench, the `bench_snapshot` section and the
/// `throughput_smoke` CI check all measure exactly this registry load,
/// so their numbers are comparable.
///
/// Every condition is a compiled expression over four of
/// [`throughput::VARS`] shared variables, summing one window-16
/// aggregate per variable — the shape where the registry's shared
/// store pays: each aggregate is one node however many conditions sum
/// it, and an update to one variable recomputes that one aggregate
/// once, while [`throughput::EvaluatorLoop`], the reference, keeps a
/// history per condition and re-sums all four on every arrival.
pub mod throughput {
    use rcm_core::condition::expr::CompiledCondition;
    use rcm_core::condition::Condition;
    use rcm_core::{Alert, CeId, CondId, Evaluator, Update, VarId, VarRegistry};

    /// Number of distinct variables the conditions draw from.
    pub const VARS: usize = 8;

    /// Compiles `n` conditions over the shared variable pool; returns
    /// them with the pool's [`VarId`]s (registration order).
    ///
    /// # Panics
    ///
    /// Panics if the workload template fails to compile (a bug).
    pub fn conditions(n: usize) -> (Vec<CompiledCondition>, Vec<VarId>) {
        let mut reg = VarRegistry::new();
        let ids: Vec<VarId> = (0..VARS).map(|v| reg.register(&format!("v{v}"))).collect();
        let conds = (0..n)
            .map(|i| {
                let a = format!("v{}", i % VARS);
                let b = format!("v{}", (i + 1) % VARS);
                let c = format!("v{}", (i + 3) % VARS);
                let d = format!("v{}", (i + 5) % VARS);
                // Thresholds keep alerts rare enough that emission cost
                // (identical on both sides) does not drown evaluation.
                let t = 80 + (i % 40) as i64;
                let jump = 100 + (i % 30) as i64;
                let src = format!(
                    "avg_over({a}, 16) + avg_over({b}, 16) \
                     + avg_over({c}, 16) + avg_over({d}, 16) > {t} \
                     || {a}[0].value - {a}[-1].value > {jump}"
                );
                CompiledCondition::compile(&src, &mut reg).expect("throughput workload compiles")
            })
            .collect();
        (conds, ids)
    }

    /// A deterministic update stream round-robining the variable pool
    /// with consecutive per-variable seqnos and hash-derived values in
    /// `[-100, 100)`.
    pub fn stream(ids: &[VarId], updates: usize) -> Vec<Update> {
        (0..updates)
            .map(|i| {
                let v = i % ids.len();
                let seqno = (i / ids.len()) as u64 + 1;
                let h = (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let value = ((h >> 16) % 200) as f64 - 100.0;
                Update::new(ids[v], seqno, value)
            })
            .collect()
    }

    /// The reference a `ConditionRegistry` is measured against, with
    /// the registry's ingest surface: one independent [`Evaluator`] per
    /// condition (ids `0, 1, …` like `ConditionRegistry::add`), each
    /// offered every update for a variable its condition reads, in
    /// registration order.
    #[derive(Debug)]
    pub struct EvaluatorLoop {
        evaluators: Vec<(Vec<VarId>, Evaluator<CompiledCondition>)>,
    }

    impl EvaluatorLoop {
        /// One evaluator per condition, for replica `ce`.
        pub fn new(ce: CeId, conds: &[CompiledCondition]) -> Self {
            let evaluators = conds
                .iter()
                .enumerate()
                .map(|(i, c)| {
                    (c.variables(), Evaluator::with_ids(c.clone(), CondId::new(i as u32), ce))
                })
                .collect();
            EvaluatorLoop { evaluators }
        }

        /// Clears every evaluator's histories; alert numbering continues.
        pub fn restart(&mut self) {
            for (_, ev) in &mut self.evaluators {
                ev.restart();
            }
        }

        /// Ingests `updates` in order, appending alerts to `out`.
        pub fn ingest_batch(&mut self, updates: &[Update], out: &mut Vec<Alert>) {
            for &u in updates {
                for (reads, ev) in &mut self.evaluators {
                    if reads.contains(&u.var) {
                        out.extend(ev.ingest(u));
                    }
                }
            }
        }
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
