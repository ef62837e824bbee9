//! Multi-condition systems (paper Appendix D, Fig. D-7(c)).
//!
//! Several conditions are monitored over the *same* real-world
//! variables, each by its own set of replicated Condition Evaluators
//! with its own front links; all alert streams converge on one Alert
//! Displayer, which demultiplexes per condition and runs one filter
//! instance per stream.
//!
//! The construction reduces to independent single-condition systems
//! (the appendix's observation), which is exactly how it is simulated:
//! one engine run per condition, sharing the DM value stream (same
//! seed) over independent links (distinct salts), merged at the AD by
//! arrival time. The runtime's `MonitorSystem::builder_multi` and the
//! `rcm-ce` node deploy the other layout instead: one replicated CE
//! group whose replicas each host every condition in one
//! `ConditionRegistry`.

use std::sync::Arc;

use rcm_core::condition::expr::CompiledCondition;
use rcm_core::condition::Condition;
use rcm_core::{Alert, CondId, VarId};

use crate::engine::{run, RunResult};
use crate::event::SimTime;
use crate::scenario::{DelaySpec, LossSpec, Scenario, VarWorkload};
use crate::workload::ValueSpec;

/// One shared Data Monitor description (rebuildable per condition run).
#[derive(Debug, Clone, PartialEq)]
pub struct SharedWorkload {
    /// The monitored variable.
    pub var: VarId,
    /// Number of updates emitted.
    pub updates: u64,
    /// Ticks between emissions.
    pub period: SimTime,
    /// Tick of the first emission.
    pub offset: SimTime,
    /// Value process specification.
    pub values: ValueSpec,
}

/// A multi-condition scenario: shared DMs, one replicated CE group per
/// condition.
#[derive(Debug)]
pub struct MultiCondScenario {
    /// The monitored conditions; index `i` becomes `CondId::new(i)`.
    pub conditions: Vec<Arc<CompiledCondition>>,
    /// Replicas per condition.
    pub replicas: usize,
    /// Shared Data Monitors. Every variable used by any condition must
    /// appear here; each condition's CEs subscribe to the subset they
    /// need.
    pub workloads: Vec<SharedWorkload>,
    /// Front-link loss spec (uniform across links).
    pub front_loss: LossSpec,
    /// Front-link delay spec.
    pub front_delay: DelaySpec,
    /// Back-link delay spec.
    pub back_delay: DelaySpec,
    /// Master seed.
    pub seed: u64,
}

/// Result of a multi-condition run.
#[derive(Debug, Clone)]
pub struct MultiCondResult {
    /// Per condition: the full single-condition execution record, with
    /// alert condition ids rewritten to the condition's index.
    pub per_condition: Vec<RunResult>,
    /// All alerts merged by arrival time (ties broken by condition
    /// index) — the stream the shared AD actually processes.
    pub arrivals: Vec<Alert>,
}

impl MultiCondResult {
    /// The displayed alerts of `displayed` belonging to condition
    /// `index`, with their condition id reset to [`CondId::SINGLE`] so
    /// they compare equal against single-condition reference runs
    /// (property checking).
    pub fn stream_of(displayed: &[Alert], index: u32) -> Vec<Alert> {
        displayed
            .iter()
            .filter(|a| a.cond == CondId::new(index))
            .map(|a| a.clone().with_cond(CondId::SINGLE))
            .collect()
    }
}

/// Runs a multi-condition scenario: one engine run per condition with
/// the shared seed (identical DM values) and a per-condition link salt
/// (independent losses and delays), merged by arrival time.
///
/// # Panics
///
/// Panics if a condition uses a variable with no shared workload, or
/// propagates the engine's scenario validation panics.
pub fn run_multi(scenario: &MultiCondScenario) -> MultiCondResult {
    let mut per_condition = Vec::with_capacity(scenario.conditions.len());
    let mut tagged: Vec<(u64, u32, usize)> = Vec::new(); // (arrived, cond, idx)

    for (ci, condition) in scenario.conditions.iter().enumerate() {
        let vars = condition.variables();
        let workloads: Vec<VarWorkload> = scenario
            .workloads
            .iter()
            .filter(|w| vars.contains(&w.var))
            .map(|w| VarWorkload {
                var: w.var,
                updates: w.updates,
                period: w.period,
                offset: w.offset,
                model: w.values.build(),
            })
            .collect();
        for v in &vars {
            assert!(
                workloads.iter().any(|w| w.var == *v),
                "condition {ci} uses variable {v} with no shared workload"
            );
        }
        let single = Scenario {
            condition: Arc::clone(condition),
            replicas: scenario.replicas,
            workloads,
            front_loss: vec![scenario.front_loss.clone()],
            front_delay: vec![scenario.front_delay.clone()],
            back_delay: vec![scenario.back_delay.clone()],
            outages: vec![],
            ad_outages: vec![],
            seed: scenario.seed,
            link_salt: ci as u64 + 1,
        };
        let mut result = run(single);
        // Tag every alert with the condition's id.
        let cond_id = CondId::new(ci as u32);
        for alerts in result.ce_outputs.iter_mut().chain([&mut result.arrivals]) {
            *alerts = std::mem::take(alerts).into_iter().map(|a| a.with_cond(cond_id)).collect();
        }
        for ai in 0..result.arrivals.len() {
            tagged.push((result.arrival_times[ai].1, ci as u32, ai));
        }
        per_condition.push(result);
    }

    // Merge by arrival time; equal times break by condition index then
    // stream position (deterministic). The clone is a refcount bump on
    // the alert's shared body, not a payload copy.
    tagged.sort_unstable();
    let arrivals = tagged
        .into_iter()
        .map(|(_, ci, ai)| per_condition[ci as usize].arrivals[ai].clone())
        .collect();
    MultiCondResult { per_condition, arrivals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_core::ad::{apply_filter, Ad4, PerCondition};
    use rcm_core::condition::{cond, Cmp};
    use rcm_props::{check_consistent_multi, check_ordered};

    fn x() -> VarId {
        VarId::new(0)
    }

    fn scenario(seed: u64) -> MultiCondScenario {
        MultiCondScenario {
            conditions: vec![
                Arc::new(cond::threshold(x(), Cmp::Gt, 110.0)),
                Arc::new(cond::delta_rise(x(), 15.0)),
            ],
            replicas: 2,
            workloads: vec![SharedWorkload {
                var: x(),
                updates: 30,
                period: 10,
                offset: 0,
                values: ValueSpec::RandomWalk { start: 100.0, step: 25.0, lo: 0.0, hi: 200.0 },
            }],
            front_loss: LossSpec::Bernoulli(0.2),
            front_delay: DelaySpec::Uniform(0, 3),
            back_delay: DelaySpec::Uniform(0, 20),
            seed,
        }
    }

    #[test]
    fn conditions_observe_identical_dm_values() {
        let r = run_multi(&scenario(5));
        assert_eq!(r.per_condition.len(), 2);
        // Same emitted stream for both conditions (shared DM)…
        assert_eq!(r.per_condition[0].emitted, r.per_condition[1].emitted);
        // …but independent links: received sets generally differ.
        assert_ne!(r.per_condition[0].inputs, r.per_condition[1].inputs);
    }

    #[test]
    fn merged_arrivals_preserve_time_order_and_tags() {
        let r = run_multi(&scenario(6));
        let total: usize = r.per_condition.iter().map(|p| p.arrivals.len()).sum();
        assert_eq!(r.arrivals.len(), total);
        let c0 = r.arrivals.iter().filter(|a| a.cond == CondId::new(0)).count();
        let c1 = r.arrivals.iter().filter(|a| a.cond == CondId::new(1)).count();
        assert_eq!(c0, r.per_condition[0].arrivals.len());
        assert_eq!(c1, r.per_condition[1].arrivals.len());
    }

    #[test]
    fn per_condition_filtering_keeps_per_stream_guarantees() {
        for seed in 0..5u64 {
            let sc = scenario(seed);
            let r = run_multi(&sc);
            let mut ad = PerCondition::new(|_c| Ad4::new(x()));
            let displayed = apply_filter(&mut ad, &r.arrivals);
            for (ci, cond) in sc.conditions.iter().enumerate() {
                let stream = MultiCondResult::stream_of(&displayed, ci as u32);
                assert!(check_ordered(&stream, &[x()]).ok, "seed {seed} condition {ci} unordered");
                let cons = check_consistent_multi(cond, &r.per_condition[ci].inputs, &stream);
                assert!(cons.ok, "seed {seed} condition {ci}: {:?}", cons.conflict);
            }
        }
    }

    #[test]
    fn determinism() {
        let a = run_multi(&scenario(9));
        let b = run_multi(&scenario(9));
        assert_eq!(a.arrivals, b.arrivals);
    }

    #[test]
    #[should_panic(expected = "no shared workload")]
    fn missing_workload_rejected() {
        let mut sc = scenario(1);
        sc.conditions.push(Arc::new(cond::threshold(VarId::new(9), Cmp::Gt, 0.0)));
        run_multi(&sc);
    }
}
