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
//! arrival time.
//!
//! [`run_hosted`] simulates the alternative *hosted* deployment — one
//! replicated CE group, each replica hosting every condition in one
//! [`ConditionRegistry`] — where all conditions on a replica share one
//! subscription and therefore one loss pattern per variable. It is the
//! layout the runtime's `MonitorSystem::builder_multi` and the `rcm-ce`
//! node deploy.

use std::sync::Arc;

use rcm_core::condition::{Condition, Triggering};
use rcm_core::{Alert, CeId, CondId, ConditionRegistry, HistorySet, RegistryStats, Update, VarId};

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
    pub conditions: Vec<Arc<dyn Condition>>,
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

/// The hosted CE group's subscription: a pseudo-condition carrying the
/// union of the monitored variables. It drives the engine's DM and
/// front-link machinery to produce per-replica input streams and never
/// fires itself.
#[derive(Debug)]
struct Subscription {
    vars: Vec<VarId>,
}

impl Condition for Subscription {
    fn name(&self) -> String {
        "hosted-subscription".to_owned()
    }
    fn variables(&self) -> Vec<VarId> {
        self.vars.clone()
    }
    fn degree(&self, var: VarId) -> usize {
        usize::from(self.vars.binary_search(&var).is_ok())
    }
    fn triggering(&self) -> Triggering {
        Triggering::Conservative
    }
    fn eval(&self, _h: &HistorySet) -> bool {
        false
    }
}

/// Result of a hosted multi-condition run ([`run_hosted`]).
#[derive(Debug, Clone)]
pub struct HostedResult {
    /// Every update emitted by the shared DMs, in emission order.
    pub emitted: Vec<Update>,
    /// Per replica: the updates its CE incorporated, in arrival order —
    /// one stream per replica, shared by all hosted conditions.
    pub inputs: Vec<Vec<Update>>,
    /// Per replica: the alerts its registry emitted over the input
    /// stream, in emission order (condition `i` carries
    /// `CondId::new(i)`).
    pub per_replica: Vec<Vec<Alert>>,
    /// Per replica: registry ingestion counters.
    pub stats: Vec<RegistryStats>,
}

/// Runs a multi-condition scenario in the *hosted* deployment: every
/// replica of one CE group hosts every condition in one
/// [`ConditionRegistry`], instead of Appendix D's one CE group per
/// condition ([`run_multi`]).
///
/// The difference is observable: hosted conditions share each replica's
/// front links (one subscription on the variable union, `link_salt` 0),
/// so all conditions on a replica see the *same* loss pattern, while
/// [`run_multi`] gives every condition independent links. Within a
/// replica the registry is byte-identical to independent per-condition
/// evaluators fed that replica's stream.
///
/// # Panics
///
/// Panics if a condition uses a variable with no shared workload, or
/// propagates the engine's validation panics.
pub fn run_hosted(scenario: &MultiCondScenario) -> HostedResult {
    let mut vars: Vec<VarId> = scenario.workloads.iter().map(|w| w.var).collect();
    vars.sort_unstable();
    vars.dedup();
    for (ci, c) in scenario.conditions.iter().enumerate() {
        for v in c.variables() {
            assert!(
                vars.binary_search(&v).is_ok(),
                "condition {ci} uses variable {v} with no shared workload"
            );
        }
    }
    let workloads: Vec<VarWorkload> = scenario
        .workloads
        .iter()
        .map(|w| VarWorkload {
            var: w.var,
            updates: w.updates,
            period: w.period,
            offset: w.offset,
            model: w.values.build(),
        })
        .collect();
    let probe = Scenario {
        condition: Arc::new(Subscription { vars }),
        replicas: scenario.replicas,
        workloads,
        front_loss: vec![scenario.front_loss.clone()],
        front_delay: vec![scenario.front_delay.clone()],
        back_delay: vec![scenario.back_delay.clone()],
        outages: vec![],
        ad_outages: vec![],
        seed: scenario.seed,
        link_salt: 0,
    };
    let probe_run = run(probe);

    let mut per_replica = Vec::with_capacity(scenario.replicas);
    let mut stats = Vec::with_capacity(scenario.replicas);
    for (ce, stream) in probe_run.inputs.iter().enumerate() {
        let mut reg = ConditionRegistry::new(CeId::new(ce as u32));
        for condition in &scenario.conditions {
            reg.add(Arc::clone(condition));
        }
        let mut alerts = Vec::new();
        reg.ingest_batch(stream, &mut alerts);
        stats.push(reg.stats());
        per_replica.push(alerts);
    }
    HostedResult { emitted: probe_run.emitted, inputs: probe_run.inputs, per_replica, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_core::ad::{apply_filter, Ad4, PerCondition};
    use rcm_core::condition::{Cmp, DeltaRise, Threshold};
    use rcm_props::{check_consistent_single, check_ordered};

    fn x() -> VarId {
        VarId::new(0)
    }

    fn scenario(seed: u64) -> MultiCondScenario {
        MultiCondScenario {
            conditions: vec![
                Arc::new(Threshold::new(x(), Cmp::Gt, 110.0)),
                Arc::new(DeltaRise::new(x(), 15.0)),
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
                let cons = check_consistent_single(cond, &r.per_condition[ci].inputs, &stream);
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
        sc.conditions.push(Arc::new(Threshold::new(VarId::new(9), Cmp::Gt, 0.0)));
        run_multi(&sc);
    }

    #[test]
    fn hosted_matches_independent_evaluators_per_replica() {
        use rcm_core::{CeId, Evaluator};
        let sc = scenario(21);
        let r = run_hosted(&sc);
        assert_eq!(r.inputs.len(), sc.replicas);
        assert_eq!(r.per_replica.len(), sc.replicas);
        assert!(r.per_replica.iter().any(|a| !a.is_empty()), "expected hosted alerts");
        for ce in 0..sc.replicas {
            let mut evs: Vec<Evaluator<Arc<dyn Condition>>> = sc
                .conditions
                .iter()
                .enumerate()
                .map(|(ci, c)| {
                    Evaluator::with_ids(Arc::clone(c), CondId::new(ci as u32), CeId::new(ce as u32))
                })
                .collect();
            let mut want = Vec::new();
            for &u in &r.inputs[ce] {
                for (ci, ev) in evs.iter_mut().enumerate() {
                    if sc.conditions[ci].variables().contains(&u.var) {
                        if let Ok(Some(a)) = ev.try_ingest(u) {
                            want.push(a);
                        }
                    }
                }
            }
            assert_eq!(r.per_replica[ce], want);
            for (g, w) in r.per_replica[ce].iter().zip(&want) {
                assert_eq!(g.id, w.id);
                assert_eq!(g.snapshot[..], w.snapshot[..]);
            }
        }
    }

    #[test]
    fn hosted_replicas_share_one_loss_pattern() {
        // All conditions on a replica see the same input stream — the
        // defining difference from `run_multi`'s independent links.
        let sc = scenario(23);
        let r = run_hosted(&sc);
        assert_eq!(r.inputs.len(), 2);
        // The shared stream is the only source: per-replica alerts for
        // both conditions reference seqnos from that replica's inputs.
        for ce in 0..2 {
            let seqnos: Vec<u64> = r.inputs[ce].iter().map(|u| u.seqno.get()).collect();
            for a in &r.per_replica[ce] {
                assert!(seqnos.contains(&a.seqno(x()).unwrap().get()));
            }
        }
    }

    #[test]
    #[should_panic(expected = "no shared workload")]
    fn hosted_missing_workload_rejected() {
        let mut sc = scenario(1);
        sc.conditions.push(Arc::new(Threshold::new(VarId::new(9), Cmp::Gt, 0.0)));
        run_hosted(&sc);
    }
}
