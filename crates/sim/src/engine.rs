//! The simulation engine: wires DMs, CEs and the AD over simulated
//! links and runs the event loop to completion.

use rcm_core::{Alert, CeId, CondId, Condition, ConditionRegistry, Update, VarId};
use rcm_net::{InOrderGate, LossyLink, ReliableLink, Rng, Transmit};

use crate::event::EventQueue;
use crate::scenario::Scenario;

/// Aggregate counters of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Updates emitted by all DMs.
    pub updates_emitted: u64,
    /// Updates dropped by front-link loss models.
    pub updates_lost: u64,
    /// Updates discarded by receiver in-order gates (overtaken in
    /// flight).
    pub updates_reordered: u64,
    /// Updates that arrived while their replica was down.
    pub updates_missed_down: u64,
    /// Updates actually incorporated, summed over replicas.
    pub updates_ingested: u64,
    /// Alerts emitted, summed over replicas.
    pub alerts_emitted: u64,
}

/// Everything a run produced, for property checking and metrics.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Every update emitted by the DMs, in emission order (the paper's
    /// `U`, per variable interleaved by time).
    pub emitted: Vec<Update>,
    /// Per replica: the updates it incorporated, in arrival order (the
    /// paper's `U_i`).
    pub inputs: Vec<Vec<Update>>,
    /// Per replica: the alerts it emitted (the paper's `A_i = T(U_i)`).
    pub ce_outputs: Vec<Vec<Alert>>,
    /// The merged alert arrival sequence at the Alert Displayer, before
    /// any filtering.
    pub arrivals: Vec<Alert>,
    /// Per arrival: `(sent_at, arrived_at)` ticks, aligned with
    /// `arrivals` — the difference is the alert's delivery latency,
    /// including any AD-outage buffering.
    pub arrival_times: Vec<(u64, u64)>,
    /// Aggregate counters.
    pub stats: RunStats,
}

impl RunResult {
    /// Mean alert delivery latency in ticks (0 when no alerts arrived).
    pub fn mean_alert_latency(&self) -> f64 {
        if self.arrival_times.is_empty() {
            return 0.0;
        }
        let total: u64 = self.arrival_times.iter().map(|(s, a)| a - s).sum();
        total as f64 / self.arrival_times.len() as f64
    }
}

#[derive(Debug)]
enum Ev {
    Emit {
        var_index: usize,
    },
    DeliverUpdate {
        ce: usize,
        var_index: usize,
        tag: u64,
        update: Update,
    },
    /// Alerts travel by reference: `(ce, idx)` names the alert already
    /// recorded in `ce_outputs`, so the event loop never clones one.
    DeliverAlert {
        ce: usize,
        idx: usize,
        sent_at: u64,
    },
    CrashStart {
        ce: usize,
    },
    CrashEnd {
        ce: usize,
    },
}

/// Runs a scenario to completion (all workloads drained, all in-flight
/// messages delivered) and returns the full execution record.
///
/// The run is a pure function of the scenario: identical scenarios
/// (including seeds) produce identical results.
///
/// # Panics
///
/// Panics if the scenario is malformed: zero replicas, a workload for
/// a variable outside the condition's variable set, or empty spec
/// lists.
pub fn run(scenario: Scenario) -> RunResult {
    assert!(scenario.replicas >= 1, "need at least one replica");
    let vars: Vec<VarId> = scenario.condition.variables();
    for w in &scenario.workloads {
        assert!(
            vars.contains(&w.var),
            "workload variable {} not in the condition's variable set",
            w.var
        );
    }
    let n_ce = scenario.replicas;
    let n_var = scenario.workloads.len();

    // Two independent random streams: DM values depend on the seed
    // alone, link behaviour also on the salt — so per-condition runs of
    // a multi-condition system (Appendix D) observe identical variables
    // over independent links.
    let mut values_rng = Rng::seed_from_u64(scenario.seed);
    let mut rng = Rng::seed_from_u64(scenario.seed ^ scenario.link_salt.rotate_left(17) ^ 0x11a5);
    let mut queue: EventQueue<Ev> = EventQueue::new();

    // Component state. Everything reading `&scenario` is built first;
    // the owned fields (workloads, AD outages) are then
    // moved out rather than cloned.
    let mut front_links: Vec<LossyLink> = (0..n_var * n_ce)
        .map(|i| {
            let (v, c) = (i / n_ce, i % n_ce);
            LossyLink::new(
                scenario.front_loss_for(v, c).build(),
                scenario.front_delay_for(v, c).build(),
            )
        })
        .collect();
    let mut gates: Vec<InOrderGate> = vec![InOrderGate::new(); n_var * n_ce];
    let mut back_links: Vec<ReliableLink> =
        (0..n_ce).map(|c| ReliableLink::new(scenario.back_delay_for(c).build())).collect();
    let mut down = vec![false; n_ce];

    // Each replica is the deployed Condition Evaluator: a registry
    // hosting the scenario's one condition.
    let mut replicas: Vec<ConditionRegistry> = (0..n_ce)
        .map(|ce| {
            let mut registry = ConditionRegistry::new(CeId::new(ce as u32));
            registry.insert(CondId::SINGLE, scenario.condition.clone());
            registry
        })
        .collect();

    // Workload state.
    let mut models = scenario.workloads;
    let mut next_seqno: Vec<u64> = vec![0; n_var];

    // Outputs. Arrivals are logged as `(ce, idx)` references into
    // `ce_outputs` and materialized once after the event loop.
    let mut emitted: Vec<Update> = Vec::new();
    let mut inputs: Vec<Vec<Update>> = vec![Vec::new(); n_ce];
    let mut ce_outputs: Vec<Vec<Alert>> = vec![Vec::new(); n_ce];
    let mut arrival_log: Vec<(usize, usize)> = Vec::new();
    let mut arrival_times: Vec<(u64, u64)> = Vec::new();
    let mut stats = RunStats::default();

    // Normalize AD outage windows: sorted, validated.
    let mut ad_outages = scenario.ad_outages;
    ad_outages.sort_unstable();
    for w in ad_outages.windows(2) {
        assert!(w[0].1 <= w[1].0, "AD outage windows must not overlap");
    }
    for &(from, to) in &ad_outages {
        assert!(from <= to, "AD outage window inverted");
    }
    // If the AD is down at `t`, the end of the containing window.
    let ad_up_at = |t: u64| -> Option<u64> {
        ad_outages.iter().find(|&&(from, to)| from <= t && t < to).map(|&(_, to)| to)
    };

    // Schedule emissions and outages.
    for (vi, w) in models.iter().enumerate() {
        for i in 0..w.updates {
            queue.schedule(w.offset + i * w.period, Ev::Emit { var_index: vi });
        }
    }
    for o in &scenario.outages {
        assert!(o.ce < n_ce, "outage names replica {} of {n_ce}", o.ce);
        assert!(o.from <= o.to, "outage window inverted");
        queue.schedule(o.from, Ev::CrashStart { ce: o.ce });
        queue.schedule(o.to, Ev::CrashEnd { ce: o.ce });
    }

    while let Some((now, ev)) = queue.pop() {
        match ev {
            Ev::Emit { var_index } => {
                let w = &mut models[var_index];
                next_seqno[var_index] += 1;
                let value = w.model.next(&mut values_rng);
                let update = Update::new(w.var, next_seqno[var_index], value);
                emitted.push(update);
                stats.updates_emitted += 1;
                for ce in 0..n_ce {
                    let link = &mut front_links[var_index * n_ce + ce];
                    match link.transmit(now, &mut rng) {
                        Transmit::Dropped => stats.updates_lost += 1,
                        Transmit::DeliverAt { at, tag } => {
                            queue.schedule(at, Ev::DeliverUpdate { ce, var_index, tag, update })
                        }
                    }
                }
            }
            Ev::DeliverUpdate { ce, var_index, tag, update } => {
                if down[ce] {
                    stats.updates_missed_down += 1;
                    continue;
                }
                if !gates[var_index * n_ce + ce].accept(tag) {
                    stats.updates_reordered += 1;
                    continue;
                }
                let raised = ce_outputs[ce].len();
                replicas[ce].ingest(update, &mut ce_outputs[ce]);
                inputs[ce].push(update);
                stats.updates_ingested += 1;
                for idx in raised..ce_outputs[ce].len() {
                    stats.alerts_emitted += 1;
                    let at = back_links[ce].transmit(now, &mut rng);
                    queue.schedule(at, Ev::DeliverAlert { ce, idx, sent_at: now });
                }
            }
            Ev::DeliverAlert { ce, idx, sent_at } => {
                // Powered-off PDA: the reliable back link buffers the
                // alert and redelivers when the AD comes back. Same-tick
                // redeliveries keep their relative (FIFO) order through
                // the queue's insertion-order tie-break.
                if let Some(up_at) = ad_up_at(now) {
                    queue.schedule(up_at, Ev::DeliverAlert { ce, idx, sent_at });
                } else {
                    arrival_times.push((sent_at, now));
                    arrival_log.push((ce, idx));
                }
            }
            Ev::CrashStart { ce } => {
                down[ce] = true;
                replicas[ce].restart();
            }
            Ev::CrashEnd { ce } => down[ce] = false,
        }
    }

    // Materialize the AD's arrival stream; each clone here is a
    // refcount bump on the alert's shared body, and this is the only
    // place in the run that copies an alert handle.
    let arrivals: Vec<Alert> =
        arrival_log.into_iter().map(|(ce, idx)| ce_outputs[ce][idx].clone()).collect();
    RunResult { emitted, inputs, ce_outputs, arrivals, arrival_times, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{DelaySpec, LossSpec, Outage, VarWorkload};
    use crate::workload::Scripted;
    use rcm_core::condition::{cond, Cmp};
    use std::sync::Arc;

    fn x() -> VarId {
        VarId::new(0)
    }

    fn base_scenario(seed: u64) -> Scenario {
        Scenario {
            condition: Arc::new(cond::threshold(x(), Cmp::Gt, 3000.0)),
            replicas: 2,
            workloads: vec![VarWorkload {
                var: x(),
                updates: 3,
                period: 10,
                offset: 0,
                model: Box::new(Scripted::new(vec![2900.0, 3100.0, 3200.0])),
            }],
            front_loss: vec![LossSpec::Lossless],
            front_delay: vec![DelaySpec::Constant(1)],
            back_delay: vec![DelaySpec::Constant(1)],
            outages: vec![],
            ad_outages: vec![],
            link_salt: 0,
            seed,
        }
    }

    #[test]
    fn example_1_lossless_run() {
        let r = run(base_scenario(1));
        assert_eq!(r.stats.updates_emitted, 3);
        assert_eq!(r.stats.updates_lost, 0);
        // Both CEs receive everything and emit alerts on updates 2 and 3.
        assert_eq!(r.inputs[0].len(), 3);
        assert_eq!(r.inputs[1].len(), 3);
        assert_eq!(r.ce_outputs[0].len(), 2);
        assert_eq!(r.ce_outputs[1].len(), 2);
        assert_eq!(r.arrivals.len(), 4);
    }

    #[test]
    fn example_1_with_scripted_loss() {
        // CE2 misses update 2 (link index 1 = var 0, replica 1).
        let mut sc = base_scenario(2);
        sc.front_loss = vec![LossSpec::Lossless, LossSpec::Scripted(vec![1])];
        let r = run(sc);
        assert_eq!(r.inputs[0].len(), 3);
        assert_eq!(r.inputs[1].len(), 2);
        assert_eq!(r.ce_outputs[0].len(), 2);
        assert_eq!(r.ce_outputs[1].len(), 1); // only the alert on update 3
        assert_eq!(r.stats.updates_lost, 1);
    }

    #[test]
    fn runs_are_deterministic() {
        let mut a = base_scenario(7);
        a.front_loss = vec![LossSpec::Bernoulli(0.3)];
        a.front_delay = vec![DelaySpec::Uniform(0, 5)];
        let mut b = base_scenario(7);
        b.front_loss = vec![LossSpec::Bernoulli(0.3)];
        b.front_delay = vec![DelaySpec::Uniform(0, 5)];
        let ra = run(a);
        let rb = run(b);
        assert_eq!(ra.inputs, rb.inputs);
        assert_eq!(ra.arrivals, rb.arrivals);
        assert_eq!(ra.stats, rb.stats);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = base_scenario(1);
        a.front_loss = vec![LossSpec::Bernoulli(0.5)];
        a.workloads[0].updates = 50;
        let mut b = base_scenario(2);
        b.front_loss = vec![LossSpec::Bernoulli(0.5)];
        b.workloads[0].updates = 50;
        assert_ne!(run(a).inputs, run(b).inputs);
    }

    #[test]
    fn outage_drops_updates_and_clears_history() {
        let mut sc = base_scenario(3);
        sc.outages = vec![Outage { ce: 1, from: 5, to: 15 }];
        // Updates emitted at 0, 10, 20, delivered at +1: CE1 misses the
        // one delivered at 11.
        let r = run(sc);
        assert_eq!(r.inputs[0].len(), 3);
        assert_eq!(r.inputs[1].len(), 2);
        assert_eq!(r.stats.updates_missed_down, 1);
    }

    #[test]
    fn reordering_becomes_loss_at_the_gate() {
        let mut sc = base_scenario(4);
        sc.workloads[0].updates = 40;
        sc.workloads[0].period = 1;
        sc.front_delay = vec![DelaySpec::Uniform(0, 10)];
        let r = run(sc);
        assert!(r.stats.updates_reordered > 0, "expected overtaking with jittery delays");
        // Gate-discarded updates are missing from the replica's input.
        assert!(r.inputs[0].len() < 40 || r.inputs[1].len() < 40);
        // Received seqnos are strictly increasing per replica.
        for input in &r.inputs {
            let seqs: Vec<u64> = input.iter().map(|u| u.seqno.get()).collect();
            assert!(seqs.windows(2).all(|w| w[0] < w[1]), "strictly ordered: {seqs:?}");
        }
    }

    #[test]
    fn ad_outage_buffers_alerts_in_order() {
        // Updates at 0, 10, 20 (delivered +1, alerts back +1 → arrivals
        // at 12 and 22 normally). AD down during [5, 100): everything is
        // buffered and redelivered at 100, still in order.
        let mut sc = base_scenario(11);
        sc.replicas = 1;
        sc.ad_outages = vec![(5, 100)];
        let r = run(sc);
        assert_eq!(r.arrivals.len(), 2);
        let seqs: Vec<u64> = r.arrivals.iter().map(|a| a.seqno(x()).unwrap().get()).collect();
        assert_eq!(seqs, vec![2, 3]);
        for &(sent, arrived) in &r.arrival_times {
            assert_eq!(arrived, 100, "buffered alert must arrive at outage end");
            assert!(arrived > sent);
        }
        assert!(r.mean_alert_latency() > 50.0);
    }

    #[test]
    fn ad_outage_outside_alert_window_changes_nothing() {
        let mut base = base_scenario(12);
        base.replicas = 1;
        let plain = run(base);
        let mut with_outage = base_scenario(12);
        with_outage.replicas = 1;
        with_outage.ad_outages = vec![(500, 600)]; // after everything
        let outaged = run(with_outage);
        assert_eq!(plain.arrivals, outaged.arrivals);
        assert_eq!(plain.arrival_times, outaged.arrival_times);
    }

    #[test]
    #[should_panic(expected = "must not overlap")]
    fn overlapping_ad_outages_rejected() {
        let mut sc = base_scenario(13);
        sc.ad_outages = vec![(0, 50), (40, 90)];
        run(sc);
    }

    #[test]
    fn latency_is_tracked_without_outages() {
        let r = run(base_scenario(14));
        assert_eq!(r.arrivals.len(), r.arrival_times.len());
        // Back delay is a constant 1 tick.
        assert!(r.arrival_times.iter().all(|&(s, a)| a - s == 1));
        assert_eq!(r.mean_alert_latency(), 1.0);
    }

    #[test]
    fn non_replicated_system_has_one_stream() {
        let mut sc = base_scenario(5);
        sc.replicas = 1;
        let r = run(sc);
        assert_eq!(r.inputs.len(), 1);
        assert_eq!(r.ce_outputs.len(), 1);
        assert_eq!(r.arrivals.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        let mut sc = base_scenario(6);
        sc.replicas = 0;
        run(sc);
    }

    #[test]
    #[should_panic(expected = "not in the condition's variable set")]
    fn unknown_workload_variable_rejected() {
        let mut sc = base_scenario(8);
        sc.workloads[0].var = VarId::new(9);
        run(sc);
    }
}
