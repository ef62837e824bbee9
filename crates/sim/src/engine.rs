//! The simulation engine: wires DMs, CEs and the AD over simulated
//! links and runs the event loop to completion.

use rcm_core::{Alert, CeId, CondId, ConditionRegistry, Update};
use rcm_net::{LossModel, Rng};
use rcm_transport::SeqGate;

use crate::event::{EventQueue, SimTime};
use crate::scenario::Scenario;
use crate::workload::ValueState;

/// Aggregate counters of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Updates emitted by all DMs.
    pub updates_emitted: u64,
    /// Updates dropped by front-link loss models.
    pub updates_lost: u64,
    /// Updates discarded by the replicas' seqno gates (overtaken in
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
/// Panics if the scenario is malformed, with the message
/// [`Scenario::from_json`] would return for it: zero replicas, a
/// workload for a variable outside the condition's variable set, two
/// workloads for one variable, a spec out of its bounds, a bad outage
/// or overlapping AD outages. An empty spec list that a link needs
/// panics too (`from_json` fills in the defaults instead).
pub fn run(scenario: Scenario) -> RunResult {
    if let Err(why) = scenario.check() {
        panic!("{why}");
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

    // Front links: one live loss model per (variable, replica) link;
    // each send draws its loss first and then, if kept, its delay.
    let mut front_loss: Vec<Box<dyn LossModel>> =
        (0..n_var * n_ce).map(|i| scenario.front_loss_for(i / n_ce, i % n_ce).build()).collect();
    // One seqno gate per replica, as a deployed CE has: the k-th send
    // on a front link carries its variable's k-th update (each emit
    // sends once per replica), so admitting only seqnos that advance
    // turns overtaking in flight into loss.
    let mut gates: Vec<SeqGate> = vec![SeqGate::new(); n_ce];
    // Back links are reliable and FIFO: each replica's alert arrives at
    // `max(up(now + delay), previous arrival)`, where `up` moves a time
    // inside an AD outage to the outage's end (the link buffers while
    // the AD is off), so no alert overtakes an earlier one.
    let mut horizons: Vec<SimTime> = vec![0; n_ce];
    let ad_windows = scenario.ad_windows();
    let up = |mut t: SimTime| {
        // Sorted and disjoint: a window ending at `t` is followed by
        // any window starting at `t`.
        for &(from, to) in &ad_windows {
            if from <= t && t < to {
                t = to;
            }
        }
        t
    };
    let mut down = vec![false; n_ce];

    // Each replica is the deployed Condition Evaluator: a registry
    // hosting the scenario's one condition, hosted once and copied.
    let mut hosted = ConditionRegistry::new(CeId::new(0));
    hosted.insert(CondId::SINGLE, scenario.condition.clone());
    let mut replicas: Vec<ConditionRegistry> =
        (0..n_ce).map(|ce| hosted.for_replica(CeId::new(ce as u32))).collect();

    // Workload state.
    let mut values: Vec<ValueState> =
        scenario.workloads.iter().map(|w| ValueState::new(&w.values)).collect();
    let mut next_seqno: Vec<u64> = vec![0; n_var];

    // Outputs. Arrivals are logged as `(ce, idx)` references into
    // `ce_outputs` and materialized once after the event loop.
    let mut emitted: Vec<Update> = Vec::new();
    let mut inputs: Vec<Vec<Update>> = vec![Vec::new(); n_ce];
    let mut ce_outputs: Vec<Vec<Alert>> = vec![Vec::new(); n_ce];
    let mut arrival_log: Vec<(usize, usize)> = Vec::new();
    let mut arrival_times: Vec<(u64, u64)> = Vec::new();
    let mut stats = RunStats::default();

    // Schedule emissions and outages.
    for (vi, w) in scenario.workloads.iter().enumerate() {
        for i in 0..w.updates {
            let at = w.emission(i).expect("`Scenario::check` bounds every emission");
            queue.schedule(at, Ev::Emit { var_index: vi });
        }
    }
    for o in &scenario.outages {
        queue.schedule(o.from, Ev::CrashStart { ce: o.ce });
        queue.schedule(o.to, Ev::CrashEnd { ce: o.ce });
    }

    while let Some((now, ev)) = queue.pop() {
        match ev {
            Ev::Emit { var_index } => {
                let w = &scenario.workloads[var_index];
                next_seqno[var_index] += 1;
                let value = values[var_index].next(&w.values, &mut values_rng);
                let update = Update::new(w.var, next_seqno[var_index], value);
                emitted.push(update);
                stats.updates_emitted += 1;
                for ce in 0..n_ce {
                    if front_loss[var_index * n_ce + ce].drops(&mut rng) {
                        stats.updates_lost += 1;
                        continue;
                    }
                    let delay = scenario.front_delay_for(var_index, ce).sample(&mut rng);
                    let at = now.checked_add(delay).expect("`Scenario::check` bounds every tick");
                    queue.schedule(at, Ev::DeliverUpdate { ce, update });
                }
            }
            Ev::DeliverUpdate { ce, update } => {
                if down[ce] {
                    stats.updates_missed_down += 1;
                    continue;
                }
                if !gates[ce].admit(&update) {
                    stats.updates_reordered += 1;
                    continue;
                }
                let raised = ce_outputs[ce].len();
                replicas[ce].ingest(update, &mut ce_outputs[ce]);
                inputs[ce].push(update);
                stats.updates_ingested += 1;
                for idx in raised..ce_outputs[ce].len() {
                    stats.alerts_emitted += 1;
                    let delay = scenario.back_delay_for(ce).sample(&mut rng);
                    let sent = now.checked_add(delay).expect("`Scenario::check` bounds every tick");
                    let at = up(sent).max(horizons[ce]);
                    horizons[ce] = at;
                    queue.schedule(at, Ev::DeliverAlert { ce, idx, sent_at: now });
                }
            }
            Ev::DeliverAlert { ce, idx, sent_at } => {
                arrival_times.push((sent_at, now));
                arrival_log.push((ce, idx));
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
    use crate::delay::DelaySpec;
    use crate::scenario::{LossSpec, Outage, VarWorkload};
    use crate::workload::ValueSpec;
    use rcm_core::condition::{cond, Cmp};
    use rcm_core::VarId;
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
                values: ValueSpec::Scripted(vec![2900.0, 3100.0, 3200.0]),
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
        // Every send is ingested or discarded, never both.
        let s = &r.stats;
        assert_eq!(s.updates_ingested + s.updates_reordered, 2 * 40);
    }

    #[test]
    #[should_panic(expected = "two workloads")]
    fn two_workloads_for_one_variable_rejected() {
        let mut sc = base_scenario(4);
        let twin =
            VarWorkload { values: ValueSpec::Scripted(vec![1.0]), ..sc.workloads[0].clone() };
        sc.workloads.push(twin);
        run(sc);
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
    fn the_back_link_stays_fifo_across_an_ad_outage() {
        // Alert 1 is sent at 1 and would arrive at 2, inside the
        // outage; alert 2 is sent at 2 and arrives at 3, the outage's
        // end. Both arrive at 3, in the order they were sent.
        let mut sc = base_scenario(15);
        sc.condition = Arc::new(cond::threshold(x(), Cmp::Gt, -1.0));
        sc.replicas = 1;
        sc.workloads[0].updates = 2;
        sc.workloads[0].period = 1;
        sc.ad_outages = vec![(0, 3)];
        let r = run(sc);
        let seqs = |alerts: &[Alert]| -> Vec<u64> {
            alerts.iter().map(|a| a.seqno(x()).unwrap().get()).collect()
        };
        assert_eq!(seqs(&r.ce_outputs[0]), [1, 2]);
        assert_eq!(seqs(&r.arrivals), [1, 2]);
        assert_eq!(r.arrival_times, [(1, 3), (2, 3)]);
    }

    #[test]
    fn an_alert_landing_where_one_outage_ends_and_the_next_begins_waits_for_both() {
        let mut sc = base_scenario(16);
        sc.replicas = 1;
        sc.ad_outages = vec![(15, 30), (5, 15)];
        let r = run(sc);
        // Alerts sent at 11 and 21 would arrive at 12 and 22.
        assert_eq!(r.arrival_times, [(11, 30), (21, 30)]);
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
