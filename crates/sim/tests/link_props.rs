//! Seeded properties of the simulator's links, checked on whole runs:
//! jittery lossy front links behind one `SeqGate` per replica, and
//! reliable FIFO back links into an Alert Displayer that goes down now
//! and then.

use std::sync::Arc;

use rcm_core::condition::{cond, Cmp};
use rcm_core::{AlertId, CeId, Update, VarId};
use rcm_net::{cases, Rng};
use rcm_sim::{run, DelaySpec, LossSpec, Outage, RunResult, Scenario, ValueSpec, VarWorkload};
use rcm_transport::SeqGate;

fn update(seqno: u64) -> Update {
    Update::new(VarId::new(0), seqno, 0.0)
}

#[test]
fn gate_output_tags_are_strictly_increasing() {
    cases("gate_output_tags_are_strictly_increasing", 128, 99, |rng, size| {
        let tags: Vec<u64> = (0..rng.below(size + 1)).map(|_| 1 + rng.below(50) as u64).collect();
        let mut gate = SeqGate::new();
        let mut accepted = Vec::new();
        let mut discarded = 0u64;
        for t in &tags {
            if gate.admit(&update(*t)) {
                accepted.push(*t);
            } else {
                discarded += 1;
            }
        }
        assert!(accepted.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(accepted.len() as u64 + discarded, tags.len() as u64);
        assert_eq!(gate.cursor(VarId::new(0)), accepted.last().copied());
    });
}

/// How a drawn scenario treats its links.
#[derive(Clone, Copy, PartialEq)]
enum Faults {
    /// Lossless front links, no outages of replicas or of the AD.
    None,
    /// Random loss, replica outages and AD outages.
    All,
}

/// A jittery delay: uniform or exponential, from 0 up to ~40 ticks.
fn delay(rng: &mut Rng) -> DelaySpec {
    let base = rng.below(10) as u64;
    match rng.below(3) {
        0 => DelaySpec::Constant(base),
        1 => DelaySpec::Uniform(base, base + rng.below(30) as u64),
        _ => DelaySpec::Exponential { base, mean: 1.0 + rng.below(20) as f64 },
    }
}

/// One to three replicas watching one or two random walks over jittery
/// links, with `faults`.
fn scenario(rng: &mut Rng, size: usize, faults: Faults) -> Scenario {
    let (x, y) = (VarId::new(0), VarId::new(1));
    let two = rng.below(2) == 1;
    let condition = if two {
        cond::delta_rise(x, 10.0) | cond::threshold(y, Cmp::Gt, 100.0)
    } else {
        cond::delta_rise(x, 10.0)
    };
    let vars: &[VarId] = if two { &[x, y] } else { &[x] };
    let replicas = 1 + rng.below(3);
    let workloads: Vec<VarWorkload> = vars
        .iter()
        .map(|&var| VarWorkload {
            var,
            updates: 1 + rng.below(size + 1) as u64,
            period: 1 + rng.below(8) as u64,
            offset: rng.below(10) as u64,
            values: ValueSpec::RandomWalk { start: 100.0, step: 25.0, lo: 0.0, hi: 200.0 },
        })
        .collect();
    let links = vars.len() * replicas;
    let front_loss = (0..links)
        .map(|_| match (faults, rng.below(3)) {
            (Faults::None, _) | (_, 0) => LossSpec::Lossless,
            (_, 1) => LossSpec::Bernoulli(rng.next_f64() * 0.5),
            _ => LossSpec::Burst { target: rng.next_f64() * 0.5, burst_len: 3.0 },
        })
        .collect();
    let front_delay = (0..links).map(|_| delay(rng)).collect();
    let back_delay = (0..replicas).map(|_| delay(rng)).collect();
    let horizon = 10 + 8 * size as u64;
    let mut outages = Vec::new();
    let mut ad_outages = Vec::new();
    if faults == Faults::All {
        for _ in 0..rng.below(3) {
            let from = rng.below(horizon as usize) as u64;
            let ce = rng.below(replicas);
            outages.push(Outage { ce, from, to: from + rng.below(40) as u64 });
        }
        // Disjoint AD windows, some adjacent, some empty.
        let mut t = 0;
        for _ in 0..rng.below(4) {
            let from = t + rng.below(30) as u64;
            t = from + rng.below(40) as u64;
            ad_outages.push((from, t));
        }
    }
    Scenario {
        condition: Arc::new(condition),
        replicas,
        workloads,
        front_loss,
        front_delay,
        back_delay,
        outages,
        ad_outages,
        seed: rng.next_u64(),
        link_salt: 0,
    }
}

/// The seqnos of `var` in `updates`, in order.
fn seqnos(updates: &[Update], var: VarId) -> Vec<u64> {
    updates.iter().filter(|u| u.var == var).map(|u| u.seqno.get()).collect()
}

/// Each replica's alerts, as the AD received them.
fn arrivals_of(r: &RunResult, ce: usize) -> Vec<AlertId> {
    r.arrivals.iter().map(|a| a.id).filter(|id| id.ce == CeId::new(ce as u32)).collect()
}

#[test]
fn each_replicas_alerts_arrive_in_the_order_it_raised_them() {
    cases("each_replicas_alerts_arrive_in_the_order_it_raised_them", 256, 40, |rng, size| {
        let r = run(scenario(rng, size, Faults::All));
        for (ce, raised) in r.ce_outputs.iter().enumerate() {
            let raised: Vec<AlertId> = raised.iter().map(|a| a.id).collect();
            assert_eq!(arrivals_of(&r, ce), raised, "replica {ce}");
        }
        assert_eq!(r.arrival_times.len(), r.arrivals.len());
        assert_eq!(r.stats.alerts_emitted, r.arrivals.len() as u64, "the back link loses nothing");
        for &(sent, arrived) in &r.arrival_times {
            assert!(arrived >= sent, "arrived at {arrived}, sent at {sent}");
        }
    });
}

#[test]
fn each_replicas_inputs_advance_per_variable() {
    cases("each_replicas_inputs_advance_per_variable", 256, 40, |rng, size| {
        let sc = scenario(rng, size, Faults::All);
        let vars: Vec<VarId> = sc.workloads.iter().map(|w| w.var).collect();
        let r = run(sc);
        for (ce, input) in r.inputs.iter().enumerate() {
            for &var in &vars {
                let seqs = seqnos(input, var);
                assert!(seqs.windows(2).all(|w| w[0] < w[1]), "replica {ce} {var}: {seqs:?}");
            }
        }
    });
}

#[test]
fn every_send_is_ingested_lost_reordered_or_missed_once() {
    cases("every_send_is_ingested_lost_reordered_or_missed_once", 256, 40, |rng, size| {
        let sc = scenario(rng, size, Faults::All);
        let replicas = sc.replicas as u64;
        let s = run(sc).stats;
        assert_eq!(
            s.updates_emitted * replicas,
            s.updates_ingested + s.updates_lost + s.updates_reordered + s.updates_missed_down,
            "{s:?}"
        );
    });
}

#[test]
fn without_faults_every_replica_admits_each_variables_last_update() {
    cases(
        "without_faults_every_replica_admits_each_variables_last_update",
        256,
        40,
        |rng, size| {
            let sc = scenario(rng, size, Faults::None);
            let last: Vec<(VarId, u64)> = sc.workloads.iter().map(|w| (w.var, w.updates)).collect();
            let r = run(sc);
            assert_eq!(r.stats.updates_lost + r.stats.updates_missed_down, 0);
            for (ce, input) in r.inputs.iter().enumerate() {
                for &(var, updates) in &last {
                    // Nothing newer can overtake the newest update.
                    assert_eq!(seqnos(input, var).last(), Some(&updates), "replica {ce} {var}");
                }
            }
        },
    );
}
