//! Differential testing between the two execution substrates: the
//! discrete-event simulator and the threaded runtime, given identical
//! scripted inputs (same readings, same per-link loss script), must
//! produce identical per-replica behaviour — received updates and
//! emitted alerts. Timing-dependent parts (arrival interleavings at
//! the AD) are legitimately different and excluded.

use std::collections::BTreeMap;
use std::sync::Arc;

use rcm::core::condition::expr::CompiledCondition;
use rcm::core::condition::{cond, Cmp, Condition};
use rcm::core::{Alert, CeId, SeqNo, VarId};
use rcm::net::Scripted as ScriptedLoss;
use rcm::runtime::{MonitorSystem, VarFeed};
use rcm::sim::{run, DelaySpec, LossSpec, Scenario, Scripted, VarWorkload};

fn x() -> VarId {
    VarId::new(0)
}

/// Scripted drop positions per replica (0-based update indices).
const DROPS: [&[u64]; 2] = [&[2, 3], &[0, 5, 6]];

fn values() -> Vec<f64> {
    vec![400.0, 700.0, 720.0, 1000.0, 980.0, 1300.0, 1290.0, 1600.0, 1580.0, 1900.0]
}

fn run_sim(cond: Arc<CompiledCondition>) -> (Vec<Vec<u64>>, Vec<Vec<Alert>>) {
    let scenario = Scenario {
        condition: cond,
        replicas: 2,
        workloads: vec![VarWorkload {
            var: x(),
            updates: values().len() as u64,
            period: 10,
            offset: 0,
            model: Box::new(Scripted::new(values())),
        }],
        front_loss: vec![
            LossSpec::Scripted(DROPS[0].to_vec()),
            LossSpec::Scripted(DROPS[1].to_vec()),
        ],
        front_delay: vec![DelaySpec::Constant(1)],
        back_delay: vec![DelaySpec::Constant(1)],
        outages: vec![],
        ad_outages: vec![],
        seed: 0,
        link_salt: 0,
    };
    let result = run(scenario);
    let inputs =
        result.inputs.iter().map(|us| us.iter().map(|u| u.seqno.get()).collect()).collect();
    (inputs, result.ce_outputs)
}

fn run_runtime(cond: Arc<dyn Condition>) -> (Vec<Vec<u64>>, Vec<Vec<Alert>>) {
    let system = MonitorSystem::builder(cond)
        .replicas(2)
        .feed(VarFeed::new(x(), values()))
        .loss(|_, ce| Box::new(ScriptedLoss::new(DROPS[ce.index() as usize].iter().copied())))
        .start()
        .expect("valid configuration");
    let report = system.wait();
    let inputs =
        report.ingested.iter().map(|us| us.iter().map(|u| u.seqno.get()).collect()).collect();
    // Recover per-replica alert streams from the merged arrivals: the
    // shared channel preserves each sender's order.
    let mut per_ce: BTreeMap<CeId, Vec<Alert>> = BTreeMap::new();
    per_ce.insert(CeId::new(0), vec![]);
    per_ce.insert(CeId::new(1), vec![]);
    for a in report.arrivals {
        per_ce.entry(a.id.ce).or_default().push(a);
    }
    (inputs, per_ce.into_values().collect())
}

fn compare(cond: CompiledCondition) {
    let cond = Arc::new(cond);
    let (sim_inputs, sim_alerts) = run_sim(Arc::clone(&cond));
    let (rt_inputs, rt_alerts) = run_runtime(cond);
    assert_eq!(sim_inputs, rt_inputs, "replicas received different updates");
    assert_eq!(sim_alerts.len(), rt_alerts.len());
    for (ce, (s, r)) in sim_alerts.iter().zip(&rt_alerts).enumerate() {
        let s_fp: Vec<Vec<SeqNo>> =
            s.iter().map(|a| a.fingerprint.seqnos(x()).unwrap().to_vec()).collect();
        let r_fp: Vec<Vec<SeqNo>> =
            r.iter().map(|a| a.fingerprint.seqnos(x()).unwrap().to_vec()).collect();
        assert_eq!(s_fp, r_fp, "replica {ce} emitted different alerts");
    }
}

#[test]
fn threshold_condition_agrees_across_substrates() {
    compare(cond::threshold(x(), Cmp::Gt, 900.0));
}

#[test]
fn aggressive_delta_agrees_across_substrates() {
    compare(cond::delta_rise(x(), 200.0));
}

#[test]
fn conservative_delta_agrees_across_substrates() {
    compare(cond::conservative(cond::delta_rise(x(), 200.0)));
}

#[test]
fn the_scripts_actually_drop_something() {
    let (inputs, _) = run_sim(Arc::new(cond::threshold(x(), Cmp::Gt, 900.0)));
    assert_eq!(inputs[0].len(), values().len() - DROPS[0].len());
    assert_eq!(inputs[1].len(), values().len() - DROPS[1].len());
    assert!(!inputs[0].contains(&3)); // 0-based position 2 = seqno 3
    assert!(!inputs[1].contains(&1)); // position 0 = seqno 1
}
