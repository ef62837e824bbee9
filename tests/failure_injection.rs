//! Failure-injection integration tests: CE crashes and AD outages must
//! not break the AD algorithms' guarantees — from the paper's
//! perspective a crashed replica is just a very lossy front link, and
//! the analysis must survive it.

use rcm::core::ad::apply_filter;
use rcm::core::Condition;
use rcm::props::{check_consistent_multi, check_ordered};
use rcm::sim::montecarlo::{build_scenario, FilterKind, ScenarioKind, Topology};
use rcm::sim::{run, Outage};

#[test]
fn ce_crashes_do_not_break_ad4_guarantees() {
    for seed in 0..12u64 {
        let mut scenario = build_scenario(ScenarioKind::LossyAggressive, Topology::SingleVar, seed);
        // Both replicas suffer staggered outages (histories lost on
        // crash, updates missed while down).
        scenario.outages =
            vec![Outage { ce: 0, from: 40, to: 90 }, Outage { ce: 1, from: 120, to: 180 }];
        let condition = scenario.condition.clone();
        let vars = condition.variables();
        let result = run(scenario);
        let mut filter = FilterKind::Ad4.build(&vars);
        let displayed = apply_filter(&mut *filter, &result.arrivals);
        assert!(check_ordered(&displayed, &vars).ok, "seed {seed}: AD-4 unordered under crashes");
        let cons = check_consistent_multi(&condition, &result.inputs, &displayed);
        assert!(cons.ok, "seed {seed}: AD-4 inconsistent under crashes: {:?}", cons.conflict);
    }
}

#[test]
fn crashes_show_up_as_loss_in_the_stats() {
    let mut scenario = build_scenario(ScenarioKind::Lossless, Topology::SingleVar, 3);
    scenario.outages = vec![Outage { ce: 0, from: 0, to: 120 }];
    let result = run(scenario);
    assert!(result.stats.updates_missed_down > 0);
    // The downed replica ingested strictly less than its peer.
    assert!(result.inputs[0].len() < result.inputs[1].len());
}

#[test]
fn ad_outage_plus_ce_crashes_still_deliver_every_emitted_alert() {
    for seed in 0..6u64 {
        let mut scenario =
            build_scenario(ScenarioKind::LossyNonHistorical, Topology::SingleVar, seed);
        scenario.outages = vec![Outage { ce: 1, from: 30, to: 70 }];
        scenario.ad_outages = vec![(50, 200)];
        let result = run(scenario);
        // Back links are reliable: every alert a CE emitted arrives,
        // eventually.
        assert_eq!(result.stats.alerts_emitted as usize, result.arrivals.len(), "seed {seed}");
        // Buffered alerts arrive no earlier than the outage end.
        for &(sent, arrived) in &result.arrival_times {
            if (50..200).contains(&sent) {
                assert!(arrived >= 200, "seed {seed}: alert at {sent} arrived at {arrived}");
            }
        }
    }
}

#[test]
fn crashed_replica_histories_reset_cleanly() {
    // After an outage the replica's first fresh alerts must carry
    // post-recovery histories only (no stale pre-crash entries).
    let mut scenario = build_scenario(ScenarioKind::LossyConservative, Topology::SingleVar, 5);
    scenario.outages = vec![Outage { ce: 0, from: 50, to: 150 }];
    let condition = scenario.condition.clone();
    let result = run(scenario);
    // Conservative conditions: every alert from the recovered replica
    // still has consecutive histories.
    for alert in &result.ce_outputs[0] {
        assert!(alert.fingerprint.is_consecutive(), "{alert}");
    }
    drop(condition);
}
