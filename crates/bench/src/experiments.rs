//! The experiments around the theorems: Figure 1's availability
//! motivation, §4.2's delayed displaying, §1's powered-off PDA and
//! Appendix D's multi-condition system.

use std::sync::Arc;

use rcm_core::ad::{apply_filter, Ad1, Ad2, Ad4, DelayedOrdered, LatePolicy, PerCondition};
use rcm_core::condition::{cond, Cmp, Condition};
use rcm_core::seq::{inversions, project_alerts};
use rcm_core::VarId;
use rcm_json::Json;
use rcm_props::{check_complete_single, check_consistent_multi, check_ordered};
use rcm_sim::availability::{sweep, AvailabilityPoint};
use rcm_sim::montecarlo::{run_seed, ScenarioKind, Topology};
use rcm_sim::multicond::{run_multi, MultiCondResult, MultiCondScenario, SharedWorkload};
use rcm_sim::{run, DelaySpec, LossSpec, Scenario, Spikes, ValueSpec, VarWorkload};

use crate::executions;
use crate::record::{col, num, Col, Record, Table};

/// Figure 1's motivation: replication cuts the fraction of true alerts
/// a user never sees, roughly like `downtime^replicas`.
pub(crate) fn availability(runs: u64, seed: u64) -> Record {
    const DOWNTIME: &[Col] = &[
        col("replicas", "replicas"),
        num("d0.0", "d=0.0", 4),
        num("d0.1", "d=0.1", 4),
        num("d0.2", "d=0.2", 4),
        num("d0.3", "d=0.3", 4),
        num("d0.4", "d=0.4", 4),
        num("d0.5", "d=0.5", 4),
    ];
    const LOSS: &[Col] = &[
        col("replicas", "replicas"),
        num("p0.0", "p=0.0", 4),
        num("p0.1", "p=0.1", 4),
        num("p0.2", "p=0.2", 4),
        num("p0.3", "p=0.3", 4),
        num("p0.4", "p=0.4", 4),
    ];
    let replica_counts = [1usize, 2, 3, 4];
    let downtime_points = sweep(&replica_counts, &[0.0, 0.1, 0.2, 0.3, 0.4, 0.5], 0.0, runs, seed);
    let loss_points: Vec<AvailabilityPoint> = [0.0, 0.1, 0.2, 0.3, 0.4]
        .iter()
        .flat_map(|&loss| sweep(&replica_counts, &[0.0], loss, runs, seed ^ 0x10))
        .collect();
    let mut record = Record::default();
    for (key, title, cols, points) in [
        (
            "downtime",
            "Missed-alert fraction vs CE downtime d (no link loss)",
            DOWNTIME,
            downtime_points,
        ),
        (
            "link_loss",
            "Missed-alert fraction vs front-link loss p (no CE outages)",
            LOSS,
            loss_points,
        ),
    ] {
        let mut t = Table::new(key, title, cols);
        for r in replica_counts {
            let at_r = points.iter().filter(|p| p.config.replicas == r);
            t.row(r, at_r.map(AvailabilityPoint::missed_fraction));
        }
        record.tables.push(t);
    }
    record
}

/// §4.2's delayed displaying on the lossy non-historical class: a hold
/// window recovers AD-2's drops while order holds (`drop` policy);
/// showing late alerts instead (`display` policy) brings disorder back.
pub(crate) fn delayed_display(runs: u64, seed: u64) -> Record {
    const BOUNDS: &[Col] = &[col("filter", "filter"), col("shown", "shown")];
    const COLS: &[Col] = &[
        col("hold", "hold"),
        col("displayed_drop", "drop: shown"),
        col("dropped_late", "drop: late-dropped"),
        col("displayed_show", "display: shown"),
        col("unordered_runs_show", "display: unordered runs"),
        col("inversions_show", "display: inversions"),
    ];
    let x = VarId::new(0);
    let execs = executions(ScenarioKind::LossyNonHistorical, Topology::SingleVar, runs, seed);
    let ad1: usize = execs.iter().map(|e| apply_filter(&mut Ad1::new(), &e.arrivals).len()).sum();
    let ad2: usize = execs.iter().map(|e| apply_filter(&mut Ad2::new(x), &e.arrivals).len()).sum();
    let mut bounds = Table::new("bounds", "Without a hold window", BOUNDS);
    bounds.row("AD-1 (dedup bound)", [ad1]);
    bounds.row("AD-2", [ad2]);
    let mut sweep = Table::new("sweep", "Hold window sweep", COLS);
    let mut drop_ordered = true;
    for hold in [0usize, 1, 2, 4, 8, 16] {
        let mut row = [0u64; 5];
        for e in &execs {
            let mut d = DelayedOrdered::new(x, hold, LatePolicy::Drop);
            let out = d.display_all(&e.arrivals);
            drop_ordered &= check_ordered(&out, &[x]).ok;
            row[0] += out.len() as u64;
            row[1] += d.dropped_late();

            let out = DelayedOrdered::new(x, hold, LatePolicy::Display).display_all(&e.arrivals);
            row[2] += out.len() as u64;
            row[3] += u64::from(!check_ordered(&out, &[x]).ok);
            row[4] += inversions(&project_alerts(&out, x));
        }
        sweep.row(hold, row);
    }
    let mut record = Record::default();
    record.tables.push(bounds);
    record.tables.push(sweep);
    record.check("the drop policy's output is ordered at every hold", drop_ordered);
    record
}

/// §1's powered-off PDA: "the CE logs the alert, and sends it later,
/// when the AD becomes available". Sweeps the AD's downtime: no alert
/// is lost (back links are reliable and stateful); latency pays.
pub(crate) fn pda_buffering(runs: u64, seed: u64) -> Record {
    const COLS: &[Col] = &[
        num("ad_downtime", "AD downtime", 1),
        col("alerts_sent", "alerts sent"),
        col("alerts_delivered", "delivered"),
        num("mean_latency_ticks", "mean latency (ticks)", 1),
        col("max_latency_ticks", "max latency (ticks)"),
    ];
    let x = VarId::new(0);
    let updates = 100u64;
    let horizon = updates * 10;
    let mut t = Table::new("sweep", "Alert delivery vs AD downtime", COLS);
    let mut all_delivered = true;
    for downtime in [0.0, 0.2, 0.4, 0.6, 0.8] {
        let (mut sent, mut delivered) = (0u64, 0u64);
        let (mut latency_total, mut latency_count, mut latency_max) = (0u64, 0u64, 0u64);
        for i in 0..runs {
            // Alternating up/down windows with the requested duty cycle.
            let cycle = 200u64;
            let down = (cycle as f64 * downtime).round() as u64;
            let ad_outages: Vec<(u64, u64)> = (0..horizon / cycle + 1)
                .filter(|_| down > 0)
                .map(|k| (k * cycle, (k * cycle + down).min(horizon + down)))
                .collect();
            let scenario = Scenario {
                condition: Arc::new(cond::threshold(x, Cmp::Gt, 500.0)),
                replicas: 2,
                workloads: vec![VarWorkload {
                    var: x,
                    updates,
                    period: 10,
                    offset: 0,
                    model: Box::new(Spikes::new(100.0, 5.0, 1000.0, 0.2)),
                }],
                front_loss: vec![LossSpec::Bernoulli(0.1)],
                front_delay: vec![DelaySpec::Constant(1)],
                back_delay: vec![DelaySpec::Constant(1)],
                outages: vec![],
                ad_outages,
                link_salt: 0,
                seed: run_seed(seed, i),
            };
            let result = run(scenario);
            sent += result.stats.alerts_emitted;
            delivered += result.arrivals.len() as u64;
            for &(s, a) in &result.arrival_times {
                latency_total += a - s;
                latency_count += 1;
                latency_max = latency_max.max(a - s);
            }
        }
        all_delivered &= sent == delivered;
        let mean =
            if latency_count == 0 { 0.0 } else { latency_total as f64 / latency_count as f64 };
        t.row(downtime, [sent.into(), delivered.into(), mean.into(), Json::from(latency_max)]);
    }
    let mut record = Record::default();
    record.tables.push(t);
    record.check("reliable back links deliver every alert at every AD downtime", all_delivered);
    record
}

/// Appendix D's Fig. D-7(c): two replicas of three conditions over one
/// DM, demultiplexed at one AD with per-condition AD-4. Each stream
/// keeps its single-condition guarantees (ordered + consistent).
pub(crate) fn multi_condition_sim(runs: u64, seed: u64) -> Record {
    const COLS: &[Col] = &[
        col("name", "condition"),
        col("alerts_shown", "shown"),
        col("unordered", "unordered"),
        col("incomplete", "incomplete"),
        col("inconsistent", "inconsistent"),
    ];
    let x = VarId::new(0);
    let conditions = vec![
        Arc::new(cond::threshold(x, Cmp::Gt, 115.0)),
        Arc::new(cond::delta_rise(x, 15.0)),
        Arc::new(cond::conservative(cond::delta_rise(x, 12.0))),
    ];
    // Per condition: [shown, unordered, incomplete, inconsistent].
    let mut tallies = vec![[0u64; 4]; conditions.len()];
    for i in 0..runs {
        let scenario = MultiCondScenario {
            conditions: conditions.clone(),
            replicas: 2,
            workloads: vec![SharedWorkload {
                var: x,
                updates: 24,
                period: 10,
                offset: 0,
                values: ValueSpec::RandomWalk { start: 100.0, step: 25.0, lo: 0.0, hi: 200.0 },
            }],
            front_loss: LossSpec::Bernoulli(0.2),
            front_delay: DelaySpec::Uniform(0, 3),
            back_delay: DelaySpec::Uniform(0, 30),
            seed: run_seed(seed, i),
        };
        let result = run_multi(&scenario);
        let displayed = apply_filter(&mut PerCondition::new(|_c| Ad4::new(x)), &result.arrivals);
        for (ci, (cond, t)) in conditions.iter().zip(&mut tallies).enumerate() {
            let stream = MultiCondResult::stream_of(&displayed, ci as u32);
            let inputs = &result.per_condition[ci].inputs;
            t[0] += stream.len() as u64;
            t[1] += u64::from(!check_ordered(&stream, &[x]).ok);
            t[2] += u64::from(!check_complete_single(cond, inputs, &stream).ok);
            t[3] += u64::from(!check_consistent_multi(cond, inputs, &stream).ok);
        }
    }
    let mut t = Table::new("streams", "Per-condition AD-4 streams", COLS);
    for (cond, tally) in conditions.iter().zip(&tallies) {
        t.row(cond.name(), *tally);
    }
    let mut record = Record::default();
    record.tables.push(t);
    record.check(
        "Appendix D: per-condition filtering keeps every stream ordered and consistent",
        tallies.iter().all(|t| t[1] == 0 && t[3] == 0),
    );
    record
}
