//! `chaos` — randomized fault-injection gauntlet for the threaded runtime.
//!
//! ```text
//! cargo run --release -p rcm-sim --bin chaos -- [--plans N] [--seed S] [--json]
//! ```
//!
//! Unlike the discrete-event simulator (which *enumerates* adversarial
//! schedules), this harness runs the real `rcm-runtime` pipeline — OS
//! threads, channels, the wire codec — under randomized [`FaultPlan`]s:
//! CE replicas are killed and restarted with history replay, back links
//! are severed and must reconnect losslessly, front links stall and
//! (in the lossy classes) drop. After every run the displayed sequence
//! is checked against the exact property deciders in `rcm-props`.
//!
//! Each plan draws one of five classes, asserting only the properties
//! that provably hold for its configuration:
//!
//! | class | condition | front links | AD   | asserted                      |
//! |-------|-----------|-------------|------|-------------------------------|
//! | 0     | Threshold | lossless    | AD-1 | ordered, complete, consistent |
//! | 1     | DeltaRise | lossless    | AD-1 | consistent                    |
//! | 2     | Threshold | 20% loss    | AD-2 | ordered                       |
//! | 3     | DeltaRise | 20% loss    | AD-3 | consistent                    |
//! | 4     | Threshold | 20% loss    | AD-4 | ordered, consistent           |
//!
//! Class 0 is the strong case: a degree-1 condition over lossless links
//! with a full retained window means crash-recovery replay loses
//! nothing, so every property of the fault-free run must survive
//! arbitrary kills and severs. Class 1 drops completeness/orderedness
//! because a degree-2 condition loses the alert straddling a crash
//! (history is wiped; the first post-replay update has no predecessor
//! in the replica's rebuilt window when the crash lands between the
//! pair), and the AD-1 merge of gap-streams need not be ordered. The
//! lossy classes assert exactly the per-algorithm guarantees of AD-2/3/4,
//! which hold under any interleaving.
//!
//! Before the randomized sweep, one scripted availability plan kills
//! replica 0 permanently (restart budget zero) and requires every alert
//! the surviving replica emitted to be displayed. After it, one
//! loopback **socket** run on the evented engine rides along, so the
//! gauntlet's JSON carries real event-loop counters (wakeups, timer
//! fires, spurious readiness) for `cargo xtask assert-chaos` to gate
//! on.
//!
//! After the flat sweep, a **tree gauntlet** (`--tree-plans`, default
//! 10) drives `rcm_tree::TreeEval` under its own fault classes, each
//! fault a method call at a scripted update index, and checks the
//! root-displayed stream against a flat CE fed the identical survivor
//! stream. `TreeEval` is single-threaded, so a seed replays exactly.
//! The classes:
//!
//! | class | topology faults            | asserted                                  |
//! |-------|----------------------------|-------------------------------------------|
//! | 0     | none (lossless)            | per-condition byte-identical, exactly-once |
//! | 1     | subtree kill + re-parent   | same, plus ≥ 1 re-parent with replay       |
//! | 2     | tier-link sever + restore  | same, plus window replay on restore        |
//! | 3     | 20% front-link loss        | per-condition byte-identical, exactly-once |
//! | 4     | leaf-replica kill          | same: survivors mask the crash             |
//!
//! Every class also asserts per-variable orderedness of the root
//! display with the exact `rcm-props` decider. Sender replay windows
//! are sized past the workload, so recovery must be *complete* — any
//! lost or duplicated alert is a violation.
//!
//! Exit status is nonzero if any property check fails or any alert is
//! lost to resend-queue overflow, so CI can gate on this binary.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use rcm_core::ad::{Ad1, Ad2, Ad3, Ad4, AlertFilter};
use rcm_core::condition::expr::CompiledCondition;
use rcm_core::condition::{cond, Cmp, Condition};
use rcm_core::{Alert, CeId, CondId, ConditionRegistry, Update, VarId};
use rcm_json::obj;
use rcm_net::{Bernoulli, LossModel, Lossless};
use rcm_props::{check_complete_multi, check_consistent_multi, check_ordered};
use rcm_runtime::{FaultPlan, MonitorSystem, RunReport, Topology, TransportReport, VarFeed};
use rcm_transport::SeqGate;
use rcm_tree::{TreeEval, TreeOptions, TreePlan, TreeStats};

/// SplitMix64: the harness's only randomness source, so a `(seed,
/// plans)` pair names one exact gauntlet.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Everything one gauntlet run produced, for reporting.
struct PlanOutcome {
    index: usize,
    class: usize,
    updates: usize,
    replicas: usize,
    kills: u32,
    restarts: u32,
    replayed: u64,
    recovery: Vec<Duration>,
    transport: TransportReport,
    workers: usize,
    latency: rcm_core::LatencySnapshot,
    violations: Vec<String>,
}

/// Per-class configuration: what to build and what must hold.
struct ClassSpec {
    name: &'static str,
    lossy: bool,
    assert_ordered: bool,
    assert_complete: bool,
    assert_consistent: bool,
}

const CLASSES: [ClassSpec; 5] = [
    ClassSpec {
        name: "threshold/lossless/ad1",
        lossy: false,
        assert_ordered: true,
        assert_complete: true,
        assert_consistent: true,
    },
    ClassSpec {
        name: "delta-rise/lossless/ad1",
        lossy: false,
        assert_ordered: false,
        assert_complete: false,
        assert_consistent: true,
    },
    ClassSpec {
        name: "threshold/lossy/ad2",
        lossy: true,
        assert_ordered: true,
        assert_complete: false,
        assert_consistent: false,
    },
    ClassSpec {
        name: "delta-rise/lossy/ad3",
        lossy: true,
        assert_ordered: false,
        assert_complete: false,
        assert_consistent: true,
    },
    ClassSpec {
        name: "threshold/lossy/ad4",
        lossy: true,
        assert_ordered: true,
        assert_complete: false,
        assert_consistent: true,
    },
];

/// Per-tree-class configuration: which faults to script.
struct TreeClassSpec {
    name: &'static str,
    front_loss: bool,
    kill_relay: bool,
    sever: bool,
    kill_replica: bool,
}

const TREE_CLASSES: [TreeClassSpec; 5] = [
    TreeClassSpec {
        name: "tree/lossless/no-faults",
        front_loss: false,
        kill_relay: false,
        sever: false,
        kill_replica: false,
    },
    TreeClassSpec {
        name: "tree/subtree-kill+reparent",
        front_loss: false,
        kill_relay: true,
        sever: false,
        kill_replica: false,
    },
    TreeClassSpec {
        name: "tree/tier-link-sever",
        front_loss: false,
        kill_relay: false,
        sever: true,
        kill_replica: false,
    },
    TreeClassSpec {
        name: "tree/20pct-front-loss",
        front_loss: true,
        kill_relay: false,
        sever: false,
        kill_replica: false,
    },
    TreeClassSpec {
        name: "tree/leaf-replica-kill",
        front_loss: false,
        kill_relay: false,
        sever: false,
        kill_replica: true,
    },
];

/// Everything one tree gauntlet run produced, for reporting.
struct TreeOutcome {
    index: usize,
    class: usize,
    updates: usize,
    leaves: usize,
    relay_tiers: usize,
    fanout: usize,
    replicas: usize,
    stats: TreeStats,
    violations: Vec<String>,
}

fn usage() -> ExitCode {
    eprintln!("usage: chaos [--plans N] [--tree-plans N] [--seed S] [--json]");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut plans = 25usize;
    let mut tree_plans = 10usize;
    let mut seed = 7u64;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--plans" => {
                let Some(n) = args.next().and_then(|s| s.parse().ok()) else { return usage() };
                plans = n;
            }
            "--tree-plans" => {
                let Some(n) = args.next().and_then(|s| s.parse().ok()) else { return usage() };
                tree_plans = n;
            }
            "--seed" => {
                let Some(s) = args.next().and_then(|s| s.parse().ok()) else { return usage() };
                seed = s;
            }
            "--json" => json = true,
            _ => return usage(),
        }
    }

    let availability_violations = availability_check();
    if !json {
        if availability_violations.is_empty() {
            println!("availability: kill-one-replica plan displayed every surviving alert");
        } else {
            for v in &availability_violations {
                println!("availability VIOLATION: {v}");
            }
        }
    }

    let (socket_transport, socket_violations) = socket_smoke();
    if !json {
        if socket_violations.is_empty() {
            println!(
                "socket smoke: evented loopback run matched in-process output \
                 ({} wakeups, {} timer fires)",
                socket_transport.engine.wakeups, socket_transport.engine.timer_fires
            );
        } else {
            for v in &socket_violations {
                println!("socket smoke VIOLATION: {v}");
            }
        }
    }

    let mut outcomes = Vec::with_capacity(plans);
    for index in 0..plans {
        let outcome = run_plan(index, mix(seed ^ (index as u64).wrapping_mul(0x9e37_79b9)));
        if !json {
            print_outcome(&outcome);
        }
        outcomes.push(outcome);
    }

    let mut tree_outcomes = Vec::with_capacity(tree_plans);
    for index in 0..tree_plans {
        let outcome = run_tree_plan(index, tree_plan_seed(seed, index));
        if !json {
            print_tree_outcome(&outcome);
        }
        tree_outcomes.push(outcome);
    }
    let tree_violation_count: usize = tree_outcomes.iter().map(|o| o.violations.len()).sum();

    let violation_count = availability_violations.len()
        + socket_violations.len()
        + tree_violation_count
        + outcomes.iter().map(|o| o.violations.len()).sum::<usize>();
    let mut recovery: Vec<Duration> = outcomes.iter().flat_map(|o| o.recovery.clone()).collect();
    recovery.sort_unstable();
    let recovery_max = recovery.last().copied().unwrap_or(Duration::ZERO);
    let recovery_mean = if recovery.is_empty() {
        Duration::ZERO
    } else {
        recovery.iter().sum::<Duration>() / recovery.len() as u32
    };
    let kills: u32 = outcomes.iter().map(|o| o.kills).sum();
    let restarts: u32 = outcomes.iter().map(|o| o.restarts).sum();
    let severs: u64 = outcomes.iter().map(|o| o.transport.severs()).sum();
    let duplicates: u64 = outcomes.iter().map(|o| o.transport.resent_duplicates()).sum();
    let replayed: u64 = outcomes.iter().map(|o| o.replayed).sum();
    let frames_dropped: u64 = outcomes.iter().map(|o| o.transport.front_frames_dropped()).sum();
    let reconnects: u64 = outcomes.iter().map(|o| o.transport.reconnects()).sum();
    let frames_sent: u64 = outcomes.iter().map(|o| o.transport.front_frames_sent()).sum();
    let updates_sent: u64 = outcomes.iter().map(|o| o.transport.front_updates_sent()).sum();
    let bytes_sent: u64 = outcomes.iter().map(|o| o.transport.front_bytes_sent()).sum();
    // In-process plans report zero engine counters; the socket smoke
    // run is what makes these totals nonzero.
    let engine_wakeups: u64 = socket_transport.engine.wakeups
        + outcomes.iter().map(|o| o.transport.engine.wakeups).sum::<u64>();
    let engine_timer_fires: u64 = socket_transport.engine.timer_fires
        + outcomes.iter().map(|o| o.transport.engine.timer_fires).sum::<u64>();
    let engine_spurious: u64 = socket_transport.engine.spurious_readiness
        + outcomes.iter().map(|o| o.transport.engine.spurious_readiness).sum::<u64>();
    // Pipeline rollup: latency percentiles report the worst (max) over
    // the plans that actually recorded samples. A plan with helper
    // threads is one with at least two shards.
    let pipelined_plans = outcomes.iter().filter(|o| o.workers > 1).count();
    let latency_count: u64 = outcomes.iter().map(|o| o.latency.count).sum();
    let latency_p50: u64 = outcomes.iter().map(|o| o.latency.p50_ns).max().unwrap_or(0);
    let latency_p99: u64 = outcomes.iter().map(|o| o.latency.p99_ns).max().unwrap_or(0);
    let latency_p999: u64 = outcomes.iter().map(|o| o.latency.p999_ns).max().unwrap_or(0);

    // Tree gauntlet rollup: the counters `xtask assert-chaos` gates on.
    let tree_totals = tree_outcomes.iter().fold(TreeStats::default(), |mut acc, o| {
        acc.updates_routed += o.stats.updates_routed;
        acc.gate_dropped_raw += o.stats.gate_dropped_raw;
        acc.leaf_alerts += o.stats.leaf_alerts;
        acc.derived_emitted += o.stats.derived_emitted;
        acc.derived_forwarded += o.stats.derived_forwarded;
        acc.derived_duplicates += o.stats.derived_duplicates;
        acc.reparent_events += o.stats.reparent_events;
        acc.replayed_frames += o.stats.replayed_frames;
        acc.frames_to_dead += o.stats.frames_to_dead;
        acc.root_alerts += o.stats.root_alerts;
        acc.wire_frames += o.stats.wire_frames;
        acc.wire_bytes += o.stats.wire_bytes;
        acc
    });

    if json {
        let updates_per_datagram =
            if frames_sent == 0 { 0.0 } else { updates_sent as f64 / frames_sent as f64 };
        let totals = obj([
            ("kills", kills.into()),
            ("restarts", restarts.into()),
            ("backlink_severs", severs.into()),
            ("backlink_duplicates", duplicates.into()),
            ("updates_replayed", replayed.into()),
            ("front_frames_dropped", frames_dropped.into()),
            ("backlink_reconnects", reconnects.into()),
            ("front_frames_sent", frames_sent.into()),
            ("front_updates_sent", updates_sent.into()),
            ("front_bytes_sent", bytes_sent.into()),
            ("updates_per_datagram", updates_per_datagram.into()),
            ("recovery_mean_us", (recovery_mean.as_micros() as u64).into()),
            ("recovery_max_us", (recovery_max.as_micros() as u64).into()),
            ("engine_wakeups", engine_wakeups.into()),
            ("engine_timer_fires", engine_timer_fires.into()),
            ("engine_spurious_readiness", engine_spurious.into()),
            ("pipelined_plans", pipelined_plans.into()),
            ("latency_count", latency_count.into()),
            ("latency_p50_ns", latency_p50.into()),
            ("latency_p99_ns", latency_p99.into()),
            ("latency_p999_ns", latency_p999.into()),
        ]);
        let tree_runs = tree_outcomes.iter().map(|o| {
            obj([
                ("plan", o.index.into()),
                ("class", TREE_CLASSES[o.class].name.into()),
                ("updates", o.updates.into()),
                ("leaves", o.leaves.into()),
                ("relay_tiers", o.relay_tiers.into()),
                ("fanout", o.fanout.into()),
                ("replicas", o.replicas.into()),
                ("derived_emitted", o.stats.derived_emitted.into()),
                ("derived_forwarded", o.stats.derived_forwarded.into()),
                ("derived_duplicates", o.stats.derived_duplicates.into()),
                ("reparent_events", o.stats.reparent_events.into()),
                ("replayed_frames", o.stats.replayed_frames.into()),
                ("frames_to_dead", o.stats.frames_to_dead.into()),
                ("root_alerts", o.stats.root_alerts.into()),
                ("wire_frames", o.stats.wire_frames.into()),
                ("violations", o.violations.clone().into()),
            ])
        });
        let tree = obj([
            ("plans", tree_plans.into()),
            ("violations", tree_violation_count.into()),
            (
                "totals",
                obj([
                    ("updates_routed", tree_totals.updates_routed.into()),
                    ("derived_emitted", tree_totals.derived_emitted.into()),
                    ("derived_forwarded", tree_totals.derived_forwarded.into()),
                    ("derived_duplicates", tree_totals.derived_duplicates.into()),
                    ("reparent_events", tree_totals.reparent_events.into()),
                    ("replayed_frames", tree_totals.replayed_frames.into()),
                    ("frames_to_dead", tree_totals.frames_to_dead.into()),
                    ("root_alerts", tree_totals.root_alerts.into()),
                    ("wire_frames", tree_totals.wire_frames.into()),
                    ("wire_bytes", tree_totals.wire_bytes.into()),
                ]),
            ),
            ("runs", tree_runs.collect()),
        ]);
        let runs = outcomes.iter().map(|o| {
            let recovery_us = o.recovery.iter().map(|d| d.as_micros() as u64);
            obj([
                ("plan", o.index.into()),
                ("class", CLASSES[o.class].name.into()),
                ("updates", o.updates.into()),
                ("replicas", o.replicas.into()),
                ("kills", o.kills.into()),
                ("restarts", o.restarts.into()),
                ("backlink_severs", o.transport.severs().into()),
                ("backlink_duplicates", o.transport.resent_duplicates().into()),
                ("updates_replayed", o.replayed.into()),
                ("workers", o.workers.into()),
                ("latency_p50_ns", o.latency.p50_ns.into()),
                ("latency_p99_ns", o.latency.p99_ns.into()),
                ("latency_p999_ns", o.latency.p999_ns.into()),
                ("recovery_us", recovery_us.collect()),
                ("transport", o.transport.to_json()),
                ("violations", o.violations.clone().into()),
            ])
        });
        let doc = obj([
            ("seed", seed.into()),
            ("plans", plans.into()),
            ("violations", violation_count.into()),
            ("availability_violations", availability_violations.clone().into()),
            (
                "socket_smoke",
                obj([
                    ("violations", socket_violations.clone().into()),
                    ("transport", socket_transport.to_json()),
                ]),
            ),
            ("totals", totals),
            ("tree", tree),
            ("runs", runs.collect()),
        ]);
        println!("{doc:#}");
    } else {
        println!(
            "\nchaos: {plans} plans, {kills} kills, {restarts} restarts, \
             {severs} severs, {duplicates} duplicate offers, {replayed} updates replayed"
        );
        println!(
            "recovery latency: mean {recovery_mean:?}, max {recovery_max:?} \
             over {} recoveries",
            recovery.len()
        );
        println!(
            "pipeline: {pipelined_plans} of {plans} plans ran sharded; \
             worst ingest→emit latency p50 {latency_p50} ns / p99 {latency_p99} ns / \
             p999 {latency_p999} ns over {latency_count} update(s)"
        );
        println!(
            "tree: {tree_plans} plans, {} derived forwarded, {} duplicates gated, \
             {} re-parent events, {} frames replayed, {} lost to dead relays",
            tree_totals.derived_forwarded,
            tree_totals.derived_duplicates,
            tree_totals.reparent_events,
            tree_totals.replayed_frames,
            tree_totals.frames_to_dead,
        );
        println!("violations: {violation_count}");
    }

    if violation_count == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Scripted plan: replica 0 is killed on its first arrival with a zero
/// restart budget, so it stays dead. Availability demands the surviving
/// replica carry the run: every alert it emitted must be displayed.
fn availability_check() -> Vec<String> {
    let x = VarId::new(0);
    let cond: Arc<dyn Condition> = Arc::new(cond::threshold(x, Cmp::Gt, 50.0));
    let system = MonitorSystem::builder(cond)
        .replicas(2)
        .feed(VarFeed::new(x, vec![60.0, 40.0, 70.0, 55.0, 30.0, 80.0]))
        .faults(FaultPlan::scripted().kill_ce(0, 1).max_restarts(0))
        .start()
        .expect("availability plan config is valid");
    let report = system.wait();

    let mut violations = Vec::new();
    if report.faults.replicas_abandoned != 1 {
        violations.push(format!(
            "expected exactly one abandoned replica, saw {}",
            report.faults.replicas_abandoned
        ));
    }
    for alert in &report.emitted[1] {
        if !report.displayed.contains(alert) {
            violations.push(format!("surviving replica's alert {alert:?} was not displayed"));
        }
    }
    if report.displayed.len() != 4 {
        violations.push(format!(
            "expected the 4 surviving-replica alerts displayed, saw {}",
            report.displayed.len()
        ));
    }
    violations
}

/// One loopback socket run on the evented engine: output must match
/// the in-process model, and the readiness loop must actually have
/// carried it (nonzero wakeups).
fn socket_smoke() -> (TransportReport, Vec<String>) {
    let x = VarId::new(0);
    let cond: Arc<dyn Condition> = Arc::new(cond::threshold(x, Cmp::Gt, 50.0));
    let values: Vec<f64> =
        (0..40).map(|i| if i % 2 == 1 { 60.0 + f64::from(i) } else { 40.0 }).collect();
    let in_process = MonitorSystem::builder(cond.clone())
        .replicas(2)
        .feed(VarFeed::new(x, values.clone()))
        .start()
        .expect("in-process smoke config is valid")
        .wait();
    let bound = Topology::loopback(2).bind().expect("loopback topology binds");
    let sockets = MonitorSystem::builder(cond)
        .replicas(2)
        .feed(VarFeed::new(x, values).period(Duration::from_millis(1)))
        .transport(bound)
        .start()
        .expect("socket smoke config is valid")
        .wait();

    let mut violations = Vec::new();
    if sockets.displayed != in_process.displayed {
        violations.push(format!(
            "evented socket run displayed {} alert(s), in-process displayed {}",
            sockets.displayed.len(),
            in_process.displayed.len()
        ));
    }
    if sockets.transport.engine.wakeups == 0 {
        violations.push("evented engine recorded no wakeups".into());
    }
    if sockets.transport.decode_errors() != 0 {
        violations.push(format!("{} decode errors on loopback", sockets.transport.decode_errors()));
    }
    (sockets.transport, violations)
}

/// Runs one randomized plan and checks its class's properties.
fn run_plan(index: usize, plan_seed: u64) -> PlanOutcome {
    let class = index % CLASSES.len();
    let spec = &CLASSES[class];
    let x = VarId::new(0);
    let replicas = 2 + (mix(plan_seed ^ 1) % 2) as usize;
    let updates = 60 + (mix(plan_seed ^ 2) % 81) as usize;

    // A jittery random walk: enough threshold crossings and steep rises
    // that every class produces a meaningful alert stream.
    let mut state = mix(plan_seed ^ 3);
    let values: Vec<f64> = (0..updates)
        .map(|_| {
            state = mix(state);
            (state % 1000) as f64 / 10.0
        })
        .collect();

    let condition = Arc::new(if spec.name.starts_with("threshold") {
        cond::threshold(x, Cmp::Gt, 50.0)
    } else {
        cond::delta_rise(x, 5.0)
    });

    // A retained window larger than the workload plus a generous
    // restart budget: recovery replays the full history, which is what
    // makes the class-0 completeness assertion sound.
    let plan = FaultPlan::random(plan_seed, replicas, 1, updates as u64)
        .retain_window(4096)
        .max_restarts(8);
    let lossy = spec.lossy;
    // Alternate the CE evaluation strategy across plans: one shard
    // (workers 0 and 1) and two or three shards with helper threads, so
    // every fault class also runs sharded.
    let workers = (mix(plan_seed ^ 4) % 4) as usize;
    let mut builder = MonitorSystem::builder(condition.clone())
        .replicas(replicas)
        .workers(workers)
        .feed(VarFeed::new(x, values))
        .seed(plan_seed)
        .faults(plan)
        .loss(move |_, _| {
            if lossy {
                Box::new(Bernoulli::new(0.2)) as Box<dyn LossModel>
            } else {
                Box::new(Lossless)
            }
        });
    builder = match class {
        0 | 1 => builder.filter(|_| Box::new(Ad1::new()) as Box<dyn AlertFilter>),
        2 => builder.filter(|vars| Box::new(Ad2::new(vars[0])) as Box<dyn AlertFilter>),
        3 => builder.filter(|vars| Box::new(Ad3::new([vars[0]])) as Box<dyn AlertFilter>),
        _ => builder.filter(|vars| Box::new(Ad4::new(vars[0])) as Box<dyn AlertFilter>),
    };
    let report = builder.start().expect("chaos plan config is valid").wait();

    let violations = check(spec, &condition, &report, x);
    PlanOutcome {
        index,
        class,
        updates,
        replicas,
        kills: report.faults.kills_injected,
        restarts: report.faults.total_restarts(),
        replayed: report.faults.updates_replayed,
        recovery: report.faults.recovery_latency.clone(),
        transport: report.transport.clone(),
        workers: report.pipeline.workers,
        latency: report.pipeline.latency,
        violations,
    }
}

/// Applies the class's property assertions plus the invariants every
/// class must uphold.
fn check(
    spec: &ClassSpec,
    condition: &CompiledCondition,
    report: &RunReport,
    x: VarId,
) -> Vec<String> {
    let mut violations = Vec::new();
    // The lossless back-link contract: severance may queue and
    // duplicate, never drop. This holds in every class.
    let lost = report.transport.lost_overflow();
    if lost != 0 {
        violations.push(format!("{lost} alerts lost to resend-queue overflow"));
    }
    if report.faults.replicas_abandoned != 0 {
        violations.push(format!(
            "{} replicas exhausted a restart budget sized to be inexhaustible",
            report.faults.replicas_abandoned
        ));
    }
    if spec.assert_ordered {
        let ordered = check_ordered(&report.displayed, &[x]);
        if !ordered.ok {
            violations.push(format!("orderedness violated: {:?}", ordered.violation));
        }
    }
    if spec.assert_complete {
        let complete = check_complete_multi(condition, &report.ingested, &report.displayed);
        if !complete.ok {
            violations.push(format!(
                "completeness violated: missing {:?}, extraneous {:?}",
                complete.missing, complete.extraneous
            ));
        }
    }
    if spec.assert_consistent {
        let consistent = check_consistent_multi(condition, &report.ingested, &report.displayed);
        if !consistent.ok {
            violations.push(format!("consistency violated: {:?}", consistent.conflict));
        }
    }
    violations
}

/// The seed of tree plan `index` in the gauntlet seeded `seed`.
fn tree_plan_seed(seed: u64, index: usize) -> u64 {
    mix(seed ^ (index as u64).wrapping_mul(0x517c_c1b7_2722_0a95))
}

/// Runs one randomized aggregation-tree plan through [`TreeEval`] and
/// checks the root display against a flat CE fed the identical
/// survivor stream.
fn run_tree_plan(index: usize, plan_seed: u64) -> TreeOutcome {
    let class = index % TREE_CLASSES.len();
    let spec = &TREE_CLASSES[class];
    const ROOT_CE: CeId = CeId::new(99);

    let leaves = 2 + (mix(plan_seed ^ 1) % 3) as usize;
    // Subtree-kill needs an interior tier with a live sibling to adopt
    // orphans; fanout 1 keeps one relay per leaf so killing relay 0
    // orphans exactly leaf 0's subtree.
    let (relay_tiers, fanout) = if spec.kill_relay {
        (1, 1)
    } else {
        ((mix(plan_seed ^ 2) % 3) as usize, 1 + (mix(plan_seed ^ 3) % 3) as usize)
    };
    let replicas = if spec.kill_replica { 2 } else { 1 + (mix(plan_seed ^ 4) % 2) as usize };

    // One single-variable threshold condition per variable; ownership
    // round-robins variables over leaves, so global condition ids
    // interleave across leaves exactly as `tree_equivalence` does.
    let vars = leaves * (1 + (mix(plan_seed ^ 6) % 2) as usize);
    let mut plan = TreePlan::new(leaves).with_relay_tiers(relay_tiers).with_fanout(fanout);
    let mut conds: Vec<(CondId, VarId, f64)> = Vec::new();
    for v in 0..vars {
        let var = VarId::new(v as u32);
        plan.own(var, v % leaves);
        let threshold = (mix(plan_seed ^ (0x100 + v as u64)) % 100) as f64 - 50.0;
        conds.push((CondId::new(v as u32), var, threshold));
    }
    for &(id, var, threshold) in &conds {
        plan.add_condition(id, Arc::new(cond::threshold(var, Cmp::Gt, threshold)))
            .expect("single-variable condition lands on its owning leaf");
    }

    // The survivor stream both systems see: per-variable seqno gaps,
    // scripted front loss applied once, before the fan-out.
    let steps = 150 + (mix(plan_seed ^ 7) % 101) as usize;
    let mut state = mix(plan_seed ^ 8);
    let mut next_seq = vec![1u64; vars];
    let mut stream = Vec::new();
    for _ in 0..steps {
        state = mix(state);
        let v = (state % vars as u64) as usize;
        state = mix(state);
        let seqno = next_seq[v] + state % 2;
        next_seq[v] = seqno + 1;
        state = mix(state);
        let value = (state % 120) as f64 - 60.0;
        state = mix(state);
        if spec.front_loss && state % 100 < 20 {
            continue;
        }
        stream.push(Update::new(VarId::new(v as u32), seqno, value));
    }

    // Replay windows sized past the workload: recovery must be
    // complete, so exactly-once at the root is an invariant, not a
    // best effort. Every tier hop crosses the codec, checked.
    let opts = TreeOptions {
        root_ce: ROOT_CE,
        leaf_replicas: replicas,
        replay_window: 4096,
        wire_check: true,
    };
    let mut tree = TreeEval::build(plan, opts);
    // Faults fire before the update at their index: a relay dies at a
    // third and its orphans are adopted at two thirds; leaf 0's replica
    // 0 is cut off for the second quarter; replica 1 dies at a half.
    let mut displayed = Vec::new();
    let n = stream.len();
    for (i, &u) in stream.iter().enumerate() {
        if spec.kill_relay && i == n / 3 {
            tree.kill_relay(1, 0);
        }
        if spec.kill_relay && i == 2 * n / 3 {
            tree.reparent_orphans(&mut displayed);
        }
        if spec.sever && i == n / 4 {
            tree.sever_leaf(0, 0);
        }
        if spec.sever && i == 2 * (n / 4) {
            tree.restore_leaf(0, 0, &mut displayed);
        }
        if spec.kill_replica && i == n / 2 {
            tree.kill_leaf_replica(0, 1);
        }
        tree.ingest(u, &mut displayed);
    }
    // A run never ends with an orphaned subtree holding undelivered
    // verdicts.
    tree.reparent_orphans(&mut displayed);
    let stats = tree.stats();

    // Flat reference: one gate, one registry, ascending condition ids.
    let mut gate = SeqGate::new();
    let mut reg = ConditionRegistry::new(ROOT_CE);
    for &(id, var, threshold) in &conds {
        reg.insert(id, Arc::new(cond::threshold(var, Cmp::Gt, threshold)));
    }
    let mut want: Vec<Alert> = Vec::new();
    for &u in &stream {
        if gate.admit(&u) {
            reg.ingest(u, &mut want);
        }
    }

    let mut violations = Vec::new();
    // Exactly-once: the root displays the flat count, nothing lost to
    // the outage (windows cover it) and nothing duplicated by replay.
    if displayed.len() != want.len() {
        violations.push(format!(
            "exactly-once violated: root displayed {} alert(s), flat CE displayed {}",
            displayed.len(),
            want.len()
        ));
    }
    // Per-condition sequences byte-identical to the flat CE — payload,
    // snapshot and provenance numbering (global interleaving may shift
    // while a subtree is orphaned; per-stream order may not).
    for &(id, ..) in &conds {
        let got: Vec<&Alert> = displayed.iter().filter(|a| a.cond == id).collect();
        let flat: Vec<&Alert> = want.iter().filter(|a| a.cond == id).collect();
        if got.len() != flat.len() {
            violations.push(format!(
                "condition {}: {} alert(s) at the root, {} at the flat CE",
                id.index(),
                got.len(),
                flat.len()
            ));
            continue;
        }
        for (g, w) in got.iter().zip(&flat) {
            if g != w || g.id != w.id {
                violations.push(format!(
                    "condition {}: alert diverges from the flat CE ({:?} vs {:?})",
                    id.index(),
                    g.id,
                    w.id
                ));
                break;
            }
        }
    }
    // Per-variable orderedness of the root display, with the exact
    // decider. Tier links are FIFO and each variable lives on one
    // leaf, so this must hold in every class, faults included.
    let var_ids: Vec<VarId> = (0..vars as u32).map(VarId::new).collect();
    let ordered = check_ordered(&displayed, &var_ids);
    if !ordered.ok {
        violations.push(format!("root display orderedness violated: {:?}", ordered.violation));
    }
    // Fault classes must actually exercise their machinery. Replay and
    // duplicate counters only move when the affected window held
    // verdicts, so those checks are conditioned on alerts existing.
    if spec.kill_relay && stats.reparent_events == 0 {
        violations.push("subtree-kill class re-parented nothing".to_string());
    }
    if (spec.kill_relay || spec.sever) && !displayed.is_empty() && stats.replayed_frames == 0 {
        violations.push("recovery class replayed no frames".to_string());
    }
    if replicas > 1 && !spec.kill_replica && !displayed.is_empty() && stats.derived_duplicates == 0
    {
        violations.push("replicated leaves produced no gated duplicates".to_string());
    }

    TreeOutcome {
        index,
        class,
        updates: stream.len(),
        leaves,
        relay_tiers,
        fanout,
        replicas,
        stats,
        violations,
    }
}

fn print_tree_outcome(o: &TreeOutcome) {
    let verdict = if o.violations.is_empty() { "ok" } else { "VIOLATION" };
    println!(
        "tree {:>3}  {:<26} updates={:<3} leaves={} tiers={} fanout={} replicas={} \
         reparents={} replayed={}  {verdict}",
        o.index,
        TREE_CLASSES[o.class].name,
        o.updates,
        o.leaves,
        o.relay_tiers,
        o.fanout,
        o.replicas,
        o.stats.reparent_events,
        o.stats.replayed_frames,
    );
    for v in &o.violations {
        println!("          {v}");
    }
}

fn print_outcome(o: &PlanOutcome) {
    let verdict = if o.violations.is_empty() { "ok" } else { "VIOLATION" };
    println!(
        "plan {:>3}  {:<24} updates={:<3} replicas={} kills={} restarts={} \
         severs={} dups={}  {verdict}",
        o.index,
        CLASSES[o.class].name,
        o.updates,
        o.replicas,
        o.kills,
        o.restarts,
        o.transport.severs(),
        o.transport.resent_duplicates(),
    );
    for v in &o.violations {
        println!("          {v}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tree seed replays exactly: two runs of each of the first ten
    /// plans at seed 7 (two per class) report the same counters, and
    /// none reports a violation.
    #[test]
    fn tree_plans_replay_exactly() {
        for index in 0..10 {
            let first = run_tree_plan(index, tree_plan_seed(7, index));
            let second = run_tree_plan(index, tree_plan_seed(7, index));
            assert_eq!(first.stats, second.stats, "plan {index}");
            assert!(first.violations.is_empty(), "plan {index}: {:?}", first.violations);
            assert!(second.violations.is_empty(), "plan {index}: {:?}", second.violations);
        }
    }
}
