//! Writes `BENCH_rcm.json`: a machine-readable snapshot of the hot-path
//! numbers the criterion benches measure interactively — fingerprint
//! construction, AD-3/AD-6 offer throughput (interval vs the BTreeSet
//! reference), and the Monte-Carlo matrix wall-clock serial vs
//! parallel.
//!
//! Usage: `cargo run -p rcm-bench --release --bin bench_snapshot`
//! (accepts `--runs N` for the matrix budget and `--seed N`; `--json`
//! additionally echoes the snapshot to stdout).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rcm_bench::{executions, throughput, Cli};
use rcm_core::ad::{apply_filter, Ad3, Ad6, AlertFilter, BTreeConsistency};
use rcm_core::condition::Condition;
use rcm_core::{
    Alert, AlertId, CeId, CondId, ConditionRegistry, HistoryFingerprint, HistorySet, SeqNo, Update,
    VarId,
};
use rcm_sim::montecarlo::{property_matrix, FilterKind, ScenarioKind, Topology};
use rcm_sim::par::{harness_threads, with_threads};
use rcm_transport::wire::{self, Codec, Message};
use serde_json::json;

/// Mean seconds per call of `f` over `iters` timed iterations (plus
/// one warm-up call).
fn time<R>(iters: u32, mut f: impl FnMut() -> R) -> f64 {
    black_box(f());
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_secs_f64() / f64::from(iters)
}

fn arrivals(topo: Topology, seed: u64) -> Vec<Alert> {
    executions(ScenarioKind::LossyAggressive, topo, 300, seed)
        .into_iter()
        .flat_map(|e| e.arrivals)
        .collect()
}

/// Degree-2 histories marching upward with a gap every eighth step —
/// the stream shape where per-seqno bookkeeping grows without bound.
fn marching_arrivals(n: u64) -> Vec<Alert> {
    let x = VarId::new(0);
    let mut seq = 1u64;
    (0..n)
        .map(|i| {
            let prev = seq;
            seq += if i % 8 == 7 { 2 } else { 1 };
            Alert::new(
                CondId::SINGLE,
                HistoryFingerprint::single(x, vec![SeqNo::new(seq), SeqNo::new(prev)]),
                vec![],
                AlertId { ce: CeId::new(0), index: i },
            )
        })
        .collect()
}

/// Times one filter constructor over a stream; returns offers/second.
fn offers_per_sec<F: AlertFilter>(iters: u32, s: &[Alert], mk: impl Fn() -> F) -> f64 {
    let secs = time(iters, || {
        let mut f = mk();
        apply_filter(&mut f, black_box(s)).len()
    });
    s.len() as f64 / secs
}

fn filter_pair<A, B>(
    iters: u32,
    s: &[Alert],
    fast: impl Fn() -> A,
    reference: impl Fn() -> B,
) -> serde_json::Value
where
    A: AlertFilter,
    B: AlertFilter,
{
    let fast_ops = offers_per_sec(iters, s, fast);
    let ref_ops = offers_per_sec(iters, s, reference);
    json!({
        "alerts": s.len(),
        "interval_offers_per_sec": fast_ops,
        "btree_offers_per_sec": ref_ops,
        "speedup": fast_ops / ref_ops,
    })
}

/// Registry ingest throughput over the shared `rcm_bench::throughput`
/// workload at one condition-count size: updates/second through a
/// `ConditionRegistry` vs through a loop of independent `Evaluator`s.
/// Asserts the two emit identical alerts, ids included, first.
fn throughput_cell(n_conds: usize, n_updates: usize, iters: u32) -> serde_json::Value {
    let (conds, ids) = throughput::conditions(n_conds);
    let updates = throughput::stream(&ids, n_updates);
    let mut registry = ConditionRegistry::new(CeId::new(0));
    for cond in &conds {
        registry.add_compiled(cond.clone());
    }
    let mut evaluators = throughput::EvaluatorLoop::new(CeId::new(0), &conds);

    let (mut a, mut b) = (Vec::new(), Vec::new());
    registry.ingest_batch(&updates, &mut a);
    evaluators.ingest_batch(&updates, &mut b);
    assert_eq!(a, b, "the registry and the evaluator loop must emit identical alerts");
    assert!(a.iter().zip(&b).all(|(x, y)| x.id == y.id), "and number them identically");

    let mut out: Vec<Alert> = Vec::new();
    let reg_secs = time(iters, || {
        registry.restart();
        out.clear();
        registry.ingest_batch(black_box(&updates), &mut out);
        out.len()
    });
    let ev_secs = time(iters, || {
        evaluators.restart();
        out.clear();
        evaluators.ingest_batch(black_box(&updates), &mut out);
        out.len()
    });
    let reg_ups = n_updates as f64 / reg_secs;
    let ev_ups = n_updates as f64 / ev_secs;
    json!({
        "conditions": n_conds,
        "updates_per_pass": n_updates,
        "registry_ups": reg_ups,
        "evaluators_ups": ev_ups,
        "speedup": reg_ups / ev_ups,
    })
}

/// Evaluation-pipeline throughput over the shared workload: the
/// single-threaded registry (the zero-worker pipeline stage) vs
/// [`EvalPipeline`] at 1 / 4 / 8 shard workers, updates/second.
/// Asserts byte-identical output (ids included) at every worker count
/// first; `speedup_4` for the 10k-condition cell is the ratio
/// `bench_gate` floors at 2×.
fn pipeline_cell(n_conds: usize, n_updates: usize, iters: u32) -> serde_json::Value {
    use rcm_runtime::{AlertDrain, EvalPipeline, PipelineOptions};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    struct Sink {
        alerts: Arc<Mutex<Vec<Alert>>>,
        keep: bool,
        count: Arc<AtomicU64>,
    }
    impl AlertDrain for Sink {
        fn alerts(&mut self, alerts: Vec<Alert>) {
            self.count.fetch_add(alerts.len() as u64, Ordering::Relaxed);
            if self.keep {
                self.alerts.lock().expect("sink lock").extend(alerts);
            }
        }
        fn end_of_stream(&mut self) {}
    }

    let (compiled, ids) = throughput::conditions(n_conds);
    let updates = throughput::stream(&ids, n_updates);
    let conds: Vec<Arc<dyn Condition>> =
        compiled.iter().map(|c| Arc::new(c.clone()) as Arc<dyn Condition>).collect();

    let mut registry = ConditionRegistry::new(CeId::new(0));
    for cond in &conds {
        registry.add(Arc::clone(cond));
    }
    let mut want = Vec::new();
    registry.ingest_batch(&updates, &mut want);

    let pass = |workers: usize, keep: bool| -> Arc<Mutex<Vec<Alert>>> {
        let alerts = Arc::new(Mutex::new(Vec::new()));
        let sink = Sink { alerts: Arc::clone(&alerts), keep, count: Arc::new(AtomicU64::new(0)) };
        let mut pipe = EvalPipeline::start(
            CeId::new(0),
            &conds,
            &PipelineOptions::with_workers(workers),
            Box::new(sink),
            Arc::new(rcm_core::LatencyHistogram::new()),
            Arc::new(AtomicU64::new(0)),
        );
        for &u in &updates {
            pipe.dispatch_wait(u);
        }
        pipe.finish();
        alerts
    };

    let inline_secs = time(iters, || {
        registry.restart();
        let mut out = Vec::new();
        registry.ingest_batch(black_box(&updates), &mut out);
        out.len()
    });
    let inline_ups = n_updates as f64 / inline_secs;
    let timed = |workers: usize| -> f64 {
        let got = pass(workers, true);
        let got = got.lock().expect("sink lock");
        assert_eq!(*got, want, "{workers}-worker pipeline diverged from the registry");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.id, w.id, "AlertId numbering diverged at {workers} workers");
        }
        drop(got);
        let secs = time(iters, || {
            pass(workers, false);
        });
        n_updates as f64 / secs
    };
    let (ups_1, ups_4, ups_8) = (timed(1), timed(4), timed(8));
    json!({
        "conditions": n_conds,
        "updates_per_pass": n_updates,
        "inline_ups": inline_ups,
        "workers_1_ups": ups_1,
        "workers_4_ups": ups_4,
        "workers_8_ups": ups_8,
        "speedup_4": ups_4 / inline_ups,
    })
}

/// Aggregation-tree fan-in throughput over a single-variable threshold
/// workload: the flat registry every other cell measures vs a 2-tier
/// (leaves → root) and a 3-tier (leaves → relays → root) tree walked
/// deterministically by `TreeEval`, sustained updates/second — plus
/// update→root-display latency percentiles for both tree shapes, from
/// a separate instrumented pass so the throughput numbers stay clean.
/// The three configurations are asserted alert-count-identical first
/// (the keystone equivalence proptest pins the bytes; this cell only
/// measures).
fn tree_cell(n_vars: usize, n_updates: usize, iters: u32) -> serde_json::Value {
    use rcm_core::condition::{Cmp, Threshold};
    use rcm_core::LatencyHistogram;
    use rcm_tree::{TreeEval, TreeOptions, TreePlan};

    let updates: Vec<Update> = (0..n_updates)
        .map(|i| {
            let var = (i % n_vars) as u32;
            let seq = (i / n_vars + 1) as u64;
            // Alternate firing / non-firing so the root sees a real
            // alert stream without every update paying the alert path.
            Update::new(VarId::new(var), seq, if i % 2 == 0 { 1.0 } else { -1.0 })
        })
        .collect();

    let plan = |leaves: usize, relay_tiers: usize, fanout: usize| -> TreePlan {
        let mut plan = TreePlan::new(leaves).with_relay_tiers(relay_tiers).with_fanout(fanout);
        for v in 0..n_vars {
            let var = VarId::new(v as u32);
            plan.own(var, v % leaves);
            plan.add_condition(
                CondId::new(v as u32),
                Arc::new(Threshold::new(var, Cmp::Gt, 0.0)) as Arc<dyn Condition>,
            )
            .expect("single-variable condition lands on its owning leaf");
        }
        plan
    };
    let opts = TreeOptions { root_ce: CeId::new(0), ..TreeOptions::default() };

    let mut flat = ConditionRegistry::new(CeId::new(0));
    for v in 0..n_vars {
        let var = VarId::new(v as u32);
        flat.add(Arc::new(Threshold::new(var, Cmp::Gt, 0.0)) as Arc<dyn Condition>);
    }
    let mut want = Vec::new();
    flat.ingest_batch(&updates, &mut want);

    // Tree passes rebuild the tree each iteration (a `TreeEval` has no
    // restart); at thousands of updates per pass the build cost is
    // noise, and both shapes pay it identically.
    let tree_pass = |leaves: usize, relay_tiers: usize, fanout: usize| -> Vec<Alert> {
        let mut eval = TreeEval::build(plan(leaves, relay_tiers, fanout), opts.clone());
        let mut out = Vec::new();
        for &u in &updates {
            eval.ingest(u, &mut out);
        }
        out
    };
    for (leaves, tiers, fanout) in [(8, 0, 8), (16, 1, 4)] {
        let got = tree_pass(leaves, tiers, fanout);
        assert_eq!(
            got.len(),
            want.len(),
            "{leaves}-leaf tree displayed {} alerts, flat registry {}",
            got.len(),
            want.len()
        );
    }

    let flat_secs = time(iters, || {
        flat.restart();
        let mut out = Vec::new();
        flat.ingest_batch(black_box(&updates), &mut out);
        out.len()
    });
    let tier2_secs = time(iters, || tree_pass(8, 0, 8).len());
    let tier3_secs = time(iters, || tree_pass(16, 1, 4).len());
    let flat_ups = n_updates as f64 / flat_secs;
    let tier2_ups = n_updates as f64 / tier2_secs;
    let tier3_ups = n_updates as f64 / tier3_secs;

    // Instrumented pass: wall-clock from handing an update to the tree
    // to its root alerts being displayed, recorded only for updates
    // that fired.
    let latency = |leaves: usize, relay_tiers: usize, fanout: usize| -> serde_json::Value {
        let mut eval = TreeEval::build(plan(leaves, relay_tiers, fanout), opts.clone());
        let hist = LatencyHistogram::new();
        let mut out = Vec::new();
        for &u in &updates {
            let start = Instant::now();
            eval.ingest(u, &mut out);
            if !out.is_empty() {
                hist.record(start.elapsed().as_nanos() as u64);
                out.clear();
            }
        }
        let snap = hist.snapshot();
        json!({
            "alerts": snap.count,
            "p50_ns": snap.p50_ns,
            "p99_ns": snap.p99_ns,
            "p999_ns": snap.p999_ns,
        })
    };

    json!({
        "vars": n_vars,
        "updates_per_pass": n_updates,
        "flat_ups": flat_ups,
        "tier2_ups": tier2_ups,
        "tier3_ups": tier3_ups,
        "tier2_over_flat": tier2_ups / flat_ups,
        "tier3_over_flat": tier3_ups / flat_ups,
        "tier2_root_latency": latency(8, 0, 8),
        "tier3_root_latency": latency(16, 1, 4),
    })
}

/// Wire-codec roundtrip throughput over the `codec` criterion bench's
/// update workload: encode∘decode updates/second as one frame per
/// update and as one `UpdateBatch` frame — the deployment
/// configuration.
fn codec_cell(iters: u32) -> serde_json::Value {
    const BATCH: u64 = 64;
    let updates: Vec<Update> = (1..=BATCH)
        .map(|s| Update::new(VarId::new((s % 4) as u32), s, s as f64 * 1.5 - 40.0))
        .collect();

    // Both modes reuse one frame buffer, so neither pays an allocation
    // the other skips.
    let mut frame = Vec::with_capacity(4096);
    let per_frame_secs = time(iters, || {
        let mut delivered = 0u64;
        for u in &updates {
            frame.clear();
            wire::encode_into(Codec::Binary, &Message::Update(*u), &mut frame)
                .expect("update encodes");
            match wire::decode_datagram(black_box(&frame)).expect("update decodes") {
                Message::Update(got) => delivered += u64::from(got.seqno == u.seqno),
                _ => unreachable!("update frame"),
            }
        }
        delivered
    });

    let batched_secs = time(iters, || {
        frame.clear();
        wire::encode_updates_into(Codec::Binary, &updates, &mut frame).expect("batch encodes");
        match wire::decode_datagram(black_box(&frame)).expect("batch decodes") {
            Message::UpdateBatch(got) => got.len(),
            _ => unreachable!("batch frame"),
        }
    });

    json!({
        "updates_per_pass": BATCH,
        "binary_ups": BATCH as f64 / per_frame_secs,
        "binary_batched_ups": BATCH as f64 / batched_secs,
    })
}

fn main() {
    let cli = Cli::parse(60);
    let x = VarId::new(0);
    let y = VarId::new(1);

    // Fingerprint construction: inline (History::fingerprint) vs the
    // old shape that collects every seqno list into a fresh Vec.
    let mut set = HistorySet::new([(x, 3), (y, 3)]);
    for s in 1..=5u64 {
        set.push(Update::new(x, s, s as f64)).unwrap();
        set.push(Update::new(y, s, -(s as f64))).unwrap();
    }
    let inline_s = time(200_000, || set.fingerprint());
    let rebuild_s = time(200_000, || {
        let entries: Vec<(VarId, Vec<SeqNo>)> =
            set.iter().map(|h| (h.var(), h.seqnos().to_vec())).collect();
        HistoryFingerprint::new(entries)
    });

    let single = arrivals(Topology::SingleVar, 7);
    let multi = arrivals(Topology::MultiVar, 7);
    let marching = marching_arrivals(4_000);

    let ad3 = filter_pair(20, &single, || Ad3::new(x), || Ad3::<BTreeConsistency>::with_state(x));
    let ad3_marching =
        filter_pair(20, &marching, || Ad3::new(x), || Ad3::<BTreeConsistency>::with_state(x));
    let ad6 = filter_pair(
        20,
        &multi,
        || Ad6::new([x, y]),
        || Ad6::<BTreeConsistency>::with_state([x, y]),
    );

    // Registry ingest throughput: 1 / 100 / 10k hosted conditions,
    // registry vs a loop of evaluators (shared workload with the
    // criterion `throughput` bench and `throughput_smoke`).
    let throughput = json!({
        "conds_1": throughput_cell(1, 4096, 40),
        "conds_100": throughput_cell(100, 2048, 20),
        "conds_10k": throughput_cell(10_000, 256, 5),
    });

    // Evaluation-pipeline throughput: inline registry vs shard workers
    // (shared workload with the `pipeline` criterion bench;
    // `bench_gate` floors the 10k-condition 4-worker speedup at 2×).
    let pipeline = json!({
        "conds_100": pipeline_cell(100, 2048, 10),
        "conds_10k": pipeline_cell(10_000, 256, 3),
    });

    // Wire-codec roundtrip throughput (shared workload with the
    // `codec` criterion bench).
    let codec = codec_cell(2_000);

    // Aggregation-tree fan-in: flat registry vs 2-tier vs 3-tier, with
    // update→root-display latency percentiles per tree shape.
    let tree = tree_cell(64, 8_192, 10);

    // Matrix wall-clock, one thread vs the harness default.
    let threads = harness_threads();
    let table =
        || property_matrix("Table 1", Topology::SingleVar, FilterKind::Ad1, cli.runs, cli.seed);
    let serial_start = Instant::now();
    let serial = with_threads(1, table);
    let serial_secs = serial_start.elapsed().as_secs_f64();
    let par_start = Instant::now();
    let par = table();
    let par_secs = par_start.elapsed().as_secs_f64();
    assert_eq!(serial, par, "matrix must be bit-identical serial vs parallel");

    let snapshot = json!({
        "meta": {
            "generator": "cargo run -p rcm-bench --release --bin bench_snapshot",
            "placeholder": false,
            "seed": cli.seed,
            "matrix_runs_per_cell": cli.runs,
            "harness_threads": threads,
        },
        "fingerprint": {
            "inline_ns": inline_s * 1e9,
            "vec_rebuild_ns": rebuild_s * 1e9,
            "speedup": rebuild_s / inline_s,
        },
        "ad3_realistic": ad3,
        "ad3_marching": ad3_marching,
        "ad6_realistic": ad6,
        "throughput": throughput,
        "pipeline": pipeline,
        "codec": codec,
        "tree": tree,
        "matrix_table1_ad1": {
            "serial_secs": serial_secs,
            "parallel_secs": par_secs,
            "threads": threads,
            "speedup": serial_secs / par_secs,
            "bit_identical": true,
        },
    });

    let pretty = serde_json::to_string_pretty(&snapshot).expect("snapshot serializes");
    std::fs::write("BENCH_rcm.json", format!("{pretty}\n")).expect("write BENCH_rcm.json");
    if cli.json {
        println!("{pretty}");
    } else {
        println!("wrote BENCH_rcm.json ({threads} harness threads)");
    }
}
