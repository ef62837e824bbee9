//! Criterion benches for the CE's shard-parallel evaluation pipeline:
//! the same `rcm_bench::throughput` workload evaluated by the
//! single-threaded registry (the zero-worker pipeline stage) and by
//! [`EvalPipeline`] at 1 / 4 / 8 workers, over 100 and 10 000 hosted
//! conditions.
//!
//! Every pipelined pass first asserts byte-identical output against
//! the single-threaded reference — a slow pipeline is a bench
//! regression, a divergent one is a correctness bug and panics here.
//!
//! The workload is shared verbatim with `bench_snapshot` (which feeds
//! the `pipeline` section of `BENCH_rcm.json`; `bench_gate` floors
//! `speedup_4` at 2× for the 10k-condition cell).

use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rcm_bench::throughput::{conditions, stream};
use rcm_core::condition::Condition;
use rcm_core::{Alert, CeId, ConditionRegistry, LatencyHistogram, Update};
use rcm_runtime::{AlertDrain, EvalPipeline, PipelineOptions};

/// Drain that only counts alerts — the cheapest observable sink, so
/// the measurement stays on evaluation + merge, not on sink work.
struct CountDrain(Arc<AtomicU64>);

impl AlertDrain for CountDrain {
    fn alerts(&mut self, alerts: Vec<Alert>) {
        self.0.fetch_add(alerts.len() as u64, Ordering::Relaxed);
    }
    fn end_of_stream(&mut self) {}
}

/// Drain that keeps every alert, for the pre-timing equivalence check.
struct VecDrain(Arc<Mutex<Vec<Alert>>>);

impl AlertDrain for VecDrain {
    fn alerts(&mut self, alerts: Vec<Alert>) {
        self.0.lock().expect("bench drain lock").extend(alerts);
    }
    fn end_of_stream(&mut self) {}
}

/// One full pipelined pass: start, feed every update on the blocking
/// (never-shedding) path, drain and join.
fn pipeline_pass(
    conds: &[Arc<dyn Condition>],
    updates: &[Update],
    workers: usize,
    drain: Box<dyn AlertDrain>,
) {
    let mut pipe = EvalPipeline::start(
        CeId::new(0),
        conds,
        &PipelineOptions::with_workers(workers),
        drain,
        Arc::new(LatencyHistogram::new()),
        Arc::new(AtomicU64::new(0)),
    );
    for &u in updates {
        pipe.dispatch_wait(u);
    }
    pipe.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    for (label, n_conds, n_updates) in [("conds_100", 100, 2048), ("conds_10k", 10_000, 256)] {
        let (compiled, ids) = conditions(n_conds);
        let updates = stream(&ids, n_updates);
        let conds: Vec<Arc<dyn Condition>> =
            compiled.iter().map(|c| Arc::new(c.clone()) as Arc<dyn Condition>).collect();

        // The inline reference — and the equivalence oracle.
        let mut registry = ConditionRegistry::new(CeId::new(0));
        for c in &conds {
            registry.add(Arc::clone(c));
        }
        let mut want = Vec::new();
        registry.ingest_batch(&updates, &mut want);
        for workers in [1usize, 4, 8] {
            let got = Arc::new(Mutex::new(Vec::new()));
            pipeline_pass(&conds, &updates, workers, Box::new(VecDrain(Arc::clone(&got))));
            let got = got.lock().expect("bench drain lock");
            assert_eq!(
                *got, want,
                "{label}: {workers}-worker pipeline diverged from the single-threaded registry"
            );
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.id, w.id, "{label}: AlertId numbering diverged at {workers} workers");
            }
        }

        let mut g = c.benchmark_group(format!("pipeline/{label}"));
        g.throughput(Throughput::Elements(n_updates as u64));
        let mut out: Vec<Alert> = Vec::new();
        g.bench_function("inline", |b| {
            b.iter(|| {
                registry.restart();
                out.clear();
                registry.ingest_batch(black_box(&updates), &mut out);
                out.len()
            })
        });
        for workers in [1usize, 4, 8] {
            g.bench_function(format!("workers_{workers}"), |b| {
                b.iter(|| {
                    let count = Arc::new(AtomicU64::new(0));
                    pipeline_pass(
                        &conds,
                        black_box(&updates),
                        workers,
                        Box::new(CountDrain(Arc::clone(&count))),
                    );
                    count.load(Ordering::Relaxed)
                })
            });
        }
        g.finish();
    }
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
