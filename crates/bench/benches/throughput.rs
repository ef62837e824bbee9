//! Criterion benches for the multi-condition engine's ingest
//! throughput: a [`ConditionRegistry`] hosting 1 / 100 / 10 000
//! compiled conditions over one shared update stream vs a loop of
//! independent `Evaluator`s over the same conditions — plus the
//! sharded registry at several shard counts to show the merge overhead
//! is paid back.
//!
//! The workload is `rcm_bench::throughput`, shared verbatim with
//! `bench_snapshot` (which feeds `BENCH_rcm.json`) and the
//! `throughput_smoke` CI check.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rcm_bench::throughput::{conditions, stream, EvaluatorLoop};
use rcm_core::{Alert, CeId, ConditionRegistry};
use rcm_sim::shard::ShardedRegistry;

fn bench_registry(c: &mut Criterion) {
    for (label, n_conds, n_updates) in
        [("conds_1", 1, 4096), ("conds_100", 100, 2048), ("conds_10k", 10_000, 256)]
    {
        let (conds, ids) = conditions(n_conds);
        let updates = stream(&ids, n_updates);

        let mut registry = ConditionRegistry::new(CeId::new(0));
        for cond in &conds {
            registry.add_compiled(cond.clone());
        }
        let mut evaluators = EvaluatorLoop::new(CeId::new(0), &conds);

        let mut g = c.benchmark_group(format!("throughput/{label}"));
        g.throughput(Throughput::Elements(n_updates as u64));
        if n_conds >= 10_000 {
            g.sample_size(10);
        }
        let mut out: Vec<Alert> = Vec::new();
        g.bench_function("registry", |b| {
            b.iter(|| {
                registry.restart();
                out.clear();
                registry.ingest_batch(black_box(&updates), &mut out);
                out.len()
            })
        });
        g.bench_function("evaluators", |b| {
            b.iter(|| {
                evaluators.restart();
                out.clear();
                evaluators.ingest_batch(black_box(&updates), &mut out);
                out.len()
            })
        });
        g.finish();
    }
}

fn bench_sharded(c: &mut Criterion) {
    let (conds, ids) = conditions(10_000);
    let updates = stream(&ids, 256);
    let mut g = c.benchmark_group("throughput/sharded_10k");
    g.throughput(Throughput::Elements(updates.len() as u64));
    g.sample_size(10);
    for shards in [1usize, 2, 4, 8] {
        let mut reg = ShardedRegistry::from_compiled(CeId::new(0), conds.iter().cloned(), shards);
        let mut out: Vec<Alert> = Vec::new();
        g.bench_function(format!("shards_{shards}"), |b| {
            b.iter(|| {
                reg.restart();
                out.clear();
                reg.ingest_batch(black_box(&updates), &mut out);
                out.len()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_registry, bench_sharded);
criterion_main!(benches);
