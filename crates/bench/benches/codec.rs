//! Criterion benches for the wire codec: encode∘decode throughput of
//! update traffic as one frame per update and as `UpdateBatch` frames
//! (the deployment configuration the transport defaults aim at). Alert
//! frames get the same treatment at a smaller scale — alerts are rarer
//! but much wider on the wire.
//!
//! The update workload is shared verbatim with `bench_snapshot`, whose
//! `codec` cell lands in `BENCH_rcm.json`.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rcm_core::{Alert, AlertId, CeId, CondId, HistoryFingerprint, SeqNo, Update, VarId};
use rcm_transport::wire::{self, Codec, Message};

const BATCH: u64 = 64;

fn updates() -> Vec<Update> {
    (1..=BATCH).map(|s| Update::new(VarId::new((s % 4) as u32), s, s as f64 * 1.5 - 40.0)).collect()
}

fn alerts() -> Vec<Alert> {
    (2..=9u64)
        .map(|s| {
            Alert::new(
                CondId::new(0),
                HistoryFingerprint::single(VarId::new(0), vec![SeqNo::new(s), SeqNo::new(s - 1)]),
                vec![Update::new(VarId::new(0), s, 61.5)],
                AlertId { ce: CeId::new(0), index: s },
            )
        })
        .collect()
}

fn bench_update_roundtrip(c: &mut Criterion) {
    let updates = updates();
    let mut g = c.benchmark_group("codec/updates");
    g.throughput(Throughput::Elements(BATCH));
    let mut frame = Vec::with_capacity(4096);
    g.bench_function("binary_per_frame", |b| {
        b.iter(|| {
            let mut delivered = 0u64;
            for u in &updates {
                frame.clear();
                wire::encode_into(Codec::Binary, &Message::Update(*u), &mut frame).expect("encode");
                match wire::decode_datagram(black_box(&frame)).expect("decode") {
                    Message::Update(got) => delivered += u64::from(got.seqno == u.seqno),
                    _ => unreachable!("update frame"),
                }
            }
            delivered
        })
    });
    g.bench_function("binary_batched", |b| {
        b.iter(|| {
            frame.clear();
            wire::encode_updates_into(Codec::Binary, &updates, &mut frame).expect("encode");
            match wire::decode_datagram(black_box(&frame)).expect("decode") {
                Message::UpdateBatch(got) => got.len(),
                _ => unreachable!("batch frame"),
            }
        })
    });
    g.finish();
}

fn bench_alert_roundtrip(c: &mut Criterion) {
    let alerts = alerts();
    let mut g = c.benchmark_group("codec/alerts");
    g.throughput(Throughput::Elements(alerts.len() as u64));
    let mut frame = Vec::with_capacity(8192);
    g.bench_function("binary_per_frame", |b| {
        b.iter(|| {
            let mut delivered = 0usize;
            for a in &alerts {
                frame.clear();
                wire::encode_into(Codec::Binary, &Message::Alert(a.clone()), &mut frame)
                    .expect("encode");
                match wire::decode_datagram(black_box(&frame)).expect("decode") {
                    Message::Alert(got) => delivered += usize::from(got == *a),
                    _ => unreachable!("alert frame"),
                }
            }
            delivered
        })
    });
    g.bench_function("binary_batched", |b| {
        b.iter(|| {
            frame.clear();
            wire::encode_alerts_into(Codec::Binary, &alerts, &mut frame).expect("encode");
            match wire::decode_datagram(black_box(&frame)).expect("decode") {
                Message::AlertBatch(got) => got.len(),
                _ => unreachable!("batch frame"),
            }
        })
    });
    g.finish();
}

criterion_group!(benches, bench_update_roundtrip, bench_alert_roundtrip);
criterion_main!(benches);
