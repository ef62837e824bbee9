//! The traced replay: the same seeded input pushed single-threaded
//! through a chain of public functions in actor order, one span per
//! stage per chunk, to put a per-item cost on each layer.
//!
//! Per replica the chain is
//! `wire` update encode -> decode -> `SeqGate::admit` ->
//! `IngestGate::admit` -> `ConditionRegistry::ingest_batch` ->
//! `LatencyHistogram::record` -> `wire` alert encode -> decode ->
//! `BackLink::send`; per chunk the replicas' alerts are then dealt
//! round-robin into `AlertFilter::offer`. Frames are one message each,
//! as the runtime's links send them with batching off.
//!
//! Two stages run *aside*: they are timed on the same data but are not
//! part of the chain's total. `FrontLink::send` (loss draw, its own
//! codec round trip, channel send) decides what each replica receives,
//! exactly as in an in-process run, and would double-count the codec;
//! the batch-of-8 update frames are a path no workload takes.

use std::time::{Duration, Instant};

use rcm_core::ad::AlertFilter;
use rcm_core::{Alert, CeId, CondId, ConditionRegistry, LatencyHistogram, Update};
use rcm_net::Backoff;
use rcm_runtime::wire::{self, Codec, Message};
use rcm_runtime::{BackLink, FrontLink, IngestGate};
use rcm_sync::chan::{unbounded, Receiver};
use rcm_transport::SeqGate;
use rcm_tree::{TreeEval, TreeOptions, TreePlan};

use crate::trace::Sink;
use crate::workloads::{self, ConditionSet, Layout, Workload, CHUNK};

/// Span names: each is the stem of a per-layer metric.
pub mod stage {
    pub const CHUNK: &str = "replay.chunk";
    pub const FRONT_LINK: &str = "runtime.front_link.send";
    pub const UPDATE_ENCODE: &str = "transport.wire.update_encode";
    pub const UPDATE_DECODE: &str = "transport.wire.update_decode";
    pub const BATCH8_ENCODE: &str = "transport.wire.update_batch8_encode";
    pub const BATCH8_DECODE: &str = "transport.wire.update_batch8_decode";
    pub const SEQ_GATE: &str = "transport.gate.admit";
    pub const INGEST_GATE: &str = "runtime.ingest_gate.admit";
    pub const REGISTRY: &str = "core.registry.ingest";
    pub const LATENCY: &str = "core.latency.record";
    pub const ALERT_ENCODE: &str = "transport.wire.alert_encode";
    pub const ALERT_DECODE: &str = "transport.wire.alert_decode";
    pub const BACKLINK: &str = "runtime.backlink.send";
    pub const AD_OFFER: &str = "core.ad.offer";
    pub const INCREMENTAL: &str = "core.registry.ingest_incremental";
    pub const TREE: &str = "tree.eval.ingest";

    /// Stages timed beside the chain, not as part of it.
    pub const ASIDE: [&str; 3] = [FRONT_LINK, BATCH8_ENCODE, BATCH8_DECODE];
}

/// Counts the replay makes where the work happens.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counters {
    /// Updates delivered to replicas, summed over replicas.
    pub delivered: u64,
    /// Conditions offered an update, summed (one update reaching `k`
    /// conditions counts `k`).
    pub offers: u64,
    pub alerts: u64,
    /// Alerts replica 0 raised.
    pub alerts0: u64,
    pub displayed: u64,
    pub update_frame_bytes: u64,
    pub alert_frame_bytes: u64,
    /// Wall time of the whole chain, for the tracing-overhead ratio.
    pub wall: Duration,
}

/// Frames laid end to end in one buffer, as a link's reused buffer would
/// hold them one at a time.
#[derive(Default)]
struct Frames {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Frames {
    fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    fn push(&mut self, encode: impl FnOnce(&mut Vec<u8>) -> Result<(), wire::WireError>) {
        encode(&mut self.bytes).expect("well-formed message encodes");
        self.ends.push(self.bytes.len());
    }

    fn iter(&self) -> impl Iterator<Item = &[u8]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(start, &end)| &self.bytes[start..end])
    }
}

/// One replica's side of the chain.
struct Replica {
    /// One front link per feed, seeded as `SystemBuilder::start` seeds them.
    front: Vec<FrontLink>,
    front_rx: Receiver<Update>,
    seq_gate: SeqGate,
    ingest_gate: IngestGate,
    registry: ConditionRegistry,
    back: BackLink<Alert>,
    back_rx: Receiver<Alert>,
}

impl Replica {
    fn new(workload: &Workload, set: &ConditionSet, seed: u64, r: usize) -> Self {
        let (front_tx, front_rx) = unbounded();
        let front = set
            .vars()
            .into_iter()
            .enumerate()
            .map(|(feed, var)| {
                let loss = workload.loss_on(var, set);
                let link_seed = seed.wrapping_add((feed as u64) << 32).wrapping_add(r as u64);
                FrontLink::new(front_tx.clone(), loss, link_seed)
            })
            .collect();
        let mut registry = ConditionRegistry::new(CeId::new(r as u32));
        for (i, cond) in set.dynamic().into_iter().enumerate() {
            registry.insert(CondId::new(i as u32), cond);
        }
        let (back_tx, back_rx) = unbounded();
        let backoff = Backoff::new(Duration::from_micros(200), Duration::from_millis(20), seed);
        Replica {
            front,
            front_rx,
            seq_gate: SeqGate::new(),
            ingest_gate: IngestGate::new(),
            registry,
            back: BackLink::new(back_tx, backoff),
            back_rx,
        }
    }
}

/// The replay's input: the first `n` readings of the seeded stream as
/// the DMs would number them.
pub fn input(workload: &Workload, set: &ConditionSet, seed: u64, n: usize) -> Vec<Update> {
    let layout = Layout::new(workload.data_vars);
    let vars = set.vars();
    let mut next_seqno = vec![1u64; vars.len()];
    workloads::values(seed, layout, n as u64)
        .into_iter()
        .enumerate()
        .map(|(g, value)| {
            let feed = layout.feed_of(g as u64);
            let seqno = next_seqno[feed];
            next_seqno[feed] += 1;
            Update::new(vars[feed], seqno, value)
        })
        .collect()
}

/// Runs the chain over `updates`. Returns the counters and the stream
/// replica 0 admitted.
pub fn chain<S: Sink>(
    workload: &Workload,
    set: &ConditionSet,
    seed: u64,
    updates: &[Update],
    sink: &mut S,
) -> (Counters, Vec<Update>) {
    let layout = Layout::new(workload.data_vars);
    let mut replicas: Vec<Replica> =
        (0..workload.replicas).map(|r| Replica::new(workload, set, seed, r)).collect();
    let mut filter = workload.filter(set);
    let histogram = LatencyHistogram::new();
    let mut counters = Counters::default();
    let mut admitted0 = Vec::with_capacity(updates.len());

    // Buffers reused across chunks, as the actors reuse theirs.
    let mut delivered: Vec<Update> = Vec::with_capacity(CHUNK);
    let mut frames = Frames::default();
    let mut decoded: Vec<Update> = Vec::with_capacity(CHUNK);
    let mut alerts: Vec<Alert> = Vec::new();
    let mut decoded_alerts: Vec<Alert> = Vec::new();
    let mut arrived: Vec<Vec<Alert>> = vec![Vec::new(); workload.replicas];

    let begun = Instant::now();
    for (c, chunk) in updates.chunks(CHUNK).enumerate() {
        let c = c as u32;
        let first = c as u64 * CHUNK as u64;
        let root = sink.open(stage::CHUNK, None, c);
        for (r, replica) in replicas.iter_mut().enumerate() {
            let span = sink.open(stage::FRONT_LINK, Some(root), c);
            for (i, &u) in chunk.iter().enumerate() {
                replica.front[layout.feed_of(first + i as u64)].send(u);
            }
            delivered.clear();
            delivered.extend(replica.front_rx.try_iter());
            sink.close(span, chunk.len() as u64);
            let n = delivered.len() as u64;
            counters.delivered += n;

            let span = sink.open(stage::UPDATE_ENCODE, Some(root), c);
            frames.clear();
            for &u in &delivered {
                frames.push(|out| wire::encode_into(Codec::Binary, &Message::Update(u), out));
            }
            sink.close(span, n);
            counters.update_frame_bytes += frames.bytes.len() as u64;

            let span = sink.open(stage::UPDATE_DECODE, Some(root), c);
            decoded.clear();
            for frame in frames.iter() {
                match wire::decode_datagram(frame) {
                    Ok(Message::Update(u)) => decoded.push(u),
                    other => panic!("update frame decoded as {other:?}"),
                }
            }
            sink.close(span, n);

            let span = sink.open(stage::BATCH8_ENCODE, Some(root), c);
            frames.clear();
            for group in delivered.chunks(8) {
                frames.push(|out| wire::encode_updates_into(Codec::Binary, group, out));
            }
            sink.close(span, n);
            let span = sink.open(stage::BATCH8_DECODE, Some(root), c);
            let mut batched = 0;
            for frame in frames.iter() {
                match wire::decode_datagram(frame) {
                    Ok(Message::UpdateBatch(group)) => batched += std::hint::black_box(group).len(),
                    other => panic!("batch frame decoded as {other:?}"),
                }
            }
            assert_eq!(batched as u64, n, "batch frames carry every update");
            sink.close(span, n);

            let span = sink.open(stage::SEQ_GATE, Some(root), c);
            decoded.retain(|u| replica.seq_gate.admit(u));
            sink.close(span, n);

            let span = sink.open(stage::INGEST_GATE, Some(root), c);
            decoded.retain(|u| replica.ingest_gate.admit(u));
            sink.close(span, n);
            assert_eq!(decoded.len() as u64, n, "an in-order stream passes both gates whole");

            let span = sink.open(stage::REGISTRY, Some(root), c);
            alerts.clear();
            replica.registry.ingest_batch(&decoded, &mut alerts);
            sink.close(span, n);
            if r == 0 {
                admitted0.extend_from_slice(&decoded);
            }

            let span = sink.open(stage::LATENCY, Some(root), c);
            for u in &decoded {
                histogram.record(u.seqno.get());
            }
            sink.close(span, n);

            let a = alerts.len() as u64;
            counters.alerts += a;
            if r == 0 {
                counters.alerts0 += a;
            }
            let span = sink.open(stage::ALERT_ENCODE, Some(root), c);
            frames.clear();
            for alert in alerts.drain(..) {
                let msg = Message::Alert(alert);
                frames.push(|out| wire::encode_into(Codec::Binary, &msg, out));
            }
            sink.close(span, a);
            counters.alert_frame_bytes += frames.bytes.len() as u64;

            let span = sink.open(stage::ALERT_DECODE, Some(root), c);
            decoded_alerts.clear();
            for frame in frames.iter() {
                match wire::decode_datagram(frame) {
                    Ok(Message::Alert(alert)) => decoded_alerts.push(alert),
                    other => panic!("alert frame decoded as {other:?}"),
                }
            }
            sink.close(span, a);

            let span = sink.open(stage::BACKLINK, Some(root), c);
            for alert in decoded_alerts.drain(..) {
                replica.back.send(alert);
            }
            arrived[r].clear();
            arrived[r].extend(replica.back_rx.try_iter());
            sink.close(span, a);
        }

        // The AD: one alert from each replica in turn, as a fair merge
        // of the back links would deliver them.
        let offers: u64 = arrived.iter().map(|a| a.len() as u64).sum();
        let span = sink.open(stage::AD_OFFER, Some(root), c);
        let longest = arrived.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..longest {
            for from in &arrived {
                if let Some(alert) = from.get(i) {
                    counters.displayed += u64::from(filter.offer(alert).is_deliver());
                }
            }
        }
        sink.close(span, offers);
        sink.close(root, chunk.len() as u64);
    }
    counters.wall = begun.elapsed();
    counters.offers = replicas.iter().map(|r| r.registry.stats().ingested).sum();
    (counters, admitted0)
}

/// The same stream through a registry built with `add_compiled`:
/// incremental evaluation, the path the runtime does not take. Returns
/// the alerts raised, which must match the full-evaluation count.
pub fn incremental<S: Sink>(set: &ConditionSet, admitted: &[Update], sink: &mut S) -> u64 {
    let mut registry = ConditionRegistry::new(CeId::new(0));
    for cond in &set.compiled {
        registry.add_compiled(cond.clone());
    }
    let mut alerts = Vec::new();
    let mut raised = 0;
    for (c, chunk) in admitted.chunks(CHUNK).enumerate() {
        let span = sink.open(stage::INCREMENTAL, None, c as u32);
        alerts.clear();
        registry.ingest_batch(chunk, &mut alerts);
        sink.close(span, chunk.len() as u64);
        raised += alerts.len() as u64;
    }
    raised
}

/// Updates the tree replay pushes: enough for a stable per-update cost
/// at about 30 us each.
pub const TREE_UPDATES: usize = 16 * CHUNK;

/// The `eval_fanout` conditions split over a two-leaf plan and fed
/// through `TreeEval::ingest`. Returns derived updates per raw update.
pub fn tree<S: Sink>(seed: u64, sink: &mut S) -> f64 {
    let workload = workloads::find("eval_fanout").expect("eval_fanout is a workload");
    let set = workload.condition_set();
    let mut plan = TreePlan::new(2);
    for (i, &var) in set.vars().iter().enumerate() {
        // v0, v1 and the heartbeat on leaf 0; v2, v3 on leaf 1.
        plan.own(var, usize::from(i == 2 || i == 3));
    }
    for (i, cond) in set.compiled.iter().enumerate() {
        plan.add_compiled(CondId::new(i as u32), cond.clone()).expect("condition fits one leaf");
    }
    let mut tree = TreeEval::build(plan, TreeOptions::default());
    let updates = input(workload, &set, seed, TREE_UPDATES);
    let mut alerts = Vec::new();
    for (c, chunk) in updates.chunks(CHUNK).enumerate() {
        let span = sink.open(stage::TREE, None, c as u32);
        for &u in chunk {
            tree.ingest(u, &mut alerts);
        }
        sink.close(span, chunk.len() as u64);
        alerts.clear();
    }
    let stats = tree.stats();
    stats.derived_emitted as f64 / stats.updates_routed as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{layer_totals, NoTrace, Tracer};

    #[test]
    fn traced_and_untraced_replays_agree_and_spans_cover_every_stage() {
        let workload = workloads::find("alert_storm").unwrap();
        let set = workload.condition_set();
        let updates = input(workload, &set, 5, 4 * CHUNK);
        let mut tracer = Tracer::new();
        let (traced, admitted) = chain(workload, &set, 5, &updates, &mut tracer);
        let (plain, _) = chain(workload, &set, 5, &updates, &mut NoTrace);
        assert_eq!(
            Counters { wall: Duration::ZERO, ..traced },
            Counters { wall: Duration::ZERO, ..plain }
        );

        // 10% loss on the data links of three replicas, none on heartbeats.
        let offered = 3 * updates.len() as u64;
        assert!(traced.delivered < offered && traced.delivered > offered * 85 / 100);
        assert!(admitted.len() < updates.len() && admitted.len() > updates.len() * 85 / 100);
        // The storm condition fires on nearly every delivered data update.
        assert!(traced.alerts > traced.delivered * 9 / 10);
        assert!(traced.displayed > 0 && traced.displayed < traced.alerts);

        let totals = layer_totals(tracer.spans());
        for name in [
            stage::CHUNK,
            stage::FRONT_LINK,
            stage::UPDATE_ENCODE,
            stage::UPDATE_DECODE,
            stage::BATCH8_DECODE,
            stage::SEQ_GATE,
            stage::INGEST_GATE,
            stage::REGISTRY,
            stage::LATENCY,
            stage::ALERT_ENCODE,
            stage::ALERT_DECODE,
            stage::BACKLINK,
            stage::AD_OFFER,
        ] {
            assert!(totals[name].items > 0, "{name} handled nothing");
        }
        assert_eq!(totals[stage::REGISTRY].items, traced.delivered);
        assert_eq!(totals[stage::AD_OFFER].items, traced.alerts);
        assert_eq!(totals[stage::CHUNK].items, updates.len() as u64);
    }

    #[test]
    fn incremental_registry_raises_the_same_alerts() {
        let workload = workloads::find("socket_ingest").unwrap();
        let set = workload.condition_set();
        let updates = input(workload, &set, 9, 8 * CHUNK);
        let (counters, admitted) = chain(workload, &set, 9, &updates, &mut NoTrace);
        // Lossless: both replicas raise what replica 0 raises.
        assert_eq!(incremental(&set, &admitted, &mut NoTrace), counters.alerts0);
        assert_eq!(counters.alerts0 * 2, counters.alerts);
    }

    #[test]
    fn tree_replay_emits_derived_updates() {
        let mut tracer = Tracer::new();
        let derived_per_update = tree(1, &mut tracer);
        assert!(derived_per_update > 0.0);
        assert_eq!(layer_totals(tracer.spans())[stage::TREE].items, TREE_UPDATES as u64);
    }
}
