//! Properties pinning the batching-equivalence contract: delivering
//! messages in coalesced frames is observably identical to delivering
//! them one frame each.
//!
//! * Front links: the receiver runs every update of an `UpdateBatch`
//!   through the seqno gate in batch order, so the admit-set — and
//!   therefore everything the CE evaluates — is bit-identical to the
//!   unbatched run, however the stream is chunked and however lossy,
//!   reordered, or duplicated it already is.
//! * Back links: a back link writes one `Alert` frame per alert, but
//!   receivers still accept an `AlertBatch`, and its alerts reach the
//!   AD in batch order, so the displayed alert sequence is
//!   bit-identical to the unbatched run.
//!
//! Both properties roundtrip the batches through the real wire codec,
//! not just through in-memory chunking.

use rcm_core::ad::{Ad1, AlertFilter};
use rcm_core::{Alert, AlertId, CeId, CondId, HistoryFingerprint, SeqNo, Update, VarId};
use rcm_net::{cases, Rng};
use rcm_transport::wire::{decode_datagram, encode, Message};
use rcm_transport::SeqGate;

/// An arbitrary stream of `0..=size` updates over few variables and a
/// small seqno range — dense enough that reorders, gaps, and duplicates
/// all occur.
fn update_stream(rng: &mut Rng, size: usize) -> Vec<Update> {
    (0..rng.below(size + 1))
        .map(|_| {
            let (v, s) = (rng.below(3) as u32, 1 + rng.below(19) as u64);
            Update::new(VarId::new(v), s, rng.next_f64() * 200.0 - 100.0)
        })
        .collect()
}

/// A stream of `0..=size` alerts over a small identity space — (cond,
/// fingerprint) collisions are common, exercising the AD's duplicate
/// suppression.
fn alert_stream(rng: &mut Rng, size: usize) -> Vec<Alert> {
    (0..rng.below(size + 1))
        .map(|_| {
            let (v, s) = (rng.below(2) as u32, 1 + rng.below(5) as u64);
            Alert::new(
                CondId::new(v),
                HistoryFingerprint::single(VarId::new(v), vec![SeqNo::new(s)]),
                vec![Update::new(VarId::new(v), s, 1.0)],
                AlertId { ce: CeId::new(rng.below(2) as u32), index: rng.below(100) as u64 },
            )
        })
        .collect()
}

/// One to four chunk sizes in `1..8`.
fn chunk_sizes(rng: &mut Rng) -> Vec<usize> {
    (0..1 + rng.below(4)).map(|_| 1 + rng.below(7)).collect()
}

/// Splits `items` into chunks whose sizes cycle through `sizes`
/// (clamped to 1..=8) — an arbitrary chunking of the same stream.
fn chunk<T: Clone>(items: &[T], sizes: &[usize]) -> Vec<Vec<T>> {
    let mut chunks = Vec::new();
    let mut rest = items;
    let mut i = 0;
    while !rest.is_empty() {
        let take = sizes.get(i % sizes.len()).copied().unwrap_or(1).clamp(1, 8).min(rest.len());
        chunks.push(rest[..take].to_vec());
        rest = &rest[take..];
        i += 1;
    }
    chunks
}

#[test]
fn batched_delivery_admits_exactly_the_unbatched_set() {
    cases("batched_delivery_admits_exactly_the_unbatched_set", 128, 39, |rng, size| {
        let (updates, sizes) = (update_stream(rng, size), chunk_sizes(rng));
        // Unbatched: one frame per update.
        let mut solo_gate = SeqGate::new();
        let solo: Vec<Update> = updates.iter().filter(|u| solo_gate.admit(u)).copied().collect();

        // Batched: the same stream chunked arbitrarily, each chunk
        // roundtripped through the wire as an UpdateBatch, the receiver
        // gating each update in batch order.
        let mut batch_gate = SeqGate::new();
        let mut batched = Vec::new();
        for chunk in chunk(&updates, &sizes) {
            let frame = encode(&Message::UpdateBatch(chunk)).expect("batch encodes");
            match decode_datagram(&frame).expect("batch decodes") {
                Message::UpdateBatch(items) => {
                    batched.extend(items.into_iter().filter(|u| batch_gate.admit(u)));
                }
                other => panic!("unexpected message {other:?}"),
            }
        }
        assert_eq!(batched, solo);
    });
}

#[test]
fn alert_batches_never_change_the_displayed_alerts() {
    cases("alert_batches_never_change_the_displayed_alerts", 128, 29, |rng, size| {
        let (alerts, sizes) = (alert_stream(rng, size), chunk_sizes(rng));
        // Unbatched: every alert offered to the filter individually.
        let mut solo_ad = Ad1::new();
        let solo: Vec<Alert> =
            alerts.iter().filter(|a| solo_ad.offer(a).is_deliver()).cloned().collect();

        // Batched: the stream chunked arbitrarily, each chunk
        // roundtripped through the wire as an AlertBatch, then offered
        // in order to an identical filter.
        let mut batch_ad = Ad1::new();
        let mut batched = Vec::new();
        for chunk in chunk(&alerts, &sizes) {
            let frame = encode(&Message::AlertBatch(chunk)).expect("batch encodes");
            match decode_datagram(&frame).expect("batch decodes") {
                Message::AlertBatch(items) => {
                    batched.extend(items.into_iter().filter(|a| batch_ad.offer(a).is_deliver()));
                }
                other => panic!("unexpected message {other:?}"),
            }
        }
        assert_eq!(batched, solo);
    });
}
