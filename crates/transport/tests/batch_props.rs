//! Properties pinning the batching-equivalence contract: delivering
//! messages in coalesced frames is observably identical to delivering
//! them one frame each.
//!
//! * Front links: the receiver runs every update of an `UpdateBatch`
//!   through the seqno gate in batch order, so the admit-set — and
//!   therefore everything the CE evaluates — is bit-identical to the
//!   unbatched run, however the stream is chunked and however lossy,
//!   reordered, or duplicated it already is.
//! * Back links: the sender dedups only *within* a pending frame, and
//!   the AD algorithms are duplicate-indifferent, so the displayed
//!   alert sequence is bit-identical to the unbatched run.
//!
//! Both properties roundtrip the batches through the real wire codec,
//! not just through in-memory chunking.

use proptest::prelude::*;

use rcm_core::ad::{Ad1, AlertFilter};
use rcm_core::{Alert, AlertId, CeId, CondId, HistoryFingerprint, SeqNo, Update, VarId};
use rcm_transport::wire::{decode_datagram, encode, Message};
use rcm_transport::SeqGate;

/// An arbitrary update stream over few variables and a small seqno
/// range — dense enough that reorders, gaps, and duplicates all occur.
fn update_stream() -> impl Strategy<Value = Vec<Update>> {
    proptest::collection::vec(
        (0u32..3, 1u64..20, -100.0f64..100.0)
            .prop_map(|(v, s, val)| Update::new(VarId::new(v), s, val)),
        0..40,
    )
}

/// An alert stream over a small identity space — (cond, fingerprint)
/// collisions are common, exercising both within-frame dedup and the
/// AD's duplicate suppression.
fn alert_stream() -> impl Strategy<Value = Vec<Alert>> {
    proptest::collection::vec(
        (0u32..2, 1u64..6, 0u32..2, 0u64..100).prop_map(|(v, s, ce, idx)| {
            Alert::new(
                CondId::new(v),
                HistoryFingerprint::single(VarId::new(v), vec![SeqNo::new(s)]),
                vec![Update::new(VarId::new(v), s, 1.0)],
                AlertId { ce: CeId::new(ce), index: idx },
            )
        }),
        0..30,
    )
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn batched_delivery_admits_exactly_the_unbatched_set(
        updates in update_stream(),
        sizes in proptest::collection::vec(1usize..8, 1..5),
    ) {
        // Unbatched: one frame per update.
        let mut solo_gate = SeqGate::new();
        let solo: Vec<Update> =
            updates.iter().filter(|u| solo_gate.admit(u)).copied().collect();

        // Batched: the same stream chunked arbitrarily, each chunk
        // roundtripped through the wire as an UpdateBatch, the
        // receiver gating each update in batch order.
        let mut batch_gate = SeqGate::new();
        let mut batched = Vec::new();
        for chunk in chunk(&updates, &sizes) {
            let frame = encode(&Message::UpdateBatch(chunk)).expect("batch encodes");
            match decode_datagram(&frame).expect("batch decodes") {
                Message::UpdateBatch(items) => {
                    batched.extend(items.into_iter().filter(|u| batch_gate.admit(u)));
                }
                other => prop_assert!(false, "unexpected message {other:?}"),
            }
        }
        prop_assert_eq!(batched, solo);
    }

    #[test]
    fn within_frame_dedup_never_changes_the_displayed_alerts(
        alerts in alert_stream(),
        sizes in proptest::collection::vec(1usize..8, 1..5),
    ) {
        // Unbatched: every alert offered to the filter individually.
        let mut solo_ad = Ad1::new();
        let solo: Vec<Alert> =
            alerts.iter().filter(|a| solo_ad.offer(a).is_deliver()).cloned().collect();

        // Batched: the stream chunked arbitrarily, each chunk deduped
        // the way the back link dedups its pending frame (alert
        // identity = (cond, fingerprint)), roundtripped through the
        // wire, then offered in order to an identical filter.
        let mut batch_ad = Ad1::new();
        let mut batched = Vec::new();
        for chunk in chunk(&alerts, &sizes) {
            let mut pending: Vec<Alert> = Vec::new();
            for alert in chunk {
                if !pending.iter().any(|a| *a == alert) {
                    pending.push(alert);
                }
            }
            let frame = encode(&Message::AlertBatch(pending)).expect("batch encodes");
            match decode_datagram(&frame).expect("batch decodes") {
                Message::AlertBatch(items) => {
                    batched.extend(
                        items.into_iter().filter(|a| batch_ad.offer(a).is_deliver()),
                    );
                }
                other => prop_assert!(false, "unexpected message {other:?}"),
            }
        }
        prop_assert_eq!(batched, solo);
    }
}
