//! The front-link batching-equivalence contract: delivering updates in
//! coalesced `UpdateBatch` frames is observably identical to
//! delivering them one frame each. The receiver runs every update of a
//! batch through the seqno gate in batch order, so the admit-set — and
//! therefore everything the CE evaluates — is bit-identical to the
//! unbatched run, however the stream is chunked and however lossy,
//! reordered, or duplicated it already is. Back links send one `Alert`
//! frame per alert and have no batch frame.
//!
//! The property roundtrips the batches through the real wire codec,
//! not just through in-memory chunking.

use rcm_core::{Update, VarId};
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
