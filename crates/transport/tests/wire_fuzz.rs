//! Property-based tests of the shared frame codec: every message type
//! survives encode∘decode however the stream is fragmented, no input —
//! garbage, truncation, single-byte corruption — ever panics the
//! decoder, and a frame relabeled with any other version byte is
//! rejected on that byte rather than misparsed.
//! The message pool includes tier-link `Derived` frames (synthetic
//! stream ids in the derived-variable space carrying aggregate samples
//! or full verdict alerts), so every property above covers the
//! aggregation tree's uplink traffic too.

use proptest::prelude::*;

use rcm_core::{
    Alert, AlertId, CeId, CondId, DerivedPayload, DerivedUpdate, HistoryFingerprint, SeqNo, Update,
    VarId,
};
use rcm_transport::wire::{
    decode, decode_datagram, encode, FrameBuf, Message, WireError, BINARY_WIRE_VERSION,
};

fn update_strategy() -> impl Strategy<Value = Update> {
    (0u32..4, 1u64..1000, -1e6f64..1e6).prop_map(|(v, s, val)| Update::new(VarId::new(v), s, val))
}

fn alert_strategy() -> impl Strategy<Value = Alert> {
    (0u32..4, 2u64..1000, 0u32..3, any::<u64>()).prop_map(|(v, s, ce, idx)| {
        Alert::new(
            CondId::new(ce),
            HistoryFingerprint::single(VarId::new(v), vec![SeqNo::new(s), SeqNo::new(s - 1)]),
            vec![Update::new(VarId::new(v), s, 1.0)],
            AlertId { ce: CeId::new(ce), index: idx },
        )
    })
}

/// Tier-link frames: a synthetic stream id in the derived space, a
/// per-stream seqno, and either an aggregate sample or a full verdict
/// (the leaf's alert riding upward).
fn derived_strategy() -> impl Strategy<Value = DerivedUpdate> {
    let aggregate = (-1e6f64..1e6).prop_map(DerivedPayload::Aggregate);
    let verdict = alert_strategy().prop_map(DerivedPayload::Verdict);
    (0u8..3, 0u32..8, 1u64..1000, prop_oneof![aggregate, verdict]).prop_map(
        |(tier, node, seqno, payload)| DerivedUpdate {
            var: rcm_core::derived_var(tier, node),
            seqno: SeqNo::new(seqno),
            payload,
        },
    )
}

fn message_strategy() -> impl Strategy<Value = Message> {
    let update = update_strategy().prop_map(Message::Update);
    let alert = alert_strategy().prop_map(Message::Alert);
    let update_batch =
        proptest::collection::vec(update_strategy(), 0..8).prop_map(Message::UpdateBatch);
    let alert_batch =
        proptest::collection::vec(alert_strategy(), 0..4).prop_map(Message::AlertBatch);
    let hello = any::<u32>().prop_map(|node| Message::Hello { node });
    let fin = any::<u32>().prop_map(|node| Message::Fin { node });
    let derived = derived_strategy().prop_map(Message::Derived);
    prop_oneof![update, alert, update_batch, alert_batch, hello, fin, derived]
}

/// Deterministic tier-link sweep — runs everywhere, including
/// environments where the proptest cases below are CI-only: every
/// single-byte corruption of a Derived frame (verdict and aggregate)
/// either errors or decodes to a *different* message, a relabel to any
/// other version byte is rejected, and every truncation is an error.
#[test]
fn derived_frame_mutations_never_panic_or_misparse() {
    let alert = Alert::new(
        CondId::new(2),
        HistoryFingerprint::single(VarId::new(1), vec![SeqNo::new(9), SeqNo::new(8)]),
        vec![Update::new(VarId::new(1), 9, 4.5)],
        AlertId { ce: CeId::new(3), index: 7 },
    );
    let messages = [
        Message::Derived(DerivedUpdate {
            var: rcm_core::derived_var(1, 4),
            seqno: SeqNo::new(11),
            payload: DerivedPayload::Verdict(alert),
        }),
        Message::Derived(DerivedUpdate {
            var: rcm_core::derived_var(2, 0),
            seqno: SeqNo::new(1),
            payload: DerivedPayload::Aggregate(-12.75),
        }),
    ];
    for msg in &messages {
        let frame = encode(msg).expect("derived frame encodes");
        assert_eq!(&decode_datagram(&frame).expect("derived frame decodes"), msg);
        for pos in 0..frame.len() {
            for xor in [0x01u8, 0x80, 0xff] {
                let mut bad = frame.clone();
                bad[pos] ^= xor;
                if let Ok(got) = decode_datagram(&bad) {
                    assert_ne!(&got, msg, "corrupted derived frame decoded to the original");
                }
            }
        }
        for keep in 0..frame.len() {
            assert!(decode_datagram(&frame[..keep]).is_err(), "truncated frame decoded");
        }
        // Any other version byte must be rejected as such, never
        // guessed at.
        for version in (0..=u8::MAX).filter(|&v| v != BINARY_WIRE_VERSION) {
            let mut relabeled = frame.clone();
            relabeled[0] = version;
            match decode_datagram(&relabeled) {
                Err(WireError::BadVersion { found }) if found == version => {}
                Err(e) => panic!("unexpected error class for relabeled derived frame: {e}"),
                Ok(got) => panic!("relabeled derived frame decoded to {got:?}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        // Streamed: any Err or Ok is fine, a panic is not.
        let mut buf = FrameBuf::new();
        buf.push(&bytes);
        let _ = decode(&mut buf);
        // Datagram: same contract.
        let _ = decode_datagram(&bytes);
    }

    #[test]
    fn every_message_type_roundtrips(msg in message_strategy()) {
        let frame = encode(&msg).expect("encodable");
        prop_assert_eq!(decode_datagram(&frame).expect("decodable"), msg);
    }

    #[test]
    fn roundtrip_survives_fragmentation(
        msgs in proptest::collection::vec(message_strategy(), 1..8),
        cut in any::<prop::sample::Index>(),
    ) {
        let mut stream = Vec::new();
        for msg in &msgs {
            stream.extend_from_slice(&encode(msg).expect("encodable"));
        }
        // Feed the stream in two arbitrary fragments; frame boundaries
        // and fragment boundaries need not line up.
        let cut = cut.index(stream.len() + 1);
        let mut buf = FrameBuf::new();
        buf.push(&stream[..cut]);
        let mut got = Vec::new();
        while let Some(msg) = decode(&mut buf).expect("well-formed stream") {
            got.push(msg);
        }
        buf.push(&stream[cut..]);
        while let Some(msg) = decode(&mut buf).expect("well-formed stream") {
            got.push(msg);
        }
        prop_assert_eq!(got, msgs);
        prop_assert!(buf.is_empty(), "no trailing bytes for complete frames");
    }

    #[test]
    fn truncation_never_yields_a_message(
        msg in message_strategy(),
        keep in any::<prop::sample::Index>(),
    ) {
        let frame = encode(&msg).expect("encodable");
        let keep = keep.index(frame.len()); // strictly shorter than the frame
        // A truncated datagram is an error, never a decoded message.
        prop_assert!(decode_datagram(&frame[..keep]).is_err());
        // A truncated stream just waits for more bytes — or rejects a
        // mangled header — but never produces a message.
        let mut buf = FrameBuf::new();
        buf.push(&frame[..keep]);
        match decode(&mut buf) {
            Ok(None) | Err(_) => {}
            Ok(Some(got)) => prop_assert!(false, "truncated frame decoded to {got:?}"),
        }
    }

    #[test]
    fn corruption_is_detected_or_harmless(
        msg in message_strategy(),
        pos in any::<prop::sample::Index>(),
        xor in 1u8..=255,
    ) {
        let mut frame = encode(&msg).expect("encodable");
        let pos = pos.index(frame.len());
        frame[pos] ^= xor;
        match decode_datagram(&frame) {
            // Flips in the header or payload are caught by the version
            // byte, the length, the checksum or the codec...
            Err(_) => {}
            // ...except a flip inside the payload that still parses
            // (e.g. a varint byte). The
            // framing cannot see it — but the checksum must then have
            // been flipped too, which decode_datagram checks first, so
            // the only survivors are flips the codec maps to a
            // *different* valid message.
            Ok(got) => prop_assert_ne!(got, msg, "corrupted frame decoded to the original"),
        }
    }

    #[test]
    fn cross_version_relabel_is_rejected(msg in message_strategy()) {
        // The checksum covers the payload only, so a relabeled frame
        // is otherwise intact: the rejection has to come from the
        // version byte itself, for every value but the live one.
        let mut frame = encode(&msg).expect("encodable");
        for version in (0..=u8::MAX).filter(|&v| v != BINARY_WIRE_VERSION) {
            frame[0] = version;
            match decode_datagram(&frame) {
                Err(WireError::BadVersion { found }) => prop_assert_eq!(found, version),
                Err(e) => prop_assert!(false, "unexpected error class: {e}"),
                Ok(got) => prop_assert!(false, "relabeled frame decoded to {got:?}"),
            }
        }
    }
}
