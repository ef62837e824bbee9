//! Seeded property tests of the shared frame codec: every message type
//! survives encode∘decode however the stream is fragmented, no input —
//! garbage, truncation, single-byte corruption — ever panics the
//! decoder, and a frame relabeled with any other version byte is
//! rejected on that byte rather than misparsed.
//! The message pool includes tier-link `Derived` frames (synthetic
//! stream ids in the derived-variable space carrying full verdict
//! alerts), so every property above covers the
//! aggregation tree's uplink traffic too.

use rcm_core::{
    Alert, AlertId, CeId, CondId, DerivedUpdate, HistoryFingerprint, SeqNo, Update, VarId,
};
use rcm_net::{cases, Rng};
use rcm_transport::wire::{
    cross_in, decode, decode_datagram, encode, FrameBuf, Message, WireError, BINARY_WIRE_VERSION,
    HEADER_LEN,
};

fn update(rng: &mut Rng) -> Update {
    let (v, s) = (rng.below(4) as u32, 1 + rng.below(999) as u64);
    Update::new(VarId::new(v), s, rng.next_f64() * 2e6 - 1e6)
}

fn alert(rng: &mut Rng) -> Alert {
    let (v, s, ce) = (rng.below(4) as u32, 2 + rng.below(998) as u64, rng.below(3) as u32);
    Alert::new(
        CondId::new(ce),
        HistoryFingerprint::single(VarId::new(v), vec![SeqNo::new(s), SeqNo::new(s - 1)]),
        vec![Update::new(VarId::new(v), s, 1.0), Update::new(VarId::new(v), s - 1, 0.5)],
        AlertId { ce: CeId::new(ce), index: rng.next_u64() },
    )
}

/// Tier-link frames: a synthetic stream id in the derived space, a
/// per-stream seqno, and a verdict (the leaf's alert riding upward).
fn derived(rng: &mut Rng) -> DerivedUpdate {
    let var = rcm_core::derived_var(rng.below(3) as u8, rng.below(8) as u32);
    let seqno = SeqNo::new(1 + rng.below(999) as u64);
    DerivedUpdate { var, seqno, verdict: alert(rng) }
}

/// One of the six message types, batches `0..=size` long (at most 7
/// updates).
fn message(rng: &mut Rng, size: usize) -> Message {
    match rng.below(6) {
        0 => Message::Update(update(rng)),
        1 => Message::Alert(alert(rng)),
        2 => Message::UpdateBatch((0..rng.below(size.min(7) + 1)).map(|_| update(rng)).collect()),
        3 => Message::Hello { node: rng.next_u64() as u32 },
        4 => Message::Fin { node: rng.next_u64() as u32 },
        _ => Message::Derived(derived(rng)),
    }
}

/// The FNV-1a checksum of the frame header, so a hand-built payload
/// passes the integrity check and reaches the tag dispatch.
fn fnv1a(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811c_9dc5, |h, &b| (h ^ u32::from(b)).wrapping_mul(0x0100_0193))
}

/// Tag 5 was `AlertBatch`, retired: a well-framed payload under it, as
/// the old encoder wrote one (a count, then that many alerts), is an
/// unknown tag like any other, whatever it carries.
#[test]
fn the_retired_alert_batch_tag_is_rejected() {
    cases("the_retired_alert_batch_tag_is_rejected", 64, 3, |rng, size| {
        let count = rng.below(size + 1);
        let mut payload = vec![5, count as u8];
        for _ in 0..count {
            let one = encode(&Message::Alert(alert(rng))).expect("encodable");
            payload.extend_from_slice(&one[HEADER_LEN + 1..]);
        }
        let mut frame = vec![BINARY_WIRE_VERSION];
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&fnv1a(&payload).to_be_bytes());
        frame.extend_from_slice(&payload);
        match decode_datagram(&frame) {
            Err(WireError::Malformed { context: "unknown message tag" }) => {}
            other => panic!("tag 5 decoded as {other:?}"),
        }
    });
}

/// Exhaustive tier-link sweep, next to the drawn cases below: every
/// single-byte corruption of a Derived frame either errors or decodes to a *different* message, a relabel to any
/// other version byte is rejected, and every truncation is an error.
#[test]
fn derived_frame_mutations_never_panic_or_misparse() {
    let alert = Alert::new(
        CondId::new(2),
        HistoryFingerprint::single(VarId::new(1), vec![SeqNo::new(9), SeqNo::new(8)]),
        vec![Update::new(VarId::new(1), 9, 4.5), Update::new(VarId::new(1), 8, 4.25)],
        AlertId { ce: CeId::new(3), index: 7 },
    );
    let messages = [Message::Derived(DerivedUpdate {
        var: rcm_core::derived_var(1, 4),
        seqno: SeqNo::new(11),
        verdict: alert,
    })];
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

#[test]
fn decoder_never_panics_on_garbage() {
    cases("decoder_never_panics_on_garbage", 256, 199, |rng, size| {
        let bytes: Vec<u8> = (0..rng.below(size + 1)).map(|_| rng.next_u64() as u8).collect();
        // Streamed: any Err or Ok is fine, a panic is not.
        let mut buf = FrameBuf::new();
        buf.push(&bytes);
        let _ = decode(&mut buf);
        // Datagram: same contract.
        let _ = decode_datagram(&bytes);
    });
}

#[test]
fn every_message_type_roundtrips() {
    cases("every_message_type_roundtrips", 256, 7, |rng, size| {
        let msg = message(rng, size);
        let frame = encode(&msg).expect("encodable");
        assert_eq!(decode_datagram(&frame).expect("decodable"), msg);
    });
}

#[test]
fn every_message_type_crosses_checked() {
    cases("every_message_type_crosses_checked", 256, 7, |rng, size| {
        // The in-process hop: panics unless the copy matches field for
        // field, and leaves exactly the frame behind.
        let msg = message(rng, size);
        let mut frame = Vec::new();
        cross_in(&mut frame, &msg);
        assert_eq!(frame, encode(&msg).expect("encodable"));
    });
}

#[test]
fn roundtrip_survives_fragmentation() {
    cases("roundtrip_survives_fragmentation", 256, 7, |rng, size| {
        let msgs: Vec<Message> =
            (0..1 + rng.below(size.min(6) + 1)).map(|_| message(rng, size)).collect();
        let mut stream = Vec::new();
        for msg in &msgs {
            stream.extend_from_slice(&encode(msg).expect("encodable"));
        }
        // Feed the stream in two arbitrary fragments; frame boundaries
        // and fragment boundaries need not line up.
        let cut = rng.below(stream.len() + 1);
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
        assert_eq!(got, msgs);
        assert!(buf.is_empty(), "no trailing bytes for complete frames");
    });
}

#[test]
fn truncation_never_yields_a_message() {
    cases("truncation_never_yields_a_message", 256, 7, |rng, size| {
        let frame = encode(&message(rng, size)).expect("encodable");
        let keep = rng.below(frame.len()); // strictly shorter than the frame
                                           // A truncated datagram is an error, never a decoded message.
        assert!(decode_datagram(&frame[..keep]).is_err());
        // A truncated stream just waits for more bytes — or rejects a
        // mangled header — but never produces a message.
        let mut buf = FrameBuf::new();
        buf.push(&frame[..keep]);
        match decode(&mut buf) {
            Ok(None) | Err(_) => {}
            Ok(Some(got)) => panic!("truncated frame decoded to {got:?}"),
        }
    });
}

#[test]
fn corruption_is_detected_or_harmless() {
    cases("corruption_is_detected_or_harmless", 256, 7, |rng, size| {
        let msg = message(rng, size);
        let mut frame = encode(&msg).expect("encodable");
        let pos = rng.below(frame.len());
        frame[pos] ^= 1 + rng.below(255) as u8;
        match decode_datagram(&frame) {
            // Flips in the header or payload are caught by the version
            // byte, the length, the checksum or the codec...
            Err(_) => {}
            // ...except a flip inside the payload that still parses
            // (e.g. a varint byte). The framing cannot see it — but the
            // checksum must then have been flipped too, which
            // decode_datagram checks first, so the only survivors are
            // flips the codec maps to a *different* valid message.
            Ok(got) => assert_ne!(got, msg, "corrupted frame decoded to the original"),
        }
    });
}

#[test]
fn cross_version_relabel_is_rejected() {
    cases("cross_version_relabel_is_rejected", 256, 7, |rng, size| {
        // The checksum covers the payload only, so a relabeled frame is
        // otherwise intact: the rejection has to come from the version
        // byte itself, for every value but the live one.
        let mut frame = encode(&message(rng, size)).expect("encodable");
        for version in (0..=u8::MAX).filter(|&v| v != BINARY_WIRE_VERSION) {
            frame[0] = version;
            match decode_datagram(&frame) {
                Err(WireError::BadVersion { found }) => assert_eq!(found, version),
                Err(e) => panic!("unexpected error class: {e}"),
                Ok(got) => panic!("relabeled frame decoded to {got:?}"),
            }
        }
    });
}
