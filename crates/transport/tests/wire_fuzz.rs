//! Seeded property tests of the shared frame codec: every message type
//! survives encode∘decode however the stream is fragmented, no input —
//! garbage, truncation, single-byte corruption — ever panics the
//! decoder, and a frame relabeled with any other version byte is
//! rejected on that byte rather than misparsed.
//! The message pool includes tier-link `Derived` frames (synthetic
//! stream ids in the derived-variable space carrying full verdict
//! alerts), so every property above covers the
//! aggregation tree's uplink traffic too. Alerts of every shape — in
//! place and spilled, with and without a snapshot, with the values a
//! comparison by value gets wrong — come back field for field, and
//! hand-built alert payloads that lie about their snapshot or their
//! variables' order are refused as malformed.

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

/// A frame of this build's version around `payload`, with a correct
/// length and checksum.
fn framed(payload: &[u8]) -> Vec<u8> {
    let mut frame = vec![BINARY_WIRE_VERSION];
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(&fnv1a(payload).to_be_bytes());
    frame.extend_from_slice(payload);
    frame
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Histories as the wire lists them: `(variable, newest-first seqnos)`.
type Entries = Vec<(u32, Vec<u64>)>;

/// An alert payload spelled out from the layout: cond 1, ce 2, index
/// 3, the histories as given, `nsnap`, then `values` as they are.
fn alert_payload(entries: &Entries, nsnap: u64, values: &[u8]) -> Vec<u8> {
    let mut payload = vec![1, 1, 2, 3];
    put_varint(&mut payload, entries.len() as u64);
    for (var, seqnos) in entries {
        put_varint(&mut payload, u64::from(*var));
        put_varint(&mut payload, seqnos.len() as u64);
        seqnos.iter().for_each(|&s| put_varint(&mut payload, s));
    }
    put_varint(&mut payload, nsnap);
    payload.extend_from_slice(values);
    payload
}

/// The values a comparison by value gets wrong.
const AWKWARD: [f64; 6] = [f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY];

/// Histories of any shape: up to 6 variables, ascending with gaps,
/// each of 1 to `size + 1` seqnos, descending with gaps — in place (up
/// to 4 variables, 4 seqnos between them) or spilled.
fn histories(rng: &mut Rng, size: usize) -> Entries {
    let mut var = 0;
    (0..rng.below(7))
        .map(|_| {
            var += 1 + rng.below(200) as u32;
            let mut seqno = 1 + rng.below(1 << 20) as u64;
            let seqnos = (0..1 + rng.below(size + 1))
                .map(|_| {
                    seqno += 1 + rng.below(3) as u64;
                    seqno
                })
                .collect::<Vec<_>>();
            (var, seqnos.into_iter().rev().collect())
        })
        .collect()
}

/// A value awkward for a comparison by value half the time, any bit
/// pattern otherwise.
fn value(rng: &mut Rng) -> f64 {
    if rng.below(2) == 0 {
        AWKWARD[rng.below(AWKWARD.len())]
    } else {
        f64::from_bits(rng.next_u64())
    }
}

/// `n` drawn values as the wire carries them.
fn value_bytes(rng: &mut Rng, n: u64) -> Vec<u8> {
    (0..n).flat_map(|_| value(rng).to_bits().to_le_bytes()).collect()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
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
        match decode_datagram(&framed(&payload)) {
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

#[test]
fn alerts_of_every_shape_come_back_field_for_field() {
    let (mut in_place, mut spilled, mut bare) = (0, 0, 0);
    cases("alerts_of_every_shape_come_back_field_for_field", 512, 20, |rng, size| {
        let entries = histories(rng, size);
        let seqnos: usize = entries.iter().map(|(_, s)| s.len()).sum();
        let values: Vec<f64> =
            if rng.below(4) == 0 { vec![] } else { (0..seqnos).map(|_| value(rng)).collect() };
        let fingerprint = HistoryFingerprint::new(
            entries
                .iter()
                .map(|(v, s)| (VarId::new(*v), s.iter().map(|&s| SeqNo::new(s)).collect()))
                .collect(),
        );
        let updates: Vec<Update> = fingerprint
            .iter()
            .flat_map(|(v, s)| s.iter().map(move |s| (v, s.get())))
            .zip(&values)
            .map(|((v, s), &value)| Update::new(v, s, value))
            .collect();
        let id = AlertId { ce: CeId::new(2), index: 3 };
        let sent = Alert::new(CondId::new(1), fingerprint, updates, id);
        if values.is_empty() {
            bare += 1;
        } else if entries.len() <= 4 && seqnos <= 6 {
            in_place += 1;
        } else {
            spilled += 1;
        }

        // The encoder writes the layout, byte for byte.
        let msg = Message::Alert(sent.clone());
        let frame = encode(&msg).expect("encodable");
        let value_bytes: Vec<u8> = values.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
        assert_eq!(frame, framed(&alert_payload(&entries, values.len() as u64, &value_bytes)));

        let Ok(Message::Alert(got)) = decode_datagram(&frame) else { panic!("not an alert") };
        assert_eq!((got.cond, got.id), (sent.cond, sent.id));
        let read: Entries = got
            .fingerprint
            .iter()
            .map(|(v, s)| (v.index(), s.iter().map(|s| s.get()).collect()))
            .collect();
        assert_eq!(read, entries);
        assert_eq!(bits(&got.snapshot), bits(&values));
        let mut crossed = Vec::new();
        cross_in(&mut crossed, &msg);
        assert_eq!(crossed, frame);
    });
    assert!(in_place > 0 && spilled > 0 && bare > 0, "{in_place} {spilled} {bare}");
}

#[test]
fn alert_payloads_that_lie_are_malformed() {
    cases("alert_payloads_that_lie_are_malformed", 512, 20, |rng, size| {
        let mut entries = histories(rng, size);
        if entries.is_empty() {
            entries.push((0, vec![1]));
        }
        let seqnos: u64 = entries.iter().map(|(_, s)| s.len() as u64).sum();
        let mut lies = Vec::new();
        // A snapshot count that is neither none nor one per seqno, its
        // values all present.
        let wrong = loop {
            let n = 1 + rng.below(2 * seqnos as usize + 2) as u64;
            if n != seqnos {
                break n;
            }
        };
        lies.push(alert_payload(&entries, wrong, &value_bytes(rng, wrong)));
        // A count no payload could hold.
        lies.push(alert_payload(&entries, 1 << 60, &value_bytes(rng, seqnos)));
        // The right count, its values cut short.
        let mut short = value_bytes(rng, seqnos);
        short.truncate(rng.below(short.len()));
        lies.push(alert_payload(&entries, seqnos, &short));
        // A variable repeated, or the variables out of order.
        if entries.len() >= 2 {
            let mut unordered = entries.clone();
            let (i, j) = (rng.below(entries.len()), rng.below(entries.len() - 1));
            let j = if j >= i { j + 1 } else { j };
            if rng.below(2) == 0 {
                unordered[i.max(j)].0 = unordered[i.min(j)].0;
            } else {
                unordered.swap(i, j);
            }
            lies.push(alert_payload(&unordered, seqnos, &value_bytes(rng, seqnos)));
            lies.push(alert_payload(&unordered, 0, &[]));
        }
        for payload in lies {
            match decode_datagram(&framed(&payload)) {
                Err(WireError::Malformed { .. }) => {}
                other => panic!("{entries:?}: {payload:?} decoded as {other:?}"),
            }
        }
    });
}
