//! Seeded sweep: [`Snapshot`] — which holds up to four updates in place
//! in an alert's body and a longer run in one shared slice — against
//! the plainest model of one, a `Vec<Update>`.
//!
//! Equal means: the same updates through the slice view, bit for bit;
//! `==` between snapshots that agrees with the model's; an [`Alert`]
//! whose `==` and hash ignore the snapshot; the same checkpoint text
//! and the same updates back from it; the same wire frame tail, the
//! same updates back from the frame, and a `cross_in` that passes; and
//! an [`Alert::with_cond`] that keeps every field but the condition.
//! Snapshots run from no update to nine, so the in-place limit is
//! crossed from both sides, with values drawn from NaN (two payloads),
//! ±0, ±inf and arbitrary bit patterns.
//!
//! The cases come from the workspace's one generator, `rcm_net::cases`.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use rcm_core::{Alert, AlertId, CeId, CondId, HistoryFingerprint, SeqNo, Snapshot, Update, VarId};
use rcm_net::Rng;
use rcm_transport::wire::{self, Message};

/// Updates held in place; one more spills.
const IN_PLACE: usize = 4;

/// The values a comparison by value gets wrong, and a few plain ones.
const AWKWARD: [f64; 9] =
    [f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5, -3000.25, f64::MAX];

/// A snapshot as a plain list.
type Model = Vec<Update>;

fn value(rng: &mut Rng) -> f64 {
    if rng.below(2) == 0 {
        AWKWARD[rng.below(AWKWARD.len())]
    } else {
        f64::from_bits(rng.next_u64())
    }
}

/// `len` updates over a few variables, seqnos from small to near 2^64.
fn model(rng: &mut Rng, len: usize) -> Model {
    (0..len)
        .map(|_| {
            let var = VarId::new([0, 1, 7, u32::MAX][rng.below(4)]);
            Update::new(var, rng.next_u64() >> rng.below(64), value(rng))
        })
        .collect()
}

/// `m` with one update changed: a value's low bit, a seqno, or one
/// update dropped or appended, which moves a snapshot across the limit
/// when it sits on it.
fn neighbour(rng: &mut Rng, m: &Model) -> Model {
    let mut n = m.clone();
    if n.is_empty() {
        return model(rng, 1);
    }
    let at = rng.below(n.len());
    match rng.below(4) {
        0 => n[at].value = f64::from_bits(n[at].value.to_bits() ^ 1),
        1 => n[at].seqno = SeqNo::new(n[at].seqno.get() ^ 1),
        2 => {
            n.remove(at);
        }
        _ => n.push(n[at]),
    }
    n
}

/// Each update as its bits: what "the same, bit for bit" compares.
fn bits(updates: &[Update]) -> Vec<(u32, u64, u64)> {
    updates.iter().map(|u| (u.var.index(), u.seqno.get(), u.value.to_bits())).collect()
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

fn alert(fingerprint: &HistoryFingerprint, snapshot: impl Into<Snapshot>, ce: u32) -> Alert {
    let id = AlertId { ce: CeId::new(ce), index: u64::from(ce) * 1000 + 3 };
    Alert::new(CondId::new(2), fingerprint.clone(), snapshot, id)
}

/// `alert`'s fields but the snapshot, against what it was built from.
fn assert_fields(got: &Alert, sent: &Alert) {
    assert_eq!((got.cond, got.id, &got.fingerprint), (sent.cond, sent.id, &sent.fingerprint));
}

/// The checkpoint text of `m`: `null` for a value JSON cannot write.
fn snapshot_text(m: &Model) -> String {
    let updates: Vec<String> = m
        .iter()
        .map(|u| {
            let value =
                if u.value.is_finite() { format!("{:?}", u.value) } else { "null".to_string() };
            format!(r#"{{"var":{},"seqno":{},"value":{value}}}"#, u.var.index(), u.seqno.get())
        })
        .collect();
    format!("[{}]", updates.join(","))
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// The bytes an alert frame ends with for snapshot `m`: its length,
/// then per update the variable and seqno as varints and the value's
/// bits little-endian.
fn wire_tail(m: &Model) -> Vec<u8> {
    let mut tail = Vec::new();
    put_varint(&mut tail, m.len() as u64);
    for u in m {
        put_varint(&mut tail, u64::from(u.var.index()));
        put_varint(&mut tail, u.seqno.get());
        tail.extend_from_slice(&u.value.to_bits().to_le_bytes());
    }
    tail
}

/// Every check on one snapshot model and one neighbour of it.
fn check(rng: &mut Rng, m: &Model) {
    let fp = HistoryFingerprint::single(VarId::new(rng.below(8) as u32), vec![SeqNo::new(9)]);

    // The slice view, built from a list and from a slice.
    let owned = Snapshot::from(m.clone());
    let borrowed = Snapshot::from(&m[..]);
    for snap in [&owned, &borrowed] {
        assert_eq!(bits(snap), bits(m));
        assert_eq!((snap.len(), snap.is_empty()), (m.len(), m.is_empty()));
        assert_eq!(format!("{snap:?}"), format!("{m:?}"));
        assert_eq!(bits(&snap.clone()), bits(m));
    }

    // `==` element by element, as the lists compare.
    let n = neighbour(rng, m);
    let other = Snapshot::from(n.clone());
    assert_eq!(owned == borrowed, *m == m.clone(), "{m:?}");
    assert_eq!(owned == other, *m == n, "{m:?} == {n:?}");

    // An alert's identity is its condition and fingerprint alone.
    let a = alert(&fp, m.clone(), 0);
    let b = alert(&fp, n.clone(), 1);
    assert_eq!(a, b);
    assert_eq!(hash_of(&a), hash_of(&b));
    assert!(a.clone() == a && Alert::ptr_eq(&a, &a.clone()) && !Alert::ptr_eq(&a, &b));

    // The checkpoint form: plain lists, and back. JSON has no NaN or
    // infinity: those values are written `null` and read back as NaN.
    let text = a.to_json().to_string();
    assert!(text.contains(&format!(r#""snapshot":{}"#, snapshot_text(m))), "{text}");
    let back = Alert::from_json(&rcm_json::parse(&text).expect("own text parses")).expect("loads");
    assert_fields(&back, &a);
    let expected: Model = m
        .iter()
        .map(|u| Update { value: if u.value.is_finite() { u.value } else { f64::NAN }, ..*u })
        .collect();
    assert_eq!(back.snapshot.len(), m.len());
    for (got, want) in back.snapshot.iter().zip(&expected) {
        assert_eq!((got.var, got.seqno), (want.var, want.seqno));
        if want.value.is_nan() {
            assert!(got.value.is_nan(), "{text}");
        } else {
            assert_eq!(got.value.to_bits(), want.value.to_bits(), "{text}");
        }
    }

    // The wire: the frame ends with the snapshot spelled from the list,
    // decodes to the same bits, and crosses in process.
    let msg = Message::Alert(a.clone());
    let frame = wire::encode(&msg).expect("encodes");
    assert!(frame.ends_with(&wire_tail(m)), "{m:?}");
    assert_eq!(frame.len(), wire::frame_len(&msg));
    let Ok(Message::Alert(decoded)) = wire::decode_datagram(&frame) else {
        panic!("own frame decodes to an alert: {m:?}")
    };
    assert_fields(&decoded, &a);
    assert_eq!(bits(&decoded.snapshot), bits(m));
    let mut crossed = vec![0xee; 3];
    wire::cross_in(&mut crossed, &msg);
    assert_eq!(crossed, frame);

    // `with_cond` on a shared alert and on a sole handle: the condition
    // changes, nothing else does, and the shared original keeps its own.
    let cond = CondId::new(rng.below(5) as u32);
    for relabelled in [a.clone().with_cond(cond), alert(&fp, &m[..], 0).with_cond(cond)] {
        assert_eq!(relabelled.cond, cond);
        assert_eq!((relabelled.id, &relabelled.fingerprint), (a.id, &a.fingerprint));
        assert_eq!(bits(&relabelled.snapshot), bits(m));
    }
    assert_eq!(a.cond, CondId::new(2));
}

#[test]
fn snapshot_matches_the_vec_model() {
    let (mut in_place, mut spilled) = (0u32, 0u32);
    rcm_net::cases("snapshot_matches_the_vec_model", 2000, 9, |rng, size| {
        let len = rng.below(size + 1);
        if len <= IN_PLACE {
            in_place += 1;
        } else {
            spilled += 1;
        }
        let m = model(rng, len);
        check(rng, &m);
    });
    println!("{in_place} snapshots in place, {spilled} spilled");
    // Not vacuous on either side of the limit.
    assert!(in_place > 600 && spilled > 600, "{in_place} in place, {spilled} spilled");
}

#[test]
fn the_limit_is_four_updates() {
    let x = VarId::new(0);
    let run = |n: u64| -> Model { (0..n).rev().map(|s| Update::new(x, s, -0.0)).collect() };
    for n in 0..=9 {
        let m = run(n);
        check(&mut Rng::seed_from_u64(n), &m);
        // A spilled snapshot is shared by its clones, an in-place one
        // is copied with them.
        let snap = Snapshot::from(m);
        let copy = snap.clone();
        let shared = !snap.is_empty() && std::ptr::eq(&snap[0], &copy[0]);
        assert_eq!(shared, n as usize > IN_PLACE, "{n} updates");
    }
}
