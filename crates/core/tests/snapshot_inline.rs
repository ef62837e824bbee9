//! Seeded sweep: [`Snapshot`] — the values of an alert's triggering
//! updates in its fingerprint's order, up to four held in place in the
//! alert's body and a longer run in one boxed slice — against the
//! plainest model of one, a `Vec<Update>` in that order.
//!
//! Equal means: the same updates back through [`AlertBody::updates`],
//! bit for bit, and the same values through the slice view; `==`
//! between snapshots that agrees with the model's values; a list that
//! is neither empty nor the fingerprint's updates refused; an [`Alert`]
//! whose `==` and hash ignore the snapshot; the same checkpoint text
//! and the same updates back from it; the same wire frame tail, the
//! same updates back from the frame, and a `cross_in` that passes; and
//! an [`Alert::with_cond`] that keeps every field but the condition.
//! Snapshots run from no update to twelve, so the in-place limit is
//! crossed from both sides, with values drawn from NaN (two payloads),
//! ±0, ±inf and arbitrary bit patterns.
//!
//! The cases come from the workspace's one generator, `rcm_net::cases`.
//!
//! [`AlertBody::updates`]: rcm_core::AlertBody::updates

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use rcm_core::{
    Alert, AlertId, CeId, CondId, HistoryFingerprint, IntoSnapshot, SeqNo, Snapshot, Update, VarId,
};
use rcm_net::Rng;
use rcm_transport::wire::{self, Message};

/// Values held in place; one more spills.
const IN_PLACE: usize = 4;

/// The values a comparison by value gets wrong, and a few plain ones.
const AWKWARD: [f64; 9] =
    [f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5, -3000.25, f64::MAX];

/// A snapshot as a plain list, in its fingerprint's order.
type Model = Vec<Update>;

fn value(rng: &mut Rng) -> f64 {
    if rng.below(2) == 0 {
        AWKWARD[rng.below(AWKWARD.len())]
    } else {
        f64::from_bits(rng.next_u64())
    }
}

/// `len` seqnos (at least one) over one to four variables, each
/// strictly decreasing from somewhere between small and near 2^64.
fn entries(rng: &mut Rng, len: usize) -> Vec<(VarId, Vec<SeqNo>)> {
    let vars = [0, 1, 7, u32::MAX];
    let k = 1 + rng.below(len.min(vars.len()));
    let mut counts = vec![1; k];
    for _ in k..len {
        counts[rng.below(k)] += 1;
    }
    counts
        .into_iter()
        .zip(vars)
        .map(|(count, var)| {
            let mut seqno = (rng.next_u64() >> rng.below(64)).max(4 * count as u64);
            let run = (0..count)
                .map(|_| {
                    let held = SeqNo::new(seqno);
                    seqno -= 1 + rng.below(3) as u64;
                    held
                })
                .collect();
            (VarId::new(var), run)
        })
        .collect()
}

/// A fingerprint of `len` seqnos and the model of its full snapshot;
/// for `len` 0, a fingerprint of one to three seqnos and no snapshot.
fn model(rng: &mut Rng, len: usize) -> (HistoryFingerprint, Model) {
    if len == 0 {
        let held = 1 + rng.below(3);
        let fp = HistoryFingerprint::new(entries(rng, held));
        return (fp, Vec::new());
    }
    let entries = entries(rng, len);
    let m = entries
        .iter()
        .flat_map(|(var, seqnos)| seqnos.iter().map(move |&s| (*var, s)))
        .map(|(var, seqno)| Update { var, seqno, value: value(rng) })
        .collect();
    (HistoryFingerprint::new(entries), m)
}

/// `m` with one update changed: a value's low bit, a seqno, or one
/// update dropped or appended. All but the first contradict the
/// fingerprint, unless the drop leaves nothing.
fn neighbour(rng: &mut Rng, m: &Model) -> Model {
    let mut n = m.clone();
    if n.is_empty() {
        return n;
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
fn bits(updates: impl IntoIterator<Item = Update>) -> Vec<(u32, u64, u64)> {
    updates.into_iter().map(|u| (u.var.index(), u.seqno.get(), u.value.to_bits())).collect()
}

fn values(m: &Model) -> Vec<f64> {
    m.iter().map(|u| u.value).collect()
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

fn alert(fingerprint: &HistoryFingerprint, snapshot: impl IntoSnapshot, ce: u32) -> Alert {
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
/// then per update the value's bits little-endian (the fingerprint
/// before it already names each update's variable and seqno).
fn wire_tail(m: &Model) -> Vec<u8> {
    let mut tail = Vec::new();
    put_varint(&mut tail, m.len() as u64);
    for u in m {
        tail.extend_from_slice(&u.value.to_bits().to_le_bytes());
    }
    tail
}

/// Every check on one snapshot model and one neighbour of it.
fn check(rng: &mut Rng, fp: &HistoryFingerprint, m: &Model) {
    // The updates and the slice view, built from a list and a slice.
    let owned = alert(fp, m.clone(), 0);
    let borrowed = alert(fp, &m[..], 0);
    let value_bits = |values: &[f64]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for a in [&owned, &borrowed] {
        assert_eq!(bits(a.updates()), bits(m.iter().copied()));
        let snap = &a.snapshot;
        assert_eq!((snap.len(), snap.is_empty()), (m.len(), m.is_empty()));
        assert_eq!(format!("{snap:?}"), format!("{:?}", values(m)));
        assert_eq!(value_bits(&snap.clone()), value_bits(&values(m)));
    }

    // `==` value by value, as the lists compare; a list that
    // contradicts the fingerprint is no snapshot of it.
    let n = neighbour(rng, m);
    let pairs = |m: &Model| m.iter().map(|u| (u.var, u.seqno)).collect::<Vec<_>>();
    let fits = n.is_empty() || pairs(&n) == pairs(m);
    assert_eq!(n.clone().into_snapshot(fp).is_ok(), fits, "{m:?} → {n:?}");
    assert_eq!(owned.snapshot == borrowed.snapshot, values(m) == values(m), "{m:?}");
    if fits {
        let other = alert(fp, n.clone(), 1);
        assert_eq!(owned.snapshot == other.snapshot, values(m) == values(&n), "{m:?} == {n:?}");

        // An alert's identity is its condition and fingerprint alone.
        assert_eq!(owned, other);
        assert_eq!(hash_of(&owned), hash_of(&other));
        assert!(!Alert::ptr_eq(&owned, &other));
    }
    let a = owned;
    assert!(a.clone() == a && Alert::ptr_eq(&a, &a.clone()));

    // The checkpoint form: plain lists, and back. JSON has no NaN or
    // infinity: those values are written `null` and read back as NaN.
    let text = a.to_json().to_string();
    assert!(text.contains(&format!(r#""snapshot":{}"#, snapshot_text(m))), "{text}");
    let back = Alert::from_json(&rcm_json::parse(&text).expect("own text parses")).expect("loads");
    assert_fields(&back, &a);
    assert_eq!(back.snapshot.len(), m.len());
    for (got, want) in back.updates().zip(m) {
        assert_eq!((got.var, got.seqno), (want.var, want.seqno));
        if !want.value.is_finite() {
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
    let Ok(Message::Alert(decoded)) = wire::decode_datagram(&frame) else {
        panic!("own frame decodes to an alert: {m:?}")
    };
    assert_fields(&decoded, &a);
    assert_eq!(bits(decoded.updates()), bits(m.iter().copied()));
    let mut crossed = vec![0xee; 3];
    wire::cross_in(&mut crossed, &msg);
    assert_eq!(crossed, frame);

    // `with_cond` on a shared alert and on a sole handle: the condition
    // changes, nothing else does, and the shared original keeps its own.
    let cond = CondId::new(rng.below(5) as u32);
    for relabelled in [a.clone().with_cond(cond), alert(fp, &m[..], 0).with_cond(cond)] {
        assert_eq!(relabelled.cond, cond);
        assert_eq!((relabelled.id, &relabelled.fingerprint), (a.id, &a.fingerprint));
        assert_eq!(bits(relabelled.updates()), bits(m.iter().copied()));
    }
    assert_eq!(a.cond, CondId::new(2));
}

#[test]
fn snapshot_matches_the_vec_model() {
    let (mut in_place, mut spilled) = (0u32, 0u32);
    rcm_net::cases("snapshot_matches_the_vec_model", 2000, 12, |rng, size| {
        let len = rng.below(size + 1);
        if len <= IN_PLACE {
            in_place += 1;
        } else {
            spilled += 1;
        }
        let (fp, m) = model(rng, len);
        check(rng, &fp, &m);
    });
    println!("{in_place} snapshots in place, {spilled} spilled");
    // Not vacuous on either side of the limit.
    assert!(in_place > 600 && spilled > 600, "{in_place} in place, {spilled} spilled");
}

#[test]
fn the_limit_is_four_values() {
    let x = VarId::new(0);
    for n in 0..=12 {
        let seqnos: Vec<SeqNo> = (1..=n).rev().map(SeqNo::new).collect();
        let fp = HistoryFingerprint::new(if n == 0 { vec![] } else { vec![(x, seqnos)] });
        let m: Model = (1..=n).rev().map(|s| Update::new(x, s, -0.0)).collect();
        check(&mut Rng::seed_from_u64(n), &fp, &m);
        // An in-place snapshot's values lie inside the snapshot itself;
        // a spilled one's in their own allocation.
        let snap = alert(&fp, m, 0).snapshot.clone();
        let at = std::ptr::addr_of!(snap) as usize;
        let inside = (at..at + std::mem::size_of::<Snapshot>()).contains(&(snap.as_ptr() as usize));
        assert_eq!(inside, n as usize <= IN_PLACE, "{n} updates");
    }
}
