//! Seeded sweep: [`HistoryFingerprint`] — which holds a small history
//! set in place, in fixed arrays, and a larger one in one boxed slice —
//! against the plainest model of one, a `Vec<(VarId, Vec<SeqNo>)>`
//! sorted by variable.
//!
//! Equal means: the same entries through every reader (`iter`,
//! `variables`, `seqnos`, `seqno`, `is_consecutive`), the same text
//! (`Display`, `Debug`), and `==`, `cmp` and hashes that agree with the
//! model's on pairs that are equal, differ in one seqno, or are one a
//! prefix of the other — whichever of the two forms each side is held
//! in. Shapes run from no variable to five and from one seqno per
//! variable to twenty, so both limits of the in-place form (4
//! variables, 4 seqnos between them) are crossed from both sides, and
//! every fingerprint is built three ways — `new`, `try_new` and a
//! [`FingerprintBuilder`] — from entries in shuffled order.
//!
//! The shapes are drawn from the workspace's one generator,
//! `rcm_net::Rng`, from a fixed seed. (The wire round trip of the same
//! shapes is `rcm-transport`'s to test: see
//! `alerts_of_every_shape_roundtrip` in its `wire.rs`.)

use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use rcm_core::{
    Alert, AlertId, CeId, CondId, FingerprintBuilder, FingerprintError, HistoryFingerprint, SeqNo,
    VarId,
};
use rcm_net::Rng;

fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i + 1));
    }
}

/// A history set as plain lists, ascending by variable.
type Model = Vec<(VarId, Vec<SeqNo>)>;

/// Variable ids from both ends of the range: the boxed form packs a
/// variable into the high half of a word, so the high bits matter.
const VAR_POOL: [u32; 8] = [0, 1, 2, 7, 900, 0x8000_0000, 0xc000_0101, u32::MAX];

/// `nvars` distinct variables with `1..=max_degree` seqnos each:
/// strictly decreasing, about half the steps consecutive.
fn model(rng: &mut Rng, nvars: usize, max_degree: usize) -> Model {
    let mut pool = VAR_POOL;
    shuffle(rng, &mut pool);
    let mut entries: Model = pool[..nvars]
        .iter()
        .map(|&v| {
            let degree = 1 + rng.below(max_degree);
            let mut next = rng.next_u64() >> (4 + rng.below(56));
            let mut seqnos: Vec<SeqNo> = (0..degree)
                .map(|_| {
                    next += 1 + (rng.below(2) * rng.below(1000)) as u64;
                    SeqNo::new(next)
                })
                .collect();
            seqnos.reverse();
            (VarId::new(v), seqnos)
        })
        .collect();
    entries.sort();
    entries
}

fn via_builder(entries: &Model) -> Result<HistoryFingerprint, FingerprintError> {
    let mut b = FingerprintBuilder::new();
    for (var, seqnos) in entries {
        b.start(*var)?;
        for s in seqnos {
            b.push(*s)?;
        }
    }
    b.finish()
}

/// `m` built three ways from one shuffled copy; all three must agree.
fn build(rng: &mut Rng, m: &Model) -> HistoryFingerprint {
    let mut shuffled = m.clone();
    shuffle(rng, &mut shuffled);
    let fp = HistoryFingerprint::new(shuffled.clone());
    assert_eq!(HistoryFingerprint::try_new(shuffled.clone()).as_ref(), Ok(&fp), "{m:?}");
    assert_eq!(via_builder(&shuffled).as_ref(), Ok(&fp), "{m:?}");
    fp
}

fn display_of(m: &Model) -> String {
    let entries: Vec<String> = m
        .iter()
        .map(|(v, seqnos)| {
            let seqnos: Vec<String> = seqnos.iter().map(|s| s.get().to_string()).collect();
            format!("v{}:[{}]", v.index(), seqnos.join(","))
        })
        .collect();
    format!("{{{}}}", entries.join(", "))
}

fn debug_of(m: &Model) -> String {
    let entries: Vec<String> = m
        .iter()
        .map(|(v, seqnos)| {
            let seqnos: Vec<String> =
                seqnos.iter().map(|s| format!("SeqNo({})", s.get())).collect();
            format!("(VarId({}), [{}])", v.index(), seqnos.join(", "))
        })
        .collect();
    format!("HistoryFingerprint {{ entries: [{}] }}", entries.join(", "))
}

fn hash_of(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// Every reader of `fp` against the lists it was built from.
fn assert_reads_as(fp: &HistoryFingerprint, m: &Model) {
    let read: Model = fp.iter().map(|(v, s)| (v, s.to_vec())).collect();
    assert_eq!(&read, m);
    assert_eq!(fp.variables().collect::<Vec<_>>(), m.iter().map(|(v, _)| *v).collect::<Vec<_>>());
    for (var, seqnos) in m {
        assert_eq!(fp.seqnos(*var), Some(&seqnos[..]), "{m:?}");
        assert_eq!(fp.seqno(*var), Some(seqnos[0]), "{m:?}");
    }
    let absent = VarId::new(5);
    assert_eq!((fp.seqnos(absent), fp.seqno(absent)), (None, None));
    let gapless =
        m.iter().all(|(_, seqnos)| seqnos.windows(2).all(|w| w[0].get() == w[1].get() + 1));
    assert_eq!(fp.is_consecutive(), gapless, "{m:?}");
    assert_eq!(fp.to_string(), display_of(m));
    assert_eq!(format!("{fp:?}"), debug_of(m));
    assert_eq!(&fp.clone(), fp);
    assert_eq!(hash_of(&fp.clone()), hash_of(fp));
}

/// `==`, `cmp` and hashes of two fingerprints against their models'.
fn assert_compares_as(a: &HistoryFingerprint, ma: &Model, b: &HistoryFingerprint, mb: &Model) {
    assert_eq!(a == b, ma == mb, "{ma:?} == {mb:?}");
    assert_eq!(a.cmp(b), ma.cmp(mb), "{ma:?} <=> {mb:?}");
    assert_eq!(b.cmp(a), mb.cmp(ma), "{mb:?} <=> {ma:?}");
    assert_eq!(a.partial_cmp(b), Some(ma.cmp(mb)));
    if ma == mb {
        assert_eq!(hash_of(a), hash_of(b), "{ma:?}");
    }
    // An alert's identity is its condition and this.
    let alert = |fp: &HistoryFingerprint, ce| {
        Alert::new(CondId::SINGLE, fp.clone(), vec![], AlertId { ce: CeId::new(ce), index: 0 })
    };
    assert_eq!(alert(a, 0) == alert(b, 1), ma == mb);
    if ma == mb {
        assert_eq!(hash_of(&alert(a, 0)), hash_of(&alert(b, 1)));
    }
}

/// `m` with one small change: a seqno lowered, the oldest seqno of a
/// variable dropped or one appended, a variable dropped or one added.
/// Several of these move a set across the in-place limits, and the
/// last four make one of the pair a prefix of the other.
fn neighbour(rng: &mut Rng, m: &Model) -> Model {
    let mut n = m.clone();
    let unused = VAR_POOL.iter().map(|&v| VarId::new(v)).find(|v| m.iter().all(|(w, _)| w != v));
    if n.is_empty() {
        n.push((VarId::new(3), vec![SeqNo::new(1)]));
        return n;
    }
    let at = rng.below(n.len());
    match rng.below(5) {
        0 => {
            let seqnos = &mut n[at].1;
            let i = rng.below(seqnos.len());
            let floor = seqnos.get(i + 1).map_or(0, |s| s.get() + 1);
            if seqnos[i].get() > floor {
                seqnos[i] = SeqNo::new(seqnos[i].get() - 1);
            }
        }
        1 if n[at].1.len() > 1 => {
            n[at].1.pop();
        }
        2 => match n[at].1.last().map(|s| s.get()) {
            Some(oldest) if oldest > 0 => n[at].1.push(SeqNo::new(oldest - 1)),
            _ => {}
        },
        3 => {
            n.remove(at);
        }
        _ => {
            if let Some(var) = unused {
                n.push((var, vec![SeqNo::new(rng.next_u64() >> 8)]));
                n.sort();
            }
        }
    }
    n
}

#[test]
fn flat_fingerprint_equals_the_list_model() {
    let mut rng = Rng::seed_from_u64(0x5eed_f1a7);
    let (mut in_place, mut boxed) = (0u32, 0u32);
    for round in 0..4000 {
        let nvars = round % 6;
        // Mostly the paper's degrees, where the in-place limit is; the
        // deep windows of an aggregate every fourth round.
        let max_degree = if round % 4 == 3 { 20 } else { 3 };
        let ma = model(&mut rng, nvars, max_degree);
        let a = build(&mut rng, &ma);
        assert_reads_as(&a, &ma);
        let seqnos: usize = ma.iter().map(|(_, s)| s.len()).sum();
        if ma.len() <= 4 && seqnos <= 4 {
            in_place += 1;
        } else {
            boxed += 1;
        }

        let again = build(&mut rng, &ma);
        assert_compares_as(&a, &ma, &again, &ma);
        let mn = neighbour(&mut rng, &ma);
        let n = build(&mut rng, &mn);
        assert_reads_as(&n, &mn);
        assert_compares_as(&a, &ma, &n, &mn);
        let other_nvars = rng.below(6);
        let mo = model(&mut rng, other_nvars, max_degree);
        let o = build(&mut rng, &mo);
        assert_compares_as(&a, &ma, &o, &mo);
    }
    // Not vacuous on either side of the limit.
    assert!(in_place > 1000 && boxed > 1000, "{in_place} in place, {boxed} boxed");
}

fn seqnos(raw: &[u64]) -> Vec<SeqNo> {
    raw.iter().map(|&s| SeqNo::new(s)).collect()
}

#[test]
fn text_forms_are_pinned() {
    let (x, y) = (VarId::new(0), VarId::new(1));
    let small = HistoryFingerprint::new(vec![(y, seqnos(&[2])), (x, seqnos(&[8, 5]))]);
    assert_eq!(small.to_string(), "{v0:[8,5], v1:[2]}");
    assert_eq!(
        format!("{small:?}"),
        "HistoryFingerprint { entries: [(VarId(0), [SeqNo(8), SeqNo(5)]), (VarId(1), [SeqNo(2)])] }"
    );
    // Seven seqnos: past what is held in place.
    let large = HistoryFingerprint::single(y, seqnos(&[9, 8, 7, 6, 5, 4, 2]));
    assert_eq!(large.to_string(), "{v1:[9,8,7,6,5,4,2]}");
    assert_eq!(
        format!("{large:?}"),
        "HistoryFingerprint { entries: [(VarId(1), [SeqNo(9), SeqNo(8), SeqNo(7), SeqNo(6), \
         SeqNo(5), SeqNo(4), SeqNo(2)])] }"
    );
    let empty = HistoryFingerprint::default();
    assert_eq!((empty.to_string().as_str(), empty.iter().count()), ("{}", 0));
    assert_eq!(format!("{empty:?}"), "HistoryFingerprint { entries: [] }");
    assert_eq!(empty, HistoryFingerprint::new(vec![]));
}

/// `entries` through `try_new` and through the builder.
fn both(entries: Model) -> [Result<HistoryFingerprint, FingerprintError>; 2] {
    [via_builder(&entries), HistoryFingerprint::try_new(entries)]
}

#[test]
fn malformed_history_sets_are_refused_either_way_in_either_form() {
    use FingerprintError::{DuplicateVariable, EmptyHistory, UnorderedHistory};
    let v = |i: u32| VarId::new(i);
    let one = |i: u32| (v(i), seqnos(&[4]));
    for (entries, error) in [
        // The same variable twice: side by side, apart, and as the
        // fifth variable of a set too large to hold in place.
        (vec![one(3), one(3)], DuplicateVariable(v(3))),
        (vec![one(3), one(1), one(3)], DuplicateVariable(v(3))),
        (vec![one(0), one(1), one(2), one(3), one(2)], DuplicateVariable(v(2))),
        (
            vec![one(9), (v(7), seqnos(&[30, 29, 28, 27, 26, 25, 24])), one(9)],
            DuplicateVariable(v(9)),
        ),
        // A variable with no seqnos: alone, first, between and last.
        (vec![(v(3), vec![])], EmptyHistory(v(3))),
        (vec![(v(1), vec![]), one(2)], EmptyHistory(v(1))),
        (vec![one(1), (v(2), vec![]), one(3)], EmptyHistory(v(2))),
        (vec![one(0), one(1), one(2), one(3), one(4), (v(5), vec![])], EmptyHistory(v(5))),
        // Seqnos that rise or repeat: at once, and at the eighth.
        (vec![(v(3), seqnos(&[2, 3]))], UnorderedHistory(v(3))),
        (vec![(v(3), seqnos(&[2, 2]))], UnorderedHistory(v(3))),
        (vec![one(1), (v(3), seqnos(&[9, 8, 7, 6, 5, 4, 3, 3]))], UnorderedHistory(v(3))),
        (vec![(v(3), seqnos(&[9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 5]))], UnorderedHistory(v(3))),
    ] {
        for result in both(entries.clone()) {
            assert_eq!(result, Err(error), "{entries:?}");
        }
    }
    // Order between variables is not an error, and neither is a seqno
    // of one variable above a seqno of the variable before it.
    for entries in [
        vec![(v(2), seqnos(&[1])), (v(1), seqnos(&[5, 4]))],
        vec![(v(1), seqnos(&[1])), (v(2), seqnos(&[5, 4]))],
        (0..7).rev().map(|i| (v(i), seqnos(&[u64::from(i) + 1]))).collect(),
    ] {
        let mut sorted = entries.clone();
        sorted.sort();
        for result in both(entries.clone()) {
            let fp = result.expect("well-formed");
            assert_eq!(fp.iter().map(|(v, s)| (v, s.to_vec())).collect::<Model>(), sorted);
        }
    }
}

#[test]
#[should_panic(expected = "duplicate variable v3 in fingerprint")]
fn new_panics_with_the_error_text() {
    HistoryFingerprint::new(vec![(VarId::new(3), seqnos(&[1])), (VarId::new(3), seqnos(&[2]))]);
}

#[test]
fn ordering_is_by_entries_not_by_size() {
    // A longer history set is not a larger one: the first differing
    // variable or seqno decides, as for the lists.
    let fp = |entries: &[(u32, &[u64])]| {
        HistoryFingerprint::new(entries.iter().map(|(v, s)| (VarId::new(*v), seqnos(s))).collect())
    };
    let deep = fp(&[(0, &[9, 8, 7, 6, 5, 4, 3])]);
    assert_eq!(fp(&[(0, &[9, 8, 7, 6, 5, 4])]).cmp(&deep), Ordering::Less, "a prefix");
    assert_eq!(fp(&[(0, &[10])]).cmp(&deep), Ordering::Greater, "a newer newest seqno");
    assert_eq!(fp(&[(1, &[1])]).cmp(&deep), Ordering::Greater, "a higher first variable");
    assert_eq!(fp(&[]).cmp(&deep), Ordering::Less, "nothing");
    let wide = fp(&[(0, &[1]), (1, &[1]), (2, &[1]), (3, &[1]), (4, &[1])]);
    assert_eq!(fp(&[(0, &[1]), (1, &[1]), (2, &[1]), (3, &[1])]).cmp(&wide), Ordering::Less);
    assert_eq!(fp(&[(0, &[1]), (1, &[2])]).cmp(&wide), Ordering::Greater);
}
