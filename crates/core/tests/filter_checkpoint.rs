//! Durable Alert Displayers: every AD algorithm's state checkpoints to
//! JSON, so an AD can checkpoint, restart, and keep filtering exactly
//! where it left off — the paper's AD never forgets what it displayed,
//! which the consistency guarantees depend on.

use rcm_core::ad::{Ad1, Ad1Digest, Ad2, Ad3, Ad4, Ad5, Ad6, AlertFilter, Decision};
use rcm_core::{Alert, AlertId, CeId, CondId, HistoryFingerprint, SeqNo, VarId};
use rcm_json::Json;

fn x() -> VarId {
    VarId::new(0)
}
fn y() -> VarId {
    VarId::new(1)
}

fn alert(seqnos: &[u64]) -> Alert {
    Alert::new(
        CondId::SINGLE,
        HistoryFingerprint::single(x(), seqnos.iter().map(|&s| SeqNo::new(s)).collect()),
        vec![],
        AlertId { ce: CeId::new(0), index: 0 },
    )
}

fn alert2(xs: u64, ys: u64) -> Alert {
    Alert::new(
        CondId::SINGLE,
        HistoryFingerprint::new(vec![(x(), vec![SeqNo::new(xs)]), (y(), vec![SeqNo::new(ys)])]),
        vec![],
        AlertId { ce: CeId::new(0), index: 0 },
    )
}

/// Runs `first` through the filter, snapshots it through JSON text, and
/// checks the restored filter makes the same decisions on `second` as
/// the uninterrupted original — and that its own snapshot reads the
/// same as the original's did.
fn checkpoint_roundtrip<F: AlertFilter>(
    mut filter: F,
    to_json: fn(&F) -> Json,
    from_json: fn(&Json) -> rcm_json::Result<F>,
    first: &[Alert],
    second: &[Alert],
) {
    for a in first {
        filter.offer(a);
    }
    let snapshot = rcm_json::parse(&to_json(&filter).to_string()).expect("snapshot is JSON");
    let mut restored = from_json(&snapshot).expect("state restores");
    assert_eq!(sorted(&to_json(&restored)), sorted(&snapshot), "{}", filter.name());
    let live: Vec<Decision> = second.iter().map(|a| filter.offer(a)).collect();
    let resumed: Vec<Decision> = second.iter().map(|a| restored.offer(a)).collect();
    assert_eq!(live, resumed, "{} diverged after restore", filter.name());
}

/// A snapshot with every array sorted by its text: `seen` sets are
/// written in hash order, which a restored set need not repeat.
fn sorted(j: &Json) -> Json {
    match j {
        Json::Arr(items) => {
            let mut items: Vec<Json> = items.iter().map(sorted).collect();
            items.sort_by_key(Json::to_string);
            Json::Arr(items)
        }
        Json::Obj(pairs) => Json::Obj(pairs.iter().map(|(k, v)| (k.clone(), sorted(v))).collect()),
        other => other.clone(),
    }
}

#[test]
fn all_single_var_filters_checkpoint() {
    let first = vec![alert(&[3, 1]), alert(&[5, 4])];
    let second = vec![
        alert(&[3, 1]),    // duplicate of a displayed alert
        alert(&[4, 3, 2]), // conflicts (2 is in Missed)
        alert(&[2, 1]),    // out of order
        alert(&[7, 6]),    // fresh
    ];
    checkpoint_roundtrip(Ad1::new(), Ad1::to_json, Ad1::from_json, &first, &second);
    checkpoint_roundtrip(
        Ad1Digest::new(),
        Ad1Digest::to_json,
        Ad1Digest::from_json,
        &first,
        &second,
    );
    checkpoint_roundtrip(Ad2::new(x()), Ad5::to_json, Ad5::from_json, &first, &second);
    checkpoint_roundtrip(Ad3::new([x()]), Ad3::to_json, Ad3::from_json, &first, &second);
    checkpoint_roundtrip(Ad4::new(x()), Ad6::to_json, Ad6::from_json, &first, &second);
}

#[test]
fn multi_var_filters_checkpoint() {
    let first = vec![alert2(1, 2), alert2(3, 2)];
    let second = vec![alert2(2, 1), alert2(3, 2), alert2(4, 4)];
    let vars = [x(), y()];
    checkpoint_roundtrip(Ad5::new(vars), Ad5::to_json, Ad5::from_json, &first, &second);
    checkpoint_roundtrip(Ad6::new(vars), Ad6::to_json, Ad6::from_json, &first, &second);
    checkpoint_roundtrip(Ad3::new(vars), Ad3::to_json, Ad3::from_json, &first, &second);
}

#[test]
fn malformed_snapshots_are_refused() {
    let bad = |text: &str| rcm_json::parse(text).expect("test input is JSON");
    // A fingerprint no constructor would build, inside a seen set.
    let smuggled = bad(
        r#"{"seen":[{"cond":0,"fingerprint":{"entries":[[0,[2,3]]]},"snapshot":[],"id":{"ce":0,"index":0}}]}"#,
    );
    assert!(Ad1::from_json(&smuggled).is_err());
    assert!(Ad5::from_json(&bad(r#"{"var":0}"#)).is_err());
    assert!(Ad5::from_json(&bad(r#"{"last":[[0,-1]]}"#)).is_err());
    assert!(Ad5::from_json(&bad(r#"{"last":[]}"#)).is_err(), "no variables");
    assert!(Ad5::from_json(&bad(r#"{"last":[[0,null],[0,1]]}"#)).is_err(), "x twice");
    // Halves that disagree on what they watch.
    let mut ad4 = Ad4::new(x()).to_json();
    let Json::Obj(pairs) = &mut ad4 else { unreachable!() };
    pairs[0].1 = Ad2::new(y()).to_json();
    assert!(Ad6::from_json(&ad4).is_err());
    let mut ad6 = Ad6::new([x(), y()]).to_json();
    let Json::Obj(pairs) = &mut ad6 else { unreachable!() };
    pairs[0].1 = Ad5::new([x()]).to_json();
    assert!(Ad6::from_json(&ad6).is_err());
}

#[test]
fn restored_ad3_remembers_missed_set() {
    // The crucial case: consistency depends on remembering what was
    // declared missed *before* the restart.
    let mut ad = Ad3::new([x()]);
    assert!(ad.offer(&alert(&[3, 1])).is_deliver()); // Missed = {2}
    let snapshot = ad.to_json().to_string();
    let mut restored = Ad3::from_json(&rcm_json::parse(&snapshot).unwrap()).unwrap();
    assert!(
        !restored.offer(&alert(&[3, 2])).is_deliver(),
        "restart must not forget that update 2 was missed"
    );
    let witness: Vec<u64> = restored.received(x()).map(|s| s.get()).collect();
    assert_eq!(witness, vec![1, 3]);
}

#[test]
fn snapshot_is_plain_json() {
    let mut ad = Ad2::new(x());
    ad.offer(&alert(&[5]));
    let snapshot = ad.to_json().to_string();
    assert_eq!(snapshot, r#"{"last":[[0,5]]}"#, "watermark visible");
}

#[test]
fn ad4_checkpoint_does_not_grow_with_the_run() {
    // A gap-free run is one received run and no missed one; nothing in
    // the state is per displayed alert.
    let mut ad = Ad4::new(x());
    for s in 1..=10_000 {
        assert!(ad.offer(&alert(&[s + 1, s])).is_deliver());
    }
    let want = concat!(
        r#"{"ordered":{"last":[[0,10001]]},"#,
        r#""consistency":[[0,{"received":{"runs":[[1,10001]]},"missed":{"runs":[]}}]]}"#
    );
    assert_eq!(ad.to_json().to_string(), want);
}
