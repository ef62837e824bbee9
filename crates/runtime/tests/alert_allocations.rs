//! What one alert costs the allocator, counted in calls and in the
//! bytes they ask for: raising it (by shape, on both sides of the
//! in-place limit), encoding it, decoding it, crossing the codec in
//! process (a 2 × 2 alert and a 2 × 16 one), decoding a
//! frame that lies about its counts, and sending an update down an
//! in-process front link — and what a whole in-process run retains of
//! it: one body, shared by the CE's record, the AD's arrivals and its
//! display. A binary of its own because the counter is the process's
//! `#[global_allocator]`; counts are per thread, so the harness's own
//! threads cannot disturb them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

use rcm_core::ad::{Ad6, PerCondition};
use rcm_core::condition::expr::CompiledCondition;
use rcm_core::{Alert, CeId, CondId, ConditionRegistry, Update, VarRegistry};
use rcm_net::{Bernoulli, Lossless};
use rcm_runtime::wire::{self, Codec, Message};
use rcm_runtime::{FrontLink, MonitorSystem, VarFeed};

thread_local! {
    /// What this thread asked the allocator for, and gave back.
    static ASKED: Cell<Asked> = const { Cell::new(Asked { calls: 0, bytes: 0, frees: 0, freed: 0 }) };
}

/// What a stretch of work asked the allocator for: calls to `alloc`,
/// `alloc_zeroed` and `realloc` and the bytes they asked for (a
/// `realloc` its new size); calls to `dealloc` and the bytes they
/// returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Asked {
    calls: u64,
    bytes: u64,
    frees: u64,
    freed: u64,
}

/// The system allocator, counting the calls that ask it for memory.
struct Counting;

/// Adds one call of `size` bytes: an ask, or a return if `freed`.
fn count(size: usize, freed: bool) {
    // A thread that is tearing its locals down is not one under test.
    let _ = ASKED.try_with(|n| {
        let mut asked = n.get();
        let (calls, bytes) = if freed {
            (&mut asked.frees, &mut asked.freed)
        } else {
            (&mut asked.calls, &mut asked.bytes)
        };
        *calls += 1;
        *bytes += size as u64;
        n.set(asked);
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller upholds; the counter is a
// const-initialised thread-local `Cell`, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), false);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), false);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, false);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(layout.size(), true);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// What `work` asked the allocator for.
fn allocations<T>(work: impl FnOnce() -> T) -> (Asked, T) {
    let before = ASKED.get();
    let out = work();
    let after = ASKED.get();
    let asked = Asked {
        calls: after.calls - before.calls,
        bytes: after.bytes - before.bytes,
        frees: after.frees - before.frees,
        freed: after.freed - before.freed,
    };
    (asked, out)
}

/// The block an alert's body takes: two refcounts and the body, which
/// holds up to 4 seqnos and their values in place.
const BODY_BLOCK: u64 = 16 + std::mem::size_of::<rcm_core::AlertBody>() as u64;

/// A condition over `vars` variables (`v0`, `v1`, …) reading `degree`
/// updates of each, true of every reading.
fn shaped(vars: usize, degree: usize) -> String {
    let terms: Vec<String> = (0..vars)
        .flat_map(|v| (0..degree).map(move |d| format!("v{v}[{}].value", -(d as i64))))
        .collect();
    format!("{} > -1", terms.join(" + "))
}

/// Alert shapes (variables, seqnos per variable) and whether the body
/// holds them in place: every shape the benchmark workloads raise but
/// the 2 × 16 (1 × 1, 2 × 2), both edges of the limit (1 × 4, 4 × 1)
/// and the shapes one past it (1 × 5, 2 × 3, and TRIVAR's aggressive
/// 3 × 2).
const SHAPES: [(usize, usize, bool); 7] = [
    (1, 1, true),
    (2, 2, true),
    (1, 4, true),
    (4, 1, true),
    (1, 5, false),
    (2, 3, false),
    (3, 2, false),
];

#[test]
fn raising_an_alert_asks_for_its_body_alone_up_to_four_seqnos() {
    #[cfg(target_pointer_width = "64")]
    assert_eq!(BODY_BLOCK, 136, "two refcounts and a 120-byte body");
    for (nvars, degree, in_place) in SHAPES {
        let shape = format!("{nvars} x {degree}");
        let mut vars = VarRegistry::new();
        let mut registry = ConditionRegistry::new(CeId::new(0));
        let condition = CompiledCondition::compile(&shaped(nvars, degree), &mut vars);
        registry.add_compiled(condition.expect("compiles"));
        let ids: Vec<_> =
            (0..nvars).map(|v| vars.lookup(&format!("v{v}")).expect("named")).collect();
        // Rounds past the deepest history, so every ring is full and
        // drops its oldest update rather than growing.
        let mut out = Vec::with_capacity(64);
        for seqno in 1..=degree as u64 + 2 {
            for &var in &ids {
                registry.ingest(Update::new(var, seqno, 1.0), &mut out);
            }
        }
        assert!(!out.is_empty(), "{shape}: the condition is defined and true");
        out.clear();

        let next = Update::new(ids[0], degree as u64 + 3, 1.0);
        let (raised, ()) = allocations(|| registry.ingest(next, &mut out));
        let alert = out.pop().expect("one alert");
        assert!(out.is_empty(), "{shape}");
        let held: Vec<usize> = alert.fingerprint.iter().map(|(_, s)| s.len()).collect();
        assert_eq!(held, vec![degree; nvars], "{shape}");
        assert_eq!(alert.snapshot.len(), nvars * degree, "{shape}");

        // In place: the body's block and nothing else. Past the limit:
        // the body, the fingerprint's heads and seqnos, and the values,
        // each block exactly its size.
        let seqnos = (nvars * degree) as u64;
        let blocks = if in_place {
            vec![BODY_BLOCK]
        } else {
            vec![BODY_BLOCK, (nvars as u64 + seqnos) * 8, seqnos * 8]
        };
        let asked = (raised.calls, raised.bytes);
        assert_eq!(asked, (blocks.len() as u64, blocks.iter().sum()), "{shape}: {raised:?}");
        let (dropped, ()) = allocations(|| drop(alert));
        assert_eq!((dropped.frees, dropped.freed), asked, "{shape}: {dropped:?}");
    }
}

/// `alert_storm`'s condition (benchmark/src/workloads.rs): two
/// variables, degree 2 each, true of every reading.
const STORM: &str = "v0[0].value + v0[-1].value + v1[0].value + v1[-1].value > -1";

/// A registry hosting [`STORM`] with both histories defined, and the
/// alert its next update raises.
fn storm_alert() -> Alert {
    let mut vars = VarRegistry::new();
    let mut registry = ConditionRegistry::new(CeId::new(0));
    registry.add_compiled(CompiledCondition::compile(STORM, &mut vars).expect("compiles"));
    let (v0, v1) = (vars.lookup("v0").expect("v0"), vars.lookup("v1").expect("v1"));
    let mut out = Vec::with_capacity(8);
    for seqno in 1..=3 {
        registry.ingest(Update::new(v0, seqno, 1.0), &mut out);
        registry.ingest(Update::new(v1, seqno, 1.0), &mut out);
    }
    assert_eq!(out.len(), 3, "defined since the second v1, one alert per update after it");
    out.clear();

    let (raised, ()) = allocations(|| registry.ingest(Update::new(v0, 4, 1.0), &mut out));
    assert_eq!(out.len(), 1);
    assert_eq!(raised.calls, 1, "raising a 2 x 2 alert allocates its body and nothing else");
    assert!(raised.bytes <= 136, "the body's block is {} bytes", raised.bytes);
    assert_eq!(raised.bytes, BODY_BLOCK);
    out.pop().expect("one alert")
}

/// `eval_fanout`'s condition shape (benchmark/src/workloads.rs): two
/// variables, a window of 16 each, here true of every reading.
const FANOUT: &str = "avg_over(v0, 16) - avg_over(v1, 16) > -1000";

#[test]
fn a_two_by_sixteen_alert_asks_for_its_body_seqnos_and_values_alone() {
    let mut vars = VarRegistry::new();
    let mut registry = ConditionRegistry::new(CeId::new(0));
    registry.add_compiled(CompiledCondition::compile(FANOUT, &mut vars).expect("compiles"));
    let (v0, v1) = (vars.lookup("v0").expect("v0"), vars.lookup("v1").expect("v1"));
    let mut out = Vec::with_capacity(64);
    for seqno in 1..=16 {
        registry.ingest(Update::new(v0, seqno, 1.0), &mut out);
        registry.ingest(Update::new(v1, seqno, 1.0), &mut out);
    }
    assert_eq!(out.len(), 1, "defined from the sixteenth v1 on");
    out.clear();

    let (raised, ()) = allocations(|| registry.ingest(Update::new(v0, 17, 1.0), &mut out));
    let alert = out.pop().expect("one alert");
    assert_eq!(alert.fingerprint.iter().map(|(_, s)| s.len()).collect::<Vec<_>>(), [16, 16]);
    assert_eq!(alert.snapshot.len(), 32);
    // What the alert holds is what its last handle gives back: the
    // body, the fingerprint's 2 heads and 32 seqnos, the 32 values —
    // 136 + 272 + 256 bytes in three blocks.
    let (dropped, ()) = allocations(|| drop(alert));
    assert_eq!(dropped.frees, 3, "{dropped:?}");
    assert!(dropped.freed <= 664, "{dropped:?}");
    assert_eq!(dropped.freed, BODY_BLOCK + 34 * 8 + 32 * 8);
    // And raising it asked for exactly those three blocks: the spilled
    // fingerprint is sized once from its word count, and the full `v0`
    // ring drops its oldest update before taking the new one instead
    // of growing.
    assert_eq!((raised.calls, raised.bytes), (3, dropped.freed), "{raised:?}");

    // Crossing it in process asks for the same three blocks and gives
    // them back: the decoder sizes the spilled fingerprint from a skim
    // of its counts, so its builder never grows, and reads the 32
    // values straight into one exact slice. The frame: 9 header bytes,
    // tag, cond, ce, index, 2 variables of a head and 16 one-byte
    // seqnos each, the count and 32 × 8 value bytes.
    registry.ingest(Update::new(v1, 17, 1.0), &mut out);
    let msg = Message::Alert(out.pop().expect("the next update raises another"));
    let mut frame = Vec::new();
    wire::cross_in(&mut frame, &msg);
    assert_eq!(frame.len(), 9 + 4 + 1 + 2 * (2 + 16) + 1 + 32 * 8);
    let (crossed, ()) = allocations(|| wire::cross_in(&mut frame, &msg));
    assert_eq!(
        (crossed.calls, crossed.bytes, crossed.frees, crossed.freed),
        (3, dropped.freed, 3, dropped.freed),
        "{crossed:?}"
    );
}

#[test]
fn an_alert_costs_one_allocation_to_raise_none_to_encode_and_one_to_decode() {
    let alert = storm_alert();
    assert_eq!(alert.fingerprint.iter().map(|(_, s)| s.len()).collect::<Vec<_>>(), [2, 2]);
    assert_eq!(alert.snapshot.len(), 4);

    let (cloned, copy) = allocations(|| alert.clone());
    assert_eq!(cloned.calls, 0, "a clone shares the body");

    let msg = Message::Alert(copy);
    let mut frame = Vec::new();
    wire::encode_into(Codec::Binary, &msg, &mut frame).expect("encodes");
    frame.clear();
    let (encoded, result) = allocations(|| wire::encode_into(Codec::Binary, &msg, &mut frame));
    result.expect("encodes");
    assert_eq!(encoded.calls, 0, "encoding into a buffer that has held the frame before");

    // 9 header bytes, tag, cond, ce, index, 2 variables of a head and
    // 2 one-byte seqnos each, the count and 4 × 8 value bytes.
    assert_eq!(frame.len(), 9 + 4 + 1 + 2 * (2 + 2) + 1 + 4 * 8);
    let (decoded, back) = allocations(|| wire::decode_datagram(&frame));
    let Ok(Message::Alert(back)) = back else { panic!("own frame decodes to an alert") };
    let body = (1, BODY_BLOCK);
    let decoded = (decoded.calls, decoded.bytes);
    assert_eq!(decoded, body, "decoding allocates the body, snapshot in place, and nothing else");
    assert_eq!((&back, back.id), (&alert, alert.id));
    assert!(back.updates().eq(alert.updates()));

    let (crossed, ()) = allocations(|| wire::cross_in(&mut frame, &msg));
    let crossed = (crossed.calls, crossed.bytes, crossed.frees);
    assert_eq!(
        crossed,
        (1, BODY_BLOCK, 1),
        "crossing in process: the decoded body, checked and dropped"
    );
}

#[test]
fn a_count_the_payload_cannot_hold_sizes_nothing() {
    // Framed as the encoder frames (the checksum is FNV-1a), alert
    // payloads of cond 0, ce 0, index 0 that lie: 2^63 variables,
    // one variable of 2^63 seqnos, and one variable of two seqnos
    // followed by 2^60 values. Each is refused having asked the
    // allocator for nothing; the last, whose fingerprint is held in
    // place, before sizing a single value.
    let frame = |payload: &[u8]| {
        let sum = payload
            .iter()
            .fold(0x811c_9dc5u32, |h, &b| (h ^ u32::from(b)).wrapping_mul(0x0100_0193));
        let mut frame = vec![wire::BINARY_WIRE_VERSION];
        frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        frame.extend_from_slice(&sum.to_be_bytes());
        frame.extend_from_slice(payload);
        frame
    };
    let huge = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
    let nsnap = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10];
    let lies = [
        [&[1, 0, 0, 0][..], &huge].concat(),
        [&[1, 0, 0, 0, 1, 7][..], &huge].concat(),
        [&[1, 0, 0, 0, 1, 7, 2, 9, 8][..], &nsnap, &[0; 16]].concat(),
    ];
    for payload in lies {
        let raw = frame(&payload);
        let (asked, got) = allocations(|| wire::decode_datagram(&raw));
        assert!(matches!(got, Err(wire::WireError::Malformed { .. })), "{payload:?}: {got:?}");
        assert_eq!(asked.calls, 0, "{payload:?}");
    }
}

#[test]
fn an_in_process_run_keeps_one_body_per_alert() {
    // alert_storm in miniature: STORM over two fed variables, three
    // replicas whose inputs diverge under 10% front loss, AD-6 per
    // condition.
    let mut vars = VarRegistry::new();
    let storm = CompiledCondition::compile(STORM, &mut vars).expect("compiles");
    let (v0, v1) = (vars.lookup("v0").expect("v0"), vars.lookup("v1").expect("v1"));
    let readings = |k: u64| -> Vec<f64> { (0..300).map(|i| ((i * 37 + k) % 100) as f64).collect() };
    let report = MonitorSystem::builder(Arc::new(storm))
        .replicas(3)
        .feed(VarFeed::new(v0, readings(0)))
        .feed(VarFeed::new(v1, readings(1)))
        .loss(|_, _| Box::new(Bernoulli::new(0.1)))
        .filter(|vars| {
            let vars = vars.to_vec();
            Box::new(PerCondition::new(move |_: CondId| Ad6::new(vars.iter().copied())))
        })
        .seed(7)
        .start()
        .expect("starts")
        .wait();
    assert!(report.links.iter().any(|(_, l)| l.dropped > 0), "the replicas' inputs diverge");
    assert!(report.displayed.len() > 10 && report.arrivals.len() > report.displayed.len());

    // By replica, then (cond, id): what `emitted[id.ce]` recorded.
    let emitted: HashMap<_, &Alert> = report
        .emitted
        .iter()
        .enumerate()
        .flat_map(|(ce, alerts)| alerts.iter().map(move |a| ((ce, a.cond, a.id), a)))
        .collect();
    for a in &report.arrivals {
        let sent = emitted[&(a.id.ce.index() as usize, a.cond, a.id)];
        assert!(Alert::ptr_eq(a, sent), "arrival {} kept a copy", a.id);
    }
    let arrived: HashMap<_, &Alert> = report.arrivals.iter().map(|a| ((a.cond, a.id), a)).collect();
    for d in &report.displayed {
        let arrival = arrived[&(d.cond, d.id)];
        assert!(Alert::ptr_eq(d, arrival), "displayed {} kept a copy", d.id);
    }
}

#[test]
fn a_front_link_send_allocates_only_what_its_channel_does() {
    const SENDS: u64 = 500;
    let update = |seqno| Update::new(rcm_core::VarId::new(0), seqno, 0.5);

    // What the channel itself asks for over that many messages.
    let (tx, rx) = rcm_sync::chan::unbounded();
    tx.send(update(0)).expect("receiver is alive");
    let (bare, ()) = allocations(|| {
        for seqno in 1..=SENDS {
            tx.send(update(seqno)).expect("receiver is alive");
        }
    });
    drop(rx);

    let (tx, rx) = rcm_sync::chan::unbounded();
    let mut link = FrontLink::new(tx, Box::new(Lossless), 7);
    assert!(link.send(update(0)), "the first send sizes the link's frame buffer");
    let (linked, ()) = allocations(|| {
        for seqno in 1..=SENDS {
            assert!(link.send(update(seqno)));
        }
    });
    assert_eq!(rx.try_iter().count() as u64, SENDS + 1);
    assert_eq!(linked.calls, bare.calls, "{SENDS} sends through the codec and the link's frame");
}
