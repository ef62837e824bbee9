//! Hop probes: cross-thread layers cannot be replayed single-threaded,
//! so each is timed through its public API over many hand-offs.
//!
//! A *hand-off* probe is a ping-pong: the sender stamps the time, hands
//! one item over, and waits for the receiver's reply before sending the
//! next, so the receiver is parked every time — the state an actor is in
//! when an update reaches it below saturation. The reported figure is the
//! median stamp-to-receipt time. A *cost* probe times a same-thread
//! operation in a tight loop and reports the mean.

use std::net::{TcpListener, UdpSocket};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rcm_core::condition::expr::CompiledCondition;
use rcm_core::condition::Condition;
use rcm_core::{
    Alert, AlertId, CeId, CondId, HistoryFingerprint, LatencyHistogram, SeqNo, Update, VarId,
    VarRegistry,
};
use rcm_net::Backoff;
use rcm_poll::{Interest, Poller, TimerWheel, Token, Wake};
use rcm_runtime::{AlertDrain, EvalPipeline, PipelineOptions};
use rcm_sync::chan::{unbounded, Sender};
use rcm_sync::{spsc, Mutex};
use rcm_transport::{
    BackLinkSpec, EventLoop, TcpAlertListener, TcpBackLink, UdpFrontLink, UdpFrontReceiver,
};

use crate::metrics::Metric;
use crate::stats::percentile;

/// Timed hand-offs per hop probe.
pub const HANDOFFS: usize = 20_000;
/// A hop probe stops early once it has run this long, provided it has
/// timed at least `MIN_HANDOFFS`: the thread-per-socket TCP back link
/// takes over a millisecond per hop, and 20 000 of those would outlast
/// the rest of the traced run.
const HOP_BUDGET: Duration = Duration::from_secs(2);
const MIN_HANDOFFS: usize = 1_000;
/// Iterations per same-thread cost probe.
const COST_ITERS: u64 = 400_000;

/// Runs every probe; each result carries its per-layer metric's name.
pub fn run_all() -> Vec<Metric> {
    let (dispatch_ns, dispatch_to_drain_us) = pipeline();
    let (schedule_cancel_ns, advance_ns) = timer();
    vec![
        Metric::new("sync.chan.send_recv_ns", chan_send_recv(), "ns"),
        Metric::new("sync.chan.handoff_us", chan_handoff(), "us"),
        Metric::new("sync.mutex.lock_ns", mutex_lock(), "ns"),
        Metric::new("sync.spsc.push_pop_ns", spsc_push_pop(), "ns"),
        Metric::new("sync.spsc.handoff_us", spsc_handoff(), "us"),
        Metric::new("runtime.pipeline.dispatch_ns", dispatch_ns, "ns"),
        Metric::new("runtime.pipeline.dispatch_to_drain_us", dispatch_to_drain_us, "us"),
        Metric::new("poll.poller.wake_us", poller_wake(), "us"),
        Metric::new("poll.poller.wait_ready_ns", poller_wait_ready(), "ns"),
        Metric::new("poll.timer.schedule_cancel_ns", schedule_cancel_ns, "ns"),
        Metric::new("poll.timer.advance_ns", advance_ns, "ns"),
        Metric::new("transport.engine.front_hop_us", engine_front_hop(), "us"),
        Metric::new("transport.engine.back_hop_us", engine_back_hop(), "us"),
        Metric::new("transport.threaded.front_hop_us", threaded_front_hop(), "us"),
        Metric::new("transport.threaded.back_hop_us", threaded_back_hop(), "us"),
    ]
}

/// Mean nanoseconds per iteration of `op`.
fn cost_ns(iters: u64, mut op: impl FnMut(u64)) -> f64 {
    let begun = Instant::now();
    for i in 0..iters {
        op(i);
    }
    begun.elapsed().as_nanos() as f64 / iters as f64
}

/// Median of hand-off times, microseconds.
fn median_us(mut samples: Vec<u64>) -> f64 {
    assert!(samples.len() >= MIN_HANDOFFS, "only {} hand-offs were timed", samples.len());
    samples.sort_unstable();
    percentile(&samples, 0.5) as f64 / 1e3
}

/// Ping-pong driver: `hand_over` stamps and sends item `i`; the far side
/// answers on `receipts` with the instant it got the item.
fn ping_pong(
    receipts: &rcm_sync::chan::Receiver<Instant>,
    mut hand_over: impl FnMut(u64),
) -> Vec<u64> {
    let begun = Instant::now();
    let mut samples = Vec::with_capacity(HANDOFFS);
    for i in 0..HANDOFFS as u64 {
        if samples.len() >= MIN_HANDOFFS && begun.elapsed() > HOP_BUDGET {
            break;
        }
        let sent = Instant::now();
        hand_over(i);
        let received = receipts.recv().expect("the far side answers every hand-off");
        samples.push(received.saturating_duration_since(sent).as_nanos() as u64);
    }
    samples
}

fn chan_send_recv() -> f64 {
    let (tx, rx) = unbounded();
    cost_ns(COST_ITERS, |i| {
        tx.send(i).expect("receiver is alive");
        std::hint::black_box(rx.recv().expect("just sent"));
    })
}

fn chan_handoff() -> f64 {
    let (tx, rx) = unbounded::<u64>();
    let (receipt_tx, receipts) = unbounded();
    let far = std::thread::spawn(move || {
        for _ in rx {
            let _ = receipt_tx.send(Instant::now());
        }
    });
    let samples = ping_pong(&receipts, |i| tx.send(i).expect("far side is alive"));
    drop(tx);
    far.join().expect("far side exits cleanly");
    median_us(samples)
}

fn mutex_lock() -> f64 {
    let m = Mutex::new(0u64);
    cost_ns(COST_ITERS, |i| *m.lock() = std::hint::black_box(i))
}

fn spsc_push_pop() -> f64 {
    let (tx, rx) = spsc::ring(1024);
    cost_ns(COST_ITERS, |i| {
        tx.push(i).expect("ring has room");
        std::hint::black_box(rx.try_pop().expect("just pushed"));
    })
}

fn spsc_handoff() -> f64 {
    let (tx, rx) = spsc::ring::<u64>(1024);
    let (receipt_tx, receipts) = unbounded();
    let far = std::thread::spawn(move || {
        while rx.pop().is_some() {
            let _ = receipt_tx.send(Instant::now());
        }
    });
    let samples = ping_pong(&receipts, |i| tx.push(i).expect("ring has room"));
    drop(tx);
    far.join().expect("far side exits cleanly");
    median_us(samples)
}

/// Reports when each merged round reaches the sequencer's drain.
struct StampDrain(Sender<Instant>);

impl AlertDrain for StampDrain {
    fn alerts(&mut self, _alerts: Vec<Alert>) {
        let _ = self.0.send(Instant::now());
    }
    fn end_of_stream(&mut self) {}
}

/// `EvalPipeline::dispatch` cost, and dispatch -> drain time through two
/// shard workers and the sequencer, on one always-true condition.
fn pipeline() -> (f64, f64) {
    let mut vars = VarRegistry::new();
    let cond = CompiledCondition::compile("x[0].value > -1", &mut vars).expect("probe condition");
    let x = vars.lookup("x").expect("x is registered");
    let conditions: Vec<Arc<dyn Condition>> = vec![Arc::new(cond)];
    let (receipt_tx, receipts) = unbounded();
    let mut pipe = EvalPipeline::start(
        CeId::new(0),
        &conditions,
        &PipelineOptions::with_workers(2),
        Box::new(StampDrain(receipt_tx)),
        Arc::new(LatencyHistogram::new()),
        Arc::new(AtomicU64::new(0)),
    );
    let mut dispatch_ns = 0u64;
    let samples = ping_pong(&receipts, |i| {
        let begun = Instant::now();
        pipe.dispatch(Update::new(x, i + 1, 1.0));
        dispatch_ns += begun.elapsed().as_nanos() as u64;
    });
    pipe.finish();
    (dispatch_ns as f64 / samples.len() as f64, median_us(samples))
}

fn poller_wake() -> f64 {
    let mut poller = Poller::new().expect("poller");
    let waker = poller.waker();
    let stop = Arc::new(AtomicBool::new(false));
    let (receipt_tx, receipts) = unbounded();
    let far = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut events = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                poller.wait(&mut events, None).expect("poller wait");
                let _ = receipt_tx.send(Instant::now());
            }
        })
    };
    let samples = ping_pong(&receipts, |_| waker.wake());
    stop.store(true, Ordering::SeqCst);
    waker.wake();
    far.join().expect("far side exits cleanly");
    median_us(samples)
}

/// `Poller::wait` when a registered socket is already readable: the
/// loop's cost per wake-up when it never has to sleep.
fn poller_wait_ready() -> f64 {
    let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
    sock.send_to(&[1], sock.local_addr().expect("addr")).expect("send to self");
    let mut poller = Poller::new().expect("poller");
    poller.register(sock.as_raw_fd(), Token(1), Interest::READ).expect("register");
    let mut events = Vec::new();
    cost_ns(COST_ITERS / 4, |_| {
        let n = poller.wait(&mut events, Some(Duration::ZERO)).expect("poller wait");
        assert_eq!(n, 1, "the pending datagram keeps the socket readable");
    })
}

/// Schedule-then-cancel pairs, and `advance` over one tick with a few
/// idle backstops armed - what the event loop pays per wake-up.
fn timer() -> (f64, f64) {
    let start = Instant::now();
    let tick = Duration::from_millis(1);
    let mut wheel = TimerWheel::new(start, tick, 512);
    let mut fired = Vec::new();
    let mut now = start;
    let mut pair_ns = 0u128;
    let rounds = COST_ITERS / 1024;
    for _ in 0..rounds {
        let begun = Instant::now();
        for i in 0..1024 {
            let key = wheel.schedule_after(now, Duration::from_millis(50), i);
            std::hint::black_box(wheel.cancel(key));
        }
        pair_ns += begun.elapsed().as_nanos();
        // Cancelled entries are reclaimed when their bucket is visited.
        now += Duration::from_millis(600);
        wheel.advance(now, &mut fired);
    }
    for i in 0..8 {
        wheel.schedule_after(now, Duration::from_secs(3_600), i);
    }
    let advance_ns = cost_ns(COST_ITERS, |_| {
        now += tick;
        std::hint::black_box(wheel.advance(now, &mut fired));
    });
    assert!(fired.is_empty(), "no probe timer ever comes due");
    (pair_ns as f64 / (rounds * 1024) as f64, advance_ns)
}

fn probe_alert(index: u64) -> Alert {
    Alert::new(
        CondId::new(0),
        HistoryFingerprint::single(VarId::new(0), vec![SeqNo::new(index + 1)]),
        vec![Update::new(VarId::new(0), index + 1, 1.0)],
        AlertId { ce: CeId::new(0), index },
    )
}

fn probe_backoff() -> Backoff {
    Backoff::new(Duration::from_micros(200), Duration::from_millis(5), 11)
}

const IDLE: Duration = Duration::from_secs(30);

/// `UdpFrontLink::send_update` -> the evented ingress's deliver callback.
fn engine_front_hop() -> f64 {
    let mut el = EventLoop::new().expect("event loop");
    let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
    let addr = sock.local_addr().expect("addr");
    let (receipt_tx, receipts) = unbounded();
    el.add_front_ingress(sock, 1, IDLE, move |_| {
        let _ = receipt_tx.send(Instant::now());
    })
    .expect("register ingress");
    let engine = std::thread::spawn(move || el.run());
    let mut link = UdpFrontLink::connect(addr, 0).expect("connect");
    let samples = ping_pong(&receipts, |i| {
        assert!(link.send_update(Update::new(VarId::new(0), i + 1, 1.0)), "loopback accepts");
    });
    link.finish(3);
    engine.join().expect("loop thread");
    median_us(samples)
}

/// `EventedBackLink::send_alert` -> the evented listener's deliver
/// callback, both on one loop as in a single-process run.
fn engine_back_hop() -> f64 {
    let mut el = EventLoop::new().expect("event loop");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let (receipt_tx, receipts) = unbounded();
    el.add_alert_listener(listener, 1, IDLE, move |_| {
        let _ = receipt_tx.send(Instant::now());
    })
    .expect("register listener");
    let mut back =
        el.add_back_link(BackLinkSpec::new(addr, 0, probe_backoff())).expect("back link");
    let engine = std::thread::spawn(move || el.run());
    let samples = ping_pong(&receipts, |i| back.send_alert(probe_alert(i)));
    back.finish();
    engine.join().expect("loop thread");
    median_us(samples)
}

/// The same front hop on the thread-per-socket engine.
fn threaded_front_hop() -> f64 {
    let receiver = UdpFrontReceiver::bind("127.0.0.1:0".parse().expect("literal addr"))
        .expect("bind")
        .expected_fins(1)
        .idle_timeout(IDLE);
    let addr = receiver.local_addr().expect("addr");
    let (receipt_tx, receipts) = unbounded();
    let far = std::thread::spawn(move || {
        receiver.run(|_| {
            let _ = receipt_tx.send(Instant::now());
        });
    });
    let mut link = UdpFrontLink::connect(addr, 0).expect("connect");
    let samples = ping_pong(&receipts, |i| {
        assert!(link.send_update(Update::new(VarId::new(0), i + 1, 1.0)), "loopback accepts");
    });
    link.finish(3);
    far.join().expect("receiver thread");
    median_us(samples)
}

/// The same back hop on the thread-per-socket engine.
fn threaded_back_hop() -> f64 {
    let listener = TcpAlertListener::bind("127.0.0.1:0".parse().expect("literal addr"))
        .expect("bind")
        .expected_fins(1)
        .idle_timeout(IDLE);
    let addr = listener.local_addr().expect("addr");
    let (receipt_tx, receipts) = unbounded();
    let far = std::thread::spawn(move || {
        listener.run(|_| {
            let _ = receipt_tx.send(Instant::now());
        });
    });
    let mut back = TcpBackLink::connect(addr, 0, probe_backoff()).expect("connect");
    let samples = ping_pong(&receipts, |i| back.send_alert(probe_alert(i)));
    back.finish();
    far.join().expect("listener thread");
    median_us(samples)
}
