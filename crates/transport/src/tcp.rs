//! The TCP back link: CE → AD alerts over a real connection, lossless
//! across drops.
//!
//! The paper justifies a "TCP-like protocol" for back links: alert
//! traffic is light, the CE buffers alerts anyway, and losing an alert
//! is far worse than losing an update. A TCP connection gives in-order
//! bytes while it lives; when it dies — a scripted severance or a
//! genuine socket error — the link closes the stream and follows the
//! [`Outbox`] policy every back link shares: sends while down wait in
//! a bounded queue, and a reconnect, paced by a seeded
//! [`Backoff`](rcm_net::Backoff) schedule, re-sends the unacked tail
//! and then the queue in order. What is left here is the transport: a
//! blocking stream, a bounded connect per reconnect attempt, and a
//! `finish` that blocks until the queue is out.
//!
//! Every alert is its own `Alert` frame and its own stream write: a
//! back link carries little traffic, and an alert that waits for
//! company is a late alert.
//!
//! LOCK ORDER: no locks — both ends count into atomics.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

use rcm_core::Alert;
use rcm_net::Backoff;
use rcm_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use rcm_sync::chan::Sender;
use rcm_sync::time::{Duration, Instant};
use rcm_sync::Arc;

use crate::outbox::Outbox;
use crate::receive::{AlertFold, AlertStream, StreamEvent};
use crate::report::{BackLinkStats, ListenerStats};
use crate::wire::{self, Codec, Message};

/// Read-timeout tick for listener reader threads.
const RECV_TICK: Duration = Duration::from_millis(50);

/// How long [`TcpBackLink::finish`] keeps retrying a dead peer before
/// counting the queue as lost.
const RECONNECT_DEADLINE: Duration = Duration::from_secs(10);

/// Connect-attempt cap for *reconnects*. A bare `connect` can block
/// for the OS handshake timeout (minutes against a silently dropping
/// peer), which would stall the CE inside `send_alert`; reconnect
/// attempts are therefore bounded and paced by the backoff schedule
/// instead. The initial connect stays unbounded — a back link that
/// never existed is a deployment error worth waiting to discover.
const RECONNECT_CONNECT_CAP: Duration = Duration::from_millis(250);

/// The sending half of a back link: owns the connection to the AD, its
/// reconnects, and the link's [`Outbox`].
pub struct TcpBackLink {
    peer: SocketAddr,
    node: u32,
    stream: Option<TcpStream>,
    down: bool,
    next_attempt: Instant,
    backoff: Backoff,
    outbox: Outbox<Alert>,
    /// Reused frame-encode scratch buffer.
    frame: Vec<u8>,
    counters: Arc<BackLinkStats<AtomicU64>>,
}

impl std::fmt::Debug for TcpBackLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpBackLink")
            .field("peer", &self.peer)
            .field("down", &self.down)
            .field("outbox", &self.outbox)
            .field("stats", &self.counters.snapshot())
            .finish()
    }
}

impl TcpBackLink {
    /// Connects to the AD listener at `peer` and sends the Hello
    /// preamble; `node` is the CE replica index carried in Hello/Fin.
    ///
    /// # Errors
    ///
    /// Propagates the initial connect failure — a back link that never
    /// existed is a deployment error, not an outage to ride out.
    pub fn connect(peer: SocketAddr, node: u32, backoff: Backoff) -> io::Result<Self> {
        let mut stream = open_stream(peer, None)?;
        write_msg(&mut stream, &Message::Hello { node })?;
        let counters = Arc::new(BackLinkStats::default());
        Ok(TcpBackLink {
            peer,
            node,
            stream: Some(stream),
            down: false,
            next_attempt: Instant::now(),
            backoff,
            outbox: Outbox::new(Vec::new(), Arc::clone(&counters)),
            frame: Vec::new(),
            counters,
        })
    }

    /// Scripts severances as `(at_send, down_for)` pairs; see
    /// [`Outbox::new`].
    #[must_use]
    pub fn with_severs(mut self, severs: Vec<(u64, Duration)>) -> Self {
        self.outbox = Outbox::new(severs, Arc::clone(&self.counters));
        self
    }

    /// A handle for reading the link's counters after the CE thread
    /// has taken ownership of the link.
    pub fn counters(&self) -> Arc<BackLinkStats<AtomicU64>> {
        Arc::clone(&self.counters)
    }

    /// Sends one alert: transmitted immediately when connected, queued
    /// when down (a non-blocking reconnect attempt is made first if
    /// the backoff schedule allows one).
    pub fn send_alert(&mut self, alert: Alert) {
        if self.outbox.sever_due() {
            self.mark_down();
        }
        if self.down {
            self.try_reconnect(false);
        }
        if self.down || !self.write_alert(&alert, false) {
            self.outbox.enqueue(alert);
        }
    }

    /// Blocks until the link is up and everything queued has been
    /// transmitted, then sends the Fin marker and closes. Call at
    /// end-of-stream: this is what turns "bounded queue while down"
    /// into the paper's lossless contract. If the peer stays
    /// unreachable past the deadline, the remaining queue is counted
    /// into `lost_overflow` — loss is never silent.
    pub fn finish(&mut self) {
        if self.down {
            self.try_reconnect(true);
        }
        if self.down {
            self.outbox.give_up();
            return;
        }
        debug_assert_eq!(self.outbox.queued(), 0, "reconnect flushes the queue");
        if let Some(stream) = self.stream.as_mut() {
            let _ = write_msg(stream, &Message::Fin { node: self.node });
        }
        self.stream = None;
    }

    /// Deliberately drops everything queued and closes after a
    /// best-effort Fin — the path for a replica that exhausted its
    /// restart budget, whose queued alerts are sanctioned loss (same
    /// as the in-process abandoned path) but whose listener still
    /// needs the end-of-stream marker to shut down.
    pub fn abandon(&mut self) {
        self.outbox.abandon();
        if self.down {
            self.try_reconnect(true);
        }
        if let Some(stream) = self.stream.as_mut() {
            let _ = write_msg(stream, &Message::Fin { node: self.node });
        }
        self.stream = None;
    }

    fn mark_down(&mut self) {
        self.stream = None;
        self.down = true;
        self.next_attempt = Instant::now();
        self.backoff.reset();
    }

    /// Attempts reconnection, pacing attempts by the backoff schedule.
    /// Blocking mode sleeps between attempts until the link is up or
    /// the deadline passes; non-blocking mode makes at most one
    /// attempt and returns.
    fn try_reconnect(&mut self, blocking: bool) {
        let deadline = Instant::now() + RECONNECT_DEADLINE;
        loop {
            if !self.down {
                return;
            }
            let now = Instant::now();
            if blocking && now >= deadline {
                return;
            }
            if now < self.next_attempt {
                if !blocking {
                    return;
                }
                rcm_sync::thread::sleep(self.next_attempt - now);
            }
            self.counters.attempts.fetch_add(1, Ordering::SeqCst);
            if !self.outbox.outage_holds(Instant::now()) {
                if let Ok(mut stream) = open_stream(self.peer, Some(RECONNECT_CONNECT_CAP)) {
                    if write_msg(&mut stream, &Message::Hello { node: self.node }).is_ok() {
                        self.stream = Some(stream);
                        self.down = false;
                        self.backoff.reset();
                        self.counters.reconnects.fetch_add(1, Ordering::SeqCst);
                        self.replay();
                        // The replay can mark the link down again on a
                        // fresh write error; the loop re-checks.
                        continue;
                    }
                }
            }
            self.next_attempt = Instant::now() + self.backoff.next_delay();
            if !blocking {
                return;
            }
        }
    }

    /// Writes the outbox's replay; on a write error what did not go
    /// out goes back to the queue front, so order is preserved.
    fn replay(&mut self) {
        let mut replay = self.outbox.replay().into_iter();
        while let Some((alert, resend)) = replay.next() {
            if !self.write_alert(&alert, resend) {
                self.outbox.requeue(std::iter::once((alert, resend)).chain(replay));
                return;
            }
        }
    }

    /// Transmits one alert on the live stream, as a duplicate from the
    /// unacked tail when `resend` (counted in `frames_sent` and
    /// `bytes_sent` but not `sent`); an original joins the tail. On a
    /// genuine socket error the link marks itself down and reports
    /// `false` — the caller decides where the alert goes.
    fn write_alert(&mut self, alert: &Alert, resend: bool) -> bool {
        if self.stream.is_none() {
            return false;
        }
        self.frame.clear();
        if wire::encode_into(Codec::Binary, &Message::Alert(alert.clone()), &mut self.frame)
            .is_err()
        {
            // Unreachable for well-formed alerts; counted, not
            // panicked.
            self.counters.io_errors.fetch_add(1, Ordering::SeqCst);
            return false;
        }
        let Some(stream) = self.stream.as_mut() else { return false };
        if stream.write_all(&self.frame).is_err() {
            self.counters.io_errors.fetch_add(1, Ordering::SeqCst);
            self.mark_down();
            return false;
        }
        self.counters.frames_sent.fetch_add(1, Ordering::SeqCst);
        self.counters.bytes_sent.fetch_add(self.frame.len() as u64, Ordering::SeqCst);
        if resend {
            self.counters.resent_duplicates.fetch_add(1, Ordering::SeqCst);
        } else {
            self.counters.sent.fetch_add(1, Ordering::SeqCst);
            self.outbox.push_unacked(alert.clone());
        }
        true
    }
}

fn open_stream(peer: SocketAddr, cap: Option<Duration>) -> io::Result<TcpStream> {
    let stream = match cap {
        Some(cap) => TcpStream::connect_timeout(&peer, cap)?,
        None => TcpStream::connect(peer)?,
    };
    // Alerts are small and latency-sensitive; never batch them behind
    // Nagle.
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn write_msg(stream: &mut TcpStream, msg: &Message) -> io::Result<()> {
    let frame = wire::encode(msg).map_err(io::Error::other)?;
    stream.write_all(&frame)
}

/// The AD side: accepts back-link connections (including reconnects)
/// and hands every alert frame to a caller closure. A reader thread per
/// connection frames its stream and relays the events to the run loop,
/// which folds them on the caller's thread, so `deliver` never needs to
/// be `Send`; both halves are the alert-stream contract the evented
/// listener runs too (`receive.rs`).
pub struct TcpAlertListener {
    listener: TcpListener,
    counters: Arc<ListenerStats<AtomicU64>>,
    expected_fins: usize,
    idle_timeout: Duration,
}

impl std::fmt::Debug for TcpAlertListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpAlertListener")
            .field("local", &self.listener.local_addr().ok())
            .field("expected_fins", &self.expected_fins)
            .field("stats", &self.counters.snapshot())
            .finish()
    }
}

impl TcpAlertListener {
    /// Binds a fresh listener (use `127.0.0.1:0` in tests for an
    /// ephemeral parallel-safe port).
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind(addr: SocketAddr) -> io::Result<Self> {
        Self::from_listener(TcpListener::bind(addr)?)
    }

    /// Wraps an already-bound listener (the topology binder uses this
    /// to reserve the port before any node starts).
    ///
    /// # Errors
    ///
    /// Propagates the non-blocking configuration failure.
    pub fn from_listener(listener: TcpListener) -> io::Result<Self> {
        listener.set_nonblocking(true)?;
        Ok(TcpAlertListener {
            listener,
            counters: Arc::default(),
            expected_fins: 1,
            idle_timeout: Duration::from_secs(10),
        })
    }

    /// How many distinct CE end-of-stream markers terminate the run
    /// (one per replica; default 1).
    #[must_use]
    pub fn expected_fins(mut self, fins: usize) -> Self {
        self.expected_fins = fins;
        self
    }

    /// Backstop: stop anyway after this long with no connections or
    /// frames at all, in case a CE died without its Fin (default 10 s).
    #[must_use]
    pub fn idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// The bound address (query this after an ephemeral-port bind).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle for reading the listener's counters while `run` owns
    /// the listener.
    pub fn counters(&self) -> Arc<ListenerStats<AtomicU64>> {
        Arc::clone(&self.counters)
    }

    /// Accepts and reads until every expected Fin arrived (or the idle
    /// backstop fires), delivering each alert to `deliver` in arrival
    /// order per connection. Returns the final counters.
    pub fn run(self, mut deliver: impl FnMut(Alert)) -> ListenerStats {
        let mut fold = AlertFold::new(self.expected_fins, Arc::clone(&self.counters));
        let (tx, rx) = rcm_sync::chan::unbounded();
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers: Vec<rcm_sync::thread::JoinHandle<()>> = Vec::new();
        let mut last_activity = Instant::now();
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    last_activity = Instant::now();
                    let reader = fold.accepted();
                    if stream.set_nonblocking(false).is_ok()
                        && stream.set_read_timeout(Some(RECV_TICK)).is_ok()
                    {
                        let tx = tx.clone();
                        let stop = Arc::clone(&stop);
                        readers.push(rcm_sync::thread::spawn(move || {
                            reader_loop(stream, reader, &tx, &stop);
                        }));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(_) => break,
            }
            let mut idle = true;
            while let Ok(events) = rx.try_recv() {
                idle = false;
                fold.fold(events, &mut deliver);
            }
            if !idle {
                last_activity = Instant::now();
            }
            if fold.done() {
                break;
            }
            if last_activity.elapsed() >= self.idle_timeout {
                break;
            }
            if idle {
                rcm_sync::thread::sleep(Duration::from_millis(1));
            }
        }
        stop.store(true, Ordering::SeqCst);
        drop(tx);
        for handle in readers {
            let _ = handle.join();
        }
        // Alerts that raced in while we were deciding to stop still
        // count — nothing received is ever dropped on the floor.
        while let Ok(events) = rx.try_recv() {
            fold.fold(events, &mut deliver);
        }
        self.counters.snapshot()
    }
}

/// Per-connection reader: relays the events of each read to the
/// listener's run loop. Exits on EOF, a desynchronized stream, a
/// socket error, a closed run loop, or the listener's stop flag.
fn reader_loop(
    mut stream: TcpStream,
    mut reader: AlertStream,
    tx: &Sender<Vec<StreamEvent>>,
    stop: &AtomicBool,
) {
    let mut buf = [0u8; 8192];
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => {
                let mut events = Vec::new();
                let open = reader.read(&buf[..n], &mut events);
                if (!events.is_empty() && tx.send(events).is_err()) || !open {
                    return;
                }
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut => {
            }
            Err(_) => return,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use rcm_core::{AlertId, CeId, CondId, HistoryFingerprint, SeqNo, Update, VarId};

    fn alert(index: u64) -> Alert {
        Alert::new(
            CondId::new(0),
            HistoryFingerprint::single(VarId::new(0), vec![SeqNo::new(index)]),
            vec![Update::new(VarId::new(0), index, index as f64)],
            AlertId { ce: CeId::new(0), index },
        )
    }

    fn backoff() -> Backoff {
        Backoff::new(Duration::from_micros(200), Duration::from_millis(5), 11)
    }

    fn seqnos(alerts: &[Alert]) -> Vec<u64> {
        alerts.iter().map(|a| a.fingerprint.iter().next().expect("one var").1[0].get()).collect()
    }

    /// First-occurrence dedup, the way AD-1 treats repeated offers.
    fn dedup(seq: Vec<u64>) -> Vec<u64> {
        let mut seen = HashSet::new();
        seq.into_iter().filter(|s| seen.insert(*s)).collect()
    }

    #[test]
    fn alerts_flow_end_to_end_in_order() {
        let listener = TcpAlertListener::bind("127.0.0.1:0".parse().expect("literal addr"))
            .expect("bind listener")
            .idle_timeout(Duration::from_secs(3));
        let addr = listener.local_addr().expect("bound addr");
        let handle = rcm_sync::thread::spawn(move || {
            let mut got = Vec::new();
            let stats = listener.run(|a| got.push(a));
            (got, stats)
        });
        let mut link = TcpBackLink::connect(addr, 0, backoff()).expect("connect");
        for i in 1..=5 {
            link.send_alert(alert(i));
        }
        link.finish();
        let (got, stats) = handle.join().expect("listener thread");
        assert_eq!(seqnos(&got), vec![1, 2, 3, 4, 5]);
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.alerts, 5);
        assert_eq!(stats.fins, 1);
        assert_eq!(stats.decode_errors, 0);
        let link_stats = link.counters().snapshot();
        assert_eq!(link_stats.sent, 5);
        assert_eq!(link_stats.severs, 0);
        assert_eq!(link_stats.io_errors, 0);
    }

    #[test]
    fn scripted_sever_reconnects_without_losing_an_alert() {
        let listener = TcpAlertListener::bind("127.0.0.1:0".parse().expect("literal addr"))
            .expect("bind listener")
            .idle_timeout(Duration::from_secs(5));
        let addr = listener.local_addr().expect("bound addr");
        let handle = rcm_sync::thread::spawn(move || {
            let mut got = Vec::new();
            let stats = listener.run(|a| got.push(a));
            (got, stats)
        });
        let mut link = TcpBackLink::connect(addr, 0, backoff())
            .expect("connect")
            .with_severs(vec![(2, Duration::from_millis(40))]);
        for i in 1..=6 {
            link.send_alert(alert(i));
        }
        link.finish();
        let (got, stats) = handle.join().expect("listener thread");
        // The reconnect re-sends the unacked tail, so duplicates are
        // allowed — but after first-occurrence dedup (what AD-1 does)
        // the sequence must be complete and in order.
        assert_eq!(dedup(seqnos(&got)), vec![1, 2, 3, 4, 5, 6], "lossless across the sever");
        assert!(stats.connections >= 2, "sever forced a reconnect, got {stats:?}");
        let link_stats = link.counters().snapshot();
        assert_eq!(link_stats.severs, 1);
        assert!(link_stats.reconnects >= 1);
        assert!(link_stats.attempts >= 1);
        assert_eq!(link_stats.lost_overflow, 0);
    }

    #[test]
    fn undersized_queue_loses_oldest_and_counts() {
        let listener = TcpAlertListener::bind("127.0.0.1:0".parse().expect("literal addr"))
            .expect("bind listener")
            .idle_timeout(Duration::from_secs(5));
        let addr = listener.local_addr().expect("bound addr");
        let handle = rcm_sync::thread::spawn(move || {
            let mut got = Vec::new();
            let stats = listener.run(|a| got.push(a));
            (got, stats)
        });
        let mut link = TcpBackLink::connect(addr, 0, backoff())
            .expect("connect")
            .with_severs(vec![(0, Duration::from_millis(200))]);
        // Severed before the first send: the tail is empty, and the
        // bound plus 3 alerts overflow the queue by 3.
        let n = Outbox::<Alert>::QUEUE_CAP as u64 + 3;
        for i in 1..=n {
            link.send_alert(alert(i));
        }
        link.finish();
        let (got, _) = handle.join().expect("listener thread");
        assert_eq!(seqnos(&got), (4..=n).collect::<Vec<_>>(), "kept the newest, in order");
        let link_stats = link.counters().snapshot();
        assert_eq!(link_stats.lost_overflow, 3, "every overflow was counted");
        assert_eq!(link_stats.queued_peak, Outbox::<Alert>::QUEUE_CAP as u64);
    }

    #[test]
    fn connect_to_dead_port_is_a_deployment_error() {
        // Bind-then-drop guarantees an unused port.
        let addr = {
            let sock = TcpListener::bind("127.0.0.1:0").expect("bind probe");
            sock.local_addr().expect("probe addr")
        };
        assert!(TcpBackLink::connect(addr, 0, backoff()).is_err());
    }

    #[test]
    fn two_replicas_fan_into_one_listener() {
        let listener = TcpAlertListener::bind("127.0.0.1:0".parse().expect("literal addr"))
            .expect("bind listener")
            .expected_fins(2)
            .idle_timeout(Duration::from_secs(3));
        let addr = listener.local_addr().expect("bound addr");
        let handle = rcm_sync::thread::spawn(move || {
            let mut got = Vec::new();
            let stats = listener.run(|a| got.push(a));
            (got, stats)
        });
        let mut a = TcpBackLink::connect(addr, 0, backoff()).expect("connect a");
        let mut b = TcpBackLink::connect(addr, 1, backoff()).expect("connect b");
        for i in 1..=3 {
            a.send_alert(alert(i));
            b.send_alert(alert(i));
        }
        a.finish();
        b.finish();
        let (got, stats) = handle.join().expect("listener thread");
        assert_eq!(stats.connections, 2);
        assert_eq!(stats.fins, 2);
        assert_eq!(got.len(), 6, "both replicas' offers arrive");
        // Interleaving across connections is arbitrary, but dedup
        // still yields each offer once.
        assert_eq!(dedup(seqnos(&got)), vec![1, 2, 3]);
    }

    #[test]
    fn corrupted_stream_counts_a_decode_error() {
        let listener = TcpAlertListener::bind("127.0.0.1:0".parse().expect("literal addr"))
            .expect("bind listener")
            .idle_timeout(Duration::from_millis(400));
        let addr = listener.local_addr().expect("bound addr");
        let counters = listener.counters();
        let handle = rcm_sync::thread::spawn(move || listener.run(|_| {}));
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        raw.write_all(b"\xffnot a frame at all").expect("write garbage");
        drop(raw);
        let stats = handle.join().expect("listener thread");
        assert_eq!(stats.decode_errors, 1);
        assert_eq!(stats.alerts, 0);
        assert_eq!(counters.snapshot().decode_errors, 1);
    }

    #[test]
    fn abandon_closes_with_a_fin_but_drops_the_queue() {
        let listener = TcpAlertListener::bind("127.0.0.1:0".parse().expect("literal addr"))
            .expect("bind listener")
            .idle_timeout(Duration::from_secs(3));
        let addr = listener.local_addr().expect("bound addr");
        let handle = rcm_sync::thread::spawn(move || {
            let mut got = Vec::new();
            let stats = listener.run(|a| got.push(a));
            (got, stats)
        });
        let mut link = TcpBackLink::connect(addr, 0, backoff())
            .expect("connect")
            .with_severs(vec![(1, Duration::from_millis(30))]);
        link.send_alert(alert(1));
        link.send_alert(alert(2)); // severed: queued
        link.abandon();
        let (got, stats) = handle.join().expect("listener thread");
        assert_eq!(dedup(seqnos(&got)), vec![1], "queued alert was sanctioned loss");
        assert_eq!(stats.fins, 1, "the listener still got its end-of-stream marker");
    }
}
