//! The TCP back link: CE → AD alerts over a real connection, lossless
//! across drops.
//!
//! The paper justifies a "TCP-like protocol" for back links: alert
//! traffic is light, the CE buffers alerts anyway, and losing an alert
//! is far worse than losing an update. A TCP connection gives in-order
//! bytes while it lives — the machinery here is for when it dies:
//!
//! * a scripted severance (for chaos tests) or a genuine socket error
//!   marks the link down and closes the stream;
//! * sends while down go to a bounded FIFO queue (overflow drops the
//!   oldest and is *counted*, never silent);
//! * reconnect attempts are paced by a seeded
//!   [`Backoff`](rcm_net::Backoff) schedule;
//! * on reconnect the link re-sends its unacked tail (a real transport
//!   cannot know which in-flight frames survived the cut) and then
//!   drains the queue in order — so the AD sees exact duplicates
//!   around every reconnect, which is precisely the adversarial input
//!   every AD algorithm already discards.
//!
//! This mirrors the in-process `BackLink` in `rcm-runtime` send for
//! send; the two share their counters' meaning so `RunReport.faults`
//! reads the same in both modes.
//!
//! Every alert is its own `Alert` frame and its own stream write: a
//! back link carries little traffic, and an alert that waits for
//! company is a late alert.
//!
//! LOCK ORDER: the only mutexes are the `stats` counter blocks,
//! leaves — never held across a socket call, a sleep, or a channel
//! send.

use std::collections::{HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};

use rcm_core::Alert;
use rcm_net::Backoff;
use rcm_sync::atomic::{AtomicBool, Ordering};
use rcm_sync::chan::Sender;
use rcm_sync::time::{Duration, Instant};
use rcm_sync::{Arc, Mutex};

use crate::report::{ListenerStats, TcpLinkStats};
use crate::wire::{self, Codec, FrameBuf, Message};

/// How many recently-sent alerts the link keeps for post-reconnect
/// resend (same tail length as the in-process back link).
const UNACKED_TAIL: usize = 8;

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

/// The sending half of a back link: owns the connection to the AD and
/// the full sever/queue/reconnect state machine.
pub struct TcpBackLink {
    peer: SocketAddr,
    node: u32,
    stream: Option<TcpStream>,
    down: bool,
    /// Earliest instant a scripted outage allows reconnection.
    floor: Option<Instant>,
    /// Pending severances, ascending by send index: `(at_send, down_for)`.
    severs: VecDeque<(u64, Duration)>,
    sends_seen: u64,
    next_attempt: Instant,
    backoff: Backoff,
    queue: VecDeque<Alert>,
    queue_cap: usize,
    unacked: VecDeque<Alert>,
    unacked_cap: usize,
    /// Reused frame-encode scratch buffer.
    frame: Vec<u8>,
    stats: Arc<Mutex<TcpLinkStats>>,
}

impl std::fmt::Debug for TcpBackLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpBackLink")
            .field("peer", &self.peer)
            .field("down", &self.down)
            .field("queued", &self.queue.len())
            .field("stats", &*self.stats.lock())
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
        Ok(TcpBackLink {
            peer,
            node,
            stream: Some(stream),
            down: false,
            floor: None,
            severs: VecDeque::new(),
            sends_seen: 0,
            next_attempt: Instant::now(),
            backoff,
            queue: VecDeque::new(),
            queue_cap: 1024,
            unacked: VecDeque::new(),
            unacked_cap: UNACKED_TAIL,
            frame: Vec::new(),
            stats: Arc::new(Mutex::new(TcpLinkStats::default())),
        })
    }

    /// Scripts severances as `(at_send, down_for)` pairs; `at_send`
    /// counts prior send calls, so `(0, d)` severs before the first.
    /// Pairs are sorted internally.
    #[must_use]
    pub fn with_severs(mut self, mut severs: Vec<(u64, Duration)>) -> Self {
        severs.sort_by_key(|&(at, _)| at);
        self.severs = severs.into();
        self
    }

    /// Bounds the resend queue (default 1024).
    #[must_use]
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap.max(1);
        self
    }

    /// Sets the unacked-tail length resent on reconnect (default 8;
    /// 0 disables duplicate resends).
    #[must_use]
    pub fn unacked_cap(mut self, cap: usize) -> Self {
        self.unacked_cap = cap;
        self.unacked.truncate(cap);
        self
    }

    /// A handle for reading the link's counters after the CE thread
    /// has taken ownership of the link.
    pub fn stats_handle(&self) -> Arc<Mutex<TcpLinkStats>> {
        Arc::clone(&self.stats)
    }

    /// Sends one alert: transmitted immediately when connected, queued
    /// when down (a non-blocking reconnect attempt is made first if
    /// the backoff schedule allows one).
    pub fn send_alert(&mut self, alert: Alert) {
        if let Some(&(at, down_for)) = self.severs.front() {
            if self.sends_seen >= at {
                self.severs.pop_front();
                self.stats.lock().severs += 1;
                // A severance landing while already down extends the
                // outage rather than stacking a second one.
                self.mark_down(Some(Instant::now() + down_for));
            }
        }
        self.sends_seen += 1;
        if self.down {
            self.try_reconnect(false);
        }
        if self.down || !self.write_alert(&alert) {
            self.enqueue(alert);
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
            let dropped = self.queue.len() as u64;
            self.queue.clear();
            self.stats.lock().lost_overflow += dropped;
            return;
        }
        debug_assert!(self.queue.is_empty(), "reconnect flushes the queue");
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
        self.queue.clear();
        self.unacked.clear();
        if self.down {
            self.try_reconnect(true);
        }
        if let Some(stream) = self.stream.as_mut() {
            let _ = write_msg(stream, &Message::Fin { node: self.node });
        }
        self.stream = None;
    }

    fn mark_down(&mut self, floor: Option<Instant>) {
        self.stream = None;
        self.down = true;
        self.floor = match (self.floor, floor) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
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
            self.stats.lock().attempts += 1;
            if self.floor.is_none_or(|f| Instant::now() >= f) {
                if let Ok(mut stream) = open_stream(self.peer, Some(RECONNECT_CONNECT_CAP)) {
                    if write_msg(&mut stream, &Message::Hello { node: self.node }).is_ok() {
                        self.stream = Some(stream);
                        self.down = false;
                        self.floor = None;
                        self.backoff.reset();
                        self.stats.lock().reconnects += 1;
                        self.resend_unacked();
                        self.flush_queue();
                        // resend/flush can mark the link down again on
                        // a fresh write error; the loop re-checks.
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

    /// Re-sends the unacked tail: pure duplicates, exactly the
    /// adversarial input the AD filters must tolerate. Each duplicate
    /// travels as its own frame and is counted in
    /// `frames_sent`/`bytes_sent` but not `sent`.
    fn resend_unacked(&mut self) {
        let tail: Vec<Alert> = self.unacked.iter().cloned().collect();
        for alert in tail {
            if self.stream.is_none() {
                return;
            }
            self.frame.clear();
            if wire::encode_into(Codec::Binary, &Message::Alert(alert), &mut self.frame).is_err() {
                return;
            }
            let Some(stream) = self.stream.as_mut() else { return };
            if stream.write_all(&self.frame).is_err() {
                self.stats.lock().io_errors += 1;
                self.mark_down(None);
                return;
            }
            let mut stats = self.stats.lock();
            stats.resent_duplicates += 1;
            stats.frames_sent += 1;
            stats.bytes_sent += self.frame.len() as u64;
        }
    }

    /// Drains the down-period queue in FIFO order; a write error puts
    /// the failing alert back at the *front* so order is preserved.
    fn flush_queue(&mut self) {
        while let Some(alert) = self.queue.pop_front() {
            if !self.write_alert(&alert) {
                self.queue.push_front(alert);
                return;
            }
        }
    }

    /// Transmits one alert on the live stream; on success it joins the
    /// unacked tail. On a genuine socket error the link marks itself
    /// down (no scripted floor) and reports `false` — the caller
    /// decides where the alert goes.
    fn write_alert(&mut self, alert: &Alert) -> bool {
        if self.stream.is_none() {
            return false;
        }
        self.frame.clear();
        if wire::encode_into(Codec::Binary, &Message::Alert(alert.clone()), &mut self.frame)
            .is_err()
        {
            // Unreachable for well-formed alerts; counted, not
            // panicked.
            self.stats.lock().io_errors += 1;
            return false;
        }
        let Some(stream) = self.stream.as_mut() else { return false };
        if stream.write_all(&self.frame).is_err() {
            self.stats.lock().io_errors += 1;
            self.mark_down(None);
            return false;
        }
        {
            let mut stats = self.stats.lock();
            stats.sent += 1;
            stats.frames_sent += 1;
            stats.bytes_sent += self.frame.len() as u64;
        }
        self.push_unacked(alert.clone());
        true
    }

    fn push_unacked(&mut self, alert: Alert) {
        if self.unacked_cap > 0 {
            if self.unacked.len() == self.unacked_cap {
                self.unacked.pop_front();
            }
            self.unacked.push_back(alert);
        }
    }

    fn enqueue(&mut self, alert: Alert) {
        let mut stats = self.stats.lock();
        if self.queue.len() >= self.queue_cap {
            // Strictly non-blocking back-pressure: shed the oldest and
            // count it, never stall the caller on a down peer.
            self.queue.pop_front();
            stats.lost_overflow += 1;
            stats.shed += 1;
        }
        self.queue.push_back(alert);
        stats.queued_peak = stats.queued_peak.max(self.queue.len() as u64);
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

/// What a reader thread saw on its connection, relayed to the
/// listener's run loop so the caller's `deliver` closure never needs
/// to be `Send`.
enum Event {
    Alert(Alert),
    Fin(u32),
    DecodeError,
}

/// The AD side: accepts back-link connections (including reconnects)
/// and hands every alert frame to a caller closure.
pub struct TcpAlertListener {
    listener: TcpListener,
    stats: Arc<Mutex<ListenerStats>>,
    expected_fins: usize,
    idle_timeout: Duration,
}

impl std::fmt::Debug for TcpAlertListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpAlertListener")
            .field("local", &self.listener.local_addr().ok())
            .field("expected_fins", &self.expected_fins)
            .field("stats", &*self.stats.lock())
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
            stats: Arc::new(Mutex::new(ListenerStats::default())),
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
    pub fn stats_handle(&self) -> Arc<Mutex<ListenerStats>> {
        Arc::clone(&self.stats)
    }

    /// Accepts and reads until every expected Fin arrived (or the idle
    /// backstop fires), delivering each alert to `deliver` in arrival
    /// order per connection. Returns the final counters.
    pub fn run(self, mut deliver: impl FnMut(Alert)) -> ListenerStats {
        let (tx, rx) = rcm_sync::chan::unbounded();
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers: Vec<rcm_sync::thread::JoinHandle<()>> = Vec::new();
        let mut fins: HashSet<u32> = HashSet::new();
        let mut last_activity = Instant::now();
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    last_activity = Instant::now();
                    self.stats.lock().connections += 1;
                    if stream.set_nonblocking(false).is_ok()
                        && stream.set_read_timeout(Some(RECV_TICK)).is_ok()
                    {
                        let tx = tx.clone();
                        let stop = Arc::clone(&stop);
                        let stats = Arc::clone(&self.stats);
                        readers.push(rcm_sync::thread::spawn(move || {
                            reader_loop(stream, &tx, &stop, &stats);
                        }));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(_) => break,
            }
            let mut idle = true;
            while let Ok(event) = rx.try_recv() {
                idle = false;
                self.handle(event, &mut fins, &mut deliver);
            }
            if !idle {
                last_activity = Instant::now();
            }
            if fins.len() >= self.expected_fins {
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
        while let Ok(event) = rx.try_recv() {
            self.handle(event, &mut fins, &mut deliver);
        }
        *self.stats.lock()
    }

    fn handle(&self, event: Event, fins: &mut HashSet<u32>, deliver: &mut impl FnMut(Alert)) {
        match event {
            Event::Alert(alert) => {
                self.stats.lock().alerts += 1;
                deliver(alert);
            }
            Event::Fin(node) => {
                if fins.insert(node) {
                    self.stats.lock().fins += 1;
                }
            }
            Event::DecodeError => self.stats.lock().decode_errors += 1,
        }
    }
}

/// Per-connection reader: decodes frames off the stream and relays
/// them as events. Exits on EOF, a fatal decode error (a
/// desynchronized stream cannot be trusted again), a socket error, or
/// the listener's stop
/// flag. Only touches the shared stats for the byte counter — a leaf
/// lock, per the file's LOCK ORDER note.
fn reader_loop(
    mut stream: TcpStream,
    tx: &Sender<Event>,
    stop: &AtomicBool,
    stats: &Mutex<ListenerStats>,
) {
    let mut frames = FrameBuf::new();
    let mut buf = [0u8; 8192];
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => {
                stats.lock().bytes_received += n as u64;
                frames.push(&buf[..n]);
                loop {
                    match wire::decode(&mut frames) {
                        Ok(Some(Message::Alert(alert))) => {
                            if tx.send(Event::Alert(alert)).is_err() {
                                return;
                            }
                        }
                        Ok(Some(Message::Fin { node })) => {
                            let _ = tx.send(Event::Fin(node));
                        }
                        Ok(Some(Message::Hello { .. })) => {}
                        Ok(Some(
                            Message::Update(_) | Message::UpdateBatch(_) | Message::Derived(_),
                        )) => {
                            // An update (raw or derived) on a back
                            // link is protocol abuse; count it, keep
                            // the stream.
                            let _ = tx.send(Event::DecodeError);
                        }
                        Ok(None) => break,
                        Err(_) => {
                            let _ = tx.send(Event::DecodeError);
                            return;
                        }
                    }
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
        let link_stats = *link.stats_handle().lock();
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
        let link_stats = *link.stats_handle().lock();
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
            .with_severs(vec![(0, Duration::from_millis(60))])
            .unacked_cap(0)
            .queue_cap(2);
        for i in 1..=5 {
            link.send_alert(alert(i));
        }
        link.finish();
        let (got, _) = handle.join().expect("listener thread");
        assert_eq!(seqnos(&got), vec![4, 5], "kept the newest two");
        let link_stats = *link.stats_handle().lock();
        assert_eq!(link_stats.lost_overflow, 3);
        assert_eq!(link_stats.shed, 3, "every overflow was a non-blocking shed");
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
        let stats_handle = listener.stats_handle();
        let handle = rcm_sync::thread::spawn(move || listener.run(|_| {}));
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        raw.write_all(b"\xffnot a frame at all").expect("write garbage");
        drop(raw);
        let stats = handle.join().expect("listener thread");
        assert_eq!(stats.decode_errors, 1);
        assert_eq!(stats.alerts, 0);
        assert_eq!(stats_handle.lock().decode_errors, 1);
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
