//! The CE → AD back link: the paper's "TCP-like" link, lossless across
//! drops. A TCP connection gives in-order bytes while it lives; when it
//! dies — a scripted severance or a genuine socket error — the link
//! follows the [`Outbox`] policy every back link shares: sends while
//! down wait in a bounded queue, and a reconnect, paced by a seeded
//! [`Backoff`] schedule, re-sends the unacked tail and then the queue in
//! order. A scripted outage counts sends: until the [`Outbox`] says it
//! is over (or a finish or abandon ends it), every reconnect attempt
//! backs off again. Every alert is its own `Alert` frame: a back link
//! carries little traffic, and an alert that waits for company is a
//! late alert.
//!
//! The socket is nonblocking, and every state a blocking link would sit
//! in is explicit:
//!
//! * a partial write parks the frame's remainder as a
//!   [`PendingWrite`] continuation and waits for writability;
//! * a down link parks a reconnect timer paced by the backoff schedule,
//!   and a connect attempt in flight is its own `Connecting` state,
//!   aborted by a timer after `CONNECT_CAP`;
//! * `finish` parks a drain-then-Fin plan with a deadline timer, so a
//!   dead peer costs a counted queue loss, never a hung thread.
//!
//! A frame counts (`frames_sent`, `bytes_sent`, `sent` or
//! `resent_duplicates`) when its last byte is written, never for a
//! partial write. The caller-side handle, [`EventedBackLink`], never
//! blocks on `send_alert`: everything past the bound is
//! shed-with-counter, the back-pressure contract of
//! [`Outbox::enqueue`].

// LOCK ORDER: no locks — back-link state machines are owned by the loop thread.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;

use rcm_core::Alert;
use rcm_net::Backoff;
use rcm_poll::{sys, Event, Interest, SubmitQueue, TimerKey, Token, Waker};
use rcm_sync::atomic::{AtomicU64, Ordering};
use rcm_sync::time::{Duration, Instant};
use rcm_sync::Arc;

use super::event_loop::{timer_data, Command, Core, KIND_DEADLINE, KIND_RECONNECT};
use crate::outbox::Outbox;
use crate::report::BackLinkStats;
use crate::wire::{self, Message};

/// How long `finish` keeps retrying a dead peer before counting the
/// queue as lost.
const FINISH_DEADLINE: Duration = Duration::from_secs(10);

/// How long one in-flight reconnect attempt may sit in `Connecting`
/// before the abort timer kills it: a connect to a silently dropping
/// peer would otherwise wait out the OS handshake timeout.
const CONNECT_CAP: Duration = Duration::from_millis(250);

/// The initial connect happens on the caller thread and is worth
/// waiting for: a back link that never existed is a deployment error.
/// Bounded only so a silently-dropping peer cannot park deployment
/// forever.
const INITIAL_CONNECT_WAIT: Duration = Duration::from_secs(30);

/// Everything needed to open one evented back link, gathered so the
/// link can be built inside the loop. The link sends one frame per
/// alert, follows the [`Outbox`] policy and gives a dead peer 10 s at
/// `finish`.
#[derive(Debug, Clone)]
pub struct BackLinkSpec {
    pub(super) peer: SocketAddr,
    pub(super) node: u32,
    pub(super) backoff: Backoff,
    pub(super) severs: Vec<(u64, u64)>,
}

impl BackLinkSpec {
    /// A spec with no severs scripted.
    pub fn new(peer: SocketAddr, node: u32, backoff: Backoff) -> Self {
        BackLinkSpec { peer, node, backoff, severs: Vec::new() }
    }

    /// Scripts severances as `(at_send, down_sends)` pairs; see
    /// [`Outbox::new`].
    #[must_use]
    pub fn with_severs(mut self, severs: Vec<(u64, u64)>) -> Self {
        self.severs = severs;
        self
    }
}

/// The caller-side handle to one evented back link. Every method is a
/// non-blocking submit to the loop, so the handle works the same from
/// the loop's own thread (a CE evaluated inside an ingress's
/// `deliver`) as from any other. A caller that needs a finished link's
/// drain complete joins the loop's thread: the loop runs until the
/// link retires.
pub struct EventedBackLink {
    id: usize,
    commands: SubmitQueue<Command>,
    waker: Waker,
    counters: Arc<BackLinkStats<AtomicU64>>,
    finished: bool,
}

impl std::fmt::Debug for EventedBackLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventedBackLink")
            .field("id", &self.id)
            .field("finished", &self.finished)
            .finish()
    }
}

impl EventedBackLink {
    pub(super) fn new(
        id: usize,
        commands: SubmitQueue<Command>,
        waker: Waker,
        counters: Arc<BackLinkStats<AtomicU64>>,
    ) -> Self {
        EventedBackLink { id, commands, waker, counters, finished: false }
    }

    /// Hands one alert to the loop. Never blocks: a down peer costs a
    /// bounded queue slot (or a counted shed), never a stalled caller.
    pub fn send_alert(&mut self, alert: Alert) {
        if self.finished {
            return;
        }
        self.commands.submit(Command::Send { id: self.id, alert }, &self.waker);
    }

    /// Asks the loop to drain losslessly, send Fin, and close. This is
    /// what turns "bounded queue while down" into the paper's lossless
    /// contract: if the peer stays unreachable past the 10 s deadline,
    /// what is still queued is counted into `lost_overflow` — loss is
    /// never silent. The loop keeps running until the drain ends.
    pub fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.commands.submit(Command::Finish { id: self.id }, &self.waker);
    }

    /// Drops everything queued, best-effort Fin, close — the
    /// abandoned-replica path.
    pub fn abandon(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.commands.submit(Command::Abandon { id: self.id }, &self.waker);
    }

    /// A handle for reading the link's counters.
    pub fn counters(&self) -> Arc<BackLinkStats<AtomicU64>> {
        Arc::clone(&self.counters)
    }
}

/// One frame on its way out: bytes plus the continuation cursor, and
/// the bookkeeping that fires when the last byte lands.
struct PendingWrite {
    bytes: Vec<u8>,
    written: usize,
    /// The alert this frame carries (`None` for Hello/Fin control
    /// frames, which the counters ignore).
    alert: Option<Alert>,
    resend: bool,
    fin: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LinkState {
    Up,
    /// A non-blocking connect is in flight; writability (or the abort
    /// timer) resolves it.
    Connecting,
    Down,
}

/// The loop-side state machine for one back link.
pub(super) struct BackSource {
    peer: SocketAddr,
    node: u32,
    stream: Option<TcpStream>,
    state: LinkState,
    finishing: bool,
    fin_queued: bool,
    deadline_passed: bool,
    backoff: Backoff,
    outbox: Outbox<Alert>,
    out: VecDeque<PendingWrite>,
    /// Where each alert frame is encoded before an exactly sized copy
    /// of it is parked on `out`; kept across frames, so a frame costs
    /// one allocation however its encoding grows.
    scratch: Vec<u8>,
    registered_write: bool,
    reconnect_timer: Option<TimerKey>,
    deadline_timer: Option<TimerKey>,
    counters: Arc<BackLinkStats<AtomicU64>>,
}

impl BackSource {
    /// Opens the link: the initial connect on the caller thread (a
    /// failure here is a deployment error), then registers the live
    /// stream with the loop and queues the Hello preamble.
    pub(super) fn open(spec: BackLinkSpec, core: &mut Core, id: usize) -> io::Result<Self> {
        let stream = sys::connect_nonblocking(spec.peer)?;
        let fd = stream.as_raw_fd();
        if !sys::await_writable(fd, INITIAL_CONNECT_WAIT)? {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "initial back-link connect"));
        }
        sys::take_socket_error(fd)?;
        // Alerts are small and latency-sensitive; never batch them
        // behind Nagle.
        stream.set_nodelay(true)?;
        core.poller.register(fd, Token(id), Interest::WRITE)?;
        let counters = Arc::new(BackLinkStats::default());
        let mut source = BackSource {
            peer: spec.peer,
            node: spec.node,
            stream: Some(stream),
            state: LinkState::Up,
            finishing: false,
            fin_queued: false,
            deadline_passed: false,
            backoff: spec.backoff,
            outbox: Outbox::new(spec.severs, Arc::clone(&counters)),
            out: VecDeque::new(),
            scratch: Vec::new(),
            registered_write: true,
            reconnect_timer: None,
            deadline_timer: None,
            counters,
        };
        source.queue_control(Message::Hello { node: spec.node });
        Ok(source)
    }

    pub(super) fn counters(&self) -> Arc<BackLinkStats<AtomicU64>> {
        Arc::clone(&self.counters)
    }

    // ---- command handlers (all return `true` when the link retired).

    pub(super) fn on_send(&mut self, core: &mut Core, id: usize, alert: Alert) -> bool {
        if self.outbox.sever_due() {
            self.mark_down(core, id);
        }
        if self.state == LinkState::Up {
            self.queue_frame(alert, false);
            self.drain_out(core, id);
        } else {
            self.outbox.enqueue(alert);
        }
        false
    }

    pub(super) fn on_finish(&mut self, core: &mut Core, id: usize) -> bool {
        self.finishing = true;
        if self.state == LinkState::Up {
            if !self.fin_queued {
                self.queue_fin();
            }
            return self.drain_out(core, id);
        }
        self.arm_finish_deadline(core, id);
        false
    }

    pub(super) fn on_abandon(&mut self, core: &mut Core, id: usize) -> bool {
        // Sanctioned loss: the queue dies with the replica, but the
        // listener still needs the end-of-stream marker.
        self.outbox.abandon();
        self.finishing = true;
        if self.state == LinkState::Up {
            if !self.fin_queued {
                self.queue_fin();
            }
            return self.drain_out(core, id);
        }
        self.arm_finish_deadline(core, id);
        false
    }

    fn arm_finish_deadline(&mut self, core: &mut Core, id: usize) {
        let now = Instant::now();
        self.deadline_timer =
            Some(core.wheel.schedule_at(now + FINISH_DEADLINE, timer_data(id, KIND_DEADLINE)));
        if self.state == LinkState::Down && self.reconnect_timer.is_none() {
            self.schedule_reconnect(core, id, now);
        }
    }

    // ---- readiness and timers.

    pub(super) fn on_event(&mut self, core: &mut Core, id: usize, ev: Event) -> bool {
        match self.state {
            LinkState::Connecting => self.on_connect_resolved(core, id, ev),
            LinkState::Up => {
                if ev.error {
                    self.counters.io_errors.fetch_add(1, Ordering::SeqCst);
                    self.mark_down(core, id);
                    return self.after_down(core, id);
                }
                if ev.writable {
                    return self.drain_out(core, id);
                }
                false
            }
            // The fd was deregistered on the way down; a straggler
            // event for the old registration is a no-op.
            LinkState::Down => false,
        }
    }

    pub(super) fn on_timer(&mut self, core: &mut Core, id: usize, kind: u64) -> bool {
        match kind {
            KIND_RECONNECT => {
                self.reconnect_timer = None;
                match self.state {
                    LinkState::Connecting => {
                        // The in-flight attempt outlived the cap.
                        self.close_stream(core);
                        self.state = LinkState::Down;
                        let delay = self.backoff.next_delay();
                        self.schedule_reconnect(core, id, Instant::now() + delay);
                    }
                    LinkState::Down => self.attempt_connect(core, id),
                    LinkState::Up => {}
                }
                false
            }
            KIND_DEADLINE => {
                self.deadline_timer = None;
                if !self.finishing {
                    return false;
                }
                if self.state == LinkState::Up {
                    // Mid-drain: let it run, but a fresh outage now
                    // ends the finish instead of restarting the clock.
                    self.deadline_passed = true;
                    return false;
                }
                self.abort_finish(core);
                true
            }
            _ => false,
        }
    }

    fn on_connect_resolved(&mut self, core: &mut Core, id: usize, ev: Event) -> bool {
        if let Some(key) = self.reconnect_timer.take() {
            core.wheel.cancel(key);
        }
        let sock_err = match &self.stream {
            Some(stream) => sys::take_socket_error(stream.as_raw_fd()).err(),
            None => Some(io::Error::other("no stream in Connecting state")),
        };
        if ev.error || sock_err.is_some() {
            self.close_stream(core);
            self.state = LinkState::Down;
            let delay = self.backoff.next_delay();
            self.schedule_reconnect(core, id, Instant::now() + delay);
            return false;
        }
        // Connected: Hello, then the outbox's replay (unacked-tail
        // duplicates, then the queue in FIFO order), one frame each.
        if let Some(stream) = &self.stream {
            let _ = stream.set_nodelay(true);
        }
        self.state = LinkState::Up;
        self.registered_write = true; // still registered for WRITE
        self.backoff.reset();
        self.counters.reconnects.fetch_add(1, Ordering::SeqCst);
        self.queue_control(Message::Hello { node: self.node });
        for (alert, resend) in self.outbox.replay() {
            self.queue_frame(alert, resend);
        }
        if self.finishing && !self.fin_queued {
            self.queue_fin();
        }
        self.drain_out(core, id)
    }

    fn attempt_connect(&mut self, core: &mut Core, id: usize) {
        self.counters.attempts.fetch_add(1, Ordering::SeqCst);
        let now = Instant::now();
        // A finish or abandon ends any scripted outage: no send is left
        // to count it down.
        if !self.finishing && self.outbox.outage_holds() {
            let delay = self.backoff.next_delay();
            self.schedule_reconnect(core, id, now + delay);
            return;
        }
        match sys::connect_nonblocking(self.peer) {
            Ok(stream) => {
                let fd = stream.as_raw_fd();
                if core.poller.register(fd, Token(id), Interest::WRITE).is_ok() {
                    self.stream = Some(stream);
                    self.state = LinkState::Connecting;
                    self.registered_write = true;
                    // The abort timer doubles as the reconnect key.
                    self.schedule_reconnect(core, id, now + CONNECT_CAP);
                    return;
                }
                let delay = self.backoff.next_delay();
                self.schedule_reconnect(core, id, now + delay);
            }
            Err(_) => {
                let delay = self.backoff.next_delay();
                self.schedule_reconnect(core, id, now + delay);
            }
        }
    }

    // ---- the write path.

    /// Encodes `alert` as one `Alert` frame and parks it on the
    /// out-queue. Counting happens at completion.
    fn queue_frame(&mut self, alert: Alert, resend: bool) {
        self.scratch.clear();
        if wire::encode_alert_into(&alert, &mut self.scratch).is_err() {
            // Unreachable for well-formed alerts; counted, not
            // panicked. Duplicates (resends) are simply dropped.
            self.counters.io_errors.fetch_add(1, Ordering::SeqCst);
            if !resend {
                self.outbox.enqueue(alert);
            }
            return;
        }
        self.out.push_back(PendingWrite {
            bytes: self.scratch.clone(),
            written: 0,
            alert: Some(alert),
            resend,
            fin: false,
        });
    }

    fn queue_control(&mut self, msg: Message) {
        let fin = matches!(msg, Message::Fin { .. });
        match wire::encode(&msg) {
            Ok(bytes) => {
                self.out.push_back(PendingWrite {
                    bytes,
                    written: 0,
                    alert: None,
                    resend: false,
                    fin,
                });
                if fin {
                    self.fin_queued = true;
                }
            }
            Err(_) => {
                self.counters.io_errors.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    fn queue_fin(&mut self) {
        self.queue_control(Message::Fin { node: self.node });
    }

    /// Writes as much of the out-queue as the socket takes right now.
    /// Returns `true` when the Fin frame completed and the link
    /// retired (or a failure while finishing past the deadline ended
    /// it as counted loss).
    fn drain_out(&mut self, core: &mut Core, id: usize) -> bool {
        while self.state == LinkState::Up && !self.out.is_empty() {
            let Some(stream) = self.stream.as_mut() else { break };
            let Some(front) = self.out.front_mut() else { break };
            match stream.write(&front.bytes[front.written..]) {
                Ok(n) => {
                    front.written += n;
                    if front.written >= front.bytes.len() {
                        if let Some(done) = self.out.pop_front() {
                            if self.complete_frame(core, done) {
                                return true;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.counters.io_errors.fetch_add(1, Ordering::SeqCst);
                    self.mark_down(core, id);
                    return self.after_down(core, id);
                }
            }
        }
        self.update_interest(core, id);
        false
    }

    /// Completion bookkeeping for one fully-written frame.
    fn complete_frame(&mut self, core: &mut Core, frame: PendingWrite) -> bool {
        if frame.fin {
            self.retire(core);
            return true;
        }
        let Some(alert) = frame.alert else {
            return false; // Hello: uncounted
        };
        let len = frame.bytes.len() as u64;
        self.counters.frames_sent.fetch_add(1, Ordering::SeqCst);
        self.counters.bytes_sent.fetch_add(len, Ordering::SeqCst);
        if frame.resend {
            self.counters.resent_duplicates.fetch_add(1, Ordering::SeqCst);
        } else {
            self.counters.sent.fetch_add(1, Ordering::SeqCst);
            self.outbox.push_unacked(alert);
        }
        false
    }

    fn update_interest(&mut self, core: &mut Core, id: usize) {
        let want = self.state == LinkState::Up && !self.out.is_empty();
        if want == self.registered_write {
            return;
        }
        if let Some(stream) = &self.stream {
            let interest =
                if want { Interest::WRITE } else { Interest { read: false, write: false } };
            let _ = core.poller.reregister(stream.as_raw_fd(), Token(id), interest);
        }
        self.registered_write = want;
    }

    // ---- outage handling.

    fn mark_down(&mut self, core: &mut Core, id: usize) {
        self.close_stream(core);
        self.state = LinkState::Down;
        self.backoff.reset();
        // In-flight frames spill back to the queue front, in order (the
        // queue is empty while up, so this rebuilds FIFO exactly). A
        // partially-written frame is re-sent whole — the peer's frame
        // buffer discards the torn prefix with the dead connection.
        let out = std::mem::take(&mut self.out);
        if out.iter().any(|frame| frame.fin) {
            self.fin_queued = false; // the finish plan re-issues it
        }
        self.outbox.requeue(out.into_iter().filter_map(|frame| Some((frame.alert?, frame.resend))));
        self.schedule_reconnect(core, id, Instant::now());
    }

    /// After a fresh outage: a finish already past its deadline ends
    /// now as counted loss instead of riding a new reconnect cycle.
    fn after_down(&mut self, core: &mut Core, id: usize) -> bool {
        let _ = id;
        if self.finishing && self.deadline_passed {
            self.abort_finish(core);
            return true;
        }
        false
    }

    fn abort_finish(&mut self, core: &mut Core) {
        self.outbox.give_up();
        self.retire(core);
    }

    /// Final cleanup: the stream and every pending timer.
    fn retire(&mut self, core: &mut Core) {
        self.close_stream(core);
        for key in [self.reconnect_timer.take(), self.deadline_timer.take()].into_iter().flatten() {
            core.wheel.cancel(key);
        }
    }

    fn close_stream(&mut self, core: &mut Core) {
        if let Some(stream) = self.stream.take() {
            core.poller.deregister(stream.as_raw_fd());
        }
        self.registered_write = false;
    }

    fn schedule_reconnect(&mut self, core: &mut Core, id: usize, at: Instant) {
        if let Some(key) = self.reconnect_timer.take() {
            core.wheel.cancel(key);
        }
        self.reconnect_timer = Some(core.wheel.schedule_at(at, timer_data(id, KIND_RECONNECT)));
    }
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;

    use rcm_core::{AlertId, CeId, CondId, HistoryFingerprint, SeqNo, Update, VarId};
    use rcm_poll::{Poller, TimerWheel};

    use super::*;

    /// An alert over one variable, `degree` updates deep.
    fn alert(index: u64, degree: u64) -> Alert {
        let x = VarId::new(0);
        let seqnos: Vec<u64> = (1..=degree).rev().collect();
        Alert::new(
            CondId::new(0),
            HistoryFingerprint::single(x, seqnos.iter().map(|&s| SeqNo::new(s)).collect()),
            seqnos.iter().map(|&s| Update::new(x, s, s as f64)).collect::<Vec<_>>(),
            AlertId { ce: CeId::new(3), index },
        )
    }

    /// Each alert frame parked on the out-queue is the codec's frame
    /// for it, in a block of exactly its length, whatever the frames
    /// the link's one encode buffer held before it.
    #[test]
    fn a_parked_alert_frame_is_the_codecs_frame_sized_exactly() {
        let peer = TcpListener::bind("127.0.0.1:0").expect("bind the stand-in AD");
        let mut core = Core {
            poller: Poller::new().expect("poller"),
            wheel: TimerWheel::new(Instant::now(), Duration::from_millis(1), 8),
            counters: Arc::default(),
            buf: Box::default(),
        };
        let backoff = Backoff::new(Duration::from_millis(1), Duration::from_millis(5), 7);
        let spec = BackLinkSpec::new(peer.local_addr().expect("addr"), 3, backoff);
        let mut link = BackSource::open(spec, &mut core, 0).expect("connects");
        for (index, degree) in [(0, 1), (1, 16), (2, 2)] {
            let alert = alert(index, degree);
            link.queue_frame(alert.clone(), false);
            let parked = &link.out.back().expect("parked").bytes;
            assert_eq!(*parked, wire::encode(&Message::Alert(alert)).expect("encodes"));
            assert_eq!(parked.capacity(), parked.len(), "degree {degree}");
        }
        assert_eq!(link.out.len(), 4, "the Hello and three alert frames");
    }
}
