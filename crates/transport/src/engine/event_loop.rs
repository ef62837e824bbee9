//! The readiness loop itself: one thread, one poller, one timer
//! wheel, and a slab of connection state machines.
//!
//! Ownership discipline: every socket lives inside exactly one
//! [`Source`] slot, and every slot is touched only by the loop thread.
//! Caller threads reach the loop exclusively through the
//! [`SubmitQueue`] + [`Waker`] pair, so no lock is ever shared between
//! a caller and the loop (and none is ever held across the poll).
//!
//! The slab never reuses slots: a finished source leaves `None`
//! behind, which makes a late timer fire or a stale readiness event
//! for that token a silent no-op instead of a use-after-retire bug.
//! Timer payloads encode `(slot << 2) | kind`, so one wheel serves
//! idle backstops, reconnect pacing and finish deadlines without
//! per-source timer threads.

// LOCK ORDER: no locks on the loop thread — cross-thread handoff is the
// SubmitQueue (whose single mutex is documented in rcm-poll) plus atomics.

use std::io;
use std::net::{TcpListener, UdpSocket};
use std::os::fd::AsRawFd;

use rcm_core::{Alert, Update};
use rcm_poll::{Event, Interest, Poller, SubmitQueue, TimerWheel, Token, WAKE_TOKEN};
use rcm_sync::atomic::{AtomicU64, Ordering};
use rcm_sync::time::{Duration, Instant};
use rcm_sync::Arc;

use super::back::{BackLinkSpec, BackSource, EventedBackLink};
use super::front::FrontSource;
use super::listener::{ConnSource, ListenerSource};
use crate::receive::{AlertFold, Ingress, StreamEvent};
use crate::report::{EngineStats, IngressStats, ListenerStats};

/// Timer-wheel resolution. Coarser than the OS clock on purpose: every
/// engine deadline (backoff floors, connect caps, idle backstops) is
/// milliseconds-scale, and a coarse tick keeps the wheel's cascade
/// work near zero.
const TICK: Duration = Duration::from_millis(1);

/// Wheel size: one lap covers 512 ms before cascading. Longer
/// deadlines (idle backstops, finish deadlines) just take extra laps.
const BUCKETS: usize = 512;

/// Timer kinds, packed into the low bits of the wheel's `data` word.
pub(super) const KIND_IDLE: u64 = 0;
pub(super) const KIND_RECONNECT: u64 = 1;
pub(super) const KIND_DEADLINE: u64 = 2;

/// Packs a slab slot and a timer kind into one wheel payload.
pub(super) fn timer_data(id: usize, kind: u64) -> u64 {
    ((id as u64) << 2) | kind
}

/// What caller threads may ask of the loop. Every variant is
/// fire-and-forget except that `Finish`/`Abandon` are acknowledged on
/// the link's done channel once the state machine retires.
pub(super) enum Command {
    /// Transmit (or queue) one alert on back link `id`.
    Send { id: usize, alert: Alert },
    /// Drain link `id` losslessly, send Fin, then acknowledge.
    Finish { id: usize },
    /// Drop link `id`'s queue, best-effort Fin, then acknowledge.
    Abandon { id: usize },
}

/// State shared between the loop and every source: the poller, the
/// wheel, the engine counters, and one reused read buffer (a per-link
/// buffer would cost 64 KiB × 10k links; readiness means one is
/// enough).
pub(super) struct Core {
    pub poller: Poller,
    pub wheel: TimerWheel,
    pub counters: Arc<EngineStats<AtomicU64>>,
    pub buf: Box<[u8]>,
}

/// One slab slot: every socket the loop owns, as a state machine.
// Boxing the large back-link variant would add a pointer chase to every
// event on the hot path; the slab holds one slot per socket.
#[allow(clippy::large_enum_variant)]
enum Source<'d> {
    Front(FrontSource<'d>),
    Back(BackSource),
    Listener(ListenerSource<'d>),
    Conn(ConnSource),
}

/// The evented engine: owns every socket of one node process and runs
/// them all on a single readiness loop.
///
/// Build it on the caller thread (registration happens eagerly, so
/// bind/connect errors surface as `io::Result` right here), then hand
/// the loop to a thread via [`run`](Self::run). Handles returned by
/// `add_*` stay valid after the move. `'d` bounds the `deliver`
/// closures the loop holds: `'static` for a loop handed to a thread of
/// its own, shorter for one run on the thread that built it.
pub struct EventLoop<'d> {
    core: Core,
    commands: SubmitQueue<Command>,
    sources: Vec<Option<Source<'d>>>,
    /// Primary sources (fronts, listeners, back links) still running.
    /// Conn sources ride on their listener and are not counted — the
    /// loop exits when the last primary source retires.
    active: usize,
}

impl std::fmt::Debug for EventLoop<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLoop")
            .field("sources", &self.sources.len())
            .field("active", &self.active)
            .finish()
    }
}

impl<'d> EventLoop<'d> {
    /// A loop on a fresh [`Poller`] (`poll(2)`, on every platform).
    ///
    /// # Errors
    ///
    /// Propagates poller-construction failure (fd exhaustion).
    pub fn new() -> io::Result<Self> {
        let poller = Poller::new()?;
        Ok(EventLoop {
            core: Core {
                poller,
                wheel: TimerWheel::new(Instant::now(), TICK, BUCKETS),
                counters: Arc::default(),
                buf: vec![0u8; 65_535].into_boxed_slice(),
            },
            commands: SubmitQueue::new(),
            sources: Vec::new(),
            active: 0,
        })
    }

    /// The loop-level counters (wakeups, timer fires, spurious
    /// readiness), readable while the loop runs.
    pub fn counters(&self) -> Arc<EngineStats<AtomicU64>> {
        Arc::clone(&self.core.counters)
    }

    fn alloc(&mut self) -> usize {
        self.sources.push(None);
        self.sources.len() - 1
    }

    /// Adds one CE UDP ingress, the receiving end of the front link.
    /// The socket is made non-blocking; an update is admitted only if
    /// its seqno advances its variable's high-water mark (reordering and
    /// duplication become loss), and every admitted update is handed to
    /// `deliver` on the loop thread, in arrival order. Every Fin is
    /// echoed to its sender. The ingress retires once `expected_fins`
    /// distinct Fins arrived, or after `idle_timeout` with no datagram.
    ///
    /// # Errors
    ///
    /// Propagates socket-configuration and registration failures.
    pub fn add_front_ingress(
        &mut self,
        sock: UdpSocket,
        expected_fins: usize,
        idle_timeout: Duration,
        deliver: impl FnMut(Update) + Send + 'd,
    ) -> io::Result<Arc<IngressStats<AtomicU64>>> {
        sock.set_nonblocking(true)?;
        let id = self.alloc();
        self.core.poller.register(sock.as_raw_fd(), Token(id), Interest::READ)?;
        let now = Instant::now();
        let timer = self.core.wheel.schedule_at(now + idle_timeout, timer_data(id, KIND_IDLE));
        let counters = Arc::default();
        let ingress = Ingress::new(expected_fins, Arc::clone(&counters));
        let source = FrontSource::new(sock, ingress, idle_timeout, Box::new(deliver), timer, now);
        self.sources[id] = Some(Source::Front(source));
        self.active += 1;
        Ok(counters)
    }

    /// Adds the AD-side alert listener, the receiving end of every
    /// back link. Accepted connections (reconnects included) become
    /// their own sources; each connection's alerts are handed to
    /// `deliver` on the loop thread in the order sent, and a connection
    /// whose stream cannot be framed is closed. The listener retires
    /// once `expected_fins` distinct Fins arrived, or after
    /// `idle_timeout` with no connection or frame.
    ///
    /// # Errors
    ///
    /// Propagates socket-configuration and registration failures.
    pub fn add_alert_listener(
        &mut self,
        listener: TcpListener,
        expected_fins: usize,
        idle_timeout: Duration,
        deliver: impl FnMut(Alert) + Send + 'd,
    ) -> io::Result<Arc<ListenerStats<AtomicU64>>> {
        listener.set_nonblocking(true)?;
        let id = self.alloc();
        self.core.poller.register(listener.as_raw_fd(), Token(id), Interest::READ)?;
        let now = Instant::now();
        let timer = self.core.wheel.schedule_at(now + idle_timeout, timer_data(id, KIND_IDLE));
        let counters = Arc::default();
        let fold = AlertFold::new(expected_fins, Arc::clone(&counters));
        let source =
            ListenerSource::new(listener, fold, idle_timeout, Box::new(deliver), timer, now);
        self.sources[id] = Some(Source::Listener(source));
        self.active += 1;
        Ok(counters)
    }

    /// Adds one CE → AD back link. The initial connect happens here,
    /// on the caller thread; everything after (severs, reconnects, the
    /// lossless drain) runs as a state machine on the loop.
    ///
    /// # Errors
    ///
    /// Propagates the initial connect failure — a back link that never
    /// existed is a deployment error, not an outage to ride out.
    pub fn add_back_link(&mut self, spec: BackLinkSpec) -> io::Result<EventedBackLink> {
        let id = self.alloc();
        let (done_tx, done_rx) = rcm_sync::chan::unbounded();
        let source = BackSource::open(spec, &mut self.core, id, done_tx)?;
        let counters = source.counters();
        self.sources[id] = Some(Source::Back(source));
        self.active += 1;
        Ok(EventedBackLink::new(
            id,
            self.commands.clone(),
            self.core.poller.waker(),
            done_rx,
            counters,
        ))
    }

    /// Runs until every primary source has retired: fronts and
    /// listeners when their Fins (or idle backstops) arrive, back
    /// links when their owner finishes or abandons them. Call from a
    /// dedicated thread; the handles returned by `add_*` remain the
    /// caller-side API.
    pub fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut fired: Vec<u64> = Vec::new();
        let mut cmds: Vec<Command> = Vec::new();
        while self.active > 0 {
            self.commands.drain(&mut cmds);
            for cmd in cmds.drain(..) {
                self.handle_command(cmd);
            }
            fired.clear();
            let fires = self.core.wheel.advance(Instant::now(), &mut fired);
            if fires > 0 {
                self.core.counters.timer_fires.fetch_add(fires as u64, Ordering::SeqCst);
            }
            for data in fired.drain(..) {
                self.handle_timer(data);
            }
            if self.active == 0 {
                break;
            }
            // No deadline pending means the wait parks until readiness
            // or an explicit wake — the waker covers submits that race
            // with `prepare_sleep`.
            let timeout = self.core.wheel.next_deadline().map(|d| d - Instant::now());
            if !self.commands.prepare_sleep() {
                continue;
            }
            let waited = self.core.poller.wait(&mut events, timeout);
            self.commands.wake_done();
            if waited.is_err() {
                // A broken poller cannot make progress; bail rather
                // than spin. Dropping the sources closes every socket
                // and unblocks finish() callers via their channels.
                return;
            }
            self.core.counters.wakeups.fetch_add(1, Ordering::SeqCst);
            for &ev in &events {
                if ev.token != WAKE_TOKEN {
                    self.dispatch_event(ev);
                }
            }
        }
    }

    fn handle_command(&mut self, cmd: Command) {
        let (id, is_send) = match &cmd {
            Command::Send { id, .. } => (*id, true),
            Command::Finish { id } | Command::Abandon { id } => (*id, false),
        };
        let Some(slot) = self.sources.get_mut(id) else { return };
        // A command for a retired link (send-after-finish) is dropped;
        // the handle's own `finished` flag keeps finish/abandon from
        // waiting on an acknowledgement that cannot come.
        let Some(source) = slot.take() else { return };
        let Source::Back(mut back) = source else {
            *slot = Some(source);
            return;
        };
        let done = match cmd {
            Command::Send { alert, .. } => back.on_send(&mut self.core, id, alert),
            Command::Finish { .. } => back.on_finish(&mut self.core, id),
            Command::Abandon { .. } => back.on_abandon(&mut self.core, id),
        };
        debug_assert!(!is_send || !done, "a send never retires the link");
        if done {
            self.active -= 1;
        } else {
            self.sources[id] = Some(Source::Back(back));
        }
    }

    fn handle_timer(&mut self, data: u64) {
        let id = (data >> 2) as usize;
        let kind = data & 0b11;
        let Some(slot) = self.sources.get_mut(id) else { return };
        let Some(source) = slot.take() else { return };
        match source {
            Source::Front(mut front) if kind == KIND_IDLE => {
                if front.on_idle(&mut self.core, id) {
                    self.active -= 1;
                } else {
                    self.sources[id] = Some(Source::Front(front));
                }
            }
            Source::Listener(mut listener) if kind == KIND_IDLE => {
                if listener.on_idle(&mut self.core, id) {
                    self.finish_listener(listener);
                } else {
                    self.sources[id] = Some(Source::Listener(listener));
                }
            }
            Source::Back(mut back) => {
                if back.on_timer(&mut self.core, id, kind) {
                    self.active -= 1;
                } else {
                    self.sources[id] = Some(Source::Back(back));
                }
            }
            // A slot outliving its timer kind is a stale fire; put the
            // source back untouched.
            other => *slot = Some(other),
        }
    }

    fn dispatch_event(&mut self, ev: Event) {
        let id = ev.token.0;
        let Some(slot) = self.sources.get_mut(id) else { return };
        let Some(source) = slot.take() else { return };
        match source {
            Source::Front(mut front) => {
                if front.on_readable(&mut self.core) {
                    self.active -= 1;
                } else {
                    self.sources[id] = Some(Source::Front(front));
                }
            }
            Source::Back(mut back) => {
                if back.on_event(&mut self.core, id, ev) {
                    self.active -= 1;
                } else {
                    self.sources[id] = Some(Source::Back(back));
                }
            }
            Source::Listener(mut listener) => {
                let accepted = listener.accept_ready(&mut self.core);
                for (stream, reader) in accepted {
                    let cid = self.alloc();
                    let fd = stream.as_raw_fd();
                    if self.core.poller.register(fd, Token(cid), Interest::READ).is_ok() {
                        listener.track_conn(cid);
                        self.sources[cid] = Some(Source::Conn(ConnSource::new(stream, reader, id)));
                    }
                }
                self.sources[id] = Some(Source::Listener(listener));
            }
            Source::Conn(mut conn) => {
                let lid = conn.listener_id();
                let (events, closed) = conn.on_readable(&mut self.core);
                if closed {
                    conn.close(&mut self.core);
                } else {
                    self.sources[id] = Some(Source::Conn(conn));
                }
                // Routed only after the conn slot is settled, so the
                // listener (a different slot) can be borrowed freely.
                self.route_conn_events(lid, events);
            }
        }
    }

    fn route_conn_events(&mut self, lid: usize, events: Vec<StreamEvent>) {
        if events.is_empty() {
            return;
        }
        let Some(slot) = self.sources.get_mut(lid) else { return };
        let listener = match slot.take() {
            Some(Source::Listener(listener)) => listener,
            other => {
                *slot = other;
                return;
            }
        };
        let mut listener = listener;
        if listener.handle_events(events) {
            self.finish_listener(listener);
        } else {
            self.sources[lid] = Some(Source::Listener(listener));
        }
    }

    /// Retires a listener: closes the accept socket, then closes every
    /// connection that rode on it. Dropping the listener drops the
    /// caller's `deliver` closure, which is what ends the downstream
    /// (the AD body sees its channel close).
    fn finish_listener(&mut self, mut listener: ListenerSource<'d>) {
        listener.shutdown(&mut self.core);
        for cid in listener.take_conns() {
            match self.sources.get_mut(cid).and_then(Option::take) {
                Some(Source::Conn(mut conn)) => conn.close(&mut self.core),
                Some(other) => self.sources[cid] = Some(other),
                None => {}
            }
        }
        self.active -= 1;
    }
}
