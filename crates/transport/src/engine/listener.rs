//! The evented AD listener: `TcpAlertListener`'s contract without the
//! per-connection reader threads.
//!
//! The threaded listener spawns one reader thread per accepted back
//! link and funnels events through a channel. Here each accepted
//! connection is its own [`ConnSource`] slot on the loop; a conn's
//! readable handler returns its decoded events as plain values and
//! the loop routes them to the owning [`ListenerSource`] *after* the
//! conn slot is settled — two slots are never borrowed at once, so no
//! shared state (and no lock) connects them.

// LOCK ORDER: no locks — the acceptor owns its sockets; results travel by channel.

use std::collections::HashSet;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;

use rcm_core::Alert;
use rcm_poll::TimerKey;
use rcm_sync::atomic::Ordering;
use rcm_sync::time::{Duration, Instant};
use rcm_sync::Arc;

use super::counters::ListenerCounters;
use super::event_loop::{timer_data, Core, KIND_IDLE};
use crate::wire::{self, FrameBuf, Message};

/// What one conn's readable round produced, for the listener to fold.
pub(super) enum ConnOut {
    Alert(Alert),
    Fin(u32),
    DecodeError,
}

/// The accept socket plus the listener-level termination state.
pub(super) struct ListenerSource {
    listener: TcpListener,
    deliver: Box<dyn FnMut(Alert) + Send>,
    counters: Arc<ListenerCounters>,
    fins: HashSet<u32>,
    expected_fins: usize,
    idle_timeout: Duration,
    last_activity: Instant,
    idle_timer: TimerKey,
    /// Slab slots of the connections riding on this listener.
    conns: Vec<usize>,
}

impl ListenerSource {
    pub(super) fn new(
        listener: TcpListener,
        expected_fins: usize,
        idle_timeout: Duration,
        deliver: Box<dyn FnMut(Alert) + Send>,
        idle_timer: TimerKey,
        now: Instant,
    ) -> Self {
        ListenerSource {
            listener,
            deliver,
            counters: Arc::new(ListenerCounters::default()),
            fins: HashSet::new(),
            expected_fins,
            idle_timeout,
            last_activity: now,
            idle_timer,
            conns: Vec::new(),
        }
    }

    pub(super) fn counters(&self) -> Arc<ListenerCounters> {
        Arc::clone(&self.counters)
    }

    pub(super) fn track_conn(&mut self, id: usize) {
        self.conns.push(id);
    }

    pub(super) fn take_conns(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.conns)
    }

    /// Accepts everything pending and returns the new streams, already
    /// non-blocking; the loop gives each a slot and registers it.
    pub(super) fn accept_ready(&mut self, core: &mut Core) -> Vec<TcpStream> {
        let mut accepted = Vec::new();
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.last_activity = Instant::now();
                    self.counters.connections.fetch_add(1, Ordering::SeqCst);
                    if stream.set_nonblocking(true).is_ok() {
                        accepted.push(stream);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        if accepted.is_empty() {
            core.counters.spurious_readiness.fetch_add(1, Ordering::SeqCst);
        }
        accepted
    }

    /// Folds one conn's events in. Returns `true` when every expected
    /// Fin has arrived and the listener should retire.
    pub(super) fn handle_outs(&mut self, outs: Vec<ConnOut>) -> bool {
        self.last_activity = Instant::now();
        for out in outs {
            match out {
                ConnOut::Alert(alert) => {
                    self.counters.alerts.fetch_add(1, Ordering::SeqCst);
                    (self.deliver)(alert);
                }
                ConnOut::Fin(node) => {
                    if self.fins.insert(node) {
                        self.counters.fins.fetch_add(1, Ordering::SeqCst);
                    }
                }
                ConnOut::DecodeError => {
                    self.counters.decode_errors.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        self.fins.len() >= self.expected_fins
    }

    /// Idle-backstop fire, lazily rescheduled like the front's.
    pub(super) fn on_idle(&mut self, core: &mut Core, id: usize) -> bool {
        let now = Instant::now();
        if now - self.last_activity >= self.idle_timeout {
            return true;
        }
        self.idle_timer = core
            .wheel
            .schedule_at(self.last_activity + self.idle_timeout, timer_data(id, KIND_IDLE));
        false
    }

    /// Deregisters the accept socket; the loop closes the conns.
    pub(super) fn shutdown(&mut self, core: &mut Core) {
        core.poller.deregister(self.listener.as_raw_fd());
        core.wheel.cancel(self.idle_timer);
    }
}

/// One accepted back-link connection: a stream plus its frame
/// reassembly buffer.
pub(super) struct ConnSource {
    stream: TcpStream,
    frames: FrameBuf,
    listener: usize,
    counters: Arc<ListenerCounters>,
}

impl ConnSource {
    pub(super) fn new(stream: TcpStream, listener: usize, counters: Arc<ListenerCounters>) -> Self {
        ConnSource { stream, frames: FrameBuf::new(), listener, counters }
    }

    pub(super) fn listener_id(&self) -> usize {
        self.listener
    }

    /// Reads and decodes everything available. Returns the decoded
    /// events and whether the connection is finished (EOF, socket
    /// error, or a fatal decode desync).
    pub(super) fn on_readable(&mut self, core: &mut Core) -> (Vec<ConnOut>, bool) {
        let mut outs = Vec::new();
        let mut progressed = false;
        let mut closed = false;
        'read: loop {
            match self.stream.read(&mut core.buf) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => {
                    progressed = true;
                    self.counters.bytes_received.fetch_add(n as u64, Ordering::SeqCst);
                    self.frames.push(&core.buf[..n]);
                    loop {
                        match wire::decode(&mut self.frames) {
                            Ok(Some(Message::Alert(alert))) => outs.push(ConnOut::Alert(alert)),
                            Ok(Some(Message::Fin { node })) => outs.push(ConnOut::Fin(node)),
                            Ok(Some(Message::Hello { .. })) => {}
                            Ok(Some(
                                Message::Update(_) | Message::UpdateBatch(_) | Message::Derived(_),
                            )) => {
                                // An update (raw or derived) on a back
                                // link is protocol abuse; count it,
                                // keep the stream.
                                outs.push(ConnOut::DecodeError);
                            }
                            Ok(None) => break,
                            Err(_) => {
                                // A desynchronized stream cannot be
                                // trusted again.
                                outs.push(ConnOut::DecodeError);
                                closed = true;
                                break 'read;
                            }
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    closed = true;
                    break;
                }
            }
        }
        if !progressed && !closed {
            core.counters.spurious_readiness.fetch_add(1, Ordering::SeqCst);
        }
        (outs, closed)
    }

    pub(super) fn close(&mut self, core: &mut Core) {
        core.poller.deregister(self.stream.as_raw_fd());
    }
}

#[cfg(test)]
mod tests {
    use std::io::Write;
    use std::net::TcpListener;

    use rcm_core::{Alert, AlertId, CeId, CondId, HistoryFingerprint, SeqNo, Update, VarId};
    use rcm_sync::time::{Duration, Instant};

    use crate::engine::EventLoop;
    use crate::wire::{self, Message, BINARY_WIRE_VERSION, HEADER_LEN};

    fn alert(index: u64) -> Alert {
        Alert::new(
            CondId::new(0),
            HistoryFingerprint::single(VarId::new(0), vec![SeqNo::new(index)]),
            vec![Update::new(VarId::new(0), index, index as f64)],
            AlertId { ce: CeId::new(0), index },
        )
    }

    /// Tag 5 was `AlertBatch`. A back-link stream carrying one now
    /// desynchronizes like any unknown tag: the alert before it is
    /// displayed, the frame counts as one decode error, and the
    /// connection closes with the alert after it unread.
    #[test]
    fn a_retired_alert_batch_frame_closes_the_stream_after_the_alerts_before_it() {
        let mut el = EventLoop::new().expect("event loop");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (tx, rx) = rcm_sync::chan::unbounded();
        let idle = Duration::from_millis(500);
        let counters = el
            .add_alert_listener(listener, 1, idle, move |a| {
                let _ = tx.send(a);
            })
            .expect("register listener");
        let engine = rcm_sync::thread::spawn(move || el.run());

        // The retired frame: a batch of one alert, as the old encoder
        // wrote it.
        let one = wire::encode(&Message::Alert(alert(2))).expect("encodes");
        let mut batch = vec![5, 1];
        batch.extend_from_slice(&one[HEADER_LEN + 1..]);
        let mut stream_bytes = wire::encode(&Message::Alert(alert(1))).expect("encodes");
        stream_bytes.extend(wire::raw_frame(BINARY_WIRE_VERSION, &batch));
        stream_bytes.extend(wire::encode(&Message::Alert(alert(3))).expect("encodes"));

        // Blocking again once the connect is under way: a write waits
        // for the handshake.
        let mut stream = rcm_poll::sys::connect_nonblocking(addr).expect("connect");
        stream.set_nonblocking(false).expect("blocking mode");
        let begun = Instant::now();
        assert_eq!(stream.write(&stream_bytes).expect("write"), stream_bytes.len());
        // The listener hangs up on the desync, well before the idle
        // backstop would end the loop.
        let mut buf = [0u8; 1];
        let _ = std::io::Read::read(&mut stream, &mut buf);
        assert!(begun.elapsed() < idle / 2, "the connection stayed open");
        engine.join().expect("loop thread");

        let got: Vec<Alert> = rx.iter().collect();
        assert_eq!(got.iter().map(|a| a.id.index).collect::<Vec<_>>(), [1]);
        let stats = counters.snapshot();
        assert_eq!((stats.alerts, stats.decode_errors, stats.connections), (1, 1, 1));
    }
}
