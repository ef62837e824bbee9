//! The AD listener: the alert-stream contract ([`AlertStream`],
//! [`AlertFold`]) on the loop.
//!
//! Each accepted connection is its own [`ConnSource`] slot on the loop;
//! a conn's readable handler returns the events of its reads as plain
//! values, and the loop hands them to the owning [`ListenerSource`]
//! *after* the conn slot is settled — two slots are never borrowed at
//! once, so no shared state (and no lock) connects them.

// LOCK ORDER: no locks — the acceptor owns its sockets; results travel by channel.

use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;

use rcm_core::Alert;
use rcm_poll::TimerKey;
use rcm_sync::atomic::Ordering;
use rcm_sync::time::{Duration, Instant};

use super::event_loop::{timer_data, Core, KIND_IDLE};
use crate::receive::{AlertFold, AlertStream, StreamEvent};

/// The accept socket plus the listener-level termination state.
pub(super) struct ListenerSource<'d> {
    listener: TcpListener,
    deliver: Box<dyn FnMut(Alert) + Send + 'd>,
    fold: AlertFold,
    idle_timeout: Duration,
    last_activity: Instant,
    idle_timer: TimerKey,
    /// Slab slots of the connections riding on this listener.
    conns: Vec<usize>,
}

impl<'d> ListenerSource<'d> {
    pub(super) fn new(
        listener: TcpListener,
        fold: AlertFold,
        idle_timeout: Duration,
        deliver: Box<dyn FnMut(Alert) + Send + 'd>,
        idle_timer: TimerKey,
        now: Instant,
    ) -> Self {
        ListenerSource {
            listener,
            deliver,
            fold,
            idle_timeout,
            last_activity: now,
            idle_timer,
            conns: Vec::new(),
        }
    }

    pub(super) fn track_conn(&mut self, id: usize) {
        self.conns.push(id);
    }

    pub(super) fn take_conns(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.conns)
    }

    /// Accepts everything pending and returns the new streams, already
    /// non-blocking, each with its read side; the loop gives each a
    /// slot and registers it.
    pub(super) fn accept_ready(&mut self, core: &mut Core) -> Vec<(TcpStream, AlertStream)> {
        let mut accepted = Vec::new();
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.last_activity = Instant::now();
                    let reader = self.fold.accepted();
                    if stream.set_nonblocking(true).is_ok() {
                        accepted.push((stream, reader));
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
    pub(super) fn handle_events(&mut self, events: Vec<StreamEvent>) -> bool {
        self.last_activity = Instant::now();
        self.fold.fold(events, &mut self.deliver);
        self.fold.done()
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

/// One accepted back-link connection: a stream plus its read side.
pub(super) struct ConnSource {
    stream: TcpStream,
    reader: AlertStream,
    listener: usize,
}

impl ConnSource {
    pub(super) fn new(stream: TcpStream, reader: AlertStream, listener: usize) -> Self {
        ConnSource { stream, reader, listener }
    }

    pub(super) fn listener_id(&self) -> usize {
        self.listener
    }

    /// Reads everything available. Returns the events of the frames
    /// read and whether the connection is finished (EOF, socket error,
    /// or a desynchronized stream).
    pub(super) fn on_readable(&mut self, core: &mut Core) -> (Vec<StreamEvent>, bool) {
        let mut events = Vec::new();
        let mut progressed = false;
        let mut closed = false;
        loop {
            match self.stream.read(&mut core.buf) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => {
                    progressed = true;
                    if !self.reader.read(&core.buf[..n], &mut events) {
                        closed = true;
                        break;
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
        (events, closed)
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
