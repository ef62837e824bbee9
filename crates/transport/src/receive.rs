//! The receive side of both link types, written once for the engine.
//!
//! The paper's system has two link types, each with one receiver
//! contract. The front link is lossy and in order: its receiver admits
//! an update only if its seqno advances its variable's high-water mark
//! ([`SeqGate`]), so reordering and duplication become loss. The back
//! link is lossless and FIFO: its receiver reads alert frames off a
//! stream, in order, and closes a stream it can no longer frame.
//!
//! [`Ingress`] is the first contract and [`AlertStream`] with
//! [`AlertFold`] the second, as plain state fed one datagram or one
//! read at a time. The engine's ingress and listener sources in
//! `engine/` keep only their socket loop around them: a drain until
//! `WouldBlock` on each readable event, plus a wheel timer for the idle
//! backstop. [`Outbox`](crate::Outbox) is the same thing for the back
//! link's send side.

// LOCK ORDER: no locks — the counters are atomics.

use std::collections::HashSet;

use rcm_core::{Alert, Update};
use rcm_sync::atomic::{AtomicU64, Ordering};
use rcm_sync::Arc;

use crate::gate::SeqGate;
use crate::report::{IngressStats, ListenerStats};
use crate::wire::{self, FrameBuf, Message};

/// What a datagram asks of the socket loop around an [`Ingress`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Heard {
    /// Updates, delivered or dropped as stale, or abuse, counted:
    /// nothing for the loop to do.
    Data,
    /// A Fin: the loop echoes the datagram, byte for byte, to its
    /// sender, so the sender can stop repeating it. `last` when every
    /// expected Fin has now arrived and the ingress is done.
    Fin {
        /// Whether the ingress is done.
        last: bool,
    },
}

/// One CE's front-link ingress: the seqno gate, the distinct Fins seen
/// and the counters.
pub(crate) struct Ingress {
    gate: SeqGate,
    fins: HashSet<u32>,
    expected_fins: usize,
    counters: Arc<IngressStats<AtomicU64>>,
}

impl Ingress {
    /// An ingress that is done after `expected_fins` distinct Fins (one
    /// per feed), counting into `counters`.
    pub(crate) fn new(expected_fins: usize, counters: Arc<IngressStats<AtomicU64>>) -> Self {
        Ingress { gate: SeqGate::new(), fins: HashSet::new(), expected_fins, counters }
    }

    /// Handles one datagram. Every update it admits is appended to
    /// `round`, in datagram order: a batch is admitted exactly as if its
    /// updates had arrived one datagram each. An alert or hello on a
    /// front link is protocol abuse, counted with the undecodable
    /// garbage.
    pub(crate) fn datagram(&mut self, datagram: &[u8], round: &mut Vec<Update>) -> Heard {
        self.counters.frames_received.fetch_add(1, Ordering::SeqCst);
        self.counters.bytes_received.fetch_add(datagram.len() as u64, Ordering::SeqCst);
        match wire::decode_datagram(datagram) {
            Ok(Message::Update(update)) => self.admit(update, round),
            Ok(Message::UpdateBatch(updates)) => {
                for update in updates {
                    self.admit(update, round);
                }
            }
            Ok(Message::Fin { node }) => {
                if self.fins.insert(node) {
                    self.counters.fins.fetch_add(1, Ordering::SeqCst);
                }
                return Heard::Fin { last: self.fins.len() >= self.expected_fins };
            }
            Ok(_) | Err(_) => {
                self.counters.decode_errors.fetch_add(1, Ordering::SeqCst);
            }
        }
        Heard::Data
    }

    fn admit(&mut self, update: Update, round: &mut Vec<Update>) {
        if self.gate.admit(&update) {
            self.counters.delivered.fetch_add(1, Ordering::SeqCst);
            round.push(update);
        } else {
            self.counters.dropped_stale.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// One thing a back-link stream said, for its listener to fold.
#[derive(Debug)]
pub(crate) enum StreamEvent {
    /// An alert frame.
    Alert(Alert),
    /// A CE's end-of-stream marker.
    Fin(u32),
    /// An update on a back link, or a frame that failed to decode.
    DecodeError,
}

/// One accepted back-link connection's read side: frame reassembly and
/// the classification of each frame.
pub(crate) struct AlertStream {
    frames: FrameBuf,
    counters: Arc<ListenerStats<AtomicU64>>,
}

impl AlertStream {
    /// Takes `bytes` just read off the connection and appends the events
    /// of the frames they complete to `events`. Returns `false` once the
    /// stream has desynchronized: a stream that cannot be framed cannot
    /// be trusted again, so the connection must close. An update on a
    /// back link is counted and the stream kept.
    pub(crate) fn read(&mut self, bytes: &[u8], events: &mut Vec<StreamEvent>) -> bool {
        self.counters.bytes_received.fetch_add(bytes.len() as u64, Ordering::SeqCst);
        self.frames.push(bytes);
        loop {
            match wire::decode(&mut self.frames) {
                Ok(Some(Message::Alert(alert))) => events.push(StreamEvent::Alert(alert)),
                Ok(Some(Message::Fin { node })) => events.push(StreamEvent::Fin(node)),
                Ok(Some(Message::Hello { .. })) => {}
                Ok(Some(Message::Update(_) | Message::UpdateBatch(_) | Message::Derived(_))) => {
                    events.push(StreamEvent::DecodeError);
                }
                Ok(None) => return true,
                Err(_) => {
                    events.push(StreamEvent::DecodeError);
                    return false;
                }
            }
        }
    }
}

/// The AD listener's side of every stream: the distinct Fins seen and
/// the counters.
pub(crate) struct AlertFold {
    fins: HashSet<u32>,
    expected_fins: usize,
    counters: Arc<ListenerStats<AtomicU64>>,
}

impl AlertFold {
    /// A listener that is done after `expected_fins` distinct Fins (one
    /// per replica), counting into `counters`.
    pub(crate) fn new(expected_fins: usize, counters: Arc<ListenerStats<AtomicU64>>) -> Self {
        AlertFold { fins: HashSet::new(), expected_fins, counters }
    }

    /// Counts a connection just accepted and returns its read side.
    pub(crate) fn accepted(&self) -> AlertStream {
        self.counters.connections.fetch_add(1, Ordering::SeqCst);
        AlertStream { frames: FrameBuf::new(), counters: Arc::clone(&self.counters) }
    }

    /// Folds one stream's `events` in, in order, handing every alert to
    /// `deliver`.
    pub(crate) fn fold(&mut self, events: Vec<StreamEvent>, deliver: &mut impl FnMut(Alert)) {
        for event in events {
            match event {
                StreamEvent::Alert(alert) => {
                    self.counters.alerts.fetch_add(1, Ordering::SeqCst);
                    deliver(alert);
                }
                StreamEvent::Fin(node) => {
                    if self.fins.insert(node) {
                        self.counters.fins.fetch_add(1, Ordering::SeqCst);
                    }
                }
                StreamEvent::DecodeError => {
                    self.counters.decode_errors.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
    }

    /// Whether every expected Fin has arrived.
    pub(crate) fn done(&self) -> bool {
        self.fins.len() >= self.expected_fins
    }
}

/// The engine's receivers, played hostile input: each must deliver
/// exactly the expected sequence and count exactly.
#[cfg(test)]
mod tests {
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};

    use rcm_core::{AlertId, CeId, CondId, HistoryFingerprint, SeqNo, VarId};
    use rcm_sync::time::Duration;

    use crate::engine::EventLoop;
    use crate::report::{IngressStats, ListenerStats};
    use crate::wire::{self, Message};

    use super::*;

    fn u(var: u32, seqno: u64) -> Update {
        Update::new(VarId::new(var), seqno, seqno as f64)
    }

    fn alert(index: u64) -> Alert {
        Alert::new(
            CondId::new(0),
            HistoryFingerprint::single(VarId::new(0), vec![SeqNo::new(index)]),
            vec![Update::new(VarId::new(0), index, index as f64)],
            AlertId { ce: CeId::new(0), index },
        )
    }

    fn encode(msg: &Message) -> Vec<u8> {
        wire::encode(msg).expect("encodes")
    }

    const IDLE: Duration = Duration::from_secs(5);

    /// Two feeds' datagrams, hostile ones among them; the ingress
    /// expects two Fins, and node 1's is the last datagram.
    fn hostile_datagrams() -> Vec<Vec<u8>> {
        vec![
            encode(&Message::Update(u(0, 1))),
            encode(&Message::UpdateBatch(vec![u(0, 2), u(1, 1), u(0, 3)])),
            encode(&Message::Update(u(0, 3))), // a duplicate
            encode(&Message::Update(u(0, 2))), // reordered: overtaken by 3
            b"\x00garbage".to_vec(),
            encode(&Message::Alert(alert(1))), // an alert on a front link
            encode(&Message::Fin { node: 0 }),
            encode(&Message::Fin { node: 0 }), // a repeat
            encode(&Message::Update(u(1, 2))),
            encode(&Message::Fin { node: 1 }),
        ]
    }

    /// Queues the hostile datagrams on `target` before the ingress reads
    /// it, so it reads them in one known order; returns the socket they
    /// came from.
    fn queue_hostile_datagrams(target: SocketAddr) -> UdpSocket {
        let dm = UdpSocket::bind("127.0.0.1:0").expect("bind DM");
        for datagram in hostile_datagrams() {
            dm.send_to(&datagram, target).expect("send_to");
        }
        dm
    }

    /// Every datagram already queued on `sock`, in arrival order.
    fn echoes(sock: &UdpSocket) -> Vec<Vec<u8>> {
        sock.set_read_timeout(Some(Duration::from_millis(100))).expect("read timeout");
        let mut buf = [0u8; 64];
        std::iter::from_fn(|| sock.recv(&mut buf).ok().map(|n| buf[..n].to_vec())).collect()
    }

    #[test]
    fn the_ingress_delivers_and_counts_a_hostile_script_exactly() {
        let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let dm = queue_hostile_datagrams(sock.local_addr().expect("bound addr"));
        let mut got = Vec::new();
        let mut el = EventLoop::new().expect("event loop");
        let counters = el
            .add_front_ingress(sock, 2, IDLE, |round| got.append(round))
            .expect("register ingress");
        el.run();
        let heard = (got, counters.snapshot(), echoes(&dm));

        let want = vec![u(0, 1), u(0, 2), u(1, 1), u(0, 3), u(1, 2)];
        let fin = |node| encode(&Message::Fin { node });
        let bytes = hostile_datagrams().iter().map(|d| d.len() as u64).sum();
        let stats = IngressStats {
            frames_received: 10,
            delivered: 5,
            dropped_stale: 2,
            decode_errors: 2,
            fins: 2,
            bytes_received: bytes,
        };
        assert_eq!(heard, (want, stats, vec![fin(0), fin(0), fin(1)]));
    }

    /// An ingress hearing 64 links gets a receive buffer sized for them.
    /// A burst of 300 single-update datagrams arrives while `deliver` is
    /// parked on the first: more than the 256 small datagrams a default
    /// Linux buffer holds, and fewer than the 512 that twice the default
    /// holds, the least a host whose `rmem_max` is its default grants.
    /// Every update is still admitted, and then 64 Fins end the run.
    #[test]
    fn a_burst_past_a_default_buffer_arrives_while_deliver_is_parked_and_is_admitted() {
        use std::os::fd::AsRawFd;
        const LINKS: u32 = 64;
        const BURST: u64 = 300;
        let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let target = sock.local_addr().expect("bound addr");
        let fd = sock.as_raw_fd();
        let default = rcm_poll::sys::receive_buffer(fd).expect("default size");

        let (parked_tx, parked) = rcm_sync::chan::unbounded::<()>();
        let (resume, resumed) = rcm_sync::chan::unbounded::<()>();
        let dm = rcm_sync::thread::spawn(move || {
            let dm = UdpSocket::bind("127.0.0.1:0").expect("bind DM");
            let send = |msg: &Message| {
                dm.send_to(&encode(msg), target).expect("send_to");
            };
            send(&Message::Update(u(0, 1)));
            parked.recv().expect("deliver parks on the first round");
            (2..=BURST).for_each(|seqno| send(&Message::Update(u(0, seqno))));
            resume.send(()).expect("the loop waits");
            (0..LINKS).for_each(|node| send(&Message::Fin { node }));
        });
        let mut got = Vec::new();
        let admitted = &mut got;
        let mut el = EventLoop::new().expect("event loop");
        let counters = el
            .add_front_ingress(sock, LINKS as usize, IDLE, move |round| {
                if admitted.is_empty() {
                    parked_tx.send(()).expect("the DM waits");
                    resumed.recv().expect("the DM resumes the loop");
                }
                admitted.append(round);
            })
            .expect("register ingress");
        // The loop owns the socket, open until it runs.
        let granted = rcm_poll::sys::receive_buffer(fd).expect("granted size");
        assert!(granted > default, "granted {granted} B, default {default} B");
        el.run();
        dm.join().expect("DM thread");

        assert_eq!(got, (1..=BURST).map(|seqno| u(0, seqno)).collect::<Vec<_>>());
        let stats = counters.snapshot();
        assert_eq!((stats.delivered, stats.fins), (BURST, u64::from(LINKS)));
    }

    /// Plays the hostile stream at the listener at `addr`, which must
    /// expect two Fins: CE 0 sends an alert, its Fin twice, an update
    /// and garbage, and waits for the listener to hang up on the
    /// garbage; then CE 1's Fin ends the run. Returns the bytes written.
    fn play_hostile_stream(addr: SocketAddr) -> u64 {
        let mut first = encode(&Message::Hello { node: 0 });
        first.extend(encode(&Message::Alert(alert(1))));
        first.extend(encode(&Message::Fin { node: 0 }));
        first.extend(encode(&Message::Fin { node: 0 })); // a repeat
        first.extend(encode(&Message::Update(u(0, 1)))); // an update on a back link
        first.extend(b"\xffnot a frame at all"); // desynchronizes the stream
        let mut stream = TcpStream::connect(addr).expect("connect CE 0");
        stream.write_all(&first).expect("write");
        // Returns once the listener closed the connection: every event
        // of the stream has been folded by then.
        let _ = stream.read(&mut [0u8; 1]);

        let mut last = encode(&Message::Hello { node: 1 });
        last.extend(encode(&Message::Fin { node: 1 }));
        TcpStream::connect(addr).expect("connect CE 1").write_all(&last).expect("write");
        (first.len() + last.len()) as u64
    }

    #[test]
    fn the_listener_delivers_and_counts_a_hostile_stream_exactly() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut el = EventLoop::new().expect("event loop");
        let (tx, rx) = rcm_sync::chan::unbounded();
        let counters = el
            .add_alert_listener(listener, 2, IDLE, move |alert| {
                let _ = tx.send(alert);
            })
            .expect("register listener");
        let engine = rcm_sync::thread::spawn(move || el.run());
        let bytes = play_hostile_stream(addr);
        engine.join().expect("loop thread");
        let heard = (rx.iter().collect::<Vec<_>>(), counters.snapshot(), bytes);

        let stats = ListenerStats {
            connections: 2,
            alerts: 1,
            decode_errors: 2,
            fins: 2,
            bytes_received: bytes,
        };
        assert_eq!(heard, (vec![alert(1)], stats, bytes));
    }
}
