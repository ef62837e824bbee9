//! Three names over the [`EventLoop`], kept because the benchmark's
//! `transport.threaded.*` hop probes call them (ROADMAP item 1 drops the
//! probes and this module). Each is one registration and nothing else:
//! the two receivers run their loop on the caller's thread, the back
//! link on a thread of its own until it finishes. Errors are the
//! socket's and the loop's, as from the engine.
//!
//! LOCK ORDER: no locks — the engine's handles hold channels and atomics.

use std::io;
use std::net::{SocketAddr, TcpListener, UdpSocket};

use rcm_core::{Alert, Update};
use rcm_net::Backoff;
use rcm_sync::thread::JoinHandle;
use rcm_sync::time::Duration;

use crate::engine::{BackLinkSpec, EventLoop, EventedBackLink};
use crate::report::{IngressStats, ListenerStats};

/// A CE's UDP ingress ([`EventLoop::add_front_ingress`]).
#[derive(Debug)]
pub struct UdpFrontReceiver {
    sock: UdpSocket,
    expected_fins: usize,
    idle_timeout: Duration,
}

impl UdpFrontReceiver {
    /// Binds the socket; by default one Fin or 5 s idle end the run.
    pub fn bind(addr: SocketAddr) -> io::Result<Self> {
        let idle_timeout = Duration::from_secs(5);
        Ok(UdpFrontReceiver { sock: UdpSocket::bind(addr)?, expected_fins: 1, idle_timeout })
    }

    /// How many distinct Fins end the run.
    #[must_use]
    pub fn expected_fins(self, expected_fins: usize) -> Self {
        UdpFrontReceiver { expected_fins, ..self }
    }

    /// How long without a datagram ends the run.
    #[must_use]
    pub fn idle_timeout(self, idle_timeout: Duration) -> Self {
        UdpFrontReceiver { idle_timeout, ..self }
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.sock.local_addr()
    }

    /// Runs the ingress to its end, handing each admitted update to
    /// `deliver`; returns the final counters (zero if the loop cannot
    /// start).
    pub fn run(self, mut deliver: impl FnMut(Update) + Send) -> IngressStats {
        let Ok(mut el) = EventLoop::new() else { return IngressStats::default() };
        let each = move |round: &mut Vec<Update>| round.drain(..).for_each(&mut deliver);
        let Ok(counters) =
            el.add_front_ingress(self.sock, self.expected_fins, self.idle_timeout, each)
        else {
            return IngressStats::default();
        };
        el.run();
        counters.snapshot()
    }
}

/// The AD's alert listener ([`EventLoop::add_alert_listener`]).
#[derive(Debug)]
pub struct TcpAlertListener {
    listener: TcpListener,
    expected_fins: usize,
    idle_timeout: Duration,
}

impl TcpAlertListener {
    /// Binds the listener; by default one Fin or 10 s idle end the run.
    pub fn bind(addr: SocketAddr) -> io::Result<Self> {
        let idle_timeout = Duration::from_secs(10);
        Ok(TcpAlertListener { listener: TcpListener::bind(addr)?, expected_fins: 1, idle_timeout })
    }

    /// How many distinct Fins end the run.
    #[must_use]
    pub fn expected_fins(self, expected_fins: usize) -> Self {
        TcpAlertListener { expected_fins, ..self }
    }

    /// How long without a connection or frame ends the run.
    #[must_use]
    pub fn idle_timeout(self, idle_timeout: Duration) -> Self {
        TcpAlertListener { idle_timeout, ..self }
    }

    /// The bound address.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the listener to its end, handing each alert to `deliver`;
    /// returns the final counters (zero if the loop cannot start).
    pub fn run(self, deliver: impl FnMut(Alert) + Send) -> ListenerStats {
        let Ok(mut el) = EventLoop::new() else { return ListenerStats::default() };
        let Ok(counters) =
            el.add_alert_listener(self.listener, self.expected_fins, self.idle_timeout, deliver)
        else {
            return ListenerStats::default();
        };
        el.run();
        counters.snapshot()
    }
}

/// A CE's back link ([`EventLoop::add_back_link`]) with its loop on a
/// thread of its own, joined by `finish` or by the drop of an unfinished
/// link.
#[derive(Debug)]
pub struct TcpBackLink {
    link: EventedBackLink,
    engine: Option<JoinHandle<()>>,
}

impl TcpBackLink {
    /// Connects to the listener at `peer` as CE replica `node`.
    pub fn connect(peer: SocketAddr, node: u32, backoff: Backoff) -> io::Result<Self> {
        let mut el = EventLoop::new()?;
        let link = el.add_back_link(BackLinkSpec::new(peer, node, backoff))?;
        Ok(TcpBackLink { link, engine: Some(rcm_sync::thread::spawn(move || el.run())) })
    }

    /// Hands one alert to the link; never blocks.
    pub fn send_alert(&mut self, alert: Alert) {
        self.link.send_alert(alert);
    }

    /// Drains the link losslessly, sends its Fin and joins the loop.
    ///
    /// # Panics
    ///
    /// Panics if the loop thread panicked.
    pub fn finish(&mut self) {
        self.link.finish();
        if let Some(engine) = self.engine.take() {
            engine.join().expect("the back link's loop thread panicked");
        }
    }
}

impl Drop for TcpBackLink {
    fn drop(&mut self) {
        self.link.finish();
        if let Some(engine) = self.engine.take() {
            // A drop must not panic: the loop's panic is already printed.
            let _ = engine.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use rcm_core::{AlertId, CeId, CondId, HistoryFingerprint, SeqNo, VarId};
    use rcm_sync::chan::unbounded;

    use super::*;
    use crate::udp::UdpFrontLink;

    const IDLE: Duration = Duration::from_secs(5);

    fn alert(index: u64) -> Alert {
        Alert::new(
            CondId::new(0),
            HistoryFingerprint::single(VarId::new(0), vec![SeqNo::new(index)]),
            vec![Update::new(VarId::new(0), index, 1.0)],
            AlertId { ce: CeId::new(0), index },
        )
    }

    fn backoff() -> Backoff {
        Backoff::new(Duration::from_micros(200), Duration::from_millis(5), 11)
    }

    fn localhost() -> SocketAddr {
        "127.0.0.1:0".parse().expect("literal addr")
    }

    /// Both hops driven the way the benchmark's probes drive them: the
    /// far side runs on a thread with a closure that borrows its sender,
    /// and every hand-off is received before the next is sent.
    #[test]
    fn the_shims_carry_a_ping_pong_as_the_hop_probes_drive_them() {
        let receiver =
            UdpFrontReceiver::bind(localhost()).expect("bind").expected_fins(1).idle_timeout(IDLE);
        let addr = receiver.local_addr().expect("addr");
        let (receipt_tx, receipts) = unbounded();
        let far = rcm_sync::thread::spawn(move || {
            receiver.run(|u| {
                let _ = receipt_tx.send(u.seqno.get());
            })
        });
        let mut link = UdpFrontLink::connect(addr, 0).expect("connect");
        for i in 1..=20 {
            assert!(link.send_update(Update::new(VarId::new(0), i, 1.0)), "loopback accepts");
            assert_eq!(receipts.recv().expect("a receipt per hand-off"), i);
        }
        link.finish(3);
        let front = far.join().expect("receiver thread");
        assert_eq!((front.delivered, front.fins, front.decode_errors), (20, 1, 0));

        let listener =
            TcpAlertListener::bind(localhost()).expect("bind").expected_fins(1).idle_timeout(IDLE);
        let addr = listener.local_addr().expect("addr");
        let (receipt_tx, receipts) = unbounded();
        let far = rcm_sync::thread::spawn(move || {
            listener.run(|a| {
                let _ = receipt_tx.send(a.id.index);
            })
        });
        let mut back = TcpBackLink::connect(addr, 0, backoff()).expect("connect");
        for i in 0..20 {
            back.send_alert(alert(i));
            assert_eq!(receipts.recv().expect("a receipt per hand-off"), i);
        }
        back.finish();
        let heard = far.join().expect("listener thread");
        assert_eq!((heard.alerts, heard.fins, heard.connections), (20, 1, 1));
    }

    /// Dropping a link that was never finished finishes it: its alerts
    /// and its Fin reach the listener, and the loop thread is joined.
    #[test]
    fn dropping_an_unfinished_back_link_finishes_it() {
        let listener = TcpAlertListener::bind(localhost()).expect("bind").idle_timeout(IDLE);
        let addr = listener.local_addr().expect("addr");
        let far = rcm_sync::thread::spawn(move || listener.run(|_| {}));
        let mut back = TcpBackLink::connect(addr, 0, backoff()).expect("connect");
        back.send_alert(alert(0));
        drop(back);
        let heard = far.join().expect("listener thread");
        assert_eq!((heard.alerts, heard.fins), (1, 1));
    }
}
