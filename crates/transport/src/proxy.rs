//! A loss-injecting UDP forwarder: the network impairment knob for
//! loopback integration tests.
//!
//! Real loopback links essentially never drop datagrams, so the
//! scripted and stochastic loss the simulator applies in-process has
//! to be injected *somewhere* on a socket path. The proxy is that
//! somewhere: DMs send to the proxy's address instead of the CE's, and
//! the proxy replays an [`rcm_net::LossModel`] — [`Scripted`] for
//! exact drop positions, [`Bernoulli`]/[`GilbertElliott`] for
//! stochastic runs — onto the real datagrams before forwarding the
//! survivors. A single forwarding thread keeps arrival order intact,
//! so a [`Scripted`] model makes the whole socket pipeline
//! deterministic.
//!
//! [`Scripted`]: rcm_net::Scripted
//! [`Bernoulli`]: rcm_net::Bernoulli
//! [`GilbertElliott`]: rcm_net::GilbertElliott
//!
//! LOCK ORDER: no locks — the counters are atomics.

use std::io;
use std::net::{SocketAddr, UdpSocket};

use rcm_net::{LossModel, Rng};
use rcm_sync::atomic::{AtomicBool, AtomicU64, Ordering};
use rcm_sync::time::Duration;
use rcm_sync::Arc;

use crate::report::ProxyStats;

/// Forward-loop wake interval (stop-flag check cadence).
const TICK: Duration = Duration::from_millis(10);

/// A one-hop UDP forwarder applying a loss model to every datagram.
pub struct LossProxy {
    sock: UdpSocket,
    target: SocketAddr,
    loss: Box<dyn LossModel>,
    rng: Rng,
    counters: Arc<ProxyStats<AtomicU64>>,
    stop: Arc<AtomicBool>,
}

impl std::fmt::Debug for LossProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LossProxy")
            .field("local", &self.sock.local_addr().ok())
            .field("target", &self.target)
            .field("loss", &self.loss)
            .field("stats", &self.counters.snapshot())
            .finish()
    }
}

impl LossProxy {
    /// Binds an ephemeral loopback socket forwarding to `target`
    /// through `loss`; `seed` drives any stochastic model (ignored by
    /// scripted ones).
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configure failures.
    pub fn bind(target: SocketAddr, loss: Box<dyn LossModel>, seed: u64) -> io::Result<Self> {
        let sock = UdpSocket::bind("127.0.0.1:0")?;
        sock.set_read_timeout(Some(TICK))?;
        Ok(LossProxy {
            sock,
            target,
            loss,
            rng: Rng::seed_from_u64(seed),
            counters: Arc::default(),
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The proxy's receiving address — point the DM here instead of at
    /// the CE.
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.sock.local_addr()
    }

    /// Starts the forwarding thread and returns its control handle.
    ///
    /// # Errors
    ///
    /// Propagates the address query failure.
    pub fn spawn(mut self) -> io::Result<ProxyHandle> {
        let addr = self.local_addr()?;
        let counters = Arc::clone(&self.counters);
        let stop = Arc::clone(&self.stop);
        let handle = rcm_sync::thread::spawn(move || self.forward_loop());
        Ok(ProxyHandle { addr, counters, stop, handle: Some(handle) })
    }

    /// The forwarding loop: one thread, so arrival order is preserved
    /// and a scripted model's drop positions line up with send order.
    /// Only traffic toward the target is forwarded: what the target
    /// sends back (a CE's Fin echo) is dropped uncounted and never drawn
    /// against the loss model, so the proxied DMs hear no echo and keep
    /// their timed Fin rounds, and the echo cannot bounce back to the
    /// target to be echoed again. A datagram the socket refuses to send
    /// counts as dropped, not forwarded.
    fn forward_loop(&mut self) {
        let mut buf = [0u8; 65_535];
        loop {
            if self.stop.load(Ordering::SeqCst) {
                return;
            }
            let len = match self.sock.recv_from(&mut buf) {
                Ok((_, from)) if from == self.target => continue,
                Ok((len, _)) => len,
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    continue;
                }
                Err(_) => return,
            };
            let forwarded = !self.loss.drops(&mut self.rng)
                && self.sock.send_to(&buf[..len], self.target).is_ok();
            let counter = if forwarded { &self.counters.forwarded } else { &self.counters.dropped };
            counter.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// Control handle for a running [`LossProxy`].
#[derive(Debug)]
pub struct ProxyHandle {
    addr: SocketAddr,
    counters: Arc<ProxyStats<AtomicU64>>,
    stop: Arc<AtomicBool>,
    handle: Option<rcm_sync::thread::JoinHandle<()>>,
}

impl ProxyHandle {
    /// The address the proxy listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A live view of the proxy's counters.
    pub fn stats(&self) -> ProxyStats {
        self.counters.snapshot()
    }

    /// Stops the forwarding thread and returns the final counters.
    pub fn stop(mut self) -> ProxyStats {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        self.counters.snapshot()
    }
}

impl Drop for ProxyHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_net::{Lossless, Scripted};

    fn recv_all(sock: &UdpSocket, idle: Duration) -> Vec<Vec<u8>> {
        sock.set_read_timeout(Some(idle)).expect("set timeout");
        let mut buf = [0u8; 2048];
        let mut got = Vec::new();
        while let Ok(len) = sock.recv(&mut buf) {
            got.push(buf[..len].to_vec());
        }
        got
    }

    #[test]
    fn lossless_proxy_forwards_everything_in_order() {
        let sink = UdpSocket::bind("127.0.0.1:0").expect("bind sink");
        let proxy = LossProxy::bind(sink.local_addr().expect("sink addr"), Box::new(Lossless), 0)
            .expect("bind proxy")
            .spawn()
            .expect("spawn proxy");
        let tx = UdpSocket::bind("127.0.0.1:0").expect("bind tx");
        for i in 0..10u8 {
            tx.send_to(&[i], proxy.addr()).expect("send");
            // Pace the datagrams so kernel scheduling cannot reorder
            // them before the proxy's single thread sees them.
            rcm_sync::thread::sleep(Duration::from_millis(1));
        }
        let got = recv_all(&sink, Duration::from_millis(200));
        assert_eq!(got, (0..10u8).map(|i| vec![i]).collect::<Vec<_>>());
        let stats = proxy.stop();
        assert_eq!(stats, ProxyStats { forwarded: 10, dropped: 0 });
    }

    #[test]
    fn scripted_proxy_drops_exact_positions() {
        let sink = UdpSocket::bind("127.0.0.1:0").expect("bind sink");
        let proxy = LossProxy::bind(
            sink.local_addr().expect("sink addr"),
            Box::new(Scripted::new([1, 3])),
            42,
        )
        .expect("bind proxy")
        .spawn()
        .expect("spawn proxy");
        let tx = UdpSocket::bind("127.0.0.1:0").expect("bind tx");
        for i in 0..5u8 {
            tx.send_to(&[i], proxy.addr()).expect("send");
            rcm_sync::thread::sleep(Duration::from_millis(1));
        }
        let got = recv_all(&sink, Duration::from_millis(200));
        assert_eq!(got, vec![vec![0], vec![2], vec![4]], "positions 1 and 3 eaten");
        let stats = proxy.stop();
        assert_eq!(stats, ProxyStats { forwarded: 3, dropped: 2 });
    }

    /// A target that echoes everything (as a CE echoes each Fin) must
    /// not get its echoes forwarded back to it, and they must neither
    /// be counted nor move the scripted drop positions.
    #[test]
    fn echoes_from_the_target_are_not_forwarded_or_counted() {
        let sink = UdpSocket::bind("127.0.0.1:0").expect("bind sink");
        let proxy = LossProxy::bind(
            sink.local_addr().expect("sink addr"),
            Box::new(Scripted::new([1, 3])),
            42,
        )
        .expect("bind proxy")
        .spawn()
        .expect("spawn proxy");
        sink.set_read_timeout(Some(Duration::from_millis(200))).expect("set timeout");
        let echoer = rcm_sync::thread::spawn(move || {
            let mut buf = [0u8; 2048];
            let mut got = Vec::new();
            // Bounded: an echo bouncing back through the proxy fails the
            // test instead of running forever.
            while got.len() < 10 {
                let Ok((len, from)) = sink.recv_from(&mut buf) else { break };
                got.push(buf[..len].to_vec());
                sink.send_to(&buf[..len], from).expect("echo");
            }
            got
        });
        let tx = UdpSocket::bind("127.0.0.1:0").expect("bind tx");
        for i in 0..5u8 {
            tx.send_to(&[i], proxy.addr()).expect("send");
            rcm_sync::thread::sleep(Duration::from_millis(1));
        }
        let got = echoer.join().expect("echoing target");
        assert_eq!(got, vec![vec![0], vec![2], vec![4]], "each survivor exactly once");
        let stats = proxy.stop();
        assert_eq!(stats, ProxyStats { forwarded: 3, dropped: 2 });
    }

    /// An IPv4 socket cannot send to an IPv6 address (the send fails
    /// with `EAFNOSUPPORT`): every datagram is refused on the way out,
    /// and each counts as dropped.
    #[test]
    fn a_datagram_the_socket_refuses_counts_as_dropped() {
        let unreachable: SocketAddr = "[::1]:9".parse().expect("literal addr");
        let proxy = LossProxy::bind(unreachable, Box::new(Lossless), 0)
            .expect("bind proxy")
            .spawn()
            .expect("spawn proxy");
        let tx = UdpSocket::bind("127.0.0.1:0").expect("bind tx");
        for i in 0..3u8 {
            tx.send_to(&[i], proxy.addr()).expect("send");
        }
        let deadline = rcm_sync::time::Instant::now() + Duration::from_secs(5);
        while proxy.stats().forwarded + proxy.stats().dropped < 3 {
            assert!(rcm_sync::time::Instant::now() < deadline, "{:?}", proxy.stats());
            rcm_sync::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(proxy.stop(), ProxyStats { forwarded: 0, dropped: 3 });
    }
}
