//! Deployment topology: the address plan for one DM / CE×n / AD
//! system, and the eagerly-bound sockets behind it.
//!
//! A [`Topology`] is the *spec* — how many CE replicas.
//! [`Topology::bind`] turns it into a [`BoundTopology`] by actually
//! binding every socket up front, each to `127.0.0.1:0`: the OS picks
//! ephemeral ports, the bound addresses are captured before any node
//! thread starts, and a test suite can run many systems in parallel
//! without port collisions.
//!
//! The runtime's `SystemBuilder` consumes a [`BoundTopology`] to run
//! the very same pipeline it normally drives over channels across real
//! sockets instead; the `rcm-dm` / `rcm-ce` / `rcm-ad` binaries take
//! their fixed addresses on the command line (`--bind`, `--ce`, `--ad`).

use std::io;
use std::net::{SocketAddr, TcpListener, UdpSocket};

use rcm_sync::time::Duration;

/// A loopback plan: how many CEs listen for updates beside the one AD
/// listening for alerts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    replicas: usize,
}

impl Topology {
    /// A loopback plan with `replicas` CEs, all ports ephemeral —
    /// the parallel-safe default for tests and single-host runs.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    pub fn loopback(replicas: usize) -> Self {
        assert!(replicas > 0, "a topology needs at least one CE replica");
        Topology { replicas }
    }

    /// The CE replica count.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Binds every socket in the plan, capturing the real addresses.
    ///
    /// # Errors
    ///
    /// Propagates the first bind failure.
    pub fn bind(self) -> io::Result<BoundTopology> {
        let any = SocketAddr::from(([127, 0, 0, 1], 0));
        let mut ce_sockets = Vec::with_capacity(self.replicas);
        let mut ce_addrs = Vec::with_capacity(self.replicas);
        for _ in 0..self.replicas {
            let sock = UdpSocket::bind(any)?;
            ce_addrs.push(sock.local_addr()?);
            ce_sockets.push(sock);
        }
        let listener = TcpListener::bind(any)?;
        let ad_addr = listener.local_addr()?;
        Ok(BoundTopology {
            ce_sockets,
            listener,
            dm_targets: ce_addrs.clone(),
            ce_addrs,
            ad_addr,
            idle_timeout: Duration::from_secs(5),
        })
    }
}

/// A topology with every socket bound and every address real.
#[derive(Debug)]
pub struct BoundTopology {
    ce_sockets: Vec<UdpSocket>,
    listener: TcpListener,
    ce_addrs: Vec<SocketAddr>,
    /// Where DMs actually send: the CE addresses, unless
    /// [`route_front_links`](BoundTopology::route_front_links) aimed
    /// them elsewhere.
    dm_targets: Vec<SocketAddr>,
    ad_addr: SocketAddr,
    idle_timeout: Duration,
}

impl BoundTopology {
    /// The bound per-CE update addresses.
    pub fn ce_addrs(&self) -> &[SocketAddr] {
        &self.ce_addrs
    }

    /// The bound AD alert address.
    pub fn ad_addr(&self) -> SocketAddr {
        self.ad_addr
    }

    /// The CE replica count.
    pub fn replicas(&self) -> usize {
        self.ce_sockets.len()
    }

    /// Aims DM traffic at other addresses than the CE sockets, one per
    /// CE replica (a closed port, say, to make every send fail).
    ///
    /// # Panics
    ///
    /// Panics unless `targets` has exactly one address per replica.
    #[must_use]
    // analyze: allow(reach): only rcm-runtime's refused-send tests call it, from another crate
    pub fn route_front_links(mut self, targets: Vec<SocketAddr>) -> Self {
        assert_eq!(targets.len(), self.ce_sockets.len(), "one DM target per CE replica");
        self.dm_targets = targets;
        self
    }

    /// Receiver idle backstop for lost end-of-stream markers
    /// (default 5 s).
    #[must_use]
    pub fn idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Dismantles the bound topology into the pieces a system runner
    /// needs.
    pub fn into_parts(self) -> TopologyParts {
        TopologyParts {
            ce_sockets: self.ce_sockets,
            listener: self.listener,
            dm_targets: self.dm_targets,
            ad_addr: self.ad_addr,
            idle_timeout: self.idle_timeout,
        }
    }
}

/// The raw pieces of a [`BoundTopology`], handed to whoever wires the
/// node threads (the runtime's `SystemBuilder` in socket mode).
#[derive(Debug)]
pub struct TopologyParts {
    /// One bound UDP socket per CE replica, in replica order.
    pub ce_sockets: Vec<UdpSocket>,
    /// The bound AD alert listener.
    pub listener: TcpListener,
    /// Where each DM sends for each replica: the CE addresses unless
    /// rerouted.
    pub dm_targets: Vec<SocketAddr>,
    /// The AD listener's address, for the CE back links.
    pub ad_addr: SocketAddr,
    /// Receiver idle backstop.
    pub idle_timeout: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_bind_assigns_real_distinct_ports() {
        let bound = Topology::loopback(3).bind().expect("bind topology");
        assert_eq!(bound.replicas(), 3);
        let mut ports: Vec<u16> = bound.ce_addrs().iter().map(|a| a.port()).collect();
        ports.push(bound.ad_addr().port());
        assert!(ports.iter().all(|&p| p != 0), "ephemeral ports resolved: {ports:?}");
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 4, "all sockets distinct");
        // Default routing sends straight to the CE sockets.
        assert_eq!(bound.dm_targets, bound.ce_addrs);
    }

    #[test]
    fn rerouting_replaces_dm_targets() {
        let targets: Vec<SocketAddr> =
            vec!["127.0.0.1:4001".parse().expect("addr"), "127.0.0.1:4002".parse().expect("addr")];
        let bound = Topology::loopback(2)
            .bind()
            .expect("bind topology")
            .route_front_links(targets.clone())
            .idle_timeout(Duration::from_secs(1));
        let parts = bound.into_parts();
        assert_eq!(parts.dm_targets, targets);
        assert_eq!(parts.idle_timeout, Duration::from_secs(1));
        assert_eq!(parts.ce_sockets.len(), 2);
    }

    #[test]
    fn wire_config_defaults_and_threads_through_bind() {
        let parts = Topology::loopback(1).bind().expect("bind topology").into_parts();
        assert_eq!(parts.idle_timeout, Duration::from_secs(5));
    }

    #[test]
    #[should_panic(expected = "one DM target per CE replica")]
    fn mismatched_route_length_panics() {
        let bound = Topology::loopback(2).bind().expect("bind topology");
        let _ = bound.route_front_links(vec!["127.0.0.1:4001".parse().expect("addr")]);
    }
}
