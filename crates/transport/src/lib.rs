//! # rcm-transport — real socket transport for replicated condition
//! monitoring
//!
//! The paper's link model is *explicitly* a transport spec: front
//! links (DM → CE) are "UDP-like" — in-order but potentially lossy —
//! and back links (CE → AD) are "TCP-like" — in-order and lossless.
//! This crate implements both over actual sockets so the same
//! monitoring pipeline the in-process runtime drives over channels can
//! be deployed as separate OS processes:
//!
//! * [`wire`] — the shared frame codec (version byte, length prefix,
//!   checksum, payload) used by every link, in-process or socket: one
//!   compact binary payload layout, version 3;
//! * [`UdpFrontLink`] — the DM's side of a front link: updates over
//!   UDP, end-of-stream as a Fin marker repeated until the CE echoes it;
//!   a DM node's [`RoundSender`] holds one per CE and sends each round,
//!   every feed's readings of it, as one datagram per CE under a fixed
//!   1,200-byte budget ([`wire::DATAGRAM_BUDGET`]);
//! * [`engine`] — the receiving and alert-carrying side: every CE
//!   ingress (enforcing the front-link contract by discarding reordered
//!   and duplicated datagrams via a per-variable seqno high-water mark,
//!   [`SeqGate`]), every back link (reconnect driven by
//!   [`rcm_net::Backoff`] and the [`Outbox`] policy, preserving the
//!   lossless contract across connection drops) and the AD's alert
//!   listener, as state machines on one `rcm-poll` readiness loop — a
//!   single CE process holds 10k+ idle front links;
//! * [`Outbox`] — the one resend policy of every back link, socket or
//!   in-process: scripted severs, a bounded FIFO queue while down, and
//!   the unacked tail re-sent on reconnect;
//! * [`LossProxy`] — a UDP forwarder replaying [`rcm_net`] loss models
//!   onto real packets, for deterministic loss injection in loopback
//!   integration tests;
//! * [`Topology`] / [`BoundTopology`] — address plans binding a whole
//!   DM / CE×n / AD deployment, used by the runtime's `SystemBuilder`
//!   and the `rcm-dm` / `rcm-ce` / `rcm-ad` node binaries.
//!
//! [`UdpFrontReceiver`], [`TcpAlertListener`] and [`TcpBackLink`] are
//! three names over the [`EventLoop`], each one registration on it and
//! nothing else. No workspace code outside their tests calls them; they
//! stay only because the benchmark's two `transport.threaded.*` hop
//! probes do, and go with those probes (ROADMAP item 1). The
//! one-variant [`Codec`]
//! is kept the same way: the benchmark's replay passes it to the
//! `wire::encode_*_into` functions.
//!
//! All concurrency goes through the `rcm-sync` shim, same discipline as
//! the runtime, so `cargo xtask analyze` covers this crate too.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod engine;
mod gate;
mod outbox;
mod probe_shims;
mod proxy;
mod receive;
mod report;
mod topology;
mod udp;
pub mod wire;

pub use engine::{BackLinkSpec, EventLoop, EventedBackLink};
pub use gate::SeqGate;
pub use outbox::Outbox;
pub use probe_shims::{TcpAlertListener, TcpBackLink, UdpFrontReceiver};
pub use proxy::{LossProxy, ProxyHandle};
pub use report::{
    BackLinkStats, EngineStats, FrontLinkStats, IngressStats, ListenerStats, ProxyStats,
    TransportMode, TransportReport,
};
pub use topology::{BoundTopology, Topology, TopologyParts};
pub use udp::{fin_rounds, RoundSender, UdpFrontLink};
pub use wire::Codec;
