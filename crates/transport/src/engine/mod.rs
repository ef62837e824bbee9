//! The evented socket engine: every front link, back link and alert
//! listener as an explicit state machine on one readiness loop.
//!
//! A blocked OS thread per socket (the receiver types in `udp.rs` /
//! `tcp.rs`) is fine for a handful of links, fatal for the paper's
//! "numerous update streams" regime where one CE should hold thousands
//! of idle front links. This module runs the same contracts as those
//! links — the same receive cores (`receive.rs`: the ingress and the
//! alert stream), the same [`Outbox`](crate::Outbox) and the same
//! counter blocks — but runs them all on a single [`EventLoop`] built
//! from `rcm-poll`:
//!
//! * readiness comes from a [`rcm_poll::Poller`] (epoll/kqueue/poll);
//! * every deadline — backoff reconnects, batch `max_delay` flushes,
//!   finish deadlines, idle backstops — is a [`rcm_poll::TimerWheel`]
//!   entry, not a sleeping thread;
//! * caller threads (CE bodies, node mains) talk to the loop through a
//!   [`SubmitQueue`] whose sleep/wake handoff is model-checked in
//!   `crates/runtime/tests/loom.rs`;
//! * blocking states become explicit machine states: a partial write
//!   parks the frame's remainder as a continuation, a down link parks
//!   a reconnect timer, a `finish` parks a drain-then-Fin plan with a
//!   deadline — no thread ever sleeps inside the loop.
//!
//! It is the only engine the runtime and the node binaries deploy;
//! the loopback equivalence suite pins it to the in-process pipeline's
//! output at 0% and 20% loss.
//!
//! Discipline (enforced by `cargo xtask analyze`): nothing in this
//! directory blocks — no blocking `std::net` connects, no
//! `thread::sleep`, no `write_all`/`read_exact`, and no lock is ever
//! held across a poll. Cross-thread state is atomic counters and the
//! submit queue only.

// LOCK ORDER: no locks — handles hold channels and atomic counters.

mod back;
mod event_loop;
mod front;
mod listener;

pub use back::{BackLinkSpec, EventedBackLink};
pub use event_loop::EventLoop;
// Re-exported so the runtime's loom suite can exhaust the submit/wake
// handoff without depending on rcm-poll directly.
pub use rcm_poll::{SubmitQueue, Wake};

#[cfg(test)]
mod tests {
    use std::net::{TcpListener, UdpSocket};

    use rcm_core::{Alert, AlertId, CeId, CondId, HistoryFingerprint, SeqNo, Update, VarId};
    use rcm_net::Backoff;
    use rcm_sync::time::Duration;

    use super::*;
    use crate::udp::UdpFrontLink;

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

    /// An evented ingress fed by the blocking UDP sender (the DM side)
    /// delivers the admitted updates in order and retires on the Fin.
    #[test]
    fn front_ingress_round_trips_updates_and_retires_on_fin() {
        let mut el = EventLoop::new().expect("event loop");
        let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let addr = sock.local_addr().expect("addr");
        let (tx, rx) = rcm_sync::chan::unbounded();
        let counters = el
            .add_front_ingress(sock, 1, Duration::from_secs(5), move |u| {
                let _ = tx.send(u);
            })
            .expect("register ingress");
        let engine = rcm_sync::thread::spawn(move || el.run());

        let mut link = UdpFrontLink::connect(addr, 0).expect("connect");
        for i in 1..=5u64 {
            assert!(link.send_update(Update::new(VarId::new(0), i, i as f64)));
        }
        link.finish(3);
        let got: Vec<Update> = rx.iter().collect();
        engine.join().expect("loop thread");

        assert_eq!(got.len(), 5);
        assert!(got.iter().enumerate().all(|(i, u)| u.seqno.get() == i as u64 + 1));
        let stats = counters.snapshot();
        assert_eq!(stats.delivered, 5);
        assert_eq!(stats.fins, 1);
        assert_eq!(stats.decode_errors, 0);
    }

    #[test]
    fn front_ingress_echoes_every_fin_and_nothing_else() {
        let mut el = EventLoop::new().expect("event loop");
        let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let addr = sock.local_addr().expect("addr");
        el.add_front_ingress(sock, 2, Duration::from_secs(5), |_| {}).expect("register ingress");
        let engine = rcm_sync::thread::spawn(move || el.run());
        crate::udp::tests::assert_every_fin_echoed(addr, || {
            engine.join().expect("loop thread");
        });
    }

    /// A full evented round trip on one loop: back link → listener,
    /// with the lossless finish handshake ending both sources.
    #[test]
    fn back_link_and_listener_round_trip_on_one_loop() {
        let mut el = EventLoop::new().expect("event loop");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (tx, rx) = rcm_sync::chan::unbounded();
        let ad = el
            .add_alert_listener(listener, 1, Duration::from_secs(5), move |a| {
                let _ = tx.send(a);
            })
            .expect("register listener");
        let mut back = el.add_back_link(BackLinkSpec::new(addr, 0, backoff())).expect("back link");
        let link_stats = back.counters();
        let engine = rcm_sync::thread::spawn(move || el.run());

        for i in 0..10 {
            back.send_alert(alert(i));
        }
        back.finish();
        let got: Vec<Alert> = rx.iter().collect();
        engine.join().expect("loop thread");

        assert_eq!(got.len(), 10);
        assert!(got.iter().enumerate().all(|(i, a)| a.id.index == i as u64));
        let sent = link_stats.snapshot();
        assert_eq!(sent.sent, 10);
        assert_eq!(sent.lost_overflow, 0);
        let heard = ad.snapshot();
        assert_eq!(heard.alerts, 10);
        assert_eq!(heard.fins, 1);
        assert_eq!(heard.connections, 1);
    }

    /// The same round trip pinned to the portable `poll(2)` backend.
    #[test]
    fn poll_fallback_backend_round_trips_too() {
        let mut el = EventLoop::with_poll_fallback().expect("event loop");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (tx, rx) = rcm_sync::chan::unbounded();
        el.add_alert_listener(listener, 1, Duration::from_secs(5), move |a| {
            let _ = tx.send(a);
        })
        .expect("register listener");
        let mut back = el.add_back_link(BackLinkSpec::new(addr, 0, backoff())).expect("back link");
        let engine = rcm_sync::thread::spawn(move || el.run());

        for i in 0..4 {
            back.send_alert(alert(i));
        }
        back.finish();
        let got: Vec<Alert> = rx.iter().collect();
        engine.join().expect("loop thread");
        assert_eq!(got.len(), 4);
    }

    /// Send-after-finish is a caller bug the handle absorbs without
    /// deadlocking: the command is dropped, the loop stays healthy.
    #[test]
    fn send_after_finish_is_dropped_not_deadlocked() {
        let mut el = EventLoop::new().expect("event loop");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (tx, rx) = rcm_sync::chan::unbounded();
        el.add_alert_listener(listener, 1, Duration::from_secs(5), move |a| {
            let _ = tx.send(a);
        })
        .expect("register listener");
        let mut back = el.add_back_link(BackLinkSpec::new(addr, 0, backoff())).expect("back link");
        let engine = rcm_sync::thread::spawn(move || el.run());

        back.send_alert(alert(0));
        back.finish();
        back.send_alert(alert(1));
        back.finish();
        back.abandon();
        let got: Vec<Alert> = rx.iter().collect();
        engine.join().expect("loop thread");
        assert_eq!(got.len(), 1);
    }
}
