//! The evented socket engine: every front link, back link and alert
//! listener as an explicit state machine on one readiness loop.
//!
//! A blocked OS thread per socket is fine for a handful of links, fatal
//! for the paper's "numerous update streams" regime where one CE should
//! hold thousands of idle front links. This module runs every link's
//! contract — the receive cores (`receive.rs`: the ingress and the
//! alert stream), the [`Outbox`](crate::Outbox) and the counter blocks
//! — on a single [`EventLoop`] built from `rcm-poll`:
//!
//! * readiness comes from a [`rcm_poll::Poller`] (`poll(2)`);
//! * every deadline — backoff reconnects, connect caps, finish
//!   deadlines, idle backstops — is a [`rcm_poll::TimerWheel`] entry,
//!   not a sleeping thread;
//! * a CE ingress hands each datagram's admitted updates to its
//!   `deliver` as one round, on the loop thread, so a CE can evaluate
//!   right there, with no thread or channel of its own;
//! * other threads (a DM fleet, an in-process CE body) talk to the loop
//!   through a [`SubmitQueue`] whose sleep/wake handoff is
//!   model-checked in `crates/runtime/tests/loom.rs`; a back-link
//!   handle submits through it from any thread, the loop's included;
//! * blocking states become explicit machine states: a partial write
//!   parks the frame's remainder as a continuation, a down link parks
//!   a reconnect timer, a `finish` parks a drain-then-Fin plan with a
//!   deadline — no thread ever sleeps inside the loop.
//!
//! It is the crate's only socket engine; the loopback equivalence
//! suite pins it to the in-process pipeline's output at 0% and 20%
//! loss.
//!
//! Discipline (enforced by `cargo xtask analyze`): nothing in this
//! directory blocks — no blocking `std::net` connects, no
//! `thread::sleep`, no `write_all`/`read_exact`, and no lock is ever
//! held across a poll. Cross-thread state is atomic counters and the
//! submit queue only. A `deliver` callback runs on the loop thread, so
//! the same holds for it with two allowances: it may run a CE's
//! evaluation or an AD's filter, which is compute, leaf locks of their
//! owners' records (each taken alone) and the fork-join waits of the
//! evaluation's own helper threads — never a wait on a socket, on a
//! back link's drain, or on anything else the loop must do first.

// LOCK ORDER: no locks — handles hold the submit queue and atomic counters.

mod back;
mod event_loop;
mod front;
mod listener;

pub use back::{BackLinkSpec, EventedBackLink};
pub use event_loop::EventLoop;
pub use front::size_receive_buffer;
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

    /// An ingress fed by the DM-side UDP sender delivers the admitted
    /// updates in order and retires on the Fin.
    #[test]
    fn front_ingress_round_trips_updates_and_retires_on_fin() {
        let mut el = EventLoop::new().expect("event loop");
        let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let addr = sock.local_addr().expect("addr");
        let (tx, rx) = rcm_sync::chan::unbounded();
        let counters = el
            .add_front_ingress(sock, 1, Duration::from_secs(5), move |round| {
                round.drain(..).for_each(|u| {
                    let _ = tx.send(u);
                });
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

    fn u(var: u32, seqno: u64) -> Update {
        Update::new(VarId::new(var), seqno, seqno as f64)
    }

    fn datagram(msg: &crate::wire::Message) -> Vec<u8> {
        crate::wire::encode(msg).expect("encodes")
    }

    /// Sends on drop, so a test sees when the loop drops a `deliver`.
    struct DropSignal(rcm_sync::chan::Sender<()>);

    impl Drop for DropSignal {
        fn drop(&mut self) {
            let _ = self.0.send(());
        }
    }

    /// The round contract: each datagram that admits anything is one
    /// call with exactly the updates it admitted, in datagram order; a
    /// datagram the gate refuses whole, garbage and a Fin give none.
    #[test]
    fn each_datagram_is_one_round_of_exactly_its_admitted_updates() {
        use crate::wire::Message;

        let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let addr = sock.local_addr().expect("addr");
        let dm = UdpSocket::bind("127.0.0.1:0").expect("bind DM");
        let script = [
            datagram(&Message::UpdateBatch(vec![u(0, 1), u(1, 1), u(0, 2)])),
            datagram(&Message::UpdateBatch(vec![u(0, 2), u(1, 1)])), // all stale
            datagram(&Message::Update(u(0, 1))),                     // stale
            b"\x00garbage".to_vec(),
            datagram(&Message::UpdateBatch(vec![u(1, 1), u(1, 2), u(0, 3)])), // one stale
            datagram(&Message::Update(u(1, 3))),
            datagram(&Message::Fin { node: 0 }),
        ];
        // Queued before the loop reads, so they are read in this order.
        for d in &script {
            dm.send_to(d, addr).expect("send_to");
        }
        let mut rounds: Vec<Vec<Update>> = Vec::new();
        let mut el = EventLoop::new().expect("event loop");
        let counters = el
            .add_front_ingress(sock, 1, Duration::from_secs(5), |round| rounds.push(round.clone()))
            .expect("register ingress");
        el.run();
        assert_eq!(
            rounds,
            vec![vec![u(0, 1), u(1, 1), u(0, 2)], vec![u(1, 2), u(0, 3)], vec![u(1, 3)]]
        );
        let stats = counters.snapshot();
        assert_eq!((stats.delivered, stats.dropped_stale, stats.fins), (6, 4, 1));
    }

    /// The ingress drops its `deliver` when it retires, on its last Fin
    /// or on its idle backstop, while the loop still runs other sources:
    /// the drop is the end of the stream for whoever owns the callback.
    #[test]
    fn a_retired_ingress_drops_its_deliver_while_the_loop_runs_on() {
        let mut el = EventLoop::new().expect("event loop");
        let (dropped_tx, dropped) = rcm_sync::chan::unbounded();
        let mut add = |fins: usize, idle: Duration| {
            let sock = UdpSocket::bind("127.0.0.1:0").expect("bind");
            let addr = sock.local_addr().expect("addr");
            let signal = DropSignal(dropped_tx.clone());
            el.add_front_ingress(sock, fins, idle, move |_| {
                let _ = &signal;
            })
            .expect("register ingress");
            addr
        };
        let on_fin = add(1, Duration::from_secs(30));
        let _on_idle = add(1, Duration::from_millis(50));
        // Keeps the loop running until the test ends it with a Fin.
        let keeper = add(1, Duration::from_secs(30));
        drop(dropped_tx);
        let engine = rcm_sync::thread::spawn(move || el.run());

        // A drop that waited for the loop's end would come only when the
        // keeper idles out, 30 s on, with the loop finished.
        dropped.recv().expect("the idle ingress drops its deliver");
        UdpFrontLink::connect(on_fin, 0).expect("connect").finish(3);
        dropped.recv().expect("the finished ingress drops its deliver");
        assert!(!engine.is_finished(), "both drops came while the loop still ran");
        UdpFrontLink::connect(keeper, 0).expect("connect").finish(3);
        dropped.recv().expect("the last ingress drops its deliver");
        engine.join().expect("loop thread");
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

    /// A back link that never existed is a deployment error, reported
    /// by `add_back_link` on the caller's thread.
    #[test]
    fn connect_to_dead_port_is_a_deployment_error() {
        // Bind-then-drop guarantees an unused port.
        let addr = {
            let sock = TcpListener::bind("127.0.0.1:0").expect("bind probe");
            sock.local_addr().expect("probe addr")
        };
        let mut el = EventLoop::new().expect("event loop");
        assert!(el.add_back_link(BackLinkSpec::new(addr, 0, backoff())).is_err());
    }

    /// A link severed with an alert queued, then abandoned: the queue is
    /// sanctioned loss, but the listener still gets the link's Fin.
    #[test]
    fn abandon_closes_with_a_fin_but_drops_the_queue() {
        let mut el = EventLoop::new().expect("event loop");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (tx, rx) = rcm_sync::chan::unbounded();
        let ad = el
            .add_alert_listener(listener, 1, Duration::from_secs(5), move |a| {
                let _ = tx.send(a);
            })
            .expect("register listener");
        // An outage of 10 sends outlasts the stream: the abandon ends it.
        let spec = BackLinkSpec::new(addr, 0, backoff()).with_severs(vec![(1, 10)]);
        let mut back = el.add_back_link(spec).expect("back link");
        let link_stats = back.counters();
        let engine = rcm_sync::thread::spawn(move || el.run());

        back.send_alert(alert(1));
        back.send_alert(alert(2)); // severed: queued
        back.abandon();
        let got: Vec<u64> = rx.iter().map(|a| a.id.index).collect();
        engine.join().expect("loop thread");
        assert_eq!(got, vec![1], "the queued alert was sanctioned loss");
        assert_eq!(ad.snapshot().fins, 1, "the listener still got its end-of-stream marker");
        let sent = link_stats.snapshot();
        assert_eq!((sent.sent, sent.severs, sent.lost_overflow), (1, 1, 0));
    }

    /// An outage that outlasts the stream ends at `finish`: the link
    /// reconnects, re-sends its unacked tail, sends what was queued and
    /// then its Fin. Nothing is lost.
    #[test]
    fn finish_ends_an_outage_that_outlasts_the_stream() {
        let mut el = EventLoop::new().expect("event loop");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let (tx, rx) = rcm_sync::chan::unbounded();
        let ad = el
            .add_alert_listener(listener, 1, Duration::from_secs(5), move |a| {
                let _ = tx.send(a);
            })
            .expect("register listener");
        let spec = BackLinkSpec::new(addr, 0, backoff()).with_severs(vec![(3, 100)]);
        let mut back = el.add_back_link(spec).expect("back link");
        let link_stats = back.counters();
        let engine = rcm_sync::thread::spawn(move || el.run());

        for i in 0..5 {
            back.send_alert(alert(i));
        }
        back.finish();
        let got: Vec<u64> = rx.iter().map(|a| a.id.index).collect();
        engine.join().expect("loop thread");
        assert_eq!(got, vec![0, 1, 2, 0, 1, 2, 3, 4], "every alert, the re-sent tail, in order");
        assert_eq!((ad.snapshot().fins, ad.snapshot().connections), (1, 2));
        let sent = link_stats.snapshot();
        assert_eq!(
            (sent.sent, sent.severs, sent.reconnects, sent.resent_duplicates, sent.lost_overflow),
            (5, 1, 1, 3, 0)
        );
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
