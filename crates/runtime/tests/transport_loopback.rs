//! Loopback socket-transport tests: the same system, once over
//! in-process channels and once over real UDP/TCP sockets, must show
//! the user the exact same filtered alert sequence — under scripted
//! front-link loss injected by a [`LossProxy`], and across a mid-run
//! TCP back-link severance.
//!
//! These are the tentpole acceptance tests for the socket transport:
//! they prove the deployment path is behaviorally identical to the
//! model the rest of the repo verifies — paced one reading per
//! datagram or a whole round per datagram, at 0% and 20% front-link
//! loss, evaluated on the CE thread or on shard workers.

use std::sync::Arc;
use std::time::Duration;

use rcm_core::condition::{Cmp, Condition, Threshold};
use rcm_core::{Alert, VarId};
use rcm_net::Scripted;
use rcm_runtime::{
    BoundTopology, FaultPlan, MonitorSystem, RunReport, SeverBackLink, Topology, TransportMode,
    VarFeed,
};
use rcm_transport::{LossProxy, ProxyStats};

fn x() -> VarId {
    VarId::new(0)
}

fn threshold() -> Arc<dyn Condition> {
    Arc::new(Threshold::new(x(), Cmp::Gt, 50.0))
}

/// Workload: 20 readings, every odd one above the threshold → 10
/// deterministic alerts per fully-fed replica.
fn values() -> Vec<f64> {
    (0..20).map(|i| if i % 2 == 1 { 60.0 + f64::from(i) } else { 40.0 }).collect()
}

/// Pace DM emissions so loopback datagrams (and the single-threaded
/// proxy) preserve send order; a paced feed emits one reading per
/// round, so each datagram is one update and scripted drop positions
/// line up exactly with the in-process loss model's.
const PERIOD: Duration = Duration::from_millis(1);

fn run_in_process(plan: FaultPlan, drops: &'static [u64]) -> RunReport {
    run_in_process_paced(plan, drops, PERIOD)
}

fn run_in_process_paced(plan: FaultPlan, drops: &'static [u64], period: Duration) -> RunReport {
    MonitorSystem::builder(threshold())
        .replicas(2)
        .feed(VarFeed::new(x(), values()).period(period))
        .loss(move |_, _| Box::new(Scripted::new(drops.iter().copied())))
        .faults(plan)
        .start()
        .expect("in-process system starts")
        .wait()
}

/// Runs the same system over real sockets, with a [`LossProxy`] per CE
/// replica replaying the same scripted drop set on the real datagrams.
fn run_sockets(plan: FaultPlan, drops: &'static [u64]) -> (RunReport, Vec<ProxyStats>) {
    run_sockets_with(plan, drops, 0, PERIOD)
}

/// Like [`run_sockets`] with the CE evaluation pipeline enabled at
/// `workers` shard workers (0 = evaluated on the CE thread) and the
/// feed paced at `period`.
fn run_sockets_with(
    plan: FaultPlan,
    drops: &'static [u64],
    workers: usize,
    period: Duration,
) -> (RunReport, Vec<ProxyStats>) {
    let bound = Topology::loopback(2).bind().expect("bind topology");
    let mut proxies = Vec::new();
    let mut targets = Vec::new();
    for addr in bound.ce_addrs() {
        let proxy = LossProxy::bind(*addr, Box::new(Scripted::new(drops.iter().copied())), 0)
            .expect("bind proxy")
            .spawn()
            .expect("spawn proxy");
        targets.push(proxy.addr());
        proxies.push(proxy);
    }
    let bound = bound.route_front_links(targets).idle_timeout(Duration::from_secs(10));
    let report = MonitorSystem::builder(threshold())
        .replicas(2)
        .workers(workers)
        .feed(VarFeed::new(x(), values()).period(period))
        .faults(plan)
        .transport(bound)
        .start()
        .expect("socket system starts")
        .wait();
    let stats = proxies.into_iter().map(rcm_transport::ProxyHandle::stop).collect();
    (report, stats)
}

fn displayed_seqnos(report: &RunReport) -> Vec<u64> {
    report
        .displayed
        .iter()
        .map(|a: &Alert| a.seqno(x()).expect("single-variable alert").get())
        .collect()
}

/// Acceptance: a 2-replica CE topology over real sockets, clean and
/// with 20% scripted front-link loss, produces the exact same filtered
/// alert sequence as the in-process runtime fed the same workload and
/// drop set.
#[test]
fn scripted_loss_matches_in_process_output_exactly() {
    // 4 of 20 datagrams per front link: 20% loss, same set on every
    // link in both modes.
    const DROPS: &[u64] = &[1, 4, 7, 11];
    for drops in [&[] as &'static [u64], DROPS] {
        let in_process = run_in_process(FaultPlan::scripted(), drops);
        let (sockets, proxy_stats) = run_sockets(FaultPlan::scripted(), drops);

        assert_eq!(sockets.transport.mode, TransportMode::Sockets);
        assert!(!sockets.displayed.is_empty(), "loss must not silence the system");
        assert_eq!(
            sockets.displayed,
            in_process.displayed,
            "socket pipeline diverged from the in-process model with {} drops \
             (sockets {:?} vs in-process {:?})",
            drops.len(),
            displayed_seqnos(&sockets),
            displayed_seqnos(&in_process),
        );

        // The loss really happened on the wire, not in a model: each
        // proxy ate exactly the scripted positions, and each CE ingress
        // saw only the survivors.
        for stats in &proxy_stats {
            assert_eq!(stats.dropped, drops.len() as u64);
        }
        assert_eq!(sockets.transport.ingress.len(), 2);
        for ingress in &sockets.transport.ingress {
            assert_eq!(ingress.delivered, (values().len() - drops.len()) as u64);
        }
        assert_eq!(sockets.transport.decode_errors(), 0);
        // The legacy per-link view is populated in both modes.
        assert_eq!(sockets.links.len(), 2);
        let sent: u64 = sockets.transport.front_links.iter().map(|(_, _, s)| s.frames_sent).sum();
        assert_eq!(sent, 2 * values().len() as u64);
        // The engine rollup is live: the readiness loop woke to carry this.
        assert!(sockets.transport.engine.wakeups > 0, "loop never woke");
    }
}

/// Acceptance for the version refusal, live on the evented engine: a
/// peer still labelling its frames wire version 2 — a datagram at each
/// CE ingress, a stream at the AD listener — is counted in
/// `decode_errors` (the stream peer disconnected at its first frame),
/// and the displayed output is exactly the in-process run's.
#[test]
fn version_2_peers_are_refused_and_change_nothing() {
    use rcm_runtime::wire::{self, Message};
    use std::io::Write;

    let v2_labelled = |msg: &Message| {
        let mut frame = wire::encode(msg).expect("encodes");
        frame[0] = 2;
        frame
    };
    let baseline = run_in_process(FaultPlan::scripted(), &[]);
    let bound = Topology::loopback(2).bind().expect("bind topology");
    // The sockets are bound already, so the stale frames queue ahead of
    // everything the system itself sends. An update that would fire
    // the threshold, ahead of the stream's seqnos if it were admitted:
    let stale = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind raw");
    let update = v2_labelled(&Message::Update(rcm_core::Update::new(x(), 1, 99.0)));
    for addr in bound.ce_addrs() {
        stale.send_to(&update, addr).expect("send_to");
    }
    let alert = v2_labelled(&Message::Alert(baseline.displayed[0].clone()));
    let mut stale_ce = std::net::TcpStream::connect(bound.ad_addr()).expect("connect raw");
    stale_ce.write_all(&[&alert[..], &alert[..]].concat()).expect("write");

    let sockets = MonitorSystem::builder(threshold())
        .replicas(2)
        .feed(VarFeed::new(x(), values()).period(PERIOD))
        .transport(bound.idle_timeout(Duration::from_secs(10)))
        .start()
        .expect("socket system starts")
        .wait();

    assert_eq!(sockets.displayed, baseline.displayed);
    for ingress in &sockets.transport.ingress {
        assert_eq!(ingress.decode_errors, 1);
        assert_eq!(ingress.delivered, values().len() as u64);
    }
    // Two refused frames were written, one was counted: the listener
    // dropped the stream at the first.
    assert_eq!(sockets.transport.ad.decode_errors, 1);
}

/// Acceptance for round framing: an unpaced 20-reading feed is one DM
/// round, so each front link sends it as one datagram of 20 updates —
/// and the displayed output is bit for bit the in-process run's.
#[test]
fn a_round_is_one_datagram_and_output_does_not_change() {
    let baseline = run_in_process_paced(FaultPlan::scripted(), &[], Duration::ZERO);
    let (sockets, _) = run_sockets_with(FaultPlan::scripted(), &[], 0, Duration::ZERO);

    assert_eq!(
        sockets.displayed,
        baseline.displayed,
        "round-framed socket run diverged (sockets {:?} vs in-process {:?})",
        displayed_seqnos(&sockets),
        displayed_seqnos(&baseline),
    );
    assert_eq!(sockets.transport.front_links.len(), 2);
    for (_, _, stats) in &sockets.transport.front_links {
        assert_eq!(stats.frames_sent, 1, "20 readings, one round, one datagram");
        assert_eq!(stats.updates_sent, 20);
        assert!(stats.bytes_sent > 0);
    }
    assert!((sockets.transport.updates_per_datagram() - 20.0).abs() < f64::EPSILON);
    for ingress in &sockets.transport.ingress {
        assert_eq!(ingress.delivered, 20);
    }
}

/// Four unpaced feeds of 32 readings are two rounds of 64. Each goes to
/// each replica as one datagram holding every feed's readings of it,
/// each `(variable, replica)` row still counts its own feed's 32
/// updates, and the displayed stream is the in-process one.
#[test]
fn a_multi_feed_round_is_one_datagram_per_replica() {
    const FEEDS: u32 = 4;
    const READINGS: usize = 32;
    let vars: Vec<VarId> = (0..FEEDS).map(VarId::new).collect();
    let run = |bound: Option<BoundTopology>| {
        let conditions =
            vars.iter().map(|&v| Arc::new(Threshold::new(v, Cmp::Gt, 50.0)) as Arc<dyn Condition>);
        let mut builder = MonitorSystem::builder_multi(conditions).replicas(2);
        for (f, &var) in vars.iter().enumerate() {
            let values = (0..READINGS).map(|i| if (i + f) % 3 == 0 { 60.0 } else { 40.0 });
            builder = builder.feed(VarFeed::new(var, values.collect::<Vec<_>>()));
        }
        if let Some(bound) = bound {
            builder = builder.transport(bound);
        }
        builder.start().expect("system starts").wait()
    };
    let baseline = run(None);
    let bound = Topology::loopback(2).bind().expect("bind topology");
    let sockets = run(Some(bound.idle_timeout(Duration::from_secs(10))));

    assert!(!baseline.displayed.is_empty());
    assert_eq!(sockets.displayed, baseline.displayed, "multi-feed socket run diverged");
    let rounds = (FEEDS as usize * READINGS / rcm_runtime::ROUND) as u64;
    for ce in 0..2 {
        let rows = sockets.transport.front_links.iter().filter(|(_, c, _)| *c == ce);
        let datagrams: u64 = rows.map(|(_, _, stats)| stats.frames_sent).sum();
        assert_eq!(datagrams, rounds, "replica {ce}: one datagram a round");
    }
    let per_round = rcm_runtime::ROUND as f64;
    assert!((sockets.transport.updates_per_datagram() - per_round).abs() < f64::EPSILON);
    assert_eq!(sockets.links.len(), FEEDS as usize * 2);
    for ((var, ce), link) in &sockets.links {
        assert_eq!((link.sent, link.dropped), (READINGS as u64, 0), "row ({var:?}, {ce:?})");
    }
    for ingress in &sockets.transport.ingress {
        assert_eq!(ingress.delivered, FEEDS as u64 * READINGS as u64);
    }
}

/// Tentpole acceptance: the shard-parallel evaluation pipeline is
/// transport-invariant. A `--workers 4` system over real sockets, under
/// 20% scripted front-link loss, displays the exact same alert sequence
/// as the zero-worker in-process actor, and its run report carries the
/// pipeline's worker count and a populated ingest→emit latency
/// histogram.
#[test]
fn pipelined_workers_match_in_process_output_over_sockets() {
    const DROPS: &[u64] = &[1, 4, 7, 11];
    let inline = run_in_process(FaultPlan::scripted(), DROPS);
    assert!(!inline.displayed.is_empty());
    let (sockets, _) = run_sockets_with(FaultPlan::scripted(), DROPS, 4, PERIOD);
    assert_eq!(
        sockets.displayed,
        inline.displayed,
        "4-worker socket pipeline diverged from the zero-worker in-process model \
         (sockets {:?} vs in-process {:?})",
        displayed_seqnos(&sockets),
        displayed_seqnos(&inline),
    );
    assert_eq!(sockets.pipeline.workers, 4);
    assert_eq!(sockets.pipeline.updates_shed, 0, "nothing is shed");
    assert!(sockets.pipeline.latency.count > 0, "histogram never recorded");
    assert!(
        sockets.pipeline.latency.p999_ns >= sockets.pipeline.latency.p50_ns,
        "percentiles must be monotone"
    );
}

/// Acceptance: severing a CE's TCP back link mid-run loses no alert —
/// the link reconnects (visible in the fault counters) and the user
/// output still matches the in-process run with the same plan.
#[test]
fn back_link_sever_reconnects_without_losing_alerts() {
    let plan = || FaultPlan {
        severs: vec![SeverBackLink { ce: 0, at_send: 3, down_for: Duration::from_millis(30) }],
        ..FaultPlan::default()
    };
    let in_process = run_in_process(plan(), &[]);
    let (sockets, _) = run_sockets(plan(), &[]);

    assert_eq!(
        sockets.displayed,
        in_process.displayed,
        "socket pipeline diverged across a back-link severance \
         (sockets {:?} vs in-process {:?})",
        displayed_seqnos(&sockets),
        displayed_seqnos(&in_process),
    );
    // Every reading above the threshold is displayed exactly once:
    // nothing lost to the severance, duplicates filtered.
    assert_eq!(displayed_seqnos(&sockets), (1..=20).filter(|s| s % 2 == 0).collect::<Vec<_>>());

    // The counters prove a real TCP connection dropped and came
    // back.
    let back = &sockets.transport.back_links;
    let severs_and_lost: Vec<_> = back.iter().map(|b| (b.severs, b.lost_overflow)).collect();
    assert_eq!(severs_and_lost, [(1, 0), (0, 0)]);
    assert!(back[0].reconnects >= 1, "sever needs a reconnect");
    assert!(
        sockets.transport.ad.connections >= 3,
        "two initial connections plus at least one reconnect, got {}",
        sockets.transport.ad.connections
    );
}
