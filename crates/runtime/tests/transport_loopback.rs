//! Loopback socket-transport tests: the same system, once over
//! in-process channels and once over real UDP/TCP sockets, must show
//! the user the exact same filtered alert sequence — under scripted
//! and seeded Bernoulli front-link loss, which both shapes draw from
//! the builder's own loss model with the same seeds, and across a
//! mid-run TCP back-link severance.
//!
//! These are the tentpole acceptance tests for the socket transport:
//! they prove the deployment path is behaviorally identical to the
//! model the rest of the repo verifies — paced one reading per
//! datagram or a whole round per datagram, at 0% and 20% front-link
//! loss, evaluated on the event loop or on shard workers, and with
//! replicas killed within and past their restart budget.

use std::sync::Arc;
use std::time::Duration;

use rcm_core::condition::{cond, Cmp, Condition};
use rcm_core::{Alert, AlertId, CeId, Update, VarId};
use rcm_net::{Bernoulli, Scripted};
use rcm_runtime::{
    BoundTopology, FaultPlan, MonitorSystem, RunReport, SeverBackLink, SystemBuilder, Topology,
    TransportMode, VarFeed,
};

fn x() -> VarId {
    VarId::new(0)
}

fn threshold() -> Arc<dyn Condition> {
    Arc::new(cond::threshold(x(), Cmp::Gt, 50.0))
}

/// Workload: 20 readings, every odd one above the threshold → 10
/// deterministic alerts per fully-fed replica.
fn values() -> Vec<f64> {
    (0..20).map(|i| if i % 2 == 1 { 60.0 + f64::from(i) } else { 40.0 }).collect()
}

/// Pace DM emissions so loopback datagrams preserve send order and
/// each replica's alerts reach the AD before the next reading goes out;
/// a paced feed emits one reading per round, so each datagram is one
/// update.
const PERIOD: Duration = Duration::from_millis(1);

/// The system every test here runs in both shapes: two replicas of the
/// threshold over `values()` paced at `period`, under `plan`, replica
/// `i`'s front link dropping the updates at `drops[i]` (0-based).
fn system(plan: FaultPlan, drops: [&'static [u64]; 2], period: Duration) -> SystemBuilder {
    MonitorSystem::builder(threshold())
        .replicas(2)
        .feed(VarFeed::new(x(), values()).period(period))
        .loss(move |_, ce: CeId| {
            Box::new(Scripted::new(drops[ce.index() as usize].iter().copied()))
        })
        .faults(plan)
}

fn run_in_process(plan: FaultPlan, drops: &'static [u64]) -> RunReport {
    run_in_process_paced(plan, [drops; 2], PERIOD)
}

fn run_in_process_paced(
    plan: FaultPlan,
    drops: [&'static [u64]; 2],
    period: Duration,
) -> RunReport {
    system(plan, drops, period).start().expect("in-process system starts").wait()
}

/// Runs the same system over real loopback sockets, the DM loop drawing
/// the same scripted drop set before the datagrams go out.
fn run_sockets(plan: FaultPlan, drops: &'static [u64]) -> RunReport {
    run_sockets_with(plan, [drops; 2], 0, PERIOD)
}

/// Like [`run_sockets`] with the CE evaluation pipeline enabled at
/// `workers` shard workers (0 = evaluated on the event loop's thread)
/// and the feed paced at `period`.
fn run_sockets_with(
    plan: FaultPlan,
    drops: [&'static [u64]; 2],
    workers: usize,
    period: Duration,
) -> RunReport {
    let bound = Topology::loopback(2).bind().expect("bind topology");
    system(plan, drops, period)
        .workers(workers)
        .transport(bound.idle_timeout(Duration::from_secs(10)))
        .start()
        .expect("socket system starts")
        .wait()
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
        let in_process = run_in_process(FaultPlan::default(), drops);
        let sockets = run_sockets(FaultPlan::default(), drops);

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

        // Each link's ledger counts exactly the scripted positions as
        // dropped, no datagram carried them, and each CE ingress saw
        // only the survivors.
        let kept = (values().len() - drops.len()) as u64;
        for (_, _, stats) in &sockets.transport.front_links {
            assert_eq!(stats.updates_dropped, drops.len() as u64);
            assert_eq!((stats.updates_sent, stats.frames_sent), (values().len() as u64, kept));
        }
        assert_eq!(sockets.transport.ingress.len(), 2);
        for ingress in &sockets.transport.ingress {
            assert_eq!(ingress.delivered, kept);
        }
        assert_eq!(sockets.transport.decode_errors(), 0);
        // The per-link view reads alike in both modes.
        assert_eq!(sockets.links, in_process.links);
        // The engine rollup is live: the readiness loop woke to carry this.
        assert!(sockets.transport.engine.wakeups > 0, "loop never woke");
    }
}

/// Acceptance under a drawn loss model: 40 readings paced 1 ms over two
/// replicas at seeded Bernoulli(0.2) front loss display the same alerts
/// over sockets as in-process, and each replica ingests the same
/// updates, because both shapes draw each link's loss from one seed.
#[test]
fn seeded_bernoulli_loss_displays_what_in_process_displays() {
    let values: Vec<f64> =
        (0..40).map(|i| if i % 2 == 1 { 60.0 + f64::from(i) } else { 40.0 }).collect();
    let system = || {
        MonitorSystem::builder(threshold())
            .replicas(2)
            .feed(VarFeed::new(x(), values.clone()).period(PERIOD))
            .loss(|_, _| Box::new(Bernoulli::new(0.2)))
            .seed(7)
    };
    let in_process = system().start().expect("in-process system starts").wait();
    let bound = Topology::loopback(2).bind().expect("bind topology");
    let sockets = system().transport(bound).start().expect("socket system starts").wait();

    assert_eq!(
        sockets.displayed,
        in_process.displayed,
        "sockets {:?} vs in-process {:?}",
        displayed_seqnos(&sockets),
        displayed_seqnos(&in_process),
    );
    for (ce, (got, want)) in sockets.ingested.iter().zip(&in_process.ingested).enumerate() {
        assert_eq!(got, want, "replica {ce} ingested other updates over sockets");
    }
    assert!(sockets.links.iter().any(|(_, link)| link.dropped > 0), "the 20% loss dropped nothing");
    assert!(sockets.transport.engine.wakeups > 0, "loop never woke");
    assert_eq!(sockets.transport.decode_errors(), 0);
}

/// Acceptance for the version refusal, live on the evented engine:
/// peers still labelling their frames wire version 2 or 3 — a datagram
/// of each at each CE ingress, a stream of each at the AD listener —
/// are counted in `decode_errors` (each stream peer disconnected at its
/// first frame), and the displayed output is exactly the in-process
/// run's. So a version-3 `rcm-ce` and a version-4 `rcm-ad` refuse each
/// other rather than misparse an alert.
#[test]
fn version_2_peers_are_refused_and_change_nothing() {
    use rcm_runtime::wire::{self, Message};
    use std::io::Write;

    const STALE: [u8; 2] = [2, 3];
    let labelled = |version: u8, msg: &Message| {
        let mut frame = wire::encode(msg).expect("encodes");
        frame[0] = version;
        frame
    };
    let baseline = run_in_process(FaultPlan::default(), &[]);
    let bound = Topology::loopback(2).bind().expect("bind topology");
    // The sockets are bound already, so the stale frames queue ahead of
    // everything the system itself sends. An update that would fire
    // the threshold, ahead of the stream's seqnos if it were admitted:
    let stale = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind raw");
    let mut stale_ces = Vec::new();
    for version in STALE {
        let update = Message::Update(rcm_core::Update::new(x(), 1, 99.0));
        for addr in bound.ce_addrs() {
            stale.send_to(&labelled(version, &update), addr).expect("send_to");
        }
        let alert = labelled(version, &Message::Alert(baseline.displayed[0].clone()));
        let mut stale_ce = std::net::TcpStream::connect(bound.ad_addr()).expect("connect raw");
        stale_ce.write_all(&[&alert[..], &alert[..]].concat()).expect("write");
        stale_ces.push(stale_ce);
    }

    let sockets = MonitorSystem::builder(threshold())
        .replicas(2)
        .feed(VarFeed::new(x(), values()).period(PERIOD))
        .transport(bound.idle_timeout(Duration::from_secs(10)))
        .start()
        .expect("socket system starts")
        .wait();

    assert_eq!(sockets.displayed, baseline.displayed);
    for ingress in &sockets.transport.ingress {
        assert_eq!(ingress.decode_errors, STALE.len() as u64);
        assert_eq!(ingress.delivered, values().len() as u64);
    }
    // Two refused frames were written on each stream, one was counted:
    // the listener dropped each stream at its first.
    assert_eq!(sockets.transport.ad.decode_errors, STALE.len() as u64);
}

/// Acceptance for round framing: an unpaced 20-reading feed is one DM
/// round, so each front link sends it as one datagram of 20 updates —
/// and the displayed output is bit for bit the in-process run's.
#[test]
fn a_round_is_one_datagram_and_output_does_not_change() {
    let baseline = run_in_process_paced(FaultPlan::default(), [&[]; 2], Duration::ZERO);
    let sockets = run_sockets_with(FaultPlan::default(), [&[]; 2], 0, Duration::ZERO);

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

/// Each alert as it was emitted, field for field: its id, and the
/// updates its snapshot spells (`Alert`'s `==` compares neither).
fn spelled(alerts: &[Alert]) -> Vec<(AlertId, Vec<Update>)> {
    alerts.iter().map(|a| (a.id, a.updates().collect())).collect()
}

/// Scripted loss holds unpaced too: the 20 readings are one round, so
/// each replica gets one datagram holding what its link's draws kept
/// (a different drop set per replica), and each replica ingests and
/// emits exactly what its in-process twin does, alert ids included.
#[test]
fn scripted_loss_matches_in_process_unpaced_in_one_datagram_per_replica() {
    const DROPS: [&[u64]; 2] = [&[1, 4, 7, 11], &[0, 3, 19]];
    let in_process = run_in_process_paced(FaultPlan::default(), DROPS, Duration::ZERO);
    let sockets = run_sockets_with(FaultPlan::default(), DROPS, 0, Duration::ZERO);

    for (ce, drops) in DROPS.iter().enumerate() {
        let want: Vec<u64> = (1..=20).filter(|s| !drops.contains(&(s - 1))).collect();
        let got: Vec<u64> = sockets.ingested[ce].iter().map(|u| u.seqno.get()).collect();
        assert_eq!(got, want, "replica {ce} admitted what its draws kept");
        assert_eq!(sockets.ingested[ce], in_process.ingested[ce], "replica {ce}");
        assert!(!in_process.emitted[ce].is_empty(), "replica {ce} raised nothing");
        assert_eq!(sockets.emitted[ce], in_process.emitted[ce], "replica {ce}");
        assert_eq!(spelled(&sockets.emitted[ce]), spelled(&in_process.emitted[ce]));
    }
    for &(_, ce, stats) in &sockets.transport.front_links {
        assert_eq!(stats.frames_sent, 1, "replica {ce}: one round, one datagram");
        assert_eq!(stats.updates_sent, 20);
        assert_eq!(stats.updates_dropped, DROPS[ce].len() as u64, "replica {ce}");
    }
    assert_eq!(sockets.links, in_process.links);
    for (ce, ingress) in sockets.transport.ingress.iter().enumerate() {
        assert_eq!(ingress.delivered, (20 - DROPS[ce].len()) as u64);
        assert_eq!(ingress.dropped_stale, 0);
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
            vars.iter().map(|&v| Arc::new(cond::threshold(v, Cmp::Gt, 50.0)) as Arc<dyn Condition>);
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
    let inline = run_in_process(FaultPlan::default(), DROPS);
    assert!(!inline.displayed.is_empty());
    let sockets = run_sockets_with(FaultPlan::default(), [DROPS; 2], 4, PERIOD);
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
        severs: vec![SeverBackLink { ce: 0, at_send: 3, down_sends: 5 }],
        ..FaultPlan::default()
    };
    let in_process = run_in_process(plan(), &[]);
    let sockets = run_sockets(plan(), &[]);

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

/// What a run's supervisor did: kills injected, restarts per replica,
/// replicas abandoned and updates lost while down.
fn fault_counts(report: &RunReport) -> (u32, Vec<u32>, u32, u64) {
    let f = &report.faults;
    (f.kills_injected, f.restarts.clone(), f.replicas_abandoned, f.updates_dropped_down)
}

/// Acceptance for supervision on the event loop: a socket run with
/// replica kills displays what the in-process run with the same plan
/// displays, with the same restarts and abandonments. Within the budget
/// both replicas die on the same alerting reading and replica 0 dies
/// again later; past it, replica 0's second kill exhausts a budget of
/// one and the replica is abandoned, its back link closed with a Fin
/// from the loop, and the run still ends.
#[test]
fn replica_kills_over_sockets_match_in_process_within_and_past_the_budget() {
    let within = FaultPlan::default().kill_ce(0, 4).kill_ce(1, 4).kill_ce(0, 12).max_restarts(3);
    let past = FaultPlan::default().kill_ce(0, 4).kill_ce(0, 9).max_restarts(1);
    for (name, plan, restarts, abandoned) in
        [("within", within, [2, 1], 0), ("past", past, [1, 0], 1)]
    {
        let in_process = run_in_process(plan.clone(), &[]);
        let (done_tx, done) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let _ = done_tx.send(run_sockets(plan, &[]));
        });
        let sockets = done
            .recv_timeout(Duration::from_secs(60))
            .unwrap_or_else(|e| panic!("{name} the budget: the socket run did not end: {e}"));

        assert_eq!(
            sockets.displayed,
            in_process.displayed,
            "{name} the budget: sockets {:?} vs in-process {:?}",
            displayed_seqnos(&sockets),
            displayed_seqnos(&in_process),
        );
        assert_eq!(fault_counts(&sockets), fault_counts(&in_process), "{name} the budget");
        assert_eq!(sockets.faults.restarts, restarts, "{name} the budget");
        assert_eq!(sockets.faults.replicas_abandoned, abandoned, "{name} the budget");
        assert_eq!(sockets.transport.ad.fins, 2, "{name} the budget: every replica said Fin");
    }
}
