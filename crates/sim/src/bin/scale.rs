//! `scale` — the evented engine's link-count gauntlet.
//!
//! ```text
//! cargo run --release -p rcm-sim --bin scale -- \
//!     --front 2000 --back 100 --active 100 --updates 20 --json
//! ```
//!
//! One process, one readiness loop: `--front N` loopback UDP front
//! links feed a single evented CE ingress, and `--back M` TCP back
//! links feed a single evented AD listener. Only `--active A` of the
//! front links carry traffic (`--updates K` each); the rest sit idle
//! until their Fin — the paper's "numerous update streams" regime,
//! where the engine's job is to hold thousands of mostly-quiet links
//! without a thread or a 64 KiB buffer per socket.
//!
//! Every delivered update fires its variable's threshold, and the
//! alert is fanned out on *all* M back links, so the AD sees each alert
//! M times and its AD-1 filter must display it **exactly once**. The
//! run fails (nonzero exit) if:
//!
//! * any of the A×K emitted alerts is displayed zero or multiple times,
//! * the listener heard anything other than emitted × M alerts,
//! * any link surfaced a decode error, or
//! * the run overshot `--budget-ms` of wall clock.
//!
//! The CE body is an `EvalPipeline` over one always-firing threshold
//! per active variable, dispatched one update at a time; `--workers W`
//! (default 0 = evaluated on the main thread) splits it into `W`
//! shards, `cond_id % W`, run on the main thread and `min(W, cpus) - 1`
//! helper threads (`cpus`: the CPUs the process may use), and merges
//! the alerts back into stream order before the fan-out, so the
//! gauntlet also exercises sharded evaluation under real sockets. The
//! report carries the helper count and the pipeline's ingest→emit
//! latency percentiles.
//!
//! `--tree DxF` (e.g. `--tree 3x8`: depth 3, fanout 8) swaps the flat
//! CE body for an aggregation tree (`rcm_tree::TreeEval`): the evented
//! loop still owns every socket (front ingress, back links, AD
//! listener), but each delivered update routes through `F^(D-1)` leaf
//! CEs that emit derived verdict streams up `D-2` relay tiers to a
//! root CE, whose re-stamped alerts fan out on the back links at once.
//! The exactly-once assertion is unchanged and now spans the whole
//! tree: every update must surface at the root-fed AD exactly once. No
//! tree node runs an `EvalPipeline`, so `--tree` with a non-zero
//! `--workers` is a usage error: exit 1 before a socket is bound.
//!
//! `--json` adds the capacity evidence CI archives: peak process FDs
//! (read from `/proc/self/fd`) and resident-set delta per link, plus
//! the engine's wakeup/timer/spurious counters and (in tree mode) the
//! tree's routing/forwarding counters. CI runs 2,000 front links in
//! the PR gauntlet (`scale-smoke`) plus a `tree-scale-smoke` at
//! `--tree 3x4`; the 10k-link and `--tree 3x8` soaks are nightly.

use std::process::ExitCode;
use std::time::Instant;

use rcm_core::ad::{Ad1, AlertFilter};
use rcm_core::condition::{Cmp, Condition, Threshold};
use rcm_core::{Alert, CeId, CondId, LatencyHistogram, Update, VarId};
use rcm_json::obj;
use rcm_net::Backoff;
use rcm_runtime::{AlertDrain, EvalPipeline, PipelineOptions};
use rcm_sync::atomic::{AtomicU64, Ordering};
use rcm_sync::Arc;
use rcm_transport::{fin_rounds, BackLinkSpec, EventLoop, EventedBackLink, UdpFrontLink};
use rcm_tree::{TreeEval, TreeOptions, TreePlan, TreeStats};

use std::time::Duration;

struct Options {
    front: usize,
    back: usize,
    active: usize,
    updates: u64,
    budget: Duration,
    workers: usize,
    /// `Some((depth, fanout))` routes evaluation through an
    /// aggregation tree instead of the flat CE body.
    tree: Option<(usize, usize)>,
    json: bool,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: scale [--front N] [--back M] [--active A] [--updates K] \
         [--budget-ms MS] [--workers W] [--tree DxF] [--json]\n\
         --workers W splits the conditions into W shards, run on the main\n\
         thread and min(W, CPUs) - 1 helper threads (0 and 1 spawn none)"
    );
    ExitCode::FAILURE
}

/// Parses `--tree DxF` (e.g. `3x8`): depth ≥ 2 levels of CEs counting
/// the root, fanout ≥ 1 children per interior node.
fn parse_tree(spec: &str) -> Option<(usize, usize)> {
    let (d, f) = spec.split_once(['x', 'X'])?;
    let depth: usize = d.parse().ok()?;
    let fanout: usize = f.parse().ok()?;
    if depth < 2 || fanout < 1 {
        return None;
    }
    Some((depth, fanout))
}

fn parse_args() -> Option<Options> {
    let mut opts = Options {
        front: 2000,
        back: 100,
        active: 100,
        updates: 20,
        budget: Duration::from_secs(120),
        workers: 0,
        tree: None,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--front" => opts.front = args.next()?.parse().ok()?,
            "--back" => opts.back = args.next()?.parse().ok()?,
            "--active" => opts.active = args.next()?.parse().ok()?,
            "--updates" => opts.updates = args.next()?.parse().ok()?,
            "--budget-ms" => opts.budget = Duration::from_millis(args.next()?.parse().ok()?),
            "--workers" => opts.workers = args.next()?.parse().ok()?,
            "--tree" => opts.tree = Some(parse_tree(&args.next()?)?),
            "--json" => opts.json = true,
            _ => return None,
        }
    }
    opts.active = opts.active.min(opts.front);
    // No tree node runs an `EvalPipeline`: refuse the pair rather than
    // report a worker count nothing used.
    if opts.tree.is_some() && opts.workers > 0 {
        return None;
    }
    Some(opts)
}

/// The CE body's sink: fans every merged alert out on all M back links
/// and counts emissions.
struct FanoutDrain {
    backs: Vec<EventedBackLink>,
    emitted: Arc<AtomicU64>,
}

impl AlertDrain for FanoutDrain {
    fn round(&mut self, alerts: &mut Vec<Alert>) {
        for alert in alerts.drain(..) {
            for back in &mut self.backs {
                back.send_alert(alert.clone());
            }
            self.emitted.fetch_add(1, Ordering::Relaxed);
        }
    }
    fn end_of_stream(&mut self) {
        for back in &mut self.backs {
            back.finish();
        }
    }
}

/// Open file descriptors of this process (Linux; 0 elsewhere).
fn open_fds() -> u64 {
    std::fs::read_dir("/proc/self/fd").map(|d| d.count() as u64).unwrap_or(0)
}

/// Resident set size in bytes (Linux; 0 elsewhere).
fn rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else { return 0 };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

fn main() -> ExitCode {
    let Some(opts) = parse_args() else { return usage() };
    let started = Instant::now();
    let rss_before = rss_bytes();

    // The node under test: one loop holding the CE ingress, the AD
    // listener, and every back link.
    let ce_sock = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind CE socket");
    let ce_addr = ce_sock.local_addr().expect("CE addr");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind AD listener");
    let ad_addr = listener.local_addr().expect("AD addr");

    // The wall-clock budget is the gauntlet's only backstop: the idle
    // timeouts must outlast any legitimately quiet phase (the listener
    // hears nothing while the DM fleet sends and signs off), or the
    // backstop severs a healthy pipeline mid-run.
    let idle = opts.budget;
    let mut el = EventLoop::new().expect("event loop");
    let engine_counters = el.counters();
    let (update_tx, update_rx) = rcm_sync::chan::unbounded();
    let ingress = el
        .add_front_ingress(ce_sock, opts.front, idle, move |u| {
            let _ = update_tx.send(u);
        })
        .expect("register ingress");
    let (alert_tx, alert_rx) = rcm_sync::chan::unbounded();
    let ad = el
        .add_alert_listener(listener, opts.back, idle, move |a| {
            let _ = alert_tx.send(a);
        })
        .expect("register listener");
    let mut backs = Vec::with_capacity(opts.back);
    let mut back_stats = Vec::with_capacity(opts.back);
    for j in 0..opts.back {
        let backoff = Backoff::new(Duration::from_micros(200), Duration::from_millis(20), j as u64);
        let back = el
            .add_back_link(BackLinkSpec::new(ad_addr, j as u32, backoff))
            .expect("back link connects");
        back_stats.push(back.stats_handle());
        backs.push(back);
    }
    let engine = rcm_sync::thread::spawn(move || el.run());

    // The DM fleet: every front link exists (and owns an FD); only the
    // active prefix ever sends an update.
    let mut fronts = Vec::with_capacity(opts.front);
    for i in 0..opts.front {
        fronts.push(UdpFrontLink::connect(ce_addr, i as u32).expect("front link connects"));
    }
    let peak_fds = open_fds();
    let rss_after_links = rss_bytes();

    // Pace sends per round: the gauntlet measures link *capacity* and
    // exactly-once display, not the kernel's UDP receive-buffer depth —
    // an unpaced blast of active×updates datagrams into one socket
    // would overflow it and read as loss.
    for k in 1..=opts.updates {
        for (i, link) in fronts.iter_mut().take(opts.active).enumerate() {
            let _ = link.send_update(Update::new(VarId::new(i as u32), k, k as f64));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    // Fin rounds, paced like the updates: every link's Fin lands on the
    // one CE socket, and a round of them back to back overflows its
    // receive buffer (seen: 117 of 2,000 links lost all eight Fins).
    // A link whose Fin the ingress echoed leaves the bursts.
    let mut open: Vec<&mut UdpFrontLink> = fronts.iter_mut().collect();
    fin_rounds(8, |until| {
        for burst in open.chunks_mut(100) {
            burst.iter_mut().for_each(|link| link.send_fin());
            std::thread::sleep(Duration::from_micros(500));
        }
        open.retain_mut(|link| !link.fin_echoed(until));
        open.is_empty()
    });

    // CE body: each delivered update fires one always-true threshold
    // per active variable, and the alert is fanned out on every back
    // link. The channel closes when the ingress saw all N Fins (or its
    // idle backstop fired). `--workers W` splits the conditions into
    // `W` shards, `cond_id % W`, and merges back into stream order
    // before the fan-out.
    let latency = Arc::new(LatencyHistogram::new());
    let emitted = Arc::new(AtomicU64::new(0));
    let mut drain = FanoutDrain { backs, emitted: Arc::clone(&emitted) };
    let mut tree_stats: Option<TreeStats> = None;
    let mut helpers = 0;
    if let Some((depth, fanout)) = opts.tree {
        // Each delivered update goes through the tree as the ingress
        // hands it over, and the root's alerts fan out at once. Per-var
        // seqno order holds because the single ingress socket delivers
        // each link's datagrams in order.
        let leaves = fanout.pow((depth - 1) as u32).max(1);
        let mut plan =
            TreePlan::new(leaves).with_relay_tiers(depth.saturating_sub(2)).with_fanout(fanout);
        for i in 0..opts.active {
            let var = VarId::new(i as u32);
            plan.own(var, i % leaves);
            plan.add_condition(CondId::new(i as u32), Arc::new(Threshold::new(var, Cmp::Gt, 0.0)))
                .expect("single-variable condition lands on its owning leaf");
        }
        let mut tree =
            TreeEval::build(plan, TreeOptions { wire_check: true, ..TreeOptions::default() });
        let mut alerts = Vec::new();
        while let Ok(update) = update_rx.recv() {
            tree.ingest(update, &mut alerts);
            if !alerts.is_empty() {
                drain.round(&mut alerts);
            }
        }
        drain.end_of_stream();
        tree_stats = Some(tree.stats());
    } else {
        let conds: Vec<Arc<dyn Condition>> = (0..opts.active)
            .map(|i| {
                Arc::new(Threshold::new(VarId::new(i as u32), Cmp::Gt, 0.0)) as Arc<dyn Condition>
            })
            .collect();
        let mut pipe = EvalPipeline::start(
            CeId::new(0),
            &conds,
            &PipelineOptions::with_workers(opts.workers),
            Box::new(drain),
            Arc::clone(&latency),
            Arc::new(AtomicU64::new(0)),
        );
        helpers = pipe.helpers();
        while let Ok(update) = update_rx.recv() {
            pipe.dispatch(update);
        }
        pipe.finish();
    }
    let emitted = emitted.load(Ordering::Relaxed);
    engine.join().expect("loop thread");

    // AD body: AD-1 over the merged stream — every emitted alert must
    // survive exactly once.
    let mut filter = Ad1::new();
    let mut heard: u64 = 0;
    let mut displayed: u64 = 0;
    while let Ok(alert) = alert_rx.recv() {
        heard += 1;
        if filter.offer(&alert).is_deliver() {
            displayed += 1;
        }
    }

    let elapsed = started.elapsed();
    let ingress_stats = ingress.snapshot();
    let ad_stats = ad.snapshot();
    let engine_stats = engine_counters.snapshot();
    let lost_overflow: u64 = back_stats.iter().map(|s| s.snapshot().lost_overflow).sum();
    let shed: u64 = back_stats.iter().map(|s| s.snapshot().shed).sum();
    let per_link_bytes = if opts.front == 0 {
        0
    } else {
        rss_after_links.saturating_sub(rss_before) / opts.front as u64
    };

    let expected_emitted = opts.active as u64 * opts.updates;
    let mut violations: Vec<String> = Vec::new();
    if emitted != expected_emitted {
        violations.push(format!("emitted {emitted} alerts, expected {expected_emitted}"));
    }
    if displayed != emitted {
        violations.push(format!("displayed {displayed} of {emitted} alerts — not exactly-once"));
    }
    if heard != emitted * opts.back as u64 {
        violations.push(format!(
            "listener heard {heard} alerts, expected emitted × back links = {}",
            emitted * opts.back as u64
        ));
    }
    if ingress_stats.decode_errors != 0 || ad_stats.decode_errors != 0 {
        violations.push(format!(
            "decode errors on loopback (ingress {}, listener {})",
            ingress_stats.decode_errors, ad_stats.decode_errors
        ));
    }
    if lost_overflow != 0 {
        violations.push(format!("{lost_overflow} alerts lost to resend-queue overflow"));
    }
    if ingress_stats.fins != opts.front as u64 {
        violations.push(format!(
            "ingress saw {} of {} Fins (idle backstop ended the run)",
            ingress_stats.fins, opts.front
        ));
    }
    if elapsed > opts.budget {
        violations.push(format!("wall clock {elapsed:?} overshot budget {:?}", opts.budget));
    }

    if opts.json {
        let tree = tree_stats.as_ref().map(|s| {
            obj([
                ("depth", opts.tree.map_or(0, |t| t.0).into()),
                ("fanout", opts.tree.map_or(0, |t| t.1).into()),
                ("leaves", opts.tree.map_or(0, |(d, f)| f.pow((d - 1) as u32)).into()),
                ("updates_routed", s.updates_routed.into()),
                ("derived_emitted", s.derived_emitted.into()),
                ("derived_forwarded", s.derived_forwarded.into()),
                ("derived_duplicates", s.derived_duplicates.into()),
                ("root_alerts", s.root_alerts.into()),
                ("wire_frames", s.wire_frames.into()),
                ("wire_bytes", s.wire_bytes.into()),
            ])
        });
        let lat = latency.snapshot();
        let doc = obj([
            ("front_links", opts.front.into()),
            ("back_links", opts.back.into()),
            ("active_links", opts.active.into()),
            ("updates_per_active_link", opts.updates.into()),
            ("emitted", emitted.into()),
            ("displayed", displayed.into()),
            ("listener_alerts", heard.into()),
            ("fins_seen", ingress_stats.fins.into()),
            ("connections", ad_stats.connections.into()),
            ("peak_fds", peak_fds.into()),
            ("rss_delta_bytes", rss_after_links.saturating_sub(rss_before).into()),
            ("per_link_bytes", per_link_bytes.into()),
            ("shed", shed.into()),
            ("workers", opts.workers.into()),
            ("helpers", helpers.into()),
            ("latency_p50_ns", lat.p50_ns.into()),
            ("latency_p99_ns", lat.p99_ns.into()),
            ("latency_p999_ns", lat.p999_ns.into()),
            ("latency_count", lat.count.into()),
            ("elapsed_ms", (elapsed.as_millis() as u64).into()),
            ("budget_ms", (opts.budget.as_millis() as u64).into()),
            ("engine", engine_stats.to_json()),
            ("tree", tree.into()),
            ("violations", violations.clone().into()),
        ]);
        println!("{doc:#}");
    } else {
        println!(
            "scale: {} front links ({} active × {} updates), {} back links, \
             {} eval worker(s), {} helper(s)",
            opts.front, opts.active, opts.updates, opts.back, opts.workers, helpers
        );
        if let (Some((depth, fanout)), Some(s)) = (opts.tree, &tree_stats) {
            println!(
                "  tree: depth {depth} fanout {fanout} ({} leaves), {} updates routed, \
                 {} derived forwarded, {} root alerts over {} wire frames",
                fanout.pow((depth - 1) as u32),
                s.updates_routed,
                s.derived_forwarded,
                s.root_alerts,
                s.wire_frames
            );
        }
        let snap = latency.snapshot();
        println!(
            "  pipeline: latency p50 {} ns / p99 {} ns / p999 {} ns over {} update(s)",
            snap.p50_ns, snap.p99_ns, snap.p999_ns, snap.count
        );
        println!(
            "  emitted {emitted}, displayed {displayed} (exactly-once), \
             listener heard {heard}"
        );
        println!(
            "  peak fds {peak_fds}, ~{per_link_bytes} B/link resident, \
             {} wakeups, {} timer fires, {elapsed:?} elapsed",
            engine_stats.wakeups, engine_stats.timer_fires
        );
        for v in &violations {
            println!("  VIOLATION: {v}");
        }
    }

    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
