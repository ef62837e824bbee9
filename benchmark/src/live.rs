//! One live run of a workload against `rcm_runtime::MonitorSystem`:
//! set-up, warm-up, the paced (open-loop) phase, the closed-loop phase,
//! shutdown, and the metrics read off it.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rcm_core::Alert;
use rcm_runtime::{MonitorSystem, RunReport, Topology, VarFeed};
use rcm_sync::chan::Sender;

use crate::calib::{self, Pacer};
use crate::generator::{AckBoard, Clock, Paced, RealClock, Window, WindowStats};
use crate::oracle::Seen;
use crate::os;
use crate::stats::{at_no_steal, median, percentile, tail_percentile};
use crate::workloads::{values, ConditionSet, Layout, Links, Workload, FEED_BOUND, PERIOD, WINDOW};

/// How long a full window may see no acknowledgement before the
/// outstanding readings are written off as lost. Longer than any stall
/// of the host seen so far: writing off a window that is merely late
/// would hand the stalled system a second one.
const ACK_TIMEOUT: Duration = Duration::from_secs(5);

/// How long the generator sleeps between looks at a feed that is full.
const FEED_POLL: Duration = Duration::from_micros(50);

/// Fewest samples a window needs for its p99 to be below its maximum.
const MIN_WINDOW_SAMPLES: usize = 100;

/// Shape of one run. Counts follow from these and the workload's frozen
/// rates, rounded down to whole generator periods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phases {
    /// Systems set up per run; the last one is the system that is driven.
    pub setups: usize,
    pub warmup_s: f64,
    /// Seconds of the paced phase, each one a window: latency
    /// percentiles are taken per window and the median window is
    /// reported, so that a stall (on a shared host, a stolen vCPU)
    /// spoils a window and not the run; cpu per update is fitted over
    /// the windows against the time the host withheld in each.
    pub paced_windows: usize,
    /// Nominal seconds of the closed-loop phase: it sends the workload's
    /// `closed_rate` times this, however long that takes.
    pub closed_s: f64,
    /// Whether too few latency samples fail the run.
    pub enforce_samples: bool,
}

impl Phases {
    /// The untraced run: four fifths of `seconds` paced, one fifth
    /// closed.
    pub fn measured(seconds: f64) -> Self {
        Phases {
            setups: 100,
            warmup_s: 1.5,
            paced_windows: ((seconds * 0.8).round() as usize).max(1),
            closed_s: seconds * 0.2,
            enforce_samples: true,
        }
    }

    /// The short live run that supplies a traced run's counters.
    pub fn counters(seconds: f64) -> Self {
        Phases {
            setups: 5,
            warmup_s: 1.0,
            paced_windows: ((seconds * 0.25).round() as usize).max(1),
            closed_s: seconds * 0.1,
            enforce_samples: false,
        }
    }

    /// `--quick`: two-second phases, a smoke test and not a measurement.
    pub fn quick() -> Self {
        Phases { setups: 2, warmup_s: 0.5, paced_windows: 2, closed_s: 2.0, enforce_samples: false }
    }
}

/// Reading counts per phase, in global stream positions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    warmup: u64,
    paced: u64,
    closed: u64,
}

/// Where a stream position falls in the run, with its position within
/// that phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Spot {
    Warmup,
    Paced(u64),
    Closed(u64),
}

impl Counts {
    fn of(workload: &Workload, phases: &Phases) -> Self {
        let whole = |n: u64| (n / PERIOD).max(1) * PERIOD;
        Counts {
            warmup: whole(Paced::count(workload.paced_rate, phases.warmup_s)),
            paced: whole(Paced::count(workload.paced_rate, phases.paced_windows as f64)),
            closed: whole(Paced::count(workload.closed_rate, phases.closed_s)),
        }
    }

    fn closed_start(&self) -> u64 {
        self.warmup + self.paced
    }

    fn total(&self) -> u64 {
        self.closed_start() + self.closed
    }

    fn spot(&self, g: u64) -> Spot {
        match (g.checked_sub(self.warmup), g.checked_sub(self.closed_start())) {
            (None, _) => Spot::Warmup,
            (Some(at), None) => Spot::Paced(at),
            (_, Some(at)) => Spot::Closed(at),
        }
    }
}

/// What the AD's `on_alert` callback shares with the generator.
struct Board {
    clock: RealClock,
    layout: Layout,
    /// The heartbeat condition: the last one registered.
    hb_cond: u32,
    counts: Counts,
    seen: Mutex<Vec<Seen>>,
    acked: Mutex<AckLog>,
    /// What every replica has acknowledged: the generator waits on it.
    acks: AckBoard,
}

/// The acknowledgements as the callback sees them.
struct AckLog {
    /// Per replica: readings (stream positions) its heartbeat alerts
    /// acknowledged.
    per_replica: Vec<u64>,
    /// Readings every replica has acknowledged.
    by_all: u64,
    /// Each advance of the slowest replica within the closed-loop
    /// phase: `(closed-loop readings, when)`.
    closed_advances: Vec<(u64, u64)>,
}

impl Board {
    fn on_alert(&self, alert: &Alert) {
        let shown_ns = self.clock.now_ns();
        let newest = alert
            .fingerprint
            .iter()
            .map(|(var, seqnos)| self.layout.position_of(var.index() as usize, seqnos[0].get()))
            .max()
            .expect("an alert names a variable");
        self.seen.lock().expect("seen lock").push(Seen {
            cond: alert.cond,
            id: alert.id,
            newest,
            shown_ns,
        });
        if alert.cond.index() == self.hb_cond {
            // The heartbeat stream is displayed unfiltered, one alert
            // per replica: the window opens when the slowest has caught up.
            let mut log = self.acked.lock().expect("acknowledgement log lock");
            log.per_replica[alert.id.ce.index() as usize] = newest + 1;
            let slowest = *log.per_replica.iter().min().expect("at least one replica");
            if slowest > log.by_all {
                log.by_all = slowest;
                if let Spot::Closed(at) = self.counts.spot(newest) {
                    log.closed_advances.push((at + 1, shown_ns));
                }
                drop(log);
                self.acks.raise(slowest);
            }
        }
    }
}

struct Running {
    system: MonitorSystem,
    feeds: Vec<Sender<f64>>,
}

/// Builds the conditions, binds the links and starts every actor.
fn start(workload: &Workload, seed: u64, board: Arc<Board>) -> (ConditionSet, Running) {
    let set = workload.condition_set();
    let mut builder =
        MonitorSystem::builder_multi(set.dynamic()).replicas(workload.replicas).seed(seed);
    let mut feeds = Vec::new();
    for var in set.vars() {
        let (feed, tx) = VarFeed::streaming(var);
        builder = builder.feed(feed);
        feeds.push(tx);
    }
    let filter = workload.filter(&set);
    builder = builder.filter(move |_| filter).on_alert(move |alert| board.on_alert(alert));
    if workload.workers > 0 {
        builder = builder.workers(workload.workers);
    }
    match workload.links {
        Links::InProcess { .. } => {
            let (workload, set) = (*workload, set.clone());
            builder = builder.loss(move |var, _| workload.loss_on(var, &set));
        }
        Links::Sockets => {
            let topology =
                Topology::loopback(workload.replicas).bind().expect("loopback sockets bind");
            builder = builder.transport(topology);
        }
    }
    let system = builder.start().expect("workload configuration is valid");
    (set, Running { system, feeds })
}

/// Which CPUs the run uses. On a host with two or more, the system
/// under test is confined to one and the generator to another: left to
/// the scheduler, the actors' placement flips between packed and spread
/// every few seconds, and every latency with it (see README.md).
pub struct Placement {
    pub all: Vec<usize>,
    pub system: Vec<usize>,
    generator: Vec<usize>,
}

impl Placement {
    pub fn of_this_host() -> Self {
        let all = os::allowed_cpus();
        match all.as_slice() {
            [first, .., last] => Placement { system: vec![*last], generator: vec![*first], all },
            _ => Placement { system: all.clone(), generator: all.clone(), all },
        }
    }

    /// Cpu time the process and, of that, the pacer have used, and time
    /// the host has withheld from the CPUs the run uses, so far.
    fn usage(&self, clock: &RealClock, pacer: &Pacer) -> Usage {
        let mut cpus = self.system.clone();
        cpus.extend(&self.generator);
        cpus.dedup();
        Usage {
            at_ns: clock.now_ns(),
            cpu_s: os::cpu_seconds(),
            pacer_cpu_s: pacer.cpu_seconds(),
            steal_s: os::steal_seconds(&cpus),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Usage {
    at_ns: u64,
    cpu_s: f64,
    pacer_cpu_s: f64,
    steal_s: f64,
}

/// Everything one live run produced.
pub struct LiveRun {
    pub set: ConditionSet,
    pub report: RunReport,
    pub seen: Vec<Seen>,
    /// Readings pushed into the feeds over all phases.
    pub offered: u64,
    /// From the start of the run to the first measured reading: every
    /// set-up and tear-down, and the warm-up.
    pub setup_s: f64,
    /// Median of the set-ups alone.
    pub system_start_ms: f64,
    pub latency: Latency,
    pub cpu_us_per_update: f64,
    pub closed_updates_per_s: f64,
    pub peak_rss_mb: f64,
    pub lateness_p99_us: f64,
    pub window: WindowStats,
    /// Times the generator found a data monitor's feed full and slept.
    pub feed_waits: u64,
}

impl std::fmt::Debug for LiveRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveRun").field("offered", &self.offered).finish_non_exhaustive()
    }
}

pub fn run(workload: &Workload, seed: u64, phases: &Phases) -> Result<LiveRun, String> {
    let run_begun = Instant::now();
    let counts = Counts::of(workload, phases);
    let layout = Layout::new(workload.data_vars);
    let placement = Placement::of_this_host();
    let hb_cond = workload.condition_set().compiled.len() as u32 - 1;
    let new_board = || {
        Arc::new(Board {
            clock: RealClock { epoch: Instant::now() },
            layout,
            hb_cond,
            counts,
            seen: Mutex::new(Vec::new()),
            acked: Mutex::new(AckLog {
                per_replica: vec![0; workload.replicas],
                by_all: 0,
                closed_advances: Vec::new(),
            }),
            acks: AckBoard::default(),
        })
    };

    // Set-up, many times over: generate the inputs, compile, bind,
    // start, first reading accepted. All but the last system are torn
    // down again. It runs on the system's CPU (threads inherit the mask
    // they are spawned under); the generator moves to its own afterwards.
    let set_up = || {
        let begun = Instant::now();
        let readings = values(seed, layout, counts.total());
        let board = new_board();
        let (set, running) = start(workload, seed, Arc::clone(&board));
        running.feeds[layout.feed_of(0)].send(readings[0]).expect("a fresh DM accepts a reading");
        (begun.elapsed().as_secs_f64(), readings, board, set, running)
    };
    os::pin_current_thread(&placement.system);
    let mut start_times = Vec::with_capacity(phases.setups);
    for _ in 1..phases.setups {
        let (took, _, _, _, running) = set_up();
        start_times.push(took);
        drop(running.feeds);
        running.system.wait();
    }
    let (took, readings, board, set, Running { system, feeds }) = set_up();
    start_times.push(took);
    os::pin_current_thread(&placement.generator);
    let send = |g: u64| {
        feeds[layout.feed_of(g)].send(readings[g as usize]).expect("DM threads outlive the run")
    };
    // Every phase sends behind one acknowledgement window — heartbeat
    // alerts acknowledge all readings before them once every replica's
    // alert is displayed — and leaves no data monitor more than
    // FEED_BOUND readings to catch up on.
    let mut window = Window::new(&board.acks, WINDOW, ACK_TIMEOUT);
    let mut feed_waits = 0u64;
    let mut admit = |g: u64| {
        let mut waited = window.admit(g);
        let feed = &feeds[layout.feed_of(g)];
        let mut since = None;
        while feed.len() >= FEED_BOUND {
            waited = true;
            feed_waits += 1;
            let since = since.get_or_insert_with(Instant::now);
            assert!(since.elapsed() < ACK_TIMEOUT, "a data monitor stopped taking readings");
            std::thread::sleep(FEED_POLL);
        }
        waited
    };
    admit(0);

    // Warm-up and the paced phase share one absolute schedule; cpu and
    // steal time are read at each window's edge, and a pacer on the
    // system's CPU says how fast that CPU is meanwhile.
    let clock = board.clock;
    let pacer = Pacer::start(clock, placement.system.clone());
    let paced = Paced { t0_ns: clock.now_ns() + 1_000_000, rate: workload.paced_rate };
    let mut lateness = Vec::with_capacity(counts.paced as usize);
    paced.run(&clock, 1..counts.warmup, &mut lateness, &mut admit, send);
    lateness.clear();
    let windows = phases.paced_windows as u64;
    let edge = |w: u64| counts.warmup + counts.paced * w / windows;
    let mut usage_at_edge = Vec::with_capacity(phases.paced_windows + 1);
    let mut setup_s = 0.0;
    for w in 0..windows {
        clock.sleep_until(paced.due_ns(edge(w)));
        if w == 0 {
            setup_s = run_begun.elapsed().as_secs_f64();
        }
        usage_at_edge.push(placement.usage(&clock, &pacer));
        paced.run(&clock, edge(w)..edge(w + 1), &mut lateness, &mut admit, send);
    }
    clock.sleep_until(paced.due_ns(edge(windows)));
    usage_at_edge.push(placement.usage(&clock, &pacer));
    let chunk_log = pacer.stop();

    // Closed loop: as fast as the same bounds allow, then until the
    // last reading is acknowledged.
    let closed_begun_ns = clock.now_ns();
    for g in counts.closed_start()..counts.total() {
        admit(g);
        send(g);
    }
    window.drain(counts.total());

    drop(feeds);
    let report = system.wait();
    let peak_rss_mb = os::peak_rss_mb();
    os::pin_current_thread(&placement.all);
    let seen = std::mem::take(&mut *board.seen.lock().expect("seen lock"));

    // Latency: display time minus the due time of the newest reading in
    // the alert's fingerprint, per paced window; of a heartbeat's alerts
    // (one per replica) the first displayed counts.
    let mut per_window: Vec<Vec<u64>> = vec![Vec::new(); phases.paced_windows];
    let mut hb_shown = vec![false; (counts.total() / PERIOD) as usize];
    for s in &seen {
        if let Spot::Paced(at) = counts.spot(s.newest) {
            let repeat = s.cond.index() == hb_cond
                && std::mem::replace(&mut hb_shown[(s.newest / PERIOD) as usize], true);
            if !repeat {
                let w = (at * windows / counts.paced) as usize;
                per_window[w].push(s.shown_ns.saturating_sub(paced.due_ns(s.newest)));
            }
        }
    }
    // Throughput: the closed loop's `(readings every replica has
    // acknowledged, when)`, from the first send.
    let mut acks = vec![(0, closed_begun_ns)];
    acks.append(&mut board.acked.lock().expect("acknowledgement log lock").closed_advances);
    // Cpu per update by window — the pacer's own cpu taken out — at the
    // reference machine's speed (the pacer's chunks say how fast this
    // CPU was in that window), against the time the host withheld from
    // the run's CPUs in that window.
    let mut by_window = Vec::with_capacity(phases.paced_windows);
    let mut window_cost = Vec::with_capacity(phases.paced_windows);
    for (w, (from, to)) in usage_at_edge.iter().zip(&usage_at_edge[1..]).enumerate() {
        let offered = edge(w as u64 + 1) - edge(w as u64);
        let cpu_s = (to.cpu_s - to.pacer_cpu_s) - (from.cpu_s - from.pacer_cpu_s);
        let cpu_us = cpu_s * 1e6 / offered as f64;
        let steal_s = to.steal_s - from.steal_s;
        let chunks: Vec<f64> = chunk_log
            .iter()
            .filter(|(at_ns, _)| (from.at_ns..to.at_ns).contains(at_ns))
            .map(|&(_, chunk_s)| chunk_s)
            .collect();
        // A window in which the pacer never ran has no speed to go by.
        if !chunks.is_empty() {
            let chunk_s = median(&chunks);
            window_cost.push((steal_s, cpu_us * calib::NOMINAL_S / chunk_s));
            by_window.push(format!("{cpu_us:.1}@{:.0}@{:.1}", steal_s * 1e3, chunk_s * 1e6));
        }
    }
    eprintln!(
        "{}: cpu us per update @ ms the host withheld @ us per chunk, by window: {}",
        workload.name,
        by_window.join(" ")
    );
    if window_cost.is_empty() {
        return Err("cpu per update: the pacer ran in no window".to_string());
    }
    let latency = window_latency(&mut per_window, phases.enforce_samples)?;
    let rates = piece_rates(&acks)?;
    lateness.sort_unstable();

    Ok(LiveRun {
        set,
        report,
        seen,
        offered: counts.total(),
        setup_s,
        system_start_ms: median(&start_times) * 1e3,
        latency,
        cpu_us_per_update: at_no_steal(&window_cost),
        closed_updates_per_s: median(&rates),
        peak_rss_mb,
        lateness_p99_us: percentile(&lateness, 0.99) as f64 / 1e3,
        window: window.stats,
        feed_waits,
    })
}

/// Alert latency over the paced phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Median window's median.
    pub p50_us: f64,
    /// Median window's 99th percentile.
    pub p99_us: f64,
    /// Samples in all windows.
    pub samples: usize,
}

/// Median over the windows of each window's p50 and of each window's
/// p99. When `enforce` is set, the pooled samples must leave ten beyond
/// their p99 and every window must hold enough samples that its own p99
/// is not simply its largest.
fn window_latency(per_window: &mut [Vec<u64>], enforce: bool) -> Result<Latency, String> {
    let mut pooled: Vec<u64> = per_window.iter().flatten().copied().collect();
    pooled.sort_unstable();
    if enforce {
        tail_percentile(&pooled, 0.99)
            .map_err(|e| format!("alert latency over the paced phase: {e}"))?;
    }
    let needed = if enforce { MIN_WINDOW_SAMPLES } else { 1 };
    let mut p50s = Vec::with_capacity(per_window.len());
    let mut p99s = Vec::with_capacity(per_window.len());
    for (w, samples) in per_window.iter_mut().enumerate() {
        if samples.len() < needed {
            return Err(format!(
                "alert latency: paced window {w} has {} samples, need {needed}",
                samples.len()
            ));
        }
        samples.sort_unstable();
        p50s.push(percentile(samples, 0.50) as f64 / 1e3);
        p99s.push(percentile(samples, 0.99) as f64 / 1e3);
    }
    Ok(Latency { p50_us: median(&p50s), p99_us: median(&p99s), samples: pooled.len() })
}

/// Pieces the closed-loop phase is cut into; the median piece's rate is
/// reported.
const CLOSED_PIECES: usize = 8;

/// Readings per second in each piece of the closed-loop phase, from its
/// acknowledgements in display order; `acks[0]` is `(0, first send)`.
fn piece_rates(acks: &[(u64, u64)]) -> Result<Vec<f64>, String> {
    let steps = acks.len() - 1;
    if steps < CLOSED_PIECES {
        return Err(format!("closed loop: {steps} heartbeats acknowledged, need {CLOSED_PIECES}"));
    }
    Ok((0..CLOSED_PIECES)
        .map(|k| {
            let from = acks[steps * k / CLOSED_PIECES];
            let to = acks[steps * (k + 1) / CLOSED_PIECES];
            (to.0 - from.0) as f64 / ((to.1 - from.1) as f64 / 1e9)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stalled_windows_do_not_move_the_reported_latency() {
        let steady: Vec<u64> = (0..200).map(|i| 100_000 + i * 1_000).collect();
        let mut windows = vec![steady.clone(); 7];
        let clean = window_latency(&mut windows, true).unwrap();
        assert_eq!(clean, Latency { p50_us: 199.0, p99_us: 297.0, samples: 1_400 });
        // 50 ms stalls land in three of the seven windows.
        for w in [1, 4, 5] {
            windows[w] = steady.iter().map(|l| l + 50_000_000).collect();
        }
        assert_eq!(window_latency(&mut windows, true).unwrap(), clean);
    }

    #[test]
    fn latency_needs_a_real_tail_and_full_windows_when_enforced() {
        let mut few = vec![(0..150).collect::<Vec<u64>>(); 6];
        assert!(window_latency(&mut few, true).unwrap_err().contains("only 9 of 900"));
        assert!(window_latency(&mut few, false).is_ok());
        let mut uneven = vec![(0..300).collect::<Vec<u64>>(); 6];
        uneven[2].truncate(50);
        assert!(window_latency(&mut uneven, true).unwrap_err().contains("window 2"));
        uneven[2].clear();
        assert!(window_latency(&mut uneven, false).is_err());
    }

    #[test]
    fn piece_rates_split_the_acknowledgements_evenly() {
        // 17 readings acknowledged every millisecond, but for one
        // acknowledgement that arrives after a 100 ms stall.
        let mut acks = vec![(0u64, 1_000_000u64)];
        for i in 1..=80u64 {
            let stall = if i > 45 { 100_000_000 } else { 0 };
            acks.push((17 * i, 1_000_000 + i * 1_000_000 + stall));
        }
        let rates = piece_rates(&acks).unwrap();
        assert_eq!(rates.len(), CLOSED_PIECES);
        assert_eq!(rates.iter().filter(|&&r| r == 17_000.0).count(), CLOSED_PIECES - 1);
        assert_eq!(median(&rates), 17_000.0);
        assert!(piece_rates(&acks[..5]).is_err());
    }

    #[test]
    fn positions_map_to_their_phase() {
        let workload = crate::workloads::find("socket_ingest").unwrap();
        let phases = Phases::measured(20.0);
        assert_eq!((phases.paced_windows, phases.closed_s), (16, 4.0));
        let counts = Counts::of(workload, &phases);
        for n in [counts.warmup, counts.paced, counts.closed] {
            assert_eq!(n % PERIOD, 0);
        }
        assert_eq!(counts.spot(0), Spot::Warmup);
        assert_eq!(counts.spot(counts.warmup - 1), Spot::Warmup);
        assert_eq!(counts.spot(counts.warmup), Spot::Paced(0));
        assert_eq!(counts.spot(counts.closed_start() - 1), Spot::Paced(counts.paced - 1));
        assert_eq!(counts.spot(counts.closed_start()), Spot::Closed(0));
        assert_eq!(counts.spot(counts.total() - 1), Spot::Closed(counts.closed - 1));
    }
}
