//! System assembly: builder, running handle and final report.
//!
//! LOCK ORDER: every mutex here (fault report, per-replica record and
//! output sinks, AD arrival/display sinks) is a leaf —
//! taken alone, released before any send or other acquisition. No two
//! of these locks are ever held at once, so no ordering is needed.

use std::fmt;
use std::time::Duration;

use rcm_sync::chan::unbounded;
use rcm_sync::thread::JoinHandle;
use rcm_sync::{Arc, Mutex};

use rcm_core::ad::{Ad1, AlertFilter};
use rcm_core::condition::Condition;
use rcm_core::{Alert, CeId, ConditionRegistry, LatencyHistogram, LatencySnapshot, Update, VarId};
use rcm_net::{Backoff, LinkStats, LossModel, Lossless};
use rcm_sync::atomic::AtomicU64;
use rcm_transport::{
    BackLinkSpec, BackLinkStats, BoundTopology, EngineStats, EventLoop, FrontLinkStats,
    IngressStats, ListenerStats, RoundSender, TransportMode, TransportReport, UdpFrontLink,
};

use crate::actors::{on_ingress, Ad, CeFaultConfig, Replica};
use crate::backlink::BackLink;
use crate::dm::{dm_loop, Dm, Fanout, FeedSource, Rounds};
use crate::faults::{FaultPlan, FaultReport, IngestGate, RetainedWindow};
use crate::link::FrontHop;
use crate::pipeline::{self, AlertDrain, PipelineOptions};
use crate::socket::SocketRounds;

/// One variable's data feed: where its Data Monitor's readings come
/// from — a pre-recorded list or a live channel.
pub struct VarFeed {
    var: VarId,
    source: FeedSource,
    period: Duration,
}

impl VarFeed {
    /// Creates a feed emitting `values` as fast as possible.
    pub fn new(var: VarId, values: impl Into<Vec<f64>>) -> Self {
        VarFeed {
            var,
            source: FeedSource::Values(values.into().into_iter()),
            period: Duration::ZERO,
        }
    }

    /// Creates a **streaming** feed: the DM emits each reading pushed
    /// through the returned sender, and signals end-of-stream when the
    /// sender is dropped.
    ///
    /// ```rust
    /// use rcm_runtime::{MonitorSystem, VarFeed};
    /// use rcm_core::condition::{cond, Cmp};
    /// use rcm_core::VarId;
    /// use std::sync::Arc;
    ///
    /// let x = VarId::new(0);
    /// let (feed, tx) = VarFeed::streaming(x);
    /// let system = MonitorSystem::builder(Arc::new(cond::threshold(x, Cmp::Gt, 100.0)))
    ///     .replicas(2)
    ///     .feed(feed)
    ///     .start()?;
    /// tx.send(90.0)?;
    /// tx.send(120.0)?; // alert
    /// drop(tx); // end of stream
    /// let report = system.wait();
    /// assert_eq!(report.displayed.len(), 1);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn streaming(var: VarId) -> (Self, rcm_sync::chan::Sender<f64>) {
        let (tx, rx) = unbounded();
        let feed = VarFeed { var, source: FeedSource::Channel(rx), period: Duration::ZERO };
        (feed, tx)
    }

    /// Sets the pause between emissions of a recorded feed (default:
    /// none). A streaming feed emits each reading as it arrives.
    #[must_use]
    pub fn period(mut self, period: Duration) -> Self {
        self.period = period;
        self
    }
}

impl fmt::Debug for VarFeed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VarFeed")
            .field("var", &self.var)
            .field("source", &self.source)
            .field("period", &self.period)
            .finish()
    }
}

type FilterFactory = Box<dyn FnOnce(&[VarId]) -> Box<dyn AlertFilter>>;
type LossFactory = Box<dyn FnMut(VarId, CeId) -> Box<dyn LossModel>>;
/// Callback invoked for each displayed alert, on the thread that
/// receives alerts (see [`SystemBuilder::on_alert`]).
pub(crate) type AlertCallback = Box<dyn Fn(&Alert) + Send>;

/// Builder for a [`MonitorSystem`].
pub struct SystemBuilder {
    conditions: Vec<Arc<dyn Condition>>,
    replicas: usize,
    feeds: Vec<VarFeed>,
    filter: Option<FilterFactory>,
    loss: Option<LossFactory>,
    seed: u64,
    on_alert: Option<AlertCallback>,
    faults: Option<FaultPlan>,
    transport: Option<BoundTopology>,
    pipeline: PipelineOptions,
}

impl fmt::Debug for SystemBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SystemBuilder")
            .field("conditions", &self.conditions.iter().map(|c| c.name()).collect::<Vec<_>>())
            .field("replicas", &self.replicas)
            .field("feeds", &self.feeds)
            .field("seed", &self.seed)
            .field("faults", &self.faults)
            .field("pipeline", &self.pipeline)
            .finish()
    }
}

/// Configuration errors reported by [`SystemBuilder::start`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// `replicas(0)` was requested.
    ZeroReplicas,
    /// [`MonitorSystem::builder_multi`] was given no conditions.
    NoConditions,
    /// No feed was supplied for a variable in the conditions' set.
    MissingFeed(VarId),
    /// A feed was supplied for a variable outside the conditions' set.
    UnknownFeedVariable(VarId),
    /// A bound topology's replica count disagrees with
    /// [`SystemBuilder::replicas`].
    TopologyMismatch {
        /// Replicas the builder was configured for.
        expected: usize,
        /// Replicas the topology binds.
        got: usize,
    },
    /// A socket-mode link failed to set up (bind, connect, configure).
    Transport(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroReplicas => write!(f, "system needs at least one replica"),
            ConfigError::NoConditions => write!(f, "system needs at least one condition"),
            ConfigError::MissingFeed(v) => {
                write!(f, "no feed supplied for condition variable {v}")
            }
            ConfigError::UnknownFeedVariable(v) => {
                write!(f, "feed variable {v} is not in any condition's variable set")
            }
            ConfigError::TopologyMismatch { expected, got } => {
                write!(f, "topology binds {got} CE replicas but the builder wants {expected}")
            }
            ConfigError::Transport(e) => write!(f, "socket transport setup failed: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl SystemBuilder {
    /// Number of Condition Evaluator replicas (default 2).
    #[must_use]
    pub fn replicas(mut self, replicas: usize) -> Self {
        self.replicas = replicas;
        self
    }

    /// Adds a variable feed.
    #[must_use]
    pub fn feed(mut self, feed: VarFeed) -> Self {
        self.feeds.push(feed);
        self
    }

    /// Sets the AD filtering algorithm (default: AD-1).
    #[must_use]
    pub fn filter(
        mut self,
        factory: impl FnOnce(&[VarId]) -> Box<dyn AlertFilter> + 'static,
    ) -> Self {
        self.filter = Some(Box::new(factory));
        self
    }

    /// Sets the per-front-link loss model factory (default: lossless).
    /// Each `(feed, replica)` link draws from its own model, seeded from
    /// [`seed`](Self::seed), in either transport: an update drawn as
    /// lost never reaches that replica, and counts as dropped on its
    /// link.
    #[must_use]
    pub fn loss(
        mut self,
        factory: impl FnMut(VarId, CeId) -> Box<dyn LossModel> + 'static,
    ) -> Self {
        self.loss = Some(Box::new(factory));
        self
    }

    /// Seed for link loss sampling (default 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Registers a callback invoked for every displayed alert, in
    /// display order. It runs on the thread that receives the alerts and
    /// runs the AD: the DM loop in-process, the event loop over sockets.
    /// It must not block: while it runs, no reading is evaluated and no
    /// socket is served. Taking a leaf lock is fine.
    #[must_use]
    pub fn on_alert(mut self, cb: impl Fn(&Alert) + Send + 'static) -> Self {
        self.on_alert = Some(Box::new(cb));
        self
    }

    /// Injects a fault schedule and enables supervision: scripted CE
    /// kills are caught and the replica restarted (within the plan's
    /// budget) with its histories replayed from the DMs' retained
    /// windows; back links honor the plan's severances, which last a
    /// number of sends. In-process the first send past an outage
    /// reconnects; over sockets reconnect attempts are also paced by a
    /// capped backoff. No fault reads the clock, so an in-process run on
    /// recorded feeds replays from its builder and seed. Without this
    /// call the runtime is the happy-path pipeline: panics propagate
    /// and links never drop.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// The most evaluation threads per CE replica's
    /// [`EvalPipeline`](crate::EvalPipeline) (default 0). A replica
    /// runs `T = min(max(workers, 1), cpus)` threads, where `cpus` is the
    /// available parallelism of the thread calling
    /// [`start`](Self::start): the thread that drives the replica (the
    /// DM loop in-process) and `T - 1` helpers. Condition `i` lives on
    /// thread `i % T`, one shard per thread. So `workers` 0 and 1 spawn
    /// nothing, and neither does a system started on one CPU.
    /// The helpers are the only parallelism inside an in-process
    /// system: its replicas take turns on the DM loop. Each round of
    /// admitted updates is handed to every helper and joined before the
    /// next one, and the shards' alerts are merged back into the
    /// single-threaded emission order: the output is byte-identical for
    /// any worker count and any CPU count, and nothing is shed.
    /// [`PipelineReport::helpers`] says how many helpers ran.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.pipeline.workers = workers;
        self
    }

    /// Runs the pipeline over real sockets instead of channels: DMs
    /// send updates over UDP to the topology's CE addresses, CEs send
    /// alerts over TCP to its AD listener. The topology's replica count
    /// must match [`SystemBuilder::replicas`].
    ///
    /// The front links' loss models ([`SystemBuilder::loss`]) apply as
    /// in-process, drawn with the same seeds in the same order: an
    /// update drawn as lost is left out of that replica's datagram, so
    /// the socket links lose what the network loses on top of it.
    /// Back-link severances and CE kills from the [`FaultPlan`] apply in
    /// both modes.
    #[must_use]
    pub fn transport(mut self, topology: BoundTopology) -> Self {
        self.transport = Some(topology);
        self
    }

    /// Builds the replicas, spawns the actor threads and starts the
    /// pipeline. In-process that is one thread, the DM loop, which
    /// evaluates every replica and runs the AD, plus each replica's
    /// evaluation helpers; socket mode adds the event loop's thread,
    /// which evaluates every replica and runs the AD instead, for any
    /// replica count.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the configuration is unusable
    /// (zero replicas, feeds not matching the condition's variables).
    pub fn start(mut self) -> Result<MonitorSystem, ConfigError> {
        if self.replicas == 0 {
            return Err(ConfigError::ZeroReplicas);
        }
        if self.conditions.is_empty() {
            return Err(ConfigError::NoConditions);
        }
        // The system's variable set is the union over all monitored
        // conditions (ascending, deduplicated) — feeds must cover it
        // exactly.
        let mut vars: Vec<VarId> = self.conditions.iter().flat_map(|c| c.variables()).collect();
        vars.sort_unstable();
        vars.dedup();
        for feed in &self.feeds {
            if !vars.contains(&feed.var) {
                return Err(ConfigError::UnknownFeedVariable(feed.var));
            }
        }
        for &v in &vars {
            if !self.feeds.iter().any(|f| f.var == v) {
                return Err(ConfigError::MissingFeed(v));
            }
        }
        // One retained window per feed, in feed order (empty when fault
        // injection is off, so the hot path never touches them).
        let windows: Vec<RetainedWindow> = match &self.faults {
            Some(p) => self.feeds.iter().map(|_| RetainedWindow::new(p.retain_window)).collect(),
            None => Vec::new(),
        };
        // The condition set is hosted once, in the shard layout every
        // replica's pipeline runs; each replica gets copies.
        let cpus = pipeline::cpu_budget(&self.pipeline);
        let mut ces = Replicas {
            shards: pipeline::shards(CeId::new(0), &self.conditions, &self.pipeline, cpus),
            workers: self.pipeline.workers,
            seed: self.seed,
            plan: self.faults.take(),
            windows,
            fault_report: Arc::new(Mutex::new(FaultReport::new(self.replicas))),
            latency: Arc::new(LatencyHistogram::new()),
            ingested: Vec::new(),
            emitted: Vec::new(),
        };
        let hops = self.front_hops();
        if let Some(topology) = self.transport.take() {
            return self.start_sockets(topology, &vars, ces, hops);
        }

        // The replicas' back links share one channel, which the DM loop
        // drains into the AD after each round.
        let (ad, sinks) = ad(self.filter, &vars, self.on_alert);
        let (alert_tx, alert_rx) = unbounded::<Alert>();
        let mut counters = LinkCounters::default();
        let mut replicas = Vec::with_capacity(self.replicas);
        for ce in 0..self.replicas {
            let back = BackLink::new(alert_tx.clone(), ces.backoff(ce)).with_severs(ces.severs(ce));
            counters.back.push(back.counters());
            replicas.push(ces.replica(ce, Box::new(back)));
        }
        drop(alert_tx); // The replicas' back links hold every sender.
        let helpers = replicas.iter().map(Replica::helpers).sum();

        // The DM loop owns the replicas and the AD: it offers each
        // replica its share of every round and the AD what they raised,
        // and finishes each replica when the last feed ends.
        let rounds = Rounds::new(hops, replicas, ad, alert_rx);
        counters.front(&self.feeds, self.replicas, |fi, ci| rounds.counters(fi, ci));
        let dms = dms(self.feeds, &ces.windows);
        let handles = vec![spawn_dm_loop(dms, rounds)];

        Ok(ces.system(handles, helpers, sinks, counters))
    }

    /// One seeded loss draw per front link, `hops[feed][replica]`: the
    /// builder's loss model (lossless unless one was set), seeded with
    /// [`link_seed`], the same in either transport.
    fn front_hops(&mut self) -> Vec<Vec<FrontHop>> {
        let mut loss = self
            .loss
            .take()
            .unwrap_or_else(|| Box::new(|_, _| Box::new(Lossless) as Box<dyn LossModel>));
        let mut hops = Vec::with_capacity(self.feeds.len());
        for (fi, feed) in self.feeds.iter().enumerate() {
            let hop = |ci| {
                FrontHop::new(loss(feed.var, CeId::new(ci as u32)), link_seed(self.seed, fi, ci))
            };
            hops.push((0..self.replicas).map(hop).collect());
        }
        hops
    }

    /// Socket-mode assembly: the same replicas and AD, with every
    /// channel link swapped for a real socket from the bound topology.
    /// The DM loop owns one UDP socket per replica; every CE's UDP
    /// ingress (enforcing the front-link contract through the shared
    /// seqno gate) and reconnecting TCP back link, and the AD's TCP
    /// listener, are state machines on one readiness loop. Each replica
    /// is evaluated by its ingress, on that loop, a datagram's admitted
    /// updates at a time, and the AD filters each alert inside the
    /// listener's `deliver`, on the same loop, as it is read.
    fn start_sockets(
        self,
        topology: BoundTopology,
        vars: &[VarId],
        mut ces: Replicas,
        hops: Vec<Vec<FrontHop>>,
    ) -> Result<MonitorSystem, ConfigError> {
        if topology.replicas() != self.replicas {
            return Err(ConfigError::TopologyMismatch {
                expected: self.replicas,
                got: topology.replicas(),
            });
        }
        let transport_err = |e: std::io::Error| ConfigError::Transport(e.to_string());
        let parts = topology.into_parts();

        let mut event_loop = EventLoop::new().map_err(transport_err)?;
        let mut counters = LinkCounters { mode: TransportMode::Sockets, ..LinkCounters::default() };

        // AD side: the TCP listener decodes alert frames from every CE
        // connection and hands each to the AD as it is read. It retires
        // once every replica's end-of-stream marker arrived.
        let (mut ad, sinks) = ad(self.filter, vars, self.on_alert);
        let mut burst = Vec::with_capacity(1);
        let listener = event_loop
            .add_alert_listener(
                parts.listener,
                self.replicas,
                parts.idle_timeout * 2,
                move |alert| {
                    burst.push(alert);
                    ad.offer(&mut burst);
                },
            )
            .map_err(transport_err)?;
        counters.ad = Some(listener);

        // CE side: per replica, a TCP back link to the AD and a UDP
        // ingress that evaluates the replica. The back link connects
        // eagerly, so a dead AD address fails here rather than silently
        // dropping alerts later. The ingress hears one DM node, so one
        // Fin ends it, and ending it finishes the replica.
        let mut helpers = 0;
        for (ce, sock) in parts.ce_sockets.into_iter().enumerate() {
            let spec = BackLinkSpec::new(parts.ad_addr, ce as u32, ces.backoff(ce))
                .with_severs(ces.severs(ce));
            let back = event_loop.add_back_link(spec).map_err(transport_err)?;
            counters.back.push(back.counters());
            let replica = ces.replica(ce, Box::new(back));
            helpers += replica.helpers();
            let ingress =
                event_loop.add_front_ingress(sock, 1, parts.idle_timeout, on_ingress(replica));
            counters.ingress.push(ingress.map_err(transport_err)?);
        }

        // With every source registered, the loop itself gets a thread.
        // `run` returns once the last primary source retires, which is
        // exactly when every replica's back link drained (the end of
        // its ingress finished it) and the AD saw every Fin.
        counters.engine = Some(event_loop.counters());
        let mut handles = vec![rcm_sync::thread::spawn(move || event_loop.run())];

        // The DM loop: one node, DM 0, with one UDP socket per replica,
        // aimed at the topology's DM targets. Each update is drawn on its
        // links' hops as in-process, and what a replica keeps of a round
        // goes to it as one datagram; the sender keeps the ledger of
        // every (feed, replica) front link.
        let links = parts.dm_targets.iter().map(|target| UdpFrontLink::connect(*target, 0));
        let links = links.collect::<Result<Vec<_>, _>>().map_err(transport_err)?;
        let sender = RoundSender::new(links, self.feeds.len());
        counters.front(&self.feeds, self.replicas, |fi, ci| sender.counters(fi, ci));
        let dms = dms(self.feeds, &ces.windows);
        handles.push(spawn_dm_loop(dms, SocketRounds::new(hops, sender)));

        Ok(ces.system(handles, helpers, sinks, counters))
    }
}

/// The seed of front link `(feed, replica)`'s loss draws.
fn link_seed(seed: u64, feed: usize, replica: usize) -> u64 {
    seed.wrapping_add((feed as u64) << 32).wrapping_add(replica as u64)
}

/// One DM per feed, in feed order, each with its retained window (none
/// when fault injection is off).
fn dms(feeds: Vec<VarFeed>, windows: &[RetainedWindow]) -> Vec<Dm> {
    feeds
        .into_iter()
        .enumerate()
        .map(|(fi, feed)| Dm::new(fi, feed.var, feed.source, feed.period, windows.get(fi).cloned()))
        .collect()
}

/// Spawns the system's one Data Monitor thread.
fn spawn_dm_loop(dms: Vec<Dm>, out: impl Fanout + 'static) -> JoinHandle<()> {
    rcm_sync::thread::spawn(move || dm_loop(dms, out))
}

/// The AD's two output records: every arrival, and what it displayed.
struct AdSinks {
    arrivals: Arc<Mutex<Vec<Alert>>>,
    displayed: Arc<Mutex<Vec<Alert>>>,
}

/// The system's AD: the builder's filter (AD-1 unless one was set),
/// recording into the returned sinks. The thread that receives the
/// alerts runs it.
fn ad(
    filter: Option<FilterFactory>,
    vars: &[VarId],
    on_alert: Option<AlertCallback>,
) -> (Ad, AdSinks) {
    let filter = match filter {
        Some(factory) => factory(vars),
        None => Box::new(Ad1::new()),
    };
    let sinks = AdSinks {
        arrivals: Arc::new(Mutex::new(Vec::new())),
        displayed: Arc::new(Mutex::new(Vec::new())),
    };
    let ad = Ad::new(filter, Arc::clone(&sinks.arrivals), Arc::clone(&sinks.displayed), on_alert);
    (ad, sinks)
}

/// What the CE replicas of one run share, whichever links carry them.
/// `start` builds it once; it builds each replica and keeps the sinks
/// the final report reads.
struct Replicas {
    /// The condition set, hosted once in the pipeline's shard layout.
    shards: Vec<ConditionRegistry>,
    workers: usize,
    seed: u64,
    plan: Option<FaultPlan>,
    /// Every DM's retained window, in feed order.
    windows: Vec<RetainedWindow>,
    fault_report: Arc<Mutex<FaultReport>>,
    /// Run-wide evaluation ledgers, shared by every replica.
    latency: Arc<LatencyHistogram>,
    /// Per replica built so far: its `U_i` record and its alerts.
    ingested: Vec<Arc<Mutex<Vec<Update>>>>,
    emitted: Vec<Arc<Mutex<Vec<Alert>>>>,
}

/// First reconnect delay of a replica's back link.
const BACKOFF_BASE: Duration = Duration::from_micros(200);
/// Ceiling of a replica's back-link reconnect delays.
const BACKOFF_CAP: Duration = Duration::from_millis(20);

impl Replicas {
    /// The reconnect schedule of replica `ce`'s back link:
    /// [`BACKOFF_BASE`] to [`BACKOFF_CAP`], jittered from the run's seed.
    fn backoff(&self, ce: usize) -> Backoff {
        let seed = self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(ce as u64);
        Backoff::new(BACKOFF_BASE, BACKOFF_CAP, seed)
    }

    /// Replica `ce`'s scripted back-link severances as `(at_send,
    /// down_sends)` pairs (none without a plan).
    fn severs(&self, ce: usize) -> Vec<(u64, u64)> {
        let severs = self.plan.iter().flat_map(|p| &p.severs);
        severs.filter(|s| s.ce == ce).map(|s| (s.at_send, s.down_sends)).collect()
    }

    /// Replica `ce`, sending its alerts over `back`, with its records
    /// kept for the report.
    fn replica(&mut self, ce: usize, back: Box<dyn AlertDrain>) -> Replica {
        let record = Arc::new(Mutex::new(Vec::new()));
        self.ingested.push(Arc::clone(&record));
        let emitted = Arc::new(Mutex::new(Vec::new()));
        self.emitted.push(Arc::clone(&emitted));
        let faults = self.plan.as_ref().map(|p| CeFaultConfig {
            kill_at: p.kills.iter().filter(|k| k.ce == ce).map(|k| k.at_arrival).collect(),
            max_restarts: p.max_restarts,
            windows: self.windows.clone(),
            report: Arc::clone(&self.fault_report),
            ce_index: ce,
            gate: IngestGate::new(),
        });
        let id = CeId::new(ce as u32);
        let shards = self.shards.iter().map(|shard| shard.for_replica(id)).collect();
        let drain = Box::new(Recorded { back, emitted });
        Replica::new(shards, Arc::clone(&self.latency), drain).in_system(record, faults)
    }

    /// The running system: its threads, the AD's records, the links'
    /// counters and the replicas' own records.
    fn system(
        self,
        handles: Vec<JoinHandle<()>>,
        helpers: usize,
        ad: AdSinks,
        links: LinkCounters,
    ) -> MonitorSystem {
        MonitorSystem {
            handles,
            helpers,
            ad,
            ingested: self.ingested,
            emitted: self.emitted,
            fault_report: self.fault_report,
            links,
            workers: self.workers,
            latency: self.latency,
        }
    }
}

/// A system replica's [`AlertDrain`]: each merged round lands in the
/// replica's `emitted` record, then goes out its back link, where an
/// alert is serialised — once, in either transport mode.
struct Recorded {
    back: Box<dyn AlertDrain>,
    emitted: Arc<Mutex<Vec<Alert>>>,
}

impl AlertDrain for Recorded {
    fn round(&mut self, alerts: &mut Vec<Alert>) {
        // LOCK ORDER: leaf record mutex, released before the link.
        self.emitted.lock().extend(alerts.iter().cloned());
        self.back.round(alerts);
    }

    fn end_of_stream(&mut self) {
        self.back.end_of_stream();
    }

    fn abandoned(&mut self) {
        self.back.abandoned();
    }
}

/// One front link's sender counters, keyed `(feed, ce)`.
type KeyedFrontStats = ((usize, usize), Arc<FrontLinkStats<AtomicU64>>);

/// Every counter block of one run's links: one list per kind, the same
/// in both transports (the socket-only kinds stay empty in-process).
#[derive(Default)]
struct LinkCounters {
    mode: TransportMode,
    /// Feed index → variable, for the `links` view.
    front_vars: Vec<VarId>,
    /// Every front link's sender counters, feed-major.
    front: Vec<KeyedFrontStats>,
    /// Every back link's counters, indexed by replica.
    back: Vec<Arc<BackLinkStats<AtomicU64>>>,
    /// Every CE's UDP ingress, indexed by replica.
    ingress: Vec<Arc<IngressStats<AtomicU64>>>,
    ad: Option<Arc<ListenerStats<AtomicU64>>>,
    engine: Option<Arc<EngineStats<AtomicU64>>>,
}

impl LinkCounters {
    /// Registers every front link's counters, feed-major: `row(feed,
    /// replica)` hands out that link's block.
    fn front(
        &mut self,
        feeds: &[VarFeed],
        replicas: usize,
        row: impl Fn(usize, usize) -> Arc<FrontLinkStats<AtomicU64>>,
    ) {
        for (fi, feed) in feeds.iter().enumerate() {
            self.front_vars.push(feed.var);
            self.front.extend((0..replicas).map(|ci| ((fi, ci), row(fi, ci))));
        }
    }

    fn report(&self) -> TransportReport {
        TransportReport {
            mode: self.mode,
            front_links: self.front.iter().map(|((fi, ci), c)| (*fi, *ci, c.snapshot())).collect(),
            ingress: self.ingress.iter().map(|c| c.snapshot()).collect(),
            back_links: self.back.iter().map(|c| c.snapshot()).collect(),
            ad: self.ad.as_ref().map(|c| c.snapshot()).unwrap_or_default(),
            engine: self.engine.as_ref().map(|c| c.snapshot()).unwrap_or_default(),
        }
    }

    /// The per-link view of `report`'s front links: one row per
    /// `(feed, replica)`, in that feed's updates, however many feeds'
    /// updates a socket datagram carried.
    fn links(&self, report: &TransportReport) -> Vec<((VarId, CeId), LinkStats)> {
        let link = |&(fi, ci, s): &(usize, usize, FrontLinkStats)| {
            let key = (self.front_vars[fi], CeId::new(ci as u32));
            (key, LinkStats { sent: s.updates_sent, dropped: s.updates_dropped })
        };
        report.front_links.iter().map(link).collect()
    }
}

/// A shared record's contents, moved out when the last other handle is
/// gone (it is, once the threads are joined).
fn take<T: Clone>(shared: Arc<Mutex<Vec<T>>>) -> Vec<T> {
    Arc::try_unwrap(shared).map(Mutex::into_inner).unwrap_or_else(|arc| arc.lock().clone())
}

/// A running monitoring pipeline; join it with [`MonitorSystem::wait`].
pub struct MonitorSystem {
    handles: Vec<JoinHandle<()>>,
    /// Evaluation helper threads, summed over replicas; each replica's
    /// pipeline joins its own.
    helpers: usize,
    ad: AdSinks,
    ingested: Vec<Arc<Mutex<Vec<Update>>>>,
    emitted: Vec<Arc<Mutex<Vec<Alert>>>>,
    fault_report: Arc<Mutex<FaultReport>>,
    links: LinkCounters,
    /// The most evaluation threads per replica (`SystemBuilder::workers`).
    workers: usize,
    /// Run-wide ingest→alert-emit latency histogram.
    latency: Arc<LatencyHistogram>,
}

impl fmt::Debug for MonitorSystem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MonitorSystem")
            .field("threads", &(self.handles.len() + self.helpers))
            .finish()
    }
}

impl MonitorSystem {
    /// Starts building a system for `condition` (alerts under
    /// [`rcm_core::CondId::SINGLE`]). Start from a whole set with
    /// [`MonitorSystem::builder_multi`] to monitor several.
    pub fn builder(condition: Arc<dyn Condition>) -> SystemBuilder {
        Self::builder_multi([condition])
    }

    /// Starts building a system monitoring a set of conditions over
    /// shared feeds: every CE replica hosts all of them in one
    /// [`rcm_core::ConditionRegistry`], and condition `i` emits alerts
    /// under `CondId::new(i)` so the AD can demultiplex (e.g. with
    /// [`rcm_core::ad::PerCondition`]).
    pub fn builder_multi(
        conditions: impl IntoIterator<Item = Arc<dyn Condition>>,
    ) -> SystemBuilder {
        SystemBuilder {
            conditions: conditions.into_iter().collect(),
            replicas: 2,
            feeds: Vec::new(),
            filter: None,
            loss: None,
            seed: 0,
            on_alert: None,
            faults: None,
            transport: None,
            pipeline: PipelineOptions::default(),
        }
    }

    /// Blocks until every feed is drained and all in-flight messages
    /// are processed, then returns the full report.
    ///
    /// # Panics
    ///
    /// Panics if an actor thread panicked.
    pub fn wait(self) -> RunReport {
        for h in self.handles {
            h.join().expect("actor thread panicked");
        }
        let transport = self.links.report();
        RunReport {
            links: self.links.links(&transport),
            faults: self.fault_report.lock().clone(),
            transport,
            pipeline: PipelineReport {
                workers: self.workers,
                helpers: self.helpers,
                updates_shed: 0,
                latency: self.latency.snapshot(),
            },
            arrivals: take(self.ad.arrivals),
            displayed: take(self.ad.displayed),
            ingested: self.ingested.into_iter().map(take).collect(),
            emitted: self.emitted.into_iter().map(take).collect(),
        }
    }
}

/// Everything a finished pipeline run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Merged alert arrivals at the AD, pre-filtering.
    pub arrivals: Vec<Alert>,
    /// Alerts displayed to the user (post-filtering), in display order.
    pub displayed: Vec<Alert>,
    /// Per replica: updates ingested, in arrival order (the paper's
    /// `U_i`).
    pub ingested: Vec<Vec<Update>>,
    /// Per replica: alerts emitted over its back link, in emission
    /// order (pre-merge, pre-filter).
    pub emitted: Vec<Vec<Alert>>,
    /// Per front link `(variable, replica)`: loss counters, in that
    /// variable's updates (a socket datagram carries a whole round of
    /// every variable, and each of its updates counts on its own row).
    pub links: Vec<((VarId, CeId), LinkStats)>,
    /// What the fault layer observed (all zeros without a
    /// [`FaultPlan`]).
    pub faults: FaultReport,
    /// Per-link transport counters, shaped identically whether the run
    /// rode channels or real sockets.
    pub transport: TransportReport,
    /// What the evaluation stage observed: the worker setting, helper threads
    /// and the ingest→alert-emit latency distribution.
    pub pipeline: PipelineReport,
}

/// Evaluation-stage counters for a finished run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipelineReport {
    /// The most evaluation threads per replica, as set with
    /// [`SystemBuilder::workers`] (0 and 1 evaluate on the thread that
    /// drives the replica; the output is identical for any count). Each
    /// replica runs `min(workers, cpus)` shards, one per thread.
    pub workers: usize,
    /// Evaluation helper threads actually spawned, summed over the
    /// replicas: `min(workers, cpus) - 1` each, so it depends on the
    /// CPUs the system was started on.
    pub helpers: usize,
    /// Always 0: the evaluation stage never sheds an update. Kept
    /// because report readers (`rcm-e2e`'s `runtime.pipeline.shed_share`)
    /// still read it.
    pub updates_shed: u64,
    /// Ingest→alert-emit latency, from the admission of an update's
    /// round to its merged alerts being drained, aggregated over every
    /// replica.
    pub latency: LatencySnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_core::ad::{Ad2, Ad3};
    use rcm_core::condition::{cond, Cmp};
    use rcm_net::Scripted;

    fn x() -> VarId {
        VarId::new(0)
    }

    fn c1() -> Arc<dyn Condition> {
        Arc::new(cond::threshold(x(), Cmp::Gt, 3000.0))
    }

    #[test]
    fn example_1_end_to_end() {
        let system = MonitorSystem::builder(c1())
            .replicas(2)
            .feed(VarFeed::new(x(), vec![2900.0, 3100.0, 3200.0]))
            .start()
            .expect("system starts");
        let report = system.wait();
        // Four alerts arrive (two per CE); AD-1 displays two.
        assert_eq!(report.arrivals.len(), 4);
        assert_eq!(report.displayed.len(), 2);
        assert_eq!(report.ingested[0].len(), 3);
        assert_eq!(report.ingested[1].len(), 3);
    }

    #[test]
    fn scripted_loss_reproduces_example_1() {
        // CE2 misses update 2: its only alert (on 3) is an exact
        // duplicate of CE1's, so the user still sees exactly two alerts.
        let system = MonitorSystem::builder(c1())
            .replicas(2)
            .feed(VarFeed::new(x(), vec![2900.0, 3100.0, 3200.0]))
            .loss(|_, ce| {
                if ce == CeId::new(1) {
                    Box::new(Scripted::new([1]))
                } else {
                    Box::new(rcm_net::Lossless)
                }
            })
            .start()
            .expect("system starts");
        let report = system.wait();
        assert_eq!(report.ingested[1].len(), 2);
        assert_eq!(report.displayed.len(), 2);
        let dropped: u64 = report.links.iter().map(|(_, r)| r.dropped).sum();
        assert_eq!(dropped, 1);
    }

    #[test]
    fn ad2_keeps_output_ordered() {
        let system = MonitorSystem::builder(c1())
            .replicas(3)
            .feed(VarFeed::new(x(), (0..60).map(|i| 3000.0 + f64::from(i)).collect::<Vec<_>>()))
            .filter(|vars| Box::new(Ad2::new(vars[0])))
            .start()
            .expect("system starts");
        let report = system.wait();
        let seqs: Vec<u64> = report
            .displayed
            .iter()
            .map(|a| a.seqno(x()).expect("alert carries seqno for x").get())
            .collect();
        assert!(seqs.windows(2).all(|w| w[0] < w[1]), "strictly ordered: {seqs:?}");
        assert!(!report.displayed.is_empty());
    }

    #[test]
    fn ad3_output_consistent_under_heavy_loss() {
        let cond = Arc::new(cond::delta_rise(x(), 5.0));
        let values: Vec<f64> = (0..80).map(|i| f64::from(i % 2) * 20.0 + f64::from(i)).collect();
        let system = MonitorSystem::builder(cond.clone())
            .replicas(2)
            .feed(VarFeed::new(x(), values))
            .loss(|_, _| Box::new(rcm_net::Bernoulli::new(0.3)))
            .seed(99)
            .filter(|vars| Box::new(Ad3::new([vars[0]])))
            .start()
            .expect("system starts");
        let report = system.wait();
        let check = rcm_props::check_consistent_multi(&cond, &report.ingested, &report.displayed);
        assert!(check.ok, "{:?}", check.conflict);
    }

    #[test]
    fn callback_sees_every_displayed_alert() {
        let seen = Arc::new(Mutex::new(0usize));
        let seen2 = Arc::clone(&seen);
        let system = MonitorSystem::builder(c1())
            .replicas(1)
            .feed(VarFeed::new(x(), vec![3100.0, 3200.0]))
            .on_alert(move |_| *seen2.lock() += 1)
            .start()
            .expect("system starts");
        let report = system.wait();
        assert_eq!(*seen.lock(), report.displayed.len());
        assert_eq!(report.displayed.len(), 2);
    }

    #[test]
    fn empty_fault_plan_leaves_the_happy_path_untouched() {
        let system = MonitorSystem::builder(c1())
            .replicas(2)
            .feed(VarFeed::new(x(), vec![2900.0, 3100.0, 3200.0]))
            .faults(FaultPlan::default())
            .start()
            .expect("system starts");
        let report = system.wait();
        assert_eq!(report.displayed.len(), 2);
        assert_eq!(report.faults.total_restarts(), 0);
        for back in &report.transport.back_links {
            assert_eq!((back.severs, back.lost_overflow), (0, 0), "{back:?}");
        }
        // Every arrival at the AD is accounted to some replica's
        // emission record.
        assert_eq!(report.emitted.iter().map(Vec::len).sum::<usize>(), report.arrivals.len());
    }

    #[test]
    fn config_errors_reported() {
        assert_eq!(
            MonitorSystem::builder(c1()).replicas(0).start().err(),
            Some(ConfigError::ZeroReplicas)
        );
        assert_eq!(
            MonitorSystem::builder_multi(Vec::<Arc<dyn Condition>>::new()).start().err(),
            Some(ConfigError::NoConditions)
        );
        assert_eq!(MonitorSystem::builder(c1()).start().err(), Some(ConfigError::MissingFeed(x())));
        assert_eq!(
            MonitorSystem::builder(c1())
                .feed(VarFeed::new(x(), vec![1.0]))
                .feed(VarFeed::new(VarId::new(7), vec![1.0]))
                .start()
                .err(),
            Some(ConfigError::UnknownFeedVariable(VarId::new(7)))
        );
    }

    #[test]
    fn multi_condition_replicas_match_a_local_registry() {
        use rcm_core::ad::PerCondition;
        use rcm_core::{CondId, ConditionRegistry};

        let y = VarId::new(1);
        let set: Vec<Arc<dyn Condition>> = vec![
            Arc::new(cond::threshold(x(), Cmp::Gt, 50.0)),
            Arc::new(cond::delta_rise(x(), 10.0)),
            Arc::new(rcm_core::condition::cond::abs_difference(x(), y, 25.0)),
        ];
        let system = MonitorSystem::builder_multi(set.clone())
            .replicas(2)
            .feed(VarFeed::new(x(), vec![40.0, 60.0, 55.0, 80.0, 10.0, 90.0]))
            .feed(VarFeed::new(y, vec![42.0, 58.0, 90.0, 81.0, 12.0, 30.0]))
            .filter(|_| Box::new(PerCondition::new(|_c| Ad1::new())))
            .start()
            .expect("system starts");
        let report = system.wait();

        // Each replica's emission stream is exactly what a local
        // registry produces from that replica's own `U_i` (the two feeds
        // interleave nondeterministically, so replay the recorded ingest
        // order rather than assuming one).
        for (ce, emitted) in report.emitted.iter().enumerate() {
            let mut registry = ConditionRegistry::new(CeId::new(ce as u32));
            for (i, c) in set.iter().enumerate() {
                registry.insert(CondId::new(i as u32), Arc::clone(c));
            }
            let mut want = Vec::new();
            registry.ingest_batch(&report.ingested[ce], &mut want);
            assert_eq!(emitted, &want);
            for (g, w) in emitted.iter().zip(&want) {
                assert_eq!(g.id, w.id);
            }
            // Per-condition provenance numbering ascends without gaps.
            for cond in 0..set.len() as u32 {
                let idxs: Vec<u64> = emitted
                    .iter()
                    .filter(|a| a.cond == CondId::new(cond))
                    .map(|a| a.id.index)
                    .collect();
                assert!(idxs.iter().enumerate().all(|(i, &n)| n == i as u64), "{idxs:?}");
            }
        }
        // The per-condition demux displayed both the deterministic
        // threshold stream (cond 0) and at least the final
        // |x − y| = 60 > 25 divergence alert (cond 2).
        assert!(report.displayed.iter().any(|a| a.cond == CondId::new(0)));
        assert!(report.displayed.iter().any(|a| a.cond == CondId::new(2)));
    }

    /// A condition set over `vars` that never alerts: the tests below
    /// only read what each replica ingested.
    fn quiet(vars: &[VarId]) -> Vec<Arc<dyn Condition>> {
        vars.iter()
            .map(|&v| Arc::new(cond::threshold(v, Cmp::Gt, f64::MAX)) as Arc<dyn Condition>)
            .collect()
    }

    /// Per replica, the seqnos it ingested on `var`.
    fn seqnos_on(report: &RunReport, var: VarId) -> Vec<Vec<u64>> {
        report
            .ingested
            .iter()
            .map(|u| u.iter().filter(|u| u.var == var).map(|u| u.seqno.get()).collect())
            .collect()
    }

    /// Three feeds multicast to three replicas through one DM loop,
    /// in-process or over `transport`; each (feed, replica) link must
    /// still drop exactly what a lone `FrontHop` with its seed drops
    /// from the same sequence — the loss draws are per link, in send
    /// order, whatever the rounds and whichever the shape. Returns the
    /// per-link view.
    fn losses_match_lone_links(transport: Option<BoundTopology>) -> Vec<(u64, u64)> {
        let vars = [VarId::new(0), VarId::new(1), VarId::new(2)];
        let (n, replicas, seed) = (400u64, 3usize, 41u64);
        let mut builder = MonitorSystem::builder_multi(quiet(&vars)).replicas(replicas);
        for (i, &var) in vars.iter().enumerate() {
            let values: Vec<f64> = (0..n).map(|s| (s * 7 + i as u64) as f64).collect();
            builder = builder.feed(VarFeed::new(var, values));
        }
        if let Some(bound) = transport {
            builder = builder.transport(bound);
        }
        let report = builder
            .loss(|_, _| Box::new(rcm_net::Bernoulli::new(0.3)))
            .seed(seed)
            .start()
            .expect("system starts")
            .wait();
        for (fi, &var) in vars.iter().enumerate() {
            for (ci, got) in seqnos_on(&report, var).iter().enumerate() {
                let mut lone =
                    FrontHop::new(Box::new(rcm_net::Bernoulli::new(0.3)), link_seed(seed, fi, ci));
                let want: Vec<u64> = (1..=n).filter(|_| lone.pass()).collect();
                assert_eq!(got, &want, "feed {fi} replica {ci}");
                assert!(want.len() < n as usize, "feed {fi} replica {ci} lost nothing");
                let (_, r) = report.links[fi * replicas + ci];
                assert_eq!((r.sent, r.dropped), (n, n - want.len() as u64));
            }
        }
        report.links.iter().map(|(_, r)| (r.sent, r.dropped)).collect()
    }

    #[test]
    fn front_link_losses_match_a_lone_link_with_the_same_seed() {
        losses_match_lone_links(None);
    }

    #[test]
    fn socket_front_link_losses_match_a_lone_link_with_the_same_seed() {
        let bound = rcm_transport::Topology::loopback(3).bind().expect("bind topology");
        let sockets = losses_match_lone_links(Some(bound.idle_timeout(Duration::from_secs(10))));
        assert_eq!(sockets, losses_match_lone_links(None));
    }

    /// The thread count `MonitorSystem`'s `Debug` reports.
    fn threads(system: &MonitorSystem) -> usize {
        let shown = format!("{system:?}");
        let count = shown.split("threads: ").nth(1).expect("Debug names the thread count");
        count.trim_end_matches(" }").parse().expect("a count")
    }

    #[test]
    fn an_in_process_system_runs_one_thread_plus_helpers() {
        // The DM loop evaluates every replica and runs the AD, so three
        // replicas add no thread of their own: the loop, plus
        // `min(workers, cpus) - 1` evaluation helpers per replica.
        let cpus = rcm_sync::thread::available_parallelism()
            .map_or(usize::MAX, std::num::NonZeroUsize::get);
        for workers in [0, 1, 2, 4] {
            let helpers = 3 * workers.min(cpus).saturating_sub(1);
            let system = MonitorSystem::builder(c1())
                .replicas(3)
                .workers(workers)
                .feed(VarFeed::new(x(), vec![2900.0, 3100.0]))
                .start()
                .expect("system starts");
            assert_eq!(threads(&system), 1 + helpers, "workers({workers}), {cpus} CPUs");
            let report = system.wait();
            assert_eq!(report.pipeline.helpers, helpers, "workers({workers}), {cpus} CPUs");
            assert_eq!(report.displayed.len(), 1);
        }
    }

    #[test]
    fn a_socket_system_runs_two_threads_for_any_replica_count() {
        // The event loop evaluates every replica as its datagrams
        // arrive and runs the AD as its alerts arrive, so neither adds a
        // thread: the event loop and the DM loop.
        for replicas in [1, 3] {
            let bound = rcm_transport::Topology::loopback(replicas).bind().expect("bind topology");
            let system = MonitorSystem::builder(c1())
                .replicas(replicas)
                .feed(VarFeed::new(x(), vec![2900.0, 3100.0]))
                .transport(bound)
                .start()
                .expect("system starts");
            assert_eq!(threads(&system), 2, "{replicas} replica(s)");
            assert_eq!(system.wait().displayed.len(), 1);
        }
    }

    #[test]
    fn a_backlog_holds_another_feed_back_one_round_at_most() {
        // Feed x has 10 000 readings queued when the loop starts, each
        // of which alerts; feed y has one reading, which alerts too.
        // Rounds are bounded, so y's reading goes out with the first
        // round and its alert is displayed among the first round's, not
        // after x's whole backlog.
        let (x, y) = (VarId::new(0), VarId::new(1));
        let (x_feed, x_tx) = VarFeed::streaming(x);
        let (y_feed, y_tx) = VarFeed::streaming(y);
        (0..10_000).for_each(|i| x_tx.send(f64::from(i)).expect("feed open"));
        y_tx.send(1.0).expect("feed open");
        drop((x_tx, y_tx));
        let conds: Vec<Arc<dyn Condition>> = vec![
            Arc::new(cond::threshold(x, Cmp::Gt, -1.0)),
            Arc::new(cond::threshold(y, Cmp::Gt, 0.0)),
        ];
        let report = MonitorSystem::builder_multi(conds)
            .replicas(1)
            .feed(x_feed)
            .feed(y_feed)
            .start()
            .expect("system starts")
            .wait();
        assert_eq!(report.ingested[0].len(), 10_001);
        assert_eq!(report.displayed.len(), 10_001);
        let at = report.ingested[0].iter().position(|u| u.var == y).expect("y's reading arrived");
        assert!(at < crate::dm::ROUND, "y's reading came behind {at} of x's");
        let shown = report.displayed.iter().position(|a| a.cond.index() == 1);
        assert!(
            shown.is_some_and(|shown| shown < crate::dm::ROUND),
            "y's alert was displayed at {shown:?}, behind x's backlog"
        );
    }

    #[test]
    fn paced_and_streaming_feeds_mix_and_end() {
        let (x, y) = (VarId::new(0), VarId::new(1));
        let (y_feed, y_tx) = VarFeed::streaming(y);
        let system = MonitorSystem::builder_multi(quiet(&[x, y]))
            .feed(VarFeed::new(x, vec![1.0; 40]).period(Duration::from_micros(300)))
            .feed(y_feed)
            .start()
            .expect("system starts");
        for i in 0..120 {
            y_tx.send(f64::from(i)).expect("feed open");
            if i % 8 == 0 {
                rcm_sync::thread::sleep(Duration::from_micros(200));
            }
        }
        drop(y_tx);
        let report = system.wait();
        assert_eq!(seqnos_on(&report, x), vec![(1..=40).collect::<Vec<u64>>(); 2]);
        assert_eq!(seqnos_on(&report, y), vec![(1..=120).collect::<Vec<u64>>(); 2]);
    }

    #[test]
    fn a_refused_round_counts_every_update_it_held() {
        // Every front link aims at a closed loopback port. Linux reports
        // the ICMP refusal of one datagram on the link's next send, so
        // some of the four 64-reading rounds fail to send, each as one
        // datagram. The `links` view counts their updates, not their
        // datagrams.
        let closed = {
            let sock = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind probe");
            sock.local_addr().expect("probe addr")
        };
        let bound = rcm_transport::Topology::loopback(2)
            .bind()
            .expect("bind topology")
            .route_front_links(vec![closed; 2])
            .idle_timeout(Duration::from_millis(200));
        let n = 4 * crate::dm::ROUND;
        let report = MonitorSystem::builder(c1())
            .replicas(2)
            .feed(VarFeed::new(x(), vec![0.0; n]))
            .transport(bound)
            .start()
            .expect("system starts")
            .wait();
        for (i, (_, link)) in report.links.iter().enumerate() {
            let (_, _, stats) = report.transport.front_links[i];
            assert_eq!(stats.frames_sent, 4, "link {i}: one datagram a round");
            assert!(stats.frames_dropped >= 1, "link {i}: no send was refused");
            assert_eq!(link.sent, n as u64);
            assert_eq!(link.dropped, stats.frames_dropped * crate::dm::ROUND as u64, "link {i}");
            assert_eq!(link.dropped, stats.updates_dropped);
        }
    }

    #[test]
    fn a_refused_two_feed_round_charges_each_feed_its_own_updates() {
        // As above, with two feeds of 2 * ROUND readings each: four
        // rounds, each one datagram per replica holding half a round of
        // each feed. A refused datagram costs each feed's row its own
        // half, and the datagram counts once, on the row of the feed
        // that opens it.
        let y = VarId::new(1);
        let closed = {
            let sock = std::net::UdpSocket::bind("127.0.0.1:0").expect("bind probe");
            sock.local_addr().expect("probe addr")
        };
        let bound = rcm_transport::Topology::loopback(2)
            .bind()
            .expect("bind topology")
            .route_front_links(vec![closed; 2])
            .idle_timeout(Duration::from_millis(200));
        let n = 2 * crate::dm::ROUND;
        let cond: Arc<dyn Condition> =
            Arc::new(rcm_core::condition::cond::abs_difference(x(), y, 100.0));
        let report = MonitorSystem::builder(cond)
            .replicas(2)
            .feed(VarFeed::new(x(), vec![0.0; n]))
            .feed(VarFeed::new(y, vec![0.0; n]))
            .transport(bound)
            .start()
            .expect("system starts")
            .wait();
        let rows = &report.transport.front_links;
        assert_eq!(rows.len(), 4);
        let mut refused = [0; 2];
        for &(feed, ce, stats) in rows {
            assert_eq!(stats.frames_sent, if feed == 0 { 4 } else { 0 }, "({feed}, {ce})");
            refused[ce] += stats.frames_dropped;
        }
        assert!(refused.iter().all(|&r| r >= 1), "no send was refused: {refused:?}");
        let half = crate::dm::ROUND as u64 / 2;
        for (i, ((var, ce), link)) in report.links.iter().enumerate() {
            let (feed, ci, stats) = rows[i];
            assert_eq!((*var, ce.index() as usize), ([x(), y][feed], ci));
            assert_eq!(link.sent, n as u64);
            assert_eq!(link.dropped, refused[ci] * half, "row ({feed}, {ci})");
            assert_eq!(link.dropped, stats.updates_dropped);
        }
        let dropped: u64 = report.links.iter().map(|(_, l)| l.dropped).sum();
        let held: u64 = rows.iter().map(|(_, _, s)| s.updates_dropped).sum();
        assert_eq!(dropped, held);
        assert_eq!(dropped, (refused[0] + refused[1]) * crate::dm::ROUND as u64);
    }

    #[test]
    fn multi_var_system_runs() {
        let y = VarId::new(1);
        let cond: Arc<dyn Condition> =
            Arc::new(rcm_core::condition::cond::abs_difference(x(), y, 100.0));
        let system = MonitorSystem::builder(cond)
            .replicas(2)
            .feed(VarFeed::new(x(), vec![1000.0, 1200.0]))
            .feed(VarFeed::new(y, vec![1050.0, 1150.0]))
            .filter(|vars| Box::new(rcm_core::ad::Ad5::new(vars.to_vec())))
            .start()
            .expect("system starts");
        let report = system.wait();
        // The displayed sequence is ordered in both variables.
        assert!(rcm_props::check_ordered(&report.displayed, &[x(), y]).ok);
    }
}
