//! Threaded aggregation-tree deployment: every tree node is an OS
//! thread, every tier link a FIFO channel carrying encoded
//! [`Message::Derived`] frames.
//!
//! [`rcm_tree`] proves the fan-in semantics deterministically
//! ([`rcm_tree::TreeEval`]); this module *deploys* the same node types
//! — [`LeafCe`], [`Relay`], [`RootCe`] — the way the flat runtime
//! deploys its DM/CE/AD triangle: one thread per node, channels
//! standing in for lossless tier links, and every hop crossing the
//! version-gated wire codec for real (encode on the child, decode on
//! the parent; no shared memory shortcuts).
//!
//! Failure is scripted the same way [`FaultPlan`](crate::FaultPlan)
//! scripts it for the flat system, via [`TreeFault`]:
//!
//! * **subtree kill** — a relay thread exits mid-run; its children's
//!   frames bounce off the closed channel (counted as
//!   `frames_to_dead`) until the supervisor re-parents them;
//! * **re-parent** — the supervisor adopts every orphan onto the dead
//!   relay's nearest live sibling (or its closest live ancestor,
//!   ultimately the root) and tells it to replay its bounded sender
//!   window through the new uplink. Every gate on the new path
//!   discards what it already admitted, so replay is idempotent and
//!   recovery is complete whenever the outage fits the window;
//! * **tier-link sever** — a child stops transmitting for a scripted
//!   span, then replays its window on restore, modeling a lossless
//!   link that reconnects.
//!
//! A final re-parent pass always runs after the stream drains — the
//! supervisor's last duty before shutdown, so a run never *ends*
//! with an orphaned subtree silently holding undelivered verdicts.
//!
//! Shutdown is by ownership, exactly like the flat system: the router
//! drops the leaf senders, leaves drain and drop their uplinks, each
//! tier collapses upward in turn, and the root returns the displayed
//! alert sequence.
//!
//! LOCK ORDER: no locks — each thread owns its node outright, all
//! coordination is message passing, and counters travel back as join
//! values.

use std::collections::BTreeMap;

use rcm_sync::chan::{unbounded, Receiver, Sender};
use rcm_sync::thread;

use rcm_core::{Alert, CeId, DerivedUpdate, Update, VarId};
use rcm_transport::wire::{self, Message};
use rcm_tree::{LeafCe, LeafOutput, NodeRef, Relay, RootCe, TreeOptions, TreePlan, TreeStats};

use crate::system::RunReport;

/// One scripted fault in a tree run, triggered by the router's raw
/// update index (0-based; an index at or past the stream length fires
/// after the stream drains, before the final re-parent pass).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeFault {
    /// Crash relay `idx` on interior tier `tier` (1-based) — the whole
    /// subtree beneath it goes dark until a re-parent pass.
    KillRelay {
        /// Interior tier, `1..=relay_tiers`.
        tier: usize,
        /// Relay index within the tier.
        idx: usize,
        /// Router update index that triggers the kill.
        at_update: u64,
    },
    /// Crash one replica of a leaf; surviving replicas keep the leaf's
    /// derived streams alive with no gap.
    KillLeafReplica {
        /// Leaf index.
        leaf: usize,
        /// Replica index within the leaf.
        replica: usize,
        /// Router update index that triggers the kill.
        at_update: u64,
    },
    /// Sever a node's uplink for `down_for` router updates: frames are
    /// withheld (counted as `frames_to_dead`) and the window replays
    /// on restore.
    SeverUplink {
        /// Tier of the severed child (`0` = leaves).
        tier: usize,
        /// Node index within the tier.
        idx: usize,
        /// Replica index (only meaningful when `tier == 0`).
        replica: usize,
        /// Router update index that severs the link.
        at_update: u64,
        /// Router updates until the link restores and replays.
        down_for: u64,
    },
    /// Run a supervisor re-parent pass: adopt every orphan of a dead
    /// relay and replay its window through the new path.
    Reparent {
        /// Router update index that triggers the pass.
        at_update: u64,
    },
}

impl TreeFault {
    fn at_update(&self) -> u64 {
        match *self {
            TreeFault::KillRelay { at_update, .. }
            | TreeFault::KillLeafReplica { at_update, .. }
            | TreeFault::SeverUplink { at_update, .. }
            | TreeFault::Reparent { at_update } => at_update,
        }
    }
}

/// What a finished tree run produced.
#[derive(Debug, Clone)]
pub struct TreeReport {
    /// Alerts the root displayed, in display order, stamped with the
    /// root's provenance.
    pub displayed: Vec<Alert>,
    /// Per leaf replica (index `leaf * replicas + replica`): the
    /// alerts it displayed on its *own* AD, pre-fan-in.
    pub leaf_alerts: Vec<Vec<Alert>>,
    /// The run's tree counters, summed across every node thread and
    /// the supervisor.
    pub stats: TreeStats,
}

impl TreeReport {
    /// Re-shapes the tree run into the flat [`RunReport`] surface so
    /// downstream consumers (the chaos gauntlet's JSON document, the
    /// scale harness) read one report type for both deployments; tree
    /// counters ride in [`RunReport::tree`].
    pub fn into_run_report(self) -> RunReport {
        RunReport {
            arrivals: self.displayed.clone(),
            displayed: self.displayed,
            ingested: Vec::new(),
            emitted: self.leaf_alerts,
            links: Vec::new(),
            faults: crate::FaultReport::default(),
            transport: rcm_transport::TransportReport::default(),
            pipeline: crate::PipelineReport::default(),
            tree: Some(self.stats),
        }
    }
}

/// Control and data messages into a relay or root thread.
enum NodeMsg {
    /// An encoded [`Message::Derived`] frame from a child.
    Frame(Vec<u8>),
    /// Adopt a new uplink and replay the sender window through it.
    Reparent(Sender<NodeMsg>),
    /// Stop transmitting upward (the uplink is severed).
    Sever,
    /// Resume transmitting and replay the sender window.
    Restore,
    /// Crash: exit immediately, closing the inbox.
    Kill,
}

/// Control and data messages into a leaf replica thread.
enum LeafMsg {
    /// A raw update routed to this leaf.
    Raw(Update),
    /// Adopt a new uplink and replay the sender window through it.
    Reparent(Sender<NodeMsg>),
    /// Stop transmitting upward.
    Sever,
    /// Resume transmitting and replay the sender window.
    Restore,
    /// Crash this replica: it ingests nothing further but keeps
    /// draining its inbox so siblings are unaffected.
    Kill,
}

/// Builder and runner for a threaded aggregation-tree deployment — the
/// tree-shaped sibling of [`SystemBuilder`](crate::SystemBuilder).
///
/// ```rust
/// use rcm_runtime::{TreeTopology, TreePlan};
/// use rcm_core::condition::{Cmp, Threshold};
/// use rcm_core::{CondId, Update, VarId};
/// use std::sync::Arc;
///
/// let x = VarId::new(0);
/// let mut plan = TreePlan::new(2).with_relay_tiers(1);
/// plan.own(x, 0).own(VarId::new(1), 1);
/// plan.add_condition(CondId::new(0), Arc::new(Threshold::new(x, Cmp::Gt, 3000.0))).unwrap();
/// let report = TreeTopology::new(plan)
///     .stream([Update::new(x, 1, 2900.0), Update::new(x, 2, 3100.0)])
///     .run();
/// assert_eq!(report.displayed.len(), 1);
/// ```
#[derive(Debug)]
pub struct TreeTopology {
    plan: TreePlan,
    opts: TreeOptions,
    stream: Vec<Update>,
    faults: Vec<TreeFault>,
}

impl TreeTopology {
    /// A tree deployment of `plan` with default options.
    pub fn new(plan: TreePlan) -> Self {
        TreeTopology { plan, opts: TreeOptions::default(), stream: Vec::new(), faults: Vec::new() }
    }

    /// Sets the deployment knobs (replicas, replay window…).
    pub fn options(mut self, opts: TreeOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Appends raw updates to the routed input stream.
    pub fn stream<I: IntoIterator<Item = Update>>(mut self, updates: I) -> Self {
        self.stream.extend(updates);
        self
    }

    /// Appends scripted faults.
    pub fn faults<I: IntoIterator<Item = TreeFault>>(mut self, faults: I) -> Self {
        self.faults.extend(faults);
        self
    }

    /// Spawns the tree, routes the whole stream through it, drains and
    /// joins every node thread, and returns the report.
    ///
    /// # Panics
    ///
    /// Panics if the options name zero replicas or a scripted fault
    /// names a node outside the topology.
    pub fn run(self) -> TreeReport {
        Supervisor::deploy(self).run()
    }
}

/// Per-node sender window replayed on re-parent / link restore.
fn replay_window<'a>(
    window: impl Iterator<Item = &'a DerivedUpdate>,
    up: &Sender<NodeMsg>,
    stats: &mut TreeStats,
) {
    for d in window {
        stats.replayed_frames += 1;
        send_frame(up, d, stats);
    }
}

/// Encodes one derived update and sends the frame up; a closed uplink
/// (dead parent) counts the frame as lost in flight.
fn send_frame(up: &Sender<NodeMsg>, d: &DerivedUpdate, stats: &mut TreeStats) {
    let msg = Message::Derived(d.clone());
    let bytes = wire::encode(&msg).expect("derived frames always encode");
    stats.wire_frames += 1;
    stats.wire_bytes += bytes.len() as u64;
    if up.send(NodeMsg::Frame(bytes)).is_err() {
        stats.frames_to_dead += 1;
    }
}

/// Decodes one tier-link frame; lossless links never corrupt, so a
/// malformed frame here is a codec bug worth crashing the run for.
fn decode_derived(bytes: &[u8]) -> DerivedUpdate {
    match wire::decode_datagram(bytes) {
        Ok(Message::Derived(d)) => d,
        other => panic!("tier link carried a non-derived frame: {other:?}"),
    }
}

fn leaf_thread(
    mut leaf: LeafCe,
    rx: Receiver<LeafMsg>,
    mut up: Sender<NodeMsg>,
) -> (Vec<Alert>, TreeStats) {
    let mut alerts = Vec::new();
    let mut stats = TreeStats::default();
    let mut severed = false;
    for msg in rx.iter() {
        match msg {
            LeafMsg::Raw(u) => {
                let mut out = LeafOutput::default();
                leaf.ingest(u, &mut out);
                stats.leaf_alerts += out.alerts.len() as u64;
                alerts.extend(out.alerts);
                for d in &out.derived {
                    if severed {
                        stats.frames_to_dead += 1; // withheld; window replays on restore
                    } else {
                        send_frame(&up, d, &mut stats);
                    }
                }
            }
            LeafMsg::Reparent(new_up) => {
                up = new_up;
                if !leaf.is_dead() {
                    replay_window(leaf.window().iter(), &up, &mut stats);
                }
            }
            LeafMsg::Sever => severed = true,
            LeafMsg::Restore => {
                severed = false;
                replay_window(leaf.window().iter(), &up, &mut stats);
            }
            LeafMsg::Kill => leaf.kill(),
        }
    }
    stats.derived_emitted = leaf.derived_emitted();
    stats.gate_dropped_raw = leaf.dropped_by_gate();
    (alerts, stats)
}

fn relay_thread(mut relay: Relay, rx: Receiver<NodeMsg>, mut up: Sender<NodeMsg>) -> TreeStats {
    let mut stats = TreeStats::default();
    let mut severed = false;
    for msg in rx.iter() {
        match msg {
            NodeMsg::Frame(bytes) => {
                let d = decode_derived(&bytes);
                if let Some(fwd) = relay.ingest(&d) {
                    if severed {
                        stats.frames_to_dead += 1;
                    } else {
                        send_frame(&up, &fwd, &mut stats);
                    }
                }
            }
            NodeMsg::Reparent(new_up) => {
                up = new_up;
                replay_window(relay.window().iter(), &up, &mut stats);
            }
            NodeMsg::Sever => severed = true,
            NodeMsg::Restore => {
                severed = false;
                replay_window(relay.window().iter(), &up, &mut stats);
            }
            // Exit without draining: the inbox closes and children's
            // in-flight frames are genuinely lost, as a crash loses
            // them.
            NodeMsg::Kill => break,
        }
    }
    stats.derived_forwarded = relay.forwarded();
    stats.derived_duplicates = relay.duplicates();
    stats
}

fn root_thread(mut root: RootCe, rx: Receiver<NodeMsg>) -> (Vec<Alert>, TreeStats) {
    let mut out = Vec::new();
    for msg in rx.iter() {
        // The root cannot die or be severed; control frames are inert.
        if let NodeMsg::Frame(bytes) = msg {
            root.ingest(&decode_derived(&bytes), &mut out);
        }
    }
    let stats = TreeStats {
        derived_duplicates: root.duplicates(),
        root_alerts: root.displayed(),
        ..TreeStats::default()
    };
    (out, stats)
}

/// A leaf replica's or the root's thread: it hands back its alerts and
/// its counters.
type AlertThread = thread::JoinHandle<(Vec<Alert>, TreeStats)>;

/// The deployed tree: thread handles, channel registry, and the
/// supervisor's live-topology bookkeeping (who is alive, who uplinks
/// where) used to script faults and drive re-parent passes.
struct Supervisor {
    owner: BTreeMap<VarId, usize>,
    stream: Vec<Update>,
    faults: Vec<TreeFault>,
    /// `parents[t][n]`: uplink of node `n` at tier `t` (`0` = leaves).
    parents: Vec<Vec<NodeRef>>,
    relay_alive: Vec<Vec<bool>>,
    leaf_txs: Vec<Vec<Sender<LeafMsg>>>,
    relay_txs: Vec<Vec<Sender<NodeMsg>>>,
    root_tx: Sender<NodeMsg>,
    leaf_joins: Vec<Vec<AlertThread>>,
    relay_joins: Vec<Vec<thread::JoinHandle<TreeStats>>>,
    root_join: AlertThread,
    stats: TreeStats,
}

impl Supervisor {
    fn deploy(topo: TreeTopology) -> Self {
        let TreeTopology { plan, opts, stream, mut faults } = topo;
        assert!(opts.leaf_replicas >= 1, "need at least one replica per leaf");
        let (leaves_n, tiers, fanout) = (plan.leaves(), plan.relay_tiers(), plan.fanout());
        faults.sort_by_key(TreeFault::at_update);

        let mut width = vec![leaves_n];
        for t in 1..=tiers {
            width.push(width[t - 1].div_ceil(fanout).max(1));
        }
        let parents: Vec<Vec<NodeRef>> = width
            .iter()
            .enumerate()
            .map(|(t, &w)| {
                (0..w)
                    .map(|n| {
                        if t == tiers {
                            NodeRef::Root
                        } else {
                            NodeRef::Relay { tier: t + 1, idx: (n / fanout).min(width[t + 1] - 1) }
                        }
                    })
                    .collect()
            })
            .collect();

        let (root_tx, root_rx) = unbounded();
        let root = RootCe::from_plan(&plan, &opts);
        let root_join = thread::spawn(move || root_thread(root, root_rx));

        // Relays top tier first, so each tier's uplink sender exists.
        let mut relay_txs: Vec<Vec<Sender<NodeMsg>>> = vec![Vec::new(); tiers];
        let mut relay_joins: Vec<Vec<thread::JoinHandle<TreeStats>>> = Vec::new();
        for _ in 0..tiers {
            relay_joins.push(Vec::new());
        }
        for t in (1..=tiers).rev() {
            for (n, &parent) in parents[t].iter().enumerate() {
                let up = match parent {
                    NodeRef::Root => root_tx.clone(),
                    NodeRef::Relay { tier, idx } => relay_txs[tier - 1][idx].clone(),
                };
                let (tx, rx) = unbounded();
                let relay = Relay::new(t as u8, n as u32, opts.replay_window);
                relay_txs[t - 1].push(tx);
                relay_joins[t - 1].push(thread::spawn(move || relay_thread(relay, rx, up)));
            }
        }

        let mut leaf_txs: Vec<Vec<Sender<LeafMsg>>> = Vec::new();
        let mut leaf_joins = Vec::new();
        for (leaf, &parent) in parents[0].iter().enumerate() {
            let up = match parent {
                NodeRef::Root => root_tx.clone(),
                NodeRef::Relay { tier, idx } => relay_txs[tier - 1][idx].clone(),
            };
            let mut txs = Vec::new();
            let mut joins = Vec::new();
            for r in 0..opts.leaf_replicas {
                let ce = CeId::new((leaf * opts.leaf_replicas + r) as u32 + 1);
                let replica = LeafCe::from_plan(&plan, leaf, ce, &opts);
                let (tx, rx) = unbounded();
                let up = up.clone();
                txs.push(tx);
                joins.push(thread::spawn(move || leaf_thread(replica, rx, up)));
            }
            leaf_txs.push(txs);
            leaf_joins.push(joins);
        }

        let owner: BTreeMap<VarId, usize> = plan.owned_vars().into_iter().collect();
        Supervisor {
            owner,
            stream,
            faults,
            parents,
            relay_alive: width[1..].iter().map(|&w| vec![true; w]).collect(),
            leaf_txs,
            relay_txs,
            root_tx,
            leaf_joins,
            relay_joins,
            root_join,
            stats: TreeStats::default(),
        }
    }

    fn sender_for(&self, node: NodeRef) -> Sender<NodeMsg> {
        match node {
            NodeRef::Root => self.root_tx.clone(),
            NodeRef::Relay { tier, idx } => self.relay_txs[tier - 1][idx].clone(),
        }
    }

    /// Mirrors `TreeEval::adoptive_parent`: nearest live sibling of the
    /// dead relay, else its closest live ancestor (the root survives).
    fn adoptive_parent(&self, tier: usize, idx: usize) -> NodeRef {
        let mut best: Option<usize> = None;
        for (j, &alive) in self.relay_alive[tier - 1].iter().enumerate() {
            if j == idx || !alive {
                continue;
            }
            if best.is_none_or(|b| j.abs_diff(idx) < b.abs_diff(idx)) {
                best = Some(j);
            }
        }
        if let Some(j) = best {
            return NodeRef::Relay { tier, idx: j };
        }
        let mut at = self.parents[tier][idx];
        loop {
            match at {
                NodeRef::Relay { tier: t, idx: i } if !self.relay_alive[t - 1][i] => {
                    at = self.parents[t][i];
                }
                live => return live,
            }
        }
    }

    /// Adopts every child whose parent is dead and tells it to replay
    /// its window through the new uplink.
    fn reparent_orphans(&mut self) {
        for t in 0..self.parents.len() {
            for n in 0..self.parents[t].len() {
                let NodeRef::Relay { tier, idx } = self.parents[t][n] else { continue };
                if self.relay_alive[tier - 1][idx] {
                    continue;
                }
                let adopted = self.adoptive_parent(tier, idx);
                self.parents[t][n] = adopted;
                self.stats.reparent_events += 1;
                if t == 0 {
                    for tx in &self.leaf_txs[n] {
                        let _ = tx.send(LeafMsg::Reparent(self.sender_for(adopted)));
                    }
                } else {
                    let _ =
                        self.relay_txs[t - 1][n].send(NodeMsg::Reparent(self.sender_for(adopted)));
                }
            }
        }
    }

    fn fire(&mut self, fault: TreeFault, restores: &mut Vec<(u64, usize, usize, usize)>) {
        match fault {
            TreeFault::KillRelay { tier, idx, .. } => {
                self.relay_alive[tier - 1][idx] = false;
                let _ = self.relay_txs[tier - 1][idx].send(NodeMsg::Kill);
            }
            TreeFault::KillLeafReplica { leaf, replica, .. } => {
                let _ = self.leaf_txs[leaf][replica].send(LeafMsg::Kill);
            }
            TreeFault::SeverUplink { tier, idx, replica, at_update, down_for } => {
                if tier == 0 {
                    let _ = self.leaf_txs[idx][replica].send(LeafMsg::Sever);
                } else {
                    let _ = self.relay_txs[tier - 1][idx].send(NodeMsg::Sever);
                }
                restores.push((at_update.saturating_add(down_for), tier, idx, replica));
            }
            TreeFault::Reparent { .. } => self.reparent_orphans(),
        }
    }

    fn restore(&self, tier: usize, idx: usize, replica: usize) {
        if tier == 0 {
            let _ = self.leaf_txs[idx][replica].send(LeafMsg::Restore);
        } else {
            let _ = self.relay_txs[tier - 1][idx].send(NodeMsg::Restore);
        }
    }

    fn run(mut self) -> TreeReport {
        // Route the stream, firing scripted faults at their indices.
        let mut faults = std::mem::take(&mut self.faults).into_iter().peekable();
        let mut restores: Vec<(u64, usize, usize, usize)> = Vec::new();
        let stream = std::mem::take(&mut self.stream);
        for (i, u) in stream.into_iter().enumerate() {
            let i = i as u64;
            while faults.peek().is_some_and(|f| f.at_update() <= i) {
                let f = faults.next().expect("peeked");
                self.fire(f, &mut restores);
            }
            let mut j = 0;
            while j < restores.len() {
                if restores[j].0 <= i {
                    let (_, tier, idx, replica) = restores.swap_remove(j);
                    self.restore(tier, idx, replica);
                } else {
                    j += 1;
                }
            }
            match self.owner.get(&u.var) {
                None => self.stats.updates_unowned += 1,
                Some(&leaf) => {
                    self.stats.updates_routed += 1;
                    for tx in &self.leaf_txs[leaf] {
                        let _ = tx.send(LeafMsg::Raw(u));
                    }
                }
            }
        }
        // Late-scheduled faults and pending restores fire post-stream.
        for f in faults {
            self.fire(f, &mut restores);
        }
        for (_, tier, idx, replica) in restores {
            self.restore(tier, idx, replica);
        }
        // The supervisor's last duty: never shut down with an orphaned
        // subtree still holding undelivered verdicts.
        self.reparent_orphans();

        // Ownership shutdown, bottom tier first.
        let mut stats = self.stats;
        let mut leaf_alerts = Vec::new();
        drop(self.leaf_txs);
        for joins in self.leaf_joins {
            for j in joins {
                let (alerts, part) = j.join().expect("leaf thread never panics");
                leaf_alerts.push(alerts);
                accumulate(&mut stats, part);
            }
        }
        for (txs, joins) in self.relay_txs.into_iter().zip(self.relay_joins) {
            drop(txs);
            for j in joins {
                accumulate(&mut stats, j.join().expect("relay thread never panics"));
            }
        }
        drop(self.root_tx);
        let (displayed, part) = self.root_join.join().expect("root thread never panics");
        accumulate(&mut stats, part);
        TreeReport { displayed, leaf_alerts, stats }
    }
}

/// Field-wise sum of per-thread counter parts into the run total.
fn accumulate(total: &mut TreeStats, part: TreeStats) {
    total.updates_routed += part.updates_routed;
    total.updates_unowned += part.updates_unowned;
    total.gate_dropped_raw += part.gate_dropped_raw;
    total.leaf_alerts += part.leaf_alerts;
    total.derived_emitted += part.derived_emitted;
    total.derived_forwarded += part.derived_forwarded;
    total.derived_duplicates += part.derived_duplicates;
    total.reparent_events += part.reparent_events;
    total.replayed_frames += part.replayed_frames;
    total.frames_to_dead += part.frames_to_dead;
    total.root_alerts += part.root_alerts;
    total.wire_frames += part.wire_frames;
    total.wire_bytes += part.wire_bytes;
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("tiers", &self.relay_txs.len())
            .field("leaves", &self.leaf_txs.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_core::condition::{Cmp, Threshold};
    use rcm_core::CondId;
    use rcm_sync::Arc;

    /// Two leaves, one threshold condition per variable.
    fn plan2(relay_tiers: usize) -> TreePlan {
        let mut plan = TreePlan::new(2).with_relay_tiers(relay_tiers).with_fanout(1);
        for v in 0..2u32 {
            plan.own(VarId::new(v), v as usize);
            plan.add_condition(
                CondId::new(v),
                Arc::new(Threshold::new(VarId::new(v), Cmp::Gt, 10.0)),
            )
            .expect("condition placed on its owning leaf");
        }
        plan
    }

    fn stream(n: u64) -> Vec<Update> {
        (1..=n)
            .flat_map(|s| [Update::new(VarId::new(0), s, 50.0), Update::new(VarId::new(1), s, 5.0)])
            .collect()
    }

    #[test]
    fn threaded_tree_matches_the_deterministic_eval() {
        let updates = stream(20);
        let report = TreeTopology::new(plan2(1)).stream(updates.iter().copied()).run();

        let mut eval = rcm_tree::TreeEval::build(plan2(1), TreeOptions::default());
        let mut want = Vec::new();
        for u in updates {
            eval.ingest(u, &mut want);
        }
        assert_eq!(report.displayed, want);
        assert_eq!(report.stats.root_alerts, 20);
        assert_eq!(report.stats.updates_routed, 40);
        assert!(report.stats.wire_frames >= 20, "every hop crossed the codec");
    }

    #[test]
    fn replicas_are_transparent_and_leaf_ads_still_display() {
        let opts = TreeOptions { leaf_replicas: 3, ..TreeOptions::default() };
        let report = TreeTopology::new(plan2(0)).options(opts).stream(stream(10)).run();
        assert_eq!(report.displayed.len(), 10, "one displayed alert per firing update");
        assert_eq!(report.leaf_alerts.len(), 6, "three replicas per leaf");
        assert_eq!(report.stats.derived_emitted, 30);
        assert_eq!(report.stats.derived_duplicates, 20);
        // Leaf 0's replicas each displayed the full alert stream locally.
        assert!(report.leaf_alerts[..3].iter().all(|a| a.len() == 10));
    }

    #[test]
    fn killed_relay_recovers_through_reparent_replay() {
        let updates = stream(30);
        let report = TreeTopology::new(plan2(1))
            .options(TreeOptions { replay_window: 256, ..TreeOptions::default() })
            .stream(updates)
            .faults([
                TreeFault::KillRelay { tier: 1, idx: 0, at_update: 20 },
                TreeFault::Reparent { at_update: 40 },
            ])
            .run();
        // Exactly-once despite the outage: window replay through the
        // adoptive parent restores every lost verdict, gates drop the
        // rest, and indices stay gapless.
        assert_eq!(report.displayed.len(), 30);
        let mut indices: Vec<u64> = report
            .displayed
            .iter()
            .filter(|a| a.cond == CondId::new(0))
            .map(|a| a.id.index)
            .collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..30).collect::<Vec<u64>>());
        assert!(report.stats.reparent_events >= 1);
        assert!(report.stats.replayed_frames > 0);
    }

    #[test]
    fn severed_uplink_replays_on_restore() {
        let report = TreeTopology::new(plan2(0))
            .options(TreeOptions { replay_window: 256, ..TreeOptions::default() })
            .stream(stream(30))
            .faults([TreeFault::SeverUplink {
                tier: 0,
                idx: 0,
                replica: 0,
                at_update: 10,
                down_for: 20,
            }])
            .run();
        assert_eq!(report.displayed.len(), 30, "restore replay fills the gap");
        assert!(report.stats.frames_to_dead > 0, "frames were withheld while severed");
        assert!(report.stats.replayed_frames > 0);
    }

    #[test]
    fn run_report_surface_carries_tree_counters() {
        let report = TreeTopology::new(plan2(0)).stream(stream(5)).run().into_run_report();
        assert_eq!(report.displayed.len(), 5);
        let stats = report.tree.expect("tree runs report their counters");
        assert_eq!(stats.root_alerts, 5);
        assert!(report.arrivals.len() == report.displayed.len());
    }
}
