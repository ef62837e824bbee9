//! The deterministic in-process tree harness.

use std::collections::BTreeMap;

use rcm_core::{Alert, CeId, DerivedUpdate, Update, VarId};
use rcm_transport::wire::{self, Message};

use crate::leaf::{LeafCe, LeafOutput};
use crate::plan::{TreeOptions, TreePlan};
use crate::relay::Relay;
use crate::root::RootCe;

/// Uplink destination of a node: an interior relay or the root.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRef {
    /// Relay `idx` on interior tier `tier` (1-based above the leaves).
    Relay {
        /// Interior tier, `1..=relay_tiers`.
        tier: usize,
        /// Node index within the tier.
        idx: usize,
    },
    /// The root CE.
    Root,
}

/// Counters describing one tree run, as the chaos gauntlet's and the
/// scale harness's JSON documents report them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Raw updates routed to their owning leaf.
    pub updates_routed: u64,
    /// Raw updates whose variable no leaf owns (dropped).
    pub updates_unowned: u64,
    /// Raw updates discarded by leaf gates (duplicates / reorders).
    pub gate_dropped_raw: u64,
    /// Alerts emitted by leaf replicas for their own displayers.
    pub leaf_alerts: u64,
    /// Derived updates stamped by leaf emitters (all replicas).
    pub derived_emitted: u64,
    /// Derived updates forwarded by interior relays.
    pub derived_forwarded: u64,
    /// Derived duplicates discarded by relay and root gates (replica
    /// copies, re-parent replays).
    pub derived_duplicates: u64,
    /// Children moved to a new parent after a relay death.
    pub reparent_events: u64,
    /// Derived updates replayed from sender windows during re-parents.
    pub replayed_frames: u64,
    /// Derived updates sent to a dead relay and lost in flight, or
    /// withheld by a severed leaf uplink.
    pub frames_to_dead: u64,
    /// Alerts the root displayed.
    pub root_alerts: u64,
    /// Tier-link frames crossed, checked, through the binary codec
    /// (when `wire_check` is on).
    pub wire_frames: u64,
    /// Bytes those frames occupied on the wire.
    pub wire_bytes: u64,
}

/// A whole aggregation tree evaluated synchronously in-process:
/// deterministic and single-threaded, so a seed names one exact run.
/// It is the workspace's only tree runtime.
///
/// Every raw update is routed to the single leaf owning its variable;
/// each leaf replica evaluates it and the resulting derived updates
/// climb the relay chain (optionally crossing the binary wire codec,
/// checked field for field, per hop) to the root.
/// Faults are method calls made between updates.
/// [`TreeEval::kill_relay`] and [`TreeEval::reparent_orphans`] model
/// the failure path: frames sent to a dead relay are lost until the
/// orphaned children are adopted by a sibling (or an ancestor) and
/// replay their bounded windows. [`TreeEval::kill_leaf_replica`]
/// crashes one replica, and [`TreeEval::sever_leaf`] /
/// [`TreeEval::restore_leaf`] cut and reconnect one replica's uplink.
#[derive(Debug)]
pub struct TreeEval {
    opts: TreeOptions,
    owner: BTreeMap<VarId, usize>,
    /// `[leaf][replica]`.
    leaves: Vec<Vec<LeafCe>>,
    /// `[leaf][replica]`: whether that replica's uplink is severed.
    severed: Vec<Vec<bool>>,
    /// `[tier-1][idx]` for interior tiers `1..=relay_tiers`.
    relays: Vec<Vec<Relay>>,
    /// `parents[t][n]`: uplink of node `n` at tier `t` (`0` = leaves).
    parents: Vec<Vec<NodeRef>>,
    root: RootCe,
    counters: TreeStats,
    /// The frame of the last tier-link hop (with `wire_check` on);
    /// cleared and reused per hop.
    frame: Vec<u8>,
}

impl TreeEval {
    /// Builds the tree a plan describes under the given options.
    ///
    /// # Panics
    ///
    /// Panics if `opts.leaf_replicas` is zero.
    pub fn build(plan: TreePlan, opts: TreeOptions) -> Self {
        assert!(opts.leaf_replicas >= 1, "need at least one replica per leaf");
        let (leaves_n, tiers, fanout) = (plan.leaves(), plan.relay_tiers(), plan.fanout());

        // Tier widths: leaves, then each relay tier shrinks by fanout.
        let mut width = vec![leaves_n];
        for t in 1..=tiers {
            width.push(width[t - 1].div_ceil(fanout).max(1));
        }

        let mut parents: Vec<Vec<NodeRef>> = Vec::with_capacity(tiers + 1);
        for (t, &w) in width.iter().enumerate() {
            let tier_parents = (0..w)
                .map(|n| {
                    if t == tiers {
                        NodeRef::Root
                    } else {
                        NodeRef::Relay { tier: t + 1, idx: (n / fanout).min(width[t + 1] - 1) }
                    }
                })
                .collect();
            parents.push(tier_parents);
        }

        let leaves = (0..leaves_n)
            .map(|leaf| {
                (0..opts.leaf_replicas)
                    .map(|r| {
                        LeafCe::build(
                            leaf as u32,
                            CeId::new((leaf * opts.leaf_replicas + r) as u32 + 1),
                            &plan.leaf_conds[leaf],
                            opts.replay_window,
                            opts.aggregates,
                        )
                    })
                    .collect()
            })
            .collect();

        let relays = (1..=tiers)
            .map(|t| {
                (0..width[t]).map(|n| Relay::new(t as u8, n as u32, opts.replay_window)).collect()
            })
            .collect();

        let root = RootCe::build(opts.root_ce, &plan.root_conds);
        let owner: BTreeMap<VarId, usize> = plan.owned_vars().into_iter().collect();
        TreeEval {
            severed: vec![vec![false; opts.leaf_replicas]; leaves_n],
            opts,
            owner,
            leaves,
            relays,
            parents,
            root,
            counters: TreeStats::default(),
            frame: Vec::new(),
        }
    }

    /// Offers one raw update to the tree, appending root-displayed
    /// alerts to `out`.
    pub fn ingest(&mut self, update: Update, out: &mut Vec<Alert>) {
        let Some(&leaf) = self.owner.get(&update.var) else {
            self.counters.updates_unowned += 1;
            return;
        };
        self.counters.updates_routed += 1;
        let uplink = self.parents[0][leaf];
        let mut batches: Vec<Vec<DerivedUpdate>> = Vec::new();
        for replica in &mut self.leaves[leaf] {
            let mut lo = LeafOutput::default();
            replica.ingest(update, &mut lo);
            self.counters.leaf_alerts += lo.alerts.len() as u64;
            batches.push(lo.derived);
        }
        for (replica, batch) in batches.into_iter().enumerate() {
            if self.severed[leaf][replica] {
                // Withheld: the replica's window replays it on restore.
                self.counters.frames_to_dead += batch.len() as u64;
                continue;
            }
            for d in batch {
                self.deliver(uplink, d, out);
            }
        }
    }

    /// Walks one derived update up the tree from `at`.
    fn deliver(&mut self, mut at: NodeRef, mut d: DerivedUpdate, out: &mut Vec<Alert>) {
        loop {
            if self.opts.wire_check {
                d = self.wire_cross(d);
            }
            match at {
                NodeRef::Relay { tier, idx } => {
                    let relay = &mut self.relays[tier - 1][idx];
                    if relay.is_dead() {
                        // A frame to a crashed node is in-flight loss;
                        // the sender's replay window is the recovery.
                        self.counters.frames_to_dead += 1;
                        return;
                    }
                    match relay.ingest(&d) {
                        Some(fwd) => {
                            d = fwd;
                            at = self.parents[tier][idx];
                        }
                        None => return,
                    }
                }
                NodeRef::Root => {
                    self.root.ingest(&d, out);
                    return;
                }
            }
        }
    }

    /// One tier-link hop through the version-gated binary codec, a
    /// checked crossing ([`wire::cross_in`]): encode, frame, decode,
    /// check every field of the copy bit for bit, forward `d` itself.
    fn wire_cross(&mut self, d: DerivedUpdate) -> DerivedUpdate {
        let msg = Message::Derived(d);
        self.counters.wire_frames += 1;
        self.counters.wire_bytes += wire::frame_len(&msg) as u64;
        wire::cross_in(&mut self.frame, &msg);
        let Message::Derived(d) = msg else { unreachable!("built as a derived update above") };
        d
    }

    /// Crashes relay `idx` on interior tier `tier` (1-based). Frames
    /// keep flowing into the dead node — and are lost — until
    /// [`TreeEval::reparent_orphans`] runs, modeling detection lag.
    pub fn kill_relay(&mut self, tier: usize, idx: usize) {
        self.relays[tier - 1][idx].kill();
    }

    /// Crashes one replica of a leaf; surviving replicas keep the
    /// leaf's derived streams alive with no gap.
    pub fn kill_leaf_replica(&mut self, leaf: usize, replica: usize) {
        self.leaves[leaf][replica].kill();
    }

    /// Severs one leaf replica's uplink. The replica keeps evaluating
    /// and filling its window, but its frames are withheld (counted in
    /// `frames_to_dead`) until [`TreeEval::restore_leaf`].
    pub fn sever_leaf(&mut self, leaf: usize, replica: usize) {
        self.severed[leaf][replica] = true;
    }

    /// Reconnects one leaf replica's uplink and replays its window
    /// through the leaf's current parent; every gate on the way
    /// discards what it already admitted.
    pub fn restore_leaf(&mut self, leaf: usize, replica: usize, out: &mut Vec<Alert>) {
        self.severed[leaf][replica] = false;
        let window: Vec<DerivedUpdate> =
            self.leaves[leaf][replica].window().iter().cloned().collect();
        self.replay(self.parents[0][leaf], window, out);
    }

    /// Adopts every child whose parent is dead onto the nearest live
    /// sibling of the dead relay (or, with none live, the dead relay's
    /// closest live ancestor), then replays each moved child's window
    /// through its new path. Returns the number of children moved.
    ///
    /// Idempotent and always safe: every gate on the new path discards
    /// elements it already admitted, so replay can only *add* what the
    /// outage lost (bounded by the window).
    pub fn reparent_orphans(&mut self, out: &mut Vec<Alert>) -> usize {
        let mut moved = 0;
        for t in 0..self.parents.len() {
            for n in 0..self.parents[t].len() {
                let NodeRef::Relay { tier, idx } = self.parents[t][n] else { continue };
                if !self.relays[tier - 1][idx].is_dead() {
                    continue;
                }
                let adopted = self.adoptive_parent(tier, idx);
                self.parents[t][n] = adopted;
                self.counters.reparent_events += 1;
                moved += 1;
                let window: Vec<DerivedUpdate> = if t == 0 {
                    self.leaves[n]
                        .iter()
                        .find(|r| !r.is_dead())
                        .map(|r| r.window().iter().cloned().collect())
                        .unwrap_or_default()
                } else {
                    self.relays[t - 1][n].window().iter().cloned().collect()
                };
                self.replay(adopted, window, out);
            }
        }
        moved
    }

    /// Delivers a sender window through `at`, oldest first.
    fn replay(&mut self, at: NodeRef, window: Vec<DerivedUpdate>, out: &mut Vec<Alert>) {
        self.counters.replayed_frames += window.len() as u64;
        for d in window {
            self.deliver(at, d, out);
        }
    }

    /// New parent for the children of dead relay `(tier, idx)`: the
    /// nearest live sibling, else the dead node's closest live
    /// ancestor (ultimately the root, which cannot die).
    fn adoptive_parent(&self, tier: usize, idx: usize) -> NodeRef {
        let siblings = &self.relays[tier - 1];
        let mut best: Option<usize> = None;
        for (j, r) in siblings.iter().enumerate() {
            if j == idx || r.is_dead() {
                continue;
            }
            let closer = match best {
                None => true,
                Some(b) => j.abs_diff(idx) < b.abs_diff(idx),
            };
            if closer {
                best = Some(j);
            }
        }
        if let Some(j) = best {
            return NodeRef::Relay { tier, idx: j };
        }
        let mut at = self.parents[tier][idx];
        loop {
            match at {
                NodeRef::Relay { tier: t, idx: i } if self.relays[t - 1][i].is_dead() => {
                    at = self.parents[t][i];
                }
                live => return live,
            }
        }
    }

    /// Number of interior relay tiers.
    pub fn relay_tiers(&self) -> usize {
        self.relays.len()
    }

    /// Width of interior tier `tier` (1-based).
    pub fn relay_width(&self, tier: usize) -> usize {
        self.relays[tier - 1].len()
    }

    /// Read access to one leaf replica.
    pub fn leaf(&self, leaf: usize, replica: usize) -> &LeafCe {
        &self.leaves[leaf][replica]
    }

    /// Read access to one relay.
    pub fn relay(&self, tier: usize, idx: usize) -> &Relay {
        &self.relays[tier - 1][idx]
    }

    /// Read access to the root.
    pub fn root(&self) -> &RootCe {
        &self.root
    }

    /// The run's counters so far.
    pub fn stats(&self) -> TreeStats {
        let mut s = self.counters;
        for group in &self.leaves {
            for replica in group {
                s.derived_emitted += replica.derived_emitted();
                s.gate_dropped_raw += replica.dropped_by_gate();
            }
        }
        for tier in &self.relays {
            for relay in tier {
                s.derived_forwarded += relay.forwarded();
                s.derived_duplicates += relay.duplicates();
            }
        }
        s.derived_duplicates += self.root.duplicates();
        s.root_alerts = self.root.displayed();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_core::condition::{Cmp, Threshold};
    use rcm_core::CondId;
    use std::sync::Arc;

    /// Two leaves, two conditions each, one variable per condition.
    fn plan2() -> TreePlan {
        let mut plan = TreePlan::new(2);
        for v in 0..4u32 {
            plan.own(VarId::new(v), (v % 2) as usize);
        }
        for c in 0..4u32 {
            plan.add_condition(
                CondId::new(c),
                Arc::new(Threshold::new(VarId::new(c), Cmp::Gt, 10.0)),
            )
            .unwrap();
        }
        plan
    }

    #[test]
    fn two_tier_tree_displays_root_provenance() {
        let opts =
            TreeOptions { root_ce: CeId::new(42), wire_check: true, ..TreeOptions::default() };
        let mut tree = TreeEval::build(plan2(), opts);
        let mut out = Vec::new();
        tree.ingest(Update::new(VarId::new(0), 1, 50.0), &mut out);
        tree.ingest(Update::new(VarId::new(1), 1, 50.0), &mut out);
        tree.ingest(Update::new(VarId::new(9), 1, 50.0), &mut out); // unowned
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(|a| a.id.ce == CeId::new(42)));
        let s = tree.stats();
        assert_eq!(s.updates_routed, 2);
        assert_eq!(s.updates_unowned, 1);
        assert_eq!(s.root_alerts, 2);
        assert_eq!(s.derived_emitted, 2);
        assert!(s.wire_frames >= 2, "wire_check crosses every hop");
        assert!(s.wire_bytes > 0);
    }

    #[test]
    fn replicas_are_transparent_to_the_root() {
        let opts = TreeOptions { leaf_replicas: 3, ..TreeOptions::default() };
        let mut tree = TreeEval::build(plan2(), opts);
        let mut out = Vec::new();
        tree.ingest(Update::new(VarId::new(0), 1, 50.0), &mut out);
        assert_eq!(out.len(), 1, "three replicas, one displayed alert");
        let s = tree.stats();
        assert_eq!(s.derived_emitted, 3);
        assert_eq!(s.derived_duplicates, 2);
    }

    #[test]
    fn relay_death_loses_frames_until_reparent_replays_them() {
        let opts = TreeOptions { replay_window: 16, ..TreeOptions::default() };
        let plan = {
            let mut p = plan2().with_relay_tiers(1).with_fanout(1);
            p.own(VarId::new(8), 0); // extra var so widths stay put
            p
        };
        let mut tree = TreeEval::build(plan, opts);
        assert_eq!(tree.relay_tiers(), 1);
        assert_eq!(tree.relay_width(1), 2, "fanout 1 keeps one relay per leaf");

        let mut out = Vec::new();
        tree.ingest(Update::new(VarId::new(0), 1, 50.0), &mut out);
        assert_eq!(out.len(), 1);

        // Leaf 0's relay dies; the next update's frame is lost.
        tree.kill_relay(1, 0);
        tree.ingest(Update::new(VarId::new(0), 2, 60.0), &mut out);
        assert_eq!(out.len(), 1, "frame to dead relay lost");
        assert_eq!(tree.stats().frames_to_dead, 1);

        // Re-parent: leaf 0 adopts relay 1 and replays its window.
        let moved = tree.reparent_orphans(&mut out);
        assert_eq!(moved, 1);
        assert_eq!(out.len(), 2, "window replay recovered the lost verdict");
        let s = tree.stats();
        assert_eq!(s.reparent_events, 1);
        assert!(s.replayed_frames >= 2);
        // The replayed copy of the first verdict was gated as duplicate.
        assert!(s.derived_duplicates >= 1);
        // Exactly-once: indices 0 and 1 for condition 0, no gaps.
        let indices: Vec<u64> =
            out.iter().filter(|a| a.cond == CondId::new(0)).map(|a| a.id.index).collect();
        assert_eq!(indices, vec![0, 1]);

        // Replay is idempotent: nothing new on a second pass.
        let before = out.len();
        tree.reparent_orphans(&mut out);
        assert_eq!(out.len(), before);
    }

    /// Feeds `n` firing updates of variable 0 (leaf 0), severing leaf
    /// 0's replica 0 before update `at`.
    fn feed_severed(tree: &mut TreeEval, n: u64, at: u64, out: &mut Vec<Alert>) {
        for s in 1..=n {
            if s - 1 == at {
                tree.sever_leaf(0, 0);
            }
            tree.ingest(Update::new(VarId::new(0), s, 50.0), out);
        }
    }

    #[test]
    fn severed_uplink_replays_on_restore() {
        let opts = TreeOptions { replay_window: 256, wire_check: true, ..TreeOptions::default() };
        let mut tree = TreeEval::build(plan2(), opts);
        let mut out = Vec::new();
        feed_severed(&mut tree, 30, 10, &mut out);
        assert_eq!(out.len(), 10, "nothing crosses a severed uplink");
        tree.restore_leaf(0, 0, &mut out);
        assert_eq!(out.len(), 30, "restore replay fills the gap");
        let indices: Vec<u64> = out.iter().map(|a| a.id.index).collect();
        assert_eq!(indices, (0..30).collect::<Vec<u64>>());
        let s = tree.stats();
        assert_eq!(s.frames_to_dead, 20, "frames were withheld while severed");
        assert_eq!(s.replayed_frames, 30, "the whole window replays");
        assert_eq!(s.derived_duplicates, 10, "the root gated what it already had");
    }

    #[test]
    fn severing_one_of_two_replicas_loses_nothing() {
        let opts = TreeOptions { leaf_replicas: 2, ..TreeOptions::default() };
        let mut tree = TreeEval::build(plan2(), opts);
        let mut out = Vec::new();
        feed_severed(&mut tree, 30, 10, &mut out);
        assert_eq!(out.len(), 30, "the connected replica carries the leaf");
        assert_eq!(tree.stats().frames_to_dead, 20);
        tree.restore_leaf(0, 0, &mut out);
        assert_eq!(out.len(), 30, "the replay is all duplicates");
    }

    #[test]
    fn deep_tree_collapses_all_relays_to_root_when_all_die() {
        let opts = TreeOptions::default();
        let mut tree = TreeEval::build(plan2().with_relay_tiers(2).with_fanout(2), opts);
        let mut out = Vec::new();
        tree.ingest(Update::new(VarId::new(0), 1, 50.0), &mut out);
        assert_eq!(out.len(), 1);
        // Kill every relay on both tiers: children fall through to root.
        for tier in 1..=tree.relay_tiers() {
            for idx in 0..tree.relay_width(tier) {
                tree.kill_relay(tier, idx);
            }
        }
        tree.reparent_orphans(&mut out);
        tree.ingest(Update::new(VarId::new(0), 2, 60.0), &mut out);
        assert_eq!(out.len(), 2, "orphans route straight to root");
        assert_eq!(out[1].id.index, 1);
    }
}
