//! Sharded multi-condition evaluation: a
//! [`ConditionRegistry`](rcm_core::ConditionRegistry) split across
//! worker threads, bit-identical to the unsharded engine.
//!
//! A CE hosting thousands of conditions spends its time in per-arrival
//! re-evaluation, which parallelizes naturally: conditions are
//! independent state machines, so any partition of the condition set
//! evaluates correctly in isolation. [`ShardedRegistry`] partitions by
//! condition id — rcm-core's [`ShardSlices`] seam: shard `s` of `n`
//! hosts every condition with `id % n == s`, keeping the *global* id
//! space — and runs a batch through all shards on the deterministic
//! harness in [`par`]. (The runtime's streaming evaluation pipeline in
//! `rcm-runtime` builds on the same seam, so both engines share one
//! partition function and one merge.)
//!
//! The determinism contract mirrors [`par::map_indexed`]'s:
//!
//! > For any shard count and any worker-thread count,
//! > [`ShardedRegistry::ingest_batch`] emits byte-identical alerts (same
//! > order, same fingerprints, snapshots, and `AlertId` numbering) as a
//! > single unsharded [`ConditionRegistry`](rcm_core::ConditionRegistry)
//! > hosting the same conditions in ascending-id order.
//!
//! It holds because the unsharded registry emits, per update, in
//! ascending condition-id order; each shard tags its alerts with the
//! producing update's batch index, and the merge sorts by
//! `(update index, condition id)` — reconstructing exactly that order
//! ([`ShardSlices::merge_tagged`]).

use rcm_core::condition::expr::CompiledCondition;
use rcm_core::condition::DynCondition;
use rcm_core::{Alert, CeId, CondId, RegistryStats, ShardSlices, Update};

use crate::par;

/// A condition registry partitioned over `n` shards by `cond_id % n`
/// (rcm-core's [`ShardSlices`] seam), evaluated in parallel per batch
/// on the deterministic [`par`] harness.
#[derive(Debug)]
pub struct ShardedRegistry {
    slices: ShardSlices,
}

impl ShardedRegistry {
    /// Creates an empty registry for replica `ce` with `shards` empty
    /// shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(ce: CeId, shards: usize) -> Self {
        ShardedRegistry { slices: ShardSlices::new(ce, shards) }
    }

    /// Builds a sharded registry hosting `conds`, assigning condition
    /// `i` the global id `CondId::new(i)` — the sharded equivalent of
    /// calling [`rcm_core::ConditionRegistry::add_compiled`] for each.
    pub fn from_compiled(
        ce: CeId,
        conds: impl IntoIterator<Item = CompiledCondition>,
        shards: usize,
    ) -> Self {
        let mut reg = Self::new(ce, shards);
        for (i, c) in conds.into_iter().enumerate() {
            reg.insert_compiled(CondId::new(i as u32), c);
        }
        reg
    }

    /// Builds a sharded registry hosting type-erased `conds`, assigning
    /// condition `i` the global id `CondId::new(i)`.
    pub fn from_conditions(
        ce: CeId,
        conds: impl IntoIterator<Item = DynCondition>,
        shards: usize,
    ) -> Self {
        let mut reg = Self::new(ce, shards);
        for (i, c) in conds.into_iter().enumerate() {
            reg.insert(CondId::new(i as u32), c);
        }
        reg
    }

    /// Registers a condition under its global id on the owning shard.
    ///
    /// # Panics
    ///
    /// Panics if `cond_id` is already registered.
    pub fn insert(&mut self, cond_id: CondId, cond: DynCondition) {
        self.slices.insert(cond_id, cond);
    }

    /// [`ShardedRegistry::insert`] for a condition not yet behind an
    /// `Arc`.
    ///
    /// # Panics
    ///
    /// Panics if `cond_id` is already registered.
    pub fn insert_compiled(&mut self, cond_id: CondId, cond: CompiledCondition) {
        self.slices.insert_compiled(cond_id, cond);
    }

    /// Number of hosted conditions across all shards.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// Whether no conditions are hosted.
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.slices.shard_count()
    }

    /// Runs a batch of updates through every shard (in parallel, on
    /// [`par::harness_threads`] workers) and appends the merged alerts
    /// to `out` in exactly the unsharded emission order (the seam's
    /// [`ShardSlices::merge_tagged`]).
    pub fn ingest_batch(&mut self, updates: &[Update], out: &mut Vec<Alert>) {
        let parts: Vec<Vec<(u64, Alert)>> =
            par::map_slice_mut(self.slices.shards_mut(), |_, shard| {
                let mut tagged = Vec::new();
                shard.ingest_batch_tagged(updates, &mut tagged);
                tagged
            });
        ShardSlices::merge_tagged(parts, out);
    }

    /// Aggregate counters summed over shards (see
    /// [`ShardSlices::stats`] for the `unrouted` caveat).
    pub fn stats(&self) -> RegistryStats {
        self.slices.stats()
    }

    /// Crash-restart of the hosting CE: every shard loses its
    /// histories; alert numbering continues per condition (see [`rcm_core::ConditionRegistry::restart`]).
    pub fn restart(&mut self) {
        self.slices.restart();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::par::with_threads;
    use rcm_core::{ConditionRegistry, VarRegistry};

    /// A small family of mixed conditions over x and y.
    fn conds(n: usize, vars: &mut VarRegistry) -> Vec<CompiledCondition> {
        (0..n)
            .map(|i| {
                let src = match i % 4 {
                    0 => format!("x[0].value > {i}"),
                    1 => format!("x[0].value - x[-1].value > {} && consecutive(x)", i % 7),
                    2 => format!("y[0].value < {}", 50 - i as i64),
                    _ => format!("x[0].value + y[0].value > {i}"),
                };
                CompiledCondition::compile(&src, vars).unwrap()
            })
            .collect()
    }

    fn stream(vars: &mut VarRegistry, n: u64) -> Vec<Update> {
        let x = vars.register("x");
        let y = vars.register("y");
        let mut out = Vec::new();
        let (mut sx, mut sy) = (0u64, 0u64);
        for i in 0..n {
            // Interleave x and y, with occasional gaps and stale resends.
            if i % 3 == 0 {
                sy += 1 + u64::from(i % 11 == 0);
                out.push(Update::new(y, sy, (i as f64 * 1.37).sin() * 60.0));
            } else {
                sx += 1 + u64::from(i % 7 == 0);
                out.push(Update::new(x, sx, (i % 100) as f64 - 30.0));
                if i % 13 == 0 {
                    out.push(Update::new(x, sx, 0.0)); // stale duplicate
                }
            }
        }
        out
    }

    #[test]
    fn sharded_is_bit_identical_to_unsharded() {
        let mut vars = VarRegistry::new();
        let family = conds(23, &mut vars);
        let updates = stream(&mut vars, 200);
        let ce = CeId::new(1);

        let mut plain = ConditionRegistry::new(ce);
        for c in &family {
            plain.add_compiled(c.clone());
        }
        let mut want = Vec::new();
        plain.ingest_batch(&updates, &mut want);
        assert!(!want.is_empty(), "test stream should produce alerts");

        for shards in [1, 2, 4, 7, 23, 64] {
            let mut sharded = ShardedRegistry::from_compiled(ce, family.iter().cloned(), shards);
            let mut got = Vec::new();
            sharded.ingest_batch(&updates, &mut got);
            assert_eq!(got.len(), want.len(), "shards = {shards}");
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g, w, "shards = {shards}");
                assert_eq!(g.id, w.id, "shards = {shards}");
                assert_eq!(g.snapshot[..], w.snapshot[..], "shards = {shards}");
            }
            let (ps, ss) = (plain.stats(), sharded.stats());
            assert_eq!(ps.ingested, ss.ingested, "shards = {shards}");
            assert_eq!(ps.dropped_stale, ss.dropped_stale, "shards = {shards}");
            assert_eq!(ps.emitted, ss.emitted, "shards = {shards}");
        }
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let mut vars = VarRegistry::new();
        let family = conds(16, &mut vars);
        let updates = stream(&mut vars, 120);
        let ce = CeId::new(0);
        let runs: Vec<Vec<Alert>> = [1usize, 2, 8]
            .iter()
            .map(|&threads| {
                with_threads(threads, || {
                    let mut reg = ShardedRegistry::from_compiled(ce, family.iter().cloned(), 8);
                    let mut out = Vec::new();
                    reg.ingest_batch(&updates, &mut out);
                    out
                })
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
        for (a, b) in runs[0].iter().zip(&runs[2]) {
            assert_eq!(a.id, b.id);
        }
    }

    #[test]
    fn restart_spans_all_shards() {
        let mut vars = VarRegistry::new();
        let family = conds(6, &mut vars);
        let updates = stream(&mut vars, 60);
        let ce = CeId::new(2);

        let mut reference = ConditionRegistry::new(ce);
        for c in &family {
            reference.add_compiled(c.clone());
        }
        let mut sharded = ShardedRegistry::from_compiled(ce, family.iter().cloned(), 3);

        let (first, second) = updates.split_at(updates.len() / 2);
        let (mut want, mut got) = (Vec::new(), Vec::new());
        reference.ingest_batch(first, &mut want);
        reference.restart();
        reference.ingest_batch(second, &mut want);
        sharded.ingest_batch(first, &mut got);
        sharded.restart();
        sharded.ingest_batch(second, &mut got);
        assert_eq!(got, want);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.id, w.id);
        }
    }

    #[test]
    fn mixed_dyn_and_sharding_accessors() {
        use rcm_core::condition::{Cmp, Threshold};
        use rcm_core::VarId;
        use std::sync::Arc;
        let x = VarId::new(0);
        let mut reg = ShardedRegistry::from_conditions(
            CeId::new(0),
            (0..5).map(|i| Arc::new(Threshold::new(x, Cmp::Gt, f64::from(i))) as DynCondition),
            2,
        );
        assert_eq!(reg.len(), 5);
        assert_eq!(reg.shards(), 2);
        assert!(!reg.is_empty());
        let mut out = Vec::new();
        reg.ingest_batch(&[Update::new(x, 1, 10.0)], &mut out);
        assert_eq!(out.len(), 5);
        // Global ids survive sharding, in ascending order per update.
        let ids: Vec<u32> = out.iter().map(|a| a.cond.index()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        ShardedRegistry::new(CeId::new(0), 0);
    }
}
