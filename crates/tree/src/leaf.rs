//! Leaf Condition Evaluators: the tier that owns raw variables.

use rcm_core::condition::DynCondition;
use rcm_core::{
    Alert, CeId, ConditionRegistry, DerivedEmitter, DerivedPayload, DerivedUpdate, Update,
};
use rcm_transport::SeqGate;

use crate::window::ReplayWindow;
use crate::{aggregate_stream, verdict_stream};

/// The numeric fold a leaf's optional aggregate stream carries, one
/// element per admitted raw update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateSpec {
    /// Running count of alerts this leaf has emitted.
    AlertCount,
    /// Running maximum of the raw values this leaf has admitted.
    MaxValue,
}

#[derive(Debug)]
struct AggregateState {
    emitter: DerivedEmitter,
    spec: AggregateSpec,
    value: f64,
}

/// What one admitted raw update produced at a leaf.
#[derive(Debug, Default)]
pub struct LeafOutput {
    /// Alerts for the leaf's *own* Alert Displayer (provenance stamped
    /// with the leaf replica's `CeId`).
    pub alerts: Vec<Alert>,
    /// Derived updates for the uplink, in emission order: one verdict
    /// per alert, then the aggregate element if configured.
    pub derived: Vec<DerivedUpdate>,
}

/// One leaf CE replica: a seqno gate in front of a condition registry,
/// stamping verdict (and optionally aggregate) streams for its parent
/// tier.
///
/// Determinism is the load-bearing property: two replicas built from
/// the same plan and fed the same post-loss input emit identical
/// derived streams under identical stream ids, which is what lets the
/// parent's gate collapse a replica group into one logical child.
#[derive(Debug)]
pub struct LeafCe {
    node: u32,
    gate: SeqGate,
    registry: ConditionRegistry,
    verdicts: DerivedEmitter,
    aggregates: Option<AggregateState>,
    window: ReplayWindow,
    dead: bool,
    admitted: u64,
    dropped_by_gate: u64,
}

impl LeafCe {
    /// Builds one replica of leaf `leaf` as a plan describes it, as
    /// [`TreeEval`](crate::TreeEval) builds its own, for tests that
    /// drive one leaf alone.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of the plan's range.
    pub fn from_plan(
        plan: &crate::TreePlan,
        leaf: usize,
        ce: CeId,
        opts: &crate::TreeOptions,
    ) -> Self {
        LeafCe::build(leaf as u32, ce, &plan.leaf_conds[leaf], opts.replay_window, opts.aggregates)
    }

    /// Builds leaf `node`'s replica `ce` hosting `conds`.
    pub(crate) fn build(
        node: u32,
        ce: CeId,
        conds: &[(rcm_core::CondId, DynCondition)],
        replay_window: usize,
        aggregates: Option<AggregateSpec>,
    ) -> Self {
        // A registry emits in registration order and a leaf in ascending
        // condition id, whatever order the plan placed its conditions in.
        let mut conds = conds.to_vec();
        conds.sort_by_key(|(id, _)| *id);
        let mut registry = ConditionRegistry::new(ce);
        for (id, cond) in conds {
            registry.insert(id, cond);
        }
        LeafCe {
            node,
            gate: SeqGate::new(),
            registry,
            verdicts: DerivedEmitter::new(verdict_stream(0, node)),
            aggregates: aggregates.map(|spec| AggregateState {
                emitter: DerivedEmitter::new(aggregate_stream(0, node)),
                spec,
                value: 0.0,
            }),
            window: ReplayWindow::new(replay_window),
            dead: false,
            admitted: 0,
            dropped_by_gate: 0,
        }
    }

    /// This leaf's node index on tier 0.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Offers one raw update: gate, evaluate, stamp derived streams.
    pub fn ingest(&mut self, update: Update, out: &mut LeafOutput) {
        if self.dead {
            return;
        }
        if !self.gate.admit(&update) {
            self.dropped_by_gate += 1;
            return;
        }
        self.admitted += 1;
        let first = out.alerts.len();
        self.registry.ingest(update, &mut out.alerts);

        for alert in &out.alerts[first..] {
            let d = self.verdicts.emit(DerivedPayload::Verdict(alert.clone()));
            self.window.push(d.clone());
            out.derived.push(d);
            if let Some(agg) = &mut self.aggregates {
                if agg.spec == AggregateSpec::AlertCount {
                    agg.value += 1.0;
                }
            }
        }
        if let Some(agg) = &mut self.aggregates {
            if agg.spec == AggregateSpec::MaxValue {
                agg.value = agg.value.max(update.value);
            }
            let d = agg.emitter.emit(DerivedPayload::Aggregate(agg.value));
            self.window.push(d.clone());
            out.derived.push(d);
        }
    }

    /// The replay window of this replica's uplink.
    pub fn window(&self) -> &ReplayWindow {
        &self.window
    }

    /// Marks the replica crashed: it ingests nothing further.
    pub fn kill(&mut self) {
        self.dead = true;
    }

    /// Whether the replica has been killed.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Raw updates admitted through the gate.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Raw updates the gate discarded (duplicates / reorders).
    pub fn dropped_by_gate(&self) -> u64 {
        self.dropped_by_gate
    }

    /// Derived updates emitted so far (verdicts plus aggregates).
    pub fn derived_emitted(&self) -> u64 {
        self.verdicts.emitted() + self.aggregates.as_ref().map_or(0, |a| a.emitter.emitted())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_core::condition::{Cmp, Threshold};
    use rcm_core::{CondId, VarId};
    use std::sync::Arc;

    fn leaf(aggregates: Option<AggregateSpec>) -> LeafCe {
        let conds = vec![
            (
                CondId::new(0),
                Arc::new(Threshold::new(VarId::new(0), Cmp::Gt, 10.0)) as DynCondition,
            ),
            (
                CondId::new(1),
                Arc::new(Threshold::new(VarId::new(0), Cmp::Gt, 20.0)) as DynCondition,
            ),
        ];
        LeafCe::build(3, CeId::new(7), &conds, 8, aggregates)
    }

    #[test]
    fn verdicts_follow_cond_order_and_consecutive_seqnos() {
        let mut l = leaf(None);
        let mut out = LeafOutput::default();
        l.ingest(Update::new(VarId::new(0), 1, 25.0), &mut out);
        assert_eq!(out.alerts.len(), 2);
        assert_eq!(out.derived.len(), 2);
        assert_eq!(out.alerts[0].cond, CondId::new(0));
        assert_eq!(out.alerts[1].cond, CondId::new(1));
        let seqnos: Vec<u64> = out.derived.iter().map(|d| d.seqno.get()).collect();
        assert_eq!(seqnos, vec![1, 2]);
        assert!(out.derived.iter().all(|d| d.var == verdict_stream(0, 3)));
        assert_eq!(l.derived_emitted(), 2);
        assert_eq!(l.window().len(), 2);
    }

    #[test]
    fn gate_discards_duplicates_before_evaluation() {
        let mut l = leaf(None);
        let mut out = LeafOutput::default();
        l.ingest(Update::new(VarId::new(0), 1, 25.0), &mut out);
        l.ingest(Update::new(VarId::new(0), 1, 25.0), &mut out);
        assert_eq!(l.admitted(), 1);
        assert_eq!(l.dropped_by_gate(), 1);
        assert_eq!(out.alerts.len(), 2, "duplicate produced no second batch");
    }

    #[test]
    fn aggregate_stream_rides_alongside_verdicts() {
        let mut l = leaf(Some(AggregateSpec::MaxValue));
        let mut out = LeafOutput::default();
        l.ingest(Update::new(VarId::new(0), 1, 5.0), &mut out);
        l.ingest(Update::new(VarId::new(0), 2, 15.0), &mut out);
        let aggs: Vec<&DerivedUpdate> =
            out.derived.iter().filter(|d| d.var == aggregate_stream(0, 3)).collect();
        assert_eq!(aggs.len(), 2, "one aggregate element per admitted update");
        assert_eq!(aggs[1].payload, DerivedPayload::Aggregate(15.0));
        assert_eq!(aggs[1].seqno.get(), 2);
    }

    #[test]
    fn killed_replica_goes_silent() {
        let mut l = leaf(None);
        l.kill();
        let mut out = LeafOutput::default();
        l.ingest(Update::new(VarId::new(0), 1, 25.0), &mut out);
        assert!(out.alerts.is_empty() && out.derived.is_empty());
        assert!(l.is_dead());
    }
}
