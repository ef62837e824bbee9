//! Tree topology and condition-placement planning.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use rcm_core::condition::expr::CompiledCondition;
use rcm_core::condition::DynCondition;
use rcm_core::{is_derived_var, CeId, CondId, VarId};

use crate::error::TreeError;

/// Declarative description of an aggregation tree: how many leaves,
/// how many interior relay tiers between them and the root, which leaf
/// owns which variable, and where every condition lives.
///
/// Placement is *derived from ownership*, never chosen freely: a
/// condition is assigned to the leaf owning its variables, and
/// [`TreePlan::add_condition`] rejects a condition whose variable set
/// straddles two leaves. That co-location invariant is what the
/// keystone flat-equivalence proof rests on.
#[derive(Debug)]
pub struct TreePlan {
    leaves: usize,
    relay_tiers: usize,
    fanout: usize,
    owner: BTreeMap<VarId, usize>,
    pub(crate) leaf_conds: Vec<Vec<(CondId, DynCondition)>>,
    assigned: BTreeSet<CondId>,
}

impl TreePlan {
    /// A plan with `leaves` leaf CEs, no relay tiers (a two-tier tree:
    /// leaves feeding the root directly) and fanout 2.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is zero or exceeds the 16-bit per-tier node
    /// field of a derived stream id.
    pub fn new(leaves: usize) -> Self {
        assert!(leaves >= 1, "a tree needs at least one leaf");
        assert!(leaves < (1 << 16), "leaf count {leaves} exceeds the per-tier node budget");
        TreePlan {
            leaves,
            relay_tiers: 0,
            fanout: 2,
            owner: BTreeMap::new(),
            leaf_conds: vec![Vec::new(); leaves],
            assigned: BTreeSet::new(),
        }
    }

    /// Sets the number of interior relay tiers between the leaves and
    /// the root (0 = two-tier tree).
    pub fn with_relay_tiers(mut self, tiers: usize) -> Self {
        assert!(tiers <= 250, "relay tier count {tiers} exceeds the 8-bit tier field");
        self.relay_tiers = tiers;
        self
    }

    /// Sets the grouping fanout: children `n·fanout ‥ (n+1)·fanout-1`
    /// of one tier share parent `n` on the next.
    ///
    /// # Panics
    ///
    /// Panics if `fanout` is zero.
    pub fn with_fanout(mut self, fanout: usize) -> Self {
        assert!(fanout >= 1, "fanout must be at least 1");
        self.fanout = fanout;
        self
    }

    /// Declares that leaf `leaf` owns variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `leaf` is out of range, `var` is a derived id, or the
    /// variable is already owned by a *different* leaf (ownership is a
    /// partition, not a subscription).
    pub fn own(&mut self, var: VarId, leaf: usize) -> &mut Self {
        assert!(leaf < self.leaves, "leaf {leaf} out of range (have {})", self.leaves);
        assert!(!is_derived_var(var), "derived stream {var} cannot be owned by a leaf");
        if let Some(&prev) = self.owner.get(&var) {
            assert!(prev == leaf, "{var} already owned by leaf {prev}, cannot move to {leaf}");
        }
        self.owner.insert(var, leaf);
        self
    }

    /// The leaf owning `var`, if declared.
    pub fn owner_of(&self, var: VarId) -> Option<usize> {
        self.owner.get(&var).copied()
    }

    /// The declared `(variable, owning leaf)` pairs, ascending by
    /// variable.
    pub fn owned_vars(&self) -> Vec<(VarId, usize)> {
        self.owner.iter().map(|(&v, &l)| (v, l)).collect()
    }

    /// Places a condition on the leaf owning its variables and returns
    /// that leaf, or explains why no single leaf can host it.
    pub fn add_condition(&mut self, id: CondId, cond: DynCondition) -> Result<usize, TreeError> {
        if self.assigned.contains(&id) {
            return Err(TreeError::DuplicateCondition { cond: id });
        }
        let vars = cond.variables();
        let mut leaf: Option<usize> = None;
        for &var in &vars {
            let here = self.owner_of(var).ok_or(TreeError::UnownedVariable { cond: id, var })?;
            match leaf {
                None => leaf = Some(here),
                Some(l) if l != here => {
                    return Err(TreeError::ConditionStraddlesLeaves { cond: id, a: l, b: here })
                }
                Some(_) => {}
            }
        }
        let leaf = leaf.ok_or(TreeError::ConditionHasNoVariables { cond: id })?;
        self.leaf_conds[leaf].push((id, cond));
        self.assigned.insert(id);
        Ok(leaf)
    }

    /// [`TreePlan::add_condition`] for a condition not yet behind an
    /// `Arc`.
    pub fn add_compiled(
        &mut self,
        id: CondId,
        cond: CompiledCondition,
    ) -> Result<usize, TreeError> {
        self.add_condition(id, Arc::new(cond))
    }

    /// Number of leaf CEs.
    pub fn leaves(&self) -> usize {
        self.leaves
    }

    /// Number of interior relay tiers.
    pub fn relay_tiers(&self) -> usize {
        self.relay_tiers
    }

    /// The grouping fanout.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Total conditions placed.
    pub fn conditions(&self) -> usize {
        self.assigned.len()
    }
}

/// Deployment knobs orthogonal to the topology: the replication
/// degree, replay bounds and identity.
#[derive(Debug, Clone)]
pub struct TreeOptions {
    /// The root's `CeId` — the provenance stamped on every displayed
    /// alert, matching what a flat CE with this id would stamp.
    pub root_ce: CeId,
    /// Replicas per leaf (≥ 1). All replicas of a leaf are fed the
    /// same admitted input and emit identical derived streams; the
    /// parent's gate admits the first copy of each element.
    pub leaf_replicas: usize,
    /// Sender-side replay window per node (elements retained for
    /// re-parent recovery; 0 disables replay).
    pub replay_window: usize,
}

impl Default for TreeOptions {
    fn default() -> Self {
        TreeOptions { root_ce: CeId::new(0), leaf_replicas: 1, replay_window: 64 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_core::condition::{cond, Cmp};
    use std::sync::Arc;

    fn thresh(var: u32) -> DynCondition {
        Arc::new(cond::threshold(VarId::new(var), Cmp::Gt, 0.0))
    }

    #[test]
    fn placement_follows_ownership() {
        let mut plan = TreePlan::new(2);
        plan.own(VarId::new(0), 0).own(VarId::new(1), 1);
        assert_eq!(plan.add_condition(CondId::new(0), thresh(0)), Ok(0));
        assert_eq!(plan.add_condition(CondId::new(1), thresh(1)), Ok(1));
        assert_eq!(plan.conditions(), 2);
    }

    #[test]
    fn straddling_condition_rejected() {
        use rcm_core::VarRegistry;
        let mut vars = VarRegistry::new();
        let c = CompiledCondition::compile("x[0].value + y[0].value > 0", &mut vars).unwrap();
        let (x, y) = (vars.lookup("x").unwrap(), vars.lookup("y").unwrap());
        let mut plan = TreePlan::new(2);
        plan.own(x, 0).own(y, 1);
        let err = plan.add_compiled(CondId::new(0), c).unwrap_err();
        assert_eq!(err, TreeError::ConditionStraddlesLeaves { cond: CondId::new(0), a: 0, b: 1 });
    }

    #[test]
    fn unowned_variable_rejected() {
        let mut plan = TreePlan::new(1);
        let err = plan.add_condition(CondId::new(0), thresh(7)).unwrap_err();
        assert_eq!(err, TreeError::UnownedVariable { cond: CondId::new(0), var: VarId::new(7) });
    }

    #[test]
    fn duplicate_ids_rejected_across_leaves() {
        let mut plan = TreePlan::new(2);
        plan.own(VarId::new(0), 0).own(VarId::new(1), 1);
        plan.add_condition(CondId::new(3), thresh(0)).unwrap();
        let err = plan.add_condition(CondId::new(3), thresh(1)).unwrap_err();
        assert_eq!(err, TreeError::DuplicateCondition { cond: CondId::new(3) });
        assert_eq!(plan.conditions(), 1);
    }
}
