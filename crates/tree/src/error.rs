//! Tree-construction errors.

use std::fmt;

use rcm_core::{CondId, VarId};

/// Why a [`TreePlan`](crate::TreePlan) rejected a condition or a
/// build step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TreeError {
    /// A condition mentions a variable no leaf owns.
    UnownedVariable {
        /// The rejected condition.
        cond: CondId,
        /// The variable missing from the ownership map.
        var: VarId,
    },
    /// A condition's variables span two leaves. Conditions must be
    /// co-located with the single leaf owning all their variables —
    /// that co-location is what makes the tree byte-identical to a
    /// flat CE (no cross-leaf alert merge exists).
    ConditionStraddlesLeaves {
        /// The rejected condition.
        cond: CondId,
        /// One owning leaf.
        a: usize,
        /// The other owning leaf.
        b: usize,
    },
    /// A condition has an empty variable set, so no leaf can own it.
    ConditionHasNoVariables {
        /// The rejected condition.
        cond: CondId,
    },
    /// The condition id is already assigned.
    DuplicateCondition {
        /// The clashing id.
        cond: CondId,
    },
}

impl fmt::Display for TreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TreeError::UnownedVariable { cond, var } => {
                write!(f, "condition {cond} mentions {var}, which no leaf owns")
            }
            TreeError::ConditionStraddlesLeaves { cond, a, b } => {
                write!(f, "condition {cond} straddles leaves {a} and {b}")
            }
            TreeError::ConditionHasNoVariables { cond } => {
                write!(f, "condition {cond} has no variables to assign a leaf by")
            }
            TreeError::DuplicateCondition { cond } => {
                write!(f, "condition id {cond} is already assigned")
            }
        }
    }
}

impl std::error::Error for TreeError {}
