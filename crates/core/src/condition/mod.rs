//! Conditions: boolean expressions over per-variable update histories.
//!
//! A condition `c` is an expression defined on values of real-world
//! variables, evaluated against the set `H` of update histories held by
//! a Condition Evaluator (paper §2). Here every condition is one: a
//! [`CompiledCondition`](expr::CompiledCondition), written as text in
//! the **expression language** of [`expr`], built by the ready-made
//! constructors of [`cond`], or combined from others with `&`, `|`
//! and `!`. The paper's taxonomy is derived from the expression:
//!
//! * the **variable set** `V` and the per-variable **degree** (how many
//!   past updates of each variable the condition reads);
//! * a condition is **non-historical** if it is of degree 1 with respect
//!   to every variable, otherwise **historical**
//!   ([`ConditionExt::is_historical`]);
//! * a historical condition is either **conservative** (always false
//!   when the history's seqnos are not consecutive, i.e. it detects
//!   update loss) or **aggressive** ([`Triggering`]).
//!   [`cond::conservative`] guards a condition with `consecutive(x)`
//!   for each of its variables — e.g. the paper's `c3` is
//!   `conservative(delta_rise(x, 200.0))`, which is also:
//!
//! ```rust
//! use rcm_core::condition::expr::CompiledCondition;
//! use rcm_core::condition::ConditionExt;
//! use rcm_core::VarRegistry;
//!
//! let mut reg = VarRegistry::new();
//! // c3: temperature rose >200 degrees between consecutive readings.
//! let c3 = CompiledCondition::compile(
//!     "x[0].value - x[-1].value > 200 && consecutive(x)", &mut reg)?;
//! assert!(c3.is_historical());
//! # Ok::<(), rcm_core::Error>(())
//! ```
//!
//! A Condition Evaluator evaluates conditions in one place, the shared
//! store of a [`ConditionRegistry`](crate::ConditionRegistry);
//! [`Condition::eval`] over a [`HistorySet`] is the from-scratch
//! reference it is checked against.
//!
//! The paper excludes conditions of infinite degree, conditions needing
//! extra CE state (high watermarks), and conditions mentioning wall-clock
//! time; this framework cannot express them by construction (an
//! expression reads only a bounded window of each history).

mod combinators;
mod conservative;
pub mod expr;
mod standard;

pub use standard::Cmp;

/// Ready-made conditions, including every concrete condition used in
/// the paper's examples, each built as an expression.
///
/// Every constructor returns a [`CompiledCondition`](expr::CompiledCondition)
/// named as the condition prints in reports (`v0[0].value > 3000`,
/// `conservative(v0[0].value - v0[-1].value > 12)`), so a ready-made
/// condition is evaluated, classified and shared exactly like one
/// written as text. Conditions combine with `&`, `|` and `!`.
///
/// ```rust
/// use rcm_core::condition::{cond, Cmp, Condition, Triggering};
/// let x = rcm_core::VarId::new(0);
/// // The paper's Appendix D: two co-located conditions as one.
/// let c = cond::threshold(x, Cmp::Gt, 3000.0) | cond::delta_rise(x, 200.0);
/// assert_eq!(c.name(), "(v0[0].value > 3000) || (v0[0].value - v0[-1].value > 200)");
/// assert_eq!(c.triggering(), Triggering::Aggressive);
/// ```
pub mod cond {
    pub use super::conservative::conservative;
    pub use super::standard::{
        abs_difference, crosses_level, delta_rise, outside_band, sharp_drop, sustained_above,
        threshold, Cmp,
    };
}

use std::fmt;
use std::sync::Arc;

use crate::history::HistorySet;
use crate::var::VarId;
use expr::Expr;

/// How a historical condition treats update loss (paper §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Triggering {
    /// The condition detects lost updates and always evaluates to false
    /// when the seqnos in any history are not consecutive.
    Conservative,
    /// The condition ignores seqno gaps, substituting older received
    /// values for missed updates.
    Aggressive,
}

impl fmt::Display for Triggering {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Triggering::Conservative => write!(f, "conservative"),
            Triggering::Aggressive => write!(f, "aggressive"),
        }
    }
}

/// A boolean condition over update histories: in this crate, a
/// [`CompiledCondition`](expr::CompiledCondition).
///
/// A condition must be a deterministic pure function of the history
/// set: the paper's framework (and all six AD algorithms) relies on two
/// CEs with equal histories producing equal alert decisions.
pub trait Condition: fmt::Debug + Send + Sync {
    /// Human-readable name used in alert displays and reports.
    fn name(&self) -> String;

    /// The condition's variable set `V`, in ascending order, without
    /// duplicates.
    fn variables(&self) -> Vec<VarId>;

    /// The condition's degree with respect to `var`: how many past
    /// `var`-updates evaluation needs. Returns 0 for variables outside
    /// `V`. A condition that uses only `H_x[0]` and `H_x[-2]` is of
    /// degree 3 (paper §2).
    fn degree(&self, var: VarId) -> usize;

    /// Whether the condition is conservatively or aggressively
    /// triggered. Only meaningful for historical conditions;
    /// non-historical conditions are conservative vacuously (a
    /// single-update history has no gaps to detect).
    fn triggering(&self) -> Triggering;

    /// Evaluates the condition from scratch against the given
    /// histories; `false` while one of them holds fewer than `degree`
    /// updates.
    fn eval(&self, h: &HistorySet) -> bool;

    /// The expression this condition is: `eval` equals its value on
    /// every history set. A [`ConditionRegistry`](crate::ConditionRegistry)
    /// evaluates the expressions of all its conditions together,
    /// computing a subexpression several of them share once per update.
    fn expr(&self) -> &Expr<VarId>;
}

/// Extension helpers derived from the [`Condition`] trait.
pub trait ConditionExt: Condition {
    /// `(variable, degree)` pairs: the [`HistorySet`] the condition
    /// reads.
    fn history_spec(&self) -> Vec<(VarId, usize)> {
        self.variables().into_iter().map(|v| (v, self.degree(v))).collect()
    }

    /// Whether the condition is of degree 1 with respect to every
    /// variable (paper: *non-historical*).
    fn is_non_historical(&self) -> bool {
        self.variables().into_iter().all(|v| self.degree(v) == 1)
    }

    /// Whether the condition looks at historical data in addition to
    /// the most recent updates.
    fn is_historical(&self) -> bool {
        !self.is_non_historical()
    }
}

impl<C: Condition + ?Sized> ConditionExt for C {}

/// Type-erased, shareable condition handle: what a
/// [`ConditionRegistry`](crate::ConditionRegistry) and the runtime take.
pub type DynCondition = Arc<dyn Condition>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::Update;

    #[test]
    fn ext_classifies_historicity() {
        let x = VarId::new(0);
        let c1 = cond::threshold(x, Cmp::Gt, 3000.0);
        assert!(c1.is_non_historical());
        assert!(!c1.is_historical());
        let c2 = cond::delta_rise(x, 200.0);
        assert!(c2.is_historical());
        assert_eq!(c2.history_spec(), vec![(x, 2)]);
    }

    #[test]
    fn trait_objects_forward() {
        let x = VarId::new(0);
        let c: DynCondition = Arc::new(cond::threshold(x, Cmp::Gt, 10.0));
        assert_eq!(c.variables(), vec![x]);
        assert_eq!(c.degree(x), 1);
        assert_eq!(c.triggering(), Triggering::Conservative);
        let mut h = HistorySet::new(c.history_spec());
        h.push(Update::new(x, 1, 11.0)).unwrap();
        assert!(c.eval(&h));
        let boxed: Box<dyn Condition> = Box::new(cond::threshold(x, Cmp::Gt, 10.0));
        assert!(boxed.eval(&h));
        let borrowed: &dyn Condition = &*boxed;
        assert!(borrowed.eval(&h));
        assert_eq!(borrowed.expr(), c.expr());
    }

    #[test]
    fn triggering_display() {
        assert_eq!(Triggering::Conservative.to_string(), "conservative");
        assert_eq!(Triggering::Aggressive.to_string(), "aggressive");
    }
}
