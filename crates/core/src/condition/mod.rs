//! Conditions: boolean expressions over per-variable update histories.
//!
//! A condition `c` is an expression defined on values of real-world
//! variables, evaluated against the set `H` of update histories held by
//! a Condition Evaluator (paper §2). The paper's taxonomy is captured
//! here:
//!
//! * the **variable set** `V` and the per-variable **degree** (how many
//!   past updates of each variable the condition reads) come from the
//!   [`Condition`] trait;
//! * a condition is **non-historical** if it is of degree 1 with respect
//!   to every variable, otherwise **historical**
//!   ([`ConditionExt::is_historical`]);
//! * a historical condition is either **conservative** (always false
//!   when the history's seqnos are not consecutive, i.e. it detects
//!   update loss) or **aggressive** ([`Triggering`]). The
//!   [`Conservative`] wrapper turns any condition into its conservative
//!   variant — e.g. the paper's `c3` is `Conservative(c2)`.
//!
//! Ready-made conditions from the paper are re-exported here
//! ([`Threshold`] is `c1`, [`DeltaRise`] is `c2`, [`AbsDifference`] is
//! the two-variable `cm`), boolean combinators in [`combinators`], and a
//! parsed condition **expression language** in [`expr`]:
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
//! The paper excludes conditions of infinite degree, conditions needing
//! extra CE state (high watermarks), and conditions mentioning wall-clock
//! time; this framework cannot express them by construction (a
//! [`Condition`] sees only a bounded [`HistorySet`]).

pub mod combinators;
mod conservative;
pub mod expr;
mod func;
mod standard;

pub use combinators::{And, Not, Or};
pub use conservative::Conservative;
pub use func::FnCondition;
pub use standard::{
    AbsDifference, Band, Cmp, CrossesLevel, DeltaRise, SharpDrop, SustainedAbove, Threshold,
};

use std::fmt;
use std::sync::Arc;

use crate::history::HistorySet;
use crate::var::VarId;
use expr::Expr;

/// How a historical condition treats update loss (paper §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
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

/// A boolean condition over update histories.
///
/// Implementations must be deterministic pure functions of the history
/// set: the paper's framework (and all six AD algorithms) relies on two
/// CEs with equal histories producing equal alert decisions.
///
/// The evaluator guarantees `eval` is called only when every history in
/// the set is defined (holds `degree` updates); implementations should
/// still return `false` rather than panic on unexpectedly short
/// histories.
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

    /// Evaluates the condition against the given histories.
    fn eval(&self, h: &HistorySet) -> bool;

    /// The expression this condition is, if it is exactly one: `eval`
    /// must equal the expression's value on every history set. A
    /// [`ConditionRegistry`](crate::ConditionRegistry) evaluates such
    /// conditions together, computing a subexpression several of them
    /// share once per update, instead of calling `eval` on each.
    /// Wrappers that add to their inner condition's verdict
    /// ([`Conservative`], the combinators) keep the default.
    fn expr(&self) -> Option<&Expr<VarId>> {
        None
    }
}

/// Extension helpers derived from the [`Condition`] trait.
pub trait ConditionExt: Condition {
    /// `(variable, degree)` pairs suitable for building the evaluator's
    /// [`HistorySet`].
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

macro_rules! forward_condition {
    ($($ptr:ty),+) => {$(
        impl<C: Condition + ?Sized> Condition for $ptr {
            fn name(&self) -> String {
                (**self).name()
            }
            fn variables(&self) -> Vec<VarId> {
                (**self).variables()
            }
            fn degree(&self, var: VarId) -> usize {
                (**self).degree(var)
            }
            fn triggering(&self) -> Triggering {
                (**self).triggering()
            }
            fn eval(&self, h: &HistorySet) -> bool {
                (**self).eval(h)
            }
            fn expr(&self) -> Option<&Expr<VarId>> {
                (**self).expr()
            }
        }
    )+};
}

forward_condition!(&C, Box<C>, Arc<C>);

/// Type-erased, shareable condition handle used throughout the
/// simulator and runtime.
pub type DynCondition = Arc<dyn Condition>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::update::Update;

    #[test]
    fn ext_classifies_historicity() {
        let x = VarId::new(0);
        let c1 = Threshold::new(x, Cmp::Gt, 3000.0);
        assert!(c1.is_non_historical());
        assert!(!c1.is_historical());
        let c2 = DeltaRise::new(x, 200.0);
        assert!(c2.is_historical());
        assert_eq!(c2.history_spec(), vec![(x, 2)]);
    }

    #[test]
    fn trait_objects_forward() {
        let x = VarId::new(0);
        let c: DynCondition = Arc::new(Threshold::new(x, Cmp::Gt, 10.0));
        assert_eq!(c.variables(), vec![x]);
        assert_eq!(c.degree(x), 1);
        assert_eq!(c.triggering(), Triggering::Conservative);
        let mut h = HistorySet::new([(x, 1)]);
        h.push(Update::new(x, 1, 11.0)).unwrap();
        assert!(c.eval(&h));
        let boxed: Box<dyn Condition> = Box::new(Threshold::new(x, Cmp::Gt, 10.0));
        assert!(boxed.eval(&h));
        let borrowed: &dyn Condition = &*boxed;
        assert!(borrowed.eval(&h));
    }

    #[test]
    fn triggering_display() {
        assert_eq!(Triggering::Conservative.to_string(), "conservative");
        assert_eq!(Triggering::Aggressive.to_string(), "aggressive");
    }
}
