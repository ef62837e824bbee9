//! The conservative variant of a condition (see
//! [`cond::conservative`](super::cond::conservative)).

use super::expr::{BinOp, CompiledCondition, Expr};
use super::Condition;

/// The conservative variant of `inner` (paper §2): `inner` and
/// `consecutive(v)` for every `v` of its variable set, so it is false
/// whenever an update in a history it reads was lost. The paper's `c3`
/// ("temperature has risen more than 200 degrees since the last reading
/// *taken at the DM*") is `conservative(delta_rise(x, 200.0))`.
///
/// ```rust
/// use rcm_core::condition::{cond, Condition, Triggering};
/// use rcm_core::{HistorySet, Update, VarId};
/// let x = VarId::new(0);
/// let c3 = cond::conservative(cond::delta_rise(x, 200.0));
/// assert_eq!(c3.triggering(), Triggering::Conservative);
///
/// let mut h = HistorySet::new([(x, 2)]);
/// h.push(Update::new(x, 1, 400.0))?;
/// h.push(Update::new(x, 3, 720.0))?; // update 2 lost
/// assert!(!c3.eval(&h)); // c2 would fire here; c3 detects the gap
/// # Ok::<(), rcm_core::Error>(())
/// ```
pub fn conservative(inner: CompiledCondition) -> CompiledCondition {
    let name = format!("conservative({})", inner.name());
    let mut guards = inner.variables().into_iter().map(Expr::Consecutive);
    let first = guards.next().expect("a condition mentions a variable");
    let and = |lhs, rhs| Expr::Binary { op: BinOp::And, lhs: Box::new(lhs), rhs: Box::new(rhs) };
    let guard = guards.fold(first, and);
    CompiledCondition::built(name, and(inner.expr().clone(), guard))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::cond::{delta_rise, threshold, Cmp};
    use crate::condition::Triggering;
    use crate::history::HistorySet;
    use crate::update::Update;
    use crate::var::VarId;

    fn x() -> VarId {
        VarId::new(0)
    }

    #[test]
    fn c3_requires_consecutive_seqnos() {
        let c3 = conservative(delta_rise(x(), 200.0));
        let mut h = HistorySet::new([(x(), 2)]);
        h.push(Update::new(x(), 1, 1000.0)).unwrap();
        h.push(Update::new(x(), 2, 1500.0)).unwrap();
        assert!(c3.eval(&h)); // consecutive, rise of 500
        let mut h2 = HistorySet::new([(x(), 2)]);
        h2.push(Update::new(x(), 1, 1000.0)).unwrap();
        h2.push(Update::new(x(), 3, 1500.0)).unwrap();
        assert!(!c3.eval(&h2)); // same rise but gap at 2
        assert_eq!(c3.triggering(), Triggering::Conservative);
    }

    #[test]
    fn wrapping_non_historical_is_harmless() {
        // A degree-1 history is always consecutive, so wrapping a
        // threshold changes nothing but the name.
        let c = conservative(threshold(x(), Cmp::Gt, 10.0));
        let mut h = HistorySet::new([(x(), 1)]);
        h.push(Update::new(x(), 5, 11.0)).unwrap();
        assert!(c.eval(&h));
        assert_eq!(c.degree(x()), 1);
    }

    #[test]
    fn accessors_and_name() {
        let c = conservative(delta_rise(x(), 12.0));
        assert_eq!(c.name(), "conservative(v0[0].value - v0[-1].value > 12)");
        // The inner expression, and then the guard.
        let Expr::Binary { op: BinOp::And, lhs, rhs } = c.expr() else { panic!("{:?}", c.expr()) };
        assert_eq!(&**lhs, delta_rise(x(), 12.0).expr());
        assert_eq!(**rhs, Expr::Consecutive(x()));
    }

    #[test]
    fn conservative_guards_every_variable() {
        let y = VarId::new(1);
        let c = conservative(delta_rise(x(), 1.0) | delta_rise(y, 1.0));
        assert_eq!(c.triggering(), Triggering::Conservative);
        let mut h = HistorySet::new([(x(), 2), (y, 2)]);
        for (var, seqno, value) in [(x(), 1, 0.0), (x(), 2, 5.0), (y, 1, 0.0), (y, 3, 0.0)] {
            h.push(Update::new(var, seqno, value)).unwrap();
        }
        assert!(!c.eval(&h)); // x rose, but y lost update 2
    }
}
