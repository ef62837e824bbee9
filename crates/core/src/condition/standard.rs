//! Ready-made conditions, including every concrete condition used in
//! the paper's examples, each built as an expression (see
//! [`cond`](super::cond)).

use super::expr::{BinOp, CompiledCondition, Expr, Field};
use crate::var::VarId;

/// Comparison operator for [`threshold`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cmp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
}

impl Cmp {
    fn op(self) -> BinOp {
        match self {
            Cmp::Lt => BinOp::Lt,
            Cmp::Le => BinOp::Le,
            Cmp::Gt => BinOp::Gt,
            Cmp::Ge => BinOp::Ge,
            Cmp::Eq => BinOp::Eq,
            Cmp::Ne => BinOp::Ne,
        }
    }
}

/// `var[-back].value`.
fn value(var: VarId, back: i64) -> Expr<VarId> {
    Expr::Term { var, index: -back, field: Field::Value }
}

fn bin(op: BinOp, lhs: Expr<VarId>, rhs: Expr<VarId>) -> Expr<VarId> {
    Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
}

/// The paper's `c1` family: "current value compares against a limit",
/// `var[0].value <cmp> limit`, e.g. *reactor temperature is over 3000
/// degrees*. Non-historical.
///
/// ```rust
/// use rcm_core::condition::{cond, Cmp, Condition};
/// use rcm_core::{HistorySet, Update, VarId};
/// let x = VarId::new(0);
/// let c1 = cond::threshold(x, Cmp::Gt, 3000.0);
/// let mut h = HistorySet::new([(x, 1)]);
/// h.push(Update::new(x, 1, 2900.0))?;
/// assert!(!c1.eval(&h));
/// h.push(Update::new(x, 2, 3100.0))?;
/// assert!(c1.eval(&h));
/// # Ok::<(), rcm_core::Error>(())
/// ```
pub fn threshold(var: VarId, cmp: Cmp, limit: f64) -> CompiledCondition {
    let name = format!("{var}[0].value {} {limit}", cmp.op().symbol());
    CompiledCondition::built(name, bin(cmp.op(), value(var, 0), Expr::Num(limit)))
}

/// The paper's `c2`: *value has risen by more than `delta` since the
/// last reading **received***, `var[0].value - var[-1].value > delta`.
///
/// Historical of degree 2 and **aggressively** triggered: after a lost
/// update it compares against an older value. [`conservative`] of it is
/// the paper's `c3` (rise since the last reading *taken at the DM*).
///
/// [`conservative`]: super::cond::conservative
pub fn delta_rise(var: VarId, delta: f64) -> CompiledCondition {
    let name = format!("{var}[0].value - {var}[-1].value > {delta}");
    let rise = bin(BinOp::Sub, value(var, 0), value(var, 1));
    CompiledCondition::built(name, bin(BinOp::Gt, rise, Expr::Num(delta)))
}

/// The paper's `cm` (§5, Theorem 10): *the absolute difference between
/// two variables exceeds a limit*, `|x[0].value - y[0].value| > limit`.
/// Non-historical in both variables.
///
/// # Panics
///
/// Panics if `x == y`; a one-variable difference is always zero.
pub fn abs_difference(x: VarId, y: VarId, limit: f64) -> CompiledCondition {
    assert!(x != y, "abs_difference requires two distinct variables");
    let name = format!("|{x}[0].value - {y}[0].value| > {limit}");
    let gap = Expr::Abs(Box::new(bin(BinOp::Sub, value(x, 0), value(y, 0))));
    CompiledCondition::built(name, bin(BinOp::Gt, gap, Expr::Num(limit)))
}

/// *Value is outside the closed band `[lo, hi]`*, a two-sided
/// threshold: `var[0].value < lo || var[0].value > hi`.
///
/// # Panics
///
/// Panics unless `lo <= hi`.
pub fn outside_band(var: VarId, lo: f64, hi: f64) -> CompiledCondition {
    assert!(lo <= hi, "band bounds must satisfy lo <= hi");
    let name = format!("{var}[0].value outside [{lo}, {hi}]");
    let below = bin(BinOp::Lt, value(var, 0), Expr::Num(lo));
    let above = bin(BinOp::Gt, value(var, 0), Expr::Num(hi));
    CompiledCondition::built(name, bin(BinOp::Or, below, above))
}

/// *Value crossed a level from below between the previous and current
/// reading received*: `var[-1].value < level && var[0].value >= level`.
/// Historical of degree 2, aggressively triggered.
pub fn crosses_level(var: VarId, level: f64) -> CompiledCondition {
    let name = format!("{var} crosses {level} upward");
    let was_below = bin(BinOp::Lt, value(var, 1), Expr::Num(level));
    let is_at = bin(BinOp::Ge, value(var, 0), Expr::Num(level));
    CompiledCondition::built(name, bin(BinOp::And, was_below, is_at))
}

/// The introduction's stock example: *sharp price drop*, a relative drop
/// of more than `fraction` (0.2 = twenty percent) between two quotes
/// received in a row, from a positive quote.
///
/// Historical of degree 2, aggressively triggered: exactly the
/// behaviour behind the paper's §1 "two drops instead of one" confusion
/// when replicas miss different quotes.
///
/// # Panics
///
/// Panics unless `0 < fraction < 1`.
pub fn sharp_drop(var: VarId, fraction: f64) -> CompiledCondition {
    assert!(fraction > 0.0 && fraction < 1.0, "drop fraction must be strictly between 0 and 1");
    let name = format!("{var} drops more than {}%", fraction * 100.0);
    let positive = bin(BinOp::Gt, value(var, 1), Expr::Num(0.0));
    let drop = bin(BinOp::Sub, value(var, 1), value(var, 0));
    let relative = bin(BinOp::Gt, bin(BinOp::Div, drop, value(var, 1)), Expr::Num(fraction));
    CompiledCondition::built(name, bin(BinOp::And, positive, relative))
}

/// *Value has stayed above a level for the last `window` readings
/// received*: the debounced alarm (a single noisy reading does not page
/// anyone). Historical of degree `window` and aggressively triggered
/// for a window above 1; [`conservative`] of it demands `window`
/// *consecutive* readings instead.
///
/// [`conservative`]: super::cond::conservative
///
/// # Panics
///
/// Panics if `window` is zero.
pub fn sustained_above(var: VarId, level: f64, window: usize) -> CompiledCondition {
    assert!(window >= 1, "window must be at least 1");
    let name = format!("{var} above {level} for {window} readings");
    let above = |back: usize| bin(BinOp::Gt, value(var, back as i64), Expr::Num(level));
    let all = (1..window).fold(above(0), |all, back| bin(BinOp::And, all, above(back)));
    CompiledCondition::built(name, all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::{Condition, ConditionExt, Triggering};
    use crate::history::HistorySet;
    use crate::update::Update;

    fn x() -> VarId {
        VarId::new(0)
    }
    fn y() -> VarId {
        VarId::new(1)
    }

    fn hist(degree: usize, vals: &[(u64, f64)]) -> HistorySet {
        let mut h = HistorySet::new([(x(), degree)]);
        for &(s, v) in vals {
            h.push(Update::new(x(), s, v)).unwrap();
        }
        h
    }

    fn hist1(vals: &[(u64, f64)]) -> HistorySet {
        hist(1, vals)
    }

    fn hist2(vals: &[(u64, f64)]) -> HistorySet {
        hist(2, vals)
    }

    #[test]
    fn cmp_all_operators() {
        let at = |cmp, v| threshold(x(), cmp, 2.0).eval(&hist1(&[(1, v)]));
        assert!(at(Cmp::Lt, 1.0) && !at(Cmp::Lt, 2.0));
        assert!(at(Cmp::Le, 2.0) && !at(Cmp::Le, 3.0));
        assert!(at(Cmp::Gt, 3.0) && !at(Cmp::Gt, 2.0));
        assert!(at(Cmp::Ge, 2.0) && !at(Cmp::Ge, 1.0));
        assert!(at(Cmp::Eq, 2.0) && !at(Cmp::Eq, 1.0));
        assert!(at(Cmp::Ne, 1.0) && !at(Cmp::Ne, 2.0));
    }

    #[test]
    fn threshold_matches_c1() {
        let c1 = threshold(x(), Cmp::Gt, 3000.0);
        assert!(!c1.eval(&hist1(&[(1, 2900.0)])));
        assert!(c1.eval(&hist1(&[(1, 2900.0), (2, 3100.0)])));
        assert_eq!(c1.degree(x()), 1);
        assert_eq!(c1.degree(y()), 0);
        assert_eq!(c1.triggering(), Triggering::Conservative);
    }

    #[test]
    fn delta_rise_matches_c2() {
        // c2 from the proof of Theorem 4: U = ⟨1(400), 2(700), 3(720)⟩.
        let c2 = delta_rise(x(), 200.0);
        // CE1 sees 1,2: 700-400 = 300 > 200 → alert.
        assert!(c2.eval(&hist2(&[(1, 400.0), (2, 700.0)])));
        // CE1 then 2,3: 720-700 = 20 → no alert.
        assert!(!c2.eval(&hist2(&[(1, 400.0), (2, 700.0), (3, 720.0)])));
        // CE2 sees 1,3 (missed 2): 720-400 = 320 > 200 → aggressive alert.
        assert!(c2.eval(&hist2(&[(1, 400.0), (3, 720.0)])));
        assert_eq!(c2.triggering(), Triggering::Aggressive);
        assert_eq!(c2.history_spec(), vec![(x(), 2)]);
    }

    #[test]
    fn delta_rise_undefined_history_is_false() {
        let c2 = delta_rise(x(), 200.0);
        assert!(!c2.eval(&hist2(&[(1, 1000.0)])));
    }

    #[test]
    fn abs_difference_matches_cm() {
        // Theorem 10: |x - y| > 100 over 1x(1000), 2x(1200), 1y(1050), 2y(1150).
        let cm = abs_difference(x(), y(), 100.0);
        let mut h = HistorySet::new([(x(), 1), (y(), 1)]);
        h.push(Update::new(x(), 1, 1000.0)).unwrap();
        h.push(Update::new(y(), 1, 1050.0)).unwrap();
        assert!(!cm.eval(&h)); // |1000-1050| = 50
        h.push(Update::new(x(), 2, 1200.0)).unwrap();
        assert!(cm.eval(&h)); // |1200-1050| = 150
        h.push(Update::new(y(), 2, 1150.0)).unwrap();
        assert!(!cm.eval(&h)); // |1200-1150| = 50
        assert_eq!(cm.variables(), vec![x(), y()]);
        assert_eq!(abs_difference(y(), x(), 100.0).variables(), vec![x(), y()]);
    }

    #[test]
    #[should_panic(expected = "distinct variables")]
    fn abs_difference_rejects_same_var() {
        abs_difference(x(), x(), 1.0);
    }

    #[test]
    fn band_outside() {
        let b = outside_band(x(), 10.0, 20.0);
        assert!(b.eval(&hist1(&[(1, 9.0)])));
        assert!(!b.eval(&hist1(&[(1, 10.0)])));
        assert!(!b.eval(&hist1(&[(1, 15.0)])));
        assert!(!b.eval(&hist1(&[(1, 20.0)])));
        assert!(b.eval(&hist1(&[(1, 21.0)])));
    }

    #[test]
    #[should_panic(expected = "lo <= hi")]
    fn band_rejects_inverted_bounds() {
        outside_band(x(), 5.0, 1.0);
    }

    #[test]
    fn crosses_level_only_on_upward_crossing() {
        let c = crosses_level(x(), 100.0);
        assert!(c.eval(&hist2(&[(1, 90.0), (2, 105.0)])));
        assert!(!c.eval(&hist2(&[(1, 105.0), (2, 110.0)]))); // already above
        assert!(!c.eval(&hist2(&[(1, 105.0), (2, 90.0)]))); // downward
        assert!(c.eval(&hist2(&[(1, 90.0), (2, 100.0)]))); // lands exactly on level
        assert_eq!(c.triggering(), Triggering::Aggressive);
    }

    #[test]
    fn sharp_drop_matches_intro_example() {
        // §1: quotes 100, 50 → >20% drop alert at CE1; CE2 misses the 50
        // and alerts on 100 → 52 instead.
        let c = sharp_drop(x(), 0.2);
        assert!(c.eval(&hist2(&[(1, 100.0), (2, 50.0)])));
        assert!(!c.eval(&hist2(&[(1, 100.0), (2, 50.0), (3, 52.0)]))); // 50→52 rises
        assert!(c.eval(&hist2(&[(1, 100.0), (3, 52.0)]))); // aggressive: 100→52
        assert!(!c.eval(&hist2(&[(1, -100.0), (2, -150.0)]))); // from a non-positive quote
    }

    #[test]
    #[should_panic(expected = "between 0 and 1")]
    fn sharp_drop_rejects_bad_fraction() {
        sharp_drop(x(), 1.5);
    }

    #[test]
    fn sustained_above_debounces() {
        let c = sustained_above(x(), 100.0, 3);
        let mut h = HistorySet::new([(x(), 3)]);
        h.push(Update::new(x(), 1, 150.0)).unwrap();
        h.push(Update::new(x(), 2, 90.0)).unwrap(); // dip
        h.push(Update::new(x(), 3, 160.0)).unwrap();
        assert!(!c.eval(&h)); // the dip is still in the window
        h.push(Update::new(x(), 4, 170.0)).unwrap();
        h.push(Update::new(x(), 5, 180.0)).unwrap();
        assert!(c.eval(&h)); // 160, 170, 180 all above
        assert_eq!(c.degree(x()), 3);
        assert_eq!(c.triggering(), Triggering::Aggressive);
    }

    #[test]
    fn sustained_above_window_one_is_threshold() {
        let c = sustained_above(x(), 10.0, 1);
        assert!(c.eval(&hist1(&[(1, 11.0)])));
        assert!(!c.eval(&hist1(&[(1, 9.0)])));
        assert_eq!(c.triggering(), Triggering::Conservative);
    }

    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn sustained_above_rejects_zero_window() {
        sustained_above(x(), 1.0, 0);
    }

    #[test]
    fn names_are_descriptive() {
        let names = [
            threshold(x(), Cmp::Gt, 3000.0).name(),
            delta_rise(x(), 200.0).name(),
            abs_difference(x(), y(), 100.0).name(),
            outside_band(x(), 80.0, 120.0).name(),
            crosses_level(x(), 100.0).name(),
            sharp_drop(x(), 0.2).name(),
            sustained_above(x(), 100.0, 3).name(),
        ];
        assert_eq!(
            names,
            [
                "v0[0].value > 3000",
                "v0[0].value - v0[-1].value > 200",
                "|v0[0].value - v1[0].value| > 100",
                "v0[0].value outside [80, 120]",
                "v0 crosses 100 upward",
                "v0 drops more than 20%",
                "v0 above 100 for 3 readings",
            ]
        );
    }
}
