//! Compiled, evaluable condition expressions.

use std::sync::Arc;

use super::analysis::{analyze, ExprInfo};
use super::ast::{AggOp, BinOp, Expr, Field, UnOp};
use super::parser::parse_with;
use crate::condition::{Condition, Triggering};
use crate::error::Result;
use crate::history::{History, HistorySet};
use crate::var::{VarId, VarRegistry};

/// A type-checked, name-resolved condition expression: the one
/// [`Condition`] a Condition Evaluator runs.
///
/// Built from text by [`CompiledCondition::compile`], from a resolved
/// syntax tree by [`CompiledCondition::from_expr`], or by the
/// constructors in [`cond`](crate::condition::cond); `&`, `|` and `!`
/// combine conditions into new ones. Its variable set, degrees and
/// triggering class are derived from the expression.
///
/// A condition is a handle: its name, tree and degrees sit behind one
/// reference count, so a clone allocates nothing and copies nothing.
///
/// ```rust
/// use rcm_core::condition::expr::CompiledCondition;
/// use rcm_core::condition::ConditionExt;
/// use rcm_core::{transduce, CeId, Update, VarRegistry};
///
/// let mut reg = VarRegistry::new();
/// let cond = CompiledCondition::compile("temp[0].value > 3000", &mut reg)?;
/// assert!(cond.is_non_historical());
///
/// let temp = reg.lookup("temp").unwrap();
/// let updates = [Update::new(temp, 1, 2900.0), Update::new(temp, 2, 3100.0)];
/// assert_eq!(transduce(&cond, CeId::new(0), &updates).len(), 1);
/// # Ok::<(), rcm_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct CompiledCondition(Arc<Compiled>);

/// What a [`CompiledCondition`] shares among its clones.
#[derive(Debug, Clone)]
struct Compiled {
    name: String,
    ast: Expr<VarId>,
    /// `(variable, degree)`, ascending by variable.
    degrees: Vec<(VarId, usize)>,
    triggering: Triggering,
}

impl CompiledCondition {
    /// Parses, type-checks and resolves `source`, which is also the
    /// condition's name, in one pass over the text. Variable names are
    /// registered in `registry` (reusing existing ids for known names)
    /// once the condition has passed every check.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Parse`](crate::Error::Parse) on lexical,
    /// syntactic or type errors, and on conditions that mention no
    /// variables; no name is registered then.
    pub fn compile(source: &str, registry: &mut VarRegistry) -> Result<Self> {
        // A name the registry does not know yet reads as the id it will
        // get: the registry's next, in order of first appearance.
        let mut fresh: Vec<&str> = Vec::new();
        let known = &*registry;
        let ast = parse_with(source, |name| {
            if let Some(id) = known.lookup(name) {
                return id;
            }
            let k = fresh.iter().position(|&f| f == name).unwrap_or_else(|| {
                fresh.push(name);
                fresh.len() - 1
            });
            VarId::new((known.len() + k) as u32)
        })?;
        let info = analyze(&ast)?;
        for name in fresh {
            registry.register(name);
        }
        Ok(Self::new(source.to_owned(), ast, info))
    }

    /// Type-checks a resolved syntax tree and derives its variable set,
    /// degrees and triggering class; `name` is what alerts and reports
    /// print for it.
    ///
    /// # Errors
    ///
    /// As [`CompiledCondition::compile`], for a tree that is not
    /// boolean, mixes types or mentions no variable.
    pub fn from_expr(name: impl Into<String>, ast: Expr<VarId>) -> Result<Self> {
        let info = analyze(&ast)?;
        Ok(Self::new(name.into(), ast, info))
    }

    fn new(name: String, ast: Expr<VarId>, info: ExprInfo<VarId>) -> Self {
        let ExprInfo { degrees, triggering } = info;
        CompiledCondition(Arc::new(Compiled { name, ast, degrees, triggering }))
    }

    /// [`CompiledCondition::from_expr`] for a tree built of conditions
    /// and well-typed parts, which cannot fail.
    pub(crate) fn built(name: String, ast: Expr<VarId>) -> Self {
        match Self::from_expr(name, ast) {
            Ok(cond) => cond,
            Err(e) => unreachable!("a condition built from conditions type-checks: {e}"),
        }
    }

    /// The name and the expression, for building a condition of it;
    /// copied only if another handle shares them.
    pub(crate) fn into_parts(self) -> (String, Expr<VarId>) {
        let Compiled { name, ast, .. } = Arc::unwrap_or_clone(self.0);
        (name, ast)
    }
}

/// Runtime value during evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Val {
    Num(f64),
    Bool(bool),
}

impl Val {
    pub(crate) fn num(self) -> Option<f64> {
        match self {
            Val::Num(n) => Some(n),
            Val::Bool(_) => None,
        }
    }

    pub(crate) fn boolean(self) -> Option<bool> {
        match self {
            Val::Bool(b) => Some(b),
            Val::Num(_) => None,
        }
    }
}

/// Folds the `window` newest values of `h`, newest first; `None` until
/// the history holds that many.
pub(crate) fn aggregate(op: AggOp, h: &History, window: usize) -> Option<f64> {
    if h.len() < window {
        return None;
    }
    let values = h.updates().take(window).map(|u| u.value);
    Some(match op {
        AggOp::Min => values.fold(f64::INFINITY, f64::min),
        AggOp::Max => values.fold(f64::NEG_INFINITY, f64::max),
        AggOp::Sum => values.sum(),
        AggOp::Avg => values.sum::<f64>() / window as f64,
    })
}

/// Applies a unary operator; `None` on an operand of the wrong type.
pub(crate) fn unary(op: UnOp, v: Val) -> Option<Val> {
    match op {
        UnOp::Neg => Some(Val::Num(-v.num()?)),
        UnOp::Not => Some(Val::Bool(!v.boolean()?)),
    }
}

/// Applies an arithmetic or comparison operator to numeric operands.
/// The logical operators short-circuit, so each walk handles them
/// itself.
pub(crate) fn binary(op: BinOp, l: f64, r: f64) -> Val {
    match op {
        BinOp::Add => Val::Num(l + r),
        BinOp::Sub => Val::Num(l - r),
        BinOp::Mul => Val::Num(l * r),
        BinOp::Div => Val::Num(l / r),
        BinOp::Lt => Val::Bool(l < r),
        BinOp::Le => Val::Bool(l <= r),
        BinOp::Gt => Val::Bool(l > r),
        BinOp::Ge => Val::Bool(l >= r),
        BinOp::Eq => Val::Bool(l == r),
        BinOp::Ne => Val::Bool(l != r),
        BinOp::And | BinOp::Or => unreachable!("logical operators short-circuit in the caller"),
    }
}

/// Evaluates an expression; `None` when a history entry is missing
/// (undefined history) — the evaluator treats that as "condition not
/// satisfied".
pub(crate) fn eval_expr(e: &Expr<VarId>, h: &HistorySet) -> Option<Val> {
    match e {
        Expr::Num(n) => Some(Val::Num(*n)),
        Expr::Bool(b) => Some(Val::Bool(*b)),
        Expr::Term { var, index, field } => {
            let i = index.unsigned_abs() as usize;
            let v = match field {
                Field::Value => h.value(*var, i)?,
                Field::Seqno => h.seqno(*var, i)?.get() as f64,
            };
            Some(Val::Num(v))
        }
        Expr::Consecutive(var) => Some(Val::Bool(h.history(*var)?.is_consecutive())),
        Expr::Agg { op, var, window } => {
            aggregate(*op, h.history(*var)?, *window as usize).map(Val::Num)
        }
        Expr::Unary { op, expr } => unary(*op, eval_expr(expr, h)?),
        Expr::Binary { op, lhs, rhs } => {
            if op.is_logical() {
                // Short-circuit like the host language would.
                let l = eval_expr(lhs, h)?.boolean()?;
                return match (op, l) {
                    (BinOp::And, false) => Some(Val::Bool(false)),
                    (BinOp::Or, true) => Some(Val::Bool(true)),
                    _ => Some(Val::Bool(eval_expr(rhs, h)?.boolean()?)),
                };
            }
            let l = eval_expr(lhs, h)?.num()?;
            let r = eval_expr(rhs, h)?.num()?;
            Some(binary(*op, l, r))
        }
        Expr::Abs(e) => Some(Val::Num(eval_expr(e, h)?.num()?.abs())),
        Expr::Min(a, b) => Some(Val::Num(eval_expr(a, h)?.num()?.min(eval_expr(b, h)?.num()?))),
        Expr::Max(a, b) => Some(Val::Num(eval_expr(a, h)?.num()?.max(eval_expr(b, h)?.num()?))),
    }
}

impl Condition for CompiledCondition {
    fn name(&self) -> String {
        self.0.name.clone()
    }

    fn variables(&self) -> Vec<VarId> {
        self.0.degrees.iter().map(|&(var, _)| var).collect()
    }

    fn degree(&self, var: VarId) -> usize {
        let degrees = &self.0.degrees;
        degrees.binary_search_by_key(&var, |&(v, _)| v).map_or(0, |at| degrees[at].1)
    }

    fn triggering(&self) -> Triggering {
        self.0.triggering
    }

    fn eval(&self, h: &HistorySet) -> bool {
        eval_expr(&self.0.ast, h).and_then(Val::boolean).unwrap_or(false)
    }

    fn expr(&self) -> &Expr<VarId> {
        &self.0.ast
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::ConditionExt;
    use crate::update::Update;

    fn setup(src: &str) -> (CompiledCondition, VarRegistry) {
        let mut reg = VarRegistry::new();
        let c = CompiledCondition::compile(src, &mut reg).unwrap();
        (c, reg)
    }

    fn feed(c: &CompiledCondition, reg: &VarRegistry, updates: &[(&str, u64, f64)]) -> bool {
        let mut h = HistorySet::new(c.history_spec());
        for &(name, s, v) in updates {
            h.push(Update::new(reg.lookup(name).unwrap(), s, v)).unwrap();
        }
        c.eval(&h)
    }

    #[test]
    fn c1_evaluates() {
        let (c, reg) = setup("x[0].value > 3000");
        assert!(!feed(&c, &reg, &[("x", 1, 2900.0)]));
        assert!(feed(&c, &reg, &[("x", 1, 2900.0), ("x", 2, 3100.0)]));
    }

    #[test]
    fn c2_vs_c3_on_gap() {
        let (c2, reg2) = setup("x[0].value - x[-1].value > 200");
        let (c3, reg3) = setup("x[0].value - x[-1].value > 200 && consecutive(x)");
        let gap = [("x", 1u64, 400.0), ("x", 3u64, 720.0)];
        assert!(feed(&c2, &reg2, &gap));
        assert!(!feed(&c3, &reg3, &gap));
        let adj = [("x", 1u64, 400.0), ("x", 2u64, 700.0)];
        assert!(feed(&c2, &reg2, &adj));
        assert!(feed(&c3, &reg3, &adj));
    }

    #[test]
    fn seqno_arithmetic_mirrors_consecutive() {
        let (c, reg) = setup("x[0].seqno == x[-1].seqno + 1 && x[0].value > 0");
        assert!(feed(&c, &reg, &[("x", 4, 1.0), ("x", 5, 1.0)]));
        assert!(!feed(&c, &reg, &[("x", 4, 1.0), ("x", 6, 1.0)]));
    }

    #[test]
    fn multi_var_cm() {
        let (c, reg) = setup("abs(x[0].value - y[0].value) > 100");
        assert!(feed(&c, &reg, &[("x", 1, 1200.0), ("y", 1, 1050.0)]));
        assert!(!feed(&c, &reg, &[("x", 1, 1100.0), ("y", 1, 1050.0)]));
    }

    #[test]
    fn undefined_history_evaluates_false() {
        let (c, reg) = setup("x[0].value - x[-1].value > 0");
        assert!(!feed(&c, &reg, &[("x", 1, 10.0)])); // only one update held
        assert!(!feed(&c, &reg, &[])); // empty
    }

    #[test]
    fn short_circuit_protects_missing_entries() {
        // `false && <undefined term>` must evaluate to false, not None.
        let (c, reg) = setup("x[0].value > 1e300 && x[-1].value > 0");
        let mut h = HistorySet::new(c.history_spec());
        h.push(Update::new(reg.lookup("x").unwrap(), 1, 5.0)).unwrap();
        assert!(!c.eval(&h));
    }

    #[test]
    fn min_max_and_division() {
        let (c, reg) = setup("min(x[0].value, y[0].value) / max(x[0].value, y[0].value) < 0.5");
        assert!(feed(&c, &reg, &[("x", 1, 1.0), ("y", 1, 10.0)]));
        assert!(!feed(&c, &reg, &[("x", 1, 6.0), ("y", 1, 10.0)]));
    }

    #[test]
    fn window_aggregates_evaluate() {
        // Bounded high-watermark: the current reading is the maximum of
        // the last four (max_over includes H[0]) and a strict rise.
        let (c, reg) = setup("x[0].value >= max_over(x, 4) && x[0].value > x[-1].value");
        assert!(!feed(&c, &reg, &[("x", 1, 5.0), ("x", 2, 9.0), ("x", 3, 7.0)])); // degree 4: undefined
        assert!(feed(&c, &reg, &[("x", 1, 5.0), ("x", 2, 9.0), ("x", 3, 7.0), ("x", 4, 12.0)]));
        // New reading below an older max: no alert.
        assert!(!feed(&c, &reg, &[("x", 1, 5.0), ("x", 2, 9.0), ("x", 3, 7.0), ("x", 4, 8.0)]));

        let (avg, reg) = setup("avg_over(x, 2) >= 10");
        assert!(feed(&avg, &reg, &[("x", 1, 8.0), ("x", 2, 12.0)]));
        assert!(!feed(&avg, &reg, &[("x", 1, 8.0), ("x", 2, 11.0)]));

        let (sum, reg) = setup("sum_over(x, 3) == 6");
        assert!(feed(&sum, &reg, &[("x", 1, 1.0), ("x", 2, 2.0), ("x", 3, 3.0)]));

        let (min, reg) = setup("min_over(x, 2) < 0");
        assert!(feed(&min, &reg, &[("x", 1, -1.0), ("x", 2, 5.0)]));
        assert!(!feed(&min, &reg, &[("x", 1, 1.0), ("x", 2, 5.0)]));
    }

    #[test]
    fn registry_shared_across_conditions() {
        let mut reg = VarRegistry::new();
        let a = CompiledCondition::compile("x[0].value > 1", &mut reg).unwrap();
        let b = CompiledCondition::compile("x[0].value < 1 && y[0].value > 0", &mut reg).unwrap();
        assert_eq!(a.variables(), vec![reg.lookup("x").unwrap()]);
        assert_eq!(b.variables().len(), 2);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn source_and_ast_accessible() {
        let (c, _) = setup("x[0].value > 3000");
        assert!(matches!(c.expr(), Expr::Binary { op: BinOp::Gt, .. }));
        assert_eq!(c.name(), "x[0].value > 3000");
    }

    #[test]
    fn a_resolved_tree_compiles_and_a_badly_typed_one_does_not() {
        let x = VarId::new(3);
        let term = || Box::new(Expr::Term { var: x, index: -1, field: Field::Value });
        let rise = Expr::Binary { op: BinOp::Gt, lhs: term(), rhs: Box::new(Expr::Num(1.0)) };
        let c = CompiledCondition::from_expr("rise", rise).unwrap();
        assert_eq!((c.name(), c.history_spec()), ("rise".to_owned(), vec![(x, 2)]));
        assert!(CompiledCondition::from_expr(
            "sum",
            Expr::Binary { op: BinOp::Add, lhs: term(), rhs: term() }
        )
        .is_err());
        assert!(CompiledCondition::from_expr("lit", Expr::Bool(true)).is_err());
    }

    #[test]
    fn degree_zero_for_unknown_vars() {
        let (c, _) = setup("x[0].value > 0");
        assert_eq!(c.degree(VarId::new(99)), 0);
    }

    #[test]
    fn compile_errors_surface() {
        let mut reg = VarRegistry::new();
        assert!(CompiledCondition::compile("x[0].value +", &mut reg).is_err());
        assert!(CompiledCondition::compile("true", &mut reg).is_err());
        assert!(CompiledCondition::compile("x[1].value > 0", &mut reg).is_err());
    }
}
