//! The shared evaluation store behind a
//! [`ConditionRegistry`](crate::ConditionRegistry): one history ring
//! per variable and one hash-consed expression DAG for every hosted
//! condition.
//!
//! The paper's CE keeps one history `H_x` per variable (§2). So does
//! the store: a ring per variable, newest first, as deep as the largest
//! degree any hosted condition asks of that variable. A condition of a
//! smaller degree reads only its own `degree` newest entries — for its
//! definedness, its `consecutive(x)`, its fingerprint and its snapshot
//! — which is exactly what a private history of that degree would
//! hold, because every hosted condition has seen the variable's whole
//! stream since the ring was last empty ([`ExprStore::host`] refuses a
//! condition otherwise).
//!
//! Expressions are interned bottom-up into one node arena: a node's key
//! is its operator plus the arena indices of its children (literals by
//! bit pattern, history reads by ring and depth), so structurally equal
//! subexpressions of any two conditions are one node. `consecutive(x)`
//! carries the owning condition's degree of `x` in its key, the one
//! place where the same source text means different reads.
//!
//! Each node memoises its value. A ring lists the nodes whose subtree
//! reads it; an accepted update marks exactly those dirty, and the next
//! evaluation of a condition's root recomputes only dirty nodes, once
//! each however many conditions share them. Values are recomputed from
//! the ring — an aggregate folds the same operands in the same
//! newest-first order as the reference walk in
//! [`compiled`](super::compiled), never a running sum — so results are
//! bit-identical to it, including short-circuit `&&`/`||` (a decided
//! left operand leaves the right one unevaluated and dirty) and `None`
//! for a read past the held history.

use std::collections::hash_map::{Entry, HashMap};
use std::collections::BTreeMap;

use super::ast::{AggOp, BinOp, Expr, Field, UnOp};
use super::compiled::{aggregate, binary, unary, Val};
use crate::alert::{HistoryFingerprint, SeqBuf};
use crate::history::History;
use crate::update::Update;
use crate::var::VarId;

/// One interned expression node. Children are arena indices and precede
/// their parent. Numeric literals are held as bits, which makes the
/// node its own interning key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    Num(u64),
    Bool(bool),
    Term { ring: usize, depth: usize, field: Field },
    Consecutive { ring: usize, degree: usize },
    Agg { op: AggOp, ring: usize, window: usize },
    Unary { op: UnOp, child: usize },
    Binary { op: BinOp, lhs: usize, rhs: usize },
    Abs(usize),
    Min(usize, usize),
    Max(usize, usize),
}

/// A node's memoised value; `Known(None)` is an evaluated, undefined
/// read, not a missing entry.
#[derive(Debug, Clone, Copy)]
enum Memo {
    Dirty,
    Known(Option<Val>),
}

#[derive(Debug)]
struct Ring {
    history: History,
    /// Nodes whose subtree reads this ring, each listed once.
    readers: Vec<usize>,
}

/// A hosted condition: its root node and, per variable in ascending
/// order, the ring and how many of its newest entries are this
/// condition's history.
#[derive(Debug)]
pub(crate) struct Hosted {
    root: usize,
    spec: Box<[(usize, usize)]>,
}

/// Shared rings and interned expressions; see the module docs.
#[derive(Debug, Default)]
pub(crate) struct ExprStore {
    rings: Vec<Ring>,
    ring_of: BTreeMap<VarId, usize>,
    nodes: Vec<Node>,
    memo: Vec<Memo>,
    interned: HashMap<Node, usize>,
}

/// Whether the `degree` newest entries of `h` have consecutive seqnos.
fn consecutive(h: &History, degree: usize) -> bool {
    h.updates()
        .zip(h.updates().skip(1))
        .take(degree.saturating_sub(1))
        .all(|(newer, older)| older.seqno.precedes(newer.seqno))
}

impl ExprStore {
    /// Interns `expr` for a condition with history spec `spec`
    /// (`(variable, degree)` pairs).
    ///
    /// `None` when the store cannot stand in for a private history set:
    /// one of the variables already holds history the new condition has
    /// not seen, or `expr` reads outside `spec`. Such a condition is
    /// evaluated privately by the registry.
    pub(crate) fn host(&mut self, expr: &Expr<VarId>, spec: &[(VarId, usize)]) -> Option<Hosted> {
        let unusable = |&(var, degree): &(VarId, usize)| {
            degree == 0 || self.ring_of.get(&var).is_some_and(|&r| !self.history(r).is_empty())
        };
        if spec.iter().any(unusable) {
            return None;
        }
        let mut spec: Box<[(usize, usize)]> =
            spec.iter().map(|&(var, degree)| (self.ring_for(var, degree), degree)).collect();
        spec.sort_unstable_by_key(|&(ring, _)| self.history(ring).var());
        let root = self.intern(expr, &spec, &mut Vec::new())?;
        Some(Hosted { root, spec })
    }

    /// The ring for `var`, created or deepened to hold `degree` entries.
    /// Only called while the ring is empty.
    fn ring_for(&mut self, var: VarId, degree: usize) -> usize {
        let next = self.rings.len();
        let ring = *self.ring_of.entry(var).or_insert(next);
        match self.rings.get_mut(ring) {
            None => {
                self.rings.push(Ring { history: History::new(var, degree), readers: Vec::new() })
            }
            Some(r) if r.history.degree() < degree => r.history = History::new(var, degree),
            Some(_) => {}
        }
        ring
    }

    /// Interns `e` bottom-up and returns its node. `spec` is the owning
    /// condition's `(ring, degree)` pairs; `reads` collects the rings
    /// read so far, so that a new node can subscribe to those its own
    /// subtree appended.
    fn intern(
        &mut self,
        e: &Expr<VarId>,
        spec: &[(usize, usize)],
        reads: &mut Vec<usize>,
    ) -> Option<usize> {
        let ring_of = |store: &Self, var: &VarId| {
            spec.iter().copied().find(|&(ring, _)| store.history(ring).var() == *var)
        };
        let mark = reads.len();
        let node = match e {
            Expr::Num(n) => Node::Num(n.to_bits()),
            Expr::Bool(b) => Node::Bool(*b),
            Expr::Term { var, index, field } => {
                let (ring, degree) = ring_of(self, var)?;
                let depth = usize::try_from(index.unsigned_abs()).ok().filter(|&d| d < degree)?;
                reads.push(ring);
                Node::Term { ring, depth, field: *field }
            }
            Expr::Consecutive(var) => {
                let (ring, degree) = ring_of(self, var)?;
                reads.push(ring);
                Node::Consecutive { ring, degree }
            }
            Expr::Agg { op, var, window } => {
                let (ring, degree) = ring_of(self, var)?;
                let window = usize::try_from(*window).ok().filter(|&w| w <= degree)?;
                reads.push(ring);
                Node::Agg { op: *op, ring, window }
            }
            Expr::Unary { op, expr } => {
                Node::Unary { op: *op, child: self.intern(expr, spec, reads)? }
            }
            Expr::Binary { op, lhs, rhs } => Node::Binary {
                op: *op,
                lhs: self.intern(lhs, spec, reads)?,
                rhs: self.intern(rhs, spec, reads)?,
            },
            Expr::Abs(e) => Node::Abs(self.intern(e, spec, reads)?),
            Expr::Min(a, b) => {
                Node::Min(self.intern(a, spec, reads)?, self.intern(b, spec, reads)?)
            }
            Expr::Max(a, b) => {
                Node::Max(self.intern(a, spec, reads)?, self.intern(b, spec, reads)?)
            }
        };
        let id = self.nodes.len();
        match self.interned.entry(node) {
            Entry::Occupied(known) => return Some(*known.get()),
            Entry::Vacant(new) => new.insert(id),
        };
        self.nodes.push(node);
        self.memo.push(Memo::Dirty);
        let read = reads.get(mark..).unwrap_or_default();
        for (i, ring) in read.iter().enumerate() {
            if !read.iter().take(i).any(|earlier| earlier == ring) {
                // analyze: allow(hot-path): `reads` holds ring ids minted by `ring_for`
                self.rings[*ring].readers.push(id);
            }
        }
        Some(id)
    }

    fn history(&self, ring: usize) -> &History {
        // analyze: allow(hot-path): ring ids are minted by `ring_for` and rings are never removed
        &self.rings[ring].history
    }

    /// Incorporates `update` into its variable's ring and marks the
    /// nodes reading it dirty. `false` when the update is stale (its
    /// seqno does not exceed the ring's newest) or no hosted condition
    /// reads the variable.
    pub(crate) fn push(&mut self, update: Update) -> bool {
        let Some(ring) = self.ring_of.get(&update.var).and_then(|&r| self.rings.get_mut(r)) else {
            return false;
        };
        if ring.history.push(update).is_err() {
            return false;
        }
        for &id in &ring.readers {
            // analyze: allow(hot-path): readers are node ids, and `memo` grows with `nodes`
            self.memo[id] = Memo::Dirty;
        }
        true
    }

    /// Whether the condition holds now: every one of its variables holds
    /// `degree` updates and its expression is boolean-true.
    pub(crate) fn satisfied(&mut self, hosted: &Hosted) -> bool {
        hosted.spec.iter().all(|&(ring, degree)| self.history(ring).len() >= degree)
            && self.eval(hosted.root).and_then(Val::boolean).unwrap_or(false)
    }

    fn eval(&mut self, id: usize) -> Option<Val> {
        // analyze: allow(hot-path): ids come from `intern`, and `memo` grows with `nodes`
        if let Memo::Known(v) = self.memo[id] {
            return v;
        }
        // analyze: allow(hot-path): ids come from `intern`, which only hands out arena indices
        let v = self.compute(self.nodes[id]);
        // analyze: allow(hot-path): same id as the read above
        self.memo[id] = Memo::Known(v);
        v
    }

    /// Recomputes one node from the rings and its children's memos;
    /// mirrors `eval_expr` arm for arm.
    fn compute(&mut self, node: Node) -> Option<Val> {
        match node {
            Node::Num(bits) => Some(Val::Num(f64::from_bits(bits))),
            Node::Bool(b) => Some(Val::Bool(b)),
            Node::Term { ring, depth, field } => {
                let u = self.history(ring).get(depth)?;
                Some(Val::Num(match field {
                    Field::Value => u.value,
                    Field::Seqno => u.seqno.get() as f64,
                }))
            }
            Node::Consecutive { ring, degree } => {
                Some(Val::Bool(consecutive(self.history(ring), degree)))
            }
            Node::Agg { op, ring, window } => {
                aggregate(op, self.history(ring), window).map(Val::Num)
            }
            Node::Unary { op, child } => unary(op, self.eval(child)?),
            Node::Binary { op, lhs, rhs } if op.is_logical() => {
                let l = self.eval(lhs)?.boolean()?;
                match (op, l) {
                    (BinOp::And, false) => Some(Val::Bool(false)),
                    (BinOp::Or, true) => Some(Val::Bool(true)),
                    _ => Some(Val::Bool(self.eval(rhs)?.boolean()?)),
                }
            }
            Node::Binary { op, lhs, rhs } => {
                let l = self.eval(lhs)?.num()?;
                let r = self.eval(rhs)?.num()?;
                Some(binary(op, l, r))
            }
            Node::Abs(e) => Some(Val::Num(self.eval(e)?.num()?.abs())),
            Node::Min(a, b) => Some(Val::Num(self.eval(a)?.num()?.min(self.eval(b)?.num()?))),
            Node::Max(a, b) => Some(Val::Num(self.eval(a)?.num()?.max(self.eval(b)?.num()?))),
        }
    }

    /// The condition's history: per variable in ascending order, its
    /// `degree` newest updates, newest first.
    fn held<'a>(
        &'a self,
        hosted: &'a Hosted,
    ) -> impl Iterator<Item = (VarId, impl Iterator<Item = &'a Update>)> {
        hosted.spec.iter().map(|&(ring, degree)| {
            let h = self.history(ring);
            (h.var(), h.updates().take(degree))
        })
    }

    /// The alert fingerprint of the condition's current history.
    pub(crate) fn fingerprint(&self, hosted: &Hosted) -> HistoryFingerprint {
        HistoryFingerprint::from_entries(
            self.held(hosted).map(|(var, held)| (var, held.map(|u| u.seqno).collect::<SeqBuf>())),
        )
    }

    /// Flat snapshot of the condition's current history.
    pub(crate) fn snapshot(&self, hosted: &Hosted) -> Vec<Update> {
        self.held(hosted).flat_map(|(_, held)| held.copied()).collect()
    }

    /// Empties every ring (CE restart); nothing memoised survives.
    pub(crate) fn clear(&mut self) {
        for ring in &mut self.rings {
            ring.history.clear();
        }
        self.memo.fill(Memo::Dirty);
    }
}

#[cfg(test)]
mod tests {
    use super::super::compiled::{eval_expr, CompiledCondition};
    use super::*;
    use crate::condition::ConditionExt;
    use crate::history::HistorySet;
    use crate::update::SeqNo;
    use crate::var::VarRegistry;

    fn compile(src: &str, vars: &mut VarRegistry) -> CompiledCondition {
        CompiledCondition::compile(src, vars).unwrap()
    }

    fn host(store: &mut ExprStore, cond: &CompiledCondition) -> Hosted {
        store.host(cond.ast(), &cond.history_spec()).expect("hosted")
    }

    fn dirty(store: &ExprStore) -> usize {
        store.memo.iter().filter(|m| matches!(m, Memo::Dirty)).count()
    }

    /// One condition alone in a store, driven in lockstep with the
    /// reference walk over a private history set of the same spec:
    /// equal values after every push, undefined (`None`) included, and
    /// again from warm memos.
    fn lockstep(src: &str, updates: &[(&str, u64, f64)]) {
        let mut vars = VarRegistry::new();
        let cond = compile(src, &mut vars);
        let mut store = ExprStore::default();
        let hosted = host(&mut store, &cond);
        let mut h = HistorySet::new(cond.history_spec());
        for &(name, s, v) in updates {
            let u = Update::new(vars.lookup(name).unwrap(), s, v);
            assert_eq!(store.push(u), h.push(u).is_ok(), "stale check on {u:?}");
            let want = eval_expr(cond.ast(), &h);
            assert_eq!(store.eval(hosted.root), want, "after ({name},{s},{v}) in {src}");
            assert_eq!(store.eval(hosted.root), want, "warm re-eval in {src}");
            assert_eq!(
                store.satisfied(&hosted),
                h.is_defined() && want == Some(Val::Bool(true)),
                "verdict after ({name},{s},{v}) in {src}"
            );
        }
    }

    #[test]
    fn matches_reference_walk_through_definition_boundary() {
        lockstep(
            "x[0].value - x[-1].value > 200 && consecutive(x)",
            &[("x", 1, 400.0), ("x", 3, 720.0), ("x", 4, 950.0), ("x", 2, 0.0)],
        );
    }

    #[test]
    fn aggregates_and_seqno_terms_track() {
        lockstep(
            "avg_over(x, 2) >= 10 || x[0].seqno == x[-1].seqno + 1",
            &[("x", 1, 8.0), ("x", 2, 12.0), ("x", 4, 2.0), ("x", 5, 2.0)],
        );
        lockstep(
            "min(abs(x[0].value - y[0].value), 50) < max_over(y, 2)",
            &[("y", 1, 1.0), ("x", 1, 30.0), ("y", 2, 9.0), ("x", 2, -4.0)],
        );
        lockstep(
            "sum_over(x, 3) / -min_over(x, 2) != 1 && !(x[0].value <= x[-2].value)",
            &[("x", 1, 0.1), ("x", 2, 0.2), ("x", 3, 0.3), ("x", 3, 9.0), ("x", 7, 1e300)],
        );
    }

    #[test]
    fn short_circuit_leaves_the_undefined_operand_unread() {
        let mut vars = VarRegistry::new();
        let cond = compile("x[0].value > 10 && x[-1].value > 0", &mut vars);
        let x = vars.lookup("x").unwrap();
        let mut store = ExprStore::default();
        let hosted = host(&mut store, &cond);
        assert!(store.push(Update::new(x, 1, 5.0)));
        // A false left operand decides `&&`; x[-1], not yet held, is
        // never read and its nodes stay dirty.
        assert_eq!(store.eval(hosted.root), Some(Val::Bool(false)));
        assert!(dirty(&store) > 0);
        assert!(!store.satisfied(&hosted));
        assert!(store.push(Update::new(x, 2, 50.0)));
        assert!(store.satisfied(&hosted));
        assert_eq!(dirty(&store), 0);
    }

    #[test]
    fn equal_subexpressions_are_one_node() {
        let mut vars = VarRegistry::new();
        let mut store = ExprStore::default();
        let a = compile("avg_over(x, 16) - avg_over(y, 16) > 1", &mut vars);
        let b = compile("avg_over(x, 16) - avg_over(y, 16) > 2", &mut vars);
        let (ha, hb) = (host(&mut store, &a), host(&mut store, &b));
        // Two aggregates, the difference, two literals, two comparisons.
        assert_eq!(store.nodes.len(), 7);
        assert_ne!(ha.root, hb.root);
        assert_eq!(host(&mut store, &a).root, ha.root);
        assert_eq!(store.nodes.len(), 7);
        // Each ring lists a shared node once, however many conditions
        // reach it: its aggregate, the difference, two comparisons.
        assert!(store.rings.iter().all(|r| r.readers.len() == 4));
    }

    #[test]
    fn two_windows_over_one_variable_share_the_ring_not_the_node() {
        let mut vars = VarRegistry::new();
        let mut store = ExprStore::default();
        let short = compile("sum_over(x, 2) > 5", &mut vars);
        let long = compile("sum_over(x, 4) > 5", &mut vars);
        let (hs, hl) = (host(&mut store, &short), host(&mut store, &long));
        assert_eq!(store.rings.len(), 1);
        let x = vars.lookup("x").unwrap();
        for s in 1..=2 {
            store.push(Update::new(x, s, 3.0));
        }
        assert!(store.satisfied(&hs));
        assert!(!store.satisfied(&hl), "the longer window is not yet full");
        for s in 3..=4 {
            store.push(Update::new(x, s, 0.5));
        }
        assert!(!store.satisfied(&hs)); // 0.5 + 0.5
        assert!(store.satisfied(&hl)); // 0.5 + 0.5 + 3 + 3
    }

    #[test]
    fn consecutive_reads_only_the_owners_degree() {
        let mut vars = VarRegistry::new();
        let mut store = ExprStore::default();
        let shallow = compile("consecutive(x) && x[0].value > 0", &mut vars);
        let deep = compile("consecutive(x) && x[-1].value > 0", &mut vars);
        let (hs, hd) = (host(&mut store, &shallow), host(&mut store, &deep));
        let x = vars.lookup("x").unwrap();
        store.push(Update::new(x, 3, 1.0));
        store.push(Update::new(x, 5, 1.0)); // 4 was lost
        assert!(store.satisfied(&hs), "a degree-1 history has no gap to see");
        assert!(!store.satisfied(&hd));
        // The ring is two deep; the degree-1 condition's alert carries
        // only its own newest entry.
        assert_eq!(store.fingerprint(&hs).seqnos(x).unwrap(), &[SeqNo::new(5)]);
        assert_eq!(store.snapshot(&hs), vec![Update::new(x, 5, 1.0)]);
        store.push(Update::new(x, 6, 1.0));
        assert!(store.satisfied(&hd));
        assert_eq!(store.fingerprint(&hd).seqnos(x).unwrap(), &[SeqNo::new(6), SeqNo::new(5)]);
        assert_eq!(store.snapshot(&hd), vec![Update::new(x, 6, 1.0), Update::new(x, 5, 1.0)]);
    }

    #[test]
    fn an_update_dirties_only_the_nodes_reading_its_variable() {
        let mut vars = VarRegistry::new();
        let cond = compile("x[0].value > 1 && y[0].value > 1", &mut vars);
        let (x, y) = (vars.lookup("x").unwrap(), vars.lookup("y").unwrap());
        let mut store = ExprStore::default();
        let hosted = host(&mut store, &cond);
        store.push(Update::new(x, 1, 5.0));
        store.push(Update::new(y, 1, 5.0));
        assert!(store.satisfied(&hosted));
        assert_eq!(dirty(&store), 0);
        store.push(Update::new(y, 2, 0.0));
        // y's term, y's comparison and the root; x's side stays known.
        assert_eq!(dirty(&store), 3);
        assert!(!store.satisfied(&hosted));
        // A stale update changes nothing.
        assert!(!store.push(Update::new(y, 2, 9.0)));
        assert_eq!(dirty(&store), 0);
        // Nor does one for a variable nobody hosts.
        assert!(!store.push(Update::new(VarId::new(999), 1, 0.0)));
    }

    #[test]
    fn clear_empties_rings_and_forgets_values() {
        let mut vars = VarRegistry::new();
        let cond = compile("x[0].value > 1", &mut vars);
        let x = vars.lookup("x").unwrap();
        let mut store = ExprStore::default();
        let hosted = host(&mut store, &cond);
        store.push(Update::new(x, 4, 5.0));
        assert!(store.satisfied(&hosted));
        store.clear();
        assert!(!store.satisfied(&hosted));
        // The stream may restart anywhere after a restart.
        assert!(store.push(Update::new(x, 1, 5.0)));
        assert!(store.satisfied(&hosted));
    }

    #[test]
    fn host_declines_what_the_rings_cannot_serve() {
        let mut vars = VarRegistry::new();
        let mut store = ExprStore::default();
        let first = compile("x[0].value > 1", &mut vars);
        host(&mut store, &first);
        let x = vars.lookup("x").unwrap();
        store.push(Update::new(x, 1, 0.0));
        // x already holds an update a newcomer has not seen.
        let late = compile("x[0].value > 2 && y[0].value > 2", &mut vars);
        assert!(store.host(late.ast(), &late.history_spec()).is_none());
        // After a restart nobody has seen anything.
        store.clear();
        assert!(store.host(late.ast(), &late.history_spec()).is_some());
        // An expression reading past the degrees it is registered with.
        let deep = compile("z[-2].value > 0", &mut vars);
        let z = vars.lookup("z").unwrap();
        assert!(store.host(deep.ast(), &[(z, 2)]).is_none());
        assert!(store.host(deep.ast(), &[(x, 3)]).is_none());
        assert!(store.host(deep.ast(), &[(z, 0)]).is_none());
        assert!(store.host(deep.ast(), &[(z, 3)]).is_some());
    }
}
