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
//! — which is exactly what a history of its own of that degree would
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
//!
//! # Threshold families
//!
//! Many conditions over one signal differ only in a literal:
//! `avg_over(x, 16) - avg_over(y, 16) > T` for a hundred values of `T`.
//! [`ExprStore::host`] recognises that shape in the expression it is
//! given — an ordering (`<`, `<=`, `>`, `>=`) between a non-literal
//! operand, the *signal*, and a literal that is not NaN, in either
//! operand order, alone or as one operand of a conjunction whose other
//! operand is the *residual* (the paper's conservative form,
//! `… > T && consecutive(x)`) — and interns only the signal and the
//! residual. The condition becomes a `(threshold, tag)` member of the
//! *family* keyed by (signal node, ordering with the literal moved to
//! the right, `(ring, degree)` spec, residual node); the comparison and
//! the conjunction never become nodes, so an update has nothing of
//! theirs to dirty. Members sort by threshold on the first evaluation
//! after a registration. [`ExprStore::fired`] then serves the whole
//! family per update: definedness once, the signal once, one binary
//! search for the run of thresholds the value is beyond, and the
//! residual once if that run is not empty — O(log n) for a family no
//! member of which holds, where evaluating each member's comparison is
//! O(n). The verdicts are the reference walk's: the search applies the
//! same IEEE `<` or `<=` to the same two operands (so `-0.0` and `0.0`
//! tie, and a value equal to a threshold is beyond it only under `<=`
//! or `>=`), a NaN value is beyond no threshold, and a conjunction
//! holds exactly when both operands evaluate to `true`, in either
//! order. Everything else — `==`, `!=`, `||`, two non-literal operands,
//! a NaN literal — has no sorted form and is evaluated through its root
//! node as before.

use std::collections::hash_map::{Entry, HashMap};
use std::collections::BTreeMap;
use std::hash::{BuildHasherDefault, Hasher};

use super::ast::{AggOp, BinOp, Expr, Field, UnOp};
use super::compiled::{aggregate, binary, unary, Val};
use crate::alert::{HistoryFingerprint, Snapshot};
use crate::history::History;
use crate::update::Update;
use crate::var::VarId;

#[cfg(test)]
thread_local! {
    /// Nodes recomputed and member lists sorted on this thread, for the
    /// tests that bound the work an update causes.
    pub(crate) static COMPUTED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    pub(crate) static SORTS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

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

#[derive(Debug, Clone)]
struct Ring {
    history: History,
    /// Nodes whose subtree reads this ring, each listed once.
    readers: Vec<usize>,
}

/// A condition's history inside the store: per variable in ascending
/// order, the ring and how many of its newest entries the condition
/// holds. The store keeps each distinct spec once, under an id.
type Spec = [(usize, usize)];

/// A condition hosted on its own: its root node and its spec's id.
#[derive(Debug, Clone)]
pub(crate) struct Hosted {
    root: usize,
    spec: usize,
}

/// What [`ExprStore::host`] made of a condition.
#[derive(Debug)]
pub(crate) enum Placed {
    /// Evaluated on its own, by [`ExprStore::satisfied`].
    Alone(Hosted),
    /// One threshold of the family with this id, evaluated with it by
    /// [`ExprStore::fired`].
    Member(usize),
}

/// How a family's signal is compared with a member's threshold: the
/// source's ordering with the literal as its right operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Bound {
    Lt,
    Le,
    Gt,
    Ge,
}

/// What the members of a family have in common, and the family's key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Shape {
    signal: usize,
    bound: Bound,
    residual: Option<usize>,
    spec: usize,
}

#[derive(Debug, Clone)]
struct Family {
    shape: Shape,
    /// `(threshold, tag)`, ascending by threshold whenever `sorted`.
    members: Vec<(f64, u32)>,
    sorted: bool,
}

/// The hasher of the interning maps. Their keys are a few small
/// integers the store mints itself, so one rotate, xor and multiply per
/// word does; flood resistance buys nothing here, and SipHash was a
/// large share of the cost of registering a condition.
#[derive(Debug, Clone, Copy, Default)]
struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(u64::from(b)));
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// An interning map: a key to the id minted for it.
type Interned<K> = HashMap<K, usize, BuildHasherDefault<WordHasher>>;

/// Shared rings and interned expressions; see the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExprStore {
    rings: Vec<Ring>,
    ring_of: BTreeMap<VarId, usize>,
    nodes: Vec<Node>,
    memo: Vec<Memo>,
    interned: Interned<Node>,
    families: Vec<Family>,
    family_of: Interned<Shape>,
    /// Every distinct spec, by id, and the id of each.
    specs: Vec<Box<Spec>>,
    spec_ids: Interned<Box<Spec>>,
    /// Scratch for [`ExprStore::host`]: the spec being placed.
    placing: Vec<(usize, usize)>,
}

/// Whether the `degree` newest entries of `h` have consecutive seqnos.
fn consecutive(h: &History, degree: usize) -> bool {
    h.updates()
        .zip(h.updates().skip(1))
        .take(degree.saturating_sub(1))
        .all(|(newer, older)| older.seqno.precedes(newer.seqno))
}

/// A numeric literal. The parser reads `-7` as a negation of `7`.
fn literal(e: &Expr<VarId>) -> Option<f64> {
    match e {
        Expr::Num(n) => Some(*n),
        Expr::Unary { op: UnOp::Neg, expr } => literal(expr).map(|n| -n),
        _ => None,
    }
}

/// `signal ⋈ threshold`, the literal on the right.
struct Comparison<'a> {
    signal: &'a Expr<VarId>,
    bound: Bound,
    threshold: f64,
}

/// `e` as an ordering between one operand that is not a literal and one
/// that is, and is not NaN.
fn comparison(e: &Expr<VarId>) -> Option<Comparison<'_>> {
    let Expr::Binary { op, lhs, rhs } = e else { return None };
    let (signal, threshold, flipped) = match (literal(lhs), literal(rhs)) {
        (None, Some(t)) => (&**lhs, t, false),
        (Some(t), None) => (&**rhs, t, true),
        _ => return None,
    };
    let bound = match (op, flipped) {
        (BinOp::Lt, false) | (BinOp::Gt, true) => Bound::Lt,
        (BinOp::Le, false) | (BinOp::Ge, true) => Bound::Le,
        (BinOp::Gt, false) | (BinOp::Lt, true) => Bound::Gt,
        (BinOp::Ge, false) | (BinOp::Le, true) => Bound::Ge,
        _ => return None,
    };
    (!threshold.is_nan()).then_some(Comparison { signal, bound, threshold })
}

/// `e` as a comparison and a residual: a comparison alone, or either
/// operand of a conjunction with the other as the rest.
fn indexable(e: &Expr<VarId>) -> Option<(Comparison<'_>, Option<&Expr<VarId>>)> {
    if let Some(alone) = comparison(e) {
        return Some((alone, None));
    }
    let Expr::Binary { op: BinOp::And, lhs, rhs } = e else { return None };
    let first = comparison(lhs).map(|c| (c, Some(&**rhs)));
    first.or_else(|| comparison(rhs).map(|c| (c, Some(&**lhs))))
}

impl ExprStore {
    /// Interns `expr` for a condition with history spec `spec`
    /// (`(variable, degree)` pairs). A threshold (see the module docs)
    /// joins its family as `tag`, which is what [`ExprStore::fired`]
    /// reports when it holds.
    ///
    /// `None`, with nothing of the condition taken, when one of the
    /// variables already holds history the new condition has not seen;
    /// the registry refuses such a condition. Also `None` when `expr`
    /// reads outside `spec`, which no `CompiledCondition` does.
    pub(crate) fn host(
        &mut self,
        expr: &Expr<VarId>,
        spec: &[(VarId, usize)],
        tag: u32,
    ) -> Option<Placed> {
        let spec = self.rings_for(spec)?;
        let reads = &mut Vec::new();
        let Some((Comparison { signal, bound, threshold }, residual)) = indexable(expr) else {
            return Some(Placed::Alone(Hosted { root: self.intern(expr, spec, reads)?, spec }));
        };
        let signal = self.intern(signal, spec, reads)?;
        let residual = match residual {
            Some(rest) => Some(self.intern(rest, spec, reads)?),
            None => None,
        };
        let shape = Shape { signal, bound, residual, spec };
        let family = match self.family_of.entry(shape) {
            Entry::Occupied(known) => *known.get(),
            Entry::Vacant(new) => {
                self.families.push(Family { shape, members: Vec::new(), sorted: true });
                *new.insert(self.families.len() - 1)
            }
        };
        let joined = self.families.get_mut(family)?;
        joined.members.push((threshold, tag));
        joined.sorted = false;
        Some(Placed::Member(family))
    }

    /// The id of the store's form of a history spec, its rings created
    /// or deepened; `None` if one of them already holds history.
    fn rings_for(&mut self, spec: &[(VarId, usize)]) -> Option<usize> {
        let unusable = |&(var, degree): &(VarId, usize)| {
            degree == 0 || self.ring_of.get(&var).is_some_and(|&r| !self.history(r).is_empty())
        };
        if spec.iter().any(unusable) {
            return None;
        }
        let mut placing = std::mem::take(&mut self.placing);
        placing.clear();
        placing.extend(spec.iter().map(|&(var, degree)| (self.ring_for(var, degree), degree)));
        placing.sort_unstable_by_key(|&(ring, _)| self.history(ring).var());
        let id = match self.spec_ids.get(placing.as_slice()) {
            Some(&known) => known,
            None => {
                let new: Box<Spec> = placing.as_slice().into();
                self.specs.push(new.clone());
                self.spec_ids.insert(new, self.specs.len() - 1);
                self.specs.len() - 1
            }
        };
        self.placing = placing;
        Some(id)
    }

    /// Spec `id`'s `(ring, degree)` pairs.
    fn spec(&self, id: usize) -> &Spec {
        self.specs.get(id).map_or(&[], |spec| spec)
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

    /// Interns `e` bottom-up and returns its node. `spec` is the id of
    /// the owning condition's `(ring, degree)` pairs; `reads` collects
    /// the rings read so far, so that a new node can subscribe to those
    /// its own subtree appended.
    fn intern(&mut self, e: &Expr<VarId>, spec: usize, reads: &mut Vec<usize>) -> Option<usize> {
        let ring_of = |store: &Self, var: &VarId| {
            store.spec(spec).iter().copied().find(|&(ring, _)| store.history(ring).var() == *var)
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

    /// Whether every variable of spec `spec` holds `degree` updates.
    fn defined(&self, spec: usize) -> bool {
        self.spec(spec).iter().all(|&(ring, degree)| self.history(ring).len() >= degree)
    }

    /// Whether node `id` evaluates to `true`, not `false` or undefined.
    fn holds(&mut self, id: usize) -> bool {
        self.eval(id).and_then(Val::boolean).unwrap_or(false)
    }

    /// Whether the condition holds now: every one of its variables holds
    /// `degree` updates and its expression is boolean-true.
    pub(crate) fn satisfied(&mut self, hosted: &Hosted) -> bool {
        self.defined(hosted.spec) && self.holds(hosted.root)
    }

    /// Appends the tags of the members of `family` that hold now, in no
    /// particular order: those whose threshold the signal is beyond, if
    /// the family's history is defined and its residual holds.
    pub(crate) fn fired(&mut self, family: usize, out: &mut Vec<u32>) {
        let Some(f) = self.families.get_mut(family) else { return };
        if !f.sorted {
            // Equal thresholds may land in either order: the caller
            // orders what fires by tag.
            f.members.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            f.sorted = true;
            #[cfg(test)]
            SORTS.set(SORTS.get() + 1);
        }
        let Some(Family { shape, .. }) = self.families.get(family) else { return };
        let Shape { signal, bound, residual, spec } = *shape;
        if !self.defined(spec) {
            return;
        }
        let Some(value) = self.eval(signal).and_then(Val::num) else { return };
        if value.is_nan() {
            return;
        }
        let Some(Family { members, .. }) = self.families.get(family) else { return };
        // `total_cmp` order is `<` order with the two zeros adjacent,
        // so each predicate is true of a prefix.
        let run = match bound {
            Bound::Gt => 0..members.partition_point(|&(t, _)| t < value),
            Bound::Ge => 0..members.partition_point(|&(t, _)| t <= value),
            Bound::Lt => members.partition_point(|&(t, _)| t <= value)..members.len(),
            Bound::Le => members.partition_point(|&(t, _)| t < value)..members.len(),
        };
        if run.is_empty() || !residual.is_none_or(|rest| self.holds(rest)) {
            return;
        }
        let Some(Family { members, .. }) = self.families.get(family) else { return };
        out.extend(members.get(run).into_iter().flatten().map(|&(_, tag)| tag));
    }

    fn eval(&mut self, id: usize) -> Option<Val> {
        // analyze: allow(hot-path): ids come from `intern`, and `memo` grows with `nodes`
        if let Memo::Known(v) = self.memo[id] {
            return v;
        }
        #[cfg(test)]
        COMPUTED.set(COMPUTED.get() + 1);
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

    /// The spec the members of `family` share.
    pub(crate) fn family_spec(&self, family: usize) -> &Spec {
        self.families.get(family).map_or(&[], |f| self.spec(f.shape.spec))
    }

    /// The spec of a condition hosted on its own.
    pub(crate) fn hosted_spec(&self, hosted: &Hosted) -> &Spec {
        self.spec(hosted.spec)
    }

    /// The history `spec` covers: per variable in ascending order, its
    /// `degree` newest updates, newest first.
    fn held<'a>(
        &'a self,
        spec: &'a [(usize, usize)],
    ) -> impl Iterator<Item = (VarId, impl Iterator<Item = &'a Update>)> {
        spec.iter().map(|&(ring, degree)| {
            let h = self.history(ring);
            (h.var(), h.updates().take(degree))
        })
    }

    /// Updates the history `spec` covers holds.
    fn held_len(&self, spec: &[(usize, usize)]) -> usize {
        spec.iter().map(|&(ring, degree)| self.history(ring).len().min(degree)).sum()
    }

    /// The alert fingerprint of the history `spec` covers.
    pub(crate) fn fingerprint(&self, spec: &[(usize, usize)]) -> HistoryFingerprint {
        HistoryFingerprint::from_histories(
            spec.len() + self.held_len(spec),
            self.held(spec).map(|(var, held)| (var, held.map(|u| u.seqno))),
        )
    }

    /// Flat snapshot of the history `spec` covers.
    pub(crate) fn snapshot(&self, spec: &[(usize, usize)]) -> Snapshot {
        let len = self.held_len(spec);
        Snapshot::gather(len, self.held(spec).flat_map(|(_, held)| held).map(|u| u.value))
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
    use crate::condition::{Condition, ConditionExt};
    use crate::history::HistorySet;
    use crate::update::SeqNo;
    use crate::var::VarRegistry;

    fn compile(src: &str, vars: &mut VarRegistry) -> CompiledCondition {
        CompiledCondition::compile(src, vars).unwrap()
    }

    fn host(store: &mut ExprStore, cond: &CompiledCondition, tag: u32) -> Placed {
        store.host(cond.expr(), &cond.history_spec(), tag).expect("hosted")
    }

    /// `cond` through its root node whatever its shape: what `host` does
    /// with an expression that is not a threshold.
    fn alone(store: &mut ExprStore, cond: &CompiledCondition) -> Hosted {
        let spec = store.rings_for(&cond.history_spec()).expect("rings are empty");
        let root = store.intern(cond.expr(), spec, &mut Vec::new()).expect("reads within spec");
        Hosted { root, spec }
    }

    /// Whether the condition `host` placed under `tag` holds now.
    fn verdict(store: &mut ExprStore, placed: &Placed, tag: u32) -> bool {
        match placed {
            Placed::Alone(hosted) => store.satisfied(hosted),
            Placed::Member(family) => {
                let mut fired = Vec::new();
                store.fired(*family, &mut fired);
                fired.contains(&tag)
            }
        }
    }

    fn spec_of<'a>(store: &'a ExprStore, placed: &'a Placed) -> &'a [(usize, usize)] {
        match placed {
            Placed::Alone(hosted) => store.hosted_spec(hosted),
            Placed::Member(family) => store.family_spec(*family),
        }
    }

    fn dirty(store: &ExprStore) -> usize {
        store.memo.iter().filter(|m| matches!(m, Memo::Dirty)).count()
    }

    /// One condition in a store twice — through its root node, and as
    /// `host` places it, in a family if it is a threshold — driven in
    /// lockstep with the reference walk over a private history set of
    /// the same spec: equal values after every push, undefined (`None`)
    /// included, again from warm memos, and equal verdicts both ways.
    fn lockstep(src: &str, updates: &[(&str, u64, f64)]) {
        let mut vars = VarRegistry::new();
        let cond = compile(src, &mut vars);
        let mut store = ExprStore::default();
        let hosted = alone(&mut store, &cond);
        let placed = host(&mut store, &cond, 7);
        let mut h = HistorySet::new(cond.history_spec());
        for &(name, s, v) in updates {
            let u = Update::new(vars.lookup(name).unwrap(), s, v);
            assert_eq!(store.push(u), h.push(u).is_ok(), "stale check on {u:?}");
            let want = eval_expr(cond.expr(), &h);
            assert_eq!(store.eval(hosted.root), want, "after ({name},{s},{v}) in {src}");
            assert_eq!(store.eval(hosted.root), want, "warm re-eval in {src}");
            let holds = h.is_defined() && want == Some(Val::Bool(true));
            assert_eq!(store.satisfied(&hosted), holds, "verdict after ({name},{s},{v}) in {src}");
            assert_eq!(verdict(&mut store, &placed, 7), holds, "as placed, ({name},{s},{v}) {src}");
        }
    }

    #[test]
    fn matches_reference_walk_through_definition_boundary() {
        let updates = [("x", 1, 400.0), ("x", 3, 720.0), ("x", 4, 950.0), ("x", 2, 0.0)];
        lockstep("x[0].value - x[-1].value > 200 && consecutive(x)", &updates);
        lockstep("consecutive(x) && 200 < x[0].value - x[-1].value", &updates);
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
        lockstep(
            "-1 >= sum_over(x, 3) / -min_over(x, 2) && !(x[0].value <= x[-2].value)",
            &[("x", 1, 0.1), ("x", 2, 0.2), ("x", 3, 0.3), ("x", 3, 9.0), ("x", 7, 1e300)],
        );
    }

    #[test]
    fn short_circuit_leaves_the_undefined_operand_unread() {
        let mut vars = VarRegistry::new();
        let cond = compile("x[0].value > 10 && x[-1].value > 0", &mut vars);
        let x = vars.lookup("x").unwrap();
        let mut store = ExprStore::default();
        let hosted = alone(&mut store, &cond);
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
        let (ha, hb) = (alone(&mut store, &a), alone(&mut store, &b));
        // Two aggregates, the difference, two literals, two comparisons.
        assert_eq!(store.nodes.len(), 7);
        assert_ne!(ha.root, hb.root);
        assert_eq!(alone(&mut store, &a).root, ha.root);
        assert_eq!(store.nodes.len(), 7);
        // Each ring lists a shared node once, however many conditions
        // reach it: its aggregate, the difference, two comparisons.
        assert!(store.rings.iter().all(|r| r.readers.len() == 4));
    }

    #[test]
    fn thresholds_on_one_signal_are_one_family_and_no_nodes_of_their_own() {
        let mut vars = VarRegistry::new();
        let mut store = ExprStore::default();
        let sources = [
            "avg_over(x, 16) - avg_over(y, 16) > 1",
            "avg_over(x, 16) - avg_over(y, 16) > 2",
            "-3 < avg_over(x, 16) - avg_over(y, 16)",
        ];
        for (tag, src) in sources.iter().enumerate() {
            let placed = host(&mut store, &compile(src, &mut vars), tag as u32);
            assert!(matches!(placed, Placed::Member(0)), "{src}: {placed:?}");
        }
        // Two aggregates and the difference: no literal, no comparison.
        assert_eq!(store.nodes.len(), 3);
        assert!(store.rings.iter().all(|r| r.readers.len() == 2));
        assert_eq!(store.families.len(), 1);
        assert_eq!(store.families[0].members.len(), 3);
        // Another ordering, another residual or another spec is another
        // family over the same signal node.
        for src in [
            "avg_over(x, 16) - avg_over(y, 16) >= 1",
            "avg_over(x, 16) - avg_over(y, 16) > 1 && consecutive(x)",
            "avg_over(x, 16) - avg_over(y, 16) > 1 && x[-16].value > 0",
        ] {
            let family = store.families.len();
            let placed = host(&mut store, &compile(src, &mut vars), 9);
            assert!(matches!(placed, Placed::Member(f) if f == family), "{src}: {placed:?}");
        }
        assert!(store.families.iter().all(|f| f.shape.signal == store.families[0].shape.signal));
    }

    #[test]
    fn only_orderings_against_a_number_are_thresholds() {
        let mut vars = VarRegistry::new();
        let mut store = ExprStore::default();
        for src in [
            "x[0].value == 5",
            "x[0].value != 5",
            "x[0].value > 5 || x[0].value < 1",
            "x[0].value > x[-1].value",
            "x[0].value > 2 + 3",
            "!(x[0].value > 5)",
        ] {
            let placed = host(&mut store, &compile(src, &mut vars), 0);
            assert!(matches!(placed, Placed::Alone(_)), "{src}: {placed:?}");
        }
        // The parser cannot spell NaN; an expression built by hand can
        // hold one, of either sign, on either side.
        let x = vars.lookup("x").unwrap();
        let term = || Box::new(Expr::Term { var: x, index: 0, field: Field::Value });
        let nan = || Box::new(Expr::Num(f64::NAN));
        let minus_nan = Box::new(Expr::Unary { op: UnOp::Neg, expr: nan() });
        let by_hand = [
            Expr::Binary { op: BinOp::Lt, lhs: term(), rhs: nan() },
            Expr::Binary { op: BinOp::Ge, lhs: minus_nan, rhs: term() },
        ];
        for expr in &by_hand {
            let placed = store.host(expr, &[(x, 2)], 0).expect("hosted");
            assert!(matches!(placed, Placed::Alone(_)), "{expr:?}: {placed:?}");
        }
        assert!(store.families.is_empty());
    }

    /// The tags `fired` reports for family 0 after `value` arrives on
    /// `x`, ascending.
    fn fired_at(store: &mut ExprStore, x: VarId, seqno: u64, value: f64) -> Vec<u32> {
        assert!(store.push(Update::new(x, seqno, value)));
        let mut fired = Vec::new();
        store.fired(0, &mut fired);
        fired.sort_unstable();
        fired
    }

    #[test]
    fn a_family_fires_exactly_the_thresholds_the_value_is_beyond() {
        // Tags are positions in this list; registration order is not
        // threshold order, and two thresholds are equal.
        let thresholds = ["5", "-1e999", "0", "5", "-0", "1e999", "-7.5"];
        let numbers: Vec<f64> =
            thresholds.iter().map(|t| t.parse().expect("a float literal")).collect();
        let values = [-1e300, -7.5, -0.0, 0.0, 4.9, 5.0, 1e300, f64::INFINITY, f64::NEG_INFINITY];
        for symbol in ["<", "<=", ">", ">="] {
            let holds = |v: f64, t: f64| match symbol {
                "<" => v < t,
                "<=" => v <= t,
                ">" => v > t,
                _ => v >= t,
            };
            let mut vars = VarRegistry::new();
            let mut store = ExprStore::default();
            for (tag, t) in thresholds.iter().enumerate() {
                let cond = compile(&format!("x[0].value {symbol} {t}"), &mut vars);
                assert!(matches!(host(&mut store, &cond, tag as u32), Placed::Member(0)));
            }
            let x = vars.lookup("x").unwrap();
            for (s, &value) in values.iter().enumerate() {
                let want: Vec<u32> = (0..numbers.len())
                    .filter(|&tag| holds(value, numbers[tag]))
                    .map(|tag| tag as u32)
                    .collect();
                let got = fired_at(&mut store, x, s as u64 + 1, value);
                assert_eq!(got, want, "{value} {symbol} {thresholds:?}");
            }
            // A NaN is beyond nothing, whichever way the family looks.
            let got = fired_at(&mut store, x, 100, f64::NAN);
            assert!(got.is_empty(), "NaN {symbol} {thresholds:?} fired {got:?}");
        }
    }

    #[test]
    fn a_family_is_held_back_by_definedness_and_by_its_residual() {
        let mut vars = VarRegistry::new();
        let mut store = ExprStore::default();
        // `consecutive(y)` is true of an empty history: only the spec
        // says `y` must hold an update first.
        let cond = compile("consecutive(y) && x[0].value > 1", &mut vars);
        assert!(matches!(host(&mut store, &cond, 0), Placed::Member(0)));
        let gapless = compile("x[0].value - x[-1].value > 1 && consecutive(x)", &mut vars);
        assert!(matches!(host(&mut store, &gapless, 1), Placed::Member(1)));
        let (x, y) = (vars.lookup("x").unwrap(), vars.lookup("y").unwrap());
        assert_eq!(fired_at(&mut store, x, 1, 5.0), [], "y is undefined");
        assert!(store.push(Update::new(y, 1, 0.0)));
        assert_eq!(fired_at(&mut store, x, 2, 9.0), [0]);
        let mut fired = Vec::new();
        store.fired(1, &mut fired);
        assert_eq!(fired, [1], "2 follows 1");
        assert!(store.push(Update::new(x, 4, 20.0)));
        fired.clear();
        store.fired(1, &mut fired);
        assert_eq!(fired, [], "3 was lost: the rise is there, the residual is not");
    }

    #[test]
    fn members_sort_once_per_registration_burst() {
        let n: u32 = 20_000;
        let mut vars = VarRegistry::new();
        let mut store = ExprStore::default();
        for tag in 0..n {
            // Descending, so the list is unsorted as registered.
            let cond = compile(&format!("x[0].value > {}", n - tag), &mut vars);
            assert!(matches!(host(&mut store, &cond, tag), Placed::Member(0)));
        }
        let x = vars.lookup("x").unwrap();
        let before = SORTS.get();
        assert_eq!(fired_at(&mut store, x, 1, 2.5), [n - 2, n - 1]);
        assert_eq!(fired_at(&mut store, x, 2, 1.5), [n - 1]);
        assert_eq!(SORTS.get() - before, 1, "one sort for the burst, none per update");
        // A member that joins later costs the next evaluation one more.
        store.clear();
        host(&mut store, &compile("x[0].value > 0.5", &mut vars), n);
        assert_eq!(fired_at(&mut store, x, 1, 1.0), [n]);
        assert_eq!(fired_at(&mut store, x, 2, 1.0), [n]);
        assert_eq!(SORTS.get() - before, 2);
    }

    #[test]
    fn two_windows_over_one_variable_share_the_ring_not_the_node() {
        let mut vars = VarRegistry::new();
        let mut store = ExprStore::default();
        let short = compile("sum_over(x, 2) > 5", &mut vars);
        let long = compile("sum_over(x, 4) > 5", &mut vars);
        let (hs, hl) = (host(&mut store, &short, 0), host(&mut store, &long, 1));
        assert_eq!(store.rings.len(), 1);
        let x = vars.lookup("x").unwrap();
        for s in 1..=2 {
            store.push(Update::new(x, s, 3.0));
        }
        assert!(verdict(&mut store, &hs, 0));
        assert!(!verdict(&mut store, &hl, 1), "the longer window is not yet full");
        for s in 3..=4 {
            store.push(Update::new(x, s, 0.5));
        }
        assert!(!verdict(&mut store, &hs, 0)); // 0.5 + 0.5
        assert!(verdict(&mut store, &hl, 1)); // 0.5 + 0.5 + 3 + 3
    }

    #[test]
    fn consecutive_reads_only_the_owners_degree() {
        let mut vars = VarRegistry::new();
        let mut store = ExprStore::default();
        let shallow = compile("consecutive(x) && x[0].value > 0", &mut vars);
        let deep = compile("consecutive(x) && x[-1].value > 0", &mut vars);
        let (hs, hd) = (host(&mut store, &shallow, 0), host(&mut store, &deep, 1));
        let x = vars.lookup("x").unwrap();
        store.push(Update::new(x, 3, 3.0));
        store.push(Update::new(x, 5, 5.0)); // 4 was lost
        assert!(verdict(&mut store, &hs, 0), "a degree-1 history has no gap to see");
        assert!(!verdict(&mut store, &hd, 1));
        // The ring is two deep; the degree-1 condition's alert carries
        // only its own newest entry.
        let spec = spec_of(&store, &hs);
        assert_eq!(store.fingerprint(spec).seqnos(x).unwrap(), &[SeqNo::new(5)]);
        assert_eq!(store.snapshot(spec)[..], [5.0]);
        store.push(Update::new(x, 6, 6.0));
        assert!(verdict(&mut store, &hd, 1));
        let spec = spec_of(&store, &hd);
        assert_eq!(store.fingerprint(spec).seqnos(x).unwrap(), &[SeqNo::new(6), SeqNo::new(5)]);
        assert_eq!(store.snapshot(spec)[..], [6.0, 5.0]);
    }

    #[test]
    fn an_update_dirties_only_the_nodes_reading_its_variable() {
        let mut vars = VarRegistry::new();
        let cond = compile("x[0].value > 1 && y[0].value > 1", &mut vars);
        let (x, y) = (vars.lookup("x").unwrap(), vars.lookup("y").unwrap());
        let mut store = ExprStore::default();
        let hosted = alone(&mut store, &cond);
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
        let placed = host(&mut store, &cond, 0);
        store.push(Update::new(x, 4, 5.0));
        assert!(verdict(&mut store, &placed, 0));
        store.clear();
        assert!(!verdict(&mut store, &placed, 0));
        // The stream may restart anywhere after a restart.
        assert!(store.push(Update::new(x, 1, 5.0)));
        assert!(verdict(&mut store, &placed, 0));
    }

    #[test]
    fn host_declines_what_the_rings_cannot_serve() {
        let mut vars = VarRegistry::new();
        let mut store = ExprStore::default();
        let first = compile("x[0].value > 1", &mut vars);
        host(&mut store, &first, 0);
        let x = vars.lookup("x").unwrap();
        store.push(Update::new(x, 1, 0.0));
        // x already holds an update a newcomer has not seen, be it one
        // more threshold of a family that is there.
        let late = compile("x[0].value > 2 && y[0].value > 2", &mut vars);
        assert!(store.host(late.expr(), &late.history_spec(), 1).is_none());
        let joins = compile("x[0].value > 3", &mut vars);
        assert!(store.host(joins.expr(), &joins.history_spec(), 1).is_none());
        // After a restart nobody has seen anything.
        store.clear();
        assert!(store.host(late.expr(), &late.history_spec(), 1).is_some());
        assert!(matches!(host(&mut store, &joins, 2), Placed::Member(0)));
        // An expression reading past the degrees it is registered with.
        let deep = compile("z[-2].value > 0", &mut vars);
        let z = vars.lookup("z").unwrap();
        assert!(store.host(deep.expr(), &[(z, 2)], 3).is_none());
        assert!(store.host(deep.expr(), &[(x, 3)], 3).is_none());
        assert!(store.host(deep.expr(), &[(z, 0)], 3).is_none());
        assert!(store.host(deep.expr(), &[(z, 3)], 3).is_some());
    }
}
