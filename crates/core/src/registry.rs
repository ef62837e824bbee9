//! The Condition Evaluator: one [`ConditionRegistry`] hosts any number
//! of conditions over a single update stream (the paper's `T` on a
//! registry of one is [`transduce`](crate::transduce)).
//!
//! At scale a CE hosts thousands of conditions, and a naive loop of
//! one evaluator per condition pays four times over: it offers every
//! update to every condition, keeps a copy of each variable's history
//! per condition, re-computes subexpressions that many conditions have
//! in common, and compares one signal with each of a hundred thresholds
//! in turn. The registry removes all four:
//!
//! * a **variable → condition inverted index**, built from each
//!   condition's variable set, so an arriving `u(x, s, v)` touches only
//!   the conditions that mention `x`;
//! * **one history ring per variable and one expression DAG** for every
//!   condition, built from [`Condition::expr`]: the update is pushed
//!   and stale-checked once, dirties only the nodes that read its
//!   variable, and a subexpression shared by any number of conditions
//!   is evaluated once per update. See `condition::expr::store` for the
//!   interning and invalidation rules;
//! * a **variable → family → firing run index** for the conditions
//!   that are a threshold on a signal: an ordering (`<`, `<=`, `>`,
//!   `>=`) between a non-literal expression and a literal, in either
//!   operand order, alone or in conjunction with a residual
//!   (`… > T && consecutive(x)`). Conditions equal up to the literal
//!   form one family, its thresholds sorted; an update checks the
//!   family's definedness once, evaluates the signal once, finds the
//!   thresholds it is beyond with one binary search, evaluates the
//!   residual if there are any, and visits only those conditions. An
//!   update that fires nothing costs a family O(log n), not O(n). The
//!   shape is read off the expression at registration, never chosen by
//!   an option. Orderings are indexed because the conditions one value
//!   satisfies are then a contiguous run of a sorted list; `==`, `!=`,
//!   `||`, comparisons between two non-literals and NaN literals have
//!   no such run and are evaluated one by one.
//!
//! The paper's CE keeps one history per variable (§2), and every
//! condition reads it from the start of the stream: a condition is
//! registered before any of its variables holds history, or after a
//! [`ConditionRegistry::restart`] has emptied them, and
//! [`ConditionRegistry::insert`] refuses it otherwise.
//!
//! Per condition the registry is *observationally identical* to an
//! independent history set of the condition's own, fed the projection
//! of the stream onto its variables and evaluated from scratch with
//! [`Condition::eval`] after each accepted update — same alerts, same
//! fingerprints and snapshots, same per-condition `AlertId` numbering,
//! same stale handling (`tests/registry_shared.rs` pins this
//! byte-for-byte). Per update, alerts are emitted in ascending
//! registration order; registering conditions in ascending [`CondId`]
//! order (as [`ConditionRegistry::add_compiled`] does) therefore yields
//! ascending-`CondId` emission, which is what the runtime's worker
//! pipeline — the one place a condition set is split over several
//! registries — relies on to merge one update's alerts back into the
//! order a single registry emits.

use std::collections::BTreeMap;

use crate::alert::{Alert, AlertId, CeId, CondId};
use crate::condition::expr::store::{ExprStore, Hosted, Placed};
use crate::condition::expr::CompiledCondition;
use crate::condition::{Condition, ConditionExt, DynCondition};
use crate::update::Update;
use crate::var::VarId;

#[cfg(test)]
thread_local! {
    /// Entries visited on this thread — offered an update, or raised
    /// through their family — for the tests that bound the work an
    /// update causes.
    static VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How a hosted condition is evaluated in the registry's store.
#[derive(Debug, Clone)]
enum Eval {
    /// On its own.
    Alone(Hosted),
    /// As one threshold of the family with this id. The family is
    /// offered the update and counts it; the entry is visited only to
    /// raise its alert.
    Member(usize),
}

/// One hosted condition: how it is evaluated plus its own counters. A
/// family member keeps only `emitted`; see [`FamilyCounters`].
#[derive(Debug, Clone)]
struct Entry {
    cond_id: CondId,
    eval: Eval,
    emitted: u64,
    ingested: u64,
    dropped_stale: u64,
}

impl Entry {
    /// Offers one update to a condition hosted on its own: stale drop →
    /// count → defined && holds → alert with the per-condition emission
    /// index. `accepted` is what the store said of the update, which it
    /// takes once on behalf of every entry.
    fn offer(&mut self, accepted: bool, store: &mut ExprStore, ce: CeId) -> Option<Alert> {
        if !accepted {
            self.dropped_stale += 1;
            return None;
        }
        self.ingested += 1;
        let holds = match &self.eval {
            Eval::Alone(hosted) => store.satisfied(hosted),
            Eval::Member(_) => unreachable!("a family member is routed through its family"),
        };
        holds.then(|| self.raise(store, ce))
    }

    /// The alert on the history the condition holds now, under its next
    /// emission index.
    fn raise(&mut self, store: &ExprStore, ce: CeId) -> Alert {
        let spec = match &self.eval {
            Eval::Alone(hosted) => store.hosted_spec(hosted),
            Eval::Member(family) => store.family_spec(*family),
        };
        let (fingerprint, snapshot) = (store.fingerprint(spec), store.snapshot(spec));
        let id = AlertId { ce, index: self.emitted };
        self.emitted += 1;
        Alert::new(self.cond_id, fingerprint, snapshot, id)
    }
}

/// The conditions reading one variable, as an update for it visits them.
#[derive(Debug, Clone, Default)]
struct Route {
    /// The threshold families over the variable, by store id.
    families: Vec<usize>,
    /// Every other condition: indices into `entries`, ascending
    /// (registration order).
    others: Vec<u32>,
}

/// What a family's members would each have counted, kept once. A member
/// counts from when it joined — a condition hosted after a `restart()`
/// can join a family that has been counting for a while — so the sums
/// over members are `count * members - joined`.
#[derive(Debug, Clone, Default)]
struct FamilyCounters {
    members: u64,
    ingested: u64,
    dropped_stale: u64,
    /// `ingested` and `dropped_stale` as they stood at each join, summed.
    joined_ingested: u64,
    joined_stale: u64,
}

/// Aggregate ingestion counters for a registry (sums over all hosted
/// conditions, plus stream-level routing stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Updates incorporated into at least zero histories — i.e. offers
    /// accepted (one update fanned out to `k` conditions counts `k`).
    pub ingested: u64,
    /// Stale offers discarded (per condition, summed).
    pub dropped_stale: u64,
    /// Alerts emitted (all conditions).
    pub emitted: u64,
    /// Stream updates whose variable no hosted condition mentions.
    pub unrouted: u64,
}

/// A set of conditions evaluated together over one update stream.
///
/// ```rust
/// use rcm_core::condition::expr::CompiledCondition;
/// use rcm_core::{CeId, ConditionRegistry, Update, VarRegistry};
///
/// let mut vars = VarRegistry::new();
/// let mut reg = ConditionRegistry::new(CeId::new(0));
/// reg.add_compiled(CompiledCondition::compile("x[0].value > 10", &mut vars)?);
/// reg.add_compiled(CompiledCondition::compile("x[0].value > 20 && y[0].value > 0", &mut vars)?);
///
/// let x = vars.lookup("x").unwrap();
/// let mut alerts = Vec::new();
/// reg.ingest(Update::new(x, 1, 15.0), &mut alerts);
/// assert_eq!(alerts.len(), 1); // first condition fires, second undefined
/// # Ok::<(), rcm_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct ConditionRegistry {
    ce: CeId,
    entries: Vec<Entry>,
    /// `(condition id, index into entries)`, ascending by id.
    slot_of: Vec<(CondId, u32)>,
    /// Variable → the conditions mentioning that variable.
    index: BTreeMap<VarId, Route>,
    /// Histories and expressions of every entry.
    store: ExprStore,
    /// Per-family counters, by store id.
    families: Vec<FamilyCounters>,
    /// Scratch: the slots the current update fired through families.
    fired: Vec<u32>,
    unrouted: u64,
}

impl ConditionRegistry {
    /// Creates an empty registry for replica `ce`.
    pub fn new(ce: CeId) -> Self {
        ConditionRegistry {
            ce,
            entries: Vec::new(),
            slot_of: Vec::new(),
            index: BTreeMap::new(),
            store: ExprStore::default(),
            families: Vec::new(),
            fired: Vec::new(),
            unrouted: 0,
        }
    }

    /// This registry as replica `ce`'s: the same conditions, store,
    /// histories and counters, copied rather than hosted again. Every
    /// replica of a system evaluates one condition set, so the system
    /// hosts it once and gives each replica such a copy; what a copy
    /// emits differs from its original's only in [`AlertId::ce`].
    pub fn for_replica(&self, ce: CeId) -> Self {
        ConditionRegistry { ce, ..self.clone() }
    }

    /// Registers a condition under the next sequential [`CondId`]
    /// (`0, 1, 2, …` — matching registration order) and returns it.
    ///
    /// # Panics
    ///
    /// As [`ConditionRegistry::insert`].
    pub fn add_compiled(&mut self, cond: CompiledCondition) -> CondId {
        let id = CondId::new(self.entries.len() as u32);
        self.host(id, &cond);
        id
    }

    /// Registers a condition under an explicit id (used where a
    /// registry hosts a subset of a global id space: a pipeline worker,
    /// a tree leaf).
    ///
    /// # Panics
    ///
    /// Panics if `cond_id` is already registered here, or if one of the
    /// condition's variables already holds history: the condition has
    /// not seen the updates the shared history holds, so it is not its
    /// history. Register every condition before the first update, or
    /// after a [`ConditionRegistry::restart`].
    pub fn insert(&mut self, cond_id: CondId, cond: DynCondition) {
        self.host(cond_id, &*cond);
    }

    pub(crate) fn host(&mut self, cond_id: CondId, cond: &dyn Condition) {
        assert!(
            u32::try_from(self.entries.len()).is_ok(),
            "condition table full: {} entries",
            self.entries.len()
        );
        let slot = self.entries.len() as u32;
        let Err(at) = self.slot_of.binary_search_by_key(&cond_id, |&(id, _)| id) else {
            panic!("condition id {cond_id} already registered")
        };
        let spec = cond.history_spec();
        // The store takes nothing of a condition it refuses.
        let Some(placed) = self.store.host(cond.expr(), &spec, slot) else {
            panic!("condition {cond_id} registered after one of its variables holds history")
        };
        self.slot_of.insert(at, (cond_id, slot));
        // Updates reach a member through its family, which its first
        // member lists on the route of each variable, and any other
        // condition by its slot.
        let routes = spec.iter().map(|&(var, _)| var);
        match placed {
            Placed::Member(family) if family < self.families.len() => {}
            Placed::Member(family) => {
                self.families.resize_with(family + 1, FamilyCounters::default);
                routes.for_each(|var| self.index.entry(var).or_default().families.push(family));
            }
            _ => routes.for_each(|var| self.index.entry(var).or_default().others.push(slot)),
        }
        let eval = match placed {
            Placed::Member(family) => {
                // analyze: allow(hot-path): the match above made room for `family`
                let counters = &mut self.families[family];
                counters.members += 1;
                counters.joined_ingested += counters.ingested;
                counters.joined_stale += counters.dropped_stale;
                Eval::Member(family)
            }
            Placed::Alone(hosted) => Eval::Alone(hosted),
        };
        self.entries.push(Entry { cond_id, eval, emitted: 0, ingested: 0, dropped_stale: 0 });
    }

    /// Number of hosted conditions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no conditions are hosted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The union of all hosted conditions' variable sets, ascending.
    pub fn variables(&self) -> impl Iterator<Item = VarId> + '_ {
        self.index.keys().copied()
    }

    /// Alerts emitted so far for `cond_id` (its next `AlertId::index`).
    pub fn alerts_emitted(&self, cond_id: CondId) -> Option<u64> {
        let at = self.slot_of.binary_search_by_key(&cond_id, |&(id, _)| id).ok()?;
        let &(_, slot) = self.slot_of.get(at)?;
        self.entries.get(slot as usize).map(|e| e.emitted)
    }

    /// Aggregate counters over all hosted conditions.
    pub fn stats(&self) -> RegistryStats {
        let mut s = RegistryStats { unrouted: self.unrouted, ..RegistryStats::default() };
        for e in &self.entries {
            s.ingested += e.ingested;
            s.dropped_stale += e.dropped_stale;
            s.emitted += e.emitted;
        }
        for f in &self.families {
            s.ingested += f.ingested * f.members - f.joined_ingested;
            s.dropped_stale += f.dropped_stale * f.members - f.joined_stale;
        }
        s
    }

    /// Offers one update to every condition mentioning its variable
    /// (ascending registration order), appending any alerts to `out`.
    ///
    /// Updates for variables no condition mentions are counted in
    /// [`RegistryStats::unrouted`] and otherwise ignored — a registry
    /// subscribes to the union of its conditions' variable sets, so an
    /// unrouted update is stream-level noise, not a per-condition
    /// wiring bug.
    pub fn ingest(&mut self, update: Update, out: &mut Vec<Alert>) {
        self.ingest_all(std::slice::from_ref(&update), out);
    }

    /// Ingests a burst of updates in order, appending alerts to `out`.
    ///
    /// Exactly equivalent to calling [`ConditionRegistry::ingest`] per
    /// update (`registry_shared` pins this); the batch entry point amortizes
    /// the per-call bookkeeping — in particular, consecutive updates
    /// for the same variable reuse one inverted-index lookup.
    pub fn ingest_batch(&mut self, updates: &[Update], out: &mut Vec<Alert>) {
        self.ingest_all(updates, out);
    }

    /// The single ingestion loop behind both public entry points, so
    /// batched and one-at-a-time ingestion cannot diverge.
    fn ingest_all(&mut self, updates: &[Update], out: &mut Vec<Alert>) {
        let ce = self.ce;
        // Split borrows: the index is read-only while entries mutate.
        let index = &self.index;
        let entries = &mut self.entries;
        let store = &mut self.store;
        let families = &mut self.families;
        let fired = &mut self.fired;
        let mut cached: Option<(VarId, &Route)> = None;
        for &update in updates {
            let route = match cached {
                Some((var, route)) if var == update.var => route,
                _ => match index.get(&update.var) {
                    Some(route) => {
                        cached = Some((update.var, route));
                        route
                    }
                    None => {
                        self.unrouted += 1;
                        continue;
                    }
                },
            };
            let shared = store.push(update);
            fired.clear();
            for &family in &route.families {
                // analyze: allow(hot-path): a route lists a family once `insert` has
                // analyze: allow(hot-path): made room for its counters
                let counters = &mut families[family];
                if shared {
                    counters.ingested += 1;
                    store.fired(family, fired);
                } else {
                    counters.dropped_stale += 1;
                }
            }
            // Families report their runs in threshold order; alerts
            // leave in registration order, members and others merged.
            fired.sort_unstable();
            let mut hits = fired.iter().peekable();
            let mut others = route.others.iter().peekable();
            loop {
                let (&slot, hit) = match (hits.peek(), others.peek()) {
                    (Some(hit), Some(other)) if hit < other => (*hit, true),
                    (Some(hit), None) => (*hit, true),
                    (_, Some(other)) => (*other, false),
                    (None, None) => break,
                };
                #[cfg(test)]
                VISITS.set(VISITS.get() + 1);
                // analyze: allow(hot-path): routes and members' tags hold slots of this
                // analyze: allow(hot-path): entries vec, which only grows
                let entry = &mut entries[slot as usize];
                let alert = if hit {
                    hits.next();
                    Some(entry.raise(store, ce))
                } else {
                    others.next();
                    entry.offer(shared, store, ce)
                };
                out.extend(alert);
            }
        }
    }

    /// Simulates a crash-restart of the hosting CE: the in-memory
    /// histories are lost; alert numbering continues, per condition (the
    /// paper's back links are lossless and stateful, so a restarted CE
    /// does not reuse alert positions).
    pub fn restart(&mut self) {
        self.store.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::expr::store::COMPUTED;
    use crate::condition::{cond, Cmp};
    use crate::history::HistorySet;
    use crate::var::VarRegistry;
    use std::sync::Arc;

    fn compiled(src: &str, vars: &mut VarRegistry) -> CompiledCondition {
        CompiledCondition::compile(src, vars).unwrap()
    }

    #[test]
    fn routes_only_subscribed_conditions() {
        let mut vars = VarRegistry::new();
        let mut reg = ConditionRegistry::new(CeId::new(0));
        let cx = reg.add_compiled(compiled("x[0].value > 0", &mut vars));
        let cy = reg.add_compiled(compiled("y[0].value > 0", &mut vars));
        assert_eq!((cx, cy), (CondId::new(0), CondId::new(1)));
        let (x, y) = (vars.lookup("x").unwrap(), vars.lookup("y").unwrap());

        let mut out = Vec::new();
        reg.ingest(Update::new(x, 1, 1.0), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].cond, cx);
        // y's condition saw nothing: still zero ingested for it.
        reg.ingest(Update::new(y, 1, 1.0), &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[1].cond, cy);
        let stats = reg.stats();
        assert_eq!(stats.ingested, 2);
        assert_eq!(stats.emitted, 2);
        assert_eq!(stats.unrouted, 0);
    }

    #[test]
    fn unrouted_updates_are_counted_not_fatal() {
        let mut vars = VarRegistry::new();
        let mut reg = ConditionRegistry::new(CeId::new(0));
        reg.add_compiled(compiled("x[0].value > 0", &mut vars));
        let mut out = Vec::new();
        reg.ingest(Update::new(VarId::new(99), 1, 1.0), &mut out);
        assert!(out.is_empty());
        assert_eq!(reg.stats().unrouted, 1);
    }

    #[test]
    fn per_update_emission_order_is_registration_order() {
        let mut vars = VarRegistry::new();
        let mut reg = ConditionRegistry::new(CeId::new(0));
        let a = reg.add_compiled(compiled("x[0].value > 0", &mut vars));
        let b = reg.add_compiled(compiled("x[0].value > -1", &mut vars));
        let x = vars.lookup("x").unwrap();
        let mut out = Vec::new();
        reg.ingest(Update::new(x, 1, 1.0), &mut out);
        assert_eq!(out.iter().map(|al| al.cond).collect::<Vec<_>>(), vec![a, b]);
    }

    /// What a CE holding `cond`'s own histories emits over `stream`, as
    /// `(position in the stream, alert)`: every accepted update of its
    /// variables is followed by a from-scratch evaluation.
    fn independent(
        cond: &CompiledCondition,
        id: CondId,
        ce: CeId,
        stream: &[Update],
    ) -> Vec<(usize, Alert)> {
        let mut h = HistorySet::new(cond.history_spec());
        let mut emitted = 0;
        let mut out = Vec::new();
        for (at, &u) in stream.iter().enumerate() {
            if h.push(u).is_ok() && h.is_defined() && cond.eval(&h) {
                let alert_id = AlertId { ce, index: emitted };
                out.push((at, Alert::new(id, h.fingerprint(), h.snapshot(), alert_id)));
                emitted += 1;
            }
        }
        out
    }

    #[test]
    fn matches_independent_evaluators() {
        let mut vars = VarRegistry::new();
        let sources =
            ["x[0].value > 5", "x[0].value - x[-1].value > 2 && consecutive(x)", "y[0].value < 0"];
        let mut reg = ConditionRegistry::new(CeId::new(3));
        let conds: Vec<CompiledCondition> =
            sources.iter().map(|s| compiled(s, &mut vars)).collect();
        for c in &conds {
            reg.add_compiled(c.clone());
        }

        let (x, y) = (vars.lookup("x").unwrap(), vars.lookup("y").unwrap());
        let stream = [
            Update::new(x, 1, 4.0),
            Update::new(y, 1, -1.0),
            Update::new(x, 2, 7.0),
            Update::new(x, 2, 7.0), // stale duplicate
            Update::new(x, 4, 11.0),
            Update::new(y, 2, 3.0),
            Update::new(x, 5, 14.0),
        ];
        let mut got = Vec::new();
        reg.ingest_batch(&stream, &mut got);

        let mut want: Vec<(usize, Alert)> = conds
            .iter()
            .enumerate()
            .flat_map(|(i, c)| independent(c, CondId::new(i as u32), CeId::new(3), &stream))
            .collect();
        want.sort_by_key(|&(at, ref a)| (at, a.cond));
        let want: Vec<Alert> = want.into_iter().map(|(_, a)| a).collect();
        assert_eq!(got, want);
        // Byte-identical provenance, not just paper identity.
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.id, w.id);
            assert!(g.updates().eq(w.updates()));
        }
    }

    #[test]
    fn batch_equals_one_at_a_time() {
        let mut vars = VarRegistry::new();
        let mut batched = ConditionRegistry::new(CeId::new(0));
        let mut stepped = ConditionRegistry::new(CeId::new(0));
        for reg in [&mut batched, &mut stepped] {
            let mut v = VarRegistry::new();
            reg.add_compiled(compiled("x[0].value > 0 && consecutive(x)", &mut v));
            reg.add_compiled(compiled("x[0].value + y[0].value > 3", &mut v));
        }
        let (x, y) = (vars.register("x"), vars.register("y"));
        let stream = [
            Update::new(x, 1, 1.0),
            Update::new(x, 3, 2.0),
            Update::new(y, 1, 2.0),
            Update::new(x, 4, 2.0),
        ];
        let mut a = Vec::new();
        batched.ingest_batch(&stream, &mut a);
        let mut b = Vec::new();
        for &u in &stream {
            stepped.ingest(u, &mut b);
        }
        assert_eq!(a, b);
        assert_eq!(batched.stats(), stepped.stats());
    }

    #[test]
    fn restart_clears_state_keeps_numbering() {
        let mut vars = VarRegistry::new();
        let mut reg = ConditionRegistry::new(CeId::new(0));
        let c = reg.add_compiled(compiled("x[0].value > 0", &mut vars));
        let x = vars.lookup("x").unwrap();
        let mut out = Vec::new();
        reg.ingest(Update::new(x, 1, 1.0), &mut out);
        assert_eq!(out[0].id.index, 0);
        reg.restart();
        reg.ingest(Update::new(x, 7, 1.0), &mut out);
        assert_eq!(out[1].id.index, 1);
        assert_eq!(reg.alerts_emitted(c), Some(2));
    }

    #[test]
    fn a_family_counts_for_each_member_from_when_it_joined() {
        let mut vars = VarRegistry::new();
        let mut reg = ConditionRegistry::new(CeId::new(0));
        reg.add_compiled(compiled("x[0].value > 0", &mut vars));
        reg.add_compiled(compiled("x[0].value > 1", &mut vars));
        let x = vars.lookup("x").unwrap();
        let mut out = Vec::new();
        reg.ingest(Update::new(x, 1, 0.5), &mut out);
        reg.ingest(Update::new(x, 1, 0.5), &mut out); // stale for both
        let stats = reg.stats();
        assert_eq!((stats.ingested, stats.dropped_stale, stats.emitted), (2, 2, 1));
        // Rings are empty after a restart, so a third threshold may join
        // the family; it has not seen what the other two have.
        reg.restart();
        reg.add_compiled(compiled("x[0].value > 2", &mut vars));
        reg.ingest(Update::new(x, 2, 1.5), &mut out);
        reg.ingest(Update::new(x, 2, 1.5), &mut out);
        let stats = reg.stats();
        assert_eq!((stats.ingested, stats.dropped_stale, stats.emitted), (5, 5, 3));
    }

    /// Entries visited and nodes computed by the ingestion of `update`.
    fn cost(reg: &mut ConditionRegistry, update: Update, out: &mut Vec<Alert>) -> (u64, u64) {
        let before = (VISITS.get(), COMPUTED.get());
        reg.ingest(update, out);
        (VISITS.get() - before.0, COMPUTED.get() - before.1)
    }

    #[test]
    fn an_update_visits_the_conditions_it_fires_not_those_that_read_it() {
        let mut vars = VarRegistry::new();
        let mut reg = ConditionRegistry::new(CeId::new(0));
        // One family of a thousand thresholds over `x`, and spread
        // through it three conditions over `x` that no family takes.
        for i in 0..1000 {
            if i % 400 == 0 {
                reg.add_compiled(compiled(&format!("x[0].value != {i}"), &mut vars));
            }
            reg.add_compiled(compiled(&format!("x[0].value > {i}"), &mut vars));
        }
        let x = vars.lookup("x").unwrap();
        let mut out = Vec::new();
        for (seqno, k) in [0u64, 1, 500, 1000].into_iter().enumerate() {
            // Beyond exactly the `k` lowest thresholds, and no integer.
            let update = Update::new(x, seqno as u64 + 1, k as f64 - 0.5);
            out.clear();
            let (visits, computed) = cost(&mut reg, update, &mut out);
            assert_eq!(out.len() as u64, k + 3);
            assert!(out.windows(2).all(|w| w[0].cond < w[1].cond), "registration order");
            assert_eq!(visits, k + 3, "{k} of 1000 thresholds fire");
            // The term, and three literals (once) and their comparisons.
            assert!(computed <= 7, "{computed} nodes for {k} of 1000");
        }
    }

    #[test]
    fn families_of_one_cost_no_more_visits_than_offers() {
        let mut vars = VarRegistry::new();
        let mut reg = ConditionRegistry::new(CeId::new(0));
        for i in 1..=600 {
            reg.add_compiled(compiled(&format!("x[0].value * {i} > 1000"), &mut vars));
        }
        let x = vars.lookup("x").unwrap();
        let mut out = Vec::new();
        for (seqno, value) in [0.0, 2.0, 50.0, 1e9].into_iter().enumerate() {
            out.clear();
            let (visits, computed) =
                cost(&mut reg, Update::new(x, seqno as u64 + 1, value), &mut out);
            // Six hundred offers before the index: now one visit per
            // alert, and per signal the product only (its literal once).
            assert_eq!(visits, out.len() as u64);
            assert!(visits <= 600 && computed <= 1201, "{visits} visits, {computed} nodes");
        }
        assert_eq!(out.len(), 600);
        assert_eq!(reg.stats().ingested, 4 * 600);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn duplicate_cond_id_rejected() {
        let x = VarId::new(0);
        let mut reg = ConditionRegistry::new(CeId::new(0));
        reg.insert(CondId::new(5), Arc::new(cond::threshold(x, Cmp::Gt, 0.0)));
        reg.insert(CondId::new(5), Arc::new(cond::threshold(x, Cmp::Gt, 1.0)));
    }

    #[test]
    fn variables_is_union_of_subscriptions() {
        let mut vars = VarRegistry::new();
        let mut reg = ConditionRegistry::new(CeId::new(0));
        reg.add_compiled(compiled("x[0].value > 0 && y[0].value > 0", &mut vars));
        reg.add_compiled(compiled("y[0].value < 0", &mut vars));
        let got: Vec<VarId> = reg.variables().collect();
        assert_eq!(got, vec![vars.lookup("x").unwrap(), vars.lookup("y").unwrap()]);
    }
}
