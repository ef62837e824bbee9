//! Seeded sweep: a [`ConditionRegistry`] — whose conditions share one
//! history ring per variable and one expression DAG — against
//! independent folds, one per condition, each with a [`HistorySet`] of
//! its own and a from-scratch `Condition::eval` after every accepted
//! update.
//!
//! Equal means: the same alerts in the same order with the same
//! `AlertId`s, fingerprints and snapshot bits, and the same
//! [`RegistryStats`]. Every script mixes seqno gaps, stale duplicates,
//! strays for a variable nobody reads, a `restart()`, ready-made
//! conditions in the middle of the registration order, and conditions
//! registered right after the restart (the rings are empty, so they
//! may join, and one deepens a ring). The
//! registry is driven batched, one update at a time and in random
//! chunks, and split `cond_id % n` over 1, 2 and 4 registries whose
//! alerts are merged per update by condition id — the partition and the
//! merge of the runtime's worker pipeline, the one place that splits a
//! condition set. A split parts the members of a threshold family, so
//! each part's family must fire exactly its own (asserted below).
//!
//! Half the fixed shapes are thresholds — `numeric < literal` in every
//! operator and operand order, alone or in conjunction — which the
//! registry evaluates a family at a time, from one sorted threshold
//! list; see [`FIXED`] and [`NEVER`] for what they pin.
//!
//! Scripts are drawn from the workspace's one generator, `rcm_net::Rng`,
//! seeded with the script's number.

use std::collections::BTreeSet;
use std::sync::Arc;

use rcm_core::condition::expr::{BinOp, CompiledCondition, Expr, Field, UnOp};
use rcm_core::condition::{cond, Cmp, ConditionExt, DynCondition};
use rcm_core::{
    Alert, AlertId, CeId, CondId, ConditionRegistry, HistorySet, RegistryStats, Update, VarId,
    VarRegistry,
};
use rcm_net::Rng;

/// The variables conditions read; `stray` is fed but never read.
const VARS: [&str; 3] = ["a", "b", "c"];

/// Shapes the sweep must always contain. Thresholds are loose enough
/// that each fires somewhere in the sweep (asserted below).
const FIXED: [&str; 41] = [
    "a[0].value > 10",
    // The same `consecutive(a)` text under three degrees of `a`: three
    // different reads, which must not share a node.
    "consecutive(a) && a[0].value > -20",
    "consecutive(a) && a[0].value - a[-1].value > 5",
    "consecutive(a) && sum_over(a, 4) > 0",
    // One subexpression, many thresholds.
    "avg_over(a, 3) - avg_over(b, 3) > 1",
    "avg_over(a, 3) - avg_over(b, 3) > -7",
    "avg_over(a, 3) - avg_over(b, 3) > -7 && c[0].value < 0",
    // Two windows over one variable.
    "avg_over(a, 5) > avg_over(a, 2)",
    // Operand order: an aggregate equals its own newest-first expansion
    // bit for bit, and differs from the oldest-first one whenever f64
    // addition rounds (the values below make it round often).
    "sum_over(a, 3) == a[0].value + a[-1].value + a[-2].value",
    "sum_over(a, 3) != a[-2].value + a[-1].value + a[0].value",
    "max_over(b, 2) >= min_over(c, 3) || b[0].seqno == b[-1].seqno + 1",
    // A decided left operand must leave the right one unread.
    "a[0].value > 1e300 || !(b[-2].value > 0 && false)",
    // Thresholds from here on. One signal under all four operators and
    // both operand orders: the stream lands on 10 exactly, where `>` and
    // `>=` part, and `10 < a` is `a > 10` again, an equal threshold.
    "a[0].value >= 10",
    "a[0].value < 10",
    "a[0].value <= 10",
    "10 < a[0].value",
    "10 <= a[0].value",
    "10 > a[0].value",
    "10 >= a[0].value",
    // Zeros of either sign, as thresholds and as values.
    "a[0].value >= -0",
    "a[0].value > 0",
    "a[0].value < 0",
    "a[0].value <= -0",
    "-a[0].value >= 0",
    "-a[0].value < 0",
    // Infinite thresholds, and an infinite value exactly on one.
    "a[0].value < 1e999",
    "a[0].value > -1e999",
    "a[0].value * 1e300 * 1e300 >= 1e999",
    "-1e999 >= a[0].value * 1e300 * 1e300",
    // 0/0 now and then: a NaN is below nothing.
    "a[0].value / b[0].value <= 1e999",
    // A conjunction in either order is one threshold and a residual.
    "a[0].value - a[-1].value > 5 && consecutive(a)",
    "a[0].value - a[-1].value > -3 && consecutive(a)",
    "consecutive(a) && a[0].value - a[-1].value > 12",
    // True of an empty history of `b`, so only definedness holds it back.
    "consecutive(b) && a[0].value > -100",
    // Two families and a condition outside both over one variable,
    // registered so that slot order is not threshold order.
    "b[0].value > 20",
    "b[0].value < 5",
    "b[0].value != 7",
    "b[0].value > 0",
    "b[0].value < 15",
    "b[0].value > -10",
    "b[0].value < 30",
];

/// One threshold family among the [`FIXED`] shapes: one signal, one
/// operator, no residual. Splitting the condition set puts its members
/// in different registries.
const SPLIT_FAMILY: [&str; 3] = ["b[0].value > 20", "b[0].value > 0", "b[0].value > -10"];

/// Shapes no update satisfies: strictly beyond an infinite threshold,
/// and a signal that is always NaN under each operator.
const NEVER: [&str; 6] = [
    "a[0].value * 1e300 * 1e300 > 1e999",
    "-1e999 > a[0].value * 1e300 * 1e300",
    "(a[0].value - a[0].value) / (a[0].value - a[0].value) < 5",
    "(a[0].value - a[0].value) / (a[0].value - a[0].value) <= 5",
    "(a[0].value - a[0].value) / (a[0].value - a[0].value) > -5",
    "(a[0].value - a[0].value) / (a[0].value - a[0].value) >= -5",
];

/// A comparison against a NaN literal, which the parser cannot spell:
/// `var[0].value < NaN`, or `-NaN >= var[0].value` when `flipped`.
/// Never true, and not a threshold any sorted list can hold.
fn nan_bound(var: VarId, flipped: bool) -> CompiledCondition {
    let term = Box::new(Expr::Term { var, index: 0, field: Field::Value });
    let nan = Box::new(Expr::Num(f64::NAN));
    let ast = if flipped {
        let nan = Box::new(Expr::Unary { op: UnOp::Neg, expr: nan });
        Expr::Binary { op: BinOp::Ge, lhs: nan, rhs: term }
    } else {
        Expr::Binary { op: BinOp::Lt, lhs: term, rhs: nan }
    };
    CompiledCondition::from_expr("NaN bound", ast).unwrap()
}

fn num_expr(rng: &mut Rng, depth: u32) -> String {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(5) {
            0 => format!("{}", rng.below(40)),
            1 => {
                let op = *rng.pick(&["min_over", "max_over", "avg_over", "sum_over"]);
                format!("{op}({}, {})", rng.pick(&VARS), 1 + rng.below(4))
            }
            _ => {
                let field = *rng.pick(&["value", "value", "seqno"]);
                format!("{}[{}].{field}", rng.pick(&VARS), -(rng.below(3) as i64))
            }
        };
    }
    let (l, r) = (num_expr(rng, depth - 1), num_expr(rng, depth - 1));
    match rng.below(8) {
        0 => format!("-({l})"),
        1 => format!("abs({l})"),
        2 => format!("min({l}, {r})"),
        3 => format!("max({l}, {r})"),
        n => format!("({l} {} {r})", ["+", "-", "*", "/"][n - 4]),
    }
}

fn bool_expr(rng: &mut Rng, depth: u32) -> String {
    if depth == 0 || rng.below(3) == 0 {
        return match rng.below(7) {
            0 => format!("consecutive({})", rng.pick(&VARS)),
            1 => format!("{}", rng.below(2) == 0),
            _ => {
                let op = *rng.pick(&["<", "<=", ">", ">=", "==", "!="]);
                format!("({} {op} {})", num_expr(rng, 2), num_expr(rng, 2))
            }
        };
    }
    let (l, r) = (bool_expr(rng, depth - 1), bool_expr(rng, depth - 1));
    match rng.below(3) {
        0 => format!("!({l})"),
        1 => format!("({l} && {r})"),
        _ => format!("({l} || {r})"),
    }
}

/// A random well-typed condition; retries trees that mention no
/// variable, which `compile` rejects.
fn random_condition(rng: &mut Rng, vars: &mut VarRegistry) -> CompiledCondition {
    loop {
        if let Ok(cond) = CompiledCondition::compile(&bool_expr(rng, 3), vars) {
            return cond;
        }
    }
}

/// A stretch of the stream, continuing each variable's seqnos from
/// `next`: mostly consecutive, some gaps, some stale re-sends of the
/// previous seqno, values of mixed magnitude.
fn stretch(rng: &mut Rng, ids: &[VarId], next: &mut [u64]) -> Vec<Update> {
    (0..60 + rng.below(60))
        .map(|_| {
            let v = rng.below(ids.len());
            let seqno = match rng.below(8) {
                0 => next[v].saturating_sub(1).max(1),
                1 => next[v] + 1 + rng.below(2) as u64,
                _ => next[v],
            };
            next[v] = next[v].max(seqno + 1);
            let value = match rng.below(6) {
                0 => 1e16,
                1 => -1e16,
                2 => 0.1 * rng.below(100) as f64,
                _ => rng.below(60) as f64 - 25.0,
            };
            Update::new(ids[v], seqno, value)
        })
        .collect()
}

enum Step {
    Insert(CondId, DynCondition),
    Ingest(Vec<Update>),
    Restart,
}

/// What a condition in the initial registration order is.
enum Kind {
    Fixed(usize),
    Never,
    Other,
}

/// One seed's script, the ids it gave the [`FIXED`] shapes, the
/// [`NEVER`] shapes and NaN bounds, and the two compiled conditions
/// registered right after the restart.
struct Script {
    steps: Vec<Step>,
    fixed: Vec<CondId>,
    never: Vec<CondId>,
    after_restart: [CondId; 2],
}

fn script(seed: u64) -> Script {
    let mut rng = Rng::seed_from_u64(seed);
    let mut vars = VarRegistry::new();
    let mut ids: Vec<VarId> = VARS.iter().map(|n| vars.register(n)).collect();
    ids.push(vars.register("stray"));
    let (a, b) = (ids[0], ids[1]);
    let mut next = vec![1u64; ids.len()];

    let mut conds: Vec<(Kind, DynCondition)> = Vec::new();
    for (shape, src) in FIXED.iter().enumerate() {
        let cond = CompiledCondition::compile(src, &mut vars).unwrap();
        conds.push((Kind::Fixed(shape), Arc::new(cond)));
    }
    for src in NEVER {
        let cond = CompiledCondition::compile(src, &mut vars).unwrap();
        conds.push((Kind::Never, Arc::new(cond)));
    }
    conds.push((Kind::Never, Arc::new(nan_bound(a, false))));
    conds.push((Kind::Never, Arc::new(nan_bound(a, true))));
    // Ready-made conditions, registered between compiled ones: a
    // conservative guard over a compiled condition, and a threshold.
    let rise = CompiledCondition::compile("a[0].value - a[-1].value > 5", &mut vars).unwrap();
    conds.insert(8, (Kind::Other, Arc::new(cond::conservative(rise))));
    conds.insert(3, (Kind::Other, Arc::new(cond::threshold(b, Cmp::Gt, 0.0))));
    for _ in 0..6 {
        let at = rng.below(conds.len() + 1);
        conds.insert(at, (Kind::Other, Arc::new(random_condition(&mut rng, &mut vars))));
    }

    let mut steps: Vec<Step> = Vec::new();
    let mut fixed = vec![CondId::new(0); FIXED.len()];
    let mut never = Vec::new();
    let mut registered = 0u32;
    let mut insert = |steps: &mut Vec<Step>, cond: DynCondition| {
        let id = CondId::new(registered);
        steps.push(Step::Insert(id, cond));
        registered += 1;
        id
    };
    for (kind, cond) in conds {
        let id = insert(&mut steps, cond);
        match kind {
            Kind::Fixed(shape) => fixed[shape] = id,
            Kind::Never => never.push(id),
            Kind::Other => {}
        }
    }
    steps.push(Step::Ingest(stretch(&mut rng, &ids, &mut next)));
    steps.push(Step::Ingest(stretch(&mut rng, &ids, &mut next)));
    steps.push(Step::Restart);
    // Right after a restart: nothing holds history. The first asks for
    // a deeper `a` than anyone before it; the second is one more
    // threshold on a signal whose others have been counting all along.
    let deep = CompiledCondition::compile("consecutive(a) && min_over(a, 6) > -30", &mut vars);
    let joins = CompiledCondition::compile("a[0].value > 3", &mut vars);
    let after_restart =
        [insert(&mut steps, Arc::new(deep.unwrap())), insert(&mut steps, Arc::new(joins.unwrap()))];
    insert(&mut steps, Arc::new(cond::threshold(a, Cmp::Lt, 0.0)));
    steps.push(Step::Ingest(stretch(&mut rng, &ids, &mut next)));
    Script { steps, fixed, never, after_restart }
}

/// What every engine under test and the reference offer.
trait Engine {
    fn insert(&mut self, id: CondId, cond: DynCondition);
    fn ingest(&mut self, updates: &[Update], out: &mut Vec<Alert>);
    fn restart(&mut self);
    fn stats(&self) -> RegistryStats;
}

/// One condition's reference: a history set of its own and its
/// counters.
struct Fold {
    id: CondId,
    cond: DynCondition,
    histories: HistorySet,
    emitted: u64,
    ingested: u64,
    dropped_stale: u64,
}

impl Fold {
    /// Push → stale drop → count → defined && eval → alert with the
    /// condition's next emission index.
    fn offer(&mut self, u: Update, ce: CeId) -> Option<Alert> {
        if self.histories.push(u).is_err() {
            self.dropped_stale += 1;
            return None;
        }
        self.ingested += 1;
        if !self.histories.is_defined() || !self.cond.eval(&self.histories) {
            return None;
        }
        let (fingerprint, snapshot) = (self.histories.fingerprint(), self.histories.snapshot());
        let alert = Alert::new(self.id, fingerprint, snapshot, AlertId { ce, index: self.emitted });
        self.emitted += 1;
        Some(alert)
    }
}

/// The reference: one fold per condition, offered every update for a
/// variable its condition reads, in registration order.
struct Folds {
    ce: CeId,
    all: Vec<Fold>,
    unrouted: u64,
}

impl Engine for Folds {
    fn insert(&mut self, id: CondId, cond: DynCondition) {
        let histories = HistorySet::new(cond.history_spec());
        self.all.push(Fold { id, cond, histories, emitted: 0, ingested: 0, dropped_stale: 0 });
    }

    fn ingest(&mut self, updates: &[Update], out: &mut Vec<Alert>) {
        for &u in updates {
            let mut routed = false;
            for fold in &mut self.all {
                if fold.cond.degree(u.var) > 0 {
                    routed = true;
                    out.extend(fold.offer(u, self.ce));
                }
            }
            self.unrouted += u64::from(!routed);
        }
    }

    fn restart(&mut self) {
        for fold in &mut self.all {
            fold.histories.clear();
        }
    }

    fn stats(&self) -> RegistryStats {
        let mut s = RegistryStats { unrouted: self.unrouted, ..RegistryStats::default() };
        for fold in &self.all {
            s.ingested += fold.ingested;
            s.dropped_stale += fold.dropped_stale;
            s.emitted += fold.emitted;
        }
        s
    }
}

/// How a registry under test is fed.
enum Feed {
    Batched,
    Stepped,
    Chunked(Rng),
}

struct Registry(ConditionRegistry, Feed);

impl Engine for Registry {
    fn insert(&mut self, id: CondId, cond: DynCondition) {
        self.0.insert(id, cond);
    }

    fn ingest(&mut self, updates: &[Update], out: &mut Vec<Alert>) {
        match &mut self.1 {
            Feed::Batched => self.0.ingest_batch(updates, out),
            Feed::Stepped => updates.iter().for_each(|&u| self.0.ingest(u, out)),
            Feed::Chunked(rng) => {
                let mut rest = updates;
                while !rest.is_empty() {
                    let (chunk, tail) = rest.split_at((1 + rng.below(7)).min(rest.len()));
                    self.0.ingest_batch(chunk, out);
                    rest = tail;
                }
            }
        }
    }

    fn restart(&mut self) {
        self.0.restart();
    }

    fn stats(&self) -> RegistryStats {
        self.0.stats()
    }
}

/// The condition set split `cond_id % n` over `n` registries, each fed
/// every update; one update's alerts are merged by condition id.
struct Partitions(Vec<ConditionRegistry>);

impl Engine for Partitions {
    fn insert(&mut self, id: CondId, cond: DynCondition) {
        let n = self.0.len();
        self.0[id.index() as usize % n].insert(id, cond);
    }

    fn ingest(&mut self, updates: &[Update], out: &mut Vec<Alert>) {
        for &u in updates {
            let from = out.len();
            self.0.iter_mut().for_each(|part| part.ingest(u, out));
            out[from..].sort_by_key(|al| al.cond);
        }
    }

    fn restart(&mut self) {
        self.0.iter_mut().for_each(ConditionRegistry::restart);
    }

    fn stats(&self) -> RegistryStats {
        let mut sum = RegistryStats::default();
        for s in self.0.iter().map(ConditionRegistry::stats) {
            sum.ingested += s.ingested;
            sum.dropped_stale += s.dropped_stale;
            sum.emitted += s.emitted;
            sum.unrouted += s.unrouted;
        }
        sum
    }
}

/// Runs `steps` on `engine`, appending its alerts to `out`, and
/// returns its counters after them.
fn run_into(engine: &mut dyn Engine, steps: &[Step], out: &mut Vec<Alert>) -> RegistryStats {
    for step in steps {
        match step {
            Step::Insert(id, cond) => engine.insert(*id, Arc::clone(cond)),
            Step::Ingest(updates) => engine.ingest(updates, out),
            Step::Restart => engine.restart(),
        }
    }
    engine.stats()
}

fn run(engine: &mut dyn Engine, steps: &[Step]) -> (Vec<Alert>, RegistryStats) {
    let mut out = Vec::new();
    let stats = run_into(engine, steps, &mut out);
    (out, stats)
}

/// `==` on alerts is the paper's identity (condition + fingerprint);
/// this also compares provenance and the snapshot, values by bit.
fn assert_same_alerts(got: &[Alert], want: &[Alert], what: &str) {
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g, w, "{what}: alert {i}");
        assert_eq!(g.id, w.id, "{what}: alert {i} id");
        assert_eq!(g.snapshot.len(), w.snapshot.len(), "{what}: alert {i} snapshot");
        for (gu, wu) in g.updates().zip(w.updates()) {
            assert_eq!((gu.var, gu.seqno), (wu.var, wu.seqno), "{what}: alert {i} snapshot");
            assert_eq!(gu.value.to_bits(), wu.value.to_bits(), "{what}: alert {i} snapshot");
        }
    }
    assert_eq!(got.len(), want.len(), "{what}: alert count");
}

#[test]
fn registry_matches_independent_evaluators() {
    let ce = CeId::new(5);
    let mut fired = vec![0usize; FIXED.len()];
    let (mut fired_after_restart, mut stale, mut strays) = ([0usize; 2], 0u64, 0u64);
    // Per partition count, the seeds in which members of `SPLIT_FAMILY`
    // sat in two partitions and alerts came from both.
    let mut family_split = [0usize; 3];
    for seed in 0..30u64 {
        let Script { steps, fixed, never, after_restart } = script(seed);
        let (want, want_stats) = run(&mut Folds { ce, all: Vec::new(), unrouted: 0 }, &steps);

        let feeds = [Feed::Batched, Feed::Stepped, Feed::Chunked(Rng::seed_from_u64(!seed))];
        for (f, feed) in feeds.into_iter().enumerate() {
            let what = format!("seed {seed}, feed {f}");
            let (got, stats) = run(&mut Registry(ConditionRegistry::new(ce), feed), &steps);
            assert_same_alerts(&got, &want, &what);
            assert_eq!(stats, want_stats, "{what}");
        }
        for (w, n) in [1usize, 2, 4].into_iter().enumerate() {
            let what = format!("seed {seed}, {n} partitions");
            let parts = (0..n).map(|_| ConditionRegistry::new(ce)).collect();
            let (got, stats) = run(&mut Partitions(parts), &steps);
            assert_same_alerts(&got, &want, &what);
            // A stray is unrouted once per partition that ignores it,
            // so only the per-condition sums compare.
            let stats = RegistryStats { unrouted: want_stats.unrouted, ..stats };
            assert_eq!(stats, want_stats, "{what}");
            // Whether this split parted the family: members that fired,
            // by partition.
            let alerting: BTreeSet<usize> = SPLIT_FAMILY
                .iter()
                .map(|src| fixed[FIXED.iter().position(|f| f == src).unwrap()])
                .filter(|id| want.iter().any(|al| al.cond == *id))
                .map(|id| id.index() as usize % n)
                .collect();
            family_split[w] += usize::from(alerting.len() >= 2);
        }

        for (shape, id) in fixed.iter().enumerate() {
            fired[shape] += want.iter().filter(|al| al.cond == *id).count();
        }
        for (n, id) in fired_after_restart.iter_mut().zip(after_restart) {
            *n += want.iter().filter(|al| al.cond == id).count();
        }
        assert!(
            !want.iter().any(|al| never.contains(&al.cond)),
            "seed {seed}: a NEVER shape fired"
        );
        stale += want_stats.dropped_stale;
        strays += want_stats.unrouted;
    }
    // The sweep exercised what it claims to.
    for (shape, n) in fired.iter().enumerate() {
        assert!(*n > 0, "`{}` never fired", FIXED[shape]);
    }
    assert!(fired_after_restart.iter().all(|&n| n > 0) && stale > 0 && strays > 0);
    assert_eq!(family_split[0], 0, "one partition cannot part a family");
    assert!(family_split[1] > 0 && family_split[2] > 0, "no split parted {SPLIT_FAMILY:?}");
}

/// A registry copied for replica `k` ([`ConditionRegistry::for_replica`])
/// emits exactly what one built from scratch for `k` does — ids,
/// fingerprints, snapshots and counters — across `restart()` and an
/// `insert` after it, whether it is copied once the conditions are
/// hosted (as a system does) or in the middle of the stream; and the
/// copy leaves its original as it was.
#[test]
fn a_registry_copied_for_a_replica_emits_what_one_built_for_it_does() {
    for seed in 0..30u64 {
        let Script { steps, .. } = script(seed);
        let hosted = steps.iter().position(|s| matches!(s, Step::Ingest(_))).unwrap();
        let restart = steps.iter().position(|s| matches!(s, Step::Restart)).unwrap();
        let mut original = Registry(ConditionRegistry::new(CeId::new(0)), Feed::Batched);
        let mut before = Vec::new();
        let mut copies = Vec::new();
        for (at, step) in steps.iter().enumerate() {
            if at == hosted || at == restart {
                for k in [1, 3] {
                    let copy = original.0.for_replica(CeId::new(k));
                    copies.push((at, k, before.len(), Registry(copy, Feed::Batched)));
                }
            }
            run_into(&mut original, std::slice::from_ref(step), &mut before);
        }
        let original_stats = original.stats();
        for (at, k, skip, mut copy) in copies {
            let what = format!("seed {seed}, replica {k} copied before step {at}");
            let mut scratch = Registry(ConditionRegistry::new(CeId::new(k)), Feed::Batched);
            let (mut want, mut got) = (Vec::new(), Vec::new());
            let want_stats = run_into(&mut scratch, &steps, &mut want);
            let stats = run_into(&mut copy, &steps[at..], &mut got);
            assert_same_alerts(&got, &want[skip..], &what);
            assert_eq!(stats, want_stats, "{what}");
            assert!(got.iter().all(|al| al.id.ce == CeId::new(k)), "{what}");
        }
        // The original went on as if never copied.
        let scratch = &mut Registry(ConditionRegistry::new(CeId::new(0)), Feed::Batched);
        let (want, want_stats) = run(scratch, &steps);
        assert_same_alerts(&before, &want, &format!("seed {seed}, original"));
        assert_eq!(original_stats, want_stats, "seed {seed}, original");
    }
}

/// Per-condition alert numbering survives `restart()` for family
/// members and conditions on their own alike, and a stale update counts
/// once per subscriber.
#[test]
fn numbering_and_stale_counts_are_per_condition() {
    let mut vars = VarRegistry::new();
    let x = vars.register("x");
    let mut reg = ConditionRegistry::new(CeId::new(0));
    let shared = reg.add_compiled(CompiledCondition::compile("x[0].value > 0", &mut vars).unwrap());
    let also = reg.add_compiled(CompiledCondition::compile("x[0].value > 1", &mut vars).unwrap());
    let built = reg.add_compiled(cond::threshold(x, Cmp::Gt, 0.0));
    let mut out = Vec::new();
    reg.ingest(Update::new(x, 1, 1.0), &mut out);
    reg.ingest(Update::new(x, 1, 1.0), &mut out); // stale for all three
    assert_eq!(
        reg.stats(),
        RegistryStats { ingested: 3, dropped_stale: 3, emitted: 2, unrouted: 0 }
    );
    reg.restart();
    reg.ingest(Update::new(x, 1, 2.0), &mut out);
    let ids: Vec<(CondId, u64)> = out.iter().map(|al| (al.cond, al.id.index)).collect();
    assert_eq!(ids, vec![(shared, 0), (built, 0), (shared, 1), (also, 0), (built, 1)]);
    assert_eq!(reg.alerts_emitted(shared), Some(2));
    assert_eq!(reg.alerts_emitted(also), Some(1));
    assert_eq!(reg.alerts_emitted(CondId::new(9)), None);
}

/// A condition registered after one of its variables holds history is
/// refused, and the refusal leaves the registry as it was; after a
/// `restart()` the same condition joins, here as one more threshold of
/// a family that has been counting all along.
#[test]
fn a_late_registration_is_refused_and_one_after_a_restart_joins() {
    let mut vars = VarRegistry::new();
    let mut compile = |src: &str| CompiledCondition::compile(src, &mut vars).unwrap();
    let (first, late) = (compile("x[0].value > 0"), compile("x[0].value > 1"));
    let (over_y, over_xy) = (compile("y[0].value > 0"), compile("x[0].value + y[0].value > 0"));
    let x = vars.lookup("x").unwrap();
    let mut reg = ConditionRegistry::new(CeId::new(0));
    let first = reg.add_compiled(first);
    let mut out = Vec::new();
    reg.ingest(Update::new(x, 1, 2.0), &mut out);
    for refused in [&late, &over_xy] {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reg.add_compiled(refused.clone());
        }))
        .expect_err("x holds history the newcomer has not seen");
        let message = payload.downcast_ref::<String>().map_or("", String::as_str);
        assert!(message.contains("holds history"), "{message:?}");
    }
    assert_eq!(reg.len(), 1);
    // `y` holds nothing yet, so a condition over it alone may join.
    let y_only = reg.add_compiled(over_y);
    assert_eq!(y_only, CondId::new(1));

    reg.restart();
    let joined = reg.add_compiled(late);
    assert_eq!(joined, CondId::new(2));
    reg.ingest(Update::new(x, 2, 2.0), &mut out);
    reg.ingest(Update::new(x, 2, 2.0), &mut out); // stale for both members
    let fired: Vec<(CondId, u64)> = out.iter().map(|al| (al.cond, al.id.index)).collect();
    assert_eq!(fired, vec![(first, 0), (first, 1), (joined, 0)]);
    // `first` counted 2 accepted and 1 stale, `joined` 1 and 1.
    assert_eq!(
        reg.stats(),
        RegistryStats { ingested: 3, dropped_stale: 2, emitted: 3, unrouted: 0 }
    );
}
