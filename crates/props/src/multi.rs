//! The completeness and consistency checkers, each for any variable
//! count (paper §3.1, §5 and Appendix C).

use std::collections::{BTreeMap, BTreeSet, HashSet};

use rcm_core::condition::expr::CompiledCondition;
use rcm_core::seq::spanning_gaps;
use rcm_core::{transduce, Alert, CeId, Update, VarId};

use crate::util::{merge_per_var, CompleteReport, ConsistentReport, Replay};

/// Maximum combined update count the completeness checker accepts when
/// it must enumerate interleavings of two or more variables (the
/// enumeration is exponential).
pub const MULTI_ENUM_CAP: usize = 18;

/// Checks **completeness**, over any number of variables: does some
/// interleaving `U_V` of the per-variable ordered unions satisfy
/// `ΦA = ΦT(U_V)` (Appendix C)? Over one variable the only `U_V` is
/// `U1 ⊔ U2 ⊔ …`, and the check is `ΦA = ΦT(U1 ⊔ U2 ⊔ …)` (§3.1): the
/// reference is the paper's corresponding non-replicated system `N`
/// run over the ordered union of all replica inputs.
///
/// Over two or more variables the checker enumerates interleavings
/// exhaustively, so it is exact but exponential; such inputs are
/// capped at [`MULTI_ENUM_CAP`] combined updates. One variable replays
/// its one union, at any length.
///
/// # Panics
///
/// Panics if the inputs span two or more variables and the combined
/// update count exceeds [`MULTI_ENUM_CAP`].
pub fn check_complete_multi(
    cond: &CompiledCondition,
    inputs: &[Vec<Update>],
    displayed: &[Alert],
) -> CompleteReport {
    let merged = merge_per_var(inputs);
    let lists: Vec<Vec<Update>> = merged.into_values().collect();
    let total: usize = lists.iter().map(Vec::len).sum();
    assert!(
        lists.len() < 2 || total <= MULTI_ENUM_CAP,
        "completeness enumeration capped at {MULTI_ENUM_CAP} combined updates, got {total}"
    );
    let displayed_set: HashSet<&Alert> = displayed.iter().collect();

    // Track the interleaving with the smallest symmetric difference for
    // the failure report.
    let mut best: Option<(usize, Vec<Alert>)> = None;
    let mut found = false;
    let mut replay = Replay::new(cond);
    let mut visit = |candidate: &[Update]| {
        let expected = replay.run(candidate);
        let expected_set: HashSet<&Alert> = expected.iter().collect();
        let missing = expected.iter().filter(|a| !displayed_set.contains(*a)).count();
        let extraneous = displayed.iter().filter(|a| !expected_set.contains(a)).count();
        let diff = missing + extraneous;
        if best.as_ref().is_none_or(|(d, _)| diff < *d) {
            best = Some((diff, expected));
        }
        if diff == 0 {
            found = true;
        }
        found // stop once a witness interleaving is found
    };
    if let [only] = &lists[..] {
        visit(only);
    } else {
        enumerate_merges(&lists, &mut visit);
    }
    if found {
        return CompleteReport::from_sets(vec![], vec![]);
    }
    let (_, expected) = best.expect("at least one interleaving exists");
    let expected_set: HashSet<&Alert> = expected.iter().collect();
    let missing = expected.iter().filter(|a| !displayed_set.contains(*a)).cloned().collect();
    let extraneous = displayed.iter().filter(|a| !expected_set.contains(a)).cloned().collect();
    CompleteReport::from_sets(missing, extraneous)
}

/// Enumerates every order-preserving merge of `lists`, invoking the
/// visitor on each; the visitor returns `true` to stop early. Returns
/// whether the enumeration was stopped.
pub(crate) fn enumerate_merges(
    lists: &[Vec<Update>],
    visit: &mut impl FnMut(&[Update]) -> bool,
) -> bool {
    let total: usize = lists.iter().map(Vec::len).sum();
    let mut cursor = vec![0usize; lists.len()];
    let mut buf: Vec<Update> = Vec::with_capacity(total);
    dfs(lists, &mut cursor, &mut buf, total, visit)
}

fn dfs(
    lists: &[Vec<Update>],
    cursor: &mut [usize],
    buf: &mut Vec<Update>,
    total: usize,
    visit: &mut impl FnMut(&[Update]) -> bool,
) -> bool {
    if buf.len() == total {
        return visit(buf);
    }
    for i in 0..lists.len() {
        if cursor[i] < lists[i].len() {
            buf.push(lists[i][cursor[i]]);
            cursor[i] += 1;
            let stop = dfs(lists, cursor, buf, total, visit);
            cursor[i] -= 1;
            buf.pop();
            if stop {
                return true;
            }
        }
    }
    false
}

/// Checks **consistency** (Appendix C), over any number of variables:
/// does some `U' ⊑ U_V` (for some interleaving `U_V`) satisfy
/// `ΦA ⊆ ΦT(U')`? Over one variable `U_V` is `U1 ⊔ U2 ⊔ …`, step 1 is
/// the proof of Theorem 7, and the witness is the received updates in
/// seqno order.
///
/// Decision procedure (following the proof of Lemma 5):
///
/// 1. per variable, accumulate `Received`/`Missed` requirements from
///    every displayed alert exactly as in AD-3; a received/missed clash
///    is inconsistent;
/// 2. build the per-variable witness sequences (the received updates)
///    and a precedence graph: per-variable stream order, plus, for each
///    alert and each ordered variable pair `(v, w)`, an edge from the
///    alert's head update of `v` to the witness successor of its head
///    update of `w` (the alert must trigger after all its heads and
///    before any variable advances past them);
/// 3. `A` is consistent iff the graph is acyclic. On success the
///    topological order materializes a witness interleaving, which is
///    verified by running `T` over it.
pub fn check_consistent_multi(
    cond: &CompiledCondition,
    inputs: &[Vec<Update>],
    displayed: &[Alert],
) -> ConsistentReport {
    let pool = merge_per_var(inputs);
    if displayed.is_empty() {
        return ConsistentReport::consistent(vec![]);
    }

    // Step 1: per-variable received/missed accumulation.
    let mut received: BTreeMap<VarId, BTreeSet<u64>> = BTreeMap::new();
    let mut missed: BTreeMap<VarId, BTreeSet<u64>> = BTreeMap::new();
    let vars: Vec<VarId> = match displayed.first() {
        Some(a) => a.fingerprint.variables().collect(),
        None => vec![],
    };
    for alert in displayed {
        for var in &vars {
            let Some(seqnos) = alert.fingerprint.seqnos(*var) else {
                return ConsistentReport::inconsistent(format!(
                    "alert {alert} does not mention variable {var}"
                ));
            };
            let hx: BTreeSet<u64> = seqnos.iter().map(|s| s.get()).collect();
            missed.entry(*var).or_default().extend(spanning_gaps(&hx));
            received.entry(*var).or_default().extend(hx);
        }
    }
    let empty = BTreeSet::new();
    for var in &vars {
        let r = received.get(var).unwrap_or(&empty);
        let m = missed.get(var).unwrap_or(&empty);
        if let Some(&clash) = r.intersection(m).next() {
            return ConsistentReport::inconsistent(format!(
                "update {clash} of {var} must be both received and missed by U'"
            ));
        }
    }

    // Step 2: witness streams and node indexing.
    let mut witness: BTreeMap<VarId, Vec<Update>> = BTreeMap::new();
    for var in &vars {
        let want = received.get(var).unwrap_or(&empty);
        let have: Vec<Update> = pool
            .get(var)
            .map(|us| us.iter().filter(|u| want.contains(&u.seqno.get())).copied().collect())
            .unwrap_or_default();
        if have.len() != want.len() {
            return ConsistentReport::inconsistent(format!(
                "some displayed alert references a seqno of {var} no replica ever received"
            ));
        }
        witness.insert(*var, have);
    }
    let mut index: BTreeMap<(VarId, u64), usize> = BTreeMap::new();
    let mut nodes: Vec<Update> = Vec::new();
    for (var, stream) in &witness {
        for u in stream {
            index.insert((*var, u.seqno.get()), nodes.len());
            nodes.push(*u);
        }
    }

    // Edges: per-variable stream order…
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    for (var, stream) in &witness {
        for w in stream.windows(2) {
            adj[index[&(*var, w[0].seqno.get())]].push(index[&(*var, w[1].seqno.get())]);
        }
    }
    // …plus per-alert trigger-window constraints.
    for alert in displayed {
        for v in &vars {
            let hv = alert.seqno(*v).expect("checked above").get();
            let from = index[&(*v, hv)];
            for w in &vars {
                if v == w {
                    continue;
                }
                let hw = alert.seqno(*w).expect("checked above").get();
                // Successor of h_w in the witness stream of w.
                let succ = witness[w].iter().find(|u| u.seqno.get() > hw);
                if let Some(succ) = succ {
                    adj[from].push(index[&(*w, succ.seqno.get())]);
                }
            }
        }
    }

    // Step 3: cycle detection + topological order (Kahn).
    let mut indeg = vec![0usize; nodes.len()];
    for outs in &adj {
        for &t in outs {
            indeg[t] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..nodes.len()).filter(|&i| indeg[i] == 0).collect();
    let mut topo: Vec<Update> = Vec::with_capacity(nodes.len());
    while let Some(i) = queue.pop() {
        topo.push(nodes[i]);
        for &t in &adj[i] {
            indeg[t] -= 1;
            if indeg[t] == 0 {
                queue.push(t);
            }
        }
    }
    if topo.len() != nodes.len() {
        return ConsistentReport::inconsistent(
            "precedence cycle: no interleaving satisfies all displayed alerts".into(),
        );
    }

    // Belt and braces: the topological order is a concrete U'; verify
    // ΦA ⊆ ΦT(U').
    let reference = transduce(cond, CeId::new(u32::MAX), &topo);
    let reference_set: HashSet<&Alert> = reference.iter().collect();
    for alert in displayed {
        if !reference_set.contains(alert) {
            return ConsistentReport::inconsistent(format!(
                "alert {alert} not generated by T over the topological witness"
            ));
        }
    }
    ConsistentReport::consistent(topo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_ordered;
    use rcm_core::ad::{apply_filter, Ad1, Ad5};
    use rcm_core::condition::cond;

    fn x() -> VarId {
        VarId::new(0)
    }
    fn y() -> VarId {
        VarId::new(1)
    }

    fn ux(s: u64, v: f64) -> Update {
        Update::new(x(), s, v)
    }
    fn uy(s: u64, v: f64) -> Update {
        Update::new(y(), s, v)
    }

    /// The Theorem 10 scenario: lossless links, cm = |x−y| > 100,
    /// different interleavings at the two CEs.
    fn theorem_10() -> (CompiledCondition, Vec<Update>, Vec<Update>, Vec<Alert>, Vec<Alert>) {
        let cm = cond::abs_difference(x(), y(), 100.0);
        let u1 = vec![ux(1, 1000.0), ux(2, 1200.0), uy(1, 1050.0), uy(2, 1150.0)];
        let u2 = vec![uy(1, 1050.0), uy(2, 1150.0), ux(1, 1000.0), ux(2, 1200.0)];
        let a1 = transduce(&cm, CeId::new(1), &u1);
        let a2 = transduce(&cm, CeId::new(2), &u2);
        (cm, u1, u2, a1, a2)
    }

    #[test]
    fn theorem_10_ce_outputs_match_paper() {
        let (_, _, _, a1, a2) = theorem_10();
        // A1 = ⟨a(2x,1y)⟩: CE1 triggers when 1y arrives (|1200−1050|=150).
        assert_eq!(a1.len(), 1);
        assert_eq!(a1[0].seqno(x()).unwrap().get(), 2);
        assert_eq!(a1[0].seqno(y()).unwrap().get(), 1);
        // A2 = ⟨a(1x,2y)⟩: CE2 triggers when 1x arrives (|1000−1150|=150).
        assert_eq!(a2.len(), 1);
        assert_eq!(a2[0].seqno(x()).unwrap().get(), 1);
        assert_eq!(a2[0].seqno(y()).unwrap().get(), 2);
    }

    #[test]
    fn theorem_10_ad1_inconsistent_and_unordered() {
        let (cm, u1, u2, a1, a2) = theorem_10();
        let arrivals: Vec<Alert> = a1.iter().chain(a2.iter()).cloned().collect();
        let a = apply_filter(&mut Ad1::new(), &arrivals);
        assert_eq!(a.len(), 2);
        assert!(!check_ordered(&a, &[x(), y()]).ok);
        let cons = check_consistent_multi(&cm, &[u1, u2], &a);
        assert!(!cons.ok);
        assert!(cons.conflict.unwrap().contains("cycle"));
    }

    #[test]
    fn theorem_10_single_alert_is_consistent() {
        let (cm, u1, u2, a1, _) = theorem_10();
        let cons = check_consistent_multi(&cm, &[u1, u2], &a1);
        assert!(cons.ok, "{:?}", cons.conflict);
        // Witness contains exactly the received updates: 2x and 1y.
        let w = cons.witness.unwrap();
        assert_eq!(w.len(), 2);
    }

    #[test]
    fn ad5_restores_consistency_on_theorem_10() {
        let (cm, u1, u2, a1, a2) = theorem_10();
        let arrivals: Vec<Alert> = a1.iter().chain(a2.iter()).cloned().collect();
        let a = apply_filter(&mut Ad5::new([x(), y()]), &arrivals);
        assert_eq!(a.len(), 1);
        assert!(check_ordered(&a, &[x(), y()]).ok);
        assert!(check_consistent_multi(&cm, &[u1, u2], &a).ok);
    }

    /// Lemma 6's synthetic condition: satisfied by exactly the update
    /// pairs (8x, 2y), (8x, 3y), (8x, 4y).
    fn lemma_6_cond() -> CompiledCondition {
        let mut vars = rcm_core::VarRegistry::new();
        assert_eq!((vars.register("x"), vars.register("y")), (x(), y()));
        let src = "x[0].seqno == 8 && y[0].seqno >= 2 && y[0].seqno <= 4";
        CompiledCondition::compile(src, &mut vars).unwrap()
    }

    #[test]
    fn lemma_6_incompleteness() {
        // CE1 sees ⟨8x, 2y, 9x, 3y, 4y⟩ → a(8x, 2y);
        // CE2 sees ⟨2y, 3y, 7x, 4y, 8x⟩ → a(8x, 4y).
        let c = lemma_6_cond();
        let u1 = vec![ux(8, 0.0), uy(2, 0.0), ux(9, 0.0), uy(3, 0.0), uy(4, 0.0)];
        let u2 = vec![uy(2, 0.0), uy(3, 0.0), ux(7, 0.0), uy(4, 0.0), ux(8, 0.0)];
        let a1 = transduce(&c, CeId::new(1), &u1);
        let a2 = transduce(&c, CeId::new(2), &u2);
        assert_eq!(a1.len(), 1);
        assert_eq!(a2.len(), 1);
        let arrivals: Vec<Alert> = a1.iter().chain(a2.iter()).cloned().collect();
        let a = apply_filter(&mut Ad5::new([x(), y()]), &arrivals);
        assert_eq!(a.len(), 2); // AD-5 passes both (y advances 2 → 4)
                                // No interleaving yields exactly {a(8x,2y), a(8x,4y)} without
                                // also yielding a(8x,3y): the system is incomplete (Lemma 6)…
        let comp = check_complete_multi(&c, &[u1.clone(), u2.clone()], &a);
        assert!(!comp.ok);
        // The best interleaving either misses one displayed alert or
        // additionally produces a(8x, 3y); either way the diff is real.
        assert!(!comp.missing.is_empty() || !comp.extraneous.is_empty());
        // …yet consistent (Lemma 5): some U' ⊑ U_V explains both alerts.
        let cons = check_consistent_multi(&c, &[u1, u2], &a);
        assert!(cons.ok, "{:?}", cons.conflict);
    }

    #[test]
    fn complete_when_displayed_matches_some_interleaving() {
        let (cm, u1, u2, a1, _) = theorem_10();
        // A = A1 exactly matches T of CE1's own interleaving.
        let comp = check_complete_multi(&cm, &[u1, u2], &a1);
        assert!(comp.ok, "missing={:?} extra={:?}", comp.missing, comp.extraneous);
    }

    #[test]
    fn empty_execution_consistent_and_complete() {
        let cm = cond::abs_difference(x(), y(), 100.0);
        assert!(check_consistent_multi(&cm, &[vec![], vec![]], &[]).ok);
        assert!(check_complete_multi(&cm, &[vec![], vec![]], &[]).ok);
    }

    #[test]
    fn enumerate_merges_counts() {
        let lists = vec![vec![ux(1, 0.0), ux(2, 0.0)], vec![uy(1, 0.0)]];
        let mut n = 0;
        enumerate_merges(&lists, &mut |_| {
            n += 1;
            false
        });
        assert_eq!(n, 3); // C(3,1)
    }

    /// Every merge of two lists: what [`enumerate_merges`] visits.
    fn merges_of_two(left: &[Update], right: &[Update]) -> Vec<Vec<Update>> {
        let mut all = Vec::new();
        enumerate_merges(&[left.to_vec(), right.to_vec()], &mut |m| {
            all.push(m.to_vec());
            false
        });
        all
    }

    #[test]
    fn two_lists_merge_in_binomially_many_ways() {
        let count = |n: u64, m: u64| {
            let left: Vec<Update> = (1..=n).map(|s| ux(s, 0.0)).collect();
            let right: Vec<Update> = (1..=m).map(|s| uy(s, 0.0)).collect();
            merges_of_two(&left, &right).len()
        };
        assert_eq!(count(0, 0), 1); // the empty merge
        assert_eq!(count(1, 0), 1);
        assert_eq!(count(2, 2), 6);
        assert_eq!(count(3, 3), 20);
        assert_eq!(count(4, 2), 15);
    }

    #[test]
    fn two_lists_with_an_empty_side_merge_one_way() {
        assert_eq!(merges_of_two(&[], &[uy(1, 0.0), uy(2, 0.0)]), [[uy(1, 0.0), uy(2, 0.0)]]);
        assert_eq!(merges_of_two(&[], &[]), [Vec::<Update>::new()]);
    }

    /// Two lists of 0..=`size` updates, of `x` and of `y`.
    fn two_lists(rng: &mut rcm_net::Rng, size: usize) -> (Vec<Update>, Vec<Update>) {
        let mut draw = |var: VarId| -> Vec<Update> {
            (0..rng.below(size + 1) as u64)
                .map(|s| Update::new(var, s + 1, rng.next_f64()))
                .collect()
        };
        (draw(x()), draw(y()))
    }

    #[test]
    fn every_merge_of_two_lists_keeps_both_orders() {
        rcm_net::cases("every_merge_of_two_lists_keeps_both_orders", 256, 4, |rng, size| {
            let (left, right) = two_lists(rng, size);
            for merged in merges_of_two(&left, &right) {
                assert_eq!(merged.len(), left.len() + right.len());
                assert!(rcm_core::seq::is_subsequence(&left, &merged));
                assert!(rcm_core::seq::is_subsequence(&right, &merged));
            }
        });
    }

    #[test]
    fn merges_of_two_lists_are_distinct() {
        rcm_net::cases("merges_of_two_lists_are_distinct", 256, 4, |rng, size| {
            let (left, right) = two_lists(rng, size);
            let all = merges_of_two(&left, &right);
            let keys: BTreeSet<Vec<(u32, u64)>> = all
                .iter()
                .map(|m| m.iter().map(|u| (u.var.index(), u.seqno.get())).collect())
                .collect();
            assert_eq!(keys.len(), all.len());
        });
    }

    #[test]
    #[should_panic(expected = "capped")]
    fn completeness_cap_enforced() {
        let cm = cond::abs_difference(x(), y(), 100.0);
        let long: Vec<Update> = (1..=MULTI_ENUM_CAP as u64).map(|s| ux(s, 0.0)).collect();
        check_complete_multi(&cm, &[long, vec![uy(1, 0.0)]], &[]);
    }

    /// One variable has one interleaving: its union is replayed once,
    /// however long, and a lost alert is still reported.
    #[test]
    fn one_variable_is_replayed_past_the_cap() {
        let c = cond::delta_rise(x(), 1.0);
        let u1: Vec<Update> = (1..=500).map(|s| ux(s, s as f64 * 2.0)).collect();
        let u2: Vec<Update> = u1.iter().copied().filter(|u| u.seqno.get() % 3 != 0).collect();
        let mut shown = transduce(&c, CeId::new(1), &u1);
        assert!(check_complete_multi(&c, &[u1.clone(), u2.clone()], &shown).ok);
        let lost = shown.remove(7);
        let report = check_complete_multi(&c, &[u1, u2], &shown);
        assert!(!report.ok);
        assert_eq!(report.missing, vec![lost]);
    }

    #[test]
    fn per_var_conflict_detected_before_graph() {
        // Two alerts with clashing x histories (received vs missed).
        let cm = cond::abs_difference(x(), y(), 100.0);
        let mk = |xs: Vec<u64>, ys: Vec<u64>| {
            Alert::new(
                rcm_core::CondId::SINGLE,
                rcm_core::HistoryFingerprint::new(vec![
                    (x(), xs.into_iter().map(rcm_core::SeqNo::new).collect()),
                    (y(), ys.into_iter().map(rcm_core::SeqNo::new).collect()),
                ]),
                vec![],
                rcm_core::AlertId { ce: CeId::new(0), index: 0 },
            )
        };
        // Degree-2 x histories: {1,3} (2 missed) vs {2,3} (2 received).
        let a = vec![mk(vec![3, 1], vec![1]), mk(vec![3, 2], vec![1])];
        let pool = vec![ux(1, 0.0), ux(2, 0.0), ux(3, 0.0), uy(1, 0.0)];
        let cons = check_consistent_multi(&cm, &[pool], &a);
        assert!(!cons.ok);
        assert!(cons.conflict.unwrap().contains("received and missed"));
    }
}
