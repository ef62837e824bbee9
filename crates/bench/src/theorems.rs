//! The theorem-level artifacts: Theorem 10's worked counterexample, the
//! §4.1 domination results (Theorems 6 & 8), maximality (Theorems 5, 7
//! & 9), the replica-count sweep and the AD-6 ablation.

use rcm_core::ad::{apply_filter, Ad1, Ad2, Ad3, Ad4, Ad5, Ad6, AlertFilter};
use rcm_core::condition::cond;
use rcm_core::{transduce, Alert, CeId, Update, VarId};
use rcm_json::Json;
use rcm_props::domination::{check_domination, DominationReport};
use rcm_props::maximality::{duplicate_free, probe_one_extra, seqno_duplicate_free};
use rcm_props::{check_consistent_multi, check_ordered};
use rcm_sim::montecarlo::{evaluate_cell_n, FilterKind, ScenarioKind, Topology};

use crate::executions;
use crate::record::{col, Col, Record, Table};

/// Replays the proof of Theorem 10: two CEs see lossless but
/// differently interleaved updates of `x` and `y`, and AD-1's output is
/// neither ordered nor consistent.
pub(crate) fn thm10_counterexample() -> Record {
    let x = VarId::new(0);
    let y = VarId::new(1);
    let cm = cond::abs_difference(x, y, 100.0);
    let ux = |s, v| Update::new(x, s, v);
    let uy = |s, v| Update::new(y, s, v);
    let u1 = vec![ux(1, 1000.0), ux(2, 1200.0), uy(1, 1050.0), uy(2, 1150.0)];
    let u2 = vec![uy(1, 1050.0), uy(2, 1150.0), ux(1, 1000.0), ux(2, 1200.0)];
    let a1 = transduce(&cm, CeId::new(1), &u1);
    let a2 = transduce(&cm, CeId::new(2), &u2);
    let arrivals: Vec<Alert> = a1.iter().chain(a2.iter()).cloned().collect();
    let displayed = apply_filter(&mut Ad1::new(), &arrivals);
    let ordered = check_ordered(&displayed, &[x, y]);
    let consistent = check_consistent_multi(&cm, &[u1, u2], &displayed);

    const COLS: &[Col] = &[col("step", "step"), col("result", "result")];
    let mut t = Table::new("counterexample", "Paper counterexample (proof of Theorem 10)", COLS);
    let seq = |alerts: &[Alert]| {
        format!("⟨{}⟩", alerts.iter().map(ToString::to_string).collect::<Vec<_>>().join(", "))
    };
    let conflict = consistent.conflict.as_ref().map_or("none".to_owned(), ToString::to_string);
    for (step, result) in [
        ("CE1 sees ⟨1x,2x,1y,2y⟩", seq(&a1)),
        ("CE2 sees ⟨1y,2y,1x,2x⟩", seq(&a2)),
        ("AD-1 displays", seq(&displayed)),
        ("ordered", ordered.ok.to_string()),
        ("consistent", consistent.ok.to_string()),
        ("conflict", conflict),
    ] {
        t.row(step, [result]);
    }
    let mut record = Record::default();
    record.tables.push(t);
    record.check(
        "Theorem 10: the paper's counterexample is neither ordered nor consistent",
        !ordered.ok && !consistent.ok,
    );
    record
}

fn domination_word(r: &DominationReport) -> Json {
    match (r.holds, r.strict) {
        (false, _) => "fails",
        (true, true) => "holds (strict)",
        (true, false) => "holds",
    }
    .into()
}

fn pass_count(workloads: &[Vec<Alert>], mut make: impl FnMut() -> Box<dyn AlertFilter>) -> usize {
    workloads.iter().map(|w| apply_filter(&mut *make(), w).len()).sum()
}

/// §4.1: AD-1 passes a superset of what AD-2, AD-3 and AD-4 pass on
/// every trace (Theorems 6 & 8), and of AD-5/AD-6 on multi-variable
/// traces, swept over the four scenario classes.
pub(crate) fn domination(runs: u64, seed: u64) -> Record {
    const PASSED: &[Col] = &[
        col("scenario", "Scenario"),
        col("arrivals", "arrivals"),
        col("ad1", "AD-1"),
        col("ad2", "AD-2"),
        col("ad3", "AD-3"),
        col("ad4", "AD-4"),
    ];
    const SINGLE: &[Col] = &[
        col("scenario", "Scenario"),
        col("ad1_ad2", "AD-1 ≥ AD-2"),
        col("ad1_ad3", "AD-1 ≥ AD-3"),
        col("ad1_ad4", "AD-1 ≥ AD-4"),
        col("ad2_ad4", "AD-2 ≥ AD-4 †"),
        col("ad3_ad4", "AD-3 ≥ AD-4 †"),
    ];
    const MULTI: &[Col] = &[
        col("scenario", "Scenario"),
        col("ad1_ad5", "AD-1 ≥ AD-5"),
        col("ad1_ad6", "AD-1 ≥ AD-6"),
        col("ad5_ad6", "AD-5 ≥ AD-6 †"),
    ];
    let x = VarId::new(0);
    let y = VarId::new(1);
    let mut passed = Table::new("passed", "Alerts passed on identical arrival streams", PASSED);
    let mut single = Table::new(
        "single_var",
        "Domination on every single-variable trace († not a theorem)",
        SINGLE,
    );
    let mut multi =
        Table::new("multi_var", "Domination on every two-variable trace († not a theorem)", MULTI);
    let (mut single_ok, mut multi_ok) = (true, true);
    for kind in ScenarioKind::ALL {
        let execs = executions(kind, Topology::SingleVar, runs, seed);
        let workloads: Vec<Vec<Alert>> = execs.into_iter().map(|e| e.arrivals).collect();
        let total: usize = workloads.iter().map(Vec::len).sum();
        passed.row(
            kind.label(),
            [
                total,
                pass_count(&workloads, || Box::new(Ad1::new())),
                pass_count(&workloads, || Box::new(Ad2::new(x))),
                pass_count(&workloads, || Box::new(Ad3::new([x]))),
                pass_count(&workloads, || Box::new(Ad4::new(x))),
            ],
        );
        // The first three are theorems (6, 8 and their AD-4 corollary).
        // The last two are observational: domination is not preserved
        // under composition, because AD-4's sub-filter watermarks only
        // advance on alerts passing BOTH checks, so standalone AD-2/AD-3
        // state can diverge from AD-4's.
        let theorems = [
            check_domination(Ad1::new, || Ad2::new(x), &workloads),
            check_domination(Ad1::new, || Ad3::new([x]), &workloads),
            check_domination(Ad1::new, || Ad4::new(x), &workloads),
        ];
        single_ok &= theorems.iter().all(|r| r.holds);
        let observed = [
            check_domination(|| Ad2::new(x), || Ad4::new(x), &workloads),
            check_domination(|| Ad3::new([x]), || Ad4::new(x), &workloads),
        ];
        let words = theorems.iter().chain(&observed).map(domination_word);
        single.row(kind.label(), words);

        // AD-5's duplicate test (all heads equal) is implied by exact
        // identity, and its state only grows: AD-1 dominates it too.
        let execs = executions(kind, Topology::MultiVar, runs, seed ^ 0x5);
        let workloads: Vec<Vec<Alert>> = execs.into_iter().map(|e| e.arrivals).collect();
        let reports = [
            check_domination(Ad1::new, || Ad5::new([x, y]), &workloads),
            check_domination(Ad1::new, || Ad6::new([x, y]), &workloads),
            check_domination(|| Ad5::new([x, y]), || Ad6::new([x, y]), &workloads),
        ];
        multi_ok &= reports[..2].iter().all(|r| r.holds);
        multi.row(kind.label(), reports.iter().map(domination_word));
    }
    let mut record = Record::default();
    record.tables.push(passed);
    record.tables.push(single);
    record.tables.push(multi);
    record.check("Theorems 6 & 8: AD-1 dominates AD-2, AD-3 and AD-4 on every trace", single_ok);
    record.check("AD-1 dominates AD-5 and AD-6 on every multi-variable trace", multi_ok);
    record
}

/// Theorems 5, 7 and 9: every alert AD-2/AD-3/AD-4 discards, spliced
/// back into the output, violates the filter's property — no
/// property-preserving filter passes strictly more.
pub(crate) fn maximality(runs: u64, seed: u64) -> Record {
    let x = VarId::new(0);
    // Per filter: [probed, violations, survivors].
    let mut tallies = [[0usize; 3]; 3];
    for kind in [
        ScenarioKind::LossyNonHistorical,
        ScenarioKind::LossyConservative,
        ScenarioKind::LossyAggressive,
    ] {
        for e in executions(kind, Topology::SingleVar, runs / 3, seed) {
            // Each property is conjoined with the matching duplicate-
            // freedom predicate: the theorems quantify over filters that
            // remove duplicates (the AD's baseline duty), and at AD-2's
            // abstraction an alert IS its sequence numbers.
            let ordered = |a: &[Alert]| seqno_duplicate_free(a, &[x]) && check_ordered(a, &[x]).ok;
            let consistent = |a: &[Alert]| check_consistent_multi(&e.condition, &e.inputs, a).ok;
            let reports = [
                probe_one_extra(|| Ad2::new(x), &e.arrivals, ordered),
                probe_one_extra(
                    || Ad3::new([x]),
                    &e.arrivals,
                    |a| duplicate_free(a) && consistent(a),
                ),
                probe_one_extra(|| Ad4::new(x), &e.arrivals, |a| ordered(a) && consistent(a)),
            ];
            for (t, r) in tallies.iter_mut().zip(reports) {
                *t = [t[0] + r.probed, t[1] + r.violations, t[2] + r.survivors.len()];
            }
        }
    }
    const COLS: &[Col] = &[
        col("filter", "Filter (property)"),
        col("probed", "probed"),
        col("violations", "violations"),
        col("survivors", "survivors"),
    ];
    let mut t = Table::new("probes", "Discarded alerts spliced back in", COLS);
    let names = ["AD-2 (ordered, Thm 5)", "AD-3 (consistent, Thm 7)", "AD-4 (both, Thm 9)"];
    for (name, tally) in names.into_iter().zip(tallies) {
        t.row(name, tally);
    }
    let mut record = Record::default();
    record.tables.push(t);
    record.check(
        "Theorems 5, 7 & 9: every splice violates the property",
        tallies.iter().all(|t| t[2] == 0),
    );
    record
}

/// Properties vs replica count on the lossy aggressive class: one
/// replica is the non-replicated system; AD-4 keeps orderedness and
/// consistency at every count, paying with completeness.
pub(crate) fn replication_sweep(runs: u64, seed: u64) -> Record {
    const COLS: &[Col] = &[
        col("replicas", "replicas"),
        col("filter", "filter"),
        col("unordered", "unordered"),
        col("incomplete", "incomplete"),
        col("inconsistent", "inconsistent"),
    ];
    let mut t = Table::new("sweep", "Violating runs vs replica count (lossy aggressive)", COLS);
    let (mut single_ok, mut ad4_ok) = (true, true);
    for replicas in 1..=4usize {
        for filter in [FilterKind::Ad1, FilterKind::Ad4] {
            let c = evaluate_cell_n(
                ScenarioKind::LossyAggressive,
                Topology::SingleVar,
                filter,
                runs,
                seed,
                replicas,
            );
            single_ok &= replicas > 1 || c.unordered + c.incomplete + c.inconsistent == 0;
            ad4_ok &= filter != FilterKind::Ad4 || c.unordered + c.inconsistent == 0;
            let counts = [c.unordered, c.incomplete, c.inconsistent].map(Json::from);
            t.row(replicas, [filter.label().into()].into_iter().chain(counts));
        }
    }
    let mut record = Record::default();
    record.tables.push(t);
    record.check("one replica (the non-replicated system) violates nothing", single_ok);
    record.check("AD-4 is ordered and consistent at every replica count", ad4_ok);
    record
}

/// Is AD-6's AD-5 (orderedness) half needed for multi-variable
/// consistency? Without it (`Ad3` over both variables), Theorem
/// 10-style interleaving cycles that per-variable bookkeeping cannot
/// see get through.
pub(crate) fn ablation_ad6(runs: u64, seed: u64) -> Record {
    const COLS: &[Col] = &[
        col("scenario", "Scenario"),
        col("ad6_shown", "AD-6 shown"),
        col("ad6_inconsistent", "AD-6 inconsistent runs"),
        col("ablated_shown", "ablated shown"),
        col("ablated_inconsistent", "ablated inconsistent runs"),
    ];
    let x = VarId::new(0);
    let y = VarId::new(1);
    let mut t = Table::new("ablation", "Full AD-6 vs its AD-3-only half", COLS);
    let mut totals = [0u64; 4];
    for kind in ScenarioKind::ALL {
        // [AD-6 shown, AD-6 inconsistent, ablated shown, ablated inconsistent]
        let mut row = [0u64; 4];
        for e in executions(kind, Topology::MultiVar, runs, seed) {
            for (i, mut filter) in
                [Box::new(Ad6::new([x, y])) as Box<dyn AlertFilter>, Box::new(Ad3::new([x, y]))]
                    .into_iter()
                    .enumerate()
            {
                let shown = apply_filter(&mut *filter, &e.arrivals);
                row[2 * i] += shown.len() as u64;
                row[2 * i + 1] +=
                    u64::from(!check_consistent_multi(&e.condition, &e.inputs, &shown).ok);
            }
        }
        totals.iter_mut().zip(row).for_each(|(t, r)| *t += r);
        t.row(kind.label(), row);
    }
    t.row(format!("All ({} runs)", 4 * runs), totals);
    let mut record = Record::default();
    record.tables.push(t);
    record.check("full AD-6 is consistent on every run", totals[1] == 0);
    record.check(
        "Lemma 5: without its AD-5 half, AD-6 leaves inconsistent runs (the half is load-bearing)",
        totals[3] > 0,
    );
    record
}
