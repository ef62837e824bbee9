//! Properties pinning the evaluation pipeline's determinism contract:
//!
//! > For any worker count the pipelined CE emits a byte-identical
//! > alert stream — same alerts, same order, same `AlertId` numbering
//! > — as the zero-worker pipeline (the plain single-threaded
//! > registry) fed the same admitted updates; nothing delivered is
//! > ever shed; and fault-plan kill/restarts leave per-condition alert
//! > numbering dense and ascending.
//!
//! Two layers of checks:
//!
//! * **Within-run** (deterministic regardless of scheduling): each
//!   replica's emitted stream must equal a local
//!   [`ConditionRegistry`] replay of that replica's own recorded
//!   `U_i` — the transducer identity `E_i = T(U_i)`. This holds under
//!   loss (a lost update never enters `U_i`), so it is the
//!   bit-exactness oracle that needs no run-to-run determinism.
//! * **Cross-run** (valid when the admitted stream is deterministic —
//!   scripted loss, no kills): a pipelined run's per-replica emission
//!   must equal the inline (`workers == 0`) run's, byte for byte.

use std::collections::BTreeSet;
use std::sync::Arc;

use rcm_core::condition::{Cmp, Condition, SustainedAbove, Threshold};
use rcm_core::{CeId, CondId, ConditionRegistry, VarId};
use rcm_net::{cases, Scripted};
use rcm_runtime::{FaultPlan, MonitorSystem, RunReport, VarFeed};

fn x() -> VarId {
    VarId::new(0)
}

/// A mixed family: thresholds at staggered levels plus a debounced
/// sustained condition, so restarts visibly change behavior (wiped
/// debounce state) and most updates fire at least one condition.
fn family(n: u32) -> Vec<Arc<dyn Condition>> {
    (0..n)
        .map(|i| {
            if i % 4 == 3 {
                Arc::new(SustainedAbove::new(x(), f64::from(i), 2)) as Arc<dyn Condition>
            } else {
                Arc::new(Threshold::new(x(), Cmp::Gt, f64::from((i * 7) % 50)))
                    as Arc<dyn Condition>
            }
        })
        .collect()
}

fn values(n: u64) -> Vec<f64> {
    (0..n).map(|i| ((i % 100) as f64) - 20.0).collect()
}

fn build(
    conds: &[Arc<dyn Condition>],
    workers: usize,
    vals: Vec<f64>,
) -> rcm_runtime::SystemBuilder {
    let mut builder = MonitorSystem::builder(conds[0].clone());
    for c in &conds[1..] {
        builder = builder.monitor(Arc::clone(c));
    }
    builder.replicas(2).workers(workers).feed(VarFeed::new(x(), vals))
}

/// The transducer identity: each replica's emitted stream equals a
/// local registry replay of its own recorded `U_i`, ids included.
fn assert_emitted_is_replay_of_ingested(conds: &[Arc<dyn Condition>], report: &RunReport) {
    for (ce, emitted) in report.emitted.iter().enumerate() {
        let mut registry = ConditionRegistry::new(CeId::new(ce as u32));
        for (i, c) in conds.iter().enumerate() {
            registry.insert(CondId::new(i as u32), Arc::clone(c));
        }
        let mut want = Vec::new();
        registry.ingest_batch(&report.ingested[ce], &mut want);
        assert_eq!(emitted, &want, "replica {ce}: emitted != T(U_{ce})");
        for (g, w) in emitted.iter().zip(&want) {
            assert_eq!(g.id, w.id, "replica {ce}: AlertId numbering diverged");
        }
    }
}

/// The paper's consistency property, checked per hosted condition:
/// the displayed alerts of condition `i` must be explainable by some
/// sub-stream of the union of the replicas' received updates.
fn assert_consistent_per_cond(conds: &[Arc<dyn Condition>], report: &RunReport) {
    for (i, cond) in conds.iter().enumerate() {
        // Relabel to `CondId::SINGLE` so the alerts compare equal
        // against the checker's single-condition reference transducer.
        let stream: Vec<rcm_core::Alert> = report
            .displayed
            .iter()
            .filter(|a| a.cond == CondId::new(i as u32))
            .map(|a| a.clone().with_cond(CondId::SINGLE))
            .collect();
        let consistency = rcm_props::check_consistent_single(cond, &report.ingested, &stream);
        assert!(consistency.ok, "condition {i}: {:?}", consistency.conflict);
    }
}

/// Per-condition provenance numbering is dense and ascending per
/// replica — the "alert numbering intact" oracle that stays valid
/// across kill/restart races.
fn assert_numbering_dense(conds: &[Arc<dyn Condition>], report: &RunReport) {
    for (ce, emitted) in report.emitted.iter().enumerate() {
        for cond in 0..conds.len() as u32 {
            let idxs: Vec<u64> = emitted
                .iter()
                .filter(|a| a.cond == CondId::new(cond))
                .map(|a| a.id.index)
                .collect();
            assert!(
                idxs.iter().enumerate().all(|(i, &n)| n == i as u64),
                "replica {ce} cond {cond}: numbering has gaps or regressions: {idxs:?}"
            );
        }
    }
}

/// Pipelined output is byte-identical to the single-threaded actor for
/// every worker count, with scripted front-link loss in play.
#[test]
fn pipelined_emission_matches_inline_for_any_worker_count() {
    const DROPS: &[u64] = &[2, 5, 11, 17];
    let conds = family(9);
    let inline = build(&conds, 0, values(60))
        .loss(|_, _| Box::new(Scripted::new(DROPS.iter().copied())))
        .start()
        .expect("inline system starts")
        .wait();
    assert!(inline.emitted.iter().any(|e| !e.is_empty()), "workload must alert");
    assert_emitted_is_replay_of_ingested(&conds, &inline);
    assert_eq!(inline.pipeline.workers, 0);
    // The inline path records latency too.
    assert!(inline.pipeline.latency.count > 0);

    for workers in [1usize, 2, 3, 4, 8] {
        let piped = build(&conds, workers, values(60))
            .loss(|_, _| Box::new(Scripted::new(DROPS.iter().copied())))
            .start()
            .expect("pipelined system starts")
            .wait();
        assert_eq!(piped.pipeline.workers, workers);
        assert_eq!(piped.pipeline.updates_shed, 0, "nothing is shed");
        assert_eq!(
            piped.emitted, inline.emitted,
            "workers = {workers}: pipelined emission diverged from the single-threaded actor"
        );
        for (a, b) in piped.emitted.iter().flatten().zip(inline.emitted.iter().flatten()) {
            assert_eq!(a.id, b.id, "workers = {workers}: AlertId numbering diverged");
        }
        assert_emitted_is_replay_of_ingested(&conds, &piped);
        assert!(piped.pipeline.latency.count > 0, "workers = {workers}");
        assert!(piped.pipeline.latency.p999_ns >= piped.pipeline.latency.p50_ns);
    }
}

/// Kill/restart fault plans leave the pipelined replica's alert
/// numbering dense and its displayed output consistent — and the
/// recovery ledger (restarts, replays) actually engaged.
#[test]
fn pipelined_restarts_keep_alert_numbering_intact() {
    let conds = family(6);
    for workers in [0usize, 1, 4] {
        let report = build(&conds, workers, values(120))
            .faults(FaultPlan::scripted().kill_ce(0, 30).kill_ce(1, 55).retain_window(256))
            .start()
            .expect("faulted system starts")
            .wait();
        assert!(report.faults.total_restarts() >= 1, "workers = {workers}: kills must fire");
        assert_numbering_dense(&conds, &report);
        // Every arrival at the AD is accounted to some replica's
        // emission record — the merge loses nothing in a crash.
        assert_eq!(
            report.emitted.iter().map(Vec::len).sum::<usize>(),
            report.arrivals.len(),
            "workers = {workers}"
        );
        assert_consistent_per_cond(&conds, &report);
    }
}

/// Every update a replica is delivered is admitted and evaluated,
/// however heavy the evaluation: the sharded stage has no queue that
/// could fill, so nothing is shed. Without front-link loss each `U_i`
/// is the whole stream, and emission is exactly the transducer of it.
#[test]
fn sharded_evaluation_never_sheds() {
    let conds = family(40);
    let report = build(&conds, 2, values(4000))
        .filter(|vars| Box::new(rcm_core::ad::Ad3::new(vars[0])))
        .start()
        .expect("sharded system starts")
        .wait();
    assert_eq!(report.pipeline.updates_shed, 0);
    assert_every_update_ingested(&report, 4000);
    assert_emitted_is_replay_of_ingested(&conds, &report);
    assert_numbering_dense(&conds, &report);
    assert_consistent_per_cond(&conds, &report);
}

/// Each replica's `U_i` is the whole lossless stream, seqnos `1..=n`.
fn assert_every_update_ingested(report: &RunReport, n: u64) {
    for (ce, ingested) in report.ingested.iter().enumerate() {
        let seqnos: Vec<u64> = ingested.iter().map(|u| u.seqno.get()).collect();
        assert_eq!(seqnos, (1..=n).collect::<Vec<_>>(), "replica {ce} lost a delivered update");
    }
}

/// A kill whose threshold falls inside an in-process DM round: the
/// updates admitted before it are still evaluated, so `U_0` starts with
/// them and the emitted stream is the transducer of `U_0` with the
/// restart at that position, ids included.
#[test]
fn a_kill_inside_a_round_evaluates_the_admitted_prefix() {
    // A recorded feed with no pause arrives in rounds of 64 readings, so
    // arrival 30 falls inside the first one.
    const KILL_AT: u64 = 30;
    let conds = family(6);
    for workers in [0usize, 2] {
        let report = build(&conds, workers, values(600))
            .faults(FaultPlan::scripted().kill_ce(0, KILL_AT).retain_window(0).max_restarts(3))
            .start()
            .expect("faulted system starts")
            .wait();
        assert_eq!(report.faults.kills_injected, 1, "workers = {workers}");
        let prefix = (KILL_AT - 1) as usize;
        let ingested = &report.ingested[0];
        let head: Vec<u64> = ingested.iter().take(prefix).map(|u| u.seqno.get()).collect();
        assert_eq!(head, (1..KILL_AT).collect::<Vec<_>>(), "workers = {workers}");

        let mut registry = ConditionRegistry::new(CeId::new(0));
        for (i, c) in conds.iter().enumerate() {
            registry.insert(CondId::new(i as u32), Arc::clone(c));
        }
        let mut want = Vec::new();
        let (before, after) = ingested.split_at(prefix);
        registry.ingest_batch(before, &mut want);
        registry.restart();
        registry.ingest_batch(after, &mut want);
        let emitted = &report.emitted[0];
        assert_eq!(emitted, &want, "workers = {workers}: emitted != T(U_0)");
        for (g, w) in emitted.iter().zip(&want) {
            assert_eq!(g.id, w.id, "workers = {workers}: AlertId numbering diverged");
        }
        assert_numbering_dense(&conds, &report);
    }
}

/// For arbitrary workloads, drop sets and worker counts, the pipelined
/// emission is byte-identical to the zero-worker run's.
#[test]
fn prop_pipelined_matches_inline() {
    cases("prop_pipelined_matches_inline", 12, 78, |rng, size| {
        let conds = family(1 + rng.below(size.min(10) + 1) as u32);
        let n_values = 1 + rng.below(size + 1) as u64;
        let workers = 1 + rng.below(5);
        let mut drops = BTreeSet::new();
        let n_drops = rng.below(size.min(9) + 1);
        while drops.len() < n_drops {
            drops.insert(1 + rng.below(79) as u64);
        }
        let mk = |workers: usize| {
            let d = drops.clone();
            build(&conds, workers, values(n_values))
                .loss(move |_, _| Box::new(Scripted::new(d.iter().copied())))
                .start()
                .expect("system starts")
                .wait()
        };
        let inline = mk(0);
        let piped = mk(workers);
        assert_eq!(&piped.emitted, &inline.emitted);
        assert_emitted_is_replay_of_ingested(&conds, &piped);
    });
}

/// For arbitrary kill schedules, the pipelined replicas keep dense
/// per-condition numbering and the transducer accounting between AD
/// arrivals and replica emissions.
#[test]
fn prop_restarts_preserve_numbering() {
    cases("prop_restarts_preserve_numbering", 12, 6, |rng, size| {
        let conds = family(1 + rng.below(size + 1) as u32);
        let workers = 1 + rng.below(4);
        let (kill0, kill1) = (5 + rng.below(55) as u64, 5 + rng.below(55) as u64);
        let report = build(&conds, workers, values(90))
            .faults(FaultPlan::scripted().kill_ce(0, kill0).kill_ce(1, kill1))
            .start()
            .expect("system starts")
            .wait();
        assert_numbering_dense(&conds, &report);
        assert_eq!(report.emitted.iter().map(Vec::len).sum::<usize>(), report.arrivals.len());
    });
}

/// For arbitrary condition families and shard counts under a heavy
/// stream, nothing is shed: every delivered update is in `U_i`, the
/// transducer identity holds bit-exactly, and per-AD consistency holds.
#[test]
fn prop_sharded_runs_shed_nothing() {
    cases("prop_sharded_runs_shed_nothing", 12, 15, |rng, size| {
        let conds = family(8 + rng.below(size + 1) as u32);
        let workers = 1 + rng.below(3);
        let report = build(&conds, workers, values(600))
            .filter(|vars| Box::new(rcm_core::ad::Ad3::new(vars[0])))
            .start()
            .expect("system starts")
            .wait();
        assert_eq!(report.pipeline.updates_shed, 0);
        assert_every_update_ingested(&report, 600);
        assert_emitted_is_replay_of_ingested(&conds, &report);
        assert_consistent_per_cond(&conds, &report);
    });
}
