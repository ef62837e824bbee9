//! Properties pinning the evaluation pipeline's determinism contract:
//!
//! > For any worker count the pipelined CE emits a byte-identical
//! > alert stream — same alerts, same order, same `AlertId` numbering
//! > — as the zero-worker pipeline (the plain single-threaded
//! > registry) fed the same admitted updates; shedding on a full
//! > worker ring is observationally front-link loss; and fault-plan
//! > kill/restarts leave per-condition alert numbering dense and
//! > ascending.
//!
//! Two layers of checks:
//!
//! * **Within-run** (deterministic regardless of scheduling): each
//!   replica's emitted stream must equal a local
//!   [`ConditionRegistry`] replay of that replica's own recorded
//!   `U_i` — the transducer identity `E_i = T(U_i)`. This holds under
//!   loss and under shedding (a shed update never enters `U_i`), so it
//!   is the bit-exactness oracle that needs no run-to-run determinism.
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
        assert_eq!(piped.pipeline.updates_shed, 0, "default rings must not shed here");
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
        // emission record — the sequencer loses nothing in a crash.
        assert_eq!(
            report.emitted.iter().map(Vec::len).sum::<usize>(),
            report.arrivals.len(),
            "workers = {workers}"
        );
        assert_consistent_per_cond(&conds, &report);
    }
}

/// Satellite 1: forced shedding (capacity-1 rings under a heavy
/// stream) is observationally front-link loss — shed updates never
/// enter `U_i`, the transducer identity still holds bit-exactly, the
/// shed counter surfaces in the report, and the per-AD consistency
/// guarantee survives.
#[test]
fn forced_shedding_is_front_link_loss() {
    let conds = family(40); // heavy evaluation → slow workers → full rings
    let report = build(&conds, 2, values(4000))
        .ring_capacity(1)
        .filter(|vars| Box::new(rcm_core::ad::Ad3::new(vars[0])))
        .start()
        .expect("shedding system starts")
        .wait();
    assert!(
        report.pipeline.updates_shed > 0,
        "capacity-1 rings under 4000 updates × 40 conditions must shed"
    );
    // Shed ≡ loss: everything admitted is in U_i, and emission is
    // exactly the transducer of U_i — ids included.
    assert_emitted_is_replay_of_ingested(&conds, &report);
    assert_numbering_dense(&conds, &report);
    assert_consistent_per_cond(&conds, &report);
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

/// For arbitrary tiny ring capacities, shedding stays observationally
/// front-link loss: the transducer identity and per-AD consistency hold
/// whatever was shed.
#[test]
fn prop_shedding_is_loss() {
    cases("prop_shedding_is_loss", 12, 15, |rng, size| {
        let conds = family(8 + rng.below(size + 1) as u32);
        let (capacity, workers) = (1 + rng.below(3), 1 + rng.below(3));
        let report = build(&conds, workers, values(600))
            .ring_capacity(capacity)
            .filter(|vars| Box::new(rcm_core::ad::Ad3::new(vars[0])))
            .start()
            .expect("system starts")
            .wait();
        assert_emitted_is_replay_of_ingested(&conds, &report);
        assert_consistent_per_cond(&conds, &report);
    });
}
