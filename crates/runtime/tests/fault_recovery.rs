//! Crash/recovery and back-link fault-injection tests for the threaded
//! runtime: supervisor restart bounds, kill-one-replica availability,
//! lossless severed back links, retained-window replay — and the
//! duplicate-offer indifference property the reconnect path relies on
//! (a resent alert must never change any AD filter's decisions).

use std::sync::Arc;
use std::time::Duration;

use rcm_core::ad::{Ad1, Ad2, Ad3, Ad4, Ad5, Ad6, AlertFilter};
use rcm_core::condition::expr::CompiledCondition;
use rcm_core::condition::{cond, Cmp, Condition};
use rcm_core::{transduce, Alert, CeId, CondId, ConditionRegistry, Update, VarId};
use rcm_net::cases;
use rcm_props::{check_complete_multi, check_ordered};
use rcm_runtime::{FaultPlan, MonitorSystem, SeverBackLink, VarFeed};

fn x() -> VarId {
    VarId::new(0)
}

fn threshold() -> Arc<CompiledCondition> {
    Arc::new(cond::threshold(x(), Cmp::Gt, 50.0))
}

#[test]
fn kill_one_replica_keeps_surviving_alerts_displayed() {
    // Replica 0 dies on its first arrival with no restart budget; the
    // survivor must carry the run alone.
    let system = MonitorSystem::builder(threshold())
        .replicas(2)
        .feed(VarFeed::new(x(), vec![60.0, 40.0, 70.0, 55.0, 30.0, 80.0]))
        .faults(FaultPlan::scripted().kill_ce(0, 1).max_restarts(0))
        .start()
        .unwrap();
    let report = system.wait();

    assert_eq!(report.faults.replicas_abandoned, 1);
    assert_eq!(report.faults.restarts[0], 0);
    assert!(report.emitted[0].is_empty(), "dead replica emitted alerts");
    assert_eq!(report.emitted[1].len(), 4);
    for alert in &report.emitted[1] {
        assert!(report.displayed.contains(alert), "surviving alert {alert} not displayed");
    }
    assert_eq!(report.displayed.len(), 4);
}

#[test]
fn restart_budget_is_a_hard_bound() {
    // A kill scheduled at every arrival of a paced feed, so every round
    // is one reading: arrivals 1, 2 and 3 each kill and restart the
    // replica, arrival 4 kills it past its budget, and no later kill
    // fires on the abandoned replica.
    let values: Vec<f64> = (0..40).map(|i| f64::from((i * 7) % 100)).collect();
    let mut plan = FaultPlan::scripted().max_restarts(3);
    for arrival in 1..=40 {
        plan = plan.kill_ce(0, arrival);
    }
    let system = MonitorSystem::builder(threshold())
        .replicas(2)
        .feed(VarFeed::new(x(), values.clone()).period(Duration::from_micros(500)))
        .faults(plan)
        .start()
        .unwrap();
    let report = system.wait();

    assert_eq!(report.faults.kills_injected, 4);
    assert_eq!(report.faults.restarts[0], 3, "{:?}", report.faults.restarts);
    assert_eq!(report.faults.replicas_abandoned, 1);
    // The untouched replica keeps the system available: every alert of
    // the full update sequence is displayed exactly once (AD-1 dedups).
    let updates: Vec<Update> =
        values.iter().enumerate().map(|(i, &v)| Update::new(x(), i as u64 + 1, v)).collect();
    let expected = transduce(&threshold(), CeId::new(9), &updates);
    assert_eq!(report.displayed.len(), expected.len());
}

#[test]
fn severed_back_link_loses_no_alerts() {
    // Both back links are severed mid-stream; reconnect + resend must
    // preserve the lossless contract: nothing dropped, duplicates only.
    let cond: Arc<dyn Condition> = Arc::new(cond::threshold(x(), Cmp::Gt, -1.0));
    let n = 30u64;
    let system = MonitorSystem::builder(cond)
        .replicas(2)
        .feed(VarFeed::new(x(), (0..n).map(|i| i as f64).collect::<Vec<_>>()))
        .faults(FaultPlan {
            severs: vec![
                SeverBackLink { ce: 0, at_send: 5, down_for: Duration::from_millis(5) },
                SeverBackLink { ce: 1, at_send: 2, down_for: Duration::from_millis(1) },
            ],
            ..FaultPlan::default()
        })
        .start()
        .unwrap();
    let report = system.wait();

    let back = &report.transport.back_links;
    assert_eq!(back.iter().map(|b| (b.severs, b.lost_overflow)).collect::<Vec<_>>(), [(1, 0); 2]);
    // Every update alerts; AD-1 displays each distinct alert once no
    // matter how the resent duplicates interleave.
    assert_eq!(report.displayed.len(), n as usize);
    assert!(check_ordered(&report.displayed, &[x()]).ok);
    // Both replicas' full streams arrived (plus any resend duplicates).
    assert!(report.arrivals.len() >= 2 * n as usize);
}

#[test]
fn an_in_process_queue_overflow_is_counted_as_shed() {
    // The back link is down from before the first alert for longer than
    // the run takes to emit them all, and there are more alerts than
    // the resend queue holds: the overflow drops are sheds, counted
    // as the socket links count them.
    let cond: Arc<dyn Condition> = Arc::new(cond::threshold(x(), Cmp::Gt, -1.0));
    let n = 1100u64;
    let system = MonitorSystem::builder(cond)
        .replicas(1)
        .feed(VarFeed::new(x(), (0..n).map(|i| i as f64).collect::<Vec<_>>()))
        .faults(FaultPlan {
            severs: vec![SeverBackLink { ce: 0, at_send: 0, down_for: Duration::from_secs(1) }],
            ..FaultPlan::default()
        })
        .start()
        .unwrap();
    let report = system.wait();

    let back = report.transport.back_links[0];
    assert!(back.lost_overflow > 0, "{back:?}");
    assert_eq!(report.displayed.len() as u64, n - back.lost_overflow);
}

#[test]
fn recovery_replays_retained_window() {
    // Scripted kill mid-stream with a full retained window: replay must
    // rebuild the histories so the run stays complete and ordered —
    // indistinguishable from a fault-free run for a degree-1 condition
    // over lossless links.
    let values: Vec<f64> = (0..30).map(|i| f64::from((i * 13) % 100)).collect();
    let system = MonitorSystem::builder(threshold())
        .replicas(2)
        .feed(VarFeed::new(x(), values))
        .faults(FaultPlan::scripted().kill_ce(0, 10).retain_window(4096).max_restarts(3))
        .start()
        .unwrap();
    let report = system.wait();

    assert_eq!(report.faults.kills_injected, 1);
    assert_eq!(report.faults.restarts[0], 1);
    assert_eq!(report.faults.replicas_abandoned, 0);
    // Replay restored the killed replica's `U_i` to the full sequence.
    assert_eq!(report.ingested[0].len(), 30);
    assert_eq!(report.ingested[1].len(), 30);
    let complete = check_complete_multi(&threshold(), &report.ingested, &report.displayed);
    assert!(complete.ok, "missing={:?} extraneous={:?}", complete.missing, complete.extraneous);
    assert!(check_ordered(&report.displayed, &[x()]).ok);
}

#[test]
fn a_kill_mid_round_counts_the_rest_of_the_round_as_dropped_down() {
    // A recorded feed with no pause hands each replica its readings in
    // full rounds of several updates, so arrival 100 falls inside one.
    // With no window to replay from, every update delivered to the
    // killed replica is either ingested or counted as lost while down:
    // the arrival the kill fired on and the rest of its round included,
    // and, once the replica is abandoned (no restart budget), every
    // round offered to it after. The kill at arrival 110 falls in the
    // rest of the same round, so it never fires.
    let n = 1_000u64;
    for budget in [3, 0] {
        let plan = FaultPlan::scripted().kill_ce(0, 100).kill_ce(0, 110);
        let system = MonitorSystem::builder(threshold())
            .replicas(2)
            .feed(VarFeed::new(x(), (0..n).map(|i| (i % 100) as f64).collect::<Vec<_>>()))
            .faults(plan.retain_window(0).max_restarts(budget))
            .start()
            .unwrap();
        let report = system.wait();

        assert_eq!(report.faults.kills_injected, 1, "budget {budget}");
        assert_eq!(report.faults.restarts[0], budget.min(1), "budget {budget}");
        assert_eq!(report.faults.replicas_abandoned, u32::from(budget == 0), "budget {budget}");
        assert_eq!(report.faults.updates_replayed, 0, "budget {budget}");
        let (_, link) = report.links.iter().find(|(key, _)| *key == (x(), CeId::new(0))).unwrap();
        let delivered = link.sent - link.dropped;
        assert_eq!(delivered, n);
        assert_eq!(
            report.faults.updates_dropped_down + report.ingested[0].len() as u64,
            delivered,
            "budget {budget}: dropped while down {} + ingested {}",
            report.faults.updates_dropped_down,
            report.ingested[0].len()
        );
        assert_eq!(report.ingested[1].len() as u64, n, "the other replica saw everything");
    }
}

#[test]
fn an_in_process_run_with_kills_and_loss_replays_exactly() {
    // Every replica runs on the DM loop and every feed is recorded, so
    // a seed fixes the rounds, the loss draws, the kills, the replays
    // and the order alerts reach the AD in. (Severs are timed by the
    // wall clock, so the plan has none.)
    let y = VarId::new(1);
    let set: Vec<Arc<dyn Condition>> = vec![
        Arc::new(cond::threshold(x(), Cmp::Gt, 50.0)),
        Arc::new(cond::delta_rise(x(), 10.0)),
        Arc::new(rcm_core::condition::cond::abs_difference(x(), y, 30.0)),
    ];
    let xs: Vec<f64> = (0..400).map(|i| f64::from((i * 37) % 100)).collect();
    let ys: Vec<f64> = (0..300).map(|i| f64::from((i * 53) % 100)).collect();
    let run = || {
        MonitorSystem::builder_multi(set.clone())
            .replicas(3)
            .feed(VarFeed::new(x(), xs.clone()))
            .feed(VarFeed::new(y, ys.clone()))
            .loss(|_, _| Box::new(rcm_net::Bernoulli::new(0.2)))
            .seed(17)
            .filter(|vars| Box::new(Ad6::new(vars.to_vec())))
            .faults(
                FaultPlan::scripted()
                    .kill_ce(0, 90)
                    .kill_ce(2, 300)
                    .retain_window(32)
                    .max_restarts(3),
            )
            .start()
            .unwrap()
            .wait()
    };
    let (a, b) = (run(), run());

    assert_eq!(a.faults.kills_injected, 2);
    assert!(a.faults.updates_replayed > 0, "the window replayed nothing");
    let ids = |alerts: &[Alert]| alerts.iter().map(|a| a.id).collect::<Vec<_>>();
    assert_eq!(a.arrivals, b.arrivals);
    assert_eq!(ids(&a.arrivals), ids(&b.arrivals));
    assert_eq!(a.displayed, b.displayed);
    assert_eq!(ids(&a.displayed), ids(&b.displayed));
    assert_eq!(a.ingested, b.ingested);
    assert_eq!(a.emitted, b.emitted);
    let faults = |r: &rcm_runtime::RunReport| {
        let mut f = r.faults.clone();
        f.recovery_latency.clear();
        f
    };
    assert_eq!(faults(&a), faults(&b));
}

#[test]
fn multicond_restart_rebuilds_registry_and_keeps_numbering() {
    // A replica hosting several conditions in one registry is killed
    // mid-stream. The retained window must rebuild the registry's
    // histories through the shared gate (so `U_i` ends up complete and
    // ordered), the crash must wipe every condition's history at the
    // same point (the paper's crash model — a historical condition
    // misses the one delta that spans the wipe), and per-condition
    // alert numbering must keep ascending across the restart.
    let set: Vec<Arc<dyn Condition>> = vec![
        Arc::new(cond::threshold(x(), Cmp::Gt, 50.0)),
        Arc::new(cond::delta_rise(x(), 10.0)),
        Arc::new(cond::threshold(x(), Cmp::Lt, 20.0)),
    ];
    let values: Vec<f64> = (0..30).map(|i| f64::from((i * 13) % 100)).collect();
    let system = MonitorSystem::builder_multi(set.clone())
        .replicas(2)
        .feed(VarFeed::new(x(), values.clone()))
        .faults(FaultPlan::scripted().kill_ce(0, 12).retain_window(4096).max_restarts(3))
        .start()
        .unwrap();
    let report = system.wait();

    assert_eq!(report.faults.kills_injected, 1);
    assert_eq!(report.faults.restarts[0], 1);
    assert_eq!(report.faults.replicas_abandoned, 0);
    // Window replay restored the killed replica's `U_i` in full order.
    assert_eq!(report.ingested[0].len(), values.len());
    assert_eq!(report.ingested[1].len(), values.len());

    // Reproduce each replica locally: one registry hosting the whole
    // set, fed the replica's recorded `U_i` — with `restart()` spliced
    // in at the crash point for replica 0. Arrivals 1..=11 are ingested
    // before the scripted kill at arrival 12 fires, so the wipe lands
    // after exactly 11 updates.
    for (ce, emitted) in report.emitted.iter().enumerate() {
        let mut registry = ConditionRegistry::new(CeId::new(ce as u32));
        for (i, c) in set.iter().enumerate() {
            registry.insert(CondId::new(i as u32), Arc::clone(c));
        }
        let mut want = Vec::new();
        let mut buf = Vec::new();
        for (i, &u) in report.ingested[ce].iter().enumerate() {
            if ce == 0 && i == 11 {
                registry.restart();
            }
            buf.clear();
            registry.ingest(u, &mut buf);
            want.append(&mut buf);
        }
        assert_eq!(emitted, &want, "replica {ce} diverged from the local registry replay");
        for (g, w) in emitted.iter().zip(&want) {
            assert_eq!(g.id, w.id);
        }
        // Numbering never resets: per condition, provenance indices are
        // 0..k ascending even across the crash.
        for cond in 0..set.len() as u32 {
            let idxs: Vec<u64> = emitted
                .iter()
                .filter(|a| a.cond == CondId::new(cond))
                .map(|a| a.id.index)
                .collect();
            assert!(
                idxs.iter().enumerate().all(|(i, &n)| n == i as u64),
                "condition {cond} numbering broke across the restart: {idxs:?}"
            );
        }
    }

    // AD-1 displays each distinct (cond, fingerprint) alert exactly
    // once, so the display equals the distinct union of both replicas'
    // emissions — the survivor covers what the crash suppressed.
    let mut distinct: Vec<&Alert> = Vec::new();
    for a in report.emitted.iter().flatten() {
        if !distinct.contains(&a) {
            distinct.push(a);
        }
    }
    assert_eq!(report.displayed.len(), distinct.len());
    for &a in &distinct {
        assert!(report.displayed.contains(a), "distinct alert {a} not displayed");
    }
}

/// Builds one fresh instance of every AD filter.
fn all_filters() -> Vec<Box<dyn AlertFilter>> {
    vec![
        Box::new(Ad1::new()),
        Box::new(Ad2::new(x())),
        Box::new(Ad3::new([x()])),
        Box::new(Ad4::new(x())),
        Box::new(Ad5::new([x()])),
        Box::new(Ad6::new([x()])),
    ]
}

/// The property the back-link resend path relies on: re-offering an
/// alert that was already offered earlier (a reconnect duplicate) must
/// not change any filter's decision on any *original* offer.
///
/// `values`/`keep` derive two replica alert streams (replica 2 misses
/// the unkept updates), interleaved round-robin; `dups` picks
/// (position, earlier-offer) pairs to replay into the stream.
fn check_duplicate_indifference(
    values: &[f64],
    keep: &[bool],
    dups: &[(usize, usize)],
    use_delta: bool,
) {
    let cond = Arc::new(if use_delta {
        cond::delta_rise(x(), 5.0)
    } else {
        cond::threshold(x(), Cmp::Gt, 50.0)
    });
    let u1: Vec<Update> =
        values.iter().enumerate().map(|(i, &v)| Update::new(x(), i as u64 + 1, v)).collect();
    let u2: Vec<Update> = u1
        .iter()
        .enumerate()
        .filter(|(i, _)| *keep.get(*i).unwrap_or(&true))
        .map(|(_, &u)| u)
        .collect();
    let a1 = transduce(&cond, CeId::new(0), &u1);
    let a2 = transduce(&cond, CeId::new(1), &u2);

    // Round-robin merge of the two back-link streams.
    let mut base: Vec<Alert> = Vec::with_capacity(a1.len() + a2.len());
    let (mut i, mut j) = (0, 0);
    while i < a1.len() || j < a2.len() {
        if i < a1.len() {
            base.push(a1[i].clone());
            i += 1;
        }
        if j < a2.len() {
            base.push(a2[j].clone());
            j += 1;
        }
    }
    if base.is_empty() {
        return;
    }

    // The duplicated stream: same offers, with replays of earlier
    // offers spliced in. `true` marks an original offer.
    let mut with_dups: Vec<(Alert, bool)> = base.iter().map(|a| (a.clone(), true)).collect();
    for &(pos, src) in dups {
        let pos = 1 + pos % with_dups.len();
        // Replay something offered strictly before the splice point.
        let originals_before: Vec<&Alert> =
            with_dups[..pos].iter().filter(|(_, orig)| *orig).map(|(a, _)| a).collect();
        let dup = originals_before[src % originals_before.len()].clone();
        with_dups.insert(pos, (dup, false));
    }

    for (mut clean, mut dirty) in all_filters().into_iter().zip(all_filters()) {
        let clean_decisions: Vec<bool> = base.iter().map(|a| clean.offer(a).is_deliver()).collect();
        let dirty_decisions: Vec<bool> = with_dups
            .iter()
            .filter_map(|(a, orig)| {
                let deliver = dirty.offer(a).is_deliver();
                orig.then_some(deliver)
            })
            .collect();
        assert_eq!(
            clean_decisions,
            dirty_decisions,
            "{} changed a decision because of duplicate offers",
            clean.name()
        );
    }
}

#[test]
fn duplicate_indifference_smoke() {
    // A replayed earlier offer, and the degenerate no-alert case.
    check_duplicate_indifference(
        &[60.0, 40.0, 70.0],
        &[true, false, true],
        &[(0, 0), (2, 1)],
        false,
    );
    check_duplicate_indifference(&[1.0, 2.0], &[true, true], &[], true);
}

#[test]
fn duplicate_offers_never_change_decisions() {
    cases("duplicate_offers_never_change_decisions", 256 + 50, 44, |rng, size| {
        let values: Vec<f64> =
            (0..5 + rng.below(size + 1)).map(|_| rng.next_f64() * 100.0).collect();
        let keep: Vec<bool> = (0..50).map(|_| rng.below(2) == 1).collect();
        let dups: Vec<(usize, usize)> =
            (0..rng.below(size.min(11) + 1)).map(|_| (rng.below(1000), rng.below(1000))).collect();
        check_duplicate_indifference(&values, &keep, &dups, rng.below(2) == 1);
    });
}
