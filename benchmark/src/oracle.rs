//! Checks a finished run against a reference computation, untimed.
//!
//! The reference is the single-threaded library: a fresh
//! `ConditionRegistry` per replica replayed over what that replica
//! ingested, and a fresh filter replayed over what arrived at the AD.
//! Lost deliveries are counted, not fatal; any disagreement between the
//! run's streams and the reference is.

use rcm_core::ad::apply_filter;
use rcm_core::{Alert, AlertId, CeId, CondId, ConditionRegistry};
use rcm_props::check_ordered;
use rcm_runtime::RunReport;

use crate::workloads::{ConditionSet, Workload};

/// One `on_alert` callback invocation, as the benchmark recorded it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seen {
    pub cond: CondId,
    pub id: AlertId,
    /// Global position of the newest reading in the alert's fingerprint.
    pub newest: u64,
    /// When the callback ran, ns since the run's epoch.
    pub shown_ns: u64,
}

/// Link-level deliveries and how many of them went missing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Deliveries {
    /// Deliveries the front links accepted (the loss script let through).
    pub attempted: u64,
    /// Accepted deliveries that never reached their replica's `ingested`:
    /// kernel drops on UDP, shedding on a full worker ring.
    pub failed: u64,
}

/// Identity as the oracle needs it: `Alert`'s own `==` ignores
/// provenance and payload, the oracle does not.
fn same(a: &Alert, b: &Alert) -> bool {
    a == b && a.id == b.id && a.snapshot == b.snapshot
}

fn same_stream<'a>(
    what: &str,
    got: impl IntoIterator<Item = &'a Alert>,
    want: &[Alert],
) -> Result<(), String> {
    let mut got = got.into_iter();
    for (i, w) in want.iter().enumerate() {
        match got.next() {
            Some(g) if same(g, w) => {}
            Some(g) => return Err(format!("{what}: alert {i} is {g:?}, reference has {w:?}")),
            None => return Err(format!("{what}: {i} alerts, reference has {}", want.len())),
        }
    }
    match got.count() {
        0 => Ok(()),
        extra => Err(format!("{what}: {extra} alerts more than the reference's {}", want.len())),
    }
}

pub fn check(
    workload: &Workload,
    set: &ConditionSet,
    report: &RunReport,
    seen: &[Seen],
) -> Result<Deliveries, String> {
    // 1. Each replica emitted what the library computes from its input.
    //    This repeats every evaluation of the run, so the replicas are
    //    checked side by side.
    std::thread::scope(|scope| {
        let checks: Vec<_> = report
            .ingested
            .iter()
            .zip(&report.emitted)
            .enumerate()
            .map(|(r, (ingested, emitted))| {
                scope.spawn(move || {
                    let mut registry = ConditionRegistry::new(CeId::new(r as u32));
                    for (i, cond) in set.dynamic().into_iter().enumerate() {
                        registry.insert(CondId::new(i as u32), cond);
                    }
                    let mut want = Vec::new();
                    registry.ingest_batch(ingested, &mut want);
                    same_stream(&format!("replica {r} emitted"), emitted, &want)
                })
            })
            .collect();
        checks.into_iter().try_for_each(|check| check.join().expect("oracle thread"))
    })?;

    // 2. The AD's arrivals interleave the emitted streams, order kept
    //    and nothing lost: back links are lossless.
    for (r, emitted) in report.emitted.iter().enumerate() {
        let from_r: Vec<Alert> =
            report.arrivals.iter().filter(|a| a.id.ce.index() as usize == r).cloned().collect();
        same_stream(&format!("arrivals from replica {r}"), &from_r, emitted)?;
    }
    let emitted_total: usize = report.emitted.iter().map(Vec::len).sum();
    if report.arrivals.len() != emitted_total {
        return Err(format!(
            "{} arrivals but {emitted_total} emitted: an arrival names no replica",
            report.arrivals.len()
        ));
    }

    // 3. The display is the workload's filter applied to the arrivals.
    let want = apply_filter(&mut workload.filter(set), &report.arrivals);
    same_stream("displayed", &report.displayed, &want)?;

    // 4. Orderedness, per condition stream, where the AD class promises it
    //    (the heartbeat stream, last, is passed through unfiltered).
    if workload.filter.promises_order() {
        let workload_conds = set.cond_vars.len() - 1;
        for (i, vars) in set.cond_vars[..workload_conds].iter().enumerate() {
            let stream: Vec<Alert> =
                report.displayed.iter().filter(|a| a.cond.index() as usize == i).cloned().collect();
            let ordered = check_ordered(&stream, vars);
            if !ordered.ok {
                return Err(format!(
                    "condition {i} displayed out of order: {:?}",
                    ordered.violation
                ));
            }
        }
    }

    // 5. The callback saw each displayed alert exactly once, in order.
    if seen.len() != report.displayed.len() {
        return Err(format!(
            "on_alert ran {} times for {} displayed alerts",
            seen.len(),
            report.displayed.len()
        ));
    }
    if let Some(i) =
        seen.iter().zip(&report.displayed).position(|(s, d)| (s.cond, s.id) != (d.cond, d.id))
    {
        return Err(format!(
            "on_alert call {i} saw {:?}, displayed has {:?}",
            seen[i], report.displayed[i]
        ));
    }

    // Deliveries: what each front link accepted against what its replica
    // recorded. `links` is keyed `(variable, replica)`.
    let mut deliveries = Deliveries::default();
    for (r, ingested) in report.ingested.iter().enumerate() {
        let accepted: u64 = report
            .links
            .iter()
            .filter(|((_, ce), _)| ce.index() as usize == r)
            .map(|(_, link)| link.sent - link.dropped)
            .sum();
        deliveries.attempted += accepted;
        deliveries.failed += accepted.saturating_sub(ingested.len() as u64);
        if ingested.len() as u64 > accepted {
            return Err(format!(
                "replica {r} ingested {} of {accepted} deliveries",
                ingested.len()
            ));
        }
    }
    Ok(deliveries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{find, Layout};
    use rcm_core::{SeqNo, Update};
    use rcm_runtime::{MonitorSystem, VarFeed};
    use std::sync::{Arc, Mutex};

    /// A small real run of the `socket_ingest` condition set over
    /// channels, with what its `on_alert` callback saw.
    fn small_run() -> (&'static Workload, ConditionSet, RunReport, Vec<Seen>) {
        let workload = find("socket_ingest").unwrap();
        let set = workload.condition_set();
        let layout = Layout::new(workload.data_vars);
        let values = crate::workloads::values(3, layout, 4_000);
        let mut per_feed = vec![Vec::new(); workload.data_vars + 1];
        for (g, v) in values.iter().enumerate() {
            per_feed[layout.feed_of(g as u64)].push(*v);
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        let mut builder = MonitorSystem::builder_multi(set.dynamic()).replicas(2);
        for (var, readings) in set.vars().into_iter().zip(per_feed) {
            builder = builder.feed(VarFeed::new(var, readings));
        }
        let filter = workload.filter(&set);
        let report = builder
            .filter(move |_| filter)
            .on_alert(move |a| {
                sink.lock().unwrap().push(Seen { cond: a.cond, id: a.id, newest: 0, shown_ns: 0 })
            })
            .start()
            .expect("system starts")
            .wait();
        let seen = seen.lock().unwrap().clone();
        assert!(report.displayed.len() > 200, "the run displays alerts to tamper with");
        (workload, set, report, seen)
    }

    #[test]
    fn a_clean_run_passes_and_counts_every_delivery() {
        let (workload, set, report, seen) = small_run();
        let deliveries = check(workload, &set, &report, &seen).expect("clean run");
        assert_eq!(deliveries, Deliveries { attempted: 8_000, failed: 0 });
    }

    #[test]
    fn dropping_one_displayed_alert_fails() {
        let (workload, set, mut report, seen) = small_run();
        report.displayed.remove(100);
        let err = check(workload, &set, &report, &seen).unwrap_err();
        assert!(err.contains("displayed"), "{err}");
    }

    #[test]
    fn swapping_two_displayed_alerts_fails() {
        let (workload, set, mut report, mut seen) = small_run();
        // Swap in the callback's record too: the display order itself
        // must be what the filter produces.
        report.displayed.swap(100, 101);
        seen.swap(100, 101);
        let err = check(workload, &set, &report, &seen).unwrap_err();
        assert!(err.contains("displayed: alert 100"), "{err}");
    }

    #[test]
    fn editing_one_ingested_seqno_fails() {
        let (workload, set, mut report, seen) = small_run();
        // The last heartbeat a replica ingested: its alert's fingerprint
        // carries the seqno, so the replay no longer matches `emitted`.
        let at = report.ingested[0].iter().rposition(|u| u.var == set.hb).unwrap();
        let u = report.ingested[0][at];
        report.ingested[0][at] = Update { seqno: SeqNo::new(u.seqno.get() + 1), ..u };
        let err = check(workload, &set, &report, &seen).unwrap_err();
        assert!(err.contains("replica 0 emitted"), "{err}");
    }

    #[test]
    fn a_missed_or_repeated_callback_fails() {
        let (workload, set, report, mut seen) = small_run();
        let extra = seen[5];
        seen.insert(5, extra);
        assert!(check(workload, &set, &report, &seen).unwrap_err().contains("on_alert ran"));
        seen.remove(5);
        seen.remove(6);
        assert!(check(workload, &set, &report, &seen).unwrap_err().contains("on_alert ran"));
    }

    #[test]
    fn a_delivery_that_never_reached_its_replica_is_counted_not_fatal() {
        let (workload, set, mut report, seen) = small_run();
        // Forget an update a replica recorded that crossed no threshold:
        // the conditions are degree 1, so no alert depended on it.
        let quiet =
            report.ingested[1].iter().rposition(|u| u.var != set.hb && u.value < 99.0).unwrap();
        report.ingested[1].remove(quiet);
        let deliveries = check(workload, &set, &report, &seen).expect("loss is not a mismatch");
        assert_eq!(deliveries.failed, 1);
    }
}
