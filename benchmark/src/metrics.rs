//! Metric names, units and bounds, and how each is read off a run.
//! The names here are the ones `BENCHMARK.json` lists and every later
//! issue quotes.

use crate::live::LiveRun;
use crate::oracle::Deliveries;
use crate::replay::{stage, Counters};
use crate::trace::{layer_totals, Span};

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        assert!(value.is_finite(), "{name} is not a finite number: {value}");
        Metric { name, value, unit }
    }
}

/// Shorthand for the tables below.
fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric::new(name, value, unit)
}

/// An end-to-end metric and the share of the parent's median by which
/// it may worsen. All three are lower-is-better.
#[derive(Debug, Clone, Copy)]
pub struct Bound {
    pub name: &'static str,
    pub bound: f64,
}

/// The bounded metrics, as `BENCHMARK.json` lists them. Alert latency
/// and closed-loop throughput are what an operator feels first, but on
/// the reference host they do not repeat within any bound the contract
/// allows (README.md, "Steadiness"); they are reported with every run
/// and listed among the per-layer metrics, unbounded.
pub const END_TO_END: [Bound; 3] = [
    Bound { name: "setup_s", bound: 0.25 },
    Bound { name: "cpu_us_per_update", bound: 0.25 },
    Bound { name: "peak_rss_mb", bound: 0.25 },
];

pub fn end_to_end(run: &LiveRun) -> Vec<Metric> {
    vec![
        m("setup_s", run.setup_s, "s"),
        m("cpu_us_per_update", run.cpu_us_per_update, "us"),
        m("peak_rss_mb", run.peak_rss_mb, "MB"),
    ]
}

/// What an operator sees of a run besides the bounded metrics.
pub fn unbounded(run: &LiveRun) -> Vec<Metric> {
    vec![
        m("alert_latency_p50_us", run.latency.p50_us, "us"),
        m("alert_latency_p99_us", run.latency.p99_us, "us"),
        m("closed_loop_updates_per_s", run.closed_updates_per_s, "1/s"),
        m("runtime.system.start_ms", run.system_start_ms, "ms"),
    ]
}

fn share(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// What the traced replay measured, beyond its spans.
#[derive(Debug, Clone, Copy)]
pub struct ReplaySummary {
    pub counters: Counters,
    /// Updates the replay was fed (before loss, per replica).
    pub fed: u64,
    /// Wall time of the fastest untraced pass over the same input.
    pub untraced_wall_ns: u64,
    /// Wall time of the fastest traced pass.
    pub traced_wall_ns: u64,
    pub tree_derived_per_update: f64,
}

/// Every per-layer metric, from the traced run's three sources: the
/// replay's spans and counts, the counters of a live run, and the hop
/// probes (appended as they come).
pub fn per_layer(
    live: &LiveRun,
    deliveries: &Deliveries,
    spans: &[Span],
    replay: &ReplaySummary,
    probes: Vec<Metric>,
) -> Vec<Metric> {
    let totals = layer_totals(spans);
    let ns = |name: &str| totals.get(name).map_or(0.0, |t| t.ns_per_item());
    let c = &replay.counters;

    // The chain's own time: every chunk span, less the stages that run
    // aside. Chunk spans hold the glue between stages as self time.
    let chunk_ns: u64 =
        spans.iter().filter(|s| s.name == stage::CHUNK).map(|s| s.end_ns - s.start_ns).sum();
    let aside_ns: u64 =
        stage::ASIDE.iter().map(|name| totals.get(name).map_or(0, |t| t.self_ns)).sum();
    let chain_ns = chunk_ns - aside_ns;
    let glue_ns = totals.get(stage::CHUNK).map_or(0, |t| t.self_ns);
    let per_offered_us = chain_ns as f64 / replay.fed as f64 / 1e3;

    let report = &live.report;
    let sent: u64 = report.links.iter().map(|(_, l)| l.sent).sum();
    let dropped: u64 = report.links.iter().map(|(_, l)| l.dropped).sum();
    let queued_peak = report.transport.back_links.iter().map(|b| b.queued_peak).max().unwrap_or(0);
    let engine = report.transport.engine;

    let mut metrics = unbounded(live);
    metrics.extend([
        m("core.registry.ingest_ns", ns(stage::REGISTRY), "ns"),
        m("core.registry.offers_per_update", share(c.offers, c.delivered), "count"),
        m("core.registry.alerts_per_update", share(c.alerts, c.delivered), "count"),
        m("core.registry.ingest_incremental_ns", ns(stage::INCREMENTAL), "ns"),
        m("core.ad.offer_ns", ns(stage::AD_OFFER), "ns"),
        m("core.ad.deliver_share", share(c.displayed, c.alerts), "ratio"),
        m("core.latency.record_ns", ns(stage::LATENCY), "ns"),
        m("transport.wire.update_encode_ns", ns(stage::UPDATE_ENCODE), "ns"),
        m("transport.wire.update_decode_ns", ns(stage::UPDATE_DECODE), "ns"),
        m("transport.wire.update_bytes", share(c.update_frame_bytes, c.delivered), "B"),
        m("transport.wire.update_batch8_decode_ns", ns(stage::BATCH8_DECODE), "ns"),
        m("transport.wire.alert_encode_ns", ns(stage::ALERT_ENCODE), "ns"),
        m("transport.wire.alert_decode_ns", ns(stage::ALERT_DECODE), "ns"),
        m("transport.wire.alert_bytes", share(c.alert_frame_bytes, c.alerts), "B"),
        m("transport.gate.admit_ns", ns(stage::SEQ_GATE), "ns"),
        m("runtime.ingest_gate.admit_ns", ns(stage::INGEST_GATE), "ns"),
        m("runtime.front_link.send_ns", ns(stage::FRONT_LINK), "ns"),
        m("runtime.backlink.send_ns", ns(stage::BACKLINK), "ns"),
        m(
            "runtime.pipeline.shed_share",
            share(report.pipeline.updates_shed, deliveries.attempted),
            "ratio",
        ),
        m("transport.engine.wakeups_per_update", share(engine.wakeups, live.offered), "count"),
        m(
            "transport.engine.spurious_share",
            share(engine.spurious_readiness, engine.wakeups),
            "ratio",
        ),
        m("tree.eval.ingest_ns", ns(stage::TREE), "ns"),
        m("tree.eval.derived_per_update", replay.tree_derived_per_update, "count"),
        m("runtime.system.ingest_to_emit_p50_ns", report.pipeline.latency.p50_ns as f64, "ns"),
        m("runtime.system.ingest_to_emit_p99_ns", report.pipeline.latency.p99_ns as f64, "ns"),
        m("runtime.system.front_dropped_share", share(dropped, sent), "ratio"),
        m("runtime.system.backlink_queued_peak", queued_peak as f64, "count"),
        m(
            "runtime.system.arrivals_per_displayed",
            share(report.arrivals.len() as u64, report.displayed.len() as u64),
            "count",
        ),
        m("replay.ns_per_update", share(chain_ns, c.delivered), "ns"),
        m("replay.accounted_share", 1.0 - share(glue_ns, chain_ns), "ratio"),
        m("replay.coordination_share", 1.0 - per_offered_us / live.cpu_us_per_update, "ratio"),
        m("gen.lateness_p99_us", live.lateness_p99_us, "us"),
        m("gen.window_stalls", live.window.stalls as f64, "count"),
        m("gen.feed_waits", live.feed_waits as f64, "count"),
        m(
            "trace.overhead_share",
            (replay.traced_wall_ns as f64 / replay.untraced_wall_ns as f64 - 1.0).max(0.0),
            "ratio",
        ),
    ]);
    metrics.extend(probes);
    metrics
}

/// `{"name": {"value": v, "unit": "u"}, ...}`.
pub fn to_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_keeps_every_digit_and_is_well_formed() {
        let json = to_json(&[m("a_ns", 0.1 + 0.2, "ns"), m("b", 3.0, "1/s")]);
        assert_eq!(
            json,
            "{\"a_ns\": {\"value\": 0.30000000000000004, \"unit\": \"ns\"}, \"b\": {\"value\": 3, \"unit\": \"1/s\"}}"
        );
    }

    #[test]
    fn shares_of_nothing_are_zero() {
        assert_eq!(share(5, 0), 0.0);
        assert_eq!(share(1, 4), 0.25);
    }
}
