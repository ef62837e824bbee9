//! `simulate` — run a replicated-monitoring scenario from a JSON spec.
//!
//! ```text
//! cargo run -p rcm-sim --bin simulate -- scenario.json [--filter ad1..ad6] [--json]
//! cat scenario.json | cargo run -p rcm-sim --bin simulate -- - --filter ad4
//! ```
//!
//! The spec format is [`rcm_sim::ScenarioSpec`]; see its documentation
//! for an example. The tool runs the scenario, applies the chosen AD
//! algorithm, prints the displayed alerts, and reports the paper's
//! three properties for the execution.

use std::io::Read;
use std::process::ExitCode;

use rcm_core::ad::apply_filter;
use rcm_core::condition::Condition;
use rcm_core::Alert;
use rcm_json::obj;
use rcm_props::{check_complete_single, check_consistent_multi, check_ordered};
use rcm_sim::montecarlo::FilterKind;
use rcm_sim::{run, ScenarioSpec};

fn usage() -> ExitCode {
    eprintln!(
        "usage: simulate <scenario.json | -> [--filter pass|ad1|ad2|ad3|ad4|ad5|ad6] [--json]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut path: Option<String> = None;
    let mut filter = FilterKind::Ad1;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--filter" => {
                let Some(name) = args.next() else { return usage() };
                filter = match name.as_str() {
                    "pass" => FilterKind::PassThrough,
                    "ad1" => FilterKind::Ad1,
                    "ad2" => FilterKind::Ad2,
                    "ad3" => FilterKind::Ad3,
                    "ad4" => FilterKind::Ad4,
                    "ad5" => FilterKind::Ad5,
                    "ad6" => FilterKind::Ad6,
                    other => {
                        eprintln!("unknown filter '{other}'");
                        return usage();
                    }
                };
            }
            "--json" => json = true,
            _ if path.is_none() => path = Some(arg),
            _ => return usage(),
        }
    }
    let Some(path) = path else { return usage() };

    let text = if path == "-" {
        let mut buf = String::new();
        if std::io::stdin().read_to_string(&mut buf).is_err() {
            eprintln!("error: cannot read stdin");
            return ExitCode::FAILURE;
        }
        buf
    } else {
        match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let spec = match rcm_json::parse(&text).and_then(|j| ScenarioSpec::from_json(&j)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: bad scenario spec: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (scenario, registry) = match spec.build() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let condition = scenario.condition.clone();
    let vars = condition.variables();
    let result = run(scenario);
    let mut ad = filter.build(&vars);
    let displayed = apply_filter(&mut *ad, &result.arrivals);

    let ordered = check_ordered(&displayed, &vars).ok;
    // Multi-variable completeness enumeration can be exponential on
    // big traces; it is reported only when the trace is small.
    let complete = if vars.len() == 1 {
        Some(check_complete_single(&condition, &result.inputs, &displayed).ok)
    } else {
        let total: usize = rcm_props::merge_per_var(&result.inputs).values().map(Vec::len).sum();
        (total <= rcm_props::MULTI_ENUM_CAP)
            .then(|| rcm_props::check_complete_multi(&condition, &result.inputs, &displayed).ok)
    };
    let consistent = check_consistent_multi(&condition, &result.inputs, &displayed).ok;

    if json {
        let stats = obj([
            ("updates_emitted", result.stats.updates_emitted.into()),
            ("updates_lost", result.stats.updates_lost.into()),
            ("updates_reordered", result.stats.updates_reordered.into()),
            ("alerts_emitted", result.stats.alerts_emitted.into()),
            ("alerts_arrived", result.arrivals.len().into()),
            ("alerts_displayed", displayed.len().into()),
            ("mean_alert_latency", result.mean_alert_latency().into()),
        ]);
        let properties = obj([
            ("ordered", ordered.into()),
            ("complete", complete.into()),
            ("consistent", consistent.into()),
        ]);
        let out = obj([
            ("condition", condition.name().into()),
            ("filter", filter.label().into()),
            ("stats", stats),
            ("properties", properties),
            ("displayed", displayed.iter().map(Alert::to_json).collect()),
        ]);
        println!("{out:#}");
        return ExitCode::SUCCESS;
    }

    println!("condition: {}", condition.name());
    println!("filter:    {}", filter.label());
    println!(
        "updates:   {} emitted, {} lost, {} reordered",
        result.stats.updates_emitted, result.stats.updates_lost, result.stats.updates_reordered
    );
    println!(
        "alerts:    {} emitted, {} arrived, {} displayed",
        result.stats.alerts_emitted,
        result.arrivals.len(),
        displayed.len()
    );
    println!("\ndisplayed alerts:");
    for a in &displayed {
        let heads: Vec<String> = a
            .fingerprint
            .iter()
            .map(|(v, seqnos)| {
                let name = registry.name(v).unwrap_or("?");
                format!("{name}@{}", seqnos[0])
            })
            .collect();
        let values: Vec<String> = a.snapshot.iter().take(2).map(|v| format!("{v}")).collect();
        println!("  {} (values: {})", heads.join(", "), values.join(", "));
    }
    let fmt = |o: Option<bool>| match o {
        Some(true) => "yes",
        Some(false) => "NO",
        None => "skipped (trace too large)",
    };
    println!("\nproperties of this execution:");
    println!("  ordered:    {}", if ordered { "yes" } else { "NO" });
    println!("  complete:   {}", fmt(complete));
    println!("  consistent: {}", fmt(Some(consistent)));
    ExitCode::SUCCESS
}
