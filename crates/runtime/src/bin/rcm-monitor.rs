//! `rcm-monitor` — run a replicated condition-monitoring pipeline over
//! readings from stdin.
//!
//! ```text
//! printf '2900\n3100\n3200\n' | \
//!     cargo run -p rcm-runtime --bin rcm-monitor -- \
//!         --condition 'temp[0].value > 3000' --replicas 3 --filter ad4
//! ```
//!
//! Input lines are either `<value>` (single-variable conditions) or
//! `<var> <value>` (multi-variable); readings are assigned consecutive
//! per-variable sequence numbers in input order. Each displayed alert
//! is printed as it happens; a summary follows at end of stream.
//!
//! LOCK ORDER: no mutexes in this binary — the only `.lock()` is
//! stdin's reader lock, held for the read loop on the main thread.

use rcm_sync::Arc;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::{BufRead, Write};
use std::process::ExitCode;

use rcm_core::ad;
use rcm_core::condition::expr::CompiledCondition;
use rcm_core::condition::Condition;
use rcm_core::VarRegistry;
use rcm_net::{Bernoulli, LossModel, Lossless};
use rcm_runtime::{MonitorSystem, VarFeed};

struct Options {
    condition: String,
    replicas: usize,
    filter: String,
    loss: f64,
    seed: u64,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: rcm-monitor --condition '<expr>' [--replicas N] \
         [--filter pass|ad1|ad2|ad3|ad4|ad5|ad6] [--loss P] [--seed N]\n\
         readings on stdin: '<value>' or '<var> <value>' per line"
    );
    ExitCode::FAILURE
}

fn parse_args() -> Option<Options> {
    let mut opts =
        Options { condition: String::new(), replicas: 2, filter: "ad1".into(), loss: 0.0, seed: 0 };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--condition" => opts.condition = args.next()?,
            "--replicas" => opts.replicas = args.next()?.parse().ok()?,
            "--filter" => opts.filter = args.next()?,
            "--loss" => opts.loss = args.next()?.parse().ok()?,
            "--seed" => opts.seed = args.next()?.parse().ok()?,
            _ => return None,
        }
    }
    if opts.condition.is_empty() {
        return None;
    }
    Some(opts)
}

fn main() -> ExitCode {
    let Some(opts) = parse_args() else { return usage() };

    let mut registry = VarRegistry::new();
    let condition = match CompiledCondition::compile(&opts.condition, &mut registry) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: bad condition: {e}");
            return ExitCode::FAILURE;
        }
    };
    let vars = condition.variables();

    // Read all readings: "<value>" or "<var> <value>" per line.
    let mut feeds: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let default_var = registry.name(vars[0]).expect("compiled variable").to_owned();
    for (lineno, line) in std::io::stdin().lock().lines().enumerate() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (var, value) = match (parts.next(), parts.next()) {
            (Some(v), None) => (default_var.clone(), v),
            (Some(var), Some(v)) => (var.to_owned(), v),
            _ => continue,
        };
        let Ok(value) = value.parse::<f64>() else {
            eprintln!("error: line {}: bad value '{value}'", lineno + 1);
            return ExitCode::FAILURE;
        };
        feeds.entry(var).or_default().push(value);
    }

    // Wire the system.
    let registry = Arc::new(registry);
    let filter_name = opts.filter.clone();
    let vars_for_filter = vars.clone();
    let registry_for_cb = Arc::clone(&registry);
    // Cleared at the first failed write (a reader that hung up): the run
    // goes on without printing, and still ends with its `done:` line.
    let stdout_open = Cell::new(true);
    let mut builder = MonitorSystem::builder(Arc::new(condition))
        .replicas(opts.replicas)
        .seed(opts.seed)
        .filter(move |_| {
            ad::by_name(&filter_name, &vars_for_filter).unwrap_or_else(|| {
                eprintln!("error: filter '{filter_name}' unavailable for this variable count");
                std::process::exit(2);
            })
        })
        .on_alert(move |alert| {
            if !stdout_open.get() {
                return;
            }
            let heads: Vec<String> = alert
                .fingerprint
                .iter()
                .map(|(v, seqnos)| {
                    format!("{}@{}", registry_for_cb.name(v).unwrap_or("?"), seqnos[0])
                })
                .collect();
            let value = alert.updates().next().map(|u| u.value);
            let (heads, ce) = (heads.join(", "), alert.id.ce);
            let written =
                writeln!(std::io::stdout().lock(), "ALERT {heads} (reading {value:?}) [from {ce}]");
            stdout_open.set(written.is_ok());
        });
    for (name, values) in feeds {
        let Some(var) = registry.lookup(&name).filter(|v| vars.contains(v)) else {
            eprintln!("error: variable '{name}' is not in the condition");
            return ExitCode::FAILURE;
        };
        builder = builder.feed(VarFeed::new(var, values));
    }
    let loss_p = opts.loss;
    builder = builder.loss(move |_, _| {
        if loss_p > 0.0 {
            Box::new(Bernoulli::new(loss_p)) as Box<dyn LossModel>
        } else {
            Box::new(Lossless)
        }
    });

    let system = match builder.start() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = system.wait();
    let dropped: u64 = report.links.iter().map(|(_, r)| r.dropped).sum();
    eprintln!(
        "done: {} alert(s) displayed of {} arriving; {} update(s) lost on front links",
        report.displayed.len(),
        report.arrivals.len(),
        dropped
    );
    ExitCode::SUCCESS
}
