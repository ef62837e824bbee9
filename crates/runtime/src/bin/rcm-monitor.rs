//! `rcm-monitor` — run a replicated condition-monitoring pipeline over
//! readings from stdin.
//!
//! ```text
//! printf '2900\n3100\n3200\n' | \
//!     cargo run -p rcm-runtime --bin rcm-monitor -- \
//!         --condition 'temp[0].value > 3000' --replicas 3 --filter ad4
//! ```
//!
//! `--condition` may be given more than once: condition `i` is `ci`,
//! and variables get ids in first-mention order across the
//! expressions, as `rcm-ce` gives them. Input lines are either
//! `<value>` (for the first-mentioned variable) or `<var> <value>`;
//! readings are assigned consecutive per-variable sequence numbers in
//! input order. The filter runs once per condition; `ad2`, `ad3` and
//! `ad4` refuse a condition over several variables, as any node refuses
//! an unknown filter name, with one `error:` line and exit 1, before the
//! run starts. Each displayed alert is printed as it happens, in the line
//! `rcm-ad` prints (`rcm_runtime::write_alert`); a summary follows at
//! end of stream.
//!
//! LOCK ORDER: no mutexes in this binary — the only `.lock()` is
//! stdin's reader lock, held for the read loop on the main thread.

use rcm_sync::Arc;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::BufRead;
use std::process::ExitCode;

use rcm_core::ad;
use rcm_core::condition::expr::CompiledCondition;
use rcm_core::condition::Condition;
use rcm_core::{CondId, VarId, VarRegistry};
use rcm_net::{Bernoulli, LossModel, Lossless};
use rcm_runtime::{write_alert, MonitorSystem, VarFeed};

struct Options {
    conditions: Vec<String>,
    replicas: usize,
    filter: String,
    loss: f64,
    seed: u64,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: rcm-monitor --condition '<expr>' [--condition '<expr>' ...] [--replicas N] \
         [--filter pass|ad1|ad2|ad3|ad4|ad5|ad6] [--loss P] [--seed N]\n\
         readings on stdin: '<value>' or '<var> <value>' per line"
    );
    ExitCode::FAILURE
}

fn parse_args() -> Option<Options> {
    let mut opts =
        Options { conditions: Vec::new(), replicas: 2, filter: "ad1".into(), loss: 0.0, seed: 0 };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--condition" => opts.conditions.push(args.next()?),
            "--replicas" => opts.replicas = args.next()?.parse().ok()?,
            "--filter" => opts.filter = args.next()?,
            "--loss" => opts.loss = args.next()?.parse().ok()?,
            "--seed" => opts.seed = args.next()?.parse().ok()?,
            _ => return None,
        }
    }
    if opts.conditions.is_empty() {
        return None;
    }
    Some(opts)
}

fn main() -> ExitCode {
    let Some(opts) = parse_args() else { return usage() };

    let mut registry = VarRegistry::new();
    let mut conditions: Vec<Arc<dyn Condition>> = Vec::new();
    for (i, expr) in opts.conditions.iter().enumerate() {
        let compiled = CompiledCondition::compile(expr, &mut registry)
            .map_err(|e| format!("bad condition '{expr}': {e}"));
        // `rcm-ad` refuses at the condition's first alert; this is sooner.
        let cond = CondId::new(i as u32);
        match compiled
            .and_then(|c| ad::for_condition(&opts.filter, cond, &c.variables()).map(|_| c))
        {
            Ok(c) => conditions.push(Arc::new(c)),
            Err(why) => {
                eprintln!("error: {why}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Read all readings: "<value>" or "<var> <value>" per line.
    let mut feeds: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let default_var = registry.name(VarId::new(0)).expect("compiled variable").to_owned();
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

    // Cleared at the first failed write (a reader that hung up): the run
    // goes on without printing, and still ends with its `done:` line.
    let stdout_open = Cell::new(true);
    let mut builder = MonitorSystem::builder_multi(conditions)
        .replicas(opts.replicas)
        .seed(opts.seed)
        .filter(move |_| {
            Box::new(ad::per_condition(opts.filter, |why| unreachable!("{why}: refused above")))
        })
        .on_alert(move |alert| {
            if !stdout_open.get() {
                return;
            }
            stdout_open.set(write_alert(&mut std::io::stdout().lock(), alert).is_ok());
        });
    for (name, values) in feeds {
        let Some(var) = registry.lookup(&name) else {
            eprintln!("error: variable '{name}' is in no condition");
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
