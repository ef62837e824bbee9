//! rcm-e2e: reading -> displayed-alert benchmark of the DM -> CE x R -> AD
//! runtime. See README.md for the metric and workload definitions.
//!
//! ```text
//! rcm-e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, JSON on the last line
//! rcm-e2e [--seed <n>] [--seconds <s>] [--quick | --check-repeat]    all four workloads
//! ```

mod calib;
mod generator;
mod live;
mod metrics;
mod oracle;
mod os;
mod probes;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::fs;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use live::{LiveRun, Phases};
use metrics::{Metric, ReplaySummary, END_TO_END};
use oracle::Deliveries;
use trace::{NoTrace, Tracer};
use workloads::{Workload, WORKLOADS};

/// Seconds one run measures unless `--seconds` says otherwise; the value
/// `BENCHMARK.json` records as `run_seconds`.
const RUN_SECONDS: f64 = 20.0;

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    check_repeat: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
        check_repeat: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=60.0).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => args.quick = true,
            "--check-repeat" => args.check_repeat = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// One run's verdict and numbers.
struct Outcome {
    deliveries: Deliveries,
    /// The metrics the result line carries.
    metrics: Vec<Metric>,
    /// Metrics printed with the run but not part of its result line.
    also: Vec<Metric>,
    latency_samples: usize,
}

fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

/// Runs the workload live and checks it against the oracle.
fn live_checked(
    workload: &Workload,
    seed: u64,
    phases: &Phases,
) -> Result<(LiveRun, Deliveries), String> {
    let begun = Instant::now();
    let run = live::run(workload, seed, phases)?;
    let live_s = begun.elapsed().as_secs_f64();
    let deliveries = oracle::check(workload, &run.set, &run.report, &run.seen)
        .map_err(|e| format!("oracle: {e}"))?;
    eprintln!(
        "{}: live run {live_s:.1} s, oracle {:.1} s",
        workload.name,
        begun.elapsed().as_secs_f64() - live_s
    );
    Ok((run, deliveries))
}

fn untraced(workload: &Workload, seed: u64, phases: &Phases) -> Result<Outcome, String> {
    let (run, deliveries) = live_checked(workload, seed, phases)?;
    Ok(Outcome {
        deliveries,
        metrics: metrics::end_to_end(&run),
        also: metrics::unbounded(&run),
        latency_samples: run.latency.samples,
    })
}

/// The traced run: a short live run for the counters, the replay with
/// and without spans, the side replays, and the hop probes.
fn traced(workload: &Workload, seed: u64, phases: &Phases) -> Result<Outcome, String> {
    let (run, deliveries) = live_checked(workload, seed, phases)?;

    let input = replay::input(workload, &run.set, seed, workload.replay_updates);
    // Alternate untraced and traced passes and keep the fastest of each:
    // the overhead is a difference of two small numbers.
    let mut untraced_ns = u64::MAX;
    let mut passes = Vec::new();
    for _ in 0..2 {
        let (plain, _) = replay::chain(workload, &run.set, seed, &input, &mut NoTrace);
        untraced_ns = untraced_ns.min(plain.wall.as_nanos() as u64);
        let mut tracer = Tracer::new();
        let (counters, admitted) = replay::chain(workload, &run.set, seed, &input, &mut tracer);
        passes.push((counters, admitted, tracer));
    }
    let (counters, admitted, mut tracer) =
        passes.into_iter().min_by_key(|(counters, ..)| counters.wall).expect("two passes ran");
    let traced_ns = counters.wall.as_nanos() as u64;
    let raised = replay::incremental(&run.set, &admitted, &mut tracer);
    let tree_derived_per_update = replay::tree(seed, &mut tracer);
    // The probes' threads share the system's CPU, as its actors do.
    let placement = live::Placement::of_this_host();
    os::pin_current_thread(&placement.system);
    let probes = probes::run_all();
    os::pin_current_thread(&placement.all);

    fs::create_dir_all(out_dir()).map_err(|e| format!("creating {}: {e}", out_dir().display()))?;
    let path = out_dir().join(format!("trace-{}.json", workload.name));
    fs::write(&path, trace::to_json(tracer.spans()))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    // The replay is a reference too: full and incremental evaluation
    // must raise the same alerts on the same stream.
    if raised != counters.alerts0 {
        return Err(format!(
            "replay: incremental evaluation raised {raised} alerts, full evaluation {}",
            counters.alerts0
        ));
    }

    let summary = ReplaySummary {
        counters,
        fed: input.len() as u64,
        untraced_wall_ns: untraced_ns,
        traced_wall_ns: traced_ns,
        tree_derived_per_update,
    };
    let metrics = metrics::per_layer(&run, &deliveries, tracer.spans(), &summary, probes);
    Ok(Outcome { deliveries, metrics, also: Vec::new(), latency_samples: run.latency.samples })
}

fn print_metrics(workload: &str, outcome: &Outcome) {
    for metric in outcome.metrics.iter().chain(&outcome.also) {
        println!("{workload:<14} {:<42} {:>16.6} {}", metric.name, metric.value, metric.unit);
    }
    for (name, count) in [
        ("ops_attempted", outcome.deliveries.attempted),
        ("ops_failed", outcome.deliveries.failed),
        ("latency_samples", outcome.latency_samples as u64),
    ] {
        println!("{workload:<14} {name:<42} {count:>16} count");
    }
}

fn result_json(outcome: &Outcome) -> String {
    format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.deliveries.attempted.max(1),
        outcome.deliveries.failed,
        metrics::to_json(&outcome.metrics)
    )
}

/// The driver's mode: one workload, one run, the result on the last line.
fn run_one(workload: &Workload, args: &Args) -> ExitCode {
    let result = match (args.trace, args.quick) {
        (true, _) => traced(workload, args.seed, &Phases::counters(args.seconds)),
        (false, true) => untraced(workload, args.seed, &Phases::quick()),
        (false, false) => untraced(workload, args.seed, &Phases::measured(args.seconds)),
    };
    match result {
        Ok(outcome) => {
            print_metrics(workload.name, &outcome);
            println!("{}", result_json(&outcome));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", workload.name);
            println!("{{\"correct\": false, \"attempted\": 1, \"failed\": 1, \"metrics\": {{}}}}");
            ExitCode::FAILURE
        }
    }
}

/// One run in a fresh process of this same program, as the driver makes
/// it: memory high-water marks, thread placement and allocator state do
/// not leak from one run into the next. Relays the child's report and
/// returns its stdout.
fn run_in_child(workload: &Workload, args: &Args, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let mut child = Command::new(exe);
    child
        .args(["--workload", workload.name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        child.arg("--quick");
    }
    // stderr is inherited; `output` waits for the child to end.
    let output = child
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting a run of {}: {e}", workload.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    print!("{stdout}");
    if output.status.success() {
        Ok(stdout)
    } else {
        Err(format!("{}: run ended with {}", workload.name, output.status))
    }
}

/// All four workloads, untraced then traced, one process each; results
/// also go to `out/`. `--quick` runs short phases and skips the traced
/// runs.
fn run_all(args: &Args) -> ExitCode {
    let traces: &[bool] = if args.quick { &[false] } else { &[false, true] };
    let mut rows = Vec::new();
    let mut failed = false;
    for workload in &WORKLOADS {
        for &trace in traces {
            match run_in_child(workload, args, trace) {
                Ok(stdout) => rows.push(format!(
                    "{{\"workload\": \"{}\", \"trace\": {}, \"result\": {}}}",
                    workload.name,
                    u8::from(trace),
                    stdout.lines().last().unwrap_or("null")
                )),
                Err(e) => {
                    eprintln!("{e}");
                    failed = true;
                }
            }
        }
    }
    let doc = format!(
        "{{\"quick\": {}, \"seed\": {}, \"seconds\": {}, \"runs\": [\n{}\n]}}\n",
        args.quick,
        args.seed,
        args.seconds,
        rows.join(",\n")
    );
    let path = out_dir().join(if args.quick { "results-quick.json" } else { "results.json" });
    if let Err(e) = fs::create_dir_all(out_dir()).and_then(|()| fs::write(&path, doc)) {
        eprintln!("writing {}: {e}", path.display());
        failed = true;
    }
    if args.quick {
        println!("quick run: a smoke test of every workload and the oracle, not numbers");
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The metric lines of a run's report, as `(name, value)`; the plain
/// counts are left out.
fn reported(stdout: &str) -> Vec<(String, f64)> {
    stdout
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_ascii_whitespace().skip(1);
            let (name, value, unit) = (fields.next()?, fields.next()?, fields.next()?);
            (unit != "count").then_some((name.to_string(), value.parse().ok()?))
        })
        .collect()
}

/// Two full untraced sets with one seed; every bounded metric of every
/// workload must agree within its bound.
fn check_repeat(args: &Args) -> ExitCode {
    let mut sets: Vec<Vec<Vec<(String, f64)>>> = Vec::new();
    for _ in 0..2 {
        let mut set = Vec::new();
        for workload in &WORKLOADS {
            match run_in_child(workload, args, false) {
                Ok(stdout) => set.push(reported(&stdout)),
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        sets.push(set);
    }
    let mut breaches = 0;
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for ((name, a), (_, b)) in sets[0][w].iter().zip(&sets[1][w]) {
            let spread = (a - b).abs() / a.min(*b);
            let verdict = match END_TO_END.iter().find(|bound| bound.name == name) {
                None => "(no bound)".to_string(),
                Some(bound) if spread <= bound.bound => format!("bound {:.2} ok", bound.bound),
                Some(bound) => {
                    breaches += 1;
                    format!("bound {:.2} BREACH", bound.bound)
                }
            };
            println!(
                "{:<14} {name:<28} {a:>16.6} {b:>16.6} spread {spread:.4} {verdict}",
                workload.name
            );
        }
    }
    if breaches > 0 {
        eprintln!("{breaches} metric(s) disagree between two runs of the same code by more than their bound");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rcm-e2e: {e}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(name) => match workloads::find(name) {
            Some(workload) => run_one(workload, &args),
            None => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!("rcm-e2e: no workload {name}; have {}", names.join(", "));
                ExitCode::from(2)
            }
        },
        None if args.check_repeat => check_repeat(&args),
        None => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reported_reads_metric_lines_and_skips_counts_and_the_result_line() {
        let stdout = "\
eval_fanout    setup_s                                            0.002596 s
eval_fanout    closed_loop_updates_per_s                       8585.333235 1/s
eval_fanout    ops_failed                                                0 count
{\"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {}}
";
        assert_eq!(
            reported(stdout),
            [
                ("setup_s".to_string(), 0.002596),
                ("closed_loop_updates_per_s".to_string(), 8585.333235)
            ]
        );
    }
}
