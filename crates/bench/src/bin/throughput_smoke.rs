//! CI smoke check for the multi-condition engine: over the shared
//! `rcm_bench::throughput` workload, a `ConditionRegistry` must (a)
//! emit exactly the alerts a loop of independent `Evaluator`s emits
//! and (b) not be slower than it. Runs in seconds with tiny iteration
//! counts — it is a direction check, not a measurement;
//! `bench_snapshot` produces the gated numbers.
//!
//! Usage: `throughput_smoke [--conditions N] [--updates N] [--trials N]`
//! Exits non-zero on an equivalence mismatch or when the evaluator
//! loop beats the registry (best-of-`trials` for each side,
//! interleaved so machine noise hits both alike).

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use rcm_bench::throughput::{self, EvaluatorLoop};
use rcm_core::{Alert, CeId, ConditionRegistry};

/// Next argument parsed as an integer, or a panic with the flag name.
fn next_int(args: &mut impl Iterator<Item = String>, flag: &str) -> usize {
    args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| panic!("{flag} takes an integer"))
}

fn main() -> ExitCode {
    let (mut n_conds, mut n_updates, mut trials) = (100usize, 1024usize, 5usize);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--conditions" => n_conds = next_int(&mut args, "--conditions"),
            "--updates" => n_updates = next_int(&mut args, "--updates"),
            "--trials" => trials = next_int(&mut args, "--trials"),
            other => {
                eprintln!("unknown argument '{other}'");
                eprintln!("usage: throughput_smoke [--conditions N] [--updates N] [--trials N]");
                return ExitCode::FAILURE;
            }
        }
    }

    let (conds, ids) = throughput::conditions(n_conds);
    let updates = throughput::stream(&ids, n_updates);
    let mut registry = ConditionRegistry::new(CeId::new(0));
    for cond in &conds {
        registry.add_compiled(cond.clone());
    }
    let mut evaluators = EvaluatorLoop::new(CeId::new(0), &conds);

    // One full pass over the stream, from cleared histories.
    let (mut a, mut b): (Vec<Alert>, Vec<Alert>) = (Vec::new(), Vec::new());
    let mut registry_pass = |out: &mut Vec<Alert>| {
        registry.restart();
        out.clear();
        registry.ingest_batch(black_box(&updates), out);
    };
    let mut evaluators_pass = |out: &mut Vec<Alert>| {
        evaluators.restart();
        out.clear();
        evaluators.ingest_batch(black_box(&updates), out);
    };

    // Equivalence first: both sides must emit identical alert streams.
    registry_pass(&mut a);
    evaluators_pass(&mut b);
    if a != b || a.iter().zip(&b).any(|(x, y)| x.id != y.id) {
        eprintln!(
            "FAIL: the registry and the evaluator loop diverged ({} vs {} alerts)",
            a.len(),
            b.len()
        );
        return ExitCode::FAILURE;
    }

    // Best-of-`trials`, interleaved (warm-up pass already done above).
    let (mut reg_best, mut ev_best) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..trials {
        let t = Instant::now();
        registry_pass(&mut a);
        reg_best = reg_best.min(t.elapsed().as_secs_f64());
        let t = Instant::now();
        evaluators_pass(&mut b);
        ev_best = ev_best.min(t.elapsed().as_secs_f64());
    }
    let reg_ups = n_updates as f64 / reg_best;
    let ev_ups = n_updates as f64 / ev_best;
    println!(
        "throughput_smoke: {n_conds} conditions, {n_updates} updates, {} alerts/pass",
        a.len()
    );
    println!("  registry:   {reg_ups:>12.0} updates/sec");
    println!("  evaluators: {ev_ups:>12.0} updates/sec");
    println!("  speedup:    {:>12.2}x", reg_ups / ev_ups);

    if reg_ups < ev_ups {
        eprintln!("FAIL: the registry is slower than a loop of independent evaluators");
        return ExitCode::FAILURE;
    }
    println!("ok: registry >= evaluator loop");
    ExitCode::SUCCESS
}
