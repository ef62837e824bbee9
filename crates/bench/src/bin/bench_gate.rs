//! CI gate over `BENCH_rcm.json`: compares a freshly generated
//! snapshot against the committed one.
//!
//! Usage: `bench_gate <committed.json> <fresh.json> [--tolerance 0.20]`
//!
//! Exits non-zero when the committed file is still the schema
//! placeholder (`meta.placeholder: true`), when a gated metric drifts
//! beyond the tolerance, when the fresh run misses an absolute floor
//! (the advertised wins — e.g. batched binary frames must beat JSON by
//! ≥10×), or when the fresh run lost serial/parallel bit-identity.
//! Absolute nanosecond timings differ wildly across runner
//! generations, so only the machine-relative ratios (the `speedup`
//! fields) are gated; absolute numbers are echoed for the log.
//!
//! Setting `RCM_BENCH_OFFLINE=1` downgrades the placeholder failure to
//! a loud warning (the ratio checks are then skipped — a placeholder
//! has no numbers to compare against). This is the escape hatch for
//! environments that cannot regenerate the committed snapshot; every
//! other failure mode (drift, lost bit-identity) still fails.

use std::process::ExitCode;

use serde_json::Value;

/// Ratio metrics stable enough across machines to gate on.
const GATED: &[&str] = &[
    "/fingerprint/speedup",
    "/ad3_realistic/speedup",
    "/ad3_marching/speedup",
    "/ad6_realistic/speedup",
    "/throughput/conds_100/speedup",
    "/throughput/conds_10k/speedup",
    "/matrix_table1_ad1/speedup",
];

/// Machine-relative ratios the *fresh* snapshot must clear outright —
/// these are the advertised wins, not drift checks, so the committed
/// snapshot plays no part. `(json pointer, minimum)`.
const FLOORS: &[(&str, f64)] = &[("/pipeline/conds_10k/speedup_4", 2.0)];

/// Absolute numbers echoed for the log, never gated.
const INFORMATIONAL: &[&str] = &[
    "/codec/binary_ups",
    "/codec/binary_batched_ups",
    "/fingerprint/inline_ns",
    "/ad3_realistic/interval_offers_per_sec",
    "/ad3_marching/interval_offers_per_sec",
    "/ad6_realistic/interval_offers_per_sec",
    "/throughput/conds_100/registry_ups",
    "/throughput/conds_10k/registry_ups",
    "/pipeline/conds_10k/inline_ups",
    "/pipeline/conds_10k/workers_4_ups",
    "/tree/flat_ups",
    "/tree/tier2_ups",
    "/tree/tier3_ups",
    "/tree/tier2_root_latency/p99_ns",
    "/tree/tier3_root_latency/p99_ns",
    "/matrix_table1_ad1/parallel_secs",
];

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: not valid JSON: {e}"))
}

fn metric(doc: &Value, pointer: &str) -> Option<f64> {
    doc.pointer(pointer).and_then(Value::as_f64)
}

/// Relative drift of `fresh` against `committed` (symmetric in sign,
/// relative to the committed value).
fn drift(committed: f64, fresh: f64) -> f64 {
    if committed == 0.0 {
        return if fresh == 0.0 { 0.0 } else { f64::INFINITY };
    }
    ((fresh - committed) / committed).abs()
}

fn usage() -> ExitCode {
    eprintln!("usage: bench_gate <committed.json> <fresh.json> [--tolerance 0.20]");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut paths: Vec<String> = Vec::new();
    let mut tolerance = 0.20f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--tolerance" => match args.next().and_then(|v| v.parse().ok()) {
                Some(t) => tolerance = t,
                None => return usage(),
            },
            flag if flag.starts_with("--") => return usage(),
            path => paths.push(path.to_string()),
        }
    }
    let [committed_path, fresh_path] = paths.as_slice() else {
        return usage();
    };

    let (committed, fresh) = match (load(committed_path), load(fresh_path)) {
        (Ok(c), Ok(f)) => (c, f),
        (c, f) => {
            for err in [c.err(), f.err()].into_iter().flatten() {
                eprintln!("bench_gate: {err}");
            }
            return ExitCode::FAILURE;
        }
    };

    let mut failures = 0u32;

    // A placeholder snapshot asserts nothing — the whole point of the
    // gate is that the committed numbers are real. RCM_BENCH_OFFLINE=1
    // downgrades exactly this failure (and nothing else) to a warning
    // for environments that cannot regenerate the snapshot.
    let offline = std::env::var("RCM_BENCH_OFFLINE").is_ok_and(|v| v == "1");
    if committed.pointer("/meta/placeholder").and_then(Value::as_bool).unwrap_or(true) {
        if offline {
            eprintln!(
                "WARNING: {committed_path} is still the schema placeholder; the ratio checks \
                 are SKIPPED because RCM_BENCH_OFFLINE=1 is set. Regenerate it with \
                 `cargo run -p rcm-bench --release --bin bench_snapshot` and commit the \
                 result as soon as a benchmark-capable machine is available."
            );
        } else {
            eprintln!(
                "FAIL: {committed_path} is still the schema placeholder — regenerate it with \
                 `cargo run -p rcm-bench --release --bin bench_snapshot` and commit the result \
                 (or set RCM_BENCH_OFFLINE=1 to downgrade this to a warning)"
            );
            failures += 1;
        }
    } else {
        for &pointer in GATED {
            match (metric(&committed, pointer), metric(&fresh, pointer)) {
                (Some(c), Some(f)) => {
                    let d = drift(c, f);
                    let verdict = if d <= tolerance { "ok  " } else { "FAIL" };
                    println!(
                        "{verdict} {pointer}: committed {c:.3}, fresh {f:.3} \
                         (drift {:.1}% vs tolerance {:.0}%)",
                        d * 100.0,
                        tolerance * 100.0
                    );
                    if d > tolerance {
                        failures += 1;
                    }
                }
                _ => {
                    eprintln!("FAIL {pointer}: missing or non-numeric in one of the snapshots");
                    failures += 1;
                }
            }
        }
    }

    // Floors judge the fresh snapshot alone: the win must hold on the
    // machine at hand, whatever the committed numbers say. Only a
    // fresh snapshot that is itself the offline placeholder may skip.
    let fresh_placeholder =
        fresh.pointer("/meta/placeholder").and_then(Value::as_bool).unwrap_or(true);
    for &(pointer, floor) in FLOORS {
        match metric(&fresh, pointer) {
            Some(f) if f >= floor => {
                println!("ok   {pointer}: {f:.1} (floor {floor:.0})");
            }
            Some(f) => {
                eprintln!("FAIL {pointer}: {f:.1} is below the {floor:.0} floor");
                failures += 1;
            }
            None if fresh_placeholder && offline => {
                eprintln!(
                    "WARNING: {pointer} floor SKIPPED — fresh snapshot is a placeholder and \
                     RCM_BENCH_OFFLINE=1 is set"
                );
            }
            None => {
                eprintln!("FAIL {pointer}: missing or non-numeric in the fresh snapshot");
                failures += 1;
            }
        }
    }

    if fresh.pointer("/matrix_table1_ad1/bit_identical").and_then(Value::as_bool) != Some(true) {
        eprintln!("FAIL: fresh run lost serial/parallel bit-identity");
        failures += 1;
    }

    for &pointer in INFORMATIONAL {
        if let Some(f) = metric(&fresh, pointer) {
            println!("info {pointer}: {f:.3} (this machine; not gated)");
        }
    }

    if failures == 0 {
        println!("bench gate passed ({} metrics within {:.0}%)", GATED.len(), tolerance * 100.0);
        ExitCode::SUCCESS
    } else {
        eprintln!("bench gate failed: {failures} check(s)");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::drift;

    #[test]
    fn drift_is_relative_and_symmetric_in_sign() {
        assert!((drift(10.0, 12.0) - 0.2).abs() < 1e-12);
        assert!((drift(10.0, 8.0) - 0.2).abs() < 1e-12);
        assert_eq!(drift(0.0, 0.0), 0.0);
        assert_eq!(drift(0.0, 1.0), f64::INFINITY);
    }
}
