//! `rcm-paper`: runs the paper's artifacts and shows their records.
//!
//! ```text
//! rcm-paper [--only NAME]... [--runs N] [--seed N] [--json] [--write FILE]
//! ```
//!
//! Runs every artifact of `rcm_bench::ARTIFACTS`, or those `--only`
//! names, at their default runs (or `--runs`) from `--seed` (default
//! 24301), then prints their records as text, or with `--json` as one
//! object keyed by artifact name. `--write FILE` also rewrites FILE's
//! generated blocks (`<!-- generated: NAME … -->` … `<!-- end: NAME -->`)
//! and leaves the rest of it alone.
//!
//! Exit status: 1 when a verdict fails (stderr names each artifact and
//! claim), 2 on malformed arguments or when FILE cannot be rewritten.

use std::process::ExitCode;

use rcm_bench::{failures, render_json, render_text, write_blocks, ARTIFACTS, DEFAULT_SEED};

const USAGE: &str =
    "usage: rcm-paper [--only NAME]... [--runs N] [--seed N] [--json] [--write FILE]";

struct Options {
    only: Vec<String>,
    runs: Option<u64>,
    seed: u64,
    json: bool,
    write: Option<String>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut o =
        Options { only: Vec::new(), runs: None, seed: DEFAULT_SEED, json: false, write: None };
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} takes a value"));
        let int =
            |v: String| v.parse::<u64>().map_err(|_| format!("{arg} takes an integer, not {v:?}"));
        match arg.as_str() {
            "--only" => {
                let name = value()?;
                if !ARTIFACTS.iter().any(|a| a.name == name) {
                    let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.name).collect();
                    return Err(format!("no artifact {name:?}; one of: {}", names.join(", ")));
                }
                o.only.push(name);
            }
            "--runs" => o.runs = Some(int(value()?)?),
            "--seed" => o.seed = int(value()?)?,
            "--json" => o.json = true,
            "--write" => o.write = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(o)
}

fn main() -> ExitCode {
    let o = match parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("rcm-paper: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let chosen =
        ARTIFACTS.iter().filter(|a| o.only.is_empty() || o.only.iter().any(|n| n == a.name));
    let records: Vec<_> = chosen.map(|a| a.record(o.runs, o.seed)).collect();
    if o.json {
        println!("{:#}", render_json(&records));
    } else {
        print!("{}", render_text(&records));
    }
    let mut code = 0;
    for failed in failures(&records) {
        eprintln!("rcm-paper: FAILED {failed}");
        code = 1;
    }
    if let Some(path) = &o.write {
        let written = std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|doc| write_blocks(&doc, &records))
            .and_then(|doc| std::fs::write(path, doc).map_err(|e| e.to_string()));
        if let Err(e) = written {
            eprintln!("rcm-paper: {path}: {e}");
            code = 2;
        }
    }
    ExitCode::from(code)
}
