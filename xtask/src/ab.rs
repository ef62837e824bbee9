//! `cargo xtask ab --parent <bin> --change <bin> --workload W --seeds A..B`:
//! the alternating-pair protocol that every performance claim in
//! EXPERIMENTS.md rests on, as one command.
//!
//! Both binaries are builds of the benchmark binary, `rcm-e2e`.
//! `--parent-rev <rev>` stands for `--parent`: the command resolves the
//! commit (an unknown rev fails before anything is built), writes its
//! files with `git archive` into a directory of its own under the
//! system's temporary directory, and builds that checkout's `rcm-e2e`
//! there, offline (see [`ParentBuild`]). Without `--change`, the change
//! side is this checkout's `rcm-e2e`, built offline as the benchmark
//! builds it. For each
//! seed from A to B, both included, it runs each binary once as a fresh
//! process (`--workload W --seed S --trace 0`, so each run lasts the
//! benchmark's own run length), the parent first on odd seeds and the
//! change first on even seeds, and reads the
//! result JSON on the run's last stdout line. A pair whose two sides
//! disagree on `correct`, `attempted` or `failed`, or whose run does not
//! finish with a result, fails and is left out of the statistics.
//!
//! For each end-to-end metric `BENCHMARK.json` names, it prints both
//! medians, the median per-pair ratio (change / parent) and its range,
//! how many pairs the change is lower in, and the parent's quartiles and
//! IQR (quantiles interpolate linearly between order statistics). Then
//! come the Markdown tables EXPERIMENTS.md uses and a host fingerprint.
//! Exit status: 0 when every pair ran and agreed, 1 when one did not, 2
//! on bad arguments.

use std::fmt::Write as _;
use std::ops::RangeInclusive;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use rcm_json::{self as json, Json};

/// One run's result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Every metric's value, by name.
    pub metrics: Vec<(String, f64)>,
}

impl Outcome {
    /// Reads the result JSON on the last non-empty line of `stdout`.
    pub fn parse(stdout: &str) -> Result<Outcome, String> {
        let line = stdout.lines().rev().find(|l| !l.trim().is_empty()).ok_or("no output")?;
        let doc = json::parse(line).map_err(|e| format!("the result line is not JSON: {e}"))?;
        let Some(&Json::Bool(correct)) = doc.get("correct") else {
            return Err("the result has no `correct`".into());
        };
        let count = |key: &str| {
            doc.get(key).and_then(Json::as_u64).ok_or(format!("the result has no `{key}`"))
        };
        let Some(Json::Obj(metrics)) = doc.get("metrics") else {
            return Err("the result has no `metrics` object".into());
        };
        let metrics = metrics
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect();
        Ok(Outcome { correct, attempted: count("attempted")?, failed: count("failed")?, metrics })
    }

    /// The value of metric `name`, if the run reported it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// What this run and `other` disagree on among `correct`,
    /// `attempted` and `failed`, if anything.
    pub fn disagreement(&self, other: &Outcome) -> Option<String> {
        let fields = [
            ("correct", self.correct.to_string(), other.correct.to_string()),
            ("attempted", self.attempted.to_string(), other.attempted.to_string()),
            ("failed", self.failed.to_string(), other.failed.to_string()),
        ];
        let differ: Vec<String> = fields
            .iter()
            .filter(|(_, a, b)| a != b)
            .map(|(name, a, b)| format!("{name} {a} vs {b}"))
            .collect();
        (!differ.is_empty()).then(|| differ.join(", "))
    }
}

/// One seed's two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Pair {
    pub seed: u64,
    pub parent: Outcome,
    pub change: Outcome,
}

/// What the pairs say about one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub metric: String,
    pub parent_median: f64,
    pub change_median: f64,
    /// The parent's first and third quartiles.
    pub parent_q1: f64,
    pub parent_q3: f64,
    /// Median, least and greatest of the per-pair ratios change / parent.
    pub ratio_median: f64,
    pub ratio_min: f64,
    pub ratio_max: f64,
    /// Pairs in which the change's value is below the parent's.
    pub lower: usize,
    /// Pairs that reported the metric on both sides.
    pub pairs: usize,
}

impl Summary {
    /// The parent's interquartile range.
    pub fn iqr(&self) -> f64 {
        self.parent_q3 - self.parent_q1
    }

    /// Whether the two medians differ by more than the parent's IQR.
    pub fn beyond_iqr(&self) -> bool {
        (self.change_median - self.parent_median).abs() > self.iqr()
    }
}

/// The `q`-quantile of `values`, interpolated linearly between order
/// statistics (the median of 1, 2, 4 is 2; its first quartile is 1.5).
/// NaN for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(last) = sorted.len().checked_sub(1) else { return f64::NAN };
    let at = q.clamp(0.0, 1.0) * last as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
}

/// `metric` over the pairs that report it on both sides; `None` when no
/// pair does.
pub fn summarize(metric: &str, pairs: &[Pair]) -> Option<Summary> {
    let both: Vec<(f64, f64)> = pairs
        .iter()
        .filter_map(|p| Some((p.parent.metric(metric)?, p.change.metric(metric)?)))
        .collect();
    if both.is_empty() {
        return None;
    }
    let parent: Vec<f64> = both.iter().map(|&(p, _)| p).collect();
    let change: Vec<f64> = both.iter().map(|&(_, c)| c).collect();
    let ratios: Vec<f64> = both.iter().map(|&(p, c)| c / p).collect();
    Some(Summary {
        metric: metric.to_string(),
        parent_median: quantile(&parent, 0.5),
        change_median: quantile(&change, 0.5),
        parent_q1: quantile(&parent, 0.25),
        parent_q3: quantile(&parent, 0.75),
        ratio_median: quantile(&ratios, 0.5),
        ratio_min: quantile(&ratios, 0.0),
        ratio_max: quantile(&ratios, 1.0),
        lower: both.iter().filter(|&&(p, c)| c < p).count(),
        pairs: both.len(),
    })
}

/// The full id of the commit `rev` names in the repository at `root`.
pub fn resolve_rev(root: &Path, rev: &str) -> Result<String, String> {
    let output = Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "--verify", "--quiet", &format!("{rev}^{{commit}}")])
        .output()
        .map_err(|e| format!("cannot start git: {e}"))?;
    let id = String::from_utf8_lossy(&output.stdout).trim().to_string();
    if !output.status.success() || id.is_empty() {
        return Err(format!("`{rev}` names no commit in {}", root.display()));
    }
    Ok(id)
}

/// Where `--parent-rev` builds the parent: one directory per commit
/// under the temporary directory, holding the commit's files in
/// `checkout/` and their build in `target/`. Kept after the run, so the
/// next run against the same commit only re-exports and relinks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParentBuild {
    pub checkout: PathBuf,
    pub target: PathBuf,
}

impl ParentBuild {
    /// The layout for `commit` under `tmp`.
    pub fn at(tmp: &Path, commit: &str) -> Self {
        let dir = tmp.join(format!("rcm-ab-{}", &commit[..commit.len().min(12)]));
        ParentBuild { checkout: dir.join("checkout"), target: dir.join("target") }
    }

    /// The benchmark binary the build leaves.
    pub fn binary(&self) -> PathBuf {
        self.target.join("release").join("rcm-e2e")
    }

    /// Writes the files of `commit` in the repository at `root` into
    /// `checkout/`, through `git archive` (the repository's own
    /// working tree and metadata are not touched).
    pub fn export(&self, root: &Path, commit: &str) -> Result<(), String> {
        std::fs::create_dir_all(&self.checkout)
            .map_err(|e| format!("{}: {e}", self.checkout.display()))?;
        let mut archive = Command::new("git")
            .arg("-C")
            .arg(root)
            .args(["archive", "--format=tar", commit])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start git archive: {e}"))?;
        let tar = archive.stdout.take().ok_or("git archive has no output")?;
        let unpacked = Command::new("tar")
            .arg("-x")
            .arg("-C")
            .arg(&self.checkout)
            .stdin(tar)
            .status()
            .map_err(|e| format!("cannot start tar: {e}"))?;
        let archived = archive.wait().map_err(|e| format!("git archive: {e}"))?;
        if !archived.success() || !unpacked.success() {
            return Err(format!("exporting {commit}: git archive {archived}, tar {unpacked}"));
        }
        Ok(())
    }

    /// Exports `commit` and builds its `rcm-e2e`; the binary's path.
    fn build(&self, root: &Path, commit: &str) -> Result<PathBuf, String> {
        self.export(root, commit)?;
        build_benchmark(&self.checkout, Some(&self.target))?;
        Ok(self.binary())
    }
}

/// Builds the `rcm-e2e` of the checkout at `root` offline, as the
/// benchmark builds it, into `target` (else the benchmark's own).
fn build_benchmark(root: &Path, target: Option<&Path>) -> Result<(), String> {
    let manifest = root.join("benchmark").join("Cargo.toml");
    eprintln!("ab: building {}", manifest.display());
    let mut cargo = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()));
    cargo.args(["build", "--release", "--offline", "--quiet", "--manifest-path"]).arg(&manifest);
    if let Some(target) = target {
        cargo.env("CARGO_TARGET_DIR", target);
    }
    let status = cargo.status().map_err(|e| format!("cannot start cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building {} ended with {status}", manifest.display()));
    }
    Ok(())
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Plan {
    pub parent: PathBuf,
    pub change: PathBuf,
    pub workload: String,
    pub seeds: RangeInclusive<u64>,
}

impl Plan {
    /// One run of `bin` with `seed`, in a fresh process.
    fn run(&self, bin: &Path, seed: u64) -> Result<Outcome, String> {
        let output = Command::new(bin)
            .args(["--workload", &self.workload, "--seed", &seed.to_string(), "--trace", "0"])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let outcome = Outcome::parse(&String::from_utf8_lossy(&output.stdout));
        match outcome {
            Ok(outcome) if output.status.success() => Ok(outcome),
            Ok(_) => Err(format!("{} ended with {}", bin.display(), output.status)),
            Err(e) => Err(format!("{}: {e}", bin.display())),
        }
    }

    /// Runs every pair, the parent first on odd seeds. Returns the pairs
    /// that agreed, and a line for each that did not.
    pub fn run_pairs(&self) -> (Vec<Pair>, Vec<String>) {
        let (mut pairs, mut failures) = (Vec::new(), Vec::new());
        for seed in self.seeds.clone() {
            let (parent, change) = if seed % 2 == 1 {
                let parent = self.run(&self.parent, seed);
                (parent, self.run(&self.change, seed))
            } else {
                let change = self.run(&self.change, seed);
                (self.run(&self.parent, seed), change)
            };
            match (parent, change) {
                (Err(e), _) | (_, Err(e)) => failures.push(format!("seed {seed}: {e}")),
                (Ok(parent), Ok(change)) => match parent.disagreement(&change) {
                    Some(what) => {
                        failures.push(format!("seed {seed}: parent and change disagree: {what}"));
                    }
                    None => pairs.push(Pair { seed, parent, change }),
                },
            }
            eprintln!("ab: seed {seed} done");
        }
        (pairs, failures)
    }
}

/// `x` to four significant digits.
fn sig(x: f64) -> String {
    let digits = if x == 0.0 { 0 } else { 3 - x.abs().log10().floor() as i32 };
    format!("{x:.*}", digits.max(0) as usize)
}

/// The report: a line per metric, then the summary table and the
/// per-seed table in EXPERIMENTS.md's Markdown.
pub fn render(workload: &str, pairs: &[Pair], summaries: &[Summary]) -> String {
    let mut out = String::new();
    for s in summaries {
        let _ = writeln!(
            out,
            "{}: parent median {} (quartiles {}/{}, IQR {}), change median {}; \
             ratio median {:.3} ({:.3}–{:.3}); change lower {}/{}; \
             medians differ by {}, more than the IQR: {}",
            s.metric,
            sig(s.parent_median),
            sig(s.parent_q1),
            sig(s.parent_q3),
            sig(s.iqr()),
            sig(s.change_median),
            s.ratio_median,
            s.ratio_min,
            s.ratio_max,
            s.lower,
            s.pairs,
            sig((s.change_median - s.parent_median).abs()),
            if s.beyond_iqr() { "yes" } else { "no" },
        );
    }
    out.push_str(
        "\n| workload | metric | parent median (quartiles) | change median | \
         ratio median (range) | change lower |\n|---|---|---|---|---|---|\n",
    );
    for s in summaries {
        let _ = writeln!(
            out,
            "| `{workload}` | `{}` | {} ({}/{}) | {} | {:.3} ({:.3}–{:.3}) | {}/{} |",
            s.metric,
            sig(s.parent_median),
            sig(s.parent_q1),
            sig(s.parent_q3),
            sig(s.change_median),
            s.ratio_median,
            s.ratio_min,
            s.ratio_max,
            s.lower,
            s.pairs,
        );
    }
    out.push_str("\n| seed |");
    pairs.iter().for_each(|p| out.push_str(&format!(" {} |", p.seed)));
    out.push_str("\n|---|");
    pairs.iter().for_each(|_| out.push_str("---|"));
    out.push('\n');
    for s in summaries {
        for side in ["parent", "change"] {
            let _ = write!(out, "| {side} `{}` |", s.metric);
            for p in pairs {
                let run = if side == "parent" { &p.parent } else { &p.change };
                let value = run.metric(&s.metric).map_or("—".to_string(), sig);
                let _ = write!(out, " {value} |");
            }
            out.push('\n');
        }
    }
    out
}

/// The host the numbers came from: CPU model, CPUs, compiler, kernel.
pub fn host() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split_once(':').map(|(_, m)| m.trim()))
        .unwrap_or("unknown CPU");
    let cpus = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = Command::new("rustc").arg("-V").output().ok();
    let rustc = rustc.map_or("rustc unknown".to_string(), |o| {
        String::from_utf8_lossy(&o.stdout).trim().to_string()
    });
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    format!("host: {model}, {cpus} CPUs, {rustc}, kernel {}", kernel.trim())
}

/// The end-to-end metric names in `BENCHMARK.json` at `root`, and its
/// `run_seconds` (printed only: the benchmark binary sets the length).
fn end_to_end(root: &Path) -> Result<(Vec<String>, Option<f64>), String> {
    let path = root.join("BENCHMARK.json");
    let raw = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&raw).map_err(|e| format!("{}: {e}", path.display()))?;
    let metrics = doc.get("end_to_end").and_then(Json::as_arr).unwrap_or_default();
    let names: Vec<String> =
        metrics.iter().filter_map(|m| Some(m.get("name")?.as_str()?.to_string())).collect();
    if names.is_empty() {
        return Err(format!("{}: no `end_to_end` metric names", path.display()));
    }
    Ok((names, doc.get("run_seconds").and_then(Json::as_f64)))
}

const USAGE: &str = "usage: cargo xtask ab (--parent <bin> | --parent-rev <rev>) \
                     [--change <bin>] --workload W --seeds A..B";

/// The parent side as the command line names it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Parent {
    /// A built `rcm-e2e`.
    Bin(PathBuf),
    /// A commit whose `rcm-e2e` is to be built.
    Rev(String),
}

/// The command line, read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    pub parent: Parent,
    /// A built `rcm-e2e`; `None` builds this checkout's.
    pub change: Option<PathBuf>,
    pub workload: String,
    pub seeds: RangeInclusive<u64>,
}

/// Reads the command line.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut parent, mut change, mut workload, mut seeds) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--parent" | "--parent-rev" if parent.is_some() => {
                return Err("give one of --parent and --parent-rev".into());
            }
            "--parent" => parent = Some(Parent::Bin(PathBuf::from(value))),
            "--parent-rev" => parent = Some(Parent::Rev(value.clone())),
            "--change" => change = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value.clone()),
            "--seeds" => {
                let bad = || format!("`--seeds {value}`: want A..B with A <= B");
                let (a, b) = value.split_once("..").ok_or_else(bad)?;
                let (a, b): (u64, u64) =
                    (a.parse().map_err(|_| bad())?, b.parse().map_err(|_| bad())?);
                if a > b {
                    return Err(bad());
                }
                seeds = Some(a..=b);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    match (parent, change, workload, seeds) {
        (Some(Parent::Bin(_)), None, _, _) => Err("--parent needs --change".into()),
        (Some(parent), change, Some(workload), Some(seeds)) => {
            Ok(Args { parent, change, workload, seeds })
        }
        _ => Err("--parent or --parent-rev, --workload and --seeds are required".into()),
    }
}

/// The binaries `args` name, building what they name by commit or
/// leave to this checkout at `root`. A rev that names no commit fails
/// before anything is built.
fn binaries(args: &Args, root: &Path) -> Result<(PathBuf, PathBuf), String> {
    let parent = match &args.parent {
        Parent::Bin(bin) => bin.clone(),
        Parent::Rev(rev) => {
            let commit = resolve_rev(root, rev)?;
            let build = ParentBuild::at(&std::env::temp_dir(), &commit);
            eprintln!("ab: parent {rev} = {commit}, built under {}", build.target.display());
            build.build(root, &commit)?
        }
    };
    let change = match &args.change {
        Some(bin) => bin.clone(),
        None => {
            build_benchmark(root, None)?;
            root.join("benchmark").join("target").join("release").join("rcm-e2e")
        }
    };
    Ok((parent, change))
}

/// Runs the command; `root` holds `BENCHMARK.json`.
pub fn run(args: &[String], root: &Path) -> ExitCode {
    let args = match parse_args(args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (metrics, run_seconds) = match end_to_end(root) {
        Ok(found) => found,
        Err(e) => {
            eprintln!("ab: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = match binaries(&args, root) {
        Ok((parent, change)) => Plan { parent, change, workload: args.workload, seeds: args.seeds },
        Err(e) => {
            eprintln!("ab: {e}");
            return ExitCode::from(2);
        }
    };
    println!("{}", host());
    let length = run_seconds.map_or("the benchmark's run length".to_string(), |s| format!("{s} s"));
    println!(
        "workload {}, seeds {}..{}, {length} a run, the parent first on odd seeds\n",
        plan.workload,
        plan.seeds.start(),
        plan.seeds.end(),
    );
    let (pairs, failures) = plan.run_pairs();
    let summaries: Vec<Summary> = metrics.iter().filter_map(|m| summarize(m, &pairs)).collect();
    print!("{}", render(&plan.workload, &pairs, &summaries));
    if failures.is_empty() {
        return ExitCode::SUCCESS;
    }
    for f in &failures {
        eprintln!("ab: FAILED {f}");
    }
    ExitCode::FAILURE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(cpu: f64) -> Outcome {
        let metrics = vec![("cpu_us_per_update".to_string(), cpu), ("setup_s".to_string(), 2.0)];
        Outcome { correct: true, attempted: 100, failed: 0, metrics }
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        assert_eq!(quantile(&[4.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(&[4.0, 1.0, 2.0], 0.25), 1.5);
        assert_eq!(quantile(&[10.0, 12.0, 11.0, 14.0], 0.75), 12.5);
        assert_eq!(quantile(&[3.0], 0.9), 3.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn a_result_line_is_read_and_sides_are_compared() {
        let stdout = "socket_ingest  setup_s  1.8 s\n\
            {\"correct\": true, \"attempted\": 7, \"failed\": 1, \"metrics\": \
            {\"setup_s\": {\"value\": 1.8, \"unit\": \"s\"}, \"n\": {\"value\": 3, \"unit\": \"\"}}}\n\n";
        let got = Outcome::parse(stdout).unwrap();
        let metrics = vec![("setup_s".to_string(), 1.8), ("n".to_string(), 3.0)];
        assert_eq!(got, Outcome { correct: true, attempted: 7, failed: 1, metrics });
        assert!(Outcome::parse("").is_err());
        assert!(Outcome::parse("{\"correct\": true}").is_err());
        let other = Outcome { correct: false, attempted: 8, ..got.clone() };
        assert_eq!(got.disagreement(&got), None);
        assert_eq!(
            got.disagreement(&other).as_deref(),
            Some("correct true vs false, attempted 7 vs 8")
        );
    }

    /// Seeds 1 to 4 with these `cpu_us_per_update` values, parent and
    /// change, and `setup_s` 2 on both sides.
    fn fixed_pairs() -> Vec<Pair> {
        [(10.0, 8.0), (12.0, 9.0), (11.0, 11.5), (14.0, 7.0)]
            .iter()
            .zip(1..)
            .map(|(&(p, c), seed)| Pair { seed, parent: outcome(p), change: outcome(c) })
            .collect()
    }

    #[test]
    fn a_summary_pins_every_statistic() {
        let pairs = fixed_pairs();
        let s = summarize("cpu_us_per_update", &pairs).unwrap();
        assert_eq!((s.parent_median, s.change_median), (11.5, 8.5));
        assert_eq!((s.parent_q1, s.parent_q3, s.iqr()), (10.75, 12.5, 1.75));
        assert!((s.ratio_median - 0.775).abs() < 1e-12);
        assert_eq!(s.ratio_min, 0.5);
        assert!((s.ratio_max - 11.5 / 11.0).abs() < 1e-12);
        assert_eq!((s.lower, s.pairs), (3, 4));
        assert!(s.beyond_iqr());
        let flat = summarize("setup_s", &pairs).unwrap();
        assert_eq!((flat.ratio_median, flat.lower, flat.iqr()), (1.0, 0, 0.0));
        assert!(!flat.beyond_iqr());
        assert_eq!(summarize("peak_rss_mb", &pairs), None);

        let table = render("w", &pairs, &[s]);
        assert!(table.contains("| `w` | `cpu_us_per_update` | 11.50 (10.75/12.50) | 8.500 | 0.775 (0.500–1.045) | 3/4 |"), "{table}");
        assert!(table.contains("| seed | 1 | 2 | 3 | 4 |"), "{table}");
        assert!(
            table.contains("| change `cpu_us_per_update` | 8.000 | 9.000 | 11.50 | 7.000 |"),
            "{table}"
        );
    }

    #[test]
    fn seeds_are_an_inclusive_range() {
        let args: Vec<String> = "--parent p --change c --workload w --seeds 41..50"
            .split(' ')
            .map(String::from)
            .collect();
        let parsed = parse_args(&args).unwrap();
        assert_eq!(parsed.seeds, 41..=50);
        assert_eq!(
            (parsed.parent, parsed.change),
            (Parent::Bin("p".into()), Some(PathBuf::from("c")))
        );
        for bad in ["--seeds 5..4", "--seeds 5", "--parent", "--seconds 5", "--parent-rev HEAD"] {
            let args: Vec<String> =
                args.iter().cloned().chain(bad.split(' ').map(String::from)).collect();
            assert!(parse_args(&args).is_err(), "{bad}");
        }
        let by_rev: Vec<String> =
            "--parent-rev HEAD~1 --workload w --seeds 1..2".split(' ').map(String::from).collect();
        let parsed = parse_args(&by_rev).unwrap();
        assert_eq!((parsed.parent, parsed.change), (Parent::Rev("HEAD~1".into()), None));
        assert!(parse_args(&by_rev[2..]).is_err(), "a parent is required");
        let without_change: Vec<String> = by_rev.iter().skip(2).cloned().collect();
        let bin_only = [vec!["--parent".to_string(), "p".to_string()], without_change].concat();
        assert!(parse_args(&bin_only).is_err(), "--parent needs --change");
    }

    /// A repository of two commits in a fresh directory, each writing
    /// `benchmark/Cargo.toml`; the commits' ids, oldest first.
    fn two_commit_repo(dir: &Path) -> [String; 2] {
        let git = |args: &[&str]| {
            let out = Command::new("git")
                .arg("-C")
                .arg(dir)
                .args(["-c", "user.name=ab", "-c", "user.email=ab@example.org"])
                .args(args)
                .output()
                .unwrap();
            assert!(out.status.success(), "git {args:?}: {}", String::from_utf8_lossy(&out.stderr));
        };
        std::fs::create_dir_all(dir.join("benchmark")).unwrap();
        git(&["init", "-q"]);
        let mut ids = Vec::new();
        for text in ["first", "second"] {
            std::fs::write(dir.join("benchmark").join("Cargo.toml"), text).unwrap();
            git(&["add", "-A"]);
            git(&["commit", "-q", "-m", text]);
            ids.push(resolve_rev(dir, "HEAD").unwrap());
        }
        [ids[0].clone(), ids[1].clone()]
    }

    #[test]
    fn a_parent_rev_resolves_to_a_commit_and_exports_into_its_own_directory() {
        let dir = std::env::temp_dir().join(format!("xtask-ab-rev-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let repo = dir.join("repo");
        let [first, second] = two_commit_repo(&repo);
        assert_eq!(first.len(), 40);
        assert!(first.bytes().all(|b| b.is_ascii_hexdigit()), "{first}");
        assert_eq!(resolve_rev(&repo, "HEAD~1").unwrap(), first);
        assert_eq!(resolve_rev(&repo, &second[..10]).unwrap(), second);
        for unknown in ["no-such-rev", "HEAD~2", "0000000000000000000000000000000000000000"] {
            let err = resolve_rev(&repo, unknown).unwrap_err();
            assert!(err.contains(unknown), "{err}");
        }

        let tmp = dir.join("tmp");
        let build = ParentBuild::at(&tmp, &first);
        let own = tmp.join(format!("rcm-ab-{}", &first[..12]));
        assert_eq!(
            build,
            ParentBuild { checkout: own.join("checkout"), target: own.join("target") }
        );
        assert_eq!(build.binary(), own.join("target").join("release").join("rcm-e2e"));
        assert_ne!(ParentBuild::at(&tmp, &second), build, "one directory per commit");

        // The commit's files, not the working tree's.
        std::fs::write(repo.join("benchmark").join("Cargo.toml"), "edited").unwrap();
        build.export(&repo, &first).unwrap();
        let manifest = build.checkout.join("benchmark").join("Cargo.toml");
        assert_eq!(std::fs::read_to_string(&manifest).unwrap(), "first");
        assert!(!build.checkout.join(".git").exists());
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Two fake `rcm-e2e` builds, shell scripts in a temporary directory:
    /// each logs its calls to `<dir>/<workload>.log` and prints the
    /// result JSON of `fixed_pairs()` by seed. On the `disagree` workload the
    /// change reports a different `attempted` on seed 2 and `correct:
    /// false` on seed 3. One test writes and runs them, so no other
    /// test thread forks while a script is open for writing.
    #[test]
    fn fake_binaries_alternate_and_a_pair_that_disagrees_fails() {
        use std::os::unix::fs::PermissionsExt;
        let dir = std::env::temp_dir().join(format!("xtask-ab-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let script = |side: &str, cpu: &str, attempted: &str, correct: &str| {
            let path = dir.join(side);
            let body = format!(
                "#!/bin/sh\n\
                 # $1 --workload, $2 W, $3 --seed, $4 S, then --trace 0\n\
                 echo \"{side} $4\" >> \"$(dirname \"$0\")/$2.log\"\n\
                 case $4 in {cpu} esac\n\
                 attempted=100; correct=true\n\
                 if [ \"$2\" = disagree ]; then case $4 in {attempted} {correct} esac; fi\n\
                 echo \"$2  cpu_us_per_update  $cpu us\"\n\
                 echo \"{{\\\"correct\\\": $correct, \\\"attempted\\\": $attempted, \\\"failed\\\": 0, \
                 \\\"metrics\\\": {{\\\"cpu_us_per_update\\\": {{\\\"value\\\": $cpu, \\\"unit\\\": \\\"us\\\"}}, \
                 \\\"setup_s\\\": {{\\\"value\\\": 2, \\\"unit\\\": \\\"s\\\"}}}}}}\"\n"
            );
            std::fs::write(&path, body).unwrap();
            std::fs::set_permissions(&path, std::fs::Permissions::from_mode(0o755)).unwrap();
            path
        };
        let parent = script("parent", "1) cpu=10;; 2) cpu=12;; 3) cpu=11;; *) cpu=14;;", "", "");
        let change = script(
            "change",
            "1) cpu=8;; 2) cpu=9;; 3) cpu=11.5;; *) cpu=7;;",
            "2) attempted=99;;",
            "3) correct=false;;",
        );
        let plan = |workload: &str| Plan {
            parent: parent.clone(),
            change: change.clone(),
            workload: workload.to_string(),
            seeds: 1..=4,
        };

        let (pairs, failures) = plan("agree").run_pairs();
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(pairs, fixed_pairs());
        let log = std::fs::read_to_string(dir.join("agree.log")).unwrap();
        let order: Vec<&str> = log.lines().collect();
        assert_eq!(
            order,
            [
                "parent 1", "change 1", "change 2", "parent 2", "parent 3", "change 3", "change 4",
                "parent 4"
            ]
        );

        let (pairs, failures) = plan("disagree").run_pairs();
        assert_eq!(pairs.iter().map(|p| p.seed).collect::<Vec<_>>(), [1, 4]);
        assert_eq!(failures.len(), 2, "{failures:?}");
        assert!(failures[0].starts_with("seed 2:") && failures[0].contains("attempted 100 vs 99"));
        assert!(
            failures[1].starts_with("seed 3:") && failures[1].contains("correct true vs false")
        );

        let missing = Plan { change: dir.join("no-such-binary"), ..plan("missing") };
        let (pairs, failures) = missing.run_pairs();
        assert!(pairs.is_empty());
        assert_eq!(failures.len(), 4);
        assert!(failures[0].contains("cannot start"), "{failures:?}");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
