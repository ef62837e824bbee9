//! `cargo xtask schedstat --pid P --from S --to S [--readings N]`: how
//! much CPU each thread of a running process used over an interval of
//! its life.
//!
//! The interval is in seconds of the process's age (from its start, as
//! `/proc/<pid>/stat` records it), so the command can be launched at any
//! time before `--from`. At each edge it reads field 1 of every
//! `/proc/<pid>/task/<tid>/schedstat` (nanoseconds on a CPU) and the
//! thread's `comm`; it prints each thread's difference in µs, and with
//! `--readings N` that difference divided by `N` — the per-reading split
//! of a benchmark run's paced phase. Threads are listed by tid, which is
//! spawn order; a thread that exited before `--to` is not listed, one
//! born inside the interval counts from zero.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

/// Clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, which Linux
/// fixes at 100 for the `/proc` interface).
const USER_HZ: f64 = 100.0;

/// One thread's accumulated on-CPU time at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadCpu {
    /// Thread id.
    pub tid: u32,
    /// The thread's `comm`.
    pub name: String,
    /// Nanoseconds spent on a CPU.
    pub cpu_ns: u64,
}

/// Reads every thread of `pid` under the `/proc`-shaped `proc_root`,
/// ascending by tid.
pub fn sample(proc_root: &Path, pid: u32) -> io::Result<Vec<ThreadCpu>> {
    let mut threads = Vec::new();
    for entry in std::fs::read_dir(proc_root.join(pid.to_string()).join("task"))? {
        let dir = entry?.path();
        let Some(tid) = dir.file_name().and_then(|n| n.to_str()).and_then(|n| n.parse().ok())
        else {
            continue;
        };
        // A thread can exit between the listing and the reads.
        let Ok(schedstat) = std::fs::read_to_string(dir.join("schedstat")) else { continue };
        let cpu_ns = schedstat
            .split_whitespace()
            .next()
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| bad(format!("{}: no run time", dir.display())))?;
        let name = std::fs::read_to_string(dir.join("comm")).unwrap_or_default();
        threads.push(ThreadCpu { tid, name: name.trim_end().to_string(), cpu_ns });
    }
    threads.sort_by_key(|t| t.tid);
    Ok(threads)
}

/// Seconds since `pid` started: `/proc/uptime` less the start time in
/// field 22 of `/proc/<pid>/stat`.
pub fn age_s(proc_root: &Path, pid: u32) -> io::Result<f64> {
    let uptime = std::fs::read_to_string(proc_root.join("uptime"))?;
    let uptime: f64 = uptime
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| bad("uptime: no seconds".into()))?;
    let stat = std::fs::read_to_string(proc_root.join(pid.to_string()).join("stat"))?;
    // The command name is parenthesised and may hold spaces: count the
    // fields after its closing parenthesis, which begin at field 3.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or_default();
    let ticks: f64 = after
        .split_whitespace()
        .nth(22 - 3)
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| bad(format!("{pid}/stat: no start time")))?;
    Ok(uptime - ticks / USER_HZ)
}

/// Each thread alive at `to`, with the CPU it used since `from`.
pub fn interval(from: &[ThreadCpu], to: &[ThreadCpu]) -> Vec<ThreadCpu> {
    to.iter()
        .map(|t| {
            let before = from.iter().find(|f| f.tid == t.tid).map_or(0, |f| f.cpu_ns);
            ThreadCpu { cpu_ns: t.cpu_ns.saturating_sub(before), ..t.clone() }
        })
        .collect()
}

/// The table: a row per thread and a total, in µs, and in µs per
/// reading when `readings` is given.
pub fn render(threads: &[ThreadCpu], readings: Option<u64>) -> String {
    let mut out = String::new();
    let per = |ns: u64| readings.map(|n| ns as f64 / 1e3 / n.max(1) as f64);
    let mut row = |tid: &str, name: &str, ns: u64| {
        let _ = write!(out, "{tid:>8}  {name:<16} {:>12.1}", ns as f64 / 1e3);
        if let Some(us) = per(ns) {
            let _ = write!(out, " {us:>10.2}");
        }
        out.push('\n');
    };
    for t in threads {
        row(&t.tid.to_string(), &t.name, t.cpu_ns);
    }
    row("total", "", threads.iter().map(|t| t.cpu_ns).sum());
    let header = match readings {
        Some(n) => {
            format!("{:>8}  {:<16} {:>12} {:>10}\n", "tid", "thread", "cpu_us", format!("us/{n}"))
        }
        None => format!("{:>8}  {:<16} {:>12}\n", "tid", "thread", "cpu_us"),
    };
    header + &out
}

const USAGE: &str = "usage: cargo xtask schedstat --pid P --from S --to S [--readings N]";

/// Runs the command on the live `/proc`.
pub fn run(args: &[String]) -> ExitCode {
    let (mut pid, mut from, mut to, mut readings): (Option<u32>, Option<f64>, Option<f64>, _) =
        (None, None, None, None::<u64>);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next();
        let ok = match flag.as_str() {
            "--pid" => value.and_then(|v| v.parse().ok()).map(|v| pid = Some(v)),
            "--from" => value.and_then(|v| v.parse().ok()).map(|v| from = Some(v)),
            "--to" => value.and_then(|v| v.parse().ok()).map(|v| to = Some(v)),
            "--readings" => value.and_then(|v| v.parse().ok()).map(|v| readings = Some(v)),
            _ => None,
        };
        if ok.is_none() {
            eprintln!("bad flag or value at `{flag}`\n{USAGE}");
            return ExitCode::from(2);
        }
    }
    let (Some(pid), Some(from), Some(to)) = (pid, from, to) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    if to <= from {
        eprintln!("--to must be later than --from\n{USAGE}");
        return ExitCode::from(2);
    }
    match measure(Path::new("/proc"), pid, from, to) {
        Ok(threads) => {
            print!("{}", render(&threads, readings));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("schedstat: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Samples `pid` when it is `from` and `to` seconds old.
fn measure(proc_root: &Path, pid: u32, from: f64, to: f64) -> io::Result<Vec<ThreadCpu>> {
    let at = |age: f64| -> io::Result<Vec<ThreadCpu>> {
        let now = age_s(proc_root, pid)?;
        if now > age + 0.5 {
            return Err(bad(format!("process is {now:.1} s old, past the {age} s edge")));
        }
        std::thread::sleep(Duration::from_secs_f64((age - now).max(0.0)));
        sample(proc_root, pid)
    };
    let first = at(from)?;
    Ok(interval(&first, &at(to)?))
}

fn bad(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    /// A `/proc`-shaped directory for pid 42 with the given threads.
    fn fixture(tag: &str, threads: &[(u32, &str, u64)]) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("xtask-schedstat-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let task = root.join("42").join("task");
        for &(tid, name, ns) in threads {
            let dir = task.join(tid.to_string());
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join("schedstat"), format!("{ns} 5000 17\n")).unwrap();
            std::fs::write(dir.join("comm"), format!("{name}\n")).unwrap();
        }
        // Start time 1234 ticks (12.34 s after boot); a command name
        // with a space and a parenthesis must not shift the fields.
        let mut stat = String::from("42 (rcm e2e) x) S");
        for field in 4..=21 {
            stat += &format!(" {field}");
        }
        stat += " 1234 0 0\n";
        std::fs::write(root.join("42").join("stat"), stat).unwrap();
        std::fs::write(root.join("uptime"), "20.84 33.10\n").unwrap();
        root
    }

    #[test]
    fn samples_every_thread_by_tid_and_the_age() {
        let root = fixture("sample", &[(107, "rcm-dm", 9_000), (42, "rcm-e2e", 1_500_000)]);
        let got = sample(&root, 42).unwrap();
        assert_eq!(
            got,
            vec![
                ThreadCpu { tid: 42, name: "rcm-e2e".into(), cpu_ns: 1_500_000 },
                ThreadCpu { tid: 107, name: "rcm-dm".into(), cpu_ns: 9_000 },
            ]
        );
        assert!((age_s(&root, 42).unwrap() - 8.5).abs() < 1e-9);
        assert!(sample(&root, 7).is_err(), "no such pid");
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn the_interval_is_per_thread_and_renders_per_reading() {
        let from = fixture("from", &[(42, "gen", 1_000_000), (43, "exited", 5), (44, "ce", 0)]);
        let to =
            fixture("to", &[(42, "gen", 3_400_000), (44, "ce", 1_200_000), (45, "new", 600_000)]);
        let got = interval(&sample(&from, 42).unwrap(), &sample(&to, 42).unwrap());
        let us: Vec<(u32, u64)> = got.iter().map(|t| (t.tid, t.cpu_ns)).collect();
        assert_eq!(us, vec![(42, 2_400_000), (44, 1_200_000), (45, 600_000)]);
        let table = render(&got, Some(200));
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 5, "{table}");
        assert!(lines[0].contains("cpu_us") && lines[0].contains("us/200"), "{table}");
        assert!(
            lines[1].contains("gen") && lines[1].contains("2400.0") && lines[1].ends_with("12.00")
        );
        assert!(lines[4].starts_with("   total") && lines[4].contains("4200.0"));
        assert!(lines[4].ends_with("21.00"), "{table}");
        assert!(!render(&got, None).contains("us/"));
        std::fs::remove_dir_all(from).unwrap();
        std::fs::remove_dir_all(to).unwrap();
    }
}
