//! `rcm-dm` — a deployable Data Monitor node: reads one variable's
//! readings from stdin and multicasts them as sequence-numbered updates
//! over UDP to every CE replica.
//!
//! ```text
//! printf '2900\n3100\n3200\n' | \
//!     cargo run -p rcm-runtime --bin rcm-dm -- \
//!         --ce 127.0.0.1:7101 --ce 127.0.0.1:7102 --var 0 --period-us 500
//! ```
//!
//! One reading per line; readings get consecutive sequence numbers in
//! input order. A line that is not a finite number ends the stream
//! there: the readings before it are still sent and finished, and the
//! node exits non-zero. The front link is UDP — lossy by design — so
//! the node ends the stream with a Fin marker that it repeats, 500 µs
//! apart, until the CE echoes it back: `--fin-repeats N` (default 16)
//! is the most Fins a link gets, all of them when its CE never echoes.
//!
//! `--batch N` packs up to `N` updates per datagram (default 1 — no
//! batching).
//!
//! LOCK ORDER: the only locks are stdin's reader lock (held for the
//! read loop on the main thread) and the links' leaf stats mutexes,
//! read one at a time after the stream ends.

use std::io::BufRead;
use std::net::SocketAddr;
use std::process::ExitCode;

use rcm_core::{Update, VarId};
use rcm_sync::time::Duration;
use rcm_transport::{fin_rounds, BatchPolicy, UdpFrontLink};

struct Options {
    ce: Vec<SocketAddr>,
    var: u32,
    node: u32,
    period: Duration,
    fin_repeats: usize,
    batch: BatchPolicy,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: rcm-dm --ce HOST:PORT [--ce HOST:PORT ...] [--var N] [--node N] \
         [--period-us N] [--fin-repeats N] [--batch N]\n\
         readings on stdin: one '<value>' per line\n\
         --fin-repeats N: at most N Fins per link, until the CE echoes one"
    );
    ExitCode::FAILURE
}

fn parse_args() -> Option<Options> {
    let mut opts = Options {
        ce: Vec::new(),
        var: 0,
        node: 0,
        period: Duration::from_micros(500),
        fin_repeats: 16,
        batch: BatchPolicy::off(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ce" => opts.ce.push(args.next()?.parse().ok()?),
            "--var" => opts.var = args.next()?.parse().ok()?,
            "--node" => opts.node = args.next()?.parse().ok()?,
            "--period-us" => opts.period = Duration::from_micros(args.next()?.parse().ok()?),
            "--fin-repeats" => opts.fin_repeats = args.next()?.parse().ok()?,
            "--batch" => {
                let n: usize = args.next()?.parse().ok()?;
                opts.batch = if n > 1 {
                    BatchPolicy { max_count: n, ..BatchPolicy::datagram() }
                } else {
                    BatchPolicy::off()
                };
            }
            _ => return None,
        }
    }
    if opts.ce.is_empty() {
        return None;
    }
    Some(opts)
}

fn main() -> ExitCode {
    let Some(opts) = parse_args() else { return usage() };

    let mut links = Vec::with_capacity(opts.ce.len());
    for addr in &opts.ce {
        match UdpFrontLink::connect(*addr, opts.node) {
            Ok(link) => links.push(link.batching(opts.batch)),
            Err(e) => {
                eprintln!("error: cannot open front link to {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let var = VarId::new(opts.var);
    let mut seqno: u64 = 0;
    let mut status = ExitCode::SUCCESS;
    for (lineno, line) in std::io::stdin().lock().lines().enumerate() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // `f64::from_str` accepts "NaN" and "inf"; a reading is a number.
        let Some(value) = line.parse::<f64>().ok().filter(|v| v.is_finite()) else {
            eprintln!("error: line {}: bad value '{line}'", lineno + 1);
            // Readings accepted so far may still sit in a link's batch:
            // leave through the Fin rounds, the first of which flushes them.
            status = ExitCode::FAILURE;
            break;
        };
        seqno += 1;
        let update = Update::new(var, seqno, value);
        for link in &mut links {
            link.send_update(update);
        }
        if !opts.period.is_zero() {
            rcm_sync::thread::sleep(opts.period);
        }
    }
    // `&`, not `&&`: every link's echo is read, not only up to the first
    // silent link.
    fin_rounds(opts.fin_repeats, |until| {
        links.iter_mut().for_each(UdpFrontLink::send_fin);
        links.iter_mut().fold(true, |all, l| l.fin_echoed(until) & all)
    });

    let sent: u64 = links.iter().map(|l| l.stats_handle().lock().frames_sent).sum();
    let dropped: u64 = links.iter().map(|l| l.stats_handle().lock().frames_dropped).sum();
    eprintln!(
        "done: {seqno} reading(s) as {sent} frame(s) over {} link(s); {dropped} send error(s)",
        links.len()
    );
    status
}
