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
//! Readings go out in rounds, like the DM loop's: a round ends when the
//! input read so far runs out, or at `rcm_runtime::ROUND` (64)
//! readings, and is sent as one datagram per CE while it fits the
//! datagram budget, through the same `RoundSender` a socket-mode
//! system's DM loop sends with. So `--period-us 0` packs what arrives
//! together; a paced run (the default) sends each reading alone, one
//! period apart.
//!
//! LOCK ORDER: the only lock is stdin's reader lock, held for the read
//! loop on the main thread; the links count into atomics.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::ExitCode;

use rcm_core::{Update, VarId};
use rcm_runtime::ROUND;
use rcm_sync::time::Duration;
use rcm_transport::{RoundSender, UdpFrontLink};

struct Options {
    ce: Vec<SocketAddr>,
    var: u32,
    node: u32,
    period: Duration,
    fin_repeats: usize,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: rcm-dm --ce HOST:PORT [--ce HOST:PORT ...] [--var N] [--node N] \
         [--period-us N] [--fin-repeats N]\n\
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
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--ce" => opts.ce.push(args.next()?.parse().ok()?),
            "--var" => opts.var = args.next()?.parse().ok()?,
            "--node" => opts.node = args.next()?.parse().ok()?,
            "--period-us" => opts.period = Duration::from_micros(args.next()?.parse().ok()?),
            "--fin-repeats" => opts.fin_repeats = args.next()?.parse().ok()?,
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
            Ok(link) => links.push(link),
            Err(e) => {
                eprintln!("error: cannot open front link to {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let n_links = links.len();
    let mut sender = RoundSender::new(links, 1, opts.fin_repeats);
    let var = VarId::new(opts.var);
    let mut seqno: u64 = 0;
    let mut status = ExitCode::SUCCESS;
    let mut input = BufReader::new(std::io::stdin().lock());
    let mut line = String::new();
    let mut lineno = 0;
    loop {
        line.clear();
        match input.read_line(&mut line) {
            Ok(n) if n > 0 => lineno += 1,
            _ => break,
        }
        let text = line.trim();
        if text.is_empty() || text.starts_with('#') {
            continue;
        }
        // `f64::from_str` accepts "NaN" and "inf"; a reading is a number.
        let Some(value) = text.parse::<f64>().ok().filter(|v| v.is_finite()) else {
            eprintln!("error: line {lineno}: bad value '{text}'");
            // The readings before it still go out, ahead of the Fin.
            status = ExitCode::FAILURE;
            break;
        };
        seqno += 1;
        sender.push(0, Update::new(var, seqno, value));
        let paced = !opts.period.is_zero();
        if paced || sender.pending() == ROUND || input.buffer().is_empty() {
            sender.send_round();
            if paced {
                rcm_sync::thread::sleep(opts.period);
            }
        }
    }
    sender.send_round();
    sender.finish();

    let stats: Vec<_> = (0..n_links).map(|ce| sender.counters(0, ce).snapshot()).collect();
    let sent: u64 = stats.iter().map(|s| s.frames_sent).sum();
    let dropped: u64 = stats.iter().map(|s| s.frames_dropped).sum();
    eprintln!(
        "done: {seqno} reading(s) as {sent} frame(s) over {n_links} link(s); {dropped} send error(s)"
    );
    status
}
