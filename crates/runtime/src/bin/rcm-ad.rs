//! `rcm-ad` — a deployable Alert Displayer node: accepts TCP
//! connections from every CE replica, filters the merged alert stream,
//! and prints each displayed alert.
//!
//! ```text
//! cargo run -p rcm-runtime --bin rcm-ad -- \
//!     --bind 127.0.0.1:7200 --replicas 2 --filter ad1
//! ```
//!
//! Reconnecting back links re-send their unacked tail, so the merged
//! stream contains duplicates by design — the selected AD algorithm is
//! what keeps the user's view clean. It runs once per condition (paper
//! Appendix D): a CE hosting several conditions sends all their alerts
//! down one link, and each condition's stream is filtered on its own,
//! over the variables its first alert names (`ad2`–`ad4` refuse a
//! condition over several with one `error:` line and a nonzero exit).
//! Each displayed alert is the line `rcm-monitor` prints. The node
//! exits once `--replicas` distinct Fin markers arrived (or after
//! `--idle-ms` of silence).
//!
//! `--bind HOST:0` binds an ephemeral port; the first line of stderr is
//! always `listening on HOST:PORT`, the address actually bound.
//!
//! The accept socket and every CE connection ride one readiness loop,
//! run on the main thread, so an AD holds hundreds of back links
//! without per-connection reader threads. The node has no other
//! thread: the filter runs inside the listener's `deliver`, and each
//! alert is filtered, and printed if displayed, as it is read.
//!
//! LOCK ORDER: no locks — the listener's counters are atomics, read
//! after the stream ends.

use std::net::SocketAddr;
use std::process::ExitCode;

use rcm_core::ad::{self, AlertFilter};
use rcm_runtime::write_alert;
use rcm_sync::time::Duration;
use rcm_transport::EventLoop;

struct Options {
    bind: SocketAddr,
    replicas: usize,
    filter: String,
    idle: Duration,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: rcm-ad --bind HOST:PORT [--replicas N] \
         [--filter pass|ad1|ad2|ad3|ad4|ad5|ad6] [--idle-ms N]"
    );
    ExitCode::FAILURE
}

fn parse_args() -> Option<Options> {
    let any: SocketAddr = "0.0.0.0:0".parse().ok()?;
    let mut opts =
        Options { bind: any, replicas: 2, filter: "ad1".into(), idle: Duration::from_secs(10) };
    let mut seen_bind = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bind" => {
                opts.bind = args.next()?.parse().ok()?;
                seen_bind = true;
            }
            "--replicas" => opts.replicas = args.next()?.parse().ok()?,
            "--filter" => opts.filter = args.next()?,
            "--idle-ms" => opts.idle = Duration::from_millis(args.next()?.parse().ok()?),
            _ => return None,
        }
    }
    if !seen_bind {
        return None;
    }
    Some(opts)
}

fn main() -> ExitCode {
    let Some(opts) = parse_args() else { return usage() };

    // Declared before the loop, which borrows these from its `deliver`.
    // `stdout_open` is cleared at the first failed write (a reader that
    // hung up): the AD goes on filtering and counting without printing.
    let mut displayed: u64 = 0;
    let mut stdout_open = true;
    if let Err(why) = ad::known(&opts.filter) {
        eprintln!("error: {why}");
        return ExitCode::FAILURE;
    }
    let mut filter = ad::per_condition(opts.filter, |why| {
        eprintln!("error: {why}");
        std::process::exit(1)
    });
    let sock = match std::net::TcpListener::bind(opts.bind) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", opts.bind);
            return ExitCode::FAILURE;
        }
    };
    match sock.local_addr() {
        Ok(addr) => eprintln!("listening on {addr}"),
        Err(e) => {
            eprintln!("error: cannot read the bound address: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mut el = match EventLoop::new() {
        Ok(el) => el,
        Err(e) => {
            eprintln!("error: cannot create event loop: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The accept socket and every CE connection share one readiness
    // loop, run below on this thread; each alert is filtered as the
    // listener reads it.
    let display = |alert: rcm_core::Alert| {
        if filter.offer(&alert).is_deliver() {
            displayed += 1;
            if !stdout_open {
                return;
            }
            stdout_open = write_alert(&mut std::io::stdout().lock(), &alert).is_ok();
        }
    };
    let counters = match el.add_alert_listener(sock, opts.replicas, opts.idle, display) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot register listener: {e}");
            return ExitCode::FAILURE;
        }
    };
    el.run();
    let stats = counters.snapshot();

    eprintln!(
        "done: {displayed} alert(s) displayed of {} arriving over {} connection(s); \
         {} decode error(s)",
        stats.alerts, stats.connections, stats.decode_errors
    );
    ExitCode::SUCCESS
}
