//! `rcm-ce` — a deployable Condition Evaluator node: receives updates
//! over UDP, evaluates its condition set, and forwards alerts over a
//! reconnecting TCP back link to the AD.
//!
//! ```text
//! cargo run -p rcm-runtime --bin rcm-ce -- \
//!     --bind 127.0.0.1:7101 --ad 127.0.0.1:7200 --node 0 \
//!     --condition 'temp[0].value > 3000'
//! ```
//!
//! Variables get ids in first-mention order across the `--condition`
//! expressions, so every DM's `--var` index must match that order. The
//! UDP ingress enforces the front-link contract (reordered and
//! duplicated datagrams are dropped); the TCP back link queues and
//! resends across connection drops, so no alert handed to it is lost.
//! The ingress echoes every Fin marker back to its sender, so a DM
//! stops repeating its Fin (at most 16 of them) once one got
//! through. A DM's Fin carries its `--var` index, so the node expects
//! one Fin per variable its conditions read, and exits once that many
//! distinct Fin markers arrived (or after `--idle-ms` of silence as a
//! backstop against lost Fins).
//!
//! The back link writes one frame per alert. Every socket of the node
//! rides one readiness loop, run on the main thread, so a CE holds
//! thousands of idle front links. The UDP socket's kernel receive
//! buffer is sized for one link per variable (one DM keeps the kernel's
//! default, and the kernel caps the size); the first line of stderr
//! names the bound address and the size granted, as `listening on
//! HOST:PORT; receive buffer N B`.
//!
//! The node runs the same CE replica a `MonitorSystem` runs over
//! sockets (`rcm_runtime::Replica`, placed on the loop by
//! `rcm_runtime::on_ingress`), unsupervised and keeping no record of
//! what it ingests or emits: its alerts go straight to the back link.
//! Updates are evaluated on that loop, a round at a time: each
//! datagram's admitted updates are one round, evaluated as the datagram
//! is read. `--workers N` (default 0) splits the conditions into
//! `T = min(N, cpus)` shards, `cond_id % T`, one per thread: the main
//! thread and `T - 1` helpers, each handed every round and joined
//! before the next. `cpus` is the CPUs the node may use (its affinity
//! mask and CPU quota), so a node confined to one CPU spawns no helper
//! and evaluates every condition in one shard. The shards' alerts are
//! merged back into the exact single-threaded emission order before the
//! back link, and nothing is shed. When the ingress retires, the
//! replica finishes and the back link drains on the same loop; the
//! loop returns once the drain is done. The exit report carries the
//! helper count and the ingest→emit latency percentiles.
//!
//! LOCK ORDER: no locks on the main thread — the link counters are
//! atomics, read after the stream ends.

use std::net::SocketAddr;
use std::process::ExitCode;

use rcm_core::condition::{expr::CompiledCondition, Condition};
use rcm_core::{CeId, LatencyHistogram, VarRegistry};
use rcm_net::Backoff;
use rcm_runtime::pipeline::{cpu_budget, shards};
use rcm_runtime::{on_ingress, PipelineOptions, Replica};
use rcm_sync::time::Duration;
use rcm_sync::Arc;
use rcm_transport::{size_receive_buffer, BackLinkSpec, EventLoop};

struct Options {
    bind: SocketAddr,
    ad: SocketAddr,
    conditions: Vec<String>,
    node: u32,
    idle: Duration,
    workers: usize,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: rcm-ce --bind HOST:PORT --ad HOST:PORT --condition '<expr>' \
         [--condition '<expr>' ...] [--node N] [--idle-ms N] [--workers N]\n\
         --workers N splits the conditions into min(N, CPUs) shards, one on\n\
         the main thread and one per helper thread (0 and 1 spawn none)\n\
         exits after one Fin per variable its conditions read (each echoed to\n\
         its DM, which then stops repeating it) or --idle-ms of silence"
    );
    ExitCode::FAILURE
}

fn parse_args() -> Option<Options> {
    let any: SocketAddr = "0.0.0.0:0".parse().ok()?;
    let mut opts = Options {
        bind: any,
        ad: any,
        conditions: Vec::new(),
        node: 0,
        idle: Duration::from_secs(5),
        workers: 0,
    };
    let mut seen_bind = false;
    let mut seen_ad = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--bind" => {
                opts.bind = args.next()?.parse().ok()?;
                seen_bind = true;
            }
            "--ad" => {
                opts.ad = args.next()?.parse().ok()?;
                seen_ad = true;
            }
            "--condition" => opts.conditions.push(args.next()?),
            "--node" => opts.node = args.next()?.parse().ok()?,
            "--idle-ms" => opts.idle = Duration::from_millis(args.next()?.parse().ok()?),
            "--workers" => opts.workers = args.next()?.parse().ok()?,
            _ => return None,
        }
    }
    if !seen_bind || !seen_ad || opts.conditions.is_empty() {
        return None;
    }
    Some(opts)
}

/// Ingress and back link are state machines on one readiness loop, run
/// on this thread; the replica runs inside the ingress's `deliver`.
fn main() -> ExitCode {
    let Some(opts) = parse_args() else { return usage() };

    let mut vars = VarRegistry::new();
    let mut conds: Vec<Arc<dyn Condition>> = Vec::new();
    for expr in &opts.conditions {
        match CompiledCondition::compile(expr, &mut vars) {
            Ok(c) => conds.push(Arc::new(c)),
            Err(e) => {
                eprintln!("error: bad condition '{expr}': {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let sock = match std::net::UdpSocket::bind(opts.bind) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", opts.bind);
            return ExitCode::FAILURE;
        }
    };
    // One DM per variable, each ending with a Fin under its own id.
    // Registering the ingress below asks for the same size again, a no-op.
    match (sock.local_addr(), size_receive_buffer(&sock, vars.len())) {
        (Ok(addr), Ok(bytes)) => eprintln!("listening on {addr}; receive buffer {bytes} B"),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: cannot configure {}: {e}", opts.bind);
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
    let backoff =
        Backoff::new(Duration::from_millis(1), Duration::from_millis(100), opts.node as u64);
    let spec = BackLinkSpec::new(opts.ad, opts.node, backoff);
    let back = match el.add_back_link(spec) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: cannot reach AD at {}: {e}", opts.ad);
            return ExitCode::FAILURE;
        }
    };
    let back_stats = back.counters();

    // The ingress drops the replica when it retires (all Fins, or the
    // idle backstop), which finishes it: the back link drains on the
    // loop, and the loop returns once it is done.
    let options = PipelineOptions::with_workers(opts.workers);
    let hosted = shards(CeId::new(opts.node), &conds, &options, cpu_budget(&options));
    let latency = Arc::new(LatencyHistogram::new());
    let replica = Replica::new(hosted, Arc::clone(&latency), Box::new(back));
    let helpers = replica.helpers();
    let ingress = match el.add_front_ingress(sock, vars.len(), opts.idle, on_ingress(replica)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot register ingress: {e}");
            return ExitCode::FAILURE;
        }
    };
    el.run();

    let snap = latency.snapshot();
    eprintln!(
        "pipeline: {} worker(s), {} helper(s); ingest→emit latency \
         p50 {} ns, p99 {} ns, p999 {} ns over {} update(s)",
        opts.workers, helpers, snap.p50_ns, snap.p99_ns, snap.p999_ns, snap.count
    );
    let i = ingress.snapshot();
    eprintln!(
        "done: {} update(s) evaluated ({} stale dropped, {} decode error(s)); {} alert(s) sent",
        i.delivered,
        i.dropped_stale,
        i.decode_errors,
        back_stats.snapshot().sent
    );
    ExitCode::SUCCESS
}
