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
//! stops repeating its Fin (at most its `--fin-repeats`) once one got
//! through. The node exits once `--dms` distinct Fin markers arrived
//! (or after `--idle-ms` of silence as a backstop against lost Fins).
//!
//! The back link writes one frame per alert. Every socket of the node
//! rides one readiness loop, so a CE holds thousands of idle front
//! links.
//!
//! Updates are evaluated a round at a time: the main thread takes one
//! delivered update plus whatever else is already queued, up to
//! `ROUND` (64). `--workers N` (default 0) splits the conditions into
//! `N` shards, `cond_id % N`, run on `min(N, cpus)` threads: the main
//! thread and `min(N, cpus) - 1` helpers, each handed every round and
//! joined before the next. `cpus` is the CPUs the node may use (its
//! affinity mask and CPU quota), so a node confined to one CPU spawns
//! no helper and evaluates every shard itself. The shards' alerts are
//! merged back into the exact single-threaded emission order before the
//! back link, and nothing is shed. The exit report carries the helper
//! count and the ingest→emit latency percentiles.
//!
//! LOCK ORDER: no locks on the main thread — the link counters are
//! atomics, read after the stream ends.

use std::net::SocketAddr;
use std::process::ExitCode;

use rcm_core::condition::{expr::CompiledCondition, Condition};
use rcm_core::{Alert, CeId, LatencyHistogram, VarRegistry};
use rcm_net::Backoff;
use rcm_runtime::{AlertDrain, EvalPipeline, PipelineOptions, ROUND};
use rcm_sync::atomic::AtomicU64;
use rcm_sync::time::{Duration, Instant};
use rcm_sync::Arc;
use rcm_transport::{BackLinkSpec, EventLoop, EventedBackLink};

struct Options {
    bind: SocketAddr,
    ad: SocketAddr,
    conditions: Vec<String>,
    node: u32,
    dms: usize,
    idle: Duration,
    workers: usize,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: rcm-ce --bind HOST:PORT --ad HOST:PORT --condition '<expr>' \
         [--condition '<expr>' ...] [--node N] [--dms N] [--idle-ms N] \
         [--workers N]\n\
         --workers N splits the conditions into N shards, run on the main\n\
         thread and min(N, CPUs) - 1 helper threads (0 and 1 spawn none)\n\
         exits after --dms distinct DM Fins (each echoed to its DM, which then\n\
         stops repeating it) or --idle-ms of silence"
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
        dms: 1,
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
            "--dms" => opts.dms = args.next()?.parse().ok()?,
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

/// Routes the pipeline's merged alert stream onto the back link;
/// `end_of_stream` flushes and retires the link so every queued alert
/// is on the wire before the node reports.
struct BackDrain {
    back: EventedBackLink,
}

impl AlertDrain for BackDrain {
    fn round(&mut self, alerts: &mut Vec<Alert>) {
        for alert in alerts.drain(..) {
            self.back.send_alert(alert);
        }
    }
    fn end_of_stream(&mut self) {
        self.back.finish();
    }
}

/// Ingress and back link are state machines on one readiness loop;
/// evaluation is dispatched from this thread, fed by a channel that
/// closes when the ingress retires (all Fins, or the idle backstop).
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
    let mut el = match EventLoop::new() {
        Ok(el) => el,
        Err(e) => {
            eprintln!("error: cannot create event loop: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (tx, rx) = rcm_sync::chan::unbounded();
    let ingress = match el.add_front_ingress(sock, opts.dms, opts.idle, move |update| {
        let _ = tx.send(update);
    }) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: cannot register ingress: {e}");
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
    let back_stats = back.stats_handle();
    let engine = rcm_sync::thread::spawn(move || el.run());

    // The ingress gate already dropped reorders and duplicates, so every
    // delivered update goes straight into evaluation, a round at a time.
    let latency = Arc::new(LatencyHistogram::new());
    let mut pipe = EvalPipeline::start(
        CeId::new(opts.node),
        &conds,
        &PipelineOptions::with_workers(opts.workers),
        Box::new(BackDrain { back }),
        Arc::clone(&latency),
        Arc::new(AtomicU64::new(0)),
    );
    let mut round = Vec::with_capacity(ROUND);
    while let Ok(first) = rx.recv() {
        let admitted = Instant::now();
        round.push(first);
        round.extend(std::iter::from_fn(|| rx.try_recv().ok()).take(ROUND - 1));
        pipe.dispatch_round(&round, admitted);
        round.clear();
    }
    let helpers = pipe.helpers();
    pipe.finish();
    let _ = engine.join();

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
