//! Model-checked concurrency tests for the threaded runtime.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`, where every
//! `rcm_sync` primitive resolves to the bundled deterministic model
//! checker: each test body runs under **every** thread interleaving
//! within the preemption bound (see `rcm_sync::model`), so the
//! assertions are schedule-universal, not one-lucky-run facts.
//!
//! Run with:
//!
//! ```sh
//! RUSTFLAGS="--cfg loom" cargo test -p rcm-runtime --test loom --release
//! ```
#![cfg(loom)]

use std::time::Duration;

use rcm_core::condition::{cond, Cmp, Condition};
use rcm_core::{Alert, CeId, CondId, ConditionRegistry, LatencyHistogram, Update, VarId};
use rcm_net::Backoff;
use rcm_runtime::{
    AlertDrain, BackLink, EvalPipeline, IngestGate, PipelineOptions, RetainedWindow,
};
use rcm_sync::atomic::AtomicU64;
use rcm_sync::chan::{unbounded, wait_any, Receiver, Sender, TryRecvError};
use rcm_sync::model::model;
use rcm_sync::time::Instant;
use rcm_sync::{thread, Arc, Mutex};
use rcm_transport::engine::{SubmitQueue, Wake};

fn u(s: u64) -> Update {
    Update::new(VarId::new(0), s, s as f64)
}

/// Supervisor-restart handoff: a recovering CE replays the DM's
/// retained window through its ingest gate while the live feed keeps
/// arriving. Under every interleaving of replay and live delivery the
/// gate must admit each seqno exactly once, in order — the crash must
/// cause neither duplicate ingestion nor a gap.
#[test]
fn restart_replay_admits_each_seqno_exactly_once() {
    let executions = model(|| {
        let window = RetainedWindow::new(8);
        let (tx, rx) = unbounded::<Update>();
        let dm_window = window.clone();
        let dm = thread::spawn(move || {
            for s in 1..=4 {
                dm_window.push(u(s));
                tx.send(u(s)).expect("CE alive");
            }
        });

        let mut gate = IngestGate::new();
        let mut admitted = Vec::new();
        // Live ingest until the scripted kill point (2 deliveries)...
        for _ in 0..2 {
            if let Ok(up) = rx.recv() {
                if gate.admit(&up) {
                    admitted.push(up.seqno.get());
                }
            }
        }
        // ...crash: histories are lost, the gate survives (it belongs
        // to the supervisor). Replay the retained window — which the DM
        // may still be appending to — through the same gate.
        for up in window.snapshot() {
            if gate.admit(&up) {
                admitted.push(up.seqno.get());
            }
        }
        // Back live: drain the rest of the feed.
        while let Ok(up) = rx.recv() {
            if gate.admit(&up) {
                admitted.push(up.seqno.get());
            }
        }
        dm.join().expect("DM exits cleanly");

        assert_eq!(admitted, vec![1, 2, 3, 4], "exactly-once, in order");
        assert_eq!(gate.cursor(VarId::new(0)), Some(4));
    });
    assert!(executions > 1, "replay must race the live feed, got {executions} schedules");
}

/// Back-link severance: while the link is down, sends are queued and
/// the unacked tail is re-sent on reconnect — concurrently with the AD
/// draining the channel. Under every schedule the receiver must see
/// every message at least once, with first occurrences in send order
/// (duplicates are exact copies of already-seen messages).
#[test]
fn severed_backlink_is_lossless_and_ordered_under_all_schedules() {
    model(|| {
        let (tx, rx) = unbounded::<u64>();
        let ce = thread::spawn(move || {
            let backoff = Backoff::new(Duration::from_micros(50), Duration::from_millis(2), 7);
            // Send 2 is held; send 3 reconnects.
            let mut link = BackLink::new(tx, backoff).with_severs(vec![(1, 1)]);
            for m in 1..=3 {
                link.send(m);
            }
            link.flush();
            link.counters()
        });

        let got: Vec<u64> = rx.into_iter().collect();
        let stats = ce.join().expect("CE exits cleanly");

        // First occurrences reconstruct the send order exactly.
        let mut firsts = Vec::new();
        for &m in &got {
            if !firsts.contains(&m) {
                firsts.push(m);
            }
        }
        assert_eq!(firsts, vec![1, 2, 3], "lossless and ordered; got {got:?}");
        let s = stats.snapshot();
        assert_eq!(s.severs, 1);
        assert_eq!(s.reconnects, 1);
    });
}

/// Alert numbering across a modeled replica kill: two CE replicas emit
/// `(replica, alert_index)` pairs to one AD; replica 0 crashes
/// mid-stream and restarts with its histories wiped but its emission
/// counter intact (that is the supervisor contract). Under every
/// interleaving of the surviving replica and the restarting one, the
/// AD must observe each replica's indexes strictly ascending.
#[test]
fn alert_numbering_is_monotonic_across_a_replica_kill() {
    let executions = model(|| {
        let (tx, rx) = unbounded::<(u32, u64)>();

        // Supervisor-held state for replica 0: the emission counter
        // survives the kill; the history buffer does not.
        let counter0 = Arc::new(Mutex::new(0u64));
        let c0 = Arc::clone(&counter0);
        let tx0 = tx.clone();
        let ce0 = thread::spawn(move || {
            // First incarnation: two alerts, then a scripted kill.
            let mut history = vec![0u64];
            for _ in 0..2 {
                let mut n = c0.lock();
                history.push(*n);
                tx0.send((0, *n)).expect("AD alive");
                *n += 1;
            }
            drop(history); // the crash wipes in-memory histories
                           // Restart: fresh histories, same counter.
            let mut history = Vec::new();
            for _ in 0..2 {
                let mut n = c0.lock();
                history.push(*n);
                tx0.send((0, *n)).expect("AD alive");
                *n += 1;
            }
            assert_eq!(history.len(), 2);
        });
        let ce1 = thread::spawn(move || {
            for i in 0..3 {
                tx.send((1, i)).expect("AD alive");
            }
        });

        let mut last: [Option<u64>; 2] = [None, None];
        for (ce, idx) in rx.into_iter() {
            let slot = &mut last[ce as usize];
            assert!(
                slot.is_none_or(|prev| idx > prev),
                "replica {ce} regressed: {idx} after {slot:?}"
            );
            *slot = Some(idx);
        }
        ce0.join().expect("ce0");
        ce1.join().expect("ce1");
        assert_eq!(last, [Some(3), Some(2)], "every alert arrived");
    });
    assert!(executions > 1, "replica streams must interleave, got {executions} schedules");
}

/// The event loop's submit/wake handoff, exhaustively: a caller thread
/// submits commands while the loop thread runs its real sleep protocol
/// (drain → `prepare_sleep` → blocked wait → `wake_done` → drain).
/// The classic lost-wakeup bug — producer pushes between the
/// consumer's last drain and its sleep, and the wake is skipped —
/// must be impossible under **every** interleaving: the waker channel
/// is kept open after the producer exits, so a lost wakeup parks the
/// consumer forever with work queued, which the model checker reports
/// as a deadlocked schedule instead of a lucky pass.
#[test]
fn submit_wake_handoff_never_strands_a_command() {
    /// The loom stand-in for the event loop's self-pipe waker: wake =
    /// make the blocked "readiness wait" (a channel recv) return.
    struct ChanWaker(Sender<()>);
    impl Wake for ChanWaker {
        fn wake(&self) {
            let _ = self.0.send(());
        }
    }

    let executions = model(|| {
        let queue: SubmitQueue<u64> = SubmitQueue::new();
        let (wake_tx, wake_rx) = unbounded::<()>();
        let producer_queue = queue.clone();
        let producer = thread::spawn(move || {
            let waker = ChanWaker(wake_tx);
            for command in 1..=2 {
                producer_queue.submit(command, &waker);
            }
            // Return the waker instead of dropping it: the channel
            // staying open means a missed wake cannot be papered over
            // by a hangup — it must surface as a stuck schedule.
            waker
        });

        let mut got = Vec::new();
        let mut cmds = Vec::new();
        while got.len() < 2 {
            queue.drain(&mut cmds);
            got.append(&mut cmds);
            if got.len() == 2 {
                break;
            }
            if !queue.prepare_sleep() {
                continue; // a submit raced in: drain, don't sleep
            }
            let _ = wake_rx.recv(); // the modeled readiness wait
            queue.wake_done();
        }
        let _waker = producer.join().expect("producer exits cleanly");

        assert_eq!(got, vec![1, 2], "every command survived the handoff, in order");
    });
    assert!(executions > 1, "the handoff must actually race, got {executions} schedules");
}

/// The evaluation pipeline's fork-join round, exhaustively, as a model
/// of `EvalPipeline::dispatch_round`: the CE thread (here the main
/// thread) evaluates shard 0 itself and one helper thread evaluates
/// shard 1. Per round the CE sends the helper a job, evaluates its own
/// shard, receives the helper's reply and merges each update's alerts
/// by condition id; a restart between the two rounds rides on the
/// second round's job. Each side counts a message into a channel before
/// sending it and out after receiving it. Under **every** interleaving
/// the merged stream must be exactly the single-threaded order, the
/// restart must land between the rounds on both shards, and no channel
/// may ever hold more than one message.
#[test]
fn fork_join_rounds_merge_in_order_with_one_message_per_channel() {
    /// A shard's "registry": condition `cond` alerts on every update,
    /// numbered per condition; a restart shows as the `restarted` flag
    /// on the next alert.
    fn evaluate(
        cond: u32,
        restart: bool,
        round: &[u64],
        next: &mut u64,
    ) -> Vec<(u64, u32, u64, bool)> {
        round
            .iter()
            .enumerate()
            .map(|(i, &update)| {
                let alert = (update, cond, *next, restart && i == 0);
                *next += 1;
                alert
            })
            .collect()
    }
    /// Counts a message into a channel; at most one may be in it.
    fn count_in(queued: &Mutex<usize>, channel: &str) {
        let mut queued = queued.lock();
        *queued += 1;
        let held = *queued;
        assert_eq!(held, 1, "the {channel} channel would hold {held} messages");
    }

    let executions = model(|| {
        let rounds: [&[u64]; 2] = [&[1, 2], &[3]];
        let jobs_queued = Arc::new(Mutex::new(0));
        let replies_queued = Arc::new(Mutex::new(0));
        let (job_tx, job_rx) = unbounded::<(bool, Vec<u64>)>();
        let (reply_tx, reply_rx) = unbounded::<Vec<(u64, u32, u64, bool)>>();
        let helper = {
            let (jobs_queued, replies_queued) =
                (Arc::clone(&jobs_queued), Arc::clone(&replies_queued));
            thread::spawn(move || {
                let mut next = 0;
                while let Ok((restart, round)) = job_rx.recv() {
                    *jobs_queued.lock() -= 1;
                    let alerts = evaluate(1, restart, &round, &mut next);
                    count_in(&replies_queued, "reply");
                    reply_tx.send(alerts).expect("CE alive");
                }
            })
        };

        let mut next = 0;
        let mut merged = Vec::new();
        for (k, round) in rounds.iter().enumerate() {
            let restart = k == 1;
            count_in(&jobs_queued, "job");
            job_tx.send((restart, round.to_vec())).expect("helper alive");
            let own = evaluate(0, restart, round, &mut next);
            let theirs = reply_rx.recv().expect("helper replies");
            *replies_queued.lock() -= 1;
            for &update in round.iter() {
                let mut per_update: Vec<_> =
                    own.iter().chain(&theirs).filter(|a| a.0 == update).copied().collect();
                per_update.sort_by_key(|a| a.1);
                merged.extend(per_update);
            }
        }
        drop(job_tx);
        helper.join().expect("helper exits cleanly");
        assert!(reply_rx.recv().is_err(), "the helper stranded a reply");

        let want = vec![
            (1, 0, 0, false),
            (1, 1, 0, false),
            (2, 0, 1, false),
            (2, 1, 1, false),
            (3, 0, 2, true),
            (3, 1, 2, true),
        ];
        assert_eq!(merged, want, "merge must reconstruct single-threaded order");
    });
    assert!(executions > 1, "the fork must actually race, got {executions} schedules");
}

/// The real [`EvalPipeline`] under every schedule: two shards (one
/// helper thread), two rounds with a restart between them, then
/// `finish`. The drained stream, ids included, must equal one
/// single-threaded registry fed the same updates with the same restart,
/// and the drain must be flushed exactly once, after every round.
#[test]
fn the_pipeline_drains_the_single_threaded_stream_under_every_schedule() {
    struct Collect(Arc<Mutex<Vec<Alert>>>, Arc<Mutex<u32>>);
    impl AlertDrain for Collect {
        fn round(&mut self, alerts: &mut Vec<Alert>) {
            assert_eq!(*self.1.lock(), 0, "a round drained after the flush");
            self.0.lock().append(alerts);
        }
        fn end_of_stream(&mut self) {
            *self.1.lock() += 1;
        }
    }

    let executions = model(|| {
        let x = VarId::new(0);
        // Condition 0 on shard 0 (this thread), condition 1 on shard 1
        // (the helper); the sustained one shows the restart.
        let conds: Vec<Arc<dyn Condition>> = vec![
            Arc::new(cond::threshold(x, Cmp::Gt, 0.0)),
            Arc::new(cond::sustained_above(x, 0.0, 2)),
        ];
        let updates = [u(1), u(2), u(3)];
        let (got, flushes) = (Arc::new(Mutex::new(Vec::new())), Arc::new(Mutex::new(0)));
        let mut pipe = EvalPipeline::start(
            CeId::new(0),
            &conds,
            &PipelineOptions::with_workers(2),
            Box::new(Collect(Arc::clone(&got), Arc::clone(&flushes))),
            Arc::new(LatencyHistogram::new()),
            Arc::new(AtomicU64::new(0)),
        );
        pipe.dispatch_round(&updates[..2], Instant::now());
        pipe.restart();
        pipe.dispatch_round(&updates[2..], Instant::now());
        pipe.finish();

        let mut registry = ConditionRegistry::new(CeId::new(0));
        for (i, c) in conds.iter().enumerate() {
            registry.insert(CondId::new(i as u32), Arc::clone(c));
        }
        let mut want = Vec::new();
        registry.ingest_batch(&updates[..2], &mut want);
        registry.restart();
        registry.ingest_batch(&updates[2..], &mut want);
        let got = got.lock().clone();
        assert_eq!(got, want);
        assert!(got.iter().zip(&want).all(|(g, w)| g.id == w.id), "AlertId numbering diverged");
        assert_eq!(*flushes.lock(), 1, "flushed once");
    });
    assert!(executions > 1, "the helper must actually race, got {executions} schedules");
}

/// Retained-window atomicity: a DM pushes into a capacity-bounded
/// window while a recovering replica snapshots it. Under every
/// interleaving the snapshot must be a contiguous, ascending run of
/// seqnos — eviction and append are atomic, so a reader can never see
/// a torn window (a gap would replay a corrupted history).
#[test]
fn retained_window_snapshots_are_never_torn() {
    model(|| {
        let window = RetainedWindow::new(2);
        window.push(u(1)); // pre-crash traffic
        let dm_window = window.clone();
        let dm = thread::spawn(move || {
            for s in 2..=4 {
                dm_window.push(u(s));
            }
        });

        let snap: Vec<u64> = window.snapshot().iter().map(|u| u.seqno.get()).collect();
        assert!(snap.len() <= 2, "capacity respected: {snap:?}");
        assert!(
            snap.windows(2).all(|w| w[1] == w[0] + 1),
            "snapshot tore across an eviction: {snap:?}"
        );
        dm.join().expect("DM exits cleanly");

        let settled: Vec<u64> = window.snapshot().iter().map(|u| u.seqno.get()).collect();
        assert_eq!(settled, vec![3, 4], "final window is the newest suffix");
    });
}

/// The Data Monitor loop's wake, as `dm_loop` does it: a pass takes one
/// reading from each live feed with `try_recv`, a feed that reports
/// `Disconnected` leaves the set, and a pass that took nothing parks in
/// `wait_any` over the feeds still live. Returns the readings in the
/// order taken once every feed has hung up, or once `want` readings are
/// in.
fn dm_rounds(mut feeds: Vec<Receiver<u64>>, want: usize) -> Vec<u64> {
    let mut got = Vec::new();
    while !feeds.is_empty() && got.len() < want {
        let before = got.len();
        feeds.retain(|rx| match rx.try_recv() {
            Ok(reading) => {
                got.push(reading);
                true
            }
            Err(TryRecvError::Empty) => true,
            Err(TryRecvError::Disconnected) => false,
        });
        if got.len() == before && !feeds.is_empty() {
            let live: Vec<&Receiver<u64>> = feeds.iter().collect();
            wait_any(&live, None);
        }
    }
    got
}

/// A send racing the DM loop's park must always wake it. Both producers
/// keep their senders open (they return them), so no hang-up can end a
/// missed wait: a reading stranded behind a lost wake-up parks the loop
/// forever, which the model reports as a deadlocked schedule.
#[test]
fn a_send_racing_the_dm_loop_park_always_wakes_it() {
    let executions = model(|| {
        let (a_tx, a) = unbounded::<u64>();
        let (b_tx, b) = unbounded::<u64>();
        let pa = thread::spawn(move || {
            a_tx.send(1).expect("loop alive");
            a_tx
        });
        let pb = thread::spawn(move || {
            b_tx.send(2).expect("loop alive");
            b_tx
        });
        let mut got = dm_rounds(vec![a, b], 2);
        got.sort_unstable();
        assert_eq!(got, vec![1, 2], "every reading reached the loop");
        drop((pa.join(), pb.join()));
    });
    assert!(executions > 1, "the sends must race the park, got {executions} schedules");
}

/// The last sender's drop must always end the DM loop: each producer
/// sends and hangs up, and the loop runs until every feed is gone. A
/// hang-up that fails to wake the parked loop is a deadlocked schedule.
#[test]
fn the_last_hang_up_always_ends_the_dm_loop() {
    let executions = model(|| {
        let (a_tx, a) = unbounded::<u64>();
        let (b_tx, b) = unbounded::<u64>();
        let b_tx2 = b_tx.clone();
        let pa = thread::spawn(move || drop(a_tx));
        let pb = thread::spawn(move || {
            b_tx.send(2).expect("loop alive");
            drop(b_tx);
            drop(b_tx2);
        });
        let got = dm_rounds(vec![a, b], usize::MAX);
        assert_eq!(got, vec![2], "the reading sent before the hang-up is taken");
        pa.join().expect("producer exits");
        pb.join().expect("producer exits");
    });
    assert!(executions > 1, "the hang-ups must race the park, got {executions} schedules");
}
