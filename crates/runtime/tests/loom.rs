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

use rcm_core::{Update, VarId};
use rcm_net::Backoff;
use rcm_runtime::{BackLink, IngestGate, RetainedWindow};
use rcm_sync::chan::{unbounded, wait_any, Receiver, Sender, TryRecvError};
use rcm_sync::model::model;
use rcm_sync::{spsc, thread, Arc, Mutex};
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
            let mut link =
                BackLink::new(tx, backoff).with_severs(vec![(1, Duration::from_micros(200))]);
            for m in 1..=3 {
                link.send(m);
            }
            link.flush();
            link.stats_handle()
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
        let s = stats.lock();
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

/// The evaluation pipeline's fan-out/merge handoff, exhaustively: the
/// dispatcher (here the main thread) feeds the same update stream to
/// two shard workers over capacity-1 SPSC rings on the blocking
/// (`push_wait`) path; each worker evaluates its own condition slice
/// (`cond % 2 == shard`) and reports one `(update, alerts)` round per
/// update; the sequencer pulls one round per worker in lockstep and
/// merges by condition id. Under **every** interleaving of the two
/// workers against the dispatcher, the merged stream must be exactly
/// the single-threaded order — no alert stranded in a ring or an out
/// channel, none reordered, none duplicated.
#[test]
fn spsc_fanout_and_sequencer_merge_never_strand_or_reorder() {
    const UPDATES: u64 = 2;
    const SHARDS: u32 = 2;
    let executions = model(|| {
        let mut rings = Vec::new();
        let mut outs = Vec::new();
        let mut workers = Vec::new();
        for shard in 0..SHARDS {
            let (jobs_tx, jobs_rx) = spsc::ring::<u64>(1);
            let (out_tx, out_rx) = unbounded::<(u64, Vec<(u64, u32)>)>();
            rings.push(jobs_tx);
            outs.push(out_rx);
            workers.push(thread::spawn(move || {
                // Drain in batches like the real worker: a blocking pop
                // opens the batch, `drain_into` opportunistically grabs
                // what else is already queued.
                let mut batch = Vec::new();
                while let Some(first) = jobs_rx.pop() {
                    batch.push(first);
                    jobs_rx.drain_into(&mut batch, 1);
                    for idx in batch.drain(..) {
                        // This shard's slice of a 2-condition registry.
                        let alerts: Vec<(u64, u32)> =
                            (0..SHARDS).filter(|c| c % SHARDS == shard).map(|c| (idx, c)).collect();
                        out_tx.send((idx, alerts)).expect("sequencer alive");
                    }
                }
            }));
        }

        // Dispatcher: every shard sees every update, in stream order.
        for idx in 1..=UPDATES {
            for ring in &mut rings {
                ring.push_wait(idx).expect("worker alive");
            }
        }
        drop(rings); // closes the rings: workers drain and exit

        // Sequencer: lockstep rounds, merge by condition id.
        let mut merged = Vec::new();
        for idx in 1..=UPDATES {
            let mut round = Vec::new();
            for out in &outs {
                let (got_idx, alerts) = out.recv().expect("worker round");
                assert_eq!(got_idx, idx, "a worker skipped or reordered a round");
                round.extend(alerts);
            }
            round.sort_by_key(|&(_, cond)| cond);
            merged.extend(round);
        }
        for worker in workers {
            worker.join().expect("worker exits cleanly");
        }
        for out in &outs {
            assert!(out.recv().is_err(), "a worker emitted a stranded extra round");
        }

        let want: Vec<(u64, u32)> =
            (1..=UPDATES).flat_map(|idx| (0..SHARDS).map(move |c| (idx, c))).collect();
        assert_eq!(merged, want, "merge must reconstruct single-threaded order");
    });
    assert!(executions > 1, "fan-out must actually race, got {executions} schedules");
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
