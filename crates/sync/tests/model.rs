//! Self-tests for the bundled model checker: exhaustiveness, race
//! detection, deadlock detection, channel semantics and virtual time.
//!
//! These run under the normal cfg (the `model` module is always
//! compiled); `--cfg loom` only changes which types the shim re-exports.

use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::sync::Mutex as StdMutex;
use std::time::Duration;

use rcm_sync::model::atomic::{AtomicU64, Ordering};
use rcm_sync::model::chan::{unbounded, wait_any, TryRecvError};
use rcm_sync::model::sync::Mutex;
use rcm_sync::model::thread;
use rcm_sync::model::time::Instant;
use rcm_sync::model::{model, Model};

#[test]
fn locked_increments_always_sum() {
    let executions = model(|| {
        let m = Arc::new(Mutex::new(0u32));
        let m2 = Arc::clone(&m);
        let t = thread::spawn(move || *m2.lock() += 1);
        *m.lock() += 1;
        t.join().expect("model joins never fail");
        assert_eq!(*m.lock(), 2);
    });
    assert!(executions > 1, "two contending threads must branch, got {executions}");
}

#[test]
fn explores_every_merge_order_of_two_writers() {
    // Two threads each push their tag twice under a lock. An exhaustive
    // explorer must observe all C(4,2) = 6 merge orders.
    let seen: Arc<StdMutex<HashSet<Vec<u8>>>> = Arc::new(StdMutex::new(HashSet::new()));
    let seen2 = Arc::clone(&seen);
    Model::new().preemption_bound(None).check(move || {
        let log = Arc::new(Mutex::new(Vec::<u8>::new()));
        let log2 = Arc::clone(&log);
        let t = thread::spawn(move || {
            for _ in 0..2 {
                log2.lock().push(b'B');
            }
        });
        for _ in 0..2 {
            log.lock().push(b'A');
        }
        t.join().expect("join");
        let order = log.lock().clone();
        seen2.lock().expect("collector lock").insert(order);
    });
    let orders = seen.lock().expect("collector lock").clone();
    let expected: HashSet<Vec<u8>> =
        [b"AABB", b"ABAB", b"ABBA", b"BAAB", b"BABA", b"BBAA"].iter().map(|s| s.to_vec()).collect();
    assert_eq!(orders, expected);
}

#[test]
fn preemption_bound_zero_runs_threads_to_completion() {
    let executions = Model::new().preemption_bound(Some(0)).check(|| {
        let log = Arc::new(Mutex::new(Vec::<u8>::new()));
        let log2 = Arc::clone(&log);
        let t = thread::spawn(move || log2.lock().push(b'B'));
        log.lock().push(b'A');
        t.join().expect("join");
        let order = log.lock().clone();
        assert_eq!(order, b"AB", "bound 0: the parent never gets preempted");
    });
    assert_eq!(executions, 1);
}

#[test]
fn finds_the_lost_update_race() {
    // Unsynchronized read-modify-write: some schedule must lose an
    // update, and the model must find it.
    let finals: Arc<StdMutex<HashSet<u64>>> = Arc::new(StdMutex::new(HashSet::new()));
    let finals2 = Arc::clone(&finals);
    model(move || {
        let c = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&c);
        let t = thread::spawn(move || {
            let v = c2.load(Ordering::SeqCst);
            c2.store(v + 1, Ordering::SeqCst);
        });
        let v = c.load(Ordering::SeqCst);
        c.store(v + 1, Ordering::SeqCst);
        t.join().expect("join");
        finals2.lock().expect("collector lock").insert(c.load(Ordering::SeqCst));
    });
    let finals = finals.lock().expect("collector lock").clone();
    assert!(finals.contains(&2), "the benign interleaving exists");
    assert!(finals.contains(&1), "the lost-update interleaving must be found");
}

#[test]
fn detects_lock_order_inversion_deadlock() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        model(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = thread::spawn(move || {
                let _gb = b2.lock();
                let _ga = a2.lock();
            });
            let _ga = a.lock();
            let _gb = b.lock();
            drop((_ga, _gb));
            t.join().expect("join");
        });
    }));
    let err = result.expect_err("opposite lock orders must deadlock under some schedule");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default();
    assert!(msg.contains("deadlock"), "unexpected panic: {msg}");
}

#[test]
fn assertion_failures_surface_with_a_schedule() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        model(|| {
            let c = Arc::new(AtomicU64::new(0));
            let c2 = Arc::clone(&c);
            let t = thread::spawn(move || {
                let v = c2.load(Ordering::SeqCst);
                c2.store(v + 1, Ordering::SeqCst);
            });
            let v = c.load(Ordering::SeqCst);
            c.store(v + 1, Ordering::SeqCst);
            t.join().expect("join");
            assert_eq!(c.load(Ordering::SeqCst), 2, "racy count");
        });
    }));
    assert!(result.is_err(), "the racy schedule must fail the assertion");
}

#[test]
fn channel_delivers_in_order_and_disconnects() {
    model(|| {
        let (tx, rx) = unbounded::<u32>();
        let t = thread::spawn(move || {
            tx.send(1).expect("receiver alive");
            tx.send(2).expect("receiver alive");
            // tx drops here: end of stream
        });
        assert_eq!(rx.recv(), Ok(1), "FIFO");
        assert_eq!(rx.recv(), Ok(2), "FIFO");
        assert!(rx.recv().is_err(), "disconnect after the last sender drops");
        t.join().expect("join");
    });
}

#[test]
fn try_recv_reports_empty_vs_disconnected() {
    model(|| {
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(7).expect("receiver alive");
        assert_eq!(rx.try_recv(), Ok(7));
        drop(tx);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    });
}

#[test]
fn send_to_dropped_receiver_errors() {
    model(|| {
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert!(tx.send(1).is_err());
    });
}

#[test]
fn blocking_iter_drains_across_threads() {
    model(|| {
        let (tx, rx) = unbounded::<u32>();
        let t = thread::spawn(move || {
            for i in 0..3 {
                tx.send(i).expect("receiver alive");
            }
        });
        let got: Vec<u32> = rx.into_iter().collect();
        assert_eq!(got, vec![0, 1, 2]);
        t.join().expect("join");
    });
}

#[test]
fn wait_any_wakes_for_either_channel_and_for_the_last_hangup() {
    let executions = model(|| {
        let (a_tx, a) = unbounded::<u32>();
        let (b_tx, b) = unbounded::<u32>();
        let t = thread::spawn(move || {
            b_tx.send(2).expect("receiver alive");
            drop(a_tx);
        });
        wait_any(&[&a, &b], None);
        assert!(b.try_recv() == Ok(2) || a.try_recv() == Err(TryRecvError::Disconnected));
        wait_any(&[&a], None);
        assert_eq!(a.try_recv(), Err(TryRecvError::Disconnected));
        t.join().expect("join");
    });
    assert!(executions > 1, "the wait must race the sender, got {executions}");
}

#[test]
fn wait_any_with_no_sender_ever_is_a_deadlock() {
    let result = catch_unwind(AssertUnwindSafe(|| {
        model(|| {
            let (tx, rx) = unbounded::<u32>();
            let t = thread::spawn(move || tx);
            wait_any(&[&rx], None);
            drop(t.join());
        });
    }));
    let err = result.expect_err("a wait nothing can end must be reported");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("deadlock"), "unexpected panic: {msg}");
}

#[test]
fn wait_any_with_a_deadline_advances_the_clock_instead_of_blocking() {
    model(|| {
        let (_tx, rx) = unbounded::<u32>();
        let deadline = Instant::now() + Duration::from_millis(3);
        wait_any(&[&rx], Some(deadline));
        assert_eq!(Instant::now(), deadline);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    });
}

#[test]
fn virtual_clock_advances_only_on_sleep() {
    model(|| {
        let start = Instant::now();
        assert_eq!(start.elapsed(), Duration::ZERO);
        thread::sleep(Duration::from_millis(5));
        assert_eq!(start.elapsed(), Duration::from_millis(5));
        let deadline = Instant::now() + Duration::from_millis(10);
        assert!(Instant::now() < deadline);
        thread::sleep(Duration::from_millis(10));
        assert!(Instant::now() >= deadline, "sleeping past a deadline expires it");
    });
}

#[test]
fn join_returns_the_thread_value() {
    model(|| {
        let t = thread::spawn(|| 41u64 + 1);
        assert_eq!(t.join().expect("join"), 42);
    });
}
