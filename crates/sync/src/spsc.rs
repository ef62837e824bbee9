//! Bounded single-producer/single-consumer rings for the evaluation
//! pipeline's dispatcher → shard-worker handoff.
//!
//! The ring is deliberately built from the shim's own primitives — a
//! [`Mutex`] around the queue state plus unbounded
//! [`chan`](crate::chan) channels carrying wake tokens — so the exact
//! same source compiles under `--cfg loom` and the handoff protocol is
//! model-checkable without a parallel "test double" implementation.
//! The cost versus a lock-free ring is one uncontended mutex
//! acquisition per operation, which is noise next to a condition
//! re-evaluation; the payoff is that the lost-wakeup argument below is
//! *checked*, not argued.
//!
//! ## Wakeup protocol
//!
//! A side that must block (the consumer on empty in [`Consumer::pop`],
//! the producer on full in [`Producer::push_wait`]) sets its
//! `*_sleeping` flag **while holding the state lock**, releases the
//! lock, and then blocks on its private wake channel. The peer only
//! sends a wake token on a flag transition `true → false` made under
//! the same lock. Consequently at most one token is ever in flight per
//! side, and every `recv` has a matching prior `send` caused by exactly
//! the state change the sleeper was waiting for — a sleeper can never
//! strand. `spsc_handoff_never_strands_or_reorders` in
//! `crates/runtime/tests/loom.rs` checks this exhaustively.
//!
//! ## Shedding
//!
//! [`Producer::push`] is the non-blocking entry: a full ring returns
//! the rejected value to the caller, which the pipeline counts as a
//! *shed* update — semantically indistinguishable from a front-link
//! drop, so the paper's per-AD guarantees already cover it.
//! [`Producer::push_wait`] is the blocking entry reserved for control
//! messages (restart/abandon markers) that must never be lost.

use std::collections::VecDeque;

use crate::chan::{Receiver, Sender};
use crate::{Arc, Mutex};

/// Shared ring state. LOCK ORDER: `state` is a leaf mutex — both sides
/// take it alone and release it before any channel operation (wake
/// tokens are sent *after* the guard drops), so no lock cycle exists.
struct Shared<T> {
    state: Mutex<State<T>>,
    /// Wake tokens for a consumer sleeping on "empty".
    consumer_wake: Sender<()>,
    /// Wake tokens for a producer sleeping on "full" in `push_wait`.
    producer_wake: Sender<()>,
}

struct State<T> {
    buf: VecDeque<T>,
    capacity: usize,
    /// Producer dropped: the consumer drains, then sees end-of-stream.
    closed: bool,
    /// Consumer dropped: pushes report disconnect.
    consumer_gone: bool,
    consumer_sleeping: bool,
    producer_sleeping: bool,
}

impl<T> State<T> {
    /// Clears the consumer's sleep flag if set; the caller must send
    /// one wake token after dropping the lock iff this returns true.
    fn take_consumer_sleep(&mut self) -> bool {
        std::mem::take(&mut self.consumer_sleeping)
    }

    /// Producer-side counterpart of [`State::take_consumer_sleep`].
    fn take_producer_sleep(&mut self) -> bool {
        std::mem::take(&mut self.producer_sleeping)
    }
}

/// Sending half of a bounded SPSC ring (not `Clone`: *single*
/// producer).
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    wake: Receiver<()>,
}

/// Receiving half of a bounded SPSC ring (not `Clone`: *single*
/// consumer).
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    wake: Receiver<()>,
}

impl<T> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("spsc::Producer").finish()
    }
}

impl<T> std::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("spsc::Consumer").finish()
    }
}

/// Why a non-blocking push did not enqueue.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The ring is at capacity; the value comes back to the caller
    /// (the pipeline counts this as a shed update).
    Full(T),
    /// The consumer is gone; no value will ever be read again.
    Disconnected(T),
}

/// Why a non-blocking pop returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryPopError {
    /// Ring is empty but the producer is still alive.
    Empty,
    /// Ring is empty and the producer hung up: end of stream.
    Disconnected,
}

/// Creates a bounded ring holding at most `capacity` in-flight values.
///
/// # Panics
///
/// Panics if `capacity` is zero.
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity >= 1, "spsc ring needs capacity >= 1");
    let (consumer_wake, consumer_wake_rx) = crate::chan::unbounded();
    let (producer_wake, producer_wake_rx) = crate::chan::unbounded();
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            closed: false,
            consumer_gone: false,
            consumer_sleeping: false,
            producer_sleeping: false,
        }),
        consumer_wake,
        producer_wake,
    });
    (
        Producer { shared: Arc::clone(&shared), wake: producer_wake_rx },
        Consumer { shared, wake: consumer_wake_rx },
    )
}

impl<T> Producer<T> {
    /// Non-blocking enqueue: `Err(Full)` hands the value back when the
    /// ring is at capacity (the caller sheds it), `Err(Disconnected)`
    /// when the consumer is gone.
    pub fn push(&self, value: T) -> Result<(), PushError<T>> {
        let wake = {
            let mut st = self.shared.state.lock();
            if st.consumer_gone {
                return Err(PushError::Disconnected(value));
            }
            if st.buf.len() >= st.capacity {
                return Err(PushError::Full(value));
            }
            st.buf.push_back(value);
            st.take_consumer_sleep()
        };
        if wake {
            let _ = self.shared.consumer_wake.send(());
        }
        Ok(())
    }

    /// Blocking enqueue for control messages: waits for ring space
    /// rather than shedding. `Err` only when the consumer is gone.
    pub fn push_wait(&self, value: T) -> Result<(), PushError<T>> {
        let mut slot = Some(value);
        loop {
            let wake = {
                let mut st = self.shared.state.lock();
                if st.consumer_gone {
                    match slot.take() {
                        Some(v) => return Err(PushError::Disconnected(v)),
                        None => unreachable!("value consumed only on successful push"),
                    }
                }
                if st.buf.len() >= st.capacity {
                    st.producer_sleeping = true;
                    None
                } else {
                    match slot.take() {
                        Some(v) => st.buf.push_back(v),
                        None => unreachable!("value consumed only on successful push"),
                    }
                    Some(st.take_consumer_sleep())
                }
            };
            match wake {
                Some(wake_consumer) => {
                    if wake_consumer {
                        let _ = self.shared.consumer_wake.send(());
                    }
                    return Ok(());
                }
                None => {
                    // Sleep until the consumer pops (it wakes us on the
                    // flag it saw under the lock). A recv error means
                    // the consumer dropped; the next lap notices
                    // `consumer_gone` and returns the value.
                    if self.wake.recv().is_err() {
                        self.shared.state.lock().producer_sleeping = false;
                    }
                }
            }
        }
    }

    /// Whether a `push` right now would shed (advisory; exact for the
    /// single producer as long as it checks before pushing).
    pub fn is_full(&self) -> bool {
        let st = self.shared.state.lock();
        !st.consumer_gone && st.buf.len() >= st.capacity
    }

    /// In-flight values currently buffered.
    pub fn len(&self) -> usize {
        self.shared.state.lock().buf.len()
    }

    /// Whether the ring is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        let wake = {
            let mut st = self.shared.state.lock();
            st.closed = true;
            st.take_consumer_sleep()
        };
        if wake {
            let _ = self.shared.consumer_wake.send(());
        }
    }
}

impl<T> Consumer<T> {
    /// Non-blocking dequeue.
    pub fn try_pop(&self) -> Result<T, TryPopError> {
        let (value, wake) = {
            let mut st = self.shared.state.lock();
            match st.buf.pop_front() {
                Some(v) => (v, st.take_producer_sleep()),
                None if st.closed => return Err(TryPopError::Disconnected),
                None => return Err(TryPopError::Empty),
            }
        };
        if wake {
            let _ = self.shared.producer_wake.send(());
        }
        Ok(value)
    }

    /// Drains up to `max` buffered values into `out` under a single
    /// lock acquisition — the pipeline's batch amortization. Returns
    /// how many values were moved (0 when the ring is empty, whether
    /// or not the producer is still alive).
    pub fn drain_into(&self, out: &mut Vec<T>, max: usize) -> usize {
        let (n, wake) = {
            let mut st = self.shared.state.lock();
            let n = st.buf.len().min(max);
            out.extend(st.buf.drain(..n));
            (n, if n > 0 { st.take_producer_sleep() } else { false })
        };
        if wake {
            let _ = self.shared.producer_wake.send(());
        }
        n
    }

    /// Blocking dequeue: `None` means the producer hung up and the ring
    /// is drained (end of stream).
    pub fn pop(&self) -> Option<T> {
        loop {
            let popped = {
                let mut st = self.shared.state.lock();
                match st.buf.pop_front() {
                    Some(v) => Some((v, st.take_producer_sleep())),
                    None if st.closed => return None,
                    None => {
                        st.consumer_sleeping = true;
                        None
                    }
                }
            };
            if let Some((value, wake)) = popped {
                if wake {
                    let _ = self.shared.producer_wake.send(());
                }
                return Some(value);
            }
            // Sleep until the producer pushes or closes; it saw our
            // flag under the lock and owes us exactly one token. A recv
            // error (producer dropped mid-protocol) just re-checks.
            match self.wake.recv() {
                Ok(()) => {}
                Err(_) => {
                    self.shared.state.lock().consumer_sleeping = false;
                }
            }
        }
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        let wake = {
            let mut st = self.shared.state.lock();
            st.consumer_gone = true;
            st.buf.clear();
            st.take_producer_sleep()
        };
        if wake {
            let _ = self.shared.producer_wake.send(());
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_within_capacity() {
        let (tx, rx) = ring::<u32>(8);
        for i in 0..5 {
            tx.push(i).expect("within capacity");
        }
        drop(tx);
        let mut got = Vec::new();
        while let Some(v) = rx.pop() {
            got.push(v);
        }
        assert_eq!(got, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn full_ring_sheds_and_returns_the_value() {
        let (tx, rx) = ring::<u32>(2);
        tx.push(1).expect("fits");
        tx.push(2).expect("fits");
        assert!(tx.is_full());
        assert_eq!(tx.push(3), Err(PushError::Full(3)));
        assert_eq!(rx.try_pop(), Ok(1));
        assert!(!tx.is_full());
        tx.push(3).expect("space freed");
        assert_eq!(rx.try_pop(), Ok(2));
        assert_eq!(rx.try_pop(), Ok(3));
        assert_eq!(rx.try_pop(), Err(TryPopError::Empty));
    }

    #[test]
    fn close_drains_then_disconnects() {
        let (tx, rx) = ring::<u32>(4);
        tx.push(7).expect("fits");
        drop(tx);
        assert_eq!(rx.try_pop(), Ok(7));
        assert_eq!(rx.try_pop(), Err(TryPopError::Disconnected));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn consumer_gone_fails_pushes() {
        let (tx, rx) = ring::<u32>(4);
        drop(rx);
        assert_eq!(tx.push(1), Err(PushError::Disconnected(1)));
        assert_eq!(tx.push_wait(2), Err(PushError::Disconnected(2)));
    }

    #[test]
    fn blocking_pop_wakes_on_push() {
        let (tx, rx) = ring::<u32>(4);
        let h = crate::thread::spawn(move || rx.pop());
        crate::thread::sleep(std::time::Duration::from_millis(10));
        tx.push(42).expect("fits");
        assert_eq!(h.join().expect("consumer thread"), Some(42));
    }

    #[test]
    fn push_wait_blocks_until_space_then_delivers() {
        let (tx, rx) = ring::<u32>(1);
        tx.push(1).expect("fits");
        let h = crate::thread::spawn(move || {
            tx.push_wait(2).expect("consumer alive");
        });
        crate::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.pop(), Some(2));
        h.join().expect("producer thread");
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn heavy_handoff_preserves_every_value_in_order() {
        let (tx, rx) = ring::<u64>(16);
        const N: u64 = 10_000;
        let h = crate::thread::spawn(move || {
            let mut got = Vec::with_capacity(N as usize);
            while let Some(v) = rx.pop() {
                got.push(v);
            }
            got
        });
        for i in 0..N {
            tx.push_wait(i).expect("consumer alive");
        }
        drop(tx);
        let got = h.join().expect("consumer thread");
        assert_eq!(got.len() as u64, N);
        assert!(got.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn drain_into_moves_a_batch_under_one_lock() {
        let (tx, rx) = ring::<u32>(8);
        for i in 0..6 {
            tx.push(i).expect("fits");
        }
        let mut out = Vec::new();
        assert_eq!(rx.drain_into(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(rx.drain_into(&mut out, 10), 2);
        assert_eq!(out, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(rx.drain_into(&mut out, 10), 0);
        drop(tx);
        assert_eq!(rx.drain_into(&mut out, 10), 0);
        assert_eq!(rx.try_pop(), Err(TryPopError::Disconnected));
    }

    #[test]
    fn drain_into_frees_a_waiting_producer() {
        let (tx, rx) = ring::<u32>(2);
        tx.push(1).expect("fits");
        tx.push(2).expect("fits");
        let h = crate::thread::spawn(move || {
            tx.push_wait(3).expect("consumer alive");
        });
        crate::thread::sleep(std::time::Duration::from_millis(10));
        let mut out = Vec::new();
        assert!(rx.drain_into(&mut out, 2) == 2);
        h.join().expect("producer thread");
        assert_eq!(rx.pop(), Some(3));
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_rejected() {
        let _ = ring::<u32>(0);
    }
}
