//! Bounded single-producer/single-consumer rings. No runtime code uses
//! them since the evaluation pipeline became fork-join over plain
//! channels; the benchmark's `sync.spsc.*` probes still time them.
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
//! Only the consumer blocks, on empty in [`Consumer::pop`]. It sets its
//! `consumer_sleeping` flag **while holding the state lock**, releases
//! the lock, and then blocks on its private wake channel. The producer
//! only sends a wake token on a flag transition `true → false` made
//! under the same lock. Consequently at most one token is ever in
//! flight, and every `recv` has a matching prior `send` caused by
//! exactly the state change the sleeper was waiting for — the consumer
//! can never strand. A loom model of the pipeline's ring handoff
//! checked this exhaustively while the pipeline used the ring; none
//! covers it now.
//!
//! ## Shedding
//!
//! [`Producer::push`] never blocks: a full ring returns the rejected
//! value to the caller, which decides what shedding it means.

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
}

struct State<T> {
    buf: VecDeque<T>,
    capacity: usize,
    /// Producer dropped: the consumer drains, then sees end-of-stream.
    closed: bool,
    /// Consumer dropped: pushes report disconnect.
    consumer_gone: bool,
    consumer_sleeping: bool,
}

impl<T> State<T> {
    /// Clears the consumer's sleep flag if set; the caller must send
    /// one wake token after dropping the lock iff this returns true.
    fn take_consumer_sleep(&mut self) -> bool {
        std::mem::take(&mut self.consumer_sleeping)
    }
}

/// Sending half of a bounded SPSC ring (not `Clone`: *single*
/// producer).
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
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
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            closed: false,
            consumer_gone: false,
            consumer_sleeping: false,
        }),
        consumer_wake,
    });
    (Producer { shared: Arc::clone(&shared) }, Consumer { shared, wake: consumer_wake_rx })
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
        let mut st = self.shared.state.lock();
        match st.buf.pop_front() {
            Some(v) => Ok(v),
            None if st.closed => Err(TryPopError::Disconnected),
            None => Err(TryPopError::Empty),
        }
    }

    /// Blocking dequeue: `None` means the producer hung up and the ring
    /// is drained (end of stream).
    pub fn pop(&self) -> Option<T> {
        loop {
            {
                let mut st = self.shared.state.lock();
                match st.buf.pop_front() {
                    Some(v) => return Some(v),
                    None if st.closed => return None,
                    None => st.consumer_sleeping = true,
                }
            }
            // Sleep until the producer pushes or closes; it saw our
            // flag under the lock and owes us exactly one token. A recv
            // error (producer dropped mid-protocol) just re-checks.
            if self.wake.recv().is_err() {
                self.shared.state.lock().consumer_sleeping = false;
            }
        }
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        let mut st = self.shared.state.lock();
        st.consumer_gone = true;
        st.buf.clear();
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
        assert_eq!(tx.push(3), Err(PushError::Full(3)));
        assert_eq!(rx.try_pop(), Ok(1));
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
            let mut value = i;
            while let Err(PushError::Full(back)) = tx.push(value) {
                value = back;
                crate::thread::yield_now();
            }
        }
        drop(tx);
        let got = h.join().expect("consumer thread");
        assert_eq!(got.len() as u64, N);
        assert!(got.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    #[should_panic(expected = "capacity >= 1")]
    fn zero_capacity_rejected() {
        let _ = ring::<u32>(0);
    }
}
