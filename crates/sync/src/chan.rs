//! Unbounded MPSC channels: `std::sync::mpsc` endpoints plus a count of
//! the messages between them and of the senders still alive. `mpsc` has
//! the semantics the runtime needs (FIFO per sender, disconnect on the
//! last sender's or the receiver's drop) but no `len`, which a producer
//! needs to see how far its consumer has fallen behind, and no way to
//! wait on several channels at once, which [`wait_any`] adds.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::{self, Thread};
use std::time::Instant;

pub use std::sync::mpsc::{RecvError, SendError, TryRecvError};

/// What both halves of one channel share.
struct Shared {
    /// Messages pushed minus messages taken, each counted just after
    /// the fact. It dips below zero while a send has yet to count a
    /// message the receiver already took; the receiver counts its own
    /// takes before it looks again, so to it a positive count always
    /// means a message is there to take.
    queued: AtomicIsize,
    /// Senders alive; zero once the last one has hung up.
    senders: AtomicUsize,
    /// Whether `waiter` is parked (or about to park) in [`wait_any`].
    waiting: AtomicBool,
    /// The thread that waits on this channel in [`wait_any`].
    waiter: Mutex<Option<Thread>>,
}

impl Shared {
    /// Unparks the waiter, if one is waiting. Called after every change
    /// that makes the channel ready; `SeqCst` pairs with the waiter's
    /// store of `waiting` and load of the counts, so either the waiter
    /// sees the change or this sees the waiter.
    fn notify(&self) {
        if self.waiting.load(Ordering::SeqCst) {
            let waiter = self.waiter.lock().unwrap_or_else(PoisonError::into_inner);
            if let Some(thread) = waiter.as_ref() {
                thread.unpark();
            }
        }
    }

    /// A message is waiting, or no sender is left to send one.
    fn ready(&self) -> bool {
        self.queued.load(Ordering::SeqCst) > 0 || self.senders.load(Ordering::SeqCst) == 0
    }
}

/// Creates a channel of unbounded capacity.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::channel();
    let shared = Arc::new(Shared {
        queued: AtomicIsize::new(0),
        senders: AtomicUsize::new(1),
        waiting: AtomicBool::new(false),
        waiter: Mutex::new(None),
    });
    (Sender { inner: Some(tx), shared: Arc::clone(&shared) }, Receiver { inner: rx, shared })
}

/// Blocks until one of `receivers` has a message waiting or has lost
/// its last sender, or until `deadline` passes; returns at once if one
/// already has. A send, or the last sender's hang-up, on any of them
/// unparks the caller. The call takes nothing: the caller receives
/// with [`Receiver::try_recv`] afterwards. A return is a hint, not a
/// promise — another thread's stray unpark can end the wait early.
pub fn wait_any<T>(receivers: &[&Receiver<T>], deadline: Option<Instant>) {
    let me = thread::current();
    for rx in receivers {
        *rx.shared.waiter.lock().unwrap_or_else(PoisonError::into_inner) = Some(me.clone());
        rx.shared.waiting.store(true, Ordering::SeqCst);
    }
    while !receivers.iter().any(|rx| rx.shared.ready()) {
        match deadline {
            None => thread::park(),
            Some(at) => match at.checked_duration_since(Instant::now()) {
                Some(left) if !left.is_zero() => thread::park_timeout(left),
                _ => break,
            },
        }
    }
    for rx in receivers {
        rx.shared.waiting.store(false, Ordering::SeqCst);
    }
}

/// The sending half; cloneable.
pub struct Sender<T> {
    /// `None` only inside `drop`, which hangs up before it counts the
    /// sender gone, so a receiver that sees no senders left also sees
    /// the disconnect.
    inner: Option<mpsc::Sender<T>>,
    shared: Arc<Shared>,
}

impl<T> Sender<T> {
    /// Sends a message (never blocks: the channel is unbounded). Fails
    /// with the message once the receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        match &self.inner {
            Some(tx) => tx.send(value)?,
            None => return Err(SendError(value)),
        }
        self.shared.queued.fetch_add(1, Ordering::SeqCst);
        self.shared.notify();
        Ok(())
    }

    /// Messages sent and not yet received.
    pub fn len(&self) -> usize {
        usize::try_from(self.shared.queued.load(Ordering::Relaxed)).unwrap_or(0)
    }

    /// Whether every message sent has been received.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.senders.fetch_add(1, Ordering::SeqCst);
        Sender { inner: self.inner.clone(), shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        drop(self.inner.take());
        if self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.shared.notify();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Sender { .. }")
    }
}

/// The receiving half.
pub struct Receiver<T> {
    inner: mpsc::Receiver<T>,
    shared: Arc<Shared>,
}

impl<T> Receiver<T> {
    fn taken<E>(&self, received: Result<T, E>) -> Result<T, E> {
        if received.is_ok() {
            self.shared.queued.fetch_sub(1, Ordering::SeqCst);
        }
        received
    }

    /// Blocks for the next message; fails once the channel is empty and
    /// every sender is gone.
    ///
    /// A receiver that finds the channel empty yields its CPU once
    /// before it blocks. When its producer shares that CPU and sends a
    /// burst (a CE sending a round's alerts, a DM loop handing out a
    /// round), a consumer that blocked at once would be woken by the
    /// first message, preempt the producer, take that one message and
    /// block again — two context switches per message. After the yield
    /// the burst is usually complete and is taken in one wake.
    pub fn recv(&self) -> Result<T, RecvError> {
        match self.try_recv() {
            Err(TryRecvError::Empty) => thread::yield_now(),
            received => return received.map_err(|_| RecvError),
        }
        self.taken(self.inner.recv())
    }

    /// Takes the next message if one is waiting.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        self.taken(self.inner.try_recv())
    }

    /// Blocks for each message until every sender is gone.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { rx: self }
    }

    /// Yields the messages already in the channel, never blocking.
    pub fn try_iter(&self) -> TryIter<'_, T> {
        TryIter { rx: self }
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Receiver { .. }")
    }
}

/// Blocking iterator over a borrowed [`Receiver`].
#[derive(Debug)]
pub struct Iter<'a, T> {
    rx: &'a Receiver<T>,
}

impl<T> Iterator for Iter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.rx.recv().ok()
    }
}

/// Non-blocking iterator over a borrowed [`Receiver`].
#[derive(Debug)]
pub struct TryIter<'a, T> {
    rx: &'a Receiver<T>,
}

impl<T> Iterator for TryIter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.rx.try_recv().ok()
    }
}

/// Blocking iterator that owns its [`Receiver`].
#[derive(Debug)]
pub struct IntoIter<T> {
    rx: Receiver<T>,
}

impl<T> Iterator for IntoIter<T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.rx.recv().ok()
    }
}

impl<T> IntoIterator for Receiver<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;
    fn into_iter(self) -> IntoIter<T> {
        IntoIter { rx: self }
    }
}

impl<'a, T> IntoIterator for &'a Receiver<T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;
    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread;

    #[test]
    fn fifo_per_sender_and_disconnect_on_last_sender_drop() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        drop(tx);
        assert_eq!(rx.try_recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        drop(tx2);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(rx.recv(), Err(RecvError));
    }

    #[test]
    fn queued_messages_survive_sender_drop_and_iter_ends_at_disconnect() {
        let (tx, rx) = unbounded();
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.try_iter().take(2).collect::<Vec<_>>(), [0, 1]);
        drop(tx);
        assert_eq!(rx.iter().collect::<Vec<_>>(), [2, 3, 4]);
        assert_eq!(rx.into_iter().count(), 0);
    }

    #[test]
    fn send_fails_with_the_value_once_the_receiver_is_gone() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
    }

    #[test]
    fn recv_blocks_until_another_thread_sends() {
        let (tx, rx) = unbounded();
        let gate = Arc::new(Barrier::new(2));
        let sender = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || {
                gate.wait();
                tx.send(7u32).unwrap();
            })
        };
        // Nothing can have been sent before the barrier opens.
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        gate.wait();
        assert_eq!(rx.recv(), Ok(7));
        sender.join().unwrap();
    }

    #[test]
    fn len_counts_what_is_sent_and_not_yet_received() {
        let (tx, rx) = unbounded();
        assert!(tx.is_empty());
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        tx.send(3).unwrap();
        assert_eq!((tx.len(), tx2.len()), (3, 3));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(tx.len(), 1);
        assert_eq!(rx.recv(), Ok(3));
        assert_eq!(tx.len(), 0);
        // The iterators uncount too; a refused send is not counted.
        (4..8).for_each(|i| tx.send(i).unwrap());
        assert_eq!(rx.try_iter().take(2).count(), 2);
        assert_eq!(tx.len(), 2);
        drop(tx2);
        let (tx3, len_after) = (tx.clone(), tx.len());
        drop(tx);
        assert_eq!((&rx).into_iter().take(2).count(), len_after);
        assert_eq!(tx3.len(), 0);
        drop(rx);
        assert_eq!(tx3.send(9), Err(SendError(9)));
        assert_eq!(tx3.len(), 0);
    }

    #[test]
    fn wait_any_returns_at_once_for_a_waiting_message_or_a_hangup() {
        let (tx, rx) = unbounded::<u8>();
        let (idle_tx, idle) = unbounded::<u8>();
        tx.send(1).unwrap();
        wait_any(&[&idle, &rx], None);
        assert_eq!(rx.try_recv(), Ok(1));
        drop(tx);
        wait_any(&[&idle, &rx], None);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        drop(idle_tx);
    }

    #[test]
    fn wait_any_wakes_on_a_send_or_the_last_hangup_elsewhere() {
        let (a_tx, a) = unbounded::<u8>();
        let (b_tx, b) = unbounded::<u8>();
        let sender = thread::spawn(move || {
            thread::sleep(std::time::Duration::from_millis(20));
            b_tx.send(2).unwrap();
            let a_tx2 = a_tx.clone();
            thread::sleep(std::time::Duration::from_millis(20));
            drop(a_tx);
            drop(a_tx2);
        });
        wait_any(&[&a, &b], None);
        assert_eq!(b.try_recv(), Ok(2));
        wait_any(&[&a], None);
        assert_eq!(a.try_recv(), Err(TryRecvError::Disconnected));
        sender.join().unwrap();
    }

    #[test]
    fn wait_any_ends_at_its_deadline() {
        let (_tx, rx) = unbounded::<u8>();
        let begun = Instant::now();
        let deadline = begun + std::time::Duration::from_millis(15);
        wait_any(&[&rx], Some(deadline));
        assert!(Instant::now() >= deadline);
        wait_any(&[&rx], Some(begun));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn many_senders_lose_nothing() {
        let (tx, rx) = unbounded();
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let tx = tx.clone();
                thread::spawn(move || (0..1000).for_each(|i| tx.send(t * 1000 + i).unwrap()))
            })
            .collect();
        drop(tx);
        let mut got: Vec<u64> = rx.iter().collect();
        handles.into_iter().for_each(|h| h.join().unwrap());
        got.sort_unstable();
        assert_eq!(got, (0..4000).collect::<Vec<_>>());
    }
}
