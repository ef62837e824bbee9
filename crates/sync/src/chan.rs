//! Unbounded MPSC channels: `std::sync::mpsc` endpoints plus a count of
//! the messages between them. `mpsc` has the semantics the runtime
//! needs (FIFO per sender, disconnect on the last sender's or the
//! receiver's drop) but no `len`, which a producer needs to see how far
//! its consumer has fallen behind.

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

pub use std::sync::mpsc::{RecvError, SendError, TryRecvError};

/// Creates a channel of unbounded capacity.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let (tx, rx) = mpsc::channel();
    let queued = Arc::new(AtomicUsize::new(0));
    (Sender { inner: tx, queued: Arc::clone(&queued) }, Receiver { inner: rx, queued })
}

/// The sending half; cloneable.
pub struct Sender<T> {
    inner: mpsc::Sender<T>,
    /// Messages sent and not yet received. It only informs `len`, so
    /// `Relaxed` will do: a message is counted before it is handed over
    /// and uncounted after it is taken, and the hand-over orders the two.
    queued: Arc<AtomicUsize>,
}

impl<T> Sender<T> {
    /// Sends a message (never blocks: the channel is unbounded). Fails
    /// with the message once the receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        self.queued.fetch_add(1, Ordering::Relaxed);
        self.inner.send(value).inspect_err(|_| {
            self.queued.fetch_sub(1, Ordering::Relaxed);
        })
    }

    /// Messages sent and not yet received.
    pub fn len(&self) -> usize {
        self.queued.load(Ordering::Relaxed)
    }

    /// Whether every message sent has been received.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        Sender { inner: self.inner.clone(), queued: Arc::clone(&self.queued) }
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
    queued: Arc<AtomicUsize>,
}

impl<T> Receiver<T> {
    fn taken<E>(&self, received: Result<T, E>) -> Result<T, E> {
        if received.is_ok() {
            self.queued.fetch_sub(1, Ordering::Relaxed);
        }
        received
    }

    /// Blocks for the next message; fails once the channel is empty and
    /// every sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
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
