//! Model-checked unbounded channel with the API of the production
//! `chan` module (less `Sender::len`, which no model-checked code reads).

use std::any::Any;
use std::marker::PhantomData;
use std::sync::Arc;

use super::sched::{current, BlockKind, Exec, Object};

/// Error returned by [`Sender::send`] when the receiver is gone.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

// Like `std::sync::mpsc`: Debug without a `T: Debug` bound, so generic
// senders can `.expect()` a send without constraining their payload.
impl<T> std::fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SendError(..)")
    }
}

/// Error returned by [`Receiver::recv`] when every sender is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Channel currently empty.
    Empty,
    /// Every sender is gone and the queue is drained.
    Disconnected,
}

/// Creates an unbounded model channel.
pub fn unbounded<T: Send + 'static>() -> (Sender<T>, Receiver<T>) {
    let (exec, _) = current();
    let id = exec.register(Object::Channel {
        queue: std::collections::VecDeque::new(),
        senders: 1,
        receiver_alive: true,
    });
    (
        Sender { id, exec: Arc::clone(&exec), _marker: PhantomData },
        Receiver { id, exec, _marker: PhantomData },
    )
}

fn channel_mut(
    inner: &mut super::sched::Inner,
    id: usize,
) -> (&mut std::collections::VecDeque<Box<dyn Any + Send>>, &mut usize, &mut bool) {
    match &mut inner.objects[id] {
        Object::Channel { queue, senders, receiver_alive } => (queue, senders, receiver_alive),
        Object::Mutex { .. } => unreachable!("object id points at a mutex"),
    }
}

/// The sending half; cloneable.
pub struct Sender<T> {
    id: usize,
    exec: Arc<Exec>,
    _marker: PhantomData<fn(T)>,
}

impl<T: Send + 'static> Sender<T> {
    /// Sends a message (never blocks: the channel is unbounded).
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let (exec, me) = current();
        exec.switch_point(me, None);
        let mut slot = Some(value);
        let rejected = exec.with_inner(|inner| {
            let (queue, _, receiver_alive) = channel_mut(inner, self.id);
            if !*receiver_alive {
                return true;
            }
            queue.push_back(Box::new(slot.take().expect("value not yet consumed")));
            Exec::wake(inner, BlockKind::Recv(self.id));
            false
        });
        if rejected {
            Err(SendError(slot.take().expect("value retained on rejection")))
        } else {
            Ok(())
        }
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.exec.with_inner(|inner| {
            let (_, senders, _) = channel_mut(inner, self.id);
            *senders += 1;
        });
        Sender { id: self.id, exec: Arc::clone(&self.exec), _marker: PhantomData }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        self.exec.with_inner(|inner| {
            let (_, senders, _) = channel_mut(inner, self.id);
            *senders -= 1;
            if *senders == 0 {
                // Blocked receivers must observe the disconnect.
                Exec::wake(inner, BlockKind::Recv(self.id));
            }
        });
    }
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sender").field("id", &self.id).finish()
    }
}

/// The receiving half.
pub struct Receiver<T> {
    id: usize,
    exec: Arc<Exec>,
    _marker: PhantomData<fn() -> T>,
}

impl<T: Send + 'static> Receiver<T> {
    /// Receives the next message, blocking (in model time) until one
    /// arrives or every sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        let (exec, me) = current();
        exec.switch_point(me, None);
        loop {
            enum Step<T> {
                Got(T),
                Disconnected,
                Wait,
            }
            let step = exec.with_inner(|inner| {
                let (queue, senders, _) = channel_mut(inner, self.id);
                if let Some(boxed) = queue.pop_front() {
                    Step::Got(*boxed.downcast::<T>().expect("channel stores only T"))
                } else if *senders == 0 {
                    Step::Disconnected
                } else {
                    Step::Wait
                }
            });
            match step {
                Step::Got(v) => return Ok(v),
                Step::Disconnected => return Err(RecvError),
                Step::Wait => exec.switch_point(me, Some(BlockKind::Recv(self.id))),
            }
        }
    }

    /// Non-blocking receive.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let (exec, me) = current();
        exec.switch_point(me, None);
        exec.with_inner(|inner| {
            let (queue, senders, _) = channel_mut(inner, self.id);
            if let Some(boxed) = queue.pop_front() {
                Ok(*boxed.downcast::<T>().expect("channel stores only T"))
            } else if *senders == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        })
    }

    /// A blocking iterator ending at disconnect.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { rx: self }
    }

    /// A non-blocking iterator draining currently queued messages.
    pub fn try_iter(&self) -> TryIter<'_, T> {
        TryIter { rx: self }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.exec.with_inner(|inner| {
            let (queue, _, receiver_alive) = channel_mut(inner, self.id);
            *receiver_alive = false;
            queue.clear();
        });
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiver").field("id", &self.id).finish()
    }
}

/// Blocking iterator over received messages.
#[derive(Debug)]
pub struct Iter<'a, T> {
    rx: &'a Receiver<T>,
}

impl<T: Send + 'static> Iterator for Iter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.rx.recv().ok()
    }
}

/// Non-blocking iterator over queued messages.
#[derive(Debug)]
pub struct TryIter<'a, T> {
    rx: &'a Receiver<T>,
}

impl<T: Send + 'static> Iterator for TryIter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.rx.try_recv().ok()
    }
}

/// Owning blocking iterator (drops the receiver at the end).
#[derive(Debug)]
pub struct IntoIter<T> {
    rx: Receiver<T>,
}

impl<T: Send + 'static> Iterator for IntoIter<T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.rx.recv().ok()
    }
}

impl<T: Send + 'static> IntoIterator for Receiver<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;
    fn into_iter(self) -> IntoIter<T> {
        IntoIter { rx: self }
    }
}

impl<'a, T: Send + 'static> IntoIterator for &'a Receiver<T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;
    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}
