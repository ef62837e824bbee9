//! The CE ingress: the front-link contract ([`Ingress`]: the seqno
//! gate, the counters, the Fin echo and Fin termination) on the loop.
//!
//! The socket loop around it drains the socket until `WouldBlock` on
//! each readable event, echoing every Fin to its sender, and hands each
//! datagram's admitted updates to `deliver` as one round. The idle
//! backstop is a lazily-rescheduled wheel timer. A retired ingress is
//! dropped with its `deliver`, which is how its owner hears the end.
//!
//! What arrives while the loop is busy elsewhere (evaluating a round,
//! filtering alerts) waits in the socket's kernel receive buffer, and
//! what does not fit is dropped by the kernel, unseen by the ingress.
//! [`size_receive_buffer`] sizes that buffer for the links the ingress
//! hears.

// LOCK ORDER: no locks — front ingress state is owned by the loop thread.

use std::io;
use std::net::UdpSocket;
use std::os::fd::AsRawFd;

use rcm_core::Update;
use rcm_poll::TimerKey;
use rcm_sync::atomic::Ordering;
use rcm_sync::time::{Duration, Instant};

use super::event_loop::{timer_data, Core, KIND_IDLE};
use crate::receive::{Heard, Ingress};

/// Datagrams one front link may have queued at an ingress whose loop is
/// busy: a DM sends a datagram per round without waiting, and repeats
/// its Fin up to 16 times until the echo comes back.
const IN_FLIGHT: usize = 16;

/// What a receive buffer is charged for one small datagram, rounded
/// up: on Linux a default 212,992-byte buffer queues 256 of them.
const DATAGRAM_CHARGE: usize = 1024;

/// Sizes `sock`'s kernel receive buffer for an ingress that hears
/// `links` front links: room for 16 small datagrams (1 KiB each) from
/// each. It asks only for more than the socket already has, so a
/// buffer never shrinks and a one-link ingress keeps the kernel's
/// default; the kernel caps the request at its own limit
/// (`net.core.rmem_max` on Linux). Returns the size the socket holds
/// afterwards, in bytes.
/// [`EventLoop::add_front_ingress`](super::EventLoop::add_front_ingress)
/// sizes every ingress this way; calling this first, to learn the
/// size, changes nothing.
///
/// # Errors
///
/// Propagates the `getsockopt`/`setsockopt` failure.
pub fn size_receive_buffer(sock: &UdpSocket, links: usize) -> io::Result<usize> {
    let fd = sock.as_raw_fd();
    let want = links.saturating_mul(IN_FLIGHT * DATAGRAM_CHARGE);
    if want > rcm_poll::sys::receive_buffer(fd)? {
        rcm_poll::sys::set_receive_buffer(fd, want)?;
    }
    rcm_poll::sys::receive_buffer(fd)
}

/// The callback a CE ingress hands each datagram's round to.
pub(super) type Deliver<'d> = Box<dyn FnMut(&mut Vec<Update>) + Send + 'd>;

/// One CE UDP ingress on the loop.
pub(super) struct FrontSource<'d> {
    sock: UdpSocket,
    ingress: Ingress,
    /// The admitted updates of the datagram being handled.
    round: Vec<Update>,
    deliver: Deliver<'d>,
    idle_timeout: Duration,
    last_activity: Instant,
    idle_timer: TimerKey,
}

impl<'d> FrontSource<'d> {
    pub(super) fn new(
        sock: UdpSocket,
        ingress: Ingress,
        idle_timeout: Duration,
        deliver: Deliver<'d>,
        idle_timer: TimerKey,
        now: Instant,
    ) -> Self {
        let round = Vec::new();
        FrontSource { sock, ingress, round, deliver, idle_timeout, last_activity: now, idle_timer }
    }

    /// Drains the socket. Returns `true` when the ingress is done
    /// (every expected Fin seen, or a fatal socket error) — the source
    /// has already deregistered itself by then.
    pub(super) fn on_readable(&mut self, core: &mut Core) -> bool {
        let mut progressed = false;
        loop {
            let (len, from) = match self.sock.recv_from(&mut core.buf) {
                Ok(got) => got,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.retire(core);
                    return true;
                }
            };
            progressed = true;
            self.last_activity = Instant::now();
            match self.ingress.datagram(&core.buf[..len], &mut self.round) {
                Heard::Data if !self.round.is_empty() => {
                    (self.deliver)(&mut self.round);
                    self.round.clear();
                }
                Heard::Data => {}
                Heard::Fin { last } => {
                    // Best effort, like the Fin: the socket is
                    // nonblocking and an error is ignored.
                    let _ = self.sock.send_to(&core.buf[..len], from);
                    if last {
                        self.retire(core);
                        return true;
                    }
                }
            }
        }
        if !progressed {
            core.counters.spurious_readiness.fetch_add(1, Ordering::SeqCst);
        }
        false
    }

    /// Idle-backstop fire. Lazy rescheduling: activity never touches
    /// the wheel — the timer checks the real last-activity instant
    /// when it fires and re-arms for the remainder if traffic arrived.
    pub(super) fn on_idle(&mut self, core: &mut Core, id: usize) -> bool {
        let now = Instant::now();
        if now - self.last_activity >= self.idle_timeout {
            core.poller.deregister(self.sock.as_raw_fd());
            return true;
        }
        self.idle_timer = core
            .wheel
            .schedule_at(self.last_activity + self.idle_timeout, timer_data(id, KIND_IDLE));
        false
    }

    fn retire(&mut self, core: &mut Core) {
        core.poller.deregister(self.sock.as_raw_fd());
        core.wheel.cancel(self.idle_timer);
    }
}
