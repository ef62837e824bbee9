//! The evented CE ingress: the front-link contract ([`Ingress`]) on
//! the loop.
//!
//! The threaded receiver in `udp.rs` runs the same [`Ingress`]: the
//! same seqno gate, counters, Fin echo and Fin termination. Only the
//! socket loop differs: the blocking `recv_from` loop becomes "drain
//! until `WouldBlock` on each readable event", and the idle backstop
//! becomes a lazily-rescheduled wheel timer.

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

/// One CE UDP ingress on the loop.
pub(super) struct FrontSource {
    sock: UdpSocket,
    ingress: Ingress,
    deliver: Box<dyn FnMut(Update) + Send>,
    idle_timeout: Duration,
    last_activity: Instant,
    idle_timer: TimerKey,
}

impl FrontSource {
    pub(super) fn new(
        sock: UdpSocket,
        ingress: Ingress,
        idle_timeout: Duration,
        deliver: Box<dyn FnMut(Update) + Send>,
        idle_timer: TimerKey,
        now: Instant,
    ) -> Self {
        FrontSource { sock, ingress, deliver, idle_timeout, last_activity: now, idle_timer }
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
            if let Heard::Fin { last } = self.ingress.datagram(&core.buf[..len], &mut self.deliver)
            {
                // Best effort, like the Fin: the socket is nonblocking
                // and an error is ignored.
                let _ = self.sock.send_to(&core.buf[..len], from);
                if last {
                    self.retire(core);
                    return true;
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
