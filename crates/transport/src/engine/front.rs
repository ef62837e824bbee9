//! The evented CE ingress: `UdpFrontReceiver`'s contract as a state
//! machine.
//!
//! Semantics are pinned to the threaded receiver in `udp.rs`: the
//! same seqno gate, the same per-datagram counters, the same Fin echo,
//! the same Fin and idle-backstop termination — only the blocking
//! `recv_from` loop becomes "drain until `WouldBlock` on each readable
//! event" and the idle backstop becomes a lazily-rescheduled wheel
//! timer.

// LOCK ORDER: no locks — front ingress state is owned by the loop thread.

use std::collections::HashSet;
use std::io;
use std::net::UdpSocket;
use std::os::fd::AsRawFd;

use rcm_core::Update;
use rcm_sync::atomic::Ordering;
use rcm_sync::time::{Duration, Instant};
use rcm_sync::Arc;

use super::counters::IngressCounters;
use super::event_loop::{timer_data, Core, KIND_IDLE};
use crate::gate::SeqGate;
use crate::wire::{self, Message};
use rcm_poll::TimerKey;

/// One CE UDP ingress on the loop.
pub(super) struct FrontSource {
    sock: UdpSocket,
    gate: SeqGate,
    deliver: Box<dyn FnMut(Update) + Send>,
    counters: Arc<IngressCounters>,
    fins_seen: HashSet<u32>,
    expected_fins: usize,
    idle_timeout: Duration,
    last_activity: Instant,
    idle_timer: TimerKey,
}

impl FrontSource {
    pub(super) fn new(
        sock: UdpSocket,
        expected_fins: usize,
        idle_timeout: Duration,
        deliver: Box<dyn FnMut(Update) + Send>,
        idle_timer: TimerKey,
        now: Instant,
    ) -> Self {
        FrontSource {
            sock,
            gate: SeqGate::new(),
            deliver,
            counters: Arc::new(IngressCounters::default()),
            fins_seen: HashSet::new(),
            expected_fins,
            idle_timeout,
            last_activity: now,
            idle_timer,
        }
    }

    pub(super) fn counters(&self) -> Arc<IngressCounters> {
        Arc::clone(&self.counters)
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
            self.counters.frames_received.fetch_add(1, Ordering::SeqCst);
            self.counters.bytes_received.fetch_add(len as u64, Ordering::SeqCst);
            match wire::decode_datagram(&core.buf[..len]) {
                Ok(Message::Update(update)) => self.admit(update),
                // A batch is delivered exactly as if its updates had
                // arrived as individual datagrams in batch order.
                Ok(Message::UpdateBatch(updates)) => {
                    for update in updates {
                        self.admit(update);
                    }
                }
                Ok(Message::Fin { node }) => {
                    // Echo every Fin, a repeat included, so its sender
                    // can stop repeating. Best effort, like the Fin: the
                    // socket is nonblocking and an error is ignored.
                    let _ = self.sock.send_to(&core.buf[..len], from);
                    if self.fins_seen.insert(node) {
                        self.counters.fins.fetch_add(1, Ordering::SeqCst);
                    }
                    if self.fins_seen.len() >= self.expected_fins {
                        self.retire(core);
                        return true;
                    }
                }
                // An alert or hello on a front link is protocol abuse;
                // count it with the undecodable garbage.
                Ok(_) | Err(_) => {
                    self.counters.decode_errors.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        if !progressed {
            core.counters.spurious_readiness.fetch_add(1, Ordering::SeqCst);
        }
        false
    }

    fn admit(&mut self, update: Update) {
        if self.gate.admit(&update) {
            self.counters.delivered.fetch_add(1, Ordering::SeqCst);
            (self.deliver)(update);
        } else {
            self.counters.dropped_stale.fetch_add(1, Ordering::SeqCst);
        }
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
