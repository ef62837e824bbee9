//! The load generator's accounting, separated from threads and clocks
//! so it can be tested: an open loop on an absolute 1 ms tick schedule,
//! and the bounded acknowledgement window that it and the closed loop
//! send behind.

use std::ops::Range;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

const TICK_NS: u64 = 1_000_000;

/// Time as the open loop sees it.
pub trait Clock {
    /// Nanoseconds since the clock's epoch.
    fn now_ns(&self) -> u64;
    /// Sleeps (never spins) until `deadline_ns`; returns at once if it
    /// has passed.
    fn sleep_until(&self, deadline_ns: u64);
}

/// The process's monotonic clock.
#[derive(Debug, Clone, Copy)]
pub struct RealClock {
    pub epoch: Instant,
}

impl Clock for RealClock {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn sleep_until(&self, deadline_ns: u64) {
        let now = self.now_ns();
        if deadline_ns > now {
            std::thread::sleep(Duration::from_nanos(deadline_ns - now));
        }
    }
}

/// An open-loop schedule: reading `i` of the phase is due at the start
/// of tick `i * 1000 / rate`, ticks 1 ms apart from `t0_ns`. The
/// schedule is absolute: a late tick does not move the ticks after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Paced {
    pub t0_ns: u64,
    /// Readings per second.
    pub rate: u64,
}

impl Paced {
    pub fn due_ns(&self, i: u64) -> u64 {
        self.t0_ns + (i * 1000 / self.rate) * TICK_NS
    }

    /// Readings a phase of `seconds` offers.
    pub fn count(rate: u64, seconds: f64) -> u64 {
        (rate as f64 * seconds) as u64
    }

    /// Sends readings `range` on schedule, pushing each one's lateness
    /// (send time minus due time, ns) onto `lateness`. A reading is
    /// never sent before it is due, nor before `admit` returns (it
    /// blocks while the system is too far behind, and says whether it
    /// did); after a stall the backlog goes out as fast as `admit`
    /// allows, each reading still charged from its own due time.
    pub fn run(
        &self,
        clock: &impl Clock,
        range: Range<u64>,
        lateness: &mut Vec<u64>,
        mut admit: impl FnMut(u64) -> bool,
        mut send: impl FnMut(u64),
    ) {
        let mut now = clock.now_ns();
        for i in range {
            let due = self.due_ns(i);
            if now < due {
                clock.sleep_until(due);
                now = clock.now_ns();
            }
            if admit(i) {
                now = clock.now_ns();
            }
            lateness.push(now.saturating_sub(due));
            send(i);
        }
    }
}

/// Where the window learns how much of what was sent is complete.
pub trait Acks {
    /// Blocks until more than `above` readings are acknowledged or
    /// `timeout` passes; returns the acknowledged count either way.
    fn wait_above(&self, above: u64, timeout: Duration) -> u64;
}

/// What a loop observed about its own window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowStats {
    /// Waits that timed out with nothing new acknowledged: the
    /// outstanding readings are written off and sending resumes.
    pub stalls: u64,
    /// Most readings ever outstanding as the window counted them: it
    /// looks at the acknowledgements only when full, so an upper bound.
    pub max_outstanding: u64,
}

/// The bound on readings outstanding (sent but neither acknowledged nor
/// written off), in positions of the global stream. It is what keeps a
/// stalled system from being handed a backlog that overflows a socket
/// buffer or a worker ring once it runs again: a real data monitor holds
/// readings back the same way, and the wait is charged to the readings
/// that waited.
#[derive(Debug)]
pub struct Window<'a, A: Acks> {
    acks: &'a A,
    limit: u64,
    timeout: Duration,
    acked: u64,
    /// Readings below this are acknowledged or written off.
    settled: u64,
    pub stats: WindowStats,
}

impl<'a, A: Acks> Window<'a, A> {
    pub fn new(acks: &'a A, limit: u64, timeout: Duration) -> Self {
        Window { acks, limit, timeout, acked: 0, settled: 0, stats: WindowStats::default() }
    }

    fn wait(&mut self, sent: u64) {
        let now = self.acks.wait_above(self.acked, self.timeout);
        if now > self.acked {
            self.acked = now;
            self.settled = self.settled.max(now);
        } else {
            self.stats.stalls += 1;
            self.settled = sent;
        }
    }

    /// Blocks until reading `i` (every reading before it sent) fits in
    /// the window, then counts it as outstanding. Returns whether it
    /// had to wait.
    pub fn admit(&mut self, i: u64) -> bool {
        let waited = i - self.settled >= self.limit;
        while i - self.settled >= self.limit {
            self.wait(i);
        }
        self.stats.max_outstanding = self.stats.max_outstanding.max(i + 1 - self.settled);
        waited
    }

    /// Blocks until every reading below `sent` is acknowledged or
    /// written off.
    pub fn drain(&mut self, sent: u64) {
        while self.settled < sent {
            self.wait(sent);
        }
    }
}

/// The acknowledgement count shared between the AD's `on_alert`
/// callback (which raises it) and the generator (which waits on it).
#[derive(Debug, Default)]
pub struct AckBoard {
    /// Readings acknowledged so far.
    state: Mutex<u64>,
    raised: Condvar,
}

impl AckBoard {
    /// Acknowledges every reading below `upto`.
    pub fn raise(&self, upto: u64) {
        let mut state = self.state.lock().expect("ack board lock");
        if upto > *state {
            *state = upto;
            self.raised.notify_one();
        }
    }
}

impl Acks for AckBoard {
    fn wait_above(&self, above: u64, timeout: Duration) -> u64 {
        let state = self.state.lock().expect("ack board lock");
        let (state, _) = self
            .raised
            .wait_timeout_while(state, timeout, |s| *s <= above)
            .expect("ack board lock");
        *state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{PERIOD, WINDOW};
    use std::cell::Cell;

    /// A clock that only moves when slept on or pushed.
    struct FakeClock {
        now: Cell<u64>,
    }

    impl Clock for FakeClock {
        fn now_ns(&self) -> u64 {
            self.now.get()
        }
        fn sleep_until(&self, deadline_ns: u64) {
            self.now.set(self.now.get().max(deadline_ns));
        }
    }

    #[test]
    fn schedule_spreads_the_rate_over_millisecond_ticks() {
        let p = Paced { t0_ns: 5_000, rate: 2_500 };
        // 2.5 readings per tick: ticks hold 3, 2, 3, 2 readings.
        let ticks: Vec<u64> = (0..10).map(|i| (p.due_ns(i) - 5_000) / TICK_NS).collect();
        assert_eq!(ticks, [0, 0, 0, 1, 1, 2, 2, 2, 3, 3]);
        assert_eq!(Paced::count(2_500, 2.0), 5_000);
    }

    #[test]
    fn open_loop_never_sends_early_and_is_on_time_when_unhindered() {
        let clock = FakeClock { now: Cell::new(0) };
        let p = Paced { t0_ns: 1_000_000, rate: 1_000 };
        let mut late = Vec::new();
        let mut sent_at = Vec::new();
        p.run(&clock, 0..50, &mut late, |_| false, |_| sent_at.push(clock.now_ns()));
        assert!(late.iter().all(|&l| l == 0));
        assert!(sent_at.iter().enumerate().all(|(i, &t)| t == p.due_ns(i as u64)));
    }

    #[test]
    fn a_stall_is_charged_from_the_due_time_not_the_send_time() {
        let clock = FakeClock { now: Cell::new(0) };
        let p = Paced { t0_ns: 0, rate: 1_000 };
        let mut late = Vec::new();
        // The consumer blocks the 10th send for 50 ms.
        p.run(
            &clock,
            0..100,
            &mut late,
            |_| false,
            |i| {
                if i == 10 {
                    clock.now.set(clock.now.get() + 50 * TICK_NS);
                }
            },
        );
        assert_eq!(late.len(), 100);
        assert!(late[..=10].iter().all(|&l| l == 0));
        // Reading 11 was due 1 ms after reading 10 and went out 49 ms late;
        // the backlog drains without the schedule moving.
        assert_eq!(late[11], 49 * TICK_NS);
        assert_eq!(late[59], TICK_NS);
        assert!(late[60..].iter().all(|&l| l == 0));
        assert_eq!(p.due_ns(60), 60 * TICK_NS);
    }

    /// A system that acknowledges up to the newest heartbeat among the
    /// readings sent, except between `from_ns` and `until_ns`, when it
    /// does not run: a wait that begins then ends at `until_ns`.
    struct StalledSystem<'a> {
        clock: &'a FakeClock,
        sent: &'a Cell<u64>,
        from_ns: u64,
        until_ns: u64,
    }

    impl Acks for StalledSystem<'_> {
        fn wait_above(&self, _above: u64, _timeout: Duration) -> u64 {
            if (self.from_ns..self.until_ns).contains(&self.clock.now_ns()) {
                self.clock.now.set(self.until_ns);
            }
            self.sent.get() / PERIOD * PERIOD
        }
    }

    #[test]
    fn open_loop_holds_a_stalled_system_backlog_to_the_window() {
        let clock = FakeClock { now: Cell::new(0) };
        let sent = Cell::new(0);
        // The system stops acknowledging from 100 ms to 400 ms.
        let system = StalledSystem {
            clock: &clock,
            sent: &sent,
            from_ns: 100 * TICK_NS,
            until_ns: 400 * TICK_NS,
        };
        let mut window = Window::new(&system, WINDOW, Duration::from_secs(5));
        let p = Paced { t0_ns: 0, rate: 4_000 };
        let mut late = Vec::new();
        // Readings handed to the system while it was not running (the
        // 400 due before the stall were acknowledged).
        let mut backlog = 0;
        let send = |i: u64| {
            sent.set(i + 1);
            if (system.from_ns..system.until_ns).contains(&clock.now_ns()) {
                backlog = (i + 1).saturating_sub(400);
            }
        };
        p.run(&clock, 0..4_000, &mut late, |i| window.admit(i), send);
        assert_eq!(sent.get(), 4_000);
        assert_eq!(window.stats.stalls, 0);
        assert!(window.stats.max_outstanding <= WINDOW);
        // During the stall at most the window's worth went out, not the
        // 1 200 readings that came due.
        assert!((1..=WINDOW).contains(&backlog), "backlog {backlog}");
        // The first reading held back was due soon after the stall began
        // and is charged the rest of it; the schedule then catches up.
        let worst = *late.iter().max().unwrap();
        assert!((250 * TICK_NS..=300 * TICK_NS).contains(&worst), "worst lateness {worst}");
        assert!(late[3_000..].iter().all(|&l| l == 0));
    }

    /// Acknowledges up to the newest heartbeat among the readings sent,
    /// unless told to lose every acknowledgement past a point.
    struct ScriptedAcks<'a> {
        sent: &'a Cell<u64>,
        lose_from: u64,
    }

    impl Acks for ScriptedAcks<'_> {
        fn wait_above(&self, _above: u64, _timeout: Duration) -> u64 {
            (self.sent.get() / PERIOD * PERIOD).min(self.lose_from)
        }
    }

    #[test]
    fn closed_loop_window_is_never_exceeded() {
        let sent = Cell::new(0);
        let acks = ScriptedAcks { sent: &sent, lose_from: u64::MAX };
        let mut window = Window::new(&acks, WINDOW, Duration::ZERO);
        let count = 40 * PERIOD;
        for i in 0..count {
            window.admit(i);
            sent.set(i + 1);
        }
        window.drain(count);
        assert_eq!(window.stats.stalls, 0);
        assert!(window.stats.max_outstanding <= WINDOW);
        // The window did fill: sending waited on acknowledgements.
        assert_eq!(window.stats.max_outstanding, WINDOW);
    }

    #[test]
    fn a_lost_ack_times_out_into_a_window_stall_and_the_loop_finishes() {
        let sent = Cell::new(0);
        let lose_from = 10 * PERIOD;
        let acks = ScriptedAcks { sent: &sent, lose_from };
        let mut window = Window::new(&acks, WINDOW, Duration::ZERO);
        let count = 40 * PERIOD;
        for i in 0..count {
            window.admit(i);
            sent.set(i + 1);
        }
        window.drain(count);
        // One stall per window written off, plus the final wait.
        let written_off = (count - lose_from).div_ceil(WINDOW);
        assert_eq!(window.stats.stalls, written_off);
        assert!(window.stats.max_outstanding <= WINDOW);
    }

    #[test]
    fn ack_board_wakes_a_waiter_and_times_out_without_one() {
        let board = AckBoard::default();
        assert_eq!(board.wait_above(0, Duration::from_millis(1)), 0);
        std::thread::scope(|s| {
            s.spawn(|| board.raise(34));
            assert_eq!(board.wait_above(0, Duration::from_secs(10)), 34);
        });
        // Acknowledgements are cumulative: an older one changes nothing.
        board.raise(17);
        assert_eq!(board.wait_above(0, Duration::ZERO), 34);
    }
}
