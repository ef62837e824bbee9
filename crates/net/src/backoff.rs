//! Reconnect backoff schedules for lossless back links.
//!
//! The paper's back links are "in-order and lossless", which a real
//! deployment obtains from a connection-oriented protocol — and
//! connections drop. A reconnecting sender must not hammer a recovering
//! Alert Displayer, so retry delays grow exponentially up to a cap,
//! with deterministic seeded jitter to de-synchronize replicas that
//! lost the same link at the same instant. Every schedule is a pure
//! function of `(base, cap, seed)`, so fault-injection runs replay
//! exactly.

use std::fmt;
use std::time::Duration;

/// splitmix64: the same tiny deterministic mixer the simulator uses for
/// scenario derivation. Good enough for jitter; not for cryptography.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Capped exponential backoff with deterministic seeded jitter.
///
/// Attempt `i` (zero-based) nominally waits `base << i`, saturating at
/// `cap`; the actual delay is jittered into `[nominal/2, nominal)` by a
/// seeded splitmix64 stream, so two schedules with the same parameters
/// and seed produce identical delay sequences.
///
/// ```rust
/// use rcm_net::Backoff;
/// use std::time::Duration;
/// let mut a = Backoff::new(Duration::from_millis(1), Duration::from_millis(8), 7);
/// let mut b = Backoff::new(Duration::from_millis(1), Duration::from_millis(8), 7);
/// let delays: Vec<_> = (0..6).map(|_| a.next_delay()).collect();
/// assert_eq!(delays, (0..6).map(|_| b.next_delay()).collect::<Vec<_>>());
/// assert!(delays.iter().all(|d| *d < Duration::from_millis(8)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Backoff {
    base: Duration,
    cap: Duration,
    seed: u64,
    attempt: u32,
}

impl Backoff {
    /// Creates a schedule; the first [`Backoff::next_delay`] is jittered
    /// from `base`.
    ///
    /// # Panics
    ///
    /// Panics if `base` is zero or `cap < base`: a zero base would spin
    /// and an inverted cap silently truncates the first delay.
    pub fn new(base: Duration, cap: Duration, seed: u64) -> Self {
        assert!(!base.is_zero(), "backoff base must be non-zero");
        assert!(cap >= base, "backoff cap must be at least the base");
        Backoff { base, cap, seed, attempt: 0 }
    }

    /// The delay before the next reconnect attempt; successive calls
    /// walk the exponential schedule.
    pub fn next_delay(&mut self) -> Duration {
        let nominal = self.nominal(self.attempt);
        // Jitter factor in [0.5, 1.0): a fresh splitmix64 draw per
        // attempt, seeded so the whole schedule replays.
        let bits = mix(self.seed ^ u64::from(self.attempt).wrapping_mul(0x9e37_79b9));
        let unit = (bits >> 11) as f64 / (1u64 << 53) as f64;
        self.attempt = self.attempt.saturating_add(1);
        nominal.mul_f64(0.5 + 0.5 * unit)
    }

    /// Attempts scheduled so far.
    pub fn attempts(&self) -> u32 {
        self.attempt
    }

    /// Restores the schedule to attempt zero (after a successful
    /// reconnect).
    pub fn reset(&mut self) {
        self.attempt = 0;
    }

    /// The nominal (un-jittered) delay of attempt `i`, for reporting.
    ///
    /// The exponent is capped *before* the shift: past the smallest
    /// exponent whose delay reaches `cap` every nominal is `cap` anyway,
    /// and an uncapped `1u32 << i` debug-panics at `i >= 32` — reachable
    /// by a link that stays severed through a long soak.
    pub fn nominal(&self, i: u32) -> Duration {
        self.base.saturating_mul(1u32 << i.min(self.cap_exponent())).min(self.cap)
    }

    /// Smallest exponent whose un-jittered delay already reaches `cap`,
    /// clamped to 31 (the largest shift that cannot overflow the `u32`
    /// multiplier). Attempts at or past this exponent all wait `cap`
    /// (or `base << 31`, whichever is smaller).
    fn cap_exponent(&self) -> u32 {
        // `cap >= base > 0` is a constructor invariant, so the ratio is
        // at least 1 and `ilog2` cannot panic.
        let ratio = self.cap.as_nanos() / self.base.as_nanos().max(1);
        let exact = ratio.is_power_of_two();
        (ratio.ilog2() + u32::from(!exact)).min(31)
    }
}

impl fmt::Display for Backoff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "backoff({:?}..{:?}, attempt {})", self.base, self.cap, self.attempt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = Backoff::new(ms(2), ms(50), 42);
        let mut b = Backoff::new(ms(2), ms(50), 42);
        for i in 0..10 {
            assert_eq!(a.next_delay(), b.next_delay(), "attempt {i}");
        }
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let mut a = Backoff::new(ms(2), ms(50), 1);
        let mut b = Backoff::new(ms(2), ms(50), 2);
        let da: Vec<_> = (0..8).map(|_| a.next_delay()).collect();
        let db: Vec<_> = (0..8).map(|_| b.next_delay()).collect();
        assert_ne!(da, db);
    }

    #[test]
    fn delays_stay_within_jittered_envelope() {
        let mut b = Backoff::new(ms(1), ms(16), 9);
        for i in 0..12 {
            let nominal = b.nominal(i);
            let d = b.next_delay();
            assert!(d >= nominal.mul_f64(0.5), "attempt {i}: {d:?} < half of {nominal:?}");
            assert!(d < nominal, "attempt {i}: {d:?} >= {nominal:?}");
        }
    }

    #[test]
    fn nominal_doubles_then_caps() {
        let b = Backoff::new(ms(1), ms(8), 0);
        assert_eq!(b.nominal(0), ms(1));
        assert_eq!(b.nominal(1), ms(2));
        assert_eq!(b.nominal(2), ms(4));
        assert_eq!(b.nominal(3), ms(8));
        assert_eq!(b.nominal(10), ms(8));
        assert_eq!(b.nominal(60), ms(8)); // exponent capped, no overflow
    }

    #[test]
    fn nominal_exponent_caps_before_the_shift() {
        // A huge cap/base ratio pushes the raw exponent far past 31;
        // the clamp must absorb the u32 shift boundary and beyond.
        let b = Backoff::new(Duration::from_nanos(1), Duration::from_secs(3600), 0);
        assert_eq!(b.nominal(31), Duration::from_nanos(1 << 31));
        for i in [32, 33, 63, u32::MAX] {
            assert_eq!(b.nominal(i), b.nominal(31), "attempt {i}");
        }
    }

    #[test]
    fn nominal_is_monotone_and_reaches_the_cap_exactly() {
        // ratio 40/3 rounds up to exponent 4: nominal(4) = 48ms, capped
        // to 40ms; everything past it holds there.
        let b = Backoff::new(ms(3), ms(40), 0);
        let mut prev = Duration::ZERO;
        for i in 0..64 {
            let n = b.nominal(i);
            assert!(n >= prev, "attempt {i}: {n:?} < {prev:?}");
            prev = n;
        }
        assert_eq!(b.nominal(3), ms(24));
        assert_eq!(b.nominal(4), ms(40));
        assert_eq!(b.nominal(63), ms(40));
    }

    #[test]
    fn exact_power_of_two_ratio_needs_no_extra_exponent() {
        // cap/base = 8 exactly: exponent 3 lands on the cap, and the
        // clamp keeps later attempts from shifting further.
        let b = Backoff::new(ms(1), ms(8), 0);
        assert_eq!(b.nominal(3), ms(8));
        assert_eq!(b.nominal(u32::MAX), ms(8));
    }

    #[test]
    fn high_attempt_counts_never_panic_next_delay() {
        let mut b = Backoff::new(Duration::from_nanos(1), Duration::from_secs(60), 77);
        for _ in 0..40 {
            let d = b.next_delay();
            assert!(d <= Duration::from_secs(60));
        }
        assert_eq!(b.attempts(), 40);
    }

    #[test]
    fn reset_replays_from_the_start() {
        let mut b = Backoff::new(ms(3), ms(40), 5);
        let first: Vec<_> = (0..4).map(|_| b.next_delay()).collect();
        assert_eq!(b.attempts(), 4);
        b.reset();
        let again: Vec<_> = (0..4).map(|_| b.next_delay()).collect();
        assert_eq!(first, again);
    }

    #[test]
    #[should_panic(expected = "base must be non-zero")]
    fn zero_base_rejected() {
        Backoff::new(Duration::ZERO, ms(1), 0);
    }

    #[test]
    #[should_panic(expected = "cap must be at least")]
    fn inverted_cap_rejected() {
        Backoff::new(ms(2), ms(1), 0);
    }
}
