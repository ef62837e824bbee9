//! Packet-loss models for front links.

use std::collections::BTreeSet;
use std::fmt;

use crate::Rng;

/// Decides, per transmitted message, whether the link drops it.
///
/// Models are stateful (burst models track channel state; scripted
/// models count packets) and draw randomness only from the RNG passed
/// in, keeping executions replayable.
pub trait LossModel: fmt::Debug + Send {
    /// Samples whether the next message is dropped.
    fn drops(&mut self, rng: &mut Rng) -> bool;

    /// Restores the model's initial state.
    fn reset(&mut self);
}

/// Never drops anything (the paper's "lossless front links" scenario,
/// Theorem 1).
#[derive(Debug, Clone, Copy, Default)]
pub struct Lossless;

impl LossModel for Lossless {
    fn drops(&mut self, _rng: &mut Rng) -> bool {
        false
    }

    fn reset(&mut self) {}
}

/// Drops each message independently with probability `p`.
#[derive(Debug, Clone, Copy)]
pub struct Bernoulli {
    p: f64,
}

impl Bernoulli {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability must be in [0, 1]");
        Bernoulli { p }
    }
}

impl LossModel for Bernoulli {
    fn drops(&mut self, rng: &mut Rng) -> bool {
        rng.next_f64() < self.p
    }

    fn reset(&mut self) {}
}

/// Two-state Gilbert–Elliott burst-loss model: the channel alternates
/// between a *good* state (low loss) and a *bad* state (high loss),
/// producing the bursty losses typical of congested or wireless links —
/// the situation that makes two replicas miss *different* runs of
/// updates and exercises the paper's consistency machinery hardest.
#[derive(Debug, Clone, Copy)]
pub struct GilbertElliott {
    /// P(good → bad) per message.
    p_enter_bad: f64,
    /// P(bad → good) per message.
    p_leave_bad: f64,
    /// Drop probability in the good state.
    loss_good: f64,
    /// Drop probability in the bad state.
    loss_bad: f64,
    in_bad: bool,
}

impl GilbertElliott {
    /// Creates the model; all four parameters are probabilities.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is outside `[0, 1]`.
    pub fn new(p_enter_bad: f64, p_leave_bad: f64, loss_good: f64, loss_bad: f64) -> Self {
        for (name, v) in [
            ("p_enter_bad", p_enter_bad),
            ("p_leave_bad", p_leave_bad),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ] {
            assert!((0.0..=1.0).contains(&v), "{name} must be in [0, 1]");
        }
        GilbertElliott { p_enter_bad, p_leave_bad, loss_good, loss_bad, in_bad: false }
    }

    /// A typical bursty profile: mostly clean, occasional loss bursts
    /// averaging `burst_len` messages, with overall loss rate roughly
    /// `target` for small targets.
    pub fn bursty(target: f64, burst_len: f64) -> Self {
        assert!(burst_len >= 1.0, "burst length must be at least 1");
        let p_leave_bad = 1.0 / burst_len;
        let p_enter_bad = (target * p_leave_bad / (1.0 - target).max(1e-9)).min(1.0);
        GilbertElliott::new(p_enter_bad, p_leave_bad, 0.0, 1.0)
    }
}

impl LossModel for GilbertElliott {
    fn drops(&mut self, rng: &mut Rng) -> bool {
        // State transition first, then loss draw in the new state.
        if self.in_bad {
            if rng.next_f64() < self.p_leave_bad {
                self.in_bad = false;
            }
        } else if rng.next_f64() < self.p_enter_bad {
            self.in_bad = true;
        }
        let p = if self.in_bad { self.loss_bad } else { self.loss_good };
        rng.next_f64() < p
    }

    fn reset(&mut self) {
        self.in_bad = false;
    }
}

/// Drops exactly the messages at the given zero-based positions —
/// deterministic loss for reproducing the paper's worked examples
/// ("CE2 misses update 2").
#[derive(Debug, Clone, Default)]
pub struct Scripted {
    drop_at: BTreeSet<u64>,
    sent: u64,
}

impl Scripted {
    /// Creates a model dropping the messages at `positions` (0-based,
    /// counted per link).
    pub fn new(positions: impl IntoIterator<Item = u64>) -> Self {
        Scripted { drop_at: positions.into_iter().collect(), sent: 0 }
    }
}

impl LossModel for Scripted {
    fn drops(&mut self, _rng: &mut Rng) -> bool {
        let idx = self.sent;
        self.sent += 1;
        self.drop_at.contains(&idx)
    }

    fn reset(&mut self) {
        self.sent = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> Rng {
        Rng::seed_from_u64(seed)
    }

    #[test]
    fn lossless_never_drops() {
        let mut m = Lossless;
        let mut r = rng(1);
        assert!((0..1000).all(|_| !m.drops(&mut r)));
    }

    #[test]
    fn bernoulli_rate_is_approximately_p() {
        let mut m = Bernoulli::new(0.3);
        let mut r = rng(42);
        let drops = (0..20_000).filter(|_| m.drops(&mut r)).count();
        let rate = drops as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn bernoulli_extremes() {
        let mut r = rng(7);
        let mut all = Bernoulli::new(1.0);
        assert!((0..100).all(|_| all.drops(&mut r)));
        let mut none = Bernoulli::new(0.0);
        assert!((0..100).all(|_| !none.drops(&mut r)));
    }

    #[test]
    #[should_panic(expected = "must be in [0, 1]")]
    fn bernoulli_rejects_bad_probability() {
        Bernoulli::new(1.5);
    }

    #[test]
    fn gilbert_elliott_produces_bursts() {
        let mut m = GilbertElliott::new(0.02, 0.25, 0.0, 1.0);
        let mut r = rng(3);
        let outcomes: Vec<bool> = (0..50_000).map(|_| m.drops(&mut r)).collect();
        // Count runs of consecutive drops; burst model should produce
        // mean run length well above 1 (1 / p_leave_bad = 4-ish).
        let mut runs = Vec::new();
        let mut cur = 0usize;
        for &d in &outcomes {
            if d {
                cur += 1;
            } else if cur > 0 {
                runs.push(cur);
                cur = 0;
            }
        }
        if cur > 0 {
            runs.push(cur);
        }
        let mean = runs.iter().sum::<usize>() as f64 / runs.len() as f64;
        assert!(mean > 2.0, "mean burst length {mean}");
    }

    #[test]
    fn gilbert_elliott_bursty_hits_target_rate() {
        let mut m = GilbertElliott::bursty(0.1, 4.0);
        let mut r = rng(9);
        let drops = (0..100_000).filter(|_| m.drops(&mut r)).count();
        let rate = drops as f64 / 100_000.0;
        assert!((rate - 0.1).abs() < 0.03, "rate = {rate}");
    }

    #[test]
    fn scripted_drops_exact_positions() {
        let mut m = Scripted::new([1, 3]);
        let mut r = rng(0);
        let pattern: Vec<bool> = (0..5).map(|_| m.drops(&mut r)).collect();
        assert_eq!(pattern, vec![false, true, false, true, false]);
        m.reset();
        assert!(!m.drops(&mut r)); // counting restarts
    }

    #[test]
    fn reset_restores_burst_state() {
        let mut m = GilbertElliott::new(1.0, 0.0, 0.0, 1.0); // enters bad immediately, never leaves
        let mut r = rng(5);
        assert!(m.drops(&mut r));
        m.reset();
        // Deterministically re-enters bad, but the point is in_bad was cleared.
        assert!(m.drops(&mut r));
    }
}
