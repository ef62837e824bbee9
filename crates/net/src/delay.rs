//! Propagation-delay models.

use std::fmt;

use crate::{Rng, Tick};

/// Samples a per-message propagation delay in ticks.
pub trait DelayModel: fmt::Debug + Send {
    /// Samples the next message's delay.
    fn sample(&mut self, rng: &mut Rng) -> Tick;
}

/// Fixed delay for every message.
#[derive(Debug, Clone, Copy)]
pub struct ConstantDelay {
    ticks: Tick,
}

impl ConstantDelay {
    /// Creates the model.
    pub fn new(ticks: Tick) -> Self {
        ConstantDelay { ticks }
    }
}

impl DelayModel for ConstantDelay {
    fn sample(&mut self, _rng: &mut Rng) -> Tick {
        self.ticks
    }
}

/// Uniform delay in `[min, max]` — the simplest model that lets
/// messages overtake each other, producing the cross-replica
/// interleaving differences at the heart of the paper's §5.
#[derive(Debug, Clone, Copy)]
pub struct UniformDelay {
    min: Tick,
    max: Tick,
}

impl UniformDelay {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if `min > max`.
    pub fn new(min: Tick, max: Tick) -> Self {
        assert!(min <= max, "delay bounds must satisfy min <= max");
        UniformDelay { min, max }
    }
}

impl DelayModel for UniformDelay {
    fn sample(&mut self, rng: &mut Rng) -> Tick {
        let span = self.max - self.min + 1;
        self.min + rng.next_u64() % span
    }
}

/// Geometrically distributed delay with the given mean (a discrete
/// stand-in for exponential network delays).
#[derive(Debug, Clone, Copy)]
pub struct ExponentialDelay {
    mean: f64,
    base: Tick,
}

impl ExponentialDelay {
    /// Creates the model: `base` fixed ticks plus a geometric tail with
    /// the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    pub fn new(base: Tick, mean: f64) -> Self {
        assert!(mean > 0.0 && mean.is_finite(), "mean delay must be positive");
        ExponentialDelay { mean, base }
    }
}

impl DelayModel for ExponentialDelay {
    fn sample(&mut self, rng: &mut Rng) -> Tick {
        let u = ((rng.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        let tail = (-u.ln() * self.mean).round();
        self.base + tail as Tick
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> Rng {
        Rng::seed_from_u64(seed)
    }

    #[test]
    fn constant_is_constant() {
        let mut d = ConstantDelay::new(7);
        let mut r = rng(0);
        assert!((0..100).all(|_| d.sample(&mut r) == 7));
    }

    #[test]
    fn uniform_stays_in_bounds_and_covers_them() {
        let mut d = UniformDelay::new(2, 5);
        let mut r = rng(1);
        let samples: Vec<Tick> = (0..1000).map(|_| d.sample(&mut r)).collect();
        assert!(samples.iter().all(|&t| (2..=5).contains(&t)));
        for want in 2..=5 {
            assert!(samples.contains(&want), "never sampled {want}");
        }
    }

    #[test]
    fn uniform_degenerate_range() {
        let mut d = UniformDelay::new(3, 3);
        let mut r = rng(2);
        assert_eq!(d.sample(&mut r), 3);
    }

    #[test]
    #[should_panic(expected = "min <= max")]
    fn uniform_rejects_inverted_bounds() {
        UniformDelay::new(5, 2);
    }

    #[test]
    fn exponential_mean_is_roughly_right() {
        let mut d = ExponentialDelay::new(1, 10.0);
        let mut r = rng(3);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| d.sample(&mut r)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 11.0).abs() < 0.5, "mean = {mean}");
    }
}
