//! Propagation delays: the one description of a link's delay model,
//! sampled by the engine once per message.

use rcm_json::Json;
use rcm_net::Rng;

use crate::event::SimTime;
use crate::spec::bad_variant;

/// Propagation-delay specification, sampled once per message.
#[derive(Debug, Clone, PartialEq)]
pub enum DelaySpec {
    /// Fixed delay.
    Constant(u64),
    /// Uniform delay in `[min, max]` — the simplest model that lets
    /// messages overtake each other, producing the cross-replica
    /// interleaving differences at the heart of the paper's §5.
    Uniform(u64, u64),
    /// Base plus a geometric tail with the given mean (a discrete
    /// stand-in for exponential network delays).
    Exponential {
        /// Fixed component.
        base: u64,
        /// Mean of the random tail.
        mean: f64,
    },
}

impl DelaySpec {
    /// Samples one message's delay. `Constant` draws nothing; the
    /// others draw one `u64` from `rng`.
    pub fn sample(&self, rng: &mut Rng) -> SimTime {
        match *self {
            DelaySpec::Constant(ticks) => ticks,
            // `[0, u64::MAX]` has 2^64 values, every draw one of them.
            DelaySpec::Uniform(min, max) => match (max - min).checked_add(1) {
                Some(span) => min + rng.next_u64() % span,
                None => rng.next_u64(),
            },
            DelaySpec::Exponential { base, mean } => {
                let u = ((rng.next_u64() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
                base + tail(u, mean)
            }
        }
    }

    /// The longest delay [`sample`](Self::sample) can return, `None`
    /// past the last tick. An exponential tail is longest at the
    /// smallest unit draw, 2^-54.
    pub(crate) fn longest(&self) -> Option<SimTime> {
        match *self {
            DelaySpec::Constant(ticks) => Some(ticks),
            DelaySpec::Uniform(_, max) => Some(max),
            DelaySpec::Exponential { base, mean } => {
                base.checked_add(tail(0.5 / (1u64 << 53) as f64, mean))
            }
        }
    }

    /// Why [`sample`](Self::sample) cannot draw from the spec, if it
    /// cannot.
    pub(crate) fn check(&self) -> Result<(), &'static str> {
        let (holds, why) = match *self {
            DelaySpec::Constant(_) => (true, ""),
            DelaySpec::Uniform(min, max) => (min <= max, "delay bounds must satisfy min <= max"),
            DelaySpec::Exponential { mean, .. } => {
                (mean > 0.0 && mean.is_finite(), "mean delay must be positive")
            }
        };
        holds.then_some(()).ok_or(why)
    }

    /// Reads `{"Constant": t}`, `{"Uniform": [min, max]}` or
    /// `{"Exponential": {"base":…,"mean":…}}`.
    pub(crate) fn from_json(j: &Json) -> rcm_json::Result<Self> {
        Ok(match j.variant()? {
            ("Constant", Some(t)) => DelaySpec::Constant(t.u64()?),
            ("Uniform", Some(range)) => match range.arr()? {
                [lo, hi] => DelaySpec::Uniform(lo.u64()?, hi.u64()?),
                _ => return Err(bad_variant("Uniform")),
            },
            ("Exponential", Some(e)) => DelaySpec::Exponential {
                base: e.field("base")?.u64()?,
                mean: e.field("mean")?.f64()?,
            },
            (name, _) => return Err(bad_variant(name)),
        })
    }
}

/// The geometric tail of mean `mean` at unit draw `u`, saturating at
/// the last tick.
fn tail(u: f64, mean: f64) -> SimTime {
    (-u.ln() * mean).round() as SimTime
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> Rng {
        Rng::seed_from_u64(seed)
    }

    #[test]
    fn constant_is_constant() {
        let (mut r, mut untouched) = (rng(0), rng(0));
        assert!((0..100).all(|_| DelaySpec::Constant(7).sample(&mut r) == 7));
        assert_eq!(r.next_u64(), untouched.next_u64());
    }

    #[test]
    fn uniform_stays_in_bounds_and_covers_them() {
        let mut r = rng(1);
        let samples: Vec<u64> =
            (0..1000).map(|_| DelaySpec::Uniform(2, 5).sample(&mut r)).collect();
        assert!(samples.iter().all(|&t| (2..=5).contains(&t)));
        for want in 2..=5 {
            assert!(samples.contains(&want), "never sampled {want}");
        }
    }

    #[test]
    fn uniform_over_every_tick_draws_without_wrapping() {
        let (mut a, mut b) = (rng(5), rng(5));
        for _ in 0..100 {
            assert_eq!(DelaySpec::Uniform(0, u64::MAX).sample(&mut a), b.next_u64());
        }
        let mut r = rng(6);
        assert!((0..100)
            .all(|_| DelaySpec::Uniform(u64::MAX - 1, u64::MAX).sample(&mut r) >= u64::MAX - 1));
    }

    #[test]
    fn longest_bounds_every_sample() {
        let mut r = rng(7);
        for d in [
            DelaySpec::Constant(4),
            DelaySpec::Uniform(2, 9),
            DelaySpec::Exponential { base: 3, mean: 0.5 },
        ] {
            let longest = d.longest().unwrap();
            assert!((0..10_000).all(|_| d.sample(&mut r) <= longest), "{d:?}");
        }
        assert_eq!(DelaySpec::Exponential { base: 0, mean: 1.0 }.longest(), Some(37));
        assert_eq!(DelaySpec::Exponential { base: u64::MAX, mean: 1.0 }.longest(), None);
    }

    #[test]
    fn uniform_degenerate_range() {
        assert_eq!(DelaySpec::Uniform(3, 3).sample(&mut rng(2)), 3);
    }

    #[test]
    fn exponential_mean_is_roughly_right() {
        let mut r = rng(3);
        let n = 20_000;
        let d = DelaySpec::Exponential { base: 1, mean: 10.0 };
        let sum: u64 = (0..n).map(|_| d.sample(&mut r)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 11.0).abs() < 0.5, "mean = {mean}");
    }

    #[test]
    fn delay_samples_keep_their_arithmetic() {
        // One `u64` per draw: `min + u % span`, and the geometric tail
        // of the top 53 bits.
        let (mut a, mut b) = (rng(4), rng(4));
        let u = b.next_u64();
        assert_eq!(DelaySpec::Uniform(10, 19).sample(&mut a), 10 + u % 10);
        let u = b.next_u64();
        let unit = ((u >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        let want = 2 + (-unit.ln() * 3.5).round() as u64;
        assert_eq!(DelaySpec::Exponential { base: 2, mean: 3.5 }.sample(&mut a), want);
    }

    #[test]
    #[should_panic(expected = "min <= max")]
    fn uniform_rejects_inverted_bounds() {
        // The engine asserts what `Scenario::from_json` refuses.
        let json = r#"{"condition": "x[0].value > 0", "workloads": [
            {"var": "x", "updates": 3, "period": 1, "values": {"Scripted": [1.0]}}]}"#;
        let (mut sc, _) = crate::Scenario::from_json(&rcm_json::parse(json).unwrap()).unwrap();
        sc.back_delay = vec![DelaySpec::Uniform(5, 2)];
        crate::run(sc);
    }
}
