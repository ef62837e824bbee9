//! Synthetic value generators driving the Data Monitors.
//!
//! The paper's experiments are framed around reactor temperatures,
//! stock quotes and battlefield sensors. We have no physical sensors,
//! so Data Monitors are driven by seeded synthetic processes that
//! exercise the same code paths: the paper's results depend only on
//! sequence numbers, loss and interleavings, never on sensor physics
//! (see DESIGN.md's substitution notes).

use std::fmt;

use rcm_net::Rng;

/// Generates the value snapshot for each successive update of one
/// variable.
pub trait ValueModel: fmt::Debug + Send {
    /// Produces the next reading.
    fn next(&mut self, rng: &mut Rng) -> f64;
}

fn uniform(rng: &mut Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// A bounded random walk: each reading moves by a uniform step in
/// `[-step, step]`, clamped to `[lo, hi]`.
///
/// Tuned so delta conditions (`c2`/`c3`) trigger on a healthy fraction
/// of updates: a walk with `step = 2δ` crosses a `δ` rise roughly a
/// quarter of the time.
#[derive(Debug, Clone, Copy)]
pub struct RandomWalk {
    value: f64,
    step: f64,
    lo: f64,
    hi: f64,
}

impl RandomWalk {
    /// Creates a walk starting at `start`, stepping ±`step`, clamped to
    /// `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `step` is not finite and positive.
    pub fn new(start: f64, step: f64, lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "bounds must satisfy lo <= hi");
        assert!(step > 0.0 && step.is_finite(), "step must be positive");
        RandomWalk { value: start.clamp(lo, hi), step, lo, hi }
    }
}

impl ValueModel for RandomWalk {
    fn next(&mut self, rng: &mut Rng) -> f64 {
        let delta = (uniform(rng) * 2.0 - 1.0) * self.step;
        self.value = (self.value + delta).clamp(self.lo, self.hi);
        self.value
    }
}

/// A baseline with occasional spikes: readings sit at `base` (plus
/// small noise) and jump to `base + magnitude` with probability
/// `spike_p` — a missile-launch / overheat pattern for threshold
/// conditions.
#[derive(Debug, Clone, Copy)]
pub struct Spikes {
    base: f64,
    noise: f64,
    magnitude: f64,
    spike_p: f64,
}

impl Spikes {
    /// Creates the process.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= spike_p <= 1`.
    pub fn new(base: f64, noise: f64, magnitude: f64, spike_p: f64) -> Self {
        assert!((0.0..=1.0).contains(&spike_p), "spike probability must be in [0, 1]");
        Spikes { base, noise, magnitude, spike_p }
    }
}

impl ValueModel for Spikes {
    fn next(&mut self, rng: &mut Rng) -> f64 {
        let jitter = (uniform(rng) * 2.0 - 1.0) * self.noise;
        if uniform(rng) < self.spike_p {
            self.base + self.magnitude + jitter
        } else {
            self.base + jitter
        }
    }
}

/// A deterministic sine wave with additive noise — smooth periodic data
/// for level-crossing conditions.
#[derive(Debug, Clone, Copy)]
pub struct SineNoise {
    mean: f64,
    amplitude: f64,
    period: f64,
    noise: f64,
    t: f64,
}

impl SineNoise {
    /// Creates the process.
    ///
    /// # Panics
    ///
    /// Panics if `period` is not positive.
    pub fn new(mean: f64, amplitude: f64, period: f64, noise: f64) -> Self {
        assert!(period > 0.0, "period must be positive");
        SineNoise { mean, amplitude, period, noise, t: 0.0 }
    }
}

impl ValueModel for SineNoise {
    fn next(&mut self, rng: &mut Rng) -> f64 {
        let phase = self.t * std::f64::consts::TAU / self.period;
        self.t += 1.0;
        let jitter = (uniform(rng) * 2.0 - 1.0) * self.noise;
        self.mean + self.amplitude * phase.sin() + jitter
    }
}

/// Replays a fixed list of readings (cycling if exhausted) — used to
/// reproduce the paper's worked examples exactly.
#[derive(Debug, Clone)]
pub struct Scripted {
    values: Vec<f64>,
    i: usize,
}

impl Scripted {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics on an empty script.
    pub fn new(values: impl Into<Vec<f64>>) -> Self {
        let values = values.into();
        assert!(!values.is_empty(), "scripted values must not be empty");
        Scripted { values, i: 0 }
    }
}

impl ValueModel for Scripted {
    fn next(&mut self, _rng: &mut Rng) -> f64 {
        let v = self.values[self.i % self.values.len()];
        self.i += 1;
        v
    }
}

/// Serializable value-model specification; [`ValueSpec::build`] turns
/// it into a live model. Used where a workload must be rebuilt several
/// times from the same description — e.g. the per-condition runs of a
/// multi-condition system, which must observe identical DM values.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ValueSpec {
    /// [`RandomWalk`] parameters `(start, step, lo, hi)`.
    RandomWalk {
        /// Starting value.
        start: f64,
        /// Max step magnitude.
        step: f64,
        /// Lower clamp.
        lo: f64,
        /// Upper clamp.
        hi: f64,
    },
    /// [`Spikes`] parameters.
    Spikes {
        /// Baseline value.
        base: f64,
        /// Noise magnitude.
        noise: f64,
        /// Spike height.
        magnitude: f64,
        /// Spike probability per reading.
        spike_p: f64,
    },
    /// [`SineNoise`] parameters.
    Sine {
        /// Mean level.
        mean: f64,
        /// Wave amplitude.
        amplitude: f64,
        /// Wave period in readings.
        period: f64,
        /// Noise magnitude.
        noise: f64,
    },
    /// [`Scripted`] readings.
    Scripted(Vec<f64>),
}

impl ValueSpec {
    /// Instantiates the model.
    pub fn build(&self) -> Box<dyn ValueModel> {
        match self {
            ValueSpec::RandomWalk { start, step, lo, hi } => {
                Box::new(RandomWalk::new(*start, *step, *lo, *hi))
            }
            ValueSpec::Spikes { base, noise, magnitude, spike_p } => {
                Box::new(Spikes::new(*base, *noise, *magnitude, *spike_p))
            }
            ValueSpec::Sine { mean, amplitude, period, noise } => {
                Box::new(SineNoise::new(*mean, *amplitude, *period, *noise))
            }
            ValueSpec::Scripted(values) => Box::new(Scripted::new(values.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng(seed: u64) -> Rng {
        Rng::seed_from_u64(seed)
    }

    #[test]
    fn walk_stays_in_bounds() {
        let mut w = RandomWalk::new(50.0, 30.0, 0.0, 100.0);
        let mut r = rng(1);
        for _ in 0..10_000 {
            let v = w.next(&mut r);
            assert!((0.0..=100.0).contains(&v));
        }
    }

    #[test]
    fn walk_moves() {
        let mut w = RandomWalk::new(50.0, 5.0, 0.0, 100.0);
        let mut r = rng(2);
        let a = w.next(&mut r);
        let b = w.next(&mut r);
        assert_ne!(a, b);
    }

    #[test]
    fn spikes_hit_roughly_at_rate() {
        let mut s = Spikes::new(100.0, 1.0, 1000.0, 0.1);
        let mut r = rng(3);
        let n = 20_000;
        let hits = (0..n).filter(|_| s.next(&mut r) > 500.0).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn sine_oscillates_around_mean() {
        let mut s = SineNoise::new(100.0, 10.0, 20.0, 0.0);
        let mut r = rng(4);
        let vals: Vec<f64> = (0..20).map(|_| s.next(&mut r)).collect();
        let max = vals.iter().cloned().fold(f64::MIN, f64::max);
        let min = vals.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > 105.0 && min < 95.0);
    }

    #[test]
    fn scripted_replays_and_cycles() {
        let mut s = Scripted::new(vec![1.0, 2.0]);
        let mut r = rng(5);
        assert_eq!(s.next(&mut r), 1.0);
        assert_eq!(s.next(&mut r), 2.0);
        assert_eq!(s.next(&mut r), 1.0);
    }

    #[test]
    fn value_spec_builds_equivalent_models() {
        let specs = [
            ValueSpec::RandomWalk { start: 10.0, step: 2.0, lo: 0.0, hi: 20.0 },
            ValueSpec::Spikes { base: 5.0, noise: 1.0, magnitude: 50.0, spike_p: 0.2 },
            ValueSpec::Sine { mean: 0.0, amplitude: 3.0, period: 8.0, noise: 0.1 },
            ValueSpec::Scripted(vec![1.0, 2.0]),
        ];
        for spec in specs {
            let mut a = spec.build();
            let mut b = spec.build();
            let (mut r1, mut r2) = (rng(4), rng(4));
            for _ in 0..50 {
                assert_eq!(a.next(&mut r1), b.next(&mut r2), "{spec:?}");
            }
            // And round-trips through serde.
            let json = serde_json::to_string(&spec).unwrap();
            assert_eq!(serde_json::from_str::<ValueSpec>(&json).unwrap(), spec);
        }
    }

    #[test]
    fn determinism_from_seed() {
        let mut a = RandomWalk::new(0.0, 1.0, -10.0, 10.0);
        let mut b = RandomWalk::new(0.0, 1.0, -10.0, 10.0);
        let (mut r1, mut r2) = (rng(9), rng(9));
        for _ in 0..100 {
            assert_eq!(a.next(&mut r1), b.next(&mut r2));
        }
    }
}
