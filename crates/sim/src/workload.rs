//! Synthetic value generators driving the Data Monitors.
//!
//! The paper's experiments are framed around reactor temperatures,
//! stock quotes and battlefield sensors. We have no physical sensors,
//! so Data Monitors are driven by seeded synthetic processes that
//! exercise the same code paths: the paper's results depend only on
//! sequence numbers, loss and interleavings, never on sensor physics
//! (see DESIGN.md's substitution notes).

use rcm_json::Json;
use rcm_net::Rng;

/// The value process of one Data Monitor, as scenario files write it.
/// The engine draws each workload's readings from it directly, so a
/// workload shared by several runs (the per-condition runs of a
/// multi-condition system) yields identical values in each.
#[derive(Debug, Clone, PartialEq)]
pub enum ValueSpec {
    /// A bounded random walk: each reading moves by a uniform step in
    /// `[-step, step]` from the last, clamped to `[lo, hi]`; the walk
    /// starts at `start` clamped likewise. A walk with `step = 2δ`
    /// crosses a `δ` rise roughly a quarter of the time, so delta
    /// conditions trigger on a healthy fraction of updates.
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
    /// A baseline with occasional spikes: readings sit at `base` plus
    /// uniform noise in `[-noise, noise]`, and jump by `magnitude` with
    /// probability `spike_p` — a missile-launch / overheat pattern for
    /// threshold conditions.
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
    /// A sine wave with additive noise — smooth periodic data for
    /// level-crossing conditions.
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
    /// Replays a fixed list of readings, cycling when exhausted — used
    /// to reproduce the paper's worked examples exactly.
    Scripted(Vec<f64>),
}

impl ValueSpec {
    /// Why the process cannot run, if it cannot: walk bounds out of
    /// order, a walk step that is not finite and positive, a spike
    /// probability outside `[0, 1]`, a sine period that is not positive,
    /// or an empty script.
    pub(crate) fn check(&self) -> Result<(), &'static str> {
        let (holds, why) = match self {
            ValueSpec::RandomWalk { step, lo, hi, .. } => match lo <= hi {
                true => (*step > 0.0 && step.is_finite(), "walk step must be finite and positive"),
                false => (false, "walk bounds must satisfy lo <= hi"),
            },
            ValueSpec::Spikes { spike_p, .. } => {
                ((0.0..=1.0).contains(spike_p), "spike probability must be in [0, 1]")
            }
            ValueSpec::Sine { period, .. } => (*period > 0.0, "sine period must be positive"),
            ValueSpec::Scripted(values) => {
                (!values.is_empty(), "scripted values must not be empty")
            }
        };
        holds.then_some(()).ok_or(why)
    }

    /// Reads `{"RandomWalk": {"start":…,"step":…,"lo":…,"hi":…}}`,
    /// `{"Spikes": {…}}`, `{"Sine": {…}}` or `{"Scripted": [v, …]}`.
    pub(crate) fn from_json(j: &Json) -> rcm_json::Result<Self> {
        let (name, body) = match j.variant()? {
            (name, Some(body)) => (name, body),
            (name, None) => return Err(crate::spec::bad_variant(name)),
        };
        let f = |key: &str| body.field(key)?.f64();
        Ok(match name {
            "RandomWalk" => ValueSpec::RandomWalk {
                start: f("start")?,
                step: f("step")?,
                lo: f("lo")?,
                hi: f("hi")?,
            },
            "Spikes" => ValueSpec::Spikes {
                base: f("base")?,
                noise: f("noise")?,
                magnitude: f("magnitude")?,
                spike_p: f("spike_p")?,
            },
            "Sine" => ValueSpec::Sine {
                mean: f("mean")?,
                amplitude: f("amplitude")?,
                period: f("period")?,
                noise: f("noise")?,
            },
            "Scripted" => {
                ValueSpec::Scripted(body.arr()?.iter().map(Json::f64).collect::<Result<_, _>>()?)
            }
            other => return Err(crate::spec::bad_variant(other)),
        })
    }
}

/// One workload's value process in motion: the readings drawn so far
/// and, for a walk, where it stands.
#[derive(Debug)]
pub(crate) struct ValueState {
    drawn: u64,
    walk: f64,
}

impl ValueState {
    /// The state before the first reading of `spec`.
    pub(crate) fn new(spec: &ValueSpec) -> Self {
        let walk = match spec {
            ValueSpec::RandomWalk { start, lo, hi, .. } => start.clamp(*lo, *hi),
            _ => 0.0,
        };
        ValueState { drawn: 0, walk }
    }

    /// Draws the next reading of `spec`, the spec this state was made
    /// from.
    pub(crate) fn next(&mut self, spec: &ValueSpec, rng: &mut Rng) -> f64 {
        let i = self.drawn;
        self.drawn += 1;
        let jitter = |rng: &mut Rng, noise: f64| (rng.next_f64() * 2.0 - 1.0) * noise;
        match spec {
            ValueSpec::RandomWalk { step, lo, hi, .. } => {
                let delta = jitter(rng, *step);
                self.walk = (self.walk + delta).clamp(*lo, *hi);
                self.walk
            }
            ValueSpec::Spikes { base, noise, magnitude, spike_p } => {
                let jitter = jitter(rng, *noise);
                if rng.next_f64() < *spike_p {
                    base + magnitude + jitter
                } else {
                    base + jitter
                }
            }
            ValueSpec::Sine { mean, amplitude, period, noise } => {
                let phase = i as f64 * std::f64::consts::TAU / period;
                mean + amplitude * phase.sin() + jitter(rng, *noise)
            }
            ValueSpec::Scripted(values) => values[(i % values.len() as u64) as usize],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first `n` readings of `spec` from a generator seeded `seed`.
    fn draws(spec: &ValueSpec, seed: u64, n: usize) -> Vec<f64> {
        let mut state = ValueState::new(spec);
        let mut r = Rng::seed_from_u64(seed);
        (0..n).map(|_| state.next(spec, &mut r)).collect()
    }

    fn walk(start: f64, step: f64, lo: f64, hi: f64) -> ValueSpec {
        ValueSpec::RandomWalk { start, step, lo, hi }
    }

    #[test]
    fn walk_stays_in_bounds() {
        let values = draws(&walk(50.0, 30.0, 0.0, 100.0), 1, 10_000);
        assert!(values.iter().all(|v| (0.0..=100.0).contains(v)));
    }

    #[test]
    fn walk_moves() {
        let values = draws(&walk(50.0, 5.0, 0.0, 100.0), 2, 2);
        assert_ne!(values[0], values[1]);
    }

    #[test]
    fn spikes_hit_roughly_at_rate() {
        let spikes = ValueSpec::Spikes { base: 100.0, noise: 1.0, magnitude: 1000.0, spike_p: 0.1 };
        let n = 20_000;
        let hits = draws(&spikes, 3, n).into_iter().filter(|&v| v > 500.0).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn sine_oscillates_around_mean() {
        let sine = ValueSpec::Sine { mean: 100.0, amplitude: 10.0, period: 20.0, noise: 0.0 };
        let vals = draws(&sine, 4, 20);
        let max = vals.iter().cloned().fold(f64::MIN, f64::max);
        let min = vals.iter().cloned().fold(f64::MAX, f64::min);
        assert!(max > 105.0 && min < 95.0);
    }

    #[test]
    fn scripted_replays_and_cycles() {
        assert_eq!(draws(&ValueSpec::Scripted(vec![1.0, 2.0]), 5, 3), [1.0, 2.0, 1.0]);
    }

    #[test]
    fn value_spec_builds_equivalent_models() {
        let specs = [
            walk(10.0, 2.0, 0.0, 20.0),
            ValueSpec::Spikes { base: 5.0, noise: 1.0, magnitude: 50.0, spike_p: 0.2 },
            ValueSpec::Sine { mean: 0.0, amplitude: 3.0, period: 8.0, noise: 0.1 },
            ValueSpec::Scripted(vec![1.0, 2.0]),
        ];
        for spec in &specs {
            assert_eq!(draws(spec, 4, 50), draws(spec, 4, 50), "{spec:?}");
        }
        // And reads back from the form scenario files use.
        let text = r#"[{"RandomWalk": {"start": 10.0, "step": 2, "lo": 0.0, "hi": 20.0}},
            {"Spikes": {"base": 5.0, "noise": 1.0, "magnitude": 50.0, "spike_p": 0.2}},
            {"Sine": {"mean": 0.0, "amplitude": 3.0, "period": 8.0, "noise": 0.1}},
            {"Scripted": [1.0, 2]}]"#;
        let read: Vec<ValueSpec> = rcm_json::parse(text)
            .unwrap()
            .arr()
            .unwrap()
            .iter()
            .map(|j| ValueSpec::from_json(j).unwrap())
            .collect();
        assert_eq!(read, specs);
        for bad in [r#""RandomWalk""#, r#"{"Walk": {}}"#, r#"{"Sine": {"mean": 0.0}}"#] {
            assert!(ValueSpec::from_json(&rcm_json::parse(bad).unwrap()).is_err(), "{bad}");
        }
    }

    #[test]
    fn determinism_from_seed() {
        let spec = walk(0.0, 1.0, -10.0, 10.0);
        assert_eq!(draws(&spec, 9, 100), draws(&spec, 9, 100));
    }

    #[test]
    fn a_walk_starts_inside_its_bounds() {
        // Zero-width bounds pin the walk wherever it starts.
        assert_eq!(draws(&walk(500.0, 1.0, 3.0, 3.0), 6, 2), [3.0, 3.0]);
    }
}
