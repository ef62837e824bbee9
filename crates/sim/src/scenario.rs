//! Scenario descriptions: everything a simulation run depends on, as
//! plain data. Each model is described once, by its spec; the engine
//! samples the specs directly, and [`Scenario::from_json`] reads the
//! same specs from scenario files.

use std::sync::Arc;

use rcm_core::condition::expr::CompiledCondition;
use rcm_core::condition::Condition;
use rcm_core::VarId;
use rcm_json::Json;
use rcm_net::{Bernoulli, GilbertElliott, LossModel, Lossless};

use crate::delay::DelaySpec;
use crate::event::SimTime;
use crate::spec::bad_variant;
use crate::workload::ValueSpec;

/// Loss-model specification; [`LossSpec::build`] turns it into a live
/// model (one instance per front link), the form the runtime's front
/// links share.
#[derive(Debug, Clone, PartialEq)]
pub enum LossSpec {
    /// Never drop ([`Lossless`]).
    Lossless,
    /// Independent drops with the given probability ([`Bernoulli`]).
    Bernoulli(f64),
    /// Gilbert–Elliott bursts with the given target rate and mean burst
    /// length ([`GilbertElliott::bursty`]).
    Burst {
        /// Long-run loss rate.
        target: f64,
        /// Mean burst length in messages.
        burst_len: f64,
    },
    /// Drop exactly these 0-based per-link message positions
    /// ([`rcm_net::Scripted`]).
    Scripted(Vec<u64>),
}

impl LossSpec {
    /// Instantiates the model.
    ///
    /// # Panics
    ///
    /// Panics on a probability or target rate outside `[0, 1]` or a
    /// burst length below 1 (see [`Scenario::from_json`] for the
    /// checked path).
    pub fn build(&self) -> Box<dyn LossModel> {
        match self {
            LossSpec::Lossless => Box::new(Lossless),
            LossSpec::Bernoulli(p) => Box::new(Bernoulli::new(*p)),
            LossSpec::Burst { target, burst_len } => {
                Box::new(GilbertElliott::bursty(*target, *burst_len))
            }
            LossSpec::Scripted(positions) => {
                Box::new(rcm_net::Scripted::new(positions.iter().copied()))
            }
        }
    }

    /// Why [`build`](Self::build) would refuse the spec, if it would.
    fn check(&self) -> Result<(), &'static str> {
        let (holds, why) = match self {
            LossSpec::Bernoulli(p) => {
                ((0.0..=1.0).contains(p), "loss probability must be in [0, 1]")
            }
            LossSpec::Burst { target, burst_len } => match *burst_len >= 1.0 {
                true => ((0.0..=1.0).contains(target), "burst target rate must be in [0, 1]"),
                false => (false, "burst length must be at least 1"),
            },
            LossSpec::Lossless | LossSpec::Scripted(_) => (true, ""),
        };
        holds.then_some(()).ok_or(why)
    }

    /// Reads `"Lossless"`, `{"Bernoulli": p}`,
    /// `{"Burst": {"target":…,"burst_len":…}}` or `{"Scripted": [i, …]}`.
    pub(crate) fn from_json(j: &Json) -> rcm_json::Result<Self> {
        Ok(match j.variant()? {
            ("Lossless", None) => LossSpec::Lossless,
            ("Bernoulli", Some(p)) => LossSpec::Bernoulli(p.f64()?),
            ("Burst", Some(b)) => LossSpec::Burst {
                target: b.field("target")?.f64()?,
                burst_len: b.field("burst_len")?.f64()?,
            },
            ("Scripted", Some(positions)) => LossSpec::Scripted(
                positions.arr()?.iter().map(Json::u64).collect::<Result<_, _>>()?,
            ),
            (name, _) => return Err(bad_variant(name)),
        })
    }
}

/// One Data Monitor's workload: how many updates it emits, how often,
/// and the value process driving it.
#[derive(Debug, Clone, PartialEq)]
pub struct VarWorkload {
    /// The monitored variable.
    pub var: VarId,
    /// Number of updates to emit.
    pub updates: u64,
    /// Ticks between consecutive emissions.
    pub period: SimTime,
    /// Tick of the first emission.
    pub offset: SimTime,
    /// The value process.
    pub values: ValueSpec,
}

/// A Condition Evaluator outage: the replica is down during
/// `[from, to)` — it misses all updates delivered in that window and
/// loses its in-memory histories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// Affected replica index.
    pub ce: usize,
    /// First tick of the outage.
    pub from: SimTime,
    /// First tick after the outage.
    pub to: SimTime,
}

impl Outage {
    /// Reads `{"ce":…,"from":…,"to":…}`.
    pub(crate) fn from_json(j: &Json) -> rcm_json::Result<Self> {
        Ok(Outage {
            ce: j.field("ce")?.usize()?,
            from: j.field("from")?.u64()?,
            to: j.field("to")?.u64()?,
        })
    }
}

/// A complete, replayable simulation input.
///
/// Per-link loss/delay specs: the front-link models are instantiated
/// per `(variable, replica)` pair — index `var_index * replicas + ce` —
/// falling back to the last entry when fewer specs than links are
/// given (so a single entry configures every link uniformly).
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The monitored condition.
    pub condition: Arc<CompiledCondition>,
    /// Number of Condition Evaluator replicas (1 = the paper's
    /// non-replicated system).
    pub replicas: usize,
    /// One workload per variable in the condition's variable set.
    pub workloads: Vec<VarWorkload>,
    /// Front-link loss specs (see struct docs for indexing).
    pub front_loss: Vec<LossSpec>,
    /// Front-link delay specs (same indexing).
    pub front_delay: Vec<DelaySpec>,
    /// Back-link delay specs, one per replica (same fallback rule).
    pub back_delay: Vec<DelaySpec>,
    /// Replica outages.
    pub outages: Vec<Outage>,
    /// Alert Displayer outages (`[from, to)` windows): while the AD is
    /// off (the paper's powered-down PDA), alerts are buffered — the
    /// back links are reliable and stateful — and delivered, still in
    /// order, when the window ends.
    pub ad_outages: Vec<(SimTime, SimTime)>,
    /// Master seed; all randomness in the run derives from it. DM
    /// values are drawn from a stream seeded by `seed` alone, and link
    /// behaviour from `seed ^ link_salt` — so two scenarios sharing a
    /// seed but differing in salt observe the *same* real-world
    /// variables over *independent* links (the multi-condition
    /// construction of Appendix D).
    pub seed: u64,
    /// Salt for the link-randomness stream (see `seed`). Zero for
    /// single-condition systems.
    pub link_salt: u64,
}

impl Scenario {
    /// Why [`run`](crate::run) cannot run the scenario, if it cannot,
    /// naming the field at fault.
    pub(crate) fn check(&self) -> Result<(), String> {
        let at = |field: &str, i: usize, why: &str| format!("{field}[{i}]: {why}");
        if self.replicas == 0 {
            return Err("replicas: need at least one replica".into());
        }
        let vars = self.condition.variables();
        for (i, w) in self.workloads.iter().enumerate() {
            if !vars.contains(&w.var) {
                let why =
                    format!("workload variable {} not in the condition's variable set", w.var);
                return Err(at("workloads", i, &why));
            }
            if self.workloads[..i].iter().any(|v| v.var == w.var) {
                return Err(at("workloads", i, &format!("two workloads for variable {}", w.var)));
            }
            w.values.check().map_err(|why| at("workloads", i, &format!("values: {why}")))?;
        }
        for (i, loss) in self.front_loss.iter().enumerate() {
            loss.check().map_err(|why| at("front_loss", i, why))?;
        }
        for (field, delays) in
            [("front_delay", &self.front_delay), ("back_delay", &self.back_delay)]
        {
            for (i, delay) in delays.iter().enumerate() {
                delay.check().map_err(|why| at(field, i, why))?;
            }
        }
        for (i, o) in self.outages.iter().enumerate() {
            if o.ce >= self.replicas {
                let why = format!("outage names replica {} of {}", o.ce, self.replicas);
                return Err(at("outages", i, &why));
            }
            if o.from > o.to {
                return Err(at("outages", i, "outage window inverted"));
            }
        }
        for (i, &(from, to)) in self.ad_outages.iter().enumerate() {
            if from > to {
                return Err(at("ad_outages", i, "AD outage window inverted"));
            }
        }
        if self.ad_windows().windows(2).any(|w| w[0].1 > w[1].0) {
            return Err("ad_outages: AD outage windows must not overlap".into());
        }
        Ok(())
    }

    /// The AD outage windows in time order.
    pub(crate) fn ad_windows(&self) -> Vec<(SimTime, SimTime)> {
        let mut windows = self.ad_outages.clone();
        windows.sort_unstable();
        windows
    }

    /// The loss spec for the front link from `var_index`'s DM to
    /// replica `ce`.
    pub(crate) fn front_loss_for(&self, var_index: usize, ce: usize) -> &LossSpec {
        pick(&self.front_loss, var_index * self.replicas + ce)
    }

    /// The delay spec for the same link.
    pub(crate) fn front_delay_for(&self, var_index: usize, ce: usize) -> &DelaySpec {
        pick(&self.front_delay, var_index * self.replicas + ce)
    }

    /// The delay spec for replica `ce`'s back link.
    pub(crate) fn back_delay_for(&self, ce: usize) -> &DelaySpec {
        pick(&self.back_delay, ce)
    }
}

fn pick<T>(list: &[T], index: usize) -> &T {
    list.get(index).or(list.last()).expect("scenario spec lists must not be empty")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcm_net::Rng;

    fn rng(seed: u64) -> Rng {
        Rng::seed_from_u64(seed)
    }

    #[test]
    fn specs_build_models() {
        let mut r = rng(0);
        assert!(!LossSpec::Lossless.build().drops(&mut r));
        assert!(LossSpec::Bernoulli(1.0).build().drops(&mut r));
        let mut scripted = LossSpec::Scripted(vec![0]).build();
        assert!(scripted.drops(&mut r));
        assert!(!scripted.drops(&mut r));
        let _ = LossSpec::Burst { target: 0.1, burst_len: 4.0 }.build();
        assert_eq!(DelaySpec::Constant(5).sample(&mut r), 5);
        let d = DelaySpec::Uniform(1, 3).sample(&mut r);
        assert!((1..=3).contains(&d));
        assert!(DelaySpec::Exponential { base: 1, mean: 4.0 }.sample(&mut r) >= 1);
    }

    #[test]
    fn spec_indexing_falls_back_to_last() {
        let sc = Scenario {
            condition: Arc::new(rcm_core::condition::cond::threshold(
                VarId::new(0),
                rcm_core::condition::Cmp::Gt,
                0.0,
            )),
            replicas: 2,
            workloads: vec![],
            front_loss: vec![LossSpec::Lossless, LossSpec::Bernoulli(0.5)],
            front_delay: vec![DelaySpec::Constant(1)],
            back_delay: vec![DelaySpec::Constant(0)],
            outages: vec![],
            ad_outages: vec![],
            link_salt: 0,
            seed: 0,
        };
        assert_eq!(*sc.front_loss_for(0, 0), LossSpec::Lossless);
        assert_eq!(*sc.front_loss_for(0, 1), LossSpec::Bernoulli(0.5));
        // Out-of-range indices reuse the last entry.
        assert_eq!(*sc.front_loss_for(3, 1), LossSpec::Bernoulli(0.5));
        assert_eq!(*sc.front_delay_for(1, 1), DelaySpec::Constant(1));
        assert_eq!(*sc.back_delay_for(7), DelaySpec::Constant(0));
    }

    #[test]
    fn specs_read_every_variant() {
        let read = |text: &str| rcm_json::parse(text).unwrap();
        let loss = |text: &str| LossSpec::from_json(&read(text));
        assert_eq!(loss(r#""Lossless""#), Ok(LossSpec::Lossless));
        assert_eq!(loss(r#"{"Bernoulli": 0.1}"#), Ok(LossSpec::Bernoulli(0.1)));
        assert_eq!(
            loss(r#"{"Burst": {"target": 0.2, "burst_len": 3.0}}"#),
            Ok(LossSpec::Burst { target: 0.2, burst_len: 3.0 })
        );
        assert_eq!(loss(r#"{"Scripted": [0, 4]}"#), Ok(LossSpec::Scripted(vec![0, 4])));
        let delay = |text: &str| DelaySpec::from_json(&read(text));
        assert_eq!(delay(r#"{"Constant": 2}"#), Ok(DelaySpec::Constant(2)));
        assert_eq!(delay(r#"{"Uniform": [0, 25]}"#), Ok(DelaySpec::Uniform(0, 25)));
        assert_eq!(
            delay(r#"{"Exponential": {"base": 2, "mean": 7.5}}"#),
            Ok(DelaySpec::Exponential { base: 2, mean: 7.5 })
        );
        assert_eq!(
            Outage::from_json(&read(r#"{"ce": 1, "from": 5, "to": 9}"#)),
            Ok(Outage { ce: 1, from: 5, to: 9 })
        );
        for bad in [r#""Lossy""#, r#""Bernoulli""#, r#"{"Bernoulli": "x"}"#, r#"{"Uniform": [1]}"#]
        {
            assert!(loss(bad).is_err() && delay(bad).is_err(), "{bad}");
        }
        assert!(delay(r#"{"Constant": 1.5}"#).is_err(), "ticks are integers");
    }
}
