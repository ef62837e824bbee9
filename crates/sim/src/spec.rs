//! Scenario files: a [`Scenario`] read from JSON.
//!
//! The file names the condition by its expression-language source and
//! each workload's variable by name; [`Scenario::from_json`] compiles
//! the one and resolves the other, and refuses anything the engine
//! could not run. This is what configuration files and the `simulate`
//! CLI use.

use std::sync::Arc;

use rcm_core::condition::expr::CompiledCondition;
use rcm_core::condition::Condition;
use rcm_core::VarRegistry;
use rcm_json::Json;

use crate::delay::DelaySpec;
use crate::scenario::{LossSpec, Outage, Scenario, VarWorkload};
use crate::workload::ValueSpec;

impl Scenario {
    /// Reads a scenario as scenario files write it, compiles its
    /// condition and resolves the workloads' variable names, returning
    /// the runnable scenario and the registry mapping names to ids.
    ///
    /// Every field but `condition` and `workloads` may be left out:
    /// `replicas` is then 2, `seed` 0, the front links lossless, both
    /// link delays a constant 1 tick and the outage lists empty. A
    /// workload's `offset` defaults to 0. Enums are externally tagged:
    /// `"Lossless"`, `{"Bernoulli": 0.1}`, `{"Uniform": [0, 4]}`.
    ///
    /// ```rust
    /// let json = r#"{
    ///     "condition": "temp[0].value > 3000",
    ///     "workloads": [{
    ///         "var": "temp", "updates": 10, "period": 10,
    ///         "values": { "Spikes": { "base": 2900.0, "noise": 10.0,
    ///                                   "magnitude": 400.0, "spike_p": 0.3 } }
    ///     }],
    ///     "front_loss": [{ "Bernoulli": 0.1 }],
    ///     "seed": 7
    /// }"#;
    /// let (scenario, registry) = rcm_sim::Scenario::from_json(&rcm_json::parse(json)?)?;
    /// let result = rcm_sim::run(scenario);
    /// assert_eq!(result.stats.updates_emitted, 10);
    /// assert!(registry.lookup("temp").is_some());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// A missing required field, a mistyped value or an unknown
    /// variant, naming what it found; a condition that does not
    /// compile; a workload for a variable the condition does not read;
    /// and anything [`run`](crate::run) would refuse, naming the field:
    /// zero replicas, two workloads for one variable, a value process,
    /// loss or delay spec out of its bounds, an outage of a missing
    /// replica, an inverted outage window, or overlapping AD outages.
    pub fn from_json(j: &Json) -> rcm_json::Result<(Scenario, VarRegistry)> {
        let pair = |p: &Json| match p.arr()? {
            [from, to] => Ok((from.u64()?, to.u64()?)),
            _ => Err(rcm_json::Error::new("an AD outage is a [from, to] pair")),
        };
        fn or<T>(mut list: Vec<T>, default: T) -> Vec<T> {
            if list.is_empty() {
                list.push(default);
            }
            list
        }
        let source = j.field("condition")?.str()?;
        let workloads = j.field("workloads")?.arr()?;
        let replicas = j.get("replicas").map_or(Ok(2), Json::usize)?;
        let front_loss = or(list(j, "front_loss", LossSpec::from_json)?, LossSpec::Lossless);
        let front_delay = or(list(j, "front_delay", DelaySpec::from_json)?, DelaySpec::Constant(1));
        let back_delay = or(list(j, "back_delay", DelaySpec::from_json)?, DelaySpec::Constant(1));
        let outages = list(j, "outages", Outage::from_json)?;
        let ad_outages = list(j, "ad_outages", pair)?;
        let seed = j.get("seed").map_or(Ok(0), Json::u64)?;

        let mut registry = VarRegistry::new();
        let condition = CompiledCondition::compile(source, &mut registry)
            .map_err(|e| rcm_json::Error::new(format!("condition: {e}")))?;
        let vars = condition.variables();
        let workloads = workloads
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let name = w.field("var")?.str()?;
                let var = registry.lookup(name).filter(|v| vars.contains(v)).ok_or_else(|| {
                    rcm_json::Error::new(format!(
                        "workloads[{i}].var: the condition does not read `{name}`"
                    ))
                })?;
                Ok(VarWorkload {
                    var,
                    updates: w.field("updates")?.u64()?,
                    period: w.field("period")?.u64()?,
                    offset: w.get("offset").map_or(Ok(0), Json::u64)?,
                    values: ValueSpec::from_json(w.field("values")?)?,
                })
            })
            .collect::<rcm_json::Result<_>>()?;
        let scenario = Scenario {
            condition: Arc::new(condition),
            replicas,
            workloads,
            front_loss,
            front_delay,
            back_delay,
            outages,
            ad_outages,
            seed,
            link_salt: 0,
        };
        scenario.check().map_err(rcm_json::Error::new)?;
        Ok((scenario, registry))
    }
}

/// The error for an externally tagged enum value whose name is unknown
/// or whose payload has the wrong shape.
pub(crate) fn bad_variant(name: &str) -> rcm_json::Error {
    rcm_json::Error::new(format!("unknown variant `{name}`, or a payload of the wrong shape"))
}

/// A list field that may be left out (then empty).
fn list<T>(
    j: &Json,
    key: &str,
    item: impl Fn(&Json) -> rcm_json::Result<T>,
) -> rcm_json::Result<Vec<T>> {
    j.get(key).map_or(Ok(Vec::new()), |l| l.arr()?.iter().map(item).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run;
    use rcm_core::VarId;

    fn read(text: &str) -> rcm_json::Result<(Scenario, VarRegistry)> {
        Scenario::from_json(&rcm_json::parse(text)?)
    }

    /// A one-variable scenario over `temp` with `extra` fields spliced in.
    fn minimal(condition: &str, extra: &str) -> String {
        format!(
            r#"{{"condition": "{condition}", "seed": 3, {extra} "workloads": [{{
                "var": "temp", "updates": 12, "period": 10,
                "values": {{ "RandomWalk": {{ "start": 100.0, "step": 30.0, "lo": 0.0, "hi": 200.0 }} }}
            }}]}}"#
        )
    }

    /// The error `from_json` gives for `minimal` with `extra` spliced in.
    fn refused(extra: &str) -> String {
        read(&minimal("temp[0].value > 110", extra)).unwrap_err().to_string()
    }

    /// The error for a one-workload scenario whose values are `values`.
    fn refused_values(values: &str) -> String {
        let json = format!(
            r#"{{"condition": "x[0].value > 0", "workloads": [
                {{"var": "x", "updates": 3, "period": 1, "values": {values}}}]}}"#
        );
        read(&json).unwrap_err().to_string()
    }

    #[test]
    fn builds_and_runs() {
        let (scenario, registry) = read(&minimal("temp[0].value > 110", "")).unwrap();
        assert_eq!(registry.lookup("temp"), Some(VarId::new(0)));
        let result = run(scenario);
        assert_eq!(result.stats.updates_emitted, 12);
        assert_eq!(result.inputs.len(), 2);
    }

    #[test]
    fn json_reads_every_field() {
        let json = r#"{
            "condition": "temp[0].value - temp[-1].value > 20 && consecutive(temp)",
            "replicas": 3,
            "workloads": [{ "var": "temp", "updates": 12, "period": 10, "offset": 4,
                "values": { "RandomWalk": { "start": 100.0, "step": 30.0, "lo": 0.0, "hi": 200.0 } } }],
            "front_loss": ["Lossless", { "Bernoulli": 0.25 }],
            "front_delay": [{ "Exponential": { "base": 1, "mean": 2.5 } }],
            "back_delay": [{ "Uniform": [0, 30] }],
            "outages": [{ "ce": 1, "from": 20, "to": 40 }],
            "ad_outages": [[50, 60]],
            "seed": 18446744073709551615
        }"#;
        let (sc, registry) = read(json).unwrap();
        assert_eq!(sc.condition.name(), "temp[0].value - temp[-1].value > 20 && consecutive(temp)");
        assert_eq!(sc.replicas, 3);
        let temp = registry.lookup("temp").unwrap();
        let values = ValueSpec::RandomWalk { start: 100.0, step: 30.0, lo: 0.0, hi: 200.0 };
        assert_eq!(
            sc.workloads,
            [VarWorkload { var: temp, updates: 12, period: 10, offset: 4, values }]
        );
        assert_eq!(sc.front_loss, [LossSpec::Lossless, LossSpec::Bernoulli(0.25)]);
        assert_eq!(sc.front_delay, [DelaySpec::Exponential { base: 1, mean: 2.5 }]);
        assert_eq!(sc.back_delay, [DelaySpec::Uniform(0, 30)]);
        assert_eq!(sc.outages, [Outage { ce: 1, from: 20, to: 40 }]);
        assert_eq!(sc.ad_outages, [(50, 60)]);
        assert_eq!((sc.seed, sc.link_salt), (u64::MAX, 0));
    }

    #[test]
    fn malformed_specs_name_the_problem() {
        let err = |text: &str| read(text).unwrap_err().to_string();
        assert_eq!(err(r#"{"workloads": []}"#), "missing field `condition`");
        assert_eq!(err(r#"{"condition": "x[0].value > 0"}"#), "missing field `workloads`");
        assert!(err(r#"{"condition": "c", "workloads": [], "seed": -1}"#).contains("found -1"));
        assert!(err(r#"{"condition": "c", "workloads": [], "front_loss": [{"Lossy": 1}]}"#)
            .contains("`Lossy`"));
        assert!(err(r#"{"condition": "c", "workloads": [], "ad_outages": [[1]]}"#)
            .contains("[from, to]"));
    }

    #[test]
    fn defaults_fill_in() {
        let json = r#"{
            "condition": "x[0].value > 0",
            "workloads": [{ "var": "x", "updates": 3, "period": 5,
                            "values": { "Scripted": [1.0, 2.0, 3.0] } }]
        }"#;
        let (sc, _) = read(json).unwrap();
        assert_eq!(sc.replicas, 2);
        assert_eq!(sc.seed, 0);
        assert_eq!(sc.workloads[0].offset, 0);
        assert_eq!(sc.front_loss, [LossSpec::Lossless]);
        assert_eq!(sc.front_delay, [DelaySpec::Constant(1)]);
        assert_eq!(sc.back_delay, [DelaySpec::Constant(1)]);
        assert!(sc.outages.is_empty() && sc.ad_outages.is_empty());
        let result = run(sc);
        assert_eq!(result.stats.updates_lost, 0); // default lossless
        assert_eq!(result.arrivals.len(), 6); // 3 alerts × 2 replicas
    }

    #[test]
    fn bad_condition_reports_parse_error() {
        let err = read(&minimal("temp[0].value >", "")).unwrap_err().to_string();
        assert!(err.starts_with("condition: condition expression parse error"), "{err}");
    }

    #[test]
    fn workload_for_unknown_variable_rejected() {
        let json = minimal("pressure[0].value > 0", "");
        let err = read(&json).unwrap_err().to_string();
        assert_eq!(err, "workloads[0].var: the condition does not read `temp`");
    }

    #[test]
    fn inverted_delay_bounds_are_refused() {
        assert_eq!(
            refused(r#""front_delay": [{"Uniform": [5, 1]}],"#),
            "front_delay[0]: delay bounds must satisfy min <= max"
        );
        assert_eq!(
            refused(r#""back_delay": [{"Constant": 1}, {"Uniform": [9, 8]}],"#),
            "back_delay[1]: delay bounds must satisfy min <= max"
        );
    }

    /// A one-workload scenario over `x`: `updates` emissions `period`
    /// ticks apart, with `delays` spliced in.
    fn ticking(updates: u64, period: u64, delays: &str) -> String {
        format!(
            r#"{{"condition": "x[0].value > 0", {delays} "workloads": [
                {{"var": "x", "updates": {updates}, "period": {period},
                  "values": {{"Scripted": [1.0]}}}}]}}"#
        )
    }

    #[test]
    fn ticks_past_the_last_one_are_refused() {
        // Once wrapped the third emission round to tick 0.
        assert_eq!(
            read(&ticking(3, 1 << 63, "")).unwrap_err().to_string(),
            "workloads[0]: the last emission is past the last tick"
        );
        // Once panicked dividing by `max - min + 1`, wrapped to 0.
        let every_tick = r#""front_delay": [{"Uniform": [0, 18446744073709551615]}],"#;
        assert_eq!(
            read(&ticking(3, 1, every_tick)).unwrap_err().to_string(),
            "workloads: an emission plus the longest front and back delays is past the last tick"
        );
        let far =
            r#""back_delay": [{"Exponential": {"base": 18446744073709551600, "mean": 1.0}}],"#;
        assert!(read(&ticking(1, 1, far)).is_err());
    }

    #[test]
    fn ticks_up_to_the_last_one_run_in_time_order() {
        let (sc, _) = read(&ticking(2, 1 << 63, "")).unwrap();
        let result = run(sc);
        assert_eq!(result.stats.updates_emitted, 2);
        // Raised on arrival, one default tick after the emission.
        let raised = result.arrival_times.iter().map(|&(sent, _)| sent).max();
        assert_eq!(raised, Some((1 << 63) + 1));
        let every_tick = r#""front_delay": [{"Uniform": [0, 18446744073709551615]}],
            "back_delay": [{"Constant": 0}],"#;
        let (sc, _) = read(&ticking(1, 1, every_tick)).unwrap();
        assert_eq!(run(sc).stats.updates_emitted, 1);
    }

    #[test]
    fn a_zero_exponential_mean_is_refused() {
        assert_eq!(
            refused(r#""back_delay": [{"Exponential": {"base": 1, "mean": 0.0}}],"#),
            "back_delay[0]: mean delay must be positive"
        );
    }

    #[test]
    fn a_loss_probability_past_one_is_refused() {
        assert_eq!(
            refused(r#""front_loss": ["Lossless", {"Bernoulli": 1.5}],"#),
            "front_loss[1]: loss probability must be in [0, 1]"
        );
    }

    #[test]
    fn a_burst_shorter_than_one_message_is_refused() {
        assert_eq!(
            refused(r#""front_loss": [{"Burst": {"target": 0.2, "burst_len": 0.5}}],"#),
            "front_loss[0]: burst length must be at least 1"
        );
        assert_eq!(
            refused(r#""front_loss": [{"Burst": {"target": -0.2, "burst_len": 2.0}}],"#),
            "front_loss[0]: burst target rate must be in [0, 1]"
        );
    }

    #[test]
    fn inverted_walk_bounds_are_refused() {
        assert_eq!(
            refused_values(r#"{"RandomWalk": {"start": 0.0, "step": 1.0, "lo": 5.0, "hi": 1.0}}"#),
            "workloads[0]: values: walk bounds must satisfy lo <= hi"
        );
    }

    #[test]
    fn a_zero_walk_step_is_refused() {
        assert_eq!(
            refused_values(r#"{"RandomWalk": {"start": 0.0, "step": 0.0, "lo": 0.0, "hi": 1.0}}"#),
            "workloads[0]: values: walk step must be finite and positive"
        );
    }

    #[test]
    fn a_spike_probability_past_one_is_refused() {
        let spikes = r#"{"Spikes": {"base": 0.0, "noise": 1.0, "magnitude": 5.0, "spike_p": 2.0}}"#;
        assert_eq!(
            refused_values(spikes),
            "workloads[0]: values: spike probability must be in [0, 1]"
        );
    }

    #[test]
    fn a_zero_sine_period_is_refused() {
        let sine = r#"{"Sine": {"mean": 0.0, "amplitude": 1.0, "period": 0.0, "noise": 0.0}}"#;
        assert_eq!(refused_values(sine), "workloads[0]: values: sine period must be positive");
    }

    #[test]
    fn an_empty_script_is_refused() {
        assert_eq!(
            refused_values(r#"{"Scripted": []}"#),
            "workloads[0]: values: scripted values must not be empty"
        );
    }

    #[test]
    fn zero_replicas_are_refused() {
        assert_eq!(refused(r#""replicas": 0,"#), "replicas: need at least one replica");
    }

    #[test]
    fn an_outage_of_a_missing_replica_is_refused() {
        assert_eq!(
            refused(r#""outages": [{"ce": 2, "from": 0, "to": 5}],"#),
            "outages[0]: outage names replica 2 of 2"
        );
    }

    #[test]
    fn inverted_outage_windows_are_refused() {
        assert_eq!(
            refused(
                r#""outages": [{"ce": 0, "from": 0, "to": 5}, {"ce": 1, "from": 9, "to": 4}],"#
            ),
            "outages[1]: outage window inverted"
        );
        assert_eq!(
            refused(r#""ad_outages": [[7, 3]],"#),
            "ad_outages[0]: AD outage window inverted"
        );
    }

    #[test]
    fn overlapping_ad_outages_are_refused() {
        assert_eq!(
            refused(r#""ad_outages": [[40, 90], [0, 50]],"#),
            "ad_outages: AD outage windows must not overlap"
        );
        // Adjacent windows do not overlap.
        assert!(
            read(&minimal("temp[0].value > 110", r#""ad_outages": [[50, 90], [0, 50]],"#)).is_ok()
        );
    }

    #[test]
    fn two_workloads_for_one_variable_are_refused() {
        let json = r#"{"condition": "x[0].value > 0", "workloads": [
            {"var": "x", "updates": 3, "period": 1, "values": {"Scripted": [1.0]}},
            {"var": "x", "updates": 3, "period": 1, "values": {"Scripted": [2.0]}}]}"#;
        let err = read(json).unwrap_err().to_string();
        assert!(err.starts_with("workloads[1]: two workloads for variable"), "{err}");
    }
}
