//! The motivating availability experiment (paper §1, Figure 1).
//!
//! Replication exists "to reduce the probability that an important
//! alert is missed". This module quantifies that: a threshold condition
//! is monitored by 1–N replicas whose Condition Evaluators suffer
//! random outages (and, optionally, lossy front links); we measure the
//! fraction of *true* alerts (those the always-up non-replicated system
//! would deliver) that never reach the user.
//!
//! With independent outages of downtime fraction `d`, a replicated
//! system misses an alert only when every replica misses it, so the
//! missed fraction should fall roughly like `d^R` — the experiment
//! reproduces that shape.

use std::collections::HashSet;
use std::sync::Arc;

use rcm_core::ad::{apply_filter, Ad1};
use rcm_core::condition::{cond, Cmp};
use rcm_core::{transduce, Alert, CeId, VarId};

use crate::delay::DelaySpec;
use crate::engine::run;
use crate::montecarlo::mix;
use crate::scenario::{LossSpec, Outage, Scenario, VarWorkload};
use crate::workload::ValueSpec;

/// Parameters of one availability sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailabilityConfig {
    /// Number of CE replicas.
    pub replicas: usize,
    /// Fraction of time each replica is down (0.0–0.9).
    pub downtime: f64,
    /// Per-message front-link loss probability.
    pub link_loss: f64,
    /// Updates emitted by the DM per run.
    pub updates: u64,
    /// Independent runs to average over.
    pub runs: u64,
    /// Base seed.
    pub seed: u64,
}

/// Result of one availability sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AvailabilityPoint {
    /// The configuration measured.
    pub config: AvailabilityConfig,
    /// True alerts across all runs (what an always-up, lossless
    /// non-replicated system would deliver).
    pub true_alerts: u64,
    /// True alerts that reached the user.
    pub delivered: u64,
}

impl AvailabilityPoint {
    /// Fraction of true alerts the user never saw.
    pub fn missed_fraction(&self) -> f64 {
        if self.true_alerts == 0 {
            0.0
        } else {
            1.0 - self.delivered as f64 / self.true_alerts as f64
        }
    }
}

/// Builds the outage schedule for one replica: alternating up/down
/// periods hitting the requested downtime fraction, phase-shifted by
/// the seed so replicas fail independently.
fn outages_for(ce: usize, downtime: f64, horizon: u64, seed: u64) -> Vec<Outage> {
    if downtime <= 0.0 {
        return vec![];
    }
    let cycle = 200u64; // ticks per up/down cycle
    let down = (cycle as f64 * downtime).round() as u64;
    let phase = mix(seed ^ (ce as u64) << 8) % cycle;
    let mut out = Vec::new();
    let mut t = phase;
    while t < horizon {
        out.push(Outage { ce, from: t, to: (t + down).min(horizon) });
        t += cycle;
    }
    out
}

/// Measures one sweep point.
///
/// The monitored condition is the reactor threshold `c1`
/// (non-historical, so every alert corresponds to one update and "the
/// user misses alert `i`" is well defined as: no replica delivered an
/// alert triggered by update `i`).
pub fn measure(config: AvailabilityConfig) -> AvailabilityPoint {
    let x = VarId::new(0);
    let condition = Arc::new(cond::threshold(x, Cmp::Gt, 500.0));
    let mut true_alerts = 0u64;
    let mut delivered = 0u64;
    for i in 0..config.runs {
        let seed = config.seed.wrapping_add(i.wrapping_mul(0x5851_f42d));
        let horizon = config.updates * 10;
        let outages: Vec<Outage> = (0..config.replicas)
            .flat_map(|ce| outages_for(ce, config.downtime, horizon, seed))
            .collect();
        let scenario = Scenario {
            condition: condition.clone(),
            replicas: config.replicas,
            workloads: vec![VarWorkload {
                var: x,
                updates: config.updates,
                period: 10,
                offset: 0,
                // Baseline 100 with ~15% spikes to 1100: crisp alerts.
                values: ValueSpec::Spikes {
                    base: 100.0,
                    noise: 5.0,
                    magnitude: 1000.0,
                    spike_p: 0.15,
                },
            }],
            front_loss: vec![LossSpec::Bernoulli(config.link_loss)],
            front_delay: vec![DelaySpec::Constant(1)],
            back_delay: vec![DelaySpec::Constant(1)],
            outages,
            ad_outages: vec![],
            link_salt: 0,
            seed,
        };
        let result = run(scenario);
        // Ground truth: T over the full emitted stream.
        let truth = transduce(&condition, CeId::new(u32::MAX), &result.emitted);
        let displayed = apply_filter(&mut Ad1::new(), &result.arrivals);
        let shown: HashSet<&Alert> = displayed.iter().collect();
        true_alerts += truth.len() as u64;
        delivered += truth.iter().filter(|a| shown.contains(*a)).count() as u64;
    }
    AvailabilityPoint { config, true_alerts, delivered }
}

/// Sweeps missed-alert fraction over replica counts and downtime
/// fractions (the Figure 1 motivation experiment).
pub fn sweep(
    replica_counts: &[usize],
    downtimes: &[f64],
    link_loss: f64,
    runs: u64,
    seed: u64,
) -> Vec<AvailabilityPoint> {
    let mut out = Vec::new();
    for &replicas in replica_counts {
        for &downtime in downtimes {
            out.push(measure(AvailabilityConfig {
                replicas,
                downtime,
                link_loss,
                updates: 60,
                runs,
                seed,
            }));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(replicas: usize, downtime: f64) -> AvailabilityConfig {
        AvailabilityConfig { replicas, downtime, link_loss: 0.0, updates: 60, runs: 12, seed: 7 }
    }

    #[test]
    fn no_failures_no_misses() {
        let p = measure(cfg(1, 0.0));
        assert!(p.true_alerts > 0);
        assert_eq!(p.missed_fraction(), 0.0);
    }

    #[test]
    fn replication_reduces_missed_alerts() {
        let single = measure(cfg(1, 0.4));
        let double = measure(cfg(2, 0.4));
        let triple = measure(cfg(3, 0.4));
        assert!(single.missed_fraction() > 0.05, "single: {}", single.missed_fraction());
        assert!(
            double.missed_fraction() < single.missed_fraction(),
            "double {} !< single {}",
            double.missed_fraction(),
            single.missed_fraction()
        );
        assert!(triple.missed_fraction() <= double.missed_fraction() + 0.02);
    }

    #[test]
    fn link_loss_also_causes_misses_in_non_replicated() {
        let lossy = measure(AvailabilityConfig { link_loss: 0.3, ..cfg(1, 0.0) });
        assert!(lossy.missed_fraction() > 0.1);
        let replicated = measure(AvailabilityConfig { link_loss: 0.3, ..cfg(3, 0.0) });
        assert!(replicated.missed_fraction() < lossy.missed_fraction());
    }

    #[test]
    fn sweep_covers_grid() {
        let points = sweep(&[1, 2], &[0.0, 0.3], 0.0, 4, 1);
        assert_eq!(points.len(), 4);
    }

    #[test]
    fn missed_fraction_edge_cases() {
        let p = AvailabilityPoint { config: cfg(1, 0.0), true_alerts: 0, delivered: 0 };
        assert_eq!(p.missed_fraction(), 0.0);
    }
}
