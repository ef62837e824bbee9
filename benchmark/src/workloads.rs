//! The four workloads: condition sets, link shape, AD class and the
//! frozen rates. Everything here is a constant or a pure function of
//! the seed; nothing is derived from a measurement at run time.

use std::sync::Arc;

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rcm_core::ad::{Ad1, Ad2, Ad6, AlertFilter, PassThrough, PerCondition};
use rcm_core::condition::expr::CompiledCondition;
use rcm_core::condition::Condition;
use rcm_core::{CondId, VarId, VarRegistry};
use rcm_net::{Bernoulli, LossModel, Lossless};

/// Data readings between two heartbeat readings.
pub const HB_EVERY: u64 = 16;
/// Readings in one generator period: the data readings and their heartbeat.
pub const PERIOD: u64 = HB_EVERY + 1;
/// Most readings either loop keeps outstanding: sent, and not yet
/// acknowledged by a heartbeat alert from every replica. On schedule
/// the open loop has a tick's worth and a heartbeat period outstanding,
/// fewer; it meets the bound only after a stall.
pub const WINDOW: u64 = 64;
/// Most readings the generator leaves waiting in one data monitor's
/// feed. A heartbeat acknowledges only its own monitor's progress: the
/// others are threads of their own and can fall behind it, by hundreds
/// of readings when the CPU is saturated. With [`WINDOW`] this bounds
/// what a stalled or starved actor is handed once it runs again to
/// `WINDOW + 5 * FEED_BOUND` = 224 readings, under the 256 datagrams a
/// replica's UDP socket holds at the default `rmem_default` and the
/// 1 024 slots of a worker ring.
pub const FEED_BOUND: usize = 32;
/// Updates per replay chunk (one span per stage per chunk).
pub const CHUNK: usize = 256;

/// Which filter the AD runs per condition stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FilterKind {
    Ad1,
    Ad2,
    Ad6,
}

impl FilterKind {
    /// Whether the class promises an ordered display (paper, Table 2).
    pub fn promises_order(self) -> bool {
        matches!(self, FilterKind::Ad2 | FilterKind::Ad6)
    }
}

/// What carries updates and alerts between the actors.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Links {
    /// Channels, with seeded Bernoulli loss on the data front links.
    InProcess { data_loss: f64 },
    /// `Topology::loopback(..).bind()` with its defaults.
    Sockets,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub replicas: usize,
    pub workers: usize,
    pub data_vars: usize,
    pub links: Links,
    pub filter: FilterKind,
    /// Open-loop offered rate, readings per second, heartbeats included.
    pub paced_rate: u64,
    /// Closed-loop readings per second of phase length: the phase sends
    /// this many times its nominal seconds, however long that takes.
    pub closed_rate: u64,
    /// Updates the traced replay pushes through the chain.
    pub replay_updates: usize,
    conditions: fn() -> Vec<String>,
}

/// Calibrated once on the reference machine (see README.md) to keep
/// 0.6-0.8 of its two cores busy in the paced phase, then frozen.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "eval_fanout",
        replicas: 2,
        workers: 0,
        data_vars: 4,
        links: Links::InProcess { data_loss: 0.0 },
        filter: FilterKind::Ad1,
        paced_rate: 2_400,
        closed_rate: 6_000,
        replay_updates: 40 * CHUNK,
        conditions: fanout_conditions,
    },
    Workload {
        name: "alert_storm",
        replicas: 3,
        workers: 0,
        data_vars: 2,
        links: Links::InProcess { data_loss: 0.10 },
        filter: FilterKind::Ad6,
        paced_rate: 10_000,
        closed_rate: 24_000,
        replay_updates: 400 * CHUNK,
        conditions: storm_conditions,
    },
    Workload {
        name: "socket_ingest",
        replicas: 2,
        workers: 0,
        data_vars: 4,
        links: Links::Sockets,
        filter: FilterKind::Ad2,
        paced_rate: 8_000,
        closed_rate: 40_000,
        replay_updates: 400 * CHUNK,
        conditions: threshold_conditions,
    },
    Workload {
        name: "pipelined",
        replicas: 2,
        workers: 2,
        data_vars: 4,
        links: Links::InProcess { data_loss: 0.0 },
        filter: FilterKind::Ad1,
        paced_rate: 2_400,
        closed_rate: 6_000,
        replay_updates: 40 * CHUNK,
        conditions: fanout_conditions,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// 600 window-16 aggregates, half over `(v0, v1)` and half over
/// `(v2, v3)` so the set also splits over a two-leaf tree plan.
/// Thresholds sit 3.4 to 4.6 standard deviations out (the difference of
/// two 16-sample means of uniform [0, 100) noise has sigma 10.2), which
/// gives about one organic alert per hundred updates.
fn fanout_conditions() -> Vec<String> {
    (0..600)
        .map(|i| {
            let (a, b) = if i % 2 == 0 { ("v0", "v1") } else { ("v2", "v3") };
            let (a, b) = if (i / 2) % 2 == 0 { (a, b) } else { (b, a) };
            let threshold = 31.0 + 0.5 * (i / 4) as f64;
            format!("avg_over({a}, 16) - avg_over({b}, 16) > {threshold:.2}")
        })
        .collect()
}

/// One aggressive (no `consecutive` guard) two-variable degree-2
/// condition that every update satisfies.
fn storm_conditions() -> Vec<String> {
    vec!["v0[0].value + v0[-1].value + v1[0].value + v1[-1].value > -1".to_string()]
}

/// 20 single-variable thresholds, five per variable, firing on 0.1% to
/// 0.5% of uniform [0, 100) readings each.
fn threshold_conditions() -> Vec<String> {
    (0..20).map(|i| format!("v{}[0].value > {:.1}", i % 4, 99.5 + 0.1 * (i / 4) as f64)).collect()
}

/// A workload's compiled condition set; the heartbeat condition is last.
#[derive(Debug, Clone)]
pub struct ConditionSet {
    pub compiled: Vec<CompiledCondition>,
    pub data_vars: Vec<VarId>,
    pub hb: VarId,
    /// Variables of condition `i`, ascending.
    pub cond_vars: Vec<Vec<VarId>>,
}

impl ConditionSet {
    /// The conditions as the runtime registers them (full
    /// `Condition::eval` per arrival).
    pub fn dynamic(&self) -> Vec<Arc<dyn Condition>> {
        self.compiled.iter().map(|c| Arc::new(c.clone()) as Arc<dyn Condition>).collect()
    }

    /// Every variable, data first, heartbeat last: the feed order.
    pub fn vars(&self) -> Vec<VarId> {
        self.data_vars.iter().copied().chain([self.hb]).collect()
    }
}

impl Workload {
    /// Parses and compiles the condition set. Variable ids are the feed
    /// order: `v0..` then `hb`.
    pub fn condition_set(&self) -> ConditionSet {
        let mut registry = VarRegistry::new();
        let data_vars: Vec<VarId> =
            (0..self.data_vars).map(|i| registry.register(&format!("v{i}"))).collect();
        let hb = registry.register("hb");
        let mut sources = (self.conditions)();
        sources.push("hb[0].value > 0".to_string());
        let compiled: Vec<CompiledCondition> = sources
            .iter()
            .map(|s| {
                CompiledCondition::compile(s, &mut registry).expect("workload condition compiles")
            })
            .collect();
        let cond_vars = compiled.iter().map(|c| c.variables()).collect();
        ConditionSet { compiled, data_vars, hb, cond_vars }
    }

    /// The loss model of the front links carrying `var`: the workload's
    /// data loss, never on the heartbeat.
    pub fn loss_on(&self, var: VarId, set: &ConditionSet) -> Box<dyn LossModel> {
        match self.links {
            Links::InProcess { data_loss } if data_loss > 0.0 && var != set.hb => {
                Box::new(Bernoulli::new(data_loss))
            }
            _ => Box::new(Lossless),
        }
    }

    /// A fresh AD filter: one instance of the workload's class per
    /// condition stream. The heartbeat stream alone is passed through
    /// unfiltered: the closed loop must hear from every replica, or the
    /// fastest one's acknowledgements let it overrun the others.
    pub fn filter(&self, set: &ConditionSet) -> Box<dyn AlertFilter> {
        let cond_vars = set.cond_vars.clone();
        let class = self.filter;
        Box::new(PerCondition::new(move |c: CondId| -> Box<dyn AlertFilter> {
            let vars = &cond_vars[c.index() as usize];
            if c.index() as usize == cond_vars.len() - 1 {
                return Box::new(PassThrough::new());
            }
            match class {
                FilterKind::Ad1 => Box::new(Ad1::new()),
                FilterKind::Ad2 => Box::new(Ad2::new(vars[0])),
                FilterKind::Ad6 => Box::new(Ad6::new(vars.iter().copied())),
            }
        }))
    }
}

/// Which feed a reading goes to, by its position in the global stream:
/// every period is `HB_EVERY` data readings dealt round-robin over the
/// data variables, then one heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    pub data_vars: u64,
}

impl Layout {
    pub fn new(data_vars: usize) -> Self {
        assert!(
            data_vars > 0 && HB_EVERY.is_multiple_of(data_vars as u64),
            "data variables must divide the heartbeat period"
        );
        Layout { data_vars: data_vars as u64 }
    }

    /// Feed index of global reading `g`; the heartbeat is the last feed.
    pub fn feed_of(&self, g: u64) -> usize {
        let p = g % PERIOD;
        if p == HB_EVERY {
            self.data_vars as usize
        } else {
            (p % self.data_vars) as usize
        }
    }

    /// Global position of the `seqno`-th reading (1-based, as the DM
    /// numbers them) of feed `feed`: the inverse of [`Layout::feed_of`].
    pub fn position_of(&self, feed: usize, seqno: u64) -> u64 {
        let k = seqno - 1;
        if feed as u64 == self.data_vars {
            return k * PERIOD + HB_EVERY;
        }
        let per_period = HB_EVERY / self.data_vars;
        (k / per_period) * PERIOD + (k % per_period) * self.data_vars + feed as u64
    }
}

/// The seeded reading values, by global position: uniform [0, 100) for
/// data readings, 1 for heartbeats.
pub fn values(seed: u64, layout: Layout, count: u64) -> Vec<f64> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..count)
        .map(|g| {
            if layout.feed_of(g) as u64 == layout.data_vars {
                1.0
            } else {
                (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 * 100.0
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_round_trips_every_position() {
        for data_vars in [2, 4] {
            let layout = Layout::new(data_vars);
            let mut next_seqno = vec![1u64; data_vars + 1];
            for g in 0..(PERIOD * 5) {
                let feed = layout.feed_of(g);
                assert_eq!(layout.position_of(feed, next_seqno[feed]), g);
                next_seqno[feed] += 1;
            }
            // One heartbeat per period, the rest dealt evenly.
            assert_eq!(next_seqno[data_vars], 6);
            assert!(next_seqno[..data_vars]
                .iter()
                .all(|&n| n == 5 * HB_EVERY / data_vars as u64 + 1));
        }
    }

    #[test]
    fn values_repeat_per_seed_and_differ_across_seeds() {
        let layout = Layout::new(4);
        assert_eq!(values(7, layout, 100), values(7, layout, 100));
        assert_ne!(values(7, layout, 100), values(8, layout, 100));
        let v = values(7, layout, 1000);
        assert!(v.iter().enumerate().all(|(g, &x)| if layout.feed_of(g as u64) == 4 {
            x == 1.0
        } else {
            (0.0..100.0).contains(&x)
        }));
    }

    #[test]
    fn every_workload_compiles_with_the_heartbeat_last() {
        for w in &WORKLOADS {
            let set = w.condition_set();
            assert_eq!(set.data_vars.len(), w.data_vars);
            assert_eq!(set.cond_vars.last().unwrap(), &vec![set.hb]);
            assert_eq!(set.vars().len(), w.data_vars + 1);
            // Variable ids are the feed order.
            assert!(set.vars().iter().enumerate().all(|(i, v)| v.index() as usize == i));
            let _ = w.filter(&set);
        }
        assert_eq!(find("eval_fanout").unwrap().condition_set().compiled.len(), 601);
        assert!(find("nope").is_none());
    }
}
