//! Alert Displayer filtering algorithms (paper Appendix A).
//!
//! The Alert Displayer merges the alert streams of the replicated CEs
//! into one arrival sequence and runs a *filtering algorithm* over it;
//! the survivors form the final sequence `A` shown to the user. The
//! choice of algorithm determines which of the paper's three properties
//! the replicated system has:
//!
//! | Algorithm | Guarantees | Paper |
//! |-----------|------------|-------|
//! | [`Ad1`] | removes exact duplicates only | Fig. A-1 |
//! | [`Ad5`] | orderedness; over one variable AD-2 (maximal, Thm 5) | Figs. A-5, A-2 |
//! | [`Ad3`] | consistency, single variable (maximal, Thm 7); per variable only over several | Fig. A-3 |
//! | [`Ad6`] | orderedness ∧ consistency; over one variable AD-4 (maximal, Thm 9) | Figs. A-6, A-4 |
//!
//! Each guarantee has one filter over a variable set, and the paper's
//! single-variable algorithms are those filters over one variable:
//! [`Ad2::new`]`(x)` is `Ad5::new([x])`, [`Ad4::new`]`(x)` is
//! `Ad6::new([x])`, and `Ad3::new([x])` is AD-3. [`AlertFilter::name`]
//! follows the variable count ("AD-2"/"AD-5", "AD-3"/"AD-3/multi",
//! "AD-4"/"AD-6").
//!
//! [`PassThrough`] (no filtering) and [`DropAll`] (the trivially
//! ordered-and-consistent filter from §4.1 that displays nothing)
//! bracket the design space; [`PerCondition`] demultiplexes
//! multi-condition systems (Appendix D).
//!
//! Variants beyond the paper's pseudo-code:
//!
//! * [`Ad1Digest`] — AD-1 remembering only a checksum per alert (the
//!   paper's §2 wire-size remark);
//! * [`DelayedOrdered`] — the §4.2 "delayed displaying" alternative,
//!   implemented so its trade-off can be measured;
//! * [`Ad3`] over several variables — AD-6 with its AD-5 half removed,
//!   an ablation showing per-variable consistency bookkeeping alone
//!   cannot exclude Theorem 10's interleaving cycles.
//!
//! Every paper filter (and [`Ad1Digest`]) checkpoints on its default
//! bookkeeping: `to_json` writes its state as an
//! [`rcm_json::Json`] and `from_json` reads it back, so a displayer can
//! restart without forgetting what it promised the user.
//!
//! The consistency filters ([`Ad3`], [`Ad6`]) are generic
//! over their received/missed bookkeeping ([`ConsistencyState`]): the
//! default [`VarConsistency`] stores both sets as sorted interval runs
//! for O(log runs) offers and gap-proportional memory, while
//! [`BTreeConsistency`] retains the per-seqno reference logic for
//! validation.
//!
//! All filters implement [`AlertFilter`]; [`apply_filter`] runs one
//! over a merged arrival sequence.

mod ad1;
mod ad2;
mod ad3;
mod ad3multi;
mod ad4;
mod ad5;
mod ad6;
mod delayed;
mod demux;
mod digest;
mod reference;

pub use ad1::Ad1;
pub use ad2::Ad2;
pub use ad3::{Ad3, BTreeConsistency, ConsistencyState, VarConsistency};
pub use ad4::Ad4;
pub use ad5::Ad5;
pub use ad6::Ad6;
pub use delayed::{DelayedOrdered, LatePolicy};
pub use demux::PerCondition;
pub use digest::{Ad1Digest, HistoryDigest};
pub use reference::{DropAll, PassThrough};

use std::collections::{BTreeMap, HashSet};
use std::fmt;

use rcm_json::Json;

use crate::alert::{Alert, CondId};
use crate::update::SeqNo;
use crate::var::VarId;

/// Why a filter discarded an alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiscardReason {
    /// An identical alert (same condition and histories) was already
    /// displayed.
    Duplicate,
    /// Displaying the alert would make the output unordered with
    /// respect to some variable.
    OutOfOrder,
    /// Displaying the alert would require an update to be in a
    /// conflicting received/missed state (AD-3's test).
    Conflict,
    /// The filter unconditionally discards (only [`DropAll`]).
    Policy,
}

impl fmt::Display for DiscardReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiscardReason::Duplicate => write!(f, "duplicate"),
            DiscardReason::OutOfOrder => write!(f, "out of order"),
            DiscardReason::Conflict => write!(f, "conflicting state"),
            DiscardReason::Policy => write!(f, "policy"),
        }
    }
}

/// A filter's verdict on one arriving alert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Decision {
    /// Append the alert to the output sequence `A`.
    Deliver,
    /// Discard the alert.
    Discard(DiscardReason),
}

impl Decision {
    /// Whether the alert should be displayed.
    pub fn is_deliver(self) -> bool {
        matches!(self, Decision::Deliver)
    }
}

impl fmt::Display for Decision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Decision::Deliver => write!(f, "deliver"),
            Decision::Discard(r) => write!(f, "discard ({r})"),
        }
    }
}

/// An Alert Displayer filtering algorithm.
///
/// Filters are *online*: they see alerts one at a time in arrival order
/// and must decide immediately (the paper rules out "delayed
/// displaying" because unbounded system delays would make timeouts
/// unsound — §4.2).
pub trait AlertFilter: fmt::Debug + Send {
    /// Algorithm name for reports ("AD-1", "AD-2", …).
    fn name(&self) -> &'static str;

    /// Decides whether to display the arriving alert, updating internal
    /// state when the decision is [`Decision::Deliver`].
    fn offer(&mut self, alert: &Alert) -> Decision;

    /// Clears all internal state, as if freshly constructed.
    fn reset(&mut self);
}

impl<F: AlertFilter + ?Sized> AlertFilter for Box<F> {
    fn name(&self) -> &'static str {
        (**self).name()
    }
    fn offer(&mut self, alert: &Alert) -> Decision {
        (**self).offer(alert)
    }
    fn reset(&mut self) {
        (**self).reset()
    }
}

/// Runs `arrivals` (the merged alert streams, in arrival order at the
/// AD) through `filter`, returning the displayed sequence `A`.
pub fn apply_filter<F: AlertFilter + ?Sized>(filter: &mut F, arrivals: &[Alert]) -> Vec<Alert> {
    arrivals.iter().filter(|a| filter.offer(a).is_deliver()).cloned().collect()
}

/// The filter a node binary names on its command line: `pass`, `ad1`,
/// `ad2`, `ad3`, `ad4` (these three over exactly one variable), `ad5` or
/// `ad6`, over `vars`. `None` for an unknown name or a single-variable
/// filter asked for some other number of variables.
pub fn by_name(name: &str, vars: &[VarId]) -> Option<Box<dyn AlertFilter>> {
    Some(match (name, vars) {
        ("pass", _) => Box::new(PassThrough::new()),
        ("ad1", _) => Box::new(Ad1::new()),
        ("ad2", &[var]) => Box::new(Ad2::new(var)),
        ("ad3", &[var]) => Box::new(Ad3::new([var])),
        ("ad4", &[var]) => Box::new(Ad4::new(var)),
        ("ad5", _) => Box::new(Ad5::new(vars.to_vec())),
        ("ad6", _) => Box::new(Ad6::new(vars.to_vec())),
        _ => return None,
    })
}

/// `Err` naming `name` when it is none of [`by_name`]'s filters, each of
/// which runs on one variable.
pub fn known(name: &str) -> Result<(), String> {
    by_name(name, &[VarId::new(0)]).map(drop).ok_or_else(|| format!("unknown filter '{name}'"))
}

/// [`by_name`]'s filter for condition `cond`, which reads `vars`; the
/// error, when `by_name` has none, is [`known`]'s or names the filter and
/// the condition.
pub fn for_condition(
    name: &str,
    cond: CondId,
    vars: &[VarId],
) -> Result<Box<dyn AlertFilter>, String> {
    known(name)?;
    by_name(name, vars).ok_or_else(|| {
        let n = vars.len();
        format!("filter '{name}' unavailable for this variable count (condition {cond} reads {n})")
    })
}

/// [`for_condition`]'s filters run once per condition (paper Appendix
/// D), each made at its condition's first alert over the variables that
/// alert's fingerprint names. `refused` gets the error of a condition
/// the filter cannot run, and its filter runs that condition instead.
pub fn per_condition(
    name: String,
    mut refused: impl FnMut(String) -> Box<dyn AlertFilter> + Send,
) -> PerCondition<Box<dyn AlertFilter>, impl FnMut(&Alert) -> Box<dyn AlertFilter> + Send> {
    PerCondition::at_first_alert(move |first: &Alert| {
        let vars: Vec<VarId> = first.fingerprint.variables().collect();
        for_condition(&name, first.cond, &vars).unwrap_or_else(&mut refused)
    })
}

/// A `seen` set as a checkpoint list (in no particular order).
fn alerts_to_json(seen: &HashSet<Alert>) -> Json {
    seen.iter().map(Alert::to_json).collect()
}

fn alerts_from_json(j: &Json) -> rcm_json::Result<HashSet<Alert>> {
    j.arr()?.iter().map(Alert::from_json).collect()
}

/// An AD-5 watermark: a seqno, or `null` before the first delivery.
fn watermark_from_json(j: &Json) -> rcm_json::Result<Option<SeqNo>> {
    match j {
        Json::Null => Ok(None),
        s => s.u64().map(|n| Some(SeqNo::new(n))),
    }
}

/// One `init()` per variable of `vars`, as the filters over a variable
/// set hold their state.
///
/// # Panics
///
/// Panics if `vars` is empty or contains duplicates.
fn var_map<T>(vars: impl IntoIterator<Item = VarId>, init: impl Fn() -> T) -> BTreeMap<VarId, T> {
    let mut map = BTreeMap::new();
    for v in vars {
        let prev = map.insert(v, init());
        assert!(prev.is_none(), "duplicate variable {v} in a filter's variable set");
    }
    assert!(!map.is_empty(), "a filter needs at least one variable");
    map
}

/// Per-variable state as `[[var, state], …]`, in variable order.
fn per_var_to_json<T>(map: &BTreeMap<VarId, T>, state: impl Fn(&T) -> Json) -> Json {
    map.iter().map(|(v, t)| Json::Arr(vec![v.index().into(), state(t)])).collect()
}

/// Inverse of [`per_var_to_json`]; refuses an empty list and a
/// variable listed twice, as the filters' constructors do.
fn per_var_from_json<T>(
    j: &Json,
    state: impl Fn(&Json) -> rcm_json::Result<T>,
) -> rcm_json::Result<BTreeMap<VarId, T>> {
    let mut map = BTreeMap::new();
    for entry in j.arr()? {
        let [var, t] = entry.arr()? else {
            return Err(rcm_json::Error::new("a per-variable entry is a [var, state] pair"));
        };
        let var = VarId::new(var.u32()?);
        if map.insert(var, state(t)?).is_some() {
            return Err(rcm_json::Error::new(format!("variable {var} listed twice")));
        }
    }
    if map.is_empty() {
        return Err(rcm_json::Error::new("a filter needs at least one variable"));
    }
    Ok(map)
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::alert::{Alert, AlertId, CeId, CondId, HistoryFingerprint};
    use crate::update::SeqNo;
    use crate::var::VarId;

    /// Single-variable alert on `v0` with the given newest-first seqnos.
    pub fn alert1(seqnos: &[u64]) -> Alert {
        Alert::new(
            CondId::SINGLE,
            HistoryFingerprint::single(
                VarId::new(0),
                seqnos.iter().map(|&s| SeqNo::new(s)).collect(),
            ),
            vec![],
            AlertId { ce: CeId::new(0), index: 0 },
        )
    }

    /// Two-variable alert with degree-1 histories `(x_seq, y_seq)`.
    pub fn alert2(x_seq: u64, y_seq: u64) -> Alert {
        Alert::new(
            CondId::SINGLE,
            HistoryFingerprint::new(vec![
                (VarId::new(0), vec![SeqNo::new(x_seq)]),
                (VarId::new(1), vec![SeqNo::new(y_seq)]),
            ]),
            vec![],
            AlertId { ce: CeId::new(0), index: 0 },
        )
    }

    /// Like [`alert1`] but for an explicit condition id.
    pub fn alert_cond(cond: u32, seqnos: &[u64]) -> Alert {
        alert1(seqnos).with_cond(CondId::new(cond))
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::alert1;
    use super::*;

    #[test]
    fn decision_helpers() {
        assert!(Decision::Deliver.is_deliver());
        assert!(!Decision::Discard(DiscardReason::Duplicate).is_deliver());
        assert_eq!(Decision::Deliver.to_string(), "deliver");
        assert_eq!(
            Decision::Discard(DiscardReason::OutOfOrder).to_string(),
            "discard (out of order)"
        );
    }

    #[test]
    fn apply_filter_threads_state() {
        let mut f = Ad1::new();
        let out = apply_filter(&mut f, &[alert1(&[1]), alert1(&[1]), alert1(&[2])]);
        assert_eq!(out.len(), 2);
    }

    /// Each condition's filter is made over the variables of its own
    /// first alert: `ad2` runs c0 over v0 and c1 over v1, and a
    /// condition over both is refused, once, with a line naming it. An
    /// unknown name is refused as such, whatever the variables.
    #[test]
    fn per_condition_makes_each_filter_over_its_first_alerts_variables() {
        use super::testutil::{alert2, alert_cond};
        use crate::alert::{AlertId, CeId, HistoryFingerprint};
        let on_v1 = |cond: u32, s: u64| {
            let fp = HistoryFingerprint::single(VarId::new(1), vec![SeqNo::new(s)]);
            Alert::new(CondId::new(cond), fp, vec![], AlertId { ce: CeId::new(0), index: 0 })
        };
        let mut refusals = Vec::new();
        let mut ad = per_condition("ad2".into(), |why| {
            refusals.push(why);
            Box::new(DropAll::new())
        });
        assert!(ad.offer(&alert_cond(0, &[2])).is_deliver());
        assert!(!ad.offer(&alert_cond(0, &[1])).is_deliver()); // out of order on v0
        assert!(ad.offer(&on_v1(1, 1)).is_deliver()); // c1 runs over v1
        assert!(!ad.offer(&alert2(3, 3).with_cond(CondId::new(2))).is_deliver());
        assert!(!ad.offer(&alert2(4, 4).with_cond(CondId::new(2))).is_deliver());
        drop(ad);
        let want = "filter 'ad2' unavailable for this variable count (condition c2 reads 2)";
        assert_eq!(refusals, [want]);
        let unknown = for_condition("ad7", CondId::new(0), &[VarId::new(0)]).err();
        assert_eq!(unknown.as_deref(), Some("unknown filter 'ad7'"));
        assert_eq!(known("ad7"), Err(unknown.unwrap_or_default()));
    }

    #[test]
    fn filters_are_found_by_name() {
        let (x, y) = (VarId::new(0), VarId::new(1));
        let name = |n, vars: &[VarId]| by_name(n, vars).map(|f| f.name());
        assert_eq!(name("pass", &[x]), Some(PassThrough::new().name()));
        for (n, want) in [("ad1", "AD-1"), ("ad2", "AD-2"), ("ad3", "AD-3"), ("ad4", "AD-4")] {
            assert_eq!(name(n, &[x]), Some(want), "{n}");
        }
        for (n, want) in [("ad5", "AD-5"), ("ad6", "AD-6")] {
            assert_eq!(name(n, &[x, y]), Some(want), "{n}");
        }
        for n in ["ad2", "ad3", "ad4"] {
            assert_eq!(name(n, &[x, y]), None, "{n} over two variables");
        }
        // The name follows the variable count, not the constructor.
        assert_eq!(Ad5::new([x]).name(), "AD-2");
        assert_eq!(Ad6::new([x]).name(), "AD-4");
        assert_eq!(Ad3::new([x]).name(), "AD-3");
        assert_eq!(Ad3::new([x, y]).name(), "AD-3/multi");
        assert_eq!(name("ad7", &[x]), None);
    }

    #[test]
    fn boxed_filters_forward() {
        let mut f: Box<dyn AlertFilter> = Box::new(Ad1::new());
        assert_eq!(f.name(), "AD-1");
        assert!(f.offer(&alert1(&[1])).is_deliver());
        assert!(!f.offer(&alert1(&[1])).is_deliver());
        f.reset();
        assert!(f.offer(&alert1(&[1])).is_deliver());
    }
}
