//! Sequence mathematics from the paper's §2.2.
//!
//! The paper reasons about sequences of natural numbers (update and
//! alert sequence numbers):
//!
//! * a sequence is **ordered** if its elements appear in non-decreasing
//!   order ([`is_ordered`]);
//! * `ΦS` is the unordered **set** of a sequence's elements;
//! * `S1 ⊑ S2` is the **subsequence** relation ([`is_subsequence`]);
//! * `S1 ⊔ S2` is the **ordered union** of two ordered sequences, with
//!   duplicates removed (`rcm_props::merge_all_single` over update
//!   sequences);
//! * `Π_x U` projects the seqnos of `x`-updates out of a mixed update
//!   sequence, and `Π_x A` the `a.seqno.x` values out of an alert
//!   sequence ([`project_alerts`]);
//! * `SpanningSet(s)` is the set of consecutive integers between the
//!   smallest and largest elements of `s` ([`spanning_set`]), used by
//!   Algorithm AD-3.
//!
//! The interleavings `U_V` of the multi-variable definitions (paper
//! Appendix C) are enumerated where they are checked, by `rcm-props`.
//!
//! [`IntervalSet`] is the runtime counterpart of these set operations:
//! a seqno set stored as sorted inclusive runs, used by the AD-3/AD-6
//! consistency bookkeeping so long-running monitors don't accumulate
//! one tree node per update ever seen.

mod intervals;
mod ops;
mod project;

pub use intervals::IntervalSet;
#[cfg(test)]
pub(crate) use ops::is_strictly_ordered;
pub use ops::{inversions, is_ordered, is_subsequence, spanning_gaps, spanning_set};
pub use project::project_alerts;
