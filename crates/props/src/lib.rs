//! # rcm-props — property checkers for replicated condition monitoring
//!
//! Exact decision procedures for the three correctness properties of
//! *Replicated condition monitoring* (Huang & Garcia-Molina, PODC 2001,
//! §3.1 and Appendix C), evaluated against concrete executions:
//!
//! * **Orderedness** — the displayed alert sequence `A` is ordered with
//!   respect to every variable ([`check_ordered`]);
//! * **Completeness** — `ΦA = ΦT(U1 ⊔ U2)` (single variable,
//!   [`check_complete_single`]) or `ΦA = ΦT(U_V)` for some interleaving
//!   `U_V` of the per-variable ordered unions (multi-variable,
//!   [`check_complete_multi`]);
//! * **Consistency** — `∃ U' ⊑ U1 ⊔ U2` with `ΦA ⊆ ΦT(U')`, one
//!   checker for any number of variables ([`check_consistent_multi`]).
//!
//! The consistency checker uses the `Received`/`Missed` construction
//! from the proof of Theorem 7 per variable, and adds the
//! precedence-graph acyclicity argument of Lemma 5 across variables
//! (over one variable the graph is the witness stream, with no cycle).
//! The checkers are cross-validated in the test suite against the
//! brute-force oracles in [`brute`], which literally enumerate
//! `U' ⊑ U1 ⊔ U2` (and, for multi-variable systems, all
//! interleavings).
//!
//! The crate also implements the paper's §4.1 *domination* relation
//! between AD algorithms ([`domination`]) and an empirical probe for
//! the maximality theorems 5, 7 and 9 ([`maximality`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod brute;
pub mod domination;
#[cfg(test)]
mod equivalence;
pub mod maximality;
mod multi;
mod ordered;
mod single;
mod util;

pub use multi::{check_complete_multi, check_consistent_multi, MULTI_ENUM_CAP};
pub use ordered::{check_ordered, OrderedReport};
pub use single::check_complete_single;
pub use util::{merge_all_single, merge_per_var, CompleteReport, ConsistentReport};
