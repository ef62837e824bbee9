//! A small expression language for conditions.
//!
//! The paper treats a condition as "an expression defined on values of
//! real world variables" (§2). This module provides exactly that: a
//! parsed, type-checked expression language over update histories, so
//! monitoring conditions can be written as text:
//!
//! ```text
//! x[0].value > 3000                                  # c1
//! x[0].value - x[-1].value > 200                     # c2 (aggressive)
//! x[0].value - x[-1].value > 200 && consecutive(x)   # c3 (conservative)
//! abs(x[0].value - y[0].value) > 100                 # cm (two variables)
//! ```
//!
//! Terms address history entries with the paper's indexing: `x[0]` is
//! `H_x[0]` (most recent update), `x[-1]` is `H_x[-1]`, and so on; each
//! term selects `.value` or `.seqno`. The special predicate
//! `consecutive(x)` is true iff `H_x`'s seqnos have no gap — the
//! building block of conservative triggering.
//!
//! [`CompiledCondition::compile`] reads the text once: it parses it,
//! resolving variable names against a [`VarRegistry`](crate::VarRegistry)
//! as they are read, type-checks the tree, and derives the paper's
//! static classification automatically:
//!
//! * the **variable set** and per-variable **degree** (max history index
//!   used + 1);
//! * **conservative vs aggressive** triggering, by checking that every
//!   historical variable is guarded by a top-level `consecutive(...)`
//!   conjunct. The classification is syntactic and sound: a condition
//!   classified conservative is semantically conservative; a condition
//!   that is "accidentally" conservative through value arithmetic may be
//!   classified aggressive.

mod analysis;
mod ast;
mod compiled;
mod lexer;
mod parser;
pub(crate) mod store;

pub use analysis::{ExprInfo, Ty};
pub use ast::{AggOp, BinOp, Expr, Field, UnOp};
pub use compiled::CompiledCondition;
pub use parser::{parse, ParseError};
