//! Workspace automation tasks (`cargo xtask …`).
//!
//! The crate is dependency-free by design: everything here builds with
//! `std` alone so the analyzer can run in hermetic environments (no
//! registry access) and stays fast enough to gate CI.

pub mod ab;
pub mod analyze;
pub mod ast;
pub mod lexer;
pub mod lock_order;
pub mod manifest;
pub mod parser;
pub mod passes;
pub mod reach;
pub mod schedstat;
pub mod topology;
