//! Experiment harnesses regenerating every table and figure of the
//! paper, plus the ablation studies DESIGN.md calls out.
//!
//! Each experiment is a library function returning a typed result with
//! a `Display` that prints the paper-style rows/series; the `repro`
//! binary dispatches one subcommand per experiment. Tests exercise
//! scaled-down versions of each harness so the claimed relationships
//! are verified in CI, not just eyeballed.

pub mod bench;
pub mod experiments;
pub mod fmt;
pub mod lease;
pub mod runner;

pub use experiments::scale::Scale;
