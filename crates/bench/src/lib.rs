//! # pqos-bench
//!
//! Experiment harness for the DSN 2005 *Probabilistic QoS Guarantees*
//! reproduction: scenario definitions, a multi-threaded sweep driver, and
//! the table builders that regenerate every table and figure of the
//! paper's evaluation (run `cargo run --release -p pqos-bench --bin
//! experiments -- all`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod scenario;

pub use scenario::{standard_log, ScenarioResult};
