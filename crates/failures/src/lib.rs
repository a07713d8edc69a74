//! # pqos-failures
//!
//! Failure substrate for the DSN 2005 *Probabilistic QoS Guarantees*
//! reproduction: the raw RAS event model, the severity/temporal/spatial
//! filtering pipeline the paper used to derive its failure traces, synthetic
//! AIX-cluster-like trace generation, and the per-failure static
//! detectability consumed by the trace-oracle predictor.
//!
//! * [`event`] — raw events and filtered failure records;
//! * [`filter`] — the three-stage filtering pipeline;
//! * [`trace`] — indexed, detectability-annotated failure traces;
//! * [`synthetic`] — calibrated generators (bursty, lemon-heavy);
//! * [`io`] — a plain-text interchange format for real failure traces.
//!
//! # Examples
//!
//! ```
//! use pqos_failures::synthetic::AixLikeTrace;
//!
//! let trace = AixLikeTrace::new().days(365.0).seed(42).build();
//! assert!(trace.len() > 500);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod filter;
pub mod io;
pub mod synthetic;
pub mod trace;
