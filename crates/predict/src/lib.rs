//! # pqos-predict
//!
//! Event prediction (forecasting) for the DSN 2005 *Probabilistic QoS
//! Guarantees* reproduction.
//!
//! * [`api`] — the [`api::Predictor`] trait and the no-forecasting
//!   [`api::NullPredictor`] baseline;
//! * [`oracle`] — the paper's deterministic trace oracle with tunable
//!   accuracy `a` (zero false positives, false-negative rate `1 − a`,
//!   never returns `pf > a`);
//! * [`online`] — practical online predictors (decayed-rate and
//!   precursor-pattern models) standing in for the Sahoo et al. mechanism;
//! * [`eval`] — sliding-window recall/precision evaluation;
//! * [`instrument`] — a transparent telemetry-counting wrapper.
//!
//! # Examples
//!
//! ```
//! use pqos_failures::synthetic::AixLikeTrace;
//! use pqos_predict::api::Predictor;
//! use pqos_predict::oracle::TraceOracle;
//! use pqos_sim_core::time::{SimDuration, SimTime, TimeWindow};
//! use std::sync::Arc;
//!
//! let trace = Arc::new(AixLikeTrace::new().days(30.0).seed(1).build());
//! let oracle = TraceOracle::new(trace, 0.7)?;
//! let window = TimeWindow::starting_at(SimTime::ZERO, SimDuration::from_days(30));
//! let nodes: Vec<_> = (0..128).map(pqos_cluster::node::NodeId::new).collect();
//! let pf = oracle.failure_probability(&nodes, window);
//! assert!(pf <= 0.7);
//! # Ok::<(), pqos_predict::oracle::AccuracyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod eval;
pub mod instrument;
pub mod online;
pub mod oracle;
