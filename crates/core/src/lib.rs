//! # pqos-core
//!
//! Reproduction of *Probabilistic QoS Guarantees for Supercomputing
//! Systems* (Oliner, Rudolph, Sahoo, Moreira, Gupta — DSN 2005): a
//! supercomputing control system that makes promises of the form "job `j`
//! can be completed by deadline `d` with probability `p`", backed by event
//! prediction, fault-aware scheduling, and cooperative checkpointing.
//!
//! * [`config`] — simulation configuration (the paper's Table 2 defaults);
//! * [`user`] — simulated user risk strategies (parameter `U`, Eq. 3);
//! * [`negotiate`] — the deadline/probability dialog between system and
//!   user;
//! * [`metrics`] — QoS (Eq. 2), utilization, and lost work;
//! * [`system`] — the event-driven trace simulator tying everything to the
//!   `pqos-*` substrate crates;
//! * [`lifecycle`] — the served quote → accept → run → "finished by *d*"
//!   state machine (job table, timers, counters, journal), generic over
//!   what an accepted job holds in the books;
//! * [`session`] — a reservation book, a predictor and a [`lifecycle`]
//!   whose commitment is one reservation: what an online service drives
//!   request-by-request (its cross-shard coordinator runs the same
//!   lifecycle over per-shard slices).
//!
//! # Quickstart
//!
//! ```
//! use pqos_core::config::SimConfig;
//! use pqos_core::system::QosSimulator;
//! use pqos_core::user::UserStrategy;
//! use pqos_failures::synthetic::AixLikeTrace;
//! use pqos_workload::synthetic::{LogModel, SyntheticLog};
//! use std::sync::Arc;
//!
//! let log = SyntheticLog::new(LogModel::SdscSp2).jobs(200).seed(7).build();
//! let trace = Arc::new(AixLikeTrace::new().days(90.0).seed(7).build());
//! let config = SimConfig::paper_defaults()
//!     .accuracy(0.7)
//!     .user(UserStrategy::risk_threshold(0.5).unwrap());
//! let output = QosSimulator::new(config, log, trace).run();
//! println!("{}", output.report);
//! assert!(output.report.qos > 0.0 && output.report.qos <= 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod lifecycle;
pub mod metrics;
pub mod negotiate;
pub mod session;
pub mod system;
pub mod user;
