//! # pqos-ckpt
//!
//! Cooperative checkpointing for the DSN 2005 *Probabilistic QoS
//! Guarantees* reproduction.
//!
//! * [`policy`] — the gating policies: [`policy::NoCheckpointing`],
//!   [`policy::Periodic`], the paper's risk-based Eq. 1
//!   ([`policy::RiskBased`]), the conservative hybrid
//!   ([`policy::RiskBasedWithDefault`]) and the prior-weighted variant
//!   ([`policy::RiskBasedWithPrior`]). The deadline override of §3.4 is
//!   not a policy: [`policy::decide_with_deadline`], which the simulator
//!   calls, skips any request whose [`policy::DeadlinePressure`] is
//!   `SkipToMeet` before asking one;
//! * [`model`] — checkpoint arithmetic (`Ej` from `ej`, `I`, `C`) and
//!   Young's optimal interval for the ablation.
//!
//! # Examples
//!
//! ```
//! use pqos_ckpt::policy::{CheckpointContext, CheckpointDecision, CheckpointPolicy,
//!                         DeadlinePressure, RiskBased};
//! use pqos_sim_core::time::{SimDuration, SimTime};
//!
//! let ctx = CheckpointContext {
//!     now: SimTime::from_secs(7200),
//!     interval: SimDuration::from_secs(3600),
//!     overhead: SimDuration::from_secs(720),
//!     skipped_since_last: 1,
//!     failure_probability: 0.15,
//!     baseline_failure_probability: 0.0,
//!     deadline_pressure: DeadlinePressure::None,
//! };
//! // 0.15 · 2·3600 = 1080 ≥ 720 → perform.
//! assert_eq!(RiskBased.decide(&ctx), CheckpointDecision::Perform);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod model;
pub mod policy;
