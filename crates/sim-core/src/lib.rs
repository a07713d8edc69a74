//! # pqos-sim-core
//!
//! Discrete-event simulation kernel for the *Probabilistic QoS Guarantees
//! for Supercomputing Systems* (DSN 2005) reproduction.
//!
//! This crate is the substrate everything else stands on:
//!
//! * [`time`] — integer virtual time ([`time::SimTime`], [`time::SimDuration`]);
//! * [`queue`] — a future-event list with deterministic FIFO tie-breaking;
//! * [`rng`] — a seeded, forkable PRNG plus the distributions needed by the
//!   synthetic workload and failure-trace generators (exponential,
//!   log-normal, Weibull, bounded Pareto, ...);
//! * [`stats`] — streaming mean and variance (Welford);
//! * [`table`] — plain-text/CSV table rendering for the experiment harness.
//!
//! # Examples
//!
//! A tiny event-driven loop:
//!
//! ```
//! use pqos_sim_core::queue::EventQueue;
//! use pqos_sim_core::time::{SimTime, SimDuration};
//!
//! #[derive(Debug)]
//! enum Ev { Ping(u32) }
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::ZERO, Ev::Ping(0));
//! let mut fired = 0;
//! while let Some((now, Ev::Ping(k))) = q.pop() {
//!     fired += 1;
//!     if k < 3 {
//!         q.push(now + SimDuration::from_secs(10), Ev::Ping(k + 1));
//!     }
//! }
//! assert_eq!(fired, 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod queue;
pub mod rng;
pub mod stats;
pub mod table;
pub mod time;
