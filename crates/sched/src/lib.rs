//! # pqos-sched
//!
//! Fault-aware job scheduling for the DSN 2005 *Probabilistic QoS
//! Guarantees* reproduction: FCFS with conservative backfilling, where
//! every job receives a concrete `(partition, interval)` commitment and the
//! event predictor breaks ties among otherwise-equivalent placements.
//!
//! * [`reservation`] — the [`reservation::ReservationBook`] availability
//!   profile: commitments, conflict detection, hole enumeration
//!   ([`reservation::ReservationBook::earliest_slots`]), kept as a
//!   chunked timeline of busy-node rows that mutations patch in place and
//!   a skip-indexed sliding-union walk reads directly, with a
//!   scan-everything [`reservation::NaiveReservationBook`] kept as the
//!   executable specification the property tests compare against (no
//!   production path uses it);
//! * [`cache`] — the quote cache ([`cache::CachedReservationBook`]):
//!   memoized walks with span-based delta-invalidation, so a repeated
//!   probe costs a hash lookup and an unrelated admission leaves it warm;
//! * [`place`] — fault-aware partition selection
//!   ([`place::choose_partition`]) minimizing the predicted failure
//!   probability `pf`, with a prediction-blind first-fit baseline.
//!
//! The *policy loop* — negotiation, promises, re-queuing after failures —
//! lives in `pqos-core`; this crate supplies the mechanisms. Every item is
//! reached through its module; the crate root re-exports nothing.
//!
//! # Examples
//!
//! ```
//! use pqos_predict::api::NullPredictor;
//! use pqos_sched::place::{choose_partition, PlacementStrategy};
//! use pqos_sched::reservation::ReservationBook;
//! use pqos_sim_core::time::{SimDuration, SimTime, TimeWindow};
//! use pqos_cluster::topology::Topology;
//!
//! let book = ReservationBook::new(128);
//! let slots = book.earliest_slots(32, SimDuration::from_secs(600), SimTime::ZERO, &[], 1);
//! let window = TimeWindow::starting_at(slots[0].start, SimDuration::from_secs(600));
//! let choice = choose_partition(
//!     Topology::Flat, &slots[0].free, 32, window,
//!     &NullPredictor, PlacementStrategy::MinFailureProbability,
//! ).unwrap();
//! assert_eq!(choice.partition.len(), 32);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod place;
pub mod reservation;
