//! # pqos-service
//!
//! The paper's negotiation protocol, served live: a TCP daemon
//! (`pqos-qosd`) that quotes (deadline, probability) pairs to concurrent
//! clients, and a load generator (`pqos-loadgen`) that drives it with
//! synthetic NASA/SDSC arrival streams and reports quote throughput and
//! latency percentiles.
//!
//! The trace simulator in `pqos-core` answers "what QoS would this system
//! have delivered on a recorded week?"; this crate answers "can the same
//! negotiation machinery keep its promises *online*, under concurrent
//! request pressure?" Three design rules make that tractable without any
//! async runtime:
//!
//! 1. **Single-writer state.** One thread owns the
//!    [`NegotiationSession`](pqos_core::session::NegotiationSession)s —
//!    reservation book, predictor, virtual clock, journal. In the daemon
//!    it is the net event loop's own thread: the requests one loop pass
//!    reads are ticked through the [`engine`] at the end of that pass and
//!    answered in its write, with no hand-off to another thread. A pass
//!    hands the engine at most `queue_depth` requests, so overload is an
//!    explicit `overloaded` response instead of a lock convoy or an
//!    unbounded queue. (In-process callers drive the same engine body on
//!    a thread of its own, through a bounded channel.)
//! 2. **Batched quoting.** The engine coalesces all of a tick's
//!    `negotiate` verbs into one
//!    [`negotiate_batch`](pqos_core::negotiate::negotiate_batch) call
//!    fanned out across threads against a single book snapshot. Quoting is
//!    read-only, so batched quotes are *identical* to serial ones — a
//!    guarantee a session can re-check at runtime
//!    ([`NegotiationSession::verify_parity`](pqos_core::session::NegotiationSession::verify_parity),
//!    sampled by [`EngineConfig::parity_sample`](engine::EngineConfig))
//!    and the property suite checks offline.
//! 3. **JSON-lines protocol.** One request object per line, one response
//!    per request, correlated by caller-chosen `id` so clients can
//!    pipeline. Malformed input gets a `bad_request` response, never a
//!    disconnect or a panic — the parser is the same fuzz-hardened one the
//!    journal uses.
//!
//! The daemon also carries its own observability plane (this crate's
//! `flight`, `metrics_http`, and `scrape` modules): every request line
//! can open a [`TraceCtx`] whose stage latencies
//! (parse → queue → batch → compute → write) land in per-verb histograms
//! and in the [`FlightRecorder`]'s ring; a
//! hand-rolled `/metrics` listener exposes the whole registry in
//! Prometheus text format; and `pqos-top` renders the scrape as a live
//! one-screen status display.
//!
//! See `DESIGN.md` ("The online service", "Monitoring the daemon") for
//! the wire protocol and threading model, and the README for a runnable
//! walkthrough.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod flight;
pub mod loadgen;
pub mod metrics_http;
pub mod protocol;
pub mod record;
pub mod replay;
pub mod scrape;
pub mod server;
pub mod shard;
pub mod sweep;
pub mod tick;

pub use engine::{EngineConfig, EngineHandle, EngineMonitor};
pub use flight::{FlightRecorder, TraceCtx};
pub use loadgen::{LoadgenConfig, LoadgenReport};
pub use protocol::{ErrorCode, Request, Response};
pub use record::{SharedBuf, TraceRecorder};
pub use replay::{replay, ReplayOptions, ReplayReport};
pub use server::{serve, RecordConfig, ServerConfig};
pub use shard::{partition_spans, MergedAvailabilityView, ShardSpan, ShardedCore};
pub use tick::{build_core, EngineCore};
