//! Observability substrate for the QoS simulator: a structured event
//! journal plus a metrics registry.
//!
//! The paper's claims (negotiated QoS per Eq. 2, risk-based checkpoint
//! skips per Eq. 1, fault-aware placement) were previously visible only as
//! end-of-run aggregates. This crate records the *individual decisions*:
//! each simulator action emits a typed [`TelemetryEvent`] into configurable
//! sinks, and hot paths bump named metrics. A disabled [`Telemetry`] handle
//! (the default) costs one branch per site, so simulation results and
//! performance are unchanged unless observability is requested.
//!
//! # Event schema
//!
//! A journal is JSONL: one JSON object per line, with an `event` tag and a
//! sim-time stamp `at` (seconds since the simulated epoch). Identifiers are
//! plain integers. The schema itself is one declarative table in
//! [`event`]: each row names a variant, its wire tag and its fields, and
//! the enum, its encoder and decoder and the per-kind accounting
//! ([`TelemetryEvent::kind_names`]) are generated from it. The closed
//! value sets (`reason`, `verdict`, `state`) are [`wire_enum!`]s, each
//! name written once. The variants and their extra fields, in schema
//! order (a test holds this table to the schema):
//!
//! | `event`              | fields                                                              |
//! |----------------------|---------------------------------------------------------------------|
//! | `job_submitted`      | `job`, `size` (nodes), `runtime_secs`                               |
//! | `quote_negotiated`   | `job`, `start_secs`, `promised_secs`, `deadline_secs` (promise + slack), `success_probability` (Eq. 2) |
//! | `job_rejected`       | `job`                                                               |
//! | `job_placed`         | `job`, `nodes` (array), `failure_probability` (placement window)    |
//! | `job_started`        | `job`, `restarts` (0 on first start)                                |
//! | `checkpoint_requested` | `job`                                                             |
//! | `checkpoint_taken`   | `job`, `overhead_secs`                                              |
//! | `checkpoint_skipped` | `job`, `reason` (`low_risk` \| `deadline_pressure` \| `policy`), `failure_probability`, `at_risk_secs` |
//! | `node_failed`        | `node`, `victim_job` (or `null`), `lost_node_seconds`, `predicted`  |
//! | `node_recovered`     | `node`                                                              |
//! | `job_requeued`       | `job`, `remaining_secs` (after rollback)                            |
//! | `job_completed`      | `job`, `met_deadline`                                               |
//! | `deadline_missed`    | `job`, `late_by_secs`                                               |
//! | `job_cancelled`      | `job` (withdrawn before starting; reservation released)             |
//! | `promise_resolved`   | `job`, `success_probability`, `deadline_secs`, `verdict` (`kept` \| `broken` \| `cancelled`) |
//! | `slo_alert`          | `rule`, `state` (`fire` \| `resolve`), `window_end_secs`, `value`, `threshold` |
//!
//! Events are emitted in the simulator's deterministic dispatch order, so
//! two runs with the same seed produce byte-identical journals — the
//! property that makes journals diffable across code changes.
//!
//! # Quick start
//!
//! ```
//! use pqos_telemetry::{Telemetry, TelemetryEvent};
//! use pqos_sim_core::time::SimTime;
//!
//! let telemetry = Telemetry::builder().ring_buffer(1024).build();
//!
//! // Instrumented code emits events lazily and bumps metrics:
//! telemetry.emit(|| TelemetryEvent::JobStarted {
//!     at: SimTime::from_secs(60),
//!     job: 1,
//!     restarts: 0,
//! });
//! telemetry.counter("jobs.started").inc();
//!
//! // Afterwards, inspect the journal and render the metrics table:
//! assert_eq!(telemetry.ring_events().len(), 1);
//! println!("{}", telemetry.snapshot().unwrap().render());
//! ```
//!
//! Metric names used by the simulator follow a `subsystem.verb` scheme,
//! e.g. `ckpt.performed`, `ckpt.skipped`, `predict.queries`,
//! `failures.predicted`, `place.ties_broken`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod expo;
pub mod handle;
pub mod journal;
pub mod json;
pub mod merge;
pub mod metrics;
pub mod panichook;
pub mod reqtrace;
pub mod slo;
pub mod window;

pub use event::{one_of_each, AlertState, PromiseVerdict, SkipReason, TelemetryEvent};
pub use handle::{SinkHealth, Telemetry, TelemetryBuilder};
pub use journal::EventSink;
pub use metrics::{
    labeled, Counter, Gauge, Histogram, HistogramSummary, MetricsRegistry, Snapshot, Timer,
};
pub use reqtrace::{RequestTrace, TraceEntry, TraceError, TraceMeta};
pub use slo::{parse_rule, SloAccum, SloEngine, SloRule, SloSink};
pub use window::{WindowStore, DEFAULT_WINDOW_CAPACITY};
