//! Journal analysis for the QoS simulator: the consume side of
//! `pqos-telemetry`.
//!
//! The telemetry crate records what the simulator *did*; this crate turns
//! that record into answers:
//!
//! * [`span`] — folds the flat event stream into per-job causal span
//!   trees (negotiating → queued → running → checkpointing → downtime),
//!   with phase durations that sum to each job's wall interval by
//!   construction.
//! * [`doctor`] — streams a journal and reports every invariant violation
//!   (time running backwards, starts without quotes, two jobs on one
//!   node, checkpoint completions without requests, verdicts that
//!   contradict the recorded commitment) as machine-readable findings.
//! * [`trace`] — exports any journal as Chrome `trace_event` JSON, one
//!   track per job and per node, openable in `about://tracing` or
//!   <https://ui.perfetto.dev> — and loads/validates any such document,
//!   including the daemon flight recorder's `dump` payload.
//! * [`diff`] — locates and explains the first line where two journals
//!   fork (seed-determinism debugging).
//! * [`bisect`] — delta-debugs a failing request trace (recorded by
//!   `pqos-qosd --record`) down to a minimal subsequence that still
//!   reproduces a finding, replaying every candidate through the real
//!   engine (`pqos-doctor bisect`).
//! * [`manifest`] — the `expected.json` pinned-findings format the
//!   failing-trace corpus uses in CI.
//! * [`crosscheck`] — verifies a journal against the daemon's exported
//!   metrics snapshot: every `journal.<kind>` gauge must agree with the
//!   journal's own per-kind event counts, in both directions — and the
//!   `pqos_promise_*` gauges must agree with the journal's promise ledger.
//! * [`slo`] — re-derives SLO alerts from a journal with the same
//!   windowed evaluator the daemon runs (`pqos_telemetry::slo`) and diffs
//!   them against the journaled `slo_alert` records.
//! * [`audit`](mod@audit) — folds the journal's quote → outcome pairs into a
//!   calibration ledger (fixed quoted-probability bins + exact-p groups,
//!   Wilson bounds, Brier scores) and flags overconfident buckets,
//!   unresolved promises and ledger gaps.
//!
//! The `pqos-doctor` binary wraps all of it for the command line:
//!
//! ```text
//! pqos-doctor check  journal.jsonl        # invariant findings, exit 1 on errors
//! pqos-doctor audit  journal.jsonl        # promise calibration ledger + findings
//! pqos-doctor spans  journal.jsonl        # per-job phase accounting table
//! pqos-doctor trace  journal.jsonl -o t.json   # Perfetto export
//! pqos-doctor trace-check t.json          # validate a Chrome trace document
//! pqos-doctor diff   a.jsonl b.jsonl      # first divergence, exit 1 if any
//! pqos-doctor crosscheck journal.jsonl metrics.json   # journal vs counters
//! pqos-doctor slo --slo RULE journal.jsonl   # re-derive alerts, exit 1 on diff
//! ```
//!
//! # Example
//!
//! ```
//! use pqos_obs::doctor::Doctor;
//! use pqos_obs::span::SpanForest;
//! use pqos_telemetry::one_of_each;
//!
//! let journal: String = one_of_each()
//!     .iter()
//!     .map(|e| e.to_jsonl() + "\n")
//!     .collect();
//! // one_of_each() is a schema sampler, not a causal story — the doctor
//! // has plenty to say about it; every line still parses.
//! let report = Doctor::check_str(&journal);
//! assert!(!report.findings.iter().any(|f| f.code == "unparseable_line"));
//!
//! // Span reconstruction over the same events:
//! let events: Vec<_> = journal
//!     .lines()
//!     .filter_map(pqos_telemetry::TelemetryEvent::from_jsonl)
//!     .collect();
//! let forest = SpanForest::from_events(&events);
//! assert!(!forest.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod bisect;
pub mod crosscheck;
pub mod diff;
pub mod doctor;
pub mod manifest;
pub mod slo;
pub mod span;
pub mod trace;

pub use audit::{audit, audit_str};
pub use bisect::bisect_trace;
pub use diff::first_divergence;
pub use doctor::Doctor;
pub use trace::{chrome_trace, load_chrome_trace};
