//! Journal ↔ metrics cross-check: do the daemon's exported counters agree
//! with the journal it wrote?
//!
//! The telemetry handle publishes cumulative per-kind event counts as
//! `journal.<kind>` gauges on every flush, and `pqos-qosd --metrics-dump`
//! writes the final snapshot next to the journal. Those are two
//! independent records of the same run — the gauges come from atomic
//! counters on the emission path, the journal from the sink pipeline. If
//! they disagree, either the journal lost lines (ring overflow, write
//! errors, truncation) or the snapshot predates the end of the run.
//! Either way the run's observability story is broken, and CI should say
//! so before anyone trusts a benchmark built on it.
//!
//! Findings reuse the doctor's machine-readable shape
//! ([`Finding`]) so one JSONL consumer handles
//! both `pqos-doctor check` and `pqos-doctor crosscheck`.

use crate::doctor::{DoctorReport, Finding, Severity};
use pqos_telemetry::{PromiseVerdict, Snapshot, TelemetryEvent};
use std::collections::BTreeMap;
use std::io::BufRead;

/// Stable finding code: a `journal.<kind>` gauge disagrees with the
/// journal's own event count.
pub const CODE_COUNT_MISMATCH: &str = "metrics_count_mismatch";
/// Stable finding code: the journal has events of a kind the snapshot
/// exported no gauge for.
pub const CODE_GAUGE_MISSING: &str = "metrics_gauge_missing";
/// Stable finding code: the snapshot claims events of a kind the journal
/// never recorded (journal truncation or the wrong file pair).
pub const CODE_JOURNAL_MISSING: &str = "metrics_journal_missing_kind";
/// Stable finding code: the snapshot itself admits sink loss
/// (`telemetry.ring_dropped` / `telemetry.write_errors` gauges).
pub const CODE_SINK_LOSS: &str = "metrics_sink_loss";
/// Stable finding code: a `promise.*` gauge (exported on `/metrics` as
/// `pqos_promise_*`) disagrees with the journal's own promise ledger —
/// quotes accepted vs `promise.made`, resolution verdicts vs
/// `promise.kept` / `promise.broken` / `promise.cancelled`.
pub const CODE_PROMISE_MISMATCH: &str = "metrics_promise_mismatch";

/// Cross-checks a journal against a metrics snapshot, line by line.
///
/// Every `journal.<kind>` gauge must equal the number of journal lines of
/// that kind, in both directions; nonzero sink-loss gauges are surfaced as
/// warnings that explain an otherwise-confusing undercount.
pub fn crosscheck(journal: impl BufRead, snapshot: &Snapshot) -> std::io::Result<DoctorReport> {
    let mut report = DoctorReport::default();
    let mut counts: BTreeMap<&'static str, u64> = BTreeMap::new();
    // Promise ledger from the journal: made (accepted quotes) and the
    // three resolution verdicts.
    let mut promises = [0u64; 4];
    for line in journal.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        report.lines += 1;
        // Unparseable lines are `pqos-doctor check`'s department; the
        // cross-check only accounts for what did make it into the record.
        if let Some(event) = TelemetryEvent::from_jsonl(&line) {
            report.events += 1;
            *counts.entry(event.name()).or_insert(0) += 1;
            match event {
                TelemetryEvent::QuoteNegotiated { .. } => promises[0] += 1,
                TelemetryEvent::PromiseResolved { verdict, .. } => {
                    promises[match verdict {
                        PromiseVerdict::Kept => 1,
                        PromiseVerdict::Broken => 2,
                        PromiseVerdict::Cancelled => 3,
                    }] += 1;
                }
                _ => {}
            }
        }
    }

    for kind in TelemetryEvent::kind_names() {
        let journal_count = counts.get(kind).copied().unwrap_or(0);
        let gauge = snapshot.gauge(&format!("journal.{kind}"));
        match (journal_count, gauge) {
            (0, None) => {}
            (n, None) => report.findings.push(Finding {
                code: CODE_GAUGE_MISSING,
                severity: Severity::Error,
                line: 0,
                at: None,
                job: None,
                node: None,
                detail: format!(
                    "journal has {n} {kind} events but the snapshot exported no journal.{kind} gauge \
                     (snapshot taken before the final flush?)"
                ),
            }),
            (0, Some(g)) => report.findings.push(Finding {
                code: CODE_JOURNAL_MISSING,
                severity: Severity::Error,
                line: 0,
                at: None,
                job: None,
                node: None,
                detail: format!(
                    "snapshot gauge journal.{kind} = {g} but the journal has no {kind} events \
                     (truncated journal, or mismatched journal/snapshot pair)"
                ),
            }),
            (n, Some(g)) if g != n as i64 => report.findings.push(Finding {
                code: CODE_COUNT_MISMATCH,
                severity: Severity::Error,
                line: 0,
                at: None,
                job: None,
                node: None,
                detail: format!(
                    "journal.{kind}: snapshot says {g}, journal says {n} ({})",
                    if (g as i128) > (n as i128) {
                        "journal lost lines"
                    } else {
                        "snapshot is stale"
                    }
                ),
            }),
            _ => {}
        }
    }

    // Promise reconciliation: only when the snapshot exports the promise
    // gauges at all (the trace simulator's runs do not; the daemon's do).
    let promise_gauges = [
        "promise.made",
        "promise.kept",
        "promise.broken",
        "promise.cancelled",
    ];
    if promise_gauges.iter().any(|g| snapshot.gauge(g).is_some()) {
        for (gauge, journal_count) in promise_gauges.iter().zip(promises) {
            let exported = snapshot.gauge(gauge).unwrap_or(0);
            if exported != journal_count as i64 {
                report.findings.push(Finding {
                    code: CODE_PROMISE_MISMATCH,
                    severity: Severity::Error,
                    line: 0,
                    at: None,
                    job: None,
                    node: None,
                    detail: format!(
                        "{gauge}: snapshot says {exported}, the journal's promise ledger says \
                         {journal_count}"
                    ),
                });
            }
        }
    }

    for loss in ["telemetry.ring_dropped", "telemetry.write_errors"] {
        if let Some(v) = snapshot.gauge(loss).filter(|v| *v != 0) {
            report.findings.push(Finding {
                code: CODE_SINK_LOSS,
                severity: Severity::Warning,
                line: 0,
                at: None,
                job: None,
                node: None,
                detail: format!(
                    "snapshot reports {loss} = {v}: the journal is knowingly incomplete"
                ),
            });
        }
    }

    Ok(report)
}

/// [`crosscheck`] over an in-memory journal string.
pub fn crosscheck_str(journal: &str, snapshot: &Snapshot) -> DoctorReport {
    crosscheck(journal.as_bytes(), snapshot).expect("in-memory reads cannot fail")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqos_sim_core::time::SimTime;
    use pqos_telemetry::TelemetryEvent as E;

    fn journal_of(events: &[TelemetryEvent]) -> String {
        events.iter().map(|e| e.to_jsonl() + "\n").collect()
    }

    fn events() -> Vec<TelemetryEvent> {
        vec![
            E::JobSubmitted {
                at: SimTime::from_secs(0),
                job: 1,
                size: 2,
                runtime_secs: 100,
            },
            E::JobSubmitted {
                at: SimTime::from_secs(1),
                job: 2,
                size: 4,
                runtime_secs: 50,
            },
            E::QuoteNegotiated {
                at: SimTime::from_secs(1),
                job: 1,
                start_secs: 10,
                promised_secs: 300,
                deadline_secs: 300,
                success_probability: 1.0,
            },
        ]
    }

    fn matching_snapshot() -> Snapshot {
        Snapshot {
            gauges: vec![
                ("journal.job_submitted".into(), 2),
                ("journal.quote_negotiated".into(), 1),
            ],
            ..Snapshot::default()
        }
    }

    #[test]
    fn agreeing_records_are_clean() {
        let report = crosscheck_str(&journal_of(&events()), &matching_snapshot());
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.events, 3);
    }

    #[test]
    fn a_stale_snapshot_is_a_count_mismatch() {
        let mut snapshot = matching_snapshot();
        snapshot.gauges[0].1 = 1; // journal.job_submitted: snapshot missed one
        let report = crosscheck_str(&journal_of(&events()), &snapshot);
        assert_eq!(report.errors(), 1);
        assert_eq!(report.findings[0].code, CODE_COUNT_MISMATCH);
        assert!(report.findings[0].detail.contains("snapshot is stale"));
    }

    #[test]
    fn a_missing_gauge_is_an_error() {
        let mut snapshot = matching_snapshot();
        snapshot.gauges.remove(1); // drop journal.quote_negotiated
        let report = crosscheck_str(&journal_of(&events()), &snapshot);
        assert_eq!(report.errors(), 1);
        assert_eq!(report.findings[0].code, CODE_GAUGE_MISSING);
    }

    #[test]
    fn a_truncated_journal_is_caught_from_the_gauge_side() {
        let only_submits = journal_of(&events()[..2]);
        let report = crosscheck_str(&only_submits, &matching_snapshot());
        assert_eq!(report.errors(), 1);
        assert_eq!(report.findings[0].code, CODE_JOURNAL_MISSING);
    }

    #[test]
    fn promise_gauges_reconcile_against_the_journal_ledger() {
        use pqos_telemetry::PromiseVerdict as V;
        let mut events = events();
        events.push(E::JobCompleted {
            at: SimTime::from_secs(200),
            job: 1,
            met_deadline: true,
        });
        events.push(E::PromiseResolved {
            at: SimTime::from_secs(200),
            job: 1,
            success_probability: 1.0,
            deadline_secs: 300,
            verdict: V::Kept,
        });
        let mut snapshot = matching_snapshot();
        snapshot.gauges.push(("journal.job_completed".into(), 1));
        snapshot.gauges.push(("journal.promise_resolved".into(), 1));
        snapshot.gauges.push(("promise.made".into(), 1));
        snapshot.gauges.push(("promise.kept".into(), 1));
        snapshot.gauges.push(("promise.broken".into(), 0));
        snapshot.gauges.push(("promise.cancelled".into(), 0));
        let report = crosscheck_str(&journal_of(&events), &snapshot);
        assert!(report.is_clean(), "{}", report.render());

        // A daemon claiming more kept promises than it journaled is caught.
        snapshot.gauges.iter_mut().for_each(|(name, v)| {
            if name == "promise.kept" {
                *v = 3;
            }
        });
        let report = crosscheck_str(&journal_of(&events), &snapshot);
        assert_eq!(report.errors(), 1);
        assert_eq!(report.findings[0].code, CODE_PROMISE_MISMATCH);
        assert!(report.findings[0].detail.contains("promise.kept"));
    }

    #[test]
    fn promise_checks_are_skipped_when_the_gauges_are_absent() {
        // The trace simulator exports no promise gauges; a journal full of
        // quotes must not trip the reconciliation.
        let report = crosscheck_str(&journal_of(&events()), &matching_snapshot());
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn sink_loss_gauges_become_warnings() {
        let mut snapshot = matching_snapshot();
        snapshot.gauges.push(("telemetry.ring_dropped".into(), 7));
        let report = crosscheck_str(&journal_of(&events()), &snapshot);
        assert_eq!(report.errors(), 0);
        assert_eq!(report.warnings(), 1);
        assert_eq!(report.findings[0].code, CODE_SINK_LOSS);
    }

    #[test]
    fn unparseable_lines_do_not_count_as_events() {
        let mut journal = journal_of(&events());
        journal.push_str("not json at all\n\n");
        let report = crosscheck_str(&journal, &matching_snapshot());
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.lines, 4, "blank lines skipped, garbage counted");
        assert_eq!(report.events, 3);
    }
}
