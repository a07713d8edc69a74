//! The journal invariant doctor: streams a journal and reports every way
//! it contradicts the simulator's own rules.
//!
//! A journal that passes the doctor is internally consistent: time never
//! runs backwards, every lifecycle edge has its prerequisite, no two jobs
//! occupy a node at once, and every recorded verdict matches the recorded
//! commitment. A journal that fails pinpoints the first line where the
//! simulator (or a hand-edited journal) broke its word — which is exactly
//! where debugging should start.
//!
//! Which line may follow which is not the doctor's to say: each job's
//! lines are stepped through the job lifecycle's own journal grammar
//! ([`JournalPhase::step`]), and every order finding — and the
//! end-of-journal `unfinished_job` and `missed_deadline_not_journaled` —
//! is a code that grammar earns. The doctor adds the checks a grammar
//! cannot make: time order, node occupancy, deadline and late-by
//! arithmetic, the promise's restatement of its quote and its verdict,
//! and SLO alerts alternating fire → resolve.
//!
//! Findings are machine-readable ([`Finding::to_jsonl`]) so CI can gate on
//! them and humans can grep them.

use pqos_core::lifecycle::{Fact, JournalLine, JournalPhase, OrderCode};
use pqos_telemetry::json::ObjWriter;
use pqos_telemetry::{AlertState, PromiseVerdict, TelemetryEvent};
use std::collections::{BTreeSet, HashMap};
use std::io::BufRead;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum Severity {
    /// Suspicious but explainable (e.g. a truncated journal).
    Warning,
    /// The journal is inconsistent with the simulator's invariants.
    Error,
}

impl Severity {
    /// Stable wire name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One invariant violation, anchored to a journal line.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Stable machine-readable code (e.g. `out_of_time_order`).
    pub code: &'static str,
    /// Error or warning.
    pub(crate) severity: Severity,
    /// 1-based journal line the finding anchors to (0 = end of journal).
    pub line: u64,
    /// Sim time of the offending event, when applicable.
    pub at: Option<u64>,
    /// Job involved, when applicable.
    pub job: Option<u64>,
    /// Node involved, when applicable.
    pub node: Option<u64>,
    /// Human-readable explanation with the concrete numbers.
    pub detail: String,
}

impl Finding {
    /// Encodes the finding as one JSON line.
    pub fn to_jsonl(&self) -> String {
        let mut w = ObjWriter::new();
        w.str("code", self.code)
            .str("severity", self.severity.as_str())
            .u64("line", self.line)
            .opt_u64("at", self.at)
            .opt_u64("job", self.job)
            .opt_u64("node", self.node)
            .str("detail", &self.detail);
        w.finish()
    }
}

/// Everything the doctor found in one journal.
#[derive(Debug, Clone, Default)]
pub struct DoctorReport {
    /// All findings, in journal order.
    pub findings: Vec<Finding>,
    /// Journal lines examined.
    pub lines: u64,
    /// Lines that parsed into events.
    pub events: u64,
}

impl DoctorReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .count()
    }

    /// Whether the journal is clean (no findings at all).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders a human-readable summary, one line per finding.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{} [{}] line {}: {}\n",
                f.severity.as_str(),
                f.code,
                f.line,
                f.detail
            ));
        }
        out.push_str(&format!(
            "{} lines, {} events, {} errors, {} warnings\n",
            self.lines,
            self.events,
            self.errors(),
            self.warnings()
        ));
        out
    }
}

/// Per-job bookkeeping while streaming: where the job's lines have left
/// it in the grammar, and the values the value checks compare against.
#[derive(Debug, Default)]
struct JobTrack {
    phase: JournalPhase,
    /// Effective deadline (secs) from the quote.
    deadline: Option<u64>,
    /// Quoted success probability from the quote.
    quoted_p: Option<f64>,
    /// `met_deadline` from the latest `job_completed`.
    met: Option<bool>,
    /// When the latest `job_completed` landed.
    completed_at: u64,
    /// Current placement (most recent `job_placed`).
    nodes: Vec<u64>,
}

/// The streaming invariant checker: [`Doctor::check_str`] and
/// [`Doctor::check_reader`] feed it a journal's lines and collect its
/// report.
#[derive(Debug, Default)]
pub struct Doctor {
    report: DoctorReport,
    last_at: u64,
    jobs: HashMap<u64, JobTrack>,
    /// node -> job currently occupying it.
    owner: HashMap<u64, u64>,
    /// SLO rules currently in the fired state.
    firing_rules: BTreeSet<String>,
}

impl Doctor {
    /// Checks everything a reader yields and returns the report.
    pub fn check_reader(reader: impl BufRead) -> std::io::Result<DoctorReport> {
        let mut doctor = Doctor::default();
        for line in reader.lines() {
            doctor.feed_line(&line?);
        }
        Ok(doctor.finish())
    }

    /// Checks a full journal held in memory.
    pub fn check_str(journal: &str) -> DoctorReport {
        let mut doctor = Doctor::default();
        for line in journal.lines() {
            doctor.feed_line(line);
        }
        doctor.finish()
    }

    /// Feeds one raw journal line.
    fn feed_line(&mut self, line: &str) {
        self.report.lines += 1;
        if line.trim().is_empty() {
            return;
        }
        match TelemetryEvent::from_jsonl(line) {
            Some(event) => self.feed_event(&event),
            None => {
                let shown: String = line.chars().take(80).collect();
                let detail = format!("line does not parse as a journal event: {shown:?}");
                self.finding("unparseable_line", None, None, None, detail);
            }
        }
    }

    /// Feeds one parsed line: time order, the job's step through the
    /// grammar, then the value checks.
    fn feed_event(&mut self, event: &TelemetryEvent) {
        self.report.events += 1;
        let at = event.at().as_secs();
        if at < self.last_at {
            let (name, last) = (event.name(), self.last_at);
            let detail = format!("{name} at t={at} precedes the previous event at t={last}");
            self.finding("out_of_time_order", Some(at), None, None, detail);
        }
        self.last_at = self.last_at.max(at);
        if let Some((job, line)) = JournalLine::of(event) {
            let track = self.jobs.entry(job).or_default();
            let (next, earned) = track.phase.step(line);
            track.phase = next;
            let node = match event {
                TelemetryEvent::NodeFailed { node, .. } => Some(*node),
                _ => None,
            };
            for code in earned {
                let detail = describe(code, line, job, node.unwrap_or_default(), 0);
                self.finding(code.as_str(), Some(at), Some(job), node, detail);
            }
        }
        self.check_values(event, at);
    }

    /// What the grammar cannot see: node occupancy, deadline and late-by
    /// arithmetic, the promise's restatement and verdict, SLO alerts.
    fn check_values(&mut self, event: &TelemetryEvent, at: u64) {
        match event {
            TelemetryEvent::QuoteNegotiated {
                job,
                deadline_secs,
                success_probability,
                ..
            } => {
                let track = self.track(*job);
                track.deadline = Some(*deadline_secs);
                track.quoted_p = Some(*success_probability);
            }
            TelemetryEvent::JobPlaced { job, nodes, .. } => self.track(*job).nodes = nodes.clone(),
            TelemetryEvent::JobStarted { job, .. } => {
                // Occupancy: this attempt claims its placed partition.
                for node in self.track(*job).nodes.clone() {
                    if let Some(other) = self.owner.insert(node, *job).filter(|o| o != job) {
                        let detail = format!(
                            "job {job} started on node {node} still occupied by job {other}"
                        );
                        self.finding("overlapping_runs", Some(at), Some(*job), Some(node), detail);
                    }
                }
            }
            TelemetryEvent::NodeFailed {
                victim_job: Some(victim),
                ..
            } => self.owner.retain(|_, j| j != victim),
            TelemetryEvent::JobCompleted {
                job, met_deadline, ..
            } => {
                if let Some(d) = self
                    .track(*job)
                    .deadline
                    .filter(|&d| (at <= d) != *met_deadline)
                {
                    let detail = format!(
                        "job {job} finished at t={at} against deadline {d} but journal says \
                         met_deadline={met_deadline}"
                    );
                    self.finding("deadline_mismatch", Some(at), Some(*job), None, detail);
                }
                let track = self.track(*job);
                track.met = Some(*met_deadline);
                track.completed_at = at;
                self.owner.retain(|_, j| j != job);
            }
            TelemetryEvent::JobCancelled { job, .. } => self.owner.retain(|_, j| j != job),
            TelemetryEvent::DeadlineMissed {
                job, late_by_secs, ..
            } => {
                if let Some(d) = self.track(*job).deadline {
                    let expected = at.saturating_sub(d);
                    if expected != *late_by_secs {
                        let detail = format!(
                            "job {job} finished at t={at} with deadline {d}: late_by should be \
                             {expected}, journal says {late_by_secs}"
                        );
                        self.finding("late_by_mismatch", Some(at), Some(*job), None, detail);
                    }
                }
            }
            TelemetryEvent::PromiseResolved {
                job,
                success_probability,
                deadline_secs,
                verdict,
                ..
            } => {
                // The resolution restates the quote; a disagreement means
                // the link between promise and outcome is corrupt.
                let track = self.track(*job);
                let (quoted_p, deadline, met) = (track.quoted_p, track.deadline, track.met);
                let ended = track.phase.has(Fact::Ended);
                if let Some(p) = quoted_p.filter(|p| p != success_probability) {
                    let detail = format!(
                        "job {job} resolved with quoted p {success_probability} but the quote \
                         said {p}"
                    );
                    self.finding("promise_quote_mismatch", Some(at), Some(*job), None, detail);
                }
                if let Some(d) = deadline.filter(|d| d != deadline_secs) {
                    let detail = format!(
                        "job {job} resolved against deadline {deadline_secs} but the quote said {d}"
                    );
                    self.finding("promise_quote_mismatch", Some(at), Some(*job), None, detail);
                }
                let consistent = match verdict {
                    PromiseVerdict::Kept => met == Some(true),
                    PromiseVerdict::Broken => met == Some(false),
                    PromiseVerdict::Cancelled => ended && met.is_none(),
                };
                if !consistent {
                    let detail = format!(
                        "job {job} resolved {} but the journal's terminal outcome disagrees",
                        verdict.as_str()
                    );
                    self.finding(
                        "promise_verdict_mismatch",
                        Some(at),
                        Some(*job),
                        None,
                        detail,
                    );
                }
            }
            // Alerts are system-wide annotations; full re-derivation lives
            // in `pqos-doctor slo`. Here the doctor only checks the state
            // machine: a rule alternates fire → resolve → fire.
            TelemetryEvent::SloAlert { rule, state, .. } => {
                let (code, how) = match state {
                    AlertState::Fire if !self.firing_rules.insert(rule.clone()) => {
                        ("alert_double_fire", "fired while already firing")
                    }
                    AlertState::Resolve if !self.firing_rules.remove(rule) => {
                        ("alert_resolve_without_fire", "resolved while not firing")
                    }
                    _ => return,
                };
                let detail = format!("slo rule {rule} {how}");
                self.finding(code, Some(at), None, None, detail);
            }
            _ => {}
        }
    }

    /// Ends the stream: every job's journal reads the grammar's `end` row
    /// (an owed `deadline_missed`, or a job left mid-flight).
    fn finish(mut self) -> DoctorReport {
        let mut jobs: Vec<(u64, JobTrack)> = self.jobs.drain().collect();
        jobs.sort_by_key(|(id, _)| *id);
        for (id, track) in jobs {
            for code in track.phase.step(JournalLine::End).1 {
                let late = code == OrderCode::MissedDeadlineNotJournaled;
                self.report.findings.push(Finding {
                    code: code.as_str(),
                    severity: severity(code.as_str()),
                    line: 0,
                    at: late.then_some(track.completed_at),
                    job: Some(id),
                    node: None,
                    detail: describe(code, JournalLine::End, id, 0, track.completed_at),
                });
            }
        }
        self.report
    }

    fn track(&mut self, job: u64) -> &mut JobTrack {
        self.jobs.entry(job).or_default()
    }

    fn finding(
        &mut self,
        code: &'static str,
        at: Option<u64>,
        job: Option<u64>,
        node: Option<u64>,
        detail: String,
    ) {
        self.report.findings.push(Finding {
            code,
            severity: severity(code),
            line: self.report.lines.max(self.report.events),
            at,
            job,
            node,
            detail,
        });
    }
}

/// Every finding is an error but a journal that ends mid-flight, which may
/// only have been cut short.
fn severity(code: &str) -> Severity {
    if code == OrderCode::UnfinishedJob.as_str() {
        Severity::Warning
    } else {
        Severity::Error
    }
}

/// The words for an order finding about `job`, earned by `line`; `node` is
/// the failed node of a `node_failed` line, `completed_at` the late
/// completion an `end` finding is owed for.
fn describe(code: OrderCode, line: JournalLine, job: u64, node: u64, completed_at: u64) -> String {
    use OrderCode as C;
    match code {
        C::DuplicateSubmit => format!("job {job} submitted twice"),
        C::NegotiateBeforeSubmit => format!("quote for job {job} with no prior job_submitted"),
        C::PlaceBeforeNegotiate => {
            format!("placement for job {job} with no prior quote_negotiated")
        }
        C::StartBeforeNegotiate => format!("job {job} started with no prior quote_negotiated"),
        C::DoubleStart => format!("job {job} started while already running"),
        C::CkptOutsideRun => format!("checkpoint requested for job {job} that is not running"),
        C::DoubleRequest => {
            format!("job {job} requested a checkpoint with one already outstanding")
        }
        C::CkptFinishWithoutRequest => {
            let how = if line == JournalLine::CheckpointSkipped {
                "skipped"
            } else {
                "finished"
            };
            format!("checkpoint {how} for job {job} with no outstanding checkpoint_requested")
        }
        C::VictimNotRunning => format!("node {node} failure names victim job {job}, not running"),
        C::RequeueWhileRunning => format!("job {job} requeued while still running"),
        C::CompleteWithoutStart => format!("job {job} completed without a running attempt"),
        C::CancelWithoutSubmit => format!("job {job} cancelled with no prior job_submitted"),
        C::CancelWhileRunning => format!("job {job} cancelled while running"),
        C::CancelAfterDone => format!("job {job} cancelled after it already finished"),
        C::OrphanDeadlineMissed => {
            format!("deadline_missed for job {job} without a preceding late job_completed")
        }
        C::OrphanPromiseResolved => {
            format!("promise resolved for job {job} with no prior quote_negotiated")
        }
        C::DuplicatePromiseResolution => format!("job {job}'s promise resolved twice"),
        C::MissedDeadlineNotJournaled => {
            format!("job {job} completed late at t={completed_at} but no deadline_missed follows")
        }
        C::UnfinishedJob => {
            format!("job {job} never completed or was rejected (truncated journal?)")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqos_sim_core::time::SimTime;
    use pqos_telemetry::TelemetryEvent as E;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn clean_life() -> Vec<TelemetryEvent> {
        vec![
            E::JobSubmitted {
                at: t(0),
                job: 1,
                size: 2,
                runtime_secs: 7200,
            },
            E::QuoteNegotiated {
                at: t(0),
                job: 1,
                start_secs: 0,
                promised_secs: 8000,
                deadline_secs: 8000,
                success_probability: 1.0,
            },
            E::JobPlaced {
                at: t(0),
                job: 1,
                nodes: vec![0, 1],
                failure_probability: 0.0,
            },
            E::JobStarted {
                at: t(0),
                job: 1,
                restarts: 0,
            },
            E::CheckpointRequested {
                at: t(3600),
                job: 1,
            },
            E::CheckpointTaken {
                at: t(4320),
                job: 1,
                overhead_secs: 720,
            },
            E::JobCompleted {
                at: t(7920),
                job: 1,
                met_deadline: true,
            },
        ]
    }

    fn check(events: &[TelemetryEvent]) -> DoctorReport {
        let journal: String = events
            .iter()
            .map(|e| e.to_jsonl() + "\n")
            .collect::<String>();
        Doctor::check_str(&journal)
    }

    #[test]
    fn a_clean_journal_has_no_findings() {
        let report = check(&clean_life());
        assert!(report.is_clean(), "unexpected: {}", report.render());
        assert_eq!(report.events, 7);
        assert_eq!(report.lines, 7);
    }

    #[test]
    fn detects_out_of_time_order() {
        let mut events = clean_life();
        events.swap(4, 5); // checkpoint_taken before its request, time runs backwards
        let report = check(&events);
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "out_of_time_order"));
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "ckpt_finish_without_request"));
        assert!(report.errors() >= 2);
    }

    #[test]
    fn detects_start_before_negotiate() {
        let events = vec![
            E::JobSubmitted {
                at: t(0),
                job: 1,
                size: 1,
                runtime_secs: 10,
            },
            E::JobStarted {
                at: t(0),
                job: 1,
                restarts: 0,
            },
            E::JobCompleted {
                at: t(10),
                job: 1,
                met_deadline: true,
            },
        ];
        let report = check(&events);
        let f = report
            .findings
            .iter()
            .find(|f| f.code == "start_before_negotiate")
            .expect("finding emitted");
        assert_eq!(f.severity, Severity::Error);
        assert_eq!(f.job, Some(1));
        assert_eq!(f.line, 2);
    }

    #[test]
    fn detects_overlapping_runs_on_one_partition() {
        let mut events = clean_life();
        // A second job placed onto node 1 while job 1 still runs (inserted
        // between job 1's start at t=0 and its request at t=3600, keeping
        // the journal time-ordered).
        events.splice(
            4..4,
            vec![
                E::JobSubmitted {
                    at: t(100),
                    job: 2,
                    size: 1,
                    runtime_secs: 100,
                },
                E::QuoteNegotiated {
                    at: t(100),
                    job: 2,
                    start_secs: 100,
                    promised_secs: 300,
                    deadline_secs: 300,
                    success_probability: 1.0,
                },
                E::JobPlaced {
                    at: t(100),
                    job: 2,
                    nodes: vec![1],
                    failure_probability: 0.0,
                },
                E::JobStarted {
                    at: t(100),
                    job: 2,
                    restarts: 0,
                },
                E::JobCompleted {
                    at: t(200),
                    job: 2,
                    met_deadline: true,
                },
            ],
        );
        let report = check(&events);
        let f = report
            .findings
            .iter()
            .find(|f| f.code == "overlapping_runs")
            .expect("overlap detected");
        assert_eq!(f.node, Some(1));
        assert_eq!(f.job, Some(2));
        // Everything else about that journal is well-formed.
        assert_eq!(report.errors(), 1);
    }

    #[test]
    fn detects_deadline_verdict_mismatches() {
        let mut events = clean_life();
        // Flip the verdict: finished at 7920 <= 8000 but claims a miss.
        events[6] = E::JobCompleted {
            at: t(7920),
            job: 1,
            met_deadline: false,
        };
        let report = check(&events);
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "deadline_mismatch"));
        // A late verdict also owes a deadline_missed event.
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "missed_deadline_not_journaled"));
    }

    #[test]
    fn detects_wrong_late_by() {
        let mut events = clean_life();
        events[6] = E::JobCompleted {
            at: t(9000),
            job: 1,
            met_deadline: false,
        };
        events.push(E::DeadlineMissed {
            at: t(9000),
            job: 1,
            late_by_secs: 1, // should be 1000
        });
        let report = check(&events);
        let f = report
            .findings
            .iter()
            .find(|f| f.code == "late_by_mismatch")
            .expect("late_by checked");
        assert!(f.detail.contains("1000"));
        assert!(!report
            .findings
            .iter()
            .any(|f| f.code == "missed_deadline_not_journaled"));
    }

    #[test]
    fn detects_orphan_deadline_missed() {
        let mut events = clean_life();
        events.push(E::DeadlineMissed {
            at: t(7920),
            job: 1,
            late_by_secs: 0,
        });
        let report = check(&events);
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "orphan_deadline_missed"));
    }

    #[test]
    fn a_cancelled_job_is_a_clean_lifecycle() {
        let events = vec![
            E::JobSubmitted {
                at: t(0),
                job: 1,
                size: 2,
                runtime_secs: 7200,
            },
            E::QuoteNegotiated {
                at: t(0),
                job: 1,
                start_secs: 100,
                promised_secs: 8000,
                deadline_secs: 8000,
                success_probability: 1.0,
            },
            E::JobPlaced {
                at: t(0),
                job: 1,
                nodes: vec![0, 1],
                failure_probability: 0.0,
            },
            E::JobCancelled { at: t(50), job: 1 },
        ];
        let report = check(&events);
        assert!(report.is_clean(), "unexpected: {}", report.render());
    }

    #[test]
    fn detects_invalid_cancels() {
        // Cancel of a never-submitted job.
        let report = check(&[E::JobCancelled { at: t(0), job: 9 }]);
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "cancel_without_submit"));

        // Cancel while the job is running.
        let mut events = clean_life();
        events.truncate(5); // up to checkpoint_requested; job 1 is running
        events.push(E::JobCancelled {
            at: t(3600),
            job: 1,
        });
        let report = check(&events);
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "cancel_while_running"));

        // Cancel after completion.
        let mut events = clean_life();
        events.push(E::JobCancelled {
            at: t(7920),
            job: 1,
        });
        let report = check(&events);
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "cancel_after_done"));
    }

    #[test]
    fn promise_resolutions_are_checked_against_the_terminal_outcome() {
        use pqos_telemetry::PromiseVerdict as V;
        let resolve = |verdict| E::PromiseResolved {
            at: t(7920),
            job: 1,
            success_probability: 1.0,
            deadline_secs: 8000,
            verdict,
        };
        // A kept promise after an on-time completion is clean.
        let mut events = clean_life();
        events.push(resolve(V::Kept));
        assert!(check(&events).is_clean());

        // A broken verdict contradicting met_deadline=true is flagged.
        let mut events = clean_life();
        events.push(resolve(V::Broken));
        let report = check(&events);
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "promise_verdict_mismatch"));

        // Restating the quote wrongly is flagged.
        let mut events = clean_life();
        events.push(E::PromiseResolved {
            at: t(7920),
            job: 1,
            success_probability: 0.5,
            deadline_secs: 9000,
            verdict: V::Kept,
        });
        let report = check(&events);
        assert_eq!(
            report
                .findings
                .iter()
                .filter(|f| f.code == "promise_quote_mismatch")
                .count(),
            2,
            "both the probability and the deadline restatements are checked"
        );

        // Resolving twice, or without a quote, is flagged.
        let mut events = clean_life();
        events.push(resolve(V::Kept));
        events.push(resolve(V::Kept));
        assert!(check(&events)
            .findings
            .iter()
            .any(|f| f.code == "duplicate_promise_resolution"));
        let report = check(&[E::PromiseResolved {
            at: t(0),
            job: 9,
            success_probability: 1.0,
            deadline_secs: 100,
            verdict: V::Cancelled,
        }]);
        assert!(report
            .findings
            .iter()
            .any(|f| f.code == "orphan_promise_resolved"));
    }

    #[test]
    fn warns_on_truncated_journals() {
        let mut events = clean_life();
        events.truncate(5); // chop off the checkpoint completion + finish
        let report = check(&events);
        assert_eq!(report.errors(), 0);
        let f = report
            .findings
            .iter()
            .find(|f| f.code == "unfinished_job")
            .expect("truncation warned");
        assert_eq!(f.severity, Severity::Warning);
        assert_eq!(f.line, 0, "end-of-journal finding");
    }

    #[test]
    fn reports_unparseable_lines_with_position() {
        let mut journal: String = clean_life()
            .iter()
            .map(|e| e.to_jsonl() + "\n")
            .collect::<String>();
        journal.push_str("{\"event\":\"garbage\"}\n");
        let report = Doctor::check_str(&journal);
        let f = report
            .findings
            .iter()
            .find(|f| f.code == "unparseable_line")
            .expect("garbage flagged");
        assert_eq!(f.line, 8);
        assert!(f.detail.contains("garbage"));
    }

    #[test]
    fn findings_serialize_as_jsonl() {
        let f = Finding {
            code: "overlapping_runs",
            severity: Severity::Error,
            line: 42,
            at: Some(100),
            job: Some(2),
            node: Some(1),
            detail: "job 2 started on node 1 still occupied by job 1".into(),
        };
        let line = f.to_jsonl();
        let v = pqos_telemetry::json::Json::parse(&line).expect("valid json");
        assert_eq!(v.get("code").unwrap().as_str(), Some("overlapping_runs"));
        assert_eq!(v.get("severity").unwrap().as_str(), Some("error"));
        assert_eq!(v.get("line").unwrap().as_u64(), Some(42));
        assert_eq!(v.get("node").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn check_reader_streams() {
        let journal: String = clean_life()
            .iter()
            .map(|e| e.to_jsonl() + "\n")
            .collect::<String>();
        let report = Doctor::check_reader(std::io::Cursor::new(journal)).unwrap();
        assert!(report.is_clean());
    }
}
