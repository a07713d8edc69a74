//! Causal span reconstruction: folding the flat journal back into per-job
//! phase trees.
//!
//! The journal records *instants*; diagnosing a missed deadline needs
//! *intervals* — how long the job queued, computed, checkpointed, and sat
//! in post-failure downtime. This module rebuilds those intervals the same
//! way a distributed tracer rebuilds spans from log events: each job's
//! lines are stepped through the job lifecycle's journal grammar
//! ([`JournalPhase::step`]), and each line that moves the job to another
//! phase closes the interval it was in and opens the next, so a job's
//! phases tile its wall interval `[submit, finish]` contiguously and their
//! durations sum to it *by construction* (verified by
//! [`JobSpan::accounting_gap`]).

use pqos_core::lifecycle::{Fact, JournalLine, JournalPhase};
use pqos_sim_core::table::Table;
use pqos_sim_core::time::{SimDuration, SimTime};
use pqos_telemetry::TelemetryEvent;
use std::collections::BTreeMap;

/// What a job was doing over one contiguous interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PhaseKind {
    /// Between submission and the accepted quote (instantaneous in the
    /// current simulator, kept for when negotiation gains latency).
    Negotiating,
    /// Holding a reservation, waiting for the committed start instant.
    Queued,
    /// Computing on its partition.
    Running,
    /// Paying the checkpoint overhead `C`.
    Checkpointing,
    /// Killed by a node failure; waiting to restart (includes the rework
    /// the next attempt will redo — the rollback already happened).
    Downtime,
}

impl PhaseKind {
    /// Stable display name.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            PhaseKind::Negotiating => "negotiating",
            PhaseKind::Queued => "queued",
            PhaseKind::Running => "running",
            PhaseKind::Checkpointing => "checkpointing",
            PhaseKind::Downtime => "downtime",
        }
    }

    /// What a job whose journal is in `phase` is doing; `None` once it
    /// ended. (Checkpointing is back-dated from `checkpoint_taken`.)
    fn of(phase: JournalPhase) -> Option<PhaseKind> {
        let kind = if phase.has(Fact::Running) {
            PhaseKind::Running
        } else if phase.has(Fact::Down) {
            PhaseKind::Downtime
        } else if phase.has(Fact::Quoted) {
            PhaseKind::Queued
        } else {
            PhaseKind::Negotiating
        };
        (!phase.has(Fact::Ended)).then_some(kind)
    }
}

/// One contiguous phase of a job's life: `[start, end]` doing `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PhaseSpan {
    /// What the job was doing.
    pub kind: PhaseKind,
    /// When the phase began.
    pub start: SimTime,
    /// When the phase ended (the next phase begins here).
    pub end: SimTime,
}

impl PhaseSpan {
    /// Length of the phase in seconds.
    pub(crate) fn secs(&self) -> u64 {
        self.end.saturating_since(self.start).as_secs()
    }
}

/// How a job's story ended (as far as the journal goes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Finished; `met_deadline` is the journaled verdict.
    Completed {
        /// Whether the effective deadline was met.
        met_deadline: bool,
    },
    /// Negotiation failed; the job never ran.
    Rejected,
    /// The submitter withdrew the job before it started running.
    Cancelled,
    /// The journal ended mid-flight (truncated journal or still-running
    /// job).
    Unfinished,
}

/// The reconstructed life of one job.
#[derive(Debug, Clone)]
pub struct JobSpan {
    /// Job identifier.
    pub job: u64,
    /// Submission instant.
    pub submit: SimTime,
    /// Completion instant (None while [`Outcome::Unfinished`]).
    pub finish: Option<SimTime>,
    /// Final verdict.
    pub outcome: Outcome,
    /// Negotiated promise (completion instant, before slack), if quoted.
    pub promised: Option<SimTime>,
    /// Effective deadline (promise plus slack), if quoted.
    pub deadline: Option<SimTime>,
    /// Quoted probability of success (Eq. 2), if quoted.
    pub success_probability: Option<f64>,
    /// Restarts absorbed (failures that killed an attempt).
    pub restarts: u32,
    /// Checkpoints performed / skipped.
    pub checkpoints: (u32, u32),
    /// Contiguous phases tiling `[submit, finish]`, in order.
    pub(crate) phases: Vec<PhaseSpan>,
    /// Where the job's lines have left it in the journal grammar.
    phase: JournalPhase,
    /// What the job was doing when its last phase closed.
    open_kind: PhaseKind,
    /// Where the next phase would begin.
    cursor: SimTime,
}

impl JobSpan {
    fn new(job: u64, submit: SimTime) -> Self {
        JobSpan {
            job,
            submit,
            finish: None,
            outcome: Outcome::Unfinished,
            promised: None,
            deadline: None,
            success_probability: None,
            restarts: 0,
            checkpoints: (0, 0),
            phases: Vec::new(),
            phase: JournalPhase::default(),
            open_kind: PhaseKind::Negotiating,
            cursor: submit,
        }
    }

    /// Closes the currently open phase at `end` and opens `next`.
    fn close(&mut self, end: SimTime, next: PhaseKind) {
        self.phases.push(PhaseSpan {
            kind: self.open_kind,
            start: self.cursor,
            end,
        });
        self.open_kind = next;
        self.cursor = end;
    }

    /// Wall-clock interval in seconds, submission to finish (None while
    /// unfinished).
    pub fn wall_secs(&self) -> Option<u64> {
        self.finish
            .map(|f| f.saturating_since(self.submit).as_secs())
    }

    /// Sum of all phase durations, in seconds.
    pub(crate) fn accounted_secs(&self) -> u64 {
        self.phases.iter().map(|p| p.secs()).sum()
    }

    /// `wall_secs - accounted_secs` for finished jobs: zero when the
    /// phases tile the wall interval exactly (the reconstruction
    /// invariant). `None` while unfinished.
    pub fn accounting_gap(&self) -> Option<i64> {
        self.wall_secs()
            .map(|w| w as i64 - self.accounted_secs() as i64)
    }

    /// Total seconds spent in `kind` across all phases.
    pub fn secs_in(&self, kind: PhaseKind) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.kind == kind)
            .map(|p| p.secs())
            .sum()
    }
}

/// All job spans reconstructed from one journal, keyed by job id.
#[derive(Debug, Clone, Default)]
pub struct SpanForest {
    jobs: BTreeMap<u64, JobSpan>,
    /// Lines about a job never submitted (shape errors the doctor reports
    /// in detail; counted here so the forest is honest about what it
    /// ignored).
    pub orphan_events: u64,
}

impl SpanForest {
    /// Folds an event stream into per-job spans.
    ///
    /// A line about a job no `job_submitted` introduced is skipped and
    /// counted in [`orphan_events`](SpanForest::orphan_events) — run the
    /// [`doctor`](crate::doctor) for line-level findings.
    pub fn from_events<'a>(events: impl IntoIterator<Item = &'a TelemetryEvent>) -> Self {
        let mut forest = SpanForest::default();
        for event in events {
            forest.apply(event);
        }
        forest
    }

    fn apply(&mut self, event: &TelemetryEvent) {
        let Some((job, line)) = JournalLine::of(event) else {
            return;
        };
        let at = event.at();
        if line == JournalLine::Submitted {
            self.jobs
                .entry(job)
                .or_insert_with(|| JobSpan::new(job, at));
        }
        let Some(s) = self.jobs.get_mut(&job) else {
            self.orphan_events += 1;
            return;
        };
        let was = PhaseKind::of(s.phase);
        s.phase = s.phase.step(line).0;
        // What the line records beyond the phase it moves the job to.
        match event {
            TelemetryEvent::QuoteNegotiated {
                promised_secs,
                deadline_secs,
                success_probability,
                ..
            } => {
                s.promised = Some(SimTime::from_secs(*promised_secs));
                s.deadline = Some(SimTime::from_secs(*deadline_secs));
                s.success_probability = Some(*success_probability);
            }
            TelemetryEvent::JobStarted { restarts, .. } => s.restarts = (*restarts).max(s.restarts),
            TelemetryEvent::CheckpointTaken { overhead_secs, .. } => {
                s.checkpoints.0 += 1;
                // The journal records completion; the overhead interval
                // started `overhead_secs` earlier.
                let began = at.saturating_sub(SimDuration::from_secs(*overhead_secs));
                s.close(began.max(s.cursor), PhaseKind::Checkpointing);
                s.close(at, PhaseKind::Running);
            }
            TelemetryEvent::CheckpointSkipped { .. } => s.checkpoints.1 += 1,
            TelemetryEvent::JobRejected { .. } => {
                (s.finish, s.outcome) = (Some(at), Outcome::Rejected)
            }
            TelemetryEvent::JobCompleted { met_deadline, .. } => {
                let met_deadline = *met_deadline;
                (s.finish, s.outcome) = (Some(at), Outcome::Completed { met_deadline });
            }
            TelemetryEvent::JobCancelled { .. } => {
                (s.finish, s.outcome) = (Some(at), Outcome::Cancelled)
            }
            _ => {}
        }
        let now = PhaseKind::of(s.phase);
        if now != was {
            // An ending line closes the last phase and opens nothing.
            s.close(at, now.unwrap_or(s.open_kind));
        }
    }

    /// The span for one job.
    #[cfg(test)]
    fn get(&self, job: u64) -> Option<&JobSpan> {
        self.jobs.get(&job)
    }

    /// All spans, in job-id order.
    pub fn iter(&self) -> impl Iterator<Item = &JobSpan> {
        self.jobs.values()
    }

    /// Number of jobs seen.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no jobs were seen.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Renders a per-job accounting table: one row per job with the wall
    /// interval and the seconds spent in each phase.
    pub fn render(&self) -> String {
        let mut table = Table::new(vec![
            "job".into(),
            "outcome".into(),
            "submit".into(),
            "finish".into(),
            "wall".into(),
            "queued".into(),
            "running".into(),
            "ckpt".into(),
            "downtime".into(),
            "restarts".into(),
            "deadline".into(),
        ]);
        for s in self.iter() {
            let outcome = match s.outcome {
                Outcome::Completed { met_deadline: true } => "ok",
                Outcome::Completed {
                    met_deadline: false,
                } => "LATE",
                Outcome::Rejected => "rejected",
                Outcome::Cancelled => "cancelled",
                Outcome::Unfinished => "unfinished",
            };
            table.row(vec![
                s.job.to_string(),
                outcome.into(),
                s.submit.as_secs().to_string(),
                s.finish.map_or("-".into(), |f| f.as_secs().to_string()),
                s.wall_secs().map_or("-".into(), |w| w.to_string()),
                s.secs_in(PhaseKind::Queued).to_string(),
                s.secs_in(PhaseKind::Running).to_string(),
                s.secs_in(PhaseKind::Checkpointing).to_string(),
                s.secs_in(PhaseKind::Downtime).to_string(),
                s.restarts.to_string(),
                s.deadline.map_or("-".into(), |d| d.as_secs().to_string()),
            ]);
        }
        table.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqos_telemetry::TelemetryEvent as E;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    /// A clean two-attempt life: submit 0, start 100, checkpoint at
    /// 3700..4420, failure 5000, restart 6000, finish 8000.
    fn failing_life() -> Vec<TelemetryEvent> {
        vec![
            E::JobSubmitted {
                at: t(0),
                job: 7,
                size: 4,
                runtime_secs: 7200,
            },
            E::QuoteNegotiated {
                at: t(0),
                job: 7,
                start_secs: 100,
                promised_secs: 9000,
                deadline_secs: 9500,
                success_probability: 0.9,
            },
            E::JobPlaced {
                at: t(0),
                job: 7,
                nodes: vec![0, 1, 2, 3],
                failure_probability: 0.05,
            },
            E::JobStarted {
                at: t(100),
                job: 7,
                restarts: 0,
            },
            E::CheckpointRequested {
                at: t(3700),
                job: 7,
            },
            E::CheckpointTaken {
                at: t(4420),
                job: 7,
                overhead_secs: 720,
            },
            E::NodeFailed {
                at: t(5000),
                node: 1,
                victim_job: Some(7),
                lost_node_seconds: 2320,
                predicted: false,
            },
            E::JobRequeued {
                at: t(5000),
                job: 7,
                remaining_secs: 3600,
            },
            E::JobPlaced {
                at: t(5000),
                job: 7,
                nodes: vec![4, 5, 6, 7],
                failure_probability: 0.01,
            },
            E::JobStarted {
                at: t(6000),
                job: 7,
                restarts: 1,
            },
            E::JobCompleted {
                at: t(8000),
                job: 7,
                met_deadline: true,
            },
        ]
    }

    #[test]
    fn phases_tile_the_wall_interval() {
        let forest = SpanForest::from_events(&failing_life());
        let s = forest.get(7).expect("job reconstructed");
        assert_eq!(s.wall_secs(), Some(8000));
        assert_eq!(s.accounted_secs(), 8000);
        assert_eq!(s.accounting_gap(), Some(0));
        // Phase boundaries are contiguous.
        for pair in s.phases.windows(2) {
            assert_eq!(pair[0].end, pair[1].start, "gap between phases");
        }
        assert_eq!(s.phases.first().unwrap().start, s.submit);
        assert_eq!(s.phases.last().unwrap().end, s.finish.unwrap());
    }

    #[test]
    fn phase_accounting_matches_the_story() {
        let forest = SpanForest::from_events(&failing_life());
        let s = forest.get(7).unwrap();
        assert_eq!(s.secs_in(PhaseKind::Queued), 100);
        // Attempt 1 ran 100..3700, checkpointed 3700..4420, ran 4420..5000;
        // attempt 2 ran 6000..8000.
        assert_eq!(s.secs_in(PhaseKind::Checkpointing), 720);
        assert_eq!(s.secs_in(PhaseKind::Running), 3600 + 580 + 2000);
        assert_eq!(s.secs_in(PhaseKind::Downtime), 1000);
        assert_eq!(s.restarts, 1);
        assert_eq!(s.checkpoints, (1, 0));
        assert_eq!(s.deadline, Some(t(9500)));
        assert_eq!(s.promised, Some(t(9000)));
        assert!(matches!(
            s.outcome,
            Outcome::Completed { met_deadline: true }
        ));
    }

    #[test]
    fn rejected_and_unfinished_jobs_are_classified() {
        let events = vec![
            E::JobSubmitted {
                at: t(10),
                job: 1,
                size: 999,
                runtime_secs: 100,
            },
            E::JobRejected { at: t(10), job: 1 },
            E::JobSubmitted {
                at: t(20),
                job: 2,
                size: 1,
                runtime_secs: 100,
            },
            E::QuoteNegotiated {
                at: t(20),
                job: 2,
                start_secs: 30,
                promised_secs: 200,
                deadline_secs: 200,
                success_probability: 1.0,
            },
            E::JobStarted {
                at: t(30),
                job: 2,
                restarts: 0,
            },
        ];
        let forest = SpanForest::from_events(&events);
        assert_eq!(forest.get(1).unwrap().outcome, Outcome::Rejected);
        assert_eq!(forest.get(1).unwrap().wall_secs(), Some(0));
        let s2 = forest.get(2).unwrap();
        assert_eq!(s2.outcome, Outcome::Unfinished);
        assert_eq!(s2.finish, None);
        assert_eq!(s2.secs_in(PhaseKind::Queued), 10);
    }

    #[test]
    fn orphan_events_are_counted_not_applied() {
        let events = vec![E::JobStarted {
            at: t(5),
            job: 42,
            restarts: 0,
        }];
        let forest = SpanForest::from_events(&events);
        assert!(forest.is_empty());
        assert_eq!(forest.orphan_events, 1);
    }

    #[test]
    fn render_tabulates_every_job() {
        let forest = SpanForest::from_events(&failing_life());
        let text = forest.render();
        assert!(text.contains("job"));
        assert!(text.contains("8000"));
        assert!(text.lines().count() >= 3);
    }
}
