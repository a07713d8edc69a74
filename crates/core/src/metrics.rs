//! The paper's metrics (§3.5): QoS (Eq. 2), capacity utilization, and
//! work lost to failures — plus the secondary counters the experiment
//! harness reports.

use pqos_sim_core::time::{SimDuration, SimTime};
use pqos_workload::job::JobId;
use std::fmt;

/// Everything recorded about one completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutcome {
    /// Job identifier.
    pub id: JobId,
    /// Size in nodes `nj`.
    pub nodes: u32,
    /// Checkpoint-free runtime `ej`.
    pub runtime: SimDuration,
    /// Arrival time `vj`.
    pub arrival: SimTime,
    /// Promised probability of success `pj` at submission.
    pub promised: f64,
    /// Negotiated deadline.
    pub deadline: SimTime,
    /// Last (re)start time `sj`.
    pub last_start: SimTime,
    /// Completion time `fj`.
    pub finish: SimTime,
    /// Whether the job finished by its deadline (`qj`).
    pub met_deadline: bool,
    /// Number of failures that hit this job.
    pub failures: u32,
    /// Whether the negotiation satisfied the user's threshold.
    pub satisfied_threshold: bool,
    /// Checkpoints performed for this job.
    pub checkpoints_performed: u32,
    /// Checkpoint requests skipped for this job.
    pub checkpoints_skipped: u32,
}

impl JobOutcome {
    /// Useful work `ej·nj` in node-seconds, saturating at `u64::MAX`.
    fn work(&self) -> u64 {
        self.runtime.as_secs().saturating_mul(u64::from(self.nodes))
    }
}

/// Work lost to one failure: `(tx − cjx) · njx` node-seconds (§3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LostWorkEvent {
    /// When the failure struck.
    pub time: SimTime,
    /// The job that lost work.
    pub job: JobId,
    /// The job's size in nodes.
    pub nodes: u32,
    /// Node-seconds rolled back.
    pub lost_node_seconds: u64,
}

/// Aggregated results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// The paper's QoS metric (Eq. 2): `Σ ej·nj·qj·pj / Σ ej·nj`.
    pub qos: f64,
    /// Capacity utilization `ω_util = Σ ej·nj / (T·N)`, checkpoint
    /// overhead excluded.
    pub utilization: f64,
    /// Total work lost to failures `ω_lost`, in node-seconds.
    pub lost_work: u64,
    /// Total useful work `Σ ej·nj`, in node-seconds.
    pub total_work: u64,
    /// `T = max fj − min vj`.
    pub makespan: SimDuration,
    /// Number of jobs completed.
    pub jobs: usize,
    /// Jobs that missed their negotiated deadline.
    pub deadline_misses: usize,
    /// Failure events that killed a running job.
    pub job_failures: usize,
    /// Checkpoints performed across all jobs.
    pub checkpoints_performed: u64,
    /// Checkpoint requests skipped across all jobs.
    pub checkpoints_skipped: u64,
    /// Work-weighted mean promised probability of success.
    pub mean_promise: f64,
    /// Mean wait time (last start − arrival) in seconds.
    pub mean_wait_secs: f64,
    /// Fraction of jobs whose negotiation met the user's threshold.
    pub threshold_satisfied_fraction: f64,
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "QoS={:.4} util={:.4} lost={} node-s misses={}/{} job-failures={} ckpt {}+{}skip",
            self.qos,
            self.utilization,
            self.lost_work,
            self.deadline_misses,
            self.jobs,
            self.job_failures,
            self.checkpoints_performed,
            self.checkpoints_skipped,
        )
    }
}

/// Accumulates outcomes during a run and reduces them to a [`SimReport`].
#[derive(Debug, Clone, Default)]
pub struct MetricsCollector {
    outcomes: Vec<JobOutcome>,
    lost: Vec<LostWorkEvent>,
}

impl MetricsCollector {
    /// Creates an empty collector.
    pub(crate) fn new() -> Self {
        MetricsCollector::default()
    }

    /// Records a completed job.
    pub(crate) fn record_outcome(&mut self, outcome: JobOutcome) {
        self.outcomes.push(outcome);
    }

    /// Records work lost to a failure.
    pub(crate) fn record_lost_work(&mut self, event: LostWorkEvent) {
        self.lost.push(event);
    }

    /// Completed-job outcomes recorded so far.
    pub fn outcomes(&self) -> &[JobOutcome] {
        &self.outcomes
    }

    /// Lost-work events recorded so far.
    pub fn lost_events(&self) -> &[LostWorkEvent] {
        &self.lost
    }

    /// Reduces to a report for a cluster of `cluster_size` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `cluster_size == 0`.
    pub(crate) fn report(&self, cluster_size: u32) -> SimReport {
        assert!(cluster_size > 0, "cluster size must be positive");
        let total_work = self
            .outcomes
            .iter()
            .map(JobOutcome::work)
            .fold(0, u64::saturating_add);
        let qos_num: f64 = self
            .outcomes
            .iter()
            .filter(|o| o.met_deadline)
            .map(|o| o.work() as f64 * o.promised)
            .sum();
        let promise_num: f64 = self
            .outcomes
            .iter()
            .map(|o| o.work() as f64 * o.promised)
            .sum();
        let first_arrival = self.outcomes.iter().map(|o| o.arrival).min();
        let last_finish = self.outcomes.iter().map(|o| o.finish).max();
        let makespan = match (first_arrival, last_finish) {
            (Some(a), Some(f)) => f.saturating_since(a),
            _ => SimDuration::ZERO,
        };
        let utilization = if makespan.is_zero() {
            0.0
        } else {
            total_work as f64 / (makespan.as_secs() as f64 * f64::from(cluster_size))
        };
        let n = self.outcomes.len();
        SimReport {
            qos: if total_work > 0 {
                qos_num / total_work as f64
            } else {
                0.0
            },
            utilization,
            lost_work: self
                .lost
                .iter()
                .map(|l| l.lost_node_seconds)
                .fold(0, u64::saturating_add),
            total_work,
            makespan,
            jobs: n,
            deadline_misses: self.outcomes.iter().filter(|o| !o.met_deadline).count(),
            job_failures: self.outcomes.iter().map(|o| o.failures as usize).sum(),
            checkpoints_performed: self
                .outcomes
                .iter()
                .map(|o| u64::from(o.checkpoints_performed))
                .sum(),
            checkpoints_skipped: self
                .outcomes
                .iter()
                .map(|o| u64::from(o.checkpoints_skipped))
                .sum(),
            mean_promise: if total_work > 0 {
                promise_num / total_work as f64
            } else {
                0.0
            },
            mean_wait_secs: if n > 0 {
                self.outcomes
                    .iter()
                    .map(|o| o.last_start.saturating_since(o.arrival).as_secs() as f64)
                    .sum::<f64>()
                    / n as f64
            } else {
                0.0
            },
            threshold_satisfied_fraction: if n > 0 {
                self.outcomes
                    .iter()
                    .filter(|o| o.satisfied_threshold)
                    .count() as f64
                    / n as f64
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(id: u64, nodes: u32, runtime: u64, promised: f64, met: bool) -> JobOutcome {
        JobOutcome {
            id: JobId::new(id),
            nodes,
            runtime: SimDuration::from_secs(runtime),
            arrival: SimTime::from_secs(0),
            promised,
            deadline: SimTime::from_secs(1000),
            last_start: SimTime::from_secs(10),
            finish: SimTime::from_secs(100),
            met_deadline: met,
            failures: 0,
            satisfied_threshold: true,
            checkpoints_performed: 0,
            checkpoints_skipped: 0,
        }
    }

    #[test]
    fn qos_is_eq2() {
        let mut m = MetricsCollector::new();
        // Job A: 100 node-s, promised 1.0, met. Job B: 300 node-s, promised
        // 0.8, missed. QoS = (100·1·1.0) / 400 = 0.25.
        m.record_outcome(outcome(1, 1, 100, 1.0, true));
        m.record_outcome(outcome(2, 3, 100, 0.8, false));
        let r = m.report(4);
        assert!((r.qos - 0.25).abs() < 1e-12);
        assert_eq!(r.deadline_misses, 1);
        assert_eq!(r.total_work, 400);
        // Mean promise is work-weighted: (100·1 + 300·0.8)/400 = 0.85.
        assert!((r.mean_promise - 0.85).abs() < 1e-12);
    }

    #[test]
    fn report_work_saturates_instead_of_wrapping() {
        // 2^62 s on 4 nodes is 2^64 node-seconds. Unchecked, the fold
        // panicked in a debug build; a release build wrapped the job to 0
        // and reported the other one's 200 node-s as all the work.
        let mut m = MetricsCollector::new();
        m.record_outcome(outcome(1, 4, 1 << 62, 1.0, true));
        m.record_outcome(outcome(2, 2, 100, 0.5, true));
        m.record_lost_work(LostWorkEvent {
            time: SimTime::from_secs(5),
            job: JobId::new(1),
            nodes: 4,
            lost_node_seconds: u64::MAX,
        });
        m.record_lost_work(LostWorkEvent {
            time: SimTime::from_secs(9),
            job: JobId::new(2),
            nodes: 2,
            lost_node_seconds: 1,
        });
        let r = m.report(128);
        assert_eq!(r.total_work, u64::MAX);
        assert_eq!(r.lost_work, u64::MAX);
        assert!(r.qos > 0.999 && r.qos <= 1.0, "qos {}", r.qos);
        assert!(r.utilization > 1e12, "utilization {}", r.utilization);
    }

    #[test]
    fn missed_jobs_contribute_nothing_to_qos() {
        let mut m = MetricsCollector::new();
        m.record_outcome(outcome(1, 2, 50, 0.9, false));
        let r = m.report(4);
        assert_eq!(r.qos, 0.0);
    }

    #[test]
    fn utilization_uses_makespan_and_cluster_size() {
        let mut m = MetricsCollector::new();
        let mut o = outcome(1, 2, 100, 1.0, true);
        o.arrival = SimTime::from_secs(0);
        o.finish = SimTime::from_secs(100);
        m.record_outcome(o);
        // 200 node-s over 100 s on 4 nodes → 0.5.
        let r = m.report(4);
        assert!((r.utilization - 0.5).abs() < 1e-12);
        assert_eq!(r.makespan, SimDuration::from_secs(100));
    }

    #[test]
    fn lost_work_sums_events() {
        let mut m = MetricsCollector::new();
        m.record_outcome(outcome(1, 1, 10, 1.0, true));
        m.record_lost_work(LostWorkEvent {
            time: SimTime::from_secs(5),
            job: JobId::new(1),
            nodes: 4,
            lost_node_seconds: 400,
        });
        m.record_lost_work(LostWorkEvent {
            time: SimTime::from_secs(9),
            job: JobId::new(1),
            nodes: 4,
            lost_node_seconds: 100,
        });
        assert_eq!(m.report(4).lost_work, 500);
        assert_eq!(m.lost_events().len(), 2);
        assert_eq!(m.outcomes().len(), 1);
    }

    #[test]
    fn empty_collector_is_all_zero() {
        let r = MetricsCollector::new().report(128);
        assert_eq!(r.qos, 0.0);
        assert_eq!(r.utilization, 0.0);
        assert_eq!(r.lost_work, 0);
        assert_eq!(r.jobs, 0);
        assert_eq!(r.mean_wait_secs, 0.0);
        assert!(!r.to_string().is_empty());
    }

    #[test]
    fn wait_and_threshold_fractions() {
        let mut m = MetricsCollector::new();
        let mut a = outcome(1, 1, 10, 1.0, true);
        a.arrival = SimTime::from_secs(0);
        a.last_start = SimTime::from_secs(30);
        let mut b = outcome(2, 1, 10, 1.0, true);
        b.arrival = SimTime::from_secs(0);
        b.last_start = SimTime::from_secs(10);
        b.satisfied_threshold = false;
        m.record_outcome(a);
        m.record_outcome(b);
        let r = m.report(4);
        assert!((r.mean_wait_secs - 20.0).abs() < 1e-12);
        assert!((r.threshold_satisfied_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn perfect_run_has_qos_one() {
        let mut m = MetricsCollector::new();
        for i in 0..10 {
            m.record_outcome(outcome(i, 2, 100, 1.0, true));
        }
        let r = m.report(4);
        assert!((r.qos - 1.0).abs() < 1e-12);
        assert_eq!(r.deadline_misses, 0);
    }

    #[test]
    #[should_panic(expected = "cluster size")]
    fn zero_cluster_panics() {
        let _ = MetricsCollector::new().report(0);
    }
}
