//! The paper's metrics (§3.5): QoS (Eq. 2), capacity utilization, and
//! work lost to failures — plus the secondary counters the experiment
//! harness reports.

use crate::lifecycle::HeldQuote;
use pqos_sim_core::time::{SimDuration, SimTime};
use pqos_workload::job::Job;
use std::fmt;

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

/// Running sums over a run's finished jobs and the work its failures
/// rolled back, reduced to a [`SimReport`] when the run ends. The
/// simulator adds each job as it finishes and each loss as it happens, so
/// every float sums in event order.
#[derive(Debug, Clone)]
pub(crate) struct RunTotals {
    jobs: usize,
    /// `Σ ej·nj`, saturating.
    total_work: u64,
    /// `Σ ej·nj·pj` over the jobs that met their deadline (Eq. 2).
    kept_promise: f64,
    /// `Σ ej·nj·pj` over every job.
    promise: f64,
    /// `min vj` (`SimTime::MAX` before the first job).
    first_arrival: SimTime,
    /// `max fj`.
    last_finish: SimTime,
    deadline_misses: usize,
    job_failures: usize,
    checkpoints_performed: u64,
    checkpoints_skipped: u64,
    /// `Σ (sj − vj)`, in seconds.
    wait_secs: f64,
    threshold_satisfied: usize,
    /// `ω_lost`, saturating.
    lost_work: u64,
}

impl Default for RunTotals {
    fn default() -> Self {
        // The float sums start at −0.0, where `Iterator::sum` starts, so
        // a run in which no job meets its deadline scores a QoS of −0.0.
        RunTotals {
            jobs: 0,
            total_work: 0,
            kept_promise: -0.0,
            promise: -0.0,
            first_arrival: SimTime::MAX,
            last_finish: SimTime::ZERO,
            deadline_misses: 0,
            job_failures: 0,
            checkpoints_performed: 0,
            checkpoints_skipped: 0,
            wait_secs: -0.0,
            threshold_satisfied: 0,
            lost_work: 0,
        }
    }
}

impl RunTotals {
    /// Adds a job that finished at `finish` under the promise `held`,
    /// its last attempt started at `last_start`, after `failures`
    /// failures and with `checkpoints` (performed, skipped).
    pub(crate) fn finish(
        &mut self,
        job: &Job,
        held: &HeldQuote,
        last_start: SimTime,
        finish: SimTime,
        failures: u32,
        checkpoints: (u32, u32),
    ) {
        let met = finish <= held.deadline;
        let work = job
            .runtime()
            .as_secs()
            .saturating_mul(u64::from(job.nodes()));
        let weighted = work as f64 * held.quote.promised_success();
        self.jobs += 1;
        self.total_work = self.total_work.saturating_add(work);
        if met {
            self.kept_promise += weighted;
        } else {
            self.deadline_misses += 1;
        }
        self.promise += weighted;
        self.first_arrival = self.first_arrival.min(job.arrival());
        self.last_finish = self.last_finish.max(finish);
        self.job_failures += failures as usize;
        self.checkpoints_performed += u64::from(checkpoints.0);
        self.checkpoints_skipped += u64::from(checkpoints.1);
        self.wait_secs += last_start.saturating_since(job.arrival()).as_secs() as f64;
        self.threshold_satisfied += usize::from(held.satisfied_threshold);
    }

    /// Adds `node_seconds` of work a failure rolled back.
    pub(crate) fn lose(&mut self, node_seconds: u64) {
        self.lost_work = self.lost_work.saturating_add(node_seconds);
    }

    /// Reduces to a report for a cluster of `cluster_size` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `cluster_size == 0`.
    pub(crate) fn report(&self, cluster_size: u32) -> SimReport {
        assert!(cluster_size > 0, "cluster size must be positive");
        let total_work = self.total_work;
        // `T = max fj − min vj`; zero before the first job, when
        // `first_arrival` is still `SimTime::MAX`.
        let makespan = self.last_finish.saturating_since(self.first_arrival);
        let utilization = if makespan.is_zero() {
            0.0
        } else {
            total_work as f64 / (makespan.as_secs() as f64 * f64::from(cluster_size))
        };
        let n = self.jobs;
        let per_work = |sum: f64| {
            if total_work > 0 {
                sum / total_work as f64
            } else {
                0.0
            }
        };
        let per_job = |sum: f64| if n > 0 { sum / n as f64 } else { 0.0 };
        SimReport {
            qos: per_work(self.kept_promise),
            utilization,
            lost_work: self.lost_work,
            total_work,
            makespan,
            jobs: n,
            deadline_misses: self.deadline_misses,
            job_failures: self.job_failures,
            checkpoints_performed: self.checkpoints_performed,
            checkpoints_skipped: self.checkpoints_skipped,
            mean_promise: per_work(self.promise),
            mean_wait_secs: per_job(self.wait_secs),
            threshold_satisfied_fraction: per_job(self.threshold_satisfied as f64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::negotiate::Quote;
    use pqos_cluster::partition::Partition;
    use pqos_workload::job::JobId;

    /// One finished job's terms, as the simulator hands them over.
    struct Outcome {
        nodes: u32,
        runtime: u64,
        promised: f64,
        arrival: u64,
        last_start: u64,
        finish: u64,
        met: bool,
        satisfied: bool,
    }

    fn outcome(nodes: u32, runtime: u64, promised: f64, met: bool) -> Outcome {
        Outcome {
            nodes,
            runtime,
            promised,
            arrival: 0,
            last_start: 10,
            finish: 100,
            met,
            satisfied: true,
        }
    }

    fn add(totals: &mut RunTotals, o: Outcome) {
        let job = Job::new(
            JobId::new(0),
            SimTime::from_secs(o.arrival),
            o.nodes,
            SimDuration::from_secs(o.runtime),
        )
        .unwrap();
        let deadline = SimTime::from_secs(if o.met { o.finish } else { o.finish - 1 });
        let held = HeldQuote {
            quote: Quote {
                start: SimTime::from_secs(o.last_start),
                deadline,
                partition: Partition::contiguous(0, o.nodes),
                failure_probability: 1.0 - o.promised,
            },
            deadline,
            satisfied_threshold: o.satisfied,
        };
        let misses = totals.deadline_misses;
        totals.finish(
            &job,
            &held,
            SimTime::from_secs(o.last_start),
            SimTime::from_secs(o.finish),
            0,
            (0, 0),
        );
        assert_eq!(totals.deadline_misses - misses, usize::from(!o.met));
    }

    #[test]
    fn qos_is_eq2() {
        let mut m = RunTotals::default();
        // Job A: 100 node-s, promised 1.0, met. Job B: 300 node-s, promised
        // 0.8, missed. QoS = (100·1·1.0) / 400 = 0.25.
        add(&mut m, outcome(1, 100, 1.0, true));
        add(&mut m, outcome(3, 100, 0.8, false));
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
        let mut m = RunTotals::default();
        add(&mut m, outcome(4, 1 << 62, 1.0, true));
        add(&mut m, outcome(2, 100, 0.5, true));
        m.lose(u64::MAX);
        m.lose(1);
        let r = m.report(128);
        assert_eq!(r.total_work, u64::MAX);
        assert_eq!(r.lost_work, u64::MAX);
        assert!(r.qos > 0.999 && r.qos <= 1.0, "qos {}", r.qos);
        assert!(r.utilization > 1e12, "utilization {}", r.utilization);
    }

    #[test]
    fn missed_jobs_contribute_nothing_to_qos() {
        let mut m = RunTotals::default();
        add(&mut m, outcome(2, 50, 0.9, false));
        let r = m.report(4);
        assert_eq!(r.qos, 0.0);
    }

    #[test]
    fn utilization_uses_makespan_and_cluster_size() {
        let mut m = RunTotals::default();
        add(
            &mut m,
            Outcome {
                arrival: 0,
                finish: 100,
                ..outcome(2, 100, 1.0, true)
            },
        );
        // 200 node-s over 100 s on 4 nodes → 0.5.
        let r = m.report(4);
        assert!((r.utilization - 0.5).abs() < 1e-12);
        assert_eq!(r.makespan, SimDuration::from_secs(100));
    }

    #[test]
    fn lost_work_sums_events() {
        let mut m = RunTotals::default();
        add(&mut m, outcome(1, 10, 1.0, true));
        m.lose(400);
        m.lose(100);
        let r = m.report(4);
        assert_eq!(r.lost_work, 500);
        assert_eq!(r.jobs, 1);
    }

    #[test]
    fn empty_collector_is_all_zero() {
        let r = RunTotals::default().report(128);
        assert_eq!(r.qos, 0.0);
        assert_eq!(r.utilization, 0.0);
        assert_eq!(r.lost_work, 0);
        assert_eq!(r.jobs, 0);
        assert_eq!(r.mean_wait_secs, 0.0);
        assert!(!r.to_string().is_empty());
    }

    #[test]
    fn wait_and_threshold_fractions() {
        let mut m = RunTotals::default();
        add(
            &mut m,
            Outcome {
                arrival: 0,
                last_start: 30,
                ..outcome(1, 10, 1.0, true)
            },
        );
        add(
            &mut m,
            Outcome {
                arrival: 0,
                last_start: 10,
                satisfied: false,
                ..outcome(1, 10, 1.0, true)
            },
        );
        let r = m.report(4);
        assert!((r.mean_wait_secs - 20.0).abs() < 1e-12);
        assert!((r.threshold_satisfied_fraction - 0.5).abs() < 1e-12);
    }

    #[test]
    fn perfect_run_has_qos_one() {
        let mut m = RunTotals::default();
        for _ in 0..10 {
            add(&mut m, outcome(2, 100, 1.0, true));
        }
        let r = m.report(4);
        assert!((r.qos - 1.0).abs() < 1e-12);
        assert_eq!(r.deadline_misses, 0);
    }

    #[test]
    #[should_panic(expected = "cluster size")]
    fn zero_cluster_panics() {
        let _ = RunTotals::default().report(0);
    }
}
