//! Job logs: ordered collections of jobs plus their aggregate
//! characteristics (the paper's Table 1).

use crate::job::{Job, JobId};
use pqos_sim_core::stats::OnlineStats;
use std::fmt;

/// An arrival-ordered collection of jobs with unique ids.
///
/// # Examples
///
/// ```
/// use pqos_sim_core::time::{SimDuration, SimTime};
/// use pqos_workload::job::{Job, JobId};
/// use pqos_workload::log::JobLog;
///
/// let jobs = vec![
///     Job::new(JobId::new(1), SimTime::from_secs(50), 2, SimDuration::from_secs(10))?,
///     Job::new(JobId::new(0), SimTime::from_secs(10), 4, SimDuration::from_secs(20))?,
/// ];
/// let log = JobLog::new(jobs)?;
/// assert_eq!(log.len(), 2);
/// assert_eq!(log.jobs()[0].id(), JobId::new(0)); // sorted by arrival
/// assert_eq!(log.stats().total_work, 2 * 10 + 4 * 20);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobLog {
    jobs: Vec<Job>,
}

/// Error constructing a [`JobLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobLogError {
    /// Two jobs share the same [`JobId`].
    DuplicateId(JobId),
}

impl fmt::Display for JobLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobLogError::DuplicateId(id) => write!(f, "duplicate job id {id}"),
        }
    }
}

impl std::error::Error for JobLogError {}

impl JobLog {
    /// Builds a log, sorting jobs by arrival time (ties by id).
    ///
    /// # Errors
    ///
    /// Returns [`JobLogError::DuplicateId`] if two jobs share an id.
    pub fn new(mut jobs: Vec<Job>) -> Result<Self, JobLogError> {
        jobs.sort_by_key(|j| (j.arrival(), j.id()));
        let mut ids: Vec<JobId> = jobs.iter().map(|j| j.id()).collect();
        ids.sort_unstable();
        for pair in ids.windows(2) {
            if pair[0] == pair[1] {
                return Err(JobLogError::DuplicateId(pair[0]));
            }
        }
        Ok(JobLog { jobs })
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the log contains no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// The jobs, sorted by arrival time.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// Iterates over jobs in arrival order.
    pub fn iter(&self) -> impl Iterator<Item = &Job> {
        self.jobs.iter()
    }

    /// Total useful work `Σ ej·nj` in node-seconds, saturating at
    /// `u64::MAX`.
    pub(crate) fn total_work(&self) -> u64 {
        self.jobs.iter().map(Job::work).fold(0, u64::saturating_add)
    }

    /// Time between first and last arrival, or zero for an empty log.
    #[cfg(test)]
    fn arrival_span(&self) -> pqos_sim_core::time::SimDuration {
        match (self.jobs.first(), self.jobs.last()) {
            (Some(first), Some(last)) => last.arrival() - first.arrival(),
            _ => pqos_sim_core::time::SimDuration::ZERO,
        }
    }

    /// Aggregate characteristics (the paper's Table 1 rows).
    pub fn stats(&self) -> LogStats {
        let mut nodes = OnlineStats::new();
        let mut runtime = OnlineStats::new();
        for j in &self.jobs {
            nodes.push(f64::from(j.nodes()));
            runtime.push(j.runtime().as_secs() as f64);
        }
        LogStats {
            count: self.jobs.len(),
            avg_nodes: nodes.mean(),
            max_nodes: nodes.max().unwrap_or(0.0) as u32,
            avg_runtime_secs: runtime.mean(),
            max_runtime_secs: runtime.max().unwrap_or(0.0) as u64,
            total_work: self.total_work(),
        }
    }

    /// Offered load against a cluster of `n` nodes: `Σ ej·nj / (span · n)`
    /// (what the synthetic generator's tests hold to its target).
    ///
    /// Returns 0 for logs whose arrivals all coincide.
    #[cfg(test)]
    pub(crate) fn offered_load(&self, n: u32) -> f64 {
        let span = self.arrival_span().as_secs();
        if span == 0 {
            return 0.0;
        }
        self.total_work() as f64 / (span as f64 * f64::from(n))
    }
}

impl<'a> IntoIterator for &'a JobLog {
    type Item = &'a Job;
    type IntoIter = std::slice::Iter<'a, Job>;
    fn into_iter(self) -> Self::IntoIter {
        self.jobs.iter()
    }
}

/// Aggregate job-log characteristics, mirroring the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogStats {
    /// Number of jobs.
    pub count: usize,
    /// Mean size in nodes (paper: NASA 6.3, SDSC 9.7).
    pub avg_nodes: f64,
    /// Largest size in nodes.
    pub max_nodes: u32,
    /// Mean runtime in seconds (paper: NASA 381 s, SDSC 7722 s).
    pub avg_runtime_secs: f64,
    /// Longest runtime in seconds (paper: NASA 12 h, SDSC 132 h).
    pub max_runtime_secs: u64,
    /// Total useful work in node-seconds.
    pub total_work: u64,
}

impl fmt::Display for LogStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} jobs, avg {:.1} nodes (max {}), avg {:.0} s (max {:.1} h), {} node-s total",
            self.count,
            self.avg_nodes,
            self.max_nodes,
            self.avg_runtime_secs,
            self.max_runtime_secs as f64 / 3600.0,
            self.total_work
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqos_sim_core::time::{SimDuration, SimTime};

    fn job(id: u64, arrive: u64, nodes: u32, runtime: u64) -> Job {
        Job::new(
            JobId::new(id),
            SimTime::from_secs(arrive),
            nodes,
            SimDuration::from_secs(runtime),
        )
        .unwrap()
    }

    #[test]
    fn sorts_by_arrival() {
        let log = JobLog::new(vec![job(2, 30, 1, 1), job(1, 10, 1, 1), job(3, 20, 1, 1)]).unwrap();
        let order: Vec<u64> = log.iter().map(|j| j.id().as_u64()).collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn duplicate_ids_rejected() {
        let err = JobLog::new(vec![job(1, 0, 1, 1), job(1, 5, 1, 1)]).unwrap_err();
        assert_eq!(err, JobLogError::DuplicateId(JobId::new(1)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn empty_log_is_safe() {
        let log = JobLog::new(vec![]).unwrap();
        assert!(log.is_empty());
        assert_eq!(log.total_work(), 0);
        assert_eq!(log.arrival_span(), SimDuration::ZERO);
        assert_eq!(log.offered_load(128), 0.0);
        assert_eq!(log.stats().count, 0);
    }

    #[test]
    fn stats_match_hand_computation() {
        let log = JobLog::new(vec![job(1, 0, 2, 100), job(2, 50, 6, 300)]).unwrap();
        let s = log.stats();
        assert_eq!(s.count, 2);
        assert!((s.avg_nodes - 4.0).abs() < 1e-12);
        assert_eq!(s.max_nodes, 6);
        assert!((s.avg_runtime_secs - 200.0).abs() < 1e-12);
        assert_eq!(s.max_runtime_secs, 300);
        assert_eq!(s.total_work, 2 * 100 + 6 * 300);
        assert!(!s.to_string().is_empty());
    }

    #[test]
    fn offered_load_formula() {
        // Work 1000 node-s over span 100 s on 10 nodes => load 1.0.
        let log = JobLog::new(vec![job(1, 0, 10, 50), job(2, 100, 10, 50)]).unwrap();
        assert!((log.offered_load(10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn total_work_and_load_saturate_instead_of_wrapping() {
        // Job 1's 2^62 s × 4 nodes is 2^64 node-seconds. Unchecked, a
        // debug build panicked and a release build wrapped it to 0,
        // reporting 200 node-s of work and a load of 0.156.
        let log = crate::swf::parse_swf(
            "1 0 5 4611686018427387904 4 -1 -1 -1 -1\n2 10 5 100 2 -1 -1 -1 -1\n",
        )
        .unwrap()
        .log;
        assert_eq!(log.stats().total_work, u64::MAX);
        assert_eq!(log.total_work(), u64::MAX);
        assert_eq!(log.offered_load(128), u64::MAX as f64 / (10.0 * 128.0));
    }

    #[test]
    fn arrival_ties_break_by_id() {
        let log = JobLog::new(vec![job(5, 10, 1, 1), job(2, 10, 1, 1)]).unwrap();
        let order: Vec<u64> = log.iter().map(|j| j.id().as_u64()).collect();
        assert_eq!(order, vec![2, 5]);
    }
}
