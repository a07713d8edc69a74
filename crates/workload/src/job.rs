//! The job model.
//!
//! A job, as in the paper (§3.3), is described by its arrival time `vj`, its
//! size in nodes `nj`, and its failure-free execution time excluding
//! checkpoints `ej`. The simulator derives everything else (checkpointed
//! execution time `Ej`, start `sj`, finish `fj`) at run time.

use pqos_sim_core::time::{SimDuration, SimTime};
use std::fmt;

/// Identifier of a job, unique within a [`crate::log::JobLog`].
///
/// # Examples
///
/// ```
/// use pqos_workload::job::JobId;
///
/// let j = JobId::new(42);
/// assert_eq!(j.as_u64(), 42);
/// assert_eq!(j.to_string(), "j42");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(u64);

impl JobId {
    /// Creates a job id.
    pub const fn new(v: u64) -> Self {
        JobId(v)
    }

    /// The raw numeric value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "j{}", self.0)
    }
}

impl From<u64> for JobId {
    fn from(v: u64) -> Self {
        JobId(v)
    }
}

/// Error constructing a [`Job`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobError {
    /// Jobs must occupy at least one node.
    ZeroNodes,
    /// Jobs must have a positive runtime (§3.3 assumes a minimum runtime).
    ZeroRuntime,
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::ZeroNodes => write!(f, "job must request at least one node"),
            JobError::ZeroRuntime => write!(f, "job must have a positive runtime"),
        }
    }
}

impl std::error::Error for JobError {}

/// A batch job: arrival time, node count, and checkpoint-free runtime.
///
/// # Examples
///
/// ```
/// use pqos_sim_core::time::{SimDuration, SimTime};
/// use pqos_workload::job::{Job, JobId};
///
/// let job = Job::new(
///     JobId::new(1),
///     SimTime::from_secs(100),
///     8,
///     SimDuration::from_secs(3600),
/// )?;
/// assert_eq!((job.nodes(), job.runtime().as_secs()), (8, 3600));
/// # Ok::<(), pqos_workload::job::JobError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Job {
    id: JobId,
    arrival: SimTime,
    nodes: u32,
    runtime: SimDuration,
}

impl Job {
    /// Creates a job.
    ///
    /// # Errors
    ///
    /// Returns [`JobError::ZeroNodes`] or [`JobError::ZeroRuntime`] for
    /// degenerate requests, which the paper's scheduler explicitly excludes.
    pub fn new(
        id: JobId,
        arrival: SimTime,
        nodes: u32,
        runtime: SimDuration,
    ) -> Result<Self, JobError> {
        if nodes == 0 {
            return Err(JobError::ZeroNodes);
        }
        if runtime.is_zero() {
            return Err(JobError::ZeroRuntime);
        }
        Ok(Job {
            id,
            arrival,
            nodes,
            runtime,
        })
    }

    /// The job's identifier.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Arrival (submission) time `vj`.
    pub fn arrival(&self) -> SimTime {
        self.arrival
    }

    /// Size in nodes `nj`.
    pub fn nodes(&self) -> u32 {
        self.nodes
    }

    /// Failure-free execution time excluding checkpoints, `ej`.
    pub fn runtime(&self) -> SimDuration {
        self.runtime
    }

    /// Useful work `ej · nj` in node-seconds (the paper's unit of work),
    /// saturating at `u64::MAX`: a log may hold any runtime.
    pub(crate) fn work(&self) -> u64 {
        self.runtime.as_secs().saturating_mul(u64::from(self.nodes))
    }
}

impl fmt::Display for Job {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (arrive {}, {} nodes, {})",
            self.id, self.arrival, self.nodes, self.runtime
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_job_exposes_fields() {
        let j = Job::new(
            JobId::new(7),
            SimTime::from_secs(5),
            4,
            SimDuration::from_secs(100),
        )
        .unwrap();
        assert_eq!(j.id(), JobId::new(7));
        assert_eq!(j.arrival(), SimTime::from_secs(5));
        assert_eq!(j.nodes(), 4);
        assert_eq!(j.runtime(), SimDuration::from_secs(100));
        assert_eq!(j.work(), 400);
    }

    #[test]
    fn work_saturates_instead_of_wrapping() {
        // 2^62 s on 4 nodes is 2^64 node-seconds: one past u64::MAX, which
        // an unchecked product wrapped to 0 (and panicked on in debug).
        let j = Job::new(
            JobId::new(1),
            SimTime::ZERO,
            4,
            SimDuration::from_secs(1 << 62),
        )
        .unwrap();
        assert_eq!(j.work(), u64::MAX);
    }

    #[test]
    fn rejects_degenerate_jobs() {
        assert_eq!(
            Job::new(JobId::new(1), SimTime::ZERO, 0, SimDuration::from_secs(1)),
            Err(JobError::ZeroNodes)
        );
        assert_eq!(
            Job::new(JobId::new(1), SimTime::ZERO, 1, SimDuration::ZERO),
            Err(JobError::ZeroRuntime)
        );
    }

    #[test]
    fn errors_display() {
        assert!(!JobError::ZeroNodes.to_string().is_empty());
        assert!(!JobError::ZeroRuntime.to_string().is_empty());
    }

    #[test]
    fn job_id_conversions() {
        assert_eq!(JobId::from(3u64).as_u64(), 3);
        assert_eq!(JobId::new(3).to_string(), "j3");
    }

    #[test]
    fn display_mentions_everything() {
        let j = Job::new(
            JobId::new(2),
            SimTime::from_secs(1),
            16,
            SimDuration::from_secs(60),
        )
        .unwrap();
        let s = j.to_string();
        assert!(s.contains("j2") && s.contains("16") && s.contains("60"));
    }
}
