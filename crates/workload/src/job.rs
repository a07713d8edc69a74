//! The job model.
//!
//! A job, as in the paper (§3.3), is described by its arrival time `vj`, its
//! size in nodes `nj`, and its failure-free execution time excluding
//! checkpoints `ej`. The simulator derives everything else (checkpointed
//! execution time `Ej`, start `sj`, finish `fj`) at run time.

use pqos_sim_core::time::{SimDuration, SimTime};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

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

/// A hash map keyed by [`JobId`], hashed by [`JobIdHasher`] instead of
/// the standard library's SipHash.
///
/// Nothing in the workspace iterates a `JobMap`, so its (hasher-dependent)
/// order never reaches a journal, a report or a reply.
pub type JobMap<V> = HashMap<JobId, V, BuildHasherDefault<JobIdHasher>>;

/// The hasher behind [`JobMap`]: a job id times an odd 64-bit constant
/// (the Fx multiply; several writes fold in as Fx does).
///
/// Multiplying by an odd constant permutes the residues mod every `2^k`,
/// so consecutive ids from any base land in distinct buckets of a table
/// of up to `2^k` buckets, and the high bits the table also reads are
/// mixed by the carries. The ids the workspace inserts come from counters:
/// job-log numbers, the daemon's job counter, the counter values a
/// recorded trace replays, and each reservation book's reservation ids
/// (`pqos_sched`'s index of live reservations, keyed by a per-book counter
/// and listed only after sorting by id).
///
/// SipHash is keyed so that chosen keys cannot force collisions; this
/// hasher is not, and it need not be: a client never chooses an inserted
/// key, because `negotiate` carries no job id (the daemon assigns it),
/// a reservation id is the book's own counter, and a client-named id in
/// `accept` or `cancel` is only looked up. Its known weakness: ids
/// strided by `2^k` share their low `k` bits, so they share home buckets
/// in a table of `2^k` or fewer. A sharded daemon anchors a job at
/// `id % shards`, so a shard's table holds ids strided by the shard count;
/// the table's probe groups absorb strides of a few shards, but ids spaced
/// by ~1,024 or more make it several times slower than SipHash.
#[derive(Debug, Default, Clone, Copy)]
pub struct JobIdHasher(u64);

/// The Fx constant: odd, with its bits spread over the whole word.
const FX: u64 = 0x517c_c1b7_2722_0a95;

impl Hasher for JobIdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(FX);
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

    /// 1,024 consecutive ids from each base hash to 1,024 distinct values
    /// mod 1,024: a table of up to 1,024 buckets holds them one to a
    /// bucket. The multiply followed by a fold (`x ^ x >> 32`), murmur3's
    /// `fmix64` or SipHash put only about 650 of them in distinct buckets.
    /// The hashes' top 7 bits (the tag the table compares before a key)
    /// take all 128 values too, which a bare fold of the id does not.
    /// Ids strided by a shard count up to 64 (a shard's ids) lose exactly
    /// the stride's low bits — 1,024 / stride home buckets, stride ids to
    /// each — and keep all 128 tags.
    #[test]
    fn consecutive_ids_fill_distinct_buckets() {
        use std::collections::BTreeSet;
        use std::hash::BuildHasher;
        let hasher = BuildHasherDefault::<JobIdHasher>::default();
        for stride in [1, 4, 64] {
            for base in [0, 1 << 32, u64::MAX - 1023 * stride] {
                let hashes: Vec<u64> = (0..1024)
                    .map(|i| hasher.hash_one(JobId::new(base + i * stride)))
                    .collect();
                let buckets: BTreeSet<u64> = hashes.iter().map(|h| h % 1024).collect();
                assert_eq!(
                    buckets.len() as u64,
                    1024 / stride,
                    "stride {stride} from {base}"
                );
                let tags: BTreeSet<u64> = hashes.iter().map(|h| h >> 57).collect();
                assert_eq!(tags.len(), 128, "stride {stride} from {base}");
            }
        }
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
