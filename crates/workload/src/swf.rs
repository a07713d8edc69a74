//! Standard Workload Format (SWF) I/O.
//!
//! The paper's job logs come from the Parallel Workloads Archive, which
//! distributes logs in SWF: one line per job with 18 whitespace-separated
//! fields, `;`-prefixed header comments. This module reads and writes the
//! subset the simulator needs (job number, submit time, run time, allocated
//! processors), so users with access to the *real* NASA iPSC/860 and SDSC
//! SP2 logs can replay them directly.
//!
//! Field reference (1-based, as in the archive documentation):
//!
//! 1. job number, 2. submit time (s), 3. wait time, 4. run time (s),
//! 5. number of allocated processors, 6. average CPU time, 7. used memory,
//! 8. requested processors, 9. requested time, 10. requested memory,
//! 11. status, 12. user id, 13. group id, 14. executable, 15. queue,
//! 16. partition, 17. preceding job, 18. think time.
//!
//! Missing values are `-1`. When the allocated-processor field (5) is
//! missing we fall back to requested processors (8); when run time (4) is
//! missing we fall back to requested time (9). Jobs that remain degenerate
//! (no size or no runtime) are skipped and counted.

use crate::job::{Job, JobId};
use crate::log::{JobLog, JobLogError};
use pqos_sim_core::time::{SimDuration, SimTime};
use std::fmt;

/// Error parsing an SWF document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SwfError {
    /// A data line had fewer than the required fields.
    TooFewFields {
        /// 1-based line number.
        line: usize,
        /// Number of fields found.
        found: usize,
    },
    /// A field failed to parse as an integer, or its value does not fit
    /// what it counts (a negative job number, a size past `u32::MAX`).
    BadField {
        /// 1-based line number.
        line: usize,
        /// 1-based SWF field number.
        field: usize,
        /// Offending token.
        token: String,
    },
    /// The resulting jobs violated a [`JobLog`] invariant.
    Log(JobLogError),
}

impl fmt::Display for SwfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwfError::TooFewFields { line, found } => {
                write!(f, "line {line}: expected at least 9 fields, found {found}")
            }
            SwfError::BadField { line, field, token } => {
                write!(
                    f,
                    "line {line}: field {field} is not an integer in range: {token:?}"
                )
            }
            SwfError::Log(e) => write!(f, "invalid job log: {e}"),
        }
    }
}

impl std::error::Error for SwfError {}

impl From<JobLogError> for SwfError {
    fn from(e: JobLogError) -> Self {
        SwfError::Log(e)
    }
}

/// Outcome of parsing: the log plus how many lines were skipped as
/// degenerate (zero/unknown size or runtime).
#[derive(Debug, Clone, PartialEq)]
pub struct SwfParseResult {
    /// The parsed log.
    pub log: JobLog,
    /// Data lines skipped because size or runtime was missing/zero.
    pub skipped: usize,
}

/// Parses an SWF document.
///
/// # Errors
///
/// Returns [`SwfError`] on malformed lines or duplicate job ids. Lines whose
/// size/runtime are missing (`-1`) or zero are *skipped*, not errors,
/// matching common practice with archive logs.
///
/// # Examples
///
/// ```
/// use pqos_workload::swf::parse_swf;
///
/// let text = "; SWF header comment\n\
///             1 0 5 100 4 -1 -1 -1 -1 -1 1 1 -1 -1 -1 -1 -1 -1\n\
///             2 60 0 200 -1 -1 -1 8 -1 -1 1 1 -1 -1 -1 -1 -1 -1\n";
/// let parsed = parse_swf(text)?;
/// assert_eq!(parsed.log.len(), 2);
/// assert_eq!(parsed.log.jobs()[1].nodes(), 8); // fell back to requested
/// # Ok::<(), pqos_workload::swf::SwfError>(())
/// ```
pub fn parse_swf(text: &str) -> Result<SwfParseResult, SwfError> {
    let mut jobs = Vec::new();
    let mut skipped = 0usize;
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with(';') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() < 9 {
            return Err(SwfError::TooFewFields {
                line: line_no,
                found: fields.len(),
            });
        }
        let bad = |field_1based: usize| SwfError::BadField {
            line: line_no,
            field: field_1based,
            token: fields[field_1based - 1].to_string(),
        };
        let get = |field_1based: usize| -> Result<i64, SwfError> {
            fields[field_1based - 1]
                .parse::<i64>()
                .map_err(|_| bad(field_1based))
        };
        let id = u64::try_from(get(1)?).map_err(|_| bad(1))?;
        let submit = get(2)?;
        let run_time = get(4)?;
        let alloc = get(5)?;
        let req_procs = get(8)?;
        let req_time = get(9)?;

        let (nodes_field, nodes) = if alloc > 0 {
            (5, alloc)
        } else {
            (8, req_procs)
        };
        let runtime = if run_time > 0 { run_time } else { req_time };
        if nodes <= 0 || runtime <= 0 || submit < 0 {
            skipped += 1;
            continue;
        }
        let nodes = u32::try_from(nodes).map_err(|_| bad(nodes_field))?;
        let job = Job::new(
            JobId::new(id),
            SimTime::from_secs(submit as u64),
            nodes,
            SimDuration::from_secs(runtime as u64),
        )
        .expect("validated positive");
        jobs.push(job);
    }
    Ok(SwfParseResult {
        log: JobLog::new(jobs)?,
        skipped,
    })
}

/// Serializes a log to SWF (fields the parser reads are populated; the rest
/// are `-1`).
///
/// # Examples
///
/// ```
/// use pqos_workload::swf::{parse_swf, to_swf};
/// # use pqos_workload::job::{Job, JobId};
/// # use pqos_workload::log::JobLog;
/// # use pqos_sim_core::time::{SimDuration, SimTime};
/// let log = JobLog::new(vec![
///     Job::new(JobId::new(1), SimTime::from_secs(0), 4, SimDuration::from_secs(60))?,
/// ])?;
/// let round_trip = parse_swf(&to_swf(&log))?.log;
/// assert_eq!(round_trip, log);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn to_swf(log: &JobLog) -> String {
    let mut out = String::from("; generated by pqos-workload\n");
    for j in log.iter() {
        out.push_str(&format!(
            "{} {} -1 {} {} -1 -1 {} {} -1 1 1 -1 -1 -1 -1 -1 -1\n",
            j.id().as_u64(),
            j.arrival().as_secs(),
            j.runtime().as_secs(),
            j.nodes(),
            j.nodes(),
            j.runtime().as_secs(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_and_blanks() {
        let text = ";comment\n\n1 10 0 50 2 -1 -1 -1 -1 -1 1 1 -1 -1 -1 -1 -1 -1\n";
        let r = parse_swf(text).unwrap();
        assert_eq!(r.log.len(), 1);
        assert_eq!(r.skipped, 0);
        let j = &r.log.jobs()[0];
        assert_eq!(j.arrival().as_secs(), 10);
        assert_eq!(j.nodes(), 2);
        assert_eq!(j.runtime().as_secs(), 50);
    }

    #[test]
    fn falls_back_to_requested_fields() {
        let text = "1 0 0 -1 -1 -1 -1 16 777 -1 1 1 -1 -1 -1 -1 -1 -1\n";
        let r = parse_swf(text).unwrap();
        let j = &r.log.jobs()[0];
        assert_eq!(j.nodes(), 16);
        assert_eq!(j.runtime().as_secs(), 777);
    }

    #[test]
    fn skips_degenerate_jobs() {
        let text = "1 0 0 -1 -1 -1 -1 -1 -1 -1 1 1 -1 -1 -1 -1 -1 -1\n\
                    2 0 0 100 0 -1 -1 0 -1 -1 1 1 -1 -1 -1 -1 -1 -1\n\
                    3 5 0 100 1 -1 -1 -1 -1 -1 1 1 -1 -1 -1 -1 -1 -1\n";
        let r = parse_swf(text).unwrap();
        assert_eq!(r.log.len(), 1);
        assert_eq!(r.skipped, 2);
    }

    #[test]
    fn too_few_fields_is_an_error() {
        let err = parse_swf("1 2 3\n").unwrap_err();
        assert!(matches!(err, SwfError::TooFewFields { line: 1, found: 3 }));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn non_integer_field_is_an_error() {
        let err = parse_swf("1 0 0 abc 4 -1 -1 -1 -1\n").unwrap_err();
        assert!(matches!(
            err,
            SwfError::BadField {
                line: 1,
                field: 4,
                ..
            }
        ));
        assert!(err.to_string().contains("abc"));
    }

    #[test]
    fn a_size_past_u32_is_an_error_not_a_wrapped_size() {
        // 4294967298 = 2^32 + 2: cast to u32 it used to parse as 2 nodes.
        let err = parse_swf("1 0 0 50 4294967298 -1 -1 -1 -1\n").unwrap_err();
        assert_eq!(
            err,
            SwfError::BadField {
                line: 1,
                field: 5,
                token: "4294967298".to_string(),
            }
        );
        // The same through the requested-processors fallback (field 8).
        let err = parse_swf("1 0 0 50 -1 -1 -1 4294967298 -1\n").unwrap_err();
        assert!(matches!(err, SwfError::BadField { field: 8, .. }));
    }

    #[test]
    fn a_negative_job_number_is_an_error_not_a_huge_id() {
        let err = parse_swf("-3 0 0 50 2 -1 -1 -1 -1\n").unwrap_err();
        assert_eq!(
            err,
            SwfError::BadField {
                line: 1,
                field: 1,
                token: "-3".to_string(),
            }
        );
    }

    #[test]
    fn duplicate_ids_surface_as_log_error() {
        let text = "1 0 0 50 2 -1 -1 -1 -1\n1 9 0 50 2 -1 -1 -1 -1\n";
        let err = parse_swf(text).unwrap_err();
        assert!(matches!(err, SwfError::Log(_)));
    }

    #[test]
    fn swf_round_trip_preserves_log() {
        use crate::job::{Job, JobId};
        let jobs: Vec<Job> = (0..20)
            .map(|i| {
                Job::new(
                    JobId::new(i),
                    SimTime::from_secs(i * 13),
                    (i % 7 + 1) as u32,
                    SimDuration::from_secs(i * 11 + 1),
                )
                .unwrap()
            })
            .collect();
        let log = JobLog::new(jobs).unwrap();
        let parsed = parse_swf(&to_swf(&log)).unwrap();
        assert_eq!(parsed.log, log);
        assert_eq!(parsed.skipped, 0);
    }

    #[test]
    fn negative_submit_time_skipped() {
        let r = parse_swf("1 -5 0 10 2 -1 -1 -1 -1\n").unwrap();
        assert_eq!(r.log.len(), 0);
        assert_eq!(r.skipped, 1);
    }
}
