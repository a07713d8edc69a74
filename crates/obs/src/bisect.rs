//! Delta-debugging for failing request traces (`pqos-doctor bisect`).
//!
//! Given a recorded trace whose replay produces findings — doctor
//! invariant violations in the replayed journal, or response-parity
//! mismatches against the recorded responses — [`bisect_trace`] shrinks
//! the trace to a (locally) minimal subsequence of requests that still
//! produces the targeted finding code. The shrinking engine is classic
//! ddmin (Zeller's delta debugging): try chunks, then complements, then
//! double the granularity, until no single removal keeps the failure.
//!
//! Every candidate subsequence is judged by *actually replaying it*
//! through the real engine code path, so a minimal reproducer from this
//! module is a real incident you can step through with
//! `pqos-replay run --step`. Candidates that fail to replay at all (a
//! dangling accept for a dropped negotiate is still replayable; a
//! malformed trace is not) simply count as uninteresting.

use crate::doctor::Doctor;
use pqos_service::replay::{replay, ReplayOptions};
use pqos_telemetry::reqtrace::RequestTrace;
use std::collections::BTreeMap;

/// The finding code bisect uses for response-parity mismatches, which the
/// doctor (a journal tool) does not know about.
pub(crate) const RESPONSE_MISMATCH: &str = "response_mismatch";

/// Replays `trace` and returns every finding code it produces with its
/// count: the doctor's codes over the replayed journal, plus
/// [`RESPONSE_MISMATCH`] when any replayed response differs from the
/// recorded one.
///
/// # Errors
///
/// A trace that cannot be replayed at all (wrong source, unknown
/// predictor, inconsistent entries) is an error, not a finding.
pub(crate) fn findings_for_trace(trace: &RequestTrace) -> Result<BTreeMap<String, u64>, String> {
    let report = replay(trace, &ReplayOptions::default()).map_err(|e| e.to_string())?;
    Ok(finding_codes(&report.journal, report.mismatches.len()))
}

/// Counts finding codes for an already-replayed trace: the doctor's codes
/// over `journal`, plus `response_mismatch` when any response diverged.
pub fn finding_codes(journal: &str, response_mismatches: usize) -> BTreeMap<String, u64> {
    let mut codes: BTreeMap<String, u64> = BTreeMap::new();
    for finding in Doctor::check_str(journal).findings {
        *codes.entry(finding.code.to_string()).or_insert(0) += 1;
    }
    if response_mismatches > 0 {
        codes.insert(RESPONSE_MISMATCH.into(), response_mismatches as u64);
    }
    codes
}

/// Minimizes the index set `0..n` with ddmin: returns a subset for which
/// `interesting` still holds and from which no chunk at final granularity
/// can be removed. `interesting` always receives indices in increasing
/// order, and is assumed to hold for the full set.
pub(crate) fn ddmin(n: usize, interesting: &mut dyn FnMut(&[usize]) -> bool) -> Vec<usize> {
    let mut current: Vec<usize> = (0..n).collect();
    let mut granularity = 2usize;
    while current.len() >= 2 {
        let chunk_len = current.len().div_ceil(granularity);
        let chunks: Vec<Vec<usize>> = current.chunks(chunk_len).map(<[usize]>::to_vec).collect();
        let mut reduced = false;
        // Reduce to one chunk: the biggest single step.
        for chunk in &chunks {
            if chunk.len() < current.len() && interesting(chunk) {
                current = chunk.clone();
                granularity = 2;
                reduced = true;
                break;
            }
        }
        // Remove one chunk: the complement step.
        if !reduced && chunks.len() > 1 {
            for skip in 0..chunks.len() {
                let complement: Vec<usize> = chunks
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != skip)
                    .flat_map(|(_, c)| c.iter().copied())
                    .collect();
                if complement.len() < current.len() && interesting(&complement) {
                    current = complement;
                    granularity = granularity.saturating_sub(1).max(2);
                    reduced = true;
                    break;
                }
            }
        }
        if !reduced {
            if granularity >= current.len() {
                break; // 1-minimal at single-entry granularity
            }
            granularity = (granularity * 2).min(current.len());
        }
    }
    current
}

/// What [`bisect_trace`] found: the shrunk trace and the numbers CI
/// asserts on.
#[derive(Debug, Clone)]
pub struct TraceBisect {
    /// The finding code the minimal trace preserves.
    pub target: String,
    /// Request entries in the original trace.
    pub original_requests: usize,
    /// Request entries in the minimal trace.
    pub minimal_requests: usize,
    /// Candidate replays executed while shrinking.
    pub tests_run: u64,
    /// The minimal reproducer, ready to encode and replay.
    pub minimal: RequestTrace,
}

impl TraceBisect {
    /// One JSON object with the shrink summary (for CI to parse).
    pub fn summary_json(&self) -> String {
        let mut w = pqos_telemetry::json::ObjWriter::new();
        w.str("target", &self.target)
            .u64("original_requests", self.original_requests as u64)
            .u64("minimal_requests", self.minimal_requests as u64)
            .u64("tests_run", self.tests_run);
        w.finish()
    }
}

/// Shrinks `trace` to a minimal subsequence that still produces `target`
/// (default: the alphabetically first code the full trace produces).
///
/// # Errors
///
/// The full trace must replay through the real engine and must
/// actually produce the targeted finding; a clean trace has nothing to
/// bisect.
pub fn bisect_trace(trace: &RequestTrace, target: Option<&str>) -> Result<TraceBisect, String> {
    let full = findings_for_trace(trace)?;
    let target: String = match target {
        Some(t) if full.contains_key(t) => t.to_string(),
        Some(t) => {
            let have: Vec<&str> = full.keys().map(String::as_str).collect();
            return Err(format!(
                "trace does not produce finding `{t}` (it produces: {})",
                if have.is_empty() {
                    "none — it replays clean".to_string()
                } else {
                    have.join(", ")
                }
            ));
        }
        None => match full.keys().next() {
            Some(first) => first.clone(),
            None => return Err("trace replays clean (no findings); nothing to bisect".into()),
        },
    };

    let mut tests_run = 0u64;
    let mut interesting = |indices: &[usize]| -> bool {
        tests_run += 1;
        let candidate = RequestTrace {
            meta: trace.meta.clone(),
            entries: indices.iter().map(|&i| trace.entries[i].clone()).collect(),
        };
        matches!(findings_for_trace(&candidate), Ok(codes) if codes.contains_key(&target))
    };
    let kept = ddmin(trace.entries.len(), &mut interesting);
    let minimal = RequestTrace {
        meta: trace.meta.clone(),
        entries: kept.iter().map(|&i| trace.entries[i].clone()).collect(),
    };
    Ok(TraceBisect {
        target,
        original_requests: trace.entries.len(),
        minimal_requests: minimal.entries.len(),
        tests_run,
        minimal,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddmin_isolates_a_single_culprit() {
        let culprit = 17usize;
        let mut tests = 0;
        let kept = ddmin(40, &mut |idx| {
            tests += 1;
            idx.contains(&culprit)
        });
        assert_eq!(kept, vec![culprit]);
        assert!(tests < 200, "ddmin should not brute-force: {tests} tests");
    }

    #[test]
    fn ddmin_keeps_an_interacting_pair() {
        // Failure needs BOTH 3 and 30 — ddmin must not drop either.
        let kept = ddmin(32, &mut |idx| idx.contains(&3) && idx.contains(&30));
        assert_eq!(kept, vec![3, 30]);
    }

    #[test]
    fn ddmin_handles_degenerate_sizes() {
        assert!(ddmin(0, &mut |_| true).is_empty());
        assert_eq!(ddmin(1, &mut |_| true), vec![0]);
    }
}
