//! # pqos-replay
//!
//! Deterministic incident replay for the negotiation daemon, closing the
//! capture → replay → shrink loop:
//!
//! * **capture** — `pqos-qosd --record trace.jsonl` writes every answered
//!   request with its batch epoch and virtual tick (the
//!   `pqos-service::record` module);
//! * **replay** — `pqos-replay run trace.jsonl` feeds the trace back
//!   through the real engine code path with no sockets and no wall
//!   clock, asserting byte-identical journals and response parity (the
//!   `pqos-service::replay` module does the work; this crate is the
//!   command line and the corpus layer on top);
//! * **corpus** — `pqos-replay check traces/failing` replays every
//!   checked-in incident trace against its pinned findings
//!   ([`check_corpus_dir`]), so fixed bugs stay fixed and new findings
//!   cannot appear silently;
//! * **shrink** — `pqos-doctor bisect` (in `pqos-obs`) delta-debugs a
//!   failing trace to a minimal reproducer worth checking in here.
//!
//! A corpus case is a directory containing `trace.jsonl` (required),
//! `journal.jsonl` (optional: the pinned replay journal, compared
//! byte-for-byte), and `expected.json` (optional: pinned finding codes;
//! absent means the replay must be clean). An optional file that exists
//! but cannot be read fails its case: only a missing file is absent.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use pqos_obs::bisect::finding_codes;
use pqos_obs::first_divergence;
use pqos_obs::manifest::ExpectedFindings;
use pqos_service::replay::{replay, ReplayOptions};
use pqos_telemetry::reqtrace::RequestTrace;
use std::fmt;
use std::path::Path;

/// The outcome of replaying one corpus case.
#[derive(Debug, Clone)]
pub(crate) struct CorpusCase {
    /// Directory name under the corpus root.
    pub name: String,
    /// What went wrong; `None` when the case passed.
    pub failure: Option<String>,
    /// Trace entries replayed (0 when the trace never loaded).
    pub entries: usize,
}

/// The outcome of replaying a whole corpus directory.
#[derive(Debug, Clone, Default)]
pub struct CorpusReport {
    /// One entry per case directory, in name order.
    cases: Vec<CorpusCase>,
}

impl CorpusReport {
    /// Whether every case matched its pinned expectation.
    pub fn is_clean(&self) -> bool {
        self.cases.iter().all(|c| c.failure.is_none())
    }

    /// Cases that failed.
    pub(crate) fn failures(&self) -> usize {
        self.cases.iter().filter(|c| c.failure.is_some()).count()
    }
}

impl fmt::Display for CorpusReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for case in &self.cases {
            match &case.failure {
                None => writeln!(f, "ok   {} ({} entries)", case.name, case.entries)?,
                Some(why) => writeln!(f, "FAIL {}: {why}", case.name)?,
            }
        }
        write!(
            f,
            "{} case(s), {} failure(s)",
            self.cases.len(),
            self.failures()
        )
    }
}

/// Replays every case directory under `root` against its pinned
/// expectations: findings must match `expected.json` exactly (clean when
/// absent), and when `journal.jsonl` is pinned the replayed journal must
/// be byte-identical to it.
///
/// # Errors
///
/// Only root-level I/O (unreadable corpus directory) is an error; a case
/// that fails to load or replay is reported as a failing case.
pub fn check_corpus_dir(root: impl AsRef<Path>) -> std::io::Result<CorpusReport> {
    let root = root.as_ref();
    let mut dirs: Vec<_> = std::fs::read_dir(root)?
        .filter_map(Result::ok)
        .filter(|e| e.path().is_dir())
        .map(|e| e.path())
        .collect();
    dirs.sort();
    let mut report = CorpusReport::default();
    for dir in dirs {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| dir.display().to_string());
        let (failure, entries) = match check_case(&dir) {
            Ok(entries) => (None, entries),
            Err(why) => (Some(why), 0),
        };
        report.cases.push(CorpusCase {
            name,
            failure,
            entries,
        });
    }
    Ok(report)
}

/// Replays one case directory; returns the entry count on success and the
/// failure description otherwise.
fn check_case(dir: &Path) -> Result<usize, String> {
    let trace_path = dir.join("trace.jsonl");
    let text = std::fs::read_to_string(&trace_path)
        .map_err(|e| format!("cannot read {}: {e}", trace_path.display()))?;
    let trace = RequestTrace::parse(&text).map_err(|e| format!("trace does not parse: {e}"))?;
    let report = replay(&trace, &ReplayOptions::default()).map_err(|e| e.to_string())?;

    let expected_path = dir.join("expected.json");
    let expected = match read_optional(&expected_path)? {
        Some(text) => ExpectedFindings::from_json(&text)
            .ok_or_else(|| format!("{} is not a findings manifest", expected_path.display()))?,
        None => ExpectedFindings::clean(),
    };
    let actual = finding_codes(&report.journal, report.mismatches.len());
    let delta = expected.compare(&actual);
    if !delta.is_match() {
        return Err(format!("findings drifted from the manifest:\n{delta}"));
    }

    let journal_path = dir.join("journal.jsonl");
    if let Some(pinned) = read_optional(&journal_path)? {
        if pinned != report.journal {
            let where_ = first_divergence(&pinned, &report.journal)
                .map(|d| d.explain())
                .unwrap_or_else(|| "journals differ only in length".into());
            return Err(format!("journal diverged from the pinned one:\n{where_}"));
        }
    }
    Ok(trace.entries.len())
}

/// Reads one of a case's optional files: `None` when it does not exist.
/// Any other error (permissions, bytes that are not UTF-8) fails the case
/// rather than skipping the check the file pins.
fn read_optional(path: &Path) -> Result<Option<String>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(Some(text)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("cannot read {}: {e}", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    /// A one-case corpus holding a copy of the checked-in
    /// `runtime-overflow` case (trace, pinned journal and manifest).
    fn corpus(tag: &str) -> (PathBuf, PathBuf) {
        let root = std::env::temp_dir().join(format!("pqos-replay-{}-{tag}", std::process::id()));
        let case = root.join("runtime-overflow");
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&case).unwrap();
        let source =
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../../traces/failing/runtime-overflow");
        for file in ["trace.jsonl", "journal.jsonl", "expected.json"] {
            fs::copy(source.join(file), case.join(file)).unwrap();
        }
        (root, case)
    }

    fn append(path: &Path, bytes: &[u8]) {
        let mut all = fs::read(path).unwrap();
        all.extend_from_slice(bytes);
        fs::write(path, all).unwrap();
    }

    #[test]
    fn an_unreadable_pinned_file_fails_its_case() {
        let (root, _) = corpus("intact");
        let report = check_corpus_dir(&root).unwrap();
        assert!(report.is_clean(), "{report}");
        fs::remove_dir_all(&root).unwrap();

        for file in ["journal.jsonl", "expected.json"] {
            // One byte that is not UTF-8: the file exists but cannot be
            // read as text, which used to pass as "not pinned".
            let (root, case) = corpus("corrupt");
            append(&case.join(file), &[0xff]);
            let report = check_corpus_dir(&root).unwrap();
            assert_eq!(report.failures(), 1, "{file}: {report}");
            let why = report.cases[0].failure.as_deref().unwrap();
            assert!(
                why.starts_with("cannot read") && why.contains(file),
                "{why}"
            );
            fs::remove_dir_all(&root).unwrap();
        }
    }

    #[test]
    fn a_missing_optional_file_is_absent() {
        let (root, case) = corpus("missing");
        fs::remove_file(case.join("journal.jsonl")).unwrap();
        let report = check_corpus_dir(&root).unwrap();
        assert!(report.is_clean(), "{report}");
        fs::remove_file(case.join("expected.json")).unwrap();
        let report = check_corpus_dir(&root).unwrap();
        assert_eq!(report.failures(), 1, "runtime-overflow pins findings");
        assert!(report.cases[0]
            .failure
            .as_deref()
            .unwrap()
            .contains("findings drifted"));
        fs::remove_dir_all(&root).unwrap();
    }
}
