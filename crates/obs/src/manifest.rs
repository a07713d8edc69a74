//! Pinned-findings manifests for the failing-trace corpus.
//!
//! Each corpus directory under `traces/failing/` pairs a trace with what
//! its replay is *expected* to produce: an `expected.json` manifest
//! listing finding codes and counts (absent manifest = expected clean).
//! CI replays the corpus and fails on any drift in either direction —
//! a pinned finding that disappeared (the bug stopped reproducing, or
//! the detector regressed) or a new finding nobody pinned.

use pqos_telemetry::json::Json;
use std::collections::BTreeMap;
use std::fmt;

/// The findings a corpus trace is pinned to produce on replay.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExpectedFindings {
    /// Expected count per finding code.
    pub findings: BTreeMap<String, u64>,
}

impl ExpectedFindings {
    /// The clean expectation: replay must produce no findings at all.
    pub fn clean() -> Self {
        ExpectedFindings::default()
    }

    /// Parses an `expected.json` document:
    /// `{"findings": [{"code": "...", "count": N}, ...]}`.
    pub fn from_json(text: &str) -> Option<ExpectedFindings> {
        let v = Json::parse(text)?;
        let mut findings = BTreeMap::new();
        for item in v.get("findings")?.as_arr()? {
            let code = item.get("code")?.as_str()?.to_string();
            let count = item.get("count")?.as_u64()?;
            findings.insert(code, count);
        }
        Some(ExpectedFindings { findings })
    }

    /// Compares pinned findings against what a replay actually produced.
    pub fn compare(&self, actual: &BTreeMap<String, u64>) -> FindingsDelta {
        let mut delta = FindingsDelta::default();
        for (code, &expected) in &self.findings {
            let got = actual.get(code).copied().unwrap_or(0);
            if got != expected {
                delta.missing.push((code.clone(), expected, got));
            }
        }
        for (code, &got) in actual {
            if !self.findings.contains_key(code) {
                delta.unpinned.push((code.clone(), got));
            }
        }
        delta
    }
}

/// How a replay's findings differ from the pinned expectation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FindingsDelta {
    /// Pinned codes whose count changed: `(code, expected, actual)`.
    pub missing: Vec<(String, u64, u64)>,
    /// Codes the replay produced that nothing pinned: `(code, actual)`.
    pub unpinned: Vec<(String, u64)>,
}

impl FindingsDelta {
    /// Whether the replay matched the manifest exactly.
    pub fn is_match(&self) -> bool {
        self.missing.is_empty() && self.unpinned.is_empty()
    }
}

impl fmt::Display for FindingsDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (code, expected, actual) in &self.missing {
            writeln!(
                f,
                "  pinned `{code}` expected {expected}, replay produced {actual}"
            )?;
        }
        for (code, actual) in &self.unpinned {
            writeln!(f, "  unpinned finding `{code}` appeared {actual} time(s)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_and_compares() {
        let mut expected = ExpectedFindings::clean();
        expected.findings.insert("response_mismatch".into(), 1);
        expected.findings.insert("start_before_quote".into(), 2);
        let parsed = ExpectedFindings::from_json(
            r#"{"findings": [{"code": "response_mismatch", "count": 1}, {"code": "start_before_quote", "count": 2}]}"#,
        )
        .unwrap();
        assert_eq!(parsed, expected);

        let mut actual = BTreeMap::new();
        actual.insert("response_mismatch".to_string(), 1u64);
        actual.insert("start_before_quote".to_string(), 2u64);
        assert!(expected.compare(&actual).is_match());

        actual.insert("out_of_time_order".to_string(), 3);
        actual.insert("start_before_quote".to_string(), 1);
        let delta = expected.compare(&actual);
        assert_eq!(delta.missing, vec![("start_before_quote".into(), 2, 1)]);
        assert_eq!(delta.unpinned, vec![("out_of_time_order".into(), 3)]);
        assert!(!delta.is_match());
        assert!(delta
            .to_string()
            .contains("unpinned finding `out_of_time_order`"));
    }

    #[test]
    fn clean_manifest_rejects_any_finding() {
        let clean = ExpectedFindings::clean();
        assert!(clean.compare(&BTreeMap::new()).is_match());
        let mut actual = BTreeMap::new();
        actual.insert("node_overcommit".to_string(), 1u64);
        assert!(!clean.compare(&actual).is_match());
    }

    #[test]
    fn malformed_manifests_are_rejected() {
        assert!(ExpectedFindings::from_json("not json").is_none());
        assert!(ExpectedFindings::from_json("{}").is_none());
        assert!(ExpectedFindings::from_json("{\"findings\": [{\"code\": 3}]}").is_none());
    }
}
