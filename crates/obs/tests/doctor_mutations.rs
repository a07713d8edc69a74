//! What the doctor says about every single-line corruption of a few
//! well-formed journals, pinned as a golden file.
//!
//! The bases (`tests/golden/doctor_bases/`) are the journals the job
//! lifecycle writes on each path of its transition table (the simulator's
//! requeue paths with the `node_failed` line it journals before a
//! requeue), the doctor's and the span builder's own test lives, and the
//! job lines of a seeded simulator run with a blind oracle
//! (`experiments --jobs 10 --accuracy 0.0 --journal`, node lines that name
//! no victim dropped), which holds requeues, checkpoints taken and
//! skipped, and a late completion. Each base is checked as it is and after
//! every single-line deletion, duplication and swap of adjacent lines; the
//! file records each finding's code, line and job.

use pqos_obs::doctor::Doctor;
use std::fmt::Write;

macro_rules! bases {
    ($($name:literal),+ $(,)?) => {
        [$(($name, include_str!(concat!("../../../tests/golden/doctor_bases/", $name, ".jsonl")))),+]
    };
}

const BASES: [(&str, &str); 13] = bases![
    "lifecycle_quoted",
    "lifecycle_rejected",
    "lifecycle_quote_cancelled",
    "lifecycle_accepted",
    "lifecycle_running",
    "lifecycle_done",
    "lifecycle_cancelled",
    "lifecycle_requeued",
    "lifecycle_restarted",
    "lifecycle_completed",
    "clean_life",
    "failing_life",
    "sim_a0",
];

/// The doctor's findings on `lines` as `code@line#job`, space-separated.
fn findings(lines: &[&str]) -> String {
    let report = Doctor::check_str(&lines.join("\n"));
    if report.findings.is_empty() {
        return "-".to_string();
    }
    let shown: Vec<String> = report
        .findings
        .iter()
        .map(|f| {
            let job = f.job.map_or("-".to_string(), |j| j.to_string());
            format!("{}@{}#{job}", f.code, f.line)
        })
        .collect();
    shown.join(" ")
}

/// One line per base and per mutation of it (lines numbered from 1).
fn mutations() -> String {
    let mut out = String::new();
    for (name, text) in BASES {
        let lines: Vec<&str> = text.lines().collect();
        writeln!(out, "{name} base: {}", findings(&lines)).unwrap();
        for i in 0..lines.len() {
            let mut deleted = lines.clone();
            deleted.remove(i);
            writeln!(out, "{name} del {}: {}", i + 1, findings(&deleted)).unwrap();
            let mut doubled = lines.clone();
            doubled.insert(i, lines[i]);
            writeln!(out, "{name} dup {}: {}", i + 1, findings(&doubled)).unwrap();
            if i + 1 < lines.len() {
                let mut swapped = lines.clone();
                swapped.swap(i, i + 1);
                writeln!(out, "{name} swap {}: {}", i + 1, findings(&swapped)).unwrap();
            }
        }
    }
    out
}

#[test]
fn every_single_line_mutation_gets_the_pinned_findings() {
    const GOLDEN: &str = include_str!("../../../tests/golden/doctor_mutations.txt");
    let now = mutations();
    if now != GOLDEN {
        let first = now
            .lines()
            .zip(GOLDEN.lines())
            .position(|(now, then)| now != then)
            .map_or_else(|| "its length".to_string(), |i| format!("line {}", i + 1));
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("doctor_mutations.txt");
        std::fs::write(&path, &now).expect("write the regenerated file");
        panic!(
            "the doctor's findings moved (first difference: {first}); regenerated file: {}",
            path.display()
        );
    }
}
