//! `pqos-doctor` reads files other programs wrote. A journal holding one
//! line of 100,000 `[` used to recurse the JSON parser off the stack and
//! abort the process; it is one unparseable line, reported like any other.

use std::process::Command;

#[test]
fn check_reports_a_deeply_nested_line_as_a_finding_and_exits_normally() {
    let path = std::env::temp_dir().join(format!("pqos-doctor-deep-{}.jsonl", std::process::id()));
    let journal = format!(
        "{}\n{}\n{}\n",
        r#"{"event":"job_submitted","at":0,"job":1,"size":2,"runtime_secs":60}"#,
        "[".repeat(100_000),
        r#"{"event":"job_rejected","at":0,"job":1}"#,
    );
    std::fs::write(&path, journal).expect("write journal");
    let output = Command::new(env!("CARGO_BIN_EXE_pqos-doctor"))
        .args(["check", "--json"])
        .arg(&path)
        .output()
        .expect("run pqos-doctor");
    std::fs::remove_file(&path).expect("remove journal");
    // Exit 1 is "errors found"; a stack overflow would be a signal (no code).
    assert_eq!(output.status.code(), Some(1), "{output:?}");
    let stdout = String::from_utf8(output.stdout).expect("utf-8");
    let findings: Vec<&str> = stdout.lines().collect();
    assert_eq!(findings.len(), 1, "{stdout}");
    assert!(findings[0].contains("\"unparseable_line\""), "{stdout}");
    // The finding quotes the head of the line, not all of it.
    assert!(findings[0].len() < 400, "{}", findings[0].len());
}
