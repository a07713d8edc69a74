//! Telemetry walkthrough: run a short scenario with the structured event
//! journal and metrics registry attached, then mine the JSONL journal the
//! way an operator would — here, pulling out every deadline miss.
//!
//! ```sh
//! cargo run --release -p pqos-core --example telemetry_journal
//! ```

use pqos_core::config::SimConfig;
use pqos_core::system::QosSimulator;
use pqos_core::user::UserStrategy;
use pqos_failures::synthetic::AixLikeTrace;
use pqos_telemetry::{Telemetry, TelemetryEvent};
use pqos_workload::synthetic::{LogModel, SyntheticLog};
use std::sync::Arc;

fn main() -> std::io::Result<()> {
    let path = std::env::temp_dir().join("pqos_telemetry_journal.jsonl");

    // A small SDSC-like workload over a year of AIX-like failures, with a
    // mid-accuracy predictor: enough action for every lifecycle event.
    let log = SyntheticLog::new(LogModel::SdscSp2)
        .jobs(400)
        .seed(11)
        .build();
    let trace = Arc::new(AixLikeTrace::new().days(365.0).seed(11).build());
    let config = SimConfig::paper_defaults()
        .accuracy(0.5)
        .user(UserStrategy::risk_threshold(0.5).expect("valid"));

    let telemetry = Telemetry::builder().jsonl_path(&path)?.build();
    let output = QosSimulator::new(config, log, trace)
        .with_telemetry(telemetry)
        .run();

    println!(
        "simulated {} jobs: QoS {:.3}, {} deadline misses, {} failures hit jobs",
        output.report.jobs,
        output.report.qos,
        output.report.deadline_misses,
        output.report.job_failures,
    );

    // The journal is plain JSONL: one self-contained event per line. Grep
    // it back for the deadline misses.
    let journal = std::fs::read_to_string(&path)?;
    let mut misses = 0usize;
    for line in journal.lines() {
        let event = TelemetryEvent::from_jsonl(line).expect("journal lines round-trip");
        if let TelemetryEvent::DeadlineMissed {
            at,
            job,
            late_by_secs,
        } = event
        {
            misses += 1;
            if misses <= 5 {
                println!("  deadline miss: job {job} at {at} ({late_by_secs} s late)");
            }
        }
    }
    println!(
        "journal {} holds {} events, {} deadline misses",
        path.display(),
        journal.lines().count(),
        misses,
    );
    assert_eq!(
        misses, output.report.deadline_misses,
        "journal agrees with the aggregate report"
    );

    // The same run's metrics snapshot, rendered as a table.
    let snapshot = output.telemetry.expect("telemetered run has a snapshot");
    println!("\n{}", snapshot.render());
    Ok(())
}
