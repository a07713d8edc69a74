//! Table and figure builders: one function per experiment in the paper's
//! evaluation (§5), plus the ablations DESIGN.md calls out.
//!
//! Figures 1–6 share an `(a, U)` grid per workload; Figures 7–12 share a
//! `U` grid at fixed `a`. The grid runners below execute each grid once
//! and the table builders slice out the metric a given figure plots.

use crate::scenario::{run_scenarios, standard_log, standard_trace, Scenario, ScenarioResult};
use pqos_ckpt::model::young_interval;
use pqos_cluster::topology::Topology;
use pqos_core::config::{CheckpointPolicyKind, SimConfig};
use pqos_core::metrics::SimReport;
use pqos_core::system::QosSimulator;
use pqos_core::user::UserStrategy;
use pqos_failures::synthetic::AixLikeTrace;
use pqos_failures::trace::FailureTrace;
use pqos_predict::online::{RateEstimator, SharedRateEstimator};
use pqos_sched::place::PlacementStrategy;
use pqos_sim_core::table::{fnum, Table};
use pqos_sim_core::time::SimDuration;
use pqos_workload::log::JobLog;
use pqos_workload::synthetic::LogModel;
use std::sync::Arc;

/// Sweep sizing: the full paper scale (10,000 jobs) or a reduced scale for
/// quick regeneration (`experiments --jobs N`).
#[derive(Debug, Clone, Copy)]
pub struct SweepOptions {
    /// Jobs per workload (paper: 10,000).
    pub jobs: usize,
    /// Worker threads for the sweep.
    pub threads: usize,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            jobs: 10_000,
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
        }
    }
}

/// Which metric a figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// The paper's QoS (Eq. 2).
    Qos,
    /// Average capacity utilization.
    Utilization,
    /// Total work lost to failures (node-seconds).
    LostWork,
}

impl Metric {
    fn label(self) -> &'static str {
        match self {
            Metric::Qos => "QoS",
            Metric::Utilization => "Avg Utilization",
            Metric::LostWork => "Total Work Lost (node-s)",
        }
    }

    fn extract(self, r: &SimReport) -> String {
        match self {
            Metric::Qos => fnum(r.qos, 4),
            Metric::Utilization => fnum(r.utilization, 4),
            Metric::LostWork => r.lost_work.to_string(),
        }
    }
}

/// The `a` and `U` grid values: 0.0 to 1.0 in steps of 0.1 (§4.4).
pub fn grid_values() -> Vec<f64> {
    (0..=10).map(|i| f64::from(i) / 10.0).collect()
}

/// The `U` lines drawn in Figures 1–6.
pub const FIGURE_U_LINES: [f64; 3] = [0.1, 0.5, 0.9];

/// Table 1: job-log characteristics of the two synthetic workloads next to
/// the paper's reference values.
pub fn table1(opts: &SweepOptions) -> Table {
    let mut t = Table::new(vec![
        "Job Log".into(),
        "Avg nj (nodes)".into(),
        "Avg ej (s)".into(),
        "Max ej (hr)".into(),
        "paper avg nj".into(),
        "paper avg ej".into(),
        "paper max ej".into(),
    ]);
    for model in [LogModel::NasaIpsc, LogModel::SdscSp2] {
        let stats = standard_log(model, opts.jobs).stats();
        let (nj, ej, max) = model.table1_reference();
        t.row(vec![
            model.to_string(),
            fnum(stats.avg_nodes, 1),
            fnum(stats.avg_runtime_secs, 0),
            fnum(stats.max_runtime_secs as f64 / 3600.0, 0),
            fnum(nj, 1),
            fnum(ej, 0),
            format!("{}", max / 3600),
        ]);
    }
    t
}

/// Table 2: the simulation parameters, with the measured failure-trace
/// characteristics alongside the paper's.
pub fn table2() -> Table {
    let trace = standard_trace();
    let stats = trace.stats();
    let mut t = Table::new(vec!["Parameter".into(), "Value".into(), "Paper".into()]);
    t.row(vec!["N (nodes)".into(), "128".into(), "128".into()]);
    t.row(vec!["C (s)".into(), "720".into(), "720".into()]);
    t.row(vec!["I (s)".into(), "3600".into(), "3600".into()]);
    t.row(vec!["a".into(), "[0,1]".into(), "[0,1]".into()]);
    t.row(vec!["U".into(), "[0,1]".into(), "[0,1]".into()]);
    t.row(vec!["downtime (s)".into(), "120".into(), "120".into()]);
    t.row(vec![
        "failures/day".into(),
        fnum(stats.failures_per_day, 2),
        "2.8".into(),
    ]);
    t.row(vec![
        "cluster MTBF (h)".into(),
        fnum(stats.cluster_mtbf_hours, 1),
        "8.5".into(),
    ]);
    t.row(vec![
        "failures (year)".into(),
        stats.count.to_string(),
        "1021".into(),
    ]);
    t
}

/// Runs the `(a, U)` grid behind Figures 1–6 for one workload model.
pub fn accuracy_grid(
    model: LogModel,
    opts: &SweepOptions,
    trace: &Arc<FailureTrace>,
) -> Vec<ScenarioResult> {
    let scenarios: Vec<Scenario> = FIGURE_U_LINES
        .iter()
        .flat_map(|&u| grid_values().into_iter().map(move |a| (a, u)))
        .map(|(a, u)| Scenario::paper(model, a, u))
        .collect();
    run_scenarios(
        &scenarios,
        &|m| standard_log(m, opts.jobs),
        trace,
        opts.threads,
    )
}

/// Builds the table for Figures 1–6 from a grid: one row per accuracy,
/// one column per `U` line.
pub fn accuracy_figure(grid: &[ScenarioResult], metric: Metric) -> Table {
    let mut header = vec![format!("a \\ {}", metric.label())];
    header.extend(FIGURE_U_LINES.iter().map(|u| format!("U={u:.1}")));
    let mut t = Table::new(header);
    for a in grid_values() {
        let mut row = vec![fnum(a, 1)];
        for &u in &FIGURE_U_LINES {
            let r = grid
                .iter()
                .find(|r| {
                    (r.scenario.accuracy - a).abs() < 1e-9
                        && (r.scenario.user_threshold - u).abs() < 1e-9
                })
                .expect("grid covers every (a, U)");
            row.push(metric.extract(&r.report));
        }
        t.row(row);
    }
    t
}

/// Runs the `U` grid behind Figures 7–12 for one workload at fixed `a`.
pub fn user_grid(
    model: LogModel,
    accuracy: f64,
    opts: &SweepOptions,
    trace: &Arc<FailureTrace>,
) -> Vec<ScenarioResult> {
    let scenarios: Vec<Scenario> = grid_values()
        .into_iter()
        .map(|u| Scenario::paper(model, accuracy, u))
        .collect();
    run_scenarios(
        &scenarios,
        &|m| standard_log(m, opts.jobs),
        trace,
        opts.threads,
    )
}

/// Builds the table for Figures 7 and 9–12: metric vs. `U` for one grid.
pub fn user_figure(grid: &[ScenarioResult], metric: Metric) -> Table {
    let mut t = Table::new(vec!["U".into(), metric.label().into()]);
    for r in grid {
        t.row(vec![
            fnum(r.scenario.user_threshold, 1),
            metric.extract(&r.report),
        ]);
    }
    t
}

/// Builds Figure 8's table: QoS vs. `U` at `a = 1` for both logs.
pub fn figure8(sdsc: &[ScenarioResult], nasa: &[ScenarioResult]) -> Table {
    let mut t = Table::new(vec!["U".into(), "SDSC QoS".into(), "NASA QoS".into()]);
    for (s, n) in sdsc.iter().zip(nasa.iter()) {
        assert_eq!(s.scenario.user_threshold, n.scenario.user_threshold);
        t.row(vec![
            fnum(s.scenario.user_threshold, 1),
            fnum(s.report.qos, 4),
            fnum(n.report.qos, 4),
        ]);
    }
    t
}

/// The headline comparison (§1, §6): no-forecasting baseline vs. perfect
/// prediction with cautious users, per workload.
pub fn headline(opts: &SweepOptions, trace: &Arc<FailureTrace>) -> Table {
    let mut t = Table::new(vec![
        "Configuration".into(),
        "QoS".into(),
        "Utilization".into(),
        "Lost work (node-s)".into(),
        "Job failures".into(),
    ]);
    for model in [LogModel::SdscSp2, LogModel::NasaIpsc] {
        let scenarios = vec![
            Scenario {
                label: format!("{model} no prediction (a=0)"),
                ..Scenario::paper(model, 0.0, 0.1)
            },
            Scenario {
                label: format!("{model} a=1.0 U=0.1"),
                ..Scenario::paper(model, 1.0, 0.1)
            },
            Scenario {
                label: format!("{model} a=1.0 U=0.9"),
                ..Scenario::paper(model, 1.0, 0.9)
            },
        ];
        let results = run_scenarios(
            &scenarios,
            &|m| standard_log(m, opts.jobs),
            trace,
            opts.threads,
        );
        for r in results {
            t.row(vec![
                r.scenario.label.clone(),
                fnum(r.report.qos, 4),
                fnum(r.report.utilization, 4),
                r.report.lost_work.to_string(),
                r.report.job_failures.to_string(),
            ]);
        }
    }
    t
}

/// Checkpoint-policy ablation: the four gating policies across accuracies
/// on the SDSC workload.
pub fn ablation_checkpoint(opts: &SweepOptions, trace: &Arc<FailureTrace>) -> Table {
    let mut t = Table::new(vec![
        "Policy".into(),
        "a".into(),
        "QoS".into(),
        "Utilization".into(),
        "Lost work (node-s)".into(),
        "Ckpt performed".into(),
        "Ckpt skipped".into(),
    ]);
    let mut scenarios = Vec::new();
    for kind in [
        CheckpointPolicyKind::None,
        CheckpointPolicyKind::Periodic,
        CheckpointPolicyKind::RiskBased,
        CheckpointPolicyKind::RiskBasedWithDefault,
    ] {
        for a in [0.0, 0.5, 1.0] {
            scenarios.push(Scenario {
                label: format!("{} a={a:.1}", kind.name()),
                checkpoint_policy: kind,
                ..Scenario::paper(LogModel::SdscSp2, a, 0.5)
            });
        }
    }
    let results = run_scenarios(
        &scenarios,
        &|m| standard_log(m, opts.jobs),
        trace,
        opts.threads,
    );
    for r in results {
        t.row(vec![
            r.scenario.checkpoint_policy.name().into(),
            fnum(r.scenario.accuracy, 1),
            fnum(r.report.qos, 4),
            fnum(r.report.utilization, 4),
            r.report.lost_work.to_string(),
            r.report.checkpoints_performed.to_string(),
            r.report.checkpoints_skipped.to_string(),
        ]);
    }
    t
}

/// Scheduler ablation: fault-aware placement vs. prediction-blind first
/// fit, at `a = 1`.
pub fn ablation_scheduler(opts: &SweepOptions, trace: &Arc<FailureTrace>) -> Table {
    let mut t = Table::new(vec![
        "Placement".into(),
        "U".into(),
        "QoS".into(),
        "Utilization".into(),
        "Lost work (node-s)".into(),
        "Job failures".into(),
    ]);
    let mut scenarios = Vec::new();
    for placement in [
        PlacementStrategy::MinFailureProbability,
        PlacementStrategy::FirstFit,
    ] {
        for u in [0.1, 0.9] {
            scenarios.push(Scenario {
                label: format!("{placement} U={u:.1}"),
                placement,
                ..Scenario::paper(LogModel::SdscSp2, 1.0, u)
            });
        }
    }
    let results = run_scenarios(
        &scenarios,
        &|m| standard_log(m, opts.jobs),
        trace,
        opts.threads,
    );
    for r in results {
        t.row(vec![
            r.scenario.placement.to_string(),
            fnum(r.scenario.user_threshold, 1),
            fnum(r.report.qos, 4),
            fnum(r.report.utilization, 4),
            r.report.lost_work.to_string(),
            r.report.job_failures.to_string(),
        ]);
    }
    t
}

/// Checkpoint-interval ablation: the paper fixes `I = 3600 s`; this sweep
/// contrasts shorter/longer intervals and Young's optimum for the trace's
/// observed per-partition MTBF, under blind periodic checkpointing (the
/// regime interval tuning is meant for).
pub fn ablation_interval(opts: &SweepOptions, trace: &Arc<FailureTrace>) -> Table {
    let log = standard_log(LogModel::SdscSp2, opts.jobs);
    // Young's interval for the average job: per-node rate from the trace,
    // average partition size from the log.
    let stats = trace.stats();
    let node_rate_per_sec = stats.count as f64 / (stats.span.as_secs() as f64 * 128.0);
    let avg_nodes = log.stats().avg_nodes;
    let partition_mtbf = SimDuration::from_secs((1.0 / (node_rate_per_sec * avg_nodes)) as u64);
    let young = young_interval(SimDuration::from_secs(720), partition_mtbf);

    let mut t = Table::new(vec![
        "interval I (s)".into(),
        "QoS".into(),
        "Utilization".into(),
        "Lost work (node-s)".into(),
        "Ckpt performed".into(),
    ]);
    let mut intervals: Vec<(String, u64)> = [900u64, 1800, 3600, 7200, 14400]
        .iter()
        .map(|&i| (i.to_string(), i))
        .collect();
    intervals.push((format!("{} (Young)", young.as_secs()), young.as_secs()));
    for (label, interval) in intervals {
        let config = SimConfig::paper_defaults()
            .accuracy(0.0)
            .checkpoint_policy(CheckpointPolicyKind::Periodic)
            .checkpoint_interval_secs(SimDuration::from_secs(interval))
            .user(UserStrategy::risk_threshold(0.5).expect("valid"));
        let r = QosSimulator::new(config, log.clone(), Arc::clone(trace))
            .run()
            .report;
        t.row(vec![
            label,
            fnum(r.qos, 4),
            fnum(r.utilization, 4),
            r.lost_work.to_string(),
            r.checkpoints_performed.to_string(),
        ]);
    }
    t
}

/// Topology ablation: the paper's flat (all-to-all) machine versus
/// BlueGene/L-style constrained allocation — a 1-D contiguous (line)
/// machine on the SDSC workload, and a 4×4×8 torus (sub-box allocation)
/// on the NASA workload, whose power-of-two sizes are the only ones a
/// torus can host. Allocation constraints remove most of the fault-aware
/// scheduler's placement freedom, so the prediction benefit shrinks.
pub fn ablation_topology(opts: &SweepOptions, trace: &Arc<FailureTrace>) -> Table {
    let mut t = Table::new(vec![
        "Workload".into(),
        "Topology".into(),
        "a".into(),
        "QoS".into(),
        "Utilization".into(),
        "Lost work (node-s)".into(),
        "Rejected".into(),
    ]);
    let cases = [
        (LogModel::SdscSp2, Topology::Flat),
        (LogModel::SdscSp2, Topology::Line),
        (LogModel::NasaIpsc, Topology::Flat),
        (LogModel::NasaIpsc, Topology::Torus3d { x: 4, y: 4, z: 8 }),
    ];
    for (model, topology) in cases {
        let log = standard_log(model, opts.jobs);
        for a in [0.0, 1.0] {
            let mut config = SimConfig::paper_defaults()
                .accuracy(a)
                .user(UserStrategy::risk_threshold(0.5).expect("valid"));
            config.topology = topology;
            let out = QosSimulator::new(config, log.clone(), Arc::clone(trace)).run();
            let r = &out.report;
            t.row(vec![
                model.to_string(),
                topology.to_string(),
                fnum(a, 1),
                fnum(r.qos, 4),
                fnum(r.utilization, 4),
                r.lost_work.to_string(),
                out.rejected.len().to_string(),
            ]);
        }
    }
    t
}

/// Diurnal-arrival ablation: the same SDSC workload with flat Poisson
/// arrivals versus a pronounced day/night submission cycle. Bunched
/// arrivals deepen queues at peak, changing how much room the fault-aware
/// scheduler has to dodge predicted failures.
pub fn ablation_diurnal(opts: &SweepOptions, trace: &Arc<FailureTrace>) -> Table {
    use pqos_workload::synthetic::{ArrivalModel, SyntheticLog};
    let mut t = Table::new(vec![
        "Arrivals".into(),
        "a".into(),
        "QoS".into(),
        "Utilization".into(),
        "Mean wait (s)".into(),
        "Lost work (node-s)".into(),
    ]);
    for (label, arrivals) in [
        ("poisson", ArrivalModel::Poisson),
        ("diurnal (A=0.8)", ArrivalModel::Diurnal { amplitude: 0.8 }),
    ] {
        let log = SyntheticLog::new(LogModel::SdscSp2)
            .jobs(opts.jobs)
            .seed(crate::scenario::EXPERIMENT_SEED)
            .arrivals(arrivals)
            .build();
        for a in [0.0, 1.0] {
            let config = SimConfig::paper_defaults()
                .accuracy(a)
                .user(UserStrategy::risk_threshold(0.5).expect("valid"));
            let r = QosSimulator::new(config, log.clone(), Arc::clone(trace))
                .run()
                .report;
            t.row(vec![
                label.into(),
                fnum(a, 1),
                fnum(r.qos, 4),
                fnum(r.utilization, 4),
                fnum(r.mean_wait_secs, 0),
                r.lost_work.to_string(),
            ]);
        }
    }
    t
}

/// End-to-end run with a *practical* predictor: a decayed-rate model
/// trained on the previous year's failures (same machine, independent
/// stream, identical lemon set) drives scheduling and checkpointing for
/// the replayed year. Compared against the null baseline and the oracle.
pub fn online_predictor(opts: &SweepOptions, trace: &Arc<FailureTrace>) -> Table {
    let log = standard_log(LogModel::SdscSp2, opts.jobs);
    let history = AixLikeTrace::new()
        .days(crate::scenario::TRACE_DAYS)
        .seed(crate::scenario::EXPERIMENT_SEED)
        .stream(1)
        .build();
    let mut rate = RateEstimator::new(SimDuration::from_days(30), 0.7);
    for f in history.iter() {
        rate.observe_failure(f.node, f.time);
    }
    let user = UserStrategy::risk_threshold(0.5).expect("valid");
    let mut t = Table::new(vec![
        "Predictor".into(),
        "QoS".into(),
        "Utilization".into(),
        "Lost work (node-s)".into(),
        "Job failures".into(),
    ]);
    let mut row = |name: &str, r: SimReport| {
        t.row(vec![
            name.into(),
            fnum(r.qos, 4),
            fnum(r.utilization, 4),
            r.lost_work.to_string(),
            r.job_failures.to_string(),
        ]);
    };
    let base = SimConfig::paper_defaults().user(user);
    row(
        "none (a=0 oracle)",
        QosSimulator::new(base.clone().accuracy(0.0), log.clone(), Arc::clone(trace))
            .run()
            .report,
    );
    let rate = Arc::new(rate);
    row(
        "decayed-rate (trained on prior year)",
        QosSimulator::with_predictor(
            base.clone(),
            log.clone(),
            Arc::clone(trace),
            Arc::clone(&rate) as Arc<dyn pqos_predict::api::Predictor + Send + Sync>,
        )
        .run()
        .report,
    );
    // The rate model's weak-but-everywhere-positive signal makes Eq. 1
    // checkpoint too rarely; decoupling (rate for placement/negotiation,
    // periodic for checkpointing) shows where a practical predictor helps.
    row(
        "decayed-rate + periodic checkpoints",
        QosSimulator::with_predictor(
            base.clone()
                .checkpoint_policy(CheckpointPolicyKind::Periodic),
            log.clone(),
            Arc::clone(trace),
            rate,
        )
        .run()
        .report,
    );
    // Feeding the model *during* the run keeps its decayed rates current: a
    // stale model's probabilities decay with the window's distance from its
    // last training datum, which systematically rewards later starts.
    let mut live_model = RateEstimator::new(SimDuration::from_days(30), 0.7);
    for f in history.iter() {
        live_model.observe_failure(f.node, f.time);
    }
    let live = SharedRateEstimator::new(live_model);
    let feed = live.clone();
    row(
        "decayed-rate (online feed) + periodic",
        QosSimulator::with_predictor(
            base.clone()
                .checkpoint_policy(CheckpointPolicyKind::Periodic),
            log.clone(),
            Arc::clone(trace),
            Arc::new(live),
        )
        .with_failure_hook(Box::new(move |node, at| feed.observe_failure(node, at)))
        .run()
        .report,
    );
    row(
        "trace oracle a=0.7",
        QosSimulator::new(base.clone().accuracy(0.7), log.clone(), Arc::clone(trace))
            .run()
            .report,
    );
    row(
        "trace oracle a=1.0",
        QosSimulator::new(base.accuracy(1.0), log, Arc::clone(trace))
            .run()
            .report,
    );
    t
}

/// Promise-calibration table: quoted vs realized success per
/// quoted-probability bucket, per predictor (the §3.5 claim that the
/// system "promises only as much as it can deliver", quantified). Each
/// run streams its telemetry journal in memory and is folded through the
/// same [`pqos_obs::audit`](mod@pqos_obs::audit) calibration ledger `pqos-doctor audit` uses —
/// the figure and the auditor can never disagree about what "realized"
/// means. Run at a mid accuracy with earliest-deadline users so risky
/// promises actually get made; everything is seeded, so the emitted
/// `results/calibration.csv` is byte-identical run to run.
pub fn calibration(opts: &SweepOptions, trace: &Arc<FailureTrace>) -> Table {
    use pqos_obs::audit::CalibrationLedger;
    use pqos_telemetry::Telemetry;

    let log = standard_log(LogModel::SdscSp2, opts.jobs);
    let base = SimConfig::paper_defaults()
        .accuracy(0.7)
        .user(UserStrategy::risk_threshold(0.1).expect("valid"));

    // The practical predictor: a decayed-rate model trained on the prior
    // year's failures (same recipe as [`online_predictor`]).
    let history = AixLikeTrace::new()
        .days(crate::scenario::TRACE_DAYS)
        .seed(crate::scenario::EXPERIMENT_SEED)
        .stream(1)
        .build();
    let mut rate = RateEstimator::new(SimDuration::from_days(30), 0.7);
    for f in history.iter() {
        rate.observe_failure(f.node, f.time);
    }

    // Run one instrumented simulation and fold its journal into a ledger.
    let audit_run = |sim: QosSimulator| -> CalibrationLedger {
        let buf = pqos_service::SharedBuf::new();
        let telemetry = Telemetry::builder()
            .flush_every(0)
            .jsonl_writer(buf.clone())
            .build();
        sim.with_telemetry(telemetry).run();
        pqos_obs::audit_str(&buf.take_string()).ledger
    };
    let runs = [
        (
            "oracle-a0.7",
            audit_run(QosSimulator::new(
                base.clone(),
                log.clone(),
                Arc::clone(trace),
            )),
        ),
        (
            "online-rate",
            audit_run(QosSimulator::with_predictor(
                base,
                log,
                Arc::clone(trace),
                Arc::new(rate) as Arc<dyn pqos_predict::api::Predictor + Send + Sync>,
            )),
        ),
    ];

    let mut t = Table::new(vec![
        "predictor".into(),
        "bucket".into(),
        "promised".into(),
        "kept".into(),
        "broken".into(),
        "quoted".into(),
        "realized".into(),
        "wilson_lo".into(),
        "wilson_hi".into(),
        "brier".into(),
    ]);
    let fmt = |v: Option<f64>| v.map_or_else(|| "-".into(), |v| fnum(v, 4));
    for (name, ledger) in &runs {
        for (i, b) in ledger.bins.iter().enumerate() {
            if b.promised == 0 {
                continue;
            }
            let (lo, hi) = CalibrationLedger::bin_bounds(i);
            let (wlo, whi) = b.wilson();
            t.row(vec![
                (*name).into(),
                format!("[{lo:.1},{hi:.1})"),
                b.promised.to_string(),
                b.kept.to_string(),
                b.broken.to_string(),
                fmt(b.mean_quoted()),
                fmt(b.observed()),
                fnum(wlo, 4),
                fnum(whi, 4),
                fmt(b.brier()),
            ]);
        }
    }
    t
}

/// Convenience wrapper used by tests and quick runs: which log a grid
/// result set belongs to.
pub fn grid_model(grid: &[ScenarioResult]) -> Option<LogModel> {
    grid.first().map(|r| r.scenario.model)
}

/// Builds a `JobLog` for tests that need the standard log at custom size.
pub fn log_for(model: LogModel, jobs: usize) -> JobLog {
    standard_log(model, jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SweepOptions {
        SweepOptions {
            jobs: 120,
            threads: 4,
        }
    }

    #[test]
    fn table1_has_both_logs() {
        let t = table1(&tiny());
        let text = t.render();
        assert!(text.contains("NASA") && text.contains("SDSC"));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn table2_lists_parameters() {
        let t = table2();
        let text = t.render();
        assert!(text.contains("720") && text.contains("3600") && text.contains("MTBF"));
    }

    #[test]
    fn accuracy_figure_covers_grid() {
        let trace = standard_trace();
        let grid = {
            // Reduced grid for the test: only run (a, U) pairs we slice.
            let scenarios: Vec<Scenario> = FIGURE_U_LINES
                .iter()
                .flat_map(|&u| grid_values().into_iter().map(move |a| (a, u)))
                .map(|(a, u)| Scenario::paper(LogModel::NasaIpsc, a, u))
                .collect();
            run_scenarios(&scenarios, &|m| standard_log(m, 60), &trace, 8)
        };
        let t = accuracy_figure(&grid, Metric::Qos);
        assert_eq!(t.len(), 11, "one row per accuracy step");
        assert_eq!(grid_model(&grid), Some(LogModel::NasaIpsc));
    }

    #[test]
    fn user_figure_has_eleven_rows() {
        let trace = standard_trace();
        let grid = user_grid(LogModel::NasaIpsc, 1.0, &tiny(), &trace);
        let t = user_figure(&grid, Metric::Utilization);
        assert_eq!(t.len(), 11);
        let f8 = figure8(&grid, &grid);
        assert_eq!(f8.len(), 11);
    }

    #[test]
    fn new_ablations_produce_tables() {
        let trace = standard_trace();
        let opts = tiny();
        let i = ablation_interval(&opts, &trace);
        assert_eq!(i.len(), 6, "five fixed intervals plus Young");
        assert!(i.render().contains("Young"));
        let topo = ablation_topology(&opts, &trace);
        assert_eq!(topo.len(), 8);
        assert!(topo.render().contains("torus-4x4x8"));
        let diurnal = ablation_diurnal(&opts, &trace);
        assert_eq!(diurnal.len(), 4);
        let online = online_predictor(&opts, &trace);
        assert_eq!(online.len(), 6);
        assert!(online.render().contains("decayed-rate"));
    }

    #[test]
    fn calibration_table_is_populated() {
        let trace = standard_trace();
        let t = calibration(&tiny(), &trace);
        assert!(!t.is_empty());
        assert!(t.render().contains("realized"));
    }

    #[test]
    fn metric_labels_are_distinct() {
        let labels = [
            Metric::Qos.label(),
            Metric::Utilization.label(),
            Metric::LostWork.label(),
        ];
        let mut unique = labels.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), 3);
    }
}
