//! Scenario definitions and the parallel sweep driver.
//!
//! All experiments share one job log per workload model and one failure
//! trace (fixed seeds), exactly as the paper reuses its two archive logs
//! and single AIX trace across every figure. Only `a`, `U`, and the policy
//! knobs vary.

use pqos_core::config::{CheckpointPolicyKind, SimConfig};
use pqos_core::metrics::SimReport;
use pqos_core::system::QosSimulator;
use pqos_core::user::UserStrategy;
use pqos_failures::synthetic::AixLikeTrace;
use pqos_failures::trace::FailureTrace;
use pqos_sched::place::PlacementStrategy;
use pqos_workload::log::JobLog;
use pqos_workload::synthetic::{LogModel, SyntheticLog};
use std::sync::Arc;

/// Seed shared by every experiment (logs, traces, detectabilities).
pub(crate) const EXPERIMENT_SEED: u64 = 0xd5_2005;

/// The paper's trace length: one year of failures.
pub(crate) const TRACE_DAYS: f64 = 400.0;

/// Builds the standard 10,000-job log for a workload model (paper §4.3).
pub fn standard_log(model: LogModel, jobs: usize) -> JobLog {
    SyntheticLog::new(model)
        .jobs(jobs)
        .seed(EXPERIMENT_SEED)
        .build()
}

/// Builds the standard year-long AIX-like failure trace (paper §4.3).
pub fn standard_trace() -> Arc<FailureTrace> {
    Arc::new(
        AixLikeTrace::new()
            .days(TRACE_DAYS)
            .seed(EXPERIMENT_SEED)
            .build(),
    )
}

/// One point in a parameter sweep.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Human-readable label (appears in tables).
    pub label: String,
    /// Workload model.
    pub model: LogModel,
    /// Prediction accuracy `a`.
    pub accuracy: f64,
    /// User risk threshold `U`.
    pub user_threshold: f64,
    /// Checkpoint policy (paper: risk-based).
    pub checkpoint_policy: CheckpointPolicyKind,
    /// Placement strategy (paper: fault-aware min-`pf`).
    pub placement: PlacementStrategy,
}

impl Scenario {
    /// The paper's standard system at `(a, U)` for a workload model.
    pub fn paper(model: LogModel, accuracy: f64, user_threshold: f64) -> Self {
        Scenario {
            label: format!("{model} a={accuracy:.1} U={user_threshold:.1}"),
            model,
            accuracy,
            user_threshold,
            checkpoint_policy: CheckpointPolicyKind::RiskBasedWithDefault,
            placement: PlacementStrategy::MinFailureProbability,
        }
    }

    /// Builds the `SimConfig` for this scenario.
    pub(crate) fn config(&self) -> SimConfig {
        SimConfig::paper_defaults()
            .accuracy(self.accuracy)
            .user(UserStrategy::risk_threshold(self.user_threshold).expect("threshold in [0,1]"))
            .checkpoint_policy(self.checkpoint_policy)
            .placement(self.placement)
    }

    /// Runs this scenario against the given log and trace.
    pub(crate) fn run(&self, log: &JobLog, trace: &Arc<FailureTrace>) -> ScenarioResult {
        let report = QosSimulator::new(self.config(), log.clone(), Arc::clone(trace))
            .run()
            .report;
        ScenarioResult {
            scenario: self.clone(),
            report,
        }
    }
}

/// A scenario plus its measured report.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The inputs.
    pub scenario: Scenario,
    /// The measured outputs.
    pub report: SimReport,
}

/// Runs scenarios across `threads` worker threads (results in input
/// order). Each scenario re-reads the shared log/trace; simulations are
/// independent and deterministic, so parallelism cannot change results.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub fn run_scenarios(
    scenarios: &[Scenario],
    log_for: &dyn Fn(LogModel) -> JobLog,
    trace: &Arc<FailureTrace>,
    threads: usize,
) -> Vec<ScenarioResult> {
    assert!(threads > 0, "need at least one worker thread");
    // Pre-build one log per distinct model, shared read-only.
    let mut logs: Vec<(LogModel, Arc<JobLog>)> = Vec::new();
    for s in scenarios {
        if !logs.iter().any(|(m, _)| *m == s.model) {
            logs.push((s.model, Arc::new(log_for(s.model))));
        }
    }
    let log_of = |model: LogModel| -> Arc<JobLog> {
        logs.iter()
            .find(|(m, _)| *m == model)
            .map(|(_, l)| Arc::clone(l))
            .expect("log prebuilt per model")
    };

    let jobs: Vec<(usize, Scenario, Arc<JobLog>)> = scenarios
        .iter()
        .cloned()
        .enumerate()
        .map(|(i, s)| {
            let log = log_of(s.model);
            (i, s, log)
        })
        .collect();
    let queue = std::sync::Mutex::new(jobs.into_iter());
    let results = std::sync::Mutex::new(vec![None; scenarios.len()]);

    std::thread::scope(|scope| {
        for _ in 0..threads.min(scenarios.len().max(1)) {
            scope.spawn(|| loop {
                let next = queue.lock().expect("queue lock").next();
                let Some((i, scenario, log)) = next else {
                    break;
                };
                let result = scenario.run(&log, trace);
                results.lock().expect("results lock")[i] = Some(result);
            });
        }
    });

    results
        .into_inner()
        .expect("threads joined")
        .into_iter()
        .map(|r| r.expect("every scenario ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_config_round_trips() {
        let s = Scenario::paper(LogModel::NasaIpsc, 0.5, 0.9);
        let c = s.config();
        assert_eq!(c.accuracy, 0.5);
        assert_eq!(
            c.checkpoint_policy,
            CheckpointPolicyKind::RiskBasedWithDefault
        );
        assert!(s.label.contains("NASA"));
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let trace = Arc::new(AixLikeTrace::new().days(30.0).seed(3).build());
        let log = SyntheticLog::new(LogModel::NasaIpsc)
            .jobs(150)
            .seed(3)
            .build();
        let scenarios: Vec<Scenario> = [0.0, 0.5, 1.0]
            .iter()
            .map(|&a| Scenario::paper(LogModel::NasaIpsc, a, 0.5))
            .collect();
        let serial: Vec<ScenarioResult> = scenarios.iter().map(|s| s.run(&log, &trace)).collect();
        let parallel = run_scenarios(&scenarios, &|_| log.clone(), &trace, 3);
        for (a, b) in serial.iter().zip(parallel.iter()) {
            assert_eq!(a.report, b.report, "parallelism must not change results");
        }
    }
}
