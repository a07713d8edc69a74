//! Synthetic workload generators calibrated to the paper's job logs.
//!
//! The paper drives its simulations with two archive logs of 10,000 jobs
//! each (Table 1):
//!
//! | log  | machine              | avg `nj` | avg `ej` | max `ej` |
//! |------|----------------------|---------:|---------:|---------:|
//! | NASA | 128-node iPSC/860    | 6.3      | 381 s    | 12 h     |
//! | SDSC | 128-node IBM SP      | 9.7      | 7722 s   | 132 h    |
//!
//! Those logs are not redistributable, so this module generates logs with
//! the same distinguishing structure (see DESIGN.md "Substitutions"):
//!
//! * **NASA**: power-of-two sizes only, short runtimes, lighter load. The
//!   rigid sizes tile the machine with little fragmentation — which is why
//!   the paper sees no QoS benefit there until prediction accuracy is high.
//! * **SDSC**: arbitrary ("odd") sizes, long heavy-tailed runtimes, heavier
//!   load. Odd sizes fragment the machine, giving the fault-aware scheduler
//!   genuine placement choices even at low accuracy.
//!
//! Arrivals are Poisson with the mean chosen so the *offered load* against
//! the target cluster matches the paper's observed utilization region.

use crate::job::{Job, JobId};
use crate::log::JobLog;
use pqos_sim_core::rng::DetRng;
use pqos_sim_core::time::{SimDuration, SimTime};
use std::fmt;

/// Minimum job runtime, honouring the paper's minimum-runtime assumption
/// (§3.3) and avoiding the border cases of vanishingly small jobs.
pub(crate) const MIN_RUNTIME_SECS: u64 = 30;

/// Which archive log to imitate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogModel {
    /// NASA Ames 128-node iPSC/860 (1993): power-of-two sizes, short jobs.
    NasaIpsc,
    /// SDSC 128-node IBM RS/6000 SP (1998–2000): odd sizes, long jobs.
    SdscSp2,
}

impl LogModel {
    /// The paper's Table 1 reference values for this model:
    /// `(avg_nodes, avg_runtime_secs, max_runtime_secs)`.
    pub fn table1_reference(self) -> (f64, f64, u64) {
        match self {
            LogModel::NasaIpsc => (6.3, 381.0, 12 * 3600),
            LogModel::SdscSp2 => (9.7, 7722.0, 132 * 3600),
        }
    }

    /// Default offered load targeted by [`SyntheticLog`], chosen so that
    /// measured utilization lands in the paper's reported band
    /// (NASA ≈ 0.55–0.59, SDSC ≈ 0.64–0.72).
    pub(crate) fn default_offered_load(self) -> f64 {
        match self {
            LogModel::NasaIpsc => 0.66,
            LogModel::SdscSp2 => 0.74,
        }
    }

    /// Cap on per-job work `nj · ej` in node-seconds.
    ///
    /// Sizes and runtimes are sampled independently, which — unlike the
    /// real logs, where wide jobs are short and long jobs are narrow —
    /// would occasionally produce a single job carrying several percent of
    /// the whole log's work. Such a job dominates the work-weighted QoS
    /// metric whenever it fails. The cap bounds any one job to well under
    /// 1% of a 10,000-job log's total work while leaving the Table 1
    /// marginals essentially unchanged (it binds only on the joint tail).
    pub(crate) fn max_job_work(self) -> u64 {
        match self {
            LogModel::NasaIpsc => 1_000_000,
            LogModel::SdscSp2 => 6_000_000,
        }
    }

    fn sample_nodes(self, rng: &mut DetRng) -> u32 {
        match self {
            LogModel::NasaIpsc => {
                // Power-of-two sizes, weights calibrated to mean ≈ 6.3.
                const SIZES: [u32; 8] = [1, 2, 4, 8, 16, 32, 64, 128];
                const WEIGHTS: [f64; 8] = [34.0, 25.0, 18.0, 10.0, 6.0, 4.0, 1.7, 0.5];
                SIZES[rng.weighted_index(&WEIGHTS)]
            }
            LogModel::SdscSp2 => {
                // Three bands of uniform "odd" sizes, mean ≈ 9.7.
                match rng.weighted_index(&[0.68, 0.27, 0.05]) {
                    0 => rng.uniform_u64(1, 6) as u32,
                    1 => rng.uniform_u64(7, 18) as u32,
                    _ => rng.uniform_u64(19, 128) as u32,
                }
            }
        }
    }

    fn sample_runtime(self, rng: &mut DetRng) -> SimDuration {
        let max = self.table1_reference().2;
        let secs = match self {
            LogModel::NasaIpsc => {
                // 40% interactive-short, 60% bounded-Pareto tail out to 12 h.
                if rng.chance(0.4) {
                    rng.uniform(10.0, 120.0)
                } else {
                    rng.bounded_pareto(98.0, max as f64, 1.0)
                }
            }
            LogModel::SdscSp2 => {
                // 30% short batch probes, 70% bounded-Pareto tail out to 132 h.
                if rng.chance(0.3) {
                    rng.uniform(60.0, 600.0)
                } else {
                    rng.bounded_pareto(2000.0, max as f64, 1.0)
                }
            }
        };
        SimDuration::from_secs((secs as u64).clamp(MIN_RUNTIME_SECS, max))
    }
}

impl fmt::Display for LogModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LogModel::NasaIpsc => write!(f, "NASA"),
            LogModel::SdscSp2 => write!(f, "SDSC"),
        }
    }
}

/// Builder for a synthetic job log.
///
/// # Examples
///
/// ```
/// use pqos_workload::synthetic::{LogModel, SyntheticLog};
///
/// let log = SyntheticLog::new(LogModel::SdscSp2)
///     .jobs(500)
///     .seed(7)
///     .build();
/// assert_eq!(log.len(), 500);
/// // Deterministic: same seed, same log.
/// assert_eq!(log, SyntheticLog::new(LogModel::SdscSp2).jobs(500).seed(7).build());
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticLog {
    model: LogModel,
    jobs: usize,
    seed: u64,
    cluster_size: u32,
    offered_load: f64,
    arrivals: ArrivalModel,
}

/// How job inter-arrival times are generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalModel {
    /// Homogeneous Poisson arrivals (the default).
    Poisson,
    /// Poisson arrivals with a sinusoidal day/night cycle: the arrival
    /// rate is `base · (1 + amplitude · sin(2πt/86400))`, averaging to the
    /// base rate over each day. Real logs (including the paper's NASA and
    /// SDSC logs) show pronounced diurnal submission patterns, which bunch
    /// load and change how often the machine has placement choices.
    Diurnal {
        /// Peak-to-mean rate swing, in `[0, 1)`.
        amplitude: f64,
    },
}

impl SyntheticLog {
    /// Starts a builder for the given model with the paper's defaults
    /// (10,000 jobs, 128-node cluster, model-specific offered load).
    pub fn new(model: LogModel) -> Self {
        SyntheticLog {
            model,
            jobs: 10_000,
            seed: 0x5eed,
            cluster_size: 128,
            offered_load: model.default_offered_load(),
            arrivals: ArrivalModel::Poisson,
        }
    }

    /// Sets the arrival model.
    ///
    /// # Panics
    ///
    /// Panics if a diurnal amplitude is outside `[0, 1)`.
    pub fn arrivals(mut self, arrivals: ArrivalModel) -> Self {
        if let ArrivalModel::Diurnal { amplitude } = arrivals {
            assert!(
                (0.0..1.0).contains(&amplitude),
                "diurnal amplitude {amplitude} outside [0, 1)"
            );
        }
        self.arrivals = arrivals;
        self
    }

    /// Sets the number of jobs (paper: 10,000).
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the RNG seed; logs are a pure function of the builder state.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the cluster size used to translate offered load into an arrival
    /// rate (paper: 128).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn cluster_size(mut self, n: u32) -> Self {
        assert!(n > 0, "cluster size must be positive");
        self.cluster_size = n;
        self
    }

    /// Sets the target offered load in `(0, ∞)`.
    ///
    /// # Panics
    ///
    /// Panics if `load` is not finite and positive.
    pub fn offered_load(mut self, load: f64) -> Self {
        assert!(
            load.is_finite() && load > 0.0,
            "offered load must be positive, got {load}"
        );
        self.offered_load = load;
        self
    }

    /// Generates the log.
    ///
    /// Sizes and runtimes are sampled first; the Poisson arrival rate is
    /// then derived from the *realized* total work, so the offered load of
    /// the generated log matches the target regardless of sampling noise in
    /// the heavy-tailed runtime distribution.
    pub fn build(&self) -> JobLog {
        let mut rng = DetRng::seed_from(self.seed).fork(&format!("workload/{}", self.model));
        let work_cap = self.model.max_job_work();
        let shapes: Vec<(u32, SimDuration)> = (0..self.jobs)
            .map(|_| {
                let nodes = self.model.sample_nodes(&mut rng).min(self.cluster_size);
                let runtime = self.model.sample_runtime(&mut rng);
                let capped = runtime
                    .as_secs()
                    .min(work_cap / u64::from(nodes))
                    .max(MIN_RUNTIME_SECS);
                (nodes, SimDuration::from_secs(capped))
            })
            .collect();
        let total_work: f64 = shapes
            .iter()
            .map(|(n, r)| f64::from(*n) * r.as_secs() as f64)
            .sum();
        let mean_interarrival = if self.jobs == 0 {
            1.0
        } else {
            total_work / (self.jobs as f64 * f64::from(self.cluster_size) * self.offered_load)
        };
        let mut t = 0.0f64;
        let mut jobs = Vec::with_capacity(self.jobs);
        for (i, (nodes, runtime)) in shapes.into_iter().enumerate() {
            // For the diurnal model, scale the next gap by the inverse of
            // the instantaneous rate (a first-order approximation of a
            // non-homogeneous Poisson process; exact thinning is not worth
            // the cost at these modulation depths).
            let rate_factor = match self.arrivals {
                ArrivalModel::Poisson => 1.0,
                ArrivalModel::Diurnal { amplitude } => {
                    1.0 + amplitude * (2.0 * std::f64::consts::PI * t / 86_400.0).sin()
                }
            };
            t += rng.exponential(mean_interarrival) / rate_factor.max(1e-6);
            jobs.push(
                Job::new(
                    JobId::new(i as u64),
                    SimTime::from_secs(t as u64),
                    nodes,
                    runtime,
                )
                .expect("generator produces valid jobs"),
            );
        }
        JobLog::new(jobs).expect("generator produces unique ids")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(model: LogModel) -> JobLog {
        SyntheticLog::new(model).jobs(10_000).seed(42).build()
    }

    #[test]
    fn nasa_matches_table1_within_tolerance() {
        let s = build(LogModel::NasaIpsc).stats();
        let (nodes, runtime, max) = LogModel::NasaIpsc.table1_reference();
        assert!(
            (s.avg_nodes - nodes).abs() / nodes < 0.15,
            "avg nodes {} vs reference {nodes}",
            s.avg_nodes
        );
        assert!(
            (s.avg_runtime_secs - runtime).abs() / runtime < 0.20,
            "avg runtime {} vs reference {runtime}",
            s.avg_runtime_secs
        );
        assert!(s.max_runtime_secs <= max);
        assert!(s.max_runtime_secs > max / 2, "tail should reach near max");
    }

    #[test]
    fn sdsc_matches_table1_within_tolerance() {
        let s = build(LogModel::SdscSp2).stats();
        let (nodes, runtime, max) = LogModel::SdscSp2.table1_reference();
        assert!(
            (s.avg_nodes - nodes).abs() / nodes < 0.15,
            "avg nodes {} vs reference {nodes}",
            s.avg_nodes
        );
        assert!(
            (s.avg_runtime_secs - runtime).abs() / runtime < 0.20,
            "avg runtime {} vs reference {runtime}",
            s.avg_runtime_secs
        );
        assert!(s.max_runtime_secs <= max);
        assert!(s.max_runtime_secs > max / 2);
    }

    #[test]
    fn nasa_sizes_are_powers_of_two() {
        for j in build(LogModel::NasaIpsc).iter() {
            assert!(j.nodes().is_power_of_two(), "size {}", j.nodes());
            assert!(j.nodes() <= 128);
        }
    }

    #[test]
    fn sdsc_sizes_include_odd_values() {
        let odd = build(LogModel::SdscSp2)
            .iter()
            .filter(|j| j.nodes() % 2 == 1)
            .count();
        assert!(odd > 1000, "expected many odd sizes, got {odd}");
    }

    #[test]
    fn runtimes_respect_minimum() {
        for model in [LogModel::NasaIpsc, LogModel::SdscSp2] {
            for j in SyntheticLog::new(model).jobs(2000).seed(3).build().iter() {
                assert!(j.runtime().as_secs() >= MIN_RUNTIME_SECS);
            }
        }
    }

    #[test]
    fn offered_load_is_near_target() {
        for model in [LogModel::NasaIpsc, LogModel::SdscSp2] {
            let log = build(model);
            let load = log.offered_load(128);
            let target = model.default_offered_load();
            assert!(
                (load - target).abs() / target < 0.15,
                "{model}: offered load {load} vs target {target}"
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = SyntheticLog::new(LogModel::NasaIpsc)
            .jobs(100)
            .seed(1)
            .build();
        let b = SyntheticLog::new(LogModel::NasaIpsc)
            .jobs(100)
            .seed(2)
            .build();
        assert_ne!(a, b);
    }

    #[test]
    fn sdsc_runs_longer_than_nasa_on_average() {
        let nasa = build(LogModel::NasaIpsc).stats();
        let sdsc = build(LogModel::SdscSp2).stats();
        assert!(sdsc.avg_runtime_secs > 5.0 * nasa.avg_runtime_secs);
    }

    #[test]
    fn cluster_size_caps_job_size() {
        let log = SyntheticLog::new(LogModel::SdscSp2)
            .jobs(1000)
            .seed(9)
            .cluster_size(16)
            .build();
        assert!(log.iter().all(|j| j.nodes() <= 16));
    }

    #[test]
    fn diurnal_arrivals_cycle_by_hour() {
        let log = SyntheticLog::new(LogModel::NasaIpsc)
            .jobs(20_000)
            .seed(5)
            .arrivals(ArrivalModel::Diurnal { amplitude: 0.8 })
            .build();
        // Bucket arrivals by phase of day; peak phase should see far more
        // submissions than trough phase.
        let mut by_quarter = [0usize; 4];
        for j in log.iter() {
            by_quarter[(j.arrival().as_secs() % 86_400 / 21_600) as usize] += 1;
        }
        // sin peaks in the first quarter-day, troughs in the third.
        let peak = by_quarter[0] as f64;
        let trough = by_quarter[2] as f64;
        assert!(
            peak > 2.0 * trough,
            "peak {peak} vs trough {trough}: no diurnal signal"
        );
        // The offered load stays near its target: the modulation averages
        // out over each day.
        let load = log.offered_load(128);
        let target = LogModel::NasaIpsc.default_offered_load();
        assert!(
            (load - target).abs() / target < 0.30,
            "load {load} vs {target}"
        );
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn rejects_bad_amplitude() {
        let _ = SyntheticLog::new(LogModel::NasaIpsc)
            .arrivals(ArrivalModel::Diurnal { amplitude: 1.5 });
    }

    #[test]
    #[should_panic(expected = "offered load")]
    fn rejects_nonpositive_load() {
        let _ = SyntheticLog::new(LogModel::NasaIpsc).offered_load(0.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(LogModel::NasaIpsc.to_string(), "NASA");
        assert_eq!(LogModel::SdscSp2.to_string(), "SDSC");
    }
}
