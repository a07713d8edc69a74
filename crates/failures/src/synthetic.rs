//! Synthetic failure traces calibrated to the paper's AIX cluster data.
//!
//! The paper replays "filtered traces collected for a year from a set of
//! 400 AIX machines", using the first 128 machines: 1,021 failures — an
//! average of 2.8 failures/day and a cluster-wide MTBF of 8.5 h (§4.3).
//! Two empirical properties of that data (Sahoo et al., DSN 2004) matter
//! for the scheduler:
//!
//! * **burstiness** — failures cluster in time rather than arriving as a
//!   Poisson process; we model per-node inter-arrival times with a Weibull
//!   of shape `k < 1` (decreasing hazard ⇒ clustered events);
//! * **heterogeneity** — a small set of "lemon" nodes accounts for a
//!   disproportionate share of failures.
//!
//! [`AixLikeTrace`] generates the filtered trace directly;
//! [`RawLogBuilder`] generates a *raw* RAS event log (with precursor
//! warnings, duplicate fatal chatter, and shared-root-cause bursts) whose
//! filtration through [`crate::filter`] reproduces such a trace — the same
//! derivation path the paper used.

use crate::event::{RawEvent, Severity, Subsystem};
use crate::trace::{Failure, FailureTrace};
use pqos_cluster::node::NodeId;
use pqos_sim_core::rng::DetRng;
use pqos_sim_core::time::SimTime;

/// Builder for a filtered, detectability-annotated failure trace.
///
/// # Examples
///
/// ```
/// use pqos_failures::synthetic::AixLikeTrace;
///
/// let trace = AixLikeTrace::new().days(365.0).seed(7).build();
/// let stats = trace.stats();
/// // Calibrated to the paper's ~2.8 failures/day.
/// assert!((stats.failures_per_day - 2.8).abs() < 0.6, "{stats}");
/// ```
#[derive(Debug, Clone)]
pub struct AixLikeTrace {
    nodes: u32,
    days: f64,
    failures_per_day: f64,
    lemon_fraction: f64,
    lemon_factor: f64,
    weibull_shape: f64,
    seed: u64,
    stream: u64,
}

impl Default for AixLikeTrace {
    fn default() -> Self {
        Self::new()
    }
}

impl AixLikeTrace {
    /// Paper defaults: 128 nodes, one year, 2.8 failures/day, 15% lemon
    /// nodes failing 10× as often, Weibull shape 0.7.
    pub fn new() -> Self {
        AixLikeTrace {
            nodes: 128,
            days: 365.0,
            failures_per_day: 2.8,
            lemon_fraction: 0.15,
            lemon_factor: 10.0,
            weibull_shape: 0.7,
            seed: 0xfa11,
            stream: 0,
        }
    }

    /// Sets the node population (paper: 128).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn nodes(mut self, n: u32) -> Self {
        assert!(n > 0, "need at least one node");
        self.nodes = n;
        self
    }

    /// Sets the trace length in days (paper: one year).
    ///
    /// # Panics
    ///
    /// Panics if `days` is not positive.
    pub fn days(mut self, days: f64) -> Self {
        assert!(days > 0.0, "trace length must be positive");
        self.days = days;
        self
    }

    /// Sets the cluster-wide mean failure rate (paper: 2.8/day).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive.
    #[cfg(test)]
    pub(crate) fn failures_per_day(mut self, rate: f64) -> Self {
        assert!(rate > 0.0, "failure rate must be positive");
        self.failures_per_day = rate;
        self
    }

    /// Sets the fraction of lemon nodes and how much more often they fail.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]` or `factor < 1`.
    #[cfg(test)]
    pub(crate) fn lemons(mut self, fraction: f64, factor: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction outside [0,1]");
        assert!(factor >= 1.0, "lemon factor must be ≥ 1");
        self.lemon_fraction = fraction;
        self.lemon_factor = factor;
        self
    }

    /// Sets the Weibull shape for inter-arrival times; `k < 1` is bursty,
    /// `k = 1` is Poisson.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not positive.
    #[cfg(test)]
    pub(crate) fn weibull_shape(mut self, k: f64) -> Self {
        assert!(k > 0.0, "shape must be positive");
        self.weibull_shape = k;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects an independent failure *stream* for the same seed: the lemon
    /// node set stays fixed (it is a property of the machine), but the
    /// failure times differ. Useful for train/test splits — e.g. train an
    /// online predictor on stream 0 ("last year") and replay stream 1
    /// ("this year").
    pub fn stream(mut self, stream: u64) -> Self {
        self.stream = stream;
        self
    }

    /// Per-node mean inter-failure time in seconds, for regular and lemon
    /// nodes respectively.
    fn node_means(&self) -> (f64, f64) {
        let n = f64::from(self.nodes);
        let lemons = (n * self.lemon_fraction).round();
        let regulars = n - lemons;
        // cluster_rate = regulars * r + lemons * lemon_factor * r
        let r = self.failures_per_day / (regulars + lemons * self.lemon_factor);
        let regular_mean_days = 1.0 / r;
        (
            regular_mean_days * 86_400.0,
            regular_mean_days / self.lemon_factor * 86_400.0,
        )
    }

    /// The exact set of lemon nodes: `round(fraction · n)` nodes chosen by
    /// a deterministic shuffle. An exact count (rather than per-node coin
    /// flips) keeps the cluster-wide failure rate calibrated across seeds.
    fn lemon_set(&self, rng: &DetRng) -> Vec<bool> {
        let n = self.nodes as usize;
        let count = (n as f64 * self.lemon_fraction).round() as usize;
        let mut order: Vec<usize> = (0..n).collect();
        rng.fork("lemon-shuffle").shuffle(&mut order);
        let mut lemons = vec![false; n];
        for &i in order.iter().take(count) {
            lemons[i] = true;
        }
        lemons
    }

    /// Generates the trace. Deterministic in the builder state.
    pub fn build(&self) -> FailureTrace {
        let root = DetRng::seed_from(self.seed).fork("aix-trace");
        let horizon = self.days * 86_400.0;
        let (regular_mean, lemon_mean) = self.node_means();
        // Weibull mean = λ Γ(1 + 1/k); divide out to hit the target mean.
        let gamma = gamma_fn(1.0 + 1.0 / self.weibull_shape);
        let lemons = self.lemon_set(&root);
        let mut failures = Vec::new();
        for node in 0..self.nodes {
            let mut rng = root.fork(&format!("node/{node}/{}", self.stream));
            let mean = if lemons[node as usize] {
                lemon_mean
            } else {
                regular_mean
            };
            let lambda = mean / gamma;
            let mut t = 0.0f64;
            loop {
                t += rng.weibull(lambda, self.weibull_shape);
                if t >= horizon {
                    break;
                }
                failures.push(Failure {
                    time: SimTime::from_secs(t as u64),
                    node: NodeId::new(node),
                    detectability: rng.unit(),
                });
            }
        }
        FailureTrace::new(failures).expect("generated detectabilities are in [0,1]")
    }
}

/// Γ(x) via the Lanczos approximation; good to ~1e-10 for x > 0.
fn gamma_fn(x: f64) -> f64 {
    // Lanczos g=7, n=9 coefficients.
    const G: f64 = 7.0;
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        std::f64::consts::PI / ((std::f64::consts::PI * x).sin() * gamma_fn(1.0 - x))
    } else {
        let x = x - 1.0;
        let mut a = C[0];
        let t = x + G + 0.5;
        for (i, &c) in C.iter().enumerate().skip(1) {
            a += c / (x + i as f64);
        }
        (2.0 * std::f64::consts::PI).sqrt() * t.powf(x + 0.5) * (-t).exp() * a
    }
}

/// Builder for a *raw* RAS log whose filtration yields an AIX-like trace.
///
/// For every ground-truth failure the raw log contains the critical event
/// itself, usually some duplicate critical chatter seconds later (exercising
/// temporal coalescing), often precursor warnings in the preceding minutes
/// ("failures tend to be preceded by patterns of misbehavior", §1), and
/// occasionally sympathetic critical events on other nodes in the same
/// subsystem (exercising spatial coalescing). Uncorrelated INFO/WARNING
/// noise is layered on top.
///
/// # Examples
///
/// ```
/// use pqos_failures::filter::{filter_events, FilterConfig};
/// use pqos_failures::synthetic::RawLogBuilder;
///
/// let raw = RawLogBuilder::new().days(30.0).seed(3).build();
/// let (failures, stats) = filter_events(&raw.events, FilterConfig::default());
/// assert_eq!(stats.kept, failures.len());
/// // Filtering recovers roughly the ground-truth failure count.
/// let ratio = failures.len() as f64 / raw.ground_truth.len() as f64;
/// assert!((0.75..=1.25).contains(&ratio), "ratio {ratio}");
/// ```
#[derive(Debug, Clone)]
pub struct RawLogBuilder {
    trace: AixLikeTrace,
}

/// Probability that a failure is preceded by warning events: the accuracy
/// ceiling Sahoo et al. report.
const PRECURSOR_PROBABILITY: f64 = 0.7;
/// Rate of uncorrelated noise events.
const NOISE_PER_DAY: f64 = 40.0;

/// Output of [`RawLogBuilder::build`].
#[derive(Debug, Clone)]
pub struct RawLog {
    /// The raw events, time-ordered.
    pub events: Vec<RawEvent>,
    /// The ground-truth failures the raw log encodes.
    pub ground_truth: Vec<RawEvent>,
}

impl Default for RawLogBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl RawLogBuilder {
    /// Defaults: the [`AixLikeTrace`] defaults, 70% precursor probability
    /// (the accuracy ceiling Sahoo et al. report), 40 noise events/day.
    pub fn new() -> Self {
        RawLogBuilder {
            trace: AixLikeTrace::new(),
        }
    }

    /// Sets the trace length in days.
    pub fn days(mut self, days: f64) -> Self {
        self.trace = self.trace.days(days);
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.trace = self.trace.seed(seed);
        self
    }

    /// Generates the raw log.
    pub fn build(&self) -> RawLog {
        const SUBSYSTEMS: [Subsystem; 5] = [
            Subsystem::Memory,
            Subsystem::Network,
            Subsystem::Storage,
            Subsystem::NodeSoftware,
            Subsystem::Power,
        ];
        let truth = self.trace.build();
        let mut rng = DetRng::seed_from(self.trace.seed).fork("raw-log");
        let mut events = Vec::new();
        let mut ground_truth = Vec::new();
        for f in truth.iter() {
            let subsystem = SUBSYSTEMS[rng.weighted_index(&[2.0, 2.0, 1.5, 3.0, 0.5])];
            let critical = RawEvent {
                time: f.time,
                node: f.node,
                severity: if rng.chance(0.5) {
                    Severity::Fatal
                } else {
                    Severity::Failure
                },
                subsystem,
            };
            ground_truth.push(critical);
            events.push(critical);
            // Duplicate chatter within the temporal window.
            for _ in 0..rng.uniform_u64(0, 3) {
                events.push(RawEvent {
                    time: f.time
                        + pqos_sim_core::time::SimDuration::from_secs(rng.uniform_u64(1, 300)),
                    ..critical
                });
            }
            // Precursor warnings in the preceding minutes.
            if rng.chance(PRECURSOR_PROBABILITY) {
                for _ in 0..rng.uniform_u64(2, 5) {
                    let back = rng.uniform_u64(60, 1800);
                    events.push(RawEvent {
                        time: SimTime::from_secs(f.time.as_secs().saturating_sub(back)),
                        node: f.node,
                        severity: if rng.chance(0.6) {
                            Severity::Warning
                        } else {
                            Severity::Error
                        },
                        subsystem,
                    });
                }
            }
        }
        // Uncorrelated noise.
        let horizon = self.trace.days * 86_400.0;
        let n_noise = (NOISE_PER_DAY * self.trace.days) as u64;
        for _ in 0..n_noise {
            events.push(RawEvent {
                time: SimTime::from_secs(rng.uniform(0.0, horizon) as u64),
                node: NodeId::new(rng.uniform_u64(0, u64::from(self.trace.nodes) - 1) as u32),
                severity: if rng.chance(0.8) {
                    Severity::Info
                } else {
                    Severity::Warning
                },
                subsystem: SUBSYSTEMS[rng.weighted_index(&[1.0; 5])],
            });
        }
        events.sort_by_key(|e| (e.time, e.node, e.severity));
        ground_truth.sort_by_key(|e| (e.time, e.node));
        RawLog {
            events,
            ground_truth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{filter_events, FilterConfig};

    #[test]
    fn calibrated_to_paper_rates() {
        let trace = AixLikeTrace::new().seed(1).build();
        let s = trace.stats();
        // Paper: 1,021 failures/year ≈ 2.8/day, cluster MTBF 8.5 h.
        assert!(
            (s.failures_per_day - 2.8).abs() < 0.5,
            "failures/day {}",
            s.failures_per_day
        );
        assert!(
            (s.cluster_mtbf_hours - 8.5).abs() < 2.0,
            "MTBF {}",
            s.cluster_mtbf_hours
        );
        assert!(s.count > 800 && s.count < 1300, "count {}", s.count);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = AixLikeTrace::new().seed(5).build();
        let b = AixLikeTrace::new().seed(5).build();
        assert_eq!(a.failures(), b.failures());
        let c = AixLikeTrace::new().seed(6).build();
        assert_ne!(a.failures(), c.failures());
    }

    #[test]
    fn lemons_concentrate_failures() {
        let trace = AixLikeTrace::new().seed(2).lemons(0.15, 10.0).build();
        let mut per_node = vec![0usize; 128];
        for f in trace.iter() {
            per_node[f.node.index()] += 1;
        }
        per_node.sort_unstable_by(|a, b| b.cmp(a));
        let top20: usize = per_node[..26].iter().sum(); // top ~20% of nodes
        let total: usize = per_node.iter().sum();
        assert!(
            top20 as f64 / total as f64 > 0.5,
            "top-20% share {:.2}",
            top20 as f64 / total as f64
        );
    }

    #[test]
    fn no_lemons_is_roughly_uniform() {
        let trace = AixLikeTrace::new().seed(3).lemons(0.0, 1.0).build();
        let mut per_node = vec![0usize; 128];
        for f in trace.iter() {
            per_node[f.node.index()] += 1;
        }
        let max = *per_node.iter().max().unwrap();
        let mean = per_node.iter().sum::<usize>() as f64 / 128.0;
        assert!(
            (max as f64) < mean * 5.0,
            "max {max} vs mean {mean}: too skewed for homogeneous nodes"
        );
    }

    #[test]
    fn burstiness_increases_variance() {
        // Squared coefficient of variation of cluster-wide inter-arrival
        // times should be clearly higher for Weibull shape < 1 than for the
        // Poisson-like shape = 1 (same seed, same rate).
        let cv2_of = |shape: f64| {
            let trace = AixLikeTrace::new().seed(4).weibull_shape(shape).build();
            let times: Vec<f64> = trace.iter().map(|f| f.time.as_secs() as f64).collect();
            let gaps: Vec<f64> = times.windows(2).map(|w| w[1] - w[0]).collect();
            let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
            let var = gaps.iter().map(|g| (g - mean) * (g - mean)).sum::<f64>() / gaps.len() as f64;
            var / (mean * mean)
        };
        let bursty = cv2_of(0.55);
        let smooth = cv2_of(1.0);
        assert!(
            bursty > smooth * 1.15,
            "cv² bursty {bursty} should exceed poisson-like {smooth}"
        );
    }

    #[test]
    fn streams_share_lemons_but_differ_in_times() {
        let a = AixLikeTrace::new().seed(31).stream(0).build();
        let b = AixLikeTrace::new().seed(31).stream(1).build();
        assert_ne!(a.failures(), b.failures(), "streams must differ");
        // Lemon structure persists: the per-node count vectors correlate.
        let counts = |t: &crate::trace::FailureTrace| {
            let mut v = vec![0f64; 128];
            for f in t.iter() {
                v[f.node.index()] += 1.0;
            }
            v
        };
        let (ca, cb) = (counts(&a), counts(&b));
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let (ma, mb) = (mean(&ca), mean(&cb));
        let cov: f64 = ca.iter().zip(&cb).map(|(x, y)| (x - ma) * (y - mb)).sum();
        let va: f64 = ca.iter().map(|x| (x - ma) * (x - ma)).sum();
        let vb: f64 = cb.iter().map(|y| (y - mb) * (y - mb)).sum();
        let corr = cov / (va.sqrt() * vb.sqrt());
        assert!(
            corr > 0.6,
            "per-node failure counts should correlate: {corr}"
        );
    }

    #[test]
    fn gamma_function_known_values() {
        assert!((gamma_fn(1.0) - 1.0).abs() < 1e-9);
        assert!((gamma_fn(2.0) - 1.0).abs() < 1e-9);
        assert!((gamma_fn(5.0) - 24.0).abs() < 1e-7);
        assert!((gamma_fn(0.5) - std::f64::consts::PI.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn raw_log_filters_back_to_truth_scale() {
        let raw = RawLogBuilder::new().days(60.0).seed(9).build();
        let truth = raw.ground_truth.len();
        let (failures, stats) = filter_events(&raw.events, FilterConfig::default());
        assert_eq!(stats.kept, failures.len());
        assert!(stats.dropped_severity > 0, "noise should be dropped");
        assert!(stats.dropped_temporal > 0, "chatter should coalesce");
        // Within 25% of ground truth (spatial coalescing can merge
        // near-coincident independent failures; chatter can split across
        // window boundaries).
        let ratio = failures.len() as f64 / truth as f64;
        assert!((0.75..=1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn raw_log_is_time_ordered() {
        let raw = RawLogBuilder::new().days(10.0).seed(11).build();
        assert!(raw.events.windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn scaling_rate_scales_count() {
        let base = AixLikeTrace::new().seed(13).days(120.0).build().len() as f64;
        let double = AixLikeTrace::new()
            .seed(13)
            .days(120.0)
            .failures_per_day(5.6)
            .build()
            .len() as f64;
        let ratio = double / base;
        assert!((1.6..=2.4).contains(&ratio), "ratio {ratio}");
    }
}
