//! Scaling benchmark for the reservation book and quote cache.
//!
//! Builds a large backlog of accepted reservations by negotiating jobs one
//! at a time against the in-place timeline [`ReservationBook`], mirrors
//! the resulting commitments into the [`NaiveReservationBook`] reference
//! and the [`CachedReservationBook`] quote cache, and then times a fixed
//! set of probe negotiations against each book. The probes exercise the
//! full `visit_slots` → `choose_partition` path, so the measured ratio
//! is the end-to-end speedup a saturated scheduler sees per negotiation.
//!
//! Four probe passes are timed:
//!
//! 1. **naive** — the scan-everything executable specification;
//! 2. **uncached timeline** — `ReservationBook`'s `visit_slots`: the
//!    skip-indexed sliding-union walk over the book's own flat rows,
//!    stopped at the slot the dialog takes (what the simulator runs);
//! 3. **cached cold** — `CachedReservationBook` with an empty memo: the
//!    same walk behind a memo miss (what the service serves, and the
//!    headline `timeline_probe_per_negotiation_us` number). Passes 2 and 3
//!    differ by the memo's bookkeeping only — the cache has no walk and no
//!    profile of its own;
//! 4. **cached warm** — the same probe set again, now answered from the
//!    memo; its hit rate is asserted nonzero in CI.
//!
//! All four passes must agree on every probe outcome — the benchmark
//! doubles as an end-to-end parity check.
//!
//! The backlog itself is only ever *built* through the timeline book: the
//! naive book's quadratic probing makes a 5000-job sequential build take
//! hours, which is exactly the pathology the timeline removes. Mirroring
//! the accepted reservations via direct `add` calls keeps the books
//! byte-identical in content (asserted via probe-outcome equality) while
//! keeping the benchmark runnable.

use pqos_cluster::topology::Topology;
use pqos_core::negotiate::{negotiate, NegotiationOutcome, NegotiationRequest};
use pqos_core::user::UserStrategy;
use pqos_predict::api::NullPredictor;
use pqos_sched::cache::{CachedReservationBook, QuoteCacheStats};
use pqos_sched::place::PlacementStrategy;
use pqos_sched::reservation::{AvailabilityView, NaiveReservationBook, ReservationBook};
use pqos_sim_core::rng::DetRng;
use pqos_sim_core::time::{SimDuration, SimTime, TimeWindow};
use pqos_workload::job::JobId;
use std::time::Instant;

/// Paper-scale cluster width used by the default benchmark.
pub const DEFAULT_CLUSTER_SIZE: u32 = 128;
/// Default backlog depth (accepted reservations) before probing.
pub const DEFAULT_BACKLOG: usize = 5000;
/// Default number of timed probe negotiations per book.
pub const DEFAULT_PROBES: usize = 100;

/// Knobs for [`run_sched_bench`].
#[derive(Debug, Clone, Copy)]
pub struct SchedBenchConfig {
    /// Cluster width in nodes.
    pub cluster_size: u32,
    /// How many jobs to negotiate-and-commit before timing probes.
    pub backlog: usize,
    /// How many probe negotiations to time against each book.
    pub probes: usize,
}

impl Default for SchedBenchConfig {
    fn default() -> Self {
        SchedBenchConfig {
            cluster_size: DEFAULT_CLUSTER_SIZE,
            backlog: DEFAULT_BACKLOG,
            probes: DEFAULT_PROBES,
        }
    }
}

/// Before/after numbers from one benchmark run.
#[derive(Debug, Clone)]
pub struct SchedBenchReport {
    /// Cluster width the run used.
    pub cluster_size: u32,
    /// Jobs offered while building the backlog.
    pub backlog_jobs: usize,
    /// Reservations actually committed (== jobs offered; every job lands).
    pub accepted_reservations: usize,
    /// Distinct change points in the committed schedule.
    pub change_points: usize,
    /// Probe negotiations timed per book.
    pub probe_negotiations: usize,
    /// Wall time to negotiate + commit the whole backlog on the timeline
    /// book, in milliseconds.
    pub timeline_build_ms: f64,
    /// Wall time for the probe set against the naive book, in milliseconds.
    pub naive_probe_ms: f64,
    /// Wall time for the probe set against the plain timeline book (the
    /// walk with no memo in front), in milliseconds.
    pub uncached_timeline_probe_ms: f64,
    /// Wall time for the probe set against the quote cache with an empty
    /// memo (the same walk plus the memo miss), in milliseconds. This is
    /// the production cold path.
    pub timeline_probe_ms: f64,
    /// Wall time for the same probe set repeated against the now-warm
    /// quote cache, in milliseconds.
    pub cached_warm_probe_ms: f64,
    /// Quote-cache counters accumulated over the cold + warm passes
    /// (`profile_rebuilds` is constant 0; reported to keep the schema).
    pub cache_stats: QuoteCacheStats,
    /// `naive_probe_ms / timeline_probe_ms` (naive vs the production
    /// cold-cache path).
    pub speedup: f64,
}

impl SchedBenchReport {
    /// Mean microseconds per probe negotiation on the naive book.
    pub fn naive_probe_per_negotiation_us(&self) -> f64 {
        self.naive_probe_ms * 1000.0 / self.probe_negotiations.max(1) as f64
    }

    /// Mean microseconds per probe negotiation on the plain timeline book.
    pub fn uncached_timeline_probe_per_negotiation_us(&self) -> f64 {
        self.uncached_timeline_probe_ms * 1000.0 / self.probe_negotiations.max(1) as f64
    }

    /// Mean microseconds per probe negotiation on the cold quote cache —
    /// the headline per-negotiation cost of the production path.
    pub fn timeline_probe_per_negotiation_us(&self) -> f64 {
        self.timeline_probe_ms * 1000.0 / self.probe_negotiations.max(1) as f64
    }

    /// Mean microseconds per probe negotiation on the warm quote cache.
    pub fn cached_warm_probe_per_negotiation_us(&self) -> f64 {
        self.cached_warm_probe_ms * 1000.0 / self.probe_negotiations.max(1) as f64
    }

    /// Renders the report as a JSON object (hand-rolled; every field is a
    /// number or string, so no escaping is needed).
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\n",
                "  \"benchmark\": \"sched_negotiate_backlog\",\n",
                "  \"cluster_size\": {},\n",
                "  \"backlog_jobs\": {},\n",
                "  \"accepted_reservations\": {},\n",
                "  \"change_points\": {},\n",
                "  \"probe_negotiations\": {},\n",
                "  \"timeline_build_ms\": {:.3},\n",
                "  \"naive_probe_ms\": {:.3},\n",
                "  \"uncached_timeline_probe_ms\": {:.3},\n",
                "  \"timeline_probe_ms\": {:.3},\n",
                "  \"cached_warm_probe_ms\": {:.3},\n",
                "  \"naive_probe_per_negotiation_us\": {:.1},\n",
                "  \"uncached_timeline_probe_per_negotiation_us\": {:.1},\n",
                "  \"timeline_probe_per_negotiation_us\": {:.1},\n",
                "  \"cached_warm_probe_per_negotiation_us\": {:.1},\n",
                "  \"quote_cache_hits\": {},\n",
                "  \"quote_cache_misses\": {},\n",
                "  \"quote_cache_profile_rebuilds\": {},\n",
                "  \"quote_cache_hit_rate\": {:.3},\n",
                "  \"speedup\": {:.1}\n",
                "}}\n",
            ),
            self.cluster_size,
            self.backlog_jobs,
            self.accepted_reservations,
            self.change_points,
            self.probe_negotiations,
            self.timeline_build_ms,
            self.naive_probe_ms,
            self.uncached_timeline_probe_ms,
            self.timeline_probe_ms,
            self.cached_warm_probe_ms,
            self.naive_probe_per_negotiation_us(),
            self.uncached_timeline_probe_per_negotiation_us(),
            self.timeline_probe_per_negotiation_us(),
            self.cached_warm_probe_per_negotiation_us(),
            self.cache_stats.hits,
            self.cache_stats.misses,
            self.cache_stats.profile_rebuilds,
            self.cache_stats.hit_rate(),
            self.speedup,
        )
    }

    /// One-line human summary for terminal output.
    pub fn summary(&self) -> String {
        format!(
            "sched bench: backlog {} jobs ({} change points), probes {}: \
             naive {:.1} ms vs uncached {:.1} ms vs cached {:.1} ms cold / {:.1} ms warm \
             per set ({:.1}x speedup, {:.0}% warm hit rate)",
            self.accepted_reservations,
            self.change_points,
            self.probe_negotiations,
            self.naive_probe_ms,
            self.uncached_timeline_probe_ms,
            self.timeline_probe_ms,
            self.cached_warm_probe_ms,
            self.speedup,
            self.cache_stats.hit_rate() * 100.0,
        )
    }
}

/// One job offered to the negotiator: `size` nodes for `duration`.
#[derive(Debug, Clone, Copy)]
struct JobSpec {
    size: u32,
    duration: SimDuration,
}

fn draw_job(rng: &mut DetRng, cluster_size: u32) -> JobSpec {
    // Power-of-two sizes, skewed small like real supercomputer mixes, and
    // clamped so every job fits the cluster.
    let size = (1u32 << rng.uniform_u64(0, 5)).min(cluster_size);
    let duration = SimDuration::from_secs(rng.uniform_u64(600, 36_000));
    JobSpec { size, duration }
}

fn probe<B: AvailabilityView>(book: &B, spec: JobSpec) -> Option<NegotiationOutcome> {
    negotiate(
        book,
        Topology::Flat,
        PlacementStrategy::MinFailureProbability,
        &NullPredictor,
        NegotiationRequest {
            size: spec.size,
            duration: spec.duration,
            now: SimTime::ZERO,
            down: &[],
            recovery_horizon: SimTime::ZERO,
            pre_start_risk: SimDuration::from_secs(120),
        },
        &UserStrategy::AlwaysEarliest,
        4,
        4,
    )
}

/// Runs the benchmark: build the backlog on the timeline book, mirror it
/// into the naive and cached books, then time the same probe set against
/// all of them (the cached book twice: cold memo, then warm).
///
/// Panics if the books ever disagree on a probe outcome — the benchmark
/// doubles as an end-to-end parity check across the naive specification,
/// the timeline walk, and both quote-cache paths.
pub fn run_sched_bench(config: &SchedBenchConfig) -> SchedBenchReport {
    let mut rng = DetRng::seed_from(crate::scenario::EXPERIMENT_SEED).fork("sched-bench");
    let backlog: Vec<JobSpec> = (0..config.backlog)
        .map(|_| draw_job(&mut rng, config.cluster_size))
        .collect();
    let probes: Vec<JobSpec> = (0..config.probes)
        .map(|_| draw_job(&mut rng, config.cluster_size))
        .collect();

    // Build phase: negotiate + commit every backlog job on the timeline
    // book, exactly as `System` does between arrivals.
    let mut fast = ReservationBook::new(config.cluster_size);
    let build_started = Instant::now();
    for (i, spec) in backlog.iter().enumerate() {
        let outcome = probe(&fast, *spec).expect("backlog job must fit the cluster");
        let window = TimeWindow::new(outcome.accepted.start, outcome.accepted.deadline);
        fast.add(JobId::new(i as u64), outcome.accepted.partition, window)
            .expect("accepted quote must be addable");
    }
    let timeline_build_ms = build_started.elapsed().as_secs_f64() * 1000.0;

    // Mirror the committed schedule into the naive reference book.
    let mut naive = NaiveReservationBook::new(config.cluster_size);
    for (_, r) in fast.iter() {
        naive
            .add(r.job, r.partition.clone(), r.interval)
            .expect("mirrored reservation must be addable");
    }
    assert_eq!(fast.len(), naive.len());
    // And wrap a copy in the quote cache, exactly as the session does.
    let cached = CachedReservationBook::from_book(fast.clone());

    // Probe phase: the same negotiations against each book, timed.
    let naive_started = Instant::now();
    let naive_outcomes: Vec<_> = probes.iter().map(|spec| probe(&naive, *spec)).collect();
    let naive_probe_ms = naive_started.elapsed().as_secs_f64() * 1000.0;

    let uncached_started = Instant::now();
    let fast_outcomes: Vec<_> = probes.iter().map(|spec| probe(&fast, *spec)).collect();
    let uncached_timeline_probe_ms = uncached_started.elapsed().as_secs_f64() * 1000.0;

    let cold_started = Instant::now();
    let cold_outcomes: Vec<_> = probes.iter().map(|spec| probe(&cached, *spec)).collect();
    let timeline_probe_ms = cold_started.elapsed().as_secs_f64() * 1000.0;

    let warm_started = Instant::now();
    let warm_outcomes: Vec<_> = probes.iter().map(|spec| probe(&cached, *spec)).collect();
    let cached_warm_probe_ms = warm_started.elapsed().as_secs_f64() * 1000.0;

    assert_eq!(
        naive_outcomes, fast_outcomes,
        "naive and timeline books disagreed on a probe negotiation"
    );
    assert_eq!(
        fast_outcomes, cold_outcomes,
        "timeline book and cold quote cache disagreed on a probe negotiation"
    );
    assert_eq!(
        cold_outcomes, warm_outcomes,
        "cold and warm quote-cache passes disagreed on a probe negotiation"
    );

    SchedBenchReport {
        cluster_size: config.cluster_size,
        backlog_jobs: config.backlog,
        accepted_reservations: fast.len(),
        change_points: fast.change_points(SimTime::ZERO).len(),
        probe_negotiations: config.probes,
        timeline_build_ms,
        naive_probe_ms,
        uncached_timeline_probe_ms,
        timeline_probe_ms,
        cached_warm_probe_ms,
        cache_stats: cached.stats(),
        speedup: if timeline_probe_ms > 0.0 {
            naive_probe_ms / timeline_probe_ms
        } else {
            f64::INFINITY
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_is_consistent() {
        let report = run_sched_bench(&SchedBenchConfig {
            cluster_size: 16,
            backlog: 40,
            probes: 3,
        });
        assert_eq!(report.backlog_jobs, 40);
        assert_eq!(report.accepted_reservations, 40);
        assert_eq!(report.probe_negotiations, 3);
        assert!(report.change_points > 0);
        // No timing assertions: CI machines are noisy. The run itself
        // already asserts probe-outcome parity across all four passes.
        assert!(report.speedup > 0.0);
        // The warm pass repeats the cold probe set verbatim against an
        // unmutated book, so every repeated negotiation hits the memo.
        assert!(report.cache_stats.hits > 0, "warm pass must hit the memo");
        assert_eq!(report.cache_stats.profile_rebuilds, 0);
        let json = report.to_json();
        for key in [
            "\"benchmark\"",
            "\"backlog_jobs\"",
            "\"naive_probe_ms\"",
            "\"uncached_timeline_probe_ms\"",
            "\"timeline_probe_ms\"",
            "\"cached_warm_probe_ms\"",
            "\"quote_cache_hits\"",
            "\"quote_cache_profile_rebuilds\": 0,",
            "\"quote_cache_hit_rate\"",
            "\"speedup\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn report_rates_divide_by_probe_count() {
        let report = SchedBenchReport {
            cluster_size: 8,
            backlog_jobs: 1,
            accepted_reservations: 1,
            change_points: 2,
            probe_negotiations: 4,
            timeline_build_ms: 1.0,
            naive_probe_ms: 8.0,
            uncached_timeline_probe_ms: 4.0,
            timeline_probe_ms: 2.0,
            cached_warm_probe_ms: 1.0,
            cache_stats: QuoteCacheStats {
                hits: 3,
                misses: 1,
                profile_rebuilds: 0,
                entries_invalidated: 0,
            },
            speedup: 4.0,
        };
        assert_eq!(report.naive_probe_per_negotiation_us(), 2000.0);
        assert_eq!(report.uncached_timeline_probe_per_negotiation_us(), 1000.0);
        assert_eq!(report.timeline_probe_per_negotiation_us(), 500.0);
        assert_eq!(report.cached_warm_probe_per_negotiation_us(), 250.0);
        assert!(report.summary().contains("4.0x speedup"));
        assert!(report.summary().contains("75% warm hit rate"));
    }
}
