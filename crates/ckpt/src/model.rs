//! Checkpoint arithmetic: planned execution time with checkpoints, and
//! Young's optimal-interval formula used by the interval ablation.

use pqos_sim_core::time::SimDuration;

/// The checkpoint plan implied by a runtime `ej`, interval `I`, and
/// overhead `C`, assuming every request is granted.
///
/// Requests occur after each full interval of useful progress that is
/// *strictly inside* the run — a request exactly at completion would be
/// pointless, so a job with `ej = k·I` makes `k − 1` requests.
///
/// # Examples
///
/// ```
/// use pqos_ckpt::model::planned_execution;
/// use pqos_sim_core::time::SimDuration;
///
/// let plan = planned_execution(
///     SimDuration::from_secs(2 * 3600), // ej: two hours
///     SimDuration::from_secs(3600),     // I
///     SimDuration::from_secs(720),      // C
/// );
/// assert_eq!(plan.requests, 1);
/// assert_eq!(plan.total.as_secs(), 2 * 3600 + 720);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionPlan {
    /// Number of checkpoint requests the application will make.
    pub requests: u64,
    /// `Ej`: runtime plus overhead if every request is granted.
    pub total: SimDuration,
}

/// Computes the [`ExecutionPlan`] for a job.
///
/// # Panics
///
/// Panics if `interval` is zero.
pub fn planned_execution(
    runtime: SimDuration,
    interval: SimDuration,
    overhead: SimDuration,
) -> ExecutionPlan {
    assert!(!interval.is_zero(), "checkpoint interval must be positive");
    let requests = if runtime.is_zero() {
        0
    } else {
        (runtime.as_secs() - 1) / interval.as_secs()
    };
    ExecutionPlan {
        requests,
        // Saturating: `runtime` is a request field, and a wrapped total
        // would reserve less time than the job runs.
        total: runtime.saturating_add(overhead.saturating_mul(requests)),
    }
}

/// Young's first-order optimal checkpoint interval `√(2·C·MTBF)`.
///
/// Used by the interval ablation to contrast the paper's fixed `I = 3600 s`
/// against the classical optimum for the trace's observed MTBF.
///
/// # Panics
///
/// Panics if either argument is zero.
///
/// # Examples
///
/// ```
/// use pqos_ckpt::model::young_interval;
/// use pqos_sim_core::time::SimDuration;
///
/// // C = 720 s, per-partition MTBF = 100 h → I* ≈ 22.8 h.
/// let i = young_interval(SimDuration::from_secs(720), SimDuration::from_hours(100));
/// assert!((i.as_secs() as f64 - 22768.0).abs() < 10.0);
/// ```
pub fn young_interval(overhead: SimDuration, mtbf: SimDuration) -> SimDuration {
    assert!(
        !overhead.is_zero() && !mtbf.is_zero(),
        "overhead and MTBF must be positive"
    );
    let secs = (2.0 * overhead.as_secs() as f64 * mtbf.as_secs() as f64).sqrt();
    SimDuration::from_secs(secs.round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_job_requests_nothing() {
        let p = planned_execution(
            SimDuration::from_secs(100),
            SimDuration::from_secs(3600),
            SimDuration::from_secs(720),
        );
        assert_eq!(p.requests, 0);
        assert_eq!(p.total.as_secs(), 100);
    }

    #[test]
    fn exact_multiple_excludes_final_request() {
        let p = planned_execution(
            SimDuration::from_secs(3 * 3600),
            SimDuration::from_secs(3600),
            SimDuration::from_secs(720),
        );
        assert_eq!(p.requests, 2);
        assert_eq!(p.total.as_secs(), 3 * 3600 + 2 * 720);
    }

    #[test]
    fn a_runtime_near_the_end_of_time_saturates_the_total() {
        for runtime in [SimDuration::MAX, SimDuration::from_secs(u64::MAX - 3600)] {
            let p = planned_execution(
                runtime,
                SimDuration::from_secs(3600),
                SimDuration::from_secs(720),
            );
            assert_eq!(p.total, SimDuration::MAX, "never shorter than the runtime");
        }
    }

    #[test]
    fn one_second_over_interval_requests_once() {
        let p = planned_execution(
            SimDuration::from_secs(3601),
            SimDuration::from_secs(3600),
            SimDuration::from_secs(720),
        );
        assert_eq!(p.requests, 1);
    }

    #[test]
    fn zero_runtime_plan_is_empty() {
        let p = planned_execution(
            SimDuration::ZERO,
            SimDuration::from_secs(3600),
            SimDuration::from_secs(720),
        );
        assert_eq!(p.requests, 0);
        assert_eq!(p.total, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "interval")]
    fn zero_interval_panics() {
        let _ = planned_execution(
            SimDuration::from_secs(10),
            SimDuration::ZERO,
            SimDuration::from_secs(1),
        );
    }

    #[test]
    fn young_matches_closed_form() {
        let i = young_interval(SimDuration::from_secs(200), SimDuration::from_secs(10_000));
        assert_eq!(i.as_secs(), 2000);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn young_rejects_zero() {
        let _ = young_interval(SimDuration::ZERO, SimDuration::from_secs(1));
    }
}
