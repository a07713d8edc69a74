//! Promise audit: does the daemon's quoted probability mean anything?
//!
//! Every accepted quote is a promise — "this job meets its deadline with
//! probability at least p" — journaled as `quote_negotiated` and resolved
//! by a `promise_resolved` record next to the job's terminal event. This
//! module folds a journal into a **calibration ledger**: quoted
//! probabilities partition into the [`PROMISE_BINS`] fixed bins the live
//! session gauges use, plus one exact-p group per distinct quoted value,
//! and each bucket tracks promised/kept/broken/cancelled/pending counts,
//! the observed success rate with its Wilson score interval, the Brier
//! score, and the reliability residual (observed − mean quoted).
//!
//! The ledger *tiles*: every accepted quote lands in exactly one fixed
//! bin, and `kept + broken + cancelled + pending == promised` holds per
//! bucket and in total. A journal whose resolutions cannot be joined back
//! to their quotes (`ledger_gap`), whose terminated jobs never
//! resolved their promise (`unresolved_promise`), or whose observed
//! success rate sits provably below what was quoted
//! ([`CODE_OVERCONFIDENT`]) fails the audit — `pqos-doctor audit` exits 1
//! on any of these, which is how CI keeps the daemon's promises honest,
//! not just its throughput.

use crate::doctor::{DoctorReport, Finding, Severity};
use pqos_core::session::{promise_bin, PROMISE_BINS};
use pqos_sim_core::table::Table;
use pqos_telemetry::{PromiseVerdict, TelemetryEvent};
use std::collections::{BTreeMap, HashMap};
use std::io::BufRead;

/// Stable finding code: a bucket kept so few of its promises that the
/// count is binomially implausible (lower tail below a Bonferroni-
/// corrected 2.5%) under the bucket's own mean quoted probability — the
/// daemon promised more than it delivered, beyond what sampling noise
/// explains.
pub const CODE_OVERCONFIDENT: &str = "overconfident_bucket";
/// Stable finding code: a bucket kept implausibly *more* promises than it
/// quoted (upper tail below the same corrected threshold). Harmless for
/// the user (promises under-sell), but a sign the quoting model is
/// leaving admission on the table.
pub(crate) const CODE_UNDERCONFIDENT: &str = "underconfident_bucket";
/// Stable finding code: a job reached its terminal event (completion or
/// cancellation) but the journal never resolved its promise.
pub(crate) const CODE_UNRESOLVED: &str = "unresolved_promise";
/// Stable finding code: a `promise_resolved` record cannot be joined back
/// to an accepted quote — no promise outstanding for the job, a duplicate
/// resolution, or a resolution restating a different probability than the
/// quote made.
pub(crate) const CODE_LEDGER_GAP: &str = "ledger_gap";

/// Two-sided Wilson score interval for `successes` out of `trials` at
/// z = 1.96 (~95%). Returns `(0.0, 1.0)` for zero trials. The bounds are
/// exact at the extremes: all successes yield an upper bound of exactly
/// 1.0 and no successes a lower bound of exactly 0.0, so a perfectly kept
/// bucket can never be flagged overconfident by floating-point jitter.
pub(crate) fn wilson_interval(successes: u64, trials: u64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let z = 1.96f64;
    let n = trials as f64;
    let phat = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (phat + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * ((phat * (1.0 - phat) / n) + z2 / (4.0 * n * n)).sqrt();
    let lo = if successes == 0 {
        0.0
    } else {
        (center - half).max(0.0)
    };
    let hi = if successes == trials {
        1.0
    } else {
        (center + half).min(1.0)
    };
    (lo, hi)
}

/// Exact lower-tail binomial CDF `P(X ≤ k)` for `X ~ Binomial(n, p)`.
/// This is the audit's flag test: the Wilson interval (reported in the
/// ledger for display) is miscalibrated near p → 1 — 298 kept of 299 at a
/// mean quote of 0.9997 puts the Wilson upper a hair *below* the quote
/// even though one break in 299 is a ~9% event — while the exact tail
/// flags only counts that are genuinely implausible under the quote.
/// Terms are evaluated in log space, so extreme `n`/`p` underflow to a
/// zero tail instead of poisoning the sum.
pub(crate) fn binomial_cdf(k: u64, n: u64, p: f64) -> f64 {
    if n == 0 || p <= 0.0 || k >= n {
        return 1.0;
    }
    if p >= 1.0 {
        return 0.0; // k < n is certain evidence against p = 1.
    }
    let logit = (p / (1.0 - p)).ln();
    let mut log_pmf = n as f64 * (1.0 - p).ln();
    let mut cdf = log_pmf.exp();
    for i in 0..k {
        log_pmf += ((n - i) as f64 / (i + 1) as f64).ln() + logit;
        cdf += log_pmf.exp();
    }
    cdf.min(1.0)
}

/// One calibration bucket: either a fixed quoted-probability bin or an
/// exact-p group. All counters are over accepted quotes only (a quote
/// never accepted promised nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CalibrationBucket {
    /// Promises made: accepted quotes whose quoted p falls in this bucket.
    pub promised: u64,
    /// Promises kept (job completed at or before its effective deadline).
    pub kept: u64,
    /// Promises broken (job completed late).
    pub broken: u64,
    /// Promises voided by cancellation (excluded from calibration).
    pub cancelled: u64,
    /// Sum of quoted probabilities over kept + broken promises.
    pub sum_quoted: f64,
    /// Sum of `(quoted − outcome)²` over kept + broken promises.
    pub brier_sum: f64,
}

impl CalibrationBucket {
    /// Promises with a calibration verdict (kept + broken).
    pub(crate) fn resolved(&self) -> u64 {
        self.kept + self.broken
    }

    /// Promises still awaiting a terminal event.
    pub fn pending(&self) -> u64 {
        self.promised - self.kept - self.broken - self.cancelled
    }

    /// Observed success rate over resolved promises.
    pub fn observed(&self) -> Option<f64> {
        let n = self.resolved();
        (n > 0).then(|| self.kept as f64 / n as f64)
    }

    /// Mean quoted probability over resolved promises.
    pub fn mean_quoted(&self) -> Option<f64> {
        let n = self.resolved();
        (n > 0).then(|| self.sum_quoted / n as f64)
    }

    /// Reliability residual: observed − mean quoted. Negative means
    /// overconfident.
    pub(crate) fn residual(&self) -> Option<f64> {
        Some(self.observed()? - self.mean_quoted()?)
    }

    /// Mean Brier score over resolved promises (0 is perfect).
    pub fn brier(&self) -> Option<f64> {
        let n = self.resolved();
        (n > 0).then(|| self.brier_sum / n as f64)
    }

    /// Wilson score interval (95 %) of the observed success rate;
    /// `(0.0, 1.0)` when nothing resolved.
    pub fn wilson(&self) -> (f64, f64) {
        wilson_interval(self.kept, self.resolved())
    }

    fn resolve(&mut self, quoted: f64, verdict: PromiseVerdict) {
        match verdict {
            PromiseVerdict::Kept | PromiseVerdict::Broken => {
                let outcome = if verdict == PromiseVerdict::Kept {
                    self.kept += 1;
                    1.0
                } else {
                    self.broken += 1;
                    0.0
                };
                self.sum_quoted += quoted;
                self.brier_sum += (quoted - outcome) * (quoted - outcome);
            }
            PromiseVerdict::Cancelled => self.cancelled += 1,
        }
    }
}

/// The folded calibration ledger: the fixed bins plus one exact-p group
/// per distinct quoted probability. Bucket counts exactly tile the
/// accepted quotes — see [`CalibrationLedger::tiling_holds`].
#[derive(Debug, Clone, Default)]
pub struct CalibrationLedger {
    /// The [`PROMISE_BINS`] fixed bins `[i/10, (i+1)/10)` (last closed
    /// above), indexed by [`promise_bin`].
    pub bins: [CalibrationBucket; PROMISE_BINS],
    /// Exact-p groups, keyed by the quoted probability's bit pattern
    /// (order-preserving for probabilities, which are non-negative).
    pub exact: BTreeMap<u64, CalibrationBucket>,
    /// Total promises made (accepted quotes).
    pub accepted: u64,
}

impl CalibrationLedger {
    /// The half-open bounds of fixed bin `i` (the last bin includes 1.0).
    pub fn bin_bounds(i: usize) -> (f64, f64) {
        (
            i as f64 / PROMISE_BINS as f64,
            (i + 1) as f64 / PROMISE_BINS as f64,
        )
    }

    /// Exact-p groups with their quoted probability, in ascending order.
    pub fn exact_groups(&self) -> impl Iterator<Item = (f64, &CalibrationBucket)> {
        self.exact
            .iter()
            .map(|(bits, b)| (f64::from_bits(*bits), b))
    }

    /// Total promises kept.
    pub(crate) fn kept(&self) -> u64 {
        self.bins.iter().map(|b| b.kept).sum()
    }

    /// Total promises broken.
    pub(crate) fn broken(&self) -> u64 {
        self.bins.iter().map(|b| b.broken).sum()
    }

    /// Total promises voided by cancellation.
    pub(crate) fn cancelled(&self) -> u64 {
        self.bins.iter().map(|b| b.cancelled).sum()
    }

    /// Total promises awaiting a terminal event.
    pub(crate) fn pending(&self) -> u64 {
        self.bins.iter().map(|b| b.pending()).sum()
    }

    /// The tiling invariant: every accepted quote lands in exactly one
    /// fixed bin and exactly one exact-p group, and
    /// `kept + broken + cancelled + pending == promised` in each bucket
    /// and in total. The fold maintains this by construction; the
    /// property suite asserts it over randomized journals.
    pub fn tiling_holds(&self) -> bool {
        let fixed: u64 = self.bins.iter().map(|b| b.promised).sum();
        let exact: u64 = self.exact.values().map(|b| b.promised).sum();
        fixed == self.accepted
            && exact == self.accepted
            && self
                .bins
                .iter()
                .chain(self.exact.values())
                .all(|b| b.kept + b.broken + b.cancelled + b.pending() == b.promised)
    }

    fn record_promise(&mut self, quoted: f64) {
        self.accepted += 1;
        self.bins[promise_bin(quoted)].promised += 1;
        self.exact.entry(quoted.to_bits()).or_default().promised += 1;
    }

    fn record_verdict(&mut self, quoted: f64, verdict: PromiseVerdict) {
        self.bins[promise_bin(quoted)].resolve(quoted, verdict);
        self.exact
            .entry(quoted.to_bits())
            .or_default()
            .resolve(quoted, verdict);
    }

    /// Renders the ledger as an aligned table: the occupied fixed bins
    /// followed by the exact-p groups.
    pub fn render(&self) -> String {
        let mut table = Table::new(
            [
                "bucket",
                "promised",
                "kept",
                "broken",
                "cancel",
                "pending",
                "observed",
                "quoted",
                "wilson_lo",
                "wilson_hi",
                "residual",
                "brier",
            ]
            .map(String::from)
            .to_vec(),
        );
        let fmt = |v: Option<f64>| v.map_or_else(|| "-".into(), |v| format!("{v:.4}"));
        let mut push = |label: String, b: &CalibrationBucket| {
            let (lo, hi) = b.wilson();
            let wilson = if b.resolved() > 0 {
                (format!("{lo:.4}"), format!("{hi:.4}"))
            } else {
                ("-".into(), "-".into())
            };
            table.row(vec![
                label,
                b.promised.to_string(),
                b.kept.to_string(),
                b.broken.to_string(),
                b.cancelled.to_string(),
                b.pending().to_string(),
                fmt(b.observed()),
                fmt(b.mean_quoted()),
                wilson.0,
                wilson.1,
                fmt(b.residual()),
                fmt(b.brier()),
            ]);
        };
        for (i, b) in self.bins.iter().enumerate() {
            if b.promised == 0 {
                continue;
            }
            let (lo, hi) = Self::bin_bounds(i);
            push(format!("[{lo:.1},{hi:.1})"), b);
        }
        for (p, b) in self.exact_groups() {
            push(format!("p={p}"), b);
        }
        format!(
            "{}\n{} promised, {} kept, {} broken, {} cancelled, {} pending\n",
            table.render().trim_end(),
            self.accepted,
            self.kept(),
            self.broken(),
            self.cancelled(),
            self.pending()
        )
    }
}

/// What [`audit`] returns: the folded ledger and the findings report.
#[derive(Debug, Clone, Default)]
pub struct AuditOutcome {
    /// The calibration ledger.
    pub ledger: CalibrationLedger,
    /// Audit findings (ledger gaps, unresolved promises, miscalibrated
    /// buckets), in the doctor's machine-readable shape.
    pub report: DoctorReport,
}

/// One outstanding promise while folding.
#[derive(Debug, Clone, Copy)]
struct OpenPromise {
    quoted: f64,
    terminal_at: Option<u64>,
}

/// Folds a journal into a calibration ledger and audits it.
///
/// Unparseable lines are skipped (they are `pqos-doctor check`'s
/// department); the audit joins `quote_negotiated` to `promise_resolved`
/// per job, tallies verdicts into the bucket of the *quoted* probability
/// (so the tiling invariant survives even a corrupt restatement, which is
/// flagged as `ledger_gap`), and closes with the per-bucket
/// Wilson-bound calibration checks.
pub fn audit(journal: impl BufRead) -> std::io::Result<AuditOutcome> {
    let mut fold = AuditFold::default();
    for line in journal.lines() {
        fold.feed_line(&line?);
    }
    Ok(fold.finish())
}

/// [`audit`] over an in-memory journal string.
pub fn audit_str(journal: &str) -> AuditOutcome {
    audit(journal.as_bytes()).expect("in-memory reads cannot fail")
}

/// The streaming fold behind [`audit`]. Feed lines or events, then call
/// [`AuditFold::finish`].
#[derive(Debug, Default)]
pub(crate) struct AuditFold {
    outcome: AuditOutcome,
    /// job → outstanding promise (accepted quote awaiting resolution).
    open: HashMap<u64, OpenPromise>,
    /// job → quoted p of an already-resolved promise (duplicate detection).
    closed: HashMap<u64, f64>,
}

impl AuditFold {
    /// Feeds one raw journal line.
    pub(crate) fn feed_line(&mut self, line: &str) {
        self.outcome.report.lines += 1;
        if line.trim().is_empty() {
            return;
        }
        if let Some(event) = TelemetryEvent::from_jsonl(line) {
            self.feed(&event);
        }
    }

    /// Feeds one already-parsed event.
    pub(crate) fn feed(&mut self, event: &TelemetryEvent) {
        self.outcome.report.events += 1;
        match event {
            TelemetryEvent::QuoteNegotiated {
                job,
                success_probability,
                ..
            } => {
                if self.open.contains_key(job) || self.closed.contains_key(job) {
                    self.gap(
                        Some(event.at().as_secs()),
                        *job,
                        format!("job {job} made a second promise; one lifecycle makes one"),
                    );
                    return;
                }
                self.open.insert(
                    *job,
                    OpenPromise {
                        quoted: *success_probability,
                        terminal_at: None,
                    },
                );
                self.outcome.ledger.record_promise(*success_probability);
            }
            TelemetryEvent::JobCompleted { job, at, .. }
            | TelemetryEvent::JobCancelled { job, at, .. } => {
                if let Some(p) = self.open.get_mut(job) {
                    p.terminal_at = Some(at.as_secs());
                }
            }
            TelemetryEvent::PromiseResolved {
                job,
                success_probability,
                verdict,
                at,
                ..
            } => {
                let Some(promise) = self.open.remove(job) else {
                    let detail = if self.closed.contains_key(job) {
                        format!("job {job}'s promise resolved twice")
                    } else {
                        format!("job {job} resolved a promise no accepted quote made")
                    };
                    self.gap(Some(at.as_secs()), *job, detail);
                    return;
                };
                if promise.quoted != *success_probability {
                    self.gap(
                        Some(at.as_secs()),
                        *job,
                        format!(
                            "job {job} resolved quoting p={success_probability} but the quote \
                             promised p={}",
                            promise.quoted
                        ),
                    );
                }
                // Tally under the quote's own p so buckets keep tiling.
                self.outcome.ledger.record_verdict(promise.quoted, *verdict);
                self.closed.insert(*job, promise.quoted);
            }
            _ => {}
        }
    }

    /// Ends the stream: reports promises whose job terminated without a
    /// resolution, then runs the per-bucket calibration checks.
    pub(crate) fn finish(mut self) -> AuditOutcome {
        let mut unresolved: Vec<(u64, u64)> = self
            .open
            .iter()
            .filter_map(|(job, p)| p.terminal_at.map(|at| (*job, at)))
            .collect();
        unresolved.sort_unstable();
        for (job, at) in unresolved {
            self.outcome.report.findings.push(Finding {
                code: CODE_UNRESOLVED,
                severity: Severity::Error,
                line: 0,
                at: Some(at),
                job: Some(job),
                node: None,
                detail: format!(
                    "job {job} terminated at t={at} but its promise was never resolved"
                ),
            });
        }
        let mut calibration: Vec<Finding> = Vec::new();
        // Bonferroni-correct across every bucket the audit tests: a
        // journal of oracle quotes makes hundreds of n = 1 exact-p
        // groups, and at a fixed 2.5% per bucket a perfectly calibrated
        // daemon would accumulate false alarms with journal size. The
        // corrected threshold keeps the *family-wise* false-alarm rate at
        // 2.5% per side; real corruption concentrates in the fixed bins,
        // whose tails shrink geometrically with every flipped verdict.
        let tested = self
            .outcome
            .ledger
            .bins
            .iter()
            .filter(|b| b.resolved() > 0)
            .count()
            + self
                .outcome
                .ledger
                .exact_groups()
                .filter(|(_, b)| b.resolved() > 0)
                .count();
        let threshold = 0.025 / tested.max(1) as f64;
        let mut check = |label: String, b: &CalibrationBucket| {
            let (Some(quoted), n) = (b.mean_quoted(), b.resolved()) else {
                return;
            };
            // One-sided exact binomial tail tests at the bucket's own
            // mean quote; 2.5% per side (before correction) matches the
            // z = 1.96 Wilson interval the ledger reports (see
            // [`binomial_cdf`] for why the flag does not reuse that
            // interval directly).
            let below = binomial_cdf(b.kept, n, quoted);
            if below < threshold {
                calibration.push(Finding {
                    code: CODE_OVERCONFIDENT,
                    severity: Severity::Error,
                    line: 0,
                    at: None,
                    job: None,
                    node: None,
                    detail: format!(
                        "bucket {label}: kept {}/{n} promises at mean quoted probability \
                         {quoted:.4} — a count this low has probability {below:.2e} under the \
                         quotes (threshold {threshold:.2e}); the daemon promised more than it \
                         delivered",
                        b.kept
                    ),
                });
                return;
            }
            let above = if b.kept == 0 {
                1.0
            } else {
                1.0 - binomial_cdf(b.kept - 1, n, quoted)
            };
            if above < threshold {
                calibration.push(Finding {
                    code: CODE_UNDERCONFIDENT,
                    severity: Severity::Warning,
                    line: 0,
                    at: None,
                    job: None,
                    node: None,
                    detail: format!(
                        "bucket {label}: kept {}/{n} promises at mean quoted probability \
                         {quoted:.4} — a count this high has probability {above:.2e} under the \
                         quotes (threshold {threshold:.2e}); the quoting model is under-selling",
                        b.kept
                    ),
                });
            }
        };
        for (i, b) in self.outcome.ledger.bins.iter().enumerate() {
            let (lo, hi) = CalibrationLedger::bin_bounds(i);
            check(format!("[{lo:.1},{hi:.1})"), b);
        }
        for (p, b) in self.outcome.ledger.exact_groups() {
            check(format!("p={p}"), b);
        }
        self.outcome.report.findings.extend(calibration);
        debug_assert!(self.outcome.ledger.tiling_holds());
        self.outcome
    }

    fn gap(&mut self, at: Option<u64>, job: u64, detail: String) {
        let line = self.outcome.report.lines.max(self.outcome.report.events);
        self.outcome.report.findings.push(Finding {
            code: CODE_LEDGER_GAP,
            severity: Severity::Error,
            line,
            at,
            job: Some(job),
            node: None,
            detail,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqos_sim_core::time::SimTime;
    use pqos_telemetry::PromiseVerdict as V;
    use pqos_telemetry::TelemetryEvent as E;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn quote(job: u64, p: f64) -> E {
        E::QuoteNegotiated {
            at: t(job),
            job,
            start_secs: job,
            promised_secs: 1000 + job,
            deadline_secs: 1000 + job,
            success_probability: p,
        }
    }

    fn complete(job: u64, met: bool) -> E {
        E::JobCompleted {
            at: t(2000 + job),
            job,
            met_deadline: met,
        }
    }

    fn resolve(job: u64, p: f64, verdict: V) -> E {
        E::PromiseResolved {
            at: t(2000 + job),
            job,
            success_probability: p,
            deadline_secs: 1000 + job,
            verdict,
        }
    }

    fn audit_events(events: &[E]) -> AuditOutcome {
        let journal: String = events.iter().map(|e| e.to_jsonl() + "\n").collect();
        audit_str(&journal)
    }

    #[test]
    fn a_kept_promise_lands_in_its_bin_and_exact_group() {
        let out = audit_events(&[quote(1, 0.95), complete(1, true), resolve(1, 0.95, V::Kept)]);
        assert!(out.report.is_clean(), "{}", out.report.render());
        let bin = &out.ledger.bins[9];
        assert_eq!((bin.promised, bin.kept, bin.broken), (1, 1, 0));
        assert_eq!(bin.pending(), 0);
        let (p, exact) = out.ledger.exact_groups().next().unwrap();
        assert_eq!(p, 0.95);
        assert_eq!(exact.kept, 1);
        assert!(out.ledger.tiling_holds());
    }

    #[test]
    fn pending_and_cancelled_promises_keep_the_tiling() {
        let out = audit_events(&[
            quote(1, 0.8),
            quote(2, 0.8),
            quote(3, 0.8),
            E::JobCancelled { at: t(10), job: 2 },
            resolve(2, 0.8, V::Cancelled),
            complete(3, true),
            resolve(3, 0.8, V::Kept),
            // Job 1 never terminates: pending, not a finding.
        ]);
        assert!(out.report.is_clean(), "{}", out.report.render());
        let bin = &out.ledger.bins[8];
        assert_eq!(bin.promised, 3);
        assert_eq!(bin.kept, 1);
        assert_eq!(bin.cancelled, 1);
        assert_eq!(bin.pending(), 1);
        assert!(out.ledger.tiling_holds());
        assert_eq!(out.ledger.pending(), 1);
    }

    #[test]
    fn a_terminated_job_without_resolution_is_flagged() {
        let out = audit_events(&[quote(1, 0.9), complete(1, true)]);
        let f = out
            .report
            .findings
            .iter()
            .find(|f| f.code == CODE_UNRESOLVED)
            .expect("unresolved promise flagged");
        assert_eq!(f.job, Some(1));
        assert_eq!(f.severity, Severity::Error);
    }

    #[test]
    fn unjoinable_resolutions_are_ledger_gaps() {
        // Resolution with no promise.
        let out = audit_events(&[resolve(7, 0.9, V::Kept)]);
        assert!(out
            .report
            .findings
            .iter()
            .any(|f| f.code == CODE_LEDGER_GAP));

        // Duplicate resolution.
        let out = audit_events(&[
            quote(1, 0.9),
            complete(1, true),
            resolve(1, 0.9, V::Kept),
            resolve(1, 0.9, V::Kept),
        ]);
        let gaps: Vec<_> = out
            .report
            .findings
            .iter()
            .filter(|f| f.code == CODE_LEDGER_GAP)
            .collect();
        assert_eq!(gaps.len(), 1);
        assert!(gaps[0].detail.contains("twice"));

        // Restating a different probability than the quote promised.
        let out = audit_events(&[quote(1, 0.9), complete(1, true), resolve(1, 0.5, V::Kept)]);
        assert!(out
            .report
            .findings
            .iter()
            .any(|f| f.code == CODE_LEDGER_GAP));
        // The verdict still tallies — under the quote's own p.
        assert_eq!(out.ledger.bins[9].kept, 1);
        assert!(out.ledger.tiling_holds());
    }

    #[test]
    fn an_overconfident_bucket_fails_the_audit() {
        // 20 promises at p = 0.95, only 4 kept: the Wilson upper bound of
        // 4/20 is far below 0.95.
        let mut events = Vec::new();
        for job in 0..20u64 {
            events.push(quote(job, 0.95));
        }
        for job in 0..20u64 {
            let met = job < 4;
            events.push(complete(job, met));
            events.push(resolve(job, 0.95, if met { V::Kept } else { V::Broken }));
        }
        let out = audit_events(&events);
        assert!(out.report.errors() > 0);
        let f = out
            .report
            .findings
            .iter()
            .find(|f| f.code == CODE_OVERCONFIDENT)
            .expect("overconfidence flagged");
        assert!(f.detail.contains("0.95"), "{}", f.detail);
    }

    #[test]
    fn perfectly_kept_p1_promises_never_flag() {
        // The NullPredictor daemon's case: every quote at p = 1.0, every
        // promise kept. Wilson upper must be exactly 1.0, not 1 − ε.
        let mut events = Vec::new();
        for job in 0..50u64 {
            events.push(quote(job, 1.0));
            events.push(complete(job, true));
            events.push(resolve(job, 1.0, V::Kept));
        }
        let out = audit_events(&events);
        assert!(out.report.is_clean(), "{}", out.report.render());
        assert_eq!(out.ledger.bins[9].wilson().1, 1.0);
    }

    #[test]
    fn sandbagged_quotes_warn_underconfident() {
        // 50 promises at p = 0.05 that all complete on time.
        let mut events = Vec::new();
        for job in 0..50u64 {
            events.push(quote(job, 0.05));
            events.push(complete(job, true));
            events.push(resolve(job, 0.05, V::Kept));
        }
        let out = audit_events(&events);
        assert_eq!(out.report.errors(), 0);
        assert!(out
            .report
            .findings
            .iter()
            .any(|f| f.code == CODE_UNDERCONFIDENT));
    }

    #[test]
    fn one_break_in_many_near_certain_quotes_is_not_overconfident() {
        // 299 promises at p = 0.999, one broken. The Wilson upper bound
        // of 298/299 sits below 0.999, but a single break is a ~26%
        // event under the quotes — the exact tail must not flag it.
        let mut events = Vec::new();
        for job in 0..299u64 {
            let met = job != 7;
            events.push(quote(job, 0.999));
            events.push(complete(job, met));
            events.push(resolve(job, 0.999, if met { V::Kept } else { V::Broken }));
        }
        let out = audit_events(&events);
        assert!(out.report.is_clean(), "{}", out.report.render());
    }

    #[test]
    fn binomial_cdf_shapes() {
        assert_eq!(binomial_cdf(10, 10, 0.3), 1.0);
        assert_eq!(binomial_cdf(0, 0, 0.5), 1.0);
        assert_eq!(binomial_cdf(5, 10, 1.0), 0.0);
        assert_eq!(binomial_cdf(0, 10, 0.0), 1.0);
        // P(X ≤ 50 | n=100, p=0.5) ≈ 0.5398.
        let mid = binomial_cdf(50, 100, 0.5);
        assert!((mid - 0.5398).abs() < 1e-3, "{mid}");
        // P(X ≤ 0 | n=1, p=0.918) ≈ 0.082: one broken near-certain
        // promise is rare but not 2.5%-rare.
        let one = binomial_cdf(0, 1, 0.918);
        assert!((one - 0.082).abs() < 1e-9, "{one}");
        // Deep tails underflow to ~0 instead of NaN.
        let deep = binomial_cdf(4, 20, 0.95);
        assert!(deep > 0.0 && deep < 1e-10, "{deep}");
    }

    #[test]
    fn wilson_interval_shapes() {
        assert_eq!(wilson_interval(0, 0), (0.0, 1.0));
        assert_eq!(wilson_interval(10, 10).1, 1.0);
        assert_eq!(wilson_interval(0, 10).0, 0.0);
        let (lo, hi) = wilson_interval(50, 100);
        assert!(lo < 0.5 && 0.5 < hi);
        assert!(hi - lo < 0.25, "interval is reasonably tight at n=100");
        // Tighter with more data.
        let (lo2, hi2) = wilson_interval(500, 1000);
        assert!(hi2 - lo2 < hi - lo);
    }

    #[test]
    fn brier_and_residual_are_per_bucket_means() {
        let out = audit_events(&[
            quote(1, 0.8),
            complete(1, true),
            resolve(1, 0.8, V::Kept),
            quote(2, 0.8),
            complete(2, false),
            resolve(2, 0.8, V::Broken),
        ]);
        let bin = &out.ledger.bins[8];
        assert_eq!(bin.observed(), Some(0.5));
        assert!((bin.mean_quoted().unwrap() - 0.8).abs() < 1e-12);
        assert!((bin.residual().unwrap() + 0.3).abs() < 1e-12);
        // Brier: ((0.8-1)² + (0.8-0)²) / 2 = (0.04 + 0.64) / 2 = 0.34.
        assert!((bin.brier().unwrap() - 0.34).abs() < 1e-12);
    }

    #[test]
    fn render_lists_occupied_bins_and_exact_groups() {
        let out = audit_events(&[quote(1, 0.95), complete(1, true), resolve(1, 0.95, V::Kept)]);
        let text = out.ledger.render();
        assert!(text.contains("[0.9,1.0)"), "{text}");
        assert!(text.contains("p=0.95"), "{text}");
        assert!(text.contains("1 promised, 1 kept"), "{text}");
    }
}
