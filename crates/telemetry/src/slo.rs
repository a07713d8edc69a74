//! Deterministic SLO evaluation over fixed-width virtual-time windows.
//!
//! The pieces here are deliberately split so the *same* evaluator runs in
//! three places and provably produces the same alerts:
//!
//! - the live daemon (`pqos-qosd --slo ...`), draining at each engine tick,
//! - `pqos-replay`, draining at the same recorded tick boundaries,
//! - `pqos-doctor slo`, re-deriving alerts from a finished journal.
//!
//! [`SloAccum`] folds journal events into per-window counts. Folding is
//! commutative (counts only), so the cross-shard emission order — the one
//! nondeterministic input — cannot change the result. Windows are *closed*
//! only at explicit drain points with a virtual-time limit, never from the
//! observation path, and a window that saw no events is never materialized
//! and therefore never evaluated ("empty windows are neutral"). Those two
//! rules are what make the three consumers agree byte-for-byte.
//!
//! [`SloEngine`] holds the per-rule state machines. A rule like
//! `tight:reject_ratio<=0.2@3/12` reads: over the last 12 *evaluable*
//! windows, fire when at least 3 violated `reject_ratio <= 0.2`, resolve
//! when the count drops back below 3. `@N` without `/OVER` is an N-of-N
//! streak. The `NEED/OVER` form is a discrete burn-rate budget: the window
//! ring is the budget period and `NEED` the tolerated burn.

use crate::event::{AlertState, TelemetryEvent};
use crate::journal::EventSink;
use crate::wire_enum;
use pqos_sim_core::time::SimTime;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Default window width in virtual seconds.
pub const DEFAULT_WINDOW_SECS: u64 = 60;

/// Per-window event counts: everything the SLO metrics are derived from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowCounts {
    /// `job_submitted` events.
    pub submits: u64,
    /// `quote_negotiated` events.
    pub quotes: u64,
    /// `job_rejected` events.
    pub rejects: u64,
    /// `job_completed` events.
    pub completions: u64,
    /// `deadline_missed` events.
    pub deadline_misses: u64,
    /// Promises resolved `kept`.
    pub promise_kept: u64,
    /// Promises resolved `broken`.
    pub promise_broken: u64,
    /// `node_failed` events.
    pub failures: u64,
    /// `job_requeued` events.
    pub requeues: u64,
    /// `job_cancelled` events.
    pub cancellations: u64,
}

wire_enum! {
    /// A health metric derived from one window's counts; its wire name is
    /// what a rule spec says.
    pub enum Metric {
        /// Jobs submitted in the window.
        Submits = "submits",
        /// Quotes negotiated in the window.
        Quotes = "quotes",
        /// Jobs rejected in the window.
        Rejects = "rejects",
        /// `rejects / (quotes + rejects)`; no-data when no negotiation ended.
        RejectRatio = "reject_ratio",
        /// Jobs completed in the window.
        Completions = "completions",
        /// Deadlines missed in the window.
        DeadlineMisses = "deadline_misses",
        /// `deadline_misses / completions`; no-data when nothing completed.
        DeadlineMissRatio = "deadline_miss_ratio",
        /// Promises kept in the window.
        PromiseKept = "promise_kept",
        /// Promises broken in the window.
        PromiseBroken = "promise_broken",
        /// `kept / (kept + broken)`; no-data when no promise resolved.
        PromiseReliability = "promise_reliability",
        /// Node failures in the window.
        Failures = "failures",
        /// Jobs requeued in the window.
        Requeues = "requeues",
        /// Jobs cancelled in the window.
        Cancellations = "cancellations",
    }
}

impl Metric {
    /// The metric's value over one window, or `None` when the window
    /// carries no data for it (ratio with a zero denominator). Count
    /// metrics are always defined for a materialized window.
    pub(crate) fn value(self, c: &WindowCounts) -> Option<f64> {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                None
            } else {
                Some(num as f64 / den as f64)
            }
        };
        match self {
            Metric::Submits => Some(c.submits as f64),
            Metric::Quotes => Some(c.quotes as f64),
            Metric::Rejects => Some(c.rejects as f64),
            Metric::RejectRatio => ratio(c.rejects, c.quotes + c.rejects),
            Metric::Completions => Some(c.completions as f64),
            Metric::DeadlineMisses => Some(c.deadline_misses as f64),
            Metric::DeadlineMissRatio => ratio(c.deadline_misses, c.completions),
            Metric::PromiseKept => Some(c.promise_kept as f64),
            Metric::PromiseBroken => Some(c.promise_broken as f64),
            Metric::PromiseReliability => ratio(c.promise_kept, c.promise_kept + c.promise_broken),
            Metric::Failures => Some(c.failures as f64),
            Metric::Requeues => Some(c.requeues as f64),
            Metric::Cancellations => Some(c.cancellations as f64),
        }
    }
}

/// Comparison operator of a rule: the *healthy* direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    /// Healthy when value `<` threshold.
    Lt,
    /// Healthy when value `<=` threshold.
    Le,
    /// Healthy when value `>` threshold.
    Gt,
    /// Healthy when value `>=` threshold.
    Ge,
}

impl Cmp {
    /// True when `value` satisfies the healthy direction.
    pub(crate) fn holds(self, value: f64, threshold: f64) -> bool {
        match self {
            Cmp::Lt => value < threshold,
            Cmp::Le => value <= threshold,
            Cmp::Gt => value > threshold,
            Cmp::Ge => value >= threshold,
        }
    }
}

/// One declarative SLO rule, parsed from
/// `NAME:METRIC{<,<=,>,>=}VALUE@NEED[/OVER]`.
///
/// Examples: `tight:reject_ratio<=0.2@3` (three consecutive evaluable
/// windows over 0.2 fire), `budget:promise_reliability>=0.9@3/12`
/// (three violations anywhere in the last twelve evaluable windows fire).
#[derive(Debug, Clone, PartialEq)]
pub struct SloRule {
    /// Alert name, as journaled.
    pub name: String,
    /// Metric the rule watches.
    pub metric: Metric,
    /// Healthy direction.
    pub cmp: Cmp,
    /// Threshold the metric is held to.
    pub threshold: f64,
    /// Violations required to fire (and below which a firing rule
    /// resolves).
    pub need: u32,
    /// Evaluable windows the violation ring remembers; `need` when the
    /// spec had no `/OVER`.
    pub over: u32,
    /// The original spec text, for traces and `--help` echoes.
    pub spec: String,
}

/// Parses one rule spec; `Err` carries a human-readable reason.
pub fn parse_rule(spec: &str) -> Result<SloRule, String> {
    let bad = |why: &str| Err(format!("bad SLO rule {spec:?}: {why}"));
    let Some((name, rest)) = spec.split_once(':') else {
        return bad("expected NAME:METRIC{<,<=,>,>=}VALUE@NEED[/OVER]");
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        return bad("name must be nonempty [A-Za-z0-9_-]");
    }
    let op_at = match rest.find(['<', '>']) {
        Some(i) => i,
        None => return bad("missing comparison operator"),
    };
    let Some(metric) = Metric::parse(&rest[..op_at]) else {
        return bad("unknown metric");
    };
    let after = &rest[op_at..];
    let (cmp, value_part) = if let Some(v) = after.strip_prefix("<=") {
        (Cmp::Le, v)
    } else if let Some(v) = after.strip_prefix(">=") {
        (Cmp::Ge, v)
    } else if let Some(v) = after.strip_prefix('<') {
        (Cmp::Lt, v)
    } else if let Some(v) = after.strip_prefix('>') {
        (Cmp::Gt, v)
    } else {
        return bad("missing comparison operator");
    };
    let Some((value_s, win_s)) = value_part.split_once('@') else {
        return bad("missing @NEED window clause");
    };
    let Ok(threshold) = value_s.parse::<f64>() else {
        return bad("threshold is not a number");
    };
    if !threshold.is_finite() {
        return bad("threshold must be finite");
    }
    let (need_s, over_s) = match win_s.split_once('/') {
        Some((n, o)) => (n, Some(o)),
        None => (win_s, None),
    };
    let Ok(need) = need_s.parse::<u32>() else {
        return bad("NEED is not an integer");
    };
    if need == 0 {
        return bad("NEED must be >= 1");
    }
    let over = match over_s {
        Some(o) => match o.parse::<u32>() {
            Ok(v) if v >= need => v,
            Ok(_) => return bad("OVER must be >= NEED"),
            Err(_) => return bad("OVER is not an integer"),
        },
        None => need,
    };
    Ok(SloRule {
        name: name.to_string(),
        metric,
        cmp,
        threshold,
        need,
        over,
        spec: spec.to_string(),
    })
}

/// Commutative per-window event accumulator, shared between the telemetry
/// sinks (any thread) and the drain point (the engine thread).
///
/// Windows are keyed by `at / width`; a window only exists once an event
/// relevant to some [`Metric`] lands in it.
#[derive(Debug)]
pub struct SloAccum {
    width: u64,
    windows: Mutex<BTreeMap<u64, WindowCounts>>,
}

impl SloAccum {
    /// A fresh accumulator with the given window width (clamped to >= 1s).
    pub fn new(width_secs: u64) -> Self {
        SloAccum {
            width: width_secs.max(1),
            windows: Mutex::new(BTreeMap::new()),
        }
    }

    /// Window width in virtual seconds.
    pub(crate) fn width_secs(&self) -> u64 {
        self.width
    }

    /// Folds one event into its window. Only count-bearing lifecycle
    /// events materialize a window; everything else (placements, starts,
    /// checkpoints, recoveries, alerts themselves) is ignored so that a
    /// window's existence — and therefore its evaluation — does not depend
    /// on bookkeeping noise.
    pub fn observe(&self, event: &TelemetryEvent) {
        use crate::event::PromiseVerdict as V;
        use TelemetryEvent as E;
        let bump = |f: fn(&mut WindowCounts)| {
            let idx = event.at().as_secs() / self.width;
            let mut windows = self.windows.lock().expect("slo windows poisoned");
            f(windows.entry(idx).or_default());
        };
        match event {
            E::JobSubmitted { .. } => bump(|c| c.submits += 1),
            E::QuoteNegotiated { .. } => bump(|c| c.quotes += 1),
            E::JobRejected { .. } => bump(|c| c.rejects += 1),
            E::JobCompleted { .. } => bump(|c| c.completions += 1),
            E::DeadlineMissed { .. } => bump(|c| c.deadline_misses += 1),
            E::PromiseResolved { verdict, .. } => match verdict {
                V::Kept => bump(|c| c.promise_kept += 1),
                V::Broken => bump(|c| c.promise_broken += 1),
                V::Cancelled => {}
            },
            E::NodeFailed { .. } => bump(|c| c.failures += 1),
            E::JobRequeued { .. } => bump(|c| c.requeues += 1),
            E::JobCancelled { .. } => bump(|c| c.cancellations += 1),
            E::JobPlaced { .. }
            | E::JobStarted { .. }
            | E::CheckpointRequested { .. }
            | E::CheckpointTaken { .. }
            | E::CheckpointSkipped { .. }
            | E::NodeRecovered { .. }
            | E::SloAlert { .. } => {}
        }
    }

    /// Removes and returns every materialized window whose end boundary is
    /// at or before `limit_secs`, in ascending window order.
    pub(crate) fn take_closed(&self, limit_secs: u64) -> Vec<(u64, WindowCounts)> {
        let mut windows = self.windows.lock().expect("slo windows poisoned");
        // Window idx covers [idx*width, (idx+1)*width); it is closed when
        // (idx+1)*width <= limit, i.e. idx < limit/width.
        let open = windows.split_off(&(limit_secs / self.width));
        let closed = std::mem::replace(&mut *windows, open);
        closed.into_iter().collect()
    }
}

/// An [`EventSink`] adapter feeding a shared [`SloAccum`].
///
/// Reports zero `written()` on purpose: it observes events that another
/// sink journals; counting them here would double them in
/// [`SinkHealth`](crate::SinkHealth).
pub struct SloSink(pub Arc<SloAccum>);

impl EventSink for SloSink {
    fn record(&mut self, event: &TelemetryEvent) {
        self.0.observe(event);
    }
}

#[derive(Debug, Clone)]
struct RuleState {
    /// Violation bits of the last `over` evaluable windows, oldest first.
    ring: Vec<bool>,
    firing: bool,
}

/// The per-rule alert state machines. Owned by whoever drives drains (the
/// engine thread, a replay, or the doctor) — not shared, not locked.
#[derive(Debug, Clone)]
pub struct SloEngine {
    rules: Vec<SloRule>,
    states: Vec<RuleState>,
    /// Windows closed across all drains.
    pub windows_closed: u64,
    /// Fire transitions emitted.
    pub fired_total: u64,
    /// Resolve transitions emitted.
    pub resolved_total: u64,
}

impl SloEngine {
    /// An engine over the given rules; rule order is evaluation (and
    /// alert emission) order.
    pub fn new(rules: Vec<SloRule>) -> Self {
        let states = rules
            .iter()
            .map(|_| RuleState {
                ring: Vec::new(),
                firing: false,
            })
            .collect();
        SloEngine {
            rules,
            states,
            windows_closed: 0,
            fired_total: 0,
            resolved_total: 0,
        }
    }

    /// The rules, in evaluation order.
    pub fn rules(&self) -> &[SloRule] {
        &self.rules
    }

    /// Rules currently in the fired state, in rule order.
    pub fn firing(&self) -> Vec<&str> {
        self.rules
            .iter()
            .zip(&self.states)
            .filter(|(_, s)| s.firing)
            .map(|(r, _)| r.name.as_str())
            .collect()
    }

    /// Number of rules currently firing.
    pub fn active_alerts(&self) -> u64 {
        self.states.iter().filter(|s| s.firing).count() as u64
    }

    /// Closes every window with end `<= now_secs` and runs each rule over
    /// it, returning the alert events to journal — `at = now_secs` (the
    /// tick time; journals are time-ordered and the window boundary is
    /// carried in the payload), ordered window-ascending then rule-order.
    pub fn drain(&mut self, accum: &SloAccum, now_secs: u64) -> Vec<TelemetryEvent> {
        let width = accum.width_secs();
        let mut alerts = Vec::new();
        for (idx, counts) in accum.take_closed(now_secs) {
            self.windows_closed += 1;
            let window_end_secs = (idx + 1).saturating_mul(width);
            for (rule, state) in self.rules.iter().zip(self.states.iter_mut()) {
                let Some(value) = rule.metric.value(&counts) else {
                    continue; // no data for this metric: neutral
                };
                let violated = !rule.cmp.holds(value, rule.threshold);
                state.ring.push(violated);
                let excess = state.ring.len().saturating_sub(rule.over as usize);
                if excess > 0 {
                    state.ring.drain(..excess);
                }
                let violations = state.ring.iter().filter(|v| **v).count() as u32;
                let transition = if !state.firing && violations >= rule.need {
                    state.firing = true;
                    self.fired_total += 1;
                    Some(AlertState::Fire)
                } else if state.firing && violations < rule.need {
                    state.firing = false;
                    self.resolved_total += 1;
                    Some(AlertState::Resolve)
                } else {
                    None
                };
                if let Some(alert_state) = transition {
                    alerts.push(TelemetryEvent::SloAlert {
                        at: SimTime::from_secs(now_secs),
                        rule: rule.name.clone(),
                        state: alert_state,
                        window_end_secs,
                        value,
                        threshold: rule.threshold,
                    });
                }
            }
        }
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev_reject(at: u64) -> TelemetryEvent {
        TelemetryEvent::JobRejected {
            at: SimTime::from_secs(at),
            job: 1,
        }
    }

    fn ev_quote(at: u64) -> TelemetryEvent {
        TelemetryEvent::QuoteNegotiated {
            at: SimTime::from_secs(at),
            job: 1,
            start_secs: at,
            promised_secs: at + 100,
            deadline_secs: at + 100,
            success_probability: 0.9,
        }
    }

    fn ev_promise(at: u64, kept: bool) -> TelemetryEvent {
        TelemetryEvent::PromiseResolved {
            at: SimTime::from_secs(at),
            job: 1,
            success_probability: 0.9,
            deadline_secs: at,
            verdict: if kept {
                crate::PromiseVerdict::Kept
            } else {
                crate::PromiseVerdict::Broken
            },
        }
    }

    #[test]
    fn parse_rule_round_trips_the_grammar() {
        let r = parse_rule("tight:reject_ratio<=0.2@3").unwrap();
        assert_eq!(r.name, "tight");
        assert_eq!(r.metric, Metric::RejectRatio);
        assert_eq!(r.cmp, Cmp::Le);
        assert_eq!(r.threshold, 0.2);
        assert_eq!((r.need, r.over), (3, 3));

        let r = parse_rule("budget:promise_reliability>=0.9@3/12").unwrap();
        assert_eq!(r.metric, Metric::PromiseReliability);
        assert_eq!(r.cmp, Cmp::Ge);
        assert_eq!((r.need, r.over), (3, 12));

        let r = parse_rule("f:failures>0.5@1").unwrap();
        assert_eq!(r.cmp, Cmp::Gt);
        let r = parse_rule("m:deadline_misses<2@2/4").unwrap();
        assert_eq!(r.cmp, Cmp::Lt);
    }

    #[test]
    fn metric_wire_names_round_trip() {
        let names: std::collections::BTreeSet<&str> =
            Metric::ALL.iter().map(|m| m.as_str()).collect();
        assert_eq!(names.len(), Metric::ALL.len(), "names are distinct");
        for m in Metric::ALL {
            assert_eq!(Metric::parse(m.as_str()), Some(m));
            // And every name survives the rule grammar around it.
            let rule = parse_rule(&format!("r:{}<=1@1", m.as_str())).unwrap();
            assert_eq!(rule.metric, m);
        }
        assert_eq!(Metric::parse("bogus"), None);
        assert_eq!(Metric::parse(""), None);
    }

    #[test]
    fn parse_rule_rejects_malformed_specs() {
        for bad in [
            "",
            "noname",
            ":rejects<=0@1",
            "x:unknown<=0@1",
            "x:rejects@1",
            "x:rejects<=abc@1",
            "x:rejects<=inf@1",
            "x:rejects<=0",
            "x:rejects<=0@0",
            "x:rejects<=0@3/2",
            "x:rejects<=0@a",
            "x:rejects<=0@1/b",
            "bad name:rejects<=0@1",
        ] {
            assert!(parse_rule(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn count_metrics_evaluate_ratio_metrics_skip_without_denominator() {
        let mut c = WindowCounts {
            quotes: 3,
            ..Default::default()
        };
        assert_eq!(Metric::Rejects.value(&c), Some(0.0));
        assert_eq!(Metric::RejectRatio.value(&c), Some(0.0));
        assert_eq!(Metric::PromiseReliability.value(&c), None);
        assert_eq!(Metric::DeadlineMissRatio.value(&c), None);
        c.rejects = 1;
        assert_eq!(Metric::RejectRatio.value(&c), Some(0.25));
    }

    #[test]
    fn fire_resolve_fire_over_consecutive_windows() {
        let accum = SloAccum::new(60);
        let mut engine = SloEngine::new(vec![parse_rule("flap:rejects<=0@1").unwrap()]);

        accum.observe(&ev_reject(10));
        let alerts = engine.drain(&accum, 120);
        assert_eq!(alerts.len(), 1);
        assert!(matches!(
            &alerts[0],
            TelemetryEvent::SloAlert {
                state: AlertState::Fire,
                window_end_secs: 60,
                ..
            }
        ));
        assert_eq!(engine.firing(), vec!["flap"]);

        accum.observe(&ev_quote(130));
        let alerts = engine.drain(&accum, 240);
        assert_eq!(alerts.len(), 1);
        assert!(matches!(
            &alerts[0],
            TelemetryEvent::SloAlert {
                state: AlertState::Resolve,
                window_end_secs: 180,
                ..
            }
        ));

        accum.observe(&ev_reject(250));
        let alerts = engine.drain(&accum, 360);
        assert_eq!(alerts.len(), 1);
        assert!(matches!(
            &alerts[0],
            TelemetryEvent::SloAlert {
                state: AlertState::Fire,
                ..
            }
        ));
        assert_eq!(engine.fired_total, 2);
        assert_eq!(engine.resolved_total, 1);
    }

    #[test]
    fn empty_windows_are_neutral() {
        let accum = SloAccum::new(60);
        let mut engine = SloEngine::new(vec![parse_rule("r:rejects<=0@1").unwrap()]);
        accum.observe(&ev_reject(10));
        assert_eq!(engine.drain(&accum, 60).len(), 1); // fired
                                                       // Hours of silence: nothing to close, nothing resolves.
        assert!(engine.drain(&accum, 100_000).is_empty());
        assert_eq!(engine.active_alerts(), 1);
    }

    #[test]
    fn streak_needs_consecutive_violations() {
        let accum = SloAccum::new(60);
        let mut engine = SloEngine::new(vec![parse_rule("s:rejects<=0@3").unwrap()]);
        // Two violating windows, one clean, two violating: never 3 in a row.
        for (w, reject) in [(0, true), (1, true), (2, false), (3, true), (4, true)] {
            if reject {
                accum.observe(&ev_reject(w * 60 + 5));
            } else {
                accum.observe(&ev_quote(w * 60 + 5));
            }
        }
        assert!(engine.drain(&accum, 300).is_empty());
        // A third consecutive violation fires.
        accum.observe(&ev_reject(305));
        let alerts = engine.drain(&accum, 360);
        assert_eq!(alerts.len(), 1);
        assert_eq!(engine.fired_total, 1);
    }

    #[test]
    fn burn_rate_pair_fires_on_scattered_violations() {
        let accum = SloAccum::new(60);
        let mut engine =
            SloEngine::new(vec![parse_rule("b:promise_reliability>=0.9@2/6").unwrap()]);
        // Windows 0..5: reliability 1.0 except windows 1 and 4 (0.0).
        for w in 0u64..6 {
            accum.observe(&ev_promise(w * 60 + 5, !(w == 1 || w == 4)));
        }
        let alerts = engine.drain(&accum, 360);
        assert_eq!(alerts.len(), 1, "2 violations in 6 windows must fire");
        assert!(matches!(
            &alerts[0],
            TelemetryEvent::SloAlert {
                state: AlertState::Fire,
                window_end_secs: 300,
                ..
            }
        ));
        // Four healthy windows age both violations out of the ring.
        for w in 6u64..10 {
            accum.observe(&ev_promise(w * 60 + 5, true));
        }
        let alerts = engine.drain(&accum, 600);
        assert_eq!(alerts.len(), 1);
        assert!(matches!(
            &alerts[0],
            TelemetryEvent::SloAlert {
                state: AlertState::Resolve,
                ..
            }
        ));
    }

    #[test]
    fn batch_drain_equals_incremental_drain() {
        let mk = || SloEngine::new(vec![parse_rule("r:reject_ratio<=0.5@2/4").unwrap()]);
        let feed = |accum: &SloAccum| {
            for w in 0u64..8 {
                if w % 3 == 0 {
                    accum.observe(&ev_reject(w * 60 + 1));
                    accum.observe(&ev_reject(w * 60 + 2));
                } else {
                    accum.observe(&ev_quote(w * 60 + 1));
                }
            }
        };
        let strip = |mut e: TelemetryEvent| {
            // Tick times differ between the two drives; the alert content
            // (rule, state, boundary, value) must not.
            if let TelemetryEvent::SloAlert { at, .. } = &mut e {
                *at = SimTime::from_secs(0);
            }
            e
        };

        let accum_a = SloAccum::new(60);
        feed(&accum_a);
        let mut engine_a = mk();
        let batch: Vec<_> = engine_a
            .drain(&accum_a, 480)
            .into_iter()
            .map(strip)
            .collect();

        let accum_b = SloAccum::new(60);
        feed(&accum_b);
        let mut engine_b = mk();
        let mut incremental = Vec::new();
        for t in (0..=480).step_by(60) {
            incremental.extend(engine_b.drain(&accum_b, t).into_iter().map(strip));
        }
        assert_eq!(batch, incremental);
        assert_eq!(engine_a.windows_closed, engine_b.windows_closed);
    }

    #[test]
    fn slo_sink_feeds_the_accumulator() {
        let accum = Arc::new(SloAccum::new(60));
        let mut sink = SloSink(Arc::clone(&accum));
        sink.record(&ev_reject(5));
        sink.record(&ev_quote(65));
        let closed = accum.take_closed(120);
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].1.rejects, 1);
        assert_eq!(closed[1].1.quotes, 1);
    }
}
