//! Offline SLO re-derivation: replays a finished journal through the same
//! evaluator the daemon runs and diffs the derived alerts against the
//! journaled ones.
//!
//! The daemon closes windows at engine ticks; a journal reader does not
//! know the tick times, so the closure limit here is the *provable* one:
//! the maximum of the last lifecycle event's timestamp and the last
//! journaled alert's timestamp. Any window the daemon closed beyond that
//! limit either held no events (neutral by construction, see
//! [`pqos_telemetry::slo`]) or produced an alert that moved the limit —
//! so the derived alert sequence is complete. Alert `at` stamps are tick
//! times and are deliberately excluded from the comparison; byte-level
//! reproduction of the full journal (stamps included) is `pqos-replay`'s
//! job.

pub use pqos_telemetry::slo::{parse_rule, Cmp, Metric, WindowCounts, DEFAULT_WINDOW_SECS};

use pqos_telemetry::slo::{SloAccum, SloEngine, SloRule};
use pqos_telemetry::TelemetryEvent;

/// The comparable content of one alert: everything except the tick stamp.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertKey {
    /// Rule name.
    pub rule: String,
    /// `fire` or `resolve`.
    pub state: &'static str,
    /// End boundary of the window that caused the transition.
    pub window_end_secs: u64,
    /// Metric value in that window.
    pub value: f64,
    /// Rule threshold.
    pub threshold: f64,
}

impl AlertKey {
    /// Extracts the key from an event; `None` for non-alert events.
    pub(crate) fn of(event: &TelemetryEvent) -> Option<AlertKey> {
        match event {
            TelemetryEvent::SloAlert {
                rule,
                state,
                window_end_secs,
                value,
                threshold,
                ..
            } => Some(AlertKey {
                rule: rule.clone(),
                state: state.as_str(),
                window_end_secs: *window_end_secs,
                value: *value,
                threshold: *threshold,
            }),
            _ => None,
        }
    }

    /// One-line rendering for diffs and logs.
    pub(crate) fn render(&self) -> String {
        format!(
            "{} {} window_end={} value={:?} threshold={:?}",
            self.rule, self.state, self.window_end_secs, self.value, self.threshold
        )
    }
}

/// Result of re-deriving a journal's alerts.
#[derive(Debug)]
pub struct SloCheck {
    /// Alerts recorded in the journal, in journal order.
    pub journaled: Vec<AlertKey>,
    /// Alerts the evaluator derives from the journal's lifecycle events.
    pub derived: Vec<AlertKey>,
    /// Lifecycle (non-alert) events folded into windows.
    pub events: u64,
    /// Journal lines that did not parse as events.
    pub unparsed: u64,
    /// The closure limit used, in virtual seconds.
    pub limit_secs: u64,
}

impl SloCheck {
    /// True when the derived sequence matches the journaled one exactly.
    pub fn matches(&self) -> bool {
        self.journaled == self.derived
    }

    /// Human-readable mismatch lines (`empty` when [`matches`](Self::matches)).
    pub fn diff_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        let n = self.journaled.len().max(self.derived.len());
        for i in 0..n {
            match (self.journaled.get(i), self.derived.get(i)) {
                (Some(j), Some(d)) if j == d => {}
                (j, d) => {
                    out.push(format!(
                        "alert {i}: journal={} derived={}",
                        j.map_or_else(|| "<none>".to_string(), AlertKey::render),
                        d.map_or_else(|| "<none>".to_string(), AlertKey::render),
                    ));
                }
            }
        }
        out
    }
}

/// Runs the SLO evaluator over a journal held in memory. `width_secs` and
/// `rules` must match what the daemon ran with (the trace records them).
pub fn check_journal(journal: &str, rules: Vec<SloRule>, width_secs: u64) -> SloCheck {
    let accum = SloAccum::new(width_secs);
    let mut engine = SloEngine::new(rules);
    let mut journaled = Vec::new();
    let mut events = 0u64;
    let mut unparsed = 0u64;
    let mut limit_secs = 0u64;
    for line in journal.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Some(event) = TelemetryEvent::from_jsonl(line) else {
            unparsed += 1;
            continue;
        };
        limit_secs = limit_secs.max(event.at().as_secs());
        if let Some(key) = AlertKey::of(&event) {
            journaled.push(key);
        } else {
            events += 1;
            accum.observe(&event);
        }
    }
    let derived = engine
        .drain(&accum, limit_secs)
        .iter()
        .filter_map(AlertKey::of)
        .collect();
    SloCheck {
        journaled,
        derived,
        events,
        unparsed,
        limit_secs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqos_sim_core::time::SimTime;
    use pqos_telemetry::AlertState;

    fn reject(at: u64, job: u64) -> String {
        TelemetryEvent::JobRejected {
            at: SimTime::from_secs(at),
            job,
        }
        .to_jsonl()
    }

    fn quote(at: u64, job: u64) -> String {
        TelemetryEvent::QuoteNegotiated {
            at: SimTime::from_secs(at),
            job,
            start_secs: at,
            promised_secs: at + 10,
            deadline_secs: at + 10,
            success_probability: 0.9,
        }
        .to_jsonl()
    }

    fn alert(at: u64, state: AlertState, window_end: u64, value: f64) -> String {
        TelemetryEvent::SloAlert {
            at: SimTime::from_secs(at),
            rule: "r".to_string(),
            state,
            window_end_secs: window_end,
            value,
            threshold: 0.0,
        }
        .to_jsonl()
    }

    fn rules() -> Vec<SloRule> {
        vec![parse_rule("r:rejects<=0@1").unwrap()]
    }

    #[test]
    fn rederivation_matches_a_consistent_journal() {
        // Window [0,60): one reject → fire at the t=120 tick.
        // Window [120,180): a clean quote → resolve at the t=240 tick.
        let journal = [
            reject(10, 1),
            alert(120, AlertState::Fire, 60, 1.0),
            quote(130, 2),
            alert(240, AlertState::Resolve, 180, 0.0),
        ]
        .join("\n");
        let check = check_journal(&journal, rules(), 60);
        assert!(check.matches(), "diff: {:?}", check.diff_lines());
        assert_eq!(check.journaled.len(), 2);
        assert_eq!(check.events, 2);
        assert_eq!(check.limit_secs, 240);
    }

    #[test]
    fn tampered_alert_is_caught() {
        let journal = [
            reject(10, 1),
            // Claims a resolve that the events do not support.
            alert(120, AlertState::Resolve, 60, 0.0),
        ]
        .join("\n");
        let check = check_journal(&journal, rules(), 60);
        assert!(!check.matches());
        assert_eq!(check.diff_lines().len(), 1);
    }

    #[test]
    fn missing_alert_is_caught() {
        let journal = reject(10, 1) + "\n" + &quote(120, 2);
        let check = check_journal(&journal, rules(), 60);
        assert!(
            !check.matches(),
            "the fire at window 60 was never journaled"
        );
        assert_eq!(check.journaled.len(), 0);
        assert_eq!(check.derived.len(), 1);
    }

    #[test]
    fn trailing_partial_window_is_not_evaluated() {
        // The reject sits in window [60,120) whose end exceeds the event
        // watermark (61): the daemon never closed it, neither do we.
        let journal = quote(10, 1) + "\n" + &reject(61, 2);
        let check = check_journal(&journal, rules(), 60);
        assert!(check.matches());
        assert!(check.derived.is_empty());
    }
}
