//! Typed lifecycle events and their JSONL encoding, declared in one table.
//!
//! One [`TelemetryEvent`] is emitted at each decision point of the
//! simulator and the service: job submission, quote negotiation,
//! placement, start, checkpoint requested/taken/skipped, node
//! failure/recovery, requeue, completion, deadline miss, cancellation,
//! promise resolution and SLO alerts. Every variant carries its simulation
//! timestamp `at` so a journal line is self-contained.
//!
//! The `journal_schema!` invocation below is the schema: one row per
//! variant naming its wire tag and its fields, docs included. Everything
//! that walks the kinds is generated from it — the enum,
//! [`at`](TelemetryEvent::at), [`name`](TelemetryEvent::name), the dense
//! per-kind index, [`kind_names`](TelemetryEvent::kind_names), the
//! encoder and [`from_jsonl`](TelemetryEvent::from_jsonl) — and each
//! field type is written and read by one private `Field` impl. A line is
//! `{"event":TAG,"at":SECS,...}` with the fields in table order. Decoding
//! is one [`pull`] over every key the table names, each field's slot in
//! that list fixed at compile time; a line must carry every key of its
//! kind (the first occurrence wins where one repeats).

use crate::json::{pull, ObjWriter, Token};
use crate::wire_enum;
use pqos_sim_core::time::SimTime;

wire_enum! {
    /// Why a checkpoint request did not result in a checkpoint.
    pub enum SkipReason {
        /// Eq. 1 said the expected loss (`pf · d · I`) is below the overhead
        /// `C`, so checkpointing is not worth it.
        LowRisk = "low_risk",
        /// Performing the checkpoint would push the job past its negotiated
        /// deadline while skipping still meets it.
        DeadlinePressure = "deadline_pressure",
        /// The configured policy declined for a reason of its own (periodic
        /// phase, disabled checkpointing, ...).
        Policy = "policy",
    }
}

wire_enum! {
    /// How an accepted quote's promise ultimately resolved.
    pub enum PromiseVerdict {
        /// The job completed at or before its effective deadline.
        Kept = "kept",
        /// The job completed after its effective deadline.
        Broken = "broken",
        /// The submitter withdrew the job before a verdict was possible; the
        /// promise is neither kept nor broken and is excluded from calibration.
        Cancelled = "cancelled",
    }
}

wire_enum! {
    /// Whether an SLO alert is firing or has recovered.
    pub enum AlertState {
        /// The rule's violation count crossed its firing threshold.
        Fire = "fire",
        /// A previously firing rule dropped back below its threshold.
        Resolve = "resolve",
    }
}

/// How one field type is written into a journal line and read back out.
trait Field: Sized {
    fn put(&self, key: &str, w: &mut ObjWriter);
    fn take(token: &Token<'_>) -> Option<Self>;
}

impl Field for u64 {
    fn put(&self, key: &str, w: &mut ObjWriter) {
        w.u64(key, *self);
    }
    fn take(token: &Token<'_>) -> Option<Self> {
        token.as_u64()
    }
}

/// Written as a `u64`; a value past `u32::MAX` refuses the line.
impl Field for u32 {
    fn put(&self, key: &str, w: &mut ObjWriter) {
        w.u64(key, u64::from(*self));
    }
    fn take(token: &Token<'_>) -> Option<Self> {
        u32::try_from(token.as_u64()?).ok()
    }
}

impl Field for f64 {
    fn put(&self, key: &str, w: &mut ObjWriter) {
        w.f64(key, *self);
    }
    fn take(token: &Token<'_>) -> Option<Self> {
        token.as_f64()
    }
}

impl Field for bool {
    fn put(&self, key: &str, w: &mut ObjWriter) {
        w.bool(key, *self);
    }
    fn take(token: &Token<'_>) -> Option<Self> {
        token.as_bool()
    }
}

/// `None` is `null`, which is not the same as a missing key.
impl Field for Option<u64> {
    fn put(&self, key: &str, w: &mut ObjWriter) {
        w.opt_u64(key, *self);
    }
    fn take(token: &Token<'_>) -> Option<Self> {
        match token {
            Token::Null => Some(None),
            value => value.as_u64().map(Some),
        }
    }
}

impl Field for Vec<u64> {
    fn put(&self, key: &str, w: &mut ObjWriter) {
        w.arr_u64(key, self);
    }
    fn take(token: &Token<'_>) -> Option<Self> {
        let mut list = Some(Vec::new());
        token.items(|n| match (&mut list, n.as_u64()) {
            (Some(list), Some(n)) => list.push(n),
            _ => list = None,
        })?;
        list
    }
}

impl Field for String {
    fn put(&self, key: &str, w: &mut ObjWriter) {
        w.str(key, self);
    }
    fn take(token: &Token<'_>) -> Option<Self> {
        token.as_str().map(str::to_string)
    }
}

/// A wire enum is its name.
macro_rules! wire_fields {
    ($($wire:ty),+) => {$(
        impl Field for $wire {
            fn put(&self, key: &str, w: &mut ObjWriter) {
                w.str(key, self.as_str());
            }
            fn take(token: &Token<'_>) -> Option<Self> {
                Self::parse(token.as_str()?)
            }
        }
    )+};
}

wire_fields!(SkipReason, PromiseVerdict, AlertState);

/// Whether two keys are the same text (`==` on `str` is not `const`).
const fn same(a: &str, b: &str) -> bool {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    if a.len() != b.len() {
        return false;
    }
    let mut i = 0;
    while i < a.len() && a[i] == b[i] {
        i += 1;
    }
    i == a.len()
}

/// Where `key` first occurs in `keys`. A key the list lacks runs off its
/// end, which fails the build when this is evaluated as a constant.
const fn position(keys: &[&str], key: &str) -> usize {
    let mut i = 0;
    while !same(keys[i], key) {
        i += 1;
    }
    i
}

/// How many distinct keys `keys` holds.
const fn distinct_count(keys: &[&str]) -> usize {
    let (mut i, mut n) = (0, 0);
    while i < keys.len() {
        n += (position(keys, keys[i]) == i) as usize;
        i += 1;
    }
    n
}

/// `keys` without its repeats, first occurrences in order.
const fn distinct<const N: usize>(keys: &[&'static str]) -> [&'static str; N] {
    let mut out = [""; N];
    let (mut i, mut n) = (0, 0);
    while i < keys.len() {
        if position(keys, keys[i]) == i {
            out[n] = keys[i];
            n += 1;
        }
        i += 1;
    }
    out
}

/// Declares the journal. Each row is `Variant = "wire_tag" { fields }`;
/// `at: SimTime` is added to every variant, and every match over the
/// kinds is generated here, so none is written by hand anywhere else.
macro_rules! journal_schema {
    ($(
        $(#[doc = $doc:literal])*
        $variant:ident = $tag:literal {
            $($(#[doc = $field_doc:literal])* $field:ident: $ty:ty,)+
        }
    )+) => {
        /// A structured record of one simulator decision or state change.
        ///
        /// Job and node identifiers are raw integers (not the simulator's
        /// typed ids) so lower layers can emit events without depending on
        /// the layers that define those types.
        #[derive(Debug, Clone, PartialEq)]
        pub enum TelemetryEvent {$(
            $(#[doc = $doc])*
            $variant {
                /// Simulation time of the event.
                at: SimTime,
                $($(#[doc = $field_doc])* $field: $ty,)+
            },
        )+}

        /// A [`TelemetryEvent`]'s variant without its payload.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub(crate) enum EventKind {
            $($variant,)+
        }

        /// Number of distinct [`TelemetryEvent`] variants (the size of any
        /// per-kind accounting table).
        pub(crate) const EVENT_KINDS: usize = [$($tag),+].len();

        /// Every key a journal line can carry: `event`, `at`, then each
        /// row's fields with repeats dropped. A line is pulled against this
        /// list once; a field's slot in it is [`position`] at compile time.
        const KEYS: [&str; distinct_count(ALL_KEYS)] = distinct(ALL_KEYS);
        const ALL_KEYS: &[&str] = &["event", "at", $($(stringify!($field),)+)+];

        impl EventKind {
            /// Every kind, in table order.
            const ALL: [EventKind; EVENT_KINDS] = [$(EventKind::$variant),+];

            /// The kind's wire tag: the `event` field of its journal lines.
            pub(crate) const fn name(self) -> &'static str {
                match self {
                    $(EventKind::$variant => $tag,)+
                }
            }
        }

        impl TelemetryEvent {
            /// Simulation time the event occurred.
            pub fn at(&self) -> SimTime {
                match self {
                    $(TelemetryEvent::$variant { at, .. } => *at,)+
                }
            }

            /// The event's variant.
            pub(crate) fn kind(&self) -> EventKind {
                match self {
                    $(TelemetryEvent::$variant { .. } => EventKind::$variant,)+
                }
            }

            /// Appends the event's journal line (no trailing newline) to `out`.
            pub(crate) fn append_jsonl(&self, out: &mut String) {
                let mut w = ObjWriter::append_to(std::mem::take(out));
                match self {
                    $(TelemetryEvent::$variant { at, $($field),+ } => {
                        w.str("event", $tag).u64("at", at.as_secs());
                        $($field.put(stringify!($field), &mut w);)+
                    })+
                }
                *out = w.finish();
            }

            /// Decodes one journal line. Returns `None` if the line is not
            /// valid JSON or does not match the event schema. One pass over
            /// the line, no allocation beyond what the event itself owns.
            pub fn from_jsonl(line: &str) -> Option<TelemetryEvent> {
                let found = pull(line.trim(), &KEYS)?;
                let [event, at, ..] = &found;
                let at = SimTime::from_secs(at.as_ref()?.as_u64()?);
                Some(match event.as_ref()?.as_str()? {
                    $($tag => TelemetryEvent::$variant {
                        at,
                        $($field: <$ty as Field>::take(
                            found[const { position(&KEYS, stringify!($field)) }].as_ref()?,
                        )?,)+
                    },)+
                    _ => return None,
                })
            }
        }
    };
}

journal_schema! {
    /// A job entered the system.
    JobSubmitted = "job_submitted" {
        /// Job identifier.
        job: u64,
        /// Requested partition size in nodes.
        size: u32,
        /// Requested runtime in seconds.
        runtime_secs: u64,
    }
    /// Negotiation produced a quote the user accepted.
    QuoteNegotiated = "quote_negotiated" {
        /// Job identifier.
        job: u64,
        /// Promised start time (seconds since epoch).
        start_secs: u64,
        /// Promised completion time (seconds since epoch).
        promised_secs: u64,
        /// Effective deadline the system holds itself to (promise plus any
        /// configured slack), seconds since epoch. Downstream tools check
        /// recorded outcomes against this, not the raw promise.
        deadline_secs: u64,
        /// Probability of success quoted per Eq. 2.
        success_probability: f64,
    }
    /// Negotiation failed; the job never ran.
    JobRejected = "job_rejected" {
        /// Job identifier.
        job: u64,
    }
    /// The scheduler chose a partition for a job segment.
    JobPlaced = "job_placed" {
        /// Job identifier.
        job: u64,
        /// Nodes of the chosen partition.
        nodes: Vec<u64>,
        /// Predicted failure probability of the partition over the
        /// placement window.
        failure_probability: f64,
    }
    /// A job segment began executing.
    JobStarted = "job_started" {
        /// Job identifier.
        job: u64,
        /// How many failures this job has absorbed so far (0 on first
        /// start).
        restarts: u32,
    }
    /// A checkpoint request fired after an interval `I` of useful work and
    /// is about to be granted or denied. Every [`CheckpointTaken`] and
    /// [`CheckpointSkipped`] is preceded by one of these.
    ///
    /// [`CheckpointTaken`]: TelemetryEvent::CheckpointTaken
    /// [`CheckpointSkipped`]: TelemetryEvent::CheckpointSkipped
    CheckpointRequested = "checkpoint_requested" {
        /// Job identifier.
        job: u64,
    }
    /// A checkpoint completed and advanced the job's durable progress.
    CheckpointTaken = "checkpoint_taken" {
        /// Job identifier.
        job: u64,
        /// Checkpoint overhead paid, in seconds.
        overhead_secs: u64,
    }
    /// A checkpoint request was declined.
    CheckpointSkipped = "checkpoint_skipped" {
        /// Job identifier.
        job: u64,
        /// Why the checkpoint was skipped.
        reason: SkipReason,
        /// Predicted failure probability over the risk window.
        failure_probability: f64,
        /// Work at risk had a failure occurred, in seconds.
        at_risk_secs: u64,
    }
    /// A node failed.
    NodeFailed = "node_failed" {
        /// Node identifier.
        node: u64,
        /// Job running on the node, if any.
        victim_job: Option<u64>,
        /// Work destroyed by the failure, in node-seconds.
        lost_node_seconds: u64,
        /// Whether the failure predictor flagged this node in advance.
        predicted: bool,
    }
    /// A failed node came back.
    NodeRecovered = "node_recovered" {
        /// Node identifier.
        node: u64,
    }
    /// A failed job re-entered the queue to resume from its last durable
    /// checkpoint.
    JobRequeued = "job_requeued" {
        /// Job identifier.
        job: u64,
        /// Work remaining after rollback, in seconds.
        remaining_secs: u64,
    }
    /// A job finished.
    JobCompleted = "job_completed" {
        /// Job identifier.
        job: u64,
        /// Whether it met its negotiated deadline.
        met_deadline: bool,
    }
    /// A job finished after its negotiated deadline.
    DeadlineMissed = "deadline_missed" {
        /// Job identifier.
        job: u64,
        /// How late the job was, in seconds.
        late_by_secs: u64,
    }
    /// The submitter withdrew the job before it started running; any held
    /// reservation was released. Emitted by the online service (the trace
    /// simulator's workloads never cancel).
    JobCancelled = "job_cancelled" {
        /// Job identifier.
        job: u64,
    }
    /// The quoted probability for an accepted job met its outcome: the
    /// promise made by its [`QuoteNegotiated`] is now kept, broken, or
    /// voided by cancellation. Emitted immediately after the job's terminal
    /// event so calibration audits can join quote → outcome without
    /// re-deriving deadline semantics.
    ///
    /// [`QuoteNegotiated`]: TelemetryEvent::QuoteNegotiated
    PromiseResolved = "promise_resolved" {
        /// Job identifier.
        job: u64,
        /// Probability of success quoted when the promise was made.
        success_probability: f64,
        /// Effective deadline the promise was measured against, seconds
        /// since epoch.
        deadline_secs: u64,
        /// How the promise resolved.
        verdict: PromiseVerdict,
    }
    /// An SLO rule changed state at a window boundary. `at` is the
    /// engine's virtual time when the window was closed (the tick time;
    /// journals are time-ordered); `window_end_secs` is the boundary of the
    /// window whose evaluation caused the transition.
    SloAlert = "slo_alert" {
        /// Name of the rule, as given on the command line.
        rule: String,
        /// Fire or resolve.
        state: AlertState,
        /// End boundary of the evaluated window, seconds since epoch.
        window_end_secs: u64,
        /// Observed metric value in that window.
        value: f64,
        /// The rule's threshold.
        threshold: f64,
    }
}

impl TelemetryEvent {
    /// Stable wire name of the variant (the `event` field in the journal).
    pub fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Dense index of the variant, `0 ..` [`EVENT_KINDS`], matching
    /// [`kind_names`](Self::kind_names) order. Used for per-kind event
    /// accounting without a name lookup on the emission path.
    pub(crate) fn kind_index(&self) -> usize {
        self.kind() as usize
    }

    /// Wire names of every variant, in schema order.
    pub fn kind_names() -> [&'static str; EVENT_KINDS] {
        EventKind::ALL.map(EventKind::name)
    }

    /// Encodes the event as a single JSON object (one journal line, without
    /// the trailing newline). Allocates the line; a sink that keeps its
    /// line buffer appends into it instead (as the JSONL sink does).
    pub fn to_jsonl(&self) -> String {
        let mut line = String::new();
        self.append_jsonl(&mut line);
        line
    }
}

/// One instance of every variant, in a plausible order.
///
/// Exposed (not just for this crate's tests) so downstream crates —
/// property tests, the `pqos-obs` tooling — can exercise every wire shape
/// without re-enumerating the schema by hand.
pub fn one_of_each() -> Vec<TelemetryEvent> {
    let t = SimTime::from_secs(3600);
    vec![
        TelemetryEvent::JobSubmitted {
            at: t,
            job: 1,
            size: 16,
            runtime_secs: 7200,
        },
        TelemetryEvent::QuoteNegotiated {
            at: t,
            job: 1,
            start_secs: 3700,
            promised_secs: 11_000,
            deadline_secs: 11_000,
            success_probability: 0.987,
        },
        TelemetryEvent::JobRejected { at: t, job: 2 },
        TelemetryEvent::JobPlaced {
            at: t,
            job: 1,
            nodes: vec![4, 5, 6, 7],
            failure_probability: 0.0125,
        },
        TelemetryEvent::JobStarted {
            at: t,
            job: 1,
            restarts: 0,
        },
        TelemetryEvent::CheckpointRequested { at: t, job: 1 },
        TelemetryEvent::CheckpointTaken {
            at: t,
            job: 1,
            overhead_secs: 720,
        },
        TelemetryEvent::CheckpointSkipped {
            at: t,
            job: 1,
            reason: SkipReason::LowRisk,
            failure_probability: 0.0003,
            at_risk_secs: 3600,
        },
        TelemetryEvent::NodeFailed {
            at: t,
            node: 5,
            victim_job: Some(1),
            lost_node_seconds: 14_400,
            predicted: true,
        },
        TelemetryEvent::NodeFailed {
            at: t,
            node: 99,
            victim_job: None,
            lost_node_seconds: 0,
            predicted: false,
        },
        TelemetryEvent::NodeRecovered { at: t, node: 5 },
        TelemetryEvent::JobRequeued {
            at: t,
            job: 1,
            remaining_secs: 3600,
        },
        TelemetryEvent::JobCompleted {
            at: t,
            job: 1,
            met_deadline: false,
        },
        TelemetryEvent::DeadlineMissed {
            at: t,
            job: 1,
            late_by_secs: 480,
        },
        TelemetryEvent::JobCancelled { at: t, job: 3 },
        TelemetryEvent::PromiseResolved {
            at: t,
            job: 1,
            success_probability: 0.987,
            deadline_secs: 11_000,
            verdict: PromiseVerdict::Broken,
        },
        TelemetryEvent::PromiseResolved {
            at: t,
            job: 4,
            success_probability: 1.0,
            deadline_secs: 9_000,
            verdict: PromiseVerdict::Kept,
        },
        TelemetryEvent::PromiseResolved {
            at: t,
            job: 3,
            success_probability: 0.5,
            deadline_secs: 8_000,
            verdict: PromiseVerdict::Cancelled,
        },
        TelemetryEvent::SloAlert {
            at: t,
            rule: "tight".to_string(),
            state: AlertState::Fire,
            window_end_secs: 3600,
            value: 0.42,
            threshold: 0.2,
        },
        TelemetryEvent::SloAlert {
            at: t,
            rule: "tight".to_string(),
            state: AlertState::Resolve,
            window_end_secs: 3600,
            value: 0.1,
            threshold: 0.2,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use std::collections::BTreeSet;

    #[test]
    fn every_variant_round_trips_through_jsonl() {
        for event in one_of_each() {
            let line = event.to_jsonl();
            let back = TelemetryEvent::from_jsonl(&line)
                .unwrap_or_else(|| panic!("failed to parse {line}"));
            assert_eq!(back, event, "round trip changed {line}");
        }
    }

    #[test]
    fn one_of_each_covers_every_variant_name() {
        let names: BTreeSet<&str> = one_of_each().iter().map(|e| e.name()).collect();
        assert_eq!(
            names.len(),
            EVENT_KINDS,
            "update one_of_each() for new variants"
        );
    }

    #[test]
    fn kind_index_is_dense_and_matches_wire_names() {
        let names = TelemetryEvent::kind_names();
        let mut seen = [false; EVENT_KINDS];
        // one_of_each may repeat a variant (payload coverage); every event
        // must still map to its own wire name, and all indices get hit.
        for event in one_of_each() {
            let idx = event.kind_index();
            assert!(idx < EVENT_KINDS);
            assert_eq!(names[idx], event.name(), "kind_names order mismatch");
            seen[idx] = true;
        }
        assert!(seen.iter().all(|s| *s), "kind_index must be surjective");
        let distinct: BTreeSet<&str> = names.into_iter().collect();
        assert_eq!(distinct.len(), EVENT_KINDS, "wire tags are distinct");
    }

    /// What every wire enum's generated `ALL`, `as_str` and `parse` must
    /// agree on: distinct names, each parsing back to its variant, and
    /// nothing else parsing.
    macro_rules! assert_wire_enum_round_trips {
        ($wire:ty) => {
            let names: BTreeSet<&str> = <$wire>::ALL.iter().map(|v| v.as_str()).collect();
            assert_eq!(names.len(), <$wire>::ALL.len(), "names are distinct");
            for v in <$wire>::ALL {
                assert_eq!(<$wire>::parse(v.as_str()), Some(v));
            }
            assert_eq!(<$wire>::parse("bogus"), None);
            assert_eq!(<$wire>::parse(""), None);
        };
    }

    #[test]
    fn skip_reason_wire_names_round_trip() {
        assert_wire_enum_round_trips!(SkipReason);
    }

    #[test]
    fn promise_verdict_wire_names_round_trip() {
        assert_wire_enum_round_trips!(PromiseVerdict);
    }

    #[test]
    fn alert_state_wire_names_round_trip() {
        assert_wire_enum_round_trips!(AlertState);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(TelemetryEvent::from_jsonl("").is_none());
        assert!(TelemetryEvent::from_jsonl("not json").is_none());
        assert!(TelemetryEvent::from_jsonl(r#"{"event":"unknown","at":1}"#).is_none());
        assert!(TelemetryEvent::from_jsonl(r#"{"event":"job_rejected"}"#).is_none());
        // Wrong field type.
        assert!(
            TelemetryEvent::from_jsonl(r#"{"event":"job_rejected","at":1,"job":"x"}"#).is_none()
        );
        // A field of another kind does not stand in for a missing one.
        assert!(
            TelemetryEvent::from_jsonl(r#"{"event":"node_recovered","at":1,"job":5}"#).is_none()
        );
        // u32 fields are range-checked.
        assert!(TelemetryEvent::from_jsonl(
            r#"{"event":"job_started","at":1,"job":1,"restarts":4294967296}"#
        )
        .is_none());
        assert!(TelemetryEvent::from_jsonl(
            r#"{"event":"job_started","at":1,"job":1,"restarts":4294967295}"#
        )
        .is_some());
    }

    #[test]
    fn keys_are_listed_once_with_event_and_at_first() {
        assert_eq!(KEYS[..2], ["event", "at"]);
        let distinct: BTreeSet<&str> = KEYS.into_iter().collect();
        assert_eq!(distinct.len(), KEYS.len());
        // Every key an encoded line carries is one the decoder pulls.
        for event in one_of_each() {
            let Some(Json::Obj(pairs)) = Json::parse(&event.to_jsonl()) else {
                panic!("{event:?} encodes to an object");
            };
            for (key, _) in pairs {
                assert!(KEYS.contains(&key.as_str()), "{key} is not pulled");
            }
        }
    }

    #[test]
    fn timestamps_are_preserved() {
        for event in one_of_each() {
            assert_eq!(event.at(), SimTime::from_secs(3600));
        }
    }

    /// The crate docs' "Event schema" table is written by hand: it must
    /// list every kind, in schema order, and name every key the kind's
    /// journal line carries.
    #[test]
    fn the_schema_table_in_the_crate_docs_matches_the_kinds() {
        let docs = include_str!("lib.rs");
        let section = &docs[docs
            .find("# Event schema")
            .expect("an Event schema section")..];
        let rows: Vec<(&str, &str)> = section
            .lines()
            .skip(1)
            .take_while(|line| line.starts_with("//!"))
            .filter_map(|line| line.strip_prefix("//! | `"))
            .filter_map(|row| row.split_once('`'))
            .filter(|(tag, _)| *tag != "event")
            .collect();
        let tags: Vec<&str> = rows.iter().map(|(tag, _)| *tag).collect();
        assert_eq!(
            tags,
            TelemetryEvent::kind_names(),
            "one row per kind, in order"
        );
        for event in one_of_each() {
            let (_, fields) = rows[event.kind_index()];
            let Some(Json::Obj(pairs)) = Json::parse(&event.to_jsonl()) else {
                panic!("{event:?} encodes to an object");
            };
            for (key, _) in &pairs[2..] {
                assert!(
                    fields.contains(&format!("`{key}`")),
                    "the {} row does not name `{key}`",
                    event.name()
                );
            }
        }
    }

    /// The journal's bytes, written out: the encoder these lines came from
    /// is gone, so the literals are the oracle. Replay parity and every
    /// recorded journal depend on each of them.
    #[test]
    fn one_of_each_encodes_to_the_golden_lines() {
        let golden = [
            r#"{"event":"job_submitted","at":3600,"job":1,"size":16,"runtime_secs":7200}"#,
            r#"{"event":"quote_negotiated","at":3600,"job":1,"start_secs":3700,"promised_secs":11000,"deadline_secs":11000,"success_probability":0.987}"#,
            r#"{"event":"job_rejected","at":3600,"job":2}"#,
            r#"{"event":"job_placed","at":3600,"job":1,"nodes":[4,5,6,7],"failure_probability":0.0125}"#,
            r#"{"event":"job_started","at":3600,"job":1,"restarts":0}"#,
            r#"{"event":"checkpoint_requested","at":3600,"job":1}"#,
            r#"{"event":"checkpoint_taken","at":3600,"job":1,"overhead_secs":720}"#,
            r#"{"event":"checkpoint_skipped","at":3600,"job":1,"reason":"low_risk","failure_probability":0.0003,"at_risk_secs":3600}"#,
            r#"{"event":"node_failed","at":3600,"node":5,"victim_job":1,"lost_node_seconds":14400,"predicted":true}"#,
            r#"{"event":"node_failed","at":3600,"node":99,"victim_job":null,"lost_node_seconds":0,"predicted":false}"#,
            r#"{"event":"node_recovered","at":3600,"node":5}"#,
            r#"{"event":"job_requeued","at":3600,"job":1,"remaining_secs":3600}"#,
            r#"{"event":"job_completed","at":3600,"job":1,"met_deadline":false}"#,
            r#"{"event":"deadline_missed","at":3600,"job":1,"late_by_secs":480}"#,
            r#"{"event":"job_cancelled","at":3600,"job":3}"#,
            r#"{"event":"promise_resolved","at":3600,"job":1,"success_probability":0.987,"deadline_secs":11000,"verdict":"broken"}"#,
            r#"{"event":"promise_resolved","at":3600,"job":4,"success_probability":1.0,"deadline_secs":9000,"verdict":"kept"}"#,
            r#"{"event":"promise_resolved","at":3600,"job":3,"success_probability":0.5,"deadline_secs":8000,"verdict":"cancelled"}"#,
            r#"{"event":"slo_alert","at":3600,"rule":"tight","state":"fire","window_end_secs":3600,"value":0.42,"threshold":0.2}"#,
            r#"{"event":"slo_alert","at":3600,"rule":"tight","state":"resolve","window_end_secs":3600,"value":0.1,"threshold":0.2}"#,
        ];
        let events = one_of_each();
        assert_eq!(events.len(), golden.len());
        let mut appended = String::new();
        for (event, want) in events.iter().zip(golden) {
            assert_eq!(event.to_jsonl(), want);
            event.append_jsonl(&mut appended);
            appended.push('\n');
        }
        assert_eq!(
            appended,
            golden.join("\n") + "\n",
            "appending leaves earlier lines alone"
        );
    }
}
