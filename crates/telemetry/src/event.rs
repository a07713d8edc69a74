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

use crate::json::{pull, push_f64, push_str, push_u64, push_u64_list, Token};
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
    /// Appends the field's JSON value (its key is the schema's literal).
    fn put(&self, out: &mut String);
    fn take(token: &Token<'_>) -> Option<Self>;
}

impl Field for u64 {
    fn put(&self, out: &mut String) {
        push_u64(out, *self);
    }
    fn take(token: &Token<'_>) -> Option<Self> {
        token.as_u64()
    }
}

/// Written as a `u64`; a value past `u32::MAX` refuses the line.
impl Field for u32 {
    fn put(&self, out: &mut String) {
        push_u64(out, u64::from(*self));
    }
    fn take(token: &Token<'_>) -> Option<Self> {
        u32::try_from(token.as_u64()?).ok()
    }
}

impl Field for f64 {
    fn put(&self, out: &mut String) {
        push_f64(out, *self);
    }
    fn take(token: &Token<'_>) -> Option<Self> {
        token.as_f64()
    }
}

impl Field for bool {
    fn put(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn take(token: &Token<'_>) -> Option<Self> {
        token.as_bool()
    }
}

/// `None` is `null`, which is not the same as a missing key.
impl Field for Option<u64> {
    fn put(&self, out: &mut String) {
        match self {
            Some(v) => push_u64(out, *v),
            None => out.push_str("null"),
        }
    }
    fn take(token: &Token<'_>) -> Option<Self> {
        match token {
            Token::Null => Some(None),
            value => value.as_u64().map(Some),
        }
    }
}

impl Field for Vec<u64> {
    fn put(&self, out: &mut String) {
        push_u64_list(out, self);
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
    fn put(&self, out: &mut String) {
        push_str(out, self);
    }
    fn take(token: &Token<'_>) -> Option<Self> {
        token.as_str().map(str::to_string)
    }
}

/// A wire enum is its name.
macro_rules! wire_fields {
    ($($wire:ty),+) => {$(
        impl Field for $wire {
            fn put(&self, out: &mut String) {
                push_str(out, self.as_str());
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

            /// Appends the event's journal line (no trailing newline) to
            /// `out`. Every key, and the `{"event":TAG,"at":` prefix, is a
            /// literal built here at compile time; only values are
            /// formatted at run time.
            pub(crate) fn append_jsonl(&self, out: &mut String) {
                match self {
                    $(TelemetryEvent::$variant { at, $($field),+ } => {
                        out.push_str(concat!("{\"event\":\"", $tag, "\",\"at\":"));
                        push_u64(out, at.as_secs());
                        $(
                            out.push_str(concat!(",\"", stringify!($field), "\":"));
                            $field.put(out);
                        )+
                    })+
                }
                out.push('}');
            }

            /// The event's line written with `format!`, sharing nothing
            /// with the encoder: keys and strings through a char-wise
            /// escaper, integers by `to_string`, floats by `{v:?}` (`null`
            /// if not finite). The oracle `append_jsonl` is checked against.
            #[cfg(test)]
            fn reference_jsonl(&self) -> String {
                use tests::{quoted, Reference};
                match self {
                    $(TelemetryEvent::$variant { at, $($field),+ } => {
                        let mut line = format!(
                            "{{{}:{},{}:{}",
                            quoted("event"),
                            quoted($tag),
                            quoted("at"),
                            at.as_secs()
                        );
                        $(line += &format!(",{}:{}", quoted(stringify!($field)), $field.reference());)+
                        line + "}"
                    })+
                }
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
    use pqos_sim_core::rng::DetRng;
    use std::collections::BTreeSet;

    /// How the reference line writes each field type's value.
    pub(super) trait Reference {
        fn reference(&self) -> String;
    }

    /// Integers and booleans are their `to_string`.
    macro_rules! display_reference {
        ($($ty:ty),+) => {$(
            impl Reference for $ty {
                fn reference(&self) -> String {
                    self.to_string()
                }
            }
        )+};
    }

    display_reference!(u64, u32, bool);

    /// A wire enum is its quoted name.
    macro_rules! wire_reference {
        ($($wire:ty),+) => {$(
            impl Reference for $wire {
                fn reference(&self) -> String {
                    quoted(self.as_str())
                }
            }
        )+};
    }

    wire_reference!(SkipReason, PromiseVerdict, AlertState);

    impl Reference for f64 {
        fn reference(&self) -> String {
            if self.is_finite() {
                format!("{self:?}")
            } else {
                "null".to_string()
            }
        }
    }

    impl Reference for Option<u64> {
        fn reference(&self) -> String {
            self.map_or_else(|| "null".to_string(), |v| v.to_string())
        }
    }

    impl Reference for Vec<u64> {
        fn reference(&self) -> String {
            let items: Vec<String> = self.iter().map(u64::to_string).collect();
            format!("[{}]", items.join(","))
        }
    }

    impl Reference for String {
        fn reference(&self) -> String {
            quoted(self)
        }
    }

    /// `s` as a JSON string, escaped one char at a time.
    pub(super) fn quoted(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
                c => out.push(c),
            }
        }
        out + "\""
    }

    /// A `u64` from the decimal writer's edges (one and two digits, the
    /// base-10,000 chunk boundaries, `u64::MAX`) or of a random magnitude.
    fn seeded_u64(rng: &mut DetRng) -> u64 {
        const EDGES: [u64; 14] = [
            0,
            9,
            10,
            99,
            100,
            999,
            1_000,
            9_999,
            10_000,
            99_999_999,
            100_000_000,
            1 << 53,
            u64::MAX - 1,
            u64::MAX,
        ];
        if rng.chance(0.5) {
            EDGES[rng.uniform_u64(0, EDGES.len() as u64 - 1) as usize]
        } else {
            rng.next_u64() >> rng.uniform_u64(0, 63)
        }
    }

    /// A float from `{v:?}`'s edges (signed zeros, 2⁵³ and the powers of
    /// ten where it turns to exponents, subnormals), a non-finite value,
    /// an integer or any bit pattern at all.
    fn seeded_f64(rng: &mut DetRng) -> f64 {
        const EXACT: f64 = 9_007_199_254_740_992.0;
        const EDGES: [f64; 24] = [
            0.0,
            -0.0,
            1.0,
            f64::from_bits(1.0f64.to_bits() + 1),
            f64::from_bits(1.0f64.to_bits() - 1),
            -1.0,
            0.5,
            0.93,
            0.987,
            1e-5,
            1e-4,
            EXACT - 1.0,
            -(EXACT - 1.0),
            EXACT,
            EXACT + 2.0,
            1e15,
            1e16,
            1e300,
            5e-324,
            f64::MIN_POSITIVE / 3.0,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        match rng.uniform_u64(0, 3) {
            0 | 1 => EDGES[rng.uniform_u64(0, EDGES.len() as u64 - 1) as usize],
            2 => rng.uniform_u64(0, 1 << 20) as f64 * if rng.chance(0.5) { 1.0 } else { -1.0 },
            _ => f64::from_bits(rng.next_u64()),
        }
    }

    /// A rule name, often one the writer must escape — quotes, backslashes,
    /// control bytes, text that looks like a journal key — or beyond ASCII.
    fn seeded_rule(rng: &mut DetRng) -> String {
        const RULES: [&str; 7] = [
            "tight",
            "",
            "a\"b\\c",
            "tab\there\nnewline\r\u{1}\u{1f}",
            "x\"at\":3,\"event\":\"job_completed\"",
            "é ünïcode ✓",
            "del\u{7f} ok",
        ];
        RULES[rng.uniform_u64(0, RULES.len() as u64 - 1) as usize].to_string()
    }

    /// One event of `kind`, every field drawn from the seeded helpers.
    fn seeded_event(rng: &mut DetRng, kind: EventKind) -> TelemetryEvent {
        let at = SimTime::from_secs(seeded_u64(rng));
        let job = seeded_u64(rng);
        let u32_of = |v: u64| v.min(u64::from(u32::MAX)) as u32;
        match kind {
            EventKind::JobSubmitted => TelemetryEvent::JobSubmitted {
                at,
                job,
                size: u32_of(seeded_u64(rng)),
                runtime_secs: seeded_u64(rng),
            },
            EventKind::QuoteNegotiated => TelemetryEvent::QuoteNegotiated {
                at,
                job,
                start_secs: seeded_u64(rng),
                promised_secs: seeded_u64(rng),
                deadline_secs: seeded_u64(rng),
                success_probability: seeded_f64(rng),
            },
            EventKind::JobRejected => TelemetryEvent::JobRejected { at, job },
            EventKind::JobPlaced => TelemetryEvent::JobPlaced {
                at,
                job,
                nodes: (0..rng.uniform_u64(0, 300))
                    .map(|_| match rng.uniform_u64(0, 3) {
                        0 => seeded_u64(rng),
                        _ => rng.uniform_u64(0, 4_095),
                    })
                    .collect(),
                failure_probability: seeded_f64(rng),
            },
            EventKind::JobStarted => TelemetryEvent::JobStarted {
                at,
                job,
                restarts: u32_of(seeded_u64(rng)),
            },
            EventKind::CheckpointRequested => TelemetryEvent::CheckpointRequested { at, job },
            EventKind::CheckpointTaken => TelemetryEvent::CheckpointTaken {
                at,
                job,
                overhead_secs: seeded_u64(rng),
            },
            EventKind::CheckpointSkipped => TelemetryEvent::CheckpointSkipped {
                at,
                job,
                reason: SkipReason::ALL[rng.uniform_u64(0, 2) as usize],
                failure_probability: seeded_f64(rng),
                at_risk_secs: seeded_u64(rng),
            },
            EventKind::NodeFailed => TelemetryEvent::NodeFailed {
                at,
                node: seeded_u64(rng),
                victim_job: rng.chance(0.5).then_some(job),
                lost_node_seconds: seeded_u64(rng),
                predicted: rng.chance(0.5),
            },
            EventKind::NodeRecovered => TelemetryEvent::NodeRecovered {
                at,
                node: seeded_u64(rng),
            },
            EventKind::JobRequeued => TelemetryEvent::JobRequeued {
                at,
                job,
                remaining_secs: seeded_u64(rng),
            },
            EventKind::JobCompleted => TelemetryEvent::JobCompleted {
                at,
                job,
                met_deadline: rng.chance(0.5),
            },
            EventKind::DeadlineMissed => TelemetryEvent::DeadlineMissed {
                at,
                job,
                late_by_secs: seeded_u64(rng),
            },
            EventKind::JobCancelled => TelemetryEvent::JobCancelled { at, job },
            EventKind::PromiseResolved => TelemetryEvent::PromiseResolved {
                at,
                job,
                success_probability: seeded_f64(rng),
                deadline_secs: seeded_u64(rng),
                verdict: PromiseVerdict::ALL[rng.uniform_u64(0, 2) as usize],
            },
            EventKind::SloAlert => TelemetryEvent::SloAlert {
                at,
                rule: seeded_rule(rng),
                state: AlertState::ALL[rng.uniform_u64(0, 1) as usize],
                window_end_secs: seeded_u64(rng),
                value: seeded_f64(rng),
                threshold: seeded_f64(rng),
            },
        }
    }

    /// The schema-literal encoder against the `format!` reference, byte
    /// for byte, over seeded events of every kind; each line appended
    /// after the last, as the JSONL sink's reused buffer sees them.
    #[test]
    fn literal_encoder_matches_the_format_reference() {
        let mut rng = DetRng::seed_from(0x6a73_6f6e);
        let (mut got, mut want) = (String::from("kept>"), String::from("kept>"));
        for round in 0..400 {
            for kind in EventKind::ALL {
                let event = seeded_event(&mut rng, kind);
                let (from_got, from_want) = (got.len(), want.len());
                event.append_jsonl(&mut got);
                want.push_str(&event.reference_jsonl());
                assert_eq!(
                    got[from_got..],
                    want[from_want..],
                    "round {round}: {event:?}"
                );
                got.push('\n');
                want.push('\n');
            }
            if got.len() > 1 << 20 {
                assert_eq!(got, want);
                got.truncate(5);
                want.truncate(5);
            }
        }
        assert_eq!(got, want, "appending leaves earlier lines alone");
    }

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
