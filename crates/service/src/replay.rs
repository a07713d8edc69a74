//! Deterministic re-execution of recorded request traces.
//!
//! [`replay`] feeds a trace captured by the daemon's `--record` flag back
//! through the *real* engine code — [`build_core`] constructs the core
//! from the trace header exactly as `pqos-qosd` constructed it from its
//! flags, and `EngineCore::tick` runs
//! each recorded epoch exactly as the engine thread ran it — with no
//! sockets and no wall clock. Virtual time comes from the recorded
//! per-epoch ticks, batching from the recorded epoch grouping, and job
//! ids from the recorded engine assignments, so the replayed core makes
//! exactly the decisions the live engine made and emits a byte-identical
//! journal.
//!
//! # Determinism contract
//!
//! Replay checks *response parity* for the deterministic verbs —
//! `negotiate`, `accept`, `cancel`, `shutdown` — whose responses are pure
//! functions of session state. `status`, `dump` and `history` responses
//! carry wall-clock fields (uptime, queue depth, flight-recorder
//! contents, sampled windows) and are skipped (counted in
//! [`ReplayReport::skipped_nondeterministic`]). Queue-timeout refusals
//! never reached the session when recorded, so replay honors them by
//! skipping the entry. Journal equality is checked by the caller against
//! the recorded journal ([`ReplayReport::journal`] holds the replayed
//! one).
//!
//! # Validation
//!
//! An entry whose request does not parse, disagrees with its verb or is an
//! executed `negotiate` without its job id, or whose recorded response
//! does not parse, stops the replay with [`ReplayError::BadEntry`]. The
//! entry blamed is the first malformed one in trace order, as if each
//! entry were parsed in turn. A recorded response is parsed before the
//! tick only where its bytes cannot decide: it may be a queue-timeout (its
//! text holds `"timeout"` or an escape), or it answers a wall-clock verb.
//! Every other one is compared after the tick with the replayed answer's
//! encoding. Equal bytes prove it parses, since encoding a response and
//! parsing it back is the identity; only a line that differs is parsed,
//! which tells a parity mismatch from a malformed line.

use crate::protocol::{ErrorCode, Request, Response};
use crate::record::SharedBuf;
use crate::tick::{build_core, TickEvent};
use pqos_telemetry::merge::JournalMerger;
use pqos_telemetry::reqtrace::{RequestTrace, TraceEntry};
use pqos_telemetry::Telemetry;
use std::fmt;
use std::time::{Duration, Instant};

/// Tuning for one replay run.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Stop after this epoch (inclusive); `None` replays to the end.
    pub until: Option<u64>,
    /// Batch fan-out override; `0` uses the recorded `batch_threads`
    /// (quoting is thread-count independent, so this only affects speed).
    pub threads: usize,
    /// Compare every deterministic response byte-for-byte against the
    /// recording.
    pub check_parity: bool,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            until: None,
            threads: 0,
            check_parity: true,
        }
    }
}

/// One replayed response that differs from the recording.
#[derive(Debug, Clone, PartialEq)]
pub struct ParityMismatch {
    /// Sequence number of the diverging entry.
    pub seq: u64,
    /// Epoch it replayed in.
    pub epoch: u64,
    /// Protocol verb.
    pub verb: String,
    /// The recorded response line.
    pub recorded: String,
    /// What this build of the code answered instead.
    pub replayed: String,
}

/// Per-epoch progress, for `--step` narrowing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochSummary {
    /// The epoch just replayed.
    pub epoch: u64,
    /// Virtual time it advanced to.
    pub tick_secs: u64,
    /// Entries it contained.
    pub entries: usize,
    /// Live jobs after the epoch.
    pub live_jobs: usize,
    /// Cumulative parity mismatches so far.
    pub mismatches: usize,
}

/// What a replay produced.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Entries in the trace.
    pub entries_total: usize,
    /// Entries fed through the session (or honored as recorded
    /// timeouts); the rest were cut off by `--until` or a mid-trace
    /// shutdown.
    pub entries_replayed: usize,
    /// Epochs replayed.
    pub epochs_replayed: u64,
    /// Deterministic responses compared against the recording.
    pub parity_checked: usize,
    /// The comparisons that diverged.
    pub mismatches: Vec<ParityMismatch>,
    /// `status`/`dump`/`history` entries skipped (wall-clock responses).
    pub skipped_nondeterministic: usize,
    /// Recorded queue-timeout refusals honored by skipping.
    pub timeouts_honored: usize,
    /// Whether the trace ended with a shutdown acknowledgement.
    pub shutdown_seen: bool,
    /// The replayed journal (JSONL), for byte comparison against the
    /// recorded one. A sharded core's planes are merged as qosd merges its
    /// per-plane files ([`merge_journals_to_string`]); replay releases the
    /// merged lines tick by tick as it runs, which writes the same bytes.
    ///
    /// [`merge_journals_to_string`]: pqos_telemetry::merge::merge_journals_to_string
    pub journal: String,
    /// Replayed response line per deterministic entry, in replay order
    /// (`(seq, line)`); lets callers reconstruct responses for authored
    /// traces.
    pub responses: Vec<(u64, String)>,
    /// Wall-clock cost of the replay.
    pub elapsed: Duration,
}

impl ReplayReport {
    /// No response diverged from the recording.
    pub fn is_parity_clean(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Why a trace cannot be replayed.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayError {
    /// The trace as a whole is not replayable (wrong source, unknown
    /// predictor).
    Unsupported(String),
    /// One entry is malformed beyond what the schema validator can see
    /// (unparseable request/response payload, negotiate without a job).
    BadEntry {
        /// Sequence number of the offending entry.
        seq: u64,
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Unsupported(detail) => write!(f, "cannot replay: {detail}"),
            ReplayError::BadEntry { seq, detail } => {
                write!(f, "trace entry seq {seq}: {detail}")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Replays `trace` to completion (or `opts.until`). See the
/// [module docs](self) for the determinism contract.
pub fn replay(trace: &RequestTrace, opts: &ReplayOptions) -> Result<ReplayReport, ReplayError> {
    replay_with(trace, opts, |_| {})
}

/// [`replay`], invoking `on_epoch` after each replayed epoch (the
/// substrate for `pqos-replay run --step`).
pub fn replay_with(
    trace: &RequestTrace,
    opts: &ReplayOptions,
    mut on_epoch: impl FnMut(&EpochSummary),
) -> Result<ReplayReport, ReplayError> {
    let started = Instant::now();
    let meta = &trace.meta;
    if meta.source != "qosd" {
        return Err(ReplayError::Unsupported(format!(
            "trace source is {:?}; only engine-side (\"qosd\") traces carry \
             the batch epochs replay needs — re-capture with `pqos-qosd --record`",
            meta.source
        )));
    }
    // The same constructor the daemon ran, journaling each plane into a
    // buffer; the buffers come back in the order qosd merges its
    // per-plane journal files. Sessions skip the batched-vs-serial
    // re-check: it journals nothing, and response parity is checked here.
    let mut journal_bufs: Vec<SharedBuf> = Vec::new();
    let mut core = build_core(meta, false, Telemetry::disabled(), |_, builder| {
        let buf = SharedBuf::new();
        journal_bufs.push(buf.clone());
        Ok(builder.flush_every(0).jsonl_writer(buf).build())
    })?;
    if opts.threads > 0 {
        core = core.batch_threads(opts.threads);
    }
    let mut journal = Journal::new(journal_bufs);

    let mut report = ReplayReport {
        entries_total: trace.entries.len(),
        entries_replayed: 0,
        epochs_replayed: 0,
        parity_checked: 0,
        mismatches: Vec::new(),
        skipped_nondeterministic: 0,
        timeouts_honored: 0,
        shutdown_seen: false,
        journal: String::new(),
        responses: Vec::new(),
        elapsed: Duration::ZERO,
    };

    let mut idx = 0;
    // `unparsed[at]`: entry `at`'s recorded response is not yet known to
    // parse. Kept across epochs for its capacity.
    let mut unparsed = Vec::new();
    while idx < trace.entries.len() && !report.shutdown_seen {
        let epoch = trace.entries[idx].epoch;
        if opts.until.is_some_and(|until| epoch > until) {
            break;
        }
        let mut end = idx;
        while end < trace.entries.len() && trace.entries[end].epoch == epoch {
            end += 1;
        }
        let entries = &trace.entries[idx..end];
        let tick_secs = entries[0].tick_secs;

        // Parse requests, and the recorded responses the bytes cannot
        // judge: a possible queue-timeout, which never reached the session
        // and so never enters the tick, and a wall-clock verb's, which the
        // tick does not answer. Every other response is checked after the
        // tick, by its bytes. `ran[k]` is the entry behind tick item `k`.
        let mut items = Vec::with_capacity(entries.len());
        let mut ran = Vec::with_capacity(entries.len());
        let mut timed_out = Vec::new();
        unparsed.clear();
        unparsed.resize(entries.len(), false);
        for (at, entry) in entries.iter().enumerate() {
            let bad = |detail: String| blame(entries, &unparsed[..at], at, detail);
            let request = Request::parse(&entry.request)
                .map_err(|e| bad(format!("request does not parse: {}", e.detail)))?;
            if request.verb() != entry.verb {
                return Err(bad(format!(
                    "entry verb {:?} disagrees with its request payload ({:?})",
                    entry.verb,
                    request.verb()
                )));
            }
            let wall_clock = matches!(
                request,
                Request::Status { .. } | Request::Dump { .. } | Request::History { .. }
            );
            let parsed = wall_clock || may_be_timeout(&entry.response);
            if parsed {
                let recorded = Response::parse(&entry.response)
                    .ok_or_else(|| bad("response does not parse".to_string()))?;
                if let Response::Error {
                    code: ErrorCode::Timeout,
                    ..
                } = recorded
                {
                    timed_out.push(at);
                    continue;
                }
            }
            unparsed[at] = !parsed;
            // Rejected negotiates consumed an id too, so every executed
            // one carries the id the engine assigned it. Its own response
            // is judged first, as it was parsed first.
            if matches!(request, Request::Negotiate { .. }) && entry.job.is_none() {
                return Err(blame(
                    entries,
                    &unparsed[..=at],
                    at,
                    "executed negotiate is missing its engine-assigned job id".into(),
                ));
            }
            items.push((request, entry.job));
            ran.push(at);
        }

        let shutdown = core.tick(tick_secs, &items, |k, event| match event {
            TickEvent::Reply { response, .. } => {
                let at = ran[k];
                unparsed[at] = !check_reply(opts, &entries[at], &response, &mut report);
            }
            TickEvent::WallClock(_) => report.skipped_nondeterministic += 1,
            TickEvent::Batched | TickEvent::Refused(_) => {}
        });
        // What the tick left unjudged: replies whose bytes differ from a
        // recording that does not parse either, and the entries a
        // mid-epoch shutdown cut off.
        if let Some(at) = first_unparsable(entries, &unparsed) {
            return Err(unparsable(&entries[at]));
        }
        journal.release(tick_secs);
        // A mid-epoch shutdown cuts the epoch (and the replay) short.
        let stop = shutdown.map_or(entries.len(), |k| ran[k] + 1);
        report.shutdown_seen = shutdown.is_some();
        report.timeouts_honored += timed_out.iter().filter(|&&at| at < stop).count();
        report.entries_replayed += stop;
        report.epochs_replayed += 1;
        on_epoch(&EpochSummary {
            epoch,
            tick_secs,
            entries: entries.len(),
            live_jobs: core.core().live_jobs(),
            mismatches: report.mismatches.len(),
        });
        idx = end;
    }

    core.core().flush();
    report.journal = journal.finish();
    report.elapsed = started.elapsed();
    Ok(report)
}

/// Whether a recorded response line could be a queue-timeout refusal,
/// which only a parse can tell: its text holds `"timeout"` — the code's
/// only spelling without an escape — or an escape.
fn may_be_timeout(line: &str) -> bool {
    line.contains("\"timeout\"") || line.contains('\\')
}

/// The first entry whose recorded response is still unjudged and does not
/// parse.
fn first_unparsable(entries: &[TraceEntry], unparsed: &[bool]) -> Option<usize> {
    (0..unparsed.len()).find(|&at| unparsed[at] && Response::parse(&entries[at].response).is_none())
}

/// The error for an entry whose recorded response does not parse.
fn unparsable(entry: &TraceEntry) -> ReplayError {
    ReplayError::BadEntry {
        seq: entry.seq,
        detail: "response does not parse".into(),
    }
}

/// The error for a fault `detail` found in entry `at` before the tick:
/// an unjudged response in `unparsed` (the entries up to the fault) that
/// does not parse comes first, as it would had every response been
/// parsed in trace order.
fn blame(entries: &[TraceEntry], unparsed: &[bool], at: usize, detail: String) -> ReplayError {
    match first_unparsable(entries, unparsed) {
        Some(earlier) => unparsable(&entries[earlier]),
        None => ReplayError::BadEntry {
            seq: entries[at].seq,
            detail,
        },
    }
}

/// The replayed journal as it is written. One plane is the journal,
/// taken whole at the end. Several are merged as qosd merges its
/// per-plane files, so the result is byte-comparable against the daemon's
/// merged journal, but tick by tick: after the tick at `t` no plane writes
/// a line below `t`, so every line below `t` is released at once, and the
/// planes' buffers hold little more than one tick's lines.
struct Journal {
    planes: Vec<SharedBuf>,
    merger: Option<JournalMerger<'static>>,
}

impl Journal {
    fn new(planes: Vec<SharedBuf>) -> Self {
        let merger = (planes.len() > 1).then(|| JournalMerger::new(planes.len()));
        Journal { planes, merger }
    }

    /// Moves each plane's new lines to the merge, whose buffers swap in
    /// for theirs, and releases every line below `tick_secs`.
    fn release(&mut self, tick_secs: u64) {
        if let Some(merger) = &mut self.merger {
            for (plane, buf) in self.planes.iter().enumerate() {
                let spare = merger.recycled();
                merger.feed(plane, buf.swap_string(spare));
            }
            merger.release(tick_secs);
        }
    }

    /// The whole journal, the last tick's lines included.
    fn finish(mut self) -> String {
        self.release(0);
        match self.merger {
            Some(merger) => merger.finish(),
            None => self
                .planes
                .first()
                .map(SharedBuf::take_string)
                .unwrap_or_default(),
        }
    }
}

/// Records the replayed response and, when parity checking is on,
/// byte-compares it against the recorded line. Returns whether the
/// recorded line parses: it does when it is the replayed line again,
/// since every encoded response with finite fields parses back to itself
/// (`protocol::tests::responses_round_trip`), and only a line that
/// differs is parsed.
fn check_reply(
    opts: &ReplayOptions,
    entry: &TraceEntry,
    replayed: &Response,
    report: &mut ReplayReport,
) -> bool {
    // Almost always the recorded line again: size for it.
    let mut line = String::with_capacity(entry.response.len());
    replayed.encode_into(&mut line);
    let same = line == entry.response;
    // A non-finite probability encodes as `null`, which does not parse.
    let finite = !matches!(replayed, Response::Quote { success_probability, .. }
        if !success_probability.is_finite());
    let parses = (same && finite) || Response::parse(&entry.response).is_some();
    if opts.check_parity {
        report.parity_checked += 1;
        if !same {
            report.mismatches.push(ParityMismatch {
                seq: entry.seq,
                epoch: entry.epoch,
                verb: entry.verb.clone(),
                recorded: entry.response.clone(),
                replayed: line.clone(),
            });
        }
    }
    report.responses.push((entry.seq, line));
    parses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{spawn_core, EngineConfig, EngineHandle, ReplySender};
    use crate::flight::{FlightRecorder, TraceCtx};
    use crate::record::TraceRecorder;
    use pqos_telemetry::reqtrace::TraceMeta;
    use std::sync::mpsc::Receiver;
    use std::thread::JoinHandle;

    /// One in-process engine run over the core `meta` describes, recorded
    /// the way `pqos-qosd --record --journal` records a daemon: every
    /// journal plane into a buffer, every answered request into a trace.
    struct LiveRun {
        handle: EngineHandle,
        reply: ReplySender,
        rx: Receiver<(Response, Option<TraceCtx>)>,
        join: JoinHandle<()>,
        trace: SharedBuf,
        planes: Vec<SharedBuf>,
    }

    impl LiveRun {
        fn start(meta: &TraceMeta) -> LiveRun {
            let mut planes = Vec::new();
            let core = build_core(meta, true, Telemetry::disabled(), |_, builder| {
                let buf = SharedBuf::new();
                planes.push(buf.clone());
                Ok(builder.flush_every(0).jsonl_writer(buf).build())
            })
            .expect("meta describes a buildable core");
            let config = EngineConfig {
                time_scale: meta.time_scale,
                batch_threads: meta.batch_threads as usize,
                ..EngineConfig::default()
            };
            let trace = SharedBuf::new();
            let recorder = TraceRecorder::to_writer(trace.clone(), meta).unwrap();
            let (handle, join) = spawn_core(core, config, FlightRecorder::disabled(), recorder);
            let (reply, rx) = ReplySender::channel();
            LiveRun {
                handle,
                reply,
                rx,
                join,
                trace,
                planes,
            }
        }

        fn send(&self, request: Request) {
            self.handle
                .submit(request, &self.reply, None, 1)
                .expect("accepts");
        }

        fn recv(&self) -> Response {
            self.rx
                .recv_timeout(Duration::from_secs(5))
                .expect("reply")
                .0
        }

        fn ask(&self, request: Request) -> Response {
            self.send(request);
            self.recv()
        }

        /// Shuts the engine down and returns what it recorded: the request
        /// trace and the journal (planes merged as qosd merges its files).
        fn finish(self) -> (RequestTrace, String) {
            assert_eq!(
                self.ask(Request::Shutdown { id: 9_999 }),
                Response::Ok { id: 9_999 }
            );
            self.join.join().unwrap();
            let trace = RequestTrace::parse(&self.trace.take_string()).expect("trace parses");
            let planes: Vec<String> = self.planes.iter().map(SharedBuf::take_string).collect();
            let refs: Vec<&str> = planes.iter().map(String::as_str).collect();
            (
                trace,
                pqos_telemetry::merge::merge_journals_to_string(&refs),
            )
        }
    }

    /// Replays a finished run and asserts the round trip: the shutdown is
    /// reached, every response matches, the journal is byte-identical.
    fn assert_round_trip(run: LiveRun) -> (RequestTrace, ReplayReport) {
        let (trace, recorded_journal) = run.finish();
        assert!(!recorded_journal.is_empty(), "the run journals");
        let report = replay(&trace, &ReplayOptions::default()).expect("replayable");
        assert!(report.shutdown_seen);
        assert!(
            report.is_parity_clean(),
            "parity mismatches: {:#?}",
            report.mismatches
        );
        assert_eq!(
            report.journal, recorded_journal,
            "replayed journal must be byte-identical"
        );
        (trace, report)
    }

    fn negotiate(id: u64, size: u32, runtime_secs: u64) -> Request {
        Request::Negotiate {
            id,
            size,
            runtime_secs,
        }
    }

    fn quoted_job(response: Response) -> u64 {
        match response {
            Response::Quote { job, .. } => job,
            other => panic!("expected quote, got {other:?}"),
        }
    }

    /// Records an in-process engine run, then replays it and asserts the
    /// round trip: byte-identical journal, 100% response parity.
    #[test]
    fn record_then_replay_round_trips() {
        let run = LiveRun::start(&TraceMeta {
            time_scale: 2000.0,
            batch_threads: 2,
            ..TraceMeta::qosd(16)
        });
        let mut jobs = Vec::new();
        for k in 0..12u64 {
            jobs.push(quoted_job(run.ask(negotiate(
                k,
                1 + (k % 5) as u32,
                600 + 60 * k,
            ))));
            // Spread requests across ticks so several epochs exist.
            if k % 4 == 3 {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        // Some accepts succeed, some lose their slot to an earlier accept
        // and expire — both outcomes must replay identically, so neither
        // is asserted away.
        let mut accepted_ok = 0;
        for &job in jobs.iter().take(6) {
            if matches!(
                run.ask(Request::Accept { id: 100 + job, job }),
                Response::Ok { .. }
            ) {
                accepted_ok += 1;
            }
        }
        assert!(accepted_ok >= 1, "at least one accept lands");
        // A cancel on a merely-quoted job is an error reply; that too must
        // round-trip byte-for-byte.
        run.ask(Request::Cancel {
            id: 200,
            job: jobs[6],
        });
        // An unknown job too: error responses must replay identically.
        assert!(matches!(
            run.ask(Request::Cancel { id: 201, job: 9999 }),
            Response::Error { .. }
        ));
        assert!(matches!(
            run.ask(Request::Status { id: 300 }),
            Response::Status { .. }
        ));
        let (trace, report) = assert_round_trip(run);
        assert!(trace.entries.len() >= 16, "all answered requests recorded");
        assert_eq!(report.skipped_nondeterministic, 1, "the status probe");
        // 12 negotiates + 6 accepts + 2 cancels + 1 shutdown.
        assert_eq!(report.parity_checked, 21);
    }

    /// The SLO plane round trip: a live engine run with a tight
    /// `rejects<=0` rule journals a fire and a resolve, and replay —
    /// rebuilding the evaluator from the trace header alone — reproduces
    /// the exact `slo_alert` lines, byte for byte.
    #[test]
    fn slo_alerts_record_then_replay_byte_identically() {
        use pqos_telemetry::{AlertState, TelemetryEvent};
        let run = LiveRun::start(&TraceMeta {
            time_scale: 5000.0,
            batch_threads: 2,
            slo: vec!["tight:rejects<=0@1".into()],
            slo_window_secs: 60,
            ..TraceMeta::qosd(16)
        });
        // Wider than the cluster: journals a reject into the live window.
        assert!(matches!(
            run.ask(negotiate(1, 32, 600)),
            Response::Error { .. }
        ));
        // 30ms of wall time is 150 virtual seconds at this scale — more
        // than one 60s window, so the next tick must close the reject's
        // window and FIRE, and its own clean quote lands in a later one.
        std::thread::sleep(Duration::from_millis(30));
        assert!(matches!(
            run.ask(negotiate(2, 2, 600)),
            Response::Quote { .. }
        ));
        // Another window's worth of virtual time: the shutdown tick's
        // drain closes the clean window and RESOLVES before serving.
        std::thread::sleep(Duration::from_millis(30));
        let (_, report) = assert_round_trip(run);
        let states: Vec<AlertState> = report
            .journal
            .lines()
            .filter_map(TelemetryEvent::from_jsonl)
            .filter_map(|e| match e {
                TelemetryEvent::SloAlert { state, .. } => Some(state),
                _ => None,
            })
            .collect();
        assert_eq!(
            states,
            [AlertState::Fire, AlertState::Resolve],
            "the run journals one fire and one resolve"
        );
    }

    /// Engine tick coalescing end to end: a cancel and a re-negotiate for
    /// the same capacity racing into the engine (one tick or two —
    /// `tick::tests` pins the one-tick case exactly) always leave an
    /// honorable quote, and the whole interleaving replays byte-for-byte.
    #[test]
    fn cancel_and_requote_interleaving_replays_clean() {
        // Near-frozen virtual time: accepted-but-queued jobs never start,
        // so every cancel below targets a cancellable reservation.
        let run = LiveRun::start(&TraceMeta {
            time_scale: 0.001,
            ..TraceMeta::qosd(4)
        });
        // C pins the whole cluster from t=0; everything below queues
        // behind it as a future reservation.
        let pin = quoted_job(run.ask(negotiate(0, 4, 100_000)));
        assert!(matches!(
            run.ask(Request::Accept { id: 1, job: pin }),
            Response::Ok { .. }
        ));
        let mut next_id = 10u64;
        for round in 0..8u64 {
            // Accept A behind the pin (and any earlier B backlog).
            let a = quoted_job(run.ask(negotiate(next_id, 4, 3600 + round)));
            assert!(matches!(
                run.ask(Request::Accept {
                    id: next_id + 1,
                    job: a
                }),
                Response::Ok { .. }
            ));
            // Pipeline cancel(A) + negotiate(B) back-to-back so they tend
            // to coalesce into a single tick; the engine was idle, so both
            // usually drain into one batch.
            run.send(Request::Cancel {
                id: next_id + 2,
                job: a,
            });
            run.send(negotiate(next_id + 3, 4, 3600 + round));
            let b = match (run.recv(), run.recv()) {
                (Response::Ok { .. }, Response::Quote { job, .. })
                | (Response::Quote { job, .. }, Response::Ok { .. }) => job,
                other => panic!("round {round}: cancel+requote got {other:?}"),
            };
            // Whether B was quoted against the pre- or post-cancel book,
            // the quote must be honorable once the cancel has landed.
            assert!(
                matches!(
                    run.ask(Request::Accept {
                        id: next_id + 4,
                        job: b
                    }),
                    Response::Ok { .. }
                ),
                "round {round}: stale-snapshot quote must stay honorable"
            );
            next_id += 10;
        }
        let (_, report) = assert_round_trip(run);
        assert_eq!(report.skipped_nondeterministic, 0);
        // 17 negotiates + 17 accepts + 8 cancels + 1 shutdown.
        assert_eq!(report.parity_checked, 43);
    }

    #[test]
    fn refuses_loadgen_and_unknown_predictor_traces() {
        let refusal = |meta: TraceMeta| {
            let trace = RequestTrace {
                meta,
                entries: vec![],
            };
            let err = replay(&trace, &ReplayOptions::default()).unwrap_err();
            assert!(matches!(err, ReplayError::Unsupported(_)), "{err}");
            err.to_string()
        };
        let err = refusal(TraceMeta {
            source: "loadgen".into(),
            ..TraceMeta::qosd(4)
        });
        assert!(err.contains("qosd"), "{err}");
        let err = refusal(TraceMeta {
            predictor: "crystal-ball".into(),
            ..TraceMeta::qosd(4)
        });
        assert!(err.contains("unknown predictor"), "{err}");
        let err = refusal(TraceMeta {
            shards: 5,
            ..TraceMeta::qosd(4)
        });
        assert!(err.contains("5 shards over 4 nodes"), "{err}");
        let err = refusal(TraceMeta {
            slo: vec!["tight:rejects<=0@1".into(), "no-colon".into()],
            ..TraceMeta::qosd(4)
        });
        assert!(err.contains("bad SLO rule \"no-colon\""), "{err}");
    }

    #[test]
    fn until_cuts_the_replay_short() {
        let entry = |seq, epoch, tick, job: u64| TraceEntry {
            seq,
            epoch,
            tick_secs: tick,
            conn: 1,
            verb: "negotiate".into(),
            job: Some(job),
            request: negotiate(seq, 1, 60).encode(),
            response: String::from("{\"id\":0,\"ok\":true}"),
        };
        let trace = RequestTrace {
            meta: TraceMeta::qosd(8),
            entries: vec![entry(1, 1, 0, 1), entry(2, 2, 5, 2), entry(3, 3, 9, 3)],
        };
        let report = replay(
            &trace,
            &ReplayOptions {
                until: Some(2),
                check_parity: false,
                ..ReplayOptions::default()
            },
        )
        .unwrap();
        assert_eq!(report.epochs_replayed, 2);
        assert_eq!(report.entries_replayed, 2);
        assert_eq!(report.responses.len(), 2);
    }

    /// The sharded mirror of `record_then_replay_round_trips`: a 4-shard
    /// engine run (narrow jobs routed by probe, one wide job through the
    /// two-phase coordinator) is recorded, then replayed through a
    /// freshly partitioned core. Parity must hold response-by-response
    /// and the replayed merged journal must be byte-identical to the
    /// merge of the live run's per-plane journals.
    #[test]
    fn sharded_record_then_replay_round_trips() {
        let run = LiveRun::start(&TraceMeta {
            time_scale: 2000.0,
            batch_threads: 2,
            shards: 4,
            ..TraceMeta::qosd(16)
        });
        let mut jobs = Vec::new();
        for k in 0..10u64 {
            // Each shard owns 4 nodes, so sizes 1-4 route narrow.
            jobs.push(quoted_job(run.ask(negotiate(
                k,
                1 + (k % 4) as u32,
                600 + 60 * k,
            ))));
            if k % 3 == 2 {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        // One job wider than any shard: the coordinator negotiates it
        // against the merged view and reserves slices on several shards.
        let wide = quoted_job(run.ask(negotiate(50, 10, 1200)));
        let mut accepted_ok = 0;
        for &job in jobs.iter().take(5).chain([&wide]) {
            if matches!(
                run.ask(Request::Accept { id: 100 + job, job }),
                Response::Ok { .. }
            ) {
                accepted_ok += 1;
            }
        }
        assert!(accepted_ok >= 1, "at least one accept lands");
        // Cancel one narrow and the wide job so slice release journals too.
        run.ask(Request::Cancel {
            id: 200,
            job: jobs[0],
        });
        run.ask(Request::Cancel { id: 201, job: wide });
        assert!(matches!(
            run.ask(Request::Status { id: 300 }),
            Response::Status { .. }
        ));
        let (_, report) = assert_round_trip(run);
        // 11 negotiates + 6 accepts + 2 cancels + 1 shutdown.
        assert_eq!(report.parity_checked, 20);
    }
}
