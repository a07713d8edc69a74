//! Protocol-level request-trace schema for deterministic incident replay.
//!
//! A request trace is JSONL: the first line is a [`TraceMeta`] header
//! describing how the recording daemon was configured (enough to rebuild
//! an identical `NegotiationSession`), and every following line is one
//! [`TraceEntry`] — a request the engine *answered*, stamped with the
//! engine-batch epoch and virtual tick it was answered in. Refused
//! requests (`overloaded`, `shutting_down`) never touch session state and
//! are deliberately absent, so a trace is exactly the sequence of state
//! transitions a replay must reproduce.
//!
//! The reader is strict: it validates ordering invariants (sequence
//! numbers strictly increasing, epochs and ticks non-decreasing, all
//! entries of one epoch sharing a tick, executed negotiates carrying
//! their engine-assigned job id) and reports every problem as a
//! line-numbered [`TraceError`] rather than panicking or letting a
//! corrupt trace replay silently wrong. Sequence numbers need not be
//! contiguous — a shrunk trace is a subsequence of the original, and
//! keeping the original numbers lets a minimal reproducer be matched
//! back against the full incident.

use crate::json::{ObjWriter, Token};
use crate::pull_let;
use std::fmt;

/// Trace format version this crate writes and accepts.
pub const TRACE_FORMAT_VERSION: u64 = 1;

/// Value of the `trace` discriminator field on the meta line.
pub const TRACE_KIND: &str = "pqos-request-trace";

/// The header line of a request trace: the recorder's configuration,
/// sufficient to reconstruct the session a replay drives.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceMeta {
    /// Format version ([`TRACE_FORMAT_VERSION`]).
    pub version: u64,
    /// Which side recorded: `"qosd"` (engine-side, replayable) or
    /// `"loadgen"` (client-side observations, not replayable).
    pub source: String,
    /// Cluster size the recording session was built with.
    pub cluster_size: u32,
    /// Virtual seconds per wall-clock second during recording.
    pub time_scale: f64,
    /// Fan-out width the engine used for batched quoting.
    pub batch_threads: u64,
    /// Quote horizon in seconds, when the daemon enforced one.
    pub quote_horizon_secs: Option<u64>,
    /// Predictor the session used: `"null"` or `"synthetic-aix"`.
    pub predictor: String,
    /// Engine shards the recording daemon ran (1 = the single-engine
    /// plane). Absent in traces recorded before sharding existed, which
    /// parse as 1.
    pub shards: u64,
    /// SLO rule specs the daemon evaluated (`--slo` flags, original
    /// spellings), in evaluation order. Empty when no SLO plane ran;
    /// absent from the encoded header in that case so pre-SLO traces
    /// stay byte-stable.
    pub slo: Vec<String>,
    /// Virtual-time window width the SLO evaluator used, in seconds.
    /// Only encoded alongside `slo`; parses as the default otherwise.
    pub slo_window_secs: u64,
}

impl TraceMeta {
    /// The header of a plain engine-side recording over `cluster_size`
    /// nodes: one shard, null predictor, real-time clock, serial quoting,
    /// no horizon, no SLO rules. Callers override what differs with
    /// struct-update syntax.
    pub fn qosd(cluster_size: u32) -> Self {
        TraceMeta {
            version: TRACE_FORMAT_VERSION,
            source: "qosd".into(),
            cluster_size,
            time_scale: 1.0,
            batch_threads: 1,
            quote_horizon_secs: None,
            predictor: "null".into(),
            shards: 1,
            slo: Vec::new(),
            slo_window_secs: crate::slo::DEFAULT_WINDOW_SECS,
        }
    }

    /// Encodes the meta header as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut w = ObjWriter::new();
        w.str("trace", TRACE_KIND)
            .u64("version", self.version)
            .str("source", &self.source)
            .u64("cluster_size", self.cluster_size as u64)
            .f64("time_scale", self.time_scale)
            .u64("batch_threads", self.batch_threads)
            .opt_u64("quote_horizon_secs", self.quote_horizon_secs)
            .str("predictor", &self.predictor)
            .u64("shards", self.shards);
        if !self.slo.is_empty() {
            w.arr_str("slo", &self.slo)
                .u64("slo_window_secs", self.slo_window_secs);
        }
        w.finish()
    }
}

/// One answered request: where in the engine's tick sequence it ran, who
/// sent it, and the exact request/response lines that crossed the wire.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceEntry {
    /// Recorder-assigned sequence number, strictly increasing. Not
    /// necessarily contiguous: shrunk traces keep original numbers.
    pub seq: u64,
    /// Engine tick (batch epoch) the request was answered in.
    pub epoch: u64,
    /// Virtual time (seconds) the engine advanced to for that epoch.
    pub tick_secs: u64,
    /// Connection id the request arrived on.
    pub conn: u64,
    /// Protocol verb (`negotiate`, `accept`, `cancel`, `status`, `dump`,
    /// `shutdown`).
    pub verb: String,
    /// Engine-assigned job id for executed negotiates (also present for
    /// rejected ones — they consume an id); `null` otherwise.
    pub job: Option<u64>,
    /// The raw request JSON line.
    pub request: String,
    /// The raw response JSON line.
    pub response: String,
}

impl TraceEntry {
    /// Encodes the entry as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut line = String::new();
        self.encode_into(&mut line);
        line
    }

    /// Appends the entry's line (no trailing newline) to `out`; a recorder
    /// that keeps `out` encodes without allocating.
    pub fn encode_into(&self, out: &mut String) {
        let mut w = ObjWriter::append_to(std::mem::take(out));
        w.u64("seq", self.seq)
            .u64("epoch", self.epoch)
            .u64("tick_secs", self.tick_secs)
            .u64("conn", self.conn)
            .str("verb", &self.verb)
            .opt_u64("job", self.job)
            .str("request", &self.request)
            .str("response", &self.response);
        *out = w.finish();
    }
}

/// A line-numbered trace problem (1-based, counting every line of the
/// file including the header).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceError {
    /// 1-based line number the problem was detected on.
    pub line: usize,
    /// What was wrong.
    pub detail: String,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.detail)
    }
}

impl std::error::Error for TraceError {}

/// The protocol verbs a trace entry may carry.
pub const TRACE_VERBS: &[&str] = &[
    "negotiate",
    "accept",
    "cancel",
    "status",
    "dump",
    "history",
    "shutdown",
];

/// A fully parsed and validated request trace.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    /// The header line.
    pub meta: TraceMeta,
    /// The answered requests, in recorded order.
    pub entries: Vec<TraceEntry>,
}

impl RequestTrace {
    /// Parses and validates a whole trace document. Each entry line is
    /// read in one pass ([`pull_let!`](crate::pull_let)): its integers are parsed from the line
    /// in place, and the only allocations are the `verb`, `request` and
    /// `response` strings the entry owns.
    pub fn parse(text: &str) -> Result<RequestTrace, TraceError> {
        let mut lines = text
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let Some((meta_idx, meta_line)) = lines.next() else {
            return Err(TraceError {
                line: 1,
                detail: "empty trace: expected a meta header line".into(),
            });
        };
        let meta = parse_meta(meta_line).map_err(|detail| TraceError {
            line: meta_idx + 1,
            detail,
        })?;
        let mut entries = Vec::new();
        let mut prev: Option<&TraceEntry> = None;
        let mut epoch_tick: Option<(u64, u64)> = None;
        let mut seen_jobs = std::collections::BTreeSet::new();
        for (idx, line) in lines {
            let err = |detail: String| TraceError {
                line: idx + 1,
                detail,
            };
            let entry = parse_entry(line).map_err(err)?;
            if let Some(p) = prev {
                if entry.seq <= p.seq {
                    return Err(err(format!(
                        "seq {} does not increase over previous seq {}",
                        entry.seq, p.seq
                    )));
                }
                if entry.epoch < p.epoch {
                    return Err(err(format!(
                        "epoch {} goes backwards (previous epoch {})",
                        entry.epoch, p.epoch
                    )));
                }
                if entry.tick_secs < p.tick_secs {
                    return Err(err(format!(
                        "tick_secs {} goes backwards (previous tick {})",
                        entry.tick_secs, p.tick_secs
                    )));
                }
            }
            match epoch_tick {
                Some((e, t)) if e == entry.epoch && t != entry.tick_secs => {
                    return Err(err(format!(
                        "entries of epoch {e} disagree on tick_secs ({t} vs {})",
                        entry.tick_secs
                    )));
                }
                Some((e, _)) if e == entry.epoch => {}
                _ => epoch_tick = Some((entry.epoch, entry.tick_secs)),
            }
            if !TRACE_VERBS.contains(&entry.verb.as_str()) {
                return Err(err(format!("unknown verb {:?}", entry.verb)));
            }
            if let Some(job) = entry.job {
                if entry.verb != "negotiate" {
                    return Err(err(format!(
                        "verb {:?} must not carry a job id",
                        entry.verb
                    )));
                }
                if !seen_jobs.insert(job) {
                    return Err(err(format!("job {job} assigned by two negotiate entries")));
                }
            }
            entries.push(entry);
            prev = entries.last();
        }
        Ok(RequestTrace { meta, entries })
    }

    /// Re-encodes the trace as a JSONL document (trailing newline
    /// included). `parse(encode(t)) == t` for any valid trace.
    pub fn encode(&self) -> String {
        let mut out = self.meta.encode();
        out.push('\n');
        for e in &self.entries {
            e.encode_into(&mut out);
            out.push('\n');
        }
        out
    }
}

type Slot<'a> = Option<Token<'a>>;

fn field<'a>(slot: Slot<'a>, key: &str) -> Result<Token<'a>, String> {
    slot.ok_or_else(|| format!("missing field {key:?}"))
}

fn u64_field(slot: Slot<'_>, key: &str) -> Result<u64, String> {
    field(slot, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} is not an unsigned integer"))
}

fn str_field(slot: Slot<'_>, key: &str) -> Result<String, String> {
    match field(slot, key)? {
        Token::Str(s) => Ok(s.into_owned()),
        _ => Err(format!("field {key:?} is not a string")),
    }
}

/// A field that is an unsigned integer or `null`.
fn opt_u64_field(slot: Slot<'_>, key: &str) -> Result<Option<u64>, String> {
    match field(slot, key)? {
        Token::Null => Ok(None),
        token => token
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("field {key:?} is not an unsigned integer or null")),
    }
}

/// A lenient field: absent means `default`, present must be an integer
/// of at least 1.
fn positive_or(slot: Slot<'_>, key: &str, default: u64) -> Result<u64, String> {
    slot.map_or(Ok(default), |token| {
        token
            .as_u64()
            .filter(|&v| v >= 1)
            .ok_or_else(|| format!("field {key:?} is not a positive integer"))
    })
}

fn parse_meta(line: &str) -> Result<TraceMeta, String> {
    pull_let!([
        trace, version, quote_horizon_secs, source, cluster_size, time_scale, batch_threads,
        predictor, shards, slo, slo_window_secs,
    ] = line.trim(); else { return Err("meta header is not valid JSON".into()) });
    let kind = str_field(trace, "trace")?;
    if kind != TRACE_KIND {
        return Err(format!("not a request trace (trace={kind:?})"));
    }
    let version = u64_field(version, "version")?;
    if version != TRACE_FORMAT_VERSION {
        return Err(format!(
            "unsupported trace format version {version} (this build reads version {TRACE_FORMAT_VERSION})"
        ));
    }
    let quote_horizon_secs = opt_u64_field(quote_horizon_secs, "quote_horizon_secs")?;
    Ok(TraceMeta {
        version,
        source: str_field(source, "source")?,
        cluster_size: u64_field(cluster_size, "cluster_size")?
            .try_into()
            .map_err(|_| "field \"cluster_size\" exceeds u32".to_string())?,
        time_scale: field(time_scale, "time_scale")?
            .as_f64()
            .ok_or_else(|| "field \"time_scale\" is not a number".to_string())?,
        batch_threads: u64_field(batch_threads, "batch_threads")?,
        quote_horizon_secs,
        predictor: str_field(predictor, "predictor")?,
        // Lenient: pre-sharding traces have no field and mean 1.
        shards: positive_or(shards, "shards", 1)?,
        // Lenient: pre-SLO traces have no fields and mean "no rules".
        slo: match slo {
            Some(list) => {
                let mut rules = Ok(Vec::new());
                list.items(|rule| match (&mut rules, rule) {
                    (Ok(rules), Token::Str(rule)) => rules.push(rule.into_owned()),
                    _ => rules = Err("field \"slo\" holds a non-string".to_string()),
                })
                .ok_or_else(|| "field \"slo\" is not an array".to_string())?;
                rules?
            }
            None => Vec::new(),
        },
        slo_window_secs: positive_or(
            slo_window_secs,
            "slo_window_secs",
            crate::slo::DEFAULT_WINDOW_SECS,
        )?,
    })
}

fn parse_entry(line: &str) -> Result<TraceEntry, String> {
    pull_let!([seq, epoch, tick_secs, conn, verb, job, request, response, trace] = line.trim();
        else { return Err("entry is not valid JSON".into()) });
    if trace.is_some() {
        return Err("second meta header inside the trace body".into());
    }
    let job = opt_u64_field(job, "job")?;
    Ok(TraceEntry {
        seq: u64_field(seq, "seq")?,
        epoch: u64_field(epoch, "epoch")?,
        tick_secs: u64_field(tick_secs, "tick_secs")?,
        conn: u64_field(conn, "conn")?,
        verb: str_field(verb, "verb")?,
        job,
        request: str_field(request, "request")?,
        response: str_field(response, "response")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta() -> TraceMeta {
        TraceMeta {
            time_scale: 50_000.0,
            batch_threads: 4,
            quote_horizon_secs: Some(14_400),
            ..TraceMeta::qosd(64)
        }
    }

    fn entry(seq: u64, epoch: u64, tick: u64, verb: &str, job: Option<u64>) -> TraceEntry {
        TraceEntry {
            seq,
            epoch,
            tick_secs: tick,
            conn: 1,
            verb: verb.into(),
            job,
            request: format!(r#"{{"op":"{verb}","id":{seq}}}"#),
            response: format!(r#"{{"id":{seq},"ok":true}}"#),
        }
    }

    #[test]
    fn round_trips_byte_identically() {
        let trace = RequestTrace {
            meta: meta(),
            entries: vec![
                entry(1, 1, 0, "negotiate", Some(1)),
                entry(2, 1, 0, "accept", None),
                entry(5, 3, 120, "status", None),
                entry(9, 4, 120, "shutdown", None),
            ],
        };
        let text = trace.encode();
        let back = RequestTrace::parse(&text).expect("round trip parses");
        assert_eq!(back, trace);
        assert_eq!(back.encode(), text, "encode is a fixpoint");
    }

    #[test]
    fn slo_fields_round_trip_and_stay_out_of_rule_free_headers() {
        // No rules: the encoded header must not mention slo at all, so
        // traces recorded before the SLO plane stay byte-stable.
        let bare = meta().encode();
        assert!(!bare.contains("slo"));
        let back = RequestTrace::parse(&format!("{bare}\n")).unwrap();
        assert!(back.meta.slo.is_empty());
        assert_eq!(back.meta.slo_window_secs, crate::slo::DEFAULT_WINDOW_SECS);
        // With rules: specs and window width survive the round trip.
        let with_rules = TraceMeta {
            slo: vec![
                "tight:rejects<=0@1".into(),
                "p99:reject_ratio<0.5@2/5".into(),
            ],
            slo_window_secs: 30,
            ..meta()
        };
        let trace = RequestTrace {
            meta: with_rules.clone(),
            entries: vec![],
        };
        let back = RequestTrace::parse(&trace.encode()).unwrap();
        assert_eq!(back.meta, with_rules);
    }

    #[test]
    fn no_quote_horizon_round_trips_as_null() {
        let trace = RequestTrace {
            meta: TraceMeta {
                quote_horizon_secs: None,
                ..meta()
            },
            entries: vec![],
        };
        let back = RequestTrace::parse(&trace.encode()).unwrap();
        assert_eq!(back.meta.quote_horizon_secs, None);
    }

    #[test]
    fn rejects_missing_or_garbage_header() {
        assert!(RequestTrace::parse("").is_err());
        assert!(RequestTrace::parse("not json\n").is_err());
        let err =
            RequestTrace::parse("{\"trace\":\"something-else\",\"version\":1}\n").unwrap_err();
        assert!(err.detail.contains("not a request trace"), "{err}");
        let bumped = meta().encode().replace("\"version\":1", "\"version\":99");
        let err = RequestTrace::parse(&bumped).unwrap_err();
        assert!(
            err.detail.contains("unsupported trace format version"),
            "{err}"
        );
    }

    #[test]
    fn rejects_ordering_violations_with_line_numbers() {
        let head = meta().encode();
        // seq not increasing
        let text = format!(
            "{head}\n{}\n{}\n",
            entry(5, 1, 0, "status", None).encode(),
            entry(5, 1, 0, "status", None).encode()
        );
        let err = RequestTrace::parse(&text).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.detail.contains("seq"), "{err}");
        // epoch going backwards
        let text = format!(
            "{head}\n{}\n{}\n",
            entry(1, 2, 10, "status", None).encode(),
            entry(2, 1, 10, "status", None).encode()
        );
        let err = RequestTrace::parse(&text).unwrap_err();
        assert!(err.detail.contains("epoch"), "{err}");
        // same epoch, two ticks
        let text = format!(
            "{head}\n{}\n{}\n",
            entry(1, 2, 10, "status", None).encode(),
            entry(2, 2, 11, "status", None).encode()
        );
        let err = RequestTrace::parse(&text).unwrap_err();
        assert!(err.detail.contains("disagree on tick_secs"), "{err}");
        // tick going backwards across epochs
        let text = format!(
            "{head}\n{}\n{}\n",
            entry(1, 2, 10, "status", None).encode(),
            entry(2, 3, 9, "status", None).encode()
        );
        let err = RequestTrace::parse(&text).unwrap_err();
        assert!(err.detail.contains("tick_secs"), "{err}");
    }

    #[test]
    fn rejects_job_misuse() {
        let head = meta().encode();
        let text = format!("{head}\n{}\n", entry(1, 1, 0, "accept", Some(3)).encode());
        let err = RequestTrace::parse(&text).unwrap_err();
        assert!(err.detail.contains("must not carry a job id"), "{err}");
        let text = format!(
            "{head}\n{}\n{}\n",
            entry(1, 1, 0, "negotiate", Some(3)).encode(),
            entry(2, 1, 0, "negotiate", Some(3)).encode()
        );
        let err = RequestTrace::parse(&text).unwrap_err();
        assert!(err.detail.contains("assigned by two"), "{err}");
    }

    #[test]
    fn rejects_truncated_lines_and_unknown_verbs() {
        let head = meta().encode();
        let full = entry(1, 1, 0, "status", None).encode();
        // Cut the entry line at every byte boundary: a mid-line truncation
        // must be a clean error, never a panic or silent acceptance.
        for cut in 1..full.len() {
            if !full.is_char_boundary(cut) {
                continue;
            }
            let text = format!("{head}\n{}\n", &full[..cut]);
            assert!(RequestTrace::parse(&text).is_err(), "cut at {cut}");
        }
        let text = format!("{head}\n{}\n", entry(1, 1, 0, "frobnicate", None).encode());
        let err = RequestTrace::parse(&text).unwrap_err();
        assert!(err.detail.contains("unknown verb"), "{err}");
    }

    #[test]
    fn blank_lines_are_ignored_and_numbers_stay_accurate() {
        let head = meta().encode();
        let text = format!(
            "\n{head}\n\n{}\nbroken\n",
            entry(1, 1, 0, "status", None).encode()
        );
        let err = RequestTrace::parse(&text).unwrap_err();
        assert_eq!(err.line, 5, "line numbers count physical lines");
    }

    /// The trace file's bytes, written out as literals (the oracle, now
    /// that the encoder they came from is gone).
    #[test]
    fn meta_and_entries_encode_to_their_golden_lines() {
        assert_eq!(
            meta().encode(),
            r#"{"trace":"pqos-request-trace","version":1,"source":"qosd","cluster_size":64,"time_scale":50000.0,"batch_threads":4,"quote_horizon_secs":14400,"predictor":"null","shards":1}"#
        );
        let with_rules = TraceMeta {
            quote_horizon_secs: None,
            shards: 4,
            slo: vec!["tight:rejects<=0@1".into(), "q:\"x\"".into()],
            slo_window_secs: 30,
            ..TraceMeta::qosd(8)
        };
        assert_eq!(
            with_rules.encode(),
            r#"{"trace":"pqos-request-trace","version":1,"source":"qosd","cluster_size":8,"time_scale":1.0,"batch_threads":1,"quote_horizon_secs":null,"predictor":"null","shards":4,"slo":["tight:rejects<=0@1","q:\"x\""],"slo_window_secs":30}"#
        );
        let negotiate = entry(7, 3, 120, "negotiate", Some(u64::MAX));
        let status = entry(8, 3, 120, "status", None);
        let golden = [
            r#"{"seq":7,"epoch":3,"tick_secs":120,"conn":1,"verb":"negotiate","job":18446744073709551615,"request":"{\"op\":\"negotiate\",\"id\":7}","response":"{\"id\":7,\"ok\":true}"}"#,
            r#"{"seq":8,"epoch":3,"tick_secs":120,"conn":1,"verb":"status","job":null,"request":"{\"op\":\"status\",\"id\":8}","response":"{\"id\":8,\"ok\":true}"}"#,
        ];
        assert_eq!(negotiate.encode(), golden[0]);
        assert_eq!(status.encode(), golden[1]);
        let mut appended = String::from("kept>");
        negotiate.encode_into(&mut appended);
        status.encode_into(&mut appended);
        assert_eq!(appended, format!("kept>{}{}", golden[0], golden[1]));
    }
}
