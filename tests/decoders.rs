//! Decoder equivalence: the field-pulling decoders against the tree.
//!
//! `RequestTrace::parse`'s entry reader, `Request::parse`, `Response::parse`
//! and `TelemetryEvent::from_jsonl` read a line in one pass without
//! building a `Json` tree. The `reference` module below is what they did
//! before — `Json::parse`, then `get` per field — and every decoder must
//! accept and reject exactly the lines its reference does, with the same
//! values and the same error text, over every line of the failing-trace
//! corpus and seeded mutations of those lines.

use pqos_service::protocol::{Request, Response, StatusBody};
use pqos_sim_core::rng::DetRng;
use pqos_telemetry::json::Json;
use pqos_telemetry::reqtrace::{RequestTrace, TraceEntry, TraceMeta};
use pqos_telemetry::TelemetryEvent;

/// The decoders as they were written over the tree.
mod reference {
    use pqos_service::protocol::{ErrorCode, ParseError, Request, Response, StatusBody};
    use pqos_sim_core::time::SimTime;
    use pqos_telemetry::json::Json;
    use pqos_telemetry::reqtrace::TraceEntry;
    use pqos_telemetry::{AlertState, PromiseVerdict, SkipReason, TelemetryEvent};

    fn field<'j>(v: &'j Json, key: &str) -> Result<&'j Json, String> {
        v.get(key).ok_or_else(|| format!("missing field {key:?}"))
    }

    fn u64_field(v: &Json, key: &str) -> Result<u64, String> {
        field(v, key)?
            .as_u64()
            .ok_or_else(|| format!("field {key:?} is not an unsigned integer"))
    }

    fn str_field(v: &Json, key: &str) -> Result<String, String> {
        Ok(field(v, key)?
            .as_str()
            .ok_or_else(|| format!("field {key:?} is not a string"))?
            .to_string())
    }

    pub fn trace_entry(line: &str) -> Result<TraceEntry, String> {
        let v = Json::parse(line.trim()).ok_or_else(|| "entry is not valid JSON".to_string())?;
        if v.get("trace").is_some() {
            return Err("second meta header inside the trace body".into());
        }
        let job_field = field(&v, "job")?;
        let job =
            if job_field.is_null() {
                None
            } else {
                Some(job_field.as_u64().ok_or_else(|| {
                    "field \"job\" is not an unsigned integer or null".to_string()
                })?)
            };
        Ok(TraceEntry {
            seq: u64_field(&v, "seq")?,
            epoch: u64_field(&v, "epoch")?,
            tick_secs: u64_field(&v, "tick_secs")?,
            conn: u64_field(&v, "conn")?,
            verb: str_field(&v, "verb")?,
            job,
            request: str_field(&v, "request")?,
            response: str_field(&v, "response")?,
        })
    }

    pub fn request(line: &str) -> Result<Request, ParseError> {
        let fail = |id, detail| Err(ParseError { id, detail });
        let Some(v) = Json::parse(line.trim()) else {
            return fail(None, "not valid JSON");
        };
        let id = v.get("id").and_then(Json::as_u64);
        let Some(verb) = v.get("verb").and_then(Json::as_str) else {
            return fail(id, "missing verb");
        };
        let Some(id) = id else {
            return fail(None, "missing numeric id");
        };
        match verb {
            "negotiate" => {
                let Some(size) = v.get("size").and_then(Json::as_u64) else {
                    return fail(Some(id), "negotiate: missing size");
                };
                let Some(runtime_secs) = v.get("runtime_secs").and_then(Json::as_u64) else {
                    return fail(Some(id), "negotiate: missing runtime_secs");
                };
                let Ok(size) = u32::try_from(size) else {
                    return fail(Some(id), "negotiate: size out of range");
                };
                if size == 0 || runtime_secs == 0 {
                    return fail(
                        Some(id),
                        "negotiate: size and runtime_secs must be positive",
                    );
                }
                Ok(Request::Negotiate {
                    id,
                    size,
                    runtime_secs,
                })
            }
            "accept" | "cancel" => {
                let Some(job) = v.get("job").and_then(Json::as_u64) else {
                    return fail(Some(id), "missing job");
                };
                Ok(if verb == "accept" {
                    Request::Accept { id, job }
                } else {
                    Request::Cancel { id, job }
                })
            }
            "status" => Ok(Request::Status { id }),
            "dump" => Ok(Request::Dump { id }),
            "history" => Ok(Request::History { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            _ => fail(Some(id), "unknown verb"),
        }
    }

    pub fn response(line: &str) -> Option<Response> {
        let v = Json::parse(line.trim())?;
        let id = v.get("id").and_then(Json::as_u64)?;
        let ok = v.get("ok").and_then(Json::as_bool)?;
        if !ok {
            let code = ErrorCode::parse(v.get("error").and_then(Json::as_str)?)?;
            let detail = v
                .get("detail")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
            return Some(Response::Error { id, code, detail });
        }
        if let Some(trace) = v.get("trace").and_then(Json::as_str) {
            return Some(Response::Dump {
                id,
                trace: trace.to_string(),
            });
        }
        if let Some(history) = v.get("history").and_then(Json::as_str) {
            return Some(Response::History {
                id,
                history: history.to_string(),
            });
        }
        if let Some(job) = v.get("job").and_then(Json::as_u64) {
            return Some(Response::Quote {
                id,
                job,
                start_secs: v.get("start_secs").and_then(Json::as_u64)?,
                promised_secs: v.get("promised_secs").and_then(Json::as_u64)?,
                deadline_secs: v.get("deadline_secs").and_then(Json::as_u64)?,
                success_probability: v.get("success_probability").and_then(Json::as_f64)?,
                satisfied_threshold: v.get("satisfied_threshold").and_then(Json::as_bool)?,
            });
        }
        if v.get("now_secs").is_some() {
            let u = |key: &str| v.get(key).and_then(Json::as_u64);
            return Some(Response::Status {
                id,
                body: StatusBody {
                    now_secs: u("now_secs")?,
                    cluster_size: u32::try_from(u("cluster_size")?).ok()?,
                    occupied_nodes: u32::try_from(u("occupied_nodes")?).ok()?,
                    reservations: u("reservations")?,
                    quoted: u("quoted")?,
                    rejected: u("rejected")?,
                    accepted: u("accepted")?,
                    expired: u("expired")?,
                    cancelled: u("cancelled")?,
                    started: u("started")?,
                    completed: u("completed")?,
                    parity_checked: u("parity_checked")?,
                    parity_violations: u("parity_violations")?,
                    queue_depth: u("queue_depth").unwrap_or(0),
                    uptime_secs: u("uptime_secs").unwrap_or(0),
                    live_jobs: u("live_jobs").unwrap_or(0),
                    overloaded: u("overloaded").unwrap_or(0),
                    journal_events_written: u("journal_events_written").unwrap_or(0),
                    journal_ring_dropped: u("journal_ring_dropped").unwrap_or(0),
                    journal_write_errors: u("journal_write_errors").unwrap_or(0),
                    parity_sample: u("parity_sample").unwrap_or(1),
                    promises_made: u("promises_made").unwrap_or(0),
                    promises_kept: u("promises_kept").unwrap_or(0),
                    promises_broken: u("promises_broken").unwrap_or(0),
                    promises_cancelled: u("promises_cancelled").unwrap_or(0),
                    worst_residual_milli: v
                        .get("worst_residual_milli")
                        .and_then(Json::as_i64)
                        .unwrap_or(0),
                    shards: u("shards").unwrap_or(1),
                    shard_queue: v
                        .get("shard_queue")
                        .and_then(Json::as_arr)
                        .map(|a| a.iter().filter_map(Json::as_u64).collect())
                        .unwrap_or_default(),
                },
            });
        }
        Some(Response::Ok { id })
    }

    pub fn event(line: &str) -> Option<TelemetryEvent> {
        let v = Json::parse(line.trim())?;
        let at = SimTime::from_secs(v.get("at")?.as_u64()?);
        let job = |v: &Json| v.get("job").and_then(Json::as_u64);
        match v.get("event")?.as_str()? {
            "job_submitted" => Some(TelemetryEvent::JobSubmitted {
                at,
                job: job(&v)?,
                size: u32::try_from(v.get("size")?.as_u64()?).ok()?,
                runtime_secs: v.get("runtime_secs")?.as_u64()?,
            }),
            "quote_negotiated" => Some(TelemetryEvent::QuoteNegotiated {
                at,
                job: job(&v)?,
                start_secs: v.get("start_secs")?.as_u64()?,
                promised_secs: v.get("promised_secs")?.as_u64()?,
                deadline_secs: v.get("deadline_secs")?.as_u64()?,
                success_probability: v.get("success_probability")?.as_f64()?,
            }),
            "job_rejected" => Some(TelemetryEvent::JobRejected { at, job: job(&v)? }),
            "job_placed" => Some(TelemetryEvent::JobPlaced {
                at,
                job: job(&v)?,
                nodes: v
                    .get("nodes")?
                    .as_arr()?
                    .iter()
                    .map(Json::as_u64)
                    .collect::<Option<Vec<_>>>()?,
                failure_probability: v.get("failure_probability")?.as_f64()?,
            }),
            "job_started" => Some(TelemetryEvent::JobStarted {
                at,
                job: job(&v)?,
                restarts: u32::try_from(v.get("restarts")?.as_u64()?).ok()?,
            }),
            "checkpoint_requested" => {
                Some(TelemetryEvent::CheckpointRequested { at, job: job(&v)? })
            }
            "checkpoint_taken" => Some(TelemetryEvent::CheckpointTaken {
                at,
                job: job(&v)?,
                overhead_secs: v.get("overhead_secs")?.as_u64()?,
            }),
            "checkpoint_skipped" => Some(TelemetryEvent::CheckpointSkipped {
                at,
                job: job(&v)?,
                reason: SkipReason::parse(v.get("reason")?.as_str()?)?,
                failure_probability: v.get("failure_probability")?.as_f64()?,
                at_risk_secs: v.get("at_risk_secs")?.as_u64()?,
            }),
            "node_failed" => Some(TelemetryEvent::NodeFailed {
                at,
                node: v.get("node")?.as_u64()?,
                victim_job: {
                    let vj = v.get("victim_job")?;
                    if vj.is_null() {
                        None
                    } else {
                        Some(vj.as_u64()?)
                    }
                },
                lost_node_seconds: v.get("lost_node_seconds")?.as_u64()?,
                predicted: v.get("predicted")?.as_bool()?,
            }),
            "node_recovered" => Some(TelemetryEvent::NodeRecovered {
                at,
                node: v.get("node")?.as_u64()?,
            }),
            "job_requeued" => Some(TelemetryEvent::JobRequeued {
                at,
                job: job(&v)?,
                remaining_secs: v.get("remaining_secs")?.as_u64()?,
            }),
            "job_completed" => Some(TelemetryEvent::JobCompleted {
                at,
                job: job(&v)?,
                met_deadline: v.get("met_deadline")?.as_bool()?,
            }),
            "deadline_missed" => Some(TelemetryEvent::DeadlineMissed {
                at,
                job: job(&v)?,
                late_by_secs: v.get("late_by_secs")?.as_u64()?,
            }),
            "job_cancelled" => Some(TelemetryEvent::JobCancelled { at, job: job(&v)? }),
            "promise_resolved" => Some(TelemetryEvent::PromiseResolved {
                at,
                job: job(&v)?,
                success_probability: v.get("success_probability")?.as_f64()?,
                deadline_secs: v.get("deadline_secs")?.as_u64()?,
                verdict: PromiseVerdict::parse(v.get("verdict")?.as_str()?)?,
            }),
            "slo_alert" => Some(TelemetryEvent::SloAlert {
                at,
                rule: v.get("rule")?.as_str()?.to_string(),
                state: AlertState::parse(v.get("state")?.as_str()?)?,
                window_end_secs: v.get("window_end_secs")?.as_u64()?,
                value: v.get("value")?.as_f64()?,
                threshold: v.get("threshold")?.as_f64()?,
            }),
            _ => None,
        }
    }
}

/// Runs all four decoders on `line` next to their references. Every
/// decoder sees every line: a journal line must be refused as a request
/// the same way, too.
fn check(line: &str) {
    assert_eq!(
        Request::parse(line),
        reference::request(line),
        "Request::parse on {line:?}"
    );
    assert_eq!(
        Response::parse(line),
        reference::response(line),
        "Response::parse on {line:?}"
    );
    assert_eq!(
        TelemetryEvent::from_jsonl(line),
        reference::event(line),
        "from_jsonl on {line:?}"
    );
    check_trace_entry(line);
}

/// The entry reader is private: drive it through `RequestTrace::parse`
/// with a header in front. A line its reference refuses must be refused
/// on line 2 with the same detail; one it accepts must come back equal,
/// unless the whole-trace checks that run after it (verb, job id) refuse
/// the entry.
fn check_trace_entry(line: &str) {
    if line.trim().is_empty() || line.contains('\n') || line.contains('\r') {
        // The trace reader drops blank lines and splits on line breaks
        // before the entry reader sees anything.
        return;
    }
    let text = format!("{}\n{line}\n", TraceMeta::qosd(8).encode());
    match (reference::trace_entry(line), RequestTrace::parse(&text)) {
        (Err(detail), Err(err)) => {
            assert_eq!(
                (err.line, err.detail.as_str()),
                (2, detail.as_str()),
                "{line:?}"
            )
        }
        (Ok(entry), Ok(trace)) => assert_eq!(trace.entries, [entry], "{line:?}"),
        (Ok(entry), Err(err)) => assert!(
            err.detail.starts_with("unknown verb") || err.detail.contains("must not carry a job"),
            "{line:?}: reference read {entry:?}, the trace reader said {err}"
        ),
        (Err(detail), Ok(_)) => panic!("{line:?}: reference refused it ({detail})"),
    }
}

/// Every line of the corpus, plus the request and response payloads its
/// trace entries carry, plus one line of every event, request and
/// response shape the corpus happens not to hold (a status snapshot, a
/// dump, node failures, ...).
fn corpus_lines() -> Vec<String> {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../traces/failing");
    let mut lines = Vec::new();
    let mut cases: Vec<_> = std::fs::read_dir(root)
        .expect("traces/failing")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.is_dir())
        .collect();
    cases.sort();
    assert!(cases.len() >= 6, "corpus went missing: {cases:?}");
    for case in cases {
        for file in ["trace.jsonl", "journal.jsonl"] {
            let text = std::fs::read_to_string(case.join(file)).expect("corpus file");
            lines.extend(text.lines().map(str::to_string));
        }
        let trace = std::fs::read_to_string(case.join("trace.jsonl")).expect("trace");
        for entry in RequestTrace::parse(&trace).expect("corpus trace").entries {
            lines.push(entry.request);
            lines.push(entry.response);
        }
    }
    lines.extend(
        pqos_telemetry::one_of_each()
            .iter()
            .map(TelemetryEvent::to_jsonl),
    );
    lines.extend(
        [
            Request::Status { id: 4 },
            Request::Dump { id: 5 },
            Request::History { id: 6 },
        ]
        .iter()
        .map(Request::encode),
    );
    lines.extend(
        [
            Response::Status {
                id: 3,
                body: StatusBody {
                    now_secs: 120,
                    cluster_size: 64,
                    worst_residual_milli: -125,
                    shards: 4,
                    shard_queue: vec![12, 9, 11, 8, 2],
                    ..StatusBody::default()
                },
            },
            Response::Dump {
                id: 9,
                trace: "{\"traceEvents\":[{\"name\":\"é\"}]}\n".into(),
            },
            Response::History {
                id: 10,
                history: "{\"history\":true,\"families\":[]}".into(),
            },
        ]
        .iter()
        .map(Response::encode),
    );
    lines
}

/// Renders a tree back to text, with `pad` after every structural
/// character when asked for whitespace.
fn render(v: &Json, pad: &str, out: &mut String) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Num(raw) => out.push_str(raw),
        Json::Str(s) => render_str(s, out),
        Json::Arr(items) => {
            out.push('[');
            out.push_str(pad);
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                    out.push_str(pad);
                }
                render(item, pad, out);
                out.push_str(pad);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            out.push_str(pad);
            for (i, (key, value)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                    out.push_str(pad);
                }
                render_str(key, out);
                out.push_str(pad);
                out.push(':');
                out.push_str(pad);
                render(value, pad, out);
                out.push_str(pad);
            }
            out.push('}');
        }
    }
}

fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn rendered(v: &Json, pad: &str) -> String {
    let mut out = String::new();
    render(v, pad, &mut out);
    out
}

/// Raw value texts swapped in for a field's value, one at a time.
const ODD_VALUES: &[&str] = &[
    "-0",
    "1e3",
    "1.",
    ".5",
    "-",
    "+1",
    "01",
    "1e",
    "--1",
    "1.5",
    "100000000000000000000",
    "18446744073709551615",
    "18446744073709551616",
    "null",
    "true",
    "[]",
    "{}",
    "[1,[2,[3]]]",
    "\"\"",
    "\"a\\\"b\"",
    "\"a\\\\b\"",
    "\"\\u00e9\"",
    "\"é\"",
    "\"\\ud800\"",
    "\"\\ud83d\\ude80\"",
    "\"\\u+041\"",
    "\"\\x\"",
    "\"\\",
    "\"neg\\u006ftiate\"",
    "\"job_\\u0070laced\"",
];

/// The seeded mutations of one valid line.
fn mutations(line: &str, rng: &mut DetRng) -> Vec<String> {
    let mut out = Vec::new();
    // Truncation at every byte (that is a char boundary).
    out.extend(
        (0..line.len())
            .filter(|&cut| line.is_char_boundary(cut))
            .map(|cut| line[..cut].to_string()),
    );
    // Trailing garbage and surrounding whitespace.
    out.push(format!("{line} x"));
    out.push(format!("{line}{line}"));
    out.push(format!(" \t{line}\u{a0}\u{3000}"));
    let Some(Json::Obj(pairs)) = Json::parse(line.trim()) else {
        return out;
    };
    let obj = |pairs: Vec<(String, Json)>, pad: &str| rendered(&Json::Obj(pairs), pad);
    // Whitespace after every structural character.
    for pad in [" ", "\t \r\n"] {
        out.push(obj(pairs.clone(), pad));
    }
    // Reordered keys.
    let mut reversed = pairs.clone();
    reversed.reverse();
    out.push(obj(reversed, ""));
    let mut shuffled = pairs.clone();
    rng.shuffle(&mut shuffled);
    out.push(obj(shuffled, ""));
    for at in 0..pairs.len() {
        // A key dropped; a key escaped in its spelling.
        let mut dropped = pairs.clone();
        dropped.remove(at);
        out.push(obj(dropped, ""));
        let text = obj(pairs.clone(), "");
        let key = format!("\"{}\":", pairs[at].0);
        let spelled: String = pairs[at]
            .0
            .chars()
            .map(|c| format!("\\u{:04x}", c as u32))
            .collect();
        out.push(text.replacen(&key, &format!("\"{spelled}\":"), 1));
        // A key duplicated with another value, before and after the
        // original: the first occurrence wins.
        let other = pairs[rng.uniform_u64(0, pairs.len() as u64 - 1) as usize]
            .1
            .clone();
        let mut before = pairs.clone();
        before.insert(0, (pairs[at].0.clone(), other.clone()));
        out.push(obj(before, ""));
        let mut after = pairs.clone();
        after.push((pairs[at].0.clone(), other));
        out.push(obj(after, ""));
        // The value swapped for each odd text.
        let own = rendered(&pairs[at].1, "");
        for odd in ODD_VALUES {
            out.push(text.replacen(&format!("{key}{own}"), &format!("{key}{odd}"), 1));
        }
    }
    // `nodes` lists of 0, 1 and 1,100 entries, and one that is not all
    // integers.
    if pairs.iter().any(|(k, _)| k == "nodes") {
        let big: Vec<String> = (0..1_100).map(|n| n.to_string()).collect();
        for list in [
            "[]",
            "[7]",
            &format!("[{}]", big.join(",")),
            "[1,null,3]",
            "[1,-2]",
        ] {
            let swapped = pairs
                .iter()
                .map(|(k, v)| match k.as_str() {
                    "nodes" => (k.clone(), Json::parse(list).expect("a list")),
                    _ => (k.clone(), v.clone()),
                })
                .collect();
            out.push(obj(swapped, ""));
        }
    }
    out
}

#[test]
fn decoders_agree_with_the_tree_on_the_corpus() {
    let lines = corpus_lines();
    assert!(lines.len() > 100, "corpus too small: {}", lines.len());
    for line in &lines {
        check(line);
    }
}

#[test]
fn decoders_agree_with_the_tree_on_mutated_corpus_lines() {
    let mut rng = DetRng::seed_from(0xdec0de);
    // One line of each shape is enough to mutate: shape = the key set.
    let mut seen = std::collections::BTreeSet::new();
    let mut checked = 0usize;
    for line in corpus_lines() {
        let Some(Json::Obj(pairs)) = Json::parse(line.trim()) else {
            continue;
        };
        let mut shape: Vec<String> = pairs
            .iter()
            .map(|(k, v)| match (k.as_str(), v) {
                ("event" | "verb" | "error", Json::Str(s)) => format!("{k}={s}"),
                _ => k.clone(),
            })
            .collect();
        shape.sort();
        if !seen.insert(shape) {
            continue;
        }
        for mutated in mutations(&line, &mut rng) {
            check(&mutated);
            checked += 1;
        }
    }
    assert!(seen.len() >= 30, "too few line shapes: {}", seen.len());
    assert!(checked > 10_000, "too few mutations: {checked}");
}

#[test]
fn deep_lines_are_refused_by_every_decoder() {
    for line in [
        "[".repeat(100_000),
        "{\"id\":1,\"verb\":\"status\",\"x\":".to_string() + &"[".repeat(100_000),
        format!(
            "{{\"id\":1,\"verb\":\"status\",\"x\":{}{}}}",
            "[".repeat(33),
            "]".repeat(33)
        ),
    ] {
        assert_eq!(Request::parse(&line).unwrap_err().detail, "not valid JSON");
        assert_eq!(Response::parse(&line), None);
        assert_eq!(TelemetryEvent::from_jsonl(&line), None);
        check_trace_entry(&line);
    }
    // One level shallower is an ordinary line with a field nobody reads.
    let line = format!(
        "{{\"id\":1,\"verb\":\"status\",\"x\":{}{}}}",
        "[".repeat(31),
        "]".repeat(31)
    );
    assert_eq!(Request::parse(&line), Ok(Request::Status { id: 1 }));
}

#[test]
fn replay_still_validates_recorded_payloads() {
    use pqos_service::replay::{replay, ReplayError, ReplayOptions};
    let entry = |verb: &str, job, request: &str, response: &str| TraceEntry {
        seq: 1,
        epoch: 1,
        tick_secs: 0,
        conn: 1,
        verb: verb.into(),
        job,
        request: request.into(),
        response: response.into(),
    };
    let negotiate = r#"{"id":1,"verb":"negotiate","size":2,"runtime_secs":60}"#;
    let ok = r#"{"id":1,"ok":true}"#;
    for (entry, want) in [
        (
            entry("negotiate", Some(1), "{\"id\":1,\"verb\":", ok),
            "request does not parse: not valid JSON",
        ),
        (
            entry("negotiate", Some(1), negotiate, "{\"id\":1,\"ok\":"),
            "response does not parse",
        ),
        (
            entry("accept", None, negotiate, ok),
            "entry verb \"accept\" disagrees with its request payload (\"negotiate\")",
        ),
        (
            entry("negotiate", None, negotiate, ok),
            "executed negotiate is missing its engine-assigned job id",
        ),
    ] {
        let trace = RequestTrace {
            meta: TraceMeta::qosd(8),
            entries: vec![entry],
        };
        match replay(&trace, &ReplayOptions::default()) {
            Err(ReplayError::BadEntry { seq: 1, detail }) => assert_eq!(detail, want),
            other => panic!("wanted BadEntry({want}), got {other:?}"),
        }
    }

    // Multi-entry epochs: when more than one entry is malformed, or a
    // malformed one hides behind a shutdown, a wall-clock verb, a disabled
    // parity check or an escaped timeout, replay blames the first malformed
    // entry in trace order, whether its fault is in the request or in the
    // recorded response. Every entry of a case shares epoch 1; a negotiate
    // carries its seq as its engine-assigned job id.
    let entry = |seq: u64, verb: &str, request: &str, response: &str| TraceEntry {
        seq,
        epoch: 1,
        tick_secs: 0,
        conn: 1,
        verb: verb.into(),
        job: (verb == "negotiate").then_some(seq),
        request: request.into(),
        response: response.into(),
    };
    let negotiate =
        |id: u64| format!(r#"{{"id":{id},"verb":"negotiate","size":2,"runtime_secs":60}}"#);
    let ok = |id: u64| format!(r#"{{"id":{id},"ok":true}}"#);
    let torn = r#"{"id":1,"ok":"#;
    let unparsed_request = "request does not parse: not valid JSON";
    let unparsed_response = "response does not parse";
    let cases: Vec<(&str, Vec<TraceEntry>, bool, u64, &str)> = vec![
        (
            "a bad response, then a bad request",
            vec![
                entry(1, "negotiate", &negotiate(1), torn),
                entry(2, "negotiate", "{\"id\":2,\"verb\":", &ok(2)),
            ],
            true,
            1,
            unparsed_response,
        ),
        (
            "a bad request, then a bad response",
            vec![
                entry(1, "negotiate", "{\"id\":1,\"verb\":", &ok(1)),
                entry(2, "negotiate", &negotiate(2), torn),
            ],
            true,
            1,
            unparsed_request,
        ),
        (
            "a bad response, then a negotiate without its job id",
            vec![
                entry(1, "accept", r#"{"id":1,"verb":"accept","job":7}"#, torn),
                TraceEntry {
                    job: None,
                    ..entry(2, "negotiate", &negotiate(2), &ok(2))
                },
            ],
            true,
            1,
            unparsed_response,
        ),
        (
            "a negotiate without its job id and with a bad response",
            vec![
                entry(1, "accept", r#"{"id":1,"verb":"accept","job":7}"#, &ok(1)),
                TraceEntry {
                    job: None,
                    ..entry(2, "negotiate", &negotiate(2), torn)
                },
            ],
            true,
            2,
            unparsed_response,
        ),
        (
            "a bad response behind a mid-epoch shutdown",
            vec![
                entry(1, "negotiate", &negotiate(1), &ok(1)),
                entry(2, "shutdown", r#"{"id":2,"verb":"shutdown"}"#, &ok(2)),
                entry(3, "negotiate", &negotiate(3), torn),
                entry(4, "cancel", r#"{"id":4,"verb":"cancel","job":1}"#, &ok(4)),
            ],
            true,
            3,
            unparsed_response,
        ),
        (
            "a bad response on a status entry",
            vec![
                entry(1, "negotiate", &negotiate(1), &ok(1)),
                entry(
                    2,
                    "status",
                    r#"{"id":2,"verb":"status"}"#,
                    r#"{"id":2,"ok":true,"now_secs":}"#,
                ),
                entry(3, "negotiate", "{\"id\":3,\"verb\":", &ok(3)),
            ],
            true,
            2,
            unparsed_response,
        ),
        (
            "a garbled ok:true response under check_parity: false",
            vec![
                entry(1, "negotiate", &negotiate(1), &ok(1)),
                entry(2, "negotiate", &negotiate(2), r#"{"id":2,"ok":true,}"#),
                entry(3, "negotiate", &negotiate(3), &ok(3)),
            ],
            false,
            2,
            unparsed_response,
        ),
        (
            "a recorded timeout whose detail holds an escape",
            vec![
                // Honored as a timeout, so the missing job id is no fault.
                TraceEntry {
                    job: None,
                    ..entry(
                        1,
                        "negotiate",
                        &negotiate(1),
                        r#"{"id":1,"ok":false,"error":"timeout","detail":"queued \"too\" long"}"#,
                    )
                },
                entry(2, "negotiate", &negotiate(2), torn),
            ],
            true,
            2,
            unparsed_response,
        ),
        (
            "a recorded timeout whose code is escaped",
            vec![
                TraceEntry {
                    job: None,
                    ..entry(
                        1,
                        "negotiate",
                        &negotiate(1),
                        r#"{"id":1,"ok":false,"error":"time\u006fut","detail":""}"#,
                    )
                },
                entry(2, "negotiate", "{\"id\":2,\"verb\":", &ok(2)),
            ],
            true,
            2,
            unparsed_request,
        ),
    ];
    for (name, entries, check_parity, want_seq, want) in cases {
        let trace = RequestTrace {
            meta: TraceMeta::qosd(8),
            entries,
        };
        let opts = ReplayOptions {
            check_parity,
            ..ReplayOptions::default()
        };
        match replay(&trace, &opts) {
            Err(ReplayError::BadEntry { seq, detail }) => {
                assert_eq!((seq, detail.as_str()), (want_seq, want), "{name}")
            }
            other => panic!("{name}: wanted BadEntry({want_seq}, {want}), got {other:?}"),
        }
    }
}
