//! Protocol fuzz tests for trace files: hostile input must produce a
//! clean, line-anchored error — never a panic and never a silent
//! divergence (a trace that parses but replays something other than what
//! was recorded).

use pqos_service::replay::{replay, ReplayError, ReplayOptions};
use pqos_telemetry::reqtrace::{RequestTrace, TraceEntry, TraceMeta};

fn meta_line() -> String {
    TraceMeta::qosd(8).encode()
}

fn entry(seq: u64, epoch: u64, tick: u64, verb: &str, job: Option<u64>) -> TraceEntry {
    use pqos_service::protocol::Response;
    let (request, response) = match verb {
        "negotiate" => (
            format!(
                "{{\"verb\": \"negotiate\", \"id\": {seq}, \"size\": 2, \"runtime_secs\": 600}}"
            ),
            Response::Quote {
                id: seq,
                job: job.unwrap_or(1),
                start_secs: 0,
                promised_secs: 600,
                deadline_secs: 900,
                success_probability: 1.0,
                satisfied_threshold: true,
            }
            .encode(),
        ),
        "shutdown" => (
            format!("{{\"verb\": \"shutdown\", \"id\": {seq}}}"),
            Response::Ok { id: seq }.encode(),
        ),
        other => (
            format!("{{\"verb\": \"{other}\", \"id\": {seq}, \"job\": 1}}"),
            Response::Ok { id: seq }.encode(),
        ),
    };
    TraceEntry {
        seq,
        epoch,
        tick_secs: tick,
        conn: 1,
        verb: verb.into(),
        job,
        request,
        response,
    }
}

fn one_entry_text() -> String {
    format!(
        "{}\n{}\n",
        meta_line(),
        entry(1, 1, 0, "negotiate", Some(1)).encode()
    )
}

#[test]
fn truncation_at_every_byte_never_panics() {
    let text = one_entry_text();
    for cut in 0..text.len() {
        // Either a valid prefix (blank tail) or a line-anchored error;
        // the parser must never panic on truncated input.
        let _ = RequestTrace::parse(&text[..cut]);
    }
}

#[test]
fn garbage_lines_are_line_anchored_errors() {
    let cases = [
        ("", "empty input"),
        ("not json\n", "non-JSON meta"),
        (
            "{\"trace\": \"wrong-kind\", \"version\": 1}\n",
            "wrong kind",
        ),
        ("[1,2,3]\n", "non-object meta"),
        ("\u{0}\u{1}\u{2}\n", "control bytes"),
    ];
    for (text, what) in cases {
        let err = RequestTrace::parse(text).expect_err(what);
        assert!(err.line >= 1, "{what}: error must anchor to a line");
    }
    // Garbage after a valid meta anchors to the offending line.
    let text = format!("{}\nnot an entry\n", meta_line());
    let err = RequestTrace::parse(&text).expect_err("garbage entry");
    assert_eq!(err.line, 2);
}

#[test]
fn out_of_order_epochs_and_seqs_are_rejected() {
    let backwards_epoch = format!(
        "{}\n{}\n{}\n",
        meta_line(),
        entry(1, 2, 60, "negotiate", Some(1)).encode(),
        entry(2, 1, 0, "negotiate", Some(2)).encode(),
    );
    let err = RequestTrace::parse(&backwards_epoch).expect_err("epoch went backwards");
    assert_eq!(err.line, 3);

    let duplicate_seq = format!(
        "{}\n{}\n{}\n",
        meta_line(),
        entry(1, 1, 0, "negotiate", Some(1)).encode(),
        entry(1, 1, 0, "negotiate", Some(2)).encode(),
    );
    assert!(RequestTrace::parse(&duplicate_seq).is_err());

    let backwards_tick = format!(
        "{}\n{}\n{}\n",
        meta_line(),
        entry(1, 1, 60, "negotiate", Some(1)).encode(),
        entry(2, 2, 0, "negotiate", Some(2)).encode(),
    );
    assert!(RequestTrace::parse(&backwards_tick).is_err());

    // Two entries of one epoch disagreeing on the tick: the engine
    // advances once per epoch, so this trace is internally inconsistent.
    let split_tick = format!(
        "{}\n{}\n{}\n",
        meta_line(),
        entry(1, 1, 0, "negotiate", Some(1)).encode(),
        entry(2, 1, 60, "negotiate", Some(2)).encode(),
    );
    assert!(RequestTrace::parse(&split_tick).is_err());
}

#[test]
fn interleaved_connection_ids_replay_fine() {
    // Connection ids are labels, not ordering: entries from different
    // connections interleaved within an epoch are a normal recording.
    let mut a = entry(1, 1, 0, "negotiate", Some(1));
    a.conn = 7;
    let mut b = entry(2, 1, 0, "negotiate", Some(2));
    b.conn = 3;
    let text = format!("{}\n{}\n{}\n", meta_line(), a.encode(), b.encode());
    let trace = RequestTrace::parse(&text).expect("interleaved conns parse");
    let report = replay(&trace, &ReplayOptions::default()).expect("and replay");
    assert_eq!(report.entries_replayed, 2);
}

#[test]
fn malformed_payloads_are_clean_replay_errors() {
    // Schema-valid trace, nonsense request payload.
    let mut bad_request = entry(1, 1, 0, "negotiate", Some(1));
    bad_request.request = "{\"verb\": \"negotiate\"".into(); // truncated JSON
    let trace = RequestTrace {
        meta: RequestTrace::parse(&one_entry_text()).unwrap().meta,
        entries: vec![bad_request],
    };
    let err = replay(&trace, &ReplayOptions::default()).expect_err("bad payload");
    assert!(matches!(err, ReplayError::BadEntry { seq: 1, .. }), "{err}");

    // Entry verb disagreeing with its payload.
    let mut wrong_verb = entry(1, 1, 0, "negotiate", Some(1));
    wrong_verb.request = "{\"verb\": \"status\", \"id\": 1}".into();
    let trace = RequestTrace {
        meta: RequestTrace::parse(&one_entry_text()).unwrap().meta,
        entries: vec![wrong_verb],
    };
    let err = replay(&trace, &ReplayOptions::default()).expect_err("verb mismatch");
    assert!(matches!(err, ReplayError::BadEntry { seq: 1, .. }), "{err}");

    // An executed negotiate with no recorded job id cannot be replayed.
    let no_job = entry(1, 1, 0, "negotiate", None);
    let trace = RequestTrace {
        meta: RequestTrace::parse(&one_entry_text()).unwrap().meta,
        entries: vec![no_job],
    };
    let err = replay(&trace, &ReplayOptions::default()).expect_err("missing job id");
    assert!(matches!(err, ReplayError::BadEntry { seq: 1, .. }), "{err}");
}

#[test]
fn foreign_sources_and_predictors_are_refused_not_guessed() {
    let loadgen = one_entry_text().replace("\"qosd\"", "\"loadgen\"");
    let trace = RequestTrace::parse(&loadgen).expect("loadgen traces parse fine");
    let err = replay(&trace, &ReplayOptions::default()).expect_err("but do not replay");
    assert!(matches!(err, ReplayError::Unsupported(_)));
    assert!(err.to_string().contains("pqos-qosd --record"), "{err}");

    let alien = one_entry_text().replace("\"null\"", "\"crystal-ball\"");
    let trace = RequestTrace::parse(&alien).expect("unknown predictors parse fine");
    let err = replay(&trace, &ReplayOptions::default()).expect_err("but do not replay");
    assert!(matches!(err, ReplayError::Unsupported(_)));
}

#[test]
fn authored_trace_round_trips_through_encode_and_replay() {
    let text = format!(
        "{}\n{}\n{}\n",
        meta_line(),
        entry(1, 1, 0, "negotiate", Some(1)).encode(),
        entry(2, 2, 60, "shutdown", None).encode(),
    );
    let trace = RequestTrace::parse(&text).expect("parses");
    assert_eq!(trace.encode(), text, "encode is a fixpoint");
    // The authored quote's numbers are made up, so parity mismatches are
    // expected — what matters is the replay is clean, not divergent
    // silently: the mismatch is *reported*.
    let report = replay(&trace, &ReplayOptions::default()).expect("replays");
    assert!(report.shutdown_seen);
    assert_eq!(report.parity_checked, 2);
    assert_eq!(report.mismatches.len(), 1, "the made-up quote is flagged");
    assert_eq!(report.mismatches[0].seq, 1);
}
