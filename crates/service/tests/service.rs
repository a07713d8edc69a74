//! End-to-end tests: a real daemon on a loopback socket, driven by the
//! load generator and by a protocol fuzzer, with the resulting journal
//! certified by the doctor.

use pqos_core::config::SimConfig;
use pqos_core::session::NegotiationSession;
use pqos_obs::doctor::Doctor;
use pqos_predict::api::NullPredictor;
use pqos_service::engine::EngineConfig;
use pqos_service::flight;
use pqos_service::loadgen::{self, LoadgenConfig};
use pqos_service::protocol::{Request, Response};
use pqos_service::scrape;
use pqos_service::server::{serve_core, ServerConfig};
use pqos_service::shard::ShardedCore;
use pqos_sim_core::rng::DetRng;
use pqos_telemetry::{expo, Telemetry};
use pqos_workload::synthetic::LogModel;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A journal sink the test can read back after the daemon drains.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Starts a daemon on a free loopback port; returns its address, the
/// `/metrics` address when requested, and the shared journal buffer. The
/// server thread exits after a shutdown verb.
fn start_daemon_full(
    cluster_size: u32,
    engine: EngineConfig,
    with_metrics: bool,
) -> (
    String,
    Option<String>,
    SharedBuf,
    std::thread::JoinHandle<()>,
) {
    let journal = SharedBuf::default();
    let telemetry = Telemetry::builder()
        .jsonl_writer(journal.clone())
        .flush_every(64)
        .build();
    let session = NegotiationSession::new(
        SimConfig::paper_defaults().cluster_size_nodes(cluster_size),
        NullPredictor,
        telemetry,
    )
    .verify_parity(true);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let metrics = with_metrics.then(|| TcpListener::bind("127.0.0.1:0").expect("bind metrics"));
    let metrics_addr = metrics
        .as_ref()
        .map(|l| l.local_addr().expect("metrics addr").to_string());
    let config = ServerConfig {
        engine,
        metrics,
        ..ServerConfig::default()
    };
    let server = std::thread::spawn(move || {
        serve_core(listener, ShardedCore::single(session), config).expect("serve");
    });
    (addr, metrics_addr, journal, server)
}

fn start_daemon(
    cluster_size: u32,
    time_scale: f64,
) -> (String, SharedBuf, std::thread::JoinHandle<()>) {
    let engine = EngineConfig {
        time_scale,
        ..EngineConfig::default()
    };
    let (addr, _, journal, server) = start_daemon_full(cluster_size, engine, false);
    (addr, journal, server)
}

#[test]
fn loadgen_drives_a_daemon_and_the_journal_passes_the_doctor() {
    // Aggressive time scaling so accepted jobs start and complete while
    // the generator is still running — the journal then exercises every
    // lifecycle edge, not just submissions and quotes.
    let (addr, journal, server) = start_daemon(64, 50_000.0);
    let report = loadgen::run(&LoadgenConfig {
        addr,
        threads: 3,
        requests: 601,
        pipeline_depth: 8,
        model: LogModel::NasaIpsc,
        seed: 0xD5_2005,
        accept_probability: 0.7,
        cancel_probability: 0.15,
        shutdown: true,
        connect_timeout: Duration::from_secs(10),
        ..LoadgenConfig::default()
    })
    .expect("loadgen run");
    server.join().expect("server thread");

    // 601 over 3 threads does not split evenly: the quota is exact, not
    // rounded up per thread.
    assert_eq!(report.requests, 601, "every negotiate reached an outcome");
    assert!(report.quoted > 0, "some quotes must succeed");
    assert!(report.accepted > 0, "some quotes must be accepted");
    assert_eq!(report.parity_violations, 0, "batched == serial quotes");
    assert!(
        report.parity_checked >= report.quoted,
        "every quote was re-checked"
    );
    assert!(report.throughput_rps > 0.0);
    assert!(
        report.promises_made >= report.promises_kept + report.promises_broken,
        "the ledger tiles: resolved promises never exceed made"
    );

    let bytes = journal.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).expect("journal is UTF-8");
    assert!(!text.is_empty(), "journal must have been written");
    let doctor = Doctor::check_str(&text);
    assert_eq!(
        doctor.errors(),
        0,
        "served journal must be certifiably clean:\n{}",
        doctor.render()
    );
}

#[test]
fn metrics_endpoint_serves_valid_exposition_under_live_load() {
    let engine = EngineConfig {
        time_scale: 50_000.0,
        ..EngineConfig::default()
    };
    let (addr, metrics_addr, _journal, server) = start_daemon_full(64, engine, true);
    let metrics_addr = metrics_addr.expect("metrics listener requested");

    // Drive the daemon from a background thread while this one scrapes.
    let config = LoadgenConfig {
        addr: addr.clone(),
        threads: 2,
        requests: 400,
        pipeline_depth: 8,
        model: LogModel::NasaIpsc,
        seed: 0xD5_2006,
        accept_probability: 0.7,
        cancel_probability: 0.1,
        shutdown: false,
        connect_timeout: Duration::from_secs(10),
        record: None,
    };
    let generator = std::thread::spawn(move || loadgen::run(&config));

    // Mid-burst scrape: keep hitting /metrics until the negotiate counter
    // moves. The daemon cannot drain under us — shutdown comes later.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut mid_burst = None;
    while std::time::Instant::now() < deadline {
        if let Ok(samples) = scrape::scrape_metrics(&metrics_addr, Duration::from_secs(2)) {
            let negotiated = expo::find(
                &samples,
                "pqos_rpc_requests_total",
                &[("verb", "negotiate")],
            )
            .unwrap_or(0.0);
            if negotiated > 0.0 {
                mid_burst = Some(samples);
                break;
            }
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let mid_burst = mid_burst.expect("a mid-burst scrape must see negotiate traffic");

    let report = generator
        .join()
        .expect("loadgen thread")
        .expect("loadgen run");
    assert_eq!(report.requests, 400);
    assert_eq!(report.parity_violations, 0);

    // The endpoint stayed structurally valid while requests were in flight:
    // per-verb buckets are cumulative and monotone, and the +Inf bucket
    // matches the _count series.
    let buckets: Vec<(f64, f64)> = {
        let mut b: Vec<(f64, f64)> = mid_burst
            .iter()
            .filter(|s| {
                s.name == "pqos_rpc_request_ns_bucket"
                    && s.labels
                        .iter()
                        .any(|(k, v)| k == "verb" && v == "negotiate")
            })
            .map(|s| {
                let le = s
                    .labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| {
                        if v == "+Inf" {
                            f64::INFINITY
                        } else {
                            v.parse().unwrap()
                        }
                    })
                    .unwrap();
                (le, s.value)
            })
            .collect();
        b.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        b
    };
    assert!(buckets.len() >= 2, "bucketed histogram exported");
    for pair in buckets.windows(2) {
        assert!(
            pair[1].1 >= pair[0].1,
            "cumulative buckets must be monotone: {buckets:?}"
        );
    }
    let count = expo::find(
        &mid_burst,
        "pqos_rpc_request_ns_count",
        &[("verb", "negotiate")],
    )
    .expect("_count series");
    assert_eq!(buckets.last().unwrap().1, count, "+Inf bucket == _count");

    // After the burst the daemon's own exposition accounts for it: every
    // request counted, and the negotiate verb's latency decomposed into
    // every trace stage.
    let after =
        scrape::scrape_metrics(&metrics_addr, Duration::from_secs(5)).expect("end-of-run scrape");
    let requests_total: f64 = after
        .iter()
        .filter(|s| s.name == "pqos_rpc_requests_total")
        .map(|s| s.value)
        .sum();
    assert!(requests_total >= 400.0, "{requests_total} requests counted");
    for stage in flight::STAGES {
        assert!(
            after.iter().any(|s| s.name == "pqos_rpc_stage_ns_bucket"
                && s.labels.iter().any(|(k, v)| k == "stage" && v == stage)
                && s.labels
                    .iter()
                    .any(|(k, v)| k == "verb" && v == "negotiate")
                && s.value > 0.0),
            "negotiate stage {stage} has no observations"
        );
    }

    // Only now is the daemon told to drain.
    let stream = TcpStream::connect(&addr).expect("connect for shutdown");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{}", Request::Shutdown { id: 9 }.encode()).expect("write shutdown");
    writer.flush().expect("flush shutdown");
    let mut line = String::new();
    assert!(reader.read_line(&mut line).expect("read") > 0);
    server.join().expect("server thread");
}

#[test]
fn dump_verb_yields_a_chrome_trace_the_obs_loader_accepts() {
    let (addr, _journal, server) = start_daemon(16, 1.0);
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    let mut reader = BufReader::new(stream);
    let read_reply = |reader: &mut BufReader<TcpStream>, want: u64| -> Response {
        loop {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).expect("read") > 0);
            if let Some(r) = Response::parse(&line) {
                if r.id() == want {
                    return r;
                }
            }
        }
    };

    // Give the flight recorder something to record.
    writeln!(
        writer,
        "{}",
        Request::Negotiate {
            id: 1,
            size: 2,
            runtime_secs: 600,
        }
        .encode()
    )
    .expect("write negotiate");
    writer.flush().expect("flush");
    let quote = read_reply(&mut reader, 1);
    assert!(matches!(quote, Response::Quote { .. }), "got {quote:?}");

    writeln!(writer, "{}", Request::Dump { id: 2 }.encode()).expect("write dump");
    writer.flush().expect("flush");
    let dump = read_reply(&mut reader, 2);
    let Response::Dump { trace, .. } = dump else {
        panic!("expected a dump reply, got {dump:?}");
    };
    let summary = pqos_obs::load_chrome_trace(&trace).expect("dump is a loadable Chrome trace");
    assert!(
        summary.spans >= 1,
        "at least the dump's own request is on record"
    );
    assert!(summary.metadata >= 1, "process/thread names present");

    writeln!(writer, "{}", Request::Shutdown { id: 3 }.encode()).expect("write shutdown");
    writer.flush().expect("flush");
    server.join().expect("server thread");
}

#[test]
fn status_reports_observability_fields_over_the_wire() {
    let (addr, _journal, server) = start_daemon(16, 1.0);
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    let mut reader = BufReader::new(stream);
    let read_reply = |reader: &mut BufReader<TcpStream>, want: u64| -> Response {
        loop {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).expect("read") > 0);
            if let Some(r) = Response::parse(&line) {
                if r.id() == want {
                    return r;
                }
            }
        }
    };

    writeln!(
        writer,
        "{}",
        Request::Negotiate {
            id: 1,
            size: 4,
            runtime_secs: 3600,
        }
        .encode()
    )
    .expect("write negotiate");
    writer.flush().expect("flush");
    let Response::Quote { job, .. } = read_reply(&mut reader, 1) else {
        panic!("expected a quote");
    };
    writeln!(writer, "{}", Request::Accept { id: 2, job }.encode()).expect("write accept");
    writer.flush().expect("flush");
    assert!(matches!(read_reply(&mut reader, 2), Response::Ok { .. }));

    writeln!(writer, "{}", Request::Status { id: 3 }.encode()).expect("write status");
    writer.flush().expect("flush");
    let Response::Status { body, .. } = read_reply(&mut reader, 3) else {
        panic!("expected a status reply");
    };
    assert_eq!(body.live_jobs, 1, "the accepted job is live");
    assert_eq!(
        body.queue_depth, 0,
        "nothing queued behind the status probe"
    );
    assert_eq!(body.overloaded, 0, "no refusals on an idle daemon");

    writeln!(writer, "{}", Request::Shutdown { id: 4 }.encode()).expect("write shutdown");
    writer.flush().expect("flush");
    server.join().expect("server thread");
}

#[test]
fn status_reports_a_promise_summary_over_the_wire() {
    // Aggressive time scaling so the accepted job resolves its promise
    // while we poll.
    let (addr, _journal, server) = start_daemon(16, 50_000.0);
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    let mut reader = BufReader::new(stream);
    let read_reply = |reader: &mut BufReader<TcpStream>, want: u64| -> Response {
        loop {
            let mut line = String::new();
            assert!(reader.read_line(&mut line).expect("read") > 0);
            if let Some(r) = Response::parse(&line) {
                if r.id() == want {
                    return r;
                }
            }
        }
    };

    writeln!(
        writer,
        "{}",
        Request::Negotiate {
            id: 1,
            size: 2,
            runtime_secs: 600,
        }
        .encode()
    )
    .expect("write negotiate");
    writer.flush().expect("flush");
    let Response::Quote { job, .. } = read_reply(&mut reader, 1) else {
        panic!("expected a quote");
    };
    writeln!(writer, "{}", Request::Accept { id: 2, job }.encode()).expect("write accept");
    writer.flush().expect("flush");
    assert!(matches!(read_reply(&mut reader, 2), Response::Ok { .. }));

    // Accepting the quote made the promise; each status poll also drives
    // virtual time, so keep polling until the job's terminal event lands.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let mut id = 3;
    let body = loop {
        writeln!(writer, "{}", Request::Status { id }.encode()).expect("write status");
        writer.flush().expect("flush");
        let Response::Status { body, .. } = read_reply(&mut reader, id) else {
            panic!("expected a status reply");
        };
        assert_eq!(body.promises_made, 1, "the accepted quote is a promise");
        if body.promises_kept + body.promises_broken + body.promises_cancelled == 1 {
            break body;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "promise never resolved: {body:?}"
        );
        id += 1;
        std::thread::sleep(Duration::from_millis(5));
    };
    // NullPredictor quotes p = 1.0 and nothing fails: the promise is
    // kept, and a perfectly-kept p=1.0 bucket has zero residual.
    assert_eq!(body.promises_kept, 1);
    assert_eq!(body.promises_broken, 0);
    assert_eq!(body.worst_residual_milli, 0);
    assert_eq!(body.parity_sample, 1, "tests re-check every batch");

    writeln!(writer, "{}", Request::Shutdown { id: id + 1 }.encode()).expect("write shutdown");
    writer.flush().expect("flush");
    server.join().expect("server thread");
}

#[test]
fn malformed_and_truncated_lines_never_kill_the_connection() {
    let (addr, _journal, server) = start_daemon(16, 1.0);
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    let mut reader = BufReader::new(stream);
    let mut rng = DetRng::seed_from(0xD5_2005).fork("protocol-fuzz");

    let templates = [
        Request::Negotiate {
            id: 1,
            size: 4,
            runtime_secs: 3600,
        }
        .encode(),
        Request::Accept { id: 2, job: 1 }.encode(),
        Request::Status { id: 3 }.encode(),
    ];
    let await_reply =
        |writer: &mut BufWriter<TcpStream>, reader: &mut BufReader<TcpStream>, sentinel: u64| {
            // A status probe with a unique id; every fuzz volley must leave
            // the daemon able to answer it.
            writeln!(writer, "{}", Request::Status { id: sentinel }.encode()).expect("write probe");
            writer.flush().expect("flush probe");
            let mut line = String::new();
            loop {
                line.clear();
                let n = reader.read_line(&mut line).expect("daemon must stay up");
                assert!(n > 0, "daemon closed the connection mid-fuzz");
                match Response::parse(&line) {
                    Some(response) if response.id() == sentinel => {
                        assert!(matches!(response, Response::Status { .. }));
                        break;
                    }
                    // Replies to garbage (bad_request) or to mutated lines
                    // that happened to stay valid; either way: a reply, not a
                    // disconnect.
                    Some(_) => {}
                    None => panic!("daemon produced an unparseable line: {line:?}"),
                }
            }
        };

    for round in 0..200u64 {
        let template = templates[(rng.uniform_u64(0, templates.len() as u64 - 1)) as usize].clone();
        let mut bytes = template.into_bytes();
        match rng.uniform_u64(0, 3) {
            // Truncate mid-object.
            0 => {
                let cut = rng.uniform_u64(1, bytes.len() as u64 - 1) as usize;
                bytes.truncate(cut);
            }
            // Flip one byte (newlines excluded by construction).
            1 => {
                let at = rng.uniform_u64(0, bytes.len() as u64 - 1) as usize;
                bytes[at] = bytes[at].wrapping_add(1 + rng.uniform_u64(0, 250) as u8);
            }
            // Pure binary garbage, possibly invalid UTF-8.
            2 => {
                bytes = (0..rng.uniform_u64(1, 64))
                    .map(|_| {
                        let b = rng.uniform_u64(0, 255) as u8;
                        if b == b'\n' {
                            b'x'
                        } else {
                            b
                        }
                    })
                    .collect();
            }
            // Valid JSON, nonsense protocol.
            _ => {
                bytes = format!(r#"{{"id":{round},"verb":"explode","job":[1,2]}}"#).into_bytes();
            }
        }
        bytes.push(b'\n');
        writer.write_all(&bytes).expect("write garbage");
        writer.flush().expect("flush garbage");
        if round % 20 == 19 {
            await_reply(&mut writer, &mut reader, 1_000_000 + round);
        }
    }
    await_reply(&mut writer, &mut reader, 2_000_000);

    // A valid negotiation still works after all that.
    writeln!(
        writer,
        "{}",
        Request::Negotiate {
            id: 3_000_000,
            size: 2,
            runtime_secs: 600,
        }
        .encode()
    )
    .expect("write negotiate");
    writer.flush().expect("flush negotiate");
    let quote = loop {
        let mut line = String::new();
        assert!(reader.read_line(&mut line).expect("read") > 0);
        if let Some(r) = Response::parse(&line) {
            if r.id() == 3_000_000 {
                break r;
            }
        }
    };
    assert!(
        matches!(quote, Response::Quote { .. }),
        "expected a quote, got {quote:?}"
    );

    writeln!(writer, "{}", Request::Shutdown { id: 4_000_000 }.encode()).expect("write shutdown");
    writer.flush().expect("flush shutdown");
    server.join().expect("server thread");
}

/// A hostile peer's line of 100,000 `[` — well under the net layer's
/// 1 MiB line limit — used to recurse the JSON parser off the end of the
/// stack and abort the daemon. It is one more unparseable line:
/// `bad_request`, the connection stays open, the next `status` is answered.
#[test]
fn a_deeply_nested_line_is_a_bad_request_not_a_stack_overflow() {
    let (addr, _journal, server) = start_daemon(16, 1.0);
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    let mut reader = BufReader::new(stream);
    let mut reply = |writer: &mut BufWriter<TcpStream>, line: &str| {
        writeln!(writer, "{line}").expect("write");
        writer.flush().expect("flush");
        let mut answer = String::new();
        assert!(
            reader.read_line(&mut answer).expect("daemon must stay up") > 0,
            "daemon closed the connection"
        );
        Response::parse(&answer).unwrap_or_else(|| panic!("unparseable reply {answer:?}"))
    };
    for hostile in [
        "[".repeat(100_000),
        "{\"id\":7,\"verb\":\"status\",\"x\":".to_string() + &"{\"k\":".repeat(100_000),
        format!("{}1{}", "[".repeat(50_000), "]".repeat(50_000)),
    ] {
        match reply(&mut writer, &hostile) {
            Response::Error {
                id: 0,
                code: pqos_service::protocol::ErrorCode::BadRequest,
                detail,
            } => assert_eq!(detail, "not valid JSON"),
            other => panic!("expected bad_request, got {other:?}"),
        }
    }
    assert!(matches!(
        reply(&mut writer, &Request::Status { id: 8 }.encode()),
        Response::Status { id: 8, .. }
    ));
    assert_eq!(
        reply(&mut writer, &Request::Shutdown { id: 9 }.encode()),
        Response::Ok { id: 9 }
    );
    server.join().expect("server thread");
}

/// A request line that is not UTF-8 is refused, not served: the bytes
/// used to be decoded lossily, so U+FFFD stood in for the bad ones and
/// the line parsed — a `status` was answered, a `negotiate` quoted.
/// Invalid UTF-8 anywhere in the line is one more unparseable line.
#[test]
fn a_line_that_is_not_utf8_is_a_bad_request_not_served() {
    let (addr, journal, server) = start_daemon(16, 1.0);
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    let mut reader = BufReader::new(stream);
    let mut reply = |writer: &mut BufWriter<TcpStream>, line: &[u8]| {
        writer.write_all(line).expect("write");
        writer.write_all(b"\n").expect("write");
        writer.flush().expect("flush");
        let mut answer = String::new();
        assert!(
            reader.read_line(&mut answer).expect("daemon must stay up") > 0,
            "daemon closed the connection"
        );
        Response::parse(&answer).unwrap_or_else(|| panic!("unparseable reply {answer:?}"))
    };
    for hostile in [
        &b"{\"id\":1,\"verb\":\"status\",\"note\":\"\xff\xfe\"}"[..],
        b"{\"id\":2,\"verb\":\"negotiate\",\"size\":2,\"runtime_secs\":600,\"x\":\"\xc3\"}",
        b"{\"id\":3,\"verb\":\"stat\xffus\"}",
    ] {
        match reply(&mut writer, hostile) {
            Response::Error {
                id: 0,
                code: pqos_service::protocol::ErrorCode::BadRequest,
                detail,
            } => assert_eq!(detail, "not valid JSON"),
            other => panic!("expected bad_request, got {other:?}"),
        }
    }
    let Response::Status { id: 4, body } =
        reply(&mut writer, Request::Status { id: 4 }.encode().as_bytes())
    else {
        panic!("status must still be answered");
    };
    assert_eq!(body.quoted + body.rejected, 0, "nothing was negotiated");
    assert_eq!(
        reply(&mut writer, Request::Shutdown { id: 5 }.encode().as_bytes()),
        Response::Ok { id: 5 }
    );
    server.join().expect("server thread");
    let text = String::from_utf8(journal.0.lock().unwrap().clone()).expect("journal is UTF-8");
    assert!(!text.contains("job_submitted"), "no job was submitted");
}

/// Writes `requests` in one `write_all` — one loop pass on loopback — and
/// reads `replies` lines back, keyed by id.
fn burst(addr: &str, requests: &[Request], replies: usize) -> (TcpStream, Vec<Response>) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut wire = String::new();
    for request in requests {
        wire.push_str(&request.encode());
        wire.push('\n');
    }
    stream.write_all(wire.as_bytes()).expect("write burst");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut answered: Vec<Response> = (0..replies)
        .map(|_| {
            let mut line = String::new();
            assert!(
                reader.read_line(&mut line).expect("read") > 0,
                "reply missing"
            );
            Response::parse(&line).unwrap_or_else(|| panic!("unparseable reply {line:?}"))
        })
        .collect();
    answered.sort_by_key(Response::id);
    (stream, answered)
}

/// A `shutdown` served inside a pass's tick: everything before it in the
/// pass is answered, everything behind it answers `shutting_down`, the
/// daemon returns, and its journal holds exactly the negotiates served.
#[test]
fn a_shutdown_inside_one_pass_answers_every_line_and_drains() {
    let (addr, journal, server) = start_daemon(64, 1.0);
    let mut requests: Vec<Request> = (1..=20)
        .map(|id| Request::Negotiate {
            id,
            size: 2,
            runtime_secs: 600,
        })
        .collect();
    requests.extend([
        Request::Shutdown { id: 21 },
        Request::Status { id: 22 },
        Request::Negotiate {
            id: 23,
            size: 2,
            runtime_secs: 600,
        },
    ]);
    let (stream, answered) = burst(&addr, &requests, 23);
    for response in &answered[..20] {
        assert!(matches!(response, Response::Quote { .. }), "{response:?}");
    }
    assert_eq!(answered[20], Response::Ok { id: 21 });
    for (response, id) in answered[21..].iter().zip([22, 23]) {
        assert!(
            matches!(
                response,
                Response::Error {
                    id: got,
                    code: pqos_service::protocol::ErrorCode::ShuttingDown,
                    ..
                } if *got == id
            ),
            "{response:?}"
        );
    }
    server.join().expect("serve_core returns");
    let mut rest = String::new();
    assert_eq!(
        BufReader::new(stream).read_line(&mut rest).unwrap_or(0),
        0,
        "nothing after the drain: {rest:?}"
    );
    let text = String::from_utf8(journal.0.lock().unwrap().clone()).expect("journal is UTF-8");
    let doctor = Doctor::check_str(&text);
    assert_eq!(doctor.errors(), 0, "{}", doctor.render());
    let submitted = text
        .lines()
        .filter(|line| line.contains("\"event\":\"job_submitted\""))
        .count();
    assert_eq!(submitted, 20, "exactly the negotiates before the shutdown");
}

/// `queue_depth` is the most requests one pass hands the engine: the
/// excess answers `overloaded`, and `status` counts it.
#[test]
fn a_pass_past_queue_depth_answers_overloaded_and_counts_it() {
    let engine = EngineConfig {
        queue_depth: 8,
        ..EngineConfig::default()
    };
    let (addr, _, _journal, server) = start_daemon_full(16, engine, false);
    let statuses: Vec<Request> = (1..=12).map(|id| Request::Status { id }).collect();
    let (stream, answered) = burst(&addr, &statuses, 12);
    for response in &answered[..8] {
        assert!(matches!(response, Response::Status { .. }), "{response:?}");
    }
    for response in &answered[8..] {
        assert!(
            matches!(
                response,
                Response::Error {
                    code: pqos_service::protocol::ErrorCode::Overloaded,
                    ..
                }
            ),
            "{response:?}"
        );
    }
    drop(stream);
    let (_stream, answered) = burst(
        &addr,
        &[Request::Status { id: 13 }, Request::Shutdown { id: 14 }],
        2,
    );
    let Response::Status { body, .. } = &answered[0] else {
        panic!("expected status, got {:?}", answered[0]);
    };
    assert_eq!(body.overloaded, 4);
    assert_eq!(body.queue_depth, 0, "nothing waits past its pass");
    server.join().expect("server thread");
}

#[test]
fn shutdown_drains_gracefully_and_later_clients_are_refused() {
    let (addr, _journal, server) = start_daemon(8, 1.0);
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = BufWriter::new(stream.try_clone().expect("clone"));
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{}", Request::Shutdown { id: 1 }.encode()).expect("write");
    writer.flush().expect("flush");
    let mut line = String::new();
    assert!(reader.read_line(&mut line).expect("read") > 0);
    assert_eq!(Response::parse(&line), Some(Response::Ok { id: 1 }));
    server.join().expect("server drains");
    // The listener is gone; new connections are refused or reset.
    match TcpStream::connect(&addr) {
        Err(_) => {}
        Ok(s) => {
            // Accepted by a lingering backlog entry at worst; it must not
            // serve anything.
            let mut w = BufWriter::new(s.try_clone().expect("clone"));
            let _ = writeln!(w, "{}", Request::Status { id: 2 }.encode());
            let _ = w.flush();
            let mut r = BufReader::new(s);
            let mut reply = String::new();
            assert_eq!(
                r.read_line(&mut reply).unwrap_or(0),
                0,
                "no service after drain"
            );
        }
    }
}

/// `pqos-loadgen` is a client only: it writes no report file, scrapes no
/// endpoint and boots no daemons, so those flags are unknown (exit 2).
#[test]
fn loadgen_has_no_report_or_sweep_flags() {
    for flag in [
        "--out",
        "--metrics",
        "--baseline-rps",
        "--shards",
        "--cluster",
    ] {
        let output = std::process::Command::new(env!("CARGO_BIN_EXE_pqos-loadgen"))
            .args(["--addr", "127.0.0.1:9", flag, "1"])
            .output()
            .expect("run pqos-loadgen");
        assert_eq!(output.status.code(), Some(2), "{flag}: {output:?}");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.starts_with(&format!("pqos-loadgen: unknown flag: {flag}\n")),
            "{flag}: {stderr}"
        );
    }
}
