//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```sh
//! cargo run --release -p pqos-bench --bin experiments -- all
//! cargo run --release -p pqos-bench --bin experiments -- fig1 fig5 table1
//! cargo run --release -p pqos-bench --bin experiments -- --jobs 2000 all
//! cargo run --release -p pqos-bench --bin experiments -- --journal run.jsonl --metrics
//! ```
//!
//! Tables are printed to stdout and mirrored as CSV under `results/`.
//! `--journal <path>` and `--metrics` run one instrumented scenario with
//! the telemetry layer attached: the journal is the JSONL event stream,
//! the metrics snapshot is printed as a table.

use pqos_bench::experiments::{
    ablation_checkpoint, ablation_diurnal, ablation_interval, ablation_scheduler,
    ablation_topology, accuracy_figure, accuracy_grid, calibration, figure8, headline,
    online_predictor, table1, table2, user_figure, user_grid, Metric, SweepOptions,
};
use pqos_bench::scenario::standard_trace;
use pqos_bench::ScenarioResult;
use pqos_core::config::SimConfig;
use pqos_core::system::QosSimulator;
use pqos_core::user::UserStrategy;
use pqos_failures::trace::FailureTrace;
use pqos_sim_core::table::{fnum, Table};
use pqos_telemetry::Telemetry;
use pqos_workload::synthetic::LogModel;
use std::collections::BTreeSet;
use std::sync::Arc;

struct Harness {
    opts: SweepOptions,
    trace: Arc<FailureTrace>,
    sdsc_accuracy_grid: Option<Vec<ScenarioResult>>,
    nasa_accuracy_grid: Option<Vec<ScenarioResult>>,
    sdsc_user_grid_a1: Option<Vec<ScenarioResult>>,
    nasa_user_grid_a1: Option<Vec<ScenarioResult>>,
}

impl Harness {
    fn new(opts: SweepOptions) -> Self {
        Harness {
            opts,
            trace: standard_trace(),
            sdsc_accuracy_grid: None,
            nasa_accuracy_grid: None,
            sdsc_user_grid_a1: None,
            nasa_user_grid_a1: None,
        }
    }

    fn accuracy(&mut self, model: LogModel) -> &[ScenarioResult] {
        let (slot, name) = match model {
            LogModel::SdscSp2 => (&mut self.sdsc_accuracy_grid, "SDSC"),
            LogModel::NasaIpsc => (&mut self.nasa_accuracy_grid, "NASA"),
        };
        if slot.is_none() {
            eprintln!(
                "[sweep] (a, U) grid for {name} ({} jobs x 33 points)",
                self.opts.jobs
            );
            *slot = Some(accuracy_grid(model, &self.opts, &self.trace));
        }
        slot.as_ref().expect("just filled")
    }

    fn user_a1(&mut self, model: LogModel) -> &[ScenarioResult] {
        let (slot, name) = match model {
            LogModel::SdscSp2 => (&mut self.sdsc_user_grid_a1, "SDSC"),
            LogModel::NasaIpsc => (&mut self.nasa_user_grid_a1, "NASA"),
        };
        if slot.is_none() {
            eprintln!(
                "[sweep] U grid at a=1 for {name} ({} jobs x 11 points)",
                self.opts.jobs
            );
            *slot = Some(user_grid(model, 1.0, &self.opts, &self.trace));
        }
        slot.as_ref().expect("just filled")
    }
}

/// Single source of truth for experiment ids and captions: drives the
/// emitted table headings, the `--list` JSON index, and the usage text.
const INDEX: &[(&str, &str)] = &[
    ("table1", "job log characteristics"),
    ("table2", "simulation parameters"),
    ("fig1", "QoS vs accuracy, SDSC"),
    ("fig2", "QoS vs accuracy, NASA"),
    ("fig3", "utilization vs accuracy, SDSC"),
    ("fig4", "utilization vs accuracy, NASA"),
    ("fig5", "lost work vs accuracy, SDSC"),
    ("fig6", "lost work vs accuracy, NASA"),
    (
        "fig7",
        "QoS vs user behavior, SDSC, a=0.5 (insensitivity knee)",
    ),
    ("fig8", "QoS vs user behavior, a=1"),
    ("fig9", "utilization vs U, SDSC, a=1"),
    ("fig10", "utilization vs U, NASA, a=1"),
    ("fig11", "lost work vs U, SDSC, a=1"),
    ("fig12", "lost work vs U, NASA, a=1"),
    ("headline", "no-prediction baseline vs perfect prediction"),
    ("ablation-ckpt", "checkpoint policy ablation, SDSC, U=0.5"),
    (
        "ablation-sched",
        "fault-aware vs first-fit placement, SDSC, a=1",
    ),
    (
        "ablation-slack",
        "quoted deadline slack vs QoS range, SDSC, U=0.5",
    ),
    (
        "ablation-interval",
        "checkpoint interval sweep incl. Young's optimum, SDSC, a=0, periodic",
    ),
    (
        "ablation-topology",
        "flat vs contiguous (line) allocation, SDSC",
    ),
    ("ablation-diurnal", "poisson vs diurnal arrivals, SDSC"),
    (
        "online-predictor",
        "practical rate predictor vs oracle, SDSC, U=0.5",
    ),
    (
        "calibration",
        "quoted vs realized success per bucket via the audit ledger, oracle vs online predictor, SDSC",
    ),
    (
        "replay-parity",
        "record→replay round trip: byte-identical journal, 100% response parity",
    ),
];

fn caption(id: &str) -> &'static str {
    INDEX
        .iter()
        .find(|(i, _)| *i == id)
        .map(|(_, c)| *c)
        .unwrap_or_else(|| panic!("experiment {id} missing from INDEX"))
}

/// Prints the machine-readable experiment index: a JSON array of
/// `{"id", "caption", "csv"}` objects, one per experiment id.
fn list_experiments() {
    let mut out = String::from("[\n");
    for (i, (id, caption)) in INDEX.iter().enumerate() {
        let mut w = pqos_telemetry::json::ObjWriter::new();
        w.str("id", id)
            .str("caption", caption)
            .str("csv", &format!("results/{id}.csv"));
        out.push_str("  ");
        out.push_str(&w.finish());
        out.push_str(if i + 1 < INDEX.len() { ",\n" } else { "\n" });
    }
    out.push_str("]\n");
    print!("{out}");
}

fn emit(id: &str, table: &Table) {
    println!("== {id}: {} ==", caption(id));
    println!("{}", table.render());
    let path = format!("results/{id}.csv");
    if let Err(e) =
        std::fs::create_dir_all("results").and_then(|_| std::fs::write(&path, table.to_csv()))
    {
        eprintln!("warning: could not write {path}: {e}");
    }
}

/// Deadline-slack ablation (ours): how quoted slack compresses the QoS
/// dynamic range toward the paper's ±6%.
fn ablation_slack(opts: &SweepOptions, trace: &Arc<FailureTrace>) -> Table {
    let mut t = Table::new(vec![
        "slack".into(),
        "a".into(),
        "QoS".into(),
        "misses".into(),
    ]);
    let log = pqos_bench::standard_log(LogModel::SdscSp2, opts.jobs);
    for slack in [0.0, 0.1, 0.25] {
        for a in [0.0, 1.0] {
            let config = SimConfig::paper_defaults()
                .accuracy(a)
                .user(UserStrategy::risk_threshold(0.5).expect("valid"))
                .deadline_slack_fraction(slack);
            let report = QosSimulator::new(config, log.clone(), Arc::clone(trace))
                .run()
                .report;
            t.row(vec![
                fnum(slack, 2),
                fnum(a, 1),
                fnum(report.qos, 4),
                report.deadline_misses.to_string(),
            ]);
        }
    }
    t
}

/// Runs one instrumented SDSC scenario with the telemetry layer attached:
/// events stream to `journal` (JSONL) when given, and the final metrics
/// snapshot is printed when `metrics` is set.
/// The replay-parity smoke (ours): record an in-process engine burst,
/// replay the trace through the same code path, and prove the round trip —
/// byte-identical journal, 100% response parity. This is the determinism
/// contract `pqos-replay` rests on, measured instead of assumed.
fn replay_parity() -> Table {
    use pqos_predict::api::NullPredictor;
    use pqos_service::engine::{self, EngineConfig, ReplySender};
    use pqos_service::protocol::{Request, Response};
    use pqos_service::replay::{replay, ReplayOptions};
    use pqos_service::{FlightRecorder, SharedBuf, TraceRecorder};
    use pqos_telemetry::reqtrace::{RequestTrace, TraceMeta};

    let trace_buf = SharedBuf::new();
    let journal_buf = SharedBuf::new();
    // Virtual time stands still, as in `pqos-loadgen`'s in-process engine:
    // each request is its own epoch, all at instant 0, so what the run
    // journals does not depend on how fast the host answers.
    let meta = TraceMeta {
        time_scale: 0.0,
        batch_threads: 2,
        ..TraceMeta::qosd(64)
    };
    let telemetry = Telemetry::builder()
        .flush_every(0)
        .jsonl_writer(journal_buf.clone())
        .build();
    let session = pqos_core::session::NegotiationSession::new(
        SimConfig::paper_defaults().cluster_size_nodes(64),
        NullPredictor,
        telemetry,
    );
    let config = EngineConfig {
        time_scale: 0.0,
        batch_threads: 2,
        ..EngineConfig::default()
    };
    let recorder = TraceRecorder::to_writer(trace_buf.clone(), &meta).expect("in-memory recorder");
    let (handle, join) = engine::spawn(session, config, FlightRecorder::disabled(), recorder);
    let (reply, rx) = ReplySender::channel();
    let ask = |request: Request| {
        handle
            .submit(request, &reply, None, 1)
            .expect("queue accepts");
        rx.recv_timeout(std::time::Duration::from_secs(10))
            .expect("engine reply")
            .0
    };
    let mut next_id = 1u64;
    let mut id = || {
        next_id += 1;
        next_id - 1
    };
    let mut jobs = Vec::new();
    for k in 0..48u64 {
        if let Response::Quote { job, .. } = ask(Request::Negotiate {
            id: id(),
            size: 1 + (k % 8) as u32,
            runtime_secs: 600 + 30 * k,
        }) {
            if k % 2 == 0 {
                ask(Request::Accept { id: id(), job });
                jobs.push(job);
            }
        }
    }
    for &job in jobs.iter().take(4) {
        ask(Request::Cancel { id: id(), job });
    }
    ask(Request::Status { id: id() });
    ask(Request::Shutdown { id: id() });
    join.join().expect("engine thread");

    let recorded_journal = journal_buf.take_string();
    let trace = RequestTrace::parse(&trace_buf.take_string()).expect("recorded trace parses");
    let report = replay(&trace, &ReplayOptions::default()).expect("trace replays");
    assert!(
        report.is_parity_clean(),
        "replay-parity: {} response(s) diverged: {:#?}",
        report.mismatches.len(),
        report.mismatches
    );
    assert_eq!(
        report.journal, recorded_journal,
        "replay-parity: replayed journal must be byte-identical"
    );

    let secs = report.elapsed.as_secs_f64().max(1e-9);
    let mut t = Table::new(vec![
        "entries".into(),
        "epochs".into(),
        "parity_checked".into(),
        "mismatches".into(),
        "journal_bytes".into(),
        "replay_entries_per_sec".into(),
    ]);
    t.row(vec![
        trace.entries.len().to_string(),
        report.epochs_replayed.to_string(),
        report.parity_checked.to_string(),
        report.mismatches.len().to_string(),
        report.journal.len().to_string(),
        fnum(report.entries_replayed as f64 / secs, 0),
    ]);
    t
}

fn telemetry_run(
    jobs: usize,
    accuracy: f64,
    journal: Option<&str>,
    metrics: bool,
    trace: &Arc<FailureTrace>,
) {
    let mut builder = Telemetry::builder();
    if let Some(path) = journal {
        builder = builder
            .jsonl_path(path)
            .unwrap_or_else(|e| die(&format!("cannot open journal {path}: {e}")));
    }
    let telemetry = builder.build();
    // A panicking run must still leave a flushed journal behind — a
    // truncated journal is an incident capture, not garbage.
    pqos_telemetry::panichook::flush_on_panic(&telemetry);
    let log = pqos_bench::standard_log(LogModel::SdscSp2, jobs);
    let config = SimConfig::paper_defaults()
        .accuracy(accuracy)
        .user(UserStrategy::risk_threshold(0.5).expect("valid"));
    eprintln!("[telemetry] instrumented run: SDSC, {jobs} jobs, a={accuracy}, U=0.5");
    let out = QosSimulator::new(config, log, Arc::clone(trace))
        .with_telemetry(telemetry.clone())
        .run();
    let health = telemetry.sink_health();
    if let Some(path) = journal {
        eprintln!(
            "[telemetry] journal written to {path} ({} events)",
            health.events_written
        );
    }
    if health.write_errors > 0 {
        eprintln!(
            "[telemetry] WARNING: {} events lost to journal write errors — \
             the journal is incomplete",
            health.write_errors
        );
    }
    if metrics {
        let snapshot = out.telemetry.expect("telemetered run has a snapshot");
        println!("== telemetry: metrics snapshot ==");
        println!("{}", snapshot.render());
    }
}

fn main() {
    let mut jobs = 10_000usize;
    let mut threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut journal: Option<String> = None;
    let mut accuracy = 0.7;
    let mut metrics = false;
    let mut requested: BTreeSet<String> = BTreeSet::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| die("--jobs needs a positive number"));
            }
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n > 0)
                    .unwrap_or_else(|| die("--threads needs a positive number"));
            }
            "--journal" => {
                journal = Some(args.next().unwrap_or_else(|| die("--journal needs a path")));
            }
            "--accuracy" => {
                accuracy = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|a: &f64| (0.0..=1.0).contains(a))
                    .unwrap_or_else(|| die("--accuracy needs a fraction in [0, 1]"));
            }
            "--metrics" => {
                metrics = true;
            }
            "--list" => {
                list_experiments();
                return;
            }
            "--help" | "-h" => {
                usage();
                return;
            }
            other if other.starts_with('-') => {
                die(&format!("unknown flag {other} (see --help)"));
            }
            other => {
                requested.insert(other.to_string());
            }
        }
    }
    if journal.is_some() || metrics {
        telemetry_run(
            jobs,
            accuracy,
            journal.as_deref(),
            metrics,
            &standard_trace(),
        );
    }
    if requested.is_empty() {
        if journal.is_none() && !metrics {
            usage();
        }
        return;
    }
    let all = requested.contains("all");
    let want = |id: &str| all || requested.contains(id);

    let opts = SweepOptions { jobs, threads };
    let mut h = Harness::new(opts);

    if want("table1") {
        emit("table1", &table1(&opts));
    }
    if want("table2") {
        emit("table2", &table2());
    }
    let figs: [(&str, LogModel, Metric); 6] = [
        ("fig1", LogModel::SdscSp2, Metric::Qos),
        ("fig2", LogModel::NasaIpsc, Metric::Qos),
        ("fig3", LogModel::SdscSp2, Metric::Utilization),
        ("fig4", LogModel::NasaIpsc, Metric::Utilization),
        ("fig5", LogModel::SdscSp2, Metric::LostWork),
        ("fig6", LogModel::NasaIpsc, Metric::LostWork),
    ];
    for (id, model, metric) in figs {
        if want(id) {
            let grid = h.accuracy(model).to_vec();
            emit(id, &accuracy_figure(&grid, metric));
        }
    }
    if want("fig7") {
        eprintln!("[sweep] U grid at a=0.5 for SDSC");
        let grid = user_grid(LogModel::SdscSp2, 0.5, &opts, &h.trace);
        emit("fig7", &user_figure(&grid, Metric::Qos));
    }
    if want("fig8") {
        let sdsc = h.user_a1(LogModel::SdscSp2).to_vec();
        let nasa = h.user_a1(LogModel::NasaIpsc).to_vec();
        emit("fig8", &figure8(&sdsc, &nasa));
    }
    let ufigs: [(&str, LogModel, Metric); 4] = [
        ("fig9", LogModel::SdscSp2, Metric::Utilization),
        ("fig10", LogModel::NasaIpsc, Metric::Utilization),
        ("fig11", LogModel::SdscSp2, Metric::LostWork),
        ("fig12", LogModel::NasaIpsc, Metric::LostWork),
    ];
    for (id, model, metric) in ufigs {
        if want(id) {
            let grid = h.user_a1(model).to_vec();
            emit(id, &user_figure(&grid, metric));
        }
    }
    if want("headline") {
        eprintln!("[sweep] headline comparison");
        emit("headline", &headline(&opts, &h.trace));
    }
    if want("ablation-ckpt") {
        eprintln!("[sweep] checkpoint-policy ablation");
        emit("ablation-ckpt", &ablation_checkpoint(&opts, &h.trace));
    }
    if want("ablation-sched") {
        eprintln!("[sweep] scheduler ablation");
        emit("ablation-sched", &ablation_scheduler(&opts, &h.trace));
    }
    if want("calibration") {
        eprintln!("[sweep] promise calibration");
        emit("calibration", &calibration(&opts, &h.trace));
    }
    if want("ablation-interval") {
        eprintln!("[sweep] checkpoint-interval ablation");
        emit("ablation-interval", &ablation_interval(&opts, &h.trace));
    }
    if want("ablation-topology") {
        eprintln!("[sweep] topology ablation");
        emit("ablation-topology", &ablation_topology(&opts, &h.trace));
    }
    if want("ablation-diurnal") {
        eprintln!("[sweep] diurnal-arrival ablation");
        emit("ablation-diurnal", &ablation_diurnal(&opts, &h.trace));
    }
    if want("online-predictor") {
        eprintln!("[sweep] online-predictor end-to-end");
        emit("online-predictor", &online_predictor(&opts, &h.trace));
    }
    if want("ablation-slack") {
        eprintln!("[sweep] deadline-slack ablation");
        emit("ablation-slack", &ablation_slack(&opts, &h.trace));
    }
    if want("replay-parity") {
        eprintln!("[sweep] replay-parity round trip");
        emit("replay-parity", &replay_parity());
    }
}

fn usage() {
    eprintln!(
        "usage: experiments [--jobs N] [--threads K] [--journal PATH] [--accuracy A]
                   [--metrics] [--list] <ids...>
  ids: all table1 table2 fig1..fig12 headline ablation-ckpt ablation-sched
       ablation-slack ablation-interval ablation-topology ablation-diurnal
       online-predictor calibration replay-parity
  --list          print the experiment index (id, caption, CSV path) as JSON
  --journal PATH  stream lifecycle events of one instrumented run as JSONL
  --accuracy A    predictor accuracy for that run (default 0.7; 1.0 = perfect
                  oracle). `pqos-doctor audit` passes the 1.0 journal at
                  --jobs 300 but fails it at the default scale, as it does
                  every accuracy's: some promises are overconfident
  --metrics       print the metrics snapshot of that run"
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
