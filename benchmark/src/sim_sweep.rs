//! `sim_sweep`: `QosSimulator`, single-threaded, over the NASA and SDSC
//! logs and the 400-day failure trace at `a ∈ {0.0, 0.7, 1.0}`, `U =
//! 0.5`, telemetry disabled as `experiments` runs it. No service code at
//! all, so a `sched` change that helps the daemon but costs the
//! simulator shows here.

use crate::gate::Gate;
use crate::lanes::{self, Layers};
use crate::spans::Recorder;
use crate::stats;
use crate::suite::{self, EndToEnd, Opts, Outcome};
use crate::sys;
use crate::yardstick::Yardstick;
use pqos_ckpt::policy::{CheckpointContext, DeadlinePressure};
use pqos_cluster::node::NodeId;
use pqos_core::config::{CheckpointPolicyKind, SimConfig};
use pqos_core::metrics::SimReport;
use pqos_core::system::QosSimulator;
use pqos_core::user::UserStrategy;
use pqos_failures::synthetic::AixLikeTrace;
use pqos_failures::trace::{Failure, FailureTrace};
use pqos_predict::oracle::TraceOracle;
use pqos_service::record::SharedBuf;
use pqos_sim_core::queue::EventQueue;
use pqos_sim_core::rng::DetRng;
use pqos_sim_core::time::{SimDuration, SimTime};
use pqos_telemetry::Telemetry;
use pqos_workload::job::Job;
use pqos_workload::log::JobLog;
use pqos_workload::synthetic::{LogModel, SyntheticLog};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TRACE_DAYS: f64 = 400.0;
const USER_THRESHOLD: f64 = 0.5;
const ACCURACIES: [f64; 3] = [0.0, 0.7, 1.0];

/// The logs and the failure trace every figure of `experiments` shares
/// are generated at this seed.
const STANDARD_SEED: u64 = 0xD5_2005;

/// The generated inputs: two logs, one failure trace.
pub struct Inputs {
    logs: [(LogModel, JobLog); 2],
    trace: Arc<FailureTrace>,
    synth_log_ms: f64,
    synth_trace_ms: f64,
}

/// The standard 10,000-job logs and 400-day trace, dealt by `seed`:
/// which job body (nodes, runtime) arrives at which of the log's arrival
/// instants, and which node each of the trace's failures lands on, are
/// seeded permutations. Every seed therefore simulates the same jobs,
/// the same arrival process and the same failure process — the
/// heavy-tailed totals that make two freshly generated logs differ by
/// 15 % in cost are held fixed — while queueing, placement and which
/// jobs the failures hit all vary.
pub fn inputs(seed: u64, jobs: usize) -> Inputs {
    let mut rng = DetRng::seed_from(seed).fork("sim-sweep");
    let t = Instant::now();
    let standard = AixLikeTrace::new()
        .days(TRACE_DAYS)
        .seed(STANDARD_SEED)
        .build();
    let synth_trace_ms = t.elapsed().as_secs_f64() * 1e3;
    let nodes = standard
        .failures()
        .iter()
        .map(|f| f.node.as_u32() + 1)
        .max()
        .unwrap_or(1);
    let mut relabel: Vec<u32> = (0..nodes).collect();
    rng.shuffle(&mut relabel);
    let trace = FailureTrace::new(
        standard
            .failures()
            .iter()
            .map(|f| Failure {
                node: NodeId::new(relabel[f.node.index()]),
                ..*f
            })
            .collect(),
    )
    .expect("relabelling keeps detectabilities valid");
    let mut synth_log_ms = 0.0;
    let logs = [LogModel::NasaIpsc, LogModel::SdscSp2].map(|model| {
        let t = Instant::now();
        let standard = SyntheticLog::new(model)
            .jobs(jobs)
            .seed(STANDARD_SEED)
            .build();
        synth_log_ms += t.elapsed().as_secs_f64() * 1e3;
        let mut bodies: Vec<(u32, SimDuration)> =
            standard.iter().map(|j| (j.nodes(), j.runtime())).collect();
        rng.shuffle(&mut bodies);
        let dealt = standard
            .iter()
            .zip(bodies)
            .map(|(slot, (nodes, runtime))| {
                Job::new(slot.id(), slot.arrival(), nodes, runtime).expect("a valid job's body")
            })
            .collect();
        (
            model,
            JobLog::new(dealt).expect("ids are the standard log's"),
        )
    });
    Inputs {
        logs,
        trace: Arc::new(trace),
        synth_log_ms,
        synth_trace_ms,
    }
}

/// One point of the sweep.
#[derive(Clone, Copy)]
struct Scenario {
    log: usize,
    accuracy: f64,
}

/// Both logs at each accuracy, NASA first.
const SCENARIOS: [Scenario; 6] = {
    let [a, b, c] = ACCURACIES;
    [
        Scenario {
            log: 0,
            accuracy: a,
        },
        Scenario {
            log: 0,
            accuracy: b,
        },
        Scenario {
            log: 0,
            accuracy: c,
        },
        Scenario {
            log: 1,
            accuracy: a,
        },
        Scenario {
            log: 1,
            accuracy: b,
        },
        Scenario {
            log: 1,
            accuracy: c,
        },
    ]
};

fn config(accuracy: f64) -> SimConfig {
    SimConfig::paper_defaults()
        .accuracy(accuracy)
        .user(UserStrategy::risk_threshold(USER_THRESHOLD).expect("threshold in [0, 1]"))
}

fn simulate(inputs: &Inputs, s: Scenario, telemetry: Option<Telemetry>) -> (SimReport, Duration) {
    let log = inputs.logs[s.log].1.clone();
    let t = Instant::now();
    let mut sim = QosSimulator::new(config(s.accuracy), log, Arc::clone(&inputs.trace));
    if let Some(telemetry) = telemetry {
        sim = sim.with_telemetry(telemetry);
    }
    let report = sim.run().report;
    (report, t.elapsed())
}

/// One timed simulation.
struct Run {
    scenario: usize,
    jobs: usize,
    wall: Duration,
}

/// One cycle over the six scenarios; each report must equal the first
/// one of its scenario.
fn one_cycle(
    inputs: &Inputs,
    reference: &mut [Option<SimReport>],
    gate: &mut Gate,
    rec: &mut Recorder,
    op: u64,
) -> Vec<Run> {
    let span = rec.begin("sim.cycle", None, op);
    let mut cycle = Vec::new();
    for (k, s) in SCENARIOS.into_iter().enumerate() {
        let run_span = rec.begin("sim.run", span, op);
        let (report, wall) = simulate(inputs, s, None);
        rec.end(run_span);
        cycle.push(Run {
            scenario: k,
            jobs: report.jobs,
            wall,
        });
        match &reference[k] {
            Some(first) => gate.check(*first == report, || {
                format!("scenario {k}: SimReport differs between passes")
            }),
            None => {
                gate.check(report.jobs > 0 && report.qos > 0.0, || {
                    format!("scenario {k}: empty simulation")
                });
                reference[k] = Some(report);
            }
        }
    }
    rec.end(span);
    cycle
}

/// µs per simulated job of one run.
fn per_job_us(r: &Run) -> f64 {
    r.wall.as_secs_f64() * 1e6 / r.jobs as f64
}

/// Each scenario's quiet-quarter µs per job over the cycles: every
/// cycle simulates exactly the same events, so the runs of a scenario
/// differ only by what the host added to them.
fn scenario_costs(cycles: &[Vec<Run>]) -> Vec<f64> {
    (0..SCENARIOS.len())
        .map(|k| {
            let v: Vec<f64> = cycles
                .iter()
                .flatten()
                .filter(|r| r.scenario == k)
                .map(per_job_us)
                .collect();
            stats::quiet_low(&v)
        })
        .collect()
}

/// Jobs per second over a cycle whose every simulation takes its
/// scenario's quiet-quarter time.
fn jobs_per_s(cycles: &[Vec<Run>]) -> f64 {
    let costs = scenario_costs(cycles);
    costs.len() as f64 * 1e6 / costs.iter().sum::<f64>()
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut reference: Vec<Option<SimReport>> = vec![None; SCENARIOS.len()];
    let mut setups = Vec::new();
    let mut built = None;
    let reps = if opts.trace { 1 } else { opts.scale.setup_reps };
    let mut yard = Yardstick::default();
    for _ in 0..reps {
        yard.tick();
        let t = Instant::now();
        let i = inputs(opts.seed, opts.scale.sim_jobs);
        // Warm-up: the first scenario once, discarded.
        black_box(simulate(&i, SCENARIOS[0], None));
        setups.push(t.elapsed().as_secs_f64());
        built = Some(i);
    }
    let inputs = built.expect("at least one set-up");
    if opts.trace {
        traced(opts, &inputs, &mut reference, &mut yard, &mut outcome)?;
        return Ok(outcome);
    }

    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut rec = Recorder::new(Instant::now(), 0, false);
    let mut cycles = Vec::new();
    // CPU µs per simulated job, one sample per cycle.
    let mut cpu_us = Vec::new();
    let mut peak_rss_mib = 0.0;
    while cycles.is_empty() || Instant::now() < deadline {
        yard.tick();
        let cpu0 = sys::cpu_seconds();
        let cycle = one_cycle(
            &inputs,
            &mut reference,
            &mut outcome.gate,
            &mut rec,
            cycles.len() as u64 + 1,
        );
        let jobs: usize = cycle.iter().map(|r| r.jobs).sum();
        cpu_us.push((sys::cpu_seconds() - cpu0) * 1e6 / jobs as f64);
        cycles.push(cycle);
        if cycles.len() == 1 {
            // After a fixed amount of work, not a fixed time.
            peak_rss_mib = sys::peak_rss_mib();
        }
    }
    // µs per simulated job by scenario; the typical scenario stands for
    // the sweep.
    let costs = scenario_costs(&cycles);
    let ops: u64 = cycles.iter().flatten().map(|r| r.jobs as u64).sum();
    outcome.notes.push(format!(
        "{} cycles of {} simulations, {} jobs each",
        cycles.len(),
        SCENARIOS.len(),
        opts.scale.sim_jobs
    ));
    EndToEnd {
        setup_s: stats::quiet_low(&setups),
        setup_reps: setups.len() as u64,
        ops_per_s: jobs_per_s(&cycles),
        ops_samples: cycles.len() as u64,
        lat_samples: (cycles.len() * SCENARIOS.len()) as u64,
        lat_p50_us: stats::median(&costs),
        cpu_us_per_op: stats::quiet_low(&cpu_us),
        ops,
        peak_rss_mib,
    }
    .report(&yard, &mut outcome);
    Ok(outcome)
}

/// `sim`: one scenario with the registry on (the existing
/// `dispatch.*_ns` histograms), against the same scenario with it off.
fn dispatch_lane(inputs: &Inputs, rec: &mut Recorder, layers: &mut Layers) {
    // SDSC at a = 0.7: the longest jobs, a predictor that is neither
    // blind nor perfect.
    let scenario = Scenario {
        log: 1,
        accuracy: 0.7,
    };
    let span = rec.begin("lane.sim.dispatch", None, 0);
    let mut off = Vec::new();
    let mut on = Vec::new();
    let mut snapshot = None;
    let mut report = None;
    for _ in 0..3 {
        off.push(simulate(inputs, scenario, None).1.as_secs_f64());
        let telemetry = Telemetry::builder().build();
        let (r, wall) = simulate(inputs, scenario, Some(telemetry.clone()));
        on.push(wall.as_secs_f64());
        snapshot = telemetry.snapshot();
        report = Some(r);
    }
    rec.end(span);
    let (Some(snapshot), Some(report)) = (snapshot, report) else {
        return;
    };
    let wall_on = stats::median(&on);
    layers.insert(
        "sim.telemetry_overhead_pct",
        (wall_on / stats::median(&off) - 1.0) * 100.0,
    );
    let mut events = 0u64;
    let mut dispatch_ns = 0.0;
    for (name, h) in &snapshot.histograms {
        if name.starts_with("dispatch.") {
            events += h.count;
            dispatch_ns += h.total();
        }
    }
    for (metric, hist) in [
        ("sim.dispatch_arrival_ns", "dispatch.arrival_ns"),
        ("sim.dispatch_start_ns", "dispatch.start_ns"),
        ("sim.dispatch_finish_ns", "dispatch.finish_ns"),
        ("sim.dispatch_node_failure_ns", "dispatch.node_failure_ns"),
        ("sim.dispatch_ckpt_request_ns", "dispatch.ckpt_request_ns"),
    ] {
        layers.insert(metric, snapshot.histogram(hist).map_or(0.0, |h| h.mean));
    }
    layers.insert("sim.events_per_s", events as f64 / wall_on);
    layers.insert(
        "sim.events_per_job",
        events as f64 / report.jobs.max(1) as f64,
    );
    layers.insert("sim.qos_milli", (report.qos * 1e3).round());
    layers.insert("sim.utilization_milli", (report.utilization * 1e3).round());
    layers.insert("sim.lost_work_node_s", report.lost_work as f64);
    // Dispatch handlers against the whole run: the rest is event-queue
    // pops, pre-scheduling and the report fold.
    layers.insert("bench.ledger_accounted_share", dispatch_ns / 1e9 / wall_on);
}

/// `queue` and `ckpt`: the simulator's two innermost kernels.
fn kernel_lanes(div: u64, rec: &mut Recorder, layers: &mut Layers) {
    let span = rec.begin("lane.queue", None, 0);
    let n = 100_000 / div;
    let t = Instant::now();
    let mut queue = EventQueue::new();
    for i in 0..n {
        queue.push(SimTime::from_secs((i * 7919) % 100_000), i);
    }
    let mut sum = 0u64;
    while let Some((_, v)) = queue.pop() {
        sum = sum.wrapping_add(v);
    }
    black_box(sum);
    layers.insert(
        "queue.push_pop_ns",
        t.elapsed().as_nanos() as f64 / n.max(1) as f64,
    );
    rec.end(span);

    let span = rec.begin("lane.ckpt", None, 0);
    let policy = CheckpointPolicyKind::RiskBasedWithDefault.build();
    let n = 2_000_000 / div;
    let t = Instant::now();
    for i in 0..n {
        black_box(policy.decide(black_box(&CheckpointContext {
            now: SimTime::from_secs(i),
            interval: SimDuration::from_secs(3600),
            overhead: SimDuration::from_secs(720),
            skipped_since_last: i % 3,
            failure_probability: (i % 100) as f64 / 100.0,
            baseline_failure_probability: 0.01,
            deadline_pressure: DeadlinePressure::None,
        })));
    }
    layers.insert(
        "ckpt.decide_ns",
        t.elapsed().as_nanos() as f64 / n.max(1) as f64,
    );
    rec.end(span);
}

fn traced(
    opts: &Opts,
    inputs: &Inputs,
    reference: &mut [Option<SimReport>],
    yard: &mut Yardstick,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let origin = Instant::now();
    let mut layers = Layers::new();
    // Untraced and traced cycles alternate, so drift in the machine hits
    // both sides alike.
    let deadline = origin + Duration::from_secs_f64(opts.seconds / 2.0);
    let mut off = Recorder::new(origin, 0, false);
    let mut rec = Recorder::new(origin, 0, true);
    let (mut untraced, mut cycles) = (Vec::new(), Vec::new());
    while cycles.is_empty() || Instant::now() < deadline {
        yard.tick();
        let op = cycles.len() as u64 + 1;
        untraced.push(one_cycle(
            inputs,
            reference,
            &mut outcome.gate,
            &mut off,
            op,
        ));
        cycles.push(one_cycle(
            inputs,
            reference,
            &mut outcome.gate,
            &mut rec,
            op,
        ));
    }
    layers.insert(
        "bench.trace_overhead_pct",
        suite::overhead_pct(jobs_per_s(&untraced), jobs_per_s(&cycles)),
    );
    layers.insert("bench.yardstick_ms", yard.ms());

    let div = opts.scale.lane_divisor;
    layers.insert("workload.synth_ms", inputs.synth_log_ms);
    layers.insert("failures.synth_ms", inputs.synth_trace_ms);
    dispatch_lane(inputs, &mut rec, &mut layers);
    kernel_lanes(div, &mut rec, &mut layers);

    // A journaled run feeds the journal and doctor lanes.
    let scenario = Scenario {
        log: 0,
        accuracy: 0.7,
    };
    let buf = SharedBuf::new();
    let telemetry = Telemetry::builder()
        .flush_every(0)
        .jsonl_writer(buf.clone())
        .build();
    let span = rec.begin("lane.sim.journaled", None, 0);
    let (report, _) = simulate(inputs, scenario, Some(telemetry));
    rec.end(span);
    let journal = buf.take_string();
    let jobs = report.jobs.max(1) as f64;
    layers.insert(
        "journal.events_per_request",
        journal.lines().count() as f64 / jobs,
    );
    layers.insert("journal.bytes_per_request", journal.len() as f64 / jobs);
    let clean = pqos_obs::Doctor::check_str(&journal);
    outcome.gate.check(clean.errors() == 0, || {
        format!(
            "doctor: {} error(s) in the simulator's journal",
            clean.errors()
        )
    });
    lanes::doctor(&journal, &mut rec, &mut layers);
    lanes::journal_emit(
        &opts.out_dir.join("lane-journal.jsonl"),
        div,
        &mut rec,
        &mut layers,
    )
    .map_err(|e| e.to_string())?;

    // Scheduling kernels on a book as shallow as the simulator's (its
    // book holds running and queued jobs only) against its own oracle.
    let t = Instant::now();
    let oracle = TraceOracle::new(Arc::clone(&inputs.trace), 0.7).expect("accuracy in range");
    layers.insert("predict.oracle_build_ms", t.elapsed().as_secs_f64() * 1e3);
    let predictor: crate::serve::Pred = Box::new(oracle);
    let book = crate::gen::packed_book("lane-book", 128, 64, 32);
    lanes::sched(128, &book, &predictor, div, &mut rec, &mut layers);

    let spans = rec.into_spans();
    let folded = crate::spans::self_times(&spans);
    if let Some(c) = folded.get("sim.cycle") {
        layers.insert(
            "bench.client_self_share",
            c.self_ns as f64 / c.total_ns.max(1) as f64,
        );
    }
    suite::finish_trace(opts, "sim_sweep", &spans, &layers, outcome).map_err(|e| e.to_string())?;
    Ok(())
}
