//! Runs a served mix end to end: set-up (book, daemon, connections,
//! warm-up), the timed closed loop, the drain and the correctness gate —
//! and, for the traced run, the registry read-out and the isolated lanes.

use crate::gate::Gate;
use crate::gen::Booking;
use crate::lanes::{self, Layers};
use crate::serve::{self, Daemon, Drivers, Mix, Phase, Plan, RoundNumbers, Verb};
use crate::spans::Recorder;
use crate::stats;
use crate::suite::{self, EndToEnd, Opts, Outcome};
use crate::sys;
use crate::yardstick::Yardstick;
use pqos_failures::synthetic::AixLikeTrace;
use pqos_service::protocol::StatusBody;
use pqos_telemetry::{labeled, Snapshot, Telemetry};
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn name(mix: Mix) -> &'static str {
    match mix {
        Mix::Reject => "serve_reject",
        Mix::Admit => "serve_admit",
    }
}

/// A daemon with its connection warmed up, and what was asked of it so
/// far.
struct Served {
    mix: Mix,
    book: Vec<Booking>,
    daemon: Daemon,
    drivers: Drivers,
    /// Counters over every phase run against this daemon.
    totals: Phase,
}

impl Served {
    fn set_up(mix: Mix, opts: &Opts, journal: PathBuf) -> io::Result<Served> {
        let book = serve::bookings(mix, opts.scale.admit_depth);
        let daemon = Daemon::start(mix, &book, journal)?;
        let drivers = Drivers::connect(mix, daemon.addr, opts.seed)?;
        let mut served = Served {
            mix,
            book,
            daemon,
            drivers,
            totals: Phase::default(),
        };
        let warm = match mix {
            Mix::Reject => opts.scale.warm_requests,
            Mix::Admit => opts.scale.warm_dialogs,
        };
        // Warm-up: the memo fills (reject), the lag queue fills (admit),
        // lazy set-up finishes. Its replies are checked, not timed.
        served.phase(Plan {
            units: warm,
            origin: Instant::now(),
            traced: false,
        })?;
        Ok(served)
    }

    fn phase(&mut self, plan: Plan) -> io::Result<Phase> {
        let mut phase = self.drivers.run(plan)?;
        self.totals.replies += phase.replies;
        self.totals.quoted += phase.quoted;
        self.totals.rejected += phase.rejected;
        self.totals.gate.absorb(std::mem::take(&mut phase.gate));
        Ok(phase)
    }

    /// Drains the daemon and runs the gate. Returns what the traced run
    /// reads its registry numbers from.
    fn tear_down(self, gate: &mut Gate, keep_journal: bool) -> io::Result<Drained> {
        let Served {
            mix,
            book,
            daemon,
            drivers,
            mut totals,
        } = self;
        let live = drivers.live();
        let bytes = drivers.bytes();
        drop(drivers);
        let telemetry = daemon.telemetry.clone();
        let journal_path = daemon.journal.clone();
        let status = daemon.stop()?;
        gate.absorb(std::mem::take(&mut totals.gate));
        serve::final_checks(
            mix,
            gate,
            &serve::Evidence {
                status: &status,
                telemetry: &telemetry,
                journal: &journal_path,
                totals: &totals,
                live_at_end: live,
                book_len: book.len(),
            },
        )?;
        // Only the traced run's lanes read the journal back.
        let journal = if keep_journal {
            std::fs::read_to_string(&journal_path)?
        } else {
            String::new()
        };
        std::fs::remove_file(&journal_path)?;
        Ok(Drained {
            book,
            status,
            telemetry,
            journal,
            replies: totals.replies,
            bytes,
        })
    }
}

struct Drained {
    book: Vec<Booking>,
    status: StatusBody,
    telemetry: Telemetry,
    journal: String,
    replies: u64,
    bytes: u64,
}

/// One measured round: a fresh daemon set up and warmed, the mix's
/// constant amount of work timed against it, the daemon drained and
/// judged. A daemon's job table only grows (cancelled and rejected jobs
/// stay in it, and some per-tick work walks it), so a run that kept one
/// daemon for its whole length would slow down as it went, and by how
/// much would depend on how fast the machine was. Rounds make the unit
/// of measurement a fixed piece of work from a fixed state: two rounds
/// differ only by what the host added.
struct Round {
    setup_s: f64,
    numbers: RoundNumbers,
    phase: Phase,
    drained: Drained,
}

/// Where a round's spans and journal go.
#[derive(Clone, Copy)]
struct RoundPlan {
    /// Zero of the span timestamps.
    origin: Instant,
    traced: bool,
    keep_journal: bool,
}

fn round(
    mix: Mix,
    opts: &Opts,
    gate: &mut Gate,
    yard: &mut Yardstick,
    plan: RoundPlan,
) -> io::Result<Round> {
    let journal = opts.out_dir.join(format!(
        "journal-{}-{}.jsonl",
        name(mix),
        std::process::id()
    ));
    yard.tick();
    let t = Instant::now();
    let mut served = Served::set_up(mix, opts, journal)?;
    let setup_s = t.elapsed().as_secs_f64();
    yard.tick();
    let (t, cpu0) = (Instant::now(), sys::cpu_seconds());
    let phase = served.phase(Plan {
        units: mix.round_units() / opts.scale.lane_divisor,
        origin: plan.origin,
        traced: plan.traced,
    })?;
    let numbers = serve::numbers(&phase, t.elapsed().as_secs_f64(), sys::cpu_seconds() - cpu0);
    let drained = served.tear_down(gate, plan.keep_journal)?;
    Ok(Round {
        setup_s,
        numbers,
        phase,
        drained,
    })
}

/// Rounds, planned by `plans` in turn, until `seconds` have passed; at
/// least one of each plan. Every round of a run does the same work on
/// the same inputs, so its counts must repeat exactly. Also returns the
/// peak memory after the first round: after a fixed amount of work,
/// whatever the machine's speed.
fn rounds(
    mix: Mix,
    opts: &Opts,
    gate: &mut Gate,
    yard: &mut Yardstick,
    seconds: f64,
    plans: &[RoundPlan],
) -> io::Result<(Vec<Round>, f64)> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut done: Vec<Round> = Vec::new();
    let mut peak_rss_mib = 0.0;
    // Whole passes over `plans`, so a traced run ends on a traced round.
    while done.is_empty() || !done.len().is_multiple_of(plans.len()) || Instant::now() < deadline {
        let r = round(mix, opts, gate, yard, plans[done.len() % plans.len()])?;
        if let Some(first) = done.first() {
            let counts = |r: &Round| (r.phase.replies, r.phase.quoted, r.phase.rejected);
            gate.check(counts(first) == counts(&r), || {
                format!(
                    "round {} counted {:?} (replies, quoted, rejected), the first {:?}",
                    done.len() + 1,
                    counts(&r),
                    counts(first)
                )
            });
        }
        done.push(r);
        if done.len() == 1 {
            peak_rss_mib = sys::peak_rss_mib();
        }
    }
    Ok((done, peak_rss_mib))
}

/// The quiet quarter of one number over rounds.
fn over(rounds: &[&Round], f: fn(&Round) -> f64, quiet: fn(&[f64]) -> f64) -> f64 {
    quiet(&rounds.iter().map(|r| f(r)).collect::<Vec<_>>())
}

pub fn run(mix: Mix, opts: &Opts) -> Result<Outcome, String> {
    run_io(mix, opts).map_err(|e| format!("{}: {e}", name(mix)))
}

fn run_io(mix: Mix, opts: &Opts) -> io::Result<Outcome> {
    let mut outcome = Outcome::default();
    if opts.trace {
        traced(mix, opts, &mut outcome)?;
        return Ok(outcome);
    }
    let plan = RoundPlan {
        origin: Instant::now(),
        traced: false,
        keep_journal: false,
    };
    let mut yard = Yardstick::default();
    let (done, peak_rss_mib) = rounds(
        mix,
        opts,
        &mut outcome.gate,
        &mut yard,
        opts.seconds,
        &[plan],
    )?;
    let all: Vec<&Round> = done.iter().collect();
    let first = &done[0];
    outcome.notes.push(format!(
        "{} rounds, each a fresh daemon over {} preloaded reservations, 1 connection x {} in \
         flight: {} replies, {} negotiates ({:.1} % rejected), {} dialogs",
        done.len(),
        first.drained.book.len(),
        mix.depth(),
        first.numbers.replies,
        first.numbers.negotiates,
        first.phase.rejected as f64 * 100.0 / first.numbers.negotiates.max(1) as f64,
        first.phase.dialogs
    ));
    EndToEnd {
        setup_s: over(&all, |r| r.setup_s, stats::quiet_low),
        setup_reps: done.len() as u64,
        ops_per_s: over(&all, |r| r.numbers.ops_per_s, stats::quiet_high),
        ops_samples: done.len() as u64,
        lat_p50_us: over(&all, |r| r.numbers.p50_us, stats::quiet_low),
        lat_samples: done.iter().map(|r| r.numbers.negotiates).sum(),
        cpu_us_per_op: over(&all, |r| r.numbers.cpu_us_per_op, stats::quiet_low),
        ops: done.iter().map(|r| r.numbers.replies).sum(),
        peak_rss_mib,
    }
    .report(&yard, &mut outcome);
    Ok(outcome)
}

fn hist_us(
    snapshot: &Snapshot,
    name: &str,
    pick: impl Fn(&pqos_telemetry::HistogramSummary) -> f64,
) -> f64 {
    snapshot.histogram(name).map_or(0.0, |h| pick(h) / 1e3)
}

fn traced(mix: Mix, opts: &Opts, outcome: &mut Outcome) -> io::Result<()> {
    let mut layers = Layers::new();
    // Untraced and traced rounds alternate, so drift in the machine hits
    // both sides alike.
    let origin = Instant::now();
    let off = RoundPlan {
        origin,
        traced: false,
        keep_journal: false,
    };
    let on = RoundPlan {
        origin,
        traced: true,
        keep_journal: true,
    };
    let mut yard = Yardstick::default();
    let (mut done, _) = rounds(
        mix,
        opts,
        &mut outcome.gate,
        &mut yard,
        opts.seconds / 2.0,
        &[off, on],
    )?;
    layers.insert("bench.yardstick_ms", yard.ms());
    let (untraced, traced): (Vec<&Round>, Vec<&Round>) =
        done.iter().partition(|r| r.phase.spans.is_empty());
    let rate = |side: &[&Round]| over(side, |r| r.numbers.ops_per_s, stats::quiet_high);
    layers.insert(
        "bench.trace_overhead_pct",
        suite::overhead_pct(rate(&untraced), rate(&traced)),
    );
    let p50_us = over(&traced, |r| r.numbers.p50_us, stats::quiet_low);
    layers.insert(
        "client.negotiate_p99_us",
        over(&untraced, |r| r.numbers.p99_us, stats::quiet_low),
    );
    let (untraced_n, traced_n) = (untraced.len(), traced.len());
    // The last traced round stands for the run: its spans go to the
    // Chrome trace, its daemon's registry and journal to the lanes.
    let Round { phase, drained, .. } = done.pop().expect("at least one pair of rounds");
    let (spans, lines) = (phase.spans, phase.lines);
    let (accept_p50, accept_p99) = serve::span_percentiles(&spans, Verb::Accept);
    let (cancel_p50, _) = serve::span_percentiles(&spans, Verb::Cancel);
    layers.insert("client.accept_p50_us", accept_p50);
    layers.insert("client.accept_p99_us", accept_p99);
    layers.insert("client.cancel_p50_us", cancel_p50);

    let status = &drained.status;
    let requests = drained.replies.max(1) as f64;
    layers.insert("net.bytes_per_request", drained.bytes as f64 / requests);
    if let Some(snapshot) = drained.telemetry.snapshot() {
        layers.insert(
            "engine.batch_mean",
            snapshot
                .histogram("engine.batch_size")
                .map_or(0.0, |h| h.mean),
        );
        layers.insert(
            "engine.tick_p50_us",
            hist_us(&snapshot, "engine.tick_ns", |h| h.p50),
        );
        layers.insert(
            "engine.timeouts",
            snapshot.counter("engine.timeouts").unwrap_or(0) as f64,
        );
        for (stage, p50, p99) in [
            ("parse", "stage.parse_p50_us", "stage.parse_p99_us"),
            ("queue", "stage.queue_p50_us", "stage.queue_p99_us"),
            ("batch", "stage.batch_p50_us", "stage.batch_p99_us"),
            ("compute", "stage.compute_p50_us", "stage.compute_p99_us"),
            ("write", "stage.write_p50_us", "stage.write_p99_us"),
        ] {
            let key = labeled("rpc.stage_ns", &[("stage", stage), ("verb", "negotiate")]);
            layers.insert(p50, hist_us(&snapshot, &key, |h| h.p50));
            layers.insert(p99, hist_us(&snapshot, &key, |h| h.p99));
        }
        let total = |name: &str| snapshot.histogram(name).map_or(0.0, |h| h.total());
        let (negotiate, parity) = (total("session.negotiate_ns"), total("session.parity_ns"));
        layers.insert(
            "session.parity_share",
            parity / (negotiate + parity).max(1.0),
        );
        let gauge = |name: &str| snapshot.gauge(name).unwrap_or(0) as f64;
        let (hits, misses) = (gauge("quote_cache.hits"), gauge("quote_cache.misses"));
        layers.insert("cache.hit_share", hits / (hits + misses).max(1.0));
        layers.insert("cache.rebuilds", gauge("quote_cache.profile_rebuilds"));
        let mutations = (status.accepted + status.promises_cancelled).max(1) as f64;
        layers.insert(
            "cache.invalidated_per_mutation",
            gauge("quote_cache.entries_invalidated") / mutations,
        );
    }
    layers.insert("engine.overloaded", status.overloaded as f64);
    layers.insert(
        "session.accept_expired_share",
        status.expired as f64 / (status.accepted + status.expired).max(1) as f64,
    );
    let events: u64 = drained.telemetry.event_counts().iter().map(|c| c.1).sum();
    layers.insert("journal.events_per_request", events as f64 / requests);
    layers.insert(
        "journal.bytes_per_request",
        drained.journal.len() as f64 / requests,
    );
    layers.insert(
        "journal.write_errors",
        drained.telemetry.sink_health().write_errors as f64,
    );

    // The isolated lanes, on the same book, script and line sizes.
    let mut rec = Recorder::new(origin, 1, true);
    let div = opts.scale.lane_divisor;
    let (echo_requests, dialogs) = match mix {
        Mix::Reject => (40_000 / div, 20_000 / div),
        Mix::Admit => (4_000 / div, 1_500 / div),
    };
    lanes::net_echo(mix, &lines, echo_requests, &mut rec, &mut layers)?;
    lanes::protocol(&lines, &mut rec, &mut layers);
    lanes::engine_roundtrip(
        mix,
        opts.seed,
        &drained.book,
        dialogs,
        &mut rec,
        &mut layers,
    );
    let lane_journal = opts.out_dir.join("lane-journal.jsonl");
    let with = lanes::session_costs(
        mix,
        opts.seed,
        &drained.book,
        serve::journal_telemetry(&lane_journal)?,
        dialogs,
        &mut rec,
        "lane.session",
    );
    std::fs::remove_file(&lane_journal)?;
    let without = lanes::session_costs(
        mix,
        opts.seed,
        &drained.book,
        Telemetry::builder().build(),
        dialogs,
        &mut rec,
        "lane.session.nojournal",
    );
    layers.insert("session.quote_ns", with.quote_ns);
    layers.insert("session.accept_ns", with.accept_ns);
    layers.insert("session.cancel_ns", with.cancel_ns);
    layers.insert("session.advance_ns", with.advance_ns);
    layers.insert(
        "journal.share",
        (1.0 - without.wall_s / with.wall_s).max(0.0),
    );
    lanes::journal_emit(&lane_journal, div, &mut rec, &mut layers)?;
    lanes::doctor(&drained.journal, &mut rec, &mut layers);
    if mix == Mix::Admit {
        let t = Instant::now();
        std::hint::black_box(
            AixLikeTrace::new()
                .days(365.0)
                .seed(crate::gen::LAYOUT_SEED)
                .nodes(crate::gen::SERVED_NODES)
                .build(),
        );
        layers.insert("failures.synth_ms", t.elapsed().as_secs_f64() * 1e3);
    }
    let t = Instant::now();
    let predictor = serve::predictor(mix);
    layers.insert("predict.oracle_build_ms", t.elapsed().as_secs_f64() * 1e3);
    lanes::sched(
        crate::gen::SERVED_NODES,
        &drained.book,
        &predictor,
        div,
        &mut rec,
        &mut layers,
    );
    let lane = |name: &str| layers.get(name).copied().unwrap_or(0.0);
    // How much of a client-seen quote the socket, JSON and engine lanes
    // explain; the rest is the session's compute and contention.
    let accounted = lane("net.echo_p50_us")
        + (lane("protocol.parse_ns") + lane("protocol.encode_ns")) / 1e3
        + lane("engine.roundtrip_p50_us");
    layers.insert("bench.ledger_accounted_share", accounted / p50_us.max(1e-9));

    let spans = crate::spans::merge(vec![spans, rec.into_spans()]);
    if let Some(d) = crate::spans::self_times(&spans).get("client.dialog") {
        layers.insert(
            "bench.client_self_share",
            d.self_ns as f64 / d.total_ns.max(1) as f64,
        );
    }
    suite::finish_trace(opts, name(mix), &spans, &layers, outcome)?;
    outcome.notes.push(format!(
        "{} untraced and {} traced rounds",
        untraced_n, traced_n
    ));
    Ok(())
}
