//! Regenerates the failing-trace corpus under `traces/failing/`.
//!
//! ```text
//! cargo run -p pqos-replay --example record_corpus [-- <output-root>]
//! ```
//!
//! Corpus traces are *authored*, not captured: each case is a
//! hand-constructed request sequence whose responses are reconstructed by
//! replaying it through the real engine (`--no-parity` style), so the
//! written trace is parity-clean by construction and fully deterministic —
//! no daemon, no sockets, no wall clock involved. The cases:
//!
//! * `pr2-same-instant-handoff` — a full-cluster job completes at exactly
//!   the virtual instant a successor is quoted: completion must be
//!   processed before the quote (the event-ordering class of bug the
//!   journal invariant work fixed). Pinned clean.
//! * `pr2-horizon-probe` — a saturated cluster pushes a quote past the
//!   configured `--quote-horizon`, which must reject rather than promise
//!   beyond the horizon boundary. Pinned clean.
//! * `seeded-response-divergence` — a healthy 25-request trace with ONE
//!   recorded negotiate response deliberately tampered (`promised_secs`
//!   off by one). Replay pins `response_mismatch: 1`; CI bisects this
//!   trace and asserts the minimal reproducer is <= 10% of the original.
//! * `sharded-route-divergence` — a 4-shard trace (narrow stream plus
//!   one cross-shard wide job) with one narrow quote's recorded
//!   `start_secs` shifted — the exact signature an engine-routing
//!   nondeterminism leaves, since replay re-derives every route and
//!   disagrees only on the entries a drifted shard answered. Pinned
//!   `response_mismatch: 1` and bisected in CI like the seeded case.
//! * `slo-alert-flap` — a tight `rejects<=0` SLO rule driven through
//!   fire → resolve → fire → resolve by alternating oversized
//!   (rejected) and well-formed negotiates. Pins the deterministic
//!   alert journal: replay must reproduce the exact `slo_alert` lines
//!   and `pqos-doctor slo` must re-derive them with zero diffs.
//! * `runtime-overflow` — `runtime_secs` near `u64::MAX`, narrow and
//!   wide, on a 2-shard daemon: the planned execution time saturates
//!   instead of wrapping, so the request is promised its full length
//!   (from t=0, where it just fits before the end of time) or rejected —
//!   never a panic, never a reservation shorter than the job. Pins
//!   `unfinished_job: 1`: accepted, the endless job outlives the trace.

use pqos_service::protocol::{Request, Response};
use pqos_service::replay::{replay, ReplayOptions};
use pqos_telemetry::reqtrace::{RequestTrace, TraceEntry, TraceMeta};
use pqos_telemetry::{AlertState, TelemetryEvent};
use std::path::Path;

fn meta(cluster_size: u32, quote_horizon_secs: Option<u64>) -> TraceMeta {
    sharded_meta(cluster_size, 1, quote_horizon_secs)
}

fn sharded_meta(cluster_size: u32, shards: u64, quote_horizon_secs: Option<u64>) -> TraceMeta {
    TraceMeta {
        time_scale: 1000.0,
        batch_threads: 2,
        quote_horizon_secs,
        shards,
        ..TraceMeta::qosd(cluster_size)
    }
}

fn slo_meta(cluster_size: u32, rules: &[&str], window_secs: u64) -> TraceMeta {
    TraceMeta {
        slo: rules.iter().map(|s| (*s).into()).collect(),
        slo_window_secs: window_secs,
        ..sharded_meta(cluster_size, 1, None)
    }
}

/// Builds an authored trace from `(epoch, tick_secs, request, job)`
/// tuples, with placeholder responses to be reconstructed.
fn author(meta: TraceMeta, script: &[(u64, u64, Request, Option<u64>)]) -> RequestTrace {
    let entries = script
        .iter()
        .enumerate()
        .map(|(i, (epoch, tick_secs, request, job))| TraceEntry {
            seq: i as u64 + 1,
            epoch: *epoch,
            tick_secs: *tick_secs,
            conn: 1,
            verb: request.verb().into(),
            job: *job,
            request: request.encode(),
            response: Response::Ok { id: request.id() }.encode(),
        })
        .collect();
    RequestTrace { meta, entries }
}

/// Replays an authored trace to learn the real responses, rewrites them
/// in, and re-replays to prove the result is parity-clean. Returns the
/// finished trace and its replay journal.
fn reconstruct(mut trace: RequestTrace) -> (RequestTrace, String) {
    let no_parity = ReplayOptions {
        check_parity: false,
        ..ReplayOptions::default()
    };
    let first = replay(&trace, &no_parity).expect("authored trace replays");
    for (seq, line) in &first.responses {
        let entry = trace
            .entries
            .iter_mut()
            .find(|e| e.seq == *seq)
            .expect("response for a known entry");
        entry.response = line.clone();
    }
    let second = replay(&trace, &ReplayOptions::default()).expect("reconstructed trace replays");
    assert!(
        second.is_parity_clean(),
        "reconstruction must be parity-clean, got {:#?}",
        second.mismatches
    );
    assert_eq!(second.journal, first.journal, "reconstruction is stable");
    (trace, second.journal)
}

/// Parses the one `job_completed` event for `job` out of a replay journal.
fn completion_time(journal: &str, job: u64) -> u64 {
    journal
        .lines()
        .filter_map(TelemetryEvent::from_jsonl)
        .find_map(|e| match e {
            TelemetryEvent::JobCompleted { at, job: j, .. } if j == job => Some(at.as_secs()),
            _ => None,
        })
        .expect("journal records the completion")
}

fn write_case(
    root: &Path,
    name: &str,
    trace: &RequestTrace,
    journal: &str,
    expected: Option<&str>,
) {
    let dir = root.join(name);
    std::fs::create_dir_all(&dir).expect("create case dir");
    std::fs::write(dir.join("trace.jsonl"), trace.encode()).expect("write trace");
    std::fs::write(dir.join("journal.jsonl"), journal).expect("write journal");
    let expected_path = dir.join("expected.json");
    match expected {
        Some(manifest) => std::fs::write(&expected_path, manifest).expect("write manifest"),
        None => {
            let _ = std::fs::remove_file(&expected_path); // clean case: no manifest
        }
    }
    println!(
        "{name}: {} entries, {} journal lines{}",
        trace.entries.len(),
        journal.lines().count(),
        if expected.is_some() {
            " (with pinned findings)"
        } else {
            " (pinned clean)"
        }
    );
}

/// The same-instant handoff: learn when a full-cluster job completes,
/// then quote its successor at exactly that virtual second.
fn same_instant_handoff(root: &Path) {
    let neg = |id, job| {
        (
            1u64,
            0u64,
            Request::Negotiate {
                id,
                size: 8,
                runtime_secs: 3600,
            },
            Some(job),
        )
    };
    // Probe: run just the first job to completion to learn its instant.
    let probe = author(
        meta(8, None),
        &[
            neg(1, 1),
            (1, 0, Request::Accept { id: 2, job: 1 }, None),
            // A far-future carrier op so virtual time passes the completion.
            (2, 100_000, Request::Cancel { id: 3, job: 999 }, None),
        ],
    );
    let (_, probe_journal) = reconstruct(probe);
    let handoff = completion_time(&probe_journal, 1);

    let full = author(
        meta(8, None),
        &[
            neg(1, 1),
            (1, 0, Request::Accept { id: 2, job: 1 }, None),
            // The successor is quoted in the same tick the predecessor
            // completes: the freed nodes must already be visible.
            (
                2,
                handoff,
                Request::Negotiate {
                    id: 3,
                    size: 8,
                    runtime_secs: 3600,
                },
                Some(2),
            ),
            (2, handoff, Request::Accept { id: 4, job: 2 }, None),
            // Far enough out that the successor has completed too: the
            // journal ends with no live jobs, so the case pins clean.
            (3, handoff + 100_000, Request::Shutdown { id: 5 }, None),
        ],
    );
    let (trace, journal) = reconstruct(full);
    let quote = Response::parse(&trace.entries[2].response).expect("quote parses");
    assert!(
        matches!(quote, Response::Quote { start_secs, .. } if start_secs == handoff),
        "successor must start the instant the predecessor completes: {quote:?}"
    );
    write_case(root, "pr2-same-instant-handoff", &trace, &journal, None);
}

/// The horizon probe: a saturated cluster pushes the next quote past the
/// configured horizon, which must reject.
fn horizon_probe(root: &Path) {
    let full = author(
        meta(4, Some(7200)),
        &[
            // Occupies the whole cluster for longer than the horizon.
            (
                1,
                0,
                Request::Negotiate {
                    id: 1,
                    size: 4,
                    runtime_secs: 10_800,
                },
                Some(1),
            ),
            (1, 0, Request::Accept { id: 2, job: 1 }, None),
            // Both of these could only start after ~10800s > 7200s horizon.
            (
                2,
                60,
                Request::Negotiate {
                    id: 3,
                    size: 4,
                    runtime_secs: 600,
                },
                Some(2),
            ),
            (
                3,
                120,
                Request::Negotiate {
                    id: 4,
                    size: 2,
                    runtime_secs: 300,
                },
                Some(3),
            ),
            // Past the accepted job's completion: no live jobs at the end.
            (4, 100_000, Request::Shutdown { id: 5 }, None),
        ],
    );
    let (trace, journal) = reconstruct(full);
    for seq in [3, 4] {
        let response = Response::parse(&trace.entries[seq - 1].response).expect("parses");
        assert!(
            matches!(response, Response::Error { .. }),
            "past-horizon negotiate (seq {seq}) must be rejected: {response:?}"
        );
    }
    write_case(root, "pr2-horizon-probe", &trace, &journal, None);
}

/// The seeded divergence: a healthy trace with one negotiate response
/// tampered after reconstruction, pinning `response_mismatch: 1`.
fn seeded_divergence(root: &Path) {
    let mut script = Vec::new();
    for k in 0u64..12 {
        script.push((
            k + 1,
            k * 60,
            Request::Negotiate {
                id: 2 * k + 1,
                size: 1 + (k % 4) as u32,
                runtime_secs: 600 + 60 * k,
            },
            Some(k + 1),
        ));
        script.push((
            k + 1,
            k * 60,
            Request::Accept {
                id: 2 * k + 2,
                job: k + 1,
            },
            None,
        ));
    }
    // Past every job's completion: the journal ends with no live jobs.
    script.push((13, 100_000, Request::Shutdown { id: 100 }, None));
    let (mut trace, journal) = reconstruct(author(meta(64, None), &script));

    // Tamper exactly one recorded quote: promise one second more than the
    // engine actually promised. Replay now disagrees with the recording
    // on exactly this entry — the seeded incident.
    let victim = &mut trace.entries[10]; // the 6th negotiate (seq 11)
    let Some(Response::Quote {
        id,
        job,
        start_secs,
        promised_secs,
        deadline_secs,
        success_probability,
        satisfied_threshold,
    }) = Response::parse(&victim.response)
    else {
        panic!("victim entry holds a quote");
    };
    victim.response = Response::Quote {
        id,
        job,
        start_secs,
        promised_secs: promised_secs + 1,
        deadline_secs,
        success_probability,
        satisfied_threshold,
    }
    .encode();

    let report = replay(&trace, &ReplayOptions::default()).expect("tampered trace still replays");
    assert_eq!(report.mismatches.len(), 1, "exactly the seeded mismatch");
    assert_eq!(report.mismatches[0].seq, 11);
    assert_eq!(
        report.journal, journal,
        "tampering a response does not change the journal"
    );

    write_case(
        root,
        "seeded-response-divergence",
        &trace,
        &journal,
        Some("{\"findings\": [{\"code\": \"response_mismatch\", \"count\": 1}]}\n"),
    );
}

/// The sharded divergence: a 4-shard trace whose narrow stream spreads
/// across every shard and whose wide job exercises the cross-shard
/// coordinator, with one narrow quote's recorded `start_secs` shifted
/// after reconstruction. A routing regression — any nondeterminism in
/// the probe rotation, tie-break, or merge order — would produce exactly
/// this shape: replay re-derives the routes and disagrees with the
/// recording only on the entries the drifted shard answered.
fn sharded_divergence(root: &Path) {
    let mut script = Vec::new();
    for k in 0u64..20 {
        script.push((
            k + 1,
            k * 30,
            Request::Negotiate {
                id: 2 * k + 1,
                // 1..=4 nodes: at or under a 4-node shard's width, so
                // every job is probe-routed, never coordinated.
                size: 1 + (k % 4) as u32,
                runtime_secs: 600 + 30 * k,
            },
            Some(k + 1),
        ));
        script.push((
            k + 1,
            k * 30,
            Request::Accept {
                id: 2 * k + 2,
                job: k + 1,
            },
            None,
        ));
    }
    // One job wider than any shard: quoted two-phase against the merged
    // view, reserved shard by shard by the coordinator.
    script.push((
        21,
        700,
        Request::Negotiate {
            id: 41,
            size: 10,
            runtime_secs: 900,
        },
        Some(100),
    ));
    script.push((21, 700, Request::Accept { id: 42, job: 100 }, None));
    // Past every completion: the merged journal ends with no live jobs.
    script.push((22, 100_000, Request::Shutdown { id: 43 }, None));
    let (mut trace, journal) = reconstruct(author(sharded_meta(16, 4, None), &script));

    // Shift one recorded narrow quote's start by a minute: the story a
    // wrong-shard route tells, because a different shard's book yields a
    // different earliest hole.
    let victim = &mut trace.entries[24]; // the 13th negotiate (seq 25)
    let Some(Response::Quote {
        id,
        job,
        start_secs,
        promised_secs,
        deadline_secs,
        success_probability,
        satisfied_threshold,
    }) = Response::parse(&victim.response)
    else {
        panic!("victim entry holds a quote");
    };
    victim.response = Response::Quote {
        id,
        job,
        start_secs: start_secs + 60,
        promised_secs,
        deadline_secs,
        success_probability,
        satisfied_threshold,
    }
    .encode();

    let report = replay(&trace, &ReplayOptions::default()).expect("tampered trace still replays");
    assert_eq!(report.mismatches.len(), 1, "exactly the seeded mismatch");
    assert_eq!(report.mismatches[0].seq, 25);
    assert_eq!(
        report.journal, journal,
        "tampering a response does not change the merged journal"
    );

    write_case(
        root,
        "sharded-route-divergence",
        &trace,
        &journal,
        Some("{\"findings\": [{\"code\": \"response_mismatch\", \"count\": 1}]}\n"),
    );
}

/// The alert flap: one-window burn windows (`@1`, 60s wide) and a rule
/// every reject violates. Oversized negotiates (size 32 on a 16-node
/// cluster) journal `job_rejected`; the next tick closes their window
/// and fires, a clean window in between resolves, and the shutdown
/// tick's drain resolves the final fire. Four `slo_alert` lines, all
/// pinned byte-for-byte by the committed journal.
fn slo_alert_flap(root: &Path) {
    let negotiate = |epoch: u64, tick: u64, id: u64, size: u32, job: u64| {
        (
            epoch,
            tick,
            Request::Negotiate {
                id,
                size,
                runtime_secs: 600,
            },
            Some(job),
        )
    };
    let full = author(
        slo_meta(16, &["flap:rejects<=0@1"], 60),
        &[
            // Rejected: wider than the cluster. Lands in window [0,60).
            negotiate(1, 0, 1, 32, 1),
            // Tick 120 closes [0,60) with one reject -> FIRE. The clean
            // quote lands in [120,180).
            negotiate(2, 120, 2, 2, 2),
            (2, 120, Request::Accept { id: 3, job: 2 }, None),
            // Tick 240 closes the clean window -> RESOLVE, then journals
            // a fresh reject into [240,300).
            negotiate(3, 240, 4, 32, 3),
            // Tick 360 closes the reject window -> FIRE again (the flap).
            negotiate(4, 360, 5, 2, 4),
            (4, 360, Request::Accept { id: 6, job: 4 }, None),
            // Past every completion; the final drain closes the last
            // clean window -> RESOLVE, and the journal ends quiet.
            (5, 100_000, Request::Shutdown { id: 7 }, None),
        ],
    );
    let (trace, journal) = reconstruct(full);
    let states: Vec<AlertState> = journal
        .lines()
        .filter_map(TelemetryEvent::from_jsonl)
        .filter_map(|e| match e {
            TelemetryEvent::SloAlert { state, .. } => Some(state),
            _ => None,
        })
        .collect();
    assert_eq!(
        states,
        [
            AlertState::Fire,
            AlertState::Resolve,
            AlertState::Fire,
            AlertState::Resolve,
        ],
        "the flap journals fire/resolve/fire/resolve"
    );
    write_case(root, "slo-alert-flap", &trace, &journal, None);
}

/// The runtime overflow: `runtime_secs` near `u64::MAX` on a 2-shard
/// daemon, narrow (one shard's book) and wide (the merged view). The
/// planned execution time used to wrap — a panic in a debug build, a
/// promise shorter than the job in release. It saturates: from t=0 the
/// reservation just fits before the end of time and is quoted whole; from
/// t=60 it cannot and is rejected. Accepted, it runs on beside an ordinary
/// job that must still be served: pins `unfinished_job: 1`, the endless job
/// itself.
fn runtime_overflow(root: &Path) {
    let negotiate = |epoch: u64, tick: u64, id: u64, size: u32, runtime_secs: u64| {
        let request = Request::Negotiate {
            id,
            size,
            runtime_secs,
        };
        (epoch, tick, request, Some(id))
    };
    let full = author(
        sharded_meta(8, 2, None),
        &[
            negotiate(1, 0, 1, 2, u64::MAX),
            negotiate(1, 0, 2, 8, u64::MAX - 3600),
            negotiate(2, 60, 3, 2, u64::MAX),
            negotiate(2, 60, 4, 8, u64::MAX),
            // The narrow one is taken (and, promised from t=0, starts at
            // once); the wide quote is walked away from.
            (2, 60, Request::Accept { id: 5, job: 1 }, None),
            (2, 60, Request::Cancel { id: 6, job: 2 }, None),
            negotiate(3, 400, 7, 2, 600),
            (3, 400, Request::Accept { id: 8, job: 7 }, None),
            // Past the ordinary job's completion; the endless one runs on.
            (4, 100_000, Request::Shutdown { id: 9 }, None),
        ],
    );
    let (trace, journal) = reconstruct(full);
    let response = |seq: usize| Response::parse(&trace.entries[seq - 1].response).expect("parses");
    for seq in [1, 2] {
        assert!(
            matches!(
                response(seq),
                Response::Quote {
                    start_secs: 0,
                    promised_secs: u64::MAX,
                    deadline_secs: u64::MAX,
                    ..
                }
            ),
            "from t=0 the saturated run is promised whole (seq {seq}): {:?}",
            response(seq)
        );
    }
    for seq in [3, 4] {
        assert!(
            matches!(response(seq), Response::Error { .. }),
            "from t=60 it no longer fits before the end of time (seq {seq}): {:?}",
            response(seq)
        );
    }
    for seq in [5, 6, 8] {
        assert!(matches!(response(seq), Response::Ok { .. }), "seq {seq}");
    }
    assert!(matches!(
        response(7),
        Response::Quote {
            start_secs: 400,
            promised_secs: 1_000,
            ..
        }
    ));
    // The one finding is the truth: job 1 is still running at the end.
    write_case(
        root,
        "runtime-overflow",
        &trace,
        &journal,
        Some("{\"findings\": [{\"code\": \"unfinished_job\", \"count\": 1}]}\n"),
    );
}

fn main() {
    let root_arg = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "traces/failing".into());
    let root = Path::new(&root_arg).to_path_buf();
    std::fs::create_dir_all(&root).expect("create corpus root");
    same_instant_handoff(&root);
    horizon_probe(&root);
    seeded_divergence(&root);
    sharded_divergence(&root);
    slo_alert_flap(&root);
    runtime_overflow(&root);
    println!("corpus written to {}", root.display());
}
