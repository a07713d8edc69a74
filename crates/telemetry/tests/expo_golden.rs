//! Golden-file test for the Prometheus exposition: a deterministically
//! seeded registry must render byte-for-byte what the committed golden
//! says. Any change to name sanitization, label ordering/escaping,
//! histogram expansion, or family headers shows up here as a diff a
//! reviewer can read, instead of silently changing what scrapers see.
//!
//! To regenerate after a deliberate format change:
//!
//! ```text
//! UPDATE_EXPO_GOLDEN=1 cargo test -p pqos-telemetry --test expo_golden
//! ```

use pqos_telemetry::{expo, labeled, MetricsRegistry};

/// A registry exercising every exposition feature: plain and labeled
/// counters, gauges (including a negative one), a multi-label histogram,
/// and names that need sanitizing.
fn seeded() -> MetricsRegistry {
    let registry = MetricsRegistry::new();
    registry.counter("session.quotes").add(42);
    registry
        .counter(&labeled("rpc.requests_total", &[("verb", "negotiate")]))
        .add(7);
    registry
        .counter(&labeled("rpc.requests_total", &[("verb", "status")]))
        .add(2);
    registry.gauge("engine.queue_depth").set(3);
    registry.gauge("engine.drift").set(-5);
    registry.gauge("process.uptime_seconds").set(61);
    let stage = registry.histogram(&labeled(
        "rpc.stage_ns",
        &[("stage", "compute"), ("verb", "negotiate")],
    ));
    for v in [1_000.0, 2_000.0, 4_000.0, 8_000.0, 16_000.0] {
        stage.observe(v);
    }
    registry
}

#[test]
fn exposition_matches_the_committed_golden() {
    let text = expo::render(&seeded().snapshot());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/exposition.txt");
    if std::env::var_os("UPDATE_EXPO_GOLDEN").is_some() {
        std::fs::write(path, &text).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file committed");
    assert_eq!(
        text, golden,
        "exposition drifted from the golden; if deliberate, regenerate with \
         UPDATE_EXPO_GOLDEN=1 cargo test -p pqos-telemetry --test expo_golden"
    );
}

#[test]
fn the_golden_itself_parses_and_round_trips() {
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/exposition.txt"
    ))
    .expect("golden file committed");
    let samples = expo::parse(&golden).expect("golden is valid exposition");
    assert_eq!(
        expo::find(&samples, "pqos_session_quotes", &[]),
        Some(42.0),
        "the golden carries the seeded values"
    );
    assert_eq!(
        expo::find(&samples, "pqos_rpc_requests_total", &[("verb", "status")]),
        Some(2.0)
    );
    assert_eq!(
        expo::find(
            &samples,
            "pqos_rpc_stage_ns_count",
            &[("stage", "compute"), ("verb", "negotiate")]
        ),
        Some(5.0)
    );
}
