//! The metric vocabulary: one table for the printed report, the final
//! JSON line, the `--sets` agreement check and `BENCHMARK.json` (a unit
//! test holds the file to these tables).

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub const WORKLOADS: [&str; 4] = ["serve_reject", "serve_admit", "replay_wide", "sim_sweep"];

/// End-to-end metrics: `(name, unit, better, bound)`. Every workload
/// reports every one (the contract's rule), so each is defined in terms
/// of the workload's own operation — see the README glossary. `bound` is
/// the share of the parent's median a metric may worsen by before it
/// counts as a regression.
pub const END_TO_END: [(&str, &str, Better, f64); 5] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("ops_per_s", "1/s", Better::Higher, 0.25),
    ("lat_p50_us", "us", Better::Lower, 0.25),
    ("cpu_us_per_op", "us", Better::Lower, 0.25),
    ("peak_rss_mib", "MiB", Better::Lower, 0.25),
];

/// Per-layer metrics of the traced run: `(name, unit, better)`. A layer
/// a workload bypasses reports 0 for its metrics.
pub const PER_LAYER: [(&str, &str, Better); 79] = [
    // net: EventLoop echo lane, no engine.
    ("net.echo_rps", "1/s", Better::Higher),
    ("net.echo_p50_us", "us", Better::Lower),
    ("net.bytes_per_request", "B", Better::Lower),
    // protocol: parse / encode over the run's own lines.
    ("protocol.parse_ns", "ns", Better::Lower),
    ("protocol.encode_ns", "ns", Better::Lower),
    // engine: submit over a channel reply lane, no sockets; registry.
    ("engine.roundtrip_p50_us", "us", Better::Lower),
    ("engine.batch_mean", "count", Better::Higher),
    ("engine.tick_p50_us", "us", Better::Lower),
    ("engine.overloaded", "count", Better::Lower),
    ("engine.timeouts", "count", Better::Lower),
    // The daemon's own rpc.stage_ns{verb=negotiate} vocabulary.
    ("stage.parse_p50_us", "us", Better::Lower),
    ("stage.queue_p50_us", "us", Better::Lower),
    ("stage.batch_p50_us", "us", Better::Lower),
    ("stage.compute_p50_us", "us", Better::Lower),
    ("stage.write_p50_us", "us", Better::Lower),
    ("stage.parse_p99_us", "us", Better::Lower),
    ("stage.queue_p99_us", "us", Better::Lower),
    ("stage.batch_p99_us", "us", Better::Lower),
    ("stage.compute_p99_us", "us", Better::Lower),
    ("stage.write_p99_us", "us", Better::Lower),
    // client: the negotiate tail (a round's p99, quiet quarter over the
    // traced run's untraced rounds), then the benchmark's round-trip
    // spans by verb.
    ("client.negotiate_p99_us", "us", Better::Lower),
    ("client.accept_p50_us", "us", Better::Lower),
    ("client.accept_p99_us", "us", Better::Lower),
    ("client.cancel_p50_us", "us", Better::Lower),
    // session: direct NegotiationSession calls on the script; registry.
    ("session.quote_ns", "ns", Better::Lower),
    ("session.accept_ns", "ns", Better::Lower),
    ("session.cancel_ns", "ns", Better::Lower),
    ("session.advance_ns", "ns", Better::Lower),
    ("session.parity_share", "ratio", Better::Lower),
    ("session.accept_expired_share", "ratio", Better::Lower),
    // negotiate / place / predict on a book of the workload's depth.
    ("negotiate.ns", "ns", Better::Lower),
    ("place.choose_ns", "ns", Better::Lower),
    ("predict.query_ns", "ns", Better::Lower),
    ("predict.oracle_build_ms", "ms", Better::Lower),
    // cache
    ("cache.hit_share", "ratio", Better::Higher),
    ("cache.rebuilds", "count", Better::Lower),
    ("cache.invalidated_per_mutation", "count", Better::Lower),
    ("cache.probe_cold_ns", "ns", Better::Lower),
    ("cache.probe_warm_ns", "ns", Better::Lower),
    // book / mask at the workload's depth and width.
    ("book.add_ns", "ns", Better::Lower),
    ("book.remove_ns", "ns", Better::Lower),
    ("book.depth", "count", Better::Lower),
    ("mask.or_ns", "ns", Better::Lower),
    ("mask.count_ns", "ns", Better::Lower),
    // journal
    ("journal.events_per_request", "count", Better::Lower),
    ("journal.bytes_per_request", "B", Better::Lower),
    ("journal.emit_ns", "ns", Better::Lower),
    ("journal.share", "ratio", Better::Lower),
    ("journal.write_errors", "count", Better::Lower),
    ("journal.merge_ms", "ms", Better::Lower),
    // shard / reqtrace / replay
    ("shard.quote_ns", "ns", Better::Lower),
    ("shard.accept_ns", "ns", Better::Lower),
    ("shard.wide_share", "ratio", Better::Lower),
    ("shard.twophase_expired", "count", Better::Lower),
    ("reqtrace.parse_ns", "ns", Better::Lower),
    ("replay.epochs_per_s", "1/s", Better::Higher),
    // A loop's p95 epoch (the wide jobs'), quiet quarter over loops.
    ("replay.epoch_p95_us", "us", Better::Lower),
    ("replay.mismatches", "count", Better::Lower),
    // sim / queue / ckpt
    ("sim.events_per_s", "1/s", Better::Higher),
    ("sim.events_per_job", "count", Better::Lower),
    ("sim.dispatch_arrival_ns", "ns", Better::Lower),
    ("sim.dispatch_start_ns", "ns", Better::Lower),
    ("sim.dispatch_finish_ns", "ns", Better::Lower),
    ("sim.dispatch_node_failure_ns", "ns", Better::Lower),
    ("sim.dispatch_ckpt_request_ns", "ns", Better::Lower),
    ("sim.telemetry_overhead_pct", "%", Better::Lower),
    ("queue.push_pop_ns", "ns", Better::Lower),
    ("ckpt.decide_ns", "ns", Better::Lower),
    // Simulated statistics: must repeat exactly for one seed.
    ("sim.qos_milli", "milli", Better::Higher),
    ("sim.utilization_milli", "milli", Better::Higher),
    ("sim.lost_work_node_s", "node-s", Better::Lower),
    // workload / failures / doctor
    ("workload.synth_ms", "ms", Better::Lower),
    ("failures.synth_ms", "ms", Better::Lower),
    ("doctor.check_events_per_s", "1/s", Better::Higher),
    ("doctor.audit_events_per_s", "1/s", Better::Higher),
    // bench: the harness's account of itself.
    ("bench.trace_overhead_pct", "%", Better::Lower),
    ("bench.ledger_accounted_share", "ratio", Better::Higher),
    ("bench.client_self_share", "ratio", Better::Lower),
    // How fast the host ran the yardstick kernel during the traced run
    // (the per-layer numbers are as measured, not brought to reference).
    ("bench.yardstick_ms", "ms", Better::Lower),
];

/// One reported value with the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqos_telemetry::json::Json;

    /// `BENCHMARK.json` declares exactly what the program reports.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = Json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("array")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).expect("array");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, (name, unit, better, bound)) in e2e.iter().zip(END_TO_END) {
            assert_eq!(m.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(better.as_str())
            );
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(bound));
            assert!(bound <= 0.25);
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).expect("array");
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(layers.len() <= 128);
        for (m, (name, unit, better)) in layers.iter().zip(PER_LAYER) {
            assert_eq!(m.get("name").and_then(Json::as_str), Some(name));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(better.as_str())
            );
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut all: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        all.extend(PER_LAYER.iter().map(|m| m.0));
        all.extend(WORKLOADS);
        for name in &all {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let count = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), count, "a name is used once");
    }
}
