//! Prometheus text-format exposition (v0.0.4) for metric [`Snapshot`]s,
//! plus a small parser for the same format.
//!
//! The renderer is what `pqos-qosd` serves on its `/metrics` endpoint; the
//! parser is what `pqos-top` and the CI smoke test use to read it back.
//! Registry names like `rpc.stage_ns{stage="queue"}` (see
//! [`labeled`](crate::metrics::labeled)) become families named
//! `pqos_rpc_stage_ns` with label pairs, and every histogram summary
//! expands into the standard `_bucket`/`_sum`/`_count` triplet using the
//! fixed `{1, 2.5, 5} × 10^k` ladder of
//! [`HistogramSummary::buckets`](crate::HistogramSummary::buckets).
//!
//! # Examples
//!
//! ```
//! use pqos_telemetry::metrics::MetricsRegistry;
//! use pqos_telemetry::expo;
//!
//! let registry = MetricsRegistry::new();
//! registry.counter("jobs.quoted").add(3);
//! let text = expo::render(&registry.snapshot());
//! assert!(text.contains("pqos_jobs_quoted 3"));
//! let samples = expo::parse(&text).unwrap();
//! assert_eq!(expo::find(&samples, "pqos_jobs_quoted", &[]), Some(3.0));
//! ```

use crate::metrics::{split_labeled, Snapshot};
use std::fmt::Write as _;

/// One parsed sample line: family name, label pairs (source order), value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric family name (e.g. `pqos_rpc_stage_ns_bucket`).
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

/// Maps a registry name onto the Prometheus name grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`): every invalid character becomes `_` and
/// the result is prefixed with `pqos_`.
pub(crate) fn sanitize_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("pqos_");
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' || ch == ':' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label value per the exposition format (`\\`, `\"`, `\n`).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Formats a float the way Prometheus expects: integral values without a
/// trailing `.0`, everything else in shortest round-trip form.
fn fmt_value(v: f64) -> String {
    if v.is_finite() && v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Renders `{labels}` (with an optional extra `le` pair appended) or the
/// empty string when there are no labels at all.
fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some(le) = le {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

/// Emits `# HELP` / `# TYPE` headers the first time a family appears.
fn header(out: &mut String, last: &mut String, family: &str, original: &str, kind: &str) {
    if family != last {
        let _ = writeln!(out, "# HELP {family} registry metric {original}");
        let _ = writeln!(out, "# TYPE {family} {kind}");
        last.clear();
        last.push_str(family);
    }
}

/// Renders a snapshot in the Prometheus text exposition format. Families
/// appear in snapshot (sorted) order: counters, then gauges, then
/// histograms; multiple label sets of one family share a single
/// `# HELP`/`# TYPE` header. An empty snapshot renders to an empty string.
pub fn render(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_family = String::new();
    for (key, value) in &snapshot.counters {
        let (base, labels) = split_labeled(key);
        let family = sanitize_name(base);
        header(&mut out, &mut last_family, &family, base, "counter");
        let _ = writeln!(out, "{family}{} {value}", label_block(&labels, None));
    }
    for (key, value) in &snapshot.gauges {
        let (base, labels) = split_labeled(key);
        let family = sanitize_name(base);
        header(&mut out, &mut last_family, &family, base, "gauge");
        let _ = writeln!(out, "{family}{} {value}", label_block(&labels, None));
    }
    for (key, summary) in &snapshot.histograms {
        let (base, labels) = split_labeled(key);
        let family = sanitize_name(base);
        header(&mut out, &mut last_family, &family, base, "histogram");
        for (bound, count) in &summary.buckets {
            let _ = writeln!(
                out,
                "{family}_bucket{} {count}",
                label_block(&labels, Some(&fmt_value(*bound)))
            );
        }
        let _ = writeln!(
            out,
            "{family}_bucket{} {}",
            label_block(&labels, Some("+Inf")),
            summary.count
        );
        let _ = writeln!(
            out,
            "{family}_sum{} {}",
            label_block(&labels, None),
            fmt_value(summary.total())
        );
        let _ = writeln!(
            out,
            "{family}_count{} {}",
            label_block(&labels, None),
            summary.count
        );
    }
    out
}

/// Parses exposition text back into samples. Comment (`#`) and blank lines
/// are skipped; any malformed sample line makes the whole parse fail with
/// `None` — the CI smoke test wants "valid or not", never a partial read.
pub fn parse(text: &str) -> Option<Vec<Sample>> {
    let mut samples = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        samples.push(parse_sample(line)?);
    }
    Some(samples)
}

fn parse_sample(line: &str) -> Option<Sample> {
    let (name_and_labels, value_text) = match line.find('{') {
        Some(_) => {
            let close = line.rfind('}')?;
            (&line[..close + 1], line[close + 1..].trim())
        }
        None => {
            let space = line.find(char::is_whitespace)?;
            (&line[..space], line[space..].trim())
        }
    };
    let value: f64 = match value_text {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => {
            // Rust's float parser also accepts "inf"/"nan" spellings; the
            // exposition format does not, so only numeric tokens pass.
            if !v
                .bytes()
                .all(|b| matches!(b, b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-'))
            {
                return None;
            }
            v.parse().ok()?
        }
    };
    let (name, labels) = match name_and_labels.find('{') {
        Some(brace) => {
            let body = &name_and_labels[brace + 1..name_and_labels.len() - 1];
            (&name_and_labels[..brace], parse_labels(body)?)
        }
        None => (name_and_labels, Vec::new()),
    };
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
        || name.starts_with(|c: char| c.is_ascii_digit())
    {
        return None;
    }
    Some(Sample {
        name: name.to_string(),
        labels,
        value,
    })
}

fn parse_labels(body: &str) -> Option<Vec<(String, String)>> {
    let mut labels = Vec::new();
    let mut rest = body.trim();
    while !rest.is_empty() {
        let eq = rest.find('=')?;
        let key = rest[..eq].trim().to_string();
        rest = rest[eq + 1..].trim_start();
        rest = rest.strip_prefix('"')?;
        let mut value = String::new();
        let mut chars = rest.char_indices();
        let mut consumed = None;
        while let Some((i, ch)) = chars.next() {
            match ch {
                '\\' => match chars.next()?.1 {
                    'n' => value.push('\n'),
                    escaped => value.push(escaped),
                },
                '"' => {
                    consumed = Some(i + 1);
                    break;
                }
                c => value.push(c),
            }
        }
        rest = &rest[consumed?..];
        labels.push((key, value));
        rest = rest.trim_start();
        rest = rest.strip_prefix(',').unwrap_or(rest).trim_start();
    }
    Some(labels)
}

/// Finds the value of the sample matching `name` whose labels include
/// every `(key, value)` pair in `want` (extra labels are allowed).
pub fn find(samples: &[Sample], name: &str, want: &[(&str, &str)]) -> Option<f64> {
    samples
        .iter()
        .find(|s| {
            s.name == name
                && want
                    .iter()
                    .all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
        })
        .map(|s| s.value)
}

/// Estimates the `q`-quantile from cumulative `(upper_bound, count)`
/// buckets by linear interpolation inside the containing bucket —
/// the classic `histogram_quantile` calculation. Returns `None` when the
/// buckets are empty or hold no observations.
pub fn quantile_from_buckets(buckets: &[(f64, u64)], q: f64) -> Option<f64> {
    let total = buckets.last()?.1;
    if total == 0 {
        return None;
    }
    let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
    let mut prev_bound = 0.0;
    let mut prev_count = 0u64;
    for &(bound, count) in buckets {
        if (count as f64) >= rank {
            let in_bucket = (count - prev_count) as f64;
            if in_bucket == 0.0 {
                return Some(bound);
            }
            let frac = (rank - prev_count as f64) / in_bucket;
            return Some(prev_bound + (bound - prev_bound) * frac.clamp(0.0, 1.0));
        }
        prev_bound = bound;
        prev_count = count;
    }
    Some(prev_bound)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{labeled, MetricsRegistry};

    #[test]
    fn empty_snapshot_renders_empty() {
        assert_eq!(render(&Snapshot::default()), "");
        assert_eq!(parse("").unwrap(), Vec::new());
    }

    #[test]
    fn names_are_sanitized_and_prefixed() {
        assert_eq!(sanitize_name("rpc.stage_ns"), "pqos_rpc_stage_ns");
        assert_eq!(sanitize_name("a-b c"), "pqos_a_b_c");
        assert_eq!(sanitize_name("ok:name_9"), "pqos_ok:name_9");
    }

    #[test]
    fn counters_and_gauges_render_and_parse_back() {
        let registry = MetricsRegistry::new();
        registry.counter("jobs.quoted").add(7);
        registry
            .counter(&labeled("rpc.requests_total", &[("verb", "negotiate")]))
            .add(3);
        registry.gauge("engine.queue_depth").set(-2);
        let text = render(&registry.snapshot());
        assert!(text.contains("# TYPE pqos_jobs_quoted counter"));
        assert!(text.contains("# TYPE pqos_engine_queue_depth gauge"));
        let samples = parse(&text).expect("valid exposition");
        assert_eq!(find(&samples, "pqos_jobs_quoted", &[]), Some(7.0));
        assert_eq!(
            find(
                &samples,
                "pqos_rpc_requests_total",
                &[("verb", "negotiate")]
            ),
            Some(3.0)
        );
        assert_eq!(find(&samples, "pqos_engine_queue_depth", &[]), Some(-2.0));
        assert_eq!(find(&samples, "pqos_missing", &[]), None);
    }

    #[test]
    fn label_values_are_escaped_and_unescaped() {
        let registry = MetricsRegistry::new();
        registry
            .counter(&labeled("c", &[("k", "a\"b\\c\nd")]))
            .inc();
        let text = render(&registry.snapshot());
        assert!(text.contains(r#"k="a\"b\\c\nd""#), "escaped in {text}");
        let samples = parse(&text).expect("parses");
        assert_eq!(samples[0].labels[0].1, "a\"b\\c\nd");
    }

    #[test]
    fn histograms_expand_into_consistent_bucket_sum_count() {
        let registry = MetricsRegistry::new();
        let h = registry.histogram(&labeled("rpc.stage_ns", &[("stage", "queue")]));
        for i in 0..1000u64 {
            h.observe((i * 977 % 100_000) as f64);
        }
        let snapshot = registry.snapshot();
        let summary = snapshot
            .histogram(&labeled("rpc.stage_ns", &[("stage", "queue")]))
            .unwrap();
        let text = render(&snapshot);
        assert!(text.contains("# TYPE pqos_rpc_stage_ns histogram"));
        let samples = parse(&text).expect("valid exposition");

        // _count and _sum agree with the summary.
        assert_eq!(
            find(&samples, "pqos_rpc_stage_ns_count", &[("stage", "queue")]),
            Some(summary.count as f64)
        );
        let sum = find(&samples, "pqos_rpc_stage_ns_sum", &[("stage", "queue")]).unwrap();
        assert!((sum - summary.total()).abs() <= summary.total().abs() * 1e-9 + 1e-9);

        // Buckets are cumulative, monotone, and end at +Inf == count.
        let buckets: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.name == "pqos_rpc_stage_ns_bucket")
            .collect();
        assert_eq!(buckets.len(), summary.buckets.len() + 1);
        let counts: Vec<f64> = buckets.iter().map(|s| s.value).collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "monotone");
        let inf = buckets.last().unwrap();
        assert!(inf.labels.iter().any(|(k, v)| k == "le" && v == "+Inf"));
        assert_eq!(inf.value, summary.count as f64);
    }

    #[test]
    fn one_header_per_family_across_label_sets() {
        let registry = MetricsRegistry::new();
        for verb in ["accept", "cancel", "negotiate"] {
            registry
                .counter(&labeled("rpc.requests_total", &[("verb", verb)]))
                .inc();
        }
        let text = render(&registry.snapshot());
        let headers = text
            .lines()
            .filter(|l| l.starts_with("# TYPE pqos_rpc_requests_total"))
            .count();
        assert_eq!(headers, 1, "TYPE emitted once:\n{text}");
        assert_eq!(parse(&text).unwrap().len(), 3);
    }

    #[test]
    fn malformed_exposition_is_rejected() {
        assert!(parse("no_value_here").is_none());
        assert!(parse("name{unterminated 1").is_none());
        assert!(parse("9starts_with_digit 1").is_none());
        assert!(parse("bad name 1").is_none());
        assert!(parse("x NaN").is_some(), "NaN is a legal sample value");
    }

    #[test]
    fn duplicate_and_conflicting_headers_are_ignored() {
        // Scrapes stitched from two sources can repeat or contradict
        // HELP/TYPE headers; headers are commentary, samples are truth.
        let text = "# HELP pqos_x one\n# TYPE pqos_x counter\n\
                    # HELP pqos_x two\n# TYPE pqos_x gauge\n\
                    pqos_x 1\npqos_x 2\n";
        let samples = parse(text).expect("headers never invalidate samples");
        assert_eq!(samples.len(), 2);
        assert_eq!(find(&samples, "pqos_x", &[]), Some(1.0));
    }

    #[test]
    fn non_finite_values_round_trip_without_panicking() {
        let text = "a +Inf\nb -Inf\nc NaN\nd 1e309\n";
        let samples = parse(text).expect("non-finite values are legal");
        assert_eq!(find(&samples, "a", &[]), Some(f64::INFINITY));
        assert_eq!(find(&samples, "b", &[]), Some(f64::NEG_INFINITY));
        assert!(find(&samples, "c", &[]).unwrap().is_nan());
        // Overflowing literals saturate to infinity in the float parser.
        assert_eq!(find(&samples, "d", &[]), Some(f64::INFINITY));
        // But non-finite spellings outside the Prometheus vocabulary fail.
        assert!(parse("e inf").is_none());
        assert!(parse("f nan").is_none());
    }

    #[test]
    fn out_of_order_buckets_parse_and_quantile_stays_finite() {
        // A buggy exporter can emit `le` buckets out of order or
        // non-cumulatively; the parser reads the lines (they are
        // well-formed), and the quantile helper must neither panic nor
        // return a non-finite bound.
        let text = "h_bucket{le=\"10\"} 50\nh_bucket{le=\"1\"} 7\n\
                    h_bucket{le=\"+Inf\"} 50\n";
        let samples = parse(text).expect("lines are syntactically valid");
        let buckets: Vec<(f64, u64)> = samples
            .iter()
            .filter(|s| s.name == "h_bucket")
            .map(|s| {
                let le = s.labels.iter().find(|(k, _)| k == "le").unwrap();
                (le.1.parse::<f64>().unwrap_or(f64::INFINITY), s.value as u64)
            })
            .collect();
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            if let Some(v) = quantile_from_buckets(&buckets, q) {
                assert!(v.is_finite() || buckets.iter().all(|(b, _)| !b.is_finite()));
            }
        }
        // Decreasing cumulative counts (impossible data) must also not
        // panic.
        assert!(quantile_from_buckets(&[(1.0, 50), (2.0, 7), (3.0, 50)], 0.5).is_some());
    }

    #[test]
    fn adversarial_label_escapes_reject_or_normalize() {
        // Trailing backslash with nothing to escape: reject.
        assert!(parse("x{k=\"a\\").is_none());
        // Unterminated label value: reject.
        assert!(parse("x{k=\"a} 1").is_none());
        // Missing '=' in a label pair: reject.
        assert!(parse("x{k} 1").is_none());
        // Unknown escape sequences normalize to the escaped character.
        let samples = parse("x{k=\"a\\qb\"} 1").expect("unknown escape normalizes");
        assert_eq!(samples[0].labels[0].1, "aqb");
        // Escaped quote and backslash inside a value survive.
        let samples = parse("x{k=\"a\\\"b\\\\c\"} 2").unwrap();
        assert_eq!(samples[0].labels[0].1, "a\"b\\c");
        // A label value containing '}' must not confuse the name split.
        let samples = parse("x{k=\"a}b\"} 3").unwrap();
        assert_eq!(samples[0].name, "x");
        assert_eq!(samples[0].labels[0].1, "a}b");
        // Empty label block is fine; stray comma noise is tolerated by the
        // lenient splitter but the pairs must still be well formed.
        let samples = parse("x{} 4").unwrap();
        assert!(samples[0].labels.is_empty());
    }

    #[test]
    fn render_parse_round_trip_on_hostile_registry_names() {
        let registry = MetricsRegistry::new();
        registry.counter("weird name/with+chars").add(1);
        registry
            .counter(&labeled("c", &[("k", "\\trailing\\")]))
            .add(2);
        registry.gauge("9starts.with.digit").set(5);
        let text = render(&registry.snapshot());
        let samples = parse(&text).expect("rendered exposition always parses");
        assert_eq!(find(&samples, "pqos_weird_name_with_chars", &[]), Some(1.0));
        assert_eq!(
            find(&samples, "pqos_c", &[("k", "\\trailing\\")]),
            Some(2.0)
        );
        // sanitize_name prefixes, so a leading digit is legal again.
        assert_eq!(find(&samples, "pqos_9starts_with_digit", &[]), Some(5.0));
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        // 100 observations uniform in (0, 100]: cumulative buckets at
        // 25/50/75/100.
        let buckets = vec![(25.0, 25), (50.0, 50), (75.0, 75), (100.0, 100)];
        let p50 = quantile_from_buckets(&buckets, 0.5).unwrap();
        assert!((p50 - 50.0).abs() < 1.0, "p50 {p50}");
        let p99 = quantile_from_buckets(&buckets, 0.99).unwrap();
        assert!((95.0..=100.0).contains(&p99), "p99 {p99}");
        assert_eq!(quantile_from_buckets(&[], 0.5), None);
        assert_eq!(quantile_from_buckets(&[(1.0, 0)], 0.5), None);
    }
}
