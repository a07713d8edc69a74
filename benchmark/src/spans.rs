//! The benchmark's own spans: recorded around the client round trip and
//! around each lane's public call, held in memory, folded into self
//! times, and written out as a Chrome `trace_event` document when the
//! traced run ends. Spans inside the program under test are a later issue.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed interval of work. `op` is the scripted request, dialog,
/// loop or pass the span belongs to, so all spans of one operation share
/// an id; `parent` indexes the span that caused this one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    pub track: u32,
}

/// An append-only span log for one thread of the benchmark. Disabled
/// recorders accept every call and keep nothing, so the untraced run and
/// the traced run execute the same driver code.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    track: u32,
    enabled: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, track: u32, enabled: bool) -> Self {
        Recorder {
            origin,
            track,
            enabled,
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span; returns its index for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op,
            track: self.track,
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span now; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> Option<usize> {
        let now = Instant::now();
        self.push(name, now, now, parent, op)
    }

    pub fn end(&mut self, span: Option<usize>) {
        if let Some(idx) = span {
            self.spans[idx].end_ns = self.ns(Instant::now());
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread span logs, re-basing parent indices.
pub fn merge(logs: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::with_capacity(logs.iter().map(Vec::len).sum());
    for log in logs {
        let base = all.len();
        all.extend(log.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Per-name totals: how often, how long, and how much of that was the
/// span's own (not covered by its children).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Folds spans into per-name self times. A span's self time is its
/// duration minus the part of its interval that its direct children
/// cover; overlapping children (pipelined requests) are counted once.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = s.start_ns;
        for &(start, end) in kids.iter() {
            let start = start.clamp(cursor, s.end_ns);
            let end = end.clamp(cursor, s.end_ns);
            covered += end - start;
            cursor = cursor.max(end);
        }
        let total = s.end_ns.saturating_sub(s.start_ns);
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += total;
        entry.self_ns += total - covered.min(total);
    }
    out
}

/// Renders spans as a Chrome `trace_event` document (JSON Object
/// Format, complete `X` events, microsecond timestamps) that
/// `pqos_obs::load_chrome_trace`, `about://tracing` and
/// <https://ui.perfetto.dev> accept. At most `cap` spans are written, in
/// recording order, so a 20k-req/s run does not leave a 50 MiB file.
pub fn chrome_trace(spans: &[Span], cap: usize) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut tracks: Vec<u32> = spans.iter().map(|s| s.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
    };
    for track in tracks {
        sep(&mut out);
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{track},\
             \"args\":{{\"name\":\"bench-{track}\"}}}}"
        ));
    }
    for (idx, s) in spans.iter().take(cap).enumerate() {
        sep(&mut out);
        let parent = s.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"bench\",\"pid\":1,\"tid\":{},\
             \"ts\":{},\"dur\":{},\"args\":{{\"span\":{idx},\"parent\":{parent},\"op\":{}}}}}",
            s.name,
            s.track,
            s.start_ns / 1_000,
            s.end_ns.saturating_sub(s.start_ns) / 1_000,
            s.op
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 1,
            track: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("dialog", 0, 100, None),
            span("rtt", 10, 40, Some(0)),
            // Overlaps the first child by 10: the union covers 10..60.
            span("rtt", 30, 60, Some(0)),
            // Sticks out past the parent: clipped to 90..100.
            span("rtt", 90, 130, Some(0)),
        ];
        let folded = self_times(&spans);
        assert_eq!(
            folded["dialog"],
            SelfTime {
                count: 1,
                total_ns: 100,
                self_ns: 40
            }
        );
        assert_eq!(folded["rtt"].count, 3);
        assert_eq!(folded["rtt"].total_ns, 30 + 30 + 40);
        assert_eq!(folded["rtt"].self_ns, 100, "leaves own all their time");
    }

    #[test]
    fn merge_rebases_parents() {
        let a = vec![span("a", 0, 10, None), span("b", 1, 2, Some(0))];
        let b = vec![span("c", 0, 10, None), span("d", 1, 2, Some(0))];
        let all = merge(vec![a, b]);
        assert_eq!(all[3].parent, Some(2));
        assert_eq!(all[1].parent, Some(0));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::new(Instant::now(), 0, false);
        let s = r.begin("x", None, 1);
        r.end(s);
        assert!(r.into_spans().is_empty());
    }

    #[test]
    fn chrome_trace_loads_and_caps() {
        let spans = vec![
            span("dialog", 0, 100_000, None),
            span("rtt", 10_000, 40_000, Some(0)),
            span("rtt", 50_000, 90_000, Some(0)),
        ];
        let doc = chrome_trace(&spans, 2);
        let summary = pqos_obs::load_chrome_trace(&doc).expect("valid trace_event JSON");
        assert_eq!(summary.spans, 2, "capped");
        assert_eq!(summary.metadata, 1);
        assert_eq!(summary.span_names, vec!["dialog", "rtt"]);
        assert_eq!(summary.end_us, 100);
    }
}
