//! Deterministic k-way merge of per-shard JSONL journals.
//!
//! A sharded daemon writes one journal per engine shard plus one from
//! the cross-shard wide-job coordinator. Each is individually sound —
//! time-monotone, one lifecycle per job, completions before same-instant
//! starts — but the doctor, the promise audit and replay parity all want
//! *one* journal. The merge below produces it deterministically:
//!
//! - **Per-journal order is law.** Only journal heads are candidates, so
//!   the merge can never reorder two lines of the same journal.
//! - Among heads, the **earliest `at` wins**; a later instant never
//!   precedes an earlier one, so the merged journal is time-monotone.
//! - Among heads tied on `at`, **releasing events go first**
//!   (`job_completed`, `deadline_missed`, `promise_resolved`,
//!   `job_cancelled`). Shard-local node sets are disjoint, but a wide
//!   job's nodes overlap every shard: if its same-instant completion in
//!   the coordinator journal were merged *after* a shard's start that
//!   reuses those nodes, the doctor would see phantom double-occupancy.
//!   Every journal already orders completions before starts within an
//!   instant (the session's timer classes), so preferring releasing
//!   heads can always make progress and never deadlocks against rule 1.
//! - Remaining ties break on **journal index**, making the merge a pure
//!   function of its inputs — byte-stable across runs, which replay
//!   parity relies on.
//!
//! Lines are moved verbatim, so merging one journal is the identity. A
//! line's key — its `"at"` and whether its `"event"` is a releasing kind —
//! is read once, when the line becomes its journal's head; picking the
//! next line compares the cached keys of the heads and touches no text.
//! Every line the encoder writes starts `{"event":"TAG","at":`, so the key
//! is read off that prefix; only a line of another shape is searched for
//! its first `"at":` and `"event":"`, which gives the same key wherever
//! both apply.
//!
//! There is one merge, [`JournalMerger`], and two ways to feed it.
//! [`merge_journals`] and [`merge_journals_to_string`] (qosd's drain-time
//! merge of its per-plane files) feed it every journal whole and release
//! everything at once. Replay feeds it each plane's new lines after every
//! tick and releases the lines below that tick's instant, which no plane
//! can undercut any more: the output is the same, byte for byte.

use crate::event::EventKind;
use std::borrow::Cow;
use std::collections::VecDeque;

/// Wire tags of the event kinds that release capacity or resolve a
/// promise at their instant; these win ties so same-instant claims in
/// other journals see the capacity as free. Named through the schema, so
/// a renamed tag is renamed here too.
const RELEASING: [&str; 4] = [
    EventKind::JobCompleted.name(),
    EventKind::DeadlineMissed.name(),
    EventKind::PromiseResolved.name(),
    EventKind::JobCancelled.name(),
];

/// A line's merge key: its instant, if it has one, and whether it releases.
type Key = (Option<u64>, bool);

/// The key of a line in the encoder's own shape, `{"event":"TAG","at":N…`,
/// read off that prefix: the tag is the text up to its closing quote, the
/// instant the digits after it. `None` for any other line. Where it
/// answers, the answer is [`searched_key`]'s: the tag holds no quote, so
/// the prefix's `"event":"` and `"at":` are each the line's first.
fn canonical_key(line: &str) -> Option<Key> {
    let rest = line.strip_prefix("{\"event\":\"")?;
    let end = rest.find('"')?;
    let at = rest[end..].strip_prefix("\",\"at\":")?;
    Some((parse_digits(at), RELEASING.contains(&&rest[..end])))
}

/// The key of any line: its first `"at":` and its first `"event":"`,
/// wherever they are.
fn searched_key(line: &str) -> Key {
    let at = line
        .find("\"at\":")
        .and_then(|idx| parse_digits(&line[idx + 5..]));
    let releasing = line.find("\"event\":\"").is_some_and(|idx| {
        let rest = &line[idx + 9..];
        rest.find('"')
            .is_some_and(|end| RELEASING.contains(&&rest[..end]))
    });
    (at, releasing)
}

/// The digits `text` starts with, if they are a `u64`.
fn parse_digits(text: &str) -> Option<u64> {
    let digits = text.bytes().take_while(u8::is_ascii_digit).count();
    text[..digits].parse().ok()
}

/// A chunk of one journal fed to the merger: whole lines, read from `pos`.
struct Chunk<'a> {
    text: Cow<'a, str>,
    /// Byte offset of the first line not yet read.
    pos: usize,
    /// The released watermark when the chunk was fed: none of its lines
    /// may sort below it.
    floor: u64,
}

/// One journal being merged: its unread chunks, and the head line — the
/// next line the merge can take from it — with its key.
#[derive(Default)]
struct Plane<'a> {
    chunks: VecDeque<Chunk<'a>>,
    /// `(at, class, start, end)`: the head's key (class 0 releases, 1 does
    /// not) and its byte range in the front chunk.
    head: Option<(u64, u8, usize, usize)>,
    /// The instant of the last line read, which a line without a
    /// parseable `"at"` inherits.
    last_at: u64,
}

impl Plane<'_> {
    /// Moves to the next non-blank line and reads its key, handing each
    /// chunk read to the end to `spent`.
    ///
    /// # Panics
    ///
    /// If the line sorts below the watermark released before its chunk
    /// was fed: a clock bug in whoever fed it, which no order of the
    /// lines released so far can repair.
    fn advance(&mut self, plane: usize, mut spent: impl FnMut(Cow<'_, str>)) {
        self.head = None;
        while let Some(chunk) = self.chunks.front_mut() {
            let start = chunk.pos;
            let rest = &chunk.text[start..];
            if rest.is_empty() {
                if let Some(chunk) = self.chunks.pop_front() {
                    spent(chunk.text);
                }
                continue;
            }
            // Split as `str::lines` splits: at `\n`, and a `\r` before it
            // goes too.
            let line = match rest.find('\n') {
                Some(len) => {
                    chunk.pos += len + 1;
                    let line = &rest[..len];
                    line.strip_suffix('\r').unwrap_or(line)
                }
                None => {
                    chunk.pos += rest.len();
                    rest
                }
            };
            if line.trim().is_empty() {
                continue;
            }
            let (at, releasing) = canonical_key(line).unwrap_or_else(|| searched_key(line));
            let at = at.unwrap_or(self.last_at);
            assert!(
                at >= chunk.floor,
                "journal plane {plane}: a line at {at} arrived after every line below {} \
                 was released: {line}",
                chunk.floor
            );
            self.last_at = at;
            self.head = Some((at, u8::from(!releasing), start, start + line.len()));
            return;
        }
    }
}

/// The k-way merge, fed incrementally: each journal ("plane") arrives in
/// chunks of whole lines, and [`release`](Self::release)`(w)` appends to
/// the output every line, in merged order, whose instant is below `w`.
///
/// The output is the one-shot merge of the planes' whole text — what
/// [`merge_journals_to_string`] returns for it — provided every line fed
/// after `release(w)` has an instant of at least `w`. Then a line below
/// `w` beats every line still to come, so the merge's choices among the
/// lines it has are the choices it would make with all of them. A line
/// that breaks the rule panics when the merge reaches it, naming its
/// plane; nothing is ever reordered to make room for it.
///
/// A chunk must end at a line's end: a line split across two feeds reads
/// as two lines.
pub struct JournalMerger<'a> {
    planes: Vec<Plane<'a>>,
    /// Every line below this instant has been released.
    released: u64,
    out: String,
    /// Emptied buffers of fed chunks, handed back by [`Self::recycled`].
    spare: Vec<String>,
}

impl<'a> JournalMerger<'a> {
    /// A merger of `planes` journals, none of them fed yet.
    pub fn new(planes: usize) -> Self {
        JournalMerger {
            planes: (0..planes).map(|_| Plane::default()).collect(),
            released: 0,
            out: String::new(),
            spare: Vec::new(),
        }
    }

    /// Appends `text` to journal `plane`. Borrowed text is read in place
    /// and owned text is kept until its last line is merged; either way no
    /// byte of it is copied before it is released.
    pub fn feed(&mut self, plane: usize, text: impl Into<Cow<'a, str>>) {
        let text = text.into();
        if text.is_empty() {
            keep(&mut self.spare, text);
            return;
        }
        let floor = self.released;
        let target = &mut self.planes[plane];
        target.chunks.push_back(Chunk {
            text,
            pos: 0,
            floor,
        });
        if target.head.is_none() {
            let spare = &mut self.spare;
            target.advance(plane, |text| keep(spare, text));
        }
    }

    /// Appends to the output, in merged order, every line fed so far whose
    /// instant is below `watermark`, and raises the watermark to it (it
    /// never falls).
    pub fn release(&mut self, watermark: u64) {
        self.released = self.released.max(watermark);
        self.write_below(Some(self.released));
    }

    /// Releases every line fed and returns the whole merged journal, one
    /// newline-terminated line after another.
    pub fn finish(mut self) -> String {
        self.write_below(None);
        self.out
    }

    /// An empty buffer for the next chunk: one whose lines have all been
    /// merged, capacity kept, if there is one.
    pub fn recycled(&mut self) -> String {
        self.spare.pop().unwrap_or_default()
    }

    /// Appends each line below `limit` (every line when `None`) to the
    /// output, in merged order, newline-terminated.
    fn write_below(&mut self, limit: Option<u64>) {
        let mut out = std::mem::take(&mut self.out);
        self.merge_below(limit, |line| {
            out.push_str(line);
            out.push('\n');
        });
        self.out = out;
    }

    /// The merge itself: hands `emit` each line below `limit` (every line
    /// when `None`), in merged order. Among heads: min `at`, then
    /// releasing first, then plane index. The other planes' heads stay put
    /// while one plane's lines are taken, so the plane that wins keeps
    /// winning, without another look at the rest, until its head no longer
    /// sorts before the runner-up's.
    fn merge_below(&mut self, limit: Option<u64>, mut emit: impl FnMut(&str)) {
        loop {
            // The least and second-least `(at, class, plane)` among heads.
            let (mut best, mut runner_up) = (None, None);
            for (idx, plane) in self.planes.iter().enumerate() {
                if let Some((at, class, ..)) = plane.head {
                    let key = (at, class, idx);
                    if best.is_none_or(|best| key < best) {
                        runner_up = best;
                        best = Some(key);
                    } else if runner_up.is_none_or(|runner_up| key < runner_up) {
                        runner_up = Some(key);
                    }
                }
            }
            let Some((at, _, idx)) = best else {
                return;
            };
            if limit.is_some_and(|limit| at >= limit) {
                return;
            }
            let plane = &mut self.planes[idx];
            while let Some((at, class, start, end)) = plane.head {
                if limit.is_some_and(|limit| at >= limit)
                    || runner_up.is_some_and(|runner_up| (at, class, idx) > runner_up)
                {
                    break;
                }
                emit(&plane.chunks[0].text[start..end]);
                let spare = &mut self.spare;
                plane.advance(idx, |text| keep(spare, text));
            }
        }
    }
}

/// Keeps an owned buffer whose lines are all merged, emptied, for reuse.
fn keep(spare: &mut Vec<String>, text: Cow<'_, str>) {
    if let Cow::Owned(mut text) = text {
        text.clear();
        spare.push(text);
    }
}

/// Merges several JSONL journal bodies into one, returning the merged
/// lines in order. Inputs are split on `\n`; blank lines are dropped.
/// Lines missing a parseable `"at"` inherit their predecessor's instant
/// (preserving that journal's relative order).
pub fn merge_journals(journals: &[&str]) -> Vec<String> {
    let mut merger = feed_all(journals);
    let mut merged = Vec::new();
    merger.merge_below(None, |line| merged.push(line.to_string()));
    merged
}

/// [`merge_journals`] returning one newline-terminated body (empty
/// input merges to an empty string), written straight into one buffer
/// sized for the inputs. The same [`JournalMerger`] that merges
/// incrementally, fed every journal whole and released once.
pub fn merge_journals_to_string(journals: &[&str]) -> String {
    let mut merger = feed_all(journals);
    // Every input byte at most once, plus a newline for each journal
    // whose last line lacks one.
    merger.out = String::with_capacity(journals.iter().map(|body| body.len() + 1).sum());
    merger.finish()
}

/// A merger fed each of `journals`, whole and borrowed.
fn feed_all<'a>(journals: &[&'a str]) -> JournalMerger<'a> {
    let mut merger = JournalMerger::new(journals.len());
    for (plane, body) in journals.iter().enumerate() {
        merger.feed(plane, *body);
    }
    merger
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AlertState, TelemetryEvent};
    use pqos_sim_core::rng::DetRng;
    use pqos_sim_core::time::SimTime;

    /// The merge as it was before keys were cached — every comparison
    /// re-reads both heads' text, with its own copies of the two key
    /// readers — kept as the oracle the merge is checked against.
    mod oracle {
        use super::RELEASING;

        fn parse_at(line: &str) -> Option<u64> {
            let idx = line.find("\"at\":")?;
            let digits: String = line[idx + 5..]
                .chars()
                .take_while(|c| c.is_ascii_digit())
                .collect();
            digits.parse().ok()
        }

        fn is_releasing(line: &str) -> bool {
            if let Some(idx) = line.find("\"event\":\"") {
                let rest = &line[idx + 9..];
                if let Some(end) = rest.find('"') {
                    return RELEASING.contains(&&rest[..end]);
                }
            }
            false
        }

        pub fn merge_journals(journals: &[&str]) -> Vec<String> {
            merge_keyed(journals)
                .into_iter()
                .map(|(_, line)| line)
                .collect()
        }

        /// The merged lines, each with the instant it was merged at.
        pub fn merge_keyed(journals: &[&str]) -> Vec<(u64, String)> {
            struct Cursor<'a> {
                lines: Vec<&'a str>,
                next: usize,
                last_at: u64,
            }
            let mut cursors: Vec<Cursor<'_>> = journals
                .iter()
                .map(|body| Cursor {
                    lines: body.lines().filter(|l| !l.trim().is_empty()).collect(),
                    next: 0,
                    last_at: 0,
                })
                .collect();
            let total: usize = cursors.iter().map(|c| c.lines.len()).sum();
            let mut merged = Vec::with_capacity(total);
            loop {
                // Pick among heads: min at, then releasing-first, then index.
                let mut best: Option<(u64, u8, usize)> = None;
                for (idx, cursor) in cursors.iter().enumerate() {
                    let Some(&line) = cursor.lines.get(cursor.next) else {
                        continue;
                    };
                    let at = parse_at(line).unwrap_or(cursor.last_at);
                    let class = if is_releasing(line) { 0 } else { 1 };
                    let key = (at, class, idx);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
                let Some((at, _, idx)) = best else {
                    return merged;
                };
                let cursor = &mut cursors[idx];
                merged.push((at, cursor.lines[cursor.next].to_string()));
                cursor.next += 1;
                cursor.last_at = at;
            }
        }
    }

    #[test]
    fn merging_one_journal_is_the_identity() {
        let body = "{\"event\":\"job_submitted\",\"at\":0,\"job\":1}\n{\"event\":\"job_started\",\"at\":5,\"job\":1}\n";
        assert_eq!(merge_journals_to_string(&[body]), body);
        assert_eq!(merge_journals_to_string(&[]), "");
        assert_eq!(merge_journals_to_string(&[""]), "");
    }

    #[test]
    fn merge_is_time_ordered_across_journals() {
        let a = "{\"event\":\"job_submitted\",\"at\":0,\"job\":1}\n{\"event\":\"job_started\",\"at\":10,\"job\":1}\n";
        let b = "{\"event\":\"job_submitted\",\"at\":5,\"job\":2}\n";
        let merged = merge_journals(&[a, b]);
        let ats: Vec<u64> = merged.iter().map(|l| searched_key(l).0.unwrap()).collect();
        assert_eq!(ats, [0, 5, 10]);
    }

    #[test]
    fn same_instant_releases_precede_claims_from_other_journals() {
        // Shard journal: a start at t=100. Coordinator journal: a wide
        // job completing at t=100 (freeing the nodes that start needs).
        let shard = "{\"event\":\"job_started\",\"at\":100,\"job\":7}\n";
        let coord = "{\"event\":\"job_completed\",\"at\":100,\"job\":3,\"met_deadline\":true}\n{\"event\":\"promise_resolved\",\"at\":100,\"job\":3}\n";
        let merged = merge_journals(&[shard, coord]);
        let events: Vec<&str> = merged
            .iter()
            .map(|l| {
                let i = l.find("\"event\":\"").unwrap() + 9;
                let rest = &l[i..];
                &rest[..rest.find('"').unwrap()]
            })
            .map(|s| match s {
                "job_completed" => "job_completed",
                "promise_resolved" => "promise_resolved",
                "job_started" => "job_started",
                other => panic!("unexpected {other}"),
            })
            .collect();
        assert_eq!(events, ["job_completed", "promise_resolved", "job_started"]);
    }

    #[test]
    fn per_journal_order_is_never_violated() {
        // Journal b's completion at t=50 must NOT jump ahead of its own
        // earlier submission at t=50, even though releasing events win
        // cross-journal ties.
        let a = "{\"event\":\"job_started\",\"at\":50,\"job\":1}\n";
        let b = "{\"event\":\"job_submitted\",\"at\":50,\"job\":2}\n{\"event\":\"job_completed\",\"at\":50,\"job\":9}\n";
        let merged = merge_journals(&[a, b]);
        let b_sub = merged.iter().position(|l| l.contains("\"job\":2")).unwrap();
        let b_comp = merged.iter().position(|l| l.contains("\"job\":9")).unwrap();
        assert!(b_sub < b_comp, "journal b's internal order broke");
    }

    #[test]
    fn index_breaks_remaining_ties_deterministically() {
        let a = "{\"event\":\"job_submitted\",\"at\":5,\"job\":10}\n";
        let b = "{\"event\":\"job_submitted\",\"at\":5,\"job\":20}\n";
        let m1 = merge_journals(&[a, b]);
        let m2 = merge_journals(&[a, b]);
        assert_eq!(m1, m2);
        assert!(m1[0].contains("\"job\":10"));
        // Swapping the inputs swaps the winner: index is the tiebreak.
        let m3 = merge_journals(&[b, a]);
        assert!(m3[0].contains("\"job\":20"));
    }

    /// A seeded plane: `journals` bodies of up to `max_lines` lines each,
    /// time-monotone where a line has a time at all, drawing on everything
    /// the merge's rules distinguish.
    fn seeded_plane(rng: &mut DetRng, journals: u64, max_lines: u64) -> Vec<String> {
        const KINDS: [&str; 8] = [
            "job_completed",
            "deadline_missed",
            "promise_resolved",
            "job_cancelled",
            "job_submitted",
            "job_started",
            "job_placed",
            "quote_negotiated",
        ];
        (0..journals)
            .map(|_| {
                let mut body = String::new();
                // Few distinct instants, so journals tie on `at` often.
                let mut at = rng.uniform_u64(0, 3);
                for _ in 0..rng.uniform_u64(0, max_lines) {
                    let kind = KINDS[rng.uniform_u64(0, KINDS.len() as u64 - 1) as usize];
                    let job = rng.uniform_u64(0, 99);
                    // A rule whose text names the merge's keys, and an
                    // alert carrying it: what the encoder writes, escapes
                    // and all.
                    let rule = format!("r\"at\":{job},\"event\":\"job_completed\"");
                    let alert = |at| {
                        TelemetryEvent::SloAlert {
                            at: SimTime::from_secs(at),
                            rule: rule.clone(),
                            state: AlertState::Fire,
                            window_end_secs: at,
                            value: 0.5,
                            threshold: 0.25,
                        }
                        .to_jsonl()
                    };
                    match rng.uniform_u64(0, 18) {
                        // No "at" at all, an "at" that is not a number, and
                        // one that overflows u64: all inherit.
                        0 => body.push_str(&format!("{{\"event\":\"{kind}\",\"job\":{job}}}\n")),
                        1 => body.push_str(&format!("{{\"event\":\"{kind}\",\"at\":null}}\n")),
                        2 => body.push_str(&format!(
                            "{{\"event\":\"{kind}\",\"at\":99999999999999999999999,\"job\":{job}}}\n"
                        )),
                        3 => body.push_str("not json at all\n"),
                        4 => body.push('\n'),
                        5 => body.push_str(" \t \n"),
                        // Keys out of order: searched, not read off a prefix.
                        6 => body.push_str(&format!(
                            "{{\"at\":{at},\"event\":\"{kind}\",\"job\":{job}}}\n"
                        )),
                        7 => body.push_str(&format!(
                            "{{\"job\":{job},\"event\":\"{kind}\",\"at\":{at}}}\n"
                        )),
                        // Ten bytes in, a quote then `,"at":`, as in an
                        // encoded line, though the line is not one.
                        12 => body.push_str(&format!(
                            "{{\"rule\":\"r\",\"at\":{at},\"event\":\"{kind}\",\"job\":{job}}}\n"
                        )),
                        // The alert as encoded (prefix first), and with its
                        // rule moved in front of the keys.
                        8 => body.push_str(&(alert(at) + "\n")),
                        9 => {
                            let line = alert(at);
                            let fields = &line[1..line.len() - 1];
                            let (prefix, tail) = fields.split_at(fields.find(",\"rule\"").unwrap());
                            body.push_str(&format!("{{{},{prefix}}}\n", &tail[1..]));
                        }
                        // The rule unescaped, so its text is the first
                        // `"at":` and `"event":"` a search finds.
                        10 => body.push_str(&format!(
                            "{{\"rule\":\"{rule}\",\"event\":\"slo_alert\",\"at\":{at}}}\n"
                        )),
                        // A canonical prefix in front of that text.
                        11 => body.push_str(&format!(
                            "{{\"event\":\"{kind}\",\"at\":{at},\"rule\":\"{rule}\"}}\n"
                        )),
                        _ => {
                            at += rng.uniform_u64(0, 2) / 2;
                            body.push_str(&format!(
                                "{{\"event\":\"{kind}\",\"at\":{at},\"job\":{job}}}\n"
                            ));
                        }
                    }
                }
                // Half the journals end without a newline.
                if rng.chance(0.5) {
                    body.pop();
                }
                body
            })
            .collect()
    }

    #[test]
    fn merge_matches_the_oracle_on_seeded_planes() {
        let mut rng = DetRng::seed_from(0x6d65_7267);
        let (mut read, mut searched) = (0, 0);
        for case in 0..400 {
            let journals = rng.uniform_u64(1, 6);
            let mut plane = seeded_plane(&mut rng, journals, 40);
            // An empty journal among non-empty ones, somewhere.
            if case % 3 == 0 {
                let at = rng.uniform_u64(0, plane.len() as u64 - 1) as usize;
                plane[at].clear();
            }
            let refs: Vec<&str> = plane.iter().map(String::as_str).collect();
            // Both ways of reading a key are exercised, and agree.
            for line in refs.iter().flat_map(|body| body.lines()) {
                match canonical_key(line) {
                    Some(key) => {
                        assert_eq!(key, searched_key(line), "case {case}: {line}");
                        read += 1;
                    }
                    None => searched += 1,
                }
            }
            let want = oracle::merge_journals(&refs);
            let got = merge_journals(&refs);
            assert_eq!(got, want, "case {case}: {plane:?}");
            let joined = if want.is_empty() {
                String::new()
            } else {
                want.join("\n") + "\n"
            };
            assert_eq!(merge_journals_to_string(&refs), joined, "case {case}");
            if refs.len() == 1 {
                let kept: Vec<&str> = refs[0].lines().filter(|l| !l.trim().is_empty()).collect();
                assert_eq!(got, kept, "case {case}: one journal merges to itself");
            }
        }
        assert!(
            read > 1_000 && searched > 1_000,
            "{read} read, {searched} searched"
        );
    }

    /// The incremental merge against the one-shot oracle: seeded planes
    /// dealt out in chunks of whole lines, borrowed or in recycled owned
    /// buffers, with a release after each round at a watermark no line
    /// still to come sorts below. Every release's output so far is a
    /// prefix of the oracle's, and the finished output is all of it.
    #[test]
    fn releasing_as_lines_arrive_matches_the_one_shot_merge() {
        let mut rng = DetRng::seed_from(0x7469_636b);
        let mut releases = 0;
        for case in 0..300 {
            let journals = rng.uniform_u64(1, 5);
            let plane = seeded_plane(&mut rng, journals, 40);
            let refs: Vec<&str> = plane.iter().map(String::as_str).collect();
            let oracle = oracle::merge_keyed(&refs);
            let want = oracle
                .iter()
                .map(|(_, line)| line.clone() + "\n")
                .collect::<String>();
            // Each journal's pieces (lines with their `\n`), and the least
            // instant a non-blank line from each piece on sorts at.
            let pieces: Vec<Vec<&str>> = refs
                .iter()
                .map(|b| b.split_inclusive('\n').collect())
                .collect();
            let floors: Vec<Vec<u64>> = pieces
                .iter()
                .map(|pieces| {
                    let mut last_at = 0;
                    let mut floors: Vec<u64> = pieces
                        .iter()
                        .map(|piece| {
                            let line = piece.trim_end_matches('\n');
                            if line.trim().is_empty() {
                                return u64::MAX;
                            }
                            let (at, _) = canonical_key(line).unwrap_or_else(|| searched_key(line));
                            last_at = at.unwrap_or(last_at);
                            last_at
                        })
                        .collect();
                    for k in (1..floors.len()).rev() {
                        floors[k - 1] = floors[k - 1].min(floors[k]);
                    }
                    floors
                })
                .collect();
            let mut merger = JournalMerger::new(refs.len());
            // Per journal: pieces fed, and the bytes they span.
            let (mut next, mut offset) = (vec![0; refs.len()], vec![0; refs.len()]);
            let mut watermark = 0;
            while next.iter().zip(&pieces).any(|(&n, p)| n < p.len()) {
                for (idx, pieces) in pieces.iter().enumerate() {
                    let take = (rng.uniform_u64(0, 6) as usize).min(pieces.len() - next[idx]);
                    let len: usize = pieces[next[idx]..next[idx] + take]
                        .iter()
                        .map(|p| p.len())
                        .sum();
                    let chunk = &refs[idx][offset[idx]..offset[idx] + len];
                    next[idx] += take;
                    offset[idx] += len;
                    if rng.chance(0.5) {
                        let mut buf = merger.recycled();
                        assert!(buf.is_empty(), "case {case}: a recycled buffer is empty");
                        buf.push_str(chunk);
                        merger.feed(idx, buf);
                    } else {
                        merger.feed(idx, chunk);
                    }
                }
                // The highest watermark the lines still to come allow, or
                // one below it; where none is left, anything.
                let allowed = (0..refs.len())
                    .filter_map(|idx| floors[idx].get(next[idx]).copied())
                    .min()
                    .unwrap_or(u64::MAX - 1);
                watermark = watermark.max(allowed.saturating_sub(rng.uniform_u64(0, 1)));
                merger.release(watermark);
                releases += 1;
                // The oracle's lines up to the first at or above the
                // watermark: every line below it, and no other.
                let released = oracle.iter().take_while(|(at, _)| *at < watermark).count();
                let want_out: String = oracle[..released]
                    .iter()
                    .map(|(_, line)| line.clone() + "\n")
                    .collect();
                assert_eq!(merger.out, want_out, "case {case}: release at {watermark}");
            }
            assert_eq!(merger.finish(), want, "case {case}: {plane:?}");
        }
        assert!(releases > 1_000, "{releases} releases");
    }

    #[test]
    #[should_panic(
        expected = "journal plane 1: a line at 3 arrived after every line below 10 was released"
    )]
    fn a_line_below_the_released_watermark_panics() {
        let mut merger = JournalMerger::new(2);
        merger.feed(0, "{\"event\":\"job_started\",\"at\":5,\"job\":1}\n");
        merger.release(10);
        merger.feed(1, "{\"event\":\"job_started\",\"at\":3,\"job\":2}\n");
        merger.finish();
    }

    #[test]
    fn a_line_without_a_time_inherits_its_predecessors() {
        // First in its journal: instant 0, so it precedes everything later.
        // Mid-journal: rides right behind its predecessor even though the
        // other journal has earlier-or-equal lines waiting. Last: same.
        let a = "{\"event\":\"x\"}\n{\"event\":\"job_started\",\"at\":5,\"job\":1}\nno time here\n{\"event\":\"job_started\",\"at\":9,\"job\":2}\ntail\n";
        let b = "{\"event\":\"job_started\",\"at\":3,\"job\":3}\n{\"event\":\"job_started\",\"at\":5,\"job\":4}\n{\"event\":\"job_started\",\"at\":7,\"job\":5}\n{\"event\":\"job_started\",\"at\":9,\"job\":6}\n";
        let merged = merge_journals(&[a, b]);
        let shown: Vec<&str> = merged
            .iter()
            .map(|l| match l.find("\"job\":") {
                Some(i) => &l[i + 6..l.len() - 1],
                None => l.as_str(),
            })
            .collect();
        assert_eq!(
            shown,
            [
                "{\"event\":\"x\"}",
                "3",
                "1",
                "no time here",
                "4",
                "5",
                "2",
                "tail",
                "6"
            ]
        );
        assert_eq!(merged, oracle::merge_journals(&[a, b]));
    }
}
