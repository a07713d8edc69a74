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

use crate::event::EventKind;

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

/// The digits after the line's first `"at":`, if they are a `u64`.
fn parse_at(line: &str) -> Option<u64> {
    let rest = &line[line.find("\"at\":")? + 5..];
    let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
    rest[..digits].parse().ok()
}

fn is_releasing(line: &str) -> bool {
    line.find("\"event\":\"").is_some_and(|idx| {
        let rest = &line[idx + 9..];
        rest.find('"')
            .is_some_and(|end| RELEASING.contains(&&rest[..end]))
    })
}

/// One journal being merged: the lines not yet taken, and the head line
/// with its key.
struct Cursor<'a> {
    lines: std::str::Lines<'a>,
    /// `(at, class, line)`: class 0 releases, 1 does not.
    head: Option<(u64, u8, &'a str)>,
}

impl<'a> Cursor<'a> {
    /// Moves to the next non-blank line and reads its key. A line with no
    /// parseable `"at"` inherits `last_at`, the instant of the line before
    /// it in this journal.
    fn advance(&mut self, last_at: u64) {
        self.head = self
            .lines
            .by_ref()
            .find(|line| !line.trim().is_empty())
            .map(|line| {
                let class = if is_releasing(line) { 0 } else { 1 };
                (parse_at(line).unwrap_or(last_at), class, line)
            });
    }
}

/// The merge itself: hands every line to `emit`, in merged order.
fn merge_into<'a>(journals: &[&'a str], mut emit: impl FnMut(&'a str)) {
    let mut cursors: Vec<Cursor<'a>> = journals
        .iter()
        .map(|body| {
            let mut cursor = Cursor {
                lines: body.lines(),
                head: None,
            };
            cursor.advance(0);
            cursor
        })
        .collect();
    // Among heads: min at, then releasing-first, then journal index (the
    // first of equal keys is kept, and cursors are in index order).
    while let Some((idx, (at, _, line))) = cursors
        .iter()
        .enumerate()
        .filter_map(|(idx, cursor)| Some((idx, cursor.head?)))
        .min_by_key(|&(_, (at, class, _))| (at, class))
    {
        emit(line);
        cursors[idx].advance(at);
    }
}

/// Merges several JSONL journal bodies into one, returning the merged
/// lines in order. Inputs are split on `\n`; blank lines are dropped.
/// Lines missing a parseable `"at"` inherit their predecessor's instant
/// (preserving that journal's relative order).
pub fn merge_journals(journals: &[&str]) -> Vec<String> {
    let mut merged = Vec::new();
    merge_into(journals, |line| merged.push(line.to_string()));
    merged
}

/// [`merge_journals`] returning one newline-terminated body (empty
/// input merges to an empty string), written straight into one buffer
/// sized for the inputs.
pub fn merge_journals_to_string(journals: &[&str]) -> String {
    // Every input byte at most once, plus a newline for each journal
    // whose last line lacks one.
    let bound = journals.iter().map(|body| body.len() + 1).sum();
    let mut body = String::with_capacity(bound);
    merge_into(journals, |line| {
        body.push_str(line);
        body.push('\n');
    });
    body
}

#[cfg(test)]
mod tests {
    use super::*;
    use pqos_sim_core::rng::DetRng;

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
                merged.push(cursor.lines[cursor.next].to_string());
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
        let ats: Vec<u64> = merged.iter().map(|l| parse_at(l).unwrap()).collect();
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
                    match rng.uniform_u64(0, 11) {
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
        for case in 0..400 {
            let journals = rng.uniform_u64(1, 6);
            let mut plane = seeded_plane(&mut rng, journals, 40);
            // An empty journal among non-empty ones, somewhere.
            if case % 3 == 0 {
                let at = rng.uniform_u64(0, plane.len() as u64 - 1) as usize;
                plane[at].clear();
            }
            let refs: Vec<&str> = plane.iter().map(String::as_str).collect();
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
