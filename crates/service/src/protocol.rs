//! The JSON-lines wire protocol between clients and `pqos-qosd`.
//!
//! One JSON object per line in each direction. Every request carries a
//! caller-chosen `id`; every response echoes it, so clients may pipeline
//! any number of requests on one connection and match replies by id.
//!
//! Requests (`verb` selects the operation):
//!
//! ```text
//! {"id":1,"verb":"negotiate","size":4,"runtime_secs":3600}
//! {"id":2,"verb":"accept","job":17}
//! {"id":3,"verb":"cancel","job":17}
//! {"id":4,"verb":"status"}
//! {"id":5,"verb":"dump"}
//! {"id":6,"verb":"history"}
//! {"id":7,"verb":"shutdown"}
//! ```
//!
//! Successful responses carry `"ok":true` plus verb-specific fields;
//! failures carry `"ok":false` and a stable `error` code (see
//! [`ErrorCode`]). Malformed lines are answered with `bad_request` — the
//! connection stays open.
//!
//! Parsing reads each line once with the journal's hand-rolled lexer
//! ([`pull_let!`]: the fields a message can carry, borrowed from the line,
//! no tree), which returns `None` on any syntax error or on nesting past its
//! bound, so arbitrary garbage on the wire — a line of 100,000 `[`
//! included — can at worst earn a `bad_request` reply (the fuzz test in
//! `tests/service.rs` holds the daemon to that). Encoding appends into a
//! buffer the caller keeps (`encode_into`); `encode` allocates one.

use pqos_telemetry::json::{ObjWriter, Token};
use pqos_telemetry::{pull_let, wire_enum};

wire_enum! {
    /// Stable error codes carried in `"error"` fields.
    pub enum ErrorCode {
        /// The request line was not a valid protocol message.
        BadRequest = "bad_request",
        /// The engine queue was full; retry later.
        Overloaded = "overloaded",
        /// The request waited in the queue past its deadline; retry.
        Timeout = "timeout",
        /// The job cannot fit the cluster at any time (negotiate).
        Rejected = "rejected",
        /// No quote is held for this job (accept).
        UnknownQuote = "unknown_quote",
        /// The quoted slot is gone; negotiate again (accept).
        QuoteExpired = "quote_expired",
        /// The job id is unknown (cancel).
        UnknownJob = "unknown_job",
        /// The job already started; too late to cancel.
        AlreadyStarted = "already_started",
        /// The daemon is draining; no new work is accepted.
        ShuttingDown = "shutting_down",
    }
}

impl ErrorCode {
    /// Whether the client may usefully retry the same request.
    pub(crate) fn is_retryable(self) -> bool {
        matches!(self, ErrorCode::Overloaded | ErrorCode::Timeout)
    }
}

/// A client request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Ask for a (deadline, probability) quote for `size` nodes running
    /// `runtime_secs` of useful work. The reply assigns the job id.
    Negotiate {
        /// Correlation id, echoed in the reply.
        id: u64,
        /// Requested partition size in nodes.
        size: u32,
        /// Requested useful runtime in seconds.
        runtime_secs: u64,
    },
    /// Commit the held quote for `job`.
    Accept {
        /// Correlation id, echoed in the reply.
        id: u64,
        /// Job id from the negotiate reply.
        job: u64,
    },
    /// Withdraw `job` (drops a held quote or releases a not-yet-started
    /// reservation).
    Cancel {
        /// Correlation id, echoed in the reply.
        id: u64,
        /// Job id from the negotiate reply.
        job: u64,
    },
    /// Ask for a state snapshot (virtual time, occupancy, counters).
    Status {
        /// Correlation id, echoed in the reply.
        id: u64,
    },
    /// Ask for the flight recorder's contents as a Chrome trace.
    Dump {
        /// Correlation id, echoed in the reply.
        id: u64,
    },
    /// Ask for the windowed health history (wall-clock metric windows).
    History {
        /// Correlation id, echoed in the reply.
        id: u64,
    },
    /// Drain and stop the daemon.
    Shutdown {
        /// Correlation id, echoed in the reply.
        id: u64,
    },
}

/// Why a request line failed to parse, with the correlation id when one
/// could still be recovered (so the error reply reaches the right caller).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The request's `id`, when the line was valid JSON carrying one.
    pub id: Option<u64>,
    /// Human-readable cause for the `detail` field of the reply.
    pub detail: &'static str,
}

impl Request {
    /// The correlation id.
    pub fn id(&self) -> u64 {
        match self {
            Request::Negotiate { id, .. }
            | Request::Accept { id, .. }
            | Request::Cancel { id, .. }
            | Request::Status { id }
            | Request::Dump { id }
            | Request::History { id }
            | Request::Shutdown { id } => *id,
        }
    }

    /// The verb as spelled on the wire (trace and metric label).
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Negotiate { .. } => "negotiate",
            Request::Accept { .. } => "accept",
            Request::Cancel { .. } => "cancel",
            Request::Status { .. } => "status",
            Request::Dump { .. } => "dump",
            Request::History { .. } => "history",
            Request::Shutdown { .. } => "shutdown",
        }
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// [`ParseError`] describing the first problem found; `id` is
    /// populated whenever the line was well-formed JSON with a numeric
    /// `id`, letting the server answer `bad_request` to the right caller.
    pub fn parse(line: &str) -> Result<Request, ParseError> {
        let fail = |id, detail| Err(ParseError { id, detail });
        pull_let!([id, verb, size, runtime_secs, job] = line.trim();
            else { return fail(None, "not valid JSON") });
        let u = |t: Option<Token<'_>>| t?.as_u64();
        let id = u(id);
        let Some(verb) = verb.as_ref().and_then(Token::as_str) else {
            return fail(id, "missing verb");
        };
        let Some(id) = id else {
            return fail(None, "missing numeric id");
        };
        match verb {
            "negotiate" => {
                let Some(size) = u(size) else {
                    return fail(Some(id), "negotiate: missing size");
                };
                let Some(runtime_secs) = u(runtime_secs) else {
                    return fail(Some(id), "negotiate: missing runtime_secs");
                };
                let Ok(size) = u32::try_from(size) else {
                    return fail(Some(id), "negotiate: size out of range");
                };
                if size == 0 || runtime_secs == 0 {
                    return fail(
                        Some(id),
                        "negotiate: size and runtime_secs must be positive",
                    );
                }
                Ok(Request::Negotiate {
                    id,
                    size,
                    runtime_secs,
                })
            }
            "accept" | "cancel" => {
                let Some(job) = u(job) else {
                    return fail(Some(id), "missing job");
                };
                Ok(if verb == "accept" {
                    Request::Accept { id, job }
                } else {
                    Request::Cancel { id, job }
                })
            }
            "status" => Ok(Request::Status { id }),
            "dump" => Ok(Request::Dump { id }),
            "history" => Ok(Request::History { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            _ => fail(Some(id), "unknown verb"),
        }
    }

    /// Encodes the request as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        // Sized once: the widest line, a negotiate with every number at
        // its longest, is 100 bytes, and a caller may add a newline.
        let mut line = String::with_capacity(128);
        self.encode_into(&mut line);
        line
    }

    /// Appends the request's line (no trailing newline) to `out`.
    pub(crate) fn encode_into(&self, out: &mut String) {
        let mut w = ObjWriter::append_to(std::mem::take(out));
        match self {
            Request::Negotiate {
                id,
                size,
                runtime_secs,
            } => {
                w.u64("id", *id)
                    .str("verb", "negotiate")
                    .u64("size", u64::from(*size))
                    .u64("runtime_secs", *runtime_secs);
            }
            Request::Accept { id, job } => {
                w.u64("id", *id).str("verb", "accept").u64("job", *job);
            }
            Request::Cancel { id, job } => {
                w.u64("id", *id).str("verb", "cancel").u64("job", *job);
            }
            Request::Status { id } => {
                w.u64("id", *id).str("verb", "status");
            }
            Request::Dump { id } => {
                w.u64("id", *id).str("verb", "dump");
            }
            Request::History { id } => {
                w.u64("id", *id).str("verb", "history");
            }
            Request::Shutdown { id } => {
                w.u64("id", *id).str("verb", "shutdown");
            }
        }
        *out = w.finish();
    }
}

/// Counters and occupancy in a `status` reply.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatusBody {
    /// Virtual time in seconds.
    pub now_secs: u64,
    /// Cluster width in nodes.
    pub cluster_size: u32,
    /// Nodes committed at the current virtual time.
    pub occupied_nodes: u32,
    /// Live reservations.
    pub reservations: u64,
    /// Negotiations answered with a quote.
    pub quoted: u64,
    /// Negotiations answered `rejected`.
    pub rejected: u64,
    /// Quotes committed.
    pub accepted: u64,
    /// Accepts refused as `quote_expired`.
    pub expired: u64,
    /// Jobs cancelled.
    pub cancelled: u64,
    /// Jobs started.
    pub started: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Batched quotes re-checked against serial negotiation.
    pub parity_checked: u64,
    /// Re-checks that disagreed (must be zero).
    pub parity_violations: u64,
    /// Parity re-check cadence: every Nth quote batch is re-checked
    /// (1 = every batch).
    pub parity_sample: u64,
    /// Promises made: quotes committed via `accept`.
    pub promises_made: u64,
    /// Promises resolved with the deadline met.
    pub promises_kept: u64,
    /// Promises resolved with the deadline missed.
    pub promises_broken: u64,
    /// Promises withdrawn by `cancel` before resolution.
    pub promises_cancelled: u64,
    /// Worst per-bucket calibration residual, in milli-units: observed
    /// success rate minus mean quoted probability, ×1000, for the
    /// quoted-probability bucket where it is largest in magnitude.
    /// Negative = overconfident.
    pub worst_residual_milli: i64,
    /// Requests waiting in the engine queue right now.
    pub queue_depth: u64,
    /// Wall-clock seconds since the engine started.
    pub uptime_secs: u64,
    /// Jobs currently quoted, accepted, or running.
    pub live_jobs: u64,
    /// Requests refused with `overloaded` since startup.
    pub overloaded: u64,
    /// Journal events durably written across all sinks.
    pub journal_events_written: u64,
    /// Journal events evicted from the in-memory ring to make room. A
    /// nonzero value means a recorded capture may be lossy.
    pub journal_ring_dropped: u64,
    /// Journal events lost to sink I/O errors.
    pub journal_write_errors: u64,
    /// Engine shards serving this daemon (1 = the classic single-writer
    /// plane).
    pub shards: u64,
    /// Requests routed to each lane in the most recent quote batch:
    /// one entry per shard, plus a final entry for the cross-shard
    /// (wide-job) coordinator when `shards > 1`. Empty on single-shard
    /// daemons.
    pub shard_queue: Vec<u64>,
}

/// A server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A successful `negotiate`: the offered quote and its job id.
    Quote {
        /// Correlation id of the request.
        id: u64,
        /// Server-assigned job id for accept/cancel.
        job: u64,
        /// Quoted start time (virtual seconds).
        start_secs: u64,
        /// Promised completion (virtual seconds).
        promised_secs: u64,
        /// Effective deadline after slack (virtual seconds).
        deadline_secs: u64,
        /// Promised probability of meeting the deadline (Eq. 2).
        success_probability: f64,
        /// Whether the quote met the configured user threshold.
        satisfied_threshold: bool,
    },
    /// A successful `accept`, `cancel`, or `shutdown`.
    Ok {
        /// Correlation id of the request.
        id: u64,
    },
    /// A successful `status`.
    Status {
        /// Correlation id of the request.
        id: u64,
        /// The snapshot.
        body: StatusBody,
    },
    /// A successful `dump`: the flight recorder rendered as a Chrome
    /// `trace_event` document (JSON carried as a string field).
    Dump {
        /// Correlation id of the request.
        id: u64,
        /// Chrome trace JSON (`{"traceEvents":[…]}`).
        trace: String,
    },
    /// A successful `history`: the windowed health-history document
    /// (JSON carried as a string field; see
    /// `pqos_telemetry::WindowStore::to_json`).
    History {
        /// Correlation id of the request.
        id: u64,
        /// History JSON (`{"history":true,"window_ms":…,"families":[…]}`).
        history: String,
    },
    /// Any failure; `code` is stable, `detail` is advisory.
    Error {
        /// Correlation id of the request (0 when unrecoverable).
        id: u64,
        /// Stable error code.
        code: ErrorCode,
        /// Human-readable explanation.
        detail: String,
    },
}

impl Response {
    /// The correlation id.
    pub fn id(&self) -> u64 {
        match self {
            Response::Quote { id, .. }
            | Response::Ok { id }
            | Response::Status { id, .. }
            | Response::Dump { id, .. }
            | Response::History { id, .. }
            | Response::Error { id, .. } => *id,
        }
    }

    /// Encodes the response as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        let mut line = String::new();
        self.encode_into(&mut line);
        line
    }

    /// Appends the response's line (no trailing newline) to `out`.
    pub(crate) fn encode_into(&self, out: &mut String) {
        let mut w = ObjWriter::append_to(std::mem::take(out));
        match self {
            Response::Quote {
                id,
                job,
                start_secs,
                promised_secs,
                deadline_secs,
                success_probability,
                satisfied_threshold,
            } => {
                w.u64("id", *id)
                    .bool("ok", true)
                    .u64("job", *job)
                    .u64("start_secs", *start_secs)
                    .u64("promised_secs", *promised_secs)
                    .u64("deadline_secs", *deadline_secs)
                    .f64("success_probability", *success_probability)
                    .bool("satisfied_threshold", *satisfied_threshold);
            }
            Response::Ok { id } => {
                w.u64("id", *id).bool("ok", true);
            }
            Response::Status { id, body } => {
                w.u64("id", *id)
                    .bool("ok", true)
                    .u64("now_secs", body.now_secs)
                    .u64("cluster_size", u64::from(body.cluster_size))
                    .u64("occupied_nodes", u64::from(body.occupied_nodes))
                    .u64("reservations", body.reservations)
                    .u64("quoted", body.quoted)
                    .u64("rejected", body.rejected)
                    .u64("accepted", body.accepted)
                    .u64("expired", body.expired)
                    .u64("cancelled", body.cancelled)
                    .u64("started", body.started)
                    .u64("completed", body.completed)
                    .u64("parity_checked", body.parity_checked)
                    .u64("parity_violations", body.parity_violations)
                    .u64("queue_depth", body.queue_depth)
                    .u64("uptime_secs", body.uptime_secs)
                    .u64("live_jobs", body.live_jobs)
                    .u64("overloaded", body.overloaded)
                    .u64("journal_events_written", body.journal_events_written)
                    .u64("journal_ring_dropped", body.journal_ring_dropped)
                    .u64("journal_write_errors", body.journal_write_errors)
                    .u64("parity_sample", body.parity_sample)
                    .u64("promises_made", body.promises_made)
                    .u64("promises_kept", body.promises_kept)
                    .u64("promises_broken", body.promises_broken)
                    .u64("promises_cancelled", body.promises_cancelled)
                    .i64("worst_residual_milli", body.worst_residual_milli)
                    .u64("shards", body.shards)
                    .arr_u64("shard_queue", &body.shard_queue);
            }
            Response::Dump { id, trace } => {
                w.u64("id", *id).bool("ok", true).str("trace", trace);
            }
            Response::History { id, history } => {
                w.u64("id", *id).bool("ok", true).str("history", history);
            }
            Response::Error { id, code, detail } => {
                w.u64("id", *id)
                    .bool("ok", false)
                    .str("error", code.as_str())
                    .str("detail", detail);
            }
        }
        *out = w.finish();
    }

    /// Parses one response line (the client side of the protocol).
    /// Returns `None` for anything that is not a well-formed response.
    pub fn parse(line: &str) -> Option<Response> {
        // What decides the shape first, then a quote's fields, then the
        // status snapshot's.
        pull_let!([
            id, ok, error, detail, trace, history, job, start_secs, promised_secs, deadline_secs,
            success_probability, satisfied_threshold, now_secs, cluster_size, occupied_nodes,
            reservations, quoted, rejected, accepted, expired, cancelled, started, completed,
            parity_checked, parity_violations, parity_sample, promises_made, promises_kept,
            promises_broken, promises_cancelled, worst_residual_milli, queue_depth, uptime_secs,
            live_jobs, overloaded, journal_events_written, journal_ring_dropped,
            journal_write_errors, shards, shard_queue,
        ] = line.trim(); else { return None });
        let u = |t: Option<Token<'_>>| t?.as_u64();
        // A string field's text; anything else reads as absent.
        let text = |t: Option<Token<'_>>| match t? {
            Token::Str(s) => Some(s.into_owned()),
            _ => None,
        };
        let id = u(id)?;
        if !ok?.as_bool()? {
            let code = ErrorCode::parse(error?.as_str()?)?;
            let detail = text(detail).unwrap_or_default();
            return Some(Response::Error { id, code, detail });
        }
        if let Some(trace) = text(trace) {
            return Some(Response::Dump { id, trace });
        }
        if let Some(history) = text(history) {
            return Some(Response::History { id, history });
        }
        if let Some(job) = u(job) {
            return Some(Response::Quote {
                id,
                job,
                start_secs: u(start_secs)?,
                promised_secs: u(promised_secs)?,
                deadline_secs: u(deadline_secs)?,
                success_probability: success_probability?.as_f64()?,
                satisfied_threshold: satisfied_threshold?.as_bool()?,
            });
        }
        if now_secs.is_some() {
            return Some(Response::Status {
                id,
                body: StatusBody {
                    now_secs: u(now_secs)?,
                    cluster_size: u32::try_from(u(cluster_size)?).ok()?,
                    occupied_nodes: u32::try_from(u(occupied_nodes)?).ok()?,
                    reservations: u(reservations)?,
                    quoted: u(quoted)?,
                    rejected: u(rejected)?,
                    accepted: u(accepted)?,
                    expired: u(expired)?,
                    cancelled: u(cancelled)?,
                    started: u(started)?,
                    completed: u(completed)?,
                    parity_checked: u(parity_checked)?,
                    parity_violations: u(parity_violations)?,
                    // Lenient on the observability extras so replies from
                    // daemons predating them still parse.
                    queue_depth: u(queue_depth).unwrap_or(0),
                    uptime_secs: u(uptime_secs).unwrap_or(0),
                    live_jobs: u(live_jobs).unwrap_or(0),
                    overloaded: u(overloaded).unwrap_or(0),
                    journal_events_written: u(journal_events_written).unwrap_or(0),
                    journal_ring_dropped: u(journal_ring_dropped).unwrap_or(0),
                    journal_write_errors: u(journal_write_errors).unwrap_or(0),
                    // A daemon predating sampling re-checked every batch.
                    parity_sample: u(parity_sample).unwrap_or(1),
                    promises_made: u(promises_made).unwrap_or(0),
                    promises_kept: u(promises_kept).unwrap_or(0),
                    promises_broken: u(promises_broken).unwrap_or(0),
                    promises_cancelled: u(promises_cancelled).unwrap_or(0),
                    worst_residual_milli: worst_residual_milli
                        .and_then(|t| t.as_i64())
                        .unwrap_or(0),
                    // A daemon predating sharding ran one engine plane.
                    shards: u(shards).unwrap_or(1),
                    shard_queue: {
                        let mut lanes = Vec::new();
                        if let Some(list) = shard_queue {
                            let _ = list.items(|lane| lanes.extend(lane.as_u64()));
                        }
                        lanes
                    },
                },
            });
        }
        Some(Response::Ok { id })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Negotiate {
                id: 1,
                size: 4,
                runtime_secs: 3600,
            },
            Request::Accept { id: 2, job: 17 },
            Request::Cancel { id: 3, job: 17 },
            Request::Status { id: 4 },
            Request::Dump { id: 5 },
            Request::History { id: 6 },
            Request::Shutdown { id: 7 },
        ];
        for r in requests {
            assert_eq!(Request::parse(&r.encode()), Ok(r));
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::Quote {
                id: 1,
                job: 9,
                start_secs: 0,
                promised_secs: 4000,
                deadline_secs: 4800,
                success_probability: 0.93,
                satisfied_threshold: true,
            },
            Response::Ok { id: 2 },
            Response::Status {
                id: 3,
                body: StatusBody {
                    now_secs: 120,
                    cluster_size: 64,
                    occupied_nodes: 12,
                    reservations: 3,
                    quoted: 40,
                    rejected: 1,
                    accepted: 30,
                    expired: 2,
                    cancelled: 4,
                    started: 20,
                    completed: 15,
                    parity_checked: 40,
                    parity_violations: 0,
                    parity_sample: 16,
                    promises_made: 30,
                    promises_kept: 14,
                    promises_broken: 1,
                    promises_cancelled: 4,
                    worst_residual_milli: -125,
                    queue_depth: 7,
                    uptime_secs: 33,
                    live_jobs: 11,
                    overloaded: 2,
                    journal_events_written: 90,
                    journal_ring_dropped: 1,
                    journal_write_errors: 0,
                    shards: 4,
                    shard_queue: vec![12, 9, 11, 8, 2],
                },
            },
            Response::Dump {
                id: 9,
                trace: "{\"traceEvents\":[]}\n".into(),
            },
            Response::History {
                id: 10,
                history: "{\"history\":true,\"window_ms\":1000,\"windows\":0,\"families\":[]}"
                    .into(),
            },
            Response::Error {
                id: 4,
                code: ErrorCode::QuoteExpired,
                detail: "quote expired; negotiate again".into(),
            },
        ];
        for r in responses {
            assert_eq!(Response::parse(&r.encode()), Some(r));
        }
        // Replay judges a recorded answer by its bytes alone when they
        // are the replayed answer's: so every quote with a finite
        // probability, and every error, must parse back as well.
        for success_probability in [0.0, 1.0, 0.1 + 0.2, 1e-20, 5e-324, 1.0 - f64::EPSILON] {
            let quote = Response::Quote {
                id: u64::MAX,
                job: u64::MAX,
                start_secs: 0,
                promised_secs: u64::MAX,
                deadline_secs: u64::MAX,
                success_probability,
                satisfied_threshold: false,
            };
            assert_eq!(Response::parse(&quote.encode()), Some(quote));
        }
        for code in ErrorCode::ALL {
            let error = Response::Error {
                id: 0,
                code,
                detail: "a \"quoted\" \\ detail\n\u{1}é".into(),
            };
            assert_eq!(Response::parse(&error.encode()), Some(error));
        }
    }

    /// The widest request line, and the newline a caller adds, fit the
    /// one allocation `encode` makes (128 bytes).
    #[test]
    fn widest_request_fits_its_first_allocation() {
        let request = Request::Negotiate {
            id: u64::MAX,
            size: u32::MAX,
            runtime_secs: u64::MAX,
        };
        let mut line = request.encode();
        assert_eq!(line.len(), 100, "{line}");
        line.push('\n');
        assert!(line.capacity() <= 128, "{line} regrew");
    }

    #[test]
    fn malformed_requests_fail_softly_with_recovered_ids() {
        // Not JSON at all: no id to correlate.
        assert_eq!(Request::parse("}{").unwrap_err().id, None);
        // Valid JSON, bad verb: the id survives for the error reply.
        let err = Request::parse(r#"{"id":7,"verb":"frobnicate"}"#).unwrap_err();
        assert_eq!(err.id, Some(7));
        // Missing fields.
        assert!(Request::parse(r#"{"id":1,"verb":"negotiate","size":4}"#).is_err());
        assert!(Request::parse(r#"{"id":1,"verb":"accept"}"#).is_err());
        // Zero-size and zero-runtime jobs are protocol errors, not quotes.
        assert!(
            Request::parse(r#"{"id":1,"verb":"negotiate","size":0,"runtime_secs":10}"#).is_err()
        );
        assert!(
            Request::parse(r#"{"id":1,"verb":"negotiate","size":4,"runtime_secs":0}"#).is_err()
        );
    }

    #[test]
    fn status_parse_tolerates_missing_observability_fields() {
        // A reply from a daemon predating queue_depth/uptime/live_jobs/
        // overloaded must still parse, with those fields zeroed.
        let line = concat!(
            r#"{"id":3,"ok":true,"now_secs":1,"cluster_size":4,"occupied_nodes":0,"#,
            r#""reservations":0,"quoted":0,"rejected":0,"accepted":0,"expired":0,"#,
            r#""cancelled":0,"started":0,"completed":0,"parity_checked":0,"#,
            r#""parity_violations":0}"#
        );
        let Some(Response::Status { body, .. }) = Response::parse(line) else {
            panic!("legacy status reply must parse");
        };
        assert_eq!(body.queue_depth, 0);
        assert_eq!(body.uptime_secs, 0);
        assert_eq!(body.live_jobs, 0);
        assert_eq!(body.overloaded, 0);
        assert_eq!(body.journal_events_written, 0);
        assert_eq!(body.journal_ring_dropped, 0);
        assert_eq!(body.journal_write_errors, 0);
        // Promise fields zero too — except the sampling cadence, which
        // was implicitly "every batch" before it was reported.
        assert_eq!(body.parity_sample, 1);
        assert_eq!(body.promises_made, 0);
        assert_eq!(body.promises_kept, 0);
        assert_eq!(body.promises_broken, 0);
        assert_eq!(body.promises_cancelled, 0);
        assert_eq!(body.worst_residual_milli, 0);
        // Pre-sharding daemons ran one engine plane.
        assert_eq!(body.shards, 1);
        assert!(body.shard_queue.is_empty());
    }

    #[test]
    fn dump_round_trips_nested_json_as_a_string() {
        let trace = "{\"traceEvents\":[{\"name\":\"negotiate\",\"ph\":\"X\"}]}";
        let r = Response::Dump {
            id: 12,
            trace: trace.into(),
        };
        assert_eq!(Response::parse(&r.encode()), Some(r));
    }

    #[test]
    fn error_codes_round_trip() {
        let names: std::collections::BTreeSet<&str> =
            ErrorCode::ALL.iter().map(|c| c.as_str()).collect();
        assert_eq!(names.len(), ErrorCode::ALL.len(), "names are distinct");
        for code in ErrorCode::ALL {
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
        assert_eq!(ErrorCode::parse("nope"), None);
        assert_eq!(ErrorCode::parse(""), None);
    }

    /// JSON's string escapes, one `char` at a time: the reference the
    /// writer's run-copying escaper is compared against.
    fn reference_quoted(s: &str) -> String {
        let mut out = String::from("\"");
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
                c => out.push(c),
            }
        }
        out + "\""
    }

    /// A response's line written with `format!`: integers by `to_string`,
    /// floats by `{v:?}` (`null` if not finite), strings by
    /// [`reference_quoted`].
    fn reference_line(response: &Response) -> String {
        let float = |v: f64| {
            if v.is_finite() {
                format!("{v:?}")
            } else {
                "null".to_string()
            }
        };
        match response {
            Response::Quote {
                id,
                job,
                start_secs,
                promised_secs,
                deadline_secs,
                success_probability,
                satisfied_threshold,
            } => format!(
                "{{\"id\":{id},\"ok\":true,\"job\":{job},\"start_secs\":{start_secs},\"promised_secs\":{promised_secs},\"deadline_secs\":{deadline_secs},\"success_probability\":{},\"satisfied_threshold\":{satisfied_threshold}}}",
                float(*success_probability)
            ),
            Response::Ok { id } => format!("{{\"id\":{id},\"ok\":true}}"),
            Response::Status { id, body } => {
                let counts = [
                    ("now_secs", body.now_secs),
                    ("cluster_size", u64::from(body.cluster_size)),
                    ("occupied_nodes", u64::from(body.occupied_nodes)),
                    ("reservations", body.reservations),
                    ("quoted", body.quoted),
                    ("rejected", body.rejected),
                    ("accepted", body.accepted),
                    ("expired", body.expired),
                    ("cancelled", body.cancelled),
                    ("started", body.started),
                    ("completed", body.completed),
                    ("parity_checked", body.parity_checked),
                    ("parity_violations", body.parity_violations),
                    ("queue_depth", body.queue_depth),
                    ("uptime_secs", body.uptime_secs),
                    ("live_jobs", body.live_jobs),
                    ("overloaded", body.overloaded),
                    ("journal_events_written", body.journal_events_written),
                    ("journal_ring_dropped", body.journal_ring_dropped),
                    ("journal_write_errors", body.journal_write_errors),
                    ("parity_sample", body.parity_sample),
                    ("promises_made", body.promises_made),
                    ("promises_kept", body.promises_kept),
                    ("promises_broken", body.promises_broken),
                    ("promises_cancelled", body.promises_cancelled),
                ];
                let mut line = format!("{{\"id\":{id},\"ok\":true");
                for (key, v) in counts {
                    line += &format!(",\"{key}\":");
                    line += &v.to_string();
                }
                line += ",\"worst_residual_milli\":";
                line += &body.worst_residual_milli.to_string();
                line += ",\"shards\":";
                line += &body.shards.to_string();
                let lanes: Vec<String> = body.shard_queue.iter().map(u64::to_string).collect();
                line + ",\"shard_queue\":[" + &lanes.join(",") + "]}"
            }
            Response::Dump { id, trace } => {
                format!("{{\"id\":{id},\"ok\":true,\"trace\":{}}}", reference_quoted(trace))
            }
            Response::History { id, history } => format!(
                "{{\"id\":{id},\"ok\":true,\"history\":{}}}",
                reference_quoted(history)
            ),
            Response::Error { id, code, detail } => format!(
                "{{\"id\":{id},\"ok\":false,\"error\":\"{}\",\"detail\":{}}}",
                code.as_str(),
                reference_quoted(detail)
            ),
        }
    }

    /// Every response variant's encoding against [`reference_line`], over
    /// seeded values: integers at the decimal writer's chunk edges and of
    /// every magnitude, floats at the float writer's edges and of any bit
    /// pattern, strings that need every escape.
    #[test]
    fn responses_encode_as_the_format_reference_does() {
        use pqos_sim_core::rng::DetRng;
        const INTS: [u64; 10] = [
            0,
            9,
            10,
            99,
            100,
            9_999,
            10_000,
            1 << 53,
            u64::MAX - 1,
            u64::MAX,
        ];
        const FLOATS: [f64; 14] = [
            0.0,
            -0.0,
            1.0,
            f64::from_bits(1.0f64.to_bits() + 1),
            f64::from_bits(1.0f64.to_bits() - 1),
            0.93,
            1e-5,
            9_007_199_254_740_991.0,
            9_007_199_254_740_992.0,
            1e15,
            1e16,
            5e-324,
            f64::NAN,
            f64::INFINITY,
        ];
        const TEXTS: [&str; 5] = [
            "",
            "quote expired; negotiate again",
            "tab\there \"quoted\" \\ \u{1}\r\n",
            "{\"traceEvents\":[{\"name\":\"é\\n\"}]}\n",
            "\u{1f}\u{7f}✓",
        ];
        let mut rng = DetRng::seed_from(0x7265_7370);
        let int = |rng: &mut DetRng| {
            if rng.chance(0.5) {
                INTS[rng.uniform_u64(0, INTS.len() as u64 - 1) as usize]
            } else {
                rng.next_u64() >> rng.uniform_u64(0, 63)
            }
        };
        let text = |rng: &mut DetRng| TEXTS[rng.uniform_u64(0, TEXTS.len() as u64 - 1) as usize];
        let mut appended = String::new();
        let mut want_all = String::new();
        for round in 0..2_000 {
            let id = int(&mut rng);
            let response = match round % 6 {
                0 => Response::Quote {
                    id,
                    job: int(&mut rng),
                    start_secs: int(&mut rng),
                    promised_secs: int(&mut rng),
                    deadline_secs: int(&mut rng),
                    success_probability: if rng.chance(0.5) {
                        FLOATS[rng.uniform_u64(0, FLOATS.len() as u64 - 1) as usize]
                    } else {
                        f64::from_bits(rng.next_u64())
                    },
                    satisfied_threshold: rng.chance(0.5),
                },
                1 => Response::Ok { id },
                2 => Response::Status {
                    id,
                    body: StatusBody {
                        now_secs: int(&mut rng),
                        cluster_size: int(&mut rng) as u32,
                        occupied_nodes: int(&mut rng) as u32,
                        reservations: int(&mut rng),
                        quoted: int(&mut rng),
                        rejected: int(&mut rng),
                        accepted: int(&mut rng),
                        expired: int(&mut rng),
                        cancelled: int(&mut rng),
                        started: int(&mut rng),
                        completed: int(&mut rng),
                        parity_checked: int(&mut rng),
                        parity_violations: int(&mut rng),
                        parity_sample: int(&mut rng),
                        promises_made: int(&mut rng),
                        promises_kept: int(&mut rng),
                        promises_broken: int(&mut rng),
                        promises_cancelled: int(&mut rng),
                        worst_residual_milli: int(&mut rng) as i64,
                        queue_depth: int(&mut rng),
                        uptime_secs: int(&mut rng),
                        live_jobs: int(&mut rng),
                        overloaded: int(&mut rng),
                        journal_events_written: int(&mut rng),
                        journal_ring_dropped: int(&mut rng),
                        journal_write_errors: int(&mut rng),
                        shards: int(&mut rng),
                        shard_queue: (0..rng.uniform_u64(0, 6)).map(|_| int(&mut rng)).collect(),
                    },
                },
                3 => Response::Dump {
                    id,
                    trace: text(&mut rng).into(),
                },
                4 => Response::History {
                    id,
                    history: text(&mut rng).into(),
                },
                _ => Response::Error {
                    id,
                    code: ErrorCode::ALL
                        [rng.uniform_u64(0, ErrorCode::ALL.len() as u64 - 1) as usize],
                    detail: text(&mut rng).into(),
                },
            };
            let want = reference_line(&response);
            assert_eq!(response.encode(), want, "round {round}: {response:?}");
            response.encode_into(&mut appended);
            want_all += &want;
        }
        assert_eq!(appended, want_all, "appending leaves earlier lines alone");
    }

    /// One of every request and response shape (two where a field can be
    /// empty or needs escaping).
    fn golden_shapes() -> (Vec<Request>, Vec<Response>) {
        let requests = vec![
            Request::Negotiate {
                id: 1,
                size: 4,
                runtime_secs: 3600,
            },
            Request::Accept { id: 2, job: 17 },
            Request::Cancel { id: 3, job: 17 },
            Request::Status { id: 4 },
            Request::Dump { id: 5 },
            Request::History { id: 6 },
            Request::Shutdown {
                id: 18_446_744_073_709_551_615,
            },
        ];
        let responses = vec![
            Response::Quote {
                id: 1,
                job: 9,
                start_secs: 0,
                promised_secs: 4000,
                deadline_secs: 4800,
                success_probability: 0.93,
                satisfied_threshold: true,
            },
            Response::Ok { id: 2 },
            Response::Status {
                id: 3,
                body: StatusBody {
                    now_secs: 120,
                    cluster_size: 64,
                    occupied_nodes: 12,
                    reservations: 3,
                    quoted: 40,
                    rejected: 1,
                    accepted: 30,
                    expired: 2,
                    cancelled: 4,
                    started: 20,
                    completed: 15,
                    parity_checked: 40,
                    parity_violations: 0,
                    parity_sample: 16,
                    promises_made: 30,
                    promises_kept: 14,
                    promises_broken: 1,
                    promises_cancelled: 4,
                    worst_residual_milli: -125,
                    queue_depth: 7,
                    uptime_secs: 33,
                    live_jobs: 11,
                    overloaded: 2,
                    journal_events_written: 90,
                    journal_ring_dropped: 1,
                    journal_write_errors: 0,
                    shards: 4,
                    shard_queue: vec![12, 9, 11, 8, 2],
                },
            },
            Response::Status {
                id: 8,
                body: StatusBody::default(),
            },
            Response::Dump {
                id: 9,
                trace: "{\"traceEvents\":[{\"name\":\"é\\n\"}]}\n".into(),
            },
            Response::History {
                id: 10,
                history: "{\"history\":true,\"window_ms\":1000,\"families\":[]}".into(),
            },
            Response::Error {
                id: 4,
                code: ErrorCode::QuoteExpired,
                detail: "quote expired; negotiate again".into(),
            },
            Response::Error {
                id: 0,
                code: ErrorCode::BadRequest,
                detail: "tab\there \"quoted\" \\ \u{1}".into(),
            },
        ];
        (requests, responses)
    }

    /// The wire's bytes, written out: the encoder these lines came from is
    /// gone, so the literals are the oracle. Response parity in replay and
    /// every recorded trace depend on each of them.
    #[test]
    fn every_shape_encodes_to_its_golden_line() {
        let (requests, responses) = golden_shapes();
        let golden_requests = [
            r#"{"id":1,"verb":"negotiate","size":4,"runtime_secs":3600}"#,
            r#"{"id":2,"verb":"accept","job":17}"#,
            r#"{"id":3,"verb":"cancel","job":17}"#,
            r#"{"id":4,"verb":"status"}"#,
            r#"{"id":5,"verb":"dump"}"#,
            r#"{"id":6,"verb":"history"}"#,
            r#"{"id":18446744073709551615,"verb":"shutdown"}"#,
        ];
        let golden_responses = [
            r#"{"id":1,"ok":true,"job":9,"start_secs":0,"promised_secs":4000,"deadline_secs":4800,"success_probability":0.93,"satisfied_threshold":true}"#,
            r#"{"id":2,"ok":true}"#,
            r#"{"id":3,"ok":true,"now_secs":120,"cluster_size":64,"occupied_nodes":12,"reservations":3,"quoted":40,"rejected":1,"accepted":30,"expired":2,"cancelled":4,"started":20,"completed":15,"parity_checked":40,"parity_violations":0,"queue_depth":7,"uptime_secs":33,"live_jobs":11,"overloaded":2,"journal_events_written":90,"journal_ring_dropped":1,"journal_write_errors":0,"parity_sample":16,"promises_made":30,"promises_kept":14,"promises_broken":1,"promises_cancelled":4,"worst_residual_milli":-125,"shards":4,"shard_queue":[12,9,11,8,2]}"#,
            r#"{"id":8,"ok":true,"now_secs":0,"cluster_size":0,"occupied_nodes":0,"reservations":0,"quoted":0,"rejected":0,"accepted":0,"expired":0,"cancelled":0,"started":0,"completed":0,"parity_checked":0,"parity_violations":0,"queue_depth":0,"uptime_secs":0,"live_jobs":0,"overloaded":0,"journal_events_written":0,"journal_ring_dropped":0,"journal_write_errors":0,"parity_sample":0,"promises_made":0,"promises_kept":0,"promises_broken":0,"promises_cancelled":0,"worst_residual_milli":0,"shards":0,"shard_queue":[]}"#,
            r#"{"id":9,"ok":true,"trace":"{\"traceEvents\":[{\"name\":\"é\\n\"}]}\n"}"#,
            r#"{"id":10,"ok":true,"history":"{\"history\":true,\"window_ms\":1000,\"families\":[]}"}"#,
            r#"{"id":4,"ok":false,"error":"quote_expired","detail":"quote expired; negotiate again"}"#,
            r#"{"id":0,"ok":false,"error":"bad_request","detail":"tab\there \"quoted\" \\ \u0001"}"#,
        ];
        assert_eq!(requests.len(), golden_requests.len());
        assert_eq!(responses.len(), golden_responses.len());
        let mut appended = String::from("kept>");
        for (request, want) in requests.iter().zip(golden_requests) {
            assert_eq!(request.encode(), want);
            assert_eq!(Request::parse(want), Ok(*request));
            request.encode_into(&mut appended);
        }
        for (response, want) in responses.iter().zip(golden_responses) {
            assert_eq!(response.encode(), want);
            assert_eq!(Response::parse(want).as_ref(), Some(response));
            response.encode_into(&mut appended);
        }
        let all = golden_requests.concat() + &golden_responses.concat();
        assert_eq!(
            appended,
            format!("kept>{all}"),
            "appending leaves the prefix alone"
        );
    }
}
