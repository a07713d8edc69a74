//! The correctness gate: every run counts what it attempted and what
//! failed, outside the timed window. Any failure makes the run incorrect
//! and the process exit non-zero.

use pqos_service::protocol::{ErrorCode, Request, Response};

/// Attempted and failed operations of one run, with the first few
/// reasons kept for the report.
#[derive(Debug, Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Gate {
    const KEPT_REASONS: usize = 8;

    /// Counts one operation (a request answered, a loop replayed, a
    /// named check) and whether it failed.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.reasons.len() < Self::KEPT_REASONS {
                self.reasons.push(why());
            }
        }
    }

    pub fn absorb(&mut self, other: Gate) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < Self::KEPT_REASONS {
                self.reasons.push(r);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// What a scripted request may be answered with. Everything else —
/// transport errors, `overloaded`, `timeout`, a wrong id echo, an answer
/// of the wrong shape — is a failed operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// `negotiate` on the saturated book: a quote or `rejected`.
    QuoteOrRejected,
    /// `negotiate` that the script guarantees room for.
    Quote,
    /// `accept` / `cancel` of a job the script knows is live.
    Ok,
}

/// Judges one reply against its request. Returns the reason on failure.
pub fn judge(request: &Request, reply: Option<&Response>, expect: Expect) -> Result<(), String> {
    let Some(reply) = reply else {
        return Err(format!("{}: reply does not parse", request.verb()));
    };
    if reply.id() != request.id() {
        return Err(format!(
            "{}: reply id {} does not echo request id {}",
            request.verb(),
            reply.id(),
            request.id()
        ));
    }
    let quote_ok = |r: &Response| match r {
        Response::Quote {
            promised_secs,
            start_secs,
            success_probability,
            ..
        } => promised_secs > start_secs && (0.0..=1.0).contains(success_probability),
        _ => false,
    };
    let ok = match (expect, reply) {
        (Expect::Quote, r) => quote_ok(r),
        (
            Expect::QuoteOrRejected,
            Response::Error {
                code: ErrorCode::Rejected,
                ..
            },
        ) => true,
        (Expect::QuoteOrRejected, r) => quote_ok(r),
        (Expect::Ok, Response::Ok { .. }) => true,
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{}: unexpected answer {}",
            request.verb(),
            reply.encode()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn negotiate(id: u64) -> Request {
        Request::Negotiate {
            id,
            size: 4,
            runtime_secs: 600,
        }
    }

    fn quote(id: u64) -> Response {
        Response::Quote {
            id,
            job: 9,
            start_secs: 3600,
            promised_secs: 4200,
            deadline_secs: 4200,
            success_probability: 0.97,
            satisfied_threshold: true,
        }
    }

    #[test]
    fn honest_replies_pass() {
        assert!(judge(&negotiate(1), Some(&quote(1)), Expect::Quote).is_ok());
        let rejected = Response::Error {
            id: 2,
            code: ErrorCode::Rejected,
            detail: String::new(),
        };
        assert!(judge(&negotiate(2), Some(&rejected), Expect::QuoteOrRejected).is_ok());
        let accept = Request::Accept { id: 3, job: 9 };
        assert!(judge(&accept, Some(&Response::Ok { id: 3 }), Expect::Ok).is_ok());
    }

    #[test]
    fn tampered_replies_fail_the_gate() {
        let mut gate = Gate::default();
        // Wrong id echo.
        let r = judge(&negotiate(1), Some(&quote(2)), Expect::Quote);
        gate.check(r.is_ok(), || r.clone().unwrap_err());
        // A promise that ends before it starts.
        let mut bad = quote(1);
        if let Response::Quote { promised_secs, .. } = &mut bad {
            *promised_secs = 10;
        }
        let r = judge(&negotiate(1), Some(&bad), Expect::Quote);
        gate.check(r.is_ok(), || r.clone().unwrap_err());
        // Load shedding counts as failure, as does an unparseable line.
        let shed = Response::Error {
            id: 1,
            code: ErrorCode::Overloaded,
            detail: String::new(),
        };
        assert!(judge(&negotiate(1), Some(&shed), Expect::QuoteOrRejected).is_err());
        assert!(judge(&negotiate(1), None, Expect::Quote).is_err());
        // A rejection where the script guarantees room.
        let rejected = Response::Error {
            id: 1,
            code: ErrorCode::Rejected,
            detail: String::new(),
        };
        assert!(judge(&negotiate(1), Some(&rejected), Expect::Quote).is_err());
        assert_eq!(gate.failed, 2);
        assert!(!gate.correct());
        assert_eq!(gate.reasons.len(), 2);
    }

    #[test]
    fn an_empty_gate_is_not_correct() {
        assert!(!Gate::default().correct());
    }
}
