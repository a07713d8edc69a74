//! Simulated user risk strategies (§4.2).
//!
//! "User behavior is defined by a parameter `U`, which relates to the
//! amount of risk the user is willing to accept. For a given job `j`, with
//! promised probability of success `pj`, a simulated user will accept the
//! earliest deadline such that `pj ≥ U`" (Eq. 3).
//!
//! Note on a paper ambiguity: §4.2 elsewhere claims the results are
//! insensitive to `U` "when `a < U`" by comparing the *failure* probability
//! to `U`. That statement is inconsistent with Eq. 3 (which compares a
//! *success* probability). We implement Eq. 3 as written; since the oracle
//! never quotes `pf > a`, every promise satisfies `pj ≥ 1 − a`, and the
//! metrics are therefore insensitive to `U` exactly when `U ≤ 1 − a`. For
//! the paper's Figure 7 (`a = 0.5`) the knee lands at `U = 0.5` under
//! either reading. See DESIGN.md.

use std::fmt;

/// Error constructing a [`UserStrategy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdError(pub f64);

impl fmt::Display for ThresholdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "risk threshold {} outside [0, 1]", self.0)
    }
}

impl std::error::Error for ThresholdError {}

/// How a simulated user trades deadline for probability of success.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum UserStrategy {
    /// Accept the earliest quoted deadline unconditionally (`U = 0`).
    #[default]
    AlwaysEarliest,
    /// Accept the earliest deadline whose promised success probability is
    /// at least the threshold `U` (the paper's Eq. 3).
    RiskThreshold(f64),
}

impl UserStrategy {
    /// Creates a risk-threshold strategy.
    ///
    /// # Errors
    ///
    /// Returns [`ThresholdError`] if `u` is outside `[0, 1]` or NaN.
    ///
    /// # Examples
    ///
    /// ```
    /// use pqos_core::user::UserStrategy;
    ///
    /// let cautious = UserStrategy::risk_threshold(0.9)?;
    /// assert_eq!(cautious, UserStrategy::RiskThreshold(0.9));
    /// assert!(UserStrategy::risk_threshold(1.5).is_err());
    /// # Ok::<(), pqos_core::user::ThresholdError>(())
    /// ```
    pub fn risk_threshold(u: f64) -> Result<Self, ThresholdError> {
        if !(0.0..=1.0).contains(&u) {
            return Err(ThresholdError(u));
        }
        Ok(UserStrategy::RiskThreshold(u))
    }

    /// The threshold `U` this strategy enforces (0 for
    /// [`UserStrategy::AlwaysEarliest`]).
    pub(crate) fn threshold(&self) -> f64 {
        match self {
            UserStrategy::AlwaysEarliest => 0.0,
            UserStrategy::RiskThreshold(u) => *u,
        }
    }

    /// Whether the user accepts a quote promising success probability
    /// `promised_success`.
    pub(crate) fn accepts(&self, promised_success: f64) -> bool {
        promised_success >= self.threshold()
    }
}

impl fmt::Display for UserStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UserStrategy::AlwaysEarliest => write!(f, "U=earliest"),
            UserStrategy::RiskThreshold(u) => write!(f, "U={u:.2}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn earliest_accepts_anything() {
        assert!(UserStrategy::AlwaysEarliest.accepts(0.0));
        assert!(UserStrategy::AlwaysEarliest.accepts(1.0));
        assert_eq!(UserStrategy::AlwaysEarliest.threshold(), 0.0);
    }

    #[test]
    fn threshold_is_inclusive() {
        let u = UserStrategy::risk_threshold(0.5).unwrap();
        assert!(u.accepts(0.5));
        assert!(u.accepts(0.51));
        assert!(!u.accepts(0.4999));
        assert_eq!(u.threshold(), 0.5);
    }

    #[test]
    fn rejects_out_of_range() {
        assert_eq!(
            UserStrategy::risk_threshold(-0.1),
            Err(ThresholdError(-0.1))
        );
        assert_eq!(
            UserStrategy::risk_threshold(1.01),
            Err(ThresholdError(1.01))
        );
        assert!(UserStrategy::risk_threshold(f64::NAN).is_err());
        assert!(!ThresholdError(2.0).to_string().is_empty());
    }

    #[test]
    fn boundary_thresholds() {
        let zero = UserStrategy::risk_threshold(0.0).unwrap();
        assert!(zero.accepts(0.0));
        let one = UserStrategy::risk_threshold(1.0).unwrap();
        assert!(one.accepts(1.0));
        assert!(!one.accepts(0.999_999));
    }

    #[test]
    fn display_and_default() {
        assert_eq!(UserStrategy::default(), UserStrategy::AlwaysEarliest);
        assert_eq!(UserStrategy::AlwaysEarliest.to_string(), "U=earliest");
        assert_eq!(
            UserStrategy::risk_threshold(0.9).unwrap().to_string(),
            "U=0.90"
        );
    }
}
