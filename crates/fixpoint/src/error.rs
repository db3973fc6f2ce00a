//! Fixpoint-analysis errors.

use inflog_eval::EvalError;
use std::fmt;

/// Errors raised by fixpoint analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FixpointError {
    /// An underlying compilation/evaluation error.
    Eval(EvalError),
    /// A brute-force search space exceeded the caller's cap.
    SearchSpaceTooLarge {
        /// Number of potential IDB tuples (search space is `2^tuples`).
        tuples: usize,
        /// The cap that was exceeded.
        cap: usize,
    },
}

impl fmt::Display for FixpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FixpointError::Eval(e) => write!(f, "{e}"),
            FixpointError::SearchSpaceTooLarge { tuples, cap } => write!(
                f,
                "brute-force search space 2^{tuples} exceeds cap 2^{cap} \
                 (use the SAT-based analyzer instead)"
            ),
        }
    }
}

impl std::error::Error for FixpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FixpointError::Eval(e) => Some(e),
            FixpointError::SearchSpaceTooLarge { .. } => None,
        }
    }
}

impl From<EvalError> for FixpointError {
    fn from(e: EvalError) -> Self {
        FixpointError::Eval(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = FixpointError::SearchSpaceTooLarge {
            tuples: 40,
            cap: 24,
        };
        assert!(e.to_string().contains("2^40"));
        let wrapped: FixpointError = EvalError::BudgetExceeded {
            kind: inflog_eval::BudgetKind::Rounds,
            limit: 3,
        }
        .into();
        assert!(wrapped.to_string().contains("3"));
        use std::error::Error;
        assert!(wrapped.source().is_some());
    }
}
