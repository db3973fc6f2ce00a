//! Evaluation errors.

use std::fmt;

/// Errors raised while compiling or evaluating a program against a database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// A program constant does not exist in the database universe.
    ///
    /// The paper's semantics interprets programs over the database's universe
    /// `A`; a rule constant outside `A` has no denotation. Use
    /// [`ensure_program_constants`](crate::ensure_program_constants) to intern
    /// them first when that is intended.
    UnknownConstant {
        /// The constant's name as written in the program.
        name: String,
    },
    /// An incremental update named a relation the program does not read as
    /// an extensional predicate — the materialization could never observe
    /// the change, so the update is almost certainly a mistake.
    UnknownRelation {
        /// The relation name as given to the update.
        name: String,
    },
    /// A predicate is used with inconsistent arities (program-internal or
    /// against the database).
    ArityMismatch {
        /// Predicate name.
        predicate: String,
        /// One observed arity.
        expected: usize,
        /// The conflicting arity.
        found: usize,
    },
    /// An engine that requires a positive (negation-free) program was given
    /// a program with negation or inequality.
    NotPositive {
        /// Human-readable description of the offending literal.
        offending: String,
    },
    /// The program is not stratified (recursion through negation).
    NotStratified {
        /// A negative dependency cycle witness, e.g. `T -!-> T`.
        witness: String,
    },
    /// The evaluation was cancelled through its
    /// [`CancelToken`](crate::CancelToken) (cooperative cancellation:
    /// checked at round boundaries and every few thousand emitted tuples).
    Cancelled,
    /// A [`Budget`](crate::Budget) limit was exceeded. The partial result
    /// is discarded; [`Materialized`](crate::Materialized) updates roll
    /// back to the pre-update state before surfacing this.
    BudgetExceeded {
        /// Which budget dimension tripped.
        kind: BudgetKind,
        /// The configured limit (milliseconds for
        /// [`BudgetKind::Deadline`], a count otherwise).
        limit: u64,
    },
    /// The evaluation panicked during a [`Materialized`](crate::Materialized)
    /// update. The panic was contained (`catch_unwind`) and the update
    /// rolled back, so the handle stays usable.
    WorkerPanic {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A registered failpoint fired (`INFLOG_FAILPOINT=<site>[:<n>]`, or a
    /// programmatically armed [`Failpoints`](inflog_core::failpoints::Failpoints)). Only used
    /// by the fault-injection test harness.
    FaultInjected {
        /// The failpoint site that fired.
        site: String,
    },
    /// The durable store failed: a WAL append could not be acknowledged, a
    /// snapshot or log frame is corrupt (the inner error names the file and
    /// byte offset), or recovered state does not fit the program. Raised
    /// only through [`DurableMaterialized`](crate::DurableMaterialized).
    Store {
        /// The underlying store error.
        source: inflog_store::StoreError,
    },
}

impl From<inflog_store::StoreError> for EvalError {
    fn from(source: inflog_store::StoreError) -> Self {
        EvalError::Store { source }
    }
}

/// The budget dimension a [`EvalError::BudgetExceeded`] error names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// The wall-clock deadline ([`Budget::deadline`](crate::Budget)).
    Deadline,
    /// The round cap ([`Budget::max_rounds`](crate::Budget)): semi-naive
    /// rounds and well-founded alternations both count.
    Rounds,
    /// The derived-tuple cap ([`Budget::max_tuples`](crate::Budget)),
    /// counted as tuple emissions in the VM's inner loop.
    Tuples,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetKind::Deadline => write!(f, "deadline (ms)"),
            BudgetKind::Rounds => write!(f, "rounds"),
            BudgetKind::Tuples => write!(f, "derived tuples"),
        }
    }
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownConstant { name } => write!(
                f,
                "program constant `{name}` is not in the database universe \
                 (intern it first with ensure_program_constants)"
            ),
            EvalError::UnknownRelation { name } => write!(
                f,
                "relation `{name}` is not an extensional predicate of the program"
            ),
            EvalError::ArityMismatch {
                predicate,
                expected,
                found,
            } => write!(
                f,
                "predicate `{predicate}` used with arity {found}, expected {expected}"
            ),
            EvalError::NotPositive { offending } => write!(
                f,
                "engine requires a positive DATALOG program, found {offending}"
            ),
            EvalError::NotStratified { witness } => {
                write!(f, "program is not stratified: {witness}")
            }
            EvalError::Cancelled => write!(f, "evaluation cancelled"),
            EvalError::BudgetExceeded { kind, limit } => {
                write!(f, "evaluation budget exceeded: {kind} limit {limit}")
            }
            EvalError::WorkerPanic { message } => {
                write!(f, "evaluation panicked: {message}")
            }
            EvalError::FaultInjected { site } => {
                write!(f, "failpoint `{site}` fired (fault injection)")
            }
            EvalError::Store { source } => {
                write!(f, "durable store error: {source}")
            }
        }
    }
}

impl std::error::Error for EvalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EvalError::Store { source } => Some(source),
            _ => None,
        }
    }
}

/// Extracts a human-readable message from a caught panic payload (the
/// common `&str` / `String` cases; anything else gets a placeholder).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays() {
        assert!(EvalError::UnknownConstant { name: "a".into() }
            .to_string()
            .contains("`a`"));
        assert!(EvalError::UnknownRelation { name: "R".into() }
            .to_string()
            .contains("`R`"));
        assert!(EvalError::NotStratified {
            witness: "T -!-> T".into()
        }
        .to_string()
        .contains("not stratified"));
        assert!(EvalError::NotPositive {
            offending: "!T(y)".into()
        }
        .to_string()
        .contains("!T(y)"));
        assert!(EvalError::ArityMismatch {
            predicate: "E".into(),
            expected: 2,
            found: 3
        }
        .to_string()
        .contains("arity 3"));
        assert!(EvalError::Cancelled.to_string().contains("cancelled"));
        assert!(EvalError::BudgetExceeded {
            kind: BudgetKind::Rounds,
            limit: 7
        }
        .to_string()
        .contains("rounds limit 7"));
        assert!(EvalError::WorkerPanic {
            message: "boom".into()
        }
        .to_string()
        .contains("boom"));
        assert!(EvalError::FaultInjected {
            site: "round".into()
        }
        .to_string()
        .contains("`round`"));
    }
}
