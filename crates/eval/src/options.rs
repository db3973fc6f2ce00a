//! Evaluation options: the knobs every engine accepts.
//!
//! Governance only — resource limits, cancellation and failpoints. The
//! options travel from [`Engine::evaluate`](crate::Engine::evaluate) (or a
//! [`Materialized`](crate::Materialized) handle) to the round loops, which
//! build one [`Governor`](crate::Governor) from them; the paper-named
//! engine functions use [`EvalOptions::default`], which reads the
//! `INFLOG_FAILPOINT` environment variable so a whole test run can have a
//! failpoint armed without touching call sites.

use crate::govern::{Budget, CancelToken};
use inflog_core::failpoints::Failpoints;

/// Options accepted by every evaluation engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalOptions {
    /// Resource limits (wall-clock deadline, round cap, derived-tuple
    /// cap), unlimited by default. Violations surface as typed
    /// [`EvalError::BudgetExceeded`](crate::EvalError) errors.
    pub budget: Budget,
    /// Cooperative cancellation: keep a clone of the token, pass one
    /// here, and flip it from any thread to stop the evaluation with
    /// [`EvalError::Cancelled`](crate::EvalError). `None` (the default)
    /// means not cancellable — and lets the inner loops skip governance
    /// entirely when the budget is unlimited too.
    pub cancel: Option<CancelToken>,
    /// Fault injection for the robustness test harness; unarmed by
    /// default, armed process-wide via `INFLOG_FAILPOINT=<site>[:<n>]`.
    /// The durable handle and the server hand this one arming down to the
    /// store and fire their own sites on it too.
    pub failpoints: Failpoints,
}

impl Default for EvalOptions {
    /// [`EvalOptions::sequential`] plus whatever the environment arms:
    /// `INFLOG_FAILPOINT` arms a failpoint at a site of any layer (this is
    /// the only reader of that variable). Malformed values are **loudly
    /// ignored** (warning on stderr).
    fn default() -> Self {
        EvalOptions {
            failpoints: std::env::var("INFLOG_FAILPOINT").map_or_else(
                |_| Failpoints::none(),
                |raw| Failpoints::from_env_value(&raw),
            ),
            ..EvalOptions::sequential()
        }
    }
}

impl EvalOptions {
    /// Options with nothing armed: no budget, no cancellation token, no
    /// failpoints. Ignores `INFLOG_FAILPOINT`. The debug cross-checks
    /// evaluate under these so a recompute-for-verification never trips
    /// the caller's limits (or re-fires a one-shot failpoint).
    pub fn sequential() -> Self {
        EvalOptions {
            budget: Budget::default(),
            cancel: None,
            failpoints: Failpoints::none(),
        }
    }
}
