//! Evaluation options: the knobs every engine accepts.
//!
//! The **executor selection** between the flat register-machine VM (the
//! default) and the recursive tree walker kept as its oracle, plus
//! governance: resource limits, cancellation and failpoints. The options
//! travel from the engine entry points (`*_with` variants) through the
//! shared [`DeltaDriver`](crate::DeltaDriver) into the operator executor;
//! engines called without explicit options use [`EvalOptions::default`],
//! which reads the `INFLOG_EXEC` / `INFLOG_FAILPOINT` environment variables
//! so a whole test run can be switched onto the oracle executor (or have a
//! failpoint armed) without touching call sites.

use crate::govern::{Budget, CancelToken};
use inflog_core::failpoints::Failpoints;
use std::sync::OnceLock;

/// Which Θ-application executor runs the rule plans.
///
/// Both executors are bit-identical — same tuples, same insertion order,
/// same rounds and alternations; debug builds assert this per application.
/// The tree walker survives purely as the VM's correctness oracle (and for
/// `INFLOG_EXEC=tree` CI runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecKind {
    /// The flat register-machine VM over lowered [`RuleProgram`]s — the
    /// default, and the fast path (see [`exec`](crate::exec)).
    ///
    /// [`RuleProgram`]: crate::exec::RuleProgram
    #[default]
    Vm,
    /// The recursive tree walker over [`Plan`] steps (the oracle).
    ///
    /// [`Plan`]: crate::plan::Plan
    Tree,
}

/// Options accepted by every evaluation engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvalOptions {
    /// Which executor runs the plans. `None` (the usual value, including
    /// for [`EvalOptions::sequential`]) defers to the `INFLOG_EXEC`
    /// environment variable — resolved once per process — so a whole run
    /// can be switched to the tree oracle without touching call sites;
    /// `Some` pins the choice for this evaluation (tests use this).
    pub exec: Option<ExecKind>,
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
    /// `INFLOG_EXEC` picks the executor and `INFLOG_FAILPOINT` arms a
    /// failpoint at a site of any layer (this is the only reader of that
    /// variable). Malformed values are **loudly ignored** (warning on
    /// stderr).
    fn default() -> Self {
        EvalOptions::from_env_with(|key| std::env::var(key).ok())
    }
}

impl EvalOptions {
    /// Options with nothing armed: no budget, no cancellation token, no
    /// failpoints. Ignores `INFLOG_FAILPOINT`; the executor choice still
    /// follows `INFLOG_EXEC` so oracle runs cover these call sites too.
    pub fn sequential() -> Self {
        EvalOptions {
            exec: None,
            budget: Budget::default(),
            cancel: None,
            failpoints: Failpoints::none(),
        }
    }

    /// These options with governance stripped: unlimited budget, no
    /// cancellation token, no failpoints. The debug cross-checks use this
    /// so a recompute-for-verification never trips the caller's limits
    /// (or re-fires a one-shot failpoint).
    pub fn without_governance(&self) -> Self {
        EvalOptions {
            budget: Budget::default(),
            cancel: None,
            failpoints: Failpoints::none(),
            ..self.clone()
        }
    }

    /// [`EvalOptions::default`] with an explicit environment accessor, so
    /// the parsing rules are testable without mutating the process
    /// environment.
    fn from_env_with(get: impl Fn(&str) -> Option<String>) -> Self {
        EvalOptions {
            exec: env_exec(&get),
            failpoints: get("INFLOG_FAILPOINT")
                .map_or_else(Failpoints::none, |raw| Failpoints::from_env_value(&raw)),
            ..EvalOptions::sequential()
        }
    }

    /// The concrete executor choice: an explicit [`EvalOptions::exec`] wins;
    /// otherwise `INFLOG_EXEC` is consulted once per process (cached — the
    /// hot paths resolve this per Θ application) and defaults to the VM.
    pub fn exec_kind(&self) -> ExecKind {
        static ENV_EXEC: OnceLock<ExecKind> = OnceLock::new();
        self.exec.unwrap_or_else(|| {
            *ENV_EXEC
                .get_or_init(|| env_exec(|key: &str| std::env::var(key).ok()).unwrap_or_default())
        })
    }
}

/// Parses `INFLOG_EXEC` (`vm` or `tree`, case-insensitive). Unset and empty
/// mean "use the default"; anything else warns on stderr and falls back.
fn env_exec(get: impl Fn(&str) -> Option<String>) -> Option<ExecKind> {
    let raw = get("INFLOG_EXEC")?;
    match raw.trim() {
        "" => None,
        s if s.eq_ignore_ascii_case("vm") => Some(ExecKind::Vm),
        s if s.eq_ignore_ascii_case("tree") => Some(ExecKind::Tree),
        _ => {
            eprintln!("warning: ignoring INFLOG_EXEC={raw:?}: expected \"vm\" or \"tree\"");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_env_parses_vm_tree_and_warns_otherwise() {
        let env_exec_of = |value: Option<&'static str>| {
            move |key: &str| {
                if key == "INFLOG_EXEC" {
                    value.map(str::to_owned)
                } else {
                    None
                }
            }
        };
        let kind = |v| EvalOptions::from_env_with(env_exec_of(v)).exec;
        assert_eq!(kind(Some("vm")), Some(ExecKind::Vm));
        assert_eq!(kind(Some("tree")), Some(ExecKind::Tree));
        assert_eq!(kind(Some(" TREE\n")), Some(ExecKind::Tree));
        // Unset/empty defer to the default; malformed values fall back
        // loudly (stderr) instead of silently picking an executor.
        assert_eq!(kind(None), None);
        assert_eq!(kind(Some("  ")), None);
        assert_eq!(kind(Some("fast")), None);
        // An explicit choice always wins over the environment.
        let pinned = EvalOptions {
            exec: Some(ExecKind::Tree),
            ..EvalOptions::sequential()
        };
        assert_eq!(pinned.exec_kind(), ExecKind::Tree);
    }
}
