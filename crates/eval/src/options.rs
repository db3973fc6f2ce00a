//! Evaluation options: the knobs every engine accepts.
//!
//! Two kinds of knob today: the **parallel round executor's** — how many
//! worker threads a Θ application may use, and how large a round has to be
//! before forking is worth the spawn/merge overhead — and the **executor
//! selection** between the flat register-machine VM (the default) and the
//! recursive tree walker kept as its oracle. The options travel from the
//! engine entry points (`*_with` variants) through the shared
//! [`DeltaDriver`](crate::DeltaDriver) into the operator executor; engines
//! called without explicit options use [`EvalOptions::default`], which reads
//! the `INFLOG_THREADS` / `INFLOG_PARALLEL_THRESHOLD` / `INFLOG_EXEC`
//! environment variables so a whole test or bench run can be forced onto the
//! parallel driver (or the oracle executor) without touching call sites.

use crate::govern::{Budget, CancelToken, Failpoints};
use std::sync::OnceLock;

/// Work-size floor (outer-loop candidates summed over the round's plans)
/// below which a round always runs sequentially in auto mode: spawning and
/// merging worker threads costs tens of microseconds, which tiny rounds
/// cannot amortize.
pub const DEFAULT_PARALLEL_THRESHOLD: usize = 512;

/// Which Θ-application executor runs the rule plans.
///
/// Both executors are bit-identical — same tuples, same insertion order,
/// same rounds and alternations, at every thread count; debug builds assert
/// this per application. The tree walker survives purely as the VM's
/// correctness oracle (and for `INFLOG_EXEC=tree` CI runs).
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
    /// Worker threads a Θ application may use. `1` evaluates sequentially
    /// (the default); `0` is **auto** — use all available hardware
    /// parallelism. Values above `1` request exactly that many workers.
    ///
    /// Whatever the count, results are **bit-identical** to sequential
    /// evaluation: same tuples, same insertion order, same round and
    /// alternation counts (see the threading-model notes in the README).
    pub threads: usize,
    /// Minimum per-round work estimate (outer-loop candidates summed over
    /// the plans of the application — for delta rounds, the size of the
    /// round's delta) before the round actually forks. Below it the round
    /// runs sequentially even when `threads > 1`. `0` forces the parallel
    /// path — with the task grain floor dropped to one candidate — for
    /// every round that has any work at all (useful for tests).
    pub parallel_threshold: usize,
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
    pub failpoints: Failpoints,
}

impl Default for EvalOptions {
    /// Sequential unless overridden by the environment: `INFLOG_THREADS`
    /// sets the thread count (`0` = auto, resolved through
    /// [`EvalOptions::effective_threads`]) and `INFLOG_PARALLEL_THRESHOLD`
    /// the fork floor. CI uses these to run the whole suite with the
    /// parallel driver forced on. A value that does not parse as an integer
    /// is **loudly ignored** (warning on stderr) rather than silently
    /// falling back to sequential.
    fn default() -> Self {
        EvalOptions::from_env_with(|key| std::env::var(key).ok())
    }
}

impl EvalOptions {
    /// Explicitly sequential options (ignores the environment for the
    /// parallel knobs; the executor choice still follows `INFLOG_EXEC` so
    /// oracle runs cover the sequential entry points too).
    pub fn sequential() -> Self {
        EvalOptions {
            threads: 1,
            parallel_threshold: DEFAULT_PARALLEL_THRESHOLD,
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

    /// Options with a fixed worker-thread count (`0` = auto) and the
    /// default fork threshold.
    pub fn with_threads(threads: usize) -> Self {
        EvalOptions {
            threads,
            ..EvalOptions::sequential()
        }
    }

    /// The concrete worker count: resolves `threads == 0` (auto) to the
    /// hardware parallelism, and anything else to itself.
    pub fn effective_threads(&self) -> usize {
        match self.threads {
            0 => std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            n => n,
        }
    }

    /// [`EvalOptions::default`] with an explicit environment accessor, so
    /// the parsing rules are testable without mutating the process
    /// environment. `INFLOG_THREADS=0` means auto (all hardware threads),
    /// exactly as `EvalOptions::with_threads(0)` does.
    fn from_env_with(get: impl Fn(&str) -> Option<String>) -> Self {
        EvalOptions {
            threads: env_usize("INFLOG_THREADS", &get).unwrap_or(1),
            parallel_threshold: env_usize("INFLOG_PARALLEL_THRESHOLD", &get)
                .unwrap_or(DEFAULT_PARALLEL_THRESHOLD),
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
/// mean "use the default"; anything else warns on stderr — the same loud
/// fallback as the numeric knobs.
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

/// Reads one `usize` knob from the environment. Unset and empty (or
/// whitespace-only) values mean "use the default"; a set-but-malformed value
/// — `INFLOG_THREADS=four` — is a configuration mistake that used to run
/// sequentially with no signal, so it now warns on stderr before falling
/// back.
fn env_usize(key: &str, get: impl Fn(&str) -> Option<String>) -> Option<usize> {
    let raw = get(key)?;
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    match trimmed.parse() {
        Ok(n) => Some(n),
        Err(_) => {
            eprintln!("warning: ignoring {key}={raw:?}: not a non-negative integer");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_is_one_thread() {
        let o = EvalOptions::sequential();
        assert_eq!(o.threads, 1);
        assert_eq!(o.effective_threads(), 1);
    }

    #[test]
    fn auto_resolves_to_hardware_parallelism() {
        let o = EvalOptions::with_threads(0);
        assert!(o.effective_threads() >= 1);
        let o = EvalOptions::with_threads(3);
        assert_eq!(o.effective_threads(), 3);
    }

    /// Simulated environments, keyed off `INFLOG_THREADS` only.
    fn env_of(value: Option<&str>) -> impl Fn(&str) -> Option<String> + '_ {
        move |key| {
            if key == "INFLOG_THREADS" {
                value.map(str::to_owned)
            } else {
                None
            }
        }
    }

    #[test]
    fn default_reads_well_formed_env() {
        let o = EvalOptions::from_env_with(env_of(Some("4")));
        assert_eq!(o.threads, 4);
        assert_eq!(o.parallel_threshold, DEFAULT_PARALLEL_THRESHOLD);
        // Surrounding whitespace is tolerated.
        assert_eq!(EvalOptions::from_env_with(env_of(Some(" 2\n"))).threads, 2);
    }

    #[test]
    fn threads_zero_in_env_means_auto() {
        // `INFLOG_THREADS=0` must flow into the auto resolution path, not
        // be clamped or treated as unset.
        let o = EvalOptions::from_env_with(env_of(Some("0")));
        assert_eq!(o.threads, 0);
        assert!(o.effective_threads() >= 1);
    }

    #[test]
    fn malformed_env_values_fall_back_loudly() {
        // `INFLOG_THREADS=four` used to silently run sequentially; the
        // parse failure now warns (stderr) and falls back to the default.
        for bad in ["four", "-1", "1.5", "0x2", "2 threads"] {
            let o = EvalOptions::from_env_with(env_of(Some(bad)));
            assert_eq!(o.threads, 1, "INFLOG_THREADS={bad:?}");
        }
    }

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

    #[test]
    fn empty_and_unset_env_values_mean_default() {
        for empty in [None, Some(""), Some("   "), Some("\t\n")] {
            let o = EvalOptions::from_env_with(env_of(empty));
            assert_eq!(o.threads, 1, "INFLOG_THREADS={empty:?}");
            assert_eq!(o.parallel_threshold, DEFAULT_PARALLEL_THRESHOLD);
        }
    }
}
