//! Resource governance: evaluation budgets, cooperative cancellation, and
//! the evaluation layer's failpoint sites.
//!
//! The paper's own landscape motivates this machinery: inflationary and
//! well-founded fixpoints on adversarial programs have genuinely large
//! round/alternation behavior, so a long-lived serving process must be able
//! to **stop cleanly** — not just finish fast. Three cooperating pieces:
//!
//! * [`Budget`] — declarative limits (wall-clock deadline, round cap,
//!   derived-tuple cap) carried on [`EvalOptions`];
//! * [`CancelToken`] — a shared, cloneable flag another thread can flip to
//!   stop an in-flight evaluation;
//! * [`EvalOptions::failpoints`] — the stack's one failpoint arming
//!   ([`inflog_core::failpoints`]); the governor fires the evaluation sites
//!   as typed failures, used by the fault-injection harness to prove every
//!   mid-flight failure leaves [`Materialized`](crate::Materialized)
//!   handles transactionally intact.
//!
//! At evaluation entry every engine resolves its options into a
//! [`Governor`] — the per-call runtime that owns the resolved deadline,
//! the shared counters, and the one-shot trip state. The governor is
//! checked at **round boundaries** ([`Governor::check_round`], which also
//! hosts the `round` failpoint) and **every few thousand emitted tuples**
//! in the VM's inner loop (`Governor::note_emit`); a trip is
//! recorded once, the VM drains out early, and the evaluation
//! surfaces the stored [`EvalError`]. When no limit, token, or failpoint
//! is configured the governor reports itself inert
//! ([`Governor::as_active`] returns `None`) and the inner loops carry
//! **zero** governance overhead. (A failpoint armed at a store or serve
//! site also counts as configured; that only happens under test.)

use crate::error::{BudgetKind, EvalError};
use crate::options::EvalOptions;
use crate::Result;
use inflog_core::failpoints::{Failpoints, SITE_PANIC, SITE_ROUND};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Declarative evaluation limits. All dimensions default to unlimited;
/// every engine enforces whichever are set, surfacing
/// [`EvalError::BudgetExceeded`] with the tripped [`BudgetKind`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock deadline, measured from evaluation entry. Checked at
    /// round boundaries and polled every few thousand emitted tuples.
    pub deadline: Option<Duration>,
    /// Maximum number of rounds: semi-naive delta rounds, naive
    /// iterations, and well-founded alternations all count against it.
    pub max_rounds: Option<usize>,
    /// Maximum number of derived tuples, counted as head-tuple emissions
    /// in the executor inner loops (an emission that deduplicates away
    /// still counts — the bound is on work performed, not on distinct
    /// results).
    pub max_tuples: Option<u64>,
}

impl Budget {
    /// Whether no dimension is limited (the default).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_rounds.is_none() && self.max_tuples.is_none()
    }

    /// A budget with only a wall-clock deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        Budget {
            deadline: Some(deadline),
            ..Budget::default()
        }
    }

    /// A budget with only a round cap.
    pub fn with_max_rounds(max_rounds: usize) -> Self {
        Budget {
            max_rounds: Some(max_rounds),
            ..Budget::default()
        }
    }

    /// A budget with only a derived-tuple cap.
    pub fn with_max_tuples(max_tuples: u64) -> Self {
        Budget {
            max_tuples: Some(max_tuples),
            ..Budget::default()
        }
    }
}

/// A shared, cloneable cancellation flag. Clone it, hand one copy to the
/// evaluation (via [`EvalOptions::cancel`]), keep the other; calling
/// [`CancelToken::cancel`] from any thread makes the in-flight evaluation
/// stop at its next governance check and return [`EvalError::Cancelled`].
///
/// Cancellation is **cooperative and sticky**: once cancelled, every
/// evaluation started with this token fails immediately.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Flips the flag; safe to call from any thread, idempotent.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Tokens compare by identity: two tokens are equal iff they share the
/// same flag (clones of one another).
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
    }
}

impl Eq for CancelToken {}

/// How many emissions pass between deadline/cancellation polls in the
/// executor inner loops (power of two; the counter is masked). Small
/// enough that a cancelled or expired evaluation stops within
/// microseconds, large enough that the poll — an `Instant::now` call —
/// never shows up in profiles.
const POLL_MASK: u64 = (1 << 12) - 1;

/// The per-call governance runtime: resolved limits plus shared trip
/// state. Engines build one at entry ([`Governor::new`]) and thread a
/// reference through the [`DeltaDriver`](crate::DeltaDriver) into the VM.
///
/// The trip is **one-shot**: the first limit violation (or cancellation,
/// or fired failpoint) stores its typed error and flips an atomic flag;
/// everything downstream observes the flag cheaply and drains out.
#[derive(Debug)]
pub struct Governor {
    deadline: Option<Instant>,
    deadline_ms: u64,
    max_rounds: Option<usize>,
    max_tuples: Option<u64>,
    cancel: Option<CancelToken>,
    failpoints: Failpoints,
    rounds: AtomicUsize,
    emitted: AtomicU64,
    tripped: AtomicBool,
    error: Mutex<Option<EvalError>>,
}

impl Governor {
    /// Resolves options into a governor: the deadline (if any) starts
    /// counting now.
    pub fn new(opts: &EvalOptions) -> Self {
        Governor {
            deadline: opts.budget.deadline.map(|d| Instant::now() + d),
            deadline_ms: opts
                .budget
                .deadline
                .map_or(0, |d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX)),
            max_rounds: opts.budget.max_rounds,
            max_tuples: opts.budget.max_tuples,
            cancel: opts.cancel.clone(),
            failpoints: opts.failpoints.clone(),
            rounds: AtomicUsize::new(0),
            emitted: AtomicU64::new(0),
            tripped: AtomicBool::new(false),
            error: Mutex::new(None),
        }
    }

    /// A fully inert governor: no limits, no cancellation, no failpoints.
    /// The ungoverned entry points use this.
    pub fn free() -> Self {
        Governor::new(&EvalOptions::sequential())
    }

    /// `Some(self)` when any check could ever trip — the VM only
    /// carries a governor reference in that case, so inert evaluations pay
    /// nothing in the inner loops. Round caps alone still count as
    /// active: the round counter lives here.
    pub fn as_active(&self) -> Option<&Governor> {
        let active = self.deadline.is_some()
            || self.max_rounds.is_some()
            || self.max_tuples.is_some()
            || self.cancel.is_some()
            || self.failpoints.is_armed();
        active.then_some(self)
    }

    /// Whether a limit has already tripped (relaxed; safe to poll from
    /// any thread).
    #[inline]
    pub fn tripped(&self) -> bool {
        self.tripped.load(Ordering::Relaxed)
    }

    /// Records the first error; later trips keep the original.
    fn trip(&self, e: EvalError) {
        let mut slot = self.error.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(e);
        }
        drop(slot);
        self.tripped.store(true, Ordering::Release);
    }

    /// The stored trip error, as a `Result`: `Ok(())` while untripped.
    pub fn check(&self) -> Result<()> {
        if !self.tripped() {
            return Ok(());
        }
        let slot = self.error.lock().unwrap_or_else(PoisonError::into_inner);
        Err(slot.clone().unwrap_or(EvalError::Cancelled))
    }

    /// Deadline + cancellation checks (trips and returns the error on
    /// violation; also surfaces an earlier trip).
    fn poll_signals(&self) -> Result<()> {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                self.trip(EvalError::BudgetExceeded {
                    kind: BudgetKind::Deadline,
                    limit: self.deadline_ms,
                });
            }
        }
        if let Some(cancel) = &self.cancel {
            if cancel.is_cancelled() {
                self.trip(EvalError::Cancelled);
            }
        }
        self.check()
    }

    /// Round-boundary check: fires the `round` failpoint (and panics when
    /// the [`SITE_PANIC`] failpoint is due), counts one round against
    /// [`Budget::max_rounds`], and polls deadline and cancellation. Called
    /// by the driver before the full first application and before every
    /// delta round, by naive iteration per step, and by the well-founded
    /// engine per alternation.
    ///
    /// # Panics
    /// Deliberately, when the armed [`SITE_PANIC`] failpoint fires.
    pub fn check_round(&self) -> Result<()> {
        self.fail_at(SITE_ROUND)?;
        if self.failpoints.fire(SITE_PANIC) {
            panic!("panic failpoint fired");
        }
        let r = self.rounds.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(max) = self.max_rounds {
            if r > max {
                self.trip(EvalError::BudgetExceeded {
                    kind: BudgetKind::Rounds,
                    limit: max as u64,
                });
            }
        }
        self.poll_signals()
    }

    /// Inner-loop hook, called per emitted head tuple by the VM: counts
    /// against [`Budget::max_tuples`] and polls deadline and cancellation
    /// every [`POLL_MASK`]` + 1` emissions. Returns `true` when the
    /// evaluation must stop (the VM then drains out; the caller surfaces
    /// [`Governor::check`]). The debug-build tree oracle always runs
    /// ungoverned and never calls this.
    #[inline]
    pub(crate) fn note_emit(&self) -> bool {
        let n = self.emitted.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(max) = self.max_tuples {
            if n > max {
                self.trip(EvalError::BudgetExceeded {
                    kind: BudgetKind::Tuples,
                    limit: max,
                });
                return true;
            }
        }
        if n & POLL_MASK == 0 && self.poll_signals().is_err() {
            return true;
        }
        self.tripped()
    }

    /// Fires the failpoint registered at `site`, if armed and due: trips
    /// with [`EvalError::FaultInjected`] and returns it.
    pub(crate) fn fail_at(&self, site: &str) -> Result<()> {
        if self.failpoints.fire(site) {
            let e = EvalError::FaultInjected {
                site: site.to_owned(),
            };
            self.trip(e.clone());
            return Err(e);
        }
        self.check()
    }

    /// Total head-tuple emissions observed so far (for tests/diagnostics).
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Rounds counted so far (for tests/diagnostics).
    pub fn rounds(&self) -> usize {
        self.rounds.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inflog_core::failpoints::SITE_INDEX_EXTEND;

    fn opts_with_budget(budget: Budget) -> EvalOptions {
        EvalOptions {
            budget,
            ..EvalOptions::sequential()
        }
    }

    #[test]
    fn default_budget_is_unlimited_and_governor_inert() {
        assert!(Budget::default().is_unlimited());
        let gov = Governor::free();
        assert!(gov.as_active().is_none());
        assert!(gov.check_round().is_ok());
        assert!(!gov.note_emit());
        assert!(gov.check().is_ok());
    }

    #[test]
    fn round_cap_trips_with_typed_error() {
        let gov = Governor::new(&opts_with_budget(Budget::with_max_rounds(2)));
        assert!(gov.as_active().is_some());
        assert!(gov.check_round().is_ok());
        assert!(gov.check_round().is_ok());
        let err = gov.check_round().unwrap_err();
        assert_eq!(
            err,
            EvalError::BudgetExceeded {
                kind: BudgetKind::Rounds,
                limit: 2
            }
        );
        // The trip is sticky: later checks return the same first error.
        assert_eq!(gov.check().unwrap_err(), err);
    }

    #[test]
    fn tuple_cap_trips_in_the_emit_hook() {
        let gov = Governor::new(&opts_with_budget(Budget::with_max_tuples(3)));
        assert!(!gov.note_emit());
        assert!(!gov.note_emit());
        assert!(!gov.note_emit());
        assert!(gov.note_emit(), "4th emission exceeds max_tuples=3");
        assert!(matches!(
            gov.check(),
            Err(EvalError::BudgetExceeded {
                kind: BudgetKind::Tuples,
                limit: 3
            })
        ));
    }

    #[test]
    fn zero_deadline_trips_at_the_first_round_boundary() {
        let gov = Governor::new(&opts_with_budget(Budget::with_deadline(Duration::ZERO)));
        assert!(matches!(
            gov.check_round(),
            Err(EvalError::BudgetExceeded {
                kind: BudgetKind::Deadline,
                ..
            })
        ));
    }

    #[test]
    fn cancellation_is_shared_across_clones_and_sticky() {
        let token = CancelToken::new();
        let opts = EvalOptions {
            cancel: Some(token.clone()),
            ..EvalOptions::sequential()
        };
        let gov = Governor::new(&opts);
        assert!(gov.as_active().is_some(), "a token alone activates");
        assert!(gov.check_round().is_ok());
        token.cancel();
        assert_eq!(gov.check_round().unwrap_err(), EvalError::Cancelled);
        assert!(token.is_cancelled());
        // Equality is identity: clones are equal, fresh tokens are not.
        assert_eq!(token, token.clone());
        assert_ne!(token, CancelToken::new());
    }

    #[test]
    fn fail_at_surfaces_fault_injected_and_trips() {
        let opts = EvalOptions {
            failpoints: Failpoints::armed(SITE_INDEX_EXTEND, 1),
            ..EvalOptions::sequential()
        };
        let gov = Governor::new(&opts);
        assert!(gov.as_active().is_some());
        let err = gov.fail_at(SITE_INDEX_EXTEND).unwrap_err();
        assert_eq!(
            err,
            EvalError::FaultInjected {
                site: SITE_INDEX_EXTEND.into()
            }
        );
        assert_eq!(gov.check().unwrap_err(), err);
    }

    #[test]
    fn governor_counters_report() {
        let gov = Governor::new(&opts_with_budget(Budget::with_max_tuples(100)));
        gov.check_round().unwrap();
        assert!(!gov.note_emit());
        assert!(!gov.note_emit());
        assert_eq!(gov.rounds(), 1);
        assert_eq!(gov.emitted(), 2);
    }
}
