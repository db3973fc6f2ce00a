//! Resource governance: evaluation budgets, cooperative cancellation,
//! panic containment support, and the failpoint fault-injection layer.
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
//! * [`Failpoints`] — env-driven (`INFLOG_FAILPOINT=<site>[:<n>]`) or
//!   programmatically armed injection points that force a typed failure at
//!   a registered site, used by the fault-injection test harness to prove
//!   every mid-flight failure leaves [`Materialized`](crate::Materialized)
//!   handles transactionally intact.
//!
//! At evaluation entry every engine resolves its options into a
//! [`Governor`] — the per-call runtime that owns the resolved deadline,
//! the shared counters, and the one-shot trip state. The governor is
//! checked at **round boundaries** ([`Governor::check_round`], which also
//! hosts the `round` failpoint) and **every few thousand emitted tuples**
//! in the executors' inner loops ([`Governor::note_emit`]); a trip is
//! recorded once, the executors drain out early, and the evaluation
//! surfaces the stored [`EvalError`]. When no limit, token, or failpoint
//! is configured the governor reports itself inert
//! ([`Governor::as_active`] returns `None`) and the inner loops carry
//! **zero** governance overhead — the bench gate holds the budget checks
//! to noise on the headline suites.

use crate::error::{BudgetKind, EvalError};
use crate::options::EvalOptions;
use crate::Result;
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

/// Failpoint site: the top of every [`DeltaDriver`](crate::DeltaDriver)
/// round (including each engine's first full application).
pub const SITE_ROUND: &str = "round";
/// Failpoint site: index preparation/extension at the start of a Θ
/// application (`prepare_plan`, under the index write lock's scope).
pub const SITE_INDEX_EXTEND: &str = "index-extend";
/// Failpoint site: closing the overdelete cone of a delete–rederive
/// repair (fires per cone round, after damage has been removed).
pub const SITE_OVERDELETE_CLOSE: &str = "overdelete-close";
/// Failpoint site: the rederivation pass of a delete–rederive repair
/// (fires once per closed, non-empty cone, before its members are checked;
/// a repair that gives up on the cone and re-evaluates never reaches it).
pub const SITE_REDERIVE_SWEEP: &str = "rederive-sweep";
/// Failpoint site: a genuine `panic!` at a round boundary
/// ([`Governor::check_round`]) instead of a typed error — exercises the
/// `catch_unwind` containment and rollback of
/// [`Materialized`](crate::Materialized) updates.
pub const SITE_PANIC: &str = "panic";

/// Every registered failpoint site, for sweep harnesses.
pub const FAILPOINT_SITES: &[&str] = &[
    SITE_ROUND,
    SITE_INDEX_EXTEND,
    SITE_OVERDELETE_CLOSE,
    SITE_REDERIVE_SWEEP,
    SITE_PANIC,
];

/// Serving-layer failpoint sites (`inflog-serve`). The registry constant
/// lives here — not in the serve crate — because the shared
/// `INFLOG_FAILPOINT` diagnostic below must enumerate every layer's sites,
/// and `inflog-serve` depends on this crate (the reverse import would be a
/// cycle). The serve crate re-exports these names and owns their semantics:
///
/// - `serve-epoch-publish`: the writer dies after the WAL record is durable
///   and applied but before the new epoch is swapped in — readers keep the
///   old epoch; recovery may legitimately land one epoch past the last ack.
/// - `serve-queue-full`: the write admission path behaves as if the bounded
///   writer queue were full — a typed `Overloaded` shed, never a hang.
/// - `serve-reply-drop`: the connection is dropped mid-reply, after the
///   epoch header but before the tuples — the server must keep serving.
/// - `serve-writer-crash`: the writer dies *before* logging the batch —
///   recovery must restore exactly the last acked epoch.
pub const SERVE_FAILPOINT_SITES: &[&str] = &[
    "serve-epoch-publish",
    "serve-queue-full",
    "serve-reply-drop",
    "serve-writer-crash",
];

#[derive(Debug)]
struct ArmedFailpoint {
    site: String,
    /// 1-based: the failpoint fires on exactly the `trigger`-th hit of its
    /// site, then never again — so a retried operation runs clean.
    trigger: u64,
    hits: AtomicU64,
}

/// An armed fault-injection point. At most one site is armed per value;
/// the hit counter is shared across clones (`Arc`), so arming a handle's
/// options once and retrying after the injected failure runs clean.
///
/// Environment form (parsed by [`EvalOptions::default`]):
/// `INFLOG_FAILPOINT=<site>[:<n>]` arms `<site>` to fire on its `n`-th hit
/// (default 1). Sites are listed in [`FAILPOINT_SITES`]; an unknown site
/// warns on stderr and is ignored, like the other `INFLOG_*` knobs.
#[derive(Debug, Clone, Default)]
pub struct Failpoints(Option<Arc<ArmedFailpoint>>);

impl Failpoints {
    /// No failpoint armed (the default).
    pub fn none() -> Self {
        Failpoints::default()
    }

    /// Arms `site` to fire on its `trigger`-th hit (1-based; 0 is clamped
    /// to 1). Panics on unregistered sites — arming a typo'd site would
    /// silently test nothing.
    pub fn armed(site: &str, trigger: u64) -> Self {
        assert!(
            FAILPOINT_SITES.contains(&site),
            "unknown failpoint site `{site}` (registered: {FAILPOINT_SITES:?})"
        );
        Failpoints(Some(Arc::new(ArmedFailpoint {
            site: site.to_owned(),
            trigger: trigger.max(1),
            hits: AtomicU64::new(0),
        })))
    }

    /// Parses the `INFLOG_FAILPOINT` value form `<site>[:<n>]`. Empty
    /// means none; malformed values warn on stderr and arm nothing.
    pub fn from_env_value(raw: &str) -> Self {
        let trimmed = raw.trim();
        if trimmed.is_empty() {
            return Failpoints::none();
        }
        let (site, trigger) = match trimmed.split_once(':') {
            None => (trimmed, 1),
            Some((site, n)) => match n.trim().parse::<u64>() {
                Ok(n) => (site.trim(), n.max(1)),
                Err(_) => {
                    eprintln!(
                        "warning: ignoring INFLOG_FAILPOINT={raw:?}: \
                         expected <site>[:<n>] with integer n"
                    );
                    return Failpoints::none();
                }
            },
        };
        if !FAILPOINT_SITES.contains(&site) {
            // Store- and serve-layer sites are valid arming targets for the
            // same variable — the durable store parses them itself
            // (`inflog_store::Failpoints::from_env`) and the serving layer
            // parses [`SERVE_FAILPOINT_SITES`]; the evaluation layer just
            // stays inert, without a spurious warning.
            if !inflog_store::STORE_FAILPOINT_SITES.contains(&site)
                && !SERVE_FAILPOINT_SITES.contains(&site)
            {
                eprintln!(
                    "warning: ignoring INFLOG_FAILPOINT={raw:?}: unknown site \
                     (registered: {FAILPOINT_SITES:?} for evaluation, {:?} \
                     for the durable store, {SERVE_FAILPOINT_SITES:?} for the \
                     serving layer)",
                    inflog_store::STORE_FAILPOINT_SITES
                );
            }
            return Failpoints::none();
        }
        Failpoints(Some(Arc::new(ArmedFailpoint {
            site: site.to_owned(),
            trigger,
            hits: AtomicU64::new(0),
        })))
    }

    /// Whether any site is armed.
    pub fn is_armed(&self) -> bool {
        self.0.is_some()
    }

    /// Records a hit at `site`; returns `true` exactly when this hit is
    /// the armed site's trigger-th (the injection moment).
    pub fn fire(&self, site: &str) -> bool {
        let Some(armed) = &self.0 else { return false };
        if armed.site != site {
            return false;
        }
        armed.hits.fetch_add(1, Ordering::Relaxed) + 1 == armed.trigger
    }
}

/// Failpoints compare by identity (or both-unarmed), keeping
/// [`EvalOptions`]'s derived equality meaningful.
impl PartialEq for Failpoints {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for Failpoints {}

/// How many emissions pass between deadline/cancellation polls in the
/// executor inner loops (power of two; the counter is masked). Small
/// enough that a cancelled or expired evaluation stops within
/// microseconds, large enough that the poll — an `Instant::now` call —
/// never shows up in profiles.
const POLL_MASK: u64 = (1 << 12) - 1;

/// The per-call governance runtime: resolved limits plus shared trip
/// state. Engines build one at entry ([`Governor::new`]) and thread a
/// reference through the [`DeltaDriver`](crate::DeltaDriver) into both
/// executors.
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

    /// `Some(self)` when any check could ever trip — the executors only
    /// carry a governor reference in that case, so inert evaluations pay
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

    /// Inner-loop hook, called per emitted head tuple by both executors:
    /// counts against [`Budget::max_tuples`] and polls deadline and
    /// cancellation every [`POLL_MASK`]` + 1` emissions. Returns `true`
    /// when the evaluation must stop (the executors then drain out; the
    /// caller surfaces [`Governor::check`]).
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
    fn failpoint_fires_on_exactly_the_nth_hit() {
        let fp = Failpoints::armed(SITE_ROUND, 3);
        assert!(!fp.fire(SITE_ROUND));
        assert!(!fp.fire(SITE_INDEX_EXTEND), "other sites never fire");
        assert!(!fp.fire(SITE_ROUND));
        assert!(fp.fire(SITE_ROUND), "third hit is the trigger");
        assert!(!fp.fire(SITE_ROUND), "one-shot: never fires again");
    }

    #[test]
    fn failpoint_env_parsing() {
        assert!(!Failpoints::from_env_value("").is_armed());
        assert!(!Failpoints::from_env_value("  ").is_armed());
        let fp = Failpoints::from_env_value("round");
        assert!(fp.is_armed());
        assert!(fp.fire(SITE_ROUND), "default trigger is the first hit");
        let fp = Failpoints::from_env_value(" rederive-sweep : 2 ");
        assert!(fp.is_armed());
        assert!(!fp.fire(SITE_REDERIVE_SWEEP));
        assert!(fp.fire(SITE_REDERIVE_SWEEP));
        // Malformed and unknown values arm nothing (and warn on stderr).
        assert!(!Failpoints::from_env_value("round:x").is_armed());
        assert!(!Failpoints::from_env_value("no-such-site").is_armed());
        // Store- and serve-layer sites are foreign here: inert, no warning.
        assert!(!Failpoints::from_env_value("store-wal-bit-flip").is_armed());
        assert!(!Failpoints::from_env_value("serve-epoch-publish").is_armed());
        assert!(!Failpoints::from_env_value("serve-writer-crash:3").is_armed());
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
