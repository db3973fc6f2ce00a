//! The shared semi-naive round driver.
//!
//! Every delta-capable engine — semi-naive least fixpoint, per-component
//! stratified evaluation, inflationary iteration, and both sides of the
//! well-founded alternating fixpoint — runs the *same* loop: one full Θ
//! application to pick up derivations the current state has no delta for,
//! then delta-restricted rounds until nothing new appears. Before this
//! module each engine carried its own copy of that loop; now they all drive
//! [`DeltaDriver::extend`], parameterized by a rule subset (one dependency
//! component) and a frozen negation context (well-founded Γ).
//!
//! `extend` grows `s` **in place**: relations keep their identity, so the
//! evaluation context's persistent hash-join indexes extend incrementally
//! round over round (and across calls — a warm-started fixpoint that reuses
//! `s` also reuses the index work of the previous call).
//!
//! The driver owns one scratch interpretation (`derived`) that is cleared
//! and refilled each round instead of reallocated, and the round's delta is
//! `s`'s own dense suffix past a per-relation watermark — never a separate
//! interpretation, so the set-difference pass the per-engine loops used to
//! run every round is gone, and so is the per-tuple clone + hash insert of
//! a materialized delta.
//!
//! Soundness of the delta restriction requires the effective operator to be
//! monotone in `s` over the rounds of one `extend` call. Each caller
//! discharges that differently:
//!
//! * positive programs (semi-naive): Θ itself is monotone;
//! * stratified, per component of the dependency graph (the component walk
//!   the well-founded engine also runs, below its first negative cycle):
//!   negations refer to lower components only, which `extend` never grows
//!   while iterating that component's rules;
//! * well-founded Γ: negations are frozen at an explicit `neg`
//!   interpretation, and the positivized operator is monotone;
//! * inflationary: not monotone, but under an *increasing* `s` a negated
//!   literal only decays true→false, so a body instance newly true this
//!   round still must have gained a positive IDB tuple — the delta argument
//!   goes through (this is §4's observation, see `inflationary.rs`).
//!
//! In debug builds every delta round is cross-checked against a full naive
//! application from the same state: the new tuples must match exactly,
//! round by round.

use crate::govern::Governor;
use crate::interp::Interp;
use crate::operator::{apply_general_into, DeltaSource, EvalContext, PlanKind};
use crate::plan::CardSnapshot;
use crate::resolve::{CompiledProgram, CompiledRule, RulePlans};
use crate::trace::EvalTrace;
use crate::Result;
use inflog_core::Relation;

/// Reusable round driver: scratch buffers plus the shared semi-naive loop.
///
/// Create one per evaluation (or per engine) and call
/// [`extend`](Self::extend) as many times as needed — the scratch space is
/// recycled across rounds and across calls.
#[derive(Debug)]
pub struct DeltaDriver {
    /// Output buffer for Θ applications (cleared, not reallocated).
    derived: Interp,
    /// Per-IDB dense-storage watermarks: `s.get(i).dense()[delta_marks[i]..]`
    /// *is* the round's delta. The delta is never materialized as its own
    /// interpretation — delta scans are always unkeyed and leading (the
    /// delta-first invariant), so a borrowed slice of `s`'s live storage
    /// serves directly, eliminating a clone and a hash insert per derived
    /// tuple per round.
    delta_marks: Vec<usize>,
    /// Live plans, rebuilt before every application from a fresh
    /// [`CardSnapshot`] of the EDB and the growing interpretation — so the
    /// planner's cardinality tie-break tracks the relations as they exist
    /// *this round*, not as they were at compile time. The cardinality
    /// snapshot of the previous replan; replanning is skipped while the
    /// sizes that drive scan ordering are unchanged.
    plans: Vec<RulePlans>,
    cards: CardSnapshot,
    /// Whether any rule's scan order can react to cardinalities at all
    /// (some rule has ≥ 2 positive body atoms). Computed on first use; when
    /// `false`, replanning is skipped and the compile-time plans run —
    /// single-join programs pay zero replanning overhead.
    order_sensitive: Option<bool>,
}

impl DeltaDriver {
    /// Builds a driver with scratch buffers shaped for `cp`'s IDB arities.
    /// Governance is not the driver's: every call takes the caller's
    /// [`Governor`].
    pub fn new(cp: &CompiledProgram) -> Self {
        let derived = cp.empty_interp();
        DeltaDriver {
            delta_marks: vec![0; derived.len()],
            derived,
            plans: Vec::new(),
            cards: CardSnapshot::unknown(),
            order_sensitive: None,
        }
    }

    /// Re-plans every rule against the live relation cardinalities (the
    /// materialized EDB plus the current `s`). Skipped entirely when no
    /// rule's order can depend on cardinalities, and skipped whenever every
    /// size stayed within the same power-of-two bucket as the previous
    /// replan — a fixpoint that grows a relation by a few tuples per round
    /// would otherwise rebuild and re-lower every plan family every round
    /// for plans that come out identical anyway.
    fn replan(&mut self, cp: &CompiledProgram, ctx: &EvalContext, s: &Interp) {
        let sensitive = *self
            .order_sensitive
            .get_or_insert_with(|| cp.rules.iter().any(CompiledRule::order_sensitive));
        if !sensitive {
            return;
        }
        let cards = CardSnapshot::new(
            ctx.edb.iter().map(Relation::len).collect(),
            s.relations().iter().map(Relation::len).collect(),
        );
        if self.plans.len() == cp.rules.len() && cards.same_magnitude(&self.cards) {
            return;
        }
        self.plans = cp.rules.iter().map(|r| r.replan(&cards)).collect();
        self.cards = cards;
    }

    /// The live plan overrides to execute with — `None` until a replan has
    /// produced any (order-insensitive programs run their compile-time
    /// plans forever).
    fn overrides(plans: &[RulePlans]) -> Option<&[RulePlans]> {
        (!plans.is_empty()).then_some(plans)
    }

    /// Extends `s` in place to the least fixpoint of the (effective)
    /// operator above `s`, semi-naively. Returns the number of tuples
    /// added.
    ///
    /// * `rules` — restrict to these rule indices (one component's);
    ///   `None` runs the whole program.
    /// * `frozen_neg` — evaluate negative IDB literals against this fixed
    ///   interpretation (the well-founded Γ transform); `None` evaluates
    ///   them against the current `s` (standard Θ).
    /// * `trace` — when present, one round is recorded per application that
    ///   added tuples, exactly as the engines' hand-rolled loops did.
    ///
    /// The first round is a **full** application against the current `s`:
    /// a warm-started call (`s` non-empty) has no delta describing how `s`
    /// came to be, and rules without positive IDB atoms never fire in delta
    /// rounds. Subsequent rounds are delta-restricted.
    ///
    /// `gov` enforces the caller's budget/cancellation at every round
    /// boundary and inside the VM's inner loop; pass
    /// [`Governor::free`] for ungoverned evaluation. On `Err`, `s` holds a
    /// sound partial extension (every absorbed round was complete), but is
    /// generally **not** a fixpoint.
    ///
    /// # Errors
    /// Budget/cancellation/failpoint trips.
    #[allow(clippy::too_many_arguments)]
    pub fn extend(
        &mut self,
        cp: &CompiledProgram,
        ctx: &EvalContext,
        s: &mut Interp,
        rules: Option<&[usize]>,
        frozen_neg: Option<&Interp>,
        trace: Option<&mut EvalTrace>,
        gov: &Governor,
    ) -> Result<usize> {
        gov.check_round()?;
        self.replan(cp, ctx, s);
        apply_general_into(
            cp,
            ctx,
            s,
            rules,
            PlanKind::Full,
            None,
            frozen_neg,
            Self::overrides(&self.plans),
            &mut self.derived,
            Some(gov),
        )?;
        self.drain_rounds(cp, ctx, s, rules, frozen_neg, trace, gov)
    }

    /// Like [`extend`](Self::extend), but the first round is **restricted**
    /// to derivations enabled by `removed` — the tuples that just left the
    /// frozen negation context — via the rules' neg-delta plans, instead of
    /// a full application.
    ///
    /// Sound and complete when (a) `s` is already a fixpoint of the operator
    /// with the *previous* negation context, and (b) `frozen_neg` differs
    /// from that context exactly by `removed` shrinking out of it: a ground
    /// instance newly true under the smaller context, with `s` unchanged,
    /// must use at least one negated IDB literal whose atom is in `removed`
    /// (negations only gain truth when their context shrinks), and the
    /// neg-delta plan driven by that occurrence enumerates it. The
    /// incremental well-founded engine calls this for every alternation
    /// after the first; the debug cross-check verifies the argument against
    /// a full naive round.
    ///
    /// `rules` restricts every round to these rule indices, as in
    /// [`extend`](Self::extend): the well-founded engine alternates one
    /// dependency component at a time.
    #[allow(clippy::too_many_arguments)]
    pub fn extend_from_removed(
        &mut self,
        cp: &CompiledProgram,
        ctx: &EvalContext,
        s: &mut Interp,
        rules: Option<&[usize]>,
        removed: &Interp,
        frozen_neg: &Interp,
        trace: Option<&mut EvalTrace>,
        gov: &Governor,
    ) -> Result<usize> {
        gov.check_round()?;
        self.replan(cp, ctx, s);
        apply_general_into(
            cp,
            ctx,
            s,
            rules,
            PlanKind::NegDelta,
            Some(DeltaSource::Interp(removed)),
            Some(frozen_neg),
            Self::overrides(&self.plans),
            &mut self.derived,
            Some(gov),
        )?;
        #[cfg(debug_assertions)]
        self.cross_check_against_naive_round(cp, ctx, s, rules, Some(frozen_neg));
        self.drain_rounds(cp, ctx, s, rules, Some(frozen_neg), trace, gov)
    }

    /// Like [`extend`](Self::extend), but the first round's derivations are
    /// supplied directly as `seed` (IDB-shaped) instead of computed by a
    /// full application — the caller has already enumerated exactly the
    /// instances enabled by whatever changed.
    ///
    /// The materialized-view repair path builds the seed from the EDB-delta
    /// plan families (plus the cross-engine `PosDelta`/`NegDelta` damage
    /// accumulators) and drains it here; soundness of the subsequent delta
    /// rounds is the caller's obligation, discharged in `materialize.rs`,
    /// and the debug cross-check inside [`drain_rounds`](Self::drain_rounds)
    /// verifies each round against a full naive application.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn extend_seeded(
        &mut self,
        cp: &CompiledProgram,
        ctx: &EvalContext,
        s: &mut Interp,
        rules: Option<&[usize]>,
        frozen_neg: Option<&Interp>,
        seed: &Interp,
        trace: Option<&mut EvalTrace>,
        gov: &Governor,
    ) -> Result<usize> {
        gov.check_round()?;
        self.replan(cp, ctx, s);
        for i in 0..self.derived.len() {
            let out = self.derived.get_mut(i);
            out.clear();
            out.union_with(seed.get(i));
        }
        self.drain_rounds(cp, ctx, s, rules, frozen_neg, trace, gov)
    }

    /// Snapshots the driver state a transactional caller must restore on
    /// rollback: the per-IDB delta watermarks (which must equal the
    /// rolled-back interpretation's dense lengths in steady state) and the
    /// replan cardinality snapshot. The live plans are *not* part of the
    /// snapshot — any plan set is semantically correct, and the next replan
    /// re-derives them from the restored cardinalities when they drift.
    pub(crate) fn save_state(&self) -> (Vec<usize>, CardSnapshot) {
        (self.delta_marks.clone(), self.cards.clone())
    }

    /// Restores a [`save_state`](Self::save_state) snapshot after a failed
    /// transactional update.
    pub(crate) fn restore_state(&mut self, state: (Vec<usize>, CardSnapshot)) {
        let (marks, cards) = state;
        self.delta_marks = marks;
        self.cards = cards;
    }

    /// Shared tail of the entry points: absorb the first round already
    /// sitting in `self.derived`, then run delta rounds until stable.
    ///
    /// Rounds absorbed before an `Err` are complete — `s` never holds a
    /// torn round, only a prefix of the rounds the full evaluation would
    /// have run.
    #[allow(clippy::too_many_arguments)]
    fn drain_rounds(
        &mut self,
        cp: &CompiledProgram,
        ctx: &EvalContext,
        s: &mut Interp,
        rules: Option<&[usize]>,
        frozen_neg: Option<&Interp>,
        mut trace: Option<&mut EvalTrace>,
        gov: &Governor,
    ) -> Result<usize> {
        let mut total = 0;
        let mut added = absorb(s, &self.derived, &mut self.delta_marks);
        while added > 0 {
            total += added;
            if let Some(tr) = trace.as_deref_mut() {
                tr.record_round(added);
            }
            gov.check_round()?;
            self.replan(cp, ctx, s);
            apply_general_into(
                cp,
                ctx,
                s,
                rules,
                PlanKind::PosDelta,
                Some(DeltaSource::Suffix(&self.delta_marks)),
                frozen_neg,
                Self::overrides(&self.plans),
                &mut self.derived,
                Some(gov),
            )?;
            #[cfg(debug_assertions)]
            self.cross_check_against_naive_round(cp, ctx, s, rules, frozen_neg);
            added = absorb(s, &self.derived, &mut self.delta_marks);
        }
        Ok(total)
    }

    /// Debug-build invariant: the delta application just stored in
    /// `self.derived` must contribute exactly the tuples a full (naive)
    /// application from the same `s` would — semi-naive Γ equals naive Γ,
    /// round by round (and likewise for every other engine on the driver).
    ///
    /// The check only runs after an `Ok` application (a governed trip
    /// short-circuits past it via `?`), and the replay itself is ungoverned
    /// — it must neither double-count emissions nor re-fire failpoints.
    #[cfg(debug_assertions)]
    fn cross_check_against_naive_round(
        &self,
        cp: &CompiledProgram,
        ctx: &EvalContext,
        s: &Interp,
        rules: Option<&[usize]>,
        frozen_neg: Option<&Interp>,
    ) {
        let mut full = cp.empty_interp();
        apply_general_into(
            cp,
            ctx,
            s,
            rules,
            PlanKind::Full,
            None,
            frozen_neg,
            None,
            &mut full,
            None,
        )
        .expect("ungoverned application cannot fail");
        debug_assert_eq!(
            full.difference(s),
            self.derived.difference(s),
            "semi-naive round diverged from the naive round"
        );
    }
}

/// Unions `derived` into `s` and records the pre-union dense lengths in
/// `marks` — the next round's delta is exactly `s`'s dense suffix past each
/// mark, read in place with no set-difference pass and no delta
/// materialization. Returns the number of tuples added.
fn absorb(s: &mut Interp, derived: &Interp, marks: &mut [usize]) -> usize {
    let mut added = 0;
    for (i, mark) in marks.iter_mut().enumerate() {
        let before = s.get(i).len();
        *mark = before;
        s.get_mut(i).union_with(derived.get(i));
        added += s.get(i).len() - before;
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::least_fixpoint_naive;
    use crate::operator::apply_with_neg;
    use crate::options::EvalOptions;
    use inflog_core::graphs::DiGraph;
    use inflog_syntax::parse_program;

    const TC: &str = "S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).";

    fn setup(src: &str, db: &inflog_core::Database) -> (CompiledProgram, EvalContext) {
        let p = parse_program(src).unwrap();
        let cp = CompiledProgram::compile(&p, db).unwrap();
        let ctx = EvalContext::new(&cp, db).unwrap();
        (cp, ctx)
    }

    #[test]
    fn extend_from_empty_computes_least_fixpoint() {
        let db = DiGraph::binary_tree(15).to_database("E");
        let (cp, ctx) = setup(TC, &db);
        let mut s = cp.empty_interp();
        let mut driver = DeltaDriver::new(&cp);
        let added = driver
            .extend(&cp, &ctx, &mut s, None, None, None, &Governor::free())
            .unwrap();
        let (lfp, _) = least_fixpoint_naive(&parse_program(TC).unwrap(), &db).unwrap();
        assert_eq!(s, lfp);
        assert_eq!(added, lfp.total_tuples());
    }

    #[test]
    fn extend_is_idempotent_once_at_fixpoint() {
        let db = DiGraph::path(6).to_database("E");
        let (cp, ctx) = setup(TC, &db);
        let mut s = cp.empty_interp();
        let mut driver = DeltaDriver::new(&cp);
        driver
            .extend(&cp, &ctx, &mut s, None, None, None, &Governor::free())
            .unwrap();
        let again = driver
            .extend(&cp, &ctx, &mut s, None, None, None, &Governor::free())
            .unwrap();
        assert_eq!(again, 0);
    }

    #[test]
    fn warm_start_from_subset_reaches_the_same_fixpoint() {
        // Seed with a strict subset of the least fixpoint (the base facts):
        // warm-started extension must land on exactly the lfp.
        let db = DiGraph::path(7).to_database("E");
        let (cp, ctx) = setup(TC, &db);
        let mut driver = DeltaDriver::new(&cp);

        let mut cold = cp.empty_interp();
        driver
            .extend(&cp, &ctx, &mut cold, None, None, None, &Governor::free())
            .unwrap();

        let mut warm = cp.empty_interp();
        let sid = cp.idb_id("S").unwrap();
        for t in ctx.edb[0].iter() {
            warm.insert(sid, t.clone());
        }
        driver
            .extend(&cp, &ctx, &mut warm, None, None, None, &Governor::free())
            .unwrap();
        assert_eq!(warm, cold);
    }

    #[test]
    fn frozen_neg_extend_matches_naive_gamma() {
        // Γ(J) via the driver equals Γ(J) by naive iteration of
        // apply_with_neg, for the win-move program and several J.
        let db = DiGraph::path(6).to_database("Move");
        let (cp, ctx) = setup("Win(x) :- Move(x, y), !Win(y).", &db);
        let wid = cp.idb_id("Win").unwrap();
        let mut driver = DeltaDriver::new(&cp);
        for j_members in [vec![], vec![1u32], vec![0, 2, 4]] {
            let mut j = cp.empty_interp();
            for m in &j_members {
                j.insert(wid, inflog_core::Tuple::from_ids(&[*m]));
            }
            let mut s = cp.empty_interp();
            driver
                .extend(&cp, &ctx, &mut s, None, Some(&j), None, &Governor::free())
                .unwrap();
            // Naive Γ(J): iterate the frozen-neg operator from ∅.
            let mut naive = cp.empty_interp();
            loop {
                let derived = apply_with_neg(&cp, &ctx, &naive, &j);
                if naive.union_with(&derived) == 0 {
                    break;
                }
            }
            assert_eq!(s, naive, "J = {j_members:?}");
        }
    }

    #[test]
    fn empty_delta_early_exit_runs_no_delta_round() {
        // Re-extending at a fixpoint must issue exactly one (full)
        // application and exit on the empty delta — no delta round. An
        // active governor counts the applications as rounds.
        let db = DiGraph::path(20).to_database("E");
        let (cp, ctx) = setup(TC, &db);
        let mut driver = DeltaDriver::new(&cp);
        let mut s = cp.empty_interp();
        driver
            .extend(&cp, &ctx, &mut s, None, None, None, &Governor::free())
            .unwrap();
        let gov = Governor::new(&EvalOptions {
            budget: crate::Budget::with_max_rounds(usize::MAX),
            ..EvalOptions::sequential()
        });
        assert!(gov.as_active().is_some());
        let again = driver
            .extend(&cp, &ctx, &mut s, None, None, None, &gov)
            .unwrap();
        assert_eq!(again, 0);
        assert_eq!(
            gov.rounds(),
            1,
            "only the full re-check application may run at a fixpoint"
        );
    }

    #[test]
    fn indexes_stay_sound_after_truncate_rollback_and_reextension() {
        // Run TC to fixpoint (warming positional indexes over S), roll S
        // back to a watermark (shrink-epoch rollback), then re-extend from
        // the rolled-back state. The postings must stay sorted and
        // complete, and the re-extension must land on the same fixpoint.
        let db = DiGraph::binary_tree(63).to_database("E");
        let (cp, ctx) = setup(TC, &db);
        let mut driver = DeltaDriver::new(&cp);
        let mut s = cp.empty_interp();
        driver
            .extend(&cp, &ctx, &mut s, None, None, None, &Governor::free())
            .unwrap();
        let full = s.clone();
        let sid = cp.idb_id("S").unwrap();
        ctx.debug_validate_indexes(s.get(sid));
        // Round one's tuples (the base edges) sit first in dense order.
        s.get_mut(sid).truncate(db.relation("E").unwrap().len());
        driver
            .extend(&cp, &ctx, &mut s, None, None, None, &Governor::free())
            .unwrap();
        ctx.debug_validate_indexes(s.get(sid));
        assert_eq!(s, full, "re-extension after rollback lost tuples");
    }

    #[test]
    fn trace_rounds_match_hand_rolled_loop() {
        let db = DiGraph::path(5).to_database("E");
        let (cp, ctx) = setup(TC, &db);
        let mut s = cp.empty_interp();
        let mut driver = DeltaDriver::new(&cp);
        let mut trace = EvalTrace::default();
        driver
            .extend(
                &cp,
                &ctx,
                &mut s,
                None,
                None,
                Some(&mut trace),
                &Governor::free(),
            )
            .unwrap();
        // L_5 TC: rounds add 4, 3, 2, 1 tuples.
        assert_eq!(trace.added_per_round, vec![4, 3, 2, 1]);
    }
}
