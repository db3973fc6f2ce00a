//! The immediate-consequence operator Θ of §2, executed over compiled plans.
//!
//! Given a database `D` and an interpretation `S = (S_1, ..., S_m)` for the
//! IDB predicates, `Θ(S)` returns the relations derived by applying every
//! rule once, with variables ranging over the universe `A` and body
//! negations evaluated against `S` itself (synchronous / Jacobi application —
//! derivations within a round do not see each other).
//!
//! Public applications:
//! * [`apply`] — plain `Θ(S)`;
//! * [`apply_with_neg`] — negative IDB literals read a *separate*
//!   interpretation (the alternating-fixpoint transform Γ of the
//!   well-founded semantics needs this).
//!
//! The engines reach the general form through the round driver: any rule
//! subset (the component walk applies one component's rules at a time),
//! delta restriction (semi-naive: only derivations whose body uses at
//! least one tuple of a delta — under a growing `S`, a ground body
//! instance can become newly true only through a positive IDB atom, since
//! negative literals only decay) and frozen negation context, in any
//! combination. With negations frozen the positivized operator is
//! monotone, so the delta argument carries over to Γ unchanged.
//!
//! # Index phases
//!
//! Within one application every plan reads the *same* frozen inputs (`s`,
//! the delta, the EDB, the persistent indexes) and only emits head tuples.
//! During execution the [`IndexSet`] is read-only (one read guard, taken
//! after plan preparation); incremental index extension happens strictly
//! between applications, under the write lock of
//! [`IndexSet::begin_application`]-time preparation.
//!
//! The engines do not drive rounds themselves; the shared round loop lives
//! in [`driver`](crate::driver).
//!
//! # Executors
//!
//! Plan execution itself lives elsewhere: the flat register-machine VM in
//! [`exec`] runs every application (every [`Plan`] embeds its
//! lowered [`RuleProgram`](crate::exec::RuleProgram)). Debug builds also
//! compile the recursive tree walker (`tree`), the VM's oracle, and replay
//! every VM application, probe and binding enumeration on it, asserting
//! dense-storage equality; release builds carry no tree code.

use crate::exec::{self, ExecEnv};
use crate::govern::Governor;
use crate::index::IndexSet;
use crate::interp::Interp;
use crate::plan::{CTerm, Plan, PredRef, Source, Step};
use crate::resolve::{CompiledProgram, RulePlans};
#[cfg(debug_assertions)]
use crate::tree;
use crate::Result;
use inflog_core::failpoints::SITE_INDEX_EXTEND;
use inflog_core::{Const, Database, Relation, Tuple};
use std::sync::{PoisonError, RwLock};

/// Evaluation context: materialized EDB relations, the universe size, and
/// the persistent hash-join indexes.
///
/// The context outlives every round of a fixpoint iteration, so the
/// [`IndexSet`] it owns persists across Θ applications: EDB indexes are
/// built exactly once, and IDB indexes are extended incrementally from each
/// round's newly derived tuples instead of being rebuilt from scratch.
#[derive(Debug)]
pub struct EvalContext {
    /// EDB relations by EDB id (absent in the database = empty).
    pub edb: Vec<Relation>,
    /// `|A|` — the range of `Domain` plan steps.
    pub universe_size: usize,
    /// Persistent indexes, maintained across Θ applications. The lock lets
    /// the read-only evaluation entry points keep their `&EvalContext`
    /// signatures while the cache warms.
    indexes: RwLock<IndexSet>,
}

impl EvalContext {
    /// Builds a context for `cp` over `db`.
    ///
    /// # Errors
    /// Propagates arity conflicts between the program and the database.
    pub fn new(cp: &CompiledProgram, db: &Database) -> Result<Self> {
        Ok(EvalContext {
            edb: cp.edb_relations(db)?,
            universe_size: db.universe_size(),
            indexes: RwLock::new(IndexSet::default()),
        })
    }

    /// Number of persistent indexes currently held (observability / tests).
    pub fn num_indexes(&self) -> usize {
        self.read_indexes().len()
    }

    /// Takes the shared read guard, recovering from lock poisoning: the
    /// index set is pure derived data, so if a writer panicked mid-update
    /// the whole cache is dropped (and rebuilt lazily by the next
    /// application's prepare step) instead of serving a possibly-torn index.
    fn read_indexes(&self) -> std::sync::RwLockReadGuard<'_, IndexSet> {
        match self.indexes.read() {
            Ok(guard) => guard,
            Err(_) => {
                {
                    let mut w = self.indexes.write().unwrap_or_else(PoisonError::into_inner);
                    *w = IndexSet::default();
                }
                self.indexes.clear_poison();
                self.indexes.read().unwrap_or_else(PoisonError::into_inner)
            }
        }
    }

    /// Takes the write guard, recovering from lock poisoning the same way
    /// as [`read_indexes`](Self::read_indexes): clear the cache, clear the
    /// poison flag, continue.
    fn write_indexes(&self) -> std::sync::RwLockWriteGuard<'_, IndexSet> {
        match self.indexes.write() {
            Ok(guard) => guard,
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                *guard = IndexSet::default();
                self.indexes.clear_poison();
                guard
            }
        }
    }

    /// Runs [`IndexSet::debug_validate`] over this context's indexes for
    /// `rel`: postings must be sorted and complete. Test/debug aid for the
    /// patch/rollback paths the incremental well-founded engine exercises.
    ///
    /// # Panics
    /// Panics if any index over `rel` violates the invariant.
    pub fn debug_validate_indexes(&self, rel: &Relation) {
        self.read_indexes().debug_validate(rel);
    }

    /// Removes `t` from `rel` while keeping this context's indexes over it
    /// consistent (patched in place, not rebuilt). Returns whether the tuple
    /// was present.
    ///
    /// This is the deletion primitive of the incremental well-founded
    /// engine: the decreasing side loses a handful of tuples per
    /// alternation, and rebuilding its indexes each time would cost more
    /// than the alternation itself.
    ///
    /// Returns the dense positions the swap-remove touched (see
    /// [`Relation::remove_tracked`]) so transactional callers can undo the
    /// removal with [`Relation::restore_swap_removed`], or `None` if the
    /// tuple was absent.
    pub(crate) fn remove_patched(&self, rel: &mut Relation, t: &Tuple) -> Option<(usize, usize)> {
        let old_len = rel.len();
        let (removed_pos, moved_from) = rel.remove_tracked(t)?;
        self.write_indexes()
            .patch_swap_remove(rel, t, removed_pos, moved_from, old_len);
        Some((removed_pos, moved_from))
    }

    /// Drops every index over the relation id `rel_id`. For callers about to
    /// retire that id ([`Relation::refresh_id`]): nothing can probe the
    /// postings again, and each holds memory proportional to its relation.
    pub(crate) fn forget_indexes(&self, rel_id: u64) {
        self.write_indexes().forget(rel_id);
    }

    /// Removes `t` from the EDB relation `edb_id` while keeping the indexes
    /// over it consistent, like [`EvalContext::remove_patched`] but for the
    /// context's own relations. The materialized-view repair path retracts
    /// base facts through this so the warm EDB indexes survive the update;
    /// the returned swap positions feed its rollback log.
    pub(crate) fn remove_edb_patched(
        &mut self,
        edb_id: usize,
        t: &Tuple,
    ) -> Option<(usize, usize)> {
        let rel = &mut self.edb[edb_id];
        let old_len = rel.len();
        let (removed_pos, moved_from) = rel.remove_tracked(t)?;
        self.indexes
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .patch_swap_remove(rel, t, removed_pos, moved_from, old_len);
        Some((removed_pos, moved_from))
    }
}

impl Clone for EvalContext {
    fn clone(&self) -> Self {
        EvalContext {
            edb: self.edb.clone(),
            universe_size: self.universe_size,
            // The warmed indexes are keyed by relation id and every cloned
            // relation gets a fresh id, so copying them would only carry
            // dead weight that misses on every probe — start empty.
            indexes: RwLock::new(IndexSet::default()),
        }
    }
}

/// Which plan set of each rule an application executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlanKind {
    /// The full body plan.
    Full,
    /// One delta plan per positive IDB atom occurrence (semi-naive rounds);
    /// the delta interpretation holds the last round's new tuples.
    PosDelta,
    /// One delta plan per negated IDB atom occurrence (the incremental
    /// alternating fixpoint's restart round); the delta interpretation holds
    /// the tuples that just *left* the frozen negation context.
    NegDelta,
    /// One delta plan per positive **EDB** atom occurrence (materialized
    /// view repair); the delta is **EDB-shaped** — indexed by EDB id — and
    /// holds the facts just inserted into the extensional database.
    EdbDelta,
    /// One delta plan per negated **EDB** atom occurrence (materialized view
    /// repair); the EDB-shaped delta holds retracted facts (damage
    /// enumeration) or inserted facts (top-up seeding), with the driven
    /// occurrence consumed exactly like [`PlanKind::NegDelta`].
    EdbNegDelta,
}

/// Where [`Source::Delta`] scans read their tuples.
///
/// The delta-first invariant makes every delta occurrence an **unkeyed
/// leading scan** — deltas are never probed, never membership-checked and
/// never indexed — so a delta only has to be a tuple slice, not a relation.
/// That lets semi-naive round drivers skip materializing Δ entirely: the
/// tuples a round adds are exactly the dense suffix `s` grew by, and
/// [`DeltaSource::Suffix`] points straight at it (no per-tuple clone, no
/// hash insert, no dedup — the suffix is new by construction).
#[derive(Clone, Copy)]
pub(crate) enum DeltaSource<'a> {
    /// A materialized delta interpretation (IDB-shaped for
    /// [`PlanKind::PosDelta`]/[`PlanKind::NegDelta`], EDB-shaped for the
    /// view-maintenance plan kinds).
    Interp(&'a Interp),
    /// The delta is the dense suffix of the live interpretation `s`,
    /// starting at these per-IDB-relation marks.
    Suffix(&'a [usize]),
}

/// Resolves the tuples a [`Source::Delta`] scan iterates.
pub(crate) fn delta_scan_tuples<'a>(
    s: &'a Interp,
    delta: Option<DeltaSource<'a>>,
    pred: PredRef,
) -> &'a [Tuple] {
    let delta = delta.expect("delta scan outside a delta application");
    match (delta, pred) {
        // The materialized delta is shaped for the plan kind being run:
        // IDB-indexed for Pos/NegDelta plans, EDB-indexed for Edb*Delta
        // plans. One application only ever resolves one of the two shapes,
        // since each plan kind drives deltas through one predicate class.
        (DeltaSource::Interp(d), PredRef::Edb(i) | PredRef::Idb(i)) => d.get(i).dense(),
        (DeltaSource::Suffix(marks), PredRef::Idb(i)) => &s.get(i).dense()[marks[i]..],
        (DeltaSource::Suffix(_), PredRef::Edb(_)) => {
            unreachable!("suffix deltas are IDB-shaped (semi-naive rounds)")
        }
    }
}

/// Options threading through one Θ application.
struct ApplyOpts<'a> {
    /// Restrict to these rule indices (source order); `None` = all rules.
    rules: Option<&'a [usize]>,
    /// Which plan set to execute.
    plans: PlanKind,
    /// Resolves [`Source::Delta`] scans (the per-round delta for
    /// [`PlanKind::PosDelta`], the removed set for [`PlanKind::NegDelta`]).
    delta: Option<DeltaSource<'a>>,
    /// If set, negative IDB literals read this interpretation instead of `s`.
    neg: Option<&'a Interp>,
    /// Replanned plan sets indexed by source rule, overriding the compiled
    /// program's plans — the round driver re-plans per round against live
    /// relation cardinalities and executes through this.
    overrides: Option<&'a [RulePlans]>,
}

/// `Θ(S)`.
pub fn apply(cp: &CompiledProgram, ctx: &EvalContext, s: &Interp) -> Interp {
    run(
        cp,
        ctx,
        s,
        &ApplyOpts {
            rules: None,
            plans: PlanKind::Full,
            delta: None,
            neg: None,
            overrides: None,
        },
    )
}

/// `Θ(S)` with negative IDB literals evaluated against `neg` instead of `s`
/// (the well-founded Γ transform).
pub fn apply_with_neg(cp: &CompiledProgram, ctx: &EvalContext, s: &Interp, neg: &Interp) -> Interp {
    run(
        cp,
        ctx,
        s,
        &ApplyOpts {
            rules: None,
            plans: PlanKind::Full,
            delta: None,
            neg: Some(neg),
            overrides: None,
        },
    )
}

/// Fully general Θ application (any combination of rule subset, delta
/// restriction and frozen negation context), written into a caller-owned
/// output buffer.
///
/// `out` is cleared first ([`Relation::clear`] keeps its allocations), so a
/// round driver can reuse one scratch interpretation across every round of a
/// fixpoint instead of allocating fresh relations per application.
///
/// `gov` is the round driver's resource governor: emissions are reported to
/// it from the VM's inner loop and the `index-extend` failpoint fires
/// here. On any `Err` the contents of `out` are unspecified (partially
/// filled) and must be discarded by the caller.
///
/// # Errors
/// Budget/cancellation/failpoint errors when `gov` tripped.
#[allow(clippy::too_many_arguments)]
pub(crate) fn apply_general_into(
    cp: &CompiledProgram,
    ctx: &EvalContext,
    s: &Interp,
    rules: Option<&[usize]>,
    plans: PlanKind,
    delta: Option<DeltaSource<'_>>,
    neg: Option<&Interp>,
    overrides: Option<&[RulePlans]>,
    out: &mut Interp,
    gov: Option<&Governor>,
) -> Result<()> {
    debug_assert_eq!(
        plans == PlanKind::Full,
        delta.is_none(),
        "delta interpretations accompany exactly the delta plan kinds"
    );
    debug_assert!(
        overrides.is_none_or(|o| o.len() == cp.rules.len()),
        "plan overrides must cover every rule"
    );
    run_into(
        cp,
        ctx,
        s,
        &ApplyOpts {
            rules,
            plans,
            delta,
            neg,
            overrides,
        },
        out,
        gov,
    )
}

/// Resolves a plan's **full-source** relation reference against the
/// evaluation state. [`Source::Delta`] never resolves to a relation — the
/// delta-first invariant keeps deltas as unkeyed leading scans, so delta
/// tuples flow through [`delta_scan_tuples`] as plain slices.
pub(crate) fn resolve_relation<'a>(
    ctx: &'a EvalContext,
    s: &'a Interp,
    pred: PredRef,
    source: Source,
) -> &'a Relation {
    debug_assert_eq!(
        source,
        Source::Full,
        "delta sources are scanned as slices, never resolved as relations"
    );
    match pred {
        PredRef::Edb(i) => &ctx.edb[i],
        PredRef::Idb(i) => s.get(i),
    }
}

/// Registers (and incrementally refreshes) the indexes `plan`'s keyed scans
/// will probe. Called once per plan per Θ application, before execution
/// starts — the only point at which the index set is written.
fn prepare_plan(indexes: &mut IndexSet, plan: &Plan, ctx: &EvalContext, s: &Interp) {
    for step in &plan.steps {
        if let Step::Scan {
            pred,
            source,
            key_cols,
            ..
        } = step
        {
            if !key_cols.is_empty() {
                // Keyed scans are never delta scans (the delta-first
                // invariant), so the relation always resolves.
                indexes.ensure(resolve_relation(ctx, s, *pred, *source), key_cols);
            }
        }
    }
}

/// Enumerates every variable binding that satisfies a plan containing **no
/// IDB references** (positive EDB atoms, EDB negations, equalities,
/// inequalities and `Domain` steps only).
///
/// The plan's head must be the identity tuple over all rule variables, so
/// the emitted tuples *are* the bindings. Program grounding (the fixpoint
/// completion encoding of §3) uses this to enumerate rule instantiations
/// with the extensional part already evaluated away.
///
/// # Panics
/// Panics (in debug builds) if the plan references IDB relations.
pub fn enumerate_bindings(plan: &Plan, ctx: &EvalContext) -> Vec<Tuple> {
    debug_assert!(
        plan.steps.iter().all(|s| !matches!(
            s,
            Step::Scan {
                pred: PredRef::Idb(_),
                ..
            } | Step::FilterPos {
                pred: PredRef::Idb(_),
                ..
            } | Step::FilterNeg {
                pred: PredRef::Idb(_),
                ..
            }
        )),
        "grounding plans must not reference IDB relations"
    );
    let empty = Interp::from_relations(Vec::new());
    let mut out = Relation::new(plan.num_vars);
    {
        let mut indexes = ctx.write_indexes();
        indexes.begin_application();
        prepare_plan(&mut indexes, plan, ctx, &empty);
    }
    let indexes = ctx.read_indexes();
    let env = ExecEnv {
        ctx,
        s: &empty,
        delta: None,
        neg: &empty,
        indexes: &indexes,
        gov: None,
    };
    exec::run_program(&env, &plan.program, &mut out);
    #[cfg(debug_assertions)]
    {
        let mut oracle = Relation::new(plan.num_vars);
        tree::run_plan(&env, plan, &mut oracle);
        assert_eq!(
            out.dense(),
            oracle.dense(),
            "VM diverged from the tree oracle in enumerate_bindings"
        );
    }
    out.sorted()
}

/// Synchronizes the persistent indexes probed by the **check plans** with
/// the current state of `s` (and the EDB). Call before a
/// [`with_witnesses`] search; between searches, only relations that grew
/// need to be (and are) consumed incrementally.
pub(crate) fn sync_check_indexes(cp: &CompiledProgram, ctx: &EvalContext, s: &Interp) {
    let mut indexes = ctx.write_indexes();
    indexes.begin_application();
    for rule in &cp.rules {
        prepare_plan(&mut indexes, &rule.check_plan, ctx, s);
    }
}

/// The check plans of every rule, resolved once against an unmutated `s`:
/// the backward step of the retract routine's proof search. Each check
/// runs with the head variables pre-bound from the tuple, so body atoms
/// probe the persistent hash-join indexes, and resolving each rule's check
/// program once serves every tuple of the search. Build it with
/// [`with_witnesses`].
pub(crate) struct Witnesses<'a> {
    cp: &'a CompiledProgram,
    env: ExecEnv<'a>,
    resolved: Vec<exec::ResolvedProgram<'a>>,
    vals: Vec<Const>,
    bound: Vec<bool>,
}

/// Runs `search` with the [`Witnesses`] of `cp`'s rules over `s`, positive
/// IDB literals reading `s` and negated ones `neg`. Prepare the indexes
/// with [`sync_check_indexes`] first; `s` cannot change while `search`
/// runs.
pub(crate) fn with_witnesses<R>(
    cp: &CompiledProgram,
    ctx: &EvalContext,
    s: &Interp,
    neg: &Interp,
    search: impl FnOnce(&mut Witnesses<'_>) -> R,
) -> R {
    let indexes = ctx.read_indexes();
    let env = ExecEnv {
        ctx,
        s,
        delta: None,
        neg,
        indexes: &indexes,
        gov: None,
    };
    let resolved = cp
        .rules
        .iter()
        .map(|r| exec::resolve_program(&env, &r.check_plan.program))
        .collect();
    search(&mut Witnesses {
        cp,
        env,
        resolved,
        vals: Vec::new(),
        bound: Vec::new(),
    })
}

impl Witnesses<'_> {
    /// Calls `visit(rule, registers)` for every instance of a rule with head
    /// `pred` that derives `tuple` over the state — the registers hold the
    /// rule's variables by slot — until `visit` returns `true`.
    pub(crate) fn each(
        &mut self,
        pred: usize,
        tuple: &Tuple,
        mut visit: impl FnMut(usize, &[Const]) -> bool,
    ) {
        for (ri, rule) in self.cp.rules.iter().enumerate() {
            if rule.head_pred != pred {
                continue;
            }
            self.vals.clear();
            self.vals.resize(rule.num_vars, Const(0));
            self.bound.clear();
            self.bound.resize(rule.num_vars, false);
            if !unify_head(&rule.head_terms, tuple, &mut self.vals, &mut self.bound) {
                continue;
            }
            #[cfg(debug_assertions)]
            let expected = tree::probe_plan(
                &self.env,
                &rule.check_plan,
                &mut self.vals.clone(),
                &mut self.bound.clone(),
            );
            #[cfg(debug_assertions)]
            let mut any = false;
            let mut stop = false;
            self.resolved[ri].for_each_witness(&self.env, &mut self.vals, &mut |regs| {
                #[cfg(debug_assertions)]
                {
                    any = true;
                }
                stop = visit(ri, regs);
                stop
            });
            #[cfg(debug_assertions)]
            assert_eq!(
                any, expected,
                "VM witnesses diverged from the tree oracle's probe"
            );
            if stop {
                return;
            }
        }
    }
}

/// Unifies a rule head against a concrete tuple, binding head variables.
/// Fails on constant mismatches and on inconsistent repeated variables.
fn unify_head(head: &[CTerm], tuple: &Tuple, vals: &mut [Const], bound: &mut [bool]) -> bool {
    debug_assert_eq!(head.len(), tuple.arity());
    for (term, &c) in head.iter().zip(tuple.items()) {
        match term {
            CTerm::Const(k) => {
                if *k != c {
                    return false;
                }
            }
            CTerm::Var(v) => {
                if bound[*v] {
                    if vals[*v] != c {
                        return false;
                    }
                } else {
                    vals[*v] = c;
                    bound[*v] = true;
                }
            }
        }
    }
    true
}

fn run(cp: &CompiledProgram, ctx: &EvalContext, s: &Interp, opts: &ApplyOpts<'_>) -> Interp {
    let mut out = cp.empty_interp();
    run_into(cp, ctx, s, opts, &mut out, None).expect("ungoverned application cannot fail");
    out
}

fn run_into(
    cp: &CompiledProgram,
    ctx: &EvalContext,
    s: &Interp,
    opts: &ApplyOpts<'_>,
    out: &mut Interp,
    gov: Option<&Governor>,
) -> Result<()> {
    // Demote an inert governor to `None` up front so the VM's inner loop
    // pays nothing when no budget, token or failpoint is armed.
    let gov = gov.and_then(Governor::as_active);

    for i in 0..out.len() {
        out.get_mut(i).clear();
    }

    let all_indices: Vec<usize>;
    let selected: &[usize] = match opts.rules {
        Some(r) => r,
        None => {
            all_indices = (0..cp.rules.len()).collect();
            &all_indices
        }
    };

    // Bring every index the selected plans probe up to date with the
    // relations as of this application (incremental: only the dense suffix
    // added since the last application is consumed). Execution then only
    // *reads* the index set, so probes return borrowed slices under one
    // read guard.
    if let Some(g) = gov {
        g.fail_at(SITE_INDEX_EXTEND)?;
    }
    {
        let mut indexes = ctx.write_indexes();
        indexes.begin_application();
        for &ri in selected {
            for plan in plans_of(cp, ri, opts.overrides, opts.plans) {
                prepare_plan(&mut indexes, plan, ctx, s);
            }
        }
    }
    let indexes = ctx.read_indexes();
    let env = ExecEnv {
        ctx,
        s,
        delta: opts.delta,
        neg: opts.neg.unwrap_or(s),
        indexes: &indexes,
        gov,
    };

    'rules: for &ri in selected {
        let rule = &cp.rules[ri];
        for plan in plans_of(cp, ri, opts.overrides, opts.plans) {
            exec::run_program(&env, &plan.program, out.get_mut(rule.head_pred));
            if gov.is_some_and(Governor::tripped) {
                break 'rules;
            }
        }
    }

    // Surface any mid-application trip (budget, cancellation, failpoint)
    // before the debug oracle below: a tripped application truncated its
    // output, so replaying it whole would report a false divergence. The
    // caller discards `out` on `Err`.
    if let Some(g) = gov {
        g.check()?;
    }

    // Debug oracle: replay every VM application on the tree executor and
    // require bit-identical dense storage — same tuples, same insertion
    // order. This is the standing proof obligation that lowering preserved
    // the candidate order exactly. The replay runs ungoverned so it cannot
    // double-count emissions or re-fire one-shot failpoints.
    #[cfg(debug_assertions)]
    {
        let oracle_env = ExecEnv {
            ctx,
            s,
            delta: opts.delta,
            neg: opts.neg.unwrap_or(s),
            indexes: &indexes,
            gov: None,
        };
        let mut oracle = Interp::from_relations(
            (0..out.len())
                .map(|i| Relation::new(out.get(i).arity()))
                .collect(),
        );
        for &ri in selected {
            let rule = &cp.rules[ri];
            for plan in plans_of(cp, ri, opts.overrides, opts.plans) {
                tree::run_plan(&oracle_env, plan, oracle.get_mut(rule.head_pred));
            }
        }
        for i in 0..out.len() {
            assert_eq!(
                out.get(i).dense(),
                oracle.get(i).dense(),
                "VM diverged from the tree oracle on relation {i}"
            );
        }
    }
    Ok(())
}

/// The plan set of rule `ri` that a [`PlanKind`] application executes —
/// from the per-round overrides when the caller replanned, otherwise the
/// compiled program's compile-time plans.
fn plans_of<'a>(
    cp: &'a CompiledProgram,
    ri: usize,
    overrides: Option<&'a [RulePlans]>,
    kind: PlanKind,
) -> &'a [Plan] {
    match (overrides, kind) {
        (Some(o), PlanKind::Full) => std::slice::from_ref(&o[ri].full),
        (Some(o), PlanKind::PosDelta) => &o[ri].delta,
        (Some(o), PlanKind::NegDelta) => &o[ri].neg_delta,
        (Some(o), PlanKind::EdbDelta) => &o[ri].edb_delta,
        (Some(o), PlanKind::EdbNegDelta) => &o[ri].edb_neg_delta,
        (None, PlanKind::Full) => std::slice::from_ref(&cp.rules[ri].full_plan),
        (None, PlanKind::PosDelta) => &cp.rules[ri].delta_plans,
        (None, PlanKind::NegDelta) => &cp.rules[ri].neg_delta_plans,
        (None, PlanKind::EdbDelta) => &cp.rules[ri].edb_delta_plans,
        (None, PlanKind::EdbNegDelta) => &cp.rules[ri].edb_neg_delta_plans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inflog_core::graphs::DiGraph;
    use inflog_syntax::parse_program;

    fn setup(src: &str, db: &Database) -> (CompiledProgram, EvalContext) {
        let p = parse_program(src).unwrap();
        let cp = CompiledProgram::compile(&p, db).unwrap();
        let ctx = EvalContext::new(&cp, db).unwrap();
        (cp, ctx)
    }

    fn t1(x: u32) -> Tuple {
        Tuple::from_ids(&[x])
    }

    fn t2(x: u32, y: u32) -> Tuple {
        Tuple::from_ids(&[x, y])
    }

    #[test]
    fn eval_context_is_send_and_sync() {
        // Published epochs share interpretations and compiled programs
        // across reader threads, and a materialized handle moves its context
        // to the writer thread; this fails to compile if interior mutability
        // ever takes `Sync` away again.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EvalContext>();
        assert_send_sync::<Interp>();
        assert_send_sync::<CompiledProgram>();
    }

    #[test]
    fn theta_of_pi1_on_empty_t() {
        // Paper §2: for pi_1 on D=(A,E), Θ(T) = {a : ∃y (E(y,a) ∧ ¬T(y))}.
        // With T = ∅: every vertex with an incoming edge.
        let db = DiGraph::path(4).to_database("E");
        let (cp, ctx) = setup("T(x) :- E(y, x), !T(y).", &db);
        let theta = apply(&cp, &ctx, &cp.empty_interp());
        let tid = cp.idb_id("T").unwrap();
        assert_eq!(theta.get(tid).sorted(), vec![t1(1), t1(2), t1(3)]);
    }

    #[test]
    fn theta_fixpoint_check_on_path() {
        // On L_4 (vertices v0..v3), the unique fixpoint of pi_1 is {v1, v3}
        // (the paper's {2, 4, ...} in 1-based numbering).
        let db = DiGraph::path(4).to_database("E");
        let (cp, ctx) = setup("T(x) :- E(y, x), !T(y).", &db);
        let tid = cp.idb_id("T").unwrap();
        let mut fix = cp.empty_interp();
        fix.insert(tid, t1(1));
        fix.insert(tid, t1(3));
        assert_eq!(apply(&cp, &ctx, &fix), fix);
        // And {v1, v2} is not a fixpoint.
        let mut not_fix = cp.empty_interp();
        not_fix.insert(tid, t1(1));
        not_fix.insert(tid, t1(2));
        assert_ne!(apply(&cp, &ctx, &not_fix), not_fix);
    }

    #[test]
    fn toggle_rule_has_no_fixpoint_on_nonempty_universe() {
        // T(z) <- !T(w): Θ(∅) = A, Θ(A) = ∅ — the paper's "toggle".
        let mut db = Database::new();
        db.universe_mut().intern("a");
        db.universe_mut().intern("b");
        let (cp, ctx) = setup("T(z) :- !T(w).", &db);
        let empty = cp.empty_interp();
        let theta1 = apply(&cp, &ctx, &empty);
        assert_eq!(theta1.total_tuples(), 2); // T = A
        let theta2 = apply(&cp, &ctx, &theta1);
        assert!(theta2.all_empty()); // back to ∅
    }

    #[test]
    fn tc_single_application() {
        let db = DiGraph::path(3).to_database("E");
        let (cp, ctx) = setup("S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).", &db);
        let sid = cp.idb_id("S").unwrap();
        let s1 = apply(&cp, &ctx, &cp.empty_interp());
        assert_eq!(s1.get(sid).sorted(), vec![t2(0, 1), t2(1, 2)]);
        let s2 = apply(&cp, &ctx, &s1);
        assert_eq!(s2.get(sid).sorted(), vec![t2(0, 1), t2(0, 2), t2(1, 2)]);
    }

    #[test]
    fn constants_in_heads_range_free_vars() {
        // G(z, 1) <- . over a 2-element universe {0, 1}.
        let mut db = Database::new();
        db.universe_mut().intern("0");
        db.universe_mut().intern("1");
        let (cp, ctx) = setup("G(z, 1).", &db);
        let g = cp.idb_id("G").unwrap();
        let theta = apply(&cp, &ctx, &cp.empty_interp());
        assert_eq!(theta.get(g).sorted(), vec![t2(0, 1), t2(1, 1)]);
    }

    #[test]
    fn zero_ary_predicates() {
        let mut db = Database::new();
        db.universe_mut().intern("a");
        let (cp, ctx) = setup("Win :- !Lose. Lose :- Lose.", &db);
        let win = cp.idb_id("Win").unwrap();
        let lose = cp.idb_id("Lose").unwrap();
        let theta = apply(&cp, &ctx, &cp.empty_interp());
        assert_eq!(theta.get(win).len(), 1);
        assert_eq!(theta.get(lose).len(), 0);
        // With Lose set, Win is not derived.
        let mut s = cp.empty_interp();
        s.insert(lose, Tuple::empty());
        let theta = apply(&cp, &ctx, &s);
        assert!(theta.get(win).is_empty());
        assert!(!theta.get(lose).is_empty());
    }

    #[test]
    fn inequality_filters() {
        let db = DiGraph::complete(3).to_database("E");
        let (cp, ctx) = setup("P(x, y) :- E(x, y), x != y.", &db);
        let p = cp.idb_id("P").unwrap();
        let theta = apply(&cp, &ctx, &cp.empty_interp());
        assert_eq!(theta.get(p).len(), 6); // complete(3) has no self-loops anyway
        let db2 = DiGraph::cycle(1).to_database("E"); // self-loop only
        let (cp2, ctx2) = setup("P(x, y) :- E(x, y), x != y.", &db2);
        assert!(apply(&cp2, &ctx2, &cp2.empty_interp()).all_empty());
    }

    #[test]
    fn apply_subset_respects_rule_choice() {
        let db = DiGraph::path(3).to_database("E");
        let (cp, ctx) = setup("S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).", &db);
        let sid = cp.idb_id("S").unwrap();
        let only = |rules: &[usize]| {
            let opts = ApplyOpts {
                rules: Some(rules),
                plans: PlanKind::Full,
                delta: None,
                neg: None,
                overrides: None,
            };
            run(&cp, &ctx, &cp.empty_interp(), &opts)
        };
        // Only the recursive rule, from empty: derives nothing.
        assert!(only(&[1]).get(sid).is_empty());
        // Only the base rule: the edges.
        assert_eq!(only(&[0]).get(sid).len(), 2);
    }

    #[test]
    fn apply_delta_matches_full_difference() {
        // Semi-naive invariant: new derivations from (S, Δ) where Δ = S
        // equal Θ(S) minus what Θ(∅)-style rules would rederive. Check the
        // weaker, sufficient property used by the engines:
        // Θ(S) ⊇ Θ_Δ(S, Δ=S) ⊇ Θ(S) \ Θ(S⁻) for the TC program.
        let db = DiGraph::path(4).to_database("E");
        let (cp, ctx) = setup("S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).", &db);
        let s1 = apply(&cp, &ctx, &cp.empty_interp());
        let full2 = apply(&cp, &ctx, &s1);
        let opts = ApplyOpts {
            rules: None,
            plans: PlanKind::PosDelta,
            delta: Some(DeltaSource::Interp(&s1)),
            neg: None,
            overrides: None,
        };
        let delta2 = run(&cp, &ctx, &s1, &opts);
        // Everything the delta pass derives is derivable by the full pass.
        assert!(delta2.is_subset(&full2));
        // And it covers all *new* tuples.
        let new = full2.difference(&s1);
        assert!(new.is_subset(&delta2));
    }

    #[test]
    fn apply_with_neg_separates_contexts() {
        // T(x) <- V(x), !U(x);  U(x) <- V(x), !T(x).
        let mut db = Database::new();
        db.insert_named_fact("V", &["a"]).unwrap();
        let (cp, ctx) = setup("T(x) :- V(x), !U(x). U(x) :- V(x), !T(x).", &db);
        let tid = cp.idb_id("T").unwrap();
        let uid = cp.idb_id("U").unwrap();
        // neg context = full: nothing derivable.
        let full = cp.full_interp(db.universe_size());
        let r = apply_with_neg(&cp, &ctx, &cp.empty_interp(), &full);
        assert!(r.all_empty());
        // neg context = empty: both derivable.
        let r = apply_with_neg(&cp, &ctx, &cp.empty_interp(), &cp.empty_interp());
        assert_eq!(r.get(tid).len(), 1);
        assert_eq!(r.get(uid).len(), 1);
    }

    #[test]
    fn equality_join() {
        let db = DiGraph::path(3).to_database("E");
        let (cp, ctx) = setup("P(x) :- E(x, y), E(y, z), y = z.", &db);
        // y = z requires an edge y->y (self-loop): none on a path.
        assert!(apply(&cp, &ctx, &cp.empty_interp()).all_empty());
        let db2 = DiGraph::cycle(1).to_database("E");
        let (cp2, ctx2) = setup("P(x) :- E(x, y), E(y, z), y = z.", &db2);
        assert_eq!(apply(&cp2, &ctx2, &cp2.empty_interp()).total_tuples(), 1);
    }

    #[test]
    fn repeated_variables_in_atom() {
        // P(x) <- E(x, x): only self-loops match.
        let mut g = DiGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(2, 2);
        let db = g.to_database("E");
        let (cp, ctx) = setup("P(x) :- E(x, x).", &db);
        let p = cp.idb_id("P").unwrap();
        let theta = apply(&cp, &ctx, &cp.empty_interp());
        assert_eq!(theta.get(p).sorted(), vec![t1(2)]);
    }

    #[test]
    fn empty_universe_yields_empty_results() {
        let db = Database::new();
        let (cp, ctx) = setup("T(z) :- !T(w).", &db);
        // With A = ∅ even the toggle rule derives nothing.
        assert!(apply(&cp, &ctx, &cp.empty_interp()).all_empty());
    }
}
