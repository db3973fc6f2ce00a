//! Well-founded semantics, by component, with an **incremental**
//! alternating fixpoint inside each cycle through negation.
//!
//! An extension beyond the paper's text: the negation-semantics landscape the
//! paper's introduction surveys (negation as failure, stratified semantics)
//! developed into the well-founded semantics, which — like Inflationary
//! DATALOG — assigns a meaning to *every* DATALOG¬ program, but a 3-valued
//! one. Experiment E9 compares all the semantics side by side.
//!
//! # The alternating fixpoint
//!
//! Let `Γ(J)` be the least fixpoint of the *positivized* operator in which
//! negative IDB literals are evaluated against the fixed interpretation `J`.
//! `Γ` is antimonotone, so `Γ²` is monotone:
//!
//! * true facts `T*` = least fixpoint of `Γ²` (iterate `T_{k+1} = Γ(Γ(T_k))`
//!   from ∅, i.e. `U_k = Γ(T_k)`, `T_{k+1} = Γ(U_k)`);
//! * possible facts `U*` = `Γ(T*)` (the greatest fixpoint of `Γ²`);
//! * undefined = `U* \ T*`; false = everything else.
//!
//! For stratified programs the result is total (no undefined facts) and
//! coincides with the perfect model.
//!
//! # Construction by component
//!
//! The engine never alternates over the whole program. It walks the
//! components of the signed predicate dependency graph
//! (`CompiledProgram`'s `components`) dependencies first, keeping `T` and
//! `U` as whole-program interpretations. When a component `C` comes up,
//! every predicate `C` reads from below is final in both `T` and `U`:
//!
//! * **No negative cycle in `C`.** Every negated IDB literal in `C`'s rules
//!   names a lower predicate, so `C`'s part of `Γ(J)` depends on `J` only
//!   through the final lower part. At the fixpoint `U* = Γ(T*)` and
//!   `T* = Γ(U*)`, so `C`'s possible facts are one least fixpoint of its
//!   rules reading positive atoms from `U` and negations against `T`, and
//!   its true facts one least fixpoint reading positive atoms from `T` and
//!   negations against `U`. Two monotone fixpoints, no alternation.
//! * **Negative cycle in `C`.** `C` alternates on its own: the sequence
//!   `U_k = Γ_C(T_k)`, `T_{k+1} = Γ_C(U_k)` from `T_0 = ∅`, where `Γ_C`
//!   runs only `C`'s rules over the frozen lower part. It reaches `C`'s
//!   part of the well-founded model.
//!
//! Both cases are the splitting property of the well-founded semantics:
//! with the lower part fixed, the rest of the program has the model it
//! would have with the lower atoms given as (three-valued) facts. Ésik and
//! Rondogiannis (*A Fixed Point Theorem for Non-Monotonic Functions*,
//! PAPERS.md) prove the construction by levels gives the same model. The
//! payoff is that a large stratified part above or beside a small negative
//! cycle is evaluated twice, not once per alternation.
//!
//! **`U` is kept only from the first negative cycle on.** Below the first
//! component with a negative cycle every predicate is total, so `T` and
//! `U` agree and the two fixpoints of a component are one: its rules'
//! least fixpoint with negations read from `T` itself, as stratified
//! evaluation computes it. The walk keeps `U` unmaterialized there and runs that
//! one fixpoint per component, recording its rounds in an optional
//! [`EvalTrace`]. At the first negative cycle `U` starts as a copy of `T`
//! and both sides go on as above. On a stratified program `U` never
//! materializes: the walk *is* stratified evaluation, and
//! `Engine::Stratified` is its prerequisite check plus this walk. The
//! materialized handle's recovery runs the same walk into its model, and
//! its repair visits the same components in the same order.
//!
//! [`WellFoundedModel::alternations`] is the largest alternation count of
//! any negative-cycle component (1 when there is none).
//!
//! # Incremental evaluation inside a negative cycle
//!
//! Naively, every `Γ_C` is a fresh least fixpoint from ∅. Here each
//! alternation costs work proportional to what *changed*, and none of it
//! changes the result: the `T_k`/`U_k` sequences — hence the model and the
//! alternation count — are those of the naive alternation. (In debug builds
//! every alternation is re-verified against a naive `Γ_C`.) Every step below
//! runs only the component's rules and touches only its predicates.
//!
//! 1. **Semi-naive Γ.** With negations frozen at `J`, the positivized
//!    operator is monotone in `S`, so the standard delta argument applies
//!    verbatim and each inner fixpoint runs delta rounds via the shared
//!    [`DeltaDriver`] (its Θ step is the delta plans with negations read
//!    from the frozen `J`).
//!
//! 2. **Warm-started T.** The true side is increasing:
//!    `T_k ⊆ T_{k+1} = lfp(Γ_{U_k})`, because `Γ²` is monotone and the
//!    iteration starts at ∅. Seeding a monotone least-fixpoint iteration
//!    from any *subset of its fixpoint* is sound: from `S₀ ⊆ lfp`, every
//!    accumulating round stays `⊆ lfp` (monotonicity, induction), and the
//!    stable limit is a pre-fixpoint, hence `⊇ lfp` (Knaster–Tarski) — so
//!    it *is* `lfp`. `T` therefore grows in one interpretation across the
//!    whole run. Better: `T_k` is the fixpoint of the *previous* context
//!    `U_{k-1}`, and only `J` shrank, so a first-round derivation new under
//!    `U_k` must use a negated IDB literal whose atom is in
//!    `U_{k-1} \ U_k` — [`DeltaDriver::extend_from_removed`] restarts the
//!    fixpoint from exactly those (no full Θ application at all).
//!
//! 3. **U by retract.** `U` is decreasing (`U_k ⊆ U_{k-1}`), so instead
//!    of recomputing `lfp(Γ_{T_k})` the engine *retracts* from `U_{k-1}`
//!    in place, by the Backward/Forward routine the materialized handle
//!    repairs with (`proof.rs`), with the component as the unit in doubt:
//!    * **damage**: an instance alive under `T_{k-1}` dies only through a
//!      negated atom in `ΔT_k` — the rules' neg-delta plans, driven by
//!      `ΔT_k` with IDB negations evaluated permissively (an
//!      over-approximation is fine here), enumerate every possibly-dead
//!      head;
//!    * **prove and doom**: each damaged tuple is checked for a proof in
//!      `U_{k-1}` with negations frozen at `T_k`, from the final lower
//!      components and from `T_k`, which is known to hold (`T_k ⊆ U_k`).
//!      The tuples left without one, and whatever loses its last proof
//!      with them, are doomed and removed from `U` with [`EvalContext`]-
//!      patched deletions, so the persistent indexes stay warm instead of
//!      rebuilding.
//!
//!    Freezing more negation enables no rule instance, so nothing comes
//!    back: the doomed tuples are exactly `U_{k-1} \ U_k` — precisely the
//!    removed set the next `T` restart round needs.

use crate::driver::DeltaDriver;
use crate::govern::Governor;
use crate::interp::Interp;
use crate::materialize::Engine;
use crate::operator::{self, EvalContext};
use crate::options::EvalOptions;
use crate::proof;
use crate::resolve::{CompiledProgram, RuleComponent};
use crate::trace::EvalTrace;
use crate::Result;
use inflog_core::Database;
use inflog_syntax::Program;

/// The 3-valued well-founded model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WellFoundedModel {
    /// Facts true in the well-founded model (`T*`).
    pub true_facts: Interp,
    /// Facts undefined in the well-founded model (`U* \ T*`).
    pub undefined: Interp,
    /// The largest number of alternations any component with a cycle
    /// through negation ran until its `Γ²` stabilized; 1 when no component
    /// has one.
    pub alternations: usize,
}

impl WellFoundedModel {
    /// Whether the model is total (two-valued).
    pub fn is_total(&self) -> bool {
        self.undefined.total_tuples() == 0
    }
}

/// Computes the well-founded model, with [`EvalOptions::default`].
/// [`Engine::WellFounded`]'s [`evaluate`](Engine::evaluate) is the same
/// evaluation under explicit options.
///
/// # Errors
/// Compilation errors, or a fault injected by a failpoint armed through
/// `INFLOG_FAILPOINT` — the well-founded semantics itself is total on
/// programs.
pub fn well_founded(program: &Program, db: &Database) -> Result<WellFoundedModel> {
    let (cp, ctx) = Engine::WellFounded.prepare(program, db)?;
    well_founded_compiled_with(&cp, &ctx, &EvalOptions::default())
}

/// Computes the well-founded model over a compiled program, component by
/// component, incrementally inside negative cycles (see the module docs for
/// the construction and its soundness). The governed form checks budget,
/// cancellation and failpoints at every round boundary of every inner
/// fixpoint, at every alternation, at every round and search of the `U`
/// side's proof routine, every few thousand emitted tuples and every 256
/// proof checks. One budget spans the whole evaluation.
///
/// # Errors
/// [`EvalError::Cancelled`](crate::EvalError::Cancelled),
/// [`EvalError::BudgetExceeded`](crate::EvalError::BudgetExceeded), or
/// [`EvalError::FaultInjected`](crate::EvalError::FaultInjected) by an
/// armed failpoint.
pub(crate) fn well_founded_compiled_with(
    cp: &CompiledProgram,
    ctx: &EvalContext,
    opts: &EvalOptions,
) -> Result<WellFoundedModel> {
    let governor = Governor::new(opts);
    let mut t = cp.empty_interp();
    let (u, alternations) = walk(cp, ctx, &mut DeltaDriver::new(cp), &mut t, None, &governor)?;
    // T* ⊆ U* throughout, so equal sizes mean a total model — the common
    // case costs no difference pass at all; otherwise one pass over U*
    // clones exactly the undefined tuples.
    let undefined = match u {
        Some(u) if u.total_tuples() != t.total_tuples() => u.difference(&t),
        _ => cp.empty_interp(),
    };
    Ok(WellFoundedModel {
        undefined,
        true_facts: t,
        alternations,
    })
}

/// The one component walk (module docs): extends `t`, empty or holding a
/// model of the components already walked, through every component of
/// `cp` with `driver`. Returns the possible facts `U*` — `None` when no
/// component has a negative cycle, for then `U* = T*` — and the largest
/// alternation count. `trace` records the rounds of the components below
/// the first negative cycle.
///
/// # Errors
/// The governance errors of `governor`.
pub(crate) fn walk(
    cp: &CompiledProgram,
    ctx: &EvalContext,
    driver: &mut DeltaDriver,
    t: &mut Interp,
    mut trace: Option<&mut EvalTrace>,
    governor: &Governor,
) -> Result<(Option<Interp>, usize)> {
    // `t` grows and `u` shrinks monotonically inside each component (after
    // its first alternation); both keep their relation identities for the
    // rest of the run, so the context's persistent indexes stay warm.
    let mut u: Option<Interp> = None;
    let mut alternations = 1;
    for comp in &cp.components {
        let rules = Some(comp.rules.as_slice());
        if u.is_none() && !comp.has_negative_cycle {
            // Everything below is total: T_C = U_C is one fixpoint, its
            // negations reading the final lower part of `t`.
            driver.extend(cp, ctx, t, rules, None, trace.as_deref_mut(), governor)?;
            continue;
        }
        let u = u.get_or_insert_with(|| t.clone());
        if comp.has_negative_cycle {
            let k = alternate(cp, ctx, comp, driver, t, u, governor)?;
            alternations = alternations.max(k);
        } else {
            // The lower components are final: U_C = Γ_C(T), then T_C = Γ_C(U).
            driver.extend(cp, ctx, u, rules, Some(t), None, governor)?;
            driver.extend(cp, ctx, t, rules, Some(u), None, governor)?;
        }
    }
    Ok((u, alternations))
}

/// Runs the incremental alternating fixpoint of one component with a
/// negative cycle, over the final lower components in `t` and `u`, and
/// returns its alternation count.
fn alternate(
    cp: &CompiledProgram,
    ctx: &EvalContext,
    comp: &RuleComponent,
    driver: &mut DeltaDriver,
    t: &mut Interp,
    u: &mut Interp,
    governor: &Governor,
) -> Result<usize> {
    let gov = governor.as_active();
    let rules = Some(comp.rules.as_slice());
    let preds = &comp.preds;
    // Scratch, reused across alternations. Only the component's predicates
    // are ever filled, so a neg-delta plan scanning a lower predicate's
    // slot sees nothing there.
    let mut delta_t = cp.empty_interp(); // ΔT_k — drives damage enumeration
    let mut damage = cp.empty_interp();
    let empty_neg = cp.empty_interp(); // permissive negation context (damage)

    // Dense length of each predicate's `t` at the previous alternation.
    let mut t_marks = vec![0usize; preds.len()];
    let mut alternations = 1;

    // Alternation 1 (cold): U_0 = Γ_C(∅), then T_1 = Γ_C(U_0), both by
    // warm-seeded semi-naive Γ.
    driver.extend(cp, ctx, u, rules, Some(t), None, governor)?;
    let mut added = driver.extend(cp, ctx, t, rules, Some(u), None, governor)?;

    while added > 0 {
        if let Some(g) = gov {
            g.check_round()?;
        }
        // ΔT_k: the tuples T gained in the previous alternation.
        for (&i, mark) in preds.iter().zip(&mut t_marks) {
            let dt = delta_t.get_mut(i);
            dt.clear();
            for tuple in &t.get(i).dense()[*mark..] {
                dt.insert(tuple.clone());
            }
            *mark = t.get(i).len();
        }

        // ---- U side: U_{k-1} → U_k = lfp(Γ_{T_k}) by retract. Damage:
        // heads of instances killed by a negation over ΔT_k.
        operator::apply_general_into(
            cp,
            ctx,
            u,
            rules,
            operator::PlanKind::NegDelta,
            Some(operator::DeltaSource::Interp(&delta_t)),
            Some(&empty_neg),
            None,
            &mut damage,
            gov,
        )?;
        // The damaged tuples left without a proof, negations frozen at
        // T_k ⊆ U_k, are exactly U_{k-1} \ U_k: the tuples that just became
        // false, driving the T restart round.
        let removed =
            proof::unproved(cp, ctx, u, t, preds, Some(t), rules, &mut damage, gov)?.tuples;
        if let Some(removed) = &removed {
            for &i in preds {
                for tuple in removed.get(i).dense() {
                    let _ = ctx.remove_patched(u.get_mut(i), tuple);
                }
            }
        }
        #[cfg(debug_assertions)]
        debug_check_u(cp, ctx, comp, t, u);

        // T_{k+1} = Γ_C(U_k), warm-started from T_k ⊆ T_{k+1}. T_k is the
        // fixpoint of the previous context U_{k-1}, so only derivations a
        // negation newly enables (its atom left U) can be new — the
        // removed-driven restart round finds exactly those.
        added = match &removed {
            Some(removed) => {
                driver.extend_from_removed(cp, ctx, t, rules, removed, u, None, governor)?
            }
            None => 0, // U unchanged ⟹ Γ(U_k) = Γ(U_{k-1}) = T_k already.
        };
        alternations += 1;
    }

    Ok(alternations)
}

/// Debug-build invariants after one retract of `comp`'s `u`: every index
/// over the component's `u` relations is still sorted and complete (one
/// postings sweep per alternation, not per patched removal — that would
/// make debug-build retracts quadratic), and `u` landed exactly on
/// `lfp(Γ_C(T_k))`, the set a naive `Γ_C` from ∅ computes over the same
/// lower components.
#[cfg(debug_assertions)]
fn debug_check_u(
    cp: &CompiledProgram,
    ctx: &EvalContext,
    comp: &RuleComponent,
    t: &Interp,
    u: &Interp,
) {
    for &i in &comp.preds {
        ctx.debug_validate_indexes(u.get(i));
    }
    let mut naive = u.clone();
    for &i in &comp.preds {
        naive.get_mut(i).clear();
    }
    let mut derived = cp.empty_interp();
    loop {
        operator::apply_general_into(
            cp,
            ctx,
            &naive,
            Some(&comp.rules),
            operator::PlanKind::Full,
            None,
            Some(t),
            None,
            &mut derived,
            None,
        )
        .expect("ungoverned application cannot fail");
        if naive.union_with(&derived) == 0 {
            break;
        }
    }
    for &i in &comp.preds {
        debug_assert!(
            u.get(i) == naive.get(i),
            "incremental U diverged from naive Γ(T)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stratified::stratified_eval;
    use inflog_core::failpoints::{SITE_PROOF_ROUND, SITE_PROOF_SEARCH};
    use inflog_core::graphs::DiGraph;
    use inflog_core::Tuple;
    use inflog_syntax::parse_program;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn positive_program_total_and_least() {
        let p = parse_program("S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).").unwrap();
        let db = DiGraph::path(4).to_database("E");
        let wf = well_founded(&p, &db).unwrap();
        assert!(wf.is_total());
        let (lfp, _) = crate::naive::least_fixpoint_naive(&p, &db).unwrap();
        assert_eq!(wf.true_facts, lfp);
    }

    #[test]
    fn coincides_with_stratified_on_stratified_programs() {
        let src = "
            S(x, y) :- E(x, y).
            S(x, y) :- E(x, z), S(z, y).
            C(x, y) :- !S(x, y).
        ";
        let p = parse_program(src).unwrap();
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..5 {
            let db = DiGraph::random_gnp(5, 0.3, &mut rng).to_database("E");
            let wf = well_founded(&p, &db).unwrap();
            let (perfect, _) = stratified_eval(&p, &db).unwrap();
            assert!(wf.is_total());
            assert_eq!(wf.true_facts, perfect);
        }
    }

    #[test]
    fn mutual_negation_is_undefined() {
        // A(x) <- V(x), !B(x); B(x) <- V(x), !A(x): classic undefined pair.
        let p = parse_program("A(x) :- V(x), !B(x). B(x) :- V(x), !A(x).").unwrap();
        let mut db = inflog_core::Database::new();
        db.insert_named_fact("V", &["a"]).unwrap();
        let wf = well_founded(&p, &db).unwrap();
        assert!(!wf.is_total());
        assert!(wf.true_facts.all_empty());
        assert_eq!(wf.undefined.total_tuples(), 2);
    }

    #[test]
    fn pi1_on_odd_cycle_all_undefined() {
        // On C_3 the program pi_1 has no fixpoint; well-founded leaves every
        // T(v) undefined.
        let p = parse_program("T(x) :- E(y, x), !T(y).").unwrap();
        let db = DiGraph::cycle(3).to_database("E");
        let wf = well_founded(&p, &db).unwrap();
        assert!(wf.true_facts.all_empty());
        assert_eq!(wf.undefined.total_tuples(), 3);
    }

    #[test]
    fn pi1_on_path_is_total_and_matches_unique_fixpoint() {
        // On L_n pi_1 has the unique fixpoint {2, 4, ...}; WFS is total
        // there and computes exactly it.
        let p = parse_program("T(x) :- E(y, x), !T(y).").unwrap();
        let db = DiGraph::path(5).to_database("E");
        let wf = well_founded(&p, &db).unwrap();
        assert!(wf.is_total());
        let cp = CompiledProgram::compile(&p, &db).unwrap();
        let tid = cp.idb_id("T").unwrap();
        assert_eq!(
            wf.true_facts.get(tid).sorted(),
            vec![Tuple::from_ids(&[1]), Tuple::from_ids(&[3])]
        );
    }

    #[test]
    fn even_cycle_undefined_everywhere() {
        // On C_4, pi_1 has two incomparable fixpoints; the well-founded
        // model stays agnostic: all of T is undefined.
        let p = parse_program("T(x) :- E(y, x), !T(y).").unwrap();
        let db = DiGraph::cycle(4).to_database("E");
        let wf = well_founded(&p, &db).unwrap();
        assert!(wf.true_facts.all_empty());
        assert_eq!(wf.undefined.total_tuples(), 4);
    }

    #[test]
    fn win_move_game() {
        // Win(x) <- Move(x,y), !Win(y): the canonical WFS example on a path
        // v0 -> v1 -> v2: v2 lost (no moves), v1 wins (moves to lost v2),
        // v0 lost (only move leads to winning v1).
        let p = parse_program("Win(x) :- Move(x, y), !Win(y).").unwrap();
        let db = DiGraph::path(3).to_database("Move");
        let wf = well_founded(&p, &db).unwrap();
        assert!(wf.is_total());
        let cp = CompiledProgram::compile(&p, &db).unwrap();
        let w = cp.idb_id("Win").unwrap();
        assert_eq!(wf.true_facts.get(w).sorted(), vec![Tuple::from_ids(&[1])]);
    }

    #[test]
    fn alternations_are_bounded() {
        let p = parse_program("Win(x) :- Move(x, y), !Win(y).").unwrap();
        let db = DiGraph::path(8).to_database("Move");
        let wf = well_founded(&p, &db).unwrap();
        // Γ² is monotone on a lattice of height ≤ |A| here.
        assert!(wf.alternations <= 9, "alternations = {}", wf.alternations);
    }

    #[test]
    fn only_negative_cycles_alternate() {
        // `Safe` reads `!Win` from below and never alternates: adding it
        // leaves the count at `Win`'s own, and a program with no negative
        // cycle counts 1.
        let win = "Win(x) :- Move(x, y), !Win(y).";
        let safe = "Safe(x, y) :- Move(x, y), !Win(x).
                    Safe(x, y) :- Safe(x, z), Move(z, y), !Win(y).";
        let mut g = DiGraph::path(9);
        g.add_edge(4, 1);
        let db = g.to_database("Move");
        let alone = well_founded(&parse_program(win).unwrap(), &db).unwrap();
        let both = well_founded(&parse_program(&format!("{win} {safe}")).unwrap(), &db).unwrap();
        assert!(alone.alternations > 1);
        assert_eq!(both.alternations, alone.alternations);
        let stratified = parse_program(
            "S(x, y) :- Move(x, y). S(x, y) :- Move(x, z), S(z, y). C(x) :- Move(x, y), !S(y, x).",
        )
        .unwrap();
        assert_eq!(well_founded(&stratified, &db).unwrap().alternations, 1);
    }

    #[test]
    fn failpoints_fire_inside_a_negative_component() {
        // The negative cycle `Win` sits above a positive-recursive `R`.
        let p = parse_program(
            "R(x, y) :- Move(x, y). R(x, y) :- R(x, z), Move(z, y).
             Win(x) :- R(x, y), Move(x, y), !Win(y).",
        )
        .unwrap();
        let db = DiGraph::path(8).to_database("Move");
        for site in [SITE_PROOF_ROUND, SITE_PROOF_SEARCH] {
            let opts = EvalOptions {
                failpoints: inflog_core::failpoints::Failpoints::armed(site, 1),
                ..EvalOptions::sequential()
            };
            assert!(
                matches!(
                    Engine::WellFounded.evaluate(&p, &db, &opts),
                    Err(crate::EvalError::FaultInjected { .. })
                ),
                "{site} must fire"
            );
        }
    }

    #[test]
    fn context_indexes_survive_the_alternation() {
        // A program whose Γ joins through the IDB (so keyed scans index the
        // growing/rolled-back interpretations) and whose negation forces
        // several alternations.
        let src = "
            R(x, y) :- E(x, y), !B(x).
            R(x, y) :- R(x, z), E(z, y), !B(y).
            B(x) :- M(x, y), !B(y).
        ";
        let p = parse_program(src).unwrap();
        let mut g = DiGraph::path(8);
        g.add_edge(7, 0);
        let mut db = g.to_database("E");
        for (u, v) in [(0u32, 1u32), (1, 2), (2, 3)] {
            db.insert_named_fact("M", &[&format!("v{u}"), &format!("v{v}")])
                .unwrap();
        }
        let cp = CompiledProgram::compile(&p, &db).unwrap();
        let ctx = EvalContext::new(&cp, &db).unwrap();
        let wf = well_founded_compiled_with(&cp, &ctx, &EvalOptions::sequential()).unwrap();
        assert!(
            wf.alternations >= 2,
            "needs a real alternation to exercise rollback"
        );
        assert!(
            ctx.num_indexes() > 0,
            "keyed scans must have registered indexes"
        );
        // Rerunning over the same warm context gives the identical model.
        let wf2 = well_founded_compiled_with(&cp, &ctx, &EvalOptions::sequential()).unwrap();
        assert_eq!(wf, wf2);
    }

    #[test]
    fn warm_context_reuse_is_deterministic() {
        // Repeated evaluations over one EvalContext (warm persistent indexes,
        // patched deletions from earlier runs) must be bit-identical.
        let program = parse_program(
            "
            W(x) :- E(x, y), !W(y).
            R(x, y) :- E(x, y), !W(x).
            R(x, y) :- R(x, z), E(z, y), !W(y).
            ",
        )
        .unwrap();
        let mut g = DiGraph::path(10);
        g.add_edge(3, 0);
        let db = g.to_database("E");
        let cp = CompiledProgram::compile(&program, &db).unwrap();
        let ctx = EvalContext::new(&cp, &db).unwrap();
        let run = || well_founded_compiled_with(&cp, &ctx, &EvalOptions::sequential()).unwrap();
        let first = run();
        for _ in 0..3 {
            let again = run();
            assert_eq!(first, again);
        }
    }
}
