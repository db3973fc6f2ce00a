//! Goal-directed query evaluation: compute only the cone of tuples a goal
//! atom can depend on, instead of the whole fixpoint.
//!
//! [`query`] answers a point query like `Win('v3')` or `S('v0', y)` against
//! a program and a database. Instead of running the program to its full
//! fixpoint and filtering afterwards, it rewrites the program with the
//! demand transformations of `inflog-rewrite` and evaluates the rewritten
//! program with the existing engines (the shared [`DeltaDriver`]
//! underneath), so that only goal-relevant tuples are ever derived. The
//! answers are **set-identical** to full-fixpoint-then-filter — debug
//! builds re-verify that identity on every call.
//!
//! # Strategy selection (the capability check)
//!
//! [`demand_support`] classifies the program:
//!
//! * **Stratified** programs take the adorned magic-set rewrite
//!   ([`inflog_rewrite::rewrite_stratified`]). Demand never crosses a
//!   negated literal — the negated predicate's cone rides along
//!   unrewritten, so the rewritten program is stratified by construction
//!   and the stratified engine evaluates it stratum by stratum. Answers
//!   are two-valued (the perfect model restricted to the goal).
//! * **Non-stratifiable** programs have no perfect model; their natural
//!   total semantics here is the well-founded model, whose alternating
//!   fixpoint is *not* freely reorderable — demand must be closed under
//!   positive **and** negative dependencies before any evaluation starts.
//!   The default [`NonStratifiedPolicy::DemandCone`] runs the two-phase
//!   cone rewrite ([`inflog_rewrite::rewrite_cone`]): a positive demand
//!   fixpoint first, then the well-founded engine on the demand-guarded
//!   program; by the relevance property of the well-founded semantics the
//!   3-valued answers on demanded atoms coincide with the full model's.
//!   [`NonStratifiedPolicy::FullEvaluation`] instead falls back to the
//!   plain well-founded engine plus a filter, and
//!   [`NonStratifiedPolicy::Error`] refuses.
//!
//! Goals over EDB predicates are answered straight from the database, and a
//! goal constant outside the database universe simply has no answers (full
//! evaluation could never derive a tuple mentioning it).

use crate::error::EvalError;
use crate::inflationary::inflationary_compiled_with;
#[cfg(debug_assertions)]
use crate::materialize::Engine;
use crate::operator::EvalContext;
use crate::options::EvalOptions;
use crate::resolve::CompiledProgram;
use crate::stratified::{stratified_eval_compiled_with, stratify};
use crate::wellfounded::well_founded_compiled_with;
use crate::Result;
use inflog_core::{Const, Database, Relation, Tuple};
use inflog_rewrite::{rewrite_cone, rewrite_stratified};
use inflog_syntax::{Atom, Program, Term};
use std::collections::HashMap;

/// What the demand-transformation subsystem can do with a program — the
/// explicit capability check behind [`query`]'s strategy selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemandSupport {
    /// Stratified: the adorned magic-set rewrite applies, evaluated
    /// stratum-by-stratum; answers are two-valued.
    Stratified,
    /// Not stratifiable: only well-founded evaluation is sound, via the
    /// demand-cone rewrite or a full-evaluation fallback (see
    /// [`NonStratifiedPolicy`]).
    WellFoundedOnly,
}

/// Classifies `program` for goal-directed evaluation.
pub fn demand_support(program: &Program) -> DemandSupport {
    if stratify(program).is_ok() {
        DemandSupport::Stratified
    } else {
        DemandSupport::WellFoundedOnly
    }
}

/// How [`query`] treats non-stratifiable programs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NonStratifiedPolicy {
    /// Restrict the well-founded evaluation to the goal's demand cone
    /// (demand closed under positive and negative dependencies) — the
    /// goal-directed default.
    #[default]
    DemandCone,
    /// Compute the full well-founded model and filter — the conservative
    /// fallback when demand restriction is not wanted.
    FullEvaluation,
    /// Refuse with [`EvalError::UnsupportedQuery`].
    Error,
}

/// Options for [`query`].
#[derive(Debug, Clone, Default)]
pub struct QueryOpts {
    /// Engine options (budget, cancellation, failpoints), forwarded to every
    /// evaluation phase the query runs.
    pub eval: EvalOptions,
    /// Policy for non-stratifiable programs.
    pub non_stratified: NonStratifiedPolicy,
}

/// Which evaluation path a query actually took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStrategy {
    /// The goal predicate is extensional: answered by scanning the stored
    /// relation.
    EdbScan,
    /// Adorned magic-set rewrite + stratified evaluation.
    MagicStratified,
    /// Demand-cone rewrite + well-founded evaluation of the guarded
    /// program.
    MagicWellFounded,
    /// Full well-founded evaluation + filter (the explicit fallback).
    FullWellFounded,
}

/// A query's answers: the goal-matching tuples, sorted lexicographically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryAnswer {
    /// Tuples matching the goal that are **true** (in the perfect model for
    /// stratified programs, the well-founded model otherwise).
    pub tuples: Vec<Tuple>,
    /// Goal-matching tuples **undefined** in the well-founded model (always
    /// empty on stratified programs, whose models are total).
    pub undefined: Vec<Tuple>,
    /// The evaluation path taken.
    pub strategy: QueryStrategy,
}

impl QueryAnswer {
    fn empty(strategy: QueryStrategy) -> Self {
        QueryAnswer {
            tuples: Vec::new(),
            undefined: Vec::new(),
            strategy,
        }
    }
}

/// One resolved goal position: a universe constant that must match, or a
/// variable identified by the position of its first occurrence (repeated
/// goal variables become equality constraints between positions).
#[derive(Debug, Clone, Copy)]
enum Slot {
    Const(Const),
    Var(usize),
}

/// Resolves the goal's terms against the database universe. `None` when a
/// goal constant is not in the universe — no derivable tuple can match.
fn goal_pattern(goal: &Atom, db: &Database) -> Option<Vec<Slot>> {
    let mut first: HashMap<&str, usize> = HashMap::new();
    goal.terms
        .iter()
        .enumerate()
        .map(|(i, t)| match t {
            Term::Const(c) => db.universe().lookup(c).map(Slot::Const),
            Term::Var(v) => Some(Slot::Var(*first.entry(v).or_insert(i))),
        })
        .collect()
}

fn tuple_matches(pattern: &[Slot], t: &Tuple) -> bool {
    pattern.iter().enumerate().all(|(i, s)| match s {
        Slot::Const(c) => t[i] == *c,
        Slot::Var(j) => t[i] == t[*j],
    })
}

/// The goal-matching tuples of `rel`, sorted (deterministic answers).
fn filter_relation(rel: &Relation, pattern: &[Slot]) -> Vec<Tuple> {
    rel.sorted()
        .into_iter()
        .filter(|t| tuple_matches(pattern, t))
        .collect()
}

/// Evaluates a goal atom against `(program, db)`, computing only the goal's
/// demand cone. The answer is set-identical to computing the program's full
/// model and filtering by the goal (verified in debug builds).
///
/// # Errors
/// * compilation errors of the (rewritten) program — same conditions as the
///   full-evaluation engines;
/// * [`EvalError::ArityMismatch`] — goal arity conflicts with the
///   predicate's arity in the program or database;
/// * [`EvalError::UnsupportedQuery`] — non-stratifiable program under
///   [`NonStratifiedPolicy::Error`];
/// * [`EvalError::Cancelled`] / [`EvalError::BudgetExceeded`] — the
///   [`EvalOptions`] in `opts.eval` carry a budget or cancellation token
///   and an evaluation phase tripped it.
pub fn query(
    program: &Program,
    goal: &Atom,
    db: &Database,
    opts: &QueryOpts,
) -> Result<QueryAnswer> {
    // Goal arity must agree with the predicate as the program/database use it.
    let declared = program
        .predicate_arities()
        .get(&goal.predicate)
        .copied()
        .or_else(|| db.relation(&goal.predicate).map(Relation::arity));
    if let Some(arity) = declared {
        if arity != goal.arity() {
            return Err(EvalError::ArityMismatch {
                predicate: goal.predicate.clone(),
                expected: arity,
                found: goal.arity(),
            });
        }
    }

    if !program.idb_predicates().contains(&goal.predicate) {
        // Extensional goal: scan the stored relation (absent = empty).
        let tuples = match (goal_pattern(goal, db), db.relation(&goal.predicate)) {
            (Some(pattern), Some(rel)) => filter_relation(rel, &pattern),
            _ => Vec::new(),
        };
        return Ok(QueryAnswer {
            tuples,
            undefined: Vec::new(),
            strategy: QueryStrategy::EdbScan,
        });
    }

    let support = demand_support(program);
    let strategy = match (support, opts.non_stratified) {
        (DemandSupport::Stratified, _) => QueryStrategy::MagicStratified,
        (DemandSupport::WellFoundedOnly, NonStratifiedPolicy::DemandCone) => {
            QueryStrategy::MagicWellFounded
        }
        (DemandSupport::WellFoundedOnly, NonStratifiedPolicy::FullEvaluation) => {
            QueryStrategy::FullWellFounded
        }
        (DemandSupport::WellFoundedOnly, NonStratifiedPolicy::Error) => {
            return Err(EvalError::UnsupportedQuery {
                reason: format!(
                    "program is not stratified (goal `{goal}`); demand-driven evaluation \
                     requires the DemandCone or FullEvaluation policy"
                ),
            })
        }
    };

    let Some(pattern) = goal_pattern(goal, db) else {
        // A goal constant outside the universe can never be derived.
        return Ok(QueryAnswer::empty(strategy));
    };

    let answer = match strategy {
        QueryStrategy::MagicStratified => query_stratified(program, goal, db, &pattern, &opts.eval),
        QueryStrategy::MagicWellFounded => query_cone(program, goal, db, &pattern, &opts.eval),
        QueryStrategy::FullWellFounded => query_full_wf(program, goal, db, &pattern, &opts.eval),
        QueryStrategy::EdbScan => unreachable!("extensional goals answered above"),
    }?;

    #[cfg(debug_assertions)]
    verify_against_full(program, goal, db, &pattern, &answer);

    Ok(answer)
}

/// Stratified path: magic rewrite, stratified evaluation, filter.
fn query_stratified(
    program: &Program,
    goal: &Atom,
    db: &Database,
    pattern: &[Slot],
    eval: &EvalOptions,
) -> Result<QueryAnswer> {
    let rw = rewrite_stratified(program, goal);
    let strat = stratify(&rw.program)
        .expect("the stratified magic rewrite preserves stratification by construction");
    let cp = CompiledProgram::compile(&rw.program, db)?;
    let ctx = EvalContext::new(&cp, db)?;
    let (model, _) = stratified_eval_compiled_with(&cp, &ctx, &strat, &rw.program, eval)?;
    let gid = cp
        .idb_id(&rw.goal_pred)
        .expect("the adorned goal predicate heads its guarded rules");
    Ok(QueryAnswer {
        tuples: filter_relation(model.get(gid), pattern),
        undefined: Vec::new(),
        strategy: QueryStrategy::MagicStratified,
    })
}

/// Non-stratifiable path: positive demand fixpoint, then the well-founded
/// engine on the demand-guarded program with the magic relations
/// materialized as extensional relations.
fn query_cone(
    program: &Program,
    goal: &Atom,
    db: &Database,
    pattern: &[Slot],
    eval: &EvalOptions,
) -> Result<QueryAnswer> {
    let rw = rewrite_cone(program, goal);
    debug_assert!(rw.demand.is_positive(), "demand programs are positive");
    let dcp = CompiledProgram::compile(&rw.demand, db)?;
    let dctx = EvalContext::new(&dcp, db)?;
    // Positive, so Θ^∞ is its least fixpoint (§4).
    let (demand, _) = inflationary_compiled_with(&dcp, &dctx, eval)?;

    // Phase 2 reads the magic predicates as EDB relations. They are absent
    // from the database, so compilation gives them empty relations in the
    // context; install the demand fixpoint's relations in their place —
    // moved, not cloned, and without copying the database (point queries
    // must not pay a whole-database clone for a 10-tuple cone).
    let cp = CompiledProgram::compile(&rw.guarded, db)?;
    let mut ctx = EvalContext::new(&cp, db)?;
    let mut demand_rels = demand.into_relations();
    for name in &rw.magic_preds {
        let di = dcp
            .idb_id(name)
            .expect("every demanded magic predicate heads a demand rule");
        let ei = cp
            .edb_names
            .iter()
            .position(|n| n == name)
            .expect("every demanded magic predicate guards a phase-2 rule");
        let arity = demand_rels[di].arity();
        ctx.edb[ei] = std::mem::replace(&mut demand_rels[di], Relation::new(arity));
    }
    let wf = well_founded_compiled_with(&cp, &ctx, eval)?;
    let gid = cp
        .idb_id(&rw.goal_pred)
        .expect("the adorned goal predicate heads its guarded rules");
    Ok(QueryAnswer {
        tuples: filter_relation(wf.true_facts.get(gid), pattern),
        undefined: filter_relation(wf.undefined.get(gid), pattern),
        strategy: QueryStrategy::MagicWellFounded,
    })
}

/// Fallback: full well-founded model, filtered.
fn query_full_wf(
    program: &Program,
    goal: &Atom,
    db: &Database,
    pattern: &[Slot],
    eval: &EvalOptions,
) -> Result<QueryAnswer> {
    let cp = CompiledProgram::compile(program, db)?;
    let ctx = EvalContext::new(&cp, db)?;
    let wf = well_founded_compiled_with(&cp, &ctx, eval)?;
    let gid = cp
        .idb_id(&goal.predicate)
        .expect("IDB goals checked by the caller");
    Ok(QueryAnswer {
        tuples: filter_relation(wf.true_facts.get(gid), pattern),
        undefined: filter_relation(wf.undefined.get(gid), pattern),
        strategy: QueryStrategy::FullWellFounded,
    })
}

/// Debug-build ground truth: every query answer must be set-identical to
/// full-fixpoint-then-filter under the program's semantics (perfect model
/// when stratified, well-founded model otherwise).
#[cfg(debug_assertions)]
fn verify_against_full(
    program: &Program,
    goal: &Atom,
    db: &Database,
    pattern: &[Slot],
    answer: &QueryAnswer,
) {
    let cp = CompiledProgram::compile(program, db).expect("query compiled the same program");
    let ctx = EvalContext::new(&cp, db).expect("query built the same context");
    let gid = cp.idb_id(&goal.predicate).expect("IDB goal");
    let strat = stratify(program).ok();
    let engine = match strat {
        Some(_) => Engine::Stratified,
        None => Engine::WellFounded,
    };
    // Run the ground truth without governance: the verification pass must
    // not double-spend the caller's budget or re-fire one-shot failpoints.
    let (t, u) = engine
        .evaluate(
            &cp,
            &ctx,
            strat.as_ref(),
            program,
            &EvalOptions::sequential(),
        )
        .expect("ungoverned verification evaluation cannot fail");
    let full_true = filter_relation(t.get(gid), pattern);
    let full_undef = filter_relation(u.get(gid), pattern);
    assert_eq!(
        answer.tuples, full_true,
        "goal-directed answers diverged from full-fixpoint-then-filter for `{goal}`"
    );
    assert_eq!(
        answer.undefined, full_undef,
        "goal-directed undefined set diverged from the full model for `{goal}`"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use inflog_core::graphs::DiGraph;
    use inflog_syntax::{parse_atom, parse_program};

    const TC: &str = "S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).";
    const WIN: &str = "Win(x) :- Move(x, y), !Win(y).";

    fn t1(x: u32) -> Tuple {
        Tuple::from_ids(&[x])
    }

    fn t2(x: u32, y: u32) -> Tuple {
        Tuple::from_ids(&[x, y])
    }

    #[test]
    fn reachability_from_source() {
        let p = parse_program(TC).unwrap();
        let db = DiGraph::path(5).to_database("E");
        let a = query(
            &p,
            &parse_atom("S('v1', y)").unwrap(),
            &db,
            &QueryOpts::default(),
        )
        .unwrap();
        assert_eq!(a.strategy, QueryStrategy::MagicStratified);
        assert_eq!(a.tuples, vec![t2(1, 2), t2(1, 3), t2(1, 4)]);
        assert!(a.undefined.is_empty());
    }

    #[test]
    fn fully_bound_goal() {
        let p = parse_program(TC).unwrap();
        let db = DiGraph::path(5).to_database("E");
        let yes = query(
            &p,
            &parse_atom("S('v0', 'v4')").unwrap(),
            &db,
            &QueryOpts::default(),
        )
        .unwrap();
        assert_eq!(yes.tuples, vec![t2(0, 4)]);
        let no = query(
            &p,
            &parse_atom("S('v4', 'v0')").unwrap(),
            &db,
            &QueryOpts::default(),
        )
        .unwrap();
        assert!(no.tuples.is_empty());
    }

    #[test]
    fn goal_constant_outside_universe_matches_nothing() {
        let p = parse_program(TC).unwrap();
        let db = DiGraph::path(3).to_database("E");
        let a = query(
            &p,
            &parse_atom("S('w9', y)").unwrap(),
            &db,
            &QueryOpts::default(),
        )
        .unwrap();
        assert!(a.tuples.is_empty());
    }

    #[test]
    fn repeated_goal_variable_filters_diagonal() {
        let p = parse_program(TC).unwrap();
        let db = DiGraph::cycle(3).to_database("E");
        let a = query(
            &p,
            &parse_atom("S(x, x)").unwrap(),
            &db,
            &QueryOpts::default(),
        )
        .unwrap();
        assert_eq!(a.tuples, vec![t2(0, 0), t2(1, 1), t2(2, 2)]);
    }

    #[test]
    fn edb_goal_scans_database() {
        let p = parse_program(TC).unwrap();
        let db = DiGraph::path(3).to_database("E");
        let a = query(
            &p,
            &parse_atom("E('v0', y)").unwrap(),
            &db,
            &QueryOpts::default(),
        )
        .unwrap();
        assert_eq!(a.strategy, QueryStrategy::EdbScan);
        assert_eq!(a.tuples, vec![t2(0, 1)]);
        // Unknown predicate entirely: empty.
        let none = query(
            &p,
            &parse_atom("Zed(x)").unwrap(),
            &db,
            &QueryOpts::default(),
        )
        .unwrap();
        assert!(none.tuples.is_empty());
    }

    #[test]
    fn goal_arity_mismatch_errors() {
        let p = parse_program(TC).unwrap();
        let db = DiGraph::path(3).to_database("E");
        let err = query(&p, &parse_atom("S(x)").unwrap(), &db, &QueryOpts::default()).unwrap_err();
        assert!(matches!(err, EvalError::ArityMismatch { .. }));
    }

    #[test]
    fn win_move_point_query_uses_cone() {
        let p = parse_program(WIN).unwrap();
        let db = DiGraph::path(4).to_database("Move");
        // v2 wins (moves to sink v3); v1 loses; v0 wins.
        let a = query(
            &p,
            &parse_atom("Win('v2')").unwrap(),
            &db,
            &QueryOpts::default(),
        )
        .unwrap();
        assert_eq!(a.strategy, QueryStrategy::MagicWellFounded);
        assert_eq!(a.tuples, vec![t1(2)]);
        let b = query(
            &p,
            &parse_atom("Win('v1')").unwrap(),
            &db,
            &QueryOpts::default(),
        )
        .unwrap();
        assert!(b.tuples.is_empty() && b.undefined.is_empty());
    }

    #[test]
    fn undefined_atoms_are_reported() {
        let p = parse_program(WIN).unwrap();
        let db = DiGraph::cycle(3).to_database("Move");
        let a = query(
            &p,
            &parse_atom("Win('v0')").unwrap(),
            &db,
            &QueryOpts::default(),
        )
        .unwrap();
        assert!(a.tuples.is_empty());
        assert_eq!(a.undefined, vec![t1(0)]);
    }

    #[test]
    fn non_stratified_policies() {
        let p = parse_program(WIN).unwrap();
        let db = DiGraph::path(4).to_database("Move");
        let goal = parse_atom("Win(x)").unwrap();
        let cone = query(&p, &goal, &db, &QueryOpts::default()).unwrap();
        let full = query(
            &p,
            &goal,
            &db,
            &QueryOpts {
                non_stratified: NonStratifiedPolicy::FullEvaluation,
                ..QueryOpts::default()
            },
        )
        .unwrap();
        assert_eq!(full.strategy, QueryStrategy::FullWellFounded);
        assert_eq!(cone.tuples, full.tuples);
        assert_eq!(cone.undefined, full.undefined);
        let err = query(
            &p,
            &goal,
            &db,
            &QueryOpts {
                non_stratified: NonStratifiedPolicy::Error,
                ..QueryOpts::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, EvalError::UnsupportedQuery { .. }));
    }

    #[test]
    fn stratified_negation_goal() {
        let src = "
            S(x, y) :- E(x, y).
            S(x, y) :- E(x, z), S(z, y).
            C(x, y) :- !S(x, y).
        ";
        let p = parse_program(src).unwrap();
        let db = DiGraph::path(3).to_database("E");
        let a = query(
            &p,
            &parse_atom("C('v0', y)").unwrap(),
            &db,
            &QueryOpts::default(),
        )
        .unwrap();
        // v0 reaches v1 and v2; the complement row for v0 is just (v0, v0).
        assert_eq!(a.tuples, vec![t2(0, 0)]);
    }

    #[test]
    fn capability_check_classifies() {
        assert_eq!(
            demand_support(&parse_program(TC).unwrap()),
            DemandSupport::Stratified
        );
        assert_eq!(
            demand_support(&parse_program(WIN).unwrap()),
            DemandSupport::WellFoundedOnly
        );
    }
}
