//! Goal-directed query evaluation: compute only the cone of tuples a goal
//! atom can depend on, instead of the whole fixpoint.
//!
//! [`query`] answers a point query like `Win('v3')` or `S('v0', y)` against
//! a program and a database. Instead of running the program to its full
//! fixpoint and filtering afterwards, it rewrites the program with the
//! demand rewrite of `inflog-rewrite` ([`inflog_rewrite::rewrite_cone`])
//! and evaluates the rewritten programs with the existing engines (the
//! shared [`DeltaDriver`](crate::DeltaDriver) underneath), so that only
//! goal-relevant tuples are ever derived. The answers are
//! **set-identical** to full-fixpoint-then-filter under the program's
//! semantics — the perfect model when it is stratified, the well-founded
//! model otherwise — and debug builds re-verify that identity on every
//! call.
//!
//! # Strategy
//!
//! * Goals over EDB predicates are answered straight from the database
//!   ([`QueryStrategy::EdbScan`]).
//! * Otherwise the rewrite runs, and demand crosses negations
//!   ([`QueryStrategy::Demand`]). Phase 1, a positive program, computes
//!   the demanded bindings and every negation-free demanded predicate
//!   exactly; when the goal is negation-free it is the whole answer.
//!   Phase 2 evaluates the guarded rules of the other demanded predicates
//!   over phase 1's relations. Each phase runs the well-founded engine,
//!   whose component walk is stratified evaluation until the first
//!   negative cycle: the guarded program of a stratified input is
//!   stratified, so only negative cycles the goal depends on bring in the
//!   alternating fixpoint.
//! * When the rewrite demands some predicate with every argument free,
//!   demand restricts nothing, so the goal's dependency cone is evaluated
//!   in full with the same engine and filtered
//!   ([`QueryStrategy::Full`]).
//!
//! A goal constant outside the database universe simply has no answers
//! (full evaluation could never derive a tuple mentioning it).

use crate::error::EvalError;
use crate::materialize::Engine;
use crate::operator::EvalContext;
use crate::options::EvalOptions;
use crate::resolve::CompiledProgram;
use crate::Result;
use inflog_core::{Const, Database, Relation, Tuple, Universe};
use inflog_rewrite::rewrite_cone;
use inflog_syntax::{Atom, DepGraph, Program, Term};

/// Which evaluation path a query actually took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryStrategy {
    /// The goal predicate is extensional: answered by scanning the stored
    /// relation.
    EdbScan,
    /// The two-phase demand rewrite.
    Demand,
    /// Demand binds nothing: the goal's dependency cone, evaluated in full
    /// and filtered.
    Full,
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

/// One resolved goal position.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    /// Must equal this constant.
    Bound(Const),
    /// First occurrence of a variable: matches anything.
    Free,
    /// Repeated variable: must equal the value at this earlier position.
    SameAs(usize),
}

/// Resolves a goal's terms against `universe`: constants to their ids,
/// variables to equality classes (the first occurrence binds, repeats
/// constrain).
///
/// # Errors
/// [`EvalError::UnknownConstant`] for a goal constant outside the
/// universe.
pub(crate) fn goal_pattern(goal: &Atom, universe: &Universe) -> Result<Vec<Slot>> {
    // Each variable's first goal position, which its repeats compare with.
    let mut first: Vec<(&str, usize)> = Vec::new();
    goal.terms
        .iter()
        .enumerate()
        .map(|(pos, term)| match term {
            Term::Const(name) => universe
                .lookup(name)
                .map(Slot::Bound)
                .ok_or_else(|| EvalError::UnknownConstant { name: name.clone() }),
            Term::Var(v) => Ok(match first.iter().find(|(seen, _)| seen == v) {
                Some(&(_, at)) => Slot::SameAs(at),
                None => {
                    first.push((v, pos));
                    Slot::Free
                }
            }),
        })
        .collect()
}

/// Whether `t` matches a resolved goal pattern.
pub(crate) fn pattern_matches(pattern: &[Slot], t: &Tuple) -> bool {
    let items = t.items();
    pattern.iter().enumerate().all(|(i, slot)| match slot {
        Slot::Bound(c) => items[i] == *c,
        Slot::Free => true,
        Slot::SameAs(j) => items[i] == items[*j],
    })
}

/// The goal-matching tuples of `rel`, sorted (deterministic answers). Only
/// the matches are sorted.
fn filter_relation(rel: &Relation, pattern: &[Slot]) -> Vec<Tuple> {
    let mut matches: Vec<Tuple> = rel
        .iter()
        .filter(|t| pattern_matches(pattern, t))
        .cloned()
        .collect();
    matches.sort_unstable();
    matches
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
/// * [`EvalError::Cancelled`] / [`EvalError::BudgetExceeded`] /
///   [`EvalError::FaultInjected`] — `opts` carry a budget, cancellation
///   token or failpoint and an evaluation phase tripped it.
pub fn query(
    program: &Program,
    goal: &Atom,
    db: &Database,
    opts: &EvalOptions,
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

    // A goal constant outside the universe can match no tuple.
    let pattern = goal_pattern(goal, db.universe()).ok();
    if !program.idb_predicates().contains(&goal.predicate) {
        // Extensional goal: scan the stored relation (absent = empty).
        let tuples = match (&pattern, db.relation(&goal.predicate)) {
            (Some(pattern), Some(rel)) => filter_relation(rel, pattern),
            _ => Vec::new(),
        };
        return Ok(QueryAnswer {
            tuples,
            undefined: Vec::new(),
            strategy: QueryStrategy::EdbScan,
        });
    }

    let rw = rewrite_cone(program, goal);
    let strategy = if rw.binds_nothing {
        QueryStrategy::Full
    } else {
        QueryStrategy::Demand
    };
    let Some(pattern) = pattern else {
        // A goal constant outside the universe can never be derived.
        return Ok(QueryAnswer {
            tuples: Vec::new(),
            undefined: Vec::new(),
            strategy,
        });
    };

    let (tuples, undefined) = if rw.binds_nothing {
        let graph = DepGraph::new(program);
        let cone = graph.reachable([goal.predicate.as_str()]);
        let rules = program
            .rules
            .iter()
            .filter(|r| cone.contains(r.head.predicate.as_str()))
            .cloned();
        evaluate_and_filter(&Program::new(rules.collect()), goal, db, &pattern, opts)?
    } else {
        // Phase 1: positive, so the walk computes its least fixpoint.
        debug_assert!(rw.demand.is_positive(), "demand programs are positive");
        let dcp = CompiledProgram::compile(&rw.demand, db)?;
        let dctx = EvalContext::new(&dcp, db)?;
        let (mut phase1, _) = Engine::WellFounded.evaluate_compiled(&dcp, &dctx, opts)?;
        if let Some(gid) = dcp.idb_id(&rw.goal_pred) {
            (filter_relation(phase1.get(gid), &pattern), Vec::new())
        } else {
            // Phase 2 reads the relations phase 1 defines as EDB relations.
            // They are absent from the database, so compilation gives them
            // empty relations in the context; install phase 1's in their
            // place — moved, not cloned, and without copying the database
            // (point queries must not pay a whole-database clone for a
            // 10-tuple cone).
            let cp = CompiledProgram::compile(&rw.guarded, db)?;
            let mut ctx = EvalContext::new(&cp, db)?;
            for (edb, name) in ctx.edb.iter_mut().zip(&cp.edb_names) {
                if let Some(i) = dcp.idb_id(name) {
                    let arity = edb.arity();
                    *edb = std::mem::replace(phase1.get_mut(i), Relation::new(arity));
                }
            }
            let (t, u) = Engine::WellFounded.evaluate_compiled(&cp, &ctx, opts)?;
            let gid = cp
                .idb_id(&rw.goal_pred)
                .expect("the adorned goal predicate heads its guarded rules");
            (
                filter_relation(t.get(gid), &pattern),
                filter_relation(u.get(gid), &pattern),
            )
        }
    };
    let answer = QueryAnswer {
        tuples,
        undefined,
        strategy,
    };

    #[cfg(debug_assertions)]
    {
        // Ground truth: the whole program, not the goal's cone, so the
        // check shares no restriction with the path it checks. Run without
        // governance: the verification pass must not double-spend the
        // caller's budget or re-fire one-shot failpoints.
        let full = evaluate_and_filter(program, goal, db, &pattern, &EvalOptions::sequential())
            .expect("ungoverned verification evaluation cannot fail");
        assert_eq!(
            (&answer.tuples, &answer.undefined),
            (&full.0, &full.1),
            "goal-directed answers diverged from full-fixpoint-then-filter for `{goal}`"
        );
    }

    Ok(answer)
}

/// Evaluates `program` over `db` in full and filters the goal relation:
/// its true and its undefined goal-matching tuples.
fn evaluate_and_filter(
    program: &Program,
    goal: &Atom,
    db: &Database,
    pattern: &[Slot],
    opts: &EvalOptions,
) -> Result<(Vec<Tuple>, Vec<Tuple>)> {
    let cp = CompiledProgram::compile(program, db)?;
    let ctx = EvalContext::new(&cp, db)?;
    let (t, u) = Engine::WellFounded.evaluate_compiled(&cp, &ctx, opts)?;
    let gid = cp.idb_id(&goal.predicate).expect("IDB goal");
    Ok((
        filter_relation(t.get(gid), pattern),
        filter_relation(u.get(gid), pattern),
    ))
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
            &EvalOptions::sequential(),
        )
        .unwrap();
        assert_eq!(a.strategy, QueryStrategy::Demand);
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
            &EvalOptions::sequential(),
        )
        .unwrap();
        assert_eq!(yes.tuples, vec![t2(0, 4)]);
        let no = query(
            &p,
            &parse_atom("S('v4', 'v0')").unwrap(),
            &db,
            &EvalOptions::sequential(),
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
            &EvalOptions::sequential(),
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
            &EvalOptions::sequential(),
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
            &EvalOptions::sequential(),
        )
        .unwrap();
        assert_eq!(a.strategy, QueryStrategy::EdbScan);
        assert_eq!(a.tuples, vec![t2(0, 1)]);
        // Unknown predicate entirely: empty.
        let none = query(
            &p,
            &parse_atom("Zed(x)").unwrap(),
            &db,
            &EvalOptions::sequential(),
        )
        .unwrap();
        assert!(none.tuples.is_empty());
    }

    #[test]
    fn goal_arity_mismatch_errors() {
        let p = parse_program(TC).unwrap();
        let db = DiGraph::path(3).to_database("E");
        let err = query(
            &p,
            &parse_atom("S(x)").unwrap(),
            &db,
            &EvalOptions::sequential(),
        )
        .unwrap_err();
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
            &EvalOptions::sequential(),
        )
        .unwrap();
        assert_eq!(a.strategy, QueryStrategy::Demand);
        assert_eq!(a.tuples, vec![t1(2)]);
        let b = query(
            &p,
            &parse_atom("Win('v1')").unwrap(),
            &db,
            &EvalOptions::sequential(),
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
            &EvalOptions::sequential(),
        )
        .unwrap();
        assert!(a.tuples.is_empty());
        assert_eq!(a.undefined, vec![t1(0)]);
    }

    #[test]
    fn strategy_follows_the_rewrite() {
        let tc = parse_program(TC).unwrap();
        let left = parse_program("S(x, y) :- E(x, y). S(x, y) :- S(x, z), E(z, y).").unwrap();
        let win = parse_program(WIN).unwrap();
        let db = DiGraph::path(4).to_database("E");
        let moves = DiGraph::path(4).to_database("Move");
        for (p, db, goal, want) in [
            (&tc, &db, "S('v1', y)", QueryStrategy::Demand),
            (&tc, &db, "S(x, y)", QueryStrategy::Full),
            (&tc, &db, "S('w9', y)", QueryStrategy::Demand),
            (&left, &db, "S('v1', y)", QueryStrategy::Demand),
            (&left, &db, "S(x, 'v3')", QueryStrategy::Full),
            (&win, &moves, "Win('v1')", QueryStrategy::Demand),
            (&win, &moves, "Win(x)", QueryStrategy::Full),
            (&win, &moves, "Move(x, 'v1')", QueryStrategy::EdbScan),
        ] {
            let goal = parse_atom(goal).unwrap();
            let a = query(p, &goal, db, &EvalOptions::sequential()).unwrap();
            assert_eq!(a.strategy, want, "{goal}");
        }
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
            &EvalOptions::sequential(),
        )
        .unwrap();
        // v0 reaches v1 and v2; the complement row for v0 is just (v0, v0).
        assert_eq!(a.tuples, vec![t2(0, 0)]);
    }
}
