//! Naive least-fixpoint evaluation of positive DATALOG programs.
//!
//! For a DATALOG program (no negated atoms, no inequalities) the operator Θ
//! is monotone, so iterating `S_{n+1} = Θ(S_n)` from `S_0 = ∅` climbs to the
//! least fixpoint (Tarski) — the paper's *standard semantics* for DATALOG.

use crate::inflationary::naive_loop;
use crate::interp::Interp;
use crate::materialize::Engine;
use crate::trace::EvalTrace;
use crate::Result;
use inflog_core::Database;
use inflog_syntax::Program;

/// Computes the least fixpoint of a positive program by naive iteration.
///
/// For a monotone Θ the naive chain `Θⁿ⁺¹(∅) = Θ(Θⁿ(∅))` is increasing, so
/// it equals the inflationary chain `S ← S ∪ Θ(S)` step for step (§4):
/// after the positivity check this runs the naive inflationary loop.
///
/// A reference engine: it takes no options and runs ungoverned, so an
/// oracle recompute never trips a budget or an armed failpoint.
///
/// # Errors
/// Compilation errors from [`CompiledProgram::compile`], then
/// [`EvalError::NotPositive`] if the program contains negation or
/// inequality (the order of [`Engine::evaluate`]).
///
/// [`CompiledProgram::compile`]: crate::CompiledProgram::compile
/// [`EvalError::NotPositive`]: crate::EvalError::NotPositive
pub fn least_fixpoint_naive(program: &Program, db: &Database) -> Result<(Interp, EvalTrace)> {
    let (cp, ctx) = Engine::Seminaive.prepare(program, db)?;
    Ok(naive_loop(&cp, &ctx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::EvalError;
    use crate::operator::{apply, EvalContext};
    use crate::resolve::CompiledProgram;
    use inflog_core::graphs::DiGraph;
    use inflog_core::Tuple;
    use inflog_syntax::parse_program;

    const TC: &str = "S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).";

    #[test]
    fn tc_on_path_matches_graph_baseline() {
        for n in [1usize, 2, 5, 8] {
            let g = DiGraph::path(n);
            let db = g.to_database("E");
            let p = parse_program(TC).unwrap();
            let (lfp, trace) = least_fixpoint_naive(&p, &db).unwrap();
            let cp = CompiledProgram::compile(&p, &db).unwrap();
            let sid = cp.idb_id("S").unwrap();
            let expected: Vec<Tuple> = g
                .transitive_closure()
                .into_iter()
                .map(|(u, v)| Tuple::from_ids(&[u, v]))
                .collect();
            let mut got = lfp.get(sid).sorted();
            got.sort();
            assert_eq!(got, expected, "n = {n}");
            assert_eq!(trace.final_tuples, expected.len());
        }
    }

    #[test]
    fn tc_on_cycle_is_complete() {
        let db = DiGraph::cycle(4).to_database("E");
        let p = parse_program(TC).unwrap();
        let (lfp, _) = least_fixpoint_naive(&p, &db).unwrap();
        assert_eq!(lfp.total_tuples(), 16);
    }

    #[test]
    fn result_is_a_fixpoint_and_least() {
        let db = DiGraph::path(4).to_database("E");
        let p = parse_program(TC).unwrap();
        let cp = CompiledProgram::compile(&p, &db).unwrap();
        let ctx = EvalContext::new(&cp, &db).unwrap();
        let (lfp, _) = least_fixpoint_naive(&p, &db).unwrap();
        assert_eq!(apply(&cp, &ctx, &lfp), lfp, "must be a fixpoint");
        // Any other fixpoint contains it: check the full interpretation.
        let full = cp.full_interp(db.universe_size());
        assert!(apply(&cp, &ctx, &full).is_subset(&full));
        assert!(lfp.is_subset(&full));
    }

    #[test]
    fn rejects_negation() {
        let db = DiGraph::path(2).to_database("E");
        let p = parse_program("T(x) :- E(y, x), !T(y).").unwrap();
        assert!(matches!(
            least_fixpoint_naive(&p, &db),
            Err(EvalError::NotPositive { .. })
        ));
    }

    #[test]
    fn rejects_inequality() {
        let db = DiGraph::path(2).to_database("E");
        let p = parse_program("T(x) :- E(x, y), x != y.").unwrap();
        assert!(matches!(
            least_fixpoint_naive(&p, &db),
            Err(EvalError::NotPositive { .. })
        ));
    }

    #[test]
    fn equalities_are_allowed() {
        let db = DiGraph::path(3).to_database("E");
        let p = parse_program("P(x) :- E(x, y), E(y, z), y = z.").unwrap();
        assert!(least_fixpoint_naive(&p, &db).is_ok());
    }

    #[test]
    fn empty_program_empty_result() {
        let db = DiGraph::path(3).to_database("E");
        let p = parse_program("").unwrap();
        let (lfp, trace) = least_fixpoint_naive(&p, &db).unwrap();
        assert_eq!(lfp.total_tuples(), 0);
        assert_eq!(trace.rounds, 0);
    }

    #[test]
    fn rounds_grow_linearly_on_paths() {
        // Naive TC on L_n stabilizes in Θ(n) rounds.
        let p = parse_program(TC).unwrap();
        let (_, t4) = least_fixpoint_naive(&p, &DiGraph::path(4).to_database("E")).unwrap();
        let (_, t8) = least_fixpoint_naive(&p, &DiGraph::path(8).to_database("E")).unwrap();
        assert!(t8.rounds > t4.rounds);
    }
}
