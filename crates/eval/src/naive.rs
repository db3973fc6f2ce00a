//! Naive least-fixpoint evaluation of positive DATALOG programs.
//!
//! For a DATALOG program (no negated atoms, no inequalities) the operator Θ
//! is monotone, so iterating `S_{n+1} = Θ(S_n)` from `S_0 = ∅` climbs to the
//! least fixpoint (Tarski) — the paper's *standard semantics* for DATALOG.

use crate::error::EvalError;
use crate::inflationary::inflationary_naive_compiled_with;
use crate::interp::Interp;
use crate::operator::EvalContext;
use crate::options::EvalOptions;
use crate::resolve::CompiledProgram;
use crate::trace::EvalTrace;
use crate::Result;
use inflog_core::Database;
use inflog_syntax::{Literal, Program};

/// Checks the paper's DATALOG condition and reports the first offender.
pub(crate) fn require_positive(program: &Program) -> Result<()> {
    for rule in &program.rules {
        for lit in &rule.body {
            match lit {
                Literal::Neg(_) | Literal::Neq(_, _) => {
                    return Err(EvalError::NotPositive {
                        offending: lit.to_string(),
                    })
                }
                Literal::Pos(_) | Literal::Eq(_, _) => {}
            }
        }
    }
    Ok(())
}

/// Computes the least fixpoint of a positive program by naive iteration.
///
/// # Errors
/// * [`EvalError::NotPositive`] if the program contains negation or
///   inequality;
/// * compilation errors from [`CompiledProgram::compile`].
pub fn least_fixpoint_naive(program: &Program, db: &Database) -> Result<(Interp, EvalTrace)> {
    least_fixpoint_naive_with(program, db, &EvalOptions::default())
}

/// [`least_fixpoint_naive`] with explicit evaluation options.
///
/// For a monotone Θ the naive chain `Θⁿ⁺¹(∅) = Θ(Θⁿ(∅))` is increasing, so
/// it equals the inflationary chain `S ← S ∪ Θ(S)` step for step (§4):
/// after the positivity check this runs the naive inflationary loop.
///
/// The [`Budget`](crate::govern::Budget), cancellation token and failpoints
/// in `opts` are honored: exceeding the budget's `max_rounds` cap reports
/// [`EvalError::BudgetExceeded`], and deadline/cancellation are polled at
/// every round boundary and every few thousand emitted tuples.
///
/// # Errors
/// Same conditions as [`least_fixpoint_naive`], plus the governance errors
/// [`EvalError::Cancelled`], [`EvalError::BudgetExceeded`] and
/// [`EvalError::FaultInjected`].
pub fn least_fixpoint_naive_with(
    program: &Program,
    db: &Database,
    opts: &EvalOptions,
) -> Result<(Interp, EvalTrace)> {
    require_positive(program)?;
    let cp = CompiledProgram::compile(program, db)?;
    let ctx = EvalContext::new(&cp, db)?;
    inflationary_naive_compiled_with(&cp, &ctx, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::apply;
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
