//! Semi-naive least-fixpoint evaluation of positive DATALOG programs.
//!
//! The classic optimization of the naive loop: after the first round, a rule
//! can only produce a *new* tuple if its body uses at least one tuple that
//! was new in the previous round, so each rule is re-run once per positive
//! IDB atom occurrence with that occurrence restricted to the delta.

use crate::inflationary::inflationary_compiled_with;
use crate::interp::Interp;
use crate::materialize::Engine;
use crate::options::EvalOptions;
use crate::trace::EvalTrace;
use crate::Result;
use inflog_core::Database;
use inflog_syntax::Program;

/// Computes the least fixpoint of a positive program semi-naively, with
/// [`EvalOptions::default`].
///
/// On a positive program Θ is monotone, so the inflationary iteration
/// `S ← S ∪ Θ(S)` climbs exactly the chain `Θⁿ(∅)` and its inductive
/// fixpoint is the least fixpoint (§4). After the positivity check this
/// therefore runs the semi-naive inflationary engine over the shared
/// [`DeltaDriver`](crate::DeltaDriver): all rules, standard negation
/// context, cold start from ∅. [`Engine::Seminaive`]'s
/// [`evaluate`](Engine::evaluate) is the same evaluation under explicit
/// options.
///
/// # Errors
/// Same conditions as [`least_fixpoint_naive`](crate::least_fixpoint_naive),
/// or a fault injected by a failpoint armed through `INFLOG_FAILPOINT`.
pub fn least_fixpoint_seminaive(program: &Program, db: &Database) -> Result<(Interp, EvalTrace)> {
    let (cp, ctx) = Engine::Seminaive.prepare(program, db)?;
    inflationary_compiled_with(&cp, &ctx, &EvalOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::least_fixpoint_naive;
    use crate::resolve::CompiledProgram;
    use inflog_core::graphs::DiGraph;
    use inflog_syntax::parse_program;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const TC: &str = "S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).";

    #[test]
    fn agrees_with_naive_on_paths_and_cycles() {
        let p = parse_program(TC).unwrap();
        for db in [
            DiGraph::path(6).to_database("E"),
            DiGraph::cycle(5).to_database("E"),
            DiGraph::binary_tree(7).to_database("E"),
            DiGraph::grid(3, 3).to_database("E"),
        ] {
            let (a, _) = least_fixpoint_naive(&p, &db).unwrap();
            let (b, _) = least_fixpoint_seminaive(&p, &db).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn agrees_with_naive_on_random_graphs() {
        let p = parse_program(TC).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..10 {
            let g = DiGraph::random_gnp(8, 0.25, &mut rng);
            let db = g.to_database("E");
            let (a, _) = least_fixpoint_naive(&p, &db).unwrap();
            let (b, _) = least_fixpoint_seminaive(&p, &db).unwrap();
            assert_eq!(a, b, "graph: {g}");
        }
    }

    #[test]
    fn agrees_on_multi_idb_program() {
        // Same-generation: a classic two-IDB positive program.
        let src = "
            Sg(x, y) :- Flat(x, y).
            Sg(x, y) :- Up(x, u), Sg(u, v), Down(v, y).
            Reach(x) :- Start(x).
            Reach(y) :- Reach(x), Up(x, y).
        ";
        let p = parse_program(src).unwrap();
        let mut db = inflog_core::Database::new();
        for (u, v) in [("a", "b"), ("b", "c")] {
            db.insert_named_fact("Up", &[u, v]).unwrap();
            db.insert_named_fact("Down", &[v, u]).unwrap();
        }
        db.insert_named_fact("Flat", &["c", "c"]).unwrap();
        db.insert_named_fact("Start", &["a"]).unwrap();
        let (a, _) = least_fixpoint_naive(&p, &db).unwrap();
        let (b, _) = least_fixpoint_seminaive(&p, &db).unwrap();
        assert_eq!(a, b);
        assert!(a.total_tuples() > 0);
    }

    #[test]
    fn delta_rounds_match_naive_rounds() {
        // Both engines apply Θ once per level, so round counts agree.
        let p = parse_program(TC).unwrap();
        let db = DiGraph::path(7).to_database("E");
        let (_, tn) = least_fixpoint_naive(&p, &db).unwrap();
        let (_, ts) = least_fixpoint_seminaive(&p, &db).unwrap();
        assert_eq!(tn.rounds, ts.rounds);
        assert_eq!(tn.added_per_round, ts.added_per_round);
    }

    #[test]
    fn repeated_idb_atoms_get_one_delta_plan_each() {
        // S(x, z) :- S(x, y), S(y, z) mentions S positively twice: the
        // compiler must emit one delta plan per occurrence, since a new
        // derivation may come through either side of the join.
        let src = "S(x, y) :- E(x, y). S(x, z) :- S(x, y), S(y, z).";
        let db = DiGraph::path(3).to_database("E");
        let cp = CompiledProgram::compile(&parse_program(src).unwrap(), &db).unwrap();
        assert_eq!(cp.rules[1].plans.delta.len(), 2);
    }

    #[test]
    fn repeated_idb_atoms_agree_with_naive_on_random_graphs() {
        // TC by squaring (S ∘ S) exercises both delta plans of the repeated
        // atom: deriving S(x,z) where S(x,y) is old and S(y,z) is new needs
        // the second plan, and vice versa. Any missing plan loses tuples on
        // graphs with long paths.
        let squaring = parse_program("S(x, y) :- E(x, y). S(x, z) :- S(x, y), S(y, z).").unwrap();
        // A two-predicate variant: P joins S with itself.
        let two_pred = parse_program(
            "S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y). P(x, z) :- S(x, y), S(y, z).",
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..8 {
            let g = DiGraph::random_gnp(8, 0.2, &mut rng);
            let db = g.to_database("E");
            for p in [&squaring, &two_pred] {
                let (a, _) = least_fixpoint_naive(p, &db).unwrap();
                let (b, _) = least_fixpoint_seminaive(p, &db).unwrap();
                assert_eq!(a, b, "graph: {g}");
            }
        }
        // And on a long path, where squaring's second round really does
        // join old tuples with new ones.
        let db = DiGraph::path(16).to_database("E");
        let (a, _) = least_fixpoint_naive(&squaring, &db).unwrap();
        let (b, _) = least_fixpoint_seminaive(&squaring, &db).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.total_tuples(), 16 * 15 / 2);
    }

    #[test]
    fn indexes_persist_across_rounds() {
        // The evaluation context owns the hash-join indexes: after a
        // semi-naive run they are still warm (EDB indexes built once, IDB
        // indexes extended per round), not rebuilt per application.
        let p = parse_program(TC).unwrap();
        let db = DiGraph::path(10).to_database("E");
        let cp = CompiledProgram::compile(&p, &db).unwrap();
        let ctx = crate::operator::EvalContext::new(&cp, &db).unwrap();
        let (a, _) =
            crate::inflationary::inflationary_compiled_with(&cp, &ctx, &EvalOptions::sequential())
                .unwrap();
        let warm = ctx.num_indexes();
        assert!(warm > 0, "keyed scans must have registered indexes");
        // A second run over the same context reuses them.
        let (b, _) =
            crate::inflationary::inflationary_compiled_with(&cp, &ctx, &EvalOptions::sequential())
                .unwrap();
        assert_eq!(a, b);
        assert!(ctx.num_indexes() >= warm);
    }

    #[test]
    fn rejects_negation() {
        let db = DiGraph::path(2).to_database("E");
        let p = parse_program("T(x) :- E(y, x), !T(y).").unwrap();
        assert!(least_fixpoint_seminaive(&p, &db).is_err());
    }

    #[test]
    fn empty_database() {
        let db = inflog_core::Database::new();
        let p = parse_program(TC).unwrap();
        let (lfp, trace) = least_fixpoint_seminaive(&p, &db).unwrap();
        assert_eq!(lfp.total_tuples(), 0);
        assert_eq!(trace.rounds, 0);
    }
}
