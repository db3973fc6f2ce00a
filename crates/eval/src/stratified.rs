//! Stratified semantics (Chandra–Harel; Apt–Blair–Walker; Van Gelder).
//!
//! The paper's introduction recalls this semantics as the established
//! treatment of negation that *does not cover all programs*: relation
//! symbols are divided into layers and a relation may be used negatively
//! only by strictly higher layers. §4 then shows the distance-query program
//! is stratified yet its stratified meaning *differs* from its inflationary
//! meaning — experiment E8 reproduces that divergence.
//!
//! [`stratify`] computes strata (or a recursion-through-negation witness):
//! the paper-facing view of the signed dependency graph
//! ([`DepGraph::strata`]) by predicate name. [`stratified_eval`] evaluates
//! bottom-up, a finer grain than the strata: one dependency component at a
//! time, dependencies first, through the component walk the well-founded
//! engine runs (`wellfounded.rs`). Negated IDB atoms in a component refer
//! only to lower (already fixed) components, so its operator is monotone
//! and its least fixpoint is reached by accumulating iteration (semi-naive
//! after the first round). Ésik & Rondogiannis (PAPERS.md) show the model
//! built by levels of the graph is the one built by strata. On a program
//! with strata the walk never keeps a second, possible-facts side: it *is*
//! stratified evaluation.

use crate::driver::DeltaDriver;
use crate::error::EvalError;
use crate::govern::Governor;
use crate::interp::Interp;
use crate::materialize::Engine;
use crate::options::EvalOptions;
use crate::trace::EvalTrace;
use crate::wellfounded::walk;
use crate::Result;
use inflog_core::Database;
use inflog_syntax::{DepGraph, Program};
use std::collections::BTreeMap;

/// A stratification: stratum index per IDB predicate, plus rule grouping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stratification {
    /// Stratum of each IDB predicate, by name.
    pub strata: BTreeMap<String, usize>,
    /// Number of strata.
    pub num_strata: usize,
}

impl Stratification {
    /// Stratum of a predicate (0 for EDB/unknown predicates).
    pub fn stratum(&self, pred: &str) -> usize {
        self.strata.get(pred).copied().unwrap_or(0)
    }
}

/// Computes a stratification, or fails with a recursion-through-negation
/// witness.
///
/// A predicate's stratum is the longest path of negative edges out of it
/// over the condensation of the program's signed dependency graph
/// ([`DepGraph::strata`]): the least labelling with
/// `stratum(P) >= stratum(Q)` for positive body IDB atoms `Q` and
/// `stratum(P) > stratum(Q)` for negated ones.
///
/// # Errors
/// [`EvalError::NotStratified`] when the program has recursion through
/// negation (like the paper's `T(z) <- !Q(u), !T(w)` rule); the witness is
/// a dependency cycle through a negative edge, e.g. `T -!-> T`.
pub fn stratify(program: &Program) -> Result<Stratification> {
    let graph = DepGraph::new(program);
    let levels = graph
        .strata()
        .map_err(|witness| EvalError::NotStratified { witness })?;
    let num_strata = levels.iter().max().map_or(0, |m| m + 1);
    let strata = graph.names().iter().cloned().zip(levels).collect();
    Ok(Stratification { strata, num_strata })
}

/// Evaluates a stratified program bottom-up, component by component;
/// returns the perfect model and the rounds of its components' fixpoints.
/// Uses [`EvalOptions::default`]; [`Engine::Stratified`]'s
/// [`evaluate`](Engine::evaluate) is the same evaluation under explicit
/// options. One budget spans all components.
///
/// # Errors
/// Compilation errors, then [`EvalError::NotStratified`], or a fault
/// injected by a failpoint armed through `INFLOG_FAILPOINT`.
pub fn stratified_eval(program: &Program, db: &Database) -> Result<(Interp, EvalTrace)> {
    let (cp, ctx) = Engine::Stratified.prepare(program, db)?;
    let governor = Governor::new(&EvalOptions::default());
    let mut trace = EvalTrace::default();
    let mut s = cp.empty_interp();
    let driver = &mut DeltaDriver::new(&cp);
    let (u, _) = walk(&cp, &ctx, driver, &mut s, Some(&mut trace), &governor)?;
    debug_assert!(u.is_none(), "a stratified program has no negative cycle");
    trace.final_tuples = s.total_tuples();
    Ok((s, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::least_fixpoint_naive;
    use crate::operator::{apply, EvalContext};
    use crate::resolve::CompiledProgram;
    use inflog_core::graphs::DiGraph;
    use inflog_core::Tuple;
    use inflog_syntax::parse_program;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn positive_program_is_single_stratum() {
        let p = parse_program("S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).").unwrap();
        let s = stratify(&p).unwrap();
        assert_eq!(s.num_strata, 1);
        assert_eq!(s.stratum("S"), 0);
    }

    #[test]
    fn negation_on_lower_stratum_ok() {
        let p =
            parse_program("S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y). C(x, y) :- !S(x, y).")
                .unwrap();
        let s = stratify(&p).unwrap();
        assert_eq!(s.num_strata, 2);
        assert_eq!(s.stratum("S"), 0);
        assert_eq!(s.stratum("C"), 1);
    }

    fn witness(src: &str) -> String {
        match stratify(&parse_program(src).unwrap()) {
            Err(EvalError::NotStratified { witness }) => witness,
            other => panic!("expected NotStratified, got {other:?}"),
        }
    }

    #[test]
    fn pi1_is_not_stratified() {
        // T uses itself negatively: recursion through negation.
        assert_eq!(witness("T(x) :- E(y, x), !T(y)."), "T -!-> T");
    }

    #[test]
    fn mutual_negative_recursion_rejected() {
        assert_eq!(
            witness("A(x) :- V(x), !B(x). B(x) :- V(x), !A(x)."),
            "A -!-> B -!-> A"
        );
    }

    #[test]
    fn witnesses_name_an_actual_cycle() {
        // Chalk's `G1 :- not { G1 }` (SNIPPETS.md §3).
        assert_eq!(witness("G1 :- !G1."), "G1 -!-> G1");
        // Scallop's `is_true() = not is_true()` (SNIPPETS.md §2).
        assert_eq!(witness("IsTrue :- !IsTrue."), "IsTrue -!-> IsTrue");
        // Two predicates, one negative and one positive edge.
        assert_eq!(
            witness("P(x) :- V(x), !Q(x). Q(x) :- V(x), P(x). R(x) :- !P(x), V(x)."),
            "P -!-> Q --> P"
        );
        // The paper's pivotal rule: `Q` is extensional, `T` negates itself.
        assert_eq!(witness("T(z) :- !Q(u), !T(w)."), "T -!-> T");
        // The error message carries the witness verbatim.
        let err = stratify(&parse_program("G1 :- !G1.").unwrap()).unwrap_err();
        assert_eq!(err.to_string(), "program is not stratified: G1 -!-> G1");
    }

    #[test]
    fn compiled_strata_carry_the_same_witness() {
        for src in [
            "T(x) :- E(y, x), !T(y).",
            "P(x) :- V(x), !Q(x). Q(x) :- V(x), P(x). R(x) :- !P(x), V(x).",
        ] {
            let p = parse_program(src).unwrap();
            let db = DiGraph::path(3).to_database("E");
            let cp = CompiledProgram::compile(&p, &db).unwrap();
            assert_eq!(cp.check_stratified(), stratify(&p).map(|_| ()));
        }
        // Compilation comes first: a program that is both badly typed and
        // not stratifiable reports the arity conflict.
        let p = parse_program("T(x) :- E(y, x), !T(y, y).").unwrap();
        let err = stratified_eval(&p, &DiGraph::path(3).to_database("E")).unwrap_err();
        assert!(matches!(err, EvalError::ArityMismatch { .. }), "{err:?}");
    }

    #[test]
    fn paper_distance_program_has_two_strata() {
        // §4's remark: the distance program is stratified with two strata.
        let src = "
            S1(x, y) :- E(x, y).
            S1(x, y) :- E(x, z), S1(z, y).
            S2(x, y) :- E(x, y).
            S2(x, y) :- E(x, z), S2(z, y).
            S3(x, y, u, v) :- E(x, y), !S2(u, v).
            S3(x, y, u, v) :- E(x, z), S1(z, y), !S2(u, v).
        ";
        let p = parse_program(src).unwrap();
        let s = stratify(&p).unwrap();
        assert_eq!(s.num_strata, 2);
        assert_eq!(s.stratum("S1"), 0);
        assert_eq!(s.stratum("S2"), 0);
        assert_eq!(s.stratum("S3"), 1);
    }

    #[test]
    fn stratified_matches_naive_on_positive_programs() {
        let p = parse_program("S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).").unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..6 {
            let db = DiGraph::random_gnp(7, 0.3, &mut rng).to_database("E");
            let (a, _) = least_fixpoint_naive(&p, &db).unwrap();
            let (b, _) = stratified_eval(&p, &db).unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn complement_of_tc() {
        // §5 hierarchy: TC-complement is stratified but not DATALOG.
        let src = "
            S(x, y) :- E(x, y).
            S(x, y) :- E(x, z), S(z, y).
            C(x, y) :- !S(x, y).
        ";
        let p = parse_program(src).unwrap();
        let g = DiGraph::path(3);
        let db = g.to_database("E");
        let (m, _) = stratified_eval(&p, &db).unwrap();
        let cp = CompiledProgram::compile(&p, &db).unwrap();
        let cid = cp.idb_id("C").unwrap();
        let tc = g.transitive_closure();
        for u in 0..3u32 {
            for v in 0..3u32 {
                let t = Tuple::from_ids(&[u, v]);
                assert_eq!(m.get(cid).contains(&t), !tc.contains(&(u, v)), "({u},{v})");
            }
        }
    }

    #[test]
    fn perfect_model_is_a_supported_model() {
        // The stratified (perfect) model is a fixpoint of Θ — the bridge
        // between the paper's fixpoints and stratified semantics.
        let src = "
            S(x, y) :- E(x, y).
            S(x, y) :- E(x, z), S(z, y).
            C(x, y) :- !S(x, y).
        ";
        let p = parse_program(src).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..5 {
            let db = DiGraph::random_gnp(5, 0.35, &mut rng).to_database("E");
            let (m, _) = stratified_eval(&p, &db).unwrap();
            let cp = CompiledProgram::compile(&p, &db).unwrap();
            let ctx = EvalContext::new(&cp, &db).unwrap();
            assert_eq!(apply(&cp, &ctx, &m), m);
        }
    }

    #[test]
    fn three_strata_chain() {
        let src = "
            A(x) :- V(x).
            B(x) :- V(x), !A(x).
            C(x) :- V(x), !B(x).
        ";
        let p = parse_program(src).unwrap();
        let s = stratify(&p).unwrap();
        assert_eq!(s.num_strata, 3);
        let mut db = inflog_core::Database::new();
        db.insert_named_fact("V", &["a"]).unwrap();
        let (m, _) = stratified_eval(&p, &db).unwrap();
        let cp = CompiledProgram::compile(&p, &db).unwrap();
        // A = {a}; B = ∅ (a ∈ A); C = {a} (a ∉ B).
        assert_eq!(m.get(cp.idb_id("A").unwrap()).len(), 1);
        assert_eq!(m.get(cp.idb_id("B").unwrap()).len(), 0);
        assert_eq!(m.get(cp.idb_id("C").unwrap()).len(), 1);
    }
}
