//! Cross-engine agreement tests over the `graphs` workloads: on *positive*
//! DATALOG programs every engine — naive, semi-naive, inflationary (both
//! iteration styles) and stratified — must compute the same least fixpoint
//! (the invariants documented in `crates/eval/src/lib.rs`), and that
//! fixpoint must match an independent graph-theoretic baseline.
//!
//! The same workloads then witness the §4 separation: on non-stratifiable
//! programs the stratified semantics is undefined while the inflationary
//! fixpoint still exists, and on the (stratifiable) §4 distance program the
//! two semantics are both defined yet disagree.

use inflog::core::graphs::DiGraph;
use inflog::core::{Const, Database};
use inflog::eval::{
    inflationary, inflationary_naive, least_fixpoint_naive, least_fixpoint_seminaive,
    stratified_eval, well_founded, CompiledProgram, Engine, EvalError, EvalOptions, Interp,
};
use inflog::reductions::programs::{distance_program, pi1, pi3_tc};
use inflog::syntax::{parse_program, Program};
use std::collections::BTreeSet;

/// Extracts an IDB relation as vertex-id tuples (vertices are named `v<i>`
/// by [`DiGraph::to_database`]).
fn idb_tuples(
    db: &Database,
    cp: &CompiledProgram,
    interp: &Interp,
    name: &str,
) -> BTreeSet<Vec<u32>> {
    let idx = cp.idb_id(name).unwrap_or_else(|| panic!("IDB {name}"));
    let vertex_id = |c: Const| -> u32 {
        db.universe()
            .name(c)
            .and_then(|n| n.strip_prefix('v'))
            .and_then(|n| n.parse().ok())
            .expect("vertex names are v<i>")
    };
    interp
        .get(idx)
        .iter()
        .map(|t| t.items().iter().map(|&c| vertex_id(c)).collect())
        .collect()
}

/// Asserts that, for each engine, `Engine::evaluate` gives the model of its
/// paper-named function — true and undefined facts — or the same error.
fn assert_entry_point_agrees(program: &Program, db: &Database, label: &str) {
    for engine in [
        Engine::Seminaive,
        Engine::Inflationary,
        Engine::Stratified,
        Engine::WellFounded,
    ] {
        let named = match engine {
            Engine::Seminaive => least_fixpoint_seminaive(program, db).map(|(s, _)| (s, None)),
            Engine::Inflationary => inflationary(program, db).map(|(s, _)| (s, None)),
            Engine::Stratified => stratified_eval(program, db).map(|(s, _)| (s, None)),
            Engine::WellFounded => {
                well_founded(program, db).map(|m| (m.true_facts, Some(m.undefined)))
            }
        };
        let entry = engine.evaluate(program, db, &EvalOptions::sequential());
        match (named, entry) {
            (Ok((s, undefined)), Ok((t, u))) => {
                assert_eq!(s, t, "{label}: {engine:?} true facts");
                if let Some(undefined) = undefined {
                    assert_eq!(undefined, u, "{label}: {engine:?} undefined facts");
                } else {
                    assert!(u.all_empty(), "{label}: {engine:?} is two-valued");
                }
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{label}: {engine:?} error"),
            (a, b) => panic!("{label}: {engine:?} disagrees: {a:?} vs {b:?}"),
        }
    }
}

/// Runs all four least-fixpoint-capable engines on a positive program and
/// asserts they agree exactly; returns the common result.
fn assert_engines_agree(program: &Program, db: &Database, label: &str) -> Interp {
    assert!(program.is_positive(), "{label}: workload must be positive");
    let (naive, tn) = least_fixpoint_naive(program, db).unwrap();
    let (semi, ts) = least_fixpoint_seminaive(program, db).unwrap();
    assert_eq!(naive, semi, "{label}: naive vs semi-naive");
    assert_eq!(tn.rounds, ts.rounds, "{label}: round counts");
    let (inf_semi, _) = inflationary(program, db).unwrap();
    assert_eq!(naive, inf_semi, "{label}: lfp vs inflationary (semi-naive)");
    let (inf_naive, _) = inflationary_naive(program, db).unwrap();
    assert_eq!(naive, inf_naive, "{label}: lfp vs inflationary (naive)");
    let (strat, _) = stratified_eval(program, db).unwrap();
    assert_eq!(naive, strat, "{label}: lfp vs stratified");
    assert_entry_point_agrees(program, db, label);
    naive
}

/// Positive programs that all compute the transitive closure in `S`, with
/// different rule shapes (right-linear, left-linear, non-linear) so the
/// engines exercise different join orders and delta patterns.
fn tc_variants() -> Vec<(&'static str, Program)> {
    vec![
        ("right-linear", pi3_tc()),
        (
            "left-linear",
            parse_program("S(x, y) :- E(x, y). S(x, y) :- S(x, z), E(z, y).").unwrap(),
        ),
        (
            "non-linear",
            parse_program("S(x, y) :- E(x, y). S(x, y) :- S(x, z), S(z, y).").unwrap(),
        ),
    ]
}

#[test]
fn engines_agree_on_paths() {
    for n in [1usize, 2, 3, 5, 9, 16] {
        let g = DiGraph::path(n);
        let db = g.to_database("E");
        let expected: BTreeSet<Vec<u32>> = g
            .transitive_closure()
            .into_iter()
            .map(|(u, v)| vec![u, v])
            .collect();
        for (shape, program) in tc_variants() {
            let label = format!("L_{n} / {shape}");
            let result = assert_engines_agree(&program, &db, &label);
            let cp = CompiledProgram::compile(&program, &db).unwrap();
            assert_eq!(
                idb_tuples(&db, &cp, &result, "S"),
                expected,
                "{label}: S must be the transitive closure"
            );
        }
    }
}

#[test]
fn engines_agree_on_cycles() {
    for n in [1usize, 2, 3, 4, 7, 12] {
        let g = DiGraph::cycle(n);
        let db = g.to_database("E");
        let expected: BTreeSet<Vec<u32>> = g
            .transitive_closure()
            .into_iter()
            .map(|(u, v)| vec![u, v])
            .collect();
        // On C_n the closure is the complete relation.
        assert_eq!(expected.len(), n * n, "C_{n} closure is complete");
        for (shape, program) in tc_variants() {
            let label = format!("C_{n} / {shape}");
            let result = assert_engines_agree(&program, &db, &label);
            let cp = CompiledProgram::compile(&program, &db).unwrap();
            assert_eq!(
                idb_tuples(&db, &cp, &result, "S"),
                expected,
                "{label}: S must be the transitive closure"
            );
        }
    }
}

#[test]
fn engines_agree_on_multi_idb_positive_program() {
    // Two stacked IDBs: transitive closure plus the vertices that reach the
    // end of the path / close the cycle; agreement must hold per-relation.
    let program = parse_program(
        "
        S(x, y) :- E(x, y).
        S(x, y) :- E(x, z), S(z, y).
        R(x) :- S(x, x).
        ",
    )
    .unwrap();
    for g in [
        DiGraph::path(6),
        DiGraph::cycle(6),
        DiGraph::disjoint_cycles(2, 3),
    ] {
        let db = g.to_database("E");
        let result = assert_engines_agree(&program, &db, "multi-IDB");
        let cp = CompiledProgram::compile(&program, &db).unwrap();
        let tc = g.transitive_closure();
        let on_cycle: BTreeSet<Vec<u32>> = (0..g.num_vertices() as u32)
            .filter(|&v| tc.contains(&(v, v)))
            .map(|v| vec![v])
            .collect();
        assert_eq!(idb_tuples(&db, &cp, &result, "R"), on_cycle);
    }
}

#[test]
fn non_stratifiable_pi1_inflationary_still_defined() {
    // π₁ (§2) recurses through negation, so the stratified semantics is
    // undefined — but the §4 inflationary fixpoint exists on every input.
    for (label, g) in [
        ("L_5", DiGraph::path(5)),
        ("C_4", DiGraph::cycle(4)),
        ("C_5", DiGraph::cycle(5)),
    ] {
        let db = g.to_database("E");
        assert_entry_point_agrees(&pi1(), &db, label);
        assert!(
            matches!(
                stratified_eval(&pi1(), &db),
                Err(EvalError::NotStratified { .. })
            ),
            "{label}: π₁ must be rejected by stratification"
        );
        let (inf, trace) = inflationary(&pi1(), &db).unwrap();
        assert!(trace.rounds >= 1, "{label}: at least one round");
        // The inflationary fixpoint of π₁ is the set of vertices with a
        // predecessor: round 1 fires for every in-edge (T is empty), and
        // afterwards no new vertex can be added.
        let cp = CompiledProgram::compile(&pi1(), &db).unwrap();
        let with_pred: BTreeSet<Vec<u32>> = g.edges().map(|(_, v)| vec![v]).collect();
        assert_eq!(
            idb_tuples(&db, &cp, &inf, "T"),
            with_pred,
            "{label}: inflationary π₁ = vertices with a predecessor"
        );
    }
}

#[test]
fn distance_program_semantics_diverge_on_cycles() {
    // The §4 distance program is stratifiable, and both semantics are
    // defined — but they disagree: stratified reads S3 as
    // TC(x,y) ∧ ¬TC(x',y'), which is empty on a cycle (TC is complete),
    // while the inflationary reading computes the non-empty distance query.
    let program = distance_program();
    for n in [3usize, 5] {
        let g = DiGraph::cycle(n);
        let db = g.to_database("E");
        assert_entry_point_agrees(&program, &db, &format!("C_{n}"));
        let cp = CompiledProgram::compile(&program, &db).unwrap();
        let (strat, _) = stratified_eval(&program, &db).unwrap();
        let (inf, _) = inflationary(&program, &db).unwrap();
        let s3_strat = idb_tuples(&db, &cp, &strat, "S3");
        let s3_inf = idb_tuples(&db, &cp, &inf, "S3");
        assert!(s3_strat.is_empty(), "C_{n}: stratified S3 = TC ∧ ¬TC = ∅");
        assert!(
            !s3_inf.is_empty(),
            "C_{n}: inflationary S3 is the distance query"
        );
        assert_ne!(s3_strat, s3_inf, "C_{n}: the two semantics must diverge");
        // The lower strata agree: S1 and S2 are positive transitive closure.
        for rel in ["S1", "S2"] {
            assert_eq!(
                idb_tuples(&db, &cp, &strat, rel),
                idb_tuples(&db, &cp, &inf, rel),
                "C_{n}: {rel} is positive, so both semantics agree on it"
            );
        }
    }
}
