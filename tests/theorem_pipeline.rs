//! End-to-end integration of the paper's main results across crates:
//! Theorem 1 (NP ≡ fixpoint existence), Theorem 2 (US / unique fixpoints),
//! Theorem 3 (FONP least fixpoints) and Theorem 4 (succinct 3-coloring),
//! driven through parsing, evaluation, grounding, SAT and the reductions.

use inflog::circuit::encode::{from_explicit_graph, hypercube};
use inflog::circuit::succinct_coloring_reduction;
use inflog::core::graphs::DiGraph;
use inflog::fixpoint::{enumerate_fixpoints_brute, FixpointAnalyzer, LeastFixpointResult};
use inflog::reductions::coloring::is_3colorable_brute;
use inflog::reductions::programs::{pi1, pi_col, pi_sat};
use inflog::reductions::sat_db::cnf_to_database;
use inflog::sat::gen::random_ksat;
use inflog::sat::{brute_force_count, Solver};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn theorem1_sat_reduction_end_to_end() {
    let mut rng = StdRng::seed_from_u64(4242);
    let mut sat_seen = 0;
    let mut unsat_seen = 0;
    // Mix under-constrained (mostly SAT) and over-constrained (mostly
    // UNSAT) densities so the workload covers both verdicts.
    for clauses in [5usize, 5, 6, 6, 18, 20, 22, 24] {
        let cnf = random_ksat(4, clauses, 3, &mut rng);
        let independent = Solver::from_cnf(&cnf).solve().is_sat();
        let db = cnf_to_database(&cnf);
        let analyzer = FixpointAnalyzer::new(&pi_sat(), &db).unwrap();
        assert_eq!(analyzer.fixpoint_exists(), independent);
        if independent {
            sat_seen += 1;
        } else {
            unsat_seen += 1;
        }
    }
    assert!(sat_seen > 0 && unsat_seen > 0, "workload covers both sides");
}

#[test]
fn theorem2_model_fixpoint_bijection() {
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..6 {
        let cnf = random_ksat(5, 8, 3, &mut rng);
        let models = brute_force_count(&cnf);
        let db = cnf_to_database(&cnf);
        let analyzer = FixpointAnalyzer::new(&pi_sat(), &db).unwrap();
        let (count, complete) = analyzer.count_fixpoints(1 << 14);
        assert!(complete);
        assert_eq!(count, models);
        assert_eq!(analyzer.has_unique_fixpoint(), models == 1);
    }
}

#[test]
fn theorem3_fonp_vs_enumeration_on_paper_families() {
    // The two least-fixpoint deciders agree on every paper family.
    // Oracle calls with backbone filtering: one existence query, then one
    // per tuple that every model seen so far makes true (C5 has no
    // fixpoint, so only the existence query).
    let graphs: Vec<(DiGraph, &str, u64)> = vec![
        (DiGraph::path(5), "L5", 3),
        (DiGraph::cycle(5), "C5", 1),
        (DiGraph::cycle(6), "C6", 2),
        (DiGraph::disjoint_cycles(2, 2), "G2", 3),
        (DiGraph::disjoint_cycles(3, 2), "G3", 4),
    ];
    for (g, name, calls) in graphs {
        let db = g.to_database("E");
        let analyzer = FixpointAnalyzer::new(&pi1(), &db).unwrap();
        let (fonp, stats) = analyzer.least_fixpoint_fonp();
        let by_enum = analyzer.least_fixpoint_by_enumeration(1 << 12).unwrap();
        assert_eq!(fonp, by_enum, "{name}");
        assert_eq!(stats.oracle_calls, calls, "{name}");
        // Never more than the unfiltered budget: one query per tuple.
        assert!(
            stats.oracle_calls as usize <= 1 + g.num_vertices(),
            "{name}"
        );
    }
}

#[test]
fn theorem3_against_brute_force_enumeration() {
    // Brute-force enumeration (no SAT anywhere) agrees with the analyzer.
    let cases = [DiGraph::path(4), DiGraph::cycle(4), DiGraph::cycle(5)];
    for g in cases {
        let db = g.to_database("E");
        let brute = enumerate_fixpoints_brute(&pi1(), &db, 20).unwrap();
        let analyzer = FixpointAnalyzer::new(&pi1(), &db).unwrap();
        let (r, _) = analyzer.least_fixpoint_fonp();
        match (&r, brute.len()) {
            (LeastFixpointResult::NoFixpoint, 0) => {}
            (LeastFixpointResult::Least(least), n) => {
                assert!(n > 0);
                assert!(brute.iter().all(|f| least.is_subset(f)));
                assert!(brute.iter().any(|f| f == least));
            }
            (LeastFixpointResult::NoLeast, n) => {
                assert!(n > 1);
                let mut inter = brute[0].clone();
                for f in &brute[1..] {
                    inter = inter.intersection(f);
                }
                assert!(!brute.contains(&inter));
            }
            other => panic!("mismatch: {other:?} on {g}"),
        }
    }
}

#[test]
fn theorem4_succinct_reduction_pipeline() {
    // Succinct graph → π_SC → fixpoint existence ⟺ 3-colorability of the
    // expanded graph.
    let positives = [hypercube(2), from_explicit_graph(&DiGraph::cycle(5), 3)];
    for sg in positives {
        let g = sg.expand();
        assert!(is_3colorable_brute(&g));
        let red = succinct_coloring_reduction(&sg);
        let analyzer = FixpointAnalyzer::new(&red.program, &red.database).unwrap();
        assert!(analyzer.fixpoint_exists());
    }
    let negative = from_explicit_graph(&DiGraph::complete(4), 2);
    assert!(!is_3colorable_brute(&negative.expand()));
    let red = succinct_coloring_reduction(&negative);
    let analyzer = FixpointAnalyzer::new(&red.program, &red.database).unwrap();
    assert!(!analyzer.fixpoint_exists());
}

#[test]
fn lemma1_explicit_vs_succinct_agree() {
    // The same graph through π_COL directly and through the circuit route
    // must give the same verdict.
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..4 {
        let g = DiGraph::random_undirected(5, 0.5, &mut rng);
        let explicit = FixpointAnalyzer::new(&pi_col(), &g.to_database("E"))
            .unwrap()
            .fixpoint_exists();
        let sg = from_explicit_graph(&g, 3);
        let red = succinct_coloring_reduction(&sg);
        let succinct = FixpointAnalyzer::new(&red.program, &red.database)
            .unwrap()
            .fixpoint_exists();
        assert_eq!(explicit, succinct, "graph {g}");
        assert_eq!(explicit, is_3colorable_brute(&g), "graph {g}");
    }
}

#[test]
fn data_complexity_vs_expression_complexity_shape() {
    // E10's observable, asserted qualitatively: for the fixed π_SAT the
    // grounding grows polynomially with data; for π_SC (program part of the
    // input) the tuple space grows exponentially with the circuit's bits.
    let mut rng = StdRng::seed_from_u64(3);
    let small = cnf_to_database(&random_ksat(3, 6, 2, &mut rng));
    let large = cnf_to_database(&random_ksat(6, 12, 2, &mut rng));
    let a_small = FixpointAnalyzer::new(&pi_sat(), &small).unwrap();
    let a_large = FixpointAnalyzer::new(&pi_sat(), &large).unwrap();
    let (s, l) = (a_small.ground.total_tuples, a_large.ground.total_tuples);
    // Data doubled => tuple space grows by at most the fixed-degree
    // polynomial (quadratic here: arities ≤ 2... π_SAT IDBs are unary, so
    // linear).
    assert!(l <= s * 4, "fixed program must stay polynomial: {s} -> {l}");

    let r2 = succinct_coloring_reduction(&hypercube(2));
    let r3 = succinct_coloring_reduction(&hypercube(3));
    let g2 = FixpointAnalyzer::new(&r2.program, &r2.database).unwrap();
    let g3 = FixpointAnalyzer::new(&r3.program, &r3.database).unwrap();
    // One extra bit ⇒ 4× per-gate tuple space (arity grows by 2).
    assert!(
        g3.ground.total_tuples > 2 * g2.ground.total_tuples,
        "succinct construction must blow up: {} -> {}",
        g2.ground.total_tuples,
        g3.ground.total_tuples
    );
}
