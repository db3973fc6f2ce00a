//! E5 — Lemma 1 + Theorem 4: 3-coloring as fixpoint existence, explicit and
//! succinct.
//!
//! Explicit track: π_COL vs an independent SAT-based colorability checker.
//! Succinct track: the π_SC construction on circuit-presented graphs, with
//! the exponential circuit → graph → grounding blowup measured.

use crate::report::Table;
use inflog::circuit::encode::{from_explicit_graph, hypercube, succinct_cycle};
use inflog::circuit::succinct_coloring_reduction;
use inflog::core::graphs::DiGraph;
use inflog::fixpoint::FixpointAnalyzer;
use inflog::reductions::coloring::is_3colorable_sat;
use inflog::reductions::programs::pi_col;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub(crate) fn run(full: bool) {
    let mut rng = StdRng::seed_from_u64(55);

    println!("\ntrack A: explicit pi_COL (Lemma 1)");
    let mut t = Table::new(&[
        "graph",
        "3-colorable (SAT)",
        "fixpoint exists",
        "agree",
        "ground tuples",
    ]);
    let mut graphs: Vec<(String, DiGraph)> = vec![
        ("C3".into(), DiGraph::cycle(3)),
        ("C5".into(), DiGraph::cycle(5)),
        ("K4".into(), DiGraph::complete(4)),
        ("Petersen".into(), DiGraph::petersen()),
        ("K33".into(), DiGraph::complete_bipartite(3, 3)),
        ("grid 3x3".into(), DiGraph::grid(3, 3)),
    ];
    let extra = if full { 8 } else { 4 };
    for i in 0..extra {
        graphs.push((
            format!("rand(7,.5)#{i}"),
            DiGraph::random_undirected(7, 0.5, &mut rng),
        ));
    }
    for (name, g) in graphs {
        let truth = is_3colorable_sat(&g).is_some();
        let db = g.to_database("E");
        let analyzer = FixpointAnalyzer::new(&pi_col(), &db).expect("compiles");
        let fix = analyzer.fixpoint_exists();
        assert_eq!(truth, fix, "Lemma 1 on {name}");
        t.row(&[&name, &truth, &fix, &true, &analyzer.ground.total_tuples]);
    }
    t.print();

    println!("\ntrack B: succinct graphs and pi_SC (Theorem 4)");
    let mut t = Table::new(&[
        "succinct graph",
        "circuit gates",
        "vertices (2^n)",
        "pi_SC rules",
        "ground tuples",
        "3-colorable",
        "fixpoint",
    ]);
    let max_bits = if full { 4 } else { 3 };
    let mut cases: Vec<(String, inflog::circuit::SuccinctGraph)> = Vec::new();
    for bits in 1..=max_bits {
        cases.push((format!("cycle 2^{bits}"), succinct_cycle(bits)));
    }
    for bits in 2..=max_bits.min(3) {
        cases.push((format!("hypercube Q_{bits}"), hypercube(bits)));
    }
    cases.push((
        "K4 explicit".into(),
        from_explicit_graph(&DiGraph::complete(4), 2),
    ));
    cases.push((
        "C5 explicit".into(),
        from_explicit_graph(&DiGraph::cycle(5), 3),
    ));

    for (name, sg) in cases {
        let truth = is_3colorable_sat(&sg.expand()).is_some();
        let red = succinct_coloring_reduction(&sg);
        let analyzer = FixpointAnalyzer::new(&red.program, &red.database).expect("compiles");
        let fix = analyzer.fixpoint_exists();
        assert_eq!(truth, fix, "Theorem 4 on {name}");
        t.row(&[
            &name,
            &sg.circuit().num_gates(),
            &sg.num_vertices(),
            &red.program.len(),
            &analyzer.ground.total_tuples,
            &truth,
            &fix,
        ]);
    }
    t.print();

    println!(
        "\nshape check: per address bit, the graph and the grounding grow\n\
         exponentially while the circuit and program grow polynomially —\n\
         the data-vs-expression-complexity gap behind NEXP-hardness."
    );
}
