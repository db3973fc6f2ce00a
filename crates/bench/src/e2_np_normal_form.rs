//! E2 — Theorem 1 + Example 1: fixpoint existence is a normal form for NP.
//!
//! Track A: π_SAT on D(I) for random 3-SAT across the density spectrum;
//! the fixpoint verdict must coincide with an independent CDCL solver.
//! Track B: the generic ∃SO → DATALOG¬ compiler (Skolem normal form) on
//! fixed NP properties, validated against brute-force ∃SO checking.

use crate::report::Table;
use inflog::core::graphs::DiGraph;
use inflog::fixpoint::FixpointAnalyzer;
use inflog::logic::eso::{Eso, SkolemNf};
use inflog::logic::eso_to_datalog;
use inflog::logic::fo::Fo;
use inflog::reductions::programs::pi_sat;
use inflog::reductions::sat_db::cnf_to_database;
use inflog::sat::gen::random_ksat;
use inflog::sat::Solver;
use inflog::syntax::var;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub(crate) fn run(full: bool) {
    let mut rng = StdRng::seed_from_u64(20_240_607);

    // Track A: pi_SAT across clause densities.
    println!("\ntrack A: pi_SAT on D(I), random 3-SAT, n = 5 variables");
    let trials = if full { 20 } else { 8 };
    let mut t = Table::new(&[
        "m/n ratio",
        "trials",
        "SAT (solver)",
        "fixpoint exists",
        "agree",
        "avg ground tuples",
        "avg cnf vars",
    ]);
    for ratio in [2.0f64, 3.0, 4.3, 5.5, 7.0] {
        let n_vars = 5usize;
        let m = (ratio * n_vars as f64).round() as usize;
        let mut sat = 0;
        let mut fix = 0;
        let mut agree = 0;
        let mut tuples = 0usize;
        let mut cnf_vars = 0usize;
        for _ in 0..trials {
            let cnf = random_ksat(n_vars, m, 3, &mut rng);
            let s = Solver::from_cnf(&cnf).solve().is_sat();
            let db = cnf_to_database(&cnf);
            let analyzer = FixpointAnalyzer::new(&pi_sat(), &db).expect("compiles");
            let f = analyzer.fixpoint_exists();
            sat += u32::from(s);
            fix += u32::from(f);
            agree += u32::from(s == f);
            tuples += analyzer.ground.total_tuples;
            cnf_vars += analyzer.encoding.cnf.num_vars();
        }
        assert_eq!(agree, trials, "Theorem 1 violated at ratio {ratio}");
        t.row(&[
            &ratio,
            &trials,
            &sat,
            &fix,
            &format!("{agree}/{trials}"),
            &(tuples / trials as usize),
            &(cnf_vars / trials as usize),
        ]);
    }
    t.print();

    // Track B: the generic compiler on NP properties of graphs.
    println!("\ntrack B: generic ESO -> DATALOG~ compiler (Skolem NF, Theorem 1 proof)");
    let e = |x: &str, y: &str| Fo::atom("E", vec![var(x), var(y)]);
    let s1 = |x: &str| Fo::atom("S", vec![var(x)]);
    let two_col = Eso::new(
        vec![("S", 1)],
        Fo::Or(vec![
            e("x", "y").negate(),
            Fo::And(vec![s1("x"), s1("y").negate()]),
            Fo::And(vec![s1("x").negate(), s1("y")]),
        ])
        .forall("y")
        .forall("x"),
    );
    let dominating = Eso::new(
        vec![("S", 1)],
        Fo::Or(vec![
            s1("x"),
            Fo::And(vec![e("y", "x"), s1("y")]).exists("y"),
        ])
        .forall("x"),
    );
    let sink_cover = Eso::new(
        vec![("S", 1)],
        Fo::And(vec![e("x", "y"), s1("y")]).exists("y").forall("x"),
    );

    let mut t = Table::new(&[
        "property",
        "graph",
        "ESO (brute)",
        "fixpoint",
        "agree",
        "program rules",
        "SO vars (w/ witnesses)",
    ]);
    let graphs: Vec<(&str, DiGraph)> = vec![
        ("C4 sym", symmetric_cycle(4)),
        ("C5 sym", symmetric_cycle(5)),
        ("path L4", DiGraph::path(4)),
        ("cycle C4", DiGraph::cycle(4)),
        ("star S4", DiGraph::star(4)),
    ];
    for (pname, eso) in [
        ("2-colorable", &two_col),
        ("in-dominating set = all", &dominating),
        ("all have out-nbr in S", &sink_cover),
    ] {
        let nf = SkolemNf::of(eso, 10_000);
        let red = eso_to_datalog(&nf);
        for (gname, g) in &graphs {
            let db = g.to_database("E");
            let brute = eso.eval_brute(&db);
            let analyzer = FixpointAnalyzer::new(&red.program, &db).expect("compiles");
            let fixpoint = analyzer.fixpoint_exists();
            assert_eq!(brute, fixpoint, "{pname} on {gname}");
            t.row(&[
                &pname,
                &gname,
                &brute,
                &fixpoint,
                &(brute == fixpoint),
                &red.program.len(),
                &nf.so_vars.len(),
            ]);
        }
    }
    t.print();
}

fn symmetric_cycle(n: usize) -> DiGraph {
    let mut g = DiGraph::new(n);
    for i in 0..n {
        g.add_edge_undirected(i as u32, ((i + 1) % n) as u32);
    }
    g
}
