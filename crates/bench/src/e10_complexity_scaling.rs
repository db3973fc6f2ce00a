//! E10 — data complexity vs expression complexity (§3 intro + Theorem 4 +
//! the \[Va82\] contrast the paper cites).
//!
//! Fixed program, growing data: grounding size, completion-CNF size and
//! inflationary runtime grow polynomially. Growing program (succinct
//! circuits): the tuple space grows exponentially in the address width.

use crate::report::Table;
use inflog::circuit::encode::succinct_cycle;
use inflog::circuit::succinct_coloring_reduction;
use inflog::core::graphs::DiGraph;
use inflog::eval::inflationary;
use inflog::fixpoint::FixpointAnalyzer;
use inflog::reductions::programs::{pi1, pi_sat};
use inflog::reductions::sat_db::cnf_to_database;
use inflog::sat::gen::random_ksat;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

pub(crate) fn run(full: bool) {
    let mut rng = StdRng::seed_from_u64(1010);

    println!("\n(a) fixed program pi_SAT, growing data (random 3-SAT, m = 4n)");
    let mut t = Table::new(&[
        "n vars",
        "|A|",
        "ground tuples",
        "ground bodies",
        "cnf vars",
        "cnf clauses",
        "exists? (ms)",
    ]);
    // The toggle rule T(z) <- !Q(u), !T(w) grounds to |A|^3 bodies, so the
    // grid stops where that stays in memory (|A| = 5n for these instances).
    let sizes: Vec<usize> = if full {
        vec![4, 8, 12, 16, 20]
    } else {
        vec![4, 8, 12, 16]
    };
    let mut last_tuples = 0usize;
    for &n in &sizes {
        let cnf = random_ksat(n, 4 * n, 3, &mut rng);
        let db = cnf_to_database(&cnf);
        let start = Instant::now();
        let analyzer = FixpointAnalyzer::new(&pi_sat(), &db).expect("compiles");
        let exists = analyzer.fixpoint_exists();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let g = &analyzer.ground;
        // Polynomial shape: |A| = 5n, IDBs unary ⇒ tuples = 3·|A| exactly.
        assert_eq!(g.total_tuples, 3 * db.universe_size());
        assert!(g.total_tuples >= last_tuples);
        last_tuples = g.total_tuples;
        t.row(&[
            &n,
            &db.universe_size(),
            &g.total_tuples,
            &g.num_bodies(),
            &analyzer.encoding.cnf.num_vars(),
            &analyzer.encoding.cnf.num_clauses(),
            &format!("{exists} ({ms:.1})"),
        ]);
    }
    t.print();

    println!("\n(b) fixed program pi_1, growing data: inflationary evaluation is polynomial");
    let mut t = Table::new(&["|A| (cycle)", "rounds", "tuples", "time (ms)"]);
    let sizes: Vec<usize> = if full {
        vec![50, 100, 200, 400, 800]
    } else {
        vec![25, 50, 100, 200]
    };
    for &n in &sizes {
        let db = DiGraph::cycle(n).to_database("E");
        let start = Instant::now();
        let (inf, trace) = inflationary(&pi1(), &db).expect("total");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        t.row(&[&n, &trace.rounds, &inf.total_tuples(), &format!("{ms:.2}")]);
    }
    t.print();

    println!("\n(c) program part of the input: succinct cycles, exponential tuple space");
    let mut t = Table::new(&[
        "address bits",
        "circuit gates",
        "program rules",
        "vertices",
        "ground tuples",
        "cnf vars",
        "build+solve (ms)",
    ]);
    let max_bits = if full { 4 } else { 3 };
    let mut prev = 0usize;
    for bits in 1..=max_bits {
        let sg = succinct_cycle(bits);
        let red = succinct_coloring_reduction(&sg);
        let start = Instant::now();
        let analyzer = FixpointAnalyzer::new(&red.program, &red.database).expect("compiles");
        let _ = analyzer.fixpoint_exists();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let tuples = analyzer.ground.total_tuples;
        assert!(tuples > 2 * prev, "exponential growth expected");
        prev = tuples;
        t.row(&[
            &bits,
            &sg.circuit().num_gates(),
            &red.program.len(),
            &sg.num_vertices(),
            &tuples,
            &analyzer.encoding.cnf.num_vars(),
            &format!("{ms:.1}"),
        ]);
    }
    t.print();

    println!(
        "\nshape summary: (a)+(b) polynomial in the data for fixed programs —\n\
         the paper's NP membership / PTIME inflationary claims; (c) exponential\n\
         in the program — the NEXP-hardness side (Theorem 4)."
    );
}
