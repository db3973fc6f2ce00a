//! E6 — §4: Inflationary DATALOG is total, conservative over DATALOG, and
//! polynomially bounded.
//!
//! Tables: (a) iteration counts vs the |A|^k bound across programs and
//! databases; (b) coincidence with the standard least-fixpoint semantics on
//! negation-free programs; (c) the paper's two §4 mini-examples
//! (the toggle and π₁ stabilize after one round).

use crate::report::Table;
use inflog::core::graphs::DiGraph;
use inflog::eval::{inflationary, least_fixpoint_seminaive};
use inflog::reductions::programs::{distance_program, pi1, pi2, pi3_tc, toggle};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

pub(crate) fn run(full: bool) {
    let mut rng = StdRng::seed_from_u64(66);

    println!("\n(a) iteration counts vs the Σ|A|^k bound");
    let mut t = Table::new(&[
        "program",
        "database",
        "|A|",
        "rounds",
        "bound Σ|A|^k",
        "tuples",
        "time (ms)",
    ]);
    let sizes: Vec<usize> = if full {
        vec![4, 8, 16, 32, 64]
    } else {
        vec![4, 8, 16]
    };
    let programs: Vec<(&str, inflog::syntax::Program, Vec<usize>)> = vec![
        ("toggle", toggle(), vec![1]),
        ("pi_1", pi1(), vec![1]),
        ("pi_2", pi2(), vec![2, 4]),
        ("pi_3 (TC)", pi3_tc(), vec![2]),
        ("distance", distance_program(), vec![2, 2, 4]),
    ];
    for &n in &sizes {
        let g = DiGraph::cycle(n);
        let db = g.to_database("E");
        for (name, program, arities) in &programs {
            let start = Instant::now();
            let (result, trace) = inflationary(program, &db).expect("total");
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let bound: usize = arities.iter().map(|&k| n.pow(k as u32)).sum();
            assert!(trace.rounds <= bound, "{name} exceeded the paper's bound");
            t.row(&[
                name,
                &format!("C_{n}"),
                &n,
                &trace.rounds,
                &bound,
                &result.total_tuples(),
                &format!("{ms:.2}"),
            ]);
        }
    }
    t.print();

    println!("\n(b) coincidence with least-fixpoint semantics on DATALOG programs");
    let mut t = Table::new(&["database", "lfp tuples", "inflationary tuples", "equal"]);
    for _ in 0..(if full { 8 } else { 4 }) {
        let g = DiGraph::random_gnp(10, 0.2, &mut rng);
        let db = g.to_database("E");
        let (lfp, _) = least_fixpoint_seminaive(&pi3_tc(), &db).expect("positive");
        let (inf, _) = inflationary(&pi3_tc(), &db).expect("total");
        assert_eq!(lfp, inf);
        t.row(&[
            &format!("G(10,0.2) m={}", g.num_edges()),
            &lfp.total_tuples(),
            &inf.total_tuples(),
            &true,
        ]);
    }
    t.print();

    println!("\n(c) the paper's Section 4 mini-examples");
    let mut t = Table::new(&["program", "database", "Theta^inf", "rounds", "paper says"]);
    let mut db = inflog::core::Database::new();
    for c in ["a", "b", "c"] {
        db.universe_mut().intern(c);
    }
    let (inf, trace) = inflationary(&toggle(), &db).expect("total");
    assert_eq!(
        (inf.total_tuples(), trace.rounds),
        (3, 1),
        "toggle: Theta^inf = Theta^1 = A"
    );
    t.row(&[
        &"T(x) <- !T(y)",
        &"A = {a,b,c}",
        &format!("{} tuples (= A)", inf.total_tuples()),
        &trace.rounds,
        &"Theta^inf = Theta^1 = A",
    ]);
    let g = DiGraph::path(5);
    let (inf, trace) = inflationary(&pi1(), &g.to_database("E")).expect("total");
    // Every vertex of L_5 but the source v0 has an in-edge.
    assert_eq!(
        (inf.total_tuples(), trace.rounds),
        (4, 1),
        "pi_1 on L_5: Theta^inf = {{x : ∃y E(y,x)}}"
    );
    t.row(&[
        &"pi_1",
        &"L_5",
        &format!("{} tuples", inf.total_tuples()),
        &trace.rounds,
        &"Theta^inf = {x : ∃y E(y,x)}",
    ]);
    t.print();
}
