//! E3 — Theorem 2: π-UNIQUE-FIXPOINT and the class US.
//!
//! The proof rests on a bijection between satisfying assignments of `I` and
//! fixpoints of `(π_SAT, D(I))`; this experiment tabulates exact model
//! counts against exact fixpoint counts, flags the unique cases, and also
//! reports the paper's other US illustration (unique Hamilton circuits).

use crate::report::Table;
use inflog::core::graphs::DiGraph;
use inflog::fixpoint::FixpointAnalyzer;
use inflog::reductions::hamilton::count_hamilton_circuits;
use inflog::reductions::programs::pi_sat;
use inflog::reductions::sat_db::cnf_to_database;
use inflog::sat::gen::{planted_ksat, random_ksat};
use inflog::sat::{brute_force_count, Cnf, Lit, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn crafted_unique(n: usize) -> Cnf {
    // x0 ∧ x1 ∧ ... ∧ x_{n-1}: exactly one model.
    let mut cnf = Cnf::with_vars(n);
    for i in 0..n {
        cnf.add_clause(vec![Lit::new(Var(i as u32), true)]);
    }
    cnf
}

pub(crate) fn run(full: bool) {
    let mut rng = StdRng::seed_from_u64(33);
    let trials = if full { 24 } else { 10 };

    let mut t = Table::new(&[
        "instance",
        "#models",
        "#fixpoints",
        "bijection",
        "unique SAT",
        "unique fixpoint",
    ]);
    let mut cases: Vec<(String, Cnf)> = vec![
        ("crafted unique (n=4)".into(), crafted_unique(4)),
        ("unsat (x & !x)".into(), {
            let mut c = Cnf::with_vars(1);
            c.add_clause(vec![Var(0).pos()]);
            c.add_clause(vec![Var(0).neg()]);
            c
        }),
    ];
    for i in 0..trials {
        cases.push((
            format!("random 3-SAT #{i}"),
            random_ksat(4, 6 + (i as usize % 8), 3, &mut rng),
        ));
    }
    for i in 0..3 {
        let (cnf, _) = planted_ksat(4, 10, 3, &mut rng);
        cases.push((format!("planted SAT #{i}"), cnf));
    }

    let mut unique_cases = 0;
    for (name, cnf) in cases {
        let models = brute_force_count(&cnf);
        let db = cnf_to_database(&cnf);
        let analyzer = FixpointAnalyzer::new(&pi_sat(), &db).expect("compiles");
        let (fps, complete) = analyzer.count_fixpoints(1 << 14);
        assert!(complete);
        assert_eq!(models, fps, "Theorem 2 bijection violated on {name}");
        let unique = analyzer.has_unique_fixpoint();
        assert_eq!(unique, models == 1);
        unique_cases += u32::from(unique);
        t.row(&[&name, &models, &fps, &"1:1", &(models == 1), &unique]);
    }
    t.print();
    println!("unique-fixpoint cases observed: {unique_cases}");

    println!("\nUS companion: unique Hamilton circuits");
    let mut t2 = Table::new(&["graph", "#hamilton circuits (cap 10)", "unique?"]);
    let graphs: Vec<(&str, DiGraph)> = vec![
        ("directed C6", DiGraph::cycle(6)),
        ("K4 (both directions)", DiGraph::complete(4)),
        ("path L5", DiGraph::path(5)),
        ("2 x C3 disjoint", DiGraph::disjoint_cycles(2, 3)),
    ];
    for (name, g) in graphs {
        let c = count_hamilton_circuits(&g, 10);
        t2.row(&[&name, &c, &(c == 1)]);
    }
    t2.print();
}
