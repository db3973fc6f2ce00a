//! E7 — Proposition 1: Inflationary DATALOG ≡ existential FO+IFP.
//!
//! Both compiler directions are exercised and checked for query equivalence
//! on families of databases: Datalog programs re-expressed as simultaneous
//! inflationary inductions, and hand-built existential IFP systems compiled
//! to DATALOG¬.

use crate::report::Table;
use inflog::core::graphs::DiGraph;
use inflog::eval::{ensure_program_constants, inflationary, CompiledProgram};
use inflog::logic::fo::Fo;
use inflog::logic::IfpSystem;
use inflog::reductions::programs::{distance_program, pi1, pi3_tc};
use inflog::syntax::var;
use rand::rngs::StdRng;
use rand::SeedableRng;

pub(crate) fn run(full: bool) {
    let mut rng = StdRng::seed_from_u64(77);

    println!("\ndirection 1: DATALOG~ -> existential FO+IFP (from_datalog)");
    let mut t = Table::new(&[
        "program",
        "database",
        "IDB relations checked",
        "equal",
        "ifp rounds",
    ]);
    let programs = [
        ("pi_1", pi1()),
        ("pi_3 (TC)", pi3_tc()),
        ("distance", distance_program()),
    ];
    let mut dbs: Vec<(String, DiGraph)> = vec![
        ("L_4".into(), DiGraph::path(4)),
        ("C_4".into(), DiGraph::cycle(4)),
        ("tree_7".into(), DiGraph::binary_tree(7)),
    ];
    for i in 0..(if full { 5 } else { 2 }) {
        dbs.push((format!("rand#{i}"), DiGraph::random_gnp(4, 0.4, &mut rng)));
    }
    for (pname, program) in &programs {
        let system = IfpSystem::from_datalog(program);
        assert!(
            system.is_existential(),
            "{pname}: rule bodies are existential"
        );
        for (dbname, g) in &dbs {
            let db = g.to_database("E");
            let (ifp, rounds) = system.eval(&db);
            let (inf, _) = inflationary(program, &db).expect("total");
            let cp = CompiledProgram::compile(program, &db).expect("compiles");
            for (i, name) in cp.idb_names.iter().enumerate() {
                assert_eq!(&ifp[name], inf.get(i), "{pname}/{name} on {dbname}");
            }
            t.row(&[pname, dbname, &cp.idb_names.len(), &true, &rounds]);
        }
    }
    t.print();

    println!("\ndirection 2: existential FO+IFP -> DATALOG~ (to_datalog)");
    // R(p0) <- p0 = 'v0' or exists z (R(z) and E(z,p0)): reachability.
    let reach = IfpSystem::new(vec![(
        "R",
        vec!["p0"],
        Fo::Or(vec![
            Fo::Eq(var("p0"), inflog::syntax::cst("v0")),
            Fo::And(vec![
                Fo::atom("R", vec![var("z")]),
                Fo::atom("E", vec![var("z"), var("p0")]),
            ])
            .exists("z"),
        ]),
    )]);
    // U(p0) <- exists y (E(p0,y) and not U(y)): the unavoidable-win game.
    let win = IfpSystem::new(vec![(
        "U",
        vec!["p0"],
        Fo::And(vec![
            Fo::atom("E", vec![var("p0"), var("y")]),
            Fo::atom("U", vec![var("y")]).negate(),
        ])
        .exists("y"),
    )]);
    let mut t = Table::new(&["system", "database", "relation", "tuples", "equal"]);
    for (sname, system) in [("reach-from-v0", &reach), ("win-move", &win)] {
        let program = system.to_datalog(1000).expect("existential");
        for (dbname, g) in &dbs {
            let mut db = g.to_database("E");
            ensure_program_constants(&mut db, &program);
            let (ifp, _) = system.eval(&db);
            let (inf, _) = inflationary(&program, &db).expect("total");
            let cp = CompiledProgram::compile(&program, &db).expect("compiles");
            for def in &system.defs {
                let idx = cp.idb_id(&def.name).expect("idb");
                assert_eq!(&ifp[&def.name], inf.get(idx), "{sname} on {dbname}");
                t.row(&[&sname, dbname, &def.name, &ifp[&def.name].len(), &true]);
            }
        }
    }
    t.print();
}
