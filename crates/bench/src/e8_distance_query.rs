//! E8 — Proposition 2: the distance query, and the inflationary/stratified
//! divergence on the very same program.

use crate::report::Table;
use inflog::core::graphs::DiGraph;
use inflog::eval::{inflationary, stratified_eval, CompiledProgram};
use inflog::reductions::distance::{distance_query_baseline, stratified_reading_baseline};
use inflog::reductions::programs::distance_program;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

pub(crate) fn run(full: bool) {
    let mut rng = StdRng::seed_from_u64(88);
    let program = distance_program();

    let mut t = Table::new(&[
        "database",
        "S3 inflationary",
        "= BFS distance query",
        "S3 stratified",
        "= TC & !TC",
        "diverge",
        "inf rounds",
        "time (ms)",
    ]);
    let mut dbs: Vec<(String, DiGraph)> = vec![
        ("L_5".into(), DiGraph::path(5)),
        ("C_5".into(), DiGraph::cycle(5)),
        ("grid 2x4".into(), DiGraph::grid(2, 4)),
        ("tree_7".into(), DiGraph::binary_tree(7)),
        ("2 components".into(), {
            DiGraph::path(3).disjoint_union(&DiGraph::cycle(3))
        }),
    ];
    let extra = if full { 6 } else { 3 };
    for i in 0..extra {
        dbs.push((
            format!("rand(6,.3)#{i}"),
            DiGraph::random_gnp(6, 0.3, &mut rng),
        ));
    }
    if full {
        dbs.push(("L_10".into(), DiGraph::path(10)));
        dbs.push(("grid 3x4".into(), DiGraph::grid(3, 4)));
    }

    for (name, g) in &dbs {
        let db = g.to_database("E");
        let cp = CompiledProgram::compile(&program, &db).expect("compiles");
        let s3 = cp.idb_id("S3").expect("carrier");
        let start = Instant::now();
        let (inf, trace) = inflationary(&program, &db).expect("total");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let (strat, _) = stratified_eval(&program, &db).expect("stratified");

        let to_quads = |interp: &inflog::eval::Interp| {
            interp
                .get(s3)
                .iter()
                .map(|t| {
                    let v = |i: usize| {
                        db.universe()
                            .name(t[i])
                            .and_then(|n| n.strip_prefix('v'))
                            .and_then(|n| n.parse::<u32>().ok())
                            .expect("vertex name")
                    };
                    (v(0), v(1), v(2), v(3))
                })
                .collect::<std::collections::BTreeSet<_>>()
        };
        let qi = to_quads(&inf);
        let qs = to_quads(&strat);
        let base_d = distance_query_baseline(g);
        let base_s = stratified_reading_baseline(g);
        assert_eq!(qi, base_d, "Proposition 2 on {name}");
        assert_eq!(qs, base_s, "stratified reading on {name}");
        t.row(&[
            name,
            &qi.len(),
            &true,
            &qs.len(),
            &true,
            &(qi != qs),
            &trace.rounds,
            &format!("{ms:.2}"),
        ]);
    }
    t.print();

    println!(
        "\nnon-monotonicity witness (why no DATALOG program computes this):\n\
         on L_4, D(v0,v2,v1,v3) holds (2 <= 2); adding the edge v1->v3 makes\n\
         dist(v1,v3) = 1 while dist(v0,v2) stays 2, so the tuple is LOST as\n\
         E grows — monotone (DATALOG) queries never lose tuples:"
    );
    let g1 = DiGraph::path(4);
    let mut g2 = DiGraph::path(4);
    g2.add_edge(1, 3);
    let before = distance_query_baseline(&g1);
    let after = distance_query_baseline(&g2);
    let lost: Vec<_> = before.difference(&after).take(5).collect();
    println!(
        "  tuples lost when E grows: {} (e.g. {:?})",
        before.difference(&after).count(),
        lost
    );
    assert!(before.contains(&(0, 2, 1, 3)) && !after.contains(&(0, 2, 1, 3)));
    assert!(
        before.difference(&after).count() > 0,
        "distance query must be non-monotone"
    );
}
