//! E4 — Theorem 3: least fixpoints via the FONP oracle algorithm.
//!
//! A least fixpoint exists iff the intersection of all fixpoints is itself
//! a fixpoint. The FONP decider asks one NP-oracle (SAT) query per
//! candidate tuple ("is there a fixpoint excluding t?") plus one final
//! polynomial Θ check. A candidate is a tuple true in every model the
//! oracle has returned so far, so the first existence answer already rules
//! out every tuple it makes false. This table reports the verdicts, oracle
//! budgets and agreement with full enumeration.

use crate::report::Table;
use inflog::core::graphs::DiGraph;
use inflog::fixpoint::{FixpointAnalyzer, LeastFixpointResult};
use inflog::reductions::programs::{pi1, pi3_tc};
use inflog::syntax::parse_program;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn outcome(r: &LeastFixpointResult) -> String {
    match r {
        LeastFixpointResult::NoFixpoint => "no fixpoint".into(),
        LeastFixpointResult::NoLeast => "no least".into(),
        LeastFixpointResult::Least(s) => format!("least ({} tuples)", s.total_tuples()),
    }
}

pub(crate) fn run(full: bool) {
    let max_n = if full { 12 } else { 8 };
    let mut rng = StdRng::seed_from_u64(44);

    let mut t = Table::new(&[
        "program",
        "database",
        "FONP verdict",
        "oracle calls",
        "core size",
        "agrees with enumeration",
    ]);

    let mut run = |pname: &str, program: &inflog::syntax::Program, dbname: String, g: &DiGraph| {
        let db = g.to_database("E");
        let analyzer = FixpointAnalyzer::new(program, &db).expect("compiles");
        let (fonp, stats) = analyzer.least_fixpoint_fonp();
        let by_enum = analyzer
            .least_fixpoint_by_enumeration(1 << 14)
            .expect("within limit");
        assert_eq!(fonp, by_enum, "{pname} on {dbname}");
        t.row(&[
            &pname,
            &dbname,
            &outcome(&fonp),
            &stats.oracle_calls,
            &stats.core_size,
            &true,
        ]);
    };

    for n in (3..=max_n).step_by(1) {
        run("pi_1", &pi1(), format!("L_{n}"), &DiGraph::path(n));
    }
    for n in 3..=max_n {
        run("pi_1", &pi1(), format!("C_{n}"), &DiGraph::cycle(n));
    }
    for copies in 1..=(max_n / 2) {
        run(
            "pi_1",
            &pi1(),
            format!("G_{copies}"),
            &DiGraph::disjoint_cycles(copies, 2),
        );
    }
    // Positive programs always have a least fixpoint (= standard semantics).
    for n in [4usize, 6] {
        run("pi_3 (TC)", &pi3_tc(), format!("L_{n}"), &DiGraph::path(n));
    }
    // A mixed program with data-dependent behaviour.
    let mixed = parse_program("A(x) :- E(x, y), !B(y). B(x) :- E(y, x), !A(x).").unwrap();
    for i in 0..3 {
        let g = DiGraph::random_gnp(4, 0.4, &mut rng);
        run("mutual-neg", &mixed, format!("G(4,.4)#{i}"), &g);
    }
    t.print();

    println!(
        "\nnote: oracle calls = 1 existence query + one per candidate tuple (true in\n\
         every model seen so far; at most one per potential tuple, 1 + |core| on\n\
         L_n); the FONP shape of Theorem 3 (first-order evaluation with NP oracles)."
    );
}
