//! E1 — §2's worked example: the fixpoint structure of π₁ on paths, cycles
//! and disjoint unions of even cycles.
//!
//! Expected shape (the paper's claims): L_n has exactly one fixpoint (the
//! even positions, ⌊n/2⌋ tuples); C_n has none when n is odd and exactly
//! two incomparable ones when n is even; G_n (n copies of C₂) has 2^n
//! pairwise incomparable fixpoints and therefore no least fixpoint.

use crate::report::Table;
use inflog::core::graphs::DiGraph;
use inflog::fixpoint::{FixpointAnalyzer, LeastFixpointResult};
use inflog::reductions::programs::pi1;

fn analyze(g: &DiGraph, limit: u64) -> (u64, bool, &'static str, bool) {
    let db = g.to_database("E");
    let analyzer = FixpointAnalyzer::new(&pi1(), &db).expect("compiles");
    let fps = analyzer.enumerate_fixpoints(limit);
    let complete = (fps.len() as u64) < limit;
    let least = match analyzer.least_fixpoint_fonp().0 {
        LeastFixpointResult::Least(_) => "yes",
        LeastFixpointResult::NoLeast => "no",
        LeastFixpointResult::NoFixpoint => "-",
    };
    let incomparable = fps.len() >= 2
        && fps
            .iter()
            .enumerate()
            .all(|(i, a)| fps[i + 1..].iter().all(|b| a.incomparable(b)));
    (fps.len() as u64, complete, least, incomparable)
}

pub(crate) fn run(full: bool) {
    let max_n = if full { 14 } else { 9 };
    let max_copies = if full { 10 } else { 6 };

    let mut t = Table::new(&[
        "family",
        "n",
        "vertices",
        "#fixpoints",
        "expected",
        "least?",
        "pairwise incomparable",
    ]);
    let mut row = |family: &str, n: usize, g: &DiGraph, expected: u64| {
        let (count, complete, least, inc) = analyze(g, 1 << 16);
        assert!(complete);
        assert_eq!(count, expected, "#fixpoints of pi_1 on {family}, n = {n}");
        // One fixpoint is least; two or more are pairwise incomparable, so
        // none of them is.
        let expected_least = match count {
            0 => "-",
            1 => "yes",
            _ => "no",
        };
        assert_eq!(least, expected_least, "least fixpoint on {family}, n = {n}");
        assert!(
            count < 2 || inc,
            "comparable fixpoints on {family}, n = {n}"
        );
        t.row(&[
            &family,
            &n,
            &g.num_vertices(),
            &count,
            &expected,
            &least,
            &(if count >= 2 {
                inc.to_string()
            } else {
                "-".into()
            }),
        ]);
    };
    for n in 2..=max_n {
        row("L_n (path)", n, &DiGraph::path(n), 1);
    }
    for n in 2..=max_n {
        let expected = if n % 2 == 0 { 2 } else { 0 };
        row("C_n (cycle)", n, &DiGraph::cycle(n), expected);
    }
    for copies in 1..=max_copies {
        let g = DiGraph::disjoint_cycles(copies, 2);
        row("G_n (n x C_2)", copies, &g, 1 << copies);
    }
    t.print();

    println!("\nodd-length disjoint cycles (no fixpoint at all):");
    let mut t2 = Table::new(&["copies x C_3", "#fixpoints"]);
    for copies in 1..=3 {
        let (count, _, _, _) = analyze(&DiGraph::disjoint_cycles(copies, 3), 4);
        assert_eq!(count, 0, "#fixpoints of pi_1 on {copies} x C_3");
        t2.row(&[&copies, &count]);
    }
    t2.print();
}
