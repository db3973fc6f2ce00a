//! Flat-IR VM ≡ tree executor, bit for bit.
//!
//! The lowering pass (`plan::lower`) and the register-machine VM
//! (`exec::run_program` / `exec::ResolvedProgram::probe`) promise to be observationally
//! indistinguishable from the recursive tree walker they replaced: the **same
//! tuples in the same insertion order**. Debug builds replay every Θ
//! application, derivability probe and binding enumeration on the tree
//! walker and assert exactly that, so these tests only have to drive every
//! engine over a corpus that reaches every op the lowering emits:
//! fixed-seed random programs and graphs plus hand-picked templates
//! covering scans, index probes, negation filters, equality/inequality
//! filters, `Domain` ranges from unsafe rules, and loop-invariant suffixes
//! that a collecting run builds once and replays for every outer binding.
//!
//! Release builds compile no tree walker and so no comparison: there this
//! file would pass without checking anything, which is why it is compiled
//! in debug builds only.
#![cfg(debug_assertions)]

use inflog_core::graphs::DiGraph;
use inflog_core::Database;
use inflog_eval::{stratify, CompiledProgram, Engine, EvalOptions};
use inflog_syntax::{parse_program, Program};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs every engine whose semantics is defined for `program` once; the
/// library's per-application oracle compares the two executors on each Θ
/// application, probe and enumeration along the way.
fn assert_vm_matches_tree(program: &Program, db: &Database, label: &str) {
    // Nothing armed, whatever the environment says.
    let opts = EvalOptions::sequential();
    let (inf, _) = Engine::Inflationary.evaluate(program, db, &opts).unwrap();
    if program.is_positive() {
        // Θ^∞ is the least fixpoint on positive programs (§4).
        let (lfp, _) = Engine::Seminaive.evaluate(program, db, &opts).unwrap();
        assert_eq!(lfp, inf, "seminaive vs inflationary: {label}");
    }
    if stratify(program).is_ok() {
        Engine::Stratified.evaluate(program, db, &opts).unwrap();
    }
    Engine::WellFounded.evaluate(program, db, &opts).unwrap();
}

/// Whether any full or delta plan of `program` has a loop-invariant
/// suffix, so the runs above replay one.
fn hoists(program: &Program, db: &Database) -> bool {
    let cp = CompiledProgram::compile(program, db).unwrap();
    cp.rules.iter().any(|r| {
        std::iter::once(&r.plans.full)
            .chain(&r.plans.delta)
            .any(|p| p.program.hoist.is_some())
    })
}

/// Generates a random program: 2–4 rules over IDB `P/2`, `Q/1` and EDB
/// `E/2`, with literals drawn from atoms, negated atoms (when allowed),
/// equalities, and inequalities — so the generator reaches every filter op
/// the lowering can emit, including `Domain` steps when a head variable
/// ends up bound by nothing positive.
fn random_program(rng: &mut StdRng, allow_negation: bool) -> Program {
    let vars = ["x", "y", "z", "w"];
    let mut src = String::new();
    let num_rules = rng.gen_range(2usize..5);
    for _ in 0..num_rules {
        if rng.gen_bool(0.5) {
            let (a, b) = (
                vars[rng.gen_range(0usize..2)],
                vars[rng.gen_range(0usize..3)],
            );
            src.push_str(&format!("P({a}, {b}) :- "));
        } else {
            src.push_str(&format!("Q({}) :- ", vars[rng.gen_range(0usize..3)]));
        }
        let num_lits = rng.gen_range(1usize..4);
        for li in 0..num_lits {
            if li > 0 {
                src.push_str(", ");
            }
            let (a, b) = (
                vars[rng.gen_range(0usize..4)],
                vars[rng.gen_range(0usize..4)],
            );
            match rng.gen_range(0u32..5) {
                0 => {
                    if allow_negation && li > 0 && rng.gen_bool(0.4) {
                        src.push('!');
                    }
                    src.push_str(&format!("E({a}, {b})"));
                }
                1 => {
                    if allow_negation && li > 0 && rng.gen_bool(0.4) {
                        src.push('!');
                    }
                    src.push_str(&format!("P({a}, {b})"));
                }
                2 => src.push_str(&format!("Q({a})")),
                3 => src.push_str(&format!("{a} = {b}")),
                _ => src.push_str(&format!("{a} != {b}")),
            }
        }
        src.push_str(". ");
    }
    parse_program(&src).expect("generated programs are syntactically valid")
}

/// A random graph database small enough that `Domain` steps over unsafe
/// rules stay affordable, large enough that joins have real fan-out.
fn random_db(rng: &mut StdRng) -> Database {
    let n = rng.gen_range(4usize..8);
    DiGraph::random_gnp(n, 0.3, rng).to_database("E")
}

#[test]
fn vm_matches_tree_on_random_positive_programs() {
    let mut rng = StdRng::seed_from_u64(0x1_F1A7_0001);
    let mut hoisted = 0;
    for round in 0..10 {
        let program = random_program(&mut rng, false);
        let db = random_db(&mut rng);
        assert_vm_matches_tree(&program, &db, &format!("positive round {round}"));
        hoisted += usize::from(hoists(&program, &db));
    }
    assert!(hoisted > 0, "no random positive program replays a suffix");
}

#[test]
fn vm_matches_tree_on_random_negation_programs() {
    let mut rng = StdRng::seed_from_u64(0x1_F1A7_0002);
    let mut hoisted = 0;
    for round in 0..10 {
        let program = random_program(&mut rng, true);
        let db = random_db(&mut rng);
        assert_vm_matches_tree(&program, &db, &format!("negation round {round}"));
        hoisted += usize::from(hoists(&program, &db));
    }
    assert!(hoisted > 0, "no random negation program replays a suffix");
}

#[test]
fn vm_matches_tree_on_structured_templates() {
    // Hand-picked programs covering each lowering shape: pure joins (TC),
    // the canonical alternating-fixpoint instance (win–move), projection
    // under negation, double negation through an intermediate predicate,
    // constant and (in)equality filters, an unsafe rule whose head
    // variable ranges over the whole universe via a `Domain` op, and the
    // loop-invariant suffix shapes: the paper's distance program and the
    // toggle rule, whose universe ranges replay, and a cross product whose
    // negation reads the outer `y`, which must not.
    let templates = [
        ("tc", "S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y)."),
        ("win-move", "Win(x) :- E(x, y), !Win(y)."),
        (
            "projection-negation",
            "R(x) :- E(x, y). Iso(x) :- V(x), !R(x). V(x) :- E(x, y). V(y) :- E(x, y).",
        ),
        (
            "double-negation",
            "A(x) :- E(x, y), !B(y). B(x) :- E(x, y), !A(y). C(x) :- E(x, x), !B(x).",
        ),
        (
            "filters",
            "Loop(x) :- E(x, y), x = y. Hop(x, y) :- E(x, z), E(z, y), x != y.",
        ),
        ("unsafe-domain", "U(x, y) :- E(x, x), !E(x, y)."),
        (
            "distance",
            "S1(x, y) :- E(x, y).
             S1(x, y) :- E(x, z), S1(z, y).
             S2(x', y') :- E(x', y').
             S2(x', y') :- E(x', z'), S2(z', y').
             S3(x, y, x', y') :- E(x, y), !S2(x', y').
             S3(x, y, x', y') :- E(x, z), S1(z, y), !S2(x', y').",
        ),
        ("toggle", "T(z) :- E(x, y), !T(w)."),
        ("non-hoistable", "R(x, u) :- E(x, y), E(u, v), !E(y, v)."),
    ];
    let mut rng = StdRng::seed_from_u64(0x1_F1A7_0003);
    for (name, src) in templates {
        let program = parse_program(src).unwrap();
        for g in [
            DiGraph::path(8),
            DiGraph::cycle(5),
            DiGraph::random_gnp(7, 0.35, &mut rng),
            {
                let mut g = DiGraph::cycle(6);
                g.add_edge(2, 2);
                g.add_edge(0, 3);
                g
            },
        ] {
            let db = g.to_database("E");
            assert_vm_matches_tree(&program, &db, &format!("{name} on {g}"));
            match name {
                "distance" | "toggle" => assert!(hoists(&program, &db), "{name} on {g}"),
                "non-hoistable" => assert!(!hoists(&program, &db), "{name} on {g}"),
                _ => {}
            }
        }
    }
}
