//! Flat-IR VM ≡ tree executor, bit for bit.
//!
//! The lowering pass (`plan::lower`) and the register-machine VM
//! (`exec::run_program` / `exec::ResolvedProgram::probe`) promise to be observationally
//! indistinguishable from the recursive tree walker they replaced: the **same
//! tuples in the same insertion order**, the same per-round deltas, and the
//! same alternation counts. Debug builds already assert this per Θ
//! application; these tests enforce it end to end with the
//! executor choice **pinned** through [`EvalOptions::exec`] (so they hold in
//! release builds too, where the per-application oracle is compiled out),
//! over fixed-seed random programs and graphs plus hand-picked templates
//! covering every op the lowering emits — scans, index probes, negation
//! filters, equality/inequality filters, and `Domain` ranges from unsafe
//! rules.

use inflog_core::graphs::DiGraph;
use inflog_core::Database;
use inflog_eval::{
    inflationary_with, least_fixpoint_seminaive_with, stratified_eval_with, stratify,
    well_founded_with, EvalOptions, ExecKind, Interp,
};
use inflog_syntax::{parse_program, Program};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Options with the executor pinned.
fn pinned(kind: ExecKind) -> EvalOptions {
    EvalOptions {
        exec: Some(kind),
        ..EvalOptions::sequential()
    }
}

/// Bit-identity: same tuples in the same dense (insertion) order, per
/// relation — strictly stronger than `Interp` equality, which is set-based.
fn assert_bit_identical(tree: &Interp, vm: &Interp, label: &str) {
    assert_eq!(tree.len(), vm.len(), "relation count diverged: {label}");
    for i in 0..tree.len() {
        assert_eq!(
            tree.get(i).dense(),
            vm.get(i).dense(),
            "insertion order of relation {i} diverged: {label}"
        );
    }
}

/// Runs every engine whose semantics is defined for `program` under both
/// executors and asserts bit-identity of models, traces, and alternation
/// counts.
fn assert_vm_matches_tree(program: &Program, db: &Database, label: &str) {
    let positive = program.is_positive();
    let tree = pinned(ExecKind::Tree);
    let vm = pinned(ExecKind::Vm);

    if positive {
        let (t, tt) = least_fixpoint_seminaive_with(program, db, &tree).unwrap();
        let (v, vt) = least_fixpoint_seminaive_with(program, db, &vm).unwrap();
        assert_bit_identical(&t, &v, &format!("seminaive {label}"));
        assert_eq!(tt.rounds, vt.rounds, "seminaive rounds: {label}");
        assert_eq!(
            tt.added_per_round, vt.added_per_round,
            "seminaive deltas: {label}"
        );
    }

    let (t, tt) = inflationary_with(program, db, &tree).unwrap();
    let (v, vt) = inflationary_with(program, db, &vm).unwrap();
    assert_bit_identical(&t, &v, &format!("inflationary {label}"));
    assert_eq!(tt.rounds, vt.rounds, "inflationary rounds: {label}");
    assert_eq!(
        tt.added_per_round, vt.added_per_round,
        "inflationary deltas: {label}"
    );

    if stratify(program).is_ok() {
        let (t, tt) = stratified_eval_with(program, db, &tree).unwrap();
        let (v, vt) = stratified_eval_with(program, db, &vm).unwrap();
        assert_bit_identical(&t, &v, &format!("stratified {label}"));
        assert_eq!(tt.rounds, vt.rounds, "stratified rounds: {label}");
        assert_eq!(
            tt.added_per_round, vt.added_per_round,
            "stratified deltas: {label}"
        );
    }

    let t = well_founded_with(program, db, &tree).unwrap();
    let v = well_founded_with(program, db, &vm).unwrap();
    assert_bit_identical(&t.true_facts, &v.true_facts, &format!("wf true {label}"));
    assert_bit_identical(&t.undefined, &v.undefined, &format!("wf undef {label}"));
    assert_eq!(t.alternations, v.alternations, "wf alternations: {label}");
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
    for round in 0..10 {
        let program = random_program(&mut rng, false);
        let db = random_db(&mut rng);
        assert_vm_matches_tree(&program, &db, &format!("positive round {round}"));
    }
}

#[test]
fn vm_matches_tree_on_random_negation_programs() {
    let mut rng = StdRng::seed_from_u64(0x1_F1A7_0002);
    for round in 0..10 {
        let program = random_program(&mut rng, true);
        let db = random_db(&mut rng);
        assert_vm_matches_tree(&program, &db, &format!("negation round {round}"));
    }
}

#[test]
fn vm_matches_tree_on_structured_templates() {
    // Hand-picked programs covering each lowering shape: pure joins (TC),
    // the canonical alternating-fixpoint instance (win–move), projection
    // under negation, double negation through an intermediate predicate,
    // constant and (in)equality filters, and an unsafe rule whose head
    // variable ranges over the whole universe via a `Domain` op.
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
        }
    }
}
