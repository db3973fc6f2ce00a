//! Property tests for the incremental well-founded engine.
//!
//! The engine computes the alternating fixpoint by warm-started semi-naive
//! Γ, removed-set-driven restarts and retract by proof on the decreasing
//! side; these tests pin it against two independent references
//! on randomized inputs (fixed seeds):
//!
//! * the **old naive alternating fixpoint** (`Γ` iterated from ∅ with full
//!   applications over the whole program, re-implemented here verbatim from
//!   the pre-incremental engine) on non-stratified programs — true and
//!   undefined facts must coincide;
//! * a **naive alternation by component**: the same `Γ`, but walking the
//!   components of the signed dependency graph dependencies first, with
//!   two least fixpoints for a component without a negative cycle and a
//!   naive alternation restricted to the component otherwise. The engine
//!   evaluates by component too, so its alternation count — the largest
//!   of any negative-cycle component, 1 when there is none — must equal
//!   this reference's exactly. (The whole-program count differs on
//!   purpose: it also counts the alternations in which only a component
//!   above a negative cycle was still settling.)
//! * **stratified evaluation** on stratified programs, where the
//!   well-founded model is total and equals the perfect model.

use inflog_core::graphs::DiGraph;
use inflog_core::Database;
use inflog_eval::{
    apply_with_neg, stratified_eval, well_founded, CompiledProgram, EvalContext, Interp,
};
use inflog_syntax::{parse_program, DepGraph, Program};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// `Γ(J)` by naive iteration of the positivized operator from ∅.
fn gamma_naive(cp: &CompiledProgram, ctx: &EvalContext, j: &Interp) -> Interp {
    let mut s = cp.empty_interp();
    loop {
        let derived = apply_with_neg(cp, ctx, &s, j);
        if s.union_with(&derived) == 0 {
            return s;
        }
    }
}

/// The pre-incremental engine: alternate `Γ²` from ∅ with full
/// recomputation, returning (true facts, undefined).
fn well_founded_reference(program: &Program, db: &Database) -> (Interp, Interp) {
    let cp = CompiledProgram::compile(program, db).unwrap();
    let ctx = EvalContext::new(&cp, db).unwrap();
    let mut t = cp.empty_interp();
    loop {
        let u = gamma_naive(&cp, &ctx, &t);
        let t_next = gamma_naive(&cp, &ctx, &u);
        if t_next == t {
            return (u.difference(&t), t);
        }
        t = t_next;
    }
}

/// `Γ_C(J)` over `base`: `base` with the predicates `preds` replaced by the
/// least fixpoint of their rules, positive atoms read from the growing
/// result and negations against `j`. Every other predicate is read as it
/// is in `base`.
fn gamma_component(
    cp: &CompiledProgram,
    ctx: &EvalContext,
    base: &Interp,
    j: &Interp,
    preds: &[usize],
) -> Interp {
    let mut s = base.clone();
    for &p in preds {
        s.get_mut(p).clear();
    }
    loop {
        let derived = apply_with_neg(cp, ctx, &s, j);
        let mut grew = false;
        for &p in preds {
            grew |= s.get_mut(p).union_with(derived.get(p)) > 0;
        }
        if !grew {
            return s;
        }
    }
}

/// The alternating fixpoint by component, naively: returns (true facts,
/// undefined, the largest alternation count of a negative-cycle component
/// or 1).
fn well_founded_by_component(program: &Program, db: &Database) -> (Interp, Interp, usize) {
    let cp = CompiledProgram::compile(program, db).unwrap();
    let ctx = EvalContext::new(&cp, db).unwrap();
    let graph = DepGraph::new(program);
    let mut t = cp.empty_interp();
    let mut u = cp.empty_interp();
    let mut alternations = 1;
    for comp in graph.components() {
        let preds = &comp.nodes;
        if !comp.has_negative_cycle {
            u = gamma_component(&cp, &ctx, &u, &t, preds);
            t = gamma_component(&cp, &ctx, &t, &u, preds);
            continue;
        }
        let mut k = 0;
        loop {
            u = gamma_component(&cp, &ctx, &u, &t, preds);
            let t_next = gamma_component(&cp, &ctx, &t, &u, preds);
            k += 1;
            if t_next == t {
                break;
            }
            t = t_next;
        }
        alternations = alternations.max(k);
    }
    (u.difference(&t), t, alternations)
}

fn assert_matches_reference(program: &Program, db: &Database, label: &str) {
    let (undefined, true_facts) = well_founded_reference(program, db);
    let wf = well_founded(program, db).unwrap();
    assert_eq!(wf.true_facts, true_facts, "true facts diverged: {label}");
    assert_eq!(wf.undefined, undefined, "undefined diverged: {label}");
    let (by_comp_undefined, by_comp_true, alternations) = well_founded_by_component(program, db);
    assert_eq!(by_comp_true, true_facts, "by-component reference: {label}");
    assert_eq!(
        by_comp_undefined, undefined,
        "by-component reference: {label}"
    );
    assert_eq!(
        wf.alternations, alternations,
        "alternation count diverged from the by-component reference: {label}"
    );
}

/// Non-stratified programs exercising every incremental path: negation-only
/// rules (win-move), unary recursion through negation (π₁), and positive
/// IDB recursion *guarded* by a non-stratified predicate — the latter
/// evaluates in a component of its own above the negative cycle.
const NON_STRATIFIED: &[&str] = &[
    "Win(x) :- E(x, y), !Win(y).",
    "T(x) :- E(y, x), !T(y).",
    "A(x) :- V(x), !B(x). B(x) :- V(x), !A(x).",
    "
        W(x) :- E(x, y), !W(y).
        R(x, y) :- E(x, y), !W(x).
        R(x, y) :- R(x, z), E(z, y), !W(y).
    ",
    "
        P(x) :- E(x, y), !Q(y).
        Q(x) :- E(y, x), !P(x).
        S(x) :- P(x), Q(x).
    ",
    // Negative cycles below and above a positive-recursive component.
    "
        A(x) :- E(x, y), !A(y).
        R(x, y) :- E(x, y), !A(x).
        R(x, y) :- R(x, z), E(z, y).
        B(x) :- R(x, y), !B(y).
    ",
];

#[test]
fn matches_naive_alternating_fixpoint_on_random_graphs() {
    let mut rng = StdRng::seed_from_u64(0xF0F0);
    for (pi, src) in NON_STRATIFIED.iter().enumerate() {
        let program = parse_program(src).unwrap();
        for round in 0..6 {
            let g = DiGraph::random_gnp(7, 0.25, &mut rng);
            let mut db = g.to_database("E");
            for v in 0..7 {
                db.insert_named_fact("V", &[&format!("v{v}")]).unwrap();
            }
            assert_matches_reference(&program, &db, &format!("program {pi}, round {round}: {g}"));
        }
    }
}

#[test]
fn matches_naive_alternating_fixpoint_on_structured_graphs() {
    for src in NON_STRATIFIED {
        let program = parse_program(src).unwrap();
        for g in [
            DiGraph::path(9),
            DiGraph::cycle(6),
            DiGraph::cycle(7),
            DiGraph::binary_tree(7),
            {
                // Long path with a back edge: many alternations, so the
                // removed-set restarts and the retracts run repeatedly.
                let mut g = DiGraph::path(12);
                g.add_edge(0, 11);
                g
            },
        ] {
            let mut db = g.to_database("E");
            for v in 0..g.num_vertices() {
                db.insert_named_fact("V", &[&format!("v{v}")]).unwrap();
            }
            assert_matches_reference(&program, &db, &format!("{src} on {g}"));
        }
    }
}

#[test]
fn matches_stratified_on_random_stratified_programs() {
    let stratified_programs = [
        "
            S(x, y) :- E(x, y).
            S(x, y) :- E(x, z), S(z, y).
            C(x, y) :- !S(x, y).
        ",
        "
            A(x) :- E(x, y).
            B(x) :- E(y, x), !A(x).
            C(x) :- B(x), !A(x).
        ",
        "
            R(x, y) :- E(x, y).
            R(x, y) :- R(x, z), E(z, y).
            N(x) :- E(x, y), !R(y, x).
            M(x) :- N(x), E(x, y), !R(x, x).
        ",
    ];
    let mut rng = StdRng::seed_from_u64(2024);
    for src in stratified_programs {
        let program = parse_program(src).unwrap();
        for _ in 0..6 {
            let g = DiGraph::random_gnp(6, 0.3, &mut rng);
            let db = g.to_database("E");
            let wf = well_founded(&program, &db).unwrap();
            let (perfect, _) = stratified_eval(&program, &db).unwrap();
            assert!(wf.is_total(), "stratified ⟹ total: {g}");
            assert_eq!(wf.true_facts, perfect, "perfect model diverged: {g}");
        }
    }
}

/// A negative cycle that also recurses positively: `R` is reachability
/// through vertices outside `B`, and `B` holds a vertex with a successor
/// that cannot reach it back. `R` and `B` are one component, so the
/// retract that takes `U_{k-1}` down to `U_k` has to find tuples of `R`
/// whose only witnesses left go round a cycle of `R` itself.
#[test]
fn support_round_a_positive_cycle_leaves_u_inside_a_negative_cycle() {
    let program = parse_program(
        "
        R(x, y) :- E(x, y), !B(y).
        R(x, y) :- R(x, z), E(z, y), !B(y).
        B(y) :- E(y, z), !R(z, y).
        ",
    )
    .unwrap();
    let cases = [
        // 0 → 1 → 2 ⇄ 3. `U_0` holds the whole closure; `T_1` puts 0 and 1
        // in `B`, since no successor reaches them back. `U_1` then loses
        // `R(0, 1)` by negation, and `R(0, 2)` and `R(0, 3)`, whose only
        // witnesses left lean on each other round the 2 ⇄ 3 cycle.
        (
            DiGraph::from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 2)]),
            2,
            "B = {(0), (1)}\nR = {}\n",
            "B = {(2), (3)}\nR = {(1,2), (1,3), (2,2), (2,3), (3,2), (3,3)}\n",
        ),
        // Six alternations before the model settles, total.
        (
            DiGraph::from_edges(
                7,
                [
                    (0, 3),
                    (0, 6),
                    (1, 2),
                    (2, 5),
                    (3, 2),
                    (3, 4),
                    (3, 5),
                    (4, 0),
                    (4, 2),
                    (5, 4),
                ],
            ),
            6,
            "B = {(0), (1), (2), (3), (4), (5)}\nR = {(0,6)}\n",
            "B = {}\nR = {}\n",
        ),
    ];
    for (g, alternations, true_facts, undefined) in cases {
        let label = format!("{:?}", g.edges().collect::<Vec<_>>());
        let db = g.to_database("E");
        let names = CompiledProgram::compile(&program, &db).unwrap().idb_names;
        let wf = well_founded(&program, &db).unwrap();
        assert_eq!(
            wf.true_facts.display_with_names(&names),
            true_facts,
            "{label}"
        );
        assert_eq!(
            wf.undefined.display_with_names(&names),
            undefined,
            "{label}"
        );
        assert_eq!(wf.alternations, alternations, "{label}");
        assert_matches_reference(&program, &db, &label);
    }
}
