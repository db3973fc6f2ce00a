//! Randomized (fixed-seed) equivalence tests: `query(P, goal)` must be
//! set-identical to full-fixpoint-then-filter, for stratified programs
//! under the perfect model and non-stratifiable programs under the
//! well-founded model — over paths, cycles and `gnp` random graphs,
//! including goals with zero answers and fully-bound goals, goals whose
//! demand crosses a negation, goals phase 1 answers alone, and goals whose
//! demand binds nothing (the full-cone path).
//!
//! (Debug builds additionally re-verify the identity *inside* `query` on
//! every call; these tests assert it independently so release builds are
//! covered too.)

use inflog_core::graphs::DiGraph;
use inflog_core::{Database, Tuple};
use inflog_eval::{
    query, stratified_eval, well_founded, CompiledProgram, EvalOptions, QueryAnswer, QueryStrategy,
};
use inflog_syntax::{parse_atom, parse_program, Atom, Program, Term};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The query under test, without budget, cancellation or failpoints.
fn ask(p: &Program, goal: &Atom, db: &Database) -> QueryAnswer {
    query(p, goal, db, &EvalOptions::sequential()).unwrap()
}

/// Full-fixpoint-then-filter reference for a stratified program.
fn perfect_filtered(p: &Program, db: &Database, goal: &Atom) -> Vec<Tuple> {
    let (m, _) = stratified_eval(p, db).expect("stratified reference");
    filtered(p, db, goal, &m)
}

/// Filters an interpretation's goal relation by the goal atom.
fn filtered(p: &Program, db: &Database, goal: &Atom, m: &inflog_eval::Interp) -> Vec<Tuple> {
    let cp = CompiledProgram::compile(p, db).expect("reference compiles");
    let gid = cp.idb_id(&goal.predicate).expect("goal is IDB");
    let resolved: Vec<Option<inflog_core::Const>> = goal
        .terms
        .iter()
        .map(|t| match t {
            Term::Const(c) => Some(db.universe().lookup(c).expect("goal constant interned")),
            Term::Var(_) => None,
        })
        .collect();
    // Repeated goal variables: positions that must be pairwise equal.
    let var_groups: Vec<Option<usize>> = goal
        .terms
        .iter()
        .enumerate()
        .map(|(i, t)| match t {
            Term::Var(v) => goal
                .terms
                .iter()
                .position(|u| u.as_var() == Some(v))
                .filter(|&j| j < i),
            Term::Const(_) => None,
        })
        .collect();
    m.get(gid)
        .sorted()
        .into_iter()
        .filter(|t| {
            resolved
                .iter()
                .enumerate()
                .all(|(i, c)| c.is_none_or(|c| t[i] == c))
                && var_groups
                    .iter()
                    .enumerate()
                    .all(|(i, g)| g.is_none_or(|j| t[i] == t[j]))
        })
        .collect()
}

fn graphs(seed: u64) -> Vec<DiGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut gs = vec![
        DiGraph::path(7),
        DiGraph::cycle(6),
        DiGraph::cycle(5),
        DiGraph::binary_tree(15),
        DiGraph::grid(3, 4),
    ];
    for _ in 0..6 {
        gs.push(DiGraph::random_gnp(9, 0.18, &mut rng));
    }
    gs
}

#[test]
fn tc_queries_match_filter_across_graphs() {
    let p = parse_program("S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).").unwrap();
    let mut rng = StdRng::seed_from_u64(101);
    for g in graphs(7) {
        let db = g.to_database("E");
        let n = g.num_vertices();
        let src = rng.gen_range(0..n as u32);
        let dst = rng.gen_range(0..n as u32);
        let goals = [
            format!("S('v{src}', y)"),
            format!("S(x, 'v{dst}')"),
            format!("S('v{src}', 'v{dst}')"), // fully bound (0 or 1 answers)
            "S(x, y)".to_string(),
            "S(x, x)".to_string(),
        ];
        for gsrc in goals {
            let goal = parse_atom(&gsrc).unwrap();
            let a = ask(&p, &goal, &db);
            // Demand binds nothing exactly when the goal binds nothing.
            let want = if goal.terms.iter().all(Term::is_var) {
                QueryStrategy::Full
            } else {
                QueryStrategy::Demand
            };
            assert_eq!(a.strategy, want, "goal {gsrc}");
            assert_eq!(
                a.tuples,
                perfect_filtered(&p, &db, &goal),
                "goal {gsrc} on {g}"
            );
            assert!(a.undefined.is_empty());
        }
    }
}

#[test]
fn stratified_negation_queries_match_filter() {
    // Two strata, plus an unsafe-ish complement through negation.
    let p = parse_program(
        "S(x, y) :- E(x, y).
         S(x, y) :- E(x, z), S(z, y).
         C(x, y) :- !S(x, y).
         D(x) :- E(x, y), !S(y, x).",
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(202);
    for g in graphs(8) {
        let db = g.to_database("E");
        let n = g.num_vertices();
        let v = rng.gen_range(0..n as u32);
        for gsrc in [
            format!("C('v{v}', y)"),
            format!("C('v{v}', 'v{}')", (v + 1) % n as u32),
            format!("D('v{v}')"),
            "D(x)".to_string(),
        ] {
            let goal = parse_atom(&gsrc).unwrap();
            let a = ask(&p, &goal, &db);
            assert_eq!(
                a.tuples,
                perfect_filtered(&p, &db, &goal),
                "goal {gsrc} on {g}"
            );
        }
    }
}

#[test]
fn three_strata_chain_queries() {
    let p = parse_program(
        "A(x) :- V(x), E(x, y).
         B(x) :- V(x), !A(x).
         C(x) :- V(x), !B(x).",
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(303);
    for _ in 0..5 {
        let g = DiGraph::random_gnp(8, 0.2, &mut rng);
        let mut db = g.to_database("E");
        for v in 0..8u32 {
            db.insert_named_fact("V", &[&DiGraph::vertex_name(v)])
                .unwrap();
        }
        for gsrc in ["C('v3')", "C(x)", "B('v0')", "A('v5')"] {
            let goal = parse_atom(gsrc).unwrap();
            let a = ask(&p, &goal, &db);
            assert_eq!(a.tuples, perfect_filtered(&p, &db, &goal), "goal {gsrc}");
        }
    }
}

#[test]
fn win_move_queries_match_wellfounded_filter() {
    let p = parse_program("Win(x) :- Move(x, y), !Win(y).").unwrap();
    let mut rng = StdRng::seed_from_u64(404);
    for g in graphs(9) {
        let db = g.to_database("Move");
        let n = g.num_vertices() as u32;
        let wf = well_founded(&p, &db).unwrap();
        for _ in 0..3 {
            let v = rng.gen_range(0..n);
            let goal = parse_atom(&format!("Win('v{v}')")).unwrap();
            let a = ask(&p, &goal, &db);
            assert_eq!(a.strategy, QueryStrategy::Demand);
            assert_eq!(
                a.tuples,
                filtered(&p, &db, &goal, &wf.true_facts),
                "true answers for Win('v{v}') on {g}"
            );
            assert_eq!(
                a.undefined,
                filtered(&p, &db, &goal, &wf.undefined),
                "undefined answers for Win('v{v}') on {g}"
            );
        }
        // All-free goal through the cone path: full demand, same model.
        let goal = parse_atom("Win(x)").unwrap();
        let a = ask(&p, &goal, &db);
        assert_eq!(a.tuples, filtered(&p, &db, &goal, &wf.true_facts));
        assert_eq!(a.undefined, filtered(&p, &db, &goal, &wf.undefined));
    }
}

#[test]
fn nonstratified_mixed_recursion_queries() {
    // Win/move plus positive recursion guarded by the non-stratified
    // predicate — the same shape as the wellfounded_win_move_gnp bench —
    // and the paper's π₁, whose negative cycle is the goal's own.
    let mixed = parse_program(
        "Win(x) :- Move(x, y), !Win(y).
         Safe(x, y) :- Move(x, y), !Win(x).
         Safe(x, y) :- Safe(x, z), Move(z, y), !Win(y).",
    )
    .unwrap();
    let pi1 = parse_program("T(x) :- E(y, x), !T(y).").unwrap();
    let mut rng = StdRng::seed_from_u64(505);
    for _ in 0..6 {
        let g = DiGraph::random_gnp(8, 0.2, &mut rng);
        let v = rng.gen_range(0..8u32);
        let cases = [
            (&mixed, "Move", format!("Safe('v{v}', y)")),
            (&mixed, "Move", format!("Safe('v{v}', 'v{}')", (v + 3) % 8)),
            (&mixed, "Move", format!("Win('v{v}')")),
            (&pi1, "E", format!("T('v{v}')")),
            (&pi1, "E", "T(x)".to_string()),
        ];
        for (p, edges, gsrc) in cases {
            let db = g.to_database(edges);
            let wf = well_founded(p, &db).unwrap();
            let goal = parse_atom(&gsrc).unwrap();
            let a = ask(p, &goal, &db);
            assert_eq!(
                a.tuples,
                filtered(p, &db, &goal, &wf.true_facts),
                "goal {gsrc} on {g}"
            );
            assert_eq!(
                a.undefined,
                filtered(p, &db, &goal, &wf.undefined),
                "undefined for {gsrc} on {g}"
            );
        }
    }
}

/// `TC_CUT` of the benchmark: demand crosses `!S(y, x)` in a stratified
/// program.
const TC_CUT: &str = "S(x, y) :- E(x, y). S(x, y) :- S(x, z), E(z, y).
                      Cut(x, y) :- E(x, y), !S(y, x).";

#[test]
fn demand_crosses_stratified_negation() {
    let cut = parse_program(TC_CUT).unwrap();
    // Three levels: S, then R over S and a negated EDB atom, then T over
    // R and S with a negated S.
    let chain = parse_program(
        "S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).
         R(x, y) :- S(x, y), !E(x, y).
         T(x, y) :- R(x, z), S(z, y), !S(y, x).",
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(808);
    for g in graphs(10) {
        let db = g.to_database("E");
        let n = g.num_vertices() as u32;
        let v = rng.gen_range(0..n);
        let w = rng.gen_range(0..n);
        for (p, gsrc) in [
            (&cut, format!("Cut('v{v}', y)")),
            (&cut, format!("Cut(x, 'v{v}')")),
            (&cut, format!("Cut('v{v}', 'v{w}')")),
            (&chain, format!("T('v{v}', y)")),
            (&chain, format!("T('v{v}', 'v{w}')")),
            (&chain, format!("R('v{v}', y)")),
        ] {
            let goal = parse_atom(&gsrc).unwrap();
            let a = ask(p, &goal, &db);
            assert_eq!(a.strategy, QueryStrategy::Demand, "goal {gsrc}");
            assert_eq!(
                a.tuples,
                perfect_filtered(p, &db, &goal),
                "goal {gsrc} on {g}"
            );
            assert!(a.undefined.is_empty());
        }
    }
}

#[test]
fn negation_free_goals_and_goals_that_bind_nothing() {
    // Doubly recursive TC is negation-free, so phase 1 answers it alone.
    let double = parse_program("S(x, y) :- E(x, y). S(x, y) :- S(x, z), S(z, y).").unwrap();
    // Left-linear TC demands its source free for `S(x, c)`: demand binds
    // nothing and the goal's cone is evaluated in full.
    let left = parse_program("S(x, y) :- E(x, y). S(x, y) :- S(x, z), E(z, y).").unwrap();
    let cut = parse_program(TC_CUT).unwrap();
    // Goals that repeat a variable after a constant: the repeat must be
    // compared with the variable's first goal position.
    let wide = parse_program(
        "S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).
         P(x, y, z) :- S(x, y), S(x, z).
         Q(x, w, y, z) :- S(x, y), S(w, z).",
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(909);
    for g in graphs(11) {
        let db = g.to_database("E");
        let n = g.num_vertices() as u32;
        let v = rng.gen_range(0..n);
        for (p, gsrc, want) in [
            (&double, format!("S('v{v}', y)"), QueryStrategy::Demand),
            (
                &double,
                format!("S('v{v}', 'v{}')", (v + 1) % n),
                QueryStrategy::Demand,
            ),
            (&double, format!("S(x, 'v{v}')"), QueryStrategy::Full),
            (&left, format!("S('v{v}', y)"), QueryStrategy::Demand),
            (&left, format!("S(x, 'v{v}')"), QueryStrategy::Full),
            (&left, "S(x, x)".to_string(), QueryStrategy::Full),
            (&cut, "Cut(x, y)".to_string(), QueryStrategy::Full),
            (&cut, format!("S(x, 'v{v}')"), QueryStrategy::Full),
            (&wide, format!("P('v{v}', y, y)"), QueryStrategy::Demand),
            (&wide, format!("Q(x, 'v{v}', y, y)"), QueryStrategy::Full),
        ] {
            let goal = parse_atom(&gsrc).unwrap();
            let a = ask(p, &goal, &db);
            assert_eq!(a.strategy, want, "goal {gsrc}");
            assert_eq!(
                a.tuples,
                perfect_filtered(p, &db, &goal),
                "goal {gsrc} on {g}"
            );
        }
    }
}

#[test]
fn zero_answer_goals() {
    let p = parse_program("S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).").unwrap();
    // Two disjoint paths: nothing reaches across components.
    let g = DiGraph::path(4).disjoint_union(&DiGraph::path(3));
    let db = g.to_database("E");
    for gsrc in ["S('v3', y)", "S('v0', 'v5')", "S('v6', y)"] {
        let goal = parse_atom(gsrc).unwrap();
        let a = ask(&p, &goal, &db);
        assert!(a.tuples.is_empty(), "{gsrc} must have no answers");
        assert_eq!(a.tuples, perfect_filtered(&p, &db, &goal));
    }
}

#[test]
fn unsafe_rules_under_demand() {
    // Head variable never bound by the body: domain-grounded semantics
    // ranges it over the whole universe; the guard restricts it to demand.
    let p = parse_program(
        "P(x, y) :- E(x, z).
         Q(x) :- P(x, x), !R(x).
         R(x) :- E(x, x).",
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(707);
    for _ in 0..4 {
        let g = DiGraph::random_gnp(6, 0.3, &mut rng);
        let db = g.to_database("E");
        for gsrc in ["Q('v2')", "Q(x)", "P('v1', y)"] {
            let goal = parse_atom(gsrc).unwrap();
            let a = ask(&p, &goal, &db);
            assert_eq!(a.tuples, perfect_filtered(&p, &db, &goal), "goal {gsrc}");
        }
    }
}
