//! Property-based tests over randomly generated programs, databases and
//! formulas: the cross-engine and cross-theorem invariants that hold for
//! *every* DATALOG¬ program, not just the paper's examples.

use inflog::core::{Database, Universe};
use inflog::eval::{
    inflationary, inflationary_naive, least_fixpoint_naive, least_fixpoint_seminaive,
};
use inflog::fixpoint::{enumerate_fixpoints_brute, FixpointAnalyzer, LeastFixpointResult};
use inflog::sat::{brute_force_count, brute_force_sat, count_models, Cnf, Lit, Solver, Var};
use inflog::syntax::{parse_program, Atom, Literal, Program, Rule, Term};
use proptest::prelude::*;

// ---------- generators -----------------------------------------------------

const VARS: [&str; 3] = ["x", "y", "z"];
const CONSTS: [&str; 2] = ["a", "b"];

fn arb_term() -> impl Strategy<Value = Term> {
    prop_oneof![
        3 => (0..VARS.len()).prop_map(|i| Term::Var(VARS[i].into())),
        1 => (0..CONSTS.len()).prop_map(|i| Term::Const(CONSTS[i].into())),
    ]
}

/// Predicates: EDB `E/2`; IDBs `A/1`, `B/1`.
fn arb_pred() -> impl Strategy<Value = (String, usize)> {
    prop_oneof![
        Just(("E".to_string(), 2)),
        Just(("A".to_string(), 1)),
        Just(("B".to_string(), 1)),
    ]
}

fn arb_atom() -> impl Strategy<Value = Atom> {
    arb_pred().prop_flat_map(|(name, arity)| {
        proptest::collection::vec(arb_term(), arity)
            .prop_map(move |terms| Atom::new(name.clone(), terms))
    })
}

fn arb_literal(allow_negation: bool) -> impl Strategy<Value = Literal> {
    let neg_weight = u32::from(allow_negation) * 2;
    prop_oneof![
        4 => arb_atom().prop_map(Literal::Pos),
        neg_weight => arb_atom().prop_map(Literal::Neg),
        1 => (arb_term(), arb_term()).prop_map(|(a, b)| Literal::Eq(a, b)),
        neg_weight => (arb_term(), arb_term()).prop_map(|(a, b)| Literal::Neq(a, b)),
    ]
}

fn arb_head() -> impl Strategy<Value = Atom> {
    prop_oneof![Just("A"), Just("B")].prop_flat_map(|name| {
        proptest::collection::vec(arb_term(), 1).prop_map(move |terms| Atom::new(name, terms))
    })
}

fn arb_rule(allow_negation: bool) -> impl Strategy<Value = Rule> {
    (
        arb_head(),
        proptest::collection::vec(arb_literal(allow_negation), 0..3),
    )
        .prop_map(|(head, body)| Rule::new(head, body))
}

fn arb_program(allow_negation: bool) -> impl Strategy<Value = Program> {
    proptest::collection::vec(arb_rule(allow_negation), 1..4).prop_map(Program::new)
}

/// A database over universe `{a, b, c}` with a random edge relation `E`.
fn arb_database() -> impl Strategy<Value = Database> {
    proptest::collection::vec((0u32..3, 0u32..3), 0..5).prop_map(|edges| {
        let mut db = Database::with_universe(Universe::range_named(&["a", "b", "c"]));
        db.declare_relation("E", 2).unwrap();
        for (u, v) in edges {
            db.insert_fact(
                "E",
                inflog::core::Tuple::from([inflog::core::Const(u), inflog::core::Const(v)]),
            )
            .unwrap();
        }
        db
    })
}

fn arb_cnf() -> impl Strategy<Value = Cnf> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..6, proptest::bool::ANY), 1..4),
        0..24,
    )
    .prop_map(|clauses| {
        let mut cnf = Cnf::with_vars(6);
        for c in clauses {
            let lits: Vec<Lit> = c
                .into_iter()
                .map(|(v, pos)| Lit::new(Var(v), pos))
                .collect();
            cnf.add_clause(lits);
        }
        cnf
    })
}

// ---------- properties ------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pretty-printing then parsing is the identity on programs.
    #[test]
    fn parser_roundtrip(program in arb_program(true)) {
        let printed = program.to_string();
        let reparsed = parse_program(&printed).unwrap();
        prop_assert_eq!(program, reparsed);
    }

    /// CDCL and exhaustive search agree on satisfiability.
    #[test]
    fn solvers_agree(cnf in arb_cnf()) {
        let brute = brute_force_sat(&cnf).is_some();
        prop_assert_eq!(Solver::from_cnf(&cnf).solve().is_sat(), brute);
    }

    /// Blocking-clause model counting matches exhaustive counting.
    #[test]
    fn model_counts_agree(cnf in arb_cnf()) {
        let vars: Vec<Var> = (0..cnf.num_vars() as u32).map(Var).collect();
        let counted = count_models(&cnf, &vars, 1 << 10);
        prop_assert!(counted.complete);
        prop_assert_eq!(counted.count, brute_force_count(&cnf));
    }

    /// Naive and semi-naive least fixpoints agree on positive programs,
    /// and inflationary semantics coincides with them (§4).
    #[test]
    fn positive_engines_agree(program in arb_program(false), db in arb_database()) {
        let (naive, tn) = least_fixpoint_naive(&program, &db).unwrap();
        let (semi, ts) = least_fixpoint_seminaive(&program, &db).unwrap();
        prop_assert_eq!(&naive, &semi);
        prop_assert_eq!(tn.rounds, ts.rounds);
        let (inf, _) = inflationary(&program, &db).unwrap();
        prop_assert_eq!(&naive, &inf);
    }

    /// Naive and semi-naive inflationary iterations agree on arbitrary
    /// DATALOG¬ programs (the delta-soundness argument of DESIGN.md §5.4).
    #[test]
    fn inflationary_engines_agree(program in arb_program(true), db in arb_database()) {
        let (a, ta) = inflationary_naive(&program, &db).unwrap();
        let (b, tb) = inflationary(&program, &db).unwrap();
        prop_assert_eq!(a, b);
        prop_assert_eq!(ta.rounds, tb.rounds);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The SAT-based fixpoint enumeration finds exactly the fixpoints the
    /// exhaustive search finds (Theorems 1/2 machinery, fully cross-checked).
    #[test]
    fn fixpoint_counts_agree(program in arb_program(true), db in arb_database()) {
        let brute = enumerate_fixpoints_brute(&program, &db, 20).unwrap();
        let analyzer = FixpointAnalyzer::new(&program, &db).unwrap();
        let (count, complete) = analyzer.count_fixpoints(1 << 10);
        prop_assert!(complete);
        prop_assert_eq!(count as usize, brute.len());
        // Every enumerated fixpoint verifies relationally.
        for f in analyzer.enumerate_fixpoints(1 << 10) {
            prop_assert!(analyzer.is_fixpoint(&f));
            prop_assert!(brute.contains(&f));
        }
    }

    /// FONP least-fixpoint decision agrees with enumeration + intersection.
    #[test]
    fn least_fixpoint_deciders_agree(program in arb_program(true), db in arb_database()) {
        let analyzer = FixpointAnalyzer::new(&program, &db).unwrap();
        let (fonp, _) = analyzer.least_fixpoint_fonp();
        let by_enum = analyzer.least_fixpoint_by_enumeration(1 << 10).unwrap();
        prop_assert_eq!(&fonp, &by_enum);
        // Sanity of the three-way outcome.
        match fonp {
            LeastFixpointResult::Least(ref s) => prop_assert!(analyzer.is_fixpoint(s)),
            LeastFixpointResult::NoFixpoint => prop_assert!(!analyzer.fixpoint_exists()),
            LeastFixpointResult::NoLeast => prop_assert!(analyzer.fixpoint_exists()),
        }
    }

    /// On positive programs a least fixpoint always exists and equals the
    /// standard semantics.
    #[test]
    fn positive_programs_have_least_fixpoints(program in arb_program(false), db in arb_database()) {
        let (lfp, _) = least_fixpoint_naive(&program, &db).unwrap();
        let analyzer = FixpointAnalyzer::new(&program, &db).unwrap();
        let (r, _) = analyzer.least_fixpoint_fonp();
        prop_assert_eq!(r, LeastFixpointResult::Least(lfp));
    }
}
