//! The magic-set rewrite: from `(program, goal)` to a demand-restricted
//! program whose bottom-up fixpoint contains exactly the goal-relevant part
//! of the original model.
//!
//! # Construction (shared skeleton)
//!
//! Starting from the goal's adornment, a worklist visits every demanded
//! `(predicate, adornment)` pair. For each original rule
//! `p(t̄) :- L₁, …, Lₙ` and demanded adornment `a` of `p` it emits:
//!
//! * one **guarded rule** — `p#a(t̄) :- M#p#a(t̄_b), L₁', …, Lₙ'` where
//!   `t̄_b` are the head terms at bound positions and each IDB atom `Lᵢ` is
//!   replaced by its adorned copy. The guard makes the rule fire only for
//!   demanded bindings (and, usefully, hands the join planner an extra
//!   bound atom to key scans on);
//! * one **magic rule** per demanding body occurrence `Lᵢ = q(s̄)` with
//!   occurrence adornment `a'`:
//!   `M#q#a'(s̄_b) :- M#p#a(t̄_b), L₁'', …, L_{i-1}''` — "if `p` is demanded
//!   with these bindings and the prefix can be satisfied, then `q` is
//!   demanded with the bindings the prefix produces". Binding propagation is
//!   left-to-right (variables bound by the bound head positions, by earlier
//!   positive atoms, or through equalities).
//!
//! The goal seeds the demand: `M#goal#a₀(c̄).` with the goal's constants.
//!
//! # Negation
//!
//! The two public entry points differ exactly in how demand interacts with
//! negated IDB literals:
//!
//! * [`rewrite_stratified`] — demand **never crosses a negation**. A negated
//!   IDB literal keeps its original (un-adorned) predicate, and the original
//!   rules of that predicate's whole positive-and-negative cone are copied
//!   into the rewritten program unrewritten, so the literal is tested
//!   against the *fully evaluated* relation. Consequence: the rewritten
//!   program is stratified whenever the input is — the adorned/magic
//!   predicates depend on each other only positively and reach the
//!   unrewritten copies only through the same negative edges the original
//!   program had — so the stratified engine evaluates it stratum by
//!   stratum, and non-membership tests are exact. (Letting demand cross a
//!   negation *would* in general re-introduce recursion through negation in
//!   the rewritten program even for stratified inputs; this variant never
//!   does, by construction.)
//! * [`rewrite_cone`] — for non-stratifiable programs demand **must** cross
//!   negations (the truth of `Win(x)` depends on `Win(y)` through `!Win(y)`),
//!   but the demand computation itself has to stay two-valued. The rewrite
//!   therefore returns *two* programs. The **demand program** is positive:
//!   magic rules whose prefixes are *positivized* — negated literals and
//!   inequalities dropped, positive IDB atoms replaced by `P#q#a'`
//!   over-approximations (`P#` rules derive everything the guarded rules
//!   could derive if every negation were true). Over-approximating demand is
//!   sound: it can only enlarge the evaluated cone. The **guarded program**
//!   adorns positive *and* negative IDB occurrences and keeps the magic
//!   guards, which phase two reads as database relations. Because the
//!   demanded set is closed under positive and negative dependencies, the
//!   relevance property of the well-founded semantics gives
//!   `WF(guarded)|demanded = WF(original)|demanded` — the evaluator
//!   re-verifies this set-identity in debug builds.

use crate::adorn::{adorned_name, magic_name, pot_name, Adornment};
use inflog_syntax::{Atom, Literal, Program, Rule, Term};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Result of [`rewrite_stratified`]: one self-contained program.
#[derive(Debug, Clone)]
pub struct MagicRewrite {
    /// Seed fact + magic rules + guarded adorned rules + unrewritten cones
    /// of negated predicates. Stratified whenever the input program is.
    pub program: Program,
    /// Adorned goal predicate — read the answers off this relation (filter
    /// by the goal's constants: recursive demand may add further bindings).
    pub goal_pred: String,
    /// The goal's magic predicate (diagnostics / tests).
    pub goal_magic: String,
}

/// Result of [`rewrite_cone`]: the two evaluation phases.
#[derive(Debug, Clone)]
pub struct ConeRewrite {
    /// Phase 1 — **positive** demand program (seed + magic + `P#`
    /// over-approximation rules). Evaluate to its least fixpoint first.
    pub demand: Program,
    /// Phase 2 — guarded adorned program. Its magic predicates are *not*
    /// defined here: materialize phase 1's magic relations as database
    /// relations, then evaluate under the well-founded semantics.
    pub guarded: Program,
    /// The magic predicates phase 2 expects as database relations.
    pub magic_preds: Vec<String>,
    /// Adorned goal predicate — read answers (true and undefined) off it.
    pub goal_pred: String,
}

/// Adorned magic-set rewrite for **stratified** programs (demand stops at
/// negated literals; see the module docs).
///
/// The goal's constant positions become the initial binding pattern; the
/// caller is responsible for only evaluating the result with a
/// stratification-aware engine (the `eval::query` entry point checks the
/// input is stratified first).
///
/// # Panics
/// Panics if the goal predicate is not an IDB predicate of `program`
/// (callers route EDB goals straight to the database).
pub fn rewrite_stratified(program: &Program, goal: &Atom) -> MagicRewrite {
    let out = rewrite(program, goal, Mode::Stratified);
    let mut rules = Vec::new();
    rules.push(out.seed);
    rules.extend(out.magic_rules);
    rules.extend(out.guarded_rules);
    // Unrewritten cones of negated predicates: original rules, source order.
    let full = full_cone(program, &out.full_negs);
    rules.extend(
        program
            .rules
            .iter()
            .filter(|r| full.contains(&r.head.predicate))
            .cloned(),
    );
    MagicRewrite {
        program: Program::new(rules),
        goal_pred: out.goal_pred,
        goal_magic: out.goal_magic,
    }
}

/// Two-phase demand-cone rewrite for **non-stratifiable** programs under
/// the well-founded semantics (demand crosses negations; see the module
/// docs for the construction and its soundness).
///
/// # Panics
/// Panics if the goal predicate is not an IDB predicate of `program`.
pub fn rewrite_cone(program: &Program, goal: &Atom) -> ConeRewrite {
    let out = rewrite(program, goal, Mode::Cone);
    let mut demand = Vec::new();
    demand.push(out.seed);
    demand.extend(out.magic_rules);
    demand.extend(out.pot_rules);
    ConeRewrite {
        demand: Program::new(demand),
        guarded: Program::new(out.guarded_rules),
        magic_preds: out.magic_preds,
        goal_pred: out.goal_pred,
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Stratified,
    Cone,
}

struct Rewritten {
    seed: Rule,
    magic_rules: Vec<Rule>,
    guarded_rules: Vec<Rule>,
    pot_rules: Vec<Rule>,
    magic_preds: Vec<String>,
    full_negs: BTreeSet<String>,
    goal_pred: String,
    goal_magic: String,
}

/// The shared worklist over demanded `(predicate, adornment)` pairs.
fn rewrite(program: &Program, goal: &Atom, mode: Mode) -> Rewritten {
    let idb = program.idb_predicates();
    assert!(
        idb.contains(&goal.predicate),
        "magic rewrite requires an IDB goal predicate, got `{}`",
        goal.predicate
    );
    // Rules grouped by head predicate, preserving source order.
    let mut rules_of: BTreeMap<&str, Vec<&Rule>> = BTreeMap::new();
    for r in &program.rules {
        rules_of.entry(&r.head.predicate).or_default().push(r);
    }

    let a0 = Adornment::of_goal(goal);
    let mut seen: BTreeSet<(String, Adornment)> = BTreeSet::new();
    let mut queue: VecDeque<(String, Adornment)> = VecDeque::new();
    seen.insert((goal.predicate.clone(), a0.clone()));
    queue.push_back((goal.predicate.clone(), a0.clone()));

    let mut magic_rules = Vec::new();
    let mut guarded_rules = Vec::new();
    let mut pot_rules = Vec::new();
    let mut magic_preds = Vec::new();
    let mut full_negs = BTreeSet::new();

    while let Some((pred, adn)) = queue.pop_front() {
        magic_preds.push(magic_name(&pred, &adn));
        for rule in rules_of.get(pred.as_str()).into_iter().flatten() {
            let out = adorn_rule(rule, &adn, &idb, mode);
            guarded_rules.push(out.guarded);
            magic_rules.extend(out.magic_rules);
            if let Some(p) = out.pot_rule {
                pot_rules.push(p);
            }
            for d in out.demands {
                if seen.insert(d.clone()) {
                    queue.push_back(d);
                }
            }
            full_negs.extend(out.full_negs);
        }
    }

    // Seed: the goal's constants, at the bound positions, as a fact rule.
    let seed = Rule::new(
        Atom::new(magic_name(&goal.predicate, &a0), a0.bound_terms(goal)),
        vec![],
    );
    Rewritten {
        seed,
        magic_rules,
        guarded_rules,
        pot_rules,
        magic_preds,
        full_negs,
        goal_pred: adorned_name(&goal.predicate, &a0),
        goal_magic: magic_name(&goal.predicate, &a0),
    }
}

struct AdornedRule {
    guarded: Rule,
    magic_rules: Vec<Rule>,
    pot_rule: Option<Rule>,
    demands: Vec<(String, Adornment)>,
    full_negs: Vec<String>,
}

/// Adorns one rule under one head adornment: the left-to-right binding walk
/// that produces the guarded rule, the per-occurrence magic rules, and (in
/// cone mode) the positivized `P#` over-approximation rule.
fn adorn_rule(rule: &Rule, adn: &Adornment, idb: &BTreeSet<String>, mode: Mode) -> AdornedRule {
    let guard = Atom::new(
        magic_name(&rule.head.predicate, adn),
        adn.bound_terms(&rule.head),
    );
    let mut bound = adn.bound_vars(&rule.head);
    // Guarded-rule body (the guard first: it is the smallest relation and
    // binds the demanded head variables for every later keyed scan).
    let mut body = vec![Literal::Pos(guard.clone())];
    // Running prefixes for magic-rule bodies: `exact` keeps every literal
    // (adorned), `pot` is the positivized form (negations and inequalities
    // dropped, IDB atoms through their `P#` over-approximations).
    let mut exact_prefix: Vec<Literal> = Vec::new();
    let mut pot_prefix: Vec<Literal> = Vec::new();
    let mut magic_rules = Vec::new();
    let mut demands = Vec::new();
    let mut full_negs = Vec::new();

    let magic_body = |prefix: &[Literal]| -> Vec<Literal> {
        let mut b = Vec::with_capacity(prefix.len() + 1);
        b.push(Literal::Pos(guard.clone()));
        b.extend(prefix.iter().cloned());
        b
    };

    for lit in &rule.body {
        match lit {
            Literal::Pos(atom) if idb.contains(&atom.predicate) => {
                let a2 = Adornment::of_occurrence(atom, &bound);
                let prefix = match mode {
                    Mode::Stratified => &exact_prefix,
                    Mode::Cone => &pot_prefix,
                };
                magic_rules.push(Rule::new(
                    Atom::new(magic_name(&atom.predicate, &a2), a2.bound_terms(atom)),
                    magic_body(prefix),
                ));
                demands.push((atom.predicate.clone(), a2.clone()));
                let adorned = Atom::new(adorned_name(&atom.predicate, &a2), atom.terms.clone());
                body.push(Literal::Pos(adorned.clone()));
                exact_prefix.push(Literal::Pos(adorned));
                pot_prefix.push(Literal::Pos(Atom::new(
                    pot_name(&atom.predicate, &a2),
                    atom.terms.clone(),
                )));
                bound.extend(atom.variables().map(str::to_owned));
            }
            Literal::Pos(atom) => {
                // EDB atom: unchanged everywhere; binds its variables.
                body.push(lit.clone());
                exact_prefix.push(lit.clone());
                pot_prefix.push(lit.clone());
                bound.extend(atom.variables().map(str::to_owned));
            }
            Literal::Neg(atom) if idb.contains(&atom.predicate) => match mode {
                Mode::Stratified => {
                    // Demand stops here: test against the full original
                    // relation, whose cone is copied unrewritten.
                    body.push(lit.clone());
                    exact_prefix.push(lit.clone());
                    full_negs.push(atom.predicate.clone());
                }
                Mode::Cone => {
                    // Demand crosses: the negated occurrence is adorned and
                    // demanded exactly like a positive one (it binds
                    // nothing). Dropped from the positivized prefix.
                    let a2 = Adornment::of_occurrence(atom, &bound);
                    magic_rules.push(Rule::new(
                        Atom::new(magic_name(&atom.predicate, &a2), a2.bound_terms(atom)),
                        magic_body(&pot_prefix),
                    ));
                    demands.push((atom.predicate.clone(), a2.clone()));
                    let adorned = Atom::new(adorned_name(&atom.predicate, &a2), atom.terms.clone());
                    body.push(Literal::Neg(adorned.clone()));
                    exact_prefix.push(Literal::Neg(adorned));
                }
            },
            Literal::Neg(_) => {
                // Negated EDB atom: exact filter, not positivizable.
                body.push(lit.clone());
                exact_prefix.push(lit.clone());
            }
            Literal::Eq(s, t) => {
                body.push(lit.clone());
                exact_prefix.push(lit.clone());
                pot_prefix.push(lit.clone());
                let known = |term: &Term| match term {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(v),
                };
                match (known(s), known(t)) {
                    (true, false) => {
                        if let Term::Var(v) = t {
                            bound.insert(v.clone());
                        }
                    }
                    (false, true) => {
                        if let Term::Var(v) = s {
                            bound.insert(v.clone());
                        }
                    }
                    _ => {}
                }
            }
            Literal::Neq(_, _) => {
                body.push(lit.clone());
                exact_prefix.push(lit.clone());
            }
        }
    }

    let head = Atom::new(
        adorned_name(&rule.head.predicate, adn),
        rule.head.terms.clone(),
    );
    let pot_rule = match mode {
        Mode::Stratified => None,
        // P#: everything the guarded rule could derive if every negation
        // held — the whole positivized body under the same guard.
        Mode::Cone => Some(Rule::new(
            Atom::new(pot_name(&rule.head.predicate, adn), rule.head.terms.clone()),
            magic_body(&pot_prefix),
        )),
    };
    AdornedRule {
        guarded: Rule::new(head, body),
        magic_rules,
        pot_rule,
        demands,
        full_negs,
    }
}

/// Closure of `seeds` under "depends on" in the original program: every IDB
/// predicate reachable from a seed through rule bodies (positive or
/// negative). These are the predicates a stratified rewrite evaluates in
/// full because a negation tests them.
fn full_cone(program: &Program, seeds: &BTreeSet<String>) -> BTreeSet<String> {
    let idb = program.idb_predicates();
    let mut need: BTreeSet<String> = seeds.iter().filter(|p| idb.contains(*p)).cloned().collect();
    let mut queue: VecDeque<String> = need.iter().cloned().collect();
    while let Some(p) = queue.pop_front() {
        for rule in program.rules.iter().filter(|r| r.head.predicate == p) {
            for lit in &rule.body {
                if let Some(atom) = lit.atom() {
                    if idb.contains(&atom.predicate) && need.insert(atom.predicate.clone()) {
                        queue.push_back(atom.predicate.clone());
                    }
                }
            }
        }
    }
    need
}

#[cfg(test)]
mod tests {
    use super::*;
    use inflog_syntax::parse_program;

    fn atom(pred: &str, terms: &[Term]) -> Atom {
        Atom::new(pred, terms.to_vec())
    }

    fn v(s: &str) -> Term {
        Term::Var(s.into())
    }

    fn c(s: &str) -> Term {
        Term::Const(s.into())
    }

    const TC: &str = "S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).";

    #[test]
    fn tc_bf_rewrite_shapes() {
        let p = parse_program(TC).unwrap();
        let rw = rewrite_stratified(&p, &atom("S", &[c("v0"), v("y")]));
        assert_eq!(rw.goal_pred, "S#bf");
        assert_eq!(rw.goal_magic, "M#S#bf");
        let printed = rw.program.to_string();
        // Seed fact with the goal constant.
        assert!(printed.contains("M#S#bf('v0')."), "{printed}");
        // Guarded base and recursive rules.
        assert!(
            printed.contains("S#bf(x, y) :- M#S#bf(x), E(x, y)."),
            "{printed}"
        );
        assert!(
            printed.contains("S#bf(x, y) :- M#S#bf(x), E(x, z), S#bf(z, y)."),
            "{printed}"
        );
        // Magic rule: demand propagates along edges.
        assert!(
            printed.contains("M#S#bf(z) :- M#S#bf(x), E(x, z)."),
            "{printed}"
        );
        // Single adornment: one demand, no unrewritten copies.
        assert_eq!(rw.program.len(), 4, "{printed}");
    }

    #[test]
    fn fully_bound_goal_gets_bb_adornment() {
        let p = parse_program(TC).unwrap();
        let rw = rewrite_stratified(&p, &atom("S", &[c("v0"), c("v2")]));
        assert_eq!(rw.goal_pred, "S#bb");
        let printed = rw.program.to_string();
        assert!(printed.contains("M#S#bb('v0', 'v2')."), "{printed}");
        // The recursive occurrence S(z, y) has z fresh-bound by E and y
        // bound from the head: demand pattern stays bb.
        assert!(
            printed.contains("M#S#bb(z, y) :- M#S#bb(x, y), E(x, z)."),
            "{printed}"
        );
    }

    #[test]
    fn all_free_goal_degenerates_to_guarded_full_evaluation() {
        let p = parse_program(TC).unwrap();
        let rw = rewrite_stratified(&p, &atom("S", &[v("x"), v("y")]));
        assert_eq!(rw.goal_pred, "S#ff");
        let printed = rw.program.to_string();
        // 0-ary seed; the guard is trivially true once seeded.
        assert!(printed.contains("M#S#ff()."), "{printed}");
    }

    #[test]
    fn stratified_negation_keeps_full_cone() {
        let src = "
            S(x, y) :- E(x, y).
            S(x, y) :- E(x, z), S(z, y).
            C(x, y) :- V(x), V(y), !S(x, y).
        ";
        let p = parse_program(src).unwrap();
        let rw = rewrite_stratified(&p, &atom("C", &[c("v0"), v("y")]));
        let printed = rw.program.to_string();
        // The negated S is NOT adorned; S's original rules ride along.
        assert!(
            printed.contains("C#bf(x, y) :- M#C#bf(x), V(x), V(y), !S(x, y)."),
            "{printed}"
        );
        assert!(printed.contains("S(x, y) :- E(x, y)."), "{printed}");
        assert!(
            printed.contains("S(x, y) :- E(x, z), S(z, y)."),
            "{printed}"
        );
        // And no magic rules demand S.
        assert!(!printed.contains("M#S"), "{printed}");
    }

    #[test]
    fn cone_rewrite_for_win_move() {
        let p = parse_program("Win(x) :- Move(x, y), !Win(y).").unwrap();
        let rw = rewrite_cone(&p, &atom("Win", &[c("v3")]));
        assert_eq!(rw.goal_pred, "Win#b");
        let demand = rw.demand.to_string();
        // Demand = forward reachability over Move, crossing the negation.
        assert!(demand.contains("M#Win#b('v3')."), "{demand}");
        assert!(
            demand.contains("M#Win#b(y) :- M#Win#b(x), Move(x, y)."),
            "{demand}"
        );
        // Demand program is positive (evaluable as a least fixpoint).
        assert!(rw.demand.is_positive(), "{demand}");
        // Guarded phase reads magic as EDB and adorns the negation.
        let guarded = rw.guarded.to_string();
        assert!(
            guarded.contains("Win#b(x) :- M#Win#b(x), Move(x, y), !Win#b(y)."),
            "{guarded}"
        );
        assert_eq!(rw.magic_preds, vec!["M#Win#b".to_string()]);
        // Phase 2 defines no magic predicates.
        assert!(!rw
            .guarded
            .rules
            .iter()
            .any(|r| r.head.predicate.starts_with("M#")));
    }

    #[test]
    fn cone_pot_rules_drop_negations() {
        let src = "Win(x) :- Move(x, y), !Win(y). Safe(x) :- Move(x, y), !Win(x), Win(y).";
        let p = parse_program(src).unwrap();
        let rw = rewrite_cone(&p, &atom("Safe", &[c("v0")]));
        let demand = rw.demand.to_string();
        // The P# over-approximation of Safe keeps Move and the positive Win
        // occurrence (as P#) but drops the negation.
        assert!(
            demand.contains("P#Safe#b(x) :- M#Safe#b(x), Move(x, y), P#Win#b(y)."),
            "{demand}"
        );
        // The positive Win occurrence is demanded through the positivized
        // prefix (Move only — the dropped negation binds nothing anyway).
        assert!(
            demand.contains("M#Win#b(y) :- M#Safe#b(x), Move(x, y)."),
            "{demand}"
        );
        assert!(rw.demand.is_positive(), "{demand}");
    }

    #[test]
    fn cone_of_a_win_goal_never_reaches_safe() {
        let src = "Win(x) :- Move(x, y), !Win(y).
                   Safe(x, y) :- Move(x, y), !Win(x).
                   Safe(x, y) :- Safe(x, z), Move(z, y), !Win(y).";
        let p = parse_program(src).unwrap();
        let rw = rewrite_cone(&p, &atom("Win", &[c("v240")]));
        // Safe depends on Win, never the reverse: a point query for Win
        // must not evaluate the quadratic Safe closure.
        for program in [&rw.demand, &rw.guarded] {
            let printed = program.to_string();
            assert!(!printed.contains("Safe"), "{printed}");
        }
        assert_eq!(rw.magic_preds, vec!["M#Win#b".to_string()]);
    }

    #[test]
    fn left_linear_tc_demands_only_the_goal_source() {
        let p = parse_program("S(x, y) :- E(x, y). S(x, y) :- S(x, z), E(z, y).").unwrap();
        let rw = rewrite_stratified(&p, &atom("S", &[c("v0"), v("y")]));
        // The recursive occurrence S(x, z) keeps the head's source bound, so
        // its magic rule only copies existing demand: no rule binds a new
        // source, demand stays exactly {v0}, and the query is single-source
        // reachability.
        let magic: Vec<String> = rw
            .program
            .rules
            .iter()
            .filter(|r| r.head.predicate.starts_with("M#"))
            .map(Rule::to_string)
            .collect();
        assert_eq!(magic, ["M#S#bf('v0').", "M#S#bf(x) :- M#S#bf(x)."]);
    }

    #[test]
    fn equality_binds_for_adornment() {
        let src = "Q(x) :- R(x). P(x, y) :- V(x), x = y, Q(y).";
        let p = parse_program(src).unwrap();
        let rw = rewrite_stratified(&p, &atom("P", &[v("a"), v("b")]));
        let printed = rw.program.to_string();
        // y is bound through x = y before the Q occurrence: pattern b.
        assert!(printed.contains("M#Q#b(y)"), "{printed}");
    }

    #[test]
    fn repeated_demand_patterns_are_deduplicated() {
        let src = "S(x, y) :- E(x, y). S(x, y) :- S(x, z), S(z, y).";
        let p = parse_program(src).unwrap();
        let rw = rewrite_stratified(&p, &atom("S", &[c("v0"), v("y")]));
        // Patterns reached: bf (goal, left occurrence) and bf again for the
        // right occurrence (z bound by the left) — exactly the distinct set
        // {bf} of adorned copies of S, each defined twice (two rules).
        let adorned: BTreeSet<&str> = rw
            .program
            .rules
            .iter()
            .map(|r| r.head.predicate.as_str())
            .filter(|p| p.starts_with("S#"))
            .collect();
        assert_eq!(adorned, BTreeSet::from(["S#bf"]));
    }

    #[test]
    #[should_panic(expected = "IDB goal")]
    fn edb_goal_panics() {
        let p = parse_program(TC).unwrap();
        rewrite_stratified(&p, &atom("E", &[c("v0"), v("y")]));
    }
}
