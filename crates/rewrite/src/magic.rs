//! The demand rewrite: from `(program, goal)` to a demand-restricted
//! program pair whose bottom-up evaluation contains exactly the
//! goal-relevant part of the original model.
//!
//! # Construction
//!
//! Starting from the goal's adornment, a worklist visits every demanded
//! `(predicate, adornment)` pair. For each original rule
//! `p(t̄) :- L₁, …, Lₙ` and demanded adornment `a` of `p` it emits:
//!
//! * one **guarded rule** — `p#a(t̄) :- M#p#a(t̄_b), L₁', …, Lₙ'` where
//!   `t̄_b` are the head terms at bound positions and each IDB atom `Lᵢ`,
//!   positive or negated, is replaced by its adorned copy. The guard makes
//!   the rule fire only for demanded bindings (and, usefully, hands the
//!   join planner an extra bound atom to key scans on);
//! * one **magic rule** per IDB body occurrence `Lᵢ = q(s̄)` with
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
//! Demand crosses negated literals: the truth of `Win(x)` depends on
//! `Win(y)` through `!Win(y)`, and `Cut(x, y)` on `S(y, x)` through
//! `!S(y, x)`. The demand computation itself has to stay two-valued, so
//! the rewrite returns *two* programs.
//!
//! * The **demand program** (phase 1) is positive. Its magic prefixes are
//!   *positivized*: negated literals and inequalities are dropped, and a
//!   positive IDB atom reads the `P#q#a'` over-approximation (`P#` rules
//!   derive everything the guarded rules could derive if every negation
//!   held). Over-approximating demand is sound: it can only enlarge the
//!   evaluated cone. Only the `P#` rules some magic prefix reads, directly
//!   or through other `P#` rules, are emitted.
//! * A predicate is **negation-free** when every rule in its dependency
//!   cone has only positive atoms and equalities. For it the positivized
//!   rule *is* the guarded rule, so `P#q#a` equals `q#a`: its guarded rules
//!   go into the demand program, magic prefixes read `q#a` itself, and no
//!   `P#` rule is emitted. If the goal is negation-free, phase 1 is the
//!   whole answer.
//! * The **guarded program** (phase 2) holds the guarded rules of every
//!   other demanded predicate. It reads every relation phase 1 defines —
//!   the magic guards and the negation-free adorned predicates — as
//!   database relations. Each of its cycles projects onto a cycle of the
//!   input with the same signs, so it is stratified whenever the input is.
//!
//! Because the demanded set is closed under positive and negative
//! dependencies, the relevance of the well-founded semantics (which is the
//! perfect model on stratified programs: the construction by levels of
//! Ésik & Rondogiannis) gives `WF(guarded)|demanded = WF(original)|demanded`
//! — the evaluator re-verifies this set-identity in debug builds.

use crate::adorn::{adorned_name, magic_name, pot_name, Adornment};
use inflog_syntax::{Atom, DepGraph, Literal, Program, Rule, Term};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Result of [`rewrite_cone`]: the two evaluation phases.
#[derive(Debug, Clone)]
pub struct ConeRewrite {
    /// Phase 1 — **positive** demand program: seed, magic rules, the
    /// guarded rules of negation-free predicates, and the `P#` rules the
    /// magic rules read. Evaluate to its least fixpoint first.
    pub demand: Program,
    /// Phase 2 — guarded rules of the demanded predicates with negation in
    /// their cone; empty when the goal is negation-free. Install phase 1's
    /// relations as database relations, then evaluate it.
    pub guarded: Program,
    /// Adorned goal predicate — read answers (true and undefined) off it,
    /// from phase 1 if it defines it, from phase 2 otherwise.
    pub goal_pred: String,
    /// Some predicate of positive arity is demanded with every argument
    /// free: demand restricts nothing there, so `eval::query` evaluates the
    /// goal's cone in full instead of the two phases.
    pub binds_nothing: bool,
}

/// Two-phase demand rewrite of `program` for `goal`: demand crosses
/// negations, and both phases together are sound under the well-founded
/// semantics and so under the perfect model (see the module docs).
///
/// # Panics
/// Panics if the goal predicate is not an IDB predicate of `program`
/// (callers route EDB goals straight to the database).
pub fn rewrite_cone(program: &Program, goal: &Atom) -> ConeRewrite {
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
    let negation_free = negation_free_predicates(program);

    let a0 = Adornment::of_goal(goal);
    let mut seen: BTreeSet<(String, Adornment)> = BTreeSet::new();
    let mut queue: VecDeque<(String, Adornment)> = VecDeque::new();
    seen.insert((goal.predicate.clone(), a0.clone()));
    queue.push_back((goal.predicate.clone(), a0.clone()));

    // Phase 1 opens with the seed: the goal's constants at the bound
    // positions, as a fact rule.
    let mut demand = vec![Rule::new(
        Atom::new(magic_name(&goal.predicate, &a0), a0.bound_terms(goal)),
        vec![],
    )];
    let mut pot_rules = Vec::new();
    let mut guarded = Vec::new();
    while let Some((pred, adn)) = queue.pop_front() {
        for rule in rules_of.get(pred.as_str()).into_iter().flatten() {
            let out = adorn_rule(rule, &adn, &idb, &negation_free);
            demand.extend(out.magic_rules);
            if negation_free.contains(&pred) {
                demand.push(out.guarded);
            } else {
                guarded.push(out.guarded);
                pot_rules.push(out.pot_rule);
            }
            for d in out.demands {
                if seen.insert(d.clone()) {
                    queue.push_back(d);
                }
            }
        }
    }

    // Keep the `P#` rules that the other phase-1 rules read.
    let readers: BTreeSet<String> = demand.iter().map(|r| r.head.predicate.clone()).collect();
    demand.extend(pot_rules);
    let mut demand = Program::new(demand);
    let graph = DepGraph::new(&demand);
    let read = graph.reachable(readers.iter().map(String::as_str));
    demand
        .rules
        .retain(|r| read.contains(r.head.predicate.as_str()));

    ConeRewrite {
        demand,
        guarded: Program::new(guarded),
        goal_pred: adorned_name(&goal.predicate, &a0),
        binds_nothing: seen.iter().any(|(_, a)| a.arity() > 0 && a.all_free()),
    }
}

/// The negation-free IDB predicates of `program`: those whose dependency
/// cone has no rule with a negated literal or an inequality.
fn negation_free_predicates(program: &Program) -> BTreeSet<String> {
    let impure: BTreeSet<&str> = program
        .rules
        .iter()
        .filter(|r| {
            r.body
                .iter()
                .any(|l| matches!(l, Literal::Neg(_) | Literal::Neq(..)))
        })
        .map(|r| r.head.predicate.as_str())
        .collect();
    let graph = DepGraph::new(program);
    graph
        .names()
        .iter()
        .filter(|p| graph.reachable([p.as_str()]).is_disjoint(&impure))
        .cloned()
        .collect()
}

struct AdornedRule {
    guarded: Rule,
    magic_rules: Vec<Rule>,
    pot_rule: Rule,
    demands: Vec<(String, Adornment)>,
}

/// Adorns one rule under one head adornment: the left-to-right binding walk
/// that produces the guarded rule, the per-occurrence magic rules, and the
/// positivized `P#` over-approximation rule.
fn adorn_rule(
    rule: &Rule,
    adn: &Adornment,
    idb: &BTreeSet<String>,
    negation_free: &BTreeSet<String>,
) -> AdornedRule {
    let guard = Atom::new(
        magic_name(&rule.head.predicate, adn),
        adn.bound_terms(&rule.head),
    );
    let mut bound = adn.bound_vars(&rule.head);
    // Guarded-rule body (the guard first: it is the smallest relation and
    // binds the demanded head variables for every later keyed scan), and
    // the positivized running prefix of magic-rule bodies under the same
    // guard: negations and inequalities dropped, IDB atoms through their
    // `P#` over-approximations, or exactly when negation-free.
    let mut body = vec![Literal::Pos(guard.clone())];
    let mut pot_body = vec![Literal::Pos(guard)];
    let mut magic_rules = Vec::new();
    let mut demands = Vec::new();

    for lit in &rule.body {
        match lit {
            Literal::Pos(atom) | Literal::Neg(atom) if idb.contains(&atom.predicate) => {
                // Demanded like any occurrence, negated or not: the magic
                // rule reads the prefix before it.
                let a2 = Adornment::of_occurrence(atom, &bound);
                magic_rules.push(Rule::new(
                    Atom::new(magic_name(&atom.predicate, &a2), a2.bound_terms(atom)),
                    pot_body.clone(),
                ));
                demands.push((atom.predicate.clone(), a2.clone()));
                let adorned = Atom::new(adorned_name(&atom.predicate, &a2), atom.terms.clone());
                if let Literal::Neg(_) = lit {
                    // A negation binds nothing and is dropped from the
                    // positivized prefix.
                    body.push(Literal::Neg(adorned));
                    continue;
                }
                body.push(Literal::Pos(adorned.clone()));
                pot_body.push(Literal::Pos(if negation_free.contains(&atom.predicate) {
                    adorned
                } else {
                    Atom::new(pot_name(&atom.predicate, &a2), atom.terms.clone())
                }));
                bound.extend(atom.variables().map(str::to_owned));
            }
            Literal::Pos(atom) => {
                // EDB atom: unchanged everywhere; binds its variables.
                body.push(lit.clone());
                pot_body.push(lit.clone());
                bound.extend(atom.variables().map(str::to_owned));
            }
            Literal::Eq(s, t) => {
                body.push(lit.clone());
                pot_body.push(lit.clone());
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
            // Negated EDB atoms and inequalities: exact filters, not
            // positivizable.
            Literal::Neg(_) | Literal::Neq(..) => body.push(lit.clone()),
        }
    }

    let head = |name: String| Atom::new(name, rule.head.terms.clone());
    AdornedRule {
        guarded: Rule::new(head(adorned_name(&rule.head.predicate, adn)), body),
        magic_rules,
        // P#: everything the guarded rule could derive if every negation
        // held — the whole positivized body under the same guard.
        pot_rule: Rule::new(head(pot_name(&rule.head.predicate, adn)), pot_body),
        demands,
    }
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
    const TC_CUT: &str = "S(x, y) :- E(x, y). S(x, y) :- S(x, z), E(z, y).
                          Cut(x, y) :- E(x, y), !S(y, x).";
    const WIN_REACH: &str = "Win(x) :- Move(x, y), !Win(y).
                             Safe(x, y) :- Move(x, y), !Win(x).
                             Safe(x, y) :- Safe(x, z), Move(z, y), !Win(y).";

    /// Every predicate a rule of `p` mentions, heads and bodies.
    fn predicates(p: &Program) -> BTreeSet<&str> {
        p.rules
            .iter()
            .flat_map(|r| std::iter::once(&r.head).chain(r.body.iter().filter_map(Literal::atom)))
            .map(|a| a.predicate.as_str())
            .collect()
    }

    #[test]
    fn tc_bf_rewrite_shapes() {
        let p = parse_program(TC).unwrap();
        let rw = rewrite_cone(&p, &atom("S", &[c("v0"), v("y")]));
        assert_eq!(rw.goal_pred, "S#bf");
        assert!(!rw.binds_nothing);
        let printed = rw.demand.to_string();
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
        // Negation-free: phase 1 is the whole answer, and one adornment
        // gives seed + magic + two guarded rules.
        assert_eq!(rw.demand.len(), 4, "{printed}");
        assert!(rw.guarded.is_empty());
    }

    #[test]
    fn fully_bound_goal_gets_bb_adornment() {
        let p = parse_program(TC).unwrap();
        let rw = rewrite_cone(&p, &atom("S", &[c("v0"), c("v2")]));
        assert_eq!(rw.goal_pred, "S#bb");
        let printed = rw.demand.to_string();
        assert!(printed.contains("M#S#bb('v0', 'v2')."), "{printed}");
        // The recursive occurrence S(z, y) has z fresh-bound by E and y
        // bound from the head: demand pattern stays bb.
        assert!(
            printed.contains("M#S#bb(z, y) :- M#S#bb(x, y), E(x, z)."),
            "{printed}"
        );
    }

    #[test]
    fn all_free_goal_binds_nothing() {
        let p = parse_program(TC).unwrap();
        let rw = rewrite_cone(&p, &atom("S", &[v("x"), v("y")]));
        assert_eq!(rw.goal_pred, "S#ff");
        assert!(rw.binds_nothing);
        // 0-ary seed; the guard is trivially true once seeded.
        let printed = rw.demand.to_string();
        assert!(printed.contains("M#S#ff()."), "{printed}");
        // Left-linear recursion demands its source free, so the bound goal
        // `S(x, c)` binds nothing either.
        let p = parse_program("S(x, y) :- E(x, y). S(x, y) :- S(x, z), E(z, y).").unwrap();
        assert!(rewrite_cone(&p, &atom("S", &[v("x"), c("v9")])).binds_nothing);
        assert!(!rewrite_cone(&p, &atom("S", &[c("v9"), v("y")])).binds_nothing);
    }

    #[test]
    fn demand_crosses_a_stratified_negation() {
        let p = parse_program(TC_CUT).unwrap();
        let rw = rewrite_cone(&p, &atom("Cut", &[c("v5"), v("y")]));
        let guarded = rw.guarded.to_string();
        let demand = rw.demand.to_string();
        // The negated S is adorned bb and demanded with the prefix's
        // bindings: one pair per edge out of the goal source.
        assert!(
            guarded.contains("Cut#bf(x, y) :- M#Cut#bf(x), E(x, y), !S#bb(y, x)."),
            "{guarded}"
        );
        assert!(
            demand.contains("M#S#bb(y, x) :- M#Cut#bf(x), E(x, y)."),
            "{demand}"
        );
        // No unrewritten copy of S's cone rides along.
        for program in [&rw.demand, &rw.guarded] {
            assert!(!predicates(program).contains("S"), "{program}");
        }
        assert!(!rw.binds_nothing);
    }

    #[test]
    fn negation_free_predicates_get_no_pot_rule() {
        // S is negation-free: its guarded rules are phase 1's, and only
        // Cut, whose rule negates, is left for phase 2.
        let p = parse_program(TC_CUT).unwrap();
        let rw = rewrite_cone(&p, &atom("Cut", &[c("v5"), v("y")]));
        let demand = rw.demand.to_string();
        assert!(
            demand.contains("S#bb(x, y) :- M#S#bb(x, y), S#bf(x, z), E(z, y)."),
            "{demand}"
        );
        assert!(!demand.contains("P#"), "{demand}");
        let heads: BTreeSet<&str> = rw
            .guarded
            .rules
            .iter()
            .map(|r| r.head.predicate.as_str())
            .collect();
        assert_eq!(heads, BTreeSet::from(["Cut#bf"]));
        // Doubly recursive TC: magic prefixes read the exact S#bf.
        let p = parse_program("S(x, y) :- E(x, y). S(x, y) :- S(x, z), S(z, y).").unwrap();
        let rw = rewrite_cone(&p, &atom("S", &[c("v0"), v("y")]));
        let demand = rw.demand.to_string();
        assert!(
            demand.contains("M#S#bf(z) :- M#S#bf(x), S#bf(x, z)."),
            "{demand}"
        );
        assert!(!demand.contains("P#") && rw.guarded.is_empty(), "{demand}");
    }

    #[test]
    fn pot_rules_exist_only_for_what_a_magic_prefix_reads() {
        let p = parse_program(WIN_REACH).unwrap();
        let rw = rewrite_cone(&p, &atom("Safe", &[c("v3"), v("y")]));
        let demand = rw.demand.to_string();
        // Safe's recursive occurrence binds z before Move demands Win(y):
        // that prefix reads P#Safe#bf, with both negations dropped.
        assert!(
            demand.contains("M#Win#b(y) :- M#Safe#bf(x), P#Safe#bf(x, z), Move(z, y)."),
            "{demand}"
        );
        assert!(
            demand.contains("P#Safe#bf(x, y) :- M#Safe#bf(x), Move(x, y)."),
            "{demand}"
        );
        // No magic prefix reads Win positively: no P#Win rule.
        assert!(!demand.contains("P#Win"), "{demand}");
        assert!(rw.demand.is_positive(), "{demand}");
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
        // Phase 2 defines no magic predicates.
        assert!(!rw
            .guarded
            .rules
            .iter()
            .any(|r| r.head.predicate.starts_with("M#")));
    }

    #[test]
    fn cone_of_a_win_goal_never_reaches_safe() {
        let p = parse_program(WIN_REACH).unwrap();
        let rw = rewrite_cone(&p, &atom("Win", &[c("v240")]));
        // Safe depends on Win, never the reverse: a point query for Win
        // must not evaluate the quadratic Safe closure.
        for program in [&rw.demand, &rw.guarded] {
            let printed = program.to_string();
            assert!(!printed.contains("Safe"), "{printed}");
        }
    }

    #[test]
    fn left_linear_tc_demands_only_the_goal_source() {
        let p = parse_program("S(x, y) :- E(x, y). S(x, y) :- S(x, z), E(z, y).").unwrap();
        let rw = rewrite_cone(&p, &atom("S", &[c("v0"), v("y")]));
        // The recursive occurrence S(x, z) keeps the head's source bound, so
        // its magic rule only copies existing demand: no rule binds a new
        // source, demand stays exactly {v0}, and the query is single-source
        // reachability.
        let magic: Vec<String> = rw
            .demand
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
        let rw = rewrite_cone(&p, &atom("P", &[v("a"), v("b")]));
        let printed = rw.demand.to_string();
        // y is bound through x = y before the Q occurrence: pattern b.
        assert!(printed.contains("M#Q#b(y)"), "{printed}");
    }

    #[test]
    fn repeated_demand_patterns_are_deduplicated() {
        let src = "S(x, y) :- E(x, y). S(x, y) :- S(x, z), S(z, y).";
        let p = parse_program(src).unwrap();
        let rw = rewrite_cone(&p, &atom("S", &[c("v0"), v("y")]));
        // Patterns reached: bf (goal, left occurrence) and bf again for the
        // right occurrence (z bound by the left) — exactly the distinct set
        // {bf} of adorned copies of S, each defined twice (two rules).
        let adorned: BTreeSet<&str> = rw
            .demand
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
        rewrite_cone(&p, &atom("E", &[c("v0"), v("y")]));
    }
}
