//! Name resolution: from a syntactic [`Program`] and a [`Database`] to a
//! [`CompiledProgram`] of dense predicate ids and execution plans.
//!
//! Compilation also builds the program's signed dependency graph
//! ([`DepGraph`]) — once — and resolves its components to rule indices and
//! IDB ids: evaluation, recovery and the materialized view's repair all
//! walk them one at a time, dependencies first. Of the strata only the
//! negative-cycle witness is kept, for the stratified engine's
//! prerequisite.

use crate::error::EvalError;
use crate::interp::Interp;
use crate::plan::{
    plan_rule, plan_rule_neg_delta, plan_rule_prebound, CTerm, CardSnapshot, Plan, PredRef, RLit,
};
use crate::Result;
use inflog_core::{Database, Relation};
use inflog_syntax::{Atom, DepGraph, Literal, Program, Term};
use std::collections::HashMap;

/// The re-plannable plan set of one rule: everything the round driver
/// executes (the head-prebound check plan is planned once at compile time —
/// its scans are keyed by the pre-bound head, so cardinality ordering has
/// nothing to reorder).
///
/// [`CompiledRule::replan`] rebuilds one of these against a fresh
/// [`CardSnapshot`], which is how scan order tracks live IDB sizes round
/// over round.
#[derive(Debug, Clone)]
pub struct RulePlans {
    /// Plan evaluating the whole body.
    pub full: Plan,
    /// Delta plans, one per positive IDB atom occurrence.
    pub delta: Vec<Plan>,
    /// Neg-delta plans, one per negated IDB atom occurrence.
    pub neg_delta: Vec<Plan>,
    /// EDB delta plans, one per positive EDB atom occurrence: that
    /// occurrence scans an EDB-shaped delta (the inserted facts), seeding
    /// view-maintenance repairs after an EDB insertion.
    pub edb_delta: Vec<Plan>,
    /// EDB neg-delta plans, one per negated EDB atom occurrence: that
    /// occurrence scans an EDB-shaped removed/inserted set with consume
    /// semantics (see `plan_rule_neg_delta`), enumerating instances an EDB
    /// change enables or disables through a negated extensional literal.
    pub edb_neg_delta: Vec<Plan>,
}

/// One compiled rule: the full plan plus one delta plan per positive IDB
/// atom occurrence (for semi-naive evaluation).
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// IDB id of the head predicate.
    pub head_pred: usize,
    /// Resolved head terms.
    pub head_terms: Vec<CTerm>,
    /// Resolved body literals (source order) — program grounding re-plans
    /// these with the IDB part held symbolic.
    pub body: Vec<RLit>,
    /// Number of variable slots in the rule.
    pub num_vars: usize,
    /// Plan evaluating the whole body.
    pub full_plan: Plan,
    /// Delta plans, one per positive IDB atom occurrence in the body.
    pub delta_plans: Vec<Plan>,
    /// Neg-delta plans, one per **negated** IDB atom occurrence: the
    /// occurrence scans a removed set (tuples that just left the frozen
    /// negation context) instead of filtering. The incremental well-founded
    /// engine drives `Γ`'s restart rounds with these.
    pub neg_delta_plans: Vec<Plan>,
    /// EDB delta plans, one per positive **EDB** atom occurrence: the
    /// occurrence scans an EDB-shaped delta interpretation. The materialized
    /// view repair path seeds its insertion top-up with these.
    pub edb_delta_plans: Vec<Plan>,
    /// EDB neg-delta plans, one per negated **EDB** atom occurrence, with
    /// the same consume semantics as `neg_delta_plans`. The repair path
    /// enumerates damage from retractions and new derivations enabled by
    /// insertions through negated extensional literals with these.
    pub edb_neg_delta_plans: Vec<Plan>,
    /// Plan deciding one-step derivability of a given head tuple: the head
    /// variables are pre-bound, so body atoms probe the persistent indexes.
    pub check_plan: Plan,
    /// Whether the body contains at least one positive IDB atom. Rules
    /// without one can fire new derivations only in the first round of an
    /// inflationary/semi-naive iteration (their body truth only decays as
    /// the IDB relations grow).
    pub has_pos_idb: bool,
    /// Index of the source rule in the original program.
    pub src_index: usize,
}

impl CompiledRule {
    /// Rebuilds this rule's full/delta/neg-delta plans against a fresh
    /// cardinality snapshot — scan order follows the live relation sizes,
    /// while the delta-first invariant and the step semantics are untouched.
    pub fn replan(&self, cards: &CardSnapshot) -> RulePlans {
        build_plans(&self.head_terms, &self.body, self.num_vars, cards)
    }

    /// Whether cardinalities can affect this rule's scan order at all: the
    /// planner only ever chooses between *positive* atoms, so a body with
    /// fewer than two of them plans identically under every snapshot — the
    /// round driver skips replanning for programs made of such rules.
    pub fn order_sensitive(&self) -> bool {
        self.body
            .iter()
            .filter(|l| matches!(l, RLit::Pos { .. }))
            .count()
            >= 2
    }
}

/// Plans a rule's full, per-positive-occurrence delta, and
/// per-negative-occurrence neg-delta plans under one cardinality snapshot.
fn build_plans(head: &[CTerm], body: &[RLit], num_vars: usize, cards: &CardSnapshot) -> RulePlans {
    let full = plan_rule(head.to_vec(), body, num_vars, None, cards);
    let delta = body
        .iter()
        .enumerate()
        .filter(|(_, l)| {
            matches!(
                l,
                RLit::Pos {
                    pred: PredRef::Idb(_),
                    ..
                }
            )
        })
        .map(|(i, _)| plan_rule(head.to_vec(), body, num_vars, Some(i), cards))
        .collect();
    let neg_delta = body
        .iter()
        .enumerate()
        .filter(|(_, l)| {
            matches!(
                l,
                RLit::Neg {
                    pred: PredRef::Idb(_),
                    ..
                }
            )
        })
        .map(|(i, _)| plan_rule_neg_delta(head.to_vec(), body, num_vars, i, cards))
        .collect();
    let edb_delta = body
        .iter()
        .enumerate()
        .filter(|(_, l)| {
            matches!(
                l,
                RLit::Pos {
                    pred: PredRef::Edb(_),
                    ..
                }
            )
        })
        .map(|(i, _)| plan_rule(head.to_vec(), body, num_vars, Some(i), cards))
        .collect();
    let edb_neg_delta = body
        .iter()
        .enumerate()
        .filter(|(_, l)| {
            matches!(
                l,
                RLit::Neg {
                    pred: PredRef::Edb(_),
                    ..
                }
            )
        })
        .map(|(i, _)| plan_rule_neg_delta(head.to_vec(), body, num_vars, i, cards))
        .collect();
    RulePlans {
        full,
        delta,
        neg_delta,
        edb_delta,
        edb_neg_delta,
    }
}

/// One component of the program's signed dependency graph
/// ([`DepGraph`]), resolved to IDB ids and rule indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct RuleComponent {
    /// IDB ids of the component's predicates, ascending.
    pub(crate) preds: Vec<usize>,
    /// Indices of the rules whose head is one of `preds`, in source order.
    pub(crate) rules: Vec<usize>,
    /// Whether a negative edge stays inside the component (recursion
    /// through negation).
    pub(crate) has_negative_cycle: bool,
}

/// A program compiled against a database universe: dense IDB/EDB ids,
/// resolved constants, and per-rule plans.
#[derive(Debug, Clone)]
pub struct CompiledProgram {
    /// IDB predicate names, by IDB id (sorted by name — deterministic).
    pub idb_names: Vec<String>,
    /// IDB arities, by IDB id.
    pub idb_arities: Vec<usize>,
    /// EDB predicate names, by EDB id.
    pub edb_names: Vec<String>,
    /// EDB arities, by EDB id.
    pub edb_arities: Vec<usize>,
    /// Compiled rules in source order.
    pub rules: Vec<CompiledRule>,
    /// The components of the signed dependency graph, dependencies first.
    pub(crate) components: Vec<RuleComponent>,
    /// The graph's negative-cycle witness ([`DepGraph::strata`]'s error);
    /// `None` when the program is stratifiable.
    not_stratified: Option<String>,
    idb_index: HashMap<String, usize>,
    edb_index: HashMap<String, usize>,
}

impl CompiledProgram {
    /// Compiles `program` against `db`'s universe and relations.
    ///
    /// # Errors
    /// * [`EvalError::ArityMismatch`] — predicate used with two arities, or
    ///   a program arity conflicting with the database relation's;
    /// * [`EvalError::UnknownConstant`] — a program constant missing from the
    ///   database universe.
    pub fn compile(program: &Program, db: &Database) -> Result<Self> {
        // Classify predicates and fix arities.
        let idb_set = program.idb_predicates();
        let edb_set = program.edb_predicates();
        let arities = check_arities(program)?;

        let idb_names: Vec<String> = idb_set.into_iter().collect();
        let edb_names: Vec<String> = edb_set.into_iter().collect();
        let idb_index: HashMap<String, usize> = idb_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        let edb_index: HashMap<String, usize> = edb_names
            .iter()
            .enumerate()
            .map(|(i, n)| (n.clone(), i))
            .collect();
        let idb_arities: Vec<usize> = idb_names.iter().map(|n| arities[n]).collect();
        let edb_arities: Vec<usize> = edb_names.iter().map(|n| arities[n]).collect();

        // EDB arities must agree with the database where present.
        for (name, &arity) in edb_names.iter().zip(&edb_arities) {
            if let Some(r) = db.relation(name) {
                if r.arity() != arity {
                    return Err(EvalError::ArityMismatch {
                        predicate: name.clone(),
                        expected: r.arity(),
                        found: arity,
                    });
                }
            }
        }

        // Compile-time cardinality snapshot: EDB sizes are live (the
        // database is fixed for the evaluation), IDB sizes are unknown —
        // assumed large, so compile-time ties prefer scanning EDB relations
        // and otherwise keep source order. The round driver re-snapshots
        // with live IDB sizes every round.
        let compile_cards = CardSnapshot::new(
            edb_names
                .iter()
                .map(|n| db.relation(n).map_or(0, Relation::len))
                .collect(),
            vec![usize::MAX; idb_names.len()],
        );

        // Per-rule compilation.
        let mut rules = Vec::with_capacity(program.rules.len());
        for (src_index, rule) in program.rules.iter().enumerate() {
            // Variable slots in first-occurrence order.
            let var_names = rule.variables();
            let var_slot: HashMap<&str, usize> = var_names
                .iter()
                .enumerate()
                .map(|(i, n)| (n.as_str(), i))
                .collect();
            let num_vars = var_names.len();

            let cterm = |t: &Term| -> Result<CTerm> {
                match t {
                    Term::Var(v) => Ok(CTerm::Var(var_slot[v.as_str()])),
                    Term::Const(c) => match db.universe().lookup(c) {
                        Some(k) => Ok(CTerm::Const(k)),
                        None => Err(EvalError::UnknownConstant { name: c.clone() }),
                    },
                }
            };
            let catom = |a: &Atom| -> Result<(PredRef, Vec<CTerm>)> {
                let pred = match idb_index.get(&a.predicate) {
                    Some(&i) => PredRef::Idb(i),
                    None => PredRef::Edb(edb_index[&a.predicate]),
                };
                let terms: Result<Vec<CTerm>> = a.terms.iter().map(&cterm).collect();
                Ok((pred, terms?))
            };

            let head_pred = idb_index[&rule.head.predicate];
            let head_terms: Result<Vec<CTerm>> = rule.head.terms.iter().map(&cterm).collect();
            let head_terms = head_terms?;

            let mut body = Vec::with_capacity(rule.body.len());
            for lit in &rule.body {
                body.push(match lit {
                    Literal::Pos(a) => {
                        let (pred, terms) = catom(a)?;
                        RLit::Pos { pred, terms }
                    }
                    Literal::Neg(a) => {
                        let (pred, terms) = catom(a)?;
                        RLit::Neg { pred, terms }
                    }
                    Literal::Eq(s, t) => RLit::Eq(cterm(s)?, cterm(t)?),
                    Literal::Neq(s, t) => RLit::Neq(cterm(s)?, cterm(t)?),
                });
            }

            let plans = build_plans(&head_terms, &body, num_vars, &compile_cards);
            let head_vars: Vec<usize> = head_terms
                .iter()
                .filter_map(|t| match t {
                    CTerm::Var(v) => Some(*v),
                    CTerm::Const(_) => None,
                })
                .collect();
            let check_plan = plan_rule_prebound(
                head_terms.clone(),
                &body,
                num_vars,
                &head_vars,
                &compile_cards,
            );

            rules.push(CompiledRule {
                head_pred,
                head_terms,
                num_vars,
                has_pos_idb: !plans.delta.is_empty(),
                full_plan: plans.full,
                delta_plans: plans.delta,
                neg_delta_plans: plans.neg_delta,
                edb_delta_plans: plans.edb_delta,
                edb_neg_delta_plans: plans.edb_neg_delta,
                check_plan,
                src_index,
                body,
            });
        }

        if dump_ir_enabled() {
            dump_ir(&rules, &idb_names);
        }

        // The graph numbers predicates in sorted-name order, as `idb_names`
        // does, so its node ids are IDB ids.
        let graph = DepGraph::new(program);
        debug_assert_eq!(graph.names(), idb_names.as_slice());
        let mut component_of = vec![0; idb_names.len()];
        let mut components: Vec<RuleComponent> = Vec::new();
        for (c, comp) in graph.components().iter().enumerate() {
            for &p in &comp.nodes {
                component_of[p] = c;
            }
            components.push(RuleComponent {
                preds: comp.nodes.clone(),
                rules: Vec::new(),
                has_negative_cycle: comp.has_negative_cycle,
            });
        }
        for (r, rule) in rules.iter().enumerate() {
            components[component_of[rule.head_pred]].rules.push(r);
        }
        let not_stratified = graph.strata().err();

        Ok(CompiledProgram {
            idb_names,
            idb_arities,
            edb_names,
            edb_arities,
            rules,
            components,
            not_stratified,
            idb_index,
            edb_index,
        })
    }

    /// Checks that the program has strata: no component has a negative
    /// cycle.
    ///
    /// # Errors
    /// [`EvalError::NotStratified`] with the graph's negative cycle when the
    /// program has recursion through negation.
    pub(crate) fn check_stratified(&self) -> Result<()> {
        match &self.not_stratified {
            None => Ok(()),
            Some(witness) => Err(EvalError::NotStratified {
                witness: witness.clone(),
            }),
        }
    }

    /// Number of IDB predicates.
    pub fn num_idb(&self) -> usize {
        self.idb_names.len()
    }

    /// IDB id of a predicate name.
    pub fn idb_id(&self, name: &str) -> Option<usize> {
        self.idb_index.get(name).copied()
    }

    /// EDB id of a predicate name.
    pub fn edb_id(&self, name: &str) -> Option<usize> {
        self.edb_index.get(name).copied()
    }

    /// The all-empty interpretation (the iteration start Θ⁰ = Θ(∅) begins
    /// from this).
    pub fn empty_interp(&self) -> Interp {
        Interp::empty(&self.idb_arities)
    }

    /// The full interpretation `(A^{k_1}, ..., A^{k_m})`.
    pub fn full_interp(&self, universe_size: usize) -> Interp {
        Interp::full(universe_size, &self.idb_arities)
    }

    /// Materializes the EDB relations from the database (absent relations
    /// are empty at the program's declared arity).
    ///
    /// # Errors
    /// Propagates arity conflicts between program and database.
    pub fn edb_relations(&self, db: &Database) -> Result<Vec<Relation>> {
        self.edb_names
            .iter()
            .zip(&self.edb_arities)
            .map(|(name, &arity)| match db.relation(name) {
                Some(r) if r.arity() == arity => Ok(r.clone()),
                Some(r) => Err(EvalError::ArityMismatch {
                    predicate: name.clone(),
                    expected: r.arity(),
                    found: arity,
                }),
                None => Ok(Relation::new(arity)),
            })
            .collect()
    }

    /// Renders an interpretation with this program's IDB names and the
    /// database universe's constant names.
    pub fn display_interp(&self, interp: &Interp, db: &Database) -> String {
        let mut out = String::new();
        for (i, name) in self.idb_names.iter().enumerate() {
            let rows: Vec<String> = interp
                .get(i)
                .sorted()
                .iter()
                .map(|t| t.display_with(|c| db.universe().display(c)))
                .collect();
            out.push_str(&format!("{name} = {{{}}}\n", rows.join(", ")));
        }
        out
    }
}

/// Whether `INFLOG_DUMP_IR=1` asked for the lowered register-machine
/// programs of every compiled plan on stderr.
fn dump_ir_enabled() -> bool {
    std::env::var("INFLOG_DUMP_IR").is_ok_and(|v| v.trim() == "1")
}

/// Prints every rule's lowered programs — all plan families, labelled — in
/// the stable [`Display`](std::fmt::Display) format of
/// [`RuleProgram`](crate::exec::RuleProgram).
fn dump_ir(rules: &[CompiledRule], idb_names: &[String]) {
    for (ri, rule) in rules.iter().enumerate() {
        let head = &idb_names[rule.head_pred];
        let emit = |label: &str, plan: &Plan| {
            eprintln!("-- rule {ri} ({head}) {label}\n{}", plan.program);
        };
        emit("full", &rule.full_plan);
        for (i, p) in rule.delta_plans.iter().enumerate() {
            emit(&format!("delta[{i}]"), p);
        }
        for (i, p) in rule.neg_delta_plans.iter().enumerate() {
            emit(&format!("neg_delta[{i}]"), p);
        }
        for (i, p) in rule.edb_delta_plans.iter().enumerate() {
            emit(&format!("edb_delta[{i}]"), p);
        }
        for (i, p) in rule.edb_neg_delta_plans.iter().enumerate() {
            emit(&format!("edb_neg_delta[{i}]"), p);
        }
        emit("check", &rule.check_plan);
    }
}

/// Checks that every predicate is used with one arity program-wide.
fn check_arities(program: &Program) -> Result<HashMap<String, usize>> {
    let mut arities: HashMap<String, usize> = HashMap::new();
    let mut check = |a: &Atom| -> Result<()> {
        match arities.get(&a.predicate) {
            Some(&k) if k != a.arity() => Err(EvalError::ArityMismatch {
                predicate: a.predicate.clone(),
                expected: k,
                found: a.arity(),
            }),
            Some(_) => Ok(()),
            None => {
                arities.insert(a.predicate.clone(), a.arity());
                Ok(())
            }
        }
    };
    for rule in &program.rules {
        check(&rule.head)?;
        for lit in &rule.body {
            if let Some(a) = lit.atom() {
                check(a)?;
            }
        }
    }
    Ok(arities)
}

/// Interns every constant mentioned by `program` into `db`'s universe, so
/// that compilation cannot fail with `UnknownConstant`.
///
/// Use when the program (not the data) introduces constants — e.g. the
/// Theorem 4 construction over the binary domain `{0, 1}`.
pub fn ensure_program_constants(db: &mut Database, program: &Program) {
    for c in program.constants() {
        db.universe_mut().intern(&c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inflog_core::graphs::DiGraph;
    use inflog_syntax::parse_program;

    fn compile(src: &str, db: &Database) -> CompiledProgram {
        CompiledProgram::compile(&parse_program(src).unwrap(), db).unwrap()
    }

    #[test]
    fn compile_pi1() {
        let db = DiGraph::path(3).to_database("E");
        let cp = compile("T(x) :- E(y, x), !T(y).", &db);
        assert_eq!(cp.idb_names, vec!["T"]);
        assert_eq!(cp.edb_names, vec!["E"]);
        assert_eq!(cp.idb_arities, vec![1]);
        assert_eq!(cp.rules.len(), 1);
        assert!(!cp.rules[0].has_pos_idb);
        assert!(cp.rules[0].delta_plans.is_empty());
    }

    #[test]
    fn compile_tc_has_delta_plans() {
        let db = DiGraph::path(3).to_database("E");
        let cp = compile("S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).", &db);
        assert!(!cp.rules[0].has_pos_idb);
        assert!(cp.rules[1].has_pos_idb);
        assert_eq!(cp.rules[1].delta_plans.len(), 1);
    }

    #[test]
    fn idb_ids_sorted_by_name() {
        let db = DiGraph::path(2).to_database("E");
        let cp = compile("Z(x) :- E(x, y). A(x) :- E(x, y). M(x) :- A(x), Z(x).", &db);
        assert_eq!(cp.idb_names, vec!["A", "M", "Z"]);
        assert_eq!(cp.idb_id("M"), Some(1));
        assert_eq!(cp.idb_id("E"), None);
    }

    #[test]
    fn unknown_constant_errors() {
        let db = DiGraph::path(2).to_database("E");
        let p = parse_program("T(x) :- E(x, y), y = '9'.").unwrap();
        let err = CompiledProgram::compile(&p, &db).unwrap_err();
        assert!(matches!(err, EvalError::UnknownConstant { .. }));
    }

    #[test]
    fn ensure_constants_interns() {
        let mut db = DiGraph::path(2).to_database("E");
        let p = parse_program("T(x) :- E(x, y), y = 'extra'.").unwrap();
        ensure_program_constants(&mut db, &p);
        assert!(CompiledProgram::compile(&p, &db).is_ok());
        assert!(db.universe().lookup("extra").is_some());
    }

    #[test]
    fn program_arity_conflict_errors() {
        let db = Database::new();
        let p = parse_program("T(x) :- E(x). T(x) :- E(x, y).").unwrap();
        assert!(matches!(
            CompiledProgram::compile(&p, &db),
            Err(EvalError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn database_arity_conflict_errors() {
        let mut db = Database::new();
        db.insert_named_fact("E", &["a"]).unwrap(); // E/1 in the database
        let p = parse_program("T(x) :- E(x, y).").unwrap(); // E/2 in the program
        assert!(matches!(
            CompiledProgram::compile(&p, &db),
            Err(EvalError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn absent_edb_is_empty() {
        let db = Database::new();
        let cp = compile("T(x) :- E(x, y).", &db);
        let edb = cp.edb_relations(&db).unwrap();
        assert_eq!(edb.len(), 1);
        assert!(edb[0].is_empty());
        assert_eq!(edb[0].arity(), 2);
    }

    #[test]
    fn empty_and_full_interp() {
        let db = DiGraph::path(3).to_database("E");
        let cp = compile("T(x) :- E(y, x), !T(y).", &db);
        assert!(cp.empty_interp().all_empty());
        assert_eq!(cp.full_interp(db.universe_size()).total_tuples(), 3);
    }
}
