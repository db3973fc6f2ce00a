//! Rule execution plans: compiled, ordered step sequences for evaluating one
//! rule body under a variable binding.
//!
//! The planner is a small query optimizer:
//!
//! * positive atoms become [`Step::Scan`]s, greedily ordered so that atoms
//!   with the most already-bound argument positions run first (those
//!   positions become hash-index keys);
//! * **cardinality tie-break**: when two candidate atoms have the same
//!   bound-position and constant counts, the one whose relation is
//!   currently *smaller* — per the [`CardSnapshot`] the caller supplies —
//!   is scanned first, since its candidate set is the smaller outer loop;
//!   only a genuine size tie falls back to source order. Compile-time plans
//!   snapshot the live EDB cardinalities (IDB relations are unknown and
//!   assumed large); the round driver re-plans each semi-naive round with
//!   the live IDB sizes, so scan order tracks the growing interpretation;
//! * equalities bind variables ([`Step::BindEq`]) or filter
//!   ([`Step::FilterEq`]);
//! * negated atoms and inequalities are pushed down to the earliest point at
//!   which all their variables are bound;
//! * variables bound by nothing — the paper's unsafe rules — get
//!   [`Step::Domain`] steps that range them over the whole universe `A`,
//!   implementing the paper's domain-grounded semantics. Those steps come
//!   after every positive atom, so when they and the filters on them read
//!   nothing bound above, [`lower`] marks them as the program's
//!   loop-invariant suffix ([`Hoist`]): the VM ranges them once per run
//!   and replays the surviving rows for every binding of the join above,
//!   instead of `|A|^k` candidates per binding.
//!
//! For semi-naive evaluation each rule additionally gets one *delta plan* per
//! positive IDB atom occurrence: that occurrence reads the per-round delta
//! relation (and is scanned first, since the delta is the smallest input).
//!
//! Every plan is additionally [`lower`]ed at construction into a flat
//! [`RuleProgram`] — the register-machine IR the VM runs (the step tree
//! survives as the debug-build oracle's input and for plan
//! introspection). Because lowering happens inside the planner, every path
//! that builds or re-builds plans (compile-time planning, per-round
//! replanning, grounding, check plans) gets a fresh program for free.

use crate::exec::{ColAction, Hoist, Op, RuleProgram, ValSrc, END};
use inflog_core::Const;
use std::fmt;

/// A compiled term: a variable slot or a resolved constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CTerm {
    /// Variable, identified by its slot in the rule's binding array.
    Var(usize),
    /// Constant already resolved against the database universe.
    Const(Const),
}

impl fmt::Display for CTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CTerm::Var(v) => write!(f, "x{v}"),
            CTerm::Const(c) => write!(f, "{c}"),
        }
    }
}

/// A reference to a relation: extensional (database) or intensional
/// (computed), by dense id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredRef {
    /// Database relation id.
    Edb(usize),
    /// Non-database relation id.
    Idb(usize),
}

/// A snapshot of relation cardinalities the planner's scan-order tie-break
/// consults: equal bound-position counts prefer the smaller relation.
///
/// Relations without a recorded size count as *unknown* and are treated as
/// maximally large, so an [`unknown`](Self::unknown) snapshot degenerates to
/// the historical pure source-order tie-break. The compiler records live
/// EDB sizes with unknown IDBs; the round driver snapshots both sides every
/// round (see `DeltaDriver`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CardSnapshot {
    edb: Vec<usize>,
    idb: Vec<usize>,
}

impl CardSnapshot {
    /// Builds a snapshot from per-id sizes (EDB and IDB dense ids).
    pub fn new(edb: Vec<usize>, idb: Vec<usize>) -> Self {
        CardSnapshot { edb, idb }
    }

    /// The empty snapshot: every relation size unknown (assumed large), so
    /// ties fall back to source order.
    pub fn unknown() -> Self {
        CardSnapshot::default()
    }

    /// Estimated cardinality of `pred` (`usize::MAX` when unknown).
    pub fn size(&self, pred: PredRef) -> usize {
        let (sizes, i) = match pred {
            PredRef::Edb(i) => (&self.edb, i),
            PredRef::Idb(i) => (&self.idb, i),
        };
        sizes.get(i).copied().unwrap_or(usize::MAX)
    }

    /// Whether `other` is close enough to this snapshot that re-planning
    /// from it would be noise: every size is in the same power-of-two
    /// bucket. The planner only reads cardinalities through order
    /// comparisons, so two snapshots whose sizes agree bucket-by-bucket
    /// almost always order scans identically — and a fixpoint loop that
    /// re-plans per round would otherwise rebuild every plan (and re-lower
    /// every program) each time a relation grows by a single tuple.
    pub fn same_magnitude(&self, other: &CardSnapshot) -> bool {
        let bucket = |n: usize| usize::BITS - n.leading_zeros();
        let agree = |a: &[usize], b: &[usize]| {
            a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| bucket(x) == bucket(y))
        };
        agree(&self.edb, &other.edb) && agree(&self.idb, &other.idb)
    }
}

/// Which version of an IDB relation a scan reads (semi-naive evaluation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Source {
    /// The full current relation.
    Full,
    /// The per-round delta.
    Delta,
}

/// One step of a rule plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Iterate the tuples of a relation, consistent with already-bound
    /// positions (`key_cols`), binding the rest.
    Scan {
        /// Relation to scan.
        pred: PredRef,
        /// Full or delta version. Delta scans resolve against the delta
        /// interpretation of the application: IDB-shaped for semi-naive
        /// rounds, EDB-shaped for the view-maintenance repair seeds.
        source: Source,
        /// Argument terms of the atom.
        terms: Vec<CTerm>,
        /// Columns whose value is known *before* this step (constants or
        /// previously bound variables) — used as a hash-index key.
        key_cols: Vec<usize>,
    },
    /// Bind `var` to every constant of the universe in turn (domain
    /// grounding for otherwise-unbound variables).
    Domain {
        /// Variable slot to bind.
        var: usize,
    },
    /// Membership test with all variables bound.
    FilterPos {
        /// Relation to probe.
        pred: PredRef,
        /// Argument terms (all bound at this point).
        terms: Vec<CTerm>,
    },
    /// Non-membership test with all variables bound.
    FilterNeg {
        /// Relation to probe.
        pred: PredRef,
        /// Argument terms (all bound at this point).
        terms: Vec<CTerm>,
    },
    /// Bind an unbound variable to the value of a bound term.
    BindEq {
        /// Variable slot to bind.
        var: usize,
        /// Bound term supplying the value.
        from: CTerm,
    },
    /// Equality test between two bound terms.
    FilterEq {
        /// Left term.
        a: CTerm,
        /// Right term.
        b: CTerm,
    },
    /// Inequality test between two bound terms.
    FilterNeq {
        /// Left term.
        a: CTerm,
        /// Right term.
        b: CTerm,
    },
}

/// A resolved body literal, pre-planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RLit {
    /// Positive atom.
    Pos {
        /// Relation.
        pred: PredRef,
        /// Arguments.
        terms: Vec<CTerm>,
    },
    /// Negated atom.
    Neg {
        /// Relation.
        pred: PredRef,
        /// Arguments.
        terms: Vec<CTerm>,
    },
    /// Equality.
    Eq(CTerm, CTerm),
    /// Inequality.
    Neq(CTerm, CTerm),
}

impl RLit {
    fn vars(&self) -> Vec<usize> {
        fn tv(t: &CTerm, out: &mut Vec<usize>) {
            if let CTerm::Var(v) = t {
                out.push(*v);
            }
        }
        let mut out = Vec::new();
        match self {
            RLit::Pos { terms, .. } | RLit::Neg { terms, .. } => {
                terms.iter().for_each(|t| tv(t, &mut out));
            }
            RLit::Eq(a, b) | RLit::Neq(a, b) => {
                tv(a, &mut out);
                tv(b, &mut out);
            }
        }
        out
    }
}

/// A complete plan for one rule (body steps + head construction).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Ordered execution steps.
    pub steps: Vec<Step>,
    /// Head terms (tuple construction; all variables bound after `steps`).
    pub head: Vec<CTerm>,
    /// Number of variable slots in the rule.
    pub num_vars: usize,
    /// The steps [`lower`]ed to the flat register-machine IR the VM
    /// runs. Always consistent with `steps`: both are produced
    /// together by the planner.
    pub program: RuleProgram,
}

/// Builds a plan for a rule body.
///
/// `delta_lit` optionally names a body literal index that must be a positive
/// atom (IDB for semi-naive rounds; EDB for the view-maintenance plans that
/// seed a repair from an EDB delta); it is scanned first from the
/// [`Source::Delta`] relation (the delta-first invariant: the delta is
/// always the smallest input, so cardinality estimates never reorder it away
/// from the front).
///
/// `cards` supplies the relation-cardinality estimates for the scan-order
/// tie-break; [`CardSnapshot::unknown`] reproduces pure source order.
///
/// # Panics
/// Panics if `delta_lit` does not refer to a positive atom (an internal
/// compiler invariant).
pub fn plan_rule(
    head: Vec<CTerm>,
    body: &[RLit],
    num_vars: usize,
    delta_lit: Option<usize>,
    cards: &CardSnapshot,
) -> Plan {
    plan_rule_inner(head, body, num_vars, delta_lit, false, &[], cards)
}

/// Builds a plan whose leading scan reads the [`Source::Delta`] relation for
/// the **negated** atom at body index `neg_lit` — the atom's tuples are
/// drawn from a *removed set* (tuples that just left the negation context:
/// the frozen IDB context for the well-founded engine, the extensional
/// database for view-maintenance repairs), its variables bound by
/// unification like any positive scan.
///
/// The driven occurrence itself is consumed: a removed tuple is by
/// definition absent from the negation context, so re-filtering it is a
/// tautology (other negated occurrences still filter normally). The
/// incremental well-founded engine uses these plans to run the first round
/// of `Γ` restricted to derivations that a shrinking `J` newly enables;
/// the materialized-view repair path drives the EDB variants with the
/// retracted (for damage) or inserted (for top-up) fact sets.
///
/// # Panics
/// Panics if `neg_lit` does not refer to a negated atom.
pub fn plan_rule_neg_delta(
    head: Vec<CTerm>,
    body: &[RLit],
    num_vars: usize,
    neg_lit: usize,
    cards: &CardSnapshot,
) -> Plan {
    plan_rule_inner(head, body, num_vars, Some(neg_lit), true, &[], cards)
}

/// Builds a plan with the given variable slots already bound by the caller
/// (seeded into the executor's binding array before the plan runs).
///
/// Used for **check plans**: the head variables are pre-bound from a
/// candidate head tuple, so the body atoms mentioning them become keyed
/// scans against the persistent indexes and the plan decides one-step
/// derivability of that tuple.
pub fn plan_rule_prebound(
    head: Vec<CTerm>,
    body: &[RLit],
    num_vars: usize,
    pre_bound: &[usize],
    cards: &CardSnapshot,
) -> Plan {
    plan_rule_inner(head, body, num_vars, None, false, pre_bound, cards)
}

#[allow(clippy::too_many_arguments)]
fn plan_rule_inner(
    head: Vec<CTerm>,
    body: &[RLit],
    num_vars: usize,
    delta_lit: Option<usize>,
    delta_is_neg: bool,
    pre_bound: &[usize],
    cards: &CardSnapshot,
) -> Plan {
    let mut steps = Vec::new();
    let mut bound = vec![false; num_vars];
    for &v in pre_bound {
        bound[v] = true;
    }
    let mut remaining: Vec<(usize, &RLit)> = body.iter().enumerate().collect();

    let term_bound = |t: &CTerm, bound: &[bool]| match t {
        CTerm::Const(_) => true,
        CTerm::Var(v) => bound[*v],
    };

    // Emit the delta scan first: the delta is the smallest relation.
    if let Some(d) = delta_lit {
        let lit = &body[d];
        let (pred, terms) = match (lit, delta_is_neg) {
            (RLit::Pos { pred, terms }, false) | (RLit::Neg { pred, terms }, true) => (pred, terms),
            _ => panic!("delta literal polarity does not match the requested plan"),
        };
        steps.push(Step::Scan {
            pred: *pred,
            source: Source::Delta,
            terms: terms.clone(),
            key_cols: Vec::new(),
        });
        for v in lit.vars() {
            bound[v] = true;
        }
        remaining.retain(|(i, _)| *i != d);
    }

    while !remaining.is_empty() {
        // Phase 1: drain every literal that is ready as a filter/bind.
        let mut progressed = true;
        while progressed {
            progressed = false;
            let mut i = 0;
            while i < remaining.len() {
                let (_, lit) = remaining[i];
                let step = match lit {
                    RLit::Eq(a, b) => match (term_bound(a, &bound), term_bound(b, &bound)) {
                        (true, true) => Some(Step::FilterEq { a: *a, b: *b }),
                        (true, false) => {
                            let CTerm::Var(v) = b else { unreachable!() };
                            Some(Step::BindEq { var: *v, from: *a })
                        }
                        (false, true) => {
                            let CTerm::Var(v) = a else { unreachable!() };
                            Some(Step::BindEq { var: *v, from: *b })
                        }
                        (false, false) => None,
                    },
                    RLit::Neq(a, b) if term_bound(a, &bound) && term_bound(b, &bound) => {
                        Some(Step::FilterNeq { a: *a, b: *b })
                    }
                    RLit::Neg { pred, terms } if terms.iter().all(|t| term_bound(t, &bound)) => {
                        Some(Step::FilterNeg {
                            pred: *pred,
                            terms: terms.clone(),
                        })
                    }
                    RLit::Pos { pred, terms } if terms.iter().all(|t| term_bound(t, &bound)) => {
                        Some(Step::FilterPos {
                            pred: *pred,
                            terms: terms.clone(),
                        })
                    }
                    _ => None,
                };
                if let Some(s) = step {
                    if let Step::BindEq { var, .. } = &s {
                        bound[*var] = true;
                    }
                    steps.push(s);
                    remaining.remove(i);
                    progressed = true;
                } else {
                    i += 1;
                }
            }
        }
        if remaining.is_empty() {
            break;
        }

        // Phase 2: scan the positive atom with the most bound columns
        // (ties: more constants, then the smaller relation per the
        // cardinality snapshot — the smaller estimated candidate set is the
        // cheaper outer loop — then source order).
        let best = remaining
            .iter()
            .enumerate()
            .filter_map(|(slot, (idx, lit))| match lit {
                RLit::Pos { pred, terms } => {
                    let bound_cols = terms.iter().filter(|t| term_bound(t, &bound)).count();
                    let const_cols = terms
                        .iter()
                        .filter(|t| matches!(t, CTerm::Const(_)))
                        .count();
                    Some((slot, *idx, *pred, terms.clone(), bound_cols, const_cols))
                }
                _ => None,
            })
            .max_by_key(|&(_, idx, pred, _, bc, cc)| {
                (
                    bc,
                    cc,
                    std::cmp::Reverse(cards.size(pred)),
                    std::cmp::Reverse(idx),
                )
            });

        if let Some((slot, _, pred, terms, _, _)) = best {
            let key_cols: Vec<usize> = terms
                .iter()
                .enumerate()
                .filter(|(_, t)| term_bound(t, &bound))
                .map(|(c, _)| c)
                .collect();
            for t in &terms {
                if let CTerm::Var(v) = t {
                    bound[*v] = true;
                }
            }
            steps.push(Step::Scan {
                pred,
                source: Source::Full,
                terms,
                key_cols,
            });
            remaining.remove(slot);
            continue;
        }

        // Phase 3: only negations / inequalities / var-var equalities with
        // unbound variables remain. Ground the smallest-numbered unbound
        // variable over the universe and retry.
        let next_var = remaining
            .iter()
            .flat_map(|(_, l)| l.vars())
            .filter(|&v| !bound[v])
            .min()
            .expect("unready literals must mention an unbound variable");
        steps.push(Step::Domain { var: next_var });
        bound[next_var] = true;
    }

    // Head variables never bound by the body range over the universe.
    for t in &head {
        if let CTerm::Var(v) = t {
            if !bound[*v] {
                steps.push(Step::Domain { var: *v });
                bound[*v] = true;
            }
        }
    }

    let program = lower(&steps, &head, num_vars, pre_bound);
    Plan {
        steps,
        head,
        num_vars,
        program,
    }
}

/// Lowers a plan's step tree to the flat [`RuleProgram`] IR.
///
/// The key property making this a *static* compilation: variable boundness
/// at every step is fully determined by the plan (plus `pre_bound`), never
/// by runtime data. So each scan column's behavior is decided here once —
/// bind a register, check a register, check a constant, or skip an
/// index-guaranteed key column — and the executing VM carries no `bound`
/// bitmap at all. Keyed scans become [`Op::ProbeIndex`] with the key built
/// from registers/immediates; each op records the pc of its innermost
/// enclosing loop as its explicit `fail` jump target ([`END`] at top
/// level); the terminal [`Op::Emit`] resumes the innermost loop.
///
/// `pre_bound` lists variable slots the caller seeds before running (check
/// plans pre-bind the head variables) — they start as bound registers.
///
/// The program's loop-invariant suffix, if any, is recorded on it as a
/// [`Hoist`] (see [`exec`](crate::exec)).
pub fn lower(steps: &[Step], head: &[CTerm], num_vars: usize, pre_bound: &[usize]) -> RuleProgram {
    let mut bound = vec![false; num_vars];
    for &v in pre_bound {
        bound[v] = true;
    }
    let vsrc = |t: &CTerm, bound: &[bool]| -> ValSrc {
        match t {
            CTerm::Const(c) => ValSrc::Imm(*c),
            CTerm::Var(v) => {
                debug_assert!(bound[*v], "value read from an unbound variable");
                ValSrc::Reg(*v as u32)
            }
        }
    };
    let mut ops: Vec<Op> = Vec::with_capacity(steps.len() + 1);
    // Innermost enclosing loop so far — the fail target of the next op.
    let mut last_loop: u32 = END;
    for step in steps {
        let pc = ops.len() as u32;
        let fail = last_loop;
        match step {
            Step::Scan {
                pred,
                source,
                terms,
                key_cols,
            } => {
                let cols: Box<[ColAction]> = terms
                    .iter()
                    .enumerate()
                    .map(|(col, term)| {
                        if key_cols.contains(&col) {
                            // The probe key guarantees equality here (the
                            // fallback path re-checks the key explicitly).
                            return ColAction::Skip;
                        }
                        match term {
                            CTerm::Const(c) => ColAction::CheckConst(*c),
                            CTerm::Var(v) => {
                                // First fresh occurrence binds; repeats (in
                                // earlier columns or earlier steps) check —
                                // the same rule as the tree executor's
                                // binds mask.
                                if !bound[*v] && !terms[..col].contains(term) {
                                    ColAction::Bind(*v as u32)
                                } else {
                                    ColAction::CheckReg(*v as u32)
                                }
                            }
                        }
                    })
                    .collect();
                if key_cols.is_empty() {
                    ops.push(match pred {
                        PredRef::Edb(i) => Op::ScanEdb {
                            rel: *i as u32,
                            source: *source,
                            cols,
                            fail,
                        },
                        PredRef::Idb(i) => Op::ScanIdb {
                            rel: *i as u32,
                            source: *source,
                            cols,
                            fail,
                        },
                    });
                } else {
                    let key: Box<[ValSrc]> =
                        key_cols.iter().map(|&c| vsrc(&terms[c], &bound)).collect();
                    ops.push(Op::ProbeIndex {
                        pred: *pred,
                        source: *source,
                        key_cols: key_cols.clone().into_boxed_slice(),
                        key,
                        cols,
                        fail,
                    });
                }
                last_loop = pc;
                for t in terms {
                    if let CTerm::Var(v) = t {
                        bound[*v] = true;
                    }
                }
            }
            Step::Domain { var } => {
                ops.push(Op::Domain {
                    reg: *var as u32,
                    fail,
                });
                last_loop = pc;
                bound[*var] = true;
            }
            Step::FilterPos { pred, terms } => ops.push(Op::FilterPos {
                pred: *pred,
                args: terms.iter().map(|t| vsrc(t, &bound)).collect(),
                fail,
            }),
            Step::FilterNeg { pred, terms } => ops.push(Op::FilterNeg {
                pred: *pred,
                args: terms.iter().map(|t| vsrc(t, &bound)).collect(),
                fail,
            }),
            Step::BindEq { var, from } => {
                let from = vsrc(from, &bound);
                bound[*var] = true;
                ops.push(Op::BindEq {
                    reg: *var as u32,
                    from,
                });
            }
            Step::FilterEq { a, b } => ops.push(Op::FilterEq {
                a: vsrc(a, &bound),
                b: vsrc(b, &bound),
                fail,
            }),
            Step::FilterNeq { a, b } => ops.push(Op::FilterNeq {
                a: vsrc(a, &bound),
                b: vsrc(b, &bound),
                fail,
            }),
        }
    }
    ops.push(Op::Emit { fail: last_loop });
    let hoist = invariant_suffix(&ops, num_vars);
    RuleProgram {
        ops,
        head: head.iter().map(|t| vsrc(t, &bound)).collect(),
        num_regs: num_vars,
        hoist,
    }
}

/// Finds a lowered program's loop-invariant suffix: the first loop op at
/// pc `k`, with a loop before it, such that no op from `k` up to the emit
/// reads a register written before `k`. Pre-bound registers are read but
/// never written, so they count as written before pc 0. Every arrival at
/// `k` then runs the suffix to the same bindings in the same order — the
/// paper's unsafe rules, whose negation-only variables range over `A`
/// after the positive join, are the case that matters.
fn invariant_suffix(ops: &[Op], num_regs: usize) -> Option<Hoist> {
    let body = &ops[..ops.len() - 1];
    // One past the pc that writes each register (0: before pc 0).
    let mut written = vec![0; num_regs];
    for (pc, op) in body.iter().enumerate() {
        op.visit_regs(&mut |_| {}, &mut |r| written[r as usize] = pc + 1);
    }
    // Per op, the earliest write (counted as above) among the registers it
    // reads: a suffix from `k` may hold the op only if that write is at pc
    // `k` or later.
    let earliest: Vec<usize> = body
        .iter()
        .map(|op| {
            let mut earliest = usize::MAX;
            op.visit_regs(
                &mut |r| earliest = earliest.min(written[r as usize]),
                &mut |_| {},
            );
            earliest
        })
        .collect();
    let first_loop = body.iter().position(Op::is_loop)?;
    let k = (first_loop + 1..body.len())
        .find(|&k| body[k].is_loop() && earliest[k..].iter().all(|&w| w > k))?;
    // A loop binds at least one fresh register (an atom with every term
    // bound plans as a filter), so a replay row is never empty.
    let mut regs = Vec::new();
    for op in &body[k..] {
        op.visit_regs(&mut |_| {}, &mut |r| regs.push(r));
    }
    debug_assert!(
        !regs.is_empty(),
        "a loop-invariant suffix writes no register"
    );
    Some(Hoist {
        pc: k as u32,
        regs: regs.into(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const E: PredRef = PredRef::Edb(0);
    const T: PredRef = PredRef::Idb(0);

    fn v(i: usize) -> CTerm {
        CTerm::Var(i)
    }

    #[test]
    fn pi1_plan_scans_then_filters() {
        // T(x) <- E(y,x), !T(y): scan E, then the negation is a filter.
        let body = vec![
            RLit::Pos {
                pred: E,
                terms: vec![v(1), v(0)],
            },
            RLit::Neg {
                pred: T,
                terms: vec![v(1)],
            },
        ];
        let p = plan_rule(vec![v(0)], &body, 2, None, &CardSnapshot::unknown());
        assert_eq!(p.steps.len(), 2);
        assert!(matches!(
            p.steps[0],
            Step::Scan {
                pred: PredRef::Edb(0),
                ..
            }
        ));
        assert!(matches!(p.steps[1], Step::FilterNeg { .. }));
    }

    #[test]
    fn toggle_rule_gets_domain_steps() {
        // T(z) <- !Q(u), !T(w): all three variables need Domain steps.
        let q = PredRef::Idb(1);
        let body = vec![
            RLit::Neg {
                pred: q,
                terms: vec![v(1)],
            },
            RLit::Neg {
                pred: T,
                terms: vec![v(2)],
            },
        ];
        let p = plan_rule(vec![v(0)], &body, 3, None, &CardSnapshot::unknown());
        let domains = p
            .steps
            .iter()
            .filter(|s| matches!(s, Step::Domain { .. }))
            .count();
        assert_eq!(domains, 3);
        // Filters come after the Domain step binding their variable.
        let first_filter = p
            .steps
            .iter()
            .position(|s| matches!(s, Step::FilterNeg { .. }))
            .unwrap();
        assert!(first_filter >= 1);
    }

    #[test]
    fn equality_binds_instead_of_domain() {
        // P(y) <- V(x), x = y.
        let vp = PredRef::Edb(1);
        let body = vec![
            RLit::Pos {
                pred: vp,
                terms: vec![v(0)],
            },
            RLit::Eq(v(0), v(1)),
        ];
        let p = plan_rule(vec![v(1)], &body, 2, None, &CardSnapshot::unknown());
        assert!(p
            .steps
            .iter()
            .any(|s| matches!(s, Step::BindEq { var: 1, .. })));
        assert!(!p.steps.iter().any(|s| matches!(s, Step::Domain { .. })));
    }

    #[test]
    fn second_scan_uses_bound_key_cols() {
        // S(x,y) <- E(x,z), S(z,y): after scanning E, S's first column is a key.
        let s = PredRef::Idb(0);
        let body = vec![
            RLit::Pos {
                pred: E,
                terms: vec![v(0), v(2)],
            },
            RLit::Pos {
                pred: s,
                terms: vec![v(2), v(1)],
            },
        ];
        let p = plan_rule(vec![v(0), v(1)], &body, 3, None, &CardSnapshot::unknown());
        match &p.steps[1] {
            Step::Scan { key_cols, .. } => assert_eq!(key_cols, &vec![0]),
            other => panic!("expected scan, got {other:?}"),
        }
    }

    #[test]
    fn delta_plan_scans_delta_first() {
        let s = PredRef::Idb(0);
        let body = vec![
            RLit::Pos {
                pred: E,
                terms: vec![v(0), v(2)],
            },
            RLit::Pos {
                pred: s,
                terms: vec![v(2), v(1)],
            },
        ];
        let p = plan_rule(
            vec![v(0), v(1)],
            &body,
            3,
            Some(1),
            &CardSnapshot::unknown(),
        );
        match &p.steps[0] {
            Step::Scan { source, pred, .. } => {
                assert_eq!(*source, Source::Delta);
                assert_eq!(*pred, s);
            }
            other => panic!("expected delta scan, got {other:?}"),
        }
        // The E atom is now keyed on its second column (bound by the delta).
        match &p.steps[1] {
            Step::Scan { key_cols, .. } => assert_eq!(key_cols, &vec![1]),
            other => panic!("expected scan, got {other:?}"),
        }
    }

    #[test]
    fn neg_delta_plan_scans_removed_set_first() {
        // Win(x) <- Move(x,y), !Win(y): the neg-delta plan scans the removed
        // Win tuples (binding y), then probes Move keyed on its second
        // column. The driven negation is consumed, not re-filtered.
        let body = vec![
            RLit::Pos {
                pred: E,
                terms: vec![v(0), v(1)],
            },
            RLit::Neg {
                pred: T,
                terms: vec![v(1)],
            },
        ];
        let p = plan_rule_neg_delta(vec![v(0)], &body, 2, 1, &CardSnapshot::unknown());
        match &p.steps[0] {
            Step::Scan { pred, source, .. } => {
                assert_eq!(*pred, T);
                assert_eq!(*source, Source::Delta);
            }
            other => panic!("expected removed-set scan, got {other:?}"),
        }
        match &p.steps[1] {
            Step::Scan { pred, key_cols, .. } => {
                assert_eq!(*pred, E);
                assert_eq!(key_cols, &vec![1]);
            }
            other => panic!("expected keyed Move scan, got {other:?}"),
        }
        assert_eq!(p.steps.len(), 2);
    }

    #[test]
    fn neg_delta_plan_keeps_other_negations_as_filters() {
        let q = PredRef::Idb(1);
        let body = vec![
            RLit::Pos {
                pred: E,
                terms: vec![v(0), v(1)],
            },
            RLit::Neg {
                pred: T,
                terms: vec![v(1)],
            },
            RLit::Neg {
                pred: q,
                terms: vec![v(0)],
            },
        ];
        let p = plan_rule_neg_delta(vec![v(0)], &body, 2, 1, &CardSnapshot::unknown());
        let neg_filters = p
            .steps
            .iter()
            .filter(|s| matches!(s, Step::FilterNeg { .. }))
            .count();
        assert_eq!(neg_filters, 1, "only the driven occurrence is consumed");
    }

    #[test]
    fn prebound_head_vars_key_the_first_scan() {
        // Check plan for Win(x) <- Move(x,y), !Win(y) with x pre-bound:
        // Move is scanned keyed on column 0, no Domain steps.
        let body = vec![
            RLit::Pos {
                pred: E,
                terms: vec![v(0), v(1)],
            },
            RLit::Neg {
                pred: T,
                terms: vec![v(1)],
            },
        ];
        let p = plan_rule_prebound(vec![v(0)], &body, 2, &[0], &CardSnapshot::unknown());
        match &p.steps[0] {
            Step::Scan { key_cols, .. } => assert_eq!(key_cols, &vec![0]),
            other => panic!("expected keyed scan, got {other:?}"),
        }
        assert!(matches!(p.steps[1], Step::FilterNeg { .. }));
        assert!(!p.steps.iter().any(|s| matches!(s, Step::Domain { .. })));
    }

    #[test]
    fn fact_head_variables_get_domains() {
        // G(z, c) <- .  : z ranges over the universe.
        let p = plan_rule(
            vec![v(0), CTerm::Const(inflog_core::Const(1))],
            &[],
            1,
            None,
            &CardSnapshot::unknown(),
        );
        assert_eq!(p.steps.len(), 1);
        assert!(matches!(p.steps[0], Step::Domain { var: 0 }));
    }

    #[test]
    fn var_var_equality_with_no_bindings() {
        // P(x) <- x = y (both unbound): Domain then BindEq.
        let body = vec![RLit::Eq(v(0), v(1))];
        let p = plan_rule(vec![v(0)], &body, 2, None, &CardSnapshot::unknown());
        assert!(matches!(p.steps[0], Step::Domain { .. }));
        assert!(matches!(p.steps[1], Step::BindEq { .. }));
    }

    #[test]
    fn all_bound_positive_atom_becomes_filter() {
        // P(x) <- E(x, x), E(x, x) — the second occurrence is a filter.
        let body = vec![
            RLit::Pos {
                pred: E,
                terms: vec![v(0), v(0)],
            },
            RLit::Pos {
                pred: E,
                terms: vec![v(0), v(0)],
            },
        ];
        let p = plan_rule(vec![v(0)], &body, 1, None, &CardSnapshot::unknown());
        let scans = p
            .steps
            .iter()
            .filter(|s| matches!(s, Step::Scan { .. }))
            .count();
        let filters = p
            .steps
            .iter()
            .filter(|s| matches!(s, Step::FilterPos { .. }))
            .count();
        assert_eq!((scans, filters), (1, 1));
    }

    #[test]
    fn cardinality_breaks_bound_count_ties() {
        // P(x, y) :- E(x, z), F(z, y): both atoms start with zero bound
        // columns. With F smaller than E, F must be scanned first (smaller
        // outer loop) and E keyed on its now-bound z column — the reverse of
        // source order.
        let f = PredRef::Edb(1);
        let body = vec![
            RLit::Pos {
                pred: E,
                terms: vec![v(0), v(2)],
            },
            RLit::Pos {
                pred: f,
                terms: vec![v(2), v(1)],
            },
        ];
        let cards = CardSnapshot::new(vec![100, 3], Vec::new());
        let p = plan_rule(vec![v(0), v(1)], &body, 3, None, &cards);
        match &p.steps[0] {
            Step::Scan { pred, key_cols, .. } => {
                assert_eq!(*pred, f, "smaller relation scans first");
                assert!(key_cols.is_empty());
            }
            other => panic!("expected scan, got {other:?}"),
        }
        match &p.steps[1] {
            Step::Scan { pred, key_cols, .. } => {
                assert_eq!(*pred, E);
                assert_eq!(key_cols, &vec![1], "E keyed on z bound by F");
            }
            other => panic!("expected scan, got {other:?}"),
        }

        // Equal sizes: the tie falls back to source order (E first).
        let tied = CardSnapshot::new(vec![5, 5], Vec::new());
        let p = plan_rule(vec![v(0), v(1)], &body, 3, None, &tied);
        match &p.steps[0] {
            Step::Scan { pred, .. } => assert_eq!(*pred, E, "size ties keep source order"),
            other => panic!("expected scan, got {other:?}"),
        }

        // Bound columns still dominate cardinality: a keyed E beats a
        // smaller unkeyed F.
        let body_keyed = vec![
            RLit::Pos {
                pred: E,
                terms: vec![v(0), v(2)],
            },
            RLit::Pos {
                pred: f,
                terms: vec![v(3), v(1)],
            },
        ];
        let p = plan_rule_prebound(vec![v(0), v(1)], &body_keyed, 4, &[0], &cards);
        match &p.steps[0] {
            Step::Scan { pred, key_cols, .. } => {
                assert_eq!(*pred, E, "bound columns outrank cardinality");
                assert_eq!(key_cols, &vec![0]);
            }
            other => panic!("expected scan, got {other:?}"),
        }
    }

    #[test]
    fn neq_filter_after_binding() {
        let body = vec![
            RLit::Neq(v(0), v(1)),
            RLit::Pos {
                pred: E,
                terms: vec![v(0), v(1)],
            },
        ];
        let p = plan_rule(vec![v(0)], &body, 2, None, &CardSnapshot::unknown());
        assert!(matches!(p.steps[0], Step::Scan { .. }));
        assert!(matches!(p.steps[1], Step::FilterNeq { .. }));
    }
}
