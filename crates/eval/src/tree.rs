//! The recursive tree executor — the original `Step`-tree walker, kept as
//! the **oracle** for the flat register-machine VM of [`exec`](crate::exec).
//!
//! Compiled in debug builds only: [`operator`](crate::operator) replays
//! every VM application, probe and binding enumeration on it and asserts
//! identical output; nothing else calls it, and release builds carry none
//! of it. It always runs ungoverned. Its candidate order — dense order for
//! unkeyed scans, posting order for keyed ones, universe order for `Domain`
//! steps — is the specification the VM reproduces bit-identically.

use crate::exec::ExecEnv;
use crate::plan::{CTerm, Plan, Source, Step};
use inflog_core::{Const, Relation, Tuple};

/// Runs `plan` to completion, inserting every derived head tuple into `out`.
pub(crate) fn run_plan(env: &ExecEnv<'_>, plan: &Plan, out: &mut Relation) {
    let mut vals: Vec<Const> = vec![Const(0); plan.num_vars];
    let mut bound = vec![false; plan.num_vars];
    step(env, plan, 0, &mut vals, &mut bound, out);
}

/// Satisfiability probe over a whole plan with pre-seeded bindings: does
/// any completion reach the head? Returns on the first witness.
pub(crate) fn probe_plan(
    env: &ExecEnv<'_>,
    plan: &Plan,
    vals: &mut Vec<Const>,
    bound: &mut Vec<bool>,
) -> bool {
    probe_steps(env, plan, 0, vals, bound)
}

/// Term positions of a scan that bind a fresh variable, as a bitmask.
/// `bound` is restored between candidates, so the set is identical for
/// every candidate of one scan — computed once, keeping the per-tuple loop
/// allocation-free.
fn scan_binds_mask(terms: &[CTerm], bound: &[bool]) -> u128 {
    assert!(
        terms.len() <= 128,
        "executor supports atoms of arity <= 128"
    );
    let mut binds_mask: u128 = 0;
    for (col, term) in terms.iter().enumerate() {
        if let CTerm::Var(v) = term {
            if !bound[*v] && !terms[..col].contains(term) {
                binds_mask |= 1 << col;
            }
        }
    }
    binds_mask
}

fn value(t: &CTerm, vals: &[Const]) -> Const {
    match t {
        CTerm::Const(c) => *c,
        CTerm::Var(v) => vals[*v],
    }
}

fn build_tuple(terms: &[CTerm], vals: &[Const]) -> Tuple {
    // Collects straight into a Tuple: arities ≤ 4 stay inline, so the
    // executor's innermost head/filter construction never allocates.
    terms.iter().map(|t| value(t, vals)).collect()
}

/// Enumerates every completion of the current binding through the plan's
/// remaining steps, inserting each head tuple into `out`.
fn step(
    env: &ExecEnv<'_>,
    plan: &Plan,
    idx: usize,
    vals: &mut Vec<Const>,
    bound: &mut Vec<bool>,
    out: &mut Relation,
) {
    if idx == plan.steps.len() {
        out.insert(build_tuple(&plan.head, vals));
        return;
    }
    match &plan.steps[idx] {
        Step::Scan {
            pred,
            source,
            terms,
            key_cols,
        } => {
            let binds_mask = scan_binds_mask(terms, bound);
            if key_cols.is_empty() {
                // Unkeyed scan: iterate the dense slice (full relation or
                // delta) in place.
                let tuples = env.scan_tuples(*pred, *source);
                for t in tuples {
                    scan_candidate(env, plan, idx, vals, bound, out, t, terms, binds_mask);
                }
            } else {
                // Keyed scan: probe the persistent index; the postings
                // are borrowed positions into the dense storage — no
                // tuple collection is cloned. Keyed scans are never delta
                // scans (the delta-first invariant).
                let rel = env.relation(*pred, *source);
                let key: Tuple = key_cols.iter().map(|&c| value(&terms[c], vals)).collect();
                if let Some(postings) = env.indexes.probe(rel.id(), key_cols, &key) {
                    for &ti in postings {
                        let t = &rel.dense()[ti as usize];
                        scan_candidate(env, plan, idx, vals, bound, out, t, terms, binds_mask);
                    }
                } else {
                    // No index registered (unprepared plan): filtered
                    // linear scan — correct, just slower.
                    for ti in 0..rel.dense().len() {
                        let t = &rel.dense()[ti];
                        if key_cols.iter().enumerate().any(|(r, &c)| t[c] != key[r]) {
                            continue;
                        }
                        scan_candidate(env, plan, idx, vals, bound, out, t, terms, binds_mask);
                    }
                }
            }
        }
        Step::Domain { var } => {
            let var = *var;
            bound[var] = true;
            for c in 0..env.ctx.universe_size as u32 {
                vals[var] = Const(c);
                step(env, plan, idx + 1, vals, bound, out);
            }
            bound[var] = false;
        }
        Step::FilterPos { pred, terms } => {
            let t = build_tuple(terms, vals);
            if env.relation(*pred, Source::Full).contains(&t) {
                step(env, plan, idx + 1, vals, bound, out);
            }
        }
        Step::FilterNeg { pred, terms } => {
            let t = build_tuple(terms, vals);
            if !env.neg_relation(*pred).contains(&t) {
                step(env, plan, idx + 1, vals, bound, out);
            }
        }
        Step::BindEq { var, from } => {
            let var = *var;
            vals[var] = value(from, vals);
            bound[var] = true;
            step(env, plan, idx + 1, vals, bound, out);
            bound[var] = false;
        }
        Step::FilterEq { a, b } => {
            if value(a, vals) == value(b, vals) {
                step(env, plan, idx + 1, vals, bound, out);
            }
        }
        Step::FilterNeq { a, b } => {
            if value(a, vals) != value(b, vals) {
                step(env, plan, idx + 1, vals, bound, out);
            }
        }
    }
}

/// Tries one scan candidate: unify `t` against `terms`, recurse into the
/// remaining steps on success, then restore the bindings this scan step
/// introduced (`binds_mask` marks the term positions that bind).
#[allow(clippy::too_many_arguments)]
fn scan_candidate(
    env: &ExecEnv<'_>,
    plan: &Plan,
    idx: usize,
    vals: &mut Vec<Const>,
    bound: &mut Vec<bool>,
    out: &mut Relation,
    t: &Tuple,
    terms: &[CTerm],
    binds_mask: u128,
) {
    let mut ok = true;
    for (col, term) in terms.iter().enumerate() {
        match term {
            CTerm::Const(c) => {
                if t[col] != *c {
                    ok = false;
                    break;
                }
            }
            CTerm::Var(v) => {
                if binds_mask & (1 << col) != 0 {
                    vals[*v] = t[col];
                    bound[*v] = true;
                } else if t[col] != vals[*v] {
                    ok = false;
                    break;
                }
            }
        }
    }
    if ok {
        step(env, plan, idx + 1, vals, bound, out);
    }
    let mut mask = binds_mask;
    while mask != 0 {
        let col = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        let CTerm::Var(v) = terms[col] else {
            unreachable!("binds_mask marks variable positions only")
        };
        bound[v] = false;
    }
}

/// Satisfiability probe: does any completion of the current binding
/// satisfy the plan's remaining steps? Same semantics as [`step`] minus
/// head construction, returning on the **first** witness — the one-step
/// derivability checks of the incremental well-founded engine run entire
/// rule bodies through this.
fn probe_steps(
    env: &ExecEnv<'_>,
    plan: &Plan,
    idx: usize,
    vals: &mut Vec<Const>,
    bound: &mut Vec<bool>,
) -> bool {
    if idx == plan.steps.len() {
        return true;
    }
    match &plan.steps[idx] {
        Step::Scan {
            pred,
            source,
            terms,
            key_cols,
        } => {
            let binds_mask = scan_binds_mask(terms, bound);
            let mut found = false;
            if key_cols.is_empty() {
                let tuples = env.scan_tuples(*pred, *source);
                for t in tuples {
                    if probe_candidate(env, plan, idx, vals, bound, t, terms, binds_mask) {
                        found = true;
                        break;
                    }
                }
            } else {
                let rel = env.relation(*pred, *source);
                let key: Tuple = key_cols.iter().map(|&c| value(&terms[c], vals)).collect();
                if let Some(postings) = env.indexes.probe(rel.id(), key_cols, &key) {
                    for &ti in postings {
                        let t = &rel.dense()[ti as usize];
                        if probe_candidate(env, plan, idx, vals, bound, t, terms, binds_mask) {
                            found = true;
                            break;
                        }
                    }
                } else {
                    for ti in 0..rel.dense().len() {
                        let t = &rel.dense()[ti];
                        if key_cols.iter().enumerate().any(|(r, &c)| t[c] != key[r]) {
                            continue;
                        }
                        if probe_candidate(env, plan, idx, vals, bound, t, terms, binds_mask) {
                            found = true;
                            break;
                        }
                    }
                }
            }
            // Bindings this scan introduced were already unwound by
            // `probe_candidate`.
            found
        }
        Step::Domain { var } => {
            let var = *var;
            bound[var] = true;
            let mut found = false;
            for c in 0..env.ctx.universe_size as u32 {
                vals[var] = Const(c);
                if probe_steps(env, plan, idx + 1, vals, bound) {
                    found = true;
                    break;
                }
            }
            bound[var] = false;
            found
        }
        Step::FilterPos { pred, terms } => {
            let t = build_tuple(terms, vals);
            env.relation(*pred, Source::Full).contains(&t)
                && probe_steps(env, plan, idx + 1, vals, bound)
        }
        Step::FilterNeg { pred, terms } => {
            let t = build_tuple(terms, vals);
            !env.neg_relation(*pred).contains(&t) && probe_steps(env, plan, idx + 1, vals, bound)
        }
        Step::BindEq { var, from } => {
            let var = *var;
            vals[var] = value(from, vals);
            bound[var] = true;
            let found = probe_steps(env, plan, idx + 1, vals, bound);
            bound[var] = false;
            found
        }
        Step::FilterEq { a, b } => {
            value(a, vals) == value(b, vals) && probe_steps(env, plan, idx + 1, vals, bound)
        }
        Step::FilterNeq { a, b } => {
            value(a, vals) != value(b, vals) && probe_steps(env, plan, idx + 1, vals, bound)
        }
    }
}

/// [`scan_candidate`] for probes: unify, recurse, unwind; reports whether a
/// witness was found downstream.
#[allow(clippy::too_many_arguments)]
fn probe_candidate(
    env: &ExecEnv<'_>,
    plan: &Plan,
    idx: usize,
    vals: &mut Vec<Const>,
    bound: &mut Vec<bool>,
    t: &Tuple,
    terms: &[CTerm],
    binds_mask: u128,
) -> bool {
    let mut ok = true;
    for (col, term) in terms.iter().enumerate() {
        match term {
            CTerm::Const(c) => {
                if t[col] != *c {
                    ok = false;
                    break;
                }
            }
            CTerm::Var(v) => {
                if binds_mask & (1 << col) != 0 {
                    vals[*v] = t[col];
                    bound[*v] = true;
                } else if t[col] != vals[*v] {
                    ok = false;
                    break;
                }
            }
        }
    }
    let found = ok && probe_steps(env, plan, idx + 1, vals, bound);
    let mut mask = binds_mask;
    while mask != 0 {
        let col = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        let CTerm::Var(v) = terms[col] else {
            unreachable!("binds_mask marks variable positions only")
        };
        bound[v] = false;
    }
    found
}
