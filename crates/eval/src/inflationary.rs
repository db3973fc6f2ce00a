//! Inflationary DATALOG — the paper's §4 proposal.
//!
//! For any DATALOG¬ program π with operator Θ, define
//!
//! ```text
//! Θ¹ = Θ(∅),   Θ^{n+1} = Θ^n ∪ Θ(Θ^n),   Θ^∞ = ⋃_n Θ^n.
//! ```
//!
//! The sequence is increasing, so it stabilizes after at most `Σ_i |A|^{k_i}`
//! rounds and `Θ^∞` is computable in polynomial time in the database size —
//! the paper's headline argument for inflationary semantics. `Θ^∞` is the
//! *inductive fixpoint* of the inflationary operator `Θ̃(S) = S ∪ Θ(S)`
//! (Gurevich–Shelah); on negation-free programs it coincides with the least
//! fixpoint, and on general programs it need not be a fixpoint of Θ at all.
//!
//! Two implementations:
//! * [`inflationary_naive`] — literal transcription of the definition;
//! * [`inflationary`] — semi-naive delta evaluation via the shared
//!   [`DeltaDriver`]. Sound because a ground body instance false at
//!   `Θ^{n-1}` and true at `Θ^n` must have gained a positive IDB tuple:
//!   under a growing interpretation, negated literals only flip true→false.
//!   Rules without positive IDB atoms therefore fire only in round one. The
//!   driver's `debug_assertions` cross-check recomputes each round with the
//!   naive step.

use crate::driver::DeltaDriver;
use crate::govern::Governor;
use crate::interp::Interp;
use crate::materialize::Engine;
use crate::operator::{apply, EvalContext};
use crate::options::EvalOptions;
use crate::resolve::CompiledProgram;
use crate::trace::EvalTrace;
use crate::Result;
use inflog_core::Database;
use inflog_syntax::Program;

/// Computes `Θ^∞` by the definition: `S ← S ∪ Θ(S)` until stable.
///
/// A reference engine: it takes no options and runs ungoverned, so an
/// oracle recompute never trips a budget or an armed failpoint.
///
/// # Errors
/// Compilation errors — inflationary semantics itself is total.
pub fn inflationary_naive(program: &Program, db: &Database) -> Result<(Interp, EvalTrace)> {
    let (cp, ctx) = Engine::Inflationary.prepare(program, db)?;
    Ok(naive_loop(&cp, &ctx))
}

/// Naive, ungoverned inflationary iteration over a compiled program: one
/// full application of Θ per round. The naive reference engines run it.
pub(crate) fn naive_loop(cp: &CompiledProgram, ctx: &EvalContext) -> (Interp, EvalTrace) {
    let mut trace = EvalTrace::default();
    let mut s = cp.empty_interp();
    loop {
        let theta = apply(cp, ctx, &s);
        // Θ̃(S) = S ∪ Θ(S), computed in place: relation identities stay
        // stable, so the context's persistent indexes extend incrementally.
        let added = s.union_with(&theta);
        if added == 0 {
            break;
        }
        trace.record_round(added);
    }
    trace.final_tuples = s.total_tuples();
    (s, trace)
}

/// Computes `Θ^∞` semi-naively (the default engine), with
/// [`EvalOptions::default`]. [`Engine::Inflationary`]'s
/// [`evaluate`](Engine::evaluate) is the same evaluation under explicit
/// options.
///
/// # Errors
/// Compilation errors, or a fault injected by a failpoint armed through
/// `INFLOG_FAILPOINT`.
pub fn inflationary(program: &Program, db: &Database) -> Result<(Interp, EvalTrace)> {
    let (cp, ctx) = Engine::Inflationary.prepare(program, db)?;
    inflationary_compiled_with(&cp, &ctx, &EvalOptions::default())
}

/// Semi-naive inflationary iteration over a compiled program.
///
/// Instantiates the shared [`DeltaDriver`]: the driver's full first round
/// is the only round in which rules without positive IDB atoms can add
/// anything — negations against the *current* state can re-enable nothing
/// (they only decay) — and its delta rounds are exactly §4's increasing
/// iteration. The governed form checks budget, cancellation and failpoints
/// at every round boundary and every few thousand emitted tuples.
///
/// # Errors
/// [`EvalError::Cancelled`](crate::EvalError::Cancelled),
/// [`EvalError::BudgetExceeded`](crate::EvalError::BudgetExceeded), or
/// [`EvalError::FaultInjected`](crate::EvalError::FaultInjected) by an
/// armed failpoint.
pub(crate) fn inflationary_compiled_with(
    cp: &CompiledProgram,
    ctx: &EvalContext,
    opts: &EvalOptions,
) -> Result<(Interp, EvalTrace)> {
    let governor = Governor::new(opts);
    let mut trace = EvalTrace::default();
    let mut s = cp.empty_interp();
    DeltaDriver::new(cp).extend(cp, ctx, &mut s, None, None, Some(&mut trace), &governor)?;
    trace.final_tuples = s.total_tuples();
    Ok((s, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::least_fixpoint_naive;
    use inflog_core::graphs::DiGraph;
    use inflog_core::Tuple;
    use inflog_syntax::parse_program;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const PI1: &str = "T(x) :- E(y, x), !T(y).";
    const TC: &str = "S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).";

    #[test]
    fn toggle_program_stabilizes_at_full() {
        // Paper §4: for T(x) <- !T(y), Θ^∞ = Θ¹ = A.
        let mut db = inflog_core::Database::new();
        db.universe_mut().intern("a");
        db.universe_mut().intern("b");
        db.universe_mut().intern("c");
        let p = parse_program("T(x) :- !T(y).").unwrap();
        let (inf, trace) = inflationary(&p, &db).unwrap();
        assert_eq!(inf.total_tuples(), 3);
        assert_eq!(trace.rounds, 1);
    }

    #[test]
    fn pi1_inflationary_is_nodes_with_incoming_edge() {
        // Paper §4: for pi_1, Θ^∞ = Θ¹ = {x : ∃y E(y,x)}.
        for g in [DiGraph::path(5), DiGraph::cycle(4), DiGraph::star(5)] {
            let db = g.to_database("E");
            let p = parse_program(PI1).unwrap();
            let (inf, trace) = inflationary(&p, &db).unwrap();
            let expected: usize = (0..g.num_vertices() as u32)
                .filter(|&v| g.predecessors(v).next().is_some())
                .count();
            assert_eq!(inf.total_tuples(), expected);
            assert!(trace.rounds <= 1);
        }
    }

    #[test]
    fn coincides_with_least_fixpoint_on_positive_programs() {
        // §4: "for DATALOG programs the relation Θ^∞ is the least fixpoint".
        let p = parse_program(TC).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..8 {
            let g = DiGraph::random_gnp(7, 0.3, &mut rng);
            let db = g.to_database("E");
            let (lfp, _) = least_fixpoint_naive(&p, &db).unwrap();
            let (inf, _) = inflationary(&p, &db).unwrap();
            assert_eq!(lfp, inf);
        }
    }

    #[test]
    fn naive_and_seminaive_inflationary_agree_with_negation() {
        let progs = [
            PI1,
            "T(z) :- !T(w).",
            "P(x) :- E(x, y), !Q(y). Q(x) :- E(y, x), !P(x).",
            "A(x) :- E(x, y). B(x) :- A(x), !C(x). C(x) :- B(x), !A(x).",
        ];
        let mut rng = StdRng::seed_from_u64(5);
        for src in progs {
            let p = parse_program(src).unwrap();
            for _ in 0..5 {
                let g = DiGraph::random_gnp(5, 0.4, &mut rng);
                let db = g.to_database("E");
                let (a, ta) = inflationary_naive(&p, &db).unwrap();
                let (b, tb) = inflationary(&p, &db).unwrap();
                assert_eq!(a, b, "program: {src}");
                assert_eq!(ta.rounds, tb.rounds, "program: {src}");
                assert_eq!(ta.added_per_round, tb.added_per_round);
            }
        }
    }

    #[test]
    fn iteration_bound_respected() {
        // Θ^∞ stabilizes within Σ_i |A|^{k_i} rounds (§4).
        let p = parse_program(TC).unwrap();
        let db = DiGraph::path(6).to_database("E");
        let (_, trace) = inflationary(&p, &db).unwrap();
        assert!(trace.rounds <= 36, "rounds = {}", trace.rounds);
    }

    #[test]
    fn result_need_not_be_a_fixpoint() {
        // On an odd cycle pi_1 has no fixpoint; Θ^∞ still exists and is not
        // a fixpoint of Θ (§4's point that Θ^∞ may fail to be a fixpoint).
        let db = DiGraph::cycle(3).to_database("E");
        let p = parse_program(PI1).unwrap();
        let cp = CompiledProgram::compile(&p, &db).unwrap();
        let ctx = EvalContext::new(&cp, &db).unwrap();
        let (inf, _) = inflationary(&p, &db).unwrap();
        assert_ne!(apply(&cp, &ctx, &inf), inf);
        // Everything has an incoming edge on a cycle: Θ^∞ = A.
        assert_eq!(inf.total_tuples(), 3);
    }

    #[test]
    fn distance_style_program_multiround() {
        // The delta machinery across negation: quadruple derivations join a
        // positive delta with a negative literal. Regression-guard the exact
        // result on L_3 (v0 -> v1 -> v2).
        let src = "
            S1(x, y) :- E(x, y).
            S1(x, y) :- E(x, z), S1(z, y).
            S3(x, y) :- E(x, y), !S1(x, y).
        ";
        let p = parse_program(src).unwrap();
        let db = DiGraph::path(3).to_database("E");
        let (inf, _) = inflationary(&p, &db).unwrap();
        let cp = CompiledProgram::compile(&p, &db).unwrap();
        let s3 = cp.idb_id("S3").unwrap();
        // Round 1: S1 gets E; S3 gets E (S1 was empty). Afterwards no new
        // S3 tuples: E ⊆ S1 from round 2 on.
        assert_eq!(
            inf.get(s3).sorted(),
            vec![Tuple::from_ids(&[0, 1]), Tuple::from_ids(&[1, 2])]
        );
    }

    #[test]
    fn empty_program_and_empty_db() {
        let p = parse_program("").unwrap();
        let db = inflog_core::Database::new();
        let (inf, trace) = inflationary(&p, &db).unwrap();
        assert!(inf.is_empty());
        assert_eq!(trace.rounds, 0);
    }
}
