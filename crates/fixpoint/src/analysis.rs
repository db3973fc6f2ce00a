//! The [`FixpointAnalyzer`]: existence, enumeration, uniqueness and least
//! fixpoints over one shared grounding + completion encoding.
//!
//! This is the experiment-facing API for the paper's §3:
//!
//! * **Existence** (Theorem 1 direction): one CDCL solve on the completion —
//!   the NP "guess and verify" made concrete;
//! * **Enumeration / counting / uniqueness** (Theorem 2): blocking-clause
//!   enumeration projected onto the tuple variables — the US-class
//!   machinery;
//! * **Least fixpoint** (Theorem 3): the paper observes a least fixpoint
//!   exists iff the coordinatewise intersection of all fixpoints is itself a
//!   fixpoint. [`least_fixpoint_fonp`](FixpointAnalyzer::least_fixpoint_fonp)
//!   computes the intersection with one NP-oracle query per tuple that
//!   every model seen so far makes true
//!   (`solve_with_assumptions([v_t = false])`: UNSAT ⟺ `t` is in every
//!   fixpoint) and then performs a single polynomial Θ check — precisely the
//!   "first-order formula with NP-oracle predicates" shape of the FONP upper
//!   bound. [`least_fixpoint_by_enumeration`](FixpointAnalyzer::least_fixpoint_by_enumeration)
//!   is the independent cross-check.

use crate::check::is_fixpoint_compiled;
use crate::encode::CompletionEncoding;
use crate::ground::GroundProgram;
use crate::Result;
use inflog_core::Database;
use inflog_eval::{CompiledProgram, EvalContext, Interp};
use inflog_sat::{count_models, enumerate_models, has_unique_model, SolveResult, Solver};
use inflog_syntax::Program;

/// Outcome of a least-fixpoint query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeastFixpointResult {
    /// `(π, D)` has no fixpoint at all.
    NoFixpoint,
    /// Fixpoints exist but no least one (e.g. the paper's G_n family).
    NoLeast,
    /// The least fixpoint.
    Least(Interp),
}

/// Statistics from the FONP least-fixpoint algorithm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FonpStats {
    /// NP-oracle (SAT) calls made: one existence check, plus one per tuple
    /// that every model seen so far makes true.
    pub oracle_calls: u64,
    /// Size of the intersection-of-all-fixpoints ("core").
    pub core_size: usize,
}

/// Fixpoint analysis over one program/database pair.
#[derive(Debug, Clone)]
pub struct FixpointAnalyzer {
    cp: CompiledProgram,
    ctx: EvalContext,
    /// The grounding (exposed for size measurements in E10).
    pub ground: GroundProgram,
    /// The completion encoding (exposed for SAT-size measurements).
    pub encoding: CompletionEncoding,
}

impl FixpointAnalyzer {
    /// Compiles, grounds and encodes `(program, db)`.
    ///
    /// # Errors
    /// Compilation errors.
    pub fn new(program: &Program, db: &Database) -> Result<Self> {
        let cp = CompiledProgram::compile(program, db)?;
        let ctx = EvalContext::new(&cp, db)?;
        let ground = GroundProgram::build_compiled(&cp, &ctx);
        let encoding = CompletionEncoding::build(&ground);
        Ok(FixpointAnalyzer {
            cp,
            ctx,
            ground,
            encoding,
        })
    }

    /// The compiled program (for id lookups and display).
    pub fn compiled(&self) -> &CompiledProgram {
        &self.cp
    }

    /// Checks `Θ(S) = S` relationally.
    pub fn is_fixpoint(&self, s: &Interp) -> bool {
        is_fixpoint_compiled(&self.cp, &self.ctx, s)
    }

    /// Finds some fixpoint, if one exists (Theorem 1's decision problem,
    /// answered by CDCL search). The returned interpretation is re-verified
    /// against the relational Θ before being returned.
    pub fn find_fixpoint(&self) -> Option<Interp> {
        let mut solver = Solver::from_cnf(&self.encoding.cnf);
        match solver.solve() {
            SolveResult::Unsat => None,
            SolveResult::Sat(model) => {
                let s = self.encoding.interp_from_model(&self.ground, &model);
                debug_assert!(self.is_fixpoint(&s), "encoding produced a non-fixpoint");
                Some(s)
            }
        }
    }

    /// Whether any fixpoint exists.
    pub fn fixpoint_exists(&self) -> bool {
        self.find_fixpoint().is_some()
    }

    /// Enumerates fixpoints (up to `limit`), via blocking clauses on the
    /// tuple variables. They are allocated first, in tuple-id order, so each
    /// projected model is exactly a tuple bit vector.
    pub fn enumerate_fixpoints(&self, limit: u64) -> Vec<Interp> {
        enumerate_models(&self.encoding.cnf, &self.encoding.tuple_vars, limit)
            .iter()
            .map(|bits| {
                let s = self.ground.bits_to_interp(bits);
                debug_assert!(self.is_fixpoint(&s), "encoding produced a non-fixpoint");
                s
            })
            .collect()
    }

    /// Counts fixpoints up to `limit`; `(count, complete?)`.
    pub fn count_fixpoints(&self, limit: u64) -> (u64, bool) {
        let r = count_models(&self.encoding.cnf, &self.encoding.tuple_vars, limit);
        (r.count, r.complete)
    }

    /// Whether exactly one fixpoint exists — the π-UNIQUE-FIXPOINT problem
    /// of Theorem 2.
    pub fn has_unique_fixpoint(&self) -> bool {
        has_unique_model(&self.encoding.cnf, &self.encoding.tuple_vars)
    }

    /// The FONP least-fixpoint algorithm of Theorem 3.
    ///
    /// 1. One oracle call decides whether any fixpoint exists; its model `M`
    ///    seeds the candidate set, since a tuple false in `M` is in no
    ///    intersection.
    /// 2. For each tuple `t` still a candidate, the oracle query "is the
    ///    completion plus `¬v_t` satisfiable?" decides whether some fixpoint
    ///    *excludes* `t`. UNSAT means `t` lies in the intersection of all
    ///    fixpoints; a SAT answer's model drops every candidate it makes
    ///    false, `t` among them (backbone filtering).
    /// 3. A least fixpoint exists iff that intersection is itself a fixpoint
    ///    (single polynomial Θ check), in which case it *is* the least one.
    pub fn least_fixpoint_fonp(&self) -> (LeastFixpointResult, FonpStats) {
        let mut stats = FonpStats::default();
        let mut solver = Solver::from_cnf(&self.encoding.cnf);
        let vars = &self.encoding.tuple_vars;

        stats.oracle_calls += 1;
        let SolveResult::Sat(first) = solver.solve() else {
            return (LeastFixpointResult::NoFixpoint, stats);
        };

        // Candidates: the tuples true in every model seen so far.
        let mut core_bits: Vec<bool> = vars.iter().map(|v| first[v.index()]).collect();
        for id in 0..self.ground.total_tuples {
            if !core_bits[id] {
                continue;
            }
            stats.oracle_calls += 1;
            let assumption = self.encoding.tuple_assumption(id, false);
            if let SolveResult::Sat(model) = solver.solve_with_assumptions(&[assumption]) {
                for (bit, v) in core_bits.iter_mut().zip(vars) {
                    *bit &= model[v.index()];
                }
            }
        }
        let core = self.ground.bits_to_interp(&core_bits);
        stats.core_size = core.total_tuples();

        if self.is_fixpoint(&core) {
            (LeastFixpointResult::Least(core), stats)
        } else {
            (LeastFixpointResult::NoLeast, stats)
        }
    }

    /// Least fixpoint by full enumeration + intersection (cross-check for
    /// the FONP path). Returns `None` when enumeration exceeds `limit`.
    pub fn least_fixpoint_by_enumeration(&self, limit: u64) -> Option<LeastFixpointResult> {
        let fps = self.enumerate_fixpoints(limit);
        if fps.len() as u64 >= limit {
            return None;
        }
        if fps.is_empty() {
            return Some(LeastFixpointResult::NoFixpoint);
        }
        let mut inter = fps[0].clone();
        for f in &fps[1..] {
            inter = inter.intersection(f);
        }
        if fps.contains(&inter) {
            Some(LeastFixpointResult::Least(inter))
        } else {
            Some(LeastFixpointResult::NoLeast)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::enumerate_fixpoints_brute;
    use inflog_core::graphs::DiGraph;
    use inflog_syntax::parse_program;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const PI1: &str = "T(x) :- E(y, x), !T(y).";

    fn analyzer(src: &str, db: &Database) -> FixpointAnalyzer {
        FixpointAnalyzer::new(&parse_program(src).unwrap(), db).unwrap()
    }

    #[test]
    fn existence_on_paper_families() {
        let p = PI1;
        assert!(analyzer(p, &DiGraph::path(5).to_database("E")).fixpoint_exists());
        assert!(!analyzer(p, &DiGraph::cycle(5).to_database("E")).fixpoint_exists());
        assert!(analyzer(p, &DiGraph::cycle(6).to_database("E")).fixpoint_exists());
        assert!(analyzer(p, &DiGraph::disjoint_cycles(3, 2).to_database("E")).fixpoint_exists());
    }

    #[test]
    fn counting_matches_brute_force() {
        let cases = [
            (PI1, DiGraph::path(4)),
            (PI1, DiGraph::cycle(4)),
            (PI1, DiGraph::cycle(5)),
            (PI1, DiGraph::disjoint_cycles(2, 2)),
            (
                "S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).",
                DiGraph::path(3),
            ),
            (
                "A(x) :- E(x, y), !B(y). B(x) :- E(y, x), !A(x).",
                DiGraph::cycle(3),
            ),
        ];
        for (src, g) in cases {
            let db = g.to_database("E");
            let program = parse_program(src).unwrap();
            let brute = enumerate_fixpoints_brute(&program, &db, 20).unwrap();
            let a = analyzer(src, &db);
            let (count, complete) = a.count_fixpoints(1 << 16);
            assert!(complete);
            assert_eq!(count as usize, brute.len(), "src={src} g={g}");
        }
    }

    #[test]
    fn gn_has_exponentially_many_fixpoints() {
        // The paper's G_n: 2^n fixpoints.
        for copies in 1..=4usize {
            let db = DiGraph::disjoint_cycles(copies, 2).to_database("E");
            let a = analyzer(PI1, &db);
            let (count, complete) = a.count_fixpoints(1 << 10);
            assert!(complete);
            assert_eq!(count, 1 << copies, "G_{copies}");
        }
    }

    #[test]
    fn uniqueness_detection() {
        assert!(analyzer(PI1, &DiGraph::path(6).to_database("E")).has_unique_fixpoint());
        assert!(!analyzer(PI1, &DiGraph::cycle(4).to_database("E")).has_unique_fixpoint());
        assert!(!analyzer(PI1, &DiGraph::cycle(3).to_database("E")).has_unique_fixpoint());
    }

    #[test]
    fn least_fixpoint_on_paths() {
        // Unique fixpoint ⇒ least fixpoint.
        let a = analyzer(PI1, &DiGraph::path(5).to_database("E"));
        let (r, stats) = a.least_fixpoint_fonp();
        match r {
            LeastFixpointResult::Least(s) => assert_eq!(s.total_tuples(), 2),
            other => panic!("expected least fixpoint, got {other:?}"),
        }
        // Oracle calls: 1 existence + one per core tuple (the first model
        // is the unique fixpoint, so no other tuple is ever a candidate).
        assert_eq!(stats.oracle_calls, 3);
    }

    #[test]
    fn no_least_on_even_cycles_and_gn() {
        for db in [
            DiGraph::cycle(4).to_database("E"),
            DiGraph::disjoint_cycles(2, 2).to_database("E"),
        ] {
            let a = analyzer(PI1, &db);
            let (r, stats) = a.least_fixpoint_fonp();
            assert_eq!(r, LeastFixpointResult::NoLeast);
            assert_eq!(stats.core_size, 0, "alternating fixpoints intersect to ∅");
        }
    }

    #[test]
    fn no_fixpoint_on_odd_cycles() {
        let a = analyzer(PI1, &DiGraph::cycle(3).to_database("E"));
        let (r, stats) = a.least_fixpoint_fonp();
        assert_eq!(r, LeastFixpointResult::NoFixpoint);
        assert_eq!(stats.oracle_calls, 1, "existence check only");
    }

    #[test]
    fn fonp_agrees_with_enumeration() {
        let cases = [
            (PI1, DiGraph::path(4)),
            (PI1, DiGraph::cycle(3)),
            (PI1, DiGraph::cycle(4)),
            (PI1, DiGraph::disjoint_cycles(2, 2)),
            (
                "S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).",
                DiGraph::path(3),
            ),
        ];
        for (src, g) in cases {
            let db = g.to_database("E");
            let a = analyzer(src, &db);
            let (fonp, _) = a.least_fixpoint_fonp();
            let enumerated = a.least_fixpoint_by_enumeration(1 << 16).unwrap();
            assert_eq!(fonp, enumerated, "src={src} g={g}");
        }
    }

    #[test]
    fn positive_programs_least_is_standard_semantics() {
        let src = "S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).";
        let mut rng = StdRng::seed_from_u64(14);
        for _ in 0..5 {
            let g = DiGraph::random_gnp(4, 0.4, &mut rng);
            let db = g.to_database("E");
            let a = analyzer(src, &db);
            let (r, _) = a.least_fixpoint_fonp();
            let (lfp, _) =
                inflog_eval::least_fixpoint_naive(&parse_program(src).unwrap(), &db).unwrap();
            assert_eq!(r, LeastFixpointResult::Least(lfp), "g={g}");
        }
    }

    #[test]
    fn enumerated_fixpoints_verify_and_are_distinct() {
        let a = analyzer(PI1, &DiGraph::disjoint_cycles(3, 2).to_database("E"));
        let fps = a.enumerate_fixpoints(1 << 10);
        assert_eq!(fps.len(), 8);
        for (i, f) in fps.iter().enumerate() {
            assert!(a.is_fixpoint(f), "fixpoint {i}");
            for g in &fps[..i] {
                assert_ne!(f, g, "duplicates");
            }
        }
    }
}
