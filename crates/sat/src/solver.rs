//! A CDCL SAT solver: two-watched literals, VSIDS-style variable activity,
//! first-UIP conflict learning, non-chronological backjumping, Luby
//! restarts, phase saving, and incremental solving under assumptions.
//!
//! The design follows MiniSat's architecture. Assumption solving is what the
//! FONP least-fixpoint algorithm (paper Theorem 3) uses: one "is tuple `t`
//! in every fixpoint?" query per tuple becomes one `solve_with_assumptions`
//! call on the shared completion encoding.

use crate::cnf::{Cnf, Lit, Var};

/// Three-valued assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LBool {
    True,
    False,
    Undef,
}

/// Result of a solve call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveResult {
    /// Satisfiable; the model assigns every allocated variable.
    Sat(Vec<bool>),
    /// Unsatisfiable (under the given assumptions, if any).
    Unsat,
}

impl SolveResult {
    /// Whether the result is SAT.
    pub fn is_sat(&self) -> bool {
        matches!(self, SolveResult::Sat(_))
    }

    /// The model, if SAT.
    pub fn model(&self) -> Option<&[bool]> {
        match self {
            SolveResult::Sat(m) => Some(m),
            SolveResult::Unsat => None,
        }
    }
}

/// Solver statistics (exposed for the experiment tables).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of conflicts analyzed.
    pub conflicts: u64,
    /// Number of literals propagated.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Number of solve calls.
    pub solves: u64,
}

const VAR_DECAY: f64 = 0.95;
const RESTART_BASE: u64 = 100;
const ACTIVITY_RESCALE: f64 = 1e100;

/// The CDCL solver. Clauses may be added between solve calls (incremental
/// use); learnt clauses are retained across calls.
#[derive(Debug, Clone)]
pub struct Solver {
    num_vars: usize,
    clauses: Vec<Vec<Lit>>,
    /// `watches[l.index()]`: clauses in which literal `l` is watched
    /// (visited when `l` becomes false).
    watches: Vec<Vec<usize>>,
    assign: Vec<LBool>,
    level: Vec<u32>,
    reason: Vec<Option<usize>>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    phase: Vec<bool>,
    ok: bool,
    /// Statistics.
    pub stats: Stats,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            num_vars: 0,
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            phase: Vec::new(),
            ok: true,
            stats: Stats::default(),
        }
    }

    /// Creates a solver loaded with a formula.
    pub fn from_cnf(cnf: &Cnf) -> Self {
        let mut s = Solver::new();
        s.reserve_vars(cnf.num_vars());
        for c in cnf.clauses() {
            s.add_clause(c);
        }
        s
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(u32::try_from(self.num_vars).expect("too many variables"));
        self.num_vars += 1;
        self.assign.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.phase.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        v
    }

    /// Ensures at least `n` variables exist.
    pub fn reserve_vars(&mut self, n: usize) {
        while self.num_vars < n {
            self.new_var();
        }
    }

    /// Number of allocated variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Whether the clause set is already known unsatisfiable at level 0.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    fn value(&self, l: Lit) -> LBool {
        match self.assign[l.var().index()] {
            LBool::Undef => LBool::Undef,
            LBool::True => {
                if l.is_positive() {
                    LBool::True
                } else {
                    LBool::False
                }
            }
            LBool::False => {
                if l.is_positive() {
                    LBool::False
                } else {
                    LBool::True
                }
            }
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause; returns `false` if the solver became trivially UNSAT.
    ///
    /// Must be called at decision level 0 (i.e. between solve calls).
    /// Tautologies and duplicate literals are simplified away; literals
    /// false at level 0 are removed.
    ///
    /// # Panics
    /// Panics if a literal references an unallocated variable, or if called
    /// mid-search.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert_eq!(self.decision_level(), 0, "add_clause mid-search");
        if !self.ok {
            return false;
        }
        let mut c: Vec<Lit> = Vec::with_capacity(lits.len());
        let mut sorted = lits.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for &l in &sorted {
            assert!(l.var().index() < self.num_vars, "unallocated variable");
            match self.value(l) {
                LBool::True => return true, // satisfied at level 0
                LBool::False => continue,   // drop falsified literal
                LBool::Undef => {
                    if c.contains(&!l) {
                        return true; // tautology
                    }
                    c.push(l);
                }
            }
        }
        match c.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(c[0], None);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(c);
                true
            }
        }
    }

    fn attach_clause(&mut self, c: Vec<Lit>) -> usize {
        debug_assert!(c.len() >= 2);
        let idx = self.clauses.len();
        self.watches[c[0].index()].push(idx);
        self.watches[c[1].index()].push(idx);
        self.clauses.push(c);
        idx
    }

    fn unchecked_enqueue(&mut self, l: Lit, reason: Option<usize>) {
        let v = l.var().index();
        debug_assert_eq!(self.assign[v], LBool::Undef);
        self.assign[v] = if l.is_positive() {
            LBool::True
        } else {
            LBool::False
        };
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns a conflicting clause index on conflict.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            // Take the watch list for the literal that just became false.
            let mut ws = std::mem::take(&mut self.watches[false_lit.index()]);
            let mut i = 0;
            while i < ws.len() {
                let cref = ws[i];
                // Make sure the false literal is at position 1.
                if self.clauses[cref][0] == false_lit {
                    self.clauses[cref].swap(0, 1);
                }
                debug_assert_eq!(self.clauses[cref][1], false_lit);
                let first = self.clauses[cref][0];
                if self.value(first) == LBool::True {
                    i += 1;
                    continue; // clause already satisfied; keep watch
                }
                // Look for a new literal to watch.
                let mut found = false;
                for k in 2..self.clauses[cref].len() {
                    if self.value(self.clauses[cref][k]) != LBool::False {
                        self.clauses[cref].swap(1, k);
                        let new_watch = self.clauses[cref][1];
                        self.watches[new_watch.index()].push(cref);
                        found = true;
                        break;
                    }
                }
                if found {
                    ws.swap_remove(i);
                    continue;
                }
                // Clause is unit or conflicting under the current assignment.
                if self.value(first) == LBool::False {
                    // Conflict: restore remaining watches and bail out.
                    self.watches[false_lit.index()].append(&mut ws);
                    self.qhead = self.trail.len();
                    return Some(cref);
                }
                self.unchecked_enqueue(first, Some(cref));
                i += 1;
            }
            self.watches[false_lit.index()].extend(ws);
        }
        None
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > ACTIVITY_RESCALE {
            for a in &mut self.activity {
                *a /= ACTIVITY_RESCALE;
            }
            self.var_inc /= ACTIVITY_RESCALE;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= VAR_DECAY;
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, mut confl: usize) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = Vec::new();
        let mut seen = vec![false; self.num_vars];
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut trail_idx = self.trail.len();

        loop {
            let start = usize::from(p.is_some()); // skip the asserting literal itself
            for k in start..self.clauses[confl].len() {
                let q = self.clauses[confl][k];
                let v = q.var().index();
                if !seen[v] && self.level[v] > 0 {
                    seen[v] = true;
                    self.bump_var(v);
                    if self.level[v] == self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next marked literal on the trail.
            loop {
                trail_idx -= 1;
                if seen[self.trail[trail_idx].var().index()] {
                    break;
                }
            }
            let lit = self.trail[trail_idx];
            let v = lit.var().index();
            seen[v] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(lit);
                break;
            }
            confl = self.reason[v].expect("non-decision literal must have a reason");
            p = Some(lit);
        }

        let asserting = !p.expect("conflict analysis found a UIP");
        let mut clause = Vec::with_capacity(learnt.len() + 1);
        clause.push(asserting);
        clause.extend(learnt);

        // Backjump level: highest level among the non-asserting literals.
        let bt = clause[1..]
            .iter()
            .map(|l| self.level[l.var().index()])
            .max()
            .unwrap_or(0);
        // Move a literal of the backjump level to position 1 (watch invariant).
        if clause.len() > 1 {
            let pos = clause[1..]
                .iter()
                .position(|l| self.level[l.var().index()] == bt)
                .expect("some literal has the max level")
                + 1;
            clause.swap(1, pos);
        }
        (clause, bt)
    }

    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let lim = self.trail_lim[level as usize];
        for i in (lim..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var().index();
            self.phase[v] = self.assign[v] == LBool::True;
            self.assign[v] = LBool::Undef;
            self.reason[v] = None;
        }
        self.trail.truncate(lim);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&self) -> Option<usize> {
        // Linear VSIDS scan: ample for the workloads in this reproduction.
        let mut best: Option<usize> = None;
        for v in 0..self.num_vars {
            if self.assign[v] == LBool::Undef
                && best.is_none_or(|b| self.activity[v] > self.activity[b])
            {
                best = Some(v);
            }
        }
        best
    }

    /// Solves the current clause set.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// Assumptions are placed as the first decisions; if they are jointly
    /// inconsistent with the clauses, returns [`SolveResult::Unsat`] without
    /// mutating the clause set (learnt clauses are kept; they are logical
    /// consequences regardless of assumptions).
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.stats.solves += 1;
        if !self.ok {
            return SolveResult::Unsat;
        }
        debug_assert_eq!(self.decision_level(), 0);
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }

        let mut conflicts_since_restart = 0u64;
        let mut restart_number = 0u32;
        let mut restart_limit = RESTART_BASE * luby(restart_number);

        let result = loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    break SolveResult::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                self.cancel_until(bt);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], None);
                } else {
                    let cref = self.attach_clause(learnt.clone());
                    self.unchecked_enqueue(learnt[0], Some(cref));
                }
                self.decay_activities();
            } else {
                if conflicts_since_restart >= restart_limit {
                    self.stats.restarts += 1;
                    restart_number += 1;
                    restart_limit = RESTART_BASE * luby(restart_number);
                    conflicts_since_restart = 0;
                    self.cancel_until(0);
                    continue;
                }
                // Place pending assumptions as decisions.
                let dl = self.decision_level() as usize;
                if dl < assumptions.len() {
                    let a = assumptions[dl];
                    match self.value(a) {
                        LBool::True => {
                            // Already satisfied: open an empty level so the
                            // remaining assumptions keep their positions.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => break SolveResult::Unsat,
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(a, None);
                        }
                    }
                    continue;
                }
                // Regular decision.
                match self.pick_branch_var() {
                    None => {
                        let model: Vec<bool> =
                            self.assign.iter().map(|&a| a == LBool::True).collect();
                        break SolveResult::Sat(model);
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let lit = Lit::new(Var(v as u32), self.phase[v]);
                        self.unchecked_enqueue(lit, None);
                    }
                }
            }
        };
        self.cancel_until(0);
        result
    }
}

/// The Luby restart sequence: 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
/// (0-based index).
fn luby(i: u32) -> u64 {
    let mut i = u64::from(i) + 1; // work 1-based
    loop {
        let mut k = 1u32;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
        if (1u64 << k) - 1 == i {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_ksat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn lit(v: &[Var], i: usize, pos: bool) -> Lit {
        Lit::new(v[i], pos)
    }

    #[test]
    fn luby_prefix() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn trivial_sat_and_unsat() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause(&[v.pos()]));
        assert!(s.solve().is_sat());
        assert!(!s.add_clause(&[v.neg()]));
        assert!(!s.solve().is_sat());
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        s.new_var();
        assert!(s.solve().is_sat());
    }

    #[test]
    fn simple_implication_chain() {
        // (a) ∧ (¬a ∨ b) ∧ (¬b ∨ c) forces a=b=c=true.
        let mut s = Solver::new();
        let vs: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
        s.add_clause(&[lit(&vs, 0, true)]);
        s.add_clause(&[lit(&vs, 0, false), lit(&vs, 1, true)]);
        s.add_clause(&[lit(&vs, 1, false), lit(&vs, 2, true)]);
        match s.solve() {
            SolveResult::Sat(m) => assert_eq!(&m[..3], &[true, true, true]),
            SolveResult::Unsat => panic!("should be SAT"),
        }
    }

    #[test]
    fn xor_chain_unsat() {
        // x1 ⊕ x2 = 1, x2 ⊕ x3 = 1, x1 ⊕ x3 = 1 is unsatisfiable.
        let mut s = Solver::new();
        let v: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
        let xor1 = |s: &mut Solver, a: Var, b: Var| {
            s.add_clause(&[a.pos(), b.pos()]);
            s.add_clause(&[a.neg(), b.neg()]);
        };
        xor1(&mut s, v[0], v[1]);
        xor1(&mut s, v[1], v[2]);
        xor1(&mut s, v[0], v[2]);
        assert!(!s.solve().is_sat());
    }

    #[test]
    fn model_satisfies_formula() {
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..30 {
            let cnf = random_ksat(12, 40, 3, &mut rng);
            let mut s = Solver::from_cnf(&cnf);
            if let SolveResult::Sat(m) = s.solve() {
                assert!(cnf.eval(&m), "trial {trial}: returned model is invalid");
            }
        }
    }

    #[test]
    fn agrees_with_brute_force() {
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..50 {
            let cnf = random_ksat(8, 34, 3, &mut rng);
            let brute = crate::brute::brute_force_sat(&cnf).is_some();
            let cdcl = Solver::from_cnf(&cnf).solve().is_sat();
            assert_eq!(cdcl, brute, "trial {trial} diverged");
        }
    }

    #[test]
    fn pigeonhole_unsat() {
        // PHP(4 pigeons, 3 holes): classic hard UNSAT instance.
        let cnf = crate::gen::pigeonhole(3);
        assert!(!Solver::from_cnf(&cnf).solve().is_sat());
    }

    #[test]
    fn assumptions_flip_results() {
        // (a ∨ b): SAT; under assumptions ¬a, ¬b: UNSAT; clauses unchanged.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.pos(), b.pos()]);
        assert!(s.solve().is_sat());
        assert!(!s.solve_with_assumptions(&[a.neg(), b.neg()]).is_sat());
        // Still SAT without assumptions afterwards.
        assert!(s.solve().is_sat());
        // Under a single assumption the other variable is forced.
        match s.solve_with_assumptions(&[a.neg()]) {
            SolveResult::Sat(m) => {
                assert!(!m[0]);
                assert!(m[1]);
            }
            SolveResult::Unsat => panic!("should be SAT"),
        }
    }

    #[test]
    fn assumptions_with_already_true_literal() {
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause(&[a.pos()]); // a forced at level 0
        let r = s.solve_with_assumptions(&[a.pos(), b.pos()]);
        match r {
            SolveResult::Sat(m) => assert!(m[0] && m[1]),
            SolveResult::Unsat => panic!("should be SAT"),
        }
    }

    #[test]
    fn incremental_add_after_solve() {
        let mut s = Solver::new();
        let v: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
        s.add_clause(&[v[0].pos(), v[1].pos()]);
        assert!(s.solve().is_sat());
        s.add_clause(&[v[2].pos(), v[3].pos()]);
        assert!(s.solve().is_sat());
        s.add_clause(&[v[0].neg()]);
        s.add_clause(&[v[1].neg()]);
        assert!(!s.solve().is_sat());
    }

    #[test]
    fn duplicate_and_tautological_clauses() {
        let mut s = Solver::new();
        let a = s.new_var();
        assert!(s.add_clause(&[a.pos(), a.pos()])); // dedup to unit
        assert!(s.add_clause(&[a.pos(), a.neg()])); // tautology: ignored
        match s.solve() {
            SolveResult::Sat(m) => assert!(m[0]),
            SolveResult::Unsat => panic!("should be SAT"),
        }
    }

    #[test]
    fn stats_accumulate() {
        let mut rng = StdRng::seed_from_u64(3);
        let cnf = random_ksat(15, 64, 3, &mut rng);
        let mut s = Solver::from_cnf(&cnf);
        let _ = s.solve();
        assert!(s.stats.solves == 1);
        assert!(s.stats.propagations > 0);
    }

    #[test]
    fn unsat_under_assumption_of_forced_opposite() {
        let mut s = Solver::new();
        let a = s.new_var();
        s.add_clause(&[a.pos()]);
        assert!(!s.solve_with_assumptions(&[a.neg()]).is_sat());
        assert!(s.is_ok(), "global state must remain consistent");
        assert!(s.solve().is_sat());
    }
}
