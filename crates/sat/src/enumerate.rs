//! Model enumeration and counting with blocking clauses.
//!
//! This is the executable content of the paper's US-class analysis
//! (Theorem 2): "unique solution" questions are answered by finding a model,
//! blocking its projection, and asking for another. Projection matters: the
//! fixpoint completion encoding has Tseitin auxiliaries whose values are
//! functionally determined, so fixpoints are counted over the tuple
//! variables only.

use crate::cnf::{Cnf, Lit, Var};
use crate::solver::{SolveResult, Solver};

/// Result of a (possibly truncated) model count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountResult {
    /// Number of distinct projected models found.
    pub count: u64,
    /// Whether enumeration ran to exhaustion (`false` = hit the limit).
    pub complete: bool,
}

/// Enumerates models projected onto `projection`, up to `limit` models.
///
/// Returns each projected model as the vector of Boolean values of the
/// projection variables, in the order given. Models that agree on the
/// projection are counted once.
pub fn enumerate_models(cnf: &Cnf, projection: &[Var], limit: u64) -> Vec<Vec<bool>> {
    let mut solver = Solver::from_cnf(cnf);
    let mut found = Vec::new();
    while (found.len() as u64) < limit {
        match solver.solve() {
            SolveResult::Unsat => break,
            SolveResult::Sat(model) => {
                let projected: Vec<bool> = projection.iter().map(|v| model[v.index()]).collect();
                // Block this projection.
                let blocking: Vec<Lit> = projection
                    .iter()
                    .zip(&projected)
                    .map(|(&v, &val)| if val { v.neg() } else { v.pos() })
                    .collect();
                found.push(projected);
                if blocking.is_empty() {
                    break; // empty projection: one "model" at most
                }
                if !solver.add_clause(&blocking) {
                    break;
                }
            }
        }
    }
    found
}

/// Counts models projected onto `projection`, stopping after `limit`.
pub fn count_models(cnf: &Cnf, projection: &[Var], limit: u64) -> CountResult {
    let mut solver = Solver::from_cnf(cnf);
    let mut count = 0u64;
    loop {
        if count >= limit {
            return CountResult {
                count,
                complete: false,
            };
        }
        match solver.solve() {
            SolveResult::Unsat => {
                return CountResult {
                    count,
                    complete: true,
                }
            }
            SolveResult::Sat(model) => {
                count += 1;
                let blocking: Vec<Lit> = projection
                    .iter()
                    .map(|&v| if model[v.index()] { v.neg() } else { v.pos() })
                    .collect();
                if blocking.is_empty() || !solver.add_clause(&blocking) {
                    return CountResult {
                        count,
                        complete: true,
                    };
                }
            }
        }
    }
}

/// Decides whether the formula has exactly one model on the projection —
/// the US-class predicate of Theorem 2.
pub fn has_unique_model(cnf: &Cnf, projection: &[Var]) -> bool {
    let r = count_models(cnf, projection, 2);
    r.count == 1 && r.complete
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_count;
    use crate::gen::random_ksat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn all_vars(cnf: &Cnf) -> Vec<Var> {
        (0..cnf.num_vars() as u32).map(Var).collect()
    }

    #[test]
    fn count_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(21);
        for trial in 0..25 {
            let cnf = random_ksat(7, 22, 3, &mut rng);
            let expected = brute_force_count(&cnf);
            let got = count_models(&cnf, &all_vars(&cnf), 1 << 12);
            assert!(got.complete);
            assert_eq!(got.count, expected, "trial {trial}");
        }
    }

    #[test]
    fn enumerate_returns_distinct_valid_models() {
        let mut rng = StdRng::seed_from_u64(8);
        let cnf = random_ksat(6, 15, 3, &mut rng);
        let models = enumerate_models(&cnf, &all_vars(&cnf), 1 << 10);
        let set: std::collections::HashSet<_> = models.iter().cloned().collect();
        assert_eq!(set.len(), models.len(), "duplicates returned");
        for m in &models {
            assert!(cnf.eval(m));
        }
        assert_eq!(models.len() as u64, brute_force_count(&cnf));
    }

    #[test]
    fn projection_collapses_models() {
        // f = (a ∨ b): 3 total models, but projected onto {a} only 2
        // distinct values.
        let mut f = Cnf::new();
        let a = f.new_var();
        let b = f.new_var();
        f.add_clause(vec![a.pos(), b.pos()]);
        let onto_a = enumerate_models(&f, &[a], 100);
        assert_eq!(onto_a.len(), 2);
        let all = enumerate_models(&f, &[a, b], 100);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn unique_model_detection() {
        // a ∧ b: unique model.
        let mut f = Cnf::new();
        let a = f.new_var();
        let b = f.new_var();
        f.add_unit(a.pos());
        f.add_unit(b.pos());
        assert!(has_unique_model(&f, &[a, b]));
        // a ∨ b: three models.
        let mut g = Cnf::new();
        let a = g.new_var();
        let b = g.new_var();
        g.add_clause(vec![a.pos(), b.pos()]);
        assert!(!has_unique_model(&g, &[a, b]));
        // UNSAT: zero models.
        let mut h = Cnf::new();
        let a = h.new_var();
        h.add_unit(a.pos());
        h.add_unit(a.neg());
        assert!(!has_unique_model(&h, &[a]));
    }

    #[test]
    fn limit_truncates() {
        let mut f = Cnf::new();
        let vs = f.new_vars(4); // free: 16 models
        let r = count_models(&f, &vs, 5);
        assert_eq!(r.count, 5);
        assert!(!r.complete);
    }

    #[test]
    fn empty_projection() {
        let mut f = Cnf::new();
        f.new_vars(3);
        let models = enumerate_models(&f, &[], 10);
        assert_eq!(models.len(), 1); // one (empty) projected model
    }
}
