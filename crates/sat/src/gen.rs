//! SAT instance generators for the experiments.

use crate::cnf::{Cnf, Lit, Var};
use rand::seq::SliceRandom;
use rand::Rng;

/// Uniform random k-SAT: `num_clauses` clauses of `k` distinct variables
/// with random polarities.
///
/// At ratio `m/n ≈ 4.27` (for k = 3) instances sit near the satisfiability
/// phase transition — the interesting regime for experiment E2's
/// SAT-as-fixpoints tables.
///
/// # Panics
/// Panics if `k > num_vars`.
pub fn random_ksat(num_vars: usize, num_clauses: usize, k: usize, rng: &mut impl Rng) -> Cnf {
    assert!(k <= num_vars, "clause width exceeds variable count");
    let mut cnf = Cnf::with_vars(num_vars);
    let vars: Vec<u32> = (0..num_vars as u32).collect();
    for _ in 0..num_clauses {
        let chosen: Vec<u32> = vars.choose_multiple(rng, k).copied().collect();
        let clause: Vec<Lit> = chosen
            .into_iter()
            .map(|v| Lit::new(Var(v), rng.gen_bool(0.5)))
            .collect();
        cnf.add_clause(clause);
    }
    cnf
}

/// The pigeonhole principle PHP(n+1, n): `n + 1` pigeons into `n` holes.
/// Unsatisfiable, and exponentially hard for resolution — a classic
/// stress test.
///
/// Variable `p*n + h` means "pigeon p sits in hole h".
pub fn pigeonhole(holes: usize) -> Cnf {
    let pigeons = holes + 1;
    let mut cnf = Cnf::with_vars(pigeons * holes);
    let var = |p: usize, h: usize| Var((p * holes + h) as u32);
    // Every pigeon sits somewhere.
    for p in 0..pigeons {
        let clause: Vec<Lit> = (0..holes).map(|h| var(p, h).pos()).collect();
        cnf.add_clause(clause);
    }
    // No two pigeons share a hole.
    for h in 0..holes {
        for p1 in 0..pigeons {
            for p2 in (p1 + 1)..pigeons {
                cnf.add_clause(vec![var(p1, h).neg(), var(p2, h).neg()]);
            }
        }
    }
    cnf
}

/// A satisfiable "hidden assignment" instance: random clauses filtered to
/// keep a planted assignment true. Useful when E2/E3 need guaranteed-SAT
/// inputs.
pub fn planted_ksat(
    num_vars: usize,
    num_clauses: usize,
    k: usize,
    rng: &mut impl Rng,
) -> (Cnf, Vec<bool>) {
    assert!(k <= num_vars);
    let planted: Vec<bool> = (0..num_vars).map(|_| rng.gen_bool(0.5)).collect();
    let mut cnf = Cnf::with_vars(num_vars);
    let vars: Vec<u32> = (0..num_vars as u32).collect();
    let mut added = 0;
    while added < num_clauses {
        let chosen: Vec<u32> = vars.choose_multiple(rng, k).copied().collect();
        let clause: Vec<Lit> = chosen
            .into_iter()
            .map(|v| Lit::new(Var(v), rng.gen_bool(0.5)))
            .collect();
        if clause.iter().any(|l| l.eval(&planted)) {
            cnf.add_clause(clause);
            added += 1;
        }
    }
    (cnf, planted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::Solver;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_ksat_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let cnf = random_ksat(10, 30, 3, &mut rng);
        assert_eq!(cnf.num_vars(), 10);
        assert_eq!(cnf.num_clauses(), 30);
        for c in cnf.clauses() {
            assert_eq!(c.len(), 3);
            // Distinct variables within a clause.
            let mut vars: Vec<_> = c.iter().map(|l| l.var()).collect();
            vars.sort();
            vars.dedup();
            assert_eq!(vars.len(), 3);
        }
    }

    #[test]
    fn seeded_determinism() {
        let a = random_ksat(8, 20, 3, &mut StdRng::seed_from_u64(7));
        let b = random_ksat(8, 20, 3, &mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
    }

    #[test]
    fn pigeonhole_shape_and_unsat() {
        let cnf = pigeonhole(2); // 3 pigeons, 2 holes
        assert_eq!(cnf.num_vars(), 6);
        assert!(!Solver::from_cnf(&cnf).solve().is_sat());
        assert!(crate::brute::brute_force_sat(&cnf).is_none());
    }

    #[test]
    fn planted_instances_are_sat() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..5 {
            let (cnf, planted) = planted_ksat(10, 42, 3, &mut rng);
            assert!(cnf.eval(&planted), "planted assignment must satisfy");
            assert!(Solver::from_cnf(&cnf).solve().is_sat());
        }
    }

    #[test]
    #[should_panic(expected = "clause width")]
    fn width_over_vars_panics() {
        let mut rng = StdRng::seed_from_u64(1);
        let _ = random_ksat(2, 5, 3, &mut rng);
    }
}
