//! Exhaustive enumeration: the *independent ground truths* the CDCL solver
//! and the model counter are tested against (property tests compare
//! verdicts and counts).

use crate::cnf::Cnf;

/// Exhaustively searches all `2^n` assignments; returns the first model.
///
/// Ground truth for tests; only usable for small `n`.
///
/// # Panics
/// Panics if the formula has more than 24 variables.
pub fn brute_force_sat(cnf: &Cnf) -> Option<Vec<bool>> {
    let n = cnf.num_vars();
    assert!(n <= 24, "brute force limited to 24 variables");
    for bits in 0u64..(1u64 << n) {
        let assignment: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
        if cnf.eval(&assignment) {
            return Some(assignment);
        }
    }
    None
}

/// Exhaustively counts models.
///
/// # Panics
/// Panics if the formula has more than 24 variables.
pub fn brute_force_count(cnf: &Cnf) -> u64 {
    let n = cnf.num_vars();
    assert!(n <= 24, "brute force limited to 24 variables");
    (0u64..(1u64 << n))
        .filter(|bits| {
            let assignment: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            cnf.eval(&assignment)
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn brute_force_count_known() {
        // (a ∨ b) has 3 models over 2 variables.
        let mut f = Cnf::new();
        let a = f.new_var();
        let b = f.new_var();
        f.add_clause(vec![a.pos(), b.pos()]);
        assert_eq!(brute_force_count(&f), 3);
        // Empty formula over n vars: 2^n models.
        let mut g = Cnf::new();
        g.new_vars(4);
        assert_eq!(brute_force_count(&g), 16);
    }
}
