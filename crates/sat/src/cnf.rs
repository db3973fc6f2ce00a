//! Propositional CNF: variables, literals, clauses, formula builders and
//! Tseitin gate encodings.

use std::fmt;

/// A propositional variable, densely numbered from 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub u32);

impl Var {
    /// Index into per-variable arrays.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The positive literal of this variable.
    pub fn pos(self) -> Lit {
        Lit::new(self, true)
    }

    /// The negative literal of this variable.
    ///
    /// (Deliberately named like [`Var::pos`]; `Var` has no arithmetic
    /// negation, so no confusion with `std::ops::Neg` arises in practice.)
    #[allow(clippy::should_implement_trait)]
    pub fn neg(self) -> Lit {
        Lit::new(self, false)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable with a polarity, encoded as `2*var + (negated?1:0)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// Creates a literal with the given polarity (`true` = positive).
    pub fn new(var: Var, positive: bool) -> Self {
        Lit(var.0 * 2 + u32::from(!positive))
    }

    /// The underlying variable.
    pub fn var(self) -> Var {
        Var(self.0 / 2)
    }

    /// Whether the literal is positive.
    pub fn is_positive(self) -> bool {
        self.0.is_multiple_of(2)
    }

    /// Dense index (`2*var + sign`) into per-literal arrays (watch lists).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The complementary literal.
    #[must_use]
    pub fn negated(self) -> Lit {
        Lit(self.0 ^ 1)
    }

    /// Whether this literal is true under a total assignment.
    pub fn eval(self, assignment: &[bool]) -> bool {
        assignment[self.var().index()] == self.is_positive()
    }
}

impl std::ops::Not for Lit {
    type Output = Lit;
    fn not(self) -> Lit {
        self.negated()
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_positive() {
            write!(f, "{}", self.var())
        } else {
            write!(f, "-{}", self.var())
        }
    }
}

/// A clause: a disjunction of literals.
pub type Clause = Vec<Lit>;

/// A CNF formula under construction.
///
/// `Cnf` is the interchange type between the encoders (fixpoint completion,
/// reductions) and the solvers.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cnf {
    num_vars: usize,
    clauses: Vec<Clause>,
}

impl Cnf {
    /// An empty formula with no variables.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a formula with `n` pre-allocated variables.
    pub fn with_vars(n: usize) -> Self {
        Cnf {
            num_vars: n,
            clauses: Vec::new(),
        }
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(u32::try_from(self.num_vars).expect("too many variables"));
        self.num_vars += 1;
        v
    }

    /// Allocates `n` fresh variables.
    pub fn new_vars(&mut self, n: usize) -> Vec<Var> {
        (0..n).map(|_| self.new_var()).collect()
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// The clauses.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Adds a clause (a disjunction of literals).
    ///
    /// # Panics
    /// Panics if a literal references an unallocated variable.
    pub fn add_clause(&mut self, lits: impl Into<Clause>) {
        let c = lits.into();
        for l in &c {
            assert!(
                l.var().index() < self.num_vars,
                "literal {l} references unallocated variable"
            );
        }
        self.clauses.push(c);
    }

    /// Adds the unit clause `l`.
    pub fn add_unit(&mut self, l: Lit) {
        self.add_clause(vec![l]);
    }

    /// Adds clauses asserting `out ↔ (l_1 ∧ ... ∧ l_k)`.
    ///
    /// For `k = 0` the conjunction is true, so `out` is asserted.
    pub fn add_and_gate_n(&mut self, out: Lit, lits: &[Lit]) {
        for &l in lits {
            self.add_clause(vec![!out, l]);
        }
        let mut big: Clause = lits.iter().map(|&l| !l).collect();
        big.push(out);
        self.add_clause(big);
    }

    /// Adds clauses asserting `out ↔ (l_1 ∨ ... ∨ l_k)`.
    ///
    /// For `k = 0` the disjunction is false, so `¬out` is asserted.
    pub fn add_or_gate_n(&mut self, out: Lit, lits: &[Lit]) {
        for &l in lits {
            self.add_clause(vec![out, !l]);
        }
        let mut big: Clause = lits.to_vec();
        big.push(!out);
        self.add_clause(big);
    }

    /// Evaluates the formula under a total assignment.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.clauses
            .iter()
            .all(|c| c.iter().any(|l| l.eval(assignment)))
    }
}

impl fmt::Display for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cnf({} vars, {} clauses)",
            self.num_vars,
            self.clauses.len()
        )?;
        for c in &self.clauses {
            let parts: Vec<String> = c.iter().map(Lit::to_string).collect();
            writeln!(f, "  {}", parts.join(" | "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_encoding() {
        let v = Var(3);
        assert_eq!(v.pos().var(), v);
        assert!(v.pos().is_positive());
        assert!(!v.neg().is_positive());
        assert_eq!(!v.pos(), v.neg());
        assert_eq!(!(!v.pos()), v.pos());
        assert_eq!(v.pos().index(), 6);
        assert_eq!(v.neg().index(), 7);
    }

    #[test]
    fn literal_eval() {
        let a = Var(0);
        assert!(a.pos().eval(&[true]));
        assert!(!a.pos().eval(&[false]));
        assert!(a.neg().eval(&[false]));
    }

    #[test]
    fn build_and_eval() {
        let mut f = Cnf::new();
        let a = f.new_var();
        let b = f.new_var();
        f.add_clause(vec![a.pos(), b.pos()]);
        f.add_clause(vec![a.neg(), b.neg()]);
        assert!(f.eval(&[true, false]));
        assert!(f.eval(&[false, true]));
        assert!(!f.eval(&[true, true]));
        assert!(!f.eval(&[false, false]));
    }

    #[test]
    #[should_panic(expected = "unallocated")]
    fn unallocated_var_panics() {
        let mut f = Cnf::new();
        f.add_clause(vec![Var(0).pos()]);
    }

    #[test]
    fn nary_gates_empty_cases() {
        let mut f = Cnf::new();
        let o = f.new_var();
        f.add_and_gate_n(o.pos(), &[]); // out ↔ true
        assert!(f.eval(&[true]));
        assert!(!f.eval(&[false]));

        let mut g = Cnf::new();
        let o = g.new_var();
        g.add_or_gate_n(o.pos(), &[]); // out ↔ false
        assert!(g.eval(&[false]));
        assert!(!g.eval(&[true]));
    }

    #[test]
    fn nary_gates_three_inputs() {
        let mut f = Cnf::new();
        let o = f.new_var();
        let xs = f.new_vars(3);
        let lits: Vec<Lit> = xs.iter().map(|v| v.pos()).collect();
        f.add_and_gate_n(o.pos(), &lits);
        for bits in 0..16u32 {
            let asg: Vec<bool> = (0..4).map(|i| bits >> i & 1 == 1).collect();
            let expected = asg[0] == (asg[1] && asg[2] && asg[3]);
            assert_eq!(f.eval(&asg), expected, "{asg:?}");
        }
    }

    #[test]
    fn display_contains_stats() {
        let mut f = Cnf::new();
        let a = f.new_var();
        f.add_unit(a.pos());
        let s = f.to_string();
        assert!(s.contains("1 vars"));
        assert!(s.contains("1 clauses"));
    }
}
