//! Existential second-order formulas and the paper's Skolem normal form.
//!
//! By Fagin's theorem, a collection of finite databases is in NP iff it is
//! definable by an ∃SO sentence `∃S̄ φ(S̄)`. The proof of Theorem 1 starts by
//! bringing any such sentence to **Skolem normal form**
//!
//! ```text
//! ∃S̄ (∀x̄)(∃ȳ)(θ₁(x̄,ȳ) ∨ ... ∨ θ_k(x̄,ȳ))
//! ```
//!
//! where the θᵢ are conjunctions of literals. The ∀∃-alternation is
//! eliminated without function symbols by encoding Skolem functions as their
//! graphs — fresh witness *relations*:
//!
//! ```text
//! (∀ū)(∃v̄)χ(ū,v̄)  ⟺  (∃X)[(∀ū∀v̄)(X(ū,v̄) → χ(ū,v̄)) ∧ (∀ū)(∃v̄)X(ū,v̄)]
//! ```
//!
//! applied repeatedly (universe assumed nonempty), followed by prenexing and
//! a DNF pass on the matrix. [`SkolemNf::of`] implements exactly this;
//! property tests check truth-preservation against brute-force evaluation.

use crate::fo::{eval_sentence, ExtraRelations, Fo};
use crate::transform::{dnf, nnf, prenex, requantify, NfLit, Quant};
use inflog_core::{Database, Relation};
use inflog_syntax::Term;

/// An existential second-order sentence `∃S₁...∃S_m φ`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eso {
    /// Second-order variables with arities.
    pub so_vars: Vec<(String, usize)>,
    /// First-order part (a sentence over the vocabulary ∪ `so_vars`).
    pub matrix: Fo,
}

impl Eso {
    /// Creates an ∃SO sentence.
    pub fn new(so_vars: Vec<(&str, usize)>, matrix: Fo) -> Self {
        Eso {
            so_vars: so_vars
                .into_iter()
                .map(|(n, k)| (n.to_owned(), k))
                .collect(),
            matrix,
        }
    }

    /// Brute-force evaluation: tries every assignment of relations to the
    /// second-order variables (`2^(|A|^k)` each).
    ///
    /// # Panics
    /// Panics if any single second-order variable has more than 20 potential
    /// tuples (the search is exponential; this is a test/ground-truth tool).
    pub fn eval_brute(&self, db: &Database) -> bool {
        self.find_witness(db).is_some()
    }

    /// Counts the witnessing assignments of relations to the second-order
    /// variables (brute force).
    ///
    /// This is the quantity Theorem 2 relates to fixpoint counts: the
    /// compiled Theorem 1 program has exactly one fixpoint per witness
    /// (the `Q`/`T` components are forced).
    ///
    /// # Panics
    /// Same limits as [`eval_brute`](Self::eval_brute).
    pub fn count_witnesses_brute(&self, db: &Database) -> u64 {
        let n = db.universe_size();
        fn rec(
            so: &[(String, usize)],
            matrix: &Fo,
            db: &Database,
            extra: &mut ExtraRelations,
            n: usize,
        ) -> u64 {
            match so.split_first() {
                None => u64::from(eval_sentence(matrix, db, extra)),
                Some(((name, arity), rest)) => {
                    let tuples: Vec<_> = inflog_core::tuple::all_tuples(n, *arity).collect();
                    assert!(
                        tuples.len() <= 20,
                        "brute-force ESO limited to 20 tuples per relation"
                    );
                    let mut count = 0;
                    for mask in 0u64..(1u64 << tuples.len()) {
                        let mut r = Relation::new(*arity);
                        for (i, t) in tuples.iter().enumerate() {
                            if mask >> i & 1 == 1 {
                                r.insert(t.clone());
                            }
                        }
                        extra.insert(name.clone(), r);
                        count += rec(rest, matrix, db, extra, n);
                    }
                    extra.remove(name);
                    count
                }
            }
        }
        let mut extra = ExtraRelations::new();
        rec(&self.so_vars, &self.matrix, db, &mut extra, n)
    }

    /// Like [`eval_brute`](Self::eval_brute) but returns the witnessing
    /// relations.
    fn find_witness(&self, db: &Database) -> Option<ExtraRelations> {
        let n = db.universe_size();
        fn rec(
            so: &[(String, usize)],
            matrix: &Fo,
            db: &Database,
            extra: &mut ExtraRelations,
            n: usize,
        ) -> bool {
            match so.split_first() {
                None => eval_sentence(matrix, db, extra),
                Some(((name, arity), rest)) => {
                    let tuples: Vec<_> = inflog_core::tuple::all_tuples(n, *arity).collect();
                    assert!(
                        tuples.len() <= 20,
                        "brute-force ESO limited to 20 tuples per relation"
                    );
                    for mask in 0u64..(1u64 << tuples.len()) {
                        let mut r = Relation::new(*arity);
                        for (i, t) in tuples.iter().enumerate() {
                            if mask >> i & 1 == 1 {
                                r.insert(t.clone());
                            }
                        }
                        extra.insert(name.clone(), r);
                        if rec(rest, matrix, db, extra, n) {
                            return true;
                        }
                    }
                    extra.remove(name);
                    false
                }
            }
        }
        let mut extra = ExtraRelations::new();
        if rec(&self.so_vars, &self.matrix, db, &mut extra, n) {
            Some(extra)
        } else {
            None
        }
    }
}

/// An ∃SO sentence in Skolem normal form:
/// `∃S̄ ∀x̄ ∃ȳ (θ₁ ∨ ... ∨ θ_k)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkolemNf {
    /// Second-order variables: the originals plus witness relations
    /// `W0, W1, ...` introduced by the alternation elimination.
    pub so_vars: Vec<(String, usize)>,
    /// Universally quantified first-order variables `x̄`.
    pub foralls: Vec<String>,
    /// Existentially quantified first-order variables `ȳ`.
    pub exists: Vec<String>,
    /// The matrix in DNF: each disjunct a conjunction of literals over the
    /// vocabulary ∪ `so_vars`.
    pub disjuncts: Vec<Vec<NfLit>>,
}

impl SkolemNf {
    /// Computes the Skolem normal form of an ∃SO sentence.
    ///
    /// `max_disjuncts` caps the DNF blowup.
    ///
    /// # Panics
    /// Panics if the witness names `W<i>` collide with existing predicate
    /// names, or if the DNF cap is exceeded.
    pub fn of(eso: &Eso, max_disjuncts: usize) -> SkolemNf {
        let preds = eso.matrix.predicates();
        let mut wit = 0usize;
        let fresh_witness = |wit: &mut usize| loop {
            let name = format!("W{}", *wit);
            *wit += 1;
            if !preds.contains(&name) && !eso.so_vars.iter().any(|(n, _)| *n == name) {
                return name;
            }
        };

        let n = nnf(&eso.matrix);
        let (prefix, matrix) = prenex(&n);
        let mut varc = 0usize;
        let (new_so, foralls, exists, matrix) =
            to_forall_exists(&prefix, matrix, &mut wit, &mut varc, &fresh_witness);

        let mut so_vars = eso.so_vars.clone();
        so_vars.extend(new_so);

        let disjuncts = dnf(&matrix, max_disjuncts);
        SkolemNf {
            so_vars,
            foralls,
            exists,
            disjuncts,
        }
    }

    /// Rebuilds an [`Eso`] sentence (for evaluation cross-checks).
    pub fn to_eso(&self) -> Eso {
        let matrix_fo = Fo::Or(
            self.disjuncts
                .iter()
                .map(|conj| {
                    Fo::And(
                        conj.iter()
                            .map(|lit| match lit {
                                NfLit::Pos(p, ts) => Fo::atom(p.clone(), ts.clone()),
                                NfLit::Neg(p, ts) => Fo::atom(p.clone(), ts.clone()).negate(),
                                NfLit::Eq(a, b) => Fo::Eq(a.clone(), b.clone()),
                                NfLit::Neq(a, b) => Fo::Eq(a.clone(), b.clone()).negate(),
                            })
                            .collect(),
                    )
                })
                .collect(),
        );
        let prefix: Vec<(Quant, String)> = self
            .foralls
            .iter()
            .map(|v| (Quant::Forall, v.clone()))
            .chain(self.exists.iter().map(|v| (Quant::Exists, v.clone())))
            .collect();
        Eso {
            so_vars: self.so_vars.clone(),
            matrix: requantify(&prefix, matrix_fo),
        }
    }
}

/// Result of one alternation-elimination step: witness relations introduced,
/// universal prefix, existential prefix, and the rewritten matrix.
type ForallExistsForm = (Vec<(String, usize)>, Vec<String>, Vec<String>, Fo);

/// Eliminates ∀∃ alternation: rewrites `prefix . matrix` into an equivalent
/// (over nonempty universes, under ∃SO closure) `∀x̄∃ȳ matrix'`, returning
/// the witness relations introduced.
fn to_forall_exists(
    prefix: &[(Quant, String)],
    matrix: Fo,
    wit: &mut usize,
    varc: &mut usize,
    fresh_witness: &impl Fn(&mut usize) -> String,
) -> ForallExistsForm {
    // Split: leading ∀-block, then ∃-block, then the rest.
    let mut i = 0;
    while i < prefix.len() && prefix[i].0 == Quant::Forall {
        i += 1;
    }
    let mut j = i;
    while j < prefix.len() && prefix[j].0 == Quant::Exists {
        j += 1;
    }
    let u: Vec<String> = prefix[..i].iter().map(|(_, v)| v.clone()).collect();
    let v: Vec<String> = prefix[i..j].iter().map(|(_, w)| w.clone()).collect();
    if j == prefix.len() {
        // Already ∀*∃*.
        return (Vec::new(), u, v, matrix);
    }
    let rest = &prefix[j..];

    // Witness relation X(ū, v̄) for the Skolem graph of v̄ given ū.
    let x_name = fresh_witness(wit);
    let arity = u.len() + v.len();
    let uv_terms: Vec<Term> = u.iter().chain(&v).map(|w| Term::Var(w.clone())).collect();

    // Conjunct 1: ∀ū∀v̄ [rest](¬X(ū,v̄) ∨ matrix), recursively normalized.
    let not_x = Fo::atom(x_name.clone(), uv_terms).negate();
    let (so1, f1, e1, m1) =
        to_forall_exists(rest, Fo::Or(vec![not_x, matrix]), wit, varc, fresh_witness);

    // Conjunct 2: ∀ū₂ ∃v̄₂ X(ū₂, v̄₂) with fresh first-order names (the two
    // conjuncts' prefixes must not share variables when merged).
    let fresh_var = |varc: &mut usize| {
        let name = format!("s{}", *varc);
        *varc += 1;
        name
    };
    let u2: Vec<String> = u.iter().map(|_| fresh_var(varc)).collect();
    let v2: Vec<String> = v.iter().map(|_| fresh_var(varc)).collect();
    let x2_terms: Vec<Term> = u2.iter().chain(&v2).map(|w| Term::Var(w.clone())).collect();
    let m2 = Fo::atom(x_name.clone(), x2_terms);

    // Merge: ∀ā∃b̄ α ∧ ∀c̄∃d̄ β ≡ ∀ā c̄ ∃b̄ d̄ (α ∧ β) on nonempty universes.
    let mut so = vec![(x_name, arity)];
    so.extend(so1);
    let mut foralls = u;
    foralls.extend(v);
    foralls.extend(f1);
    foralls.extend(u2);
    let mut exists = e1;
    exists.extend(v2);
    (so, foralls, exists, Fo::And(vec![m1, m2]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use inflog_core::graphs::DiGraph;
    use inflog_syntax::var;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn e(x: &str, y: &str) -> Fo {
        Fo::atom("E", vec![var(x), var(y)])
    }

    fn s1(x: &str) -> Fo {
        Fo::atom("S", vec![var(x)])
    }

    /// 2-colorability of the symmetric graph:
    /// ∃S ∀x∀y (¬E(x,y) ∨ (S(x) ∧ ¬S(y)) ∨ (¬S(x) ∧ S(y))).
    fn two_colorable() -> Eso {
        let matrix = Fo::Or(vec![
            e("x", "y").negate(),
            Fo::And(vec![s1("x"), s1("y").negate()]),
            Fo::And(vec![s1("x").negate(), s1("y")]),
        ])
        .forall("y")
        .forall("x");
        Eso::new(vec![("S", 1)], matrix)
    }

    /// ∃S ∀x ∃y (E(x,y) ∧ S(y)): every vertex has an out-neighbour (S can
    /// be everything) — has a genuine ∀∃ alternation for Skolemization.
    fn out_neighbour_in_s() -> Eso {
        let matrix = Fo::And(vec![e("x", "y"), s1("y")]).exists("y").forall("x");
        Eso::new(vec![("S", 1)], matrix)
    }

    #[test]
    fn brute_eval_two_colorability() {
        let f = two_colorable();
        // Even cycles (as symmetric graphs) are 2-colorable; odd are not.
        let c4 = symmetric_cycle(4);
        let c5 = symmetric_cycle(5);
        assert!(f.eval_brute(&c4.to_database("E")));
        assert!(!f.eval_brute(&c5.to_database("E")));
    }

    fn symmetric_cycle(n: usize) -> DiGraph {
        let mut g = DiGraph::new(n);
        for i in 0..n {
            g.add_edge_undirected(i as u32, ((i + 1) % n) as u32);
        }
        g
    }

    #[test]
    fn witness_is_a_2_coloring() {
        let f = two_colorable();
        let db = symmetric_cycle(6).to_database("E");
        let w = f.find_witness(&db).expect("C_6 is 2-colorable");
        let s = &w["S"];
        // Check: every edge crosses the cut.
        for t in db.relation("E").unwrap().iter() {
            let x = inflog_core::Tuple::from([t[0]]);
            let y = inflog_core::Tuple::from([t[1]]);
            assert_ne!(s.contains(&x), s.contains(&y));
        }
    }

    #[test]
    fn skolem_nf_shape_no_alternation() {
        // ∀∀ prefix: no witnesses introduced.
        let nf = SkolemNf::of(&two_colorable(), 100);
        assert_eq!(nf.so_vars.len(), 1);
        assert_eq!(nf.foralls.len(), 2);
        assert!(nf.exists.is_empty());
        assert_eq!(nf.disjuncts.len(), 3);
    }

    #[test]
    fn skolem_nf_shape_with_alternation() {
        // ∀x∃y: already ∀*∃* — no witness needed either.
        let nf = SkolemNf::of(&out_neighbour_in_s(), 100);
        assert_eq!(nf.so_vars.len(), 1);
        assert_eq!((nf.foralls.len(), nf.exists.len()), (1, 1));
    }

    #[test]
    fn skolem_nf_eliminates_exists_before_forall() {
        // ∃u ∀x ∃y (E(u,x) → E(x,y)): ∃ before ∀ forces a witness relation.
        let matrix = Fo::Implies(Box::new(e("u", "x")), Box::new(e("x", "y")))
            .exists("y")
            .forall("x")
            .exists("u");
        let eso = Eso::new(vec![], matrix);
        let nf = SkolemNf::of(&eso, 100);
        assert!(
            nf.so_vars.iter().any(|(n, _)| n.starts_with('W')),
            "must introduce a witness relation"
        );
        // Normal form truth-preservation on several graphs.
        for g in [
            DiGraph::path(3),
            DiGraph::cycle(3),
            DiGraph::star(3),
            DiGraph::complete(3),
        ] {
            let db = g.to_database("E");
            assert_eq!(
                eso.eval_brute(&db),
                nf.to_eso().eval_brute(&db),
                "graph {g}"
            );
        }
    }

    #[test]
    fn skolem_nf_preserves_truth_on_fixed_formulas() {
        let formulas = [two_colorable(), out_neighbour_in_s()];
        let graphs = [
            DiGraph::path(3),
            DiGraph::cycle(3),
            DiGraph::cycle(4),
            symmetric_cycle(3),
            symmetric_cycle(4),
            DiGraph::star(4),
        ];
        for f in &formulas {
            let nf = SkolemNf::of(f, 1000).to_eso();
            for g in &graphs {
                let db = g.to_database("E");
                assert_eq!(f.eval_brute(&db), nf.eval_brute(&db), "graph {g}");
            }
        }
    }

    #[test]
    fn skolem_nf_preserves_truth_on_random_formulas() {
        // Random small sentences with quantifier alternations over E and S.
        // Brute-forcing the transformed sentence enumerates every witness
        // relation, so only budget-friendly cases are compared exhaustively
        // here (the to_datalog tests cover larger random formulas through
        // the CDCL-backed fixpoint analyzer instead).
        let mut rng = StdRng::seed_from_u64(23);
        let mut checked = 0;
        for trial in 0..40 {
            let f = random_sentence(&mut rng, 2);
            let eso = Eso::new(vec![("S", 1)], f);
            let nf = SkolemNf::of(&eso, 10_000).to_eso();
            let n = 2usize;
            let budget: usize = nf.so_vars.iter().map(|(_, k)| n.pow(*k as u32)).sum();
            if budget > 14 {
                continue;
            }
            checked += 1;
            let g = DiGraph::random_gnp(n, 0.5, &mut rng);
            let db = g.to_database("E");
            assert_eq!(
                eso.eval_brute(&db),
                nf.eval_brute(&db),
                "trial {trial}, formula {}, graph {g}",
                eso.matrix
            );
        }
        assert!(checked >= 5, "too few checkable cases ({checked})");
    }

    /// Random quantified sentence over variables v0..v3 using E/2 and S/1.
    fn random_sentence(rng: &mut StdRng, depth: usize) -> Fo {
        let vars = ["v0", "v1", "v2", "v3"];
        fn atom(rng: &mut StdRng, vars: &[&str]) -> Fo {
            let x = vars[rng.gen_range(0..vars.len())];
            let y = vars[rng.gen_range(0..vars.len())];
            if rng.gen_bool(0.5) {
                Fo::atom("E", vec![var(x), var(y)])
            } else {
                Fo::atom("S", vec![var(x)])
            }
        }
        fn go(rng: &mut StdRng, depth: usize, vars: &[&str]) -> Fo {
            if depth == 0 {
                let a = atom(rng, vars);
                return if rng.gen_bool(0.4) { a.negate() } else { a };
            }
            match rng.gen_range(0..5) {
                0 => Fo::And(vec![go(rng, depth - 1, vars), go(rng, depth - 1, vars)]),
                1 => Fo::Or(vec![go(rng, depth - 1, vars), go(rng, depth - 1, vars)]),
                2 => go(rng, depth - 1, vars).negate(),
                3 => go(rng, depth - 1, vars).forall(vars[rng.gen_range(0..vars.len())]),
                _ => go(rng, depth - 1, vars).exists(vars[rng.gen_range(0..vars.len())]),
            }
        }
        // Close the formula: quantify all four variables at the outside.
        let mut f = go(rng, depth, &vars);
        for v in vars {
            f = if rng.gen_bool(0.5) {
                f.forall(v)
            } else {
                f.exists(v)
            };
        }
        f
    }

    #[test]
    fn to_eso_roundtrip_structure() {
        let nf = SkolemNf::of(&two_colorable(), 100);
        let back = nf.to_eso();
        assert_eq!(back.so_vars, nf.so_vars);
        assert!(back.matrix.free_vars().is_empty());
    }
}
