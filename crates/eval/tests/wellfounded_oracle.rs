//! An independent oracle for the well-founded engine.
//!
//! The engine never grounds a rule: it runs compiled join plans
//! semi-naively, shrinks the decreasing side by a proof search over
//! head-bound check plans, and walks the program's dependency components.
//! This oracle shares none of
//! that code. It reads the parsed program (`inflog-syntax`) and the facts it
//! put into the database itself; from `inflog-eval` it calls only
//! [`well_founded`] and, on a program [`stratify`] accepts,
//! [`stratified_eval`] — which runs the same component walk — and reads
//! the returned models. A stratified program's model is total, so there
//! the oracle's `T` must equal its `U` and the perfect model.
//!
//! * **Grounding.** Every rule is instantiated with every tuple of
//!   `universe^vars` (at most 4 variables over at most 6 constants). An
//!   instance is kept when its extensional literals, equalities and
//!   inequalities hold; it becomes a ground rule `head ← pos, ¬neg` over
//!   IDB atoms numbered densely.
//! * **Alternating fixpoint** (Van Gelder) over bitsets of ground atoms:
//!   `Γ(J)` is the least set closed under the ground rules whose negated
//!   atoms all lie outside `J`; `T₀ = ∅`, `U_k = Γ(T_k)`,
//!   `T_{k+1} = Γ(U_k)`, until `T` stops growing. True = `T`,
//!   undefined = `U \ T`.
//!
//! The programs come from fixed seeds. Most are built from layers, so each
//! spans several IDB components: a negative cycle at the bottom, a
//! positive-recursive component over it, a second negative cycle above
//! that, sometimes a stratified consumer on top, with extensional negation
//! and stray literals mixed in. The rest are unstructured random programs.

use inflog_core::Database;
use inflog_eval::{stratified_eval, stratify, well_founded, Interp};
use inflog_syntax::{parse_program, Literal, Program, Term};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

const MAX_VARS: usize = 4;
const MAX_CONSTANTS: usize = 6;

/// A set of ground atoms.
#[derive(Clone, PartialEq, Eq)]
struct Bits(Vec<u64>);

impl Bits {
    fn new(len: usize) -> Self {
        Bits(vec![0; len.div_ceil(64)])
    }
    fn get(&self, i: usize) -> bool {
        self.0[i / 64] >> (i % 64) & 1 == 1
    }
    fn set(&mut self, i: usize) {
        self.0[i / 64] |= 1 << (i % 64);
    }
}

/// Dense numbering of the ground IDB atoms: predicates in sorted-name
/// order, tuples in lexicographic order within each predicate.
struct Atoms {
    names: Vec<String>,
    arities: Vec<usize>,
    offsets: Vec<usize>,
    n: usize,
    len: usize,
}

impl Atoms {
    fn new(program: &Program, n: usize) -> Self {
        let arities_by_name = program.predicate_arities();
        let names: Vec<String> = program.idb_predicates().into_iter().collect();
        let arities: Vec<usize> = names.iter().map(|p| arities_by_name[p]).collect();
        let mut offsets = Vec::new();
        let mut len = 0;
        for &k in &arities {
            offsets.push(len);
            len += n.pow(k as u32);
        }
        Atoms {
            names,
            arities,
            offsets,
            n,
            len,
        }
    }

    fn pred(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|p| p == name)
    }

    fn id(&self, pred: usize, args: &[u32]) -> usize {
        args.iter().fold(0, |acc, &a| acc * self.n + a as usize) + self.offsets[pred]
    }
}

/// `head ← pos, ¬neg`, over ground IDB atom ids.
struct GroundRule {
    head: usize,
    pos: Vec<usize>,
    neg: Vec<usize>,
}

/// The extensional facts, by predicate name.
type Edb = BTreeMap<String, BTreeSet<Vec<u32>>>;

fn ground(program: &Program, atoms: &Atoms, edb: &Edb) -> Vec<GroundRule> {
    let mut out = Vec::new();
    for rule in &program.rules {
        let vars = rule.variables();
        assert!(vars.len() <= MAX_VARS, "too many variables in {rule}");
        let mut assign = vec![0u32; vars.len()];
        let value = |t: &Term, assign: &[u32]| match t {
            Term::Var(v) => assign[vars.iter().position(|w| w == v).unwrap()],
            Term::Const(c) => panic!("the oracle's programs have no constants, found {c}"),
        };
        loop {
            let args = |a: &inflog_syntax::Atom| -> Vec<u32> {
                a.terms.iter().map(|t| value(t, &assign)).collect()
            };
            let mut pos = Vec::new();
            let mut neg = Vec::new();
            let holds = rule.body.iter().all(|lit| match lit {
                Literal::Eq(s, t) => value(s, &assign) == value(t, &assign),
                Literal::Neq(s, t) => value(s, &assign) != value(t, &assign),
                Literal::Pos(a) | Literal::Neg(a) => {
                    let tuple = args(a);
                    let positive = matches!(lit, Literal::Pos(_));
                    match atoms.pred(&a.predicate) {
                        Some(p) => {
                            let id = atoms.id(p, &tuple);
                            if positive { &mut pos } else { &mut neg }.push(id);
                            true
                        }
                        None => {
                            let present = edb.get(&a.predicate).is_some_and(|r| r.contains(&tuple));
                            present == positive
                        }
                    }
                }
            });
            if holds {
                let head = atoms.id(atoms.pred(&rule.head.predicate).unwrap(), &args(&rule.head));
                out.push(GroundRule { head, pos, neg });
            }
            // Next assignment, odometer-style; done after wrapping around.
            let mut k = 0;
            while k < assign.len() {
                assign[k] += 1;
                if (assign[k] as usize) < atoms.n {
                    break;
                }
                assign[k] = 0;
                k += 1;
            }
            if k == assign.len() {
                break;
            }
        }
    }
    out
}

/// `Γ(J)`: the least set of atoms closed under the ground rules whose
/// negated atoms all lie outside `j`.
fn gamma(rules: &[GroundRule], j: &Bits, len: usize) -> Bits {
    let mut s = Bits::new(len);
    loop {
        let mut changed = false;
        for r in rules {
            if !s.get(r.head) && r.pos.iter().all(|&a| s.get(a)) && r.neg.iter().all(|&a| !j.get(a))
            {
                s.set(r.head);
                changed = true;
            }
        }
        if !changed {
            return s;
        }
    }
}

/// The well-founded model as `(true, possible)` atom sets.
fn oracle_model(program: &Program, atoms: &Atoms, edb: &Edb) -> (Bits, Bits) {
    let rules = ground(program, atoms, edb);
    let mut t = Bits::new(atoms.len);
    loop {
        let u = gamma(&rules, &t, atoms.len);
        let next = gamma(&rules, &u, atoms.len);
        if next == t {
            return (t, u);
        }
        t = next;
    }
}

/// The engine's interpretation as an atom set (IDB ids are sorted-name
/// order, the same order [`Atoms`] numbers predicates in).
fn to_bits(interp: &Interp, atoms: &Atoms) -> Bits {
    let mut bits = Bits::new(atoms.len);
    for p in 0..atoms.names.len() {
        for t in interp.get(p).dense() {
            let args: Vec<u32> = t.items().iter().map(|c| c.id()).collect();
            bits.set(atoms.id(p, &args));
        }
    }
    bits
}

/// Renders the atoms of `bits` for a failure message.
fn show(bits: &Bits, atoms: &Atoms) -> Vec<String> {
    let mut out = Vec::new();
    for (p, name) in atoms.names.iter().enumerate() {
        let k = atoms.arities[p];
        for i in 0..atoms.n.pow(k as u32) {
            if bits.get(atoms.offsets[p] + i) {
                let mut args = vec![0; k];
                let mut rest = i;
                for a in args.iter_mut().rev() {
                    *a = rest % atoms.n;
                    rest /= atoms.n;
                }
                out.push(format!("{name}{args:?}"));
            }
        }
    }
    out
}

/// A database over constants `c0..c{n-1}` (interned first, so constant
/// `ci` has id `i`) with the given facts.
fn database(n: usize, edb: &Edb) -> Database {
    let mut db = Database::new();
    for i in 0..n {
        db.universe_mut().intern(&format!("c{i}"));
    }
    for (name, rows) in edb {
        for row in rows {
            let names: Vec<String> = row.iter().map(|i| format!("c{i}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            db.insert_named_fact(name, &refs).unwrap();
        }
    }
    db
}

/// Compares the engines with the oracle on one program and database —
/// the well-founded engine always, the stratified one when the program has
/// strata — and returns the oracle's numbers of true and undefined atoms
/// and whether the program has strata.
fn check(src: &str, n: usize, edb: &Edb) -> (usize, usize, bool) {
    assert!(n <= MAX_CONSTANTS);
    let program = parse_program(src).unwrap();
    let atoms = Atoms::new(&program, n);
    let (t, u) = oracle_model(&program, &atoms, edb);
    let db = database(n, edb);
    let stratified = stratify(&program).is_ok();
    if stratified {
        let (perfect, _) = stratified_eval(&program, &db).unwrap();
        let perfect = to_bits(&perfect, &atoms);
        assert!(
            perfect == t && t == u,
            "stratified model diverged from the oracle\nprogram:\n{src}\nn = {n}, \
             edb = {edb:?}\noracle true: {:?}\noracle possible: {:?}\nperfect: {:?}",
            show(&t, &atoms),
            show(&u, &atoms),
            show(&perfect, &atoms),
        );
    }
    let wf = well_founded(&program, &db).unwrap();
    let engine_t = to_bits(&wf.true_facts, &atoms);
    let mut engine_u = to_bits(&wf.undefined, &atoms);
    for (w, tw) in engine_u.0.iter_mut().zip(&engine_t.0) {
        *w |= tw;
    }
    assert!(
        engine_t == t && engine_u == u,
        "well-founded model diverged from the oracle\nprogram:\n{src}\nn = {n}, edb = {edb:?}\n\
         oracle true: {:?}\nengine true: {:?}\noracle possible: {:?}\nengine possible: {:?}",
        show(&t, &atoms),
        show(&engine_t, &atoms),
        show(&u, &atoms),
        show(&engine_u, &atoms),
    );
    let count = |b: &Bits| b.0.iter().map(|w| w.count_ones() as usize).sum::<usize>();
    (count(&t), count(&u) - count(&t), stratified)
}

fn random_edb(rng: &mut StdRng, n: usize) -> Edb {
    let p = [0.2, 0.3, 0.45].choose(rng).copied().unwrap();
    let mut edb = Edb::new();
    let e = edb.entry("E".to_string()).or_default();
    for a in 0..n as u32 {
        for b in 0..n as u32 {
            if rng.gen_bool(p) {
                e.insert(vec![a, b]);
            }
        }
    }
    let v = edb.entry("V".to_string()).or_default();
    for a in 0..n as u32 {
        if rng.gen_bool(0.5) {
            v.insert(vec![a]);
        }
    }
    edb
}

fn pick<'a>(rng: &mut StdRng, options: &[&'a [&'a str]]) -> Vec<&'a str> {
    options.choose(rng).unwrap().to_vec()
}

/// A layered program: negative cycle (`N`, maybe `M`) → positive recursion
/// (`R`) → negative cycle (`H`, maybe `G`) → sometimes a stratified `S`.
/// Each rule may gain one stray literal: extensional negation, an
/// inequality, or a variable that occurs nowhere else.
fn layered_program(rng: &mut StdRng) -> String {
    let mut rules: Vec<String> = Vec::new();
    let mut add = |rs: Vec<&str>| rules.extend(rs.into_iter().map(str::to_string));
    add(pick(
        rng,
        &[
            &["N(x) :- E(x, y), !N(y)"],
            &["N(x) :- E(y, x), !N(y)"],
            &["N(x) :- V(x), !M(x)", "M(x) :- V(x), !N(x)"],
            &["N(x) :- E(x, y), !M(y)", "M(x) :- E(x, y), N(y)"],
            &["N(x) :- E(x, y), !N(y), !V(y)", "N(x) :- V(x), !E(x, x)"],
        ],
    ));
    add(pick(
        rng,
        &[
            &["R(x, y) :- E(x, y), !N(x)"],
            &["R(x, y) :- E(x, y), N(y)"],
            &["R(x, y) :- E(x, y), !N(y), !V(x)"],
            &["R(x, y) :- V(x), V(y), !N(x), !E(x, y)"],
        ],
    ));
    add(pick(
        rng,
        &[
            &["R(x, y) :- R(x, z), E(z, y)"],
            &["R(x, y) :- R(x, z), R(z, y)"],
            &["R(x, y) :- E(x, z), R(z, y), !E(y, x)"],
            &["R(x, y) :- R(y, x), N(x)"],
        ],
    ));
    add(pick(
        rng,
        &[
            &["H(x) :- R(x, y), !H(y)"],
            &["H(x) :- V(x), R(x, x), !G(x)", "G(x) :- V(x), !H(x)"],
            &["H(x) :- E(x, y), !H(y), !R(y, x)"],
            &["H(x) :- R(y, x), !H(y), !V(y)"],
            &["H(x) :- R(x, y), !G(y)", "G(x) :- E(x, y), H(y), !N(x)"],
        ],
    ));
    if rng.gen_bool(0.5) {
        add(pick(
            rng,
            &[
                &["S(x) :- V(x), !H(x), !N(x)"],
                &["S(x, y) :- R(x, y), !H(y), !E(y, x)"],
                &["S(x) :- H(x), N(x)"],
            ],
        ));
    }
    const STRAY: &[&str] = &["!E(x, x)", "!V(x)", "V(x)", "x != y", "!E(x, w)", "E(w, x)"];
    let mut src = String::new();
    for r in &rules {
        src.push_str(r);
        if rng.gen_bool(0.3) {
            src.push_str(", ");
            src.push_str(STRAY.choose(rng).unwrap());
        }
        src.push_str(".\n");
    }
    src
}

/// An unstructured program over `A/1`, `B/1`, `C/2` and the extensional
/// `E/2`, `V/1`: whatever component structure the dice give.
fn random_program(rng: &mut StdRng) -> String {
    const PREDS: &[(&str, usize)] = &[("A", 1), ("B", 1), ("C", 2), ("E", 2), ("V", 1)];
    const VARS: &[&str] = &["x", "y", "z", "w"];
    let mut src = String::new();
    for &(head, arity) in &PREDS[..3] {
        for _ in 0..rng.gen_range(1..3) {
            let head_args: Vec<&str> = VARS[..arity].to_vec();
            let mut body = Vec::new();
            for _ in 0..rng.gen_range(1..4) {
                let &(p, k) = PREDS.choose(rng).unwrap();
                let args: Vec<&str> = (0..k).map(|_| *VARS[..3].choose(rng).unwrap()).collect();
                let sign = if rng.gen_bool(0.4) { "!" } else { "" };
                body.push(format!("{sign}{p}({})", args.join(", ")));
            }
            src.push_str(&format!(
                "{head}({}) :- {}.\n",
                head_args.join(", "),
                body.join(", ")
            ));
        }
    }
    src
}

/// Checks `count` generated programs, each on its own random database, and
/// that the draws are not degenerate: at least a quarter of the models must
/// have true atoms, and at least a quarter undefined ones. Returns how many
/// of the programs have strata.
fn agree_on(seed: u64, count: usize, program: fn(&mut StdRng) -> String) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut with_true, mut with_undefined, mut stratified) = (0, 0, 0);
    for _ in 0..count {
        let src = program(&mut rng);
        let n = rng.gen_range(2..MAX_CONSTANTS + 1);
        let edb = random_edb(&mut rng, n);
        let (t, u, s) = check(&src, n, &edb);
        with_true += usize::from(t > 0);
        with_undefined += usize::from(u > 0);
        stratified += usize::from(s);
    }
    assert!(
        with_true >= count / 4 && with_undefined >= count / 4,
        "degenerate draws: {with_true} models with true atoms, \
         {with_undefined} with undefined ones, of {count}"
    );
    stratified
}

#[test]
fn oracle_agrees_on_layered_programs() {
    // Every layered program has a negative cycle at the bottom.
    assert_eq!(agree_on(0x00A1_C1E5, 240, layered_program), 0);
}

#[test]
fn oracle_agrees_on_random_programs() {
    // 30 of these 160 draws have strata and also check the stratified
    // engine; at least an eighth must, or that check is idle.
    let stratified = agree_on(0x5EED_0FAF, 160, random_program);
    assert!(stratified >= 160 / 8, "only {stratified} draws with strata");
}

#[test]
fn oracle_itself_on_known_models() {
    // Win-move on the path c0 → c1 → c2: c1 wins, c0 and c2 lose.
    let edb: Edb = [("E".to_string(), [vec![0, 1], vec![1, 2]].into())].into();
    let program = parse_program("W(x) :- E(x, y), !W(y).").unwrap();
    let atoms = Atoms::new(&program, 3);
    let (t, u) = oracle_model(&program, &atoms, &edb);
    assert_eq!(show(&t, &atoms), ["W[1]"]);
    assert!(t == u, "the path game is total");
    // On a 2-cycle every position is undefined.
    let edb: Edb = [("E".to_string(), [vec![0, 1], vec![1, 0]].into())].into();
    let atoms = Atoms::new(&program, 2);
    let (t, u) = oracle_model(&program, &atoms, &edb);
    assert!(show(&t, &atoms).is_empty());
    assert_eq!(show(&u, &atoms), ["W[0]", "W[1]"]);
}
