//! Randomized insert/retract churn over [`Materialized`] handles.
//!
//! The non-negotiable invariant of incremental view maintenance: after
//! *any* sequence of single-fact and batch updates, the handle's state —
//! true facts and undefined sets — is identical to evaluating the program
//! from scratch over the current database, for every engine. Debug builds
//! additionally assert this inside the handle after every update; these
//! tests pin it explicitly (so release runs check it too), across fixed
//! seeds, graph families (paths, cycles, G(n,p)), engines, and the edge
//! cases the issue calls out: deletions that empty a relation,
//! re-insertion of retracted facts, and retracting facts that were never
//! present.
//!
//! The middle section pins the **cost bound** of delete–rederive repair:
//! a stratum whose overdeletion cone outgrows half of what re-evaluation
//! would rebuild is re-evaluated instead, observable through
//! [`Materialized::last_repair`] — both sides of that decision, and the
//! bookkeeping hazards of draining rederivation and top-up in one seeded
//! extension, must land on the recompute.
//!
//! The last section drives the **transactional invariant** under forced
//! failures: a failpoint sweep that aborts a repair at every registered
//! injection site — in both update directions, on every engine — and
//! asserts the handle rolls back bit-identically and accepts the retried
//! batch; plus cross-thread cancellation, deadline, and round/tuple budget
//! coverage on deliberately slow programs.

use inflog_core::failpoints::{
    Failpoints, EVAL_SITES, SITE_INDEX_EXTEND, SITE_OVERDELETE_CLOSE, SITE_PANIC,
    SITE_REDERIVE_SWEEP, SITE_ROUND,
};
use inflog_core::graphs::DiGraph;
use inflog_core::{Database, Tuple};
use inflog_eval::materialize::{Engine, MaterializeOpts, Materialized, RepairStats};
use inflog_eval::{
    inflationary, least_fixpoint_seminaive, stratified_eval, well_founded, Budget, BudgetKind,
    CancelToken, EvalError, EvalOptions,
};
use inflog_syntax::{parse_program, Atom, Program, Term};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;
use std::time::Duration;

const TC: &str = "S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).";
const WIN: &str = "Win(x) :- Move(x, y), !Win(y).";
const REACH_UNREACH: &str = "
    Reach(y) :- Start(x), E(x, y).
    Reach(y) :- Reach(x), E(x, y).
    Unreach(x) :- V(x), !Reach(x).
";
/// Three strata — `S`, then `Cut` over `!S`, then `T` over `!Cut` — with
/// `T` reading `S` *positively* across two stratum boundaries.
const TC_CUT_MUTUAL: &str = "
    S(x, y) :- E(x, y).
    S(x, y) :- S(x, z), E(z, y).
    Cut(x, y) :- E(x, y), !S(y, x).
    T(x, y) :- S(x, y), S(y, x), !Cut(x, y).
";

fn handle(program: &Program, db: &Database, engine: Engine) -> Materialized {
    let opts = MaterializeOpts {
        engine,
        ..MaterializeOpts::default()
    };
    Materialized::new(program, db, &opts).unwrap()
}

/// Asserts the handle equals a from-scratch evaluation of its engine over
/// its current database.
fn assert_matches_recompute(m: &Materialized, program: &Program, ctx: &str) {
    let db = m.database();
    match m.engine() {
        Engine::Seminaive => {
            let (s, _) = least_fixpoint_seminaive(program, db).unwrap();
            assert_eq!(*m.interp(), s, "{ctx}: seminaive diverged");
            assert!(m.undefined().all_empty(), "{ctx}");
        }
        Engine::Stratified => {
            let (s, _) = stratified_eval(program, db).unwrap();
            assert_eq!(*m.interp(), s, "{ctx}: stratified diverged");
            assert!(m.undefined().all_empty(), "{ctx}");
        }
        Engine::Inflationary => {
            let (s, _) = inflationary(program, db).unwrap();
            assert_eq!(*m.interp(), s, "{ctx}: inflationary diverged");
            assert!(m.undefined().all_empty(), "{ctx}");
        }
        Engine::WellFounded => {
            let model = well_founded(program, db).unwrap();
            assert_eq!(*m.interp(), model.true_facts, "{ctx}: wf diverged");
            assert_eq!(*m.undefined(), model.undefined, "{ctx}: wf undefined");
        }
    }
}

/// Flips random edges of `edge_rel` for `steps` rounds — retract when
/// present, insert when absent, occasionally as a no-op in the opposite
/// direction — checking the handle against a recompute at every step.
/// Returns how many updates were repaired in place and how many fell back
/// to re-evaluating from some stratum.
fn churn(
    src: &str,
    edge_rel: &str,
    db: &Database,
    engine: Engine,
    seed: u64,
    steps: usize,
) -> (usize, usize) {
    let program = parse_program(src).unwrap();
    let mut m = handle(&program, db, engine);
    let n = db.universe_size() as u32;
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut repaired, mut recomputed) = (0, 0);
    for step in 0..steps {
        let t = Tuple::from_ids(&[rng.gen_range(0..n), rng.gen_range(0..n)]);
        let present = m.contains(edge_rel, &t);
        if rng.gen_range(0u32..8) == 0 {
            // Deliberate no-op: insert a present fact / retract an absent
            // one must change nothing.
            let changed = if present {
                m.insert(&[(edge_rel, t)]).unwrap()
            } else {
                m.retract(&[(edge_rel, t)]).unwrap()
            };
            assert_eq!(changed, 0, "{src} step {step}");
            assert_eq!(m.last_repair(), RepairStats::default(), "no-op batch");
        } else if present {
            assert_eq!(m.retract(&[(edge_rel, t)]).unwrap(), 1);
        } else {
            assert_eq!(m.insert(&[(edge_rel, t)]).unwrap(), 1);
        }
        match m.last_repair().recomputed_from {
            Some(_) => recomputed += 1,
            None => repaired += 1,
        }
        assert_matches_recompute(&m, &program, &format!("engine {engine:?} step {step}"));
    }
    (repaired, recomputed)
}

#[test]
fn tc_churn_every_engine_on_paths_cycles_and_gnp() {
    let mut rng = StdRng::seed_from_u64(7);
    let dbs = [
        DiGraph::path(6).to_database("E"),
        DiGraph::cycle(5).to_database("E"),
        DiGraph::random_gnp(7, 0.2, &mut rng).to_database("E"),
    ];
    for (g, db) in dbs.iter().enumerate() {
        for engine in [
            Engine::Seminaive,
            Engine::Stratified,
            Engine::Inflationary,
            Engine::WellFounded,
        ] {
            churn(TC, "E", db, engine, 100 + g as u64, 12);
        }
    }
}

#[test]
fn stratified_negation_churn_across_capable_engines() {
    // Reach/Unreach exercises both repair directions through negation:
    // lower-stratum additions kill Unreach facts, removals resurrect them.
    let mut db = DiGraph::path(6).to_database("E");
    for v in 0..6 {
        db.insert_named_fact("V", &[&format!("v{v}")]).unwrap();
    }
    db.insert_named_fact("Start", &["v0"]).unwrap();
    for engine in [
        Engine::Stratified,
        Engine::Inflationary,
        Engine::WellFounded,
    ] {
        churn(REACH_UNREACH, "E", &db, engine, 11, 12);
    }
}

#[test]
fn win_move_churn_on_nonstratified_engines() {
    let mut rng = StdRng::seed_from_u64(3);
    for db in [
        DiGraph::path(5).to_database("Move"),
        DiGraph::random_gnp(6, 0.25, &mut rng).to_database("Move"),
    ] {
        for engine in [Engine::Inflationary, Engine::WellFounded] {
            churn(WIN, "Move", &db, engine, 29, 10);
        }
    }
}

#[test]
fn emptying_a_relation_and_reinserting_roundtrips() {
    let program = parse_program(TC).unwrap();
    let db = DiGraph::cycle(5).to_database("E");
    let edges: Vec<Tuple> = db.relation("E").unwrap().sorted();
    for engine in [
        Engine::Seminaive,
        Engine::Stratified,
        Engine::Inflationary,
        Engine::WellFounded,
    ] {
        let mut m = handle(&program, &db, engine);
        // Drain the relation one fact at a time, checking at every step
        // (the last retraction leaves the IDB empty).
        for (i, e) in edges.iter().enumerate() {
            assert_eq!(m.retract(&[("E", e.clone())]).unwrap(), 1);
            assert_matches_recompute(&m, &program, &format!("{engine:?} drain {i}"));
        }
        assert!(m.interp().all_empty());
        assert!(m.database().relation("E").unwrap().is_empty());
        // Re-insert everything as one batch: back to the original model.
        let batch: Vec<(&str, Tuple)> = edges.iter().map(|e| ("E", e.clone())).collect();
        assert_eq!(m.insert(&batch).unwrap(), edges.len());
        assert_matches_recompute(&m, &program, &format!("{engine:?} reinsert"));
        let fresh = handle(&program, &db, engine);
        assert_eq!(m.interp(), fresh.interp());
    }
}

#[test]
fn query_after_update_agrees_with_the_maintained_model() {
    let program = parse_program(TC).unwrap();
    let db = DiGraph::path(6).to_database("E");
    let mut m = handle(&program, &db, Engine::Stratified);
    let sid = m.compiled().idb_id("S").unwrap();
    let mut rng = StdRng::seed_from_u64(17);
    for _ in 0..8 {
        let t = Tuple::from_ids(&[rng.gen_range(0..6), rng.gen_range(0..6)]);
        let present = m.contains("E", &t);
        if present {
            m.retract(&[("E", t)]).unwrap();
        } else {
            m.insert(&[("E", t)]).unwrap();
        }
        // Goal S('vK', y) for a random source: the goal-directed answer
        // must match filtering the maintained relation.
        let k = rng.gen_range(0..6);
        let goal = Atom {
            predicate: "S".into(),
            terms: vec![Term::Const(format!("v{k}")), Term::Var("y".into())],
        };
        let ans = inflog_eval::query(m.program(), &goal, m.database(), &EvalOptions::sequential())
            .unwrap();
        let src = m.database().universe().lookup(&format!("v{k}")).unwrap();
        let expect: Vec<Tuple> = m
            .interp()
            .get(sid)
            .sorted()
            .iter()
            .filter(|t| t.items()[0] == src)
            .cloned()
            .collect();
        assert_eq!(ans.tuples, expect);
    }
}

#[test]
fn mixed_fact_arities_and_auxiliary_relations_churn() {
    // Churn the *unary* relations of the stratified program too — Start
    // flips who is reachable wholesale, V changes the complement domain.
    let program = parse_program(REACH_UNREACH).unwrap();
    let mut db = DiGraph::path(5).to_database("E");
    for v in 0..5 {
        db.insert_named_fact("V", &[&format!("v{v}")]).unwrap();
    }
    db.insert_named_fact("Start", &["v0"]).unwrap();
    let mut m = handle(&program, &db, Engine::Stratified);
    let mut rng = StdRng::seed_from_u64(41);
    for step in 0..16 {
        let (rel, t) = match rng.gen_range(0u32..3) {
            0 => (
                "E",
                Tuple::from_ids(&[rng.gen_range(0..5), rng.gen_range(0..5)]),
            ),
            1 => ("Start", Tuple::from_ids(&[rng.gen_range(0..5)])),
            _ => ("V", Tuple::from_ids(&[rng.gen_range(0..5)])),
        };
        if m.contains(rel, &t) {
            m.retract(&[(rel, t)]).unwrap();
        } else {
            m.insert(&[(rel, t)]).unwrap();
        }
        assert_matches_recompute(&m, &program, &format!("aux churn step {step}"));
    }
}

// ---------------------------------------------------------------------------
// The cost bound: repair in place, or re-evaluate from the stratum whose
// cone outgrew half of what re-evaluation rebuilds.
// ---------------------------------------------------------------------------

/// A strongly connected `G(n, p)`: every retraction condemns (nearly) the
/// whole closure.
fn strongly_connected_gnp(n: usize, p: f64, seed: u64) -> DiGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    loop {
        let g = DiGraph::random_gnp(n, p, &mut rng);
        if g.transitive_closure().len() == n * n {
            return g;
        }
    }
}

/// Hazard (d): a three-stratum program whose top stratum reads the bottom
/// one positively, on graphs where retractions condemn most of the closure.
/// Both outcomes — in-place repair and re-evaluation from the bottom
/// stratum — must occur, and every step must equal the recompute.
#[test]
fn cross_stratum_churn_repairs_small_cones_and_recomputes_large_ones() {
    for engine in [Engine::Stratified, Engine::WellFounded] {
        let (mut repaired, mut recomputed) = (0, 0);
        for (g, graph) in [
            DiGraph::cycle(6),
            DiGraph::cycle(9),
            strongly_connected_gnp(8, 0.35, 23),
            strongly_connected_gnp(10, 0.3, 24),
        ]
        .iter()
        .enumerate()
        {
            let db = graph.to_database("E");
            let (a, b) = churn(TC_CUT_MUTUAL, "E", &db, engine, 300 + g as u64, 30);
            repaired += a;
            recomputed += b;
        }
        assert!(
            repaired > 10,
            "{engine:?}: only {repaired} in-place repairs"
        );
        assert!(recomputed > 10, "{engine:?}: only {recomputed} recomputes");
    }
}

/// Deleting a cycle edge condemns the whole closure of the bottom stratum:
/// the repair stops overdeleting under the half-way mark and re-evaluates
/// everything. Restart engines report nothing.
#[test]
fn a_cone_past_half_the_model_recomputes_from_its_stratum() {
    let program = parse_program(&format!("{TC} Cut(x, y) :- E(x, y), !S(y, x).")).unwrap();
    let db = DiGraph::cycle(8).to_database("E");
    let edge = db.relation("E").unwrap().dense()[0].clone();
    let mut m = handle(&program, &db, Engine::Stratified);
    let live = m.interp().total_tuples();
    assert_eq!(m.retract(&[("E", edge.clone())]).unwrap(), 1);
    let stats = m.last_repair();
    assert_eq!(stats.recomputed_from, Some(0));
    assert!(
        2 * stats.cone <= live,
        "overdeleted {} of {live} before giving up",
        stats.cone
    );
    assert_eq!((stats.rederived, stats.added), (0, 0));
    assert_matches_recompute(&m, &program, "cycle edge retracted");
    // Closing the cycle again condemns nothing in `S` — plain top-up — but
    // every `Cut` edge above it.
    assert_eq!(m.insert(&[("E", edge.clone())]).unwrap(), 1);
    let stats = m.last_repair();
    assert_eq!((stats.cone, stats.recomputed_from), (0, Some(1)));
    assert_eq!(stats.added, 64 - 28);
    assert_matches_recompute(&m, &program, "cycle edge restored");

    let mut restart = handle(&program, &db, Engine::Inflationary);
    assert_eq!(restart.retract(&[("E", edge)]).unwrap(), 1);
    assert_eq!(restart.last_repair(), RepairStats::default());
}

/// The bound is taken per stratum, bottom up: an insert that only *adds* to
/// the bottom stratum but thereby condemns most of the stratum above it
/// repairs the former in place and re-evaluates from the latter.
#[test]
fn an_upper_stratum_can_recompute_above_a_repaired_lower_one() {
    let program = parse_program(REACH_UNREACH).unwrap();
    let mut db = DiGraph::path(10).to_database("E");
    for v in 0..10 {
        db.insert_named_fact("V", &[&format!("v{v}")]).unwrap();
    }
    db.insert_named_fact("Start", &["v0"]).unwrap();
    let first = Tuple::from_ids(&[0, 1]);
    db.relation_mut("E").unwrap().remove(&first);
    let mut m = handle(&program, &db, Engine::Stratified);
    let unreach = m.compiled().idb_id("Unreach").unwrap();
    assert_eq!(m.interp().get(unreach).len(), 10);
    assert_eq!(m.insert(&[("E", first)]).unwrap(), 1);
    let stats = m.last_repair();
    assert_eq!(stats.recomputed_from, Some(1), "{stats:?}");
    assert_eq!(stats.added, 9, "Reach(v1..v9), added in place");
    assert_eq!(m.interp().get(unreach).len(), 1);
    assert_matches_recompute(&m, &program, "first edge inserted");
}

/// Hazard (e): the comparison is against everything re-evaluation would
/// rebuild — strata ≥ k — not against stratum k alone. A one-tuple bottom
/// stratum that loses its only tuple under a large upper stratum is
/// repaired in place.
#[test]
fn a_tiny_low_stratum_losing_everything_does_not_trigger_a_recompute() {
    let src = "
        B(x) :- Blk(x).
        S(x, y) :- E(x, y), !B(x).
        S(x, y) :- S(x, z), E(z, y).
    ";
    let program = parse_program(src).unwrap();
    let mut db = DiGraph::path(12).to_database("E");
    db.insert_named_fact("Blk", &["v10"]).unwrap();
    let mut m = handle(&program, &db, Engine::Stratified);
    let (b, s) = (
        m.compiled().idb_id("B").unwrap(),
        m.compiled().idb_id("S").unwrap(),
    );
    assert_eq!(m.interp().get(b).len(), 1);
    let before = m.interp().get(s).len();
    assert_eq!(m.retract_named("Blk", &["v10"]).unwrap(), 1);
    let stats = m.last_repair();
    assert_eq!(
        stats,
        RepairStats {
            cone: 1,
            rederived: 0,
            added: 1, // S(v10, v11), no longer blocked
            recomputed_from: None,
        }
    );
    assert!(m.interp().get(b).is_empty());
    assert_eq!(m.interp().get(s).len(), before + 1);
    assert_matches_recompute(&m, &program, "blocker retracted");
}

/// Hazards (a) and (b): rederivation and top-up drain in one seeded
/// extension, so its rounds can (a) append a tuple the old model never held
/// — here `R(c)`, reached from the rederived `R(a)` once the lower stratum
/// dropped `B(c)` — which is an *addition* for the stratum above, and (b)
/// bring back a cone member the one-step check could not confirm — `R(b)`,
/// derivable only through `R(a)` — which is then *no removal*. Miscounting
/// either leaves `N(c)` in, or lets `N(b)` into, the top stratum.
#[test]
fn rederive_rounds_book_new_tuples_as_added_and_returning_ones_as_kept() {
    let src = "
        B(x) :- Blk(x).
        R(x) :- A1(x).
        R(x) :- A2(x).
        R(y) :- R(x), E(x, y), !B(y).
        N(x) :- V(x), !R(x).
    ";
    let program = parse_program(src).unwrap();
    let mut db = Database::new();
    for v in 0..12 {
        db.insert_named_fact("V", &[&format!("v{v}")]).unwrap();
    }
    let (a, b, c) = ("v0", "v1", "v2");
    db.insert_named_fact("A1", &[a]).unwrap();
    for v in [0, 4, 5, 6, 7, 8, 9] {
        db.insert_named_fact("A2", &[&format!("v{v}")]).unwrap();
    }
    db.insert_named_fact("E", &[a, b]).unwrap();
    db.insert_named_fact("E", &[a, c]).unwrap();
    db.insert_named_fact("Blk", &[c]).unwrap();
    db.insert_named_fact("Blk", &["v3"]).unwrap();
    let unary = |name: &str| Tuple::from_ids(&[db.universe().lookup(name).unwrap().id()]);
    for engine in [Engine::Stratified, Engine::WellFounded] {
        let mut m = handle(&program, &db, engine);
        let n = m.compiled().idb_id("N").unwrap();
        assert!(m.interp().get(n).contains(&unary(c)));
        let batch = [("Blk", unary(c)), ("A1", unary(a))];
        assert_eq!(m.retract(&batch).unwrap(), 2);
        assert_eq!(
            m.last_repair(),
            RepairStats {
                cone: 4,      // B(c); R(a), R(b); N(c)
                rederived: 2, // R(a) by the check, R(b) by a round
                added: 1,     // R(c)
                recomputed_from: None,
            },
            "{engine:?}"
        );
        assert!(!m.interp().get(n).contains(&unary(c)), "{engine:?}: N(c)");
        assert!(!m.interp().get(n).contains(&unary(b)), "{engine:?}: N(b)");
        assert_matches_recompute(&m, &program, &format!("{engine:?} two-relation retract"));
    }
}

// ---------------------------------------------------------------------------
// Fault injection: the transactional invariant under forced failures.
// ---------------------------------------------------------------------------

/// Bit-level snapshot of everything a [`Materialized`] handle owns that an
/// update may touch: the model, the undefined sets, and the database — each
/// relation in **dense (insertion) order**, strictly stronger than the
/// set-based equality the rest of the suite uses.
#[derive(Debug, PartialEq)]
struct Snapshot {
    idb: Vec<Vec<Tuple>>,
    undefined: Vec<Vec<Tuple>>,
    db: Vec<(String, Vec<Tuple>)>,
}

fn snapshot(m: &Materialized) -> Snapshot {
    let schema = m.database().schema();
    let mut db: Vec<(String, Vec<Tuple>)> = schema
        .iter()
        .map(|(name, _)| {
            let dense = m.database().relation(name).unwrap().dense().to_vec();
            (name.to_owned(), dense)
        })
        .collect();
    db.sort();
    Snapshot {
        idb: (0..m.interp().len())
            .map(|i| m.interp().get(i).dense().to_vec())
            .collect(),
        undefined: (0..m.undefined().len())
            .map(|i| m.undefined().get(i).dense().to_vec())
            .collect(),
        db,
    }
}

/// Options arming `site` to fire on its first hit.
fn armed(site: &str) -> EvalOptions {
    EvalOptions {
        failpoints: Failpoints::armed(site, 1),
        ..EvalOptions::sequential()
    }
}

/// One engine × program × database combination for the sweep. Covers both
/// repair strategies: delete–rederive (seminaive, stratified, and
/// well-founded on a stratifiable program) and restart (inflationary, and
/// well-founded on `WIN` over an odd cycle — which also exercises rollback
/// of non-empty undefined sets).
struct Workload {
    engine: Engine,
    src: &'static str,
    edge_rel: &'static str,
    db: Database,
}

fn workloads() -> Vec<Workload> {
    let mut reach_db = DiGraph::path(6).to_database("E");
    for v in 0..6 {
        reach_db
            .insert_named_fact("V", &[&format!("v{v}")])
            .unwrap();
    }
    reach_db.insert_named_fact("Start", &["v0"]).unwrap();
    vec![
        Workload {
            engine: Engine::Seminaive,
            src: TC,
            edge_rel: "E",
            db: DiGraph::cycle(5).to_database("E"),
        },
        Workload {
            engine: Engine::Stratified,
            src: REACH_UNREACH,
            edge_rel: "E",
            db: reach_db.clone(),
        },
        Workload {
            engine: Engine::WellFounded,
            src: REACH_UNREACH,
            edge_rel: "E",
            db: reach_db,
        },
        Workload {
            engine: Engine::Inflationary,
            src: TC,
            edge_rel: "E",
            db: DiGraph::cycle(5).to_database("E"),
        },
        Workload {
            engine: Engine::WellFounded,
            src: WIN,
            edge_rel: "Move",
            db: DiGraph::cycle(5).to_database("Move"),
        },
    ]
}

/// The tentpole acceptance test: abort a repair at **every** registered
/// failpoint site, in both update directions, on every engine. A fired
/// failpoint must leave the handle bit-identical to its pre-update state
/// (model, undefined sets, *and* database) and fully usable — the retried
/// batch goes through and lands on the recompute. A site that is not on
/// the update's path (e.g. the overdelete cone during a pure insert) must
/// not disturb a normal update. Every site must fire somewhere in the
/// sweep — a registered site the sweep cannot reach would be dead code —
/// and the `panic` site, which sits on every round boundary, must fire on
/// every update: a genuine panic takes `catch_unwind`'s rollback path.
#[test]
fn failpoint_sweep_rolls_back_every_site_on_every_engine() {
    let mut fired: BTreeSet<&str> = BTreeSet::new();
    for w in &workloads() {
        let program = parse_program(w.src).unwrap();
        for &site in EVAL_SITES {
            for inserting in [false, true] {
                let mut m = handle(&program, &w.db, w.engine);
                let t = if inserting {
                    // Absent in every workload graph (paths and cycles only
                    // have successor edges).
                    Tuple::from_ids(&[0, 2])
                } else {
                    m.database().relation(w.edge_rel).unwrap().dense()[0].clone()
                };
                let dir = if inserting { "insert" } else { "retract" };
                let label = format!("{:?}/{site}/{dir}", w.engine);
                let batch = [(w.edge_rel, t)];
                let pre = snapshot(&m);
                m.set_eval_options(armed(site));
                let result = if inserting {
                    m.insert(&batch)
                } else {
                    m.retract(&batch)
                };
                assert!(
                    site != SITE_PANIC || result.is_err(),
                    "{label}: the panic site must fire on every update"
                );
                match result {
                    Err(e) => {
                        fired.insert(site);
                        let expected = if site == SITE_PANIC {
                            matches!(e, EvalError::WorkerPanic { .. })
                        } else {
                            matches!(e, EvalError::FaultInjected { .. })
                        };
                        assert!(expected, "{label}: unexpected error {e:?}");
                        assert_eq!(snapshot(&m), pre, "{label}: rollback not bit-identical");
                        // The handle must remain fully usable: disarm and
                        // retry the identical batch.
                        m.set_eval_options(EvalOptions::sequential());
                        let changed = if inserting {
                            m.insert(&batch).unwrap()
                        } else {
                            m.retract(&batch).unwrap()
                        };
                        assert_eq!(changed, 1, "{label}: retried batch rejected");
                    }
                    Ok(changed) => {
                        assert_eq!(changed, 1, "{label}: armed-but-unreached update");
                    }
                }
                assert_matches_recompute(&m, &program, &label);
            }
        }
    }
    for site in EVAL_SITES {
        assert!(
            fired.contains(site),
            "site `{site}` never fired in the sweep"
        );
    }
}

/// Hazard (c): not just the first but *every* failpoint hit of a retract
/// rolls back bit-identically — on an update repaired in place and on one
/// that gives up overdeleting and re-evaluates. In the latter every `round`
/// hit (and all but the first `index-extend` ones) falls inside the
/// re-evaluation, after ten tuples were swap-removed and the relation
/// swapped out for a fresh one: the old relation and each extension's
/// watermarks must already be in the undo log, in that order, for the dense
/// orders to come back.
#[test]
fn every_failpoint_hit_rolls_back_in_place_repairs_and_recomputes() {
    let program = parse_program(TC).unwrap();
    for (graph, recomputes) in [(DiGraph::path(6), false), (DiGraph::cycle(5), true)] {
        let db = graph.to_database("E");
        let batch = [("E", db.relation("E").unwrap().dense()[0].clone())];
        for site in [
            SITE_ROUND,
            SITE_INDEX_EXTEND,
            SITE_OVERDELETE_CLOSE,
            SITE_REDERIVE_SWEEP,
        ] {
            let mut failures = 0;
            for hit in 1.. {
                let label = format!("recomputes={recomputes} {site}:{hit}");
                let mut m = handle(&program, &db, Engine::Seminaive);
                let pre = snapshot(&m);
                m.set_eval_options(EvalOptions {
                    failpoints: Failpoints::armed(site, hit),
                    ..EvalOptions::sequential()
                });
                let Err(e) = m.retract(&batch) else {
                    // Past the update's last hit of this site.
                    let from = m.last_repair().recomputed_from;
                    assert_eq!(from.is_some(), recomputes, "{label}");
                    break;
                };
                failures += 1;
                assert!(
                    matches!(e, EvalError::FaultInjected { .. }),
                    "{label}: {e:?}"
                );
                assert_eq!(snapshot(&m), pre, "{label}: rollback not bit-identical");
                assert_eq!(m.last_repair(), RepairStats::default(), "{label}");
                m.set_eval_options(EvalOptions::sequential());
                assert_eq!(m.retract(&batch).unwrap(), 1, "{label}: retry");
                assert_matches_recompute(&m, &program, &label);
            }
            // Every site is on the in-place path; the re-evaluation never
            // reaches the rederive pass and hits the others repeatedly.
            match (site, recomputes) {
                (SITE_REDERIVE_SWEEP, true) => assert_eq!(failures, 0),
                (_, true) => assert!(failures >= 2, "{site}: {failures} hits"),
                (_, false) => assert!(failures >= 1, "{site} never hit"),
            }
        }
    }
}

/// A failure inside a re-evaluation puts back the relations it swapped out
/// as they were. `Cut` sits above the condemned `S` and the overdeletion
/// never touched it, so it comes back with its id — the key of its warm
/// indexes — and keeps that id when the retry patches it.
#[test]
fn failpoint_in_a_recompute_puts_the_swapped_out_relation_back() {
    let program = parse_program(&format!("{TC} Cut(x, y) :- E(x, y), !S(y, x).")).unwrap();
    // An 8-cycle with a tail: `Cut(v7, v8)` is the one edge on no cycle.
    let graph = DiGraph::from_edges(9, (0..8).map(|i| (i, (i + 1) % 8)).chain([(7, 8)]));
    let mut m = handle(&program, &graph.to_database("E"), Engine::Stratified);
    let cut = m.compiled().idb_id("Cut").unwrap();
    let cut_id = m.interp().get(cut).id();
    assert_eq!(m.interp().get(cut).len(), 1);
    let batch = [("E", Tuple::from_ids(&[0, 1]))];
    let pre = snapshot(&m);
    m.set_eval_options(armed(SITE_ROUND));
    let err = m.retract(&batch).unwrap_err();
    assert!(matches!(err, EvalError::FaultInjected { .. }), "{err:?}");
    assert_eq!(snapshot(&m), pre, "rollback not bit-identical");
    assert_eq!(m.interp().get(cut).id(), cut_id, "rollback replaced Cut");
    m.set_eval_options(EvalOptions::sequential());
    assert_eq!(m.retract(&batch).unwrap(), 1);
    assert_eq!(m.last_repair().recomputed_from, Some(0));
    assert_eq!(m.interp().get(cut).len(), 8);
    assert_eq!(m.interp().get(cut).id(), cut_id, "the retry replaced Cut");
    assert_matches_recompute(&m, &program, "retried recompute");
}

/// A genuine panic inside a repair is contained: the update returns a typed
/// error instead of unwinding into the caller, and the rollback holds.
#[test]
fn worker_panic_is_contained_and_rolled_back() {
    let program = parse_program(TC).unwrap();
    let db = DiGraph::cycle(6).to_database("E");
    let mut m = handle(&program, &db, Engine::Seminaive);
    let pre = snapshot(&m);
    m.set_eval_options(armed(SITE_PANIC));
    let edge = db.relation("E").unwrap().dense()[0].clone();
    let err = m.retract(&[("E", edge.clone())]).unwrap_err();
    assert!(
        matches!(&err, EvalError::WorkerPanic { message } if message == "panic failpoint fired"),
        "expected the contained panic's own message, got {err:?}"
    );
    assert_eq!(snapshot(&m), pre, "panic rollback not bit-identical");
    m.set_eval_options(EvalOptions::sequential());
    assert_eq!(m.retract(&[("E", edge)]).unwrap(), 1);
    assert_matches_recompute(&m, &program, "retract after contained panic");
}

/// Randomized churn with a rotating armed failpoint and varying trigger
/// counts: whatever mixture of injected failures and clean updates the
/// schedule produces, every step either fully lands or fully rolls back,
/// and a clean retry always reconverges with the recompute.
#[test]
fn randomized_churn_with_rotating_failpoints_keeps_the_invariant() {
    let graph_db = {
        let mut rng = StdRng::seed_from_u64(5);
        DiGraph::random_gnp(7, 0.3, &mut rng).to_database("E")
    };
    let program = parse_program(TC).unwrap();
    for (e, engine) in [
        Engine::Seminaive,
        Engine::Stratified,
        Engine::Inflationary,
        Engine::WellFounded,
    ]
    .into_iter()
    .enumerate()
    {
        let mut m = handle(&program, &graph_db, engine);
        let mut rng = StdRng::seed_from_u64(1000 + e as u64);
        for step in 0..20 {
            let t = Tuple::from_ids(&[rng.gen_range(0..7), rng.gen_range(0..7)]);
            let present = m.contains("E", &t);
            let site = EVAL_SITES[step % EVAL_SITES.len()];
            let trigger = rng.gen_range(1..3);
            let label = format!("{engine:?} step {step} site {site}:{trigger}");
            let pre = snapshot(&m);
            m.set_eval_options(EvalOptions {
                failpoints: Failpoints::armed(site, trigger),
                ..EvalOptions::sequential()
            });
            let result = if present {
                m.retract(&[("E", t.clone())])
            } else {
                m.insert(&[("E", t.clone())])
            };
            m.set_eval_options(EvalOptions::sequential());
            if result.is_err() {
                assert_eq!(snapshot(&m), pre, "{label}: rollback not bit-identical");
                let changed = if present {
                    m.retract(&[("E", t)]).unwrap()
                } else {
                    m.insert(&[("E", t)]).unwrap()
                };
                assert_eq!(changed, 1, "{label}: retry");
            }
            assert_matches_recompute(&m, &program, &label);
        }
    }
}

/// Cancelling from another thread stops an in-flight evaluation with the
/// typed error, and a cancelled token makes a live handle's update roll
/// back — after which a clean configuration accepts the same batch.
#[test]
fn cross_thread_cancellation_stops_evaluation_and_rolls_back_updates() {
    let program = parse_program(TC).unwrap();
    let db = DiGraph::path(200).to_database("E");
    let token = CancelToken::new();
    let opts = EvalOptions {
        cancel: Some(token.clone()),
        ..EvalOptions::sequential()
    };
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            token.cancel();
        })
    };
    // The token is sticky, so this loop always terminates: either the
    // cancellation lands mid-flight, or — once flipped — the next
    // evaluation fails at its very first round boundary.
    let err = loop {
        if let Err(e) = Engine::Seminaive.evaluate(&program, &db, &opts) {
            break e;
        }
    };
    canceller.join().unwrap();
    assert_eq!(err, EvalError::Cancelled);

    let small = DiGraph::cycle(5).to_database("E");
    let mut m = handle(&program, &small, Engine::Seminaive);
    let pre = snapshot(&m);
    let edge = small.relation("E").unwrap().dense()[0].clone();
    m.set_eval_options(EvalOptions {
        cancel: Some(token),
        ..EvalOptions::sequential()
    });
    assert_eq!(
        m.retract(&[("E", edge.clone())]).unwrap_err(),
        EvalError::Cancelled
    );
    assert_eq!(snapshot(&m), pre, "cancellation rollback not bit-identical");
    m.set_eval_options(EvalOptions::sequential());
    assert_eq!(m.retract(&[("E", edge)]).unwrap(), 1);
    assert_matches_recompute(&m, &program, "retract after cancellation rollback");
}

/// A wall-clock deadline trips a deliberately slow program mid-flight. TC
/// on a 200-vertex path runs ~200 semi-naive rounds deriving ~20k tuples —
/// far beyond a 50µs budget on any hardware, so the evaluation cannot
/// finish before the deadline check at a round boundary catches it.
#[test]
fn deadline_budget_trips_a_deliberately_slow_program() {
    let program = parse_program(TC).unwrap();
    let db = DiGraph::path(200).to_database("E");
    let opts = EvalOptions {
        budget: Budget::with_deadline(Duration::from_micros(50)),
        ..EvalOptions::sequential()
    };
    let err = Engine::Seminaive
        .evaluate(&program, &db, &opts)
        .unwrap_err();
    assert!(
        matches!(
            err,
            EvalError::BudgetExceeded {
                kind: BudgetKind::Deadline,
                ..
            }
        ),
        "expected a deadline trip, got {err:?}"
    );
}

/// Round and tuple caps surface the same typed error from every engine.
/// (The naive reference engines take no options: they run ungoverned.)
#[test]
fn round_and_tuple_caps_surface_typed_errors_from_every_engine() {
    let program = parse_program(TC).unwrap();
    let db = DiGraph::path(8).to_database("E");
    let caps = [
        (Budget::with_max_rounds(2), BudgetKind::Rounds, 2),
        (Budget::with_max_tuples(3), BudgetKind::Tuples, 3),
    ];
    for (budget, kind, limit) in caps {
        let opts = EvalOptions {
            budget,
            ..EvalOptions::sequential()
        };
        for engine in [
            Engine::Seminaive,
            Engine::Stratified,
            Engine::Inflationary,
            Engine::WellFounded,
        ] {
            assert_eq!(
                engine.evaluate(&program, &db, &opts).unwrap_err(),
                EvalError::BudgetExceeded { kind, limit },
                "{engine:?}"
            );
        }
    }
}

/// CI drives this with `INFLOG_FAILPOINT=<site>[:<n>]` in the environment:
/// [`EvalOptions::default`] picks the armed failpoint up from the
/// environment, the governed update must fail, roll back bit-identically,
/// and accept a clean retry. Ignored by default — it asserts the variable
/// is set.
#[test]
#[ignore = "driven by CI with INFLOG_FAILPOINT set"]
fn env_driven_failpoint_rolls_back_the_update() {
    let program = parse_program(TC).unwrap();
    // Everything except the update under test must run with *explicit*
    // clean options: `EvalOptions::default()` re-parses `INFLOG_FAILPOINT`
    // on every call (fresh hit counter), so construction and recompute
    // would otherwise trip the armed site themselves.
    let clean = MaterializeOpts {
        engine: Engine::Seminaive,
        eval: EvalOptions::sequential(),
    };
    // One retract that re-evaluates (the cycle's whole closure is condemned)
    // and one repaired in place: every site lies on at least one of the two
    // paths, and an update the armed site is not on must go through.
    let mut fired = false;
    for graph in [DiGraph::cycle(5), DiGraph::path(6)] {
        let db = graph.to_database("E");
        let mut m = Materialized::new(&program, &db, &clean).unwrap();
        let opts = EvalOptions::default();
        assert!(
            opts.failpoints.is_armed(),
            "set INFLOG_FAILPOINT=<site> to run this test"
        );
        let pre = snapshot(&m);
        m.set_eval_options(opts);
        let edge = db.relation("E").unwrap().dense()[0].clone();
        if let Err(err) = m.retract(&[("E", edge.clone())]) {
            fired = true;
            assert!(
                matches!(
                    err,
                    EvalError::FaultInjected { .. } | EvalError::WorkerPanic { .. }
                ),
                "unexpected error {err:?}"
            );
            assert_eq!(
                snapshot(&m),
                pre,
                "env failpoint rollback not bit-identical"
            );
            m.set_eval_options(EvalOptions::sequential());
            assert_eq!(m.retract(&[("E", edge)]).unwrap(), 1);
        }
        // Compare against a clean handle over the updated database rather
        // than the env-sensitive recompute helpers.
        let fresh = Materialized::new(&program, m.database(), &clean).unwrap();
        assert_eq!(m.interp(), fresh.interp(), "diverged from recompute");
    }
    assert!(fired, "the armed site is on neither update's path");
}
