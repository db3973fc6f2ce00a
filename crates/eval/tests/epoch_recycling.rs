//! Publishing by patching a retired epoch ([`Materialized::publish_into`])
//! against the deep copy ([`Materialized::publish`]).
//!
//! Every maintained semantics is a deterministic function of the EDB, so an
//! epoch brought forward by the net changes of the updates after it must be
//! set-equal to a fresh copy of the committed state and pass
//! [`Epoch::matches_recompute`]. These tests publish into one cell after
//! every update, as the server's writer does, and check exactly that,
//! together with when the patch must give way to the copy: a pinned retired
//! epoch, a Restart engine, a rolled-back update, an epoch from another
//! handle. An update that deleted most of a stratum is patched like any
//! other.
//!
//! An epoch's read indexes are patched with it, so every epoch is also read
//! while it is current — every relation, in every goal shape — which builds
//! the indexes a later patch must carry forward; each answer, on a copy or
//! a patched epoch alike, must equal a scan-filter-sort over the epoch's
//! relations.

use inflog_core::failpoints::{Failpoints, SITE_ROUND};
use inflog_core::graphs::DiGraph;
use inflog_core::{Const, Database, Relation, Tuple, Universe};
use inflog_eval::materialize::{Engine, MaterializeOpts, Materialized, Published};
use inflog_eval::{Epoch, EpochCell, EvalOptions};
use inflog_syntax::{parse_atom, parse_program, Atom, Term};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::Arc;

const TC: &str = "S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).";
/// Not stratifiable; on odd cycles both relations are undefined, and the
/// binary one is read through an index.
const WIN: &str = "Win(x) :- Move(x, y), !Win(y). Good(x, y) :- Move(x, y), !Win(y).";
/// Three strata; retracting an edge of a strongly connected graph damages
/// most of `S`, and one that breaks the strong connection deletes much of
/// it.
const TC_CUT_MUTUAL: &str = "
    S(x, y) :- E(x, y).
    S(x, y) :- S(x, z), E(z, y).
    Cut(x, y) :- E(x, y), !S(y, x).
    T(x, y) :- S(x, y), S(y, x), !Cut(x, y).
";

fn handle(src: &str, db: &Database, engine: Engine) -> Materialized {
    let opts = MaterializeOpts {
        engine,
        ..MaterializeOpts::default()
    };
    Materialized::new(&parse_program(src).unwrap(), db, &opts).unwrap()
}

/// One cell a handle publishes into, with the oracle checks on each epoch.
struct Publisher {
    cell: EpochCell,
    recycled: usize,
    copied: usize,
}

impl Publisher {
    fn new(m: &Materialized) -> Publisher {
        let first = m.publish(0).unwrap();
        check_reads(&first, "epoch 0");
        Publisher {
            cell: EpochCell::new(first),
            recycled: 0,
            copied: 0,
        }
    }

    /// Publishes the handle's committed state, checks it against a deep
    /// copy, the recompute oracle and the read oracle, and returns what
    /// [`Materialized::publish_into`] reported.
    fn publish(&mut self, m: &mut Materialized, ctx: &str) -> Published {
        let number = self.cell.number() + 1;
        let published = m.publish_into(&self.cell, number).unwrap();
        let epoch = self.cell.pin();
        assert_eq!(epoch.number(), number, "{ctx}");
        assert_same_state(&epoch, &m.publish(number).unwrap(), ctx);
        assert!(
            epoch.matches_recompute(&EvalOptions::default()).unwrap(),
            "{ctx}: published epoch fails the recompute oracle"
        );
        check_reads(&epoch, ctx);
        if published.recycled {
            self.recycled += 1;
        } else {
            self.copied += 1;
        }
        published
    }
}

/// Reads every IDB and EDB relation of `epoch` in every goal shape and
/// checks each answer, true and undefined, against [`scan_filter_sort`].
fn check_reads(epoch: &Epoch, ctx: &str) {
    let cp = epoch.compiled();
    let universe = epoch.database().universe();
    let empty: Vec<Relation> = cp.edb_arities.iter().map(|&k| Relation::new(k)).collect();
    let mut relations: Vec<(&str, &Relation, &Relation)> = Vec::new();
    for (i, name) in cp.idb_names.iter().enumerate() {
        relations.push((name, epoch.interp().get(i), epoch.undefined().get(i)));
    }
    for (i, name) in cp.edb_names.iter().enumerate() {
        let rel = epoch.database().relation(name).unwrap();
        relations.push((name, rel, &empty[i]));
    }
    for (name, s, u) in relations {
        for goal in goal_shapes(name, s.arity(), universe) {
            let answer = epoch.select(&goal, None).unwrap();
            let at = format!("{ctx}: epoch {} {goal:?}", epoch.number());
            assert_eq!(answer.tuples, scan_filter_sort(s, &goal, universe), "{at}");
            assert_eq!(
                answer.undefined,
                scan_filter_sort(u, &goal, universe),
                "{at}"
            );
        }
    }
}

/// Goals over `pred` covering each set of bound columns: points, each
/// column bound alone, a repeated variable, and the open goal.
fn goal_shapes(pred: &str, arity: usize, universe: &Universe) -> Vec<Atom> {
    let names: Vec<&str> = universe.iter_named().map(|(_, name)| name).collect();
    let sample: Vec<&str> = names.iter().step_by(3).copied().collect();
    let mut shapes = Vec::new();
    match arity {
        1 => {
            shapes.push(format!("{pred}(x)"));
            shapes.extend(names.iter().map(|a| format!("{pred}('{a}')")));
        }
        2 => {
            shapes.push(format!("{pred}(x, y)"));
            shapes.push(format!("{pred}(x, x)"));
            for a in &names {
                shapes.push(format!("{pred}('{a}', y)"));
                shapes.push(format!("{pred}(x, '{a}')"));
            }
            for a in &sample {
                shapes.extend(sample.iter().map(|b| format!("{pred}('{a}', '{b}')")));
            }
        }
        _ => panic!("no goal shapes for arity {arity}"),
    }
    shapes.iter().map(|s| parse_atom(s).unwrap()).collect()
}

/// The oracle: every tuple of `rel` that unifies with `goal`, sorted.
fn scan_filter_sort(rel: &Relation, goal: &Atom, universe: &Universe) -> Vec<Tuple> {
    let unifies = |t: &Tuple| {
        let mut env: HashMap<&str, Const> = HashMap::new();
        goal.terms
            .iter()
            .zip(t.items())
            .all(|(term, &c)| match term {
                Term::Const(name) => universe.lookup(name) == Some(c),
                Term::Var(v) => *env.entry(v).or_insert(c) == c,
            })
    };
    let mut out: Vec<Tuple> = rel.iter().filter(|t| unifies(t)).cloned().collect();
    out.sort();
    out
}

fn assert_same_state(got: &Epoch, want: &Epoch, ctx: &str) {
    assert_eq!(got.interp(), want.interp(), "{ctx}: model");
    assert_eq!(got.undefined(), want.undefined(), "{ctx}: undefined set");
    assert_eq!(got.database(), want.database(), "{ctx}: database");
}

/// Flips random forward edges `u → v`, `u < v` (one in eight a deliberate
/// no-op), and publishes after every update; returns the (recycled,
/// copied) publish counts and how many updates deleted tuples.
fn churn(src: &str, rel: &str, db: &Database, engine: Engine, seed: u64) -> (usize, usize, usize) {
    let mut m = handle(src, db, engine);
    let mut publisher = Publisher::new(&m);
    let mut deleting = 0;
    let n = db.universe_size() as u32;
    let mut rng = StdRng::seed_from_u64(seed);
    for step in 0..40 {
        let u = rng.gen_range(0..n - 1);
        let t = Tuple::from_ids(&[u, rng.gen_range(u + 1..n)]);
        let present = m.contains(rel, &t);
        let inserting = present == (rng.gen_range(0u32..8) == 0);
        if inserting {
            m.insert(&[(rel, t)]).unwrap();
        } else {
            m.retract(&[(rel, t)]).unwrap();
        }
        deleting += usize::from(m.last_repair().deleted > 0);
        publisher.publish(&mut m, &format!("{engine:?} seed {seed} step {step}"));
    }
    (publisher.recycled, publisher.copied, deleting)
}

#[test]
fn churn_publishes_recycled_epochs_equal_to_deep_copies_on_every_engine() {
    let mut rng = StdRng::seed_from_u64(5);
    let graphs = [
        DiGraph::path(7),
        DiGraph::random_dag(10, 0.3, &mut rng),
        DiGraph::random_dag(12, 0.2, &mut rng),
    ];
    for engine in [
        Engine::Seminaive,
        Engine::Stratified,
        Engine::WellFounded,
        Engine::Inflationary,
    ] {
        let (mut recycled, mut copied) = (0, 0);
        for (g, graph) in graphs.iter().enumerate() {
            let (r, c, _) = churn(TC, "E", &graph.to_database("E"), engine, 40 + g as u64);
            recycled += r;
            copied += c;
        }
        if engine == Engine::Inflationary {
            // Restart engine: only no-op batches know their change, so only
            // the odd publish straddling two of them may recycle.
            assert!(copied > 5 * recycled, "{engine:?}: {recycled} recycled");
        } else {
            // Repair by proof: everything but each churn's first publish.
            assert_eq!(copied, graphs.len(), "{engine:?}: {recycled} recycled");
        }
    }
}

#[test]
fn churn_across_strata_recycles_through_deletions() {
    for engine in [Engine::Stratified, Engine::WellFounded] {
        let mut rng = StdRng::seed_from_u64(9);
        let db = loop {
            let g = DiGraph::random_gnp(8, 0.35, &mut rng);
            if g.transitive_closure().len() == 64 {
                break g.to_database("E");
            }
        };
        let (recycled, copied, deleting) = churn(TC_CUT_MUTUAL, "E", &db, engine, 77);
        assert!(deleting > 0, "{engine:?}: no update deleted");
        assert_eq!(
            (recycled, copied),
            (39, 1),
            "{engine:?}: only the first publish copies"
        );
    }
}

#[test]
fn non_stratifiable_well_founded_restarts_and_always_copies() {
    let db = DiGraph::cycle(5).to_database("Move");
    let mut m = handle(WIN, &db, Engine::WellFounded);
    let good = m.compiled().idb_id("Good").unwrap();
    assert_eq!(m.undefined().get(good).len(), 5);
    let mut publisher = Publisher::new(&m);
    for (i, edge) in [["v0", "v2"], ["v1", "v3"], ["v0", "v2"]]
        .iter()
        .enumerate()
    {
        if i == 2 {
            m.retract_named("Move", edge).unwrap();
        } else {
            m.insert_named("Move", edge).unwrap();
        }
        let published = publisher.publish(&mut m, &format!("win step {i}"));
        // Restart updates know no change: from the second publish on, the
        // retired epoch is there, unpinned, and still goes unused.
        assert!(!published.recycled);
        assert_eq!(published.unused.is_some(), i > 0, "win step {i}");
    }
}

#[test]
fn a_retract_that_deletes_most_of_a_stratum_is_patched_like_any_other() {
    let src = format!("{TC} Cut(x, y) :- E(x, y), !S(y, x).");
    let db = DiGraph::cycle(8).to_database("E");
    let mut m = handle(&src, &db, Engine::Stratified);
    let mut publisher = Publisher::new(&m);
    m.insert_named("E", &["v0", "v0"]).unwrap();
    let first = publisher.publish(&mut m, "first publish has nothing retired");
    assert!(!first.recycled && first.unused.is_none());
    m.retract_named("E", &["v0", "v1"]).unwrap();
    // The closure of the path `v1 → … → v7 → v0` and the loop stays.
    assert_eq!(m.last_repair().deleted, 64 - (28 + 1));
    assert!(publisher.publish(&mut m, "breaking retract").recycled);
    m.retract_named("E", &["v0", "v0"]).unwrap();
    assert!(publisher.publish(&mut m, "one past the break").recycled);
    // Closing the cycle again deletes every `Cut` edge above a grown `S`.
    m.insert_named("E", &["v0", "v1"]).unwrap();
    assert_eq!(m.last_repair().deleted, 7);
    assert!(publisher.publish(&mut m, "closing insert").recycled);
}

#[test]
fn a_no_op_batch_is_an_empty_change() {
    let db = DiGraph::path(5).to_database("E");
    let mut m = handle(TC, &db, Engine::Seminaive);
    let mut publisher = Publisher::new(&m);
    assert_eq!(m.insert_named("E", &["v0", "v1"]).unwrap(), 0);
    publisher.publish(&mut m, "no-op insert");
    assert_eq!(m.retract_named("E", &["v4", "v0"]).unwrap(), 0);
    assert!(publisher.publish(&mut m, "no-op retract").recycled);
    assert_eq!(m.insert_named("E", &["v4", "v0"]).unwrap(), 1);
    assert!(
        publisher
            .publish(&mut m, "real insert after two no-ops")
            .recycled
    );
}

/// Arms a one-shot failure at the first round of the next repair.
fn fail_next_round(m: &mut Materialized) {
    m.set_eval_options(EvalOptions {
        failpoints: Failpoints::armed(SITE_ROUND, 1),
        ..EvalOptions::sequential()
    });
}

#[test]
fn a_rolled_back_update_between_publishes_keeps_the_patch_exact() {
    let db = DiGraph::path(8).to_database("E");
    let mut m = handle(TC, &db, Engine::Stratified);
    let mut publisher = Publisher::new(&m);
    m.retract_named("E", &["v0", "v1"]).unwrap();
    publisher.publish(&mut m, "before the failure");
    fail_next_round(&mut m);
    assert!(m.retract_named("E", &["v6", "v7"]).is_err());
    m.set_eval_options(EvalOptions::sequential());
    m.insert_named("E", &["v0", "v1"]).unwrap();
    assert!(publisher.publish(&mut m, "after the failure").recycled);
    // A failed update commits no change, so a publish right after it has
    // nothing to patch the retired epoch by.
    fail_next_round(&mut m);
    assert!(m.retract_named("E", &["v6", "v7"]).is_err());
    let published = publisher.publish(&mut m, "right after the failure");
    assert!(!published.recycled && published.unused.is_some());
    m.set_eval_options(EvalOptions::sequential());
    m.retract_named("E", &["v6", "v7"]).unwrap();
    assert!(
        !publisher
            .publish(&mut m, "the failed batch, retried")
            .recycled
    );
    m.insert_named("E", &["v6", "v7"]).unwrap();
    assert!(publisher.publish(&mut m, "two past the failure").recycled);
}

#[test]
fn a_rolled_back_first_insert_into_an_undeclared_relation_leaves_no_trace() {
    // `F` is not in the database: the handle declares it, so rolling back
    // its first fact leaves the database as it was.
    let mut db = Database::new();
    db.insert_named_fact("S", &["a", "a"]).unwrap();
    db.universe_mut().intern("b");
    let mut m = handle("T(x) :- F(x), S(x, x).", &db, Engine::Stratified);
    let mut publisher = Publisher::new(&m);
    m.insert_named("S", &["b", "b"]).unwrap();
    publisher.publish(&mut m, "before the failure");
    let before = m.database().clone();
    fail_next_round(&mut m);
    assert!(m.insert_named("F", &["a"]).is_err());
    assert_eq!(m.database(), &before, "the rollback changed the database");
    m.set_eval_options(EvalOptions::sequential());
    m.retract_named("S", &["b", "b"]).unwrap();
    assert!(publisher.publish(&mut m, "after the failure").recycled);
    m.insert_named("F", &["a"]).unwrap();
    assert!(
        publisher
            .publish(&mut m, "the failed fact, retried")
            .recycled
    );
}

#[test]
fn a_pinned_retired_epoch_is_copied_around_and_never_touched() {
    let db = DiGraph::path(6).to_database("E");
    let mut m = handle(TC, &db, Engine::Stratified);
    let mut publisher = Publisher::new(&m);
    let reader = publisher.cell.pin();
    let goal = parse_atom("S(x, y)").unwrap();
    let before = reader.select(&goal, None).unwrap();
    m.insert_named("E", &["v0", "v2"]).unwrap();
    publisher.publish(&mut m, "epoch 1");
    m.retract_named("E", &["v4", "v5"]).unwrap();
    let published = publisher.publish(&mut m, "retired epoch pinned");
    assert!(!published.recycled);
    assert!(published.unused.is_some_and(|e| Arc::ptr_eq(&e, &reader)));
    assert_eq!(reader.number(), 0);
    assert_eq!(reader.select(&goal, None).unwrap().tuples, before.tuples);
    assert!(reader.matches_recompute(&EvalOptions::default()).unwrap());
    drop(reader);
    m.insert_named("E", &["v4", "v5"]).unwrap();
    assert!(publisher.publish(&mut m, "pin released").recycled);
}

#[test]
fn an_epoch_of_another_handle_is_never_patched() {
    // Two handles publish into one cell: the twin's epoch 0, then `m`'s.
    let db = DiGraph::path(4).to_database("E");
    let mut m = handle(TC, &db, Engine::Stratified);
    let twin = handle(TC, &db, Engine::Stratified);
    let cell = EpochCell::new(twin.publish(0).unwrap());
    m.insert_named("E", &["v3", "v0"]).unwrap();
    let first = m.publish_into(&cell, 1).unwrap();
    assert!(!first.recycled && first.unused.is_none());
    // `m` now retires the twin's epoch, whose state number and the changes
    // since would line up with its own.
    m.retract_named("E", &["v3", "v0"]).unwrap();
    let second = m.publish_into(&cell, 2).unwrap();
    assert!(!second.recycled);
    assert!(second
        .unused
        .is_some_and(|e| e.number() == 0 && e.interp() == twin.interp()));
    assert_same_state(&cell.pin(), &m.publish(2).unwrap(), "foreign retired epoch");
}
