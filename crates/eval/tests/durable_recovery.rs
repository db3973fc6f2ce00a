//! Crash recovery for [`DurableMaterialized`]: the kill-and-recover sweep.
//!
//! Every semantics the handle maintains is a deterministic function of the
//! EDB — the paper's central observation. Recovery relies on it: it folds
//! the WAL into the snapshot's EDB and evaluates once, without repeating
//! the repairs the uncrashed handle made. The oracle ([`assert_recovered`])
//! therefore checks the recovered handle three ways against the handle it
//! stands in for (the pre-crash handle, or an uncrashed shadow fed the same
//! updates):
//!
//! * (a) the EDB is identical down to dense tuple order;
//! * (b) the model and the undefined set are identical, down to dense
//!   order, to [`Materialized::new`] over the recovered EDB;
//! * (c) the model and the undefined set equal the shadow's as sets;
//!
//! plus a from-scratch recompute by the standalone engines. Dense order of
//! the model is not observable: reads sort, and a recovered handle's first
//! publish deep-copies. The suite drives:
//!
//! * create → churn → reopen round trips on all four engines;
//! * records that do not fit the program: a typed error, the directory
//!   untouched;
//! * an in-process failpoint sweep over **every** registered store site,
//!   asserting that recovery either restores the last committed epoch
//!   exactly or fails with a typed [`StoreError`] naming the corrupt
//!   offset — never a wrong answer — and that a recovered handle accepts
//!   further updates;
//! * randomized churn with a simulated crash after every k-th WAL record;
//! * a subprocess kill-and-recover pass: a child process churns in a store
//!   directory and `abort()`s (at an injected fault or between commits),
//!   then the parent recovers the directory and checks it against a replay
//!   of the child's acknowledged prefix.

use inflog_core::failpoints::{
    Failpoints, SITE_COMPACT_TRUNCATE, SITE_SNAPSHOT_RENAME, SITE_WAL_APPEND_SYNC,
    SITE_WAL_BIT_FLIP, SITE_WAL_TORN_WRITE, SITE_WAL_TRUNCATED_TAIL, STORE_SITES,
};
use inflog_core::graphs::DiGraph;
use inflog_core::{Database, Tuple};
use inflog_eval::durable::{DurableMaterialized, DurableOpts};
use inflog_eval::materialize::{Engine, MaterializeOpts, Materialized};
use inflog_eval::{
    inflationary, least_fixpoint_seminaive, stratified_eval, well_founded, EvalError, EvalOptions,
    Interp,
};
use inflog_store::{fsck, Store, StoreError, StoreOptions, WalOp, WalRecord};
use inflog_syntax::{parse_program, Program};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write as _;
use std::path::PathBuf;

const TC: &str = "S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).";
const WIN: &str = "Win(x) :- Move(x, y), !Win(y).";
const REACH_UNREACH: &str = "
    Reach(y) :- Start(x), E(x, y).
    Reach(y) :- Reach(x), E(x, y).
    Unreach(x) :- V(x), !Reach(x).
";

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One engine workload: program, churned relation, database.
fn workloads() -> Vec<(&'static str, &'static str, Database, Engine)> {
    let mut rng = StdRng::seed_from_u64(41);
    let reach_db = {
        let mut db = DiGraph::path(5).to_database("E");
        for v in ["v0", "v1", "v2", "v3", "v4"] {
            db.insert_named_fact("V", &[v]).unwrap();
        }
        db.insert_named_fact("Start", &["v0"]).unwrap();
        db
    };
    vec![
        (
            TC,
            "E",
            DiGraph::path(6).to_database("E"),
            Engine::Seminaive,
        ),
        (REACH_UNREACH, "E", reach_db, Engine::Stratified),
        (
            TC,
            "E",
            DiGraph::random_gnp(6, 0.25, &mut rng).to_database("E"),
            Engine::Inflationary,
        ),
        (
            WIN,
            "Move",
            DiGraph::cycle(5).to_database("Move"),
            Engine::WellFounded,
        ),
    ]
}

/// Set-level oracle: the handle equals a from-scratch evaluation of its
/// engine over its current database.
fn assert_matches_recompute(m: &Materialized, program: &Program, ctx: &str) {
    let db = m.database();
    match m.engine() {
        Engine::Seminaive => {
            let (s, _) = least_fixpoint_seminaive(program, db).unwrap();
            assert_eq!(*m.interp(), s, "{ctx}: seminaive diverged");
        }
        Engine::Stratified => {
            let (s, _) = stratified_eval(program, db).unwrap();
            assert_eq!(*m.interp(), s, "{ctx}: stratified diverged");
        }
        Engine::Inflationary => {
            let (s, _) = inflationary(program, db).unwrap();
            assert_eq!(*m.interp(), s, "{ctx}: inflationary diverged");
        }
        Engine::WellFounded => {
            let model = well_founded(program, db).unwrap();
            assert_eq!(*m.interp(), model.true_facts, "{ctx}: wf diverged");
            assert_eq!(*m.undefined(), model.undefined, "{ctx}: wf undefined");
        }
    }
}

/// Dense tuple order of every relation of `interp`, by IDB index.
fn dense(interp: &Interp) -> Vec<Vec<Tuple>> {
    interp
        .relations()
        .iter()
        .map(|r| r.dense().to_vec())
        .collect()
}

/// Every database relation with its tuples in dense order, by name.
type DenseEdb = Vec<(String, Vec<Tuple>)>;

fn dense_edb(db: &Database) -> DenseEdb {
    db.iter()
        .map(|(name, rel)| (name.to_string(), rel.dense().to_vec()))
        .collect()
}

/// Every relation of the handle in dense order: what a rolled-back
/// in-memory update must leave exactly as it was.
fn dense_fingerprint(m: &Materialized) -> (DenseEdb, Vec<Vec<Tuple>>) {
    let mut idb = dense(m.interp());
    idb.extend(dense(m.undefined()));
    (dense_edb(m.database()), idb)
}

/// What a recovery must reproduce of the handle it stands in for.
struct Committed {
    epoch: u64,
    edb: DenseEdb,
    model: Interp,
    undefined: Interp,
}

impl Committed {
    fn of(m: &Materialized, epoch: u64) -> Committed {
        Committed {
            epoch,
            edb: dense_edb(m.database()),
            model: m.interp().clone(),
            undefined: m.undefined().clone(),
        }
    }
}

/// The recovery oracle (see the module docs): epoch, then (a) EDB
/// dense-identical to `want`, (b) model and undefined set dense-identical
/// to [`Materialized::new`] over the recovered EDB, (c) both set-equal to
/// `want`, then a from-scratch recompute.
fn assert_recovered(dm: &DurableMaterialized, want: &Committed, program: &Program, ctx: &str) {
    let m = dm.handle();
    assert_eq!(dm.epoch(), want.epoch, "{ctx}: wrong recovered epoch");
    assert_eq!(dense_edb(m.database()), want.edb, "{ctx}: (a) EDB differs");
    let opts = MaterializeOpts {
        engine: m.engine(),
        eval: EvalOptions::sequential(),
    };
    let fresh = Materialized::new(program, m.database(), &opts).unwrap();
    assert_eq!(
        dense(m.interp()),
        dense(fresh.interp()),
        "{ctx}: (b) model differs from a fresh evaluation"
    );
    assert_eq!(
        dense(m.undefined()),
        dense(fresh.undefined()),
        "{ctx}: (b) undefined set differs from a fresh evaluation"
    );
    assert_eq!(*m.interp(), want.model, "{ctx}: (c) model differs");
    assert_eq!(
        *m.undefined(),
        want.undefined,
        "{ctx}: (c) undefined set differs"
    );
    assert_matches_recompute(m, program, ctx);
}

/// Durable options with `fp` as the one failpoint arming.
fn armed(fp: Failpoints) -> DurableOpts {
    DurableOpts {
        eval: EvalOptions {
            failpoints: fp,
            ..EvalOptions::sequential()
        },
        ..DurableOpts::default()
    }
}

/// Durable options that stay unarmed under a CI pass that sets
/// `INFLOG_FAILPOINT`, which [`DurableOpts::default`] would pick up.
fn clean() -> DurableOpts {
    armed(Failpoints::none())
}

fn flip(dm: &mut DurableMaterialized, rel: &str, t: Tuple) -> usize {
    if dm.handle().contains(rel, &t) {
        dm.retract(&[(rel, t)]).unwrap()
    } else {
        dm.insert(&[(rel, t)]).unwrap()
    }
}

#[test]
fn create_open_round_trip_all_engines() {
    for (src, rel, db, engine) in workloads() {
        let program = parse_program(src).unwrap();
        let dir = tmp_dir(&format!("round_trip_{engine:?}"));
        let opts = DurableOpts {
            engine,
            ..DurableOpts::default()
        };
        let mut dm = DurableMaterialized::create(&program, &db, &dir, &opts).unwrap();
        let n = db.universe_size() as u32;
        let mut rng = StdRng::seed_from_u64(engine as u64 + 5);
        for _ in 0..6 {
            let t = Tuple::from_ids(&[rng.gen_range(0..n), rng.gen_range(0..n)]);
            flip(&mut dm, rel, t);
        }
        let pre = Committed::of(dm.handle(), dm.epoch());
        drop(dm);

        let mut dm = DurableMaterialized::open(&program, &dir, &opts).unwrap();
        assert_recovered(&dm, &pre, &program, &format!("{engine:?} after open"));

        // The recovered handle stays live: more churn, then compaction, then
        // another recovery.
        for _ in 0..3 {
            let t = Tuple::from_ids(&[rng.gen_range(0..n), rng.gen_range(0..n)]);
            flip(&mut dm, rel, t);
        }
        dm.compact().unwrap();
        let pre = Committed::of(dm.handle(), dm.epoch());
        drop(dm);
        // The snapshot holds the committed epoch and the WAL nothing.
        let (_, state, records) = Store::open(&dir, &StoreOptions::default()).unwrap();
        assert_eq!((state.epoch, records.len()), (pre.epoch, 0), "{engine:?}");
        let dm = DurableMaterialized::open(&program, &dir, &opts).unwrap();
        assert_recovered(&dm, &pre, &program, &format!("{engine:?} post-compact"));
    }
}

#[test]
fn no_op_batches_commit_epochs_and_replay() {
    let program = parse_program(TC).unwrap();
    let db = DiGraph::path(4).to_database("E");
    let dir = tmp_dir("no_op_epochs");
    let opts = DurableOpts::default();
    let mut dm = DurableMaterialized::create(&program, &db, &dir, &opts).unwrap();
    let present = Tuple::from_ids(&[0, 1]);
    // Inserting a present fact changes nothing but still commits an epoch:
    // the WAL record count must equal the epoch delta.
    assert_eq!(dm.insert(&[("E", present.clone())]).unwrap(), 0);
    assert_eq!(dm.retract(&[("E", Tuple::from_ids(&[0, 3]))]).unwrap(), 0);
    assert_eq!(dm.epoch(), 2);
    drop(dm);
    let dm = DurableMaterialized::open(&program, &dir, &opts).unwrap();
    assert_eq!(dm.epoch(), 2);
    assert_matches_recompute(dm.handle(), &program, "after no-op replay");
}

/// The WAL can change which EDB relation is the smaller one (`Start`
/// grows past `E`, `V` shrinks below both), and plans break scan-order
/// ties by EDB size. The handle was compiled over the snapshot's sizes, so
/// this pins that the evaluation still comes out as `new` over the folded
/// EDB, down to dense order.
#[test]
fn recovery_evaluates_as_new_over_the_folded_edb() {
    let program = parse_program(REACH_UNREACH).unwrap();
    for engine in [
        Engine::Stratified,
        Engine::Inflationary,
        Engine::WellFounded,
    ] {
        let mut db = DiGraph::path(8).to_database("E");
        for v in 0..8 {
            db.insert_named_fact("V", &[&format!("v{v}")]).unwrap();
        }
        db.insert_named_fact("Start", &["v0"]).unwrap();
        let dir = tmp_dir(&format!("folded_plans_{engine:?}"));
        let opts = DurableOpts { engine, ..clean() };
        let mut dm = DurableMaterialized::create(&program, &db, &dir, &opts).unwrap();
        for v in 1..8u32 {
            dm.insert(&[("Start", Tuple::from_ids(&[v]))]).unwrap();
        }
        for (a, b) in [(7, 0), (3, 1), (5, 2)] {
            dm.retract(&[("E", Tuple::from_ids(&[a - 1, a]))]).unwrap();
            dm.insert(&[("E", Tuple::from_ids(&[a, b]))]).unwrap();
        }
        for v in 0..6u32 {
            dm.retract(&[("V", Tuple::from_ids(&[v]))]).unwrap();
        }
        let pre = Committed::of(dm.handle(), dm.epoch());
        drop(dm);
        let dm = DurableMaterialized::open(&program, &dir, &opts).unwrap();
        assert_recovered(&dm, &pre, &program, &format!("{engine:?}"));
    }
}

/// Every file in `dir` with its bytes, by name.
fn dir_bytes(dir: &std::path::Path) -> Vec<(std::ffi::OsString, Vec<u8>)> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            (e.file_name(), std::fs::read(e.path()).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// A checksum-valid WAL record that does not fit the program — a relation
/// it does not read, a wrong arity, a constant outside the universe — fails
/// recovery with the typed error the same batch gets from the in-memory
/// handle, and leaves the directory as it was.
#[test]
fn records_that_do_not_fit_fail_typed_and_leave_the_directory() {
    let program = parse_program(TC).unwrap();
    let db = DiGraph::path(4).to_database("E");
    let cases = [
        (
            "unknown_relation",
            WalOp::Insert,
            "F",
            Tuple::from_ids(&[0, 1]),
        ),
        ("wrong_arity", WalOp::Retract, "E", Tuple::from_ids(&[0])),
        (
            "unknown_constant",
            WalOp::Insert,
            "E",
            Tuple::from_ids(&[0, 99]),
        ),
    ];
    for (label, op, rel, t) in cases {
        let dir = tmp_dir(&format!("misfit_{label}"));
        let mut dm = DurableMaterialized::create(&program, &db, &dir, &clean()).unwrap();
        dm.insert(&[("E", Tuple::from_ids(&[0, 2]))]).unwrap();
        drop(dm);
        let (mut store, _, _) = Store::open(&dir, &StoreOptions::default()).unwrap();
        let facts = vec![(rel.to_string(), t.clone())];
        store
            .append(&WalRecord {
                epoch: 2,
                op,
                facts,
            })
            .unwrap();
        drop(store);

        let before = dir_bytes(&dir);
        let err = DurableMaterialized::open(&program, &dir, &clean()).unwrap_err();
        let mut m = Materialized::new(&program, &db, &MaterializeOpts::default()).unwrap();
        let batch = [(rel, t)];
        let want = match op {
            WalOp::Insert => m.insert(&batch),
            WalOp::Retract => m.retract(&batch),
        }
        .unwrap_err();
        assert_eq!(err, want, "{label}");
        assert!(
            matches!(
                (label, &err),
                ("unknown_relation", EvalError::UnknownRelation { .. })
                    | ("wrong_arity", EvalError::ArityMismatch { .. })
                    | ("unknown_constant", EvalError::UnknownConstant { .. })
            ),
            "{label}: {err:?}"
        );
        assert_eq!(
            dir_bytes(&dir),
            before,
            "{label}: recovery changed the directory"
        );
    }
}

/// The in-process sweep body: set up committed state, re-open the directory
/// with `fp` armed at `site`, provoke the crash window, and verify recovery
/// restores the last committed epoch bit-identically — or fails with a typed
/// corrupt-frame error — and that a recovered handle accepts further updates.
fn sweep_site(site: &str, fp: Failpoints) {
    let program = parse_program(TC).unwrap();
    let db = DiGraph::path(5).to_database("E");
    let dir = tmp_dir(&format!("sweep_{site}"));
    let mut dm = DurableMaterialized::create(&program, &db, &dir, &clean()).unwrap();
    dm.insert(&[("E", Tuple::from_ids(&[0, 2]))]).unwrap();
    dm.retract(&[("E", Tuple::from_ids(&[1, 2]))]).unwrap();
    let pre_epoch = dm.epoch();
    let pre = Committed::of(dm.handle(), pre_epoch);
    drop(dm);

    // Re-open with the failpoint armed (recovery itself appends nothing, so
    // the site cannot fire early), then provoke it.
    let mut dm = DurableMaterialized::open(&program, &dir, &armed(fp)).unwrap();
    assert_recovered(&dm, &pre, &program, site);
    let pre_fp = dense_fingerprint(dm.handle());
    let next = ("E", Tuple::from_ids(&[2, 0]));

    match site {
        s if s == SITE_WAL_TORN_WRITE || s == SITE_WAL_TRUNCATED_TAIL => {
            // The append dies mid-frame: typed error, memory untouched, log
            // poisoned until recovery.
            let err = dm.insert(std::slice::from_ref(&next)).unwrap_err();
            assert!(
                matches!(
                    &err,
                    EvalError::Store {
                        source: StoreError::FaultInjected { .. }
                    }
                ),
                "{site}: {err:?}"
            );
            assert_eq!(
                dm.epoch(),
                pre_epoch,
                "{site}: epoch advanced past a failed append"
            );
            assert_eq!(
                dense_fingerprint(dm.handle()),
                pre_fp,
                "{site}: memory changed"
            );
            let err = dm.insert(std::slice::from_ref(&next)).unwrap_err();
            assert!(
                matches!(
                    &err,
                    EvalError::Store {
                        source: StoreError::Poisoned { .. }
                    }
                ),
                "{site}: {err:?}"
            );
            drop(dm);
            // Recovery truncates the torn tail: the last committed epoch.
            let dm = recover_expecting(&program, &dir, &pre, site);
            accepts_updates(dm, &program, next, site);
        }
        s if s == SITE_WAL_APPEND_SYNC => {
            // The record is fully written but never fsynced or acknowledged:
            // recovery may legitimately replay it, and here (same filesystem,
            // no real power loss) it will.
            let err = dm.insert(std::slice::from_ref(&next)).unwrap_err();
            assert!(
                matches!(
                    &err,
                    EvalError::Store {
                        source: StoreError::FaultInjected { .. }
                    }
                ),
                "{site}: {err:?}"
            );
            assert_eq!(dm.epoch(), pre_epoch, "{site}");
            assert_eq!(
                dense_fingerprint(dm.handle()),
                pre_fp,
                "{site}: memory changed"
            );
            drop(dm);
            let dm = DurableMaterialized::open(&program, &dir, &clean()).unwrap();
            assert_eq!(
                dm.epoch(),
                pre_epoch + 1,
                "{site}: the durable record replays"
            );
            assert!(dm.handle().contains(next.0, &next.1), "{site}");
            assert_matches_recompute(dm.handle(), &program, site);
            accepts_updates(dm, &program, ("E", Tuple::from_ids(&[3, 0])), site);
        }
        s if s == SITE_WAL_BIT_FLIP => {
            // Silent media corruption: the update "succeeds"...
            dm.insert(std::slice::from_ref(&next)).unwrap();
            assert_eq!(dm.epoch(), pre_epoch + 1);
            drop(dm);
            // ...and recovery refuses with the corrupt frame's offset rather
            // than serving a wrong answer.
            let err = DurableMaterialized::open(&program, &dir, &clean()).unwrap_err();
            let EvalError::Store {
                source: StoreError::CorruptFrame { offset, .. },
            } = &err
            else {
                panic!("{site}: expected CorruptFrame, got {err:?}");
            };
            assert!(*offset > 0, "{site}");
            // fsck names the same first corrupt offset.
            let report = fsck(&dir).unwrap();
            match report.first_error() {
                Some(StoreError::CorruptFrame {
                    offset: fsck_off, ..
                }) => {
                    assert_eq!(fsck_off, offset, "{site}")
                }
                other => panic!("{site}: fsck saw {other:?}"),
            }
        }
        s if s == SITE_SNAPSHOT_RENAME => {
            // Compaction dies between tmp-write and rename: the old world is
            // intact and the handle itself stays usable.
            let err = dm.compact().unwrap_err();
            assert!(
                matches!(
                    &err,
                    EvalError::Store {
                        source: StoreError::FaultInjected { .. }
                    }
                ),
                "{site}: {err:?}"
            );
            assert_eq!(dm.epoch(), pre_epoch, "{site}");
            dm.insert(std::slice::from_ref(&next)).unwrap();
            drop(dm);
            let dm = DurableMaterialized::open(&program, &dir, &clean()).unwrap();
            assert_eq!(dm.epoch(), pre_epoch + 1, "{site}");
            assert_matches_recompute(dm.handle(), &program, site);
            accepts_updates(dm, &program, ("E", Tuple::from_ids(&[3, 0])), site);
        }
        s if s == SITE_COMPACT_TRUNCATE => {
            // Compaction dies after the new snapshot is in place but before
            // the WAL reset: recovery must skip the records the snapshot
            // already contains.
            let err = dm.compact().unwrap_err();
            assert!(
                matches!(
                    &err,
                    EvalError::Store {
                        source: StoreError::FaultInjected { .. }
                    }
                ),
                "{site}: {err:?}"
            );
            dm.insert(std::slice::from_ref(&next)).unwrap();
            let after = Committed::of(dm.handle(), dm.epoch());
            drop(dm);
            let dm = recover_expecting(&program, &dir, &after, site);
            accepts_updates(dm, &program, ("E", Tuple::from_ids(&[3, 0])), site);
        }
        other => panic!("unregistered store site {other:?} in sweep"),
    }
}

fn recover_expecting(
    program: &Program,
    dir: &std::path::Path,
    want: &Committed,
    ctx: &str,
) -> DurableMaterialized {
    let dm = DurableMaterialized::open(program, dir, &clean()).unwrap();
    assert_recovered(&dm, want, program, ctx);
    dm
}

fn accepts_updates(mut dm: DurableMaterialized, program: &Program, fact: (&str, Tuple), ctx: &str) {
    flip(&mut dm, fact.0, fact.1);
    assert_matches_recompute(
        dm.handle(),
        program,
        &format!("{ctx}: post-recovery update"),
    );
}

#[test]
fn store_failpoint_sweep_every_site() {
    for site in STORE_SITES {
        sweep_site(site, Failpoints::armed(site, 1));
    }
}

/// Env-driven form for CI: `INFLOG_FAILPOINT=<store site> cargo test
/// env_driven_store_site -- --ignored` runs the same sweep body with the
/// arming parsed from the environment, proving the env plumbing end to end.
#[test]
#[ignore]
fn env_driven_store_site() {
    let fp = EvalOptions::default().failpoints;
    let site = fp
        .site()
        .expect("run with INFLOG_FAILPOINT set to a store site");
    sweep_site(site, fp);
}

#[test]
fn randomized_churn_with_crash_every_kth_record() {
    const K: usize = 3;
    const STEPS: usize = 12;
    for (src, rel, db, engine) in workloads() {
        let program = parse_program(src).unwrap();
        let dir = tmp_dir(&format!("churn_crash_{engine:?}"));
        let opts = DurableOpts {
            engine,
            ..DurableOpts::default()
        };
        let mut dm = DurableMaterialized::create(&program, &db, &dir, &opts).unwrap();
        // A shadow in-memory handle receives the same updates and never
        // crashes: after each recovery the durable handle must match it.
        let mopts = MaterializeOpts {
            engine,
            ..MaterializeOpts::default()
        };
        let mut shadow = Materialized::new(&program, &db, &mopts).unwrap();
        let n = db.universe_size() as u32;
        let mut rng = StdRng::seed_from_u64(engine as u64 * 100 + 9);
        for step in 1..=STEPS {
            let t = Tuple::from_ids(&[rng.gen_range(0..n), rng.gen_range(0..n)]);
            flip(&mut dm, rel, t.clone());
            if shadow.contains(rel, &t) {
                shadow.retract(&[(rel, t)]).unwrap();
            } else {
                shadow.insert(&[(rel, t)]).unwrap();
            }
            if step == STEPS / 2 {
                // Compaction mid-churn: recovery must work from the fresh
                // snapshot too.
                dm.compact().unwrap();
            }
            if step % K == 0 {
                // Simulated crash: drop the handle (all acknowledged records
                // are on disk under Durability::Sync) and recover.
                let epoch = dm.epoch();
                drop(dm);
                dm = DurableMaterialized::open(&program, &dir, &opts).unwrap();
                let ctx = format!("{engine:?} step {step}");
                assert_recovered(&dm, &Committed::of(&shadow, epoch), &program, &ctx);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Subprocess kill-and-recover: the child really dies (abort), the parent
// recovers the directory it left behind.
// ---------------------------------------------------------------------------

/// Deterministic churn fact for step `i` over a `n`-constant universe: both
/// the child and the parent's replay derive the same sequence.
fn churn_fact(i: u64, n: u32) -> Tuple {
    let a = ((i as u32) * 7 + 1) % n;
    let b = ((i as u32) * 3 + 2) % n;
    Tuple::from_ids(&[a, b])
}

const CHILD_STEPS: u64 = 12;
const CHILD_COMPACT_AT: u64 = 5;

/// Child mode: churn a store directory and abort — at the injected fault if
/// `INFLOG_FAILPOINT` names a store site, or after [`CHILD_STEPS`] commits.
/// Not a real test: inert unless the parent set `INFLOG_CRASH_DIR`.
#[test]
#[ignore]
fn subprocess_child_runner() {
    let Ok(dir) = std::env::var("INFLOG_CRASH_DIR") else {
        return;
    };
    let dir = PathBuf::from(dir);
    let program = parse_program(TC).unwrap();
    let db = DiGraph::path(6).to_database("E");
    let mut out = std::io::stdout();
    // Create clean, then re-open with the env-armed failpoints: arming from
    // the start would fire snapshot sites inside `create` itself, before
    // there is any committed state to recover.
    let dm = DurableMaterialized::create(&program, &db, &dir, &clean()).unwrap();
    writeln!(out, "acked {}", dm.epoch()).unwrap();
    out.flush().unwrap();
    drop(dm);
    let mut dm = DurableMaterialized::open(&program, &dir, &DurableOpts::default()).unwrap();
    let n = db.universe_size() as u32;
    for i in 1..=CHILD_STEPS {
        let t = churn_fact(i, n);
        let r = if dm.handle().contains("E", &t) {
            dm.retract(&[("E", t)])
        } else {
            dm.insert(&[("E", t)])
        };
        if r.is_err() {
            // The injected fault fired mid-append: die on the spot, leaving
            // the crash-shaped disk state for the parent.
            std::process::abort();
        }
        writeln!(out, "acked {}", dm.epoch()).unwrap();
        out.flush().unwrap();
        if i == CHILD_COMPACT_AT && dm.compact().is_err() {
            std::process::abort();
        }
    }
    // Kill between commits: no cleanup, no orderly shutdown.
    std::process::abort();
}

#[test]
fn subprocess_kill_and_recover_sweep() {
    let program = parse_program(TC).unwrap();
    let db = DiGraph::path(6).to_database("E");
    let n = db.universe_size() as u32;
    let exe = std::env::current_exe().unwrap();

    let mut cases: Vec<Option<&str>> = vec![None];
    cases.extend(STORE_SITES.iter().map(|s| Some(*s)));
    for site in cases {
        let label = site.unwrap_or("clean-kill");
        let dir = tmp_dir(&format!("subprocess_{label}"));
        let mut cmd = std::process::Command::new(&exe);
        cmd.arg("subprocess_child_runner")
            .arg("--exact")
            .arg("--ignored")
            .arg("--nocapture")
            .env("INFLOG_CRASH_DIR", &dir);
        match site {
            // The bit-flip must land *after* the child's compaction (which
            // rewrites the log from correct in-memory state and would wash
            // the corrupt frame away): arm it at the 8th append.
            Some(s) if s == SITE_WAL_BIT_FLIP => {
                cmd.env("INFLOG_FAILPOINT", format!("{s}:8"));
            }
            Some(s) => {
                cmd.env("INFLOG_FAILPOINT", s);
            }
            None => {
                cmd.env_remove("INFLOG_FAILPOINT");
            }
        }
        let output = cmd.output().unwrap();
        assert!(
            !output.status.success(),
            "{label}: the child is supposed to die, got {output:?}"
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        // The libtest harness prints `test <name> ... ` without a newline,
        // so the first ack can share its line — match by substring.
        let last_acked: u64 = stdout
            .lines()
            .filter_map(|l| l.find("acked ").map(|i| &l[i + 6..]))
            .filter_map(|v| v.trim().parse().ok())
            .next_back()
            .unwrap_or_else(|| panic!("{label}: child acked nothing:\n{stdout}"));

        if site == Some(SITE_WAL_BIT_FLIP) {
            // Silent corruption: recovery must refuse with the frame offset.
            let err = DurableMaterialized::open(&program, &dir, &clean()).unwrap_err();
            assert!(
                matches!(
                    &err,
                    EvalError::Store {
                        source: StoreError::CorruptFrame { .. }
                    }
                ),
                "{label}: {err:?}"
            );
            assert!(fsck(&dir).unwrap().first_error().is_some(), "{label}");
            continue;
        }

        let mut dm = DurableMaterialized::open(&program, &dir, &clean())
            .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
        // Acknowledged updates are never lost; at most the one in-flight
        // record (fully written, unacknowledged) may additionally survive.
        assert!(
            dm.epoch() == last_acked || dm.epoch() == last_acked + 1,
            "{label}: recovered epoch {} vs last acked {last_acked}",
            dm.epoch()
        );
        if site != Some(SITE_WAL_APPEND_SYNC) {
            assert_eq!(dm.epoch(), last_acked, "{label}: phantom record");
        }

        // Replay the child's deterministic update sequence into a shadow
        // handle: the recovery must stand in for it.
        let mut shadow = Materialized::new(&program, &db, &MaterializeOpts::default()).unwrap();
        for i in 1..=dm.epoch() {
            let t = churn_fact(i, n);
            if shadow.contains("E", &t) {
                shadow.retract(&[("E", t)]).unwrap();
            } else {
                shadow.insert(&[("E", t)]).unwrap();
            }
        }
        assert_recovered(&dm, &Committed::of(&shadow, dm.epoch()), &program, label);
        // And the recovered handle is immediately usable.
        flip(&mut dm, "E", churn_fact(99, n));
        assert_matches_recompute(dm.handle(), &program, &format!("{label}: post-recovery"));
    }
}
