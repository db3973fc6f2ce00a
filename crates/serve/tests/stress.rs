//! Concurrent reader/writer stress: snapshot isolation under churn.
//!
//! At 2, 4, and 8 reader threads, readers hammer a [`Server`] while the
//! main thread churns writes through the durable path. Every reply is
//! checked against the strongest oracle this workspace has: the paper's
//! semantics are *deterministic* functions of the EDB, so a reply is
//! consistent iff it equals a **from-scratch evaluation over the pinned
//! epoch's own database**. A torn publish — any mix of two epochs — would
//! make that recompute diverge.
//!
//! In debug builds every Θ application of the server and of the recompute
//! is also replayed on the tree executor, the VM's oracle.

use inflog_core::graphs::DiGraph;
use inflog_core::Tuple;
use inflog_eval::materialize::Engine;
use inflog_eval::{query, EvalOptions};
use inflog_serve::{ServeOptions, Server};
use inflog_syntax::parse_atom;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const TC: &str = "S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).";
const WIN: &str = "Win(x) :- Move(x, y), !Win(y).";

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic churn fact for step `i` (no RNG: the xorshift keeps the
/// sequence identical across runs and execution modes).
fn churn_fact(i: u64, n: u32) -> Tuple {
    let mut x = i.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 29;
    let a = (x as u32) % n;
    let b = ((x >> 32) as u32) % n;
    Tuple::from_ids(&[a, b])
}

/// The stress body: `readers` threads assert per-reply single-epoch
/// consistency while the main thread commits `writes` churn steps.
fn stress(engine: Engine, program_src: &str, edb: &str, readers: usize, writes: u64) {
    let program = inflog_syntax::parse_program(program_src).unwrap();
    let db = DiGraph::cycle(5).to_database(edb);
    let n = db.universe_size() as u32;
    let dir = tmp_dir(&format!("stress_{engine:?}_{readers}"));
    let opts = ServeOptions {
        engine,
        max_inflight: readers + 2,
        ..ServeOptions::default()
    };
    let server = Arc::new(Server::create(&program, &db, &dir, &opts).unwrap());

    let goal_srcs: &[&str] = if edb == "E" {
        &["S(x, y)", "S('v0', y)", "S(x, 'v2')", "E(x, y)"]
    } else {
        &["Win(x)", "Win('v0')", "Move(x, y)", "Move(x, 'v1')"]
    };
    let goals: Vec<_> = goal_srcs.iter().map(|s| parse_atom(s).unwrap()).collect();

    let done = Arc::new(AtomicBool::new(false));
    let acked = Arc::new(AtomicU64::new(0));
    let handles: Vec<_> = (0..readers)
        .map(|r| {
            let server = Arc::clone(&server);
            let done = Arc::clone(&done);
            let acked = Arc::clone(&acked);
            let goals = goals.clone();
            std::thread::spawn(move || {
                let mut checked = 0u64;
                let mut last_epoch = 0u64;
                while !done.load(Ordering::SeqCst) || checked == 0 {
                    let goal = &goals[(checked as usize + r) % goals.len()];
                    let reply = match server.query(goal, None) {
                        Ok(reply) => reply,
                        Err(e) => panic!("reader {r}: {e}"),
                    };
                    let epoch = reply.epoch.number();
                    // Epochs are published monotonically: no reader ever
                    // travels back in time, and no reply cites an epoch
                    // beyond the writer's last ack at pin time (checked
                    // loosely: acked only grows).
                    assert!(
                        epoch >= last_epoch,
                        "reader {r}: epoch went backwards ({last_epoch} -> {epoch})"
                    );
                    last_epoch = epoch;
                    // Writes here are synchronous, so at most one commit can
                    // be published but not yet recorded as acked.
                    assert!(
                        epoch <= acked.load(Ordering::SeqCst) + 1,
                        "reader {r}: reply from unacked epoch {epoch}"
                    );
                    // The oracle: the lookup in the pinned epoch must equal
                    // a from-scratch magic-sets/well-founded evaluation of
                    // that same epoch's EDB. Any cross-epoch mixing breaks
                    // this determinism check.
                    let ep = &reply.epoch;
                    let scratch = query(
                        ep.program(),
                        goal,
                        ep.database(),
                        &EvalOptions::sequential(),
                    )
                    .unwrap();
                    assert_eq!(
                        reply.answer.tuples, scratch.tuples,
                        "reader {r}: pinned read diverged from recompute at epoch {epoch}"
                    );
                    assert_eq!(
                        reply.answer.undefined, scratch.undefined,
                        "reader {r}: undefined set diverged at epoch {epoch}"
                    );
                    checked += 1;
                }
                // Full-model oracle once per reader on its final pin.
                assert!(
                    reply_matches_recompute(&server),
                    "reader {r}: final epoch fails matches_recompute"
                );
                checked
            })
        })
        .collect();

    for i in 1..=writes {
        let t = churn_fact(i, n);
        let fact = (edb.to_string(), t.clone());
        let ack = if server.pin().contains(edb, &t).unwrap() != inflog_eval::Truth::False {
            server.retract(vec![fact]).unwrap()
        } else {
            server.insert(vec![fact]).unwrap()
        };
        assert_eq!(ack.epoch, i, "writer acks must be sequential");
        acked.store(ack.epoch, Ordering::SeqCst);
    }
    done.store(true, Ordering::SeqCst);
    let mut total = 0;
    for h in handles {
        total += h.join().expect("reader thread panicked");
    }
    assert!(total > 0, "no replies were checked");
    assert_eq!(server.epoch(), writes);
    server.shutdown();
}

fn reply_matches_recompute(server: &Server) -> bool {
    server
        .pin()
        .matches_recompute(&EvalOptions::default())
        .unwrap()
}

#[test]
fn snapshot_isolation_2_readers() {
    stress(Engine::Stratified, TC, "E", 2, 24);
}

#[test]
fn snapshot_isolation_4_readers() {
    stress(Engine::Stratified, TC, "E", 4, 24);
}

#[test]
fn snapshot_isolation_8_readers() {
    stress(Engine::WellFounded, WIN, "Move", 8, 16);
}

/// A reader pinning an epoch across later writes keeps its snapshot while
/// the writer recycles around it: the pinned retired epoch is deep-copied
/// past exactly once, every unpinned one is patched forward in place —
/// read indexes included, so every goal shape is read before each write
/// and checked against a recompute after it.
#[test]
fn a_pinned_epoch_survives_recycling_unchanged() {
    let program = inflog_syntax::parse_program(TC).unwrap();
    let db = DiGraph::path(10).to_database("E");
    let dir = tmp_dir("stress_pinned_recycling");
    let server = Server::create(&program, &db, &dir, &ServeOptions::quiet()).unwrap();
    let edge = |a: u32, b: u32| vec![("E".to_string(), Tuple::from_ids(&[a, b]))];
    let mut goals = vec![
        "S(x, y)".to_string(),
        "S('v0', 'v4')".to_string(),
        "S('v4', 'v0')".to_string(),
        "S(x, x)".to_string(),
    ];
    for v in 0..10 {
        goals.push(format!("S('v{v}', y)"));
        goals.push(format!("S(x, 'v{v}')"));
        goals.push(format!("E('v{v}', y)"));
    }
    let goals: Vec<_> = goals.iter().map(|g| parse_atom(g).unwrap()).collect();
    // Each reply unpins before the next write, so the counts below hold.
    let read_all = || {
        for goal in &goals {
            let reply = server.query(goal, None).unwrap();
            let ep = &reply.epoch;
            let scratch = query(
                ep.program(),
                goal,
                ep.database(),
                &EvalOptions::sequential(),
            )
            .unwrap();
            assert_eq!(reply.answer.tuples, scratch.tuples, "{goal:?}");
        }
    };
    for (a, b) in [(0, 2), (2, 4), (4, 6)] {
        read_all();
        server.insert(edge(a, b)).unwrap();
    }
    // The first publish has nothing retired yet; the next two recycle.
    let counts = server.publishes();
    assert_eq!((counts.copied, counts.recycled), (1, 2));

    let pinned = server.pin();
    assert_eq!(pinned.number(), 3);
    let select_all = || -> Vec<_> {
        let answers = goals.iter().map(|g| pinned.select(g, None).unwrap());
        answers.map(|a| a.tuples).collect()
    };
    let before = select_all();
    for (a, b, inserting) in [(0, 2, false), (6, 8, true), (2, 4, false)] {
        read_all();
        if inserting {
            server.insert(edge(a, b)).unwrap();
        } else {
            server.retract(edge(a, b)).unwrap();
        }
    }
    read_all();
    assert_eq!(server.epoch(), 6);
    let counts = server.publishes();
    assert_eq!(
        (counts.copied, counts.recycled),
        (2, 4),
        "only the publish that found epoch 3 pinned may copy"
    );
    assert_eq!(pinned.number(), 3);
    assert_eq!(select_all(), before);
    assert!(pinned.matches_recompute(&EvalOptions::default()).unwrap());
    assert!(reply_matches_recompute(&server));
    server.shutdown();
}
