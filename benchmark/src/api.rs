//! The one adapter file: every call the benchmark makes into the library
//! goes through here. The TCP workloads additionally depend on the `serve`
//! binary's flags and the line protocol (see `wire.rs`), and on nothing
//! else.
//!
//! A later PR that renames or removes one of the wrapped items keeps a
//! shim until a benchmark PR re-points this file (a change that claims a
//! gain may not edit the benchmark).
//!
//! Conventions: vertex `i` is the constant `v{i}` and is interned `i`-th,
//! so a constant's id *is* its vertex id and models convert to plain
//! integer tuples without a name lookup.

use inflog::core::graphs::DiGraph;
use inflog::core::Tuple;
use inflog::eval::{Durability, DurableOpts, Engine, MaterializeOpts, RepairStrategy};
use inflog::reductions::distance::{distance_query_baseline, stratified_reading_baseline};
use inflog::serve::{Request, ServeOptions};
use inflog_store::{StoreOptions, WalOp, WalRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::io::{BufRead, Write};
use std::path::Path;
use std::sync::Arc;

pub use inflog::core::Database;
pub use inflog::eval::{
    CompiledProgram, DurableMaterialized, Epoch, EvalContext, Interp, Materialized, QueryAnswer,
};
pub use inflog::serve::Server;
pub use inflog::syntax::{Atom, Program};
pub use inflog_store::Store;
pub type Rng = StdRng;
pub type Quads = BTreeSet<(u32, u32, u32, u32)>;

pub fn rng(seed: u64) -> Rng {
    StdRng::seed_from_u64(seed)
}

// ----- graphs ---------------------------------------------------------------

pub fn random_dag(n: usize, p: f64, rng: &mut Rng) -> Vec<(u32, u32)> {
    DiGraph::random_dag(n, p, rng).edges().collect()
}

pub fn random_gnp(n: usize, p: f64, rng: &mut Rng) -> Vec<(u32, u32)> {
    DiGraph::random_gnp(n, p, rng).edges().collect()
}

/// `inflog-core`'s own BFS closure — a second opinion beside the
/// benchmark's `oracle::Graph`, used for the full-model checks.
pub fn transitive_closure(n: usize, edges: &[(u32, u32)]) -> BTreeSet<(u32, u32)> {
    DiGraph::from_edges(n, edges.iter().copied()).transitive_closure()
}

/// The BFS baselines for Proposition 2's distance program: the distance
/// query (inflationary reading) and `TC(x,y) ∧ ¬TC(x*,y*)` (stratified
/// reading).
pub fn distance_baselines(n: usize, edges: &[(u32, u32)]) -> (Quads, Quads) {
    let g = DiGraph::from_edges(n, edges.iter().copied());
    (distance_query_baseline(&g), stratified_reading_baseline(&g))
}

/// A database over the universe `v0..v{n-1}` with one binary relation.
pub fn graph_db(relation: &str, n: usize, edges: &[(u32, u32)]) -> Database {
    let mut db = Database::new();
    for v in 0..n {
        db.universe_mut().intern(&vertex_name(v as u32));
    }
    db.declare_relation(relation, 2).expect("fresh database");
    for &(u, v) in edges {
        db.insert_fact(relation, Tuple::from_ids(&[u, v]))
            .expect("declared binary relation");
    }
    db
}

pub fn vertex_name(v: u32) -> String {
    format!("v{v}")
}

// ----- syntax ---------------------------------------------------------------

pub fn parse_program(src: &str) -> Program {
    inflog::syntax::parse_program(src).expect("benchmark programs parse")
}

pub fn parse_atom(src: &str) -> Atom {
    inflog::syntax::parse_atom(src).expect("benchmark goals parse")
}

/// The paper's §4 distance program, as source text.
pub fn distance_program_text() -> String {
    inflog::reductions::programs::distance_program().to_string()
}

// ----- batch evaluation -----------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    Seminaive,
    Inflationary,
    Stratified,
    WellFounded,
}

impl EngineKind {
    fn engine(self) -> Engine {
        match self {
            EngineKind::Seminaive => Engine::Seminaive,
            EngineKind::Inflationary => Engine::Inflationary,
            EngineKind::Stratified => Engine::Stratified,
            EngineKind::WellFounded => Engine::WellFounded,
        }
    }
}

/// What an engine produced: true facts, undefined facts (well-founded
/// only) and the round (or alternation) count.
pub struct Model {
    pub truths: Interp,
    pub undefined: Option<Interp>,
    pub rounds: usize,
}

impl Model {
    pub fn tuples(&self) -> usize {
        self.truths.total_tuples() + self.undefined.as_ref().map_or(0, Interp::total_tuples)
    }
}

/// The four plain entry points: program + database in, model out, library
/// default options.
pub fn run_engine(kind: EngineKind, program: &Program, db: &Database) -> Model {
    let two_valued = |(truths, trace): (Interp, inflog::eval::EvalTrace)| Model {
        truths,
        undefined: None,
        rounds: trace.rounds,
    };
    match kind {
        EngineKind::Seminaive => two_valued(
            inflog::eval::least_fixpoint_seminaive(program, db).expect("positive program"),
        ),
        EngineKind::Inflationary => {
            two_valued(inflog::eval::inflationary(program, db).expect("program compiles"))
        }
        EngineKind::Stratified => {
            two_valued(inflog::eval::stratified_eval(program, db).expect("stratifiable program"))
        }
        EngineKind::WellFounded => {
            let m = inflog::eval::well_founded(program, db).expect("program compiles");
            Model {
                truths: m.true_facts,
                undefined: Some(m.undefined),
                rounds: m.alternations,
            }
        }
    }
}

pub fn compile(program: &Program, db: &Database) -> CompiledProgram {
    CompiledProgram::compile(program, db).expect("program compiles")
}

pub fn context(cp: &CompiledProgram, db: &Database) -> EvalContext {
    EvalContext::new(cp, db).expect("arities agree")
}

/// One application of Θ.
pub fn apply_theta(cp: &CompiledProgram, ctx: &EvalContext, s: &Interp) -> Interp {
    inflog::eval::apply(cp, ctx, s)
}

/// The tuples of IDB predicate `pred` in `interp`, as vertex ids.
pub fn idb_tuples(cp: &CompiledProgram, interp: &Interp, pred: &str) -> BTreeSet<Vec<u32>> {
    let id = cp.idb_id(pred).expect("known IDB predicate");
    interp.get(id).iter().map(tuple_ids).collect()
}

pub fn tuple_ids(t: &Tuple) -> Vec<u32> {
    t.items().iter().map(|c| c.id()).collect()
}

// ----- incremental maintenance ----------------------------------------------

pub fn mat_new(program: &Program, db: &Database, kind: EngineKind) -> Materialized {
    let opts = MaterializeOpts {
        engine: kind.engine(),
        ..MaterializeOpts::default()
    };
    Materialized::new(program, db, &opts).expect("materializes")
}

pub fn mat_insert(m: &mut Materialized, pred: &str, u: u32, v: u32) -> usize {
    m.insert(&[(pred, Tuple::from_ids(&[u, v]))])
        .expect("insert")
}

pub fn mat_retract(m: &mut Materialized, pred: &str, u: u32, v: u32) -> usize {
    m.retract(&[(pred, Tuple::from_ids(&[u, v]))])
        .expect("retract")
}

pub fn mat_publish(m: &Materialized, number: u64) -> Arc<Epoch> {
    m.publish(number).expect("publish")
}

pub fn mat_uses_restart(m: &Materialized) -> bool {
    m.repair_strategy() == RepairStrategy::Restart
}

/// The maintained model of `pred`: (true tuples, undefined tuples).
pub fn mat_tuples(m: &Materialized, pred: &str) -> (BTreeSet<Vec<u32>>, BTreeSet<Vec<u32>>) {
    (
        idb_tuples(m.compiled(), m.interp(), pred),
        idb_tuples(m.compiled(), m.undefined(), pred),
    )
}

pub fn mat_total_tuples(m: &Materialized) -> usize {
    m.interp().total_tuples() + m.undefined().total_tuples()
}

// ----- durability -----------------------------------------------------------

fn durable_opts(kind: EngineKind) -> DurableOpts {
    DurableOpts {
        engine: kind.engine(),
        ..DurableOpts::default()
    }
}

pub fn durable_create(
    program: &Program,
    db: &Database,
    dir: &Path,
    kind: EngineKind,
) -> DurableMaterialized {
    assert_eq!(Durability::default(), Durability::Sync);
    DurableMaterialized::create(program, db, dir, &durable_opts(kind)).expect("create store")
}

pub fn durable_open(program: &Program, dir: &Path, kind: EngineKind) -> DurableMaterialized {
    DurableMaterialized::open(program, dir, &durable_opts(kind)).expect("recover store")
}

pub fn durable_insert(d: &mut DurableMaterialized, pred: &str, u: u32, v: u32) -> usize {
    d.insert(&[(pred, Tuple::from_ids(&[u, v]))])
        .expect("durable insert")
}

pub fn durable_retract(d: &mut DurableMaterialized, pred: &str, u: u32, v: u32) -> usize {
    d.retract(&[(pred, Tuple::from_ids(&[u, v]))])
        .expect("durable retract")
}

pub fn durable_compact(d: &mut DurableMaterialized) {
    d.compact().expect("compact");
}

/// Opens a store directory directly: the handle plus how many WAL records
/// it decoded for replay.
pub fn store_open(dir: &Path) -> (Store, usize) {
    let (store, _state, records) = Store::open(dir, &StoreOptions::default()).expect("open store");
    (store, records.len())
}

/// Appends one single-fact record under `Durability::Sync`.
pub fn store_append(store: &mut Store, epoch: u64, insert: bool, pred: &str, u: u32, v: u32) {
    let rec = WalRecord {
        epoch,
        op: if insert {
            WalOp::Insert
        } else {
            WalOp::Retract
        },
        facts: vec![(pred.to_string(), Tuple::from_ids(&[u, v]))],
    };
    store.append(&rec).expect("wal append");
}

// ----- serving --------------------------------------------------------------

pub fn server_create(program: &Program, db: &Database, dir: &Path) -> Server {
    Server::create(program, db, dir, &ServeOptions::default()).expect("create server")
}

pub fn server_query(server: &Server, goal: &Atom) -> QueryAnswer {
    server.query(goal, None).expect("query").answer
}

pub fn server_insert(server: &Server, pred: &str, u: u32, v: u32) -> u64 {
    let ack = server
        .insert(vec![(pred.to_string(), Tuple::from_ids(&[u, v]))])
        .expect("server insert");
    ack.epoch
}

pub fn server_retract(server: &Server, pred: &str, u: u32, v: u32) -> u64 {
    let ack = server
        .retract(vec![(pred.to_string(), Tuple::from_ids(&[u, v]))])
        .expect("server retract");
    ack.epoch
}

pub fn epoch_select(epoch: &Epoch, goal: &Atom) -> QueryAnswer {
    epoch.select(goal, None).expect("select")
}

/// Size of the relation a goal's predicate names in `epoch` (true facts).
pub fn epoch_relation_len(epoch: &Epoch, pred: &str) -> usize {
    let id = epoch.compiled().idb_id(pred).expect("IDB goal");
    epoch.interp().get(id).len()
}

/// Parses one protocol line; returns the goal atom of a QUERY / INSERT /
/// RETRACT request.
pub fn parse_request(line: &str) -> Option<Atom> {
    match inflog::serve::parse_request(line).expect("benchmark requests parse") {
        Request::Query(a) | Request::Insert(a) | Request::Retract(a) => Some(a),
        _ => None,
    }
}

/// Formats an answer the way the connection layer does (one
/// `render_tuple` per answer row) and returns the bytes produced.
pub fn render_answer(epoch: &Epoch, pred: &str, answer: &QueryAnswer, out: &mut String) {
    let universe = epoch.database().universe();
    for (tag, rows) in [("TRUE ", &answer.tuples), ("UNDEF ", &answer.undefined)] {
        for t in rows {
            out.push_str(tag);
            out.push_str(&inflog::serve::render_tuple(universe, pred, t));
            out.push('\n');
        }
    }
}

/// One session over an in-memory pipe: everything a TCP request goes
/// through except the socket.
pub fn serve_session<R: BufRead, W: Write>(server: &Server, input: R, out: W) {
    inflog::serve::serve_session(server, input, out).expect("in-memory pipe cannot fail");
}

pub fn server_pin(server: &Server) -> Arc<Epoch> {
    server.pin()
}

pub fn store_wal_len(store: &Store) -> u64 {
    store.wal_len()
}

pub fn durable_epoch(d: &DurableMaterialized) -> u64 {
    d.epoch()
}

pub fn durable_handle(d: &DurableMaterialized) -> &Materialized {
    d.handle()
}

/// True rows of a binary answer as vertex pairs, and how many rows came
/// back undefined.
pub fn answer_pairs(answer: &QueryAnswer) -> (BTreeSet<(u32, u32)>, usize) {
    let pairs = answer
        .tuples
        .iter()
        .map(|t| (t.items()[0].id(), t.items()[1].id()))
        .collect();
    (pairs, answer.undefined.len())
}

pub fn answer_len(answer: &QueryAnswer) -> usize {
    answer.tuples.len() + answer.undefined.len()
}
