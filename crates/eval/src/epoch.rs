//! Immutable epoch snapshots of a materialized model, for concurrent
//! serving.
//!
//! # The epoch-publication invariant
//!
//! An [`Epoch`] is a *complete, committed* snapshot of one materialized
//! fixpoint: the database it was evaluated over, the true and undefined IDB
//! relations the engine produced for exactly that database, and the
//! (refcount-shared) program and compiled plans. An epoch is built only
//! from a committed [`Materialized`] state — never from a mid-update or
//! rolled-back one — so every answer read from one epoch is internally
//! consistent with that single epoch's EDB. Because every maintained
//! semantics is a deterministic function of the EDB (the paper's central
//! observation), a reader can mechanically verify this: a from-scratch
//! evaluation over [`Epoch::database`] must reproduce [`Epoch::interp`] /
//! [`Epoch::undefined`] ([`Epoch::matches_recompute`] does exactly that,
//! and the serve-layer chaos harness runs it under churn).
//!
//! **An epoch is never mutated while anyone but the writer can reach it.**
//! The writer's handle patches a retired epoch into the next one
//! ([`Materialized::publish_into`]) only after [`Arc::get_mut`] proves it
//! holds the last reference, and keeps at most one retired epoch alive;
//! otherwise it publishes a deep copy ([`Materialized::publish`]).
//!
//! # Reads are lookups
//!
//! A published epoch holds a finished fixpoint, so [`Epoch::select`] only
//! looks into it: a membership probe for a fully bound goal, an index
//! probe for a partly bound one, a walk of the relation's sorted order for
//! an unbound one. Each epoch owns its indexes (`u32` positions into its
//! relations, behind one `RwLock`) and one sorted order per relation
//! (`u32` positions too, each behind a [`OnceLock`]), and their lifetime
//! follows the invariant above:
//! - **readers build**: the first `select` that needs an index on some
//!   relation's bound columns, or that relation's order, builds it, and
//!   every later reader shares it;
//! - **only the writer changes them**, in `Epoch::apply`, and only under
//!   [`Arc::get_mut`], with no lock taken. Removals patch their postings
//!   in place and appends are consumed from the dense suffix, so a
//!   recycled epoch keeps its indexes across writes; the order of each
//!   relation the change touched is dropped, to be re-sorted by its next
//!   open read;
//! - a deep copy starts with none, so a writer nobody reads from builds
//!   none.
//!
//! A panic while building an index poisons the lock; the next access drops
//! every index before trusting the set again. A panic while sorting leaves
//! that order unset, and the next reader sorts again.
//!
//! [`EpochCell`] is the publication point: the single writer commits an
//! update through the transactional (and optionally durable) path, then
//! swaps the new `Arc<Epoch>` into the cell. Readers
//! [`pin`](EpochCell::pin) the current epoch — an `Arc` clone — and keep
//! answering from it for as long as they like; a publish never blocks or
//! disturbs pinned readers, and an old epoch is freed (or recycled by the
//! writer) exactly when its last pinning reader drops it. A failed update
//! publishes nothing: the cell still holds the last committed epoch.
//!
//! [`Materialized`]: crate::Materialized
//! [`Materialized::publish`]: crate::Materialized::publish
//! [`Materialized::publish_into`]: crate::Materialized::publish_into

use crate::error::{BudgetKind, EvalError};
use crate::index::{col_mask, IndexSet, SharedIndexes};
use crate::interp::Interp;
use crate::materialize::{Change, Engine};
use crate::operator::EvalContext;
use crate::options::EvalOptions;
use crate::query::{goal_pattern, pattern_matches, QueryAnswer, QueryStrategy, Slot};
use crate::resolve::CompiledProgram;
use crate::Result;
use inflog_core::{Const, Database, Relation, Tuple};
use inflog_syntax::{Atom, Program};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Three-valued membership of a fact in an epoch's model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truth {
    /// In the model (IDB) or the database (EDB).
    True,
    /// Not in the model and not undefined.
    False,
    /// Undefined under the well-founded semantics.
    Undefined,
}

/// How often the unbound read polls a deadline (every `SCAN_POLL_MASK + 1`
/// tuples) — same cadence as the evaluation VM.
const SCAN_POLL_MASK: usize = (1 << 12) - 1;

/// One relation a read answers from, with the slot of its sorted order.
type Served<'a> = (&'a Relation, &'a OnceLock<Vec<u32>>);

/// One committed, immutable snapshot of a materialized model. See the
/// module docs for the publication invariant.
#[derive(Debug)]
pub struct Epoch {
    number: u64,
    /// [`Materialized::epoch`](crate::Materialized::epoch) of the state this
    /// snapshot holds: which committed changes a patch must apply to it.
    pub(crate) state: u64,
    program: Arc<Program>,
    /// Shared with the publishing handle: [`Arc::ptr_eq`] on it tells a
    /// handle whether an epoch is one of its own.
    pub(crate) cp: Arc<CompiledProgram>,
    engine: Engine,
    db: Database,
    s: Interp,
    undefined: Interp,
    /// Lookup indexes over this epoch's relations, keyed by relation id and
    /// bound columns: built by the first [`select`](Epoch::select) that
    /// needs one, patched forward by [`apply`](Epoch::apply).
    indexes: SharedIndexes,
    /// The lexicographic order of each relation, as positions into its
    /// dense storage: the true IDB relations by IDB id, then the undefined
    /// ones, then the EDB by EDB id. Built by the first open read of the
    /// relation; [`apply`](Epoch::apply) drops the orders of the relations
    /// a change touched.
    orders: Vec<OnceLock<Vec<u32>>>,
}

impl Epoch {
    /// Crate-internal constructor; [`Materialized::publish`] is the only
    /// producer, which is what makes the publication invariant true.
    ///
    /// [`Materialized::publish`]: crate::Materialized::publish
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        number: u64,
        state: u64,
        program: Arc<Program>,
        cp: Arc<CompiledProgram>,
        engine: Engine,
        db: Database,
        s: Interp,
        undefined: Interp,
    ) -> Epoch {
        let served = 2 * s.len() + cp.edb_names.len();
        Epoch {
            number,
            state,
            program,
            cp,
            engine,
            db,
            s,
            undefined,
            indexes: SharedIndexes::default(),
            orders: (0..served).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Brings a retired snapshot forward by one committed change and
    /// restamps it `number`. Only [`Materialized::publish_into`] calls
    /// this, and only on an epoch it holds the sole reference to.
    ///
    /// [`Materialized::publish_into`]: crate::Materialized::publish_into
    pub(crate) fn apply(&mut self, change: &Change, number: u64) {
        debug_assert_eq!(self.state + 1, change.to, "changes apply in order");
        // Sole owner: the readers' indexes are patched without locking.
        let indexes = self.indexes.get_mut();
        let m = self.s.len();
        for (id, name) in self.cp.edb_names.iter().enumerate() {
            let facts = change.edb.get(id);
            let rel = self.db.relation_mut(name).expect("the handle declared it");
            let none = Relation::new(rel.arity());
            let (removed, added) = if change.inserting {
                (&none, facts)
            } else {
                (facts, &none)
            };
            if patch(indexes, rel, removed, added) {
                self.orders[2 * m + id].take();
            }
        }
        for i in 0..m {
            let rel = self.s.get_mut(i);
            if patch(indexes, rel, change.removed.get(i), change.added.get(i)) {
                self.orders[i].take();
            }
        }
        self.state = change.to;
        self.number = number;
    }

    /// The epoch number this snapshot was stamped with at publication.
    pub fn number(&self) -> u64 {
        self.number
    }

    /// The program the model is a fixpoint of (refcount-shared with the
    /// writer handle and every sibling epoch).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The compiled program (predicate-id mappings, arities).
    pub fn compiled(&self) -> &CompiledProgram {
        &self.cp
    }

    /// The engine that produced the model.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The database this epoch's model is the fixpoint over.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// True facts of the model (IDB relations by IDB id).
    pub fn interp(&self) -> &Interp {
        &self.s
    }

    /// Undefined facts of the model (empty except for well-founded on
    /// non-stratifiable programs).
    pub fn undefined(&self) -> &Interp {
        &self.undefined
    }

    /// Three-valued membership of `(pred, t)` in this epoch.
    ///
    /// # Errors
    /// [`EvalError::UnknownRelation`] / [`EvalError::ArityMismatch`] for a
    /// predicate the program does not know or a wrong-width tuple.
    pub fn contains(&self, pred: &str, t: &Tuple) -> Result<Truth> {
        let ((rel, _), undef) = self.relations_of(pred)?;
        if t.arity() != rel.arity() {
            return Err(EvalError::ArityMismatch {
                predicate: pred.to_owned(),
                expected: rel.arity(),
                found: t.arity(),
            });
        }
        if rel.contains(t) {
            Ok(Truth::True)
        } else if undef.is_some_and(|(u, _)| u.contains(t)) {
            Ok(Truth::Undefined)
        } else {
            Ok(Truth::False)
        }
    }

    /// Answers a goal by looking it up in this epoch's *materialized*
    /// relations — the serving read path: no evaluation, and work
    /// proportional to the answer, not the relation. Constants in the goal
    /// must exist in the epoch's universe; repeated variables constrain
    /// positions to be equal. Results are sorted lexicographically, so on a
    /// stratified or well-founded epoch the answer to an IDB goal equals
    /// what a from-scratch [`query`](crate::query::query) over this epoch's
    /// program and EDB returns (the stress harness asserts exactly that).
    ///
    /// The goal's shape picks the path, for the true and then the undefined
    /// relation:
    /// - **every column bound:** one membership probe;
    /// - **some bound:** the postings of this epoch's index on exactly those
    ///   columns, filtered for repeated variables; only the answer is
    ///   sorted. The first reader that needs an index builds it, and every
    ///   later reader of the epoch shares it. Only the writer changes an
    ///   index afterwards, when [`Materialized::publish_into`] patches the
    ///   epoch forward — which it does only once [`Arc::get_mut`] proves no
    ///   reader can see it — so indexes follow the epoch and are never
    ///   rebuilt per write;
    /// - **none bound:** a walk of the epoch's sorted order of the
    ///   relation, copying only the tuples that match repeated variables.
    ///   The first open read of a relation sorts it, every later reader of
    ///   the epoch shares that order, and a recycled epoch re-sorts only the
    ///   relations a write changed.
    ///
    /// `deadline` trips before any work when it has already passed, and the
    /// unbound path polls it every few thousand tuples; either gives up with
    /// [`EvalError::BudgetExceeded`] ([`BudgetKind::Deadline`]).
    ///
    /// # Errors
    /// [`EvalError::UnknownRelation`], [`EvalError::ArityMismatch`],
    /// [`EvalError::UnknownConstant`], or the deadline trip.
    ///
    /// [`Materialized::publish_into`]: crate::Materialized::publish_into
    pub fn select(&self, goal: &Atom, deadline: Option<Instant>) -> Result<QueryAnswer> {
        let (served, undef) = self.relations_of(&goal.predicate)?;
        let rel = served.0;
        if goal.terms.len() != rel.arity() {
            return Err(EvalError::ArityMismatch {
                predicate: goal.predicate.clone(),
                expected: rel.arity(),
                found: goal.terms.len(),
            });
        }
        let pattern = goal_pattern(goal, self.db.universe())?;
        // An already-expired deadline trips before any work, so callers get
        // a deterministic budget error regardless of relation size.
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(deadline_tripped());
        }
        let (cols, key): (Vec<usize>, Vec<Const>) = pattern
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| match slot {
                Slot::Bound(c) => Some((i, *c)),
                _ => None,
            })
            .unzip();
        let key = Tuple::from_slice(&key);
        let tuples = self.read(served, &pattern, &cols, &key, deadline)?;
        let undefined = match undef {
            Some(u) => self.read(u, &pattern, &cols, &key, deadline)?,
            None => Vec::new(),
        };
        Ok(QueryAnswer {
            tuples,
            undefined,
            strategy: QueryStrategy::EdbScan,
        })
    }

    /// One relation's share of a [`select`](Epoch::select) answer: the
    /// tuples of `rel` matching `pattern`, whose bound columns `cols` hold
    /// `key`.
    fn read(
        &self,
        (rel, order): Served<'_>,
        pattern: &[Slot],
        cols: &[usize],
        key: &Tuple,
        deadline: Option<Instant>,
    ) -> Result<Vec<Tuple>> {
        // An empty relation is never indexed.
        if rel.is_empty() {
            return Ok(Vec::new());
        }
        if cols.len() == pattern.len() {
            return Ok(if rel.contains(key) {
                vec![key.clone()]
            } else {
                Vec::new()
            });
        }
        if cols.is_empty() || col_mask(cols).is_none() {
            return scan_sorted(rel, order, pattern, deadline);
        }
        Ok(self.probe(rel, pattern, cols, key))
    }

    /// The tuples of `rel` filed under `key` in this epoch's index on
    /// `cols`, filtered by `pattern` and sorted. A reader checks under the
    /// read guard; on a miss it drops that guard, takes the write guard,
    /// re-checks, and builds. It never holds both.
    fn probe(&self, rel: &Relation, pattern: &[Slot], cols: &[usize], key: &Tuple) -> Vec<Tuple> {
        let answer = |set: &IndexSet| {
            let dense = rel.dense();
            let mut out: Vec<Tuple> = (set.resolve(rel.id(), cols)?.postings(key).iter())
                .map(|&p| &dense[p as usize])
                .filter(|t| pattern_matches(pattern, t))
                .cloned()
                .collect();
            out.sort_unstable();
            Some(out)
        };
        if let Some(out) = answer(&self.indexes.read()) {
            return out;
        }
        let mut set = self.indexes.write();
        // Another reader may have built it between the two guards.
        if set.resolve(rel.id(), cols).is_none() {
            set.ensure(rel, cols);
        }
        answer(&set).expect("an index on fewer than 128 columns was just built")
    }

    /// The mechanical consistency oracle: re-evaluates the epoch's engine
    /// from scratch over the epoch's own EDB and reports whether the
    /// result equals the published model (set equality per relation). A
    /// correctly published epoch always passes; a torn publish — state
    /// from one commit paired with a database from another — cannot.
    ///
    /// # Errors
    /// Evaluation errors of the governed engines under `opts` (budget,
    /// cancellation, armed failpoints).
    pub fn matches_recompute(&self, opts: &EvalOptions) -> Result<bool> {
        let ctx = EvalContext::new(&self.cp, &self.db)?;
        let (s, undefined) = self.engine.evaluate_compiled(&self.cp, &ctx, opts)?;
        Ok(self.s == s && self.undefined == undefined)
    }

    /// The true and (for IDB predicates) undefined relations of `pred`.
    fn relations_of(&self, pred: &str) -> Result<(Served<'_>, Option<Served<'_>>)> {
        let m = self.s.len();
        if let Some(i) = self.cp.idb_id(pred) {
            let undefined = (self.undefined.get(i), &self.orders[m + i]);
            return Ok(((self.s.get(i), &self.orders[i]), Some(undefined)));
        }
        if let Some(id) = self.cp.edb_id(pred) {
            let rel = self.db.relation(pred).expect("the handle declared it");
            return Ok(((rel, &self.orders[2 * m + id]), None));
        }
        Err(EvalError::UnknownRelation {
            name: pred.to_owned(),
        })
    }
}

/// The read with no usable index: a walk of `rel`'s sorted `order`
/// (sorting it first if no reader has yet) that clones only the tuples
/// matching `pattern`. This is the one read loop as long as the relation,
/// so it polls `deadline`.
fn scan_sorted(
    rel: &Relation,
    order: &OnceLock<Vec<u32>>,
    pattern: &[Slot],
    deadline: Option<Instant>,
) -> Result<Vec<Tuple>> {
    let dense = rel.dense();
    let order = order.get_or_init(|| {
        let mut order: Vec<u32> = (0..dense.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| dense[a as usize].cmp(&dense[b as usize]));
        order
    });
    // A goal of distinct variables matches every tuple: copying without a
    // per-tuple test runs about twice as fast.
    let every = pattern.iter().all(|slot| matches!(slot, Slot::Free));
    let mut out = Vec::with_capacity(order.len());
    for (i, chunk) in order.chunks(SCAN_POLL_MASK + 1).enumerate() {
        if i > 0 && deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(deadline_tripped());
        }
        let tuples = chunk.iter().map(|&p| &dense[p as usize]);
        if every {
            out.extend(tuples.cloned());
        } else {
            out.extend(tuples.filter(|t| pattern_matches(pattern, t)).cloned());
        }
    }
    Ok(out)
}

fn deadline_tripped() -> EvalError {
    EvalError::BudgetExceeded {
        kind: BudgetKind::Deadline,
        limit: 0,
    }
}

/// Patches `rel` by one committed change — `removed` out, then `added` in
/// — and brings every index over it along; returns whether `rel` changed.
/// A tracked removal patches the two postings its swap-remove moved (a
/// plain `remove` would refresh the id and orphan every index); the
/// appends are consumed from the dense suffix.
fn patch(indexes: &mut IndexSet, rel: &mut Relation, removed: &Relation, added: &Relation) -> bool {
    let mut changed = false;
    for t in removed.iter() {
        changed |= indexes.remove_patched(rel, t).is_some();
    }
    changed |= rel.union_with(added) > 0;
    indexes.catch_up(rel);
    #[cfg(debug_assertions)]
    indexes.debug_validate(rel);
    changed
}

/// The single-writer / many-reader publication point for epochs. See the
/// module docs: [`publish`](EpochCell::publish) atomically replaces the
/// current epoch, [`pin`](EpochCell::pin) hands a reader a refcounted
/// handle on the epoch current at that instant. The lock is held only for
/// the `Arc` clone or swap — never across evaluation — so readers and the
/// writer cannot block each other for more than a pointer exchange.
#[derive(Debug)]
pub struct EpochCell {
    current: Mutex<Arc<Epoch>>,
}

impl EpochCell {
    /// A cell serving `first` (usually epoch 0, fresh from
    /// [`Materialized::publish`](crate::Materialized::publish)).
    pub fn new(first: Arc<Epoch>) -> EpochCell {
        EpochCell {
            current: Mutex::new(first),
        }
    }

    /// Pins the currently published epoch: the returned handle keeps
    /// answering from that snapshot no matter how many later epochs are
    /// published, and frees it on drop (when it is the last pin).
    pub fn pin(&self) -> Arc<Epoch> {
        Arc::clone(&self.current.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Publishes `next` as the current epoch and returns the previous one.
    /// Epoch numbers must advance — publishing is the commit ack of a
    /// serialized writer, and a stale swap would un-commit an acked write.
    ///
    /// # Panics
    /// If `next.number()` does not exceed the published number.
    pub fn publish(&self, next: Arc<Epoch>) -> Arc<Epoch> {
        let mut cur = self.current.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(
            next.number() > cur.number(),
            "epoch publication must advance: {} -> {}",
            cur.number(),
            next.number()
        );
        std::mem::replace(&mut *cur, next)
    }

    /// The currently published epoch number.
    pub fn number(&self) -> u64 {
        self.current
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .number()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materialize::{MaterializeOpts, Materialized};
    use inflog_core::graphs::DiGraph;
    use inflog_syntax::parse_atom;

    const TC: &str = "S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).";

    fn handle(engine: Engine) -> Materialized {
        let db = DiGraph::path(4).to_database("E");
        let opts = MaterializeOpts {
            engine,
            ..MaterializeOpts::default()
        };
        Materialized::new(&inflog_syntax::parse_program(TC).unwrap(), &db, &opts).unwrap()
    }

    #[test]
    fn publish_pin_and_free() {
        let mut m = handle(Engine::Stratified);
        let cell = EpochCell::new(m.publish(m.epoch()).unwrap());
        assert_eq!(cell.number(), 0);
        let pinned = cell.pin();

        m.insert_named("E", &["v3", "v0"]).unwrap();
        let old = cell.publish(m.publish(m.epoch()).unwrap());
        assert_eq!(cell.number(), 1);
        assert!(Arc::ptr_eq(&old, &pinned));
        drop(old);

        // The pinned reader still sees epoch 0: the pre-insert closure.
        let goal = parse_atom("S(x, y)").unwrap();
        let at0 = pinned.select(&goal, None).unwrap();
        assert_eq!(at0.tuples.len(), 3 + 2 + 1);
        let at1 = cell.pin().select(&goal, None).unwrap();
        assert_eq!(at1.tuples.len(), 16, "cycle closes the full square");

        // Old epochs are freed when the last pin drops: the cell holds one
        // reference to epoch 1; `pinned` is the only one left on epoch 0.
        assert_eq!(Arc::strong_count(&pinned), 1);
    }

    #[test]
    fn select_agrees_with_from_scratch_query() {
        for engine in [Engine::Stratified, Engine::WellFounded] {
            let m = handle(engine);
            let ep = m.publish(m.epoch()).unwrap();
            for goal in [
                "S(x, y)",
                "S('v0', y)",
                "S(x, 'v3')",
                "S(x, x)",
                "S('v0', 'v3')",
                "S('v3', 'v0')",
                "E(x, y)",
                "E(x, 'v1')",
            ] {
                let goal = parse_atom(goal).unwrap();
                let scanned = ep.select(&goal, None).unwrap();
                let evaluated = from_scratch(&ep, &goal);
                assert_eq!(scanned.tuples, evaluated.tuples, "goal {goal:?}");
                assert_eq!(scanned.undefined, evaluated.undefined);
            }
        }
    }

    /// A from-scratch goal-directed query over the epoch's program and EDB.
    fn from_scratch(ep: &Epoch, goal: &Atom) -> QueryAnswer {
        crate::query::query(
            ep.program(),
            goal,
            ep.database(),
            &EvalOptions::sequential(),
        )
        .unwrap()
    }

    fn tc_epoch(n: usize) -> Arc<Epoch> {
        let db = DiGraph::path(n).to_database("E");
        let program = inflog_syntax::parse_program(TC).unwrap();
        let m = Materialized::new(&program, &db, &MaterializeOpts::default()).unwrap();
        m.publish(0).unwrap()
    }

    #[test]
    fn concurrent_first_readers_agree_and_share_one_index() {
        let ep = tc_epoch(64);
        let goal = parse_atom("S(x, 'v40')").unwrap();
        let start = std::sync::Barrier::new(8);
        let answers: Vec<QueryAnswer> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        ep.select(&goal, None).unwrap()
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let want = from_scratch(&ep, &goal).tuples;
        assert_eq!(want.len(), 40);
        for answer in &answers {
            assert_eq!(answer.tuples, want);
        }
        assert_eq!(
            ep.indexes.read().len(),
            1,
            "one index, built once and shared"
        );
    }

    #[test]
    fn concurrent_first_open_readers_agree_and_share_one_order() {
        let ep = tc_epoch(24);
        let goal = parse_atom("S(x, y)").unwrap();
        let start = std::sync::Barrier::new(8);
        let answers: Vec<QueryAnswer> = std::thread::scope(|s| {
            let readers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        ep.select(&goal, None).unwrap()
                    })
                })
                .collect();
            readers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        let want = from_scratch(&ep, &goal).tuples;
        assert_eq!(want.len(), 24 * 23 / 2);
        for answer in &answers {
            assert_eq!(answer.tuples, want);
        }
        // The undefined half of S is empty, and an empty relation is
        // never sorted: S's true relation holds the only order.
        let s = ep.compiled().idb_id("S").unwrap();
        let built: Vec<usize> = (0..ep.orders.len())
            .filter(|&i| ep.orders[i].get().is_some())
            .collect();
        assert_eq!(built, [s], "one order, built once and shared");
    }

    #[test]
    fn a_reader_panicking_mid_build_leaves_no_torn_index() {
        let ep = tc_epoch(12);
        let s = ep.interp().get(ep.compiled().idb_id("S").unwrap());
        let died = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let mut set = ep.indexes.lock().write().unwrap();
                    set.tear(s, &[0]);
                    panic!("reader dies mid-build");
                })
                .join()
        });
        assert!(died.is_err() && ep.indexes.lock().is_poisoned());
        for v in 0..12 {
            let goal = parse_atom(&format!("S('v{v}', y)")).unwrap();
            let want = from_scratch(&ep, &goal).tuples;
            assert_eq!(want.len(), 11 - v);
            assert_eq!(ep.select(&goal, None).unwrap().tuples, want, "{goal:?}");
        }
        assert!(!ep.indexes.lock().is_poisoned());
    }

    #[test]
    fn empty_and_undeclared_relations_are_never_indexed() {
        let src = "S(x, y) :- E(x, y). T(x, y) :- F(x, y).";
        let db = DiGraph::path(4).to_database("E");
        let program = inflog_syntax::parse_program(src).unwrap();
        let m = Materialized::new(&program, &db, &MaterializeOpts::default()).unwrap();
        let ep = m.publish(0).unwrap();
        for _ in 0..3 {
            for goal in ["F('v0', y)", "T('v0', y)", "F(x, x)"] {
                let answer = ep.select(&parse_atom(goal).unwrap(), None).unwrap();
                assert!(answer.tuples.is_empty() && answer.undefined.is_empty());
            }
        }
        assert!(ep.indexes.read().is_empty());
    }

    #[test]
    fn contains_is_three_valued() {
        let src = "Win(x) :- Move(x, y), !Win(y).";
        // a <-> b is a draw loop (undefined); d is stuck (lost), so c wins.
        let mut db = Database::new();
        db.insert_named_fact("Move", &["a", "b"]).unwrap();
        db.insert_named_fact("Move", &["b", "a"]).unwrap();
        db.insert_named_fact("Move", &["c", "d"]).unwrap();
        let opts = MaterializeOpts {
            engine: Engine::WellFounded,
            ..MaterializeOpts::default()
        };
        let m = Materialized::new(&inflog_syntax::parse_program(src).unwrap(), &db, &opts).unwrap();
        let ep = m.publish(0).unwrap();
        let t = |name: &str| Tuple::new(vec![db.universe().lookup(name).unwrap()]);
        assert_eq!(ep.contains("Win", &t("c")).unwrap(), Truth::True);
        assert_eq!(ep.contains("Win", &t("d")).unwrap(), Truth::False);
        assert_eq!(ep.contains("Win", &t("a")).unwrap(), Truth::Undefined);
        assert!(ep.contains("NoSuch", &t("a")).is_err());
        assert!(ep.contains("Win", &Tuple::from_ids(&[0, 1])).is_err());
    }

    #[test]
    fn recompute_oracle_accepts_published_epochs() {
        for engine in [
            Engine::Seminaive,
            Engine::Inflationary,
            Engine::Stratified,
            Engine::WellFounded,
        ] {
            let mut m = handle(engine);
            m.insert_named("E", &["v0", "v2"]).unwrap();
            let ep = m.publish(m.epoch()).unwrap();
            assert!(ep.matches_recompute(&EvalOptions::default()).unwrap());
        }
    }

    #[test]
    #[should_panic(expected = "epoch publication must advance")]
    fn stale_publish_is_refused() {
        let m = handle(Engine::Stratified);
        let cell = EpochCell::new(m.publish(5).unwrap());
        let _ = cell.publish(m.publish(5).unwrap());
    }
}
