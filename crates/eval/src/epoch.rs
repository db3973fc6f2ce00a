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
//! The writer patches a retired epoch into the next one
//! ([`Materialized::publish_over`]) only after [`Arc::get_mut`] proves it
//! holds the last reference, and keeps at most one retired epoch alive;
//! otherwise it publishes a deep copy ([`Materialized::publish`]).
//!
//! # Reads are lookups
//!
//! A published epoch holds a finished fixpoint, so [`Epoch::select`] only
//! looks into it: a membership probe for a fully bound goal, an index
//! probe for a partly bound one, the relation's cached sorted order for an
//! unbound one. Each epoch owns its indexes (`u32` positions into its
//! relations, behind one `RwLock`), and their lifetime follows the
//! invariant above:
//! - **readers build**: the first `select` that needs an index on some
//!   relation's bound columns builds it, and every later reader shares it;
//! - **only the writer patches**, in `Epoch::apply`, and only under
//!   [`Arc::get_mut`] — so through [`RwLock::get_mut`], with no lock taken.
//!   Removals patch their postings in place and appends are consumed from
//!   the dense suffix, so a recycled epoch keeps its indexes across
//!   writes;
//! - a deep copy starts with none, so a writer nobody reads from builds
//!   none.
//!
//! A panic while building poisons the lock; the next access drops every
//! index before trusting the set again.
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
//! [`Materialized::publish_over`]: crate::Materialized::publish_over

use crate::error::{BudgetKind, EvalError};
use crate::index::{col_mask, IndexSet};
use crate::interp::Interp;
use crate::materialize::{Change, Engine};
use crate::operator::EvalContext;
use crate::options::EvalOptions;
use crate::query::{self, QueryAnswer, QueryOpts};
use crate::resolve::CompiledProgram;
use crate::Result;
use inflog_core::{Const, Database, Relation, Tuple};
use inflog_syntax::{Atom, Program, Term};
use std::borrow::Cow;
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockWriteGuard};
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
    indexes: RwLock<IndexSet>,
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
        Epoch {
            number,
            state,
            program,
            cp,
            engine,
            db,
            s,
            undefined,
            indexes: RwLock::default(),
        }
    }

    /// Brings a retired snapshot forward by one committed change and
    /// restamps it `number`. Only [`Materialized::publish_over`] calls
    /// this, and only on an epoch it holds the sole reference to.
    ///
    /// [`Materialized::publish_over`]: crate::Materialized::publish_over
    pub(crate) fn apply(&mut self, change: &Change, number: u64) {
        debug_assert_eq!(self.state + 1, change.to, "changes apply in order");
        // Sole owner: the readers' indexes are patched without locking. A
        // set a panicking reader left torn is dropped, not patched.
        let indexes = self.indexes.get_mut().unwrap_or_else(|poisoned| {
            let set = poisoned.into_inner();
            *set = IndexSet::default();
            set
        });
        for (id, name) in self.cp.edb_names.iter().enumerate() {
            let facts = change.edb.get(id);
            match self.db.relation_mut(name) {
                Some(rel) => {
                    let none = Relation::new(rel.arity());
                    let (removed, added) = if change.inserting {
                        (&none, facts)
                    } else {
                        (facts, &none)
                    };
                    patch(indexes, rel, removed, added);
                }
                // A relation the database never declared has no index yet.
                None if change.inserting => {
                    for t in facts.iter() {
                        self.db
                            .insert_fact(name, t.clone())
                            .expect("committed facts fit the database");
                    }
                }
                None => {}
            }
        }
        for i in 0..self.s.len() {
            patch(
                indexes,
                self.s.get_mut(i),
                change.removed.get(i),
                change.added.get(i),
            );
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
        let (rel, undef) = self.relations_of(pred)?;
        if t.arity() != rel.arity() {
            return Err(EvalError::ArityMismatch {
                predicate: pred.to_owned(),
                expected: rel.arity(),
                found: t.arity(),
            });
        }
        if rel.contains(t) {
            Ok(Truth::True)
        } else if undef.is_some_and(|u| u.contains(t)) {
            Ok(Truth::Undefined)
        } else {
            Ok(Truth::False)
        }
    }

    /// Answers a goal by looking it up in this epoch's *materialized*
    /// relations — the serving read path: no evaluation, and work
    /// proportional to the answer, not the relation. Constants in the goal
    /// must exist in the epoch's universe; repeated variables constrain
    /// positions to be equal. Results are sorted lexicographically, so for
    /// IDB goals the answer equals what a from-scratch [`Epoch::query`] over
    /// this epoch's EDB returns (the stress harness asserts exactly that).
    ///
    /// The goal's shape picks the path, for the true and then the undefined
    /// relation:
    /// - **every column bound:** one membership probe;
    /// - **some bound:** the postings of this epoch's index on exactly those
    ///   columns, filtered for repeated variables; only the answer is
    ///   sorted. The first reader that needs an index builds it, and every
    ///   later reader of the epoch shares it. Only the writer changes an
    ///   index afterwards, when [`Materialized::publish_over`] patches the
    ///   epoch forward — which it does only once [`Arc::get_mut`] proves no
    ///   reader can see it — so indexes follow the epoch and are never
    ///   rebuilt per write;
    /// - **none bound:** the relation's cached sorted order, filtered for
    ///   repeated variables — sorted once per epoch, not once per read.
    ///
    /// `deadline` trips before any work when it has already passed, and the
    /// unbound path polls it every few thousand tuples; either gives up with
    /// [`EvalError::BudgetExceeded`] ([`BudgetKind::Deadline`]).
    ///
    /// # Errors
    /// [`EvalError::UnknownRelation`], [`EvalError::ArityMismatch`],
    /// [`EvalError::UnknownConstant`], or the deadline trip.
    ///
    /// [`Materialized::publish_over`]: crate::Materialized::publish_over
    pub fn select(&self, goal: &Atom, deadline: Option<Instant>) -> Result<QueryAnswer> {
        let (rel, undef) = self.relations_of(&goal.predicate)?;
        if goal.terms.len() != rel.arity() {
            return Err(EvalError::ArityMismatch {
                predicate: goal.predicate.clone(),
                expected: rel.arity(),
                found: goal.terms.len(),
            });
        }
        let pattern = self.pattern_of(goal)?;
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
        let tuples = self.read(&rel, &pattern, &cols, &key, deadline)?;
        let undefined = match undef {
            Some(u) => self.read(u, &pattern, &cols, &key, deadline)?,
            None => Vec::new(),
        };
        Ok(QueryAnswer {
            tuples,
            undefined,
            strategy: query::QueryStrategy::EdbScan,
        })
    }

    /// One relation's share of a [`select`](Epoch::select) answer: the
    /// tuples of `rel` matching `pattern`, whose bound columns `cols` hold
    /// `key`.
    fn read(
        &self,
        rel: &Relation,
        pattern: &[Slot],
        cols: &[usize],
        key: &Tuple,
        deadline: Option<Instant>,
    ) -> Result<Vec<Tuple>> {
        // Never indexed: this is also the stand-in for an undeclared EDB
        // relation, whose id is fresh on every read.
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
            return scan_sorted(rel, pattern, deadline);
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
        // A poisoned lock reads as a miss; the write guard below clears it.
        if let Some(out) = self.indexes.read().ok().and_then(|set| answer(&set)) {
            return out;
        }
        let mut set = self.write_indexes();
        // Another reader may have built it between the two guards.
        if set.resolve(rel.id(), cols).is_none() {
            set.ensure(rel, cols);
        }
        answer(&set).expect("an index on fewer than 128 columns was just built")
    }

    /// The write guard on the index set. A reader that panicked while
    /// building poisoned the lock and may have left a torn index, which
    /// would serve wrong answers silently; indexes are derived data, so
    /// recovery drops them all (as [`Relation::sorted`] does its cache).
    fn write_indexes(&self) -> RwLockWriteGuard<'_, IndexSet> {
        self.indexes.write().unwrap_or_else(|poisoned| {
            let mut set = poisoned.into_inner();
            *set = IndexSet::default();
            self.indexes.clear_poison();
            set
        })
    }

    /// Answers a goal by *evaluating from scratch* over this epoch's EDB —
    /// the governed goal-directed path ([`query::query`]), carrying the
    /// caller's budget/deadline/cancellation. Deterministic per epoch, so
    /// two readers pinning the same epoch always get the same answer.
    ///
    /// # Errors
    /// Same conditions as [`query::query`].
    pub fn query(&self, goal: &Atom, opts: &QueryOpts) -> Result<QueryAnswer> {
        query::query(&self.program, goal, &self.db, opts)
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
        let (s, undefined) = self.engine.evaluate(&self.cp, &ctx, opts)?;
        Ok(self.s == s && self.undefined == undefined)
    }

    /// The true and (for IDB predicates) undefined relations of `pred`. An
    /// EDB predicate the database never declared reads as empty.
    fn relations_of(&self, pred: &str) -> Result<(Cow<'_, Relation>, Option<&Relation>)> {
        if let Some(i) = self.cp.idb_id(pred) {
            return Ok((Cow::Borrowed(self.s.get(i)), Some(self.undefined.get(i))));
        }
        if let Some(i) = self.cp.edb_id(pred) {
            let rel = match self.db.relation(pred) {
                Some(rel) => Cow::Borrowed(rel),
                None => Cow::Owned(Relation::new(self.cp.edb_arities[i])),
            };
            return Ok((rel, None));
        }
        Err(EvalError::UnknownRelation {
            name: pred.to_owned(),
        })
    }

    /// Resolves a goal's terms: constants to universe ids, variables to
    /// equality classes (first occurrence binds, repeats constrain).
    fn pattern_of(&self, goal: &Atom) -> Result<Vec<Slot>> {
        let mut vars: Vec<&str> = Vec::new();
        goal.terms
            .iter()
            .map(|term| match term {
                Term::Const(name) => self
                    .db
                    .universe()
                    .lookup(name)
                    .map(Slot::Bound)
                    .ok_or_else(|| EvalError::UnknownConstant { name: name.clone() }),
                Term::Var(v) => Ok(match vars.iter().position(|seen| seen == v) {
                    Some(first) => Slot::SameAs(first),
                    None => {
                        vars.push(v);
                        Slot::Free
                    }
                }),
            })
            .collect()
    }
}

/// One resolved goal position for the scan filter.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// Must equal this constant.
    Bound(Const),
    /// First occurrence of a variable: matches anything.
    Free,
    /// Repeated variable: must equal the value at this earlier position.
    SameAs(usize),
}

fn pattern_matches(pattern: &[Slot], t: &Tuple) -> bool {
    let items = t.items();
    pattern.iter().enumerate().all(|(i, slot)| match slot {
        Slot::Bound(c) => items[i] == *c,
        Slot::Free => true,
        Slot::SameAs(j) => items[i] == items[*j],
    })
}

/// The read with no usable index: `rel`'s cached sorted order, filtered by
/// `pattern` in place. This is the one read loop as long as the relation,
/// so it polls `deadline`.
fn scan_sorted(rel: &Relation, pattern: &[Slot], deadline: Option<Instant>) -> Result<Vec<Tuple>> {
    let mut out = rel.sorted();
    let mut kept = 0;
    for i in 0..out.len() {
        if i & SCAN_POLL_MASK == SCAN_POLL_MASK && deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(deadline_tripped());
        }
        if pattern_matches(pattern, &out[i]) {
            out.swap(kept, i);
            kept += 1;
        }
    }
    out.truncate(kept);
    Ok(out)
}

fn deadline_tripped() -> EvalError {
    EvalError::BudgetExceeded {
        kind: BudgetKind::Deadline,
        limit: 0,
    }
}

/// Patches `rel` by one committed change — `removed` out, then `added` in
/// — and brings every index over it along. A tracked removal patches the
/// two postings its swap-remove moved (a plain `remove` would refresh the
/// id and orphan every index); the appends are consumed from the dense
/// suffix.
fn patch(indexes: &mut IndexSet, rel: &mut Relation, removed: &Relation, added: &Relation) {
    for t in removed.iter() {
        let old_len = rel.len();
        if let Some((pos, moved_from)) = rel.remove_tracked(t) {
            indexes.patch_swap_remove(rel, t, pos, moved_from, old_len);
        }
    }
    rel.union_with(added);
    indexes.catch_up(rel);
    #[cfg(debug_assertions)]
    indexes.debug_validate(rel);
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
                let evaluated = ep.query(&goal, &QueryOpts::default()).unwrap();
                assert_eq!(scanned.tuples, evaluated.tuples, "goal {goal:?}");
                assert_eq!(scanned.undefined, evaluated.undefined);
            }
        }
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
        let want = ep.query(&goal, &QueryOpts::default()).unwrap().tuples;
        assert_eq!(want.len(), 40);
        for answer in &answers {
            assert_eq!(answer.tuples, want);
        }
        let indexes = ep.indexes.read().unwrap();
        assert_eq!(indexes.len(), 1, "one index, built once and shared");
    }

    #[test]
    fn a_reader_panicking_mid_build_leaves_no_torn_index() {
        let ep = tc_epoch(12);
        let s = ep.interp().get(ep.compiled().idb_id("S").unwrap());
        let died = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let mut set = ep.indexes.write().unwrap();
                    set.tear(s, &[0]);
                    panic!("reader dies mid-build");
                })
                .join()
        });
        assert!(died.is_err() && ep.indexes.is_poisoned());
        for v in 0..12 {
            let goal = parse_atom(&format!("S('v{v}', y)")).unwrap();
            let want = ep.query(&goal, &QueryOpts::default()).unwrap().tuples;
            assert_eq!(want.len(), 11 - v);
            assert_eq!(ep.select(&goal, None).unwrap().tuples, want, "{goal:?}");
        }
        assert!(!ep.indexes.is_poisoned());
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
        assert!(ep.indexes.read().unwrap().is_empty());
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
