//! Live incremental view maintenance: a long-lived materialized fixpoint
//! that *repairs* itself under EDB inserts and retracts instead of
//! recomputing.
//!
//! The paper defines every negation semantics — least fixpoint, stratified,
//! inflationary, well-founded — over a *fixed* database. [`Materialized`]
//! lifts each of them to a changing one: [`Materialized::new`] runs the
//! chosen engine once, and [`Materialized::insert`] /
//! [`Materialized::retract`] bring the model back to what a from-scratch
//! evaluation over the mutated database would produce, for at most the cost
//! of a bounded overdeletion plus one re-evaluation of what it condemned
//! (see *The cost bound* below).
//!
//! # Repair strategies
//!
//! * **Delete–rederive (DRed)** — for the semi-naive least fixpoint,
//!   stratified evaluation, and the well-founded model of stratifiable
//!   programs (where it coincides with the perfect model). Per stratum,
//!   bottom up:
//!
//!   1. *Damage*: before the EDB mutates, enumerate exactly the rule
//!      instances the change kills — positive occurrences of retracted
//!      facts through the `EdbDelta` plans, negated occurrences of inserted
//!      facts through the `EdbNegDelta` plans — with every other literal
//!      still reading the old state, so the enumeration is exact.
//!   2. *Overdelete*: close the damage cone through positive IDB
//!      dependencies (the same frontier sweep as the incremental
//!      well-founded engine), removing cone members with
//!      [`IndexSet::patch_swap_remove`](crate::IndexSet) so the persistent
//!      indexes stay warm. Heads landing in higher strata are parked until
//!      their stratum's turn.
//!   3. *Rederive*: one batch pass of the index-backed check plans finds the
//!      cone members that still have a one-step derivation from what
//!      survived; they seed step 4, whose delta rounds bring back the rest
//!      of the surviving cone.
//!   4. *Top-up*: the instances the change *enables* — inserted facts
//!      through positive EDB occurrences, retracted facts through negated
//!      ones, plus lower-strata additions (`PosDelta`) and genuine removals
//!      (`NegDelta`) — join the seed, and one semi-naive extension of the
//!      shared [`DeltaDriver`] drains both. Whatever it appends that was
//!      not overdeleted is an addition for the strata above; a cone member
//!      still absent afterwards is a removal.
//!
//!   A batch is one-sided (an insert adds facts only; a retract removes
//!   only), which is what makes step 1 exact rather than approximate.
//!
//! * **Restart** — for the inflationary fixpoint, whose Θ̃-iteration is not
//!   change-monotone (an inserted fact can invalidate an inference the old
//!   run made early, and a retracted one can resurrect it — there is no
//!   sound local repair), and for the well-founded model of
//!   non-stratifiable programs, whose alternating fixpoint interleaves
//!   growth and shrinkage the same way. These engines re-run from the
//!   mutated EDB over the *warm* [`EvalContext`], so the persistent indexes
//!   and scratch buffers are reused even though the fixpoint is not.
//!
//! # The cost bound
//!
//! Every overdeleted tuple is paid for twice — removed with its index
//! postings patched, then checked and, mostly, put back — so DRed only
//! beats re-evaluation while the cone is small. A stratified model is a
//! tower of least fixpoints, one per stratum over the strata below, so
//! re-running the driver over strata ≥ k above repaired lower strata *is*
//! a correct repair (it is what the debug check compares against). Repair
//! therefore closes the cone of stratum k only while it holds **at most
//! half of the live tuples of strata ≥ k** — half of what re-evaluating
//! from k would rebuild. The frontier that would cross that line is not
//! removed: the per-stratum driver loop of [`Materialized::new`] runs from
//! k into fresh relations, and each live relation of strata ≥ k is then
//! patched to its fresh counterpart — swap-removed with its indexes
//! patched where the fresh one lacks a tuple, appended to where it has a
//! new one. A relation thus keeps its id, the dense order of what stayed
//! and its warm indexes: the update after a re-evaluation catches the
//! indexes up by what changed instead of rebuilding them. A repair costs
//! at most the overdeletion done so far — under half a re-evaluation's
//! worth of tuples — plus one re-evaluation of the strata it condemned and
//! one probe per tuple to patch them; work stays proportional to the
//! change exactly when the change's cone is small.
//! [`Materialized::last_repair`] reports which way an update went.
//!
//! The case the bound exists for is a retracted edge of a strongly
//! connected graph under transitive closure, which condemns the whole
//! closure: closing that cone and rederiving it cost ≈ 3× a re-evaluation,
//! the bounded repair costs ≈ 1.5× (phase table in the README's
//! "Incremental updates"). The closure comes out as it was, so the patch
//! only puts back the overdeleted tuples.
//!
//! In debug builds every update re-evaluates from scratch and asserts the
//! repaired state — true facts and undefined sets — is identical, and
//! validates the index postings of every live relation.
//!
//! # The transactional invariant
//!
//! [`Materialized::insert`] and [`Materialized::retract`] are
//! **transactional**: after the call returns, the handle is either *fully
//! repaired* (on `Ok`) or *bit-identical to its pre-update state* (on
//! `Err`) — same database snapshot, same dense tuple orders in every EDB
//! and IDB relation, same driver watermarks — and remains fully usable
//! either way. A repair can fail mid-flight through the governance layer
//! (deadline, [`Budget`](crate::govern::Budget) exhaustion, a
//! [`CancelToken`](crate::govern::CancelToken) trip, an armed failpoint) or
//! through a contained panic; every mutation a repair makes is therefore
//! recorded in an undo log — swap-remove positions for deletions, the
//! relations swapped out for re-evaluation, dense watermarks for appended
//! suffixes — and on failure the log is replayed in reverse: appended
//! suffixes are truncated away, swapped-out relations put back, and
//! swap-removed tuples re-inserted at their exact former dense positions.
//! Relations touched by the rollback get a fresh relation id and the
//! indexes over the retired one are dropped, so the persistent
//! [`IndexSet`](crate::IndexSet) never serves postings patched during the
//! aborted repair. A relation swapped out and put back was not touched: it
//! keeps its id and indexes. The
//! [`RepairStrategy::Restart`] engines get the same guarantee cheaply:
//! their re-evaluation builds the new model in fresh interpretations and
//! the handle's state is assigned only after it fully succeeds, so only the
//! EDB mutation itself needs the log. Debug builds re-verify the invariant
//! after every rollback by comparing against a from-scratch evaluation;
//! the release-mode failpoint sweep in `tests/materialized_churn.rs`
//! asserts dense-order bit-identity at every registered site.

use crate::driver::DeltaDriver;
use crate::epoch::Epoch;
use crate::error::EvalError;
use crate::govern::Governor;
use crate::inflationary::inflationary_compiled_with;
use crate::interp::Interp;
use crate::naive::require_positive;
use crate::operator::{self, EvalContext, PlanKind};
use crate::options::EvalOptions;
use crate::query::{self, QueryAnswer, QueryOpts};
use crate::resolve::CompiledProgram;
use crate::stratified::stratified_eval_compiled_with;
use crate::wellfounded::well_founded_compiled_with;
use crate::Result;
use inflog_core::failpoints::{SITE_OVERDELETE_CLOSE, SITE_REDERIVE_SWEEP};
use inflog_core::{Const, Database, Relation, Tuple};
use inflog_store::{WalOp, WalRecord};
use inflog_syntax::{Atom, Program};
use std::sync::Arc;

/// Which semantics a [`Materialized`] handle maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Semi-naive least fixpoint of a positive program.
    Seminaive,
    /// Inflationary fixpoint (§4) — defined for every program.
    Inflationary,
    /// Stratified (perfect-model) semantics; requires stratifiability.
    #[default]
    Stratified,
    /// Well-founded (3-valued) semantics — defined for every program.
    WellFounded,
}

impl Engine {
    /// Evaluates this engine from scratch over `(cp, ctx)`: the true facts
    /// and the undefined ones (empty but for the well-founded engine).
    /// `Seminaive` evaluates through the inflationary engine: Θ^∞ is the
    /// least fixpoint on the positive programs it accepts (§4).
    ///
    /// # Errors
    /// The governance errors of the engine under `opts`;
    /// [`EvalError::NotStratified`] for `Stratified` on a program without
    /// strata.
    pub(crate) fn evaluate(
        self,
        cp: &CompiledProgram,
        ctx: &EvalContext,
        opts: &EvalOptions,
    ) -> Result<(Interp, Interp)> {
        Ok(match self {
            Engine::Seminaive | Engine::Inflationary => (
                inflationary_compiled_with(cp, ctx, opts)?.0,
                cp.empty_interp(),
            ),
            Engine::Stratified => (
                stratified_eval_compiled_with(cp, ctx, opts)?.0,
                cp.empty_interp(),
            ),
            Engine::WellFounded => {
                let model = well_founded_compiled_with(cp, ctx, opts)?;
                (model.true_facts, model.undefined)
            }
        })
    }
}

/// How a handle brings its state back in line after an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairStrategy {
    /// Delete–rederive repair: overdelete the change's cone, rederive
    /// survivors, top up insertions — per stratum, giving way to
    /// re-evaluation from the first stratum whose cone exceeds half of what
    /// that would rebuild (the module docs' cost bound).
    DeleteRederive,
    /// Full re-evaluation from the mutated EDB over the warm context. Used
    /// where the fixpoint is not change-monotone (inflationary always;
    /// well-founded when the program is not stratifiable).
    Restart,
}

/// Options for [`Materialized::new`].
#[derive(Debug, Clone, Default)]
pub struct MaterializeOpts {
    /// The semantics to maintain.
    pub engine: Engine,
    /// Engine options (budget, cancellation, failpoints), used by the initial
    /// evaluation and by every repair.
    pub eval: EvalOptions,
}

/// What the most recent committed update's repair did, phase by phase — see
/// [`Materialized::last_repair`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Tuples overdeleted: the damage cones of all strata, as far as they
    /// were closed (a stratum that gave up contributes what it had removed
    /// by then; the re-evaluation's patch puts back what survives).
    pub cone: usize,
    /// Overdeleted tuples that came back, confirmed by the one-step
    /// derivability check or by a later round.
    pub rederived: usize,
    /// Tuples the top-up added that the model did not hold before.
    pub added: usize,
    /// The stratum whose cone outgrew the bound, if any: strata from this
    /// one up were re-evaluated and patched to the result instead of
    /// repaired.
    pub recomputed_from: Option<usize>,
}

/// The net change one committed update made: the EDB facts the batch
/// actually changed and the IDB tuples that entered or left the model.
/// [`Materialized::publish_over`] brings a retired epoch forward with it
/// instead of deep-copying the whole state.
///
/// Known for no-op batches and for every [`RepairStrategy::DeleteRederive`]
/// update — one that re-evaluated from a stratum
/// ([`RepairStats::recomputed_from`]) too, from the patch that brought its
/// relations to the result. A [`RepairStrategy::Restart`] update does not
/// track what changed.
#[derive(Debug)]
pub struct Change {
    /// [`Materialized::epoch`] right after the update: the change leads from
    /// state `to - 1` to state `to`.
    pub(crate) to: u64,
    /// Whether the batch inserted (else it retracted) the `edb` facts.
    pub(crate) inserting: bool,
    /// The facts the batch changed, by EDB id.
    pub(crate) edb: Interp,
    /// IDB tuples new to the model, by IDB id.
    pub(crate) added: Interp,
    /// IDB tuples gone from the model, by IDB id.
    pub(crate) removed: Interp,
}

/// One reversible mutation a repair made, recorded so a failed update can
/// be replayed backwards (see the module docs' *transactional invariant*).
/// Each undo assumes the state right after the op it reverses — which
/// reverse-order replay guarantees.
#[derive(Debug)]
enum UndoOp {
    /// IDB `idb` was swapped out for a fresh relation to re-evaluate its
    /// stratum; `old` is the relation itself, untouched since — same id,
    /// dense order and indexes. The fresh relation is empty again at undo
    /// time. Boxed: a removal is logged per overdeleted tuple, and every op
    /// is as large as the largest.
    IdbSwap { idb: usize, old: Box<Relation> },
    /// `t` was swap-removed from IDB `idb` at dense position `pos`
    /// (overdeletion).
    IdbRemove { idb: usize, pos: usize, t: Tuple },
    /// A driver extension may have appended a dense suffix to IDB `idb`;
    /// `before` is the pre-extension length.
    IdbAppend { idb: usize, before: usize },
    /// A staged fact was appended to EDB `edb` and to the database
    /// relation `name`.
    EdbInsert { edb: usize, name: String },
    /// `t` was swap-removed from EDB `edb` at dense position `pos` and from
    /// the database relation `name` at `db_pos`.
    EdbRemove {
        edb: usize,
        name: String,
        pos: usize,
        db_pos: Option<usize>,
        t: Tuple,
    },
}

/// A live materialized model: the fixpoint of one program over a database
/// that changes underneath it.
///
/// The handle owns its program, database snapshot, compiled plans and
/// evaluation context; [`insert`](Materialized::insert) and
/// [`retract`](Materialized::retract) mutate the database *and* repair the
/// model in one step. After any sequence of updates the state is identical
/// to evaluating the program from scratch over the current database —
/// debug builds assert exactly that after every update.
#[derive(Debug)]
pub struct Materialized {
    /// Shared with every [`Epoch`] this handle publishes: an epoch snapshot
    /// clones the mutable state (database, model) but only bumps a
    /// refcount for the program and its compiled plans.
    program: Arc<Program>,
    db: Database,
    /// Shared with published epochs, like `program`.
    cp: Arc<CompiledProgram>,
    ctx: EvalContext,
    driver: DeltaDriver,
    engine: Engine,
    /// [`RepairStrategy::DeleteRederive`] exactly when the engine is not
    /// inflationary and the compiled program has strata, which the repair
    /// walks.
    strategy: RepairStrategy,
    opts: EvalOptions,
    /// True facts of the maintained model.
    s: Interp,
    /// Undefined facts (non-empty only for non-stratifiable well-founded).
    undefined: Interp,
    /// Number of committed updates since construction: every `Ok` return of
    /// [`Materialized::insert`]/[`Materialized::retract`] — including no-op
    /// batches — bumps it by one, so the durable layer's WAL record count
    /// always equals the epoch delta. A failed (rolled-back) update does not
    /// advance it.
    epoch: u64,
    /// Phase sizes of the last committed update (all zero after a
    /// [`RepairStrategy::Restart`] update or a no-op batch).
    last_repair: RepairStats,
    /// Net change of the last committed update, until
    /// [`Materialized::take_change`] moves it out; `None` after a
    /// [`RepairStrategy::Restart`] update or a failed one.
    change: Option<Change>,
}

impl Materialized {
    /// Evaluates `program` over `db` once with the chosen engine and
    /// returns the live handle.
    ///
    /// # Errors
    /// Compilation errors; [`EvalError::NotPositive`] for
    /// [`Engine::Seminaive`] on programs with negation;
    /// [`EvalError::NotStratified`] for [`Engine::Stratified`] on
    /// non-stratifiable programs.
    pub fn new(program: &Program, db: &Database, opts: &MaterializeOpts) -> Result<Materialized> {
        Self::recover(program, db, &[], opts)
    }

    /// Evaluates `program` over `db` with `records` applied to it first, in
    /// log order: the recovery path of `DurableMaterialized`, and with no
    /// records the whole of [`Materialized::new`].
    ///
    /// Each record is validated as [`Materialized::insert`] /
    /// [`Materialized::retract`] validate a batch and applied to the EDB as
    /// set operations; no repair runs, because the model is a function of
    /// the EDB alone. The model is the one `new` builds over the folded
    /// database, down to dense order: the compiled plans saw the unfolded
    /// sizes, but every evaluation re-plans from the live ones.
    ///
    /// # Errors
    /// The construction errors of [`Materialized::new`], and the validation
    /// errors of [`Materialized::insert`] for a record that does not fit
    /// the program.
    pub(crate) fn recover(
        program: &Program,
        db: &Database,
        records: &[WalRecord],
        opts: &MaterializeOpts,
    ) -> Result<Materialized> {
        let mut m = Self::build(program, db, opts)?;
        for rec in records {
            let inserting = rec.op == WalOp::Insert;
            let staged = m.stage(&rec.facts, inserting)?;
            m.mutate_edb(&staged, inserting, &mut Vec::new());
        }
        match m.strategy {
            RepairStrategy::DeleteRederive => {
                let governor = Governor::new(&m.opts);
                let none = m.cp.empty_interp();
                m.evaluate_from(0, &governor, &mut Vec::new(), &none, &mut none.clone())?;
            }
            RepairStrategy::Restart => m.reevaluate()?,
        }
        #[cfg(debug_assertions)]
        m.debug_check();
        Ok(m)
    }

    /// The handle before its first evaluation: compile, check the engine's
    /// prerequisites, pick the repair strategy, build the warm context and
    /// driver, leave the model empty.
    fn build(program: &Program, db: &Database, opts: &MaterializeOpts) -> Result<Materialized> {
        let cp = CompiledProgram::compile(program, db)?;
        match opts.engine {
            Engine::Seminaive => require_positive(program)?,
            Engine::Stratified => {
                cp.strata()?;
            }
            Engine::Inflationary | Engine::WellFounded => {}
        }
        let strategy = if opts.engine != Engine::Inflationary && cp.strata().is_ok() {
            RepairStrategy::DeleteRederive
        } else {
            RepairStrategy::Restart
        };
        let ctx = EvalContext::new(&cp, db)?;
        let driver = DeltaDriver::new(&cp);
        let s = cp.empty_interp();
        let undefined = cp.empty_interp();
        let m = Materialized {
            program: Arc::new(program.clone()),
            db: db.clone(),
            cp: Arc::new(cp),
            ctx,
            driver,
            engine: opts.engine,
            strategy,
            opts: opts.eval.clone(),
            s,
            undefined,
            epoch: 0,
            last_repair: RepairStats::default(),
            change: None,
        };
        Ok(m)
    }

    /// Inserts `facts` (relation name, tuple) into the database and repairs
    /// the materialization. Facts already present are ignored; the whole
    /// batch is validated before anything mutates. Returns the number of
    /// facts actually added.
    ///
    /// The update is **transactional**: if the repair fails mid-flight —
    /// budget exhausted, cancellation, an armed failpoint, a contained
    /// panic — every mutation is rolled back and the handle is bit-identical
    /// to its pre-update state and fully usable (the module docs detail the
    /// invariant). Retrying the same batch later is always legal.
    ///
    /// # Errors
    /// [`EvalError::UnknownRelation`] for a relation the program does not
    /// read, [`EvalError::ArityMismatch`] on a wrong-width tuple,
    /// [`EvalError::UnknownConstant`] for a constant outside the database
    /// universe (the universe is fixed at construction);
    /// [`EvalError::Cancelled`], [`EvalError::BudgetExceeded`] or
    /// [`EvalError::WorkerPanic`] when the governed repair trips — with the
    /// state rolled back.
    pub fn insert(&mut self, facts: &[(&str, Tuple)]) -> Result<usize> {
        self.update(facts, true)
    }

    /// Removes `facts` from the database and repairs the materialization.
    /// Facts not present are ignored (retracting a never-inserted fact is a
    /// no-op); the whole batch is validated before anything mutates.
    /// Returns the number of facts actually removed. Transactional exactly
    /// like [`Materialized::insert`]: a failed repair rolls back to the
    /// bit-identical pre-update state.
    ///
    /// # Errors
    /// Same conditions as [`Materialized::insert`].
    pub fn retract(&mut self, facts: &[(&str, Tuple)]) -> Result<usize> {
        self.update(facts, false)
    }

    /// Single-fact [`Materialized::insert`] with named constants.
    ///
    /// # Errors
    /// Same conditions as [`Materialized::insert`].
    pub fn insert_named(&mut self, pred: &str, consts: &[&str]) -> Result<usize> {
        let t = self.named_tuple(consts)?;
        self.insert(&[(pred, t)])
    }

    /// Single-fact [`Materialized::retract`] with named constants.
    ///
    /// # Errors
    /// Same conditions as [`Materialized::insert`].
    pub fn retract_named(&mut self, pred: &str, consts: &[&str]) -> Result<usize> {
        let t = self.named_tuple(consts)?;
        self.retract(&[(pred, t)])
    }

    /// The true facts of the maintained model (IDB relations by IDB id —
    /// see [`Materialized::compiled`] for the id mapping).
    pub fn interp(&self) -> &Interp {
        &self.s
    }

    /// Facts undefined in the maintained model. Empty except for the
    /// well-founded engine on non-stratifiable programs.
    pub fn undefined(&self) -> &Interp {
        &self.undefined
    }

    /// The engine this handle maintains.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// How updates are repaired ([`RepairStrategy::DeleteRederive`] or the
    /// documented [`RepairStrategy::Restart`] fallback).
    pub fn repair_strategy(&self) -> RepairStrategy {
        self.strategy
    }

    /// Number of committed updates since construction (see the `epoch` field
    /// docs: no-op batches count, failed updates do not).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// What the last committed update's repair did: overdeletion cone,
    /// rederived and added tuples, and whether — and from which stratum —
    /// it fell back to re-evaluation (see the module docs' cost bound). All
    /// zero for [`RepairStrategy::Restart`] handles and no-op batches; a
    /// rolled-back update is not committed and leaves it as it was.
    pub fn last_repair(&self) -> RepairStats {
        self.last_repair
    }

    /// The database as of the last update.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The compiled program (predicate-id mappings, arities).
    pub fn compiled(&self) -> &CompiledProgram {
        &self.cp
    }

    /// The maintained program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Clones the committed model into an immutable, shareable
    /// [`Epoch`] snapshot stamped `number` (callers pick the numbering —
    /// the durable layer uses its durable epoch, in-memory servers use
    /// [`Materialized::epoch`]).
    ///
    /// The snapshot deep-copies the relations of the database, the model
    /// and the undefined set; the universe, the program and its compiled
    /// plans are shared by refcount. Publishing never blocks on or is
    /// observed by concurrent readers of previously published epochs —
    /// an [`EpochCell`](crate::epoch::EpochCell) swap makes it visible.
    /// [`Materialized::publish_over`] avoids the copy when the writer can
    /// recycle an epoch it retired.
    ///
    /// # Errors
    /// None today; the `Result` is part of the stable signature.
    pub fn publish(&self, number: u64) -> Result<Arc<Epoch>> {
        Ok(Arc::new(Epoch::from_parts(
            number,
            self.epoch,
            Arc::clone(&self.program),
            Arc::clone(&self.cp),
            self.engine,
            self.db.clone(),
            self.s.clone(),
            self.undefined.clone(),
        )))
    }

    /// Publishes the committed model stamped `number` by patching
    /// `retired` — an epoch this handle published earlier and its
    /// publisher has since replaced — instead of deep-copying.
    ///
    /// `gap` is the change this handle committed right after `retired`'s
    /// state ([`Materialized::take_change`] taken once `retired` was
    /// superseded); with the handle's own last change it brings `retired`
    /// up to date — the writer's loop: publish, keep the superseded epoch
    /// and the change after it, commit, patch. The patch happens only when
    /// [`Arc::get_mut`] proves the caller holds the last reference and both
    /// changes are known and lead exactly from `retired`'s state to the
    /// current one; otherwise this
    /// is [`Materialized::publish`], and `retired` comes back unused as the
    /// second value so the caller can release it *after* acknowledging the
    /// write (freeing a snapshot costs about as much as copying one).
    ///
    /// Debug builds assert that a patched epoch equals the committed state.
    ///
    /// # Errors
    /// Same as [`Materialized::publish`].
    pub fn publish_over(
        &self,
        mut retired: Arc<Epoch>,
        gap: Option<&Change>,
        number: u64,
    ) -> Result<(Arc<Epoch>, Option<Arc<Epoch>>)> {
        let Some(epoch) = Arc::get_mut(&mut retired) else {
            return Ok((self.publish(number)?, Some(retired)));
        };
        let Some(steps) = self.changes_since(epoch, gap) else {
            return Ok((self.publish(number)?, Some(retired)));
        };
        for change in steps {
            epoch.apply(change, number);
        }
        debug_assert!(
            epoch.interp() == &self.s
                && epoch.undefined() == &self.undefined
                && epoch.database() == &self.db,
            "a recycled epoch diverged from the committed state"
        );
        Ok((retired, None))
    }

    /// `gap` and the last change, when together they lead from `epoch`'s
    /// state to the current one — `None` when `epoch` is not this handle's
    /// or a step is unknown.
    fn changes_since<'a>(
        &'a self,
        epoch: &Epoch,
        gap: Option<&'a Change>,
    ) -> Option<[&'a Change; 2]> {
        let (gap, last) = (gap?, self.change.as_ref()?);
        let chained = Arc::ptr_eq(&epoch.cp, &self.cp)
            && gap.to == epoch.state + 1
            && last.to == gap.to + 1
            && last.to == self.epoch;
        chained.then_some([gap, last])
    }

    /// Moves out the net change of the last committed update — the `gap` a
    /// later [`Materialized::publish_over`] needs to bring forward the
    /// epoch this update's publish superseded. `None` when that update was a
    /// [`RepairStrategy::Restart`] one or failed, or the change was already
    /// taken.
    pub fn take_change(&mut self) -> Option<Change> {
        self.change.take()
    }

    /// Replaces the evaluation options used by subsequent repairs — the
    /// way to attach a [`Budget`](crate::Budget),
    /// [`CancelToken`](crate::CancelToken) or armed
    /// [`Failpoints`](inflog_core::failpoints::Failpoints) to a live handle. Arming at
    /// construction instead would let the initial evaluation spend the
    /// budget (or a one-shot failpoint trigger) before the first update
    /// runs.
    pub fn set_eval_options(&mut self, opts: EvalOptions) {
        self.opts = opts;
    }

    /// Whether `t` is true for predicate `pred` (IDB: in the model; EDB: in
    /// the database). Unknown predicates are simply false.
    pub fn contains(&self, pred: &str, t: &Tuple) -> bool {
        if let Some(i) = self.cp.idb_id(pred) {
            return self.s.get(i).contains(t);
        }
        if let Some(i) = self.cp.edb_id(pred) {
            return self.ctx.edb[i].contains(t);
        }
        false
    }

    /// Answers a goal-directed [`query`](crate::query::query) against the
    /// handle's current database — after an update, answers agree with the
    /// maintained model.
    ///
    /// # Errors
    /// Same conditions as [`query`](crate::query::query).
    pub fn query(&self, goal: &Atom, opts: &QueryOpts) -> Result<QueryAnswer> {
        query::query(&self.program, goal, &self.db, opts)
    }

    /// Resolves named constants against the (fixed) universe.
    fn named_tuple(&self, consts: &[&str]) -> Result<Tuple> {
        let ids: Result<Vec<Const>> = consts
            .iter()
            .map(|c| {
                self.db
                    .universe()
                    .lookup(c)
                    .ok_or_else(|| EvalError::UnknownConstant {
                        name: (*c).to_owned(),
                    })
            })
            .collect();
        Ok(Tuple::new(ids?))
    }

    /// Shared insert/retract entry: validate, dedupe, repair — and on any
    /// mid-repair failure (budget, cancellation, failpoint, contained
    /// panic), roll every mutation back so the handle is bit-identical to
    /// its pre-update state and stays usable.
    fn update(&mut self, facts: &[(&str, Tuple)], inserting: bool) -> Result<usize> {
        // Only a committed update leaves a change behind.
        self.change = None;
        let staged = self.stage(facts, inserting)?;
        let n = staged.total_tuples();
        if n == 0 {
            // No-op batches still commit an epoch: the durable layer logs a
            // WAL record before knowing the batch changes nothing, and the
            // record count must equal the epoch delta for replay to line up.
            self.epoch += 1;
            self.last_repair = RepairStats::default();
            self.change = Some(Change {
                to: self.epoch,
                inserting,
                edb: staged,
                added: self.cp.empty_interp(),
                removed: self.cp.empty_interp(),
            });
            return Ok(0);
        }
        let saved_driver = self.driver.save_state();
        let mut log: Vec<UndoOp> = Vec::new();
        let outcome = {
            let this = &mut *self;
            let log = &mut log;
            let staged = &staged;
            // A panic anywhere inside the repair must not poison the handle:
            // contain it, roll back, and surface it as a typed error. The
            // unwind-safety assertion is justified by the rollback — any
            // half-mutated state the panic leaves behind is exactly what the
            // undo log reverses.
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                move || -> Result<(RepairStats, Option<NetChange>)> {
                    match this.strategy {
                        RepairStrategy::DeleteRederive => {
                            let (stats, net) = this.repair(staged, inserting, log)?;
                            Ok((stats, Some(net)))
                        }
                        RepairStrategy::Restart => {
                            this.mutate_edb(staged, inserting, log);
                            this.reevaluate()?;
                            Ok((RepairStats::default(), None))
                        }
                    }
                },
            ))
        };
        match outcome {
            Ok(Ok((stats, net))) => {
                #[cfg(debug_assertions)]
                self.debug_check();
                self.epoch += 1;
                self.last_repair = stats;
                self.change = net.map(|(added, removed)| Change {
                    to: self.epoch,
                    inserting,
                    edb: staged,
                    added,
                    removed,
                });
                Ok(n)
            }
            Ok(Err(e)) => {
                self.rollback(log, saved_driver);
                Err(e)
            }
            Err(payload) => {
                self.rollback(log, saved_driver);
                Err(EvalError::WorkerPanic {
                    message: crate::error::panic_message(&*payload),
                })
            }
        }
    }

    /// Reverse-replays the undo log, restoring every relation's exact dense
    /// order, then invalidates the persistent indexes over the touched
    /// relations (fresh relation ids — stale postings are never served) and
    /// restores the driver's watermarks.
    fn rollback(
        &mut self,
        log: Vec<UndoOp>,
        saved_driver: (Vec<usize>, crate::plan::CardSnapshot),
    ) {
        let mut touched_idb = vec![false; self.cp.num_idb()];
        let mut touched_edb = vec![false; self.ctx.edb.len()];
        for op in log.into_iter().rev() {
            match op {
                UndoOp::IdbSwap { idb, old } => {
                    let fresh = std::mem::replace(self.s.get_mut(idb), *old);
                    debug_assert!(fresh.is_empty(), "appends are undone before the swap");
                    self.ctx.forget_indexes(fresh.id());
                    // The appends just undone went to the fresh relation;
                    // `old` sat in the log, so nothing patched its indexes.
                    // Ops before the swap that touched it set this again.
                    touched_idb[idb] = false;
                }
                UndoOp::IdbRemove { idb, pos, t } => {
                    self.s.get_mut(idb).restore_swap_removed(pos, t);
                    touched_idb[idb] = true;
                }
                UndoOp::IdbAppend { idb, before } => {
                    let rel = self.s.get_mut(idb);
                    if rel.len() > before {
                        rel.truncate(before);
                        touched_idb[idb] = true;
                    }
                }
                UndoOp::EdbInsert { edb, name } => {
                    let rel = &mut self.ctx.edb[edb];
                    let len = rel.len();
                    rel.truncate(len - 1);
                    touched_edb[edb] = true;
                    let db_rel = self
                        .db
                        .relation_mut(&name)
                        .expect("the rolled-back insert put the relation there");
                    let db_len = db_rel.len();
                    db_rel.truncate(db_len - 1);
                }
                UndoOp::EdbRemove {
                    edb,
                    name,
                    pos,
                    db_pos,
                    t,
                } => {
                    self.ctx.edb[edb].restore_swap_removed(pos, t.clone());
                    touched_edb[edb] = true;
                    if let Some(db_rel) = self.db.relation_mut(&name) {
                        match db_pos {
                            Some(p) => db_rel.restore_swap_removed(p, t),
                            None => {
                                db_rel.insert(t);
                            }
                        }
                    }
                }
            }
        }
        // A retired id is never probed again: drop its indexes now rather
        // than let them sit in the set until eviction.
        for (i, touched) in touched_idb.into_iter().enumerate() {
            if touched {
                self.ctx.forget_indexes(self.s.get(i).id());
                self.s.get_mut(i).refresh_id();
            }
        }
        for (i, touched) in touched_edb.into_iter().enumerate() {
            if touched {
                self.ctx.forget_indexes(self.ctx.edb[i].id());
                self.ctx.edb[i].refresh_id();
            }
        }
        self.driver.restore_state(saved_driver);
        // The rolled-back handle must be indistinguishable from one that
        // never attempted the update.
        #[cfg(debug_assertions)]
        self.debug_check();
    }

    /// Validates a batch and reduces it to the facts that actually change
    /// the EDB (new facts for an insert, present facts for a retract),
    /// shaped as an EDB-indexed interpretation. Nothing mutates on error.
    fn stage<S: AsRef<str>>(&self, facts: &[(S, Tuple)], inserting: bool) -> Result<Interp> {
        let mut staged = Interp::empty(&self.cp.edb_arities);
        for (name, t) in facts {
            let name = name.as_ref();
            let Some(id) = self.cp.edb_id(name) else {
                return Err(EvalError::UnknownRelation {
                    name: name.to_owned(),
                });
            };
            if t.arity() != self.cp.edb_arities[id] {
                return Err(EvalError::ArityMismatch {
                    predicate: name.to_owned(),
                    expected: self.cp.edb_arities[id],
                    found: t.arity(),
                });
            }
            for &c in t.items() {
                if !self.db.universe().contains(c) {
                    return Err(EvalError::UnknownConstant {
                        name: format!("#{}", c.id()),
                    });
                }
            }
            if self.ctx.edb[id].contains(t) != inserting {
                staged.insert(id, t.clone());
            }
        }
        Ok(staged)
    }

    /// Applies the staged facts to both the evaluation context's EDB (with
    /// index patching on removal) and the handle's database snapshot,
    /// recording every mutation in the undo log.
    fn mutate_edb(&mut self, staged: &Interp, inserting: bool, log: &mut Vec<UndoOp>) {
        for id in 0..staged.len() {
            let name = self.cp.edb_names[id].clone();
            for t in staged.get(id).dense().to_vec() {
                if inserting {
                    self.ctx.edb[id].insert(t.clone());
                    self.db
                        .insert_fact(&name, t)
                        .expect("staged facts are validated");
                    log.push(UndoOp::EdbInsert {
                        edb: id,
                        name: name.clone(),
                    });
                } else {
                    let (pos, _) = self
                        .ctx
                        .remove_edb_patched(id, &t)
                        .expect("staged retracts are present in the context EDB");
                    let db_pos = self
                        .db
                        .relation_mut(&name)
                        .and_then(|r| r.remove_tracked(&t))
                        .map(|(p, _)| p);
                    log.push(UndoOp::EdbRemove {
                        edb: id,
                        name: name.clone(),
                        pos,
                        db_pos,
                        t,
                    });
                }
            }
        }
    }

    /// Full re-evaluation over the warm context (the [`RepairStrategy::
    /// Restart`] engines). The new model is built in fresh interpretations
    /// and assigned only on success, so a governed failure leaves the
    /// handle's state untouched (the EDB mutation is the caller's to roll
    /// back).
    fn reevaluate(&mut self) -> Result<()> {
        (self.s, self.undefined) = self.engine.evaluate(&self.cp, &self.ctx, &self.opts)?;
        Ok(())
    }

    /// Evaluates strata `from..` from scratch over the (current) strata
    /// below them, leaving alone what comes out the same. Each non-empty
    /// relation of those strata is swapped out for a fresh one — the undo
    /// log holds the old one meanwhile — and the driver runs once per
    /// stratum into the fresh relations. Then each old relation goes back,
    /// patched to the fresh one's content: what is gone leaves through
    /// [`EvalContext::remove_patched`] into `removed`, what is new is
    /// appended. It keeps its id, the dense order of what stayed and its
    /// warm indexes. An empty relation is filled in place. `from == 0` over
    /// an empty model is the initial evaluation.
    ///
    /// `overdeleted` is what the update already removed from these
    /// relations: a fresh relation has room for it too, so it starts at the
    /// size the old one had before the update. Returns, per IDB, the dense
    /// length past which every tuple is new.
    fn evaluate_from(
        &mut self,
        from: usize,
        governor: &Governor,
        log: &mut Vec<UndoOp>,
        overdeleted: &Interp,
        removed: &mut Interp,
    ) -> Result<Vec<usize>> {
        let cp = Arc::clone(&self.cp);
        let strata = cp.strata().expect("a delete-rederive handle has strata");
        let start = log.len();
        for (idb, &stratum) in strata.of_idb.iter().enumerate() {
            let rel = self.s.get_mut(idb);
            if stratum >= from && !rel.is_empty() {
                let room = rel.len() + overdeleted.get(idb).len();
                let fresh = Relation::with_capacity(rel.arity(), room);
                let old = Box::new(std::mem::replace(rel, fresh));
                log.push(UndoOp::IdbSwap { idb, old });
            }
        }
        for rules in strata.rules[from..].iter().filter(|r| !r.is_empty()) {
            log_watermarks(&self.s, log);
            self.driver.extend(
                &self.cp,
                &self.ctx,
                &mut self.s,
                Some(rules),
                None,
                None,
                governor,
            )?;
        }
        // Nothing below is governed or can fail. The watermarks just logged
        // are of relations about to be dropped: the log goes back to where
        // it stood, plus the ops that put the old relations back.
        let mut old: Vec<Option<Box<Relation>>> = (0..self.cp.num_idb()).map(|_| None).collect();
        for op in log.split_off(start) {
            if let UndoOp::IdbSwap { idb, old: rel } = op {
                old[idb] = Some(rel);
            }
        }
        let mut marks: Vec<usize> = self.s.relations().iter().map(Relation::len).collect();
        for (idb, mark) in marks.iter_mut().enumerate() {
            if strata.of_idb[idb] < from {
                continue;
            }
            match old[idb].take() {
                None => {
                    *mark = 0;
                    log.push(UndoOp::IdbAppend { idb, before: 0 });
                }
                Some(rel) => {
                    let fresh = std::mem::replace(self.s.get_mut(idb), *rel);
                    *mark = self.patch_to(idb, &fresh, log, removed);
                    self.ctx.forget_indexes(fresh.id());
                }
            }
        }
        Ok(marks)
    }

    /// Patches IDB `idb` in place to `target`'s content: swap-removes what
    /// `target` lacks into `removed`, keeping the indexes patched, then
    /// appends what it adds. Logged like a repair's own removals and
    /// appends. Returns the dense length the appends start at.
    fn patch_to(
        &mut self,
        idb: usize,
        target: &Relation,
        log: &mut Vec<UndoOp>,
        removed: &mut Interp,
    ) -> usize {
        let rel = self.s.get_mut(idb);
        let gone: Vec<Tuple> = rel
            .dense()
            .iter()
            .filter(|t| !target.contains(t))
            .cloned()
            .collect();
        for t in gone {
            let (pos, _) = self
                .ctx
                .remove_patched(rel, &t)
                .expect("the tuple was just read from the relation");
            removed.insert(idb, t.clone());
            log.push(UndoOp::IdbRemove { idb, pos, t });
        }
        let before = rel.len();
        log.push(UndoOp::IdbAppend { idb, before });
        for t in target.dense() {
            if !rel.contains(t) {
                rel.insert(t.clone());
            }
        }
        before
    }

    /// One Θ application over the current model restricted to the rule
    /// instances through `delta` (shaped for `kind`), into `out`; `neg`
    /// overrides the interpretation negated IDB literals read.
    fn apply_delta(
        &self,
        rules: Option<&[usize]>,
        kind: PlanKind,
        delta: &Interp,
        neg: Option<&Interp>,
        out: &mut Interp,
        gov: Option<&Governor>,
    ) -> Result<()> {
        operator::apply_general_into(
            &self.cp,
            &self.ctx,
            &self.s,
            rules,
            kind,
            Some(operator::DeltaSource::Interp(delta)),
            neg,
            None,
            out,
            gov,
        )
    }

    /// Delete–rederive repair of a one-sided batch, stratum by stratum,
    /// falling back to [`evaluate_from`](Self::evaluate_from) at the first
    /// stratum whose cone outgrows the module docs' cost bound. Every
    /// mutation is recorded in `log`; on `Err` the caller reverse-replays it
    /// (see the module docs' transactional invariant). Returns the phase
    /// sizes and the net IDB change.
    fn repair(
        &mut self,
        staged: &Interp,
        inserting: bool,
        log: &mut Vec<UndoOp>,
    ) -> Result<(RepairStats, NetChange)> {
        let governor = Governor::new(&self.opts);
        let gov = governor.as_active();
        let num_idb = self.cp.num_idb();
        let mut stats = RepairStats::default();

        // ---- Damage: rule instances the change kills, enumerated *before*
        // the EDB mutates so every other literal reads the old state — an
        // insert kills through negated EDB occurrences, a retract through
        // positive ones. Exact, because the batch is one-sided.
        let mut pending = self.cp.empty_interp();
        let damage_kind = if inserting {
            PlanKind::EdbNegDelta
        } else {
            PlanKind::EdbDelta
        };
        self.apply_delta(None, damage_kind, staged, None, &mut pending, gov)?;

        self.mutate_edb(staged, inserting, log);

        // ---- Per-stratum overdelete / rederive / top-up. Accumulators
        // carry the net IDB change of lower strata into higher ones.
        let mut added_acc = self.cp.empty_interp();
        let mut removed_acc = self.cp.empty_interp();
        let mut heads = self.cp.empty_interp();
        let mut frontier = self.cp.empty_interp();
        let mut cone = self.cp.empty_interp();
        let mut seed = self.cp.empty_interp();
        let mut scratch = self.cp.empty_interp();
        // Cone enumeration reads negated IDB literals permissively.
        let empty_neg = self.cp.empty_interp();
        let permissive = Some(&empty_neg);

        let cp = Arc::clone(&self.cp);
        let strata = cp.strata().expect("a delete-rederive handle has strata");
        for (k, rules) in strata.rules.iter().enumerate() {
            if rules.is_empty() {
                continue; // no rule heads here, so no predicate lives here
            }
            // Damage from lower-strata *additions* appearing under this
            // stratum's negations (permissive IDB negation: the cone is an
            // over-approximation that rederivation trims back).
            if added_acc.total_tuples() > 0 {
                self.apply_delta(
                    Some(rules),
                    PlanKind::NegDelta,
                    &added_acc,
                    permissive,
                    &mut heads,
                    gov,
                )?;
                for i in 0..num_idb {
                    pending.get_mut(i).union_with(heads.get(i));
                }
            }

            // Overdeletion cone, closed through positive dependencies. Each
            // frontier is enumerated from `s` before removal, so dependents
            // are seen at the first frontier touching them; dependent heads
            // of higher strata park in `pending` until their stratum.
            //
            // The cone is worth closing only while it stays under half of
            // what re-evaluating strata ≥ k would rebuild: every overdeleted
            // tuple is touched again by rederivation, so past that point the
            // from-scratch path is the cheaper repair — and always a correct
            // one, the strata below being final.
            let live: usize = (0..num_idb)
                .filter(|&i| strata.of_idb[i] >= k)
                .map(|i| self.s.get(i).len())
                .sum();
            for i in 0..num_idb {
                cone.get_mut(i).clear();
            }
            let mut cone_len = 0;
            loop {
                if let Some(g) = gov {
                    g.fail_at(SITE_OVERDELETE_CLOSE)?;
                    g.check()?;
                }
                let mut condemned = cone_len;
                for i in 0..num_idb {
                    let fr = frontier.get_mut(i);
                    fr.clear();
                    if strata.of_idb[i] != k {
                        continue;
                    }
                    for t in pending.get(i).dense() {
                        if self.s.get(i).contains(t) {
                            fr.insert(t.clone());
                        }
                    }
                    condemned += fr.len();
                    pending.get_mut(i).clear();
                }
                if condemned == cone_len {
                    break;
                }
                if 2 * condemned > live {
                    stats.cone += cone_len;
                    stats.recomputed_from = Some(k);
                    // The closing loop's scratch is dead: free it before the
                    // fresh relations are allocated.
                    drop((heads, frontier, pending, seed, scratch));
                    let marks = self.evaluate_from(k, &governor, log, &cone, &mut removed_acc)?;
                    // The patch ran against the overdeleted state: a cone
                    // member it appended merely came back, and one it left
                    // out is a removal it could not see.
                    for (i, &mark) in marks.iter().enumerate() {
                        for t in &self.s.get(i).dense()[mark..] {
                            if !cone.contains(i, t) {
                                added_acc.insert(i, t.clone());
                            }
                        }
                        for t in cone.get(i).dense() {
                            if !self.s.get(i).contains(t) {
                                removed_acc.insert(i, t.clone());
                            }
                        }
                    }
                    return Ok((stats, (added_acc, removed_acc)));
                }
                self.apply_delta(
                    None,
                    PlanKind::PosDelta,
                    &frontier,
                    permissive,
                    &mut heads,
                    gov,
                )?;
                for i in 0..num_idb {
                    for t in frontier.get(i).dense() {
                        let (pos, _) = self
                            .ctx
                            .remove_patched(self.s.get_mut(i), t)
                            .expect("frontier tuples were enumerated from the live state");
                        log.push(UndoOp::IdbRemove {
                            idb: i,
                            pos,
                            t: t.clone(),
                        });
                        cone.insert(i, t.clone());
                    }
                }
                cone_len = condemned;
                for i in 0..num_idb {
                    pending.get_mut(i).union_with(heads.get(i));
                }
            }
            stats.cone += cone_len;

            // Everything appended past `marks` from here on either comes
            // back (a cone member) or is new to the model.
            let marks: Vec<usize> = (0..num_idb).map(|i| self.s.get(i).len()).collect();
            for i in 0..num_idb {
                seed.get_mut(i).clear();
            }

            // ---- Rederive: cone members with a surviving one-step
            // derivation — one index-backed check each, `s` untouched during
            // the pass — seed the rounds below, whose delta rounds confirm
            // the rest of the surviving cone (a rederived tuple can be the
            // witness for another one).
            if cone_len > 0 {
                if let Some(g) = gov {
                    g.fail_at(SITE_REDERIVE_SWEEP)?;
                }
                operator::sync_check_indexes(&self.cp, &self.ctx, &self.s);
                for i in 0..num_idb {
                    let list = cone.get(i).dense();
                    if list.is_empty() {
                        continue;
                    }
                    let out = seed.get_mut(i);
                    operator::derivable_batch(
                        &self.cp,
                        &self.ctx,
                        i,
                        list,
                        &self.s,
                        &self.s,
                        |j| {
                            out.insert(list[j].clone());
                        },
                    );
                }
            }

            // ---- Top-up: the instances the change enables for this
            // stratum — through EDB occurrences of the batch and IDB
            // occurrences of lower-strata changes — join the seed. Both
            // halves are enumerated against the same overdeleted `s`, so
            // together they are exactly its one-step consequences and one
            // semi-naive extension drains them.
            let topup_kind = if inserting {
                PlanKind::EdbDelta
            } else {
                PlanKind::EdbNegDelta
            };
            let topups = [
                (topup_kind, staged),
                (PlanKind::PosDelta, &added_acc),
                // Consume semantics requires the driven tuples to be
                // genuinely absent: `removed_acc` only ever receives cone
                // members that stayed out of their (final) stratum.
                (PlanKind::NegDelta, &removed_acc),
            ];
            for (kind, delta) in topups {
                if delta.total_tuples() == 0 {
                    continue;
                }
                self.apply_delta(Some(rules), kind, delta, None, &mut scratch, gov)?;
                for i in 0..num_idb {
                    seed.get_mut(i).union_with(scratch.get(i));
                }
            }
            // The drained suffix must be undoable even when the extension
            // itself fails mid-round (rounds it already absorbed stay in
            // `s`), so the watermarks go into the log *before* the call.
            log_watermarks(&self.s, log);
            self.driver.extend_seeded(
                &self.cp,
                &self.ctx,
                &mut self.s,
                Some(rules),
                None,
                &seed,
                None,
                &governor,
            )?;

            // Net change for the strata above: a suffix tuple that was
            // overdeleted merely came back, any other is an addition; a
            // cone member is a removal only if it is still absent now.
            for (i, &mark) in marks.iter().enumerate() {
                for t in &self.s.get(i).dense()[mark..] {
                    if cone.contains(i, t) {
                        stats.rederived += 1;
                    } else {
                        added_acc.insert(i, t.clone());
                        stats.added += 1;
                    }
                }
                for t in cone.get(i).dense() {
                    if !self.s.get(i).contains(t) {
                        removed_acc.insert(i, t.clone());
                    }
                }
            }
        }
        Ok((stats, (added_acc, removed_acc)))
    }

    /// Debug invariant: the handle's state is identical to a from-scratch
    /// evaluation over the current database, and every live relation's
    /// index postings are sorted and complete.
    #[cfg(debug_assertions)]
    fn debug_check(&self) {
        for i in 0..self.cp.num_idb() {
            self.ctx.debug_validate_indexes(self.s.get(i));
        }
        for rel in &self.ctx.edb {
            self.ctx.debug_validate_indexes(rel);
        }
        let fresh = EvalContext::new(&self.cp, &self.db).expect("handle state recompiles");
        // The ground truth runs without governance: the verification pass
        // must not double-spend the update's budget or re-fire one-shot
        // failpoints (it also runs *after a rollback*, where the budget is
        // by definition already spent).
        let (s, undefined) = self
            .engine
            .evaluate(&self.cp, &fresh, &EvalOptions::sequential())
            .expect("ungoverned verification evaluation cannot fail");
        debug_assert_eq!(
            self.s, s,
            "materialized state diverged from a from-scratch evaluation"
        );
        debug_assert_eq!(
            self.undefined, undefined,
            "undefined set diverged from a from-scratch evaluation"
        );
    }
}

/// The IDB tuples an update added to and removed from the model, in that
/// order.
type NetChange = (Interp, Interp);

/// Records every IDB relation's dense length, so whatever a driver call
/// appends after this point can be truncated away on rollback.
fn log_watermarks(s: &Interp, log: &mut Vec<UndoOp>) {
    for (idb, rel) in s.relations().iter().enumerate() {
        log.push(UndoOp::IdbAppend {
            idb,
            before: rel.len(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inflog_core::failpoints::{Failpoints, SITE_ROUND};
    use inflog_core::graphs::DiGraph;
    use inflog_syntax::parse_program;

    const TC: &str = "S(x, y) :- E(x, y). S(x, y) :- E(x, z), S(z, y).";
    const WIN: &str = "Win(x) :- Move(x, y), !Win(y).";

    fn handle(src: &str, db: &Database, engine: Engine) -> Materialized {
        let opts = MaterializeOpts {
            engine,
            ..MaterializeOpts::default()
        };
        Materialized::new(&parse_program(src).unwrap(), db, &opts).unwrap()
    }

    #[test]
    fn initial_state_matches_engine() {
        let db = DiGraph::path(5).to_database("E");
        let m = handle(TC, &db, Engine::Seminaive);
        let (lfp, _) = crate::least_fixpoint_seminaive(&parse_program(TC).unwrap(), &db).unwrap();
        assert_eq!(*m.interp(), lfp);
        assert_eq!(m.repair_strategy(), RepairStrategy::DeleteRederive);
    }

    #[test]
    fn insert_extends_transitive_closure() {
        // Path 0→1→2, 3→4; bridging 2→3 adds all crossing pairs.
        let mut db = DiGraph::path(5).to_database("E");
        let e23 = Tuple::from_ids(&[2, 3]);
        db.relation_mut("E").unwrap().remove(&e23);
        let mut m = handle(TC, &db, Engine::Seminaive);
        let sid = m.compiled().idb_id("S").unwrap();
        assert_eq!(m.interp().get(sid).len(), 3 + 1);
        assert_eq!(m.insert(&[("E", e23.clone())]).unwrap(), 1);
        assert_eq!(m.interp().get(sid).len(), 10);
        // Re-inserting is a no-op.
        assert_eq!(m.insert(&[("E", e23)]).unwrap(), 0);
    }

    #[test]
    fn retract_shrinks_transitive_closure() {
        let db = DiGraph::path(5).to_database("E");
        let mut m = handle(TC, &db, Engine::Seminaive);
        let sid = m.compiled().idb_id("S").unwrap();
        assert_eq!(m.interp().get(sid).len(), 10);
        assert_eq!(m.retract(&[("E", Tuple::from_ids(&[2, 3]))]).unwrap(), 1);
        assert_eq!(m.interp().get(sid).len(), 4);
        // Retracting a never-present fact is a no-op.
        assert_eq!(m.retract(&[("E", Tuple::from_ids(&[0, 4]))]).unwrap(), 0);
        assert_eq!(m.interp().get(sid).len(), 4);
    }

    #[test]
    fn stratified_negation_repairs_both_directions() {
        // Unreach(x) flips as edges appear/disappear — negation damage from
        // lower-stratum additions and re-enabling from removals.
        let src = "
            Reach(y) :- Start(x), E(x, y).
            Reach(y) :- Reach(x), E(x, y).
            Unreach(x) :- V(x), !Reach(x).
        ";
        let mut db = DiGraph::path(4).to_database("E");
        for v in ["v0", "v1", "v2", "v3"] {
            db.insert_named_fact("V", &[v]).unwrap();
        }
        db.insert_named_fact("Start", &["v0"]).unwrap();
        let mut m = handle(src, &db, Engine::Stratified);
        let uid = m.compiled().idb_id("Unreach").unwrap();
        assert_eq!(m.interp().get(uid).len(), 1); // only v0 unreached
        m.retract_named("E", &["v1", "v2"]).unwrap();
        assert_eq!(m.interp().get(uid).len(), 3); // v0, v2, v3
        m.insert_named("E", &["v1", "v2"]).unwrap();
        assert_eq!(m.interp().get(uid).len(), 1);
    }

    #[test]
    fn wellfounded_nonstratified_restarts() {
        let db = DiGraph::path(4).to_database("Move");
        let mut m = handle(WIN, &db, Engine::WellFounded);
        assert_eq!(m.repair_strategy(), RepairStrategy::Restart);
        let wid = m.compiled().idb_id("Win").unwrap();
        // Path v0→v1→v2→v3: v3 loses, so v2 wins, v1 loses, v0 wins.
        assert_eq!(m.interp().get(wid).len(), 2);
        assert!(m.undefined().all_empty());
        // A self-loop at the end makes the tail undefined.
        m.insert_named("Move", &["v3", "v3"]).unwrap();
        assert!(!m.undefined().get(wid).is_empty());
        m.retract_named("Move", &["v3", "v3"]).unwrap();
        assert!(m.undefined().all_empty());
        assert_eq!(m.interp().get(wid).len(), 2);
    }

    #[test]
    fn inflationary_restart_fallback() {
        let db = DiGraph::path(4).to_database("Move");
        let mut m = handle(WIN, &db, Engine::Inflationary);
        assert_eq!(m.repair_strategy(), RepairStrategy::Restart);
        m.insert_named("Move", &["v3", "v0"]).unwrap();
        let (expect, _) = crate::inflationary(&parse_program(WIN).unwrap(), m.database()).unwrap();
        assert_eq!(*m.interp(), expect);
    }

    #[test]
    fn batch_updates_and_emptying_a_relation() {
        let db = DiGraph::path(4).to_database("E");
        let mut m = handle(TC, &db, Engine::Seminaive);
        let all: Vec<(&str, Tuple)> = (0..3)
            .map(|i| ("E", Tuple::from_ids(&[i, i + 1])))
            .collect();
        assert_eq!(m.retract(&all).unwrap(), 3);
        assert!(m.interp().all_empty());
        assert_eq!(m.insert(&all).unwrap(), 3);
        let sid = m.compiled().idb_id("S").unwrap();
        assert_eq!(m.interp().get(sid).len(), 6);
    }

    #[test]
    fn update_validation_is_atomic() {
        let db = DiGraph::path(3).to_database("E");
        let mut m = handle(TC, &db, Engine::Seminaive);
        let before = m.interp().clone();
        // Second fact is bad: nothing may change.
        let batch = [
            ("E", Tuple::from_ids(&[0, 2])),
            ("F", Tuple::from_ids(&[0, 1])),
        ];
        assert!(matches!(
            m.insert(&batch),
            Err(EvalError::UnknownRelation { .. })
        ));
        assert_eq!(*m.interp(), before);
        assert!(matches!(
            m.insert(&[("E", Tuple::from_ids(&[0]))]),
            Err(EvalError::ArityMismatch { .. })
        ));
        assert!(matches!(
            m.insert(&[("E", Tuple::from_ids(&[0, 99]))]),
            Err(EvalError::UnknownConstant { .. })
        ));
    }

    #[test]
    fn rolled_back_updates_leave_no_indexes_behind() {
        // Every rollback retires the ids of the relations it restored; the
        // indexes keyed by them must go too, not pile up until eviction.
        let db = DiGraph::path(8).to_database("E");
        let mut m = handle(TC, &db, Engine::Stratified);
        let batch = [("E", Tuple::from_ids(&[6, 7]))];
        let mut seen = Vec::new();
        for _ in 0..200 {
            m.set_eval_options(EvalOptions {
                failpoints: Failpoints::armed(SITE_ROUND, 1),
                ..EvalOptions::sequential()
            });
            assert!(m.retract(&batch).is_err());
            seen.push(m.ctx.num_indexes());
        }
        assert!(
            seen.iter().all(|&n| n == seen[0]),
            "index count drifted across rollbacks: {seen:?}"
        );
    }

    #[test]
    fn a_recompute_keeps_the_id_and_indexes_of_each_relation() {
        // A chord of a cycle: the closure is complete with or without it,
        // yet its retract condemns past the bound and re-evaluates.
        let src = format!("{TC} Cut(x, y) :- E(x, y), !S(y, x).");
        let db = DiGraph::cycle(8).to_database("E");
        let mut m = handle(&src, &db, Engine::Stratified);
        let sid = m.compiled().idb_id("S").unwrap();
        let state = |m: &Materialized| {
            let s = m.interp().get(sid);
            let epoch = (s.shrink_epoch(), s.last_truncate_len());
            (s.id(), epoch, s.len(), m.ctx.num_indexes())
        };
        let chord = [("E", Tuple::from_ids(&[0, 4]))];
        // One pair first, so that every index either update builds exists.
        m.insert(&chord).unwrap();
        m.retract(&chord).unwrap();
        m.insert(&chord).unwrap();
        let before = state(&m);
        m.retract(&chord).unwrap();
        assert_eq!(m.last_repair().recomputed_from, Some(0));
        // No truncation: an index synced before is caught up, not rebuilt.
        assert_eq!(state(&m), before);
        // A recompute that does change `S` patches it in place.
        m.retract(&[("E", Tuple::from_ids(&[0, 1]))]).unwrap();
        assert_eq!(m.last_repair().recomputed_from, Some(0));
        let (id, epoch, len, _) = state(&m);
        assert_eq!((id, epoch), (before.0, before.1));
        assert!(len < before.2);
    }

    #[test]
    fn engine_prerequisites_are_enforced() {
        let db = DiGraph::path(3).to_database("Move");
        let p = parse_program(WIN).unwrap();
        let new = |engine| {
            let opts = MaterializeOpts {
                engine,
                ..MaterializeOpts::default()
            };
            Materialized::new(&p, &db, &opts).unwrap_err()
        };
        assert!(matches!(
            new(Engine::Seminaive),
            EvalError::NotPositive { .. }
        ));
        // The witness comes from the compiled strata.
        let err = new(Engine::Stratified);
        assert_eq!(
            err,
            EvalError::NotStratified {
                witness: "Win -!-> Win".into()
            }
        );
        // The well-founded engine repairs by strata exactly when they exist.
        let wf = handle(WIN, &db, Engine::WellFounded);
        assert_eq!(wf.repair_strategy(), RepairStrategy::Restart);
        let db = DiGraph::path(3).to_database("E");
        let wf = handle(TC, &db, Engine::WellFounded);
        assert_eq!(wf.repair_strategy(), RepairStrategy::DeleteRederive);
    }

    #[test]
    fn query_after_update_agrees() {
        let db = DiGraph::path(4).to_database("E");
        let mut m = handle(TC, &db, Engine::Stratified);
        m.retract_named("E", &["v1", "v2"]).unwrap();
        let goal = Atom {
            predicate: "S".into(),
            terms: vec![
                inflog_syntax::Term::Const("v0".into()),
                inflog_syntax::Term::Var("y".into()),
            ],
        };
        let ans = m.query(&goal, &QueryOpts::default()).unwrap();
        let sid = m.compiled().idb_id("S").unwrap();
        let v0 = m.database().universe().lookup("v0").unwrap();
        let expect: Vec<Tuple> = m
            .interp()
            .get(sid)
            .sorted()
            .iter()
            .filter(|t| t.items()[0] == v0)
            .cloned()
            .collect();
        assert_eq!(ans.tuples, expect);
    }
}
