//! Live incremental view maintenance: a long-lived materialized fixpoint
//! that *repairs* itself under EDB inserts and retracts instead of
//! recomputing.
//!
//! The paper defines every negation semantics — least fixpoint, stratified,
//! inflationary, well-founded — over a *fixed* database. [`Materialized`]
//! lifts each of them to a changing one: [`Materialized::new`] runs the
//! chosen engine once, and [`Materialized::insert`] /
//! [`Materialized::retract`] bring the model back to what a from-scratch
//! evaluation over the mutated database would produce, touching only what
//! the change puts in doubt (see *The cost* below).
//!
//! # Repair strategies
//!
//! * **Backward/Forward (B/F)** — Motik, Nenov, Piro & Horrocks,
//!   "Incremental Update of Datalog Materialisation: the Backward/Forward
//!   Algorithm" (AAAI 2015) — for the semi-naive least fixpoint, stratified
//!   evaluation, and the well-founded model of stratifiable programs (where
//!   it coincides with the perfect model). Per component of the dependency
//!   graph, dependencies first — the walk evaluation and recovery run
//!   (`wellfounded.rs`):
//!
//!   1. *Damage*: before the EDB mutates, enumerate exactly the rule
//!      instances the change kills — positive occurrences of retracted
//!      facts through the `EdbDelta` plans, negated occurrences of inserted
//!      facts through the `EdbNegDelta` plans — with every other literal
//!      still reading the old state, so the enumeration is exact. Lower
//!      components add theirs: the heads over the tuples they deleted
//!      (`PosDelta`) and over the tuples they added under negation
//!      (`NegDelta`, read permissively).
//!   2. *Prove and doom*: the component is the unit in doubt for the
//!      retract routine shared with the well-founded engine (`proof.rs`),
//!      with negations reading the model. Every damaged tuple still in the
//!      model is checked for a proof from facts outside the component; the
//!      ones left without a proof are doomed, and the rule instances they
//!      occur in positively are the next damage. Heads in higher
//!      components wait for their component's turn.
//!   3. *Delete*: the doomed tuples are swap-removed one by one with their
//!      index postings patched
//!      ([`IndexSet::remove_patched`](crate::IndexSet::remove_patched)).
//!   4. *Top-up*: the instances the change *enables* — inserted facts
//!      through positive EDB occurrences, retracted facts through negated
//!      ones, plus lower components' additions (`PosDelta`) and removals
//!      (`NegDelta`) — seed one semi-naive extension of the shared
//!      [`DeltaDriver`]. Whatever it appends that was not deleted is an
//!      addition for the components above; a deleted tuple still absent
//!      afterwards is a removal.
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
//! # The cost
//!
//! A damaged tuple with a proof stays where it is: a retract whose damage
//! is all provable deletes nothing, so the model keeps its dense order and
//! its warm indexes, and the next update finds nothing to catch up on.
//! Every tuple is checked at most once, in its own component's turn, and
//! deleted at most once; a check runs its rules' check plans once, so even
//! a repair that deletes most of a component does about one evaluation's
//! work. A lower component is final by the time a higher one is repaired,
//! so a proof reads its tuples as facts and never re-checks them. The
//! search keeps its nodes in a map keyed by relation and dense position,
//! so it costs what it meets, not what the component holds; a component
//! without damage allocates nothing. No bound switches to re-evaluation.
//! On one edge of a 160-cycle under `tc_cut`, which deletes half of `S`,
//! the repair this replaced — delete every tuple the change might kill,
//! then re-evaluate — was somewhat faster, mostly because patching 12 880
//! removals into `S`'s index one at a time costs more than rebuilding it
//! (timings in the README's "Incremental updates").
//!
//! The case this matters for is a redundant edge of a strongly connected
//! graph under transitive closure: every closure pair through the edge is
//! damaged and almost none of them goes. B/F proves them instead of
//! deleting and re-deriving them (phase table in the README's "Incremental
//! updates"). [`Materialized::last_repair`] reports what each update
//! checked, proved, deleted and added.
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
//! recorded in an undo log — swap-remove positions for deletions, dense
//! watermarks for appended suffixes — and on failure the log is replayed
//! in reverse: appended suffixes are truncated away and swap-removed tuples
//! re-inserted at their exact former dense positions. Relations touched by
//! the rollback get a fresh relation id and the indexes over the retired
//! one are dropped, so the persistent [`IndexSet`](crate::IndexSet) never
//! serves postings patched during the aborted repair. The
//! [`RepairStrategy::Restart`] engines get the same guarantee cheaply:
//! their re-evaluation builds the new model in fresh interpretations and
//! the handle's state is assigned only after it fully succeeds, so only the
//! EDB mutation itself needs the log. Debug builds re-verify the invariant
//! after every rollback by comparing against a from-scratch evaluation;
//! the release-mode failpoint sweep in `tests/materialized_churn.rs`
//! asserts dense-order bit-identity at every registered site.

use crate::driver::DeltaDriver;
use crate::epoch::{Epoch, EpochCell};
use crate::error::EvalError;
use crate::govern::Governor;
use crate::inflationary::inflationary_compiled_with;
use crate::interp::Interp;
use crate::operator::{self, EvalContext, PlanKind};
use crate::options::EvalOptions;
use crate::proof;
use crate::resolve::CompiledProgram;
use crate::wellfounded::{walk, well_founded_compiled_with};
use crate::Result;
use inflog_core::{Const, Database, Relation, Tuple};
use inflog_store::{WalOp, WalRecord};
use inflog_syntax::{Literal, Program};
use std::sync::Arc;

/// Which fixpoint a program denotes: the one semantics parameter of batch
/// evaluation ([`Engine::evaluate`]), of a [`Materialized`] handle, its
/// durable and served forms, and of the epochs they publish.
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
    /// Evaluates `program` over `db` under `opts`: the true facts and the
    /// undefined ones (empty but for the well-founded engine).
    ///
    /// Errors come in one order, the same as [`Materialized::new`]'s:
    /// compilation, then the engine's prerequisite, then the database's fit
    /// to the program, then evaluation.
    ///
    /// # Errors
    /// Compilation errors; [`EvalError::NotPositive`] for `Seminaive` on a
    /// program with negation or inequality; [`EvalError::NotStratified`]
    /// for `Stratified` on a program without strata; the governance errors
    /// under `opts` ([`EvalError::Cancelled`],
    /// [`EvalError::BudgetExceeded`], [`EvalError::FaultInjected`]).
    pub fn evaluate(
        self,
        program: &Program,
        db: &Database,
        opts: &EvalOptions,
    ) -> Result<(Interp, Interp)> {
        let (cp, ctx) = self.prepare(program, db)?;
        self.evaluate_compiled(&cp, &ctx, opts)
    }

    /// Compiles `program` against `db`, checks that this engine is defined
    /// on it, and builds the evaluation context: the one place every entry
    /// point checks an engine's prerequisite.
    ///
    /// # Errors
    /// Those of [`Engine::evaluate`] before evaluation starts.
    pub(crate) fn prepare(
        self,
        program: &Program,
        db: &Database,
    ) -> Result<(CompiledProgram, EvalContext)> {
        let cp = CompiledProgram::compile(program, db)?;
        match self {
            Engine::Seminaive => require_positive(program)?,
            Engine::Stratified => cp.check_stratified()?,
            Engine::Inflationary | Engine::WellFounded => {}
        }
        let ctx = EvalContext::new(&cp, db)?;
        Ok((cp, ctx))
    }

    /// [`Engine::evaluate`] over an already compiled program and context.
    /// `Seminaive` evaluates through the inflationary engine: Θ^∞ is the
    /// least fixpoint on the positive programs it accepts (§4). `Stratified`
    /// and `WellFounded` run the same component walk, which is the perfect
    /// model where strata exist.
    ///
    /// # Errors
    /// The governance errors of the engine under `opts`.
    pub(crate) fn evaluate_compiled(
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
            Engine::Stratified | Engine::WellFounded => {
                let model = well_founded_compiled_with(cp, ctx, opts)?;
                (model.true_facts, model.undefined)
            }
        })
    }
}

/// Checks the paper's DATALOG condition and reports the first offender.
fn require_positive(program: &Program) -> Result<()> {
    for rule in &program.rules {
        for lit in &rule.body {
            match lit {
                Literal::Neg(_) | Literal::Neq(_, _) => {
                    return Err(EvalError::NotPositive {
                        offending: lit.to_string(),
                    })
                }
                Literal::Pos(_) | Literal::Eq(_, _) => {}
            }
        }
    }
    Ok(())
}

/// How a handle brings its state back in line after an update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairStrategy {
    /// Repair by proof, component by component: delete the damaged tuples
    /// that have no proof outside the damage, then top up what the change
    /// enables (the module docs' Backward/Forward strategy).
    ByProof,
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
/// [`Materialized::last_repair`]. Every damaged tuple is either proved or
/// deleted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Tuples the proof search checked: the damaged ones and every
    /// tuple of the same component their proofs went through.
    pub checked: usize,
    /// Damaged tuples kept because the search proved them.
    pub proved: usize,
    /// Damaged tuples deleted for want of a proof (the top-up puts one back
    /// when the update enables a new derivation of it).
    pub deleted: usize,
    /// Tuples the top-up added that the model did not hold before.
    pub added: usize,
}

/// The net change one committed update made: the EDB facts the batch
/// actually changed and the IDB tuples that entered or left the model.
/// [`Materialized::publish_into`] brings a retired epoch forward with it
/// instead of deep-copying the whole state.
///
/// Known for no-op batches and for every [`RepairStrategy::ByProof`]
/// update. A [`RepairStrategy::Restart`] update does not track what
/// changed.
#[derive(Debug)]
pub(crate) struct Change {
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
    /// `t` was swap-removed from IDB `idb` at dense position `pos` (a
    /// deletion).
    IdbRemove { idb: usize, pos: usize, t: Tuple },
    /// A driver extension may have appended a dense suffix to IDB `idb`;
    /// `before` is the pre-extension length.
    IdbAppend { idb: usize, before: usize },
    /// A staged fact was appended to EDB `edb`, in the evaluation context
    /// and in the database.
    EdbInsert { edb: usize },
    /// `t` was swap-removed from EDB `edb`: at dense position `pos` in the
    /// evaluation context, at `db_pos` in the database.
    EdbRemove {
        edb: usize,
        pos: usize,
        db_pos: usize,
        t: Tuple,
    },
}

/// What [`Materialized::publish_into`] did.
#[derive(Debug)]
pub struct Published {
    /// Whether the retired epoch was patched forward instead of copied.
    pub recycled: bool,
    /// The retired epoch the publish could not use: release it *after*
    /// acknowledging the write, since freeing a snapshot costs about as
    /// much as copying one.
    pub unused: Option<Arc<Epoch>>,
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
    /// [`RepairStrategy::ByProof`] exactly when the engine is not
    /// inflationary and the compiled program has strata: no component the
    /// repair walks has a negative cycle.
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
    /// [`Materialized::publish_into`] moves it into `retired`; `None` after
    /// a [`RepairStrategy::Restart`] update or a failed one.
    change: Option<Change>,
    /// The epoch the last [`Materialized::publish_into`] superseded, with
    /// the change committed right after its state: what the next publish
    /// patches forward.
    retired: Option<(Arc<Epoch>, Option<Change>)>,
}

impl Materialized {
    /// Evaluates `program` over `db` once with the chosen engine and
    /// returns the live handle.
    ///
    /// # Errors
    /// Compilation errors; [`EvalError::NotPositive`] for
    /// [`Engine::Seminaive`] on programs with negation;
    /// [`EvalError::NotStratified`] for [`Engine::Stratified`] on
    /// non-stratifiable programs — in [`Engine::evaluate`]'s order.
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
            RepairStrategy::ByProof => {
                // The evaluation's component walk, run with the handle's
                // own driver so that its watermarks match the model.
                let governor = Governor::new(&m.opts);
                let (u, _) = walk(&m.cp, &m.ctx, &mut m.driver, &mut m.s, None, &governor)?;
                debug_assert!(u.is_none(), "a handle repairing by proof has strata");
            }
            RepairStrategy::Restart => m.reevaluate()?,
        }
        #[cfg(debug_assertions)]
        m.debug_check();
        Ok(m)
    }

    /// The handle before its first evaluation: compile, check the engine's
    /// prerequisite and build the warm context ([`Engine::prepare`]), pick
    /// the repair strategy and driver, leave the model empty. The handle's
    /// database declares every EDB relation the program reads, so an
    /// update never declares one and a rollback never has one to undeclare.
    fn build(program: &Program, db: &Database, opts: &MaterializeOpts) -> Result<Materialized> {
        let (cp, ctx) = opts.engine.prepare(program, db)?;
        let strategy = if opts.engine != Engine::Inflationary && cp.check_stratified().is_ok() {
            RepairStrategy::ByProof
        } else {
            RepairStrategy::Restart
        };
        let driver = DeltaDriver::new(&cp);
        let s = cp.empty_interp();
        let undefined = cp.empty_interp();
        let program = Arc::new(program.clone());
        let mut db = db.clone();
        for (name, &arity) in cp.edb_names.iter().zip(&cp.edb_arities) {
            db.declare_relation(name, arity)
                .expect("compilation checked the program's arities against the database");
        }
        let m = Materialized {
            program,
            db,
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
            retired: None,
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

    /// How updates are repaired ([`RepairStrategy::ByProof`] or the
    /// documented [`RepairStrategy::Restart`] fallback).
    pub fn repair_strategy(&self) -> RepairStrategy {
        self.strategy
    }

    /// Number of committed updates since construction (see the `epoch` field
    /// docs: no-op batches count, failed updates do not).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// What the last committed update's repair did: the tuples its proof
    /// search checked, the damaged tuples it proved and deleted, and the
    /// tuples the top-up added (see the module docs' strategies). All
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
    /// an [`EpochCell`] swap makes it visible.
    /// [`Materialized::publish_into`] avoids the copy when the handle can
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

    /// Publishes the committed model stamped `number` into `cell`, and keeps
    /// the epoch the cell hands back together with the change committed
    /// after it. The next call patches that retired epoch forward by the
    /// two changes instead of deep-copying the whole state — when
    /// [`Arc::get_mut`] proves the handle holds its last reference and both
    /// changes are known and lead exactly from its state to the current
    /// one. Otherwise it publishes [`Materialized::publish`]'s copy, and the
    /// retired epoch comes back in [`Published::unused`].
    ///
    /// Debug builds assert that a patched epoch equals the committed state.
    ///
    /// # Errors
    /// Same as [`Materialized::publish`].
    ///
    /// # Panics
    /// If `number` does not exceed the cell's ([`EpochCell::publish`]).
    pub fn publish_into(&mut self, cell: &EpochCell, number: u64) -> Result<Published> {
        let mut published = Published {
            recycled: false,
            unused: None,
        };
        let epoch = match self.retired.take() {
            Some((mut old, gap)) => {
                published.recycled = self.patch_forward(&mut old, gap.as_ref(), number);
                if published.recycled {
                    old
                } else {
                    published.unused = Some(old);
                    self.publish(number)?
                }
            }
            None => self.publish(number)?,
        };
        let superseded = cell.publish(epoch);
        self.retired = Some((superseded, self.change.take()));
        Ok(published)
    }

    /// Brings `retired` up to the committed state stamped `number` by `gap`
    /// (the change committed right after its state) and the last change;
    /// returns whether it could.
    fn patch_forward(&self, retired: &mut Arc<Epoch>, gap: Option<&Change>, number: u64) -> bool {
        let Some(epoch) = Arc::get_mut(retired) else {
            return false;
        };
        let Some(steps) = self.changes_since(epoch, gap) else {
            return false;
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
        true
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

    /// Shared insert/retract entry — the durable layer's too, over a WAL
    /// record's facts: validate, dedupe, repair — and on any mid-repair
    /// failure (budget, cancellation, failpoint, contained panic), roll
    /// every mutation back so the handle is bit-identical to its pre-update
    /// state and stays usable.
    pub(crate) fn update<S: AsRef<str>>(
        &mut self,
        facts: &[(S, Tuple)],
        inserting: bool,
    ) -> Result<usize> {
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
                        RepairStrategy::ByProof => {
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
                UndoOp::EdbInsert { edb } => {
                    for rel in [
                        &mut self.ctx.edb[edb],
                        db_relation(&mut self.db, &self.cp, edb),
                    ] {
                        let len = rel.len();
                        rel.truncate(len - 1);
                    }
                    touched_edb[edb] = true;
                }
                UndoOp::EdbRemove {
                    edb,
                    pos,
                    db_pos,
                    t,
                } => {
                    self.ctx.edb[edb].restore_swap_removed(pos, t.clone());
                    db_relation(&mut self.db, &self.cp, edb).restore_swap_removed(db_pos, t);
                    touched_edb[edb] = true;
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
            for t in staged.get(id).dense().to_vec() {
                let db_rel = db_relation(&mut self.db, &self.cp, id);
                if inserting {
                    db_rel.insert(t.clone());
                    self.ctx.edb[id].insert(t);
                    log.push(UndoOp::EdbInsert { edb: id });
                } else {
                    let (db_pos, _) = db_rel
                        .remove_tracked(&t)
                        .expect("staged retracts are present in the database");
                    let (pos, _) = self
                        .ctx
                        .remove_edb_patched(id, &t)
                        .expect("staged retracts are present in the context EDB");
                    log.push(UndoOp::EdbRemove {
                        edb: id,
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
        (self.s, self.undefined) = self
            .engine
            .evaluate_compiled(&self.cp, &self.ctx, &self.opts)?;
        Ok(())
    }

    /// One Θ application over the current model restricted to the rule
    /// instances through `delta` (shaped for `kind`), into `out`; `neg`
    /// overrides the interpretation negated IDB literals read.
    fn apply_through_delta(
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

    /// Backward/Forward repair of a one-sided batch, component by component
    /// (the module docs' strategy). Every mutation is recorded in `log`; on
    /// `Err` the caller reverse-replays it (see the module docs'
    /// transactional invariant). Returns the phase sizes and the net IDB
    /// change.
    fn repair(
        &mut self,
        staged: &Interp,
        inserting: bool,
        log: &mut Vec<UndoOp>,
    ) -> Result<(RepairStats, NetChange)> {
        let governor = Governor::new(&self.opts);
        let gov = governor.as_active();
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
        self.apply_through_delta(None, damage_kind, staged, None, &mut pending, gov)?;

        self.mutate_edb(staged, inserting, log);

        // ---- Per-component prove / delete / top-up. Accumulators carry
        // the net IDB change of lower components into higher ones.
        let mut added_acc = self.cp.empty_interp();
        let mut removed_acc = self.cp.empty_interp();
        let mut heads = self.cp.empty_interp();
        let mut seed = self.cp.empty_interp();
        let mut scratch = self.cp.empty_interp();
        // Damage enumeration reads negated IDB literals permissively.
        let permissive = self.cp.empty_interp();

        let cp = Arc::clone(&self.cp);
        for comp in &cp.components {
            let rules = Some(comp.rules.as_slice());
            // A component's rules derive only its own predicates, so every
            // per-predicate pass below visits just those.
            let preds = &comp.preds;
            // Damage from lower components' *additions* appearing under
            // this component's negations (permissive IDB negation: a
            // damaged tuple that still holds is simply proved).
            if added_acc.total_tuples() > 0 {
                self.apply_through_delta(
                    rules,
                    PlanKind::NegDelta,
                    &added_acc,
                    Some(&permissive),
                    &mut heads,
                    gov,
                )?;
                for &i in preds {
                    pending.get_mut(i).union_with(heads.get(i));
                }
            }

            // Prove what the damage put in doubt and doom what has no proof,
            // negations reading the model; heads of higher components park
            // in `pending` until their turn. The doomed tuples leave `s`
            // together afterwards.
            let unproved = proof::unproved(
                &self.cp,
                &self.ctx,
                &self.s,
                &self.s,
                preds,
                None,
                None,
                &mut pending,
                gov,
            )?;
            stats.checked += unproved.checked;
            stats.proved += unproved.proved;
            let mut deleted = unproved.tuples;
            if let Some(deleted) = &deleted {
                for &i in preds {
                    let rel = self.s.get_mut(i);
                    for t in deleted.get(i).dense() {
                        let (pos, _) = self
                            .ctx
                            .remove_patched(rel, t)
                            .expect("doomed tuples were read from the live state");
                        log.push(UndoOp::IdbRemove {
                            idb: i,
                            pos,
                            t: t.clone(),
                        });
                    }
                }
                stats.deleted += deleted.total_tuples();
            }

            // Everything appended past `marks` from here on either comes
            // back (a deleted tuple) or is new to the model.
            let marks: Vec<usize> = preds.iter().map(|&i| self.s.get(i).len()).collect();
            for &i in preds {
                seed.get_mut(i).clear();
            }

            // ---- Top-up: the instances the change enables for this
            // component — through EDB occurrences of the batch and IDB
            // occurrences of lower components' changes — seed one
            // semi-naive extension. Both halves are enumerated against the
            // same `s`, which holds every tuple of this component that has
            // a proof.
            let topup_kind = if inserting {
                PlanKind::EdbDelta
            } else {
                PlanKind::EdbNegDelta
            };
            let topups = [
                (topup_kind, staged),
                (PlanKind::PosDelta, &added_acc),
                // Consume semantics requires the driven tuples to be
                // genuinely absent: `removed_acc` only ever receives deleted
                // tuples that stayed out of their (final) component.
                (PlanKind::NegDelta, &removed_acc),
            ];
            for (kind, delta) in topups {
                if delta.total_tuples() == 0 {
                    continue;
                }
                self.apply_through_delta(rules, kind, delta, None, &mut scratch, gov)?;
                for &i in preds {
                    seed.get_mut(i).union_with(scratch.get(i));
                }
            }
            // The drained suffix must be undoable even when the extension
            // itself fails mid-round (rounds it already absorbed stay in
            // `s`), so the watermarks go into the log *before* the call.
            log.extend(
                preds
                    .iter()
                    .zip(&marks)
                    .map(|(&idb, &before)| UndoOp::IdbAppend { idb, before }),
            );
            self.driver.extend_seeded(
                &self.cp,
                &self.ctx,
                &mut self.s,
                rules,
                None,
                &seed,
                None,
                &governor,
            )?;

            // Net change for the components above: a suffix tuple that was
            // deleted merely came back, any other is an addition; a deleted
            // tuple is a removal only if it is still absent now — all of
            // them when none came back.
            for (&i, &mark) in preds.iter().zip(&marks) {
                let mut returned = 0;
                for t in &self.s.get(i).dense()[mark..] {
                    if deleted.as_ref().is_some_and(|d| d.contains(i, t)) {
                        returned += 1;
                    } else {
                        added_acc.insert(i, t.clone());
                        stats.added += 1;
                    }
                }
                let Some(deleted) = deleted.as_mut() else {
                    continue;
                };
                if returned == 0 {
                    // Only this component's tuples are ever deleted here.
                    debug_assert!(deleted.get(i).is_empty() || removed_acc.get(i).is_empty());
                    if removed_acc.get(i).is_empty() {
                        std::mem::swap(removed_acc.get_mut(i), deleted.get_mut(i));
                    }
                    continue;
                }
                for t in deleted.get(i).dense() {
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
            .evaluate_compiled(&self.cp, &fresh, &EvalOptions::sequential())
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

/// The database relation of EDB `edb`, declared when the handle was built.
fn db_relation<'a>(db: &'a mut Database, cp: &CompiledProgram, edb: usize) -> &'a mut Relation {
    db.relation_mut(&cp.edb_names[edb])
        .expect("a handle declares every EDB relation its program reads")
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
        assert_eq!(m.repair_strategy(), RepairStrategy::ByProof);
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
    fn retracting_a_redundant_edge_deletes_nothing_and_keeps_each_relation() {
        // A chord of a cycle: the closure is complete with or without it.
        // Its retract damages every pair through it and proves them all.
        let src = format!("{TC} Cut(x, y) :- E(x, y), !S(y, x).");
        let db = DiGraph::cycle(8).to_database("E");
        let mut m = handle(&src, &db, Engine::Stratified);
        let sid = m.compiled().idb_id("S").unwrap();
        let state = |m: &Materialized| {
            let s = m.interp().get(sid);
            let epoch = (s.shrink_epoch(), s.last_truncate_len());
            (s.id(), epoch, s.dense().to_vec(), m.ctx.num_indexes())
        };
        let chord = [("E", Tuple::from_ids(&[0, 4]))];
        // One pair first, so that every index either update builds exists.
        m.insert(&chord).unwrap();
        m.retract(&chord).unwrap();
        m.insert(&chord).unwrap();
        let before = state(&m);
        m.retract(&chord).unwrap();
        let stats = m.last_repair();
        assert_eq!(
            (stats.proved, stats.deleted, stats.added),
            (8, 0, 0),
            "{stats:?}"
        );
        assert_eq!(state(&m), before);
        // A retract that does shrink `S` patches it in place.
        m.retract(&[("E", Tuple::from_ids(&[0, 1]))]).unwrap();
        assert!(m.last_repair().deleted > 0);
        let (id, epoch, dense, _) = state(&m);
        assert_eq!((id, epoch), (before.0, before.1));
        assert!(dense.len() < before.2.len());
    }

    #[test]
    fn support_that_goes_round_a_cycle_is_no_proof() {
        // Doubly recursive closure over a→b, b→a, c→a. Without c→a, `S(c, a)`
        // and `S(c, b)` each have a witness through the other and none that
        // reaches an edge: both go.
        let src = "S(x, y) :- E(x, y). S(x, y) :- S(x, z), S(z, y).";
        let mut db = Database::new();
        for (u, v) in [("a", "b"), ("b", "a"), ("c", "a")] {
            db.insert_named_fact("E", &[u, v]).unwrap();
        }
        let mut m = handle(src, &db, Engine::Seminaive);
        assert_eq!(m.retract_named("E", &["c", "a"]).unwrap(), 1);
        let stats = m.last_repair();
        assert_eq!(
            (stats.proved, stats.deleted, stats.added),
            (0, 2, 0),
            "{stats:?}"
        );
        let sid = m.compiled().idb_id("S").unwrap();
        assert_eq!(m.interp().get(sid).len(), 4);
    }

    const REACH: &str = "R(x) :- Start(x). R(y) :- R(x), E(x, y).";

    /// `R` over a chain `x{n-1} → … → x0` below a base `b` with an edge to
    /// every `x{i}`, the chain edges first: without `b → x0`, the one proof
    /// of `R(x0)` runs down the whole chain before it tries `b`.
    fn chain_below_a_base(n: usize) -> Database {
        let mut db = Database::new();
        for i in 1..n {
            let (u, v) = (format!("x{i}"), format!("x{}", i - 1));
            db.insert_named_fact("E", &[&u, &v]).unwrap();
        }
        for i in 0..n {
            db.insert_named_fact("E", &["b", &format!("x{i}")]).unwrap();
        }
        db.insert_named_fact("Start", &["b"]).unwrap();
        db
    }

    #[test]
    fn a_proof_as_deep_as_the_relation_runs_on_a_small_stack() {
        // The search keeps its stacks on the heap: the one proof of `R(x0)`
        // runs down all N chain vertices, and a 256 KiB stack holds no N
        // frames of a recursive search.
        const N: usize = 20_000;
        let stats = std::thread::Builder::new()
            .stack_size(256 << 10)
            .spawn(|| {
                let mut m = handle(REACH, &chain_below_a_base(N), Engine::Seminaive);
                assert_eq!(m.retract_named("E", &["b", "x0"]).unwrap(), 1);
                m.last_repair()
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(
            (stats.checked, stats.proved, stats.deleted),
            (N + 1, 1, 0),
            "{stats:?}"
        );
    }

    #[test]
    fn cancellation_and_deadline_stop_a_long_proof_search() {
        // The search polls the deadline and the token every `PROOF_POLL`
        // checks, so on a proof 2 000 checks long either stops it at its
        // first poll. The top-up polls them too, so only the search's own
        // count shows where it stopped; through the handle, the retract
        // fails typed, rolls back and retries cleanly.
        let db = chain_below_a_base(2_000);
        let token = crate::CancelToken::new();
        token.cancel();
        let cancelled = EvalOptions {
            cancel: Some(token),
            ..EvalOptions::sequential()
        };
        let expired = EvalOptions {
            budget: crate::Budget::with_deadline(std::time::Duration::ZERO),
            ..EvalOptions::sequential()
        };
        for opts in [cancelled, expired] {
            let mut m = handle(REACH, &db, Engine::Seminaive);
            let governor = Governor::new(&opts);
            let cp = Arc::clone(&m.cp);
            let r = cp.idb_id("R").unwrap();
            let mut proofs = proof::Proofs::new(&cp, &[r], None);
            let x0 = m.named_tuple(&["x0"]).unwrap();
            let pos = m.s.get(r).position(&x0).unwrap();
            operator::sync_check_indexes(&m.cp, &m.ctx, &m.s);
            let err = operator::with_witnesses(&m.cp, &m.ctx, &m.s, &m.s, |w| {
                proofs.doomed(r, pos, &m.s, w, governor.as_active())
            })
            .unwrap_err();
            assert_eq!(
                proofs.checked,
                proof::PROOF_POLL,
                "{err:?}: not at the first poll"
            );

            let pre = (m.interp().clone(), m.database().clone());
            m.set_eval_options(opts);
            assert_eq!(m.retract_named("E", &["b", "x0"]).unwrap_err(), err);
            let post = (m.interp(), m.database());
            for i in 0..cp.num_idb() {
                assert_eq!(post.0.get(i).dense(), pre.0.get(i).dense(), "{err:?}");
            }
            for name in ["E", "Start"] {
                let dense = |db: &Database| db.relation(name).unwrap().dense().to_vec();
                assert_eq!(dense(post.1), dense(&pre.1), "{err:?}: {name}");
            }
            m.set_eval_options(EvalOptions::sequential());
            assert_eq!(m.retract_named("E", &["b", "x0"]).unwrap(), 1);
            let stats = m.last_repair();
            assert_eq!((stats.proved, stats.deleted), (1, 0), "{stats:?}");
        }
    }

    #[test]
    fn engine_prerequisites_are_enforced() {
        let db = DiGraph::path(3).to_database("Move");
        let p = parse_program(WIN).unwrap();
        // Batch evaluation checks the same prerequisites, in the same order.
        let new = |engine: Engine| {
            let opts = MaterializeOpts {
                engine,
                ..MaterializeOpts::default()
            };
            let err = Materialized::new(&p, &db, &opts).unwrap_err();
            let batch = engine.evaluate(&p, &db, &EvalOptions::sequential());
            assert_eq!(batch.unwrap_err(), err, "{engine:?}");
            err
        };
        assert!(matches!(
            new(Engine::Seminaive),
            EvalError::NotPositive { .. }
        ));
        // The witness comes from the dependency graph's negative cycle.
        let err = new(Engine::Stratified);
        assert_eq!(
            err,
            EvalError::NotStratified {
                witness: "Win -!-> Win".into()
            }
        );
        // The well-founded engine repairs by proof exactly when strata exist.
        let wf = handle(WIN, &db, Engine::WellFounded);
        assert_eq!(wf.repair_strategy(), RepairStrategy::Restart);
        let db = DiGraph::path(3).to_database("E");
        let wf = handle(TC, &db, Engine::WellFounded);
        assert_eq!(wf.repair_strategy(), RepairStrategy::ByProof);
    }

    #[test]
    fn query_after_update_agrees() {
        let db = DiGraph::path(4).to_database("E");
        let mut m = handle(TC, &db, Engine::Stratified);
        m.retract_named("E", &["v1", "v2"]).unwrap();
        let goal = inflog_syntax::parse_atom("S('v0', y)").unwrap();
        let ans = crate::query::query(m.program(), &goal, m.database(), &EvalOptions::sequential())
            .unwrap();
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
