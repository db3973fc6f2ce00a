//! Durable materialized fixpoints: a [`Materialized`] handle paired with an
//! `inflog-store` directory, so the model survives a crash and comes back
//! **verifiably identical**.
//!
//! # Protocol (log-first)
//!
//! [`DurableMaterialized::apply`] (and its [`insert`](DurableMaterialized::insert)
//! / [`retract`](DurableMaterialized::retract) forms) commits in this order:
//!
//! 1. Encode the batch as one WAL record stamped with the *next* epoch and
//!    append it ([`inflog_store::Store::append`]); under
//!    [`Durability::Sync`] the record is fsynced before anything else
//!    happens. If the append fails, the in-memory handle is untouched, the
//!    WAL poisons itself (preserving the crash-shaped disk state for
//!    recovery), and the typed error surfaces.
//! 2. Apply the batch through the transactional in-memory update. If *that*
//!    fails (budget, cancellation, a contained panic), the in-memory state
//!    rolls back bit-identically — and the just-written record is truncated
//!    away again, so the log never runs ahead of acknowledged state.
//! 3. Only when both succeed is the update acknowledged; the epoch advances
//!    by one (no-op batches included — the WAL record count must equal the
//!    epoch delta).
//!
//! # Recovery
//!
//! A snapshot holds only the database and its epoch. Every maintained
//! semantics is a deterministic function of the EDB (the paper's central
//! observation), so the model is never stored: [`DurableMaterialized::open`]
//! loads the newest valid snapshot, applies the WAL records past its epoch
//! to that database in log order as set operations — each fact validated
//! as [`Materialized::insert`] validates it — and evaluates once, exactly
//! as [`Materialized::new`] does. Recovery costs one decode and one
//! evaluation however many repairs the WAL encodes. The crash tests check
//! the recovered EDB against an uncrashed copy down to dense tuple order,
//! and the model against that copy as a set and against `new` over the
//! recovered EDB down to dense order. Recovery either restores the last
//! committed epoch exactly or fails with a typed error — a
//! [`StoreError`](inflog_store::StoreError) naming the corrupt offset, or
//! the validation error of a record that does not fit the program — never
//! a wrong answer.

use crate::epoch::{Epoch, EpochCell};
#[cfg(doc)]
use crate::error::EvalError;
use crate::materialize::{Engine, MaterializeOpts, Materialized, Published};
use crate::options::EvalOptions;
use crate::Result;
use inflog_core::{Database, Tuple};
use inflog_store::{SnapshotState, Store, StoreOptions, WalRecord};
use inflog_syntax::Program;
use std::path::Path;
use std::sync::Arc;

pub use inflog_store::{Durability, WalOp};

/// Options for creating or opening a [`DurableMaterialized`].
#[derive(Debug, Clone, Default)]
pub struct DurableOpts {
    /// The semantics to maintain (as in [`MaterializeOpts`]).
    pub engine: Engine,
    /// Evaluation options for the initial run and every repair. Their
    /// [`failpoints`](EvalOptions::failpoints) are the handle's one arming:
    /// the store fires its `store-*` sites on a clone, so the default picks
    /// a store site up from `INFLOG_FAILPOINT` like an evaluation site.
    pub eval: EvalOptions,
    /// Whether WAL appends fsync before acknowledging ([`Durability::Sync`],
    /// the default) or leave flushing to the OS.
    pub durability: Durability,
}

impl DurableOpts {
    fn materialize(&self) -> MaterializeOpts {
        MaterializeOpts {
            engine: self.engine,
            eval: self.eval.clone(),
        }
    }

    fn store(&self) -> StoreOptions {
        StoreOptions {
            durability: self.durability,
            failpoints: self.eval.failpoints.clone(),
        }
    }
}

/// A [`Materialized`] handle whose committed updates survive the process.
#[derive(Debug)]
pub struct DurableMaterialized {
    m: Materialized,
    store: Store,
    /// Durable epoch the in-memory handle was built at: the snapshot's
    /// epoch plus the WAL records folded into it. The durable epoch is
    /// `base_epoch + m.epoch()`.
    base_epoch: u64,
}

impl DurableMaterialized {
    /// Evaluates `program` over `db` once and initializes `dir` with the
    /// epoch-0 snapshot and an empty WAL.
    ///
    /// # Errors
    /// Construction errors of [`Materialized::new`]; [`EvalError::Store`]
    /// if the directory cannot be initialized.
    pub fn create(
        program: &Program,
        db: &Database,
        dir: &Path,
        opts: &DurableOpts,
    ) -> Result<DurableMaterialized> {
        let m = Materialized::new(program, db, &opts.materialize())?;
        let state = SnapshotState {
            epoch: 0,
            db: m.database().clone(),
        };
        let store = Store::create(dir, &state, &opts.store())?;
        Ok(DurableMaterialized {
            m,
            store,
            base_epoch: 0,
        })
    }

    /// Recovers the handle from `dir`: the newest valid snapshot's database
    /// with the WAL records past it applied, evaluated once (see the module
    /// docs).
    ///
    /// # Errors
    /// Typed [`StoreError`](inflog_store::StoreError)s (via
    /// [`EvalError::Store`]) for corrupt frames (with the byte offset) or
    /// epoch gaps; [`EvalError::UnknownRelation`],
    /// [`EvalError::ArityMismatch`] or [`EvalError::UnknownConstant`] for a
    /// record that does not fit `program`; plus the construction errors of
    /// [`Materialized::new`]. The directory is not modified on a validation
    /// error.
    pub fn open(program: &Program, dir: &Path, opts: &DurableOpts) -> Result<DurableMaterialized> {
        let (store, state, records) = Store::open(dir, &opts.store())?;
        let m = Materialized::recover(program, &state.db, &records, &opts.materialize())?;
        Ok(DurableMaterialized {
            m,
            store,
            base_epoch: state.epoch + records.len() as u64,
        })
    }

    /// Durably inserts or retracts `facts`, as `op` says: the batch is on
    /// disk, as one WAL record holding `facts`, before it is acknowledged
    /// (see the module docs for the exact order). Returns the number of
    /// facts the batch changed.
    ///
    /// # Errors
    /// [`EvalError::Store`] when the WAL append fails (in-memory state
    /// untouched); otherwise the same errors as [`Materialized::insert`]
    /// (in-memory state rolled back *and* the record un-logged).
    pub fn apply(&mut self, op: WalOp, facts: Vec<(String, Tuple)>) -> Result<usize> {
        let rec = WalRecord {
            epoch: self.epoch() + 1,
            op,
            facts,
        };
        // Log first: if this fails, nothing in memory has changed and the
        // WAL is poisoned until the directory is re-opened through recovery.
        let pre_len = self.store.append(&rec)?;
        match self.m.update(&rec.facts, op == WalOp::Insert) {
            Ok(n) => Ok(n),
            Err(e) => {
                // The in-memory handle rolled back; un-log the record so the
                // WAL does not run ahead of acknowledged state. If even that
                // fails the WAL poisons itself, so surface the store error.
                self.store.undo_append(pre_len)?;
                Err(e)
            }
        }
    }

    /// [`DurableMaterialized::apply`] of an insert.
    ///
    /// # Errors
    /// Same conditions as [`DurableMaterialized::apply`].
    pub fn insert(&mut self, facts: &[(&str, Tuple)]) -> Result<usize> {
        self.apply(WalOp::Insert, owned(facts))
    }

    /// [`DurableMaterialized::apply`] of a retract.
    ///
    /// # Errors
    /// Same conditions as [`DurableMaterialized::apply`].
    pub fn retract(&mut self, facts: &[(&str, Tuple)]) -> Result<usize> {
        self.apply(WalOp::Retract, owned(facts))
    }

    /// Rewrites a fresh snapshot at the current epoch and truncates the WAL
    /// (both atomically); keeps the previous snapshot as a fallback.
    ///
    /// # Errors
    /// [`EvalError::Store`] if a step fails; the directory stays
    /// recoverable at the current epoch either way (the crash tests drive
    /// both windows).
    pub fn compact(&mut self) -> Result<()> {
        let state = SnapshotState {
            epoch: self.epoch(),
            db: self.m.database().clone(),
        };
        self.store.compact(&state)?;
        Ok(())
    }

    /// The durable epoch: snapshot base plus committed updates since.
    pub fn epoch(&self) -> u64 {
        self.base_epoch + self.m.epoch()
    }

    /// [`Materialized::publish`] stamped with the *durable* epoch, so a
    /// served epoch number means the same thing before and after a crash
    /// recovery (WAL record count ≡ epoch delta).
    ///
    /// # Errors
    /// Same (practically unreachable) conditions as
    /// [`Materialized::publish`].
    pub fn publish(&self) -> Result<Arc<Epoch>> {
        self.m.publish(self.epoch())
    }

    /// [`Materialized::publish_into`] stamped with the durable epoch.
    ///
    /// # Errors
    /// Same conditions as [`DurableMaterialized::publish`].
    pub fn publish_into(&mut self, cell: &EpochCell) -> Result<Published> {
        let number = self.epoch();
        self.m.publish_into(cell, number)
    }

    /// Read access to the wrapped in-memory handle (queries, compiled
    /// program, containment checks). Mutations must go through the durable
    /// [`apply`](DurableMaterialized::apply), which is why no mutable
    /// accessor exists.
    pub fn handle(&self) -> &Materialized {
        &self.m
    }
}

/// A borrowed batch in the owned shape a WAL record holds.
fn owned(facts: &[(&str, Tuple)]) -> Vec<(String, Tuple)> {
    facts
        .iter()
        .map(|(name, t)| ((*name).to_string(), t.clone()))
        .collect()
}
