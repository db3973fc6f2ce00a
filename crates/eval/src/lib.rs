//! # inflog-eval
//!
//! Evaluation engines for DATALOG¬ programs, all built on one immediate-
//! consequence operator Θ (§2 of *"Why Not Negation by Fixpoint?"*):
//!
//! * [`operator`] — the operator Θ itself, over compiled rule plans, with
//!   synchronous (Jacobi) application and delta-restricted application;
//! * [`index`] — persistent hash-join indexes, owned by the evaluation
//!   context and maintained incrementally across Θ applications (and across
//!   watermark rollbacks of the well-founded engine's decreasing side);
//! * [`driver`] — the one semi-naive round loop every delta-capable engine
//!   drives, with reusable scratch buffers and a debug cross-check against
//!   the naive round;
//! * [`options`] — per-evaluation knobs: resource limits, cancellation
//!   and failpoints;
//! * [`govern`] — resource governance: [`Budget`] limits and
//!   [`CancelToken`] cancellation enforced at round boundaries and in the
//!   executor inner loops, and the evaluation sites of the fault-injection
//!   registry (`inflog_core::failpoints`) the transactional-update tests
//!   drive;
//! * [`naive`] / [`seminaive`] — least-fixpoint evaluation of *positive*
//!   DATALOG programs (the paper's standard semantics);
//! * [`inflationary()`](inflationary()) — the paper's §4 proposal: Θ̃(S) = S ∪ Θ(S) iterated to
//!   its inductive fixpoint, defined for **every** DATALOG¬ program and
//!   computable in polynomial time (data complexity);
//! * [`stratified`] — the Chandra–Harel / Apt–Blair–Walker semantics the
//!   paper contrasts with (stratification check + per-stratum evaluation);
//! * [`wellfounded`] — Van Gelder's alternating-fixpoint semantics
//!   (3-valued), an extension point for comparing negation semantics;
//! * [`plan`] / [`resolve`] — the rule compiler: name resolution against a
//!   database and join planning (greedy bound-position ordering with a
//!   live-cardinality tie-break; the round driver re-plans every round).
//!   Because the paper's semantics is domain-grounded, plans may contain
//!   `Domain` steps that range a variable over the whole universe — unsafe
//!   rules evaluate correctly;
//! * [`materialize`] — live incremental view maintenance: a long-lived
//!   [`Materialized`] handle whose `insert`/`retract` repair the fixpoint
//!   (delete–rederive per stratum; a documented restart fallback for the
//!   non-change-monotone inflationary and non-stratifiable well-founded
//!   fixpoints) instead of recomputing it;
//! * [`durable`] — crash durability for a materialized handle: every
//!   committed batch goes to an `inflog-store` write-ahead log before it is
//!   acknowledged, snapshots hold only the EDB, and recovery folds the WAL
//!   into it and evaluates once (the model is a deterministic function of
//!   the EDB — the paper's semantics are the recovery oracle);
//! * [`epoch`] — immutable epoch snapshots of a materialized model and the
//!   single-writer/many-reader [`EpochCell`] publication point that
//!   `inflog-serve` builds on: readers pin the epoch they started on while
//!   the writer commits and publishes the next one;
//! * [`query`](mod@query) — goal-directed evaluation: the demand rewrites of
//!   `inflog-rewrite` (adorned magic sets for stratified programs, the
//!   demand-cone restriction for well-founded ones) plus an explicit
//!   capability check, answering point queries without computing the full
//!   fixpoint — set-identical to full-fixpoint-then-filter.
//!
//! The different engines share plans and state types, so cross-engine
//! agreement (naive ≡ semi-naive; inflationary ≡ least fixpoint on positive
//! programs; stratified model is a fixpoint of Θ) is tested directly.

pub mod driver;
pub mod durable;
pub mod epoch;
pub mod error;
pub mod exec;
pub mod govern;
pub mod index;
pub mod inflationary;
pub mod interp;
pub mod materialize;
pub mod naive;
pub mod operator;
pub mod options;
pub mod plan;
pub mod query;
pub mod resolve;
pub mod seminaive;
pub mod stratified;
pub mod trace;
#[cfg(debug_assertions)]
mod tree;
pub mod wellfounded;

pub use driver::DeltaDriver;
pub use durable::{Durability, DurableMaterialized, DurableOpts};
pub use epoch::{Epoch, EpochCell, Truth};
pub use error::{panic_message, BudgetKind, EvalError};
pub use exec::{ColAction, Op, RuleProgram, ValSrc};
pub use govern::{Budget, CancelToken, Governor};
pub use index::IndexSet;
pub use inflationary::{inflationary, inflationary_naive, inflationary_with};
pub use interp::Interp;
pub use materialize::{Change, Engine, MaterializeOpts, Materialized, RepairStats, RepairStrategy};
pub use naive::{least_fixpoint_naive, least_fixpoint_naive_with};
pub use operator::{
    apply, apply_delta, apply_delta_with_neg, apply_subset, apply_with_neg, enumerate_bindings,
    EvalContext,
};
pub use options::EvalOptions;
pub use plan::lower;
pub use query::{
    demand_support, query, DemandSupport, NonStratifiedPolicy, QueryAnswer, QueryOpts,
    QueryStrategy,
};
pub use resolve::{ensure_program_constants, CompiledProgram, RulePlans};
pub use seminaive::{least_fixpoint_seminaive, least_fixpoint_seminaive_with};
pub use stratified::{stratified_eval, stratified_eval_with, stratify, Stratification};
pub use trace::EvalTrace;
pub use wellfounded::{well_founded, well_founded_with, WellFoundedModel};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, EvalError>;
