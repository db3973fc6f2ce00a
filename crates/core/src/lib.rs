//! # inflog-core
//!
//! Foundation data model for the **inflog** reproduction of Kolaitis &
//! Papadimitriou, *"Why Not Negation by Fixpoint?"* (PODS 1988 / JCSS 1991).
//!
//! The paper works with finite databases `D = (A, R_1, ..., R_l)` over a fixed
//! vocabulary: a finite universe `A` and finitely many finite relations on
//! `A`. This crate provides exactly those objects:
//!
//! * [`Universe`] — the finite set `A`, with interned, printable constants;
//! * [`Const`] / [`Tuple`] — elements of `A` and of `A^k`;
//! * [`Relation`] — a finite `k`-ary relation on `A` with set algebra and
//!   join-friendly indexing;
//! * [`Database`] — a named collection of relations over one universe;
//! * [`Schema`] — the vocabulary `(R_1/m_1, ..., R_l/m_l)`;
//! * [`graphs`] — directed-graph workloads used throughout the paper
//!   (paths `L_n`, cycles `C_n`, disjoint unions `G_n`, random graphs, ...);
//! * [`failpoints`] — the fault-injection sites of every layer above (eval,
//!   store, serve) and the one [`Failpoints`](failpoints::Failpoints)
//!   handle that arms them.
//!
//! Everything else in the workspace (syntax, evaluation, fixpoint analysis,
//! logic, circuits, reductions) builds on these types.

pub mod database;
pub mod error;
pub mod failpoints;
pub mod fxhash;
pub mod graphs;
pub mod relation;
pub mod tuple;
pub mod universe;

pub use database::{Database, Schema};
pub use error::CoreError;
pub use fxhash::{FxBuildHasher, FxHasher};
pub use relation::Relation;
pub use tuple::{Const, Tuple};
pub use universe::Universe;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
