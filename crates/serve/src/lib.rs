//! # inflog-serve — epoch-snapshot serving layer
//!
//! A long-lived server over a durable materialized DATALOG¬ fixpoint
//! ([`inflog_eval::DurableMaterialized`]): concurrent snapshot-isolated
//! readers, a single durable writer, admission control, and typed graceful
//! degradation — chaos-tested against crash windows.
//!
//! ## The epoch-publication invariant
//!
//! All reads are answered from an immutable
//! [`Epoch`](inflog_eval::Epoch) — a committed fixpoint (the materialized
//! model, its EDB, and its warmed index set) behind an `Arc`. The single
//! writer commits each batch through the log-first durable path (WAL
//! append → transactional repair) and **only then** swaps the new epoch
//! into the [`EpochCell`](inflog_eval::EpochCell) and acknowledges the
//! client. Readers pin the current epoch with an `Arc` clone and keep it
//! for the whole request, so:
//!
//! - every reply is consistent with exactly one committed epoch — never a
//!   mix of two, never a partially applied write;
//! - an acked write is durable *and* visible to every later pin;
//! - old epochs are freed automatically when their last reader drops
//!   (plain `Arc` reclamation — no epoch list, no GC thread).
//!
//! Because every semantics in this workspace is a *deterministic* function
//! of the EDB (the paper's Sections 2–4 models are uniquely determined),
//! any violation is mechanically checkable: re-evaluating a pinned epoch's
//! own EDB from scratch must reproduce its materialized model bit for bit
//! ([`Epoch::matches_recompute`](inflog_eval::Epoch::matches_recompute)).
//! The stress and chaos tests lean on exactly that oracle.
//!
//! ## Degradation, not failure
//!
//! Overload sheds with typed [`ServeError::Overloaded`] (bounded in-flight
//! readers, bounded writer queue with backpressure); reader panics are
//! contained per request; slow queries are cancelled at their deadline;
//! writer failures roll back transactionally without disturbing the
//! published epoch; shutdown drains. Chaos sites (`serve-writer-crash`,
//! `serve-epoch-publish`, `serve-queue-full`, `serve-reply-drop`, in the
//! shared registry `inflog_core::failpoints`) inject crashes into the exact
//! protocol windows; they are armed on [`ServeOptions::eval`] like every
//! other site.
//!
//! ## Protocol
//!
//! [`proto`] documents the line protocol; [`conn::serve_session`] runs it
//! over any `Read`/`Write` pair; the `serve` binary wires it to stdin
//! (REPL) or a TCP listener.

pub mod conn;
pub mod error;
pub mod proto;
pub mod server;

pub use conn::{serve_session, SessionOutcome};
pub use error::{Load, ServeError};
pub use proto::{parse_request, render_error, render_tuple, Request};
pub use server::{PublishCounts, QueryReply, ServeOptions, Server, WriteAck};
