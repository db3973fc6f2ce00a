//! Durable snapshots + write-ahead log for materialized fixpoints.
//!
//! Every negation semantics this workspace evaluates (inflationary,
//! semi-naive least fixpoint, stratified, well-founded) is a *deterministic
//! function of the EDB* — the central observation of Kolaitis &
//! Papadimitriou's paper. That determinism is an unusually strong recovery
//! oracle: a handle rebuilt from a snapshot plus replayed WAL records must be
//! **bit-identical** to recomputing from scratch over the recovered EDB, and
//! the crash tests assert exactly that instead of trusting the format.
//!
//! The crate is deliberately low-level and dependency-free (the vendored tree
//! has no serde): a hand-rolled little-endian encoding ([`encode`]), CRC-32
//! checksummed frames ([`frame`]), epoch-stamped snapshots committed by
//! tmp-write + rename + directory fsync ([`snapshot`]), a log-first WAL
//! ([`wal`]), directory-level recovery and compaction ([`store`]), an offline
//! checker ([`fsck`]), and crash-injection points that fire the `store-*`
//! sites of the shared registry in `inflog_core::failpoints`.
//!
//! The evaluation-facing wrapper that pairs a live `Materialized` handle with
//! a [`Store`] lives in `inflog-eval` (`DurableMaterialized`), keeping this
//! crate's dependency edge pointing only at `inflog-core`.

pub mod crc;
pub mod encode;
pub mod error;
pub mod frame;
pub mod fsck;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use crc::crc32;
pub use error::StoreError;
pub use fsck::{fsck, truncate_repair, FsckReport, TruncateOutcome};
pub use snapshot::SnapshotState;
pub use store::{Store, StoreOptions};
pub use wal::{Durability, WalOp, WalRecord};
