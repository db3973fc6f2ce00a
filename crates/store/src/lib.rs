//! Durable snapshots + write-ahead log for materialized fixpoints.
//!
//! Every negation semantics this workspace evaluates (inflationary,
//! semi-naive least fixpoint, stratified, well-founded) is a *deterministic
//! function of the EDB* — the central observation of Kolaitis &
//! Papadimitriou's paper. So the store keeps only the EDB: a snapshot is the
//! database at an epoch, a WAL record is one insert or retract batch, and
//! recovery folds the records into the snapshot's database and evaluates
//! once. The crash tests check the recovered handle against a from-scratch
//! evaluation and against an uncrashed copy instead of trusting the format.
//!
//! The crate is deliberately low-level and dependency-free (the vendored tree
//! has no serde): a hand-rolled little-endian encoding ([`encode`]), CRC-32
//! checksummed frames ([`frame`]), epoch-stamped snapshots committed by
//! tmp-write + rename + directory fsync ([`snapshot`]), a log-first WAL
//! ([`wal`]), directory-level recovery and compaction ([`store`]), an offline
//! checker ([`fsck`](mod@fsck)), and crash-injection points that fire the `store-*`
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
