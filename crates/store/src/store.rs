//! Directory-level orchestration: snapshots + WAL + recovery + compaction.
//!
//! Layout of a store directory:
//!
//! ```text
//! snapshot-<epoch:016x>.bin   committed snapshots (current + one previous)
//! wal.bin                     records past the newest snapshot's epoch
//! *.tmp                       in-flight atomic writes; ignored and cleaned
//! ```
//!
//! Recovery contract: [`Store::open`] returns the newest loadable snapshot
//! plus exactly the WAL records that commit epochs past it, in order, with a
//! contiguity check — a gap in the epoch sequence means committed updates
//! would be silently skipped, so recovery refuses with
//! [`StoreError::MissingEpochs`] instead of returning a wrong answer.

use crate::snapshot::{
    clean_tmp_files, list_snapshots, load_snapshot, write_snapshot, SnapshotState,
};
use crate::wal::{Durability, Wal, WalRecord, WAL_FILE};
use crate::StoreError;
use inflog_core::failpoints::{Failpoints, SITE_COMPACT_TRUNCATE};
use std::fs;
use std::path::{Path, PathBuf};

/// Configuration for opening or creating a store.
#[derive(Debug, Clone, Default)]
pub struct StoreOptions {
    pub durability: Durability,
    /// Crash injection at the `store-*` sites; other sites are ignored.
    pub failpoints: Failpoints,
}

/// A store directory with an open WAL.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    opts: StoreOptions,
    wal: Wal,
}

impl Store {
    /// Initializes `dir` with the given base snapshot and a fresh WAL.
    ///
    /// `dir` is created if missing; any existing snapshot/WAL files are
    /// replaced (the caller owns the directory).
    pub fn create(
        dir: &Path,
        state: &SnapshotState,
        opts: &StoreOptions,
    ) -> Result<Store, StoreError> {
        StoreError::ctx(dir, "create dir", fs::create_dir_all(dir))?;
        write_snapshot(dir, state, &opts.failpoints)?;
        let wal = Wal::create(
            &dir.join(WAL_FILE),
            opts.durability,
            opts.failpoints.clone(),
        )?;
        Ok(Store {
            dir: dir.to_path_buf(),
            opts: opts.clone(),
            wal,
        })
    }

    /// Recovers a store directory: newest loadable snapshot, then the WAL
    /// records that commit epochs past it (contiguous, ascending).
    pub fn open(
        dir: &Path,
        opts: &StoreOptions,
    ) -> Result<(Store, SnapshotState, Vec<WalRecord>), StoreError> {
        let snaps = list_snapshots(dir)?;
        if snaps.is_empty() {
            return Err(StoreError::NoSnapshot {
                dir: dir.display().to_string(),
            });
        }
        // Newest first; fall back to older snapshots on corruption, but if
        // nothing loads, surface the *newest* failure (it names the file the
        // operator should look at first).
        let mut first_err: Option<StoreError> = None;
        let mut loaded: Option<SnapshotState> = None;
        for (_, path) in snaps.iter().rev() {
            match load_snapshot(path) {
                Ok(state) => {
                    loaded = Some(state);
                    break;
                }
                Err(e) => {
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        let state = match loaded {
            Some(s) => s,
            None => return Err(first_err.expect("at least one snapshot failed")),
        };

        let wal_path = dir.join(WAL_FILE);
        let (wal, records) = if wal_path.exists() {
            Wal::open(&wal_path, opts.durability, opts.failpoints.clone())?
        } else {
            // Crash between snapshot creation and WAL creation during
            // `Store::create`: an empty log is the correct state.
            (
                Wal::create(&wal_path, opts.durability, opts.failpoints.clone())?,
                Vec::new(),
            )
        };

        // Records must be strictly consecutive; records at or below the
        // snapshot epoch are already folded into it (they survive a crash
        // between compaction's snapshot write and its WAL reset) and are
        // skipped.
        let wal_shown = wal_path.display().to_string();
        let mut replay = Vec::new();
        let mut prev: Option<u64> = None;
        for rec in records {
            if let Some(p) = prev {
                if rec.epoch != p + 1 {
                    return Err(StoreError::MissingEpochs {
                        path: wal_shown,
                        expected: p + 1,
                        found: rec.epoch,
                    });
                }
            }
            prev = Some(rec.epoch);
            if rec.epoch > state.epoch {
                replay.push(rec);
            }
        }
        if let Some(first) = replay.first() {
            if first.epoch != state.epoch + 1 {
                return Err(StoreError::MissingEpochs {
                    path: wal_shown,
                    expected: state.epoch + 1,
                    found: first.epoch,
                });
            }
        }

        clean_tmp_files(dir)?;
        Ok((
            Store {
                dir: dir.to_path_buf(),
                opts: opts.clone(),
                wal,
            },
            state,
            replay,
        ))
    }

    /// Appends one record (log-first); returns the pre-append WAL length for
    /// [`Store::undo_append`].
    pub fn append(&mut self, rec: &WalRecord) -> Result<u64, StoreError> {
        self.wal.append(rec)
    }

    /// Un-logs the most recent append after its in-memory apply failed.
    pub fn undo_append(&mut self, pre_len: u64) -> Result<(), StoreError> {
        self.wal.truncate_to(pre_len)
    }

    /// Rewrites a fresh snapshot at `state.epoch` and truncates the log, both
    /// behind the atomic-rename protocol; prunes all but the two newest
    /// snapshots.
    ///
    /// Crash windows: [`SITE_SNAPSHOT_RENAME`](inflog_core::failpoints::SITE_SNAPSHOT_RENAME)
    /// dies before the snapshot rename (old world intact);
    /// [`SITE_COMPACT_TRUNCATE`] dies after the snapshot is in place but
    /// before the WAL reset — recovery then skips the WAL records the new
    /// snapshot already contains.
    pub fn compact(&mut self, state: &SnapshotState) -> Result<(), StoreError> {
        write_snapshot(&self.dir, state, &self.opts.failpoints)?;
        if self.opts.failpoints.fire(SITE_COMPACT_TRUNCATE) {
            return Err(StoreError::FaultInjected {
                site: SITE_COMPACT_TRUNCATE.to_string(),
            });
        }
        self.wal = Wal::reset_atomic(
            &self.dir.join(WAL_FILE),
            self.opts.durability,
            self.opts.failpoints.clone(),
        )?;
        self.prune_snapshots()?;
        Ok(())
    }

    /// Keeps the two newest snapshots (current + previous), removes the rest.
    fn prune_snapshots(&self) -> Result<(), StoreError> {
        let snaps = list_snapshots(&self.dir)?;
        if snaps.len() > 2 {
            for (_, path) in &snaps[..snaps.len() - 2] {
                StoreError::ctx(path, "remove old snapshot", fs::remove_file(path))?;
            }
        }
        Ok(())
    }

    /// Byte length of the acknowledged WAL prefix.
    pub fn wal_len(&self) -> u64 {
        self.wal.len()
    }
}
