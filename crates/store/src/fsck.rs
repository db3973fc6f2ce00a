//! Offline consistency check for a store directory.
//!
//! Walks every snapshot and every WAL frame, verifying frame checksums,
//! decode consistency, and epoch monotonicity/contiguity, without building
//! any evaluation state. The report distinguishes a benign torn tail (the
//! final, unacknowledged append of a crashed process) from hard corruption,
//! and names the first corrupt byte offset so an operator can inspect it.

use crate::encode::Reader;
use crate::frame::{read_frame, FrameOutcome, FRAME_HEADER};
use crate::snapshot::{list_snapshots, load_snapshot};
use crate::wal::{WalRecord, WAL_FILE, WAL_MAGIC};
use crate::StoreError;
use std::fs;
use std::path::{Path, PathBuf};

/// Verification result for one snapshot file.
#[derive(Debug)]
pub struct SnapshotCheck {
    pub path: PathBuf,
    pub name_epoch: u64,
    /// `Ok(number of EDB facts)` or the load error.
    pub result: Result<usize, StoreError>,
}

/// Verification result for the WAL.
#[derive(Debug)]
pub struct WalCheck {
    pub path: PathBuf,
    pub records: usize,
    pub first_epoch: Option<u64>,
    pub last_epoch: Option<u64>,
    /// Offset of a benign incomplete final frame, if any.
    pub torn_tail: Option<u64>,
    /// First hard error (checksum failure, bad epoch sequence, ...).
    pub error: Option<StoreError>,
    /// End offset of the last fully-valid record (the file header alone
    /// counts as 12 bytes) — the byte the `--truncate` repair cuts at.
    /// Zero when even the header is unusable.
    pub valid_len: u64,
}

/// Full report for a store directory.
#[derive(Debug)]
pub struct FsckReport {
    pub snapshots: Vec<SnapshotCheck>,
    pub wal: Option<WalCheck>,
    /// Cross-file check: WAL records must continue contiguously from the
    /// newest loadable snapshot's epoch.
    pub continuity: Option<StoreError>,
}

impl FsckReport {
    /// The first hard error anywhere in the directory, if any. A directory
    /// passes fsck when the newest snapshot loads, the WAL scans clean, and
    /// the epochs line up; an older corrupt snapshot alone is reported but is
    /// not fatal (recovery never needs it once a newer one is valid).
    pub fn first_error(&self) -> Option<&StoreError> {
        if let Some(w) = &self.wal {
            if let Some(e) = &w.error {
                return Some(e);
            }
        }
        if let Some(e) = &self.continuity {
            return Some(e);
        }
        // Newest snapshot must be valid.
        if let Some(check) = self.snapshots.last() {
            if let Err(e) = &check.result {
                return Some(e);
            }
        }
        None
    }

    /// Whether any file in the directory (including older snapshots) has a
    /// problem worth reporting.
    pub fn all_clean(&self) -> bool {
        self.first_error().is_none() && self.snapshots.iter().all(|s| s.result.is_ok())
    }
}

/// Scans the WAL file without interpreting record contents beyond their
/// epoch, checking checksums and the strictly-consecutive epoch invariant.
fn check_wal(path: &Path) -> WalCheck {
    let mut check = WalCheck {
        path: path.to_path_buf(),
        records: 0,
        first_epoch: None,
        last_epoch: None,
        torn_tail: None,
        error: None,
        valid_len: 0,
    };
    let bytes = match StoreError::ctx(path, "read", fs::read(path)) {
        Ok(b) => b,
        Err(e) => {
            check.error = Some(e);
            return check;
        }
    };
    let shown = path.display().to_string();
    if bytes.len() < 12 || &bytes[..8] != WAL_MAGIC {
        check.error = Some(StoreError::BadHeader {
            path: shown,
            detail: "missing WAL magic".to_string(),
        });
        return check;
    }
    let mut off = 12;
    check.valid_len = 12;
    loop {
        match read_frame(&bytes, off, &shown) {
            Ok(FrameOutcome::Ok { payload, next }) => {
                let reader = Reader::new(payload, (off + FRAME_HEADER) as u64, &shown);
                match WalRecord::decode(reader) {
                    Ok(rec) => {
                        if let Some(prev) = check.last_epoch {
                            if rec.epoch != prev + 1 {
                                check.error = Some(StoreError::MissingEpochs {
                                    path: shown,
                                    expected: prev + 1,
                                    found: rec.epoch,
                                });
                                return check;
                            }
                        }
                        if check.first_epoch.is_none() {
                            check.first_epoch = Some(rec.epoch);
                        }
                        check.last_epoch = Some(rec.epoch);
                        check.records += 1;
                        off = next;
                        check.valid_len = next as u64;
                    }
                    Err(e) => {
                        check.error = Some(e);
                        return check;
                    }
                }
            }
            Ok(FrameOutcome::Eof) => return check,
            Ok(FrameOutcome::TornTail { offset }) => {
                check.torn_tail = Some(offset as u64);
                return check;
            }
            Err(e) => {
                check.error = Some(e);
                return check;
            }
        }
    }
}

/// Verifies every snapshot and the WAL in `dir`.
pub fn fsck(dir: &Path) -> Result<FsckReport, StoreError> {
    let snaps = list_snapshots(dir)?;
    let mut snapshots = Vec::new();
    let mut newest_valid_epoch: Option<u64> = None;
    for (name_epoch, path) in snaps {
        let result = load_snapshot(&path).map(|state| {
            debug_assert_eq!(state.epoch, name_epoch);
            newest_valid_epoch = Some(state.epoch);
            state.db.total_tuples()
        });
        snapshots.push(SnapshotCheck {
            path,
            name_epoch,
            result,
        });
    }

    let wal_path = dir.join(WAL_FILE);
    let wal = wal_path.exists().then(|| check_wal(&wal_path));

    // Continuity: the first WAL record past the newest valid snapshot's
    // epoch must be exactly the next epoch. (Records at or below it are
    // leftovers of an interrupted compaction and are fine.)
    let mut continuity = None;
    if let (Some(snap_epoch), Some(w)) = (newest_valid_epoch, wal.as_ref()) {
        if w.error.is_none() {
            // Records are strictly consecutive (checked above), so a gap can
            // only be between the snapshot and the first record.
            if let Some(first) = w.first_epoch {
                if first > snap_epoch + 1 {
                    continuity = Some(StoreError::MissingEpochs {
                        path: w.path.display().to_string(),
                        expected: snap_epoch + 1,
                        found: first,
                    });
                }
            }
        }
    }

    Ok(FsckReport {
        snapshots,
        wal,
        continuity,
    })
}

/// Result of a [`truncate_repair`] pass.
#[derive(Debug)]
pub enum TruncateOutcome {
    /// Nothing to repair: the directory already recovers cleanly.
    Clean,
    /// The WAL was cut back to its last fully-valid record.
    Truncated {
        /// Byte offset the file was truncated at.
        at: u64,
        /// Bytes dropped from the tail.
        dropped_bytes: u64,
        /// Records surviving the cut.
        kept_records: usize,
        /// Epoch of the last surviving record, if any survive.
        kept_last_epoch: Option<u64>,
    },
    /// Truncation cannot fix this directory (corrupt newest snapshot,
    /// unusable WAL header, or damage that survives the cut).
    Unrepairable {
        /// Why.
        reason: String,
    },
}

/// Destructive WAL repair: cuts the log back to its last fully-valid
/// record, dropping the corrupt or torn tail, then re-runs [`fsck`] to
/// confirm the directory recovers. Only tail damage in the WAL is
/// repairable this way — a corrupt newest snapshot, a missing WAL header,
/// or an epoch gap at the log's *head* is reported as
/// [`TruncateOutcome::Unrepairable`] and the directory is left untouched.
///
/// Records past the cut are lost (they were never recoverable); everything
/// up to the cut recovers exactly as before.
///
/// # Errors
/// Only I/O errors reading or truncating the files; every diagnosis
/// outcome is a [`TruncateOutcome`].
pub fn truncate_repair(dir: &Path) -> Result<TruncateOutcome, StoreError> {
    let report = fsck(dir)?;
    // Snapshot-side damage: truncating the log cannot help.
    if let Some(check) = report.snapshots.last() {
        if let Err(e) = &check.result {
            return Ok(TruncateOutcome::Unrepairable {
                reason: format!("newest snapshot is unreadable: {e}"),
            });
        }
    }
    let Some(wal) = &report.wal else {
        return Ok(TruncateOutcome::Clean);
    };
    if wal.error.is_none() && wal.torn_tail.is_none() && report.continuity.is_none() {
        return Ok(TruncateOutcome::Clean);
    }
    if let Some(e) = &report.continuity {
        return Ok(TruncateOutcome::Unrepairable {
            reason: format!("epoch gap at the log head: {e}"),
        });
    }
    if wal.valid_len < 12 {
        let detail = match &wal.error {
            Some(e) => e.to_string(),
            None => "unusable WAL header".to_string(),
        };
        return Ok(TruncateOutcome::Unrepairable {
            reason: format!("no valid WAL prefix to keep: {detail}"),
        });
    }
    let len = StoreError::ctx(&wal.path, "stat", fs::metadata(&wal.path))?.len();
    debug_assert!(wal.valid_len <= len);
    let file = StoreError::ctx(
        &wal.path,
        "open",
        fs::OpenOptions::new().write(true).open(&wal.path),
    )?;
    StoreError::ctx(&wal.path, "truncate", file.set_len(wal.valid_len))?;
    StoreError::ctx(&wal.path, "sync", file.sync_all())?;
    let outcome = TruncateOutcome::Truncated {
        at: wal.valid_len,
        dropped_bytes: len.saturating_sub(wal.valid_len),
        kept_records: wal.records,
        kept_last_epoch: wal.last_epoch,
    };
    // Confirm: the repaired directory must now pass fsck.
    let confirm = fsck(dir)?;
    match confirm.first_error() {
        None => Ok(outcome),
        Some(e) => Ok(TruncateOutcome::Unrepairable {
            reason: format!("damage survives the tail cut: {e}"),
        }),
    }
}
