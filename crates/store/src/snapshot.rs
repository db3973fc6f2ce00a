//! Epoch-stamped snapshots of a materialized fixpoint.
//!
//! A snapshot file is:
//!
//! ```text
//! [8-byte magic "INFLOGSN"] [u32 version] [one frame: SnapshotState payload]
//! ```
//!
//! and is committed atomically: write `snapshot-<epoch>.bin.tmp`, fsync the
//! file, rename onto the final name, fsync the directory. A crash anywhere in
//! that sequence leaves either the old world (stray `.tmp` files are ignored
//! and cleaned on open) or the new world — never a half-written snapshot under
//! the final name.

use crate::encode::{Reader, Writer};
use crate::frame::{frame_bytes, read_frame, FrameOutcome};
use crate::StoreError;
use inflog_core::failpoints::{Failpoints, SITE_SNAPSHOT_RENAME};
use inflog_core::Database;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

pub const SNAPSHOT_MAGIC: &[u8; 8] = b"INFLOGSN";
pub const FORMAT_VERSION: u32 = 2;

/// What a snapshot holds: the EDB and the epoch it was committed at.
///
/// Nothing derived is stored. Every semantics a `Materialized` handle
/// maintains is a deterministic function of the EDB, so recovery folds the
/// WAL records past `epoch` into `db` and evaluates once; a stored model
/// would only be a second copy of that evaluation's result. Version 1
/// snapshots also carried the model and are refused by [`load_snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotState {
    pub epoch: u64,
    pub db: Database,
}

impl SnapshotState {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.epoch);
        w.put_database(&self.db);
        w.into_bytes()
    }

    pub fn decode(mut r: Reader<'_>) -> Result<SnapshotState, StoreError> {
        let epoch = r.take_u64()?;
        let db = r.take_database()?;
        r.finish()?;
        Ok(SnapshotState { epoch, db })
    }
}

/// File name of the snapshot for `epoch`.
pub fn snapshot_file_name(epoch: u64) -> String {
    format!("snapshot-{epoch:016x}.bin")
}

/// Parses a snapshot file name back to its epoch.
pub fn parse_snapshot_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("snapshot-")?.strip_suffix(".bin")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Lists `(epoch, path)` for every snapshot in `dir`, ascending by epoch.
pub fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut out = Vec::new();
    for entry in StoreError::ctx(dir, "read_dir", fs::read_dir(dir))? {
        let entry = StoreError::ctx(dir, "read_dir", entry)?;
        let name = entry.file_name();
        if let Some(epoch) = name.to_str().and_then(parse_snapshot_name) {
            out.push((epoch, entry.path()));
        }
    }
    out.sort_unstable_by_key(|(e, _)| *e);
    Ok(out)
}

/// Fsyncs a directory so a just-completed rename is durable.
pub fn sync_dir(dir: &Path) -> Result<(), StoreError> {
    let d = StoreError::ctx(dir, "open dir", fs::File::open(dir))?;
    StoreError::ctx(dir, "fsync dir", d.sync_all())
}

/// Atomically writes the snapshot for `state.epoch` into `dir`.
///
/// Crash window (exercised by [`SITE_SNAPSHOT_RENAME`]): the tmp file is fully
/// written and fsynced, but the rename has not happened — recovery ignores
/// `.tmp` files, so the previous snapshot still wins.
pub fn write_snapshot(
    dir: &Path,
    state: &SnapshotState,
    fp: &Failpoints,
) -> Result<PathBuf, StoreError> {
    let final_path = dir.join(snapshot_file_name(state.epoch));
    let tmp_path = dir.join(format!("{}.tmp", snapshot_file_name(state.epoch)));
    let mut bytes = Vec::new();
    bytes.extend_from_slice(SNAPSHOT_MAGIC);
    bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    bytes.extend_from_slice(&frame_bytes(&state.encode()));

    let mut f = StoreError::ctx(&tmp_path, "create", fs::File::create(&tmp_path))?;
    StoreError::ctx(&tmp_path, "write", f.write_all(&bytes))?;
    StoreError::ctx(&tmp_path, "fsync", f.sync_all())?;
    drop(f);

    if fp.fire(SITE_SNAPSHOT_RENAME) {
        // Simulated crash between tmp-write and rename: the tmp file stays on
        // disk, the final name does not change.
        return Err(StoreError::FaultInjected {
            site: SITE_SNAPSHOT_RENAME.to_string(),
        });
    }

    StoreError::ctx(&final_path, "rename", fs::rename(&tmp_path, &final_path))?;
    sync_dir(dir)?;
    Ok(final_path)
}

/// Loads and verifies one snapshot file.
pub fn load_snapshot(path: &Path) -> Result<SnapshotState, StoreError> {
    let bytes = StoreError::ctx(path, "read", fs::read(path))?;
    let shown = path.display().to_string();
    if bytes.len() < SNAPSHOT_MAGIC.len() + 4 || &bytes[..8] != SNAPSHOT_MAGIC {
        return Err(StoreError::BadHeader {
            path: shown,
            detail: "missing snapshot magic".to_string(),
        });
    }
    let version = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
    if version != FORMAT_VERSION {
        return Err(StoreError::BadHeader {
            path: shown,
            detail: format!("unsupported version {version} (expected {FORMAT_VERSION})"),
        });
    }
    let body_off = SNAPSHOT_MAGIC.len() + 4;
    match read_frame(&bytes, body_off, &shown)? {
        FrameOutcome::Ok { payload, next } => {
            if next != bytes.len() {
                return Err(StoreError::CorruptFrame {
                    path: shown,
                    offset: next as u64,
                    detail: format!("{} trailing bytes after snapshot frame", bytes.len() - next),
                });
            }
            let reader = Reader::new(
                payload,
                (body_off + crate::frame::FRAME_HEADER) as u64,
                &shown,
            );
            SnapshotState::decode(reader)
        }
        // A snapshot is all-or-nothing: an incomplete frame means this file
        // never finished its atomic commit and is not a valid candidate.
        FrameOutcome::TornTail { offset } => Err(StoreError::CorruptFrame {
            path: shown,
            offset: offset as u64,
            detail: "truncated snapshot frame".to_string(),
        }),
        FrameOutcome::Eof => Err(StoreError::CorruptFrame {
            path: shown,
            offset: body_off as u64,
            detail: "snapshot file has no frame".to_string(),
        }),
    }
}

/// Removes stray `.tmp` files left by crashed snapshot commits.
pub fn clean_tmp_files(dir: &Path) -> Result<(), StoreError> {
    for entry in StoreError::ctx(dir, "read_dir", fs::read_dir(dir))? {
        let entry = StoreError::ctx(dir, "read_dir", entry)?;
        let path = entry.path();
        if path.extension().is_some_and(|e| e == "tmp") {
            StoreError::ctx(&path, "remove tmp", fs::remove_file(&path))?;
        }
    }
    Ok(())
}
