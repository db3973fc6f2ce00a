//! The write-ahead log.
//!
//! A WAL file is:
//!
//! ```text
//! [8-byte magic "INFLOGWL"] [u32 version] [frame]*
//! ```
//!
//! with one frame per committed insert/retract batch. Records are written
//! log-first: the durable layer appends (and, under [`Durability::Sync`],
//! fsyncs) the record *before* applying the batch in memory, so an
//! acknowledged update is always on disk.
//!
//! Failure discipline: if an append does not complete cleanly, the handle
//! **poisons** itself — it refuses further appends instead of attempting any
//! in-place repair, because repairing would destroy exactly the crash-shaped
//! disk state that recovery (and the crash tests) must handle. The only way
//! past a poisoned log is to re-open the directory through recovery, which
//! truncates a torn tail and folds the surviving records into the EDB.

use crate::encode::{Reader, Writer};
use crate::frame::{frame_bytes, read_frame, FrameOutcome, FRAME_HEADER};
use crate::StoreError;
use inflog_core::failpoints::{
    Failpoints, SITE_WAL_APPEND_SYNC, SITE_WAL_BIT_FLIP, SITE_WAL_TORN_WRITE,
    SITE_WAL_TRUNCATED_TAIL,
};
use inflog_core::Tuple;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

pub const WAL_MAGIC: &[u8; 8] = b"INFLOGWL";
/// The WAL's own format version, independent of the snapshot's.
pub const WAL_VERSION: u32 = 1;
pub const WAL_FILE: &str = "wal.bin";

/// How hard an append must be on disk before it is acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// fsync every record before the update returns: an acknowledged update
    /// survives power loss.
    #[default]
    Sync,
    /// Leave flushing to the OS: faster, and an acknowledged update survives
    /// a process kill but not necessarily power loss.
    Buffered,
}

/// The operation a WAL record applies to the EDB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalOp {
    Insert,
    Retract,
}

/// One committed batch: the epoch it creates, the operation, and the facts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    pub epoch: u64,
    pub op: WalOp,
    pub facts: Vec<(String, Tuple)>,
}

impl WalRecord {
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.epoch);
        w.put_u8(match self.op {
            WalOp::Insert => 1,
            WalOp::Retract => 2,
        });
        w.put_u32(self.facts.len() as u32);
        for (name, t) in &self.facts {
            w.put_str(name);
            w.put_tuple(t);
        }
        w.into_bytes()
    }

    pub fn decode(mut r: Reader<'_>) -> Result<WalRecord, StoreError> {
        let epoch = r.take_u64()?;
        let op = match r.take_u8()? {
            1 => WalOp::Insert,
            2 => WalOp::Retract,
            other => {
                return Err(StoreError::CorruptFrame {
                    path: String::new(),
                    offset: r.offset().saturating_sub(1),
                    detail: format!("unknown WAL op tag {other}"),
                })
            }
        };
        // A fact is at least a name length and an arity: 8 bytes.
        let n = r.take_count(8)?;
        let mut facts = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.take_str()?;
            let t = r.take_tuple()?;
            facts.push((name, t));
        }
        r.finish()?;
        Ok(WalRecord { epoch, op, facts })
    }
}

/// An open, appendable write-ahead log.
#[derive(Debug)]
pub struct Wal {
    path: PathBuf,
    file: File,
    /// Length of the valid prefix; appends write at this offset.
    len: u64,
    poisoned: bool,
    durability: Durability,
    failpoints: Failpoints,
}

fn header_bytes() -> Vec<u8> {
    let mut bytes = Vec::with_capacity(12);
    bytes.extend_from_slice(WAL_MAGIC);
    bytes.extend_from_slice(&WAL_VERSION.to_le_bytes());
    bytes
}

impl Wal {
    /// Creates a fresh, empty log at `path` (truncating any existing file).
    pub fn create(
        path: &Path,
        durability: Durability,
        failpoints: Failpoints,
    ) -> Result<Wal, StoreError> {
        let mut file = StoreError::ctx(
            path,
            "create",
            OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(path),
        )?;
        let header = header_bytes();
        StoreError::ctx(path, "write header", file.write_all(&header))?;
        StoreError::ctx(path, "fsync", file.sync_all())?;
        // The directory entry too: a lost name reads as "no WAL yet", and
        // recovery would start an empty log under epochs already acked.
        if let Some(dir) = path.parent() {
            crate::snapshot::sync_dir(dir)?;
        }
        Ok(Wal {
            path: path.to_path_buf(),
            file,
            len: header.len() as u64,
            poisoned: false,
            durability,
            failpoints,
        })
    }

    /// Opens an existing log, scanning every record.
    ///
    /// A torn tail (incomplete final frame) is truncated away — under the
    /// log-first protocol it can only be an unacknowledged append. A checksum
    /// failure anywhere is a hard [`StoreError::CorruptFrame`].
    pub fn open(
        path: &Path,
        durability: Durability,
        failpoints: Failpoints,
    ) -> Result<(Wal, Vec<WalRecord>), StoreError> {
        let bytes = StoreError::ctx(path, "read", fs::read(path))?;
        let shown = path.display().to_string();
        let header = header_bytes();
        if bytes.len() < header.len() || bytes[..8] != header[..8] {
            return Err(StoreError::BadHeader {
                path: shown,
                detail: "missing WAL magic".to_string(),
            });
        }
        if bytes[8..12] != header[8..12] {
            return Err(StoreError::BadHeader {
                path: shown,
                detail: "unsupported WAL version".to_string(),
            });
        }
        let mut records = Vec::new();
        let mut off = header.len();
        let valid_len = loop {
            match read_frame(&bytes, off, &shown)? {
                FrameOutcome::Ok { payload, next } => {
                    let reader = Reader::new(payload, (off + FRAME_HEADER) as u64, &shown);
                    let rec = WalRecord::decode(reader).map_err(|e| match e {
                        // decode() errors carry an empty path for op tags.
                        StoreError::CorruptFrame { offset, detail, .. } => {
                            StoreError::CorruptFrame {
                                path: shown.clone(),
                                offset,
                                detail,
                            }
                        }
                        other => other,
                    })?;
                    records.push(rec);
                    off = next;
                }
                FrameOutcome::Eof => break off as u64,
                FrameOutcome::TornTail { offset } => break offset as u64,
            }
        };
        let file = StoreError::ctx(
            path,
            "open",
            OpenOptions::new().read(true).write(true).open(path),
        )?;
        if valid_len < bytes.len() as u64 {
            // Drop the torn tail so the next append starts on a frame
            // boundary.
            StoreError::ctx(path, "truncate torn tail", file.set_len(valid_len))?;
            StoreError::ctx(path, "fsync", file.sync_all())?;
        }
        Ok((
            Wal {
                path: path.to_path_buf(),
                file,
                len: valid_len,
                poisoned: false,
                durability,
                failpoints,
            },
            records,
        ))
    }

    /// Atomically replaces the log at `path` with a fresh empty one
    /// (tmp-write + rename), used by compaction. Returns the new handle.
    pub fn reset_atomic(
        path: &Path,
        durability: Durability,
        failpoints: Failpoints,
    ) -> Result<Wal, StoreError> {
        let tmp = path.with_extension("bin.tmp");
        {
            let mut f = StoreError::ctx(&tmp, "create", File::create(&tmp))?;
            StoreError::ctx(&tmp, "write header", f.write_all(&header_bytes()))?;
            StoreError::ctx(&tmp, "fsync", f.sync_all())?;
        }
        StoreError::ctx(path, "rename", fs::rename(&tmp, path))?;
        if let Some(dir) = path.parent() {
            crate::snapshot::sync_dir(dir)?;
        }
        let file = StoreError::ctx(
            path,
            "open",
            OpenOptions::new().read(true).write(true).open(path),
        )?;
        Ok(Wal {
            path: path.to_path_buf(),
            file,
            len: header_bytes().len() as u64,
            poisoned: false,
            durability,
            failpoints,
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Length of the valid (acknowledged) prefix in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == header_bytes().len() as u64
    }

    fn poisoned_err(&self) -> StoreError {
        StoreError::Poisoned {
            path: self.path.display().to_string(),
        }
    }

    fn write_at_end(&mut self, bytes: &[u8]) -> Result<(), StoreError> {
        StoreError::ctx(
            &self.path,
            "seek",
            self.file.seek(SeekFrom::Start(self.len)),
        )?;
        StoreError::ctx(&self.path, "write", self.file.write_all(bytes))
    }

    /// Appends one record; returns the pre-append length (pass it to
    /// [`Wal::truncate_to`] to un-log the record if the in-memory apply
    /// fails).
    ///
    /// Crash injection: the four WAL failpoint sites each leave the exact
    /// disk state of a process dying at that instant (see the site docs in
    /// [`inflog_core::failpoints`]); all but the bit-flip poison the handle and
    /// return [`StoreError::FaultInjected`]. The bit-flip site returns `Ok`
    /// with a silently corrupted frame, modelling bad media.
    pub fn append(&mut self, rec: &WalRecord) -> Result<u64, StoreError> {
        if self.poisoned {
            return Err(self.poisoned_err());
        }
        let pre = self.len;
        let payload = rec.encode();
        let frame = frame_bytes(&payload);

        if self.failpoints.fire(SITE_WAL_TORN_WRITE) {
            // Die mid-record: roughly half the frame reaches the file.
            let cut = FRAME_HEADER + payload.len() / 2;
            self.poisoned = true;
            self.write_at_end(&frame[..cut])?;
            let _ = self.file.sync_data();
            return Err(StoreError::FaultInjected {
                site: SITE_WAL_TORN_WRITE.to_string(),
            });
        }
        if self.failpoints.fire(SITE_WAL_TRUNCATED_TAIL) {
            // Die right after the frame header.
            self.poisoned = true;
            self.write_at_end(&frame[..FRAME_HEADER])?;
            let _ = self.file.sync_data();
            return Err(StoreError::FaultInjected {
                site: SITE_WAL_TRUNCATED_TAIL.to_string(),
            });
        }
        if self.failpoints.fire(SITE_WAL_BIT_FLIP) {
            // Bad media: the write "succeeds" but one payload bit is wrong.
            // Flip inside the payload (not the length) so the damage is a
            // checksum failure, not a frame-boundary ambiguity.
            let mut bad = frame.clone();
            let idx = FRAME_HEADER + payload.len() / 2;
            bad[idx] ^= 0x10;
            self.write_at_end(&bad)?;
            if self.durability == Durability::Sync {
                StoreError::ctx(&self.path, "fsync", self.file.sync_data())?;
            }
            self.len += frame.len() as u64;
            return Ok(pre);
        }
        if self.failpoints.fire(SITE_WAL_APPEND_SYNC) {
            // Die between the full write and the fsync: the record is intact
            // in the file but was never acknowledged. Recovery may apply it.
            self.poisoned = true;
            self.write_at_end(&frame)?;
            return Err(StoreError::FaultInjected {
                site: SITE_WAL_APPEND_SYNC.to_string(),
            });
        }

        self.write_at_end(&frame)?;
        if self.durability == Durability::Sync {
            StoreError::ctx(&self.path, "fsync", self.file.sync_data())?;
        }
        self.len += frame.len() as u64;
        Ok(pre)
    }

    /// Truncates the log back to `len` (a value previously returned by
    /// [`Wal::append`]): un-logs a record whose in-memory apply failed, so
    /// the log never runs ahead of acknowledged state. Poisons the handle if
    /// the truncate itself fails.
    pub fn truncate_to(&mut self, len: u64) -> Result<(), StoreError> {
        if self.poisoned {
            return Err(self.poisoned_err());
        }
        if let Err(e) = self.file.set_len(len).and_then(|()| self.file.sync_all()) {
            self.poisoned = true;
            return Err(StoreError::Io {
                path: self.path.display().to_string(),
                op: "truncate",
                message: e.to_string(),
            });
        }
        self.len = len;
        Ok(())
    }

    /// Flushes buffered records to disk.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        StoreError::ctx(&self.path, "fsync", self.file.sync_data())
    }
}
