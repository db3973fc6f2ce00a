//! Committed on-disk fixtures: a healthy store directory and a byte-flipped
//! copy of it, checked into `tests/fixtures/`. They pin the binary format
//! (a change that can no longer read them is a breaking format change) and
//! give CI a stable target for the `store_fsck` binary: the corrupt fixture
//! must be reported with its exact first corrupt offset.
//!
//! The snapshot is format version 2: the epoch and the database, no model.
//! The WAL has its own version (1), unchanged by the snapshot's, so the
//! corrupt WAL's first bad frame stays at offset 12.
//!
//! Regenerate after a deliberate format-version bump with
//! `INFLOG_REGEN_FIXTURES=1 cargo test -p inflog-store --test fixtures`.
//! Everything the store serializes is deterministic (names, arities, dense
//! tuple order — never hashes or ids), so regeneration is reproducible.

use inflog_core::{Database, Tuple};
use inflog_store::encode::Reader;
use inflog_store::frame::{frame_bytes, FRAME_HEADER};
use inflog_store::snapshot::{load_snapshot, FORMAT_VERSION};
use inflog_store::wal::WAL_FILE;
use inflog_store::{
    fsck, truncate_repair, SnapshotState, Store, StoreError, StoreOptions, TruncateOutcome, WalOp,
    WalRecord,
};
use std::fs;
use std::path::{Path, PathBuf};

/// WAL layout: 8-byte magic + 4-byte format version, then frames. The flip
/// lands a few bytes into the first record's payload, so fsck must report
/// the first frame — at the end of the 12-byte header.
const WAL_HEADER: u64 = 12;
const FLIP_AT: u64 = WAL_HEADER + 8 + 4;

fn fixture_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_state() -> SnapshotState {
    let mut db = Database::new();
    for name in ["a", "b", "c", "d"] {
        db.universe_mut().intern(name);
    }
    db.insert_named_fact("E", &["a", "b"]).unwrap();
    db.insert_named_fact("E", &["b", "c"]).unwrap();
    db.insert_named_fact("E", &["c", "d"]).unwrap();
    SnapshotState { epoch: 0, db }
}

fn regenerate(root: &Path) {
    let valid = root.join("valid");
    let _ = fs::remove_dir_all(&valid);
    let mut store = Store::create(&valid, &fixture_state(), &StoreOptions::default()).unwrap();
    store
        .append(&WalRecord {
            epoch: 1,
            op: WalOp::Insert,
            facts: vec![("E".to_string(), Tuple::from_ids(&[0, 2]))],
        })
        .unwrap();
    store
        .append(&WalRecord {
            epoch: 2,
            op: WalOp::Retract,
            facts: vec![("E".to_string(), Tuple::from_ids(&[1, 2]))],
        })
        .unwrap();
    drop(store);

    let corrupt = root.join("corrupt");
    let _ = fs::remove_dir_all(&corrupt);
    fs::create_dir_all(&corrupt).unwrap();
    for entry in fs::read_dir(&valid).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), corrupt.join(entry.file_name())).unwrap();
    }
    let wal = corrupt.join(WAL_FILE);
    let mut bytes = fs::read(&wal).unwrap();
    bytes[FLIP_AT as usize] ^= 0x04;
    fs::write(&wal, bytes).unwrap();
}

#[test]
fn committed_fixtures_validate() {
    let root = fixture_root();
    if std::env::var("INFLOG_REGEN_FIXTURES").is_ok() {
        regenerate(&root);
    }

    // The healthy fixture loads end to end: fsck clean, snapshot + both WAL
    // records readable, content as written.
    let valid = root.join("valid");
    let report = fsck(&valid).unwrap();
    assert!(report.all_clean(), "valid fixture not clean: {report:?}");
    let (_store, state, records) = Store::open(&valid, &StoreOptions::default()).unwrap();
    assert_eq!(state, fixture_state(), "snapshot content drifted");
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].epoch, 1);
    assert_eq!(records[0].op, WalOp::Insert);
    assert_eq!(records[1].epoch, 2);
    assert_eq!(records[1].op, WalOp::Retract);

    // The corrupted copy is refused — by recovery and by fsck — with the
    // first frame's exact offset.
    let corrupt = root.join("corrupt");
    let err = Store::open(&corrupt, &StoreOptions::default()).unwrap_err();
    assert!(
        matches!(&err, StoreError::CorruptFrame { offset, .. } if *offset == WAL_HEADER),
        "expected CorruptFrame at {WAL_HEADER}, got {err:?}"
    );
    let report = fsck(&corrupt).unwrap();
    match report.first_error() {
        Some(StoreError::CorruptFrame { offset, .. }) => assert_eq!(*offset, WAL_HEADER),
        other => panic!("fsck on corrupt fixture saw {other:?}"),
    }
}

/// The valid fixture's snapshot file.
fn fixture_snapshot() -> PathBuf {
    fixture_root().join("valid/snapshot-0000000000000000.bin")
}

/// A snapshot whose header says version 1 — the format that also stored
/// the model — is refused by its header, never decoded as version 2.
#[test]
fn version_1_snapshot_is_refused() {
    assert_eq!(FORMAT_VERSION, 2);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("snapshot_v1");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let path = dir.join("snapshot-0000000000000000.bin");
    let mut bytes = fs::read(fixture_snapshot()).unwrap();
    bytes[8..12].copy_from_slice(&1u32.to_le_bytes());
    fs::write(&path, bytes).unwrap();
    match load_snapshot(&path) {
        Err(StoreError::BadHeader { detail, .. }) => {
            assert!(detail.contains("unsupported version 1"), "{detail}")
        }
        other => panic!("expected BadHeader, got {other:?}"),
    }
}

/// Every truncation and every single-bit flip of the valid snapshot's
/// payload, decoded with the checksum bypassed: each gives `Ok` or a
/// `CorruptFrame` whose offset lies in the file (at most its end, where a
/// read ran out), and none panics.
#[test]
fn snapshot_decoder_survives_truncations_and_bit_flips() {
    let path = fixture_snapshot();
    let file = fs::read(&path).unwrap();
    let shown = path.display().to_string();
    let base = 12 + FRAME_HEADER;
    let payload = &file[base..];
    let check = |bytes: &[u8], what: &str| match SnapshotState::decode(Reader::new(
        bytes,
        base as u64,
        &shown,
    )) {
        Ok(_) => {}
        Err(StoreError::CorruptFrame { offset, .. }) => assert!(
            offset >= base as u64 && offset <= file.len() as u64,
            "{what}: offset {offset} outside the file"
        ),
        Err(other) => panic!("{what}: expected CorruptFrame, got {other:?}"),
    };
    for len in 0..payload.len() {
        check(&payload[..len], &format!("truncated to {len}"));
    }
    let mut flipped = payload.to_vec();
    for bit in 0..payload.len() * 8 {
        flipped[bit / 8] ^= 1 << (bit % 8);
        check(&flipped, &format!("bit {bit} flipped"));
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
}

/// Copies a committed fixture into a scratch directory (fixtures are never
/// modified in place — `--truncate` is destructive).
fn scratch_copy(fixture: &str, name: &str) -> PathBuf {
    let dst = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dst);
    fs::create_dir_all(&dst).unwrap();
    for entry in fs::read_dir(fixture_root().join(fixture)).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
    dst
}

/// fsck and recovery both refuse `dir`, with the same first error, which
/// is returned.
fn fsck_and_recovery_agree(dir: &Path) -> StoreError {
    let report = fsck(dir).unwrap();
    let found = report.first_error().cloned().expect("fsck passed the log");
    let err = Store::open(dir, &StoreOptions::default()).unwrap_err();
    assert_eq!(found, err, "fsck and recovery disagree");
    found
}

#[test]
fn fsck_refuses_a_wal_version_recovery_refuses() {
    let dir = scratch_copy("valid", "wal_version");
    let wal = dir.join(WAL_FILE);
    let mut bytes = fs::read(&wal).unwrap();
    bytes[8] = 2;
    fs::write(&wal, bytes).unwrap();
    match fsck_and_recovery_agree(&dir) {
        StoreError::BadHeader { detail, .. } => assert_eq!(detail, "unsupported WAL version"),
        other => panic!("expected BadHeader, got {other:?}"),
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_store_fsck"))
        .arg(&dir)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{out:?}");
}

#[test]
fn fsck_names_the_wal_on_an_unknown_op_tag() {
    // One checksum-valid frame whose op tag (after the u64 epoch) is 9.
    let dir = scratch_copy("valid", "wal_op_tag");
    let wal = dir.join(WAL_FILE);
    let mut payload = WalRecord {
        epoch: 1,
        op: WalOp::Insert,
        facts: vec![("E".to_string(), Tuple::from_ids(&[0, 2]))],
    }
    .encode();
    payload[8] = 9;
    let mut bytes = fs::read(&wal).unwrap()[..WAL_HEADER as usize].to_vec();
    bytes.extend_from_slice(&frame_bytes(&payload));
    fs::write(&wal, bytes).unwrap();
    match fsck_and_recovery_agree(&dir) {
        StoreError::CorruptFrame {
            path,
            offset,
            detail,
        } => {
            assert_eq!(path, wal.display().to_string());
            assert_eq!(offset, WAL_HEADER + FRAME_HEADER as u64 + 8);
            assert_eq!(detail, "unknown WAL op tag 9");
        }
        other => panic!("expected CorruptFrame, got {other:?}"),
    }
}

#[test]
fn truncate_repair_recovers_the_corrupt_fixture() {
    // The corrupt fixture's flip lands in the FIRST record: repair keeps
    // only the 12-byte header, and the store recovers to the bare snapshot.
    let dir = scratch_copy("corrupt", "truncate_corrupt");
    match truncate_repair(&dir).unwrap() {
        TruncateOutcome::Truncated {
            at,
            dropped_bytes,
            kept_records,
            kept_last_epoch,
        } => {
            assert_eq!(at, WAL_HEADER);
            assert!(dropped_bytes > 0);
            assert_eq!(kept_records, 0);
            assert_eq!(kept_last_epoch, None);
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
    assert!(fsck(&dir).unwrap().all_clean(), "repair did not converge");
    let (_store, state, records) = Store::open(&dir, &StoreOptions::default()).unwrap();
    assert_eq!(state, fixture_state(), "repair touched the snapshot");
    assert!(records.is_empty(), "phantom records after truncation");
    // Idempotent: a second pass finds nothing to do.
    assert!(matches!(
        truncate_repair(&dir).unwrap(),
        TruncateOutcome::Clean
    ));
}

#[test]
fn truncate_repair_preserves_a_valid_prefix() {
    // Flip a byte in the SECOND record instead: the first must survive.
    let dir = scratch_copy("valid", "truncate_prefix");
    let report = fsck(&dir).unwrap();
    let wal = report.wal.as_ref().unwrap();
    assert_eq!(wal.records, 2);
    let first_record_end = {
        // Re-derive the cut point by scanning: corrupt the byte right after
        // the first record's frame header.
        let wal_path = dir.join(WAL_FILE);
        let mut bytes = fs::read(&wal_path).unwrap();
        let target = wal.valid_len as usize - 8; // inside the final record
        bytes[target] ^= 0xff;
        fs::write(&wal_path, bytes).unwrap();
        fsck(&dir).unwrap().wal.unwrap().valid_len
    };
    assert!(first_record_end > WAL_HEADER);
    match truncate_repair(&dir).unwrap() {
        TruncateOutcome::Truncated {
            at,
            kept_records,
            kept_last_epoch,
            ..
        } => {
            assert_eq!(at, first_record_end);
            assert_eq!(kept_records, 1);
            assert_eq!(kept_last_epoch, Some(1));
        }
        other => panic!("expected Truncated, got {other:?}"),
    }
    let (_store, state, records) = Store::open(&dir, &StoreOptions::default()).unwrap();
    assert_eq!(state, fixture_state());
    assert_eq!(records.len(), 1, "the valid first record must survive");
    assert_eq!(records[0].epoch, 1);
    assert_eq!(records[0].op, WalOp::Insert);
}

#[test]
fn truncate_repair_refuses_snapshot_damage() {
    // Corrupt the snapshot, not the WAL: truncation cannot help and must
    // say so without touching anything.
    let dir = scratch_copy("valid", "truncate_snapshot_damage");
    let snap = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.file_name().unwrap() != WAL_FILE)
        .unwrap();
    let mut bytes = fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    fs::write(&snap, bytes).unwrap();
    let wal_before = fs::read(dir.join(WAL_FILE)).unwrap();
    match truncate_repair(&dir).unwrap() {
        TruncateOutcome::Unrepairable { reason } => {
            assert!(reason.contains("snapshot"), "{reason}");
        }
        other => panic!("expected Unrepairable, got {other:?}"),
    }
    assert_eq!(
        fs::read(dir.join(WAL_FILE)).unwrap(),
        wal_before,
        "an unrepairable pass must leave the WAL untouched"
    );
}

/// The CLI contract: exit 0 after a successful repair (re-checked clean),
/// 1 on unrepairable damage, 2 on usage errors.
#[test]
fn store_fsck_truncate_exit_codes() {
    let exe = env!("CARGO_BIN_EXE_store_fsck");
    let run =
        |args: &[&std::ffi::OsStr]| std::process::Command::new(exe).args(args).output().unwrap();
    // Corrupt fixture copy: fsck alone fails (1)...
    let dir = scratch_copy("corrupt", "truncate_cli");
    let out = run(&[dir.as_os_str()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    // ...--truncate repairs it (0)...
    let out = run(&["--truncate".as_ref(), dir.as_os_str()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stdout).contains("truncate: cut at offset 12"),
        "{out:?}"
    );
    // ...and the repaired directory now passes a plain check (0).
    let out = run(&[dir.as_os_str()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");

    // Snapshot damage is unrepairable (1).
    let dir = scratch_copy("valid", "truncate_cli_unrepairable");
    let snap = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.file_name().unwrap() != WAL_FILE)
        .unwrap();
    let mut bytes = fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    fs::write(&snap, bytes).unwrap();
    let out = run(&["--truncate".as_ref(), dir.as_os_str()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    // Usage errors (2).
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = run(&["--truncate".as_ref()]);
    // A single arg named --truncate parses as a directory; missing dir
    // fails at fsck time with 1 — both non-zero is the contract here.
    assert_ne!(out.status.code(), Some(0), "{out:?}");
    let out = run(&["a".as_ref(), "b".as_ref(), "c".as_ref()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}
