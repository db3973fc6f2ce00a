//! File-level tests for the store: atomic snapshot commit, WAL scan/truncate
//! policies, compaction crash windows, and fsck classification.

use inflog_core::failpoints::{
    Failpoints, SITE_COMPACT_TRUNCATE, SITE_SNAPSHOT_RENAME, SITE_WAL_BIT_FLIP,
    SITE_WAL_TORN_WRITE, SITE_WAL_TRUNCATED_TAIL,
};
use inflog_core::{Database, Tuple};
use inflog_store::snapshot::{list_snapshots, load_snapshot, write_snapshot};
use inflog_store::{fsck, SnapshotState, Store, StoreError, StoreOptions, WalOp, WalRecord};
use std::fs;
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn t(ids: &[u32]) -> Tuple {
    Tuple::from_ids(ids)
}

fn sample_state(epoch: u64) -> SnapshotState {
    let mut db = Database::new();
    for name in ["a", "b", "c", "d"] {
        db.universe_mut().intern(name);
    }
    db.insert_named_fact("E", &["b", "c"]).unwrap();
    db.insert_named_fact("E", &["a", "b"]).unwrap();
    SnapshotState { epoch, db }
}

fn rec(epoch: u64, op: WalOp, facts: &[(&str, &[u32])]) -> WalRecord {
    WalRecord {
        epoch,
        op,
        facts: facts
            .iter()
            .map(|(n, ids)| (n.to_string(), t(ids)))
            .collect(),
    }
}

#[test]
fn snapshot_write_load_round_trip() {
    let dir = tmp_dir("snap_round_trip");
    let state = sample_state(7);
    let path = write_snapshot(&dir, &state, &Failpoints::none()).unwrap();
    let back = load_snapshot(&path).unwrap();
    assert_eq!(back, state);
    // Dense order is preserved bit-for-bit.
    assert_eq!(
        back.db.relation("E").unwrap().dense(),
        state.db.relation("E").unwrap().dense()
    );
}

#[test]
fn snapshot_rename_failpoint_leaves_old_world() {
    let dir = tmp_dir("snap_rename_crash");
    let old = sample_state(1);
    write_snapshot(&dir, &old, &Failpoints::none()).unwrap();
    let fp = Failpoints::armed(SITE_SNAPSHOT_RENAME, 1);
    let err = write_snapshot(&dir, &sample_state(2), &fp).unwrap_err();
    assert!(matches!(err, StoreError::FaultInjected { .. }));
    // The tmp file exists; the committed snapshot list still shows only
    // epoch 1, and it loads.
    let snaps = list_snapshots(&dir).unwrap();
    assert_eq!(snaps.iter().map(|(e, _)| *e).collect::<Vec<_>>(), vec![1]);
    assert_eq!(load_snapshot(&snaps[0].1).unwrap().epoch, 1);
    assert!(fs::read_dir(&dir).unwrap().any(|e| e
        .unwrap()
        .path()
        .extension()
        .is_some_and(|x| x == "tmp")));
}

#[test]
fn store_round_trip_with_wal_replay() {
    let dir = tmp_dir("store_round_trip");
    let opts = StoreOptions::default();
    let mut store = Store::create(&dir, &sample_state(0), &opts).unwrap();
    store
        .append(&rec(1, WalOp::Insert, &[("E", &[2, 3])]))
        .unwrap();
    store
        .append(&rec(2, WalOp::Retract, &[("E", &[0, 1]), ("E", &[1, 2])]))
        .unwrap();
    drop(store);

    let (_, state, replay) = Store::open(&dir, &opts).unwrap();
    assert_eq!(state.epoch, 0);
    assert_eq!(replay.len(), 2);
    assert_eq!(replay[0], rec(1, WalOp::Insert, &[("E", &[2, 3])]));
    assert_eq!(
        replay[1],
        rec(2, WalOp::Retract, &[("E", &[0, 1]), ("E", &[1, 2])])
    );
}

#[test]
fn torn_write_is_truncated_on_reopen() {
    for site in [SITE_WAL_TORN_WRITE, SITE_WAL_TRUNCATED_TAIL] {
        let dir = tmp_dir(&format!("torn_{site}"));
        let mut opts = StoreOptions::default();
        let mut store = Store::create(&dir, &sample_state(0), &opts).unwrap();
        store
            .append(&rec(1, WalOp::Insert, &[("E", &[2, 3])]))
            .unwrap();
        opts.failpoints = Failpoints::armed(site, 1);
        let mut store = {
            drop(store);
            let (s, _, _) = Store::open(&dir, &opts).unwrap();
            s
        };
        let err = store
            .append(&rec(2, WalOp::Insert, &[("E", &[3, 0])]))
            .unwrap_err();
        assert!(matches!(err, StoreError::FaultInjected { .. }), "{site}");
        // Poisoned: further appends refuse.
        assert!(matches!(
            store.append(&rec(3, WalOp::Insert, &[("E", &[3, 1])])),
            Err(StoreError::Poisoned { .. })
        ));
        drop(store);

        // fsck sees a benign torn tail, not corruption.
        let report = fsck(&dir).unwrap();
        assert!(report.first_error().is_none(), "{site}");
        assert!(report.wal.as_ref().unwrap().torn_tail.is_some(), "{site}");

        // Recovery truncates the tail and replays only epoch 1.
        let (mut store, state, replay) = Store::open(&dir, &StoreOptions::default()).unwrap();
        assert_eq!(state.epoch, 0);
        assert_eq!(replay.len(), 1, "{site}");
        assert_eq!(replay[0].epoch, 1);
        // The log is usable again.
        store
            .append(&rec(2, WalOp::Insert, &[("E", &[3, 0])]))
            .unwrap();
    }
}

#[test]
fn bit_flip_is_a_typed_corrupt_frame_with_offset() {
    let dir = tmp_dir("bit_flip");
    let mut opts = StoreOptions::default();
    let mut store = Store::create(&dir, &sample_state(0), &opts).unwrap();
    store
        .append(&rec(1, WalOp::Insert, &[("E", &[2, 3])]))
        .unwrap();
    let clean_len = store.wal_len();
    opts.failpoints = Failpoints::armed(SITE_WAL_BIT_FLIP, 1);
    let mut store = {
        drop(store);
        let (s, _, _) = Store::open(&dir, &opts).unwrap();
        s
    };
    // The flip is silent: the append "succeeds".
    store
        .append(&rec(2, WalOp::Insert, &[("E", &[3, 0])]))
        .unwrap();
    // Later appends land after the corrupt frame and are themselves valid.
    store
        .append(&rec(3, WalOp::Insert, &[("E", &[3, 1])]))
        .unwrap();
    drop(store);

    // Recovery refuses with the corrupt frame's offset — never a wrong
    // answer built on a bad record.
    let err = Store::open(&dir, &StoreOptions::default()).unwrap_err();
    match &err {
        StoreError::CorruptFrame { offset, .. } => assert_eq!(*offset, clean_len),
        other => panic!("expected CorruptFrame, got {other:?}"),
    }
    // fsck reports the same first corrupt offset.
    let report = fsck(&dir).unwrap();
    match report.first_error() {
        Some(StoreError::CorruptFrame { offset, .. }) => assert_eq!(*offset, clean_len),
        other => panic!("expected CorruptFrame, got {other:?}"),
    }
}

#[test]
fn out_of_range_snapshot_id_is_a_typed_corrupt_frame() {
    // A snapshot whose frame and CRC are valid but whose last tuple names
    // constant id 4 in a universe of 4 (`a`..`d`): recovery must refuse it
    // at that id's offset, the last 4 bytes of the file.
    let dir = tmp_dir("snap_id_range");
    let mut state = sample_state(0);
    let n = state.db.universe().len() as u32;
    state.db.relation_mut("E").unwrap().insert(t(&[0, n]));
    let path = write_snapshot(&dir, &state, &Failpoints::none()).unwrap();
    let file_len = fs::metadata(&path).unwrap().len();
    let err = Store::open(&dir, &StoreOptions::default()).unwrap_err();
    match &err {
        StoreError::CorruptFrame { offset, detail, .. } => {
            assert_eq!(*offset, file_len - 4, "{detail}");
            assert!(detail.contains("out of range"), "{detail}");
        }
        other => panic!("expected CorruptFrame, got {other:?}"),
    }
}

#[test]
fn compaction_resets_wal_and_prunes_snapshots() {
    let dir = tmp_dir("compact");
    let opts = StoreOptions::default();
    let mut store = Store::create(&dir, &sample_state(0), &opts).unwrap();
    for e in 1..=3 {
        store
            .append(&rec(e, WalOp::Insert, &[("E", &[e as u32, 0])]))
            .unwrap();
    }
    store.compact(&sample_state(3)).unwrap();
    // WAL is empty; replay from disk yields nothing.
    drop(store);
    let (mut store, state, replay) = Store::open(&dir, &opts).unwrap();
    assert_eq!(state.epoch, 3);
    assert!(replay.is_empty());
    // Another round of churn + compaction prunes down to two snapshots.
    store
        .append(&rec(4, WalOp::Insert, &[("E", &[0, 3])]))
        .unwrap();
    store.compact(&sample_state(4)).unwrap();
    let snaps = list_snapshots(&dir).unwrap();
    assert_eq!(
        snaps.iter().map(|(e, _)| *e).collect::<Vec<_>>(),
        vec![3, 4]
    );
}

#[test]
fn compact_truncate_failpoint_keeps_old_wal_records_skippable() {
    let dir = tmp_dir("compact_crash");
    let mut opts = StoreOptions::default();
    let mut store = Store::create(&dir, &sample_state(0), &opts).unwrap();
    for e in 1..=2 {
        store
            .append(&rec(e, WalOp::Insert, &[("E", &[e as u32, 0])]))
            .unwrap();
    }
    opts.failpoints = Failpoints::armed(SITE_COMPACT_TRUNCATE, 1);
    let mut store = {
        drop(store);
        let (s, _, _) = Store::open(&dir, &opts).unwrap();
        s
    };
    let err = store.compact(&sample_state(2)).unwrap_err();
    assert!(matches!(err, StoreError::FaultInjected { .. }));
    drop(store);

    // The new snapshot is in place; the stale WAL records (epochs 1..=2) are
    // at or below its epoch and are skipped, not replayed.
    let (_, state, replay) = Store::open(&dir, &StoreOptions::default()).unwrap();
    assert_eq!(state.epoch, 2);
    assert!(replay.is_empty());
    let report = fsck(&dir).unwrap();
    assert!(report.first_error().is_none());
}

#[test]
fn epoch_gap_is_refused() {
    let dir = tmp_dir("epoch_gap");
    let opts = StoreOptions::default();
    let mut store = Store::create(&dir, &sample_state(0), &opts).unwrap();
    store
        .append(&rec(1, WalOp::Insert, &[("E", &[2, 3])]))
        .unwrap();
    // Simulate a buggy writer: epoch 3 follows epoch 1.
    store
        .append(&rec(3, WalOp::Insert, &[("E", &[3, 0])]))
        .unwrap();
    drop(store);
    let err = Store::open(&dir, &opts).unwrap_err();
    assert!(
        matches!(
            &err,
            StoreError::MissingEpochs {
                expected: 2,
                found: 3,
                ..
            }
        ),
        "{err:?}"
    );
}

#[test]
fn fallback_to_previous_snapshot_detects_missing_epochs() {
    // If the newest snapshot is destroyed after a compaction reset the WAL,
    // falling back to the previous snapshot must NOT silently lose the
    // updates that only the newest snapshot contained.
    let dir = tmp_dir("fallback_gap");
    let opts = StoreOptions::default();
    let mut store = Store::create(&dir, &sample_state(0), &opts).unwrap();
    for e in 1..=2 {
        store
            .append(&rec(e, WalOp::Insert, &[("E", &[e as u32, 0])]))
            .unwrap();
    }
    store.compact(&sample_state(2)).unwrap();
    store
        .append(&rec(3, WalOp::Insert, &[("E", &[0, 3])]))
        .unwrap();
    drop(store);

    // Corrupt the newest snapshot (epoch 2) in place.
    let snaps = list_snapshots(&dir).unwrap();
    let newest = snaps.last().unwrap().1.clone();
    let mut bytes = fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    fs::write(&newest, &bytes).unwrap();

    // Recovery falls back to snapshot 0, but the WAL only holds epoch 3:
    // epochs 1..=2 are gone with the corrupt snapshot. Refuse loudly.
    let err = Store::open(&dir, &opts).unwrap_err();
    assert!(
        matches!(
            &err,
            StoreError::MissingEpochs {
                expected: 1,
                found: 3,
                ..
            }
        ),
        "{err:?}"
    );
    // fsck flags the snapshot too.
    let report = fsck(&dir).unwrap();
    assert!(report.first_error().is_some());
}

#[test]
fn fsck_clean_on_healthy_store() {
    let dir = tmp_dir("fsck_clean");
    let opts = StoreOptions::default();
    let mut store = Store::create(&dir, &sample_state(0), &opts).unwrap();
    store
        .append(&rec(1, WalOp::Insert, &[("E", &[2, 3])]))
        .unwrap();
    drop(store);
    let report = fsck(&dir).unwrap();
    assert!(report.all_clean(), "{report:?}");
    let wal = report.wal.unwrap();
    assert_eq!(wal.records, 1);
    assert_eq!(wal.first_epoch, Some(1));
    assert!(wal.torn_tail.is_none());
}

#[test]
fn undo_append_restores_wal_length() {
    let dir = tmp_dir("undo_append");
    let opts = StoreOptions::default();
    let mut store = Store::create(&dir, &sample_state(0), &opts).unwrap();
    store
        .append(&rec(1, WalOp::Insert, &[("E", &[2, 3])]))
        .unwrap();
    let pre = store
        .append(&rec(2, WalOp::Insert, &[("E", &[3, 0])]))
        .unwrap();
    store.undo_append(pre).unwrap();
    assert_eq!(store.wal_len(), pre);
    drop(store);
    let (_, _, replay) = Store::open(&dir, &opts).unwrap();
    assert_eq!(replay.len(), 1);
    assert_eq!(replay[0].epoch, 1);
}
