//! Offline store checker and WAL repairer.
//!
//! ```text
//! cargo run -p inflog-store --bin store_fsck -- [--truncate] <store-dir>
//! ```
//!
//! Walks every snapshot and WAL frame in the directory, verifies checksums
//! and epoch monotonicity/contiguity, and prints the first corrupt offset.
//! With `--truncate`, additionally cuts the WAL back to its last
//! fully-valid record when the damage is confined to the tail — the only
//! kind of damage truncation can fix — and re-checks.
//!
//! Exit status: 0 if the directory recovers cleanly (or was repaired so it
//! does), 1 if not (including unrepairable damage under `--truncate`),
//! 2 on usage errors.

use inflog_store::{fsck, truncate_repair, StoreError, TruncateOutcome};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (truncate, dir) = match args.as_slice() {
        [d] => (false, Path::new(d)),
        [flag, d] if flag == "--truncate" => (true, Path::new(d)),
        [d, flag] if flag == "--truncate" => (true, Path::new(d)),
        _ => {
            eprintln!("usage: store_fsck [--truncate] <store-dir>");
            return ExitCode::from(2);
        }
    };

    if truncate {
        match truncate_repair(dir) {
            Ok(TruncateOutcome::Clean) => {
                println!("truncate: nothing to repair");
            }
            Ok(TruncateOutcome::Truncated {
                at,
                dropped_bytes,
                kept_records,
                kept_last_epoch,
            }) => {
                let kept = match kept_last_epoch {
                    Some(e) => format!("{kept_records} record(s), last epoch {e}"),
                    None => "no records".to_string(),
                };
                println!(
                    "truncate: cut at offset {at} ({dropped_bytes} byte(s) dropped), kept {kept}"
                );
            }
            Ok(TruncateOutcome::Unrepairable { reason }) => {
                println!("truncate: UNREPAIRABLE — {reason}");
                return ExitCode::from(1);
            }
            Err(e) => {
                eprintln!("store_fsck: {e}");
                return ExitCode::from(1);
            }
        }
    }

    let report = match fsck(dir) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("store_fsck: {e}");
            return ExitCode::from(1);
        }
    };

    for s in &report.snapshots {
        match &s.result {
            Ok(facts) => println!(
                "snapshot {} (epoch {}): ok, {facts} EDB facts",
                s.path.display(),
                s.name_epoch
            ),
            Err(e) => println!(
                "snapshot {} (epoch {}): {e}",
                s.path.display(),
                s.name_epoch
            ),
        }
    }
    match &report.wal {
        Some(w) => {
            let range = match (w.first_epoch, w.last_epoch) {
                (Some(a), Some(b)) => format!("epochs {a}..={b}"),
                _ => "no epochs".to_string(),
            };
            print!("wal {}: {} record(s), {range}", w.path.display(), w.records);
            if let Some(off) = w.torn_tail {
                print!(", torn tail at offset {off} (benign: truncated on recovery)");
            }
            match &w.error {
                Some(e) => println!(", ERROR: {e}"),
                None => println!(", ok"),
            }
        }
        None => println!("wal: missing (treated as empty on recovery)"),
    }
    if let Some(e) = &report.continuity {
        println!("continuity: ERROR: {e}");
    }

    match report.first_error() {
        None => {
            if report.all_clean() {
                println!("fsck: clean");
            } else {
                println!("fsck: recoverable (an older snapshot is damaged but unused)");
            }
            ExitCode::SUCCESS
        }
        Some(e) => {
            if let StoreError::CorruptFrame { path, offset, .. } = e {
                println!("fsck: FAILED — first corrupt offset: {offset} in {path}");
            } else {
                println!("fsck: FAILED — {e}");
            }
            ExitCode::from(1)
        }
    }
}
