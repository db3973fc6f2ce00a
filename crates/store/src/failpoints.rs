//! Crash-injection sites for the durable store.
//!
//! This mirrors the evaluation layer's `Failpoints` (crates/eval/src/govern.rs)
//! but owns its own site registry: both layers read the same
//! `INFLOG_FAILPOINT=<site>[:<n>]` variable and each silently ignores the
//! other layer's sites, so one environment setting drives a fault anywhere in
//! the stack.
//!
//! Store sites model the crash windows of the durability protocol:
//!
//! - [`SITE_SNAPSHOT_RENAME`]: the process dies after the snapshot tmp file is
//!   written and fsynced but before the atomic rename — a stray `.tmp` is left
//!   and the previous snapshot must still win.
//! - [`SITE_COMPACT_TRUNCATE`]: the new compaction snapshot has been renamed
//!   into place but the WAL has not yet been reset — replay must skip records
//!   at or below the new snapshot epoch.
//! - [`SITE_WAL_TORN_WRITE`]: an append dies mid-frame, leaving roughly half a
//!   record on disk — a benign torn tail.
//! - [`SITE_WAL_TRUNCATED_TAIL`]: an append dies after only the 8-byte frame
//!   header — also a benign torn tail.
//! - [`SITE_WAL_BIT_FLIP`]: the frame is written "successfully" but one payload
//!   bit is flipped — silent media corruption that checksum verification must
//!   turn into a typed [`CorruptFrame`](crate::StoreError::CorruptFrame).
//! - [`SITE_WAL_APPEND_SYNC`]: the frame is fully written but the process dies
//!   before fsync — the record may or may not survive; recovery must accept
//!   either outcome without diverging from a recompute.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

pub const SITE_SNAPSHOT_RENAME: &str = "store-snapshot-tmp-rename";
pub const SITE_COMPACT_TRUNCATE: &str = "store-compact-truncate";
pub const SITE_WAL_TORN_WRITE: &str = "store-wal-torn-write";
pub const SITE_WAL_TRUNCATED_TAIL: &str = "store-wal-truncated-tail";
pub const SITE_WAL_BIT_FLIP: &str = "store-wal-bit-flip";
pub const SITE_WAL_APPEND_SYNC: &str = "store-wal-append-sync";

/// All registered store failpoint sites, for sweeps and for the evaluation
/// layer's unknown-site warning.
pub const STORE_FAILPOINT_SITES: &[&str] = &[
    SITE_SNAPSHOT_RENAME,
    SITE_COMPACT_TRUNCATE,
    SITE_WAL_TORN_WRITE,
    SITE_WAL_TRUNCATED_TAIL,
    SITE_WAL_BIT_FLIP,
    SITE_WAL_APPEND_SYNC,
];

#[derive(Debug)]
struct Armed {
    site: String,
    /// Fires on exactly the `trigger`-th hit of the site (1-based), once.
    trigger: u64,
    hits: AtomicU64,
}

/// A handle that is either inert or armed at one store site.
///
/// Cloning shares the hit counter, so the same arming observed from several
/// components (store, WAL, snapshot writer) still fires exactly once.
#[derive(Debug, Clone, Default)]
pub struct Failpoints(Option<Arc<Armed>>);

impl Failpoints {
    /// No failpoint armed; every `fire` returns false.
    pub fn none() -> Self {
        Failpoints(None)
    }

    /// Arms `site` to fire on its `trigger`-th hit (1-based).
    ///
    /// Panics if `site` is not a registered store site — tests should fail
    /// loudly on typos rather than silently never fire.
    pub fn armed(site: &str, trigger: u64) -> Self {
        assert!(
            STORE_FAILPOINT_SITES.contains(&site),
            "unknown store failpoint site {site:?} (registered: {STORE_FAILPOINT_SITES:?})"
        );
        assert!(trigger >= 1, "failpoint trigger is 1-based");
        Failpoints(Some(Arc::new(Armed {
            site: site.to_string(),
            trigger,
            hits: AtomicU64::new(0),
        })))
    }

    /// Parses `INFLOG_FAILPOINT` from the environment.
    ///
    /// Sites not in the store registry (for example the evaluation layer's
    /// `round` or `panic`) are ignored without a warning: the layer
    /// that owns them arms them itself, and the eval-side parser owns the
    /// unknown-site diagnostic.
    pub fn from_env() -> Self {
        match std::env::var("INFLOG_FAILPOINT") {
            Ok(raw) => Self::from_env_value(&raw),
            Err(_) => Failpoints::none(),
        }
    }

    /// Parses a `<site>[:<n>]` arming string; non-store sites yield `none()`.
    pub fn from_env_value(raw: &str) -> Self {
        let (site, trigger) = match raw.split_once(':') {
            Some((s, n)) => match n.parse::<u64>() {
                Ok(n) if n >= 1 => (s, n),
                _ => return Failpoints::none(),
            },
            None => (raw, 1),
        };
        if STORE_FAILPOINT_SITES.contains(&site) {
            Failpoints::armed(site, trigger)
        } else {
            Failpoints::none()
        }
    }

    pub fn is_armed(&self) -> bool {
        self.0.is_some()
    }

    /// The armed site name, if any.
    pub fn site(&self) -> Option<&str> {
        self.0.as_deref().map(|a| a.site.as_str())
    }

    /// Records a hit of `site`; returns true exactly when this hit is the
    /// armed trigger (one-shot: later hits return false again).
    pub fn fire(&self, site: &str) -> bool {
        match &self.0 {
            Some(a) if a.site == site => {
                let hit = a.hits.fetch_add(1, Ordering::Relaxed) + 1;
                hit == a.trigger
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_never_fires() {
        let fp = Failpoints::none();
        assert!(!fp.is_armed());
        assert!(!fp.fire(SITE_WAL_TORN_WRITE));
    }

    #[test]
    fn fires_exactly_on_trigger_once() {
        let fp = Failpoints::armed(SITE_WAL_BIT_FLIP, 2);
        assert!(!fp.fire(SITE_WAL_BIT_FLIP)); // hit 1
        assert!(!fp.fire(SITE_WAL_TORN_WRITE)); // different site
        assert!(fp.fire(SITE_WAL_BIT_FLIP)); // hit 2: trigger
        assert!(!fp.fire(SITE_WAL_BIT_FLIP)); // one-shot
    }

    #[test]
    fn clones_share_the_hit_counter() {
        let fp = Failpoints::armed(SITE_WAL_APPEND_SYNC, 2);
        let other = fp.clone();
        assert!(!fp.fire(SITE_WAL_APPEND_SYNC));
        assert!(other.fire(SITE_WAL_APPEND_SYNC));
    }

    #[test]
    fn env_parsing_ignores_foreign_sites() {
        assert!(Failpoints::from_env_value("store-wal-torn-write").is_armed());
        assert!(Failpoints::from_env_value("store-wal-torn-write:3").is_armed());
        // Evaluation-layer site: silently inert here.
        assert!(!Failpoints::from_env_value("round").is_armed());
        assert!(!Failpoints::from_env_value("no-such-site").is_armed());
        assert!(!Failpoints::from_env_value("store-wal-torn-write:0").is_armed());
    }

    #[test]
    #[should_panic(expected = "unknown store failpoint site")]
    fn arming_unknown_site_panics() {
        let _ = Failpoints::armed("typo-site", 1);
    }
}
