//! Fault injection: the one registry of failpoint sites for every layer of
//! the stack, and the one handle that arms them.
//!
//! A [`Failpoints`] value is either inert or armed at one registered site to
//! fire on that site's `n`-th hit (1-based), once. Clones share the hit
//! counter, so one arming seen by several components (the evaluator, the
//! store, the server) still fires exactly once, and a retried operation runs
//! clean. Each layer fires only its own sites and ignores the rest, so one
//! handle carries an arming anywhere in the stack.
//!
//! The test harness arms a site in code ([`Failpoints::armed`]) or through
//! `INFLOG_FAILPOINT=<site>[:<n>]` ([`Failpoints::from_env_value`]). Sites are
//! registered per layer: [`EVAL_SITES`], [`STORE_SITES`] (all `store-*`) and
//! [`SERVE_SITES`] (all `serve-*`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Evaluation: the top of every semi-naive round (including each engine's
/// first full application).
pub const SITE_ROUND: &str = "round";
/// Evaluation: index preparation/extension at the start of a Θ application.
pub const SITE_INDEX_EXTEND: &str = "index-extend";
/// Evaluation: a proof round — each prove/doom round of the retract
/// routine (the first before anything is doomed), which a materialized
/// repair runs per stratum and the well-founded engine per alternation of
/// a negative-cycle component.
pub const SITE_PROOF_ROUND: &str = "proof-round";
/// Evaluation: a proof search — each batch of damaged tuples the retract
/// routine checks for a proof (once per proof round with damage left).
pub const SITE_PROOF_SEARCH: &str = "proof-search";
/// Evaluation: a genuine `panic!` at a round boundary instead of a typed
/// error, exercising the `catch_unwind` containment of updates.
pub const SITE_PANIC: &str = "panic";

/// Store: the process dies after the snapshot tmp file is written and
/// fsynced but before the rename — the previous snapshot must still win.
pub const SITE_SNAPSHOT_RENAME: &str = "store-snapshot-tmp-rename";
/// Store: the compaction snapshot is in place but the WAL is not yet reset —
/// replay must skip records at or below the new snapshot epoch.
pub const SITE_COMPACT_TRUNCATE: &str = "store-compact-truncate";
/// Store: an append dies mid-frame, leaving about half a record (a torn
/// tail).
pub const SITE_WAL_TORN_WRITE: &str = "store-wal-torn-write";
/// Store: an append dies after only the frame header (a torn tail).
pub const SITE_WAL_TRUNCATED_TAIL: &str = "store-wal-truncated-tail";
/// Store: the frame is written "successfully" with one payload bit flipped —
/// recovery must refuse it with a typed corrupt-frame error.
pub const SITE_WAL_BIT_FLIP: &str = "store-wal-bit-flip";
/// Store: the frame is fully written but the process dies before fsync — the
/// record may or may not survive.
pub const SITE_WAL_APPEND_SYNC: &str = "store-wal-append-sync";

/// Serving: the writer dies after the WAL record is durable and applied but
/// before the epoch swap — recovery may land one epoch past the last ack.
pub const SITE_EPOCH_PUBLISH: &str = "serve-epoch-publish";
/// Serving: write admission behaves as if the writer queue were full — a
/// typed shed, never a hang.
pub const SITE_QUEUE_FULL: &str = "serve-queue-full";
/// Serving: the connection drops mid-reply, after the epoch header.
pub const SITE_REPLY_DROP: &str = "serve-reply-drop";
/// Serving: the writer dies before logging the batch — recovery restores
/// exactly the last acked epoch.
pub const SITE_WRITER_CRASH: &str = "serve-writer-crash";

/// The evaluation layer's sites.
pub const EVAL_SITES: &[&str] = &[
    SITE_ROUND,
    SITE_INDEX_EXTEND,
    SITE_PROOF_ROUND,
    SITE_PROOF_SEARCH,
    SITE_PANIC,
];
/// The durable store's sites.
pub const STORE_SITES: &[&str] = &[
    SITE_SNAPSHOT_RENAME,
    SITE_COMPACT_TRUNCATE,
    SITE_WAL_TORN_WRITE,
    SITE_WAL_TRUNCATED_TAIL,
    SITE_WAL_BIT_FLIP,
    SITE_WAL_APPEND_SYNC,
];
/// The serving layer's sites.
pub const SERVE_SITES: &[&str] = &[
    SITE_EPOCH_PUBLISH,
    SITE_QUEUE_FULL,
    SITE_REPLY_DROP,
    SITE_WRITER_CRASH,
];

/// Every registered site in registry order: evaluation, store, serving.
pub fn sites() -> impl Iterator<Item = &'static str> {
    [EVAL_SITES, STORE_SITES, SERVE_SITES]
        .into_iter()
        .flatten()
        .copied()
}

#[derive(Debug)]
struct Armed {
    site: &'static str,
    trigger: u64,
    hits: AtomicU64,
}

/// An inert or armed failpoint handle; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct Failpoints(Option<Arc<Armed>>);

impl Failpoints {
    /// No failpoint armed (the default): every `fire` returns false.
    pub fn none() -> Self {
        Failpoints(None)
    }

    /// Arms `site` to fire on its `trigger`-th hit (1-based).
    ///
    /// # Panics
    /// On an unregistered site or a zero trigger: an arming that can never
    /// fire would silently test nothing.
    pub fn armed(site: &str, trigger: u64) -> Self {
        let Some(site) = sites().find(|s| *s == site) else {
            panic!(
                "unknown failpoint site {site:?} (registered: {:?})",
                sites().collect::<Vec<_>>()
            );
        };
        assert!(trigger >= 1, "failpoint trigger is 1-based, got {site}:0");
        Failpoints(Some(Arc::new(Armed {
            site,
            trigger,
            hits: AtomicU64::new(0),
        })))
    }

    /// Parses the `INFLOG_FAILPOINT` value `<site>[:<n>]`. Site and `n` are
    /// trimmed; `n` defaults to 1 and must be an integer ≥ 1. Empty means
    /// none; anything else that is not a registered site with a valid `n`
    /// warns on stderr and arms nothing.
    pub fn from_env_value(raw: &str) -> Self {
        let value = raw.trim();
        if value.is_empty() {
            return Failpoints::none();
        }
        let (site, n) = value.split_once(':').unwrap_or((value, "1"));
        let site = sites().find(|s| *s == site.trim());
        match (site, n.trim().parse::<u64>()) {
            (Some(site), Ok(n)) if n >= 1 => Failpoints::armed(site, n),
            _ => {
                eprintln!(
                    "warning: ignoring INFLOG_FAILPOINT={raw:?}: expected <site>[:<n>] \
                     with n >= 1 and a registered site: {:?}",
                    sites().collect::<Vec<_>>()
                );
                Failpoints::none()
            }
        }
    }

    /// Whether any site is armed.
    pub fn is_armed(&self) -> bool {
        self.0.is_some()
    }

    /// The armed site, if any.
    pub fn site(&self) -> Option<&'static str> {
        self.0.as_deref().map(|a| a.site)
    }

    /// The armed 1-based trigger, if any.
    pub fn trigger(&self) -> Option<u64> {
        self.0.as_deref().map(|a| a.trigger)
    }

    /// Records a hit at `site`; returns true exactly when this hit is the
    /// armed site's trigger-th (one-shot: later hits return false again).
    /// Unarmed, this is one `Option` check.
    #[inline]
    pub fn fire(&self, site: &str) -> bool {
        let Some(armed) = &self.0 else { return false };
        armed.site == site && armed.hits.fetch_add(1, Ordering::Relaxed) + 1 == armed.trigger
    }
}

/// Failpoints compare by identity (or both unarmed), keeping the derived
/// equality of the option structs that carry them meaningful.
impl PartialEq for Failpoints {
    fn eq(&self, other: &Self) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl Eq for Failpoints {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_on_exactly_the_nth_hit_once_and_clones_share_the_count() {
        let fp = Failpoints::armed(SITE_WAL_BIT_FLIP, 3);
        let other = fp.clone();
        assert!(!fp.fire(SITE_WAL_BIT_FLIP));
        assert!(!fp.fire(SITE_ROUND), "other sites never fire");
        assert!(!other.fire(SITE_WAL_BIT_FLIP));
        assert!(fp.fire(SITE_WAL_BIT_FLIP), "third hit is the trigger");
        assert!(!other.fire(SITE_WAL_BIT_FLIP), "one-shot");
        assert!(!Failpoints::none().fire(SITE_WAL_BIT_FLIP));
        // Equality is identity.
        assert_eq!(fp, other);
        assert_ne!(fp, Failpoints::armed(SITE_WAL_BIT_FLIP, 3));
        assert_eq!(Failpoints::none(), Failpoints::default());
    }

    #[test]
    #[should_panic(expected = "unknown failpoint site")]
    fn arming_an_unknown_site_panics() {
        let _ = Failpoints::armed("typo-site", 1);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn arming_at_zero_panics() {
        let _ = Failpoints::armed(SITE_ROUND, 0);
    }

    #[test]
    fn env_value_has_one_rule_for_every_layer() {
        let cases: &[(&str, Option<(&str, u64)>)] = &[
            (" store-wal-bit-flip", Some((SITE_WAL_BIT_FLIP, 1))),
            ("store-wal-bit-flip ", Some((SITE_WAL_BIT_FLIP, 1))),
            ("store-wal-bit-flip : 2", Some((SITE_WAL_BIT_FLIP, 2))),
            ("store-wal-bit-flip:0", None),
            ("round:0", None),
            ("", None),
            ("round:x", None),
            ("no-such-site", None),
        ];
        for &(raw, want) in cases {
            let fp = Failpoints::from_env_value(raw);
            let got = fp.site().zip(fp.trigger());
            assert_eq!(got, want, "INFLOG_FAILPOINT={raw:?}");
        }
    }

    #[test]
    fn registry_supports_dispatch_by_prefix() {
        let all: Vec<_> = sites().collect();
        let unique: std::collections::BTreeSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len(), "duplicate site name");
        assert_eq!(
            [EVAL_SITES.len(), STORE_SITES.len(), SERVE_SITES.len()],
            [5, 6, 4]
        );
        let layer = |s: &str| (s.starts_with("store-"), s.starts_with("serve-"));
        assert!(EVAL_SITES.iter().all(|s| layer(s) == (false, false)));
        assert!(STORE_SITES.iter().all(|s| layer(s) == (true, false)));
        assert!(SERVE_SITES.iter().all(|s| layer(s) == (false, true)));
    }
}
