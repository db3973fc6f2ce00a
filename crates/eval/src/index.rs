//! Persistent, incrementally maintained hash-join indexes.
//!
//! The executor's keyed [`Scan`](crate::plan::Step::Scan)s probe hash
//! indexes (key projection ↦ positions in the relation's dense storage).
//! Rebuilding those indexes on every Θ application would dominate the
//! evaluation cost, and fixpoint iteration only ever *grows* relations — so
//! indexes live here, in an [`IndexSet`] owned by the evaluation context
//! (and one owned by each published [`Epoch`](crate::Epoch), for reads),
//! and are maintained incrementally:
//!
//! * each index records the dense-prefix watermark `upto` it has consumed;
//!   [`Relation::dense`]`()[upto..]` is exactly the set of tuples added
//!   since (the per-round delta), so catching up is a linear walk of the
//!   new suffix;
//! * indexes are keyed by [`Relation::id`], which is stable under
//!   append-only growth and refreshed by clones and removals — a stale id
//!   simply misses and the index is rebuilt, never served incorrectly;
//! * relations that *shrink* stay indexed through two paths: a rollback to
//!   a watermark ([`Relation::truncate`]) keeps the id and the dense
//!   prefix, so the index detects it via [`Relation::shrink_epoch`] and
//!   drops only the postings past the cut;
//!   and a tracked single-tuple removal ([`Relation::remove_tracked`] — how
//!   the incremental well-founded engine deletes the few tuples that leave
//!   its decreasing side each alternation) has its two affected postings
//!   patched in place by [`IndexSet::remove_patched`];
//! * postings are `u32` positions into the dense storage, so probing
//!   returns a borrowed `&[u32]` and the executor reads tuples in place —
//!   no tuple collection is cloned on the probe path.
//!
//! Entries untouched for several Θ applications are evicted once the set
//! grows past a watermark, bounding memory across long iterations that
//! allocate fresh relations each round.
//!
//! Both owners keep their set in a `SharedIndexes`: readers build
//! indexes under its lock, and a reader that panicked mid-build poisons
//! it, so every access drops a poisoned set before trusting it.

use inflog_core::{FxBuildHasher, Relation, Tuple};
use std::collections::HashMap;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Key-column set encoded as a bitmask (positions are small: they index
/// into an atom's argument list). Columns ≥ 128 are never indexed.
///
/// The bitmask erases column *order*, so index identity relies on every
/// caller presenting key columns strictly ascending — which the planner
/// guarantees (`key_cols` is built by an in-order enumerate+filter). The
/// debug assertion turns that incidental invariant into an enforced one:
/// an unsorted column list would key the projection map inconsistently and
/// silently drop join matches.
pub fn col_mask(cols: &[usize]) -> Option<u128> {
    debug_assert!(
        cols.windows(2).all(|w| w[0] < w[1]),
        "key columns must be strictly ascending, got {cols:?}"
    );
    let mut mask = 0u128;
    for &c in cols {
        if c >= 128 {
            return None;
        }
        mask |= 1 << c;
    }
    Some(mask)
}

/// One persistent index: key projection ↦ dense positions, plus the
/// watermark of how much of the relation it has consumed. The projection
/// map hashes with [`FxBuildHasher`] — the probe sits in every keyed
/// scan's inner loop, where SipHash rounds on a 1–4-word key would
/// dominate the lookup.
#[derive(Debug, Clone)]
pub(crate) struct Index {
    cols: Vec<usize>,
    /// `relation.dense()[..upto]` is indexed.
    upto: usize,
    /// [`Relation::shrink_epoch`] at the last synchronization. A relation
    /// one epoch ahead was truncated exactly once since: postings at or past
    /// its `last_truncate_len` are dropped and the prefix survives. Further
    /// behind than one epoch, the index rebuilds from scratch.
    epoch: u64,
    map: HashMap<Tuple, Vec<u32>, FxBuildHasher>,
    /// Tick of the last application that touched this index.
    last_used: u64,
}

impl Index {
    /// The postings filed under `key`: positions into the relation's dense
    /// storage, in insertion order; empty when the key has no matches. The
    /// register-machine executor resolves the index once per program run
    /// and probes it directly, skipping [`IndexSet::probe`]'s per-call
    /// registry lookup.
    #[inline]
    pub(crate) fn postings(&self, key: &Tuple) -> &[u32] {
        self.map.get(key).map_or(&[], Vec::as_slice)
    }

    /// Brings the index up to date with `rel`, resynchronizing across
    /// truncations (see [`Relation::truncate`]) before consuming the dense
    /// suffix added since the last call.
    fn sync(&mut self, rel: &Relation) {
        let epoch = rel.shrink_epoch();
        if epoch == self.epoch + 1 {
            // Exactly one rollback since the last sync: the dense prefix
            // below the cut is unchanged, so drop only the dead postings.
            self.rollback_to(rel.last_truncate_len().min(self.upto));
            self.epoch = epoch;
        } else if epoch != self.epoch {
            // Several rollbacks: the intermediate low-water mark is unknown,
            // so the positions we hold cannot be trusted. Rebuild.
            self.map.clear();
            self.upto = 0;
            self.epoch = epoch;
        }
        let dense = rel.dense();
        for (i, t) in dense.iter().enumerate().skip(self.upto) {
            self.map
                .entry(t.project(&self.cols))
                .or_default()
                .push(i as u32);
        }
        self.upto = dense.len();
    }

    /// Drops all postings at dense positions `>= cut`. Postings within a
    /// bucket are strictly increasing (appended in dense order, truncated in
    /// dense order), so each bucket is cut at a partition point.
    fn rollback_to(&mut self, cut: usize) {
        self.map.retain(|_, postings| {
            let keep = postings.partition_point(|&p| (p as usize) < cut);
            postings.truncate(keep);
            !postings.is_empty()
        });
        self.upto = cut;
    }
}

/// Evict entries untouched for this many applications (once over the size
/// watermark).
const EVICT_AGE: u64 = 8;
/// Start evicting when the set holds more than this many indexes.
const EVICT_WATERMARK: usize = 128;

/// The set of persistent indexes owned by an evaluation context.
#[derive(Debug, Clone, Default)]
pub struct IndexSet {
    indexes: HashMap<(u64, u128), Index, FxBuildHasher>,
    /// Monotone Θ-application counter (drives eviction).
    tick: u64,
}

/// An [`IndexSet`] behind the lock its readers build under. A reader that
/// panicked while building poisons the lock and may have left a torn
/// index, which would serve wrong answers silently; indexes are derived
/// data, so every access to a poisoned set drops it and clears the poison
/// instead of trusting it.
#[derive(Debug, Default)]
pub(crate) struct SharedIndexes(RwLock<IndexSet>);

impl SharedIndexes {
    /// The shared read guard.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, IndexSet> {
        if let Ok(guard) = self.0.read() {
            return guard;
        }
        drop(self.write());
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// The exclusive write guard.
    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, IndexSet> {
        self.0.write().unwrap_or_else(|poisoned| {
            let mut set = poisoned.into_inner();
            *set = IndexSet::default();
            self.0.clear_poison();
            set
        })
    }

    /// The set itself, for a sole owner: no lock is taken.
    pub(crate) fn get_mut(&mut self) -> &mut IndexSet {
        if self.0.is_poisoned() {
            self.0 = RwLock::default();
        }
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl IndexSet {
    /// Marks the start of one Θ application; occasionally evicts indexes of
    /// relations that no longer participate (e.g. dead per-round deltas).
    pub fn begin_application(&mut self) {
        self.tick += 1;
        if self.indexes.len() > EVICT_WATERMARK {
            let tick = self.tick;
            self.indexes.retain(|_, ix| ix.last_used + EVICT_AGE > tick);
        }
    }

    /// Ensures an up-to-date index on `cols` exists for `rel`, building it
    /// or extending it from the dense suffix added since the last
    /// application.
    pub fn ensure(&mut self, rel: &Relation, cols: &[usize]) {
        let Some(mask) = col_mask(cols) else { return };
        let tick = self.tick;
        let ix = self
            .indexes
            .entry((rel.id(), mask))
            .or_insert_with(|| Index {
                cols: cols.to_vec(),
                upto: 0,
                epoch: rel.shrink_epoch(),
                map: HashMap::default(),
                last_used: tick,
            });
        ix.last_used = tick;
        ix.sync(rel);
    }

    /// Brings every index already registered for `rel` up to date with the
    /// dense suffix appended since its last sync, building none. A
    /// published epoch's writer calls this after each patch so that the
    /// indexes its readers built follow the epoch forward.
    pub fn catch_up(&mut self, rel: &Relation) {
        for (&(id, _), ix) in &mut self.indexes {
            if id == rel.id() {
                ix.sync(rel);
            }
        }
    }

    /// Drops every index keyed by `rel_id`. Stale ids are never *served*
    /// (a refreshed id simply misses), but their postings would otherwise
    /// stay allocated until eviction — call this when an id is retired.
    pub fn forget(&mut self, rel_id: u64) {
        self.indexes.retain(|&(id, _), _| id != rel_id);
    }

    /// Removes `t` from `rel` by [`Relation::remove_tracked`] and patches
    /// every index of `rel` in place: the posting of `t` is dropped, and
    /// the tuple the swap-remove moved from the old last position into
    /// `t`'s has its posting redirected. An index that was not fully
    /// synchronized with `rel` before the removal cannot be patched
    /// positionally and is discarded instead (it rebuilds on the next
    /// [`ensure`](Self::ensure)).
    ///
    /// Returns the two dense positions the swap-remove touched, for a
    /// caller's rollback log ([`Relation::restore_swap_removed`]), or
    /// `None` if `t` was absent.
    pub fn remove_patched(&mut self, rel: &mut Relation, t: &Tuple) -> Option<(usize, usize)> {
        let old_len = rel.len();
        let (removed_pos, moved_from) = rel.remove_tracked(t)?;
        self.indexes.retain(|&(rel_id, _), ix| {
            if rel_id != rel.id() {
                return true;
            }
            if ix.upto != old_len || ix.epoch != rel.shrink_epoch() {
                return false; // not in sync: positional patching is unsound
            }
            let drop_key = t.project(&ix.cols);
            if let Some(postings) = ix.map.get_mut(&drop_key) {
                if let Ok(p) = postings.binary_search(&(removed_pos as u32)) {
                    postings.remove(p);
                }
                if postings.is_empty() {
                    ix.map.remove(&drop_key);
                }
            }
            if moved_from != removed_pos {
                // The moved tuple now lives at `removed_pos`.
                let moved_key = rel.dense()[removed_pos].project(&ix.cols);
                let postings = ix.map.entry(moved_key).or_default();
                if let Ok(p) = postings.binary_search(&(moved_from as u32)) {
                    postings.remove(p);
                }
                let at = postings.partition_point(|&p| (p as usize) < removed_pos);
                postings.insert(at, removed_pos as u32);
            }
            ix.upto = rel.dense().len();
            true
        });
        Some((removed_pos, moved_from))
    }

    /// Invariant check: every surviving index over `rel` is **sorted and
    /// complete** — each bucket's postings are strictly ascending positions
    /// below the watermark, and every indexed dense position appears in
    /// exactly the bucket of its key projection.
    ///
    /// Probes iterate postings in position order, so a posting that went
    /// stale or out of order after a
    /// [`remove_patched`](Self::remove_patched) or a `shrink_epoch`
    /// rollback would silently drop or misorder join matches. The sweep is
    /// `O(total postings)`, so it runs per *batch* of patches, not per patch
    /// (the incremental well-founded engine validates once per alternation
    /// in debug builds); tests call it directly around rollback +
    /// re-extension sequences.
    ///
    /// The check is **epoch-aware**, matching the lazy contract between
    /// `Relation::truncate` and `Index::sync`: an index exactly one
    /// `shrink_epoch` behind its relation has not observed the truncation
    /// yet, and only its postings below the truncation cut
    /// (`last_truncate_len`, capped by the watermark) carry an invariant —
    /// that is precisely the prefix `sync` rolls back to. Postings at or
    /// past the cut are stale by design (a repair may have regrown the
    /// dense array with different tuples) and are skipped. Indexes more
    /// than one epoch behind are rebuilt wholesale on their next sync, so
    /// nothing about them is checked.
    ///
    /// # Panics
    /// Panics if any index over `rel` violates the invariant.
    pub fn debug_validate(&self, rel: &Relation) {
        for (&(rel_id, _), ix) in &self.indexes {
            if rel_id != rel.id() {
                continue;
            }
            let current = ix.epoch == rel.shrink_epoch();
            let cut = if current {
                ix.upto
            } else if ix.epoch + 1 == rel.shrink_epoch() {
                ix.upto.min(rel.last_truncate_len())
            } else {
                continue;
            };
            if current {
                assert!(
                    ix.upto <= rel.dense().len(),
                    "index watermark {} beyond relation length {}",
                    ix.upto,
                    rel.dense().len()
                );
            }
            let mut covered = 0usize;
            for (key, postings) in &ix.map {
                assert!(
                    postings.windows(2).all(|w| w[0] < w[1]),
                    "postings for key {key} are not strictly ascending"
                );
                for &p in postings {
                    if (p as usize) >= cut {
                        assert!(!current, "posting {p} at/after watermark {}", ix.upto);
                        continue; // stale by design; sync rolls it back
                    }
                    assert_eq!(
                        &rel.dense()[p as usize].project(&ix.cols),
                        key,
                        "posting {p} filed under the wrong key"
                    );
                    covered += 1;
                }
            }
            if current {
                assert_eq!(
                    covered, ix.upto,
                    "index covers {covered} positions but watermark is {}",
                    ix.upto
                );
            }
        }
    }

    /// Probes the index of `(rel_id, cols)` for a key: the dense positions
    /// of the matching tuples, borrowed — no clone.
    ///
    /// Returns `None` when no index is registered (the executor falls back
    /// to a filtered scan) and `Some(&[])` when the key has no matches.
    pub fn probe(&self, rel_id: u64, cols: &[usize], key: &Tuple) -> Option<&[u32]> {
        Some(self.resolve(rel_id, cols)?.postings(key))
    }

    /// Looks up the index registered for `(rel_id, cols)` once, so a
    /// program run can probe [`Index::postings`] directly per outer
    /// candidate instead of re-hashing the registry key on every probe.
    /// `None` means no index is registered (unprepared plan): callers fall
    /// back to a filtered linear scan.
    pub(crate) fn resolve(&self, rel_id: u64, cols: &[usize]) -> Option<&Index> {
        self.indexes.get(&(rel_id, col_mask(cols)?))
    }

    /// Number of live indexes (observability / tests).
    pub fn len(&self) -> usize {
        self.indexes.len()
    }

    /// Whether no indexes are held.
    pub fn is_empty(&self) -> bool {
        self.indexes.is_empty()
    }

    /// Leaves the index on `(rel, cols)` as a build that panicked halfway
    /// through [`ensure`](Self::ensure) would: the first half of the
    /// relation filed, the watermark not yet advanced.
    #[cfg(test)]
    pub(crate) fn tear(&mut self, rel: &Relation, cols: &[usize]) {
        self.ensure(rel, cols);
        let ix = self.indexes.get_mut(&(rel.id(), col_mask(cols).unwrap()));
        let ix = ix.expect("just built");
        ix.rollback_to(rel.len() / 2);
        ix.upto = 0;
    }
}

#[cfg(test)]
impl SharedIndexes {
    /// The raw lock, so a test can poison it.
    pub(crate) fn lock(&self) -> &RwLock<IndexSet> {
        &self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use inflog_core::Tuple;

    fn t(ids: &[u32]) -> Tuple {
        Tuple::from_ids(ids)
    }

    fn rel(ts: &[&[u32]]) -> Relation {
        Relation::from_tuples(2, ts.iter().map(|ids| t(ids)))
    }

    #[test]
    fn builds_and_probes() {
        let r = rel(&[&[0, 1], &[0, 2], &[1, 2]]);
        let mut set = IndexSet::default();
        set.begin_application();
        set.ensure(&r, &[0]);
        let hits = set.probe(r.id(), &[0], &t(&[0])).unwrap();
        assert_eq!(hits.len(), 2);
        for &i in hits {
            assert_eq!(r.dense()[i as usize][0].id(), 0);
        }
        assert_eq!(set.probe(r.id(), &[0], &t(&[9])).unwrap(), &[] as &[u32]);
        assert!(set.probe(r.id() + 1, &[0], &t(&[0])).is_none());
    }

    #[test]
    fn extends_incrementally_from_dense_suffix() {
        let mut r = rel(&[&[0, 1]]);
        let mut set = IndexSet::default();
        set.begin_application();
        set.ensure(&r, &[0]);
        assert_eq!(set.probe(r.id(), &[0], &t(&[0])).unwrap().len(), 1);
        r.union_with(&rel(&[&[0, 2], &[3, 4]]));
        set.begin_application();
        set.ensure(&r, &[0]);
        assert_eq!(set.probe(r.id(), &[0], &t(&[0])).unwrap().len(), 2);
        assert_eq!(set.probe(r.id(), &[0], &t(&[3])).unwrap().len(), 1);
        assert_eq!(set.len(), 1, "same index, extended in place");
    }

    #[test]
    fn stale_ids_never_served() {
        let r = rel(&[&[0, 1]]);
        let mut set = IndexSet::default();
        set.ensure(&r, &[0]);
        let clone = r.clone();
        assert!(set.probe(clone.id(), &[0], &t(&[0])).is_none());
    }

    #[test]
    fn rollback_drops_postings_past_the_cut() {
        let mut r = rel(&[&[0, 1], &[0, 2]]);
        let mut set = IndexSet::default();
        set.begin_application();
        set.ensure(&r, &[0]);
        assert_eq!(set.probe(r.id(), &[0], &t(&[0])).unwrap().len(), 2);
        let w = r.len();
        r.union_with(&rel(&[&[0, 3], &[5, 6]]));
        set.begin_application();
        set.ensure(&r, &[0]);
        assert_eq!(set.probe(r.id(), &[0], &t(&[0])).unwrap().len(), 3);
        // Roll the relation back to the watermark: the index follows.
        r.truncate(w);
        set.begin_application();
        set.ensure(&r, &[0]);
        assert_eq!(set.probe(r.id(), &[0], &t(&[0])).unwrap().len(), 2);
        assert_eq!(set.probe(r.id(), &[0], &t(&[5])).unwrap(), &[] as &[u32]);
        assert_eq!(set.len(), 1, "rolled back in place, not rebuilt");
    }

    #[test]
    fn truncate_then_regrow_between_syncs_is_detected() {
        // The dangerous interleaving: the index last synced at length 3, the
        // relation is truncated to 1 and regrown past 3 before the next
        // sync. Length alone cannot reveal the cut — the epoch does.
        let mut r = rel(&[&[0, 1], &[0, 2], &[0, 3]]);
        let mut set = IndexSet::default();
        set.begin_application();
        set.ensure(&r, &[0]);
        r.truncate(1);
        r.union_with(&rel(&[&[1, 7], &[1, 8], &[0, 9]]));
        assert_eq!(r.len(), 4);
        set.begin_application();
        set.ensure(&r, &[0]);
        let hits = set.probe(r.id(), &[0], &t(&[0])).unwrap();
        assert_eq!(hits.len(), 2); // (0,1) from the prefix, (0,9) regrown
        for &i in hits {
            assert_eq!(r.dense()[i as usize][0].id(), 0);
        }
        assert_eq!(set.probe(r.id(), &[0], &t(&[1])).unwrap().len(), 2);
    }

    #[test]
    fn patch_swap_remove_keeps_index_exact() {
        let mut r = rel(&[&[0, 1], &[0, 2], &[1, 3], &[0, 4]]);
        let mut set = IndexSet::default();
        set.begin_application();
        set.ensure(&r, &[0]);
        assert_eq!(set.probe(r.id(), &[0], &t(&[0])).unwrap().len(), 3);
        // Remove (0,2): (0,4) moves from position 3 into position 1.
        set.remove_patched(&mut r, &t(&[0, 2])).unwrap();
        let hits = set.probe(r.id(), &[0], &t(&[0])).unwrap();
        assert_eq!(hits.len(), 2);
        for &i in hits {
            assert_eq!(r.dense()[i as usize][0].id(), 0);
        }
        assert!(hits.windows(2).all(|w| w[0] < w[1]), "postings stay sorted");
        // Remove the last remaining (1,_) tuple: its bucket disappears.
        set.remove_patched(&mut r, &t(&[1, 3])).unwrap();
        assert_eq!(set.probe(r.id(), &[0], &t(&[1])).unwrap(), &[] as &[u32]);
        // The index keeps extending incrementally afterwards.
        r.union_with(&rel(&[&[0, 9]]));
        set.begin_application();
        set.ensure(&r, &[0]);
        assert_eq!(set.probe(r.id(), &[0], &t(&[0])).unwrap().len(), 3);
    }

    #[test]
    fn unsynced_index_is_discarded_on_patch() {
        let mut r = rel(&[&[0, 1], &[0, 2]]);
        let mut set = IndexSet::default();
        set.begin_application();
        set.ensure(&r, &[0]);
        // Grow the relation *without* re-syncing the index, then remove.
        r.union_with(&rel(&[&[0, 3]]));
        set.remove_patched(&mut r, &t(&[0, 1])).unwrap();
        assert!(
            set.probe(r.id(), &[0], &t(&[0])).is_none(),
            "stale index must be dropped, not patched"
        );
    }

    #[test]
    fn multiple_truncations_between_syncs_rebuild() {
        let mut r = rel(&[&[0, 1], &[0, 2], &[0, 3]]);
        let mut set = IndexSet::default();
        set.begin_application();
        set.ensure(&r, &[0]);
        r.truncate(2);
        r.union_with(&rel(&[&[2, 5]]));
        r.truncate(1); // second cut without an intervening sync
        r.union_with(&rel(&[&[0, 6]]));
        set.begin_application();
        set.ensure(&r, &[0]);
        assert_eq!(set.probe(r.id(), &[0], &t(&[0])).unwrap().len(), 2);
        assert_eq!(set.probe(r.id(), &[0], &t(&[2])).unwrap(), &[] as &[u32]);
    }

    #[test]
    fn validate_passes_after_patch_and_rollback_sequences() {
        // Interleave growth, tracked removals and truncation rollbacks; the
        // postings must stay sorted and complete at every step — this is
        // what lets the next round trust posting order right after the
        // incremental well-founded engine's patch/rollback paths.
        let mut r = rel(&[&[0, 1], &[0, 2], &[1, 3], &[0, 4], &[2, 5]]);
        let mut set = IndexSet::default();
        set.begin_application();
        set.ensure(&r, &[0]);
        set.debug_validate(&r);
        // Tracked removal in the middle: swap-remove patch.
        set.remove_patched(&mut r, &t(&[0, 2])).unwrap();
        set.debug_validate(&r);
        // Rollback to a watermark, then regrow and resync.
        let w = r.len();
        r.union_with(&rel(&[&[0, 6], &[1, 7]]));
        set.begin_application();
        set.ensure(&r, &[0]);
        r.truncate(w);
        set.begin_application();
        set.ensure(&r, &[0]);
        set.debug_validate(&r);
        // Another tracked removal right after the rollback.
        set.remove_patched(&mut r, &t(&[2, 5])).unwrap();
        set.debug_validate(&r);
    }

    #[test]
    fn validate_tolerates_truncate_remove_interleaving_within_one_repair() {
        // The materialized-view repair path can truncate one relation
        // (epoch bump) and regrow it before any index sync, then run
        // tracked removals in the same batch. A lagging index's postings
        // past the truncation cut point at replaced tuples — stale by
        // design, recovered by `sync`'s rollback — so validation must only
        // hold the prefix below the cut to the invariant instead of
        // panicking on the regrown suffix.
        let mut r = rel(&[&[0, 0], &[1, 1], &[2, 2], &[3, 3]]);
        let mut set = IndexSet::default();
        set.begin_application();
        set.ensure(&r, &[0]);
        r.truncate(2);
        r.insert(t(&[7, 7]));
        r.insert(t(&[8, 8]));
        // Positions 2 and 3 are now (7,7)/(8,8) but still filed under keys
        // 2 and 3 in the lagging index; only the prefix [0, 2) is checked.
        set.debug_validate(&r);
        // A tracked removal interleaved on the same relation: the patch
        // must drop the out-of-sync index (epoch mismatch) rather than
        // leave stale postings behind.
        set.remove_patched(&mut r, &t(&[1, 1])).unwrap();
        assert!(
            set.probe(r.id(), &[0], &t(&[1])).is_none(),
            "out-of-sync index must be dropped, not patched"
        );
        set.debug_validate(&r);
        // A fresh sync rebuilds a fully valid index over the mutated state.
        set.begin_application();
        set.ensure(&r, &[0]);
        set.debug_validate(&r);
        assert_eq!(set.probe(r.id(), &[0], &t(&[7])).unwrap().len(), 1);
    }

    #[test]
    fn validate_skips_indexes_more_than_one_epoch_behind() {
        // Two truncations without an intervening sync: the index is
        // rebuild-on-next-sync territory and carries no invariant at all.
        let mut r = rel(&[&[0, 0], &[1, 1], &[2, 2]]);
        let mut set = IndexSet::default();
        set.begin_application();
        set.ensure(&r, &[0]);
        r.truncate(2);
        r.truncate(1);
        r.insert(t(&[9, 9]));
        set.debug_validate(&r);
        set.begin_application();
        set.ensure(&r, &[0]);
        set.debug_validate(&r);
        assert_eq!(set.probe(r.id(), &[0], &t(&[9])).unwrap().len(), 1);
    }

    #[test]
    #[should_panic(expected = "wrong key")]
    fn validate_catches_corrupted_postings() {
        let mut r = rel(&[&[0, 1], &[1, 2]]);
        let mut set = IndexSet::default();
        set.begin_application();
        set.ensure(&r, &[0]);
        // Corrupt the relation out from under the index: swap-remove
        // without patching, then regrow to the old length — the postings
        // now point at tuples filed under stale keys.
        r.remove_tracked(&t(&[0, 1])).unwrap();
        r.insert(t(&[5, 5]));
        set.debug_validate(&r);
    }

    #[test]
    fn catch_up_syncs_only_existing_indexes_of_the_relation() {
        let mut r = rel(&[&[0, 1]]);
        let other = rel(&[&[5, 6]]);
        let mut set = IndexSet::default();
        set.ensure(&r, &[0]);
        set.ensure(&r, &[1]);
        r.union_with(&rel(&[&[0, 2], &[3, 1]]));
        set.catch_up(&r);
        set.catch_up(&other);
        assert_eq!(set.len(), 2, "catch_up builds nothing");
        assert_eq!(set.probe(r.id(), &[0], &t(&[0])).unwrap().len(), 2);
        assert_eq!(set.probe(r.id(), &[1], &t(&[1])).unwrap().len(), 2);
        set.debug_validate(&r);
    }

    #[test]
    fn eviction_bounds_growth() {
        let mut set = IndexSet::default();
        let rels: Vec<Relation> = (0..200).map(|_| rel(&[&[0, 1]])).collect();
        for r in &rels {
            set.begin_application();
            set.ensure(r, &[0]);
        }
        assert!(set.len() <= EVICT_WATERMARK + EVICT_AGE as usize + 1);
        assert!(!set.is_empty());
    }
}
