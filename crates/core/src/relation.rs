//! Finite `k`-ary relations on the universe, with set algebra and indexing.

use crate::tuple::Tuple;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::Mutex;

/// Slot marker: never occupied.
const EMPTY: u32 = u32::MAX;
/// Slot marker: previously occupied, freed by a removal.
const TOMBSTONE: u32 = u32::MAX - 1;

/// Fresh identity token for a [`Relation`] instance (see [`Relation::id`]).
fn next_relation_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, AtomicOrdering::Relaxed)
}

/// Multiply-mix hash over a tuple's components (FxHash-style). Cheaper than
/// SipHash on the 1–4 word tuples the evaluator probes in its inner loops;
/// HashDoS resistance is irrelevant for interned ids.
fn hash_tuple(t: &Tuple) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h: u64 = t.arity() as u64;
    for c in t.items() {
        h = (h.rotate_left(5) ^ u64::from(c.id())).wrapping_mul(K);
    }
    h
}

/// A finite `k`-ary relation: a set of [`Tuple`]s of fixed arity.
///
/// Relations are the values the paper's operator Θ maps between; evaluation
/// engines need fast membership (`contains`), fast insertion with dedup, set
/// algebra (union / intersection / difference / subset — the lattice on which
/// *least* fixpoints are defined), and hash-join indexing.
///
/// # Layout
///
/// Tuples live in an insertion-ordered dense `Vec<Tuple>` — iteration is a
/// linear walk, and the suffix `dense()[w..]` is exactly the set of tuples
/// added since watermark `w`, which external incremental indexes exploit.
/// Membership goes through an open-addressing table of indices into the
/// dense vector, so each tuple is stored once.
#[derive(Debug)]
pub struct Relation {
    arity: usize,
    /// Dense storage in insertion order (append-only except for `remove`).
    tuples: Vec<Tuple>,
    /// Open-addressing slots: indices into `tuples`, `EMPTY` or `TOMBSTONE`.
    /// Length is a power of two (or zero while the relation is empty).
    slots: Vec<u32>,
    /// Occupied slots including tombstones (load-factor accounting).
    used: usize,
    /// Identity token: fresh on construction, clone and removal; stable
    /// across insertions. External index caches use it to decide whether a
    /// cached index may be extended incrementally or must be rebuilt.
    id: u64,
    /// Bumped by every [`truncate`](Self::truncate) (rollback to a
    /// watermark). Unlike `remove`, truncation preserves the dense *prefix*,
    /// so external positional indexes stay valid up to the cut — they
    /// resynchronize by comparing epochs instead of discarding everything.
    shrink_epoch: u64,
    /// The length of the most recent truncation's surviving prefix. Together
    /// with `shrink_epoch` (each truncate bumps it exactly once) an external
    /// index that is exactly one epoch behind knows how far to roll back.
    last_truncate_len: usize,
    /// Cached lexicographic order (indices into `tuples`); cleared on
    /// mutation so `sorted()` only re-sorts relations that changed.
    ///
    /// A `Mutex` rather than a `RefCell` so that `Relation` is [`Sync`]:
    /// published epochs share their relations read-only across the
    /// server's reader threads. Every mutation path holds `&mut self` and
    /// clears the cache through the lock-free [`Mutex::get_mut`]; only
    /// [`sorted`](Self::sorted) (display/tests, never an evaluation hot
    /// path) actually locks.
    sorted_cache: Mutex<Option<Vec<u32>>>,
}

impl Relation {
    /// Creates an empty relation of the given arity.
    pub fn new(arity: usize) -> Self {
        Relation {
            arity,
            tuples: Vec::new(),
            slots: Vec::new(),
            used: 0,
            id: next_relation_id(),
            shrink_epoch: 0,
            last_truncate_len: 0,
            sorted_cache: Mutex::new(None),
        }
    }

    /// Creates an empty relation with pre-reserved capacity.
    pub fn with_capacity(arity: usize, cap: usize) -> Self {
        let mut r = Relation::new(arity);
        r.reserve(cap);
        r
    }

    /// Builds a relation from an iterator of tuples.
    ///
    /// # Panics
    /// Panics if any tuple's arity differs from `arity`.
    pub fn from_tuples(arity: usize, tuples: impl IntoIterator<Item = Tuple>) -> Self {
        let mut r = Relation::new(arity);
        for t in tuples {
            r.insert(t);
        }
        r
    }

    /// The full relation `A^k` over a universe of the given size.
    pub fn full(universe_size: usize, arity: usize) -> Self {
        Relation::from_tuples(arity, crate::tuple::all_tuples(universe_size, arity))
    }

    /// Declared arity `k`.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Identity token for external index caches: stable while the relation
    /// only grows, refreshed whenever cached positional indexes over it
    /// would go stale (construction, clone, removal).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The tuples in insertion order. `dense()[w..]` is exactly the set of
    /// tuples inserted after the relation had `w` tuples — the delta that
    /// incremental index maintenance consumes.
    pub fn dense(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Truncation epoch: bumped exactly once per [`truncate`](Self::truncate).
    ///
    /// An external positional index synchronized at epoch `e` with watermark
    /// `w` remains valid on the prefix `min(w, last_truncate_len())` when the
    /// relation is at epoch `e + 1`, and must rebuild when further behind.
    pub fn shrink_epoch(&self) -> u64 {
        self.shrink_epoch
    }

    /// Surviving prefix length of the most recent truncation (0 if the
    /// relation has never been truncated).
    pub fn last_truncate_len(&self) -> usize {
        self.last_truncate_len
    }

    /// Rolls the relation back to its first `len` tuples in insertion order
    /// — the snapshot/rollback primitive for restartable fixpoints.
    ///
    /// Because insertion is append-only, `truncate(w)` restores exactly the
    /// state the relation had when `len() == w`. The dense prefix keeps its
    /// positions and the [`id`](Self::id) is preserved, so external
    /// positional indexes stay valid up to `len` and resynchronize via
    /// [`shrink_epoch`](Self::shrink_epoch) instead of rebuilding. No-op if
    /// `len >= self.len()`.
    pub fn truncate(&mut self, len: usize) {
        if len >= self.tuples.len() {
            return;
        }
        self.shrink_epoch += 1;
        self.last_truncate_len = len;
        self.clear_sorted_cache();
        if len == 0 {
            self.tuples.clear();
            self.slots.fill(EMPTY);
            self.used = 0;
            return;
        }
        let removed = self.tuples.len() - len;
        if removed * 4 >= len {
            // Large cut: rebuilding the probe table (also clears tombstones)
            // beats tombstoning each removed tuple.
            self.tuples.truncate(len);
            self.rebuild_slots(self.tuples.len());
        } else {
            let mask = self.slots.len() as u64 - 1;
            for i in len..self.tuples.len() {
                let mut slot = (hash_tuple(&self.tuples[i]) & mask) as usize;
                while self.slots[slot] != i as u32 {
                    debug_assert!(self.slots[slot] != EMPTY, "truncated tuple must be indexed");
                    slot = (slot + 1) & mask as usize;
                }
                self.slots[slot] = TOMBSTONE;
            }
            self.tuples.truncate(len);
        }
    }

    /// Removes every tuple while keeping the allocated storage (and the
    /// relation [`id`](Self::id)) — `truncate(0)`. Scratch relations that
    /// are refilled every round reuse their dense vector and probe table.
    pub fn clear(&mut self) {
        self.truncate(0);
    }

    /// Pre-reserves capacity for `extra` additional tuples.
    pub fn reserve(&mut self, extra: usize) {
        self.tuples.reserve(extra);
        let needed = self.tuples.len() + extra;
        if needed * 4 >= self.slots.len() * 3 {
            self.rebuild_slots(needed);
        }
    }

    /// Rebuilds the probe table with room for `cap` live entries, clearing
    /// tombstones.
    fn rebuild_slots(&mut self, cap: usize) {
        let target = (cap.max(4) * 2).next_power_of_two();
        self.slots.clear();
        self.slots.resize(target, EMPTY);
        let mask = target as u64 - 1;
        for (i, t) in self.tuples.iter().enumerate() {
            let mut slot = (hash_tuple(t) & mask) as usize;
            while self.slots[slot] != EMPTY {
                slot = (slot + 1) & mask as usize;
            }
            self.slots[slot] = i as u32;
        }
        self.used = self.tuples.len();
    }

    /// Probes for `t`: `Ok(slot)` if present (slot holds its dense index),
    /// `Err(slot)` with the insertion slot otherwise.
    fn probe(&self, t: &Tuple) -> Result<usize, usize> {
        debug_assert!(!self.slots.is_empty());
        let mask = self.slots.len() as u64 - 1;
        let mut slot = (hash_tuple(t) & mask) as usize;
        let mut insert_at: Option<usize> = None;
        loop {
            match self.slots[slot] {
                EMPTY => return Err(insert_at.unwrap_or(slot)),
                TOMBSTONE => insert_at = insert_at.or(Some(slot)),
                idx => {
                    if &self.tuples[idx as usize] == t {
                        return Ok(slot);
                    }
                }
            }
            slot = (slot + 1) & mask as usize;
        }
    }

    /// Inserts a tuple; returns `true` if it was new.
    ///
    /// # Panics
    /// Panics if the tuple arity differs from the relation arity (an internal
    /// invariant; user-facing paths validate arities up front).
    pub fn insert(&mut self, t: Tuple) -> bool {
        assert_eq!(
            t.arity(),
            self.arity,
            "tuple arity {} does not match relation arity {}",
            t.arity(),
            self.arity
        );
        self.insert_unchecked(t)
    }

    /// Inserts without the arity assertion (hot paths that already
    /// validated the arity structurally, e.g. bulk union).
    fn insert_unchecked(&mut self, t: Tuple) -> bool {
        if (self.used + 1) * 4 >= self.slots.len() * 3 {
            self.rebuild_slots(self.tuples.len() + 1);
        }
        match self.probe(&t) {
            Ok(_) => false,
            Err(slot) => {
                if self.slots[slot] == EMPTY {
                    self.used += 1;
                }
                self.slots[slot] = self.tuples.len() as u32;
                self.tuples.push(t);
                self.clear_sorted_cache();
                true
            }
        }
    }

    /// Removes a tuple; returns `true` if it was present.
    ///
    /// Removal reorders the dense storage (swap-remove) and refreshes the
    /// relation's [`id`](Self::id), invalidating external index caches.
    pub fn remove(&mut self, t: &Tuple) -> bool {
        if self.slots.is_empty() {
            return false;
        }
        let Ok(slot) = self.probe(t) else {
            return false;
        };
        let idx = self.slots[slot] as usize;
        self.slots[slot] = TOMBSTONE;
        self.tuples.swap_remove(idx);
        if idx < self.tuples.len() {
            // The previous last tuple moved to `idx`: redirect its slot.
            let moved_from = self.tuples.len() as u32;
            let mask = self.slots.len() as u64 - 1;
            let mut s = (hash_tuple(&self.tuples[idx]) & mask) as usize;
            while self.slots[s] != moved_from {
                debug_assert!(self.slots[s] != EMPTY, "moved tuple must be indexed");
                s = (s + 1) & mask as usize;
            }
            self.slots[s] = idx as u32;
        }
        self.id = next_relation_id();
        self.clear_sorted_cache();
        true
    }

    /// Removes a tuple **without refreshing the relation's identity**,
    /// returning the dense positions the swap-remove touched:
    /// `(removed_pos, moved_from_pos)` — the tuple previously at
    /// `moved_from_pos` (the last position) now sits at `removed_pos`
    /// (the two are equal when the last tuple itself was removed).
    ///
    /// External positional indexes over the relation become stale at exactly
    /// those two positions; the caller **must** patch or discard them
    /// synchronously (see `IndexSet::patch_swap_remove` in the evaluator) —
    /// this is the one mutation the identity token does not guard. The
    /// incremental well-founded engine uses it to delete the handful of
    /// tuples that leave the decreasing side each alternation while keeping
    /// its indexes warm.
    pub fn remove_tracked(&mut self, t: &Tuple) -> Option<(usize, usize)> {
        if self.slots.is_empty() {
            return None;
        }
        let Ok(slot) = self.probe(t) else {
            return None;
        };
        let idx = self.slots[slot] as usize;
        self.slots[slot] = TOMBSTONE;
        self.tuples.swap_remove(idx);
        let moved_from = self.tuples.len();
        if idx < self.tuples.len() {
            // The previous last tuple moved to `idx`: redirect its slot.
            let mask = self.slots.len() as u64 - 1;
            let mut s = (hash_tuple(&self.tuples[idx]) & mask) as usize;
            while self.slots[s] != moved_from as u32 {
                debug_assert!(self.slots[s] != EMPTY, "moved tuple must be indexed");
                s = (s + 1) & mask as usize;
            }
            self.slots[s] = idx as u32;
        }
        self.clear_sorted_cache();
        Some((idx, moved_from))
    }

    /// Reverses a [`remove_tracked`](Self::remove_tracked): re-inserts `t`
    /// and moves it back to dense position `pos`, restoring the dense order
    /// the relation had before the removal. The tuple that swap-remove moved
    /// into `pos` returns to the end (its original position).
    ///
    /// The probe-table *layout* may differ from the pre-removal table (the
    /// removal left a tombstone), but probe semantics are equivalent; the
    /// observable state — `dense()` order and membership — is restored
    /// exactly. Like `remove_tracked`, this does **not** refresh the
    /// relation [`id`](Self::id): callers that patched external positional
    /// indexes around the removal must patch or invalidate them around the
    /// restore too (the transactional rollback in the evaluator calls
    /// [`refresh_id`](Self::refresh_id) once at the end instead).
    ///
    /// # Panics
    /// Panics if `t` is already present or `pos` is out of bounds after the
    /// insertion — both indicate the call does not mirror a prior
    /// `remove_tracked(&t) == Some((pos, _))`.
    pub fn restore_swap_removed(&mut self, pos: usize, t: Tuple) {
        let inserted = self.insert(t);
        assert!(inserted, "restored tuple must have been absent");
        let last = self.tuples.len() - 1;
        assert!(pos <= last, "restore position {pos} out of bounds");
        if pos == last {
            return;
        }
        // Locate both probe slots *before* swapping (probe matches tuples
        // through their current dense positions), then swap the dense
        // entries and redirect the two slots.
        let slot_moved = self
            .probe(&self.tuples[pos])
            .expect("tuple at restore position must be indexed");
        let slot_restored = self
            .probe(&self.tuples[last])
            .expect("freshly inserted tuple must be indexed");
        self.tuples.swap(pos, last);
        self.slots[slot_moved] = last as u32;
        self.slots[slot_restored] = pos as u32;
        self.clear_sorted_cache();
    }

    /// Refreshes the identity token without touching the tuples, forcing
    /// external index caches keyed on [`id`](Self::id) to rebuild instead of
    /// serving possibly-stale positional data. The transactional rollback in
    /// the evaluator calls this on every relation it restored: indexes
    /// patched during the failed update cannot be un-patched, so they are
    /// invalidated wholesale.
    pub fn refresh_id(&mut self) {
        self.id = next_relation_id();
    }

    /// Membership test.
    pub fn contains(&self, t: &Tuple) -> bool {
        !self.slots.is_empty() && self.probe(t).is_ok()
    }

    /// The dense position of `t`, if present: `dense()[pos] == *t`.
    pub fn position(&self, t: &Tuple) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(t).ok().map(|slot| self.slots[slot] as usize)
    }

    /// Iterates over tuples in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> + '_ {
        self.tuples.iter()
    }

    /// Drops the cached sort order (every mutation path calls this). Holding
    /// `&mut self` means no other thread can be probing the cache, so the
    /// uncontended [`Mutex::get_mut`] access compiles to a plain store.
    fn clear_sorted_cache(&mut self) {
        *self
            .sorted_cache
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = None;
    }

    /// Returns the tuples sorted lexicographically (deterministic output for
    /// display, hashing into SAT variables, and tests).
    ///
    /// The sort order is cached and reused until the relation changes.
    pub fn sorted(&self) -> Vec<Tuple> {
        let mut cache = match self.sorted_cache.lock() {
            Ok(guard) => guard,
            // A thread panicked while holding the cache lock. The cache is
            // pure derived data, so recovery is trivial: drop whatever
            // (possibly torn) order is in there and re-sort from the dense
            // storage, which the lock never guards.
            Err(poisoned) => {
                let mut guard = poisoned.into_inner();
                *guard = None;
                self.sorted_cache.clear_poison();
                guard
            }
        };
        let order = cache.get_or_insert_with(|| {
            let mut idx: Vec<u32> = (0..self.tuples.len() as u32).collect();
            idx.sort_unstable_by(|&a, &b| self.tuples[a as usize].cmp(&self.tuples[b as usize]));
            idx
        });
        order
            .iter()
            .map(|&i| self.tuples[i as usize].clone())
            .collect()
    }

    /// In-place union; returns the number of newly added tuples.
    ///
    /// The arity is checked once up front and capacity for the incoming
    /// tuples is pre-reserved; the new tuples are appended to the dense
    /// suffix, so `dense()[len_before..]` afterwards is exactly the delta.
    ///
    /// # Panics
    /// Panics if the relations' arities differ.
    pub fn union_with(&mut self, other: &Relation) -> usize {
        assert_eq!(
            other.arity, self.arity,
            "relation arity {} does not match relation arity {}",
            other.arity, self.arity
        );
        let before = self.tuples.len();
        self.reserve(other.len());
        for t in other.iter() {
            self.insert_unchecked(t.clone());
        }
        self.tuples.len() - before
    }

    /// Set union.
    pub fn union(&self, other: &Relation) -> Relation {
        let mut r = self.clone();
        r.union_with(other);
        r
    }

    /// Set intersection.
    pub fn intersection(&self, other: &Relation) -> Relation {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        Relation::from_tuples(
            self.arity,
            small.iter().filter(|t| large.contains(t)).cloned(),
        )
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &Relation) -> Relation {
        Relation::from_tuples(
            self.arity,
            self.iter().filter(|t| !other.contains(t)).cloned(),
        )
    }

    /// Complement within `A^k` for a universe of the given size.
    pub fn complement(&self, universe_size: usize) -> Relation {
        let mut r = Relation::new(self.arity);
        for t in crate::tuple::all_tuples(universe_size, self.arity) {
            if !self.contains(&t) {
                r.insert(t);
            }
        }
        r
    }

    /// Subset test (the componentwise order ⊆ used to define least fixpoints).
    pub fn is_subset(&self, other: &Relation) -> bool {
        self.len() <= other.len() && self.iter().all(|t| other.contains(t))
    }

    /// Whether the two relations are ⊆-incomparable (neither contains the
    /// other). The paper's G_n example produces exponentially many *pairwise
    /// incomparable* fixpoints.
    pub fn incomparable(&self, other: &Relation) -> bool {
        !self.is_subset(other) && !other.is_subset(self)
    }

    /// Projects the relation onto the given columns (with dedup).
    pub fn project(&self, cols: &[usize]) -> Relation {
        let mut r = Relation::new(cols.len());
        for t in self.iter() {
            r.insert(t.project(cols));
        }
        r
    }
}

impl Clone for Relation {
    /// Clones get a fresh [`id`](Self::id): the clone diverges from the
    /// original, so indexes cached against the original must not serve it.
    fn clone(&self) -> Self {
        Relation {
            arity: self.arity,
            tuples: self.tuples.clone(),
            slots: self.slots.clone(),
            used: self.used,
            id: next_relation_id(),
            shrink_epoch: 0,
            last_truncate_len: 0,
            sorted_cache: Mutex::new(
                self.sorted_cache
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .clone(),
            ),
        }
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.arity == other.arity
            && self.len() == other.len()
            && self.iter().all(|t| other.contains(t))
    }
}

impl Eq for Relation {}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.sorted().iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{t}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Tuple> for Relation {
    /// Collects tuples into a relation, inferring arity from the first tuple.
    ///
    /// Empty iterators produce an arity-0 relation — if the arity is known,
    /// prefer [`Relation::from_tuples`], which cannot mis-infer.
    fn from_iter<I: IntoIterator<Item = Tuple>>(iter: I) -> Self {
        let mut it = iter.into_iter().peekable();
        let arity = it.peek().map_or(0, Tuple::arity);
        Relation::from_tuples(arity, it)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn t(ids: &[u32]) -> Tuple {
        Tuple::from_ids(ids)
    }

    fn rel(arity: usize, ts: &[&[u32]]) -> Relation {
        Relation::from_tuples(arity, ts.iter().map(|ids| t(ids)))
    }

    #[test]
    fn relation_is_send_and_sync() {
        // Published epochs share relations read-only across reader
        // threads; this fails to compile if an interior-mutability
        // change ever takes `Sync` away again.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Relation>();
        assert_send_sync::<Tuple>();
    }

    #[test]
    fn insert_dedups() {
        let mut r = Relation::new(2);
        assert!(r.insert(t(&[0, 1])));
        assert!(!r.insert(t(&[0, 1])));
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn insert_wrong_arity_panics() {
        let mut r = Relation::new(2);
        r.insert(t(&[0]));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn union_with_wrong_arity_panics() {
        let mut r = Relation::new(2);
        r.union_with(&Relation::new(1));
    }

    #[test]
    fn set_algebra() {
        let a = rel(1, &[&[0], &[1]]);
        let b = rel(1, &[&[1], &[2]]);
        assert_eq!(a.union(&b), rel(1, &[&[0], &[1], &[2]]));
        assert_eq!(a.intersection(&b), rel(1, &[&[1]]));
        assert_eq!(a.difference(&b), rel(1, &[&[0]]));
        assert!(a.intersection(&b).is_subset(&a));
        assert!(a.incomparable(&b));
        assert!(!a.incomparable(&a));
    }

    #[test]
    fn union_with_counts_new() {
        let mut a = rel(1, &[&[0]]);
        let b = rel(1, &[&[0], &[1], &[2]]);
        assert_eq!(a.union_with(&b), 2);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn dense_suffix_is_the_union_delta() {
        let mut a = rel(1, &[&[0], &[1]]);
        let before = a.len();
        let b = rel(1, &[&[1], &[2], &[3]]);
        let added = a.union_with(&b);
        assert_eq!(added, 2);
        let delta: BTreeSet<&Tuple> = a.dense()[before..].iter().collect();
        assert_eq!(delta, [t(&[2]), t(&[3])].iter().collect());
    }

    #[test]
    fn id_stable_under_growth_fresh_on_clone_and_remove() {
        let mut a = rel(1, &[&[0]]);
        let id0 = a.id();
        a.insert(t(&[1]));
        a.union_with(&rel(1, &[&[2]]));
        assert_eq!(a.id(), id0, "append-only growth keeps the id");
        let b = a.clone();
        assert_ne!(b.id(), id0, "clones diverge");
        a.remove(&t(&[1]));
        assert_ne!(a.id(), id0, "removal reorders dense storage");
    }

    #[test]
    fn complement_in_universe() {
        let a = rel(1, &[&[0], &[2]]);
        let c = a.complement(4);
        assert_eq!(c, rel(1, &[&[1], &[3]]));
        // Complement twice = identity.
        assert_eq!(c.complement(4), a);
    }

    #[test]
    fn full_relation() {
        let f = Relation::full(3, 2);
        assert_eq!(f.len(), 9);
        assert!(f.contains(&t(&[2, 2])));
        // arity-0 full relation: the single empty tuple.
        let p = Relation::full(3, 0);
        assert_eq!(p.len(), 1);
        assert!(p.contains(&Tuple::empty()));
    }

    #[test]
    fn project_dedups() {
        let r = rel(2, &[&[0, 1], &[0, 2], &[1, 1]]);
        assert_eq!(r.project(&[0]), rel(1, &[&[0], &[1]]));
    }

    #[test]
    fn sorted_is_deterministic() {
        let r = rel(2, &[&[1, 0], &[0, 1], &[0, 0]]);
        let s = r.sorted();
        assert_eq!(s, vec![t(&[0, 0]), t(&[0, 1]), t(&[1, 0])]);
        // Cached: a second call returns the same order.
        assert_eq!(r.sorted(), s);
    }

    #[test]
    fn sorted_cache_invalidated_by_mutation() {
        let mut r = rel(1, &[&[2], &[0]]);
        assert_eq!(r.sorted(), vec![t(&[0]), t(&[2])]);
        r.insert(t(&[1]));
        assert_eq!(r.sorted(), vec![t(&[0]), t(&[1]), t(&[2])]);
        r.remove(&t(&[0]));
        assert_eq!(r.sorted(), vec![t(&[1]), t(&[2])]);
    }

    #[test]
    fn display_sorted() {
        let r = rel(1, &[&[2], &[0]]);
        assert_eq!(r.to_string(), "{(0), (2)}");
    }

    #[test]
    fn from_iterator_infers_arity() {
        let r: Relation = vec![t(&[1, 2]), t(&[3, 4])].into_iter().collect();
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 2);
        let empty: Relation = Vec::<Tuple>::new().into_iter().collect();
        assert_eq!(empty.arity(), 0);
        assert!(empty.is_empty());
    }

    #[test]
    fn remove_tuples() {
        let mut r = rel(1, &[&[0], &[1]]);
        assert!(r.remove(&t(&[0])));
        assert!(!r.remove(&t(&[0])));
        assert_eq!(r.len(), 1);
        assert!(r.contains(&t(&[1])));
        assert!(!Relation::new(1).remove(&t(&[5])));
    }

    #[test]
    fn truncate_restores_previous_state() {
        let mut r = rel(1, &[&[0], &[1]]);
        let id0 = r.id();
        let snapshot = r.len();
        r.insert(t(&[2]));
        r.insert(t(&[3]));
        r.truncate(snapshot);
        assert_eq!(r.len(), 2);
        assert!(r.contains(&t(&[0])) && r.contains(&t(&[1])));
        assert!(!r.contains(&t(&[2])) && !r.contains(&t(&[3])));
        assert_eq!(r.id(), id0, "truncation preserves the identity token");
        assert_eq!(r.last_truncate_len(), snapshot);
        // The dense prefix is untouched, and re-growth works.
        assert_eq!(r.dense(), &[t(&[0]), t(&[1])]);
        assert!(r.insert(t(&[3])));
        assert_eq!(r.dense()[2], t(&[3]));
    }

    #[test]
    fn truncate_epoch_bumps_once_per_cut() {
        let mut r = rel(1, &[&[0], &[1], &[2]]);
        assert_eq!(r.shrink_epoch(), 0);
        r.truncate(3); // no-op: nothing removed
        assert_eq!(r.shrink_epoch(), 0);
        r.truncate(2);
        assert_eq!(r.shrink_epoch(), 1);
        r.insert(t(&[9]));
        assert_eq!(r.shrink_epoch(), 1, "growth does not bump the epoch");
        r.truncate(0);
        assert_eq!(r.shrink_epoch(), 2);
        assert!(r.is_empty());
    }

    #[test]
    fn clear_keeps_identity_and_reuses_storage() {
        let mut r = rel(2, &[&[0, 1], &[2, 3]]);
        let id0 = r.id();
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.id(), id0);
        assert!(!r.contains(&t(&[0, 1])));
        assert!(r.insert(t(&[4, 5])));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn remove_tracked_reports_swap_positions() {
        let mut r = rel(1, &[&[0], &[1], &[2], &[3]]);
        let id0 = r.id();
        // Remove an interior tuple: the last one moves into its slot.
        assert_eq!(r.remove_tracked(&t(&[1])), Some((1, 3)));
        assert_eq!(r.dense(), &[t(&[0]), t(&[3]), t(&[2])]);
        // Remove the (current) last tuple: nothing moves.
        assert_eq!(r.remove_tracked(&t(&[2])), Some((2, 2)));
        assert_eq!(r.dense(), &[t(&[0]), t(&[3])]);
        assert_eq!(r.remove_tracked(&t(&[9])), None);
        assert_eq!(r.id(), id0, "tracked removal preserves the identity");
        assert!(r.contains(&t(&[0])) && r.contains(&t(&[3])));
        assert!(!r.contains(&t(&[1])) && !r.contains(&t(&[2])));
        assert!(r.insert(t(&[1])));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn restore_swap_removed_round_trips() {
        let mut r = rel(1, &[&[0], &[1], &[2], &[3]]);
        let id0 = r.id();
        let before: Vec<Tuple> = r.dense().to_vec();
        // Interior removal: the last tuple moves into the hole; the restore
        // must send it back and put the removed tuple where it was.
        let (pos, moved) = r.remove_tracked(&t(&[1])).unwrap();
        assert_ne!(pos, moved);
        r.restore_swap_removed(pos, t(&[1]));
        assert_eq!(r.dense(), &before[..]);
        // Last-position removal: nothing moved, the restore is a plain append.
        let (pos, moved) = r.remove_tracked(&t(&[3])).unwrap();
        assert_eq!(pos, moved);
        r.restore_swap_removed(pos, t(&[3]));
        assert_eq!(r.dense(), &before[..]);
        assert_eq!(r.id(), id0, "restore preserves the identity token");
        // The probe table is still consistent after the dance.
        for tup in &before {
            assert!(r.contains(tup));
        }
        assert!(r.insert(t(&[9])));
        assert!(r.remove(&t(&[9])));
    }

    #[test]
    fn restore_swap_removed_stress_against_model() {
        let mut x: u64 = 0x5151_5151;
        let mut next = move |m: u32| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u32 % m
        };
        let mut r = Relation::new(1);
        for i in 0..40 {
            r.insert(t(&[i]));
        }
        let before: Vec<Tuple> = r.dense().to_vec();
        for _ in 0..200 {
            // Remove a random batch in random order, then undo it in exact
            // reverse order (the rollback discipline) and check the dense
            // order is restored bit-for-bit.
            let mut undo: Vec<(usize, Tuple)> = Vec::new();
            for _ in 0..(1 + next(5)) {
                let victim = r.dense()[next(r.len() as u32) as usize].clone();
                let (pos, _) = r.remove_tracked(&victim).unwrap();
                undo.push((pos, victim));
            }
            for (pos, tup) in undo.into_iter().rev() {
                r.restore_swap_removed(pos, tup);
            }
            assert_eq!(r.dense(), &before[..]);
            for tup in &before {
                assert!(r.contains(tup));
            }
        }
    }

    #[test]
    #[should_panic(expected = "absent")]
    fn restore_swap_removed_rejects_present_tuple() {
        let mut r = rel(1, &[&[0], &[1]]);
        r.restore_swap_removed(0, t(&[1]));
    }

    #[test]
    fn refresh_id_invalidates_without_mutation() {
        let mut r = rel(1, &[&[0], &[1]]);
        let id0 = r.id();
        let before: Vec<Tuple> = r.dense().to_vec();
        r.refresh_id();
        assert_ne!(r.id(), id0);
        assert_eq!(r.dense(), &before[..], "tuples untouched");
    }

    #[test]
    fn sorted_recovers_from_poisoned_cache() {
        let r = rel(1, &[&[2], &[0], &[1]]);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = r.sorted_cache.lock().unwrap();
            panic!("poison the sorted cache");
        }));
        assert!(caught.is_err());
        assert!(r.sorted_cache.is_poisoned());
        // The cache is derived data: sorted() clears it and re-sorts.
        assert_eq!(r.sorted(), vec![t(&[0]), t(&[1]), t(&[2])]);
        assert!(!r.sorted_cache.is_poisoned(), "poison cleared on recovery");
        assert_eq!(r.sorted(), vec![t(&[0]), t(&[1]), t(&[2])]);
    }

    #[test]
    fn truncate_large_and_small_cuts_against_model() {
        // Exercise both the tombstone path (small suffix) and the
        // rebuild path (large suffix) against a replayed model.
        let mut x: u64 = 0xdead_beef;
        let mut next = move |m: u32| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as u32 % m
        };
        let mut r = Relation::new(1);
        let mut log: Vec<Tuple> = Vec::new(); // dense insertion order
        for step in 0..500 {
            if step % 7 == 6 {
                let cut = next(log.len().max(1) as u32) as usize;
                r.truncate(cut);
                log.truncate(cut);
            } else {
                let tup = t(&[next(97)]);
                let fresh = !log.contains(&tup);
                assert_eq!(r.insert(tup.clone()), fresh, "step {step}");
                if fresh {
                    log.push(tup);
                }
            }
            assert_eq!(r.len(), log.len(), "step {step}");
            assert_eq!(r.dense(), &log[..], "step {step}");
        }
        for tup in &log {
            assert!(r.contains(tup));
        }
        assert!(!r.contains(&t(&[97])));
    }

    #[test]
    fn insert_remove_stress_consistency() {
        // Exercise tombstones, swap-remove redirects and table growth
        // against a model HashSet.
        let mut r = Relation::new(2);
        let mut model = std::collections::HashSet::new();
        let mut x: u64 = 0x9e37_79b9;
        for step in 0..2000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = (x >> 33) as u32 % 17;
            let b = (x >> 11) as u32 % 17;
            let tup = t(&[a, b]);
            if step % 3 == 0 {
                assert_eq!(r.remove(&tup), model.remove(&tup), "step {step}");
            } else {
                assert_eq!(r.insert(tup.clone()), model.insert(tup), "step {step}");
            }
            assert_eq!(r.len(), model.len(), "step {step}");
        }
        for tup in &model {
            assert!(r.contains(tup));
        }
        assert_eq!(r.sorted().len(), model.len());
    }
}
