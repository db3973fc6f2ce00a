//! Stable binary encoding for core values.
//!
//! Everything is little-endian and length-prefixed; no serde, no varint
//! cleverness. The encoding is a pure function of logical state:
//!
//! - `u32`/`u64`: little-endian fixed width.
//! - string: `u32` byte length + UTF-8 bytes.
//! - tuple: `u32` arity + that many `u32` constant ids.
//! - relation: `u32` arity + `u64` tuple count + tuples as flat `u32` ids, in
//!   **`dense()` (insertion) order** — decoding re-inserts in that order, so a
//!   round trip reproduces dense order bit-for-bit, which is what lets
//!   recovered handles stay bit-identical to the pre-crash process. Inside a
//!   database, decoding refuses any id at or past the universe's size.
//! - universe: `u64` count + constant names in id order (decoding re-interns
//!   in order and checks the ids come back out identical).
//! - database: universe + `u32` relation count + `(name, relation)` pairs in
//!   `BTreeMap` name order.
//!
//! Decoding is fully bounds-checked; any inconsistency surfaces as a
//! [`StoreError::CorruptFrame`] carrying the absolute file offset at which the
//! cursor stopped.

use crate::StoreError;
use inflog_core::{Database, Relation, Tuple, Universe};

/// Append-only encoder over a byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn put_tuple(&mut self, t: &Tuple) {
        self.put_u32(t.arity() as u32);
        for c in t.items() {
            self.put_u32(c.id());
        }
    }

    pub fn put_relation(&mut self, r: &Relation) {
        self.put_u32(r.arity() as u32);
        self.put_u64(r.len() as u64);
        for t in r.dense() {
            for c in t.items() {
                self.put_u32(c.id());
            }
        }
    }

    pub fn put_universe(&mut self, u: &Universe) {
        self.put_u64(u.len() as u64);
        for (_, name) in u.iter_named() {
            self.put_str(name);
        }
    }

    pub fn put_database(&mut self, db: &Database) {
        self.put_universe(db.universe());
        let rels: Vec<_> = db.iter().collect();
        self.put_u32(rels.len() as u32);
        for (name, rel) in rels {
            self.put_str(name);
            self.put_relation(rel);
        }
    }
}

/// Bounds-checked decoder over a payload slice.
///
/// `base` is the absolute file offset of the payload's first byte, so decode
/// errors report the position in the *file*, not in the frame.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    base: u64,
    path: String,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8], base: u64, path: &str) -> Self {
        Reader {
            buf,
            pos: 0,
            base,
            path: path.to_string(),
        }
    }

    /// Absolute file offset of the next unread byte.
    pub fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn corrupt(&self, detail: impl Into<String>) -> StoreError {
        self.corrupt_at(self.offset(), detail)
    }

    /// A [`StoreError::CorruptFrame`] in this reader's file at absolute
    /// offset `offset`.
    pub fn corrupt_at(&self, offset: u64, detail: impl Into<String>) -> StoreError {
        StoreError::CorruptFrame {
            path: self.path.clone(),
            offset,
            detail: detail.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(self.corrupt(format!(
                "need {n} more bytes, frame has {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn take_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    pub fn take_u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn take_u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u32` element count and refuses one the rest of the payload
    /// cannot hold at `min_bytes` per element, so a corrupt count fails
    /// here, before anything is reserved for it. The error names the
    /// count's own offset.
    pub fn take_count(&mut self, min_bytes: usize) -> Result<usize, StoreError> {
        let at = self.offset();
        let count = self.take_u32()? as usize;
        if count > self.remaining() / min_bytes {
            return Err(StoreError::CorruptFrame {
                path: self.path.clone(),
                offset: at,
                detail: format!(
                    "count {count} needs at least {min_bytes} bytes each, frame has {} left",
                    self.remaining()
                ),
            });
        }
        Ok(count)
    }

    pub fn take_str(&mut self) -> Result<String, StoreError> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s.to_string()),
            Err(e) => Err(self.corrupt(format!("invalid UTF-8 in string: {e}"))),
        }
    }

    pub fn take_tuple(&mut self) -> Result<Tuple, StoreError> {
        let arity = self.take_u32()? as usize;
        if arity > MAX_ARITY {
            return Err(self.corrupt(format!("implausible tuple arity {arity}")));
        }
        let mut ids = Vec::with_capacity(arity);
        for _ in 0..arity {
            ids.push(self.take_u32()?);
        }
        Ok(Tuple::from_ids(&ids))
    }

    /// Reads a relation whose constant ids must all lie below
    /// `universe_size`; an id at or past it is corrupt, reported at that
    /// id's own offset.
    pub fn take_relation(&mut self, universe_size: usize) -> Result<Relation, StoreError> {
        let arity = self.take_u32()? as usize;
        if arity > MAX_ARITY {
            return Err(self.corrupt(format!("implausible relation arity {arity}")));
        }
        let count = self.take_u64()? as usize;
        // Every tuple costs 4*arity bytes: reject counts the frame cannot hold
        // before allocating.
        if count
            .checked_mul(arity.max(1) * 4)
            .is_none_or(|need| need > self.remaining() + 8)
        {
            return Err(self.corrupt(format!(
                "relation claims {count} tuples of arity {arity}, frame too small"
            )));
        }
        let mut r = Relation::new(arity);
        let mut ids = vec![0u32; arity];
        for i in 0..count {
            for id in ids.iter_mut() {
                let at = self.offset();
                *id = self.take_u32()?;
                if *id as usize >= universe_size {
                    return Err(StoreError::CorruptFrame {
                        path: self.path.clone(),
                        offset: at,
                        detail: format!(
                            "constant id {id} out of range for a universe of {universe_size}"
                        ),
                    });
                }
            }
            if !r.insert(Tuple::from_ids(&ids)) {
                return Err(self.corrupt(format!("duplicate tuple at index {i} in relation")));
            }
        }
        Ok(r)
    }

    pub fn take_universe(&mut self) -> Result<Universe, StoreError> {
        let count = self.take_u64()? as usize;
        let mut u = Universe::new();
        for i in 0..count {
            let name = self.take_str()?;
            let c = u.intern(&name);
            if c.id() as usize != i {
                return Err(self.corrupt(format!(
                    "duplicate constant name {name:?} at id {i} in universe"
                )));
            }
        }
        Ok(u)
    }

    pub fn take_database(&mut self) -> Result<Database, StoreError> {
        let universe = self.take_universe()?;
        let mut db = Database::with_universe(universe);
        let rels = self.take_u32()? as usize;
        let mut prev: Option<String> = None;
        for _ in 0..rels {
            let name = self.take_str()?;
            if prev.as_deref().is_some_and(|p| p >= name.as_str()) {
                return Err(self.corrupt(format!("relation names out of order at {name:?}")));
            }
            let rel = self.take_relation(db.universe().len())?;
            db.set_relation(&name, rel);
            prev = Some(name);
        }
        Ok(db)
    }

    /// Fails unless the whole payload was consumed — trailing garbage in a
    /// checksummed frame means the encoder and decoder disagree.
    pub fn finish(self) -> Result<(), StoreError> {
        if self.remaining() != 0 {
            return Err(self.corrupt(format!("{} trailing bytes after payload", self.remaining())));
        }
        Ok(())
    }
}

/// Upper bound on plausible arities, used to reject corrupt headers before
/// they turn into huge allocations.
const MAX_ARITY: usize = 1 << 16;

#[cfg(test)]
mod tests {
    use super::*;
    use inflog_core::Const;

    fn t(ids: &[u32]) -> Tuple {
        Tuple::from_ids(ids)
    }

    #[test]
    fn primitive_round_trip() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, 0, "test");
        assert_eq!(r.take_u8().unwrap(), 7);
        assert_eq!(r.take_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.take_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.take_str().unwrap(), "héllo");
        r.finish().unwrap();
    }

    #[test]
    fn relation_round_trip_preserves_dense_order() {
        let mut rel = Relation::new(2);
        rel.insert(t(&[3, 1]));
        rel.insert(t(&[0, 2]));
        rel.insert(t(&[1, 1]));
        let mut w = Writer::new();
        w.put_relation(&rel);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, 0, "test");
        let back = r.take_relation(4).unwrap();
        r.finish().unwrap();
        assert_eq!(back.dense(), rel.dense());
    }

    #[test]
    fn database_round_trip() {
        let mut db = Database::new();
        for name in ["a", "b", "c"] {
            db.universe_mut().intern(name);
        }
        db.insert_named_fact("E", &["a", "b"]).unwrap();
        db.insert_named_fact("E", &["b", "c"]).unwrap();
        db.insert_named_fact("Start", &["a"]).unwrap();
        let mut w = Writer::new();
        w.put_database(&db);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, 0, "test");
        let back = r.take_database().unwrap();
        r.finish().unwrap();
        assert_eq!(back, db);
        // Dense order inside each relation survives too.
        assert_eq!(
            back.relation("E").unwrap().dense(),
            db.relation("E").unwrap().dense()
        );
        // Universe ids are stable.
        assert_eq!(back.universe().lookup("c"), db.universe().lookup("c"));
    }

    #[test]
    fn truncated_payload_reports_offset() {
        let mut w = Writer::new();
        w.put_str("truncate me");
        let mut bytes = w.into_bytes();
        bytes.truncate(6);
        let mut r = Reader::new(&bytes, 100, "test");
        match r.take_str() {
            Err(StoreError::CorruptFrame { offset, .. }) => assert_eq!(offset, 104),
            other => panic!("expected CorruptFrame, got {other:?}"),
        }
    }

    #[test]
    fn implausible_arity_rejected() {
        let mut w = Writer::new();
        w.put_u32(u32::MAX); // arity
        w.put_u64(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, 0, "test");
        assert!(matches!(
            r.take_relation(usize::MAX),
            Err(StoreError::CorruptFrame { .. })
        ));
    }

    #[test]
    fn oversized_count_rejected_without_allocating() {
        let mut w = Writer::new();
        w.put_u32(2); // arity
        w.put_u64(u64::MAX / 2); // tuple count far beyond the frame
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, 0, "test");
        assert!(matches!(
            r.take_relation(usize::MAX),
            Err(StoreError::CorruptFrame { .. })
        ));
    }

    #[test]
    fn oversized_wal_fact_count_rejected_without_allocating() {
        let mut w = Writer::new();
        w.put_u64(1); // epoch
        w.put_u8(1); // insert
        w.put_u32(u32::MAX); // fact count, and no facts follow
        let bytes = w.into_bytes();
        let base = 100;
        match crate::wal::WalRecord::decode(Reader::new(&bytes, base, "test")) {
            // Refused at the count itself (after epoch and op), not at the
            // first missing fact.
            Err(StoreError::CorruptFrame { offset, .. }) => assert_eq!(offset, base + 9),
            other => panic!("expected CorruptFrame, got {other:?}"),
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = Writer::new();
        w.put_u32(5);
        w.put_u8(9);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes, 0, "test");
        assert_eq!(r.take_u32().unwrap(), 5);
        assert!(matches!(r.finish(), Err(StoreError::CorruptFrame { .. })));
    }

    #[test]
    fn tuple_round_trip() {
        for ids in [&[][..], &[4][..], &[1, 2, 3, 4, 5, 6][..]] {
            let mut w = Writer::new();
            w.put_tuple(&t(ids));
            let bytes = w.into_bytes();
            let mut r = Reader::new(&bytes, 0, "test");
            let back = r.take_tuple().unwrap();
            r.finish().unwrap();
            assert_eq!(
                back.items(),
                ids.iter().map(|&i| Const(i)).collect::<Vec<_>>()
            );
        }
    }
}
