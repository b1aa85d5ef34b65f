//! The sequential extendible hash file.

use std::sync::Arc;

use ceh_storage::{mergeable, too_empty, Buckets, Directory, PageStore, Retire};
use ceh_types::bits::{partner_bit, partner_commonbits};
use ceh_types::{
    hash_key, BucketLink, DeleteOutcome, Error, HashFileConfig, InsertOutcome, Key, ManagerId,
    PageId, Pseudokey, Record, Result, Value,
};

use crate::snapshot::FileSnapshot;

/// The sequential (single-threaded) extendible hash file of Fagin et al.
///
/// Updates take `&mut self`: this is the algorithm *before* the paper's
/// contribution. Concurrent use goes through `ceh-core`. The directory
/// is the one every file uses ([`Directory`]).
///
/// ```
/// use ceh_sequential::SequentialHashFile;
/// use ceh_types::{HashFileConfig, InsertOutcome, Key, Value};
///
/// let mut file = SequentialHashFile::new(HashFileConfig::tiny())?;
/// for k in 0..100 {
///     assert_eq!(file.insert(Key(k), Value(k * 2))?, InsertOutcome::Inserted);
/// }
/// assert_eq!(file.find(Key(40))?, Some(Value(80)));
/// assert!(file.depth() > 0, "tiny buckets forced directory growth");
/// file.check_invariants()?;
/// # Ok::<(), ceh_types::Error>(())
/// ```
pub struct SequentialHashFile {
    buckets: Buckets,
    cfg: HashFileConfig,
    hasher: fn(Key) -> Pseudokey,
    dir: Directory,
    len: usize,
}

impl SequentialHashFile {
    /// Create a file over its own private page store. The configured
    /// `io_latency_ns` is applied to every page read/write.
    pub fn new(cfg: HashFileConfig) -> Result<Self> {
        let buckets = Buckets::new(&cfg, &Default::default());
        Self::with_buckets(cfg, buckets, hash_key)
    }

    /// Create a file over a caller-supplied store with a custom pseudokey
    /// function (the figure goldens pass [`ceh_types::identity_pseudokey`]).
    pub fn with_store(
        cfg: HashFileConfig,
        store: Arc<PageStore>,
        hasher: fn(Key) -> Pseudokey,
    ) -> Result<Self> {
        Self::with_buckets(cfg, store.into(), hasher)
    }

    /// Initial state: depth 0, a single bucket with localdepth 0.
    fn with_buckets(
        cfg: HashFileConfig,
        buckets: Buckets,
        hasher: fn(Key) -> Pseudokey,
    ) -> Result<Self> {
        cfg.validate()?;
        let dir = Directory::new(cfg.max_depth, buckets.create_root(&cfg)?)?;
        Ok(SequentialHashFile {
            buckets,
            cfg,
            hasher,
            dir,
            len: 0,
        })
    }

    /// Rebuild a file from an existing store by scanning its pages
    /// ([`Buckets::recover`], which a durable concurrent file also runs,
    /// over the store its write-ahead log recovered).
    ///
    /// The directory is volatile state — everything needed to rebuild it
    /// (`localdepth`, `commonbits`, the `next` chain) is persisted in the
    /// buckets themselves, which is a deliberate property of the page
    /// layout. Pages that fail to decode (poisoned free pages) are
    /// returned to the free list; tombstones (crash debris from an
    /// unfinished Solution-2 merge) are collected; over a durable store
    /// both are logged. The rebuilt structure is
    /// invariant-checked before being returned.
    ///
    /// ```no_run
    /// use ceh_sequential::SequentialHashFile;
    /// use ceh_storage::{PageStore, PageStoreConfig};
    /// use ceh_types::{hash_key, HashFileConfig, Key, Value};
    /// use std::sync::Arc;
    ///
    /// let cfg = HashFileConfig::default();
    /// let store = Arc::new(PageStore::new(PageStoreConfig {
    ///     page_size: ceh_types::Bucket::page_size_for(cfg.bucket_capacity),
    ///     ..Default::default()
    /// }));
    /// let mut file = SequentialHashFile::with_store(cfg.clone(), Arc::clone(&store), hash_key)?;
    /// file.insert(Key(42), Value(7))?;
    /// drop(file); // only the store remains
    /// let file = SequentialHashFile::recover(cfg, store, hash_key)?;
    /// assert_eq!(file.find(Key(42))?, Some(Value(7)));
    /// # Ok::<(), ceh_types::Error>(())
    /// ```
    pub fn recover(
        cfg: HashFileConfig,
        buckets: impl Into<Buckets>,
        hasher: fn(Key) -> Pseudokey,
    ) -> Result<Self> {
        cfg.validate()?;
        let buckets = buckets.into();
        let (dir, len) = buckets.recover(&cfg)?;
        let file = SequentialHashFile {
            buckets,
            cfg,
            hasher,
            dir,
            len,
        };
        file.check_invariants()?;
        Ok(file)
    }

    /// Current directory depth.
    pub fn depth(&self) -> u32 {
        self.dir.depth()
    }

    /// Current `depthcount` (buckets at full depth).
    pub fn depthcount(&self) -> u32 {
        self.dir.depthcount()
    }

    /// Number of records stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the file empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configuration in use.
    pub fn config(&self) -> &HashFileConfig {
        &self.cfg
    }

    /// The underlying page store (shared for I/O accounting).
    pub fn store(&self) -> &Arc<PageStore> {
        self.buckets.store()
    }

    fn index(&self, pk: Pseudokey) -> PageId {
        self.dir.lookup(pk).1
    }

    /// Find a key.
    pub fn find(&self, key: Key) -> Result<Option<Value>> {
        let pk = (self.hasher)(key);
        let page = self.index(pk);
        let bucket = self.buckets.getbucket(page)?;
        debug_assert!(
            bucket.owns(pk),
            "sequential file can never have the wrong bucket"
        );
        Ok(bucket.search(key))
    }

    /// Insert a key. Returns [`InsertOutcome::AlreadyPresent`] (without
    /// overwriting) if the key exists.
    pub fn insert(&mut self, key: Key, value: Value) -> Result<InsertOutcome> {
        let pk = (self.hasher)(key);
        let z = Record { key, value };
        // The paper's insert retries after a split that failed to make
        // room ("if (!done) insert(z)"); the loop is that recursion.
        loop {
            let oldpage = self.index(pk);
            let mut current = self.buckets.getbucket(oldpage)?;
            if current.search(key).is_some() {
                return Ok(InsertOutcome::AlreadyPresent);
            }
            if current.count() < self.cfg.bucket_capacity {
                current.add(z);
                self.buckets.putbucket(oldpage, &current)?;
                self.len += 1;
                return Ok(InsertOutcome::Inserted);
            }
            // Current is full: split (doubling the directory first if the
            // bucket is already at full depth).
            if current.localdepth == self.dir.depth() {
                self.dir.double()?;
            }
            let buckets = &self.buckets;
            let here = ManagerId::NONE;
            let split = buckets.split(oldpage, here, z, &self.cfg, self.hasher, |half2| {
                buckets.place(&half2).map(|p| BucketLink::new(here, p))
            })?;
            let (localdepth, done) = (split.localdepth + 1, split.done);
            self.dir.update_one_side(split.half2.page, localdepth, pk);
            self.dir.count_split(localdepth);
            if done {
                self.len += 1;
                return Ok(InsertOutcome::Inserted);
            }
        }
    }

    /// Delete a key, merging "too empty" buckets with their partners per
    /// §2.2.
    pub fn delete(&mut self, key: Key) -> Result<DeleteOutcome> {
        let pk = (self.hasher)(key);
        let (depth, oldpage) = self.dir.lookup(pk);
        let mut current = self.buckets.getbucket(oldpage)?;

        if current.search(key).is_none() {
            return Ok(DeleteOutcome::NotFound);
        }

        // Unless "current [is] not too empty" (Figure 7's count > 1, with
        // the configured merge threshold) or too shallow to have a
        // partner, try to merge with the partner (w.r.t. localdepth).
        let (d, count) = (current.localdepth, current.count());
        let brother = if too_empty(&self.cfg, count, d) {
            let page = self.dir.index(pk.low_bits(depth) ^ partner_bit(d));
            let brother = self.buckets.getbucket(page)?;
            mergeable(&self.cfg, d, count, brother.localdepth, brother.count())
                .then_some((page, brother))
        } else {
            None
        };
        current.remove(key);
        let Some((partner_page, brother)) = brother else {
            // "Not possible to merge these two": the local depths differ,
            // or the records do not fit in one bucket.
            self.buckets.putbucket(oldpage, &current)?;
            self.len -= 1;
            return Ok(DeleteOutcome::Deleted);
        };
        debug_assert_eq!(
            brother.commonbits,
            partner_commonbits(current.commonbits, d)
        );

        // Merge: the "0" partner (partner bit clear) survives, on its
        // own page; the other page is freed.
        let (z, partner) = ((oldpage, &current), (partner_page, &brother));
        let (zero, one) = match current.commonbits & partner_bit(d) {
            0 => (z, partner),
            _ => (partner, z),
        };
        self.dir.count_merge(d);
        self.buckets.merge(zero, one, Retire::Free)?;
        // Redirect every entry that pointed at the freed bucket: the
        // halves then agree, and halving discards nothing live.
        self.dir.update_one_side(zero.0, d, pk);
        debug_assert!(
            !self.dir.halvable() || {
                let entries = self.dir.entries_snapshot();
                let (bottom, top) = entries.split_at(entries.len() / 2);
                bottom == top
            },
            "halving with distinct top/bottom halves"
        );
        self.dir.halve();
        self.len -= 1;
        Ok(DeleteOutcome::Deleted)
    }

    /// Take a structural snapshot (testing / figures / invariants).
    pub fn snapshot(&self) -> Result<FileSnapshot> {
        FileSnapshot::capture(&self.buckets, &self.dir, self.cfg.bucket_capacity)
    }

    /// Check every structural invariant, returning a description of the
    /// first violation: see [`FileSnapshot::check_invariants`] and
    /// [`FileSnapshot::check_links`].
    pub fn check_invariants(&self) -> Result<()> {
        let snap = self.snapshot()?;
        snap.check_invariants(self.hasher)?;
        snap.check_links()?;
        if snap.total_records() != self.len {
            return Err(Error::Corrupt(format!(
                "len {} but snapshot holds {} records",
                self.len,
                snap.total_records()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceh_types::{identity_pseudokey, Bucket};

    fn tiny() -> SequentialHashFile {
        SequentialHashFile::new(HashFileConfig::tiny()).unwrap()
    }

    #[test]
    fn empty_file_finds_nothing() {
        let f = tiny();
        assert_eq!(f.find(Key(1)).unwrap(), None);
        assert!(f.is_empty());
        f.check_invariants().unwrap();
    }

    #[test]
    fn insert_then_find() {
        let mut f = tiny();
        assert_eq!(
            f.insert(Key(1), Value(10)).unwrap(),
            InsertOutcome::Inserted
        );
        assert_eq!(
            f.insert(Key(1), Value(99)).unwrap(),
            InsertOutcome::AlreadyPresent
        );
        assert_eq!(
            f.find(Key(1)).unwrap(),
            Some(Value(10)),
            "insert does not overwrite"
        );
        assert_eq!(f.len(), 1);
        f.check_invariants().unwrap();
    }

    #[test]
    fn grows_through_splits_and_doubling() {
        let mut f = tiny();
        for k in 0..200u64 {
            f.insert(Key(k), Value(k * 2)).unwrap();
            f.check_invariants().unwrap();
        }
        assert_eq!(f.len(), 200);
        assert!(
            f.depth() >= 5,
            "200 keys / capacity 2 needs a deep directory"
        );
        for k in 0..200u64 {
            assert_eq!(f.find(Key(k)).unwrap(), Some(Value(k * 2)), "key {k}");
        }
    }

    #[test]
    fn shrinks_through_merges_and_halving() {
        let mut f = tiny();
        for k in 0..200u64 {
            f.insert(Key(k), Value(k)).unwrap();
        }
        let peak_depth = f.depth();
        for k in 0..200u64 {
            assert_eq!(f.delete(Key(k)).unwrap(), DeleteOutcome::Deleted);
            f.check_invariants().unwrap();
        }
        assert!(f.is_empty());
        assert!(f.depth() < peak_depth, "directory should have shrunk");
        assert_eq!(f.delete(Key(0)).unwrap(), DeleteOutcome::NotFound);
    }

    #[test]
    fn delete_missing_key_is_notfound_even_in_empty_bucket() {
        let mut f = tiny();
        f.insert(Key(0b000), Value(0)).unwrap();
        assert_eq!(f.delete(Key(0xDEAD_BEEF)).unwrap(), DeleteOutcome::NotFound);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn directory_full_surfaces() {
        let cfg = HashFileConfig::tiny()
            .with_max_depth(2)
            .with_bucket_capacity(1);
        let mut f = SequentialHashFile::new(cfg).unwrap();
        // With identity-ish growth, capacity 1 and max_depth 2 the file
        // holds at most 4 buckets; a fifth colliding insert must error.
        let mut err = None;
        for k in 0..64u64 {
            match f.insert(Key(k), Value(k)) {
                Ok(_) => {}
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert_eq!(err, Some(Error::DirectoryFull { max_depth: 2 }));
    }

    #[test]
    fn identity_hash_matches_figure1_shape() {
        // Figure 1: depth 2, four entries; keys grouped by their low bits.
        let cfg = HashFileConfig::tiny().with_bucket_capacity(3);
        let store = PageStore::new_shared(ceh_storage::PageStoreConfig {
            page_size: Bucket::page_size_for(3),
            ..Default::default()
        });
        let mut f = SequentialHashFile::with_store(cfg, store, identity_pseudokey).unwrap();
        // Insert keys with low bits 00,01,10,11 until depth reaches 2.
        for k in [0b000u64, 0b100, 0b001, 0b101, 0b010, 0b110, 0b011, 0b111] {
            f.insert(Key(k), Value(k)).unwrap();
            f.check_invariants().unwrap();
        }
        assert!(f.depth() >= 1);
        for k in [0b000u64, 0b100, 0b001, 0b101, 0b010, 0b110, 0b011, 0b111] {
            assert_eq!(f.find(Key(k)).unwrap(), Some(Value(k)));
        }
    }

    #[test]
    fn depthcount_matches_reality_throughout() {
        let mut f = tiny();
        let keys: Vec<u64> = (0..120).map(|i| i * 2654435761 % 1000).collect();
        for &k in &keys {
            f.insert(Key(k), Value(k)).unwrap();
            let snap = f.snapshot().unwrap();
            assert_eq!(
                f.depthcount(),
                snap.count_buckets_at_full_depth(),
                "after inserting {k}"
            );
        }
        for &k in &keys {
            let _ = f.delete(Key(k)).unwrap();
            let snap = f.snapshot().unwrap();
            assert_eq!(
                f.depthcount(),
                snap.count_buckets_at_full_depth(),
                "after deleting {k}"
            );
        }
    }

    /// A merge leaves the survivor linked to what followed the retired
    /// partner, not to the freed page, and keeps the "0" side's `prev`.
    #[test]
    fn merge_survivor_links_past_the_freed_partner() {
        let cfg = HashFileConfig::tiny().with_bucket_capacity(2);
        let store = PageStore::new_shared(Buckets::page_config(&cfg));
        let mut f = SequentialHashFile::with_store(cfg, store, identity_pseudokey).unwrap();
        for k in [0b00u64, 0b10, 0b01, 0b11, 0b100, 0b101] {
            f.insert(Key(k), Value(k)).unwrap();
        }
        let (p00, p01, p11) = (
            f.index(Pseudokey(0b00)),
            f.index(Pseudokey(0b01)),
            f.index(Pseudokey(0b11)),
        );
        assert_eq!(f.buckets.getbucket(p01).unwrap().next, p11);
        f.delete(Key(0b101)).unwrap();
        // 01:{01} merges with its "1" partner 11, whose page is freed.
        f.delete(Key(0b01)).unwrap();
        assert_eq!(f.index(Pseudokey(0b11)), p01);
        let survivor = f.buckets.getbucket(p01).unwrap();
        assert_eq!(survivor.next, PageId::NULL, "next skips the freed page");
        assert_eq!(survivor.prev, p00);
        f.check_invariants().unwrap();
    }

    #[test]
    fn split_bucket_distributes_and_links() {
        use ceh_types::ManagerId;
        let mut b = Bucket::new(1, 0b1);
        // identity pseudokeys: bit 2 decides the half.
        b.records.push(Record::new(0b001, 1)); // bit2=0 → half1
        b.records.push(Record::new(0b011, 2)); // bit2=1 → half2
        b.next = PageId(42);
        let (h1, h2, done) = b.split(
            Key(0b111),
            Value(3),
            2,
            identity_pseudokey,
            PageId(5),
            ManagerId::NONE,
            PageId(7),
            ManagerId::NONE,
        );
        assert!(done);
        assert_eq!(h1.localdepth, 2);
        assert_eq!(h2.localdepth, 2);
        assert_eq!(h1.commonbits, 0b01);
        assert_eq!(h2.commonbits, 0b11);
        assert_eq!(h1.next, PageId(7), "old bucket points at the new one");
        assert_eq!(h2.next, PageId(42), "new bucket inherits the old next");
        assert_eq!(h2.prev, PageId(5), "new bucket remembers who it split from");
        assert_eq!(h1.records.len(), 1);
        assert_eq!(h2.records.len(), 2); // 0b011 plus the inserted 0b111
        assert_eq!(h1.version, b.version + 1);
    }
}
