//! Structural snapshots and the invariant checker.
//!
//! A [`FileSnapshot`] is a quiescent, decoded copy of the whole file —
//! directory and buckets — used by golden tests (Figures 1–4), the
//! sequential invariant checker, and the pretty-printer that renders
//! paper-style diagrams.

use std::collections::BTreeMap;

use ceh_storage::{Buckets, Directory};
use ceh_types::bits::mask;
use ceh_types::bucket::{check_links, Bucket};
use ceh_types::{BucketLink, Error, Key, ManagerId, PageId, Pseudokey, Result};

/// One bucket as captured in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BucketView {
    /// The bucket's page address.
    pub page: PageId,
    /// The decoded bucket.
    pub bucket: Bucket,
}

/// A quiescent structural copy of an extendible hash file.
#[derive(Debug, Clone)]
pub struct FileSnapshot {
    /// Directory depth at capture time.
    pub depth: u32,
    /// `depthcount` at capture time.
    pub depthcount: u32,
    /// The `2^depth` directory entries.
    pub entries: Vec<PageId>,
    /// Every distinct bucket reachable from the directory, keyed by page.
    pub buckets: BTreeMap<PageId, Bucket>,
    /// Bucket capacity in force.
    pub capacity: usize,
}

impl FileSnapshot {
    /// Decode the file's current state: the buckets `dir` names.
    pub fn capture(pages: &Buckets, dir: &Directory, capacity: usize) -> Result<FileSnapshot> {
        let entries = dir.entries_snapshot();
        let mut buckets = BTreeMap::new();
        for &p in &entries {
            if let std::collections::btree_map::Entry::Vacant(e) = buckets.entry(p) {
                e.insert(pages.getbucket(p)?);
            }
        }
        Ok(FileSnapshot {
            depth: dir.depth(),
            depthcount: dir.depthcount(),
            entries,
            buckets,
            capacity,
        })
    }

    /// Total records across all buckets.
    pub fn total_records(&self) -> usize {
        self.buckets.values().map(|b| b.records.len()).sum()
    }

    /// Number of distinct buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Buckets whose `localdepth == depth` — what `depthcount` should be.
    pub fn count_buckets_at_full_depth(&self) -> u32 {
        self.buckets
            .values()
            .filter(|b| b.localdepth == self.depth)
            .count() as u32
    }

    /// All keys in the file, sorted (oracle comparisons).
    pub fn all_keys(&self) -> Vec<Key> {
        let mut v: Vec<Key> = self
            .buckets
            .values()
            .flat_map(|b| b.records.iter().map(|r| r.key))
            .collect();
        v.sort();
        v
    }

    /// Check the Fagin-79 structural invariants, returning a descriptive
    /// error on the first violation:
    ///
    /// 1. the directory has exactly `2^depth` entries;
    /// 2. every entry `i` points at a bucket whose `commonbits` equal
    ///    `i & mask(localdepth)` and whose `localdepth ≤ depth`;
    /// 3. each bucket is referenced by exactly `2^(depth - localdepth)`
    ///    entries;
    /// 4. every record's pseudokey matches its bucket's commonbits;
    /// 5. no bucket exceeds capacity;
    /// 6. `depthcount` equals the number of buckets at full depth;
    /// 7. no key appears twice.
    pub fn check_invariants(&self, hasher: fn(Key) -> Pseudokey) -> Result<()> {
        let size = 1usize << self.depth;
        if self.entries.len() != size {
            return Err(Error::Corrupt(format!(
                "directory has {} entries, depth {} wants {size}",
                self.entries.len(),
                self.depth
            )));
        }
        let mut refcounts: BTreeMap<PageId, usize> = BTreeMap::new();
        for (i, &p) in self.entries.iter().enumerate() {
            let b = self
                .buckets
                .get(&p)
                .ok_or_else(|| Error::Corrupt(format!("entry {i} points at missing {p}")))?;
            if b.localdepth > self.depth {
                return Err(Error::Corrupt(format!(
                    "{p}: localdepth {} exceeds depth {}",
                    b.localdepth, self.depth
                )));
            }
            if (i as u64) & mask(b.localdepth) != b.commonbits {
                return Err(Error::Corrupt(format!(
                    "entry {i:0width$b} points at {p} with commonbits {:0ldw$b}",
                    b.commonbits,
                    width = self.depth as usize,
                    ldw = b.localdepth as usize,
                )));
            }
            *refcounts.entry(p).or_insert(0) += 1;
        }
        for (&p, b) in &self.buckets {
            let expected = 1usize << (self.depth - b.localdepth);
            let got = refcounts.get(&p).copied().unwrap_or(0);
            if got != expected {
                return Err(Error::Corrupt(format!(
                    "{p} (localdepth {}) referenced by {got} entries, expected {expected}",
                    b.localdepth
                )));
            }
            if b.records.len() > self.capacity {
                return Err(Error::Corrupt(format!(
                    "{p} holds {} records, capacity {}",
                    b.records.len(),
                    self.capacity
                )));
            }
            for r in &b.records {
                let pk = hasher(r.key);
                if !pk.matches(b.commonbits, b.localdepth) {
                    return Err(Error::Corrupt(format!(
                        "{p}: key {:?} with pseudokey {pk:?} does not match commonbits",
                        r.key
                    )));
                }
            }
        }
        if self.depthcount != self.count_buckets_at_full_depth() {
            return Err(Error::Corrupt(format!(
                "depthcount {} but {} buckets at full depth",
                self.depthcount,
                self.count_buckets_at_full_depth()
            )));
        }
        let keys = self.all_keys();
        for w in keys.windows(2) {
            if w[0] == w[1] {
                return Err(Error::Corrupt(format!("duplicate key {:?}", w[0])));
            }
        }
        Ok(())
    }

    /// Check the link invariants of [`ceh_types::bucket::check_links`]:
    /// the `next` chain from directory entry 0 visits every bucket in
    /// split order, and every `prev` link names the bucket's "0" side.
    pub fn check_links(&self) -> Result<()> {
        let head = self
            .entries
            .first()
            .ok_or_else(|| Error::Corrupt("empty directory".into()))?;
        check_links(
            BucketLink::new(ManagerId::NONE, *head),
            self.buckets.len(),
            |link| self.buckets.get(&link.page),
        )
    }

    /// Render a paper-style diagram of the structure (cf. Figures 1–4):
    ///
    /// ```text
    /// depth 2, depthcount 2
    /// [00] -> p0 (localdepth 1, commonbits 0) {0, 2, 4}
    /// [01] -> p1 (localdepth 2, commonbits 01) {1, 5}
    /// [10] -> p0
    /// [11] -> p2 (localdepth 2, commonbits 11) {3}
    /// ```
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "depth {}, depthcount {}", self.depth, self.depthcount);
        let mut seen = std::collections::BTreeSet::new();
        for (i, &p) in self.entries.iter().enumerate() {
            let idx = format!("{:0width$b}", i, width = self.depth.max(1) as usize);
            if seen.insert(p) {
                let b = &self.buckets[&p];
                let mut keys: Vec<u64> = b.records.iter().map(|r| r.key.0).collect();
                keys.sort();
                let keys = keys
                    .iter()
                    .map(|k| k.to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                let _ = writeln!(
                    out,
                    "[{idx}] -> {p} (localdepth {}, commonbits {:0ldw$b}) {{{keys}}}",
                    b.localdepth,
                    b.commonbits,
                    ldw = b.localdepth.max(1) as usize,
                );
            } else {
                let _ = writeln!(out, "[{idx}] -> {p}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceh_types::{identity_pseudokey, Record};

    fn snapshot_of(
        entries: Vec<PageId>,
        buckets: Vec<(PageId, Bucket)>,
        depth: u32,
    ) -> FileSnapshot {
        let depthcount = buckets
            .iter()
            .filter(|(_, b)| b.localdepth == depth)
            .count() as u32;
        FileSnapshot {
            depth,
            depthcount,
            entries,
            buckets: buckets.into_iter().collect(),
            capacity: 4,
        }
    }

    fn two_bucket_depth1() -> FileSnapshot {
        let mut b0 = Bucket::new(1, 0);
        b0.records.push(Record::new(0b10, 1));
        let mut b1 = Bucket::new(1, 1);
        b1.records.push(Record::new(0b11, 2));
        snapshot_of(
            vec![PageId(0), PageId(1)],
            vec![(PageId(0), b0), (PageId(1), b1)],
            1,
        )
    }

    #[test]
    fn valid_snapshot_passes() {
        two_bucket_depth1()
            .check_invariants(identity_pseudokey)
            .unwrap();
    }

    #[test]
    fn wrong_commonbits_caught() {
        let mut s = two_bucket_depth1();
        s.buckets.get_mut(&PageId(1)).unwrap().commonbits = 0;
        assert!(s.check_invariants(identity_pseudokey).is_err());
    }

    #[test]
    fn misplaced_record_caught() {
        let mut s = two_bucket_depth1();
        // key 0b10 (even) placed in the odd bucket.
        s.buckets
            .get_mut(&PageId(1))
            .unwrap()
            .records
            .push(Record::new(0b100, 9));
        assert!(s.check_invariants(identity_pseudokey).is_err());
    }

    #[test]
    fn wrong_depthcount_caught() {
        let mut s = two_bucket_depth1();
        s.depthcount = 0;
        assert!(s.check_invariants(identity_pseudokey).is_err());
    }

    #[test]
    fn duplicate_key_caught() {
        let mut s = two_bucket_depth1();
        s.buckets
            .get_mut(&PageId(0))
            .unwrap()
            .records
            .push(Record::new(0b10, 7));
        // duplicate within a bucket:
        assert!(s.check_invariants(identity_pseudokey).is_err());
    }

    #[test]
    fn overfull_bucket_caught() {
        let mut s = two_bucket_depth1();
        s.capacity = 1;
        s.buckets
            .get_mut(&PageId(0))
            .unwrap()
            .records
            .push(Record::new(0b100, 9));
        assert!(s.check_invariants(identity_pseudokey).is_err());
    }

    #[test]
    fn render_shows_structure() {
        let s = two_bucket_depth1();
        let text = s.render();
        assert!(text.contains("depth 1"));
        assert!(text.contains("[0] -> p0"));
        assert!(text.contains("[1] -> p1"));
        assert!(text.contains("{2}"), "keys listed: {text}");
    }
}
