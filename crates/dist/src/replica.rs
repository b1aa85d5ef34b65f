//! The directory replica and the version-ordered update algebra.
//!
//! "The ordering of different directory modifications due to operations
//! on the same bucket should be the same across all copies and determined
//! by the order in which the bucket operations are performed. Each bucket
//! contains a version number that increases with each update that causes
//! a directory update." (§3)
//!
//! A [`DirUpdate`] carries the *expected* (pre-update) versions of the
//! entries it rewrites and the new version it installs. [`DirReplica::apply`]
//! returns:
//!
//! * [`ApplyResult::Applied`] — versions matched; the entries now carry
//!   the new version;
//! * [`ApplyResult::Parked`] — some affected entry is older than
//!   expected: a predecessor update has not arrived yet. The caller
//!   parks the message and retries after each successful application
//!   (`save` / `ReleaseSaved` in Figure 13);
//! * [`ApplyResult::Stale`] — the entries are already at (or past) the
//!   update's new version: a duplicate or an echo of something this
//!   replica has seen; drop it.
//!
//! This is exactly the machinery that defuses the paper's example: a
//! split immediately followed by a merge of the two halves, heard by a
//! replica in the opposite order. The merge expects the post-split
//! versions, parks, the split applies, the merge follows — and only then
//! may the garbage bucket be deallocated.

use std::cell::Cell;
use std::sync::atomic::Ordering;

use ceh_storage::{Directory, DirectoryEntry};
use ceh_types::bits::mask;
use ceh_types::{BucketLink, ManagerId, PageId, Pseudokey, Result};

/// One directory entry: a bucket link plus the version it was last
/// updated at (Figure 10 shows "a version field introduced into each
/// bucket and each directory entry").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirEntry {
    /// The bucket manager owning the page.
    pub mgr: ManagerId,
    /// The page address at that manager.
    pub page: PageId,
    /// Version of the bucket this entry last tracked.
    pub version: u64,
}

impl DirEntry {
    /// The entry for `link` at `version`.
    pub fn new(link: BucketLink, version: u64) -> Self {
        DirEntry {
            mgr: link.manager,
            page: link.page,
            version,
        }
    }
}

/// A replica belongs to one directory manager's thread, so its entries
/// are plain cells: nothing reads them concurrently, and the orderings
/// the concurrent files need have nothing to order.
impl DirectoryEntry for DirEntry {
    type Cell = Cell<DirEntry>;
    const NULL: DirEntry = DirEntry {
        mgr: ManagerId::NONE,
        page: PageId::NULL,
        version: 0,
    };

    fn cell(self) -> Cell<DirEntry> {
        Cell::new(self)
    }

    fn load(cell: &Cell<DirEntry>, _: Ordering) -> DirEntry {
        cell.get()
    }

    fn store(cell: &Cell<DirEntry>, entry: DirEntry, _: Ordering) {
        cell.set(entry)
    }
}

/// Outcome of [`DirReplica::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyResult {
    /// The update took effect.
    Applied,
    /// A predecessor update is missing; retry after other applications.
    Parked,
    /// Already applied (duplicate); drop.
    Stale,
}

/// A directory modification caused by one bucket-level operation.
#[derive(Debug, Clone)]
pub enum DirUpdate {
    /// A bucket split: the "1"-side entries at depth `old_localdepth + 1`
    /// move to `new_bucket`.
    Split {
        /// Pseudokey identifying the affected entry group.
        pseudokey: Pseudokey,
        /// The split bucket's localdepth *before* the split.
        old_localdepth: u32,
        /// The split bucket's version before the split.
        expected_version: u64,
        /// Version of both halves after the split (`expected + 1`).
        new_version: u64,
        /// Where the new "1" half lives.
        new_bucket: BucketLink,
    },
    /// A merge: all entries of the pair move to `merged` at
    /// `old_localdepth - 1`.
    Merge {
        /// Pseudokey identifying the affected entry group.
        pseudokey: Pseudokey,
        /// The partners' common localdepth before the merge.
        old_localdepth: u32,
        /// Pre-merge version of the surviving "0" partner.
        expected_v0: u64,
        /// Pre-merge version of the deleted "1" partner.
        expected_v1: u64,
        /// The survivor's version after the merge.
        new_version: u64,
        /// The surviving bucket.
        merged: BucketLink,
        /// The tombstone page to garbage-collect once every replica has
        /// applied and acknowledged this update.
        garbage: BucketLink,
    },
}

impl DirUpdate {
    /// The version this update installs.
    pub fn new_version(&self) -> u64 {
        match self {
            DirUpdate::Split { new_version, .. } | DirUpdate::Merge { new_version, .. } => {
                *new_version
            }
        }
    }

    /// The garbage link, for merge updates.
    pub fn garbage(&self) -> Option<BucketLink> {
        match self {
            DirUpdate::Split { .. } => None,
            DirUpdate::Merge { garbage, .. } => Some(*garbage),
        }
    }

    /// Is this a merge (delete-side) update? Merge copyupdates get
    /// deferred acks (the "equivalent of ξ-locking").
    pub fn is_merge(&self) -> bool {
        matches!(self, DirUpdate::Merge { .. })
    }
}

/// One directory manager's full copy of the directory: the file's
/// [`Directory`] over [`DirEntry`] cells. This type adds the version
/// rules of [`DirReplica::apply`]; doubling, group redirects, halving
/// and `depthcount` are the directory's.
#[derive(Debug, Clone)]
pub struct DirReplica {
    dir: Directory<DirEntry>,
}

impl From<Directory<DirEntry>> for DirReplica {
    /// A replica over a directory built elsewhere (see
    /// [`crate::Cluster::recover`]).
    fn from(dir: Directory<DirEntry>) -> Self {
        DirReplica { dir }
    }
}

impl DirReplica {
    /// A depth-0 replica pointing at the root bucket.
    pub fn new(max_depth: u32, root: BucketLink) -> Result<Self> {
        Ok(Directory::new(max_depth, DirEntry::new(root, 0))?.into())
    }

    /// Current depth.
    pub fn depth(&self) -> u32 {
        self.dir.depth()
    }

    /// Current depthcount.
    pub fn depthcount(&self) -> u32 {
        self.dir.depthcount()
    }

    /// All entries (tests, Status replies).
    pub fn entries(&self) -> Vec<DirEntry> {
        self.dir.entries_snapshot()
    }

    /// `indexdirectory(pseudokey & mask(depth), &oldpage, &bucketmgr)`.
    pub fn lookup(&self, pk: Pseudokey) -> DirEntry {
        self.dir.lookup(pk).1
    }

    fn entry_at(&self, bits: u64) -> DirEntry {
        self.dir.index(bits & mask(self.dir.depth()))
    }

    /// Try to apply an update; see the module docs for the version rules.
    pub fn apply(&mut self, upd: &DirUpdate) -> Result<ApplyResult> {
        let depth = self.dir.depth();
        match *upd {
            DirUpdate::Split {
                pseudokey,
                old_localdepth: d,
                expected_version,
                new_version,
                new_bucket,
            } => {
                let cur = self.entry_at(pseudokey.low_bits(d.min(depth)));
                if cur.version >= new_version {
                    return Ok(ApplyResult::Stale);
                }
                if cur.version != expected_version {
                    return Ok(ApplyResult::Parked);
                }
                if d == depth {
                    self.dir.double()?;
                } else if d > depth {
                    // Version matched but the replica is shallower than
                    // the split's localdepth — a predecessor split that
                    // would have deepened us has not applied yet.
                    return Ok(ApplyResult::Parked);
                }
                let p0 = pseudokey.low_bits(d); // pattern with bit d+1 clear
                let p1 = p0 | ceh_types::partner_bit(d + 1);
                let zero_side = DirEntry {
                    version: new_version,
                    ..cur
                };
                self.dir.set_group(p0, d + 1, zero_side);
                self.dir
                    .set_group(p1, d + 1, DirEntry::new(new_bucket, new_version));
                self.dir.count_split(d + 1);
                Ok(ApplyResult::Applied)
            }
            DirUpdate::Merge {
                pseudokey,
                old_localdepth: d,
                expected_v0,
                expected_v1,
                new_version,
                merged,
                garbage: _,
            } => {
                // Staleness first, and against the *survivor group* at
                // whatever depth we currently have: once this merge (or
                // anything after it) has applied, the covering entry's
                // version is ≥ new_version even if the directory has
                // since halved below `d`. Checking the depth guard first
                // would park a duplicate of an applied merge forever.
                let probe = pseudokey.low_bits((d - 1).min(depth));
                if self.entry_at(probe).version >= new_version {
                    return Ok(ApplyResult::Stale);
                }
                if d > depth {
                    // Can't even address both partners yet.
                    return Ok(ApplyResult::Parked);
                }
                let bits = pseudokey.low_bits(d);
                let p1 = bits | ceh_types::partner_bit(d);
                let p0 = p1 ^ ceh_types::partner_bit(d);
                let (e0, e1) = (self.entry_at(p0), self.entry_at(p1));
                if e0.version != expected_v0 || e1.version != expected_v1 {
                    return Ok(ApplyResult::Parked);
                }
                self.dir
                    .set_group(p0, d - 1, DirEntry::new(merged, new_version));
                self.dir.count_merge(d);
                self.dir.halve();
                Ok(ApplyResult::Applied)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(m: u32, p: u64) -> BucketLink {
        BucketLink::new(ManagerId(m), PageId(p))
    }

    fn split(pk: u64, d: u32, ev: u64, new: BucketLink) -> DirUpdate {
        DirUpdate::Split {
            pseudokey: Pseudokey(pk),
            old_localdepth: d,
            expected_version: ev,
            new_version: ev + 1,
            new_bucket: new,
        }
    }

    #[test]
    fn split_from_depth_zero_doubles() {
        let mut r = DirReplica::new(8, link(0, 0)).unwrap();
        assert_eq!(
            r.apply(&split(0, 0, 0, link(0, 1))).unwrap(),
            ApplyResult::Applied
        );
        assert_eq!(r.depth(), 1);
        assert_eq!(r.lookup(Pseudokey(0)).page, PageId(0));
        assert_eq!(r.lookup(Pseudokey(1)).page, PageId(1));
        assert_eq!(r.depthcount(), 2);
        assert_eq!(r.lookup(Pseudokey(0)).version, 1);
    }

    #[test]
    fn duplicate_split_is_stale() {
        let mut r = DirReplica::new(8, link(0, 0)).unwrap();
        let u = split(0, 0, 0, link(0, 1));
        assert_eq!(r.apply(&u).unwrap(), ApplyResult::Applied);
        assert_eq!(r.apply(&u).unwrap(), ApplyResult::Stale);
    }

    #[test]
    fn out_of_order_splits_park_until_ready() {
        let mut r = DirReplica::new(8, link(0, 0)).unwrap();
        // Second-generation split (bucket 0 at localdepth 1, version 1)
        // arrives before the first-generation one.
        let second = split(0b00, 1, 1, link(0, 2));
        assert_eq!(r.apply(&second).unwrap(), ApplyResult::Parked);
        let first = split(0, 0, 0, link(0, 1));
        assert_eq!(r.apply(&first).unwrap(), ApplyResult::Applied);
        assert_eq!(r.apply(&second).unwrap(), ApplyResult::Applied);
        assert_eq!(r.depth(), 2);
        assert_eq!(r.lookup(Pseudokey(0b00)).page, PageId(0));
        assert_eq!(r.lookup(Pseudokey(0b10)).page, PageId(2));
        assert_eq!(r.lookup(Pseudokey(0b01)).page, PageId(1));
        assert_eq!(r.lookup(Pseudokey(0b11)).page, PageId(1));
    }

    #[test]
    fn papers_split_then_merge_reordering_example() {
        // §3: "Suppose first a split operation is performed almost
        // immediately followed by a merge involving those two buckets.
        // Imagine a directory manager that hears about these updates in
        // the opposite order."
        let mut r = DirReplica::new(8, link(0, 0)).unwrap();
        r.apply(&split(0, 0, 0, link(0, 1))).unwrap(); // depth 1: [p0, p1] v1
                                                       // Now: split p1 (ld 1, v1) into p1/p2; then merge them back.
        let s = split(0b1, 1, 1, link(0, 2));
        let m = DirUpdate::Merge {
            pseudokey: Pseudokey(0b01),
            old_localdepth: 2,
            expected_v0: 2,
            expected_v1: 2,
            new_version: 3,
            merged: link(0, 1),
            garbage: link(0, 2),
        };
        // Merge first: must park (the split's versions aren't there).
        assert_eq!(r.apply(&m).unwrap(), ApplyResult::Parked);
        assert_eq!(r.apply(&s).unwrap(), ApplyResult::Applied);
        assert_eq!(r.apply(&m).unwrap(), ApplyResult::Applied);
        // Net effect: back to [p0, p1], with p1 at version 3.
        assert_eq!(r.depth(), 1);
        assert_eq!(r.lookup(Pseudokey(0b1)).page, PageId(1));
        assert_eq!(r.lookup(Pseudokey(0b1)).version, 3);
    }

    #[test]
    fn merge_at_full_depth_halves_when_empty() {
        let mut r = DirReplica::new(8, link(0, 0)).unwrap();
        r.apply(&split(0, 0, 0, link(0, 1))).unwrap(); // depth 1, count 2
        r.apply(&split(0b0, 1, 1, link(0, 2))).unwrap(); // depth 2: p0/p2 at ld2, count 2
        assert_eq!(r.depth(), 2);
        assert_eq!(r.depthcount(), 2);
        // Merge p0/p2 back.
        let m = DirUpdate::Merge {
            pseudokey: Pseudokey(0b00),
            old_localdepth: 2,
            expected_v0: 2,
            expected_v1: 2,
            new_version: 3,
            merged: link(0, 0),
            garbage: link(0, 2),
        };
        assert_eq!(r.apply(&m).unwrap(), ApplyResult::Applied);
        assert_eq!(r.depth(), 1, "depthcount hit zero → halved");
        assert_eq!(r.lookup(Pseudokey(0)).page, PageId(0));
        assert_eq!(r.lookup(Pseudokey(1)).page, PageId(1));
    }

    #[test]
    fn merge_parks_until_both_versions_present() {
        let mut r = DirReplica::new(8, link(0, 0)).unwrap();
        r.apply(&split(0, 0, 0, link(0, 1))).unwrap();
        // A merge whose "1"-side version is ahead of what we have.
        let m = DirUpdate::Merge {
            pseudokey: Pseudokey(0b0),
            old_localdepth: 1,
            expected_v0: 1,
            expected_v1: 5,
            new_version: 6,
            merged: link(0, 0),
            garbage: link(0, 1),
        };
        assert_eq!(r.apply(&m).unwrap(), ApplyResult::Parked);
    }

    #[test]
    fn cross_manager_links_roundtrip() {
        let mut r = DirReplica::new(8, link(0, 0)).unwrap();
        r.apply(&split(0, 0, 0, link(3, 9))).unwrap();
        let e = r.lookup(Pseudokey(1));
        assert_eq!(e.mgr, ManagerId(3));
        assert_eq!(e.page, PageId(9));
    }

    #[test]
    fn split_past_max_depth_errors() {
        let mut r = DirReplica::new(1, link(0, 0)).unwrap();
        r.apply(&split(0, 0, 0, link(0, 1))).unwrap();
        let too_deep = split(0b0, 1, 1, link(0, 2));
        assert!(r.apply(&too_deep).is_err());
    }
}
