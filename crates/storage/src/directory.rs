//! The directory, one type for every hash file, readable under ρ while
//! writers hold α.
//!
//! ceh-lint: allow-file(relaxed-ordering) — entry words are independent
//! page-id cells published/consumed via the Acquire/Release `depth`
//! handshake described below, or mutated only under the α/ξ directory
//! lock (§2.3); per-cell ordering adds nothing.
//!
//! ρ and α are *compatible*, so the directory must tolerate being read
//! while an inserter doubles it or redirects entries. The paper's argument
//! (§2.3) is that doubling appears atomic "because of the choice to use
//! the least significant bits of the pseudokey": the new top half is
//! copied *before* `depth` is incremented, and every entry a reader can
//! see under the old depth is still valid. In Rust that concurrent
//! read/write pattern requires atomics:
//!
//! * entries are `AtomicU64` page ids in a grow-only [`SegArray`]. The
//!   paper declares `int directory[1<<maxdepth]` but only ever reads the
//!   first `2^depth` entries, so the array holds those: 64 entries in its
//!   first segment, and one more segment, the size of the live
//!   directory, per doubling past depth 6. `max_depth` stays the cap on
//!   doubling, not an allocation;
//! * `depth` is an `AtomicU32`; doubling publishes the new segment and
//!   stores the copied entries *then* publishes the new depth with
//!   `Release`, and readers load `depth` with `Acquire` — the exact
//!   memory-ordering shape of the paper's "it is the act of incrementing
//!   depth that makes the new directory entries visible";
//! * individual entry redirects are single atomic stores: a racing reader
//!   sees the old or the new pointer, and both lead to the right bucket
//!   via `next`-link recovery;
//! * segments are never freed while the directory lives. Halving only
//!   lowers `depth`, and a lock-free find may have loaded the old depth
//!   just before: the entry it then reads must still be there.
//!
//! Every hash file holds this directory, with the entry type its
//! [`DirectoryEntry`] names: page ids for both concurrent solutions and
//! the sequential file, a replica's `(manager, page, version)` in plain
//! cells for each distributed directory manager. It keeps `depthcount`
//! by §2.2's rules ([`Directory::count_split`],
//! [`Directory::count_merge`], [`Directory::halve`]).
//!
//! Mutating methods require the caller to hold the appropriate directory
//! lock (α for double/update, ξ for halve); that is the protocol's
//! responsibility, not this struct's.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use ceh_locks::shadow::{TrackedAtomicU32, TrackedAtomicU64};
use ceh_obs::{Gauge, MetricsHandle};
use ceh_types::{check_max_depth, mask, partner_bit, Bucket, BucketLink, Error, PageId};
use ceh_types::{Pseudokey, Result, SegArray};

/// What a directory entry holds, and the cell that keeps it.
pub trait DirectoryEntry: Copy + PartialEq + std::fmt::Debug {
    /// One entry's storage.
    type Cell;
    /// What a never-written cell holds, and what [`Directory::index`]
    /// reads past every allocated segment.
    const NULL: Self;
    /// A cell holding `self`.
    fn cell(self) -> Self::Cell;
    /// Read `cell` with `order`.
    fn load(cell: &Self::Cell, order: Ordering) -> Self;
    /// Write `entry` into `cell` with `order`.
    fn store(cell: &Self::Cell, entry: Self, order: Ordering);
}

/// A page id in an atomic word, tracked so `ceh check race` observes
/// every directory-entry access; `PageId::NULL` (`u64::MAX`) marks an
/// entry never written.
impl DirectoryEntry for PageId {
    type Cell = TrackedAtomicU64;
    const NULL: PageId = PageId::NULL;

    fn cell(self) -> TrackedAtomicU64 {
        TrackedAtomicU64::new(self.0, "dir.entry")
    }

    #[inline]
    #[track_caller]
    fn load(cell: &TrackedAtomicU64, order: Ordering) -> PageId {
        PageId(cell.load(order))
    }

    #[inline]
    #[track_caller]
    fn store(cell: &TrackedAtomicU64, entry: PageId, order: Ordering) {
        cell.store(entry.0, order)
    }
}

/// The concurrently-readable directory, of [`PageId`] entries unless
/// the file says otherwise.
pub struct Directory<E: DirectoryEntry = PageId> {
    depth: TrackedAtomicU32,
    entries: SegArray<Box<[E::Cell]>>,
    /// Number of buckets with `localdepth == depth` (§2.2). Mutated only
    /// under α or ξ on the directory; atomic so quiescent checkers can
    /// read it without locks.
    depthcount: TrackedAtomicU32,
    max_depth: u32,
    /// `core.dir_bytes`: this directory's allocated segments, in bytes,
    /// summed with every other directory reporting to the same registry.
    bytes: Arc<Gauge>,
}

impl<E: DirectoryEntry> std::fmt::Debug for Directory<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Directory")
            .field("depth", &self.depth())
            .field("depthcount", &self.depthcount())
            .field("max_depth", &self.max_depth)
            .finish()
    }
}

impl<E: DirectoryEntry> Drop for Directory<E> {
    fn drop(&mut self) {
        self.bytes.add(-(self.allocated_bytes() as i64));
    }
}

impl<E: DirectoryEntry> Clone for Directory<E> {
    /// A quiescent copy (each directory manager's replica starts as
    /// one), reporting to the same `core.dir_bytes` gauge.
    fn clone(&self) -> Self {
        Self::restore(self.max_depth, &self.entries_snapshot(), self.depthcount())
            .expect("a directory restores from its own entries")
            .reporting_to(Arc::clone(&self.bytes))
    }
}

impl<E: DirectoryEntry> Directory<E> {
    /// Create a depth-0 directory whose single entry is `root`. Only the
    /// first segment (64 entries) is allocated.
    pub fn new(max_depth: u32, root: E) -> Result<Self> {
        check_max_depth(max_depth)?;
        let dir = Directory {
            depth: TrackedAtomicU32::new(0, "dir.depth"),
            entries: SegArray::new(),
            depthcount: TrackedAtomicU32::new(1, "dir.depthcount"),
            max_depth,
            bytes: Arc::new(Gauge::new()),
        };
        dir.grow(1);
        E::store(dir.entry(0), root, Ordering::Relaxed);
        Ok(dir)
    }

    /// Report this directory's allocated bytes in `metrics`' registry,
    /// as the `core.dir_bytes` gauge (builder-style).
    pub fn with_metrics(self, metrics: &MetricsHandle) -> Self {
        self.reporting_to(metrics.gauge("core.dir_bytes"))
    }

    fn reporting_to(mut self, bytes: Arc<Gauge>) -> Self {
        self.bytes = bytes;
        self.bytes.add(self.allocated_bytes() as i64);
        self
    }

    /// Restore a directory from recovered state (see
    /// [`rebuild_directory`]): `entries` must be exactly `2^depth` long.
    pub fn restore(max_depth: u32, entries: &[E], depthcount: u32) -> Result<Self> {
        if !entries.len().is_power_of_two() {
            return Err(Error::Corrupt(format!(
                "restore: {} entries is not a power of two",
                entries.len()
            )));
        }
        let depth = entries.len().trailing_zeros();
        if depth > max_depth {
            return Err(Error::DirectoryFull { max_depth });
        }
        let dir = Self::new(max_depth, entries[0])?;
        dir.grow(entries.len());
        for (i, &e) in entries.iter().enumerate() {
            E::store(dir.entry(i), e, Ordering::Relaxed);
        }
        dir.depth.store(depth, Ordering::Release);
        dir.depthcount.store(depthcount, Ordering::Relaxed);
        Ok(dir)
    }

    /// Allocate the segments holding the first `n` entries (never-written
    /// entries), and count them in `core.dir_bytes`.
    fn grow(&self, n: usize) {
        let before = self.allocated_bytes();
        let grown = self.entries.grow_to(n, |_| E::NULL.cell());
        assert!(grown, "2^MAX_SUPPORTED_DEPTH entries fit the segment array");
        self.bytes.add((self.allocated_bytes() - before) as i64);
    }

    /// Entry `i`, below `2^depth` for a depth this directory has reached:
    /// allocated, and never freed.
    fn entry(&self, i: usize) -> &E::Cell {
        self.entries
            .get(i)
            .expect("entries below a reached depth are allocated")
    }

    /// Bytes of the allocated entry segments (what `core.dir_bytes`
    /// reports for this directory).
    fn allocated_bytes(&self) -> usize {
        self.entries.allocated() * std::mem::size_of::<E::Cell>()
    }

    /// Current depth (`Acquire`: pairs with the `Release` publish in
    /// [`Directory::double`]).
    #[inline]
    pub fn depth(&self) -> u32 {
        self.depth.load(Ordering::Acquire)
    }

    /// Current depthcount.
    #[inline]
    pub fn depthcount(&self) -> u32 {
        self.depthcount.load(Ordering::Relaxed)
    }

    /// `indexdirectory(bits)`: the entry for the given low bits
    /// ([`DirectoryEntry::NULL`] past every segment the directory has
    /// allocated).
    #[inline]
    pub fn index(&self, bits: u64) -> E {
        self.entries
            .get(bits as usize)
            .map_or(E::NULL, |e| E::load(e, Ordering::Acquire))
    }

    /// Read depth and index in one step: `indexdirectory(pseudokey &
    /// mask(depth))`, the opening move of every figure.
    #[inline]
    pub fn lookup(&self, pk: Pseudokey) -> (u32, E) {
        let d = self.depth();
        (d, self.index(pk.low_bits(d)))
    }

    /// `doubledirectory()`: allocate the top half if no earlier doubling
    /// did, copy the bottom half into it, then publish the new depth.
    /// Caller holds α (Solution 1 holds it from the start; Solution 2
    /// converts its ρ). Zeroes `depthcount` (§2.2).
    ///
    /// Readers may run concurrently under ρ: they either see the old
    /// depth (old entries, all valid) or the new depth (segment and
    /// entries published by the `Release`/`Acquire` pair).
    pub fn double(&self) -> Result<()> {
        let d = self.depth.load(Ordering::Relaxed); // only writers race us, and α excludes them
        if d >= self.max_depth {
            return Err(Error::DirectoryFull {
                max_depth: self.max_depth,
            });
        }
        let half = 1usize << d;
        self.grow(2 * half);
        for i in 0..half {
            let e = E::load(self.entry(i), Ordering::Relaxed);
            E::store(self.entry(i + half), e, Ordering::Relaxed);
        }
        // "It is the act of incrementing depth that makes the new
        // directory entries visible."
        self.depth.store(d + 1, Ordering::Release);
        self.depthcount.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// §2.2's rule: halve when no bucket is at full depth. A depth-1
    /// directory is never halved: its two buckets are too shallow to
    /// merge.
    pub fn halvable(&self) -> bool {
        self.depthcount() == 0 && self.depth() > 1
    }

    /// `halvedirectory()` while [`Directory::halvable`]: drop the top
    /// half (depth decrement only — the discarded entries and their
    /// segments stay, invisible beyond the new depth) and recompute
    /// `depthcount` by "comparing corresponding entries in the top and
    /// bottom halves for pointers which differ" (§2.2). Returns whether
    /// it halved. Caller holds ξ — no locked access of any kind; a
    /// lock-free find may still read an entry of the old depth, which is
    /// why nothing is freed.
    pub fn halve(&self) -> bool {
        let halvable = self.halvable();
        while self.halvable() {
            // The halves need not be identical here: Figure 7/9 halve
            // *instead of* redirecting the just-merged pair's entries, so
            // the top-half entry for that pair still points at the
            // garbage bucket. Merges always survive on the "0" partner
            // (bottom half), which is exactly why discarding the top half
            // is correct. Every *other* pair is identical because
            // depthcount == 0.
            let d = self.depth.load(Ordering::Relaxed) - 1;
            self.depth.store(d, Ordering::Release);
            let quarter = 1usize << (d - 1);
            let differ = (0..quarter).filter(|&i| {
                E::load(self.entry(i), Ordering::Relaxed)
                    != E::load(self.entry(i + quarter), Ordering::Relaxed)
            });
            self.depthcount
                .store(2 * differ.count() as u32, Ordering::Relaxed);
        }
        halvable
    }

    /// A split left two buckets at `localdepth` (caller holds α): at full
    /// depth, "splitting a bucket of localdepth = depth-1 would add two"
    /// to `depthcount` (§2.2).
    pub fn count_split(&self, localdepth: u32) {
        if localdepth == self.depth() {
            self.depthcount.fetch_add(2, Ordering::Relaxed);
        }
    }

    /// A merge of two buckets at `localdepth` (caller holds α or ξ): at
    /// full depth, "merging two buckets of localdepth = depth would
    /// subtract two" (§2.2).
    pub fn count_merge(&self, localdepth: u32) {
        if localdepth == self.depth() {
            let before = self.depthcount.fetch_sub(2, Ordering::Relaxed);
            debug_assert!(
                before >= 2,
                "a merge at full depth with depthcount {before}"
            );
        }
    }

    /// Point every entry whose low `d` bits are `bits`' low `d` bits at
    /// `entry`: the group of one bucket of local depth `d`. Caller holds
    /// α; concurrent ρ readers see each entry flip atomically and recover
    /// through `next` links if they read the old value.
    pub fn set_group(&self, bits: u64, d: u32, entry: E) {
        let size = 1u64 << self.depth.load(Ordering::Relaxed); // stable under our α
        let mut i = bits & mask(d);
        while i < size {
            E::store(self.entry(i as usize), entry, Ordering::Release);
            i += 1 << d;
        }
    }

    /// `updatedirectory(page, d, pseudokey)` with the semantics both
    /// Figure 6 and Figure 7 need: redirect the **"1"-partner group at
    /// depth `d`** — every entry whose low `d` bits are
    /// `(pseudokey's low d-1 bits) | partner_bit(d)` — to `entry`.
    ///
    /// Splits create the new bucket on the "1" side (its entries must
    /// point at `newpage`); merges survive on the "0" side (the
    /// tombstone's "1"-side entries must point at `merged`). One
    /// operation serves both, which is why the paper can pass a single
    /// `(page, localdepth, pseudokey)` triple from either call site.
    pub fn update_one_side(&self, entry: E, d: u32, pk: Pseudokey) {
        debug_assert!(d >= 1);
        self.set_group(pk.low_bits(d - 1) | partner_bit(d), d, entry);
    }

    /// Snapshot the live entries (quiescent use: invariant checker,
    /// figure rendering, a replica's status).
    pub fn entries_snapshot(&self) -> Vec<E> {
        let d = self.depth();
        self.entries
            .iter()
            .take(1 << d)
            .map(|e| E::load(e, Ordering::Relaxed))
            .collect()
    }
}

/// The directory of a file that restarted, rebuilt from its `live`
/// buckets' local depths and `commonbits`: its depth is the deepest
/// local depth, entry `i` is `entry` of the one bucket whose
/// `commonbits` are `i`'s low `localdepth` bits, and `depthcount` counts
/// the buckets at that depth. Fails if the depth passes `max_depth`, if
/// two buckets claim one entry, or if no bucket covers one.
pub fn rebuild_directory<'a, E: DirectoryEntry>(
    max_depth: u32,
    live: impl IntoIterator<Item = (BucketLink, &'a Bucket)>,
    entry: impl Fn(BucketLink, &Bucket) -> E,
) -> Result<Directory<E>> {
    let live: Vec<_> = live.into_iter().collect();
    let depth = live.iter().map(|(_, b)| b.localdepth).max().unwrap_or(0);
    if depth > max_depth {
        return Err(Error::DirectoryFull { max_depth });
    }
    let size = 1usize << depth;
    let mut owners: Vec<Option<usize>> = vec![None; size];
    let mut depthcount = 0u32;
    for (n, (link, b)) in live.iter().enumerate() {
        depthcount += u32::from(b.localdepth == depth);
        for i in (b.commonbits as usize..size).step_by(1usize << b.localdepth) {
            if let Some(m) = owners[i] {
                return Err(Error::Corrupt(format!(
                    "recovery: entry {i:0w$b} claimed by both {} and {link}",
                    live[m].0,
                    w = depth as usize
                )));
            }
            owners[i] = Some(n);
        }
    }
    let entries = owners.iter().enumerate().map(|(i, owner)| match *owner {
        Some(n) => Ok(entry(live[n].0, live[n].1)),
        None => Err(Error::Corrupt(format!(
            "recovery: no bucket covers directory entry {i:0w$b}",
            w = depth as usize
        ))),
    });
    Directory::restore(max_depth, &entries.collect::<Result<Vec<E>>>()?, depthcount)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_directory_is_depth_zero() {
        let d = Directory::new(4, PageId(7)).unwrap();
        assert_eq!(d.depth(), 0);
        assert_eq!(d.depthcount(), 1);
        assert_eq!(d.index(0), PageId(7));
        assert_eq!(d.entries_snapshot(), vec![PageId(7)]);
    }

    #[test]
    fn rejects_bad_max_depth() {
        assert!(Directory::new(0, PageId(0)).is_err());
        assert!(Directory::new(27, PageId(0)).is_err());
    }

    #[test]
    fn double_copies_bottom_half() {
        let d = Directory::new(4, PageId(1)).unwrap();
        d.double().unwrap();
        assert_eq!(d.depth(), 1);
        assert_eq!(d.entries_snapshot(), vec![PageId(1), PageId(1)]);
        assert_eq!(d.depthcount(), 0, "doubling zeroes depthcount");
    }

    #[test]
    fn double_refuses_past_max() {
        let d = Directory::new(2, PageId(1)).unwrap();
        d.double().unwrap();
        d.double().unwrap();
        assert_eq!(
            d.double().unwrap_err(),
            Error::DirectoryFull { max_depth: 2 }
        );
    }

    #[test]
    fn update_one_side_redirects_the_partner_group() {
        let d = Directory::new(4, PageId(1)).unwrap();
        d.double().unwrap();
        d.double().unwrap(); // depth 2: entries 00,01,10,11 all -> p1
                             // Split the bucket holding …0 (localdepth 1): the new "1" partner
                             // (pattern 1 at depth 1) goes to p2.
        d.update_one_side(PageId(2), 1, Pseudokey(0b0));
        assert_eq!(
            d.entries_snapshot(),
            vec![PageId(1), PageId(2), PageId(1), PageId(2)],
            "entries 01 and 11 redirected"
        );
        // Now split p2 (localdepth 2, commonbits 01): new "1" partner
        // (pattern 11 at depth 2) goes to p3.
        d.update_one_side(PageId(3), 2, Pseudokey(0b01));
        assert_eq!(
            d.entries_snapshot(),
            vec![PageId(1), PageId(2), PageId(1), PageId(3)]
        );
    }

    #[test]
    fn halve_recounts_depthcount() {
        let d = Directory::new(4, PageId(1)).unwrap();
        d.double().unwrap(); // depth 1
        d.update_one_side(PageId(2), 1, Pseudokey(0)); // [p1, p2]
        d.count_split(1); // both at depth 1
        d.double().unwrap(); // depth 2: [p1, p2, p1, p2], depthcount 0
                             // Merge nothing — just halve (legal: halves are identical).
        d.halve();
        assert_eq!(d.depth(), 1);
        assert_eq!(d.entries_snapshot(), vec![PageId(1), PageId(2)]);
        assert_eq!(d.depthcount(), 2, "recount finds both depth-1 buckets");
    }

    #[test]
    fn lookup_reads_depth_and_entry_together() {
        let d = Directory::new(4, PageId(1)).unwrap();
        d.double().unwrap();
        d.update_one_side(PageId(2), 1, Pseudokey(0));
        assert_eq!(d.lookup(Pseudokey(0b10)), (1, PageId(1)));
        assert_eq!(d.lookup(Pseudokey(0b11)), (1, PageId(2)));
    }

    /// The plain model of `update_one_side`: every entry below `size`
    /// whose low `d` bits are the "1"-partner pattern of `pk` is `page`.
    fn model_update(model: &mut [PageId], page: PageId, d: u32, pk: Pseudokey) {
        let pattern = pk.low_bits(d - 1) | ceh_types::partner_bit(d);
        for (i, e) in model.iter_mut().enumerate() {
            if i as u64 & ceh_types::mask(d) == pattern {
                *e = page;
            }
        }
    }

    const ENTRY: usize = std::mem::size_of::<TrackedAtomicU64>();

    #[test]
    fn new_allocates_only_the_first_segment() {
        let d = Directory::new(ceh_types::MAX_SUPPORTED_DEPTH, PageId(1)).unwrap();
        assert_eq!(d.allocated_bytes(), 64 * ENTRY);
        let d = Directory::new(22, PageId(1)).unwrap();
        assert_eq!(d.allocated_bytes(), 64 * ENTRY, "not 2^22 entries");
        assert_eq!(d.index(64), PageId::NULL, "past the first segment");
        for _ in 0..6 {
            d.double().unwrap();
        }
        assert_eq!(d.allocated_bytes(), 64 * ENTRY, "depth 6 fills segment 0");
        for depth in 7..=9 {
            d.double().unwrap();
            assert_eq!(
                d.allocated_bytes(),
                (1 << depth) * ENTRY,
                "one segment per doubling"
            );
        }
    }

    /// `index`, `lookup`, `update_one_side` and `entries_snapshot` agree
    /// with a plain vector on both sides of the 64/128/256 boundaries.
    #[test]
    fn entries_agree_across_segment_boundaries() {
        let d = Directory::new(12, PageId(1)).unwrap();
        let mut model = vec![PageId(1)];
        let mut page = 1;
        for depth in 1..=9u32 {
            d.double().unwrap();
            model.extend_from_within(..);
            // Split a bucket at every local depth up to this one.
            for ld in 1..=depth {
                page += 1;
                let pk = Pseudokey(0x5A5A_5A5A_5A5A_5A5A ^ (page * 0x9E37_79B9));
                d.update_one_side(PageId(page), ld, pk);
                model_update(&mut model, PageId(page), ld, pk);
            }
            assert_eq!(d.entries_snapshot(), model, "depth {depth}");
        }
        for i in [0, 1, 63, 64, 65, 127, 128, 129, 255, 256, 257, 511] {
            assert_eq!(d.index(i), model[i as usize], "entry {i}");
            let pk = Pseudokey(i | 0xABC << 9);
            assert_eq!(d.lookup(pk), (9, model[i as usize]), "lookup {i}");
        }
    }

    #[test]
    fn restore_at_depths_0_6_and_13() {
        for depth in [0u32, 6, 13] {
            let entries: Vec<PageId> = (0..1u64 << depth).map(|i| PageId(i % 97)).collect();
            let d = Directory::restore(22, &entries, 3).unwrap();
            assert_eq!(d.depth(), depth);
            assert_eq!(d.depthcount(), 3);
            assert_eq!(d.entries_snapshot(), entries);
            assert_eq!(d.allocated_bytes(), entries.len().max(64) * ENTRY);
            d.double().unwrap();
            let mut doubled = entries.clone();
            doubled.extend_from_slice(&entries);
            assert_eq!(
                d.entries_snapshot(),
                doubled,
                "doubling a restored depth {depth}"
            );
        }
        assert!(Directory::restore(22, &[PageId(1); 3], 0).is_err());
        assert_eq!(
            Directory::restore(2, &[PageId(1); 8], 0).unwrap_err(),
            Error::DirectoryFull { max_depth: 2 }
        );
    }

    /// Halving keeps every segment: the entries below the new depth read
    /// as before, and doubling again reuses the top segment.
    #[test]
    fn halve_after_crossing_a_boundary_keeps_entries_readable() {
        let d = Directory::new(12, PageId(1)).unwrap();
        for _ in 0..8 {
            d.double().unwrap();
        }
        d.update_one_side(PageId(3), 7, Pseudokey(0x05)); // entries 69 and 197
        d.update_one_side(PageId(2), 8, Pseudokey(0x05)); // entry 133
        let bytes = d.allocated_bytes();
        let before = d.entries_snapshot();
        d.halve();
        assert_eq!(d.depth(), 7);
        assert_eq!(d.depthcount(), 2, "entries 5 and 69 differ");
        assert_eq!(d.entries_snapshot(), before[..128]);
        for i in 0..128 {
            assert_eq!(d.index(i), before[i as usize], "entry {i}");
        }
        assert_eq!(
            d.index(133),
            PageId(2),
            "the discarded half is still readable"
        );
        assert_eq!(d.allocated_bytes(), bytes, "halving frees nothing");
        d.double().unwrap();
        let mut doubled = before[..128].to_vec();
        doubled.extend_from_within(..);
        assert_eq!(
            d.entries_snapshot(),
            doubled,
            "the copy overwrote entry 133"
        );
        assert_eq!(d.allocated_bytes(), bytes);
    }

    #[test]
    fn dir_bytes_gauge_follows_the_segments() {
        let metrics = MetricsHandle::new();
        let gauge = || metrics.snapshot().gauge("core.dir_bytes");
        let d = Directory::new(22, PageId(1))
            .unwrap()
            .with_metrics(&metrics);
        assert_eq!(gauge(), (64 * ENTRY) as i64);
        for _ in 0..10 {
            d.double().unwrap();
        }
        assert_eq!(gauge(), (1024 * ENTRY) as i64);
        let restored = Directory::restore(22, &[PageId(1); 128], 0)
            .unwrap()
            .with_metrics(&metrics);
        assert_eq!(gauge(), ((1024 + 128) * ENTRY) as i64, "directories sum");
        drop((d, restored));
        assert_eq!(gauge(), 0, "a dropped directory takes its bytes back");
    }

    /// §2.2's bookkeeping: splits and merges at full depth add and
    /// subtract two, elsewhere nothing; halving cascades while no bucket
    /// is at full depth, and never below depth 1.
    #[test]
    fn depthcount_rules_drive_the_halving() {
        let d = Directory::new(8, PageId(1)).unwrap();
        d.double().unwrap();
        d.update_one_side(PageId(2), 1, Pseudokey(0)); // [p1, p2]
        d.count_split(1);
        assert_eq!(d.depthcount(), 2);
        d.double().unwrap();
        d.update_one_side(PageId(3), 2, Pseudokey(0)); // p1 splits: [p1, p2, p3, p2]
        d.count_split(2);
        d.count_split(1);
        assert_eq!(d.depthcount(), 2, "a split below full depth adds nothing");
        assert!(!d.halvable());
        assert!(!d.halve(), "nothing to halve");
        d.count_merge(1);
        assert_eq!(
            d.depthcount(),
            2,
            "a merge below full depth subtracts nothing"
        );
        // p1 and p3 merge back, in place of the redirect (Figure 7).
        d.count_merge(2);
        assert!(d.halvable());
        assert!(d.halve());
        assert_eq!((d.depth(), d.depthcount()), (1, 2));
        assert_eq!(d.entries_snapshot(), vec![PageId(1), PageId(2)]);

        // Two doublings with no split: the cascade stops at depth 1.
        d.double().unwrap();
        d.double().unwrap();
        d.set_group(0, 0, PageId(1));
        assert!(d.halve());
        assert_eq!((d.depth(), d.depthcount()), (1, 0));
        assert!(!d.halvable(), "a depth-1 directory is never halved");
    }

    #[test]
    fn clone_copies_entries_and_counts() {
        let metrics = MetricsHandle::new();
        let d = Directory::new(8, PageId(1)).unwrap().with_metrics(&metrics);
        d.double().unwrap();
        d.update_one_side(PageId(2), 1, Pseudokey(0));
        d.count_split(1);
        let c = d.clone();
        d.update_one_side(PageId(3), 1, Pseudokey(0));
        assert_eq!(c.entries_snapshot(), vec![PageId(1), PageId(2)]);
        assert_eq!((c.depth(), c.depthcount()), (1, 2));
        let gauge = metrics.snapshot().gauge("core.dir_bytes");
        assert_eq!(gauge, (2 * 64 * ENTRY) as i64, "the copy reports too");
    }

    /// Buckets `0`, `01` and `11` (localdepth/commonbits), on pages 0–2.
    fn live() -> Vec<(BucketLink, Bucket)> {
        [(1, 0b0), (2, 0b01), (2, 0b11)]
            .into_iter()
            .enumerate()
            .map(|(p, (ld, cb))| {
                (
                    BucketLink::new(ceh_types::ManagerId(1), PageId(p as u64)),
                    Bucket::new(ld, cb),
                )
            })
            .collect()
    }

    fn rebuild(max_depth: u32, live: &[(BucketLink, Bucket)]) -> Result<Directory> {
        rebuild_directory(max_depth, live.iter().map(|(l, b)| (*l, b)), |l, _| l.page)
    }

    #[test]
    fn rebuild_points_each_entry_at_its_one_bucket() {
        let d = rebuild(8, &live()).unwrap();
        let pages: Vec<u64> = d.entries_snapshot().iter().map(|p| p.0).collect();
        assert_eq!((pages, d.depth(), d.depthcount()), (vec![0, 1, 0, 2], 2, 2));
        let versions = rebuild_directory(8, live().iter().map(|(l, b)| (*l, b)), |l, b| {
            PageId(l.page.0 * 10 + b.localdepth as u64)
        })
        .unwrap();
        let entries: Vec<u64> = versions.entries_snapshot().iter().map(|p| p.0).collect();
        assert_eq!(
            entries,
            vec![1, 12, 1, 22],
            "each entry from its own bucket"
        );
    }

    #[test]
    fn rebuild_refuses_overlaps_gaps_and_depths_past_the_maximum() {
        let mut overlap = live();
        overlap.push((
            BucketLink::new(ceh_types::ManagerId(1), PageId(3)),
            Bucket::new(2, 0b10),
        ));
        let err = rebuild(8, &overlap).unwrap_err().to_string();
        assert!(
            err.contains("entry 10 claimed by both mgr1/p0 and mgr1/p3"),
            "{err}"
        );

        let mut gap = live();
        gap.remove(2);
        let err = rebuild(8, &gap).unwrap_err().to_string();
        assert!(err.contains("no bucket covers directory entry 11"), "{err}");

        assert_eq!(
            rebuild(1, &live()).unwrap_err(),
            Error::DirectoryFull { max_depth: 1 }
        );
    }

    #[test]
    fn concurrent_readers_during_doubling_see_valid_entries() {
        use std::sync::atomic::AtomicBool;
        use std::sync::{Arc, Barrier};
        let d = Arc::new(Directory::new(12, PageId(1)).unwrap());
        let stop = Arc::new(AtomicBool::new(false));
        // Doubling starts only once every reader is running, and each
        // reader checks at least once however late it is scheduled.
        let start = Arc::new(Barrier::new(5));
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let d = Arc::clone(&d);
                let stop = Arc::clone(&stop);
                let start = Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    let mut checks = 0u64;
                    loop {
                        let (depth, page) = d.lookup(Pseudokey(0xABCD_EF01));
                        assert_eq!(
                            page,
                            PageId(1),
                            "reader saw an unpublished entry at depth {depth}"
                        );
                        checks += 1;
                        if stop.load(Ordering::Relaxed) {
                            return checks;
                        }
                    }
                })
            })
            .collect();
        start.wait();
        // Twelve doublings cross the 64, 128, 256, … 2048 segment
        // boundaries; the probe's entry (0xF01 at depth 12) is in the
        // newest segment at every depth past 6.
        for _ in 0..12 {
            d.double().unwrap();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(d.allocated_bytes(), 4096 * ENTRY);
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
    }
}
