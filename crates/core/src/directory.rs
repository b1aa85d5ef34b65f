//! The shared directory, readable under ρ while writers hold α.
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
//! Mutating methods require the caller to hold the appropriate directory
//! lock (α for double/update, ξ for halve); that is the protocol's
//! responsibility, not this struct's.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use ceh_locks::shadow::{TrackedAtomicU32, TrackedAtomicU64};
use ceh_obs::{Gauge, MetricsHandle};
use ceh_types::{Error, PageId, Pseudokey, Result, SegArray};

/// Atomic u64 array entry. `u64::MAX` (== `PageId::NULL`) marks entries
/// that have never been written (beyond the current depth). Tracked so
/// `ceh check race` observes every directory-entry access.
type Entry = TrackedAtomicU64;

/// The concurrently-readable directory.
pub struct Directory {
    depth: TrackedAtomicU32,
    entries: SegArray<Box<[Entry]>>,
    /// Number of buckets with `localdepth == depth` (§2.2). Mutated only
    /// under α or ξ on the directory; atomic so quiescent checkers can
    /// read it without locks.
    depthcount: TrackedAtomicU32,
    max_depth: u32,
    /// `core.dir_bytes`: this directory's allocated segments, in bytes,
    /// summed with every other directory reporting to the same registry.
    bytes: Arc<Gauge>,
}

impl std::fmt::Debug for Directory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Directory")
            .field("depth", &self.depth())
            .field("depthcount", &self.depthcount())
            .field("max_depth", &self.max_depth)
            .finish()
    }
}

impl Drop for Directory {
    fn drop(&mut self) {
        self.bytes.add(-(self.allocated_bytes() as i64));
    }
}

impl Directory {
    /// Hard cap on `max_depth` for the concurrent directory: 2^26 entries
    /// is 512 MiB once the directory has grown that far.
    pub const MAX_SUPPORTED_DEPTH: u32 = 26;

    /// Create a depth-0 directory whose single entry points at `root`.
    /// Only the first segment (64 entries) is allocated.
    pub fn new(max_depth: u32, root: PageId) -> Result<Self> {
        if max_depth == 0 || max_depth > Self::MAX_SUPPORTED_DEPTH {
            return Err(Error::Config(format!(
                "concurrent directory max_depth must be in 1..={}, got {max_depth}",
                Self::MAX_SUPPORTED_DEPTH
            )));
        }
        let dir = Directory {
            depth: TrackedAtomicU32::new(0, "dir.depth"),
            entries: SegArray::new(),
            depthcount: TrackedAtomicU32::new(1, "dir.depthcount"),
            max_depth,
            bytes: Arc::new(Gauge::new()),
        };
        dir.grow(1);
        dir.entry(0).store(root.0, Ordering::Relaxed);
        Ok(dir)
    }

    /// Report this directory's allocated bytes in `metrics`' registry,
    /// as the `core.dir_bytes` gauge (builder-style).
    pub fn with_metrics(mut self, metrics: &MetricsHandle) -> Self {
        self.bytes = metrics.gauge("core.dir_bytes");
        self.bytes.add(self.allocated_bytes() as i64);
        self
    }

    /// Restore a directory from recovered state (see
    /// [`crate::FileCore::recover_durable_metrics`]): `entries` must be exactly
    /// `2^depth` page ids.
    pub fn restore(max_depth: u32, entries: &[PageId], depthcount: u32) -> Result<Self> {
        if entries.is_empty() {
            return Err(Error::Corrupt("restore: empty directory".into()));
        }
        let depth = entries.len().trailing_zeros();
        if entries.len() != 1usize << depth {
            return Err(Error::Corrupt(format!(
                "restore: {} entries is not a power of two",
                entries.len()
            )));
        }
        if depth > max_depth {
            return Err(Error::DirectoryFull { max_depth });
        }
        let dir = Self::new(max_depth, entries[0])?;
        dir.grow(entries.len());
        for (i, p) in entries.iter().enumerate() {
            dir.entry(i).store(p.0, Ordering::Relaxed);
        }
        dir.depth.store(depth, Ordering::Release);
        dir.depthcount.store(depthcount, Ordering::Relaxed);
        Ok(dir)
    }

    /// Allocate the segments holding the first `n` entries (never-written
    /// entries), and count them in `core.dir_bytes`.
    fn grow(&self, n: usize) {
        let before = self.allocated_bytes();
        let grown = self
            .entries
            .grow_to(n, |_| Entry::new(PageId::NULL.0, "dir.entry"));
        assert!(grown, "2^MAX_SUPPORTED_DEPTH entries fit the segment array");
        self.bytes.add((self.allocated_bytes() - before) as i64);
    }

    /// Entry `i`, below `2^depth` for a depth this directory has reached:
    /// allocated, and never freed.
    fn entry(&self, i: usize) -> &Entry {
        self.entries
            .get(i)
            .expect("entries below a reached depth are allocated")
    }

    /// Bytes of the allocated entry segments (what `core.dir_bytes`
    /// reports for this directory).
    fn allocated_bytes(&self) -> usize {
        self.entries.allocated() * std::mem::size_of::<Entry>()
    }

    /// The configured maximum depth.
    pub fn max_depth(&self) -> u32 {
        self.max_depth
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

    /// Adjust depthcount by `delta` (caller holds α or ξ).
    pub fn add_depthcount(&self, delta: i32) {
        if delta >= 0 {
            self.depthcount.fetch_add(delta as u32, Ordering::Relaxed);
        } else {
            self.depthcount
                .fetch_sub((-delta) as u32, Ordering::Relaxed);
        }
    }

    /// `indexdirectory(bits)`: the entry for the given low bits
    /// (`PageId::NULL` past every segment the directory has allocated).
    #[inline]
    pub fn index(&self, bits: u64) -> PageId {
        self.entries
            .get(bits as usize)
            .map_or(PageId::NULL, |e| PageId(e.load(Ordering::Acquire)))
    }

    /// Read depth and index in one step: `indexdirectory(pseudokey &
    /// mask(depth))`, the opening move of every figure.
    #[inline]
    pub fn lookup(&self, pk: Pseudokey) -> (u32, PageId) {
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
            let v = self.entry(i).load(Ordering::Relaxed);
            self.entry(i + half).store(v, Ordering::Relaxed);
        }
        // "It is the act of incrementing depth that makes the new
        // directory entries visible."
        self.depth.store(d + 1, Ordering::Release);
        self.depthcount.store(0, Ordering::Relaxed);
        Ok(())
    }

    /// `halvedirectory()`: drop the top half (depth decrement only — the
    /// discarded entries and their segments stay, invisible beyond the
    /// new depth) and recompute `depthcount` by "comparing corresponding
    /// entries in the top and bottom halves for pointers which differ"
    /// (§2.2). Cascades while the recount is zero. Caller holds ξ — no
    /// locked access of any kind; a lock-free find may still read an
    /// entry of the old depth, which is why nothing is freed.
    pub fn halve(&self) {
        loop {
            let d = self.depth.load(Ordering::Relaxed);
            debug_assert!(d >= 1, "halving a depth-0 directory");
            // The halves need not be bit-identical here: Figure 7/9 halve
            // *instead of* redirecting the just-merged pair's entries, so
            // the top-half entry for that pair still points at the
            // garbage bucket. Merges always survive on the "0" partner
            // (bottom half), which is exactly why discarding the top half
            // is correct. Every *other* pair is identical because
            // depthcount == 0.
            self.depth.store(d - 1, Ordering::Release);
            let new_d = d - 1;
            if new_d == 0 {
                self.depthcount.store(1, Ordering::Relaxed);
                return;
            }
            let quarter = 1usize << (new_d - 1);
            let mut count = 0u32;
            for i in 0..quarter {
                if self.entry(i).load(Ordering::Relaxed)
                    != self.entry(i + quarter).load(Ordering::Relaxed)
                {
                    count += 2;
                }
            }
            self.depthcount.store(count, Ordering::Relaxed);
            if count != 0 || new_d <= 1 {
                return;
            }
        }
    }

    /// `updatedirectory(page, d, pseudokey)` with the semantics both
    /// Figure 6 and Figure 7 need: redirect the **"1"-partner group at
    /// depth `d`** — every entry whose low `d` bits are
    /// `(pseudokey's low d-1 bits) | partner_bit(d)` — to `page`.
    ///
    /// Splits create the new bucket on the "1" side (its entries must
    /// point at `newpage`); merges survive on the "0" side (the
    /// tombstone's "1"-side entries must point at `merged`). One
    /// operation serves both, which is why the paper can pass a single
    /// `(page, localdepth, pseudokey)` triple from either call site.
    ///
    /// Caller holds α; concurrent ρ readers see each entry flip
    /// atomically and recover through `next` links if they read the old
    /// value.
    pub fn update_one_side(&self, page: PageId, d: u32, pk: Pseudokey) {
        debug_assert!(d >= 1);
        let depth = self.depth.load(Ordering::Relaxed); // stable under our α
        let pattern = pk.low_bits(d - 1) | ceh_types::partner_bit(d);
        let step = 1u64 << d;
        let size = 1u64 << depth;
        let mut i = pattern;
        while i < size {
            self.entry(i as usize).store(page.0, Ordering::Release);
            i += step;
        }
    }

    /// Snapshot the live entries (quiescent use: invariant checker,
    /// figure rendering).
    pub fn entries_snapshot(&self) -> Vec<PageId> {
        let d = self.depth();
        self.entries
            .iter()
            .take(1 << d)
            .map(|e| PageId(e.load(Ordering::Relaxed)))
            .collect()
    }
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
        d.add_depthcount(2); // both at depth 1
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

    const ENTRY: usize = std::mem::size_of::<Entry>();

    #[test]
    fn new_allocates_only_the_first_segment() {
        let d = Directory::new(Directory::MAX_SUPPORTED_DEPTH, PageId(1)).unwrap();
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
