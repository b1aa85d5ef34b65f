//! The bucket: contents of one disk page.
//!
//! Figure 3 (centralized concurrent) gives a bucket `localdepth`,
//! `commonbits`, `count`, `next`, and the records; Figure 10 (distributed)
//! adds `prev` links, manager ids for `next`/`prev`, and a `version`
//! number. One struct carries all of them — the sequential and centralized
//! solutions simply leave the distributed fields at their sentinels, which
//! keeps a single page codec for the whole workspace.
//!
//! Serialization is a fixed little-endian layout so a bucket is exactly one
//! page (see [`Bucket::capacity_for`]), and decoding is defensive: a page
//! of garbage (e.g. poison bytes from a freed page) fails with
//! [`Error::Corrupt`] rather than yielding a bucket.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::bits::mask;
use crate::error::{Error, Result};
use crate::ids::{ManagerId, PageId};
use crate::key::{Key, Pseudokey, Record, Value};

/// Magic tag at the start of every encoded bucket page.
const MAGIC: u32 = 0xE111_5EC4;

/// Byte size of the encoded bucket header.
pub const BUCKET_HEADER_BYTES: usize = 56;

/// Byte size of one encoded record.
pub const RECORD_BYTES: usize = 16;

/// The `commonbits` sentinel marking a deleted bucket.
///
/// Solution 2 "mark\[s\] the old partner as 'deleted' (we use the commonbits
/// field for this)" (§2.4). Real commonbits are at most `mask(max_depth)`
/// and `max_depth ≤ 32`, so `u64::MAX` can never be a legitimate value.
pub const DELETED: u64 = u64::MAX;

/// A bucket, as held in a process's private buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bucket {
    /// Number of low pseudokey bits shared by every record here.
    pub localdepth: u32,
    /// The shared low-bit pattern itself (or [`DELETED`]).
    pub commonbits: u64,
    /// Link to the bucket that split off from this one most recently
    /// (Figure 3); the recovery path for concurrent searches.
    pub next: PageId,
    /// Manager owning `next` (distributed only; [`ManagerId::NONE`] otherwise).
    pub next_mgr: ManagerId,
    /// Link to the bucket this one originally split off from (Figure 10);
    /// locates the "0" partner without consulting the directory.
    pub prev: PageId,
    /// Manager owning `prev` (distributed only).
    pub prev_mgr: ManagerId,
    /// Increases with each update that causes a directory update (§3);
    /// orders asynchronous directory-copy updates.
    pub version: u64,
    /// The records; `count` in the paper is `records.len()` here.
    pub records: Vec<Record>,
}

impl Bucket {
    /// An empty bucket with the given identity.
    pub fn new(localdepth: u32, commonbits: u64) -> Self {
        debug_assert_eq!(
            commonbits & !mask(localdepth),
            0,
            "commonbits wider than localdepth"
        );
        Bucket {
            localdepth,
            commonbits,
            next: PageId::NULL,
            next_mgr: ManagerId::NONE,
            prev: PageId::NULL,
            prev_mgr: ManagerId::NONE,
            version: 0,
            records: Vec::new(),
        }
    }

    /// How many records fit in a page of `page_size` bytes.
    pub const fn capacity_for(page_size: usize) -> usize {
        (page_size - BUCKET_HEADER_BYTES) / RECORD_BYTES
    }

    /// The page size needed to hold `capacity` records.
    pub const fn page_size_for(capacity: usize) -> usize {
        BUCKET_HEADER_BYTES + capacity * RECORD_BYTES
    }

    /// Number of records (the paper's `count` field).
    #[inline]
    pub fn count(&self) -> usize {
        self.records.len()
    }

    /// Has this bucket been marked deleted (Solution 2 / distributed)?
    #[inline]
    pub fn is_deleted(&self) -> bool {
        self.commonbits == DELETED
    }

    /// Mark the bucket deleted (§2.4: "we use the commonbits field for
    /// this").
    pub fn mark_deleted(&mut self) {
        self.commonbits = DELETED;
    }

    /// Does `pk` belong in this bucket? The wrong-bucket test:
    /// `(mask(localdepth) & pseudokey) == commonbits`. Always false for a
    /// deleted bucket, which is exactly how Solution 2 routes searches
    /// away from merged buckets and onto their `next` recovery path.
    #[inline]
    pub fn owns(&self, pk: Pseudokey) -> bool {
        !self.is_deleted() && pk.matches(self.commonbits, self.localdepth)
    }

    /// The §2.1 *alternative* wrong-bucket test: instead of storing a
    /// `commonbits` field, "one could reapply the hash function to any
    /// key stored in the bucket and use this for comparison with the
    /// target pseudokey as long as the possibility of an empty bucket is
    /// taken care of". An empty bucket gives no evidence either way; the
    /// conservative answer is "wrong bucket" (forcing a `next` chase),
    /// which is safe because recovery terminates at the right bucket
    /// regardless. The A2 ablation measures what this saves (8 bytes per
    /// bucket) against what it costs (a hash per hop + spurious chases
    /// through empty buckets).
    pub fn owns_by_rehash(&self, pk: Pseudokey, hasher: fn(Key) -> Pseudokey) -> bool {
        if self.is_deleted() {
            return false;
        }
        match self.records.first() {
            Some(r) => {
                let resident = hasher(r.key);
                resident.low_bits(self.localdepth) == pk.low_bits(self.localdepth)
            }
            None => false, // empty bucket: cannot prove ownership
        }
    }

    /// The paper's `search(current, z)`: linear scan for the key.
    pub fn search(&self, key: Key) -> Option<Value> {
        self.records.iter().find(|r| r.key == key).map(|r| r.value)
    }

    /// The paper's `add(current, z)`. Caller checks fullness first, as the
    /// listings do; adding past capacity is a protocol bug, so this only
    /// debug-asserts against a caller-supplied capacity in the codec.
    pub fn add(&mut self, record: Record) {
        debug_assert!(self.search(record.key).is_none(), "add of a present key");
        self.records.push(record);
    }

    /// The paper's `remove(z, current)`: delete by key, reporting whether
    /// anything was removed.
    pub fn remove(&mut self, key: Key) -> bool {
        match self.records.iter().position(|r| r.key == key) {
            Some(i) => {
                self.records.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// The paper's `split(current, half1, half2, z, newpage)`.
    ///
    /// Distributes this bucket's records between two buckets of
    /// `localdepth + 1` by the new pseudokey bit, threads the `next`
    /// chain — "the next link of the original bucket is reassigned to
    /// point to the newly created bucket. The new bucket gets the
    /// original bucket's old next pointer" (§2.1, Figure 4) — sets the
    /// new half's `prev` to the splitting bucket (Figure 10), and tries
    /// to place the new record in its half. Returns `(half1, half2,
    /// done)`; `done` is false when the record's half had no room (the
    /// caller retries, possibly splitting again: `if (!done) insert(z)`).
    ///
    /// `oldpage`/`old_mgr` identify the splitting bucket (for the new
    /// half's `prev` link); `newpage`/`new_mgr` the freshly allocated one.
    #[allow(clippy::too_many_arguments)]
    pub fn split(
        &self,
        key: Key,
        value: Value,
        capacity: usize,
        hasher: fn(Key) -> Pseudokey,
        oldpage: PageId,
        old_mgr: ManagerId,
        newpage: PageId,
        new_mgr: ManagerId,
    ) -> (Bucket, Bucket, bool) {
        debug_assert!(!self.is_deleted());
        let d = self.localdepth + 1;
        let bit = crate::bits::partner_bit(d);
        let mut half1 = Bucket::new(d, self.commonbits);
        let mut half2 = Bucket::new(d, self.commonbits | bit);
        for r in &self.records {
            if hasher(r.key).0 & bit == 0 {
                half1.records.push(*r);
            } else {
                half2.records.push(*r);
            }
        }
        half1.next = newpage;
        half1.next_mgr = new_mgr;
        half2.next = self.next;
        half2.next_mgr = self.next_mgr;
        half1.prev = self.prev;
        half1.prev_mgr = self.prev_mgr;
        half2.prev = oldpage;
        half2.prev_mgr = old_mgr;
        // "Each bucket contains a version number that increases with each
        // update that causes a directory update" (§3) — a split is one.
        half1.version = self.version + 1;
        half2.version = self.version + 1;

        let pk = hasher(key);
        let target = if pk.0 & bit == 0 {
            &mut half1
        } else {
            &mut half2
        };
        let done = if target.records.len() < capacity {
            target.add(Record { key, value });
            true
        } else {
            false
        };
        (half1, half2, done)
    }

    /// Encode into a page buffer. Fails if the records overflow the page.
    pub fn encode(&self, page: &mut [u8]) -> Result<()> {
        if self.records.len() > Self::capacity_for(page.len()) {
            return Err(Error::Corrupt(format!(
                "bucket with {} records does not fit a {}-byte page",
                self.records.len(),
                page.len()
            )));
        }
        page[0..4].copy_from_slice(&MAGIC.to_le_bytes());
        page[4..8].copy_from_slice(&self.localdepth.to_le_bytes());
        page[8..16].copy_from_slice(&self.commonbits.to_le_bytes());
        page[16..20].copy_from_slice(&(self.records.len() as u32).to_le_bytes());
        page[20..24].copy_from_slice(&self.next_mgr.0.to_le_bytes());
        page[24..32].copy_from_slice(&self.next.0.to_le_bytes());
        page[32..36].copy_from_slice(&self.prev_mgr.0.to_le_bytes());
        page[36..40].copy_from_slice(&0u32.to_le_bytes()); // reserved
        page[40..48].copy_from_slice(&self.prev.0.to_le_bytes());
        page[48..56].copy_from_slice(&self.version.to_le_bytes());
        let mut off = BUCKET_HEADER_BYTES;
        for r in &self.records {
            page[off..off + 8].copy_from_slice(&r.key.0.to_le_bytes());
            page[off + 8..off + 16].copy_from_slice(&r.value.0.to_le_bytes());
            off += RECORD_BYTES;
        }
        Ok(())
    }

    /// Decode from a page buffer, validating the header (see
    /// [`BucketView::over`] for what is checked).
    pub fn decode(page: &[u8]) -> Result<Bucket> {
        let view = BucketView::new(page)?;
        let (w2, w4) = (page.word(2), page.word(4));
        Ok(Bucket {
            localdepth: view.localdepth,
            commonbits: view.commonbits,
            next: view.next(),
            next_mgr: ManagerId((w2 >> 32) as u32),
            prev: PageId(page.word(5)),
            prev_mgr: ManagerId(w4 as u32),
            version: page.word(6),
            records: page[BUCKET_HEADER_BYTES..BUCKET_HEADER_BYTES + view.count * RECORD_BYTES]
                .chunks_exact(RECORD_BYTES)
                .map(|slot| Record {
                    key: Key(u64::from_le_bytes(slot[..8].try_into().expect("slice len"))),
                    value: Value(u64::from_le_bytes(slot[8..].try_into().expect("slice len"))),
                })
                .collect(),
        })
    }
}

/// An encoded page read one 64-bit word at a time. The format is a
/// sequence of little-endian words: a header of seven (magic and
/// `localdepth`; `commonbits`; `count` and `next_mgr`; `next`;
/// `prev_mgr` and a reserved half; `prev`; `version`) and two per record
/// (key, value). Word `i` is the value of bytes `8i..8i + 8`.
///
/// Implemented for byte pages (`[u8]`, a process's private buffer) and
/// for [`SharedPage`], the page store's words, which lock-free readers
/// may load while a writer stores them.
pub trait PageWords {
    /// Length of the page in bytes.
    fn len_bytes(&self) -> usize;
    /// Word `i` (`i < len_bytes() / 8`).
    fn word(&self, i: usize) -> u64;
    /// The first of the page's first `count` record slots whose key word
    /// is `key` (`count` no more than the page holds). The paper's
    /// `search` is this scan, so each page type runs it over its own
    /// representation, bounds-checked once.
    fn key_position(&self, count: usize, key: u64) -> Option<usize> {
        (0..count).find(|&i| self.word(slot_word(i)) == key)
    }
}

/// A [`PageWords`] page that can be written one word at a time.
pub trait PageWordsMut: PageWords {
    /// Store `w` as word `i`.
    fn set_word(&mut self, i: usize, w: u64);
}

impl PageWords for [u8] {
    #[inline]
    fn len_bytes(&self) -> usize {
        self.len()
    }

    #[inline]
    fn word(&self, i: usize) -> u64 {
        u64::from_le_bytes(self[8 * i..8 * i + 8].try_into().expect("slice len"))
    }

    #[inline]
    fn key_position(&self, count: usize, key: u64) -> Option<usize> {
        let want = key.to_le_bytes();
        self[BUCKET_HEADER_BYTES..BUCKET_HEADER_BYTES + count * RECORD_BYTES]
            .chunks_exact(RECORD_BYTES)
            .position(|slot| slot[..8] == want)
    }
}

impl PageWordsMut for [u8] {
    #[inline]
    fn set_word(&mut self, i: usize, w: u64) {
        self[8 * i..8 * i + 8].copy_from_slice(&w.to_le_bytes());
    }
}

impl<T: PageWords + ?Sized> PageWords for &T {
    #[inline]
    fn len_bytes(&self) -> usize {
        (**self).len_bytes()
    }

    #[inline]
    fn word(&self, i: usize) -> u64 {
        (**self).word(i)
    }

    #[inline]
    fn key_position(&self, count: usize, key: u64) -> Option<usize> {
        (**self).key_position(count, key)
    }
}

/// A page held as atomic words, in the page store's slot, for reading.
///
/// Every access is one `Relaxed` load of a whole word, so a reader that
/// scans the page without the page latch never races a writer's store; it
/// may see a mix of two versions, which is why such a reader validates
/// the page's version afterwards and discards what it read if a write
/// overlapped. `Relaxed` suffices because the version word's fences order
/// the scan against the writes. The words hold the bytes of the format in
/// memory order, so word `i` is `u64::from_le(words[i])` on any host.
#[derive(Debug, Clone, Copy)]
pub struct SharedPage<'a> {
    words: &'a [AtomicU64],
}

impl<'a> SharedPage<'a> {
    /// The page over `words` (one per 8 bytes of the page).
    #[inline]
    pub fn new(words: &'a [AtomicU64]) -> Self {
        SharedPage { words }
    }

    /// Copy the page out into `bytes`, which are `len_bytes()` long.
    pub fn copy_to(&self, bytes: &mut [u8]) {
        for (chunk, w) in bytes.chunks_exact_mut(8).zip(self.words) {
            // ceh-lint: allow(relaxed-ordering) — a page word; the page's version word orders it
            chunk.copy_from_slice(&w.load(Ordering::Relaxed).to_ne_bytes());
        }
    }
}

impl PageWords for SharedPage<'_> {
    #[inline]
    fn len_bytes(&self) -> usize {
        8 * self.words.len()
    }

    #[inline]
    fn word(&self, i: usize) -> u64 {
        // ceh-lint: allow(relaxed-ordering) — a page word; the page's version word orders it
        u64::from_le(self.words[i].load(Ordering::Relaxed))
    }

    #[inline]
    fn key_position(&self, count: usize, key: u64) -> Option<usize> {
        let want = key.to_le();
        self.words[HEADER_WORDS..HEADER_WORDS + 2 * count]
            .chunks_exact(2)
            // ceh-lint: allow(relaxed-ordering) — a page word; the page's version word orders it
            .position(|slot| slot[0].load(Ordering::Relaxed) == want)
    }
}

/// A page held as atomic words, for the one writer the page store lets in
/// at a time (under the page latch, inside the page's version bracket).
/// Every store is one `Relaxed` store of a whole word; see [`SharedPage`].
#[derive(Debug)]
pub struct SharedPageMut<'a> {
    words: &'a [AtomicU64],
}

impl<'a> SharedPageMut<'a> {
    /// The page over `words` (one per 8 bytes of the page).
    #[inline]
    pub fn new(words: &'a [AtomicU64]) -> Self {
        SharedPageMut { words }
    }

    /// The page, for reading.
    #[inline]
    pub fn shared(&self) -> SharedPage<'_> {
        SharedPage::new(self.words)
    }

    /// Store `bytes`, which are `len_bytes()` long, as the page.
    pub fn copy_from(&mut self, bytes: &[u8]) {
        for (chunk, w) in bytes.chunks_exact(8).zip(self.words) {
            let v = u64::from_ne_bytes(chunk.try_into().expect("chunk len"));
            // ceh-lint: allow(relaxed-ordering) — a page word; the page's version word orders it
            w.store(v, Ordering::Relaxed);
        }
    }

    /// Store `v` into every byte of the page.
    pub fn fill(&mut self, v: u8) {
        let w = u64::from_ne_bytes([v; 8]);
        for word in self.words {
            // ceh-lint: allow(relaxed-ordering) — a page word; the page's version word orders it
            word.store(w, Ordering::Relaxed);
        }
    }
}

impl PageWords for SharedPageMut<'_> {
    #[inline]
    fn len_bytes(&self) -> usize {
        8 * self.words.len()
    }

    #[inline]
    fn word(&self, i: usize) -> u64 {
        self.shared().word(i)
    }

    #[inline]
    fn key_position(&self, count: usize, key: u64) -> Option<usize> {
        self.shared().key_position(count, key)
    }
}

impl PageWordsMut for SharedPageMut<'_> {
    #[inline]
    fn set_word(&mut self, i: usize, w: u64) {
        // ceh-lint: allow(relaxed-ordering) — a page word; the page's version word orders it
        self.words[i].store(w.to_le(), Ordering::Relaxed);
    }
}

/// Word index of record slot `i`'s key (its value is the next word).
#[inline]
const fn slot_word(i: usize) -> usize {
    HEADER_WORDS + 2 * i
}

/// Words in the encoded bucket header.
const HEADER_WORDS: usize = BUCKET_HEADER_BYTES / 8;

/// The paper's `add(current, z)` on an encoded page, in place: write the
/// record into slot `count` and bump `count`. The page ends up exactly as
/// [`Bucket::decode`] → [`Bucket::add`] → [`Bucket::encode`] would leave
/// it, so an update dirties one slot and the header instead of the page.
///
/// Fails with [`Error::Corrupt`], leaving the page untouched, when the
/// header fails [`BucketView::over`] or the page has no free slot. Like
/// [`Bucket::add`], the caller has already checked that the key is absent.
pub fn append_in_place<P: PageWordsMut + ?Sized>(page: &mut P, record: Record) -> Result<()> {
    let view = BucketView::over(&*page)?;
    let count = view.count;
    if count == Bucket::capacity_for(page.len_bytes()) {
        return Err(Error::Corrupt(format!(
            "append to a full page of {count} records"
        )));
    }
    debug_assert!(view.search(record.key).is_none(), "add of a present key");
    page.set_word(slot_word(count), record.key.0);
    page.set_word(slot_word(count) + 1, record.value.0);
    set_count(page, count + 1);
    Ok(())
}

/// The paper's `remove(z, current)` on an encoded page, in place: the
/// last slot moves into the hole, as [`Bucket::remove`]'s `swap_remove`
/// does, and `count` drops by one. The page ends up exactly as decode →
/// remove → encode would leave it. Reports whether anything was removed;
/// removing an absent key changes nothing.
///
/// Fails with [`Error::Corrupt`], leaving the page untouched, when the
/// header fails [`BucketView::over`].
pub fn remove_in_place<P: PageWordsMut + ?Sized>(page: &mut P, key: Key) -> Result<bool> {
    let view = BucketView::over(&*page)?;
    let Some(hole) = view.position(key) else {
        return Ok(false);
    };
    let last = view.count - 1;
    if hole != last {
        let (k, v) = (page.word(slot_word(last)), page.word(slot_word(last) + 1));
        page.set_word(slot_word(hole), k);
        page.set_word(slot_word(hole) + 1, v);
    }
    set_count(page, last);
    Ok(true)
}

/// Store a new `count`, and zero the reserved header half next to
/// `prev_mgr` as [`Bucket::encode`] does.
fn set_count<P: PageWordsMut + ?Sized>(page: &mut P, count: usize) {
    let w2 = page.word(2);
    page.set_word(2, (w2 & !u64::from(u32::MAX)) | count as u64);
    let w4 = page.word(4);
    page.set_word(4, w4 & u64::from(u32::MAX));
}

/// A borrowed, read-only view of an encoded bucket page.
///
/// A Figure 5 find needs three things from a bucket — the wrong-bucket
/// test, the `next` link, and `search` — none of which needs the records
/// decoded into a [`Bucket`]. The view validates the header exactly as
/// [`Bucket::decode`] does (it *is* decode's check), then answers those
/// questions by reading the page's words where they lie: a byte page
/// (`BucketView<&[u8]>`) or the page store's own words
/// (`BucketView<SharedPage>`).
///
/// Over a page that a writer may be storing, every answer is made of
/// words that each passed through one atomic load, and every index the
/// view uses is bounded by the page, whatever the words hold: the view
/// of a torn page gives wrong answers, never a panic.
#[derive(Debug, Clone, Copy)]
pub struct BucketView<P> {
    page: P,
    localdepth: u32,
    commonbits: u64,
    count: usize,
}

impl<'a> BucketView<&'a [u8]> {
    /// [`BucketView::over`] a byte page.
    pub fn new(page: &'a [u8]) -> Result<Self> {
        Self::over(page)
    }
}

impl<P: PageWords + Copy> BucketView<P> {
    /// Validate the header of an encoded page: long enough for a header,
    /// the bucket magic, `localdepth` ≤ 64, and `count` records fitting
    /// the page. A page of garbage fails with [`Error::Corrupt`].
    pub fn over(page: P) -> Result<Self> {
        let len = page.len_bytes();
        if len < BUCKET_HEADER_BYTES {
            return Err(Error::Corrupt(format!("page of {len} bytes is too small")));
        }
        let w0 = page.word(0);
        let magic = w0 as u32;
        if magic != MAGIC {
            return Err(Error::Corrupt(format!("bad magic {magic:#010x}")));
        }
        let localdepth = (w0 >> 32) as u32;
        let commonbits = page.word(1);
        let count = page.word(2) as u32 as usize;
        if localdepth > 64 {
            return Err(Error::Corrupt(format!(
                "localdepth {localdepth} out of range"
            )));
        }
        if count > Bucket::capacity_for(len) {
            return Err(Error::Corrupt(format!(
                "count {count} exceeds page capacity"
            )));
        }
        Ok(BucketView {
            page,
            localdepth,
            commonbits,
            count,
        })
    }

    /// Number of records (the paper's `count` field).
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// The bucket's local depth.
    #[inline]
    pub fn localdepth(&self) -> u32 {
        self.localdepth
    }

    /// Does `pk` belong in this bucket? Same test as [`Bucket::owns`]:
    /// false for a deleted bucket.
    #[inline]
    pub fn owns(&self, pk: Pseudokey) -> bool {
        self.commonbits != DELETED && pk.matches(self.commonbits, self.localdepth)
    }

    /// The `next` link (the wrong-bucket recovery path).
    #[inline]
    pub fn next(&self) -> PageId {
        PageId(self.page.word(3))
    }

    /// The paper's `search(current, z)`, scanning the record slots in
    /// place: one word per slot until the key matches.
    #[inline]
    pub fn search(&self, key: Key) -> Option<Value> {
        self.position(key)
            .map(|i| Value(self.page.word(slot_word(i) + 1)))
    }

    /// The slot holding `key`, if any.
    #[inline]
    fn position(&self, key: Key) -> Option<usize> {
        self.page.key_position(self.count, key.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Bucket {
        let mut b = Bucket::new(3, 0b101);
        b.next = PageId(9);
        b.prev = PageId(4);
        b.next_mgr = ManagerId(2);
        b.prev_mgr = ManagerId(1);
        b.version = 7;
        b.add(Record::new(100, 1));
        b.add(Record::new(200, 2));
        b
    }

    #[test]
    fn encode_decode_roundtrip() {
        let b = sample();
        let mut page = vec![0u8; 256];
        b.encode(&mut page).unwrap();
        assert_eq!(Bucket::decode(&page).unwrap(), b);
    }

    #[test]
    fn capacity_math() {
        assert_eq!(Bucket::capacity_for(4096), (4096 - 56) / 16);
        assert_eq!(Bucket::page_size_for(2), 56 + 32);
        // page_size_for and capacity_for are inverses (up to slack).
        for cap in [1usize, 2, 8, 250] {
            assert_eq!(Bucket::capacity_for(Bucket::page_size_for(cap)), cap);
        }
    }

    #[test]
    fn overflow_encode_fails() {
        let mut b = Bucket::new(0, 0);
        for i in 0..10 {
            b.add(Record::new(i, i));
        }
        let mut page = vec![0u8; Bucket::page_size_for(9)];
        assert!(matches!(b.encode(&mut page), Err(Error::Corrupt(_))));
    }

    #[test]
    fn poison_page_fails_decode() {
        let page = vec![0xDEu8; 256];
        assert!(matches!(Bucket::decode(&page), Err(Error::Corrupt(_))));
    }

    #[test]
    fn zero_page_fails_decode() {
        let page = vec![0u8; 256];
        assert!(matches!(Bucket::decode(&page), Err(Error::Corrupt(_))));
    }

    #[test]
    fn search_add_remove() {
        let mut b = sample();
        assert_eq!(b.search(Key(100)), Some(Value(1)));
        assert_eq!(b.search(Key(999)), None);
        assert!(b.remove(Key(100)));
        assert!(!b.remove(Key(100)));
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn deleted_marker() {
        let mut b = sample();
        assert!(!b.is_deleted());
        assert!(b.owns(Pseudokey(0b10101)));
        b.mark_deleted();
        assert!(b.is_deleted());
        assert!(!b.owns(Pseudokey(0b10101)), "deleted bucket owns nothing");
        // Deleted-ness survives the codec.
        let mut page = vec![0u8; 256];
        b.encode(&mut page).unwrap();
        assert!(Bucket::decode(&page).unwrap().is_deleted());
    }

    #[test]
    fn owns_by_rehash_agrees_with_commonbits_when_nonempty() {
        use crate::key::hash_key;
        let key = Key(42);
        let pk = hash_key(key);
        let ld = 5;
        let mut b = Bucket::new(ld, pk.low_bits(ld));
        b.add(Record {
            key,
            value: Value(0),
        });
        // For any probe pseudokey, the two tests agree while the bucket
        // holds a resident witness.
        for probe in [
            pk,
            Pseudokey(pk.0 ^ 1),
            Pseudokey(0),
            Pseudokey(u64::MAX - 1),
        ] {
            assert_eq!(
                b.owns(probe),
                b.owns_by_rehash(probe, hash_key),
                "probe {probe:?}"
            );
        }
        // Empty bucket: rehash test is conservatively negative.
        let empty = Bucket::new(ld, pk.low_bits(ld));
        assert!(empty.owns(pk));
        assert!(!empty.owns_by_rehash(pk, hash_key));
    }

    #[test]
    fn view_reads_the_page_in_place() {
        let b = sample();
        let mut page = vec![0u8; 256];
        b.encode(&mut page).unwrap();
        let v = BucketView::new(&page).unwrap();
        assert_eq!(v.next(), PageId(9));
        assert!(v.owns(Pseudokey(0b10101)));
        assert!(!v.owns(Pseudokey(0b10100)));
        assert_eq!(v.search(Key(200)), Some(Value(2)));
        assert_eq!(v.search(Key(999)), None);
        assert!(matches!(
            BucketView::new(&[0xDEu8; 256]),
            Err(Error::Corrupt(_))
        ));
    }

    #[test]
    fn owns_respects_localdepth() {
        let b = Bucket::new(2, 0b01);
        assert!(b.owns(Pseudokey(0b1101)));
        assert!(!b.owns(Pseudokey(0b1111)));
        assert!(!b.owns(Pseudokey(0b1100)));
    }
}
