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
//!
//! Inside the page, the paper's `search`, `add` and `remove` are a small
//! hash table: a record lives at or after its *home slot*
//! ([`home_slot`], a hash of its key), found by linear probing, with the
//! slots kept in Robin Hood order (by home slot, ties by key). That order
//! makes the layout a function of the record set alone, so an edit in
//! place ([`append_in_place`], [`remove_in_place`]) leaves exactly the
//! page that decode → edit → encode would.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::bits::mask;
use crate::error::{Error, Result};
use crate::ids::{BucketLink, ManagerId, PageId};
use crate::key::{Key, Pseudokey, Record, Value};

/// Magic tag at the start of every encoded bucket page. It names the
/// layout too: pages of the earlier in-order slot array carried
/// `0xE111_5EC4` and fail to decode.
const MAGIC: u32 = 0xE111_5EC5;

/// Words in the header proper.
const HEADER_WORDS: usize = 7;

/// Words in the occupancy bitmap that follows the header: bit `s % 64`
/// of word `HEADER_WORDS + s / 64` is set when slot `s` holds a record.
const BITMAP_WORDS: usize = 4;

/// The most record slots a page has: one per bitmap bit.
pub const MAX_SLOTS: usize = 64 * BITMAP_WORDS;

/// Byte size of the encoded bucket header, occupancy bitmap included:
/// the offset of record slot 0.
pub const BUCKET_HEADER_BYTES: usize = 8 * (HEADER_WORDS + BITMAP_WORDS);

/// Byte size of one encoded record.
pub const RECORD_BYTES: usize = 16;

/// The multiplier of [`home_slot`]: 2^64 divided by the golden ratio.
const HOME_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// The home slot of `key` in a page of `slots` record slots: where its
/// probe starts. A multiplicative hash of the key itself, not of the
/// file's pseudokey (the records of one bucket share the pseudokey's low
/// bits), reduced to `0..slots` by its top 32 bits. Every page derives
/// `slots` from its own length ([`Bucket::capacity_for`]).
#[inline]
pub fn home_slot(key: Key, slots: usize) -> usize {
    let h = key.0.wrapping_mul(HOME_MUL) >> 32;
    ((h * slots as u64) >> 32) as usize
}

/// The `commonbits` sentinel marking a deleted bucket.
///
/// Solution 2 "mark\[s\] the old partner as 'deleted' (we use the commonbits
/// field for this)" (§2.4). Real commonbits are at most `mask(max_depth)`
/// and `max_depth ≤` [`crate::MAX_SUPPORTED_DEPTH`] (26), so `u64::MAX`
/// can never be a legitimate value.
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
    /// The records; `count` in the paper is `records.len()` here. A set:
    /// the page holds them in its own order, and [`Bucket::decode`] gives
    /// them in slot order.
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

    /// How many records fit in a page of `page_size` bytes: its record
    /// slots, at most [`MAX_SLOTS`].
    pub const fn capacity_for(page_size: usize) -> usize {
        let slots = page_size.saturating_sub(BUCKET_HEADER_BYTES) / RECORD_BYTES;
        if slots < MAX_SLOTS {
            slots
        } else {
            MAX_SLOTS
        }
    }

    /// The page size needed to hold `capacity` records (`capacity` ≤
    /// [`MAX_SLOTS`]).
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

    /// The survivor of merging the partners `zero` (partner bit clear)
    /// and `one` (§2.2, Figures 7, 9 and 14). It keeps the "0" partner's
    /// identity and `prev` link, takes the "1" partner's `next` link
    /// (splicing it out of the chain), holds both record sets at one
    /// level shallower, and gets a version past both partners' (the
    /// merge is a directory update, §3). Which page it is written to is
    /// the caller's choice.
    pub fn merged(zero: &Bucket, one: &Bucket) -> Bucket {
        debug_assert_eq!(zero.localdepth, one.localdepth, "partners differ in depth");
        let localdepth = zero.localdepth - 1;
        Bucket {
            localdepth,
            commonbits: zero.commonbits & mask(localdepth),
            next: one.next,
            next_mgr: one.next_mgr,
            prev: zero.prev,
            prev_mgr: zero.prev_mgr,
            version: Bucket::merged_version(zero.version, one.version),
            records: zero.records.iter().chain(&one.records).copied().collect(),
        }
    }

    /// The version of the survivor of partners at versions `v0` and `v1`
    /// (see [`Bucket::merged`]).
    pub fn merged_version(v0: u64, v1: u64) -> u64 {
        v0.max(v1) + 1
    }

    /// The tombstone a merge leaves on a retired partner's page: "marking
    /// the old partner as 'deleted' (we use the commonbits field for
    /// this), setting its next field to point to the merged bucket"
    /// (§2.4), so a search that still reaches the page recovers along
    /// `next`.
    pub fn tombstone(next: BucketLink, version: u64) -> Bucket {
        Bucket {
            commonbits: DELETED,
            next: next.page,
            next_mgr: next.manager,
            version,
            ..Bucket::new(0, 0)
        }
    }

    /// Encode into a page buffer. Fails if the records overflow the page.
    pub fn encode(&self, page: &mut [u8]) -> Result<()> {
        self.encode_words(page)
    }

    /// Encode into `page`: the header, the bitmap, and the records in
    /// Robin Hood order — the one layout of the record set, which
    /// [`append_in_place`] and [`remove_in_place`] keep. Slots left free
    /// keep whatever bytes they held. Fails, before writing anything, if
    /// the records overflow the page or two of them share a key.
    pub fn encode_words<P: PageWordsMut + ?Sized>(&self, page: &mut P) -> Result<()> {
        let len = page.len_bytes();
        let slots = Self::capacity_for(len);
        if len < BUCKET_HEADER_BYTES || self.records.len() > slots {
            return Err(Error::Corrupt(format!(
                "bucket with {} records does not fit a {len}-byte page",
                self.records.len(),
            )));
        }
        let mut bitmap = [0u64; BITMAP_WORDS];
        let mut put = |s: usize, r: Record| {
            page.set_word(key_word(s), r.key.0);
            page.set_word(key_word(s) + 1, r.value.0);
            bitmap[s / 64] |= 1 << (s % 64);
        };
        lay_out(&self.records, slots, &mut put)?;
        page.set_word(0, u64::from(MAGIC) | u64::from(self.localdepth) << 32);
        page.set_word(1, self.commonbits);
        page.set_word(
            2,
            self.records.len() as u64 | u64::from(self.next_mgr.0) << 32,
        );
        page.set_word(3, self.next.0);
        page.set_word(4, u64::from(self.prev_mgr.0)); // high half reserved
        page.set_word(5, self.prev.0);
        page.set_word(6, self.version);
        for (i, w) in bitmap.into_iter().enumerate() {
            page.set_word(HEADER_WORDS + i, w);
        }
        Ok(())
    }

    /// Decode from a page buffer, validating it (see
    /// [`Bucket::decode_words`]).
    pub fn decode(page: &[u8]) -> Result<Bucket> {
        Self::decode_words(page)
    }

    /// Decode `page`, its records in slot order. Beyond the header
    /// checks of [`BucketView::over`], the bitmap must mark `count` slots,
    /// all of them slots the page has, and the occupied slots must be in
    /// Robin Hood order: a record after a free slot is at home, each
    /// later one is no further from home than one more than the record
    /// before it, and one exactly one further (the same home) has the
    /// greater key; a full page has a record at home. A page that breaks
    /// the order fails with [`Error::Corrupt`]: searches would miss its
    /// records.
    pub fn decode_words<P: PageWords + Copy>(page: P) -> Result<Bucket> {
        let view = BucketView::over(page)?;
        let slots = view.slots;
        // One read of the bitmap: over a page a writer may be storing, a
        // second read could mark slots past the page.
        let bitmap: [u64; BITMAP_WORDS] = std::array::from_fn(|i| page.word(HEADER_WORDS + i));
        let mut set = 0;
        for (i, &w) in bitmap.iter().enumerate() {
            let valid = match slots.saturating_sub(64 * i) {
                0 => 0,
                n if n >= 64 => u64::MAX,
                n => (1 << n) - 1,
            };
            if w & !valid != 0 {
                return Err(Error::Corrupt(format!(
                    "bitmap marks a slot past the page's {slots}"
                )));
            }
            set += w.count_ones() as usize;
        }
        if set != view.count {
            return Err(Error::Corrupt(format!(
                "bitmap marks {set} slots for {} records",
                view.count
            )));
        }
        let mut records = Vec::with_capacity(view.count);
        // The record before, as (slot, key, distance from home), starting
        // with the last slot's, which comes before slot 0.
        let last = slots.wrapping_sub(1);
        let mut prev = (slots > 0 && bitmap[last / 64] >> (last % 64) & 1 == 1).then(|| {
            let k = page.word(key_word(last));
            (last, k, displacement(k, last, slots))
        });
        let mut at_home = false;
        for (w, &word) in bitmap.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let s = 64 * w + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let key = page.word(key_word(s));
                let d = displacement(key, s, slots);
                let ordered = match prev {
                    Some((ps, k, pd)) if next_slot(ps, slots) == s => {
                        d <= pd || (d == pd + 1 && k < key)
                    }
                    _ => d == 0,
                };
                if !ordered {
                    return Err(Error::Corrupt(format!(
                        "slot {s} (key {key:#x}, {d} from home) is out of Robin Hood order"
                    )));
                }
                at_home |= d == 0;
                records.push(Record {
                    key: Key(key),
                    value: Value(page.word(key_word(s) + 1)),
                });
                prev = Some((s, key, d));
            }
        }
        if view.count == slots && slots > 0 && !at_home {
            return Err(Error::Corrupt(
                "full page with no record at its home slot".into(),
            ));
        }
        let (w2, w4) = (page.word(2), page.word(4));
        Ok(Bucket {
            localdepth: view.localdepth,
            commonbits: view.commonbits,
            next: view.next(),
            next_mgr: ManagerId((w2 >> 32) as u32),
            prev: PageId(page.word(5)),
            prev_mgr: ManagerId(w4 as u32),
            version: page.word(6),
            records,
        })
    }
}

/// The link invariants of a quiescent file, walked from `head`, the
/// bucket directory entry 0 names, over the file's `live` live buckets,
/// which `get` looks up by link (a one-site file may ignore the
/// manager):
///
/// 1. **The `next` chain** (§2.3): from `head` it visits every live
///    bucket once, in strictly increasing bit-reversed `commonbits`
///    (a split inserts the "1" half right after the "0" half and a merge
///    splices one out), and ends at the all-ones bucket. So "between any
///    two partner buckets, there is a path from the '0' partner to the
///    '1' partner".
/// 2. **`prev` names the "0" side** (Figure 10): a bucket whose
///    `commonbits` are 0 has no `prev`; otherwise, with `h` the highest
///    set bit of its `commonbits`, `prev` names a live bucket deeper
///    than `h` whose low `h + 1` bits are this bucket's with bit `h`
///    cleared: the bucket it split off from, or that bucket's "0" half
///    since. A distributed merge of the "1" partner finds the "0"
///    partner there.
pub fn check_links<'a>(
    head: BucketLink,
    live: usize,
    get: impl Fn(BucketLink) -> Option<&'a Bucket>,
) -> Result<()> {
    let mut visited = std::collections::HashSet::new();
    let mut at = head;
    let mut last_rev: Option<u64> = None;
    loop {
        if !visited.insert(at) {
            return Err(Error::Corrupt(format!("next chain revisits {at} (cycle)")));
        }
        let b = get(at)
            .ok_or_else(|| Error::Corrupt(format!("next chain reaches {at}, not a live bucket")))?;
        // `commonbits` occupy the low `localdepth` bits, so
        // `reverse_bits` puts bit 1 on top: the binary fraction
        // 0.c1c2... the split order sorts by.
        let rev = b.commonbits.reverse_bits();
        if last_rev.is_some_and(|last| rev <= last) {
            return Err(Error::Corrupt(format!(
                "chain order violated at {at} (cb {:b}/{})",
                b.commonbits, b.localdepth
            )));
        }
        last_rev = Some(rev);
        check_prev(at, b, &get)?;
        if b.next.is_null() {
            if b.commonbits != mask(b.localdepth) {
                return Err(Error::Corrupt(format!(
                    "chain ends at {at} (cb {:b}/{}, not all-ones)",
                    b.commonbits, b.localdepth
                )));
            }
            break;
        }
        at = BucketLink::new(b.next_mgr, b.next);
    }
    if visited.len() != live {
        return Err(Error::Corrupt(format!(
            "next chain visits {} buckets of {live}",
            visited.len()
        )));
    }
    Ok(())
}

/// Rule 2 of [`check_links`] for the live bucket `b` at `at`.
fn check_prev<'a>(
    at: BucketLink,
    b: &Bucket,
    get: &impl Fn(BucketLink) -> Option<&'a Bucket>,
) -> Result<()> {
    let prev = BucketLink::new(b.prev_mgr, b.prev);
    let bits = b.commonbits & mask(b.localdepth);
    if bits == 0 {
        if prev.is_null() {
            return Ok(());
        }
        return Err(Error::Corrupt(format!(
            "{at} has commonbits 0 but prev {prev}"
        )));
    }
    let h = 63 - bits.leading_zeros();
    let want = bits & mask(h);
    match get(prev) {
        Some(p) if p.localdepth > h && p.commonbits & mask(h + 1) == want => Ok(()),
        _ => Err(Error::Corrupt(format!(
            "{at} (cb {bits:b}/{}): prev {prev} is not a live bucket deeper than {h} \
             with low bits {want:0w$b}",
            b.localdepth,
            w = h as usize + 1
        ))),
    }
}

/// An encoded page read one 64-bit word at a time. The format is a
/// sequence of little-endian words: a header of seven (magic and
/// `localdepth`; `commonbits`; `count` and `next_mgr`; `next`;
/// `prev_mgr` and a reserved half; `prev`; `version`), a four-word
/// occupancy bitmap, then two per record slot (key, value), as many
/// slots as [`Bucket::capacity_for`] the page's length. Word `i` is the
/// value of bytes `8i..8i + 8`.
///
/// Implemented for byte pages (`[u8]`, a process's private buffer) and
/// for [`SharedPage`], the page store's words, which lock-free readers
/// may load while a writer stores them. The codec, the in-place edits
/// and [`BucketView`] are written once over this trait.
pub trait PageWords {
    /// Length of the page in bytes.
    fn len_bytes(&self) -> usize;
    /// Word `i` (`i < len_bytes() / 8`).
    fn word(&self, i: usize) -> u64;
}

/// A [`PageWords`] page that can be written one word at a time.
pub trait PageWordsMut: PageWords {
    /// Store `w` as word `i`.
    fn set_word(&mut self, i: usize, w: u64);

    /// Copy words `src` to the words from `dst` on, as
    /// [`slice::copy_within`] does: the two ranges may overlap. The
    /// in-place edits shift runs of record slots with it.
    fn copy_words(&mut self, src: Range<usize>, dst: usize);
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
}

impl PageWordsMut for [u8] {
    #[inline]
    fn set_word(&mut self, i: usize, w: u64) {
        self[8 * i..8 * i + 8].copy_from_slice(&w.to_le_bytes());
    }

    #[inline]
    fn copy_words(&mut self, src: Range<usize>, dst: usize) {
        self.copy_within(8 * src.start..8 * src.end, 8 * dst);
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
}

/// A page held as atomic words, in the page store's slot, for reading.
///
/// Every access is one `Relaxed` load of a whole word, so a reader that
/// scans the page without a lock never races a writer's store; it
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
}

/// A page held as atomic words, for its one writer at a time. What
/// serializes writers is the page's α or ξ lock in its header word,
/// which the locking protocols hold for every write; the store brackets
/// the write with the header's writing bit and version. Every store is
/// one `Relaxed` store of a whole word; see [`SharedPage`].
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
}

impl PageWordsMut for SharedPageMut<'_> {
    #[inline]
    fn set_word(&mut self, i: usize, w: u64) {
        // ceh-lint: allow(relaxed-ordering) — a page word; the page's version word orders it
        self.words[i].store(w.to_le(), Ordering::Relaxed);
    }

    fn copy_words(&mut self, src: Range<usize>, dst: usize) {
        let from = &self.words[src.clone()];
        let to = &self.words[dst..dst + src.len()];
        let copy = |(a, b): (&AtomicU64, &AtomicU64)| {
            // ceh-lint: allow(relaxed-ordering) — page words; the page's version word orders them
            b.store(a.load(Ordering::Relaxed), Ordering::Relaxed)
        };
        if dst <= src.start {
            from.iter().zip(to).for_each(copy);
        } else {
            from.iter().zip(to).rev().for_each(copy);
        }
    }
}

/// Word index of record slot `s`'s key (its value is the next word).
#[inline]
const fn key_word(s: usize) -> usize {
    HEADER_WORDS + BITMAP_WORDS + 2 * s
}

/// Does slot `s` hold a record?
#[inline]
fn occupied<P: PageWords + ?Sized>(page: &P, s: usize) -> bool {
    page.word(HEADER_WORDS + s / 64) >> (s % 64) & 1 == 1
}

/// Set or clear slot `s`'s bit in the occupancy bitmap.
#[inline]
fn set_occupied<P: PageWordsMut + ?Sized>(page: &mut P, s: usize, on: bool) {
    let (i, bit) = (HEADER_WORDS + s / 64, 1u64 << (s % 64));
    let w = page.word(i);
    page.set_word(i, if on { w | bit } else { w & !bit });
}

/// The slot after `s`, wrapping past the last of `slots`.
#[inline]
fn next_slot(s: usize, slots: usize) -> usize {
    if s + 1 == slots {
        0
    } else {
        s + 1
    }
}

/// How many slots past its home slot `key` lies when it is in slot `s`.
#[inline]
fn displacement(key: u64, s: usize, slots: usize) -> usize {
    let home = home_slot(Key(key), slots);
    if s >= home {
        s - home
    } else {
        s + slots - home
    }
}

/// The one probe loop: from `key`'s home slot, `Ok` with the slot that
/// holds it, or `Err` with the slot it would go in — a free slot, or the
/// first record that Robin Hood order puts after it (nearer its home, or
/// as near with a greater key). At most `slots` probes, each reading one
/// key word and one bitmap word within the page's slots, whatever the
/// words hold. The key word is read first: its address depends on
/// nothing but the key, so its load need not wait for the bitmap's.
#[inline]
fn probe<P: PageWords + ?Sized>(
    page: &P,
    slots: usize,
    key: u64,
) -> std::result::Result<usize, usize> {
    let mut s = home_slot(Key(key), slots);
    for d in 0..slots {
        let k = page.word(key_word(s));
        if !occupied(page, s) {
            return Err(s);
        }
        if k == key {
            return Ok(s);
        }
        let kd = displacement(k, s, slots);
        if kd < d || (kd == d && k > key) {
            return Err(s);
        }
        s = next_slot(s, slots);
    }
    Err(s)
}

/// The first free slot at or after `s`, wrapping: a scan of the bitmap,
/// `None` on a page with every slot taken.
fn free_slot_from<P: PageWords + ?Sized>(page: &P, s: usize, slots: usize) -> Option<usize> {
    let words = slots.div_ceil(64);
    // One pass over the bitmap words from `s`'s, the first one twice: from
    // `s` on, then (after wrapping) below `s`.
    for i in 0..=words {
        let w = (s / 64 + i) % words;
        let mut free = !page.word(HEADER_WORDS + w);
        if i == 0 {
            free &= u64::MAX << (s % 64);
        }
        if w == words - 1 && !slots.is_multiple_of(64) {
            free &= (1 << (slots % 64)) - 1;
        }
        if free != 0 {
            return Some(64 * w + free.trailing_zeros() as usize);
        }
    }
    None
}

/// Move the record in slot `from` to slot `to`.
#[inline]
fn move_slot<P: PageWordsMut + ?Sized>(page: &mut P, from: usize, to: usize) {
    let (k, v) = (page.word(key_word(from)), page.word(key_word(from) + 1));
    page.set_word(key_word(to), k);
    page.set_word(key_word(to) + 1, v);
}

/// Hand each of `records` to `put` with its slot in the Robin Hood
/// layout over `slots` slots (`records.len() ≤ slots`), or fail, before
/// handing any, if two share a key. A counting sort on the home slot,
/// ties by key, then one greedy pass: each record goes to its home slot
/// or just past the record before, whichever is later. The pass starts
/// at a slot no cluster runs into from the slots before: the slot after
/// the lowest point of the running sum, over the slots, of (records
/// homed there − 1), past which every record homed before has a slot.
fn lay_out(records: &[Record], slots: usize, put: &mut impl FnMut(usize, Record)) -> Result<()> {
    let mut homes = [0u8; MAX_SLOTS];
    // `first[h]`: where the records homed at `h` begin in `sorted`.
    let mut first = [0u16; MAX_SLOTS + 1];
    for (i, r) in records.iter().enumerate() {
        let h = home_slot(r.key, slots);
        homes[i] = h as u8;
        first[h + 1] += 1;
    }
    let (mut sum, mut low, mut start) = (0i32, 0i32, 0);
    for h in 0..slots {
        sum += i32::from(first[h + 1]) - 1;
        if sum < low {
            (low, start) = (sum, h + 1);
        }
        first[h + 1] += first[h];
    }
    let start = if start == slots { 0 } else { start };
    let mut sorted = [Record::new(0, 0); MAX_SLOTS];
    let mut fill = first;
    for (r, &h) in records.iter().zip(&homes) {
        let (lo, mut j) = (
            usize::from(first[usize::from(h)]),
            usize::from(fill[usize::from(h)]),
        );
        fill[usize::from(h)] += 1;
        while j > lo && sorted[j - 1].key > r.key {
            sorted[j] = sorted[j - 1];
            j -= 1;
        }
        if j > lo && sorted[j - 1].key == r.key {
            return Err(Error::Corrupt(format!(
                "bucket holds key {} twice",
                r.key.0
            )));
        }
        sorted[j] = *r;
    }
    let mut next = start;
    for home in start..start + slots {
        let h = if home < slots { home } else { home - slots };
        for r in &sorted[usize::from(first[h])..usize::from(first[h + 1])] {
            let at = next.max(home);
            next = at + 1;
            put(if at < slots { at } else { at - slots }, *r);
        }
    }
    Ok(())
}

/// Put `record` into `page`'s `slots` slots at `at`, the slot a probe for
/// its key ended on: shift the records from there up to the next free
/// slot one slot on. `Err` (the page untouched) if no slot is free. The
/// count is the caller's.
fn insert_at<P: PageWordsMut + ?Sized>(
    page: &mut P,
    slots: usize,
    at: usize,
    record: Record,
) -> Result<()> {
    let Some(free) = free_slot_from(&*page, at, slots) else {
        return Err(Error::Corrupt("no free slot".into()));
    };
    if at <= free {
        page.copy_words(key_word(at)..key_word(free), key_word(at + 1));
    } else {
        page.copy_words(key_word(0)..key_word(free), key_word(1));
        move_slot(page, slots - 1, 0);
        page.copy_words(key_word(at)..key_word(slots - 1), key_word(at + 1));
    }
    page.set_word(key_word(at), record.key.0);
    page.set_word(key_word(at) + 1, record.value.0);
    set_occupied(page, free, true);
    Ok(())
}

/// Empty slot `hole` of `page`'s `slots` slots: pull the run after it
/// back one slot, up to the next free slot (on a full page, the hole
/// itself) or a record at home, and free the run's last slot, which
/// keeps its bytes. The count is the caller's.
fn remove_at<P: PageWordsMut + ?Sized>(page: &mut P, slots: usize, hole: usize) {
    let free = free_slot_from(&*page, hole, slots).unwrap_or(hole);
    let mut end = hole;
    loop {
        let s = next_slot(end, slots);
        if s == free || home_slot(Key(page.word(key_word(s))), slots) == s {
            break;
        }
        end = s;
    }
    if hole <= end {
        page.copy_words(key_word(hole + 1)..key_word(end + 1), key_word(hole));
    } else {
        page.copy_words(key_word(hole + 1)..key_word(slots), key_word(hole));
        move_slot(page, 0, slots - 1);
        page.copy_words(key_word(1)..key_word(end + 1), key_word(0));
    }
    set_occupied(page, end, false);
}

/// Where a probe for a key ended on a page: the key's slot, or the slot
/// it would take. A validated read that plans an in-place edit hands it
/// to the edit ([`append_located`], [`remove_located`]), which runs on
/// the unchanged page under the write lock the read's snapshot granted,
/// and so need not check the header or probe again.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Located {
    slot: usize,
    found: bool,
}

impl Located {
    /// Did the probe find the key?
    #[inline]
    pub fn found(self) -> bool {
        self.found
    }
}

/// The probe of the paper's `search(current, z)` over the record slots
/// of `page`, before, or without, any check of its header: the probe
/// needs only the page's length. Over a page that has not validated the
/// answer means nothing, but computing it cannot fault. A validated read
/// runs it first, so that the record's slot is loaded while the header
/// is.
#[inline]
pub fn locate<P: PageWords + ?Sized>(page: &P, key: Key) -> Located {
    let slots = Bucket::capacity_for(page.len_bytes());
    match probe(page, slots, key.0) {
        Ok(slot) => Located { slot, found: true },
        Err(slot) => Located { slot, found: false },
    }
}

/// The paper's `search(current, z)` over the record slots of `page`, as
/// [`locate`] probes them, with no check of the header.
#[inline]
pub fn search_slots<P: PageWords + ?Sized>(page: &P, key: Key) -> Option<Value> {
    let at = locate(page, key);
    at.found.then(|| Value(page.word(key_word(at.slot) + 1)))
}

/// The paper's `add(current, z)` on an encoded page, in place: probe
/// from the record's home slot to its place in Robin Hood order, shift
/// the records from there to the next free slot one slot on, and bump
/// `count`. The page ends up exactly as [`Bucket::decode`] →
/// [`Bucket::add`] → [`Bucket::encode`] would leave it, so an update
/// dirties the header, the bitmap and a short run of slots instead of the
/// page.
///
/// Fails with [`Error::Corrupt`], leaving the page untouched, when the
/// header fails [`BucketView::over`] or the page has no free slot. Like
/// [`Bucket::add`], the caller has already checked that the key is absent.
pub fn append_in_place<P: PageWordsMut + ?Sized>(page: &mut P, record: Record) -> Result<()> {
    BucketView::over(&*page)?;
    let at = locate(&*page, record.key);
    debug_assert!(!at.found, "add of a present key");
    append_located(page, at, record)
}

/// [`append_in_place`] at `at`, which [`locate`] found for the record's
/// key on this page as it is now: no header check, no probe. Fails with
/// [`Error::Corrupt`], leaving the page untouched, when the page is full
/// or `at` is not a free place for the key.
pub fn append_located<P: PageWordsMut + ?Sized>(
    page: &mut P,
    at: Located,
    record: Record,
) -> Result<()> {
    let slots = Bucket::capacity_for(page.len_bytes());
    let count = page.word(2) as u32 as usize;
    if count >= slots || at.found || at.slot >= slots {
        return Err(Error::Corrupt(format!(
            "append to a page of {count} records in {slots} slots at {at:?}"
        )));
    }
    insert_at(page, slots, at.slot, record)?;
    set_count(page, count + 1);
    Ok(())
}

/// The paper's `remove(z, current)` on an encoded page, in place: the
/// records after the hole move back one slot each, up to a free slot or
/// a record at home (a backward shift), the slot that run ends at is
/// freed, and `count` drops by one. The freed slot keeps its bytes. The
/// page ends up exactly as decode → remove → encode would leave it.
/// Reports whether anything was removed; removing an absent key changes
/// nothing.
///
/// Fails with [`Error::Corrupt`], leaving the page untouched, when the
/// header fails [`BucketView::over`].
pub fn remove_in_place<P: PageWordsMut + ?Sized>(page: &mut P, key: Key) -> Result<bool> {
    BucketView::over(&*page)?;
    let at = locate(&*page, key);
    remove_located(page, at)
}

/// [`remove_in_place`] at `at`, which [`locate`] found for the key on
/// this page as it is now: no header check, no probe. Removes nothing
/// when the key was not found. Fails with [`Error::Corrupt`], leaving
/// the page untouched, when the page holds no record to remove.
pub fn remove_located<P: PageWordsMut + ?Sized>(page: &mut P, at: Located) -> Result<bool> {
    if !at.found {
        return Ok(false);
    }
    let slots = Bucket::capacity_for(page.len_bytes());
    let count = page.word(2) as u32 as usize;
    if count == 0 || count > slots || at.slot >= slots {
        return Err(Error::Corrupt(format!(
            "remove from a page of {count} records in {slots} slots at {at:?}"
        )));
    }
    remove_at(page, slots, at.slot);
    set_count(page, count - 1);
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
/// [`Bucket::decode`] does (it *is* decode's first check), then answers those questions by reading the page's words where they
/// lie: a byte page (`BucketView<&[u8]>`) or the page store's own words
/// (`BucketView<SharedPage>`).
///
/// Over a page that a writer may be storing, every answer is made of
/// words that each passed through one atomic load, every probe loop is
/// bounded by the page's slot count, and every index the view uses is
/// bounded by the page, whatever the words hold: the view of a torn page
/// gives wrong answers, never a panic.
#[derive(Debug, Clone, Copy)]
pub struct BucketView<P> {
    page: P,
    localdepth: u32,
    commonbits: u64,
    count: usize,
    slots: usize,
}

impl<'a> BucketView<&'a [u8]> {
    /// [`BucketView::over`] a byte page.
    pub fn new(page: &'a [u8]) -> Result<Self> {
        Self::over(page)
    }
}

impl<P: PageWords + Copy> BucketView<P> {
    /// Validate the header of an encoded page: long enough for the header
    /// and bitmap, the bucket magic, `localdepth` ≤ 64, and `count`
    /// records fitting the page. A page of garbage fails with
    /// [`Error::Corrupt`]. The bitmap is checked against `count` by
    /// [`Bucket::decode`], not here: a find needs only the bits it
    /// probes.
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
        let slots = Bucket::capacity_for(len);
        if count > slots {
            return Err(Error::Corrupt(format!(
                "count {count} exceeds page capacity"
            )));
        }
        Ok(BucketView {
            page,
            localdepth,
            commonbits,
            count,
            slots,
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

    /// The manager holding `next` (distributed only).
    #[inline]
    pub fn next_mgr(&self) -> ManagerId {
        ManagerId((self.page.word(2) >> 32) as u32)
    }

    /// The paper's `search(current, z)`, probing the record slots in
    /// place from the key's home slot: it stops at the key, a free slot,
    /// or the first record Robin Hood order puts after the key, and makes
    /// at most one probe per slot.
    #[inline]
    pub fn search(&self, key: Key) -> Option<Value> {
        search_slots(&self.page, key)
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

    /// `b` with its records in key order: the codec keeps the record
    /// set, in slot order.
    fn by_key(mut b: Bucket) -> Bucket {
        b.records.sort_by_key(|r| r.key);
        b
    }

    #[test]
    fn encode_decode_roundtrip() {
        let b = sample();
        let mut page = vec![0u8; 256];
        b.encode(&mut page).unwrap();
        assert_eq!(by_key(Bucket::decode(&page).unwrap()), by_key(b));
    }

    #[test]
    fn capacity_math() {
        assert_eq!(Bucket::capacity_for(4096), (4096 - 88) / 16);
        assert_eq!(Bucket::page_size_for(2), 88 + 32);
        // A 4 KiB slot frame: the page store's header word and 250 slots.
        assert_eq!(8 + Bucket::page_size_for(250), 4096);
        // page_size_for and capacity_for are inverses (up to slack).
        for cap in [0usize, 1, 2, 8, 250, MAX_SLOTS] {
            assert_eq!(Bucket::capacity_for(Bucket::page_size_for(cap)), cap);
        }
        // One bitmap bit per slot bounds the slots; short pages have none.
        assert_eq!(Bucket::capacity_for(1 << 16), MAX_SLOTS);
        assert_eq!(Bucket::capacity_for(40), 0);
    }

    #[test]
    fn layout_is_robin_hood_order() {
        // Three keys sharing home slot 1 of 4, then one at home 3: the
        // shared home holds the least key, the rest follow in key order,
        // and the cluster wraps past the last slot.
        let slots = 4;
        let mut keys: Vec<u64> = (0..)
            .filter(|&k| home_slot(Key(k), slots) == 1)
            .take(3)
            .collect();
        let late = (0..).find(|&k| home_slot(Key(k), slots) == 3).unwrap();
        let mut b = Bucket::new(0, 0);
        for &k in keys.iter().rev().chain([&late]) {
            b.add(Record::new(k, k));
        }
        let mut page = vec![0u8; Bucket::page_size_for(slots)];
        b.encode(&mut page).unwrap();
        keys.sort_unstable();
        let at = |s: usize| page.word(key_word(s));
        assert_eq!(
            [at(1), at(2), at(3), at(0)],
            [keys[0], keys[1], keys[2], late]
        );
        let view = BucketView::new(&page).unwrap();
        for &k in keys.iter().chain([&late]) {
            assert_eq!(view.search(Key(k)), Some(Value(k)));
        }
        // Swapping two records of the shared home breaks the order.
        page.set_word(key_word(1), keys[1]);
        page.set_word(key_word(2), keys[0]);
        assert!(matches!(Bucket::decode(&page), Err(Error::Corrupt(_))));
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

    /// Pages 0, 1, 2 of a one-site file: `0` (depth 1), then `01`, which
    /// split off from it, then `11`, which split off from `01`.
    fn linked() -> Vec<Bucket> {
        let mut b0 = Bucket::new(1, 0b0);
        b0.next = PageId(1);
        let mut b1 = Bucket::new(2, 0b01);
        (b1.prev, b1.next) = (PageId(0), PageId(2));
        let mut b2 = Bucket::new(2, 0b11);
        b2.prev = PageId(1);
        vec![b0, b1, b2]
    }

    fn check(file: &[Bucket]) -> Result<()> {
        let head = BucketLink::new(ManagerId::NONE, PageId(0));
        check_links(head, file.len(), |l| file.get(l.page.0 as usize))
    }

    #[test]
    fn check_links_accepts_a_well_linked_file() {
        check(&linked()).unwrap();
        // The survivor of merging 01 and 11 on page 1 keeps 01's prev.
        let mut file = linked();
        file[1] = Bucket::merged(&file[1], &file[2]);
        file.pop();
        check(&file).unwrap();
    }

    #[test]
    fn check_links_rejects_a_prev_that_is_not_the_zero_side() {
        let mut file = linked();
        file[1].prev = PageId(1); // itself
        assert!(check(&file).is_err());
        let mut file = linked();
        file[2].prev = PageId(0); // low bits 0, not 01
        assert!(check(&file).is_err());
        let mut file = linked();
        file[0].prev = PageId(2); // commonbits 0 has no prev
        assert!(check(&file).is_err());
        let mut file = linked();
        file[1].prev = PageId::NULL;
        assert!(check(&file).is_err());
    }

    #[test]
    fn check_links_rejects_a_broken_chain() {
        let mut file = linked();
        file[0].next = PageId(2); // skips 01
        assert!(check(&file).is_err());
        let mut file = linked();
        (file[0].next, file[1].next, file[2].next) = (PageId(2), PageId::NULL, PageId(1));
        assert!(check(&file).is_err(), "out of split order");
        let mut file = linked();
        file[2].next = PageId(0); // a cycle
        assert!(check(&file).is_err());
    }

    #[test]
    fn merged_and_tombstone_follow_the_paper() {
        let file = linked();
        let mut zero = file[1].clone();
        zero.add(Record::new(0b001, 1));
        zero.version = 4;
        let mut one = file[2].clone();
        one.add(Record::new(0b011, 2));
        one.next = PageId(9);
        one.next_mgr = ManagerId(3);
        one.version = 6;
        let s = Bucket::merged(&zero, &one);
        assert_eq!((s.localdepth, s.commonbits), (1, 0b1));
        assert_eq!(
            (s.prev, s.next, s.next_mgr),
            (PageId(0), PageId(9), ManagerId(3))
        );
        assert_eq!(s.version, 7);
        assert_eq!(s.count(), 2);
        let t = Bucket::tombstone(BucketLink::new(ManagerId(2), PageId(1)), 7);
        assert!(t.is_deleted());
        assert_eq!(
            (t.next, t.next_mgr, t.version, t.count()),
            (PageId(1), ManagerId(2), 7, 0)
        );
    }

    #[test]
    fn owns_respects_localdepth() {
        let b = Bucket::new(2, 0b01);
        assert!(b.owns(Pseudokey(0b1101)));
        assert!(!b.owns(Pseudokey(0b1111)));
        assert!(!b.owns(Pseudokey(0b1100)));
    }
}
