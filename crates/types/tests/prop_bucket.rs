//! Property tests for the bucket page codec.

use std::cell::Cell;
use std::sync::atomic::AtomicU64;

use ceh_types::bucket::{
    append_in_place, home_slot, remove_in_place, Bucket, BucketView, PageWords, SharedPage,
    SharedPageMut, BUCKET_HEADER_BYTES,
};
use ceh_types::{Key, ManagerId, PageId, Pseudokey, Record, Value};
use proptest::prelude::*;

/// The page store's atomic words holding `page`.
fn words_of(page: &[u8]) -> Vec<AtomicU64> {
    let words: Vec<AtomicU64> = (0..page.len() / 8).map(|_| AtomicU64::new(0)).collect();
    SharedPageMut::new(&words).copy_from(page);
    words
}

/// The bytes `words` hold.
fn bytes_of(words: &[AtomicU64]) -> Vec<u8> {
    let mut bytes = vec![0u8; 8 * words.len()];
    SharedPage::new(words).copy_to(&mut bytes);
    bytes
}

/// `b` with its records in key order: the codec keeps the record set,
/// in slot order.
fn by_key(mut b: Bucket) -> Bucket {
    b.records.sort_by_key(|r| r.key);
    b
}

/// A byte page that counts the words read from it.
struct Counted<'a> {
    bytes: &'a [u8],
    loads: Cell<usize>,
}

impl PageWords for Counted<'_> {
    fn len_bytes(&self) -> usize {
        self.bytes.len()
    }

    fn word(&self, i: usize) -> u64 {
        self.loads.set(self.loads.get() + 1);
        self.bytes.word(i)
    }
}

/// A byte page whose words may read differently each time, as a page a
/// writer is storing may: about one read in eight, picked by a mix of a
/// read counter, comes back XORed with noise.
struct Torn<'a> {
    bytes: &'a [u8],
    reads: Cell<u64>,
}

impl PageWords for Torn<'_> {
    fn len_bytes(&self) -> usize {
        self.bytes.len()
    }

    fn word(&self, i: usize) -> u64 {
        let n = self.reads.get();
        self.reads.set(n + 1);
        let noise = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.bytes.word(i) ^ if noise >> 61 == 0 { noise } else { 0 }
    }
}

/// Stamp `bytes` with a header the view accepts: the bucket magic, depth
/// 0, and a `count` equal to the bitmap's bits, the bitmap cut to the
/// page's slots. The slots keep whatever `bytes` held.
fn stamp_valid_header(bytes: &mut [u8]) {
    let slots = Bucket::capacity_for(bytes.len());
    let mut magic = vec![0u8; Bucket::page_size_for(0)];
    Bucket::new(0, 0).encode(&mut magic).unwrap();
    bytes[0..8].copy_from_slice(&magic[0..8]);
    let mut count = 0u32;
    for i in 0..4 {
        let at = 56 + 8 * i;
        let w = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let keep = match slots.saturating_sub(64 * i) {
            0 => 0,
            n if n >= 64 => u64::MAX,
            n => (1u64 << n) - 1,
        };
        count += (w & keep).count_ones();
        bytes[at..at + 8].copy_from_slice(&(w & keep).to_le_bytes());
    }
    bytes[16..20].copy_from_slice(&count.to_le_bytes());
}

/// A key whose home slot among `slots` is one of the last two, found
/// from `seed` on: such keys crowd the end of the page, so their
/// clusters wrap past the last slot.
fn late_key(seed: u64, slots: usize) -> u64 {
    (seed..)
        .find(|&k| home_slot(Key(k), slots) + 2 >= slots)
        .expect("a late key")
}

/// `keys` without repeats, in first-seen order.
fn distinct(keys: Vec<u64>) -> Vec<u64> {
    let mut seen = std::collections::HashSet::new();
    keys.into_iter().filter(|k| seen.insert(*k)).collect()
}

/// Every order of `items`.
fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    if items.is_empty() {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for i in 0..items.len() {
        let mut rest = items.to_vec();
        let first = rest.remove(i);
        for mut p in permutations(&rest) {
            p.insert(0, first.clone());
            out.push(p);
        }
    }
    out
}

fn arb_bucket(max_records: usize) -> impl Strategy<Value = Bucket> {
    (
        0u32..=32,
        any::<u64>(),
        any::<u64>(),
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        any::<u64>(),
        proptest::collection::vec((any::<u64>(), any::<u64>()), 0..=max_records),
    )
        .prop_map(|(ld, cb_seed, next, prev, nm, pm, version, recs)| {
            let mut b = Bucket::new(ld, cb_seed & ceh_types::mask(ld));
            b.next = PageId(next);
            b.prev = PageId(prev);
            b.next_mgr = ManagerId(nm);
            b.prev_mgr = ManagerId(pm);
            b.version = version;
            // Deduplicate keys: buckets never hold duplicates.
            let mut seen = std::collections::HashSet::new();
            for (k, v) in recs {
                if seen.insert(k) {
                    b.records.push(Record::new(k, v));
                }
            }
            b
        })
}

proptest! {
    /// Every bucket the system can produce survives the page codec intact.
    #[test]
    fn roundtrip(b in arb_bucket(20)) {
        let mut page = vec![0u8; Bucket::page_size_for(20)];
        b.encode(&mut page).unwrap();
        prop_assert_eq!(by_key(Bucket::decode(&page).unwrap()), by_key(b));
    }

    /// Decoding arbitrary bytes either fails cleanly or yields a bucket
    /// that re-encodes (no panics, no nonsense states).
    #[test]
    fn decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 56..512)) {
        // Clean decode failure is fine; a successful decode must yield a
        // bucket that fits the page it came from.
        if let Ok(b) = Bucket::decode(&bytes) {
            let mut page = vec![0u8; bytes.len()];
            b.encode(&mut page).unwrap();
        }
    }

    /// The borrowed view accepts every page `decode` accepts: its header
    /// checks are decode's first ones, and decode adds the bitmap's and
    /// the slot order's. On a page whose bitmap and slots pass those —
    /// half the pages are the codec's layout of `count` records (when
    /// they fit) under a header stamped with `localdepth` and a magic
    /// that may be broken — the two accept exactly the same pages.
    #[test]
    fn view_validates_like_decode(
        mut bytes in proptest::collection::vec(any::<u8>(), 0..512),
        stamp in any::<bool>(),
        magic_ok in any::<bool>(),
        localdepth in 0u32..80,
        count in 0u64..40,
        seed in any::<u64>(),
    ) {
        let laid_out = stamp
            && bytes.len() >= BUCKET_HEADER_BYTES
            && count as usize <= Bucket::capacity_for(bytes.len());
        if laid_out {
            let mut b = Bucket::new(0, 0);
            for i in 0..count {
                // An odd multiplier keeps the keys distinct.
                b.add(Record::new(seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15)), i));
            }
            b.encode(&mut bytes).unwrap();
            bytes[4..8].copy_from_slice(&localdepth.to_le_bytes());
            if !magic_ok {
                bytes[0] ^= 1;
            }
        } else if stamp && bytes.len() >= BUCKET_HEADER_BYTES {
            // More records than the page has slots.
            let mut magic = vec![0u8; Bucket::page_size_for(0)];
            Bucket::new(0, 0).encode(&mut magic).unwrap();
            bytes[0..4].copy_from_slice(&magic[0..4]);
            bytes[4..8].copy_from_slice(&localdepth.to_le_bytes());
            bytes[16..20].copy_from_slice(&(count as u32).to_le_bytes());
        }
        let (view, decoded) = (BucketView::new(&bytes).is_ok(), Bucket::decode(&bytes).is_ok());
        if laid_out {
            prop_assert_eq!(view, decoded);
            prop_assert_eq!(view, magic_ok && localdepth <= 64);
        } else if stamp && bytes.len() >= BUCKET_HEADER_BYTES {
            prop_assert!(!view && !decoded, "count past the page's slots");
        } else {
            prop_assert!(view || !decoded);
        }
    }

    /// On any encoded bucket — deleted-marked ones included — the view's
    /// `owns`, `next` and `search` agree with the decoded bucket, for
    /// resident and absent keys alike — over the page's bytes and over
    /// the page store's atomic words alike, and the words copy back out
    /// to the same bytes.
    #[test]
    fn view_agrees_with_decoded_bucket(
        b in arb_bucket(20),
        deleted in any::<bool>(),
        probes in proptest::collection::vec(any::<u64>(), 1..8),
        pk_seeds in proptest::collection::vec(any::<u64>(), 1..8),
    ) {
        let mut b = b;
        if deleted {
            b.mark_deleted();
        }
        let mut page = vec![0u8; Bucket::page_size_for(20)];
        b.encode(&mut page).unwrap();
        let decoded = Bucket::decode(&page).unwrap();
        let view = BucketView::new(&page).unwrap();
        let words = words_of(&page);
        let shared = BucketView::over(SharedPage::new(&words)).unwrap();
        prop_assert_eq!(&bytes_of(&words), &page);
        prop_assert_eq!(view.next(), decoded.next);
        prop_assert_eq!(shared.next(), decoded.next);
        prop_assert_eq!(shared.count(), decoded.count());
        let resident = decoded.records.iter().map(|r| r.key.0);
        for k in resident.chain(probes) {
            prop_assert_eq!(view.search(Key(k)), decoded.search(Key(k)));
            prop_assert_eq!(shared.search(Key(k)), decoded.search(Key(k)));
        }
        // Pseudokeys both inside and outside the bucket's commonbits.
        let inside = pk_seeds.iter().map(|s| (s & !ceh_types::mask(b.localdepth)) | (b.commonbits & ceh_types::mask(b.localdepth)));
        for pk in inside.chain(pk_seeds.iter().copied()) {
            prop_assert_eq!(view.owns(Pseudokey(pk)), decoded.owns(Pseudokey(pk)));
            prop_assert_eq!(shared.owns(Pseudokey(pk)), decoded.owns(Pseudokey(pk)));
        }
    }

    /// Appending in place leaves exactly the bytes decode → add → encode
    /// leaves, on any encoded bucket (deleted-marked ones included) over a
    /// page whose slots past `count` hold stale bytes. A full page is an
    /// error that leaves the page untouched.
    #[test]
    fn append_in_place_matches_the_codec(
        b in arb_bucket(20),
        deleted in any::<bool>(),
        slack in 0usize..3,
        stale in proptest::collection::vec(any::<u8>(), Bucket::page_size_for(22)),
        key in any::<u64>(),
        value in any::<u64>(),
    ) {
        let mut b = b;
        if deleted {
            b.mark_deleted();
        }
        let size = Bucket::page_size_for(b.count() + slack);
        let mut page = stale[..size].to_vec();
        b.encode(&mut page).unwrap();
        let record = Record::new(key, value);
        if slack == 0 {
            let before = page.clone();
            prop_assert!(append_in_place(&mut page[..], record).is_err());
            prop_assert_eq!(page, before);
        } else if b.search(Key(key)).is_none() {
            let mut expected = page.clone();
            let mut decoded = Bucket::decode(&expected).unwrap();
            decoded.add(record);
            decoded.encode(&mut expected).unwrap();
            let words = words_of(&page);
            append_in_place(&mut SharedPageMut::new(&words), record).unwrap();
            append_in_place(&mut page[..], record).unwrap();
            prop_assert_eq!(&bytes_of(&words), &expected);
            prop_assert_eq!(page, expected);
        }
    }

    /// Removing in place leaves exactly the bytes decode → remove → encode
    /// leaves, for resident keys anywhere in the slot order; removing an
    /// absent key changes nothing.
    #[test]
    fn remove_in_place_matches_the_codec(
        b in arb_bucket(20),
        deleted in any::<bool>(),
        slack in 0usize..3,
        stale in proptest::collection::vec(any::<u8>(), Bucket::page_size_for(22)),
        pick in any::<usize>(),
        probe in any::<u64>(),
    ) {
        let mut b = b;
        if deleted {
            b.mark_deleted();
        }
        let size = Bucket::page_size_for(b.count() + slack);
        let mut page = stale[..size].to_vec();
        b.encode(&mut page).unwrap();
        let key = match b.records.get(pick % (b.count() + 1)) {
            Some(r) => r.key,
            None => Key(probe),
        };
        let mut expected = page.clone();
        let mut decoded = Bucket::decode(&expected).unwrap();
        let removed = decoded.remove(key);
        if removed {
            decoded.encode(&mut expected).unwrap();
        }
        let words = words_of(&page);
        prop_assert_eq!(remove_in_place(&mut SharedPageMut::new(&words), key).unwrap(), removed);
        prop_assert_eq!(&bytes_of(&words), &expected);
        prop_assert_eq!(remove_in_place(&mut page[..], key).unwrap(), removed);
        prop_assert_eq!(page, expected);
    }

    /// A page that fails `BucketView::new` fails both edits and keeps its
    /// bytes. Half the pages carry the magic, so the depth and count
    /// checks are what rejects them.
    #[test]
    fn in_place_edits_reject_what_the_view_rejects(
        mut bytes in proptest::collection::vec(any::<u8>(), 0..512),
        stamp in any::<bool>(),
        localdepth in 0u32..80,
        count in 0u32..40,
        key in any::<u64>(),
    ) {
        if stamp && bytes.len() >= BUCKET_HEADER_BYTES {
            let mut magic = vec![0u8; Bucket::page_size_for(0)];
            Bucket::new(0, 0).encode(&mut magic).unwrap();
            bytes[0..4].copy_from_slice(&magic[0..4]);
            bytes[4..8].copy_from_slice(&localdepth.to_le_bytes());
            bytes[16..20].copy_from_slice(&count.to_le_bytes());
            bytes[56..88].fill(0);
        }
        prop_assume!(BucketView::new(&bytes).is_err());
        let before = bytes.clone();
        prop_assert!(append_in_place(&mut bytes[..], Record::new(key, key)).is_err());
        prop_assert!(remove_in_place(&mut bytes[..], Key(key)).is_err());
        prop_assert_eq!(bytes, before);
    }

    /// The layout is a function of the record set: every order of the
    /// same records encodes to the same bytes, on pages from roomy to
    /// full.
    #[test]
    fn every_permutation_encodes_to_the_same_bytes(
        keys in proptest::collection::vec(any::<u64>(), 0..=5),
        slack in 0usize..3,
        stale in any::<u8>(),
    ) {
        let records: Vec<Record> = distinct(keys).into_iter().map(|k| Record::new(k, !k)).collect();
        let size = Bucket::page_size_for(records.len() + slack);
        let mut first: Option<Vec<u8>> = None;
        for order in permutations(&records) {
            let mut b = Bucket::new(0, 0);
            b.records = order;
            let mut page = vec![stale; size];
            b.encode(&mut page).unwrap();
            match &first {
                None => first = Some(page),
                Some(f) => prop_assert_eq!(f, &page),
            }
        }
    }

    /// A full page (`count == capacity`, no free slot to stop a probe)
    /// still answers every search: resident keys are found, absent ones
    /// are not.
    #[test]
    fn a_full_page_answers_absent_keys(
        keys in proptest::collection::vec(any::<u64>(), 1..=16),
        probes in proptest::collection::vec(any::<u64>(), 1..16),
    ) {
        let keys = distinct(keys);
        let mut b = Bucket::new(0, 0);
        for &k in &keys {
            b.add(Record::new(k, !k));
        }
        let mut page = vec![0u8; Bucket::page_size_for(keys.len())];
        b.encode(&mut page).unwrap();
        let view = BucketView::new(&page).unwrap();
        prop_assert_eq!(view.count(), Bucket::capacity_for(page.len()));
        for &k in &keys {
            prop_assert_eq!(view.search(Key(k)), Some(Value(!k)));
        }
        for k in probes {
            if !keys.contains(&k) {
                prop_assert_eq!(view.search(Key(k)), None);
            }
        }
        prop_assert!(append_in_place(&mut page[..], Record::new(0, 0)).is_err());
    }

    /// Clusters that run past the last slot wrap to slot 0, at
    /// capacities 2–8: the codec round-trips them, search finds every
    /// key, and each in-place add and remove leaves the codec's bytes.
    #[test]
    fn clusters_wrap_past_the_last_slot(
        slots in 2usize..=8,
        seeds in proptest::collection::vec(any::<u64>(), 1..=8),
        absent in any::<u64>(),
    ) {
        let mut keys: Vec<u64> = Vec::new();
        for seed in seeds {
            let k = late_key(seed, slots);
            if !keys.contains(&k) && keys.len() < slots {
                keys.push(k);
            }
        }
        let mut b = Bucket::new(0, 0);
        for &k in &keys {
            b.add(Record::new(k, !k));
        }
        let mut page = vec![0u8; Bucket::page_size_for(slots)];
        b.encode(&mut page).unwrap();
        if keys.len() >= 3 {
            prop_assert!(BucketView::new(&page).unwrap().search(Key(keys[0])).is_some());
            let slot0 = page.word(BUCKET_HEADER_BYTES / 8);
            prop_assert!(keys.contains(&slot0) && page[56] & 1 == 1, "slot 0 holds a wrapped record");
        }
        prop_assert_eq!(by_key(Bucket::decode(&page).unwrap()), by_key(b.clone()));
        let view = BucketView::new(&page).unwrap();
        for &k in &keys {
            prop_assert_eq!(view.search(Key(k)), Some(Value(!k)));
        }
        let absent = late_key(absent, slots);
        if !keys.contains(&absent) {
            prop_assert_eq!(view.search(Key(absent)), None);
            if keys.len() < slots {
                let mut expected = page.clone();
                let mut decoded = Bucket::decode(&expected).unwrap();
                decoded.add(Record::new(absent, 1));
                decoded.encode(&mut expected).unwrap();
                let mut edited = page.clone();
                append_in_place(&mut edited[..], Record::new(absent, 1)).unwrap();
                prop_assert_eq!(edited, expected);
            }
        }
        for &k in &keys {
            let mut expected = page.clone();
            let mut decoded = Bucket::decode(&expected).unwrap();
            prop_assert!(decoded.remove(Key(k)));
            decoded.encode(&mut expected).unwrap();
            let mut edited = page.clone();
            prop_assert!(remove_in_place(&mut edited[..], Key(k)).unwrap());
            prop_assert_eq!(edited, expected);
        }
    }

    /// Over any words the header check lets through — a torn page, or
    /// slots in no order at all — `search` returns without a panic and
    /// probes each slot at most once: one bitmap word and one key word a
    /// probe, and the value word of a hit.
    #[test]
    fn search_over_random_words_is_bounded(
        mut bytes in proptest::collection::vec(any::<u8>(), BUCKET_HEADER_BYTES..1024),
        keys in proptest::collection::vec(any::<u64>(), 1..8),
        resident in any::<usize>(),
    ) {
        stamp_valid_header(&mut bytes);
        let counted = Counted { bytes: &bytes, loads: Cell::new(0) };
        let view = BucketView::over(&counted).unwrap();
        let slots = Bucket::capacity_for(bytes.len());
        let mut probes = keys;
        if slots > 0 {
            let s = resident % slots;
            let at = BUCKET_HEADER_BYTES + 16 * s;
            probes.push(u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()));
        }
        for k in probes {
            counted.loads.set(0);
            let _ = view.search(Key(k));
            prop_assert!(counted.loads.get() <= 2 * slots + 1, "{} loads for {slots} slots", counted.loads.get());
        }
    }

    /// Decoding a page whose words change between reads — a torn page,
    /// which a reader holding ρ may see while an α holder edits it —
    /// fails or succeeds, but never reads past the page.
    #[test]
    fn decode_of_a_torn_page_stays_in_the_page(
        b in arb_bucket(20),
        slack in 0usize..3,
        offset in any::<u64>(),
    ) {
        let mut page = vec![0u8; Bucket::page_size_for(b.count() + slack)];
        b.encode(&mut page).unwrap();
        let torn = Torn { bytes: &page, reads: Cell::new(offset) };
        let _ = Bucket::decode_words(&torn);
    }

    /// add/remove/search behave like a set keyed by Key.
    #[test]
    fn bucket_is_a_keyed_set(ops in proptest::collection::vec((any::<u8>(), 0u64..16), 1..100)) {
        use std::collections::HashMap;
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut b = Bucket::new(0, 0);
        for (op, k) in ops {
            match op % 3 {
                0 => {
                    if let std::collections::hash_map::Entry::Vacant(e) = model.entry(k) {
                        e.insert(k * 10);
                        b.add(Record::new(k, k * 10));
                    }
                }
                1 => {
                    let removed = b.remove(ceh_types::Key(k));
                    prop_assert_eq!(removed, model.remove(&k).is_some());
                }
                _ => {
                    let got = b.search(ceh_types::Key(k)).map(|v| v.0);
                    prop_assert_eq!(got, model.get(&k).copied());
                }
            }
            prop_assert_eq!(b.count(), model.len());
        }
    }
}
