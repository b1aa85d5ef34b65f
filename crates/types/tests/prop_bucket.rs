//! Property tests for the bucket page codec.

use std::sync::atomic::AtomicU64;

use ceh_types::bucket::{
    append_in_place, remove_in_place, Bucket, BucketView, SharedPage, SharedPageMut,
};
use ceh_types::{Key, ManagerId, PageId, Pseudokey, Record};
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
        prop_assert_eq!(Bucket::decode(&page).unwrap(), b);
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

    /// The borrowed view accepts exactly the pages `decode` accepts. Half
    /// the pages carry the bucket magic and a small depth and count, so
    /// the checks past the magic are reached too.
    #[test]
    fn view_validates_like_decode(
        mut bytes in proptest::collection::vec(any::<u8>(), 0..512),
        stamp in any::<bool>(),
        localdepth in 0u32..80,
        count in 0u32..40,
    ) {
        if stamp && bytes.len() >= 20 {
            let mut magic = vec![0u8; Bucket::page_size_for(0)];
            Bucket::new(0, 0).encode(&mut magic).unwrap();
            bytes[0..4].copy_from_slice(&magic[0..4]);
            bytes[4..8].copy_from_slice(&localdepth.to_le_bytes());
            bytes[16..20].copy_from_slice(&count.to_le_bytes());
        }
        prop_assert_eq!(BucketView::new(&bytes).is_ok(), Bucket::decode(&bytes).is_ok());
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
        if stamp && bytes.len() >= 20 {
            let mut magic = vec![0u8; Bucket::page_size_for(0)];
            Bucket::new(0, 0).encode(&mut magic).unwrap();
            bytes[0..4].copy_from_slice(&magic[0..4]);
            bytes[4..8].copy_from_slice(&localdepth.to_le_bytes());
            bytes[16..20].copy_from_slice(&count.to_le_bytes());
        }
        prop_assume!(BucketView::new(&bytes).is_err());
        let before = bytes.clone();
        prop_assert!(append_in_place(&mut bytes[..], Record::new(key, key)).is_err());
        prop_assert!(remove_in_place(&mut bytes[..], Key(key)).is_err());
        prop_assert_eq!(bytes, before);
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
