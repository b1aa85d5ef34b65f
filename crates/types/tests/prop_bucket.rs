//! Property tests for the bucket page codec.

use ceh_types::bucket::{Bucket, BucketView};
use ceh_types::{Key, ManagerId, PageId, Pseudokey, Record};
use proptest::prelude::*;

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
    /// resident and absent keys alike.
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
        prop_assert_eq!(view.next(), decoded.next);
        let resident = decoded.records.iter().map(|r| r.key.0);
        for k in resident.chain(probes) {
            prop_assert_eq!(view.search(Key(k)), decoded.search(Key(k)));
        }
        // Pseudokeys both inside and outside the bucket's commonbits.
        let inside = pk_seeds.iter().map(|s| (s & !ceh_types::mask(b.localdepth)) | (b.commonbits & ceh_types::mask(b.localdepth)));
        for pk in inside.chain(pk_seeds.iter().copied()) {
            prop_assert_eq!(view.owns(Pseudokey(pk)), decoded.owns(Pseudokey(pk)));
        }
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
