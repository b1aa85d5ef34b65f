//! Golden tests reproducing the paper's structure figures (1–4).
//!
//! All use the identity pseudokey function so keys land exactly where the
//! paper's binary-suffix examples place them, and tiny buckets so the
//! depicted splits/merges fire at the depicted moments.

use std::sync::Arc;

use ceh_core::{invariants, ConcurrentHashFile, FileCore, Solution1, Solution2};
use ceh_locks::LockManager;
use ceh_sequential::SequentialHashFile;
use ceh_storage::{PageStore, PageStoreConfig};
use ceh_types::bucket::Bucket;
use ceh_types::{identity_pseudokey, HashFileConfig, Key, PageId, Value};

fn seq_file(capacity: usize) -> SequentialHashFile {
    let cfg = HashFileConfig::tiny().with_bucket_capacity(capacity);
    let store = PageStore::new_shared(PageStoreConfig {
        page_size: Bucket::page_size_for(capacity),
        ..Default::default()
    });
    SequentialHashFile::with_store(cfg, store, identity_pseudokey).unwrap()
}

fn concurrent_core(capacity: usize) -> FileCore {
    let cfg = HashFileConfig::tiny().with_bucket_capacity(capacity);
    let store = PageStore::new_shared(PageStoreConfig {
        page_size: Bucket::page_size_for(capacity),
        ..Default::default()
    });
    FileCore::with_buckets(
        cfg,
        Arc::clone(&store),
        Arc::new(LockManager::over(store)),
        identity_pseudokey,
        &ceh_obs::MetricsHandle::default(),
    )
    .unwrap()
}

/// Figure 1: a depth-2 sequential file. "The i-th entry points to the
/// bucket that holds all the records whose pseudokeys end in the
/// [depth]-bit binary representation of i."
#[test]
fn figure1_sequential_layout() {
    let mut f = seq_file(3);
    for k in [0b000u64, 0b100, 0b010, 0b001, 0b101, 0b011, 0b111, 0b110] {
        f.insert(Key(k), Value(k)).unwrap();
    }
    let snap = f.snapshot().unwrap();
    assert_eq!(snap.depth, 2);
    assert_eq!(snap.entries.len(), 4);
    // Every directory entry points at a bucket whose records all share
    // the entry's low bits — the figure's defining property.
    for (i, page) in snap.entries.iter().enumerate() {
        let b = &snap.buckets[page];
        for r in &b.records {
            assert_eq!(
                r.key.0 & ceh_types::mask(snap.depth),
                i as u64,
                "key {:?} filed under entry {i:02b}",
                r.key
            );
        }
    }
    // The paper's worked find: pseudokey "...101" at depth 2 uses suffix
    // "01" and lands in that bucket.
    assert_eq!(f.find(Key(0b101)).unwrap(), Some(Value(0b101)));
    f.check_invariants().unwrap();
}

/// Figure 2: the caption's update sequence — an insert that splits a
/// full bucket at full depth doubles the directory; deleting down to a
/// lone record merges partners and halves it back.
#[test]
fn figure2_update_sequence() {
    let mut f = seq_file(2);
    // Depth 0 → inserts force splits up to depth 2.
    for k in [0b00u64, 0b10, 0b01, 0b11] {
        f.insert(Key(k), Value(k)).unwrap();
    }
    let d0 = f.depth();
    assert!(d0 >= 1);

    // Insert two more keys with suffix 00: the 00-bucket fills and
    // splits; when its localdepth equals the directory depth, the
    // directory doubles first.
    let before = f.depth();
    f.insert(Key(0b100), Value(4)).unwrap();
    f.insert(Key(0b1000), Value(8)).unwrap();
    assert!(
        f.depth() >= before,
        "splitting at full depth may not shrink the directory"
    );
    f.check_invariants().unwrap();

    // Delete back down: every deletion that empties a bucket merges it
    // with its partner; when no bucket remains at full depth the
    // directory halves.
    let peak = f.depth();
    for k in [0b1000u64, 0b100, 0b00, 0b10, 0b01, 0b11] {
        f.delete(Key(k)).unwrap();
        f.check_invariants().unwrap();
    }
    assert!(f.is_empty());
    assert!(f.depth() < peak, "deletes must have halved the directory");
}

/// Figure 3: the concurrent structure — same buckets as Figure 1 plus
/// `next` links threading every bucket into one chain.
#[test]
fn figure3_concurrent_structure_next_links() {
    let file = Solution1::from_core(concurrent_core(3));
    for k in [0b000u64, 0b100, 0b010, 0b001, 0b101, 0b011, 0b111, 0b110] {
        file.insert(Key(k), Value(k)).unwrap();
    }
    let snap = invariants::snapshot_core(file.core()).unwrap();
    assert_eq!(snap.depth, 2);

    // Walk the chain from the 00-bucket: it must visit all four buckets
    // in bit-reversed commonbits order (00 → 10 → 01 → 11) and end with
    // a null next — exactly Figure 3's arrows.
    let mut order = Vec::new();
    let mut page = snap.entries[0];
    loop {
        let b = &snap.buckets[&page];
        order.push(b.commonbits);
        if b.next.is_null() {
            break;
        }
        page = b.next;
    }
    assert_eq!(order, vec![0b00, 0b10, 0b01, 0b11]);
    invariants::check_concurrent_file(file.core()).unwrap();
}

/// Figure 4: "when a bucket splits, the next link of the original bucket
/// is reassigned to point to the newly created bucket. The new bucket
/// gets the original bucket's old next pointer."
#[test]
fn figure4_split_relinks_chain() {
    let file = Solution2::from_core(concurrent_core(2));
    for k in [0b00u64, 0b10, 0b01, 0b11] {
        file.insert(Key(k), Value(k)).unwrap();
    }
    let before = invariants::snapshot_core(file.core()).unwrap();
    let target_page: PageId = before.entries[0];
    let old_next = before.buckets[&target_page].next;
    let old_ld = before.buckets[&target_page].localdepth;

    // Split the 0…0 bucket by overfilling it.
    let mut k = 0b100u64;
    let splits0 = file.core().stats().snapshot().splits;
    while file.core().stats().snapshot().splits == splits0 {
        file.insert(Key(k), Value(k)).unwrap();
        k += 0b1000;
    }

    let after = invariants::snapshot_core(file.core()).unwrap();
    let b = &after.buckets[&target_page];
    assert_eq!(b.localdepth, old_ld + 1, "split deepened the bucket");
    let new_page = b.next;
    assert_ne!(
        new_page, old_next,
        "next reassigned to the newly created bucket"
    );
    let new_bucket = &after.buckets[&new_page];
    assert_eq!(
        new_bucket.next, old_next,
        "new bucket inherited the old next pointer"
    );
    assert_eq!(
        new_bucket.commonbits,
        b.commonbits | ceh_types::partner_bit(b.localdepth),
        "new bucket is the '1' partner"
    );
    invariants::check_concurrent_file(file.core()).unwrap();
}

/// The paper's recovery narrative made concrete: a reader that captured a
/// bucket pointer *before* a split still finds its key afterwards by
/// chasing `next` (the commonbits test routes it).
#[test]
fn wrong_bucket_recovery_after_split() {
    let file = Solution2::from_core(concurrent_core(2));
    for k in [0b00u64, 0b10] {
        file.insert(Key(k), Value(k)).unwrap();
    }
    // Key 0b110 will live in the "1" half once the 0-bucket splits.
    file.insert(Key(0b110), Value(6)).unwrap();
    // Force enough splits that early directory snapshots would misroute.
    for k in [0b100u64, 0b1000, 0b1100, 0b10000] {
        file.insert(Key(k), Value(k)).unwrap();
    }
    assert_eq!(file.find(Key(0b110)).unwrap(), Some(Value(6)));
    invariants::check_concurrent_file(file.core()).unwrap();
}
