//! Directed tests for Figure 7's two merge cases in Solution 1, with
//! the exact structural outcomes pinned: who survives, which page is
//! deallocated, how the chain is re-threaded, and what happens to the
//! directory.
//!
//! Setup (identity pseudokeys, capacity 2): inserting
//! `[00, 10, 01, 11, 100, 101]` yields depth-2 buckets `00:{00,100}`,
//! `10:{10}`, `01:{01,101}`, `11:{11}`, chained in that order. `10`
//! split off from `00`, and `01` and `11` from the depth-1 bucket `1`,
//! which split off from `0`: so `prev` of `10` and of `01` is the page of
//! `00`, and `prev` of `11` is the page of `01`.

use std::sync::Arc;

use ceh_core::{invariants, ConcurrentHashFile, FileCore, Solution1};
use ceh_locks::LockManager;
use ceh_obs::MetricsHandle;
use ceh_storage::{PageStore, PageStoreConfig};
use ceh_types::bucket::Bucket;
use ceh_types::{identity_pseudokey, DeleteOutcome, HashFileConfig, Key, PageId, Value};

fn build_file() -> Solution1 {
    let cfg = HashFileConfig::tiny().with_bucket_capacity(2);
    let store = PageStore::new_shared(PageStoreConfig {
        page_size: Bucket::page_size_for(2),
        ..Default::default()
    });
    let core = FileCore::with_buckets(
        cfg,
        Arc::clone(&store),
        Arc::new(LockManager::over(store)),
        identity_pseudokey,
        &MetricsHandle::default(),
    )
    .unwrap();
    let f = Solution1::from_core(core);
    for k in [0b00u64, 0b10, 0b01, 0b11, 0b100, 0b101] {
        f.insert(Key(k), Value(k)).unwrap();
    }
    assert_eq!(f.core().dir().depth(), 2);
    f
}

fn page_of(f: &Solution1, pattern: u64) -> PageId {
    f.core().dir().index(pattern)
}

fn bucket_at(f: &Solution1, page: PageId) -> Bucket {
    f.core().buckets().getbucket(page).unwrap()
}

/// Case 1 — "z goes in first of pair": deleting the lone key of the
/// "0" partner. The partner is found via `next`; the *"0" partner's
/// page* survives holding the partner's records; the "1" partner's page
/// is deallocated.
#[test]
fn delete_from_first_of_pair_merges_down() {
    let f = build_file();
    // Make bucket 01 ("0" partner of the (01,11) pair wrt bit 2) hold
    // only its key: 01:{01}, 11:{11}.
    f.delete(Key(0b101)).unwrap();
    let zero_page = page_of(&f, 0b01);
    let one_page = page_of(&f, 0b11);
    assert_ne!(zero_page, one_page);
    assert_eq!(bucket_at(&f, zero_page).prev, page_of(&f, 0b00));
    assert_eq!(bucket_at(&f, one_page).prev, zero_page);
    let pages_before = f.core().store().allocated_pages();

    // Key 0b01 has bit 2 clear → first of pair → partner via next.
    assert_eq!(f.delete(Key(0b01)).unwrap(), DeleteOutcome::Deleted);

    // The "0" page survived and now holds the "1" partner's records at
    // localdepth 1.
    let survivor = bucket_at(&f, zero_page);
    assert_eq!(survivor.localdepth, 1);
    assert_eq!(survivor.commonbits, 0b1);
    assert_eq!(survivor.records.len(), 1);
    assert_eq!(survivor.records[0].key, Key(0b11));
    // It keeps its own `prev` (the "1" partner's named the survivor's
    // own page) and takes the "1" partner's `next`, the end of the chain.
    assert_eq!(survivor.prev, page_of(&f, 0b00), "prev names the '0' side");
    assert_eq!(survivor.next, PageId::NULL, "next skips the freed page");
    // The "1" page is gone, and the directory routes both patterns to
    // the survivor.
    assert_eq!(f.core().store().allocated_pages(), pages_before - 1);
    assert_eq!(page_of(&f, 0b01), zero_page);
    assert_eq!(page_of(&f, 0b11), zero_page);
    let s = f.core().stats().snapshot();
    assert_eq!(s.merges, 1);
    invariants::check_concurrent_file(f.core()).unwrap();
}

/// Case 2 — "z goes in second of pair": deleting the lone key of the
/// "1" partner. The partner is found via the directory; the deleter
/// releases and re-locks in next-link order; the "0" partner's page
/// survives, absorbing nothing (the victim's only record was z), and is
/// spliced past the deleted bucket.
#[test]
fn delete_from_second_of_pair_merges_up() {
    let f = build_file();
    let zero_page = page_of(&f, 0b00); // 00:{00,100}
    let one_page = page_of(&f, 0b10); // 10:{10}
    let chain_after = bucket_at(&f, one_page).next; // whatever followed 10
    assert_eq!(chain_after, page_of(&f, 0b01));
    assert_eq!(bucket_at(&f, one_page).prev, zero_page);
    let pages_before = f.core().store().allocated_pages();

    // Key 0b10 has bit 2 set → second of pair.
    assert_eq!(f.delete(Key(0b10)).unwrap(), DeleteOutcome::Deleted);

    let survivor = bucket_at(&f, zero_page);
    assert_eq!(survivor.localdepth, 1);
    assert_eq!(survivor.commonbits, 0b0);
    let mut keys: Vec<u64> = survivor.records.iter().map(|r| r.key.0).collect();
    keys.sort_unstable();
    assert_eq!(
        keys,
        vec![0b00, 0b100],
        "the survivor keeps its own records"
    );
    assert_eq!(
        survivor.next, chain_after,
        "chain spliced past the deleted bucket"
    );
    assert_eq!(survivor.prev, PageId::NULL, "commonbits 0: no prev");
    assert_eq!(f.core().store().allocated_pages(), pages_before - 1);
    assert_eq!(page_of(&f, 0b00), zero_page);
    assert_eq!(page_of(&f, 0b10), zero_page);
    invariants::check_concurrent_file(f.core()).unwrap();
}

/// Unmergeable because the partner is deeper: the delete degrades to a
/// plain removal (Figure 7's "not possible to merge these two").
#[test]
fn deeper_partner_prevents_merge() {
    let f = build_file();
    // Split the (01,101) bucket once more: 01 → 001:{01,101... wait both
    // have bit3 differing} — insert keys to force 01's split to depth 3.
    f.insert(Key(0b1001), Value(9)).unwrap(); // 01 full → splits to ld 3
    assert!(f.core().dir().depth() >= 3);
    // Now bucket 11 (ld 2) has a partner region that split deeper.
    let eleven_page = page_of(&f, 0b011);
    assert_eq!(bucket_at(&f, eleven_page).localdepth, 2);
    let pages_before = f.core().store().allocated_pages();

    assert_eq!(f.delete(Key(0b11)).unwrap(), DeleteOutcome::Deleted);
    assert_eq!(
        f.core().store().allocated_pages(),
        pages_before,
        "no merge: localdepths differ, the bucket just empties"
    );
    assert_eq!(f.core().stats().snapshot().merges, 0);
    invariants::check_concurrent_file(f.core()).unwrap();
}

/// Merging cascades into directory halving when the merged pair were the
/// last buckets at full depth (Figure 7's `if (depthcount == 0)
/// halvedirectory()`).
#[test]
fn merge_at_full_depth_halves_directory() {
    let f = build_file();
    // Deepen one pair to depth 3: only those two sit at full depth.
    f.insert(Key(0b1001), Value(9)).unwrap();
    assert_eq!(f.core().dir().depth(), 3);
    assert_eq!(f.core().dir().depthcount(), 2);

    // Empty the deep pair and delete from it: merge → depthcount 0 → halve.
    f.delete(Key(0b101)).unwrap(); // deep bucket 101:{101,1001}? remove one
    f.delete(Key(0b1001)).unwrap();
    f.delete(Key(0b01)).unwrap();
    assert!(
        f.core().dir().depth() < 3,
        "directory halved after the full-depth merge"
    );
    invariants::check_concurrent_file(f.core()).unwrap();
    // Everything else still reachable.
    for k in [0b00u64, 0b10, 0b11, 0b100] {
        assert_eq!(f.find(Key(k)).unwrap(), Some(Value(k)), "key {k:b}");
    }
}
