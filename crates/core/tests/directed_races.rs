//! Directed tests for the Solution-2 validation branches of Figure 9.
//!
//! The torture tests hit these branches statistically; these tests hit
//! them *deterministically* by choreographing the interleavings with the
//! lock manager itself: a saboteur thread holds a ξ-lock on the page the
//! deleter will need, mutates the structure while the deleter is parked
//! on that lock, and releases — steering the deleter into exactly the
//! re-validation path under test.
//!
//! Shared setup (identity pseudokeys, capacity 2): inserting
//! `[00, 10, 01, 11, 100, 101]` yields the four depth-2 buckets
//! `00:{00,100}`, `10:{10}`, `01:{01,101}`, `11:{11}`.

use std::sync::Arc;
use std::time::Duration;

use ceh_core::{invariants, ConcurrentHashFile, FileCore, Solution2};
use ceh_locks::{LockId, LockManager, LockMode};
use ceh_obs::MetricsHandle;
use ceh_storage::{PageStore, PageStoreConfig};
use ceh_types::bucket::Bucket;
use ceh_types::{identity_pseudokey, DeleteOutcome, HashFileConfig, Key, PageId, Value};

fn build_file() -> Solution2 {
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
    let f = Solution2::from_core(core);
    for k in [0b00u64, 0b10, 0b01, 0b11, 0b100, 0b101] {
        f.insert(Key(k), Value(k)).unwrap();
    }
    assert_eq!(
        f.core().dir().depth(),
        2,
        "setup must reach the four-bucket state"
    );
    f
}

/// Page currently holding the given bit pattern.
fn page_of(f: &Solution2, pattern: u64) -> PageId {
    f.core().dir().index(pattern)
}

/// Deleting the lone key of a "1" partner (pattern 10) forces the
/// release-and-relock dance. The saboteur holds the "0" partner (00)
/// ξ-locked; while the deleter waits, it *refills* the target bucket by
/// writing a second record into it directly — so the deleter's
/// revalidation finds the bucket no longer empty and takes the
/// remove-without-merge path (Figure 9's "more data inserted into
/// oldpage so it is no longer empty").
#[test]
fn second_of_pair_refilled_while_waiting() {
    let f = Arc::new(build_file());
    let zero_page = page_of(&f, 0b00);
    let target_page = page_of(&f, 0b10);

    let saboteur_owner = f.core().locks().new_owner();
    f.core()
        .locks()
        .lock(saboteur_owner, LockId::Page(zero_page), LockMode::Xi);

    let deleter = {
        let f = Arc::clone(&f);
        std::thread::spawn(move || f.delete(Key(0b10)).unwrap())
    };
    // Give the deleter time to walk to bucket 10, release it, and block
    // on our ξ-lock of bucket 00.
    std::thread::sleep(Duration::from_millis(50));

    // Refill bucket 10 while the deleter is parked (the deleter released
    // its ξ on this page before requesting the pair in order, so this
    // insert acquires it freely).
    {
        assert_eq!(
            f.core().buckets().getbucket(target_page).unwrap().count(),
            1
        );
    }
    f.insert(Key(0b110), Value(99)).unwrap();

    f.core()
        .locks()
        .unlock(saboteur_owner, LockId::Page(zero_page), LockMode::Xi);
    assert_eq!(deleter.join().unwrap(), DeleteOutcome::Deleted);

    // No merge happened: the refilled record survived in place.
    assert_eq!(f.find(Key(0b110)).unwrap(), Some(Value(99)));
    assert_eq!(f.find(Key(0b10)).unwrap(), None);
    let s = f.core().stats().snapshot();
    assert_eq!(s.merges, 0, "refill must have prevented the merge");
    invariants::check_concurrent_file(f.core()).unwrap();
}

/// While the deleter waits for the "0" partner, the target bucket fills
/// and splits, moving the victim key to a different page — the deleter's
/// `owns` revalidation fails ("Z no longer belongs in oldpage … it may
/// have filled up and split, moving z") and the whole delete retries
/// against the relocated key.
#[test]
fn second_of_pair_key_moves_while_waiting() {
    let f = Arc::new(build_file());
    // Rearrange bucket 10 to hold exactly {110}: the victim key whose
    // bit 3 is set, so a localdepth-3 split moves it to the new page.
    f.insert(Key(0b110), Value(0b110)).unwrap(); // 10: {10, 110}
    f.delete(Key(0b10)).unwrap(); // count 2 → plain remove; 10: {110}

    let zero_page = page_of(&f, 0b00);
    let saboteur_owner = f.core().locks().new_owner();
    f.core()
        .locks()
        .lock(saboteur_owner, LockId::Page(zero_page), LockMode::Xi);

    let deleter = {
        let f = Arc::clone(&f);
        std::thread::spawn(move || f.delete(Key(0b110)).unwrap())
    };
    std::thread::sleep(Duration::from_millis(50));

    // Refill and split bucket 10 under the parked deleter: after the
    // split, half1 (cb 010) keeps {010, 1010} on the old page and half2
    // (cb 110) takes {110} to a fresh page.
    f.insert(Key(0b010), Value(2)).unwrap();
    f.insert(Key(0b1010), Value(10)).unwrap(); // forces the split
    assert!(f.core().stats().snapshot().splits >= 1);

    f.core()
        .locks()
        .unlock(saboteur_owner, LockId::Page(zero_page), LockMode::Xi);
    assert_eq!(deleter.join().unwrap(), DeleteOutcome::Deleted);
    assert_eq!(
        f.find(Key(0b110)).unwrap(),
        None,
        "the moved key was still deleted"
    );
    assert_eq!(f.find(Key(0b010)).unwrap(), Some(Value(2)));
    assert_eq!(f.find(Key(0b1010)).unwrap(), Some(Value(10)));
    let s = f.core().stats().snapshot();
    assert!(
        s.delete_retries >= 1,
        "the owns revalidation must have retried: {s:?}"
    );
    invariants::check_concurrent_file(f.core()).unwrap();
}

/// Two deleters race on the (01, 11) pair: whichever reaches the merge
/// first wins; the other revalidates (bucket refitted, pair already
/// merged, or key simply removable) and still deletes its key. Repeated
/// to shake schedules.
#[test]
fn racing_deleters_on_one_pair() {
    for _ in 0..20 {
        let f = Arc::new(build_file());
        let d1 = {
            let f = Arc::clone(&f);
            std::thread::spawn(move || f.delete(Key(0b01)).unwrap())
        };
        let d2 = {
            let f = Arc::clone(&f);
            std::thread::spawn(move || f.delete(Key(0b11)).unwrap())
        };
        assert_eq!(d1.join().unwrap(), DeleteOutcome::Deleted);
        assert_eq!(d2.join().unwrap(), DeleteOutcome::Deleted);
        assert_eq!(f.find(Key(0b01)).unwrap(), None);
        assert_eq!(f.find(Key(0b11)).unwrap(), None);
        assert_eq!(
            f.find(Key(0b101)).unwrap(),
            Some(Value(0b101)),
            "bystander survives"
        );
        invariants::check_concurrent_file(f.core()).unwrap();
    }
}

/// Solution 2's case-1 merge ("z in first of pair"), deterministic
/// outcome check: the "0" partner's page survives with the partner's
/// records, the "1" partner's page is tombstoned and then collected by
/// the GC phase, and the chain is spliced correctly.
#[test]
fn second_solution_first_of_pair_merge_outcome() {
    let f = build_file();
    // Slim the (01, 11) pair: 01:{01}, 11:{11}.
    f.delete(Key(0b101)).unwrap();
    let zero_page = page_of(&f, 0b01);
    let one_page = page_of(&f, 0b11);
    let pages_before = f.core().store().allocated_pages();

    // 0b01 has bit 2 clear → first of pair → partner via next, merged
    // down into the "0" page; GC runs inline afterwards.
    assert_eq!(f.delete(Key(0b01)).unwrap(), DeleteOutcome::Deleted);

    let survivor = f.core().buckets().getbucket(zero_page).unwrap();
    assert_eq!(survivor.localdepth, 1);
    assert_eq!(survivor.commonbits, 0b1);
    assert_eq!(survivor.records.len(), 1);
    assert_eq!(survivor.records[0].key, Key(0b11));
    assert_eq!(
        f.core().store().allocated_pages(),
        pages_before - 1,
        "the tombstone page was garbage-collected"
    );
    assert_eq!(page_of(&f, 0b01), zero_page);
    assert_eq!(page_of(&f, 0b11), zero_page);
    let _ = one_page;
    let s = f.core().stats().snapshot();
    assert_eq!(s.merges, 1);
    assert_eq!(s.gc_phases, 1);
    invariants::check_concurrent_file(f.core()).unwrap();
}

/// A reader parked on a bucket that gets merged away (tombstoned) under
/// it recovers through the tombstone's next link — the §2.5 claim that
/// "obsolete directory entries … always point to a bucket from which the
/// correct bucket is reachable via next links", at bucket granularity.
#[test]
fn reader_recovers_through_tombstone() {
    let f = Arc::new(build_file());
    // Slim bucket 01 down to {01} so the hand merge below fits capacity.
    f.delete(Key(0b101)).unwrap(); // count 2 → plain remove
    let one_page = page_of(&f, 0b01);
    let target_page = page_of(&f, 0b11); // bucket 11: {11}

    let saboteur_owner = f.core().locks().new_owner();
    f.core()
        .locks()
        .lock(saboteur_owner, LockId::Page(target_page), LockMode::Xi);

    // Reader heads for 0b111, which routes to bucket 11; it blocks on
    // our ξ-lock.
    let reader = {
        let f = Arc::clone(&f);
        std::thread::spawn(move || f.find(Key(0b111)).unwrap())
    };
    std::thread::sleep(Duration::from_millis(50));

    // Merge 11 into 01 by hand, exactly as a Figure-9 merge would (we
    // hold the deleter's ξ-locks).
    let partner_owner = f.core().locks().new_owner();
    f.core()
        .locks()
        .lock(partner_owner, LockId::Page(one_page), LockMode::Xi);
    let mut survivor = f.core().buckets().getbucket(one_page).unwrap();
    let victim = f.core().buckets().getbucket(target_page).unwrap();
    survivor.localdepth -= 1;
    survivor.commonbits &= ceh_types::mask(survivor.localdepth);
    survivor.records.extend(victim.records.iter().copied());
    survivor.next = victim.next;
    f.core().buckets().putbucket(one_page, &survivor).unwrap();
    let mut tomb = Bucket::new(0, 0);
    tomb.mark_deleted();
    tomb.next = one_page;
    f.core().buckets().putbucket(target_page, &tomb).unwrap();
    f.core()
        .dir()
        .update_one_side(one_page, 2, ceh_types::Pseudokey(0b11));
    f.core().dir().count_merge(2);
    f.core()
        .locks()
        .unlock(partner_owner, LockId::Page(one_page), LockMode::Xi);

    // Release the reader: it reads the tombstone, chases next to the
    // survivor, and concludes correctly.
    f.core()
        .locks()
        .unlock(saboteur_owner, LockId::Page(target_page), LockMode::Xi);
    assert_eq!(reader.join().unwrap(), None, "0b111 was never inserted");
    assert_eq!(
        f.find(Key(0b11)).unwrap(),
        Some(Value(0b11)),
        "merged key reachable"
    );
    let s = f.core().stats().snapshot();
    assert!(
        s.wrong_bucket_recoveries >= 1,
        "the reader must have recovered: {s:?}"
    );
}
