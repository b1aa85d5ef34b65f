//! The lock-free find and the hazards it must fall back on.
//!
//! A find first reads the page its directory entry names without any
//! lock and answers only if that pass validated, no owner held ξ on the
//! page, and the page is a live bucket owning the pseudokey. These tests
//! pin the fast path's cost (no grant, one page read) and each reason it
//! must give up: a ξ holder, the Solution 2 merge window that ξ covers,
//! and a freed page whose header still looks valid.
//!
//! Shared setup (identity pseudokeys, capacity 2): inserting
//! `[00, 10, 01, 11, 100, 101]` yields the four depth-2 buckets
//! `00:{00,100}`, `10:{10}`, `01:{01,101}`, `11:{11}`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ceh_core::{ConcurrentHashFile, FileCore, Solution1, Solution2};
use ceh_locks::{LockId, LockManager, LockMode};
use ceh_obs::MetricsHandle;
use ceh_storage::{PageStore, PageStoreConfig};
use ceh_types::bucket::{Bucket, BucketView};
use ceh_types::{identity_pseudokey, mask, HashFileConfig, Key, Pseudokey, Value};

const KEYS: [u64; 6] = [0b00, 0b10, 0b01, 0b11, 0b100, 0b101];

fn core(poison_freed: bool) -> FileCore {
    let store = PageStore::new_shared(PageStoreConfig {
        page_size: Bucket::page_size_for(2),
        poison_freed,
        ..Default::default()
    });
    FileCore::with_buckets(
        HashFileConfig::tiny().with_bucket_capacity(2),
        Arc::clone(&store),
        Arc::new(LockManager::over(store)),
        identity_pseudokey,
        &MetricsHandle::default(),
    )
    .unwrap()
}

fn load(f: &dyn ConcurrentHashFile) {
    for k in KEYS {
        f.insert(Key(k), Value(k)).unwrap();
    }
}

fn counter(f: &dyn ConcurrentHashFile, name: &str) -> u64 {
    f.metrics().snapshot().counter(name)
}

/// Run `f.find(key)` on another thread; the flag turns true when it
/// returns.
fn spawn_find(
    f: &Arc<Solution2>,
    key: Key,
) -> (std::thread::JoinHandle<Option<Value>>, Arc<AtomicBool>) {
    let done = Arc::new(AtomicBool::new(false));
    let handle = {
        let (f, done) = (Arc::clone(f), Arc::clone(&done));
        std::thread::spawn(move || {
            let got = f.find(key).unwrap();
            done.store(true, Ordering::Release);
            got
        })
    };
    (handle, done)
}

/// Wait until some request has queued on `locks` since `waits` were
/// counted: the finder has fallen back to the ρ protocol and is blocked.
fn wait_until_blocked(locks: &LockManager, waits: u64) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while locks.stats().total_waits() == waits {
        assert!(Instant::now() < deadline, "the find never blocked");
        std::thread::yield_now();
    }
}

/// A warm find on a quiescent file is one validated pass: one
/// `core.find_fast`, one page read, and no lock grant at all.
#[test]
fn a_quiescent_warm_find_takes_no_lock() {
    let f = Solution2::from_core(core(true));
    load(&f);
    assert_eq!(f.find(Key(0b101)).unwrap(), Some(Value(0b101)));
    let before = f.metrics().snapshot();
    let reads = f.core().store().stats().reads;
    let grants = f.core().locks().stats().total_grants();
    assert_eq!(f.find(Key(0b101)).unwrap(), Some(Value(0b101)));
    assert_eq!(f.find(Key(0b111)).unwrap(), None);
    let d = f.metrics().snapshot().since(&before);
    assert_eq!(d.counter("core.find_fast"), 2);
    assert_eq!(d.counter("core.find_fallback"), 0);
    assert_eq!(
        f.core().locks().stats().total_grants(),
        grants,
        "no lock granted"
    );
    assert_eq!(
        f.core().store().stats().reads - reads,
        2,
        "one page read per find"
    );
    assert_eq!(d.counter("core.finds_hit"), 1);
    assert_eq!(d.counter("core.finds_miss"), 1);
}

/// A find on a page another owner holds ξ on falls back to the ρ
/// protocol, blocks behind the ξ, and answers once it is released.
#[test]
fn a_find_under_another_owners_xi_falls_back_and_blocks() {
    let f = Arc::new(Solution2::from_core(core(true)));
    load(f.as_ref());
    let page = f.core().dir().index(0b01);
    let locks = f.core().locks();
    let holder = locks.new_owner();
    locks.lock(holder, LockId::Page(page), LockMode::Xi);

    let waits = locks.stats().total_waits();
    let (finder, done) = spawn_find(&f, Key(0b101));
    wait_until_blocked(locks, waits);
    assert!(!done.load(Ordering::Acquire), "the find waits for the ξ");
    assert_eq!(counter(f.as_ref(), "core.find_fallback"), 1);
    assert_eq!(counter(f.as_ref(), "core.find_fast"), 0);

    locks.unlock(holder, LockId::Page(page), LockMode::Xi);
    assert_eq!(finder.join().unwrap(), Some(Value(0b101)));
    assert_eq!(locks.total_granted(), 0);
}

/// Hazard (a), Solution 2's merge window. Deleting `10`, the lone key of
/// the "1" partner, merges it into `00`: the deleter writes the survivor
/// (which no longer holds `10`) and only then the tombstone over the "1"
/// partner (which still does). The test replays the merge's locks and
/// writes as the protocol makes them and holds it between the two
/// writes. There, the survivor says `10` is absent while the "1"
/// partner's page still shows it present and is unchanged since before
/// the merge; only the ξ the deleter holds, which the page's header
/// shows, keeps a find from answering "present" after one that answered
/// "absent". The find must fall back, wait out the merge,
/// and report the key gone.
#[test]
fn a_find_in_the_merge_window_never_sees_the_deleted_key() {
    let f = Arc::new(Solution2::from_core(core(true)));
    load(f.as_ref());
    let core = f.core();
    let (zero, one) = (core.dir().index(0b00), core.dir().index(0b10));
    let z = Key(0b10);
    let pk = Pseudokey(z.0);
    let locks = core.locks();
    let merger = locks.new_owner();
    locks.lock(merger, LockId::Directory, LockMode::Rho);
    locks.lock(merger, LockId::Page(one), LockMode::Xi);
    locks.lock(merger, LockId::Page(zero), LockMode::Xi);
    locks.lock(merger, LockId::Directory, LockMode::Alpha);

    let current = core.buckets().getbucket(one).unwrap();
    let mut survivor = core.buckets().getbucket(zero).unwrap();
    survivor.localdepth -= 1;
    survivor.commonbits &= mask(survivor.localdepth);
    survivor.next = current.next;
    survivor.version = survivor.version.max(current.version) + 1;
    core.buckets().putbucket(zero, &survivor).unwrap();

    // The window: the survivor owns `10` and does not hold it…
    let survivor_says = core
        .store()
        .with_page(zero, |w| {
            let v = BucketView::over(w).unwrap();
            (v.owns(pk), v.search(z))
        })
        .unwrap();
    assert_eq!(survivor_says, (true, None));
    // …while the "1" partner's page still holds it. The merger's ξ is
    // in that page's header word, so a lock-free read of the page gives
    // up at its first load.
    let partner_says = core
        .store()
        .with_page(one, |w| {
            let v = BucketView::over(w).unwrap();
            (v.owns(pk), v.search(z))
        })
        .unwrap();
    assert_eq!(partner_says, (true, Some(Value(0b10))));
    assert_eq!(core.store().read_validated(one, |_| Some(())), None);

    let fallbacks = counter(f.as_ref(), "core.find_fallback");
    let waits = locks.stats().total_waits();
    let (finder, done) = spawn_find(&f, z);
    wait_until_blocked(locks, waits);
    assert!(
        !done.load(Ordering::Acquire),
        "the find waits out the merge"
    );
    assert_eq!(counter(f.as_ref(), "core.find_fallback"), fallbacks + 1);

    let mut tombstone = Bucket::new(0, 0);
    tombstone.mark_deleted();
    tombstone.localdepth = current.localdepth;
    tombstone.next = zero;
    tombstone.version = survivor.version;
    core.buckets().putbucket(one, &tombstone).unwrap();
    core.dir().update_one_side(zero, current.localdepth, pk);
    locks.unlock(merger, LockId::Page(one), LockMode::Xi);
    locks.unlock(merger, LockId::Page(zero), LockMode::Xi);
    locks.unlock(merger, LockId::Directory, LockMode::Alpha);
    locks.unlock(merger, LockId::Directory, LockMode::Rho);
    assert_eq!(finder.join().unwrap(), None, "z was deleted by the merge");
    assert_eq!(f.find(Key(0b100)).unwrap(), Some(Value(0b100)));
}

/// Hazard (b): Solution 1 frees a merged page whose header still looks
/// valid when freed pages are not poisoned. A find whose directory entry
/// still names such a page must not answer from it: the fast path sees
/// the page unallocated and falls back.
#[test]
fn a_find_on_a_freed_unpoisoned_page_falls_back() {
    let f = Solution1::from_core(core(false));
    load(&f);
    let store = f.core().store();
    let page = f.core().dir().index(0b11);
    let before = f.metrics().snapshot();
    assert_eq!(f.find(Key(0b11)).unwrap(), Some(Value(0b11)));
    let d = f.metrics().snapshot().since(&before);
    assert_eq!(d.counter("core.find_fast"), 1);

    // The page is freed (as the merge that empties it would) while the
    // directory, in this staged state, still names it.
    store.dealloc(page).unwrap();
    let header_still_valid = store
        .with_page(page, |w| BucketView::over(w).map(|v| v.count()))
        .unwrap();
    assert_eq!(header_still_valid, Ok(1), "no poison: the header survives");
    let before = f.metrics().snapshot();
    let _stale = f.find(Key(0b11)).unwrap();
    let d = f.metrics().snapshot().since(&before);
    assert_eq!(
        d.counter("core.find_fast"),
        0,
        "no answer from a freed page"
    );
    assert_eq!(d.counter("core.find_fallback"), 1);

    // Reallocating the page (LIFO) bumps its version again; the staged
    // file is whole once more and the fast path takes it back.
    assert_eq!(store.alloc().unwrap(), page);
    let before = f.metrics().snapshot();
    assert_eq!(f.find(Key(0b11)).unwrap(), Some(Value(0b11)));
    assert_eq!(
        f.metrics()
            .snapshot()
            .since(&before)
            .counter("core.find_fast"),
        1
    );
    assert_eq!(f.core().locks().total_granted(), 0);
}
