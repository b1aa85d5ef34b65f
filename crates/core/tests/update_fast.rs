//! The in-bucket update fast path and the hazards it must fall back on.
//!
//! A Solution 2 insert or delete first reads the page its directory
//! entry names as a find does, and, when the page is a live bucket that
//! owns the pseudokey and needs no split or merge, takes α (insert) or
//! ξ (delete) with one CAS from the read's header snapshot, edits in
//! place and releases. These tests pin its cost (one page read, one
//! write, one grant, no ρ) and each reason it must run Figures 8–9
//! instead: a writer between the read and the CAS, a full bucket, a
//! merge candidate, a ρ holder against a delete's ξ, WAL backing, and
//! Solution 1.
//!
//! Shared setup (identity pseudokeys, capacity 2): inserting
//! `[00, 10, 01, 11, 100, 101]` yields the four depth-2 buckets
//! `00:{00,100}`, `10:{10}`, `01:{01,101}`, `11:{11}`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ceh_core::{invariants, ConcurrentHashFile, FileCore, Solution1, Solution2};
use ceh_locks::{LockId, LockManager, LockMode, WaitHook};
use ceh_obs::MetricsHandle;
use ceh_storage::{DiskHandle, DurableConfig, DurableStore, PageStore, PageStoreConfig};
use ceh_types::bucket::Bucket;
use ceh_types::{identity_pseudokey, DeleteOutcome, HashFileConfig, InsertOutcome, Key, Value};

const KEYS: [u64; 6] = [0b00, 0b10, 0b01, 0b11, 0b100, 0b101];

fn cfg() -> HashFileConfig {
    HashFileConfig::tiny().with_bucket_capacity(2)
}

fn store_cfg() -> PageStoreConfig {
    PageStoreConfig {
        page_size: Bucket::page_size_for(2),
        ..Default::default()
    }
}

/// A memory-backed core whose store, lock manager and counters report
/// into one registry.
fn core() -> FileCore {
    let metrics = MetricsHandle::new();
    let store = PageStore::new_shared_with_metrics(store_cfg(), &metrics);
    let locks = LockManager::with_metrics(Default::default(), store.clone(), &metrics);
    FileCore::with_buckets(cfg(), store, Arc::new(locks), identity_pseudokey, &metrics).unwrap()
}

fn loaded(f: &dyn ConcurrentHashFile) {
    for k in KEYS {
        f.insert(Key(k), Value(k)).unwrap();
    }
}

fn counter(f: &dyn ConcurrentHashFile, name: &str) -> u64 {
    f.metrics().snapshot().counter(name)
}

/// How far each of `names` moved while `op` ran.
fn moved(f: &dyn ConcurrentHashFile, names: &[&str], op: impl FnOnce()) -> Vec<u64> {
    let before = f.metrics().snapshot();
    op();
    let after = f.metrics().snapshot();
    names
        .iter()
        .map(|&n| after.counter(n) - before.counter(n))
        .collect()
}

const COST: [&str; 8] = [
    "storage.reads",
    "storage.writes",
    "locks.grants.rho",
    "locks.grants.alpha",
    "locks.grants.xi",
    "core.update_fast",
    "core.update_fallback",
    "locks.slow_path",
];

/// An in-bucket insert and delete are one read, one write and one grant
/// (α or ξ), and no ρ; a duplicate insert and a delete of an absent key
/// answer from the read alone, with no grant and no write.
#[test]
fn an_in_bucket_update_is_one_read_one_write_and_one_grant() {
    let f = Solution2::from_core(core());
    loaded(&f);
    let cost = |op: &dyn Fn()| moved(&f, &COST, op);
    let insert = |k: u64, want| {
        assert_eq!(f.insert(Key(k), Value(k)).unwrap(), want);
    };
    let delete = |k: u64, want| {
        assert_eq!(f.delete(Key(k)).unwrap(), want);
    };
    assert_eq!(
        cost(&|| insert(0b110, InsertOutcome::Inserted)),
        [1, 1, 0, 1, 0, 1, 0, 0]
    );
    assert_eq!(
        cost(&|| delete(0b100, DeleteOutcome::Deleted)),
        [1, 1, 0, 0, 1, 1, 0, 0]
    );
    assert_eq!(
        cost(&|| insert(0b00, InsertOutcome::AlreadyPresent)),
        [1, 0, 0, 0, 0, 1, 0, 0]
    );
    assert_eq!(
        cost(&|| delete(0b1100, DeleteOutcome::NotFound)),
        [1, 0, 0, 0, 0, 1, 0, 0]
    );
    assert_eq!(f.len(), KEYS.len());
    assert_eq!(f.find(Key(0b110)).unwrap(), Some(Value(0b110)));
    assert_eq!(f.find(Key(0b100)).unwrap(), None);
    invariants::check_concurrent_file(f.core()).unwrap();
    let s = f.core().locks().stats();
    assert_eq!(s.total_grants(), s.releases, "grants balance releases");
    assert_eq!(f.core().locks().total_granted(), 0);
}

/// A hook that runs `writer` once, inside the first upgrade window it
/// sees: after an update's read and before its CAS.
struct SlipIn {
    fired: AtomicBool,
    writer: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl WaitHook for SlipIn {
    fn at_upgrade(&self, _id: LockId, _mode: LockMode) {
        if !self.fired.swap(true, Ordering::AcqRel) {
            if let Some(w) = self.writer.lock().unwrap().take() {
                w();
            }
        }
    }
}

/// Install a [`SlipIn`] hook on `f` whose writer runs `op` on another
/// thread (its own update must not wait on the parked one) and waits
/// for it.
fn slip_in(f: &Arc<Solution2>, op: impl FnOnce(&Solution2) + Send + 'static) {
    let other = Arc::clone(f);
    let hook = Arc::new(SlipIn {
        fired: AtomicBool::new(false),
        writer: Mutex::new(Some(Box::new(move || {
            std::thread::spawn(move || op(&other)).join().unwrap();
        }))),
    });
    f.core().locks().set_wait_hook(Some(hook));
}

/// Hazard (a): another update changes the page between an update's read
/// and its CAS. The CAS loses to the changed version, and the update
/// runs Figure 8 or 9 and answers from the page as it now is.
#[test]
fn a_writer_between_the_read_and_the_cas_sends_the_update_to_the_figures() {
    // Insert: the writer fills the bucket, so the fallback splits it.
    let f = Arc::new(Solution2::from_core(core()));
    loaded(f.as_ref());
    slip_in(&f, |g| {
        assert_eq!(
            g.insert(Key(0b1110), Value(1)).unwrap(),
            InsertOutcome::Inserted
        );
    });
    let splits = counter(f.as_ref(), "core.splits");
    let fallbacks = counter(f.as_ref(), "core.update_fallback");
    assert_eq!(
        f.insert(Key(0b110), Value(2)).unwrap(),
        InsertOutcome::Inserted
    );
    f.core().locks().set_wait_hook(None);
    assert_eq!(counter(f.as_ref(), "core.update_fallback"), fallbacks + 1);
    assert_eq!(counter(f.as_ref(), "core.splits"), splits + 1);
    assert_eq!(f.find(Key(0b1110)).unwrap(), Some(Value(1)));
    assert_eq!(f.find(Key(0b110)).unwrap(), Some(Value(2)));
    assert_eq!(f.len(), KEYS.len() + 2);
    invariants::check_concurrent_file(f.core()).unwrap();

    // Delete: the writer deletes the same key first, so exactly one of
    // the two reports it deleted.
    let f = Arc::new(Solution2::from_core(core()));
    loaded(f.as_ref());
    slip_in(&f, |g| {
        assert_eq!(g.delete(Key(0b100)).unwrap(), DeleteOutcome::Deleted);
    });
    let fallbacks = counter(f.as_ref(), "core.update_fallback");
    assert_eq!(f.delete(Key(0b100)).unwrap(), DeleteOutcome::NotFound);
    f.core().locks().set_wait_hook(None);
    assert_eq!(counter(f.as_ref(), "core.update_fallback"), fallbacks + 1);
    assert_eq!(f.find(Key(0b100)).unwrap(), None);
    assert_eq!(f.len(), KEYS.len() - 1);
    invariants::check_concurrent_file(f.core()).unwrap();
    assert_eq!(f.core().locks().total_granted(), 0);
}

/// Hazards (b) and (c): an insert into a full bucket splits it through
/// Figure 8, and a delete that leaves a merge candidate merges through
/// Figure 9.
#[test]
fn splits_and_merges_run_the_figures() {
    let f = Solution2::from_core(core());
    loaded(&f);
    let names = ["core.update_fallback", "core.splits", "core.merges"];
    assert_eq!(
        moved(&f, &names, || {
            f.insert(Key(0b1000), Value(8)).unwrap();
        }),
        [1, 1, 0],
        "00 is full"
    );
    assert_eq!(
        moved(&f, &names, || {
            f.delete(Key(0b11)).unwrap();
        }),
        [1, 0, 1],
        "11 holds one record at depth 2, and 01 has room for the rest"
    );
    assert_eq!(f.find(Key(0b1000)).unwrap(), Some(Value(8)));
    assert_eq!(f.find(Key(0b11)).unwrap(), None);
    invariants::check_concurrent_file(f.core()).unwrap();
}

/// Hazard (d): a ρ holder on the page refuses a delete's ξ upgrade (and
/// admits an insert's α). The delete runs Figure 9, which waits for the
/// reader, and then removes the key.
#[test]
fn a_rho_holder_sends_a_delete_to_figure_9() {
    let f = Arc::new(Solution2::from_core(core()));
    loaded(f.as_ref());
    let locks = Arc::clone(f.core().locks());
    let (zero, one) = (f.core().dir().index(0b00), f.core().dir().index(0b10));
    let reader = locks.new_owner();
    locks.lock(reader, LockId::Page(one), LockMode::Rho);
    locks.lock(reader, LockId::Page(zero), LockMode::Rho);
    assert_eq!(
        moved(f.as_ref(), &["core.update_fast"], || {
            f.insert(Key(0b110), Value(6)).unwrap();
        }),
        [1],
        "α is compatible with ρ"
    );
    let waits = locks.stats().total_waits();
    let fallbacks = counter(f.as_ref(), "core.update_fallback");
    let deleter = {
        let f = Arc::clone(&f);
        std::thread::spawn(move || f.delete(Key(0b100)).unwrap())
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while locks.stats().total_waits() == waits {
        assert!(Instant::now() < deadline, "the delete never waited");
        std::thread::yield_now();
    }
    assert_eq!(counter(f.as_ref(), "core.update_fallback"), fallbacks + 1);
    locks.unlock(reader, LockId::Page(zero), LockMode::Rho);
    locks.unlock(reader, LockId::Page(one), LockMode::Rho);
    assert_eq!(deleter.join().unwrap(), DeleteOutcome::Deleted);
    assert_eq!(f.find(Key(0b100)).unwrap(), None);
    assert_eq!(locks.total_granted(), 0);
}

/// Run a load, an in-bucket insert and delete, a duplicate and a miss on
/// `f`, and return how many updates took the fast path and how many ran
/// the figures.
fn update_paths(f: &dyn ConcurrentHashFile) -> (u64, u64) {
    loaded(f);
    f.insert(Key(0b110), Value(6)).unwrap();
    f.delete(Key(0b100)).unwrap();
    f.insert(Key(0b00), Value(0)).unwrap();
    f.delete(Key(0b1100)).unwrap();
    assert_eq!(f.len(), KEYS.len());
    (
        counter(f, "core.update_fast"),
        counter(f, "core.update_fallback"),
    )
}

/// Hazard (e): a durable (WAL) store — over files or over an in-memory
/// image — never takes the fast path; every update runs the figures.
#[test]
fn file_and_wal_backed_files_never_take_the_fast_path() {
    let dir = std::env::temp_dir().join(format!("ceh-update-fast-{}", std::process::id()));
    let page_size = store_cfg().page_size;
    for disk in [
        DiskHandle::create_file(&dir, page_size).unwrap(),
        DiskHandle::new(page_size),
    ] {
        let metrics = MetricsHandle::new();
        let wal = DurableStore::with_disk(
            disk,
            DurableConfig {
                page: store_cfg(),
                ..Default::default()
            },
            &metrics,
        )
        .unwrap();
        let file = Solution2::from_core(
            FileCore::with_buckets(
                cfg(),
                Arc::clone(&wal),
                Arc::new(LockManager::over(wal.cache().clone())),
                identity_pseudokey,
                &metrics,
            )
            .unwrap(),
        );
        assert_eq!(update_paths(&file), (0, 10));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Hazard (f): Solution 1 keeps its top-down locking and never takes the
/// fast path; a memory-backed Solution 2 takes it for every update that
/// does not restructure.
#[test]
fn solution_1_never_takes_the_fast_path() {
    assert_eq!(update_paths(&Solution1::from_core(core())), (0, 0));
    // The load splits three times; the other three inserts fit, and so
    // do the four updates after it.
    assert_eq!(update_paths(&Solution2::from_core(core())), (7, 3));
}

/// A core whose lock manager is over another store is refused: its page
/// locks would not be the pages' header words.
#[test]
fn a_lock_manager_over_another_store_is_refused() {
    let store = PageStore::new_shared(store_cfg());
    let other = PageStore::new_shared(store_cfg());
    assert!(FileCore::with_buckets(
        cfg(),
        store,
        Arc::new(LockManager::over(other)),
        identity_pseudokey,
        &MetricsHandle::default(),
    )
    .is_err());
}
