//! Concurrency torture tests for Solutions 1 and 2.
//!
//! Every test runs many threads of mixed operations over tiny buckets
//! (maximizing splits, merges, doublings, halvings, and wrong-bucket
//! recoveries), with the lock manager's deadlock watchdog armed and
//! freed-page poisoning on. At quiescence we check the full structural
//! invariant set and compare the surviving key set against a
//! single-threaded model replay.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use ceh_core::{
    invariants::check_concurrent_file, ConcurrentHashFile, FileCore, Solution1, Solution2,
};
use ceh_locks::{LockManager, LockManagerConfig};
use ceh_obs::MetricsHandle;
use ceh_storage::{PageStore, PageStoreConfig};
use ceh_types::bucket::Bucket;
use ceh_types::{hash_key, HashFileConfig, Key, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn watchdog_core(cfg: HashFileConfig) -> FileCore {
    let store = PageStore::new_shared(PageStoreConfig {
        page_size: Bucket::page_size_for(cfg.bucket_capacity),
        ..Default::default()
    });
    let locks = Arc::new(LockManager::new(
        LockManagerConfig {
            watchdog: Some(Duration::from_secs(20)),
            ..Default::default()
        },
        store.clone(),
    ));
    FileCore::with_buckets(cfg, store, locks, hash_key, &MetricsHandle::default()).unwrap()
}

/// Per-key ownership partition: thread t owns keys ≡ t (mod T), so every
/// operation's outcome is deterministic per thread and we can maintain an
/// exact per-thread model even under full concurrency.
fn torture<F: ConcurrentHashFile + 'static>(
    file: Arc<F>,
    threads: u64,
    ops_per_thread: usize,
    seed: u64,
) {
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let file = Arc::clone(&file);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ t);
                let mut model: HashMap<u64, u64> = HashMap::new();
                for i in 0..ops_per_thread {
                    // Keys owned exclusively by this thread.
                    let k = rng.random_range(0..64u64) * threads + t;
                    match rng.random_range(0..10) {
                        0..=3 => {
                            let v = i as u64;
                            let out = file.insert(Key(k), Value(v)).unwrap();
                            let expect_inserted = !model.contains_key(&k);
                            assert_eq!(
                                out == ceh_types::InsertOutcome::Inserted,
                                expect_inserted,
                                "thread {t} insert {k}"
                            );
                            model.entry(k).or_insert(v);
                        }
                        4..=6 => {
                            let out = file.delete(Key(k)).unwrap();
                            let expect_deleted = model.remove(&k).is_some();
                            assert_eq!(
                                out == ceh_types::DeleteOutcome::Deleted,
                                expect_deleted,
                                "thread {t} delete {k}"
                            );
                        }
                        _ => {
                            let got = file.find(Key(k)).unwrap().map(|v| v.0);
                            assert_eq!(got, model.get(&k).copied(), "thread {t} find {k}");
                        }
                    }
                }
                model
            })
        })
        .collect();

    let mut surviving: HashMap<u64, u64> = HashMap::new();
    for h in handles {
        surviving.extend(h.join().unwrap());
    }
    // Quiescent equivalence with the union of the per-thread models.
    assert_eq!(file.len(), surviving.len(), "len at quiescence");
    for (&k, &v) in &surviving {
        assert_eq!(
            file.find(Key(k)).unwrap(),
            Some(Value(v)),
            "surviving key {k}"
        );
    }
}

#[test]
fn solution1_torture() {
    let f = Arc::new(Solution1::from_core(watchdog_core(HashFileConfig::tiny())));
    torture(Arc::clone(&f), 8, 1500, 0x51);
    check_concurrent_file(f.core()).unwrap();
    let s = f.core().stats().snapshot();
    assert!(
        s.splits > 0 && s.merges > 0,
        "torture must exercise restructuring: {s:?}"
    );
}

#[test]
fn solution2_torture() {
    let f = Arc::new(Solution2::from_core(watchdog_core(HashFileConfig::tiny())));
    torture(Arc::clone(&f), 8, 1500, 0x52);
    check_concurrent_file(f.core()).unwrap();
    let s = f.core().stats().snapshot();
    assert!(
        s.splits > 0 && s.merges > 0,
        "torture must exercise restructuring: {s:?}"
    );
    assert_eq!(s.gc_phases, s.merges);
}

#[test]
fn solution1_torture_larger_buckets() {
    let f = Arc::new(Solution1::from_core(watchdog_core(
        HashFileConfig::tiny().with_bucket_capacity(8),
    )));
    torture(Arc::clone(&f), 6, 2000, 0x151);
    check_concurrent_file(f.core()).unwrap();
}

#[test]
fn solution2_torture_larger_buckets() {
    let f = Arc::new(Solution2::from_core(watchdog_core(
        HashFileConfig::tiny().with_bucket_capacity(8),
    )));
    torture(Arc::clone(&f), 6, 2000, 0x152);
    check_concurrent_file(f.core()).unwrap();
}

#[test]
fn solution2_torture_with_merge_threshold() {
    // merge_threshold 2 makes merges far more frequent, stressing the
    // label-A paths and tombstone GC.
    let f = Arc::new(Solution2::from_core(watchdog_core(
        HashFileConfig::tiny()
            .with_bucket_capacity(6)
            .with_merge_threshold(2),
    )));
    torture(Arc::clone(&f), 8, 1500, 0x252);
    check_concurrent_file(f.core()).unwrap();
}

/// §2.3's update-serialization obligation, explicit: N threads all
/// insert the *same* key — exactly one wins; all delete it — exactly one
/// wins. (The torture tests avoid key collisions by construction, so
/// this is the one place contended same-key updates are pinned.)
#[test]
fn same_key_updates_serialize() {
    for make in [
        |c| Box::new(Solution1::from_core(c)) as Box<dyn ConcurrentHashFile>,
        |c| Box::new(Solution2::from_core(c)) as Box<dyn ConcurrentHashFile>,
    ] {
        let f: Arc<dyn ConcurrentHashFile> = Arc::from(make(watchdog_core(HashFileConfig::tiny())));
        for round in 0..20u64 {
            let key = Key(round * 1000 + 7);
            let inserted: usize = (0..8u64)
                .map(|t| {
                    let f = Arc::clone(&f);
                    std::thread::spawn(move || {
                        matches!(
                            f.insert(key, Value(t)).unwrap(),
                            ceh_types::InsertOutcome::Inserted
                        ) as usize
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum();
            assert_eq!(inserted, 1, "{}: exactly one insert wins", f.name());
            // The stored value is one of the contenders' (no torn blend).
            let v = f.find(key).unwrap().expect("key present");
            assert!(v.0 < 8, "{}: value {v:?} written by a contender", f.name());

            let deleted: usize = (0..8u64)
                .map(|_| {
                    let f = Arc::clone(&f);
                    std::thread::spawn(move || {
                        matches!(f.delete(key).unwrap(), ceh_types::DeleteOutcome::Deleted) as usize
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum();
            assert_eq!(deleted, 1, "{}: exactly one delete wins", f.name());
            assert_eq!(f.find(key).unwrap(), None);
        }
    }
}

#[test]
fn readers_run_against_update_storm() {
    // Dedicated readers sweep the key space while updaters churn; readers
    // must always see a coherent bucket (the §2.3 reader/updater
    // argument). Outcome values are checked for self-consistency: a hit
    // must return the value written for that key.
    let f = Arc::new(Solution2::from_core(watchdog_core(HashFileConfig::tiny())));
    for k in 0..128u64 {
        f.insert(Key(k), Value(k * 1000)).unwrap();
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let updaters: Vec<_> = (0..4u64)
        .map(|t| {
            let f = Arc::clone(&f);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(t);
                // Churn keys outside the readers' range.
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let k = 1000 + rng.random_range(0..64u64) * 4 + t;
                    if rng.random_bool(0.5) {
                        let _ = f.insert(Key(k), Value(k * 1000)).unwrap();
                    } else {
                        let _ = f.delete(Key(k)).unwrap();
                    }
                }
            })
        })
        .collect();
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let f = Arc::clone(&f);
            std::thread::spawn(move || {
                for _ in 0..50 {
                    for k in 0..128u64 {
                        // Keys 0..128 are never touched by updaters.
                        assert_eq!(f.find(Key(k)).unwrap(), Some(Value(k * 1000)), "key {k}");
                    }
                }
            })
        })
        .collect();
    for r in readers {
        r.join().unwrap();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for u in updaters {
        u.join().unwrap();
    }
    check_concurrent_file(f.core()).unwrap();
}
