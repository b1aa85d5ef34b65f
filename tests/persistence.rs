//! Durability tests: file-backed page stores and directory recovery.
//!
//! The directory is volatile by design — everything needed to rebuild it
//! (localdepth, commonbits, next links) is persisted inside the buckets.
//! These tests write through one store instance, drop it ("shut down"),
//! reopen the file, recover, and verify the index is intact — for the
//! sequential file, Solution 1, and Solution 2.

use std::sync::Arc;

use ceh_core::{invariants, ConcurrentHashFile, FileCore, Solution1, Solution2};
use ceh_locks::LockManager;
use ceh_sequential::SequentialHashFile;
use ceh_storage::{PageStore, PageStoreConfig};
use ceh_types::bucket::Bucket;
use ceh_types::{hash_key, DeleteOutcome, HashFileConfig, Key, Value};

fn temp_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("ceh-persist-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("index.ceh")
}

fn store_cfg(capacity: usize) -> PageStoreConfig {
    PageStoreConfig {
        page_size: Bucket::page_size_for(capacity),
        initial_pages: 0,
        ..Default::default()
    }
}

#[test]
fn sequential_file_survives_reopen() {
    let path = temp_path("seq");
    let cfg = HashFileConfig::tiny().with_bucket_capacity(4);

    // Session 1: build, mutate, drop.
    {
        let store = Arc::new(PageStore::create_file(&path, store_cfg(4)).unwrap());
        let mut f = SequentialHashFile::with_store(cfg.clone(), store, hash_key).unwrap();
        for k in 0..300u64 {
            f.insert(Key(k), Value(k * 5)).unwrap();
        }
        for k in 0..100u64 {
            assert_eq!(f.delete(Key(k)).unwrap(), DeleteOutcome::Deleted);
        }
        f.check_invariants().unwrap();
    }

    // Session 2: reopen and recover.
    let store = Arc::new(PageStore::open_file(&path, store_cfg(4)).unwrap());
    let f = SequentialHashFile::recover(cfg, store, hash_key).unwrap();
    assert_eq!(f.len(), 200);
    for k in 0..100u64 {
        assert_eq!(
            f.find(Key(k)).unwrap(),
            None,
            "deleted key {k} stayed deleted"
        );
    }
    for k in 100..300u64 {
        assert_eq!(
            f.find(Key(k)).unwrap(),
            Some(Value(k * 5)),
            "key {k} survived"
        );
    }
    f.check_invariants().unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn recovered_file_keeps_working() {
    let path = temp_path("keep-working");
    let cfg = HashFileConfig::tiny().with_bucket_capacity(4);
    {
        let store = Arc::new(PageStore::create_file(&path, store_cfg(4)).unwrap());
        let mut f = SequentialHashFile::with_store(cfg.clone(), store, hash_key).unwrap();
        for k in 0..150u64 {
            f.insert(Key(k), Value(k)).unwrap();
        }
    }
    let store = Arc::new(PageStore::open_file(&path, store_cfg(4)).unwrap());
    let mut f = SequentialHashFile::recover(cfg, store, hash_key).unwrap();
    // The recovered file must split, merge, double and halve correctly.
    for k in 150..400u64 {
        f.insert(Key(k), Value(k)).unwrap();
    }
    for k in 0..400u64 {
        assert_eq!(f.delete(Key(k)).unwrap(), DeleteOutcome::Deleted, "key {k}");
    }
    assert!(f.is_empty());
    f.check_invariants().unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn concurrent_solutions_recover_from_disk() {
    let path = temp_path("concurrent");
    let cfg = HashFileConfig::tiny().with_bucket_capacity(4);

    // Session 1: Solution 2 writes through a file-backed store.
    {
        let store = Arc::new(PageStore::create_file(&path, store_cfg(4)).unwrap());
        let core = FileCore::with_parts(
            cfg.clone(),
            Arc::clone(&store),
            Arc::new(LockManager::over(store)),
            hash_key,
        )
        .unwrap();
        let f = Arc::new(Solution2::from_core(core));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let f = Arc::clone(&f);
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        f.insert(Key(t * 100 + i), Value(i)).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        invariants::check_concurrent_file(f.core()).unwrap();
    }

    // Session 2: recover into Solution 1 (either protocol can adopt the
    // same on-disk structure — it is one format).
    let store = Arc::new(PageStore::open_file(&path, store_cfg(4)).unwrap());
    let core = FileCore::recover(
        cfg,
        Arc::clone(&store),
        Arc::new(LockManager::over(store)),
        hash_key,
    )
    .unwrap();
    let f = Arc::new(Solution1::from_core(core));
    assert_eq!(ConcurrentHashFile::len(&*f), 400);
    invariants::check_concurrent_file(f.core()).unwrap();
    // And it keeps working concurrently.
    let handles: Vec<_> = (0..4u64)
        .map(|t| {
            let f = Arc::clone(&f);
            std::thread::spawn(move || {
                for i in 0..100u64 {
                    let k = t * 100 + i;
                    assert_eq!(f.find(Key(k)).unwrap(), Some(Value(i)));
                    assert_eq!(f.delete(Key(k)).unwrap(), DeleteOutcome::Deleted);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    assert!(ConcurrentHashFile::is_empty(&*f));
    invariants::check_concurrent_file(f.core()).unwrap();
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn recovery_collects_tombstone_debris() {
    // Simulate a crash between a Solution-2 merge and its GC phase: the
    // file contains a tombstone. Recovery must collect it and rebuild a
    // clean structure.
    let path = temp_path("tombstone");
    let cfg = HashFileConfig::tiny().with_bucket_capacity(4);
    {
        let store = Arc::new(PageStore::create_file(&path, store_cfg(4)).unwrap());
        let mut f = SequentialHashFile::with_store(cfg.clone(), store.clone(), hash_key).unwrap();
        for k in 0..50u64 {
            f.insert(Key(k), Value(k)).unwrap();
        }
        // Plant a tombstone on a fresh page (as an interrupted merge's
        // garbage would look just before deallocation).
        let page = store.alloc().unwrap();
        let mut tomb = Bucket::new(0, 0);
        tomb.mark_deleted();
        let mut buf = ceh_storage::PageBuf::zeroed(store.page_size());
        tomb.encode(&mut buf).unwrap();
        store.write(page, &buf).unwrap();
    }
    let store = Arc::new(PageStore::open_file(&path, store_cfg(4)).unwrap());
    let f = SequentialHashFile::recover(cfg, store.clone(), hash_key).unwrap();
    assert_eq!(f.len(), 50);
    f.check_invariants().unwrap();
    std::fs::remove_file(&path).unwrap();
}

/// Build a durable two-site cluster, load it with `records` keys, and
/// shut it down cleanly, returning the config for a later recovery.
fn durable_cluster(tag: &str, records: u64) -> ceh_dist::ClusterConfig {
    let data_dir =
        std::env::temp_dir().join(format!("ceh-persist-cluster-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let cfg = ceh_dist::ClusterConfig {
        dir_managers: 2,
        bucket_managers: 2,
        file: HashFileConfig::tiny().with_bucket_capacity(4),
        page_quota: Some(16),
        data_dir: Some(data_dir),
        ..Default::default()
    };
    let c = ceh_dist::Cluster::start(cfg.clone()).unwrap();
    let client = c.client();
    for k in 0..records {
        client.insert(Key(k), Value(k * 2)).unwrap();
    }
    assert!(c.quiesce(std::time::Duration::from_secs(20)));
    c.shutdown();
    cfg
}

fn site_file(cfg: &ceh_dist::ClusterConfig, site: u32) -> std::path::PathBuf {
    cfg.data_dir
        .as_ref()
        .unwrap()
        .join(format!("site-{site}.ceh"))
}

#[test]
fn cluster_recovery_truncates_torn_tail_page() {
    // A crash can interrupt file growth mid-write, leaving a trailing
    // partial page. Recovery must truncate the debris — the directory
    // never referenced a page that finished no write — and come back
    // with every record and clean invariants.
    let cfg = durable_cluster("torn-tail", 200);
    let page_size = Bucket::page_size_for(4);
    for site in 0..2u32 {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(site_file(&cfg, site))
            .unwrap();
        f.write_all(&vec![0xAA; page_size / 2 + site as usize])
            .unwrap();
    }
    let c = ceh_dist::Cluster::recover(cfg.clone()).unwrap(); // invariant-checked inside
    assert_eq!(c.total_records().unwrap(), 200);
    let client = c.client();
    for k in 0..200u64 {
        assert_eq!(
            client.find(Key(k)).unwrap(),
            Some(Value(k * 2)),
            "key {k} survived"
        );
    }
    // The torn tail is gone from disk, not just ignored.
    let len = std::fs::metadata(site_file(&cfg, 0)).unwrap().len();
    assert_eq!(
        len % page_size as u64,
        0,
        "site file realigned to page boundary"
    );
    c.shutdown();
    std::fs::remove_dir_all(cfg.data_dir.unwrap()).unwrap();
}

#[test]
fn cluster_recovery_deallocs_corrupt_header_debris() {
    // A crash mid-allocation can leave a full page whose bucket header
    // was never (or only partially) written. Recovery must treat any
    // non-decoding page as debris and deallocate it, then pass the full
    // invariant check — which includes "no allocated page unreachable",
    // so surviving debris would fail loudly.
    let cfg = durable_cluster("corrupt-header", 150);
    let page_size = Bucket::page_size_for(4);
    {
        use std::io::{Seek as _, SeekFrom, Write as _};
        // Site 0: an appended page of pure garbage (bad magic).
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(site_file(&cfg, 0))
            .unwrap();
        f.write_all(&vec![0xAA; page_size]).unwrap();
        drop(f);
        // Site 1: a subtler header tear — valid magic, garbage fields
        // (the first 4 bytes of a real encode landed, the rest did not).
        let mut torn = vec![0xFF; page_size];
        let mut good = ceh_storage::PageBuf::zeroed(page_size);
        Bucket::new(0, 0).encode(&mut good).unwrap();
        torn[..4].copy_from_slice(&good[..4]);
        let mut f = std::fs::OpenOptions::new()
            .write(true)
            .open(site_file(&cfg, 1))
            .unwrap();
        f.seek(SeekFrom::End(0)).unwrap();
        f.write_all(&torn).unwrap();
    }
    let c = ceh_dist::Cluster::recover(cfg.clone()).unwrap();
    assert_eq!(c.total_records().unwrap(), 150);
    assert_eq!(c.tombstone_count().unwrap(), 0);
    c.check_invariants().unwrap();
    // And the recovered cluster keeps working — the freed debris pages
    // are safe to reallocate.
    let client = c.client();
    for k in 150..250u64 {
        client.insert(Key(k), Value(k * 2)).unwrap();
    }
    for k in 0..150u64 {
        assert_eq!(
            client.delete(Key(k)).unwrap(),
            DeleteOutcome::Deleted,
            "key {k}"
        );
    }
    assert!(c.quiesce(std::time::Duration::from_secs(20)));
    assert_eq!(c.total_records().unwrap(), 100);
    c.check_invariants().unwrap();
    c.shutdown();
    std::fs::remove_dir_all(cfg.data_dir.unwrap()).unwrap();
}

#[test]
fn recovery_of_empty_file_initializes_fresh() {
    let path = temp_path("empty");
    let cfg = HashFileConfig::tiny();
    {
        PageStore::create_file(&path, store_cfg(2)).unwrap();
    }
    let store = Arc::new(PageStore::open_file(&path, store_cfg(2)).unwrap());
    let mut f = SequentialHashFile::recover(cfg, store, hash_key).unwrap();
    assert!(f.is_empty());
    f.insert(Key(1), Value(1)).unwrap();
    assert_eq!(f.find(Key(1)).unwrap(), Some(Value(1)));
    std::fs::remove_file(&path).unwrap();
}
