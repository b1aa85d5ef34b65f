//! Durability tests: hash files write-ahead logged to files, reopened
//! from those files alone.
//!
//! The directory is volatile by design — everything needed to rebuild it
//! (localdepth, commonbits, next links) is persisted inside the buckets.
//! These tests write through one durable store over a `FileBackend`
//! directory (`frames.ceh` + `wal.ceh`), drop it ("shut down"), reopen
//! the directory, recover, and verify the index is intact — for
//! Solutions 1 and 2 and for a distributed cluster.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use ceh_core::{invariants, ConcurrentHashFile, FileCore, Solution1, Solution2};
use ceh_dist::{Cluster, ClusterConfig, SiteStorage};
use ceh_locks::{LockManager, LockManagerConfig};
use ceh_obs::MetricsHandle;
use ceh_storage::{DiskHandle, DurableConfig, DurableStore, PageBuf, PageStoreConfig};
use ceh_types::bucket::Bucket;
use ceh_types::{hash_key, DeleteOutcome, HashFileConfig, Key, Value};

/// A fresh, empty directory for one test's medium.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ceh-persist-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_cfg(capacity: usize) -> DurableConfig {
    DurableConfig {
        page: PageStoreConfig {
            page_size: Bucket::page_size_for(capacity),
            ..Default::default()
        },
        ..Default::default()
    }
}

/// A new durable core over a fresh medium in `dir`.
fn create(cfg: &HashFileConfig, dir: &Path) -> FileCore {
    let dcfg = durable_cfg(cfg.bucket_capacity);
    let metrics = MetricsHandle::new();
    let disk = DiskHandle::create_file(dir, dcfg.page.page_size).unwrap();
    let wal = DurableStore::with_disk(disk, dcfg, &metrics).unwrap();
    let locks = Arc::new(LockManager::over(wal.cache().clone()));
    FileCore::with_buckets(cfg.clone(), wal, locks, hash_key, &metrics).unwrap()
}

/// Recover the core whose medium is in `dir`.
fn reopen(cfg: &HashFileConfig, dir: &Path) -> FileCore {
    let dcfg = durable_cfg(cfg.bucket_capacity);
    let disk = DiskHandle::open_file(dir, dcfg.page.page_size).unwrap();
    let (core, _report) = FileCore::recover_durable_metrics(
        cfg.clone(),
        &disk,
        dcfg,
        LockManagerConfig::default(),
        hash_key,
        &MetricsHandle::new(),
    )
    .unwrap();
    core
}

#[test]
fn recovered_file_keeps_working() {
    let dir = temp_dir("keep-working");
    let cfg = HashFileConfig::tiny().with_bucket_capacity(4);
    {
        let f = Solution2::from_core(create(&cfg, &dir));
        for k in 0..150u64 {
            f.insert(Key(k), Value(k)).unwrap();
        }
    }
    let f = Solution2::from_core(reopen(&cfg, &dir));
    assert_eq!(f.len(), 150);
    // The recovered file must split, merge, double and halve correctly.
    for k in 150..400u64 {
        f.insert(Key(k), Value(k)).unwrap();
    }
    for k in 0..400u64 {
        assert_eq!(f.delete(Key(k)).unwrap(), DeleteOutcome::Deleted, "key {k}");
    }
    assert!(f.is_empty());
    invariants::check_concurrent_file(f.core()).unwrap();
    drop(f);
    // The shrunken file is what the next reopen finds.
    let f = Solution2::from_core(reopen(&cfg, &dir));
    assert!(f.is_empty());
    invariants::check_concurrent_file(f.core()).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn concurrent_solutions_recover_from_disk() {
    let dir = temp_dir("concurrent");
    let cfg = HashFileConfig::tiny().with_bucket_capacity(4);

    // Session 1: Solution 2 writes through the log.
    {
        let f = Arc::new(Solution2::from_core(create(&cfg, &dir)));
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
    let f = Arc::new(Solution1::from_core(reopen(&cfg, &dir)));
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
    drop(f);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_collects_tombstone_debris() {
    // Simulate a crash between a Solution-2 merge and its GC phase: the
    // log holds a committed tombstone. Recovery must collect it through
    // the log and rebuild a clean structure.
    let dir = temp_dir("tombstone");
    let cfg = HashFileConfig::tiny().with_bucket_capacity(4);
    {
        let f = Solution2::from_core(create(&cfg, &dir));
        for k in 0..50u64 {
            f.insert(Key(k), Value(k)).unwrap();
        }
        // Plant a tombstone on a fresh page (as an interrupted merge's
        // garbage would look just before deallocation).
        let wal = f.core().wal().unwrap();
        let txn = wal.begin_txn().unwrap();
        let page = wal.alloc().unwrap();
        let mut tomb = Bucket::new(0, 0);
        tomb.mark_deleted();
        let mut buf = wal.new_buf();
        tomb.encode(&mut buf).unwrap();
        wal.write(page, &buf).unwrap();
        txn.commit().unwrap();
    }
    let f = Solution2::from_core(reopen(&cfg, &dir));
    assert_eq!(f.len(), 50);
    invariants::check_concurrent_file(f.core()).unwrap();
    let live = f.core().store().allocated_pages();
    drop(f);
    // The collection was logged: the next reopen finds no tombstone.
    let f = Solution2::from_core(reopen(&cfg, &dir));
    assert_eq!(f.core().store().allocated_pages(), live);
    drop(f);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_of_empty_file_initializes_fresh() {
    let dir = temp_dir("empty");
    let cfg = HashFileConfig::tiny();
    DiskHandle::create_file(&dir, Bucket::page_size_for(cfg.bucket_capacity)).unwrap();
    let f = Solution2::from_core(reopen(&cfg, &dir));
    assert!(f.is_empty());
    f.insert(Key(1), Value(1)).unwrap();
    assert_eq!(f.find(Key(1)).unwrap(), Some(Value(1)));
    drop(f);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Build a two-site cluster over WAL'd files, load it with `records`
/// keys, and shut it down cleanly, returning the config for a later
/// recovery.
fn durable_cluster(tag: &str, records: u64) -> ClusterConfig {
    let cfg = ClusterConfig {
        dir_managers: 2,
        bucket_managers: 2,
        file: HashFileConfig::tiny().with_bucket_capacity(4),
        page_quota: Some(16),
        storage: SiteStorage::WalFiles(temp_dir(&format!("cluster-{tag}"))),
        ..Default::default()
    };
    let c = Cluster::start(cfg.clone()).unwrap();
    let client = c.client();
    for k in 0..records {
        client.insert(Key(k), Value(k * 2)).unwrap();
    }
    assert!(c.quiesce(std::time::Duration::from_secs(20)));
    c.shutdown();
    cfg
}

fn data_dir(cfg: &ClusterConfig) -> PathBuf {
    match &cfg.storage {
        SiteStorage::WalFiles(dir) => dir.clone(),
        other => panic!("not a file-site config: {other:?}"),
    }
}

fn site_dir(cfg: &ClusterConfig, site: u32) -> PathBuf {
    data_dir(cfg).join(format!("site-{site}"))
}

#[test]
fn cluster_recovery_truncates_torn_tail_page() {
    // A crash can interrupt a log append mid-record, leaving a torn
    // tail in `wal.ceh`. Recovery must discard exactly the debris —
    // nothing was acked on a record that never finished — and come back
    // with every record and clean invariants.
    let cfg = durable_cluster("torn-tail", 200);
    let page_size = Bucket::page_size_for(4);
    for site in 0..2u32 {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(site_dir(&cfg, site).join("wal.ceh"))
            .unwrap();
        f.write_all(&vec![0xAA; page_size / 2 + site as usize])
            .unwrap();
    }
    let c = Cluster::recover(cfg.clone()).unwrap(); // invariant-checked inside
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
    for site in 0..2u32 {
        let wal = std::fs::read(site_dir(&cfg, site).join("wal.ceh")).unwrap();
        assert!(
            !ceh_storage::parse_wal(&wal).1,
            "site {site}'s log is whole"
        );
    }
    c.shutdown();
    std::fs::remove_dir_all(data_dir(&cfg)).unwrap();
}

#[test]
fn cluster_recovery_deallocs_corrupt_header_debris() {
    // A crash between a logged allocation and the write of its bucket
    // leaves a committed page with no bucket header; a bad write can
    // leave one whose header is only partly a bucket's. Recovery must
    // treat any non-decoding page as debris and deallocate it through
    // the site's log, then pass the full invariant check — which
    // includes "no allocated page unreachable", so surviving debris
    // would fail loudly.
    let cfg = durable_cluster("corrupt-header", 150);
    let dcfg = durable_cfg(4);
    let plant = |site: u32, bytes: Option<PageBuf>| {
        let disk = DiskHandle::open_file(site_dir(&cfg, site), dcfg.page.page_size).unwrap();
        let (wal, _) = DurableStore::recover(&disk, dcfg.clone(), &MetricsHandle::new()).unwrap();
        let txn = wal.begin_txn().unwrap();
        let page = wal.alloc().unwrap();
        if let Some(bytes) = bytes {
            wal.write(page, &bytes).unwrap();
        }
        txn.commit().unwrap();
    };
    // Site 0: an allocated page that was never written (all zeroes).
    plant(0, None);
    // Site 1: a subtler header tear — valid magic, garbage fields (the
    // first 4 bytes of a real encode, then junk).
    let mut torn = PageBuf::zeroed(dcfg.page.page_size);
    torn.fill(0xFF);
    let mut good = PageBuf::zeroed(dcfg.page.page_size);
    Bucket::new(0, 0).encode(&mut good).unwrap();
    torn[..4].copy_from_slice(&good[..4]);
    plant(1, Some(torn));

    let c = Cluster::recover(cfg.clone()).unwrap();
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
    // The deallocations were logged: every page on disk is a bucket.
    for site in 0..2u32 {
        let disk = DiskHandle::open_file(site_dir(&cfg, site), dcfg.page.page_size).unwrap();
        let (wal, _) = DurableStore::recover(&disk, dcfg.clone(), &MetricsHandle::new()).unwrap();
        let mut buf = wal.new_buf();
        for page in wal.allocated_page_ids() {
            wal.read(page, &mut buf).unwrap();
            Bucket::decode(&buf).unwrap();
        }
    }
    std::fs::remove_dir_all(data_dir(&cfg)).unwrap();
}
