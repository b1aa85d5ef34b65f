//! A durable extendible hash index: write-ahead logged files plus
//! recovery.
//!
//! Every change is logged to `wal.ceh` before it is acknowledged, and
//! checkpoints copy committed pages into `frames.ceh`. The directory is
//! volatile by design — buckets persist everything needed to rebuild it
//! (localdepth, commonbits, next links), so "booting" the index is a
//! log replay and a single scan.
//!
//! ```sh
//! cargo run -p ceh-harness --example persistent_index
//! ```

use std::sync::Arc;

use ceh_core::{invariants, ConcurrentHashFile, FileCore, Solution2};
use ceh_locks::{LockManager, LockManagerConfig};
use ceh_obs::MetricsHandle;
use ceh_storage::{DiskHandle, DurableConfig, DurableStore, PageStoreConfig};
use ceh_types::bucket::Bucket;
use ceh_types::{hash_key, HashFileConfig, Key, Value};

fn main() -> ceh_types::Result<()> {
    let cfg = HashFileConfig::default().with_bucket_capacity(32);
    let dcfg = DurableConfig {
        page: PageStoreConfig {
            page_size: Bucket::page_size_for(cfg.bucket_capacity),
            ..Default::default()
        },
        ..Default::default()
    };
    let dir = std::env::temp_dir().join(format!("ceh-example-{}", std::process::id()));

    // ---- Session 1: create, load, shut down. ----
    {
        let metrics = MetricsHandle::new();
        let disk = DiskHandle::create_file(&dir, dcfg.page.page_size)?;
        let wal = DurableStore::with_disk(disk, dcfg.clone(), &metrics)?;
        let locks = Arc::new(LockManager::over(wal.cache().clone()));
        let core = FileCore::with_buckets(cfg.clone(), wal, locks, hash_key, &metrics)?;
        let file = Arc::new(Solution2::from_core(core));
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let file = Arc::clone(&file);
                std::thread::spawn(move || {
                    for i in 0..5_000u64 {
                        file.insert(Key(t * 5_000 + i), Value(i * 3)).unwrap();
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        println!(
            "session 1: inserted {} records into {} ({} pages)",
            file.len(),
            dir.display(),
            file.core().store().allocated_pages()
        );
    } // everything dropped — "process exit"

    // ---- Session 2: reopen, recover, verify, keep working. ----
    let t0 = std::time::Instant::now();
    let (core, report) = FileCore::recover_durable_metrics(
        cfg,
        &DiskHandle::open_file(&dir, dcfg.page.page_size)?,
        dcfg,
        LockManagerConfig::default(),
        hash_key,
        &MetricsHandle::new(),
    )?;
    let file = Solution2::from_core(core);
    println!(
        "session 2: recovered {} records ({} log records replayed), directory depth {}, in {:.1} ms",
        file.len(),
        report.redo_applied,
        file.core().dir().depth(),
        t0.elapsed().as_secs_f64() * 1000.0
    );
    assert_eq!(file.len(), 20_000);
    assert_eq!(
        file.find(Key(12_345))?,
        Some(Value((12_345u64 % 5_000) * 3))
    );
    invariants::check_concurrent_file(file.core())?;
    println!("all structural invariants hold after recovery");

    // The recovered index is fully operational.
    for k in 0..1_000u64 {
        file.delete(Key(k))?;
    }
    file.insert(Key(999_999), Value(1))?;
    println!("post-recovery mutations fine: {} records", file.len());

    drop(file);
    std::fs::remove_dir_all(&dir).expect("cleanup");
    Ok(())
}
