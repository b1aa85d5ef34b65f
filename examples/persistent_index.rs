//! A durable extendible hash index: file-backed pages plus recovery.
//!
//! The directory is volatile by design — buckets persist everything
//! needed to rebuild it (localdepth, commonbits, next links), so
//! "booting" the index is a single scan.
//!
//! ```sh
//! cargo run -p ceh-harness --example persistent_index
//! ```

use std::sync::Arc;

use ceh_core::{invariants, ConcurrentHashFile, FileCore, Solution2};
use ceh_locks::LockManager;
use ceh_storage::{PageStore, PageStoreConfig};
use ceh_types::bucket::Bucket;
use ceh_types::{hash_key, HashFileConfig, Key, Value};

fn main() -> ceh_types::Result<()> {
    let cfg = HashFileConfig::default().with_bucket_capacity(32);
    let store_cfg = PageStoreConfig {
        page_size: Bucket::page_size_for(cfg.bucket_capacity),
        initial_pages: 0,
        ..Default::default()
    };
    let dir = std::env::temp_dir().join(format!("ceh-example-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("index.ceh");

    // ---- Session 1: create, load, shut down. ----
    {
        let store = Arc::new(PageStore::create_file(&path, store_cfg.clone())?);
        let core = FileCore::with_parts(
            cfg.clone(),
            Arc::clone(&store),
            Arc::new(LockManager::over(store)),
            hash_key,
        )?;
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
            "session 1: inserted {} records into {} (pages on disk: {})",
            file.len(),
            path.display(),
            file.core().store().allocated_pages()
        );
    } // everything dropped — "process exit"

    // ---- Session 2: reopen, recover, verify, keep working. ----
    let store = Arc::new(PageStore::open_file(&path, store_cfg)?);
    let t0 = std::time::Instant::now();
    let core = FileCore::recover(
        cfg,
        Arc::clone(&store),
        Arc::new(LockManager::over(store)),
        hash_key,
    )?;
    let file = Solution2::from_core(core);
    println!(
        "session 2: recovered {} records, directory depth {}, in {:.1} ms",
        file.len(),
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

    std::fs::remove_dir_all(&dir).expect("cleanup");
    Ok(())
}
