//! **E13 — Storage backends: the price of real files and what the
//! buffer cache buys** (DESIGN.md §12; grows E11's durability rows).
//!
//! E11 measured the WAL's tax against a *simulated* medium — an
//! in-memory byte image whose "fsync" is free. E13 re-runs that
//! comparison on the real [`ceh_storage::FileBackend`] (frames + WAL files,
//! `fsync` on every group commit) and adds the two measurements only a
//! real medium makes meaningful:
//!
//! 1. **WAL tax by medium** — the same update-heavy workload volatile,
//!    durable-over-memory, and durable-over-files, with the backend
//!    sync-latency histogram (`storage.backend.sync_ns`) alongside;
//! 2. **Timed recovery by medium** — power cut, cold reopen, replay;
//! 3. **Cache hit ratio vs. capacity** — the CLOCK buffer cache's
//!    hit/miss/eviction/writeback counters as `cache_pages` shrinks
//!    below the working set.
//!
//! Results land in `results/exp_storage_backend.{json,md}`.
//!
//! ```sh
//! cargo run -p ceh-bench --release --bin exp_storage_backend
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use ceh_bench::{md_table, quick_mode, throughput, RunConfig};
use ceh_core::{ConcurrentHashFile, FileCore, Solution2};
use ceh_locks::{LockManager, LockManagerConfig};
use ceh_obs::MetricsHandle;
use ceh_storage::{BackendKind, DiskHandle, DurableConfig, DurableStore, PageStoreConfig};
use ceh_types::{hash_key, Bucket, HashFileConfig, Key, Value};
use ceh_workload::{KeyDist, OpMix};

const BUCKET_CAP: usize = 16;
const CHECKPOINT_EVERY: usize = 128;

/// RAII temp dir for the file-backend runs.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let p = std::env::temp_dir().join(format!("ceh-e13-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn durable_cfg(cache_pages: usize) -> DurableConfig {
    DurableConfig {
        page: PageStoreConfig {
            page_size: Bucket::page_size_for(BUCKET_CAP),
            ..Default::default()
        },
        checkpoint_every: CHECKPOINT_EVERY,
        cache_pages,
        ..Default::default()
    }
}

fn make_disk(kind: BackendKind, dir: &PathBuf) -> DiskHandle {
    match kind {
        BackendKind::Memory => DiskHandle::new(Bucket::page_size_for(BUCKET_CAP)),
        BackendKind::File => {
            DiskHandle::create_file(dir, Bucket::page_size_for(BUCKET_CAP)).expect("file backend")
        }
    }
}

struct MediumRow {
    label: String,
    ops_per_sec: f64,
    wal_syncs: u64,
    backend_syncs: u64,
    sync_p50_us: f64,
    sync_p99_us: f64,
    frame_writes: u64,
    recovery_ms: f64,
    redo_applied: usize,
}

/// One durable lifetime on the given backend: preload, update-heavy
/// run, power cut, timed cold recovery.
fn durable_lifetime(kind: BackendKind, total_ops: usize, threads: u64) -> MediumRow {
    let tmp = TempDir::new(&format!("life-{kind}"));
    let cfg = HashFileConfig::default().with_bucket_capacity(BUCKET_CAP);
    let metrics = MetricsHandle::new();
    let dcfg = durable_cfg(DurableConfig::default().cache_pages);
    let disk = make_disk(kind, &tmp.0);
    let wal = DurableStore::with_disk(disk.clone(), dcfg.clone(), &metrics).expect("store");
    let core = FileCore::with_buckets(
        cfg.clone(),
        Arc::clone(&wal),
        Arc::new(LockManager::over(wal.cache().clone())),
        hash_key,
        &metrics,
    )
    .expect("durable file");
    let file = Arc::new(Solution2::from_core(core));
    for k in 0..2_000u64 {
        file.insert(Key(k), Value(k)).expect("preload");
    }
    let r = throughput(
        &file,
        &RunConfig {
            threads,
            ops_per_thread: total_ops / threads as usize,
            key_space: 1 << 13,
            dist: KeyDist::Uniform,
            mix: OpMix::UPDATE_HEAVY,
            latency_sample_every: 0,
            seed: 0xE13,
        },
    );
    let snap = metrics.snapshot();
    wal.power_off();
    drop(file);

    // Cold reopen for the file backend: recovery must come from the
    // files, not the warm handle.
    let disk = match kind {
        BackendKind::Memory => disk,
        BackendKind::File => {
            drop(disk);
            DiskHandle::open_file(&tmp.0, Bucket::page_size_for(BUCKET_CAP)).expect("reopen")
        }
    };
    let t0 = std::time::Instant::now();
    let (_recovered, rep) = FileCore::recover_durable_metrics(
        cfg,
        &disk,
        dcfg,
        LockManagerConfig::default(),
        hash_key,
        &metrics,
    )
    .expect("recovery");
    let recovery_ms = t0.elapsed().as_secs_f64() * 1e3;

    let sync_ns = snap.hist("storage.backend.sync_ns");
    MediumRow {
        label: format!("durable/{kind}"),
        ops_per_sec: r.ops_per_sec(),
        wal_syncs: snap.counter("storage.wal.syncs"),
        backend_syncs: snap.counter("storage.backend.syncs"),
        sync_p50_us: sync_ns.map_or(0.0, |h| h.p50 as f64 / 1e3),
        sync_p99_us: sync_ns.map_or(0.0, |h| h.p99 as f64 / 1e3),
        frame_writes: snap.counter("storage.backend.frame_writes"),
        recovery_ms,
        redo_applied: rep.redo_applied,
    }
}

fn volatile_baseline(total_ops: usize, threads: u64) -> f64 {
    let cfg = HashFileConfig::default().with_bucket_capacity(BUCKET_CAP);
    let file = Arc::new(Solution2::new(cfg).expect("file"));
    for k in 0..2_000u64 {
        file.insert(Key(k), Value(k)).expect("preload");
    }
    throughput(
        &file,
        &RunConfig {
            threads,
            ops_per_thread: total_ops / threads as usize,
            key_space: 1 << 13,
            dist: KeyDist::Uniform,
            mix: OpMix::UPDATE_HEAVY,
            latency_sample_every: 0,
            seed: 0xE13,
        },
    )
    .ops_per_sec()
}

struct CacheRow {
    cache_pages: usize,
    hits: u64,
    misses: u64,
    hit_ratio: f64,
    evictions: u64,
    writebacks: u64,
    ops_per_sec: f64,
}

/// A single-threaded durable run (memory backend — cache behavior is
/// backend-independent) touching many more pages than the cache holds.
fn cache_sweep_point(cache_pages: usize, total_ops: usize) -> CacheRow {
    // Capacity 4 → many small buckets → a working set of dozens of
    // pages, so small caches genuinely thrash.
    let cfg = HashFileConfig::default().with_bucket_capacity(4);
    let metrics = MetricsHandle::new();
    let dcfg = DurableConfig {
        page: PageStoreConfig {
            page_size: Bucket::page_size_for(4),
            ..Default::default()
        },
        checkpoint_every: usize::MAX, // evictions, not checkpoints, drain it
        cache_pages,
        ..Default::default()
    };
    let wal = DurableStore::new(dcfg, &metrics);
    let core = FileCore::with_buckets(
        cfg,
        Arc::clone(&wal),
        Arc::new(LockManager::over(wal.cache().clone())),
        hash_key,
        &metrics,
    )
    .expect("durable file");
    let file = Arc::new(Solution2::from_core(core));
    for k in 0..1_000u64 {
        file.insert(Key(k), Value(k)).expect("preload");
    }
    let r = throughput(
        &file,
        &RunConfig {
            threads: 1,
            ops_per_thread: total_ops,
            key_space: 1 << 11,
            dist: KeyDist::Zipf { theta: 0.9 },
            mix: OpMix::UPDATE_HEAVY,
            latency_sample_every: 0,
            seed: 0xE13,
        },
    );
    let snap = metrics.snapshot();
    let (hits, misses) = (
        snap.counter("storage.cache.hits"),
        snap.counter("storage.cache.misses"),
    );
    wal.power_off();
    CacheRow {
        cache_pages,
        hits,
        misses,
        hit_ratio: hits as f64 / (hits + misses).max(1) as f64,
        evictions: snap.counter("storage.cache.evictions"),
        writebacks: snap.counter("storage.cache.writebacks"),
        ops_per_sec: r.ops_per_sec(),
    }
}

fn main() {
    let threads = 4u64;
    let total_ops = if quick_mode() { 2_000 } else { 20_000 };
    let mut md = String::new();
    let _ = writeln!(
        md,
        "# E13 — storage backends: real files vs. the simulated medium\n"
    );
    let _ = writeln!(
        md,
        "{threads} threads, {total_ops} update-heavy ops, bucket capacity {BUCKET_CAP}, \
         checkpoint every {CHECKPOINT_EVERY} commits.\n"
    );

    // 1. WAL tax by medium.
    let baseline = volatile_baseline(total_ops, threads);
    let rows = [
        durable_lifetime(BackendKind::Memory, total_ops, threads),
        durable_lifetime(BackendKind::File, total_ops, threads),
    ];
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                format!("{:.0}", r.ops_per_sec),
                format!("{:.0}%", 100.0 * r.ops_per_sec / baseline),
                r.wal_syncs.to_string(),
                r.backend_syncs.to_string(),
                format!("{:.1}", r.sync_p50_us),
                format!("{:.1}", r.sync_p99_us),
                r.frame_writes.to_string(),
                format!("{:.2}", r.recovery_ms),
                r.redo_applied.to_string(),
            ]
        })
        .collect();
    let _ = writeln!(md, "## WAL tax and timed recovery by medium\n");
    let _ = writeln!(
        md,
        "volatile baseline: {baseline:.0} ops/s (same workload, no WAL)\n\n{}",
        md_table(
            &[
                "medium",
                "ops/s",
                "vs volatile",
                "wal syncs",
                "fsyncs",
                "sync p50 µs",
                "sync p99 µs",
                "frame writes",
                "recovery ms",
                "redo applied",
            ],
            &table
        )
    );
    let _ = writeln!(
        md,
        "\nThe file rows pay one real `fsync` per group commit (and two per\n\
         checkpoint: frames then the truncated log); the memory rows run the\n\
         identical durability-point sequence with free syncs, which is what\n\
         makes them a *medium simulator* rather than a different protocol.\n\
         Recovery on files includes a cold reopen — page images come back\n\
         off `frames.ceh`/`wal.ceh`, not from any warm state.\n"
    );

    // 2. Cache hit ratio vs. capacity.
    let cache_ops = if quick_mode() { 2_000 } else { 10_000 };
    let cache_rows: Vec<CacheRow> = [4usize, 8, 16, 32, 64, 256]
        .iter()
        .map(|&cp| cache_sweep_point(cp, cache_ops))
        .collect();
    let cache_table: Vec<Vec<String>> = cache_rows
        .iter()
        .map(|r| {
            vec![
                r.cache_pages.to_string(),
                r.hits.to_string(),
                r.misses.to_string(),
                format!("{:.1}%", 100.0 * r.hit_ratio),
                r.evictions.to_string(),
                r.writebacks.to_string(),
                format!("{:.0}", r.ops_per_sec),
            ]
        })
        .collect();
    let _ = writeln!(
        md,
        "## Buffer cache: hit ratio vs. capacity (zipf updates, 1 thread, {cache_ops} ops)\n"
    );
    let _ = writeln!(
        md,
        "{}",
        md_table(
            &[
                "cache pages",
                "hits",
                "misses",
                "hit ratio",
                "evictions",
                "writebacks",
                "ops/s",
            ],
            &cache_table
        )
    );
    let _ = writeln!(
        md,
        "\nA hit is a commit folding into a page already dirty in the cache;\n\
         an eviction writes the victim's frame early (log-first, so the\n\
         crash story is unchanged — see DESIGN.md §12). Once the cache\n\
         covers the hot set, evictions stop and every commit costs only\n\
         its WAL append.\n"
    );

    print!("{md}");

    // Machine-readable copy.
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"experiment\": \"E13\",");
    let _ = writeln!(j, "  \"threads\": {threads},");
    let _ = writeln!(j, "  \"total_ops\": {total_ops},");
    let _ = writeln!(j, "  \"checkpoint_every\": {CHECKPOINT_EVERY},");
    let _ = writeln!(j, "  \"volatile_baseline_ops_per_sec\": {baseline:.1},");
    let _ = writeln!(j, "  \"media\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"medium\": \"{}\", \"ops_per_sec\": {:.1}, \"wal_syncs\": {}, \
             \"backend_syncs\": {}, \"sync_p50_us\": {:.2}, \"sync_p99_us\": {:.2}, \
             \"frame_writes\": {}, \"recovery_ms\": {:.3}, \"redo_applied\": {}}}{}",
            r.label,
            r.ops_per_sec,
            r.wal_syncs,
            r.backend_syncs,
            r.sync_p50_us,
            r.sync_p99_us,
            r.frame_writes,
            r.recovery_ms,
            r.redo_applied,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(j, "  \"cache_sweep\": [");
    for (i, r) in cache_rows.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"cache_pages\": {}, \"hits\": {}, \"misses\": {}, \"hit_ratio\": {:.4}, \
             \"evictions\": {}, \"writebacks\": {}, \"ops_per_sec\": {:.1}}}{}",
            r.cache_pages,
            r.hits,
            r.misses,
            r.hit_ratio,
            r.evictions,
            r.writebacks,
            r.ops_per_sec,
            if i + 1 < cache_rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(j, "  ]");
    let _ = writeln!(j, "}}");

    for (path, body) in [
        ("results/exp_storage_backend.md", &md),
        ("results/exp_storage_backend.json", &j),
    ] {
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("exp_storage_backend: could not write {path}: {e}");
        } else {
            println!("({path} written)");
        }
    }
}
