//! **E4 — Wrong-bucket recovery frequency and cost** and
//! **E11 — Durability: WAL overhead and crash-recovery cost**
//! (DESIGN.md §6, §10).
//!
//! E4's claim under test: the `next`-link recovery path (the structural
//! price of letting readers run under updaters) is taken rarely and the
//! chains chased are short — most recoveries are one hop to the freshly
//! split partner.
//!
//! E11's claims: (a) the redo WAL's steady-state tax on an update-heavy
//! workload is modest and governed by the checkpoint interval (longer
//! interval → fewer frame flushes but a longer log to replay); (b)
//! crash recovery replays exactly the post-checkpoint suffix, so its
//! cost scales with the interval, not the file size; (c) the seeded
//! crash-point sweep (the `ceh-check` recovery fuzzer) finds zero
//! durability-oracle violations. The E11 rows are also written as
//! machine-readable JSON to `results/exp_durability.json`.
//!
//! ```sh
//! cargo run -p ceh-bench --release --bin exp_recovery
//! ```

use std::fmt::Write as _;
use std::sync::Arc;

use ceh_bench::{md_table, preload, quick_mode, throughput, RunConfig};
use ceh_core::{ConcurrentHashFile, FileCore, Solution2};
use ceh_locks::{LockManager, LockManagerConfig};
use ceh_obs::MetricsHandle;
use ceh_storage::{DurableConfig, DurableStore, PageStoreConfig};
use ceh_types::{hash_key, Bucket, HashFileConfig, Key, Value};
use ceh_workload::{KeyDist, OpMix};

/// One E11 measurement row: a durable lifetime at one checkpoint
/// interval — workload, power cut, recovery.
struct DurabilityRow {
    checkpoint_every: usize,
    ops_per_sec: f64,
    wal_syncs: u64,
    wal_bytes: u64,
    checkpoints: u64,
    recovery_ms: f64,
    wal_records_replayed: usize,
    redo_applied: usize,
}

fn durable_lifetime(checkpoint_every: usize, total_ops: usize, threads: u64) -> DurabilityRow {
    let cfg = HashFileConfig::default().with_bucket_capacity(16);
    let metrics = MetricsHandle::new();
    let dcfg = DurableConfig {
        page: PageStoreConfig {
            page_size: Bucket::page_size_for(cfg.bucket_capacity),
            ..Default::default()
        },
        checkpoint_every,
        ..Default::default()
    };
    let wal = DurableStore::new(dcfg.clone(), &metrics);
    let disk = wal.disk();
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
            seed: 0xE11,
        },
    );
    let snap = metrics.snapshot();
    wal.power_off();
    drop(file);
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
    DurabilityRow {
        checkpoint_every,
        ops_per_sec: r.ops_per_sec(),
        wal_syncs: snap.counter("storage.wal.syncs"),
        wal_bytes: snap.counter("storage.wal.sync_bytes"),
        checkpoints: snap.counter("storage.wal.checkpoints"),
        recovery_ms,
        wal_records_replayed: rep.wal_records,
        redo_applied: rep.redo_applied,
    }
}

/// The volatile baseline for the same workload (what durability costs).
fn volatile_baseline(total_ops: usize, threads: u64) -> f64 {
    let cfg = HashFileConfig::default().with_bucket_capacity(16);
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
            seed: 0xE11,
        },
    )
    .ops_per_sec()
}

fn experiment_e11() {
    let threads = 4u64;
    let total_ops = if quick_mode() { 2_000 } else { 20_000 };
    println!("\n### E11 — durability: WAL overhead and crash-recovery cost ({threads} threads, {total_ops} update-heavy ops)\n");

    let baseline = volatile_baseline(total_ops, threads);
    let rows: Vec<DurabilityRow> = [8usize, 32, 128, 512]
        .iter()
        .map(|&ck| durable_lifetime(ck, total_ops, threads))
        .collect();

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.checkpoint_every.to_string(),
                format!("{:.0}", r.ops_per_sec),
                format!("{:.0}%", 100.0 * r.ops_per_sec / baseline),
                r.wal_syncs.to_string(),
                (r.wal_bytes / 1024).to_string(),
                r.checkpoints.to_string(),
                format!("{:.2}", r.recovery_ms),
                r.wal_records_replayed.to_string(),
                r.redo_applied.to_string(),
            ]
        })
        .collect();
    println!(
        "volatile baseline: {baseline:.0} ops/s (same workload, no WAL)\n\n{}",
        md_table(
            &[
                "ckpt every",
                "ops/s",
                "vs volatile",
                "wal syncs",
                "wal KiB",
                "ckpts",
                "recovery ms",
                "records replayed",
                "redo applied",
            ],
            &table
        )
    );

    // The sweep: the durability claim is only as good as its oracle.
    let sweep_cfg = ceh_check::CrashConfig {
        ops: if quick_mode() { 32 } else { 96 },
        ..Default::default()
    };
    let sweep = ceh_check::run_sweep(&sweep_cfg).expect("sweep");
    let clean = sweep.outcomes.iter().filter(|o| o.verdict.is_ok()).count();
    println!(
        "crash-point sweep: {clean}/{} durability points recovered clean (seed {}, {} ops){}",
        sweep.points,
        sweep_cfg.seed,
        sweep_cfg.ops,
        if sweep.ok() { "" } else { "  ** VIOLATIONS **" }
    );

    // Machine-readable copy for results/.
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"experiment\": \"E11\",");
    let _ = writeln!(j, "  \"threads\": {threads},");
    let _ = writeln!(j, "  \"total_ops\": {total_ops},");
    let _ = writeln!(j, "  \"volatile_baseline_ops_per_sec\": {baseline:.1},");
    let _ = writeln!(j, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            j,
            "    {{\"checkpoint_every\": {}, \"ops_per_sec\": {:.1}, \"wal_syncs\": {}, \
             \"wal_bytes\": {}, \"checkpoints\": {}, \"recovery_ms\": {:.3}, \
             \"wal_records_replayed\": {}, \"redo_applied\": {}}}{}",
            r.checkpoint_every,
            r.ops_per_sec,
            r.wal_syncs,
            r.wal_bytes,
            r.checkpoints,
            r.recovery_ms,
            r.wal_records_replayed,
            r.redo_applied,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = writeln!(j, "  ],");
    let _ = writeln!(
        j,
        "  \"crash_sweep\": {{\"seed\": {}, \"ops\": {}, \"points\": {}, \"clean\": {clean}, \"ok\": {}}}",
        sweep_cfg.seed,
        sweep_cfg.ops,
        sweep.points,
        sweep.ok()
    );
    let _ = writeln!(j, "}}");
    if let Err(e) = std::fs::write("results/exp_durability.json", &j) {
        eprintln!("exp_recovery: could not write results/exp_durability.json: {e}");
    } else {
        println!("\n(JSON copy written to results/exp_durability.json)");
    }
}

fn main() {
    let threads = 8;
    let total_ops = if quick_mode() { 1_600 } else { 16_000 };

    println!("### E4 — wrong-bucket recoveries (Solution 2, {threads} threads, {total_ops} ops)\n");
    let mut rows = Vec::new();
    for (label, mix) in OpMix::STANDARD_SWEEP {
        // Small buckets → frequent splits → maximal recovery pressure.
        for cap in [4usize, 64] {
            let cfg = HashFileConfig::default()
                .with_bucket_capacity(cap)
                .with_io_latency_ns(ceh_bench::SIM_IO_LATENCY_NS);
            let file = Arc::new(Solution2::new(cfg).unwrap());
            preload(&*file, 30_000, 1 << 16);
            file.set_io_latency_ns(ceh_bench::SIM_IO_LATENCY_NS);
            file.core().stats().reset();
            let r = throughput(
                &file,
                &RunConfig {
                    threads,
                    ops_per_thread: total_ops / threads as usize,
                    key_space: 1 << 16,
                    dist: KeyDist::Uniform,
                    mix,
                    latency_sample_every: 0,
                    seed: 0xE4,
                },
            );
            let s = file.core().stats().snapshot();
            rows.push(vec![
                label.to_string(),
                cap.to_string(),
                format!("{:.0}", r.ops_per_sec()),
                s.wrong_bucket_recoveries.to_string(),
                format!(
                    "{:.4}%",
                    100.0 * s.wrong_bucket_recoveries as f64 / s.total_ops() as f64
                ),
                format!("{:.2}", s.mean_recovery_hops()),
                s.splits.to_string(),
                s.merges.to_string(),
            ]);
        }
    }
    println!(
        "{}",
        md_table(
            &[
                "mix",
                "bucket cap",
                "ops/s",
                "recoveries",
                "recovery rate",
                "mean hops",
                "splits",
                "merges"
            ],
            &rows
        )
    );

    experiment_e11();
}
