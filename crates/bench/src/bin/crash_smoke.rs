//! CI smoke test for the durability layer and its crash-recovery path.
//!
//! Three gates, all seeded and bounded to finish in a few seconds:
//!
//! 1. **Systematic crash-point sweep** — the `ceh-check` recovery
//!    fuzzer runs its seeded mixed workload (inserts, deletes, finds;
//!    capacity 3 so splits and merges happen) once per reachable
//!    durability point, cutting power there with a seeded torn tail,
//!    recovering, and holding the result to the durability oracle:
//!    structural invariants, every acked op survives, the in-flight op
//!    is atomic. Zero violations required; any failure prints its
//!    minimized fixture.
//!    The sweep then runs a second time over the real file backend
//!    (frames + WAL files in a temp dir) — same durability points, now
//!    with genuine `fsync` ordering under test.
//! 2. **Distributed crash round** — a small durable cluster takes acked
//!    inserts, one site loses power, restarts from its durable image
//!    alone, and every acked key must still be served with cluster
//!    invariants intact.
//! 3. **WAL metrics through the report plane** — a durable workload is
//!    run and recovered on one [`ceh_obs::MetricsHandle`]; the emitted
//!    [`ceh_obs::RunReport`] must validate against
//!    `schemas/run_report.schema.json` and carry non-zero
//!    `storage.wal.*` / `storage.recovery.*` counters.
//!
//! Exits non-zero with a diagnostic on stderr on any failure, so
//! `scripts/ci.sh` can gate on it. Pass `--json` to print the report
//! JSON on stdout.

use std::sync::Arc;

use ceh_check::{dist_crash_round, run_sweep, CrashConfig};
use ceh_core::{ConcurrentHashFile, FileCore, Solution2};
use ceh_locks::{LockManager, LockManagerConfig};
use ceh_obs::{json, MetricsHandle, RunReport};
use ceh_storage::{DurableConfig, DurableStore, PageStoreConfig};
use ceh_types::{hash_key, Bucket, HashFileConfig, Key, Value};

fn fail(msg: &str) -> ! {
    eprintln!("crash_smoke: FAIL: {msg}");
    std::process::exit(1);
}

/// Gate 3: one durable lifetime — build, mutate past several
/// checkpoints, power off, recover — all on one metrics handle.
fn wal_metrics_report(emit_json: bool) {
    let cfg = HashFileConfig::tiny().with_bucket_capacity(4);
    let metrics = MetricsHandle::new();
    let dcfg = DurableConfig {
        page: PageStoreConfig {
            page_size: Bucket::page_size_for(cfg.bucket_capacity),
            ..Default::default()
        },
        checkpoint_every: 16,
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
    .unwrap_or_else(|e| fail(&format!("durable file: {e}")));
    let file = Solution2::from_core(core);
    for k in 0..256u64 {
        file.insert(Key(k), Value(k + 1))
            .unwrap_or_else(|e| fail(&format!("insert {k}: {e}")));
        if k % 3 == 0 {
            file.delete(Key(k / 2))
                .unwrap_or_else(|e| fail(&format!("delete {}: {e}", k / 2)));
        }
    }
    wal.power_off();
    drop(file);
    let (_recovered, rep) = FileCore::recover_durable_metrics(
        cfg,
        &disk,
        dcfg,
        LockManagerConfig::default(),
        hash_key,
        &metrics,
    )
    .unwrap_or_else(|e| fail(&format!("recovery: {e}")));

    let report = RunReport::collect("crash_smoke", &metrics)
        .with_meta("workload", "256 inserts + interleaved deletes, durable")
        .with_meta("checkpoint_every", 16)
        .with_meta("recovery_wal_records", rep.wal_records)
        .with_meta("recovery_redo_applied", rep.redo_applied);

    // Schema validation, exactly as metrics_smoke does it.
    let schema_path = std::env::var("CEH_SCHEMA")
        .unwrap_or_else(|_| "schemas/run_report.schema.json".to_string());
    let schema_src = std::fs::read_to_string(&schema_path)
        .unwrap_or_else(|e| fail(&format!("cannot read schema {schema_path}: {e}")));
    let schema =
        json::parse(&schema_src).unwrap_or_else(|e| fail(&format!("schema does not parse: {e}")));
    let doc = json::parse(&report.to_json())
        .unwrap_or_else(|e| fail(&format!("report JSON does not parse: {e}")));
    let violations = json::validate(&doc, &schema);
    if !violations.is_empty() {
        fail(&format!(
            "report violates {schema_path}:\n  {}",
            violations.join("\n  ")
        ));
    }

    // The report must actually carry the durability plane's signal.
    let snap = report.metrics.clone();
    for name in [
        "storage.wal.records",
        "storage.wal.commits",
        "storage.wal.syncs",
        "storage.wal.checkpoints",
        "storage.wal.frames_flushed",
        "storage.recovery.runs",
    ] {
        if snap.counter(name) == 0 {
            fail(&format!("counter {name} is zero — the WAL plane is dark"));
        }
    }

    if emit_json {
        println!("{}", report.to_json());
    }
    println!(
        "crash_smoke: report valid: {} wal records, {} checkpoints, {} redo applied on recovery",
        snap.counter("storage.wal.records"),
        snap.counter("storage.wal.checkpoints"),
        snap.counter("storage.recovery.redo_applied"),
    );
}

fn main() {
    let emit_json = std::env::args().any(|a| a == "--json");
    let quick = std::env::var("CEH_QUICK").is_ok();

    // Gate 1: the systematic sweep. CEH_QUICK trims the workload (and
    // with it the number of durability points) for pre-merge runs.
    let cfg = CrashConfig {
        ops: if quick { 48 } else { 96 },
        ..Default::default()
    };
    let report = run_sweep(&cfg).unwrap_or_else(|e| fail(&e));
    let clean = report.outcomes.iter().filter(|o| o.verdict.is_ok()).count();
    if !report.ok() {
        for o in report.outcomes.iter().filter(|o| o.verdict.is_err()) {
            eprintln!(
                "crash_smoke: point {}/{}: {}",
                o.point,
                report.points,
                o.verdict.as_ref().unwrap_err()
            );
        }
        for f in &report.failures {
            eprintln!("--- minimized fixture ---\n{}---", f.serialize());
        }
        fail(&format!(
            "{}/{} crash points violated the durability oracle",
            report.points as usize - clean,
            report.points
        ));
    }
    println!(
        "crash_smoke: sweep clean: {clean}/{} durability points recovered (seed {}, {} ops)",
        report.points, cfg.seed, cfg.ops
    );

    // Gate 1b: the same sweep over real files. The durability-point
    // sequence is backend-independent, so the identical points are cut
    // — but every tear, write, and recovery now goes through
    // frames.ceh/wal.ceh in a temp dir, and the fsync-ordering oracle
    // (nothing acked before its sync may be lost) must hold there too.
    let file_cfg = CrashConfig {
        ops: if quick { 24 } else { 48 },
        backend: ceh_storage::BackendKind::File,
        ..Default::default()
    };
    let file_report = run_sweep(&file_cfg).unwrap_or_else(|e| fail(&e));
    if !file_report.ok() {
        for o in file_report.outcomes.iter().filter(|o| o.verdict.is_err()) {
            eprintln!(
                "crash_smoke: file backend point {}/{}: {}",
                o.point,
                file_report.points,
                o.verdict.as_ref().unwrap_err()
            );
        }
        fail("file-backend crash sweep violated the durability oracle");
    }
    println!(
        "crash_smoke: file-backend sweep clean: {}/{} durability points recovered ({} ops)",
        file_report
            .outcomes
            .iter()
            .filter(|o| o.verdict.is_ok())
            .count(),
        file_report.points,
        file_cfg.ops
    );

    // Gate 2: the distributed round.
    dist_crash_round(cfg.seed, 24).unwrap_or_else(|e| fail(&format!("dist round: {e}")));
    println!("crash_smoke: dist crash_site/restart_site round clean");

    // Gate 3: the metrics plane.
    wal_metrics_report(emit_json);
    println!("crash_smoke: PASS");
}
