//! CI smoke test for the unified metrics plane.
//!
//! Runs a 10k-operation mixed workload against Solution 2, collects the
//! one [`ceh_obs::RunReport`] the run produced, and checks that
//!
//! 1. the emitted JSON validates against
//!    `schemas/run_report.schema.json` (parsed and enforced by
//!    `ceh_obs::json` — no external JSON dependency);
//! 2. the report actually carries cross-layer signal: lock grants,
//!    page I/O, and the core operation counters are all non-zero, and
//!    the core counters conserve (ops issued == ops counted);
//! 3. a second, durable run over the real file backend (small buffer
//!    cache, temp dir) emits a report that also validates, with the
//!    `storage.backend.*` and `storage.cache.*` family non-zero —
//!    fsyncs happened, the cache hit and evicted, victims were written
//!    back.
//!
//! Exits non-zero (with a diagnostic on stderr) on any failure, so
//! `scripts/ci.sh` can gate on it. Pass `--json` to print the report
//! JSON on stdout (the default prints the human table).

use std::sync::Arc;

use ceh_bench::{preload, run_report, throughput, RunConfig};
use ceh_core::{FileCore, Solution2};
use ceh_locks::LockManager;
use ceh_obs::{json, MetricsHandle};
use ceh_storage::{DiskHandle, DurableConfig, DurableStore, PageStoreConfig};
use ceh_types::{hash_key, Bucket, HashFileConfig};
use ceh_workload::OpMix;

fn fail(msg: &str) -> ! {
    eprintln!("metrics_smoke: FAIL: {msg}");
    std::process::exit(1);
}

fn validate_against_schema(report: &ceh_obs::RunReport, label: &str) {
    let schema_path = std::env::var("CEH_SCHEMA")
        .unwrap_or_else(|_| "schemas/run_report.schema.json".to_string());
    let schema_src = std::fs::read_to_string(&schema_path)
        .unwrap_or_else(|e| fail(&format!("cannot read schema {schema_path}: {e}")));
    let schema =
        json::parse(&schema_src).unwrap_or_else(|e| fail(&format!("schema does not parse: {e}")));
    let doc = json::parse(&report.to_json())
        .unwrap_or_else(|e| fail(&format!("{label} report JSON does not parse: {e}")));
    let violations = json::validate(&doc, &schema);
    if !violations.is_empty() {
        fail(&format!(
            "{label} report violates {schema_path}:\n  {}",
            violations.join("\n  ")
        ));
    }
}

/// The durable leg: a real file backend in a temp dir, a buffer cache
/// far smaller than the working set, an update-heavy run. The report
/// must validate and carry the whole storage.backend.*/storage.cache.*
/// family.
fn durable_file_backend_leg() {
    let dir = std::env::temp_dir().join(format!("ceh-metrics-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = HashFileConfig::tiny().with_bucket_capacity(8);
    let page_size = Bucket::page_size_for(8);
    let metrics = MetricsHandle::new();
    let dcfg = DurableConfig {
        page: PageStoreConfig {
            page_size,
            ..Default::default()
        },
        checkpoint_every: 64,
        cache_pages: 8, // far under the working set: force evictions
        ..Default::default()
    };
    let disk = DiskHandle::create_file(&dir, page_size)
        .unwrap_or_else(|e| fail(&format!("create file backend: {e}")));
    let wal = DurableStore::with_disk(disk, dcfg, &metrics)
        .unwrap_or_else(|e| fail(&format!("durable store: {e}")));
    let core = FileCore::with_buckets(
        cfg,
        Arc::clone(&wal),
        Arc::new(LockManager::over(wal.cache().clone())),
        hash_key,
        &metrics,
    )
    .unwrap_or_else(|e| fail(&format!("durable file: {e}")));
    let file = Arc::new(Solution2::from_core(core));
    preload(&*file, 500, 1 << 10);
    let run = RunConfig {
        threads: 2,
        ops_per_thread: 1_000,
        key_space: 1 << 10,
        mix: OpMix::UPDATE_HEAVY,
        latency_sample_every: 0,
        ..Default::default()
    };
    let result = throughput(&file, &run);
    let report = run_report("metrics_smoke_file_backend", &*file, &run, &result);
    validate_against_schema(&report, "file-backend");
    let m = &report.metrics;
    for required in [
        "storage.backend.syncs",
        "storage.backend.frame_writes",
        "storage.backend.wal_appends",
        "storage.cache.hits",
        "storage.cache.misses",
        "storage.cache.evictions",
        "storage.cache.writebacks",
    ] {
        if m.counter(required) == 0 {
            fail(&format!("expected nonzero {required} on the file backend"));
        }
    }
    if m.hist("storage.backend.sync_ns").map_or(0, |h| h.count) == 0 {
        fail("expected storage.backend.sync_ns samples on the file backend");
    }
    wal.power_off();
    drop(file);
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!(
        "metrics_smoke: file-backend leg OK ({} ops, backend + cache counters live)",
        result.ops
    );
}

fn main() {
    let emit_json = std::env::args().any(|a| a == "--json");

    let file =
        Arc::new(Solution2::new(HashFileConfig::tiny().with_bucket_capacity(8)).expect("file"));
    preload(&*file, 500, 1 << 14);
    let cfg = RunConfig {
        threads: 4,
        ops_per_thread: 2_500, // 10k ops total
        key_space: 1 << 14,
        mix: OpMix::BALANCED,
        latency_sample_every: 0,
        ..Default::default()
    };
    let result = throughput(&file, &cfg);
    let report = run_report("metrics_smoke", &*file, &cfg, &result);

    // 1. Schema validation.
    validate_against_schema(&report, "volatile");

    // 2. Cross-layer signal + conservation.
    let m = report.metrics.clone();
    let issued = 10_500u64; // 500 preload inserts + 10k measured ops
    let counted = m.counter("core.finds_hit")
        + m.counter("core.finds_miss")
        + m.counter("core.inserts")
        + m.counter("core.inserts_duplicate")
        + m.counter("core.deletes")
        + m.counter("core.deletes_miss");
    if counted != issued {
        fail(&format!("ops issued {issued} != ops counted {counted}"));
    }
    for required in ["locks.grants.rho", "storage.reads", "storage.writes"] {
        if m.counter(required) == 0 {
            fail(&format!("expected nonzero {required}"));
        }
    }

    // 3. The durable leg: real files, small cache, full counter family.
    durable_file_backend_leg();

    if emit_json {
        println!("{}", report.to_json());
    } else {
        println!("{}", report.to_table());
    }
    eprintln!("metrics_smoke: OK ({} ops, schema valid)", result.ops);
}
