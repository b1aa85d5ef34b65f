//! **E10 — Throughput and tail latency under message loss** (DESIGN.md
//! §7, "Fault model & recovery guarantees").
//!
//! The paper assumes a perfectly reliable network; this experiment
//! measures what the resilience plane (client retry/failover, request
//! dedupe, acked replication) costs when that assumption is dropped.
//! Seeded fault plans drop and duplicate messages on the request/reply
//! and replication paths at increasing rates; we report client-visible
//! throughput and p50/p99 operation latency, and verify that every run
//! still converges to the exact expected state.
//!
//! ```sh
//! cargo run -p ceh-bench --release --bin exp_fault_tolerance
//! ```

use std::time::{Duration, Instant};

use ceh_bench::{md_table, quick_mode};
use ceh_dist::{Cluster, ClusterConfig, SiteStorage};
use ceh_net::{FaultPlan, LatencyModel};
use ceh_types::{HashFileConfig, Key, RetryPolicy, Value};

const FAULTABLE: &[&str] = &[
    "request",
    "user-reply",
    "find",
    "insert",
    "delete",
    "bucketdone",
    "copyupdate",
    "copy-ack",
    "garbagecollect",
    "gc-ack",
];

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn main() {
    let clients: u64 = 4;
    let ops_per_client: u64 = if quick_mode() { 250 } else { 1_500 };
    let drop_rates: &[f64] = &[0.0, 0.01, 0.05];

    println!(
        "### E10 — resilience cost vs drop probability \
         ({clients} clients × {ops_per_client} ops, 3 replicas, 3 sites, \
         duplication at drop/5)\n"
    );
    let mut rows = Vec::new();
    for &drop in drop_rates {
        let faults = (drop > 0.0).then(|| {
            FaultPlan::new(0x0E10_0000 + (drop * 1000.0) as u64)
                .drop_classes(FAULTABLE, drop)
                .duplicate_classes(FAULTABLE, drop / 5.0)
        });
        let cluster = Cluster::start(ClusterConfig {
            dir_managers: 3,
            bucket_managers: 3,
            file: HashFileConfig::tiny().with_bucket_capacity(8),
            page_quota: Some(32),
            latency: LatencyModel::none(),
            storage: SiteStorage::Volatile,
            faults,
            retry: RetryPolicy {
                attempts: 80,
                timeout_ms: 150,
                base_backoff_ms: 1,
                max_backoff_ms: 10,
            },
            resend_ms: 100,
            reply_timeout_ms: 2_000,
        })
        .unwrap();

        let t0 = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|t| {
                let client = cluster.client();
                std::thread::spawn(move || {
                    let mut lat = Vec::with_capacity(ops_per_client as usize);
                    let mut live = 0usize;
                    for i in 0..ops_per_client {
                        let k = i * clients + t; // disjoint per client
                        let op0 = Instant::now();
                        if i % 4 == 3 {
                            client.find(Key(k - 3 * clients)).unwrap();
                        } else {
                            client.insert(Key(k), Value(i)).unwrap();
                            live += 1;
                        }
                        lat.push(op0.elapsed());
                    }
                    (lat, live)
                })
            })
            .collect();
        let mut latencies = Vec::new();
        let mut expected = 0usize;
        for h in handles {
            let (lat, live) = h.join().unwrap();
            latencies.extend(lat);
            expected += live;
        }
        let wall = t0.elapsed();

        // Heal, drain, and hold the run to the correctness bar: a
        // throughput number from a diverged cluster would be meaningless.
        cluster.net().set_fault_plan(None);
        let quiesced = cluster.quiesce(Duration::from_secs(60));
        let exact = cluster.total_records().unwrap() == expected;
        let converged = cluster.replicas_converged();
        let stats = cluster.msg_stats();

        latencies.sort_unstable();
        let total_ops = clients * ops_per_client;
        rows.push(vec![
            format!("{:.0}%", drop * 100.0),
            format!("{:.0}", total_ops as f64 / wall.as_secs_f64()),
            format!("{:.2} ms", percentile(&latencies, 0.50).as_secs_f64() * 1e3),
            format!("{:.2} ms", percentile(&latencies, 0.99).as_secs_f64() * 1e3),
            stats.dropped_total().to_string(),
            stats.duplicated_total().to_string(),
            format!("{}", quiesced && converged && exact),
        ]);
        cluster.shutdown();
    }
    println!(
        "{}",
        md_table(
            &[
                "drop rate",
                "ops/s",
                "p50 latency",
                "p99 latency",
                "dropped",
                "duplicated",
                "exact+converged"
            ],
            &rows
        )
    );
    println!(
        "\nEvery row must end exact+converged=true: loss degrades latency, never correctness."
    );
}
