//! **E9 — What distribution buys: capacity growth and its overhead**
//! (DESIGN.md §6).
//!
//! §3 motivates distribution by "increased availability and ease of
//! growth" — NOT by single-request speed: with any replication factor a
//! request costs the same round trips, so end-to-end throughput under a
//! fixed client population is bounded by client round-trip time and is
//! expected to stay roughly flat (or dip slightly as copyupdate overhead
//! rises). What *does* scale is where the data can live. This experiment
//! reports, per cluster shape: throughput (≈flat — the honest result),
//! storage spread across sites (the growth claim), messages per
//! operation (the replication overhead), and cross-site protocol traffic.
//!
//! ```sh
//! cargo run -p ceh-bench --release --bin exp_dist_scaling
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use ceh_bench::{md_table, quick_mode};
use ceh_dist::{Cluster, ClusterConfig};
use ceh_net::LatencyModel;
use ceh_types::{HashFileConfig, Value};
use ceh_workload::{KeyDist, Op, OpMix, WorkloadGen};

const CLIENTS: u64 = 8;

struct Shape {
    dirs: usize,
    sites: usize,
    ops_per_sec: f64,
    pages: Vec<usize>,
    msgs_per_op: f64,
    cross_site: u64,
}

fn run(dirs: usize, sites: usize, ops_per_client: usize) -> Shape {
    let c = Arc::new(
        Cluster::start(ClusterConfig {
            dir_managers: dirs,
            bucket_managers: sites,
            file: HashFileConfig::default().with_bucket_capacity(16),
            page_quota: Some(64), // spread buckets across sites as the file grows
            latency: LatencyModel::fixed(Duration::from_micros(150)),
            ..Default::default()
        })
        .unwrap(),
    );
    // Preload through one client.
    {
        let client = c.client();
        for key in ceh_workload::prefill_keys(2_000, 1 << 16) {
            client.insert(key, Value(key.0)).unwrap();
        }
    }
    assert!(c.quiesce(Duration::from_secs(60)));
    c.net().reset_stats();

    let start = Instant::now();
    let workers: Vec<_> = (0..CLIENTS)
        .map(|t| {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                let client = c.client();
                let mut gen =
                    WorkloadGen::new(0xE9 + t, KeyDist::Uniform, 1 << 16, OpMix::BALANCED);
                for op in gen.batch(ops_per_client) {
                    match op {
                        Op::Find(k) => {
                            client.find(k).unwrap();
                        }
                        Op::Insert(k, v) => {
                            client.insert(k, v).unwrap();
                        }
                        Op::Delete(k) => {
                            client.delete(k).unwrap();
                        }
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let total_ops = CLIENTS as usize * ops_per_client;
    let ops_per_sec = total_ops as f64 / start.elapsed().as_secs_f64();
    assert!(c.quiesce(Duration::from_secs(60)));
    let stats = c.msg_stats();
    let cross_site = stats.get("wrongbucket")
        + stats.get("splitbucket")
        + stats.get("mergedown")
        + stats.get("mergeup");
    let shape = Shape {
        dirs,
        sites,
        ops_per_sec,
        pages: c.pages_per_site(),
        msgs_per_op: stats.total() as f64 / total_ops as f64,
        cross_site,
    };
    match Arc::try_unwrap(c) {
        Ok(c) => c.shutdown(),
        Err(_) => unreachable!(),
    }
    shape
}

fn main() {
    let ops = if quick_mode() { 150 } else { 1_000 };
    let shapes: &[(usize, usize)] = if quick_mode() {
        &[(1, 1), (2, 2)]
    } else {
        &[(1, 1), (1, 2), (1, 4), (2, 2), (3, 3), (4, 4)]
    };

    println!(
        "### E9 — capacity growth vs overhead \
         ({CLIENTS} clients, mix 50/25/25, 150 µs message latency, page quota 64/site)\n"
    );
    let mut rows = Vec::new();
    let mut baseline = None;
    for &(dirs, sites) in shapes {
        let s = run(dirs, sites, ops);
        let base = *baseline.get_or_insert(s.ops_per_sec);
        rows.push(vec![
            s.dirs.to_string(),
            s.sites.to_string(),
            format!("{:.0}", s.ops_per_sec),
            format!("{:.2}x", s.ops_per_sec / base),
            format!("{:?}", s.pages),
            format!("{:.2}", s.msgs_per_op),
            s.cross_site.to_string(),
        ]);
    }
    println!(
        "{}",
        md_table(
            &[
                "dir replicas",
                "bucket sites",
                "ops/s",
                "vs 1x1",
                "pages/site",
                "msgs/op",
                "cross-site msgs"
            ],
            &rows
        )
    );
    println!(
        "\nThroughput is client-round-trip bound by design (§3 promises growth and \
         availability, not per-request speed); the pages/site column is the growth claim."
    );
}
