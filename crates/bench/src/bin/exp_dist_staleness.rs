//! **E8 — Directory staleness and recovery under asynchronous
//! replication** (DESIGN.md §6).
//!
//! Claim under test (§3): "obsolete directory information is usable" —
//! a replica that lags behind still routes every request correctly via
//! `next`-link recovery (wrongbucket forwarding), at a measurable cost.
//! This sweeps copyupdate latency and reports the stale-routing rate and
//! convergence behaviour.
//!
//! ```sh
//! cargo run -p ceh-bench --release --bin exp_dist_staleness
//! ```

use std::time::{Duration, Instant};

use ceh_bench::{md_table, quick_mode};
use ceh_dist::{Cluster, ClusterConfig};
use ceh_net::LatencyModel;
use ceh_types::{HashFileConfig, Key, Value};

fn main() {
    let keys = if quick_mode() { 300 } else { 2_000 };
    let delays_us: &[u64] = if quick_mode() {
        &[0, 1000]
    } else {
        &[0, 100, 500, 1000, 3000]
    };

    println!(
        "### E8 — stale-directory recovery vs copyupdate delay \
         (3 replicas, 2 sites, insert+read-your-write of {keys} keys)\n"
    );
    let mut rows = Vec::new();
    for &d in delays_us {
        // Replication traffic (copyupdate) lags request traffic by `d`:
        // the regime where a stale directory entry actually gets
        // dereferenced before the replica catches up.
        let latency = if d == 0 {
            LatencyModel::none()
        } else {
            LatencyModel::jittered(Duration::from_micros(10), Duration::from_micros(20), 0xE8)
                .with_class_extra("copyupdate", Duration::from_micros(d))
        };
        let c = Cluster::start(ClusterConfig {
            dir_managers: 3,
            bucket_managers: 2,
            file: HashFileConfig::tiny().with_bucket_capacity(4),
            page_quota: None,
            latency,
            ..Default::default()
        })
        .unwrap();
        let client = c.client();
        let t0 = Instant::now();
        // Insert then immediately read through the *next* replica
        // (round-robin): the fresher the split, the likelier the read
        // hits a replica that hasn't heard of it.
        for k in 0..keys as u64 {
            client.insert(Key(k), Value(k)).unwrap();
            assert_eq!(
                client.find(Key(k)).unwrap(),
                Some(Value(k)),
                "read-your-write {k}"
            );
        }
        let work = t0.elapsed();
        let t1 = Instant::now();
        let quiesced = c.quiesce(Duration::from_secs(60));
        let settle = t1.elapsed();
        let stats = c.msg_stats();
        let converged = c.replicas_converged();
        let hops = c.total_recovery_hops();
        rows.push(vec![
            format!("{d} µs"),
            hops.to_string(),
            format!("{:.4}", hops as f64 / (2 * keys) as f64),
            stats.get("wrongbucket").to_string(),
            format!("{:.0} ms", work.as_secs_f64() * 1000.0),
            format!("{:.0} ms", settle.as_secs_f64() * 1000.0),
            format!("{}", quiesced && converged),
        ]);
        c.shutdown();
    }
    println!(
        "{}",
        md_table(
            &[
                "copyupdate delay",
                "recovery hops",
                "stale routes/op",
                "cross-site fwds",
                "workload time",
                "settle time",
                "converged"
            ],
            &rows
        )
    );
    println!("\nEvery row must show converged=true: staleness never becomes incorrectness.");
}
