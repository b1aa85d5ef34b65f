//! **E7 — Distributed message cost per operation** (DESIGN.md §6).
//!
//! §3's second design goal is "to minimize message traffic. Whenever
//! possible, the information needed for decision-making should be
//! available locally." This experiment counts messages by Figure-11
//! class per completed operation, sweeping the directory replication
//! factor — the cost of the availability the replication buys.
//!
//! ```sh
//! cargo run -p ceh-bench --release --bin exp_dist_messages
//! ```

use std::time::Duration;

use ceh_bench::{md_table, quick_mode};
use ceh_dist::{Cluster, ClusterConfig};
use ceh_net::LatencyModel;
use ceh_types::{HashFileConfig, Key, Value};
use ceh_workload::{KeyDist, Op, OpMix, WorkloadGen};

fn main() {
    let ops = if quick_mode() { 600 } else { 6_000 };
    let replicas: &[usize] = if quick_mode() { &[1, 3] } else { &[1, 2, 3, 5] };

    println!(
        "### E7 — messages per operation vs directory replication (2 bucket sites, mix 50/25/25)\n"
    );
    let mut rows = Vec::new();
    for &r in replicas {
        let c = Cluster::start(ClusterConfig {
            dir_managers: r,
            bucket_managers: 2,
            file: HashFileConfig::tiny().with_bucket_capacity(8),
            page_quota: None,
            latency: LatencyModel::none(),
            ..Default::default()
        })
        .unwrap();
        let client = c.client();
        // Preload.
        for k in 0..500u64 {
            client.insert(Key(k), Value(k)).unwrap();
        }
        assert!(c.quiesce(Duration::from_secs(30)));
        c.net().reset_stats();

        let mut gen = WorkloadGen::new(0xE7, KeyDist::Uniform, 2000, OpMix::BALANCED);
        for op in gen.batch(ops) {
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
        assert!(c.quiesce(Duration::from_secs(30)));
        let stats = c.msg_stats();
        let per_op = |class: &str| format!("{:.3}", stats.get(class) as f64 / ops as f64);
        rows.push(vec![
            r.to_string(),
            format!("{:.2}", stats.total() as f64 / ops as f64),
            per_op("request"),
            per_op("find"),
            per_op("insert"),
            per_op("delete"),
            per_op("bucketdone"),
            per_op("update"),
            per_op("copyupdate"),
            per_op("copy-ack"),
            per_op("wrongbucket"),
            per_op("garbagecollect"),
        ]);
        c.shutdown();
    }
    println!(
        "{}",
        md_table(
            &[
                "replicas",
                "total/op",
                "request",
                "find",
                "insert",
                "delete",
                "bucketdone",
                "update",
                "copyupdate",
                "copy-ack",
                "wrongbucket",
                "gc"
            ],
            &rows
        )
    );
    println!("(status probes excluded from totals only in spirit; they are O(1) per run)");
}
