//! The distributed extendible hash file as a small replicated KV store:
//! three directory replicas, three bucket-manager sites, concurrent
//! clients, and a look at the message traffic and replica convergence.
//!
//! ```sh
//! cargo run -p ceh-harness --example distributed_kv
//! ```

use std::sync::Arc;
use std::time::Duration;

use ceh_dist::{Cluster, ClusterConfig};
use ceh_net::LatencyModel;
use ceh_types::{HashFileConfig, Key, Value};

fn main() -> ceh_types::Result<()> {
    let cluster = Arc::new(Cluster::start(ClusterConfig {
        dir_managers: 3,
        bucket_managers: 3,
        file: HashFileConfig::tiny().with_bucket_capacity(8),
        page_quota: Some(24), // force some splits to land on other sites
        latency: LatencyModel::jittered(Duration::from_micros(20), Duration::from_micros(200), 42),
        ..Default::default()
    })?);

    println!("cluster: 3 directory replicas, 3 bucket sites, jittered network\n");

    // Concurrent clients, each talking to the replicas round-robin.
    let workers: Vec<_> = (0..4u64)
        .map(|t| {
            let cluster = Arc::clone(&cluster);
            std::thread::spawn(move || {
                let client = cluster.client();
                for i in 0..500u64 {
                    let k = t * 1000 + i;
                    client.insert(Key(k), Value(k * 10)).unwrap();
                }
                // Read everything back through (possibly stale) replicas.
                for i in 0..500u64 {
                    let k = t * 1000 + i;
                    assert_eq!(client.find(Key(k)).unwrap(), Some(Value(k * 10)));
                }
                // Churn: delete half.
                for i in (0..500u64).step_by(2) {
                    client.delete(Key(t * 1000 + i)).unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    println!("4 clients x (500 inserts + 500 finds + 250 deletes) complete");
    assert!(
        cluster.quiesce(Duration::from_secs(30)),
        "cluster must go idle"
    );
    println!("cluster quiescent: no in-flight requests, no unacked copyupdates");

    assert!(cluster.replicas_converged());
    println!("all 3 directory replicas converged to identical contents");

    println!("\nlive records: {}", cluster.total_records()?);
    println!(
        "tombstones remaining after GC: {}",
        cluster.tombstone_count()?
    );
    println!("pages per site: {:?}", cluster.pages_per_site());

    println!("\nmessage traffic by class (Figure 11 taxonomy):");
    for (class, count) in cluster.msg_stats().sorted() {
        println!("  {class:<18} {count:>8}");
    }

    match Arc::try_unwrap(cluster) {
        Ok(c) => c.shutdown(),
        Err(_) => unreachable!("all workers joined"),
    }
    println!("\nshutdown clean");
    Ok(())
}
