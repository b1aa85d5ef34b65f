//! End-to-end tests for the distributed extendible hash file.

use std::sync::Arc;
use std::time::Duration;

use ceh_dist::{Cluster, ClusterConfig};
use ceh_net::LatencyModel;
use ceh_types::{DeleteOutcome, HashFileConfig, InsertOutcome, Key, Value};

fn small_cluster(dirs: usize, buckets: usize) -> Cluster {
    Cluster::start(ClusterConfig {
        dir_managers: dirs,
        bucket_managers: buckets,
        file: HashFileConfig::tiny(),
        page_quota: None,
        latency: LatencyModel::none(),
        ..Default::default()
    })
    .unwrap()
}

#[test]
fn single_manager_crud() {
    let c = small_cluster(1, 1);
    let client = c.client();
    assert_eq!(
        client.insert(Key(1), Value(10)).unwrap(),
        InsertOutcome::Inserted
    );
    assert_eq!(
        client.insert(Key(1), Value(20)).unwrap(),
        InsertOutcome::AlreadyPresent
    );
    assert_eq!(client.find(Key(1)).unwrap(), Some(Value(10)));
    assert_eq!(client.find(Key(2)).unwrap(), None);
    assert_eq!(client.delete(Key(1)).unwrap(), DeleteOutcome::Deleted);
    assert_eq!(client.delete(Key(1)).unwrap(), DeleteOutcome::NotFound);
    assert!(c.quiesce(Duration::from_secs(10)));
    c.shutdown();
}

#[test]
fn grows_and_shrinks_through_the_cluster() {
    let c = small_cluster(2, 2);
    let client = c.client();
    for k in 0..200u64 {
        assert_eq!(
            client.insert(Key(k), Value(k * 3)).unwrap(),
            InsertOutcome::Inserted,
            "insert {k}"
        );
    }
    for k in 0..200u64 {
        assert_eq!(client.find(Key(k)).unwrap(), Some(Value(k * 3)), "find {k}");
    }
    assert!(c.quiesce(Duration::from_secs(20)), "cluster must go idle");
    assert!(c.replicas_converged(), "replicas must agree at quiescence");
    assert_eq!(c.total_records().unwrap(), 200);

    for k in 0..200u64 {
        assert_eq!(
            client.delete(Key(k)).unwrap(),
            DeleteOutcome::Deleted,
            "delete {k}"
        );
    }
    assert!(c.quiesce(Duration::from_secs(20)));
    assert!(c.replicas_converged());
    c.check_invariants().unwrap();
    assert_eq!(c.total_records().unwrap(), 0);
    assert_eq!(
        c.tombstone_count().unwrap(),
        0,
        "garbage collection must drain tombstones"
    );
    c.shutdown();
}

#[test]
fn page_quota_forces_cross_site_splits() {
    let c = Cluster::start(ClusterConfig {
        dir_managers: 1,
        bucket_managers: 3,
        file: HashFileConfig::tiny(),
        page_quota: Some(8),
        latency: LatencyModel::none(),
        ..Default::default()
    })
    .unwrap();
    let client = c.client();
    for k in 0..300u64 {
        client.insert(Key(k), Value(k)).unwrap();
    }
    assert!(c.quiesce(Duration::from_secs(20)));
    let pages = c.pages_per_site();
    assert!(
        pages.iter().filter(|&&p| p > 0).count() >= 2,
        "quota must spread buckets across sites: {pages:?}"
    );
    assert!(
        c.msg_stats().get("splitbucket") > 0,
        "remote splits must have happened"
    );
    for k in 0..300u64 {
        assert_eq!(client.find(Key(k)).unwrap(), Some(Value(k)), "find {k}");
    }
    c.shutdown();
}

#[test]
fn cross_site_merges_happen() {
    // Spread buckets across sites, then delete everything: partner pairs
    // that straddle sites exercise Mergedown / Mergeup / Goahead.
    let c = Cluster::start(ClusterConfig {
        dir_managers: 2,
        bucket_managers: 3,
        file: HashFileConfig::tiny(),
        page_quota: Some(4),
        latency: LatencyModel::none(),
        ..Default::default()
    })
    .unwrap();
    let client = c.client();
    for k in 0..200u64 {
        client.insert(Key(k), Value(k)).unwrap();
    }
    assert!(c.quiesce(Duration::from_secs(20)));
    for k in 0..200u64 {
        assert_eq!(
            client.delete(Key(k)).unwrap(),
            DeleteOutcome::Deleted,
            "delete {k}"
        );
    }
    assert!(c.quiesce(Duration::from_secs(30)));
    let stats = c.msg_stats();
    assert!(
        stats.get("mergedown") + stats.get("mergeup") > 0,
        "cross-site merges must have been exercised: {:?}",
        stats.sorted()
    );
    assert_eq!(c.total_records().unwrap(), 0);
    assert_eq!(c.tombstone_count().unwrap(), 0);
    assert!(c.replicas_converged());
    c.check_invariants().unwrap();
    c.shutdown();
}

#[test]
fn concurrent_clients_with_replicated_directory() {
    let c = Arc::new(small_cluster(3, 3));
    let threads: Vec<_> = (0..6u64)
        .map(|t| {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                let client = c.client();
                let mut model = std::collections::HashMap::new();
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::StdRng::seed_from_u64(t);
                for i in 0..250u64 {
                    let k = rng.random_range(0..40u64) * 6 + t; // disjoint per thread
                    match rng.random_range(0..3) {
                        0 => {
                            let out = client.insert(Key(k), Value(i)).unwrap();
                            assert_eq!(out == InsertOutcome::Inserted, !model.contains_key(&k));
                            model.entry(k).or_insert(i);
                        }
                        1 => {
                            let out = client.delete(Key(k)).unwrap();
                            assert_eq!(out == DeleteOutcome::Deleted, model.remove(&k).is_some());
                        }
                        _ => {
                            let got = client.find(Key(k)).unwrap().map(|v| v.0);
                            assert_eq!(got, model.get(&k).copied(), "thread {t} find {k}");
                        }
                    }
                }
                model.len()
            })
        })
        .collect();
    let total: usize = threads.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(c.quiesce(Duration::from_secs(30)));
    assert!(c.replicas_converged());
    c.check_invariants().unwrap();
    assert_eq!(c.total_records().unwrap(), total);
    assert_eq!(c.tombstone_count().unwrap(), 0);
    match Arc::try_unwrap(c) {
        Ok(c) => c.shutdown(),
        Err(_) => panic!("client threads must have exited"),
    }
}

#[test]
fn jittered_network_reorders_but_stays_correct() {
    // Jitter reorders copyupdates between replicas — the version parking
    // machinery must still converge (the paper's §3 ordering example).
    let c = Cluster::start(ClusterConfig {
        dir_managers: 3,
        bucket_managers: 2,
        file: HashFileConfig::tiny(),
        page_quota: None,
        latency: LatencyModel::jittered(Duration::from_micros(10), Duration::from_micros(500), 7),
        ..Default::default()
    })
    .unwrap();
    let client = c.client();
    for k in 0..120u64 {
        client.insert(Key(k), Value(k)).unwrap();
    }
    for k in 0..60u64 {
        client.delete(Key(k)).unwrap();
    }
    assert!(c.quiesce(Duration::from_secs(30)));
    assert!(c.replicas_converged(), "jitter must not break convergence");
    assert_eq!(c.total_records().unwrap(), 60);
    for k in 60..120u64 {
        assert_eq!(client.find(Key(k)).unwrap(), Some(Value(k)));
    }
    c.shutdown();
}

#[test]
fn requests_via_any_replica_reach_the_data() {
    // Round-robin across 3 directory managers: stale replicas must still
    // route via next-link recovery (wrongbucket forwarding).
    let c = small_cluster(3, 2);
    let client = c.client();
    for k in 0..150u64 {
        client.insert(Key(k), Value(k + 7)).unwrap();
        // Immediately read back through the *next* replica, which may
        // not have heard about a split yet.
        assert_eq!(
            client.find(Key(k)).unwrap(),
            Some(Value(k + 7)),
            "read-your-write {k}"
        );
    }
    c.shutdown();
}
