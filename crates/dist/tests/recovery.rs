//! Cluster durability: WAL'd file sites and whole-cluster recovery.

use std::path::PathBuf;
use std::time::Duration;

use ceh_dist::{Cluster, ClusterConfig, SiteStorage};
use ceh_net::LatencyModel;
use ceh_types::{DeleteOutcome, HashFileConfig, InsertOutcome, Key, Value};

fn durable_cfg(tag: &str, dirs: usize, sites: usize) -> ClusterConfig {
    let data_dir = std::env::temp_dir().join(format!("ceh-cluster-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    ClusterConfig {
        dir_managers: dirs,
        bucket_managers: sites,
        file: HashFileConfig::tiny().with_bucket_capacity(4),
        page_quota: Some(16),
        latency: LatencyModel::none(),
        storage: SiteStorage::WalFiles(data_dir),
        ..Default::default()
    }
}

/// The directory a file-site config keeps its sites under.
fn data_dir(cfg: &ClusterConfig) -> PathBuf {
    match &cfg.storage {
        SiteStorage::WalFiles(dir) => dir.clone(),
        other => panic!("not a file-site config: {other:?}"),
    }
}

#[test]
fn cluster_survives_shutdown_and_recovery() {
    let cfg = durable_cfg("roundtrip", 2, 2);

    // Session 1: populate across both sites, then shut down cleanly.
    {
        let c = Cluster::start(cfg.clone()).unwrap();
        let client = c.client();
        for k in 0..200u64 {
            assert_eq!(
                client.insert(Key(k), Value(k * 9)).unwrap(),
                InsertOutcome::Inserted
            );
        }
        for k in 0..50u64 {
            assert_eq!(client.delete(Key(k)).unwrap(), DeleteOutcome::Deleted);
        }
        assert!(c.quiesce(Duration::from_secs(30)));
        c.check_invariants().unwrap();
        let pages = c.pages_per_site();
        assert!(pages.iter().all(|&p| p > 0), "both sites used: {pages:?}");
        c.shutdown();
    }

    // Session 2: recover from the site files.
    let c = Cluster::recover(cfg.clone()).unwrap();
    assert_eq!(c.total_records().unwrap(), 150);
    let client = c.client();
    for k in 0..50u64 {
        assert_eq!(
            client.find(Key(k)).unwrap(),
            None,
            "deleted key {k} stayed deleted"
        );
    }
    for k in 50..200u64 {
        assert_eq!(
            client.find(Key(k)).unwrap(),
            Some(Value(k * 9)),
            "key {k} survived"
        );
    }
    // The recovered cluster keeps restructuring correctly.
    for k in 200..400u64 {
        client.insert(Key(k), Value(k)).unwrap();
    }
    for k in 50..400u64 {
        assert_eq!(
            client.delete(Key(k)).unwrap(),
            DeleteOutcome::Deleted,
            "key {k}"
        );
    }
    assert!(c.quiesce(Duration::from_secs(30)));
    c.check_invariants().unwrap();
    assert_eq!(c.total_records().unwrap(), 0);
    c.shutdown();
    std::fs::remove_dir_all(data_dir(&cfg)).unwrap();
}

#[test]
fn recovery_of_empty_cluster_initializes_fresh() {
    let cfg = durable_cfg("empty", 1, 2);
    {
        let c = Cluster::start(cfg.clone()).unwrap();
        c.shutdown(); // never wrote a record (root bucket only)
    }
    let c = Cluster::recover(cfg.clone()).unwrap();
    let client = c.client();
    assert_eq!(client.find(Key(1)).unwrap(), None);
    client.insert(Key(1), Value(1)).unwrap();
    assert_eq!(client.find(Key(1)).unwrap(), Some(Value(1)));
    assert!(c.quiesce(Duration::from_secs(20)));
    c.shutdown();
    std::fs::remove_dir_all(data_dir(&cfg)).unwrap();
}

#[test]
fn recover_requires_data_dir() {
    // Volatile and in-memory logged sites leave no medium behind.
    assert!(Cluster::recover(ClusterConfig::default()).is_err());
    let cfg = ClusterConfig {
        storage: SiteStorage::WalMemory,
        ..Default::default()
    };
    assert!(Cluster::recover(cfg).is_err());
    // Nor does a directory that was never written.
    assert!(Cluster::recover(durable_cfg("absent", 1, 1)).is_err());
}

/// A whole cluster loses power instead of shutting down: every site's
/// log is cut where it stands (only synced bytes survive), then the
/// cluster comes back from the site files alone. Every acked operation
/// must be there, the replicas must agree and the invariants hold.
///
/// The cluster is quiesced before the cut, so no split or merge is in
/// flight across sites. Atomicity across sites for a restructuring the
/// cut interrupts (one half logged on one site, the other not) is out of
/// scope: each site's log is atomic only for its own transactions.
#[test]
fn whole_cluster_recovers_from_a_power_cut() {
    let cfg = durable_cfg("power-cut", 2, 3);
    let mut c = Cluster::start(cfg.clone()).unwrap();
    let client = c.client();
    for k in 0..300u64 {
        assert_eq!(
            client.insert(Key(k), Value(k * 7)).unwrap(),
            InsertOutcome::Inserted
        );
    }
    for k in (0..300u64).step_by(3) {
        assert_eq!(client.delete(Key(k)).unwrap(), DeleteOutcome::Deleted);
    }
    assert!(c.quiesce(Duration::from_secs(30)));
    let pages = c.pages_per_site();
    assert!(pages.iter().all(|&p| p > 0), "every site used: {pages:?}");
    for site in 0..3 {
        assert!(c.crash_site(site), "site {site} powers off");
    }
    c.shutdown(); // only the directory managers were still running

    let c = Cluster::recover(cfg.clone()).unwrap(); // invariant-checked inside
    assert!(c.replicas_converged());
    assert_eq!(c.total_records().unwrap(), 200);
    assert_eq!(c.tombstone_count().unwrap(), 0);
    let client = c.client();
    for k in 0..300u64 {
        let want = (k % 3 != 0).then_some(Value(k * 7));
        assert_eq!(client.find(Key(k)).unwrap(), want, "key {k}");
    }
    // And it keeps restructuring: grow, then shrink to nothing.
    for k in 300..500u64 {
        client.insert(Key(k), Value(k)).unwrap();
    }
    for k in (0..500u64).filter(|k| *k >= 300 || k % 3 != 0) {
        assert_eq!(client.delete(Key(k)).unwrap(), DeleteOutcome::Deleted);
    }
    assert!(c.quiesce(Duration::from_secs(30)));
    c.check_invariants().unwrap();
    assert_eq!(c.total_records().unwrap(), 0);
    c.shutdown();
    std::fs::remove_dir_all(data_dir(&cfg)).unwrap();
}

#[test]
fn recovered_replicas_start_identical_on_every_manager() {
    let cfg = durable_cfg("replicas", 3, 2);
    {
        let c = Cluster::start(cfg.clone()).unwrap();
        let client = c.client();
        for k in 0..120u64 {
            client.insert(Key(k), Value(k)).unwrap();
        }
        assert!(c.quiesce(Duration::from_secs(30)));
        c.shutdown();
    }
    let c = Cluster::recover(cfg.clone()).unwrap();
    assert!(
        c.replicas_converged(),
        "all three managers restored the same directory"
    );
    let statuses = c.dir_statuses();
    assert_eq!(statuses.len(), 3);
    assert!(statuses[0].depth >= 4, "120 keys / capacity 4 needs depth");
    c.shutdown();
    std::fs::remove_dir_all(data_dir(&cfg)).unwrap();
}
