//! Chaos tests: the distributed hash file under seeded fault injection.
//!
//! The paper assumes reliable delivery ("the network is assumed to be
//! perfectly reliable", §3); these tests drop that assumption and check
//! the end-to-end resilience plane of DESIGN.md — client retry/failover,
//! request idempotence, acked replication, crash/restart of a bucket
//! manager — against an exact oracle:
//!
//! * every client operation eventually succeeds (at-least-once, with
//!   `Inserted|AlreadyPresent` ≡ present and `Deleted|NotFound` ≡ absent);
//! * after the faults are healed and the cluster quiesces, the record
//!   count matches the oracle exactly (nothing lost, nothing applied
//!   twice), the replicas have converged, garbage collection has drained
//!   every tombstone, and the full structural invariants hold;
//! * the fault plane itself is deterministic: the same seed produces the
//!   same drop/duplication pattern.
//!
//! `CEH_QUICK=1` shrinks the workload for CI smoke runs.

use std::collections::HashMap;
use std::time::Duration;

use ceh_dist::{Cluster, ClusterConfig, SiteStorage};
use ceh_net::{FaultPlan, LatencyModel, MsgStatsSnapshot};
use ceh_types::{HashFileConfig, Key, RetryPolicy, Value};

fn quick() -> bool {
    std::env::var("CEH_QUICK").is_ok_and(|v| v == "1")
}

/// Message classes the resilience plane makes safe to lose or duplicate:
/// the client request/reply path (retry + dedupe), bucket operations and
/// their completions (re-driven by the directory manager, idempotent at
/// the bucket), and the acked replication/garbage traffic. The intra-split
/// and intra-merge handshakes are excluded: those messages report work
/// already done on disk, and losing them is survived via the slave
/// timeout path, which these tests exercise through crashes instead.
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

#[test]
fn seeded_faults_with_crash_and_restart_converge_exactly() {
    seeded_chaos(HashFileConfig::tiny().with_bucket_capacity(8));
}

/// The same plan where a delete merges a bucket of capacity 4 left with
/// one record, so merges (local, Mergedown and Mergeup) run under the
/// faults and the crash at either workload size.
#[test]
fn seeded_faults_merging_at_threshold_1_converge_exactly() {
    let stats = seeded_chaos(
        HashFileConfig::tiny()
            .with_bucket_capacity(4)
            .with_merge_threshold(1),
    );
    for class in ["mergedown", "mergeup", "garbagecollect"] {
        assert!(stats.get(class) > 0, "no {class}: the merges did not run");
    }
}

/// Six clients under 5% drops and 1% duplicates, with bucket manager 1
/// crashed and restarted mid-run, held to an exact oracle. Returns the
/// message counts.
fn seeded_chaos(file: HashFileConfig) -> MsgStatsSnapshot {
    let ops_per_client: u64 = if quick() { 150 } else { 900 };
    let clients: u64 = 6; // 6 × 900 = 5400 ops in the full run
    let mut cluster = Cluster::start(ClusterConfig {
        dir_managers: 3,
        bucket_managers: 3,
        file,
        page_quota: Some(16), // spread buckets so the crashed site matters
        latency: LatencyModel::none(),
        storage: SiteStorage::Volatile,
        faults: Some(
            FaultPlan::new(0xCE11_0001)
                .drop_classes(FAULTABLE, 0.05)
                .duplicate_classes(FAULTABLE, 0.01),
        ),
        // Generous attempt budget: an op must survive drops *and* the
        // crash window. Short per-attempt timeouts keep retries cheap.
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

    let handles: Vec<_> = (0..clients)
        .map(|t| {
            let client = cluster.client();
            std::thread::spawn(move || {
                // Disjoint key ranges per client: each thread is the only
                // writer of its keys, so its local model is exact.
                let mut model: HashMap<u64, u64> = HashMap::new();
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::StdRng::seed_from_u64(0xC4A0 + t);
                for i in 0..ops_per_client {
                    let k = rng.random_range(0..64u64) * clients + t;
                    match rng.random_range(0..4) {
                        0 | 1 => {
                            // At-least-once: a retried insert whose first
                            // attempt landed reports AlreadyPresent.
                            client
                                .insert(Key(k), Value(i))
                                .unwrap_or_else(|e| panic!("client {t} insert {k} (op {i}): {e}"));
                            model.entry(k).or_insert(i);
                        }
                        2 => {
                            client
                                .delete(Key(k))
                                .unwrap_or_else(|e| panic!("client {t} delete {k} (op {i}): {e}"));
                            model.remove(&k);
                        }
                        _ => {
                            let got = client
                                .find(Key(k))
                                .unwrap_or_else(|e| panic!("client {t} find {k} (op {i}): {e}"))
                                .map(|v| v.0);
                            assert_eq!(got, model.get(&k).copied(), "client {t} find {k}");
                        }
                    }
                }
                model.len()
            })
        })
        .collect();

    // Mid-run: kill bucket manager 1 at a message boundary, let the
    // cluster limp (requests to it stall and are re-driven), then bring
    // it back over the surviving site state.
    std::thread::sleep(Duration::from_millis(if quick() { 60 } else { 200 }));
    assert!(cluster.crash_site(1), "site 1 must have been up");
    assert!(!cluster.crash_site(1), "double-crash is a no-op");
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        cluster.restart_site(1).unwrap(),
        "site 1 must have been down"
    );
    assert!(
        !cluster.restart_site(1).unwrap(),
        "double-restart is a no-op"
    );

    let expected: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();

    // Heal the network and drain: every unacked copyupdate / collection
    // gets through, then the cluster must be exactly consistent.
    cluster.net().set_fault_plan(None);
    assert!(
        cluster.quiesce(Duration::from_secs(60)),
        "cluster must drain after healing"
    );
    assert!(
        cluster.replicas_converged(),
        "replicas must agree at quiescence"
    );
    assert_eq!(
        cluster.total_records().unwrap(),
        expected,
        "no insert lost, none double-applied"
    );
    assert_eq!(
        cluster.tombstone_count().unwrap(),
        0,
        "garbage collection must drain"
    );
    cluster.check_invariants().unwrap();

    let stats = cluster.msg_stats();
    assert!(
        stats.dropped_total() > 0,
        "the fault plan must actually have dropped messages"
    );
    assert!(stats.duplicated_total() > 0, "and duplicated some");
    cluster.shutdown();
    stats
}

/// One run of a deterministic workload: a single sequential client, one
/// directory manager, one site, no latency, dropping only the
/// `user-reply` class. Message order is then fully determined, so the
/// per-class fault counters must reproduce exactly for the same seed.
fn reply_drop_run(seed: u64, ops: u64) -> (u64, u64, u64) {
    let cluster = Cluster::start(ClusterConfig {
        dir_managers: 1,
        bucket_managers: 1,
        file: HashFileConfig::tiny().with_bucket_capacity(8),
        page_quota: None,
        latency: LatencyModel::none(),
        storage: SiteStorage::Volatile,
        faults: Some(FaultPlan::new(seed).drop_class("user-reply", 0.2)),
        // The window must outlast any reply that was not dropped, even on
        // a loaded machine: a retry sent while a reply is merely late
        // adds one more reply and shifts the seeded drop schedule.
        retry: RetryPolicy {
            attempts: 40,
            timeout_ms: 250,
            base_backoff_ms: 1,
            max_backoff_ms: 2,
        },
        resend_ms: 60_000, // timers quiet: the only retries are the client's
        reply_timeout_ms: 30_000,
    })
    .unwrap();
    let client = cluster.client();
    for k in 0..ops {
        client.insert(Key(k), Value(k)).unwrap();
    }
    let stats = cluster.msg_stats();
    let out = (
        stats.get("user-reply"),
        stats.dropped("user-reply"),
        stats.duplicated("user-reply"),
    );
    // Post-quiesce quiescent sweep: no torn directory, no uncollected
    // tombstones, no leaked pages — even with replies being dropped.
    assert!(cluster.quiesce(Duration::from_secs(10)));
    cluster.check_invariants().unwrap();
    cluster.shutdown();
    out
}

#[test]
fn same_seed_reproduces_the_fault_schedule() {
    let ops = if quick() { 60 } else { 200 };
    let a = reply_drop_run(0x00DE_7E12, ops);
    let b = reply_drop_run(0x00DE_7E12, ops);
    assert_eq!(a, b, "same seed ⇒ same sent/dropped/duplicated counts");
    assert!(
        a.1 > 0,
        "a 20% drop rate over {ops} replies must drop something"
    );
    assert_eq!(a.2, 0, "no duplication configured");
    // The retry plane is visible in the totals: every dropped reply
    // forces a retried request answered from the dedupe cache.
    assert_eq!(
        a.0,
        ops + a.1,
        "each dropped reply costs exactly one re-reply"
    );
}

#[test]
fn crash_without_faults_recovers_in_place() {
    // Crash/restart in isolation (no message faults): ops routed at the
    // dead site stall, get re-driven, and complete after restart.
    let ops: u64 = if quick() { 120 } else { 400 };
    let mut cluster = Cluster::start(ClusterConfig {
        dir_managers: 2,
        bucket_managers: 2,
        file: HashFileConfig::tiny().with_bucket_capacity(4),
        page_quota: Some(8),
        latency: LatencyModel::none(),
        storage: SiteStorage::Volatile,
        faults: None,
        retry: RetryPolicy {
            attempts: 80,
            timeout_ms: 150,
            base_backoff_ms: 1,
            max_backoff_ms: 10,
        },
        resend_ms: 100,
        reply_timeout_ms: 1_000,
    })
    .unwrap();
    let client = cluster.client();
    for k in 0..ops / 2 {
        client.insert(Key(k), Value(k)).unwrap();
    }
    assert!(cluster.crash_site(1));
    let crash_probe = std::thread::spawn({
        let client = cluster.client();
        move || {
            // Keep operating while the site is down: every op must still
            // complete (re-driven until the restart lands).
            for k in ops / 2..ops {
                client.insert(Key(k), Value(k)).unwrap();
            }
        }
    });
    std::thread::sleep(Duration::from_millis(250));
    assert!(cluster.restart_site(1).unwrap());
    crash_probe.join().unwrap();
    for k in 0..ops {
        assert_eq!(
            client.find(Key(k)).unwrap(),
            Some(Value(k)),
            "find {k} after restart"
        );
    }
    assert!(cluster.quiesce(Duration::from_secs(30)));
    assert!(cluster.replicas_converged());
    assert_eq!(cluster.total_records().unwrap(), ops as usize);
    cluster.check_invariants().unwrap();
    cluster.shutdown();
}

#[test]
fn durable_crash_is_a_power_loss_and_restart_recovers_from_the_image() {
    // Durable sites: `crash_site` is a power cut, `restart_site` must
    // rebuild the site from its durable image alone. The test plants
    // junk directly in the crashed site's in-memory page cache
    // (bypassing the WAL, as a buffer that never reached disk would) and
    // asserts the restart both abandons that store object and scrubs the
    // junk — while every acked operation survives.
    let ops: u64 = if quick() { 120 } else { 400 };
    let mut cluster = Cluster::start(ClusterConfig {
        dir_managers: 2,
        bucket_managers: 2,
        file: HashFileConfig::tiny().with_bucket_capacity(4),
        page_quota: Some(8), // spread buckets onto the crash target
        latency: LatencyModel::none(),
        storage: SiteStorage::WalMemory,
        faults: None,
        retry: RetryPolicy {
            attempts: 80,
            timeout_ms: 150,
            base_backoff_ms: 1,
            max_backoff_ms: 10,
        },
        resend_ms: 100,
        reply_timeout_ms: 1_000,
    })
    .unwrap();
    let client = cluster.client();
    for k in 0..ops / 2 {
        client.insert(Key(k), Value(k)).unwrap();
    }
    // Quiesce so no slave is mid-read when the cache is poisoned below.
    assert!(cluster.quiesce(Duration::from_secs(30)));

    let old_store = cluster.site_store(1);
    assert!(
        old_store.allocated_pages() > 0,
        "the quota must have spread buckets onto site 1"
    );
    // Volatile-only state: scribble over every cached page without
    // logging it. A durable restart must never see these bytes.
    {
        let junk = ceh_storage::PageBuf::from_bytes(
            vec![0xDEu8; old_store.page_size()].into_boxed_slice(),
        );
        for page in old_store.allocated_page_ids() {
            old_store.write(page, &junk).unwrap();
        }
    }
    assert!(cluster.crash_site(1), "site 1 must have been up");

    // Keep operating against the surviving site while 1 is dark.
    let crash_probe = std::thread::spawn({
        let client = cluster.client();
        move || {
            for k in ops / 2..ops {
                client.insert(Key(k), Value(k)).unwrap();
            }
        }
    });
    std::thread::sleep(Duration::from_millis(250));
    assert!(cluster.restart_site(1).unwrap(), "recovery must succeed");
    crash_probe.join().unwrap();

    let new_store = cluster.site_store(1);
    assert!(
        !std::sync::Arc::ptr_eq(&old_store, &new_store),
        "a durable restart must abandon the crashed site's in-memory store"
    );

    // Every acked operation survives the power cut; the junk does not.
    for k in 0..ops {
        assert_eq!(
            client.find(Key(k)).unwrap(),
            Some(Value(k)),
            "find {k} after power loss + recovery"
        );
    }
    // Post-restart deletes drive merges through the recovered WAL.
    for k in 0..ops / 4 {
        client.delete(Key(k)).unwrap();
    }
    assert!(cluster.quiesce(Duration::from_secs(30)));
    assert!(cluster.replicas_converged());
    assert_eq!(
        cluster.total_records().unwrap(),
        (ops - ops / 4) as usize,
        "acked ops exactly once across the crash"
    );
    assert_eq!(cluster.tombstone_count().unwrap(), 0);
    cluster.check_invariants().unwrap();
    cluster.shutdown();
}
