//! Trace propagation under chaos: every retry, failover, and re-drive
//! must attribute to the originating client request.
//!
//! The causal-tracing plane (DESIGN.md §8) stamps a `TraceCtx` onto
//! every message the distributed hash file sends, so that when the
//! fault plane drops a request mid-flight and the client retries — or
//! fails over to another directory manager, or the manager re-drives a
//! stalled bucket operation — the recovery work still lands in the
//! trace tree of the request that caused it. This test runs the seeded
//! chaos workload from `tests/chaos.rs` with the tracer on and checks
//! exactly that:
//!
//! * every completed client request produced exactly one root
//!   `dist.request` span, and every nonzero trace reassembles to a
//!   single root (no orphaned fragments);
//! * every `retry` / `failover` / `redrive` / `dedupe_hit` instant
//!   recorded anywhere in the cluster sits in a trace rooted at a
//!   client request — none leak into the untraced trace-0 bucket;
//! * the faults actually exercised the recovery paths (some such
//!   instants exist), and the ring was sized so nothing was dropped.
//!
//! `CEH_QUICK=1` shrinks the workload for CI smoke runs.

use std::collections::HashSet;
use std::time::Duration;

use ceh_dist::{Cluster, ClusterConfig, SiteStorage};
use ceh_net::{FaultPlan, LatencyModel};
use ceh_obs::SpanId;
use ceh_types::{HashFileConfig, Key, RetryPolicy, Value};

fn quick() -> bool {
    std::env::var("CEH_QUICK").is_ok_and(|v| v == "1")
}

/// Same faultable classes as `tests/chaos.rs`: the client path plus the
/// re-drivable bucket and replication traffic.
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

/// The recovery instants whose attribution this test is about.
const RECOVERY: &[&str] = &["retry", "failover", "redrive", "dedupe_hit"];

#[test]
fn recovery_work_attributes_to_the_originating_request() {
    let ops_per_client: u64 = if quick() { 80 } else { 400 };
    let clients: u64 = 3;
    let cluster = Cluster::start(ClusterConfig {
        dir_managers: 3,
        bucket_managers: 2,
        file: HashFileConfig::tiny().with_bucket_capacity(8),
        page_quota: None,
        latency: LatencyModel::none(),
        storage: SiteStorage::Volatile,
        faults: Some(
            FaultPlan::new(0xCE11_0001)
                .drop_classes(FAULTABLE, 0.05)
                .duplicate_classes(FAULTABLE, 0.01),
        ),
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
    // Sized so a full chaos run fits: a truncated ring would silently
    // orphan the oldest spans and void the attribution check below.
    cluster.metrics().tracer().enable(1 << 19);

    let handles: Vec<_> = (0..clients)
        .map(|t| {
            let client = cluster.client();
            std::thread::spawn(move || {
                use rand::{Rng, SeedableRng};
                let mut rng = rand::rngs::StdRng::seed_from_u64(0xC4A0 + t);
                for i in 0..ops_per_client {
                    let k = rng.random_range(0..64u64) * clients + t;
                    match rng.random_range(0..4) {
                        0 | 1 => {
                            client.insert(Key(k), Value(i)).unwrap();
                        }
                        2 => {
                            client.delete(Key(k)).unwrap();
                        }
                        _ => {
                            client.find(Key(k)).unwrap();
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Heal and drain so the trailing replication/GC traffic (traced
    // under its originating request) settles before the report.
    cluster.net().set_fault_plan(None);
    assert!(
        cluster.quiesce(Duration::from_secs(60)),
        "cluster must drain after healing"
    );
    let stats = cluster.msg_stats();
    assert!(
        stats.dropped_total() > 0,
        "the fault plan must actually have dropped messages"
    );

    let report = cluster.trace_report();
    cluster.shutdown();
    assert_eq!(
        report.dropped, 0,
        "ring must be sized for the whole run: a truncated report \
         cannot prove attribution"
    );

    // Every completed request is exactly one root span, and every
    // nonzero trace reassembles to a single root.
    let mut request_roots: HashSet<u64> = HashSet::new();
    for tree in report.traces() {
        if tree.trace_id == 0 {
            continue; // the untraced/legacy bucket
        }
        let roots = tree.root_spans();
        assert_eq!(
            roots.len(),
            1,
            "trace {:#x} must have exactly one root span, got {:?}",
            tree.trace_id,
            roots.iter().map(|s| s.event).collect::<Vec<_>>()
        );
        assert_eq!(
            (roots[0].layer, roots[0].event),
            ("dist", "request"),
            "trace {:#x} must be rooted at a client request",
            tree.trace_id
        );
        assert_eq!(
            roots[0].id,
            SpanId(tree.trace_id),
            "a root span's id is its trace id"
        );
        request_roots.insert(tree.trace_id);
    }
    assert_eq!(
        request_roots.len() as u64,
        clients * ops_per_client,
        "one root request span per completed client operation"
    );

    // Every recovery instant sits inside a request-rooted trace. The
    // scan covers both span-attached instants and loose events, so an
    // instant stamped with a broken context cannot hide.
    let mut recovery_seen = 0u64;
    for tree in report.traces() {
        let events = tree
            .spans
            .iter()
            .flat_map(|s| s.instants.iter())
            .chain(tree.loose.iter());
        for ev in events {
            if ev.layer == "dist" && RECOVERY.contains(&ev.event) {
                recovery_seen += 1;
                assert!(
                    request_roots.contains(&tree.trace_id),
                    "{} instant in trace {:#x} is not attributed to any \
                     client request",
                    ev.event,
                    tree.trace_id
                );
            }
        }
    }
    assert!(
        recovery_seen > 0,
        "a 5% drop rate over {} ops must trigger retries or re-drives",
        clients * ops_per_client
    );
}
