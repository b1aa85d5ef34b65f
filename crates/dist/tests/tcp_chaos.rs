//! The distributed hash file over real TCP under seeded socket faults.
//!
//! `tests/chaos.rs` (workspace root) drives the simulated plane through
//! drops, duplication, and crashes; this test drives the *TCP* plane —
//! every manager on its own loopback socket, every frame subject to a
//! seeded plan of drops, duplications, and connection severs — and
//! holds the same exact oracle: every operation's outcome matches an
//! in-memory model (with `Inserted|AlreadyPresent` ≡ present under
//! at-least-once retries), and after healing, a full sweep agrees with
//! the model key by key.
//!
//! `CEH_QUICK=1` shrinks the workload for CI smoke runs.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::Duration;

use ceh_dist::{ClusterSpec, NodeOptions, NodeRole, ServeNode, SiteStorage, TcpClusterClient};
use ceh_net::{FaultPlan, Transport};
use ceh_types::{DeleteOutcome, InsertOutcome, Key, RetryPolicy, Value};

fn quick() -> bool {
    std::env::var("CEH_QUICK").is_ok_and(|v| v == "1")
}

/// Message classes the resilience plane makes safe to lose or duplicate
/// (same list as the simulated chaos test): the retried client path,
/// re-driven bucket operations, and acked replication traffic.
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

fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind :0"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("addr"))
        .collect()
}

fn faults(seed: u64) -> FaultPlan {
    // Severs tear the carrying connection down *after* the frame is
    // written, so they are safe on every class: the supervisor redials
    // and nothing above the transport notices but latency.
    FaultPlan::new(seed)
        .drop_classes(FAULTABLE, 0.03)
        .duplicate_classes(FAULTABLE, 0.01)
        .sever_all(0.003)
}

#[test]
fn seeded_drop_dup_sever_over_tcp_converges_exactly() {
    let ops_per_client: u64 = if quick() { 60 } else { 200 };
    let clients: u64 = 3;
    let seed = 0x0CE1_17C9;

    let addrs = free_addrs(4);
    let spec = ClusterSpec {
        nodes: vec![
            (NodeRole::Dir, addrs[0]),
            (NodeRole::Dir, addrs[1]),
            (NodeRole::Bucket, addrs[2]),
            (NodeRole::Bucket, addrs[3]),
        ],
    };
    let opts = NodeOptions {
        seed,
        faults: Some(faults(seed)),
        resend_ms: 100,
        reply_timeout_ms: 2_000,
        ..Default::default()
    };
    let nodes: Vec<ServeNode> = (0..spec.nodes.len())
        .map(|i| ServeNode::start(&spec, i, &opts).expect("start node"))
        .collect();

    // The client plane is faulty too — requests and replies both cross
    // hostile sockets. Retries are generous: at-least-once is the
    // contract the oracle tolerates.
    let retry = RetryPolicy {
        attempts: 80,
        timeout_ms: 250,
        base_backoff_ms: 1,
        max_backoff_ms: 10,
    };
    let conn = TcpClusterClient::connect(&spec, 100, retry, &opts).expect("connect");

    let conn_ref = &conn;
    let models: Vec<HashMap<u64, u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    // No timeout override: the connect-time RetryPolicy's
                    // short per-attempt window is what makes losses cheap.
                    let client = conn_ref.client();
                    let mut rng = seed ^ (c.wrapping_mul(0x9E37_79B9) | 1);
                    let mut next = move || {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        rng
                    };
                    let mut model: HashMap<u64, u64> = HashMap::new();
                    let base = (c + 1) << 32;
                    let span = ops_per_client / 2;
                    for _ in 0..ops_per_client {
                        let key = Key(base | (next() % span));
                        match next() % 10 {
                            0..=5 => {
                                let value = next();
                                let fresh = !model.contains_key(&key.0);
                                match (fresh, client.insert(key, Value(value)).expect("insert")) {
                                    (true, _) => {
                                        model.insert(key.0, value);
                                    }
                                    (false, InsertOutcome::AlreadyPresent) => {}
                                    (false, out) => {
                                        panic!("insert of present {key:?} returned {out:?}")
                                    }
                                }
                            }
                            6..=7 => {
                                let got = client.find(key).expect("find");
                                let want = model.get(&key.0).copied().map(Value);
                                assert_eq!(got, want, "find {key:?} disagrees with model");
                            }
                            _ => {
                                let present = model.remove(&key.0).is_some();
                                match (present, client.delete(key).expect("delete")) {
                                    (true, _) => {}
                                    (false, DeleteOutcome::NotFound) => {}
                                    (false, out) => {
                                        panic!("delete of absent {key:?} returned {out:?}")
                                    }
                                }
                            }
                        }
                    }
                    model
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });

    // Heal every plane, then sweep: the file must agree with the model
    // exactly — nothing lost to drops, nothing applied twice by dups or
    // by retries re-driven across severed connections.
    for node in &nodes {
        node.plane().set_fault_plan(None);
    }
    conn.plane().set_fault_plan(None);
    let client = conn.client();
    for (c, model) in models.iter().enumerate() {
        let base = ((c as u64) + 1) << 32;
        let span = ops_per_client / 2;
        for k in 0..span {
            let key = Key(base | k);
            let got = client.find(key).expect("sweep find");
            let want = model.get(&key.0).copied().map(Value);
            assert_eq!(got, want, "sweep: {key:?} disagrees with model after heal");
        }
    }

    // The fault plan must be visible in the flight recorder.
    let report = nodes[0].run_report("tcp-chaos");
    let json = report.to_json();
    assert!(
        json.contains("drop"),
        "run report must record the effective fault plan: {json}"
    );

    conn.shutdown_cluster();
    for node in nodes {
        node.join().expect("clean exit");
    }
}

/// Restarting a bucket manager with a data directory brings its records
/// back: the durable half of failover (the process-kill half lives in
/// the CLI's transport_smoke test, where managers are real processes).
#[test]
fn bucket_manager_restart_recovers_its_pages() {
    let dir = std::env::temp_dir().join(format!("ceh-tcp-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let addrs = free_addrs(2);
    let spec = ClusterSpec {
        nodes: vec![(NodeRole::Dir, addrs[0]), (NodeRole::Bucket, addrs[1])],
    };
    let opts = NodeOptions {
        storage: SiteStorage::WalFiles(dir.clone()),
        ..Default::default()
    };

    // First life: insert, shut down cleanly.
    {
        let nodes: Vec<ServeNode> = (0..2)
            .map(|i| ServeNode::start(&spec, i, &opts).expect("start node"))
            .collect();
        let conn =
            TcpClusterClient::connect(&spec, 100, RetryPolicy::default(), &opts).expect("connect");
        let client = conn.client().with_timeout(Duration::from_secs(10));
        for k in 0..30u64 {
            client.insert(Key(k), Value(k + 1000)).expect("insert");
        }
        conn.shutdown_cluster();
        for node in nodes {
            node.join().expect("clean exit");
        }
    }

    // Second life: same spec, same data dir — the records are there.
    // (Retry each bind: the first life's listener may take a beat to
    // release its port.)
    {
        let start_retrying = |i: usize| {
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            loop {
                match ServeNode::start(&spec, i, &opts) {
                    Ok(n) => return n,
                    Err(e) => {
                        assert!(
                            std::time::Instant::now() < deadline,
                            "restart node {i} never bound: {e}"
                        );
                        std::thread::sleep(Duration::from_millis(50));
                    }
                }
            }
        };
        let nodes: Vec<ServeNode> = (0..2).map(start_retrying).collect();
        let conn = TcpClusterClient::connect(&spec, 101, RetryPolicy::default(), &opts)
            .expect("reconnect");
        let client = conn.client().with_timeout(Duration::from_secs(10));
        for k in 0..30u64 {
            assert_eq!(
                client.find(Key(k)).expect("find"),
                Some(Value(k + 1000)),
                "key {k} lost across restart"
            );
        }
        conn.shutdown_cluster();
        for node in nodes {
            node.join().expect("clean exit");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
