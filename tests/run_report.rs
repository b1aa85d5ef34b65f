//! Acceptance: one mixed run yields ONE coherent RunReport.
//!
//! The point of the unified metrics plane is that a single handle
//! threaded through every layer produces a single report carrying
//! lock-wait, page-I/O, split/merge, and (for the distributed file)
//! per-class message metrics — no per-crate snapshot stitching.

use std::sync::Arc;
use std::time::Duration;

use ceh_core::{ConcurrentHashFile, Solution2};
use ceh_dist::{Cluster, ClusterConfig};
use ceh_obs::json;
use ceh_types::{HashFileConfig, Key, Value};

#[test]
fn solution2_mixed_run_produces_one_cross_layer_report() {
    let file =
        Arc::new(Solution2::new(HashFileConfig::tiny().with_bucket_capacity(8)).expect("file"));
    // Charge a (tiny) simulated I/O cost so the page-I/O histogram has
    // samples, not just a registered name.
    file.set_io_latency_ns(100);
    let workers: Vec<_> = (0..4u64)
        .map(|t| {
            let f = Arc::clone(&file);
            std::thread::spawn(move || {
                for i in 0..600u64 {
                    let k = Key((t * 300 + i) % 2048);
                    f.insert(k, Value(i)).expect("insert");
                    f.find(k).expect("find");
                    if i % 3 == 0 {
                        f.delete(k).expect("delete");
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker");
    }

    let report = ceh_obs::RunReport::collect("mixed", &file.metrics());
    let doc = json::parse(&report.to_json()).expect("report JSON parses");
    let counters = doc.get("counters").expect("counters object");
    let nonzero = |name: &str| {
        counters
            .get(name)
            .unwrap_or_else(|| panic!("counter {name} missing from report"))
            .as_u64()
            .expect("integer")
            > 0
    };
    // Lock traffic, page I/O, and structure modifications — one report.
    assert!(nonzero("locks.grants.rho"), "lock metrics in report");
    assert!(nonzero("locks.releases"));
    assert!(nonzero("storage.reads"), "page-I/O metrics in report");
    assert!(nonzero("storage.writes"));
    assert!(nonzero("core.splits"), "split/merge metrics in report");
    assert!(nonzero("core.inserts"));
    assert!(nonzero("core.find_fast"), "find-path counters in report");
    assert!(counters.get("core.find_fallback").is_some());
    assert!(
        nonzero("core.update_fast"),
        "update-path counters in report"
    );
    assert!(nonzero("core.update_fallback"), "splits run Figure 8");

    // Where the memory goes: directory segments, page slots, free list.
    let gauges = doc.get("gauges").expect("gauges object");
    let level = |name: &str| {
        gauges
            .get(name)
            .unwrap_or_else(|| panic!("gauge {name} missing from report"))
            .as_u64()
            .expect("non-negative integer")
    };
    assert!(level("core.dir_bytes") > 0, "directory bytes in report");
    assert!(level("storage.slot_capacity") > 0, "slot table in report");
    assert!(level("storage.free_pages") <= level("storage.slot_capacity"));

    let hists = doc.get("hists").expect("hists object");
    assert!(
        hists.get("locks.wait_ns.rho").is_some(),
        "lock-wait histogram in report"
    );
    let io = hists.get("storage.io_ns").expect("I/O time histogram");
    assert!(
        io.get("count").unwrap().as_u64().unwrap() > 0,
        "simulated I/O time was recorded"
    );

    // The trait hands back the same registry every time.
    assert!(file.metrics().same_registry(&file.metrics()));
}

#[test]
fn dist_cluster_report_carries_per_class_message_metrics() {
    let cluster = Cluster::start(ClusterConfig::default()).expect("cluster");
    {
        let client = cluster.client();
        for k in 0..200u64 {
            client.insert(Key(k), Value(k * 10)).expect("insert");
        }
        for k in (0..200u64).step_by(5) {
            assert_eq!(client.find(Key(k)).expect("find"), Some(Value(k * 10)));
        }
    }
    assert!(cluster.quiesce(Duration::from_secs(30)), "cluster drains");

    let report = cluster.run_report("dist-mixed");
    let doc = json::parse(&report.to_json()).expect("report JSON parses");
    let counters = doc.get("counters").expect("counters").as_obj().unwrap();
    let get = |name: &str| counters.get(name).and_then(|v| v.as_u64()).unwrap_or(0);

    // Per-class network traffic in the same report as everything else.
    assert!(get("net.sent.request") > 0, "request class counted");
    assert!(get("net.sent.bucketdone") > 0, "bucketdone class counted");
    assert!(
        get("net.sent.copyupdate") > 0,
        "replication traffic counted (default cluster has 2 replicas)"
    );
    // Directory-manager protocol counters ride along.
    assert!(get("dist.copyupdate_rounds") > 0, "updates were broadcast");
    // And the layers below still feed the same registry.
    assert!(get("storage.writes") > 0, "site page stores counted");
    assert!(get("locks.grants.rho") > 0, "site lock managers counted");
    let gauges = doc.get("gauges").expect("gauges").as_obj().unwrap();
    assert!(
        gauges
            .get("storage.slot_capacity")
            .and_then(|v| v.as_u64())
            .unwrap_or(0)
            > 0,
        "site page stores' slots counted"
    );
    assert!(gauges.contains_key("storage.free_pages"));

    // Topology metadata.
    let meta = doc.get("meta").expect("meta");
    assert_eq!(meta.get("dir_managers").unwrap().as_str(), Some("2"));
    assert_eq!(meta.get("bucket_managers").unwrap().as_str(), Some("2"));

    cluster.shutdown();
}
