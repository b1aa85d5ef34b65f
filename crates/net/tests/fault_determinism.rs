//! The socket-layer fault plan is deterministic: the same seed produces
//! the same fault schedule, so a chaos run over real TCP is exactly
//! reproducible — the acceptance bar the simulated plane already meets.

use std::time::{Duration, Instant};

use ceh_net::{FaultPlan, MsgClass, TcpConfig, TcpPlane, Transport};
use ceh_obs::MetricsHandle;

#[derive(Debug, Clone, PartialEq)]
struct TestMsg(u64);

impl MsgClass for TestMsg {
    fn class(&self) -> &'static str {
        "test"
    }
}

ceh_net::wire!(TestMsg(u64));

/// One seeded lossy run: node 2 sends `count` messages to node 1
/// through a 30% drop plan; returns the sorted values that survived.
fn lossy_run(seed: u64, count: u64) -> Vec<u64> {
    let server: TcpPlane<TestMsg> = TcpPlane::start(
        TcpConfig::new(1).listen("127.0.0.1:0".parse().unwrap()),
        &MetricsHandle::new(),
    )
    .unwrap();
    let (port, rx) = server.create_port();

    let mut cfg = TcpConfig::new(2).peer(1, server.local_addr().unwrap());
    cfg.seed = seed;
    let client: TcpPlane<TestMsg> = TcpPlane::start(cfg, &MetricsHandle::new()).unwrap();
    client.set_fault_plan(Some(FaultPlan::new(seed).drop_all(0.3)));

    // Wait for the link before sending, so no frame is lost to a
    // not-yet-connected queue racing the handshake.
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.peer_state(1) != Some(ceh_net::PeerState::Healthy) {
        assert!(Instant::now() < deadline, "never connected");
        std::thread::sleep(Duration::from_millis(5));
    }
    for i in 0..count {
        client.send(port, TestMsg(i));
    }
    // Drain until the stream runs dry.
    let mut got = Vec::new();
    while let Ok(TestMsg(v)) = rx.recv_timeout(Duration::from_millis(500)) {
        got.push(v);
    }
    client.close();
    server.close();
    got.sort_unstable();
    got
}

#[test]
fn same_seed_same_fault_schedule_over_real_sockets() {
    let a = lossy_run(0xCE11, 200);
    let b = lossy_run(0xCE11, 200);
    assert!(!a.is_empty(), "a 30% drop plan must deliver most frames");
    assert!(
        a.len() < 200,
        "a 30% drop plan must actually drop something"
    );
    assert_eq!(a, b, "identical seeds must reproduce the exact loss set");

    let c = lossy_run(0xD00D, 200);
    assert_ne!(a, c, "different seeds must explore different schedules");
}
