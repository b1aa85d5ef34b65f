//! Connection supervision over real sockets: crash detection, bounded
//! reconnect, heartbeat liveness, and partition-tolerant load shedding.
//!
//! The state machine itself is unit-tested in
//! `crates/net/src/supervisor.rs` with logical clocks; these tests
//! check the *integration* — that the TCP plane's threads actually obey
//! the FSM when peers crash, restart, idle, or vanish.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use ceh_net::{MsgClass, PeerState, SupervisorConfig, TcpConfig, TcpPlane, Transport};
use ceh_obs::MetricsHandle;

#[derive(Debug, Clone, PartialEq)]
struct TestMsg(u64);

impl MsgClass for TestMsg {
    fn class(&self) -> &'static str {
        "test"
    }
}

ceh_net::wire!(TestMsg(u64));

fn loopback() -> SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

/// Fast supervision so the tests run in seconds, not minutes.
fn fast() -> SupervisorConfig {
    SupervisorConfig {
        heartbeat_ms: 50,
        degraded_after_ms: 200,
        down_after_ms: 600,
        base_backoff_ms: 5,
        max_backoff_ms: 50,
    }
}

fn wait_for<F: Fn() -> bool>(what: &str, secs: u64, f: F) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !f() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Heartbeats keep a connected-but-silent link Healthy: no data flows,
/// yet pings and pongs count as life on both ends.
#[test]
fn heartbeats_keep_an_idle_link_healthy() {
    let server: TcpPlane<TestMsg> = TcpPlane::start(
        TcpConfig::new(1).listen(loopback()).supervisor(fast()),
        &MetricsHandle::new(),
    )
    .unwrap();
    let client: TcpPlane<TestMsg> = TcpPlane::start(
        TcpConfig::new(2)
            .peer(1, server.local_addr().unwrap())
            .supervisor(fast()),
        &MetricsHandle::new(),
    )
    .unwrap();
    wait_for("initial connect", 10, || {
        client.peer_state(1) == Some(PeerState::Healthy)
    });
    // Idle for many degraded_after periods; the probes must keep it up.
    std::thread::sleep(Duration::from_millis(1_000));
    assert_eq!(
        client.peer_state(1),
        Some(PeerState::Healthy),
        "idle link degraded despite heartbeats"
    );
    client.close();
    server.close();
}

/// A crashed peer is detected (degraded/down, with counted backoff),
/// and a restarted peer heals the link — messages flow again without
/// any new configuration.
#[test]
fn crash_is_detected_and_restart_heals() {
    let client_metrics = MetricsHandle::new();
    let server: TcpPlane<TestMsg> = TcpPlane::start(
        TcpConfig::new(1).listen(loopback()).supervisor(fast()),
        &MetricsHandle::new(),
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let (port, rx) = server.create_port();
    server.register_name("svc", port);

    let client: TcpPlane<TestMsg> = TcpPlane::start(
        TcpConfig::new(2).peer(1, addr).supervisor(fast()),
        &client_metrics,
    )
    .unwrap();
    wait_for("name replication", 10, || client.lookup("svc").is_some());
    client.send(port, TestMsg(1));
    assert_eq!(rx.recv_timeout(Duration::from_secs(5)).unwrap(), TestMsg(1));

    // Crash the server. The client's supervisor must notice on its own
    // (EOF or heartbeat silence) and start paying backoff.
    server.close();
    drop(rx);
    wait_for("crash detection", 15, || {
        client.peer_state(1) != Some(PeerState::Healthy)
    });
    wait_for("reconnect attempts with backoff", 15, || {
        client_metrics.counter("net.tcp.dial_fail").get() >= 2
            && client_metrics.counter("net.tcp.backoff_ms").get() > 0
    });

    // Restart on the same address (retry the bind: the old listener may
    // take a beat to release the port).
    let server2_metrics = MetricsHandle::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    let server2: TcpPlane<TestMsg> = loop {
        match TcpPlane::start(
            TcpConfig::new(1).listen(addr).supervisor(fast()),
            &server2_metrics,
        ) {
            Ok(p) => break p,
            Err(e) => {
                assert!(Instant::now() < deadline, "rebind never succeeded: {e}");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    let (port2, rx2) = server2.create_port();
    server2.register_name("svc", port2);

    wait_for("reconnect heals the link", 15, || {
        client.peer_state(1) == Some(PeerState::Healthy)
    });
    assert!(
        client_metrics.counter("net.tcp.reconnect").get() >= 1,
        "healing must be counted as a reconnect"
    );
    // The restarted peer replicated its new binding; send to it.
    wait_for("rebound name", 10, || client.lookup("svc") == Some(port2));
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        client.send(port2, TestMsg(2));
        match rx2.recv_timeout(Duration::from_millis(200)) {
            Ok(TestMsg(2)) => break,
            _ => assert!(Instant::now() < deadline, "restarted peer never served"),
        }
    }
    client.close();
    server2.close();
}

/// A partitioned peer cannot wedge the sender: the bounded outbound
/// queue fills, further sends shed (counted), and the caller never
/// blocks — graceful degradation, not backpressure collapse.
#[test]
fn partition_sheds_load_instead_of_blocking() {
    // Reserve an address nothing will ever listen on again.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    let metrics = MetricsHandle::new();
    let mut cfg = TcpConfig::new(3).peer(9, dead_addr).supervisor(fast());
    cfg.queue_capacity = 8;
    let plane: TcpPlane<TestMsg> = TcpPlane::start(cfg, &metrics).unwrap();

    let target = ceh_net::PortId::for_node(9, 1);
    let start = Instant::now();
    for i in 0..500 {
        assert!(plane.send(target, TestMsg(i)));
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(5),
        "sends to a dead peer must not block: took {elapsed:?}"
    );
    assert!(
        metrics.counter("net.tcp.shed").get() >= 400,
        "overflow must be load-shed, got {}",
        metrics.counter("net.tcp.shed").get()
    );
    // The supervisor kept trying the whole time.
    wait_for("dial failures counted", 10, || {
        metrics.counter("net.tcp.dial_fail").get() >= 1
    });
    plane.close();
}
