//! **E12 — Real transport: loopback TCP vs the simulated plane**
//! (DESIGN.md §11).
//!
//! The simulated network (`SimNetwork`) moves messages through
//! in-process channels; the TCP plane (`TcpPlane`) moves the same
//! Figure 10–14 messages through length-prefixed, CRC-checked frames
//! over real sockets with a connection supervisor. This experiment
//! prices that realism: the same mixed workload runs against
//! (a) an in-process simulated cluster and (b) the same topology as
//! `ServeNode`s on loopback TCP, reporting ops/s and p50/p99 latency —
//! then measures how long a client is stalled when its connection to a
//! directory manager is severed mid-stream (supervisor redial + client
//! retry = time to next successful operation).
//!
//! Writes a machine-readable copy to `results/exp_transport.json`.
//!
//! ```sh
//! cargo run -p ceh-bench --release --bin exp_transport
//! ```

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use ceh_bench::{md_table, quick_mode};
use ceh_dist::{
    Cluster, ClusterConfig, ClusterSpec, DistClient, NodeOptions, NodeRole, ServeNode,
    TcpClusterClient,
};
use ceh_net::{FaultPlan, LatencyModel, Transport};
use ceh_types::{HashFileConfig, Key, RetryPolicy, Value};

/// One measured run: total ops, wall clock, and latency percentiles.
struct RunStats {
    ops: u64,
    elapsed: Duration,
    p50_us: f64,
    p99_us: f64,
}

impl RunStats {
    fn ops_per_sec(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64()
    }
}

fn file_config() -> HashFileConfig {
    HashFileConfig::tiny().with_bucket_capacity(64)
}

fn free_addrs(n: usize) -> Vec<SocketAddr> {
    let listeners: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind :0"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("addr"))
        .collect()
}

/// Drive the standard 60/20/20 insert/find/delete mix from `clients`
/// closed-loop threads against whatever plane `make_client` fronts,
/// timing every operation individually.
fn run_workload<F>(make_client: F, clients: u64, ops_per_client: u64, seed: u64) -> RunStats
where
    F: Fn() -> DistClient + Sync,
{
    let start = Instant::now();
    let mk = &make_client;
    let lats: Vec<Vec<u64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let client = mk();
                    let mut rng = seed ^ ((c + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    let mut next = move || {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        rng
                    };
                    let base = (c + 1) << 32;
                    let span = (ops_per_client / 2).max(1);
                    let mut lat = Vec::with_capacity(ops_per_client as usize);
                    for _ in 0..ops_per_client {
                        let key = Key(base | (next() % span));
                        let t = Instant::now();
                        match next() % 10 {
                            0..=5 => {
                                client.insert(key, Value(next())).expect("insert");
                            }
                            6..=7 => {
                                client.find(key).expect("find");
                            }
                            _ => {
                                client.delete(key).expect("delete");
                            }
                        }
                        lat.push(t.elapsed().as_nanos() as u64);
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut all: Vec<u64> = lats.into_iter().flatten().collect();
    all.sort_unstable();
    let pct = |p: f64| all[((all.len() - 1) as f64 * p) as usize] as f64 / 1_000.0;
    RunStats {
        ops: clients * ops_per_client,
        elapsed,
        p50_us: pct(0.50),
        p99_us: pct(0.99),
    }
}

/// The in-process simulated plane: 2 directory + 2 bucket managers,
/// zero modeled wire latency — the floor the TCP plane is priced
/// against.
fn simulated(clients: u64, ops_per_client: u64, seed: u64) -> RunStats {
    let c = Cluster::start(ClusterConfig {
        dir_managers: 2,
        bucket_managers: 2,
        file: file_config(),
        page_quota: None,
        latency: LatencyModel::none(),
        ..Default::default()
    })
    .expect("start simulated cluster");
    let stats = run_workload(|| c.client(), clients, ops_per_client, seed);
    c.shutdown();
    stats
}

/// The same topology over loopback TCP: every manager a `ServeNode` on
/// its own socket, the client a `TcpClusterClient` on a fourth plane.
fn tcp(clients: u64, ops_per_client: u64, seed: u64, trials: usize) -> (RunStats, Vec<f64>) {
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
        file: file_config(),
        seed,
        ..Default::default()
    };
    let nodes: Vec<ServeNode> = (0..spec.nodes.len())
        .map(|i| ServeNode::start(&spec, i, &opts).expect("start node"))
        .collect();

    let conn =
        TcpClusterClient::connect(&spec, 500, RetryPolicy::default(), &opts).expect("connect");
    let stats = run_workload(|| conn.client(), clients, ops_per_client, seed);
    conn.close();

    let recovery = measure_recovery(&spec, &opts, trials);

    let shutdown =
        TcpClusterClient::connect(&spec, 502, RetryPolicy::default(), &opts).expect("connect");
    shutdown.shutdown_cluster();
    for n in nodes {
        n.join().expect("clean exit");
    }
    (stats, recovery)
}

/// Sever the client→directory connection mid-stream and time how long
/// until the link is *Healthy again*: supervisor detection + backoff +
/// redial. (A sever never loses the frame that triggered it — the frame
/// is written first — so "time to next successful op" would mostly
/// measure nothing; the cost of a sever is the heal, paid by whichever
/// operation next needs the torn-down reply path.)
fn measure_recovery(spec: &ClusterSpec, opts: &NodeOptions, trials: usize) -> Vec<f64> {
    let retry = RetryPolicy {
        attempts: 200,
        timeout_ms: 100,
        base_backoff_ms: 1,
        max_backoff_ms: 20,
    };
    let conn = TcpClusterClient::connect(spec, 501, retry, opts).expect("connect");
    let client = conn.client();
    let metrics = conn.metrics();
    client.find(Key(1)).expect("warm find");

    let mut out = Vec::with_capacity(trials);
    for trial in 0..trials {
        let reconnects = metrics.counter("net.tcp.reconnect").get();
        // Arm a one-shot guillotine: the next data frame is written and
        // then its connection is torn down.
        conn.plane()
            .set_fault_plan(Some(FaultPlan::new(trial as u64).sever_all(1.0)));
        let t0 = Instant::now();
        client.find(Key(1)).expect("find across sever");
        conn.plane().set_fault_plan(None);
        // The heal is a counted reconnect with every link Healthy.
        let deadline = Instant::now() + Duration::from_secs(30);
        while metrics.counter("net.tcp.reconnect").get() == reconnects
            || (1..=spec.nodes.len() as u16)
                .any(|n| conn.plane().peer_state(n) != Some(ceh_net::PeerState::Healthy))
        {
            assert!(Instant::now() < deadline, "link never healed after sever");
            std::thread::sleep(Duration::from_micros(200));
        }
        out.push(t0.elapsed().as_secs_f64() * 1_000.0);
    }
    conn.close();
    out.sort_by(|a, b| a.partial_cmp(b).expect("ordered"));
    out
}

fn main() {
    let total_ops: u64 = if quick_mode() { 2_000 } else { 20_000 };
    let trials = if quick_mode() { 5 } else { 10 };
    let seed = 0xE12_5EED;

    println!(
        "### E12 — loopback TCP vs simulated plane (2 dir + 2 bucket managers, mix 60/20/20)\n"
    );
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut recovery_json = String::new();
    for &clients in &[1u64, 4] {
        let per_client = total_ops / clients;
        let sim = simulated(clients, per_client, seed);
        let (net, recovery) = tcp(
            clients,
            per_client,
            seed,
            if clients == 1 { trials } else { 0 },
        );
        for (plane, r) in [("simulated", &sim), ("tcp", &net)] {
            rows.push(vec![
                plane.to_string(),
                clients.to_string(),
                r.ops.to_string(),
                format!("{:.0}", r.ops_per_sec()),
                format!("{:.1}", r.p50_us),
                format!("{:.1}", r.p99_us),
            ]);
            json_rows.push(format!(
                "    {{\"plane\": \"{plane}\", \"clients\": {clients}, \"ops\": {}, \
                 \"ops_per_sec\": {:.1}, \"p50_us\": {:.1}, \"p99_us\": {:.1}}}",
                r.ops,
                r.ops_per_sec(),
                r.p50_us,
                r.p99_us
            ));
        }
        if !recovery.is_empty() {
            let med = recovery[recovery.len() / 2];
            println!(
                "sever recovery, time to a healed (reconnected) link ({} trials): \
                 min {:.1} ms / median {med:.1} ms / max {:.1} ms",
                recovery.len(),
                recovery[0],
                recovery[recovery.len() - 1],
            );
            let mut j = String::new();
            let _ = writeln!(j, "  \"recovery\": {{");
            let _ = writeln!(j, "    \"trials\": {},", recovery.len());
            let _ = writeln!(j, "    \"min_ms\": {:.2},", recovery[0]);
            let _ = writeln!(j, "    \"median_ms\": {med:.2},");
            let _ = writeln!(j, "    \"max_ms\": {:.2}", recovery[recovery.len() - 1]);
            let _ = write!(j, "  }},");
            recovery_json = j;
        }
    }
    println!();
    println!(
        "{}",
        md_table(
            &["plane", "clients", "ops", "ops/s", "p50 µs", "p99 µs"],
            &rows
        )
    );

    // Machine-readable copy for results/.
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(j, "  \"experiment\": \"E12\",");
    let _ = writeln!(j, "  \"total_ops\": {total_ops},");
    if !recovery_json.is_empty() {
        let _ = writeln!(j, "{recovery_json}");
    }
    let _ = writeln!(j, "  \"rows\": [");
    let _ = writeln!(j, "{}", json_rows.join(",\n"));
    let _ = writeln!(j, "  ]");
    let _ = writeln!(j, "}}");
    if let Err(e) = std::fs::write("results/exp_transport.json", &j) {
        eprintln!("exp_transport: could not write results/exp_transport.json: {e}");
    } else {
        println!("\n(JSON copy written to results/exp_transport.json)");
    }
}
