//! `tcp-churn`: real `ceh serve` processes on the file backend, dialled
//! through the public `TcpClusterClient`.
//!
//! Topology: two directory managers and one bucket manager. The node
//! options hard-code `page_quota: None` (`crates/dist/src/node.rs`), so
//! every split stays on the first bucket site and a second bucket site
//! would sit idle; the run reports pages per bucket site to show it.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ceh_core::{ConcurrentHashFile, Solution2};
use ceh_dist::{AdminClient, ClusterSpec, NodeOptions, NodeRole, TcpClusterClient};
use ceh_obs::json::Json;
use ceh_types::{HashFileConfig, InsertOutcome, RetryPolicy, RECORD_BYTES};

use crate::layers;
use crate::phase::{self, Phase};
use crate::procfs::{self, ChildUsage};
use crate::report::{num_obj, Report};
use crate::stats::{self, LatencySummary, PerOp};
use crate::workload::{shuffle, Caller, Mix, Op, Outcome};
use crate::{Args, CALLERS, SETUP_REPEATS};

/// Records preloaded: about 30 pages, far inside the bucket site's
/// 1 024-page buffer cache, and loadable in about a second.
pub const KEYS: u32 = 4096;

/// Records per bucket: one 4 KiB page, as in the in-process workloads.
const CAPACITY: usize = 250;

/// Directory managers, then bucket managers, in spec order.
const ROLES: [NodeRole; 3] = [NodeRole::Dir, NodeRole::Dir, NodeRole::Bucket];

/// Plane node ids of the benchmark's own client and admin connections
/// (spec nodes use 1..=3).
const CLIENT_NODE: u16 = 100;
const ADMIN_NODE: u16 = 101;

/// Finds replayed by the layer probe on the local mirror.
const PROBE_SAMPLE: usize = 20_000;

/// The flush policy `ceh serve` runs with: `DurableConfig::default()`.
const FLUSH_POLICY: &str =
    "ceh serve defaults: group_commit 1 (fsync per commit), checkpoint_every 32, cache_pages 1024";

fn node_options() -> NodeOptions {
    NodeOptions {
        file: HashFileConfig::tiny().with_bucket_capacity(CAPACITY),
        ..NodeOptions::default()
    }
}

/// One node process and, once reaped, what it used.
struct Node {
    child: Child,
    role: NodeRole,
    usage: Option<ChildUsage>,
}

/// A running cluster. Dropping it kills every node still running and
/// removes its data directory, on every exit path.
struct Cluster {
    nodes: Vec<Node>,
    data_dir: PathBuf,
    conn: Option<TcpClusterClient>,
    admin: Option<AdminClient>,
}

/// Distinct loopback ports, free when asked for.
fn free_ports(n: usize) -> Result<Vec<std::net::SocketAddr>, String> {
    let listeners: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    listeners
        .iter()
        .map(|l| l.local_addr().map_err(|e| e.to_string()))
        .collect()
}

impl Cluster {
    /// Start every node on fresh ports over a fresh data directory and
    /// connect a client.
    fn start(ceh: &Path, data_dir: PathBuf, seed: u64) -> Result<Cluster, String> {
        let _ = std::fs::remove_dir_all(&data_dir);
        std::fs::create_dir_all(&data_dir).map_err(|e| format!("{}: {e}", data_dir.display()))?;
        let addrs = free_ports(ROLES.len())?;
        let spec = ClusterSpec {
            nodes: ROLES.iter().copied().zip(addrs).collect(),
        };
        let mut cluster = Cluster {
            nodes: Vec::new(),
            data_dir,
            conn: None,
            admin: None,
        };
        for (i, &role) in ROLES.iter().enumerate() {
            let log = std::fs::File::create(cluster.data_dir.join(format!("node-{i}.log")))
                .map_err(|e| e.to_string())?;
            let child = Command::new(ceh)
                .arg("serve")
                .args(["--cluster", &spec.to_string(), "--node", &i.to_string()])
                .args(["--backend", "file", "--data-dir"])
                .arg(&cluster.data_dir)
                .args([
                    "--capacity",
                    &CAPACITY.to_string(),
                    "--seed",
                    &seed.to_string(),
                ])
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(log)
                .spawn()
                .map_err(|e| format!("starting {}: {e}", ceh.display()))?;
            cluster.nodes.push(Node {
                child,
                role,
                usage: None,
            });
        }
        let retry = RetryPolicy {
            attempts: 1,
            timeout_ms: 10_000,
            ..RetryPolicy::default()
        };
        let conn = TcpClusterClient::connect(&spec, CLIENT_NODE, retry, &node_options())
            .map_err(|e| format!("connecting to the cluster: {e}"))?;
        cluster.conn = Some(conn);
        cluster.admin = Some(
            AdminClient::connect(&spec, ADMIN_NODE, &node_options()).map_err(|e| e.to_string())?,
        );
        Ok(cluster)
    }

    fn conn(&self) -> &TcpClusterClient {
        self.conn.as_ref().expect("connected")
    }

    fn pids(&self, role: Option<NodeRole>) -> Vec<u32> {
        self.nodes
            .iter()
            .filter(|n| role.is_none_or(|r| n.role == r))
            .map(|n| n.child.id())
            .collect()
    }

    fn cpu_s(&self, role: Option<NodeRole>) -> Result<f64, String> {
        self.pids(role)
            .into_iter()
            .map(|p| procfs::cpu_s(p).ok_or_else(|| format!("node {p} is gone")))
            .sum()
    }

    fn poll(&self) -> Result<Vec<Json>, String> {
        let admin = self.admin.as_ref().expect("connected");
        admin
            .poll(Duration::from_secs(10))
            .into_iter()
            .map(|r| {
                r.snapshot
                    .ok_or_else(|| format!("node {} did not answer a poll", r.node))
            })
            .collect()
    }

    /// Ask every node to exit and reap it; a node that does not exit in
    /// time is killed. Returns each node's lifetime usage.
    fn shutdown(&mut self) -> Result<Vec<ChildUsage>, String> {
        if let Some(admin) = self.admin.take() {
            admin.close();
        }
        if let Some(conn) = self.conn.take() {
            conn.shutdown_cluster();
        }
        for n in &mut self.nodes {
            if n.usage.is_none() {
                let pid = n.child.id();
                let mut usage =
                    procfs::reap(pid, Duration::from_secs(10)).map_err(|e| e.to_string())?;
                if usage.is_none() {
                    let _ = n.child.kill();
                    usage =
                        procfs::reap(pid, Duration::from_secs(10)).map_err(|e| e.to_string())?;
                }
                n.usage = Some(usage.ok_or_else(|| format!("node {pid} would not exit"))?);
            }
        }
        Ok(self
            .nodes
            .iter()
            .map(|n| n.usage.expect("reaped"))
            .collect())
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        if let Some(admin) = self.admin.take() {
            admin.close();
        }
        if let Some(conn) = self.conn.take() {
            conn.close();
        }
        for n in &mut self.nodes {
            if n.usage.is_none() {
                let _ = n.child.kill();
                let _ = procfs::reap(n.child.id(), Duration::from_secs(10));
            }
        }
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}

/// Load every caller's keys, one thread per caller, each in seeded order.
fn preload(cluster: &Cluster, callers: &[Caller], seed: u64) -> Result<(), String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = callers
            .iter()
            .map(|c| {
                s.spawn(move || -> Result<(), String> {
                    let client = cluster.conn().client();
                    let mut keys: Vec<_> = c.live_keys().collect();
                    shuffle(&mut keys, seed);
                    for k in keys {
                        match client.insert(k, c.value(k)) {
                            Ok(InsertOutcome::Inserted) => {}
                            other => {
                                return Err(format!("preload insert {k:?} returned {other:?}"))
                            }
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("preload thread panicked"))
    })
}

/// Every live key of every oracle must be found with its value.
fn sweep(cluster: &Cluster, callers: &[Caller]) -> Result<u64, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = callers
            .iter()
            .map(|c| {
                s.spawn(move || -> Result<u64, String> {
                    let client = cluster.conn().client();
                    for k in c.live_keys() {
                        let got = client
                            .find(k)
                            .map_err(|e| format!("sweep find {k:?}: {e}"))?;
                        if got != Some(c.value(k)) {
                            return Err(format!("sweep: {k:?} returned {got:?}"));
                        }
                    }
                    Ok(c.live_len() as u64)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep thread panicked"))
            .sum()
    })
}

fn timed_phase(
    cluster: &Cluster,
    callers: &mut [Caller],
    length: Duration,
) -> Result<Phase, String> {
    let cpu_s = || cluster.cpu_s(None).ok();
    phase::run(callers, Mix::Churn, length, &cpu_s, |_| {
        let client = cluster.conn().client();
        move |op| match op {
            Op::Find(k) => client.find(k).map(Outcome::Found),
            Op::Insert(k, v) => client.insert(k, v).map(Outcome::Inserted),
            Op::Delete(k) => client.delete(k).map(Outcome::Deleted),
        }
    })
}

/// Bytes of every file under `dir`.
fn bytes_under(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        let meta = entry.metadata().map_err(|e| e.to_string())?;
        total += if meta.is_dir() {
            bytes_under(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

fn counter(doc: &Json, name: &str) -> f64 {
    doc.get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

fn prefix_sum(doc: &Json, prefix: &str) -> f64 {
    doc.get("counters").and_then(Json::as_obj).map_or(0.0, |c| {
        c.iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .filter_map(|(_, v)| v.as_f64())
            .sum()
    })
}

/// `(count, sum, p50)` of a node's histogram (all zero if absent).
fn hist(doc: &Json, name: &str) -> (f64, f64, f64) {
    let h = doc.get("hists").and_then(|h| h.get(name));
    let f = |field: &str| {
        h.and_then(|h| h.get(field))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    (f("count"), f("count") * f("mean"), f("p50"))
}

/// Sum over `nodes` of `f(after) - f(before)`.
fn delta(before: &[Json], after: &[Json], nodes: &[usize], f: impl Fn(&Json) -> f64) -> f64 {
    nodes.iter().map(|&i| f(&after[i]) - f(&before[i])).sum()
}

/// Pages held by each bucket site.
fn pages_per_site(poll: &[Json]) -> Vec<f64> {
    ROLES
        .iter()
        .enumerate()
        .filter(|(_, r)| **r == NodeRole::Bucket)
        .map(|(i, _)| counter(&poll[i], "storage.allocs") - counter(&poll[i], "storage.deallocs"))
        .collect()
}

fn note_env(args: &Args, r: &mut Report, data_dir: &Path) {
    r.note("keys", Json::Num(f64::from(KEYS)));
    r.note(
        "topology",
        Json::Str(format!(
            "ceh serve: 2 dir + 1 bucket, --backend file --capacity {CAPACITY}, {CALLERS} callers on one TcpClusterClient"
        )),
    );
    r.note("flush_policy", Json::Str(FLUSH_POLICY.to_string()));
    r.note("data_dir_fs", Json::Str(procfs::fs_type(data_dir)));
    r.note("seconds", Json::Num(args.seconds as f64));
}

pub fn run(args: &Args, r: &mut Report) -> Result<(), String> {
    let mut callers: Vec<Caller> = (0..CALLERS)
        .map(|c| Caller::new(args.seed, c, KEYS / CALLERS as u32))
        .collect();
    let data_dir = |n: usize| args.work.join(format!("tcp-{}-{n}", std::process::id()));
    note_env(args, r, &args.work);

    // Set up several times; the last cluster runs the timed phase.
    let mut setups = Vec::new();
    let mut cluster = None;
    let reps = if args.trace { 1 } else { SETUP_REPEATS };
    for n in 0..reps {
        if let Some(mut old) = cluster.take() {
            Cluster::shutdown(&mut old)?;
        }
        let t0 = Instant::now();
        let c = Cluster::start(&args.ceh, data_dir(n), args.seed)?;
        preload(&c, &callers, args.seed)?;
        setups.push(t0.elapsed().as_secs_f64());
        cluster = Some(c);
    }
    let mut cluster = cluster.expect("started at least once");
    let preload_ops = u64::from(KEYS);

    let client_metrics = cluster.conn().metrics();
    let all: Vec<usize> = (0..ROLES.len()).collect();
    let dirs: Vec<usize> = (0..ROLES.len())
        .filter(|&i| ROLES[i] == NodeRole::Dir)
        .collect();
    let buckets: Vec<usize> = (0..ROLES.len())
        .filter(|&i| ROLES[i] == NodeRole::Bucket)
        .collect();
    let length = if args.trace {
        Duration::from_secs_f64(args.seconds as f64 / 2.0)
    } else {
        Duration::from_secs(args.seconds)
    };

    let poll0 = cluster.poll()?;
    let client0 = client_metrics.snapshot();
    let cpu0 = (
        cluster.cpu_s(Some(NodeRole::Dir))?,
        cluster.cpu_s(Some(NodeRole::Bucket))?,
        procfs::cpu_s(std::process::id()).ok_or("reading own CPU time")?,
    );
    // Bytes on disk move with the WAL's checkpoint cycle, so they are
    // sampled through the phase and the median is reported.
    let site_dir = cluster.data_dir.join("site-0");
    let stop = AtomicBool::new(false);
    let (p, mut site_bytes) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut samples = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                // A file the store replaces mid-listing fails one sample.
                if let Ok(b) = bytes_under(&site_dir) {
                    samples.push(b as f64);
                }
                std::thread::sleep(Duration::from_millis(200));
            }
            samples
        });
        let p = timed_phase(&cluster, &mut callers, length);
        stop.store(true, Ordering::Relaxed);
        (p, sampler.join().expect("sampler thread panicked"))
    });
    let p = p?;
    if site_bytes.is_empty() {
        return Err(format!("could not size {}", site_dir.display()));
    }
    let site_bytes = stats::median(&mut site_bytes);
    let cpu1 = (
        cluster.cpu_s(Some(NodeRole::Dir))?,
        cluster.cpu_s(Some(NodeRole::Bucket))?,
        procfs::cpu_s(std::process::id()).ok_or("reading own CPU time")?,
    );
    r.note_phase("phase", &p);
    let client1 = client_metrics.snapshot();
    let poll1 = cluster.poll()?;
    r.attempted = p.ops;
    r.failed = p.failed;

    let mut traced_phase = None;
    if args.trace {
        client_metrics.tracer().enable(1 << 16);
        traced_phase = Some(timed_phase(&cluster, &mut callers, length)?);
        client_metrics.tracer().disable();
        layers::write_trace(&client_metrics.tracer().drain(), &layers::trace_path(args))?;
    }
    let swept = sweep(&cluster, &callers)?;
    let live: usize = callers.iter().map(Caller::live_len).sum();
    let pages = pages_per_site(&cluster.poll()?);
    r.note(
        "pages_per_bucket_site",
        Json::Arr(pages.iter().map(|&n| Json::Num(n)).collect()),
    );
    r.note("live_records_after", Json::Num(live as f64));
    let rss_kib: u64 = cluster
        .pids(None)
        .into_iter()
        .map(|pid| procfs::peak_rss_kib(pid).ok_or_else(|| format!("node {pid} is gone")))
        .sum::<Result<u64, String>>()?;
    let usage = cluster.shutdown()?;
    drop(cluster);
    r.note(
        "node_lifetime",
        Json::Arr(
            usage
                .iter()
                .zip(ROLES)
                .map(|(u, role)| {
                    let mut m = std::collections::BTreeMap::new();
                    m.insert("role".to_string(), Json::Str(role.to_string()));
                    m.insert("cpu_s".to_string(), Json::Num(u.cpu_s));
                    m.insert("ctx_switches".to_string(), Json::Num(u.ctx_switches as f64));
                    m.insert("peak_rss_kib".to_string(), Json::Num(u.max_rss_kib as f64));
                    Json::Obj(m)
                })
                .collect(),
        ),
    );

    let ops = p.ops;
    if !args.trace {
        r.note(
            "setup_s_each",
            Json::Arr(setups.iter().map(|&s| Json::Num(s)).collect()),
        );
        r.metric("setup_s", stats::median(&mut setups));
        r.metric("ops_per_s", p.all.ops_per_s());
        r.metric("cpu_us_per_op", p.all.cpu_us_per_op());
        r.metric("rss_mib", rss_kib as f64 / 1024.0);
        r.metric("space_amp", site_bytes / (live * RECORD_BYTES) as f64);
        let finds = LatencySummary::of(&p.all.finds)?;
        r.note_latency("find_latency", &finds);
        r.metric("find_p50_us", finds.p50_ns as f64 / 1e3);
        r.metric("find_p99_us", finds.p99_ns as f64 / 1e3);
        let ups = LatencySummary::of(&p.all.updates)?;
        r.note_latency("update_latency", &ups);
        r.metric("update_p50_us", ups.p50_ns as f64 / 1e3);
        r.metric("update_p99_us", ups.p99_ns as f64 / 1e3);
        return Ok(());
    }

    // Per-layer metrics over the untraced half.
    let traced = traced_phase.expect("traced run");
    r.attempted += traced.ops;
    r.failed += traced.failed;
    let updates = p.all.updates.len() as u64;
    let d = |nodes: &[usize], f: &dyn Fn(&Json) -> f64| delta(&poll0, &poll1, nodes, f);
    let per_op = |count: f64| PerOp::new(count, ops, 1.0);
    let per_kop = |count: f64| PerOp::new(count, ops, 1000.0);
    let per_update = |count: f64| PerOp::new(count, updates, 1.0);
    let client_d = client1.since(&client0);

    // Every split allocates a page at the bucket site, and every merged
    // bucket's page is freed by garbage collection.
    r.metric(
        "core.setup_splits",
        counter(&poll0[buckets[0]], "storage.allocs") - 1.0,
    );
    r.ratio(
        "core.splits_per_kop",
        per_kop(d(&buckets, &|j| counter(j, "storage.allocs"))),
    );
    r.ratio(
        "core.merges_per_kop",
        per_kop(d(&buckets, &|j| counter(j, "storage.deallocs"))),
    );
    r.ratio(
        "core.recovery_hops_per_kop",
        per_kop(d(&buckets, &|j| counter(j, "dist.recovery_hops"))),
    );
    // Bucket sites run their own copy of the site-local algorithm: no
    // core operation spans exist to take self time from.
    r.metric("core.self_ns_per_op", 0.0);
    r.ratio(
        "locks.grants_per_op",
        per_op(d(&buckets, &|j| prefix_sum(j, "locks.grants."))),
    );
    r.ratio(
        "locks.waits_per_kop",
        per_kop(d(&buckets, &|j| prefix_sum(j, "locks.waits."))),
    );
    r.ratio(
        "locks.wait_ns_per_op",
        per_op(d(&buckets, &|j| {
            ["rho", "alpha", "xi"]
                .iter()
                .map(|m| hist(j, &format!("locks.wait_ns.{m}")).1)
                .sum()
        })),
    );
    r.ratio(
        "locks.conversions_per_kop",
        per_kop(d(&buckets, &|j| counter(j, "locks.conversions"))),
    );
    r.ratio(
        "storage.reads_per_op",
        per_op(d(&buckets, &|j| counter(j, "storage.reads"))),
    );
    r.ratio(
        "storage.writes_per_op",
        per_op(d(&buckets, &|j| counter(j, "storage.writes"))),
    );
    r.metric("storage.live_pages", pages.iter().sum());
    r.ratio(
        "storage.fsyncs_per_update",
        per_update(d(&buckets, &|j| counter(j, "storage.backend.syncs"))),
    );
    r.ratio(
        "storage.wal_bytes_per_update",
        per_update(d(&buckets, &|j| counter(j, "storage.wal.sync_bytes"))),
    );
    r.metric(
        "storage.fsync_p50_us",
        hist(&poll1[buckets[0]], "storage.backend.sync_ns").2 / 1e3,
    );
    let hits = d(&buckets, &|j| counter(j, "storage.cache.hits"));
    let misses = d(&buckets, &|j| counter(j, "storage.cache.misses"));
    r.metric(
        "storage.cache_hit_ratio",
        if hits + misses > 0.0 {
            hits / (hits + misses)
        } else {
            0.0
        },
    );
    r.ratio(
        "storage.checkpoints_per_kop",
        per_kop(d(&buckets, &|j| counter(j, "storage.wal.checkpoints"))),
    );

    let msgs = d(&all, &|j| prefix_sum(j, "net.sent.")) + client_d.prefix_sum("net.sent.") as f64;
    r.ratio("net.msgs_per_op", per_op(msgs));
    let frame_bytes = |j: &Json| hist(j, "net.tcp.frame.send_bytes").1;
    let client_bytes = client1
        .hist("net.tcp.frame.send_bytes")
        .map_or(0, |h| h.sum)
        - client0
            .hist("net.tcp.frame.send_bytes")
            .map_or(0, |h| h.sum);
    r.ratio(
        "net.wire_bytes_per_op",
        per_op(d(&all, &frame_bytes) + client_bytes as f64),
    );
    let reconnects = d(&all, &|j| counter(j, "net.tcp.reconnect"))
        + client_d.counter("net.tcp.reconnect") as f64;
    r.metric("net.reconnects", reconnects);

    // Directory-manager request time: p50 weighted by each manager's
    // share of requests; the mean over the untraced half for coverage.
    let (req_n, req_sum) = dirs.iter().fold((0.0, 0.0), |(n, s), &i| {
        let (n1, s1, _) = hist(&poll1[i], "dist.request_ns");
        let (n0, s0, _) = hist(&poll0[i], "dist.request_ns");
        (n + n1 - n0, s + s1 - s0)
    });
    let req_p50_ns = {
        let total: f64 = dirs
            .iter()
            .map(|&i| hist(&poll1[i], "dist.request_ns").0)
            .sum();
        dirs.iter()
            .map(|&i| {
                let (n, _, p50) = hist(&poll1[i], "dist.request_ns");
                if total > 0.0 {
                    p50 * n / total
                } else {
                    0.0
                }
            })
            .sum::<f64>()
    };
    r.metric("dist.request_p50_us", req_p50_ns / 1e3);
    r.metric(
        "dist.bucket_op_p50_us",
        hist(&poll1[buckets[0]], "dist.bucket_op_ns").2 / 1e3,
    );
    r.metric(
        "dist.dir_cpu_us_per_op",
        (cpu1.0 - cpu0.0) * 1e6 / ops as f64,
    );
    r.metric(
        "dist.bucket_cpu_us_per_op",
        (cpu1.1 - cpu0.1) * 1e6 / ops as f64,
    );
    r.metric(
        "dist.client_cpu_us_per_op",
        (cpu1.2 - cpu0.2) * 1e6 / ops as f64,
    );
    // Context switches are only exact from the reaped nodes' lifetime
    // usage (threads that exited included), so they are spread over every
    // op the nodes served.
    let lifetime_ops = preload_ops + p.ops + traced.ops + swept;
    r.ratio(
        "dist.ctx_switches_per_op",
        PerOp::new(
            usage.iter().map(|u| u.ctx_switches as f64).sum(),
            lifetime_ops,
            1.0,
        ),
    );
    r.ratio(
        "dist.redrives_per_kop",
        per_kop(d(&dirs, &|j| counter(j, "dist.redrives"))),
    );
    r.ratio(
        "dist.client_retries_per_kop",
        per_kop(client_d.counter("dist.client.retries") as f64),
    );
    r.ratio(
        "dist.copyupdate_rounds_per_kop",
        per_kop(d(&dirs, &|j| counter(j, "dist.copyupdate_rounds"))),
    );
    r.metric(
        "obs.trace_overhead_frac",
        1.0 - traced.all.ops_per_s() / p.all.ops_per_s(),
    );
    r.note_phase("traced", &traced);

    // Per-call costs of the layers a bucket site runs, probed on a local
    // file holding the same live records with the same bucket capacity.
    let mirror = Solution2::new(node_options().file).map_err(|e| e.to_string())?;
    for c in &callers {
        for k in c.live_keys() {
            mirror.insert(k, c.value(k)).map_err(|e| e.to_string())?;
        }
    }
    let per_caller = PROBE_SAMPLE / callers.len();
    let sample: Vec<_> = callers
        .iter_mut()
        .flat_map(|c| c.sample(per_caller))
        .collect();
    let out = layers::spans_path(args);
    let costs = layers::probe(mirror.core(), &mirror, &sample, &out)?;
    costs.report(r);
    r.metric("core.dir_depth", f64::from(mirror.core().dir().depth()));

    // The client sees the whole op; the directory manager's request span
    // and the client's own framing are what the layers account for. The
    // rest is the two client hops on the wire and thread hand-offs.
    let mut all_ops = p.all.finds.clone();
    all_ops.merge(&p.all.updates);
    let client_mean_ns = all_ops.mean_ns();
    let req_mean_ns = if req_n > 0.0 { req_sum / req_n } else { 0.0 };
    r.metric(
        "trace.unexplained_frac",
        stats::unexplained_frac(client_mean_ns, req_mean_ns + costs.client_codec_ns),
    );
    // TCP planes record no per-frame delivery time, so one client hop is
    // derived: half the client's median op time outside the manager's.
    let client_p50_ns = all_ops.percentile(0.5) as f64;
    r.metric(
        "net.delivery_p50_us",
        ((client_p50_ns - req_p50_ns) / 2.0).max(0.0) / 1e3,
    );
    r.note(
        "probe",
        num_obj(&[
            ("replayed_finds", costs.samples as f64),
            ("client_mean_ns", client_mean_ns),
            ("dir_request_mean_ns", req_mean_ns),
            ("client_codec_ns", costs.client_codec_ns),
            ("lifetime_ops", lifetime_ops as f64),
        ]),
    );
    Ok(())
}
