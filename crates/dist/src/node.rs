//! Running the distributed hash file as real processes.
//!
//! [`crate::Cluster`] wires every manager into one process over the
//! simulated plane. This module is the same wiring over
//! [`ceh_net::TcpPlane`]: each manager runs in its own OS process
//! (`ceh serve --cluster <spec> --node <i>`), clients connect from
//! anywhere (`ceh client`), and the only shared state is the
//! [`ClusterSpec`] — a textual description of who listens where.
//!
//! Bootstrap conventions (no coordination service, matching the paper's
//! static manager population):
//!
//! * Node ids are spec positions plus one (node 0 is the simulated
//!   plane's namespace in [`ceh_net::PortId::for_node`] terms).
//! * Bucket managers take [`ManagerId`]s in spec order; directory
//!   managers take replica indices in spec order.
//! * The root bucket lives at `ManagerId(0)`, `PageId(0)`. A fresh
//!   bucket manager 0 allocates and writes it on first start; every
//!   directory manager starts its replica pointing there. Stores are
//!   created with zero preallocated pages so the first allocation *is*
//!   page 0.
//! * Names (`bucket-mgr-N`, `dir-mgr-N`) replicate peer-to-peer over
//!   the plane's `Hello`/`Bind` frames; a node waits for the names it
//!   depends on before serving, and the connection supervisor carries
//!   everyone through peers that start late, crash, or restart.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ceh_net::{FaultPlan, PortId, SupervisorConfig, TcpConfig, TcpPlane, Transport};
use ceh_obs::{MetricsHandle, RunReport};
use ceh_types::{BucketLink, Error, HashFileConfig, ManagerId, PageId, Result, RetryPolicy};

use crate::bucket_mgr::run_front_end;
use crate::client::DistClient;
use crate::directory_mgr::DirectoryManager;
use crate::msg::Msg;
use crate::replica::DirReplica;
use crate::site::{bucket_mgr_name, dir_mgr_name, Existing, Site, SiteStorage};
use crate::DistNet;

/// What a spec entry runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// A directory manager (one replica of the directory).
    Dir,
    /// A bucket manager (front end + slaves over a site page store).
    Bucket,
}

impl std::fmt::Display for NodeRole {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            NodeRole::Dir => "dir",
            NodeRole::Bucket => "bucket",
        })
    }
}

/// The cluster topology every process agrees on: an ordered list of
/// `role@addr` entries. Example:
/// `dir@127.0.0.1:7101,dir@127.0.0.1:7102,bucket@127.0.0.1:7103`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterSpec {
    /// The nodes, in id order (node `i` in the spec is plane node
    /// `i + 1`).
    pub nodes: Vec<(NodeRole, SocketAddr)>,
}

impl ClusterSpec {
    /// Parse a comma-separated `role@host:port` list.
    pub fn parse(s: &str) -> Result<ClusterSpec> {
        let mut nodes = Vec::new();
        for part in s.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (role, addr) = part.split_once('@').ok_or_else(|| {
                Error::Config(format!("spec entry '{part}' is not role@host:port"))
            })?;
            let role = match role {
                "dir" => NodeRole::Dir,
                "bucket" => NodeRole::Bucket,
                other => return Err(Error::Config(format!("unknown node role '{other}'"))),
            };
            let addr: SocketAddr = addr
                .parse()
                .map_err(|e| Error::Config(format!("bad address '{addr}': {e}")))?;
            nodes.push((role, addr));
        }
        let spec = ClusterSpec { nodes };
        spec.validate()?;
        Ok(spec)
    }

    /// At least one manager of each kind, like [`crate::ClusterConfig`].
    pub fn validate(&self) -> Result<()> {
        if self.dir_count() == 0 || self.bucket_count() == 0 {
            return Err(Error::Config(
                "cluster spec needs at least one dir and one bucket node".into(),
            ));
        }
        if self.nodes.len() > usize::from(u16::MAX - 1) {
            return Err(Error::Config("cluster spec has too many nodes".into()));
        }
        Ok(())
    }

    /// Number of directory managers.
    pub fn dir_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|(r, _)| *r == NodeRole::Dir)
            .count()
    }

    /// Number of bucket managers.
    pub fn bucket_count(&self) -> usize {
        self.nodes.len() - self.dir_count()
    }

    /// The plane node id of spec entry `idx`.
    pub fn node_id(&self, idx: usize) -> u16 {
        (idx + 1) as u16
    }

    /// The role-local index of spec entry `idx`: its [`ManagerId`] for
    /// bucket nodes, its replica index for dir nodes.
    pub fn role_index(&self, idx: usize) -> usize {
        let role = self.nodes[idx].0;
        self.nodes[..idx].iter().filter(|(r, _)| *r == role).count()
    }

    /// Every registered name this spec's managers will bind.
    fn all_names(&self) -> Vec<String> {
        (0..self.dir_count())
            .map(dir_mgr_name)
            .chain((0..self.bucket_count()).map(|i| bucket_mgr_name(ManagerId(i as u32))))
            .collect()
    }

    /// A [`TcpConfig`] for spec entry `idx` (or, with `idx == None`, for
    /// a dial-only client node with the given id).
    pub(crate) fn tcp_config(
        &self,
        idx: Option<usize>,
        client_node: u16,
        opts: &NodeOptions,
    ) -> TcpConfig {
        let mut cfg = match idx {
            Some(i) => TcpConfig::new(self.node_id(i)).listen(self.nodes[i].1),
            None => TcpConfig::new(client_node),
        };
        for (j, &(_, addr)) in self.nodes.iter().enumerate() {
            if Some(j) != idx {
                cfg = cfg.peer(self.node_id(j), addr);
            }
        }
        cfg = cfg.supervisor(opts.supervisor);
        cfg.seed = opts.seed;
        cfg
    }
}

impl std::fmt::Display for ClusterSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, (role, addr)) in self.nodes.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{role}@{addr}")?;
        }
        Ok(())
    }
}

/// Tuning shared by [`ServeNode`] and [`TcpClusterClient`]. The
/// file-shape parameters must match across every process of a cluster
/// (they are not negotiated — same rule as `ClusterConfig`).
#[derive(Debug, Clone)]
pub struct NodeOptions {
    /// Hash-file parameters (bucket capacity, max depth, merge
    /// threshold); must be identical on every node.
    pub file: HashFileConfig,
    /// Where a bucket node keeps its pages (see [`SiteStorage`]):
    /// volatile memory (the default), a redo WAL over an in-memory image
    /// (testing), or a redo WAL over files under `<dir>/site-<mgr>/`,
    /// from which a restarted node — even one SIGKILLed — recovers its
    /// acked state.
    pub storage: SiteStorage,
    /// Directory-manager resend interval, in milliseconds.
    pub resend_ms: u64,
    /// Bucket-slave protocol reply timeout, in milliseconds.
    pub reply_timeout_ms: u64,
    /// Seeded fault plan applied to this node's plane (frame drops,
    /// duplication, garbling, severs, delays). `None` = clean sockets.
    pub faults: Option<FaultPlan>,
    /// Seed for the plane's reconnect jitter (and, combined per link,
    /// its fault streams).
    pub seed: u64,
    /// How long to wait for peer names before giving up bootstrap, in
    /// milliseconds.
    pub bootstrap_timeout_ms: u64,
    /// Connection supervisor tuning (heartbeats, backoff, deadlines).
    pub supervisor: SupervisorConfig,
    /// Operations slower than this land in the node's slow-op log
    /// (surfaced by the admin endpoint and `ceh top --slow`). `0`
    /// disables capture entirely.
    pub slow_op_threshold_ms: u64,
}

impl Default for NodeOptions {
    fn default() -> Self {
        NodeOptions {
            file: HashFileConfig::tiny(),
            storage: SiteStorage::Volatile,
            resend_ms: 200,
            reply_timeout_ms: 30_000,
            faults: None,
            seed: 0,
            bootstrap_timeout_ms: 30_000,
            supervisor: SupervisorConfig::default(),
            slow_op_threshold_ms: 250,
        }
    }
}

/// Poll the plane's replicated name table until every `name` resolves.
fn wait_for_names(net: &dyn Transport<Msg>, names: &[String], timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    loop {
        if names.iter().all(|n| net.lookup(n).is_some()) {
            return true;
        }
        if Instant::now() >= deadline {
            return false;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One manager process: a [`TcpPlane`] plus the manager loop for this
/// node's spec entry. Construct with [`ServeNode::start`], block on
/// [`ServeNode::join`] (the loop exits on [`Msg::Shutdown`]).
pub struct ServeNode {
    plane: TcpPlane<Msg>,
    metrics: MetricsHandle,
    handle: Option<std::thread::JoinHandle<Result<()>>>,
    admin: Option<std::thread::JoinHandle<()>>,
    admin_stop: Arc<std::sync::atomic::AtomicBool>,
    role: NodeRole,
    node: u16,
    fault_plan: Option<String>,
}

impl ServeNode {
    /// Bind this node's listener, start supervising every peer, and
    /// spawn the manager loop. Returns as soon as the plane is up; the
    /// manager thread waits (up to `bootstrap_timeout_ms`) for the peer
    /// names it depends on.
    pub fn start(spec: &ClusterSpec, idx: usize, opts: &NodeOptions) -> Result<ServeNode> {
        spec.validate()?;
        opts.file.validate()?;
        if idx >= spec.nodes.len() {
            return Err(Error::Config(format!(
                "node index {idx} out of range (spec has {} nodes)",
                spec.nodes.len()
            )));
        }
        let metrics = MetricsHandle::new();
        if opts.slow_op_threshold_ms > 0 {
            metrics
                .slow_ops()
                .enable(opts.slow_op_threshold_ms * 1_000_000, 256);
        }
        let cfg = spec.tcp_config(Some(idx), 0, opts);
        let plane: TcpPlane<Msg> = TcpPlane::start(cfg, &metrics)
            .map_err(|e| Error::Io(format!("binding {}: {e}", spec.nodes[idx].1)))?;
        // The admin endpoint must see through whatever chaos it is
        // watching: stats frames bypass every probabilistic fault rule.
        plane.set_fault_plan(
            opts.faults
                .clone()
                .map(|p| p.exempt_classes(crate::msg::ADMIN_CLASSES)),
        );
        let net: DistNet = Arc::new(plane.clone());
        let role = spec.nodes[idx].0;
        let role_idx = spec.role_index(idx);
        let bootstrap = Duration::from_millis(opts.bootstrap_timeout_ms);

        let handle = match role {
            NodeRole::Bucket => {
                let mgr = ManagerId(role_idx as u32);
                let site = build_site(spec, mgr, opts, &net, &metrics)?;
                let (port, rx) = net.create_port();
                net.register_name(&bucket_mgr_name(mgr), port);
                std::thread::Builder::new()
                    .name(format!("bucket-mgr-{mgr}"))
                    .spawn(move || {
                        run_front_end(site, rx);
                        Ok(())
                    })
                    .expect("spawn bucket manager")
            }
            NodeRole::Dir => {
                let replica = DirReplica::new(
                    opts.file.max_depth,
                    BucketLink::new(ManagerId(0), PageId(0)),
                )?;
                let (port, rx) = net.create_port();
                net.register_name(&dir_mgr_name(role_idx), port);
                let needed = spec.all_names();
                let dir_count = spec.dir_count();
                let resend = Duration::from_millis(opts.resend_ms);
                let net = net.clone();
                let metrics = metrics.clone();
                std::thread::Builder::new()
                    .name(format!("dir-mgr-{role_idx}"))
                    .spawn(move || {
                        // The dispatch path resolves bucket managers by
                        // name on every send; don't serve until the
                        // whole population has announced itself.
                        if !wait_for_names(net.as_ref(), &needed, bootstrap) {
                            return Err(Error::Unavailable(
                                "bootstrap: peer names never appeared".into(),
                            ));
                        }
                        DirectoryManager::with_metrics(
                            role_idx, dir_count, net, rx, replica, resend, &metrics,
                        )
                        .run();
                        Ok(())
                    })
                    .expect("spawn directory manager")
            }
        };
        // The live observability plane: an admin port answering
        // StatsRequest with windowed snapshots of this node's registry.
        let admin_stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let admin = {
            let plane = plane.clone();
            let metrics = metrics.clone();
            let node = spec.node_id(idx);
            let peers: Vec<u16> = (0..spec.nodes.len())
                .filter(|&j| j != idx)
                .map(|j| spec.node_id(j))
                .collect();
            let stop = admin_stop.clone();
            std::thread::Builder::new()
                .name(format!("admin-{node}"))
                .spawn(move || crate::admin::run_admin(plane, metrics, node, role, peers, stop))
                .expect("spawn admin endpoint")
        };
        Ok(ServeNode {
            plane,
            metrics,
            handle: Some(handle),
            admin: Some(admin),
            admin_stop,
            role,
            node: spec.node_id(idx),
            fault_plan: opts.faults.as_ref().map(FaultPlan::describe),
        })
    }

    /// The address this node's listener actually bound.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.plane.local_addr()
    }

    /// This node's plane (peer states, fault injection, port surface).
    pub fn plane(&self) -> &TcpPlane<Msg> {
        &self.plane
    }

    /// This node's metrics registry.
    pub fn metrics(&self) -> MetricsHandle {
        self.metrics.clone()
    }

    /// Everything this node recorded, tagged with its identity and the
    /// fault plan in force.
    pub fn run_report(&self, name: &str) -> RunReport {
        RunReport::collect(name, &self.metrics)
            .with_meta("node", self.node)
            .with_meta("role", self.role)
            .with_meta(
                "fault_plan",
                self.fault_plan.as_deref().unwrap_or("none (reliable)"),
            )
    }

    /// Block until the manager loop exits (a [`Msg::Shutdown`] arrived
    /// or bootstrap failed), then close the plane.
    pub fn join(mut self) -> Result<()> {
        let out = match self.handle.take() {
            Some(h) => h.join().map_err(|_| Error::Io("manager panicked".into()))?,
            None => Ok(()),
        };
        self.admin_stop
            .store(true, std::sync::atomic::Ordering::Release);
        self.plane.close();
        if let Some(h) = self.admin.take() {
            let _ = h.join();
        }
        out
    }
}

/// Build a bucket node's [`Site`]: its pages as `opts.storage` says,
/// locks, fences, and — on a fresh manager 0 — the root bucket at the
/// conventional `PageId(0)`. A file site whose directory already holds a
/// medium is **recovered** from it: WAL replay, checksum verification,
/// and a decode sweep over every page, exactly like
/// [`Cluster::restart_site`].
///
/// [`Cluster::restart_site`]: crate::Cluster::restart_site
fn build_site(
    spec: &ClusterSpec,
    mgr: ManagerId,
    opts: &NodeOptions,
    net: &DistNet,
    metrics: &MetricsHandle,
) -> Result<Arc<Site>> {
    let site = Site::new(
        mgr,
        opts.storage
            .open(mgr, &opts.file, Existing::Keep, metrics)?,
        opts.file.clone(),
        None,
        (0..spec.bucket_count() as u32).map(ManagerId).collect(),
        net.clone(),
        Duration::from_millis(opts.reply_timeout_ms),
        metrics,
    );
    if mgr == ManagerId(0) && site.buckets.store().allocated_pages() == 0 {
        let root = site.buckets.create_root(&opts.file)?;
        if root != PageId(0) {
            return Err(Error::Corrupt(format!(
                "fresh store allocated {root} for the root, expected page 0"
            )));
        }
    }
    Ok(site)
}

/// A client-side connection to a running TCP cluster: a dial-only plane
/// node that resolves every manager's port and hands out
/// [`DistClient`]s.
pub struct TcpClusterClient {
    plane: TcpPlane<Msg>,
    metrics: MetricsHandle,
    dir_ports: Vec<PortId>,
    bucket_ports: Vec<PortId>,
    retry: RetryPolicy,
}

impl TcpClusterClient {
    /// Dial every node in the spec and wait (up to
    /// `opts.bootstrap_timeout_ms`) for all manager names to resolve.
    /// `client_node` must be unique among concurrently connected
    /// clients of this cluster (spec nodes use `1..=len`; pick
    /// something higher).
    pub fn connect(
        spec: &ClusterSpec,
        client_node: u16,
        retry: RetryPolicy,
        opts: &NodeOptions,
    ) -> Result<TcpClusterClient> {
        spec.validate()?;
        if usize::from(client_node) <= spec.nodes.len() {
            return Err(Error::Config(format!(
                "client node id {client_node} collides with the spec's manager nodes"
            )));
        }
        let metrics = MetricsHandle::new();
        let cfg = spec.tcp_config(None, client_node, opts);
        let plane: TcpPlane<Msg> = TcpPlane::start(cfg, &metrics)
            .map_err(|e| Error::Io(format!("starting client plane: {e}")))?;
        plane.set_fault_plan(
            opts.faults
                .clone()
                .map(|p| p.exempt_classes(crate::msg::ADMIN_CLASSES)),
        );
        let names = spec.all_names();
        if !wait_for_names(
            &plane,
            &names,
            Duration::from_millis(opts.bootstrap_timeout_ms),
        ) {
            plane.close();
            return Err(Error::Unavailable(format!(
                "cluster did not come up within {}ms",
                opts.bootstrap_timeout_ms
            )));
        }
        let dir_ports = (0..spec.dir_count())
            .map(|i| plane.lookup(&dir_mgr_name(i)).expect("waited"))
            .collect();
        let bucket_ports = (0..spec.bucket_count())
            .map(|i| {
                plane
                    .lookup(&bucket_mgr_name(ManagerId(i as u32)))
                    .expect("waited")
            })
            .collect();
        Ok(TcpClusterClient {
            plane,
            metrics,
            dir_ports,
            bucket_ports,
            retry,
        })
    }

    /// A new [`DistClient`] over this connection (one per thread).
    pub fn client(&self) -> DistClient {
        let (_id, rx) = Transport::<Msg>::create_port(&self.plane);
        DistClient::new(
            Arc::new(self.plane.clone()),
            rx,
            self.dir_ports.clone(),
            self.retry.clone(),
            &self.metrics,
        )
    }

    /// The underlying plane (peer states, fault injection).
    pub fn plane(&self) -> &TcpPlane<Msg> {
        &self.plane
    }

    /// This connection's metrics registry (client retry/failover
    /// counters, frame histograms).
    pub fn metrics(&self) -> MetricsHandle {
        self.metrics.clone()
    }

    /// Ask every manager in the cluster to shut down, then close the
    /// local plane. Managers exit their loops at the next message
    /// boundary; `ceh serve` processes then terminate.
    pub fn shutdown_cluster(self) {
        for &p in self.dir_ports.iter().chain(self.bucket_ports.iter()) {
            self.plane.send(p, Msg::Shutdown);
        }
        // One beat for the writer threads to flush the shutdowns.
        std::thread::sleep(Duration::from_millis(50));
        self.plane.close();
    }

    /// Close the local plane without touching the cluster.
    pub fn close(self) {
        self.plane.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceh_types::{Key, Value};

    /// Reserve `n` distinct loopback ports. Binds then drops — a tiny
    /// race with other processes, acceptable in tests.
    fn free_addrs(n: usize) -> Vec<SocketAddr> {
        let listeners: Vec<std::net::TcpListener> = (0..n)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("bind :0"))
            .collect();
        listeners
            .iter()
            .map(|l| l.local_addr().expect("addr"))
            .collect()
    }

    #[test]
    fn spec_parses_and_renders() {
        let spec =
            ClusterSpec::parse("dir@127.0.0.1:7101, bucket@127.0.0.1:7102,bucket@127.0.0.1:7103")
                .expect("parse");
        assert_eq!(spec.dir_count(), 1);
        assert_eq!(spec.bucket_count(), 2);
        assert_eq!(spec.node_id(0), 1);
        assert_eq!(spec.role_index(2), 1, "second bucket node is ManagerId(1)");
        assert_eq!(
            spec.to_string(),
            "dir@127.0.0.1:7101,bucket@127.0.0.1:7102,bucket@127.0.0.1:7103"
        );
        assert!(
            ClusterSpec::parse("dir@127.0.0.1:7101").is_err(),
            "no bucket"
        );
        assert!(ClusterSpec::parse("wat@127.0.0.1:1").is_err());
        assert!(ClusterSpec::parse("dir-127.0.0.1:1").is_err());
    }

    #[test]
    fn two_process_cluster_over_loopback_serves_operations() {
        let addrs = free_addrs(3);
        let spec = ClusterSpec {
            nodes: vec![
                (NodeRole::Dir, addrs[0]),
                (NodeRole::Dir, addrs[1]),
                (NodeRole::Bucket, addrs[2]),
            ],
        };
        let opts = NodeOptions::default();
        let nodes: Vec<ServeNode> = (0..3)
            .map(|i| ServeNode::start(&spec, i, &opts).expect("start node"))
            .collect();
        let conn =
            TcpClusterClient::connect(&spec, 100, RetryPolicy::default(), &opts).expect("connect");
        let client = conn.client().with_timeout(Duration::from_secs(5));
        for k in 0..40u64 {
            client.insert(Key(k), Value(k * 3)).expect("insert");
        }
        assert_eq!(client.find(Key(7)).expect("find"), Some(Value(21)));
        assert_eq!(client.find(Key(999)).expect("find"), None);
        client.delete(Key(7)).expect("delete");
        assert_eq!(client.find(Key(7)).expect("find"), None);
        conn.shutdown_cluster();
        for node in nodes {
            node.join().expect("clean exit");
        }
    }
}
