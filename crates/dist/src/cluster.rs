//! Wiring: spawn the managers, hand out clients, observe, shut down.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ceh_net::{FaultPlan, LatencyModel, MsgStatsSnapshot, PortId, SimNetwork};
use ceh_obs::{MetricsHandle, RunReport, TraceReport};
use ceh_storage::{rebuild_directory, PageStore};
use ceh_types::bucket::{check_links, Bucket};
use ceh_types::{BucketLink, Error, HashFileConfig, ManagerId, PageId, Result, RetryPolicy};

use crate::bucket_mgr::run_front_end;
use crate::client::DistClient;
use crate::directory_mgr::DirectoryManager;
use crate::msg::Msg;
use crate::replica::{DirEntry, DirReplica};
use crate::site::{bucket_mgr_name, dir_mgr_name, recover_pages, Existing, Site, SiteStorage};
use crate::DistNet;

/// Cluster topology and tuning.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of directory replicas (directory manager processes).
    pub dir_managers: usize,
    /// Number of bucket manager sites.
    pub bucket_managers: usize,
    /// Hash-file parameters (bucket capacity, max depth, merge threshold).
    pub file: HashFileConfig,
    /// Per-site page quota driving remote split placement
    /// (`AvailablePages()`); `None` = always place locally.
    pub page_quota: Option<usize>,
    /// Network latency model (jitter reorders deliveries).
    pub latency: LatencyModel,
    /// Where each bucket site keeps its pages: volatile memory (the
    /// default), a redo WAL over an in-memory image, or a redo WAL over
    /// files under a directory (see [`SiteStorage`]). On a logged site
    /// [`Cluster::crash_site`] is a real power loss and
    /// [`Cluster::restart_site`] recovers the site from its medium
    /// alone; over files, [`Cluster::recover`] rebuilds a whole cluster.
    pub storage: SiteStorage,
    /// Seeded fault plan injected into the network (message drops,
    /// duplication, partitions). `None` = reliable delivery.
    pub faults: Option<FaultPlan>,
    /// Client retry/failover policy handed to every [`Cluster::client`].
    pub retry: RetryPolicy,
    /// How long a directory manager waits before re-sending unacked
    /// `Copyupdate`/`GarbageCollect` traffic and re-driving stalled
    /// requests, in milliseconds.
    pub resend_ms: u64,
    /// How long a bucket slave waits for a protocol reply before
    /// abandoning the handshake and releasing its locks, in
    /// milliseconds. Lower this under fault injection.
    pub reply_timeout_ms: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            dir_managers: 2,
            bucket_managers: 2,
            file: HashFileConfig::tiny(),
            page_quota: None,
            latency: LatencyModel::none(),
            storage: SiteStorage::Volatile,
            faults: None,
            retry: RetryPolicy::default(),
            resend_ms: 200,
            reply_timeout_ms: 30_000,
        }
    }
}

/// A directory manager's observable state (from a `Status` probe).
#[derive(Debug, Clone)]
pub struct DirStatus {
    /// Requests in flight.
    pub rho: usize,
    /// Unacked copyupdates.
    pub alpha: usize,
    /// Parked updates.
    pub parked: usize,
    /// Replica depth.
    pub depth: u32,
    /// Replica entries.
    pub entries: Vec<DirEntry>,
    /// Remembered garbage not yet collected.
    pub pending_garbage: usize,
}

/// A running distributed extendible hash file.
///
/// ```
/// use ceh_dist::{Cluster, ClusterConfig};
/// use ceh_types::{Key, Value};
/// use std::time::Duration;
///
/// let cluster = Cluster::start(ClusterConfig::default())?;
/// let client = cluster.client();
/// for k in 0..50 {
///     client.insert(Key(k), Value(k * 10))?;
/// }
/// assert_eq!(client.find(Key(7))?, Some(Value(70)));
/// assert!(cluster.quiesce(Duration::from_secs(20)));
/// assert!(cluster.replicas_converged());
/// cluster.check_invariants()?;
/// cluster.shutdown();
/// # Ok::<(), ceh_types::Error>(())
/// ```
pub struct Cluster {
    net: SimNetwork<Msg>,
    dir_ports: Vec<PortId>,
    bucket_ports: Vec<PortId>,
    sites: Vec<Arc<Site>>,
    /// One slot per bucket manager; `None` while that site is crashed.
    bucket_handles: Vec<Option<std::thread::JoinHandle<()>>>,
    dir_handles: Vec<std::thread::JoinHandle<()>>,
    retry: RetryPolicy,
    /// The one metrics registry every layer of this cluster reports
    /// into: per-site stores and lock managers, the network, the
    /// directory managers, and every client.
    metrics: MetricsHandle,
    /// Rendering of the fault plan in force (`FaultPlan::describe`), so
    /// every [`Cluster::run_report`] records exactly what was injected.
    fault_plan: Option<String>,
}

impl Cluster {
    /// Spawn the managers and return the running cluster.
    pub fn start(cfg: ClusterConfig) -> Result<Cluster> {
        let metrics = MetricsHandle::new();
        let (net, sites) = Self::build_sites(&cfg, Existing::Truncate, &metrics)?;
        // The root bucket lives on site 0.
        let root = BucketLink::new(sites[0].id, sites[0].buckets.create_root(&cfg.file)?);
        let replica = DirReplica::new(cfg.file.max_depth, root)?;
        Ok(Self::spawn(&cfg, net, sites, replica, metrics))
    }

    /// Rebuild a cluster from the site files a previous cluster with
    /// [`SiteStorage::WalFiles`] left behind, after a clean shutdown or
    /// a power cut. Recovers every site from its WAL, collects the
    /// garbage no directory manager remembers any more (tombstones of
    /// merges whose collection never ran, pages that do not decode) with
    /// logged deallocations, reconstructs the directory — entry versions
    /// come straight from the buckets, which persist them — and starts
    /// the managers with identical replicas. The rebuilt cluster is
    /// invariant-checked before being returned.
    pub fn recover(cfg: ClusterConfig) -> Result<Cluster> {
        let metrics = MetricsHandle::new();
        let (net, sites) = Self::build_sites(&cfg, Existing::Collect, &metrics)?;

        // Every page left on every site is a live bucket.
        let live = all_buckets(&sites)?;
        let replica = if live.is_empty() {
            let root = BucketLink::new(sites[0].id, sites[0].buckets.create_root(&cfg.file)?);
            DirReplica::new(cfg.file.max_depth, root)?
        } else {
            let links = live
                .iter()
                .map(|(&(mgr, page), b)| (BucketLink::new(mgr, page), b));
            let entry = |link, b: &Bucket| DirEntry::new(link, b.version);
            rebuild_directory(cfg.file.max_depth, links, entry)?.into()
        };
        let cluster = Self::spawn(&cfg, net, sites, replica, metrics);
        cluster.check_invariants()?;
        Ok(cluster)
    }

    /// Build the network and the per-site state, opening each site's
    /// pages as `existing` says.
    fn build_sites(
        cfg: &ClusterConfig,
        existing: Existing,
        metrics: &MetricsHandle,
    ) -> Result<(SimNetwork<Msg>, Vec<Arc<Site>>)> {
        if cfg.dir_managers == 0 || cfg.bucket_managers == 0 {
            return Err(Error::Config(
                "cluster needs at least one manager of each kind".into(),
            ));
        }
        cfg.file.validate()?;
        let net: SimNetwork<Msg> = SimNetwork::with_metrics(cfg.latency.clone(), metrics);
        net.set_fault_plan(cfg.faults.clone());
        let dnet: DistNet = Arc::new(net.clone());
        let all_managers: Vec<ManagerId> = (0..cfg.bucket_managers as u32).map(ManagerId).collect();
        let mut sites = Vec::new();
        for &id in &all_managers {
            sites.push(Site::new(
                id,
                cfg.storage.open(id, &cfg.file, existing, metrics)?,
                cfg.file.clone(),
                cfg.page_quota,
                all_managers.clone(),
                dnet.clone(),
                Duration::from_millis(cfg.reply_timeout_ms),
                metrics,
            ));
        }
        Ok((net, sites))
    }

    /// Spawn front ends and directory managers (each directory manager
    /// starts from a clone of the initial replica).
    fn spawn(
        cfg: &ClusterConfig,
        net: SimNetwork<Msg>,
        sites: Vec<Arc<Site>>,
        replica: DirReplica,
        metrics: MetricsHandle,
    ) -> Cluster {
        let mut bucket_handles = Vec::new();
        let mut bucket_ports = Vec::new();
        for site in &sites {
            let (port, rx) = net.create_port();
            net.register_name(bucket_mgr_name(site.id), port);
            bucket_ports.push(port);
            let site = Arc::clone(site);
            bucket_handles.push(Some(
                std::thread::Builder::new()
                    .name(format!("bucket-mgr-{}", site.id))
                    .spawn(move || run_front_end(site, rx))
                    .expect("spawn bucket manager"),
            ));
        }
        let mut dir_handles = Vec::new();
        let mut dir_ports = Vec::new();
        for i in 0..cfg.dir_managers {
            let (port, rx) = net.create_port();
            net.register_name(dir_mgr_name(i), port);
            dir_ports.push(port);
            let mgr = DirectoryManager::with_metrics(
                i,
                cfg.dir_managers,
                Arc::new(net.clone()),
                rx,
                replica.clone(),
                Duration::from_millis(cfg.resend_ms),
                &metrics,
            );
            dir_handles.push(
                std::thread::Builder::new()
                    .name(format!("dir-mgr-{i}"))
                    .spawn(move || mgr.run())
                    .expect("spawn directory manager"),
            );
        }
        Cluster {
            net,
            dir_ports,
            bucket_ports,
            sites,
            bucket_handles,
            dir_handles,
            retry: cfg.retry.clone(),
            metrics,
            fault_plan: cfg.faults.as_ref().map(FaultPlan::describe),
        }
    }

    /// A new client (each owns its own reply port; make one per thread).
    pub fn client(&self) -> DistClient {
        let (_id, rx) = self.net.create_port();
        DistClient::new(
            Arc::new(self.net.clone()),
            rx,
            self.dir_ports.clone(),
            self.retry.clone(),
            &self.metrics,
        )
    }

    /// Kill a bucket manager's front end mid-run: its port closes at a
    /// message boundary (already-queued messages are processed, later
    /// sends fail) and the thread exits. On a volatile site this models
    /// the paper's process failure with intact secondary memory — the
    /// page store survives. On a durable site it is a real power loss:
    /// the site's `DurableStore` is cut, so every later access from a
    /// straggler slave fails and only the durable image (complete up to
    /// the last acked operation) survives for [`Cluster::restart_site`].
    /// Requests routed to the dead site stall and are re-driven by their
    /// directory manager until the restart. Returns `false` if the site
    /// is already down.
    pub fn crash_site(&mut self, idx: usize) -> bool {
        let Some(handle) = self.bucket_handles[idx].take() else {
            return false;
        };
        self.net.close_port(self.bucket_ports[idx]);
        let _ = handle.join();
        if let Some(wal) = self.sites[idx].buckets.wal() {
            wal.power_off();
        }
        true
    }

    /// Restart a crashed bucket manager: a fresh port is bound to the
    /// site's name (overwriting the dead registration) and a new front
    /// end is spawned. A volatile site resumes over the surviving
    /// in-memory state; a durable site is rebuilt **only** from its
    /// durable image — WAL replay, checksum verification, a decode sweep
    /// over every recovered page — with fresh locks, fences, and gc
    /// dedupe state, exactly as a machine coming back from power loss.
    /// Returns `Ok(false)` if the site is not down, and an error if the
    /// durable image fails recovery.
    pub fn restart_site(&mut self, idx: usize) -> Result<bool> {
        if self.bucket_handles[idx].is_some() {
            return Ok(false);
        }
        let old = Arc::clone(&self.sites[idx]);
        let site = match old.buckets.wal() {
            None => old,
            Some(dead) => Site::new(
                old.id,
                recover_pages(&dead.disk(), &old.cfg, false, &self.metrics)?,
                old.cfg.clone(),
                old.page_quota,
                old.all_managers.clone(),
                Arc::new(self.net.clone()),
                old.reply_timeout,
                &self.metrics,
            ),
        };
        self.sites[idx] = Arc::clone(&site);
        let (port, rx) = self.net.create_port();
        self.net.register_name(bucket_mgr_name(site.id), port);
        self.bucket_ports[idx] = port;
        self.bucket_handles[idx] = Some(
            std::thread::Builder::new()
                .name(format!("bucket-mgr-{}", site.id))
                .spawn(move || run_front_end(site, rx))
                .expect("respawn bucket manager"),
        );
        Ok(true)
    }

    /// The backing page store of site `idx`. Chaos tests use the `Arc`
    /// identity to assert that a durable restart abandons the crashed
    /// site's in-memory state instead of resuming over it.
    pub fn site_store(&self, idx: usize) -> Arc<PageStore> {
        Arc::clone(self.sites[idx].buckets.store())
    }

    /// The network (message statistics for the experiments).
    pub fn net(&self) -> &SimNetwork<Msg> {
        &self.net
    }

    /// Message counters so far.
    pub fn msg_stats(&self) -> MsgStatsSnapshot {
        self.net.stats()
    }

    /// The cluster-wide metrics handle: every site's store and lock
    /// manager, the network, the directory managers, and every client
    /// spawned by [`Cluster::client`] report into this one registry.
    pub fn metrics(&self) -> MetricsHandle {
        self.metrics.clone()
    }

    /// Collect everything the cluster has recorded so far into one
    /// [`RunReport`], tagged with the topology.
    pub fn run_report(&self, name: &str) -> RunReport {
        RunReport::collect(name, &self.metrics)
            .with_meta("dir_managers", self.dir_ports.len())
            .with_meta("bucket_managers", self.sites.len())
            .with_meta(
                "fault_plan",
                self.fault_plan.as_deref().unwrap_or("none (reliable)"),
            )
    }

    /// Drain the cluster's shared tracer (every layer of every site
    /// records into the one ring) and reassemble the events into
    /// per-trace causal trees. Tracing must have been enabled first
    /// (`cluster.metrics().tracer().enable(capacity)`); draining resets
    /// the ring, so consecutive calls cover disjoint windows.
    pub fn trace_report(&self) -> TraceReport {
        let tracer = self.metrics.tracer();
        let dropped = tracer.dropped();
        TraceReport::from_events(tracer.drain(), dropped)
    }

    /// Probe every directory manager's status.
    pub fn dir_statuses(&self) -> Vec<DirStatus> {
        let (_id, rx) = self.net.create_port();
        let mut out = Vec::new();
        for &p in &self.dir_ports {
            self.net.send(
                p,
                Msg::Status {
                    reply_port: rx.id(),
                },
            );
            match rx.recv_timeout(Duration::from_secs(10)) {
                Ok(Msg::StatusReply {
                    rho,
                    alpha,
                    parked,
                    depth,
                    entries,
                    pending_garbage,
                }) => {
                    out.push(DirStatus {
                        rho,
                        alpha,
                        parked,
                        depth,
                        entries,
                        pending_garbage,
                    });
                }
                _ => out.push(DirStatus {
                    rho: usize::MAX,
                    alpha: usize::MAX,
                    parked: usize::MAX,
                    depth: 0,
                    entries: Vec::new(),
                    pending_garbage: usize::MAX,
                }),
            }
        }
        out
    }

    /// Wait until every directory manager is idle (no requests in
    /// flight, no unacked copyupdates, nothing parked, no pending
    /// garbage) and stays idle for two consecutive probes. Returns
    /// whether quiescence was reached within `timeout`. Polls with
    /// bounded exponential backoff (1 ms doubling to 100 ms) so a long
    /// drain doesn't spin the status channel.
    pub fn quiesce(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut calm_streak = 0;
        let mut backoff = Duration::from_millis(1);
        while Instant::now() < deadline {
            let calm = self
                .dir_statuses()
                .iter()
                .all(|s| s.rho == 0 && s.alpha == 0 && s.parked == 0 && s.pending_garbage == 0);
            if calm {
                calm_streak += 1;
                if calm_streak >= 2 {
                    return true;
                }
                // A calm probe resets the backoff: confirmation should
                // come quickly.
                backoff = Duration::from_millis(1);
            } else {
                calm_streak = 0;
                backoff = (backoff * 2).min(Duration::from_millis(100));
            }
            std::thread::sleep(backoff);
        }
        false
    }

    /// Have all directory replicas converged to identical contents?
    /// (Meaningful at quiescence.)
    pub fn replicas_converged(&self) -> bool {
        let statuses = self.dir_statuses();
        statuses
            .windows(2)
            .all(|w| w[0].depth == w[1].depth && w[0].entries == w[1].entries)
    }

    /// Total live records across all sites (quiescent; walks every
    /// allocated page and decodes it).
    pub fn total_records(&self) -> Result<usize> {
        let buckets = all_buckets(&self.sites)?;
        Ok(buckets
            .values()
            .filter(|b| !b.is_deleted())
            .map(Bucket::count)
            .sum())
    }

    /// Count of reachable tombstones across all sites (quiescent; should
    /// be zero after garbage collection has drained).
    pub fn tombstone_count(&self) -> Result<usize> {
        let buckets = all_buckets(&self.sites)?;
        Ok(buckets.values().filter(|b| b.is_deleted()).count())
    }

    /// Per-site allocated page counts (placement experiments).
    pub fn pages_per_site(&self) -> Vec<usize> {
        self.sites
            .iter()
            .map(|s| s.buckets.store().allocated_pages())
            .collect()
    }

    /// Total wrong-bucket recovery hops across all sites (stale-route
    /// accounting; includes same-site chases that send no message).
    pub fn total_recovery_hops(&self) -> u64 {
        // Every site shares the registry's one `dist.recovery_hops`
        // counter, so reading it once is already the cluster total.
        self.metrics.counter("dist.recovery_hops").get()
    }

    /// Full structural invariant check across the cluster (quiescent use
    /// only). The distributed analogue of
    /// `ceh_core::invariants::check_concurrent_file`:
    ///
    /// 1. every directory replica is identical (depth + entries);
    /// 2. every entry routes to an allocated, non-tombstone bucket whose
    ///    `commonbits` match the entry index, with entry version ==
    ///    bucket version (Figure 10's "completely up to date" state);
    /// 3. the link invariants of [`ceh_types::bucket::check_links`],
    ///    with links followed *across sites* as (manager, page) pairs:
    ///    the global `next` chain visits every live bucket exactly once in
    ///    split order, and every `prev` names the bucket's "0" side;
    /// 4. every record's pseudokey matches its bucket; no duplicate keys;
    /// 5. no allocated page is unreachable (no leaks, no uncollected
    ///    tombstones).
    pub fn check_invariants(&self) -> Result<()> {
        use ceh_types::{hash_key, mask};

        let statuses = self.dir_statuses();
        let first = statuses
            .first()
            .ok_or_else(|| Error::Corrupt("no replicas".into()))?;
        for (i, s) in statuses.iter().enumerate() {
            if s.depth != first.depth || s.entries != first.entries {
                return Err(Error::Corrupt(format!(
                    "replica {i} diverges from replica 0"
                )));
            }
        }

        let buckets = all_buckets(&self.sites)?;
        for ((mgr, page), b) in &buckets {
            if b.is_deleted() {
                return Err(Error::Corrupt(format!(
                    "uncollected tombstone at {mgr}/{page} (GC incomplete)"
                )));
            }
            for r in &b.records {
                if !hash_key(r.key).matches(b.commonbits, b.localdepth) {
                    return Err(Error::Corrupt(format!(
                        "{mgr}/{page}: key {:?} does not match commonbits",
                        r.key
                    )));
                }
            }
        }

        // Directory routing + version agreement.
        let depth = first.depth;
        for (i, e) in first.entries.iter().enumerate() {
            let b = buckets.get(&(e.mgr, e.page)).ok_or_else(|| {
                Error::Corrupt(format!("entry {i} points at missing {}/{}", e.mgr, e.page))
            })?;
            if (i as u64) & mask(b.localdepth) != b.commonbits {
                return Err(Error::Corrupt(format!(
                    "entry {i:0w$b} routes to commonbits {:b}",
                    b.commonbits,
                    w = depth as usize
                )));
            }
            if e.version != b.version {
                return Err(Error::Corrupt(format!(
                    "entry {i} at version {} but bucket {}/{} at {}",
                    e.version, e.mgr, e.page, b.version
                )));
            }
        }

        let head = BucketLink::new(first.entries[0].mgr, first.entries[0].page);
        check_links(head, buckets.len(), |l| buckets.get(&(l.manager, l.page)))?;

        // Global duplicate check.
        let mut keys: Vec<u64> = buckets
            .values()
            .flat_map(|b| b.records.iter().map(|r| r.key.0))
            .collect();
        keys.sort_unstable();
        if keys.windows(2).any(|w| w[0] == w[1]) {
            return Err(Error::Corrupt("duplicate key across sites".into()));
        }
        Ok(())
    }

    /// Orderly shutdown: stop every manager loop and join. A site still
    /// crashed at shutdown is simply skipped.
    pub fn shutdown(mut self) {
        for &p in self.dir_ports.iter().chain(self.bucket_ports.iter()) {
            self.net.send(p, Msg::Shutdown);
        }
        for h in self.bucket_handles.iter_mut().filter_map(Option::take) {
            let _ = h.join();
        }
        for h in self.dir_handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Every allocated page of every site, decoded, by (manager, page)
/// (quiescent use only).
fn all_buckets(sites: &[Arc<Site>]) -> Result<BTreeMap<(ManagerId, PageId), Bucket>> {
    let mut buckets = BTreeMap::new();
    for site in sites {
        for (page, bucket) in site.buckets.scan() {
            buckets.insert((site.id, page), bucket?);
        }
    }
    Ok(buckets)
}
