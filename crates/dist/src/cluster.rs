//! Wiring: spawn the managers, hand out clients, observe, shut down.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ceh_locks::{LockManager, LockManagerConfig};
use ceh_net::{FaultPlan, LatencyModel, MsgStatsSnapshot, PortId, SimNetwork};
use ceh_obs::{MetricsHandle, RunReport, TraceReport};
use ceh_storage::{
    BackendKind, DiskHandle, DurableConfig, DurableStore, PageBuf, PageStore, PageStoreConfig,
};
use ceh_types::bucket::Bucket;
use ceh_types::{BucketLink, Error, HashFileConfig, ManagerId, PageId, Result, RetryPolicy};

use crate::bucket_mgr::run_front_end;
use crate::client::DistClient;
use crate::directory_mgr::DirectoryManager;
use crate::msg::Msg;
use crate::replica::{DirEntry, DirReplica};
use crate::site::{bucket_mgr_name, dir_mgr_name, Site};
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
    /// When set, each site's pages live in `<data_dir>/site-<i>.ceh`
    /// (file-backed, durable); [`Cluster::recover`] can rebuild the
    /// cluster from those files after a shutdown.
    pub data_dir: Option<std::path::PathBuf>,
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
    /// Crash-consistent sites: every site's pages are backed by a redo
    /// WAL over an in-memory disk image, [`Cluster::crash_site`] becomes
    /// a real power loss (all volatile state dropped), and
    /// [`Cluster::restart_site`] recovers the site from its durable
    /// image alone. With [`BackendKind::Memory`] the image is in-memory
    /// and `data_dir` must be unset; with [`BackendKind::File`] each
    /// site's frames + WAL live under `<data_dir>/site-<i>/`.
    pub durable: bool,
    /// Where a durable site's medium lives (see
    /// [`ceh_storage::PageBackend`]): the deterministic in-memory image
    /// (default), or real files with fsync under `data_dir`.
    pub backend: BackendKind,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            dir_managers: 2,
            bucket_managers: 2,
            file: HashFileConfig::tiny(),
            page_quota: None,
            latency: LatencyModel::none(),
            data_dir: None,
            faults: None,
            retry: RetryPolicy::default(),
            resend_ms: 200,
            reply_timeout_ms: 30_000,
            durable: false,
            backend: BackendKind::Memory,
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
        let (net, sites) = Self::build_sites(&cfg, false, &metrics)?;
        // The root bucket lives on site 0 (logged when the site is
        // durable, so a power cut never yields an empty allocated page).
        let root_page = {
            let s0 = &sites[0];
            let txn = s0.begin_txn()?;
            let page = s0.alloc_page()?;
            let mut buf = s0.new_buf();
            s0.putbucket(page, &Bucket::new(0, 0), &mut buf)?;
            txn.commit()?;
            page
        };
        let root = BucketLink::new(sites[0].id, root_page);
        let replica = DirReplica::new(cfg.file.max_depth, root);
        Ok(Self::spawn(&cfg, net, sites, replica, metrics))
    }

    /// Rebuild a cluster from the durable site files a previous
    /// `data_dir`-configured cluster left behind. Scans every site's
    /// pages, collects crash debris (poisoned free pages, orphaned
    /// tombstones), reconstructs the directory — entry versions come
    /// straight from the buckets, which persist them — and starts the
    /// managers with identical replicas. The rebuilt cluster is
    /// invariant-checked before being returned.
    pub fn recover(cfg: ClusterConfig) -> Result<Cluster> {
        if cfg.data_dir.is_none() {
            return Err(Error::Config("recover requires data_dir".into()));
        }
        if cfg.durable {
            return Err(Error::Config(
                "Cluster::recover scans the legacy non-durable site files; a durable site \
                 comes back via restart_site (or ServeNode over the same data_dir)"
                    .into(),
            ));
        }
        let metrics = MetricsHandle::new();
        let (net, sites) = Self::build_sites(&cfg, true, &metrics)?;

        // Scan all sites.
        let mut live: Vec<(ManagerId, PageId, Bucket)> = Vec::new();
        for site in &sites {
            let mut buf = site.new_buf();
            for page in site.store.allocated_page_ids() {
                site.store.read(page, &mut buf)?;
                match Bucket::decode(&buf) {
                    Ok(b) if !b.is_deleted() => live.push((site.id, page, b)),
                    _ => site.store.dealloc(page)?, // free-page poison or tombstone
                }
            }
        }
        let replica = if live.is_empty() {
            let root_page = sites[0].store.alloc()?;
            let root = Bucket::new(0, 0);
            let mut buf = sites[0].new_buf();
            root.encode(&mut buf)?;
            sites[0].store.write(root_page, &buf)?;
            DirReplica::new(cfg.file.max_depth, BucketLink::new(sites[0].id, root_page))
        } else {
            let depth = live
                .iter()
                .map(|(_, _, b)| b.localdepth)
                .max()
                .expect("non-empty");
            let size = 1usize << depth;
            let mut entries: Vec<Option<DirEntry>> = vec![None; size];
            let mut depthcount = 0u32;
            for (mgr, page, b) in &live {
                if b.localdepth == depth {
                    depthcount += 1;
                }
                let step = 1usize << b.localdepth;
                let mut i = b.commonbits as usize;
                while i < size {
                    if entries[i].is_some() {
                        return Err(Error::Corrupt(format!(
                            "recovery: entry {i:0w$b} claimed twice",
                            w = depth as usize
                        )));
                    }
                    entries[i] = Some(DirEntry {
                        mgr: *mgr,
                        page: *page,
                        version: b.version,
                    });
                    i += step;
                }
            }
            let entries: Vec<DirEntry> = entries
                .into_iter()
                .enumerate()
                .map(|(i, e)| {
                    e.ok_or_else(|| {
                        Error::Corrupt(format!(
                            "recovery: no bucket covers entry {i:0w$b}",
                            w = depth as usize
                        ))
                    })
                })
                .collect::<Result<_>>()?;
            DirReplica::restore(cfg.file.max_depth, entries, depthcount)?
        };
        let cluster = Self::spawn(&cfg, net, sites, replica, metrics);
        cluster.check_invariants()?;
        Ok(cluster)
    }

    /// Build the network and the per-site state (memory- or file-backed).
    fn build_sites(
        cfg: &ClusterConfig,
        open_existing: bool,
        metrics: &MetricsHandle,
    ) -> Result<(SimNetwork<Msg>, Vec<Arc<Site>>)> {
        if cfg.dir_managers == 0 || cfg.bucket_managers == 0 {
            return Err(Error::Config(
                "cluster needs at least one manager of each kind".into(),
            ));
        }
        match (cfg.backend, cfg.durable, &cfg.data_dir) {
            (BackendKind::File, true, Some(_)) => {}
            (BackendKind::File, _, _) => {
                return Err(Error::Config(
                    "the file backend needs durable mode and a data_dir to put its files in".into(),
                ));
            }
            (BackendKind::Memory, true, Some(_)) => {
                return Err(Error::Config(
                    "durable mode carries its own in-memory disk image; it cannot combine with data_dir (use backend: File for durable files)".into(),
                ));
            }
            _ => {}
        }
        cfg.file.validate()?;
        let net: SimNetwork<Msg> = SimNetwork::with_metrics(cfg.latency.clone(), metrics);
        net.set_fault_plan(cfg.faults.clone());
        let dnet: DistNet = Arc::new(net.clone());
        let page_size = Bucket::page_size_for(cfg.file.bucket_capacity);
        let all_managers: Vec<ManagerId> = (0..cfg.bucket_managers as u32).map(ManagerId).collect();
        let mut sites = Vec::new();
        for &id in &all_managers {
            let store_cfg = PageStoreConfig {
                page_size,
                io_latency_ns: cfg.file.io_latency_ns,
                initial_pages: if cfg.data_dir.is_some() { 0 } else { 64 },
                ..Default::default()
            };
            let (store, wal) = match (&cfg.data_dir, cfg.durable) {
                (None, true) => {
                    let wal = DurableStore::new(
                        DurableConfig {
                            page: store_cfg,
                            ..Default::default()
                        },
                        metrics,
                    );
                    (Arc::clone(wal.cache()), Some(wal))
                }
                (Some(dir), true) => {
                    // Durable site on the file backend: frames + WAL
                    // under `<data_dir>/site-<i>/`. A cluster start is
                    // always a fresh deployment (create truncates);
                    // restarting *one* site from its surviving files is
                    // `restart_site`, which recovers through the same
                    // DiskHandle regardless of backend.
                    let site_dir = dir.join(format!("site-{}", id.0));
                    let disk = DiskHandle::create_file(&site_dir, page_size)?;
                    let wal = DurableStore::with_disk(
                        disk,
                        DurableConfig {
                            page: store_cfg,
                            ..Default::default()
                        },
                        metrics,
                    )?;
                    (Arc::clone(wal.cache()), Some(wal))
                }
                (None, false) => (PageStore::new_shared_with_metrics(store_cfg, metrics), None),
                (Some(dir), false) => {
                    std::fs::create_dir_all(dir)
                        .map_err(|e| Error::Io(format!("creating data_dir: {e}")))?;
                    let path = dir.join(format!("site-{}.ceh", id.0));
                    let store = Arc::new(if open_existing {
                        PageStore::open_file_with_metrics(&path, store_cfg, metrics)?
                    } else {
                        PageStore::create_file_with_metrics(&path, store_cfg, metrics)?
                    });
                    (store, None)
                }
            };
            sites.push(Arc::new(Site {
                id,
                store: Arc::clone(&store),
                wal,
                locks: Arc::new(LockManager::with_metrics(
                    LockManagerConfig::default(),
                    store.clone(),
                    metrics,
                )),
                cfg: cfg.file.clone(),
                page_quota: cfg.page_quota,
                all_managers: all_managers.clone(),
                net: dnet.clone(),
                recoveries: metrics.counter("dist.recovery_hops"),
                reply_timeout: Duration::from_millis(cfg.reply_timeout_ms),
                seen_gc: std::sync::Mutex::new(std::collections::HashSet::new()),
                fences: std::sync::Mutex::new(std::collections::HashMap::new()),
                metrics: metrics.clone(),
            }));
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
        if let Some(wal) = &self.sites[idx].wal {
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
        let site = match &old.wal {
            None => old,
            Some(dead) => {
                let disk = dead.disk();
                let dcfg = DurableConfig {
                    page: PageStoreConfig {
                        page_size: Bucket::page_size_for(old.cfg.bucket_capacity),
                        io_latency_ns: old.cfg.io_latency_ns,
                        ..Default::default()
                    },
                    ..Default::default()
                };
                let (wal, _report) = DurableStore::recover(&disk, dcfg, &self.metrics)?;
                // Site-local invariant sweep before rejoining: every
                // recovered page must decode as a bucket (tombstones are
                // legitimate — their collection is re-driven).
                let store = Arc::clone(wal.cache());
                let mut buf = PageBuf::zeroed(store.page_size());
                for page in store.allocated_page_ids() {
                    store.read(page, &mut buf)?;
                    Bucket::decode(&buf)?;
                }
                Arc::new(Site {
                    id: old.id,
                    store: Arc::clone(&store),
                    wal: Some(wal),
                    locks: Arc::new(LockManager::with_metrics(
                        LockManagerConfig::default(),
                        store.clone(),
                        &self.metrics,
                    )),
                    cfg: old.cfg.clone(),
                    page_quota: old.page_quota,
                    all_managers: old.all_managers.clone(),
                    net: Arc::new(self.net.clone()),
                    recoveries: self.metrics.counter("dist.recovery_hops"),
                    reply_timeout: old.reply_timeout,
                    seen_gc: std::sync::Mutex::new(std::collections::HashSet::new()),
                    fences: std::sync::Mutex::new(std::collections::HashMap::new()),
                    metrics: self.metrics.clone(),
                })
            }
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
        Arc::clone(&self.sites[idx].store)
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
        let mut total = 0;
        for site in &self.sites {
            let mut buf = site.new_buf();
            for page in site.store.allocated_page_ids() {
                site.store.read(page, &mut buf)?;
                let b = Bucket::decode(&buf)?;
                if !b.is_deleted() {
                    total += b.count();
                }
            }
        }
        Ok(total)
    }

    /// Count of reachable tombstones across all sites (quiescent; should
    /// be zero after garbage collection has drained).
    pub fn tombstone_count(&self) -> Result<usize> {
        let mut total = 0;
        for site in &self.sites {
            let mut buf = site.new_buf();
            for page in site.store.allocated_page_ids() {
                site.store.read(page, &mut buf)?;
                if Bucket::decode(&buf)?.is_deleted() {
                    total += 1;
                }
            }
        }
        Ok(total)
    }

    /// Per-site allocated page counts (placement experiments).
    pub fn pages_per_site(&self) -> Vec<usize> {
        self.sites
            .iter()
            .map(|s| s.store.allocated_pages())
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
    /// 3. the global `next` chain — followed *across sites* via
    ///    (manager, page) links — visits every live bucket exactly once,
    ///    in strictly increasing bit-reversed commonbits order, ending at
    ///    the all-ones bucket;
    /// 4. every record's pseudokey matches its bucket; no duplicate keys;
    /// 5. no allocated page is unreachable (no leaks, no uncollected
    ///    tombstones).
    pub fn check_invariants(&self) -> Result<()> {
        use ceh_types::{hash_key, mask};
        use std::collections::{BTreeMap, BTreeSet};

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

        // Decode every allocated page on every site.
        let mut buckets: BTreeMap<(ManagerId, PageId), Bucket> = BTreeMap::new();
        for site in &self.sites {
            let mut buf = site.new_buf();
            for page in site.store.allocated_page_ids() {
                site.store.read(page, &mut buf)?;
                buckets.insert((site.id, page), Bucket::decode(&buf)?);
            }
        }
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

        // Cross-site chain walk.
        let head = (first.entries[0].mgr, first.entries[0].page);
        let mut visited: BTreeSet<(ManagerId, PageId)> = BTreeSet::new();
        let mut cur = head;
        let mut prev_rev: Option<u64> = None;
        loop {
            if !visited.insert(cur) {
                return Err(Error::Corrupt(format!(
                    "chain revisits {}/{}",
                    cur.0, cur.1
                )));
            }
            let b = buckets.get(&cur).ok_or_else(|| {
                Error::Corrupt(format!("chain reaches missing {}/{}", cur.0, cur.1))
            })?;
            let rev = b.commonbits.reverse_bits();
            if let Some(p) = prev_rev {
                if rev <= p {
                    return Err(Error::Corrupt(format!(
                        "chain order violated at {}/{} (cb {:b})",
                        cur.0, cur.1, b.commonbits
                    )));
                }
            }
            prev_rev = Some(rev);
            if b.next.is_null() {
                if b.localdepth > 0 && b.commonbits != mask(b.localdepth) {
                    return Err(Error::Corrupt(format!(
                        "chain ends at {}/{} (cb {:b}, not all-ones)",
                        cur.0, cur.1, b.commonbits
                    )));
                }
                break;
            }
            cur = (b.next_mgr, b.next);
        }
        if visited.len() != buckets.len() {
            return Err(Error::Corrupt(format!(
                "chain visits {} buckets of {} allocated",
                visited.len(),
                buckets.len()
            )));
        }

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
