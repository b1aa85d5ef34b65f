//! Per-site shared state for a bucket manager.
//!
//! "For simplicity, the bucket manager is presented here as a front end
//! process and a set of associated processes that are assumed to reside
//! at the same site and share secondary memory." (§3) — the front end
//! and its slaves share this struct: the site's page store (secondary
//! memory), the site's ρ/α/ξ lock manager, and the page quota that
//! drives `AvailablePages()` / remote splits.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use ceh_locks::{LockId, LockManager, LockManagerConfig, LockMode, OwnerId};
use ceh_net::PortId;
use ceh_obs::{Counter, MetricsHandle};
use ceh_storage::{Buckets, DiskHandle, DurableConfig, DurableStore};
use ceh_types::bucket::Bucket;
use ceh_types::{Error, HashFileConfig, ManagerId, PageId, Result};

use crate::DistNet;

/// Where a bucket site keeps its pages: the one storage choice of a
/// [`crate::ClusterConfig`] and of a [`crate::NodeOptions`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum SiteStorage {
    /// The page store alone, in memory, with no log (the paper's
    /// simulation). A crashed site resumes over its surviving store.
    #[default]
    Volatile,
    /// A redo WAL over a deterministic in-memory disk image: a crash is a
    /// real power loss, and a restarted site comes back from the image
    /// alone.
    WalMemory,
    /// A redo WAL over real files: site `i` keeps its frames, log and
    /// superblock (`frames.ceh`, `wal.ceh`, `meta.ceh`) under
    /// `<dir>/site-<i>/`, fsync'd. A restarted site, or a whole cluster
    /// ([`crate::Cluster::recover`]), recovers from them.
    WalFiles(PathBuf),
}

/// What [`SiteStorage::open`] does with what a site's medium already
/// holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Existing {
    /// Start from an empty medium, truncating a file site's directory (a
    /// new cluster).
    Truncate,
    /// Recover it, strictly (see [`recover_pages`]): one site restarting
    /// while its directory managers run on.
    Keep,
    /// Recover it and collect its garbage (see [`recover_pages`]): a
    /// whole cluster restarting. Only file sites have a medium to reopen.
    Collect,
}

impl SiteStorage {
    /// Open bucket manager `mgr`'s pages for a file shaped by `file`.
    /// Volatile and in-memory logged sites always start empty; a file
    /// site's medium is handled as `existing` says, and an empty one is
    /// started afresh.
    pub(crate) fn open(
        &self,
        mgr: ManagerId,
        file: &HashFileConfig,
        existing: Existing,
        metrics: &MetricsHandle,
    ) -> Result<Buckets> {
        let dcfg = durable_config(file);
        let wal = match self {
            SiteStorage::WalFiles(dir) => {
                let site_dir = dir.join(format!("site-{}", mgr.0));
                let page_size = dcfg.page.page_size;
                let disk = match existing {
                    Existing::Truncate => DiskHandle::create_file(site_dir, page_size)?,
                    Existing::Collect if !site_dir.is_dir() => {
                        return Err(Error::Config(format!(
                            "nothing to recover: {} does not exist",
                            site_dir.display()
                        )));
                    }
                    Existing::Keep | Existing::Collect => {
                        DiskHandle::open_file(site_dir, page_size)?
                    }
                };
                if !disk.is_empty() {
                    return recover_pages(&disk, file, existing == Existing::Collect, metrics);
                }
                DurableStore::with_disk(disk, dcfg, metrics)?
            }
            _ if existing == Existing::Collect => {
                return Err(Error::Config(
                    "only file sites (SiteStorage::WalFiles) leave a medium to recover".into(),
                ));
            }
            SiteStorage::Volatile => return Ok(Buckets::new(file, metrics)),
            SiteStorage::WalMemory => DurableStore::new(dcfg, metrics),
        };
        Ok(wal.into())
    }
}

/// The durable-store configuration of a site holding `file`'s buckets.
fn durable_config(file: &HashFileConfig) -> DurableConfig {
    DurableConfig {
        page: Buckets::page_config(file),
        ..Default::default()
    }
}

/// Bring a logged site's pages back from `disk`: WAL replay and
/// checksum verification ([`DurableStore::recover`]), then the
/// recovery sweep ([`Buckets::sweep`]): with `collect` (a whole cluster
/// restarting) it deallocates garbage through the log, without it (one
/// site restarting) a page that does not decode fails recovery.
pub(crate) fn recover_pages(
    disk: &DiskHandle,
    file: &HashFileConfig,
    collect: bool,
    metrics: &MetricsHandle,
) -> Result<Buckets> {
    let (wal, _report) = DurableStore::recover(disk, durable_config(file), metrics)?;
    let buckets = Buckets::from(wal);
    buckets.sweep(collect)?;
    Ok(buckets)
}

/// Shared state of one bucket-manager site.
pub(crate) struct Site {
    /// This manager's identity.
    pub id: ManagerId,
    /// The site's secondary memory: its page store and, when its
    /// [`SiteStorage`] logs, the redo WAL every mutation goes through
    /// before it is acked.
    pub buckets: Buckets,
    /// The site's lock manager (locks are site-local; cross-site mutual
    /// exclusion is by message protocol).
    pub locks: Arc<LockManager>,
    /// Hash-file tuning (bucket capacity, merge threshold).
    pub cfg: HashFileConfig,
    /// `AvailablePages()`: allocate locally while under this many live
    /// pages; beyond it, new split halves go to another manager.
    pub page_quota: Option<usize>,
    /// Every bucket manager in the cluster, for `MgrWithSpace()`.
    pub all_managers: Vec<ManagerId>,
    /// The message plane (simulated in [`crate::Cluster`], real sockets
    /// under `ceh serve`).
    pub net: DistNet,
    /// Wrong-bucket recovery hops taken by slaves on this site (both
    /// same-site `next` chases and hops that were forwarded in). The
    /// staleness experiment's primary observable: cross-site recoveries
    /// show up as `wrongbucket` messages, but same-site ones only here.
    /// Registered as `dist.recovery_hops`; every site of a cluster
    /// shares one registry, so the instrument is cluster-wide.
    pub recoveries: Arc<Counter>,
    /// How long a slave waits for a protocol reply (MDReply, MUReply,
    /// Goahead, Splitreply, WrongbucketAck) before treating the peer as
    /// gone. Short under fault injection so abandoned handshakes release
    /// their locks promptly.
    pub reply_timeout: Duration,
    /// `GarbageCollect` ids already executed on this site. A directory
    /// manager re-sends collection requests until acked, so a duplicate
    /// must be answered with a fresh ack *without* deallocating again —
    /// the page may have been reallocated to a live bucket in between.
    pub seen_gc: std::sync::Mutex<std::collections::HashSet<u64>>,
    /// Mutation fence: per client port, the highest `req_id` whose
    /// insert/delete was applied on this site. Clients are strictly
    /// sequential, so an arriving mutation with a *lower* id is a zombie
    /// — a re-drive of an attempt the client abandoned (it failed over
    /// to another directory manager and has since moved on). Applying it
    /// could resurrect deleted data; the fence refuses it instead. The
    /// table travels with records along every data-migration path
    /// (`Splitbucket`, `MDReply`, `Goahead`) so a migrated bucket keeps
    /// its protection.
    pub fences: std::sync::Mutex<std::collections::HashMap<PortId, u64>>,
    /// The cluster registry, for bucket-slave trace spans; slaves
    /// install the envelope's [`ceh_obs::TraceCtx`] as the ambient
    /// context so lock waits on this site nest under the request.
    pub metrics: MetricsHandle,
}

impl Site {
    /// A site over `buckets` with fresh locks, fences and collection
    /// dedupe state: a new site, or one coming back from a crash.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: ManagerId,
        buckets: Buckets,
        cfg: HashFileConfig,
        page_quota: Option<usize>,
        all_managers: Vec<ManagerId>,
        net: DistNet,
        reply_timeout: Duration,
        metrics: &MetricsHandle,
    ) -> Arc<Site> {
        Arc::new(Site {
            id,
            locks: Arc::new(LockManager::with_metrics(
                LockManagerConfig::default(),
                buckets.store().clone(),
                metrics,
            )),
            buckets,
            cfg,
            page_quota,
            all_managers,
            net,
            recoveries: metrics.counter("dist.recovery_hops"),
            reply_timeout,
            seen_gc: std::sync::Mutex::new(std::collections::HashSet::new()),
            fences: std::sync::Mutex::new(std::collections::HashMap::new()),
            metrics: metrics.clone(),
        })
    }

    /// `AvailablePages()`: may this site take another bucket?
    pub fn available_pages(&self) -> bool {
        match self.page_quota {
            None => true,
            Some(q) => self.buckets.store().allocated_pages() < q,
        }
    }

    /// `MgrWithSpace()`: pick another manager to host a split half.
    /// Round-robin from our own id; the paper leaves placement policy
    /// open ("allocating buckets to servers on any basis other than
    /// availability of space is a hard problem … not considered here").
    pub fn mgr_with_space(&self) -> ManagerId {
        let n = self.all_managers.len();
        debug_assert!(n > 0);
        if n == 1 {
            return self.id;
        }
        let my_pos = self
            .all_managers
            .iter()
            .position(|&m| m == self.id)
            .expect("self in manager list");
        self.all_managers[(my_pos + 1) % n]
    }

    /// Resolve a manager id to its front-end port (`namelookup`).
    pub fn bucket_port(&self, mgr: ManagerId) -> Option<PortId> {
        self.net.lookup(&bucket_mgr_name(mgr))
    }

    /// Lock helpers mirroring the figures' vocabulary.
    // ceh-lint: allow(unpaired-lock) — delegating shorthand; pairing is the caller's obligation
    pub fn lock(&self, owner: OwnerId, page: PageId, mode: LockMode) {
        self.locks.lock(owner, LockId::Page(page), mode);
    }

    /// [`Site::lock`] `page` and read it (`getbucket`). On a fault — a
    /// page past this site's store, a freed page, a page that does not
    /// decode — nothing stays locked.
    pub fn lock_getbucket(&self, owner: OwnerId, page: PageId, mode: LockMode) -> Result<Bucket> {
        self.buckets.check_link(page)?;
        self.lock(owner, page, mode);
        self.buckets
            .getbucket(page)
            .inspect_err(|_| self.unlock(owner, page, mode))
    }

    /// Unlock a page lock taken with [`Site::lock`].
    pub fn unlock(&self, owner: OwnerId, page: PageId, mode: LockMode) {
        self.locks.unlock(owner, LockId::Page(page), mode);
    }

    /// May a mutation stamped (`user_port`, `req_id`) still apply here?
    /// Equal ids are allowed — that is the same operation re-driven.
    pub fn fence_allows(&self, user_port: PortId, req_id: u64) -> bool {
        match self.fences.lock().expect("fences").get(&user_port) {
            Some(&hi) => req_id >= hi,
            None => true,
        }
    }

    /// Record a mutation execution, raising that port's fence.
    pub fn fence_record(&self, user_port: PortId, req_id: u64) {
        let mut f = self.fences.lock().expect("fences");
        let e = f.entry(user_port).or_insert(req_id);
        *e = (*e).max(req_id);
    }

    /// Snapshot the fence table for shipping alongside migrating records.
    pub fn fence_snapshot(&self) -> Vec<(PortId, u64)> {
        self.fences
            .lock()
            .expect("fences")
            .iter()
            .map(|(&p, &r)| (p, r))
            .collect()
    }

    /// Merge a shipped fence table (pointwise max).
    pub fn fence_merge(&self, shipped: &[(PortId, u64)]) {
        let mut f = self.fences.lock().expect("fences");
        for &(p, r) in shipped {
            let e = f.entry(p).or_insert(r);
            *e = (*e).max(r);
        }
    }
}

/// The registered name of a bucket manager's front-end port.
pub(crate) fn bucket_mgr_name(mgr: ManagerId) -> String {
    format!("bucket-mgr-{}", mgr.0)
}

/// The registered name of a directory manager's port.
pub(crate) fn dir_mgr_name(idx: usize) -> String {
    format!("dir-mgr-{idx}")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Build a standalone site for protocol-handler unit tests.
    pub(crate) fn test_site(id: u32, managers: u32, quota: Option<usize>) -> Arc<Site> {
        let cfg = HashFileConfig::tiny().with_bucket_capacity(4);
        let net = Arc::new(ceh_net::SimNetwork::default());
        test_site_on(id, managers, quota, cfg, net)
    }

    /// [`test_site`] with config `cfg`, on `net` (shared by sites that
    /// talk to each other).
    pub(crate) fn test_site_on(
        id: u32,
        managers: u32,
        quota: Option<usize>,
        cfg: HashFileConfig,
        net: DistNet,
    ) -> Arc<Site> {
        let metrics = MetricsHandle::default();
        let buckets = SiteStorage::Volatile
            .open(ManagerId(id), &cfg, Existing::Keep, &metrics)
            .unwrap();
        Site::new(
            ManagerId(id),
            buckets,
            cfg,
            quota,
            (0..managers).map(ManagerId).collect(),
            net,
            Duration::from_secs(30),
            &metrics,
        )
    }

    #[test]
    fn available_pages_respects_quota() {
        let site = test_site(0, 1, Some(2));
        assert!(site.available_pages());
        site.buckets.alloc().unwrap();
        assert!(site.available_pages());
        site.buckets.alloc().unwrap();
        assert!(!site.available_pages(), "at quota");
        let unquoted = test_site(0, 1, None);
        for _ in 0..10 {
            unquoted.buckets.alloc().unwrap();
        }
        assert!(unquoted.available_pages(), "no quota = always available");
    }

    #[test]
    fn mgr_with_space_round_robins_and_skips_self() {
        let site = test_site(1, 3, Some(1));
        assert_eq!(site.mgr_with_space(), ManagerId(2));
        let last = test_site(2, 3, Some(1));
        assert_eq!(last.mgr_with_space(), ManagerId(0), "wraps around");
        let solo = test_site(0, 1, Some(1));
        assert_eq!(
            solo.mgr_with_space(),
            ManagerId(0),
            "single site must self-host"
        );
    }

    #[test]
    fn get_put_roundtrip_through_codec() {
        let site = test_site(0, 1, None);
        let page = site.buckets.alloc().unwrap();
        let mut b = Bucket::new(2, 0b01);
        b.add(ceh_types::Record::new(0b101, 7));
        site.buckets.putbucket(page, &b).unwrap();
        assert_eq!(site.buckets.getbucket(page).unwrap(), b);
    }

    #[test]
    fn name_helpers_are_stable() {
        assert_eq!(bucket_mgr_name(ManagerId(3)), "bucket-mgr-3");
        assert_eq!(dir_mgr_name(0), "dir-mgr-0");
    }
}
