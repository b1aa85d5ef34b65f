//! State and helpers shared by both concurrent solutions.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use ceh_locks::shadow::{self, TrackedAtomicUsize};
use ceh_locks::{LockId, LockManager, LockManagerConfig, LockMode, OwnerId};
use ceh_obs::MetricsHandle;
use ceh_storage::{
    DiskHandle, DurableConfig, DurableStore, DurableTxn, PageBuf, PageStore, PageStoreConfig,
    RecoveryReport,
};
use ceh_types::bucket::{Bucket, BucketView};
use ceh_types::{hash_key, Error, HashFileConfig, Key, PageId, Pseudokey, Result, Value};

use crate::directory::Directory;
use crate::stats::OpStats;

/// Propagate an error out of a protocol function after dropping every
/// lock the operation holds. Mid-protocol failures (page store exhausted,
/// directory at max depth) must not leave locks behind.
macro_rules! try_or_release {
    ($core:expr, $owner:expr, $e:expr) => {
        match $e {
            Ok(v) => v,
            Err(err) => {
                $core.locks().release_all($owner);
                return Err(err);
            }
        }
    };
}
pub(crate) use try_or_release;

/// The shared-state core of a concurrent extendible hash file: the page
/// store (disk), lock manager, directory, configuration, and counters.
///
/// Solution 1 and Solution 2 are thin protocol layers over this; both
/// expose it via `core()` so tests and the invariant checker can inspect
/// structure without duplicating plumbing.
pub struct FileCore {
    store: Arc<PageStore>,
    /// The durability layer, when this file is crash-consistent: every
    /// mutation funnels through it ([`FileCore::alloc_page`],
    /// [`FileCore::dealloc_page`], [`FileCore::putbucket`]), and the
    /// restructuring sections bracket themselves with
    /// [`FileCore::begin_txn`]. `None` = the volatile simulation
    /// (`store` is then the only storage).
    wal: Option<Arc<DurableStore>>,
    locks: Arc<LockManager>,
    dir: Directory,
    cfg: HashFileConfig,
    hasher: fn(Key) -> Pseudokey,
    stats: OpStats,
    metrics: MetricsHandle,
    len: TrackedAtomicUsize,
}

impl std::fmt::Debug for FileCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FileCore")
            .field("dir", &self.dir)
            .field("len", &self.len())
            .finish()
    }
}

impl FileCore {
    /// Build a core with its own page store and lock manager. The
    /// configured `io_latency_ns` is applied to every page read/write —
    /// the paper's buckets live on disk, and the protocols' value shows
    /// when I/O, not lock-manager software overhead, is the unit of cost.
    ///
    /// One [`MetricsHandle`] is threaded through every layer it builds,
    /// so the file's lock, storage, and operation metrics land in one
    /// registry, retrievable as a coherent [`ceh_obs::RunReport`] via
    /// [`FileCore::metrics`].
    pub fn new(cfg: HashFileConfig) -> Result<Self> {
        let metrics = MetricsHandle::new();
        let store = PageStore::new_shared_with_metrics(
            PageStoreConfig {
                page_size: Bucket::page_size_for(cfg.bucket_capacity),
                io_latency_ns: cfg.io_latency_ns,
                ..Default::default()
            },
            &metrics,
        );
        let locks = Arc::new(LockManager::with_metrics(
            LockManagerConfig::default(),
            &metrics,
        ));
        Self::with_parts_metrics(cfg, store, locks, hash_key, &metrics)
    }

    /// Build a core over caller-supplied substrates (tests inject the
    /// identity pseudokey function and watchdog-armed lock managers).
    /// The core's own counters get a fresh private registry; construct
    /// the substrates with [`MetricsHandle`]-aware constructors and use
    /// [`FileCore::with_parts_metrics`] for one correlated registry.
    pub fn with_parts(
        cfg: HashFileConfig,
        store: Arc<PageStore>,
        locks: Arc<LockManager>,
        hasher: fn(Key) -> Pseudokey,
    ) -> Result<Self> {
        Self::with_parts_metrics(cfg, store, locks, hasher, &MetricsHandle::default())
    }

    /// [`FileCore::with_parts`] with the core's operation counters (and
    /// tracer) registered in `metrics`' registry. Pass the same handle
    /// the store and lock manager were built with to get one coherent
    /// run report.
    pub fn with_parts_metrics(
        cfg: HashFileConfig,
        store: Arc<PageStore>,
        locks: Arc<LockManager>,
        hasher: fn(Key) -> Pseudokey,
        metrics: &MetricsHandle,
    ) -> Result<Self> {
        cfg.validate()?;
        if Bucket::capacity_for(store.page_size()) < cfg.bucket_capacity {
            return Err(Error::Config(format!(
                "page size {} holds only {} records, config wants {}",
                store.page_size(),
                Bucket::capacity_for(store.page_size()),
                cfg.bucket_capacity
            )));
        }
        let root = store.alloc()?;
        let bucket = Bucket::new(0, 0);
        let mut buf = PageBuf::zeroed(store.page_size());
        bucket.encode(&mut buf)?;
        store.write(root, &buf)?;
        let dir = Directory::new(cfg.max_depth, root)?;
        Ok(FileCore {
            store,
            wal: None,
            locks,
            dir,
            cfg,
            hasher,
            stats: OpStats::with_handle(metrics),
            metrics: metrics.clone(),
            len: TrackedAtomicUsize::new(0, "core.len"),
        })
    }

    /// Build a **crash-consistent** core over a durable store: the root
    /// bucket's creation is logged, and every later mutation funnels
    /// through the WAL. The volatile read path (`store()`) is the
    /// durable store's cache, so readers cost the same as ever.
    pub fn with_durable_metrics(
        cfg: HashFileConfig,
        wal: Arc<DurableStore>,
        locks: Arc<LockManager>,
        hasher: fn(Key) -> Pseudokey,
        metrics: &MetricsHandle,
    ) -> Result<Self> {
        cfg.validate()?;
        if Bucket::capacity_for(wal.page_size()) < cfg.bucket_capacity {
            return Err(Error::Config(format!(
                "page size {} holds only {} records, config wants {}",
                wal.page_size(),
                Bucket::capacity_for(wal.page_size()),
                cfg.bucket_capacity
            )));
        }
        let txn = wal.begin_txn()?;
        let root = wal.alloc()?;
        let bucket = Bucket::new(0, 0);
        let mut buf = PageBuf::zeroed(wal.page_size());
        bucket.encode(&mut buf)?;
        wal.write(root, &buf)?;
        txn.commit()?;
        let dir = Directory::new(cfg.max_depth, root)?;
        Ok(FileCore {
            store: Arc::clone(wal.cache()),
            wal: Some(wal),
            locks,
            dir,
            cfg,
            hasher,
            stats: OpStats::with_handle(metrics),
            metrics: metrics.clone(),
            len: TrackedAtomicUsize::new(0, "core.len"),
        })
    }

    /// Crash-recover a core from a durable medium: replay the WAL
    /// ([`DurableStore::recover`]), sweep bucket-level garbage
    /// (tombstones and debris that decode as junk) with **logged**
    /// deallocations, then rebuild the directory from the surviving
    /// buckets' `commonbits`/local depths (the same scan as
    /// [`FileCore::recover`]).
    pub fn recover_durable_metrics(
        cfg: HashFileConfig,
        disk: &DiskHandle,
        dcfg: DurableConfig,
        locks: Arc<LockManager>,
        hasher: fn(Key) -> Pseudokey,
        metrics: &MetricsHandle,
    ) -> Result<(Self, RecoveryReport)> {
        let (wal, report) = DurableStore::recover(disk, dcfg, metrics)?;
        // Bucket-level garbage pass, durably: a page that decodes as a
        // live bucket stays; everything else (tombstones, poison,
        // uncommitted-alloc zero pages) is deallocated *through the
        // log* so the medium converges with the recovered structure.
        let mut buf = PageBuf::zeroed(wal.page_size());
        for p in wal.allocated_page_ids() {
            wal.read(p, &mut buf)?;
            let garbage = match Bucket::decode(&buf) {
                Ok(b) => b.is_deleted(),
                Err(_) => true,
            };
            if garbage {
                wal.dealloc(p)?;
            }
        }
        if wal.allocated_page_ids().is_empty() {
            // Nothing recoverable (a crash before the first commit):
            // initialize fresh, through the log.
            let core = Self::with_durable_metrics(cfg, wal, locks, hasher, metrics)?;
            return Ok((core, report));
        }
        let mut core =
            Self::recover_with_metrics(cfg, Arc::clone(wal.cache()), locks, hasher, metrics)?;
        core.wal = Some(wal);
        Ok((core, report))
    }

    /// Rebuild a core from an existing (typically file-backed) store by
    /// scanning its pages — the concurrent-file recovery path. Reuses the
    /// sequential recovery scan (see
    /// [`ceh_sequential::SequentialHashFile::recover`]), then installs
    /// the rebuilt layout into the concurrent directory.
    pub fn recover(
        cfg: HashFileConfig,
        store: Arc<PageStore>,
        locks: Arc<LockManager>,
        hasher: fn(Key) -> Pseudokey,
    ) -> Result<Self> {
        Self::recover_with_metrics(cfg, store, locks, hasher, &MetricsHandle::default())
    }

    /// [`FileCore::recover`] with the core's counters registered in
    /// `metrics`' registry.
    pub fn recover_with_metrics(
        cfg: HashFileConfig,
        store: Arc<PageStore>,
        locks: Arc<LockManager>,
        hasher: fn(Key) -> Pseudokey,
        metrics: &MetricsHandle,
    ) -> Result<Self> {
        let recovered =
            ceh_sequential::SequentialHashFile::recover(cfg.clone(), Arc::clone(&store), hasher)?;
        let snap = recovered.snapshot()?;
        let dir = Directory::restore(cfg.max_depth, &snap.entries, snap.depthcount)?;
        let len = recovered.len();
        drop(recovered);
        Ok(FileCore {
            store,
            wal: None,
            locks,
            dir,
            cfg,
            hasher,
            stats: OpStats::with_handle(metrics),
            metrics: metrics.clone(),
            len: TrackedAtomicUsize::new(len, "core.len"),
        })
    }

    /// The directory.
    pub fn dir(&self) -> &Directory {
        &self.dir
    }

    /// The page store (the volatile cache when durable).
    pub fn store(&self) -> &Arc<PageStore> {
        &self.store
    }

    /// The durability layer, when this file is crash-consistent.
    pub fn wal(&self) -> Option<&Arc<DurableStore>> {
        self.wal.as_ref()
    }

    /// Allocate a page — logged when durable (`allocbucket`).
    pub fn alloc_page(&self) -> Result<PageId> {
        match &self.wal {
            Some(w) => w.alloc(),
            None => self.store.alloc(),
        }
    }

    /// Deallocate a page — logged when durable (`deallocbucket`).
    pub fn dealloc_page(&self, page: PageId) -> Result<()> {
        match &self.wal {
            Some(w) => w.dealloc(page),
            None => self.store.dealloc(page),
        }
    }

    /// Open a logged transaction bracketing a multi-page restructuring
    /// (split, merge, GC). A no-op guard in volatile mode, so callers
    /// bracket unconditionally; see [`DurableTxn`].
    pub fn begin_txn(&self) -> Result<DurableTxn> {
        match &self.wal {
            Some(w) => w.begin_txn(),
            None => Ok(DurableTxn::noop()),
        }
    }

    /// The lock manager.
    pub fn locks(&self) -> &Arc<LockManager> {
        &self.locks
    }

    /// The configuration.
    pub fn config(&self) -> &HashFileConfig {
        &self.cfg
    }

    /// Operation counters.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    /// The metrics handle this core (and, when built via
    /// [`FileCore::new`] or the `_metrics` constructors with a shared
    /// handle, its store and lock manager) reports through.
    pub fn metrics(&self) -> MetricsHandle {
        self.metrics.clone()
    }

    /// Open a `core.<event>` span under the calling thread's ambient
    /// [`ceh_obs::TraceCtx`] (a fresh trace root when standalone; the
    /// distributed envelope's context when a slave installed one).
    /// No-op returning the sentinel while the tracer is disabled.
    #[inline]
    pub(crate) fn trace_begin(&self, event: &'static str, a: u64, b: u64) -> ceh_obs::TraceCtx {
        self.metrics
            .trace_begin(ceh_obs::TraceCtx::current(), "core", event, a, b)
    }

    /// Close a span opened by [`FileCore::trace_begin`].
    #[inline]
    pub(crate) fn trace_end(&self, ctx: ceh_obs::TraceCtx, event: &'static str, a: u64, b: u64) {
        self.metrics.trace_end(ctx, "core", event, a, b);
    }

    /// Open an operation span (`core.find` / `core.insert` /
    /// `core.delete`) and install it as the thread's ambient context,
    /// so lock waits and structural child spans nest beneath it. The
    /// span closes when the guard drops — on every return path,
    /// including errors. While the tracer is disabled the only cost is
    /// one relaxed atomic load.
    #[inline]
    pub(crate) fn op_span(&self, event: &'static str, a: u64) -> OpSpan<'_> {
        if !self.metrics.tracer().is_enabled() {
            return OpSpan {
                core: self,
                ctx: ceh_obs::TraceCtx::NONE,
                event,
                _scope: None,
            };
        }
        let ctx = self
            .metrics
            .trace_begin(ceh_obs::TraceCtx::current(), "core", event, a, 0);
        OpSpan {
            core: self,
            ctx,
            event,
            _scope: Some(ctx.scope()),
        }
    }

    /// Record an operation's invoke edge in the shared history log
    /// (no-op — one relaxed load — unless the log is enabled; see
    /// [`ceh_obs::HistoryLog`]).
    #[inline]
    pub(crate) fn hist_invoke(
        &self,
        kind: ceh_obs::HistKind,
        key: Key,
        value: u64,
    ) -> ceh_obs::HistToken {
        self.metrics.history().invoke(kind, key.0, value)
    }

    /// Record an operation's return edge (pair of [`FileCore::hist_invoke`]).
    #[inline]
    pub(crate) fn hist_ret(&self, token: ceh_obs::HistToken, result: ceh_obs::HistResult) {
        self.metrics.history().ret(token, result);
    }

    /// The pseudokey function in use.
    pub fn hasher(&self) -> fn(Key) -> Pseudokey {
        self.hasher
    }

    /// Record count (exact at quiescence).
    pub fn len(&self) -> usize {
        // ceh-lint: allow(relaxed-ordering) — statistics counter, exact only at quiescence
        self.len.load(Ordering::Relaxed)
    }

    /// Is the file empty (quiescent)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn len_inc(&self) {
        self.len.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn len_dec(&self) {
        self.len.fetch_sub(1, Ordering::Relaxed);
    }

    /// Fresh page buffer.
    pub fn new_buf(&self) -> PageBuf {
        PageBuf::zeroed(self.store.page_size())
    }

    /// `getbucket(page, buffer)`: read and decode. Announced to the race
    /// detector as a page-granular acquire read (the page store
    /// serializes the physical I/O; the ρ/α protocol is what keeps the
    /// *contents* coherent, and that is what the shadow access models).
    #[track_caller]
    pub fn getbucket(&self, page: PageId, buf: &mut PageBuf) -> Result<Bucket> {
        shadow::page_read(page.0);
        self.store.read(page, buf)?;
        Bucket::decode(buf)
    }

    /// [`FileCore::getbucket`] of a page this operation has already
    /// peeked under a lock it still holds, for the restructuring paths
    /// (split, merge) that need the records decoded. The lock excludes
    /// every writer since the peek, so this reads the same bytes, and the
    /// race detector, which saw the peek, is not told of the access again.
    pub(crate) fn getbucket_again(&self, page: PageId, buf: &mut PageBuf) -> Result<Bucket> {
        self.store.read(page, buf)?;
        Bucket::decode(buf)
    }

    /// `putbucket(page, buffer)`: encode and write — through the WAL
    /// when durable (redo record first, then the cache). Announced to
    /// the race detector as a page-granular release write.
    #[track_caller]
    pub fn putbucket(&self, page: PageId, bucket: &Bucket, buf: &mut PageBuf) -> Result<()> {
        bucket.encode(buf)?;
        shadow::page_write(page.0);
        match &self.wal {
            Some(w) => w.write(page, buf),
            None => self.store.write(page, buf),
        }
    }

    /// The `add`/`remove` + `putbucket` of an update that does not
    /// restructure: `edit` changes one record of the encoded page (see
    /// [`ceh_types::bucket::append_in_place`]). Announced to the race
    /// detector exactly as [`FileCore::putbucket`] is. On the volatile
    /// store the page is edited in place under its latch; when durable,
    /// a copy is edited and its full image logged, as `putbucket` does.
    #[track_caller]
    pub(crate) fn edit_bucket<T>(
        &self,
        page: PageId,
        edit: impl FnOnce(&mut [u8]) -> Result<T>,
    ) -> Result<T> {
        shadow::page_write(page.0);
        match &self.wal {
            Some(w) => {
                let mut buf = self.new_buf();
                w.read(page, &mut buf)?;
                let out = edit(&mut buf)?;
                w.write(page, &buf)?;
                Ok(out)
            }
            None => self.store.with_page_mut(page, edit)?,
        }
    }

    /// Lock-manager shorthands keeping the transliterations readable:
    /// `rho_lock(owner, LockId::Directory)` reads like the figure's
    /// `RhoLock (directory)`.
    #[inline]
    // ceh-lint: allow(unpaired-lock) — delegating shorthand; pairing is the caller's obligation
    pub(crate) fn rho_lock(&self, o: OwnerId, id: LockId) {
        self.locks.lock(o, id, LockMode::Rho);
    }

    #[inline]
    pub(crate) fn un_rho_lock(&self, o: OwnerId, id: LockId) {
        self.locks.unlock(o, id, LockMode::Rho);
    }

    #[inline]
    // ceh-lint: allow(unpaired-lock) — delegating shorthand; pairing is the caller's obligation
    pub(crate) fn alpha_lock(&self, o: OwnerId, id: LockId) {
        self.locks.lock(o, id, LockMode::Alpha);
    }

    #[inline]
    pub(crate) fn un_alpha_lock(&self, o: OwnerId, id: LockId) {
        self.locks.unlock(o, id, LockMode::Alpha);
    }

    #[inline]
    // ceh-lint: allow(unpaired-lock) — delegating shorthand; pairing is the caller's obligation
    pub(crate) fn xi_lock(&self, o: OwnerId, id: LockId) {
        self.locks.lock(o, id, LockMode::Xi);
    }

    #[inline]
    pub(crate) fn un_xi_lock(&self, o: OwnerId, id: LockId) {
        self.locks.unlock(o, id, LockMode::Xi);
    }

    /// The find algorithm of Figure 5, shared verbatim by both solutions
    /// ("The procedure for the find operation is the same as before",
    /// §2.4). With `hold_directory` set, runs the "more pessimistic
    /// approach" §2.2 mentions and rejects — the reader keeps its ρ-lock
    /// on the directory until it holds the right bucket — which is the A1
    /// ablation baseline.
    pub(crate) fn find_impl(&self, key: Key, hold_directory: bool) -> Result<Option<Value>> {
        let _op = self.op_span("find", key.0);
        let owner = self.locks.new_owner();
        let pk = (self.hasher)(key);

        self.rho_lock(owner, LockId::Directory);
        let (_depth, mut oldpage) = self.dir.lookup(pk);
        self.rho_lock(owner, LockId::Page(oldpage));
        if !hold_directory {
            self.un_rho_lock(owner, LockId::Directory);
        }
        let mut current = try_or_release!(self, owner, self.peek(oldpage, pk, key));
        let mut recovered = false;
        let mut recovery = ceh_obs::TraceCtx::NONE;
        let mut hops = 0u64;
        let found = loop {
            let newpage = match current {
                Peek::Owns(at) => break at.found,
                Peek::WrongBucket { next } => next,
            };
            /* WRONG BUCKET */
            if !recovered {
                recovery = self.trace_begin("find.recover", oldpage.0, 0);
            }
            recovered = true;
            hops += 1;
            self.stats.chain_hops();
            if newpage.is_null() {
                // Structurally impossible under the protocols; if it
                // happens the structure is corrupt and silence would be
                // worse than an error.
                self.un_rho_lock(owner, LockId::Page(oldpage));
                if hold_directory {
                    self.un_rho_lock(owner, LockId::Directory);
                }
                return Err(Error::Corrupt(format!(
                    "find({key:?}): wrong bucket {oldpage} has no next link"
                )));
            }
            self.rho_lock(owner, LockId::Page(newpage));
            current = try_or_release!(self, owner, self.peek(newpage, pk, key));
            self.un_rho_lock(owner, LockId::Page(oldpage));
            oldpage = newpage;
        };
        if recovered {
            self.stats.wrong_bucket_recoveries();
            self.trace_end(recovery, "find.recover", oldpage.0, hops);
        }
        if hold_directory {
            self.un_rho_lock(owner, LockId::Directory);
        }
        self.un_rho_lock(owner, LockId::Page(oldpage));
        match found {
            Some(_) => self.stats.finds_hit(),
            None => self.stats.finds_miss(),
        }
        Ok(found)
    }

    /// The `getbucket` of a find or of an updater's walk: look at `page`
    /// in place under the page latch and keep only what Figures 5–9 use
    /// of it before deciding to restructure — whether the bucket owns
    /// `pk`, and then either `search(key)`, `count` and `localdepth`, or
    /// the `next` link. No copy, no decode, no allocation. Announced to
    /// the race detector exactly as [`FileCore::getbucket`] is.
    #[track_caller]
    pub(crate) fn peek(&self, page: PageId, pk: Pseudokey, key: Key) -> Result<Peek> {
        shadow::page_read(page.0);
        self.store.with_page(page, |bytes| {
            let view = BucketView::new(bytes)?;
            Ok(if view.owns(pk) {
                Peek::Owns(Owning {
                    found: view.search(key),
                    count: view.count(),
                    localdepth: view.localdepth(),
                })
            } else {
                Peek::WrongBucket { next: view.next() }
            })
        })?
    }

    /// [`FileCore::peek`] for a Solution 1 updater, whose directory lock
    /// excludes every restructurer: a bucket that does not own `pk` is
    /// corruption, not a wrong bucket to recover from.
    #[track_caller]
    pub(crate) fn peek_owner(&self, page: PageId, pk: Pseudokey, key: Key) -> Result<Owning> {
        match self.peek(page, pk, key)? {
            Peek::Owns(at) => Ok(at),
            Peek::WrongBucket { .. } => Err(Error::Corrupt(format!(
                "{page} does not own {pk:?} under a directory lock that excludes restructuring"
            ))),
        }
    }
}

/// What an operation learns from one bucket page (see [`FileCore::peek`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Peek {
    /// The bucket owns the pseudokey.
    Owns(Owning),
    /// Wrong bucket: follow `next`.
    WrongBucket { next: PageId },
}

/// What [`FileCore::peek`] keeps of the bucket that owns the pseudokey.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Owning {
    /// `search(key)`.
    pub(crate) found: Option<Value>,
    /// The paper's `count`.
    pub(crate) count: usize,
    /// The bucket's local depth.
    pub(crate) localdepth: u32,
}

/// Guard for one operation's `core.*` span: closes the span and
/// restores the previous ambient context when dropped (see
/// [`FileCore::op_span`]).
pub(crate) struct OpSpan<'a> {
    core: &'a FileCore,
    ctx: ceh_obs::TraceCtx,
    event: &'static str,
    _scope: Option<ceh_obs::CtxScope>,
}

impl Drop for OpSpan<'_> {
    fn drop(&mut self) {
        self.core
            .metrics
            .trace_end(self.ctx, "core", self.event, 0, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_initializes_with_one_empty_bucket() {
        let core = FileCore::new(HashFileConfig::tiny()).unwrap();
        assert_eq!(core.dir().depth(), 0);
        assert_eq!(core.dir().depthcount(), 1);
        assert!(core.is_empty());
        let mut buf = core.new_buf();
        let root = core.dir().index(0);
        let b = core.getbucket(root, &mut buf).unwrap();
        assert_eq!(b.localdepth, 0);
        assert_eq!(b.count(), 0);
    }

    #[test]
    fn find_on_empty_file_misses() {
        let core = FileCore::new(HashFileConfig::tiny()).unwrap();
        assert_eq!(core.find_impl(Key(42), false).unwrap(), None);
        assert_eq!(core.find_impl(Key(42), true).unwrap(), None);
        let s = core.stats().snapshot();
        assert_eq!(s.finds_miss, 2);
        assert_eq!(core.locks().total_granted(), 0, "find released everything");
    }

    #[test]
    fn find_on_a_corrupt_page_errors_and_releases_its_locks() {
        let core = FileCore::new(HashFileConfig::tiny()).unwrap();
        let root = core.dir().index(0);
        let mut junk = core.new_buf();
        junk.fill(0xAB);
        core.store().write(root, &junk).unwrap();
        for hold_directory in [false, true] {
            assert!(matches!(
                core.find_impl(Key(7), hold_directory),
                Err(Error::Corrupt(_))
            ));
            assert_eq!(core.locks().total_granted(), 0, "no ρ left behind");
        }
    }

    #[test]
    fn find_through_an_out_of_range_next_link_errors_and_releases_its_locks() {
        let core = FileCore::new(HashFileConfig::tiny()).unwrap();
        let root = core.dir().index(0);
        let key = (0..).map(Key).find(|&k| hash_key(k).0 & 1 == 0).unwrap();
        let past_the_store = PageId(core.store().capacity() as u64 + 3);
        for next in [past_the_store, PageId(1 << 40), PageId(u64::MAX - 1)] {
            // The root no longer owns the key and links to a page that
            // does not exist.
            let mut stray = Bucket::new(1, 1);
            stray.next = next;
            core.putbucket(root, &stray, &mut core.new_buf()).unwrap();
            for hold_directory in [false, true] {
                assert!(core.find_impl(key, hold_directory).is_err(), "{next}");
                assert_eq!(core.locks().total_granted(), 0, "no ρ left behind");
            }
        }
    }

    #[test]
    fn rejects_capacity_beyond_page() {
        let store = PageStore::new_shared(PageStoreConfig {
            page_size: 128,
            ..Default::default()
        });
        let locks = Arc::new(LockManager::default());
        let cfg = HashFileConfig::tiny().with_bucket_capacity(1000);
        assert!(FileCore::with_parts(cfg, store, locks, hash_key).is_err());
    }
}
