//! State and helpers shared by both concurrent solutions.

use std::sync::atomic::{AtomicI64, AtomicUsize, Ordering};
use std::sync::Arc;

use ceh_locks::{HeaderWords, LockId, LockManager, LockManagerConfig, LockMode, OwnerId};
use ceh_obs::MetricsHandle;
use ceh_storage::{
    DiskHandle, DurableConfig, DurableStore, DurableTxn, PageBuf, PageStore, PageStoreConfig,
    RecoveryReport,
};
use ceh_types::bucket::{append_in_place, remove_in_place, Bucket, BucketView, PageWordsMut};
use ceh_types::{hash_key, Error, HashFileConfig, Key, PageId, Pseudokey, Record, Result, Value};

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
    len: RecordCount,
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
            store.clone(),
            &metrics,
        ));
        Self::with_parts_metrics(cfg, store, locks, hash_key, &metrics)
    }

    /// Build a core over caller-supplied substrates (tests inject the
    /// identity pseudokey function and watchdog-armed lock managers).
    /// `locks` must be built over `store` (its page locks are the store's
    /// header words); anything else is a configuration error.
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
        Self::check_locks(&locks, &store)?;
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
        let dir = Directory::new(cfg.max_depth, root)?.with_metrics(metrics);
        Ok(FileCore {
            store,
            wal: None,
            locks,
            dir,
            cfg,
            hasher,
            stats: OpStats::with_handle(metrics),
            metrics: metrics.clone(),
            len: RecordCount::new(0),
        })
    }

    /// Is `locks` over `store`'s header words?
    fn check_locks(locks: &LockManager, store: &PageStore) -> Result<()> {
        if locks.is_over(store) {
            Ok(())
        } else {
            Err(Error::Config(
                "the lock manager is not built over this file's page store".into(),
            ))
        }
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
        Self::check_locks(&locks, wal.cache())?;
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
        let dir = Directory::new(cfg.max_depth, root)?.with_metrics(metrics);
        Ok(FileCore {
            store: Arc::clone(wal.cache()),
            wal: Some(wal),
            locks,
            dir,
            cfg,
            hasher,
            stats: OpStats::with_handle(metrics),
            metrics: metrics.clone(),
            len: RecordCount::new(0),
        })
    }

    /// Crash-recover a core from a durable medium: replay the WAL
    /// ([`DurableStore::recover`]), sweep bucket-level garbage
    /// (tombstones and debris that decode as junk) with **logged**
    /// deallocations, then rebuild the directory from the surviving
    /// buckets' `commonbits`/local depths. The lock manager, configured
    /// by `locks`, is built over the recovered store. This is the one way
    /// to reopen a persistent file: over a [`DiskHandle::open_file`]
    /// directory, or over the image of a [`DiskHandle::new`] medium.
    pub fn recover_durable_metrics(
        cfg: HashFileConfig,
        disk: &DiskHandle,
        dcfg: DurableConfig,
        locks: LockManagerConfig,
        hasher: fn(Key) -> Pseudokey,
        metrics: &MetricsHandle,
    ) -> Result<(Self, RecoveryReport)> {
        let (wal, report) = DurableStore::recover(disk, dcfg, metrics)?;
        let locks = Arc::new(LockManager::with_metrics(
            locks,
            wal.cache().clone(),
            metrics,
        ));
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
        // Rebuild the directory from the surviving buckets with the
        // sequential recovery scan (see
        // [`ceh_sequential::SequentialHashFile::recover`]), then install
        // the layout into the concurrent directory.
        let store = Arc::clone(wal.cache());
        let recovered =
            ceh_sequential::SequentialHashFile::recover(cfg.clone(), Arc::clone(&store), hasher)?;
        let snap = recovered.snapshot()?;
        let dir = Directory::restore(cfg.max_depth, &snap.entries, snap.depthcount)?
            .with_metrics(metrics);
        let len = recovered.len();
        drop(recovered);
        let core = FileCore {
            store,
            wal: Some(wal),
            locks,
            dir,
            cfg,
            hasher,
            stats: OpStats::with_handle(metrics),
            metrics: metrics.clone(),
            len: RecordCount::new(len),
        };
        Ok((core, report))
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
        self.len.get()
    }

    /// Is the file empty (quiescent)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn len_inc(&self) {
        self.len.add(1);
    }

    pub(crate) fn len_dec(&self) {
        self.len.add(-1);
    }

    /// Fresh page buffer.
    pub fn new_buf(&self) -> PageBuf {
        PageBuf::zeroed(self.store.page_size())
    }

    /// `getbucket(page, buffer)`: read and decode. The page store
    /// announces the read to the race detector.
    #[track_caller]
    pub fn getbucket(&self, page: PageId, buf: &mut PageBuf) -> Result<Bucket> {
        self.store.read(page, buf)?;
        Bucket::decode(buf)
    }

    /// [`FileCore::getbucket`] of a page this operation has already
    /// peeked under a lock it still holds, for the restructuring paths
    /// (split, merge) that need the records decoded. The lock excludes
    /// every writer since the peek, so this reads the same bytes.
    #[track_caller]
    pub(crate) fn getbucket_again(&self, page: PageId, buf: &mut PageBuf) -> Result<Bucket> {
        self.store.read(page, buf)?;
        Bucket::decode(buf)
    }

    /// `putbucket(page, buffer)`: encode and write — through the WAL
    /// when durable (redo record first, then the cache). The page store
    /// announces the write to the race detector.
    #[track_caller]
    pub fn putbucket(&self, page: PageId, bucket: &Bucket, buf: &mut PageBuf) -> Result<()> {
        bucket.encode(buf)?;
        match &self.wal {
            Some(w) => w.write(page, buf),
            None => self.store.write(page, buf),
        }
    }

    /// The `add`/`remove` + `putbucket` of an update that does not
    /// restructure: `edit` changes one record of the encoded page, and
    /// the answer says whether it did. Announced to the race detector
    /// exactly as [`FileCore::putbucket`] is. On the volatile store the
    /// page is edited in place; when durable, a copy is edited and its
    /// full image logged, as `putbucket` does.
    #[track_caller]
    pub(crate) fn edit_bucket(&self, page: PageId, edit: Edit) -> Result<bool> {
        match &self.wal {
            Some(w) => {
                let mut buf = self.new_buf();
                w.read(page, &mut buf)?;
                let out = edit.apply(&mut buf[..])?;
                w.write(page, &buf)?;
                Ok(out)
            }
            None => self.store.with_page_mut(page, |words| edit.apply(words))?,
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
    ///
    /// Without `hold_directory`, a find first tries
    /// [`FileCore::find_fast`], which takes no lock; only when that gives
    /// up does it run the figure's ρ protocol below. Counted as
    /// `core.find_fast` or `core.find_fallback`.
    pub(crate) fn find_impl(&self, key: Key, hold_directory: bool) -> Result<Option<Value>> {
        let _op = self.op_span("find", key.0);
        let pk = (self.hasher)(key);
        if !hold_directory {
            if let Some(found) = self.find_fast(pk, key) {
                self.stats.find_fast();
                match found {
                    Some(_) => self.stats.finds_hit(),
                    None => self.stats.finds_miss(),
                }
                return Ok(found);
            }
        }
        self.stats.find_fallback();
        let owner = self.locks.new_owner();

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
            try_or_release!(self, owner, self.check_link(newpage));
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

    /// Figure 5 with no lock: read the directory entry, then search
    /// the page it names in place, and answer only if that pass
    /// validates ([`PageStore::read_validated`]: the page was allocated,
    /// unchanged and without ξ from its header snapshot to the end of
    /// the pass), the page is a live bucket that owns `pk`, and the
    /// directory still names it ([`FileCore::owner_in_window`]). `None`
    /// — run the locked protocol — in every other case: a change of the
    /// page overlapped the pass, a ξ holder (a merge or collection
    /// between two page writes), a wrong bucket or tombstone (recovery
    /// via `next` is the locked path's), a freed page, or file backing.
    /// See DESIGN.md, "The read path", for why an answer given here is
    /// linearizable.
    #[inline]
    fn find_fast(&self, pk: Pseudokey, key: Key) -> Option<Option<Value>> {
        let (_depth, page) = self.dir.lookup(pk);
        self.store.read_validated(page, |words| {
            self.locks.probe(page);
            let view = BucketView::over(words).ok()?;
            self.owner_in_window(&view, pk, page)
                .then(|| view.search(key))
        })
    }

    /// Inside a validated read of `page`, which the directory named for
    /// `pk`: is the page a live bucket that owns `pk`, and does the
    /// directory name it still? The second look matters only for a page
    /// freed and reused while the caller sat between its directory read
    /// and the page's header snapshot: a split's new half, written but
    /// not yet published, owns `pk` as well as the old page does, but it
    /// is not the bucket the directory leads to until the splitter moves
    /// the entry. A directory that names the page inside the window
    /// makes it the bucket every locked operation would reach then.
    #[inline]
    pub(crate) fn owner_in_window<P: ceh_types::bucket::PageWords + Copy>(
        &self,
        view: &BucketView<P>,
        pk: Pseudokey,
        page: PageId,
    ) -> bool {
        view.owns(pk) && self.dir.lookup(pk).1 == page
    }

    /// A `next` link about to be locked and read: a page id past the
    /// store is corruption, and faults here as reading it would (the lock
    /// manager has no word for it).
    pub(crate) fn check_link(&self, page: PageId) -> Result<()> {
        match self.store.header(page) {
            Some(_) => Ok(()),
            None => Err(Error::PageFault { page: page.0 }),
        }
    }

    /// The `getbucket` of a find or of an updater's walk: look at `page`
    /// in place, under a lock the caller holds on it, and keep only what
    /// Figures 5–9 use of it before deciding to restructure — whether the bucket owns
    /// `pk`, and then either `search(key)`, `count` and `localdepth`, or
    /// the `next` link. No copy, no decode, no allocation. Announced to
    /// the race detector exactly as [`FileCore::getbucket`] is.
    #[track_caller]
    pub(crate) fn peek(&self, page: PageId, pk: Pseudokey, key: Key) -> Result<Peek> {
        self.store.with_page(page, |words| {
            let view = BucketView::over(words)?;
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

/// The one-record change of an update that does not restructure (see
/// [`FileCore::edit_bucket`]).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Edit {
    /// The paper's `add(current, z)`: the caller has checked that the key
    /// is absent and the bucket not full.
    Add(Record),
    /// The paper's `remove(z, current)`.
    Remove(Key),
}

impl Edit {
    /// The key the edit adds or removes.
    pub(crate) fn key(self) -> Key {
        match self {
            Edit::Add(record) => record.key,
            Edit::Remove(key) => key,
        }
    }

    /// Apply to an encoded page in place: whether a record was added or
    /// removed.
    pub(crate) fn apply<P: PageWordsMut + ?Sized>(self, page: &mut P) -> Result<bool> {
        match self {
            Edit::Add(record) => append_in_place(page, record).map(|()| true),
            Edit::Remove(key) => remove_in_place(page, key),
        }
    }
}

/// The record count: one signed count per thread slot, each on its own
/// cache line pair, summed on read. Two callers' updates then write no
/// common line for it; the sum is exact whenever no update is in flight.
struct RecordCount {
    slots: Box<[PaddedCount]>,
}

#[derive(Default)]
#[repr(align(128))]
struct PaddedCount(AtomicI64);

/// Slots per count: callers past this many share slots, still exactly.
const COUNT_SLOTS: usize = 16;

static NEXT_COUNT_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's slot in every [`RecordCount`], assigned round-robin
    /// on first use.
    static COUNT_SLOT: usize =
        // ceh-lint: allow(relaxed-ordering) — a slot number; only distinctness matters, not order
        NEXT_COUNT_SLOT.fetch_add(1, Ordering::Relaxed) % COUNT_SLOTS;
}

impl RecordCount {
    fn new(start: usize) -> Self {
        let slots: Box<[PaddedCount]> = (0..COUNT_SLOTS).map(|_| PaddedCount::default()).collect();
        // ceh-lint: allow(relaxed-ordering) — not yet shared
        slots[0].0.store(start as i64, Ordering::Relaxed);
        RecordCount { slots }
    }

    #[inline]
    fn add(&self, n: i64) {
        let slot = COUNT_SLOT.with(|s| *s);
        // ceh-lint: allow(relaxed-ordering) — statistics counter, exact only at quiescence
        self.slots[slot].0.fetch_add(n, Ordering::Relaxed);
    }

    fn get(&self) -> usize {
        let sum: i64 = self
            .slots
            .iter()
            // ceh-lint: allow(relaxed-ordering) — statistics counter, exact only at quiescence
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum();
        sum.max(0) as usize
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
        let locks = Arc::new(LockManager::over(store.clone()));
        let cfg = HashFileConfig::tiny().with_bucket_capacity(1000);
        assert!(FileCore::with_parts(cfg, store, locks, hash_key).is_err());
    }
}
