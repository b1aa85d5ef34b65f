//! State and helpers shared by both concurrent solutions.

use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use ceh_locks::{LockId, LockManager, LockManagerConfig, LockMode, OwnerId};
use ceh_obs::{MetricsHandle, THREAD_SLOTS};
use ceh_storage::{
    Buckets, Directory, DiskHandle, DurableConfig, DurableStore, Owning, PageBuf, PageStore,
    RecoveryReport, Split, Walked,
};
use ceh_types::bucket::{search_slots, BucketView};
use ceh_types::{
    hash_key, BucketLink, Error, HashFileConfig, Key, ManagerId, PageId, Pseudokey, Record, Result,
    Value,
};

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
    /// The file's buckets: every page access and mutation of the
    /// protocols funnels through them, logged first when the file is
    /// crash-consistent.
    buckets: Buckets,
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
        let buckets = Buckets::new(&cfg, &metrics);
        let locks = Arc::new(LockManager::with_metrics(
            LockManagerConfig::default(),
            buckets.store().clone(),
            &metrics,
        ));
        Self::with_buckets(cfg, buckets, locks, hash_key, &metrics)
    }

    /// Build a core over caller-supplied substrates, with one empty root
    /// bucket. `buckets` is a [`PageStore`] for the volatile simulation,
    /// or a [`DurableStore`] for a crash-consistent file: the root's
    /// creation is then logged, and so is every later mutation, while
    /// reads still come from the durable store's cache at the cost of
    /// the volatile path. `locks` must be built over the buckets' page
    /// store (its page locks are the store's header words); anything
    /// else is a configuration error. Tests inject the identity
    /// pseudokey function and watchdog-armed lock managers here. The
    /// core's operation counters and tracer register in `metrics`: pass
    /// the handle the store and lock manager were built with for one
    /// coherent run report.
    ///
    /// [`PageStore`]: ceh_storage::PageStore
    pub fn with_buckets(
        cfg: HashFileConfig,
        buckets: impl Into<Buckets>,
        locks: Arc<LockManager>,
        hasher: fn(Key) -> Pseudokey,
        metrics: &MetricsHandle,
    ) -> Result<Self> {
        cfg.validate()?;
        let buckets = buckets.into();
        if !locks.is_over(buckets.store().as_ref()) {
            return Err(Error::Config(
                "the lock manager is not built over this file's page store".into(),
            ));
        }
        let root = buckets.create_root(&cfg)?;
        let dir = Directory::new(cfg.max_depth, root)?;
        Ok(Self::assemble(cfg, buckets, locks, dir, hasher, metrics, 0))
    }

    /// Crash-recover a core from a durable medium: replay the WAL
    /// ([`DurableStore::recover`]), then rebuild the directory from the
    /// surviving buckets' `commonbits`/local depths ([`Buckets::recover`],
    /// as the sequential file does), whose sweep deallocates bucket-level
    /// garbage (tombstones and debris that decode as junk) **through the
    /// log**, so the medium converges with the recovered structure. The
    /// lock manager, configured by `locks`, is built over the recovered
    /// store, and the recovered file is invariant-checked
    /// ([`crate::invariants::check_concurrent_file`]). This is the one
    /// way to reopen a persistent file: over a [`DiskHandle::open_file`]
    /// directory, or over the image of a [`DiskHandle::new`] medium.
    pub fn recover_durable_metrics(
        cfg: HashFileConfig,
        disk: &DiskHandle,
        dcfg: DurableConfig,
        locks: LockManagerConfig,
        hasher: fn(Key) -> Pseudokey,
        metrics: &MetricsHandle,
    ) -> Result<(Self, RecoveryReport)> {
        cfg.validate()?;
        let (wal, report) = DurableStore::recover(disk, dcfg, metrics)?;
        let buckets = Buckets::from(wal);
        let locks = Arc::new(LockManager::with_metrics(
            locks,
            buckets.store().clone(),
            metrics,
        ));
        let (dir, len) = buckets.recover(&cfg)?;
        let core = Self::assemble(cfg, buckets, locks, dir, hasher, metrics, len);
        crate::invariants::check_concurrent_file(&core)?;
        Ok((core, report))
    }

    fn assemble(
        cfg: HashFileConfig,
        buckets: Buckets,
        locks: Arc<LockManager>,
        dir: Directory,
        hasher: fn(Key) -> Pseudokey,
        metrics: &MetricsHandle,
        len: usize,
    ) -> Self {
        FileCore {
            buckets,
            locks,
            dir: dir.with_metrics(metrics),
            cfg,
            hasher,
            stats: OpStats::with_handle(metrics),
            metrics: metrics.clone(),
            len: RecordCount::new(len),
        }
    }

    /// The directory.
    pub fn dir(&self) -> &Directory {
        &self.dir
    }

    /// The buckets: `getbucket`/`putbucket`, the in-place edit and peek,
    /// page allocation and transactions, each logged when durable.
    #[inline]
    pub fn buckets(&self) -> &Buckets {
        &self.buckets
    }

    /// The page store (the volatile cache when durable).
    #[inline]
    pub fn store(&self) -> &Arc<PageStore> {
        self.buckets.store()
    }

    /// The durability layer, when this file is crash-consistent.
    pub fn wal(&self) -> Option<&Arc<DurableStore>> {
        self.buckets.wal()
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

    /// A fresh buffer for a whole-page copy through the store
    /// ([`PageStore::read`]); the buckets take none.
    pub fn new_buf(&self) -> PageBuf {
        self.store().new_buf()
    }

    /// Split the full bucket on `page`, which the caller holds α-locked,
    /// for the record `key`/`value`, placing the "1" half on a new page
    /// of this file ([`Buckets::split`]).
    pub(crate) fn split(&self, page: PageId, key: Key, value: Value) -> Result<Split> {
        let buckets = &self.buckets;
        let here = ManagerId::NONE;
        let record = Record { key, value };
        buckets.split(page, here, record, &self.cfg, self.hasher, |half2| {
            buckets.place(&half2).map(|p| BucketLink::new(here, p))
        })
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
        let (_depth, oldpage) = self.dir.lookup(pk);
        self.rho_lock(owner, LockId::Page(oldpage));
        if !hold_directory {
            self.un_rho_lock(owner, LockId::Directory);
        }
        let walk = self.walk(owner, LockMode::Rho, oldpage, pk, key, Some("find.recover"));
        let (page, at) = walk?;
        if hold_directory {
            self.un_rho_lock(owner, LockId::Directory);
        }
        self.un_rho_lock(owner, LockId::Page(page));
        match at.found {
            Some(_) => self.stats.finds_hit(),
            None => self.stats.finds_miss(),
        }
        Ok(at.found)
    }

    /// The `/* WRONG BUCKET */` loops of Figures 5, 8 and 9: from
    /// `start`, which `owner` holds in `mode`, walk hand over hand to
    /// the bucket owning `pk` ([`Buckets::walk`]), counting each hop
    /// and, if there was one, a wrong-bucket recovery, traced as the
    /// span `recovery` names. Returns that page, still held, and what
    /// the walk's peek saw of it; on an error every lock of `owner` is
    /// released.
    // ceh-lint: allow(unpaired-lock) — the caller releases the page the walk returns held
    pub(crate) fn walk(
        &self,
        owner: OwnerId,
        mode: LockMode,
        start: PageId,
        pk: Pseudokey,
        key: Key,
        recovery: Option<&'static str>,
    ) -> Result<(PageId, Owning)> {
        let (mut hops, mut span) = (0u64, ceh_obs::TraceCtx::NONE);
        let hop = || {
            if let (0, Some(event)) = (hops, recovery) {
                span = self.trace_begin(event, start.0, 0);
            }
            hops += 1;
            self.stats.chain_hops();
        };
        let here = ManagerId::NONE;
        let walked = self
            .buckets
            .walk(&self.locks, owner, mode, start, here, pk, key, hop);
        let Walked::Owner(page, at) = try_or_release!(self, owner, walked) else {
            unreachable!("one file has no other site");
        };
        if hops > 0 {
            self.stats.wrong_bucket_recoveries();
            if let Some(event) = recovery {
                self.trace_end(span, event, page.0, hops);
            }
        }
        Ok((page, at))
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
        self.store().read_validated(page, |words| {
            self.locks.probe(page);
            // Probe first: the home slot's address needs only the key, so
            // its load overlaps the header's.
            let found = search_slots(&words, key);
            let view = BucketView::over(words).ok()?;
            self.owner_in_window(&view, pk, page).then_some(found)
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
}

/// The record count: one signed count per thread slot
/// ([`ceh_obs::thread_slot`]), each on its own cache line pair, summed on
/// read. Two callers' updates then write no common line for it; the sum
/// is exact whenever no update is in flight (callers past
/// [`ceh_obs::THREAD_SLOTS`] share slots, still exactly).
struct RecordCount {
    slots: Box<[PaddedCount; THREAD_SLOTS]>,
}

#[derive(Default)]
#[repr(align(128))]
struct PaddedCount(AtomicI64);

impl RecordCount {
    fn new(start: usize) -> Self {
        let slots: Box<[PaddedCount; THREAD_SLOTS]> = Box::default();
        // ceh-lint: allow(relaxed-ordering) — not yet shared
        slots[0].0.store(start as i64, Ordering::Relaxed);
        RecordCount { slots }
    }

    #[inline]
    fn add(&self, n: i64) {
        // In range already; the modulus lets the compiler drop the
        // bounds check.
        let slot = ceh_obs::thread_slot() % THREAD_SLOTS;
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
        let root = core.dir().index(0);
        let b = core.buckets().getbucket(root).unwrap();
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
        let mut junk = core.store().new_buf();
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
            let mut stray = ceh_types::Bucket::new(1, 1);
            stray.next = next;
            core.buckets().putbucket(root, &stray).unwrap();
            for hold_directory in [false, true] {
                assert!(core.find_impl(key, hold_directory).is_err(), "{next}");
                assert_eq!(core.locks().total_granted(), 0, "no ρ left behind");
            }
        }
    }

    #[test]
    fn rejects_capacity_beyond_page() {
        let store = PageStore::new_shared(ceh_storage::PageStoreConfig {
            page_size: 128,
            ..Default::default()
        });
        let locks = Arc::new(LockManager::over(store.clone()));
        let cfg = HashFileConfig::tiny().with_bucket_capacity(1000);
        let metrics = MetricsHandle::default();
        assert!(FileCore::with_buckets(cfg, store, locks, hash_key, &metrics).is_err());
    }
}
