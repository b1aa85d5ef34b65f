//! Crash-consistent durable storage: a redo write-ahead log over a
//! nonvolatile medium, wrapped around the volatile [`PageStore`].
//!
//! # The medium
//!
//! The nonvolatile state is a flat frame array (one
//! [`FRAME_HEADER`]-prefixed region per page, carrying an LSN and a
//! CRC32 over the contents) plus the log bytes, held by a
//! [`PageBackend`] — the deterministic in-memory
//! [`DiskImage`](crate::DiskImage) or real files with fsync (see
//! [`crate::backend`]).
//! Either lives behind a [`DiskHandle`] that **outlives the store**:
//! cutting power is dropping the `DurableStore` (or calling
//! [`DurableStore::power_off`]) and keeping only the handle; recovery
//! is [`DurableStore::recover`] on that handle.
//!
//! # The protocol
//!
//! Redo-only, no-steal, full-page logging:
//!
//! * every mutation (`write`/`alloc`/`dealloc`) first appends a redo
//!   record to the in-memory log buffer, then applies to the volatile
//!   cache;
//! * mutations group into **transactions** — explicit
//!   ([`DurableStore::begin_txn`], used by the split/merge/
//!   directory-double sections upstairs) or implicit singletons. A
//!   transaction's records reach the medium together, sealed by a
//!   `Commit` record, at the group-commit **sync**. Only then is the
//!   operation acked;
//! * committed-but-not-yet-checkpointed page states sit in a
//!   fixed-capacity **buffer cache** (the `cache` module); a commit that
//!   pushes it over capacity writes a CLOCK-chosen victim back to its
//!   frame (log first — its covering records are already synced) and
//!   evicts it;
//! * a **checkpoint** (every `checkpoint_every` commits) flushes the
//!   pages dirtied by *committed* transactions to their frames — never
//!   an uncommitted page image, that's the no-steal half — syncs the
//!   frames, and then truncates the log. Open transactions lose
//!   nothing: their records are (re-)written in full when they commit;
//! * **recovery** classifies every frame by magic + CRC (live / freed /
//!   never-written / torn), parses the log's valid prefix (per-record
//!   CRC — a torn tail ends the prefix), replays the records of
//!   committed transactions in order, rebuilds quarantined torn frames
//!   from their full-page redo images, and reconstructs the volatile
//!   cache with [`PageStore::restore`].
//!
//! The write ordering (log sync **before** frame flush **before** log
//! truncate) makes every torn frame rebuildable: a frame is only
//! (re)written at a checkpoint, by which time the committed records
//! covering it are already durable in the log.
//!
//! Replay is **LSN-gated**: a redo record applies only to a frame whose
//! stamp is older than the record. The gate matters when power dies
//! *mid-truncate*: the frames already hold the full checkpointed state
//! (flushes precede the truncate, each stamped with an LSN newer than
//! every logged record), but a valid *prefix* of the pre-checkpoint log
//! survives. Blindly replaying that prefix would regress exactly the
//! prefix-covered pages to older images while the rest keep their new
//! frames — tearing multi-page transactions apart after the fact (one
//! split half old, the other new). Torn frames carry no trustworthy
//! stamp, so the gate treats them as infinitely old and the newest
//! committed redo image wins, as before.
//!
//! # Durability points
//!
//! The medium transitions at exactly three kinds of instant — a log
//! sync, a frame write (checkpoint flush or cache writeback), a log
//! truncate — and each consults the [`CrashPlan`]: the armed point
//! applies a seeded prefix [`Tear`] to the in-flight bytes and the
//! store dies ([`Error::PowerLoss`]), freezing the image mid-write for
//! recovery to face. The `fsync` calls the file backend adds are *not*
//! durability points — they only promote already-written bytes — so
//! the point sequence is identical on both backends.
//!
//! [`Tear`]: crate::Tear

use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ceh_obs::MetricsHandle;
use ceh_types::{crc32, Error, PageId, Result};
use parking_lot::Mutex;

use crate::backend::{DiskHandle, PageBackend};
use crate::cache::{BufferCache, FrameState};
use crate::crash::CrashPlan;
use crate::page::PageBuf;
use crate::store::{PageStore, PageStoreConfig};
use crate::wal::{check_redo_image, parse_wal, WalRecord};

/// Bytes of frame header preceding each page's payload on the medium:
/// magic (4) + flags (4) + LSN (8) + CRC32 (4).
pub const FRAME_HEADER: usize = 20;

const FRAME_MAGIC: u32 = 0xCE11_F4A3;
const FLAG_LIVE: u32 = 1;

/// Configuration for a [`DurableStore`].
#[derive(Debug, Clone)]
pub struct DurableConfig {
    /// The volatile cache's configuration (page size, poisoning, …).
    pub page: PageStoreConfig,
    /// Sync the log after this many commits (1 = every commit is
    /// immediately durable, the "ack ⇒ durable" default the oracle
    /// assumes).
    pub group_commit: usize,
    /// Checkpoint after this many synced commits.
    pub checkpoint_every: usize,
    /// Dirty-page buffer cache capacity, in pages: committed states
    /// beyond this are written back (CLOCK victim) before the next
    /// checkpoint. The default is large enough that the deterministic
    /// crash fixtures never evict.
    pub cache_pages: usize,
    /// Power-cut schedule; `None` = power stays on.
    pub plan: Option<CrashPlan>,
}

impl Default for DurableConfig {
    fn default() -> Self {
        DurableConfig {
            page: PageStoreConfig::default(),
            group_commit: 1,
            checkpoint_every: 32,
            cache_pages: 1024,
            plan: None,
        }
    }
}

impl DurableConfig {
    /// Small pages for tests that want to force splits cheaply.
    pub fn small(page_size: usize) -> Self {
        DurableConfig {
            page: PageStoreConfig::small(page_size),
            ..Default::default()
        }
    }
}

/// One logged mutation, buffered until its transaction commits.
#[derive(Debug, Clone)]
enum TxnOp {
    Write(PageId, Vec<u8>),
    Alloc(PageId),
    Dealloc(PageId),
}

/// Volatile log-side bookkeeping, all under one lock (commit order =
/// log order).
#[derive(Debug)]
struct WalState {
    /// Encoded records not yet synced to the medium.
    buf: Vec<u8>,
    /// Open transactions' buffered ops, in program order.
    open: HashMap<u64, Vec<TxnOp>>,
    /// Latest committed state per page since the last checkpoint,
    /// bounded by `DurableConfig::cache_pages`.
    cache: BufferCache,
    /// Commits sitting in `buf` awaiting the group sync.
    pending_commits: usize,
    /// Synced commits since the last checkpoint.
    commits_since_ckpt: usize,
    next_txn: u64,
    next_lsn: u64,
}

impl WalState {
    fn new(cache_pages: usize, next_txn: u64, next_lsn: u64) -> Self {
        WalState {
            buf: Vec::new(),
            open: HashMap::new(),
            cache: BufferCache::new(cache_pages),
            pending_commits: 0,
            commits_since_ckpt: 0,
            next_txn,
            next_lsn,
        }
    }
}

/// WAL/replay/checkpoint instruments (all under `storage.wal.` /
/// `storage.recovery.`).
#[derive(Debug)]
struct WalMetrics {
    records: Arc<ceh_obs::Counter>,
    commits: Arc<ceh_obs::Counter>,
    aborts: Arc<ceh_obs::Counter>,
    syncs: Arc<ceh_obs::Counter>,
    sync_bytes: Arc<ceh_obs::Counter>,
    checkpoints: Arc<ceh_obs::Counter>,
    frames_flushed: Arc<ceh_obs::Counter>,
    power_cuts: Arc<ceh_obs::Counter>,
}

impl WalMetrics {
    fn new(h: &MetricsHandle) -> Self {
        WalMetrics {
            records: h.counter("storage.wal.records"),
            commits: h.counter("storage.wal.commits"),
            aborts: h.counter("storage.wal.aborts"),
            syncs: h.counter("storage.wal.syncs"),
            sync_bytes: h.counter("storage.wal.sync_bytes"),
            checkpoints: h.counter("storage.wal.checkpoints"),
            frames_flushed: h.counter("storage.wal.frames_flushed"),
            power_cuts: h.counter("storage.wal.power_cuts"),
        }
    }
}

/// Backend-level instruments (`storage.backend.*`): how often the
/// medium is synced and written, and what each sync costs — on the
/// file backend, real fsync latency.
#[derive(Debug)]
struct BackendMetrics {
    syncs: Arc<ceh_obs::Counter>,
    sync_ns: Arc<ceh_obs::Histogram>,
    frame_writes: Arc<ceh_obs::Counter>,
    wal_appends: Arc<ceh_obs::Counter>,
}

impl BackendMetrics {
    fn new(h: &MetricsHandle) -> Self {
        BackendMetrics {
            syncs: h.counter("storage.backend.syncs"),
            sync_ns: h.histogram("storage.backend.sync_ns"),
            frame_writes: h.counter("storage.backend.frame_writes"),
            wal_appends: h.counter("storage.backend.wal_appends"),
        }
    }
}

/// Buffer-cache instruments (`storage.cache.*`): a hit is a committed
/// state landing on an already-dirty page, a miss takes a new slot,
/// and evictions count the CLOCK writebacks forced by capacity.
#[derive(Debug)]
struct CacheMetrics {
    hits: Arc<ceh_obs::Counter>,
    misses: Arc<ceh_obs::Counter>,
    evictions: Arc<ceh_obs::Counter>,
    writebacks: Arc<ceh_obs::Counter>,
}

impl CacheMetrics {
    fn new(h: &MetricsHandle) -> Self {
        CacheMetrics {
            hits: h.counter("storage.cache.hits"),
            misses: h.counter("storage.cache.misses"),
            evictions: h.counter("storage.cache.evictions"),
            writebacks: h.counter("storage.cache.writebacks"),
        }
    }
}

/// What [`DurableStore::recover`] found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Frame regions on the medium.
    pub frames: usize,
    /// Frames holding a checksum-valid live page.
    pub live: usize,
    /// Frames holding a checksum-valid freed marker.
    pub freed: usize,
    /// Torn frames (bad magic/CRC) quarantined and rebuilt from redo.
    pub torn: usize,
    /// Whole records parsed from the log's valid prefix.
    pub wal_records: usize,
    /// Did the log end in a torn tail?
    pub wal_torn_tail: bool,
    /// Committed transactions replayed.
    pub txns_committed: usize,
    /// Uncommitted transactions discarded (no `Commit` record durable).
    pub txns_discarded: usize,
    /// Redo records applied.
    pub redo_applied: usize,
}

thread_local! {
    /// The calling thread's open transaction: `(store uid, txn id)`.
    /// Mutation funnels attach to it; absent, they auto-commit.
    static AMBIENT_TXN: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

static NEXT_STORE_UID: AtomicU64 = AtomicU64::new(1);

/// RAII handle for a logged multi-page transaction (a split, merge, or
/// directory double upstairs). Commit with [`DurableTxn::commit`];
/// dropping without committing **aborts** — the buffered records never
/// reach the medium, so recovery sees none of the transaction (the
/// volatile cache may retain partial effects, exactly like the
/// volatile-only store does on an error path today).
///
/// Transactions are per-thread (the funnels attach via a thread-local);
/// nested `begin_txn` calls return pass-through guards that defer to
/// the outermost one.
#[must_use = "dropping a DurableTxn without commit() aborts it"]
pub struct DurableTxn {
    store: Option<Arc<DurableStore>>,
    txn: u64,
    committed: bool,
    /// Bound to the opening thread's ambient slot.
    _not_send: std::marker::PhantomData<*const ()>,
}

impl DurableTxn {
    /// A no-op guard for volatile-only callers, so higher layers can
    /// bracket their critical sections unconditionally.
    pub fn noop() -> Self {
        DurableTxn {
            store: None,
            txn: 0,
            committed: false,
            _not_send: std::marker::PhantomData,
        }
    }

    /// Seal the transaction: its records become durable (synced per the
    /// group-commit config) and survive any later crash.
    pub fn commit(mut self) -> Result<()> {
        let Some(store) = self.store.take() else {
            return Ok(()); // no-op or nested guard
        };
        AMBIENT_TXN.with(|c| c.set(None));
        self.committed = true;
        store.commit_txn(self.txn)
    }
}

impl Drop for DurableTxn {
    fn drop(&mut self) {
        if let Some(store) = self.store.take() {
            if !self.committed {
                AMBIENT_TXN.with(|c| c.set(None));
                store.abort_txn(self.txn);
            }
        }
    }
}

/// The durable store: [`PageStore`] semantics (same per-page atomicity
/// contract) with write-ahead logging underneath. See the module docs
/// for the protocol.
pub struct DurableStore {
    uid: u64,
    cfg: DurableConfig,
    cache: Arc<PageStore>,
    disk: DiskHandle,
    state: Mutex<WalState>,
    dead: AtomicBool,
    wal_metrics: WalMetrics,
    backend_metrics: BackendMetrics,
    cache_metrics: CacheMetrics,
}

impl std::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStore")
            .field("uid", &self.uid)
            // ceh-lint: allow(relaxed-ordering) — Debug snapshot; no data depends on it
            .field("dead", &self.dead.load(Ordering::Relaxed))
            .field("cache", &self.cache)
            .finish()
    }
}

impl DurableStore {
    /// A fresh store over a blank in-memory medium.
    pub fn new(cfg: DurableConfig, metrics: &MetricsHandle) -> Arc<Self> {
        let disk = DiskHandle::new(cfg.page.page_size);
        Self::with_disk(disk, cfg, metrics).expect("fresh in-memory medium matches config")
    }

    /// A fresh store over a provided (blank) medium — the seam that
    /// picks the backend: hand it a [`DiskHandle::new`] for the
    /// simulated image or a [`DiskHandle::create_file`] /
    /// [`DiskHandle::open_file`] for real files. To bring back existing
    /// contents, use [`DurableStore::recover`] instead.
    pub fn with_disk(
        disk: DiskHandle,
        cfg: DurableConfig,
        metrics: &MetricsHandle,
    ) -> Result<Arc<Self>> {
        if disk.page_size() != cfg.page.page_size {
            return Err(Error::Config(format!(
                "medium has {}-byte pages, config wants {}",
                disk.page_size(),
                cfg.page.page_size
            )));
        }
        let cache = Arc::new(PageStore::with_metrics(cfg.page.clone(), metrics));
        Ok(Arc::new(DurableStore {
            uid: NEXT_STORE_UID.fetch_add(1, Ordering::Relaxed),
            disk,
            cache,
            state: Mutex::new(WalState::new(cfg.cache_pages, 1, 1)),
            dead: AtomicBool::new(false),
            wal_metrics: WalMetrics::new(metrics),
            backend_metrics: BackendMetrics::new(metrics),
            cache_metrics: CacheMetrics::new(metrics),
            cfg,
        }))
    }

    /// The volatile cache (for wiring into layers that take a
    /// `&PageStore`-shaped read path).
    pub fn cache(&self) -> &Arc<PageStore> {
        &self.cache
    }

    /// The nonvolatile medium's handle — clone it to survive the store.
    pub fn disk(&self) -> DiskHandle {
        self.disk.clone()
    }

    /// This store's unique id (keys the thread-local transaction slot).
    pub fn store_uid(&self) -> u64 {
        self.uid
    }

    /// Has power been cut?
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// Cut power cleanly **now**: unsynced log bytes and all volatile
    /// state are lost; the medium keeps exactly what was synced. Every
    /// later operation fails with [`Error::PowerLoss`].
    pub fn power_off(&self) {
        if !self.dead.swap(true, Ordering::AcqRel) {
            self.wal_metrics.power_cuts.inc();
        }
    }

    fn die(&self) -> Error {
        self.power_off();
        Error::PowerLoss
    }

    fn check_alive(&self) -> Result<()> {
        if self.is_dead() {
            return Err(Error::PowerLoss);
        }
        Ok(())
    }

    /// The configured page size.
    pub fn page_size(&self) -> usize {
        self.cache.page_size()
    }

    /// A fresh zeroed buffer of the right size.
    pub fn new_buf(&self) -> PageBuf {
        self.cache.new_buf()
    }

    // ----- transactions ---------------------------------------------

    /// Open a logged transaction on the calling thread. Mutations made
    /// through this store on this thread buffer into it until
    /// [`DurableTxn::commit`] (or abort on drop). Nested calls return
    /// pass-through guards.
    pub fn begin_txn(self: &Arc<Self>) -> Result<DurableTxn> {
        self.check_alive()?;
        if let Some((uid, _)) = AMBIENT_TXN.with(|c| c.get()) {
            if uid == self.uid {
                // Already inside a transaction on this store: defer to it.
                return Ok(DurableTxn::noop());
            }
        }
        let txn = {
            let mut st = self.state.lock();
            let txn = st.next_txn;
            st.next_txn += 1;
            st.open.insert(txn, Vec::new());
            txn
        };
        AMBIENT_TXN.with(|c| c.set(Some((self.uid, txn))));
        Ok(DurableTxn {
            store: Some(Arc::clone(self)),
            txn,
            committed: false,
            _not_send: std::marker::PhantomData,
        })
    }

    fn commit_txn(&self, txn: u64) -> Result<()> {
        self.check_alive()?;
        let mut st = self.state.lock();
        let ops = st.open.remove(&txn).unwrap_or_default();
        if ops.is_empty() {
            return Ok(());
        }
        self.commit_ops(&mut st, txn, ops)
    }

    fn abort_txn(&self, txn: u64) {
        self.state.lock().open.remove(&txn);
        self.wal_metrics.aborts.inc();
    }

    /// Encode `ops` + a `Commit` record into the log buffer, fold them
    /// into the checkpoint work list, and sync/checkpoint per config.
    fn commit_ops(&self, st: &mut WalState, txn: u64, ops: Vec<TxnOp>) -> Result<()> {
        for op in &ops {
            let lsn = st.next_lsn;
            st.next_lsn += 1;
            let rec = match op {
                TxnOp::Write(page, bytes) => WalRecord::PageWrite {
                    txn,
                    lsn,
                    page: *page,
                    bytes: bytes.clone(),
                },
                TxnOp::Alloc(page) => WalRecord::Alloc {
                    txn,
                    lsn,
                    page: *page,
                },
                TxnOp::Dealloc(page) => WalRecord::Dealloc {
                    txn,
                    lsn,
                    page: *page,
                },
            };
            rec.encode_into(&mut st.buf);
            self.wal_metrics.records.inc();
        }
        let lsn = st.next_lsn;
        st.next_lsn += 1;
        WalRecord::Commit { txn, lsn }.encode_into(&mut st.buf);
        self.wal_metrics.records.inc();
        self.wal_metrics.commits.inc();
        for op in ops {
            let hit = match op {
                TxnOp::Write(page, bytes) => st.cache.insert(page.0, FrameState::Live(bytes)),
                TxnOp::Alloc(page) => {
                    // A fresh page is all zeroes until its first write.
                    st.cache
                        .insert_if_absent(page.0, || FrameState::Live(vec![0; self.page_size()]))
                }
                TxnOp::Dealloc(page) => st.cache.insert(page.0, FrameState::Freed),
            };
            if hit {
                self.cache_metrics.hits.inc();
            } else {
                self.cache_metrics.misses.inc();
            }
        }
        st.pending_commits += 1;
        if st.pending_commits >= self.cfg.group_commit {
            self.sync_locked(st)?;
        }
        if st.commits_since_ckpt >= self.cfg.checkpoint_every {
            self.checkpoint_locked(st)?;
        }
        // Capacity pressure: write CLOCK victims back to their frames.
        // Log first — sync_locked makes the covering records durable
        // before any page image lands — so a crash after the writeback
        // replays (or LSN-skips) them consistently. Each writeback is a
        // frame-write durability point like any checkpoint flush.
        while st.cache.over_capacity() {
            self.sync_locked(st)?;
            let Some((page, fs)) = st.cache.evict() else {
                break;
            };
            {
                let mut be = self.disk.backend();
                self.flush_frame(st, &mut *be, page, &fs)?;
            }
            self.cache_metrics.evictions.inc();
            self.cache_metrics.writebacks.inc();
        }
        Ok(())
    }

    /// Record one mutation: into the thread's open transaction, or as
    /// an auto-committed singleton.
    fn log_op(&self, op: TxnOp) -> Result<()> {
        let ambient = AMBIENT_TXN.with(|c| c.get());
        let mut st = self.state.lock();
        if let Some((uid, txn)) = ambient {
            if uid == self.uid {
                if let Some(ops) = st.open.get_mut(&txn) {
                    ops.push(op);
                    return Ok(());
                }
            }
        }
        let txn = st.next_txn;
        st.next_txn += 1;
        self.commit_ops(&mut st, txn, vec![op])
    }

    // ----- durability points ----------------------------------------

    /// Sync the medium's WAL (or frames), timing the call — on the
    /// file backend this is a real fsync; in memory it's free. Not a
    /// durability point: it only promotes already-written bytes.
    fn timed_sync(&self, be: &mut dyn PageBackend, frames: bool) -> Result<()> {
        let t = std::time::Instant::now();
        if frames {
            be.sync_frames()?;
        } else {
            be.sync_wal()?;
        }
        self.backend_metrics.syncs.inc();
        self.backend_metrics
            .sync_ns
            .record(t.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Flush the log buffer to the medium and sync it (the fsync).
    /// Durability point: the appended bytes can tear.
    fn sync_locked(&self, st: &mut WalState) -> Result<()> {
        if st.buf.is_empty() {
            return Ok(());
        }
        let bytes = std::mem::take(&mut st.buf);
        st.commits_since_ckpt += st.pending_commits;
        st.pending_commits = 0;
        let mut be = self.disk.backend();
        if let Some(plan) = &self.cfg.plan {
            if let Some(tear) = plan.at_point(bytes.len()) {
                be.append_wal(&bytes[..tear.keep])?;
                drop(be);
                return Err(self.die());
            }
        }
        be.append_wal(&bytes)?;
        self.backend_metrics.wal_appends.inc();
        self.timed_sync(&mut *be, false)?;
        drop(be);
        self.wal_metrics.syncs.inc();
        self.wal_metrics.sync_bytes.add(bytes.len() as u64);
        Ok(())
    }

    /// Write one committed page state to its frame, stamped with a
    /// fresh LSN. Durability point: the frame bytes can tear (growth
    /// happens first, like a file extended before the write).
    fn flush_frame(
        &self,
        st: &mut WalState,
        be: &mut dyn PageBackend,
        page: u64,
        fs: &FrameState,
    ) -> Result<()> {
        let lsn = st.next_lsn; // stamp frames with a fresh LSN
        st.next_lsn += 1;
        let frame = encode_frame(fs, lsn, self.page_size());
        let frame_size = FRAME_HEADER + self.page_size();
        let at = page as usize * frame_size;
        be.grow_frames(at + frame_size)?;
        if let Some(plan) = &self.cfg.plan {
            if let Some(tear) = plan.at_point(frame.len()) {
                be.write_frame(at, &frame[..tear.keep])?;
                return Err(self.die());
            }
        }
        be.write_frame(at, &frame)?;
        self.wal_metrics.frames_flushed.inc();
        self.backend_metrics.frame_writes.inc();
        Ok(())
    }

    /// Flush committed dirty pages to their frames, sync the frames,
    /// then truncate the log. Durability points: each frame write,
    /// then the truncate. The frame sync *before* the truncate is the
    /// file backend's ordering rule: a frame image (checkpoint flush or
    /// earlier cache writeback) must be durable before the log records
    /// covering it disappear.
    fn checkpoint_locked(&self, st: &mut WalState) -> Result<()> {
        self.sync_locked(st)?;
        let dirty = st.cache.drain_sorted();
        let mut be = self.disk.backend();
        for (page, fs) in dirty {
            self.flush_frame(st, &mut *be, page, &fs)?;
        }
        self.timed_sync(&mut *be, true)?;
        // Truncate the log. A tear here models an in-place truncate
        // caught midway: a valid prefix of already-applied records
        // survives, all older than the frame stamps written above, so
        // the LSN-gated replay skips every one of them.
        if let Some(plan) = &self.cfg.plan {
            let len = be.wal_len();
            if let Some(tear) = plan.at_point(len) {
                be.truncate_wal(tear.keep)?;
                drop(be);
                return Err(self.die());
            }
        }
        be.truncate_wal(0)?;
        self.timed_sync(&mut *be, false)?;
        drop(be);
        st.commits_since_ckpt = 0;
        self.wal_metrics.checkpoints.inc();
        Ok(())
    }

    /// Force a group-commit sync now (flush any buffered commits).
    pub fn sync(&self) -> Result<()> {
        self.check_alive()?;
        self.sync_locked(&mut self.state.lock())
    }

    /// Force a checkpoint now.
    pub fn checkpoint(&self) -> Result<()> {
        self.check_alive()?;
        self.checkpoint_locked(&mut self.state.lock())
    }

    // ----- PageStore-shaped surface ---------------------------------

    /// Allocate a page (logged).
    pub fn alloc(&self) -> Result<PageId> {
        self.check_alive()?;
        let page = self.cache.alloc()?;
        self.log_op(TxnOp::Alloc(page))?;
        Ok(page)
    }

    /// Deallocate a page (logged).
    pub fn dealloc(&self, page: PageId) -> Result<()> {
        self.check_alive()?;
        self.cache.dealloc(page)?;
        self.log_op(TxnOp::Dealloc(page))
    }

    /// Read a whole page — straight from the volatile cache; reads are
    /// not logged.
    pub fn read(&self, page: PageId, buf: &mut PageBuf) -> Result<()> {
        self.check_alive()?;
        self.cache.read(page, buf)
    }

    /// Write a whole page: redo record first, then the cache (same
    /// per-page atomicity contract as [`PageStore::write`]).
    pub fn write(&self, page: PageId, buf: &PageBuf) -> Result<()> {
        self.check_alive()?;
        self.log_op(TxnOp::Write(page, buf.to_vec()))?;
        self.cache.write(page, buf)
    }

    /// Currently allocated page ids (quiescent use only).
    pub fn allocated_page_ids(&self) -> Vec<PageId> {
        self.cache.allocated_page_ids()
    }

    // ----- recovery -------------------------------------------------

    /// Bring a medium back to life: verify checksums, quarantine torn
    /// frames, replay the committed log, rebuild the volatile cache,
    /// and persist the recovered state (so recovery itself is
    /// crash-consistent — a `cfg.plan` armed at a point reached during
    /// the final flush tears the medium again, and a second `recover`
    /// must land in the same place; the idempotence property test
    /// drives exactly that).
    pub fn recover(
        disk: &DiskHandle,
        cfg: DurableConfig,
        metrics: &MetricsHandle,
    ) -> Result<(Arc<Self>, RecoveryReport)> {
        let span = metrics.trace_begin(ceh_obs::TraceCtx::current(), "storage", "recover", 0, 0);
        let out = Self::recover_inner(disk, cfg, metrics);
        match &out {
            Ok((_, rep)) => metrics.trace_end(
                span,
                "storage",
                "recover",
                rep.redo_applied as u64,
                rep.torn as u64,
            ),
            Err(_) => metrics.trace_end(span, "storage", "recover", u64::MAX, 0),
        }
        out
    }

    fn recover_inner(
        disk: &DiskHandle,
        cfg: DurableConfig,
        metrics: &MetricsHandle,
    ) -> Result<(Arc<Self>, RecoveryReport)> {
        let image = disk.try_snapshot()?;
        if image.page_size != cfg.page.page_size {
            return Err(Error::Config(format!(
                "medium has {}-byte pages, config wants {}",
                image.page_size, cfg.page.page_size
            )));
        }
        let mut report = RecoveryReport::default();

        // 1. Classify frames. A trailing partial region (a crash during
        //    frame-array growth) cannot hold committed-only data —
        //    growth happens before the frame write whose redo is still
        //    logged — so it is treated as one torn frame.
        let frame_size = FRAME_HEADER + image.page_size;
        let nframes = image.frames.len().div_ceil(frame_size);
        report.frames = nframes;
        let mut slots: Vec<Slot> = (0..nframes)
            .map(|i| {
                let at = i * frame_size;
                let end = (at + frame_size).min(image.frames.len());
                classify_frame(&image.frames[at..end], frame_size)
            })
            .collect();
        report.live = slots
            .iter()
            .filter(|s| matches!(s, Slot::Live { .. }))
            .count();
        report.freed = slots
            .iter()
            .filter(|s| matches!(s, Slot::Free { .. }))
            .count();
        report.torn = slots.iter().filter(|s| matches!(s, Slot::Torn)).count();

        // 2. Parse the log's valid prefix and find the committed set.
        let (records, torn_tail) = parse_wal(&image.wal);
        report.wal_records = records.len();
        report.wal_torn_tail = torn_tail;
        let committed: HashSet<u64> = records
            .iter()
            .filter_map(|r| match r {
                WalRecord::Commit { txn, .. } => Some(*txn),
                _ => None,
            })
            .collect();
        let all_txns: HashSet<u64> = records.iter().map(|r| r.txn()).collect();
        report.txns_committed = committed.len();
        report.txns_discarded = all_txns.len() - committed.len();

        // 3. Replay committed records in log order, LSN-gated: a record
        //    only applies over a frame whose stamp is older (see module
        //    docs — a torn truncate leaves newer frames than the
        //    surviving log prefix, and regressing them would tear
        //    committed multi-page transactions). Full-page images make
        //    the applied subset idempotent, and it is what rebuilds
        //    torn frames.
        let mut max_lsn = 0u64;
        let mut max_txn = 0u64;
        for rec in &records {
            max_lsn = max_lsn.max(rec.lsn());
            max_txn = max_txn.max(rec.txn());
            if !committed.contains(&rec.txn()) {
                continue;
            }
            check_redo_image(rec, image.page_size)?;
            let idx = match rec {
                WalRecord::PageWrite { page, .. }
                | WalRecord::Alloc { page, .. }
                | WalRecord::Dealloc { page, .. } => page.0 as usize,
                WalRecord::Commit { .. } => continue,
            };
            grow_slots(&mut slots, idx);
            if rec.lsn() < slots[idx].lsn() {
                continue; // the frame already holds a newer image
            }
            slots[idx] = match rec {
                WalRecord::PageWrite { bytes, lsn, .. } => Slot::Live {
                    bytes: bytes.clone(),
                    lsn: *lsn,
                },
                WalRecord::Alloc { lsn, .. } => Slot::Live {
                    bytes: vec![0; image.page_size],
                    lsn: *lsn,
                },
                WalRecord::Dealloc { lsn, .. } => Slot::Free { lsn: *lsn },
                WalRecord::Commit { .. } => unreachable!("handled above"),
            };
            report.redo_applied += 1;
        }

        // 4. Any torn frame the committed log does not cover is real
        //    corruption: the write ordering guarantees coverage, so
        //    this can only mean the medium rotted outside a crash.
        if let Some(i) = slots.iter().position(|s| matches!(s, Slot::Torn)) {
            return Err(Error::Corrupt(format!(
                "torn frame for p{i} has no committed redo image"
            )));
        }

        // 5. Rebuild the volatile cache with the exact allocation map.
        let pages: Vec<Option<PageBuf>> = slots
            .iter()
            .map(|s| match s {
                Slot::Live { bytes, .. } => {
                    let mut buf = PageBuf::zeroed(image.page_size);
                    buf.copy_from_slice(bytes);
                    Some(buf)
                }
                Slot::Free { .. } => None,
                Slot::Torn => unreachable!("torn frames rebuilt or rejected above"),
            })
            .collect();
        let cache = Arc::new(PageStore::restore(cfg.page.clone(), pages, metrics));

        let store = Arc::new(DurableStore {
            uid: NEXT_STORE_UID.fetch_add(1, Ordering::Relaxed),
            disk: disk.clone(),
            cache,
            state: Mutex::new(WalState::new(cfg.cache_pages, max_txn + 1, max_lsn + 1)),
            dead: AtomicBool::new(false),
            wal_metrics: WalMetrics::new(metrics),
            backend_metrics: BackendMetrics::new(metrics),
            cache_metrics: CacheMetrics::new(metrics),
            cfg,
        });

        // 6. Persist the recovered state: every slot becomes a clean
        //    frame and the log empties. This walks the same durability
        //    points as a normal checkpoint, so an armed plan can cut
        //    power *during recovery* — the double-crash case. Slots are
        //    seeded without hit/miss accounting (recovery isn't
        //    workload traffic) and regardless of cache capacity: the
        //    checkpoint drains them all immediately.
        {
            let mut st = store.state.lock();
            for (i, s) in slots.into_iter().enumerate() {
                let fs = match s {
                    Slot::Live { bytes, .. } => FrameState::Live(bytes),
                    Slot::Free { .. } => FrameState::Freed,
                    Slot::Torn => unreachable!(),
                };
                st.cache.seed(i as u64, fs);
            }
            store.checkpoint_locked(&mut st)?;
        }

        let h = metrics;
        h.counter("storage.recovery.runs").inc();
        h.counter("storage.recovery.redo_applied")
            .add(report.redo_applied as u64);
        h.counter("storage.recovery.torn_frames")
            .add(report.torn as u64);
        h.counter("storage.recovery.txns_discarded")
            .add(report.txns_discarded as u64);
        Ok((store, report))
    }
}

/// A frame's classification during recovery. Live and freed frames
/// carry their stamped LSN so replay can be gated: a redo record only
/// applies over a frame *older* than itself (never-written regions
/// report LSN 0, torn frames have no trustworthy stamp and accept any
/// committed image).
enum Slot {
    Live { bytes: Vec<u8>, lsn: u64 },
    Free { lsn: u64 },
    Torn,
}

impl Slot {
    /// The stamp replay compares record LSNs against.
    fn lsn(&self) -> u64 {
        match self {
            Slot::Live { lsn, .. } | Slot::Free { lsn } => *lsn,
            Slot::Torn => 0,
        }
    }
}

fn grow_slots(slots: &mut Vec<Slot>, idx: usize) {
    while slots.len() <= idx {
        slots.push(Slot::Free { lsn: 0 });
    }
}

fn encode_frame(fs: &FrameState, lsn: u64, page_size: usize) -> Vec<u8> {
    let (flags, payload): (u32, std::borrow::Cow<'_, [u8]>) = match fs {
        FrameState::Live(bytes) => (FLAG_LIVE, bytes.as_slice().into()),
        // Freed frames keep a poison payload so debris is recognizable
        // in hexdumps; correctness only needs the cleared flag.
        FrameState::Freed => (0, vec![crate::page::POISON_BYTE; page_size].into()),
    };
    let mut frame = Vec::with_capacity(FRAME_HEADER + page_size);
    frame.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    frame.extend_from_slice(&flags.to_le_bytes());
    frame.extend_from_slice(&lsn.to_le_bytes());
    // CRC over flags + lsn + payload (offsets 4..16 plus the body).
    let mut sum = Vec::with_capacity(12 + payload.len());
    sum.extend_from_slice(&flags.to_le_bytes());
    sum.extend_from_slice(&lsn.to_le_bytes());
    sum.extend_from_slice(&payload);
    frame.extend_from_slice(&crc32(&sum).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

fn classify_frame(region: &[u8], frame_size: usize) -> Slot {
    if region.iter().all(|&b| b == 0) {
        // Never written (frame-array growth zero-fills).
        return Slot::Free { lsn: 0 };
    }
    if region.len() < frame_size {
        return Slot::Torn; // partial trailing region
    }
    let magic = u32::from_le_bytes(region[0..4].try_into().expect("slice len"));
    if magic != FRAME_MAGIC {
        return Slot::Torn;
    }
    let flags = u32::from_le_bytes(region[4..8].try_into().expect("slice len"));
    let lsn = u64::from_le_bytes(region[8..16].try_into().expect("slice len"));
    let crc = u32::from_le_bytes(region[16..20].try_into().expect("slice len"));
    let mut sum = Vec::with_capacity(region.len() - 8);
    sum.extend_from_slice(&region[4..16]);
    sum.extend_from_slice(&region[FRAME_HEADER..]);
    if crc32(&sum) != crc {
        return Slot::Torn;
    }
    if flags & FLAG_LIVE != 0 {
        Slot::Live {
            bytes: region[FRAME_HEADER..].to_vec(),
            lsn,
        }
    } else {
        Slot::Free { lsn }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(page_size: usize) -> DurableConfig {
        DurableConfig::small(page_size)
    }

    fn filled(store: &DurableStore, byte: u8) -> PageBuf {
        let mut b = store.new_buf();
        b.fill(byte);
        b
    }

    #[test]
    fn acked_singleton_write_survives_power_loss() {
        let s = DurableStore::new(cfg(64), &MetricsHandle::new());
        let p = s.alloc().unwrap();
        s.write(p, &filled(&s, 0xA1)).unwrap();
        s.power_off();
        assert_eq!(s.read(p, &mut s.new_buf()).unwrap_err(), Error::PowerLoss);

        let (r, rep) = DurableStore::recover(&s.disk(), cfg(64), &MetricsHandle::new()).unwrap();
        assert_eq!(rep.txns_committed, 2, "alloc + write singletons");
        let mut buf = r.new_buf();
        r.read(p, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xA1));
    }

    #[test]
    fn uncommitted_txn_leaves_no_durable_trace() {
        let s = DurableStore::new(cfg(64), &MetricsHandle::new());
        let p = s.alloc().unwrap(); // acked singleton
        s.write(p, &filled(&s, 0x11)).unwrap(); // acked
        let txn = s.begin_txn().unwrap();
        let q = s.alloc().unwrap(); // buffered
        s.write(q, &filled(&s, 0x22)).unwrap(); // buffered
        s.write(p, &filled(&s, 0x33)).unwrap(); // buffered overwrite
        drop(txn); // power dies before commit
        s.power_off();

        let (r, rep) = DurableStore::recover(&s.disk(), cfg(64), &MetricsHandle::new()).unwrap();
        let mut buf = r.new_buf();
        r.read(p, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0x11), "overwrite not durable");
        assert_eq!(
            r.read(q, &mut r.new_buf()).unwrap_err(),
            Error::PageFault { page: q.0 },
            "uncommitted alloc not durable"
        );
        assert_eq!(rep.txns_discarded, 0, "aborted txn never reached the log");
    }

    #[test]
    fn committed_txn_is_atomic_across_recovery() {
        let s = DurableStore::new(cfg(64), &MetricsHandle::new());
        let p = s.alloc().unwrap();
        s.write(p, &filled(&s, 0x01)).unwrap();
        let txn = s.begin_txn().unwrap();
        let q = s.alloc().unwrap();
        s.write(q, &filled(&s, 0x02)).unwrap();
        s.write(p, &filled(&s, 0x03)).unwrap();
        txn.commit().unwrap();
        s.power_off();

        let (r, _) = DurableStore::recover(&s.disk(), cfg(64), &MetricsHandle::new()).unwrap();
        let mut buf = r.new_buf();
        r.read(p, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0x03));
        r.read(q, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0x02));
    }

    #[test]
    fn checkpoint_then_more_commits_then_recover() {
        let s = DurableStore::new(cfg(64), &MetricsHandle::new());
        let p = s.alloc().unwrap();
        let q = s.alloc().unwrap();
        s.write(p, &filled(&s, 0x0A)).unwrap();
        s.write(q, &filled(&s, 0x0B)).unwrap();
        s.checkpoint().unwrap();
        assert!(s.disk().snapshot().wal.is_empty(), "checkpoint truncates");
        s.write(p, &filled(&s, 0x0C)).unwrap(); // post-checkpoint commit
        s.dealloc(q).unwrap();
        s.power_off();

        let (r, rep) = DurableStore::recover(&s.disk(), cfg(64), &MetricsHandle::new()).unwrap();
        let mut buf = r.new_buf();
        r.read(p, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0x0C));
        assert_eq!(
            r.read(q, &mut r.new_buf()).unwrap_err(),
            Error::PageFault { page: q.0 }
        );
        assert!(rep.live >= 1, "checkpointed frames found: {rep:?}");
    }

    #[test]
    fn dropping_the_store_is_a_power_cut() {
        let disk;
        let p;
        {
            let s = DurableStore::new(cfg(64), &MetricsHandle::new());
            p = s.alloc().unwrap();
            s.write(p, &filled(&s, 0x5A)).unwrap();
            disk = s.disk();
        } // volatile cache gone
        let (r, _) = DurableStore::recover(&disk, cfg(64), &MetricsHandle::new()).unwrap();
        let mut buf = r.new_buf();
        r.read(p, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0x5A));
    }

    #[test]
    fn nested_begin_txn_defers_to_the_outer_one() {
        let s = DurableStore::new(cfg(64), &MetricsHandle::new());
        let outer = s.begin_txn().unwrap();
        let p = s.alloc().unwrap();
        {
            let inner = s.begin_txn().unwrap();
            s.write(p, &filled(&s, 0x77)).unwrap();
            inner.commit().unwrap(); // no-op: outer still open
        }
        s.power_off();
        drop(outer);
        let (r, _) = DurableStore::recover(&s.disk(), cfg(64), &MetricsHandle::new()).unwrap();
        assert_eq!(
            r.read(p, &mut r.new_buf()).unwrap_err(),
            Error::PageFault { page: p.0 },
            "everything was in the (never committed) outer txn"
        );
    }

    #[test]
    fn recovery_is_idempotent_even_when_it_crashes() {
        // Build a medium with a checkpoint + post-checkpoint commits.
        let s = DurableStore::new(cfg(64), &MetricsHandle::new());
        let p = s.alloc().unwrap();
        let q = s.alloc().unwrap();
        s.write(p, &filled(&s, 0x10)).unwrap();
        s.write(q, &filled(&s, 0x20)).unwrap();
        s.checkpoint().unwrap();
        s.write(p, &filled(&s, 0x30)).unwrap();
        s.power_off();
        let disk = s.disk();

        // Reference recovery (no crash).
        let (r0, _) = DurableStore::recover(&disk, cfg(64), &MetricsHandle::new()).unwrap();
        let mut want_p = r0.new_buf();
        r0.read(p, &mut want_p).unwrap();
        let mut want_q = r0.new_buf();
        r0.read(q, &mut want_q).unwrap();

        // Crash recovery's persist step at every reachable point, then
        // recover again — the final state must match the reference.
        for point in 1..32 {
            let crash_cfg = DurableConfig {
                plan: Some(CrashPlan::armed(9, point)),
                ..cfg(64)
            };
            match DurableStore::recover(&disk, crash_cfg, &MetricsHandle::new()) {
                Ok(_) => break, // past the last reachable point
                Err(Error::PowerLoss) => {}
                Err(e) => panic!("unexpected recovery error at point {point}: {e}"),
            }
            let (r, _) = DurableStore::recover(&disk, cfg(64), &MetricsHandle::new()).unwrap();
            let mut buf = r.new_buf();
            r.read(p, &mut buf).unwrap();
            assert_eq!(&*buf, &*want_p, "point {point}: p diverged");
            r.read(q, &mut buf).unwrap();
            assert_eq!(&*buf, &*want_q, "point {point}: q diverged");
        }
    }

    #[test]
    fn torn_frame_is_rebuilt_from_redo() {
        // Points: alloc sync = 1, write sync = 2, checkpoint frame
        // flush = 3, log truncate = 4. Arming point 3 tears the frame
        // mid-flush; the already-synced log still covers it.
        let crash_cfg = DurableConfig {
            plan: Some(CrashPlan::armed(3, 3)),
            ..cfg(64)
        };
        let s = DurableStore::new(crash_cfg, &MetricsHandle::new());
        let p = s.alloc().unwrap();
        let mut b = s.new_buf();
        b.fill(0xEE);
        s.write(p, &b).unwrap(); // acked before the crash point
        assert_eq!(s.checkpoint().unwrap_err(), Error::PowerLoss);
        let (r, _) = DurableStore::recover(&s.disk(), cfg(64), &MetricsHandle::new()).unwrap();
        let mut buf = r.new_buf();
        r.read(p, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0xEE), "acked write survived");
    }

    #[test]
    fn sweep_over_every_point_of_a_tiny_workload() {
        // Count, then crash at each point; every recovery must yield a
        // store whose acked pages read back exactly.
        let run = |plan: CrashPlan| -> (DiskHandle, Vec<(PageId, u8)>, CrashPlan) {
            let c = DurableConfig {
                plan: Some(plan.clone()),
                checkpoint_every: 2,
                ..cfg(64)
            };
            let s = DurableStore::new(c, &MetricsHandle::new());
            let mut acked = Vec::new();
            'work: for i in 0..6u8 {
                let Ok(p) = s.alloc() else { break 'work };
                let mut b = s.new_buf();
                b.fill(0x40 + i);
                if s.write(p, &b).is_err() {
                    break 'work;
                }
                acked.push((p, 0x40 + i));
            }
            (s.disk(), acked, plan)
        };
        let (_, _, counter) = run(CrashPlan::count_only(11));
        let total = counter.points();
        assert!(total > 4, "workload reaches several points: {total}");
        for point in 1..=total {
            let (disk, acked, plan) = run(CrashPlan::armed(11, point));
            assert!(plan.fired(), "point {point} must fire");
            let (r, _) = DurableStore::recover(&disk, cfg(64), &MetricsHandle::new()).unwrap();
            for (p, byte) in acked {
                let mut buf = r.new_buf();
                r.read(p, &mut buf)
                    .unwrap_or_else(|e| panic!("point {point}: acked {p} lost: {e}"));
                assert!(
                    buf.iter().all(|&x| x == byte),
                    "point {point}: acked {p} corrupted"
                );
            }
        }
    }

    #[test]
    fn wal_metrics_flow_into_the_shared_registry() {
        let h = MetricsHandle::new();
        let s = DurableStore::new(cfg(64), &h);
        let p = s.alloc().unwrap();
        s.write(p, &filled(&s, 1)).unwrap();
        s.checkpoint().unwrap();
        let m = h.snapshot();
        assert!(m.counter("storage.wal.records") >= 2);
        assert_eq!(m.counter("storage.wal.commits"), 2);
        assert!(m.counter("storage.wal.syncs") >= 1);
        assert_eq!(m.counter("storage.wal.checkpoints"), 1);
        assert!(m.counter("storage.wal.frames_flushed") >= 1);

        s.power_off();
        let h2 = MetricsHandle::new();
        let _ = DurableStore::recover(&s.disk(), cfg(64), &h2).unwrap();
        assert_eq!(h2.snapshot().counter("storage.recovery.runs"), 1);
    }
}
