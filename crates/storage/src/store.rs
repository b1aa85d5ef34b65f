//! The page store.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use ceh_locks::header::{self, ALLOCATED};
use ceh_locks::{shadow, HeaderWords, LockManager, LockMode};
use ceh_types::segarray::WordSegment;
use ceh_types::{Error, PageId, Result, SegArray, SharedPage, SharedPageMut};
use parking_lot::Mutex;

use crate::page::{PageBuf, POISON_BYTE};
use crate::stats::{IoStats, IoStatsSnapshot};

/// Configuration for a [`PageStore`].
#[derive(Debug, Clone)]
pub struct PageStoreConfig {
    /// Size of every page in bytes.
    pub page_size: usize,
    /// Number of page slots created eagerly.
    pub initial_pages: usize,
    /// Hard cap on the number of pages (None = grow without bound).
    pub max_pages: Option<usize>,
    /// Busy-wait latency injected into each read and write, in
    /// nanoseconds. Zero disables. Models disk access cost for the
    /// benchmark harness.
    pub io_latency_ns: u64,
    /// Fill freed pages with [`POISON_BYTE`] and fault on access to
    /// unallocated pages. On by default; the concurrency torture tests
    /// rely on it to catch protocol violations.
    pub poison_freed: bool,
}

impl Default for PageStoreConfig {
    fn default() -> Self {
        PageStoreConfig {
            page_size: 4096,
            initial_pages: 64,
            max_pages: None,
            io_latency_ns: 0,
            poison_freed: true,
        }
    }
}

impl PageStoreConfig {
    /// Small pages for tests that want to force splits cheaply.
    pub fn small(page_size: usize) -> Self {
        PageStoreConfig {
            page_size,
            ..Default::default()
        }
    }
}

/// Bytes of a huge page: a slot segment this large or larger starts on a
/// huge-page boundary and is advised `MADV_HUGEPAGE`.
const HUGE: usize = 2 << 20;

/// One page's physical storage, seen in place in its slot segment: the
/// page's header word, and the page's words after it.
///
/// The header ([`ceh_locks::header`]) is the page's ρ/α/ξ lock word and
/// its seqlock state: version, allocated and writing bits. Every change
/// of the slot — a write, an in-place edit, an allocation or a
/// deallocation — sets the writing bit before its stores and advances
/// the version after them ([`PageSlot::change`]). Changes are serialized
/// by the locking protocols, not by the store: a page write holds α or ξ
/// on its page, or goes to a page no other process can reach yet (a
/// fresh split half, recovery). A reader holds no latch either: it
/// validates its pass against the version and retries one that a change
/// overlapped, so it never sees a torn page (the §2.1 "read and written
/// as single operations" guarantee). The page's bytes are atomic words
/// so that such a reader's loads never race a writer's stores.
#[derive(Clone, Copy)]
struct PageSlot<'a> {
    words: &'a [AtomicU64],
}

impl<'a> PageSlot<'a> {
    /// The slot's location for the race detector (see
    /// [`ceh_locks::shadow::ShadowLoc::Page`]): its header word's address.
    fn shadow_loc(self) -> usize {
        self.header() as *const AtomicU64 as usize
    }

    /// The header word.
    #[inline]
    fn header(self) -> &'a AtomicU64 {
        &self.words[0]
    }

    /// The page's words.
    #[inline]
    fn page(self) -> &'a [AtomicU64] {
        &self.words[1..]
    }

    /// Run `f` as one change of the slot, handing it the page and the
    /// header as it was before: inside the writing bit, ending with the
    /// next version and the allocated bit set to `allocated` (`None`
    /// leaves it).
    fn change<R>(self, allocated: Option<bool>, f: impl FnOnce(SharedPageMut<'_>, u64) -> R) -> R {
        let before = header::write_begin(self.header());
        let out = f(SharedPageMut::new(self.page()), before);
        header::write_end(self.header(), allocated);
        out
    }
}

/// Ask the kernel to back `words`, from a 4 KiB boundary, with huge
/// pages, through the `madvise` of the C library that std links already.
/// `false` when it refuses; 4 KiB pages then serve the same.
#[cfg(target_os = "linux")]
fn advise_huge(words: &[AtomicU64]) -> bool {
    extern "C" {
        fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
    }
    const MADV_HUGEPAGE: i32 = 14;
    let (addr, len) = (words.as_ptr() as *mut _, std::mem::size_of_val(words));
    // SAFETY: MADV_HUGEPAGE is advice: it changes no byte of the range,
    // which `words` borrows from a 4 KiB boundary inside one allocation.
    // ceh-lint: allow(unsafe-block) — advice that changes no byte; see SAFETY
    unsafe { madvise(addr, len, MADV_HUGEPAGE) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn advise_huge(_words: &[AtomicU64]) -> bool {
    false
}

/// The grow-only slot table: a [`SegArray`] of [`WordSegment`]s holding
/// the slots themselves. A slot is published once, by the length's
/// `Release` store, then never moved or freed while the store lives, so
/// a page access loads the length, the segment and the page: no lock and
/// no reference count (either would write a line every access writes).
/// An id at or past the length faults even where its segment exists: a
/// zeroed slot not yet published is not a free page.
struct Slots {
    table: SegArray<WordSegment>,
    /// Words from one slot to the next: the header word and the page,
    /// rounded up to a cache line, and to 4 KiB when that costs at most
    /// 1/64 more.
    stride: usize,
    /// How many slots are published.
    len: AtomicUsize,
    /// Held while the table grows: the bytes of its segments advised
    /// onto huge pages.
    grow: Mutex<usize>,
}

impl Slots {
    /// An empty table for pages of `page_size` bytes. Pages are whole
    /// words, so the page size must be a multiple of 8 (every bucket page
    /// size is).
    fn new(page_size: usize) -> Self {
        assert!(
            page_size.is_multiple_of(8),
            "page size {page_size} is not a whole number of 8-byte words"
        );
        let line = (8 + page_size).next_multiple_of(64);
        let page = line.next_multiple_of(4096);
        let stride = if (page - line) * 64 <= line {
            page
        } else {
            line
        };
        Slots {
            table: SegArray::new(),
            stride: stride / 8,
            len: AtomicUsize::new(0),
            grow: Mutex::new(0),
        }
    }

    #[inline]
    fn get(&self, i: u64) -> Option<PageSlot<'_>> {
        let i = usize::try_from(i).ok().filter(|&i| i < self.len())?;
        Some(PageSlot {
            words: self.table.get(i)?,
        })
    }

    #[inline]
    fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Every published slot with its page id.
    fn iter(&self) -> impl Iterator<Item = (PageId, PageSlot<'_>)> {
        (0..)
            .zip(self.table.iter().take(self.len()))
            .map(|(i, words)| (PageId(i), PageSlot { words }))
    }
}

/// What an in-bucket update decides from its validated read (see
/// [`PageStore::update_validated`]).
#[derive(Debug)]
pub enum Plan<A, R> {
    /// Answer from the read, without writing (a duplicate insert, a
    /// delete of an absent key): kept if the read validates.
    Answer(R),
    /// Take `LockMode` (α or ξ) on the page with one CAS and apply `A`.
    Upgrade(LockMode, A),
}

/// Simulated secondary storage holding fixed-size pages, in memory: each
/// page inline after its header word, at a fixed stride in a zeroed
/// segment (on huge pages from 2 MiB), never moved. Persistence is the
/// durability layer's job: a [`crate::DurableStore`] logs every change
/// before it reaches its `PageStore`, which is then the volatile cache.
///
/// Share it in an [`Arc`] ([`PageStore::new_shared`]) between the threads
/// playing the paper's "processes".
pub struct PageStore {
    cfg: PageStoreConfig,
    /// Grow-only slot table, read without a lock.
    slots: Slots,
    /// Free list of deallocated page ids, reused LIFO.
    free: Mutex<Vec<PageId>>,
    stats: IoStats,
    /// Current simulated per-I/O latency in nanoseconds (see
    /// [`PageStore::set_io_latency_ns`]).
    io_latency_ns: AtomicU64,
}

impl std::fmt::Debug for PageStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageStore")
            .field("page_size", &self.cfg.page_size)
            .field("slots", &self.slots.len())
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

impl PageStore {
    /// Create an in-memory store with the given configuration and a
    /// private metrics registry.
    pub fn new(cfg: PageStoreConfig) -> Self {
        Self::with_metrics(cfg, &ceh_obs::MetricsHandle::default())
    }

    /// Create an in-memory store whose I/O statistics land in `metrics`'
    /// registry (under the `storage.` prefix), correlated with every
    /// other layer wired to the same handle.
    pub fn with_metrics(cfg: PageStoreConfig, metrics: &ceh_obs::MetricsHandle) -> Self {
        let n = cfg.initial_pages;
        let mut store = Self::empty(cfg, metrics);
        for _ in 0..n {
            store
                .push(0, |_| ())
                .expect("a new store fits the slot table");
        }
        // Seed the free list with the initial pool, reversed so pages are
        // handed out in ascending order (stable figure goldens).
        store.set_free((0..n as u64).rev().map(PageId).collect());
        store
    }

    /// Create an `Arc`-wrapped store (the common sharing pattern).
    pub fn new_shared(cfg: PageStoreConfig) -> Arc<Self> {
        Arc::new(Self::new(cfg))
    }

    /// `Arc`-wrapped [`PageStore::with_metrics`].
    pub fn new_shared_with_metrics(
        cfg: PageStoreConfig,
        metrics: &ceh_obs::MetricsHandle,
    ) -> Arc<Self> {
        Arc::new(Self::with_metrics(cfg, metrics))
    }

    /// Rebuild an in-memory store from recovered page images:
    /// `pages[i]` is `Some(bytes)` for an allocated page `i` with
    /// exactly those contents, `None` for a free slot. The allocation
    /// map is reproduced exactly, so page ids embedded in recovered
    /// buckets (directory entries, next/prev links) stay valid. Used by
    /// the durable layer's crash recovery.
    pub fn restore(
        cfg: PageStoreConfig,
        pages: Vec<Option<PageBuf>>,
        metrics: &ceh_obs::MetricsHandle,
    ) -> Self {
        let mut store = Self::empty(cfg, metrics);
        let mut free = Vec::new();
        let (size, poison) = (store.cfg.page_size, store.cfg.poison_freed);
        for (i, p) in pages.into_iter().enumerate() {
            let head = if p.is_some() { ALLOCATED } else { 0 };
            let pushed = store.push(head, |mut words| match p {
                Some(buf) => {
                    assert_eq!(buf.len(), size, "restored page size mismatch");
                    words.copy_from(&buf)
                }
                None => {
                    free.push(PageId(i as u64));
                    if poison {
                        words.fill(POISON_BYTE)
                    }
                }
            });
            pushed.expect("a restored store fits the slot table");
        }
        // LIFO free list, reversed so the lowest free id pops first
        // (matching the fresh-store allocation order).
        free.reverse();
        store.set_free(free);
        store
    }

    /// A store with no slot, its levels counted in `metrics`' gauges.
    fn empty(cfg: PageStoreConfig, metrics: &ceh_obs::MetricsHandle) -> Self {
        PageStore {
            slots: Slots::new(cfg.page_size),
            free: Mutex::new(Vec::new()),
            io_latency_ns: AtomicU64::new(cfg.io_latency_ns),
            cfg,
            stats: IoStats::with_handle(metrics),
        }
    }

    /// Make `free` the free list of a store not yet shared.
    fn set_free(&mut self, free: Vec<PageId>) {
        self.stats.record_free(free.len() as i64);
        *self.free.get_mut() = free;
    }

    /// Publish the next page id: its page filled by `fill`, then its
    /// header set to `head` (free, a recovered page's `ALLOCATED`, or a
    /// new page's `ALLOCATED | FRESH`). [`Error::OutOfPages`] past
    /// `max_pages` or the slot table's capacity.
    fn push(&self, head: u64, fill: impl FnOnce(SharedPageMut<'_>)) -> Result<PageId> {
        let mut advised = self.slots.grow.lock();
        let id = self.slots.len();
        if self.cfg.max_pages.is_some_and(|max| id >= max) {
            return Err(Error::OutOfPages);
        }
        let (stride, used) = (self.slots.stride, 1 + self.cfg.page_size / 8);
        let grown = self.slots.table.grow_with(id + 1, |_, len| {
            let bytes = len * stride * 8;
            let seg =
                WordSegment::zeroed(len, stride, used, if bytes < HUGE { 4096 } else { HUGE });
            if bytes >= HUGE && advise_huge(seg.elements()) {
                *advised += bytes;
                self.stats.record_huge_advised(bytes as i64);
            }
            seg
        });
        if !grown {
            return Err(Error::OutOfPages);
        }
        let words = self
            .slots
            .table
            .get(id)
            .expect("the table was grown past id");
        let slot = PageSlot { words };
        fill(SharedPageMut::new(slot.page()));
        slot.header().store(head, Ordering::Release);
        self.slots.len.store(id + 1, Ordering::Release);
        self.stats.record_slots(1);
        Ok(PageId(id as u64))
    }

    /// The configured page size.
    #[inline]
    pub fn page_size(&self) -> usize {
        self.cfg.page_size
    }

    /// A fresh zeroed buffer of the right size for this store.
    pub fn new_buf(&self) -> PageBuf {
        PageBuf::zeroed(self.cfg.page_size)
    }

    /// The I/O counters.
    pub fn stats(&self) -> IoStatsSnapshot {
        self.stats.snapshot()
    }

    /// Reset the I/O counters (between benchmark phases).
    pub fn reset_stats(&self) {
        self.stats.reset()
    }

    /// Number of page slots that currently exist (allocated or free).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Number of currently allocated pages.
    pub fn allocated_pages(&self) -> usize {
        self.slots
            .iter()
            .filter(|(_, s)| header::allocated(s.header()))
            .count()
    }

    fn slot(&self, page: PageId) -> Result<PageSlot<'_>> {
        self.slots
            .get(page.0)
            .ok_or(Error::PageFault { page: page.0 })
    }

    /// Change the simulated per-I/O latency at runtime. The benchmark
    /// harness preloads with latency disabled, then enables it for the
    /// measured phase.
    pub fn set_io_latency_ns(&self, ns: u64) {
        // ceh-lint: allow(relaxed-ordering) — simulation knob; no data depends on it
        self.io_latency_ns.store(ns, Ordering::Relaxed);
    }

    /// The current simulated per-I/O latency.
    pub fn io_latency_ns(&self) -> u64 {
        // ceh-lint: allow(relaxed-ordering) — simulation knob; no data depends on it
        self.io_latency_ns.load(Ordering::Relaxed)
    }

    fn simulate_latency(&self) {
        // ceh-lint: allow(relaxed-ordering) — simulation knob; no data depends on it
        let ns = self.io_latency_ns.load(Ordering::Relaxed);
        if ns == 0 {
            return;
        }
        // The simulated cost *is* the I/O time; recording the configured
        // value (rather than measuring the spin/sleep) keeps the zero-
        // latency fast path free of clock reads.
        self.stats.record_io_ns(ns);
        if ns >= 10_000 {
            // Long latencies sleep: the thread yields its core, so
            // concurrent I/Os overlap like real disk requests do — which
            // is the effect the paper's protocols exist to exploit.
            std::thread::sleep(std::time::Duration::from_nanos(ns));
        } else {
            // Sub-10µs latencies spin: OS sleep granularity (~60µs) would
            // distort them far more than burning the core does.
            let start = std::time::Instant::now();
            while (start.elapsed().as_nanos() as u64) < ns {
                std::hint::spin_loop();
            }
        }
    }

    /// Allocate a fresh page (`allocbucket`). The page's contents start
    /// zeroed (or poisoned garbage if it was previously freed — callers
    /// must write before reading, as the paper's `putbucket(newpage, …)`
    /// always does).
    pub fn alloc(&self) -> Result<PageId> {
        if let Some(p) = self.free.lock().pop() {
            self.stats.record_free(-1);
            self.slot(p)?.change(Some(true), |_, _| ());
            self.stats.record_alloc();
            return Ok(p);
        }
        // Free list empty: grow the slot table. Every page id ever created
        // is either allocated or on the free list, so appending is the
        // only growth path.
        let page = self.push(ALLOCATED | header::FRESH, |_| ())?;
        self.stats.record_alloc();
        Ok(page)
    }

    /// Deallocate a page (`deallocbucket`). With poisoning enabled the
    /// page is overwritten with [`POISON_BYTE`] so later reads through a
    /// stale pointer decode as garbage, and direct reads fault.
    pub fn dealloc(&self, page: PageId) -> Result<()> {
        self.slot(page)?.change(Some(false), |mut words, before| {
            if before & ALLOCATED == 0 {
                self.stats.record_page_fault();
                return Err(Error::PageFault { page: page.0 });
            }
            if self.cfg.poison_freed {
                words.fill(POISON_BYTE);
            }
            Ok(())
        })?;
        self.free.lock().push(page);
        self.stats.record_free(1);
        self.stats.record_dealloc();
        Ok(())
    }

    /// Run `f` over the words of `page` as one whole page: `f` runs again
    /// whenever a change of the page overlapped it, and the answer kept
    /// is from a pass that validated; `f` reads the slot in place. Counts
    /// as one page read, with the fault checks and latency of
    /// [`PageStore::read`]. `f` may see a torn page on a pass that is
    /// thrown away, so it must only inspect the words and return. Meant
    /// for a caller holding a lock on the page, so retries are rare.
    #[track_caller]
    pub fn with_page<R>(&self, page: PageId, mut f: impl FnMut(SharedPage<'_>) -> R) -> Result<R> {
        let slot = self.slot(page)?;
        self.simulate_latency();
        let out = loop {
            let snap = header::wait_quiet(slot.header());
            if self.cfg.poison_freed && snap & ALLOCATED == 0 {
                self.stats.record_page_fault();
                return Err(Error::PageFault { page: page.0 });
            }
            let out = f(SharedPage::new(slot.page()));
            if header::validate(slot.header(), snap) {
                break out;
            }
        };
        shadow::page_read(slot.shadow_loc(), std::panic::Location::caller());
        self.stats.record_read();
        Ok(out)
    }

    /// Run `f` over the words of `page` with no lock — the optimistic
    /// read of a find — and keep its answer only if nothing changed the
    /// page while `f` ran. `f` may see a page mid-write (each word whole,
    /// the page perhaps not): it must only inspect the words and return,
    /// answering `None` to give up. The answer is also `None` when the
    /// page is not allocated, a change of it is in progress or ξ is
    /// granted on it at the start (one load of its header), when a write,
    /// edit, allocation or deallocation of it overlapped `f`. Counts as one
    /// page read whenever `f` runs.
    ///
    /// The pass is announced to the race detector as a speculative page
    /// read, committed only when the page's version validates.
    #[track_caller]
    pub fn read_validated<R>(
        &self,
        page: PageId,
        f: impl FnOnce(SharedPage<'_>) -> Option<R>,
    ) -> Option<R> {
        let (slot, snap, spec) = self.read_begin(page)?;
        let out = f(SharedPage::new(slot.page()));
        self.stats.record_read();
        match out {
            Some(r) if Self::validate(slot, snap) => {
                spec.commit();
                Some(r)
            }
            _ => {
                spec.abort();
                None
            }
        }
    }

    /// The start of a validated read of `page`: its slot, its header
    /// snapshot and the race detector's speculation scope, or `None` when
    /// the read gives up at once (see [`PageStore::read_validated`]).
    #[track_caller]
    fn read_begin(&self, page: PageId) -> Option<(PageSlot<'_>, u64, shadow::Speculation)> {
        let slot = self.slots.get(page.0)?;
        let spec = shadow::speculate();
        let snap = header::read_begin(slot.header())?;
        let site = std::panic::Location::caller();
        shadow::page_read(slot.shadow_loc(), site);
        self.simulate_latency();
        shadow::page_read_speculative(slot.shadow_loc(), site);
        Some((slot, snap, spec))
    }

    /// Did the header stay at `snap` across a
    /// [`PageStore::read_validated`] pass?
    #[cfg(not(feature = "check-inject-find"))]
    #[inline]
    #[track_caller]
    fn validate(slot: PageSlot<'_>, snap: u64) -> bool {
        let valid = header::validate(slot.header(), snap);
        shadow::page_read(slot.shadow_loc(), std::panic::Location::caller());
        valid
    }

    /// The injected bug the race detector must catch: an optimistic read
    /// that never validates, so a find answers from a page a writer
    /// changed under it. Only exists under `check-inject-find`.
    #[cfg(feature = "check-inject-find")]
    #[inline]
    fn validate(_slot: PageSlot<'_>, _snap: u64) -> bool {
        true
    }

    /// An in-bucket update: a validated read of `page`, then, if `plan`
    /// asks, one CAS from the read's snapshot to α or ξ held and writing
    /// ([`LockManager::upgrade`]; `locks` must be over this store), `apply`
    /// in place, and one release that publishes the next version
    /// ([`LockManager::release_upgraded`]). `plan` sees the page as
    /// [`PageStore::read_validated`]'s `f` does and answers `None` (give
    /// up), [`Plan::Answer`] (kept if the read validates) or
    /// [`Plan::Upgrade`]. `None` — run the locked protocol — when it gave
    /// up, the read did not validate, the CAS lost, or
    /// [`PageStore::read_validated`] would give up.
    #[track_caller]
    pub fn update_validated<A, R>(
        &self,
        page: PageId,
        locks: &LockManager,
        plan: impl FnOnce(SharedPage<'_>) -> Option<Plan<A, R>>,
        apply: impl FnOnce(&mut SharedPageMut<'_>, A) -> R,
    ) -> Option<R> {
        let (slot, snap, spec) = self.read_begin(page)?;
        let planned = plan(SharedPage::new(slot.page()));
        self.stats.record_read();
        match planned {
            Some(Plan::Answer(r)) if Self::validate(slot, snap) => {
                spec.commit();
                Some(r)
            }
            Some(Plan::Upgrade(mode, a)) => {
                self.simulate_latency();
                if !locks.upgrade(page, snap, mode, spec) {
                    return None;
                }
                shadow::page_write(slot.shadow_loc(), std::panic::Location::caller(), true);
                let out = apply(&mut SharedPageMut::new(slot.page()), a);
                self.stats.record_write();
                locks.release_upgraded(page, mode);
                Some(out)
            }
            _ => {
                spec.abort();
                None
            }
        }
    }

    /// Run `f` over the words of `page`, letting it edit them in place:
    /// an update that changes one record dirties that record, not a
    /// page-sized copy. One change of the page (its header's writing bit
    /// set, then its version advanced; see [`ceh_locks::header`]): the
    /// caller holds α or ξ on the page, or the page is not yet reachable.
    /// Counts as one page write, with the same fault
    /// checks and simulated latency as [`PageStore::write`].
    ///
    /// `f` edits the page and returns. Whatever `f` leaves in the page is
    /// stored, so it must validate before it writes.
    #[track_caller]
    pub fn with_page_mut<R>(
        &self,
        page: PageId,
        f: impl FnOnce(&mut SharedPageMut<'_>) -> R,
    ) -> Result<R> {
        self.change_page(page, std::panic::Location::caller(), f)
    }

    /// One change of `page` by `f`, after the fault checks and simulated
    /// latency every write pays.
    fn change_page<R>(
        &self,
        page: PageId,
        site: &'static std::panic::Location<'static>,
        f: impl FnOnce(&mut SharedPageMut<'_>) -> R,
    ) -> Result<R> {
        let slot = self.slot(page)?;
        if self.cfg.poison_freed && !header::allocated(slot.header()) {
            self.stats.record_page_fault();
            return Err(Error::PageFault { page: page.0 });
        }
        self.simulate_latency();
        let out = slot.change(None, |mut words, before| {
            shadow::page_write(slot.shadow_loc(), site, header::guarded(before));
            f(&mut words)
        });
        self.stats.record_write();
        Ok(out)
    }

    /// Read a whole page into `buf` (`getbucket(page, buffer)`): a copy
    /// through [`PageStore::with_page`], one word at a time. (A bulk copy
    /// would save about 100 ns a page but needs an `unsafe` read of the
    /// atomic words; only splits, merges, recovery and the durable path
    /// copy whole pages.)
    #[track_caller]
    pub fn read(&self, page: PageId, buf: &mut PageBuf) -> Result<()> {
        assert_eq!(buf.len(), self.cfg.page_size, "buffer/page size mismatch");
        self.with_page(page, |words| words.copy_to(buf))
    }

    /// Write a whole page from `buf` (`putbucket(page, buffer)`). Atomic
    /// with respect to concurrent [`PageStore::read`]s of the same page,
    /// and one change of the page, as in [`PageStore::with_page_mut`].
    #[track_caller]
    pub fn write(&self, page: PageId, buf: &PageBuf) -> Result<()> {
        assert_eq!(buf.len(), self.cfg.page_size, "buffer/page size mismatch");
        let site = std::panic::Location::caller();
        self.change_page(page, site, |words| words.copy_from(buf))
    }

    /// List all currently allocated page ids (quiescent use only — the
    /// invariant checker and the figure-golden tests).
    pub fn allocated_page_ids(&self) -> Vec<PageId> {
        self.slots
            .iter()
            .filter(|(_, s)| header::allocated(s.header()))
            .map(|(page, _)| page)
            .collect()
    }
}

impl Drop for PageStore {
    fn drop(&mut self) {
        self.stats.record_slots(-(self.slots.len() as i64));
        self.stats.record_free(-(self.free.lock().len() as i64));
        self.stats
            .record_huge_advised(-(*self.slots.grow.lock() as i64));
    }
}

impl HeaderWords for PageStore {
    #[inline]
    fn header(&self, page: PageId) -> Option<&AtomicU64> {
        self.slots.get(page.0).map(PageSlot::header)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceh_types::PageWords;

    /// The bytes of a page handed to a `with_page` closure.
    fn bytes(page: SharedPage<'_>) -> Vec<u8> {
        let mut out = vec![0u8; page.len_bytes()];
        page.copy_to(&mut out);
        out
    }

    /// Store `f`'s edit of the bytes of a page handed to a
    /// `with_page_mut` closure.
    fn edit_bytes(page: &mut SharedPageMut<'_>, f: impl FnOnce(&mut [u8])) {
        let mut b = bytes(page.shared());
        f(&mut b);
        page.copy_from(&b);
    }

    fn store() -> PageStore {
        PageStore::new(PageStoreConfig {
            page_size: 64,
            initial_pages: 2,
            ..Default::default()
        })
    }

    #[test]
    fn alloc_write_read_roundtrip() {
        let s = store();
        let p = s.alloc().unwrap();
        let mut buf = s.new_buf();
        buf[0] = 0xAB;
        buf[63] = 0xCD;
        s.write(p, &buf).unwrap();
        let mut out = s.new_buf();
        s.read(p, &mut out).unwrap();
        assert_eq!(&*out, &*buf);
    }

    #[test]
    fn with_page_reads_in_place_and_counts_one_read() {
        let s = store();
        let p = s.alloc().unwrap();
        let mut buf = s.new_buf();
        buf[5] = 0x42;
        s.write(p, &buf).unwrap();
        assert_eq!(
            s.with_page(p, |page| (page.len_bytes(), bytes(page)[5]))
                .unwrap(),
            (64, 0x42)
        );
        assert_eq!(s.stats().reads, 1);
        s.dealloc(p).unwrap();
        assert_eq!(
            s.with_page(p, |_| ()).unwrap_err(),
            Error::PageFault { page: p.0 }
        );
        assert_eq!(
            s.with_page(PageId(99), |_| ()).unwrap_err(),
            Error::PageFault { page: 99 }
        );
    }

    #[test]
    fn read_validated_answers_only_when_nothing_overlapped() {
        for poison_freed in [true, false] {
            let s = PageStore::new(PageStoreConfig {
                page_size: 64,
                initial_pages: 2,
                poison_freed,
                ..Default::default()
            });
            let p = s.alloc().unwrap();
            let mut buf = s.new_buf();
            buf[8] = 0x42;
            s.write(p, &buf).unwrap();
            assert_eq!(s.read_validated(p, |w| Some(w.word(1))), Some(0x42));
            assert_eq!(s.stats().reads, 1);
            assert_eq!(s.read_validated(p, |_| None::<()>), None, "f gave up");
            // A write, an edit, a deallocation or an allocation while `f`
            // runs each make the pass worthless.
            let overlapped = s.read_validated(p, |w| {
                s.write(p, &buf).unwrap();
                Some(w.word(1))
            });
            assert_eq!(overlapped, None);
            let overlapped = s.read_validated(p, |w| {
                s.with_page_mut(p, |_| ()).unwrap();
                Some(w.word(1))
            });
            assert_eq!(overlapped, None);
            let overlapped = s.read_validated(p, |w| {
                s.dealloc(p).unwrap();
                Some(w.word(1))
            });
            assert_eq!(overlapped, None);
            // A freed page is never read, poisoned or not.
            assert_eq!(s.read_validated(p, |w| Some(w.word(1))), None);
            let q = s.alloc().unwrap();
            assert_eq!(q, p);
            s.write(q, &buf).unwrap();
            let overlapped = s.read_validated(q, |w| {
                s.dealloc(q).unwrap();
                assert_eq!(s.alloc().unwrap(), q);
                s.write(q, &buf).unwrap();
                Some(w.word(1))
            });
            assert_eq!(overlapped, None, "the page was freed and reused");
            assert_eq!(s.read_validated(PageId(99), |_| Some(())), None);
        }
    }

    #[test]
    fn with_page_mut_edits_in_place_and_counts_one_write() {
        let s = store();
        let p = s.alloc().unwrap();
        s.write(p, &s.new_buf()).unwrap();
        let before = s.stats();
        assert_eq!(
            s.with_page_mut(p, |page| {
                edit_bytes(page, |b| b[7] = 0x5A);
                page.len_bytes()
            })
            .unwrap(),
            64
        );
        let after = s.stats();
        assert_eq!(after.writes - before.writes, 1);
        assert_eq!(after.reads, before.reads, "an edit is not a read");
        let mut out = s.new_buf();
        s.read(p, &mut out).unwrap();
        assert_eq!(out[7], 0x5A);
        assert!(out.iter().enumerate().all(|(i, &x)| i == 7 || x == 0));

        s.dealloc(p).unwrap();
        let poisoned = s.stats();
        assert_eq!(
            s.with_page_mut(p, |page| page.fill(0)).unwrap_err(),
            Error::PageFault { page: p.0 }
        );
        assert_eq!(
            s.with_page_mut(PageId(99), |_| ()).unwrap_err(),
            Error::PageFault { page: 99 }
        );
        assert_eq!(s.stats().writes, poisoned.writes, "a fault writes nothing");
        assert!(
            s.with_page(p, |_| ()).is_err(),
            "the freed page stays poisoned"
        );
    }

    /// Pages on both sides of the slot table's segment boundaries (ids
    /// 64, 128 and 256) keep their own bytes, ids past the last slot
    /// fault without growing anything, and the gauges count the slots
    /// and the free list.
    #[test]
    fn slot_table_spans_segments_and_faults_past_its_end() {
        let metrics = ceh_obs::MetricsHandle::new();
        let s = PageStore::with_metrics(
            PageStoreConfig {
                page_size: 64,
                initial_pages: 2,
                ..Default::default()
            },
            &metrics,
        );
        let ids: Vec<_> = (0..300).map(|_| s.alloc().unwrap()).collect();
        assert_eq!(ids.last(), Some(&PageId(299)));
        for p in &ids {
            let mut buf = s.new_buf();
            buf[0..2].copy_from_slice(&(p.0 as u16).to_le_bytes());
            s.write(*p, &buf).unwrap();
        }
        for p in &ids {
            let first = s.with_page(*p, |b| bytes(b)[0..2].to_vec()).unwrap();
            assert_eq!(first, (p.0 as u16).to_le_bytes(), "{p}");
        }
        for far in [300, 1 << 40, u64::MAX] {
            assert!(matches!(
                s.with_page(PageId(far), |_| ()),
                Err(Error::PageFault { .. })
            ));
        }
        assert_eq!(s.capacity(), 300);
        assert_eq!(s.allocated_pages(), 300);
        s.dealloc(PageId(7)).unwrap();
        let gauges = metrics.snapshot();
        assert_eq!(gauges.gauge("storage.slot_capacity"), 300);
        assert_eq!(gauges.gauge("storage.free_pages"), 1);
        drop(s);
        let gauges = metrics.snapshot();
        assert_eq!(
            gauges.gauge("storage.slot_capacity"),
            0,
            "a dropped store takes its levels back"
        );
        assert_eq!(gauges.gauge("storage.free_pages"), 0);
    }

    #[test]
    fn grows_past_initial_pages() {
        let s = store();
        let ids: Vec<_> = (0..10).map(|_| s.alloc().unwrap()).collect();
        // All distinct.
        let mut sorted = ids.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
        assert!(s.capacity() >= 10);
    }

    #[test]
    fn max_pages_enforced() {
        let s = PageStore::new(PageStoreConfig {
            page_size: 32,
            initial_pages: 0,
            max_pages: Some(3),
            ..Default::default()
        });
        for _ in 0..3 {
            s.alloc().unwrap();
        }
        assert_eq!(s.alloc().unwrap_err(), Error::OutOfPages);
    }

    #[test]
    fn dealloc_poisons_and_faults() {
        let s = store();
        let p = s.alloc().unwrap();
        let buf = s.new_buf();
        s.write(p, &buf).unwrap();
        s.dealloc(p).unwrap();
        let mut out = s.new_buf();
        assert_eq!(
            s.read(p, &mut out).unwrap_err(),
            Error::PageFault { page: p.0 }
        );
        assert_eq!(
            s.write(p, &buf).unwrap_err(),
            Error::PageFault { page: p.0 }
        );
        // Double free faults too.
        assert_eq!(s.dealloc(p).unwrap_err(), Error::PageFault { page: p.0 });
    }

    #[test]
    fn freed_pages_are_reused() {
        let s = store();
        let p = s.alloc().unwrap();
        s.dealloc(p).unwrap();
        let q = s.alloc().unwrap();
        assert_eq!(p, q, "LIFO free list should hand back the freed page");
        // Reused page is readable again (contents are poison garbage until
        // written, which is fine: allocbucket is always followed by
        // putbucket before any reader can reach the page).
        let mut buf = s.new_buf();
        s.read(q, &mut buf).unwrap();
    }

    #[test]
    fn stats_track_io() {
        let s = store();
        let p = s.alloc().unwrap();
        let buf = s.new_buf();
        s.write(p, &buf).unwrap();
        let mut out = s.new_buf();
        s.read(p, &mut out).unwrap();
        s.read(p, &mut out).unwrap();
        let snap = s.stats();
        assert_eq!(snap.allocs, 1);
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.reads, 2);
        assert_eq!(snap.live_pages(), 1);
    }

    #[test]
    fn allocated_page_ids_lists_live_pages() {
        let s = store();
        let a = s.alloc().unwrap();
        let b = s.alloc().unwrap();
        s.dealloc(a).unwrap();
        assert_eq!(s.allocated_page_ids(), vec![b]);
    }

    #[test]
    fn concurrent_readers_see_whole_pages() {
        // Torn-write detector: writers alternate between all-A and all-B
        // pages; readers must never observe a mix. This is the §2.1 page
        // atomicity assumption made testable.
        use std::sync::atomic::AtomicBool;
        let s = Arc::new(PageStore::new(PageStoreConfig {
            page_size: 256,
            initial_pages: 1,
            ..Default::default()
        }));
        let p = s.alloc().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let mut a_buf = s.new_buf();
        a_buf.fill(0xAA);
        s.write(p, &a_buf).unwrap();

        let writer = {
            let (s, stop) = (Arc::clone(&s), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut a = PageBuf::zeroed(256);
                a.fill(0xAA);
                let mut b = PageBuf::zeroed(256);
                b.fill(0xBB);
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    s.write(p, if i.is_multiple_of(2) { &a } else { &b })
                        .unwrap();
                    i += 1;
                }
            })
        };
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let (s, stop) = (Arc::clone(&s), Arc::clone(&stop));
                std::thread::spawn(move || {
                    let mut buf = PageBuf::zeroed(256);
                    for _ in 0..20_000 {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        s.read(p, &mut buf).unwrap();
                        let first = buf[0];
                        assert!(
                            buf.iter().all(|&x| x == first),
                            "torn page read: starts {first:02x}"
                        );
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }
}
