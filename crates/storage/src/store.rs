//! The page store.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ceh_types::{Error, PageId, Result};
use parking_lot::{Mutex, RwLock};

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

/// One page's physical storage: a latch plus (for memory backing) the
/// bytes.
///
/// The latch is held for one page access: a whole-page write, one
/// updater's in-place edit ([`PageStore::with_page_mut`]), or one
/// reader's pass over the page ([`PageStore::with_page`] — a find
/// inspects the bytes in place, [`PageStore::read`] copies them out). It
/// models the disk's "read and written as single operations" guarantee
/// (§2.1) and deliberately provides no other synchronization — the
/// *locking protocols* under test are responsible for everything else.
/// With file backing the box is empty and the latch guards the pread/
/// pwrite of the page's file region instead.
struct PageSlot {
    bytes: Mutex<Box<[u8]>>,
    allocated: AtomicBool,
}

/// Where page bytes physically live.
enum Backing {
    /// In each slot's box (the default simulation).
    Memory,
    /// In a real file, one page per `page_size` region, accessed with
    /// positioned reads/writes under the per-page latch. Same atomicity
    /// contract, real durability.
    File(std::fs::File),
}

/// Simulated (or file-backed) secondary storage holding fixed-size pages.
///
/// Cloneable handle semantics: wrap in [`Arc`] (or use
/// [`PageStore::new_shared`]) to share between the threads playing the
/// paper's "processes".
pub struct PageStore {
    cfg: PageStoreConfig,
    backing: Backing,
    /// Grow-only slot table. The outer `RwLock` is only write-locked when
    /// the store grows; steady-state accesses take the read lock, which is
    /// uncontended and cheap.
    slots: RwLock<Vec<Arc<PageSlot>>>,
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
            .field("slots", &self.slots.read().len())
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
        let slots = (0..cfg.initial_pages)
            .map(|_| Arc::new(Self::empty_slot(&cfg, true)))
            .collect();
        // Seed the free list with the initial pool, reversed so pages are
        // handed out in ascending order (stable figure goldens).
        let free = (0..cfg.initial_pages as u64).rev().map(PageId).collect();
        let io_latency_ns = AtomicU64::new(cfg.io_latency_ns);
        PageStore {
            backing: Backing::Memory,
            slots: RwLock::new(slots),
            free: Mutex::new(free),
            cfg,
            stats: IoStats::with_handle(metrics),
            io_latency_ns,
        }
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

    /// Create (or truncate) a **file-backed** store at `path`. Pages live
    /// in the file, one `page_size` region each, read and written under
    /// the same per-page latch — the identical atomicity contract as the
    /// in-memory store, with real durability. `initial_pages` is ignored
    /// (the file grows on demand); simulated latency still applies on
    /// top of the real I/O if configured.
    pub fn create_file(path: impl AsRef<std::path::Path>, cfg: PageStoreConfig) -> Result<Self> {
        Self::create_file_with_metrics(path, cfg, &ceh_obs::MetricsHandle::default())
    }

    /// [`PageStore::create_file`] reporting into `metrics`' registry.
    pub fn create_file_with_metrics(
        path: impl AsRef<std::path::Path>,
        cfg: PageStoreConfig,
        metrics: &ceh_obs::MetricsHandle,
    ) -> Result<Self> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)
            .map_err(|e| Error::Config(format!("cannot create backing file: {e}")))?;
        let io_latency_ns = AtomicU64::new(cfg.io_latency_ns);
        Ok(PageStore {
            backing: Backing::File(file),
            slots: RwLock::new(Vec::new()),
            free: Mutex::new(Vec::new()),
            cfg,
            stats: IoStats::with_handle(metrics),
            io_latency_ns,
        })
    }

    /// Open an **existing** file-backed store for recovery. Every page
    /// region present in the file is treated as allocated; callers (e.g.
    /// `ceh_sequential::SequentialHashFile::recover`) decide which pages
    /// hold live buckets (deallocated pages were poisoned and fail to
    /// decode) and return the rest via [`PageStore::dealloc`].
    ///
    /// A trailing **partial** page — the footprint of a crash that
    /// interrupted the file mid-growth — is truncated away: page writes
    /// always land at page-aligned offsets, so a short tail can only be
    /// an allocation that never completed a `putbucket`, and nothing in
    /// the directory can reference it.
    pub fn open_file(path: impl AsRef<std::path::Path>, cfg: PageStoreConfig) -> Result<Self> {
        Self::open_file_with_metrics(path, cfg, &ceh_obs::MetricsHandle::default())
    }

    /// [`PageStore::open_file`] reporting into `metrics`' registry.
    pub fn open_file_with_metrics(
        path: impl AsRef<std::path::Path>,
        cfg: PageStoreConfig,
        metrics: &ceh_obs::MetricsHandle,
    ) -> Result<Self> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| Error::Config(format!("cannot open backing file: {e}")))?;
        let len = file
            .metadata()
            .map_err(|e| Error::Config(format!("cannot stat backing file: {e}")))?
            .len() as usize;
        let npages = len / cfg.page_size;
        if len % cfg.page_size != 0 {
            file.set_len((npages * cfg.page_size) as u64)
                .map_err(|e| Error::Io(format!("truncating torn tail page: {e}")))?;
        }
        let slots = (0..npages)
            .map(|_| {
                let s = Self::empty_slot(&cfg, false);
                // ceh-lint: allow(relaxed-ordering) — recovery runs single-threaded before sharing
                s.allocated.store(true, Ordering::Relaxed);
                Arc::new(s)
            })
            .collect();
        let io_latency_ns = AtomicU64::new(cfg.io_latency_ns);
        Ok(PageStore {
            backing: Backing::File(file),
            slots: RwLock::new(slots),
            free: Mutex::new(Vec::new()),
            cfg,
            stats: IoStats::with_handle(metrics),
            io_latency_ns,
        })
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
        let mut free = Vec::new();
        let slots: Vec<Arc<PageSlot>> = pages
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                let slot = Self::empty_slot(&cfg, true);
                match p {
                    Some(buf) => {
                        assert_eq!(buf.len(), cfg.page_size, "restored page size mismatch");
                        slot.bytes.lock().copy_from_slice(&buf);
                        // ceh-lint: allow(relaxed-ordering) — recovery runs single-threaded before sharing
                        slot.allocated.store(true, Ordering::Relaxed);
                    }
                    None => {
                        if cfg.poison_freed {
                            slot.bytes.lock().fill(POISON_BYTE);
                        }
                        free.push(PageId(i as u64));
                    }
                }
                Arc::new(slot)
            })
            .collect();
        // LIFO free list, reversed so the lowest free id pops first
        // (matching the fresh-store allocation order).
        free.reverse();
        let io_latency_ns = AtomicU64::new(cfg.io_latency_ns);
        PageStore {
            backing: Backing::Memory,
            slots: RwLock::new(slots),
            free: Mutex::new(free),
            cfg,
            stats: IoStats::with_handle(metrics),
            io_latency_ns,
        }
    }

    /// Is this store file-backed?
    pub fn is_file_backed(&self) -> bool {
        matches!(self.backing, Backing::File(_))
    }

    fn empty_slot(cfg: &PageStoreConfig, with_bytes: bool) -> PageSlot {
        let bytes = if with_bytes {
            vec![0u8; cfg.page_size].into_boxed_slice()
        } else {
            Box::default()
        };
        PageSlot {
            bytes: Mutex::new(bytes),
            allocated: AtomicBool::new(false),
        }
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
        self.slots.read().len()
    }

    /// Number of currently allocated pages.
    pub fn allocated_pages(&self) -> usize {
        self.slots
            .read()
            .iter()
            // ceh-lint: allow(relaxed-ordering) — advisory census; alloc/free is guarded upstream
            .filter(|s| s.allocated.load(Ordering::Relaxed))
            .count()
    }

    fn slot(&self, page: PageId) -> Result<Arc<PageSlot>> {
        let slots = self.slots.read();
        slots
            .get(page.0 as usize)
            .cloned()
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
            let slot = self.slot(p)?;
            slot.allocated.store(true, Ordering::Release);
            self.stats.record_alloc();
            return Ok(p);
        }
        // Free list empty: grow the slot table. Every page id ever created
        // is either allocated or on the free list, so appending is the
        // only growth path.
        let mut slots = self.slots.write();
        if let Some(max) = self.cfg.max_pages {
            if slots.len() >= max {
                return Err(Error::OutOfPages);
            }
        }
        let slot = Arc::new(Self::empty_slot(
            &self.cfg,
            matches!(self.backing, Backing::Memory),
        ));
        slot.allocated.store(true, Ordering::Release);
        slots.push(slot);
        if let Backing::File(f) = &self.backing {
            // Guarantee the page's region exists so a read-before-write
            // (never done by the protocols, but defensively possible)
            // gets zeroes instead of a short read.
            f.set_len((slots.len() * self.cfg.page_size) as u64)
                .map_err(|e| Error::Io(format!("growing backing file: {e}")))?;
        }
        self.stats.record_alloc();
        Ok(PageId((slots.len() - 1) as u64))
    }

    /// Deallocate a page (`deallocbucket`). With poisoning enabled the
    /// page is overwritten with [`POISON_BYTE`] so later reads through a
    /// stale pointer decode as garbage, and direct reads fault — and, on
    /// file backing, so a later [`PageStore::open_file`] recovery can
    /// tell freed regions from live buckets.
    pub fn dealloc(&self, page: PageId) -> Result<()> {
        let slot = self.slot(page)?;
        if !slot.allocated.swap(false, Ordering::AcqRel) {
            self.stats.record_page_fault();
            return Err(Error::PageFault { page: page.0 });
        }
        if self.cfg.poison_freed {
            let mut bytes = slot.bytes.lock();
            match &self.backing {
                Backing::Memory => bytes.fill(POISON_BYTE),
                Backing::File(f) => {
                    use std::os::unix::fs::FileExt;
                    let poison = vec![POISON_BYTE; self.cfg.page_size];
                    f.write_all_at(&poison, page.0 * self.cfg.page_size as u64)
                        .map_err(|e| Error::Io(format!("poisoning {page}: {e}")))?;
                }
            }
        }
        self.free.lock().push(page);
        self.stats.record_dealloc();
        Ok(())
    }

    /// Run `f` over the bytes of `page` under its latch, so `f` sees one
    /// whole page, atomic with respect to concurrent
    /// [`PageStore::write`]s of it. On memory backing `f` reads the slot
    /// in place; on file backing it reads a buffer filled by one pread.
    /// Counts as one page read, with the same fault checks and simulated
    /// latency as [`PageStore::read`].
    ///
    /// The latch is held while `f` runs: `f` must only inspect the bytes
    /// and return (a lock-manager call or another page access from
    /// inside it could deadlock against a writer).
    pub fn with_page<R>(&self, page: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let slot = self.slot(page)?;
        if self.cfg.poison_freed && !slot.allocated.load(Ordering::Acquire) {
            self.stats.record_page_fault();
            return Err(Error::PageFault { page: page.0 });
        }
        self.simulate_latency();
        let out = {
            let bytes = slot.bytes.lock();
            match &self.backing {
                Backing::Memory => f(&bytes),
                Backing::File(file) => {
                    use std::os::unix::fs::FileExt;
                    let mut buf = vec![0u8; self.cfg.page_size];
                    file.read_exact_at(&mut buf, page.0 * self.cfg.page_size as u64)
                        .map_err(|e| Error::Io(format!("reading {page}: {e}")))?;
                    f(&buf)
                }
            }
        };
        self.stats.record_read();
        Ok(out)
    }

    /// Run `f` over the bytes of `page` under its latch, letting it edit
    /// them in place: an update that changes one record dirties that
    /// record, not a page-sized copy. Atomic with respect to concurrent
    /// reads and writes of the page, exactly as [`PageStore::write`] is.
    /// On file backing `f` edits a buffer filled by one pread, which one
    /// pwrite then stores. Counts as one page write, with the same fault
    /// checks and simulated latency as [`PageStore::write`].
    ///
    /// The latch is held while `f` runs, with the same rule as
    /// [`PageStore::with_page`]: `f` edits the bytes and returns. Whatever
    /// `f` leaves in the bytes is stored, so it must validate before it
    /// writes.
    pub fn with_page_mut<R>(&self, page: PageId, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        let slot = self.slot(page)?;
        if self.cfg.poison_freed && !slot.allocated.load(Ordering::Acquire) {
            self.stats.record_page_fault();
            return Err(Error::PageFault { page: page.0 });
        }
        self.simulate_latency();
        let out = {
            let mut bytes = slot.bytes.lock();
            match &self.backing {
                Backing::Memory => f(&mut bytes),
                Backing::File(file) => {
                    use std::os::unix::fs::FileExt;
                    let at = page.0 * self.cfg.page_size as u64;
                    let mut buf = vec![0u8; self.cfg.page_size];
                    file.read_exact_at(&mut buf, at)
                        .map_err(|e| Error::Io(format!("reading {page}: {e}")))?;
                    let out = f(&mut buf);
                    file.write_all_at(&buf, at)
                        .map_err(|e| Error::Io(format!("writing {page}: {e}")))?;
                    out
                }
            }
        };
        self.stats.record_write();
        Ok(out)
    }

    /// Read a whole page into `buf` (`getbucket(page, buffer)`): a copy
    /// through [`PageStore::with_page`].
    pub fn read(&self, page: PageId, buf: &mut PageBuf) -> Result<()> {
        assert_eq!(buf.len(), self.cfg.page_size, "buffer/page size mismatch");
        self.with_page(page, |bytes| buf.copy_from_slice(bytes))
    }

    /// Write a whole page from `buf` (`putbucket(page, buffer)`). Atomic
    /// with respect to concurrent [`PageStore::read`]s of the same page.
    pub fn write(&self, page: PageId, buf: &PageBuf) -> Result<()> {
        assert_eq!(buf.len(), self.cfg.page_size, "buffer/page size mismatch");
        let slot = self.slot(page)?;
        if self.cfg.poison_freed && !slot.allocated.load(Ordering::Acquire) {
            self.stats.record_page_fault();
            return Err(Error::PageFault { page: page.0 });
        }
        self.simulate_latency();
        {
            let mut bytes = slot.bytes.lock();
            match &self.backing {
                Backing::Memory => bytes.copy_from_slice(buf),
                Backing::File(f) => {
                    use std::os::unix::fs::FileExt;
                    f.write_all_at(buf, page.0 * self.cfg.page_size as u64)
                        .map_err(|e| Error::Io(format!("writing {page}: {e}")))?;
                }
            }
        }
        self.stats.record_write();
        Ok(())
    }

    /// List all currently allocated page ids (quiescent use only — the
    /// invariant checker and the figure-golden tests).
    pub fn allocated_page_ids(&self) -> Vec<PageId> {
        self.slots
            .read()
            .iter()
            .enumerate()
            // ceh-lint: allow(relaxed-ordering) — advisory census; alloc/free is guarded upstream
            .filter(|(_, s)| s.allocated.load(Ordering::Relaxed))
            .map(|(i, _)| PageId(i as u64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            s.with_page(p, |bytes| (bytes.len(), bytes[5])).unwrap(),
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
    fn with_page_mut_edits_in_place_and_counts_one_write() {
        let s = store();
        let p = s.alloc().unwrap();
        s.write(p, &s.new_buf()).unwrap();
        let before = s.stats();
        assert_eq!(
            s.with_page_mut(p, |bytes| {
                bytes[7] = 0x5A;
                bytes.len()
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
            s.with_page_mut(p, |bytes| bytes.fill(0)).unwrap_err(),
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

    #[test]
    fn with_page_mut_round_trips_on_file_backing() {
        let dir = std::env::temp_dir().join(format!("ceh-store-edit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("edit.ceh");
        let cfg = PageStoreConfig {
            page_size: 128,
            initial_pages: 0,
            ..Default::default()
        };
        let (a, b);
        {
            let s = PageStore::create_file(&path, cfg.clone()).unwrap();
            a = s.alloc().unwrap();
            b = s.alloc().unwrap();
            let mut buf = s.new_buf();
            buf.fill(0x11);
            s.write(a, &buf).unwrap();
            buf.fill(0x22);
            s.write(b, &buf).unwrap();
            s.with_page_mut(b, |bytes| bytes[100..].fill(0x33)).unwrap();
            assert_eq!(s.stats().writes, 3);
            s.with_page(b, |bytes| {
                assert!(bytes[..100].iter().all(|&x| x == 0x22));
                assert!(bytes[100..].iter().all(|&x| x == 0x33));
            })
            .unwrap();
        }
        let s = PageStore::open_file(&path, cfg).unwrap();
        let mut buf = s.new_buf();
        s.read(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0x11), "the neighbour is untouched");
        s.read(b, &mut buf).unwrap();
        assert!(buf[..100].iter().all(|&x| x == 0x22));
        assert!(
            buf[100..].iter().all(|&x| x == 0x33),
            "the edit reached the file"
        );
        std::fs::remove_dir_all(&dir).unwrap();
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
    fn file_backed_roundtrip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("ceh-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.ceh");
        let cfg = PageStoreConfig {
            page_size: 128,
            initial_pages: 0,
            ..Default::default()
        };

        let (a, b);
        {
            let s = PageStore::create_file(&path, cfg.clone()).unwrap();
            assert!(s.is_file_backed());
            a = s.alloc().unwrap();
            b = s.alloc().unwrap();
            let mut buf = s.new_buf();
            buf.fill(0x11);
            s.write(a, &buf).unwrap();
            buf.fill(0x22);
            s.write(b, &buf).unwrap();
            // Free one page: poisoned on disk.
            s.dealloc(b).unwrap();
        }
        // Reopen: both regions exist; the freed one reads back poison.
        let s = PageStore::open_file(&path, cfg).unwrap();
        assert_eq!(s.capacity(), 2);
        let mut buf = s.new_buf();
        s.read(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0x11), "live page survived reopen");
        s.read(b, &mut buf).unwrap();
        assert!(buf.is_poisoned(), "freed page poisoned on disk");
        // Recovery-style dealloc of the poisoned page, then reuse it.
        s.dealloc(b).unwrap();
        let c = s.alloc().unwrap();
        assert_eq!(c, b, "freed region reused");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_backed_pages_are_not_torn_either() {
        // The §2.1 atomicity contract must hold identically on the file
        // backing: readers never observe a mix of two writes.
        use std::sync::atomic::AtomicBool;
        let dir = std::env::temp_dir().join(format!("ceh-store-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s = Arc::new(
            PageStore::create_file(
                dir.join("torn.ceh"),
                PageStoreConfig {
                    page_size: 256,
                    initial_pages: 0,
                    ..Default::default()
                },
            )
            .unwrap(),
        );
        let p = s.alloc().unwrap();
        let mut a = s.new_buf();
        a.fill(0xAA);
        s.write(p, &a).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let (s, stop) = (Arc::clone(&s), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut b = PageBuf::zeroed(256);
                b.fill(0xBB);
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    s.write(p, if i % 2 == 0 { &a } else { &b }).unwrap();
                    i += 1;
                }
            })
        };
        let reader = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let mut buf = PageBuf::zeroed(256);
                for _ in 0..5_000 {
                    s.read(p, &mut buf).unwrap();
                    let first = buf[0];
                    assert!(buf.iter().all(|&x| x == first), "torn file-backed read");
                }
            })
        };
        reader.join().unwrap();
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_backed_truncates_torn_tail_page() {
        // A crash during file growth leaves a partial trailing page; a
        // reopen must discard exactly that tail and keep the whole pages.
        let dir = std::env::temp_dir().join(format!("ceh-store-mis-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn-tail.ceh");
        std::fs::write(&path, vec![0x55u8; 64 + 30]).unwrap();
        let cfg = PageStoreConfig {
            page_size: 64,
            ..Default::default()
        };
        let s = PageStore::open_file(&path, cfg).unwrap();
        assert_eq!(s.capacity(), 1, "the one whole page survives");
        let mut buf = s.new_buf();
        s.read(PageId(0), &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0x55));
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            64,
            "tail debris gone"
        );
        std::fs::remove_dir_all(&dir).unwrap();
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
                    s.write(p, if i % 2 == 0 { &a } else { &b }).unwrap();
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
