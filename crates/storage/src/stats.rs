//! I/O accounting, recorded through the unified [`ceh_obs`] metrics
//! plane.
//!
//! Metric names (all under the `storage.` prefix): `storage.reads`,
//! `storage.writes`, `storage.allocs`, `storage.deallocs`,
//! `storage.page_faults`, and `storage.io_ns` — a histogram of
//! simulated per-I/O latency, populated only when the store's
//! `io_latency_ns` is non-zero (with latency disabled, page I/O is a
//! ~75ns memcpy and per-op timing would cost more than the operation).
//!
//! Three gauges say where the store's memory goes: `storage.slot_capacity`
//! (page slots in the slot table, allocated or free: each holds a
//! page's words), `storage.free_pages` (the free list's length) and
//! `storage.huge_advised_bytes` (bytes of slot segments the kernel agreed
//! to back with huge pages). Every store adds its own levels and takes
//! them back when dropped, so stores sharing a registry sum.

use std::sync::Arc;

use ceh_obs::{Counter, Gauge, Histogram, MetricsHandle};

/// I/O instruments maintained by a [`crate::PageStore`].
///
/// Counters are monotone; [`IoStats::snapshot`] takes a coherent-enough
/// copy for reporting (individual counters are exact, cross-counter skew
/// is bounded by in-flight operations).
#[derive(Debug)]
pub struct IoStats {
    reads: Arc<Counter>,
    writes: Arc<Counter>,
    allocs: Arc<Counter>,
    deallocs: Arc<Counter>,
    page_faults: Arc<Counter>,
    io_ns: Arc<Histogram>,
    slot_capacity: Arc<Gauge>,
    free_pages: Arc<Gauge>,
    huge_advised: Arc<Gauge>,
}

impl Default for IoStats {
    fn default() -> Self {
        Self::new()
    }
}

impl IoStats {
    /// Instruments in a fresh private registry (uncorrelated with any
    /// other layer — for standalone stores).
    pub fn new() -> Self {
        Self::with_handle(&MetricsHandle::default())
    }

    /// Instruments registered under `storage.` in `handle`'s registry.
    pub fn with_handle(handle: &MetricsHandle) -> Self {
        IoStats {
            reads: handle.counter("storage.reads"),
            writes: handle.counter("storage.writes"),
            allocs: handle.counter("storage.allocs"),
            deallocs: handle.counter("storage.deallocs"),
            page_faults: handle.counter("storage.page_faults"),
            io_ns: handle.histogram("storage.io_ns"),
            slot_capacity: handle.gauge("storage.slot_capacity"),
            free_pages: handle.gauge("storage.free_pages"),
            huge_advised: handle.gauge("storage.huge_advised_bytes"),
        }
    }

    pub(crate) fn record_read(&self) {
        self.reads.inc();
    }

    pub(crate) fn record_write(&self) {
        self.writes.inc();
    }

    pub(crate) fn record_alloc(&self) {
        self.allocs.inc();
    }

    pub(crate) fn record_dealloc(&self) {
        self.deallocs.inc();
    }

    pub(crate) fn record_page_fault(&self) {
        self.page_faults.inc();
    }

    pub(crate) fn record_io_ns(&self, ns: u64) {
        self.io_ns.record(ns);
    }

    /// `n` more (or, negative, fewer) page slots.
    pub(crate) fn record_slots(&self, n: i64) {
        self.slot_capacity.add(n);
    }

    /// `n` more (or, negative, fewer) pages on the free list.
    pub(crate) fn record_free(&self, n: i64) {
        self.free_pages.add(n);
    }

    /// `n` more (or, negative, fewer) bytes advised onto huge pages.
    pub(crate) fn record_huge_advised(&self, n: i64) {
        self.huge_advised.add(n);
    }

    /// The simulated-I/O latency histogram (empty unless the store runs
    /// with `io_latency_ns > 0`).
    pub fn io_hist(&self) -> &Histogram {
        &self.io_ns
    }

    /// Copy out the current counter values.
    pub fn snapshot(&self) -> IoStatsSnapshot {
        IoStatsSnapshot {
            reads: self.reads.get(),
            writes: self.writes.get(),
            allocs: self.allocs.get(),
            deallocs: self.deallocs.get(),
            page_faults: self.page_faults.get(),
        }
    }

    /// Reset all counters to zero (between benchmark phases). The gauges
    /// are levels, not counts, and keep their values.
    pub fn reset(&self) {
        self.reads.reset();
        self.writes.reset();
        self.allocs.reset();
        self.deallocs.reset();
        self.page_faults.reset();
        self.io_ns.reset();
    }
}

/// A point-in-time copy of [`IoStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoStatsSnapshot {
    /// Whole-page reads (`getbucket` calls that succeeded).
    pub reads: u64,
    /// Whole-page writes (`putbucket` calls that succeeded).
    pub writes: u64,
    /// Successful page allocations.
    pub allocs: u64,
    /// Successful page deallocations.
    pub deallocs: u64,
    /// Accesses rejected because the page was not allocated.
    pub page_faults: u64,
}

impl IoStatsSnapshot {
    /// Total page I/O operations (reads + writes).
    pub fn total_io(&self) -> u64 {
        self.reads + self.writes
    }

    /// Pages currently live according to the counters.
    pub fn live_pages(&self) -> u64 {
        self.allocs.saturating_sub(self.deallocs)
    }

    /// Difference between two snapshots (self - earlier), for measuring an
    /// interval.
    pub fn since(&self, earlier: &IoStatsSnapshot) -> IoStatsSnapshot {
        IoStatsSnapshot {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            allocs: self.allocs - earlier.allocs,
            deallocs: self.deallocs - earlier.deallocs,
            page_faults: self.page_faults - earlier.page_faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let s = IoStats::new();
        s.record_read();
        s.record_read();
        s.record_write();
        s.record_alloc();
        let snap = s.snapshot();
        assert_eq!(snap.reads, 2);
        assert_eq!(snap.writes, 1);
        assert_eq!(snap.total_io(), 3);
        assert_eq!(snap.live_pages(), 1);
        s.reset();
        assert_eq!(s.snapshot(), IoStatsSnapshot::default());
    }

    #[test]
    fn since_subtracts() {
        let s = IoStats::new();
        s.record_read();
        let a = s.snapshot();
        s.record_read();
        s.record_write();
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.reads, 1);
        assert_eq!(d.writes, 1);
    }

    #[test]
    fn shared_handle_sees_storage_metrics() {
        let handle = MetricsHandle::new();
        let s = IoStats::with_handle(&handle);
        s.record_read();
        s.record_write();
        s.record_io_ns(1000);
        let m = handle.snapshot();
        assert_eq!(m.counter("storage.reads"), 1);
        assert_eq!(m.counter("storage.writes"), 1);
        assert_eq!(m.hist("storage.io_ns").unwrap().sum, 1000);
    }
}
