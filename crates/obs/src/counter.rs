//! Sharded atomic counters and gauges.
// ceh-lint: allow-file(relaxed-ordering) — monotonic statistics cells; snapshots are advisory and exact only at quiescence, no data is published through them

use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

/// Number of thread slots ([`thread_slot`]), and of independent cache
/// lines a [`Counter`] spreads its value over: up to this many threads
/// can increment concurrently without bouncing a cache line between
/// cores.
pub const THREAD_SLOTS: usize = 8;

#[repr(align(64))]
#[derive(Default)]
struct PaddedU64(AtomicU64);

static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's home shard, or `usize::MAX` before its first use.
    /// Initialised by a constant, so reading it is one thread-local load
    /// with no lazy-init check to inline into every counter increment.
    static THREAD_SLOT: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// This thread's slot in `0..THREAD_SLOTS`, assigned round-robin on its
/// first use: the shard a [`Counter`] increments, and the one for any
/// other per-thread-sharded cell.
#[inline]
pub fn thread_slot() -> usize {
    let slot = THREAD_SLOT.get();
    if slot < THREAD_SLOTS {
        slot
    } else {
        assign_thread_slot()
    }
}

#[cold]
#[inline(never)]
fn assign_thread_slot() -> usize {
    let slot = NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed) % THREAD_SLOTS;
    THREAD_SLOT.set(slot);
    slot
}

/// A monotone event counter: sharded per-thread so the hot path is one
/// uncontended relaxed `fetch_add`. Reads sum the shards (exact once
/// recording threads are quiescent; during recording, a read may miss
/// in-flight increments but never goes backwards).
#[derive(Default)]
pub struct Counter {
    shards: [PaddedU64; THREAD_SLOTS],
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.shards[thread_slot()].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value (sum of shards).
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }

    /// Zero the counter.
    pub fn reset(&self) {
        for s in &self.shards {
            s.0.store(0, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Counter({})", self.get())
    }
}

/// A signed level — a value that goes up *and* down (queue depths, live
/// pages). Unsharded: gauges are not on nanosecond-hot paths.
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrement by one.
    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Overwrite the level.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Zero the gauge.
    pub fn reset(&self) {
        self.set(0);
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Gauge({})", self.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn thread_slot_is_stable_and_in_range() {
        let slots: Vec<usize> = (0..3)
            .map(|_| {
                std::thread::spawn(|| {
                    let slot = thread_slot();
                    assert!((0..100).all(|_| thread_slot() == slot));
                    slot
                })
                .join()
                .unwrap()
            })
            .collect();
        assert!(slots.iter().all(|&s| s < THREAD_SLOTS), "{slots:?}");
    }

    #[test]
    fn counter_accumulates_and_resets() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn counter_is_exact_across_threads() {
        let c = Arc::new(Counter::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.get(), 1);
        g.add(-5);
        assert_eq!(g.get(), -4);
        g.set(7);
        assert_eq!(g.get(), 7);
        g.reset();
        assert_eq!(g.get(), 0);
    }
}
