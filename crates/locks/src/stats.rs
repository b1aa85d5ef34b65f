//! Lock-manager statistics, recorded through the unified [`ceh_obs`]
//! metrics plane.
//!
//! Metric names (all under the `locks.` prefix):
//! `locks.grants.{rho,alpha,xi}`, `locks.waits.{rho,alpha,xi}`,
//! `locks.wait_ns.{rho,alpha,xi}` (histograms of per-wait latency),
//! `locks.releases`, `locks.conversions`, and `locks.slow_path` — the
//! requests that took the waiter table's mutex because the resource's
//! lock word was queued or conflicting (the rest were granted by one CAS
//! on the word).
//!
//! The [`LockStatsSnapshot`] shape predates the unified plane and is
//! kept as-is for every existing consumer; its `wait_ns_*` fields are
//! the wait-histogram sums.

use std::sync::Arc;
use std::time::Duration;

use ceh_obs::{Counter, Histogram, MetricsHandle, TraceCtx};

use crate::mode::{LockId, LockMode};

fn mode_idx(mode: LockMode) -> usize {
    match mode {
        LockMode::Rho => 0,
        LockMode::Alpha => 1,
        LockMode::Xi => 2,
    }
}

fn acquire_event(mode: LockMode) -> &'static str {
    match mode {
        LockMode::Rho => "acquire.rho",
        LockMode::Alpha => "acquire.alpha",
        LockMode::Xi => "acquire.xi",
    }
}

fn wait_event(mode: LockMode) -> &'static str {
    match mode {
        LockMode::Rho => "wait.rho",
        LockMode::Alpha => "wait.alpha",
        LockMode::Xi => "wait.xi",
    }
}

/// Encode a lock target for trace-event payloads (`u64::MAX` is the
/// directory, anything else a page id) — the inverse of
/// `ceh_obs::lock_target_label`.
pub fn lock_trace_target(id: LockId) -> u64 {
    match id {
        LockId::Directory => u64::MAX,
        LockId::Page(p) => p.0,
    }
}

/// Lock-event instruments maintained by the [`crate::LockManager`].
///
/// Resolved once from a [`MetricsHandle`] at construction; recording is
/// one sharded counter increment (plus a histogram record at wait end).
#[derive(Debug)]
pub struct LockStats {
    grants: [Arc<Counter>; 3],
    waits: [Arc<Counter>; 3],
    wait_hists: [Arc<Histogram>; 3],
    releases: Arc<Counter>,
    conversions: Arc<Counter>,
    slow_path: Arc<Counter>,
    /// Kept for span probes (acquire/wait/convert trace events); a
    /// disabled tracer makes each probe one relaxed atomic load.
    handle: MetricsHandle,
}

impl Default for LockStats {
    fn default() -> Self {
        Self::new()
    }
}

impl LockStats {
    /// Instruments in a fresh private registry (uncorrelated with any
    /// other layer — for standalone `LockManager`s).
    pub fn new() -> Self {
        Self::with_handle(&MetricsHandle::default())
    }

    /// Instruments registered under `locks.` in `handle`'s registry.
    pub fn with_handle(handle: &MetricsHandle) -> Self {
        LockStats {
            grants: [
                handle.counter("locks.grants.rho"),
                handle.counter("locks.grants.alpha"),
                handle.counter("locks.grants.xi"),
            ],
            waits: [
                handle.counter("locks.waits.rho"),
                handle.counter("locks.waits.alpha"),
                handle.counter("locks.waits.xi"),
            ],
            wait_hists: [
                handle.histogram("locks.wait_ns.rho"),
                handle.histogram("locks.wait_ns.alpha"),
                handle.histogram("locks.wait_ns.xi"),
            ],
            releases: handle.counter("locks.releases"),
            conversions: handle.counter("locks.conversions"),
            slow_path: handle.counter("locks.slow_path"),
            handle: handle.clone(),
        }
    }

    /// Stamp an instant against the ambient [`TraceCtx`] when one is
    /// set, or as a free-standing (trace-0) event otherwise, so lock
    /// activity stays visible in standalone runs too.
    fn stamp(&self, event: &'static str, target: u64) {
        let t = self.handle.tracer();
        if !t.is_enabled() {
            return;
        }
        let ctx = TraceCtx::current();
        if ctx.is_none() {
            t.record(ceh_obs::SpanId::NONE, "locks", event, target, 0);
        } else {
            t.instant(ctx, "locks", event, target, 0);
        }
    }

    /// Record a grant, stamping a `locks.acquire.<mode>` instant.
    pub(crate) fn record_grant(&self, mode: LockMode, _waited: bool, target: u64) {
        self.grants[mode_idx(mode)].inc();
        self.stamp(acquire_event(mode), target);
    }

    pub(crate) fn record_release(&self, _mode: LockMode) {
        self.releases.inc();
    }

    /// Open a `locks.wait.<mode>` span: the returned context must be
    /// passed to [`LockStats::record_wait_end`]. Wait spans root their
    /// own trace when no ambient context is set, so the contention
    /// profile covers standalone (non-distributed) runs too.
    pub(crate) fn record_wait_start(&self, mode: LockMode, target: u64) -> TraceCtx {
        self.waits[mode_idx(mode)].inc();
        let t = self.handle.tracer();
        if t.is_enabled() {
            t.begin(TraceCtx::current(), "locks", wait_event(mode), target, 0)
        } else {
            TraceCtx::NONE
        }
    }

    /// Close the wait span with the observed wait in `b` (nanoseconds);
    /// `a` repeats the encoded target so the contention profile can be
    /// built from `End` events alone.
    pub(crate) fn record_wait_end(
        &self,
        wait: TraceCtx,
        mode: LockMode,
        target: u64,
        elapsed: Duration,
    ) {
        let wait_ns = elapsed.as_nanos() as u64;
        self.wait_hists[mode_idx(mode)].record(wait_ns);
        // The waited grant itself:
        self.record_grant(mode, true, target);
        self.handle
            .tracer()
            .end(wait, "locks", wait_event(mode), target, wait_ns);
    }

    /// A request left the word's fast path for the waiter table.
    pub(crate) fn record_slow_path(&self) {
        self.slow_path.inc();
    }

    pub(crate) fn record_conversion(&self, target: u64) {
        self.conversions.inc();
        self.stamp("convert", target);
    }

    /// The per-mode wait-latency histogram (p50/p99/max of individual
    /// waits, not just the total the snapshot carries).
    pub fn wait_hist(&self, mode: LockMode) -> &Histogram {
        &self.wait_hists[mode_idx(mode)]
    }

    /// Copy out the current values.
    pub fn snapshot(&self) -> LockStatsSnapshot {
        LockStatsSnapshot {
            grants_rho: self.grants[0].get(),
            grants_alpha: self.grants[1].get(),
            grants_xi: self.grants[2].get(),
            releases: self.releases.get(),
            waits_rho: self.waits[0].get(),
            waits_alpha: self.waits[1].get(),
            waits_xi: self.waits[2].get(),
            wait_ns_rho: self.wait_hists[0].sum(),
            wait_ns_alpha: self.wait_hists[1].sum(),
            wait_ns_xi: self.wait_hists[2].sum(),
            conversions: self.conversions.get(),
        }
    }

    /// Zero all counters and wait histograms.
    pub fn reset(&self) {
        for c in self.grants.iter().chain(self.waits.iter()) {
            c.reset();
        }
        for h in &self.wait_hists {
            h.reset();
        }
        self.releases.reset();
        self.conversions.reset();
        self.slow_path.reset();
    }
}

/// A point-in-time copy of [`LockStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LockStatsSnapshot {
    /// ρ locks granted (immediate + after waiting).
    pub grants_rho: u64,
    /// α locks granted.
    pub grants_alpha: u64,
    /// ξ locks granted.
    pub grants_xi: u64,
    /// Total releases.
    pub releases: u64,
    /// ρ requests that had to wait.
    pub waits_rho: u64,
    /// α requests that had to wait.
    pub waits_alpha: u64,
    /// ξ requests that had to wait.
    pub waits_xi: u64,
    /// Total nanoseconds ρ requests spent waiting.
    pub wait_ns_rho: u64,
    /// Total nanoseconds α requests spent waiting.
    pub wait_ns_alpha: u64,
    /// Total nanoseconds ξ requests spent waiting.
    pub wait_ns_xi: u64,
    /// Conversion-style grants (owner already held a lock on the
    /// resource).
    pub conversions: u64,
}

impl LockStatsSnapshot {
    /// All grants.
    pub fn total_grants(&self) -> u64 {
        self.grants_rho + self.grants_alpha + self.grants_xi
    }

    /// All waits.
    pub fn total_waits(&self) -> u64 {
        self.waits_rho + self.waits_alpha + self.waits_xi
    }

    /// All wait time.
    pub fn total_wait_ns(&self) -> u64 {
        self.wait_ns_rho + self.wait_ns_alpha + self.wait_ns_xi
    }

    /// Fraction of grants that had to wait (0.0 when no grants).
    pub fn contention_ratio(&self) -> f64 {
        let g = self.total_grants();
        if g == 0 {
            0.0
        } else {
            self.total_waits() as f64 / g as f64
        }
    }

    /// Difference (self - earlier) for interval measurement.
    pub fn since(&self, e: &LockStatsSnapshot) -> LockStatsSnapshot {
        LockStatsSnapshot {
            grants_rho: self.grants_rho - e.grants_rho,
            grants_alpha: self.grants_alpha - e.grants_alpha,
            grants_xi: self.grants_xi - e.grants_xi,
            releases: self.releases - e.releases,
            waits_rho: self.waits_rho - e.waits_rho,
            waits_alpha: self.waits_alpha - e.waits_alpha,
            waits_xi: self.waits_xi - e.waits_xi,
            wait_ns_rho: self.wait_ns_rho - e.wait_ns_rho,
            wait_ns_alpha: self.wait_ns_alpha - e.wait_ns_alpha,
            wait_ns_xi: self.wait_ns_xi - e.wait_ns_xi,
            conversions: self.conversions - e.conversions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_math() {
        let s = LockStats::new();
        s.record_grant(LockMode::Rho, false, 0);
        s.record_grant(LockMode::Alpha, false, 0);
        let w = s.record_wait_start(LockMode::Xi, 0);
        s.record_wait_end(w, LockMode::Xi, 0, Duration::from_nanos(500));
        let snap = s.snapshot();
        assert_eq!(snap.total_grants(), 3);
        assert_eq!(snap.total_waits(), 1);
        assert_eq!(snap.total_wait_ns(), 500);
        assert!((snap.contention_ratio() - 1.0 / 3.0).abs() < 1e-9);
        s.reset();
        assert_eq!(s.snapshot(), LockStatsSnapshot::default());
    }

    #[test]
    fn shared_handle_sees_lock_metrics() {
        let handle = MetricsHandle::new();
        let s = LockStats::with_handle(&handle);
        s.record_grant(LockMode::Rho, false, 0);
        let w = s.record_wait_start(LockMode::Alpha, 0);
        s.record_wait_end(w, LockMode::Alpha, 0, Duration::from_nanos(250));
        s.record_release(LockMode::Rho);
        let m = handle.snapshot();
        assert_eq!(m.counter("locks.grants.rho"), 1);
        assert_eq!(m.counter("locks.grants.alpha"), 1);
        assert_eq!(m.counter("locks.waits.alpha"), 1);
        assert_eq!(m.counter("locks.releases"), 1);
        let wait = m.hist("locks.wait_ns.alpha").unwrap();
        assert_eq!(wait.count, 1);
        assert_eq!(wait.sum, 250);
    }
}
