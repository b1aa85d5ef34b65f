//! `VersionWord`: the textbook seqlock version word, as the race
//! detector's litmus programs use it (the page store's own seqlock is
//! the page header word, `ceh_locks::header`, which shares its
//! orderings).
//!
//! A single even/odd counter guarding a small payload:
//!
//! * **Writers** (serialized externally) bracket payload mutation with
//!   [`VersionWord::write_begin`] (version goes odd) and
//!   [`VersionWord::write_end`] (version goes even again). The begin
//!   increment is `Acquire`, and a `Release` fence follows it, so payload
//!   writes cannot become visible before the odd version; the end
//!   increment is `Release` so they cannot sink below it — the end
//!   increment is the edge that *publishes* the payload.
//! * **Readers** never lock: [`VersionWord::read_begin`] snapshots an
//!   even version (odd means a writer is mid-flight — back off), the
//!   payload is read speculatively (relaxed atomic loads, announced with
//!   [`ceh_locks::shadow::Tracked::get_speculative`] inside a
//!   [`ceh_locks::shadow::speculate`] scope), and [`VersionWord::validate`]
//!   re-loads the version behind an `Acquire` fence: unchanged means no
//!   writer intervened. If a payload load did see a writer's store, the
//!   fence synchronizes with the writer's `Release` fence and the re-load
//!   sees at least the odd version, so validation fails; if it did not,
//!   the payload is the one published by the `Release` end the first
//!   load joined. Committing the speculation is then race-free by
//!   construction. A changed version means the values are garbage; abort
//!   and retry (or fall back to the ρ protocol).
//!
//! The happens-before race detector (`ceh check race`) is the gate for
//! this primitive: with the correct orderings the seqlock litmus runs
//! clean, and the `check-inject`-gated
//! `VersionWord::write_end_missing_release` variant — identical but for
//! a `Relaxed` end increment — must be caught, because the reader's
//! validating load then joins nothing and the committed payload reads are
//! unordered with the writer's stores.

use std::sync::atomic::{fence, Ordering};

use ceh_locks::shadow::TrackedAtomicU64;

/// A seqlock version word. Starts even (0); odd means a writer is active.
#[derive(Debug)]
pub struct VersionWord {
    v: TrackedAtomicU64,
}

impl VersionWord {
    /// A version word at version 0. `label` names it in race reports.
    pub fn new(label: &'static str) -> Self {
        VersionWord {
            v: TrackedAtomicU64::new(0, label),
        }
    }

    /// Begin an optimistic read: the current version if it is even,
    /// `None` if a writer is mid-update (caller should back off/retry).
    /// `Acquire`: pairs with the `Release` in [`VersionWord::write_end`].
    #[track_caller]
    pub fn read_begin(&self) -> Option<u64> {
        let v = self.v.load(Ordering::Acquire);
        (v % 2 == 0).then_some(v)
    }

    /// End an optimistic read: true iff the version still equals `v0`
    /// (no writer intervened; speculative reads may be committed). The
    /// `Acquire` fence keeps the payload loads above the re-load (an
    /// `Acquire` load alone would let earlier loads sink below it) and
    /// pairs with the `Release` fence in [`VersionWord::write_begin`].
    #[track_caller]
    #[must_use]
    pub fn validate(&self, v0: u64) -> bool {
        fence(Ordering::Acquire);
        self.v.load(Ordering::Acquire) == v0
    }

    /// Writer entry: make the version odd. Writers must be serialized
    /// externally (this is checked with a debug assertion on evenness),
    /// so the increment is a load and a store, not a read-modify-write.
    /// The `Acquire` load orders this writer after the previous one's
    /// [`VersionWord::write_end`]; the `Release` fence keeps the payload
    /// writes from becoming visible before the odd version.
    #[track_caller]
    pub fn write_begin(&self) {
        let prev = self.v.load(Ordering::Acquire);
        debug_assert!(prev % 2 == 0, "concurrent VersionWord writers");
        // ceh-lint: allow(relaxed-ordering) — the Release fence below orders it before the payload writes
        self.v.store(prev + 1, Ordering::Relaxed);
        fence(Ordering::Release);
    }

    /// Writer exit: make the version even again, `Release`-publishing
    /// the payload writes to any reader whose `validate` sees the new
    /// version.
    #[track_caller]
    pub fn write_end(&self) {
        // ceh-lint: allow(relaxed-ordering) — the writer's own odd version, stored by this thread
        let prev = self.v.load(Ordering::Relaxed);
        debug_assert!(prev % 2 == 1, "write_end without write_begin");
        self.v.store(prev + 1, Ordering::Release);
    }

    /// Deliberately-broken writer exit for detector self-tests: the
    /// increment is `Relaxed`, so the payload is *not* published and a
    /// reader that validates against the new version commits reads with
    /// no happens-before edge to the writer — the race `ceh check race`
    /// must catch. Only exists under `check-inject`.
    #[cfg(feature = "check-inject")]
    #[track_caller]
    pub fn write_end_missing_release(&self) {
        // ceh-lint: allow(relaxed-ordering) — the writer's own odd version, stored by this thread
        let prev = self.v.load(Ordering::Relaxed);
        debug_assert!(prev % 2 == 1, "write_end without write_begin");
        // ceh-lint: allow(relaxed-ordering) — the injected bug under test: publication edge deliberately dropped
        self.v.store(prev + 1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_begins_even_and_validates() {
        let w = VersionWord::new("test.version");
        let v0 = w.read_begin().expect("fresh word is even");
        assert_eq!(v0, 0);
        assert!(w.validate(v0));
    }

    #[test]
    fn writer_brackets_flip_parity() {
        let w = VersionWord::new("test.version");
        let v0 = w.read_begin().unwrap();
        w.write_begin();
        assert_eq!(w.read_begin(), None, "odd while a writer is active");
        w.write_end();
        let v1 = w.read_begin().unwrap();
        assert_eq!(v1, v0 + 2);
        assert!(!w.validate(v0), "stale snapshot must not validate");
        assert!(w.validate(v1));
    }

    #[cfg(feature = "check-inject")]
    #[test]
    fn injected_end_still_advances_the_version() {
        let w = VersionWord::new("test.version");
        w.write_begin();
        w.write_end_missing_release();
        assert_eq!(w.read_begin(), Some(2));
    }
}
