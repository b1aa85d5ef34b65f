//! # ceh-core — concurrent extendible hashing (the paper's contribution)
//!
//! Two locking protocols for concurrent `find` / `insert` / `delete` on a
//! shared extendible hash file, transliterated from the paper's listings:
//!
//! * [`Solution1`] — §2.2, Figures 5–7. A *top-down* protocol: updaters
//!   hold their directory lock (α for inserts, ξ for deletes) for the
//!   whole operation, serializing updates against each other while ρ/α
//!   compatibility lets readers run under inserters. Buckets carry `next`
//!   links and `commonbits` so readers recover from concurrent splits.
//! * [`Solution2`] — §2.4, Figures 8–9. An *optimistic* protocol: updaters
//!   search like readers and α-lock the directory only when it will
//!   actually change. Merges leave a *tombstone* (bucket marked deleted,
//!   `next` pointing at the survivor) as a recovery path; tombstone
//!   deallocation and directory halving happen in a separate ξ-locked
//!   garbage-collection phase.
//! * [`GlobalLockFile`] — the naive baseline: one readers-writer lock over
//!   the sequential file. What every concurrency protocol is measured
//!   against.
//!
//! All three implement [`ConcurrentHashFile`], and all store buckets
//! through the same page codec on a [`ceh_storage::PageStore`], with
//! locking by [`ceh_locks::LockManager`]; Solutions 1 and 2 index them
//! through the [`ceh_storage::Directory`] every hash file uses. Structural self-checks live in
//! [`invariants`], per-operation counters in [`OpStats`].
//!
//! ## Shape of the transliteration
//!
//! Each protocol function follows its figure step by step, with the
//! figure's lock calls as explicit `lock`/`unlock` pairs (the paper
//! releases locks in non-nested orders, so RAII guards would obscure the
//! correspondence). Comments quote the figures' own annotations — e.g.
//! `/* WRONG BUCKET */` — at the matching control-flow points. Deviations
//! from the listings (all small) are marked `DEVIATION:` with a
//! justification.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod common;
mod global_lock;
pub mod invariants;
mod solution1;
mod solution2;
mod stats;
mod traits;

pub use common::FileCore;
pub use global_lock::GlobalLockFile;
pub use solution1::{Solution1, Solution1Options};
pub use solution2::{GcStrategy, Solution2, Solution2Options};
pub use stats::{OpStats, OpStatsSnapshot};
pub use traits::ConcurrentHashFile;
