//! # ceh-storage — the simulated disk
//!
//! The paper's algorithms assume that "buckets are assumed to occupy
//! physical pages on disk which are read and written as single operations"
//! (§2.1). That atomicity is **load-bearing**: ρ- and α-locks are
//! compatible, so a reader may `getbucket` a page *while* an inserter
//! `putbucket`s it, and the correctness arguments of §2.3/§2.5 ("a reader
//! will see either the old or the new bucket") only hold if page writes
//! are indivisible.
//!
//! [`PageStore`] provides exactly that substrate:
//!
//! * whole-page [`PageStore::read`] / [`PageStore::write`] (the paper's
//!   `getbucket`/`putbucket`), plus the in-place [`PageStore::with_page`]
//!   (a find's look at one page) and [`PageStore::with_page_mut`] (an
//!   update's edit of one record), each atomic with respect to the
//!   others — implemented with a per-page latch held only for the one access,
//!   which models the disk controller's single-operation semantics
//!   without providing any synchronization beyond it;
//! * the latch-free [`PageStore::read_validated`] (the lock-free find's
//!   pass over one page): every change of a page bumps a per-page
//!   version under the latch and memory pages are atomic words, so a
//!   pass that no change overlapped is known to have read one whole
//!   page;
//! * [`PageStore::alloc`] / [`PageStore::dealloc`] (`allocbucket` /
//!   `deallocbucket`) backed by a free list;
//! * **freed-page poisoning**: deallocated pages are filled with a poison
//!   byte and reads of unallocated pages return
//!   [`ceh_types::Error::PageFault`], so any locking-protocol violation
//!   that lets a process touch a reclaimed bucket trips immediately
//!   instead of silently reading stale data;
//! * [`IoStats`] counters and optional injected latency, used by the
//!   benchmark harness.
//!
//! On top of the volatile substrate sits the **durability layer** (see
//! [`durable`]): [`DurableStore`] wraps a `PageStore` with a redo
//! write-ahead log over a nonvolatile medium (CRC-guarded frames +
//! log), group commit, a fixed-capacity dirty-page buffer cache with
//! CLOCK writeback, checkpointing, seeded power-cut injection via
//! [`CrashPlan`], and crash recovery ([`DurableStore::recover`]).
//!
//! Where the medium's bytes live is the [`backend`] layer's choice
//! ([`PageBackend`]): the deterministic in-memory [`DiskImage`] the
//! chaos and crash fuzzers sweep, or a real file-backed medium
//! ([`FileBackend`]) with `pwrite`/`fsync` — byte-identical layouts,
//! so either recovers the other's disk.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
mod cache;
mod crash;
pub mod durable;
mod page;
mod stats;
mod store;
pub mod wal;

pub use backend::{BackendKind, DiskHandle, DiskImage, FileBackend, MemBackend, PageBackend};
pub use crash::{CrashPlan, Tear};
pub use durable::{DurableConfig, DurableStore, DurableTxn, RecoveryReport, FRAME_HEADER};
pub use page::{PageBuf, POISON_BYTE};
pub use stats::{IoStats, IoStatsSnapshot};
pub use store::{PageStore, PageStoreConfig};
pub use wal::{crc32, parse_wal, WalRecord};
