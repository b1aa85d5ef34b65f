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
//!   (a locked look at one page) and [`PageStore::with_page_mut`] (an
//!   update's edit of one record), each atomic with respect to the
//!   others: every change of a page sets a writing bit in the page's
//!   header word and advances its version, and a read validates against
//!   the version and retries a pass a change overlapped — the disk
//!   controller's single-operation semantics, with no synchronization
//!   beyond it (the locking protocols serialize the writers);
//! * the lock-free [`PageStore::read_validated`] (the optimistic find's
//!   pass over one page, given up rather than retried) and
//!   [`PageStore::update_validated`] (an in-bucket update that takes α
//!   or ξ with one CAS from the snapshot its read validated). The header
//!   word is also the page's ρ/α/ξ lock word: the store implements
//!   [`ceh_locks::HeaderWords`], and a file's lock manager is built over
//!   its store;
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
//! Above the store sits the **bucket layer**, [`Buckets`]: the one
//! place a hash file's bucket mutations are routed. The sequential
//! file, both concurrent solutions and every site of the distributed
//! file hold one, and call its `getbucket`/`putbucket`, its in-place
//! [`Buckets::edit`] and [`Buckets::peek`], `alloc`/`dealloc` and
//! `begin_txn`; it logs each mutation first when the file is durable and
//! writes the store directly when it is not, building the page image the
//! log record needs itself, so no caller holds a page buffer. It also
//! holds the steps every file's restructuring shares: the hand-over-hand
//! walk, the split, and a delete's merge half, from pairing a too-empty
//! bucket with its partner ([`Buckets::pair`], which locks the pair in
//! next-link order and re-checks what a released lock let change, Figure
//! 9's label *A*) to the commit ([`Buckets::merge`]). It creates a file's
//! root bucket, holds the recovery sweep, and the one scan over every
//! allocated page.
//!
//! Beside it sits the **directory**, [`Directory`], every hash file's:
//! the one copy of §2.2's doubling, group redirect, halving and
//! `depthcount` rules, over page ids in atomic words or a distributed
//! replica's `(manager, page, version)` entries ([`DirectoryEntry`]). A
//! restarting file gets one from [`rebuild_directory`].
//!
//! A `PageStore` holds memory only. On top of it sits the **durability
//! layer** (see [`durable`]), the one way pages reach a file:
//! [`DurableStore`] wraps a `PageStore` (its volatile cache) with a redo
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
mod buckets;
mod cache;
mod crash;
mod directory;
pub mod durable;
mod page;
mod stats;
mod store;
pub mod wal;

pub use backend::{BackendKind, DiskHandle, DiskImage, FileBackend, MemBackend, PageBackend};
pub use buckets::{
    mergeable, too_empty, Buckets, Edit, Owning, Paired, Peek, Retire, Split, Walked,
    MERGE_ATTEMPTS,
};
pub use crash::{CrashPlan, Tear};
pub use directory::{rebuild_directory, Directory, DirectoryEntry};
pub use durable::{DurableConfig, DurableStore, DurableTxn, RecoveryReport, FRAME_HEADER};
pub use page::{PageBuf, POISON_BYTE};
pub use stats::{IoStats, IoStatsSnapshot};
pub use store::{PageStore, PageStoreConfig, Plan};
pub use wal::{parse_wal, WalRecord};
