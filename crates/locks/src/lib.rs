//! # ceh-locks — ρ/α/ξ locking
//!
//! The paper's concurrency control rests on three lock modes placed "on the
//! directory (as a whole) and on individual buckets" (§2.1):
//!
//! | request ↓ \ existing → | ρ | α | ξ |
//! |---|---|---|---|
//! | **ρ** (read-lock)      | yes | yes | no |
//! | **α** (selective lock) | yes | no  | no |
//! | **ξ** (exclusive lock) | no  | no  | no |
//!
//! The α ("selective") mode is the interesting one: it admits concurrent
//! readers but excludes other updaters — it is what lets inserters run
//! under readers in both solutions.
//!
//! [`LockManager`] implements:
//!
//! * **fair FIFO granting "subject to the compatibility relationship"**
//!   (the fairness assumption of §2.3): a request is granted only when it
//!   is compatible with every granted lock *and* every earlier waiter, so
//!   a stream of readers cannot starve a waiting ξ;
//! * **conversion-style requests**: an owner that already holds a lock on
//!   a resource (Figure 8's inserter holds ρ on the directory and then
//!   requests α on it) bypasses the waiting queue and is checked against
//!   granted locks only — precisely the reasoning of §2.5 ("a process
//!   requesting an α-lock on the directory already holds a ρ-lock on it
//!   (essentially doing lock conversion) … The lock cannot be a ξ-lock
//!   because of the existing ρ-lock"). Queuing a conversion behind a
//!   waiting ξ would deadlock; bypassing is both safe and faithful;
//! * **reentrancy**: the same owner may acquire the same (resource, mode)
//!   multiple times; counts nest;
//! * **a lock word per resource**: one `AtomicU64` holding a ρ-holder
//!   count, an α bit, a ξ bit and a `QUEUED` bit. An uncontended grant is
//!   one CAS on it and a release one `fetch_sub`. The sharded waiter table
//!   holds only the requests that found the word queued or conflicting
//!   (counted in `locks.slow_path`); `QUEUED` is set exactly while a
//!   resource has waiters, which keeps newcomers behind them. A page's
//!   word is its header word in the page store ([`HeaderWords`],
//!   [`header`]), which also carries the page's version, so an in-bucket
//!   update can upgrade from a validated read with one CAS
//!   ([`LockManager::upgrade`]). Each
//!   owner's grants are kept in its thread's *home* rather than in a
//!   shared table, and so is its count of ρ grants on the directory,
//!   which every operation takes: the directory's word keeps only α, ξ
//!   and `QUEUED`, and a ξ on the directory, always granted under the
//!   waiter table's mutex, sums the homes' counts. Two callers of
//!   uncontended finds write no common cache line of the manager;
//! * **statistics** ([`LockStats`]) — grants, waits, wait time by mode —
//!   consumed by the benchmark harness;
//! * **wait-point hooks** ([`WaitHook`]): the acquire/block/release seam
//!   `ceh-check`'s deterministic schedule explorer plugs a cooperative
//!   scheduler into (one relaxed atomic load when unused);
//! * a **waits-for deadlock detector** ([`LockManager::detect_deadlock`]),
//!   armed by the stress tests to check the §2.3/§2.5 deadlock-freedom
//!   arguments empirically, with an optional watchdog that panics with the
//!   cycle when a wait exceeds a configured bound;
//! * **shadow-access instrumentation** ([`shadow`]): `Tracked`/
//!   `TrackedAtomic*` wrappers and a process-global `ShadowSink`
//!   seam that `ceh check race`'s happens-before detector observes shared
//!   accesses through (compiled away unless the `check-race` feature is
//!   on).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod guard;
mod hook;
mod manager;
mod mode;
mod owners;
pub mod shadow;
mod stats;
mod word;

pub use guard::LockGuard;
pub use hook::WaitHook;
pub use manager::{FixedWords, HeaderWords, LockManager, LockManagerConfig};
pub use mode::{compatible, LockId, LockMode};
pub use owners::OwnerId;
pub use stats::{lock_trace_target, LockStats, LockStatsSnapshot};
pub use word::header;
