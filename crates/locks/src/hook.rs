//! Wait-point hooks: the seam a deterministic scheduler plugs into.
//!
//! `ceh-check`'s schedule explorer needs to control *exactly* when each
//! virtual thread acquires, blocks on, and releases a lock. Rather than
//! fork the lock manager, the manager exposes its three scheduling-relevant
//! points as a [`WaitHook`]:
//!
//! * **`at_acquire`** — fired before an acquisition attempt is evaluated
//!   (the thread is *about to* lock). A scheduler may suspend the caller
//!   here to explore a different interleaving.
//! * **`at_block`** — fired, with no lock-table mutex held, each time a
//!   queued request finds itself ungrantable. The manager re-checks
//!   grantability when the call returns, so a hook that parks the calling
//!   thread until "something changed" replaces the internal condvar wait
//!   entirely: the manager never sleeps on its own while a hook is
//!   installed and the wait loop becomes deterministic.
//! * **`at_granted`** — fired after an acquisition has actually been
//!   granted (immediate, reentrant, conversion, or at the end of a wait).
//!   The happens-before race detector records its lock-acquire edge here:
//!   `at_acquire` fires *before* the grant decision, which is too early —
//!   the edge must join the clocks of releases that happened while the
//!   request waited.
//! * **`at_release`** — fired after a release has been applied (waiters on
//!   the resource are now eligible).
//! * **`at_probe`** — fired by [`crate::LockManager::probe`] inside an
//!   optimistic find's validated read window: the point where a
//!   scheduler lets writers overlap a lock-free read.
//! * **`at_upgrade`** — fired by [`crate::LockManager::upgrade`] between
//!   an in-bucket update's validated read and its CAS: the point where a
//!   scheduler lets writers slip in before the update claims the page.
//!
//! A hook is per-manager and must be cheap to consult: the fast path is
//! one relaxed atomic load when no hook is installed. All callbacks run
//! with **no** manager-internal mutex held, so a hook may block the
//! calling thread for as long as it likes; it must not call back into the
//! same `LockManager`.

use crate::mode::{LockId, LockMode};
use crate::OwnerId;

/// Observer/controller of the lock manager's wait points. See module docs.
///
/// All methods default to no-ops so a hook may override only the points
/// it cares about.
pub trait WaitHook: Send + Sync {
    /// An acquisition of `mode` on `id` for `owner` is about to be
    /// evaluated (called before any grant decision, including reentrant
    /// and `try_lock` acquisitions).
    fn at_acquire(&self, owner: OwnerId, id: LockId, mode: LockMode) {
        let _ = (owner, id, mode);
    }

    /// The queued request (`owner`, `mode` on `id`) is not currently
    /// grantable. Called with no lock-table mutex held; when this returns
    /// the manager re-checks grantability. A scheduler should park the
    /// calling thread here until another thread has released a lock.
    fn at_block(&self, owner: OwnerId, id: LockId, mode: LockMode) {
        let _ = (owner, id, mode);
    }

    /// The acquisition of `mode` on `id` by `owner` has been granted
    /// (including reentrant nesting and successful `try_lock`s). Called
    /// with no lock-table mutex held. Under a serializing hook (the
    /// schedule explorer) every release that made the grant possible has
    /// already fired its [`WaitHook::at_release`] — the ordering the
    /// race detector's lock edges rely on.
    fn at_granted(&self, owner: OwnerId, id: LockId, mode: LockMode) {
        let _ = (owner, id, mode);
    }

    /// An optimistic reader is inside its read window on `id`
    /// ([`crate::LockManager::probe`]): it has snapshotted the page's
    /// header and will validate it after its scan. No lock is held or
    /// requested. A scheduler may suspend the caller here so that writers
    /// run inside the window.
    fn at_probe(&self, id: LockId) {
        let _ = id;
    }

    /// An in-bucket update has read page `id` and is about to take
    /// `mode` on it with one CAS from the read's snapshot
    /// ([`crate::LockManager::upgrade`]). No lock is held. A scheduler
    /// may suspend the caller here so that writers change the page
    /// between the read and the CAS. A successful upgrade is reported to
    /// [`WaitHook::at_granted`] and its release to
    /// [`WaitHook::at_release`], with owner [`OwnerId::NONE`].
    fn at_upgrade(&self, id: LockId, mode: LockMode) {
        let _ = (id, mode);
    }

    /// A release of `mode` on `id` by `owner` has been applied and any
    /// waiters on the resource are eligible to be re-checked.
    fn at_release(&self, owner: OwnerId, id: LockId, mode: LockMode) {
        let _ = (owner, id, mode);
    }
}
