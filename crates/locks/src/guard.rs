//! RAII lock guards.
//!
//! The protocol transcriptions in `ceh-core` use explicit
//! [`LockManager::lock`]/[`LockManager::unlock`] calls because the paper's
//! listings release locks in non-nested orders (hand-over-hand chains,
//! Figure 7's release-and-relock dance). Guards exist for user-facing code
//! and for tests that want panic-safety.

use crate::manager::LockManager;
use crate::mode::{LockId, LockMode};
use crate::owners::OwnerId;

/// An RAII guard that releases its lock on drop.
#[must_use = "dropping the guard releases the lock immediately"]
pub struct LockGuard<'a> {
    mgr: &'a LockManager,
    owner: OwnerId,
    id: LockId,
    mode: LockMode,
    armed: bool,
}

impl<'a> LockGuard<'a> {
    /// Block until the lock is granted, returning a guard.
    pub fn acquire(mgr: &'a LockManager, owner: OwnerId, id: LockId, mode: LockMode) -> Self {
        mgr.lock(owner, id, mode);
        LockGuard {
            mgr,
            owner,
            id,
            mode,
            armed: true,
        }
    }

    /// Try to acquire without blocking.
    pub fn try_acquire(
        mgr: &'a LockManager,
        owner: OwnerId,
        id: LockId,
        mode: LockMode,
    ) -> Option<Self> {
        mgr.try_lock(owner, id, mode).then(|| LockGuard {
            mgr,
            owner,
            id,
            mode,
            armed: true,
        })
    }

    /// The guarded resource.
    pub fn id(&self) -> LockId {
        self.id
    }

    /// The held mode.
    pub fn mode(&self) -> LockMode {
        self.mode
    }

    /// Release early (equivalent to drop, but explicit at call sites that
    /// care about ordering).
    pub fn release(mut self) {
        self.release_inner();
    }

    /// Forget the guard without unlocking — hands responsibility back to
    /// explicit `unlock` calls. Used when protocol code briefly wants
    /// panic-safety around a fallible step.
    pub fn disarm(mut self) {
        self.armed = false;
    }

    fn release_inner(&mut self) {
        if self.armed {
            self.armed = false;
            self.mgr.unlock(self.owner, self.id, self.mode);
        }
    }
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        self.release_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceh_types::PageId;

    const R: LockId = LockId::Page(PageId(3));

    #[test]
    fn guard_releases_on_drop() {
        let m = LockManager::over(crate::FixedWords::new(4));
        let o = m.new_owner();
        {
            let _g = LockGuard::acquire(&m, o, R, LockMode::Xi);
            assert_eq!(m.total_granted(), 1);
        }
        assert_eq!(m.total_granted(), 0);
    }

    #[test]
    fn guard_releases_on_panic() {
        let m = LockManager::over(crate::FixedWords::new(4));
        let o = m.new_owner();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = LockGuard::acquire(&m, o, R, LockMode::Alpha);
            panic!("boom");
        }));
        assert!(result.is_err());
        assert_eq!(m.total_granted(), 0, "guard must unlock during unwind");
    }

    #[test]
    fn try_acquire_respects_compatibility() {
        let m = LockManager::over(crate::FixedWords::new(4));
        let a = m.new_owner();
        let b = m.new_owner();
        let g = LockGuard::try_acquire(&m, a, R, LockMode::Rho).unwrap();
        assert!(LockGuard::try_acquire(&m, b, R, LockMode::Xi).is_none());
        let g2 = LockGuard::try_acquire(&m, b, R, LockMode::Alpha).unwrap();
        g.release();
        g2.release();
        assert_eq!(m.total_granted(), 0);
    }

    #[test]
    fn disarm_leaves_lock_held() {
        let m = LockManager::over(crate::FixedWords::new(4));
        let o = m.new_owner();
        LockGuard::acquire(&m, o, R, LockMode::Rho).disarm();
        assert_eq!(m.total_granted(), 1);
        m.unlock(o, R, LockMode::Rho);
    }
}
