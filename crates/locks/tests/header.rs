//! The page header word: the seqlock state the page store brackets its
//! changes with, and the owner-less upgrade an in-bucket update takes
//! from a validated read of it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ceh_locks::header::*;
use ceh_locks::shadow::speculate;
use ceh_locks::{FixedWords, HeaderWords, LockId, LockManager, LockMode, OwnerId, WaitHook};
use ceh_types::PageId;

/// Allocation, grants and changes, as a validated reader sees them.
#[test]
fn changes_advance_the_version_and_fail_older_snapshots() {
    let pages = FixedWords::new(1);
    let m = LockManager::over(pages.clone());
    let (p, id) = (PageId(0), LockId::Page(PageId(0)));
    let w = pages.header(p).unwrap();
    write_begin(w);
    write_end(w, Some(false));
    assert_eq!(read_begin(w), None, "a free slot is never read");
    write_begin(w);
    write_end(w, Some(true));
    assert!(guarded(w.load(Ordering::Acquire)), "fresh");
    let s0 = read_begin(w).expect("allocated, quiet");
    assert!(validate(w, s0));
    let o = m.new_owner();
    m.lock(o, id, LockMode::Rho);
    assert!(validate(w, s0), "grants leave the state alone");
    assert!(!guarded(w.load(Ordering::Acquire)), "ρ reached it");
    write_begin(w);
    assert_eq!(read_begin(w), None, "a change is in progress");
    assert!(!validate(w, s0));
    write_end(w, None);
    let s1 = read_begin(w).unwrap();
    assert_eq!(s1 & STATE, (s0 & STATE) + VERSION_ONE);
    assert!(!validate(w, s0), "a change came between");
    m.unlock(o, id, LockMode::Rho);
    m.lock(o, id, LockMode::Xi);
    assert!(guarded(w.load(Ordering::Acquire)), "ξ guards a write");
    assert_eq!(read_begin(w), None, "ξ keeps optimistic readers out");
    m.unlock(o, id, LockMode::Xi);
    write_begin(w);
    write_end(w, Some(false));
    assert_eq!(read_begin(w), None, "freed");
    assert!(!validate(w, s1));
}

#[test]
fn the_version_wraps_without_touching_the_other_fields() {
    let w = AtomicU64::new(!(VERSION_ONE - 1) | ALLOCATED | ALPHA | 3);
    write_begin(&w);
    write_end(&w, None);
    assert_eq!(w.load(Ordering::Acquire), ALLOCATED | ALPHA | 3);
    write_begin(&w);
    write_end(&w, Some(false));
    assert_eq!(w.load(Ordering::Acquire), VERSION_ONE | ALPHA | 3);
}

/// Records the hook calls an upgrade makes.
#[derive(Default)]
struct Calls(Mutex<Vec<(&'static str, OwnerId, LockMode)>>);

impl WaitHook for Calls {
    fn at_upgrade(&self, _id: LockId, mode: LockMode) {
        self.0
            .lock()
            .unwrap()
            .push(("upgrade", OwnerId::NONE, mode));
    }
    fn at_granted(&self, owner: OwnerId, _id: LockId, mode: LockMode) {
        self.0.lock().unwrap().push(("granted", owner, mode));
    }
    fn at_release(&self, owner: OwnerId, _id: LockId, mode: LockMode) {
        self.0.lock().unwrap().push(("release", owner, mode));
    }
}

/// An upgrade succeeds only from an unchanged snapshot with no waiters
/// and no conflicting grant (a ρ holder admits α, not ξ); it counts as
/// one grant and one release, excludes owners while held, wakes a
/// waiter it kept out, and reports both ends to the hook with no owner.
#[test]
fn an_upgrade_is_one_grant_from_an_unchanged_snapshot() {
    let pages = FixedWords::new(4);
    let m = Arc::new(LockManager::over(pages.clone()));
    let calls = Arc::new(Calls::default());
    m.set_wait_hook(Some(calls.clone()));
    let (p, id) = (PageId(2), LockId::Page(PageId(2)));
    let w = pages.header(p).unwrap();
    let snap = read_begin(w).unwrap();
    let reader = m.new_owner();
    m.lock(reader, id, LockMode::Rho);
    assert!(
        !m.upgrade(p, snap, LockMode::Xi, speculate()),
        "ρ refuses ξ"
    );
    assert!(
        m.upgrade(p, snap, LockMode::Alpha, speculate()),
        "and admits α"
    );
    assert_eq!(read_begin(w), None, "the upgrade is writing");
    assert!(!m.try_lock(m.new_owner(), id, LockMode::Alpha));
    m.unlock(reader, id, LockMode::Rho);
    let m2 = Arc::clone(&m);
    let waiter = std::thread::spawn(move || {
        let o = m2.new_owner();
        m2.lock(o, id, LockMode::Xi);
        m2.unlock(o, id, LockMode::Xi);
    });
    while m.stats().waits_xi == 0 {
        std::thread::yield_now();
    }
    m.release_upgraded(p, LockMode::Alpha);
    waiter.join().unwrap();
    m.set_wait_hook(None);
    let after = read_begin(w).unwrap();
    assert_eq!(after & STATE, (snap & STATE) + VERSION_ONE, "one change");
    assert!(!m.upgrade(p, snap, LockMode::Alpha, speculate()), "stale");
    w.fetch_or(QUEUED, Ordering::AcqRel);
    assert!(
        !m.upgrade(p, after, LockMode::Alpha, speculate()),
        "waiters first"
    );
    w.fetch_and(!QUEUED, Ordering::AcqRel);
    assert!(m.upgrade(p, after, LockMode::Xi, speculate()));
    m.release_upgraded(p, LockMode::Xi);
    let s = m.stats();
    assert_eq!((s.grants_alpha, s.grants_xi), (1, 2));
    assert_eq!(s.releases, s.total_grants());
    assert_eq!(m.total_granted(), 0);
    let calls = calls.0.lock().unwrap();
    let upgrade = calls
        .iter()
        .filter(|c| c.1 == OwnerId::NONE)
        .map(|c| (c.0, c.2))
        .collect::<Vec<_>>();
    assert_eq!(
        upgrade[..4],
        [
            ("upgrade", LockMode::Xi),
            ("upgrade", LockMode::Alpha),
            ("granted", LockMode::Alpha),
            ("release", LockMode::Alpha),
        ]
    );
}
