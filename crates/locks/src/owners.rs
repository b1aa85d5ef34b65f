//! Owner ids and the per-owner record of what each owner holds.
//!
//! Every thread that calls [`Owners::new_owner`] claims a *home* for the
//! manager: a cache-line-aligned slot that numbers the thread's owners
//! and lists the grants they hold. An [`OwnerId`] carries its home's
//! index in its high bits, so any thread can find an owner's grants
//! (the detector, `release_all` from a test thread, an owner handed to
//! another thread), while an operation that stays on its thread touches
//! only its own home — two callers never write the same line to issue
//! an id or to record a grant. A thread's home goes back to the manager
//! when the thread exits, and its numbering carries on for the next
//! thread that claims it, so ids never repeat.
//!
//! A manager has a fixed number of homes, and an id's home depends on
//! the id alone: index `owner >> HOME_SHIFT`, or home 0 for an index past
//! the table. Home 0 is never claimed. It records the grants of ids past
//! the table, and it numbers the owners of threads that find every other
//! home claimed — shared, so slower, but as correct.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use parking_lot::Mutex;

use crate::mode::{LockId, LockMode};

/// Identifies a lock-holding process (one logical operation).
///
/// The paper's "processes" map to operations here, not OS threads: each
/// `find`/`insert`/`delete` call takes a fresh owner from
/// [`crate::LockManager::new_owner`], so a thread running operations back
/// to back never accidentally inherits locks across operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OwnerId(pub u64);

/// An owner id is `home << HOME_SHIFT | seq`, with `seq` counted per home
/// from 1.
const HOME_SHIFT: u32 = 40;
const SEQ_LIMIT: u64 = 1 << HOME_SHIFT;

/// Homes per manager, home 0 included: 32 KiB.
const HOMES: usize = 256;

/// The home that is never claimed.
const SHARED: usize = 0;

/// One grant an owner holds: `count` nested acquisitions of `mode` on
/// `id`, counted once in the resource's lock word.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Held {
    pub(crate) owner: OwnerId,
    pub(crate) id: LockId,
    pub(crate) mode: LockMode,
    pub(crate) count: u32,
}

/// A home: the grants of the owners it issued, and where its id
/// numbering stopped when its last thread let it go. Aligned to two cache
/// lines so neighbouring homes (two threads) never share one,
/// adjacent-line prefetch included.
///
/// The home's own thread takes `held` for every grant and release, on a
/// line no other thread touches. Other threads take it only to release
/// an owner's grants from outside or to read them for diagnostics.
/// `dir_rho` counts the ρ grants on the directory that the home's owners
/// hold (see [`crate::word`]); other threads read it only to grant ξ on
/// the directory.
#[derive(Default)]
#[repr(align(128))]
pub(crate) struct Home {
    pub(crate) held: Mutex<Vec<Held>>,
    pub(crate) dir_rho: AtomicU64,
    next_seq: AtomicU64,
}

/// Which homes are claimed.
struct Pool {
    /// Homes whose thread exited, ready to be claimed again.
    free: Vec<usize>,
    /// Homes claimed at least once: `1..created`.
    created: usize,
}

/// Every home of one manager.
pub(crate) struct Owners {
    homes: Box<[Home]>,
    pool: Mutex<Pool>,
}

/// A thread's claim on one manager's home, numbering the thread's
/// owners in `next_seq`; hands the home and its numbering back on thread
/// exit. A claim on [`SHARED`] numbers from the home's counter instead.
struct Claim {
    owners: Weak<Owners>,
    home: usize,
    next_seq: Cell<u64>,
}

impl Drop for Claim {
    fn drop(&mut self) {
        if self.home == SHARED {
            return;
        }
        if let Some(owners) = self.owners.upgrade() {
            let mut pool = owners.pool.lock();
            // Published to the next claimant by the pool mutex.
            owners.homes[self.home]
                .next_seq
                .store(self.next_seq.get(), Ordering::Release);
            pool.free.push(self.home);
        }
    }
}

thread_local! {
    /// This thread's homes, one per manager it has issued owners from.
    static CLAIMS: RefCell<Vec<Claim>> = const { RefCell::new(Vec::new()) };
}

/// The modes in `held` that `owner` holds on `id`, as lock-word bits.
pub(crate) fn own_bits(held: &[Held], owner: OwnerId, id: LockId) -> u64 {
    held.iter()
        .filter(|h| h.owner == owner && h.id == id)
        .fold(0, |bits, h| bits | crate::word::bit(h.mode))
}

impl Owners {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Owners {
            homes: (0..HOMES).map(|_| Home::default()).collect(),
            pool: Mutex::new(Pool {
                free: Vec::new(),
                created: SHARED + 1,
            }),
        })
    }

    /// The home an owner's grants are recorded in: fixed by the id, so
    /// the grant and its release always meet in the same home.
    #[inline]
    pub(crate) fn home(&self, owner: OwnerId) -> &Home {
        usize::try_from(owner.0 >> HOME_SHIFT)
            .ok()
            .and_then(|i| self.homes.get(i))
            .unwrap_or(&self.homes[SHARED])
    }

    /// Every home, for whole-manager scans.
    pub(crate) fn homes(&self) -> impl Iterator<Item = &Home> {
        self.homes.iter()
    }

    /// The ρ grants on the directory, summed over every home. Each count
    /// is read with a read-modify-write, which sees the latest value; see
    /// [`crate::word::try_grant_local`] for why a load would not do.
    pub(crate) fn directory_readers(&self) -> u64 {
        self.homes
            .iter()
            .map(|h| h.dir_rho.fetch_add(0, Ordering::AcqRel))
            .sum()
    }

    /// A fresh owner id, numbered in the calling thread's home.
    pub(crate) fn new_owner(self: &Arc<Self>) -> OwnerId {
        CLAIMS.with(|claims| {
            let mut claims = claims.borrow_mut();
            loop {
                let c = self.claimed(&mut claims);
                let seq = if c.home == SHARED {
                    self.homes[SHARED].next_seq.fetch_add(1, Ordering::AcqRel) + 1
                } else {
                    c.next_seq.get() + 1
                };
                if seq < SEQ_LIMIT {
                    c.next_seq.set(seq);
                    return OwnerId((c.home as u64) << HOME_SHIFT | seq);
                }
                assert_ne!(c.home, SHARED, "the shared owner numbering is used up");
                // This home's numbering is used up: drop the claim (the
                // home is never claimed again) and take another.
                claims.retain(|c| !self.is(c));
            }
        })
    }

    fn is(self: &Arc<Self>, c: &Claim) -> bool {
        std::ptr::eq(c.owners.as_ptr(), Arc::as_ptr(self))
    }

    /// This thread's claim on `self`, made on first use.
    fn claimed<'c>(self: &Arc<Self>, claims: &'c mut Vec<Claim>) -> &'c Claim {
        if let Some(i) = claims.iter().position(|c| self.is(c)) {
            return &claims[i];
        }
        // Forget claims on managers that are gone.
        claims.retain(|c| c.owners.strong_count() > 0);
        let (home, next_seq) = self.claim();
        claims.push(Claim {
            owners: Arc::downgrade(self),
            home,
            next_seq: Cell::new(next_seq),
        });
        claims.last().expect("just pushed")
    }

    /// A home no live thread claims, and where its numbering stands: a
    /// returned one with numbering left, or a new one, or [`SHARED`] when
    /// every other home is taken.
    fn claim(&self) -> (usize, u64) {
        let mut pool = self.pool.lock();
        while let Some(home) = pool.free.pop() {
            let next = self.homes[home].next_seq.load(Ordering::Acquire);
            if next + 1 < SEQ_LIMIT {
                return (home, next);
            }
        }
        if pool.created == HOMES {
            return (SHARED, 0);
        }
        pool.created += 1;
        (pool.created - 1, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_are_unique_and_numbered_per_thread_home() {
        let owners = Owners::new();
        let here: Vec<_> = (0..3).map(|_| owners.new_owner()).collect();
        let there = {
            let owners = Arc::clone(&owners);
            std::thread::spawn(move || (0..3).map(|_| owners.new_owner()).collect::<Vec<_>>())
                .join()
                .unwrap()
        };
        let homes: HashSet<u64> = here.iter().map(|o| o.0 >> HOME_SHIFT).collect();
        assert_eq!(homes.len(), 1, "one thread, one home");
        let all: HashSet<OwnerId> = here.iter().chain(&there).copied().collect();
        assert_eq!(all.len(), 6, "ids never repeat");
        assert_ne!(here[0].0 >> HOME_SHIFT, there[0].0 >> HOME_SHIFT);
    }

    #[test]
    fn an_exited_threads_home_is_reused_without_repeating_ids() {
        let owners = Owners::new();
        let run = |owners: &Arc<Owners>| {
            let owners = Arc::clone(owners);
            std::thread::spawn(move || owners.new_owner())
                .join()
                .unwrap()
        };
        let first = run(&owners);
        let second = run(&owners);
        assert_eq!(first.0 >> HOME_SHIFT, second.0 >> HOME_SHIFT, "home reused");
        assert_ne!(first, second, "numbering carries on");
    }

    #[test]
    fn an_ids_home_does_not_move_when_threads_claim_homes() {
        let owners = Owners::new();
        let foreign = OwnerId(3 << HOME_SHIFT | 999);
        let before: *const Home = owners.home(foreign);
        let barrier = Arc::new(std::sync::Barrier::new(4));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let (owners, barrier) = (Arc::clone(&owners), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    let id = owners.new_owner();
                    barrier.wait();
                    id
                })
            })
            .collect();
        let claimed: HashSet<u64> = threads
            .into_iter()
            .map(|t| t.join().unwrap().0 >> HOME_SHIFT)
            .collect();
        assert!(claimed.contains(&3), "home 3 was claimed meanwhile");
        assert!(std::ptr::eq(before, owners.home(foreign)));
        assert!(std::ptr::eq(
            owners.home(OwnerId(u64::MAX)),
            &owners.homes[SHARED]
        ));
    }

    #[test]
    fn threads_past_the_home_table_share_home_0_with_unique_ids() {
        let owners = Owners::new();
        let n = HOMES + 8;
        let barrier = Arc::new(std::sync::Barrier::new(n));
        let threads: Vec<_> = (0..n)
            .map(|_| {
                let (owners, barrier) = (Arc::clone(&owners), Arc::clone(&barrier));
                std::thread::spawn(move || {
                    // Every thread holds its claim until all have claimed.
                    owners.new_owner();
                    barrier.wait();
                    (0..3).map(|_| owners.new_owner()).collect::<Vec<_>>()
                })
            })
            .collect();
        let ids: Vec<OwnerId> = threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect();
        let unique: HashSet<OwnerId> = ids.iter().copied().collect();
        assert_eq!(unique.len(), ids.len(), "ids never repeat");
        let shared = ids.iter().filter(|o| o.0 >> HOME_SHIFT == 0).count();
        assert_eq!(
            shared,
            3 * (n - (HOMES - 1)),
            "the overflow threads share home 0"
        );
    }
}
