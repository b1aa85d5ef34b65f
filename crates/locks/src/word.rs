//! The per-resource lock word.
//!
//! One `AtomicU64` per resource records its grants: the number of owners
//! holding ρ, one bit for a granted α, one for a granted ξ, and a
//! `QUEUED` bit that is set exactly while the resource has waiters in the
//! manager's waiter table. A grant is counted once per owner and mode
//! (nested acquisitions are counted in the owner's [`crate::owners::Held`]
//! entry), so α and ξ never need more than one bit: another owner's α or
//! ξ excludes a second one.
//!
//! The directory's word sits alone on its cache line; page words live in
//! a [`SegTable`] indexed by page id, growing with the pages.
//!
//! The directory's ρ holders are not counted in its word: every find
//! takes ρ there, so a shared count would be one cache line that every
//! caller writes twice per operation. Each owner's home counts its own
//! ρ grants on the directory instead ([`try_grant_local`]), and a ξ
//! request sums the homes' counts after marking the word. The directory
//! word's ρ count stays zero. A page id
//! past the table's range (about 2^20) is still lockable: its word lives
//! in the manager's waiter table instead, under the shard mutex, and is
//! dropped when it returns to zero. Such ids never take the fast path.
//! No page id, whether a real page or a corrupt link, can make the table
//! allocate more than its largest segment (4 MiB).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::mode::{LockId, LockMode};
use crate::seg::SegTable;

/// One ρ holder.
pub(crate) const RHO: u64 = 1;
pub(crate) const RHO_COUNT: u64 = (1 << 32) - 1;
pub(crate) const ALPHA: u64 = 1 << 32;
pub(crate) const XI: u64 = 1 << 33;
/// The resource has waiters: grants go through the waiter table.
pub(crate) const QUEUED: u64 = 1 << 34;

/// The word bit (or count unit) one grant of `mode` adds.
#[inline]
pub(crate) const fn bit(mode: LockMode) -> u64 {
    match mode {
        LockMode::Rho => RHO,
        LockMode::Alpha => ALPHA,
        LockMode::Xi => XI,
    }
}

/// Would a `mode` grant conflict with the grants in `word` that are not
/// the requester's own (`own`, in word bits)? Own grants never conflict:
/// Figure 8's inserter holds ρ and α on the directory at once. This is
/// §2.1's compatibility matrix applied to every other holder at once.
#[inline]
pub(crate) fn conflicts(word: u64, own: u64, mode: LockMode) -> bool {
    let other_rho = (word & RHO_COUNT) - (own & RHO_COUNT);
    let other_excl = word & (ALPHA | XI) & !own;
    match mode {
        LockMode::Rho => other_excl & XI != 0,
        LockMode::Alpha => other_excl != 0,
        LockMode::Xi => other_rho != 0 || other_excl != 0,
    }
}

/// The fast path: grant `mode` with one CAS if nobody waits on the
/// resource and no other owner's grant conflicts. `false` sends the
/// request to the waiter table.
#[inline]
pub(crate) fn try_grant(word: &AtomicU64, own: u64, mode: LockMode) -> bool {
    let mut cur = word.load(Ordering::Acquire);
    loop {
        if cur & QUEUED != 0 || conflicts(cur, own, mode) {
            return false;
        }
        match word.compare_exchange_weak(cur, cur + bit(mode), Ordering::Acquire, Ordering::Acquire)
        {
            Ok(_) => return true,
            Err(now) => cur = now,
        }
    }
}

/// The directory's ρ fast path: count the grant in the requester's home
/// (`local`), then check the directory word. `false` means a ξ is granted
/// or pending, or waiters are queued: the caller must take the count back
/// with [`release_local`] and go to the waiter table.
///
/// A ξ request marks the word (`XI` or `QUEUED`) and then reads every
/// home's count, both with read-modify-writes; this side increments and
/// then loads the word. Whichever read-modify-write on `local` comes
/// second reads the first (an RMW reads the latest value), so either the
/// ξ request sees this grant, or the increment synchronizes with the ξ
/// request's and the load below sees its mark.
#[inline]
pub(crate) fn try_grant_local(word: &AtomicU64, local: &AtomicU64, own: u64) -> bool {
    local.fetch_add(RHO, Ordering::AcqRel);
    let cur = word.load(Ordering::Acquire);
    cur & QUEUED == 0 && !conflicts(cur, own, LockMode::Rho)
}

/// Drop one ρ counted in a home (`local`). `true` when a ξ request may
/// have counted it and be waiting (the word shows `QUEUED`, or an `XI`
/// that a ξ request holds while it counts the readers): the caller must
/// wake the directory's waiters. The same read-modify-write argument as
/// [`try_grant_local`] makes the decrement or the mark visible to the
/// other side.
#[inline]
pub(crate) fn release_local(word: &AtomicU64, local: &AtomicU64) -> bool {
    local.fetch_sub(RHO, Ordering::AcqRel);
    word.load(Ordering::Acquire) & (QUEUED | XI) != 0
}

/// Drop one `mode` grant: one `fetch_sub`. Returns the word before the
/// release; its `QUEUED` bit says whether waiters need a wake-up.
#[inline]
pub(crate) fn release(word: &AtomicU64, mode: LockMode) -> u64 {
    word.fetch_sub(bit(mode), Ordering::Release)
}

/// A word alone on its cache line pair.
#[derive(Default)]
#[repr(align(128))]
struct Padded(AtomicU64);

/// Every resource's word.
pub(crate) struct Words {
    directory: Padded,
    pages: SegTable<AtomicU64>,
}

impl Words {
    pub(crate) fn new() -> Self {
        Words {
            directory: Padded::default(),
            pages: SegTable::new(),
        }
    }

    /// The directory's word.
    #[inline]
    pub(crate) fn directory(&self) -> &AtomicU64 {
        &self.directory.0
    }

    /// Is ξ granted on page `page`, as far as the table can tell without
    /// a lock? One `Acquire` load; `true` for a page past the table, whose
    /// word only the waiter table's mutex may read, and `false` for a page
    /// whose segment was never allocated (no grant ever touched it).
    #[inline]
    pub(crate) fn xi_held(&self, page: u64) -> bool {
        match self.pages.peek(page) {
            None => true,
            Some(None) => false,
            Some(Some(w)) => w.load(Ordering::Acquire) & XI != 0,
        }
    }

    /// The word of `id`, or `None` for a page past the table, whose word
    /// the waiter table keeps.
    #[inline]
    pub(crate) fn get(&self, id: LockId) -> Option<&AtomicU64> {
        match id {
            LockId::Directory => Some(&self.directory.0),
            LockId::Page(p) => self.pages.get(p.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::compatible;
    use LockMode::*;

    /// The word test agrees with the matrix for every single holder,
    /// whether that holder is another owner or the requester itself.
    #[test]
    fn conflicts_matches_the_matrix() {
        for held in LockMode::ALL {
            for req in LockMode::ALL {
                assert_eq!(
                    conflicts(bit(held), 0, req),
                    !compatible(req, held),
                    "{req} against another owner's {held}"
                );
                assert!(!conflicts(bit(held), bit(held), req), "own {held} vs {req}");
            }
        }
    }

    #[test]
    fn own_rho_is_discounted_from_the_count() {
        // Two ρ holders, one of them the requester: ξ still conflicts.
        assert!(conflicts(2 * RHO, RHO, Xi));
        assert!(!conflicts(RHO | ALPHA, RHO | ALPHA, Xi));
    }

    #[test]
    fn queued_word_refuses_the_fast_path() {
        let w = AtomicU64::new(QUEUED);
        assert!(!try_grant(&w, 0, Rho));
        let w = AtomicU64::new(RHO);
        assert!(try_grant(&w, 0, Alpha));
        assert!(!try_grant(&w, 0, Xi));
        assert_eq!(release(&w, Alpha), RHO | ALPHA);
        assert_eq!(w.load(Ordering::Acquire), RHO);
    }

    #[test]
    fn a_local_rho_backs_off_a_marked_word() {
        let (w, local) = (AtomicU64::new(0), AtomicU64::new(0));
        assert!(try_grant_local(&w, &local, 0));
        assert!(!release_local(&w, &local), "nobody to wake");
        for mark in [XI, QUEUED, ALPHA | QUEUED] {
            w.store(mark, Ordering::Release);
            assert!(!try_grant_local(&w, &local, 0), "{mark:#x} refuses");
            assert!(release_local(&w, &local), "{mark:#x} wakes");
        }
        w.store(ALPHA, Ordering::Release);
        assert!(try_grant_local(&w, &local, 0), "α admits ρ");
        assert!(!release_local(&w, &local));
        w.store(XI, Ordering::Release);
        assert!(try_grant_local(&w, &local, XI), "own ξ admits ρ");
        assert!(release_local(&w, &local));
        assert_eq!(local.load(Ordering::Acquire), 0);
    }
}
