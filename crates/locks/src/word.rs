//! The per-resource lock word, and the page header word that carries it.
//!
//! One `AtomicU64` per resource records its grants: the number of owners
//! holding ρ, one bit for a granted α, one for a granted ξ, and a
//! `QUEUED` bit that is set exactly while the resource has waiters in the
//! manager's waiter table. A grant is counted once per owner and mode
//! (nested acquisitions are counted in the owner's [`crate::owners::Held`]
//! entry), so α and ξ never need more than one bit: another owner's α or
//! ξ excludes a second one.
//!
//! The directory's word sits alone on its cache line. A page's word is
//! the page's **header word** ([`header`]), word 0 of the page's slot in
//! the page store, which the manager reaches through
//! [`crate::HeaderWords`]. Besides the grants it holds the page's
//! version, an "allocated" bit and a "writing" bit, so the optimistic
//! find's version snapshot and ξ probe are one load, and an in-bucket
//! update takes its α or ξ with one CAS from the snapshot it validated
//! ([`upgrade`]).
//!
//! The directory's ρ holders are not counted in its word: every find
//! takes ρ there, so a shared count would be one cache line that every
//! caller writes twice per operation. Each owner's home counts its own
//! ρ grants on the directory instead ([`try_grant_local`]), and a ξ
//! request sums the homes' counts after marking the word. The directory
//! word's ρ count stays zero.

use std::sync::atomic::{fence, AtomicU64, Ordering};

use crate::mode::LockMode;

/// One ρ holder.
pub(crate) const RHO: u64 = 1;
/// The ρ-holder count.
pub const RHO_COUNT: u64 = (1 << 24) - 1;
/// A granted α.
pub const ALPHA: u64 = 1 << 24;
/// A granted ξ.
pub const XI: u64 = 1 << 25;
/// The resource has waiters: grants go through the waiter table.
pub const QUEUED: u64 = 1 << 26;

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
        let next = (cur + bit(mode)) & !header::FRESH;
        match word.compare_exchange_weak(cur, next, Ordering::Acquire, Ordering::Acquire) {
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

/// Take `mode` (α or ξ) on a page with one CAS against `snap`, a header
/// snapshot from [`header::read_begin`], setting the writing bit in the
/// same CAS. Refused if the page changed since the snapshot (version,
/// allocation, a write in progress), if it has waiters, or if another
/// grant conflicts. Grants alone may differ from the snapshot: a ρ that
/// came and went does not make the read stale.
///
/// The `Acquire` fence keeps the snapshot's page loads above the CAS, as
/// [`header::validate`]'s does above its re-load: a load that saw a
/// write's store makes the CAS see that write's `WRITING` or later.
#[inline]
pub(crate) fn upgrade(word: &AtomicU64, snap: u64, mode: LockMode) -> bool {
    fence(Ordering::Acquire);
    #[cfg(feature = "check-inject-update")]
    let snap = injected_snapshot(word, snap);
    let mut cur = snap;
    loop {
        let stale = (cur ^ snap) & header::STATE != 0
            || cur & (header::ALLOCATED | header::WRITING) != header::ALLOCATED;
        if stale || cur & QUEUED != 0 || conflicts(cur, 0, mode) {
            return false;
        }
        let next = (cur + bit(mode) + header::WRITING) & !header::FRESH;
        match word.compare_exchange_weak(cur, next, Ordering::Acquire, Ordering::Acquire) {
            Ok(_) => return true,
            Err(now) => cur = now,
        }
    }
}

/// The injected bug the schedule explorer and race detector must catch:
/// an upgrade that CASes against the page's current header instead of
/// the snapshot its read validated, so it writes on a decision made from
/// a page that changed since. Only exists under `check-inject-update`.
#[cfg(feature = "check-inject-update")]
fn injected_snapshot(word: &AtomicU64, _snap: u64) -> u64 {
    // ceh-lint: allow(relaxed-ordering) — the injected bug under test: the read's snapshot is thrown away
    word.load(Ordering::Relaxed)
}

/// Release an [`upgrade`] with one read-modify-write: drop `mode` and the
/// writing bit and publish the next version. Returns the word before;
/// its `QUEUED` bit says whether waiters need a wake-up.
#[inline]
pub(crate) fn release_upgrade(word: &AtomicU64, mode: LockMode) -> u64 {
    let delta = header::VERSION_ONE
        .wrapping_sub(header::WRITING)
        .wrapping_sub(bit(mode));
    word.fetch_add(delta, Ordering::Release)
}

/// The page header word: the page's lock word plus its seqlock state.
///
/// | bits | field |
/// |---|---|
/// | 0–23 | ρ-holder count |
/// | 24, 25, 26 | `ALPHA`, `XI`, `QUEUED` |
/// | 27 | `ALLOCATED`: the slot holds a page (`allocbucket` .. `deallocbucket`) |
/// | 28 | `WRITING`: a change of the page is in progress |
/// | 29 | `FRESH`: allocated and never locked since |
/// | 30–63 | version, advanced by every change |
///
/// Every change of a page — a write, an in-place edit, an allocation or
/// a deallocation — sets `WRITING` before its stores ([`header::write_begin`])
/// and clears it while advancing the version after them ([`header::write_end`]),
/// so a reader that holds no lock can tell whether its pass overlapped
/// one. Writers are serialized by α or ξ on the page, or write a page no
/// other process can reach yet: one still `FRESH`, which every grant
/// clears, so the race detector can tell such a write from one made
/// without the lock ([`header::guarded`]). `write_begin` also waits out a
/// `WRITING` left by another writer, so a stray unlocked write cannot
/// corrupt the word. The version wraps after 2^34 changes of one page: a
/// read window or an upgrade would have to span exactly that many
/// changes to be fooled.
pub mod header {
    use std::sync::atomic::{fence, AtomicU64, Ordering};

    pub use super::{ALPHA, QUEUED, RHO_COUNT, XI};

    /// The slot holds an allocated page.
    pub const ALLOCATED: u64 = 1 << 27;
    /// A change of the page is in progress.
    pub const WRITING: u64 = 1 << 28;
    /// The page was allocated and no lock on it has been granted since:
    /// no other process has reached it through the locking protocols.
    pub const FRESH: u64 = 1 << 29;
    /// One version step.
    pub const VERSION_ONE: u64 = 1 << 30;
    /// What a validated read compares: the version, `ALLOCATED` and
    /// `WRITING`. Grants come and go without changing the page.
    pub const STATE: u64 = !(VERSION_ONE - 1) | ALLOCATED | WRITING;
    // FRESH is left out: the first grant clears it without changing the page.

    /// Start a validated read: the header if the page is allocated, no
    /// change of it is in progress and no ξ is granted on it; `None`
    /// otherwise. One `Acquire` load, which pairs with [`write_end`].
    #[inline]
    pub fn read_begin(word: &AtomicU64) -> Option<u64> {
        let w = word.load(Ordering::Acquire);
        (w & (ALLOCATED | WRITING | XI) == ALLOCATED).then_some(w)
    }

    /// End a validated read started at `snap`: `true` iff no change of
    /// the page began since. The `Acquire` fence keeps the page loads
    /// above the re-load and pairs with the `Release` fence in
    /// [`write_begin`]: if a load saw a change's store, the re-load sees
    /// that change's `WRITING` or a later version.
    #[inline]
    #[must_use]
    pub fn validate(word: &AtomicU64, snap: u64) -> bool {
        fence(Ordering::Acquire);
        (word.load(Ordering::Acquire) ^ snap) & STATE == 0
    }

    /// Begin a change of the page: set `WRITING` (waiting while another
    /// change holds it) and return the header as it was. The `Release`
    /// fence keeps the change's stores from becoming visible before the
    /// bit.
    #[inline]
    pub fn write_begin(word: &AtomicU64) -> u64 {
        loop {
            let before = word.fetch_or(WRITING, Ordering::Acquire);
            if before & WRITING == 0 {
                fence(Ordering::Release);
                return before;
            }
            wait_quiet(word);
        }
    }

    /// The header once no change of the page is in progress: spin a
    /// little, then yield the thread (the writer may be descheduled).
    #[inline]
    pub fn wait_quiet(word: &AtomicU64) -> u64 {
        let mut spins = 0;
        loop {
            let w = word.load(Ordering::Acquire);
            if w & WRITING == 0 {
                return w;
            }
            spins += 1;
            match spins < 64 {
                true => std::hint::spin_loop(),
                false => std::thread::yield_now(),
            }
        }
    }

    /// End a change begun with [`write_begin`]: clear `WRITING`, advance
    /// the version and apply `allocated` (`Some(true)` allocates: the
    /// page is `ALLOCATED` and `FRESH`; `Some(false)` frees it), in one
    /// `Release` read-modify-write that publishes the change's stores to
    /// any reader whose `Acquire` load sees it.
    #[inline]
    pub fn write_end(word: &AtomicU64, allocated: Option<bool>) {
        let step = VERSION_ONE.wrapping_sub(WRITING);
        let before = match allocated {
            None => word.fetch_add(step, Ordering::Release),
            Some(set) => {
                let flags = if set { ALLOCATED | FRESH } else { 0 };
                let next = |w: u64| Some((w.wrapping_add(step) & !(ALLOCATED | FRESH)) | flags);
                word.fetch_update(Ordering::Release, Ordering::Acquire, next)
                    .expect("the update always applies")
            }
        };
        debug_assert!(before & WRITING != 0, "write_end without write_begin");
    }

    /// May a change that found the header at `before` write the page:
    /// is α or ξ granted on it, or is it still `FRESH` (no process has
    /// locked it since its allocation, so none can be reading it under
    /// the protocols)? The race detector reports every other write.
    #[inline]
    pub fn guarded(before: u64) -> bool {
        before & (ALPHA | XI | FRESH) != 0
    }

    /// Is the page allocated, as of one load?
    #[inline]
    pub fn allocated(word: &AtomicU64) -> bool {
        word.load(Ordering::Acquire) & ALLOCATED != 0
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
