//! The lock manager.
//!
//! A grant lives in two places: the resource's lock word ([`crate::word`])
//! and the owner's home ([`crate::owners`]). An uncontended request
//! touches only those two — a CAS on the word, and the owner's home,
//! which no other thread writes. ρ on the directory, which every
//! operation takes, does not even write the word: it is counted in the
//! owner's home, and a ξ on the directory, granted only under the waiter
//! table's mutex, sums the homes. The sharded waiter table holds just
//! the requests that found the word queued or conflicting, and every ξ
//! on the directory; only they, and a release that finds the word
//! queued, take a shard mutex.
//!
//! A page's word is the page's header word in the page store, reached
//! through [`HeaderWords`]; the manager keeps only the directory's.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::hook::WaitHook;
use crate::mode::{compatible, LockId, LockMode};
use crate::owners::{own_bits, Held, Home, OwnerId, Owners};
use crate::shadow::Speculation;
use crate::stats::{LockStats, LockStatsSnapshot};
use crate::word::{self, QUEUED};

/// Where a [`LockManager`] finds each page's lock word: the page's
/// header word ([`crate::header`]), which the page store keeps as word 0
/// of the page's slot.
pub trait HeaderWords: Send + Sync {
    /// The header word of `page`, or `None` for a page id past the
    /// store. The word must stay at one address while the store lives.
    fn header(&self, page: ceh_types::PageId) -> Option<&AtomicU64>;
}

/// Header words for a manager with no page store behind it: a fixed
/// number of pages, each allocated. For standalone use of the manager
/// (its own tests, litmus programs, micro-benchmarks).
pub struct FixedWords(Box<[AtomicU64]>);

impl FixedWords {
    /// Words for pages `0..pages`.
    pub fn new(pages: usize) -> Arc<Self> {
        Arc::new(FixedWords(
            (0..pages)
                .map(|_| AtomicU64::new(crate::header::ALLOCATED))
                .collect(),
        ))
    }
}

impl HeaderWords for FixedWords {
    fn header(&self, page: ceh_types::PageId) -> Option<&AtomicU64> {
        self.0.get(usize::try_from(page.0).ok()?)
    }
}

/// A word alone on its cache line pair.
#[derive(Default)]
#[repr(align(128))]
struct Padded(AtomicU64);

/// Configuration for a [`LockManager`].
#[derive(Debug, Clone)]
pub struct LockManagerConfig {
    /// Number of waiter-table shards (rounded up to a power of two).
    pub shards: usize,
    /// If set, a waiter that has blocked for this long runs the deadlock
    /// detector and panics with the cycle if it is part of one. Armed by
    /// the stress tests; `None` (default) waits indefinitely.
    pub watchdog: Option<Duration>,
}

impl Default for LockManagerConfig {
    fn default() -> Self {
        LockManagerConfig {
            shards: 16,
            watchdog: None,
        }
    }
}

/// The ticket an immediate grant is checked with: behind every waiter.
const LAST_IN_LINE: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct Waiter {
    owner: OwnerId,
    mode: LockMode,
    ticket: u64,
    is_conversion: bool,
}

/// The requests waiting on one resource.
#[derive(Debug, Default)]
struct Waiters {
    /// Conversion requests: owner already holds some lock on the resource.
    /// Checked against granted locks (and earlier conversions) only —
    /// never queued behind ordinary waiters. See crate docs.
    conversions: Vec<Waiter>,
    /// Ordinary waiters, FIFO by ticket.
    queue: Vec<Waiter>,
}

impl Waiters {
    fn len(&self) -> usize {
        self.conversions.len() + self.queue.len()
    }

    /// Do the waiters let `(owner, mode)` — a conversion or not, holding
    /// ticket `ticket` — past? Grants are the word's business.
    fn admit(&self, owner: OwnerId, mode: LockMode, is_conversion: bool, ticket: u64) -> bool {
        let blocks = |w: &Waiter| w.owner != owner && !compatible(mode, w.mode);
        // FIFO among conversions.
        if self
            .conversions
            .iter()
            .any(|c| c.ticket < ticket && blocks(c))
        {
            return false;
        }
        if is_conversion {
            // Conversions never queue behind ordinary waiters (deadlock
            // avoidance — the waiter may be a ξ blocked by the very lock
            // this owner already holds).
            return true;
        }
        // Ordinary requests also respect all pending conversions and all
        // earlier ordinary waiters: FIFO "subject to the compatibility
        // relationship" (§2.3). Without this, readers would starve a
        // waiting ξ forever.
        !self.conversions.iter().any(blocks)
            && !self.queue.iter().any(|w| w.ticket < ticket && blocks(w))
    }

    fn remove(&mut self, w: &Waiter) {
        let list = if w.is_conversion {
            &mut self.conversions
        } else {
            &mut self.queue
        };
        let pos = list
            .iter()
            .position(|x| x.ticket == w.ticket)
            .expect("waiter not in its queue");
        list.remove(pos);
    }
}

/// One shard's waiter table.
#[derive(Default)]
struct Table {
    waiting: HashMap<LockId, Waiters>,
    next_ticket: u64,
}

struct Shard {
    table: Mutex<Table>,
    cv: Condvar,
}

/// Where a request stands when it attempts a grant under the shard
/// mutex.
#[derive(Clone, Copy, PartialEq)]
enum Stage {
    /// A `try_lock`: never queues.
    Probe,
    /// A blocking request not yet queued: if blocked, it marks the word
    /// `QUEUED` and the caller queues it before releasing the mutex.
    Arriving,
    /// In the waiter table.
    Queued,
}

/// The three-mode lock manager. See the crate docs for semantics.
///
/// ```
/// use ceh_locks::{FixedWords, LockId, LockManager, LockMode};
///
/// let mgr = LockManager::over(FixedWords::new(1));
/// let reader = mgr.new_owner();
/// let inserter = mgr.new_owner();
/// // ρ and α are compatible: a reader shares the directory with an
/// // inserter...
/// mgr.lock(reader, LockId::Directory, LockMode::Rho);
/// mgr.lock(inserter, LockId::Directory, LockMode::Alpha);
/// // ...but a deleter's ξ must wait for both.
/// let deleter = mgr.new_owner();
/// assert!(!mgr.try_lock(deleter, LockId::Directory, LockMode::Xi));
/// mgr.unlock(reader, LockId::Directory, LockMode::Rho);
/// mgr.unlock(inserter, LockId::Directory, LockMode::Alpha);
/// assert!(mgr.try_lock(deleter, LockId::Directory, LockMode::Xi));
/// mgr.unlock(deleter, LockId::Directory, LockMode::Xi);
/// ```
pub struct LockManager {
    directory: Padded,
    pages: Arc<dyn HeaderWords>,
    owners: Arc<Owners>,
    shards: Box<[Shard]>,
    shard_mask: usize,
    watchdog: Option<Duration>,
    stats: LockStats,
    /// Fast-path flag for `wait_hook` (one relaxed load when unset).
    hooked: AtomicBool,
    wait_hook: Mutex<Option<Arc<dyn WaitHook>>>,
}

impl std::fmt::Debug for LockManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LockManager")
            .field("shards", &self.shards.len())
            .field("stats", &self.stats.snapshot())
            .finish()
    }
}

impl LockManager {
    /// A manager with the default configuration over `pages`' header
    /// words (a page store, or [`FixedWords`]) and a private metrics
    /// registry.
    pub fn over(pages: Arc<dyn HeaderWords>) -> Self {
        Self::new(LockManagerConfig::default(), pages)
    }

    /// Create a manager over `pages`' header words with a private
    /// metrics registry.
    pub fn new(cfg: LockManagerConfig, pages: Arc<dyn HeaderWords>) -> Self {
        Self::with_metrics(cfg, pages, &ceh_obs::MetricsHandle::default())
    }

    /// Create a manager over `pages`' header words whose statistics land
    /// in `metrics`' registry (under the `locks.` prefix), correlated
    /// with every other layer wired to the same handle.
    pub fn with_metrics(
        cfg: LockManagerConfig,
        pages: Arc<dyn HeaderWords>,
        metrics: &ceh_obs::MetricsHandle,
    ) -> Self {
        let n = cfg.shards.max(1).next_power_of_two();
        let shards = (0..n)
            .map(|_| Shard {
                table: Mutex::new(Table::default()),
                cv: Condvar::new(),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        LockManager {
            directory: Padded::default(),
            pages,
            owners: Owners::new(),
            shards,
            shard_mask: n - 1,
            watchdog: cfg.watchdog,
            stats: LockStats::with_handle(metrics),
            hooked: AtomicBool::new(false),
            wait_hook: Mutex::new(None),
        }
    }

    /// Install (or clear) a [`WaitHook`]. Used by `ceh-check`'s schedule
    /// explorer to take control of blocking; see [`crate::WaitHook`].
    ///
    /// Must be set while the manager is quiescent (no waiters): threads
    /// already parked on the internal condvar are not migrated to the hook.
    pub fn set_wait_hook(&self, hook: Option<Arc<dyn WaitHook>>) {
        let mut slot = self.wait_hook.lock();
        self.hooked.store(hook.is_some(), Ordering::Release);
        *slot = hook;
    }

    /// The installed hook, if any (fast path: one relaxed load).
    #[inline]
    fn hook(&self) -> Option<Arc<dyn WaitHook>> {
        // A stale `false` just skips the hook for an in-flight operation;
        // install (`set_wait_hook`) happens before any hooked run starts.
        // ceh-lint: allow(relaxed-ordering) — monotonic fast-path flag, ordered by the install handshake above
        if !self.hooked.load(Ordering::Relaxed) {
            return None;
        }
        self.wait_hook.lock().clone()
    }

    /// Are this manager's page words those of `pages` (the same store)?
    pub fn is_over(&self, pages: &dyn HeaderWords) -> bool {
        std::ptr::addr_eq(Arc::as_ptr(&self.pages), pages as *const dyn HeaderWords)
    }

    /// The lock word of `id`. A page id past the store is a protocol
    /// bug (the id came from a corrupt page or a stray message): it
    /// panics, as a read of the page faults.
    #[inline]
    fn word(&self, id: LockId) -> &AtomicU64 {
        match id {
            LockId::Directory => &self.directory.0,
            LockId::Page(p) => self
                .pages
                .header(p)
                .unwrap_or_else(|| panic!("page fault: lock on {p}, past the page store")),
        }
    }

    /// The point inside an optimistic reader's read window on `page`
    /// (it has snapshotted the page's header and will validate it after
    /// its scan): fires [`WaitHook::at_probe`], so a scheduler can let
    /// writers run inside the window. No lock is held or requested.
    pub fn probe(&self, page: ceh_types::PageId) {
        if let Some(h) = self.hook() {
            h.at_probe(LockId::Page(page));
        }
    }

    /// Take `mode` (α or ξ) on `page` for an in-bucket update with one
    /// CAS from `snap`, the header snapshot of a validated read whose
    /// scan is `scan`: granted if the page is unchanged since, has no
    /// waiters and no conflicting grant; the CAS also sets the writing
    /// bit. The grant has no owner and its holder waits on nothing before
    /// [`LockManager::release_upgraded`], so it closes no waits-for cycle.
    /// Fires [`WaitHook::at_upgrade`] first; on success commits `scan`
    /// (the CAS validates it) and counts and reports the grant.
    pub fn upgrade(
        &self,
        page: ceh_types::PageId,
        snap: u64,
        mode: LockMode,
        scan: Speculation,
    ) -> bool {
        debug_assert!(mode != LockMode::Rho, "an upgrade is to α or ξ");
        let id = LockId::Page(page);
        let hook = self.hook();
        if let Some(h) = &hook {
            h.at_upgrade(id, mode);
        }
        if !word::upgrade(self.word(id), snap, mode) {
            scan.abort();
            return false;
        }
        scan.commit();
        self.stats
            .record_grant(mode, false, crate::stats::lock_trace_target(id));
        if let Some(h) = &hook {
            h.at_granted(OwnerId::NONE, id, mode);
        }
        true
    }

    /// Release a grant taken with [`LockManager::upgrade`]: one
    /// read-modify-write clears `mode` and the writing bit and publishes
    /// the page's next version; waiters, if any, are woken.
    pub fn release_upgraded(&self, page: ceh_types::PageId, mode: LockMode) {
        let id = LockId::Page(page);
        if word::release_upgrade(self.word(id), mode) & QUEUED != 0 {
            self.wake(id);
        }
        self.stats.record_release(mode);
        if let Some(h) = self.hook() {
            h.at_release(OwnerId::NONE, id, mode);
        }
    }

    /// Allocate a fresh owner token for one logical operation. Ids are
    /// numbered per thread (see the `owners` module), so issuing one
    /// writes nothing another thread writes.
    pub fn new_owner(&self) -> OwnerId {
        self.owners.new_owner()
    }

    /// Lock statistics so far.
    pub fn stats(&self) -> LockStatsSnapshot {
        self.stats.snapshot()
    }

    /// Reset statistics (between benchmark phases).
    pub fn reset_stats(&self) {
        self.stats.reset()
    }

    fn shard(&self, id: LockId) -> &Shard {
        let i = match id {
            LockId::Directory => 0,
            LockId::Page(p) => (p.0 as usize).wrapping_add(1),
        };
        &self.shards[i & self.shard_mask]
    }

    /// Acquire `mode` on `id` for `owner`, blocking until granted.
    ///
    /// Reentrant: acquiring a (resource, mode) pair the owner already
    /// holds nests. An owner holding *any* lock on the resource makes this
    /// a conversion-style request (queue bypass; see crate docs).
    ///
    /// The fast path is one CAS on the resource's word (for ρ on the
    /// directory, an increment of the owner's home count and a load of
    /// the word), taken when nobody waits on the resource and no other
    /// owner's grant conflicts. Any other request, and every ξ on the
    /// directory, goes to the waiter table.
    pub fn lock(&self, owner: OwnerId, id: LockId, mode: LockMode) {
        let hook = self.hook();
        if let Some(h) = &hook {
            h.at_acquire(owner, id, mode);
        }
        let target = crate::stats::lock_trace_target(id);
        let home = self.owners.home(owner);
        match self.grant_fast(home, owner, id, mode) {
            Some(is_conversion) => {
                self.stats.record_grant(mode, false, target);
                if is_conversion {
                    self.stats.record_conversion(target);
                }
            }
            None => self.lock_slow(home, owner, id, mode, hook.as_ref(), target),
        }
        if let Some(h) = &hook {
            h.at_granted(owner, id, mode);
        }
    }

    /// Grant without the waiter table if the request nests, or if the
    /// word takes it in one CAS (ρ on the directory: the owner's home
    /// count). `Some(is_conversion)` when granted (`false` for a nested
    /// acquisition). A ξ on the directory always goes to the waiter
    /// table.
    #[inline]
    fn grant_fast(&self, home: &Home, owner: OwnerId, id: LockId, mode: LockMode) -> Option<bool> {
        let mut held = home.held.lock();
        // Reentrant same-mode acquisition.
        if let Some(h) = held
            .iter_mut()
            .find(|h| h.owner == owner && h.id == id && h.mode == mode)
        {
            h.count += 1;
            return Some(false);
        }
        let own = own_bits(&held, owner, id);
        let granted = match (id, mode) {
            // Granted only under the waiter table's mutex, where the
            // homes' ρ counts are summed.
            (LockId::Directory, LockMode::Xi) => false,
            (LockId::Directory, LockMode::Rho) => {
                let dir = &self.directory.0;
                if !word::try_grant_local(dir, &home.dir_rho, own & !word::RHO_COUNT) {
                    drop(held);
                    if word::release_local(dir, &home.dir_rho) {
                        self.wake(id);
                    }
                    return None;
                }
                true
            }
            (LockId::Directory, LockMode::Alpha) => {
                word::try_grant(&self.directory.0, own & !word::RHO_COUNT, mode)
            }
            (LockId::Page(_), _) => word::try_grant(self.word(id), own, mode),
        };
        if !granted {
            return None;
        }
        held.push(Held {
            owner,
            id,
            mode,
            count: 1,
        });
        Some(own != 0)
    }

    /// Attempt to grant `req` under `table` (its shard's mutex). A
    /// blocked [`Stage::Arriving`] request sets `QUEUED` in the CAS that
    /// confirms the word it was judged against, so no release can slip
    /// between the judgement and the mark unnoticed. A granted waiter
    /// leaves the table; the last one clears `QUEUED` in the CAS that
    /// takes its grant. While the mutex is held, `QUEUED` is set exactly
    /// when the resource has waiters.
    fn attempt(
        &self,
        table: &mut Table,
        home: &Home,
        id: LockId,
        req: &Waiter,
        stage: Stage,
    ) -> bool {
        let word = self.word(id);
        let mut held = home.held.lock();
        let own = own_bits(&held, req.owner, id);
        let dir = id == LockId::Directory;
        // The directory's word counts no ρ: its holders are in the homes.
        let (own_word, add) = match (dir, req.mode) {
            (true, LockMode::Rho) => (own & !word::RHO_COUNT, 0),
            (true, _) => (own & !word::RHO_COUNT, word::bit(req.mode)),
            (false, _) => (own, word::bit(req.mode)),
        };
        let (admitted, waiting) = table.waiting.get(&id).map_or((true, 0), |ws| {
            (
                ws.admit(req.owner, req.mode, req.is_conversion, req.ticket),
                ws.len(),
            )
        });
        let clear = if stage == Stage::Queued && waiting == 1 {
            QUEUED
        } else {
            0
        };
        let mut cur = word.load(Ordering::Acquire);
        loop {
            let grant = admitted && !word::conflicts(cur, own_word, req.mode);
            let next = if grant {
                (cur + add - clear) & !crate::header::FRESH
            } else if stage == Stage::Arriving && cur & QUEUED == 0 {
                cur | QUEUED
            } else {
                return false;
            };
            match word.compare_exchange(cur, next, Ordering::Acquire, Ordering::Acquire) {
                Ok(_) if grant => break,
                Ok(_) => return false,
                Err(now) => cur = now,
            }
        }
        if dir && req.mode == LockMode::Rho {
            home.dir_rho.fetch_add(word::RHO, Ordering::AcqRel);
        }
        if dir && req.mode == LockMode::Xi {
            // The word now shows this ξ, so a ρ arriving from here on
            // backs off; count the ones already in (see
            // `word::try_grant_local`). If there are any, take the ξ back
            // out, restoring the `QUEUED` mark this request keeps while it
            // waits (or is about to).
            let readers = self.owners.directory_readers() - (own & word::RHO_COUNT);
            if readers != 0 {
                let requeue = if stage == Stage::Probe { 0 } else { QUEUED };
                let back = |c: u64| Some((c - word::XI) | requeue);
                let _ = word.fetch_update(Ordering::AcqRel, Ordering::Acquire, back);
                return false;
            }
        }
        held.push(Held {
            owner: req.owner,
            id,
            mode: req.mode,
            count: 1,
        });
        drop(held);
        if stage == Stage::Queued {
            let ws = table.waiting.get_mut(&id).expect("queued resource");
            ws.remove(req);
            if ws.len() == 0 {
                table.waiting.remove(&id);
            }
        }
        true
    }

    /// Queue `(owner, mode)` on `id` and wait until it is granted.
    fn lock_slow(
        &self,
        home: &Home,
        owner: OwnerId,
        id: LockId,
        mode: LockMode,
        hook: Option<&Arc<dyn WaitHook>>,
        target: u64,
    ) {
        self.stats.record_slow_path();
        let is_conversion = own_bits(&home.held.lock(), owner, id) != 0;
        let mut me = Waiter {
            owner,
            mode,
            ticket: LAST_IN_LINE,
            is_conversion,
        };
        let shard = self.shard(id);
        let mut table = shard.table.lock();
        if self.attempt(&mut table, home, id, &me, Stage::Arriving) {
            self.stats.record_grant(mode, false, target);
            if is_conversion {
                self.stats.record_conversion(target);
            }
            return;
        }
        // Must wait: the word is marked queued, so join the table under
        // the same mutex hold. A ticket drawn under the shard mutex is
        // larger than every ticket already queued on the resource.
        me.ticket = table.next_ticket;
        table.next_ticket += 1;
        let ws = table.waiting.entry(id).or_default();
        if is_conversion {
            ws.conversions.push(me);
        } else {
            ws.queue.push(me);
        }
        let wait_span = self.stats.record_wait_start(mode, target);
        let wait_started = Instant::now();
        loop {
            match hook {
                // Hook-driven waiting: the scheduler decides when to
                // re-check; the condvar is never used (the releaser's
                // notify is harmless).
                Some(h) => {
                    drop(table);
                    h.at_block(owner, id, mode);
                    table = shard.table.lock();
                }
                None => match self.watchdog {
                    None => shard.cv.wait(&mut table),
                    Some(d) => {
                        if shard.cv.wait_for(&mut table, d).timed_out() {
                            drop(table);
                            if let Some(cycle) = self.detect_deadlock() {
                                panic!(
                                    "deadlock detected while {owner:?} waits for {mode} on \
                                     {id}: cycle {cycle:?}\n{}",
                                    self.dump()
                                );
                            }
                            table = shard.table.lock();
                        }
                    }
                },
            }
            if self.attempt(&mut table, home, id, &me, Stage::Queued) {
                break;
            }
        }
        drop(table);
        self.stats
            .record_wait_end(wait_span, mode, target, wait_started.elapsed());
        if is_conversion {
            self.stats.record_conversion(target);
        }
    }

    /// Try to acquire without blocking. Returns whether the lock was
    /// granted. Respects the same fairness rules as [`LockManager::lock`]
    /// (it will not jump ahead of earlier waiters).
    pub fn try_lock(&self, owner: OwnerId, id: LockId, mode: LockMode) -> bool {
        let hook = self.hook();
        if let Some(h) = &hook {
            h.at_acquire(owner, id, mode);
        }
        let home = self.owners.home(owner);
        let granted = self.grant_fast(home, owner, id, mode).is_some() || {
            // Only a queued word that the grants alone would admit needs
            // the waiter lists' verdict.
            let own = own_bits(&home.held.lock(), owner, id);
            let worth = match (id, mode) {
                (LockId::Directory, LockMode::Xi) => true,
                (LockId::Directory, _) => {
                    let cur = self.directory.0.load(Ordering::Acquire);
                    cur & QUEUED != 0 && !word::conflicts(cur, own & !word::RHO_COUNT, mode)
                }
                (LockId::Page(_), _) => {
                    let cur = self.word(id).load(Ordering::Acquire);
                    cur & QUEUED != 0 && !word::conflicts(cur, own, mode)
                }
            };
            worth && {
                self.stats.record_slow_path();
                let req = Waiter {
                    owner,
                    mode,
                    ticket: LAST_IN_LINE,
                    is_conversion: own != 0,
                };
                let mut table = self.shard(id).table.lock();
                self.attempt(&mut table, home, id, &req, Stage::Probe)
            }
        };
        if granted {
            self.stats
                .record_grant(mode, false, crate::stats::lock_trace_target(id));
            if let Some(h) = &hook {
                h.at_granted(owner, id, mode);
            }
        }
        granted
    }

    /// Release one acquisition of `mode` on `id` by `owner`.
    ///
    /// Panics if the owner does not hold such a lock — in this codebase
    /// that is always a protocol-transcription bug worth failing loudly on.
    pub fn unlock(&self, owner: OwnerId, id: LockId, mode: LockMode) {
        let home = self.owners.home(owner);
        let mut held = home.held.lock();
        let Some(pos) = held
            .iter()
            .position(|h| h.owner == owner && h.id == id && h.mode == mode)
        else {
            drop(held);
            panic!("{owner:?} unlocking {mode} on {id}: not held");
        };
        held[pos].count -= 1;
        let last = held[pos].count == 0;
        if last {
            held.remove(pos);
        }
        drop(held);
        if last {
            self.release_word(home, id, mode);
        }
        self.stats.record_release(mode);
        if let Some(h) = self.hook() {
            h.at_release(owner, id, mode);
        }
    }

    /// Take the shard mutex and wake every waiter of `id`'s shard.
    /// Taking the mutex orders the wake-up after any waiter that marked
    /// the word has parked on the condvar.
    fn wake(&self, id: LockId) {
        let shard = self.shard(id);
        drop(shard.table.lock());
        shard.cv.notify_all();
    }

    /// Drop one `mode` grant from `id`'s word (from `home`'s count for ρ
    /// on the directory) and wake the resource's waiters if it has any.
    fn release_word(&self, home: &Home, id: LockId, mode: LockMode) {
        let queued = match (id, mode) {
            (LockId::Directory, LockMode::Rho) => {
                word::release_local(&self.directory.0, &home.dir_rho)
            }
            _ => word::release(self.word(id), mode) & QUEUED != 0,
        };
        if queued {
            self.wake(id);
        }
    }

    /// Release *all* locks held by `owner` (error paths, panic recovery
    /// in tests). Each nested acquisition counts as one release and fires
    /// [`WaitHook::at_release`], as the matching `unlock` calls would.
    pub fn release_all(&self, owner: OwnerId) {
        let home = self.owners.home(owner);
        let mut released = Vec::new();
        home.held.lock().retain(|h| {
            let mine = h.owner == owner;
            if mine {
                released.push(*h);
            }
            !mine
        });
        if released.is_empty() {
            return;
        }
        let hook = self.hook();
        for h in released {
            self.release_word(home, h.id, h.mode);
            for _ in 0..h.count {
                self.stats.record_release(h.mode);
                if let Some(hk) = &hook {
                    hk.at_release(owner, h.id, h.mode);
                }
            }
        }
    }

    /// The modes `owner` currently holds on `id` (diagnostic).
    pub fn held(&self, owner: OwnerId, id: LockId) -> Vec<LockMode> {
        self.owners
            .home(owner)
            .held
            .lock()
            .iter()
            .filter(|h| h.owner == owner && h.id == id)
            .map(|h| h.mode)
            .collect()
    }

    /// Total number of locks currently granted (diagnostic; quiescent
    /// tests assert this returns 0).
    pub fn total_granted(&self) -> usize {
        self.owners.homes().map(|h| h.held.lock().len()).sum()
    }

    /// Every grant, by resource. Takes each home's mutex in turn.
    fn holders(&self) -> HashMap<LockId, Vec<Held>> {
        let mut by_id: HashMap<LockId, Vec<Held>> = HashMap::new();
        for home in self.owners.homes() {
            for h in home.held.lock().iter() {
                by_id.entry(h.id).or_default().push(*h);
            }
        }
        by_id
    }

    /// Build the waits-for graph and look for a cycle. Returns the owners
    /// on a cycle, if any.
    ///
    /// A waiter waits-for (a) every other owner holding an incompatible
    /// granted lock on its resource, and (b) under FIFO fairness, every
    /// earlier incompatible waiter on the same resource (conversions wait
    /// only on grants and earlier conversions).
    pub fn detect_deadlock(&self) -> Option<Vec<OwnerId>> {
        // Hold every shard while reading the homes, so the waiters and
        // the grants are one snapshot. Shard mutexes are taken before home
        // mutexes everywhere, and no lock call nests inside either.
        let tables: Vec<_> = self.shards.iter().map(|s| s.table.lock()).collect();
        let holders = self.holders();
        let mut edges: HashMap<OwnerId, Vec<OwnerId>> = HashMap::new();
        for table in &tables {
            for (id, ws) in &table.waiting {
                let granted = holders.get(id).map_or(&[][..], Vec::as_slice);
                let mut consider = |w: &Waiter| {
                    let out = edges.entry(w.owner).or_default();
                    let blocks = |owner: OwnerId, mode: LockMode| {
                        owner != w.owner && !compatible(w.mode, mode)
                    };
                    for g in granted {
                        if blocks(g.owner, g.mode) {
                            out.push(g.owner);
                        }
                    }
                    for c in &ws.conversions {
                        // Ordinary waiters also wait on all conversions.
                        if (c.ticket < w.ticket || !w.is_conversion) && blocks(c.owner, c.mode) {
                            out.push(c.owner);
                        }
                    }
                    if !w.is_conversion {
                        for q in &ws.queue {
                            if q.ticket < w.ticket && blocks(q.owner, q.mode) {
                                out.push(q.owner);
                            }
                        }
                    }
                };
                ws.conversions.iter().for_each(&mut consider);
                ws.queue.iter().for_each(&mut consider);
            }
        }
        drop(tables);
        // DFS cycle detection.
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let mut color: HashMap<OwnerId, Color> = HashMap::new();
        let mut stack_path: Vec<OwnerId> = Vec::new();

        fn dfs(
            v: OwnerId,
            edges: &HashMap<OwnerId, Vec<OwnerId>>,
            color: &mut HashMap<OwnerId, Color>,
            path: &mut Vec<OwnerId>,
        ) -> Option<Vec<OwnerId>> {
            color.insert(v, Color::Gray);
            path.push(v);
            if let Some(next) = edges.get(&v) {
                for &u in next {
                    match color.get(&u).copied().unwrap_or(Color::White) {
                        Color::Gray => {
                            let start = path.iter().position(|&x| x == u).unwrap_or(0);
                            return Some(path[start..].to_vec());
                        }
                        Color::White => {
                            if let Some(c) = dfs(u, edges, color, path) {
                                return Some(c);
                            }
                        }
                        Color::Black => {}
                    }
                }
            }
            path.pop();
            color.insert(v, Color::Black);
            None
        }

        let owners: Vec<OwnerId> = edges.keys().copied().collect();
        for v in owners {
            if color.get(&v).copied().unwrap_or(Color::White) == Color::White {
                if let Some(c) = dfs(v, &edges, &mut color, &mut stack_path) {
                    return Some(c);
                }
            }
        }
        None
    }

    /// Human-readable dump of the grants and waiters (diagnostics on
    /// watchdog panic).
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let tables: Vec<_> = self.shards.iter().map(|s| s.table.lock()).collect();
        let mut holders = self.holders();
        for table in &tables {
            for id in table.waiting.keys() {
                holders.entry(*id).or_default();
            }
        }
        for (id, granted) in &holders {
            let word = self.word(*id).load(Ordering::Acquire);
            let _ = writeln!(out, "{id}: word {word:#x}");
            for g in granted {
                let _ = writeln!(out, "  granted {} to {:?} x{}", g.mode, g.owner, g.count);
            }
            let Some(ws) = tables.iter().find_map(|t| t.waiting.get(id)) else {
                continue;
            };
            for c in &ws.conversions {
                let _ = writeln!(
                    out,
                    "  converting {} for {:?} (t{})",
                    c.mode, c.owner, c.ticket
                );
            }
            for w in &ws.queue {
                let _ = writeln!(
                    out,
                    "  waiting {} for {:?} (t{})",
                    w.mode, w.owner, w.ticket
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceh_types::PageId;
    use std::sync::Arc;
    use std::thread;
    use std::time::Duration;
    use LockMode::*;

    const R: LockId = LockId::Page(PageId(1));

    #[test]
    fn contended_lock_emits_wait_span_with_mode_and_wait_ns() {
        let metrics = ceh_obs::MetricsHandle::new();
        metrics.tracer().enable(256);
        let m = Arc::new(LockManager::with_metrics(
            LockManagerConfig::default(),
            FixedWords::new(16),
            &metrics,
        ));
        let a = m.new_owner();
        m.lock(a, R, Xi);
        let m2 = Arc::clone(&m);
        let waiter = thread::spawn(move || {
            let b = m2.new_owner();
            m2.lock(b, R, Rho); // blocks until a releases ξ
            m2.unlock(b, R, Rho);
        });
        thread::sleep(Duration::from_millis(20));
        m.unlock(a, R, Xi);
        waiter.join().unwrap();
        let ev = metrics.tracer().drain();
        let begin = ev
            .iter()
            .find(|e| {
                e.layer == "locks" && e.event == "wait.rho" && e.kind == ceh_obs::EventKind::Begin
            })
            .expect("wait begin recorded");
        let end = ev
            .iter()
            .find(|e| {
                e.layer == "locks" && e.event == "wait.rho" && e.kind == ceh_obs::EventKind::End
            })
            .expect("wait end recorded");
        assert_eq!(begin.span, end.span, "begin/end pair up");
        assert_eq!(end.a, 1, "target is the encoded page id");
        assert!(end.b > 0, "end carries the wait in nanoseconds");
        assert!(
            ev.iter()
                .any(|e| e.layer == "locks" && e.event == "acquire.xi"),
            "uncontended grants stamp acquire instants when traced"
        );
    }

    #[test]
    fn reentrant_same_mode() {
        let m = LockManager::over(FixedWords::new(16));
        let o = m.new_owner();
        m.lock(o, R, Rho);
        m.lock(o, R, Rho);
        assert_eq!(m.held(o, R), vec![Rho]);
        m.unlock(o, R, Rho);
        assert_eq!(m.held(o, R), vec![Rho]);
        m.unlock(o, R, Rho);
        assert!(m.held(o, R).is_empty());
        assert_eq!(m.total_granted(), 0);
    }

    #[test]
    fn compatible_modes_coexist() {
        let m = LockManager::over(FixedWords::new(16));
        let (a, b) = (m.new_owner(), m.new_owner());
        m.lock(a, R, Rho);
        m.lock(b, R, Alpha); // α compatible with ρ
        assert!(m.try_lock(m.new_owner(), R, Rho)); // another ρ fine
        assert!(!m.try_lock(m.new_owner(), R, Alpha)); // second α refused
        assert!(!m.try_lock(m.new_owner(), R, Xi)); // ξ refused
    }

    #[test]
    fn xi_excludes_everything() {
        let m = LockManager::over(FixedWords::new(16));
        let o = m.new_owner();
        m.lock(o, R, Xi);
        for mode in LockMode::ALL {
            assert!(
                !m.try_lock(m.new_owner(), R, mode),
                "{mode} must be refused under ξ"
            );
        }
        m.unlock(o, R, Xi);
        assert!(m.try_lock(m.new_owner(), R, Xi));
    }

    #[test]
    fn blocking_waiter_wakes_on_release() {
        let m = Arc::new(LockManager::over(FixedWords::new(16)));
        let a = m.new_owner();
        m.lock(a, R, Xi);
        let m2 = Arc::clone(&m);
        let t = thread::spawn(move || {
            let b = m2.new_owner();
            m2.lock(b, R, Rho);
            m2.unlock(b, R, Rho);
        });
        thread::sleep(Duration::from_millis(20));
        m.unlock(a, R, Xi);
        t.join().unwrap();
        assert_eq!(m.total_granted(), 0);
    }

    #[test]
    fn fifo_readers_do_not_starve_xi() {
        // a holds ρ; x queues for ξ; then c requests ρ — c must NOT be
        // granted ahead of x (it queues), so after a releases, x gets the
        // resource first.
        let m = Arc::new(LockManager::over(FixedWords::new(16)));
        let a = m.new_owner();
        m.lock(a, R, Rho);

        let m_x = Arc::clone(&m);
        let x_thread = thread::spawn(move || {
            let x = m_x.new_owner();
            m_x.lock(x, R, Xi);
            // Hold briefly so the late reader demonstrably waited.
            thread::sleep(Duration::from_millis(30));
            m_x.unlock(x, R, Xi);
        });
        thread::sleep(Duration::from_millis(20)); // let x start waiting
        assert!(
            !m.try_lock(m.new_owner(), R, Rho),
            "ρ must queue behind waiting ξ"
        );

        let m_c = Arc::clone(&m);
        let started = std::time::Instant::now();
        let c_thread = thread::spawn(move || {
            let c = m_c.new_owner();
            m_c.lock(c, R, Rho);
            m_c.unlock(c, R, Rho);
        });
        thread::sleep(Duration::from_millis(10));
        m.unlock(a, R, Rho); // x should be granted now, then c
        x_thread.join().unwrap();
        c_thread.join().unwrap();
        assert!(
            started.elapsed() >= Duration::from_millis(25),
            "late ρ should have waited for the ξ ahead of it"
        );
        assert_eq!(m.total_granted(), 0);
    }

    #[test]
    fn conversion_bypasses_waiting_queue() {
        // The §2.5 scenario: owner holds ρ on the directory; a ξ is
        // waiting (it can't be granted because of the ρ); owner requests α
        // — if the α queued behind the ξ this would deadlock. It must be
        // granted immediately.
        let m = Arc::new(LockManager::over(FixedWords::new(16)));
        let o = m.new_owner();
        m.lock(o, R, Rho);

        let m2 = Arc::clone(&m);
        let xi_thread = thread::spawn(move || {
            let d = m2.new_owner();
            m2.lock(d, R, Xi);
            m2.unlock(d, R, Xi);
        });
        thread::sleep(Duration::from_millis(20)); // ξ is now waiting

        // Conversion must not block behind the waiting ξ.
        m.lock(o, R, Alpha);
        assert_eq!(m.held(o, R).len(), 2);
        m.unlock(o, R, Alpha);
        m.unlock(o, R, Rho);
        xi_thread.join().unwrap();
        assert_eq!(m.total_granted(), 0);
    }

    #[test]
    fn two_conversions_serialize() {
        // Two owners hold ρ, both request α: one gets it, the other waits
        // until the first releases its α. No deadlock.
        let m = Arc::new(LockManager::over(FixedWords::new(16)));
        let a = m.new_owner();
        let b = m.new_owner();
        m.lock(a, R, Rho);
        m.lock(b, R, Rho);
        m.lock(a, R, Alpha);
        let m2 = Arc::clone(&m);
        let t = thread::spawn(move || {
            m2.lock(b, R, Alpha);
            m2.unlock(b, R, Alpha);
            m2.unlock(b, R, Rho);
        });
        thread::sleep(Duration::from_millis(20));
        m.unlock(a, R, Alpha);
        m.unlock(a, R, Rho);
        t.join().unwrap();
        assert_eq!(m.total_granted(), 0);
    }

    #[test]
    fn release_all_drops_everything() {
        let m = LockManager::over(FixedWords::new(16));
        let o = m.new_owner();
        m.lock(o, R, Rho);
        m.lock(o, LockId::Directory, Rho);
        m.lock(o, LockId::Page(PageId(9)), Xi);
        m.release_all(o);
        assert_eq!(m.total_granted(), 0);
    }

    /// Records every release the manager reports to its hook.
    #[derive(Default)]
    struct Releases(parking_lot::Mutex<Vec<(LockId, LockMode)>>);

    impl WaitHook for Releases {
        fn at_release(&self, _owner: OwnerId, id: LockId, mode: LockMode) {
            self.0.lock().push((id, mode));
        }
    }

    #[test]
    fn release_all_counts_and_reports_every_nested_release() {
        let m = LockManager::over(FixedWords::new(16));
        let hook = Arc::new(Releases::default());
        m.set_wait_hook(Some(hook.clone()));
        let o = m.new_owner();
        let bystander = m.new_owner();
        m.lock(bystander, R, Rho);
        m.lock(o, LockId::Directory, Rho);
        m.lock(o, R, Alpha);
        m.lock(o, R, Alpha); // nested: two acquisitions, one grant
        m.release_all(o);
        let mut seen = hook.0.lock().clone();
        seen.sort_by_key(|&(id, mode)| (id != LockId::Directory, mode as u8));
        assert_eq!(
            seen,
            vec![(LockId::Directory, Rho), (R, Alpha), (R, Alpha)],
            "one at_release per nested acquisition"
        );
        let s = m.stats();
        assert_eq!(s.releases, 3);
        assert_eq!(s.total_grants(), 4);
        assert_eq!(m.held(bystander, R), vec![Rho], "other owners keep theirs");
        // The word forgot o's α: another owner's α is grantable again.
        assert!(m.try_lock(m.new_owner(), R, Alpha));
        m.set_wait_hook(None);
    }

    #[test]
    fn slow_path_counts_only_requests_that_reach_the_waiter_table() {
        let metrics = ceh_obs::MetricsHandle::new();
        let m = Arc::new(LockManager::with_metrics(
            LockManagerConfig::default(),
            FixedWords::new(16),
            &metrics,
        ));
        let slow = || metrics.snapshot().counter("locks.slow_path");
        for _ in 0..1000 {
            let o = m.new_owner();
            m.lock(o, LockId::Directory, Rho);
            m.lock(o, R, Rho);
            m.lock(o, LockId::Directory, Alpha); // an uncontended conversion
            m.unlock(o, LockId::Directory, Alpha);
            m.unlock(o, LockId::Directory, Rho);
            m.unlock(o, R, Rho);
        }
        assert_eq!(slow(), 0, "uncontended requests stay on the word");
        let reader = m.new_owner();
        m.lock(reader, R, Rho);
        let m2 = Arc::clone(&m);
        let t = thread::spawn(move || {
            let x = m2.new_owner();
            m2.lock(x, R, Xi); // conflicts with the reader: waits
            m2.unlock(x, R, Xi);
        });
        while m.stats().waits_xi == 0 {
            thread::yield_now();
        }
        m.unlock(reader, R, Rho);
        t.join().unwrap();
        assert_eq!(slow(), 1, "the contended ξ went through the table");
        assert_eq!(m.total_granted(), 0);
    }

    /// ρ on the directory is counted in the holder's home and leaves the
    /// directory word untouched; ξ still sees every holder, on any
    /// thread, and the holder's own ρ does not block its conversion.
    #[test]
    fn directory_rho_is_counted_in_homes_and_still_excludes_xi() {
        let m = Arc::new(LockManager::over(FixedWords::new(16)));
        let dir = LockId::Directory;
        let word = |m: &LockManager| m.directory.0.load(Ordering::Acquire);
        let here = m.new_owner();
        m.lock(here, dir, Rho);
        let there = {
            let m = Arc::clone(&m);
            thread::spawn(move || {
                let o = m.new_owner();
                m.lock(o, dir, Rho);
                o
            })
            .join()
            .unwrap()
        };
        assert_eq!(word(&m), 0, "no ρ in the directory word");
        let x = m.new_owner();
        assert!(!m.try_lock(x, dir, Xi), "two ρ holders exclude ξ");
        assert!(!m.try_lock(here, dir, Xi), "another home's ρ excludes it");
        assert_eq!(word(&m), 0, "a refused ξ leaves no mark");
        m.unlock(there, dir, Rho);
        assert!(m.try_lock(here, dir, Xi), "own ρ does not block");
        assert!(!m.try_lock(x, dir, Rho), "ξ excludes a new ρ");
        m.unlock(here, dir, Xi);
        m.unlock(here, dir, Rho);
        assert!(m.try_lock(x, dir, Xi));
        m.unlock(x, dir, Xi);
        assert_eq!(word(&m), 0);
        assert_eq!(m.owners.directory_readers(), 0);
        assert_eq!(m.total_granted(), 0);
    }

    /// A ξ on the directory that waits for a ρ holder on another thread
    /// is woken by its release, and readers arriving meanwhile queue
    /// behind the ξ rather than overtaking it (§2.3).
    #[test]
    fn directory_xi_waits_for_home_counted_readers() {
        let m = Arc::new(LockManager::over(FixedWords::new(16)));
        let dir = LockId::Directory;
        let reader = m.new_owner();
        m.lock(reader, dir, Rho);
        let order = Arc::new(Mutex::new(Vec::new()));
        let xi = {
            let (m, order) = (Arc::clone(&m), Arc::clone(&order));
            thread::spawn(move || {
                let x = m.new_owner();
                m.lock(x, dir, Xi);
                order.lock().push("xi");
                m.unlock(x, dir, Xi);
            })
        };
        while m.stats().waits_xi == 0 {
            thread::yield_now();
        }
        let late = {
            let (m, order) = (Arc::clone(&m), Arc::clone(&order));
            thread::spawn(move || {
                let r = m.new_owner();
                m.lock(r, dir, Rho);
                order.lock().push("late rho");
                m.unlock(r, dir, Rho);
            })
        };
        while m.stats().waits_rho == 0 {
            thread::yield_now();
        }
        assert!(order.lock().is_empty(), "both wait for the first reader");
        m.unlock(reader, dir, Rho);
        xi.join().unwrap();
        late.join().unwrap();
        assert_eq!(*order.lock(), ["xi", "late rho"]);
        assert_eq!(m.total_granted(), 0);
        assert_eq!(m.owners.directory_readers(), 0);
    }

    /// The optimistic find's ξ probe is part of its header snapshot: ρ,
    /// α and a refused ξ leave the snapshot readable, a granted ξ does
    /// not.
    #[test]
    fn xi_probe_sees_only_a_granted_xi() {
        let pages = FixedWords::new(16);
        let m = LockManager::over(pages.clone());
        let p = PageId(7);
        let readable = |p| crate::header::read_begin(pages.header(p).unwrap()).is_some();
        assert!(readable(p), "a page never locked");
        let (a, b) = (m.new_owner(), m.new_owner());
        m.lock(a, LockId::Page(p), Rho);
        m.lock(b, LockId::Page(p), Alpha);
        assert!(readable(p), "ρ and α leave a reader in");
        assert!(!m.try_lock(m.new_owner(), LockId::Page(p), Xi));
        assert!(readable(p), "a refused ξ is not held");
        m.unlock(a, LockId::Page(p), Rho);
        m.unlock(b, LockId::Page(p), Alpha);
        m.lock(a, LockId::Page(p), Xi);
        assert!(!readable(p));
        assert!(readable(PageId(8)), "a neighbour's ξ is its own");
        m.unlock(a, LockId::Page(p), Xi);
        assert!(readable(p));
        assert_eq!(m.total_granted(), 0);
    }

    #[test]
    #[should_panic(expected = "page fault")]
    fn a_page_past_the_store_faults() {
        let m = LockManager::over(FixedWords::new(4));
        m.lock(m.new_owner(), LockId::Page(PageId(4)), Rho);
    }

    #[test]
    fn detects_abba_deadlock() {
        // Manufactured AB-BA deadlock between two ξ owners (our protocols
        // never do this; the detector exists to prove they don't).
        let m = Arc::new(LockManager::new(
            LockManagerConfig {
                watchdog: None,
                ..Default::default()
            },
            FixedWords::new(16),
        ));
        let ra = LockId::Page(PageId(1));
        let rb = LockId::Page(PageId(2));
        let a = m.new_owner();
        let b = m.new_owner();
        m.lock(a, ra, Xi);
        m.lock(b, rb, Xi);
        let m2 = Arc::clone(&m);
        let _t1 = thread::spawn(move || m2.lock(a, rb, Xi));
        let m3 = Arc::clone(&m);
        let _t2 = thread::spawn(move || m3.lock(b, ra, Xi));
        thread::sleep(Duration::from_millis(50));
        let cycle = m.detect_deadlock().expect("AB-BA cycle must be found");
        assert_eq!(cycle.len(), 2);
        // Break the deadlock so the detached threads can finish; the test
        // process exits regardless.
        m.release_all(a);
        m.release_all(b);
    }

    #[test]
    fn no_false_positive_deadlock() {
        let m = Arc::new(LockManager::over(FixedWords::new(16)));
        let a = m.new_owner();
        m.lock(a, R, Xi);
        let m2 = Arc::clone(&m);
        let t = thread::spawn(move || {
            let b = m2.new_owner();
            m2.lock(b, R, Xi);
            m2.unlock(b, R, Xi);
        });
        thread::sleep(Duration::from_millis(20));
        assert!(
            m.detect_deadlock().is_none(),
            "simple waiting is not deadlock"
        );
        m.unlock(a, R, Xi);
        t.join().unwrap();
    }

    #[test]
    fn stats_count_grants_and_waits() {
        let m = Arc::new(LockManager::over(FixedWords::new(16)));
        let a = m.new_owner();
        m.lock(a, R, Xi);
        let m2 = Arc::clone(&m);
        let t = thread::spawn(move || {
            let b = m2.new_owner();
            m2.lock(b, R, Rho);
            m2.unlock(b, R, Rho);
        });
        thread::sleep(Duration::from_millis(20));
        m.unlock(a, R, Xi);
        t.join().unwrap();
        let s = m.stats();
        assert_eq!(s.grants_xi, 1);
        assert_eq!(s.grants_rho, 1);
        assert_eq!(s.waits_rho, 1);
        assert!(s.wait_ns_rho > 0);
    }

    #[test]
    #[should_panic(expected = "not held")]
    fn unlock_unheld_panics() {
        let m = LockManager::over(FixedWords::new(16));
        let o = m.new_owner();
        m.lock(o, R, Rho);
        m.unlock(o, R, Xi);
    }

    #[test]
    fn watchdog_panics_on_manufactured_deadlock() {
        let m = Arc::new(LockManager::new(
            LockManagerConfig {
                watchdog: Some(Duration::from_millis(50)),
                ..Default::default()
            },
            FixedWords::new(16),
        ));
        let ra = LockId::Page(PageId(1));
        let rb = LockId::Page(PageId(2));
        let a = m.new_owner();
        let b = m.new_owner();
        m.lock(a, ra, Xi);
        m.lock(b, rb, Xi);
        let m2 = Arc::clone(&m);
        let t1 = thread::spawn(move || m2.lock(a, rb, Xi));
        let m3 = Arc::clone(&m);
        let t2 = thread::spawn(move || m3.lock(b, ra, Xi));
        let r1 = t1.join();
        let r2 = t2.join();
        assert!(
            r1.is_err() || r2.is_err(),
            "at least one waiter must panic via the watchdog"
        );
        // Clean up whatever survived.
        m.release_all(a);
        m.release_all(b);
    }
}
