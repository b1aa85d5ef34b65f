//! The lock manager.

use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::hook::WaitHook;
use crate::mode::{compatible, LockId, LockMode};
use crate::stats::{LockStats, LockStatsSnapshot};

/// Identifies a lock-holding process (one logical operation).
///
/// The paper's "processes" map to operations here, not OS threads: each
/// `find`/`insert`/`delete` call takes a fresh owner from
/// [`LockManager::new_owner`], so a thread running operations back to back
/// never accidentally inherits locks across operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OwnerId(pub u64);

/// Configuration for a [`LockManager`].
#[derive(Debug, Clone)]
pub struct LockManagerConfig {
    /// Number of lock-table shards (rounded up to a power of two).
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

#[derive(Debug)]
struct Grant {
    owner: OwnerId,
    mode: LockMode,
    count: u32,
}

/// The ticket an immediate grant is checked with: behind every waiter.
const LAST_IN_LINE: u64 = u64::MAX;

#[derive(Debug, Clone, Copy)]
struct Waiter {
    owner: OwnerId,
    mode: LockMode,
    ticket: u64,
}

#[derive(Debug, Default)]
struct ResourceState {
    granted: Vec<Grant>,
    /// Conversion requests: owner already holds some lock on the resource.
    /// Checked against granted locks (and earlier conversions) only —
    /// never queued behind ordinary waiters. See crate docs.
    conversions: Vec<Waiter>,
    /// Ordinary waiters, FIFO by ticket.
    queue: Vec<Waiter>,
}

impl ResourceState {
    fn is_empty(&self) -> bool {
        self.granted.is_empty() && self.conversions.is_empty() && self.queue.is_empty()
    }

    fn holds(&self, owner: OwnerId) -> bool {
        self.granted.iter().any(|g| g.owner == owner)
    }

    /// May `(owner, mode)` — positioned either in the conversion list or
    /// the ordinary queue with ticket `ticket` — be granted now?
    fn grantable(&self, owner: OwnerId, mode: LockMode, is_conversion: bool, ticket: u64) -> bool {
        // Compatible with every lock granted to a different owner. Own
        // grants are ignored: Figure 8's inserter holds ρ and α on the
        // directory simultaneously.
        if self
            .granted
            .iter()
            .any(|g| g.owner != owner && !compatible(mode, g.mode))
        {
            return false;
        }
        // FIFO among conversions.
        if self
            .conversions
            .iter()
            .any(|c| c.ticket < ticket && c.owner != owner && !compatible(mode, c.mode))
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
        if self
            .conversions
            .iter()
            .any(|c| c.owner != owner && !compatible(mode, c.mode))
        {
            return false;
        }
        !self
            .queue
            .iter()
            .any(|w| w.ticket < ticket && w.owner != owner && !compatible(mode, w.mode))
    }
}

/// A multiply-mix hasher for [`LockId`]s (FxHash's step). A lock id is a
/// discriminant plus at most one page number, chosen by the protocols
/// rather than by an adversary, so SipHash's flood resistance buys
/// nothing here and one multiply per word is mixing enough.
#[derive(Default)]
struct LockIdHasher(u64);

impl Hasher for LockIdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn write_isize(&mut self, n: isize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type LockIdHash = BuildHasherDefault<LockIdHasher>;

/// Emptied resource states a shard keeps for reuse, so an uncontended
/// lock/unlock pair neither allocates a fresh state (nor the `granted`
/// vector inside it) nor frees one.
const SPARE_STATES: usize = 8;

/// One shard's lock table.
#[derive(Default)]
struct Table {
    resources: HashMap<LockId, ResourceState, LockIdHash>,
    spare: Vec<ResourceState>,
}

impl Table {
    /// The state of `id`, created (from a spare if one is left) when the
    /// resource has no grants or waiters yet.
    fn entry(&mut self, id: LockId) -> &mut ResourceState {
        let spare = &mut self.spare;
        self.resources
            .entry(id)
            .or_insert_with(|| spare.pop().unwrap_or_default())
    }

    /// Drop `id`'s state, which has no grants and no waiters left,
    /// keeping it (its vectors' capacity included) as a spare.
    fn retire(&mut self, id: LockId) {
        let rs = self.resources.remove(&id).expect("retiring a live state");
        debug_assert!(rs.is_empty(), "retiring {id} with grants or waiters");
        if self.spare.len() < SPARE_STATES {
            self.spare.push(rs);
        }
    }
}

struct Shard {
    state: Mutex<Table>,
    cv: Condvar,
}

/// The three-mode lock manager. See the crate docs for semantics.
///
/// ```
/// use ceh_locks::{LockId, LockManager, LockMode};
///
/// let mgr = LockManager::default();
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
    shards: Box<[Shard]>,
    shard_mask: usize,
    next_owner: AtomicU64,
    next_ticket: AtomicU64,
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

impl Default for LockManager {
    fn default() -> Self {
        Self::new(LockManagerConfig::default())
    }
}

impl LockManager {
    /// Create a manager with a private metrics registry.
    pub fn new(cfg: LockManagerConfig) -> Self {
        Self::with_metrics(cfg, &ceh_obs::MetricsHandle::default())
    }

    /// Create a manager whose statistics land in `metrics`' registry
    /// (under the `locks.` prefix), correlated with every other layer
    /// wired to the same handle.
    pub fn with_metrics(cfg: LockManagerConfig, metrics: &ceh_obs::MetricsHandle) -> Self {
        let n = cfg.shards.max(1).next_power_of_two();
        let shards = (0..n)
            .map(|_| Shard {
                state: Mutex::new(Table {
                    resources: HashMap::default(),
                    spare: Vec::with_capacity(SPARE_STATES),
                }),
                cv: Condvar::new(),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        LockManager {
            shards,
            shard_mask: n - 1,
            next_owner: AtomicU64::new(1),
            next_ticket: AtomicU64::new(1),
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

    /// Allocate a fresh owner token for one logical operation.
    pub fn new_owner(&self) -> OwnerId {
        OwnerId(self.next_owner.fetch_add(1, Ordering::Relaxed))
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
        // The high half of the mix picks the shard; the table inside
        // indexes by the low bits of the same hash.
        let h = LockIdHash::default().hash_one(id);
        &self.shards[((h >> 32) as usize) & self.shard_mask]
    }

    /// Acquire `mode` on `id` for `owner`, blocking until granted.
    ///
    /// Reentrant: acquiring a (resource, mode) pair the owner already
    /// holds nests. An owner holding *any* lock on the resource makes this
    /// a conversion-style request (queue bypass; see crate docs).
    ///
    /// A request draws a FIFO ticket only when it has to wait. An
    /// immediate grant is checked as if it were last in line: every
    /// waiter already on the resource drew its ticket earlier, while
    /// holding this shard's mutex, so "behind all of them" is exactly
    /// where a fresh ticket would have put it. A ticket drawn now, under
    /// the same mutex, is again larger than all of theirs.
    pub fn lock(&self, owner: OwnerId, id: LockId, mode: LockMode) {
        let hook = self.hook();
        if let Some(h) = &hook {
            h.at_acquire(owner, id, mode);
        }
        let target = crate::stats::lock_trace_target(id);
        let shard = self.shard(id);
        let mut state = shard.state.lock();
        let rs = state.entry(id);

        // Reentrant same-mode acquisition.
        if let Some(g) = rs
            .granted
            .iter_mut()
            .find(|g| g.owner == owner && g.mode == mode)
        {
            g.count += 1;
            self.stats.record_grant(mode, false, target);
            drop(state);
            if let Some(h) = &hook {
                h.at_granted(owner, id, mode);
            }
            return;
        }

        let is_conversion = rs.holds(owner);
        if rs.grantable(owner, mode, is_conversion, LAST_IN_LINE) {
            rs.granted.push(Grant {
                owner,
                mode,
                count: 1,
            });
            self.stats.record_grant(mode, false, target);
            if is_conversion {
                self.stats.record_conversion(target);
            }
            drop(state);
            if let Some(h) = &hook {
                h.at_granted(owner, id, mode);
            }
            return;
        }

        // Must wait.
        let ticket = self.next_ticket.fetch_add(1, Ordering::Relaxed);
        let waiter = Waiter {
            owner,
            mode,
            ticket,
        };
        if is_conversion {
            rs.conversions.push(waiter);
        } else {
            rs.queue.push(waiter);
        }
        let wait_span = self.stats.record_wait_start(mode, target);
        let wait_started = Instant::now();
        // Hook-driven waiting: the scheduler decides when to re-check, the
        // condvar is never used (the releaser's notify is harmless).
        if let Some(h) = hook {
            loop {
                drop(state);
                h.at_block(owner, id, mode);
                state = shard.state.lock();
                let rs = state
                    .resources
                    .get_mut(&id)
                    .expect("resource with waiter vanished");
                if rs.grantable(owner, mode, is_conversion, ticket) {
                    Self::promote(rs, owner, mode, is_conversion, ticket);
                    self.stats
                        .record_wait_end(wait_span, mode, target, wait_started.elapsed());
                    if is_conversion {
                        self.stats.record_conversion(target);
                    }
                    drop(state);
                    h.at_granted(owner, id, mode);
                    return;
                }
            }
        }
        loop {
            match self.watchdog {
                Some(d) => {
                    let timed_out = shard.cv.wait_for(&mut state, d).timed_out();
                    if timed_out {
                        // Re-check before running the detector: we may have
                        // become grantable while timing out.
                        let rs = state
                            .resources
                            .get_mut(&id)
                            .expect("resource with waiter vanished");
                        if rs.grantable(owner, mode, is_conversion, ticket) {
                            Self::promote(rs, owner, mode, is_conversion, ticket);
                            self.stats.record_wait_end(
                                wait_span,
                                mode,
                                target,
                                wait_started.elapsed(),
                            );
                            drop(state);
                            if let Some(h) = self.hook() {
                                h.at_granted(owner, id, mode);
                            }
                            return;
                        }
                        drop(state);
                        if let Some(cycle) = self.detect_deadlock() {
                            panic!(
                                "deadlock detected while {owner:?} waits for {mode} on {id}: \
                                 cycle {cycle:?}\n{}",
                                self.dump()
                            );
                        }
                        state = shard.state.lock();
                        continue;
                    }
                }
                None => shard.cv.wait(&mut state),
            }
            let rs = state
                .resources
                .get_mut(&id)
                .expect("resource with waiter vanished");
            if rs.grantable(owner, mode, is_conversion, ticket) {
                Self::promote(rs, owner, mode, is_conversion, ticket);
                self.stats
                    .record_wait_end(wait_span, mode, target, wait_started.elapsed());
                if is_conversion {
                    self.stats.record_conversion(target);
                }
                drop(state);
                if let Some(h) = self.hook() {
                    h.at_granted(owner, id, mode);
                }
                return;
            }
        }
    }

    fn promote(
        rs: &mut ResourceState,
        owner: OwnerId,
        mode: LockMode,
        is_conversion: bool,
        ticket: u64,
    ) {
        let list = if is_conversion {
            &mut rs.conversions
        } else {
            &mut rs.queue
        };
        let pos = list
            .iter()
            .position(|w| w.ticket == ticket)
            .expect("waiter not in its queue");
        list.remove(pos);
        rs.granted.push(Grant {
            owner,
            mode,
            count: 1,
        });
    }

    /// Try to acquire without blocking. Returns whether the lock was
    /// granted. Respects the same fairness rules as [`LockManager::lock`]
    /// (it will not jump ahead of earlier waiters).
    pub fn try_lock(&self, owner: OwnerId, id: LockId, mode: LockMode) -> bool {
        let hook = self.hook();
        if let Some(h) = &hook {
            h.at_acquire(owner, id, mode);
        }
        let target = crate::stats::lock_trace_target(id);
        let shard = self.shard(id);
        let mut state = shard.state.lock();
        let rs = state.entry(id);
        if let Some(g) = rs
            .granted
            .iter_mut()
            .find(|g| g.owner == owner && g.mode == mode)
        {
            g.count += 1;
            self.stats.record_grant(mode, false, target);
            drop(state);
            if let Some(h) = &hook {
                h.at_granted(owner, id, mode);
            }
            return true;
        }
        // Never enqueues, so never needs a ticket (see `lock`).
        let is_conversion = rs.holds(owner);
        if rs.grantable(owner, mode, is_conversion, LAST_IN_LINE) {
            rs.granted.push(Grant {
                owner,
                mode,
                count: 1,
            });
            self.stats.record_grant(mode, false, target);
            drop(state);
            if let Some(h) = &hook {
                h.at_granted(owner, id, mode);
            }
            true
        } else {
            if rs.is_empty() {
                state.retire(id);
            }
            false
        }
    }

    /// Release one acquisition of `mode` on `id` by `owner`.
    ///
    /// Panics if the owner does not hold such a lock — in this codebase
    /// that is always a protocol-transcription bug worth failing loudly on.
    pub fn unlock(&self, owner: OwnerId, id: LockId, mode: LockMode) {
        let shard = self.shard(id);
        let mut state = shard.state.lock();
        let rs = state
            .resources
            .get_mut(&id)
            .unwrap_or_else(|| panic!("{owner:?} unlocking {mode} on {id}: resource not locked"));
        let pos = rs
            .granted
            .iter()
            .position(|g| g.owner == owner && g.mode == mode)
            .unwrap_or_else(|| panic!("{owner:?} unlocking {mode} on {id}: not held"));
        rs.granted[pos].count -= 1;
        if rs.granted[pos].count == 0 {
            rs.granted.remove(pos);
        }
        self.stats.record_release(mode);
        let has_waiters = !rs.conversions.is_empty() || !rs.queue.is_empty();
        if rs.is_empty() {
            state.retire(id);
        }
        drop(state);
        if has_waiters {
            shard.cv.notify_all();
        }
        if let Some(h) = self.hook() {
            h.at_release(owner, id, mode);
        }
    }

    /// Release *all* locks held by `owner` (panic-recovery in tests and
    /// guard teardown).
    pub fn release_all(&self, owner: OwnerId) {
        for shard in self.shards.iter() {
            let mut state = shard.state.lock();
            let mut touched = false;
            state.resources.retain(|_, rs| {
                let before = rs.granted.len();
                rs.granted.retain(|g| g.owner != owner);
                touched |= rs.granted.len() != before;
                !rs.is_empty()
            });
            drop(state);
            if touched {
                shard.cv.notify_all();
            }
        }
    }

    /// The modes `owner` currently holds on `id` (diagnostic).
    pub fn held(&self, owner: OwnerId, id: LockId) -> Vec<LockMode> {
        let shard = self.shard(id);
        let state = shard.state.lock();
        state
            .resources
            .get(&id)
            .map(|rs| {
                rs.granted
                    .iter()
                    .filter(|g| g.owner == owner)
                    .map(|g| g.mode)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Total number of locks currently granted (diagnostic; quiescent
    /// tests assert this returns 0).
    pub fn total_granted(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.state
                    .lock()
                    .resources
                    .values()
                    .map(|rs| rs.granted.len())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Build the waits-for graph and look for a cycle. Returns the owners
    /// on a cycle, if any.
    ///
    /// A waiter waits-for (a) every other owner holding an incompatible
    /// granted lock on its resource, and (b) under FIFO fairness, every
    /// earlier incompatible waiter on the same resource (conversions wait
    /// only on grants and earlier conversions).
    pub fn detect_deadlock(&self) -> Option<Vec<OwnerId>> {
        // Snapshot all shards. Shard mutexes are leaves (no lock calls
        // nest inside them), so taking them in order cannot deadlock with
        // anything.
        let mut edges: HashMap<OwnerId, Vec<OwnerId>> = HashMap::new();
        for shard in self.shards.iter() {
            let state = shard.state.lock();
            for rs in state.resources.values() {
                let mut consider = |w: &Waiter, include_queue_fifo: bool| {
                    let out = edges.entry(w.owner).or_default();
                    for g in &rs.granted {
                        if g.owner != w.owner && !compatible(w.mode, g.mode) {
                            out.push(g.owner);
                        }
                    }
                    for c in &rs.conversions {
                        if c.ticket < w.ticket && c.owner != w.owner && !compatible(w.mode, c.mode)
                        {
                            out.push(c.owner);
                        }
                    }
                    if include_queue_fifo {
                        for q in &rs.queue {
                            if q.ticket < w.ticket
                                && q.owner != w.owner
                                && !compatible(w.mode, q.mode)
                            {
                                out.push(q.owner);
                            }
                        }
                        // Ordinary waiters also wait on all conversions.
                        for c in &rs.conversions {
                            if c.owner != w.owner && !compatible(w.mode, c.mode) {
                                out.push(c.owner);
                            }
                        }
                    }
                };
                for c in &rs.conversions {
                    consider(c, false);
                }
                for w in &rs.queue {
                    consider(w, true);
                }
            }
        }
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

    /// Human-readable dump of the lock table (diagnostics on watchdog
    /// panic).
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for shard in self.shards.iter() {
            let state = shard.state.lock();
            for (id, rs) in state.resources.iter() {
                let _ = writeln!(out, "{id}:");
                for g in &rs.granted {
                    let _ = writeln!(out, "  granted {} to {:?} x{}", g.mode, g.owner, g.count);
                }
                for c in &rs.conversions {
                    let _ = writeln!(
                        out,
                        "  converting {} for {:?} (t{})",
                        c.mode, c.owner, c.ticket
                    );
                }
                for w in &rs.queue {
                    let _ = writeln!(
                        out,
                        "  waiting {} for {:?} (t{})",
                        w.mode, w.owner, w.ticket
                    );
                }
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
        let m = LockManager::default();
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
        let m = LockManager::default();
        let (a, b) = (m.new_owner(), m.new_owner());
        m.lock(a, R, Rho);
        m.lock(b, R, Alpha); // α compatible with ρ
        assert!(m.try_lock(m.new_owner(), R, Rho)); // another ρ fine
        assert!(!m.try_lock(m.new_owner(), R, Alpha)); // second α refused
        assert!(!m.try_lock(m.new_owner(), R, Xi)); // ξ refused
    }

    #[test]
    fn xi_excludes_everything() {
        let m = LockManager::default();
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
        let m = Arc::new(LockManager::default());
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
        let m = Arc::new(LockManager::default());
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
        let m = Arc::new(LockManager::default());
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
        let m = Arc::new(LockManager::default());
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
        let m = LockManager::default();
        let o = m.new_owner();
        m.lock(o, R, Rho);
        m.lock(o, LockId::Directory, Rho);
        m.lock(o, LockId::Page(PageId(9)), Xi);
        m.release_all(o);
        assert_eq!(m.total_granted(), 0);
    }

    #[test]
    fn detects_abba_deadlock() {
        // Manufactured AB-BA deadlock between two ξ owners (our protocols
        // never do this; the detector exists to prove they don't).
        let m = Arc::new(LockManager::new(LockManagerConfig {
            watchdog: None,
            ..Default::default()
        }));
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
        let m = Arc::new(LockManager::default());
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
        let m = Arc::new(LockManager::default());
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
        let m = LockManager::default();
        let o = m.new_owner();
        m.lock(o, R, Rho);
        m.unlock(o, R, Xi);
    }

    #[test]
    fn watchdog_panics_on_manufactured_deadlock() {
        let m = Arc::new(LockManager::new(LockManagerConfig {
            watchdog: Some(Duration::from_millis(50)),
            ..Default::default()
        }));
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
