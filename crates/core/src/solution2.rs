//! **Solution 2** — the optimistic protocol of §2.4, Figures 8–9.
//!
//! "The recognized problem with top-down protocols is the need to hold a
//! lock on the bottleneck of the structure while determining if
//! restructuring will be required. This is avoided in the next protocol.
//! The idea is for updating processes to act like readers during their
//! search for the right bucket."
//!
//! Differences from Solution 1:
//!
//! * updaters take only ρ on the directory while searching and *convert*
//!   to α when the directory will actually change (the queue-bypassing
//!   conversion in `ceh-locks` exists for exactly this step);
//! * updaters can land on the **wrong bucket** — including one that was
//!   *merged away*: merges leave the "1" partner's page as a tombstone
//!   (marked deleted via `commonbits`, `next` pointing at the survivor),
//!   so stale directory entries still lead somewhere useful;
//! * deleters whose target is the "1" partner must release and re-lock in
//!   next-link order, then re-validate everything that could have changed
//!   in the window (the label-A checks of Figure 9, in the pairing step
//!   every file shares, [`ceh_storage::Buckets::pair`]) — partner no
//!   longer linked, bucket refilled, key moved by a split, pair already
//!   merged — and retry the whole operation if validation fails;
//! * tombstone deallocation and directory halving happen in a separate
//!   garbage-collection phase under ξ-locks, after all other locks are
//!   released;
//! * an insert or delete that needs no split or merge first tries
//!   [`Solution2::update_fast`]: the find's validated read of the page
//!   the directory names, then one CAS from that read's snapshot to α
//!   (insert) or ξ (delete) on the page, an edit in place and one
//!   release — no directory lock and no lock-table entry. Everything
//!   else runs Figures 8–9 unchanged (DESIGN.md §3.9, "The write path").

use ceh_locks::{LockId, LockMode, OwnerId};
use ceh_storage::{too_empty, Edit, Paired, Plan, Retire, MERGE_ATTEMPTS};
use ceh_types::bits::partner_bit;
use ceh_types::bucket::{locate, BucketView};
use ceh_types::{
    DeleteOutcome, Error, HashFileConfig, InsertOutcome, Key, ManagerId, PageId, Pseudokey, Result,
    Value,
};

use crate::common::{try_or_release, FileCore};
use crate::traits::ConcurrentHashFile;

/// When tombstones are deallocated and the directory halved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcStrategy {
    /// The paper's placement: each deleter runs its own GC phase at the
    /// end of its merge (Figure 9's final ξ-locked block).
    Inline,
    /// Extension: deleters hand garbage to a dedicated collector thread,
    /// which batches up to `batch` pages under one directory ξ-lock. The
    /// deleter returns sooner; tombstones linger a little longer (still
    /// perfectly usable as recovery paths). The A4 ablation measures the
    /// trade.
    Background {
        /// Pages collected per ξ-locked pass.
        batch: usize,
    },
}

/// Tuning knobs for [`Solution2`].
#[derive(Debug, Clone)]
pub struct Solution2Options {
    /// Upper bound on whole-operation restarts (Figure 9's `delete (z)`
    /// recursion). The paper notes "lockout is possible for all
    /// processes"; a bound turns a pathological livelock into an error
    /// instead of a hang.
    pub max_retries: usize,
    /// Garbage-collection placement.
    pub gc: GcStrategy,
}

impl Default for Solution2Options {
    fn default() -> Self {
        Solution2Options {
            max_retries: 10_000,
            gc: GcStrategy::Inline,
        }
    }
}

/// Messages to the background collector.
enum GcMsg {
    Garbage(PageId),
    /// Collect everything queued so far, then signal.
    Flush(std::sync::mpsc::SyncSender<()>),
    Stop,
}

/// The Solution-2 concurrent extendible hash file.
///
/// ```
/// use std::sync::Arc;
/// use ceh_core::{ConcurrentHashFile, Solution2};
/// use ceh_types::{HashFileConfig, Key, Value};
///
/// let file = Arc::new(Solution2::new(HashFileConfig::default())?);
/// let writers: Vec<_> = (0..4u64)
///     .map(|t| {
///         let file = Arc::clone(&file);
///         std::thread::spawn(move || {
///             for i in 0..100 {
///                 file.insert(Key(t * 100 + i), Value(i)).unwrap();
///             }
///         })
///     })
///     .collect();
/// for w in writers {
///     w.join().unwrap();
/// }
/// assert_eq!(file.len(), 400);
/// assert_eq!(file.find(Key(205))?, Some(Value(5)));
/// ceh_core::invariants::check_concurrent_file(file.core())?;
/// # Ok::<(), ceh_types::Error>(())
/// ```
pub struct Solution2 {
    core: std::sync::Arc<FileCore>,
    opts: Solution2Options,
    /// Present when `gc` is [`GcStrategy::Background`].
    gc_tx: Option<std::sync::mpsc::Sender<GcMsg>>,
    gc_thread: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Solution2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Solution2")
            .field("core", &self.core)
            .finish()
    }
}

impl Drop for Solution2 {
    fn drop(&mut self) {
        if let Some(tx) = self.gc_tx.take() {
            let _ = tx.send(GcMsg::Stop);
        }
        if let Some(h) = self.gc_thread.take() {
            let _ = h.join();
        }
    }
}

impl Solution2 {
    /// Create a file with default options.
    pub fn new(cfg: HashFileConfig) -> Result<Self> {
        Ok(Self::assemble(
            FileCore::new(cfg)?,
            Solution2Options::default(),
        ))
    }

    /// Create a file with explicit options.
    pub fn with_options(cfg: HashFileConfig, opts: Solution2Options) -> Result<Self> {
        Ok(Self::assemble(FileCore::new(cfg)?, opts))
    }

    /// Create a file over a prebuilt core (tests inject substrates).
    pub fn from_core(core: FileCore) -> Self {
        Self::assemble(core, Solution2Options::default())
    }

    /// Create a file over a prebuilt core with explicit options.
    pub fn from_core_with_options(core: FileCore, opts: Solution2Options) -> Self {
        Self::assemble(core, opts)
    }

    fn assemble(core: FileCore, opts: Solution2Options) -> Self {
        let core = std::sync::Arc::new(core);
        let (gc_tx, gc_thread) = match opts.gc {
            GcStrategy::Inline => (None, None),
            GcStrategy::Background { batch } => {
                let (tx, rx) = std::sync::mpsc::channel::<GcMsg>();
                let core2 = std::sync::Arc::clone(&core);
                let handle = std::thread::Builder::new()
                    .name("ceh-gc".into())
                    .spawn(move || Self::collector_loop(&core2, rx, batch.max(1)))
                    .expect("spawn gc collector");
                (Some(tx), Some(handle))
            }
        };
        Solution2 {
            core,
            opts,
            gc_tx,
            gc_thread,
        }
    }

    /// The background collector: drain garbage page ids, reclaiming up to
    /// `batch` per ξ-locked pass (one directory lock amortized over the
    /// whole batch — the point of the strategy).
    fn collector_loop(core: &FileCore, rx: std::sync::mpsc::Receiver<GcMsg>, batch: usize) {
        let mut queue: Vec<PageId> = Vec::new();
        let mut flushes: Vec<std::sync::mpsc::SyncSender<()>> = Vec::new();
        loop {
            // Block for the first message, then opportunistically drain.
            let mut stopping = false;
            match rx.recv() {
                Ok(GcMsg::Garbage(p)) => queue.push(p),
                Ok(GcMsg::Flush(done)) => flushes.push(done),
                Ok(GcMsg::Stop) | Err(_) => stopping = true,
            }
            loop {
                match rx.try_recv() {
                    Ok(GcMsg::Garbage(p)) => queue.push(p),
                    Ok(GcMsg::Flush(done)) => flushes.push(done),
                    Ok(GcMsg::Stop) => {
                        stopping = true;
                        break;
                    }
                    Err(_) => break,
                }
            }
            while queue.len() >= batch || (!queue.is_empty() && (stopping || !flushes.is_empty())) {
                let take = queue.len().min(batch);
                let pass: Vec<PageId> = queue.drain(..take).collect();
                Self::gc_pass(core, &pass);
            }
            for done in flushes.drain(..) {
                let _ = done.send(());
            }
            if stopping {
                // Final drain: everything queued must be reclaimed.
                if !queue.is_empty() {
                    Self::gc_pass(core, &queue);
                }
                return;
            }
        }
    }

    /// One ξ-locked garbage-collection pass over `pages`: the Figure-9
    /// epilogue, run by a deleter for its tombstone or by the background
    /// collector for a batch. If the store refuses a deallocation (a
    /// durable medium that lost power), the pass releases its locks and
    /// stops: the rest of the batch stays allocated as tombstones — still
    /// valid recovery paths — and is counted in `core.gc_unreclaimed`.
    fn gc_pass(core: &FileCore, pages: &[PageId]) {
        let owner = core.locks().new_owner();
        core.xi_lock(owner, LockId::Directory);
        for (i, &page) in pages.iter().enumerate() {
            core.xi_lock(owner, LockId::Page(page));
            if core.dir().halve() {
                core.stats().halvings();
            }
            if core.buckets().dealloc(page).is_err() {
                core.locks().release_all(owner);
                for _ in i..pages.len() {
                    core.stats().gc_unreclaimed();
                }
                return;
            }
            core.un_xi_lock(owner, LockId::Page(page));
        }
        core.un_xi_lock(owner, LockId::Directory);
        core.stats().gc_phases();
    }

    /// Wait until every piece of garbage handed to the background
    /// collector so far has been reclaimed (and any pending directory
    /// halving applied). No-op under [`GcStrategy::Inline`]. Call before
    /// structural checks.
    pub fn flush_gc(&self) {
        if let Some(tx) = &self.gc_tx {
            let (done_tx, done_rx) = std::sync::mpsc::sync_channel(1);
            if tx.send(GcMsg::Flush(done_tx)).is_ok() {
                let _ = done_rx.recv();
            }
        }
    }

    /// The shared core.
    pub fn core(&self) -> &FileCore {
        &self.core
    }

    /// The in-bucket update with no directory lock: read the page the
    /// directory names for `pk` as a find does
    /// ([`ceh_storage::PageStore::update_validated`]) and, if it is a live
    /// bucket that owns `pk` and the directory still names it
    /// ([`FileCore::owner_in_window`]), decide there. A duplicate insert
    /// or a delete of an absent key answers from the read; an insert into
    /// a bucket with room takes α, a delete that leaves no merge
    /// candidate takes ξ, each with one CAS from the read's header
    /// snapshot, then edits the page in place and releases with one
    /// read-modify-write. `Some(changed)`: whether a record was added or
    /// removed. `None` — run Figure 8 or 9 — for a full bucket (a split),
    /// a merge candidate, a wrong bucket or tombstone, a read or CAS that
    /// a change overlapped, a conflicting grant or waiters, and a durable
    /// store.
    ///
    /// Figure 8 and 9 take ρ on the directory only to keep out its ξ
    /// holders, the merge and the garbage phase, and both also take ξ on
    /// every page they change; a CAS against the read's unchanged,
    /// allocated header excludes them as the directory ρ would
    /// (DESIGN.md §3.9).
    fn update_fast(&self, pk: Pseudokey, edit: Edit) -> Option<Result<bool>> {
        let core = &self.core;
        if core.wal().is_some() {
            return None;
        }
        let cfg = core.config();
        let (_depth, page) = core.dir().lookup(pk);
        core.store().update_validated(
            page,
            core.locks(),
            |words| {
                // Probed before the header, as a find does; the edit
                // starts from this slot, since its CAS proves the page
                // unchanged since.
                let at = locate(&words, edit.key());
                let found = at.found();
                let view = BucketView::over(words).ok()?;
                if !core.owner_in_window(&view, pk, page) {
                    return None;
                }
                match edit {
                    /* IS Z ALREADY THERE? */
                    Edit::Add(_) if found => Some(Plan::Answer(Ok(false))),
                    /* CURRENT IS FULL */
                    Edit::Add(_) if view.count() >= cfg.bucket_capacity => None,
                    Edit::Add(_) => Some(Plan::Upgrade(LockMode::Alpha, (edit, at))),
                    Edit::Remove(_) if !found => Some(Plan::Answer(Ok(false))),
                    /* TOO EMPTY: TRY TO MERGE */
                    Edit::Remove(_) if too_empty(cfg, view.count(), view.localdepth()) => None,
                    Edit::Remove(_) => Some(Plan::Upgrade(LockMode::Xi, (edit, at))),
                }
            },
            |words, (edit, at)| edit.apply_located(words, at),
        )
    }

    /// Figure 8, the insertion algorithm.
    fn insert_impl(&self, key: Key, value: Value) -> Result<InsertOutcome> {
        let core = &self.core;
        let _op = core.op_span("insert", key.0);
        let cap = core.config().bucket_capacity;
        let pk = (core.hasher())(key);
        let record = ceh_types::Record { key, value };
        if let Some(added) = self.update_fast(pk, Edit::Add(record)) {
            core.stats().update_fast();
            return Ok(if added? {
                core.len_inc();
                core.stats().inserts();
                InsertOutcome::Inserted
            } else {
                core.stats().inserts_duplicate();
                InsertOutcome::AlreadyPresent
            });
        }
        core.stats().update_fallback();

        for _ in 0..self.opts.max_retries {
            let owner = core.locks().new_owner();
            core.rho_lock(owner, LockId::Directory);
            let (_depth, start) = core.dir().lookup(pk);
            core.alpha_lock(owner, LockId::Page(start));
            let (oldpage, at) = core.walk(owner, LockMode::Alpha, start, pk, key, None)?;

            if at.found.is_some() {
                /* IS Z ALREADY THERE? */
                core.un_rho_lock(owner, LockId::Directory);
                core.un_alpha_lock(owner, LockId::Page(oldpage));
                core.stats().inserts_duplicate();
                return Ok(InsertOutcome::AlreadyPresent);
            }

            if at.count != cap {
                core.un_rho_lock(owner, LockId::Directory);
                try_or_release!(core, owner, core.buckets().edit(oldpage, Edit::Add(record)));
                core.un_alpha_lock(owner, LockId::Page(oldpage));
                core.len_inc();
                core.stats().inserts();
                return Ok(InsertOutcome::Inserted);
            }

            /* CURRENT IS FULL - DIRECTORY WILL BE AFFECTED */
            let split_span = core.trace_begin("split", oldpage.0, 0);
            // ρ → α conversion: checked against granted locks only (the
            // §2.5 deadlock-freedom argument; see ceh-locks docs).
            core.alpha_lock(owner, LockId::Directory);
            if at.localdepth == core.dir().depth() {
                try_or_release!(core, owner, core.dir().double());
                core.stats().doublings();
            }
            let split = try_or_release!(core, owner, core.split(oldpage, key, value));
            let (newpage, localdepth, done) = (split.half2.page, split.localdepth + 1, split.done);
            core.dir().update_one_side(newpage, localdepth, pk);
            core.dir().count_split(localdepth);
            core.stats().splits();
            core.trace_end(split_span, "split", oldpage.0, newpage.0);
            core.un_alpha_lock(owner, LockId::Page(oldpage));
            core.un_alpha_lock(owner, LockId::Directory);
            core.un_rho_lock(owner, LockId::Directory);
            if done {
                core.len_inc();
                core.stats().inserts();
                return Ok(InsertOutcome::Inserted);
            }
            core.stats().insert_retries();
        }
        Err(Error::RetriesExhausted {
            op: "solution2 insert",
        })
    }

    /// Figure 9, the deletion algorithm.
    fn delete_impl(&self, key: Key) -> Result<DeleteOutcome> {
        let core = &self.core;
        let _op = core.op_span("delete", key.0);
        let cfg = core.config();
        let pk = (core.hasher())(key);
        if let Some(removed) = self.update_fast(pk, Edit::Remove(key)) {
            core.stats().update_fast();
            return Ok(if removed? {
                core.len_dec();
                core.stats().deletes();
                DeleteOutcome::Deleted
            } else {
                core.stats().deletes_miss();
                DeleteOutcome::NotFound
            });
        }
        core.stats().update_fallback();

        'retry: for attempt in 0..self.opts.max_retries as u32 {
            // DEVIATION: Figure 9's label-A path re-runs `delete (z)`
            // wholesale, which can repeat forever; after MERGE_ATTEMPTS
            // the deleter gives up on merging and takes the plain removal
            // path, which only ever locks in directory→bucket walk order
            // and is therefore deadlock-safe.
            let allow_merge = attempt < MERGE_ATTEMPTS;
            let owner = core.locks().new_owner();
            core.rho_lock(owner, LockId::Directory);
            let depth_at_lookup = core.dir().depth();
            let selectedbits = pk.low_bits(depth_at_lookup);
            let start = core.dir().index(selectedbits);
            core.xi_lock(owner, LockId::Page(start));
            let (oldpage, at) = core.walk(owner, LockMode::Xi, start, pk, key, None)?;

            if !(allow_merge && too_empty(cfg, at.count, at.localdepth)) {
                return self.remove_without_merge(owner, key, oldpage, at.found.is_some());
            }

            /* IF EVERYTHING STAYS THE SAME - TRY TO MERGE */
            if at.found.is_none() {
                /* Z NOT THERE */
                core.un_xi_lock(owner, LockId::Page(oldpage));
                core.un_rho_lock(owner, LockId::Directory);
                core.stats().deletes_miss();
                return Ok(DeleteOutcome::NotFound);
            }

            let m = partner_bit(at.localdepth);
            let first_of_pair = pk.0 & m != m;
            let partner = if first_of_pair {
                /* Z IN FIRST OF PAIR */
                at.next.page
            } else {
                /* Z IN SECOND OF PAIR */
                core.dir().index(selectedbits & !m)
            };
            let (buckets, locks, here) = (core.buckets(), core.locks(), ManagerId::NONE);
            let paired = buckets.pair(
                locks,
                owner,
                oldpage,
                partner,
                first_of_pair,
                here,
                pk,
                key,
                cfg,
            );
            let (zero, one) = match try_or_release!(core, owner, paired) {
                Paired::Merge { zero, one } => (zero, one),
                Paired::Alone { present } => {
                    return self.remove_without_merge(owner, key, oldpage, present);
                }
                Paired::Stale => {
                    // The stale directory entry led somewhere that is no
                    // longer (or never was) the live "0" partner, or z
                    // moved: restart (Figure 9's `delete (z); return;`).
                    core.un_rho_lock(owner, LockId::Directory);
                    core.stats().delete_retries();
                    continue 'retry;
                }
            };

            /* MERGE */
            let merge_span = core.trace_begin("merge", oldpage.0, 0);
            core.alpha_lock(owner, LockId::Directory); // ρ → α conversion
            let old_ld = zero.1.localdepth;
            core.dir().count_merge(old_ld);
            // Survivor + tombstone are one logged transaction.
            let retire = Retire::Tombstone(here);
            let merged = buckets.merge((zero.0, &zero.1), (one.0, &one.1), retire);
            try_or_release!(core, owner, merged);
            let (merged_page, garbage_page) = (zero.0, one.0);
            core.dir().update_one_side(merged_page, old_ld, pk);
            core.stats().merges();
            core.trace_end(merge_span, "merge", merged_page.0, garbage_page.0);
            core.un_xi_lock(owner, LockId::Page(oldpage));
            core.un_xi_lock(owner, LockId::Page(partner));
            core.un_alpha_lock(owner, LockId::Directory);
            core.un_rho_lock(owner, LockId::Directory);
            core.len_dec();
            core.stats().deletes();

            // Garbage-collection phase: "Deleted buckets and discarded
            // halves of the directory are actually deallocated only after
            // ensuring that no process needs them anymore" — the ξ-locks
            // are that assurance (see module docs for why).
            match (&self.opts.gc, &self.gc_tx) {
                (GcStrategy::Background { .. }, Some(tx)) => {
                    // Extension: hand the tombstone to the collector; it
                    // runs the same ξ-locked phase, batched.
                    let _ = tx.send(GcMsg::Garbage(garbage_page));
                }
                _ => Self::gc_pass(core, &[garbage_page]),
            }
            return Ok(DeleteOutcome::Deleted);
        }
        Err(Error::RetriesExhausted {
            op: "solution2 delete",
        })
    }

    /// The "just remove it" tail shared by the not-too-empty and the
    /// unmergeable paths: `remove(z, current)` in place when `present`.
    /// Holds: ρ(directory), ξ(oldpage). Releases everything.
    fn remove_without_merge(
        &self,
        owner: OwnerId,
        key: Key,
        oldpage: PageId,
        present: bool,
    ) -> Result<DeleteOutcome> {
        let core = &self.core;
        core.un_rho_lock(owner, LockId::Directory);
        let outcome = if present {
            try_or_release!(core, owner, core.buckets().edit(oldpage, Edit::Remove(key)));
            core.len_dec();
            core.stats().deletes();
            DeleteOutcome::Deleted
        } else {
            core.stats().deletes_miss();
            DeleteOutcome::NotFound
        };
        core.un_xi_lock(owner, LockId::Page(oldpage));
        Ok(outcome)
    }
}

impl ConcurrentHashFile for Solution2 {
    fn find(&self, key: Key) -> Result<Option<Value>> {
        // "The procedure for the find operation is the same as before."
        let t = self.core.hist_invoke(ceh_obs::HistKind::Find, key, 0);
        let r = self.core.find_impl(key, false);
        self.core.hist_ret(t, crate::traits::hist_find_result(&r));
        r
    }

    fn insert(&self, key: Key, value: Value) -> Result<InsertOutcome> {
        let t = self
            .core
            .hist_invoke(ceh_obs::HistKind::Insert, key, value.0);
        let r = self.insert_impl(key, value);
        self.core.hist_ret(t, crate::traits::hist_insert_result(&r));
        r
    }

    fn delete(&self, key: Key) -> Result<DeleteOutcome> {
        let t = self.core.hist_invoke(ceh_obs::HistKind::Delete, key, 0);
        let r = self.delete_impl(key);
        self.core.hist_ret(t, crate::traits::hist_delete_result(&r));
        r
    }

    fn len(&self) -> usize {
        self.core.len()
    }

    fn name(&self) -> &'static str {
        "solution2"
    }

    fn set_io_latency_ns(&self, ns: u64) {
        self.core.store().set_io_latency_ns(ns);
    }

    fn metrics(&self) -> ceh_obs::MetricsHandle {
        self.core.metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants::check_concurrent_file;

    fn file() -> Solution2 {
        Solution2::new(HashFileConfig::tiny()).unwrap()
    }

    #[test]
    fn single_thread_crud() {
        let f = file();
        assert_eq!(
            f.insert(Key(1), Value(10)).unwrap(),
            InsertOutcome::Inserted
        );
        assert_eq!(
            f.insert(Key(1), Value(20)).unwrap(),
            InsertOutcome::AlreadyPresent
        );
        assert_eq!(f.find(Key(1)).unwrap(), Some(Value(10)));
        assert_eq!(f.delete(Key(1)).unwrap(), DeleteOutcome::Deleted);
        assert_eq!(f.delete(Key(1)).unwrap(), DeleteOutcome::NotFound);
        assert_eq!(f.core().locks().total_granted(), 0);
    }

    #[test]
    fn grow_and_shrink_preserves_structure() {
        let f = file();
        for k in 0..300u64 {
            f.insert(Key(k), Value(k)).unwrap();
        }
        check_concurrent_file(f.core()).unwrap();
        for k in 0..300u64 {
            assert_eq!(f.find(Key(k)).unwrap(), Some(Value(k)), "key {k}");
        }
        for k in 0..300u64 {
            assert_eq!(f.delete(Key(k)).unwrap(), DeleteOutcome::Deleted, "key {k}");
        }
        assert!(f.is_empty());
        check_concurrent_file(f.core()).unwrap();
        assert_eq!(f.core().locks().total_granted(), 0);
    }

    #[test]
    fn tombstones_are_collected() {
        let f = file();
        for k in 0..100u64 {
            f.insert(Key(k), Value(k)).unwrap();
        }
        let allocated_peak = f.core().store().allocated_pages();
        for k in 0..100u64 {
            f.delete(Key(k)).unwrap();
        }
        // Merges ran, so tombstones were created and must all be gone.
        let s = f.core().stats().snapshot();
        assert!(s.merges > 0);
        assert_eq!(s.gc_phases, s.merges, "every merge runs one GC phase");
        assert!(f.core().store().allocated_pages() < allocated_peak);
        check_concurrent_file(f.core()).unwrap();
    }

    #[test]
    fn interleaved_insert_delete_storms() {
        let f = file();
        for round in 0..5u64 {
            for k in 0..80u64 {
                f.insert(Key(k * 7 + round), Value(k)).unwrap();
            }
            for k in 0..80u64 {
                f.delete(Key(k * 7 + round)).unwrap();
            }
            check_concurrent_file(f.core()).unwrap();
        }
    }

    #[test]
    fn background_gc_collects_everything() {
        let f = Solution2::with_options(
            HashFileConfig::tiny(),
            Solution2Options {
                max_retries: 10_000,
                gc: GcStrategy::Background { batch: 8 },
            },
        )
        .unwrap();
        for k in 0..200u64 {
            f.insert(Key(k), Value(k)).unwrap();
        }
        for k in 0..200u64 {
            assert_eq!(f.delete(Key(k)).unwrap(), DeleteOutcome::Deleted);
        }
        let s_before = f.core().stats().snapshot();
        assert!(s_before.merges > 0);
        f.flush_gc();
        check_concurrent_file(f.core()).unwrap(); // no tombstones, no leaks
        assert!(f.is_empty());
    }

    #[test]
    fn background_gc_under_concurrency() {
        let f = std::sync::Arc::new(
            Solution2::with_options(
                HashFileConfig::tiny(),
                Solution2Options {
                    max_retries: 10_000,
                    gc: GcStrategy::Background { batch: 4 },
                },
            )
            .unwrap(),
        );
        let handles: Vec<_> = (0..6u64)
            .map(|t| {
                let f = std::sync::Arc::clone(&f);
                std::thread::spawn(move || {
                    for i in 0..400u64 {
                        let k = (i % 50) * 6 + t;
                        if i % 2 == 0 {
                            f.insert(Key(k), Value(i)).unwrap();
                        } else {
                            f.delete(Key(k)).unwrap();
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        f.flush_gc();
        check_concurrent_file(f.core()).unwrap();
    }

    #[test]
    fn drop_drains_the_collector() {
        // Dropping a background-GC file must reclaim queued garbage (the
        // store would otherwise leak and a later recovery would see
        // tombstones).
        let store;
        {
            let core = FileCore::new(HashFileConfig::tiny()).unwrap();
            store = std::sync::Arc::clone(core.store());
            let f = Solution2::from_core_with_options(
                core,
                Solution2Options {
                    max_retries: 10_000,
                    gc: GcStrategy::Background { batch: 64 },
                },
            );
            for k in 0..100u64 {
                f.insert(Key(k), Value(k)).unwrap();
            }
            for k in 0..100u64 {
                f.delete(Key(k)).unwrap();
            }
            // No flush: drop must handle the backlog.
        }
        // Every surviving page decodes as a live (non-tombstone) bucket.
        let mut buf = ceh_storage::PageBuf::zeroed(store.page_size());
        for p in store.allocated_page_ids() {
            store.read(p, &mut buf).unwrap();
            let b = ceh_types::bucket::Bucket::decode(&buf).unwrap();
            assert!(
                !b.is_deleted(),
                "{p} is an uncollected tombstone after drop"
            );
        }
    }

    #[test]
    fn background_gc_on_a_dead_medium_does_not_wedge_the_file() {
        // When the store refuses a deallocation, the collector must still
        // release ξ(directory) and ξ(page), or every later operation
        // blocks behind them.
        use ceh_storage::{DurableConfig, DurableStore, PageStoreConfig};
        let cap = 2;
        let wal = DurableStore::new(
            DurableConfig {
                page: PageStoreConfig {
                    page_size: ceh_types::Bucket::page_size_for(cap),
                    ..Default::default()
                },
                ..Default::default()
            },
            &ceh_obs::MetricsHandle::new(),
        );
        let core = FileCore::with_buckets(
            HashFileConfig::tiny().with_bucket_capacity(cap),
            std::sync::Arc::clone(&wal),
            std::sync::Arc::new(ceh_locks::LockManager::over(wal.cache().clone())),
            ceh_types::hash_key,
            &ceh_obs::MetricsHandle::new(),
        )
        .unwrap();
        let f = std::sync::Arc::new(Solution2::from_core_with_options(
            core,
            Solution2Options {
                max_retries: 10_000,
                gc: GcStrategy::Background { batch: 1000 },
            },
        ));
        for k in 0..64u64 {
            f.insert(Key(k), Value(k)).unwrap();
        }
        for k in 0..60u64 {
            f.delete(Key(k)).unwrap();
        }
        assert!(f.core().stats().snapshot().merges > 0, "garbage is queued");
        wal.power_off();
        f.flush_gc();
        assert!(f.core().stats().snapshot().gc_unreclaimed > 0);

        let (tx, rx) = std::sync::mpsc::channel();
        let f2 = std::sync::Arc::clone(&f);
        std::thread::spawn(move || {
            let _ = tx.send(f2.find(Key(63)).is_ok());
        });
        assert!(
            rx.recv_timeout(std::time::Duration::from_secs(5)).is_ok(),
            "find blocked behind the collector's locks"
        );
        assert_eq!(f.core().locks().total_granted(), 0);
    }

    /// Figure 9's first-of-pair merge: the "0" partner survives on its
    /// own page, keeping its `prev`, and takes the "1" partner's `next`.
    #[test]
    fn first_of_pair_merge_keeps_the_zero_partners_prev() {
        // Identity pseudokeys, capacity 2: [00, 10, 01, 11, 100, 101]
        // gives depth-2 buckets 00, 10, 01 and 11, chained in that
        // order; 01's prev is 00's page and 11's prev is 01's.
        let cfg = HashFileConfig::tiny().with_bucket_capacity(2);
        let store = ceh_storage::PageStore::new_shared(ceh_storage::Buckets::page_config(&cfg));
        let locks = std::sync::Arc::new(ceh_locks::LockManager::over(store.clone()));
        let metrics = ceh_obs::MetricsHandle::default();
        let core =
            FileCore::with_buckets(cfg, store, locks, ceh_types::identity_pseudokey, &metrics)
                .unwrap();
        let f = Solution2::from_core(core);
        for k in [0b00u64, 0b10, 0b01, 0b11, 0b100, 0b101] {
            f.insert(Key(k), Value(k)).unwrap();
        }
        let bucket = |page| f.core().buckets().getbucket(page).unwrap();
        let (p00, p01, p11) = (
            f.core().dir().index(0b00),
            f.core().dir().index(0b01),
            f.core().dir().index(0b11),
        );
        assert_eq!((bucket(p01).prev, bucket(p11).prev), (p00, p01));
        f.delete(Key(0b101)).unwrap();
        // 01:{01} is too empty; its key has bit 2 clear: first of pair.
        assert_eq!(f.delete(Key(0b01)).unwrap(), DeleteOutcome::Deleted);
        assert_eq!(f.core().stats().snapshot().merges, 1);
        let survivor = bucket(p01);
        assert_eq!((survivor.localdepth, survivor.commonbits), (1, 0b1));
        assert_eq!(survivor.prev, p00, "prev names the '0' side, not itself");
        assert_eq!(survivor.next, PageId::NULL, "next skips the freed page");
        check_concurrent_file(f.core()).unwrap();
    }

    #[test]
    fn directory_full_releases_locks() {
        let cfg = HashFileConfig::tiny()
            .with_bucket_capacity(1)
            .with_max_depth(2);
        let f = Solution2::new(cfg).unwrap();
        let mut got_err = false;
        for k in 0..64u64 {
            match f.insert(Key(k), Value(k)) {
                Ok(_) => {}
                Err(Error::DirectoryFull { .. }) => {
                    got_err = true;
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert!(got_err);
        assert_eq!(f.core().locks().total_granted(), 0);
    }
}
