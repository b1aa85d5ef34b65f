//! **Solution 1** — the top-down locking protocol of §2.2, Figures 5–7.
//!
//! "A lock is placed on each level of the structure (in this case there
//! are only two levels, the directory then a bucket) and held until it is
//! found to be no longer needed."
//!
//! * `find` (Figure 5): ρ on the directory, then hand-over-hand ρ along
//!   buckets; recovery from concurrent splits via `next`.
//! * `insert` (Figure 6): α on the directory held for the whole
//!   operation; readers proceed (ρ/α compatible), other updaters wait.
//! * `delete` (Figure 7): ξ on the directory for the whole operation —
//!   deleters exclude everyone, because a reader racing a merge could
//!   chase a pointer into a deallocated bucket.
//!
//! Updaters never see a wrong bucket here: their directory lock excludes
//! every process that could restructure underneath them.

use ceh_locks::LockId;
use ceh_storage::{too_empty, Edit, Owning, Paired, Peek, Retire};
use ceh_types::bits::partner_bit;
use ceh_types::{
    DeleteOutcome, Error, HashFileConfig, InsertOutcome, Key, ManagerId, PageId, Pseudokey, Result,
    Value,
};

use crate::common::{try_or_release, FileCore};
use crate::traits::ConcurrentHashFile;

/// Tuning knobs for [`Solution1`].
#[derive(Debug, Clone, Default)]
pub struct Solution1Options {
    /// Run `find` in the "more pessimistic approach" §2.2 mentions and
    /// rejects: hold the directory ρ-lock until the right bucket is
    /// locked. The A1 ablation measures what that costs.
    pub pessimistic_find: bool,
}

/// The Solution-1 concurrent extendible hash file.
///
/// ```
/// use ceh_core::{ConcurrentHashFile, Solution1};
/// use ceh_types::{DeleteOutcome, HashFileConfig, Key, Value};
///
/// let file = Solution1::new(HashFileConfig::tiny())?;
/// file.insert(Key(7), Value(70))?;
/// assert_eq!(file.find(Key(7))?, Some(Value(70)));
/// assert_eq!(file.delete(Key(7))?, DeleteOutcome::Deleted);
/// assert!(file.is_empty());
/// # Ok::<(), ceh_types::Error>(())
/// ```
pub struct Solution1 {
    core: FileCore,
    opts: Solution1Options,
}

impl std::fmt::Debug for Solution1 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Solution1")
            .field("core", &self.core)
            .finish()
    }
}

impl Solution1 {
    /// Create a file with default options.
    pub fn new(cfg: HashFileConfig) -> Result<Self> {
        Ok(Solution1 {
            core: FileCore::new(cfg)?,
            opts: Solution1Options::default(),
        })
    }

    /// Create a file with explicit options.
    pub fn with_options(cfg: HashFileConfig, opts: Solution1Options) -> Result<Self> {
        Ok(Solution1 {
            core: FileCore::new(cfg)?,
            opts,
        })
    }

    /// Create a file over a prebuilt core (tests inject substrates).
    pub fn from_core(core: FileCore) -> Self {
        Solution1 {
            core,
            opts: Solution1Options::default(),
        }
    }

    /// The shared core (stats, store, directory — for tests and benches).
    pub fn core(&self) -> &FileCore {
        &self.core
    }

    /// Figure 6, the insertion algorithm.
    fn insert_impl(&self, key: Key, value: Value) -> Result<InsertOutcome> {
        let core = &self.core;
        let _op = core.op_span("insert", key.0);
        let cap = core.config().bucket_capacity;
        let pk = (core.hasher())(key);
        // "if (!done) insert (z)" — the recursion is this loop.
        loop {
            let owner = core.locks().new_owner();
            core.alpha_lock(owner, LockId::Directory);
            let (_depth, oldpage) = core.dir().lookup(pk);
            core.alpha_lock(owner, LockId::Page(oldpage));
            // A Solution-1 updater can never have the wrong bucket: its α
            // on the directory excludes every restructurer.
            let at = try_or_release!(core, owner, peek_owner(core, oldpage, pk, key));

            if at.found.is_some() {
                /* z is already there */
                core.un_alpha_lock(owner, LockId::Directory);
                core.un_alpha_lock(owner, LockId::Page(oldpage));
                core.stats().inserts_duplicate();
                return Ok(InsertOutcome::AlreadyPresent);
            }

            if at.count != cap {
                /* current bucket not full */
                core.un_alpha_lock(owner, LockId::Directory);
                let record = ceh_types::Record { key, value };
                try_or_release!(core, owner, core.buckets().edit(oldpage, Edit::Add(record)));
                core.un_alpha_lock(owner, LockId::Page(oldpage));
                core.len_inc();
                core.stats().inserts();
                return Ok(InsertOutcome::Inserted);
            }

            /* current is full */
            let split_span = core.trace_begin("split", oldpage.0, 0);
            if at.localdepth == core.dir().depth() {
                try_or_release!(core, owner, core.dir().double());
                core.stats().doublings();
            }
            let split = try_or_release!(core, owner, core.split(oldpage, key, value));
            let (newpage, localdepth, done) = (split.half2.page, split.localdepth + 1, split.done);
            core.un_alpha_lock(owner, LockId::Page(oldpage));
            core.dir().update_one_side(newpage, localdepth, pk);
            core.dir().count_split(localdepth);
            core.stats().splits();
            core.trace_end(split_span, "split", oldpage.0, newpage.0);
            core.un_alpha_lock(owner, LockId::Directory);
            if done {
                core.len_inc();
                core.stats().inserts();
                return Ok(InsertOutcome::Inserted);
            }
            core.stats().insert_retries();
        }
    }

    /// Figure 7, the deletion algorithm.
    fn delete_impl(&self, key: Key) -> Result<DeleteOutcome> {
        let core = &self.core;
        let _op = core.op_span("delete", key.0);
        let pk = (core.hasher())(key);
        let owner = core.locks().new_owner();

        core.xi_lock(owner, LockId::Directory);
        let depth = core.dir().depth();
        let selectedbits = pk.low_bits(depth);
        let oldpage = core.dir().index(selectedbits);
        core.xi_lock(owner, LockId::Page(oldpage));
        // ξ on the directory: no wrong buckets possible.
        let at = try_or_release!(core, owner, peek_owner(core, oldpage, pk, key));

        // DEVIATION: check presence before considering a merge. Figure 7's
        // merge path never searches for z; at merge_threshold 0 the lone
        // record in a too-empty bucket is silently assumed to be z, and a
        // delete of an absent key would discard an innocent record. (The
        // Figure 9 version of the same code adds exactly this check.)
        if at.found.is_none() {
            core.un_xi_lock(owner, LockId::Directory);
            core.un_xi_lock(owner, LockId::Page(oldpage));
            core.stats().deletes_miss();
            return Ok(DeleteOutcome::NotFound);
        }

        if !too_empty(core.config(), at.count, at.localdepth) {
            /* current not too empty */
            core.un_xi_lock(owner, LockId::Directory);
            try_or_release!(core, owner, core.buckets().edit(oldpage, Edit::Remove(key)));
            core.un_xi_lock(owner, LockId::Page(oldpage));
            core.len_dec();
            core.stats().deletes();
            return Ok(DeleteOutcome::Deleted);
        }

        // Merge attempt. Identify the partner with respect to localdepth.
        let m = partner_bit(at.localdepth);
        let first_of_pair = pk.0 & m != m;
        let partner = if first_of_pair {
            /* z goes in first of pair: the partner follows via next */
            at.next.page
        } else {
            /* z goes in second of pair: the "0" partner via the directory */
            core.dir().index(selectedbits & !m)
        };
        let here = ManagerId::NONE;
        let (locks, cfg) = (core.locks(), core.config());
        let paired = core.buckets().pair(
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
            /* not possible to merge these two */
            Paired::Alone { .. } => return self.finish_unmergeable(owner, key, oldpage),
            Paired::Stale => {
                // Our ξ on the directory never left, so nothing changed
                // while oldpage was unlocked (readers don't write): the
                // directory's "0" entry is a deeper bucket that does not
                // link to oldpage. Not partners; re-lock and remove.
                core.xi_lock(owner, LockId::Page(oldpage));
                return self.finish_unmergeable(owner, key, oldpage);
            }
        };

        /* mergeable */
        let merge_span = core.trace_begin("merge", oldpage.0, 0);
        let old_ld = zero.1.localdepth;
        core.dir().count_merge(old_ld);
        // The survivors of z's bucket move across (none at the paper's
        // merge_threshold = 0); the "1" partner's page is freed.
        let (merged_page, garbage_page) = (zero.0, one.0);
        let merged = core
            .buckets()
            .merge((zero.0, &zero.1), (one.0, &one.1), Retire::Free);
        try_or_release!(core, owner, merged);
        if core.dir().halve() {
            core.stats().halvings();
        } else {
            core.dir().update_one_side(merged_page, old_ld, pk);
        }
        core.stats().merges();
        core.trace_end(merge_span, "merge", merged_page.0, garbage_page.0);
        core.un_xi_lock(owner, LockId::Page(partner));
        core.un_xi_lock(owner, LockId::Page(oldpage));
        core.un_xi_lock(owner, LockId::Directory);
        core.len_dec();
        core.stats().deletes();
        Ok(DeleteOutcome::Deleted)
    }

    /// Shared tail: remove the key without merging and release everything
    /// (the "not possible to merge these two" path of Figure 7).
    fn finish_unmergeable(
        &self,
        owner: ceh_locks::OwnerId,
        key: Key,
        oldpage: PageId,
    ) -> Result<DeleteOutcome> {
        let core = &self.core;
        let removed = try_or_release!(core, owner, core.buckets().edit(oldpage, Edit::Remove(key)));
        debug_assert!(removed, "presence was checked under ξ");
        core.un_xi_lock(owner, LockId::Page(oldpage));
        core.un_xi_lock(owner, LockId::Directory);
        core.len_dec();
        core.stats().deletes();
        Ok(DeleteOutcome::Deleted)
    }
}

/// [`ceh_storage::Buckets::peek`] for a Solution 1 updater, whose
/// directory lock excludes every restructurer: a bucket that does not own
/// `pk` is corruption, not a wrong bucket to recover from.
#[track_caller]
fn peek_owner(core: &FileCore, page: PageId, pk: Pseudokey, key: Key) -> Result<Owning> {
    match core.buckets().peek(page, pk, key)? {
        Peek::Owns(at) => Ok(at),
        Peek::WrongBucket { .. } => Err(Error::Corrupt(format!(
            "{page} does not own {pk:?} under a directory lock that excludes restructuring"
        ))),
    }
}

impl ConcurrentHashFile for Solution1 {
    fn find(&self, key: Key) -> Result<Option<Value>> {
        let t = self.core.hist_invoke(ceh_obs::HistKind::Find, key, 0);
        let r = self.core.find_impl(key, self.opts.pessimistic_find);
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
        if self.opts.pessimistic_find {
            "solution1-pessimistic"
        } else {
            "solution1"
        }
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

    fn file() -> Solution1 {
        Solution1::new(HashFileConfig::tiny()).unwrap()
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
        assert_eq!(f.find(Key(1)).unwrap(), None);
        assert_eq!(f.core().locks().total_granted(), 0);
    }

    #[test]
    fn grow_and_shrink_preserves_structure() {
        let f = file();
        for k in 0..300u64 {
            f.insert(Key(k), Value(k)).unwrap();
        }
        check_concurrent_file(f.core()).unwrap();
        assert!(f.core().dir().depth() >= 5);
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
    fn stats_track_splits_and_merges() {
        let f = file();
        for k in 0..50u64 {
            f.insert(Key(k), Value(k)).unwrap();
        }
        for k in 0..50u64 {
            f.delete(Key(k)).unwrap();
        }
        let s = f.core().stats().snapshot();
        assert!(s.splits > 0);
        assert!(s.merges > 0);
        assert!(s.doublings > 0);
        assert!(s.halvings > 0);
        assert_eq!(s.inserts, 50);
        assert_eq!(s.deletes, 50);
    }

    #[test]
    fn directory_full_releases_locks() {
        let cfg = HashFileConfig::tiny()
            .with_bucket_capacity(1)
            .with_max_depth(2);
        let f = Solution1::new(cfg).unwrap();
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
        assert_eq!(
            f.core().locks().total_granted(),
            0,
            "error path released all locks"
        );
        // The file keeps working after the failure.
        let present = (0..64u64)
            .filter(|&k| f.find(Key(k)).unwrap().is_some())
            .count();
        assert!(present > 0);
    }

    #[test]
    fn pessimistic_find_option_works() {
        let f = Solution1::with_options(
            HashFileConfig::tiny(),
            Solution1Options {
                pessimistic_find: true,
            },
        )
        .unwrap();
        for k in 0..100u64 {
            f.insert(Key(k), Value(k + 1)).unwrap();
        }
        for k in 0..100u64 {
            assert_eq!(f.find(Key(k)).unwrap(), Some(Value(k + 1)));
        }
        assert_eq!(f.name(), "solution1-pessimistic");
    }
}
