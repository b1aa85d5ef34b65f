//! The bucket layer: where a bucket mutation goes.
//!
//! The paper's processes read and write buckets with `getbucket`,
//! `putbucket`, `allocbucket` and `deallocbucket`. Every hash file here
//! (the sequential file, both concurrent solutions, and each site of the
//! distributed file) does that through one [`Buckets`]: the page store,
//! plus the write-ahead log when the file is durable. It alone decides
//! whether a mutation is logged first or goes straight to the store, so
//! the protocols above it read the same either way.
//!
//! It also holds the restructuring steps every file shares: the
//! hand-over-hand walk ([`Buckets::walk`]), the split
//! ([`Buckets::split`]), the pairing of a too-empty bucket with its
//! partner ([`Buckets::pair`], with the merge test [`mergeable`]), the
//! merge commit ([`Buckets::merge`]), and a one-site file's restart
//! ([`Buckets::recover`]). Each takes no directory lock and sends no
//! message: the directory update and the messages stay with the file
//! that calls it.

use std::sync::Arc;

use ceh_locks::{HeaderWords, LockId, LockManager, LockMode, OwnerId};
use ceh_obs::MetricsHandle;
use ceh_types::bucket::{
    append_in_place, append_located, remove_in_place, remove_located, Located, PageWordsMut,
};
use ceh_types::{
    Bucket, BucketLink, BucketView, Error, HashFileConfig, Key, ManagerId, PageId, Pseudokey,
    Record, Result, Value,
};

use crate::{rebuild_directory, Directory};
use crate::{DurableStore, DurableTxn, PageStore, PageStoreConfig};

/// A hash file's buckets: its page store, and the durability layer
/// whose volatile cache that store is when the file is crash-consistent.
/// Cloning shares both.
#[derive(Debug, Clone)]
pub struct Buckets {
    store: Arc<PageStore>,
    wal: Option<Arc<DurableStore>>,
}

impl From<Arc<PageStore>> for Buckets {
    /// Volatile buckets: the store is the only storage.
    fn from(store: Arc<PageStore>) -> Self {
        Buckets { store, wal: None }
    }
}

impl From<Arc<DurableStore>> for Buckets {
    /// Crash-consistent buckets: every mutation is logged before it
    /// reaches the durable store's cache.
    fn from(wal: Arc<DurableStore>) -> Self {
        Buckets {
            store: Arc::clone(wal.cache()),
            wal: Some(wal),
        }
    }
}

impl Buckets {
    /// Volatile buckets over a fresh page store shaped for `cfg`.
    pub fn new(cfg: &HashFileConfig, metrics: &MetricsHandle) -> Self {
        PageStore::new_shared_with_metrics(Self::page_config(cfg), metrics).into()
    }

    /// The page-store configuration for `cfg`: pages that hold exactly
    /// `bucket_capacity` records, with its simulated I/O latency.
    pub fn page_config(cfg: &HashFileConfig) -> PageStoreConfig {
        PageStoreConfig {
            page_size: Bucket::page_size_for(cfg.bucket_capacity),
            io_latency_ns: cfg.io_latency_ns,
            ..Default::default()
        }
    }

    /// Does a page hold `cfg`'s bucket capacity?
    pub fn check_fits(&self, cfg: &HashFileConfig) -> Result<()> {
        let fits = Bucket::capacity_for(self.store.page_size());
        if fits < cfg.bucket_capacity {
            return Err(Error::Config(format!(
                "page size {} holds only {fits} records, config wants {}",
                self.store.page_size(),
                cfg.bucket_capacity
            )));
        }
        Ok(())
    }

    /// The initial state of a file: check that a page holds `cfg`'s
    /// buckets, then [`Buckets::place`] an empty depth-0 bucket.
    pub fn create_root(&self, cfg: &HashFileConfig) -> Result<PageId> {
        self.check_fits(cfg)?;
        self.place(&Bucket::new(0, 0))
    }

    /// `allocbucket` and `putbucket` of a new page as one logged
    /// transaction (joining the thread's open one, if any), so a power
    /// cut never leaves an empty allocated page.
    pub fn place(&self, bucket: &Bucket) -> Result<PageId> {
        let txn = self.begin_txn()?;
        let page = self.alloc()?;
        self.putbucket(page, bucket)?;
        txn.commit()?;
        Ok(page)
    }

    /// The page store (the volatile cache when durable): reads, and the
    /// lock-free paths, go here.
    #[inline]
    pub fn store(&self) -> &Arc<PageStore> {
        &self.store
    }

    /// The durability layer, when the buckets are crash-consistent.
    #[inline]
    pub fn wal(&self) -> Option<&Arc<DurableStore>> {
        self.wal.as_ref()
    }

    /// `getbucket(page, buffer)`: decode the bucket from the page's words
    /// in place (the durable store's cache when durable), with no copy.
    /// One page read, which the page store announces to the race
    /// detector.
    #[inline]
    #[track_caller]
    pub fn getbucket(&self, page: PageId) -> Result<Bucket> {
        self.store
            .with_page(page, |words| Bucket::decode_words(words))?
    }

    /// `putbucket(page, buffer)`: encode and write. When durable, the
    /// bucket is encoded into a page image that is logged first (joining
    /// the thread's open transaction, else as a committed singleton) and
    /// then written to the cache. On a volatile store it is encoded into
    /// the page's words in place (a bucket that does not fit leaves them
    /// as they were).
    #[inline]
    #[track_caller]
    pub fn putbucket(&self, page: PageId, bucket: &Bucket) -> Result<()> {
        match &self.wal {
            Some(w) => {
                let mut image = self.store.new_buf();
                bucket.encode(&mut image)?;
                w.write(page, &image)
            }
            None => self
                .store
                .with_page_mut(page, |words| bucket.encode_words(words))?,
        }
    }

    /// The `add` or `remove` and `putbucket` of an update that does not
    /// restructure, under a lock the caller holds on `page`: whether a
    /// record was added or removed. On a volatile store the page is
    /// edited in place; when durable, a copy is edited and its full image
    /// logged, as [`Buckets::putbucket`] does.
    #[inline]
    #[track_caller]
    pub fn edit(&self, page: PageId, edit: Edit) -> Result<bool> {
        match &self.wal {
            Some(w) => {
                let mut buf = self.store.new_buf();
                w.read(page, &mut buf)?;
                let out = edit.apply(&mut buf[..])?;
                w.write(page, &buf)?;
                Ok(out)
            }
            None => self.store.with_page_mut(page, |words| edit.apply(words))?,
        }
    }

    /// The `getbucket` of a find or of an updater's walk: look at `page`
    /// in place, under a lock the caller holds on it, and keep only what
    /// Figures 5–9 and 14 use of it before deciding to restructure. No
    /// copy, no decode, no allocation.
    #[inline]
    #[track_caller]
    pub fn peek(&self, page: PageId, pk: Pseudokey, key: Key) -> Result<Peek> {
        self.store.with_page(page, |words| {
            let view = BucketView::over(words)?;
            Ok(if view.owns(pk) {
                Peek::Owns(Owning {
                    found: view.search(key),
                    count: view.count(),
                    localdepth: view.localdepth(),
                    next: BucketLink::new(view.next_mgr(), view.next()),
                })
            } else {
                Peek::WrongBucket {
                    next: view.next(),
                    next_mgr: view.next_mgr(),
                }
            })
        })?
    }

    /// A link about to be locked and read: a page id past the store is
    /// corruption or stale routing, and faults here as reading it would
    /// (the lock manager has no word for it).
    #[inline]
    pub fn check_link(&self, page: PageId) -> Result<()> {
        match self.store.header(page) {
            Some(_) => Ok(()),
            None => Err(Error::PageFault { page: page.0 }),
        }
    }

    /// `allocbucket`: logged when durable.
    pub fn alloc(&self) -> Result<PageId> {
        match &self.wal {
            Some(w) => w.alloc(),
            None => self.store.alloc(),
        }
    }

    /// `deallocbucket`: logged when durable.
    pub fn dealloc(&self, page: PageId) -> Result<()> {
        match &self.wal {
            Some(w) => w.dealloc(page),
            None => self.store.dealloc(page),
        }
    }

    /// Open a logged transaction bracketing a multi-page restructuring
    /// (split, merge, root creation). A no-op guard on volatile buckets,
    /// so callers bracket unconditionally; see [`DurableTxn`].
    pub fn begin_txn(&self) -> Result<DurableTxn> {
        match &self.wal {
            Some(w) => w.begin_txn(),
            None => Ok(DurableTxn::noop()),
        }
    }

    /// Every allocated page with what decoding it gives, in page order
    /// (quiescent use only): the one scan over all of a file's pages, for
    /// recovery and the structural checks.
    pub fn scan(&self) -> Vec<(PageId, Result<Bucket>)> {
        self.store
            .allocated_page_ids()
            .into_iter()
            .map(|page| (page, self.getbucket(page)))
            .collect()
    }

    /// The `/* WRONG BUCKET */` loop of Figures 5, 8, 9 and 14: from
    /// `page`, which `owner` holds in `mode`, follow `next` links hand
    /// over hand (lock the next page, peek at it, release the one
    /// before) until a bucket owns `pk`. Tombstones are walked through
    /// like any wrong bucket: their `next` is the recovery path. `hop`
    /// runs once per link followed. A link to a page of a manager other
    /// than `here` ends the walk at [`Walked::OffSite`], its page still
    /// held (one file passes [`ManagerId::NONE`] and never leaves). On
    /// an error (a page that faults or does not decode, a wrong bucket
    /// with no `next`) the walk holds no page lock.
    #[allow(clippy::too_many_arguments)]
    pub fn walk(
        &self,
        locks: &LockManager,
        owner: OwnerId,
        mode: LockMode,
        mut page: PageId,
        here: ManagerId,
        pk: Pseudokey,
        key: Key,
        mut hop: impl FnMut(),
    ) -> Result<Walked> {
        let unlock = |page| locks.unlock(owner, LockId::Page(page), mode);
        let mut current = self.peek(page, pk, key).inspect_err(|_| unlock(page))?;
        loop {
            let (next, next_mgr) = match current {
                Peek::Owns(at) => return Ok(Walked::Owner(page, at)),
                Peek::WrongBucket { next, next_mgr } => (next, next_mgr),
            };
            hop();
            if next.is_null() {
                unlock(page);
                return Err(Error::Corrupt(format!(
                    "walk for {pk:?}: wrong bucket {page} has no next link"
                )));
            }
            if !next_mgr.is_none() && next_mgr != here {
                let next = BucketLink::new(next_mgr, next);
                return Ok(Walked::OffSite { page, next });
            }
            let step = self.check_link(next).and_then(|()| {
                locks.lock(owner, LockId::Page(next), mode);
                self.peek(next, pk, key).inspect_err(|_| unlock(next))
            });
            current = step.inspect_err(|_| unlock(page))?;
            unlock(page);
            page = next;
        }
    }

    /// The split of Figures 6, 8 and 14 and of the sequential file,
    /// under the lock the caller holds on `page`, whose bucket is full:
    /// `getbucket`, then `split(current, half1, half2, z)`, then one
    /// logged transaction that puts the "1" half where `place` says (a
    /// page of this store, or another site through `Splitbucket`) and
    /// rewrites `page` as the "0" half linked to it. The "1" half is
    /// written first: "this order is what makes the split look atomic
    /// to concurrent readers" (§2.3). `here`, the manager of `page`,
    /// becomes the "1" half's `prev`.
    pub fn split(
        &self,
        page: PageId,
        here: ManagerId,
        record: Record,
        cfg: &HashFileConfig,
        hasher: fn(Key) -> Pseudokey,
        place: impl FnOnce(Bucket) -> Result<BucketLink>,
    ) -> Result<Split> {
        let current = self.getbucket(page)?;
        let (mut half1, half2, done) = current.split(
            record.key,
            record.value,
            cfg.bucket_capacity,
            hasher,
            page,
            here,
            PageId::NULL,
            here,
        );
        // Power lost before the commit record is durable leaves either
        // the whole split or none of it.
        let txn = self.begin_txn()?;
        let link = place(half2)?;
        (half1.next, half1.next_mgr) = (link.page, link.manager);
        self.putbucket(page, &half1)?;
        txn.commit()?;
        Ok(Split {
            localdepth: current.localdepth,
            version: current.version,
            half2: link,
            done,
        })
    }

    /// The pairing step of a delete (Figures 7, 9 and 14), from `page`,
    /// held ξ by `owner`, whose bucket owns `pk`, holds `key` and is
    /// [`too_empty`], and `partner`: the "1" partner (`page`'s `next`)
    /// when `first_of_pair`, else the "0" partner the caller found. The
    /// "0" side locks `partner` ξ. The "1" side locks in next-link order
    /// (§2.2): it releases `page`, locks `partner`, then `page`, and
    /// answers [`Paired::Stale`], holding nothing, on what the released
    /// lock let change (Figure 9's label *A*): `partner` is a tombstone
    /// or does not link to `page` on `here`'s site, or `page` no longer
    /// owns `pk`. Then [`Paired::Merge`] if the key is still there, the
    /// bucket still too empty and the pair [`mergeable`], else
    /// [`Paired::Alone`] (also for a null `partner`). On an error no
    /// page lock is held. The `check-inject` feature skips the label-*A*
    /// checks, for the schedule explorer's self-test.
    #[allow(clippy::too_many_arguments)]
    pub fn pair(
        &self,
        locks: &LockManager,
        owner: OwnerId,
        page: PageId,
        partner: PageId,
        first_of_pair: bool,
        here: ManagerId,
        pk: Pseudokey,
        key: Key,
        cfg: &HashFileConfig,
    ) -> Result<Paired> {
        let lock = |page| locks.lock(owner, LockId::Page(page), LockMode::Xi);
        let unlock = |page| locks.unlock(owner, LockId::Page(page), LockMode::Xi);
        let label_a = !cfg!(feature = "check-inject");
        if partner.is_null() {
            return Ok(Paired::Alone { present: true });
        }
        let locked = |at| {
            self.check_link(at)?;
            lock(at);
            self.getbucket(at).inspect_err(|_| unlock(at))
        };
        let (mut current, brother) = if first_of_pair {
            /* Z IN FIRST OF PAIR */
            let both = self
                .getbucket(page)
                .and_then(|current| Ok((current, locked(partner)?)));
            both.inspect_err(|_| unlock(page))?
        } else {
            /* Z IN SECOND OF PAIR */
            unlock(page);
            let brother = locked(partner)?;
            if label_a && (brother.is_deleted() || (brother.next_mgr, brother.next) != (here, page))
            {
                /* A: PAGE AND PARTNER ARE NOT MERGEABLE PARTNERS */
                unlock(partner);
                return Ok(Paired::Stale);
            }
            let current = locked(page).inspect_err(|_| unlock(partner))?;
            if label_a && !current.owns(pk) {
                /* Z NO LONGER BELONGS IN PAGE: IT FILLED UP AND SPLIT */
                unlock(page);
                unlock(partner);
                return Ok(Paired::Stale);
            }
            (current, brother)
        };
        // "Either it is not possible to merge because of localdepths or
        // something happened while waiting to re-lock oldpage - more data
        // inserted into oldpage so it is no longer empty and maybe then z
        // deleted" (Figure 9).
        let present = current.search(key).is_some();
        let (ld, count) = (current.localdepth, current.count());
        let fits = mergeable(cfg, ld, count, brother.localdepth, brother.count());
        if !(present && too_empty(cfg, count, ld) && fits) {
            unlock(partner);
            return Ok(Paired::Alone { present });
        }
        current.remove(key);
        let (z, other) = ((page, current), (partner, brother));
        let (zero, one) = if first_of_pair {
            (z, other)
        } else {
            (other, z)
        };
        Ok(Paired::Merge { zero, one })
    }

    /// The merge commit of Figures 7, 9 and 14 and of the sequential
    /// file, under the locks the caller holds on both pages, after it
    /// removed the key: write the survivor of `zero` and `one` (the
    /// partners, each with its page) on `zero`'s page, and retire
    /// `one`'s page as `retire` says, as one logged transaction, so
    /// recovery never sees the survivor without its partner retired.
    /// Returns the survivor.
    pub fn merge(
        &self,
        (zero_page, zero): (PageId, &Bucket),
        (one_page, one): (PageId, &Bucket),
        retire: Retire,
    ) -> Result<Bucket> {
        let survivor = Bucket::merged(zero, one);
        let txn = self.begin_txn()?;
        self.putbucket(zero_page, &survivor)?;
        match retire {
            Retire::Free => self.dealloc(one_page)?,
            Retire::Tombstone(here) => {
                let link = BucketLink::new(here, zero_page);
                let tombstone = Bucket::tombstone(link, survivor.version);
                self.putbucket(one_page, &tombstone)?;
            }
        }
        txn.commit()?;
        Ok(survivor)
    }

    /// The recovery sweep over a file's pages: its live buckets. With
    /// `collect`, tombstones and pages that do not decode are deallocated
    /// (through the log when durable): the whole file is restarting, and
    /// nothing remembers that garbage to collect it later. Without, a
    /// page that does not decode fails the sweep, and tombstones stay
    /// allocated for the collection their directory managers re-drive.
    pub fn sweep(&self, collect: bool) -> Result<Vec<(PageId, Bucket)>> {
        let mut live = Vec::new();
        for (page, bucket) in self.scan() {
            match bucket {
                Ok(b) if !b.is_deleted() => live.push((page, b)),
                Err(e) if !collect => return Err(e),
                _ if collect => self.dealloc(page)?,
                _ => {}
            }
        }
        Ok(live)
    }

    /// A whole one-site file restarting over these buckets: sweep them,
    /// collecting the garbage, then rebuild the directory from the live
    /// buckets ([`rebuild_directory`]), or place a fresh root when none
    /// survived. Returns the directory and the number of records.
    pub fn recover(&self, cfg: &HashFileConfig) -> Result<(Directory, usize)> {
        self.check_fits(cfg)?;
        let live = self.sweep(true)?;
        if live.is_empty() {
            return Ok((Directory::new(cfg.max_depth, self.create_root(cfg)?)?, 0));
        }
        let links = live
            .iter()
            .map(|(p, b)| (BucketLink::new(ManagerId::NONE, *p), b));
        let dir = rebuild_directory(cfg.max_depth, links, |link, _| link.page)?;
        Ok((dir, live.iter().map(|(_, b)| b.count()).sum()))
    }
}

/// A delete gives up merging once the operation has been retried this
/// many times (Figure 9's label-*A* restarts in Solution 2, the
/// directory manager's re-drives at a bucket slave): when the cause
/// persists ("the local depths do not match"), retrying re-encounters
/// it forever, and §2.5 has the deleter go "back to simply trying to
/// remove its key".
pub const MERGE_ATTEMPTS: u32 = 3;

/// The trigger of Figures 7, 9 and 14: a delete from a bucket of
/// `localdepth` holding `count` records tries to merge it with its
/// partner.
#[inline]
pub fn too_empty(cfg: &HashFileConfig, count: usize, localdepth: u32) -> bool {
    count <= cfg.merge_threshold + 1 && localdepth > 1
}

/// The merge test of Figures 7, 9 and 14: may a bucket of `localdepth`
/// holding `count` records, the deleted key among them, merge with its
/// partner of `partner_localdepth` holding `partner_count`? The partners
/// are at one depth, and they fit in one bucket once the key is gone. A
/// tombstone, at depth 0, is never the partner of a bucket that is
/// [`too_empty`].
#[inline]
pub fn mergeable(
    cfg: &HashFileConfig,
    localdepth: u32,
    count: usize,
    partner_localdepth: u32,
    partner_count: usize,
) -> bool {
    localdepth == partner_localdepth && count + partner_count <= cfg.bucket_capacity + 1
}

/// Where [`Buckets::walk`] stopped.
#[derive(Debug, Clone, Copy)]
pub enum Walked {
    /// The bucket that owns the pseudokey: its page, held in the walk's
    /// mode, and what the peek saw of it.
    Owner(PageId, Owning),
    /// A wrong bucket, `page`, still held, whose `next` is on another
    /// site.
    OffSite {
        /// The held page.
        page: PageId,
        /// Its `next` link.
        next: BucketLink,
    },
}

/// What [`Buckets::split`] did.
#[derive(Debug, Clone, Copy)]
pub struct Split {
    /// The split bucket's local depth before the split; both halves are
    /// one deeper.
    pub localdepth: u32,
    /// The split bucket's version before the split; both halves are one
    /// later.
    pub version: u64,
    /// Where the "1" half went.
    pub half2: BucketLink,
    /// Did the record go in? `false` when its half was full as well:
    /// the caller retries, `if (!done) insert (z)`.
    pub done: bool,
}

/// What [`Buckets::pair`] found.
#[derive(Debug)]
pub enum Paired {
    /// The partners merge, both pages held ξ, the key removed.
    Merge {
        /// The "0" partner (partner bit clear) and its page.
        zero: (PageId, Bucket),
        /// The "1" partner and its page.
        one: (PageId, Bucket),
    },
    /// No merge; only the deleter's page is held.
    Alone {
        /// Is the key in it?
        present: bool,
    },
    /// Label *A* of Figure 9: no page lock is held.
    Stale,
}

/// How [`Buckets::merge`] retires the "1" partner's page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retire {
    /// Deallocate it: no process can still reach it (Figure 7, the
    /// sequential file).
    Free,
    /// Leave a tombstone whose `next` names the survivor on this
    /// manager's site, for the searches that still reach the page
    /// (Figures 9 and 14); garbage collection frees it later.
    Tombstone(ManagerId),
}

/// The one-record change of an update that does not restructure (see
/// [`Buckets::edit`]).
#[derive(Debug, Clone, Copy)]
pub enum Edit {
    /// The paper's `add(current, z)`: the caller has checked that the key
    /// is absent and the bucket not full.
    Add(Record),
    /// The paper's `remove(z, current)`.
    Remove(Key),
}

impl Edit {
    /// The key the edit adds or removes.
    pub fn key(self) -> Key {
        match self {
            Edit::Add(record) => record.key,
            Edit::Remove(key) => key,
        }
    }

    /// Apply to an encoded page in place: whether a record was added or
    /// removed.
    pub fn apply<P: PageWordsMut + ?Sized>(self, page: &mut P) -> Result<bool> {
        match self {
            Edit::Add(record) => append_in_place(page, record).map(|()| true),
            Edit::Remove(key) => remove_in_place(page, key),
        }
    }

    /// [`Edit::apply`] at `at`, where [`ceh_types::bucket::locate`] found the edit's key on
    /// the page as it is now (see [`append_located`]).
    pub fn apply_located<P: PageWordsMut + ?Sized>(
        self,
        page: &mut P,
        at: Located,
    ) -> Result<bool> {
        match self {
            Edit::Add(record) => append_located(page, at, record).map(|()| true),
            Edit::Remove(_) => remove_located(page, at),
        }
    }
}

/// What an operation learns from one bucket page (see [`Buckets::peek`]).
#[derive(Debug, Clone, Copy)]
pub enum Peek {
    /// The bucket owns the pseudokey.
    Owns(Owning),
    /// Wrong bucket (or a tombstone): follow `next`, on `next_mgr`'s site
    /// in the distributed file.
    WrongBucket {
        /// The `next` link.
        next: PageId,
        /// The manager holding `next` ([`ManagerId::NONE`] in one file).
        next_mgr: ManagerId,
    },
}

/// What [`Buckets::peek`] keeps of the bucket that owns the pseudokey.
#[derive(Debug, Clone, Copy)]
pub struct Owning {
    /// `search(key)`.
    pub found: Option<Value>,
    /// The paper's `count`.
    pub count: usize,
    /// The bucket's local depth.
    pub localdepth: u32,
    /// Its `next` link: the "1" partner when the bucket is the "0" one.
    pub next: BucketLink,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Capacity 4, merge threshold 0, identity pseudokeys: the depth-2
    /// partners `01` holding key 5 and `11` holding key 7, `11` split
    /// off from `01` (`01`'s `next`, `11`'s `prev`).
    struct Pair {
        buckets: Buckets,
        locks: LockManager,
        cfg: HashFileConfig,
        zero: PageId,
        one: PageId,
    }

    fn pair_file() -> Pair {
        let cfg = HashFileConfig::tiny().with_bucket_capacity(4);
        let buckets = Buckets::new(&cfg, &MetricsHandle::default());
        let locks = LockManager::over(Arc::clone(buckets.store()) as _);
        let [zero, one] = [(); 2].map(|()| buckets.alloc().unwrap());
        let mut b01 = Bucket::new(2, 0b01);
        b01.add(Record::new(5, 50));
        b01.next = one;
        let mut b11 = Bucket::new(2, 0b11);
        b11.add(Record::new(7, 70));
        b11.prev = zero;
        buckets.putbucket(zero, &b01).unwrap();
        buckets.putbucket(one, &b11).unwrap();
        Pair {
            buckets,
            locks,
            cfg,
            zero,
            one,
        }
    }

    impl Pair {
        /// Delete `key` from `page` as a file would: lock `page` ξ, then
        /// pair it with `partner`.
        fn pair(&self, page: PageId, partner: PageId, key: u64) -> (OwnerId, Result<Paired>) {
            let owner = self.locks.new_owner();
            self.locks.lock(owner, LockId::Page(page), LockMode::Xi);
            let first_of_pair = page == self.zero;
            let (pk, here) = (Pseudokey(key), ManagerId::NONE);
            let paired = self.buckets.pair(
                &self.locks,
                owner,
                page,
                partner,
                first_of_pair,
                here,
                pk,
                Key(key),
                &self.cfg,
            );
            (owner, paired)
        }

        fn bucket(&self, page: PageId) -> Bucket {
            self.buckets.getbucket(page).unwrap()
        }

        fn put(&self, page: PageId, bucket: &Bucket) {
            self.buckets.putbucket(page, bucket).unwrap();
        }
    }

    #[test]
    fn pair_merges_from_either_side_holding_both_pages() {
        for (page, key) in [(0, 5), (1, 7)] {
            let f = pair_file();
            let [page, partner] = match page {
                0 => [f.zero, f.one],
                _ => [f.one, f.zero],
            };
            let (_, paired) = f.pair(page, partner, key);
            let Ok(Paired::Merge { zero, one }) = paired else {
                panic!("key {key}: {paired:?}");
            };
            assert_eq!((zero.0, one.0), (f.zero, f.one), "key {key}");
            let mut want = [f.bucket(f.zero), f.bucket(f.one)];
            want[usize::from(page == f.one)].remove(Key(key));
            assert_eq!([zero.1, one.1], want, "key {key}: the key is removed");
            assert_eq!(f.locks.total_granted(), 2, "key {key}");
        }
    }

    #[test]
    fn pair_leaves_a_refilled_bucket_alone_holding_its_page() {
        let f = pair_file();
        let mut refilled = f.bucket(f.one);
        refilled.add(Record::new(11, 110));
        f.put(f.one, &refilled);
        let (_, paired) = f.pair(f.one, f.zero, 7);
        assert!(matches!(paired, Ok(Paired::Alone { present: true })));
        assert_eq!(f.locks.total_granted(), 1);
        assert_eq!(f.bucket(f.one), refilled);
    }

    #[test]
    fn pair_leaves_a_bucket_without_the_key_alone() {
        let f = pair_file();
        let mut emptied = f.bucket(f.one);
        emptied.remove(Key(7));
        f.put(f.one, &emptied);
        let (_, paired) = f.pair(f.one, f.zero, 7);
        assert!(matches!(paired, Ok(Paired::Alone { present: false })));
        assert_eq!(f.locks.total_granted(), 1);
    }

    #[test]
    #[cfg_attr(feature = "check-inject", ignore = "the label-A checks are skipped")]
    fn pair_is_stale_when_the_zero_partner_is_a_tombstone() {
        let f = pair_file();
        let tombstone = Bucket::tombstone(BucketLink::new(ManagerId::NONE, f.one), 3);
        f.put(f.zero, &tombstone);
        let before = [f.bucket(f.zero), f.bucket(f.one)];
        let (_, paired) = f.pair(f.one, f.zero, 7);
        assert!(matches!(paired, Ok(Paired::Stale)), "{paired:?}");
        assert_eq!(f.locks.total_granted(), 0);
        assert_eq!([f.bucket(f.zero), f.bucket(f.one)], before);
    }

    #[test]
    #[cfg_attr(feature = "check-inject", ignore = "the label-A checks are skipped")]
    fn pair_is_stale_when_a_split_moved_the_key() {
        let f = pair_file();
        // `11` split while unlocked: its page keeps the `011` half, and
        // key 7 (`111`) went to the new page.
        let mut kept = Bucket::new(3, 0b011);
        kept.prev = f.zero;
        f.put(f.one, &kept);
        let (_, paired) = f.pair(f.one, f.zero, 7);
        assert!(matches!(paired, Ok(Paired::Stale)), "{paired:?}");
        assert_eq!(f.locks.total_granted(), 0);
        assert_eq!(f.bucket(f.one), kept);
    }
}
