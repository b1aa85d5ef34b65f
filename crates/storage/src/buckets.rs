//! The bucket layer: where a bucket mutation goes.
//!
//! The paper's processes read and write buckets with `getbucket`,
//! `putbucket`, `allocbucket` and `deallocbucket`. Every hash file here
//! (the sequential file, both concurrent solutions, and each site of the
//! distributed file) does that through one [`Buckets`]: the page store,
//! plus the write-ahead log when the file is durable. It alone decides
//! whether a mutation is logged first or goes straight to the store, so
//! the protocols above it read the same either way.

use std::sync::Arc;

use ceh_locks::HeaderWords;
use ceh_obs::MetricsHandle;
use ceh_types::bucket::{append_in_place, remove_in_place, PageWordsMut};
use ceh_types::{
    Bucket, BucketView, Error, HashFileConfig, Key, ManagerId, PageId, Pseudokey, Record, Result,
    Value,
};

use crate::{DurableStore, DurableTxn, PageBuf, PageStore, PageStoreConfig};

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
        self.putbucket(page, bucket, &mut self.new_buf())?;
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

    /// A fresh page buffer.
    #[inline]
    pub fn new_buf(&self) -> PageBuf {
        self.store.new_buf()
    }

    /// `getbucket(page, buffer)`: read and decode. The page store
    /// announces the read to the race detector.
    #[inline]
    #[track_caller]
    pub fn getbucket(&self, page: PageId, buf: &mut PageBuf) -> Result<Bucket> {
        self.store.read(page, buf)?;
        Bucket::decode(buf)
    }

    /// `putbucket(page, buffer)`: encode and write, through the log first
    /// when durable (joining the thread's open transaction, else as a
    /// committed singleton).
    #[inline]
    #[track_caller]
    pub fn putbucket(&self, page: PageId, bucket: &Bucket, buf: &mut PageBuf) -> Result<()> {
        bucket.encode(buf)?;
        match &self.wal {
            Some(w) => w.write(page, buf),
            None => self.store.write(page, buf),
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
                let mut buf = self.new_buf();
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
        let mut buf = self.new_buf();
        self.store
            .allocated_page_ids()
            .into_iter()
            .map(|page| (page, self.getbucket(page, &mut buf)))
            .collect()
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
}
