//! The page store's slots live inline in zeroed segments: a slot costs
//! memory once it is touched, sits at a fixed stride in its segment and
//! never moves. Its own test binary with one test, so that no other
//! test's allocations show in the process's resident set.

use std::sync::atomic::AtomicU64;

use ceh_locks::HeaderWords;
use ceh_storage::{Buckets, PageStore, PageStoreConfig};
use ceh_types::{HashFileConfig, PageId};

/// This process's resident set in bytes (`VmRSS` in /proc/self/status).
fn rss() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    let kib: usize = line.split_whitespace().nth(1).unwrap().parse().unwrap();
    kib * 1024
}

/// The address of page `p`'s slot (its header word).
fn slot(store: &PageStore, p: u64) -> usize {
    store.header(PageId(p)).expect("a published page") as *const AtomicU64 as usize
}

#[test]
fn slots_are_inline_aligned_and_cost_what_is_touched() {
    const STRIDE: usize = 4096;
    let cfg = PageStoreConfig {
        initial_pages: 0,
        ..Buckets::page_config(&HashFileConfig::realistic())
    };
    assert_eq!(
        cfg.page_size + 8,
        STRIDE,
        "realistic()'s slot: header + page"
    );
    let store = PageStore::new(cfg.clone());
    let before = rss();
    for _ in 0..4096 {
        store.alloc().unwrap();
    }
    let first: Vec<usize> = (0..4096).map(|p| slot(&store, p)).collect();
    // Page 4096 opens the segment of pages 4096..8192: 16 MiB, of which
    // only the first slot's header is written.
    assert_eq!(store.alloc().unwrap(), PageId(4096));
    let grown = rss().saturating_sub(before);
    let touched = 4097 * STRIDE;
    assert!(
        grown < touched + (4 << 20),
        "RSS grew {grown} bytes for {touched} touched: a segment's untouched tail is resident"
    );

    for p in 0..4097u64 {
        let at = slot(&store, p);
        assert_eq!(at % STRIDE, 0, "page {p}'s slot is 4 KiB-aligned");
        let opens_segment = p >= 64 && p.is_power_of_two();
        if p > 0 && !opens_segment {
            assert_eq!(at - slot(&store, p - 1), STRIDE, "page {p}");
        }
    }
    assert!(
        (0..4096).all(|p| slot(&store, p as u64) == first[p]),
        "growth moved no slot"
    );
    assert!(
        store.header(PageId(4097)).is_none(),
        "a zeroed slot not yet published is not a page"
    );

    // `restore` reproduces the allocation map and the pages.
    for p in [3, 64, 4096] {
        store.dealloc(PageId(p)).unwrap();
    }
    let mut buf = store.new_buf();
    buf[..8].copy_from_slice(&77u64.to_le_bytes());
    store.write(PageId(5), &buf).unwrap();
    let pages = (0..4097)
        .map(|p| {
            let mut page = store.new_buf();
            store.read(PageId(p), &mut page).ok().map(|()| page)
        })
        .collect();
    let restored = PageStore::restore(cfg, pages, &ceh_obs::MetricsHandle::default());
    assert_eq!(restored.allocated_page_ids(), store.allocated_page_ids());
    assert_eq!(restored.capacity(), 4097);
    let mut out = restored.new_buf();
    restored.read(PageId(5), &mut out).unwrap();
    assert_eq!(&*out, &*buf);
    assert_eq!(
        restored.alloc().unwrap(),
        PageId(3),
        "the lowest free page first"
    );
}
