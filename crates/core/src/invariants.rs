//! Quiescent structural invariant checking for the concurrent files.
//!
//! Run when no operations are in flight (the stress tests quiesce first).
//! It checks what the sequential file checks — the Fagin-79 invariants
//! (directory/commonbits/refcount/depthcount consistency, see
//! [`ceh_sequential::FileSnapshot::check_invariants`]) and the link
//! invariants the §2.3/§2.5 correctness arguments rest on (the `next`
//! chain visits every bucket in split order, every `prev` names the "0"
//! side; see [`ceh_sequential::FileSnapshot::check_links`]) — and adds:
//!
//! 1. **No tombstones at rest**: buckets marked deleted (Solution 2) are
//!    unreachable and deallocated once garbage collection has run.
//! 2. **No leaks**: every allocated page in the store is referenced by
//!    the directory.
//! 3. **No locks at rest.**

use std::collections::BTreeSet;

use ceh_sequential::FileSnapshot;
use ceh_types::{Error, PageId, Result};

use crate::common::FileCore;

/// Capture a [`FileSnapshot`] of a concurrent file's current structure.
/// Quiescent use only.
pub fn snapshot_core(core: &FileCore) -> Result<FileSnapshot> {
    FileSnapshot::capture(core.buckets(), core.dir(), core.config().bucket_capacity)
}

/// Check every structural invariant of a quiescent concurrent file.
pub fn check_concurrent_file(core: &FileCore) -> Result<()> {
    let snap = snapshot_core(core)?;
    // The sequential invariants (1-7 in ceh-sequential's docs).
    snap.check_invariants(core.hasher())?;

    // Record count agrees with the maintained len.
    if snap.total_records() != core.len() {
        return Err(Error::Corrupt(format!(
            "len() is {} but the structure holds {} records",
            core.len(),
            snap.total_records()
        )));
    }

    // No tombstones reachable at rest.
    for (&p, b) in &snap.buckets {
        if b.is_deleted() {
            return Err(Error::Corrupt(format!(
                "{p} is a reachable tombstone at quiescence"
            )));
        }
    }

    snap.check_links()?;

    // Leak check: every allocated page is a directory-referenced bucket.
    let reachable: BTreeSet<PageId> = snap.buckets.keys().copied().collect();
    for p in core.store().allocated_page_ids() {
        if !reachable.contains(&p) {
            return Err(Error::Corrupt(format!(
                "{p} is allocated but unreachable (leak)"
            )));
        }
    }

    // All locks released.
    if core.locks().total_granted() != 0 {
        return Err(Error::Corrupt(format!(
            "{} locks still granted at quiescence",
            core.locks().total_granted()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution1::Solution1;
    use crate::traits::ConcurrentHashFile;
    use ceh_types::{HashFileConfig, Key, Value};

    #[test]
    fn fresh_file_passes() {
        let f = Solution1::new(HashFileConfig::tiny()).unwrap();
        check_concurrent_file(f.core()).unwrap();
    }

    #[test]
    fn populated_file_passes_and_chain_is_total() {
        let f = Solution1::new(HashFileConfig::tiny()).unwrap();
        for k in 0..100u64 {
            f.insert(Key(k), Value(k)).unwrap();
        }
        let snap = snapshot_core(f.core()).unwrap();
        assert!(snap.bucket_count() > 10);
        check_concurrent_file(f.core()).unwrap();
    }

    #[test]
    fn detects_broken_chain() {
        let f = Solution1::new(HashFileConfig::tiny()).unwrap();
        for k in 0..40u64 {
            f.insert(Key(k), Value(k)).unwrap();
        }
        // Sabotage: cut one bucket's next link.
        let snap = snapshot_core(f.core()).unwrap();
        let head = snap.entries[0];
        let mut b = snap.buckets[&head].clone();
        assert!(!b.next.is_null());
        b.next = ceh_types::PageId::NULL;
        f.core().buckets().putbucket(head, &b).unwrap();
        assert!(check_concurrent_file(f.core()).is_err());
    }

    #[test]
    fn detects_reachable_tombstone() {
        let f = Solution1::new(HashFileConfig::tiny()).unwrap();
        for k in 0..10u64 {
            f.insert(Key(k), Value(k)).unwrap();
        }
        let snap = snapshot_core(f.core()).unwrap();
        let (&p, b) = snap.buckets.iter().next().unwrap();
        let mut b = b.clone();
        b.mark_deleted();
        f.core().buckets().putbucket(p, &b).unwrap();
        assert!(check_concurrent_file(f.core()).is_err());
    }

    /// The page word holding slots 0–63 of a bucket's occupancy bitmap,
    /// right after the seven header words (DESIGN.md §3.2).
    const BITMAP_WORD: usize = 7;

    /// Flip a live page of a populated file through `edit` (given the
    /// page's words and its occupied slots) and run the checker.
    fn check_after_page_edit(
        edit: impl FnOnce(&mut ceh_types::SharedPageMut<'_>, &[usize]),
    ) -> Result<()> {
        use ceh_types::PageWords;
        let f = Solution1::new(HashFileConfig::tiny().with_bucket_capacity(8)).unwrap();
        for k in 0..64u64 {
            f.insert(Key(k), Value(k)).unwrap();
        }
        check_concurrent_file(f.core()).unwrap();
        let snap = snapshot_core(f.core()).unwrap();
        let (&p, _) = snap
            .buckets
            .iter()
            .find(|(_, b)| b.count() >= 2)
            .expect("a bucket of two records");
        let slots = ceh_types::Bucket::capacity_for(f.core().store().page_size());
        f.core()
            .store()
            .with_page_mut(p, |words| {
                let used: Vec<usize> = (0..slots)
                    .filter(|&s| words.word(BITMAP_WORD + s / 64) >> (s % 64) & 1 == 1)
                    .collect();
                edit(words, &used);
            })
            .unwrap();
        check_concurrent_file(f.core())
    }

    #[test]
    fn detects_a_page_out_of_robin_hood_order() {
        use ceh_types::{PageWords, PageWordsMut, BUCKET_HEADER_BYTES};
        let err = check_after_page_edit(|words, used| {
            // Swap the first two records: a find would probe past one.
            let key = |s: usize| BUCKET_HEADER_BYTES / 8 + 2 * s;
            let (a, b) = (key(used[0]), key(used[1]));
            let (ka, kb) = (words.word(a), words.word(b));
            words.set_word(a, kb);
            words.set_word(b, ka);
        })
        .unwrap_err();
        assert!(err.to_string().contains("Robin Hood order"), "{err}");
    }

    #[test]
    fn detects_a_bitmap_that_disagrees_with_count() {
        use ceh_types::{PageWords, PageWordsMut};
        let err = check_after_page_edit(|words, used| {
            // Clear the first occupied slot's bit; `count` stays.
            let (i, s) = (BITMAP_WORD + used[0] / 64, used[0] % 64);
            words.set_word(i, words.word(i) & !(1 << s));
        })
        .unwrap_err();
        assert!(err.to_string().contains("bitmap marks"), "{err}");
    }

    #[test]
    fn detects_page_leak() {
        let f = Solution1::new(HashFileConfig::tiny()).unwrap();
        f.insert(Key(0), Value(0)).unwrap();
        let _leaked = f.core().store().alloc().unwrap();
        let err = check_concurrent_file(f.core()).unwrap_err();
        assert!(err.to_string().contains("leak"), "{err}");
    }
}
