//! A warm insert or delete that does not restructure its bucket
//! allocates nothing.
//!
//! Figures 6–9 change one record of one page when the bucket neither
//! splits nor merges. The updater reads the page in place as a find
//! does, then edits the record in the page: no page buffer, no decoded
//! record vector. Solution 2 does it on the fast path (one CAS from the
//! validated read, the edit, one release); Solution 1 under its locks,
//! which once the lock table is warm run without touching the heap. A
//! counting global allocator with a per-thread counter checks that
//! exactly, on both solutions.

mod alloc_counter;

use alloc_counter::allocs;
use ceh_core::{ConcurrentHashFile, Solution1, Solution2};
use ceh_types::{DeleteOutcome, HashFileConfig, InsertOutcome, Key, Value};

const KEYS: u64 = 50_000;

/// Load `KEYS` keys, warm the lock table, then delete and re-insert every
/// key once. Each bucket loses a record before it regains it, so no
/// insert splits and no delete merges.
fn warm_updates_allocate_nothing(file: &dyn ConcurrentHashFile, core: &ceh_core::FileCore) {
    for k in 0..KEYS {
        file.insert(Key(k), Value(k)).unwrap();
    }
    for k in 0..1_000 {
        assert_eq!(file.delete(Key(k)).unwrap(), DeleteOutcome::Deleted);
        assert_eq!(
            file.insert(Key(k), Value(k)).unwrap(),
            InsertOutcome::Inserted
        );
    }

    let structure = core.stats().snapshot();
    let before = allocs();
    for k in 0..KEYS {
        assert_eq!(file.delete(Key(k)).unwrap(), DeleteOutcome::Deleted);
        assert_eq!(
            file.insert(Key(k), Value(k)).unwrap(),
            InsertOutcome::Inserted
        );
    }
    let counted = allocs() - before;
    let after = core.stats().snapshot();
    assert_eq!(
        (after.splits, after.merges),
        (structure.splits, structure.merges),
        "no update restructured"
    );
    assert_eq!(
        counted,
        0,
        "{counted} heap allocations over {} warm {} updates",
        2 * KEYS,
        file.name()
    );
}

#[test]
fn warm_solution2_updates_allocate_nothing() {
    let file = Solution2::new(HashFileConfig::realistic()).unwrap();
    warm_updates_allocate_nothing(&file, file.core());
}

#[test]
fn warm_solution1_updates_allocate_nothing() {
    let file = Solution1::new(HashFileConfig::realistic()).unwrap();
    warm_updates_allocate_nothing(&file, file.core());
}
