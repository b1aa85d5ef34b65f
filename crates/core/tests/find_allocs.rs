//! A warm find allocates nothing.
//!
//! Figure 5's find reads one bucket page. On the memory backend it scans
//! the page's words in place with no lock and validates the page's
//! version (falling back to two ρ locks when a writer overlaps it): no
//! page buffer, no decoded record vector, no lock-table entry. So once
//! the file is loaded, hits and misses alike run without touching the
//! heap. A counting global allocator with a per-thread counter checks
//! that exactly.

mod alloc_counter;

use alloc_counter::allocs;
use ceh_core::{ConcurrentHashFile, Solution2};
use ceh_types::{HashFileConfig, Key, Value};

const KEYS: u64 = 50_000;

#[test]
fn warm_finds_allocate_nothing() {
    let file = Solution2::new(HashFileConfig::realistic()).unwrap();
    // Even keys are resident, odd keys are misses.
    for i in 0..KEYS {
        file.insert(Key(2 * i), Value(i)).unwrap();
    }
    // Warm-up: the lock table's shards reach their steady size.
    for i in 0..1_000 {
        assert_eq!(file.find(Key(2 * i)).unwrap(), Some(Value(i)));
        assert_eq!(file.find(Key(2 * i + 1)).unwrap(), None);
    }

    let before = allocs();
    for i in 0..KEYS {
        assert_eq!(file.find(Key(2 * i)).unwrap(), Some(Value(i)));
    }
    for i in 0..KEYS {
        assert_eq!(file.find(Key(2 * i + 1)).unwrap(), None);
    }
    let counted = allocs() - before;
    assert_eq!(
        counted,
        0,
        "{counted} heap allocations over {} warm finds",
        2 * KEYS
    );
}
