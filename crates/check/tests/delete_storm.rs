//! A delete-heavy storm on both solutions, checked for linearizability.
//!
//! Finds answer from a lock-free pass over their page whenever it
//! validates, and fall back to the ρ protocol when a writer overlapped it
//! or held ξ on the page. Deletes are what open ξ windows (Solution 1
//! holds ξ on the directory and both partners of a merge; Solution 2
//! holds ξ on both partners while it writes the survivor and then the
//! tombstone, and again while it frees the tombstone), so a delete-heavy
//! mix over a small key space, on tiny buckets, keeps finds running
//! beside merges. Solution 2's inserts and deletes that need no split or
//! merge run the in-bucket fast path (a validated read, then one CAS to
//! α or ξ) beside both, and fall back to Figures 8–9 when a writer or a
//! lock holder overlapped them. The recorded history must check out
//! exactly against the sequential model (the Wing–Gong search of
//! `check_linearizable`).

use std::collections::HashMap;
use std::sync::Arc;

use ceh_check::{check_linearizable, Strictness};
use ceh_core::{ConcurrentHashFile, Solution1, Solution2};
use ceh_types::{HashFileConfig, Key, Value};

const THREADS: u64 = 4;
const OPS: usize = 1_500;
const KEYS: u64 = 48;

/// A small deterministic generator (xorshift64*), one per thread.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

fn storm(file: &Arc<dyn ConcurrentHashFile>, seed: u64, fast_updates: bool) {
    let metrics = file.metrics();
    let mut init = HashMap::new();
    for k in 0..KEYS {
        file.insert(Key(k), Value(k + 1000)).unwrap();
        init.insert(k, k + 1000);
    }
    let before = metrics.snapshot();
    metrics.history().enable();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let file = Arc::clone(file);
            s.spawn(move || {
                let mut rng = Rng(seed ^ (t + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                for i in 0..OPS {
                    let k = rng.next() % KEYS;
                    match rng.next() % 100 {
                        0..=34 => drop(file.find(Key(k)).unwrap()),
                        35..=59 => drop(file.insert(Key(k), Value(i as u64)).unwrap()),
                        _ => drop(file.delete(Key(k)).unwrap()),
                    }
                }
            });
        }
    });
    metrics.history().disable();
    let records = metrics.history().drain();
    if let Err(v) = check_linearizable(&init, &records, Strictness::Exact) {
        panic!("{}: history not linearizable: {v}", file.name());
    }
    let d = metrics.snapshot().since(&before);
    assert!(d.counter("core.merges") > 0, "{}: no merge", file.name());
    assert!(
        d.counter("core.find_fast") > 0,
        "{}: no lock-free find",
        file.name()
    );
    assert_eq!(
        d.counter("core.update_fast") > 0,
        fast_updates,
        "{}: in-bucket fast updates",
        file.name()
    );
}

#[test]
fn delete_heavy_storm_solution1_is_linearizable() {
    let file: Arc<dyn ConcurrentHashFile> =
        Arc::new(Solution1::new(HashFileConfig::tiny()).unwrap());
    storm(&file, 0x5EED_0001, false);
}

#[test]
fn delete_heavy_storm_solution2_is_linearizable() {
    let file: Arc<dyn ConcurrentHashFile> =
        Arc::new(Solution2::new(HashFileConfig::tiny()).unwrap());
    storm(&file, 0x5EED_0002, true);
}
