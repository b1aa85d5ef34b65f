//! Invariant storms: randomized mixed workloads over every configuration
//! axis (implementation × bucket capacity × merge threshold × key
//! distribution), with the full structural invariant sweep at quiescence.

use std::sync::Arc;

use ceh_core::{invariants, ConcurrentHashFile, Solution1, Solution1Options, Solution2};
use ceh_types::{HashFileConfig, Key, Value};
use ceh_workload::{KeyDist, Op, OpMix, WorkloadGen};

fn storm<F: ConcurrentHashFile + 'static>(
    file: Arc<F>,
    threads: u64,
    ops: usize,
    dist: KeyDist,
    mix: OpMix,
    seed: u64,
) {
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            let file = Arc::clone(&file);
            std::thread::spawn(move || {
                let mut gen = WorkloadGen::new(seed + t, dist, 256, mix);
                for _ in 0..ops {
                    match gen.next_op() {
                        Op::Find(k) => {
                            file.find(k).unwrap();
                        }
                        Op::Insert(k, v) => {
                            file.insert(k, v).unwrap();
                        }
                        Op::Delete(k) => {
                            file.delete(k).unwrap();
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn storm_matrix_solution1() {
    for (cap, thr) in [(2usize, 0usize), (4, 1), (8, 2)] {
        for dist in [KeyDist::Uniform, KeyDist::Zipf { theta: 0.9 }] {
            let cfg = HashFileConfig::tiny()
                .with_bucket_capacity(cap)
                .with_merge_threshold(thr);
            let f = Arc::new(Solution1::new(cfg).unwrap());
            storm(
                Arc::clone(&f),
                6,
                1200,
                dist,
                OpMix::BALANCED,
                0x100 + cap as u64,
            );
            invariants::check_concurrent_file(f.core())
                .unwrap_or_else(|e| panic!("cap {cap} thr {thr} {dist:?}: {e}"));
        }
    }
}

#[test]
fn storm_matrix_solution2() {
    for (cap, thr) in [(2usize, 0usize), (4, 1), (8, 2)] {
        for dist in [KeyDist::Uniform, KeyDist::Zipf { theta: 0.9 }] {
            let cfg = HashFileConfig::tiny()
                .with_bucket_capacity(cap)
                .with_merge_threshold(thr);
            let f = Arc::new(Solution2::new(cfg).unwrap());
            storm(
                Arc::clone(&f),
                6,
                1200,
                dist,
                OpMix::BALANCED,
                0x200 + cap as u64,
            );
            invariants::check_concurrent_file(f.core())
                .unwrap_or_else(|e| panic!("cap {cap} thr {thr} {dist:?}: {e}"));
        }
    }
}

#[test]
fn storm_update_heavy_churn() {
    for mix in [OpMix::UPDATE_HEAVY, OpMix::CHURN] {
        let f = Arc::new(Solution2::new(HashFileConfig::tiny()).unwrap());
        storm(Arc::clone(&f), 8, 1500, KeyDist::Uniform, mix, 0x300);
        invariants::check_concurrent_file(f.core()).unwrap();
        let s = f.core().stats().snapshot();
        assert!(s.splits > 0, "churn must split");
        assert!(s.merges > 0, "churn must merge");
    }
}

/// The pessimistic Solution 1 find holds the directory ρ until it holds
/// the right bucket. That excludes every deleter — Figure 7 holds ξ on
/// the directory — for the whole search, but not a splitter: Figure 6's
/// inserter holds α on the directory, which ρ admits, and rewrites the
/// old page before it updates the directory, so a reader whose lookup
/// precedes the update and whose read follows the rewrite still recovers
/// through `next`. The storm checks the two apart. Under a balanced mix
/// every recovery has a split in flight to blame: at most one per other
/// thread per split. Under finds and deletes alone, where the only
/// restructuring is the merges the variant's ρ excludes, there is none.
#[test]
fn storm_pessimistic_find_variant() {
    const THREADS: u64 = 6;
    let pessimistic = || {
        Arc::new(
            Solution1::with_options(
                HashFileConfig::tiny(),
                Solution1Options {
                    pessimistic_find: true,
                },
            )
            .unwrap(),
        )
    };
    let f = pessimistic();
    storm(
        Arc::clone(&f),
        THREADS,
        1000,
        KeyDist::Uniform,
        OpMix::BALANCED,
        0x400,
    );
    invariants::check_concurrent_file(f.core()).unwrap();
    let s = f.core().stats().snapshot();
    assert!(
        s.wrong_bucket_recoveries <= s.splits * (THREADS - 1),
        "{} recoveries, {} splits: only splits in flight cause them",
        s.wrong_bucket_recoveries,
        s.splits
    );

    let f = pessimistic();
    storm(
        Arc::clone(&f),
        1,
        2000,
        KeyDist::Uniform,
        OpMix::new(0, 100, 0),
        0x410,
    );
    let loaded = f.core().stats().snapshot();
    storm(
        Arc::clone(&f),
        THREADS,
        1000,
        KeyDist::Uniform,
        OpMix::new(50, 0, 50),
        0x420,
    );
    invariants::check_concurrent_file(f.core()).unwrap();
    let s = f.core().stats().snapshot().since(&loaded);
    assert!(s.merges > 0, "the deletes must merge");
    assert_eq!(s.splits, 0);
    assert_eq!(
        s.wrong_bucket_recoveries, 0,
        "holding the directory ρ-lock precludes wrong buckets from merges"
    );
}

#[test]
fn storm_sequential_keys_exercise_hash_avalanche() {
    let f = Arc::new(Solution2::new(HashFileConfig::tiny()).unwrap());
    storm(
        Arc::clone(&f),
        4,
        2000,
        KeyDist::Sequential,
        OpMix::READ_MOSTLY,
        0x500,
    );
    invariants::check_concurrent_file(f.core()).unwrap();
    // Sequential keys must still spread across many buckets.
    let snap = invariants::snapshot_core(f.core()).unwrap();
    if f.len() > 32 {
        assert!(snap.bucket_count() > 4, "hash must spread sequential keys");
    }
}

#[test]
fn repeated_grow_shrink_cycles_reach_a_steady_state() {
    // The paper's merging is deletion-triggered, so emptied buckets whose
    // partners were deeper at their last delete legitimately persist
    // (nothing ever deletes from them again). What must NOT happen is
    // unbounded growth across grow/shrink cycles: merges and halving
    // keep the structure's footprint at a steady state.
    let f = Solution2::new(HashFileConfig::tiny()).unwrap();
    let mut pages_after_round = Vec::new();
    for round in 0..10u64 {
        for k in 0..150u64 {
            f.insert(Key(k * 10 + round), Value(k)).unwrap();
        }
        for k in 0..150u64 {
            f.delete(Key(k * 10 + round)).unwrap();
        }
        invariants::check_concurrent_file(f.core()).unwrap();
        pages_after_round.push(f.core().store().allocated_pages());
    }
    assert!(f.is_empty());
    let first = pages_after_round[0];
    let last = *pages_after_round.last().unwrap();
    assert!(
        last <= first * 3 + 8,
        "page footprint must reach a steady state, not grow every cycle: {pages_after_round:?}"
    );
    let s = f.core().stats().snapshot();
    assert!(
        s.merges > 0 && s.halvings > 0,
        "shrinking must actually merge and halve: {s:?}"
    );
}
