//! Metrics-correctness under concurrency: the unified plane must not
//! lose or invent counts.
//!
//! * Conservation: every operation issued by every thread shows up in
//!   exactly one of the `core.*` outcome counters.
//! * Monotonicity: snapshots taken *while* writers are mutating only
//!   ever move forward — a later snapshot never shows a smaller counter
//!   than an earlier one (the sharded counters are increment-only).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ceh_core::{ConcurrentHashFile, Solution1, Solution1Options, Solution2};
use ceh_types::{Error, HashFileConfig, Key, Value};

const THREADS: u64 = 4;
const OPS_PER_THREAD: u64 = 2_000;

/// Run a deterministic mixed workload and return (finds, inserts,
/// deletes) issued.
fn hammer(file: &Arc<dyn ConcurrentHashFile>) -> (u64, u64, u64) {
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let file = Arc::clone(file);
            std::thread::spawn(move || {
                let (mut finds, mut inserts, mut deletes) = (0u64, 0u64, 0u64);
                for i in 0..OPS_PER_THREAD {
                    // Overlapping key space across threads so some
                    // operations hit, some miss, some race.
                    let k = Key((t * OPS_PER_THREAD / 2 + i) % 1024);
                    match i % 4 {
                        0 | 1 => {
                            file.insert(k, Value(i)).expect("insert");
                            inserts += 1;
                        }
                        2 => {
                            file.find(k).expect("find");
                            finds += 1;
                        }
                        _ => {
                            file.delete(k).expect("delete");
                            deletes += 1;
                        }
                    }
                }
                (finds, inserts, deletes)
            })
        })
        .collect();
    let mut total = (0, 0, 0);
    for h in handles {
        let (f, i, d) = h.join().expect("worker");
        total.0 += f;
        total.1 += i;
        total.2 += d;
    }
    total
}

fn check_conservation(file: Arc<dyn ConcurrentHashFile>) {
    let (finds, inserts, deletes) = hammer(&file);
    let m = file.metrics().snapshot();
    assert_eq!(
        m.counter("core.finds_hit") + m.counter("core.finds_miss"),
        finds,
        "find outcomes conserve"
    );
    assert_eq!(
        m.counter("core.inserts") + m.counter("core.inserts_duplicate"),
        inserts,
        "insert outcomes conserve"
    );
    assert_eq!(
        m.counter("core.deletes") + m.counter("core.deletes_miss"),
        deletes,
        "delete outcomes conserve"
    );
    // The same totals must be visible through the layers below: every
    // update acquired at least one lock (a find answered without locks
    // takes none), and grants == releases at quiescence.
    let grants = m.counter("locks.grants.rho")
        + m.counter("locks.grants.alpha")
        + m.counter("locks.grants.xi");
    assert!(grants > 0, "lock layer recorded");
    // A conversion is an *additional* grant in the new mode that the
    // owner later releases separately, so at quiescence every grant has
    // exactly one matching release.
    assert_eq!(grants, m.counter("locks.releases"), "every grant released");
    assert_eq!(
        m.counter("core.find_fast") + m.counter("core.find_fallback"),
        finds,
        "every find took one path"
    );
    assert!(m.counter("storage.reads") > 0, "storage layer recorded");
}

#[test]
fn solution1_ops_issued_equal_ops_counted() {
    let f = Solution1::new(HashFileConfig::tiny().with_bucket_capacity(8)).unwrap();
    check_conservation(Arc::new(f));
}

#[test]
fn solution2_ops_issued_equal_ops_counted() {
    let f = Solution2::new(HashFileConfig::tiny().with_bucket_capacity(8)).unwrap();
    check_conservation(Arc::new(f));
}

/// An operation that fails mid-protocol drops its locks with
/// `release_all`; each lock it drops must count as a release, or the
/// grants/releases balance breaks after every error. A one-record bucket
/// under a depth-2 directory runs out of directory within a few inserts.
#[test]
fn grants_balance_releases_after_a_failed_insert() {
    let f = Solution2::new(
        HashFileConfig::tiny()
            .with_bucket_capacity(1)
            .with_max_depth(2),
    )
    .unwrap();
    let mut failed = false;
    for k in 0..64 {
        match f.insert(Key(k), Value(k)) {
            Ok(_) => {}
            Err(Error::DirectoryFull { .. }) => {
                failed = true;
                break;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(failed, "the directory filled up");
    f.flush_gc();
    let m = f.metrics().snapshot();
    assert_eq!(
        m.counter("locks.grants.rho")
            + m.counter("locks.grants.alpha")
            + m.counter("locks.grants.xi"),
        m.counter("locks.releases"),
        "every grant released, the failed insert's included"
    );
    assert_eq!(f.core().locks().total_granted(), 0);
}

/// Finds that nobody contends with take no lock at all: each is one
/// validated lock-free pass. The locked protocol they fall back to (here
/// the pessimistic Solution 1 variant, which always runs it) is granted
/// on the lock words alone: none of its requests reaches the waiter
/// table.
#[test]
fn uncontended_finds_stay_off_the_waiter_table() {
    let fast = Solution2::new(HashFileConfig::tiny().with_bucket_capacity(8)).unwrap();
    let locked = Solution1::with_options(
        HashFileConfig::tiny().with_bucket_capacity(8),
        Solution1Options {
            pessimistic_find: true,
        },
    )
    .unwrap();
    for (file, grants_per_find) in [
        (&fast as &dyn ConcurrentHashFile, 0),
        (&locked as &dyn ConcurrentHashFile, 2),
    ] {
        for k in 0..256 {
            file.insert(Key(k), Value(k)).unwrap();
        }
        let before = file.metrics().snapshot();
        for i in 0..10_000u64 {
            file.find(Key(i % 512)).unwrap();
        }
        let d = file.metrics().snapshot().since(&before);
        assert_eq!(d.counter("locks.slow_path"), 0, "{}", file.name());
        assert_eq!(
            d.counter("locks.grants.rho"),
            10_000 * grants_per_find,
            "{}: {grants_per_find} ρ grants per find",
            file.name()
        );
        assert_eq!(
            d.counter("core.find_fast") + d.counter("core.find_fallback"),
            10_000
        );
        assert_eq!(
            d.counter("core.find_fallback"),
            10_000 * grants_per_find / 2
        );
    }
}

#[test]
fn snapshots_are_monotone_under_concurrent_mutation() {
    let file: Arc<dyn ConcurrentHashFile> =
        Arc::new(Solution2::new(HashFileConfig::tiny().with_bucket_capacity(8)).unwrap());
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..THREADS)
        .map(|t| {
            let file = Arc::clone(&file);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let k = Key((t * 5000 + i) % 2048);
                    let _ = file.insert(k, Value(i));
                    let _ = file.find(k);
                    if i % 3 == 0 {
                        let _ = file.delete(k);
                    }
                    i += 1;
                }
            })
        })
        .collect();

    let handle = file.metrics();
    let mut prev = handle.snapshot();
    for _ in 0..50 {
        let cur = handle.snapshot();
        for (name, &earlier) in &prev.counters {
            let later = cur.counter(name);
            assert!(
                later >= earlier,
                "counter {name} went backwards: {earlier} -> {later}"
            );
        }
        for (name, h) in &prev.hists {
            let later = cur.hist(name).expect("histogram persists");
            assert!(
                later.count >= h.count,
                "histogram {name} lost samples: {} -> {}",
                h.count,
                later.count
            );
        }
        prev = cur;
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().expect("writer");
    }
}

/// Run `op` alone on a loaded file and return how far each counter in
/// `names` moved.
fn counts_of(
    file: &dyn ConcurrentHashFile,
    names: &[&str],
    op: impl FnOnce(),
) -> Vec<(String, u64)> {
    let before = file.metrics().snapshot();
    op();
    let after = file.metrics().snapshot();
    names
        .iter()
        .map(|&n| (n.to_string(), after.counter(n) - before.counter(n)))
        .collect()
}

/// An insert or delete that does not restructure its bucket reads the
/// page once and writes it once. Solution 2 takes one grant, α (insert)
/// or ξ (delete) on the page, by the fast path's CAS and no ρ at all;
/// Solution 1 takes α or ξ on the directory and on the page, as ever.
#[test]
fn a_non_restructuring_update_reads_and_writes_its_page_once() {
    const NAMES: [&str; 9] = [
        "storage.reads",
        "storage.writes",
        "locks.grants.rho",
        "locks.grants.alpha",
        "locks.grants.xi",
        "core.splits",
        "core.merges",
        "core.update_fast",
        "core.update_fallback",
    ];
    let counts = |pairs: [u64; 9]| -> Vec<(String, u64)> {
        NAMES
            .iter()
            .zip(pairs)
            .map(|(n, v)| (n.to_string(), v))
            .collect()
    };
    let cfg = HashFileConfig::tiny().with_bucket_capacity(64);
    let s2 = Solution2::new(cfg.clone()).unwrap();
    let s1 = Solution1::new(cfg).unwrap();
    let files: [(&dyn ConcurrentHashFile, [u64; 9], [u64; 9]); 2] = [
        (
            &s2,
            [1, 1, 0, 1, 0, 0, 0, 1, 0],
            [1, 1, 0, 0, 1, 0, 0, 1, 0],
        ),
        (
            &s1,
            [1, 1, 0, 2, 0, 0, 0, 0, 0],
            [1, 1, 0, 0, 2, 0, 0, 0, 0],
        ),
    ];
    for (file, insert, delete) in files {
        for k in 0..500u64 {
            file.insert(Key(k), Value(k)).unwrap();
        }
        for k in 0..100u64 {
            assert_eq!(
                counts_of(file, &NAMES, || {
                    file.delete(Key(k)).unwrap();
                }),
                counts(delete),
                "{} delete of key {k}",
                file.name()
            );
            assert_eq!(
                counts_of(file, &NAMES, || {
                    file.insert(Key(k), Value(k)).unwrap();
                }),
                counts(insert),
                "{} insert of key {k}",
                file.name()
            );
        }
    }
}

/// The directory costs what it uses: after 2^14 keys at `realistic()`
/// (`max_depth` 22), `core.dir_bytes` is one entry per live directory
/// slot, rounded up to the first 64-entry segment, not 2^22 entries
/// (32 MiB). The store's gauges count its slots and free list.
#[test]
fn gauges_say_where_the_memory_goes() {
    let file = Solution2::new(HashFileConfig::realistic()).unwrap();
    for k in 0..1u64 << 14 {
        file.insert(Key(k), Value(k)).unwrap();
    }
    let gauges = file.metrics().snapshot();
    let depth = file.core().dir().depth();
    let entry = std::mem::size_of::<ceh_locks::shadow::TrackedAtomicU64>() as i64;
    assert_eq!(
        gauges.gauge("core.dir_bytes"),
        entry * (1i64 << depth).max(64),
        "depth {depth}"
    );
    assert!(gauges.gauge("core.dir_bytes") < 1 << 20, "not pre-sized");
    let store = file.core().store();
    assert_eq!(
        gauges.gauge("storage.slot_capacity"),
        store.capacity() as i64
    );
    assert_eq!(
        gauges.gauge("storage.free_pages"),
        (store.capacity() - store.allocated_pages()) as i64
    );
}
