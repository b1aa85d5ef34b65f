//! Interleavings of the lock word's fast path with the waiter table.
//!
//! Uncontended requests are granted by one CAS on the resource's word
//! and never see the waiter table; a conflicting request marks the word
//! queued and waits there. These tests drive both at once on the
//! directory — the one resource every operation locks — and check from
//! outside that the §2.3 fairness rule still holds (a waiting ξ is not
//! starved by readers that keep arriving on the fast path) and that no
//! incompatible grants ever overlap.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ceh_locks::{compatible, LockId, LockManager, LockManagerConfig, LockMode, OwnerId};
use parking_lot::Mutex;

/// External observer of the directory's grants, as `stress.rs`'s
/// `HeldTracker` does for many resources: the modes test threads believe
/// they hold, checked pairwise on every entry.
#[derive(Default)]
struct HeldTracker {
    held: Mutex<Vec<(u64, LockMode)>>,
}

impl HeldTracker {
    fn enter(&self, thread: u64, mode: LockMode) {
        let mut held = self.held.lock();
        for &(other, other_mode) in held.iter() {
            assert!(
                other == thread || compatible(mode, other_mode),
                "incompatible simultaneous grants: thread {thread} got {mode} \
                 while thread {other} holds {other_mode}"
            );
        }
        held.push((thread, mode));
    }

    fn exit(&self, thread: u64, mode: LockMode) {
        let mut held = self.held.lock();
        let pos = held
            .iter()
            .position(|&(t, m)| t == thread && m == mode)
            .expect("exit without matching enter");
        held.remove(pos);
    }
}

#[test]
fn xi_is_granted_while_readers_hammer_the_fast_path() {
    const ROUNDS: usize = 50;
    const BOUND: Duration = Duration::from_secs(5);
    let mgr = Arc::new(LockManager::new(LockManagerConfig {
        watchdog: Some(Duration::from_secs(10)),
        ..Default::default()
    }));
    let tracker = Arc::new(HeldTracker::default());
    let stop = Arc::new(AtomicBool::new(false));
    let dir = LockId::Directory;

    let readers: Vec<_> = (0..2u64)
        .map(|t| {
            let (mgr, tracker, stop) = (Arc::clone(&mgr), Arc::clone(&tracker), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut pairs = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let o = mgr.new_owner();
                    mgr.lock(o, dir, LockMode::Rho);
                    tracker.enter(t, LockMode::Rho);
                    std::hint::spin_loop();
                    tracker.exit(t, LockMode::Rho);
                    mgr.unlock(o, dir, LockMode::Rho);
                    pairs += 1;
                }
                pairs
            })
        })
        .collect();

    let mut slowest = Duration::ZERO;
    for _ in 0..ROUNDS {
        std::thread::sleep(Duration::from_millis(2));
        let o = mgr.new_owner();
        let asked = Instant::now();
        mgr.lock(o, dir, LockMode::Xi);
        slowest = slowest.max(asked.elapsed());
        tracker.enter(2, LockMode::Xi);
        std::thread::sleep(Duration::from_micros(200));
        tracker.exit(2, LockMode::Xi);
        mgr.unlock(o, dir, LockMode::Xi);
    }
    stop.store(true, Ordering::Release);
    let pairs: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();

    assert!(slowest < BOUND, "a ξ waited {slowest:?} behind readers");
    assert!(pairs > 0, "the readers made progress");
    assert_eq!(mgr.total_granted(), 0);
    let s = mgr.stats();
    assert_eq!(s.total_grants(), s.releases);
    assert_eq!(s.grants_xi, ROUNDS as u64);
}

#[test]
fn owner_ids_are_unique_across_threads_and_managers() {
    const THREADS: usize = 4;
    const PER_THREAD: usize = 10_000;
    let managers = [
        Arc::new(LockManager::default()),
        Arc::new(LockManager::default()),
    ];
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let managers = managers.clone();
            std::thread::spawn(move || {
                let mut ids: [Vec<OwnerId>; 2] = [Vec::new(), Vec::new()];
                for _ in 0..PER_THREAD {
                    for (m, ids) in managers.iter().zip(ids.iter_mut()) {
                        ids.push(m.new_owner());
                    }
                }
                ids
            })
        })
        .collect();
    let mut seen: [HashSet<OwnerId>; 2] = [HashSet::new(), HashSet::new()];
    for w in workers {
        for (seen, ids) in seen.iter_mut().zip(w.join().unwrap()) {
            for id in ids {
                assert!(seen.insert(id), "{id:?} issued twice");
            }
        }
    }
    for s in &seen {
        assert_eq!(s.len(), THREADS * PER_THREAD);
    }
}
