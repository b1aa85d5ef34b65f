//! Lock-manager stress tests: under random schedules, the manager must
//! never simultaneously grant two incompatible locks on one resource, and
//! it must reach quiescence (every grant released, no stuck waiters).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use ceh_locks::{compatible, FixedWords, LockId, LockManager, LockManagerConfig, LockMode};
use ceh_types::PageId;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// External observer: records which (resource, mode) pairs are *believed
/// held* by test threads and asserts pairwise compatibility on each entry.
/// The lock manager itself is not consulted — this validates its behaviour
/// from outside.
#[derive(Default)]
struct HeldTracker {
    held: Mutex<HashMap<LockId, Vec<(u64, LockMode)>>>,
}

impl HeldTracker {
    fn enter(&self, thread: u64, id: LockId, mode: LockMode) {
        let mut held = self.held.lock();
        let entry = held.entry(id).or_default();
        for &(other_thread, other_mode) in entry.iter() {
            assert!(
                other_thread == thread || compatible(mode, other_mode),
                "incompatible simultaneous grants on {id}: thread {thread} got {mode} \
                 while thread {other_thread} holds {other_mode}"
            );
        }
        entry.push((thread, mode));
    }

    fn exit(&self, thread: u64, id: LockId, mode: LockMode) {
        let mut held = self.held.lock();
        let entry = held.get_mut(&id).expect("exit without enter");
        let pos = entry
            .iter()
            .position(|&(t, m)| t == thread && m == mode)
            .expect("exit without matching enter");
        entry.remove(pos);
    }
}

#[test]
fn random_schedules_never_violate_compatibility() {
    let mgr = Arc::new(LockManager::new(
        LockManagerConfig {
            watchdog: Some(Duration::from_secs(10)),
            ..Default::default()
        },
        FixedWords::new(16),
    ));
    let tracker = Arc::new(HeldTracker::default());
    const THREADS: u64 = 8;
    const OPS: usize = 4000;
    const RESOURCES: u64 = 5; // few resources → heavy contention

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let mgr = Arc::clone(&mgr);
            let tracker = Arc::clone(&tracker);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(0xE1115 + t);
                for _ in 0..OPS {
                    let id = if rng.random_bool(0.3) {
                        LockId::Directory
                    } else {
                        LockId::Page(PageId(rng.random_range(0..RESOURCES)))
                    };
                    let mode = match rng.random_range(0..10) {
                        0..=5 => LockMode::Rho,
                        6..=8 => LockMode::Alpha,
                        _ => LockMode::Xi,
                    };
                    let owner = mgr.new_owner();
                    mgr.lock(owner, id, mode);
                    tracker.enter(t, id, mode);
                    // Tiny critical section with occasional nested lock on
                    // a second resource, always acquired in a global order
                    // (Directory first, then ascending pages) so the test
                    // itself cannot deadlock.
                    if rng.random_bool(0.2) {
                        if let LockId::Page(p) = id {
                            let second = LockId::Page(PageId(p.0 + RESOURCES));
                            mgr.lock(owner, second, LockMode::Rho);
                            tracker.enter(t, second, LockMode::Rho);
                            tracker.exit(t, second, LockMode::Rho);
                            mgr.unlock(owner, second, LockMode::Rho);
                        }
                    }
                    std::hint::spin_loop();
                    tracker.exit(t, id, mode);
                    mgr.unlock(owner, id, mode);
                }
            })
        })
        .collect();

    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(mgr.total_granted(), 0, "all locks released at quiescence");
    assert!(mgr.detect_deadlock().is_none());
    let stats = mgr.stats();
    assert_eq!(stats.total_grants(), stats.releases);
}

#[test]
fn conversion_storm_makes_progress() {
    // Many owners concurrently do the Figure-8 pattern: hold ρ on the
    // directory, convert to α, release both. With queue-bypassing
    // conversions this must complete; with naive queuing it deadlocks
    // whenever a ξ waiter wedges between ρ and α.
    let mgr = Arc::new(LockManager::new(
        LockManagerConfig {
            watchdog: Some(Duration::from_secs(10)),
            ..Default::default()
        },
        FixedWords::new(16),
    ));
    let dir = LockId::Directory;

    let converters: Vec<_> = (0..6)
        .map(|t| {
            let mgr = Arc::clone(&mgr);
            std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(t);
                for _ in 0..500 {
                    let o = mgr.new_owner();
                    mgr.lock(o, dir, LockMode::Rho);
                    if rng.random_bool(0.5) {
                        mgr.lock(o, dir, LockMode::Alpha);
                        mgr.unlock(o, dir, LockMode::Alpha);
                    }
                    mgr.unlock(o, dir, LockMode::Rho);
                }
            })
        })
        .collect();
    // Meanwhile ξ lockers keep arriving (the Figure-9 GC phase).
    let xi_lockers: Vec<_> = (0..2)
        .map(|t| {
            let mgr = Arc::clone(&mgr);
            std::thread::spawn(move || {
                let _ = t;
                for _ in 0..100 {
                    let o = mgr.new_owner();
                    mgr.lock(o, dir, LockMode::Xi);
                    mgr.unlock(o, dir, LockMode::Xi);
                }
            })
        })
        .collect();

    for h in converters.into_iter().chain(xi_lockers) {
        h.join().unwrap();
    }
    assert_eq!(mgr.total_granted(), 0);
}
