//! Exhaustive lock *conversion* tests (§2.1/§2.5).
//!
//! The paper's protocols rely on three conversion shapes:
//!
//! * **ρ→α upgrade** — Figure 8's inserter holds ρ on the directory and
//!   requests α when it decides to split (likewise Figure 9's deleter);
//! * **α→ξ upgrade** — Solution 2's GC and the directory-doubling path
//!   escalate to full exclusion;
//! * **downgrades** — an owner acquires the stronger mode *alongside* the
//!   weaker one and releases the stronger, ending up with the weaker only
//!   (the manager models conversion as coexisting grants per owner).
//!
//! Conversions bypass the ordinary waiting queue (they are checked against
//! granted locks and earlier conversions only) — §2.5's deadlock-freedom
//! argument. The one genuinely deadlock-prone shape, two owners both
//! upgrading under a shared incompatible-with-upgrade hold, is pinned here
//! too: it must be *detected*, since no grant order can satisfy it.

use std::sync::Arc;
use std::thread;
use std::time::Duration;

use ceh_locks::{FixedWords, LockId, LockManager, LockMode};
use ceh_types::PageId;
use LockMode::*;

const R: LockId = LockId::Page(PageId(7));
const DIR: LockId = LockId::Directory;

/// ρ→α upgrade is granted immediately while only readers share the
/// resource (α is compatible with ρ, own grants are ignored).
#[test]
fn rho_to_alpha_upgrade_under_readers() {
    let m = LockManager::over(FixedWords::new(16));
    let up = m.new_owner();
    let reader = m.new_owner();
    m.lock(up, DIR, Rho);
    m.lock(reader, DIR, Rho);
    // The upgrade must not wait for the other ρ.
    assert!(m.try_lock(up, DIR, Alpha), "ρ→α must coexist with readers");
    assert_eq!(m.held(up, DIR).len(), 2, "ρ and α held simultaneously");
    m.unlock(up, DIR, Alpha);
    m.unlock(up, DIR, Rho);
    m.unlock(reader, DIR, Rho);
    assert_eq!(m.total_granted(), 0);
}

/// ρ→α upgrade waits for a *granted* α elsewhere (one updater at a time)
/// and proceeds when it releases.
#[test]
fn rho_to_alpha_upgrade_waits_for_other_alpha() {
    let m = Arc::new(LockManager::over(FixedWords::new(16)));
    let a = m.new_owner();
    let b = m.new_owner();
    m.lock(a, DIR, Alpha);
    m.lock(b, DIR, Rho);
    assert!(
        !m.try_lock(b, DIR, Alpha),
        "second α refused while a holds α"
    );
    let m2 = Arc::clone(&m);
    let t = thread::spawn(move || {
        m2.lock(b, DIR, Alpha); // blocks until a releases α
        m2.unlock(b, DIR, Alpha);
        m2.unlock(b, DIR, Rho);
    });
    thread::sleep(Duration::from_millis(20));
    m.unlock(a, DIR, Alpha);
    t.join().unwrap();
    assert_eq!(m.total_granted(), 0);
}

/// The §2.5 case: a ρ→α conversion must bypass a waiting ξ (queuing behind
/// it would deadlock — the ξ waits on the converter's own ρ).
#[test]
fn rho_to_alpha_bypasses_waiting_xi() {
    let m = Arc::new(LockManager::over(FixedWords::new(16)));
    let o = m.new_owner();
    m.lock(o, DIR, Rho);
    let m2 = Arc::clone(&m);
    let t = thread::spawn(move || {
        let d = m2.new_owner();
        m2.lock(d, DIR, Xi); // queues behind o's ρ
        m2.unlock(d, DIR, Xi);
    });
    thread::sleep(Duration::from_millis(20));
    m.lock(o, DIR, Alpha); // must be granted despite the queued ξ
    m.unlock(o, DIR, Alpha);
    m.unlock(o, DIR, Rho);
    t.join().unwrap();
    assert_eq!(m.total_granted(), 0);
}

/// α→ξ upgrade drains concurrent readers: refused while a ρ is out,
/// granted as soon as the owner is alone on the resource.
#[test]
fn alpha_to_xi_upgrade_waits_for_readers() {
    let m = Arc::new(LockManager::over(FixedWords::new(16)));
    let up = m.new_owner();
    let reader = m.new_owner();
    m.lock(up, R, Alpha);
    m.lock(reader, R, Rho);
    assert!(!m.try_lock(up, R, Xi), "ξ upgrade must wait for readers");
    let m2 = Arc::clone(&m);
    let t = thread::spawn(move || {
        m2.lock(up, R, Xi); // blocks until the reader leaves
        m2.unlock(up, R, Xi);
        m2.unlock(up, R, Alpha);
    });
    thread::sleep(Duration::from_millis(20));
    m.unlock(reader, R, Rho);
    t.join().unwrap();
    assert_eq!(m.total_granted(), 0);
}

/// A pending α→ξ conversion does not admit *new* ordinary requests past it
/// (ordinary waiters respect pending conversions), so the upgrade cannot be
/// starved by a reader stream.
#[test]
fn pending_xi_conversion_blocks_new_readers() {
    let m = Arc::new(LockManager::over(FixedWords::new(16)));
    let up = m.new_owner();
    let reader = m.new_owner();
    m.lock(up, R, Alpha);
    m.lock(reader, R, Rho);
    let m2 = Arc::clone(&m);
    let t = thread::spawn(move || {
        m2.lock(up, R, Xi);
        m2.unlock(up, R, Xi);
        m2.unlock(up, R, Alpha);
    });
    thread::sleep(Duration::from_millis(20)); // the ξ conversion is pending
    assert!(
        !m.try_lock(m.new_owner(), R, Rho),
        "a new ρ must not jump a pending ξ conversion"
    );
    m.unlock(reader, R, Rho);
    t.join().unwrap();
    assert_eq!(m.total_granted(), 0);
}

/// Downgrades: ξ→α→ρ by acquiring the weaker mode alongside and releasing
/// the stronger. After each step, the modes other owners can get reflect
/// exactly the remaining strength.
#[test]
fn downgrade_xi_to_alpha_to_rho() {
    let m = LockManager::over(FixedWords::new(16));
    let o = m.new_owner();
    let other = m.new_owner();
    m.lock(o, R, Xi);
    assert!(!m.try_lock(other, R, Rho), "ξ excludes readers");

    // ξ → α: acquire α (a conversion: own ξ is ignored), drop ξ.
    m.lock(o, R, Alpha);
    m.unlock(o, R, Xi);
    assert_eq!(m.held(o, R), vec![Alpha]);
    assert!(m.try_lock(other, R, Rho), "α admits readers");
    assert!(!m.try_lock(other, R, Alpha), "α still excludes updaters");
    m.unlock(other, R, Rho);

    // α → ρ: acquire ρ, drop α.
    m.lock(o, R, Rho);
    m.unlock(o, R, Alpha);
    assert_eq!(m.held(o, R), vec![Rho]);
    assert!(m.try_lock(other, R, Alpha), "ρ admits an updater");
    m.unlock(other, R, Alpha);

    m.unlock(o, R, Rho);
    assert_eq!(m.total_granted(), 0);
}

/// Two owners both holding ρ and both requesting α serialize — the paper's
/// insert/insert race resolves without deadlock because α is compatible
/// with the ρ each still holds.
#[test]
fn concurrent_rho_to_alpha_upgrades_serialize() {
    let m = Arc::new(LockManager::over(FixedWords::new(16)));
    let a = m.new_owner();
    let b = m.new_owner();
    m.lock(a, DIR, Rho);
    m.lock(b, DIR, Rho);
    m.lock(a, DIR, Alpha); // granted: α vs two ρ is fine
    assert!(!m.try_lock(b, DIR, Alpha), "second α waits for the first");
    let m2 = Arc::clone(&m);
    let t = thread::spawn(move || {
        m2.lock(b, DIR, Alpha);
        m2.unlock(b, DIR, Alpha);
        m2.unlock(b, DIR, Rho);
    });
    thread::sleep(Duration::from_millis(20));
    m.unlock(a, DIR, Alpha);
    m.unlock(a, DIR, Rho);
    t.join().unwrap();
    assert_eq!(m.total_granted(), 0);
}

/// The deadlock-prone double upgrade: two owners each hold α on the same
/// resource... α+α cannot coexist, so the true trap is two owners holding
/// *α-incompatible-with-target* modes and both escalating: here both hold
/// ρ and both request **ξ**. Each pending ξ is blocked by the other's ρ
/// forever — no grant order exists. The protocols avoid this shape by
/// escalating through α (see `concurrent_rho_to_alpha_upgrades_serialize`);
/// the detector must call it out as a cycle.
#[test]
fn double_rho_to_xi_upgrade_deadlocks_and_is_detected() {
    let m = Arc::new(LockManager::over(FixedWords::new(16)));
    let a = m.new_owner();
    let b = m.new_owner();
    m.lock(a, R, Rho);
    m.lock(b, R, Rho);
    let m2 = Arc::clone(&m);
    let _t1 = thread::spawn(move || m2.lock(a, R, Xi));
    let m3 = Arc::clone(&m);
    let _t2 = thread::spawn(move || m3.lock(b, R, Xi));
    thread::sleep(Duration::from_millis(50));
    let cycle = m
        .detect_deadlock()
        .expect("double ρ→ξ upgrade must be reported as a deadlock cycle");
    assert_eq!(cycle.len(), 2, "exactly the two upgraders: {cycle:?}");
    assert!(cycle.contains(&a) && cycle.contains(&b));
    // Break the cycle so the detached threads can finish.
    m.release_all(a);
    m.release_all(b);
}

/// The α+α upgrade with a *mixed* pair is also deadlock-prone: A holds α
/// and upgrades to ξ while B holds ρ and upgrades to α. A's ξ waits on
/// B's ρ; B's α waits on A's α — a two-conversion cycle the detector must
/// find (conversions wait on grants and earlier conversions).
#[test]
fn mixed_conversion_cycle_is_detected() {
    let m = Arc::new(LockManager::over(FixedWords::new(16)));
    let a = m.new_owner();
    let b = m.new_owner();
    m.lock(a, R, Alpha);
    m.lock(b, R, Rho);
    let m2 = Arc::clone(&m);
    let _t1 = thread::spawn(move || m2.lock(a, R, Xi)); // waits on b's ρ
    thread::sleep(Duration::from_millis(20));
    let m3 = Arc::clone(&m);
    let _t2 = thread::spawn(move || m3.lock(b, R, Alpha)); // waits on a's α
    thread::sleep(Duration::from_millis(50));
    let cycle = m
        .detect_deadlock()
        .expect("mixed α→ξ / ρ→α conversion cycle must be detected");
    assert!(cycle.contains(&a) && cycle.contains(&b), "cycle {cycle:?}");
    m.release_all(a);
    m.release_all(b);
}

/// Reentrancy composes with conversion: an owner that upgraded ρ→α may
/// re-acquire either mode; counts nest and unlock order is free.
#[test]
fn reentrant_acquisition_during_conversion() {
    let m = LockManager::over(FixedWords::new(16));
    let o = m.new_owner();
    m.lock(o, DIR, Rho);
    m.lock(o, DIR, Alpha);
    m.lock(o, DIR, Rho); // reentrant ρ while converted
    m.lock(o, DIR, Alpha); // reentrant α
    let held = m.held(o, DIR);
    assert_eq!(held.len(), 2);
    assert!(held.contains(&Rho) && held.contains(&Alpha));
    m.unlock(o, DIR, Alpha);
    m.unlock(o, DIR, Rho);
    m.unlock(o, DIR, Alpha);
    m.unlock(o, DIR, Rho);
    assert_eq!(m.total_granted(), 0);
}
