//! Property tests for the version-ordered replica update algebra.
//!
//! The §3 claim, as a property: a set of directory updates generated by a
//! real execution, applied to a fresh replica in *any* delivery order
//! (with parking for not-yet-applicable ones), converges to the same
//! final directory. This is exactly what the asynchronous multi-copy
//! update scheme must guarantee, and exactly what breaks if the version
//! gating is wrong.

use ceh_dist::{ApplyResult, DirReplica, DirUpdate};
use ceh_types::{BucketLink, ManagerId, PageId, Pseudokey};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn link(p: u64) -> BucketLink {
    BucketLink::new(ManagerId(0), PageId(p))
}

/// Generate a *legal* update history by simulating splits and merges on
/// a shadow structure: each live "bucket" is (pattern, localdepth,
/// version, page). Returns the updates in true execution order.
fn legal_history(seed: u64, steps: usize) -> Vec<DirUpdate> {
    #[derive(Clone)]
    struct ShadowBucket {
        pattern: u64,
        localdepth: u32,
        version: u64,
        page: u64,
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut buckets = vec![ShadowBucket {
        pattern: 0,
        localdepth: 0,
        version: 0,
        page: 0,
    }];
    let mut next_page = 1u64;
    let mut updates = Vec::new();

    for _ in 0..steps {
        let split = rng.random_bool(0.65) || buckets.len() < 2;
        if split {
            let i = rng.random_range(0..buckets.len());
            if buckets[i].localdepth >= 8 {
                continue;
            }
            let old = buckets[i].clone();
            let new_page = next_page;
            next_page += 1;
            updates.push(DirUpdate::Split {
                pseudokey: Pseudokey(old.pattern),
                old_localdepth: old.localdepth,
                expected_version: old.version,
                new_version: old.version + 1,
                new_bucket: link(new_page),
            });
            // Shadow: replace with the two halves.
            let d = old.localdepth + 1;
            buckets[i] = ShadowBucket {
                pattern: old.pattern,
                localdepth: d,
                version: old.version + 1,
                page: old.page,
            };
            buckets.push(ShadowBucket {
                pattern: old.pattern | ceh_types::partner_bit(d),
                localdepth: d,
                version: old.version + 1,
                page: new_page,
            });
        } else {
            // Merge a random partner pair with equal localdepths.
            let mut candidates = Vec::new();
            for (a_idx, a) in buckets.iter().enumerate() {
                if a.localdepth < 2 {
                    continue;
                }
                let partner_pattern = a.pattern ^ ceh_types::partner_bit(a.localdepth);
                if let Some(b_idx) = buckets
                    .iter()
                    .position(|b| b.pattern == partner_pattern && b.localdepth == a.localdepth)
                {
                    // Keep the "0" side as survivor.
                    if a.pattern & ceh_types::partner_bit(a.localdepth) == 0 {
                        candidates.push((a_idx, b_idx));
                    }
                }
            }
            if candidates.is_empty() {
                continue;
            }
            let (zero_idx, one_idx) = candidates[rng.random_range(0..candidates.len())];
            let zero = buckets[zero_idx].clone();
            let one = buckets[one_idx].clone();
            let new_version = zero.version.max(one.version) + 1;
            updates.push(DirUpdate::Merge {
                pseudokey: Pseudokey(zero.pattern),
                old_localdepth: zero.localdepth,
                expected_v0: zero.version,
                expected_v1: one.version,
                new_version,
                merged: link(zero.page),
                garbage: link(one.page),
            });
            buckets[zero_idx] = ShadowBucket {
                pattern: zero.pattern,
                localdepth: zero.localdepth - 1,
                version: new_version,
                page: zero.page,
            };
            buckets.remove(one_idx);
        }
    }
    updates
}

/// Apply updates in the given order with a parking lot, exactly like the
/// directory manager does. Returns the replica; panics if anything stays
/// parked (every legal history must fully apply).
fn apply_with_parking(updates: &[DirUpdate], order: &[usize]) -> DirReplica {
    let mut replica = DirReplica::new(12, link(0)).unwrap();
    let mut parked: Vec<&DirUpdate> = Vec::new();
    let drain = |replica: &mut DirReplica, parked: &mut Vec<&DirUpdate>| loop {
        let mut progressed = false;
        let mut i = 0;
        while i < parked.len() {
            match replica.apply(parked[i]).unwrap() {
                ApplyResult::Applied | ApplyResult::Stale => {
                    parked.remove(i);
                    progressed = true;
                }
                ApplyResult::Parked => i += 1,
            }
        }
        if !progressed {
            break;
        }
    };
    for &idx in order {
        let u = &updates[idx];
        match replica.apply(u).unwrap() {
            ApplyResult::Applied | ApplyResult::Stale => drain(&mut replica, &mut parked),
            ApplyResult::Parked => parked.push(u),
        }
    }
    drain(&mut replica, &mut parked);
    assert!(
        parked.is_empty(),
        "a complete legal history must fully apply; {} stuck",
        parked.len()
    );
    replica
}

/// A replica's comparable fingerprint: depth plus (mgr, page, version)
/// per entry.
type ReplicaFingerprint = (u32, Vec<(u32, u64, u64)>);

fn entries_of(r: &DirReplica) -> ReplicaFingerprint {
    (
        r.depth(),
        r.entries()
            .iter()
            .map(|e| (e.mgr.0, e.page.0, e.version))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any permutation of a legal history converges to the in-order
    /// result.
    #[test]
    fn permuted_delivery_converges(seed in any::<u64>(), steps in 2usize..40, shuffle_seed in any::<u64>()) {
        let updates = legal_history(seed, steps);
        prop_assume!(!updates.is_empty());
        let in_order: Vec<usize> = (0..updates.len()).collect();
        let reference = apply_with_parking(&updates, &in_order);

        let mut order = in_order.clone();
        let mut rng = StdRng::seed_from_u64(shuffle_seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        let shuffled = apply_with_parking(&updates, &order);
        prop_assert_eq!(entries_of(&reference), entries_of(&shuffled));
    }

    /// Duplicated deliveries (network retries) are harmless: applying
    /// every update twice in a shuffled interleaving still converges.
    #[test]
    fn duplicate_delivery_is_idempotent(seed in any::<u64>(), steps in 2usize..25, shuffle_seed in any::<u64>()) {
        let updates = legal_history(seed, steps);
        prop_assume!(!updates.is_empty());
        let in_order: Vec<usize> = (0..updates.len()).collect();
        let reference = apply_with_parking(&updates, &in_order);

        let mut order: Vec<usize> = (0..updates.len()).flat_map(|i| [i, i]).collect();
        let mut rng = StdRng::seed_from_u64(shuffle_seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        let doubled = apply_with_parking(&updates, &order);
        prop_assert_eq!(entries_of(&reference), entries_of(&doubled));
    }

    /// A prefix of the history leaves the replica in a state from which
    /// the suffix still applies (incremental catch-up, the lagging
    /// replica's life).
    #[test]
    fn lagging_replica_catches_up(seed in any::<u64>(), steps in 4usize..30, cut in 1usize..4) {
        let updates = legal_history(seed, steps);
        prop_assume!(updates.len() >= 2);
        let cut = (updates.len() * cut / 4).clamp(1, updates.len() - 1);
        let in_order: Vec<usize> = (0..updates.len()).collect();
        let reference = apply_with_parking(&updates, &in_order);

        // Apply the prefix, then the suffix reversed (worst lag pattern).
        let mut order: Vec<usize> = (0..cut).collect();
        order.extend((cut..updates.len()).rev());
        let lagged = apply_with_parking(&updates, &order);
        prop_assert_eq!(entries_of(&reference), entries_of(&lagged));
    }
}
