//! The concurrent directory vs. a plain-vector model: the atomic-entry
//! `Directory` (with its Release/Acquire publication dance and its
//! segmented entry array) must compute exactly the same entry table as a
//! naive single-threaded directory under any legal sequence of
//! doublings and one-side updates, and under random doublings, updates
//! and halvings that cross the 64/128/256 segment boundaries.

use ceh_core::Directory;
use ceh_types::{mask, partner_bit, PageId, Pseudokey};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The obvious model.
struct ModelDir {
    entries: Vec<u64>,
    depth: u32,
}

impl ModelDir {
    fn new(root: u64) -> Self {
        ModelDir {
            entries: vec![root],
            depth: 0,
        }
    }

    fn double(&mut self) {
        let copy = self.entries.clone();
        self.entries.extend(copy);
        self.depth += 1;
    }

    /// `halvedirectory()`: drop the top half, recount differing pairs,
    /// and cascade while the recount is zero. Returns the depthcount.
    fn halve(&mut self) -> u32 {
        loop {
            self.depth -= 1;
            self.entries.truncate(1 << self.depth);
            if self.depth == 0 {
                return 1;
            }
            let quarter = 1usize << (self.depth - 1);
            let count = 2
                * (0..quarter)
                    .filter(|&i| self.entries[i] != self.entries[i + quarter])
                    .count() as u32;
            if count != 0 || self.depth <= 1 {
                return count;
            }
        }
    }

    fn update_one_side(&mut self, page: u64, d: u32, pk: u64) {
        let pattern = (pk & mask(d - 1)) | partner_bit(d);
        let step = 1usize << d;
        let mut i = pattern as usize;
        while i < self.entries.len() {
            self.entries[i] = page;
            i += step;
        }
    }
}

/// A legal operation script: splits of simulated buckets, tracked just
/// enough to produce valid (page, localdepth, pseudokey) update triples.
fn run_script(seed: u64, steps: usize) -> (Vec<PageId>, Vec<u64>, u32) {
    #[derive(Clone)]
    struct B {
        pattern: u64,
        ld: u32,
        page: u64,
    }
    let dir = Directory::new(10, PageId(0)).unwrap();
    let mut model = ModelDir::new(0);
    let mut buckets = vec![B {
        pattern: 0,
        ld: 0,
        page: 0,
    }];
    let mut next_page = 1u64;
    let mut rng = StdRng::seed_from_u64(seed);

    for _ in 0..steps {
        let i = rng.random_range(0..buckets.len());
        if buckets[i].ld >= 9 {
            continue;
        }
        let old = buckets[i].clone();
        // Double first if the bucket is at full depth (the Figure 6/8
        // order).
        if old.ld == model.depth {
            dir.double().unwrap();
            model.double();
        }
        let d = old.ld + 1;
        let new_page = next_page;
        next_page += 1;
        // Any pseudokey belonging to the split bucket works; pick a
        // random extension of its pattern.
        let pk = old.pattern | (rng.random::<u64>() << d);
        dir.update_one_side(PageId(new_page), d, Pseudokey(pk));
        model.update_one_side(new_page, d, pk);
        buckets[i] = B {
            pattern: old.pattern,
            ld: d,
            page: old.page,
        };
        buckets.push(B {
            pattern: old.pattern | partner_bit(d),
            ld: d,
            page: new_page,
        });
    }
    (dir.entries_snapshot(), model.entries, model.depth)
}

/// Random doublings, one-side updates and halvings, first climbing to
/// depth 9 (three segment boundaries crossed), then `steps` more with
/// equal odds. The directory must match the model after every step.
fn run_mixed(seed: u64, steps: usize) -> std::result::Result<u32, TestCaseError> {
    let dir = Directory::new(12, PageId(0)).unwrap();
    let mut model = ModelDir::new(0);
    let mut depthcount = 1;
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut next_page, mut deepest, mut left) = (1u64, 0u32, steps);
    while deepest < 9 || left > 0 {
        if deepest >= 9 {
            left -= 1;
        }
        let roll = rng.random_range(0..100);
        let climbing = deepest < 9;
        if model.depth < 11 && (roll < 33 || climbing && roll < 60) {
            dir.double().unwrap();
            model.double();
            depthcount = 0;
        } else if model.depth >= 1 && (roll >= 85 || !climbing && roll >= 66) {
            dir.halve();
            depthcount = model.halve();
        } else if model.depth >= 1 {
            let d = rng.random_range(1..=model.depth);
            let pk = rng.random::<u64>();
            dir.update_one_side(PageId(next_page), d, Pseudokey(pk));
            model.update_one_side(next_page, d, pk);
            next_page += 1;
        }
        deepest = deepest.max(model.depth);
        prop_assert_eq!(dir.depth(), model.depth);
        prop_assert_eq!(dir.depthcount(), depthcount);
        let expected: Vec<PageId> = model.entries.iter().copied().map(PageId).collect();
        prop_assert_eq!(dir.entries_snapshot(), expected);
        for (i, &p) in model.entries.iter().enumerate() {
            prop_assert_eq!(dir.index(i as u64), PageId(p));
        }
    }
    Ok(deepest)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn segmented_directory_matches_model_through_halvings(
        seed in any::<u64>(),
        steps in 1usize..80,
    ) {
        prop_assert!(run_mixed(seed, steps)? >= 9);
    }

    #[test]
    fn atomic_directory_matches_model(seed in any::<u64>(), steps in 1usize..60) {
        let (atomic, model, depth) = run_script(seed, steps);
        prop_assert_eq!(atomic.len(), 1usize << depth);
        let model_pages: Vec<PageId> = model.into_iter().map(PageId).collect();
        prop_assert_eq!(atomic, model_pages);
    }
}

/// Readers racing doublings and updates observe only values that some
/// prefix of the writer's script could have produced (publication via
/// depth is atomic): concretely, every looked-up page must be one the
/// writer has already installed for that suffix at some depth.
#[test]
fn racing_readers_see_only_installed_pages() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    let dir = Arc::new(Directory::new(12, PageId(0)).unwrap());
    let max_installed = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let dir = Arc::clone(&dir);
            let max_installed = Arc::clone(&max_installed);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut checks = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let (_, page) = dir.lookup(Pseudokey(0xF0F0_F0F0));
                    assert!(!page.is_null(), "unpublished entry leaked");
                    assert!(
                        page.0 <= max_installed.load(Ordering::Relaxed),
                        "page {page} was never installed"
                    );
                    checks += 1;
                }
                checks
            })
        })
        .collect();

    // Writer: split the bucket covering the probe suffix repeatedly.
    let mut pattern = 0u64;
    for d in 1..=12u32 {
        if d - 1 == dir.depth() {
            dir.double().unwrap();
        }
        // Install BEFORE updating the directory, like putbucket-then-
        // updatedirectory does.
        max_installed.fetch_add(1, Ordering::Relaxed);
        let page = PageId(d as u64);
        dir.update_one_side(page, d, Pseudokey(0xF0F0_F0F0));
        pattern |= 0xF0F0_F0F0 & partner_bit(d);
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let _ = pattern;
    stop.store(true, Ordering::Relaxed);
    for r in readers {
        assert!(r.join().unwrap() > 0);
    }
}
