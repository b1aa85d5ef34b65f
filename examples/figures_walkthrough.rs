//! Replay of the paper's structure figures, printed in the same
//! directory-and-buckets notation.
//!
//! * Figure 1 — a sequential extendible hash file at depth 2;
//! * Figure 2 — how inserts split buckets and double the directory, and
//!   how deletes merge and halve;
//! * Figures 3–4 — the concurrent structure's `next` links and how a
//!   split re-threads them.
//!
//! Uses the identity pseudokey function so keys land exactly where the
//! paper's "…101" examples say they do.
//!
//! ```sh
//! cargo run -p ceh-harness --example figures_walkthrough
//! ```

use std::sync::Arc;

use ceh_core::{invariants, ConcurrentHashFile, Solution1};
use ceh_locks::LockManager;
use ceh_sequential::SequentialHashFile;
use ceh_storage::{PageStore, PageStoreConfig};
use ceh_types::bucket::Bucket;
use ceh_types::{identity_pseudokey, HashFileConfig, Key, Value};

fn sequential_file(capacity: usize) -> SequentialHashFile {
    let cfg = HashFileConfig::tiny().with_bucket_capacity(capacity);
    let store = PageStore::new_shared(PageStoreConfig {
        page_size: Bucket::page_size_for(capacity),
        ..Default::default()
    });
    SequentialHashFile::with_store(cfg, store, identity_pseudokey).unwrap()
}

fn main() -> ceh_types::Result<()> {
    println!("== Figure 1: sequential extendible hash file ==\n");
    let mut f = sequential_file(3);
    // Keys chosen by their low bits, like the paper's pseudokey suffixes.
    for k in [0b000u64, 0b100, 0b010, 0b001, 0b101, 0b011, 0b111, 0b110] {
        f.insert(Key(k), Value(k))?;
    }
    println!("{}", f.snapshot()?.render());

    println!("== Figure 2: updates split, double, merge, halve ==\n");
    let before_depth = f.depth();
    // Fill one bucket until it splits and the directory doubles.
    let mut k = 0b1000u64;
    while f.depth() == before_depth {
        f.insert(Key(k), Value(k))?;
        k += 0b1000;
    }
    println!("after inserts forced a split at full depth (directory doubled):\n");
    println!("{}", f.snapshot()?.render());

    // Delete everything in one bucket family until a merge halves it back.
    let peak = f.depth();
    let keys: Vec<Key> = f.snapshot()?.all_keys();
    for key in keys {
        f.delete(key)?;
        if f.depth() < peak {
            break;
        }
    }
    println!("after deletes merged partners (directory halved):\n");
    println!("{}", f.snapshot()?.render());
    f.check_invariants()?;

    println!("== Figure 3: the concurrent structure's next links ==\n");
    let store = PageStore::new_shared(PageStoreConfig {
        page_size: Bucket::page_size_for(3),
        ..Default::default()
    });
    let core = ceh_core::FileCore::with_buckets(
        HashFileConfig::tiny().with_bucket_capacity(3),
        Arc::clone(&store),
        Arc::new(LockManager::over(store)),
        identity_pseudokey,
        &ceh_obs::MetricsHandle::default(),
    )?;
    let file = Solution1::from_core(core);
    for kk in [0b000u64, 0b100, 0b010, 0b001, 0b101, 0b011, 0b111, 0b110] {
        file.insert(Key(kk), Value(kk))?;
    }
    let snap = invariants::snapshot_core(file.core())?;
    println!("{}", snap.render());
    println!("next chain (bit-reversed commonbits order):");
    let mut page = snap.entries[0];
    loop {
        let b = &snap.buckets[&page];
        print!(
            "  {page} (commonbits {:0w$b})",
            b.commonbits,
            w = b.localdepth.max(1) as usize
        );
        if b.next.is_null() {
            println!(" -> ∅");
            break;
        }
        println!(" -> {}", b.next);
        page = b.next;
    }

    println!("\n== Figure 4: a split re-threads the chain ==\n");
    let target = snap.entries[0];
    let before = &snap.buckets[&target];
    println!(
        "before: bucket {target} (commonbits {:b}) -> next {}",
        before.commonbits, before.next
    );
    // Insert keys that land in that bucket until it splits.
    let mut kk = 0b10000u64 | before.commonbits;
    let splits_before = file.core().stats().snapshot().splits;
    while file.core().stats().snapshot().splits == splits_before {
        file.insert(Key(kk), Value(kk))?;
        kk += 1 << 10;
    }
    let snap2 = invariants::snapshot_core(file.core())?;
    let after = &snap2.buckets[&target];
    println!(
        "after:  bucket {target} (commonbits {:b}) -> next {} (the new bucket), \
         whose next is {} (the old successor)",
        after.commonbits, after.next, snap2.buckets[&after.next].next
    );
    invariants::check_concurrent_file(file.core())?;
    println!("\nall structural invariants hold");
    Ok(())
}
