//! Micro-benchmarks of the primitives every operation is built from:
//! pseudokey hashing, the bucket page codec, atomic page I/O, and the
//! three lock modes (including the ρ→α conversion that Solution 2's
//! deadlock-freedom argument leans on).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use ceh_locks::{LockId, LockManager, LockMode};
use ceh_storage::{PageStore, PageStoreConfig};
use ceh_types::bucket::{Bucket, BucketView, SharedPage};
use ceh_types::{hash_key, Key, PageId, Pseudokey, Record};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

fn bench_hash(c: &mut Criterion) {
    c.bench_function("hash_key", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = k.wrapping_add(1);
            black_box(hash_key(Key(k)))
        })
    });
}

fn bench_codec(c: &mut Criterion) {
    let mut bucket = Bucket::new(8, 0xAB);
    for i in 0..250u64 {
        bucket.add(Record::new(i * 256 + 0xAB, i));
    }
    let mut page = vec![0u8; Bucket::page_size_for(250)];
    c.bench_function("bucket_encode_250", |b| {
        b.iter(|| bucket.encode(black_box(&mut page)).unwrap())
    });
    bucket.encode(&mut page).unwrap();
    c.bench_function("bucket_decode_250", |b| {
        b.iter(|| black_box(Bucket::decode(black_box(&page)).unwrap()))
    });
    // The paper's `search` in place, over the page store's words as a
    // find reads them: hits cycle through the resident keys, misses
    // through keys of the same bucket that are absent.
    for n in [128u64, 250] {
        let mut half = Bucket::new(8, 0xAB);
        for i in 0..n {
            half.add(Record::new(i * 256 + 0xAB, i));
        }
        half.encode(&mut page).unwrap();
        let words: Vec<AtomicU64> = page
            .chunks_exact(8)
            .map(|w| AtomicU64::new(u64::from_ne_bytes(w.try_into().unwrap())))
            .collect();
        let view = BucketView::over(SharedPage::new(&words)).unwrap();
        for (case, first) in [("hit", 0), ("miss", n)] {
            c.bench_function(&format!("bucket_search_{case}_{n}"), |b| {
                let mut i = 0u64;
                b.iter(|| {
                    i = (i + 1) % n;
                    black_box(view.search(Key((first + i) * 256 + 0xAB)))
                })
            });
        }
    }
    c.bench_function("bucket_owns_check", |b| {
        let pk = Pseudokey(0x1AB);
        b.iter(|| black_box(bucket.owns(black_box(pk))))
    });
    c.bench_function("bucket_owns_by_rehash", |b| {
        let pk = Pseudokey(0x1AB);
        b.iter(|| black_box(bucket.owns_by_rehash(black_box(pk), hash_key)))
    });
}

fn bench_page_io(c: &mut Criterion) {
    let store = PageStore::new_shared(PageStoreConfig {
        page_size: 4096,
        ..Default::default()
    });
    let p = store.alloc().unwrap();
    let buf = store.new_buf();
    store.write(p, &buf).unwrap();
    c.bench_function("page_write_4k", |b| {
        b.iter(|| store.write(p, black_box(&buf)).unwrap())
    });
    c.bench_function("page_read_4k", |b| {
        let mut out = store.new_buf();
        b.iter(|| store.read(p, black_box(&mut out)).unwrap())
    });
}

fn bench_locks(c: &mut Criterion) {
    let mgr = Arc::new(LockManager::over(ceh_locks::FixedWords::new(2)));
    let id = LockId::Page(PageId(1));
    for (name, mode) in [
        ("lock_unlock_rho", LockMode::Rho),
        ("lock_unlock_alpha", LockMode::Alpha),
        ("lock_unlock_xi", LockMode::Xi),
    ] {
        c.bench_function(name, |b| {
            b.iter_batched(
                || mgr.new_owner(),
                |o| {
                    mgr.lock(o, id, mode);
                    mgr.unlock(o, id, mode);
                },
                BatchSize::SmallInput,
            )
        });
    }
    // The Figure-8 conversion pattern: hold ρ, take α, release both.
    c.bench_function("rho_then_alpha_conversion", |b| {
        b.iter_batched(
            || mgr.new_owner(),
            |o| {
                mgr.lock(o, LockId::Directory, LockMode::Rho);
                mgr.lock(o, LockId::Directory, LockMode::Alpha);
                mgr.unlock(o, LockId::Directory, LockMode::Alpha);
                mgr.unlock(o, LockId::Directory, LockMode::Rho);
            },
            BatchSize::SmallInput,
        )
    });
    // Contended ρ: background readers holding the lock.
    c.bench_function("rho_under_shared_readers", |b| {
        let bg = mgr.new_owner();
        mgr.lock(bg, id, LockMode::Rho);
        b.iter_batched(
            || mgr.new_owner(),
            |o| {
                mgr.lock(o, id, LockMode::Rho);
                mgr.unlock(o, id, LockMode::Rho);
            },
            BatchSize::SmallInput,
        );
        mgr.unlock(bg, id, LockMode::Rho);
    });
    // Two callers taking ρ pairs on the directory, the shape of the
    // in-process benchmark's finds: a partner thread runs pairs for as
    // long as the measured thread does, so every pair contends for the
    // directory's lock word.
    c.bench_function("rho_pair_directory_two_threads", |b| {
        let stop = Arc::new(AtomicBool::new(false));
        let partner = {
            let (mgr, stop) = (Arc::clone(&mgr), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    let o = mgr.new_owner();
                    mgr.lock(o, LockId::Directory, LockMode::Rho);
                    mgr.unlock(o, LockId::Directory, LockMode::Rho);
                }
            })
        };
        b.iter(|| {
            let o = mgr.new_owner();
            mgr.lock(o, LockId::Directory, LockMode::Rho);
            mgr.unlock(o, LockId::Directory, LockMode::Rho);
        });
        stop.store(true, Ordering::Release);
        partner.join().unwrap();
    });
}

criterion_group! {
    name = micro;
    config = Criterion::default()
        .sample_size(30)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_hash, bench_codec, bench_page_io, bench_locks
}
criterion_main!(micro);
