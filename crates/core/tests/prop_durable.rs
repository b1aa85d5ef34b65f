//! Durability as a property: for *any* operation sequence, power loss
//! followed by WAL recovery yields a file equal to the model — and
//! recovery is **idempotent**: crashing *during* recovery and
//! recovering again lands in the same state.

use std::collections::BTreeMap;
use std::sync::Arc;

use ceh_core::{invariants::check_concurrent_file, ConcurrentHashFile, FileCore, Solution2};
use ceh_locks::{LockManager, LockManagerConfig};
use ceh_obs::MetricsHandle;
use ceh_storage::{CrashPlan, DiskHandle, DurableConfig, DurableStore, PageStoreConfig};
use ceh_types::bucket::Bucket;
use ceh_types::{hash_key, Error, HashFileConfig, Key, Value};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u64),
    Delete(u64),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let key = 0u64..64;
    prop_oneof![
        (key.clone(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        key.prop_map(Op::Delete),
    ]
}

fn durable_cfg(cap: usize) -> DurableConfig {
    DurableConfig {
        page: PageStoreConfig {
            page_size: Bucket::page_size_for(cap),
            ..Default::default()
        },
        // Small interval so the property runs cross checkpoints too.
        checkpoint_every: 8,
        ..Default::default()
    }
}

fn durable_file(cap: usize) -> Solution2 {
    let cfg = HashFileConfig::tiny().with_bucket_capacity(cap);
    let wal = DurableStore::new(durable_cfg(cap), &MetricsHandle::new());
    let locks = Arc::new(LockManager::over(wal.cache().clone()));
    let core = FileCore::with_buckets(cfg, wal, locks, hash_key, &MetricsHandle::new()).unwrap();
    Solution2::from_core(core)
}

fn recover_file(
    cap: usize,
    disk: &DiskHandle,
    plan: Option<CrashPlan>,
) -> Result<Solution2, Error> {
    let cfg = HashFileConfig::tiny().with_bucket_capacity(cap);
    let dcfg = DurableConfig {
        plan,
        ..durable_cfg(cap)
    };
    let locks = LockManagerConfig::default();
    let (core, _report) =
        FileCore::recover_durable_metrics(cfg, disk, dcfg, locks, hash_key, &MetricsHandle::new())?;
    Ok(Solution2::from_core(core))
}

fn assert_matches_model(file: &Solution2, model: &BTreeMap<u64, u64>) {
    assert_eq!(file.core().len(), model.len());
    for k in 0..64u64 {
        assert_eq!(
            file.find(Key(k)).unwrap().map(|v| v.0),
            model.get(&k).copied(),
            "key {k}"
        );
    }
    check_concurrent_file(file.core()).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// power-off → recover ≡ model; and crash-during-recovery →
    /// recover again ≡ the same model (replay idempotence).
    #[test]
    fn recovery_is_lossless_and_idempotent(
        cap in 2usize..5,
        ops in proptest::collection::vec(arb_op(), 1..120),
        crash_point in 1u64..24,
    ) {
        let file = durable_file(cap);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for op in &ops {
            match *op {
                Op::Insert(k, v) => {
                    file.insert(Key(k), Value(v)).unwrap();
                    model.entry(k).or_insert(v);
                }
                Op::Delete(k) => {
                    file.delete(Key(k)).unwrap();
                    model.remove(&k);
                }
            }
        }
        file.flush_gc();
        let wal = file.core().wal().unwrap();
        let disk = wal.disk();
        wal.power_off(); // every op above was acked before the cut
        drop(file);

        // First recovery: the whole acked state is there.
        let r1 = recover_file(cap, &disk, None).unwrap();
        assert_matches_model(&r1, &model);
        r1.core().wal().unwrap().power_off();
        drop(r1);

        // Crash *during* recovery (the armed plan fires while recovery
        // persists its result), then recover again: same state. Points
        // beyond recovery's reach mean the armed run completed — fine.
        match recover_file(cap, &disk, Some(CrashPlan::armed(7, crash_point))) {
            Ok(r) => {
                assert_matches_model(&r, &model);
                r.core().wal().unwrap().power_off();
            }
            Err(Error::PowerLoss) => {
                let r2 = recover_file(cap, &disk, None).unwrap();
                assert_matches_model(&r2, &model);
                r2.core().wal().unwrap().power_off();
            }
            Err(e) => panic!("unexpected recovery error: {e}"),
        }
    }
}
