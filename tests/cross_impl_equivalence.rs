//! Cross-implementation equivalence: six implementations of the same
//! dictionary contract — sequential, Solution 1, Solution 2, global-lock,
//! the B-link tree, and the distributed cluster — replay one operation
//! tape and must agree on every single outcome.

use std::time::Duration;

use ceh_btree::{BLinkTree, BLinkTreeConfig};
use ceh_core::{ConcurrentHashFile, GlobalLockFile, Solution1, Solution2};
use ceh_dist::{Cluster, ClusterConfig};
use ceh_net::LatencyModel;
use ceh_sequential::SequentialHashFile;
use ceh_types::{DeleteOutcome, HashFileConfig, InsertOutcome, Key, Value};
use ceh_workload::{KeyDist, Op, OpMix, WorkloadGen};

/// A uniform facade over every implementation.
enum Impl {
    Seq(SequentialHashFile),
    S1(Box<Solution1>),
    S2(Box<Solution2>),
    Global(GlobalLockFile),
    BTree(BLinkTree),
    Dist(Box<Cluster>, ceh_dist::DistClient),
}

impl Impl {
    fn name(&self) -> &'static str {
        match self {
            Impl::Seq(_) => "sequential",
            Impl::S1(_) => "solution1",
            Impl::S2(_) => "solution2",
            Impl::Global(_) => "global-lock",
            Impl::BTree(_) => "blink-tree",
            Impl::Dist(..) => "distributed",
        }
    }

    fn find(&self, k: Key) -> Option<Value> {
        match self {
            Impl::Seq(f) => f.find(k).unwrap(),
            Impl::S1(f) => f.find(k).unwrap(),
            Impl::S2(f) => f.find(k).unwrap(),
            Impl::Global(f) => f.find(k).unwrap(),
            Impl::BTree(f) => f.find(k).unwrap(),
            Impl::Dist(_, c) => c.find(k).unwrap(),
        }
    }

    fn insert(&mut self, k: Key, v: Value) -> InsertOutcome {
        match self {
            Impl::Seq(f) => f.insert(k, v).unwrap(),
            Impl::S1(f) => f.insert(k, v).unwrap(),
            Impl::S2(f) => f.insert(k, v).unwrap(),
            Impl::Global(f) => f.insert(k, v).unwrap(),
            Impl::BTree(f) => f.insert(k, v).unwrap(),
            Impl::Dist(_, c) => c.insert(k, v).unwrap(),
        }
    }

    fn delete(&mut self, k: Key) -> DeleteOutcome {
        match self {
            Impl::Seq(f) => f.delete(k).unwrap(),
            Impl::S1(f) => f.delete(k).unwrap(),
            Impl::S2(f) => f.delete(k).unwrap(),
            Impl::Global(f) => f.delete(k).unwrap(),
            Impl::BTree(f) => f.delete(k).unwrap(),
            Impl::Dist(_, c) => c.delete(k).unwrap(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Impl::Seq(f) => f.len(),
            Impl::S1(f) => ConcurrentHashFile::len(&**f),
            Impl::S2(f) => ConcurrentHashFile::len(&**f),
            Impl::Global(f) => ConcurrentHashFile::len(f),
            Impl::BTree(f) => f.len(),
            Impl::Dist(c, _) => {
                assert!(c.quiesce(Duration::from_secs(20)));
                c.total_records().unwrap()
            }
        }
    }
}

fn all_impls() -> Vec<Impl> {
    let cfg = HashFileConfig::tiny().with_bucket_capacity(3);
    let cluster = Cluster::start(ClusterConfig {
        dir_managers: 2,
        bucket_managers: 2,
        file: cfg.clone(),
        page_quota: Some(10),
        latency: LatencyModel::none(),
        ..Default::default()
    })
    .unwrap();
    let client = cluster.client();
    vec![
        Impl::Seq(SequentialHashFile::new(cfg.clone()).unwrap()),
        Impl::S1(Box::new(Solution1::new(cfg.clone()).unwrap())),
        Impl::S2(Box::new(Solution2::new(cfg.clone()).unwrap())),
        Impl::Global(GlobalLockFile::new(cfg).unwrap()),
        Impl::BTree(BLinkTree::new(BLinkTreeConfig { fanout: 6 })),
        Impl::Dist(Box::new(cluster), client),
    ]
}

#[test]
fn one_tape_six_implementations() {
    let mut impls = all_impls();
    let mut gen = WorkloadGen::new(0x7A9E, KeyDist::Uniform, 80, OpMix::BALANCED);
    for (step, op) in gen.batch(1200).into_iter().enumerate() {
        match op {
            Op::Find(k) => {
                let expected = impls[0].find(k);
                for i in impls.iter().skip(1) {
                    assert_eq!(
                        i.find(k),
                        expected,
                        "step {step}: find {k:?} on {}",
                        i.name()
                    );
                }
            }
            Op::Insert(k, v) => {
                let expected = impls[0].insert(k, v);
                for i in impls.iter_mut().skip(1) {
                    let name = i.name();
                    assert_eq!(
                        i.insert(k, v),
                        expected,
                        "step {step}: insert {k:?} on {name}"
                    );
                }
            }
            Op::Delete(k) => {
                let expected = impls[0].delete(k);
                for i in impls.iter_mut().skip(1) {
                    let name = i.name();
                    assert_eq!(i.delete(k), expected, "step {step}: delete {k:?} on {name}");
                }
            }
        }
    }
    let expected_len = impls[0].len();
    for i in impls.iter().skip(1) {
        assert_eq!(i.len(), expected_len, "final size on {}", i.name());
    }
    // Tear the cluster down cleanly.
    for i in impls {
        if let Impl::Dist(c, client) = i {
            drop(client);
            c.shutdown();
        }
    }
}

#[test]
fn grow_only_tape_all_agree() {
    let mut impls = all_impls();
    for k in 0..200u64 {
        let v = Value(k * 7);
        let expected = impls[0].insert(Key(k), v);
        assert_eq!(expected, InsertOutcome::Inserted);
        for i in impls.iter_mut().skip(1) {
            let name = i.name();
            assert_eq!(i.insert(Key(k), v), expected, "{name}");
        }
    }
    for k in 0..200u64 {
        let expected = impls[0].find(Key(k));
        assert_eq!(expected, Some(Value(k * 7)));
        for i in impls.iter().skip(1) {
            assert_eq!(i.find(Key(k)), expected, "{}", i.name());
        }
    }
    for i in impls {
        if let Impl::Dist(c, client) = i {
            drop(client);
            c.shutdown();
        }
    }
}
