//! Cross-implementation equivalence: six implementations of the same
//! dictionary contract — sequential, Solution 1, Solution 2, global-lock,
//! the B-link tree, and the distributed cluster — replay one operation
//! tape and must agree on every single outcome, and every file with a
//! directory must end at the same depth and depthcount.

use std::time::Duration;

use ceh_btree::{BLinkTree, BLinkTreeConfig};
use ceh_core::{ConcurrentHashFile, GlobalLockFile, Solution1, Solution2};
use ceh_dist::{Cluster, ClusterConfig};
use ceh_net::{LatencyModel, MsgStatsSnapshot};
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

    /// The directory's depth, and its depthcount where the file
    /// exposes one; `None` for the B-link tree, which has no directory.
    /// The cluster answers once every replica agrees.
    fn directory(&self) -> Option<(u32, Option<u32>)> {
        match self {
            Impl::Seq(f) => Some((f.depth(), Some(f.depthcount()))),
            Impl::S1(f) => Some((f.core().dir().depth(), Some(f.core().dir().depthcount()))),
            Impl::S2(f) => {
                f.flush_gc();
                Some((f.core().dir().depth(), Some(f.core().dir().depthcount())))
            }
            Impl::Global(f) => f.with_inner(|f| Some((f.depth(), Some(f.depthcount())))),
            Impl::BTree(_) => None,
            Impl::Dist(c, _) => {
                assert!(c.quiesce(Duration::from_secs(20)));
                let depths: Vec<u32> = c.dir_statuses().iter().map(|s| s.depth).collect();
                assert!(
                    depths.windows(2).all(|w| w[0] == w[1]),
                    "replica depths {depths:?}"
                );
                Some((depths[0], None))
            }
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

fn all_impls(cfg: HashFileConfig) -> Vec<Impl> {
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

/// The paper's file: capacity 3, merging only buckets that empty.
fn paper_cfg() -> HashFileConfig {
    HashFileConfig::tiny().with_bucket_capacity(3)
}

#[test]
fn one_tape_six_implementations() {
    replay_tape(paper_cfg());
}

/// The same tape where a delete merges a bucket left with one record:
/// the distributed file's Mergedown refusals, remote merges and
/// second-of-pair re-validation run against the other five.
#[test]
fn one_tape_six_implementations_merging_at_threshold_1() {
    let msgs = replay_tape(
        HashFileConfig::tiny()
            .with_bucket_capacity(4)
            .with_merge_threshold(1),
    );
    for class in ["mergedown", "mergeup", "goahead"] {
        assert!(msgs.get(class) > 0, "no {class}: no merge crossed sites");
    }
}

/// Every file with a directory ends at the sequential file's depth, and
/// at its depthcount where the file exposes one: the halving rule is the
/// same everywhere.
fn assert_directories_agree(impls: &[Impl]) {
    let (depth, depthcount) = impls[0].directory().expect("the sequential file");
    for i in &impls[1..] {
        let Some((d, dc)) = i.directory() else {
            continue;
        };
        assert_eq!(d, depth, "final directory depth on {}", i.name());
        if let Some(dc) = dc {
            assert_eq!(Some(dc), depthcount, "final depthcount on {}", i.name());
        }
    }
}

/// Replay the tape on all six, checking every outcome, the final sizes
/// and directories; returns the distributed file's message counts.
fn replay_tape(cfg: HashFileConfig) -> MsgStatsSnapshot {
    let mut impls = all_impls(cfg);
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
    assert_directories_agree(&impls);
    // Tear the cluster down cleanly, keeping its message counts.
    let mut msgs = None;
    for i in impls {
        if let Impl::Dist(c, client) = i {
            msgs = Some(c.msg_stats());
            drop(client);
            c.shutdown();
        }
    }
    msgs.expect("the tape ran on the distributed file")
}

#[test]
fn grow_only_tape_all_agree() {
    let mut impls = all_impls(paper_cfg());
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
    assert_directories_agree(&impls);
    for i in impls {
        if let Impl::Dist(c, client) = i {
            drop(client);
            c.shutdown();
        }
    }
}
