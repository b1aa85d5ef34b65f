//! Small named workloads for the schedule explorer.
//!
//! A workload is a deterministic recipe: which solution to run, a tiny
//! bucket capacity (so two inserts force a split and two deletes force a
//! merge), a single-threaded setup phase, and per-thread operation lists
//! for the concurrent phase. Keys are hashed with the **identity**
//! pseudokey function so the bucket each key lands in is written into
//! the workload itself.

use std::collections::HashMap;
use std::sync::Arc;

use ceh_core::{ConcurrentHashFile, FileCore, GcStrategy, Solution1, Solution2, Solution2Options};
use ceh_locks::{LockManager, LockManagerConfig};
use ceh_obs::MetricsHandle;
use ceh_storage::{PageStore, PageStoreConfig};
use ceh_types::{identity_pseudokey, HashFileConfig, Key, Value};

/// One hash-file operation in a workload script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `find(key)`.
    Find(u64),
    /// `insert(key, value)`.
    Insert(u64, u64),
    /// `delete(key)`.
    Delete(u64),
}

impl Op {
    /// Run the op against `file`, mapping errors to a description.
    pub fn apply(self, file: &dyn ConcurrentHashFile) -> Result<(), String> {
        let r = match self {
            Op::Find(k) => file.find(Key(k)).map(|_| ()),
            Op::Insert(k, v) => file.insert(Key(k), Value(v)).map(|_| ()),
            Op::Delete(k) => file.delete(Key(k)).map(|_| ()),
        };
        r.map_err(|e| format!("{self:?} failed: {e}"))
    }
}

/// Which of the paper's two protocols the workload exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solution {
    /// Solution 1 (Figures 5–7): top-down, pessimistic.
    S1,
    /// Solution 2 (Figures 8–9): optimistic with ρ→α conversion,
    /// tombstones, and label-A re-validation. Inline GC so there is no
    /// background thread outside the explorer's control.
    S2,
}

/// A workload's freshly built hash file — concrete so the explorer can
/// reach the [`FileCore`] for post-run invariant checks.
pub enum BuiltFile {
    /// A Solution 1 file (boxed: with the `check-race` instrumentation
    /// compiled in it is much larger than the `S2` variant).
    S1(Box<Solution1>),
    /// A Solution 2 file (inline GC).
    S2(Solution2),
}

impl BuiltFile {
    /// The file as the trait object the workload ops run against.
    pub fn as_dyn(&self) -> &dyn ConcurrentHashFile {
        match self {
            BuiltFile::S1(f) => f.as_ref(),
            BuiltFile::S2(f) => f,
        }
    }

    /// The shared core, for [`ceh_core::invariants`].
    pub fn core(&self) -> &FileCore {
        match self {
            BuiltFile::S1(f) => f.core(),
            BuiltFile::S2(f) => f.core(),
        }
    }
}

/// A named, fully deterministic concurrent workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Stable name (used by the CLI and in schedule fixtures).
    pub name: &'static str,
    /// What the workload is designed to provoke.
    pub description: &'static str,
    /// Protocol under test.
    pub solution: Solution,
    /// Bucket capacity (2 makes splits/merges trivial to force).
    pub bucket_capacity: usize,
    /// Ops applied single-threaded before the concurrent phase.
    pub setup: Vec<Op>,
    /// One op list per virtual thread.
    pub threads: Vec<Vec<Op>>,
}

impl Workload {
    /// All built-in workloads, in display order.
    pub fn all() -> Vec<Workload> {
        vec![
            s1_insert_insert_split(),
            s2_insert_insert_split(),
            s2_delete_delete_merge(),
            s2_mixed(),
            s2_in_bucket_updates(),
        ]
    }

    /// Look a workload up by its stable name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Self::all().into_iter().find(|w| w.name == name)
    }

    /// Build a fresh file (identity pseudokeys, tiny pages, hookable
    /// lock manager), apply the setup ops, and return it with the lock
    /// manager (for installing the explorer hook) and the metrics
    /// handle (for the history log). History recording is still off.
    pub fn build(&self) -> Result<(BuiltFile, Arc<LockManager>, MetricsHandle), String> {
        let metrics = MetricsHandle::new();
        let store = PageStore::new_shared(PageStoreConfig::small(4096));
        let locks = Arc::new(LockManager::with_metrics(
            LockManagerConfig::default(),
            store.clone(),
            &metrics,
        ));
        let cfg = HashFileConfig::tiny().with_bucket_capacity(self.bucket_capacity);
        let core =
            FileCore::with_buckets(cfg, store, Arc::clone(&locks), identity_pseudokey, &metrics)
                .map_err(|e| format!("workload {}: build failed: {e}", self.name))?;
        let file = match self.solution {
            Solution::S1 => BuiltFile::S1(Box::new(Solution1::from_core(core))),
            Solution::S2 => BuiltFile::S2(Solution2::from_core_with_options(
                core,
                Solution2Options {
                    gc: GcStrategy::Inline,
                    ..Default::default()
                },
            )),
        };
        for op in &self.setup {
            op.apply(file.as_dyn())
                .map_err(|e| format!("workload {}: setup {e}", self.name))?;
        }
        Ok((file, locks, metrics))
    }

    /// The key→value map after setup — the linearizability checker's
    /// initial state.
    pub fn initial_map(&self) -> HashMap<u64, u64> {
        let mut m = HashMap::new();
        for op in &self.setup {
            match *op {
                Op::Find(_) => {}
                Op::Insert(k, v) => {
                    m.entry(k).or_insert(v);
                }
                Op::Delete(k) => {
                    m.remove(&k);
                }
            }
        }
        m
    }

    /// Total ops in the concurrent phase.
    pub fn concurrent_ops(&self) -> usize {
        self.threads.iter().map(|t| t.len()).sum()
    }
}

/// Two inserts racing into the same capacity-2 bucket, each forcing a
/// split — the acceptance workload for Solution 1.
fn s1_insert_insert_split() -> Workload {
    Workload {
        name: "s1-insert-insert-split",
        description: "two Solution 1 inserts force splits of the same bucket",
        solution: Solution::S1,
        bucket_capacity: 2,
        // Bucket 0 (depth 0) holds {0, 1}: one more insert splits it.
        setup: vec![Op::Insert(0, 100), Op::Insert(1, 101)],
        threads: vec![
            vec![Op::Insert(2, 102), Op::Find(0)],
            vec![Op::Insert(3, 103), Op::Find(1)],
        ],
    }
}

/// The same race through Solution 2's optimistic ρ→α conversion path.
fn s2_insert_insert_split() -> Workload {
    Workload {
        name: "s2-insert-insert-split",
        description: "two Solution 2 inserts force splits of the same bucket",
        ..s1_insert_insert_split()
    }
    .with_solution(Solution::S2)
}

/// Two Solution 2 deletes racing a merge: T2's delete of key 5 merges
/// the {B01, B11} pair and tombstones B11 while T1's delete of key 7
/// takes the second-of-pair path through the stale directory entry —
/// exactly the race Figure 9's label-A re-validation exists to close.
fn s2_delete_delete_merge() -> Workload {
    Workload {
        name: "s2-delete-delete-merge",
        description: "racing deletes drive a merge + tombstone through the label-A path",
        solution: Solution::S2,
        bucket_capacity: 2,
        // With identity pseudokeys and capacity 2 this leaves three
        // buckets: B0 (ld 1) = {0, 2}, B01 (ld 2) = {5}, B11 (ld 2) =
        // {7}; both concurrent deletes hit near-empty depth-2 buckets.
        setup: vec![
            Op::Insert(0, 100),
            Op::Insert(1, 101),
            Op::Insert(2, 102),
            Op::Insert(3, 103),
            Op::Insert(5, 105),
            Op::Insert(7, 107),
            Op::Delete(1),
            Op::Delete(3),
        ],
        threads: vec![
            vec![Op::Delete(7), Op::Find(5)],
            vec![Op::Delete(5), Op::Find(7)],
        ],
    }
}

/// Two Solution 2 updates that edit one bucket in place, each through
/// the fast path's validated read and one-CAS upgrade: the explorer lets
/// one run its whole update between the other's read and its CAS, which
/// must then fall back to Figure 8 or 9.
fn s2_in_bucket_updates() -> Workload {
    Workload {
        name: "s2-in-bucket-updates",
        description:
            "an insert and a delete edit one bucket in place, each upgrading from its read",
        solution: Solution::S2,
        bucket_capacity: 2,
        // B0 (ld 1) = {0, 2}, B1 (ld 1) = {1}: B1 has room for 3, and at
        // local depth 1 it is never a merge candidate.
        setup: vec![Op::Insert(0, 100), Op::Insert(1, 101), Op::Insert(2, 102)],
        threads: vec![
            vec![Op::Insert(3, 103), Op::Find(1)],
            vec![Op::Delete(1), Op::Find(3)],
        ],
    }
}

/// A three-thread mix: a split, a merge, and a reader crossing both.
fn s2_mixed() -> Workload {
    Workload {
        name: "s2-mixed",
        description: "insert-driven split, delete-driven merge, and a reader, concurrently",
        solution: Solution::S2,
        bucket_capacity: 2,
        setup: vec![
            Op::Insert(0, 100),
            Op::Insert(1, 101),
            Op::Insert(2, 102),
            Op::Insert(3, 103),
            Op::Insert(5, 105),
            Op::Insert(7, 107),
            Op::Delete(1),
            Op::Delete(3),
        ],
        threads: vec![
            vec![Op::Insert(4, 104)],
            vec![Op::Delete(5)],
            vec![Op::Find(7), Op::Find(0)],
        ],
    }
}

impl Workload {
    fn with_solution(mut self, s: Solution) -> Workload {
        self.solution = s;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_build_and_setup() {
        for w in Workload::all() {
            let (file, _locks, _metrics) = w.build().expect(w.name);
            assert_eq!(file.as_dyn().len(), w.initial_map().len(), "{}", w.name);
            ceh_core::invariants::check_concurrent_file(file.core()).expect(w.name);
        }
    }

    #[test]
    fn merge_workload_setup_shape() {
        // Pin the hand-computed bucket layout the delete/merge workload
        // depends on: 4 live keys across B0={0,2}, B01={5}, B11={7}.
        let w = Workload::by_name("s2-delete-delete-merge").unwrap();
        let (file, _l, _m) = w.build().unwrap();
        assert_eq!(file.as_dyn().len(), 4);
        for (k, v) in w.initial_map() {
            assert_eq!(file.as_dyn().find(Key(k)).unwrap(), Some(Value(v)));
        }
    }

    #[test]
    fn by_name_roundtrip() {
        for w in Workload::all() {
            assert_eq!(Workload::by_name(w.name).unwrap().name, w.name);
        }
        assert!(Workload::by_name("nope").is_none());
    }
}
