//! Per-operation counters for the concurrent files, recorded through
//! the unified [`ceh_obs`] metrics plane.
//!
//! These are the observables the evaluation harness reports: how often
//! searches landed on the wrong bucket (E4), how long the recovery chains
//! were, how many structure modifications of each kind happened, and how
//! often optimistic updaters had to retry.
//!
//! Each counter is registered as `core.<name>` (`core.splits`,
//! `core.wrong_bucket_recoveries`, …) so a [`ceh_obs::RunReport`] over a
//! shared handle carries them alongside the `locks.`/`storage.` metrics
//! of the same run.

use std::sync::Arc;

use ceh_obs::{Counter, MetricsHandle};

macro_rules! op_stats {
    ($($(#[$doc:meta])* $name:ident),+ $(,)?) => {
        /// Thread-safe operation counters.
        #[derive(Debug)]
        pub struct OpStats {
            $($(#[$doc])* $name: Arc<Counter>,)+
        }

        /// A point-in-time copy of [`OpStats`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct OpStatsSnapshot {
            $($(#[$doc])* pub $name: u64,)+
        }

        impl Default for OpStats {
            fn default() -> Self { Self::new() }
        }

        impl OpStats {
            /// Counters in a fresh private registry.
            pub fn new() -> Self {
                Self::with_handle(&MetricsHandle::default())
            }

            /// Counters registered as `core.<name>` in `handle`'s
            /// registry.
            pub fn with_handle(handle: &MetricsHandle) -> Self {
                OpStats {
                    $($name: handle.counter(concat!("core.", stringify!($name))),)+
                }
            }

            $(
                pub(crate) fn $name(&self) {
                    self.$name.inc();
                }
            )+

            /// Copy out the current values.
            pub fn snapshot(&self) -> OpStatsSnapshot {
                OpStatsSnapshot {
                    $($name: self.$name.get(),)+
                }
            }

            /// Zero all counters.
            pub fn reset(&self) {
                $(self.$name.reset();)+
            }
        }

        impl OpStatsSnapshot {
            /// Difference (self - earlier) for interval measurement.
            pub fn since(&self, e: &OpStatsSnapshot) -> OpStatsSnapshot {
                OpStatsSnapshot {
                    $($name: self.$name - e.$name,)+
                }
            }
        }
    };
}

op_stats! {
    /// Completed find operations that located the key.
    finds_hit,
    /// Completed find operations that did not.
    finds_miss,
    /// Finds answered by the lock-free path: one validated pass over the
    /// page the directory names, no lock taken.
    find_fast,
    /// Finds that ran Figure 5's ρ protocol: the lock-free pass gave up
    /// (a writer overlapped it, ξ was held, a wrong bucket or tombstone,
    /// file backing), or the pessimistic variant, which always locks.
    find_fallback,
    /// Solution 2 inserts and deletes answered by the in-bucket fast
    /// path: one validated read of the page the directory names, then
    /// (unless the read alone answers) one CAS to α or ξ, an edit in
    /// place and one release.
    update_fast,
    /// Solution 2 inserts and deletes that ran Figures 8–9: the fast path
    /// gave up (a lost CAS, a changed version, a wrong bucket or
    /// tombstone, a full bucket, a merge candidate, file or WAL backing).
    update_fallback,
    /// Inserts that added a key.
    inserts,
    /// Inserts that found the key already present.
    inserts_duplicate,
    /// Deletes that removed a key.
    deletes,
    /// Deletes that found nothing to remove.
    deletes_miss,
    /// Operations that landed on the wrong bucket and recovered via
    /// `next` links (one count per operation, however long the chain).
    wrong_bucket_recoveries,
    /// Total `next`-link hops taken during recovery.
    chain_hops,
    /// Bucket splits performed.
    splits,
    /// Bucket merges performed.
    merges,
    /// Directory doublings.
    doublings,
    /// Directory halvings (cascaded halvings count once each).
    halvings,
    /// Insert attempts restarted after an unproductive split
    /// ("if (!done) insert (z)").
    insert_retries,
    /// Delete attempts restarted by a Solution-2 validation failure
    /// (label A and friends in Figure 9).
    delete_retries,
    /// Garbage-collection phases run (Solution 2).
    gc_phases,
    /// Tombstone pages the background collector left allocated because
    /// the page store refused to free them (e.g. a durable medium that
    /// lost power).
    gc_unreclaimed,
}

impl OpStatsSnapshot {
    /// Total completed operations.
    pub fn total_ops(&self) -> u64 {
        self.finds_hit
            + self.finds_miss
            + self.inserts
            + self.inserts_duplicate
            + self.deletes
            + self.deletes_miss
    }

    /// Mean chain length among recoveries (0 when none).
    pub fn mean_recovery_hops(&self) -> f64 {
        if self.wrong_bucket_recoveries == 0 {
            0.0
        } else {
            self.chain_hops as f64 / self.wrong_bucket_recoveries as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_snapshot() {
        let s = OpStats::new();
        s.finds_hit();
        s.finds_hit();
        s.inserts();
        s.wrong_bucket_recoveries();
        s.chain_hops();
        s.chain_hops();
        s.chain_hops();
        let snap = s.snapshot();
        assert_eq!(snap.finds_hit, 2);
        assert_eq!(snap.total_ops(), 3);
        assert!((snap.mean_recovery_hops() - 3.0).abs() < 1e-12);
        s.reset();
        assert_eq!(s.snapshot(), OpStatsSnapshot::default());
    }

    #[test]
    fn since_subtracts() {
        let s = OpStats::new();
        s.inserts();
        let a = s.snapshot();
        s.inserts();
        s.splits();
        let d = s.snapshot().since(&a);
        assert_eq!(d.inserts, 1);
        assert_eq!(d.splits, 1);
    }

    #[test]
    fn shared_handle_sees_core_metrics() {
        let handle = MetricsHandle::new();
        let s = OpStats::with_handle(&handle);
        s.splits();
        s.finds_hit();
        let m = handle.snapshot();
        assert_eq!(m.counter("core.splits"), 1);
        assert_eq!(m.counter("core.finds_hit"), 1);
        assert_eq!(m.counter("core.merges"), 0);
    }
}
