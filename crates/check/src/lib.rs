//! Verification subsystem for the concurrent extendible hash file.
//!
//! Three pillars, all offline (no solver, no external service):
//!
//! 1. **Deterministic schedule explorer** ([`explore`]): a virtual-thread
//!    scheduler plugs into [`ceh_locks::WaitHook`] and serializes a small
//!    concurrent workload so that exactly one thread runs between lock-
//!    manager wait points. A DFS over the scheduling decisions then runs
//!    the workload under *every* interleaving up to a preemption bound,
//!    checking structural invariants and linearizability after each one.
//! 2. **Linearizability checker** ([`linearize`]): a Wing–Gong search
//!    with per-key partitioning over operation histories recorded through
//!    [`ceh_obs::HistoryLog`], validated against the paper's sequential
//!    semantics ([`ceh_sequential::SequentialHashFile`]).
//! 3. **Lock-discipline lint** ([`lint`], shipped as the `ceh-lint`
//!    binary): a source-level scan for violations of the paper's locking
//!    rules — top-down lock order, ξ-locks held across network sends,
//!    unpaired acquire/release, unjustified `Ordering::Relaxed`, atomics-
//!    ordering discipline, and unsafe-block auditing.
//!
//! A fifth pillar (feature `check-race`): the **happens-before race
//! detector** ([`race`]) — a FastTrack-style vector-clock analysis fed
//! by `ceh-locks`' shadow-access seam, run over every explored schedule
//! (`ExploreConfig::race`) and proven against a [`litmus`] corpus of
//! known racy/race-free programs, including the seqlock `VersionWord`
//! pair that gates the optimistic read path.
//!
//! Failing schedules minimize to a replayable fixture
//! ([`schedule::ScheduleFixture`]) checked into
//! `tests/fixtures/schedules/`.
//!
//! A fourth pillar rides on the durability layer: the **recovery
//! fuzzer** ([`crash`]) runs a seeded workload against a durable file,
//! cuts power at *every* reachable durability point in turn, recovers,
//! and holds the result to a durability oracle (acked ops survive;
//! in-flight multi-page ops are atomic). Its failures minimize to
//! [`crash::CrashFixture`]s in `tests/fixtures/crashes/`.

#![warn(missing_docs)]

pub mod crash;
pub mod explore;
pub mod linearize;
pub mod lint;
#[cfg(feature = "check-race")]
pub mod litmus;
#[cfg(feature = "check-race")]
pub mod race;
pub mod schedule;
pub mod version;
pub mod vthread;
pub mod workload;

pub use crash::{
    dist_crash_round, replay_crash, run_sweep, CrashConfig, CrashFixture, CrashSweepReport,
    PointOutcome,
};
pub use explore::{explore, replay, ExploreConfig, ExploreReport, Violation};
pub use linearize::{check_linearizable, LinReport, LinViolation, Strictness};
pub use lint::{lint_paths, lint_source, Finding};
#[cfg(feature = "check-race")]
pub use litmus::{explore_litmus, litmus_by_name, litmus_corpus, Litmus, LitmusReport};
#[cfg(feature = "check-race")]
pub use race::{Race, RaceDetector, RaceHook, RaceRun};
pub use schedule::ScheduleFixture;
pub use version::VersionWord;
pub use workload::{Op, Solution, Workload};
