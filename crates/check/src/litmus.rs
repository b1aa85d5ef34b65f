//! Litmus corpus for the happens-before race detector.
//!
//! Small two-thread programs with *known* racy/race-free verdicts,
//! table-driven so the detector's soundness (clean programs stay clean)
//! and completeness (each seeded race is found) are pinned by tests:
//!
//! | name | verdict | shape |
//! |---|---|---|
//! | `mp-release-acquire` | clean | message passing, Release/Acquire flag |
//! | `mp-relaxed` | racy | message passing, Relaxed flag (no edge) |
//! | `store-buffer` | racy | Dekker-style plain cells |
//! | `store-buffer-atomic` | clean | same shape, atomic cells |
//! | `seqlock-rw` | clean | `VersionWord` writer vs optimistic reader |
//! | `seqlock-missing-release` | racy | writer exits via the injected `Relaxed` end (`check-inject` only) |
//! | `lock-handoff` | clean | ξ-lock handoff through the lock manager |
//! | `handoff-unlocked` | racy | "locked" accesses under *different* locks |
//!
//! Litmus runs differ from protocol workloads in one knob: the detector
//! yields at **every shadowed access**, so the explorer interleaves the
//! programs at access granularity — a litmus's schedule space *is* its
//! accesses. Racy verdicts are minimized with the same bisection
//! minimizer as protocol violations and can be committed as replayable
//! fixtures (`workload: litmus:NAME`) under `tests/fixtures/races/`.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use ceh_locks::shadow::{speculate, Tracked, TrackedAtomicU64};
use ceh_locks::{LockId, LockManager, LockManagerConfig, LockMode};
use ceh_types::PageId;

use crate::explore::{dfs_explore, minimize_with, ExploreConfig, Violation};
use crate::race::RaceRun;
use crate::version::VersionWord;
use crate::vthread::{Body, ControllerConfig, RunOutcome, Scheduler};

/// One litmus program: a name, its expected verdict, and a builder that
/// produces fresh thread bodies (plus the lock manager they share, when
/// the program uses locks) for every run.
pub struct Litmus {
    /// Corpus name (also the fixture workload, as `litmus:NAME`).
    pub name: &'static str,
    /// True if the program contains a data race the detector must find.
    pub racy: bool,
    /// Fresh state + bodies for one run.
    pub build: fn() -> LitmusRun,
}

/// One run's worth of litmus state.
pub struct LitmusRun {
    /// The virtual-thread bodies.
    pub bodies: Vec<Body<'static>>,
    /// The lock manager the bodies share, if the program locks (the
    /// explorer installs its hook on it for the run).
    pub locks: Option<Arc<LockManager>>,
}

fn no_locks(bodies: Vec<Body<'static>>) -> LitmusRun {
    LitmusRun {
        bodies,
        locks: None,
    }
}

/// Message passing, correct: `data` is published by a Release store and
/// consumed past an Acquire load.
fn mp_release_acquire() -> LitmusRun {
    let cell = Arc::new((
        Tracked::new(0u64, "mp.data"),
        TrackedAtomicU64::new(0, "mp.flag"),
    ));
    let w = Arc::clone(&cell);
    let r = cell;
    no_locks(vec![
        Box::new(move || {
            w.0.set(42);
            w.1.store(1, Ordering::Release);
            Ok(())
        }),
        Box::new(move || {
            if r.1.load(Ordering::Acquire) == 1 && r.0.get() != 42 {
                return Err("mp: consumed stale data past the flag".into());
            }
            Ok(())
        }),
    ])
}

/// Message passing, broken: the flag is Relaxed in both directions, so
/// the data access pair has no happens-before edge — a race whenever the
/// reader sees the flag.
fn mp_relaxed() -> LitmusRun {
    let cell = Arc::new((
        Tracked::new(0u64, "mp.data"),
        TrackedAtomicU64::new(0, "mp.flag"),
    ));
    let w = Arc::clone(&cell);
    let r = cell;
    no_locks(vec![
        Box::new(move || {
            w.0.set(42);
            w.1.store(1, Ordering::Relaxed);
            Ok(())
        }),
        Box::new(move || {
            if r.1.load(Ordering::Relaxed) == 1 {
                let _ = r.0.get();
            }
            Ok(())
        }),
    ])
}

/// Store buffering over plain cells: both threads write one cell and
/// read the other with no synchronization at all — races both ways.
fn store_buffer() -> LitmusRun {
    let cell = Arc::new((Tracked::new(0u64, "sb.x"), Tracked::new(0u64, "sb.y")));
    let a = Arc::clone(&cell);
    let b = cell;
    no_locks(vec![
        Box::new(move || {
            a.0.set(1);
            let _ = a.1.get();
            Ok(())
        }),
        Box::new(move || {
            b.1.set(1);
            let _ = b.0.get();
            Ok(())
        }),
    ])
}

/// Store buffering over atomics: same shape, but atomic accesses never
/// race (the paradigm case for "atomics fix the race, orderings fix the
/// visibility").
fn store_buffer_atomic() -> LitmusRun {
    let cell = Arc::new((
        TrackedAtomicU64::new(0, "sb.x"),
        TrackedAtomicU64::new(0, "sb.y"),
    ));
    let a = Arc::clone(&cell);
    let b = cell;
    no_locks(vec![
        Box::new(move || {
            a.0.store(1, Ordering::Release);
            let _ = a.1.load(Ordering::Acquire);
            Ok(())
        }),
        Box::new(move || {
            b.1.store(1, Ordering::Release);
            let _ = b.0.load(Ordering::Acquire);
            Ok(())
        }),
    ])
}

struct SeqCell {
    v: VersionWord,
    a: Tracked<u64>,
    b: Tracked<u64>,
}

fn seq_cell() -> Arc<SeqCell> {
    Arc::new(SeqCell {
        v: VersionWord::new("seq.version"),
        a: Tracked::new(0, "seq.payload-a"),
        b: Tracked::new(0, "seq.payload-b"),
    })
}

/// The optimistic reader shared by both seqlock litmuses: bounded
/// retries of read-begin / speculative payload reads / validate. A
/// committed read pair must be coherent (`a == b`); running out of
/// retries is fine (the writer is finite, so it cannot actually
/// starve the reader — retries just fall off the end of the schedule).
fn seq_reader(c: Arc<SeqCell>) -> Body<'static> {
    Box::new(move || {
        for _ in 0..4 {
            let Some(v0) = c.v.read_begin() else { continue };
            let s = speculate();
            let ra = c.a.get_speculative();
            let rb = c.b.get_speculative();
            if c.v.validate(v0) {
                s.commit();
                if ra != rb {
                    return Err(format!("seqlock: torn read committed ({ra} != {rb})"));
                }
                return Ok(());
            }
            s.abort();
        }
        Ok(())
    })
}

/// Seqlock, correct: Acquire/Release version brackets. The reader's
/// validating Acquire load joins the writer's Release end, so committed
/// speculative reads are ordered after the payload writes.
fn seqlock_rw() -> LitmusRun {
    let c = seq_cell();
    let w = Arc::clone(&c);
    no_locks(vec![
        Box::new(move || {
            w.v.write_begin();
            w.a.set(7);
            w.b.set(7);
            w.v.write_end();
            Ok(())
        }),
        seq_reader(c),
    ])
}

/// Seqlock with the injected missing-Release writer exit: the version
/// advances but publishes nothing, so a reader that validates against
/// the new version commits payload reads with no happens-before edge to
/// the writer's stores — the race the detector must catch.
#[cfg(feature = "check-inject")]
fn seqlock_missing_release() -> LitmusRun {
    let c = seq_cell();
    let w = Arc::clone(&c);
    no_locks(vec![
        Box::new(move || {
            w.v.write_begin();
            w.a.set(7);
            w.b.set(7);
            w.v.write_end_missing_release();
            Ok(())
        }),
        seq_reader(c),
    ])
}

fn manager() -> Arc<LockManager> {
    Arc::new(LockManager::new(
        LockManagerConfig::default(),
        ceh_locks::FixedWords::new(4),
    ))
}

/// Lock handoff, correct: both threads access `data` under the same
/// ξ-lock; the grant edge (release clock joined at `at_granted`) orders
/// the pair.
fn lock_handoff() -> LitmusRun {
    let data = Arc::new(Tracked::new(0u64, "handoff.data"));
    let m = manager();
    let id = LockId::Page(PageId(1));
    let (d0, m0) = (Arc::clone(&data), Arc::clone(&m));
    let (d1, m1) = (data, Arc::clone(&m));
    LitmusRun {
        bodies: vec![
            Box::new(move || {
                let o = m0.new_owner();
                m0.lock(o, id, LockMode::Xi);
                d0.set(1);
                m0.unlock(o, id, LockMode::Xi);
                Ok(())
            }),
            Box::new(move || {
                let o = m1.new_owner();
                m1.lock(o, id, LockMode::Xi);
                let _ = d1.get();
                m1.unlock(o, id, LockMode::Xi);
                Ok(())
            }),
        ],
        locks: Some(m),
    }
}

/// Locked-but-wrong: each thread diligently takes a ξ-lock — on a
/// *different* resource. Mutual exclusion between them is zero and the
/// `data` pair races; the classic "a lock was held, just not the same
/// one" bug.
fn handoff_unlocked() -> LitmusRun {
    let data = Arc::new(Tracked::new(0u64, "handoff.data"));
    let m = manager();
    let (d0, m0) = (Arc::clone(&data), Arc::clone(&m));
    let (d1, m1) = (data, Arc::clone(&m));
    LitmusRun {
        bodies: vec![
            Box::new(move || {
                let o = m0.new_owner();
                m0.lock(o, LockId::Page(PageId(1)), LockMode::Xi);
                d0.set(1);
                m0.unlock(o, LockId::Page(PageId(1)), LockMode::Xi);
                Ok(())
            }),
            Box::new(move || {
                let o = m1.new_owner();
                m1.lock(o, LockId::Page(PageId(2)), LockMode::Xi);
                let _ = d1.get();
                m1.unlock(o, LockId::Page(PageId(2)), LockMode::Xi);
                Ok(())
            }),
        ],
        locks: Some(m),
    }
}

/// The full corpus (the `check-inject`-only entry appears only when that
/// feature is on).
pub fn litmus_corpus() -> Vec<Litmus> {
    #[cfg_attr(not(feature = "check-inject"), allow(unused_mut))]
    let mut v = vec![
        Litmus {
            name: "mp-release-acquire",
            racy: false,
            build: mp_release_acquire,
        },
        Litmus {
            name: "mp-relaxed",
            racy: true,
            build: mp_relaxed,
        },
        Litmus {
            name: "store-buffer",
            racy: true,
            build: store_buffer,
        },
        Litmus {
            name: "store-buffer-atomic",
            racy: false,
            build: store_buffer_atomic,
        },
        Litmus {
            name: "seqlock-rw",
            racy: false,
            build: seqlock_rw,
        },
        Litmus {
            name: "lock-handoff",
            racy: false,
            build: lock_handoff,
        },
        Litmus {
            name: "handoff-unlocked",
            racy: true,
            build: handoff_unlocked,
        },
    ];
    #[cfg(feature = "check-inject")]
    v.push(Litmus {
        name: "seqlock-missing-release",
        racy: true,
        build: seqlock_missing_release,
    });
    v
}

/// Look a litmus up by corpus name.
pub fn litmus_by_name(name: &str) -> Option<Litmus> {
    litmus_corpus().into_iter().find(|l| l.name == name)
}

/// Run one litmus execution under `prefix`, race-checked with
/// access-level yields. Returns the outcome plus the first race (or
/// execution failure), if any.
fn run_litmus_once(
    l: &Litmus,
    prefix: &[usize],
    ccfg: &ControllerConfig,
) -> Result<(RunOutcome, Option<String>), String> {
    let run = (l.build)();
    let n = run.bodies.len();
    let sched = Scheduler::new(n);
    let rr = RaceRun::begin(&sched, n, true);
    if let Some(m) = &run.locks {
        m.set_wait_hook(Some(rr.hook()));
    }
    let out = sched.run(run.bodies, prefix, ccfg);
    if let Some(m) = &run.locks {
        m.set_wait_hook(None);
    }
    let races = rr.finish();
    let detail = out
        .failure
        .clone()
        .or_else(|| races.first().map(|r| r.to_string()));
    Ok((out, detail))
}

/// The result of exploring one litmus.
#[derive(Debug)]
pub struct LitmusReport {
    /// Corpus name.
    pub name: &'static str,
    /// Expected verdict.
    pub racy: bool,
    /// Schedules explored before the verdict.
    pub schedules: usize,
    /// First race found (minimized), if any. The verdict *matches* when
    /// `violation.is_some() == racy`.
    pub violation: Option<Violation>,
}

impl LitmusReport {
    /// Did the detector's verdict match the program's known one?
    pub fn verdict_matches(&self) -> bool {
        self.violation.is_some() == self.racy
    }
}

/// Explore every schedule of litmus `l` up to the bound, race-checking
/// each; the first race found is minimized.
pub fn explore_litmus(l: &Litmus, cfg: &ExploreConfig) -> Result<LitmusReport, String> {
    let ccfg = ControllerConfig {
        preemption_bound: cfg.preemption_bound,
        dpor: cfg.dpor,
    };
    let name = format!("litmus:{}", l.name);
    let dfs = dfs_explore(|prefix| run_litmus_once(l, prefix, &ccfg), cfg, &name)?;
    let violation = match dfs.violation {
        Some((choices, detail)) => {
            let (schedule, detail) = minimize_with(
                |s| {
                    let (out, v) = run_litmus_once(l, s, &ccfg)?;
                    Ok(if out.diverged { None } else { v })
                },
                &choices,
                detail,
            )?;
            Some(Violation {
                workload: name.clone(),
                preemption_bound: cfg.preemption_bound,
                schedule,
                detail,
                race: true,
            })
        }
        None => None,
    };
    Ok(LitmusReport {
        name: l.name,
        racy: l.racy,
        schedules: dfs.schedules,
        violation,
    })
}

/// Replay a litmus fixture schedule: the violation it reproduces, or
/// `None` for a clean run. Used by [`crate::replay`] for
/// `litmus:`-prefixed fixtures.
pub fn replay_litmus(
    name: &str,
    schedule: &[usize],
    preemption_bound: usize,
) -> Result<Option<String>, String> {
    let l = litmus_by_name(name).ok_or_else(|| {
        format!(
            "fixture names unknown litmus {name:?} (is it gated behind a feature this build lacks?)"
        )
    })?;
    let ccfg = ControllerConfig {
        preemption_bound,
        dpor: false,
    };
    let (out, violation) = run_litmus_once(&l, schedule, &ccfg)?;
    if out.diverged {
        return Err(format!(
            "fixture schedule for litmus {name} diverged; re-minimize the fixture"
        ));
    }
    Ok(violation)
}
