//! Bounded-exhaustive schedule exploration.
//!
//! [`explore`] runs a [`Workload`] under *every* interleaving reachable
//! with at most `preemption_bound` preemptions: a DFS over schedule
//! prefixes, where each execution records which alternative choices were
//! legal at each scheduling decision and the explorer forks a new prefix
//! per alternative. Each execution is independently verified:
//!
//! 1. **execution health** — no operation error, worker panic, or
//!    virtual-thread deadlock;
//! 2. **structural invariants** — [`ceh_core::invariants`] over the
//!    quiescent file (directory/bucket agreement, no reachable
//!    tombstones, record placement, length accounting);
//! 3. **linearizability** — the recorded operation history checks out
//!    against the sequential model ([`crate::linearize`], exact mode).
//!
//! The first violating schedule is minimized by re-running
//! candidate sub-schedules and shipped as a replayable
//! [`ScheduleFixture`].

use std::sync::Arc;

use crate::linearize::{check_linearizable, Strictness};
use crate::schedule::ScheduleFixture;
use crate::vthread::{Body, ControllerConfig, ExplorerHook, RunOutcome, Scheduler};
use crate::workload::Workload;

/// Exploration knobs.
#[derive(Debug, Clone, Copy)]
pub struct ExploreConfig {
    /// Maximum preemptions per execution (forced switches are free).
    pub preemption_bound: usize,
    /// Prune preemptions whose reordering provably commutes (acquires
    /// on distinct locks). Heuristic: big state-space cut on 3+-thread
    /// workloads, so it is on by default; the two-thread acceptance
    /// workloads are cheap enough that the smoke test also runs them
    /// unpruned.
    pub dpor: bool,
    /// Hard cap on executions (the report says if it was hit).
    pub max_schedules: usize,
    /// Also run the happens-before race detector over every explored
    /// schedule (requires the `check-race` feature; exploring with this
    /// set on a build without it is an error, not a silent skip).
    pub race: bool,
}

impl Default for ExploreConfig {
    fn default() -> Self {
        ExploreConfig {
            preemption_bound: 3,
            dpor: true,
            max_schedules: 500_000,
            race: false,
        }
    }
}

/// What one violating schedule did.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Workload that produced it.
    pub workload: String,
    /// Bound it was found under.
    pub preemption_bound: usize,
    /// Minimized replayable schedule.
    pub schedule: Vec<usize>,
    /// What went wrong (first failed check).
    pub detail: String,
    /// True if the run was race-checked (replay must re-enable the
    /// detector to reproduce a race violation).
    pub race: bool,
}

impl Violation {
    /// Package as a fixture for `tests/fixtures/schedules/` (or
    /// `tests/fixtures/races/` for race violations).
    pub fn to_fixture(&self) -> ScheduleFixture {
        ScheduleFixture {
            workload: self.workload.clone(),
            preemption_bound: self.preemption_bound,
            schedule: self.schedule.clone(),
            violation: Some(self.detail.lines().next().unwrap_or("").to_string()),
            race: self.race,
        }
    }
}

/// The outcome of exploring one workload.
#[derive(Debug)]
pub struct ExploreReport {
    /// Workload explored.
    pub workload: String,
    /// Executions run.
    pub schedules: usize,
    /// True if `max_schedules` cut the search short — coverage is then
    /// *not* exhaustive and the caller should say so.
    pub truncated: bool,
    /// First violation found, already minimized. `None` = every
    /// explored schedule passed all checks.
    pub violation: Option<Violation>,
}

/// Raw result of a [`dfs_explore`] pass: counts plus the first violating
/// schedule's un-minimized choices and detail.
pub(crate) struct DfsOutcome {
    pub schedules: usize,
    pub truncated: bool,
    pub violation: Option<(Vec<usize>, String)>,
}

/// DFS over schedule prefixes, generic over how one prefix is executed
/// (protocol workloads and litmus programs share this driver). Decisions
/// at positions < prefix.len() were enumerated by the run that pushed
/// the prefix; only new positions fork further prefixes.
pub(crate) fn dfs_explore<F>(
    mut run: F,
    cfg: &ExploreConfig,
    name: &str,
) -> Result<DfsOutcome, String>
where
    F: FnMut(&[usize]) -> Result<(RunOutcome, Option<String>), String>,
{
    let mut stack: Vec<Vec<usize>> = vec![Vec::new()];
    let mut schedules = 0usize;
    let mut truncated = false;
    while let Some(prefix) = stack.pop() {
        if schedules >= cfg.max_schedules {
            truncated = true;
            break;
        }
        schedules += 1;
        let (out, violation) = run(&prefix)?;
        if out.diverged {
            return Err(format!(
                "workload {name} is nondeterministic: schedule replay diverged"
            ));
        }
        if let Some(detail) = violation {
            return Ok(DfsOutcome {
                schedules,
                truncated,
                violation: Some((out.choices(), detail)),
            });
        }
        for i in prefix.len()..out.decisions.len() {
            for &alt in &out.decisions[i].alternatives {
                let mut p: Vec<usize> = out.decisions[..i].iter().map(|d| d.chosen).collect();
                p.push(alt);
                stack.push(p);
            }
        }
    }
    Ok(DfsOutcome {
        schedules,
        truncated,
        violation: None,
    })
}

/// Explore every schedule of `w` up to the bound. `Err` is an
/// infrastructure failure (the workload would not even build), not a
/// verification result.
pub fn explore(w: &Workload, cfg: &ExploreConfig) -> Result<ExploreReport, String> {
    let ccfg = ControllerConfig {
        preemption_bound: cfg.preemption_bound,
        dpor: cfg.dpor,
    };
    let dfs = dfs_explore(|prefix| run_one(w, prefix, &ccfg, cfg.race), cfg, w.name)?;
    let violation = match dfs.violation {
        Some((choices, detail)) => {
            let (schedule, detail) = minimize_with(
                |s| {
                    let (out, v) = run_one(w, s, &ccfg, cfg.race)?;
                    Ok(if out.diverged { None } else { v })
                },
                &choices,
                detail,
            )?;
            Some(Violation {
                workload: w.name.to_string(),
                preemption_bound: cfg.preemption_bound,
                schedule,
                detail,
                race: cfg.race,
            })
        }
        None => None,
    };
    Ok(ExploreReport {
        workload: w.name.to_string(),
        schedules: dfs.schedules,
        truncated: dfs.truncated,
        violation,
    })
}

/// Replay a fixture. Returns the violation it reproduces, or `None` if
/// the schedule now runs clean (a fixed bug — the regression test wants
/// clean runs for checked-in fixtures of *fixed* bugs, and violations
/// for fixtures guarding known-injected ones).
///
/// A fixture whose workload is `litmus:NAME` replays through the litmus
/// corpus instead (requires the `check-race` feature).
pub fn replay(fix: &ScheduleFixture) -> Result<Option<String>, String> {
    if let Some(litmus_name) = fix.workload.strip_prefix("litmus:") {
        #[cfg(feature = "check-race")]
        return crate::litmus::replay_litmus(litmus_name, &fix.schedule, fix.preemption_bound);
        #[cfg(not(feature = "check-race"))]
        return Err(format!(
            "fixture for litmus {litmus_name:?} requires ceh-check built with --features check-race"
        ));
    }
    let w = Workload::by_name(&fix.workload)
        .ok_or_else(|| format!("fixture names unknown workload {:?}", fix.workload))?;
    let ccfg = ControllerConfig {
        preemption_bound: fix.preemption_bound,
        dpor: false,
    };
    let (out, violation) = run_one(&w, &fix.schedule, &ccfg, fix.race)?;
    if out.diverged {
        return Err(format!(
            "fixture schedule for {} diverged: the workload or protocol changed shape; \
             re-minimize the fixture",
            fix.workload
        ));
    }
    Ok(violation)
}

/// Run one serialized execution and verify it. Returns the outcome plus
/// the first violated check, if any. With `race` set the run is also
/// race-checked: the detector is installed as the process-global shadow
/// sink for the duration (serialized by the global run lock) and any
/// race it finds outranks invariant/linearizability details.
fn run_one(
    w: &Workload,
    prefix: &[usize],
    ccfg: &ControllerConfig,
    race: bool,
) -> Result<(RunOutcome, Option<String>), String> {
    #[cfg(not(feature = "check-race"))]
    if race {
        return Err(
            "race checking requires ceh-check built with --features check-race".to_string(),
        );
    }
    // Build (setup inserts, preloading) runs before any hook or sink is
    // installed, so only the workload's own accesses are observed.
    let (file, locks, metrics) = w.build()?;
    let init = w.initial_map();
    metrics.history().enable();
    let sched = Scheduler::new(w.threads.len());
    #[cfg(feature = "check-race")]
    let race_run = race.then(|| {
        // Workloads keep access-level yields off: a happens-before
        // violation is visible in any serialization, and yielding at
        // every shadowed access would explode the schedule space.
        crate::race::RaceRun::begin(&sched, w.threads.len(), false)
    });
    #[cfg(feature = "check-race")]
    match &race_run {
        Some(rr) => locks.set_wait_hook(Some(rr.hook())),
        None => locks.set_wait_hook(Some(Arc::new(ExplorerHook::new(Arc::clone(&sched))))),
    }
    #[cfg(not(feature = "check-race"))]
    locks.set_wait_hook(Some(Arc::new(ExplorerHook::new(Arc::clone(&sched)))));
    let file_ref = file.as_dyn();
    let bodies: Vec<Body<'_>> = w
        .threads
        .iter()
        .map(|ops| {
            let ops = ops.clone();
            Box::new(move || {
                for op in ops {
                    op.apply(file_ref)?;
                }
                Ok(())
            }) as Body<'_>
        })
        .collect();
    let out = sched.run(bodies, prefix, ccfg);
    locks.set_wait_hook(None);
    metrics.history().disable();
    let records = metrics.history().drain();

    let mut detail = out.failure.clone();
    #[cfg(feature = "check-race")]
    if let Some(rr) = race_run {
        let races = rr.finish();
        if detail.is_none() {
            if let Some(r) = races.first() {
                detail = Some(r.to_string());
            }
        }
    }
    if detail.is_none() {
        if let Err(e) = ceh_core::invariants::check_concurrent_file(file.core()) {
            detail = Some(format!("structural invariant violated at quiescence: {e}"));
        }
    }
    if detail.is_none() {
        if let Err(v) = check_linearizable(&init, &records, Strictness::Exact) {
            detail = Some(v.to_string());
        }
    }
    Ok((out, detail))
}

/// Shrink a violating schedule: first the shortest violating prefix
/// (default policy fills in the rest), then greedy single-choice drops.
/// Every candidate is validated by an actual re-run through `violates`
/// (which must report diverged candidates as `None` so they are
/// discarded).
pub(crate) fn minimize_with<F>(
    violates: F,
    choices: &[usize],
    original_detail: String,
) -> Result<(Vec<usize>, String), String>
where
    F: Fn(&[usize]) -> Result<Option<String>, String>,
{
    let mut best = choices.to_vec();
    let mut detail = original_detail;

    // Shortest violating prefix, by bisection on length. Monotone for
    // lengths past the point where the tail already follows the default
    // policy (which is how `choices` was produced), so this is exact
    // there and a safe heuristic below it.
    let mut lo = 0usize;
    let mut hi = best.len();
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match violates(&best[..mid])? {
            Some(d) => {
                hi = mid;
                detail = d;
            }
            None => lo = mid + 1,
        }
    }
    best.truncate(hi);

    // Greedy elementwise drops.
    let mut i = 0;
    while i < best.len() {
        let mut cand = best.clone();
        cand.remove(i);
        match violates(&cand)? {
            Some(d) => {
                best = cand;
                detail = d;
            }
            None => i += 1,
        }
    }

    // The minimized schedule must still reproduce (guards against the
    // bisection landing on a fluke).
    if violates(&best)?.is_none() {
        best = choices.to_vec();
    }
    Ok((best, detail))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(dpor: bool) -> ExploreConfig {
        ExploreConfig {
            preemption_bound: 2,
            dpor,
            max_schedules: 50_000,
            race: false,
        }
    }

    #[test]
    fn s1_split_race_is_clean_bound_2() {
        let w = Workload::by_name("s1-insert-insert-split").unwrap();
        let r = explore(&w, &cfg(false)).unwrap();
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert!(!r.truncated);
        assert!(r.schedules > 1, "explored only {} schedules", r.schedules);
    }

    #[test]
    fn dpor_pruning_preserves_the_verdict() {
        let w = Workload::by_name("s1-insert-insert-split").unwrap();
        let full = explore(&w, &cfg(false)).unwrap();
        let pruned = explore(&w, &cfg(true)).unwrap();
        assert!(full.violation.is_none() && pruned.violation.is_none());
        assert!(
            pruned.schedules <= full.schedules,
            "pruning explored more ({}) than exhaustive ({})",
            pruned.schedules,
            full.schedules
        );
    }

    #[test]
    #[cfg_attr(
        feature = "check-inject",
        ignore = "injected bug makes this workload violate"
    )]
    fn s2_merge_race_is_clean_bound_2() {
        let w = Workload::by_name("s2-delete-delete-merge").unwrap();
        let r = explore(&w, &cfg(false)).unwrap();
        assert!(r.violation.is_none(), "{:?}", r.violation);
        assert!(!r.truncated);
    }

    #[test]
    fn max_schedules_truncates() {
        let w = Workload::by_name("s1-insert-insert-split").unwrap();
        let r = explore(
            &w,
            &ExploreConfig {
                preemption_bound: 2,
                dpor: false,
                max_schedules: 2,
                race: false,
            },
        )
        .unwrap();
        assert!(r.truncated);
        assert_eq!(r.schedules, 2);
    }
}
