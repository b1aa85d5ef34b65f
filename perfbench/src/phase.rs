//! The closed-loop timed phase: each caller thread sends its next
//! operation only when the previous one has answered, checks every
//! answer against its oracle, and times every operation.
//!
//! The machine this runs on is a guest whose host takes CPU time away
//! in bursts (steal) that slow every layer at once. The phase is cut
//! into one-second windows and the machine's steal is read at each
//! window boundary, so every result carries the steal and op count of
//! each window, and the rate counts only the time the host left to the
//! machine. The timings pool every whole window: percentiles over only
//! the least-stolen windows rest on fewer windows that differ from run to
//! run, and vary more.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::procfs;
use crate::stats::Latencies;
use crate::workload::{Caller, Mix, Op, Outcome};

/// Length of one measurement window.
const WINDOW: Duration = Duration::from_secs(1);

/// What a set of windows measured.
#[derive(Debug, Default, Clone)]
pub struct Measured {
    /// Operations completed in the windows.
    pub ops: u64,
    /// Length of the windows together.
    pub seconds: f64,
    /// Of those seconds, the share the host took from the machine (steal).
    pub stolen_s: f64,
    /// CPU seconds of the program's processes in the windows.
    pub cpu_s: f64,
    /// Latency of every find completed in the windows.
    pub finds: Latencies,
    /// Latency of every insert and delete completed in the windows.
    pub updates: Latencies,
}

impl Measured {
    /// Completed operations per second the host left to the machine:
    /// a steal burst stops the callers without slowing the program, and
    /// would otherwise move the rate by as much as it lasts.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / (self.seconds - self.stolen_s)
    }

    /// Completed operations per second of wall time, steal included.
    pub fn ops_per_wall_s(&self) -> f64 {
        self.ops as f64 / self.seconds
    }

    /// CPU microseconds per operation.
    pub fn cpu_us_per_op(&self) -> f64 {
        self.cpu_s * 1e6 / self.ops as f64
    }

    fn add(&mut self, other: &Measured) {
        self.ops += other.ops;
        self.seconds += other.seconds;
        self.stolen_s += other.stolen_s;
        self.cpu_s += other.cpu_s;
        self.finds.merge(&other.finds);
        self.updates.merge(&other.updates);
    }
}

/// What one timed phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Operations attempted over the whole phase.
    pub ops: u64,
    /// Of those, operations that returned an error.
    pub failed: u64,
    /// Every whole window together.
    pub all: Measured,
    /// The machine's CPU steal in each whole window, in percent.
    pub steal_pct: Vec<f64>,
    /// Operations completed in each whole window.
    pub ops_per_window: Vec<u64>,
}

impl Phase {
    /// Append `later`, a phase run after this one.
    pub fn extend(&mut self, later: Phase) {
        self.ops += later.ops;
        self.failed += later.failed;
        self.all.add(&later.all);
        self.steal_pct.extend(later.steal_pct);
        self.ops_per_window.extend(later.ops_per_window);
    }
}

/// Run every caller for `length` (whole seconds) against executors made
/// by `make` (called once per caller, on its own thread). `cpu_s` reads
/// the CPU seconds of the processes that hold the file. A wrong answer
/// from any caller fails the phase.
pub fn run<M, E>(
    callers: &mut [Caller],
    mix: Mix,
    length: Duration,
    cpu_s: &(dyn Fn() -> Option<f64> + Sync),
    make: M,
) -> Result<Phase, String>
where
    M: Fn(usize) -> E + Sync,
    E: FnMut(Op) -> ceh_types::Result<Outcome>,
{
    let windows = length.as_secs().max(1) as usize;
    let barrier = Barrier::new(callers.len() + 1);
    let start_cell = std::sync::OnceLock::new();
    let (results, samples) = std::thread::scope(|s| {
        let handles: Vec<_> = callers
            .iter_mut()
            .enumerate()
            .map(|(i, caller)| {
                let (barrier, make, start_cell) = (&barrier, &make, &start_cell);
                s.spawn(move || -> Result<(u64, u64, Vec<Measured>), String> {
                    let mut exec = make(i);
                    // One slot per whole window, and one for the last op
                    // each caller finishes after the deadline.
                    let mut per_window = vec![Measured::default(); windows + 1];
                    let (mut ops, mut failed) = (0, 0);
                    barrier.wait();
                    let start: Instant =
                        *start_cell.get().expect("start is set before the barrier");
                    let deadline = start + WINDOW * windows as u32;
                    loop {
                        let op = caller.next_op(mix);
                        let t0 = Instant::now();
                        let got = exec(op);
                        let t1 = Instant::now();
                        let ns = u64::try_from((t1 - t0).as_nanos()).unwrap_or(u64::MAX);
                        let w = &mut per_window[((t1 - start).as_secs() as usize).min(windows)];
                        if op.is_find() {
                            w.finds.record(ns);
                        } else {
                            w.updates.record(ns);
                        }
                        w.ops += 1;
                        ops += 1;
                        match got {
                            Ok(out) => caller.settle(out)?,
                            Err(_) => {
                                failed += 1;
                                caller.settle_failed();
                            }
                        }
                        if t1 >= deadline {
                            return Ok((ops, failed, per_window));
                        }
                    }
                })
            })
            .collect();
        // This thread samples steal and CPU at every window boundary.
        let start = Instant::now();
        start_cell.set(start).expect("set once");
        let read = || (procfs::machine_ticks(), cpu_s());
        let mut samples = vec![read()];
        barrier.wait();
        for w in 1..=windows {
            let due = start + WINDOW * w as u32;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            samples.push(read());
        }
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect();
        (results, samples)
    });

    let mut phase = Phase::default();
    let mut per_window = vec![Measured::default(); windows];
    for r in results {
        let (ops, failed, caller_windows) = r?;
        phase.ops += ops;
        phase.failed += failed;
        for (total, w) in per_window.iter_mut().zip(&caller_windows) {
            total.add(w);
        }
    }
    for (w, pair) in per_window.iter_mut().zip(samples.windows(2)) {
        let ((Some(t0), Some(c0)), (Some(t1), Some(c1))) = (pair[0], pair[1]) else {
            return Err("could not read /proc at a window boundary".into());
        };
        let steal = procfs::steal_pct(t0, t1);
        w.seconds = WINDOW.as_secs_f64();
        w.stolen_s = w.seconds * steal / 100.0;
        w.cpu_s = c1 - c0;
        phase.steal_pct.push(steal);
    }
    for w in &per_window {
        phase.all.add(w);
        phase.ops_per_window.push(w.ops);
    }
    Ok(phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_rate_leaves_out_stolen_time() {
        let m = Measured {
            ops: 900,
            seconds: 10.0,
            stolen_s: 1.0,
            ..Measured::default()
        };
        assert_eq!(m.ops_per_s(), 100.0);
        assert_eq!(m.ops_per_wall_s(), 90.0);
    }
}
