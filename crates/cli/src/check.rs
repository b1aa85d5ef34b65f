//! `ceh check` — the offline verification entry point.
//!
//! Thin argv-level wrapper over [`ceh_check`]: schedule exploration
//! ([`ceh_check::explore()`]), fixture replay ([`ceh_check::replay`]), the
//! crash-point sweep ([`ceh_check::run_sweep`]), and the lock-discipline
//! lint ([`ceh_check::lint_paths`]). See [`CHECK_HELP`] for the surface.

use std::fmt::Write as _;

use ceh_check::{
    dist_crash_round, explore, lint_paths, replay, CrashConfig, ExploreConfig, ScheduleFixture,
    Workload,
};
use ceh_types::{Error, Result};

/// Help text for `ceh check`.
pub const CHECK_HELP: &str = "\
usage: ceh check [--explore [WORKLOAD ...]] [--lint [PATH ...]]
                 [--replay FIXTURE ...] [--bound N] [--no-dpor]
       ceh check crash [--seed N] [--ops N] [--backend B] [--json] [--no-dist]
       ceh check race [WORKLOAD ...] [--bound N] [--no-dpor]
modes (default: --explore over every workload, then --lint crates):
  --explore [WORKLOAD ...]  run the named workloads (default: all) under
                            every schedule up to the preemption bound,
                            checking invariants + linearizability per run
  --lint [PATH ...]         run the lock-discipline lint (default: crates)
  --replay FIXTURE ...      replay schedule fixture files; a reproduced
                            violation is reported (and fails the check)
  --list-workloads          print workload names and exit
  crash                     run the recovery fuzzer: a seeded workload,
                            power cut at *every* reachable durability
                            point in turn, recovery checked against the
                            durability oracle; then one distributed
                            crash_site/restart_site round
  race                      run the happens-before race detector: first
                            the litmus corpus (every verdict must match
                            its known racy/race-free answer), then the
                            named workloads (default: all) explored with
                            every access race-checked (needs a build
                            with --features check-race)
options:
  --bound N                 preemption bound for --explore (default 3)
  --no-dpor                 disable commutativity pruning (slower, but
                            the coverage claim needs no heuristic)
  --seed N                  crash sweep workload + tear seed
  --ops N                   crash sweep workload length (default 96)
  --backend B               crash sweep medium: memory (default) or file;
                            file runs the same point sweep over real
                            frames/WAL files in a temp dir
  --json                    emit the crash sweep as JSON
  --no-dist                 skip the distributed crash round
exit status: 0 clean, 1 violations or lint findings, 2 usage error";

/// Parsed `ceh check` invocation.
struct Args {
    explore_workloads: Option<Vec<String>>,
    lint_paths: Option<Vec<String>>,
    replay_fixtures: Vec<String>,
    bound: usize,
    dpor: bool,
    list: bool,
    race: bool,
    race_workloads: Vec<String>,
    crash: bool,
    crash_seed: Option<u64>,
    crash_ops: Option<usize>,
    crash_backend: Option<ceh_storage::BackendKind>,
    json: bool,
    dist: bool,
}

fn parse_args(argv: &[String]) -> Result<Args> {
    let mut a = Args {
        explore_workloads: None,
        lint_paths: None,
        replay_fixtures: Vec::new(),
        bound: 3,
        dpor: true,
        list: false,
        race: false,
        race_workloads: Vec::new(),
        crash: false,
        crash_seed: None,
        crash_ops: None,
        crash_backend: None,
        json: false,
        dist: true,
    };
    let mut mode: Option<&'static str> = None;
    let mut it = argv.iter().peekable();
    let mut explicit = false;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--explore" => {
                a.explore_workloads.get_or_insert_with(Vec::new);
                mode = Some("explore");
                explicit = true;
            }
            "--lint" => {
                a.lint_paths.get_or_insert_with(Vec::new);
                mode = Some("lint");
                explicit = true;
            }
            "--replay" => {
                mode = Some("replay");
                explicit = true;
            }
            "--list-workloads" => a.list = true,
            "--no-dpor" => a.dpor = false,
            "--json" => a.json = true,
            "--no-dist" => a.dist = false,
            "--bound" => {
                let n = it
                    .next()
                    .ok_or_else(|| Error::Config("--bound needs a number".into()))?;
                a.bound = n
                    .parse()
                    .map_err(|_| Error::Config(format!("--bound: bad number {n:?}")))?;
            }
            "--seed" => {
                let n = it
                    .next()
                    .ok_or_else(|| Error::Config("--seed needs a number".into()))?;
                a.crash_seed = Some(
                    n.parse()
                        .map_err(|_| Error::Config(format!("--seed: bad number {n:?}")))?,
                );
            }
            "--ops" => {
                let n = it
                    .next()
                    .ok_or_else(|| Error::Config("--ops needs a number".into()))?;
                a.crash_ops = Some(
                    n.parse()
                        .map_err(|_| Error::Config(format!("--ops: bad number {n:?}")))?,
                );
            }
            "--backend" => {
                let b = it
                    .next()
                    .ok_or_else(|| Error::Config("--backend needs memory or file".into()))?;
                a.crash_backend = Some(ceh_storage::BackendKind::parse(b)?);
            }
            "--help" | "-h" => {
                return Err(Error::Config(CHECK_HELP.into()));
            }
            flag if flag.starts_with('-') => {
                return Err(Error::Config(format!("unknown flag {flag}\n{CHECK_HELP}")));
            }
            "crash" if mode.is_none() => {
                a.crash = true;
                mode = Some("crash");
                explicit = true;
            }
            "race" if mode.is_none() => {
                a.race = true;
                mode = Some("race");
                explicit = true;
            }
            operand => match mode {
                Some("explore") => a
                    .explore_workloads
                    .get_or_insert_with(Vec::new)
                    .push(operand.to_string()),
                Some("lint") => a
                    .lint_paths
                    .get_or_insert_with(Vec::new)
                    .push(operand.to_string()),
                Some("replay") => a.replay_fixtures.push(operand.to_string()),
                Some("race") => a.race_workloads.push(operand.to_string()),
                _ => {
                    return Err(Error::Config(format!(
                        "unexpected operand {operand:?}\n{CHECK_HELP}"
                    )))
                }
            },
        }
    }
    if !explicit && !a.list {
        // Default: full sweep.
        a.explore_workloads = Some(Vec::new());
        a.lint_paths = Some(Vec::new());
    }
    Ok(a)
}

/// Run `ceh check` with the argv tail after the subcommand. Returns the
/// report and whether everything came back clean (`false` ⇒ exit 1).
pub fn run_check(argv: &[String]) -> Result<(String, bool)> {
    let args = parse_args(argv)?;
    let mut out = String::new();
    let mut clean = true;

    if args.list {
        for w in Workload::all() {
            let _ = writeln!(out, "{:<26} {}", w.name, w.description);
        }
        return Ok((out, true));
    }

    if args.crash {
        let mut cfg = CrashConfig::default();
        if let Some(seed) = args.crash_seed {
            cfg.seed = seed;
        }
        if let Some(ops) = args.crash_ops {
            cfg.ops = ops;
        }
        if let Some(backend) = args.crash_backend {
            cfg.backend = backend;
        }
        let report = ceh_check::run_sweep(&cfg).map_err(Error::Config)?;
        let dist = if args.dist {
            Some(dist_crash_round(cfg.seed, 24))
        } else {
            None
        };
        let sweep_clean = report.ok();
        let dist_clean = !matches!(&dist, Some(Err(_)));
        clean = clean && sweep_clean && dist_clean;
        if args.json {
            let _ = write!(
                out,
                "{{\"seed\":{},\"ops\":{},\"backend\":\"{}\",\"points\":{},\"outcomes\":[",
                cfg.seed, cfg.ops, cfg.backend, report.points
            );
            for (i, o) in report.outcomes.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}{{\"point\":{},\"acked\":{},\"redo_applied\":{},\"torn_frames\":{},\
                     \"txns_discarded\":{},\"ok\":{}}}",
                    if i > 0 { "," } else { "" },
                    o.point,
                    o.acked,
                    o.redo_applied,
                    o.torn_frames,
                    o.txns_discarded,
                    o.verdict.is_ok()
                );
            }
            let _ = writeln!(
                out,
                "],\"dist_round\":{},\"ok\":{}}}",
                match &dist {
                    None => "null".to_string(),
                    Some(Ok(())) => "true".to_string(),
                    Some(Err(_)) => "false".to_string(),
                },
                sweep_clean && dist_clean
            );
        } else {
            let _ = writeln!(
                out,
                "crash sweep: seed {}, {} ops, {} backend, {} durability points",
                cfg.seed, cfg.ops, cfg.backend, report.points
            );
            let _ = writeln!(
                out,
                "point  acked  redo  torn  discarded  inflight / verdict"
            );
            for o in &report.outcomes {
                let _ = writeln!(
                    out,
                    "{:>5}  {:>5}  {:>4}  {:>4}  {:>9}  {}",
                    o.point,
                    o.acked,
                    o.redo_applied,
                    o.torn_frames,
                    o.txns_discarded,
                    match &o.verdict {
                        Ok(()) => match &o.inflight {
                            Some(op) => format!("ok ({op:?} in flight, atomic)"),
                            None => "ok".to_string(),
                        },
                        Err(v) => format!("VIOLATION: {v}"),
                    }
                );
            }
            for f in &report.failures {
                let _ = writeln!(
                    out,
                    "--- minimized fixture (save under tests/fixtures/crashes/) ---"
                );
                out.push_str(&f.serialize());
                let _ = writeln!(out, "---");
            }
            match &dist {
                None => {}
                Some(Ok(())) => {
                    let _ = writeln!(out, "dist    crash_site/restart_site round: clean");
                }
                Some(Err(e)) => {
                    let _ = writeln!(out, "dist    crash_site/restart_site round: FAILED: {e}");
                }
            }
            let _ = writeln!(
                out,
                "crash   {}: {}/{} points recovered clean",
                if sweep_clean && dist_clean {
                    "clean"
                } else {
                    "FAILED"
                },
                report.outcomes.iter().filter(|o| o.verdict.is_ok()).count(),
                report.points
            );
        }
    }

    if args.race {
        run_race(&args, &mut out, &mut clean)?;
    }

    if let Some(names) = &args.explore_workloads {
        let workloads: Vec<Workload> = if names.is_empty() {
            Workload::all()
        } else {
            names
                .iter()
                .map(|n| {
                    Workload::by_name(n).ok_or_else(|| {
                        Error::Config(format!("unknown workload {n:?} (try --list-workloads)"))
                    })
                })
                .collect::<Result<_>>()?
        };
        let cfg = ExploreConfig {
            preemption_bound: args.bound,
            dpor: args.dpor,
            ..Default::default()
        };
        for w in &workloads {
            let report = explore(w, &cfg).map_err(Error::Config)?;
            match &report.violation {
                None => {
                    let _ = writeln!(
                        out,
                        "explore {:<26} clean: {} schedules at bound {}{}{}",
                        w.name,
                        report.schedules,
                        args.bound,
                        if args.dpor {
                            " (dpor)"
                        } else {
                            " (exhaustive)"
                        },
                        if report.truncated { " [TRUNCATED]" } else { "" },
                    );
                }
                Some(v) => {
                    clean = false;
                    let _ = writeln!(
                        out,
                        "explore {:<26} VIOLATION after {} schedules: {}",
                        w.name, report.schedules, v.detail
                    );
                    let _ = writeln!(
                        out,
                        "--- minimized fixture (save under tests/fixtures/schedules/) ---"
                    );
                    out.push_str(&v.to_fixture().serialize());
                    let _ = writeln!(out, "---");
                }
            }
        }
    }

    for path in &args.replay_fixtures {
        let text = std::fs::read_to_string(path)
            .map_err(|e| Error::Config(format!("cannot read fixture {path}: {e}")))?;
        let fix = ScheduleFixture::parse(&text).map_err(Error::Config)?;
        match replay(&fix).map_err(Error::Config)? {
            Some(detail) => {
                clean = false;
                let _ = writeln!(out, "replay  {path}: VIOLATION reproduced: {detail}");
            }
            None => {
                let _ = writeln!(out, "replay  {path}: clean");
            }
        }
    }

    if let Some(paths) = &args.lint_paths {
        let paths: Vec<std::path::PathBuf> = if paths.is_empty() {
            vec![std::path::PathBuf::from("crates")]
        } else {
            paths.iter().map(std::path::PathBuf::from).collect()
        };
        let findings = lint_paths(&paths).map_err(Error::Config)?;
        if findings.is_empty() {
            let _ = writeln!(out, "lint    clean");
        } else {
            clean = false;
            for f in &findings {
                let _ = writeln!(out, "{f}");
            }
            let _ = writeln!(out, "lint    {} finding(s)", findings.len());
        }
    }

    Ok((out, clean))
}

/// `ceh check race`: litmus-corpus verdicts, then the workloads explored
/// with the happens-before detector observing every tracked access.
#[cfg(feature = "check-race")]
fn run_race(args: &Args, out: &mut String, clean: &mut bool) -> Result<()> {
    use ceh_check::{explore_litmus, litmus_corpus};

    let cfg = ExploreConfig {
        preemption_bound: args.bound,
        dpor: args.dpor,
        race: true,
        ..Default::default()
    };

    for l in litmus_corpus() {
        let report = explore_litmus(&l, &cfg).map_err(Error::Config)?;
        let matches = report.verdict_matches();
        *clean = *clean && matches;
        let verdict = match (&report.violation, matches) {
            (None, true) => "race-free (as known)".to_string(),
            (Some(v), true) => format!("racy (as known): {}", v.detail),
            (None, false) => "MISSED: known racy, detector saw nothing".to_string(),
            (Some(v), false) => format!("FALSE POSITIVE on race-free program: {}", v.detail),
        };
        let _ = writeln!(
            out,
            "race    litmus {:<24} {} [{} schedules]",
            l.name, verdict, report.schedules
        );
    }

    let workloads: Vec<Workload> = if args.race_workloads.is_empty() {
        Workload::all()
    } else {
        args.race_workloads
            .iter()
            .map(|n| {
                Workload::by_name(n).ok_or_else(|| {
                    Error::Config(format!("unknown workload {n:?} (try --list-workloads)"))
                })
            })
            .collect::<Result<_>>()?
    };
    for w in &workloads {
        let report = explore(w, &cfg).map_err(Error::Config)?;
        match &report.violation {
            None => {
                let _ = writeln!(
                    out,
                    "race    {:<26} clean: {} schedules at bound {}{}",
                    w.name,
                    report.schedules,
                    args.bound,
                    if report.truncated { " [TRUNCATED]" } else { "" },
                );
            }
            Some(v) => {
                *clean = false;
                let _ = writeln!(
                    out,
                    "race    {:<26} VIOLATION after {} schedules: {}",
                    w.name, report.schedules, v.detail
                );
                let _ = writeln!(
                    out,
                    "--- minimized fixture (save under tests/fixtures/races/) ---"
                );
                out.push_str(&v.to_fixture().serialize());
                let _ = writeln!(out, "---");
            }
        }
    }
    Ok(())
}

/// Without the `check-race` feature the detector seam compiles to
/// nothing, so there is nothing to observe — fail loudly instead of
/// reporting a vacuous "clean".
#[cfg(not(feature = "check-race"))]
fn run_race(_args: &Args, _out: &mut String, _clean: &mut bool) -> Result<()> {
    Err(Error::Config(
        "ceh check race needs a build with the race detector compiled in: \
         rebuild with `--features check-race` (e.g. \
         `cargo run -p ceh-cli --features check-race --bin ceh -- check race`)"
            .into(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn list_workloads_prints_all() {
        let (out, clean) = run_check(&s(&["--list-workloads"])).unwrap();
        assert!(clean);
        for w in Workload::all() {
            assert!(out.contains(w.name), "missing {} in {out}", w.name);
        }
    }

    #[test]
    fn explore_one_workload_is_clean() {
        let (out, clean) =
            run_check(&s(&["--explore", "s1-insert-insert-split", "--bound", "2"])).unwrap();
        assert!(clean, "{out}");
        assert!(out.contains("clean"), "{out}");
    }

    #[test]
    fn unknown_workload_is_a_usage_error() {
        assert!(run_check(&s(&["--explore", "no-such-workload"])).is_err());
    }

    #[test]
    fn bad_flag_is_a_usage_error() {
        assert!(run_check(&s(&["--frobnicate"])).is_err());
    }

    #[test]
    fn crash_sweep_prints_a_point_table() {
        // Small sweep, no dist round — keep the unit test fast.
        let (out, clean) =
            run_check(&s(&["crash", "--seed", "7", "--ops", "16", "--no-dist"])).unwrap();
        assert!(clean, "{out}");
        assert!(out.contains("durability points"), "{out}");
        assert!(out.contains("point  acked"), "{out}");
        assert!(out.contains("crash   clean"), "{out}");
    }

    #[test]
    fn crash_sweep_json_is_well_formed_enough() {
        let (out, clean) = run_check(&s(&[
            "crash",
            "--seed",
            "7",
            "--ops",
            "12",
            "--no-dist",
            "--json",
        ]))
        .unwrap();
        assert!(clean, "{out}");
        assert!(out.trim_start().starts_with('{'), "{out}");
        assert!(out.contains("\"outcomes\":["), "{out}");
        assert!(out.contains("\"dist_round\":null"), "{out}");
        assert!(out.trim_end().ends_with('}'), "{out}");
    }

    #[test]
    fn crash_sweep_runs_on_the_file_backend() {
        let (out, clean) = run_check(&s(&[
            "crash",
            "--seed",
            "7",
            "--ops",
            "12",
            "--backend",
            "file",
            "--no-dist",
        ]))
        .unwrap();
        assert!(clean, "{out}");
        assert!(out.contains("file backend"), "{out}");
        assert!(out.contains("crash   clean"), "{out}");
    }

    /// On a default build the race mode must refuse to report a vacuous
    /// "clean" — the seam compiled to nothing.
    #[cfg(not(feature = "check-race"))]
    #[test]
    fn race_without_feature_is_a_loud_error() {
        let err = run_check(&s(&["race"])).unwrap_err();
        assert!(format!("{err}").contains("check-race"), "{err}");
    }

    /// With the detector compiled in, `race` runs the litmus corpus
    /// (verdicts must match) and the named workloads race-checked.
    #[cfg(feature = "check-race")]
    #[test]
    fn race_mode_runs_litmus_and_workloads() {
        let (out, clean) =
            run_check(&s(&["race", "s1-insert-insert-split", "--bound", "1"])).unwrap();
        assert!(clean, "{out}");
        assert!(out.contains("race    litmus"), "{out}");
        assert!(out.contains("racy (as known)"), "{out}");
        assert!(out.contains("race-free (as known)"), "{out}");
        assert!(out.contains("s1-insert-insert-split"), "{out}");
    }

    #[test]
    fn race_is_a_mode_not_an_operand() {
        assert!(run_check(&s(&["crash", "race"])).is_err());
    }

    #[test]
    fn crash_flags_validate() {
        assert!(run_check(&s(&["crash", "--seed"])).is_err());
        assert!(run_check(&s(&["crash", "--ops", "many"])).is_err());
        assert!(run_check(&s(&["crash", "--backend", "tape"])).is_err());
    }
}
