//! The hash file's benchmark: one workload from a seed, every result
//! checked, metrics printed by name with units.
//!
//! ```text
//! perfbench --workload <mem-read|mem-churn|tcp-churn> --seed <n>
//!           --seconds <s> --trace <0|1> --ceh <path to ceh> --work <dir>
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a traced run.
//! The line before it holds the run's facts (environment, sample
//! counts, the base of every ratio). `perfbench/run.py` builds this
//! program and `ceh`, and is the command to run.

mod layers;
mod mem;
mod phase;
mod procfs;
mod report;
mod stats;
mod tcp;
mod workload;

use std::path::PathBuf;

use ceh_obs::json::Json;

use report::Report;
use workload::Mix;

/// Caller threads: one per core of the two-core machine the bounds were
/// set on, each in a closed loop.
pub const CALLERS: u64 = 2;

/// Set-ups per timed run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// The end-to-end metrics (`--trace 0`) with their units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("ops_per_s", "1/s"),
    ("find_p50_us", "us"),
    ("find_p99_us", "us"),
    ("update_p50_us", "us"),
    ("update_p99_us", "us"),
    ("cpu_us_per_op", "us"),
    ("rss_mib", "MiB"),
    ("space_amp", "ratio"),
    ("setup_s", "s"),
];

/// The per-layer metrics (`--trace 1`) with their units.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("types.hash_ns", "ns"),
    ("types.decode_ns", "ns"),
    ("types.encode_ns", "ns"),
    ("types.records_decoded_per_find", "count"),
    ("core.dir_lookup_ns", "ns"),
    ("core.dir_depth", "count"),
    ("core.setup_splits", "count"),
    ("core.splits_per_kop", "count"),
    ("core.merges_per_kop", "count"),
    ("core.recovery_hops_per_kop", "count"),
    ("core.self_ns_per_op", "ns"),
    ("locks.grants_per_op", "count"),
    ("locks.lock_unlock_ns", "ns"),
    ("locks.waits_per_kop", "count"),
    ("locks.wait_ns_per_op", "ns"),
    ("locks.conversions_per_kop", "count"),
    ("storage.reads_per_op", "count"),
    ("storage.writes_per_op", "count"),
    ("storage.page_read_ns", "ns"),
    ("storage.page_write_ns", "ns"),
    ("storage.live_pages", "count"),
    ("storage.fsyncs_per_update", "count"),
    ("storage.wal_bytes_per_update", "B"),
    ("storage.fsync_p50_us", "us"),
    ("storage.cache_hit_ratio", "ratio"),
    ("storage.checkpoints_per_kop", "count"),
    ("net.msgs_per_op", "count"),
    ("net.wire_bytes_per_op", "B"),
    ("net.delivery_p50_us", "us"),
    ("net.codec_ns", "ns"),
    ("net.reconnects", "count"),
    ("dist.request_p50_us", "us"),
    ("dist.bucket_op_p50_us", "us"),
    ("dist.dir_cpu_us_per_op", "us"),
    ("dist.bucket_cpu_us_per_op", "us"),
    ("dist.client_cpu_us_per_op", "us"),
    ("dist.ctx_switches_per_op", "count"),
    ("dist.redrives_per_kop", "count"),
    ("dist.client_retries_per_kop", "count"),
    ("dist.copyupdate_rounds_per_kop", "count"),
    ("obs.trace_overhead_frac", "ratio"),
    ("trace.unexplained_frac", "ratio"),
];

/// The unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: u64,
    /// Traced run (per-layer metrics) rather than timed run.
    pub trace: bool,
    /// The `ceh` executable (`tcp-churn` only).
    pub ceh: PathBuf,
    /// Directory for the run's files (data dirs, spans).
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("{flag} is required"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: get("--workload")?,
        seed: num("--seed")?,
        seconds,
        trace,
        ceh: PathBuf::from(get("--ceh")?),
        work: PathBuf::from(get("--work")?),
    })
}

fn run(args: &Args) -> Result<Report, String> {
    std::fs::create_dir_all(&args.work).map_err(|e| format!("{}: {e}", args.work.display()))?;
    let mut r = Report::default();
    r.note("workload", Json::Str(args.workload.clone()));
    r.note("seed", Json::Num(args.seed as f64));
    r.note("seconds", Json::Num(args.seconds as f64));
    r.note("callers", Json::Num(CALLERS as f64));
    r.note(
        "nproc",
        Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
    );
    match args.workload.as_str() {
        "mem-read" => mem::run(args, Mix::Read, &mut r)?,
        "mem-churn" => mem::run(args, Mix::Churn, &mut r)?,
        "tcp-churn" => tcp::run(args, &mut r)?,
        other => return Err(format!("unknown workload '{other}'")),
    }
    // The result must carry exactly the declared metrics of its kind.
    let want: Vec<&str> = if args.trace {
        PER_LAYER.iter()
    } else {
        END_TO_END.iter()
    }
    .map(|(n, _)| *n)
    .collect();
    let mut want_sorted = want.clone();
    want_sorted.sort_unstable();
    let got: Vec<&str> = r.names().collect();
    if got != want_sorted {
        return Err(format!(
            "metrics reported {got:?}, declared {want_sorted:?}"
        ));
    }
    Ok(r)
}

fn main() {
    let result = parse_args().and_then(|args| {
        let r = run(&args)?;
        Ok((r.info_line(), r.result_line()?))
    });
    match result {
        Ok((info, line)) => {
            println!("{info}");
            println!("{line}");
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json declares exactly the metrics, with the units, that
    /// the runs print.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = ceh_obs::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let Some(Json::Arr(declared)) = doc.get(key) else {
                panic!("{key} is not a list");
            };
            let declared: Vec<(&str, &str)> = declared
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).unwrap();
                    (field("name"), field("unit"))
                })
                .collect();
            assert_eq!(declared, table, "{key}");
        }
    }
}
