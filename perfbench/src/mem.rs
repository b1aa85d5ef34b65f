//! `mem-read` and `mem-churn`: Solution 2 in this process, behind
//! `ConcurrentHashFile`, with `HashFileConfig::realistic()`.

use std::time::{Duration, Instant};

use ceh_core::{invariants, ConcurrentHashFile, Solution2};
use ceh_obs::json::Json;
use ceh_obs::{MetricsSnapshot, TraceReport};
use ceh_types::{HashFileConfig, InsertOutcome, RECORD_BYTES};

use crate::layers;
use crate::phase;
use crate::procfs;
use crate::report::{num_obj, Report};
use crate::stats::{self, LatencySummary, PerOp};
use crate::workload::{shuffle, Caller, Mix, Op, Outcome};
use crate::{Args, CALLERS, SETUP_REPEATS};

/// Records preloaded: about 6 k pages of 4 KiB plus a 32 MiB directory,
/// more than each core's L2 cache.
pub const KEYS: u32 = 1 << 20;

/// Finds replayed by the layer probe.
const PROBE_SAMPLE: usize = 40_000;

/// `mem-read` alternates blocks of reads and of churn on the same file.
const READ_BLOCK: Duration = Duration::from_secs(2);
const CHURN_BLOCK: Duration = Duration::from_secs(1);

/// Newest trace events kept while the traced phase runs.
const TRACE_EVENTS: usize = 1 << 18;

fn callers(seed: u64) -> Vec<Caller> {
    (0..CALLERS)
        .map(|c| Caller::new(seed, c, KEYS / CALLERS as u32))
        .collect()
}

/// Build the file and load every caller's keys into it, single-threaded,
/// in an order fixed by the seed.
fn load(seed: u64, callers: &[Caller]) -> Result<(Solution2, f64), String> {
    // A permutation of record numbers, not of records, so the benchmark's
    // own memory stays small beside the file's.
    let per_caller = KEYS / CALLERS as u32;
    let mut order: Vec<u32> = (0..KEYS).collect();
    shuffle(&mut order, seed);
    let t0 = Instant::now();
    let file = Solution2::new(HashFileConfig::realistic()).map_err(|e| e.to_string())?;
    for n in order {
        let c = &callers[(n / per_caller) as usize];
        let k = c.key(n % per_caller);
        match file.insert(k, c.value(k)) {
            Ok(InsertOutcome::Inserted) => {}
            other => return Err(format!("preload insert {k:?} returned {other:?}")),
        }
    }
    Ok((file, t0.elapsed().as_secs_f64()))
}

fn exec<'a>(
    file: &'a Solution2,
) -> impl Fn(usize) -> Box<dyn FnMut(Op) -> ceh_types::Result<Outcome> + 'a> + Sync + 'a {
    move |_| {
        Box::new(move |op| match op {
            Op::Find(k) => file.find(k).map(Outcome::Found),
            Op::Insert(k, v) => file.insert(k, v).map(Outcome::Inserted),
            Op::Delete(k) => file.delete(k).map(Outcome::Deleted),
        })
    }
}

/// Structural invariants, and the record count against the oracles.
fn check(file: &Solution2, callers: &[Caller]) -> Result<(), String> {
    invariants::check_concurrent_file(file.core()).map_err(|e| format!("invariants: {e}"))?;
    let live: usize = callers.iter().map(Caller::live_len).sum();
    let unknown: usize = callers.iter().map(|c| c.unknown.len()).sum();
    let len = file.len();
    if len < live || len > live + unknown {
        return Err(format!(
            "len() is {len}, the oracles hold {live} (+{unknown} unknown)"
        ));
    }
    Ok(())
}

fn own_cpu_s() -> Option<f64> {
    procfs::cpu_s(std::process::id())
}

fn space_amp(file: &Solution2) -> f64 {
    let store = file.core().store();
    (store.allocated_pages() * store.page_size()) as f64 / (file.len() * RECORD_BYTES) as f64
}

pub fn run(args: &Args, mix: Mix, r: &mut Report) -> Result<(), String> {
    let mut callers = callers(args.seed);
    r.note("keys", Json::Num(f64::from(KEYS)));
    r.note(
        "topology",
        Json::Str(format!(
            "in-process Solution2, realistic config (capacity 250, max_depth 22), {CALLERS} callers"
        )),
    );
    if args.trace {
        traced(args, mix, &mut callers, r)
    } else {
        timed(args, mix, &mut callers, r)
    }
}

fn timed(args: &Args, mix: Mix, callers: &mut [Caller], r: &mut Report) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut file = None;
    for _ in 0..SETUP_REPEATS {
        drop(file.take());
        let (f, s) = load(args.seed, callers)?;
        setups.push(s);
        file = Some(f);
    }
    let file = file.expect("loaded at least once");
    r.note(
        "setup_s_each",
        Json::Arr(setups.iter().map(|&s| Json::Num(s)).collect()),
    );
    r.metric("setup_s", stats::median(&mut setups));

    // A read-only phase has no updates to time: their latency comes from
    // one-second churn blocks on the same file, one after every two
    // seconds of reads. The host's speed drifts over tens of seconds, so
    // interleaved blocks let reads and updates sample the same stretch of
    // it.
    let (mut p, tail) = if mix == Mix::Read {
        let (mut p, mut t) = (phase::Phase::default(), phase::Phase::default());
        for _ in 0..(args.seconds / 2).max(1) {
            p.extend(phase::run(
                callers,
                mix,
                READ_BLOCK,
                &own_cpu_s,
                exec(&file),
            )?);
            t.extend(phase::run(
                callers,
                Mix::Churn,
                CHURN_BLOCK,
                &own_cpu_s,
                exec(&file),
            )?);
        }
        (p, Some(t))
    } else {
        let length = Duration::from_secs(args.seconds);
        let p = phase::run(callers, mix, length, &own_cpu_s, exec(&file))?;
        (p, None)
    };
    check(&file, callers)?;
    r.note_phase("phase", &p);
    r.attempted = p.ops;
    r.failed = p.failed;
    r.metric("ops_per_s", p.all.ops_per_s());
    r.metric("cpu_us_per_op", p.all.cpu_us_per_op());
    r.metric("space_amp", space_amp(&file));
    let finds = LatencySummary::of(&p.all.finds)?;
    r.note_latency("find_latency", &finds);
    r.metric("find_p50_us", finds.p50_ns as f64 / 1e3);
    r.metric("find_p99_us", finds.p99_ns as f64 / 1e3);

    let updates = match tail {
        Some(t) => {
            r.note_phase("update_blocks", &t);
            r.note(
                "update_latency_from",
                Json::Str("1 s churn blocks, one after every 2 s of reads".into()),
            );
            r.attempted += t.ops;
            r.failed += t.failed;
            t.all.updates
        }
        None => std::mem::take(&mut p.all.updates),
    };
    let ups = LatencySummary::of(&updates)?;
    r.note_latency("update_latency", &ups);
    r.metric("update_p50_us", ups.p50_ns as f64 / 1e3);
    r.metric("update_p99_us", ups.p99_ns as f64 / 1e3);
    let hwm = procfs::peak_rss_kib(std::process::id()).ok_or("reading own peak RSS")?;
    r.metric("rss_mib", hwm as f64 / 1024.0);
    Ok(())
}

fn hist_sum(m: &MetricsSnapshot, prefix: &str) -> f64 {
    m.hists
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, h)| h.sum as f64)
        .sum()
}

fn traced(args: &Args, mix: Mix, callers: &mut [Caller], r: &mut Report) -> Result<(), String> {
    let (file, _) = load(args.seed, callers)?;
    let metrics = file.metrics();
    let setup_splits = metrics.snapshot().counter("core.splits");
    let half = Duration::from_secs_f64(args.seconds as f64 / 2.0);

    let m0 = metrics.snapshot();
    let plain = phase::run(callers, mix, half, &own_cpu_s, exec(&file))?;
    let m1 = metrics.snapshot();
    let d = m1.since(&m0);

    metrics.tracer().enable(TRACE_EVENTS);
    let traced = phase::run(callers, mix, half, &own_cpu_s, exec(&file))?;
    metrics.tracer().disable();
    let dropped = metrics.tracer().dropped();
    let events = metrics.tracer().drain();
    layers::write_trace(&events, &layers::trace_path(args))?;
    let spans = TraceReport::from_events(events, dropped);
    check(&file, callers)?;
    r.attempted = plain.ops + traced.ops;
    r.failed = plain.failed + traced.failed;

    let ops = plain.ops;
    let k = |name: &str| d.counter(name) as f64;
    r.metric("core.setup_splits", setup_splits as f64);
    r.metric("core.dir_depth", f64::from(file.core().dir().depth()));
    r.ratio(
        "core.splits_per_kop",
        PerOp::new(k("core.splits"), ops, 1000.0),
    );
    r.ratio(
        "core.merges_per_kop",
        PerOp::new(k("core.merges"), ops, 1000.0),
    );
    r.ratio(
        "core.recovery_hops_per_kop",
        PerOp::new(k("core.chain_hops"), ops, 1000.0),
    );
    r.ratio(
        "locks.grants_per_op",
        PerOp::new(d.prefix_sum("locks.grants.") as f64, ops, 1.0),
    );
    r.ratio(
        "locks.waits_per_kop",
        PerOp::new(d.prefix_sum("locks.waits.") as f64, ops, 1000.0),
    );
    r.ratio(
        "locks.wait_ns_per_op",
        PerOp::new(
            hist_sum(&m1, "locks.wait_ns.") - hist_sum(&m0, "locks.wait_ns."),
            ops,
            1.0,
        ),
    );
    r.ratio(
        "locks.conversions_per_kop",
        PerOp::new(k("locks.conversions"), ops, 1000.0),
    );
    r.ratio(
        "storage.reads_per_op",
        PerOp::new(k("storage.reads"), ops, 1.0),
    );
    r.ratio(
        "storage.writes_per_op",
        PerOp::new(k("storage.writes"), ops, 1.0),
    );
    r.metric(
        "storage.live_pages",
        file.core().store().allocated_pages() as f64,
    );

    // Self time of the program's own operation spans: the op minus the
    // lock waits, splits, merges and recoveries nested under it.
    let (mut self_ns, mut op_spans) = (0u64, 0u64);
    for tree in spans.traces() {
        for root in tree.root_spans() {
            let (Some(end), true) = (root.end_ns, root.layer == "core") else {
                continue;
            };
            let children: Vec<stats::Interval> = tree
                .spans
                .iter()
                .filter(|s| s.parent == root.id)
                .map(|s| (s.start_ns, s.end_ns.unwrap_or(end)))
                .collect();
            self_ns += stats::self_time_ns((root.start_ns, end), &children);
            op_spans += 1;
        }
    }
    r.ratio(
        "core.self_ns_per_op",
        PerOp::new(self_ns as f64, op_spans, 1.0),
    );
    r.metric(
        "obs.trace_overhead_frac",
        1.0 - traced.all.ops_per_s() / plain.all.ops_per_s(),
    );
    r.note_phase("untraced", &plain);
    r.note_phase("traced", &traced);
    r.note("trace_events_dropped", Json::Num(dropped as f64));

    let per_caller = PROBE_SAMPLE / callers.len();
    let sample: Vec<_> = callers
        .iter_mut()
        .flat_map(|c| c.sample(per_caller))
        .collect();
    let out = layers::spans_path(args);
    let costs = layers::probe(file.core(), &file, &sample, &out)?;
    costs.report(r);
    r.metric(
        "trace.unexplained_frac",
        stats::unexplained_frac(costs.program_find_ns, costs.covered_find_ns),
    );
    r.note(
        "probe",
        num_obj(&[
            ("replayed_finds", costs.samples as f64),
            ("program_find_ns", costs.program_find_ns),
            ("covered_find_ns", costs.covered_find_ns),
        ]),
    );
    off_path_metrics(r);
    Ok(())
}

/// The durable storage, message and distributed layers are not on the
/// in-process path: 0 says so.
fn off_path_metrics(r: &mut Report) {
    for name in [
        "storage.fsyncs_per_update",
        "storage.wal_bytes_per_update",
        "storage.cache_hit_ratio",
        "storage.checkpoints_per_kop",
        "net.msgs_per_op",
        "net.wire_bytes_per_op",
        "net.reconnects",
        "dist.redrives_per_kop",
        "dist.client_retries_per_kop",
        "dist.copyupdate_rounds_per_kop",
        "dist.ctx_switches_per_op",
        "storage.fsync_p50_us",
        "net.delivery_p50_us",
        "dist.request_p50_us",
        "dist.bucket_op_p50_us",
        "dist.dir_cpu_us_per_op",
        "dist.bucket_cpu_us_per_op",
        "dist.client_cpu_us_per_op",
    ] {
        r.metric(name, 0.0);
    }
}
