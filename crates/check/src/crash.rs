//! Recovery fuzzer: a systematic crash-point sweep with a durability
//! oracle.
//!
//! A seeded mixed workload (inserts, deletes, finds — sized so splits
//! and merges happen) runs against a durable Solution 2 file. A
//! count-only [`CrashPlan`] first *learns* how many durability points
//! the workload reaches — every WAL sync, every per-frame checkpoint
//! flush, every log truncation. The sweep then re-runs the identical
//! workload once per point with the plan armed: power is cut exactly
//! there, with a seeded torn tail. Recovery runs, and the oracle
//! asserts:
//!
//! * **structural**: the recovered file passes the full invariant suite
//!   ([`ceh_core::invariants::check_concurrent_file`]);
//! * **durability**: every operation acknowledged before the cut
//!   survives exactly (inserted keys present with their values, deleted
//!   keys absent);
//! * **atomicity**: the one in-flight operation is either fully applied
//!   or fully absent — never a partial multi-page effect;
//! * **silence**: keys the workload never acked an effect for are
//!   untouched.
//!
//! Failures minimize to a replayable [`CrashFixture`] in the same
//! line-oriented style as [`crate::ScheduleFixture`], meant for
//! `tests/fixtures/crashes/`. A committed fixture with no `violation`
//! line is a pinned regression: replay asserts the crash point recovers
//! cleanly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

use ceh_core::{
    invariants::check_concurrent_file, ConcurrentHashFile, FileCore, GcStrategy, Solution2,
    Solution2Options,
};
use ceh_locks::{LockManager, LockManagerConfig};
use ceh_obs::MetricsHandle;
use ceh_storage::{
    BackendKind, CrashPlan, DiskHandle, DurableConfig, DurableStore, PageStoreConfig,
};
use ceh_types::bucket::Bucket;
use ceh_types::{hash_key, Error, HashFileConfig, Key, Value};

use crate::workload::Op;

/// Tuning for one crash-point sweep.
#[derive(Debug, Clone)]
pub struct CrashConfig {
    /// Seed for the workload generator and every tear.
    pub seed: u64,
    /// Operations in the seeded workload.
    pub ops: usize,
    /// Bucket capacity (small forces splits and merges).
    pub bucket_capacity: usize,
    /// WAL checkpoint interval, in commits (small puts checkpoint
    /// crash points inside the sweep's reach).
    pub checkpoint_every: usize,
    /// Keys are drawn from `0..keyspace`.
    pub keyspace: u64,
    /// Which storage backend the sweep runs on. The durability-point
    /// sequence is identical on both (fsyncs are not points), but the
    /// file backend makes every tear a real partial `pwrite` and every
    /// recovery a read back from actual files — the fsync-ordering
    /// oracle: nothing acked before its sync may be lost.
    pub backend: BackendKind,
}

impl Default for CrashConfig {
    fn default() -> Self {
        CrashConfig {
            seed: 0xCE11_C4A5,
            ops: 96,
            bucket_capacity: 3,
            checkpoint_every: 8,
            keyspace: 24,
            backend: BackendKind::Memory,
        }
    }
}

/// What happened at one armed crash point.
#[derive(Debug, Clone)]
pub struct PointOutcome {
    /// The 1-based durability point the plan was armed at.
    pub point: u64,
    /// Whether the plan actually fired (it always should: the armed run
    /// replays the run that counted the points).
    pub fired: bool,
    /// Operations acknowledged before the cut.
    pub acked: usize,
    /// The operation in flight when power died, if any.
    pub inflight: Option<Op>,
    /// Redo records replayed during recovery.
    pub redo_applied: u64,
    /// Torn frames found (and rebuilt from redo) during recovery.
    pub torn_frames: u64,
    /// Uncommitted transactions discarded during recovery.
    pub txns_discarded: u64,
    /// `Err` describes the oracle violation.
    pub verdict: Result<(), String>,
}

/// The sweep's aggregate result.
#[derive(Debug, Clone)]
pub struct CrashSweepReport {
    /// Configuration the sweep ran under.
    pub cfg: CrashConfig,
    /// Durability points the workload reaches (the sweep's width).
    pub points: u64,
    /// One outcome per armed point, in order.
    pub outcomes: Vec<PointOutcome>,
    /// Minimized fixtures for every violating point.
    pub failures: Vec<CrashFixture>,
}

impl CrashSweepReport {
    /// Did every crash point recover cleanly?
    pub fn ok(&self) -> bool {
        self.failures.is_empty() && self.outcomes.iter().all(|o| o.verdict.is_ok())
    }
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seeded mixed workload: ~50% inserts, ~30% deletes, ~20% finds
/// over a small keyspace, so buckets fill, split, empty, and merge.
pub fn generate_ops(seed: u64, n: usize, keyspace: u64) -> Vec<Op> {
    let mut ops = Vec::with_capacity(n);
    let mut s = seed ^ 0xC4A5_0001;
    for i in 0..n {
        s = splitmix64(s.wrapping_add(i as u64));
        let key = splitmix64(s ^ 0x5EED) % keyspace.max(1);
        ops.push(match s % 10 {
            0..=4 => Op::Insert(key, 1000 + (s % 1000)),
            5..=7 => Op::Delete(key),
            _ => Op::Find(key),
        });
    }
    ops
}

fn durable_cfg(cfg: &CrashConfig, plan: Option<CrashPlan>) -> DurableConfig {
    DurableConfig {
        page: PageStoreConfig {
            page_size: Bucket::page_size_for(cfg.bucket_capacity),
            ..Default::default()
        },
        checkpoint_every: cfg.checkpoint_every,
        plan,
        ..Default::default()
    }
}

/// RAII guard for a file-backend sweep's scratch directory: each armed
/// point builds its medium in a unique temp dir, removed when the
/// point's outcome is decided (open descriptors keep working on unix).
struct TempDir(Option<std::path::PathBuf>);

impl Drop for TempDir {
    fn drop(&mut self) {
        if let Some(p) = self.0.take() {
            let _ = std::fs::remove_dir_all(p);
        }
    }
}

fn crash_temp_dir() -> std::path::PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("ceh-crash-{}-{n}", std::process::id()))
}

fn build_file(
    cfg: &CrashConfig,
    plan: Option<CrashPlan>,
) -> (
    DiskHandle,
    Arc<DurableStore>,
    Result<Solution2, Error>,
    TempDir,
) {
    let metrics = MetricsHandle::new();
    let dcfg = durable_cfg(cfg, plan);
    let (disk, tmp) = match cfg.backend {
        BackendKind::Memory => (DiskHandle::new(dcfg.page.page_size), TempDir(None)),
        BackendKind::File => {
            let dir = crash_temp_dir();
            let disk = DiskHandle::create_file(&dir, dcfg.page.page_size)
                .expect("create crash-sweep scratch medium");
            (disk, TempDir(Some(dir)))
        }
    };
    let wal =
        DurableStore::with_disk(disk.clone(), dcfg, &metrics).expect("fresh medium matches config");
    let file = FileCore::with_buckets(
        HashFileConfig::tiny().with_bucket_capacity(cfg.bucket_capacity),
        Arc::clone(&wal),
        Arc::new(LockManager::over(wal.cache().clone())),
        hash_key,
        &metrics,
    )
    .map(|core| {
        // Inline GC: every durable effect happens on the calling thread,
        // so a power cut surfaces as this op's error, not a background
        // panic.
        Solution2::from_core_with_options(
            core,
            Solution2Options {
                gc: GcStrategy::Inline,
                ..Default::default()
            },
        )
    });
    (disk, wal, file, tmp)
}

fn recover_file(cfg: &CrashConfig, disk: &DiskHandle) -> Result<(Solution2, u64, u64, u64), Error> {
    let metrics = MetricsHandle::new();
    let (core, report) = FileCore::recover_durable_metrics(
        HashFileConfig::tiny().with_bucket_capacity(cfg.bucket_capacity),
        disk,
        durable_cfg(cfg, None),
        LockManagerConfig::default(),
        hash_key,
        &metrics,
    )?;
    let file = Solution2::from_core_with_options(
        core,
        Solution2Options {
            gc: GcStrategy::Inline,
            ..Default::default()
        },
    );
    Ok((
        file,
        report.redo_applied as u64,
        report.torn as u64,
        report.txns_discarded as u64,
    ))
}

/// Apply `op` to the model the way the file semantics do (insert is
/// first-writer-wins; delete removes; find mutates nothing).
fn model_apply(model: &mut BTreeMap<u64, u64>, op: Op) {
    match op {
        Op::Insert(k, v) => {
            model.entry(k).or_insert(v);
        }
        Op::Delete(k) => {
            model.remove(&k);
        }
        Op::Find(_) => {}
    }
}

/// The durability oracle: recovered contents vs. the acked model, with
/// the in-flight operation allowed either atomically applied or absent.
fn check_oracle(
    file: &Solution2,
    model: &BTreeMap<u64, u64>,
    inflight: Option<Op>,
    keyspace: u64,
) -> Result<(), String> {
    check_concurrent_file(file.core()).map_err(|e| format!("structural invariants: {e}"))?;
    for k in 0..keyspace {
        let got = file
            .find(Key(k))
            .map_err(|e| format!("find({k}) on recovered file: {e}"))?
            .map(|v| v.0);
        let want = model.get(&k).copied();
        let allowed = match inflight {
            Some(Op::Insert(ik, iv)) if ik == k => {
                // Atomically applied (or_insert semantics) or absent.
                got == want || (want.is_none() && got == Some(iv))
            }
            Some(Op::Delete(ik)) if ik == k => got == want || (want.is_some() && got.is_none()),
            _ => got == want,
        };
        if !allowed {
            return Err(format!(
                "key {k}: recovered {got:?}, acked model {want:?}, in-flight {inflight:?}"
            ));
        }
    }
    Ok(())
}

/// Run `ops` with power cut at durability point `crash_at` (1-based),
/// recover, and judge the result. `crash_at == 0` never fires (used to
/// validate the workload itself).
pub fn run_point(cfg: &CrashConfig, ops: &[Op], crash_at: u64) -> PointOutcome {
    let plan = if crash_at == 0 {
        CrashPlan::count_only(cfg.seed)
    } else {
        CrashPlan::armed(cfg.seed, crash_at)
    };
    let (disk, wal, built, _tmp) = build_file(cfg, Some(plan.clone()));
    let mut model = BTreeMap::new();
    let mut acked = 0usize;
    let mut inflight = None;
    match built {
        Ok(file) => {
            for &op in ops {
                match op.apply(&file) {
                    Ok(()) => {
                        model_apply(&mut model, op);
                        acked += 1;
                    }
                    Err(e) if e.contains("power") => {
                        inflight = Some(op);
                        break;
                    }
                    Err(e) => {
                        return PointOutcome {
                            point: crash_at,
                            fired: plan.fired(),
                            acked,
                            inflight: Some(op),
                            redo_applied: 0,
                            torn_frames: 0,
                            txns_discarded: 0,
                            verdict: Err(format!("unexpected op failure: {e}")),
                        }
                    }
                }
            }
        }
        Err(Error::PowerLoss) => { /* cut during file creation: acked = 0 */ }
        Err(e) => {
            return PointOutcome {
                point: crash_at,
                fired: plan.fired(),
                acked: 0,
                inflight: None,
                redo_applied: 0,
                torn_frames: 0,
                txns_discarded: 0,
                verdict: Err(format!("file creation failed: {e}")),
            }
        }
    }
    // Whatever survived, power is now definitively off.
    wal.power_off();
    let fired = plan.fired();
    let (verdict, redo, torn, discarded) = match recover_file(cfg, &disk) {
        Ok((file, redo, torn, discarded)) => (
            check_oracle(&file, &model, inflight, cfg.keyspace),
            redo,
            torn,
            discarded,
        ),
        Err(e) => (Err(format!("recovery failed: {e}")), 0, 0, 0),
    };
    PointOutcome {
        point: crash_at,
        fired,
        acked,
        inflight,
        redo_applied: redo,
        torn_frames: torn,
        txns_discarded: discarded,
        verdict,
    }
}

/// Count the durability points `ops` reaches (the sweep's width). Every
/// op must succeed; a workload that fails without a crash plan armed is
/// reported as an error.
pub fn count_points(cfg: &CrashConfig, ops: &[Op]) -> Result<u64, String> {
    let plan = CrashPlan::count_only(cfg.seed);
    let (_disk, wal, built, _tmp) = build_file(cfg, Some(plan.clone()));
    let file = built.map_err(|e| format!("count run: build failed: {e}"))?;
    for &op in ops {
        op.apply(&file).map_err(|e| format!("count run: {e}"))?;
    }
    wal.power_off();
    Ok(plan.points())
}

/// The systematic sweep: every reachable durability point, once.
pub fn run_sweep(cfg: &CrashConfig) -> Result<CrashSweepReport, String> {
    let ops = generate_ops(cfg.seed, cfg.ops, cfg.keyspace);
    let points = count_points(cfg, &ops)?;
    let mut outcomes = Vec::with_capacity(points as usize);
    let mut failures = Vec::new();
    for p in 1..=points {
        let outcome = run_point(cfg, &ops, p);
        if let Err(v) = &outcome.verdict {
            failures.push(minimize(cfg, &ops, p, v.clone()));
        }
        outcomes.push(outcome);
    }
    Ok(CrashSweepReport {
        cfg: cfg.clone(),
        points,
        outcomes,
        failures,
    })
}

/// Greedy one-pass minimization: try dropping each op in turn; keep the
/// drop if *some* crash point of the reduced workload still violates.
fn minimize(cfg: &CrashConfig, ops: &[Op], crash_at: u64, violation: String) -> CrashFixture {
    let mut best: Vec<Op> = ops.to_vec();
    let mut best_at = crash_at;
    let mut best_violation = violation;
    let mut i = 0;
    while i < best.len() {
        let mut candidate = best.clone();
        candidate.remove(i);
        match first_violation(cfg, &candidate) {
            Some((at, v)) => {
                best = candidate;
                best_at = at;
                best_violation = v;
                // Do not advance: index i now names the next op.
            }
            None => i += 1,
        }
    }
    CrashFixture {
        seed: cfg.seed,
        bucket_capacity: cfg.bucket_capacity,
        checkpoint_every: cfg.checkpoint_every,
        keyspace: cfg.keyspace,
        crash_at: best_at,
        ops: best,
        violation: Some(best_violation),
    }
}

/// Sweep a reduced workload, returning its first violating point.
fn first_violation(cfg: &CrashConfig, ops: &[Op]) -> Option<(u64, String)> {
    let points = count_points(cfg, ops).ok()?;
    for p in 1..=points {
        let o = run_point(cfg, ops, p);
        if let Err(v) = o.verdict {
            return Some((p, v));
        }
    }
    None
}

/// One distributed crash round: a small durable cluster takes acked
/// inserts, site 1 loses power mid-cluster, restarts from its durable
/// image, and every acked operation must survive with full cluster
/// invariants. Returns a description of the first failure.
pub fn dist_crash_round(seed: u64, keys: u64) -> Result<(), String> {
    use ceh_dist::{Cluster, ClusterConfig};
    let mut cluster = Cluster::start(ClusterConfig {
        dir_managers: 2,
        bucket_managers: 2,
        file: HashFileConfig::tiny().with_bucket_capacity(4),
        page_quota: Some(8),
        storage: ceh_dist::SiteStorage::WalMemory,
        ..Default::default()
    })
    .map_err(|e| format!("cluster start: {e}"))?;
    let client = cluster.client();
    for i in 0..keys {
        let k = splitmix64(seed.wrapping_add(i)) % (keys * 4);
        client
            .insert(Key(k), Value(k))
            .map_err(|e| format!("insert {k}: {e}"))?;
    }
    if !cluster.quiesce(std::time::Duration::from_secs(30)) {
        return Err("cluster did not quiesce before the crash".into());
    }
    if !cluster.crash_site(1) {
        return Err("site 1 was not up".into());
    }
    if !cluster
        .restart_site(1)
        .map_err(|e| format!("restart recovery: {e}"))?
    {
        return Err("site 1 was not down".into());
    }
    for i in 0..keys {
        let k = splitmix64(seed.wrapping_add(i)) % (keys * 4);
        let got = client.find(Key(k)).map_err(|e| format!("find {k}: {e}"))?;
        if got != Some(Value(k)) {
            return Err(format!("acked key {k} lost across the power cut: {got:?}"));
        }
    }
    if !cluster.quiesce(std::time::Duration::from_secs(30)) {
        return Err("cluster did not quiesce after the restart".into());
    }
    cluster
        .check_invariants()
        .map_err(|e| format!("post-restart invariants: {e}"))?;
    cluster.shutdown();
    Ok(())
}

/// A replayable crash fixture (see module docs; format mirrors
/// [`crate::ScheduleFixture`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashFixture {
    /// Workload + tear seed.
    pub seed: u64,
    /// Bucket capacity of the file under test.
    pub bucket_capacity: usize,
    /// Checkpoint interval, in commits.
    pub checkpoint_every: usize,
    /// Keyspace the oracle scans.
    pub keyspace: u64,
    /// The armed durability point.
    pub crash_at: u64,
    /// The exact operation list.
    pub ops: Vec<Op>,
    /// The original violation (advisory); `None` pins a clean recovery.
    pub violation: Option<String>,
}

const HEADER: &str = "# ceh-check crash fixture v1";

fn encode_op(op: Op) -> String {
    match op {
        Op::Insert(k, v) => format!("i:{k}:{v}"),
        Op::Delete(k) => format!("d:{k}"),
        Op::Find(k) => format!("f:{k}"),
    }
}

fn decode_op(tok: &str) -> Result<Op, String> {
    let parts: Vec<&str> = tok.split(':').collect();
    let num = |s: &str| -> Result<u64, String> {
        s.parse::<u64>().map_err(|e| format!("bad op {tok:?}: {e}"))
    };
    match parts.as_slice() {
        ["i", k, v] => Ok(Op::Insert(num(k)?, num(v)?)),
        ["d", k] => Ok(Op::Delete(num(k)?)),
        ["f", k] => Ok(Op::Find(num(k)?)),
        _ => Err(format!("bad op token {tok:?}")),
    }
}

impl CrashFixture {
    /// Serialize to the on-disk text format.
    pub fn serialize(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "{HEADER}");
        let _ = writeln!(s, "seed: {}", self.seed);
        let _ = writeln!(s, "capacity: {}", self.bucket_capacity);
        let _ = writeln!(s, "checkpoint-every: {}", self.checkpoint_every);
        let _ = writeln!(s, "keyspace: {}", self.keyspace);
        let _ = writeln!(s, "crash-at: {}", self.crash_at);
        let ops: Vec<String> = self.ops.iter().map(|&o| encode_op(o)).collect();
        let _ = writeln!(s, "ops: {}", ops.join(" "));
        if let Some(v) = &self.violation {
            let _ = writeln!(s, "violation: {}", v.lines().next().unwrap_or(""));
        }
        s
    }

    /// Parse the on-disk text format.
    pub fn parse(text: &str) -> Result<CrashFixture, String> {
        let mut lines = text.lines();
        match lines.next() {
            Some(h) if h.trim() == HEADER => {}
            other => return Err(format!("bad fixture header: {other:?} (want {HEADER:?})")),
        }
        let mut seed = None;
        let mut capacity = None;
        let mut checkpoint_every = None;
        let mut keyspace = None;
        let mut crash_at = None;
        let mut ops = None;
        let mut violation = None;
        for line in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (field, value) = line
                .split_once(':')
                .ok_or_else(|| format!("fixture line without ':': {line:?}"))?;
            let value = value.trim();
            let parse_u64 = |v: &str| v.parse::<u64>().map_err(|e| format!("bad {v:?}: {e}"));
            match field.trim() {
                "seed" => seed = Some(parse_u64(value)?),
                "capacity" => capacity = Some(parse_u64(value)? as usize),
                "checkpoint-every" => checkpoint_every = Some(parse_u64(value)? as usize),
                "keyspace" => keyspace = Some(parse_u64(value)?),
                "crash-at" => crash_at = Some(parse_u64(value)?),
                "ops" => {
                    let parsed: Result<Vec<Op>, String> =
                        value.split_whitespace().map(decode_op).collect();
                    ops = Some(parsed?);
                }
                "violation" => violation = Some(value.to_string()),
                other => return Err(format!("unknown fixture field {other:?}")),
            }
        }
        Ok(CrashFixture {
            seed: seed.ok_or("fixture missing 'seed'")?,
            bucket_capacity: capacity.ok_or("fixture missing 'capacity'")?,
            checkpoint_every: checkpoint_every.ok_or("fixture missing 'checkpoint-every'")?,
            keyspace: keyspace.ok_or("fixture missing 'keyspace'")?,
            crash_at: crash_at.ok_or("fixture missing 'crash-at'")?,
            ops: ops.ok_or("fixture missing 'ops'")?,
            violation,
        })
    }
}

/// Replay a fixture: run its exact workload with power cut at its crash
/// point and recover. A fixture carrying a `violation` must reproduce
/// *some* violation (diagnostics may have improved); one without must
/// recover cleanly.
pub fn replay_crash(fixture: &CrashFixture) -> Result<PointOutcome, String> {
    let cfg = CrashConfig {
        seed: fixture.seed,
        ops: fixture.ops.len(),
        bucket_capacity: fixture.bucket_capacity,
        checkpoint_every: fixture.checkpoint_every,
        keyspace: fixture.keyspace,
        // Fixtures pin the deterministic backend; the point sequence is
        // the same on both, so a fixture's crash point is meaningful
        // everywhere.
        backend: BackendKind::Memory,
    };
    let outcome = run_point(&cfg, &fixture.ops, fixture.crash_at);
    match (&fixture.violation, &outcome.verdict) {
        (Some(_), Err(_)) | (None, Ok(())) => Ok(outcome),
        (Some(v), Ok(())) => Err(format!(
            "fixture expected a violation ({v}) but the crash point recovered cleanly"
        )),
        (None, Err(got)) => Err(format!(
            "fixture pins a clean recovery but replay violated: {got}"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_generation_is_deterministic_and_mixed() {
        let a = generate_ops(7, 200, 24);
        let b = generate_ops(7, 200, 24);
        assert_eq!(a, b);
        let inserts = a.iter().filter(|o| matches!(o, Op::Insert(..))).count();
        let deletes = a.iter().filter(|o| matches!(o, Op::Delete(_))).count();
        let finds = a.iter().filter(|o| matches!(o, Op::Find(_))).count();
        assert!(inserts > 50 && deletes > 20 && finds > 10);
        assert_ne!(generate_ops(8, 200, 24), a, "seed matters");
    }

    #[test]
    fn unarmed_run_reaches_many_points_and_matches_model() {
        let cfg = CrashConfig {
            ops: 48,
            ..Default::default()
        };
        let ops = generate_ops(cfg.seed, cfg.ops, cfg.keyspace);
        let points = count_points(&cfg, &ops).unwrap();
        // Every commit syncs, so there are at least as many points as ops
        // that mutate (plus checkpoint flushes).
        assert!(points as usize > cfg.ops / 2, "only {points} points");
    }

    #[test]
    fn a_small_sweep_is_clean() {
        let cfg = CrashConfig {
            ops: 24,
            ..Default::default()
        };
        let report = run_sweep(&cfg).unwrap();
        assert!(report.points > 0);
        assert_eq!(report.outcomes.len(), report.points as usize);
        for o in &report.outcomes {
            assert!(o.fired, "point {} never fired", o.point);
            assert!(o.verdict.is_ok(), "point {}: {:?}", o.point, o.verdict);
        }
        assert!(report.ok());
        // The sweep must actually exercise torn-state recovery somewhere.
        assert!(
            report
                .outcomes
                .iter()
                .any(|o| o.redo_applied > 0 || o.torn_frames > 0 || o.txns_discarded > 0),
            "no crash point tore anything — the sweep is toothless"
        );
    }

    #[test]
    fn a_small_sweep_is_clean_on_the_file_backend() {
        let cfg = CrashConfig {
            ops: 12,
            backend: BackendKind::File,
            ..Default::default()
        };
        let report = run_sweep(&cfg).unwrap();
        assert!(report.points > 0);
        for o in &report.outcomes {
            assert!(o.fired, "point {} never fired", o.point);
            assert!(o.verdict.is_ok(), "point {}: {:?}", o.point, o.verdict);
        }
        assert!(report.ok());
    }

    #[test]
    fn the_point_sequence_is_backend_independent() {
        // fsyncs are not durability points, so the same workload counts
        // the same width on files as in memory — fixtures and armed
        // points mean the same thing on either backend.
        let mem = CrashConfig {
            ops: 16,
            ..Default::default()
        };
        let file = CrashConfig {
            backend: BackendKind::File,
            ..mem.clone()
        };
        let ops = generate_ops(mem.seed, mem.ops, mem.keyspace);
        assert_eq!(
            count_points(&mem, &ops).unwrap(),
            count_points(&file, &ops).unwrap()
        );
    }

    #[test]
    fn fixture_roundtrip() {
        let f = CrashFixture {
            seed: 42,
            bucket_capacity: 3,
            checkpoint_every: 8,
            keyspace: 24,
            crash_at: 17,
            ops: vec![Op::Insert(1, 100), Op::Delete(1), Op::Find(2)],
            violation: Some("key 1 lost".into()),
        };
        assert_eq!(CrashFixture::parse(&f.serialize()).unwrap(), f);
        let clean = CrashFixture {
            violation: None,
            ..f
        };
        assert_eq!(CrashFixture::parse(&clean.serialize()).unwrap(), clean);
    }

    #[test]
    fn fixture_rejects_bad_input() {
        assert!(CrashFixture::parse("nope").is_err());
        assert!(CrashFixture::parse(HEADER).is_err());
        assert!(CrashFixture::parse(&format!("{HEADER}\nseed: 1\nops: x:1\n")).is_err());
    }

    #[test]
    fn replay_of_a_clean_point_checks_out() {
        let cfg = CrashConfig {
            ops: 16,
            ..Default::default()
        };
        let ops = generate_ops(cfg.seed, cfg.ops, cfg.keyspace);
        let fixture = CrashFixture {
            seed: cfg.seed,
            bucket_capacity: cfg.bucket_capacity,
            checkpoint_every: cfg.checkpoint_every,
            keyspace: cfg.keyspace,
            crash_at: 3,
            ops,
            violation: None,
        };
        let outcome = replay_crash(&fixture).unwrap();
        assert!(outcome.fired);
        assert!(outcome.verdict.is_ok());
    }

    #[test]
    fn dist_round_survives_a_power_cut() {
        dist_crash_round(0xD157_0001, 24).unwrap();
    }
}
