//! `ceh serve` / `ceh client`: the distributed hash file as real
//! processes over TCP.
//!
//! Every process is handed the same cluster spec (`role@host:port`
//! list); `serve` runs one spec entry as a manager process, `client`
//! dials the whole cluster and runs operations against it. The
//! fault flags wrap the *local* plane's sockets in a seeded
//! [`FaultPlan`], so a chaos run is reproducible from its seed.

use std::collections::HashMap;
use std::io::Write as _;

use ceh_dist::{ClusterSpec, NodeOptions, ServeNode, SiteStorage, TcpClusterClient};
use ceh_net::FaultPlan;
use ceh_obs::RunReport;
use ceh_storage::BackendKind;
use ceh_types::{DeleteOutcome, Error, InsertOutcome, Key, Result, RetryPolicy, Value};

/// Usage text for `ceh serve`.
pub const SERVE_HELP: &str = "\
ceh serve --cluster <spec> --node <i> [options]
  run spec entry <i> (0-based) as a manager process; exits on a
  cluster-wide shutdown from `ceh client <spec> shutdown`.

  <spec> is a comma-separated role@host:port list, identical on every
  process, e.g. dir@127.0.0.1:7101,dir@127.0.0.1:7102,bucket@127.0.0.1:7103

  --data-dir <dir>      keep a bucket node's pages crash-consistently:
                        frames + WAL under <dir>/site-<mgr>/, fsync'd,
                        recovered on restart (without it, pages live in
                        memory with no log)
  --backend <which>     'file': the same, and requires --data-dir;
                        'memory': write-ahead logged against an
                        in-memory image (keeps no files)
  --capacity <n>        records per bucket, 1..=256 (must match cluster-wide)
  --seed <n>            seed for reconnect jitter and fault streams
  --drop <p>            drop each retried-class frame with probability p
  --dup <p>             duplicate retried-class frames with probability p
  --garble <p>          corrupt retried-class frame bytes with probability p
  --sever <p>           sever the connection around a frame with probability p
                        (drop/dup/garble hit the retried message classes of
                        DESIGN.md §7; sever and delay hit every class)
  --delay <p>:<ms>      delay frames with probability p by ms milliseconds
  --resend-ms <n>       directory-manager resend interval (default 200)
  --bootstrap-ms <n>    how long to wait for peers at startup (default 30000)
  --slow-ms <n>         slow-op log threshold in milliseconds (default 250;
                        0 disables capture) — see `ceh top --slow`
  --report              print the node's metrics report on exit";

/// Usage text for `ceh client`.
pub const CLIENT_HELP: &str = "\
ceh client --cluster <spec> [options] <command>
  put <key> <value>     insert a record
  get <key>             look a key up (prints the value or 'absent')
  del <key>             delete a record
  fill <n>              insert keys 0..n (value = key * 31 + 7)
  workload              seeded mixed workload checked against an exact
                        in-memory oracle; prints 'oracle ok' on success
                        (the seed salts the key space: reuse a seed only
                        against a cluster that has not already run it)
    --ops <n>             operations per client thread (default 300)
    --clients <n>         client threads, disjoint key spaces (default 2)
  shutdown              ask every manager to exit, then disconnect
  stats                 print client-plane metrics and peer states

  --node <id>           this client's plane node id (default 1000; must
                        exceed the spec length and be unique per client)
  --seed <n>            workload and fault-stream seed
  --attempts <n>        retry attempts per operation (default 10)
  --timeout-ms <n>      per-attempt reply timeout (default 500)
  --drop/--dup/--garble/--sever/--delay   client-side fault injection,
                        same meaning as for `ceh serve`";

/// Flags that take no value.
const BOOL_FLAGS: &[&str] = &["report", "once", "json", "slow"];

/// Split `--flag value` pairs from positional arguments.
pub(crate) fn split_flags(args: &[String]) -> Result<(HashMap<String, String>, Vec<String>)> {
    let mut flags = HashMap::new();
    let mut pos = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--").filter(|n| BOOL_FLAGS.contains(n)) {
            flags.insert(name.to_string(), "1".to_string());
        } else if let Some(name) = a.strip_prefix("--") {
            let v = it
                .next()
                .ok_or_else(|| Error::Config(format!("--{name} needs a value")))?;
            flags.insert(name.to_string(), v.clone());
        } else {
            pos.push(a.clone());
        }
    }
    Ok((flags, pos))
}

pub(crate) fn flag_u64(flags: &HashMap<String, String>, name: &str, default: u64) -> Result<u64> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|e| Error::Config(format!("--{name} {v}: {e}"))),
    }
}

/// A probability flag: a float that must land in `[0, 1]`. (The
/// `FaultPlan` builders panic on out-of-range values; the CLI turns
/// that into a usage error first.)
fn flag_prob(flags: &HashMap<String, String>, name: &str) -> Result<Option<f64>> {
    let Some(v) = flags.get(name) else {
        return Ok(None);
    };
    let p: f64 = v
        .parse()
        .map_err(|e| Error::Config(format!("--{name} {v}: {e}")))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(Error::Config(format!(
            "--{name} {v}: probability must be within [0, 1]"
        )));
    }
    Ok(Some(p))
}

/// Message classes the resilience plane makes safe to lose or corrupt
/// (DESIGN.md §7): the retried client path, re-driven bucket
/// operations, and acked replication traffic. The split/merge
/// handshakes and `update` are NOT here — they report irreversible
/// disk state, and losing one is only survived by the slow
/// `reply_timeout` degradation path, which would turn a fault-injection
/// demo into a stall.
const LOSSABLE: &[&str] = &[
    "request",
    "user-reply",
    "find",
    "insert",
    "delete",
    "bucketdone",
    "copyupdate",
    "copy-ack",
    "garbagecollect",
    "gc-ack",
];

/// Build the fault plan the `--drop/--dup/--garble/--sever/--delay`
/// flags describe, or `None` when all are absent (clean sockets).
/// Drop/dup/garble apply to the [`LOSSABLE`] classes; sever and delay
/// apply to everything (a sever writes the frame before tearing the
/// connection down, and a delay is just latency — neither loses data).
fn fault_plan(flags: &HashMap<String, String>, seed: u64) -> Result<Option<FaultPlan>> {
    let mut plan = FaultPlan::new(seed);
    let mut any = false;
    if let Some(p) = flag_prob(flags, "drop")? {
        plan = plan.drop_classes(LOSSABLE, p);
        any = true;
    }
    if let Some(p) = flag_prob(flags, "dup")? {
        plan = plan.duplicate_classes(LOSSABLE, p);
        any = true;
    }
    if let Some(p) = flag_prob(flags, "garble")? {
        plan = plan.garble_classes(LOSSABLE, p);
        any = true;
    }
    if let Some(p) = flag_prob(flags, "sever")? {
        plan = plan.sever_all(p);
        any = true;
    }
    if let Some(v) = flags.get("delay") {
        let (p, ms) = v
            .split_once(':')
            .ok_or_else(|| Error::Config(format!("--delay {v}: expected <p>:<ms>")))?;
        let p: f64 = p
            .parse()
            .map_err(|e| Error::Config(format!("--delay {v}: {e}")))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(Error::Config(format!(
                "--delay {v}: probability must be within [0, 1]"
            )));
        }
        let ms: u64 = ms
            .parse()
            .map_err(|e| Error::Config(format!("--delay {v}: {e}")))?;
        plan = plan.delay_all(p, ms);
        any = true;
    }
    Ok(any.then_some(plan))
}

/// Assemble the [`NodeOptions`] the subcommands share.
pub(crate) fn node_options(flags: &HashMap<String, String>) -> Result<NodeOptions> {
    let mut opts = NodeOptions::default();
    if let Some(cap) = flags.get("capacity") {
        let cap: usize = cap
            .parse()
            .map_err(|e| Error::Config(format!("--capacity {cap}: {e}")))?;
        opts.file = opts.file.with_bucket_capacity(cap);
        opts.file
            .validate()
            .map_err(|e| Error::Config(format!("--capacity {cap}: {e}")))?;
    }
    opts.storage = site_storage(flags)?;
    opts.seed = flag_u64(flags, "seed", 0)?;
    opts.resend_ms = flag_u64(flags, "resend-ms", opts.resend_ms)?;
    opts.reply_timeout_ms = flag_u64(flags, "reply-timeout-ms", opts.reply_timeout_ms)?;
    opts.bootstrap_timeout_ms = flag_u64(flags, "bootstrap-ms", opts.bootstrap_timeout_ms)?;
    opts.slow_op_threshold_ms = flag_u64(flags, "slow-ms", opts.slow_op_threshold_ms)?;
    opts.faults = fault_plan(flags, opts.seed)?;
    Ok(opts)
}

/// Where a bucket node keeps its pages, from `--data-dir` and
/// `--backend`.
fn site_storage(flags: &HashMap<String, String>) -> Result<SiteStorage> {
    let backend = flags.get("backend").map(|v| BackendKind::parse(v));
    let dir = flags.get("data-dir").map(std::path::PathBuf::from);
    match (backend.transpose()?, dir) {
        (None, None) => Ok(SiteStorage::Volatile),
        (None | Some(BackendKind::File), Some(dir)) => Ok(SiteStorage::WalFiles(dir)),
        (Some(BackendKind::File), None) => Err(Error::Config(
            "--backend file needs --data-dir for its frames and WAL".into(),
        )),
        (Some(BackendKind::Memory), None) => Ok(SiteStorage::WalMemory),
        (Some(BackendKind::Memory), Some(_)) => Err(Error::Config(
            "--backend memory keeps no files: drop --data-dir, or use --backend file".into(),
        )),
    }
}

pub(crate) fn spec_from(flags: &HashMap<String, String>) -> Result<ClusterSpec> {
    let spec = flags
        .get("cluster")
        .ok_or_else(|| Error::Config("--cluster <spec> is required".into()))?;
    ClusterSpec::parse(spec)
}

/// Print a progress line immediately (stdout may be a pipe the parent
/// process is waiting on, so flush explicitly).
pub(crate) fn status(line: &str) {
    let mut out = std::io::stdout();
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// `ceh serve --cluster <spec> --node <i> [...]`: run one manager
/// process until the cluster is shut down. Returns the final summary
/// line.
pub fn run_serve(args: &[String]) -> Result<String> {
    if args.iter().any(|a| a == "--help" || a == "help") {
        return Ok(SERVE_HELP.to_string());
    }
    let (flags, pos) = split_flags(args)?;
    if !pos.is_empty() {
        return Err(Error::Config(format!(
            "unexpected argument '{}'\n\n{SERVE_HELP}",
            pos[0]
        )));
    }
    let spec = spec_from(&flags)?;
    let idx = flags
        .get("node")
        .ok_or_else(|| Error::Config("--node <i> is required".into()))?;
    let idx: usize = idx
        .parse()
        .map_err(|e| Error::Config(format!("--node {idx}: {e}")))?;
    let opts = node_options(&flags)?;

    let node = ServeNode::start(&spec, idx, &opts)?;
    let metrics = node.metrics();
    let addr = node
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|| "?".to_string());
    status(&format!(
        "ceh serve: node {idx} ({}) listening on {addr}",
        spec.nodes[idx].0
    ));
    if let Some(plan) = &opts.faults {
        status(&format!("ceh serve: fault plan: {}", plan.describe()));
    }
    let report = flags.contains_key("report");
    node.join()?;
    if report {
        status(&RunReport::collect("serve", &metrics).to_table());
    }
    Ok(format!("ceh serve: node {idx} exited cleanly"))
}

/// A tiny deterministic PRNG (splitmix64) so workloads replay exactly
/// from their seed without pulling RNG state into the oracle.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One client thread's share of the seeded workload, checked against
/// an exact in-memory model. Disjoint key spaces per client keep the
/// model exact under concurrency, and the seed is folded into the key
/// base so differently-seeded `workload` invocations against the same
/// (already populated) cluster do not trip each other's oracle.
/// `Inserted|AlreadyPresent` (and `Deleted|NotFound`) are equivalent
/// for a fresh mutation because the retry plane is at-least-once — a
/// lost *reply* re-executes the operation against state the first
/// execution already changed.
fn workload_thread(conn: &TcpClusterClient, client_no: u64, ops: u64, seed: u64) -> Result<usize> {
    // No timeout override: the connect-time retry policy's per-attempt
    // window governs, so lost frames cost milliseconds, not stalls.
    let client = conn.client();
    let mut rng = seed ^ (client_no.wrapping_mul(0xA24B_AED4_963E_E407) | 1);
    let mut model: HashMap<u64, u64> = HashMap::new();
    let base = ((seed & 0x7FFF) << 48) | ((client_no + 1) << 32);
    let span = (ops / 2).max(8);
    for _ in 0..ops {
        let key = Key(base | (mix(&mut rng) % span));
        match mix(&mut rng) % 10 {
            0..=5 => {
                let value = mix(&mut rng);
                let fresh = !model.contains_key(&key.0);
                let out = client.insert(key, Value(value))?;
                match (fresh, out) {
                    (true, InsertOutcome::Inserted | InsertOutcome::AlreadyPresent) => {
                        model.insert(key.0, value);
                    }
                    (false, InsertOutcome::AlreadyPresent) => {}
                    (fresh, out) => {
                        return Err(Error::Corrupt(format!(
                            "oracle: insert {key:?} (fresh={fresh}) returned {out:?}"
                        )));
                    }
                }
            }
            6..=7 => {
                let got = client.find(key)?;
                let want = model.get(&key.0).copied().map(Value);
                if got != want {
                    return Err(Error::Corrupt(format!(
                        "oracle: find {key:?} returned {got:?}, model says {want:?}"
                    )));
                }
            }
            _ => {
                let present = model.remove(&key.0).is_some();
                let out = client.delete(key)?;
                match (present, out) {
                    (true, DeleteOutcome::Deleted | DeleteOutcome::NotFound) => {}
                    (false, DeleteOutcome::NotFound) => {}
                    (present, out) => {
                        return Err(Error::Corrupt(format!(
                            "oracle: delete {key:?} (present={present}) returned {out:?}"
                        )));
                    }
                }
            }
        }
    }
    // Read-back sweep: every key this client ever touched must agree
    // with the model, live or deleted.
    for k in 0..span {
        let key = Key(base | k);
        let got = client.find(key)?;
        let want = model.get(&key.0).copied().map(Value);
        if got != want {
            return Err(Error::Corrupt(format!(
                "oracle: sweep find {key:?} returned {got:?}, model says {want:?}"
            )));
        }
    }
    Ok(model.len())
}

/// `ceh client --cluster <spec> [...] <command>`: one operation (or a
/// whole checked workload) against a running TCP cluster.
pub fn run_client(args: &[String]) -> Result<String> {
    if args.iter().any(|a| a == "--help" || a == "help") {
        return Ok(CLIENT_HELP.to_string());
    }
    let (flags, pos) = split_flags(args)?;
    let spec = spec_from(&flags)?;
    let client_node = flag_u64(&flags, "node", 1000)?;
    let client_node = u16::try_from(client_node)
        .map_err(|_| Error::Config(format!("--node {client_node}: not a plane node id")))?;
    let opts = node_options(&flags)?;
    let retry = RetryPolicy {
        attempts: flag_u64(&flags, "attempts", 10)? as u32,
        timeout_ms: flag_u64(&flags, "timeout-ms", 500)?,
        base_backoff_ms: 1,
        max_backoff_ms: 50,
    };

    let Some(cmd) = pos.first() else {
        return Err(Error::Config(format!("missing command\n\n{CLIENT_HELP}")));
    };
    let arg_u64 = |i: usize, what: &str| -> Result<u64> {
        let v = pos
            .get(i)
            .ok_or_else(|| Error::Config(format!("{cmd}: missing {what}")))?;
        let v = v.strip_prefix("0x").map_or_else(
            || v.parse::<u64>().map_err(|e| e.to_string()),
            |hex| u64::from_str_radix(hex, 16).map_err(|e| e.to_string()),
        );
        v.map_err(|e| Error::Config(format!("{cmd}: bad {what}: {e}")))
    };

    let conn = TcpClusterClient::connect(&spec, client_node, retry, &opts)?;
    let out = match cmd.as_str() {
        "put" => {
            let (k, v) = (arg_u64(1, "key")?, arg_u64(2, "value")?);
            match conn.client().insert(Key(k), Value(v))? {
                InsertOutcome::Inserted => "inserted".to_string(),
                InsertOutcome::AlreadyPresent => "already present".to_string(),
            }
        }
        "get" => {
            let k = arg_u64(1, "key")?;
            match conn.client().find(Key(k))? {
                Some(Value(v)) => v.to_string(),
                None => "absent".to_string(),
            }
        }
        "del" => {
            let k = arg_u64(1, "key")?;
            match conn.client().delete(Key(k))? {
                DeleteOutcome::Deleted => "deleted".to_string(),
                DeleteOutcome::NotFound => "absent".to_string(),
            }
        }
        "fill" => {
            let n = arg_u64(1, "count")?;
            let client = conn.client();
            for k in 0..n {
                client.insert(Key(k), Value(k * 31 + 7))?;
            }
            format!("filled {n}")
        }
        "workload" => {
            let ops = flag_u64(&flags, "ops", 300)?;
            let clients = flag_u64(&flags, "clients", 2)?.max(1);
            let seed = flag_u64(&flags, "seed", 0)?;
            let conn_ref = &conn;
            let live = std::thread::scope(|s| -> Result<usize> {
                let handles: Vec<_> = (0..clients)
                    .map(|c| s.spawn(move || workload_thread(conn_ref, c, ops, seed)))
                    .collect();
                let mut live = 0;
                for h in handles {
                    live += h
                        .join()
                        .map_err(|_| Error::Io("workload thread panicked".into()))??;
                }
                Ok(live)
            })?;
            format!(
                "oracle ok ({} ops across {clients} clients, {live} keys live)",
                ops * clients
            )
        }
        "shutdown" => {
            conn.shutdown_cluster();
            return Ok("cluster shutdown requested".to_string());
        }
        "stats" => {
            let mut lines = Vec::new();
            for (i, (role, addr)) in spec.nodes.iter().enumerate() {
                let state = conn
                    .plane()
                    .peer_state(spec.node_id(i))
                    .map(|s| format!("{s:?}"))
                    .unwrap_or_else(|| "unknown".to_string());
                lines.push(format!("node {i} ({role}@{addr}): {state}"));
            }
            lines.push(RunReport::collect("client", &conn.metrics()).to_table());
            lines.join("\n")
        }
        other => {
            return Err(Error::Config(format!(
                "unknown client command '{other}'\n\n{CLIENT_HELP}"
            )));
        }
    };
    conn.close();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storage(args: &[&str]) -> Result<SiteStorage> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        node_options(&split_flags(&args)?.0).map(|o| o.storage)
    }

    #[test]
    fn storage_flags_name_one_site_storage() {
        let dir = std::path::PathBuf::from("d");
        assert_eq!(storage(&[]).unwrap(), SiteStorage::Volatile);
        assert_eq!(
            storage(&["--backend", "file", "--data-dir", "d", "--capacity", "250"]).unwrap(),
            SiteStorage::WalFiles(dir.clone())
        );
        assert_eq!(
            storage(&["--data-dir", "d"]).unwrap(),
            SiteStorage::WalFiles(dir)
        );
        assert_eq!(
            storage(&["--backend", "memory"]).unwrap(),
            SiteStorage::WalMemory
        );
        assert!(storage(&["--backend", "file"]).is_err(), "no directory");
        assert!(storage(&["--backend", "memory", "--data-dir", "d"]).is_err());
        assert!(storage(&["--backend", "tape"]).is_err());
    }

    #[test]
    fn capacity_flag_is_checked_against_the_page_bitmap() {
        assert!(storage(&["--capacity", "256"]).is_ok());
        let err = storage(&["--capacity", "257"]).unwrap_err().to_string();
        assert!(
            err.contains("--capacity 257") && err.contains("at most 256"),
            "{err}"
        );
        assert!(storage(&["--capacity", "0"]).is_err());
    }
}
