//! Per-layer costs, measured by calling each crate's public functions
//! from here: a sample of seeded keys replays the find of Figure 5 step
//! by step (hash, ρ on the directory, lookup, ρ on the page, page copy,
//! decode, search), each step inside a span of the benchmark's own, and
//! the update path's encode and page write follow. The other half of the
//! sample goes through the program's own `find`, so the replayed steps
//! can be checked against the operation they make up.

use std::hint::black_box;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use ceh_core::{ConcurrentHashFile, FileCore};
use ceh_dist::msg::{OpEnvelope, OpKind, UserOutcome};
use ceh_dist::Msg;
use ceh_locks::{LockId, LockMode};
use ceh_net::wire::{check_payload, decode_header, encode_frame, FrameKind, FRAME_HEADER_BYTES};
use ceh_net::{PortId, WireMsg, WireWriter};
use ceh_obs::{TraceCtx, TraceReport};
use ceh_types::{hash_key, Bucket, Key, PageId, Value};

use crate::report::Report;
use crate::stats::{self, Interval};
use crate::Args;

/// The steps of one replayed operation, in order; each is one span.
pub const STEPS: [&str; 12] = [
    "types.hash",
    "locks.lock_dir",
    "core.dir_lookup",
    "locks.lock_page",
    "locks.unlock_dir",
    "storage.page_read",
    "types.decode",
    "types.search",
    "locks.unlock_page",
    "types.encode",
    "storage.page_write",
    "net.codec",
];

/// Steps 0..FIND_STEPS make up a find; the rest are the update path's
/// write half and the messages a distributed op would carry.
const FIND_STEPS: usize = 9;

/// Mean cost of each layer call, net of the timer's own cost.
#[derive(Debug, Clone, Default)]
pub struct LayerCosts {
    /// Mean nanoseconds per step, indexed like [`STEPS`].
    pub step_ns: [f64; STEPS.len()],
    /// Records in the buckets the replayed finds decoded.
    pub records_decoded_per_find: f64,
    /// Sum of the find steps: what the layers account for in one find.
    pub covered_find_ns: f64,
    /// The program's own find over the other half of the sample.
    pub program_find_ns: f64,
    /// Encoding plus decoding, with framing, of the request and the
    /// reply a distributed client sends and receives itself.
    pub client_codec_ns: f64,
    /// Replayed operations behind each mean.
    pub samples: usize,
}

impl LayerCosts {
    /// Mean nanoseconds of step `name`.
    pub fn ns(&self, name: &str) -> f64 {
        let i = STEPS.iter().position(|s| *s == name).expect("known step");
        self.step_ns[i]
    }

    /// Record the metrics the probe gives on every workload.
    pub fn report(&self, r: &mut Report) {
        r.metric("types.hash_ns", self.ns("types.hash"));
        r.metric("types.decode_ns", self.ns("types.decode"));
        r.metric("types.encode_ns", self.ns("types.encode"));
        r.metric(
            "types.records_decoded_per_find",
            self.records_decoded_per_find,
        );
        r.metric("core.dir_lookup_ns", self.ns("core.dir_lookup"));
        r.metric("locks.lock_unlock_ns", self.lock_unlock_ns());
        r.metric("storage.page_read_ns", self.ns("storage.page_read"));
        r.metric("storage.page_write_ns", self.ns("storage.page_write"));
        r.metric("net.codec_ns", self.ns("net.codec"));
    }

    /// One ρ lock plus its unlock, averaged over the directory and page.
    pub fn lock_unlock_ns(&self) -> f64 {
        (self.ns("locks.lock_dir")
            + self.ns("locks.unlock_dir")
            + self.ns("locks.lock_page")
            + self.ns("locks.unlock_page"))
            / 2.0
    }
}

/// Where a traced run writes the spans of the replayed operations.
pub fn spans_path(args: &Args) -> PathBuf {
    args.work
        .join(format!("{}-seed{}-spans.jsonl", args.workload, args.seed))
}

/// Where a traced run writes the program's spans.
pub fn trace_path(args: &Args) -> PathBuf {
    args.work
        .join(format!("{}-seed{}-trace.json", args.workload, args.seed))
}

/// Write the first of the program's trace events out as Chrome trace
/// JSON (the ring keeps the newest, so the first events are whole).
pub fn write_trace(events: &[ceh_obs::TraceEvent], path: &Path) -> Result<(), String> {
    const WRITTEN: usize = 20_000;
    let head = events[..events.len().min(WRITTEN)].to_vec();
    std::fs::write(path, TraceReport::from_events(head, 0).to_chrome_json())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// The four messages one distributed operation puts on the wire:
/// request, bucket op, bucket done, reply.
fn op_messages(key: Key, value: Value) -> [Msg; 4] {
    let outcome = UserOutcome::Found(Some(value));
    [
        Msg::Request {
            op: OpKind::Find,
            key,
            value,
            user_port: PortId(7),
            req_id: 1,
            ctx: TraceCtx::NONE,
        },
        Msg::BucketOp(OpEnvelope {
            op: OpKind::Find,
            key,
            value,
            txn: 1,
            page: PageId(3),
            user_port: PortId(7),
            dirmgr_port: PortId(5),
            pseudokey: hash_key(key),
            attempt: 0,
            req_id: 1,
            ctx: TraceCtx::NONE,
        }),
        Msg::Bucketdone {
            txn: 1,
            success: true,
            outcome: Some(outcome),
        },
        Msg::UserReply { outcome, req_id: 1 },
    ]
}

/// Put `msg` in a frame and take it out again, as the TCP plane does
/// on each side of a hop.
fn codec_roundtrip(msg: &Msg) -> Result<(), String> {
    let mut w = WireWriter::new();
    w.u64(7);
    msg.wire_encode(&mut w);
    let frame = encode_frame(FrameKind::Msg, &w.into_bytes());
    let head: &[u8; FRAME_HEADER_BYTES] = frame[..FRAME_HEADER_BYTES]
        .try_into()
        .expect("frames start with a header");
    let header = decode_header(head).map_err(|e| e.to_string())?;
    let payload = &frame[FRAME_HEADER_BYTES..];
    check_payload(&header, payload).map_err(|e| e.to_string())?;
    black_box(Msg::wire_decode(&payload[8..]).map_err(|e| e.to_string())?);
    Ok(())
}

/// Replay `keys` against `core` (quiescent: nothing else may run) and
/// time `file.find` on the same sample. Spans of the first replayed
/// operations are written to `spans_out` as JSON lines.
pub fn probe(
    core: &FileCore,
    file: &dyn ConcurrentHashFile,
    keys: &[Key],
    spans_out: &Path,
) -> Result<LayerCosts, String> {
    const SPANS_WRITTEN: usize = 500;
    let hasher = core.hasher();
    let locks = core.locks();
    let store = core.store();
    let mut buf = core.new_buf();
    let mut out_buf = core.new_buf();
    let scratch = store.alloc().map_err(|e| e.to_string())?;
    let mut out = std::io::BufWriter::new(
        std::fs::File::create(spans_out).map_err(|e| format!("{}: {e}", spans_out.display()))?,
    );
    let epoch = Instant::now();
    let at = |t: Instant| (t - epoch).as_nanos() as u64;

    let mut step_total = [0u128; STEPS.len()];
    let mut self_total = 0u64;
    let mut op_total = 0u64;
    let mut records = 0usize;
    let mut replayed = 0usize;
    let mut program_total = 0u128;
    let mut program_n = 0usize;
    let mut client_codec_total = 0u128;
    let mut empty_total = 0u128;

    for (n, &key) in keys.iter().enumerate() {
        if n % 2 == 1 {
            let t0 = Instant::now();
            let got = file.find(black_box(key)).map_err(|e| e.to_string())?;
            program_total += (Instant::now() - t0).as_nanos();
            program_n += 1;
            if got.is_none() {
                return Err(format!("probe: live key {key:?} not found"));
            }
            continue;
        }
        let owner = locks.new_owner();
        let mut t = [epoch; STEPS.len() + 1];
        // An empty span first: what a span costs with nothing inside it,
        // measured in the same place as the steps, is taken off each.
        let e0 = Instant::now();
        t[0] = Instant::now();
        empty_total += (t[0] - e0).as_nanos();
        let pk = black_box(hasher)(black_box(key));
        t[1] = Instant::now();
        locks.lock(owner, LockId::Directory, LockMode::Rho);
        t[2] = Instant::now();
        let (_depth, page) = core.dir().lookup(pk);
        t[3] = Instant::now();
        locks.lock(owner, LockId::Page(page), LockMode::Rho);
        t[4] = Instant::now();
        locks.unlock(owner, LockId::Directory, LockMode::Rho);
        t[5] = Instant::now();
        store.read(page, &mut buf).map_err(|e| e.to_string())?;
        t[6] = Instant::now();
        let bucket = Bucket::decode(&buf).map_err(|e| e.to_string())?;
        t[7] = Instant::now();
        let found = black_box(bucket.search(key));
        t[8] = Instant::now();
        locks.unlock(owner, LockId::Page(page), LockMode::Rho);
        t[9] = Instant::now();
        bucket.encode(&mut out_buf).map_err(|e| e.to_string())?;
        t[10] = Instant::now();
        store.write(scratch, &out_buf).map_err(|e| e.to_string())?;
        t[11] = Instant::now();
        let msgs = op_messages(key, found.unwrap_or(Value(0)));
        let c0 = Instant::now();
        for m in &msgs {
            codec_roundtrip(m)?;
        }
        t[12] = Instant::now();
        // The client's own share: the request it sends and the reply it
        // gets, timed apart from the full set above.
        let c1 = Instant::now();
        codec_roundtrip(&msgs[0])?;
        codec_roundtrip(&msgs[3])?;
        client_codec_total += (Instant::now() - c1).as_nanos();

        if !bucket.owns(pk) || found.is_none() {
            // A quiescent file's directory points at the owning bucket.
            return Err(format!(
                "probe: {key:?} not in the bucket its directory entry names"
            ));
        }
        records += bucket.count();
        replayed += 1;
        let spans: Vec<Interval> = (0..STEPS.len())
            .map(|i| {
                let start = if i == STEPS.len() - 1 { c0 } else { t[i] };
                (at(start), at(t[i + 1]))
            })
            .collect();
        for (i, &(s, e)) in spans.iter().enumerate() {
            step_total[i] += u128::from(e - s);
        }
        let op_span = (spans[0].0, spans[FIND_STEPS - 1].1);
        self_total += stats::self_time_ns(op_span, &spans[..FIND_STEPS]);
        op_total += op_span.1 - op_span.0;
        if replayed <= SPANS_WRITTEN {
            writeln!(
                out,
                "{{\"op\":{replayed},\"span\":\"find\",\"start_ns\":{},\"end_ns\":{}}}",
                op_span.0, op_span.1
            )
            .map_err(|e| e.to_string())?;
            for (i, &(s, e)) in spans.iter().enumerate() {
                let parent = if i < FIND_STEPS { "find" } else { "update" };
                writeln!(
                    out,
                    "{{\"op\":{replayed},\"span\":\"{}\",\"parent\":\"{parent}\",\"start_ns\":{s},\"end_ns\":{e}}}",
                    STEPS[i]
                )
                .map_err(|e| e.to_string())?;
            }
        }
    }
    out.flush().map_err(|e| e.to_string())?;
    store.dealloc(scratch).map_err(|e| e.to_string())?;
    if replayed == 0 || program_n == 0 {
        return Err("probe: empty sample".into());
    }

    let overhead = empty_total as f64 / replayed as f64;
    let mut costs = LayerCosts {
        samples: replayed,
        records_decoded_per_find: records as f64 / replayed as f64,
        program_find_ns: (program_total as f64 / program_n as f64 - overhead).max(0.0),
        client_codec_ns: client_codec_total as f64 / replayed as f64 - overhead,
        ..LayerCosts::default()
    };
    for (i, total) in step_total.iter().enumerate() {
        costs.step_ns[i] = *total as f64 / replayed as f64 - overhead;
    }
    costs.covered_find_ns = costs.step_ns[..FIND_STEPS].iter().sum();
    writeln!(
        std::io::stderr(),
        "probe: {replayed} replayed finds, timer {overhead:.1} ns/span, replay self time {:.1} of {:.1} ns/op",
        self_total as f64 / replayed as f64,
        op_total as f64 / replayed as f64
    )
    .ok();
    Ok(costs)
}
