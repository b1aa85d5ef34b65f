//! # ceh-obs — the unified observability core
//!
//! Every layer of this workspace is evaluated quantitatively: the paper
//! argues by lock waits, messages, and I/Os per operation. Before this
//! crate each layer kept its own hand-rolled stats module; they could
//! not be correlated in one run. `ceh-obs` is the single measurement
//! plane they all report through:
//!
//! * [`Counter`] — a sharded, cache-line-padded atomic counter for hot
//!   paths (one relaxed `fetch_add` per event, no contention between
//!   recording threads);
//! * [`Gauge`] — a signed level (current value, not a rate);
//! * [`Histogram`] — *the* latency histogram: log2 buckets with 16
//!   linear sub-buckets per octave (≤ ~6% relative quantile error),
//!   lock-free recording, mergeable, with one percentile definition
//!   (nearest rank, reported as the bucket's lower bound clamped to the
//!   observed min/max) shared by every consumer;
//! * [`Tracer`] — a bounded ring buffer of [`TraceEvent`]s with
//!   begin/end spans and a propagable [`TraceCtx`], disabled by default
//!   (one relaxed atomic load per probe);
//! * [`HistoryLog`] — an operation-history log (invoke/return edges with
//!   observed outcomes, globally sequenced), disabled by default; the
//!   feed for `ceh-check`'s linearizability oracle;
//! * [`TraceReport`] — reassembles drained events into per-trace span
//!   trees and renders them as an indented timeline, Chrome
//!   trace-format JSON, or a lock-contention profile;
//! * [`MetricsHandle`] — a cheaply clonable handle to a shared
//!   [registry](MetricsHandle::snapshot) of named metrics. Layers
//!   resolve their named instruments once at construction and hold the
//!   `Arc`s, so steady-state recording never touches the registry;
//! * [`SnapshotRing`] / [`WindowDelta`] — windowed delta snapshots for
//!   live dashboards: interval rates from monotone counters and
//!   per-window p50/p99 from histogram bucket subtraction, without
//!   resetting global state;
//! * [`SlowOpLog`] — a bounded ring of operations whose latency crossed
//!   a configurable threshold, each stamped with its trace id;
//! * [`RunReport`] — one coherent snapshot of an entire run (all
//!   layers, one registry), rendered as JSON ([`RunReport::to_json`])
//!   or a pretty table ([`RunReport::to_table`]);
//! * [`json`] — a dependency-free JSON writer/parser plus the subset of
//!   JSON Schema the CI metrics smoke validates [`RunReport`]s against.
//!
//! ## Metric namespace
//!
//! Names are dot-separated, `layer.family[.detail]`:
//!
//! | prefix | owner | examples |
//! |---|---|---|
//! | `locks.` | `ceh-locks` | `locks.grants.rho`, `locks.wait_ns.xi` (hist) |
//! | `storage.` | `ceh-storage` | `storage.reads`, `storage.io_ns` (hist) |
//! | `net.` | `ceh-net` | `net.sent.find`, `net.delivery_ns` (hist) |
//! | `core.` | `ceh-core` | `core.splits`, `core.chain_hops` |
//! | `dist.` | `ceh-dist` | `dist.client.retries`, `dist.redrives` |
//!
//! One [`MetricsHandle`] threaded through the constructors of a file or
//! cluster makes all of these land in one registry; DESIGN.md §8 maps
//! the E1–E10 experiments onto these names.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod counter;
mod hist;
mod history;
pub mod json;
mod registry;
mod report;
mod slowlog;
mod trace;
mod trace_report;
mod window;

pub use counter::{thread_slot, Counter, Gauge, THREAD_SLOTS};
pub use hist::{Histogram, HistogramCapture, HistogramSnapshot, HistogramWindow};
pub use history::{HistKind, HistRecord, HistResult, HistToken, HistoryLog};
pub use registry::{MetricsHandle, MetricsSnapshot};
pub use report::RunReport;
pub use slowlog::{SlowOp, SlowOpLog};
pub use trace::{CtxScope, EventKind, SpanId, TraceCtx, TraceEvent, Tracer};
pub use trace_report::{lock_target_label, ContentionEntry, Span, TraceReport, TraceTree};
pub use window::{Sample, SnapshotRing, WindowDelta};
