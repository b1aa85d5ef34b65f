//! # ceh-net — the message plane (simulated and real)
//!
//! §3 of the paper assumes processes that "do not share storage … and
//! communicate through asynchronous messages", with "reliable delivery,
//! buffering, and possible anonymity of senders (e.g. port-based
//! communication as in [Rashid 80])". This crate is that substrate,
//! behind one object-safe [`Transport`] trait with two implementations:
//!
//! * [`SimNetwork`] — a registry of [`PortId`]s with reliable, buffered,
//!   sender-anonymous delivery (`send` never fails while the receiving
//!   port exists; messages queue without bound);
//! * [`TcpPlane`] — the same port/name surface over real sockets:
//!   length-prefixed wire frames with version/CRC headers ([`mod@wire`]),
//!   a supervised connection per peer ([`supervisor`]) with bounded
//!   reconnect backoff, heartbeats, and load-shedding degradation, so
//!   the distributed hash file runs as actual processes (`ceh serve`);
//! * the name service via `register_name` / `lookup` — the paper's
//!   `namelookup(manager-id)`, mapping long-lived manager identifiers
//!   to ports (replicated peer-to-peer on the TCP plane);
//! * [`MsgStats`] — per-class message counters, the currency of the
//!   distributed experiments (E7/E8 in DESIGN.md): every send is counted
//!   under the label returned by [`MsgClass::class`], matching Figure 11's
//!   message taxonomy;
//! * an optional [`LatencyModel`] that delays deliveries (fixed + jitter).
//!   Jitter can reorder messages *across* sends — deliberately, because
//!   the paper's version-number scheme exists precisely to tolerate
//!   directory updates arriving out of order (§3's split-then-merge
//!   example);
//! * a seeded [`FaultPlan`] that makes the network *lossy on purpose* —
//!   per-class drop and duplication probabilities (plus garble, sever,
//!   and delay at the socket boundary), and live structural faults
//!   ([`SimNetwork::blackhole_port`], [`SimNetwork::cut_one_way`],
//!   [`SimNetwork::close_port`]) — with every drop and duplicate counted
//!   in [`MsgStats`]. The distributed layer's retry/dedup machinery is
//!   validated against this plane (`tests/chaos.rs`) and against real
//!   sockets (`transport_smoke` in CI) with the *same* seeded plans.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod fault;
mod latency;
mod network;
mod stats;
pub mod supervisor;
mod tcp;
mod transport;
pub mod wire;

pub use fault::{FaultPlan, FaultProbs, FrameVerdict};
pub use latency::LatencyModel;
pub use network::{
    MsgClass, PortId, PortRx, RecvError, SimNetwork, TRACE_DELIVERED, TRACE_DROPPED,
    TRACE_DUPLICATED, TRACE_SENT,
};
pub use stats::{MsgStats, MsgStatsSnapshot};
pub use supervisor::{Backoff, PeerFsm, PeerState, SupervisorConfig, TickAction};
pub use tcp::{TcpConfig, TcpPlane};
pub use transport::Transport;
pub use wire::{Wire, WireError, WireMsg, WireReader, WireWriter};
