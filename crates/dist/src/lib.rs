//! # ceh-dist — the distributed extendible hash file (§3)
//!
//! A process-structured implementation of the paper's distributed design,
//! derived from Solution 2:
//!
//! * **Directory managers** (Figure 13) each hold a **full replica** of
//!   the directory. Replicas are updated **asynchronously**: bucket-level
//!   split/merge updates carry version numbers, and a replica applies an
//!   update only when the affected entries' versions match the update's
//!   expected predecessors — otherwise the update is *parked* until its
//!   turn (the paper's `save`/`ReleaseSaved`, preventing the
//!   split-then-merge reordering catastrophe described in §3).
//! * **Bucket managers** (Figure 14) each own a disjoint set of buckets
//!   on a site-local page store with a site-local ρ/α/ξ lock manager. A
//!   front-end process dispatches each request to a *slave* process.
//!   Cross-site protocols: `Wrongbucket` forwarding (hand-over-hand
//!   locking preserved across sites by deferring the forwarder's unlock
//!   until the receiver has locked and acked), `Splitbucket` (allocate
//!   the new half on another site when local space runs out),
//!   `Mergedown` / `Mergeup`+`Goahead` (cross-site merges, with the "1"
//!   partner left behind as a tombstone whose `next` leads to the
//!   survivor).
//! * **Garbage collection**: a directory manager that initiates a merge
//!   update remembers the garbage page and deallocates it (via a
//!   `GarbageCollect` message to the owning bucket manager) only after
//!   every replica has applied and acknowledged the update — and each
//!   replica defers its acknowledgement until it has no requests in
//!   flight ("the equivalent of ξ-locking", Figure 13). Obsolete
//!   directory entries are usable in the meantime: they lead to a bucket
//!   from which the right bucket is reachable via `next` links.
//!
//! Everything above the network programs against [`ceh_net::Transport`]
//! (the [`DistNet`] alias) — reliable-while-healthy, buffered, port-based
//! asynchronous messages, with optional latency/jitter (jitter reorders
//! deliveries, which is precisely what the version scheme must tolerate).
//! [`Cluster`] wires the whole file up in one process over
//! [`ceh_net::SimNetwork`]; [`node`] runs each manager as its own OS
//! process over [`ceh_net::TcpPlane`] (`ceh serve` / `ceh client`), with
//! the [`wire`] module giving every [`Msg`] a frame encoding.
//! [`DistClient`] is the user-facing handle in both worlds.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod admin;
mod bucket_mgr;
mod client;
mod cluster;
mod directory_mgr;
pub mod msg;
pub mod node;
pub mod replica;
mod site;
pub mod wire;

/// The message plane the distributed layer runs on: any [`ceh_net::Transport`]
/// carrying [`Msg`]s — the simulated [`ceh_net::SimNetwork`] inside
/// [`Cluster`], or a [`ceh_net::TcpPlane`] when the managers are real
/// processes ([`node`]).
pub type DistNet = std::sync::Arc<dyn ceh_net::Transport<Msg>>;

pub use admin::{AdminClient, NodeStats};
pub use client::DistClient;
pub use cluster::{Cluster, ClusterConfig};
pub use msg::Msg;
pub use node::{ClusterSpec, NodeOptions, NodeRole, ServeNode, TcpClusterClient};
pub use replica::{ApplyResult, DirEntry, DirReplica, DirUpdate};
pub use site::SiteStorage;
