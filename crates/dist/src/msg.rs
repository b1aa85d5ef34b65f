//! The message vocabulary — one variant per message id of Figure 11,
//! with the fields of Figure 12.
//!
//! Deviations from the figures (documented per DESIGN.md):
//!
//! * `Request` carries the value to insert (the paper's index stores keys
//!   plus "associated information"; the figures elide the value).
//! * `Bucketdone` carries the user-visible outcome so the directory
//!   manager can answer the user — the figures track request completion
//!   but never show the reply path for updates.
//! * `Goahead` carries the records moved out of the deleted bucket, which
//!   is empty at the paper's merge threshold (the lone record being
//!   deleted) but not for the generalized thresholds this library
//!   supports.
//! * The fault-tolerance extension (DESIGN.md "Fault model"): `Request`,
//!   `UserReply`, and `OpEnvelope` carry a client-assigned `req_id` so
//!   retried requests deduplicate instead of double-applying;
//!   `Copyupdate`/`CopyAck` carry an `update_id` and
//!   `GarbageCollect`/`GcAck` a `gc_id` so replication traffic can be
//!   re-sent until acknowledged. The paper assumes reliable delivery and
//!   needs none of these.
//! * The causal-tracing extension (DESIGN.md "Causal tracing"): the
//!   envelope plus `Request`/`Update`/`Copyupdate`/`GarbageCollect`
//!   carry a [`TraceCtx`], so every hop of a request — including
//!   re-drives, failovers, and the replication/GC traffic a request
//!   triggers — attributes to the originating client span. The context
//!   is zero-sized in effect when tracing is off (`TraceCtx::NONE`).

use ceh_net::{MsgClass, PortId};
use ceh_obs::TraceCtx;
use ceh_types::bucket::Bucket;
use ceh_types::{BucketLink, DeleteOutcome, InsertOutcome, Key, PageId, Pseudokey, Record, Value};

use crate::replica::DirUpdate;

/// The observability plane's message classes, exempted from every
/// probabilistic fault rule when a plan is installed on a serve node
/// (`FaultPlan::exempt_classes`): the dashboard must see through the
/// chaos it is watching. Structural faults (a dead node) still apply —
/// that is the poller's stale path.
pub const ADMIN_CLASSES: &[&str] = &["stats-request", "stats-reply"];

/// Which user operation a request/bucket message drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Look up a key.
    Find,
    /// Insert a key/value.
    Insert,
    /// Delete a key.
    Delete,
}

/// The reply a user ultimately receives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UserOutcome {
    /// Result of a find.
    Found(Option<Value>),
    /// Result of an insert.
    Inserted(InsertOutcome),
    /// Result of a delete.
    Deleted(DeleteOutcome),
    /// The request could not be completed after exhausting re-drives
    /// (surfaced to the client as an availability error).
    Failed,
}

/// Everything a bucket slave needs to carry on with a request — the
/// common fields of the `Find`, `Insert`, `Delete`, and `Wrongbucket`
/// messages of Figure 12.
#[derive(Debug, Clone)]
pub struct OpEnvelope {
    /// Which operation.
    pub op: OpKind,
    /// The target key.
    pub key: Key,
    /// Value for inserts.
    pub value: Value,
    /// Transaction number (directory manager context id).
    pub txn: u64,
    /// The page address to start from, meaningful to the receiving
    /// manager.
    pub page: PageId,
    /// The user's reply port.
    pub user_port: PortId,
    /// The coordinating directory manager's reply port.
    pub dirmgr_port: PortId,
    /// The pseudokey (precomputed by the directory manager, Figure 13).
    pub pseudokey: Pseudokey,
    /// How many times the coordinating directory manager has re-driven
    /// this request; slaves stop attempting merges after a few (the same
    /// bounded degradation as the centralized Solution 2).
    pub attempt: u32,
    /// The client's request id (flows through so the final `UserReply`
    /// can echo it).
    pub req_id: u64,
    /// Trace context of the dispatch span this request runs under;
    /// bucket slaves install it so core/lock spans nest beneath it.
    pub ctx: TraceCtx,
}

/// All messages exchanged in the distributed system.
#[derive(Debug, Clone)]
pub enum Msg {
    /// User → directory manager: perform an operation.
    Request {
        /// The operation.
        op: OpKind,
        /// The key.
        key: Key,
        /// The value (inserts; ignored otherwise).
        value: Value,
        /// Where the user expects the reply.
        user_port: PortId,
        /// Client-assigned id, unique per client port. A retry after a
        /// lost reply reuses the id, so the directory manager can return
        /// the recorded outcome instead of applying the operation twice.
        req_id: u64,
        /// The client's per-request root span; everything the request
        /// causes downstream nests under this trace.
        ctx: TraceCtx,
    },
    /// Terminal reply to the user.
    UserReply {
        /// The outcome.
        outcome: UserOutcome,
        /// Echo of the request's `req_id`; lets the client discard
        /// stale replies to attempts it has already given up on.
        req_id: u64,
    },
    /// Directory manager → bucket manager: run an operation at a bucket.
    BucketOp(OpEnvelope),
    /// Bucket manager → bucket manager: the search must continue on your
    /// site; the sender holds its lock until you ack (hand-over-hand
    /// across sites).
    Wrongbucket {
        /// The request being forwarded.
        env: OpEnvelope,
        /// The forwarding slave's reply port (for the ack).
        buckmgr_port: PortId,
    },
    /// Ack for `Wrongbucket`: the receiver has locked the next bucket;
    /// the forwarder may release its lock.
    WrongbucketAck,
    /// Bucket slave → directory manager: the operation finished (or
    /// failed and should be re-driven) without directory changes.
    Bucketdone {
        /// The transaction this concludes.
        txn: u64,
        /// False = re-drive the request with fresh directory state.
        success: bool,
        /// The user-visible outcome when `success`.
        outcome: Option<UserOutcome>,
    },
    /// Bucket slave → its directory manager: a split or merge happened;
    /// update the directory (and broadcast to the other replicas).
    Update {
        /// The transaction that caused it.
        txn: u64,
        /// False for a split that failed to place the key: after the
        /// directory update, re-drive the request.
        success: bool,
        /// The user-visible outcome when `success`.
        outcome: Option<UserOutcome>,
        /// The directory modification itself.
        update: DirUpdate,
        /// Context of the dispatch that caused the structural change;
        /// replication traffic it triggers inherits this.
        ctx: TraceCtx,
    },
    /// Directory manager → directory manager: apply this update to your
    /// replica and ack to `ack_port`. Re-sent on a timer until acked;
    /// the replica's version-matching makes redelivery harmless (a
    /// duplicate is `Stale` and acked again).
    Copyupdate {
        /// The directory modification.
        update: DirUpdate,
        /// Originator-assigned id for matching the ack to this send.
        update_id: u64,
        /// Where to send the ack.
        ack_port: PortId,
        /// Context of the request whose split/merge is being replicated.
        ctx: TraceCtx,
    },
    /// Ack for `Copyupdate` (deferred at the replica until it has no
    /// requests in flight, for merge updates).
    CopyAck {
        /// Echo of the `Copyupdate`'s id.
        update_id: u64,
    },
    /// Bucket slave → bucket manager front end: store this freshly split
    /// half on your site.
    Splitbucket {
        /// Where to send the reply.
        reply_port: PortId,
        /// The new bucket's contents.
        half2: Box<Bucket>,
        /// The sender's mutation-fence table; merged at the receiving
        /// site so migrated records keep their zombie protection.
        fences: Vec<(PortId, u64)>,
    },
    /// Reply to `Splitbucket`: where the half landed.
    Splitreply {
        /// The page/manager now holding the new half.
        link: BucketLink,
    },
    /// Deleter → partner's manager: z is in the "0" partner; merge the
    /// "1" partner (at `partner`) down into it.
    Mergedown {
        /// The partner's page address on your site.
        partner: PageId,
        /// The deleter's bucket's localdepth; merge only if equal.
        localdepth: u32,
        /// The deleter's bucket's record count once the key is gone;
        /// merge only if the partner's records fit beside them.
        count: usize,
        /// Where to send the reply.
        reply_port: PortId,
    },
    /// Reply to `Mergedown`: partner contents if merging may proceed.
    MDReply {
        /// The partner's contents (when `success`).
        buffer: Option<Box<Bucket>>,
        /// Whether the partner was mergeable (localdepths matched).
        success: bool,
        /// The partner site's mutation-fence table (records migrate to
        /// the deleter's site with the merge).
        fences: Vec<(PortId, u64)>,
    },
    /// Deleter → partner's manager: z is in the "1" partner (`target`,
    /// on the requesting manager); lock the "0" partner (at `partner`)
    /// and hold while the deleter validates.
    Mergeup {
        /// The "0" partner's page on your site.
        partner: PageId,
        /// The deleter's bucket (the "1" partner) — for the
        /// `brother.next == target` check.
        target: PageId,
        /// The manager owning `target`.
        target_mgr: ceh_types::ManagerId,
        /// Where to send the reply.
        reply_port: PortId,
    },
    /// Reply to `Mergeup`.
    MUReply {
        /// The "0" partner's localdepth.
        localdepth: u32,
        /// The "0" partner's version.
        version: u64,
        /// Port awaiting the `Goahead` (when `success`).
        goahead_port: PortId,
        /// Whether `partner.next == target` held (merging may proceed).
        success: bool,
        /// The "0" partner's record count (for the merged-capacity
        /// check under generalized merge thresholds).
        count: usize,
    },
    /// Deleter → waiting `Mergeup` handler: commit or abort the merge.
    Goahead {
        /// Commit?
        success: bool,
        /// New `next` for the survivor (the deleted bucket's old next).
        next: BucketLink,
        /// New version for the survivor.
        version: u64,
        /// Records moved out of the deleted bucket (empty at the paper's
        /// merge threshold).
        moved: Vec<Record>,
        /// The deleter site's mutation-fence table, accompanying `moved`.
        fences: Vec<(PortId, u64)>,
    },
    /// Directory manager → bucket manager: these pages are garbage; ξ-lock
    /// and deallocate each. Re-sent on a timer until acked; the bucket
    /// manager deduplicates by `gc_id` so a duplicate cannot deallocate
    /// a page that has since been reallocated.
    GarbageCollect {
        /// The pages to reclaim.
        pages: Vec<PageId>,
        /// Originator-assigned id for dedupe and ack matching.
        gc_id: u64,
        /// Where to send the ack.
        ack_port: PortId,
        /// Context of the (last) merge that contributed the garbage.
        ctx: TraceCtx,
    },
    /// Ack for `GarbageCollect`.
    GcAck {
        /// Echo of the `GarbageCollect`'s id.
        gc_id: u64,
    },
    /// Test/diagnostic: ask a directory manager for its state.
    Status {
        /// Where to send the reply.
        reply_port: PortId,
    },
    /// Reply to `Status`.
    StatusReply {
        /// In-flight request count (the ρ counter of Figure 13).
        rho: usize,
        /// Outstanding unacked copyupdates (the α counter).
        alpha: usize,
        /// Updates parked waiting for predecessors.
        parked: usize,
        /// Replica depth.
        depth: u32,
        /// Replica entries (page links with versions).
        entries: Vec<crate::replica::DirEntry>,
        /// Garbage pages remembered but not yet collected.
        pending_garbage: usize,
    },
    /// Observability plane → any node's admin port: send back a live
    /// stats snapshot. Fault-exempt on the wire (the dashboard must see
    /// through the chaos it is watching) but never retried: a node that
    /// does not answer within the poller's deadline is reported stale.
    StatsRequest {
        /// Where to send the `StatsReply`.
        reply_port: PortId,
    },
    /// Reply to `StatsRequest`: one node's live snapshot as JSON
    /// (validated against `schemas/live_snapshot.schema.json` on the
    /// consumer side). JSON rather than a struct so the dashboard
    /// never needs a lockstep upgrade with every new gauge.
    StatsReply {
        /// The snapshot document.
        json: String,
    },
    /// Orderly shutdown of a manager loop.
    Shutdown,
}

impl MsgClass for Msg {
    fn class(&self) -> &'static str {
        match self {
            Msg::Request { .. } => "request",
            Msg::UserReply { .. } => "user-reply",
            Msg::BucketOp(env) => match env.op {
                OpKind::Find => "find",
                OpKind::Insert => "insert",
                OpKind::Delete => "delete",
            },
            Msg::Wrongbucket { .. } => "wrongbucket",
            Msg::WrongbucketAck => "wrongbucket-ack",
            Msg::Bucketdone { .. } => "bucketdone",
            Msg::Update { .. } => "update",
            Msg::Copyupdate { .. } => "copyupdate",
            Msg::CopyAck { .. } => "copy-ack",
            Msg::Splitbucket { .. } => "splitbucket",
            Msg::Splitreply { .. } => "splitreply",
            Msg::Mergedown { .. } => "mergedown",
            Msg::MDReply { .. } => "md-reply",
            Msg::Mergeup { .. } => "mergeup",
            Msg::MUReply { .. } => "mu-reply",
            Msg::Goahead { .. } => "goahead",
            Msg::GarbageCollect { .. } => "garbagecollect",
            Msg::GcAck { .. } => "gc-ack",
            Msg::Status { .. } => "status",
            Msg::StatusReply { .. } => "status-reply",
            Msg::StatsRequest { .. } => "stats-request",
            Msg::StatsReply { .. } => "stats-reply",
            Msg::Shutdown => "shutdown",
        }
    }

    fn trace_ctx(&self) -> TraceCtx {
        match self {
            Msg::Request { ctx, .. }
            | Msg::Update { ctx, .. }
            | Msg::Copyupdate { ctx, .. }
            | Msg::GarbageCollect { ctx, .. } => *ctx,
            Msg::BucketOp(env) | Msg::Wrongbucket { env, .. } => env.ctx,
            _ => TraceCtx::NONE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_match_figure_11_taxonomy() {
        let env = OpEnvelope {
            op: OpKind::Find,
            key: Key(1),
            value: Value(0),
            txn: 0,
            page: PageId(0),
            user_port: PortId(1),
            dirmgr_port: PortId(2),
            pseudokey: Pseudokey(0),
            attempt: 0,
            req_id: 0,
            ctx: TraceCtx::NONE,
        };
        assert_eq!(Msg::BucketOp(env.clone()).class(), "find");
        let mut ins = env.clone();
        ins.op = OpKind::Insert;
        assert_eq!(Msg::BucketOp(ins).class(), "insert");
        assert_eq!(
            Msg::Wrongbucket {
                env,
                buckmgr_port: PortId(3)
            }
            .class(),
            "wrongbucket"
        );
        assert_eq!(Msg::CopyAck { update_id: 0 }.class(), "copy-ack");
        assert_eq!(Msg::GcAck { gc_id: 0 }.class(), "gc-ack");
        assert_eq!(Msg::Shutdown.class(), "shutdown");
    }
}
