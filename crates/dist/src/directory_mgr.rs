//! The directory manager server of Figure 13.
//!
//! "The locking of the directory in the centralized solution is embodied
//! in the manager's explicit scheduling of requests for its attention."
//! One thread, one replica, a context table multiplexing user requests,
//! the ρ (requests in flight) and α (unacked copyupdates) counters, a
//! parking lot for out-of-order updates, deferred acknowledgements for
//! merge copyupdates, and the remembered-garbage list driving the
//! garbage-collection phase.
//!
//! Beyond the figure (which assumes reliable delivery), this manager is
//! hardened for the lossy network of DESIGN.md's fault model:
//!
//! * **Request idempotence** — the client stamps each request with a
//!   `req_id` and reuses it on retry. Completed outcomes are cached per
//!   client port, so a retry after a lost `UserReply` gets the recorded
//!   outcome instead of a second execution; a retry racing the original
//!   (still in flight) is simply ignored.
//! * **Re-driven bucket operations** — a context whose `BucketOp` or
//!   `Bucketdone` was lost (or whose bucket site crashed) is re-driven
//!   with a fresh directory lookup after `resend_after`, exactly like a
//!   bucket-level refusal. The slave side tolerates redundant drives:
//!   insert is add-if-absent and delete of an absent key is `NotFound`.
//! * **Acked replication** — every `Copyupdate` and `GarbageCollect`
//!   carries an id and is re-sent until the matching `CopyAck` / `GcAck`
//!   arrives. Duplicated deliveries are harmless: the replica's version
//!   algebra makes a re-applied update `Stale` (and re-acks), and the
//!   bucket manager deduplicates collections by `gc_id`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ceh_net::{PortId, PortRx, RecvError};
use ceh_obs::{Counter, Gauge, Histogram, MetricsHandle, TraceCtx};
use ceh_types::{hash_key, Key, ManagerId, PageId, Value};

use crate::msg::{Msg, OpEnvelope, OpKind, UserOutcome};
use crate::replica::{ApplyResult, DirReplica, DirUpdate};
use crate::site::{bucket_mgr_name, dir_mgr_name};
use crate::DistNet;

/// A multiplexed user request's saved state (`SaveState`/`RestoreState`).
struct Context {
    op: OpKind,
    key: Key,
    value: Value,
    user_port: PortId,
    /// The client's request id (for the reply echo and the dedupe index).
    req_id: u64,
    /// Re-drive count: bounded so persistent bucket-level refusals
    /// degrade to a merge-free attempt instead of looping (see the
    /// centralized Solution 2 for the same bound and rationale).
    attempt: u32,
    /// When the current `BucketOp` was sent; a context stalled past
    /// `resend_after` is re-driven (lost message or crashed site).
    sent_at: Instant,
    /// When the request first arrived. `sent_at` resets on every
    /// re-drive, so end-to-end latency (the `dist.request_ns`
    /// histogram and the slow-op log) is measured from here.
    started: Instant,
    /// The dispatch span this transaction runs under (child of the
    /// client's request span); every `BucketOp` — including re-drives —
    /// carries it, so all hops attribute to the originating request.
    ctx: TraceCtx,
}

struct Parked {
    update: DirUpdate,
    /// `(ack port, update id)` when this came in as a `Copyupdate` (we
    /// owe an ack).
    ack: Option<(PortId, u64)>,
}

/// An unacked `Copyupdate` broadcast to one peer, re-sent until acked.
struct OutstandingUpdate {
    peer: String,
    update: DirUpdate,
    sent_at: Instant,
    /// Context of the request whose split/merge this replicates; resends
    /// keep stamping it.
    ctx: TraceCtx,
}

/// An unacked `GarbageCollect`, re-sent until acked.
struct OutstandingGc {
    mgr: ManagerId,
    pages: Vec<PageId>,
    sent_at: Instant,
    /// Context of the (last) merge that contributed these pages.
    ctx: TraceCtx,
}

pub(crate) struct DirectoryManager {
    idx: usize,
    net: DistNet,
    rx: PortRx<Msg>,
    my_port: PortId,
    replica: DirReplica,
    contexts: HashMap<u64, Context>,
    next_txn: u64,
    /// Requests in flight at this manager (Figure 13's `rho`).
    rho: usize,
    parked: Vec<Parked>,
    /// Acks for merge copyupdates, deferred until `rho == 0` — "when the
    /// equivalent of ξ-locking occurs".
    deferred_acks: Vec<(PortId, u64)>,
    /// Garbage from merges *we* coordinated, per owning bucket manager
    /// (`RememberDeleted`), not yet sent for collection. The context is
    /// the last contributing merge's — a deliberate simplification (one
    /// `GarbageCollect` can batch pages from several merges).
    garbage: HashMap<ManagerId, (Vec<PageId>, TraceCtx)>,
    /// Copyupdates broadcast but not yet acked; its size is Figure 13's
    /// `alpha`. Entries persist across failed peer lookups and lost
    /// messages — the resend timer retries until the ack arrives.
    outstanding_updates: HashMap<u64, OutstandingUpdate>,
    next_update_id: u64,
    /// Garbage collections sent but not yet acked.
    outstanding_gc: HashMap<u64, OutstandingGc>,
    next_gc_id: u64,
    /// Completed outcomes per client port, keyed by `req_id`, so a
    /// retried request cannot double-apply. Pruned on every request from
    /// that port: clients are sequential and their ids increase, so
    /// entries older than the incoming id are unreachable.
    completed: HashMap<PortId, HashMap<u64, UserOutcome>>,
    /// In-flight request index `(user_port, req_id) → txn` for dropping
    /// duplicate retries of a request still being driven.
    inflight: HashMap<(PortId, u64), u64>,
    /// Names of the other directory managers (resolved per send; peers
    /// spawn concurrently with us).
    peer_names: Vec<String>,
    /// Cap on re-drives before a request is failed back to the user.
    max_attempts: u32,
    /// Re-send interval for unacked replication traffic and stalled
    /// contexts.
    resend_after: Duration,
    /// `dist.redrives`: requests re-driven after a bucket-level refusal,
    /// a lost message, or a crashed site.
    redrives: std::sync::Arc<Counter>,
    /// `dist.copyupdate_rounds`: directory updates broadcast to the
    /// peer replicas (one count per update, however many peers).
    copyupdate_rounds: std::sync::Arc<Counter>,
    /// `dist.resends.copyupdate`: unacked copyupdates re-sent by the
    /// timer.
    resends_copyupdate: std::sync::Arc<Counter>,
    /// `dist.resends.gc`: unacked garbage collections re-sent by the
    /// timer.
    resends_gc: std::sync::Arc<Counter>,
    /// `dist.requests`: user requests accepted (dedupe hits and
    /// duplicate retries excluded).
    requests: std::sync::Arc<Counter>,
    /// `dist.request_ns`: end-to-end request latency at this manager,
    /// arrival to completion, re-drives included.
    request_ns: std::sync::Arc<Histogram>,
    /// `dist.inflight`: live mirror of `rho` for dashboards.
    inflight_gauge: std::sync::Arc<Gauge>,
    /// For dispatch spans and dedupe/redrive instants.
    metrics: MetricsHandle,
}

impl DirectoryManager {
    /// Counters in a private throwaway registry (protocol unit tests).
    #[cfg(test)]
    pub fn new(
        idx: usize,
        total_dir_mgrs: usize,
        net: DistNet,
        rx: PortRx<Msg>,
        replica: DirReplica,
        resend_after: Duration,
    ) -> Self {
        Self::with_metrics(
            idx,
            total_dir_mgrs,
            net,
            rx,
            replica,
            resend_after,
            &MetricsHandle::default(),
        )
    }

    /// Like [`DirectoryManager::new`], reporting into `metrics` (the
    /// cluster-wide registry) under `dist.*` names.
    #[allow(clippy::too_many_arguments)]
    pub fn with_metrics(
        idx: usize,
        total_dir_mgrs: usize,
        net: DistNet,
        rx: PortRx<Msg>,
        replica: DirReplica,
        resend_after: Duration,
        metrics: &MetricsHandle,
    ) -> Self {
        let my_port = rx.id();
        let peer_names = (0..total_dir_mgrs)
            .filter(|&i| i != idx)
            .map(dir_mgr_name)
            .collect();
        DirectoryManager {
            idx,
            net,
            rx,
            my_port,
            replica,
            contexts: HashMap::new(),
            next_txn: 1,
            rho: 0,
            parked: Vec::new(),
            deferred_acks: Vec::new(),
            garbage: HashMap::new(),
            outstanding_updates: HashMap::new(),
            next_update_id: 1,
            outstanding_gc: HashMap::new(),
            // Bucket managers deduplicate collections by id across *all*
            // originators, so gc ids are namespaced per manager the same
            // way transaction ids are.
            next_gc_id: ((idx as u64) << 48) | 1,
            completed: HashMap::new(),
            inflight: HashMap::new(),
            peer_names,
            max_attempts: 20,
            resend_after,
            redrives: metrics.counter("dist.redrives"),
            copyupdate_rounds: metrics.counter("dist.copyupdate_rounds"),
            resends_copyupdate: metrics.counter("dist.resends.copyupdate"),
            resends_gc: metrics.counter("dist.resends.gc"),
            requests: metrics.counter("dist.requests"),
            request_ns: metrics.histogram("dist.request_ns"),
            inflight_gauge: metrics.gauge("dist.inflight"),
            metrics: metrics.clone(),
        }
    }

    /// Figure 13's `alpha`: outstanding unacked copyupdates.
    fn alpha(&self) -> usize {
        self.outstanding_updates.len()
    }

    /// Mirror `rho` into the `dist.inflight` gauge; call after every
    /// change so a live snapshot always sees the current depth.
    fn sync_inflight(&self) {
        self.inflight_gauge.set(self.rho as i64);
    }

    /// Record a completed (or abandoned) request's end-to-end latency:
    /// the `dist.request_ns` histogram plus the slow-op log (a no-op
    /// unless a threshold is armed).
    fn observe_latency(&self, ctx: &Context) {
        let ns = ctx.started.elapsed().as_nanos() as u64;
        self.request_ns.record(ns);
        let kind = match ctx.op {
            OpKind::Find => "find",
            OpKind::Insert => "insert",
            OpKind::Delete => "delete",
        };
        self.metrics
            .slow_ops()
            .observe(kind, ns, ctx.ctx.trace_id, ctx.key.0);
    }

    /// The server loop (`while (true) { messageid = GetMessage (&msg); … }`),
    /// with a timeout tick driving the resend timers.
    pub fn run(mut self) {
        let tick = (self.resend_after / 4).max(Duration::from_millis(1));
        loop {
            match self.rx.recv_timeout(tick) {
                Ok(Msg::Request {
                    op,
                    key,
                    value,
                    user_port,
                    req_id,
                    ctx,
                }) => self.on_request(op, key, value, user_port, req_id, ctx),
                Ok(Msg::Bucketdone {
                    txn,
                    success,
                    outcome,
                }) => self.on_bucketdone(txn, success, outcome),
                Ok(Msg::Update {
                    txn,
                    success,
                    outcome,
                    update,
                    ctx,
                }) => self.on_update(txn, success, outcome, update, ctx),
                Ok(Msg::Copyupdate {
                    update,
                    update_id,
                    ack_port,
                    ..
                }) => self.ingest(update, Some((ack_port, update_id))),
                Ok(Msg::CopyAck { update_id }) => {
                    // Unknown ids are fine: acks for re-sent duplicates.
                    self.outstanding_updates.remove(&update_id);
                }
                Ok(Msg::GcAck { gc_id }) => {
                    self.outstanding_gc.remove(&gc_id);
                }
                Ok(Msg::Status { reply_port }) => self.on_status(reply_port),
                Ok(Msg::Shutdown) => break,
                Ok(other) => {
                    debug_assert!(
                        false,
                        "directory manager got unexpected {}",
                        ceh_net::MsgClass::class(&other)
                    );
                }
                Err(RecvError::Empty) => {}
                // Network gone: exit the loop.
                Err(RecvError::Disconnected) => break,
            }
            self.resend_overdue();
            // "if (!rho) SendRememberedAcks(); if (!rho && !alpha) GarbageCollect();"
            self.maybe_release_acks_and_garbage();
        }
    }

    fn on_request(
        &mut self,
        op: OpKind,
        key: Key,
        value: Value,
        user_port: PortId,
        req_id: u64,
        req_ctx: TraceCtx,
    ) {
        // The client is sequential per port: a new id means every lower
        // in-flight id from this port was abandoned (the client timed out
        // and failed over). Stop re-driving those zombies — the bucket
        // sites additionally fence them out if one is already in flight.
        let stale: Vec<u64> = self
            .inflight
            .iter()
            .filter(|&(&(p, r), _)| p == user_port && r < req_id)
            .map(|(_, &txn)| txn)
            .collect();
        for txn in stale {
            if let Some(ctx) = self.contexts.remove(&txn) {
                self.inflight.remove(&(ctx.user_port, ctx.req_id));
                self.rho -= 1;
                self.sync_inflight();
            }
        }
        // Retry dedupe. Prune first: the client is sequential per port
        // with increasing ids, so nothing below `req_id` can recur.
        if let Some(done) = self.completed.get_mut(&user_port) {
            done.retain(|&id, _| id >= req_id);
            if let Some(&outcome) = done.get(&req_id) {
                self.metrics
                    .trace_instant(req_ctx, "dist", "dedupe_hit", key.0, req_id);
                self.net.send(user_port, Msg::UserReply { outcome, req_id });
                return;
            }
        }
        if self.inflight.contains_key(&(user_port, req_id)) {
            // Duplicate of a request we are still driving; its eventual
            // completion will answer the client.
            return;
        }
        // Globally unique transaction ids: manager index in the top bits.
        let txn = ((self.idx as u64) << 48) | self.next_txn;
        self.next_txn += 1;
        // Dispatch span: child of the client's request span, open until
        // the transaction finishes (or its context is cleared).
        let ctx = self
            .metrics
            .trace_begin(req_ctx, "dist", "dispatch", key.0, txn);
        self.contexts.insert(
            txn,
            Context {
                op,
                key,
                value,
                user_port,
                req_id,
                attempt: 0,
                sent_at: Instant::now(),
                started: Instant::now(),
                ctx,
            },
        );
        self.inflight.insert((user_port, req_id), txn);
        self.rho += 1;
        self.requests.inc();
        self.sync_inflight();
        self.contact_bucket(txn);
    }

    /// `ContactBucket`: construct a Find/Insert/Delete message from saved
    /// context plus a *fresh* directory lookup, and send it to the
    /// appropriate bucket manager. A failed send (crashed site) is left
    /// to the resend timer.
    fn contact_bucket(&mut self, txn: u64) {
        let ctx = self
            .contexts
            .get_mut(&txn)
            .expect("contact for unknown txn");
        ctx.sent_at = Instant::now();
        let pk = hash_key(ctx.key);
        let entry = self.replica.lookup(pk);
        let env = OpEnvelope {
            op: ctx.op,
            key: ctx.key,
            value: ctx.value,
            txn,
            page: entry.page,
            user_port: ctx.user_port,
            dirmgr_port: self.my_port,
            pseudokey: pk,
            attempt: ctx.attempt,
            req_id: ctx.req_id,
            ctx: ctx.ctx,
        };
        let port = self
            .net
            .lookup(&bucket_mgr_name(entry.mgr))
            .expect("bucket manager registered");
        self.net.send(port, Msg::BucketOp(env));
    }

    fn finish(&mut self, txn: u64, outcome: UserOutcome) {
        if let Some(ctx) = self.contexts.remove(&txn) {
            self.inflight.remove(&(ctx.user_port, ctx.req_id));
            // Record for retries — except `Failed`, which applied no
            // change, so a retried request deserves a fresh execution.
            if outcome != UserOutcome::Failed {
                self.completed
                    .entry(ctx.user_port)
                    .or_default()
                    .insert(ctx.req_id, outcome);
            }
            self.net.send(
                ctx.user_port,
                Msg::UserReply {
                    outcome,
                    req_id: ctx.req_id,
                },
            );
            self.metrics
                .trace_end(ctx.ctx, "dist", "dispatch", ctx.key.0, txn);
            self.observe_latency(&ctx);
            self.rho -= 1;
            self.sync_inflight();
        }
    }

    /// Drop a context whose reply path bypasses us (finds answer the
    /// user directly).
    fn clear_context(&mut self, txn: u64) {
        if let Some(ctx) = self.contexts.remove(&txn) {
            self.inflight.remove(&(ctx.user_port, ctx.req_id));
            self.metrics
                .trace_end(ctx.ctx, "dist", "dispatch", ctx.key.0, txn);
            self.observe_latency(&ctx);
            self.rho -= 1;
            self.sync_inflight();
        }
    }

    fn redrive(&mut self, txn: u64) {
        let (exhausted, tctx, attempt) = {
            let Some(ctx) = self.contexts.get_mut(&txn) else {
                return;
            };
            ctx.attempt += 1;
            (ctx.attempt >= self.max_attempts, ctx.ctx, ctx.attempt)
        };
        if exhausted {
            self.finish(txn, UserOutcome::Failed);
        } else {
            self.redrives.inc();
            self.metrics
                .trace_instant(tctx, "dist", "redrive", attempt as u64, txn);
            self.contact_bucket(txn);
        }
    }

    fn on_bucketdone(&mut self, txn: u64, success: bool, outcome: Option<UserOutcome>) {
        if !success {
            // The slave could not safely complete (stale page, failed
            // merge validation): re-drive with fresh directory state.
            self.redrive(txn);
            return;
        }
        match outcome {
            Some(o) => self.finish(txn, o),
            None => {
                // A find: the slave answers the user directly (Figure
                // 14); we only clear our context.
                self.clear_context(txn);
            }
        }
    }

    fn on_update(
        &mut self,
        txn: u64,
        success: bool,
        outcome: Option<UserOutcome>,
        update: DirUpdate,
        ctx: TraceCtx,
    ) {
        // Remember merge garbage: we coordinate its collection once every
        // replica has acked.
        if let Some(g) = update.garbage() {
            let entry = self
                .garbage
                .entry(g.manager)
                .or_insert_with(|| (Vec::new(), TraceCtx::NONE));
            entry.0.push(g.page);
            entry.1 = ctx;
        }
        // Broadcast to the other replicas; each send stays outstanding
        // (and is periodically re-sent) until its ack arrives.
        self.copyupdate_rounds.inc();
        for name in self.peer_names.clone() {
            self.send_copyupdate(name, update.clone(), ctx);
        }
        // Apply (or park) locally. No ack owed to ourselves.
        self.ingest(update, None);
        if success {
            match outcome {
                Some(o) => self.finish(txn, o),
                None => self.clear_context(txn),
            }
        } else {
            // A split that failed to place the key: re-drive the insert
            // against the post-split directory.
            self.redrive(txn);
        }
    }

    fn send_copyupdate(&mut self, peer: String, update: DirUpdate, ctx: TraceCtx) {
        let id = self.next_update_id;
        self.next_update_id += 1;
        if let Some(port) = self.net.lookup(&peer) {
            self.net.send(
                port,
                Msg::Copyupdate {
                    update: update.clone(),
                    update_id: id,
                    ack_port: self.my_port,
                    ctx,
                },
            );
        }
        // Outstanding even when the lookup or send failed: the resend
        // timer keeps trying until the peer acknowledges, so a peer that
        // is slow to register (or temporarily down) still converges.
        self.outstanding_updates.insert(
            id,
            OutstandingUpdate {
                peer,
                update,
                sent_at: Instant::now(),
                ctx,
            },
        );
    }

    fn send_garbage_collect(&mut self, mgr: ManagerId, pages: Vec<PageId>, ctx: TraceCtx) {
        let id = self.next_gc_id;
        self.next_gc_id += 1;
        if let Some(port) = self.net.lookup(&bucket_mgr_name(mgr)) {
            self.net.send(
                port,
                Msg::GarbageCollect {
                    pages: pages.clone(),
                    gc_id: id,
                    ack_port: self.my_port,
                    ctx,
                },
            );
        }
        self.outstanding_gc.insert(
            id,
            OutstandingGc {
                mgr,
                pages,
                sent_at: Instant::now(),
                ctx,
            },
        );
    }

    /// Re-send everything unacked (or stalled) past `resend_after`.
    fn resend_overdue(&mut self) {
        let now = Instant::now();
        let due = self.resend_after;
        let update_ids: Vec<u64> = self
            .outstanding_updates
            .iter()
            .filter(|(_, o)| now.duration_since(o.sent_at) >= due)
            .map(|(&id, _)| id)
            .collect();
        for id in update_ids {
            self.resends_copyupdate.inc();
            let o = self.outstanding_updates.get_mut(&id).expect("just listed");
            o.sent_at = now;
            let (peer, update, ctx) = (o.peer.clone(), o.update.clone(), o.ctx);
            if let Some(port) = self.net.lookup(&peer) {
                self.net.send(
                    port,
                    Msg::Copyupdate {
                        update,
                        update_id: id,
                        ack_port: self.my_port,
                        ctx,
                    },
                );
            }
        }
        let gc_ids: Vec<u64> = self
            .outstanding_gc
            .iter()
            .filter(|(_, o)| now.duration_since(o.sent_at) >= due)
            .map(|(&id, _)| id)
            .collect();
        for id in gc_ids {
            self.resends_gc.inc();
            let o = self.outstanding_gc.get_mut(&id).expect("just listed");
            o.sent_at = now;
            let (mgr, pages, ctx) = (o.mgr, o.pages.clone(), o.ctx);
            if let Some(port) = self.net.lookup(&bucket_mgr_name(mgr)) {
                self.net.send(
                    port,
                    Msg::GarbageCollect {
                        pages,
                        gc_id: id,
                        ack_port: self.my_port,
                        ctx,
                    },
                );
            }
        }
        // Contexts whose BucketOp or reply was lost (or whose site is
        // down): re-drive with a fresh lookup. Redundant drives are safe
        // — the bucket level is idempotent per key, late replies for
        // already-finished transactions are ignored.
        let stalled: Vec<u64> = self
            .contexts
            .iter()
            .filter(|(_, c)| now.duration_since(c.sent_at) >= due)
            .map(|(&txn, _)| txn)
            .collect();
        for txn in stalled {
            self.redrive(txn);
        }
    }

    /// Apply an update or park it; on application (or staleness) settle
    /// the ack, deferring merge acks until ρ reaches zero.
    fn ingest(&mut self, update: DirUpdate, ack: Option<(PortId, u64)>) {
        match self.replica.apply(&update) {
            Ok(ApplyResult::Applied) | Ok(ApplyResult::Stale) => {
                self.settle_ack(update.is_merge(), ack);
                self.release_parked();
            }
            Ok(ApplyResult::Parked) => {
                self.parked.push(Parked { update, ack });
            }
            Err(e) => {
                // A replica that cannot grow past max_depth has diverged
                // irrecoverably — fail loudly (see DESIGN.md: size the
                // directory with headroom; the distributed variant has no
                // global backpressure on depth).
                panic!("directory manager {} cannot apply update: {e}", self.idx);
            }
        }
    }

    fn settle_ack(&mut self, is_merge: bool, ack: Option<(PortId, u64)>) {
        if let Some((port, update_id)) = ack {
            if is_merge {
                self.deferred_acks.push((port, update_id));
            } else {
                self.net.send(port, Msg::CopyAck { update_id });
            }
        }
    }

    /// `ReleaseSaved`: retry parked updates until a full pass applies
    /// nothing.
    fn release_parked(&mut self) {
        loop {
            let mut progressed = false;
            let mut i = 0;
            while i < self.parked.len() {
                match self.replica.apply(&self.parked[i].update) {
                    Ok(ApplyResult::Applied) | Ok(ApplyResult::Stale) => {
                        let Parked { update, ack } = self.parked.remove(i);
                        self.settle_ack(update.is_merge(), ack);
                        progressed = true;
                    }
                    Ok(ApplyResult::Parked) => i += 1,
                    Err(e) => panic!("directory manager {} parked apply failed: {e}", self.idx),
                }
            }
            if !progressed {
                return;
            }
        }
    }

    fn maybe_release_acks_and_garbage(&mut self) {
        if self.rho == 0 && !self.deferred_acks.is_empty() {
            for (port, update_id) in std::mem::take(&mut self.deferred_acks) {
                self.net.send(port, Msg::CopyAck { update_id });
            }
        }
        if self.rho == 0 && self.alpha() == 0 && !self.garbage.is_empty() {
            for (mgr, (pages, ctx)) in std::mem::take(&mut self.garbage) {
                self.send_garbage_collect(mgr, pages, ctx);
            }
        }
    }

    #[cfg(test)]
    fn set_max_attempts(&mut self, n: u32) {
        self.max_attempts = n;
    }

    fn on_status(&mut self, reply_port: PortId) {
        let pending_garbage = self.garbage.values().map(|(v, _)| v.len()).sum::<usize>()
            + self
                .outstanding_gc
                .values()
                .map(|o| o.pages.len())
                .sum::<usize>();
        self.net.send(
            reply_port,
            Msg::StatusReply {
                rho: self.rho,
                alpha: self.alpha(),
                parked: self.parked.len(),
                depth: self.replica.depth(),
                entries: self.replica.entries(),
                pending_garbage,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    //! Unit tests driving a directory manager thread directly, with the
    //! test standing in for both the user and the bucket manager — so
    //! the coordination paths the cluster tests can only hit
    //! statistically (re-drives, the attempt cap, deferred acks, retry
    //! dedupe, ack-or-resend replication) are exercised
    //! deterministically.

    use super::*;
    use crate::msg::{OpKind, UserOutcome};
    use crate::replica::DirUpdate;
    use crate::site::bucket_mgr_name;
    use ceh_net::{PortRx, SimNetwork};
    use ceh_types::{BucketLink, DeleteOutcome, PageId, Pseudokey};
    use std::time::Duration;

    struct Rig {
        net: SimNetwork<Msg>,
        dir_port: PortId,
        /// The fake bucket manager's inbox (registered as manager 0).
        bucket_rx: PortRx<Msg>,
        user_rx: PortRx<Msg>,
        handle: std::thread::JoinHandle<()>,
    }

    fn rig(max_attempts: Option<u32>) -> Rig {
        // A resend interval far beyond test duration: the timer paths
        // stay quiet unless a test opts in via `rig_resend`.
        rig_full(max_attempts, 1, Duration::from_secs(600))
    }

    fn rig_resend(resend: Duration) -> Rig {
        rig_full(None, 2, resend)
    }

    fn rig_full(max_attempts: Option<u32>, total_dir_mgrs: usize, resend: Duration) -> Rig {
        let net: SimNetwork<Msg> = SimNetwork::default();
        let (bucket_port, bucket_rx) = net.create_port();
        net.register_name(bucket_mgr_name(ceh_types::ManagerId(0)), bucket_port);
        let (_user_port, user_rx) = net.create_port();
        let (dir_port, dir_rx) = net.create_port();
        let replica =
            DirReplica::new(8, BucketLink::new(ceh_types::ManagerId(0), PageId(0))).unwrap();
        let mut mgr = DirectoryManager::new(
            0,
            total_dir_mgrs,
            std::sync::Arc::new(net.clone()),
            dir_rx,
            replica,
            resend,
        );
        if let Some(n) = max_attempts {
            mgr.set_max_attempts(n);
        }
        let handle = std::thread::spawn(move || mgr.run());
        Rig {
            net,
            dir_port,
            bucket_rx,
            user_rx,
            handle,
        }
    }

    fn recv(rx: &PortRx<Msg>) -> Msg {
        rx.recv_timeout(Duration::from_secs(5)).expect("timed out")
    }

    impl Rig {
        fn shutdown(self) {
            self.net.send(self.dir_port, Msg::Shutdown);
            self.handle.join().unwrap();
        }

        fn request(&self, op: OpKind, key: Key, value: Value, req_id: u64) {
            self.net.send(
                self.dir_port,
                Msg::Request {
                    op,
                    key,
                    value,
                    user_port: self.user_rx.id(),
                    req_id,
                    ctx: TraceCtx::NONE,
                },
            );
        }
    }

    #[test]
    fn request_is_forwarded_with_fresh_lookup_and_context() {
        let r = rig(None);
        r.request(OpKind::Find, Key(42), Value(0), 1);
        let Msg::BucketOp(env) = recv(&r.bucket_rx) else {
            panic!("expected BucketOp")
        };
        assert_eq!(env.op, OpKind::Find);
        assert_eq!(env.key, Key(42));
        assert_eq!(
            env.page,
            PageId(0),
            "depth-0 replica routes everything to the root"
        );
        assert_eq!(env.pseudokey, hash_key(Key(42)));
        assert_eq!(env.attempt, 0);
        assert_eq!(env.req_id, 1, "client id flows through to the envelope");
        r.shutdown();
    }

    #[test]
    fn failed_bucketdone_redrives_with_incremented_attempt() {
        let r = rig(None);
        r.request(OpKind::Delete, Key(7), Value(0), 1);
        let Msg::BucketOp(env) = recv(&r.bucket_rx) else {
            panic!()
        };
        // Bucket level says "try again" (the distributed label-A path).
        r.net.send(
            env.dirmgr_port,
            Msg::Bucketdone {
                txn: env.txn,
                success: false,
                outcome: None,
            },
        );
        let Msg::BucketOp(env2) = recv(&r.bucket_rx) else {
            panic!()
        };
        assert_eq!(env2.txn, env.txn, "same transaction re-driven");
        assert_eq!(env2.attempt, 1);
        // Now succeed: the user hears the outcome.
        r.net.send(
            env2.dirmgr_port,
            Msg::Bucketdone {
                txn: env2.txn,
                success: true,
                outcome: Some(UserOutcome::Deleted(DeleteOutcome::Deleted)),
            },
        );
        match recv(&r.user_rx) {
            Msg::UserReply {
                outcome: UserOutcome::Deleted(DeleteOutcome::Deleted),
                req_id: 1,
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        r.shutdown();
    }

    #[test]
    fn attempt_cap_fails_the_request_to_the_user() {
        let r = rig(Some(3));
        r.request(OpKind::Delete, Key(7), Value(0), 1);
        // Refuse forever.
        for _ in 0..3 {
            let Msg::BucketOp(env) = recv(&r.bucket_rx) else {
                panic!()
            };
            r.net.send(
                env.dirmgr_port,
                Msg::Bucketdone {
                    txn: env.txn,
                    success: false,
                    outcome: None,
                },
            );
        }
        match recv(&r.user_rx) {
            Msg::UserReply {
                outcome: UserOutcome::Failed,
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        r.shutdown();
    }

    #[test]
    fn split_update_reroutes_the_retry_and_acks_are_counted() {
        let r = rig(None);
        r.request(OpKind::Insert, Key(1), Value(10), 1);
        let Msg::BucketOp(env) = recv(&r.bucket_rx) else {
            panic!()
        };
        // Report a split that failed to place the key (done = false):
        // the manager must apply the update and re-drive against the
        // post-split directory.
        let new_page = PageId(9);
        r.net.send(
            env.dirmgr_port,
            Msg::Update {
                txn: env.txn,
                success: false,
                outcome: None,
                update: DirUpdate::Split {
                    pseudokey: env.pseudokey,
                    old_localdepth: 0,
                    expected_version: 0,
                    new_version: 1,
                    new_bucket: BucketLink::new(ceh_types::ManagerId(0), new_page),
                },
                ctx: TraceCtx::NONE,
            },
        );
        let Msg::BucketOp(env2) = recv(&r.bucket_rx) else {
            panic!()
        };
        assert_eq!(env2.txn, env.txn);
        let expected_page = if env.pseudokey.0 & 1 == 1 {
            new_page
        } else {
            PageId(0)
        };
        assert_eq!(
            env2.page, expected_page,
            "re-drive uses the post-split directory"
        );
        // Finish it.
        r.net.send(
            env2.dirmgr_port,
            Msg::Bucketdone {
                txn: env2.txn,
                success: true,
                outcome: Some(UserOutcome::Inserted(ceh_types::InsertOutcome::Inserted)),
            },
        );
        match recv(&r.user_rx) {
            Msg::UserReply {
                outcome: UserOutcome::Inserted(_),
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        r.shutdown();
    }

    #[test]
    fn merge_copyupdate_ack_deferred_until_idle() {
        // Replica B receives a merge copyupdate while it has a request in
        // flight: the ack must not arrive until that request completes.
        let r = rig(None);
        let (ack_port, ack_rx) = r.net.create_port();
        // Put a request in flight (rho = 1).
        r.request(OpKind::Find, Key(3), Value(0), 1);
        let Msg::BucketOp(env) = recv(&r.bucket_rx) else {
            panic!()
        };
        // Set up: apply a split first so the merge below is applicable.
        r.net.send(
            r.dir_port,
            Msg::Copyupdate {
                update: DirUpdate::Split {
                    pseudokey: Pseudokey(0),
                    old_localdepth: 0,
                    expected_version: 0,
                    new_version: 1,
                    new_bucket: BucketLink::new(ceh_types::ManagerId(0), PageId(5)),
                },
                update_id: 71,
                ack_port,
                ctx: TraceCtx::NONE,
            },
        );
        // Split acks are immediate, echoing the update id.
        match recv(&ack_rx) {
            Msg::CopyAck { update_id: 71 } => {}
            other => panic!("unexpected {other:?}"),
        }
        // Merge copyupdate: ack must be *deferred* (rho = 1).
        r.net.send(
            r.dir_port,
            Msg::Copyupdate {
                update: DirUpdate::Merge {
                    pseudokey: Pseudokey(0),
                    old_localdepth: 1,
                    expected_v0: 1,
                    expected_v1: 1,
                    new_version: 2,
                    merged: BucketLink::new(ceh_types::ManagerId(0), PageId(0)),
                    garbage: BucketLink::new(ceh_types::ManagerId(0), PageId(5)),
                },
                update_id: 72,
                ack_port,
                ctx: TraceCtx::NONE,
            },
        );
        assert!(
            matches!(
                ack_rx.recv_timeout(Duration::from_millis(100)),
                Err(ceh_net::RecvError::Empty)
            ),
            "merge ack must wait for rho == 0"
        );
        // Complete the in-flight find: rho drops to 0 → ack released.
        r.net.send(
            env.dirmgr_port,
            Msg::Bucketdone {
                txn: env.txn,
                success: true,
                outcome: None,
            },
        );
        match recv(&ack_rx) {
            Msg::CopyAck { update_id: 72 } => {}
            other => panic!("unexpected {other:?}"),
        }
        r.shutdown();
    }

    #[test]
    fn duplicate_request_returns_cached_outcome_without_reexecuting() {
        let r = rig(None);
        r.request(OpKind::Insert, Key(8), Value(80), 5);
        let Msg::BucketOp(env) = recv(&r.bucket_rx) else {
            panic!()
        };
        r.net.send(
            env.dirmgr_port,
            Msg::Bucketdone {
                txn: env.txn,
                success: true,
                outcome: Some(UserOutcome::Inserted(ceh_types::InsertOutcome::Inserted)),
            },
        );
        match recv(&r.user_rx) {
            Msg::UserReply {
                outcome: UserOutcome::Inserted(_),
                req_id: 5,
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        // The reply "was lost": the client retries with the same id. The
        // manager must answer from its cache — *no* second BucketOp.
        r.request(OpKind::Insert, Key(8), Value(80), 5);
        match recv(&r.user_rx) {
            Msg::UserReply {
                outcome: UserOutcome::Inserted(_),
                req_id: 5,
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            matches!(
                r.bucket_rx.recv_timeout(Duration::from_millis(100)),
                Err(ceh_net::RecvError::Empty)
            ),
            "a deduplicated retry must not reach the bucket level"
        );
        // A later id prunes the cache and executes normally.
        r.request(OpKind::Find, Key(8), Value(0), 6);
        let Msg::BucketOp(env2) = recv(&r.bucket_rx) else {
            panic!()
        };
        assert_eq!(env2.req_id, 6);
        r.shutdown();
    }

    #[test]
    fn duplicate_of_inflight_request_is_ignored() {
        let r = rig(None);
        r.request(OpKind::Insert, Key(9), Value(90), 2);
        let Msg::BucketOp(env) = recv(&r.bucket_rx) else {
            panic!()
        };
        // Retry arrives while the original is still being driven.
        r.request(OpKind::Insert, Key(9), Value(90), 2);
        assert!(
            matches!(
                r.bucket_rx.recv_timeout(Duration::from_millis(100)),
                Err(ceh_net::RecvError::Empty)
            ),
            "the duplicate must not spawn a second transaction"
        );
        r.net.send(
            env.dirmgr_port,
            Msg::Bucketdone {
                txn: env.txn,
                success: true,
                outcome: Some(UserOutcome::Inserted(ceh_types::InsertOutcome::Inserted)),
            },
        );
        match recv(&r.user_rx) {
            Msg::UserReply {
                outcome: UserOutcome::Inserted(_),
                req_id: 2,
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        r.shutdown();
    }

    #[test]
    fn copyupdate_is_resent_until_acked() {
        let r = rig_resend(Duration::from_millis(50));
        // Stand in for peer dir-mgr-1.
        let (peer_port, peer_rx) = r.net.create_port();
        r.net.register_name(dir_mgr_name(1), peer_port);
        // A bucket-level split lands: the manager must broadcast it.
        r.net.send(
            r.dir_port,
            Msg::Update {
                txn: 999, // no such context; broadcast must still happen
                success: true,
                outcome: None,
                update: DirUpdate::Split {
                    pseudokey: Pseudokey(0),
                    old_localdepth: 0,
                    expected_version: 0,
                    new_version: 1,
                    new_bucket: BucketLink::new(ceh_types::ManagerId(0), PageId(5)),
                },
                ctx: TraceCtx::NONE,
            },
        );
        let Msg::Copyupdate {
            update_id,
            ack_port,
            ..
        } = recv(&peer_rx)
        else {
            panic!()
        };
        // Ignore it: the resend timer must deliver it again with the
        // same id.
        let Msg::Copyupdate { update_id: id2, .. } = recv(&peer_rx) else {
            panic!()
        };
        assert_eq!(id2, update_id, "resends reuse the update id");
        // Ack: resends stop.
        r.net.send(ack_port, Msg::CopyAck { update_id });
        assert!(
            matches!(
                peer_rx.recv_timeout(Duration::from_millis(200)),
                Err(ceh_net::RecvError::Empty)
            ),
            "acked updates are not re-sent"
        );
        r.shutdown();
    }

    #[test]
    fn garbage_collect_is_resent_until_acked_and_gates_quiescence() {
        let r = rig_resend(Duration::from_millis(50));
        let (peer_port, peer_rx) = r.net.create_port();
        r.net.register_name(dir_mgr_name(1), peer_port);
        let (status_port, status_rx) = r.net.create_port();
        // A merge lands; its garbage must be collected after the peer
        // acks the copyupdate.
        r.net.send(
            r.dir_port,
            Msg::Copyupdate {
                update: DirUpdate::Split {
                    pseudokey: Pseudokey(0),
                    old_localdepth: 0,
                    expected_version: 0,
                    new_version: 1,
                    new_bucket: BucketLink::new(ceh_types::ManagerId(0), PageId(5)),
                },
                update_id: 1,
                ack_port: peer_port,
                ctx: TraceCtx::NONE,
            },
        );
        recv(&peer_rx); // our ack for the split (peer_port doubles as ack sink)
        r.net.send(
            r.dir_port,
            Msg::Update {
                txn: 999,
                success: true,
                outcome: None,
                update: DirUpdate::Merge {
                    pseudokey: Pseudokey(0),
                    old_localdepth: 1,
                    expected_v0: 1,
                    expected_v1: 1,
                    new_version: 2,
                    merged: BucketLink::new(ceh_types::ManagerId(0), PageId(0)),
                    garbage: BucketLink::new(ceh_types::ManagerId(0), PageId(5)),
                },
                ctx: TraceCtx::NONE,
            },
        );
        // The broadcast of the merge goes to the peer; ack it so alpha
        // drains and garbage collection can start.
        let Msg::Copyupdate {
            update_id,
            ack_port,
            ..
        } = recv(&peer_rx)
        else {
            panic!()
        };
        r.net.send(ack_port, Msg::CopyAck { update_id });
        // First GarbageCollect arrives at the bucket manager.
        let Msg::GarbageCollect {
            pages,
            gc_id,
            ack_port,
            ..
        } = recv(&r.bucket_rx)
        else {
            panic!()
        };
        assert_eq!(pages, vec![PageId(5)]);
        // Unacked → pending_garbage still reported (quiesce would wait).
        r.net.send(
            r.dir_port,
            Msg::Status {
                reply_port: status_port,
            },
        );
        let Msg::StatusReply {
            pending_garbage, ..
        } = recv(&status_rx)
        else {
            panic!()
        };
        assert_eq!(pending_garbage, 1, "unacked collection still pending");
        // And it is re-sent with the same id.
        let Msg::GarbageCollect { gc_id: id2, .. } = recv(&r.bucket_rx) else {
            panic!()
        };
        assert_eq!(id2, gc_id);
        // Ack: pending drains, resends stop.
        r.net.send(ack_port, Msg::GcAck { gc_id });
        r.net.send(
            r.dir_port,
            Msg::Status {
                reply_port: status_port,
            },
        );
        loop {
            // Drain possibly queued duplicate resends racing the ack.
            match recv(&status_rx) {
                Msg::StatusReply {
                    pending_garbage: 0, ..
                } => break,
                Msg::StatusReply { .. } => {
                    std::thread::sleep(Duration::from_millis(20));
                    r.net.send(
                        r.dir_port,
                        Msg::Status {
                            reply_port: status_port,
                        },
                    );
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        r.shutdown();
    }

    #[test]
    fn stalled_context_is_redriven_by_the_timer() {
        let r = rig_resend(Duration::from_millis(50));
        r.request(OpKind::Insert, Key(4), Value(40), 1);
        let Msg::BucketOp(env) = recv(&r.bucket_rx) else {
            panic!()
        };
        // Swallow it (the message "was dropped"): the timer must re-drive.
        let Msg::BucketOp(env2) = recv(&r.bucket_rx) else {
            panic!()
        };
        assert_eq!(env2.txn, env.txn, "same transaction");
        assert_eq!(env2.attempt, 1, "re-drive counts as an attempt");
        r.net.send(
            env2.dirmgr_port,
            Msg::Bucketdone {
                txn: env2.txn,
                success: true,
                outcome: Some(UserOutcome::Inserted(ceh_types::InsertOutcome::Inserted)),
            },
        );
        match recv(&r.user_rx) {
            Msg::UserReply {
                outcome: UserOutcome::Inserted(_),
                req_id: 1,
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        r.shutdown();
    }
}
