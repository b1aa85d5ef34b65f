//! The bucket manager of Figure 14: a front-end process that dispatches
//! each incoming message to a slave process, plus the slave procedures
//! themselves (find/insert/delete with cross-site wrong-bucket
//! forwarding, remote split placement, and the mergedown/mergeup/goahead
//! protocols).

use std::sync::Arc;

use ceh_locks::LockMode;
use ceh_net::{PortId, PortRx, RecvError};
use ceh_storage::{mergeable, too_empty, Edit, Owning, Paired, Retire, Walked, MERGE_ATTEMPTS};
use ceh_types::bits::{partner_bit, partner_commonbits};
use ceh_types::bucket::Bucket;
use ceh_types::{hash_key, BucketLink, DeleteOutcome, InsertOutcome, PageId, Record};

use crate::msg::{Msg, OpEnvelope, OpKind, UserOutcome};
use crate::replica::DirUpdate;
use crate::site::Site;

/// The front-end loop: receive, dispatch. `Splitbucket` is handled
/// inline (Figure 14's front end does exactly that); everything else gets
/// a slave process (`p = createprocess (bucketslave); forward (msg, p)`).
pub(crate) fn run_front_end(site: Arc<Site>, rx: PortRx<Msg>) {
    while let Ok(msg) = rx.recv() {
        match msg {
            Msg::Shutdown => break,
            Msg::Splitbucket {
                reply_port,
                half2,
                fences,
            } => {
                // "newpage = allocbucket(); putbucket (newpage, msg.half2);
                //  SendSplitReply (msg.replyport, newpage, myid);"
                // The records now live here; so must their fence entries.
                site.fence_merge(&fences);
                if let Ok(page) = site.buckets.place(&half2) {
                    site.net.send(
                        reply_port,
                        Msg::Splitreply {
                            link: BucketLink::new(site.id, page),
                        },
                    );
                }
                // On failure (out of pages or powered off) no reply is
                // sent — the splitting site times out and fails the
                // placement.
            }
            other => {
                let site = Arc::clone(&site);
                std::thread::spawn(move || run_slave(site, other));
            }
        }
    }
}

/// One slave process: handles a single forwarded message to completion.
fn run_slave(site: Arc<Site>, msg: Msg) {
    match msg {
        Msg::BucketOp(env) => slave_op(&site, env, None),
        Msg::Wrongbucket { env, buckmgr_port } => slave_op(&site, env, Some(buckmgr_port)),
        Msg::Mergedown {
            partner,
            localdepth,
            count,
            reply_port,
        } => slave_mergedown(&site, partner, localdepth, count, reply_port),
        Msg::Mergeup {
            partner,
            target,
            target_mgr,
            reply_port,
        } => slave_mergeup(&site, partner, target, target_mgr, reply_port),
        Msg::GarbageCollect {
            pages,
            gc_id,
            ack_port,
            ctx,
        } => slave_garbage_collect(&site, pages, gc_id, ack_port, ctx),
        other => {
            debug_assert!(
                false,
                "slave got unexpected {}",
                ceh_net::MsgClass::class(&other)
            );
        }
    }
}

/// The `/* wrong bucket */` loop of Figure 14 with cross-site
/// forwarding. Locks `env.page` in `mode`, acknowledges per the figure
/// (ack to the forwarding manager, or Bucketdone-for-find to the
/// directory manager), then walks `next` links
/// ([`ceh_storage::Buckets::walk`]), forwarding to the owning manager
/// when a link leaves this site. Hand-over-hand is preserved across the
/// site boundary: the forwarder keeps its lock until the receiver has
/// locked the next bucket and acked. `Some` when the owning bucket is
/// locked here; `None` when the request moved to another site, or was
/// stale (a page fault, a chain that ran out) and the directory manager
/// was asked to re-drive it. (A first-hop find has already sent
/// Bucketdone(success); the failure sent after it still re-drives.)
fn walk_to_owner(
    site: &Site,
    owner: ceh_locks::OwnerId,
    env: &OpEnvelope,
    mode: LockMode,
    wrongbucket_ack_to: Option<PortId>,
) -> Option<(PageId, Owning)> {
    // A page past this site's store (stray routing) has no lock to take;
    // it is acknowledged like any other and then read as stale.
    let here = site.buckets.check_link(env.page).is_ok();
    if here {
        site.lock(owner, env.page, mode);
    }
    // Acknowledge per Figure 14, *after* taking the first lock.
    if let Some(fwd) = wrongbucket_ack_to {
        site.net.send(fwd, Msg::WrongbucketAck);
    } else if env.op == OpKind::Find {
        // The find slave releases the directory manager's attention
        // immediately; the user gets found/notfound from us directly.
        site.net.send(
            env.dirmgr_port,
            Msg::Bucketdone {
                txn: env.txn,
                success: true,
                outcome: None,
            },
        );
    }
    let (pk, key) = (env.pseudokey, env.key);
    let walked = here.then(|| {
        site.buckets
            .walk(&site.locks, owner, mode, env.page, site.id, pk, key, || {
                site.recoveries.inc()
            })
    });
    let stale = || {
        bucketdone(site, env, false, None);
        None
    };
    let (page, next) = match walked {
        Some(Ok(Walked::Owner(page, at))) => return Some((page, at)),
        Some(Ok(Walked::OffSite { page, next })) => (page, next),
        None | Some(Err(_)) => return stale(),
    };
    // Off-site: forward, await the ack, then release our lock.
    let Some(port) = site.bucket_port(next.manager) else {
        site.unlock(owner, page, mode);
        return stale();
    };
    let (_reply_id, reply_rx) = site.net.create_port();
    site.metrics
        .trace_instant(env.ctx, "dist", "wrongbucket.forward", next.page.0, env.txn);
    let mut fwd_env = env.clone();
    fwd_env.page = next.page;
    site.net.send(
        port,
        Msg::Wrongbucket {
            env: fwd_env,
            buckmgr_port: reply_rx.id(),
        },
    );
    match reply_rx.recv_timeout(site.reply_timeout) {
        Ok(Msg::WrongbucketAck) => {}
        _ => { /* peer gone; our lock release below is all we can do */ }
    }
    site.unlock(owner, page, mode);
    None
}

fn bucketdone(site: &Site, env: &OpEnvelope, success: bool, outcome: Option<UserOutcome>) {
    site.net.send(
        env.dirmgr_port,
        Msg::Bucketdone {
            txn: env.txn,
            success,
            outcome,
        },
    );
}

/// Unlock `page` and answer the directory manager: `Some(outcome)`
/// completes the request, `None` asks for a re-drive.
fn release_and_reply(
    site: &Site,
    owner: ceh_locks::OwnerId,
    env: &OpEnvelope,
    page: PageId,
    mode: LockMode,
    outcome: Option<UserOutcome>,
) {
    site.unlock(owner, page, mode);
    bucketdone(site, env, outcome.is_some(), outcome);
}

fn slave_op(site: &Site, mut env: OpEnvelope, wrongbucket_ack_to: Option<PortId>) {
    let started = std::time::Instant::now();
    let event = match env.op {
        OpKind::Find => "bucket.find",
        OpKind::Insert => "bucket.insert",
        OpKind::Delete => "bucket.delete",
    };
    // The slave's execution span, a child of the dispatch (or of the
    // forwarding slave for a Wrongbucket hop). Installing it as the
    // ambient context makes this site's lock waits — and any core-layer
    // spans — nest under the originating request.
    let span = site
        .metrics
        .trace_begin(env.ctx, "dist", event, env.key.0, env.txn);
    let _ambient = span.scope();
    if wrongbucket_ack_to.is_some() {
        site.metrics
            .trace_instant(span, "dist", "wrongbucket.recv", env.page.0, env.txn);
    }
    // Downstream hops (forwarded envelopes) nest under this slave.
    env.ctx = span;
    let (key, trace_id) = (env.key.0, span.trace_id);
    match env.op {
        OpKind::Find => slave_find(site, env, wrongbucket_ack_to),
        OpKind::Insert => slave_insert(site, env, wrongbucket_ack_to),
        OpKind::Delete => slave_delete(site, env, wrongbucket_ack_to),
    }
    site.metrics.trace_end(span, "dist", event, 0, 0);
    // Bucket-side latency: everything this slave did, splits/merges and
    // cross-site hops included (a forwarded op times only its own hop).
    let ns = started.elapsed().as_nanos() as u64;
    site.metrics.counter("dist.bucket_ops").inc();
    site.metrics.histogram("dist.bucket_op_ns").record(ns);
    site.metrics.slow_ops().observe(event, ns, trace_id, key);
}

/// Figure 14, `case find`.
fn slave_find(site: &Site, env: OpEnvelope, fwd: Option<PortId>) {
    let owner = site.locks.new_owner();
    let Some((page, at)) = walk_to_owner(site, owner, &env, LockMode::Rho, fwd) else {
        return;
    };
    site.unlock(owner, page, LockMode::Rho);
    // found(z) / notfound(z): answer the user directly.
    site.net.send(
        env.user_port,
        Msg::UserReply {
            outcome: UserOutcome::Found(at.found),
            req_id: env.req_id,
        },
    );
}

/// The walk of an insert or delete: `Some` when the owning bucket is
/// locked here in `mode` and the mutation fence admits the request.
fn walk_to_update(
    site: &Site,
    owner: ceh_locks::OwnerId,
    env: &OpEnvelope,
    mode: LockMode,
    fwd: Option<PortId>,
) -> Option<(PageId, Owning)> {
    let (page, at) = walk_to_owner(site, owner, env, mode, fwd)?;
    if !site.fence_allows(env.user_port, env.req_id) {
        // Zombie: an abandoned re-drive of a request the client has moved
        // past. Refuse it — applying it could resurrect deleted data. The
        // `Failed` outcome retires the transaction without being cached.
        release_and_reply(site, owner, env, page, mode, Some(UserOutcome::Failed));
        return None;
    }
    site.fence_record(env.user_port, env.req_id);
    Some((page, at))
}

/// Figure 14, `case insert`.
fn slave_insert(site: &Site, env: OpEnvelope, fwd: Option<PortId>) {
    let owner = site.locks.new_owner();
    let Some((oldpage, at)) = walk_to_update(site, owner, &env, LockMode::Alpha, fwd) else {
        return;
    };
    if at.found.is_some() {
        let outcome = UserOutcome::Inserted(InsertOutcome::AlreadyPresent);
        release_and_reply(site, owner, &env, oldpage, LockMode::Alpha, Some(outcome));
        return;
    }
    if at.count < site.cfg.bucket_capacity {
        let record = Record {
            key: env.key,
            value: env.value,
        };
        let added = site.buckets.edit(oldpage, Edit::Add(record)).is_ok();
        let outcome = added.then_some(UserOutcome::Inserted(InsertOutcome::Inserted));
        release_and_reply(site, owner, &env, oldpage, LockMode::Alpha, outcome);
        return;
    }

    /* CURRENT IS FULL - DIRECTORY WILL BE AFFECTED */
    let record = Record {
        key: env.key,
        value: env.value,
    };
    let split = site
        .buckets
        .split(oldpage, site.id, record, &site.cfg, hash_key, |half2| {
            place_half(site, half2)
        });
    let Ok(split) = split else {
        // Could not split, or place the new half anywhere: the bucket is
        // untouched; fail the request upward.
        release_and_reply(site, owner, &env, oldpage, LockMode::Alpha, None);
        return;
    };
    site.unlock(owner, oldpage, LockMode::Alpha);
    site.net.send(
        env.dirmgr_port,
        Msg::Update {
            txn: env.txn,
            success: split.done,
            outcome: split
                .done
                .then_some(UserOutcome::Inserted(InsertOutcome::Inserted)),
            update: DirUpdate::Split {
                pseudokey: env.pseudokey,
                old_localdepth: split.localdepth,
                expected_version: split.version,
                new_version: split.version + 1,
                new_bucket: split.half2,
            },
            ctx: env.ctx,
        },
    );
}

/// Place the "1" half of a split: on this site while it has room (or is
/// the only one), else on another manager through the Splitbucket
/// protocol, which commits the half on that site.
fn place_half(site: &Site, half2: Bucket) -> ceh_types::Result<BucketLink> {
    if site.available_pages() || site.all_managers.len() == 1 {
        return site
            .buckets
            .place(&half2)
            .map(|p| BucketLink::new(site.id, p));
    }
    let target = site.mgr_with_space();
    let gone = || ceh_types::Error::Unavailable(format!("no Splitreply from {target}"));
    let port = site.bucket_port(target).ok_or_else(gone)?;
    let (_id, reply_rx) = site.net.create_port();
    site.net.send(
        port,
        Msg::Splitbucket {
            reply_port: reply_rx.id(),
            half2: Box::new(half2),
            fences: site.fence_snapshot(),
        },
    );
    match reply_rx.recv_timeout(site.reply_timeout) {
        Ok(Msg::Splitreply { link }) => Ok(link),
        _ => Err(gone()),
    }
}

/// Figure 14, `case delete`, including the local fast paths and the
/// cross-site mergedown/mergeup protocols.
fn slave_delete(site: &Site, env: OpEnvelope, fwd: Option<PortId>) {
    let owner = site.locks.new_owner();
    let Some((oldpage, at)) = walk_to_update(site, owner, &env, LockMode::Xi, fwd) else {
        return;
    };
    // The same bounded degradation as centralized Solution 2: after a few
    // re-drives, stop attempting merges.
    let allow_merge = env.attempt < MERGE_ATTEMPTS;
    if at.found.is_none() || !(allow_merge && too_empty(&site.cfg, at.count, at.localdepth)) {
        remove_without_merge(site, owner, &env, oldpage, at.found.is_some());
        return;
    }
    let remote =
        |link: BucketLink| !link.is_null() && !link.manager.is_none() && link.manager != site.id;
    let m = partner_bit(at.localdepth);
    let first_of_pair = env.pseudokey.0 & m != m;
    let partner = if first_of_pair {
        /* MSG.KEY IN FIRST OF PAIR: THE "1" PARTNER IS NEXT */
        if remote(at.next) {
            delete_mergedown(site, owner, &env, oldpage, at.next);
            return;
        }
        at.next
    } else {
        /* MSG.KEY IN SECOND OF PAIR: THE "0" PARTNER IS PREV */
        let Ok(current) = site.buckets.getbucket(oldpage) else {
            release_and_reply(site, owner, &env, oldpage, LockMode::Xi, None);
            return;
        };
        let prev = BucketLink::new(current.prev_mgr, current.prev);
        if remote(prev) {
            // Lock ordering: the "0" partner precedes us in the chain, so
            // release the target before requesting the pair in order
            // (Figure 9 / §2.2).
            site.unlock(owner, oldpage, LockMode::Xi);
            delete_mergeup(site, owner, &env, oldpage, prev);
            return;
        }
        prev
    };
    // Both partners here: Figure 9's pairing step.
    let paired = site.buckets.pair(
        &site.locks,
        owner,
        oldpage,
        partner.page,
        first_of_pair,
        site.id,
        env.pseudokey,
        env.key,
        &site.cfg,
    );
    let (zero, one) = match paired {
        Ok(Paired::Merge { zero, one }) => (zero, one),
        Ok(Paired::Alone { present }) => {
            remove_without_merge(site, owner, &env, oldpage, present);
            return;
        }
        /* A: not mergeable partners — re-drive with fresh state */
        Ok(Paired::Stale) | Err(_) => {
            bucketdone(site, &env, false, None);
            return;
        }
    };
    let retire = Retire::Tombstone(site.id);
    let merged = site
        .buckets
        .merge((zero.0, &zero.1), (one.0, &one.1), retire);
    site.unlock(owner, one.0, LockMode::Xi);
    site.unlock(owner, zero.0, LockMode::Xi);
    let Ok(survivor) = merged else {
        bucketdone(site, &env, false, None);
        return;
    };
    let versions = (zero.1.version, one.1.version, survivor.version);
    let here = |page| BucketLink::new(site.id, page);
    send_merge_update(
        site,
        &env,
        zero.1.localdepth,
        versions,
        here(zero.0),
        here(one.0),
    );
}

/// The delete that does not merge: `remove(z, current)` in place when
/// `present` (one [`ceh_storage::Buckets::edit`]), then release
/// `page` (held ξ) and answer.
fn remove_without_merge(
    site: &Site,
    owner: ceh_locks::OwnerId,
    env: &OpEnvelope,
    page: PageId,
    present: bool,
) {
    let outcome = if present {
        let removed = site.buckets.edit(page, Edit::Remove(env.key));
        removed.ok().map(|_| DeleteOutcome::Deleted)
    } else {
        Some(DeleteOutcome::NotFound)
    };
    let outcome = outcome.map(UserOutcome::Deleted);
    release_and_reply(site, owner, env, page, LockMode::Xi, outcome);
}

/// The key's bucket, on `oldpage`, is the "0" partner, and the "1"
/// partner, `partner`, is on another site: merge it *down* into us
/// through Mergedown.
fn delete_mergedown(
    site: &Site,
    owner: ceh_locks::OwnerId,
    env: &OpEnvelope,
    oldpage: PageId,
    partner: BucketLink,
) {
    let Ok(mut current) = site.buckets.getbucket(oldpage) else {
        release_and_reply(site, owner, env, oldpage, LockMode::Xi, None);
        return;
    };
    let Some(port) = site.bucket_port(partner.manager) else {
        remove_without_merge(site, owner, env, oldpage, true);
        return;
    };
    let ld = current.localdepth;
    let (_id, reply_rx) = site.net.create_port();
    site.net.send(
        port,
        Msg::Mergedown {
            partner: partner.page,
            localdepth: ld,
            count: current.count() - 1,
            reply_port: reply_rx.id(),
        },
    );
    let reply = reply_rx.recv_timeout(site.reply_timeout);
    let Ok(Msg::MDReply {
        buffer: Some(brother),
        success: true,
        fences,
    }) = reply
    else {
        // Not mergeable (or peer gone): plain removal.
        remove_without_merge(site, owner, env, oldpage, true);
        return;
    };
    // The remote side has already tombstoned the partner; finish the
    // merge here. Its records (and their fences) now live here.
    site.fence_merge(&fences);
    current.remove(env.key);
    let survivor = Bucket::merged(&current, &brother);
    let ok = site.buckets.putbucket(oldpage, &survivor).is_ok();
    site.unlock(owner, oldpage, LockMode::Xi);
    if !ok {
        bucketdone(site, env, false, None);
        return;
    }
    let versions = (current.version, brother.version, survivor.version);
    let here = BucketLink::new(site.id, oldpage);
    send_merge_update(site, env, ld, versions, here, partner);
}

/// Tell a waiting Mergeup handler not to merge.
fn refuse_goahead(site: &Site, goahead_port: PortId) {
    site.net.send(
        goahead_port,
        Msg::Goahead {
            success: false,
            next: BucketLink::NULL,
            version: 0,
            moved: vec![],
            fences: vec![],
        },
    );
}

/// The key's bucket, on `oldpage` (released), is the "1" partner, and
/// the "0" partner, `partner`, is on another site: merge *up* into it
/// through Mergeup and Goahead.
fn delete_mergeup(
    site: &Site,
    owner: ceh_locks::OwnerId,
    env: &OpEnvelope,
    oldpage: PageId,
    partner: BucketLink,
) {
    let Some(port) = site.bucket_port(partner.manager) else {
        bucketdone(site, env, false, None);
        return;
    };
    let (_id, reply_rx) = site.net.create_port();
    site.net.send(
        port,
        Msg::Mergeup {
            partner: partner.page,
            target: oldpage,
            target_mgr: site.id,
            reply_port: reply_rx.id(),
        },
    );
    let (brother_ld, brother_version, brother_count, goahead_port) =
        match reply_rx.recv_timeout(site.reply_timeout) {
            Ok(Msg::MUReply {
                localdepth,
                version,
                goahead_port,
                success: true,
                count,
            }) => (localdepth, version, count, goahead_port),
            _ => {
                // "A": not mergeable partners — re-drive with fresh state.
                bucketdone(site, env, false, None);
                return;
            }
        };

    // Re-lock the target and re-validate everything (Figure 14 mirrors
    // Figure 9's checks).
    let mut current = match site.lock_getbucket(owner, oldpage, LockMode::Xi) {
        Ok(b) => b,
        Err(_) => {
            refuse_goahead(site, goahead_port);
            bucketdone(site, env, false, None);
            return;
        }
    };
    if !current.owns(env.pseudokey) {
        /* z no longer belongs in oldpage */
        site.unlock(owner, oldpage, LockMode::Xi);
        refuse_goahead(site, goahead_port);
        bucketdone(site, env, false, None);
        return;
    }
    let present = current.search(env.key).is_some();
    let (ld, count) = (current.localdepth, current.count());
    let fits = mergeable(&site.cfg, ld, count, brother_ld, brother_count);
    if !(present && too_empty(&site.cfg, count, ld) && fits) {
        refuse_goahead(site, goahead_port);
        remove_without_merge(site, owner, env, oldpage, present);
        return;
    }

    /* MERGE */
    let expected_v1 = current.version;
    let new_version = Bucket::merged_version(brother_version, expected_v1);
    current.remove(env.key);
    let tombstone = Bucket::tombstone(partner, new_version);
    let ok = site.buckets.putbucket(oldpage, &tombstone).is_ok();
    site.net.send(
        goahead_port,
        Msg::Goahead {
            success: ok,
            next: BucketLink::new(current.next_mgr, current.next),
            version: new_version,
            moved: current.records,
            fences: site.fence_snapshot(),
        },
    );
    site.unlock(owner, oldpage, LockMode::Xi);
    if !ok {
        bucketdone(site, env, false, None);
        return;
    }
    let versions = (brother_version, expected_v1, new_version);
    let here = BucketLink::new(site.id, oldpage);
    send_merge_update(site, env, ld, versions, partner, here);
}

/// Report a committed merge of the partners of depth `old_localdepth`
/// to the directory manager. `versions`: the "0" and "1" partners'
/// before, and the survivor's.
fn send_merge_update(
    site: &Site,
    env: &OpEnvelope,
    old_localdepth: u32,
    (expected_v0, expected_v1, new_version): (u64, u64, u64),
    merged: BucketLink,
    garbage: BucketLink,
) {
    site.net.send(
        env.dirmgr_port,
        Msg::Update {
            txn: env.txn,
            success: true,
            outcome: Some(UserOutcome::Deleted(DeleteOutcome::Deleted)),
            update: DirUpdate::Merge {
                pseudokey: env.pseudokey,
                old_localdepth,
                expected_v0,
                expected_v1,
                new_version,
                merged,
                garbage,
            },
            ctx: env.ctx,
        },
    );
}

/// Figure 14, `case mergedown`: the "1" partner lives here; tombstone it
/// and hand its contents to the requesting "0" side, whose `count`
/// records they must fit beside.
fn slave_mergedown(
    site: &Site,
    partner: PageId,
    localdepth: u32,
    count: usize,
    reply_port: PortId,
) {
    let owner = site.locks.new_owner();
    let refuse = || {
        site.net.send(
            reply_port,
            Msg::MDReply {
                buffer: None,
                success: false,
                fences: vec![],
            },
        );
    };
    let Ok(brother) = site.lock_getbucket(owner, partner, LockMode::Xi) else {
        refuse();
        return;
    };
    // The "0" side holds `count` records once the key is gone.
    let fits = mergeable(
        &site.cfg,
        localdepth,
        count + 1,
        brother.localdepth,
        brother.count(),
    );
    if brother.is_deleted() || !fits {
        site.unlock(owner, partner, LockMode::Xi);
        refuse();
        return;
    }
    // "brother -> commonbits = deleted; brother -> next = brother -> prev;"
    let prev = BucketLink::new(brother.prev_mgr, brother.prev);
    let tombstone = Bucket::tombstone(prev, brother.version);
    let ok = site.buckets.putbucket(partner, &tombstone).is_ok();
    site.unlock(owner, partner, LockMode::Xi);
    site.net.send(
        reply_port,
        Msg::MDReply {
            buffer: ok.then(|| Box::new(brother)),
            success: ok,
            fences: site.fence_snapshot(),
        },
    );
}

/// Figure 14, `case mergeup`: the "0" partner lives here; hold it
/// ξ-locked while the deleter validates, then commit on Goahead.
fn slave_mergeup(
    site: &Site,
    partner: PageId,
    target: PageId,
    target_mgr: ceh_types::ManagerId,
    reply_port: PortId,
) {
    let owner = site.locks.new_owner();
    let refuse = || {
        site.net.send(
            reply_port,
            Msg::MUReply {
                localdepth: 0,
                version: 0,
                goahead_port: reply_port,
                success: false,
                count: 0,
            },
        );
    };
    let Ok(brother) = site.lock_getbucket(owner, partner, LockMode::Xi) else {
        refuse();
        return;
    };
    if brother.is_deleted() || brother.next != target || brother.next_mgr != target_mgr {
        site.unlock(owner, partner, LockMode::Xi);
        refuse();
        return;
    }
    let (_id, goahead_rx) = site.net.create_port();
    site.net.send(
        reply_port,
        Msg::MUReply {
            localdepth: brother.localdepth,
            version: brother.version,
            goahead_port: goahead_rx.id(),
            success: true,
            count: brother.count(),
        },
    );
    match goahead_rx.recv_timeout(site.reply_timeout) {
        Ok(Msg::Goahead {
            success: true,
            next,
            version,
            moved,
            fences,
        }) => {
            site.fence_merge(&fences);
            // The "1" partner as the deleter left it, and the survivor at
            // the version the deleter chose from both partners'.
            let one = Bucket {
                next: next.page,
                next_mgr: next.manager,
                records: moved,
                ..Bucket::new(
                    brother.localdepth,
                    partner_commonbits(brother.commonbits, brother.localdepth),
                )
            };
            let survivor = Bucket {
                version,
                ..Bucket::merged(&brother, &one)
            };
            let _ = site.buckets.putbucket(partner, &survivor);
        }
        Ok(Msg::Goahead { success: false, .. }) => {}
        Ok(_) | Err(RecvError::Empty) | Err(RecvError::Disconnected) => {}
    }
    site.unlock(owner, partner, LockMode::Xi);
}

/// Figure 14, `case garbagecollect` — made idempotent for the lossy
/// network: the directory manager re-sends until acked, so a request
/// whose *ack* was lost arrives again and must only re-ack.
fn slave_garbage_collect(
    site: &Site,
    pages: Vec<PageId>,
    gc_id: u64,
    ack_port: PortId,
    ctx: ceh_obs::TraceCtx,
) {
    // Ambient context so the ξ-lock events below attribute to the merge
    // that produced this garbage.
    let _ambient = ctx.scope();
    if site.seen_gc.lock().expect("seen_gc").insert(gc_id) {
        site.metrics
            .trace_instant(ctx, "dist", "gc.collect", pages.len() as u64, gc_id);
        let owner = site.locks.new_owner();
        for page in pages {
            site.lock(owner, page, LockMode::Xi);
            match site.buckets.dealloc(page) {
                Ok(()) => {}
                Err(ceh_types::Error::PowerLoss) => {
                    // The site lost power mid-collection: stop without
                    // acking so the directory manager re-sends after the
                    // restart (`seen_gc` is volatile, so the re-send is
                    // executed afresh against the recovered image).
                    site.unlock(owner, page, LockMode::Xi);
                    return;
                }
                Err(e) => {
                    panic!(
                        "garbage collection of an already-freed page is a protocol violation: {e}"
                    )
                }
            }
            site.unlock(owner, page, LockMode::Xi);
        }
    }
    site.net.send(ack_port, Msg::GcAck { gc_id });
}

#[cfg(test)]
mod tests {
    //! Unit tests for the protocol handlers, driven directly against a
    //! standalone site (no cluster, no manager threads): each handler is
    //! a function of (site state, message), so it can be exercised and
    //! asserted on in isolation.

    use super::*;
    use crate::site::tests::{test_site, test_site_on};
    use ceh_types::{HashFileConfig, Key, ManagerId, Pseudokey, Record, Value};
    use std::time::Duration;

    fn put_bucket(site: &Site, b: &Bucket) -> PageId {
        let page = site.buckets.alloc().unwrap();
        site.buckets.putbucket(page, b).unwrap();
        page
    }

    /// `records` in key order: a page keeps the record set, in slot
    /// order.
    fn by_key(mut records: Vec<Record>) -> Vec<Record> {
        records.sort_by_key(|r| r.key);
        records
    }

    fn get_bucket(site: &Site, page: PageId) -> Bucket {
        site.buckets.getbucket(page).unwrap()
    }

    fn envelope(op: OpKind, key: u64, page: PageId, pk: u64, dirmgr_port: PortId) -> OpEnvelope {
        OpEnvelope {
            op,
            key: Key(key),
            value: Value(key * 10),
            txn: 1,
            page,
            user_port: PortId::for_node(1, 1),
            dirmgr_port,
            pseudokey: Pseudokey(pk),
            attempt: 0,
            req_id: 1,
            ctx: ceh_obs::TraceCtx::NONE,
        }
    }

    /// Four depth-2 buckets on pages 0–3 of `site`, as a split file
    /// leaves them: `00`, `10` (split off from `00`), `01` (split off
    /// from `0`, now `00`) holding key 5, and `11` (split off from `01`)
    /// holding key 7, chained in that order. `one_at` places `11`
    /// elsewhere, as `01`'s `next`.
    fn depth2_file(site: &Site, one_at: Option<BucketLink>) -> [PageId; 4] {
        let link = |page| (PageId(page), site.id);
        let mut b00 = Bucket::new(2, 0b00);
        (b00.next, b00.next_mgr) = link(1);
        let mut b10 = Bucket::new(2, 0b10);
        ((b10.prev, b10.prev_mgr), (b10.next, b10.next_mgr)) = (link(0), link(2));
        let mut b01 = Bucket::new(2, 0b01);
        b01.add(Record::new(5, 50));
        ((b01.prev, b01.prev_mgr), (b01.next, b01.next_mgr)) = (link(0), link(3));
        if let Some(one) = one_at {
            (b01.next, b01.next_mgr) = (one.page, one.manager);
        }
        let [p00, p10, p01] = [b00, b10, b01].map(|b| put_bucket(site, &b));
        let p11 = match one_at {
            Some(one) => one.page,
            None => put_bucket(site, &eleven(site.id, p01)),
        };
        [p00, p10, p01, p11]
    }

    /// The `11` bucket of [`depth2_file`], which split off from `01` at
    /// (`mgr`, `p01`).
    fn eleven(mgr: ManagerId, p01: PageId) -> Bucket {
        let mut b11 = Bucket::new(2, 0b11);
        b11.add(Record::new(7, 70));
        (b11.prev, b11.prev_mgr) = (p01, mgr);
        b11
    }

    /// The merge the directory manager is told of, and nothing after it.
    fn merge_update(rx: &PortRx<Msg>) -> (BucketLink, BucketLink) {
        let got = match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Msg::Update {
                update: DirUpdate::Merge {
                    merged, garbage, ..
                },
                ..
            } => (merged, garbage),
            other => panic!("unexpected {other:?}"),
        };
        assert!(rx.recv_timeout(Duration::from_millis(50)).is_err());
        got
    }

    #[test]
    fn local_first_of_pair_merge_keeps_the_zero_partners_prev() {
        let site = test_site(0, 1, None);
        let [p00, _, p01, p11] = depth2_file(&site, None);
        let (_id, dir_rx) = site.net.create_port();
        slave_delete(
            &site,
            envelope(OpKind::Delete, 5, p01, 0b01, dir_rx.id()),
            None,
        );
        let here = |p| BucketLink::new(site.id, p);
        assert_eq!(merge_update(&dir_rx), (here(p01), here(p11)));
        let survivor = get_bucket(&site, p01);
        assert_eq!((survivor.localdepth, survivor.commonbits), (1, 0b1));
        assert_eq!(
            (survivor.prev, survivor.prev_mgr),
            (p00, site.id),
            "not itself"
        );
        assert_eq!(survivor.next, PageId::NULL, "the '1' partner's next");
        assert_eq!(survivor.records, vec![Record::new(7, 70)]);
        let tomb = get_bucket(&site, p11);
        assert!(tomb.is_deleted());
        assert_eq!((tomb.next, tomb.next_mgr), (p01, site.id));
        assert_eq!(site.locks.total_granted(), 0);
    }

    #[test]
    fn local_second_of_pair_merge_keeps_the_zero_partners_prev() {
        let site = test_site(0, 1, None);
        let [p00, _, p01, p11] = depth2_file(&site, None);
        let (_id, dir_rx) = site.net.create_port();
        slave_delete(
            &site,
            envelope(OpKind::Delete, 7, p11, 0b11, dir_rx.id()),
            None,
        );
        let here = |p| BucketLink::new(site.id, p);
        assert_eq!(merge_update(&dir_rx), (here(p01), here(p11)));
        let survivor = get_bucket(&site, p01);
        assert_eq!((survivor.localdepth, survivor.commonbits), (1, 0b1));
        assert_eq!(
            (survivor.prev, survivor.prev_mgr),
            (p00, site.id),
            "the '0' partner's prev"
        );
        assert_eq!(survivor.next, PageId::NULL, "the '1' partner's next");
        assert_eq!(survivor.records, vec![Record::new(5, 50)]);
        let tomb = get_bucket(&site, p11);
        assert!(tomb.is_deleted());
        assert_eq!((tomb.next, tomb.next_mgr), (p01, site.id));
        assert_eq!(site.locks.total_granted(), 0);
    }

    /// The page's bytes as the store holds them.
    fn page_bytes(site: &Site, page: PageId) -> Vec<u8> {
        let mut buf = site.buckets.store().new_buf();
        site.buckets.store().read(page, &mut buf).unwrap();
        buf.to_vec()
    }

    /// Label A at a slave: the "0" partner that `prev` names is a
    /// tombstone, or links to a page other than the deleter's. The
    /// delete asks for a re-drive and changes neither page.
    #[test]
    fn local_second_of_pair_with_a_stale_zero_partner_is_redriven() {
        for stale in ["tombstone", "next elsewhere"] {
            let site = test_site(0, 1, None);
            let [_, p10, p01, p11] = depth2_file(&site, None);
            let zero = match stale {
                "tombstone" => Bucket::tombstone(BucketLink::new(site.id, p10), 3),
                _ => {
                    let mut zero = get_bucket(&site, p01);
                    zero.next = p10;
                    zero
                }
            };
            let mut buf = site.buckets.store().new_buf();
            zero.encode(&mut buf).unwrap();
            site.buckets.store().write(p01, &buf).unwrap();
            let before = [p01, p11].map(|p| page_bytes(&site, p));
            let (_id, dir_rx) = site.net.create_port();
            slave_delete(
                &site,
                envelope(OpKind::Delete, 7, p11, 0b11, dir_rx.id()),
                None,
            );
            match dir_rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                Msg::Bucketdone {
                    success: false,
                    outcome: None,
                    ..
                } => {}
                other => panic!("{stale}: unexpected {other:?}"),
            }
            assert!(dir_rx.recv_timeout(Duration::from_millis(50)).is_err());
            assert_eq!([p01, p11].map(|p| page_bytes(&site, p)), before, "{stale}");
            assert_eq!(site.locks.total_granted(), 0, "{stale}");
        }
    }

    #[test]
    fn mdreply_merge_keeps_the_zero_partners_prev() {
        let site = test_site(0, 2, None);
        let remote = BucketLink::new(ManagerId(1), PageId(3));
        let [p00, _, p01, _] = depth2_file(&site, Some(remote));
        // Manager 1's front end, played here: it tombstones nothing, and
        // hands back its "1" partner.
        let (port, rx) = site.net.create_port();
        site.net
            .register_name(&crate::site::bucket_mgr_name(ManagerId(1)), port);
        let one = eleven(site.id, p01);
        let peer =
            std::thread::spawn(
                move || match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                    Msg::Mergedown {
                        partner,
                        localdepth: 2,
                        count: 0,
                        reply_port,
                    } => {
                        assert_eq!(partner, remote.page);
                        (reply_port, one)
                    }
                    other => panic!("unexpected {other:?}"),
                },
            );
        let (_id, dir_rx) = site.net.create_port();
        let deleter = {
            let site = std::sync::Arc::clone(&site);
            let env = envelope(OpKind::Delete, 5, p01, 0b01, dir_rx.id());
            std::thread::spawn(move || slave_delete(&site, env, None))
        };
        let (reply_port, one) = peer.join().unwrap();
        site.net.send(
            reply_port,
            Msg::MDReply {
                buffer: Some(Box::new(one)),
                success: true,
                fences: vec![],
            },
        );
        deleter.join().unwrap();
        assert_eq!(
            merge_update(&dir_rx),
            (BucketLink::new(site.id, p01), remote)
        );
        let survivor = get_bucket(&site, p01);
        assert_eq!((survivor.localdepth, survivor.commonbits), (1, 0b1));
        assert_eq!(
            (survivor.prev, survivor.prev_mgr),
            (p00, site.id),
            "not itself"
        );
        assert_eq!(survivor.next, PageId::NULL, "the '1' partner's next");
        assert_eq!(survivor.records, vec![Record::new(7, 70)]);
        assert_eq!(site.locks.total_granted(), 0);
    }

    /// Capacity 4, merge threshold 1, the "0" partner {5, 9} here and a
    /// "1" partner of four records on another site: deleting 5 leaves
    /// one record, too few to keep apart, but 1 + 4 do not fit one
    /// bucket. The "1" side refuses the Mergedown, the delete is a plain
    /// removal, and every other record is still where a find looks.
    #[test]
    fn mergedown_refuses_a_merge_that_does_not_fit() {
        let cfg = HashFileConfig::tiny()
            .with_bucket_capacity(4)
            .with_merge_threshold(1);
        let net: crate::DistNet = Arc::new(ceh_net::SimNetwork::default());
        let site = test_site_on(0, 2, None, cfg.clone(), Arc::clone(&net));
        let remote = test_site_on(1, 2, None, cfg, net);
        let p11 = PageId(0);
        let [_, _, p01, _] = depth2_file(&site, Some(BucketLink::new(remote.id, p11)));
        let mut zero = get_bucket(&site, p01);
        zero.add(Record::new(9, 90));
        site.buckets.putbucket(p01, &zero).unwrap();
        let mut one = eleven(site.id, p01);
        for k in [11, 15, 19] {
            one.add(Record::new(k, k * 10));
        }
        assert_eq!(put_bucket(&remote, &one), p11);
        let (port, rx) = remote.net.create_port();
        remote
            .net
            .register_name(&crate::site::bucket_mgr_name(remote.id), port);
        let front = {
            let remote = Arc::clone(&remote);
            std::thread::spawn(move || run_front_end(remote, rx))
        };

        let (_id, dir_rx) = site.net.create_port();
        slave_delete(
            &site,
            envelope(OpKind::Delete, 5, p01, 0b01, dir_rx.id()),
            None,
        );
        let reply = dir_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        remote.net.send(port, Msg::Shutdown);
        front.join().unwrap();
        assert!(
            matches!(
                reply,
                Msg::Bucketdone {
                    success: true,
                    outcome: Some(UserOutcome::Deleted(DeleteOutcome::Deleted)),
                    ..
                }
            ),
            "a plain removal, not {reply:?}"
        );
        assert_eq!(get_bucket(&site, p01).records, vec![Record::new(9, 90)]);
        let kept = get_bucket(&remote, p11);
        assert!(!kept.is_deleted(), "the '1' partner was not tombstoned");
        assert_eq!(by_key(kept.records), by_key(one.records));
        assert_eq!(site.locks.total_granted() + remote.locks.total_granted(), 0);
    }

    #[test]
    fn in_bucket_updates_edit_the_page_in_place() {
        let site = test_site(0, 1, None);
        // A root holding keys 1 and 2 whose free slots carry a marker. The
        // layout is a function of the record set, so the page after each
        // edit is the codec's encoding of the new set over the page before
        // it: the record slots it fills or frees change, and every other
        // free slot keeps its marker. Those bytes are what a rewrite
        // (getbucket, add or remove, putbucket) leaves too; what tells the
        // edit in place apart is the page reads: the walk's look at the
        // root is the only one, where a rewrite reads the page again to
        // decode it.
        let page = site.buckets.alloc().unwrap();
        let mut root = Bucket::new(0, 0);
        root.add(Record::new(1, 10));
        root.add(Record::new(2, 20));
        let mut buf = site.buckets.store().new_buf();
        buf.fill(0xAB);
        root.encode(&mut buf).unwrap();
        site.buckets.store().write(page, &buf).unwrap();
        let slot = |i: usize| ceh_types::BUCKET_HEADER_BYTES + i * ceh_types::RECORD_BYTES;
        let marked = |buf: &[u8]| {
            (0..Bucket::capacity_for(buf.len()))
                .filter(|&i| buf[slot(i)..slot(i + 1)].iter().all(|&b| b == 0xAB))
                .count()
        };
        let slots = marked(&buf) + 2;
        let (_id, dir_rx) = site.net.create_port();
        let (_id, user_rx) = site.net.create_port();
        let only_bucketdone = |want: UserOutcome| {
            match dir_rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                Msg::Bucketdone {
                    success: true,
                    outcome: Some(got),
                    ..
                } => assert_eq!(got, want),
                other => panic!("unexpected {other:?}"),
            }
            assert!(dir_rx.recv_timeout(Duration::from_millis(50)).is_err());
            assert!(user_rx.try_recv().is_err());
            assert_eq!(site.locks.total_granted(), 0);
        };
        // Page reads and writes of `op`: one of each for an edit in place.
        let io = |op: &dyn Fn()| {
            let before = site.buckets.store().stats();
            op();
            let after = site.buckets.store().stats();
            (after.reads - before.reads, after.writes - before.writes)
        };
        let mut env = envelope(OpKind::Insert, 3, page, 3, dir_rx.id());
        env.user_port = user_rx.id();

        let (reads, writes) = io(&|| slave_insert(&site, env.clone(), None));
        assert_eq!((reads, writes), (1, 1), "the walk's read, then the edit");
        only_bucketdone(UserOutcome::Inserted(InsertOutcome::Inserted));
        let mut want = buf.clone();
        root.add(Record::new(3, 30));
        root.encode(&mut want).unwrap();
        site.buckets.store().read(page, &mut buf).unwrap();
        assert_eq!(&buf[..], &want[..]);
        assert_eq!(marked(&buf), slots - 3, "only key 3's slot filled");

        // Not too empty at depth 0: a plain removal. The slot it frees
        // keeps the bytes it held, as encoding over the page does.
        (env.op, env.key, env.req_id) = (OpKind::Delete, Key(1), 2);
        let (reads, writes) = io(&|| slave_delete(&site, env.clone(), None));
        assert_eq!((reads, writes), (1, 1), "the walk's read, then the edit");
        only_bucketdone(UserOutcome::Deleted(DeleteOutcome::Deleted));
        assert!(root.remove(Key(1)));
        root.encode(&mut want).unwrap();
        site.buckets.store().read(page, &mut buf).unwrap();
        assert_eq!(&buf[..], &want[..]);
        assert_eq!(marked(&buf), slots - 3, "no marker rewritten");
        let mut keys: Vec<Key> = Bucket::decode(&buf)
            .unwrap()
            .records
            .iter()
            .map(|r| r.key)
            .collect();
        keys.sort();
        assert_eq!(keys, [Key(2), Key(3)]);
    }

    #[test]
    fn a_walk_to_a_page_this_site_lacks_is_stale_routing() {
        let site = test_site(0, 1, None);
        // Does not own pseudokey 0, and links to a page that does not exist.
        let mut stray = Bucket::new(3, 0b101);
        stray.next = PageId(u64::MAX - 1);
        stray.next_mgr = site.id;
        let stray = put_bucket(&site, &stray);
        let (_id, dir_rx) = site.net.create_port();
        for page in [PageId(u64::MAX), PageId(1 << 40), stray] {
            let env = OpEnvelope {
                op: OpKind::Insert,
                key: Key(8),
                value: Value(1),
                txn: 1,
                page,
                user_port: PortId::for_node(1, 1),
                dirmgr_port: dir_rx.id(),
                pseudokey: Pseudokey(0),
                attempt: 0,
                req_id: 1,
                ctx: ceh_obs::TraceCtx::NONE,
            };
            let owner = site.locks.new_owner();
            let walk = walk_to_owner(&site, owner, &env, LockMode::Alpha, None);
            assert!(walk.is_none(), "{page}");
            assert!(
                matches!(
                    dir_rx.recv_timeout(Duration::from_secs(5)),
                    Ok(Msg::Bucketdone { success: false, .. })
                ),
                "{page}: a re-drive is asked for"
            );
            assert_eq!(site.locks.total_granted(), 0);
        }
    }

    #[test]
    fn mergedown_tombstones_matching_partner_and_replies_with_contents() {
        let site = test_site(0, 1, None);
        let mut partner = Bucket::new(3, 0b101);
        partner.add(Record::new(0b1101, 9));
        partner.prev = PageId(7);
        partner.prev_mgr = ManagerId(0);
        let page = put_bucket(&site, &partner);

        // Three records on the "0" side and this one fill a bucket exactly.
        let (_id, reply_rx) = site.net.create_port();
        slave_mergedown(&site, page, 3, 3, reply_rx.id());
        match reply_rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Msg::MDReply {
                buffer: Some(b),
                success: true,
                ..
            } => {
                assert_eq!(b.records, partner.records, "contents handed back");
            }
            other => panic!("unexpected {other:?}"),
        }
        // The partner page is now a tombstone pointing at its prev.
        let tomb = get_bucket(&site, page);
        assert!(tomb.is_deleted());
        assert_eq!(tomb.next, PageId(7), "tombstone routes to the '0' partner");
        assert_eq!(site.locks.total_granted(), 0);
    }

    #[test]
    fn mergedown_refuses_on_localdepth_mismatch() {
        let site = test_site(0, 1, None);
        let partner = Bucket::new(4, 0b1101); // deeper than the request
        let page = put_bucket(&site, &partner);

        let (_id, reply_rx) = site.net.create_port();
        slave_mergedown(&site, page, 3, 0, reply_rx.id());
        match reply_rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Msg::MDReply {
                buffer: None,
                success: false,
                ..
            } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(
            !get_bucket(&site, page).is_deleted(),
            "refusal leaves the bucket alone"
        );
    }

    #[test]
    fn mergeup_commits_on_goahead() {
        let site = test_site(0, 2, None);
        let target = PageId(42);
        let mut zero = Bucket::new(3, 0b001);
        zero.add(Record::new(0b1001, 1));
        zero.next = target;
        zero.next_mgr = ManagerId(1);
        zero.version = 5;
        let page = put_bucket(&site, &zero);

        let (_id, reply_rx) = site.net.create_port();
        // The handler blocks awaiting Goahead, so drive it from a thread.
        let handle = {
            let site2 = std::sync::Arc::clone(&site);
            let rid = reply_rx.id();
            std::thread::spawn(move || slave_mergeup(&site2, page, target, ManagerId(1), rid))
        };
        let goahead_port = match reply_rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Msg::MUReply {
                localdepth: 3,
                version: 5,
                goahead_port,
                success: true,
                count: 1,
            } => goahead_port,
            other => panic!("unexpected {other:?}"),
        };
        // While awaiting Goahead the handler must hold its ξ.
        assert!(site.locks.total_granted() > 0);
        site.net.send(
            goahead_port,
            Msg::Goahead {
                success: true,
                next: BucketLink::new(ManagerId(0), PageId(9)),
                version: 6,
                moved: vec![Record::new(0b101, 2)],
                fences: vec![],
            },
        );
        handle.join().unwrap();
        let merged = get_bucket(&site, page);
        assert_eq!(merged.localdepth, 2, "localdepth shrank");
        assert_eq!(merged.commonbits, 0b01);
        assert_eq!(merged.version, 6);
        assert_eq!(merged.next, PageId(9), "spliced past the deleted bucket");
        assert_eq!(merged.count(), 2, "moved records absorbed");
        assert_eq!(site.locks.total_granted(), 0);
    }

    #[test]
    fn mergeup_aborts_on_negative_goahead() {
        let site = test_site(0, 2, None);
        let target = PageId(42);
        let mut zero = Bucket::new(3, 0b001);
        zero.next = target;
        zero.next_mgr = ManagerId(1);
        let page = put_bucket(&site, &zero);

        let (_id, reply_rx) = site.net.create_port();
        let handle = {
            let site2 = std::sync::Arc::clone(&site);
            let rid = reply_rx.id();
            std::thread::spawn(move || slave_mergeup(&site2, page, target, ManagerId(1), rid))
        };
        let goahead_port = match reply_rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Msg::MUReply {
                goahead_port,
                success: true,
                ..
            } => goahead_port,
            other => panic!("unexpected {other:?}"),
        };
        site.net.send(
            goahead_port,
            Msg::Goahead {
                success: false,
                next: BucketLink::NULL,
                version: 0,
                moved: vec![],
                fences: vec![],
            },
        );
        handle.join().unwrap();
        assert_eq!(
            get_bucket(&site, page),
            zero,
            "abort leaves the partner untouched"
        );
        assert_eq!(site.locks.total_granted(), 0);
    }

    #[test]
    fn mergeup_refuses_when_next_does_not_match_target() {
        let site = test_site(0, 2, None);
        let mut zero = Bucket::new(3, 0b001);
        zero.next = PageId(42);
        zero.next_mgr = ManagerId(1);
        let page = put_bucket(&site, &zero);

        let (_id, reply_rx) = site.net.create_port();
        // Wrong target page: the label-A condition.
        slave_mergeup(&site, page, PageId(43), ManagerId(1), reply_rx.id());
        match reply_rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Msg::MUReply { success: false, .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(get_bucket(&site, page), zero);
        assert_eq!(site.locks.total_granted(), 0);
    }

    #[test]
    fn garbage_collect_deallocates_under_xi_and_acks() {
        let site = test_site(0, 1, None);
        let a = put_bucket(&site, &Bucket::new(0, 0));
        let b = put_bucket(&site, &Bucket::new(0, 0));
        let (_id, ack_rx) = site.net.create_port();
        slave_garbage_collect(&site, vec![a, b], 7, ack_rx.id(), ceh_obs::TraceCtx::NONE);
        assert_eq!(site.buckets.store().allocated_pages(), 0);
        assert_eq!(site.locks.total_granted(), 0);
        match ack_rx.recv_timeout(Duration::from_secs(5)).unwrap() {
            Msg::GcAck { gc_id: 7 } => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn garbage_collect_duplicate_reacks_without_double_free() {
        let site = test_site(0, 1, None);
        let a = put_bucket(&site, &Bucket::new(0, 0));
        let (_id, ack_rx) = site.net.create_port();
        slave_garbage_collect(&site, vec![a], 3, ack_rx.id(), ceh_obs::TraceCtx::NONE);
        // The page gets reallocated to a live bucket...
        let reused = site.buckets.alloc().unwrap();
        assert_eq!(reused, a, "LIFO free list hands the page back");
        // ...and a duplicate of the same collection request arrives (the
        // original ack was lost). It must re-ack and leave the page alone.
        slave_garbage_collect(&site, vec![a], 3, ack_rx.id(), ceh_obs::TraceCtx::NONE);
        assert_eq!(
            site.buckets.store().allocated_pages(),
            1,
            "reallocated page survives"
        );
        for _ in 0..2 {
            match ack_rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                Msg::GcAck { gc_id: 3 } => {}
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
