//! The bucket manager of Figure 14: a front-end process that dispatches
//! each incoming message to a slave process, plus the slave procedures
//! themselves (find/insert/delete with cross-site wrong-bucket
//! forwarding, remote split placement, and the mergedown/mergeup/goahead
//! protocols).

use std::sync::Arc;

use ceh_locks::LockMode;
use ceh_net::{PortId, PortRx, RecvError};
use ceh_types::bits::{mask, partner_bit};
use ceh_types::bucket::Bucket;
use ceh_types::{BucketLink, DeleteOutcome, InsertOutcome, PageId, Record};

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
                // One logged transaction: a crash between the alloc and
                // the write must not leave a durable empty page.
                site.fence_merge(&fences);
                let placed = (|| -> ceh_types::Result<PageId> {
                    let txn = site.begin_txn()?;
                    let page = site.alloc_page()?;
                    let mut buf = site.new_buf();
                    site.putbucket(page, &half2, &mut buf)?;
                    txn.commit()?;
                    Ok(page)
                })();
                if let Ok(page) = placed {
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
            reply_port,
        } => slave_mergedown(&site, partner, localdepth, reply_port),
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

/// Outcome of the wrong-bucket walk.
enum Walk {
    /// The right bucket is on this site, locked; here it is.
    Local(PageId, Bucket),
    /// The search moved to another site; this slave is done.
    Forwarded,
    /// Something was stale (page fault / chain ran out): ask the
    /// directory manager to re-drive the request.
    Stale,
}

/// The `/* wrong bucket */` loop of Figure 14 with cross-site
/// forwarding. Locks `env.page` in `mode`, acknowledges per the figure
/// (ack to the forwarding manager, or Bucketdone-for-find to the
/// directory manager), then walks `next` links, forwarding to the owning
/// manager when a link leaves this site. Hand-over-hand is preserved
/// across the site boundary: the forwarder keeps its lock until the
/// receiver has locked the next bucket and acked.
fn walk_to_owner(
    site: &Site,
    owner: ceh_locks::OwnerId,
    env: &OpEnvelope,
    mode: LockMode,
    wrongbucket_ack_to: Option<PortId>,
) -> Walk {
    let mut oldpage = env.page;
    let mut buf = site.new_buf();
    site.lock(owner, oldpage, mode);
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
    let mut current = match site.getbucket(oldpage, &mut buf) {
        Ok(b) => b,
        Err(_) => {
            // Stale routing into a deallocated page: re-drive.
            site.unlock(owner, oldpage, mode);
            return Walk::Stale;
        }
    };
    while !current.owns(env.pseudokey) {
        site.recoveries.inc();
        let next = current.next;
        let next_mgr = current.next_mgr;
        if next.is_null() {
            site.unlock(owner, oldpage, mode);
            return Walk::Stale;
        }
        if !next_mgr.is_none() && next_mgr != site.id {
            // Off-site: forward, await the ack, then release our lock.
            let Some(port) = site.bucket_port(next_mgr) else {
                site.unlock(owner, oldpage, mode);
                return Walk::Stale;
            };
            let (_reply_id, reply_rx) = site.net.create_port();
            site.metrics
                .trace_instant(env.ctx, "dist", "wrongbucket.forward", next.0, env.txn);
            let mut fwd_env = env.clone();
            fwd_env.page = next;
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
            site.unlock(owner, oldpage, mode);
            return Walk::Forwarded;
        }
        site.lock(owner, next, mode);
        match site.getbucket(next, &mut buf) {
            Ok(b) => current = b,
            Err(_) => {
                site.unlock(owner, next, mode);
                site.unlock(owner, oldpage, mode);
                return Walk::Stale;
            }
        }
        site.unlock(owner, oldpage, mode);
        oldpage = next;
    }
    Walk::Local(oldpage, current)
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
    match walk_to_owner(site, owner, &env, LockMode::Rho, fwd) {
        Walk::Forwarded => {}
        Walk::Stale => {
            // We already sent Bucketdone(success) for a first-hop find;
            // send a failure so the directory manager re-drives. (For a
            // forwarded find we own the request now.)
            bucketdone(site, &env, false, None);
        }
        Walk::Local(page, bucket) => {
            let found = bucket.search(env.key);
            site.unlock(owner, page, LockMode::Rho);
            // found(z) / notfound(z): answer the user directly.
            site.net.send(
                env.user_port,
                Msg::UserReply {
                    outcome: UserOutcome::Found(found),
                    req_id: env.req_id,
                },
            );
        }
    }
}

/// Figure 14, `case insert`.
fn slave_insert(site: &Site, env: OpEnvelope, fwd: Option<PortId>) {
    let owner = site.locks.new_owner();
    let (oldpage, mut current) = match walk_to_owner(site, owner, &env, LockMode::Alpha, fwd) {
        Walk::Forwarded => return,
        Walk::Stale => {
            bucketdone(site, &env, false, None);
            return;
        }
        Walk::Local(p, b) => (p, b),
    };
    if !site.fence_allows(env.user_port, env.req_id) {
        // Zombie: an abandoned re-drive of a request the client has moved
        // past. Refuse it — applying it could resurrect deleted data. The
        // `Failed` outcome retires the transaction without being cached.
        site.unlock(owner, oldpage, LockMode::Alpha);
        bucketdone(site, &env, true, Some(UserOutcome::Failed));
        return;
    }
    site.fence_record(env.user_port, env.req_id);
    let mut buf = site.new_buf();

    if current.search(env.key).is_some() {
        site.unlock(owner, oldpage, LockMode::Alpha);
        bucketdone(
            site,
            &env,
            true,
            Some(UserOutcome::Inserted(InsertOutcome::AlreadyPresent)),
        );
        return;
    }
    if current.count() < site.cfg.bucket_capacity {
        current.add(Record {
            key: env.key,
            value: env.value,
        });
        if site.putbucket(oldpage, &current, &mut buf).is_err() {
            site.unlock(owner, oldpage, LockMode::Alpha);
            bucketdone(site, &env, false, None);
            return;
        }
        site.unlock(owner, oldpage, LockMode::Alpha);
        bucketdone(
            site,
            &env,
            true,
            Some(UserOutcome::Inserted(InsertOutcome::Inserted)),
        );
        return;
    }

    /* CURRENT IS FULL - DIRECTORY WILL BE AFFECTED */
    let old_localdepth = current.localdepth;
    let expected_version = current.version;
    let (mut half1, half2, done) = current.split(
        env.key,
        env.value,
        site.cfg.bucket_capacity,
        ceh_types::hash_key,
        oldpage,
        site.id,
        PageId::NULL, // patched below once placement is known
        site.id,
    );
    // Place the second half: locally if we have space, else on another
    // manager via the Splitbucket protocol. One logged transaction per
    // split: a local placement and the rewritten first half land in the
    // durable image together or not at all (a remote half commits on
    // its own site; our transaction then covers just the first half).
    let Ok(txn) = site.begin_txn() else {
        site.unlock(owner, oldpage, LockMode::Alpha);
        bucketdone(site, &env, false, None);
        return;
    };
    let placed: Option<BucketLink> = if site.available_pages() || site.all_managers.len() == 1 {
        match site.alloc_page() {
            Ok(p) => {
                if site.putbucket(p, &half2, &mut buf).is_ok() {
                    Some(BucketLink::new(site.id, p))
                } else {
                    None
                }
            }
            Err(_) => None,
        }
    } else {
        let target = site.mgr_with_space();
        match site.bucket_port(target) {
            Some(port) => {
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
                    Ok(Msg::Splitreply { link }) => Some(link),
                    _ => None,
                }
            }
            None => None,
        }
    };
    let Some(link) = placed else {
        // Could not place the new half anywhere: leave the bucket
        // untouched and fail the request upward.
        site.unlock(owner, oldpage, LockMode::Alpha);
        bucketdone(site, &env, false, None);
        return;
    };
    half1.next = link.page;
    half1.next_mgr = link.manager;
    if site.putbucket(oldpage, &half1, &mut buf).is_err() || txn.commit().is_err() {
        site.unlock(owner, oldpage, LockMode::Alpha);
        bucketdone(site, &env, false, None);
        return;
    }
    site.unlock(owner, oldpage, LockMode::Alpha);
    site.net.send(
        env.dirmgr_port,
        Msg::Update {
            txn: env.txn,
            success: done,
            outcome: done.then_some(UserOutcome::Inserted(InsertOutcome::Inserted)),
            update: DirUpdate::Split {
                pseudokey: env.pseudokey,
                old_localdepth,
                expected_version,
                new_version: expected_version + 1,
                new_bucket: link,
            },
            ctx: env.ctx,
        },
    );
}

/// Figure 14, `case delete`, including the local fast paths and the
/// cross-site mergedown/mergeup protocols.
fn slave_delete(site: &Site, env: OpEnvelope, fwd: Option<PortId>) {
    let owner = site.locks.new_owner();
    let (oldpage, mut current) = match walk_to_owner(site, owner, &env, LockMode::Xi, fwd) {
        Walk::Forwarded => return,
        Walk::Stale => {
            bucketdone(site, &env, false, None);
            return;
        }
        Walk::Local(p, b) => (p, b),
    };
    if !site.fence_allows(env.user_port, env.req_id) {
        // Zombie re-drive (see `slave_insert`): refuse rather than apply.
        site.unlock(owner, oldpage, LockMode::Xi);
        bucketdone(site, &env, true, Some(UserOutcome::Failed));
        return;
    }
    site.fence_record(env.user_port, env.req_id);
    let mut buf = site.new_buf();
    let threshold = site.cfg.merge_threshold;
    // The same bounded degradation as centralized Solution 2: after a few
    // re-drives, stop attempting merges.
    let allow_merge = env.attempt < 3;

    let too_empty = allow_merge && current.count() <= threshold + 1 && current.localdepth > 1;
    if !too_empty {
        let outcome = if current.remove(env.key) {
            if site.putbucket(oldpage, &current, &mut buf).is_err() {
                site.unlock(owner, oldpage, LockMode::Xi);
                bucketdone(site, &env, false, None);
                return;
            }
            DeleteOutcome::Deleted
        } else {
            DeleteOutcome::NotFound
        };
        site.unlock(owner, oldpage, LockMode::Xi);
        bucketdone(site, &env, true, Some(UserOutcome::Deleted(outcome)));
        return;
    }
    if current.search(env.key).is_none() {
        site.unlock(owner, oldpage, LockMode::Xi);
        bucketdone(
            site,
            &env,
            true,
            Some(UserOutcome::Deleted(DeleteOutcome::NotFound)),
        );
        return;
    }

    let m = partner_bit(current.localdepth);
    if env.pseudokey.0 & m != m {
        /* MSG.KEY IN FIRST OF PAIR */
        delete_first_of_pair(site, owner, &env, oldpage, current, buf);
    } else {
        /* MSG.KEY IN SECOND OF PAIR */
        delete_second_of_pair(site, owner, &env, oldpage, &mut current, buf);
    }
}

/// The key's bucket is the "0" partner; the "1" partner is `next` —
/// merge it *down* into us (locally or via Mergedown).
fn delete_first_of_pair(
    site: &Site,
    owner: ceh_locks::OwnerId,
    env: &OpEnvelope,
    oldpage: PageId,
    mut current: Bucket,
    mut buf: ceh_storage::PageBuf,
) {
    let partner = current.next;
    let partner_mgr = current.next_mgr;
    let remove_plain = |mut current: Bucket, mut buf: ceh_storage::PageBuf| {
        let removed = current.remove(env.key);
        debug_assert!(removed);
        let ok = site.putbucket(oldpage, &current, &mut buf).is_ok();
        site.unlock(owner, oldpage, LockMode::Xi);
        if ok {
            bucketdone(
                site,
                env,
                true,
                Some(UserOutcome::Deleted(DeleteOutcome::Deleted)),
            );
        } else {
            bucketdone(site, env, false, None);
        }
    };
    if partner.is_null() {
        remove_plain(current, buf);
        return;
    }

    if partner_mgr == site.id || partner_mgr.is_none() {
        // Local merge, as in Figure 9.
        site.lock(owner, partner, LockMode::Xi);
        let brother = match site.getbucket(partner, &mut buf) {
            Ok(b) => b,
            Err(_) => {
                site.unlock(owner, partner, LockMode::Xi);
                remove_plain(current, buf);
                return;
            }
        };
        let mergeable = !brother.is_deleted()
            && brother.localdepth == current.localdepth
            && current.count() - 1 + brother.count() <= site.cfg.bucket_capacity;
        if !mergeable {
            site.unlock(owner, partner, LockMode::Xi);
            remove_plain(current, buf);
            return;
        }
        let expected_v0 = current.version;
        let expected_v1 = brother.version;
        let new_version = expected_v0.max(expected_v1) + 1;
        current.remove(env.key);
        let mut survivor = brother.clone();
        survivor.localdepth -= 1;
        survivor.commonbits &= mask(survivor.localdepth);
        survivor.records.extend(current.records.iter().copied());
        survivor.version = new_version;
        // survivor keeps brother's next links (the chain past the partner).
        let mut tombstone = Bucket::new(0, 0);
        tombstone.mark_deleted();
        tombstone.next = oldpage;
        tombstone.next_mgr = site.id;
        tombstone.version = new_version;
        // Logged together: recovery must never see a merged survivor
        // without its partner's tombstone.
        let committed = site.begin_txn().is_ok_and(|txn| {
            site.putbucket(oldpage, &survivor, &mut buf).is_ok()
                && site.putbucket(partner, &tombstone, &mut buf).is_ok()
                && txn.commit().is_ok()
        });
        site.unlock(owner, partner, LockMode::Xi);
        site.unlock(owner, oldpage, LockMode::Xi);
        if !committed {
            bucketdone(site, env, false, None);
            return;
        }
        send_merge_update(
            site,
            env,
            env.pseudokey,
            survivor.localdepth + 1,
            expected_v0,
            expected_v1,
            new_version,
            BucketLink::new(site.id, oldpage),
            BucketLink::new(site.id, partner),
        );
        return;
    }

    // Remote "1" partner: Mergedown protocol.
    let Some(port) = site.bucket_port(partner_mgr) else {
        remove_plain(current, buf);
        return;
    };
    let (_id, reply_rx) = site.net.create_port();
    site.net.send(
        port,
        Msg::Mergedown {
            partner,
            localdepth: current.localdepth,
            reply_port: reply_rx.id(),
        },
    );
    let reply = reply_rx.recv_timeout(site.reply_timeout);
    match reply {
        Ok(Msg::MDReply {
            buffer: Some(brother),
            success: true,
            fences,
        }) => {
            // The remote side has already tombstoned the partner; finish
            // the merge here. Its records (and their fences) now live here.
            site.fence_merge(&fences);
            let expected_v0 = current.version;
            let expected_v1 = brother.version;
            let new_version = expected_v0.max(expected_v1) + 1;
            current.remove(env.key);
            let mut survivor = (*brother).clone();
            survivor.localdepth -= 1;
            survivor.commonbits &= mask(survivor.localdepth);
            survivor.records.extend(current.records.iter().copied());
            survivor.version = new_version;
            let ok = site.putbucket(oldpage, &survivor, &mut buf).is_ok();
            site.unlock(owner, oldpage, LockMode::Xi);
            if !ok {
                bucketdone(site, env, false, None);
                return;
            }
            send_merge_update(
                site,
                env,
                env.pseudokey,
                survivor.localdepth + 1,
                expected_v0,
                expected_v1,
                new_version,
                BucketLink::new(site.id, oldpage),
                BucketLink::new(partner_mgr, partner),
            );
        }
        _ => {
            // Not mergeable (or peer gone): plain removal.
            remove_plain(current, buf);
        }
    }
}

/// The key's bucket is the "1" partner; the "0" partner is `prev` —
/// merge *up* into it (locally or via Mergeup + Goahead).
fn delete_second_of_pair(
    site: &Site,
    owner: ceh_locks::OwnerId,
    env: &OpEnvelope,
    oldpage: PageId,
    current: &mut Bucket,
    mut buf: ceh_storage::PageBuf,
) {
    let partner = current.prev;
    let partner_mgr = current.prev_mgr;
    if partner.is_null() {
        let removed = current.remove(env.key);
        debug_assert!(removed);
        let ok = site.putbucket(oldpage, current, &mut buf).is_ok();
        site.unlock(owner, oldpage, LockMode::Xi);
        bucketdone(
            site,
            env,
            ok,
            ok.then_some(UserOutcome::Deleted(DeleteOutcome::Deleted)),
        );
        return;
    }
    // Lock ordering: the "0" partner precedes us in the chain, so release
    // the target before requesting the pair in order (Figure 9 / §2.2).
    site.unlock(owner, oldpage, LockMode::Xi);

    if partner_mgr == site.id || partner_mgr.is_none() {
        delete_second_local(site, owner, env, oldpage, partner, buf);
        return;
    }

    // Remote "0" partner: Mergeup protocol.
    let Some(port) = site.bucket_port(partner_mgr) else {
        bucketdone(site, env, false, None);
        return;
    };
    let (_id, reply_rx) = site.net.create_port();
    site.net.send(
        port,
        Msg::Mergeup {
            partner,
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
    site.lock(owner, oldpage, LockMode::Xi);
    let mut current = match site.getbucket(oldpage, &mut buf) {
        Ok(b) => b,
        Err(_) => {
            site.unlock(owner, oldpage, LockMode::Xi);
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
            bucketdone(site, env, false, None);
            return;
        }
    };
    if !current.owns(env.pseudokey) {
        /* z no longer belongs in oldpage */
        site.unlock(owner, oldpage, LockMode::Xi);
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
        bucketdone(site, env, false, None);
        return;
    }
    let still_mergeable = current.localdepth == brother_ld
        && current.count() <= site.cfg.merge_threshold + 1
        && current.search(env.key).is_some()
        && current.count() - 1 + brother_count <= site.cfg.bucket_capacity;
    if !still_mergeable {
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
        let outcome = if current.remove(env.key) {
            let ok = site.putbucket(oldpage, &current, &mut buf).is_ok();
            if !ok {
                site.unlock(owner, oldpage, LockMode::Xi);
                bucketdone(site, env, false, None);
                return;
            }
            DeleteOutcome::Deleted
        } else {
            DeleteOutcome::NotFound
        };
        site.unlock(owner, oldpage, LockMode::Xi);
        bucketdone(site, env, true, Some(UserOutcome::Deleted(outcome)));
        return;
    }

    /* MERGE */
    let expected_v1 = current.version;
    let new_version = expected_v1.max(brother_version) + 1;
    current.remove(env.key);
    let moved: Vec<Record> = current.records.clone();
    let old_next = BucketLink::new(current.next_mgr, current.next);
    let old_localdepth = current.localdepth;
    let mut tombstone = Bucket::new(0, 0);
    tombstone.mark_deleted();
    tombstone.next = partner;
    tombstone.next_mgr = partner_mgr;
    tombstone.version = new_version;
    let ok = site.putbucket(oldpage, &tombstone, &mut buf).is_ok();
    site.net.send(
        goahead_port,
        Msg::Goahead {
            success: ok,
            next: old_next,
            version: new_version,
            moved,
            fences: site.fence_snapshot(),
        },
    );
    site.unlock(owner, oldpage, LockMode::Xi);
    if !ok {
        bucketdone(site, env, false, None);
        return;
    }
    send_merge_update(
        site,
        env,
        env.pseudokey,
        old_localdepth,
        brother_version,
        expected_v1,
        new_version,
        BucketLink::new(partner_mgr, partner),
        BucketLink::new(site.id, oldpage),
    );
}

/// Local second-of-pair merge (both partners on this site): the Figure 9
/// release-and-relock dance with its validations.
fn delete_second_local(
    site: &Site,
    owner: ceh_locks::OwnerId,
    env: &OpEnvelope,
    oldpage: PageId,
    partner: PageId,
    mut buf: ceh_storage::PageBuf,
) {
    site.lock(owner, partner, LockMode::Xi);
    let brother = match site.getbucket(partner, &mut buf) {
        Ok(b) => b,
        Err(_) => {
            site.unlock(owner, partner, LockMode::Xi);
            bucketdone(site, env, false, None);
            return;
        }
    };
    if brother.is_deleted() || brother.next != oldpage || brother.next_mgr != site.id {
        /* A: not mergeable partners */
        site.unlock(owner, partner, LockMode::Xi);
        bucketdone(site, env, false, None);
        return;
    }
    site.lock(owner, oldpage, LockMode::Xi);
    let mut current = match site.getbucket(oldpage, &mut buf) {
        Ok(b) => b,
        Err(_) => {
            site.unlock(owner, oldpage, LockMode::Xi);
            site.unlock(owner, partner, LockMode::Xi);
            bucketdone(site, env, false, None);
            return;
        }
    };
    if !current.owns(env.pseudokey) {
        site.unlock(owner, oldpage, LockMode::Xi);
        site.unlock(owner, partner, LockMode::Xi);
        bucketdone(site, env, false, None);
        return;
    }
    let still_mergeable = current.localdepth == brother.localdepth
        && current.count() <= site.cfg.merge_threshold + 1
        && current.search(env.key).is_some()
        && current.count() - 1 + brother.count() <= site.cfg.bucket_capacity;
    if !still_mergeable {
        site.unlock(owner, partner, LockMode::Xi);
        let outcome = if current.remove(env.key) {
            if site.putbucket(oldpage, &current, &mut buf).is_err() {
                site.unlock(owner, oldpage, LockMode::Xi);
                bucketdone(site, env, false, None);
                return;
            }
            DeleteOutcome::Deleted
        } else {
            DeleteOutcome::NotFound
        };
        site.unlock(owner, oldpage, LockMode::Xi);
        bucketdone(site, env, true, Some(UserOutcome::Deleted(outcome)));
        return;
    }
    let expected_v0 = brother.version;
    let expected_v1 = current.version;
    let new_version = expected_v0.max(expected_v1) + 1;
    current.remove(env.key);
    let mut survivor = brother.clone();
    survivor.localdepth -= 1;
    survivor.commonbits &= mask(survivor.localdepth);
    survivor.records.extend(current.records.iter().copied());
    survivor.next = current.next;
    survivor.next_mgr = current.next_mgr;
    survivor.version = new_version;
    let old_localdepth = current.localdepth;
    let mut tombstone = Bucket::new(0, 0);
    tombstone.mark_deleted();
    tombstone.next = partner;
    tombstone.next_mgr = site.id;
    tombstone.version = new_version;
    // Logged together (see `delete_first_of_pair`): survivor and
    // tombstone are atomic across a crash.
    let committed = site.begin_txn().is_ok_and(|txn| {
        site.putbucket(partner, &survivor, &mut buf).is_ok()
            && site.putbucket(oldpage, &tombstone, &mut buf).is_ok()
            && txn.commit().is_ok()
    });
    site.unlock(owner, oldpage, LockMode::Xi);
    site.unlock(owner, partner, LockMode::Xi);
    if !committed {
        bucketdone(site, env, false, None);
        return;
    }
    send_merge_update(
        site,
        env,
        env.pseudokey,
        old_localdepth,
        expected_v0,
        expected_v1,
        new_version,
        BucketLink::new(site.id, partner),
        BucketLink::new(site.id, oldpage),
    );
}

#[allow(clippy::too_many_arguments)]
fn send_merge_update(
    site: &Site,
    env: &OpEnvelope,
    pseudokey: ceh_types::Pseudokey,
    old_localdepth: u32,
    expected_v0: u64,
    expected_v1: u64,
    new_version: u64,
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
                pseudokey,
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
/// and hand its contents to the requesting "0" side.
fn slave_mergedown(site: &Site, partner: PageId, localdepth: u32, reply_port: PortId) {
    let owner = site.locks.new_owner();
    site.lock(owner, partner, LockMode::Xi);
    let mut buf = site.new_buf();
    let brother = match site.getbucket(partner, &mut buf) {
        Ok(b) => b,
        Err(_) => {
            site.unlock(owner, partner, LockMode::Xi);
            site.net.send(
                reply_port,
                Msg::MDReply {
                    buffer: None,
                    success: false,
                    fences: vec![],
                },
            );
            return;
        }
    };
    let success = !brother.is_deleted() && brother.localdepth == localdepth;
    if !success {
        site.unlock(owner, partner, LockMode::Xi);
        site.net.send(
            reply_port,
            Msg::MDReply {
                buffer: None,
                success: false,
                fences: vec![],
            },
        );
        return;
    }
    // "brother -> commonbits = deleted; brother -> next = brother -> prev;"
    let mut tombstone = Bucket::new(0, 0);
    tombstone.mark_deleted();
    tombstone.next = brother.prev;
    tombstone.next_mgr = brother.prev_mgr;
    tombstone.version = brother.version;
    let ok = site.putbucket(partner, &tombstone, &mut buf).is_ok();
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
    site.lock(owner, partner, LockMode::Xi);
    let mut buf = site.new_buf();
    let mut brother = match site.getbucket(partner, &mut buf) {
        Ok(b) => b,
        Err(_) => {
            site.unlock(owner, partner, LockMode::Xi);
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
            return;
        }
    };
    let success = !brother.is_deleted() && brother.next == target && brother.next_mgr == target_mgr;
    if !success {
        site.unlock(owner, partner, LockMode::Xi);
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
            brother.localdepth -= 1;
            brother.commonbits &= mask(brother.localdepth);
            brother.records.extend(moved);
            brother.next = next.page;
            brother.next_mgr = next.manager;
            brother.version = version;
            let _ = site.putbucket(partner, &brother, &mut buf);
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
            match site.dealloc_page(page) {
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
    use crate::site::tests::test_site;
    use ceh_types::{Key, ManagerId, Pseudokey, Record, Value};
    use std::time::Duration;

    fn put_bucket(site: &Site, b: &Bucket) -> PageId {
        let page = site.store.alloc().unwrap();
        let mut buf = site.new_buf();
        site.putbucket(page, b, &mut buf).unwrap();
        page
    }

    fn get_bucket(site: &Site, page: PageId) -> Bucket {
        let mut buf = site.new_buf();
        site.getbucket(page, &mut buf).unwrap()
    }

    #[test]
    fn a_walk_to_a_page_this_site_lacks_is_stale_routing() {
        let site = test_site(0, 1, None);
        // Does not own pseudokey 0, and links to a page that does not exist.
        let mut stray = Bucket::new(3, 0b101);
        stray.next = PageId(u64::MAX - 1);
        stray.next_mgr = site.id;
        let stray = put_bucket(&site, &stray);
        for page in [PageId(u64::MAX), PageId(1 << 40), stray] {
            let env = OpEnvelope {
                op: OpKind::Insert,
                key: Key(8),
                value: Value(1),
                txn: 1,
                page,
                user_port: PortId::for_node(1, 1),
                dirmgr_port: PortId::for_node(1, 2),
                pseudokey: Pseudokey(0),
                attempt: 0,
                req_id: 1,
                ctx: ceh_obs::TraceCtx::NONE,
            };
            let owner = site.locks.new_owner();
            let walk = walk_to_owner(&site, owner, &env, LockMode::Alpha, None);
            assert!(matches!(walk, Walk::Stale), "{page}");
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

        let (_id, reply_rx) = site.net.create_port();
        slave_mergedown(&site, page, 3, reply_rx.id());
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
        slave_mergedown(&site, page, 3, reply_rx.id());
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
        assert_eq!(site.store.allocated_pages(), 0);
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
        let reused = site.store.alloc().unwrap();
        assert_eq!(reused, a, "LIFO free list hands the page back");
        // ...and a duplicate of the same collection request arrives (the
        // original ack was lost). It must re-ack and leave the page alone.
        slave_garbage_collect(&site, vec![a], 3, ack_rx.id(), ceh_obs::TraceCtx::NONE);
        assert_eq!(site.store.allocated_pages(), 1, "reallocated page survives");
        for _ in 0..2 {
            match ack_rx.recv_timeout(Duration::from_secs(5)).unwrap() {
                Msg::GcAck { gc_id: 3 } => {}
                other => panic!("unexpected {other:?}"),
            }
        }
    }
}
