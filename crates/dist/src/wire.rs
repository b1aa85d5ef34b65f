//! Frame encoding for [`Msg`] — how the Figure 11–14 message vocabulary
//! crosses real sockets.
//!
//! The simulated plane moves `Msg` values by `clone()`; the TCP plane
//! ([`ceh_net::TcpPlane`]) needs bytes. Each message's layout is its
//! field list below, in wire order: [`ceh_net::wire!`] derives both the
//! encoder and the strict decoder from it (fixed little-endian scalars,
//! `u32`-counted sequences, one tag byte per enum), and the shared types
//! inside (keys, links, buckets, trace contexts) encode as
//! [`mod@ceh_net::wire`] defines them. The payload travels inside a
//! CRC-checked frame, so decoding only has to be *strict*, not
//! corruption-tolerant: any leftover or missing bytes are protocol errors
//! that sever the connection.
//!
//! The tests pin every variant's bytes (`encodings_match_the_golden_bytes`)
//! and sweep truncations, byte flips and random tails over all of them
//! (`truncated_payloads_are_rejected_not_panicked`): nothing panics, and
//! whatever decodes re-encodes to the bytes it came from. Compatibility
//! is guarded by the frame header's version byte: a change to a list
//! below must bump [`ceh_net::wire::WIRE_VERSION`].

use ceh_net::wire::{Wire, WireError, WireReader, WireWriter};
use ceh_types::{DeleteOutcome, InsertOutcome};

use crate::msg::{Msg, OpEnvelope, OpKind, UserOutcome};
use crate::replica::{DirEntry, DirUpdate};

ceh_net::wire!(Msg {
    1 => Request { op, key, value, user_port, req_id, ctx },
    2 => UserReply { outcome, req_id },
    3 => BucketOp(env),
    4 => Wrongbucket { env, buckmgr_port },
    5 => WrongbucketAck,
    6 => Bucketdone { txn, success, outcome },
    7 => Update { txn, success, outcome, update, ctx },
    8 => Copyupdate { update, update_id, ack_port, ctx },
    9 => CopyAck { update_id },
    10 => Splitbucket { reply_port, half2, fences },
    11 => Splitreply { link },
    12 => Mergedown { partner, localdepth, count, reply_port },
    13 => MDReply { buffer, success, fences },
    14 => Mergeup { partner, target, target_mgr, reply_port },
    15 => MUReply { localdepth, version, goahead_port, success, count },
    16 => Goahead { success, next, version, moved, fences },
    17 => GarbageCollect { pages, gc_id, ack_port, ctx },
    18 => GcAck { gc_id },
    19 => Status { reply_port },
    20 => StatusReply { rho, alpha, parked, depth, entries, pending_garbage },
    21 => Shutdown,
    22 => StatsRequest { reply_port },
    23 => StatsReply { json },
});

ceh_net::wire!(OpKind {
    0 => Find,
    1 => Insert,
    2 => Delete,
});

ceh_net::wire!(OpEnvelope {
    op,
    key,
    value,
    txn,
    page,
    user_port,
    dirmgr_port,
    pseudokey,
    attempt,
    req_id,
    ctx,
});

ceh_net::wire!(DirEntry { mgr, page, version });

ceh_net::wire!(DirUpdate {
    0 => Split { pseudokey, old_localdepth, expected_version, new_version, new_bucket },
    1 => Merge { pseudokey, old_localdepth, expected_v0, expected_v1, new_version, merged, garbage },
});

/// One tag byte covers the outcome and its nested answer.
impl Wire for UserOutcome {
    const MIN_BYTES: usize = 1;

    fn put(&self, w: &mut WireWriter) {
        match *self {
            UserOutcome::Found(None) => w.u8(0),
            UserOutcome::Found(Some(v)) => {
                w.u8(1);
                v.put(w);
            }
            UserOutcome::Inserted(InsertOutcome::Inserted) => w.u8(2),
            UserOutcome::Inserted(InsertOutcome::AlreadyPresent) => w.u8(3),
            UserOutcome::Deleted(DeleteOutcome::Deleted) => w.u8(4),
            UserOutcome::Deleted(DeleteOutcome::NotFound) => w.u8(5),
            UserOutcome::Failed => w.u8(6),
        }
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(match r.u8()? {
            0 => UserOutcome::Found(None),
            1 => UserOutcome::Found(Some(Wire::get(r)?)),
            2 => UserOutcome::Inserted(InsertOutcome::Inserted),
            3 => UserOutcome::Inserted(InsertOutcome::AlreadyPresent),
            4 => UserOutcome::Deleted(DeleteOutcome::Deleted),
            5 => UserOutcome::Deleted(DeleteOutcome::NotFound),
            6 => UserOutcome::Failed,
            _ => return Err(WireError::Malformed("unknown UserOutcome tag")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceh_net::wire::WireMsg;
    use ceh_net::PortId;
    use ceh_obs::{SpanId, TraceCtx};
    use ceh_types::bucket::Bucket;
    use ceh_types::{BucketLink, Key, ManagerId, PageId, Pseudokey, Record, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    // Two of `Msg`'s tags, for hand-built payloads.
    const TAG_USER_REPLY: u8 = 2;
    const TAG_SPLITBUCKET: u8 = 10;

    fn roundtrip(msg: &Msg) -> Msg {
        Msg::wire_decode(&msg.wire_bytes()).expect("decode")
    }

    fn sample_env() -> OpEnvelope {
        OpEnvelope {
            op: OpKind::Insert,
            key: Key(0xDEAD_BEEF),
            value: Value(42),
            txn: (3 << 48) | 7,
            page: PageId(11),
            user_port: PortId::for_node(4, 9),
            dirmgr_port: PortId::for_node(1, 2),
            pseudokey: Pseudokey(0b1011_0110),
            attempt: 3,
            req_id: 17,
            ctx: TraceCtx {
                trace_id: 0xABCD,
                parent_span: SpanId(55),
            },
        }
    }

    fn sample_bucket() -> Bucket {
        let mut b = Bucket::new(3, 0b101);
        b.next = PageId(9);
        b.next_mgr = ManagerId(2);
        b.prev = PageId(4);
        b.prev_mgr = ManagerId(0);
        b.version = 12;
        b.records.push(Record {
            key: Key(0b1101),
            value: Value(77),
        });
        b.records.push(Record {
            key: Key(0b0101),
            value: Value(78),
        });
        b
    }

    /// `assert_eq!` via Debug: `Msg` deliberately has no `PartialEq`
    /// (buckets inside boxes), but every field shows up in Debug.
    fn assert_same(a: &Msg, b: &Msg) {
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    /// One message of every variant (and every `UserOutcome`), the input
    /// of the round-trip, golden-bytes and mutation tests.
    fn samples() -> Vec<Msg> {
        vec![
            Msg::Request {
                op: OpKind::Find,
                key: Key(5),
                value: Value(0),
                user_port: PortId::for_node(9, 1),
                req_id: 3,
                ctx: TraceCtx::NONE,
            },
            Msg::UserReply {
                outcome: UserOutcome::Found(Some(Value(50))),
                req_id: 3,
            },
            Msg::UserReply {
                outcome: UserOutcome::Found(None),
                req_id: 4,
            },
            Msg::UserReply {
                outcome: UserOutcome::Inserted(InsertOutcome::AlreadyPresent),
                req_id: 5,
            },
            Msg::UserReply {
                outcome: UserOutcome::Deleted(DeleteOutcome::NotFound),
                req_id: 6,
            },
            Msg::UserReply {
                outcome: UserOutcome::Failed,
                req_id: 7,
            },
            Msg::BucketOp(sample_env()),
            Msg::Wrongbucket {
                env: sample_env(),
                buckmgr_port: PortId::for_node(2, 5),
            },
            Msg::WrongbucketAck,
            Msg::Bucketdone {
                txn: 9,
                success: true,
                outcome: Some(UserOutcome::Inserted(InsertOutcome::Inserted)),
            },
            Msg::Bucketdone {
                txn: 10,
                success: false,
                outcome: None,
            },
            Msg::Update {
                txn: 11,
                success: true,
                outcome: Some(UserOutcome::Deleted(DeleteOutcome::Deleted)),
                update: DirUpdate::Split {
                    pseudokey: Pseudokey(0b11),
                    old_localdepth: 2,
                    expected_version: 4,
                    new_version: 5,
                    new_bucket: BucketLink::new(ManagerId(1), PageId(8)),
                },
                ctx: TraceCtx::NONE,
            },
            Msg::Copyupdate {
                update: DirUpdate::Merge {
                    pseudokey: Pseudokey(0b10),
                    old_localdepth: 2,
                    expected_v0: 3,
                    expected_v1: 4,
                    new_version: 5,
                    merged: BucketLink::new(ManagerId(0), PageId(1)),
                    garbage: BucketLink::new(ManagerId(1), PageId(2)),
                },
                update_id: 77,
                ack_port: PortId::for_node(1, 3),
                ctx: TraceCtx::NONE,
            },
            Msg::CopyAck { update_id: 77 },
            Msg::Splitbucket {
                reply_port: PortId::for_node(3, 4),
                half2: Box::new(sample_bucket()),
                fences: vec![(PortId(900), 12), (PortId(901), 13)],
            },
            Msg::Splitreply {
                link: BucketLink::new(ManagerId(2), PageId(6)),
            },
            Msg::Mergedown {
                partner: PageId(3),
                localdepth: 2,
                count: 1,
                reply_port: PortId(50),
            },
            Msg::MDReply {
                buffer: Some(Box::new(sample_bucket())),
                success: true,
                fences: vec![],
            },
            Msg::MDReply {
                buffer: None,
                success: false,
                fences: vec![(PortId(7), 8)],
            },
            Msg::Mergeup {
                partner: PageId(1),
                target: PageId(2),
                target_mgr: ManagerId(1),
                reply_port: PortId(51),
            },
            Msg::MUReply {
                localdepth: 4,
                version: 9,
                goahead_port: PortId(52),
                success: true,
                count: 3,
            },
            Msg::Goahead {
                success: true,
                next: BucketLink::new(ManagerId(0), PageId(14)),
                version: 10,
                moved: vec![Record {
                    key: Key(1),
                    value: Value(2),
                }],
                fences: vec![(PortId(53), 1)],
            },
            Msg::GarbageCollect {
                pages: vec![PageId(7), PageId(8)],
                gc_id: (2 << 48) | 5,
                ack_port: PortId(54),
                ctx: TraceCtx::NONE,
            },
            Msg::GcAck { gc_id: 5 },
            Msg::Status {
                reply_port: PortId(55),
            },
            Msg::StatusReply {
                rho: 1,
                alpha: 2,
                parked: 3,
                depth: 4,
                entries: vec![
                    DirEntry {
                        mgr: ManagerId(0),
                        page: PageId(0),
                        version: 1,
                    },
                    DirEntry {
                        mgr: ManagerId(1),
                        page: PageId(3),
                        version: 2,
                    },
                ],
                pending_garbage: 5,
            },
            Msg::StatsRequest {
                reply_port: PortId::for_node(2, 7),
            },
            Msg::StatsReply {
                json: "{\"node\":3,\"counters\":{\"dist.requests\":42}}".to_string(),
            },
            Msg::StatsReply {
                json: String::new(),
            },
            Msg::Shutdown,
        ]
    }

    #[test]
    fn every_variant_roundtrips() {
        for msg in &samples() {
            assert_same(msg, &roundtrip(msg));
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The bytes of every sample, pinned: a layout change fails here and
    /// must come with a [`ceh_net::wire::WIRE_VERSION`] bump.
    const GOLDEN: [&str; 30] = [
        "0100050000000000000000000000000000000100000000000900030000000000000000000000000000000000000000000000",
        "020132000000000000000300000000000000",
        "02000400000000000000",
        "02030500000000000000",
        "02050600000000000000",
        "02060700000000000000",
        "0301efbeadde000000002a0000000000000007000000000003000b0000000000000009000000000004000200000000000100b600000000000000030000001100000000000000cdab0000000000003700000000000000",
        "0401efbeadde000000002a0000000000000007000000000003000b0000000000000009000000000004000200000000000100b600000000000000030000001100000000000000cdab00000000000037000000000000000500000000000200",
        "05",
        "060900000000000000010102",
        "060a000000000000000000",
        "070b00000000000000010104000300000000000000020000000400000000000000050000000000000001000000080000000000000000000000000000000000000000000000",
        "08010200000000000000020000000300000000000000040000000000000005000000000000000000000001000000000000000100000002000000000000004d00000000000000030000000000010000000000000000000000000000000000",
        "094d00000000000000",
        "0a04000000000003000300000005000000000000000900000000000000020000000400000000000000000000000c00000000000000020000000d000000000000004d0000000000000005000000000000004e000000000000000200000084030000000000000c0000000000000085030000000000000d00000000000000",
        "0b020000000600000000000000",
        "0c03000000000000000200000001000000000000003200000000000000",
        "0d010300000005000000000000000900000000000000020000000400000000000000000000000c00000000000000020000000d000000000000004d0000000000000005000000000000004e000000000000000100000000",
        "0d00000100000007000000000000000800000000000000",
        "0e01000000000000000200000000000000010000003300000000000000",
        "0f0400000009000000000000003400000000000000010300000000000000",
        "1001000000000e000000000000000a0000000000000001000000010000000000000002000000000000000100000035000000000000000100000000000000",
        "1102000000070000000000000008000000000000000500000000000200360000000000000000000000000000000000000000000000",
        "120500000000000000",
        "133700000000000000",
        "140100000000000000020000000000000003000000000000000400000002000000000000000000000000000000010000000000000001000000030000000000000002000000000000000500000000000000",
        "160700000000000200",
        "172a0000007b226e6f6465223a332c22636f756e74657273223a7b22646973742e7265717565737473223a34327d7d",
        "1700000000",
        "15",
    ];

    #[test]
    fn encodings_match_the_golden_bytes() {
        let samples = samples();
        assert_eq!(samples.len(), GOLDEN.len());
        for (msg, golden) in samples.iter().zip(GOLDEN) {
            assert_eq!(hex(&msg.wire_bytes()), golden, "{msg:?}");
        }
    }

    /// Strict decoding gives each message one encoding: whatever decodes
    /// re-encodes to exactly the bytes it came from. Returns whether
    /// `bytes` decoded.
    fn assert_canonical(bytes: &[u8]) -> bool {
        let decoded = Msg::wire_decode(bytes);
        if let Ok(msg) = &decoded {
            assert_eq!(hex(&msg.wire_bytes()), hex(bytes), "{msg:?}");
        }
        decoded.is_ok()
    }

    #[test]
    fn truncated_payloads_are_rejected_not_panicked() {
        let mut rng = StdRng::seed_from_u64(0x3E11);
        let mut decoded = 0;
        for msg in &samples() {
            let bytes = msg.wire_bytes();
            for cut in 0..bytes.len() {
                assert!(
                    Msg::wire_decode(&bytes[..cut]).is_err(),
                    "prefix of {cut} bytes of {msg:?} decoded"
                );
            }
            // Seeded mutations: a flip of every byte, and a random tail
            // after every cut. None may panic.
            for at in 0..bytes.len() {
                let mut flipped = bytes.clone();
                flipped[at] ^= rng.random_range(1..=255u8);
                let mut tail = bytes[..at].to_vec();
                let extra = rng.random_range(1..24usize);
                tail.extend((0..extra).map(|_| rng.random::<u8>()));
                decoded += assert_canonical(&flipped) as usize + assert_canonical(&tail) as usize;
            }
        }
        // Flips inside scalar fields decode, so the re-encoding check ran.
        assert!(decoded > 100, "only {decoded} mutations decoded");
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut w = WireWriter::new();
        Msg::Shutdown.wire_encode(&mut w);
        let mut bytes = w.into_bytes();
        bytes.push(0);
        assert!(matches!(
            Msg::wire_decode(&bytes),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert!(Msg::wire_decode(&[0xFF]).is_err());
        assert!(Msg::wire_decode(&[0]).is_err());
        // Inner enum tags too.
        let mut w = WireWriter::new();
        w.u8(TAG_USER_REPLY);
        w.u8(99); // no such UserOutcome
        w.u64(1);
        assert!(Msg::wire_decode(&w.into_bytes()).is_err());
    }

    #[test]
    fn oversized_sequence_counts_are_rejected_before_allocation() {
        // A Splitbucket whose record count claims 2^31 entries in a
        // 40-byte payload must fail in seq_len, not OOM.
        let mut w = WireWriter::new();
        w.u8(TAG_SPLITBUCKET);
        w.u64(1); // reply port
        w.u32(0); // localdepth
        w.u64(0); // commonbits
        w.u64(u64::MAX); // next
        w.u32(u32::MAX); // next_mgr
        w.u64(u64::MAX); // prev
        w.u32(u32::MAX); // prev_mgr
        w.u64(0); // version
        w.u32(1 << 31); // records "length"
        assert!(Msg::wire_decode(&w.into_bytes()).is_err());
    }
}
