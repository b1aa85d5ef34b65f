//! Wire-format robustness: hostile bytes on a real socket must produce
//! a counted protocol error and a severed connection — never a panic,
//! never a wedged plane.
//!
//! The frame layer's promise (see `crates/net/src/wire.rs`) is that a
//! byte stream cannot be resynchronized after a framing error, so the
//! *connection* is sacrificed — but the *peer* keeps serving everyone
//! else and the supervisor redials. These tests drive that promise over
//! actual loopback sockets: truncated frames, garbled payloads,
//! oversized lengths, version mismatches, and raw garbage.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use ceh_net::wire::{
    check_payload, decode_header, encode_frame, FrameKind, FRAME_HEADER_BYTES, MAX_FRAME_PAYLOAD,
    WIRE_VERSION,
};
use ceh_net::{
    FaultPlan, MsgClass, TcpConfig, TcpPlane, Transport, WireError, WireMsg, WireReader, WireWriter,
};
use ceh_obs::MetricsHandle;

#[derive(Debug, Clone, PartialEq)]
struct TestMsg(u64);

impl MsgClass for TestMsg {
    fn class(&self) -> &'static str {
        "test"
    }
}

ceh_net::wire!(TestMsg(u64));

fn loopback() -> std::net::SocketAddr {
    "127.0.0.1:0".parse().unwrap()
}

fn wait_counter(metrics: &MetricsHandle, name: &str, at_least: u64) -> u64 {
    let counter = metrics.counter(name);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let v = counter.get();
        if v >= at_least {
            return v;
        }
        assert!(
            Instant::now() < deadline,
            "counter {name} stuck at {v}, wanted >= {at_least}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// A frame whose payload addresses `to` and carries one `TestMsg`.
fn msg_frame(to: u64, value: u64) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u64(to);
    TestMsg(value).wire_encode(&mut w);
    encode_frame(FrameKind::Msg, &w.into_bytes())
}

/// Pure-decoder sweep: every truncation and every single-byte mutation
/// of a valid frame either decodes to the original or fails with a
/// `WireError` — by construction, nothing here can panic.
#[test]
fn hostile_bytes_never_panic_the_decoder() {
    let frame = msg_frame(0x0001_0000_0000_0007, 42);

    // Every prefix of the frame.
    for cut in 0..frame.len() {
        let bytes = &frame[..cut];
        if bytes.len() >= FRAME_HEADER_BYTES {
            let header: [u8; FRAME_HEADER_BYTES] = bytes[..FRAME_HEADER_BYTES].try_into().unwrap();
            if let Ok(h) = decode_header(&header) {
                let payload = &bytes[FRAME_HEADER_BYTES..];
                if payload.len() == h.len {
                    // Full payload present: CRC must still pass, and the
                    // message decode is what's truncated.
                    let _ = check_payload(&h, payload);
                }
            }
        }
    }

    // Every single-byte corruption of the whole frame.
    for at in 0..frame.len() {
        let mut bad = frame.clone();
        bad[at] ^= 0x5A;
        let header: [u8; FRAME_HEADER_BYTES] = bad[..FRAME_HEADER_BYTES].try_into().unwrap();
        match decode_header(&header) {
            Err(_) => {} // header corruption caught up front
            Ok(h) => {
                let payload = &bad[FRAME_HEADER_BYTES..];
                if h.len != payload.len() {
                    continue; // length corrupted: reader would block/EOF
                }
                match check_payload(&h, payload) {
                    Err(WireError::BadCrc { .. }) => {} // payload corruption caught
                    Err(e) => panic!("unexpected error {e}"),
                    Ok(()) => {
                        // CRC passed, so the corruption must have been in
                        // the header's ignorable bits (reserved field).
                        let mut r = WireReader::new(payload);
                        let to = r.u64().unwrap();
                        assert_eq!(to, 0x0001_0000_0000_0007);
                    }
                }
            }
        }
    }

    // 4 KiB of deterministic noise, decoded from every offset.
    let mut state = 0xDEAD_BEEFu64;
    let noise: Vec<u8> = (0..4096)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect();
    for at in 0..noise.len().saturating_sub(FRAME_HEADER_BYTES) {
        let header: [u8; FRAME_HEADER_BYTES] =
            noise[at..at + FRAME_HEADER_BYTES].try_into().unwrap();
        let _ = decode_header(&header);
        let _ = TestMsg::wire_decode(&noise[at..]);
    }
}

/// Raw garbage, a version-mismatched frame, and an oversized length all
/// land as counted protocol errors — and the plane keeps serving a
/// well-behaved connection afterwards.
#[test]
fn protocol_errors_are_counted_and_the_plane_keeps_serving() {
    let metrics = MetricsHandle::new();
    let plane: TcpPlane<TestMsg> =
        TcpPlane::start(TcpConfig::new(1).listen(loopback()), &metrics).unwrap();
    let (port, rx) = plane.create_port();
    let addr = plane.local_addr().unwrap();

    // 1. Not even a frame: bad magic.
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(b"GET / HTTP/1.1\r\n\r\n................")
        .unwrap();
    wait_counter(&metrics, "net.tcp.protocol_error.bad_magic", 1);
    // The plane hangs up on us (read sees EOF), it does not hang.
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    assert_eq!(s.read(&mut [0u8; 16]).unwrap_or(0), 0, "connection severed");

    // 2. A well-formed frame from a future wire version.
    let mut frame = msg_frame(port.0, 1);
    frame[4] = WIRE_VERSION + 1;
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&frame).unwrap();
    wait_counter(&metrics, "net.tcp.protocol_error.bad_version", 1);

    // 3. A header promising more than MAX_FRAME_PAYLOAD.
    let mut frame = msg_frame(port.0, 2);
    frame[8..12].copy_from_slice(&((MAX_FRAME_PAYLOAD as u32) + 1).to_le_bytes());
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&frame).unwrap();
    wait_counter(&metrics, "net.tcp.protocol_error.oversize", 1);

    // 4. A garbled payload: CRC catches the flipped byte.
    let mut frame = msg_frame(port.0, 3);
    let last = frame.len() - 1;
    frame[last] ^= 0x01;
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&frame).unwrap();
    wait_counter(&metrics, "net.tcp.protocol_error.bad_crc", 1);

    // 5. A valid frame whose *message* is truncated (CRC passes).
    let mut w = WireWriter::new();
    w.u64(port.0);
    w.u32(7); // four bytes where TestMsg wants eight
    let frame = encode_frame(FrameKind::Msg, &w.into_bytes());
    let mut s = TcpStream::connect(addr).unwrap();
    s.write_all(&frame).unwrap();
    wait_counter(&metrics, "net.tcp.protocol_error.truncated", 1);

    // After all that abuse: a legitimate peer connects and is served.
    let b: TcpPlane<TestMsg> =
        TcpPlane::start(TcpConfig::new(2).peer(1, addr), &MetricsHandle::new()).unwrap();
    assert!(b.send(port, TestMsg(99)));
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match rx.recv_timeout(Duration::from_millis(200)) {
            Ok(m) => {
                assert_eq!(m, TestMsg(99));
                break;
            }
            Err(_) => {
                assert!(Instant::now() < deadline, "legit message never arrived");
                b.send(port, TestMsg(99));
            }
        }
    }
    b.close();
    plane.close();
}

/// End to end through the injection layer: a sender whose every data
/// frame is garbled on the wire cannot wedge the receiver — the CRC
/// rejects each frame, the connection is severed and re-established,
/// and once the plan is lifted traffic flows again.
#[test]
fn garbling_fault_plan_degrades_and_heals() {
    let server_metrics = MetricsHandle::new();
    let server: TcpPlane<TestMsg> =
        TcpPlane::start(TcpConfig::new(1).listen(loopback()), &server_metrics).unwrap();
    let (port, rx) = server.create_port();

    let client_metrics = MetricsHandle::new();
    let client: TcpPlane<TestMsg> = TcpPlane::start(
        TcpConfig::new(2).peer(1, server.local_addr().unwrap()),
        &client_metrics,
    )
    .unwrap();
    client.set_fault_plan(Some(FaultPlan::new(0xBAD).garble_all(1.0)));

    // Pump garbled frames; every one must be rejected by the server.
    for i in 0..20 {
        client.send(port, TestMsg(i));
        std::thread::sleep(Duration::from_millis(10));
    }
    wait_counter(&server_metrics, "net.tcp.protocol_error.bad_crc", 1);
    assert!(
        rx.recv_timeout(Duration::from_millis(100)).is_err(),
        "no garbled frame may decode"
    );

    // Heal: the supervisor redials, and clean traffic gets through.
    client.set_fault_plan(None);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        client.send(port, TestMsg(1000));
        match rx.recv_timeout(Duration::from_millis(100)) {
            Ok(TestMsg(v)) if v >= 1000 => break,
            _ => assert!(Instant::now() < deadline, "plane never healed"),
        }
    }
    client.close();
    server.close();
}
