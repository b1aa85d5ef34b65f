//! The real transport: supervised TCP connections carrying wire frames.
//!
//! [`TcpPlane`] implements [`crate::Transport`] over actual sockets, so
//! the distributed hash file's managers run as separate OS processes
//! (`ceh serve` / `ceh client`) with *no change* to the code above the
//! transport. The pieces:
//!
//! * **Addressing** — a [`PortId`]'s top 16 bits name the owning node
//!   ([`PortId::for_node`]); the rest is a node-local port number.
//!   Sends to the local node deliver through in-process channels exactly
//!   like the simulated plane; sends to a remote node are framed
//!   ([`crate::wire`]) and routed over that node's supervised link.
//! * **Name service** — replicated, not central: every connection
//!   handshake ([`FrameKind::Hello`]) carries the sender's current
//!   bindings, and later registrations broadcast [`FrameKind::Bind`]
//!   frames, so `lookup` is always a local map probe.
//! * **Supervision** — one link per peer, each with a
//!   [`crate::supervisor::PeerFsm`] driving reconnect backoff + jitter,
//!   heartbeat probes on idle connections, write deadlines, and the
//!   connecting → healthy → degraded → down gauge.
//! * **Degradation** — each link's outbound queue is *bounded*. When a
//!   peer is partitioned the queue fills and further sends are shed
//!   (counted in `net.tcp.shed` and the per-class dropped family)
//!   instead of blocking the caller: the retry machinery above owns
//!   end-to-end delivery, so shedding under partition is loss the system
//!   already tolerates, and reachable peers keep being served.
//! * **Fault injection** — the same seeded [`FaultPlan`] the simulated
//!   plane consumes, applied at the socket boundary: frames are dropped,
//!   duplicated, garbled (the receiver's CRC catches it), delayed, or
//!   the carrying connection severed, all deterministically from the
//!   seed (see [`crate::fault`] on stream alignment across planes).
//!   Control frames (hello/bind/ping/pong/bye) are exempt — the plan
//!   shapes *message* traffic, not the supervisor's own plumbing.
//!
//! A reader that hits a malformed frame (bad magic, bad version, CRC
//! failure, oversized length) counts a `net.tcp.protocol_error`, tears
//! the connection down, and lets the supervisor redial: a byte stream
//! cannot be resynchronized after a framing error, but the *peer* is
//! never wedged — see `crates/net/tests/wire_robustness.rs`.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use parking_lot::{Condvar, Mutex, RwLock};

use crate::fault::{FaultPlan, FaultState, FrameVerdict};
use crate::network::{MsgClass, PortId, PortRx, TRACE_DROPPED, TRACE_DUPLICATED, TRACE_SENT};
use crate::stats::{MsgStats, MsgStatsSnapshot};
use crate::supervisor::{PeerFsm, PeerState, SupervisorConfig, TickAction};
use crate::transport::Transport;
use crate::wire::{
    check_payload, decode_header, encode_frame, FrameKind, WireError, WireMsg, WireReader,
    WireWriter, FRAME_HEADER_BYTES,
};

/// Configuration for one node's [`TcpPlane`].
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// This node's id (1..=65535; the top 16 bits of every local
    /// [`PortId`]). Ids only need to be unique within the cluster.
    pub node: u16,
    /// Address to accept connections on; `None` for client nodes that
    /// only dial out (their peers reply over the same connection).
    pub listen: Option<SocketAddr>,
    /// Statically known peers to dial and supervise: `(node, address)`.
    pub peers: Vec<(u16, SocketAddr)>,
    /// Supervisor timing (heartbeats, degradation thresholds, backoff).
    pub supervisor: SupervisorConfig,
    /// Outbound frames buffered per link before load-shedding starts.
    pub queue_capacity: usize,
    /// Dial deadline per attempt, milliseconds.
    pub connect_timeout_ms: u64,
    /// Per-frame write deadline, milliseconds (a stuck peer fails the
    /// write instead of blocking the link forever).
    pub write_timeout_ms: u64,
    /// Seed for the reconnect jitter (kept separate from the fault
    /// plan's seed: supervision is not a fault).
    pub seed: u64,
}

impl TcpConfig {
    /// A config for `node` with no listener, no peers, and default
    /// timing — extend with the builder methods.
    pub fn new(node: u16) -> Self {
        TcpConfig {
            node,
            listen: None,
            peers: Vec::new(),
            supervisor: SupervisorConfig::default(),
            queue_capacity: 1024,
            connect_timeout_ms: 1_000,
            write_timeout_ms: 2_000,
            seed: 0,
        }
    }

    /// Accept connections on `addr`.
    pub fn listen(mut self, addr: SocketAddr) -> Self {
        self.listen = Some(addr);
        self
    }

    /// Dial and supervise `node` at `addr`.
    pub fn peer(mut self, node: u16, addr: SocketAddr) -> Self {
        self.peers.push((node, addr));
        self
    }

    /// Replace the supervisor timing.
    pub fn supervisor(mut self, sup: SupervisorConfig) -> Self {
        self.supervisor = sup;
        self
    }
}

/// One buffered outbound frame, with the socket-level fault actions the
/// writer must apply.
struct OutFrame {
    bytes: Vec<u8>,
    /// Tear the connection down after this frame (injected sever).
    sever: bool,
    /// Hold the frame this long before writing (injected delay).
    delay_ms: u64,
}

/// A supervised link to one peer node.
struct Link {
    node: u16,
    /// Address to dial, or `None` for inbound-only links (clients): the
    /// accept loop deposits the connection instead.
    dial: Option<SocketAddr>,
    data_tx: Sender<OutFrame>,
    data_rx: Receiver<OutFrame>,
    /// Control frames (hello/bind/ping/pong/bye): unbounded and drained
    /// first, so load-shedding of data can never starve supervision.
    ctrl_tx: Sender<Vec<u8>>,
    ctrl_rx: Receiver<Vec<u8>>,
    fsm: Mutex<PeerFsm>,
    /// Deposited inbound connection (write half) for dial-less links.
    inbound: Mutex<Option<TcpStream>>,
    inbound_cv: Condvar,
    state_gauge: Arc<ceh_obs::Gauge>,
}

impl Link {
    fn set_gauge(&self, state: PeerState) {
        self.state_gauge.set(state.as_gauge() as i64);
    }
}

struct Plane<M: Send + 'static> {
    cfg: TcpConfig,
    epoch: Instant,
    ports: RwLock<HashMap<PortId, Sender<M>>>,
    next_port: AtomicU64,
    /// Full name table: local registrations plus everything learned
    /// from peers' hello/bind frames.
    names: RwLock<HashMap<String, PortId>>,
    /// Only this node's registrations (what *we* announce in hellos).
    local_names: RwLock<HashMap<String, PortId>>,
    links: RwLock<HashMap<u16, Arc<Link>>>,
    faults: Mutex<FaultState>,
    stats: MsgStats,
    metrics: ceh_obs::MetricsHandle,
    /// Live connection handles, kept to unblock readers at shutdown.
    conns: Mutex<Vec<TcpStream>>,
    shutdown: AtomicBool,
    /// Actual listen address (resolves port 0 binds).
    bound: Option<SocketAddr>,
}

impl<M: Send + 'static> Plane<M> {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn counter(&self, name: &str) -> Arc<ceh_obs::Counter> {
        self.metrics.counter(name)
    }
}

impl<M: Send + 'static> Drop for Plane<M> {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for s in self.conns.lock().iter() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }
}

/// The TCP transport. Clone freely; all clones share the node's port
/// space, links, and counters. See the module docs for the design.
pub struct TcpPlane<M: Send + 'static> {
    inner: Arc<Plane<M>>,
}

impl<M: Send + 'static> Clone for TcpPlane<M> {
    fn clone(&self) -> Self {
        TcpPlane {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<M> TcpPlane<M>
where
    M: WireMsg + MsgClass + Send + Clone + 'static,
{
    /// Start the plane: bind the listener (if any), then dial and
    /// supervise every configured peer. Fails only if the listen
    /// address cannot be bound — peers being down is the normal case
    /// the supervisor exists for.
    pub fn start(cfg: TcpConfig, metrics: &ceh_obs::MetricsHandle) -> std::io::Result<TcpPlane<M>> {
        let listener = match cfg.listen {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        let bound = listener.as_ref().and_then(|l| l.local_addr().ok());
        let inner = Arc::new(Plane {
            epoch: Instant::now(),
            ports: RwLock::new(HashMap::new()),
            next_port: AtomicU64::new(1),
            names: RwLock::new(HashMap::new()),
            local_names: RwLock::new(HashMap::new()),
            links: RwLock::new(HashMap::new()),
            faults: Mutex::new(FaultState::default()),
            stats: MsgStats::with_handle(metrics),
            metrics: metrics.clone(),
            conns: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            bound,
            cfg,
        });
        let plane = TcpPlane { inner };

        if let Some(listener) = listener {
            listener.set_nonblocking(true)?;
            let weak = Arc::downgrade(&plane.inner);
            std::thread::Builder::new()
                .name(format!("ceh-tcp-accept-{}", plane.inner.cfg.node))
                .spawn(move || accept_loop(listener, weak))
                .expect("spawn accept loop");
        }
        for (node, addr) in plane.inner.cfg.peers.clone() {
            plane.ensure_link(node, Some(addr));
        }
        Ok(plane)
    }

    /// The address the listener actually bound (resolves `:0` binds).
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.inner.bound
    }

    /// This node's id.
    pub fn node(&self) -> u16 {
        self.inner.cfg.node
    }

    /// Dial and supervise another peer added after startup.
    pub fn add_peer(&self, node: u16, addr: SocketAddr) {
        self.ensure_link(node, Some(addr));
    }

    /// Current supervisor state of the link to `node`, if one exists.
    pub fn peer_state(&self, node: u16) -> Option<PeerState> {
        let links = self.inner.links.read();
        links.get(&node).map(|l| l.fsm.lock().state())
    }

    /// Graceful shutdown: say goodbye on every link, stop all threads,
    /// and unblock every reader. Idempotent.
    pub fn close(&self) {
        {
            let links = self.inner.links.read();
            for link in links.values() {
                let _ = link.ctrl_tx.send(encode_frame(FrameKind::Bye, &[]));
            }
        }
        // Give writers one beat to flush the goodbyes.
        std::thread::sleep(Duration::from_millis(30));
        self.inner.shutdown.store(true, Ordering::Release);
        for s in self.inner.conns.lock().iter() {
            let _ = s.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Get or create the link to `node`; a `dial` address upgrades an
    /// inbound-only link created earlier by an accepted connection.
    fn ensure_link(&self, node: u16, dial: Option<SocketAddr>) -> Arc<Link> {
        if let Some(link) = self.inner.links.read().get(&node) {
            return Arc::clone(link);
        }
        let mut links = self.inner.links.write();
        if let Some(link) = links.get(&node) {
            return Arc::clone(link);
        }
        let (data_tx, data_rx) = channel::bounded(self.inner.cfg.queue_capacity);
        let (ctrl_tx, ctrl_rx) = channel::unbounded();
        let sup = self.inner.cfg.supervisor;
        let now = self.inner.now_ms();
        let seed = self.inner.cfg.seed ^ (u64::from(node) << 17) ^ u64::from(self.inner.cfg.node);
        let link = Arc::new(Link {
            node,
            dial,
            data_tx,
            data_rx,
            ctrl_tx,
            ctrl_rx,
            fsm: Mutex::new(PeerFsm::new(sup, seed, now)),
            inbound: Mutex::new(None),
            inbound_cv: Condvar::new(),
            state_gauge: self
                .inner
                .metrics
                .gauge(&format!("net.tcp.peer.{node}.state")),
        });
        link.set_gauge(PeerState::Connecting);
        links.insert(node, Arc::clone(&link));
        drop(links);

        let weak = Arc::downgrade(&self.inner);
        let wl = Arc::clone(&link);
        std::thread::Builder::new()
            .name(format!("ceh-tcp-link-{}-{}", self.inner.cfg.node, node))
            .spawn(move || writer_loop(weak, wl))
            .expect("spawn link writer");
        link
    }

    fn deliver_local(&self, to: PortId, msg: M) -> bool {
        let ports = self.inner.ports.read();
        match ports.get(&to) {
            Some(tx) => tx.send(msg).is_ok(),
            None => {
                drop(ports);
                self.inner.counter("net.tcp.dead_letter").inc();
                false
            }
        }
    }
}

impl<M> Transport<M> for TcpPlane<M>
where
    M: WireMsg + MsgClass + Send + Clone + 'static,
{
    fn create_port(&self) -> (PortId, PortRx<M>) {
        let local = self.inner.next_port.fetch_add(1, Ordering::Relaxed);
        let id = PortId::for_node(self.inner.cfg.node, local);
        let (tx, rx) = channel::unbounded();
        self.inner.ports.write().insert(id, tx);
        let weak = Arc::downgrade(&self.inner);
        let closer = move || {
            if let Some(inner) = weak.upgrade() {
                inner.ports.write().remove(&id);
            }
        };
        (id, PortRx::with_closer(id, rx, closer))
    }

    fn register_name(&self, name: &str, port: PortId) {
        self.inner.names.write().insert(name.to_string(), port);
        self.inner
            .local_names
            .write()
            .insert(name.to_string(), port);
        // Replicate to every connected peer.
        let frame = encode_frame(FrameKind::Bind, &encode_bind(name, port));
        let links = self.inner.links.read();
        for link in links.values() {
            let _ = link.ctrl_tx.send(frame.clone());
        }
    }

    fn lookup(&self, name: &str) -> Option<PortId> {
        self.inner.names.read().get(name).copied()
    }

    fn send(&self, to: PortId, msg: M) -> bool {
        let class = msg.class();
        self.inner.stats.record(class);
        let node = to.node();
        let verdict = {
            let mut faults = self.inner.faults.lock();
            if faults.is_quiet() {
                FrameVerdict::default()
            } else {
                faults.frame_verdict(class, to)
            }
        };
        let tracer = self.inner.metrics.tracer();
        let ctx = if tracer.is_enabled() {
            msg.trace_ctx()
        } else {
            ceh_obs::TraceCtx::NONE
        };
        if verdict.drop {
            self.inner.stats.record_dropped(class);
            tracer.instant(ctx, "net", class, to.0, TRACE_DROPPED);
            return true;
        }
        if verdict.duplicate {
            self.inner.stats.record_duplicated(class);
            tracer.instant(ctx, "net", class, to.0, TRACE_DUPLICATED);
        } else {
            tracer.instant(ctx, "net", class, to.0, TRACE_SENT);
        }

        if node == self.inner.cfg.node {
            // Local fast path: no frame exists, so the socket-only
            // shapes (garble/sever/delay) cannot apply — parity with
            // the simulated plane for drop/duplicate.
            if verdict.duplicate {
                self.deliver_local(to, msg.clone());
            }
            return self.deliver_local(to, msg);
        }

        let mut payload = WireWriter::new();
        payload.u64(to.0);
        msg.wire_encode(&mut payload);
        let payload = payload.into_bytes();
        let mut frame = encode_frame(FrameKind::Msg, &payload);
        let clean = if verdict.duplicate {
            Some(frame.clone())
        } else {
            None
        };
        if verdict.garble {
            // Flip a payload byte *after* the CRC was computed: the
            // receiver must detect and reject this frame.
            let at = FRAME_HEADER_BYTES + payload.len() / 2;
            frame[at] ^= 0x5A;
            self.inner.counter("net.tcp.garbled").inc();
        }
        let link = self.ensure_link(node, None);
        let mut shed = false;
        let out = OutFrame {
            bytes: frame,
            sever: verdict.sever,
            delay_ms: verdict.delay_ms,
        };
        if link.data_tx.try_send(out).is_err() {
            shed = true;
        }
        if let Some(bytes) = clean {
            let dup = OutFrame {
                bytes,
                sever: false,
                delay_ms: 0,
            };
            let _ = link.data_tx.try_send(dup); // a shed duplicate is no loss
        }
        if shed {
            // Bounded-buffer degradation: the peer is partitioned or too
            // slow, so this frame is load-shed rather than blocking the
            // caller. The retry layer above re-drives it.
            self.inner.counter("net.tcp.shed").inc();
            self.inner.stats.record_dropped(class);
        }
        true
    }

    fn stats(&self) -> MsgStatsSnapshot {
        self.inner.stats.snapshot()
    }

    fn reset_stats(&self) {
        self.inner.stats.reset()
    }

    fn open_ports(&self) -> usize {
        self.inner.ports.read().len()
    }

    fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        self.inner.faults.lock().set_plan(plan);
    }

    fn close_port(&self, port: PortId) -> bool {
        self.inner.ports.write().remove(&port).is_some()
    }
}

// ---------------------------------------------------------------------
// Control-frame payloads.

/// Hello: `(node, bindings)`.
type Hello = (u64, Vec<(String, PortId)>);

/// Bind: one `(name, port)`.
type Bind = (String, PortId);

fn encode_hello(node: u16, names: &HashMap<String, PortId>) -> Vec<u8> {
    let names: Vec<_> = names.iter().map(|(n, &p)| (n.clone(), p)).collect();
    (u64::from(node), names).wire_bytes()
}

fn decode_hello(bytes: &[u8]) -> Result<(u16, Vec<(String, PortId)>), WireError> {
    let (node, names) = Hello::wire_decode(bytes)?;
    match u16::try_from(node) {
        Ok(node) if node != 0 => Ok((node, names)),
        _ => Err(WireError::Malformed("hello node id out of range")),
    }
}

fn encode_bind(name: &str, port: PortId) -> Vec<u8> {
    (name.to_string(), port).wire_bytes()
}

// ---------------------------------------------------------------------
// The accept loop: owns the listener, spawns one reader per connection.

fn accept_loop<M>(listener: TcpListener, plane: Weak<Plane<M>>)
where
    M: WireMsg + MsgClass + Send + Clone + 'static,
{
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                let Some(inner) = plane.upgrade() else { return };
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                let _ = stream.set_nodelay(true);
                let _ = stream.set_nonblocking(false);
                if let Ok(clone) = stream.try_clone() {
                    inner.conns.lock().push(clone);
                }
                let weak = Weak::clone(&plane);
                let name = format!("ceh-tcp-read-{}", inner.cfg.node);
                drop(inner);
                std::thread::Builder::new()
                    .name(name)
                    .spawn(move || reader_loop(weak, stream, None))
                    .expect("spawn reader");
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let Some(inner) = plane.upgrade() else { return };
                if inner.shutdown.load(Ordering::Acquire) {
                    return;
                }
                drop(inner);
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => return,
        }
    }
}

// ---------------------------------------------------------------------
// The reader: validates and dispatches inbound frames on one connection.

/// Read frames until the connection dies or a protocol error forces a
/// sever. `peer` is the link this connection belongs to when known
/// up-front (dialed connections); accepted connections learn it from
/// the peer's hello.
fn reader_loop<M>(plane: Weak<Plane<M>>, mut stream: TcpStream, peer: Option<u16>)
where
    M: WireMsg + MsgClass + Send + Clone + 'static,
{
    let mut peer_node: Option<u16> = peer;
    loop {
        let mut header = [0u8; FRAME_HEADER_BYTES];
        if stream.read_exact(&mut header).is_err() {
            break;
        }
        let Some(inner) = plane.upgrade() else { break };
        if inner.shutdown.load(Ordering::Acquire) {
            break;
        }
        let frame = match decode_header(&header) {
            Ok(h) => h,
            Err(e) => {
                protocol_error(&inner, peer_node, &e);
                break;
            }
        };
        let mut payload = vec![0u8; frame.len];
        drop(inner);
        if stream.read_exact(&mut payload).is_err() {
            break;
        }
        let Some(inner) = plane.upgrade() else { break };
        if let Err(e) = check_payload(&frame, &payload) {
            protocol_error(&inner, peer_node, &e);
            break;
        }
        inner
            .metrics
            .histogram("net.tcp.frame.recv_bytes")
            .record((FRAME_HEADER_BYTES + frame.len) as u64);
        // Any valid frame is proof of life.
        if let Some(node) = peer_node {
            touch_peer(&inner, node);
        }
        match frame.kind {
            FrameKind::Hello => match decode_hello(&payload) {
                Ok((node, names)) => {
                    peer_node = Some(node);
                    {
                        let mut table = inner.names.write();
                        for (name, port) in names {
                            table.insert(name, port);
                        }
                    }
                    // An accepted connection is the *only* route back to
                    // a dial-less peer (a client): hand its write half
                    // to that link's writer.
                    let link = {
                        let links = inner.links.read();
                        links.get(&node).map(Arc::clone)
                    };
                    let link = link.unwrap_or_else(|| {
                        let plane_handle = TcpPlane {
                            inner: Arc::clone(&inner),
                        };
                        plane_handle.ensure_link(node, None)
                    });
                    if link.dial.is_none() && peer.is_none() {
                        if let Ok(clone) = stream.try_clone() {
                            *link.inbound.lock() = Some(clone);
                            link.inbound_cv.notify_all();
                        }
                    }
                    touch_peer(&inner, node);
                }
                Err(e) => {
                    protocol_error(&inner, peer_node, &e);
                    break;
                }
            },
            FrameKind::Bind => match Bind::wire_decode(&payload) {
                Ok((name, port)) => {
                    inner.names.write().insert(name, port);
                }
                Err(e) => {
                    protocol_error(&inner, peer_node, &e);
                    break;
                }
            },
            FrameKind::Msg => {
                let mut r = WireReader::new(&payload);
                let decoded = r.u64().and_then(|to| {
                    let msg = M::wire_decode(&payload[8..])?;
                    Ok((PortId(to), msg))
                });
                match decoded {
                    Ok((to, msg)) => {
                        let ports = inner.ports.read();
                        if let Some(tx) = ports.get(&to) {
                            let _ = tx.send(msg);
                        } else {
                            drop(ports);
                            inner.counter("net.tcp.dead_letter").inc();
                        }
                    }
                    Err(e) => {
                        protocol_error(&inner, peer_node, &e);
                        break;
                    }
                }
            }
            FrameKind::Ping => {
                // Answer over our own supervised link to the peer.
                if let Some(node) = peer_node {
                    let links = inner.links.read();
                    if let Some(link) = links.get(&node) {
                        let _ = link.ctrl_tx.send(encode_frame(FrameKind::Pong, &[]));
                    }
                }
            }
            FrameKind::Pong => {} // the touch above was the point
            FrameKind::Bye => break,
        }
        drop(inner);
    }
    // Dead or poisoned connection: make sure the paired writer notices
    // promptly (its next write fails) instead of waiting for a timeout.
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

fn protocol_error<M: Send + 'static>(inner: &Arc<Plane<M>>, peer: Option<u16>, err: &WireError) {
    inner.counter("net.tcp.protocol_error").inc();
    let kind = match err {
        WireError::BadMagic(_) => "bad_magic",
        WireError::BadVersion(_) => "bad_version",
        WireError::BadKind(_) => "bad_kind",
        WireError::Oversize(_) => "oversize",
        WireError::BadCrc { .. } => "bad_crc",
        WireError::Truncated => "truncated",
        WireError::Malformed(_) => "malformed",
    };
    inner
        .counter(&format!("net.tcp.protocol_error.{kind}"))
        .inc();
    // The stream cannot be resynchronized; the caller severs it. Mark
    // the link degraded so the gauge shows the wound until reconnect.
    if let Some(node) = peer {
        let links = inner.links.read();
        if let Some(link) = links.get(&node) {
            link.set_gauge(PeerState::Degraded);
        }
    }
}

fn touch_peer<M: Send + 'static>(inner: &Arc<Plane<M>>, node: u16) {
    let links = inner.links.read();
    if let Some(link) = links.get(&node) {
        let mut fsm = link.fsm.lock();
        let before = fsm.state();
        fsm.on_activity(inner.now_ms());
        let after = fsm.state();
        drop(fsm);
        if before != after {
            link.set_gauge(after);
        }
    }
}

// ---------------------------------------------------------------------
// The writer: owns the link's connection lifecycle.

/// Obtain a connection (dial with backoff, or wait for an accepted one),
/// handshake, then pump the control + data queues through it while
/// ticking the supervisor. One long-lived thread per link.
fn writer_loop<M>(plane: Weak<Plane<M>>, link: Arc<Link>)
where
    M: WireMsg + MsgClass + Send + Clone + 'static,
{
    loop {
        let Some(inner) = plane.upgrade() else { return };
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        // --- obtain a connection ---------------------------------
        let stream = match link.dial {
            Some(addr) => {
                let timeout = Duration::from_millis(inner.cfg.connect_timeout_ms);
                match TcpStream::connect_timeout(&addr, timeout) {
                    Ok(s) => s,
                    Err(_) => {
                        inner.counter("net.tcp.dial_fail").inc();
                        let delay = {
                            let mut fsm = link.fsm.lock();
                            let d = fsm.on_disconnect(inner.now_ms());
                            link.set_gauge(fsm.state());
                            d
                        };
                        inner.counter("net.tcp.backoff_ms").add(delay);
                        drop(inner);
                        sleep_watching(&plane, delay);
                        continue;
                    }
                }
            }
            None => {
                // Inbound-only link: wait for the accept loop's deposit.
                let mut slot = link.inbound.lock();
                while slot.is_none() {
                    link.inbound_cv
                        .wait_for(&mut slot, Duration::from_millis(100));
                    let Some(inner) = plane.upgrade() else { return };
                    if inner.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                }
                slot.take().expect("checked above")
            }
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(Duration::from_millis(inner.cfg.write_timeout_ms)));
        if let Ok(clone) = stream.try_clone() {
            inner.conns.lock().push(clone);
        }

        // --- handshake -------------------------------------------
        let hello = encode_hello(inner.cfg.node, &inner.local_names.read().clone());
        let mut stream = stream;
        if stream
            .write_all(&encode_frame(FrameKind::Hello, &hello))
            .is_err()
        {
            disconnect(&plane, &link, &mut stream);
            continue;
        }
        {
            let mut fsm = link.fsm.lock();
            let was_retrying = fsm.dial_attempts() > 0;
            fsm.on_connected(inner.now_ms());
            link.set_gauge(fsm.state());
            inner.counter("net.tcp.connect").inc();
            if was_retrying {
                inner.counter("net.tcp.reconnect").inc();
            }
        }
        // A dialed connection needs its own reader (accepted ones were
        // given a reader by the accept loop).
        if link.dial.is_some() {
            if let Ok(read_half) = stream.try_clone() {
                let weak = Weak::clone(&plane);
                let node = link.node;
                std::thread::Builder::new()
                    .name(format!("ceh-tcp-read-{}-{}", inner.cfg.node, node))
                    .spawn(move || reader_loop(weak, read_half, Some(node)))
                    .expect("spawn reader");
            }
        }
        drop(inner);

        // --- pump ------------------------------------------------
        'pump: loop {
            let Some(inner) = plane.upgrade() else { return };
            if inner.shutdown.load(Ordering::Acquire) {
                let _ = stream.write_all(&encode_frame(FrameKind::Bye, &[]));
                return;
            }
            // Liveness.
            let action = {
                let mut fsm = link.fsm.lock();
                let a = fsm.tick(inner.now_ms());
                link.set_gauge(fsm.state());
                a
            };
            match action {
                TickAction::SendPing => {
                    if stream
                        .write_all(&encode_frame(FrameKind::Ping, &[]))
                        .is_err()
                    {
                        disconnect(&plane, &link, &mut stream);
                        break 'pump;
                    }
                }
                TickAction::Degrade => {
                    inner.counter("net.tcp.degraded").inc();
                }
                TickAction::Sever => {
                    inner.counter("net.tcp.liveness_sever").inc();
                    disconnect(&plane, &link, &mut stream);
                    break 'pump;
                }
                TickAction::None => {}
            }
            // Control frames first — supervision and name replication
            // must flow even when data is being shed.
            let mut ctrl_dead = false;
            while let Ok(bytes) = link.ctrl_rx.try_recv() {
                if stream.write_all(&bytes).is_err() {
                    disconnect(&plane, &link, &mut stream);
                    ctrl_dead = true;
                    break;
                }
            }
            if ctrl_dead {
                break 'pump;
            }
            let send_hist = inner.metrics.histogram("net.tcp.frame.send_bytes");
            drop(inner);
            match link.data_rx.recv_timeout(Duration::from_millis(25)) {
                Ok(frame) => {
                    if frame.delay_ms > 0 {
                        // Injected delay holds the whole link (head-of-
                        // line), which is exactly what a stalled socket
                        // does to a real connection.
                        sleep_watching(&plane, frame.delay_ms);
                    }
                    if stream.write_all(&frame.bytes).is_err() {
                        disconnect(&plane, &link, &mut stream);
                        break 'pump;
                    }
                    send_hist.record(frame.bytes.len() as u64);
                    if frame.sever {
                        let Some(inner) = plane.upgrade() else { return };
                        inner.counter("net.tcp.injected_sever").inc();
                        drop(inner);
                        disconnect(&plane, &link, &mut stream);
                        break 'pump;
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => return,
            }
        }
    }
}

/// Tear the connection down, transition the FSM, pay the backoff.
fn disconnect<M: Send + 'static>(plane: &Weak<Plane<M>>, link: &Arc<Link>, stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Both);
    let Some(inner) = plane.upgrade() else { return };
    let delay = {
        let mut fsm = link.fsm.lock();
        let d = fsm.on_disconnect(inner.now_ms());
        link.set_gauge(fsm.state());
        d
    };
    inner.counter("net.tcp.backoff_ms").add(delay);
    drop(inner);
    if link.dial.is_some() {
        sleep_watching(plane, delay);
    }
    // Inbound-only links do not redial: the writer loops back to waiting
    // on the accept deposit, which is the peer's redial arriving.
}

/// Sleep in small slices, bailing out early at shutdown.
fn sleep_watching<M: Send + 'static>(plane: &Weak<Plane<M>>, total_ms: u64) {
    let mut left = total_ms;
    while left > 0 {
        let step = left.min(20);
        std::thread::sleep(Duration::from_millis(step));
        left -= step;
        let Some(inner) = plane.upgrade() else { return };
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        drop(inner);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::RecvError;
    use std::net::{IpAddr, Ipv4Addr};

    #[derive(Debug, Clone, PartialEq)]
    struct TestMsg(u64);
    impl MsgClass for TestMsg {
        fn class(&self) -> &'static str {
            "test"
        }
    }
    crate::wire!(TestMsg(u64));

    fn loopback() -> SocketAddr {
        SocketAddr::new(IpAddr::V4(Ipv4Addr::LOCALHOST), 0)
    }

    fn recv_deadline<M: Send + 'static>(rx: &PortRx<M>, secs: u64) -> Result<M, RecvError> {
        rx.recv_timeout(Duration::from_secs(secs))
    }

    #[test]
    fn two_planes_roundtrip_with_name_replication() {
        let metrics = ceh_obs::MetricsHandle::new();
        let a: TcpPlane<TestMsg> =
            TcpPlane::start(TcpConfig::new(1).listen(loopback()), &metrics).unwrap();
        let (port, rx) = a.create_port();
        a.register_name("svc", port);

        let b: TcpPlane<TestMsg> = TcpPlane::start(
            TcpConfig::new(2).peer(1, a.local_addr().unwrap()),
            &ceh_obs::MetricsHandle::new(),
        )
        .unwrap();
        // The hello handshake replicates "svc" to b.
        let deadline = Instant::now() + Duration::from_secs(5);
        let resolved = loop {
            if let Some(p) = b.lookup("svc") {
                break p;
            }
            assert!(Instant::now() < deadline, "name never replicated");
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(resolved, port);
        assert_eq!(resolved.node(), 1);

        assert!(b.send(resolved, TestMsg(42)));
        assert_eq!(recv_deadline(&rx, 5).unwrap(), TestMsg(42));
        assert_eq!(b.stats().get("test"), 1);

        // Reply path: server → client over the accepted connection.
        let (bp, brx) = b.create_port();
        b.register_name("client", bp);
        let deadline = Instant::now() + Duration::from_secs(5);
        let back = loop {
            if let Some(p) = a.lookup("client") {
                break p;
            }
            assert!(Instant::now() < deadline, "bind never replicated");
            std::thread::sleep(Duration::from_millis(10));
        };
        assert!(a.send(back, TestMsg(7)));
        assert_eq!(recv_deadline(&brx, 5).unwrap(), TestMsg(7));

        b.close();
        a.close();
    }

    #[test]
    fn local_sends_never_touch_a_socket() {
        let metrics = ceh_obs::MetricsHandle::new();
        let a: TcpPlane<TestMsg> = TcpPlane::start(TcpConfig::new(3), &metrics).unwrap();
        let (port, rx) = a.create_port();
        assert!(a.send(port, TestMsg(9)));
        assert_eq!(rx.recv().unwrap(), TestMsg(9));
        assert!(
            !a.send(PortId::for_node(3, 9999), TestMsg(1)),
            "dead local port"
        );
        a.close();
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The control payloads' bytes, pinned (one name, so the map's order
    /// is fixed): a layout change fails here and must bump the version.
    #[test]
    fn hello_and_bind_bytes_are_pinned() {
        let port = PortId::for_node(3, 7);
        let names = HashMap::from([("dirmgr-0".to_string(), port)]);
        let hello = encode_hello(3, &names);
        assert_eq!(
            hex(&hello),
            "030000000000000001000000080000006469726d67722d300700000000000300"
        );
        assert_eq!(
            decode_hello(&hello),
            Ok((3, vec![("dirmgr-0".to_string(), port)]))
        );
        let bind = encode_bind("bucket-1", port);
        assert_eq!(hex(&bind), "080000006275636b65742d310700000000000300");
        assert_eq!(Bind::wire_decode(&bind), Ok(("bucket-1".to_string(), port)));
    }
}
