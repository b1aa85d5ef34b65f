//! Ports, delivery, and the name service.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::RwLock;

use crate::fault::{FaultPlan, FaultState, Verdict};
use crate::latency::LatencyModel;
use crate::stats::{MsgStats, MsgStatsSnapshot};

/// Classifies messages for the per-class counters; the distributed crate
/// implements this with Figure 11's message taxonomy (`"find"`,
/// `"wrongbucket"`, `"copyupdate"`, …).
pub trait MsgClass {
    /// The message's class label.
    fn class(&self) -> &'static str;

    /// The causal context this message carries, if any. Messages that
    /// embed a [`ceh_obs::TraceCtx`] (the distributed operation
    /// envelope, replication and GC traffic) return it here so the
    /// network can stamp send/deliver/drop/duplicate events against the
    /// originating request's trace. The default — no context — keeps
    /// plain message types working unchanged.
    fn trace_ctx(&self) -> ceh_obs::TraceCtx {
        ceh_obs::TraceCtx::NONE
    }
}

/// `b` payload of a `net` trace event: the message was handed to the
/// destination port (zero-latency path: send and delivery coincide).
pub const TRACE_SENT: u64 = 0;
/// `b` payload of a `net` trace event: the fault plane ate the message.
pub const TRACE_DROPPED: u64 = 1;
/// `b` payload of a `net` trace event: an injected duplicate will also
/// be delivered.
pub const TRACE_DUPLICATED: u64 = 2;
/// `b` payload of a `net` trace event: a delayed message reached its
/// destination (latency-model path only).
pub const TRACE_DELIVERED: u64 = 3;

/// A port identifier: the paper's "long-lived identifier for a manager
/// port". Senders are anonymous — delivery carries no sender identity
/// unless the message itself embeds a reply port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub u64);

impl PortId {
    /// Compose a port id for the TCP plane: the owning node in the top
    /// 16 bits, a node-local port number below. Simulated-plane ports
    /// allocate small integers, i.e. live on node 0.
    pub fn for_node(node: u16, local: u64) -> PortId {
        PortId((u64::from(node) << 48) | (local & 0xFFFF_FFFF_FFFF))
    }

    /// The node this port lives on (0 for simulated-plane ports).
    pub fn node(self) -> u16 {
        (self.0 >> 48) as u16
    }

    /// The node-local port number.
    pub fn local(self) -> u64 {
        self.0 & 0xFFFF_FFFF_FFFF
    }
}

/// Receiving failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvError {
    /// No message available yet (try/timeout variants only).
    Empty,
    /// The network (all sender handles) has shut down.
    Disconnected,
}

struct Delayed<M> {
    to: PortId,
    msg: M,
    /// Sampled at send time (the sender knows the message class).
    delay: Duration,
    /// Send timestamp, for the `net.delivery_ns` latency histogram.
    sent_at: Instant,
    /// Class and causal context captured at send time, so delivery can
    /// be stamped against the originating trace without re-inspecting
    /// the message.
    class: &'static str,
    ctx: ceh_obs::TraceCtx,
}

struct Inner<M> {
    ports: RwLock<HashMap<PortId, Sender<M>>>,
    names: RwLock<HashMap<String, PortId>>,
    stats: MsgStats,
    next_port: AtomicU64,
    /// Present when a latency model is configured; messages are routed
    /// through the delivery thread instead of sent directly.
    delay_tx: Option<Sender<Delayed<M>>>,
    latency: LatencyModel,
    sampler: parking_lot::Mutex<crate::latency::LatencySampler>,
    faults: parking_lot::Mutex<FaultState>,
    /// For trace stamping; shares the registry every layer reports to.
    metrics: ceh_obs::MetricsHandle,
}

impl<M> Inner<M> {
    fn deliver(&self, to: PortId, msg: M) -> bool {
        let ports = self.ports.read();
        match ports.get(&to) {
            Some(tx) => tx.send(msg).is_ok(),
            None => false,
        }
    }
}

/// The simulated network. Clone freely; all clones share the same port
/// space, name service, and counters.
pub struct SimNetwork<M: Send + 'static> {
    inner: Arc<Inner<M>>,
}

impl<M: Send + 'static> Clone for SimNetwork<M> {
    fn clone(&self) -> Self {
        SimNetwork {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<M: Send + 'static> Default for SimNetwork<M> {
    fn default() -> Self {
        Self::new(LatencyModel::none())
    }
}

impl<M: Send + 'static> SimNetwork<M> {
    /// Create a network with the given latency model and a private
    /// metrics registry.
    pub fn new(latency: LatencyModel) -> Self {
        Self::with_metrics(latency, &ceh_obs::MetricsHandle::default())
    }

    /// Create a network whose per-class message counters and delivery
    /// latency land in `metrics`' registry (under the `net.` prefix),
    /// correlated with every other layer wired to the same handle.
    pub fn with_metrics(latency: LatencyModel, metrics: &ceh_obs::MetricsHandle) -> Self {
        let delay_tx = if latency.is_zero() {
            None
        } else {
            Some(channel::unbounded::<Delayed<M>>())
        };

        let inner = Arc::new(Inner {
            ports: RwLock::new(HashMap::new()),
            names: RwLock::new(HashMap::new()),
            stats: MsgStats::with_handle(metrics),
            next_port: AtomicU64::new(1),
            delay_tx: delay_tx.as_ref().map(|(tx, _)| tx.clone()),
            sampler: parking_lot::Mutex::new(latency.sampler()),
            latency,
            faults: parking_lot::Mutex::new(FaultState::default()),
            metrics: metrics.clone(),
        });

        if let Some((_tx, rx)) = delay_tx {
            let weak = Arc::downgrade(&inner);
            std::thread::Builder::new()
                .name("ceh-net-delay".into())
                .spawn(move || delay_loop(rx, weak))
                .expect("spawn delivery thread");
        }

        SimNetwork { inner }
    }

    /// Create a port. Returns the id (give it out; it is the address) and
    /// the receiving half (keep it; only the owner can receive).
    pub fn create_port(&self) -> (PortId, PortRx<M>) {
        let id = PortId(self.inner.next_port.fetch_add(1, Ordering::Relaxed));
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

    /// Register a name for a port (the paper's manager identifiers).
    /// Re-registering a name rebinds it.
    pub fn register_name(&self, name: impl Into<String>, port: PortId) {
        self.inner.names.write().insert(name.into(), port);
    }

    /// Resolve a name (`namelookup` in Figures 13–14).
    pub fn lookup(&self, name: &str) -> Option<PortId> {
        self.inner.names.read().get(name).copied()
    }

    /// Message counters.
    pub fn stats(&self) -> MsgStatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Zero the message counters.
    pub fn reset_stats(&self) {
        self.inner.stats.reset()
    }

    /// Number of open ports (diagnostic).
    pub fn open_ports(&self) -> usize {
        self.inner.ports.read().len()
    }

    /// Install (or with `None`, remove) a probabilistic fault plan. The
    /// plan's per-class decision counters restart from zero, so the same
    /// plan replayed over the same per-class traffic volumes reproduces
    /// the same drop/duplicate counts.
    pub fn set_fault_plan(&self, plan: Option<FaultPlan>) {
        self.inner.faults.lock().set_plan(plan);
    }

    /// Eat every message addressed to `port` until [`Self::heal_port`].
    /// Models a crashed or unreachable process whose mail falls on the
    /// floor; the sender still sees `send` succeed.
    pub fn blackhole_port(&self, port: PortId) {
        self.inner.faults.lock().blackhole(port);
    }

    /// Undo [`Self::blackhole_port`].
    pub fn heal_port(&self, port: PortId) {
        self.inner.faults.lock().heal_blackhole(port);
    }

    /// Eat messages of `class` addressed to `port` (a one-way partition
    /// of that link) until [`Self::heal_one_way`]. Senders are anonymous
    /// here, so links are identified by *(class, destination)* — see the
    /// module docs of [`crate::FaultPlan`].
    pub fn cut_one_way(&self, class: &str, port: PortId) {
        self.inner.faults.lock().cut(class, port);
    }

    /// Undo [`Self::cut_one_way`].
    pub fn heal_one_way(&self, class: &str, port: PortId) {
        self.inner.faults.lock().heal_cut(class, port);
    }

    /// Forcibly close a port from outside its owner: subsequent sends to
    /// the id return `false` and the owner's receive loop sees
    /// [`RecvError::Disconnected`] once the buffered backlog drains.
    /// This crashes the owning process *at a message boundary*: mail
    /// already queued is still handled, everything sent afterwards is
    /// refused. Returns `false` if the port was not open.
    pub fn close_port(&self, port: PortId) -> bool {
        self.inner.ports.write().remove(&port).is_some()
    }
}

impl<M: Send + MsgClass + Clone + 'static> SimNetwork<M> {
    /// Send `msg` to `to`. Reliable while the port exists *and no fault
    /// is injected*: the message is buffered without bound until
    /// received. Returns `false` if the port has been closed (shutdown
    /// teardown), which callers treat as "the recipient is gone".
    ///
    /// Under an installed [`FaultPlan`] (or a blackhole / one-way cut)
    /// the message may be silently eaten — `send` still returns `true`
    /// then, because a lossy network cannot tell the sender its packet
    /// died. Drops are still counted as sent (the sender paid for the
    /// send) plus once in the dropped family; an injected duplicate is
    /// delivered twice but counted as sent once, plus once in the
    /// duplicated family.
    pub fn send(&self, to: PortId, msg: M) -> bool {
        let class = msg.class();
        self.inner.stats.record(class);
        let verdict = {
            let mut faults = self.inner.faults.lock();
            if faults.is_quiet() {
                Verdict::Deliver
            } else {
                faults.verdict(class, to)
            }
        };
        let tracer = self.inner.metrics.tracer();
        let ctx = if tracer.is_enabled() {
            msg.trace_ctx()
        } else {
            ceh_obs::TraceCtx::NONE
        };
        match verdict {
            Verdict::Drop => {
                self.inner.stats.record_dropped(class);
                tracer.instant(ctx, "net", class, to.0, TRACE_DROPPED);
                return true;
            }
            Verdict::Duplicate => {
                self.inner.stats.record_duplicated(class);
                tracer.instant(ctx, "net", class, to.0, TRACE_DUPLICATED);
            }
            Verdict::Deliver => tracer.instant(ctx, "net", class, to.0, TRACE_SENT),
        }
        match &self.inner.delay_tx {
            None => {
                if verdict == Verdict::Duplicate {
                    self.inner.deliver(to, msg.clone());
                }
                self.inner.deliver(to, msg)
            }
            Some(tx) => {
                // Each copy samples its own delay, so a duplicate can
                // arrive reordered relative to the original.
                let sent_at = Instant::now();
                if verdict == Verdict::Duplicate {
                    let delay =
                        self.inner.sampler.lock().sample() + self.inner.latency.extra_for(class);
                    let _ = tx.send(Delayed {
                        to,
                        msg: msg.clone(),
                        delay,
                        sent_at,
                        class,
                        ctx,
                    });
                }
                let delay =
                    self.inner.sampler.lock().sample() + self.inner.latency.extra_for(class);
                tx.send(Delayed {
                    to,
                    msg,
                    delay,
                    sent_at,
                    class,
                    ctx,
                })
                .is_ok()
            }
        }
    }
}

fn delay_loop<M: Send + 'static>(rx: Receiver<Delayed<M>>, net: Weak<Inner<M>>) {
    struct Due<M> {
        at: Instant,
        seq: u64,
        item: Delayed<M>,
    }
    impl<M> PartialEq for Due<M> {
        fn eq(&self, o: &Self) -> bool {
            self.at == o.at && self.seq == o.seq
        }
    }
    impl<M> Eq for Due<M> {}
    impl<M> PartialOrd for Due<M> {
        fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(o))
        }
    }
    impl<M> Ord for Due<M> {
        fn cmp(&self, o: &Self) -> std::cmp::Ordering {
            (self.at, self.seq).cmp(&(o.at, o.seq))
        }
    }

    let mut heap: BinaryHeap<Reverse<Due<M>>> = BinaryHeap::new();
    let mut seq = 0u64;
    loop {
        // Deliver everything due.
        let now = Instant::now();
        while heap.peek().is_some_and(|Reverse(d)| d.at <= now) {
            let Reverse(d) = heap.pop().expect("peeked");
            let Some(inner) = net.upgrade() else { return };
            inner
                .stats
                .record_delivery_ns(d.item.sent_at.elapsed().as_nanos() as u64);
            inner.metrics.tracer().instant(
                d.item.ctx,
                "net",
                d.item.class,
                d.item.to.0,
                TRACE_DELIVERED,
            );
            inner.deliver(d.item.to, d.item.msg);
        }
        // Wait for the next arrival or the next due time.
        let next = match heap.peek() {
            Some(Reverse(d)) => {
                let now = Instant::now();
                match rx.recv_timeout(d.at.saturating_duration_since(now)) {
                    Ok(item) => Some(item),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => {
                        // Drain: deliver the backlog immediately, then exit.
                        while let Some(Reverse(d)) = heap.pop() {
                            let Some(inner) = net.upgrade() else { return };
                            inner
                                .stats
                                .record_delivery_ns(d.item.sent_at.elapsed().as_nanos() as u64);
                            inner.metrics.tracer().instant(
                                d.item.ctx,
                                "net",
                                d.item.class,
                                d.item.to.0,
                                TRACE_DELIVERED,
                            );
                            inner.deliver(d.item.to, d.item.msg);
                        }
                        return;
                    }
                }
            }
            None => match rx.recv() {
                Ok(item) => Some(item),
                Err(_) => return,
            },
        };
        if let Some(item) = next {
            seq += 1;
            let at = Instant::now() + item.delay;
            heap.push(Reverse(Due { at, seq, item }));
        }
    }
}

/// The receiving half of a port. Dropping it closes the port (subsequent
/// sends to the id return `false`).
///
/// Minted by whichever transport owns the port — the simulated network
/// and the TCP plane both hand these out, so receive loops are
/// transport-agnostic. The embedded closer tells the owning transport to
/// unregister the port on drop.
pub struct PortRx<M: Send + 'static> {
    id: PortId,
    rx: Receiver<M>,
    closer: Option<Box<dyn Fn() + Send>>,
}

impl<M: Send + 'static> PortRx<M> {
    /// Wrap a receiver as a port handle; `closer` runs exactly once when
    /// the handle drops (the transport unregisters the port there).
    pub(crate) fn with_closer(
        id: PortId,
        rx: Receiver<M>,
        closer: impl Fn() + Send + 'static,
    ) -> Self {
        PortRx {
            id,
            rx,
            closer: Some(Box::new(closer)),
        }
    }

    /// This port's id.
    pub fn id(&self) -> PortId {
        self.id
    }

    /// Block until a message arrives.
    pub fn recv(&self) -> Result<M, RecvError> {
        self.rx.recv().map_err(|_| RecvError::Disconnected)
    }

    /// Block up to `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<M, RecvError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => RecvError::Empty,
            RecvTimeoutError::Disconnected => RecvError::Disconnected,
        })
    }

    /// Non-blocking poll.
    pub fn try_recv(&self) -> Result<M, RecvError> {
        self.rx.try_recv().map_err(|e| match e {
            TryRecvError::Empty => RecvError::Empty,
            TryRecvError::Disconnected => RecvError::Disconnected,
        })
    }

    /// Messages currently buffered (diagnostic).
    pub fn queued(&self) -> usize {
        self.rx.len()
    }
}

impl<M: Send + 'static> Drop for PortRx<M> {
    fn drop(&mut self) {
        if let Some(closer) = self.closer.take() {
            closer();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct TestMsg(u32);
    impl MsgClass for TestMsg {
        fn class(&self) -> &'static str {
            if self.0.is_multiple_of(2) {
                "even"
            } else {
                "odd"
            }
        }
    }

    #[test]
    fn send_recv_roundtrip() {
        let net: SimNetwork<TestMsg> = SimNetwork::default();
        let (id, rx) = net.create_port();
        assert!(net.send(id, TestMsg(7)));
        assert_eq!(rx.recv().unwrap(), TestMsg(7));
    }

    #[test]
    fn messages_buffer_without_receiver_running() {
        let net: SimNetwork<TestMsg> = SimNetwork::default();
        let (id, rx) = net.create_port();
        for i in 0..100 {
            assert!(net.send(id, TestMsg(i)));
        }
        assert_eq!(rx.queued(), 100);
        for i in 0..100 {
            assert_eq!(
                rx.recv().unwrap(),
                TestMsg(i),
                "zero-latency network is FIFO"
            );
        }
    }

    #[test]
    fn name_service_resolves_and_rebinds() {
        let net: SimNetwork<TestMsg> = SimNetwork::default();
        let (a, _ra) = net.create_port();
        let (b, _rb) = net.create_port();
        net.register_name("mgr0", a);
        assert_eq!(net.lookup("mgr0"), Some(a));
        net.register_name("mgr0", b);
        assert_eq!(net.lookup("mgr0"), Some(b));
        assert_eq!(net.lookup("nobody"), None);
    }

    #[test]
    fn send_to_closed_port_reports_failure() {
        let net: SimNetwork<TestMsg> = SimNetwork::default();
        let (id, rx) = net.create_port();
        drop(rx);
        assert!(!net.send(id, TestMsg(0)));
        assert_eq!(net.open_ports(), 0);
    }

    #[test]
    fn stats_count_by_class() {
        let net: SimNetwork<TestMsg> = SimNetwork::default();
        let (id, _rx) = net.create_port();
        net.send(id, TestMsg(0));
        net.send(id, TestMsg(1));
        net.send(id, TestMsg(2));
        let s = net.stats();
        assert_eq!(s.get("even"), 2);
        assert_eq!(s.get("odd"), 1);
        assert_eq!(s.total(), 3);
    }

    #[test]
    fn delayed_delivery_arrives() {
        let net: SimNetwork<TestMsg> =
            SimNetwork::new(LatencyModel::fixed(Duration::from_millis(5)));
        let (id, rx) = net.create_port();
        let t0 = Instant::now();
        net.send(id, TestMsg(1));
        assert_eq!(rx.try_recv(), Err(RecvError::Empty), "not due yet");
        let got = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(got, TestMsg(1));
        assert!(t0.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn jittered_delivery_can_reorder_but_loses_nothing() {
        let net: SimNetwork<TestMsg> = SimNetwork::new(LatencyModel::jittered(
            Duration::ZERO,
            Duration::from_millis(3),
            42,
        ));
        let (id, rx) = net.create_port();
        const N: u32 = 200;
        for i in 0..N {
            net.send(id, TestMsg(i));
        }
        let mut got = Vec::new();
        for _ in 0..N {
            got.push(rx.recv_timeout(Duration::from_secs(5)).unwrap().0);
        }
        let mut sorted = got.clone();
        sorted.sort();
        assert_eq!(
            sorted,
            (0..N).collect::<Vec<_>>(),
            "reliable: every message arrives"
        );
    }

    #[test]
    fn class_extra_slows_only_that_class() {
        let net: SimNetwork<TestMsg> = SimNetwork::new(
            LatencyModel::fixed(Duration::from_micros(1))
                .with_class_extra("odd", Duration::from_millis(20)),
        );
        let (id, rx) = net.create_port();
        net.send(id, TestMsg(1)); // odd: slow
        net.send(id, TestMsg(2)); // even: fast
                                  // The even message overtakes the odd one.
        let first = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(first, TestMsg(2), "fast class arrives first");
        let second = rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(second, TestMsg(1));
    }

    #[test]
    fn recv_timeout_empty() {
        let net: SimNetwork<TestMsg> = SimNetwork::default();
        let (_id, rx) = net.create_port();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvError::Empty)
        );
    }

    #[test]
    fn fault_plan_drops_and_counts() {
        let net: SimNetwork<TestMsg> = SimNetwork::default();
        net.set_fault_plan(Some(FaultPlan::new(11).drop_class("even", 1.0)));
        let (id, rx) = net.create_port();
        assert!(
            net.send(id, TestMsg(0)),
            "drop is silent: send still succeeds"
        );
        assert!(net.send(id, TestMsg(1)));
        assert_eq!(rx.recv().unwrap(), TestMsg(1), "odd traffic unaffected");
        assert_eq!(rx.try_recv(), Err(RecvError::Empty));
        let s = net.stats();
        assert_eq!(
            s.get("even"),
            1,
            "a dropped message is still counted as sent"
        );
        assert_eq!(s.dropped("even"), 1);
        assert_eq!(s.dropped("odd"), 0);
        net.set_fault_plan(None);
        assert!(net.send(id, TestMsg(2)));
        assert_eq!(
            rx.recv().unwrap(),
            TestMsg(2),
            "plan removal heals the network"
        );
    }

    #[test]
    fn fault_plan_duplicates_deliver_twice() {
        let net: SimNetwork<TestMsg> = SimNetwork::default();
        net.set_fault_plan(Some(FaultPlan::new(5).duplicate_all(1.0)));
        let (id, rx) = net.create_port();
        net.send(id, TestMsg(7));
        assert_eq!(rx.recv().unwrap(), TestMsg(7));
        assert_eq!(rx.recv().unwrap(), TestMsg(7));
        let s = net.stats();
        assert_eq!(s.get("odd"), 1, "the duplicate is not counted as sent");
        assert_eq!(s.duplicated("odd"), 1);
    }

    #[test]
    fn duplicates_flow_through_the_delay_path() {
        let net: SimNetwork<TestMsg> =
            SimNetwork::new(LatencyModel::fixed(Duration::from_millis(1)));
        net.set_fault_plan(Some(FaultPlan::new(5).duplicate_all(1.0)));
        let (id, rx) = net.create_port();
        net.send(id, TestMsg(3));
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap(), TestMsg(3));
        assert_eq!(rx.recv_timeout(Duration::from_secs(2)).unwrap(), TestMsg(3));
    }

    #[test]
    fn same_seed_same_fault_counts() {
        let run = |seed: u64| {
            let net: SimNetwork<TestMsg> = SimNetwork::default();
            net.set_fault_plan(Some(FaultPlan::new(seed).drop_all(0.2).duplicate_all(0.1)));
            let (id, _rx) = net.create_port();
            for i in 0..500 {
                net.send(id, TestMsg(i));
            }
            let s = net.stats();
            (s.dropped_total(), s.duplicated_total())
        };
        assert_eq!(run(99), run(99));
        assert_ne!(
            run(99),
            run(100),
            "different seed, different schedule (w.h.p.)"
        );
    }

    #[test]
    fn blackhole_eats_until_healed() {
        let net: SimNetwork<TestMsg> = SimNetwork::default();
        let (id, rx) = net.create_port();
        net.blackhole_port(id);
        assert!(net.send(id, TestMsg(1)));
        assert_eq!(rx.try_recv(), Err(RecvError::Empty));
        assert_eq!(net.stats().dropped("odd"), 1);
        net.heal_port(id);
        net.send(id, TestMsg(3));
        assert_eq!(rx.recv().unwrap(), TestMsg(3));
    }

    #[test]
    fn one_way_cut_is_class_and_port_scoped() {
        let net: SimNetwork<TestMsg> = SimNetwork::default();
        let (a, ra) = net.create_port();
        let (b, rb) = net.create_port();
        net.cut_one_way("odd", a);
        net.send(a, TestMsg(1)); // eaten
        net.send(a, TestMsg(2)); // even: flows
        net.send(b, TestMsg(3)); // other port: flows
        assert_eq!(ra.recv().unwrap(), TestMsg(2));
        assert_eq!(ra.try_recv(), Err(RecvError::Empty));
        assert_eq!(rb.recv().unwrap(), TestMsg(3));
        net.heal_one_way("odd", a);
        net.send(a, TestMsg(5));
        assert_eq!(ra.recv().unwrap(), TestMsg(5));
    }

    #[test]
    fn traced_messages_are_stamped_on_send_drop_and_delivery() {
        #[derive(Debug, Clone)]
        struct Traced(u32, ceh_obs::TraceCtx);
        impl MsgClass for Traced {
            fn class(&self) -> &'static str {
                "op"
            }
            fn trace_ctx(&self) -> ceh_obs::TraceCtx {
                self.1
            }
        }
        let metrics = ceh_obs::MetricsHandle::new();
        metrics.tracer().enable(64);
        let net: SimNetwork<Traced> = SimNetwork::with_metrics(LatencyModel::none(), &metrics);
        let ctx = metrics.trace_begin(ceh_obs::TraceCtx::NONE, "dist", "request", 0, 0);
        let (id, rx) = net.create_port();
        net.send(id, Traced(1, ctx));
        assert_eq!(rx.recv().unwrap().0, 1);
        net.set_fault_plan(Some(FaultPlan::new(3).drop_all(1.0)));
        net.send(id, Traced(2, ctx));
        net.set_fault_plan(None);
        // Untraced messages produce no events.
        net.send(id, Traced(3, ceh_obs::TraceCtx::NONE));
        let ev = metrics.tracer().drain();
        let net_ev: Vec<_> = ev.iter().filter(|e| e.layer == "net").collect();
        assert_eq!(net_ev.len(), 2);
        assert!(net_ev.iter().all(|e| e.trace == ctx.trace_id));
        assert_eq!(net_ev[0].event, "op");
        assert_eq!(net_ev[0].b, TRACE_SENT);
        assert_eq!(net_ev[1].b, TRACE_DROPPED);

        // Latency path: delivery is stamped too.
        metrics.tracer().enable(64);
        let net: SimNetwork<Traced> =
            SimNetwork::with_metrics(LatencyModel::fixed(Duration::from_millis(1)), &metrics);
        let ctx = metrics.trace_begin(ceh_obs::TraceCtx::NONE, "dist", "request", 0, 0);
        let (id, rx) = net.create_port();
        net.send(id, Traced(9, ctx));
        rx.recv_timeout(Duration::from_secs(2)).unwrap();
        let ev = metrics.tracer().drain();
        assert!(ev
            .iter()
            .any(|e| e.layer == "net" && e.b == TRACE_DELIVERED && e.trace == ctx.trace_id));
    }

    #[test]
    fn close_port_crashes_at_a_message_boundary() {
        let net: SimNetwork<TestMsg> = SimNetwork::default();
        let (id, rx) = net.create_port();
        net.send(id, TestMsg(1));
        assert!(net.close_port(id));
        assert!(!net.close_port(id), "second close is a no-op");
        assert!(!net.send(id, TestMsg(2)), "post-crash sends are refused");
        assert_eq!(rx.recv().unwrap(), TestMsg(1), "pre-crash backlog drains");
        assert_eq!(rx.recv(), Err(RecvError::Disconnected));
        assert_eq!(net.open_ports(), 0);
    }
}
