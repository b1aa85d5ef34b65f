//! The fault plane: seeded, deterministic message-level fault injection.
//!
//! §3 assumes "reliable delivery" from the transport, but the paper's
//! liveness story — "a request can be made to any of the copies and
//! eventually it will reach the desired data" — is only interesting when
//! something goes wrong. A [`FaultPlan`] makes the simulated network
//! lossy on purpose:
//!
//! * **per-class drop probability** — each send of a matching class is
//!   eaten with probability `p`;
//! * **per-class duplication probability** — each send of a matching
//!   class is delivered twice with probability `p` (the duplicate takes
//!   an independently sampled latency, so it can also arrive *reordered*);
//! * **port blackholes** — every message toward a port vanishes (a
//!   crashed process whose mail falls on the floor);
//! * **one-way cuts** — messages of one class toward one port vanish
//!   while everything else flows (a one-way partition of that link).
//!
//! The real transport ([`crate::TcpPlane`]) consumes the same plan at the
//! *socket* boundary, where three more fault shapes become meaningful:
//!
//! * **garble** — the frame's payload bytes are flipped in flight; the
//!   receiver's CRC check must catch it (a protocol error, counted and
//!   degraded, never a wedge);
//! * **sever** — the TCP connection carrying the frame is torn down
//!   mid-send; the supervisor must reconnect with backoff;
//! * **delay** — the frame is held for a fixed number of milliseconds
//!   before hitting the socket (head-of-line delay, unlike the sim
//!   plane's per-message latency).
//!
//! The simulated plane ignores the socket-only shapes (there is no frame
//! to garble and no connection to sever), so a plan built for a chaos
//! scenario can be installed on either plane: drop/duplicate decisions
//! come from the *same* per-class decision streams on both.
//!
//! Senders in this network are anonymous by design (the paper's
//! port-based communication), so links are identified by *(class,
//! destination)* rather than *(source, destination)*: "the copyupdate
//! traffic into replica 2 is down" is expressible, "manager 3 cannot
//! reach replica 2" is not. The message taxonomy is fine-grained enough
//! (Figure 11) that this is rarely a restriction in practice.
//!
//! # Determinism
//!
//! Every probabilistic decision is a pure function of `(seed, class,
//! n)` where `n` is the per-class sequence number of the send. Two runs
//! that send the same number of messages of a class therefore drop and
//! duplicate exactly the same count of that class — regardless of how
//! threads interleave, because the decision stream per class is fixed in
//! advance. (Which *specific* message draws an unlucky sequence number
//! can still differ between interleavings; counts cannot.) Each fault
//! shape draws from its own salt, so adding a garble rule does not
//! perturb the drop stream.
//!
//! # Validation
//!
//! Probabilities must be in `[0, 1]`. The builders *panic* on anything
//! else — a rate of `7.0` is a bug in the experiment, not a request for
//! certainty, and silently clamping it would make the configured plan
//! and the executed plan differ without a trace. [`FaultPlan::describe`]
//! renders the effective plan for the RunReport so every run records
//! exactly what was injected.

use std::collections::{HashMap, HashSet};

use crate::network::PortId;

/// A probabilistic fault rule: drop/duplicate/garble/sever/delay
/// matching messages.
#[derive(Debug, Clone)]
struct Rule {
    /// Class label this rule applies to; `None` matches every class.
    class: Option<String>,
    /// Probability a matching send is dropped (0.0..=1.0).
    drop: f64,
    /// Probability a matching send is delivered twice (0.0..=1.0).
    duplicate: f64,
    /// Probability a matching frame's bytes are corrupted (TCP only).
    garble: f64,
    /// Probability the connection is severed mid-send (TCP only).
    sever: f64,
    /// Probability a matching frame is held before sending (TCP only).
    delay: f64,
    /// How long a delayed frame is held, in milliseconds.
    delay_ms: u64,
}

impl Rule {
    fn quiet(class: Option<String>) -> Rule {
        Rule {
            class,
            drop: 0.0,
            duplicate: 0.0,
            garble: 0.0,
            sever: 0.0,
            delay: 0.0,
            delay_ms: 0,
        }
    }
}

/// Combined per-class fault probabilities after stacking every matching
/// rule (independent draws: `1 - Π(1 - p)`).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultProbs {
    /// Probability the send is dropped.
    pub drop: f64,
    /// Probability the send is delivered twice.
    pub duplicate: f64,
    /// Probability the frame is garbled on the wire (TCP only).
    pub garble: f64,
    /// Probability the connection is severed mid-send (TCP only).
    pub sever: f64,
    /// Probability the frame is delayed before sending (TCP only).
    pub delay: f64,
    /// Hold time for delayed frames (max over matching rules).
    pub delay_ms: u64,
}

impl FaultProbs {
    fn any_message(&self) -> bool {
        self.drop > 0.0 || self.duplicate > 0.0
    }

    fn any_frame(&self) -> bool {
        self.any_message() || self.garble > 0.0 || self.sever > 0.0 || self.delay > 0.0
    }
}

/// A seeded, deterministic fault schedule for a [`crate::SimNetwork`] or
/// a [`crate::TcpPlane`].
///
/// Build one with the fluent methods, then install it via
/// `set_fault_plan` on either plane. Structural faults (blackholes,
/// one-way cuts) are toggled live on the network itself because they
/// model runtime events (crashes, partitions), not a static schedule.
///
/// Probabilities outside `[0, 1]` **panic** in the builder — see the
/// module docs on validation.
///
/// ```
/// use ceh_net::FaultPlan;
/// let plan = FaultPlan::new(0xC4A05)
///     .drop_all(0.05)
///     .duplicate_class("copyupdate", 0.01)
///     .sever_all(0.001);
/// assert!(plan.is_faulty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<Rule>,
    /// Classes the probabilistic rules never touch (admin/control
    /// traffic). Structural faults (blackholes, cuts) still apply: a
    /// crashed process answers nothing, exempt or not.
    exempt: HashSet<String>,
}

impl FaultPlan {
    /// An empty plan with the given RNG seed. Until rules are added it
    /// injects nothing.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            rules: Vec::new(),
            exempt: HashSet::new(),
        }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Drop every class of message with probability `p`.
    ///
    /// # Panics
    /// If `p` is not a probability in `[0, 1]`.
    pub fn drop_all(mut self, p: f64) -> Self {
        let mut r = Rule::quiet(None);
        r.drop = check_p(p, "drop");
        self.rules.push(r);
        self
    }

    /// Drop messages of `class` with probability `p`.
    ///
    /// # Panics
    /// If `p` is not a probability in `[0, 1]`.
    pub fn drop_class(mut self, class: impl Into<String>, p: f64) -> Self {
        let mut r = Rule::quiet(Some(class.into()));
        r.drop = check_p(p, "drop");
        self.rules.push(r);
        self
    }

    /// Drop messages of every listed class with probability `p`.
    ///
    /// # Panics
    /// If `p` is not a probability in `[0, 1]`.
    pub fn drop_classes(mut self, classes: &[&str], p: f64) -> Self {
        for c in classes {
            self = self.drop_class(*c, p);
        }
        self
    }

    /// Deliver every class of message twice with probability `p`.
    ///
    /// # Panics
    /// If `p` is not a probability in `[0, 1]`.
    pub fn duplicate_all(mut self, p: f64) -> Self {
        let mut r = Rule::quiet(None);
        r.duplicate = check_p(p, "duplicate");
        self.rules.push(r);
        self
    }

    /// Deliver messages of `class` twice with probability `p`.
    ///
    /// # Panics
    /// If `p` is not a probability in `[0, 1]`.
    pub fn duplicate_class(mut self, class: impl Into<String>, p: f64) -> Self {
        let mut r = Rule::quiet(Some(class.into()));
        r.duplicate = check_p(p, "duplicate");
        self.rules.push(r);
        self
    }

    /// Deliver messages of every listed class twice with probability `p`.
    ///
    /// # Panics
    /// If `p` is not a probability in `[0, 1]`.
    pub fn duplicate_classes(mut self, classes: &[&str], p: f64) -> Self {
        for c in classes {
            self = self.duplicate_class(*c, p);
        }
        self
    }

    /// Garble (corrupt on the wire) every class of frame with
    /// probability `p`. Socket-only: the simulated plane ignores it.
    ///
    /// # Panics
    /// If `p` is not a probability in `[0, 1]`.
    pub fn garble_all(mut self, p: f64) -> Self {
        let mut r = Rule::quiet(None);
        r.garble = check_p(p, "garble");
        self.rules.push(r);
        self
    }

    /// Garble frames of `class` with probability `p`. Socket-only.
    ///
    /// # Panics
    /// If `p` is not a probability in `[0, 1]`.
    pub fn garble_class(mut self, class: impl Into<String>, p: f64) -> Self {
        let mut r = Rule::quiet(Some(class.into()));
        r.garble = check_p(p, "garble");
        self.rules.push(r);
        self
    }

    /// Garble each class in `classes` with probability `p`.
    /// Socket-only.
    ///
    /// # Panics
    /// If `p` is not a probability in `[0, 1]`.
    pub fn garble_classes(mut self, classes: &[&str], p: f64) -> Self {
        for c in classes {
            self = self.garble_class(*c, p);
        }
        self
    }

    /// Sever the carrying connection on every class of frame with
    /// probability `p`. Socket-only: the simulated plane ignores it.
    ///
    /// # Panics
    /// If `p` is not a probability in `[0, 1]`.
    pub fn sever_all(mut self, p: f64) -> Self {
        let mut r = Rule::quiet(None);
        r.sever = check_p(p, "sever");
        self.rules.push(r);
        self
    }

    /// Sever the carrying connection on frames of `class` with
    /// probability `p`. Socket-only.
    ///
    /// # Panics
    /// If `p` is not a probability in `[0, 1]`.
    pub fn sever_class(mut self, class: impl Into<String>, p: f64) -> Self {
        let mut r = Rule::quiet(Some(class.into()));
        r.sever = check_p(p, "sever");
        self.rules.push(r);
        self
    }

    /// Hold every class of frame for `ms` milliseconds with probability
    /// `p` before it hits the socket. Socket-only.
    ///
    /// # Panics
    /// If `p` is not a probability in `[0, 1]`.
    pub fn delay_all(mut self, p: f64, ms: u64) -> Self {
        let mut r = Rule::quiet(None);
        r.delay = check_p(p, "delay");
        r.delay_ms = ms;
        self.rules.push(r);
        self
    }

    /// Hold frames of `class` for `ms` milliseconds with probability
    /// `p`. Socket-only.
    ///
    /// # Panics
    /// If `p` is not a probability in `[0, 1]`.
    pub fn delay_class(mut self, class: impl Into<String>, p: f64, ms: u64) -> Self {
        let mut r = Rule::quiet(Some(class.into()));
        r.delay = check_p(p, "delay");
        r.delay_ms = ms;
        self.rules.push(r);
        self
    }

    /// Exempt `class` from every probabilistic rule, present and
    /// future — including the `*_all` wildcards. The observability
    /// plane installs this for its stats traffic: a chaos plan that
    /// drops every application frame must not blind the dashboard
    /// watching the chaos. Structural faults (blackholes, one-way
    /// cuts) are *not* bypassed: they model a dead process or a cut
    /// link, and those answer nothing regardless of class.
    pub fn exempt_class(mut self, class: impl Into<String>) -> Self {
        self.exempt.insert(class.into());
        self
    }

    /// Exempt every listed class (see [`FaultPlan::exempt_class`]).
    pub fn exempt_classes(mut self, classes: &[&str]) -> Self {
        for c in classes {
            self.exempt.insert((*c).to_string());
        }
        self
    }

    /// Is `class` exempt from the probabilistic rules?
    pub fn is_exempt(&self, class: &str) -> bool {
        self.exempt.contains(class)
    }

    /// Does this plan inject any probabilistic faults at all?
    pub fn is_faulty(&self) -> bool {
        self.rules.iter().any(|r| {
            r.drop > 0.0 || r.duplicate > 0.0 || r.garble > 0.0 || r.sever > 0.0 || r.delay > 0.0
        })
    }

    /// Render the effective plan for the RunReport: seed plus every
    /// rule, so a run's record states exactly what was injected.
    pub fn describe(&self) -> String {
        let mut out = format!("seed={:#x}", self.seed);
        for r in &self.rules {
            let target = r.class.as_deref().unwrap_or("*");
            for (label, p) in [
                ("drop", r.drop),
                ("dup", r.duplicate),
                ("garble", r.garble),
                ("sever", r.sever),
            ] {
                if p > 0.0 {
                    out.push_str(&format!(" {label}({target})={p}"));
                }
            }
            if r.delay > 0.0 {
                out.push_str(&format!(" delay({target})={}@{}ms", r.delay, r.delay_ms));
            }
        }
        if !self.exempt.is_empty() {
            let mut classes: Vec<&str> = self.exempt.iter().map(String::as_str).collect();
            classes.sort_unstable();
            out.push_str(&format!(" exempt({})", classes.join(",")));
        }
        out
    }

    /// Combined per-class fault probabilities: rules stack by
    /// independent draws, so probabilities combine as `1 - Π(1 - p)`
    /// (and delay hold times combine as the max over matching rules).
    pub fn probabilities(&self, class: &str) -> FaultProbs {
        if self.exempt.contains(class) {
            return FaultProbs::default();
        }
        let mut keep = [1.0f64; 5];
        let mut delay_ms = 0u64;
        for r in &self.rules {
            if r.class.as_deref().is_none_or(|c| c == class) {
                keep[0] *= 1.0 - r.drop;
                keep[1] *= 1.0 - r.duplicate;
                keep[2] *= 1.0 - r.garble;
                keep[3] *= 1.0 - r.sever;
                keep[4] *= 1.0 - r.delay;
                if r.delay > 0.0 {
                    delay_ms = delay_ms.max(r.delay_ms);
                }
            }
        }
        FaultProbs {
            drop: 1.0 - keep[0],
            duplicate: 1.0 - keep[1],
            garble: 1.0 - keep[2],
            sever: 1.0 - keep[3],
            delay: 1.0 - keep[4],
            delay_ms,
        }
    }
}

/// Builder-time probability validation: anything outside `[0, 1]`
/// (including NaN) is a configuration bug and panics with the offending
/// value — never silently clamped.
fn check_p(p: f64, what: &str) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p),
        "FaultPlan: {what} probability {p} is not in [0, 1]"
    );
    p
}

/// SplitMix64: a tiny, high-quality mixing function. Used to derive the
/// per-(seed, class, sequence, salt) uniform variate so every decision is
/// a pure function of its inputs (and by the supervisor's backoff jitter).
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over the class label: a stable per-class salt.
fn class_salt(class: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in class.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A uniform f64 in [0, 1) from the decision inputs.
fn uniform(seed: u64, class: &str, seq: u64, salt: u64) -> f64 {
    let bits = splitmix64(seed ^ class_salt(class) ^ splitmix64(seq) ^ salt);
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// Per-shape decision salts. Distinct salts give each fault shape an
/// independent decision stream from the same per-class sequence, so a
/// plan gaining a garble rule does not perturb which sends get dropped.
const SALT_DROP: u64 = 0xD809;
const SALT_DUP: u64 = 0xD0BB;
const SALT_GARBLE: u64 = 0x6A4B;
const SALT_SEVER: u64 = 0x5EAE;
const SALT_DELAY: u64 = 0xDE1A;

/// What the fault plane decided for one send (simulated plane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Deliver normally.
    Deliver,
    /// Deliver twice.
    Duplicate,
    /// Eat the message.
    Drop,
}

/// What the fault plane decided for one *frame* (TCP plane). A frame
/// can draw several shapes at once; they compose left to right: a
/// dropped frame never garbles, but a duplicated frame can also be
/// garbled, the sever fires after any delivery, and so on. The plane
/// applies them in the struct's field order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameVerdict {
    /// Eat the frame (never reaches the socket).
    pub drop: bool,
    /// Send the frame twice.
    pub duplicate: bool,
    /// Corrupt the payload bytes on the wire.
    pub garble: bool,
    /// Tear down the connection after this frame's fate is applied.
    pub sever: bool,
    /// Hold the frame this long before sending (0 = no delay).
    pub delay_ms: u64,
}

impl FrameVerdict {
    /// No fault at all — the frame goes out untouched.
    pub fn is_clean(&self) -> bool {
        *self == FrameVerdict::default()
    }
}

/// Live fault state owned by the network: the installed plan plus the
/// runtime structural faults and the per-class decision counters.
#[derive(Debug, Default)]
pub(crate) struct FaultState {
    plan: Option<FaultPlan>,
    /// Per-class sequence numbers driving the deterministic decisions.
    class_seq: HashMap<&'static str, u64>,
    /// Ports whose entire inbound traffic is eaten.
    blackholes: HashSet<PortId>,
    /// (class, port) pairs whose inbound traffic is eaten.
    cuts: HashSet<(String, PortId)>,
}

impl FaultState {
    pub(crate) fn set_plan(&mut self, plan: Option<FaultPlan>) {
        self.plan = plan;
        self.class_seq.clear();
    }

    pub(crate) fn blackhole(&mut self, port: PortId) {
        self.blackholes.insert(port);
    }

    pub(crate) fn heal_blackhole(&mut self, port: PortId) {
        self.blackholes.remove(&port);
    }

    pub(crate) fn cut(&mut self, class: &str, port: PortId) {
        self.cuts.insert((class.to_string(), port));
    }

    pub(crate) fn heal_cut(&mut self, class: &str, port: PortId) {
        self.cuts.remove(&(class.to_string(), port));
    }

    /// Nothing installed and nothing cut? (Fast-path check; callers skip
    /// the verdict entirely.)
    pub(crate) fn is_quiet(&self) -> bool {
        self.plan.as_ref().is_none_or(|p| !p.is_faulty())
            && self.blackholes.is_empty()
            && self.cuts.is_empty()
    }

    fn structural_drop(&self, class: &'static str, to: PortId) -> bool {
        self.blackholes.contains(&to)
            || (!self.cuts.is_empty() && self.cuts.contains(&(class.to_string(), to)))
    }

    /// Decide the fate of one send on the simulated plane. Only the
    /// message-level shapes apply: there is no frame to garble and no
    /// connection to sever.
    pub(crate) fn verdict(&mut self, class: &'static str, to: PortId) -> Verdict {
        if self.structural_drop(class, to) {
            return Verdict::Drop;
        }
        let Some(plan) = &self.plan else {
            return Verdict::Deliver;
        };
        let probs = plan.probabilities(class);
        if !probs.any_message() {
            return Verdict::Deliver;
        }
        let seq = self.class_seq.entry(class).or_insert(0);
        let n = *seq;
        *seq += 1;
        if probs.drop > 0.0 && uniform(plan.seed, class, n, SALT_DROP) < probs.drop {
            return Verdict::Drop;
        }
        if probs.duplicate > 0.0 && uniform(plan.seed, class, n, SALT_DUP) < probs.duplicate {
            return Verdict::Duplicate;
        }
        Verdict::Deliver
    }

    /// Decide the fate of one frame on the TCP plane. Shares the
    /// per-class sequence with [`FaultState::verdict`], and the drop/dup
    /// draws use the same salts — so a plan that only drops and
    /// duplicates makes *identical* per-class decisions on both planes.
    pub(crate) fn frame_verdict(&mut self, class: &'static str, to: PortId) -> FrameVerdict {
        if self.structural_drop(class, to) {
            return FrameVerdict {
                drop: true,
                ..FrameVerdict::default()
            };
        }
        let Some(plan) = &self.plan else {
            return FrameVerdict::default();
        };
        let probs = plan.probabilities(class);
        if !probs.any_frame() {
            return FrameVerdict::default();
        }
        let seq = self.class_seq.entry(class).or_insert(0);
        let n = *seq;
        *seq += 1;
        let seed = plan.seed;
        let draw = |p: f64, salt: u64| p > 0.0 && uniform(seed, class, n, salt) < p;
        FrameVerdict {
            drop: draw(probs.drop, SALT_DROP),
            duplicate: draw(probs.duplicate, SALT_DUP),
            garble: draw(probs.garble, SALT_GARBLE),
            sever: draw(probs.sever, SALT_SEVER),
            delay_ms: if draw(probs.delay, SALT_DELAY) {
                probs.delay_ms
            } else {
                0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_quiet() {
        let mut st = FaultState::default();
        st.set_plan(Some(FaultPlan::new(1)));
        assert!(st.is_quiet());
        assert_eq!(st.verdict("find", PortId(1)), Verdict::Deliver);
        assert!(st.frame_verdict("find", PortId(1)).is_clean());
    }

    #[test]
    fn decisions_are_deterministic_per_class_sequence() {
        let plan = FaultPlan::new(42).drop_all(0.3).duplicate_all(0.1);
        let mut a = FaultState::default();
        let mut b = FaultState::default();
        a.set_plan(Some(plan.clone()));
        b.set_plan(Some(plan));
        for i in 0..1000 {
            // Different destination ports must not perturb the stream.
            let va = a.verdict("find", PortId(i % 7));
            let vb = b.verdict("find", PortId(100 + i % 3));
            assert_eq!(va, vb, "decision {i} diverged");
        }
    }

    #[test]
    fn interleaving_classes_does_not_change_per_class_decisions() {
        let plan = FaultPlan::new(7).drop_all(0.5);
        let mut pure = FaultState::default();
        pure.set_plan(Some(plan.clone()));
        let pure_stream: Vec<_> = (0..200).map(|_| pure.verdict("find", PortId(0))).collect();

        let mut mixed = FaultState::default();
        mixed.set_plan(Some(plan));
        let mut mixed_stream = Vec::new();
        for i in 0..200 {
            // Interleave other-class traffic between every find.
            for _ in 0..(i % 3) {
                mixed.verdict("copyupdate", PortId(9));
            }
            mixed_stream.push(mixed.verdict("find", PortId(0)));
        }
        assert_eq!(pure_stream, mixed_stream);
    }

    #[test]
    fn drop_rate_lands_near_probability() {
        let mut st = FaultState::default();
        st.set_plan(Some(FaultPlan::new(3).drop_class("find", 0.05)));
        let drops = (0..20_000)
            .filter(|_| st.verdict("find", PortId(0)) == Verdict::Drop)
            .count();
        assert!(
            (800..1200).contains(&drops),
            "5% of 20k ≈ 1000, got {drops}"
        );
        // Unmatched classes untouched.
        assert_eq!(st.verdict("insert", PortId(0)), Verdict::Deliver);
    }

    #[test]
    fn blackholes_and_cuts_are_structural_and_healable() {
        let mut st = FaultState::default();
        st.blackhole(PortId(5));
        assert_eq!(st.verdict("find", PortId(5)), Verdict::Drop);
        assert_eq!(st.verdict("find", PortId(6)), Verdict::Deliver);
        st.heal_blackhole(PortId(5));
        assert_eq!(st.verdict("find", PortId(5)), Verdict::Deliver);

        st.cut("copyupdate", PortId(2));
        assert_eq!(st.verdict("copyupdate", PortId(2)), Verdict::Drop);
        assert_eq!(
            st.verdict("copy-ack", PortId(2)),
            Verdict::Deliver,
            "one-way"
        );
        st.heal_cut("copyupdate", PortId(2));
        assert_eq!(st.verdict("copyupdate", PortId(2)), Verdict::Deliver);
    }

    #[test]
    fn stacked_rules_combine() {
        let plan = FaultPlan::new(0).drop_all(0.5).drop_class("find", 0.5);
        let p = plan.probabilities("find");
        assert!((p.drop - 0.75).abs() < 1e-9);
        let p_other = plan.probabilities("insert");
        assert!((p_other.drop - 0.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "drop probability 7 is not in [0, 1]")]
    fn out_of_range_probability_panics_instead_of_clamping() {
        let _ = FaultPlan::new(0).drop_all(7.0);
    }

    #[test]
    #[should_panic(expected = "not in [0, 1]")]
    fn nan_probability_panics() {
        let _ = FaultPlan::new(0).sever_all(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "duplicate probability -0.1 is not in [0, 1]")]
    fn negative_probability_panics() {
        let _ = FaultPlan::new(0).duplicate_class("find", -0.1);
    }

    #[test]
    fn describe_renders_the_effective_plan() {
        let plan = FaultPlan::new(0xC4A05)
            .drop_all(0.05)
            .duplicate_class("copyupdate", 0.01)
            .garble_class("find", 0.02)
            .sever_all(0.001)
            .delay_class("insert", 0.1, 25);
        let d = plan.describe();
        assert!(d.contains("seed=0xc4a05"), "{d}");
        assert!(d.contains("drop(*)=0.05"), "{d}");
        assert!(d.contains("dup(copyupdate)=0.01"), "{d}");
        assert!(d.contains("garble(find)=0.02"), "{d}");
        assert!(d.contains("sever(*)=0.001"), "{d}");
        assert!(d.contains("delay(insert)=0.1@25ms"), "{d}");
    }

    #[test]
    fn exempt_classes_bypass_even_wildcard_rules_but_not_structural_faults() {
        // The admin plane's contract: a chaos plan that drops, severs,
        // and delays EVERYTHING must leave exempt (stats) traffic
        // untouched...
        let plan = FaultPlan::new(13)
            .drop_all(1.0)
            .sever_all(1.0)
            .delay_all(1.0, 50)
            .exempt_classes(&["stats-request", "stats-reply"]);
        assert!(plan.is_exempt("stats-request"));
        assert!(!plan.is_exempt("request"));
        assert_eq!(plan.probabilities("stats-reply"), FaultProbs::default());
        assert_eq!(plan.probabilities("request").drop, 1.0);
        assert!(plan
            .describe()
            .contains("exempt(stats-reply,stats-request)"));

        let mut st = FaultState::default();
        st.set_plan(Some(plan));
        for _ in 0..100 {
            assert_eq!(st.verdict("stats-request", PortId(1)), Verdict::Deliver);
            assert!(st.frame_verdict("stats-reply", PortId(1)).is_clean());
            assert_eq!(st.verdict("request", PortId(1)), Verdict::Drop);
        }
        // ...but a blackholed (dead) port still answers nothing.
        st.blackhole(PortId(2));
        assert_eq!(st.verdict("stats-request", PortId(2)), Verdict::Drop);
        assert!(st.frame_verdict("stats-request", PortId(2)).drop);
    }

    #[test]
    fn frame_and_message_drop_streams_align() {
        // A drop/dup-only plan must make the same per-class decisions
        // whether consumed as message verdicts (sim) or frame verdicts
        // (TCP): the chaos suite's seeded scenarios carry over.
        let plan = FaultPlan::new(99).drop_all(0.3).duplicate_all(0.2);
        let mut sim = FaultState::default();
        let mut tcp = FaultState::default();
        sim.set_plan(Some(plan.clone()));
        tcp.set_plan(Some(plan));
        for i in 0..2000 {
            let m = sim.verdict("request", PortId(1));
            let f = tcp.frame_verdict("request", PortId(1));
            assert_eq!(m == Verdict::Drop, f.drop, "send {i}");
            assert_eq!(m == Verdict::Duplicate, f.duplicate && !f.drop, "send {i}");
        }
    }

    #[test]
    fn socket_shapes_draw_independent_streams() {
        let base = FaultPlan::new(5).drop_all(0.25);
        let extended = FaultPlan::new(5).drop_all(0.25).garble_all(0.5);
        let mut a = FaultState::default();
        let mut b = FaultState::default();
        a.set_plan(Some(base));
        b.set_plan(Some(extended));
        let mut garbles = 0;
        for i in 0..2000 {
            let fa = a.frame_verdict("find", PortId(0));
            let fb = b.frame_verdict("find", PortId(0));
            assert_eq!(fa.drop, fb.drop, "garble rule perturbed drops at {i}");
            assert!(!fa.garble);
            garbles += fb.garble as usize;
        }
        assert!((800..1200).contains(&garbles), "50% of 2000, got {garbles}");
    }

    #[test]
    fn delay_and_sever_fire_at_about_their_rates() {
        let mut st = FaultState::default();
        st.set_plan(Some(FaultPlan::new(11).delay_all(0.5, 40).sever_all(0.1)));
        let (mut delays, mut severs) = (0, 0);
        for _ in 0..2000 {
            let f = st.frame_verdict("update", PortId(3));
            if f.delay_ms > 0 {
                assert_eq!(f.delay_ms, 40);
                delays += 1;
            }
            severs += f.sever as usize;
        }
        assert!((800..1200).contains(&delays), "got {delays}");
        assert!((120..280).contains(&severs), "got {severs}");
    }
}
