//! Deterministic fault injection for the message fabric.
//!
//! A [`FaultPlan`] describes, per (src, dst) link, how often messages are
//! delayed, duplicated, or dropped. Decisions are drawn from a per-link
//! [`SplitMix64`] stream seeded from the plan's seed, so the *schedule* of
//! fault decisions (the fate of the k-th send on each link) is reproducible
//! from the seed alone. Which protocol message happens to be the k-th send
//! on a link still depends on thread interleaving — the plan makes the
//! adversary deterministic, not the execution.
//!
//! A delayed message stalls its *whole link*: later messages on the same
//! link queue behind it, so the fabric's point-to-point FIFO order, which
//! Stache's grant/recall ordering relies on, holds under every plan.
//! Duplicates are delivered back-to-back. Stache's directory protocol
//! tolerates delays, drops and duplicates given the seqno/retry machinery
//! in `prescient-stache`.
//!
//! Delays are measured in subsequent *send events on the same link*: a
//! message delayed by `k` is released once `k` further sends hit that link.
//! This keeps the fault layer free of wall-clock time (fully deterministic
//! given a send sequence) and guarantees that retransmissions — which are
//! themselves sends — eventually flush a stalled link.
//!
//! Self-sends (`src == dst`) are never faulted: they model a node's local
//! hand-off to its own protocol handler, not network traffic, and the
//! protocols rely on them for shutdown and home-local grants.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use crate::fabric::Envelope;
pub use crate::rng::SplitMix64;
use crate::stats::FaultStats;
use crate::sync::lock;
use crate::trace::{pack_counts, EventKind, Tracer};

/// Fate code a [`EventKind::FaultInject`] trace event carries: delayed.
pub const FATE_DELAY: u64 = 1;
/// Fate code: duplicated.
pub const FATE_DUP: u64 = 2;
/// Fate code: dropped.
pub const FATE_DROP: u64 = 3;
/// Fate code: a previously held message was released.
pub const FATE_RELEASE: u64 = 4;
/// Fate code: dropped because the link was inside a partition window.
pub const FATE_PARTITION: u64 = 5;

/// Which links a [`PartitionSpec`] severs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionScope {
    /// Every inter-node link: a full network partition.
    All,
    /// Every link into or out of one node: that node is isolated.
    Node(u16),
    /// The two directed links between a pair of nodes.
    Pair(u16, u16),
}

impl PartitionScope {
    /// Does this scope sever the directed link `src -> dst`?
    pub fn severs(&self, src: u16, dst: u16) -> bool {
        match *self {
            PartitionScope::All => true,
            PartitionScope::Node(n) => src == n || dst == n,
            PartitionScope::Pair(a, b) => (src, dst) == (a, b) || (src, dst) == (b, a),
        }
    }
}

/// A deterministic link partition: every message on a severed link is
/// dropped while the link's send-event counter is inside
/// `[from_event, until_event)`. Windows are measured in per-link send
/// events — the same wall-clock-free discipline delays use — so the
/// partition schedule is reproducible from the plan alone. An
/// `until_event` of `u64::MAX` severs the links for the rest of the run
/// (the watchdog's deadlock fixture).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionSpec {
    /// Which links are severed.
    pub scope: PartitionScope,
    /// First per-link send event inside the window.
    pub from_event: u64,
    /// First per-link send event past the window.
    pub until_event: u64,
}

impl PartitionSpec {
    /// Sever every inter-node link from the first send onward, forever.
    pub fn total() -> PartitionSpec {
        PartitionSpec { scope: PartitionScope::All, from_event: 0, until_event: u64::MAX }
    }

    /// Restrict the window to `[from, until)` per-link send events.
    pub fn during(mut self, from: u64, until: u64) -> PartitionSpec {
        self.from_event = from;
        self.until_event = until;
        self
    }

    /// Is the directed link `src -> dst` severed at send event `event`?
    pub fn active(&self, src: u16, dst: u16, event: u64) -> bool {
        self.scope.severs(src, dst) && event >= self.from_event && event < self.until_event
    }
}

/// A seeded whole-node crash: "crash node `node` at its `at_version`-th
/// phase execution". Defined beside the message-fault plan because it is
/// the same kind of object — a deterministic adversary schedule — but
/// *consumed* above the fabric: the runtime fires it at the phase
/// boundary, where a barrier-consistent checkpoint makes the crash
/// recoverable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// The node that crashes.
    pub node: u16,
    /// The per-node phase-execution ordinal (1-based, counted at
    /// `phase_begin`) whose completion the crash destroys.
    pub at_version: u64,
}

impl CrashPlan {
    /// Crash `node` at its `at_version`-th phase execution.
    pub fn new(node: u16, at_version: u64) -> CrashPlan {
        CrashPlan { node, at_version }
    }

    /// Parse a `PRESCIENT_CRASH` value: `"node@version"` (e.g. `2@5`
    /// crashes node 2 at its 5th phase execution); `0` or `off` means no
    /// crash (`Ok(None)`). (`runtime::env` owns the variable and the
    /// wording of its error.)
    pub fn parse(s: &str) -> Result<Option<CrashPlan>, String> {
        let v = s.trim();
        if v == "0" || v.eq_ignore_ascii_case("off") {
            return Ok(None);
        }
        let (node, version) = v.split_once('@').ok_or("no `@`")?;
        let node = node.trim().parse().map_err(|_| "the node is not a u16")?;
        let at_version = version.trim().parse().map_err(|_| "the version is not a u64")?;
        Ok(Some(CrashPlan { node, at_version }))
    }
}

/// A seeded, deterministic description of the faults to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the per-link decision streams.
    pub seed: u64,
    /// Probability (per mille) that a message is delayed.
    pub delay_per_mille: u16,
    /// Maximum delay, in subsequent send events on the same link; the
    /// link stalls behind a delayed message until then.
    pub max_delay: u32,
    /// Probability (per mille) that a message is duplicated.
    pub dup_per_mille: u16,
    /// Probability (per mille) that a message is dropped.
    pub drop_per_mille: u16,
    /// Optional link partition: severed links drop every message inside
    /// the event window.
    pub partition: Option<PartitionSpec>,
}

impl FaultPlan {
    /// A plan that injects nothing (useful as a base for the builders).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            delay_per_mille: 0,
            max_delay: 0,
            dup_per_mille: 0,
            drop_per_mille: 0,
            partition: None,
        }
    }

    /// The default chaos mix: delays, duplicates, and drops.
    pub fn chaos(seed: u64) -> FaultPlan {
        FaultPlan::new(seed).delaying(100, 3).duplicating(60).dropping(25)
    }

    /// Delay messages with the given probability, up to `max_delay` link
    /// send events.
    pub fn delaying(mut self, per_mille: u16, max_delay: u32) -> FaultPlan {
        self.delay_per_mille = per_mille;
        self.max_delay = max_delay;
        self
    }

    /// Duplicate messages with the given probability.
    pub fn duplicating(mut self, per_mille: u16) -> FaultPlan {
        self.dup_per_mille = per_mille;
        self
    }

    /// Drop messages with the given probability.
    pub fn dropping(mut self, per_mille: u16) -> FaultPlan {
        self.drop_per_mille = per_mille;
        self
    }

    /// Sever links per `spec` (drop-all inside its event window).
    pub fn partitioned(mut self, spec: PartitionSpec) -> FaultPlan {
        self.partition = Some(spec);
        self
    }

    /// Does this plan inject anything at all?
    pub fn is_active(&self) -> bool {
        self.delay_per_mille > 0
            || self.dup_per_mille > 0
            || self.drop_per_mille > 0
            || self.partition.is_some()
    }
}

/// Per-message fate drawn from a link's decision stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    Deliver,
    Drop,
    Duplicate,
    Delay(u32),
}

fn decide(rng: &mut SplitMix64, plan: &FaultPlan) -> Decision {
    if rng.chance(plan.drop_per_mille) {
        Decision::Drop
    } else if rng.chance(plan.dup_per_mille) {
        Decision::Duplicate
    } else if rng.chance(plan.delay_per_mille) {
        Decision::Delay(rng.up_to(plan.max_delay))
    } else {
        Decision::Deliver
    }
}

/// The object-safe face of the fault layer, as the fabric's flush path
/// sees it. Only [`FaultState`] implements it, and only for `M: Clone` —
/// the duplication fault must clone payloads — so a clean fabric (no
/// fault layer installed) places no `Clone` bound on its payload type.
pub trait FaultHook<M>: Send + Sync {
    /// Pass one envelope through the layer; `deliver` is invoked for every
    /// copy that comes out (possibly zero, possibly several including
    /// releases of previously held messages). `tracer` is the sending
    /// node's tracing handle; injected fates are emitted on it as
    /// [`EventKind::FaultInject`] events.
    fn process(&self, env: Envelope<M>, tracer: &Tracer, deliver: &mut dyn FnMut(Envelope<M>));

    /// Discard every message the layer is currently holding (delayed or
    /// stalled traffic). Called by the recovery protocol at a quiescent
    /// cut, where any held message is semantically dead: replaying the
    /// phase regenerates whatever traffic is still needed. Default: no-op
    /// (a layer that holds nothing has nothing to purge).
    fn purge(&self) {}
}

impl<M: Send + Clone> FaultHook<M> for FaultState<M> {
    fn process(&self, env: Envelope<M>, tracer: &Tracer, deliver: &mut dyn FnMut(Envelope<M>)) {
        FaultState::process(self, env, tracer, deliver)
    }

    fn purge(&self) {
        FaultState::purge(self)
    }
}

/// Mutable per-link state: the decision stream plus held (delayed) traffic.
struct Link<M> {
    rng: SplitMix64,
    /// Send events seen on this link.
    events: u64,
    /// Event count until which the link is stalled.
    stall_until: u64,
    /// Held messages, in send order; all release at `stall_until`.
    held: VecDeque<Envelope<M>>,
}

/// The fault layer of one fabric: per-link decision streams, held traffic,
/// and counters.
pub struct FaultState<M> {
    plan: FaultPlan,
    n: usize,
    links: Vec<Mutex<Link<M>>>,
    stats: Arc<FaultStats>,
}

impl<M: Clone> FaultState<M> {
    /// Build the fault layer for an `n`-node fabric.
    pub fn new(n: usize, plan: FaultPlan) -> FaultState<M> {
        let mut links = Vec::with_capacity(n * n);
        for i in 0..n * n {
            // Mix the link index into the seed so links get distinct streams.
            let mut seeder =
                SplitMix64::new(plan.seed ^ (i as u64).wrapping_mul(0xa076_1d64_78bd_642f));
            links.push(Mutex::new(Link {
                rng: SplitMix64::new(seeder.next_u64()),
                events: 0,
                stall_until: 0,
                held: VecDeque::new(),
            }));
        }
        FaultState { plan, n, links, stats: Arc::default() }
    }

    /// The plan this layer was built with.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// The fabric's fault counters.
    pub fn stats(&self) -> &Arc<FaultStats> {
        &self.stats
    }

    /// Pass one envelope through the fault layer. `deliver` is invoked for
    /// every copy that comes out (possibly zero, possibly several including
    /// releases of previously held messages). Called with the link lock
    /// held, so per-link delivery order is atomic. Injected fates (and
    /// releases of held traffic) are emitted on `tracer` — the sending
    /// node's handle — as [`EventKind::FaultInject`] events.
    pub fn process(&self, env: Envelope<M>, tracer: &Tracer, deliver: &mut dyn FnMut(Envelope<M>)) {
        if env.src == env.dst {
            deliver(env); // local hand-off, never faulted
            return;
        }
        let dst = env.dst;
        let idx = env.src as usize * self.n + dst as usize;
        let mut l = lock(&self.links[idx]);
        l.events += 1;
        // Partition windows override the probabilistic fates: a severed
        // link drops everything. The message still consumes its draw from
        // the decision stream, so fates outside the window stay exactly
        // the unpartitioned plan's (the k-th send keeps the k-th fate).
        if let Some(p) = &self.plan.partition {
            if p.active(env.src, dst, l.events - 1) {
                let _ = decide(&mut l.rng, &self.plan);
                self.stats.count_dropped();
                tracer.emit(EventKind::FaultInject, u64::from(dst), pack_counts(FATE_PARTITION, 0));
                return;
            }
        }
        match decide(&mut l.rng, &self.plan) {
            Decision::Drop => {
                self.stats.count_dropped();
                tracer.emit(EventKind::FaultInject, u64::from(dst), pack_counts(FATE_DROP, 0));
            }
            Decision::Delay(k) => {
                self.stats.count_delayed();
                tracer.emit(
                    EventKind::FaultInject,
                    u64::from(dst),
                    pack_counts(FATE_DELAY, u64::from(k)),
                );
                l.stall_until = l.stall_until.max(l.events + u64::from(k));
                l.held.push_back(env);
            }
            d @ (Decision::Deliver | Decision::Duplicate) => {
                let dup = d == Decision::Duplicate;
                if dup {
                    self.stats.count_duplicated();
                    tracer.emit(EventKind::FaultInject, u64::from(dst), pack_counts(FATE_DUP, 0));
                }
                // While the link is stalled, even undelayed messages must
                // queue behind the held ones.
                if !l.held.is_empty() {
                    if dup {
                        l.held.push_back(env.clone());
                    }
                    l.held.push_back(env);
                } else {
                    if dup {
                        deliver(env.clone());
                    }
                    deliver(env);
                }
            }
        }
        // Release whatever is due.
        let mut released = 0u64;
        if l.events >= l.stall_until {
            while let Some(e) = l.held.pop_front() {
                self.stats.count_released();
                released += 1;
                deliver(e);
            }
        }
        if released > 0 {
            tracer.emit(
                EventKind::FaultInject,
                u64::from(dst),
                pack_counts(FATE_RELEASE, released),
            );
        }
    }

    /// Discard all held traffic on every link and un-stall the links. See
    /// [`FaultHook::purge`]: at a recovery cut every held message belongs
    /// to the rolled-back execution, so dropping the queues (without
    /// counting releases) leaves the fault layer as if those sends never
    /// happened.
    pub fn purge(&self) {
        for link in &self.links {
            let mut l = lock(link);
            l.held.clear();
            l.stall_until = l.events;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env(src: u16, dst: u16, msg: u32) -> Envelope<u32> {
        Envelope { src, dst, msg }
    }

    fn run_plan(plan: FaultPlan, count: u32) -> Vec<u32> {
        let fs = FaultState::new(2, plan);
        let mut out = Vec::new();
        for i in 0..count {
            fs.process(env(0, 1, i), &Tracer::off(), &mut |e| out.push(e.msg));
        }
        out
    }

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        assert_ne!(SplitMix64::new(1).next_u64(), SplitMix64::new(2).next_u64());
    }

    #[test]
    fn no_fault_plan_is_transparent() {
        let out = run_plan(FaultPlan::new(7), 50);
        assert_eq!(out, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn same_seed_same_fate() {
        let plan = FaultPlan::chaos(1234);
        assert_eq!(run_plan(plan, 500), run_plan(plan, 500));
    }

    #[test]
    fn preserving_mode_keeps_order() {
        let plan = FaultPlan::new(99).delaying(300, 4).duplicating(150);
        let out = run_plan(plan, 1000);
        // Duplicates are adjacent and delays stall the link, so the
        // delivered sequence (with duplicates collapsed) is sorted.
        let mut dedup = out.clone();
        dedup.dedup();
        let mut sorted = dedup.clone();
        sorted.sort_unstable();
        assert_eq!(dedup, sorted, "FIFO-preserving delivery must stay ordered");
    }

    #[test]
    fn drops_are_counted_and_lost() {
        let plan = FaultPlan::new(11).dropping(500);
        let fs = FaultState::new(2, plan);
        let mut out = Vec::new();
        for i in 0..1000 {
            fs.process(env(0, 1, i), &Tracer::off(), &mut |e| out.push(e.msg));
        }
        let dropped = fs.stats().total().dropped;
        assert!(dropped > 300, "a 50% drop rate must drop plenty, got {dropped}");
        assert_eq!(out.len() as u64, 1000 - dropped);
    }

    #[test]
    fn self_sends_bypass_faults() {
        let fs = FaultState::new(2, FaultPlan::new(3).dropping(1000));
        let mut out = Vec::new();
        for i in 0..100 {
            fs.process(env(1, 1, i), &Tracer::off(), &mut |e| out.push(e.msg));
        }
        assert_eq!(out.len(), 100);
        assert_eq!(fs.stats().total().dropped, 0);
    }

    #[test]
    fn partition_window_drops_everything_inside_it() {
        // Sever the link for send events [10, 20); everything else flows.
        let plan = FaultPlan::new(0).partitioned(PartitionSpec {
            scope: PartitionScope::All,
            from_event: 10,
            until_event: 20,
        });
        let out = run_plan(plan, 50);
        let expected: Vec<u32> = (0..50).filter(|&i| !(10..20).contains(&i)).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn partition_scopes() {
        assert!(PartitionScope::All.severs(0, 1));
        assert!(PartitionScope::Node(2).severs(2, 5));
        assert!(PartitionScope::Node(2).severs(5, 2));
        assert!(!PartitionScope::Node(2).severs(0, 1));
        assert!(PartitionScope::Pair(1, 3).severs(3, 1));
        assert!(!PartitionScope::Pair(1, 3).severs(1, 2));
        let total = PartitionSpec::total();
        assert!(total.active(0, 1, 0) && total.active(7, 3, u64::MAX - 1));
    }

    #[test]
    fn partition_does_not_perturb_fates_outside_the_window() {
        // Same seed, one plan with a window that closes after 5 events:
        // fates from event 5 on must be identical to the unpartitioned
        // plan's (the partition never consumes the decision stream).
        let base = FaultPlan::new(77).delaying(200, 3).duplicating(100).dropping(50);
        let part = base.partitioned(PartitionSpec {
            scope: PartitionScope::All,
            from_event: 0,
            until_event: 5,
        });
        let a = run_plan(base, 300);
        let b = run_plan(part, 300);
        let a_tail: Vec<u32> = a.into_iter().filter(|&m| m >= 5).collect();
        assert_eq!(a_tail, b, "post-window fates must match the unpartitioned stream");
    }

    #[test]
    fn purge_discards_held_traffic() {
        let plan = FaultPlan::new(21).delaying(900, 50);
        let fs = FaultState::new(2, plan);
        let mut out = Vec::new();
        for i in 0..20 {
            fs.process(env(0, 1, i), &Tracer::off(), &mut |e| out.push(e.msg));
        }
        let s = fs.stats().total();
        assert!(s.delayed > s.released, "fixture needs messages still held");
        fs.purge();
        // New traffic flows without flushing stale holds first.
        let mut after = Vec::new();
        for i in 100..110 {
            fs.process(env(0, 1, i), &Tracer::off(), &mut |e| after.push(e.msg));
        }
        assert!(after.iter().all(|&m| m >= 100), "purged messages must never reappear");
    }

    #[test]
    fn delayed_messages_eventually_release() {
        let plan = FaultPlan::new(21).delaying(500, 3);
        let fs = FaultState::new(2, plan);
        let mut out = Vec::new();
        for i in 0..200 {
            fs.process(env(0, 1, i), &Tracer::off(), &mut |e| out.push(e.msg));
        }
        let s = fs.stats().total();
        assert!(s.delayed > 0);
        // Everything delayed so far has either been released or is still
        // held awaiting further traffic; pushing more traffic flushes it.
        for i in 200..400 {
            fs.process(env(0, 1, i), &Tracer::off(), &mut |e| out.push(e.msg));
        }
        let s = fs.stats().total();
        assert!(s.released >= s.delayed.saturating_sub(3), "stalls must flush under traffic");
    }
}
