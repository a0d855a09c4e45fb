//! The per-node predictive-protocol extension: schedule recording, the
//! receiver side of pre-sends, and the schedule-health / degradation
//! machinery.
//!
//! One [`Predictive`] instance exists per node. It plugs into the Stache
//! engine through [`prescient_stache::hooks::Hooks`]: the engine offers it
//! every request arriving at this home node (recording, §3.3) and routes
//! the pre-send user messages to it (§3.4). The sending side of the
//! pre-send phase — the driver the program calls at `phase_begin` — lives
//! in [`crate::presend`].
//!
//! # Pre-send idempotency under a faulty fabric
//!
//! Pre-send pushes travel over the same fabric as everything else, so they
//! can be delayed, duplicated or dropped. Two mechanisms make the exchange
//! idempotent:
//!
//! * **Push ids** (`UserMsg.a`): every push carries a node-locally unique
//!   id; the receiver (`crate::acked::Window`) remembers which
//!   `(sender, id)` pairs it has installed this window and answers repeats
//!   with a fresh ack *without* re-installing — so a duplicated push
//!   cannot double-count the "overwrote an unread copy" signal, and a lost
//!   ack is repaired by the driver retransmitting the push. The driver in
//!   turn keys its outstanding set by id, so duplicated acks are ignored.
//! * **Epoch stamps** (`UserMsg.b`): each node's window epoch advances
//!   once per pre-send window *after* the stability barrier (every node
//!   has closed the same number of windows at every barrier, so all nodes
//!   agree on the epoch). A push stamped with an old
//!   epoch is a straggler duplicate from a previous window whose original
//!   was already acknowledged — it is dropped without an ack (counted as
//!   `presend_stale_in`). It cannot be a *first* delivery: the driver does
//!   not pass its window's ack wait until every push is acked.
//!
//! The acks this module sends leave from inside a handler, and the loop
//! that ran the handler flushes its node's egress before it blocks or
//! returns — so under fabric batching (DESIGN.md §2.1) acks produced while
//! draining a batch of pushes pack into one wire batch back to the
//! driver, and no explicit flush is needed here.
//!
//! # Graceful degradation
//!
//! Each phase's schedule is a *prediction*; when the application's access
//! pattern shifts, the schedule pushes data nobody wants. Every pre-sent
//! copy that is recalled/invalidated before being read, or overwritten by
//! the next window's push while still unread, counts as a **useless
//! pre-send** against the phase that pushed it. When the useless share
//! reaches [`USELESS_THRESHOLD_PCT`] for [`CONSECUTIVE_BAD`] consecutive
//! instances, the phase *degrades*: its schedule is flushed and the phase
//! runs as plain Stache for [`BACKOFF_INSTANCES`] instances, after which
//! recording re-arms and the schedule is rebuilt from live traffic.
//!
//! [`USELESS_THRESHOLD_PCT`]: crate::presend::USELESS_THRESHOLD_PCT
//! [`CONSECUTIVE_BAD`]: crate::presend::CONSECUTIVE_BAD
//! [`BACKOFF_INSTANCES`]: crate::presend::BACKOFF_INSTANCES

use std::sync::{Arc, Mutex};

use prescient_stache::hooks::Hooks;
use prescient_stache::msg::{UserMsg, Wake};
use prescient_stache::node::{NodeShared, NodeState};
use prescient_tempest::sync::lock;
use prescient_tempest::tag::Tag;
use prescient_tempest::trace::{pack_peer_count, EventKind};
use prescient_tempest::{BlockId, IdMap, NodeId, NodeSet, NodeStats};

use crate::acked::{Marks, Window};
use crate::codes;
use crate::schedule::{PhaseId, ScheduleStore};
use crate::tap::AccessTap;

/// Tuning knobs for the predictive protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PredictiveConfig {
    /// Coalesce runs of neighboring blocks with identical targets into one
    /// bulk message (§3.4). Disable for the ablation study.
    pub coalesce: bool,
    /// Pre-send conflict blocks toward their first stable state instead of
    /// skipping them — the optional policy §3.4 sketches. Off by default,
    /// matching the paper's implementation.
    pub anticipate_conflicts: bool,
    /// Degrade a phase whose pre-sends are mostly useless (see the module
    /// docs). Off = never degrade (the paper's behavior).
    pub degrade: bool,
}

impl Default for PredictiveConfig {
    fn default() -> Self {
        PredictiveConfig { coalesce: true, anticipate_conflicts: false, degrade: true }
    }
}

/// Schedule health for one phase at this node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseHealth {
    /// Pre-send windows this node has started for the phase (including
    /// skipped ones while degraded).
    pub instances: u64,
    /// Block copies pushed by the most recent non-skipped window.
    pub last_pushed: u64,
    /// Useless pre-sends charged to the phase since the last window.
    pub useless: u64,
    /// Consecutive instances whose useless ratio exceeded the threshold.
    pub consecutive_bad: u32,
    /// The phase runs as plain Stache until `instances` reaches this.
    pub degraded_until: u64,
    /// Times this phase has degraded.
    pub degrade_events: u64,
}

impl PhaseHealth {
    /// Whether the phase is currently degraded.
    pub fn is_degraded(&self) -> bool {
        self.degraded_until > self.instances
    }
}

#[derive(Default)]
pub(crate) struct PredState {
    /// Phase currently recording, if any.
    pub recording: Option<PhaseId>,
    /// This home node's slice of every phase's schedule.
    pub store: ScheduleStore,
    /// Per-phase schedule health (driven by `crate::presend`).
    pub health: IdMap<PhaseId, PhaseHealth>,
    /// Which phase pushed each block last, for charging teardown waste.
    pub pushed_by: IdMap<BlockId, PhaseId>,
}

impl PredState {
    /// Become a copy of `src`, field by field into the maps already held.
    fn copy_from(&mut self, src: &PredState) {
        self.recording = src.recording;
        self.store.clone_from(&src.store);
        self.health.clone_from(&src.health);
        self.pushed_by.clone_from(&src.pushed_by);
    }
}

/// Per-node predictive-protocol state: one per node, used by that node's
/// thread (recording and pre-send receive in handlers, pre-send drive and
/// directives in the program) and read by the machine's driver between
/// runs — hence the lock, which the access path never takes.
pub struct Predictive {
    pub(crate) cfg: PredictiveConfig,
    pub(crate) state: Mutex<PredState>,
    /// The pre-send window. Its dedup map keeps the useless count each ack
    /// reported, echoed on re-acks so a lost ack does not lose the signal.
    pub(crate) window: Window,
    /// Optional schedule-oracle tap: logs every home request, before and
    /// independent of the recording/degradation gates.
    tap: Mutex<Option<Arc<AccessTap>>>,
}

impl Predictive {
    /// Create the extension state for one node.
    pub fn new(cfg: PredictiveConfig) -> Predictive {
        Predictive {
            cfg,
            state: Mutex::new(PredState::default()),
            window: Window::default(),
            tap: Mutex::new(None),
        }
    }

    /// Install (or remove) the schedule-oracle recording tap.
    pub fn set_tap(&self, tap: Option<Arc<AccessTap>>) {
        *lock(&self.tap) = tap;
    }

    /// The pre-send window, which the runtime closes after each window's
    /// stability barrier.
    pub fn window(&self) -> &Window {
        &self.window
    }

    /// Directive: start recording `phase` and advance its instance
    /// counter. Must be called *after* the pre-send for the phase and its
    /// stability barrier (the runtime's `phase_begin` wraps this).
    pub fn arm(&self, phase: PhaseId) {
        let mut st = lock(&self.state);
        st.store.phase_mut(phase).cur_iter += 1;
        st.recording = Some(phase);
    }

    /// Directive: stop recording.
    ///
    /// Must run on every node's instance at one point of the closing
    /// barrier: after every node arrived (every requester has its reply,
    /// so every in-phase request was recorded at its home) and before any
    /// node left (no post-phase request exists yet to be misrecorded). The
    /// runtime's `phase_end` makes it the closing barrier's release
    /// action, which the last arriver runs for all nodes before it
    /// publishes the release.
    pub fn end_phase(&self) {
        lock(&self.state).recording = None;
    }

    /// The phase this home is recording, if any.
    pub fn recording(&self) -> Option<PhaseId> {
        lock(&self.state).recording
    }

    /// Discard one phase's schedule (rebuild policy for patterns with many
    /// deletions, §3.3).
    pub fn flush(&self, phase: PhaseId) {
        lock(&self.state).store.flush(phase);
    }

    /// Number of schedule entries currently held for `phase` at this node.
    pub fn entries(&self, phase: PhaseId) -> usize {
        lock(&self.state).store.phase(phase).map_or(0, |p| p.entries().len())
    }

    /// Number of conflict-marked entries for `phase` at this node.
    pub fn conflicts(&self, phase: PhaseId) -> usize {
        lock(&self.state).store.phase(phase).map_or(0, |p| p.conflicts())
    }

    /// Whether `phase` is currently degraded at this node.
    pub fn is_degraded(&self, phase: PhaseId) -> bool {
        lock(&self.state).health.get(&phase).is_some_and(PhaseHealth::is_degraded)
    }

    /// Times `phase` has degraded at this node.
    pub fn degrade_events(&self, phase: PhaseId) -> u64 {
        lock(&self.state).health.get(&phase).map_or(0, |h| h.degrade_events)
    }

    /// Capture this node's full predictive-protocol state at a quiescent
    /// cut — schedules, health and the pre-send window — into `ckpt`,
    /// overwriting what it held and keeping its maps.
    /// Taken at `phase_begin` *before* the window's [`Predictive::arm`],
    /// so the restored state is disarmed-at-cut and replay re-arms it.
    pub fn checkpoint_into(&self, ckpt: &mut PredCheckpoint) {
        ckpt.state.copy_from(&lock(&self.state));
        self.window.checkpoint_into(&mut ckpt.window);
    }

    /// Roll this node's predictive-protocol state back to a captured cut.
    /// Callable only while the machine is quiescent (the recovery drain
    /// has emptied the channels).
    pub fn restore(&self, ckpt: &PredCheckpoint) {
        lock(&self.state).copy_from(&ckpt.state);
        self.window.restore(&ckpt.window);
    }
}

/// One node's predictive-protocol state at a consistent cut (see
/// [`Predictive::checkpoint_into`]).
#[derive(Default)]
pub struct PredCheckpoint {
    state: PredState,
    window: Marks,
}

impl Hooks for Predictive {
    fn on_home_request(
        &self,
        node: &NodeShared,
        block: BlockId,
        requester: NodeId,
        excl: bool,
    ) -> bool {
        // The oracle tap sees *every* request, even when the protocol is
        // not recording (unarmed, degraded, or stripped of phases by a
        // buggy compiler — exactly the cases the oracle must observe).
        if let Some(tap) = lock(&self.tap).as_ref() {
            tap.record(block, requester, excl);
        }
        let mut st = lock(&self.state);
        let Some(phase) = st.recording else { return false };
        // A degraded phase runs as plain Stache: no recording until the
        // backoff expires and the schedule can be rebuilt from scratch.
        if st.health.get(&phase).is_some_and(PhaseHealth::is_degraded) {
            return false;
        }
        let sched = st.store.phase_mut(phase);
        if excl {
            sched.record_write(block, requester);
        } else {
            sched.record_read(block, requester);
        }
        NodeStats::bump(&node.stats.sched_records);
        node.tracer().emit(
            EventKind::SchedRecord,
            block.0,
            u64::from(requester) << 1 | u64::from(excl),
        );
        true
    }

    fn on_user(
        &self,
        node: &NodeShared,
        state: &mut NodeState,
        src: NodeId,
        msg: UserMsg,
    ) -> Option<Wake> {
        match msg.code {
            codes::PRESEND_RO | codes::PRESEND_RW => {
                self.window.receive(node, src, &msg, codes::PRESEND_ACK, || {
                    let tag =
                        if msg.code == codes::PRESEND_RW { Tag::ReadWrite } else { Tag::ReadOnly };
                    // Batched upcall: all N blocks of the bulk message
                    // install in one call. The returned count is how many
                    // installs overwrote a copy pushed earlier that was
                    // never read — useless pre-sends, reported back to the
                    // pushing home via the ack.
                    let useless = state.mem.install_bulk(&msg.blocks, tag, true);
                    let bytes: u64 = msg.blocks.iter().map(|(_, d)| d.len() as u64).sum();
                    NodeStats::add(&node.stats.presend_blocks_in, msg.blocks.len() as u64);
                    NodeStats::add(&node.stats.data_bytes_in, bytes);
                    if node.tracer().on() {
                        trace_installs(node, src, &msg);
                    }
                    useless
                });
                None
            }
            // For the pre-send driver waiting on this node: `a` echoes the
            // push id, `b` reports how many of the blocks the previous
            // window pushed were still unread.
            codes::PRESEND_ACK => {
                Some(Wake::User { code: codes::WAKE_PRESEND_ACK, a: msg.a, b: msg.b })
            }
            other => panic!("node {}: unknown user-message code {other:#x}", node.me),
        }
    }

    fn on_presend_wasted(&self, node: &NodeShared, block: BlockId) {
        NodeStats::bump(&node.stats.presend_useless);
        let mut st = lock(&self.state);
        if let Some(&phase) = st.pushed_by.get(&block) {
            st.health.entry(phase).or_default().useless += 1;
        }
    }
}

/// One install event per contiguous block run of a pre-send payload:
/// exact per-block install times for the lead-time analysis at run, not
/// block, granularity.
fn trace_installs(node: &NodeShared, src: NodeId, msg: &UserMsg) {
    let mut run: Option<(u64, u64)> = None; // (first, len)
    for (b, _) in msg.blocks.iter() {
        run = match run {
            Some((first, len)) if b.0 == first + len => Some((first, len + 1)),
            Some((first, len)) => {
                node.tracer().emit(EventKind::PresendInstall, first, pack_peer_count(src, len));
                Some((b.0, 1))
            }
            None => Some((b.0, 1)),
        };
    }
    if let Some((first, len)) = run {
        node.tracer().emit(EventKind::PresendInstall, first, pack_peer_count(src, len));
    }
}

/// A read-only description of one pre-send push, used by the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Push {
    pub block: BlockId,
    pub targets: NodeSet,
    pub excl: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything a restore rewinds, in a comparable order.
    fn view(p: &Predictive) -> String {
        let st = lock(&p.state);
        let phases: Vec<_> = st
            .store
            .phase_ids()
            .into_iter()
            .map(|id| (id, st.store.phase(id).map(|s| (s.cur_iter, s.records, s.sorted_entries()))))
            .collect();
        let mut health: Vec<_> = st.health.iter().map(|(id, h)| (*id, *h)).collect();
        health.sort_by_key(|h| h.0);
        let mut pushed: Vec<_> = st.pushed_by.iter().map(|(b, id)| (b.0, *id)).collect();
        pushed.sort_unstable();
        let (epoch, ids) = p.window.ids(0);
        let (rec, next) = (st.recording, ids.start);
        format!("{rec:?} {phases:?} {health:?} {pushed:?} {next} {epoch}")
    }

    #[test]
    fn a_degrade_forces_one_rebuild_and_one_copy() {
        use prescient_stache::hooks::NoHooks;
        use prescient_stache::testkit::Cluster;
        use prescient_stache::RetryConfig;

        const P: PhaseId = 1;
        let cluster = Cluster::new(1, 32, RetryConfig::default(), None, |_| Arc::new(NoHooks));
        let pred = Predictive::new(PredictiveConfig::default());
        let mut image = PredCheckpoint::default();
        // One instance of the runtime's `phase_begin`: checkpoint, the
        // pre-send's gate and its runs, `arm`. Returns the runs.
        let instance = |image: &mut PredCheckpoint| {
            pred.checkpoint_into(image);
            let degraded = crate::presend::health_gate(&pred, &cluster.nodes[0].shared, P);
            let runs = (!degraded).then(|| lock(&pred.state).store.runs(P, false)).flatten();
            pred.arm(P);
            // Every window that ran pushed one copy nobody read.
            if !degraded {
                let mut st = lock(&pred.state);
                let h = st.health.entry(P).or_default();
                (h.last_pushed, h.useless) = (1, 1);
            }
            runs
        };
        instance(&mut image);
        lock(&pred.state).store.phase_mut(P).record_read(BlockId(7), 0);
        let recorded = instance(&mut image).unwrap();
        let copies = |image: &PredCheckpoint| image.state.store.entry_copies;
        let before = copies(&image);
        while !pred.is_degraded(P) {
            let runs = instance(&mut image);
            assert!(pred.is_degraded(P) || Arc::ptr_eq(&recorded, &runs.unwrap()), "re-encoded");
        }
        assert_eq!(copies(&image), before, "a steady-state checkpoint copied entries");
        // The degraded instances have no window; then the flushed
        // schedule's, rebuilt.
        let rebuilt = std::iter::repeat_with(|| instance(&mut image)).find_map(|r| r).unwrap();
        assert!(rebuilt.is_empty() && !Arc::ptr_eq(&recorded, &rebuilt));
        assert_eq!(copies(&image), before + 1, "the flushed schedule is copied once");
        assert!(Arc::ptr_eq(&rebuilt, &instance(&mut image).unwrap()), "rebuilt twice");
        assert_eq!(copies(&image), before + 1);
        assert_eq!(pred.degrade_events(P), 1);
    }

    #[test]
    fn reused_checkpoint_buffer_leaks_nothing() {
        let fresh_state = || Predictive::new(PredictiveConfig::default());
        let (big, small) = (fresh_state(), fresh_state());
        big.window.close();
        big.window.ids(49);
        for phase in 1..=3 {
            big.arm(phase);
            let mut st = lock(&big.state);
            for b in 0..10 {
                st.store.phase_mut(phase).record_read(BlockId(b), 1);
                st.pushed_by.insert(BlockId(b), phase);
            }
            st.health.entry(phase).or_default().useless = 2;
        }
        // Phase 2 only: `big`'s phase-2 table is reused, its others must go.
        small.arm(2);
        {
            let mut st = lock(&small.state);
            st.store.phase_mut(2).record_write(BlockId(30), 3);
            st.pushed_by.insert(BlockId(30), 2);
            st.health.entry(2).or_default().consecutive_bad = 1;
        }
        small.end_phase();

        let (mut reused, mut fresh) = (PredCheckpoint::default(), PredCheckpoint::default());
        big.checkpoint_into(&mut reused);
        small.checkpoint_into(&mut reused);
        small.checkpoint_into(&mut fresh);
        let (from_reused, from_fresh) = (fresh_state(), fresh_state());
        from_reused.restore(&reused);
        from_fresh.restore(&fresh);
        assert_eq!(view(&from_reused), view(&from_fresh));
        assert_eq!(view(&from_fresh), view(&small));
    }
}
