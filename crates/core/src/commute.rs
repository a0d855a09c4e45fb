//! The commutative-merge protocol extension: privatize-and-merge for
//! conflict phases the commutativity analysis proves mergeable.
//!
//! §3.4 leaves conflict blocks (read **and** written within one phase
//! instance) without protocol action: they fall back to plain ownership
//! migration, which is exactly the traffic that dominates Barnes'
//! tree-build. When the `cstar` analysis proves every write of the
//! conflicting aggregate an associative-commutative reduction
//! ([`crate::codes::COMMUTE_PUSH`] is placed by a `CommutativeMerge`
//! directive), the runtime can run the phase privatized instead: each node
//! updates a private delta buffer with no coherence traffic at all, and the
//! deltas are exchanged in bulk at the phase barrier — one message per
//! (contributor, owner) pair instead of per-block migration ping-pong.
//!
//! One [`Commute`] instance exists per node. Like
//! [`crate::predictive::Predictive`] it plugs into the Stache engine
//! through [`prescient_stache::hooks::Hooks`]: its handler buffers incoming
//! delta chunks and acknowledges them, while the program drives the
//! exchange ([`merge`]) between the two barriers the runtime wraps around
//! it.
//!
//! # Idempotency under a faulty fabric
//!
//! The exchange reuses the pre-send discipline and its code,
//! `crate::acked`: every chunk carries a node-locally unique **push id**
//! (`UserMsg.a`, re-acked without re-buffering on duplicates) and the
//! sender's **merge epoch** (`UserMsg.b`; stale-epoch stragglers are
//! dropped unacknowledged). The epoch advances only after
//! the stability barrier that ends the merge window, so all nodes agree on
//! it at every barrier.
//!
//! # Determinism
//!
//! Chunks arrive in whatever order the fabric delivers them.
//! [`Commute::take_inbox`] therefore returns them sorted by
//! `(contributor, push id)` — a total order every run agrees on — so the
//! application replays merged updates deterministically and recovered runs
//! stay bit-identical (DESIGN.md §12).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use prescient_stache::hooks::Hooks;
use prescient_stache::msg::{UserMsg, Wake};
use prescient_stache::node::{Node, NodeShared, NodeState};
use prescient_tempest::sync::lock;
use prescient_tempest::{BlockId, NodeId, NodeSet, NodeStats};

use crate::acked::{self, AckedPushes, DonePushes};
use crate::codes;

/// Tuning knobs for the commutative-merge protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommuteConfig {
    /// Upper bound on delta-payload bytes per push message; larger
    /// payloads split into multiple chunks (each acknowledged
    /// independently, like a pre-send bulk message).
    pub max_chunk_bytes: usize,
}

impl Default for CommuteConfig {
    fn default() -> Self {
        CommuteConfig { max_chunk_bytes: 16 * 1024 }
    }
}

/// One buffered delta chunk at an owner.
#[derive(Debug, Clone)]
struct Chunk {
    src: NodeId,
    id: u64,
    bytes: Arc<[u8]>,
}

#[derive(Debug, Default)]
struct CommuteState {
    /// Delta chunks received this merge window, in arrival order.
    inbox: Vec<Chunk>,
    /// Next push id (node-local; uniqueness per sender is enough).
    next_push_id: u64,
    /// Pushes buffered this window. Cleared on every epoch bump.
    done_pushes: DonePushes,
}

impl CommuteState {
    /// Become a copy of `src`, field by field into the buffers already held.
    fn copy_from(&mut self, src: &CommuteState) {
        self.inbox.clone_from(&src.inbox);
        self.next_push_id = src.next_push_id;
        self.done_pushes.clone_from(&src.done_pushes);
    }
}

impl AsMut<DonePushes> for CommuteState {
    fn as_mut(&mut self) -> &mut DonePushes {
        &mut self.done_pushes
    }
}

/// Per-node commutative-merge state: one per node, used by that node's
/// thread (delta receive in the handler; the [`merge`] driver and
/// [`Commute::take_inbox`] in the program) and by the machine's driver
/// between runs.
pub struct Commute {
    cfg: CommuteConfig,
    state: Mutex<CommuteState>,
    /// Merge window epoch; see the module docs. Advanced after the
    /// stability barrier, read when validating incoming chunks.
    epoch: AtomicU64,
}

impl Commute {
    /// Create the extension state for one node.
    pub fn new(cfg: CommuteConfig) -> Commute {
        Commute {
            cfg,
            state: Mutex::new(CommuteState { next_push_id: 1, ..CommuteState::default() }),
            epoch: AtomicU64::new(1),
        }
    }

    /// The configuration this instance was built with.
    pub fn config(&self) -> CommuteConfig {
        self.cfg
    }

    /// The current merge epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Advance the merge epoch. The runtime calls this once per merge
    /// window, *after* the stability barrier — at that point every chunk of
    /// the closing window has been acknowledged, so anything still carrying
    /// the old epoch is a duplicate.
    pub fn bump_epoch(&self) {
        lock(&self.state).done_pushes.clear();
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// Drain the merge inbox, sorted by `(contributor, push id)` — the
    /// total order that makes the application's replay deterministic.
    /// Callable only between the window's stability barrier and the next
    /// window (no chunk can be in flight).
    pub fn take_inbox(&self) -> Vec<(NodeId, Arc<[u8]>)> {
        let mut chunks = std::mem::take(&mut lock(&self.state).inbox);
        chunks.sort_by_key(|c| (c.src, c.id));
        chunks.into_iter().map(|c| (c.src, c.bytes)).collect()
    }

    /// Capture this node's full merge state at a quiescent cut — the
    /// epoch, the push bookkeeping, and any delta chunks buffered but not
    /// yet drained (in-flight with respect to the application) — into
    /// `ckpt`, overwriting what it held and keeping its buffers.
    pub fn checkpoint_into(&self, ckpt: &mut CommuteCheckpoint) {
        ckpt.state.copy_from(&lock(&self.state));
        ckpt.epoch = self.epoch();
    }

    /// Roll this node's merge state back to a captured cut. Callable only
    /// while the machine is quiescent (the recovery drain has emptied the
    /// channels): the epoch rewinds together with every peer's, so replayed
    /// merge windows re-stamp the same epochs.
    pub fn restore(&self, ckpt: &CommuteCheckpoint) {
        lock(&self.state).copy_from(&ckpt.state);
        self.epoch.store(ckpt.epoch, Ordering::Release);
    }
}

/// One node's commutative-merge state at a consistent cut (see
/// [`Commute::checkpoint_into`]).
#[derive(Default)]
pub struct CommuteCheckpoint {
    state: CommuteState,
    epoch: u64,
}

impl Hooks for Commute {
    fn on_home_request(
        &self,
        _node: &NodeShared,
        _block: BlockId,
        _requester: NodeId,
        _excl: bool,
    ) -> bool {
        // The merge mode records no schedules: non-merged phases run as
        // plain Stache.
        false
    }

    fn on_user(
        &self,
        node: &NodeShared,
        _state: &mut NodeState,
        src: NodeId,
        msg: UserMsg,
    ) -> Option<Wake> {
        match msg.code {
            codes::COMMUTE_PUSH => {
                let epoch = self.epoch();
                acked::receive(node, src, &msg, epoch, codes::COMMUTE_ACK, &self.state, |st| {
                    let bytes: u64 = msg.blocks.iter().map(|(_, d)| d.len() as u64).sum();
                    for (_, d) in msg.blocks.iter() {
                        st.inbox.push(Chunk { src, id: msg.a, bytes: Arc::clone(d) });
                    }
                    NodeStats::add(&node.stats.data_bytes_in, bytes);
                    0
                });
                None
            }
            // For the merge driver waiting on this node: `a` echoes the
            // push id.
            codes::COMMUTE_ACK => {
                Some(Wake::User { code: codes::WAKE_COMMUTE_ACK, a: msg.a, b: 0 })
            }
            other => panic!("node {}: unknown user-message code {other:#x}", node.me),
        }
    }
}

/// What one node's merge exchange sent, with its virtual-time bill.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Delta chunks pushed to other nodes (self-deltas are buffered
    /// locally without touching the fabric).
    pub chunks_out: u64,
    /// Push messages sent (= `chunks_out`: one chunk per message).
    pub msgs: u64,
    /// Delta bytes pushed over the fabric.
    pub bytes: u64,
    /// Chunk retransmissions needed to get every push acknowledged.
    pub retransmits: u64,
    /// Virtual time spent (billed to the figures' protocol bar segment,
    /// like the pre-send window).
    pub vtime_ns: u64,
}

/// Execute one merge exchange on this node: push every outgoing delta
/// payload to its owner and serve the inbox until all chunks are
/// acknowledged. The runtime brackets this with the entry barrier (all
/// peers privatized) and the stability barrier (all chunks buffered
/// everywhere), then drains [`Commute::take_inbox`] and bumps the epoch.
///
/// Payloads are opaque to the protocol; a payload for this node itself is
/// buffered directly into the local inbox without touching the fabric.
pub fn merge(cm: &Commute, node: &mut Node, outgoing: &[(NodeId, Vec<u8>)]) -> MergeReport {
    let n = Arc::clone(&node.shared);
    let me = n.me;
    let mut report = MergeReport::default();
    let epoch = cm.epoch();
    let max = cm.cfg.max_chunk_bytes.max(1);

    // Fan out, one push message per chunk. Unacked messages are kept
    // verbatim for retransmission.
    let mut outstanding = AckedPushes::default();
    for (target, payload) in outgoing {
        // One id per chunk, drawn (and local chunks buffered) under one
        // lock.
        let mut st = lock(&cm.state);
        let first_id = st.next_push_id;
        st.next_push_id += payload.len().div_ceil(max) as u64;
        for ((seq, chunk), id) in payload.chunks(max).enumerate().zip(first_id..) {
            let data: Arc<[u8]> = chunk.into();
            if *target == me {
                // Local contribution: no fabric, but the same inbox so the
                // replay order treats every contributor alike.
                st.inbox.push(Chunk { src: me, id, bytes: data });
                continue;
            }
            let m = UserMsg {
                code: codes::COMMUTE_PUSH,
                a: id,
                b: epoch,
                block: BlockId(seq as u64),
                set: NodeSet::single(*target),
                node: me,
                blocks: vec![(BlockId(seq as u64), data)].into(),
            };
            outstanding.send(&n, *target, m);
            NodeStats::bump(&n.stats.merge_chunks_out);
            report.chunks_out += 1;
            report.msgs += 1;
            report.bytes += chunk.len() as u64;
        }
    }
    // Wait for every chunk to be acknowledged so all inboxes are stable at
    // the coming barrier.
    let what = format_args!("merge chunks unacked");
    report.retransmits =
        outstanding.settle(node, what, codes::WAKE_COMMUTE_ACK, |_| {}, |_, _, _| {});

    report.vtime_ns = n.cost.bulk_ns(report.msgs, report.chunks_out, report.bytes);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inbox_drains_sorted_by_contributor_then_id() {
        let cm = Commute::new(CommuteConfig::default());
        {
            let mut st = lock(&cm.state);
            st.inbox.push(Chunk { src: 2, id: 7, bytes: vec![2u8].into() });
            st.inbox.push(Chunk { src: 0, id: 9, bytes: vec![0u8].into() });
            st.inbox.push(Chunk { src: 2, id: 3, bytes: vec![1u8].into() });
        }
        let got = cm.take_inbox();
        let order: Vec<(NodeId, u8)> = got.iter().map(|(s, b)| (*s, b[0])).collect();
        assert_eq!(order, vec![(0, 0), (2, 1), (2, 2)]);
        assert!(cm.take_inbox().is_empty(), "drain empties the inbox");
    }

    #[test]
    fn epoch_bump_clears_push_bookkeeping() {
        let cm = Commute::new(CommuteConfig::default());
        assert_eq!(cm.epoch(), 1);
        lock(&cm.state).done_pushes.insert((3, 11), 0);
        cm.bump_epoch();
        assert_eq!(cm.epoch(), 2);
        assert!(lock(&cm.state).done_pushes.is_empty());
    }

    #[test]
    fn checkpoint_restore_round_trips() {
        let cm = Commute::new(CommuteConfig::default());
        {
            let mut st = lock(&cm.state);
            st.inbox.push(Chunk { src: 1, id: 4, bytes: vec![9u8, 9].into() });
            st.next_push_id = 17;
            st.done_pushes.insert((1, 4), 0);
        }
        cm.bump_epoch();
        let mut ckpt = CommuteCheckpoint::default();
        cm.checkpoint_into(&mut ckpt);

        // Diverge, then roll back.
        cm.bump_epoch();
        lock(&cm.state).inbox.clear();
        lock(&cm.state).next_push_id = 99;
        cm.restore(&ckpt);

        assert_eq!(cm.epoch(), 2);
        let st = lock(&cm.state);
        assert_eq!(st.next_push_id, 17);
        assert_eq!(st.inbox.len(), 1);
        assert_eq!(&st.inbox[0].bytes[..], &[9, 9]);
    }

    #[test]
    fn restored_window_reissues_the_same_push_ids() {
        // The driver allocates ids from `next_push_id`; a rollback must
        // make a replayed window indistinguishable from the original.
        let cm = Commute::new(CommuteConfig::default());
        let mut ckpt = CommuteCheckpoint::default();
        cm.checkpoint_into(&mut ckpt);
        let take_id = |cm: &Commute| {
            let mut st = lock(&cm.state);
            let id = st.next_push_id;
            st.next_push_id += 1;
            id
        };
        let first: Vec<u64> = (0..3).map(|_| take_id(&cm)).collect();
        cm.restore(&ckpt);
        let replay: Vec<u64> = (0..3).map(|_| take_id(&cm)).collect();
        assert_eq!(first, replay);
    }

    #[test]
    fn reused_checkpoint_buffer_leaks_nothing() {
        // Everything a restore rewinds: epoch, push ids, chunks, done pushes.
        let view = |cm: &Commute| {
            let st = lock(&cm.state);
            let inbox: Vec<(NodeId, u64, Vec<u8>)> =
                st.inbox.iter().map(|c| (c.src, c.id, c.bytes.to_vec())).collect();
            let mut done: Vec<((NodeId, u64), u64)> =
                st.done_pushes.iter().map(|(k, v)| (*k, *v)).collect();
            done.sort_unstable();
            (cm.epoch(), st.next_push_id, inbox, done)
        };
        let fresh_state = || Commute::new(CommuteConfig::default());
        let (big, small) = (fresh_state(), fresh_state());
        big.bump_epoch();
        big.bump_epoch();
        {
            let mut st = lock(&big.state);
            for id in 0..5 {
                st.inbox.push(Chunk { src: 1, id, bytes: vec![id as u8; 4].into() });
                st.done_pushes.insert((1, id), id);
            }
            st.next_push_id = 40;
        }
        {
            let mut st = lock(&small.state);
            st.inbox.push(Chunk { src: 2, id: 9, bytes: vec![7u8; 2].into() });
            st.done_pushes.insert((2, 9), 0);
        }

        let (mut reused, mut fresh) = (CommuteCheckpoint::default(), CommuteCheckpoint::default());
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
