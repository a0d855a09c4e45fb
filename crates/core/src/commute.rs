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
//! One [`Commute`] instance exists per node of a Stache machine. Like
//! [`crate::predictive::Predictive`] it plugs into the Stache engine
//! through [`prescient_stache::hooks::Hooks`]: its handler buffers incoming
//! delta chunks and acknowledges them, while the program drives the
//! exchange ([`merge`]) between the two barriers the runtime wraps around
//! it.
//!
//! # Idempotency under a faulty fabric
//!
//! The exchange is an acknowledged window, the same as the pre-send's
//! (`crate::acked`): every chunk carries a push id (`UserMsg.a`, re-acked
//! without re-buffering on duplicates) and the sender's window epoch
//! (`UserMsg.b`; stale-epoch stragglers are dropped unacknowledged), and
//! the window closes after the stability barrier that ends the exchange.
//!
//! # Determinism
//!
//! Chunks arrive in whatever order the fabric delivers them.
//! [`Commute::take_inbox`] therefore returns them sorted by
//! `(contributor, push id)` — a total order every run agrees on — so the
//! application replays merged updates deterministically and recovered runs
//! stay bit-identical (DESIGN.md §12).

use std::sync::{Arc, Mutex};

use prescient_stache::hooks::Hooks;
use prescient_stache::msg::{UserMsg, Wake};
use prescient_stache::node::{Node, NodeShared, NodeState};
use prescient_tempest::sync::lock;
use prescient_tempest::{BlockId, NodeId, NodeSet, NodeStats};

use crate::acked::{AckedPushes, Marks, Window};
use crate::codes;

/// Upper bound on delta-payload bytes per push message; a larger payload
/// splits into several chunks, each acknowledged on its own like a
/// pre-send bulk message.
pub const MAX_CHUNK_BYTES: usize = 16 * 1024;

/// One buffered delta chunk at an owner.
#[derive(Debug, Clone)]
struct Chunk {
    src: NodeId,
    id: u64,
    bytes: Arc<[u8]>,
}

/// Per-node commutative-merge state: one per node of a Stache machine,
/// used by that node's thread (delta receive in the handler; the [`merge`]
/// driver and [`Commute::take_inbox`] in the program) and by the machine's
/// driver between runs.
#[derive(Default)]
pub struct Commute {
    /// Delta chunks received this merge window, in arrival order.
    inbox: Mutex<Vec<Chunk>>,
    window: Window,
}

impl Commute {
    /// The merge exchange's acknowledged window.
    pub fn window(&self) -> &Window {
        &self.window
    }

    /// Drain the merge inbox, sorted by `(contributor, push id)` — the
    /// total order that makes the application's replay deterministic.
    /// Callable only between the window's stability barrier and the next
    /// window (no chunk can be in flight).
    pub fn take_inbox(&self) -> Vec<(NodeId, Arc<[u8]>)> {
        let mut chunks = std::mem::take(&mut *lock(&self.inbox));
        chunks.sort_by_key(|c| (c.src, c.id));
        chunks.into_iter().map(|c| (c.src, c.bytes)).collect()
    }

    /// Capture this node's full merge state at a quiescent cut — the
    /// window and any delta chunks buffered but not yet drained
    /// (in-flight with respect to the application) — into `ckpt`,
    /// overwriting what it held and keeping its buffers.
    pub fn checkpoint_into(&self, ckpt: &mut CommuteCheckpoint) {
        ckpt.inbox.clone_from(&lock(&self.inbox));
        self.window.checkpoint_into(&mut ckpt.window);
    }

    /// Roll this node's merge state back to a captured cut. Callable only
    /// while the machine is quiescent (the recovery drain has emptied the
    /// channels).
    pub fn restore(&self, ckpt: &CommuteCheckpoint) {
        lock(&self.inbox).clone_from(&ckpt.inbox);
        self.window.restore(&ckpt.window);
    }
}

/// One node's commutative-merge state at a consistent cut (see
/// [`Commute::checkpoint_into`]).
#[derive(Default)]
pub struct CommuteCheckpoint {
    inbox: Vec<Chunk>,
    window: Marks,
}

impl Hooks for Commute {
    fn on_home_request(
        &self,
        _node: &NodeShared,
        _block: BlockId,
        _requester: NodeId,
        _excl: bool,
    ) -> bool {
        // The merge records no schedules: outside its windows the machine
        // runs as plain Stache.
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
                self.window.receive(node, src, &msg, codes::COMMUTE_ACK, || {
                    let bytes: u64 = msg.blocks.iter().map(|(_, d)| d.len() as u64).sum();
                    let mut inbox = lock(&self.inbox);
                    for (_, d) in msg.blocks.iter() {
                        inbox.push(Chunk { src, id: msg.a, bytes: Arc::clone(d) });
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
    /// Delta chunks pushed to other nodes, one message each (self-deltas
    /// are buffered locally without touching the fabric).
    pub chunks_out: u64,
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
/// acknowledged. The runtime brackets this with the window's entry
/// barrier (all peers privatized) and stability barrier (all chunks
/// buffered everywhere), closes the window and drains
/// [`Commute::take_inbox`].
///
/// Payloads are opaque to the protocol; a payload for this node itself is
/// buffered directly into the local inbox without touching the fabric.
pub fn merge(cm: &Commute, node: &mut Node, outgoing: &[(NodeId, Vec<u8>)]) -> MergeReport {
    let n = Arc::clone(&node.shared);
    let me = n.me;
    let mut report = MergeReport::default();

    // Fan out, one push message per chunk. Unacked messages are kept
    // verbatim for retransmission.
    let mut outstanding = AckedPushes::default();
    for (target, payload) in outgoing {
        let (epoch, ids) = cm.window.ids(payload.len().div_ceil(MAX_CHUNK_BYTES) as u64);
        for ((seq, chunk), id) in payload.chunks(MAX_CHUNK_BYTES).enumerate().zip(ids) {
            let data: Arc<[u8]> = chunk.into();
            if *target == me {
                // Local contribution: no fabric, but the same inbox so the
                // replay order treats every contributor alike.
                lock(&cm.inbox).push(Chunk { src: me, id, bytes: data });
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
            report.bytes += chunk.len() as u64;
        }
    }
    // Wait for every chunk to be acknowledged so all inboxes are stable at
    // the coming barrier.
    let what = format_args!("merge chunks unacked");
    report.retransmits =
        outstanding.settle(node, what, codes::WAKE_COMMUTE_ACK, |_| {}, |_, _, _| {});

    report.vtime_ns = n.cost.bulk_ns(report.chunks_out, report.chunks_out, report.bytes);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(src: NodeId, id: u64, bytes: &[u8]) -> Chunk {
        Chunk { src, id, bytes: bytes.into() }
    }

    /// Everything a restore rewinds: the window's epoch and next push id,
    /// and the chunks.
    fn view(cm: &Commute) -> String {
        let inbox: Vec<_> =
            lock(&cm.inbox).iter().map(|c| (c.src, c.id, c.bytes.clone())).collect();
        let (epoch, ids) = cm.window.ids(0);
        format!("{epoch} {} {inbox:?}", ids.start)
    }

    #[test]
    fn inbox_drains_sorted_by_contributor_then_id() {
        let cm = Commute::default();
        lock(&cm.inbox).extend([chunk(2, 7, &[2]), chunk(0, 9, &[0]), chunk(2, 3, &[1])]);
        let got = cm.take_inbox();
        let order: Vec<(NodeId, u8)> = got.iter().map(|(s, b)| (*s, b[0])).collect();
        assert_eq!(order, vec![(0, 0), (2, 1), (2, 2)]);
        assert!(cm.take_inbox().is_empty(), "drain empties the inbox");
    }

    #[test]
    fn checkpoint_restore_round_trips() {
        let cm = Commute::default();
        lock(&cm.inbox).push(chunk(1, 4, &[9, 9]));
        cm.window.ids(16);
        cm.window.close();
        let mut ckpt = CommuteCheckpoint::default();
        cm.checkpoint_into(&mut ckpt);

        // Diverge, then roll back.
        cm.window.close();
        lock(&cm.inbox).clear();
        cm.window.ids(82);
        cm.restore(&ckpt);

        assert_eq!(view(&cm), "2 17 [(1, 4, [9, 9])]");
    }

    #[test]
    fn reused_checkpoint_buffer_leaks_nothing() {
        let (big, small) = (Commute::default(), Commute::default());
        big.window.close();
        big.window.close();
        big.window.ids(39);
        lock(&big.inbox).extend((0..5).map(|id| chunk(1, id, &[id as u8; 4])));
        lock(&small.inbox).push(chunk(2, 9, &[7; 2]));

        let (mut reused, mut fresh) = (CommuteCheckpoint::default(), CommuteCheckpoint::default());
        big.checkpoint_into(&mut reused);
        small.checkpoint_into(&mut reused);
        small.checkpoint_into(&mut fresh);
        let (from_reused, from_fresh) = (Commute::default(), Commute::default());
        from_reused.restore(&reused);
        from_fresh.restore(&fresh);
        assert_eq!(view(&from_reused), view(&from_fresh));
        assert_eq!(view(&from_fresh), view(&small));
    }
}
