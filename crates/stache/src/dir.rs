//! Home-node directory state.
//!
//! The home node of each block tracks who holds copies: either nobody (the
//! block is *uncached*, only home memory is current), a set of read-only
//! *sharers*, or a single remote *exclusive owner*. A handler that must wait
//! for remote action (a recall or an invalidation round) parks the entry in
//! a transient [`Busy`] state and queues later requests; handlers therefore
//! never block, so a node's one thread can run them wherever it waits.
//!
//! Which states an entry moves through, on which message, and which tags
//! each stable state allows its home, its holders and every other node are
//! stated once, in [`crate::table`] (DESIGN.md §2.3 prints it).
//!
//! On top of the per-block entries, [`Directory`] keeps the home's
//! reliability state: the last accepted sequence number per requester
//! (duplicate-request suppression) and the allocator for recall /
//! invalidation operation ids (stale-reply suppression). See
//! [`crate::msg`] for how both travel.

use std::collections::VecDeque;

use prescient_tempest::{BlockId, IdMap, NodeId, NodeSet};

/// Stable directory states of one block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirState {
    /// No remote copies; home memory is current and writable at home.
    #[default]
    Uncached,
    /// Remote read-only copies at the given (non-empty, home-excluded) set.
    Shared(NodeSet),
    /// A single remote node holds the writable copy; home memory is stale.
    Exclusive(NodeId),
}

impl DirState {
    /// The nodes holding remote copies: the sharers, the owner, or nobody.
    pub fn holders(self) -> NodeSet {
        match self {
            DirState::Uncached => NodeSet::EMPTY,
            DirState::Shared(s) => s,
            DirState::Exclusive(o) => NodeSet::single(o),
        }
    }
}

/// A queued coherence request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PendingReq {
    /// Requesting node.
    pub requester: NodeId,
    /// Wants a writable copy.
    pub excl: bool,
    /// The home's hooks recorded this request (schedule building).
    pub recorded: bool,
    /// Sequence number the eventual grant must echo: a retry while parked
    /// refreshes it, so the grant matches the latest attempt.
    pub seq: u64,
}

/// Transient state of an in-flight multi-hop operation: a recall round
/// waiting for `RecallData` from the exclusive `owner`, or an invalidation
/// round waiting for the acks of the sharers in `pending` (a set, not a
/// count, so a duplicated ack cannot double-decrement). Either grants `req`
/// when it completes; `op` is the round's id, and replies naming another
/// are ignored.
#[allow(missing_docs)]
#[derive(Debug)]
pub enum Busy {
    Recall { req: PendingReq, owner: NodeId, op: u64 },
    Invals { req: PendingReq, pending: NodeSet, op: u64 },
}

/// Directory entry for one home block.
#[derive(Debug, Default)]
pub struct DirEntry {
    /// Stable state.
    pub state: DirState,
    /// In-flight operation, if any. While busy, new requests queue in
    /// `waiters`.
    pub busy: Option<Busy>,
    /// Requests queued behind the busy operation, FIFO.
    pub waiters: VecDeque<PendingReq>,
}

impl DirEntry {
    /// Is a multi-hop operation in flight?
    pub fn is_busy(&self) -> bool {
        self.busy.is_some()
    }
}

/// The home directory: per-block entries (existing only for blocks that
/// ever left the default `Uncached` state) plus the home's reliability
/// bookkeeping.
#[derive(Debug, Default)]
pub struct Directory {
    entries: IdMap<BlockId, DirEntry>,
    /// Last accepted request seq per requester. A node issues at most one
    /// coherence request at a time, so one watermark per requester is
    /// enough to reject duplicates and overtaken retransmissions.
    last_seq: IdMap<NodeId, u64>,
    next_op: u64,
}

impl Directory {
    /// An empty directory.
    pub fn new() -> Directory {
        Directory { entries: IdMap::default(), last_seq: IdMap::default(), next_op: 1 }
    }

    /// The entry for `block`, created in its default (`Uncached`, idle)
    /// state if absent.
    pub fn entry(&mut self, block: BlockId) -> &mut DirEntry {
        self.entries.entry(block).or_default()
    }

    /// The entry for `block`, if it ever left the default state.
    pub fn get(&self, block: BlockId) -> Option<&DirEntry> {
        self.entries.get(&block)
    }

    /// The block's stable state, or `None` while a round is in flight.
    pub fn stable(&self, block: BlockId) -> Option<DirState> {
        match self.entries.get(&block) {
            Some(e) if e.is_busy() => None,
            e => Some(e.map_or(DirState::Uncached, |e| e.state)),
        }
    }

    /// Mutable view of an existing entry.
    pub fn get_mut(&mut self, block: BlockId) -> Option<&mut DirEntry> {
        self.entries.get_mut(&block)
    }

    /// Admit a request with sequence number `seq` from `requester`:
    /// returns `true` (and advances the watermark) iff it is newer than
    /// everything accepted from that requester so far. Duplicates and
    /// originals overtaken by their own retry return `false`.
    pub fn accept_seq(&mut self, requester: NodeId, seq: u64) -> bool {
        let last = self.last_seq.entry(requester).or_insert(0);
        let fresh = seq > *last;
        *last = (*last).max(seq);
        fresh
    }

    /// Allocate a home-unique id for a recall / invalidation round.
    pub fn alloc_op(&mut self) -> u64 {
        let op = self.next_op;
        self.next_op += 1;
        op
    }

    /// Iterate over all materialized entries (diagnostics, invariant
    /// checking).
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, &DirEntry)> {
        self.entries.iter().map(|(b, e)| (*b, e))
    }

    /// Capture the directory's full logical state at a quiescent cut into
    /// `ckpt`, overwriting what it held and keeping its buffers.
    ///
    /// # Panics
    ///
    /// Panics if any entry is busy or has queued waiters: a barrier is a
    /// protocol quiescence point, so an in-flight multi-hop operation at
    /// checkpoint time is a protocol bug, not a checkpointable state.
    pub fn checkpoint_into(&self, ckpt: &mut DirCheckpoint) {
        ckpt.entries.clear();
        ckpt.entries.extend(self.entries.iter().map(|(b, e)| {
            assert!(
                !e.is_busy() && e.waiters.is_empty(),
                "directory entry {b:?} busy at a checkpoint cut"
            );
            (*b, e.state)
        }));
        ckpt.last_seq.clear();
        ckpt.last_seq.extend(self.last_seq.iter().map(|(n, s)| (*n, *s)));
        ckpt.next_op = self.next_op;
    }

    /// Roll the directory back to a previously captured cut: entry states,
    /// per-requester seq watermarks, and the op-id allocator all rewind.
    pub fn restore(&mut self, ckpt: &DirCheckpoint) {
        self.entries.clear();
        for (b, state) in &ckpt.entries {
            self.entries
                .insert(*b, DirEntry { state: *state, busy: None, waiters: VecDeque::new() });
        }
        self.last_seq = ckpt.last_seq.iter().copied().collect();
        self.next_op = ckpt.next_op;
    }
}

/// One home's directory shard at a consistent cut: the stable state of
/// every materialized entry (no transients — the cut is quiescent), the
/// per-requester sequence watermarks, and the operation-id allocator.
///
/// The watermarks and allocator are what make the restored directory safe
/// on a still-noisy fabric: they are rolled back *together with* every
/// requester's seq counter (see `NodeCheckpoint`), so replayed requests
/// carry seqs the restored watermarks accept, while any pre-rollback
/// message that survives the recovery drain is rejected as stale.
#[derive(Debug, Default)]
pub struct DirCheckpoint {
    entries: Vec<(BlockId, DirState)>,
    last_seq: Vec<(NodeId, u64)>,
    next_op: u64,
}

#[cfg(test)]
mod tests {
    #![allow(clippy::field_reassign_with_default)]

    use super::*;

    #[test]
    fn default_is_uncached_idle() {
        let e = DirEntry::default();
        assert_eq!(e.state, DirState::Uncached);
        assert!(!e.is_busy());
        assert!(e.waiters.is_empty());
    }

    #[test]
    fn busy_flag() {
        let mut e = DirEntry::default();
        e.busy = Some(Busy::Invals {
            req: PendingReq { requester: 1, excl: true, recorded: false, seq: 1 },
            pending: NodeSet::single(2),
            op: 1,
        });
        assert!(e.is_busy());
    }

    #[test]
    fn seq_watermark_rejects_duplicates() {
        let mut d = Directory::new();
        assert!(d.accept_seq(3, 1));
        assert!(!d.accept_seq(3, 1), "exact duplicate rejected");
        assert!(d.accept_seq(3, 5), "retry with a fresh seq accepted");
        assert!(!d.accept_seq(3, 4), "overtaken original rejected");
        assert!(d.accept_seq(4, 1), "watermarks are per requester");
    }

    #[test]
    fn ops_are_unique() {
        let mut d = Directory::new();
        let a = d.alloc_op();
        let b = d.alloc_op();
        assert_ne!(a, b);
    }

    #[test]
    fn checkpoint_restore_round_trips() {
        let mut d = Directory::new();
        d.entry(BlockId(1)).state = DirState::Shared(NodeSet::single(2));
        d.entry(BlockId(9)).state = DirState::Exclusive(3);
        assert!(d.accept_seq(2, 7));
        let op_before = d.alloc_op();
        let mut ckpt = DirCheckpoint::default();
        d.checkpoint_into(&mut ckpt);

        // Diverge: new entry, watermark moves, more ops burned.
        d.entry(BlockId(5)).state = DirState::Exclusive(1);
        assert!(d.accept_seq(2, 20));
        d.alloc_op();
        d.alloc_op();

        d.restore(&ckpt);
        assert_eq!(d.get(BlockId(1)).unwrap().state, DirState::Shared(NodeSet::single(2)));
        assert_eq!(d.get(BlockId(9)).unwrap().state, DirState::Exclusive(3));
        assert!(d.get(BlockId(5)).is_none(), "post-cut entries must be forgotten");
        assert!(!d.accept_seq(2, 7), "restored watermark still rejects the old seq");
        assert!(d.accept_seq(2, 8), "but accepts the next one");
        assert_eq!(d.alloc_op(), op_before + 1, "op allocator rewinds");
    }

    #[test]
    #[should_panic(expected = "busy at a checkpoint cut")]
    fn checkpoint_panics_on_busy_entry() {
        let mut d = Directory::new();
        d.entry(BlockId(4)).busy = Some(Busy::Recall {
            req: PendingReq { requester: 1, excl: false, recorded: false, seq: 1 },
            owner: 2,
            op: 1,
        });
        d.checkpoint_into(&mut DirCheckpoint::default());
    }

    #[test]
    fn reused_checkpoint_buffer_leaks_nothing() {
        // What a restored directory holds: entries, watermarks, op ids.
        let view = |d: &Directory| {
            let mut entries: Vec<(u64, DirState)> = d.iter().map(|(b, e)| (b.0, e.state)).collect();
            entries.sort_by_key(|(b, _)| *b);
            let mut seqs: Vec<(NodeId, u64)> = d.last_seq.iter().map(|(n, s)| (*n, *s)).collect();
            seqs.sort_unstable();
            (entries, seqs, d.next_op)
        };
        let mut big = Directory::new();
        for b in 0..8u16 {
            big.entry(BlockId(u64::from(b))).state = DirState::Exclusive(1);
            assert!(big.accept_seq(b, 3));
        }
        let mut small = Directory::new();
        small.entry(BlockId(20)).state = DirState::Shared(NodeSet::single(2));
        assert!(small.accept_seq(9, 5));
        small.alloc_op();

        let (mut reused, mut fresh) = (DirCheckpoint::default(), DirCheckpoint::default());
        big.checkpoint_into(&mut reused);
        small.checkpoint_into(&mut reused);
        small.checkpoint_into(&mut fresh);
        let (mut from_reused, mut from_fresh) = (Directory::new(), Directory::new());
        from_reused.restore(&reused);
        from_fresh.restore(&fresh);
        assert_eq!(view(&from_reused), view(&from_fresh));
        assert_eq!(view(&from_fresh), view(&small));
    }
}
