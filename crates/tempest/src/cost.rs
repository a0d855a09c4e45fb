//! The virtual-time cost model.
//!
//! The paper measures wall-clock on a 32-node CM-5 where a remote shared-data
//! access costs ~200 µs on average (§5.4). We run on stock hardware, so the
//! reproduction separates *what happens* from *what it costs*: the protocols
//! really move data between emulated nodes, and this model converts the
//! observed events — local accesses, remote misses (with their hop counts),
//! bulk pre-send transfers, barrier gaps — into deterministic virtual time.
//!
//! The defaults are calibrated to CM-5/Blizzard-era constants. Only the
//! *ratios* matter for the paper's conclusions (who wins, where the
//! block-size crossovers fall); absolute times are not claimed.

/// Cost-model constants, all in nanoseconds of virtual time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// One fine-grain access-control check plus the load/store itself
    /// (Blizzard-S software check, ~10–20 instructions on a 33 MHz SPARC).
    pub local_access_ns: u64,
    /// One unit of application arithmetic (charged via `work()`).
    pub flop_ns: u64,
    /// Base round-trip latency of a 2-hop miss (requester → home → data
    /// back) including both protocol handlers.
    pub miss_base_ns: u64,
    /// A fault on a block whose home is the faulting node itself (e.g. an
    /// owner write to a block with remote read-only copies): no remote
    /// request round trip, only the local fault/handler cost; any
    /// invalidation/recall rounds add `miss_hop_ns` each.
    pub local_fault_ns: u64,
    /// Per-block cost of a pre-send tear-down (recall/invalidation of
    /// stale copies before forwarding). Unlike a demand fault, tear-downs
    /// for many blocks are issued by the protocol back-to-back and their
    /// round trips overlap in the network, so each block is billed handler
    /// occupancy rather than full round-trip latency (§3.4's batched
    /// pre-send phase).
    pub ensure_ns: u64,
    /// Additional latency per extra protocol hop (recall from an exclusive
    /// owner, or one invalidation round), making 3- and 4-hop transfers
    /// proportionally slower — the write-invalidate inefficiency of §3.2.
    pub miss_hop_ns: u64,
    /// Wire + copy cost per byte transferred.
    pub per_byte_ns: u64,
    /// Fixed startup cost of one message (the term the pre-send phase
    /// amortizes by coalescing neighboring blocks into bulk messages, §3.4).
    pub msg_startup_ns: u64,
    /// Per-block handler cost in the pre-send phase (schedule walk at the
    /// home, install at the receiver).
    pub presend_block_ns: u64,
    /// Extra home-handler cost of recording one schedule entry while the
    /// predictive protocol is building a schedule (§5.4 "cost of building
    /// communication schedules in augmented protocol handlers").
    pub record_ns: u64,
    /// Cost of one global barrier (the CM-5 had a hardware barrier
    /// network).
    pub barrier_ns: u64,
    /// Time a node waits before re-issuing an unanswered
    /// coherence request (charged once per retry on top of the miss cost).
    pub retry_ns: u64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            local_access_ns: 100,
            flop_ns: 60,
            miss_base_ns: 150_000,
            local_fault_ns: 60_000,
            ensure_ns: 15_000,
            miss_hop_ns: 50_000,
            per_byte_ns: 50,
            msg_startup_ns: 30_000,
            presend_block_ns: 3_000,
            record_ns: 2_000,
            barrier_ns: 10_000,
            retry_ns: 150_000,
        }
    }
}

impl CostModel {
    /// Virtual time a node waits for one remote miss.
    ///
    /// `extra_hops` counts recalls/invalidation rounds beyond the minimal
    /// request–response pair; `bytes` is the block size transferred (0 for
    /// an upgrade that moves no data); `recorded` adds the schedule-building
    /// overhead when the predictive protocol is recording.
    #[inline]
    pub fn miss_ns(&self, extra_hops: u32, bytes: usize, recorded: bool) -> u64 {
        self.miss_base_ns
            + u64::from(extra_hops) * self.miss_hop_ns
            + bytes as u64 * self.per_byte_ns
            + if recorded { self.record_ns } else { 0 }
    }

    /// Virtual time a node waits for a fault on its *own* home
    /// block (invalidating sharers / recalling an owner).
    #[inline]
    pub fn local_fault_ns(&self, extra_hops: u32, bytes: usize, recorded: bool) -> u64 {
        self.local_fault_ns
            + u64::from(extra_hops) * self.miss_hop_ns
            + bytes as u64 * self.per_byte_ns
            + if recorded { self.record_ns } else { 0 }
    }

    /// Per-block cost of one pre-send tear-down (overlapped rounds).
    #[inline]
    pub fn ensure_ns(&self, bytes: usize) -> u64 {
        self.ensure_ns + bytes as u64 * self.per_byte_ns
    }

    /// Virtual time for one bulk pre-send transfer of `blocks` blocks
    /// (coalesced into `msgs` messages) totalling `bytes` bytes.
    #[inline]
    pub fn bulk_ns(&self, msgs: u64, blocks: u64, bytes: u64) -> u64 {
        msgs * self.msg_startup_ns + blocks * self.presend_block_ns + bytes * self.per_byte_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_cost_grows_with_hops_and_bytes() {
        let c = CostModel::default();
        let two_hop = c.miss_ns(0, 32, false);
        let four_hop = c.miss_ns(2, 32, false);
        assert!(four_hop > two_hop);
        assert!(c.miss_ns(0, 1024, false) > c.miss_ns(0, 32, false));
        assert_eq!(c.miss_ns(0, 0, true) - c.miss_ns(0, 0, false), c.record_ns);
    }

    #[test]
    fn coalescing_saves_startups() {
        let c = CostModel::default();
        // 64 blocks of 32B in one message vs 64 messages.
        let coalesced = c.bulk_ns(1, 64, 64 * 32);
        let separate = c.bulk_ns(64, 64, 64 * 32);
        assert!(coalesced < separate);
        assert_eq!(separate - coalesced, 63 * c.msg_startup_ns);
    }

    #[test]
    fn presend_beats_misses_at_small_blocks() {
        // The heart of the paper: pre-sending F blocks in bulk must be much
        // cheaper than F blocking 200µs misses at 32-byte blocks.
        let c = CostModel::default();
        let f = 100u64;
        let presend = c.bulk_ns(f / 16, f, f * 32);
        let misses = f * c.miss_ns(0, 32, false);
        assert!(presend * 3 < misses, "presend {presend} vs misses {misses}");
    }
}
