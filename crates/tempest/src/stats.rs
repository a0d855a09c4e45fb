//! Per-node event counters, per-link fault counters, and the execution-time
//! breakdown.
//!
//! The paper's performance graphs (Figures 5–7) split each bar into three
//! sections: *remote data wait*, *predictive protocol* (pre-send phase), and
//! *compute + synch*. [`TimeBreakdown`] carries exactly those sections (with
//! compute and synch kept separate so the synchronization effect in §5.1 can
//! be observed); [`NodeStats`] counts the underlying protocol events.
//! [`FaultStats`] counts, per (src, dst) link, what the fabric's fault layer
//! (`crate::faults`) did to traffic.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::NodeId;

/// Event counters for one node. All counters are cumulative over the run and
/// safe to update from any thread — except `reads` and `writes`, which have
/// a single writer (see [`NodeStats::bump_single_writer`]). In a running
/// machine the node's own thread does all the counting; other threads
/// (watchdog, metrics, reports) only read.
#[derive(Debug, Default)]
pub struct NodeStats {
    /// Shared-memory loads issued by the node's program. Single-writer:
    /// only the node's own thread may change it.
    pub reads: AtomicU64,
    /// Shared-memory stores issued by the node's program. Single-writer,
    /// like `reads`.
    pub writes: AtomicU64,
    /// Read faults that required a remote request.
    pub read_misses: AtomicU64,
    /// Write faults that required a remote request (including upgrades).
    pub write_misses: AtomicU64,
    /// Misses that needed extra hops (recall from an owner or an
    /// invalidation round) — the expensive 3/4-message transfers of §3.2.
    pub slow_misses: AtomicU64,
    /// Invalidation requests this node serviced.
    pub invals_in: AtomicU64,
    /// Recall/downgrade requests this node serviced.
    pub recalls_in: AtomicU64,
    /// Protocol messages this node sent (all kinds).
    pub msgs_out: AtomicU64,
    /// Blocks this node pre-sent as a home node.
    pub presend_blocks_out: AtomicU64,
    /// Bulk messages used for those pre-sends (≤ blocks; smaller when
    /// coalescing merges neighbors).
    pub presend_msgs_out: AtomicU64,
    /// Bytes this node pre-sent.
    pub presend_bytes_out: AtomicU64,
    /// Blocks installed on this node by pre-sends from other homes.
    pub presend_blocks_in: AtomicU64,
    /// Schedule entries recorded at this node (as home).
    pub sched_records: AtomicU64,
    /// Faulting accesses that found the block already installed by a
    /// pre-send earlier in the same phase — should stay 0 on a fault-free
    /// fabric; a diagnostic.
    pub presend_races: AtomicU64,
    /// Coherence requests this node re-issued after a
    /// reply timeout.
    pub retries: AtomicU64,
    /// Pre-send bulk messages this node retransmitted after an ack timeout.
    pub presend_retries: AtomicU64,
    /// Duplicate or stale requests (seqno not newer than the last accepted
    /// one from that requester) this home ignored.
    pub dup_reqs_in: AtomicU64,
    /// Stale protocol messages (recall data, invalidation acks, recalls of
    /// blocks no longer held) ignored because their operation id did not
    /// match any operation in flight.
    pub stale_msgs_in: AtomicU64,
    /// Grants discarded because their seqno no longer matched the fetch
    /// in flight (a retry had superseded them).
    pub stale_grants_in: AtomicU64,
    /// Pre-send installs rejected because they arrived outside their
    /// pre-send window (stale duplicates of acknowledged pushes).
    pub presend_stale_in: AtomicU64,
    /// Pushes this home dropped at the pass-2 revalidation because the
    /// directory state had changed since pass 1 recorded them (entry went
    /// busy, or a demand request won the block in between).
    pub presend_aborted: AtomicU64,
    /// Data bytes installed into this node's memory from protocol messages
    /// (grants, recalled data, pre-send payloads).
    pub data_bytes_in: AtomicU64,
    /// Useless pre-sends charged to this node as a home: copies it pushed
    /// that were torn down or overwritten without ever being accessed.
    pub presend_useless: AtomicU64,
    /// Times the degradation policy flushed one of this home's phase
    /// schedules and fell back to plain Stache.
    pub degrade_events: AtomicU64,
    /// Barrier-consistent checkpoints this node captured.
    pub checkpoints: AtomicU64,
    /// Bytes of block data captured into those checkpoints.
    pub checkpoint_bytes: AtomicU64,
    /// Rollback-to-checkpoint recoveries this node participated in.
    pub recoveries: AtomicU64,
    /// Phase executions this node re-ran after a rollback.
    pub replays: AtomicU64,
    /// Blocks homed at this node by a placement overlay (offline remap or
    /// scatter) rather than by the segment-derived default.
    pub remapped_blocks: AtomicU64,
    /// Delta chunks this node pushed to other owners during commutative
    /// merge windows (initial sends only; retransmissions are not
    /// re-counted, so the total is deterministic on every fabric).
    pub merge_chunks_out: AtomicU64,
}

impl NodeStats {
    /// Increment a counter by 1.
    #[inline]
    pub fn bump(c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment a counter that only the calling thread ever writes: a
    /// relaxed load and a relaxed store, not a locked read-modify-write
    /// (which costs an order of magnitude more and is paid on every
    /// shared access).
    ///
    /// Correct only under the single-writer invariant: every write to `c`
    /// — this increment and [`NodeStats::restore`] on the rollback path —
    /// comes from one thread, so no update can fall between the load and
    /// the store. `reads` and `writes` qualify: the node's thread counts
    /// its own accesses and runs its own recovery. Any other thread
    /// may *read* the counter at any time (snapshots, metrics cuts); it
    /// sees some value the counter held, as with `fetch_add`.
    #[inline]
    pub fn bump_single_writer(c: &AtomicU64) {
        Self::add_single_writer(c, 1);
    }

    /// [`Self::bump_single_writer`] by `n`: a run segment's hits, counted
    /// at once.
    #[inline]
    pub fn add_single_writer(c: &AtomicU64, n: u64) {
        c.store(c.load(Ordering::Relaxed) + n, Ordering::Relaxed);
    }

    /// Increment a counter by `n`.
    #[inline]
    pub fn add(c: &AtomicU64, n: u64) {
        c.fetch_add(n, Ordering::Relaxed);
    }

    /// A plain-value snapshot of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        let g = |c: &AtomicU64| c.load(Ordering::Relaxed);
        StatsSnapshot {
            reads: g(&self.reads),
            writes: g(&self.writes),
            read_misses: g(&self.read_misses),
            write_misses: g(&self.write_misses),
            slow_misses: g(&self.slow_misses),
            invals_in: g(&self.invals_in),
            recalls_in: g(&self.recalls_in),
            msgs_out: g(&self.msgs_out),
            presend_blocks_out: g(&self.presend_blocks_out),
            presend_msgs_out: g(&self.presend_msgs_out),
            presend_bytes_out: g(&self.presend_bytes_out),
            presend_blocks_in: g(&self.presend_blocks_in),
            sched_records: g(&self.sched_records),
            presend_races: g(&self.presend_races),
            retries: g(&self.retries),
            presend_retries: g(&self.presend_retries),
            dup_reqs_in: g(&self.dup_reqs_in),
            stale_msgs_in: g(&self.stale_msgs_in),
            stale_grants_in: g(&self.stale_grants_in),
            presend_stale_in: g(&self.presend_stale_in),
            presend_aborted: g(&self.presend_aborted),
            data_bytes_in: g(&self.data_bytes_in),
            presend_useless: g(&self.presend_useless),
            degrade_events: g(&self.degrade_events),
            checkpoints: g(&self.checkpoints),
            checkpoint_bytes: g(&self.checkpoint_bytes),
            recoveries: g(&self.recoveries),
            replays: g(&self.replays),
            remapped_blocks: g(&self.remapped_blocks),
            merge_chunks_out: g(&self.merge_chunks_out),
        }
    }

    /// Overwrite every counter with the values in `s` — the rollback path:
    /// restoring the checkpoint-time snapshot makes a recovered replay
    /// account its protocol events exactly once, so blocks-moved equality
    /// with the fault-free run is exact rather than approximate.
    pub fn restore(&self, s: &StatsSnapshot) {
        let p = |c: &AtomicU64, v: u64| c.store(v, Ordering::Relaxed);
        p(&self.reads, s.reads);
        p(&self.writes, s.writes);
        p(&self.read_misses, s.read_misses);
        p(&self.write_misses, s.write_misses);
        p(&self.slow_misses, s.slow_misses);
        p(&self.invals_in, s.invals_in);
        p(&self.recalls_in, s.recalls_in);
        p(&self.msgs_out, s.msgs_out);
        p(&self.presend_blocks_out, s.presend_blocks_out);
        p(&self.presend_msgs_out, s.presend_msgs_out);
        p(&self.presend_bytes_out, s.presend_bytes_out);
        p(&self.presend_blocks_in, s.presend_blocks_in);
        p(&self.sched_records, s.sched_records);
        p(&self.presend_races, s.presend_races);
        p(&self.retries, s.retries);
        p(&self.presend_retries, s.presend_retries);
        p(&self.dup_reqs_in, s.dup_reqs_in);
        p(&self.stale_msgs_in, s.stale_msgs_in);
        p(&self.stale_grants_in, s.stale_grants_in);
        p(&self.presend_stale_in, s.presend_stale_in);
        p(&self.presend_aborted, s.presend_aborted);
        p(&self.data_bytes_in, s.data_bytes_in);
        p(&self.presend_useless, s.presend_useless);
        p(&self.degrade_events, s.degrade_events);
        p(&self.checkpoints, s.checkpoints);
        p(&self.checkpoint_bytes, s.checkpoint_bytes);
        p(&self.recoveries, s.recoveries);
        p(&self.replays, s.replays);
        p(&self.remapped_blocks, s.remapped_blocks);
        p(&self.merge_chunks_out, s.merge_chunks_out);
    }
}

/// Plain-value copy of [`NodeStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings documented on NodeStats
pub struct StatsSnapshot {
    pub reads: u64,
    pub writes: u64,
    pub read_misses: u64,
    pub write_misses: u64,
    pub slow_misses: u64,
    pub invals_in: u64,
    pub recalls_in: u64,
    pub msgs_out: u64,
    pub presend_blocks_out: u64,
    pub presend_msgs_out: u64,
    pub presend_bytes_out: u64,
    pub presend_blocks_in: u64,
    pub sched_records: u64,
    pub presend_races: u64,
    pub retries: u64,
    pub presend_retries: u64,
    pub dup_reqs_in: u64,
    pub stale_msgs_in: u64,
    pub stale_grants_in: u64,
    pub presend_stale_in: u64,
    pub presend_aborted: u64,
    pub data_bytes_in: u64,
    pub presend_useless: u64,
    pub degrade_events: u64,
    pub checkpoints: u64,
    pub checkpoint_bytes: u64,
    pub recoveries: u64,
    pub replays: u64,
    pub remapped_blocks: u64,
    pub merge_chunks_out: u64,
}

macro_rules! per_field {
    ($a:ident, $b:ident, $op:tt) => {
        StatsSnapshot {
            reads: $a.reads $op $b.reads,
            writes: $a.writes $op $b.writes,
            read_misses: $a.read_misses $op $b.read_misses,
            write_misses: $a.write_misses $op $b.write_misses,
            slow_misses: $a.slow_misses $op $b.slow_misses,
            invals_in: $a.invals_in $op $b.invals_in,
            recalls_in: $a.recalls_in $op $b.recalls_in,
            msgs_out: $a.msgs_out $op $b.msgs_out,
            presend_blocks_out: $a.presend_blocks_out $op $b.presend_blocks_out,
            presend_msgs_out: $a.presend_msgs_out $op $b.presend_msgs_out,
            presend_bytes_out: $a.presend_bytes_out $op $b.presend_bytes_out,
            presend_blocks_in: $a.presend_blocks_in $op $b.presend_blocks_in,
            sched_records: $a.sched_records $op $b.sched_records,
            presend_races: $a.presend_races $op $b.presend_races,
            retries: $a.retries $op $b.retries,
            presend_retries: $a.presend_retries $op $b.presend_retries,
            dup_reqs_in: $a.dup_reqs_in $op $b.dup_reqs_in,
            stale_msgs_in: $a.stale_msgs_in $op $b.stale_msgs_in,
            stale_grants_in: $a.stale_grants_in $op $b.stale_grants_in,
            presend_stale_in: $a.presend_stale_in $op $b.presend_stale_in,
            presend_aborted: $a.presend_aborted $op $b.presend_aborted,
            data_bytes_in: $a.data_bytes_in $op $b.data_bytes_in,
            presend_useless: $a.presend_useless $op $b.presend_useless,
            degrade_events: $a.degrade_events $op $b.degrade_events,
            checkpoints: $a.checkpoints $op $b.checkpoints,
            checkpoint_bytes: $a.checkpoint_bytes $op $b.checkpoint_bytes,
            recoveries: $a.recoveries $op $b.recoveries,
            replays: $a.replays $op $b.replays,
            remapped_blocks: $a.remapped_blocks $op $b.remapped_blocks,
            merge_chunks_out: $a.merge_chunks_out $op $b.merge_chunks_out,
        }
    };
}

impl StatsSnapshot {
    /// Total misses (read + write).
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Total accesses (reads + writes).
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Fraction of accesses satisfied locally (the quantity the predictive
    /// protocol raises — abstract's "number of shared-data requests
    /// satisfied locally").
    pub fn local_fraction(&self) -> f64 {
        if self.accesses() == 0 {
            1.0
        } else {
            1.0 - self.misses() as f64 / self.accesses() as f64
        }
    }

    /// Every counter as a `(name, value)` pair, in declaration order.
    /// Serializers (the run-report JSON, the trace analyzer) iterate this
    /// instead of hand-listing fields, so a new counter shows up
    /// everywhere by editing `NodeStats` + this table only.
    pub fn fields(&self) -> [(&'static str, u64); 30] {
        [
            ("reads", self.reads),
            ("writes", self.writes),
            ("read_misses", self.read_misses),
            ("write_misses", self.write_misses),
            ("slow_misses", self.slow_misses),
            ("invals_in", self.invals_in),
            ("recalls_in", self.recalls_in),
            ("msgs_out", self.msgs_out),
            ("presend_blocks_out", self.presend_blocks_out),
            ("presend_msgs_out", self.presend_msgs_out),
            ("presend_bytes_out", self.presend_bytes_out),
            ("presend_blocks_in", self.presend_blocks_in),
            ("sched_records", self.sched_records),
            ("presend_races", self.presend_races),
            ("retries", self.retries),
            ("presend_retries", self.presend_retries),
            ("dup_reqs_in", self.dup_reqs_in),
            ("stale_msgs_in", self.stale_msgs_in),
            ("stale_grants_in", self.stale_grants_in),
            ("presend_stale_in", self.presend_stale_in),
            ("presend_aborted", self.presend_aborted),
            ("data_bytes_in", self.data_bytes_in),
            ("presend_useless", self.presend_useless),
            ("degrade_events", self.degrade_events),
            ("checkpoints", self.checkpoints),
            ("checkpoint_bytes", self.checkpoint_bytes),
            ("recoveries", self.recoveries),
            ("replays", self.replays),
            ("remapped_blocks", self.remapped_blocks),
            ("merge_chunks_out", self.merge_chunks_out),
        ]
    }

    /// Every counter as a `(name, &mut value)` pair, in the same order as
    /// [`StatsSnapshot::fields`]. Deserializers (the metrics JSONL parser)
    /// iterate this, so the two tables cannot drift apart silently: a
    /// counter added to one but not the other fails the round-trip test.
    pub fn fields_mut(&mut self) -> [(&'static str, &mut u64); 30] {
        [
            ("reads", &mut self.reads),
            ("writes", &mut self.writes),
            ("read_misses", &mut self.read_misses),
            ("write_misses", &mut self.write_misses),
            ("slow_misses", &mut self.slow_misses),
            ("invals_in", &mut self.invals_in),
            ("recalls_in", &mut self.recalls_in),
            ("msgs_out", &mut self.msgs_out),
            ("presend_blocks_out", &mut self.presend_blocks_out),
            ("presend_msgs_out", &mut self.presend_msgs_out),
            ("presend_bytes_out", &mut self.presend_bytes_out),
            ("presend_blocks_in", &mut self.presend_blocks_in),
            ("sched_records", &mut self.sched_records),
            ("presend_races", &mut self.presend_races),
            ("retries", &mut self.retries),
            ("presend_retries", &mut self.presend_retries),
            ("dup_reqs_in", &mut self.dup_reqs_in),
            ("stale_msgs_in", &mut self.stale_msgs_in),
            ("stale_grants_in", &mut self.stale_grants_in),
            ("presend_stale_in", &mut self.presend_stale_in),
            ("presend_aborted", &mut self.presend_aborted),
            ("data_bytes_in", &mut self.data_bytes_in),
            ("presend_useless", &mut self.presend_useless),
            ("degrade_events", &mut self.degrade_events),
            ("checkpoints", &mut self.checkpoints),
            ("checkpoint_bytes", &mut self.checkpoint_bytes),
            ("recoveries", &mut self.recoveries),
            ("replays", &mut self.replays),
            ("remapped_blocks", &mut self.remapped_blocks),
            ("merge_chunks_out", &mut self.merge_chunks_out),
        ]
    }

    /// Element-wise sum, for machine-wide totals.
    pub fn merge(&self, o: &StatsSnapshot) -> StatsSnapshot {
        per_field!(self, o, +)
    }

    /// Element-wise difference (`self - o`), for per-run deltas from
    /// cumulative counters.
    pub fn sub(&self, o: &StatsSnapshot) -> StatsSnapshot {
        per_field!(self, o, -)
    }
}

/// Fault counters for one (src, dst) link of the fabric.
#[derive(Debug, Default)]
pub struct LinkFaults {
    delayed: AtomicU64,
    duplicated: AtomicU64,
    dropped: AtomicU64,
    released: AtomicU64,
}

impl LinkFaults {
    /// Count one delayed message.
    pub fn count_delayed(&self) {
        self.delayed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one duplicated message.
    pub fn count_duplicated(&self) {
        self.duplicated.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one dropped message.
    pub fn count_dropped(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one held message released back onto the link.
    pub fn count_released(&self) {
        self.released.fetch_add(1, Ordering::Relaxed);
    }

    /// Plain-value copy of the counters.
    pub fn snapshot(&self) -> LinkFaultsSnapshot {
        LinkFaultsSnapshot {
            delayed: self.delayed.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            released: self.released.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`LinkFaults`]. Messages held by a stalled link at
/// teardown show up as `delayed - released` (plus any message queued behind
/// them, which is also counted as released when the stall flushes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct LinkFaultsSnapshot {
    pub delayed: u64,
    pub duplicated: u64,
    pub dropped: u64,
    pub released: u64,
}

impl LinkFaultsSnapshot {
    /// Element-wise sum.
    pub fn merge(&self, o: &LinkFaultsSnapshot) -> LinkFaultsSnapshot {
        LinkFaultsSnapshot {
            delayed: self.delayed + o.delayed,
            duplicated: self.duplicated + o.duplicated,
            dropped: self.dropped + o.dropped,
            released: self.released + o.released,
        }
    }
}

/// Per-link fault counters for a whole fabric (row-major: `src * n + dst`).
#[derive(Debug)]
pub struct FaultStats {
    n: usize,
    links: Vec<LinkFaults>,
}

impl FaultStats {
    /// Zeroed counters for an `n`-node fabric.
    pub fn new(n: usize) -> FaultStats {
        FaultStats { n, links: (0..n * n).map(|_| LinkFaults::default()).collect() }
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.n
    }

    /// Counters of the (src, dst) link.
    pub fn link(&self, src: NodeId, dst: NodeId) -> &LinkFaults {
        &self.links[src as usize * self.n + dst as usize]
    }

    /// Sum over all links.
    pub fn total(&self) -> LinkFaultsSnapshot {
        self.links.iter().fold(LinkFaultsSnapshot::default(), |acc, l| acc.merge(&l.snapshot()))
    }
}

/// Wire-level transport counters of one fabric: how many [`WireBatch`]es
/// crossed the channels and how many envelopes they carried in total
/// (see [`FabricCtl::wire`]). Mean occupancy — envelopes per batch — is
/// the aggregation payoff: 1.0 means batching bought nothing.
///
/// Unlike the logical traffic counters these numbers depend on thread
/// timing (how full a buffer happened to be when a flush hit it), so they
/// are reported for trend-watching but never equality-gated.
///
/// [`WireBatch`]: crate::fabric::WireBatch
/// [`FabricCtl::wire`]: crate::fabric::FabricCtl::wire
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireSnapshot {
    /// Wire batches put on channels.
    pub batches: u64,
    /// Envelopes those batches carried.
    pub envelopes: u64,
    /// Occupancy histogram: batches bucketed by envelope count. Bucket
    /// edges are [`WireSnapshot::BUCKETS`]; the last bucket is open-ended.
    pub hist: [u64; WireSnapshot::NUM_BUCKETS],
}

impl WireSnapshot {
    /// Number of occupancy buckets.
    pub const NUM_BUCKETS: usize = 8;

    /// Upper edge (inclusive) of each occupancy bucket: a batch of `n`
    /// envelopes lands in the first bucket with edge ≥ `n`; larger batches
    /// land in the open-ended last bucket ("65+").
    pub const BUCKETS: [u64; WireSnapshot::NUM_BUCKETS] = [1, 2, 4, 8, 16, 32, 64, u64::MAX];

    /// Human label of a bucket, for reports.
    pub fn bucket_label(i: usize) -> &'static str {
        ["1", "2", "3-4", "5-8", "9-16", "17-32", "33-64", "65+"][i]
    }

    /// Index of the bucket a batch of `n` envelopes falls into.
    pub fn bucket_index(n: u64) -> usize {
        Self::BUCKETS.iter().position(|&edge| n <= edge).unwrap_or(Self::NUM_BUCKETS - 1)
    }

    /// Envelopes per batch (1.0 for an idle fabric, so a no-traffic run
    /// still reads as "no aggregation win" rather than dividing by zero).
    pub fn mean_occupancy(&self) -> f64 {
        if self.batches == 0 {
            1.0
        } else {
            self.envelopes as f64 / self.batches as f64
        }
    }

    /// Element-wise sum.
    pub fn merge(&self, o: &WireSnapshot) -> WireSnapshot {
        let mut hist = self.hist;
        for (h, x) in hist.iter_mut().zip(o.hist) {
            *h += x;
        }
        WireSnapshot {
            batches: self.batches + o.batches,
            envelopes: self.envelopes + o.envelopes,
            hist,
        }
    }

    /// Element-wise difference (`self - o`), for before/after deltas.
    pub fn sub(&self, o: &WireSnapshot) -> WireSnapshot {
        let mut hist = self.hist;
        for (h, x) in hist.iter_mut().zip(o.hist) {
            *h -= x;
        }
        WireSnapshot {
            batches: self.batches - o.batches,
            envelopes: self.envelopes - o.envelopes,
            hist,
        }
    }
}

/// Virtual-time breakdown of one node's execution, mirroring the paper's
/// stacked bars.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeBreakdown {
    /// Computation: arithmetic plus local (hit) shared-memory accesses.
    pub compute_ns: u64,
    /// Time blocked waiting for non-local memory accesses ("Remote data
    /// wait" in the figures).
    pub wait_ns: u64,
    /// Time spent in the pre-send phase of the predictive protocol.
    pub presend_ns: u64,
    /// Time stalled at barriers waiting for other nodes.
    pub synch_ns: u64,
}

impl TimeBreakdown {
    /// Total virtual time.
    pub fn total_ns(&self) -> u64 {
        self.compute_ns + self.wait_ns + self.presend_ns + self.synch_ns
    }

    /// The paper's third bar segment: compute and synchronization combined.
    pub fn compute_synch_ns(&self) -> u64 {
        self.compute_ns + self.synch_ns
    }

    /// Element-wise sum.
    pub fn merge(&self, o: &TimeBreakdown) -> TimeBreakdown {
        TimeBreakdown {
            compute_ns: self.compute_ns + o.compute_ns,
            wait_ns: self.wait_ns + o.wait_ns,
            presend_ns: self.presend_ns + o.presend_ns,
            synch_ns: self.synch_ns + o.synch_ns,
        }
    }

    /// Element-wise difference (`self - o`), for per-phase deltas from the
    /// cumulative per-node breakdown.
    pub fn sub(&self, o: &TimeBreakdown) -> TimeBreakdown {
        TimeBreakdown {
            compute_ns: self.compute_ns - o.compute_ns,
            wait_ns: self.wait_ns - o.wait_ns,
            presend_ns: self.presend_ns - o.presend_ns,
            synch_ns: self.synch_ns - o.synch_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_merge() {
        let s = NodeStats::default();
        NodeStats::bump(&s.reads);
        NodeStats::bump(&s.reads);
        NodeStats::bump(&s.read_misses);
        NodeStats::add(&s.msgs_out, 5);
        let snap = s.snapshot();
        assert_eq!(snap.reads, 2);
        assert_eq!(snap.misses(), 1);
        assert_eq!(snap.msgs_out, 5);
        let twice = snap.merge(&snap);
        assert_eq!(twice.reads, 4);
        assert_eq!(twice.msgs_out, 10);
    }

    #[test]
    fn sub_gives_deltas() {
        let s = NodeStats::default();
        NodeStats::add(&s.retries, 3);
        NodeStats::add(&s.msgs_out, 10);
        let before = s.snapshot();
        NodeStats::add(&s.retries, 2);
        NodeStats::add(&s.dup_reqs_in, 7);
        let after = s.snapshot();
        let d = after.sub(&before);
        assert_eq!(d.retries, 2);
        assert_eq!(d.dup_reqs_in, 7);
        assert_eq!(d.msgs_out, 0);
    }

    #[test]
    fn restore_overwrites_every_counter() {
        let s = NodeStats::default();
        NodeStats::add(&s.reads, 10);
        NodeStats::add(&s.msgs_out, 4);
        let at_cut = s.snapshot();
        NodeStats::add(&s.reads, 99);
        NodeStats::bump(&s.checkpoints);
        NodeStats::add(&s.checkpoint_bytes, 1024);
        s.restore(&at_cut);
        assert_eq!(s.snapshot(), at_cut, "rollback must restore the exact cut");
    }

    #[test]
    fn local_fraction() {
        let mut snap = StatsSnapshot::default();
        assert_eq!(snap.local_fraction(), 1.0);
        snap.reads = 10;
        snap.read_misses = 2;
        assert!((snap.local_fraction() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn fault_stats_per_link() {
        let f = FaultStats::new(3);
        f.link(0, 1).count_dropped();
        f.link(0, 1).count_dropped();
        f.link(2, 0).count_delayed();
        assert_eq!(f.link(0, 1).snapshot().dropped, 2);
        assert_eq!(f.link(1, 0).snapshot().dropped, 0);
        let t = f.total();
        assert_eq!((t.dropped, t.delayed), (2, 1));
    }

    #[test]
    fn wire_occupancy_buckets() {
        assert_eq!(WireSnapshot::bucket_index(1), 0);
        assert_eq!(WireSnapshot::bucket_index(2), 1);
        assert_eq!(WireSnapshot::bucket_index(3), 2);
        assert_eq!(WireSnapshot::bucket_index(4), 2);
        assert_eq!(WireSnapshot::bucket_index(5), 3);
        assert_eq!(WireSnapshot::bucket_index(16), 4);
        assert_eq!(WireSnapshot::bucket_index(64), 6);
        assert_eq!(WireSnapshot::bucket_index(65), 7);
        assert_eq!(WireSnapshot::bucket_index(1_000_000), 7);
        let mut a = WireSnapshot { batches: 2, envelopes: 5, hist: [0; 8] };
        a.hist[0] = 1;
        a.hist[2] = 1;
        let sum = a.merge(&a);
        assert_eq!(sum.hist[0], 2);
        assert_eq!(sum.sub(&a), a);
    }

    #[test]
    fn breakdown_totals() {
        let t = TimeBreakdown { compute_ns: 10, wait_ns: 20, presend_ns: 5, synch_ns: 7 };
        assert_eq!(t.total_ns(), 42);
        assert_eq!(t.compute_synch_ns(), 17);
        assert_eq!(t.merge(&t).total_ns(), 84);
    }
}
