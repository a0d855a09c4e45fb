//! Per-node event counters, the fabric's fault counters, and the
//! execution-time breakdown.
//!
//! The paper's performance graphs (Figures 5–7) split each bar into three
//! sections: *remote data wait*, *predictive protocol* (pre-send phase), and
//! *compute + synch*. [`TimeBreakdown`] carries exactly those sections (with
//! compute and synch kept separate so the synchronization effect in §5.1 can
//! be observed); [`NodeStats`] counts the underlying protocol events.
//! [`FaultStats`] counts what the fabric's fault layer (`crate::faults`) did
//! to traffic.

use std::sync::atomic::{AtomicU64, Ordering};

/// Declares the counter vocabulary once: [`NodeStats`] (live atomics),
/// [`StatsSnapshot`] (plain values) and everything that walks the two in
/// step — snapshot, restore, the `(name, value)` tables the JSON
/// writer/reader, `reconciles_with` and the CLIs iterate, and the
/// element-wise arithmetic. A new counter is one line in the invocation
/// below.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Event counters for one node. All counters are cumulative over the
        /// run and safe to update from any thread — except `reads` and
        /// `writes`, which have a single writer (see
        /// [`NodeStats::bump_single_writer`]). In a running machine the
        /// node's own thread does all the counting; other threads (watchdog,
        /// metrics, reports) only read.
        #[derive(Debug, Default)]
        pub struct NodeStats {
            $($(#[$doc])* pub $name: AtomicU64,)*
        }

        /// Plain-value copy of [`NodeStats`].
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl NodeStats {
            /// A plain-value snapshot of all counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot { $($name: self.$name.load(Ordering::Relaxed),)* }
            }

            /// Overwrite every counter with the values in `s` — the rollback
            /// path: restoring the checkpoint-time snapshot makes a recovered
            /// replay account its protocol events exactly once, so
            /// blocks-moved equality with the fault-free run is exact rather
            /// than approximate.
            pub fn restore(&self, s: &StatsSnapshot) {
                $(self.$name.store(s.$name, Ordering::Relaxed);)*
            }
        }

        impl StatsSnapshot {
            /// How many counters there are.
            pub const COUNT: usize = [$(stringify!($name)),*].len();

            /// Every counter as a `(name, value)` pair, in declaration
            /// order. Serializers (the run-report JSON, the metrics lines,
            /// the trace analyzer) iterate this instead of listing fields.
            pub fn fields(&self) -> [(&'static str, u64); Self::COUNT] {
                [$((stringify!($name), self.$name)),*]
            }

            /// Every counter as a `(name, &mut value)` pair, in the same
            /// order as [`StatsSnapshot::fields`] — what deserializers (the
            /// metrics line reader) iterate.
            pub fn fields_mut(&mut self) -> [(&'static str, &mut u64); Self::COUNT] {
                [$((stringify!($name), &mut self.$name)),*]
            }

            /// Combine two snapshots counter by counter.
            fn zip(&self, o: &StatsSnapshot, op: impl Fn(u64, u64) -> u64) -> StatsSnapshot {
                StatsSnapshot { $($name: op(self.$name, o.$name),)* }
            }
        }
    };
}

counters! {
    /// Shared-memory loads issued by the node's program. Single-writer:
    /// only the node's own thread may change it.
    reads,
    /// Shared-memory stores issued by the node's program. Single-writer,
    /// like `reads`.
    writes,
    /// Read faults that required a remote request.
    read_misses,
    /// Write faults that required a remote request (including upgrades).
    write_misses,
    /// Misses that needed extra hops (recall from an owner or an
    /// invalidation round) — the expensive 3/4-message transfers of §3.2.
    slow_misses,
    /// Invalidation requests this node serviced.
    invals_in,
    /// Recall/downgrade requests this node serviced.
    recalls_in,
    /// Protocol messages this node sent (all kinds).
    msgs_out,
    /// Blocks this node pre-sent as a home node.
    presend_blocks_out,
    /// Bulk messages used for those pre-sends (≤ blocks; smaller when
    /// coalescing merges neighbors).
    presend_msgs_out,
    /// Bytes this node pre-sent.
    presend_bytes_out,
    /// Blocks installed on this node by pre-sends from other homes.
    presend_blocks_in,
    /// Schedule entries recorded at this node (as home).
    sched_records,
    /// Faulting accesses that found the block already installed by a
    /// pre-send earlier in the same phase — should stay 0 on a fault-free
    /// fabric; a diagnostic.
    presend_races,
    /// Coherence requests this node re-issued after a
    /// reply timeout.
    retries,
    /// Pre-send bulk messages this node retransmitted after an ack timeout.
    presend_retries,
    /// Duplicate or stale requests (seqno not newer than the last accepted
    /// one from that requester) this home ignored.
    dup_reqs_in,
    /// Stale protocol messages (recall data, invalidation acks, recalls of
    /// blocks no longer held) ignored because their operation id did not
    /// match any operation in flight.
    stale_msgs_in,
    /// Grants discarded because their seqno no longer matched the fetch
    /// in flight (a retry had superseded them).
    stale_grants_in,
    /// Pre-send installs rejected because they arrived outside their
    /// pre-send window (stale duplicates of acknowledged pushes).
    presend_stale_in,
    /// Pushes this home dropped at the pass-2 revalidation because the
    /// directory state had changed since pass 1 recorded them (entry went
    /// busy, or a demand request won the block in between).
    presend_aborted,
    /// Data bytes installed into this node's memory from protocol messages
    /// (grants, recalled data, pre-send payloads).
    data_bytes_in,
    /// Useless pre-sends charged to this node as a home: copies it pushed
    /// that were torn down or overwritten without ever being accessed.
    presend_useless,
    /// Times the degradation policy flushed one of this home's phase
    /// schedules and fell back to plain Stache.
    degrade_events,
    /// Barrier-consistent checkpoints this node captured.
    checkpoints,
    /// Bytes of block data captured into those checkpoints.
    checkpoint_bytes,
    /// Rollback-to-checkpoint recoveries this node participated in.
    recoveries,
    /// Phase executions this node re-ran after a rollback.
    replays,
    /// Blocks homed at this node by a placement overlay (offline remap or
    /// scatter) rather than by the segment-derived default.
    remapped_blocks,
    /// Delta chunks this node pushed to other owners during commutative
    /// merge windows (initial sends only; retransmissions are not
    /// re-counted, so the total is deterministic on every fabric).
    merge_chunks_out,
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

    /// Element-wise sum, for machine-wide totals.
    pub fn merge(&self, o: &StatsSnapshot) -> StatsSnapshot {
        self.zip(o, |a, b| a + b)
    }

    /// Element-wise difference (`self - o`), for per-run deltas from
    /// cumulative counters.
    pub fn sub(&self, o: &StatsSnapshot) -> StatsSnapshot {
        self.zip(o, |a, b| a - b)
    }
}

/// What the fabric's fault layer did to traffic, summed over every link:
/// one set per fabric, bumped on every faulted envelope.
#[derive(Debug, Default)]
pub struct FaultStats {
    delayed: AtomicU64,
    duplicated: AtomicU64,
    dropped: AtomicU64,
    released: AtomicU64,
}

impl FaultStats {
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

    /// Count one held message released back onto its link.
    pub fn count_released(&self) {
        self.released.fetch_add(1, Ordering::Relaxed);
    }

    /// Plain-value copy of the counters.
    pub fn total(&self) -> FaultCounts {
        FaultCounts {
            delayed: self.delayed.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            released: self.released.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value copy of [`FaultStats`]. Messages held by a stalled link at
/// teardown show up as `delayed - released` (plus any message queued behind
/// them, which is also counted as released when the stall flushes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
pub struct FaultCounts {
    pub delayed: u64,
    pub duplicated: u64,
    pub dropped: u64,
    pub released: u64,
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
    /// The four segments as `(name, value)` pairs, in declaration order
    /// (what the JSON writers iterate).
    pub fn fields(&self) -> [(&'static str, u64); 4] {
        [
            ("compute_ns", self.compute_ns),
            ("wait_ns", self.wait_ns),
            ("presend_ns", self.presend_ns),
            ("synch_ns", self.synch_ns),
        ]
    }

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
    fn fault_stats_count_each_fault_once() {
        let f = FaultStats::default();
        f.count_dropped();
        f.count_dropped();
        f.count_delayed();
        let t = f.total();
        assert_eq!((t.dropped, t.delayed, t.duplicated, t.released), (2, 1, 0, 0));
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
