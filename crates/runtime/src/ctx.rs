//! The per-node execution context inside an SPMD program.
//!
//! `NodeCtx` is each node thread's handle on its node. Every shared access
//! goes through the fine-grain access-control check, straight on the block
//! store the thread owns; a fault serves the node's inbox until its grant
//! arrives (remote data wait), and so does every other wait — barriers,
//! acknowledgement waits, the end of the run — because this thread is also
//! the one that answers the node's peers, exactly as in Blizzard. In
//! between, every [`POLL_EVERY`]-th access drains the inbox. The context
//! keeps the node's virtual clock, split into the paper's bar segments:
//! compute, remote-data wait, predictive protocol (pre-send), and
//! synchronization.
//!
//! The access has two forms. The word form ([`NodeCtx::read`],
//! [`NodeCtx::write`]) checks every load and store, as Blizzard did,
//! knowing nothing about the program. The run form
//! ([`NodeCtx::read_run`], [`NodeCtx::write_run`]) is for an access the
//! compiler's summary calls a structured sweep: it checks each cache
//! block's tag once, which is enough because the tag is per block and
//! only this thread can change it, bills the words it covers at once, and
//! hands any block that does not simply hit to the word form — so the
//! modelled machine cannot tell the two apart (DESIGN.md §8). Both take
//! the same hit check (`NodeMem::read_hit`/`write_hit`: one metadata
//! byte); a word that misses it goes to one cold function per form, the
//! only slow path, which faults, materialises and traces the first touch
//! of a pre-sent copy.

use std::collections::HashMap;
use std::sync::Arc;

use prescient_core::commute::merge as commute_merge;
use prescient_core::presend::presend;
use prescient_core::{Commute, PhaseId, Predictive, Window};
use prescient_stache::engine::fetch;
use prescient_stache::{Msg, Node, NodeShared, Wake};
use prescient_tempest::stats::{StatsSnapshot, WireSnapshot};
use prescient_tempest::sync::lock;
use prescient_tempest::trace::{pack_counts, pack_fault_end, EventKind};
use prescient_tempest::{
    CostModel, CrashPlan, FabricCtl, GAddr, LatencyHist, MemError, MetricsHub, NodeId, NodeStats,
    PhaseRecord, Prim, TimeBreakdown, VBarrier,
};

use crate::machine::ReduceScratch;
use crate::recovery::{Checkpoint, CheckpointStore, RecoveryCtl};

/// How one execution of a phase ended, as reported by
/// [`NodeCtx::try_phase_end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseOutcome {
    /// The phase's work is committed; proceed.
    Committed,
    /// A crash destroyed the phase's work; the machine has rolled back to
    /// the checkpoint taken at this phase's `phase_begin` and the caller
    /// must re-execute the phase body ([`NodeCtx::phase`] does).
    Replay,
}

/// What the machine hands each node to start its metrics series for one
/// run (see `crate::Machine`): the shared hub, the run ordinal, and the
/// node's counter baseline at run start — captured *before* the run's
/// placement-overlay bumps, so the first cut absorbs them.
pub(crate) struct MetricsInit {
    /// Machine-wide record sink.
    pub hub: Arc<MetricsHub>,
    /// 1-based `Machine::run` ordinal.
    pub run: u64,
    /// This node's cumulative counters at run start.
    pub baseline: StatsSnapshot,
    /// Fabric control handle — `Some` only on node 0, which records the
    /// fabric-global wire deltas on the whole machine's behalf.
    pub ctl: Option<Arc<FabricCtl>>,
    /// Wire counters at run start (meaningful with `ctl`).
    pub wire0: WireSnapshot,
}

/// One node's in-flight metrics series: everything needed to cut delta
/// records at phase boundaries. Local to the node's thread — no atomics,
/// no locks except the hub push.
struct MetricsState {
    hub: Arc<MetricsHub>,
    run: u64,
    /// Next record's per-node ordinal.
    seq: u64,
    /// Counter values at the previous cut; records are deltas against
    /// this, so per-node sums telescope exactly to the run report.
    last_stats: StatsSnapshot,
    last_vtime: TimeBreakdown,
    ctl: Option<Arc<FabricCtl>>,
    last_wire: WireSnapshot,
    /// Fetch latencies billed since the previous cut.
    fetch: LatencyHist,
    /// Per-phase-id iteration ordinals within this run.
    iters: HashMap<PhaseId, u64>,
    /// The phase currently open via `phase_begin`, with its iteration
    /// ordinal. Survives a crash replay (the replayed `phase_begin` cuts
    /// nothing), so a replayed phase yields exactly one record.
    open: Option<(PhaseId, u64)>,
}

impl MetricsState {
    fn new(init: MetricsInit) -> MetricsState {
        MetricsState {
            hub: init.hub,
            run: init.run,
            seq: 0,
            last_stats: init.baseline,
            last_vtime: TimeBreakdown::default(),
            ctl: init.ctl,
            last_wire: init.wire0,
            fetch: LatencyHist::default(),
            iters: HashMap::new(),
            open: None,
        }
    }
}

/// Accesses between two polls of the node's inbox. A poll that finds the
/// inbox empty costs about 6 ns (one load: DESIGN.md §2.2), so at 64 it
/// adds 0.1 ns to an access, while a peer's request waits at most 64 hits
/// (about 0.6 µs, a fifth of a miss) for a node that is computing.
/// Measured at 16, 64 and 256 in EXPERIMENTS.md, "One thread per node".
pub const POLL_EVERY: u32 = 64;

/// What the machine hands a node's thread to build its context for one
/// run.
pub(crate) struct CtxInit {
    /// Every node's predictive state, in node order.
    pub preds: Option<Arc<[Arc<Predictive>]>>,
    /// This node's merge state (a Stache machine's).
    pub commute: Option<Arc<Commute>>,
    pub barrier: Arc<VBarrier>,
    pub reduce: Arc<ReduceScratch>,
    pub recovery: Arc<RecoveryCtl>,
    pub ckpts: Arc<CheckpointStore>,
    pub crash: Option<CrashPlan>,
    pub checkpoints: bool,
    pub metrics: Option<MetricsInit>,
}

/// Per-node program context. One exists per node thread per run; it
/// borrows the node for the run.
pub struct NodeCtx<'a> {
    node: &'a mut Node,
    /// `node.shared`, one pointer closer for the access path's counters.
    shared: Arc<NodeShared>,
    /// This node's predictive state.
    pred: Option<Arc<Predictive>>,
    /// Every node's: the closing barrier's release disarms them all.
    preds: Option<Arc<[Arc<Predictive>]>>,
    commute: Option<Arc<Commute>>,
    barrier: Arc<VBarrier>,
    reduce: Arc<ReduceScratch>,
    reduce_round: u64,
    cost: CostModel,
    t: TimeBreakdown,
    /// Accesses left before the next poll.
    poll_in: u32,
    /// Phase currently open via `phase_begin` (0 outside any phase);
    /// trace events are attributed to it.
    cur_phase: PhaseId,
    /// Crash/recovery coordination shared with every other node.
    recovery: Arc<RecoveryCtl>,
    /// The per-node checkpoint slots.
    ckpts: Arc<CheckpointStore>,
    /// Injected crash, if the machine runs one.
    crash: Option<CrashPlan>,
    /// Take a checkpoint at every `phase_begin`.
    checkpoints: bool,
    /// Phase-execution ordinal: how many `phase_begin`s this run has
    /// executed (the crash plan's `at_version` counts these).
    version: u64,
    /// Phase-granular metrics series (None = metrics off: no cuts, no
    /// cost beyond one never-taken branch per boundary).
    metrics: Option<MetricsState>,
}

impl<'a> NodeCtx<'a> {
    pub(crate) fn new(node: &'a mut Node, init: CtxInit) -> NodeCtx<'a> {
        let shared = Arc::clone(&node.shared);
        NodeCtx {
            metrics: init.metrics.map(MetricsState::new),
            cost: shared.cost,
            pred: init.preds.as_ref().map(|p| Arc::clone(&p[shared.me as usize])),
            preds: init.preds,
            node,
            shared,
            commute: init.commute,
            barrier: init.barrier,
            reduce: init.reduce,
            reduce_round: 0,
            t: TimeBreakdown::default(),
            poll_in: POLL_EVERY,
            cur_phase: 0,
            recovery: init.recovery,
            ckpts: init.ckpts,
            crash: init.crash,
            checkpoints: init.checkpoints,
            version: 0,
        }
    }

    /// Publish the node's virtual clock to the tracer and emit
    /// one event stamped with it. A no-op (one never-taken branch) when
    /// tracing is disabled.
    #[inline]
    fn trace(&self, kind: EventKind, a: u64, b: u64) {
        let tr = self.shared.tracer();
        if tr.on() {
            tr.set_vtime(self.t.total_ns());
            tr.emit(kind, a, b);
        }
    }

    /// Cut one metrics record: the deltas of everything since the
    /// previous cut, attributed to `(phase, iter)` (0, 0 for the gaps
    /// between phases). Costs relaxed loads plus a hub push; bills no
    /// virtual time and sends no messages, so the gated counters are
    /// unperturbed by construction. Work this node did for a peer since
    /// the previous cut lands in whichever phase the node was in when it
    /// served it — and consecutive cuts of the same cumulative counters
    /// telescope, so the per-node sums reconcile exactly with the run
    /// report.
    fn metrics_cut(&mut self, phase: PhaseId, iter: u64) {
        if self.metrics.is_none() {
            return;
        }
        let now_stats = self.shared.stats.snapshot();
        let now_vtime = self.t;
        let node = self.shared.me;
        let version = self.version;
        let m = self.metrics.as_mut().expect("metrics on");
        let wire = m.ctl.as_ref().map(|c| c.wire());
        let rec = PhaseRecord {
            node,
            seq: m.seq,
            run: m.run,
            phase,
            iter,
            version,
            vtime: now_vtime.sub(&m.last_vtime),
            stats: now_stats.sub(&m.last_stats),
            fetch: std::mem::take(&mut m.fetch),
            wire: wire.map(|w| w.sub(&m.last_wire)),
        };
        m.seq += 1;
        m.last_stats = now_stats;
        m.last_vtime = now_vtime;
        if let Some(w) = wire {
            m.last_wire = w;
        }
        m.hub.push(rec);
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.shared.me
    }

    /// Number of nodes in the machine.
    pub fn nodes(&self) -> usize {
        self.shared.nodes()
    }

    /// Cache-block size in bytes.
    pub fn block_size(&self) -> usize {
        self.shared.block_size()
    }

    /// Is the predictive protocol active?
    pub fn is_predictive(&self) -> bool {
        self.pred.is_some()
    }

    /// This node's virtual clock (ns since run start).
    pub fn now_ns(&self) -> u64 {
        self.t.total_ns()
    }

    /// The underlying predictive state (e.g. for manual schedules).
    pub fn predictive(&self) -> Option<&Arc<Predictive>> {
        self.pred.as_ref()
    }

    // ----- shared-memory access ------------------------------------------

    /// Count one access toward the next poll, and poll when it is due:
    /// Blizzard's poll, which is what answers a peer while this node
    /// computes on data it already holds.
    #[inline]
    fn poll_tick(&mut self) {
        self.poll_in -= 1;
        if self.poll_in == 0 {
            self.poll();
        }
    }

    /// Every poll buys the next [`POLL_EVERY`] accesses, so the rate is
    /// one poll per `POLL_EVERY` whether the countdown reached zero word
    /// by word or a run segment polled ahead of it.
    #[cold]
    fn poll(&mut self) {
        self.poll_in += POLL_EVERY;
        self.node.poll();
    }

    /// Read a primitive from shared memory (fine-grain checked; faults are
    /// serviced by the coherence protocol and billed as remote wait).
    #[inline]
    pub fn read<T: Prim>(&mut self, addr: GAddr) -> T {
        // Single writer: this thread is the only one that counts accesses
        // or restores the counters (`recover`).
        NodeStats::bump_single_writer(&self.shared.stats.reads);
        self.t.compute_ns += self.cost.local_access_ns;
        self.poll_tick();
        // A hit is the run form's tag check on one word. It cannot consume
        // an unread pre-sent copy: `read_hit` refuses a block whose bit is
        // set, so that first touch takes the slow path and is traced there.
        match self.node.state.mem.read_hit(addr, T::BYTES) {
            Some(src) => T::load(src),
            None => self.read_slow(addr),
        }
    }

    /// Write a primitive to shared memory.
    #[inline]
    pub fn write<T: Prim>(&mut self, addr: GAddr, v: T) {
        NodeStats::bump_single_writer(&self.shared.stats.writes);
        self.t.compute_ns += self.cost.local_access_ns;
        self.poll_tick();
        match self.node.state.mem.write_hit(addr, T::BYTES) {
            Some(dst) => v.store(dst),
            None => self.write_slow(addr, v),
        }
    }

    /// Every word read that is not a hit: the store's full sequence of
    /// checks (a lazily materialized home block, an unread pre-sent copy,
    /// a fault, a boundary-crossing access), then the slow path.
    #[cold]
    #[inline(never)]
    fn read_slow<T: Prim>(&mut self, addr: GAddr) -> T {
        let mut buf = [0u8; 16];
        let buf = &mut buf[..T::BYTES];
        // "Unread pre-send copy consumed by this access" is exact: the
        // count drops iff the access cleared the bit.
        let mem = &mut self.node.state.mem;
        let unread = mem.unused_presends();
        let hit = mem.read_in_block(addr, buf);
        if hit.is_err() || mem.unused_presends() != unread {
            self.access_slow(addr, buf, false, hit);
        }
        T::load(buf)
    }

    /// [`Self::read_slow`]'s write twin.
    #[cold]
    #[inline(never)]
    fn write_slow<T: Prim>(&mut self, addr: GAddr, v: T) {
        let mut buf = [0u8; 16];
        let buf = &mut buf[..T::BYTES];
        v.store(buf);
        let mem = &mut self.node.state.mem;
        let unread = mem.unused_presends();
        let hit = mem.write_in_block(addr, buf);
        if hit.is_err() || mem.unused_presends() != unread {
            self.access_slow(addr, buf, true, hit);
        }
    }

    /// The run form of [`Self::read`]: `out.len()` consecutive `T`s from
    /// `addr`, for an access known to be a structured sweep (the cstar
    /// summary's affine sites; the apps' partner, record and partition
    /// loops). Observably it is `out.len()` calls of `read` — same
    /// counters, same virtual time, same faults at the same words in the
    /// same order — but a segment (`Self::run_segment`) that hits pays
    /// the access check once, not once per word. Panics if `addr` is not
    /// `T::BYTES`-aligned.
    pub fn read_run<T: Prim>(&mut self, addr: GAddr, out: &mut [T]) {
        let (mut at, mut rest) = (addr, out);
        while !rest.is_empty() {
            let (seg, tail) = rest.split_at_mut(self.run_segment::<T>(at, rest.len()));
            if let Some(bytes) = self.node.state.mem.read_hit(at, seg.len() * T::BYTES) {
                for (v, src) in seg.iter_mut().zip(bytes.chunks_exact(T::BYTES)) {
                    *v = T::load(src);
                }
                NodeStats::add_single_writer(&self.shared.stats.reads, seg.len() as u64);
                self.bill_hits(seg.len());
            } else {
                for (w, v) in seg.iter_mut().enumerate() {
                    *v = self.read(at.add((w * T::BYTES) as u64));
                }
            }
            at = at.add((seg.len() * T::BYTES) as u64);
            rest = tail;
        }
    }

    /// The run form of [`Self::write`]: `vals` stored to consecutive `T`s
    /// from `addr`; to `write` what [`Self::read_run`] is to `read`.
    pub fn write_run<T: Prim>(&mut self, addr: GAddr, vals: &[T]) {
        let (mut at, mut rest) = (addr, vals);
        while !rest.is_empty() {
            let (seg, tail) = rest.split_at(self.run_segment::<T>(at, rest.len()));
            if let Some(bytes) = self.node.state.mem.write_hit(at, seg.len() * T::BYTES) {
                for (v, dst) in seg.iter().zip(bytes.chunks_exact_mut(T::BYTES)) {
                    v.store(dst);
                }
                NodeStats::add_single_writer(&self.shared.stats.writes, seg.len() as u64);
                self.bill_hits(seg.len());
            } else {
                for (w, v) in seg.iter().enumerate() {
                    self.write(at.add((w * T::BYTES) as u64), *v);
                }
            }
            at = at.add((seg.len() * T::BYTES) as u64);
            rest = tail;
        }
    }

    /// Length in words of the next segment of a run that stands at `at`
    /// with `left` words to go: to the end of `at`'s block, and at most
    /// [`POLL_EVERY`]. A poll that would come due inside the segment is
    /// taken now instead, so no message is handled between the segment's
    /// one tag observation and its last word — on a node with one thread,
    /// nothing else can change the tag. A segment that does not hit goes
    /// word by word through [`Self::read`] / [`Self::write`]: the slow
    /// path stays the only one.
    #[inline]
    fn run_segment<T: Prim>(&mut self, at: GAddr, left: usize) -> usize {
        // `T::BYTES` is a power of two.
        assert!(
            at.0 & (T::BYTES as u64 - 1) == 0,
            "run access at {at:?}: not {}-byte aligned",
            T::BYTES
        );
        let bs = self.shared.block_size();
        let k = ((bs - at.offset_in_block(bs)) / T::BYTES).min(left).min(POLL_EVERY as usize);
        if self.poll_in <= k as u32 {
            self.poll();
        }
        k
    }

    /// Bill `k` hits of a run segment as `k` per-word hits bill themselves
    /// (the access counter is the caller's).
    #[inline]
    fn bill_hits(&mut self, k: usize) {
        self.t.compute_ns += k as u64 * self.cost.local_access_ns;
        self.poll_in -= k as u32;
    }

    /// The rest of an access that did not simply hit: fault until it goes
    /// through (`fault()` panics on a boundary-crossing access, which no
    /// protocol action can repair — a runtime layout bug), and trace the
    /// first touch of a pre-sent copy.
    #[cold]
    fn access_slow(
        &mut self,
        addr: GAddr,
        buf: &mut [u8],
        write: bool,
        first: Result<(), MemError>,
    ) {
        let mut tried = first;
        while let Err(e) = tried {
            self.miss(e.fault().block, write);
            let mem = &mut self.node.state.mem;
            let unread = mem.unused_presends();
            tried =
                if write { mem.write_in_block(addr, buf) } else { mem.read_in_block(addr, buf) };
            if tried.is_ok() && mem.unused_presends() == unread {
                return;
            }
        }
        self.trace_first_touch(addr);
    }

    /// An access just consumed an unread pre-sent copy of `addr`'s block.
    #[cold]
    fn trace_first_touch(&self, addr: GAddr) {
        self.trace(EventKind::PresendFirstTouch, self.shared.layout.block_of(addr).0, 0);
    }

    fn miss(&mut self, block: prescient_tempest::BlockId, excl: bool) {
        self.trace(EventKind::FaultBegin, block.0, u64::from(excl));
        let info = fetch(self.node, block, excl);
        if excl {
            NodeStats::bump(&self.shared.stats.write_misses);
        } else {
            NodeStats::bump(&self.shared.stats.read_misses);
        }
        if info.extra_hops > 0 {
            NodeStats::bump(&self.shared.stats.slow_misses);
        }
        let home = self.shared.layout.home_of_block(block);
        let mut wait = if home == self.me() {
            self.cost.local_fault_ns(info.extra_hops, info.bytes, info.recorded)
        } else {
            self.cost.miss_ns(info.extra_hops, info.bytes, info.recorded)
        };
        // Re-issued requests (lost or late replies on a faulty fabric) are
        // billed on top of the ordinary miss cost.
        wait += u64::from(info.retries) * self.cost.retry_ns;
        self.t.wait_ns += wait;
        if let Some(m) = self.metrics.as_mut() {
            // The exact wait billed, including retry penalties. Not rolled
            // back by crash recovery: unlike the stats (which must
            // reconcile with the run report), the histogram records work
            // that actually happened, replays included.
            m.fetch.record(wait);
        }
        self.trace(
            EventKind::FaultEnd,
            block.0,
            pack_fault_end(excl, info.extra_hops, info.retries),
        );
    }

    /// Charge `flops` units of application arithmetic to the virtual clock.
    #[inline]
    pub fn work(&mut self, flops: u64) {
        self.t.compute_ns += flops * self.cost.flop_ns;
    }

    /// Allocate shared memory from this node's heap (homed here). Usable
    /// during phases — this is how Adaptive grows quad-trees and Barnes
    /// builds its local tree arenas.
    pub fn alloc_local(&mut self, bytes: u64, align: u64) -> GAddr {
        self.t.compute_ns += self.cost.local_access_ns;
        self.node.state.mem.alloc(bytes, align)
    }

    // ----- synchronization ------------------------------------------------

    /// Global barrier; the stall is billed as synchronization time. The
    /// node keeps serving its inbox while it waits ([`Node::barrier`]),
    /// and its egress buffers are flushed on entry, so no message this
    /// node produced can sit in a partial batch while every node waits.
    pub fn barrier(&mut self) {
        self.barrier_then(|| ());
    }

    /// [`Self::barrier`], where the last node to arrive runs `on_release`
    /// before any node leaves ([`Node::barrier_then`]).
    fn barrier_then(&mut self, on_release: impl FnOnce()) {
        self.trace(EventKind::BarrierEnter, 0, 0);
        let out = self.node.barrier_then(&self.barrier, self.t.total_ns(), on_release);
        self.t.synch_ns += out.stall_ns + self.cost.barrier_ns;
        self.trace(EventKind::BarrierExit, out.stall_ns, 0);
    }

    /// Global barrier billed to the pre-send segment (used inside the
    /// predictive directives, whose whole cost the paper reports as
    /// "Predictive protocol").
    fn barrier_presend(&mut self) {
        self.trace(EventKind::BarrierEnter, 0, 0);
        let out = self.node.barrier(&self.barrier, self.t.total_ns());
        self.t.presend_ns += out.stall_ns + self.cost.barrier_ns;
        self.trace(EventKind::BarrierExit, out.stall_ns, 0);
    }

    /// One acknowledged window (§3.4): the entry barrier, `body`, the
    /// stability barrier, and `window` closes. Both stalls are billed to
    /// the pre-send segment, and so must be `body`'s own time, before the
    /// stability barrier takes the clock. `entry_met` is false where a
    /// closing barrier just released every node with nothing in between
    /// (DESIGN.md §2.4): that episode was the entry, and the modelled one
    /// is billed `barrier_ns` with no stall.
    fn acked_window<R>(
        &mut self,
        window: &Window,
        entry_met: bool,
        body: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if entry_met {
            self.barrier_presend();
        } else {
            self.t.presend_ns += self.cost.barrier_ns;
        }
        let r = body(self);
        self.barrier_presend();
        // The epoch advances only after the stability barrier: barrier
        // exit proves every node's pushes were acknowledged, so any push
        // still carrying the old epoch is a duplicate and can be rejected.
        window.close();
        r
    }

    /// The body of a pre-send window: this node's pushes for `phase`.
    fn presend_pushes(&mut self, pred: &Predictive, phase: PhaseId) {
        self.trace(EventKind::PresendStart, u64::from(phase), 0);
        let rep = presend(pred, self.node, phase);
        self.t.presend_ns += rep.vtime_ns;
        self.trace(EventKind::PresendEnd, u64::from(phase), rep.blocks_pushed);
    }

    // ----- compiler directives (§4.3) -------------------------------------

    /// `phase_begin(id)` — the compiler-inserted directive before a
    /// parallel phase with potentially repetitive communication: pre-send
    /// according to the phase's recorded schedule, synchronize so all block
    /// states are stable, then arm recording for this instance.
    ///
    /// Under plain Stache this is a no-op (the unoptimized program).
    pub fn phase_begin(&mut self, phase: PhaseId) {
        self.open_phase(phase, false);
    }

    /// `phase_begin(phase)`; `after_close` says that this node's last host
    /// episode was a committed phase's closing barrier and that the program
    /// text put nothing between the two, so every node stands at the same
    /// point ([`Self::phase_next`], [`Self::phases`]). That episode then
    /// serves as the checkpoint's cut-open barrier, or without checkpoints
    /// as the pre-send entry barrier: every node's earlier work is done and
    /// its release disarmed every home.
    fn open_phase(&mut self, phase: PhaseId, after_close: bool) {
        // Cut the inter-phase gap record before any of this directive's
        // work (checkpoint, pre-send) accrues, so all of it lands in the
        // phase's own record. A replayed begin (the phase is still open
        // after a crash rollback) cuts nothing: the committed record then
        // spans from the first attempt's begin to the final commit,
        // matching the stats-rollback arithmetic.
        if self.metrics.as_ref().is_some_and(|m| m.open.is_none()) {
            self.metrics_cut(0, 0);
            let m = self.metrics.as_mut().expect("metrics on");
            let it = m.iters.entry(phase).or_insert(0);
            let iter = *it;
            *it += 1;
            m.open = Some((phase, iter));
        }
        self.version += 1;
        if self.checkpoints {
            self.take_checkpoint(after_close);
        }
        self.cur_phase = phase;
        self.shared.tracer().set_phase(phase);
        self.trace(EventKind::PhaseBegin, u64::from(phase), 0);
        let Some(pred) = self.pred.clone() else { return };
        self.acked_window(pred.window(), !after_close || self.checkpoints, |ctx| {
            ctx.presend_pushes(&pred, phase);
            // Arm BEFORE the stability barrier: no node can issue a demand
            // fetch while every node is still inside this directive, and
            // barrier exit then proves every home is recording — a
            // consumer that faults right after the barrier always gets
            // recorded.
            pred.arm(phase);
        });
    }

    /// `phase_end()` — close the current parallel phase. Under plain
    /// Stache, just the phase's natural closing barrier; under the
    /// predictive protocol, additionally stop recording — at the closing
    /// barrier's release, so every in-phase request lands in the schedule
    /// and no post-phase request does.
    ///
    /// # Panics
    ///
    /// Panics if a crash destroyed this phase's work: the raw directive
    /// has no way to re-execute the body. Run crash-recovery machines
    /// through [`NodeCtx::phase`], which replays automatically.
    pub fn phase_end(&mut self) {
        if self.try_phase_end() == PhaseOutcome::Replay {
            panic!(
                "node {}: phase {} must be replayed after crash recovery, but it was closed \
                 with the raw phase_end() directive; execute recoverable phases through \
                 NodeCtx::phase(...) so the body can re-run",
                self.me(),
                self.cur_phase,
            );
        }
    }

    /// Close the current phase, reporting whether its work committed or a
    /// crash rolled the machine back ([`PhaseOutcome::Replay`] obliges the
    /// caller to re-execute the phase body; [`NodeCtx::phase`] wraps this).
    ///
    /// The injected crash fires here, at phase-end entry — the canonical
    /// worst case: the phase's compute is done but not yet committed by
    /// the closing barrier, so all of it is lost and must be replayed.
    pub fn try_phase_end(&mut self) -> PhaseOutcome {
        if let Some(plan) = self.crash {
            if plan.node == self.me()
                && plan.at_version == self.version
                && self.recovery.consume_crash()
            {
                self.trace(EventKind::Crash, u64::from(self.me()), self.version);
                assert!(
                    self.checkpoints,
                    "node {}: injected crash at phase version {} with checkpointing disabled \
                     (no checkpoint to recover to)",
                    self.me(),
                    self.version,
                );
                // Raise the flag *before* entering the closing barrier:
                // every node is guaranteed to observe it when it leaves.
                self.recovery.declare_crash(self.me());
            }
        }
        // Recording stops when the closing barrier releases. By then every
        // node has arrived, so every in-phase request was answered and
        // recorded at its home; no node has left, so no post-phase request
        // exists yet. The last arriver disarms every home before it
        // publishes the release, and a request sent after it finds its
        // home disarmed.
        let preds = self.preds.clone();
        self.barrier_then(|| preds.iter().flat_map(|p| p.iter()).for_each(|p| p.end_phase()));
        if self.recovery.crashed().is_some() {
            return self.recover();
        }
        if self.pred.is_some() {
            // The modelled machine disarms between two barriers. The second
            // meets at one virtual time for all (every node left the first
            // at its maximum plus the barrier cost), so it stalls no one
            // and costs `barrier_ns`: billed here, with no host episode.
            self.t.presend_ns += self.cost.barrier_ns;
        }
        // The phase committed: cut its record here, past every closing
        // barrier, so the record carries the phase's full protocol cost.
        if let Some((p, iter)) = self.metrics.as_mut().and_then(|m| m.open.take()) {
            self.metrics_cut(p, iter);
        }
        self.trace(EventKind::PhaseEnd, u64::from(self.cur_phase), 0);
        self.cur_phase = 0;
        self.shared.tracer().set_phase(0);
        PhaseOutcome::Committed
    }

    /// `phase_next(next)` — close the current phase and open `next` with
    /// nothing in between: [`Self::phase_end`] then [`Self::phase_begin`],
    /// one host episode fewer. The closing barrier also opens `next`
    /// (DESIGN.md §2.4), which holds only because every node runs the same
    /// directive here, so the fusion belongs to the program text (the
    /// compiler's adjacent `PhaseEnd; PhaseBegin`), never to a runtime
    /// check: a node that skipped a barrier its peer still meets would
    /// deadlock, and a peer running code between the phases would overlap
    /// this node's pre-send.
    ///
    /// # Panics
    ///
    /// As [`Self::phase_end`], if a crash destroyed the closing phase.
    pub fn phase_next(&mut self, next: PhaseId) {
        self.phase_end();
        self.open_phase(next, true);
    }

    /// Execute one phase instance with automatic crash recovery: the
    /// one-phase case of [`Self::phases`].
    pub fn phase<S, F>(&mut self, phase: PhaseId, state: &mut S, mut body: F)
    where
        S: Clone,
        F: FnMut(&mut NodeCtx, &mut S),
    {
        self.phases([phase], state, |ctx, _, s| body(ctx, s));
    }

    /// Execute a sequence of phase instances with automatic crash
    /// recovery: per id, `phase_begin(id)` / `body(ctx, id, state)` / the
    /// closing directive, each boundary between two of them one fused
    /// directive ([`Self::phase_next`]). If a crash rolled the machine back
    /// to a phase's checkpoint, `state` is restored from its clone and the
    /// body re-executes, exactly re-creating the lost instance; the
    /// replayed phase opens unfused, after the recovery's barriers.
    ///
    /// `state` must carry everything the bodies mutate that lives
    /// *outside* shared memory (e.g. private velocity arrays); shared
    /// memory itself is rolled back by the checkpoint. It is cloned only
    /// on a machine that takes checkpoints, the only kind a crash can roll
    /// back. Bodies must not call [`NodeCtx::allreduce_sum`] (reductions
    /// belong between phases, where no replay can re-run them). `ids` is
    /// drawn between one phase's close and the next one's open; it cannot
    /// reach this context, so it puts no access or barrier between them.
    pub fn phases<S, F>(
        &mut self,
        ids: impl IntoIterator<Item = PhaseId>,
        state: &mut S,
        mut body: F,
    ) where
        S: Clone,
        F: FnMut(&mut NodeCtx, PhaseId, &mut S),
    {
        let mut after_close = false;
        for id in ids {
            loop {
                let saved = self.checkpoints.then(|| state.clone());
                self.open_phase(id, after_close);
                body(self, id, state);
                match self.try_phase_end() {
                    PhaseOutcome::Committed => break,
                    PhaseOutcome::Replay => {
                        *state = saved.expect("a replay restores a checkpoint");
                        after_close = false;
                    }
                }
            }
            after_close = true;
        }
    }

    /// `merge_exchange(phase, outgoing)` — the `CommutativeMerge`
    /// directive: exchange privatized delta buffers at the phase barrier.
    /// Each `(owner, payload)` pair in `outgoing` is this node's encoded
    /// contribution toward `owner` (a payload addressed to this node
    /// itself is delivered locally without touching the fabric). Returns
    /// every payload addressed to this node, sorted by `(contributor,
    /// push id)` — a total order all runs agree on, so replaying the
    /// merged updates in the returned order is deterministic.
    ///
    /// The exchange is an acknowledged window like a pre-send: the entry
    /// barrier proves every node finished its privatized compute (and
    /// closed the previous window) before any delta lands; the stability
    /// barrier proves every chunk is buffered at its owner before any node
    /// drains its inbox. Both stalls and the exchange itself are billed to
    /// the protocol (pre-send) bar segment.
    ///
    /// # Panics
    ///
    /// Panics on a predictive machine: the merge runs on a Stache machine
    /// (`MachineConfig::stache`).
    pub fn merge_exchange(
        &mut self,
        phase: PhaseId,
        outgoing: &[(NodeId, Vec<u8>)],
    ) -> Vec<(NodeId, Arc<[u8]>)> {
        let Some(cm) = self.commute.clone() else {
            panic!(
                "node {}: merge_exchange(phase {phase}) runs on a Stache machine \
                 (MachineConfig::stache), not a predictive one",
                self.me()
            )
        };
        self.trace(EventKind::MergeBegin, u64::from(phase), outgoing.len() as u64);
        let rep = self.acked_window(cm.window(), true, |ctx| {
            let rep = commute_merge(&cm, ctx.node, outgoing);
            ctx.t.presend_ns += rep.vtime_ns;
            rep
        });
        let merged = cm.take_inbox();
        self.trace(
            EventKind::MergeEnd,
            u64::from(phase),
            pack_counts(rep.chunks_out, merged.len() as u64),
        );
        merged
    }

    // ----- crash recovery (DESIGN.md §12) ---------------------------------

    /// A barrier used by the checkpoint/recovery machinery itself:
    /// rendezvous and flush like every barrier, but bill no virtual time —
    /// recovery is a fault-tolerance artifact, invisible to the paper's
    /// figures (and on the replay path the clock is rolled back anyway).
    /// The last node to arrive runs `on_release` before any node leaves.
    fn barrier_recover(&mut self, on_release: impl FnOnce()) {
        self.node.barrier_then(&self.barrier, self.t.total_ns(), on_release);
    }

    /// Capture this node's shard of a barrier-consistent checkpoint, over
    /// the previous one in its slot. Called at `phase_begin`, between two
    /// barriers: the one that opens the cut (on entry every node has
    /// stopped issuing requests and every multi-hop round has completed —
    /// barriers are protocol quiescence points — so the cut contains no
    /// in-flight state), and the one that closes it, which keeps any node
    /// from racing ahead and faulting into a half-captured peer. With
    /// `opened`, the previous phase's closing barrier, met with nothing
    /// since, opens the cut; otherwise a barrier of its own does. Under
    /// the predictive protocol the pre-send window's entry barrier closes
    /// the cut, which `phase_begin` reaches next without sending anything
    /// (DESIGN.md §12).
    fn take_checkpoint(&mut self, opened: bool) {
        if !opened {
            self.barrier_recover(|| ());
        }
        self.trace(EventKind::CheckpointBegin, self.version, 0);
        // Count the checkpoint *before* the stats snapshot so the cut is
        // self-consistent: restoring it and replaying re-counts exactly
        // what a fault-free execution from this point would.
        NodeStats::bump(&self.shared.stats.checkpoints);
        let mut slot = self.ckpts.slot(self.me());
        let ckpt = slot.get_or_insert_with(Checkpoint::default);
        ckpt.version = self.version;
        self.node.checkpoint_into(&mut ckpt.node);
        let bytes = ckpt.bytes();
        NodeStats::add(&self.shared.stats.checkpoint_bytes, bytes);
        if let Some(p) = &self.pred {
            p.checkpoint_into(&mut ckpt.pred);
        }
        if let Some(c) = &self.commute {
            c.checkpoint_into(&mut ckpt.commute);
        }
        ckpt.stats = self.shared.stats.snapshot();
        ckpt.vtime = self.t;
        ckpt.reduce_round = self.reduce_round;
        drop(slot);
        self.trace(EventKind::CheckpointEnd, self.version, bytes);
        if self.pred.is_none() {
            self.barrier_recover(|| ());
        }
    }

    /// Drain this node's inbox: self-send a [`Msg::Fence`] and serve the
    /// inbox until it comes back. The self-send bypasses both the egress
    /// buffer and the fault layer, so the marker lands in this node's FIFO
    /// inbox *behind* every wire batch already queued there — its arrival
    /// proves they have all been handled. What the destroyed phase's
    /// stragglers report (stale grants, pre-send acks) is discarded.
    fn fence_round(&mut self) {
        self.shared.send(self.me(), Msg::Fence);
        while self.node.next_wake(None) != Some(Wake::Fence) {}
    }

    /// The recovery protocol, run by *every* node once the crash flag is
    /// observed at a phase-end barrier. Three stages, four barriers; the
    /// machine-wide steps are the barriers' release actions, done once by
    /// the last node to arrive, before any node leaves:
    ///
    /// 1. **Purge + drain.** The first barrier's release discards
    ///    everything the fault layer holds (at a quiescent cut every
    ///    delayed/duplicated message is semantically dead — its original
    ///    was already answered), then two fence rounds with a barrier
    ///    between empty the inbox channels: round 1 drains in-flight
    ///    batches (whose handling may emit replies), round 2 drains those
    ///    replies (all rejected as stale by the seq/op/epoch gates). The
    ///    third barrier's release purges again: any reply the fault layer
    ///    captured in between. Past it the fabric is empty *and silent*.
    /// 2. **Restore.** Each node rolls its own shard back to the
    ///    checkpoint: block store, directory, watermarks, predictive
    ///    state, statistics, virtual clock. With the fabric silent this
    ///    cannot race with anything.
    /// 3. **Re-arm.** The last barrier's release lowers the crash flag,
    ///    once every node has restored; the caller replays the phase,
    ///    whose `phase_begin` re-runs the pre-send and re-arms recording
    ///    from the restored schedules — an exact re-execution.
    fn recover(&mut self) -> PhaseOutcome {
        let crashed = self.recovery.crashed().expect("recover() without a crash pending");
        let ckpts = Arc::clone(&self.ckpts);
        let slot = ckpts.slot(self.me());
        let ckpt = slot.as_ref().expect("crash observed before the first checkpoint was taken");
        self.trace(EventKind::RecoveryBegin, ckpt.version, u64::from(crashed));
        let shared = Arc::clone(&self.shared);
        self.barrier_recover(|| shared.purge_faults());
        self.fence_round();
        self.barrier_recover(|| ());
        self.fence_round();
        self.barrier_recover(|| shared.purge_faults());
        // The fabric is empty and silent: restore this node's shard.
        self.node.restore(&ckpt.node);
        if let Some(p) = &self.pred {
            p.restore(&ckpt.pred);
        }
        if let Some(c) = &self.commute {
            c.restore(&ckpt.commute);
        }
        self.shared.stats.restore(&ckpt.stats);
        self.t = ckpt.vtime;
        self.reduce_round = ckpt.reduce_round;
        // The replayed phase_begin re-increments to the checkpoint's
        // version, so later phases keep their fault-free ordinals.
        self.version = ckpt.version - 1;
        let recovery = Arc::clone(&self.recovery);
        self.barrier_recover(|| recovery.clear());
        // Count the recovery *after* the rollback so it survives it; these
        // counters are reported but never equality-gated (a recovered run
        // is bit-identical to fault-free in every gated column).
        NodeStats::bump(&self.shared.stats.recoveries);
        NodeStats::bump(&self.shared.stats.replays);
        self.trace(EventKind::RecoveryEnd, ckpt.version, 0);
        self.cur_phase = 0;
        self.shared.tracer().set_phase(0);
        PhaseOutcome::Replay
    }

    /// Execute a phase's pre-send *without* arming recording: the
    /// hand-optimized-protocol mode, where the application installed a
    /// manual schedule (Falsafi-style write-update push) and pays no
    /// schedule-building overhead. The caller still closes the phase with
    /// an ordinary barrier.
    pub fn presend_only(&mut self, phase: PhaseId) {
        let Some(pred) = self.pred.clone() else { return };
        self.cur_phase = phase;
        self.shared.tracer().set_phase(phase);
        self.acked_window(pred.window(), true, |ctx| ctx.presend_pushes(&pred, phase));
    }

    /// Flush one phase's schedule on this node (rebuild policy, §3.3).
    pub fn flush_schedule(&mut self, phase: PhaseId) {
        if let Some(p) = &self.pred {
            self.trace(EventKind::SchedFlush, u64::from(phase), 0);
            p.flush(phase);
        }
    }

    // ----- reductions (language feature, outside the protocol) -----------

    /// All-reduce: element-wise sum of `vals` across all nodes; every node
    /// receives the result in place. Deterministic: contributions are
    /// summed in node order, independent of arrival order — once per
    /// round, by the first node past the barrier. Billed as a log-depth
    /// message combining tree plus two barriers' synchronization.
    pub fn allreduce_sum(&mut self, vals: &mut [f64]) {
        self.reduce_round += 1;
        let round = self.reduce_round;
        let me = self.me() as usize;
        // One host barrier orders every contribution before the sum is read
        // (why the next round cannot clear this one's early: `contribute`).
        lock(&self.reduce.state).contribute(round, me, vals);
        self.barrier();
        lock(&self.reduce.state).read_sum(round, vals);
        // The modelled all-reduce meets twice, the second time at one
        // virtual time for all: no stall, one `barrier_ns`.
        self.t.synch_ns += self.cost.barrier_ns;
        // Cost: a combining tree of depth log2(P).
        let rounds = (self.nodes().max(2) as f64).log2().ceil() as u64;
        let bytes = (vals.len() * 8) as u64;
        self.t.compute_ns += rounds * (self.cost.msg_startup_ns + bytes * self.cost.per_byte_ns);
    }

    /// All-reduce max of a single value: each node sums into its own slot
    /// of a per-node vector, and the maximum is taken over the result.
    pub fn allreduce_max(&mut self, val: f64) -> f64 {
        let me = self.me() as usize;
        let n = self.nodes();
        let mut slots = vec![0.0; n];
        slots[me] = val;
        self.allreduce_sum(&mut slots);
        slots.into_iter().fold(f64::NEG_INFINITY, f64::max)
    }

    /// End the node's part of the run: an unbilled closing barrier, so a
    /// node whose program returned early keeps serving until every
    /// program has, then the final metrics cut. After the barrier no
    /// request is unanswered anywhere and this node handles nothing more,
    /// so the cut sees the counters the run report will.
    pub(crate) fn finish(mut self) -> TimeBreakdown {
        self.node.barrier(&self.barrier, 0);
        // The run's final cut: the tail after the last phase (gather
        // loops, teardown traffic). If the program ended inside an open
        // phase (raw-directive tests), credit the tail to that phase so
        // the telescoping sum stays exact.
        if self.metrics.is_some() {
            let (p, iter) = self.metrics.as_mut().and_then(|m| m.open.take()).unwrap_or((0, 0));
            self.metrics_cut(p, iter);
        }
        self.t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, MachineConfig};

    /// The one rule `read_run`/`write_run` cut by. Cutting elsewhere is
    /// invisible from outside — a segment that leaves its block is no hit
    /// for `read_hit`, so it would fall back to per-word accesses and only
    /// the speed would go — hence the test in here.
    #[test]
    fn a_run_segment_ends_with_its_block_and_within_one_poll_interval() {
        let mut m = Machine::new(MachineConfig::stache(1, 128));
        let base = m.alloc_on(0, 4096, 128);
        m.run(|ctx: &mut NodeCtx| {
            assert_eq!(ctx.run_segment::<f64>(base, 100), 16, "a whole block");
            assert_eq!(ctx.run_segment::<f64>(base.add(8 * 13), 100), 3, "the rest of one");
            assert_eq!(ctx.run_segment::<f64>(base.add(8 * 13), 2), 2, "the rest of the run");
            // No access was billed, so no poll came due either.
            assert_eq!(ctx.poll_in, POLL_EVERY);
            // A segment that would run the countdown out polls first, and
            // the poll buys a full interval on top of what was left.
            ctx.poll_in = 10;
            assert_eq!(ctx.run_segment::<f64>(base, 100), 16);
            assert_eq!(ctx.poll_in, 10 + POLL_EVERY);
            ctx.bill_hits(16);
            assert_eq!(ctx.poll_in, POLL_EVERY - 6);
            assert_eq!(ctx.run_segment::<u8>(base, 1000), POLL_EVERY as usize, "one interval");
        });
    }
}
