//! The message fabric: the emulated interconnection network.
//!
//! Plays the role of the CM-5 data network. Each node owns one inbox, which
//! its own thread drains; any node may send to any inbox.
//! Messages from a single sender to a single receiver arrive in order
//! (point-to-point FIFO), which the coherence protocols rely on — e.g. a
//! data grant sent to a node is observed before a later recall of the same
//! block. An optional fault layer (see [`crate::faults`]) can delay,
//! duplicate, or drop messages between distinct nodes according to a
//! seeded, deterministic plan.
//!
//! The fabric is generic in its payload type: Tempest itself does not know
//! the coherence vocabulary, just as the real Tempest interface shipped
//! uninterpreted active messages to user-level handlers.
//!
//! # Egress aggregation
//!
//! The wire unit is not the [`Envelope`] but the [`WireBatch`]: each
//! [`Net`] keeps a small per-destination egress buffer, and consecutive
//! sends to the same node pack into one batch — one inbox operation and at
//! most one wakeup (none to a running receiver) for the group. This is the
//! transport analogue of the protocol-level block coalescing of §3.4:
//! per-message startup cost was the paper's motivating overhead, and it
//! dominates here too once pre-sending works (a pre-send fan-out emits long
//! runs of bulk messages to the same target back-to-back).
//!
//! A buffer flushes when it reaches [`BatchConfig::max_batch`] envelopes,
//! and *must* be flushed explicitly ([`Net::flush_all`]) at every protocol
//! quiescence point — before a thread blocks in [`Endpoint::recv`] or
//! [`Endpoint::recv_timeout`] (done automatically), before barrier entry,
//! and whenever a node's thread goes back to computing after handling
//! messages (its replies may still sit in the buffer). The rule that makes this
//! deadlock-free: **a thread never blocks while its node's egress is
//! dirty**. Batching never reorders within a link (buffers are per
//! destination and drain in push order, with the buffer lock held across
//! the wire send), so point-to-point FIFO is preserved by construction;
//! the fault layer runs per-envelope *inside* the flush, so chaos
//! semantics and per-link fault counters are unchanged. Logical traffic
//! counters (`msgs`, bytes, blocks) keep counting envelopes; the batch
//! layer only adds the [`FabricCtl::wire`] counters on top.
//!
//! # Transport
//!
//! Everything above — egress buffering, the fault layer, tracing,
//! teardown accounting — sits over the [`Transport`] trait, whose one job
//! is to put a finished [`WireBatch`] into its destination's inbox. One
//! implementation carries machines: [`ChannelTransport`], one inbox per
//! node, drained by that node's thread (see [`Fabric::new`]). The trait
//! stays because delivery *order* is the one thing a test driver wants to
//! own, and a transport that lets it plugs in here with nothing above
//! changed.
//!
//! A second, the shard transport (`S` inboxes for `n` nodes, see
//! [`Fabric::new_sharded`]), hosts no machine — one inbox for many nodes
//! has no meaning once a node is a thread — and survives only as the
//! surface the repo benchmark's `fabric.sharded_pingpong_us` probe calls.
//!
//! # The inbox
//!
//! An inbox is a `Mutex<VecDeque>` and a `Condvar`: any thread pushes, the
//! one thread that owns the endpoint pops, and parks on the condition
//! variable while the queue is empty, raising a `parked` flag (under the
//! lock, in the emptiness check that sends it to sleep; lowered on return,
//! a timeout included). A push takes the lock and the flag, and signals
//! only if the flag was up: it either lands before the consumer's check or
//! finds the flag up and wakes it — the wake-up every blocking receive, and
//! through it every `next_wake`, rests on. One signal per park, and none to
//! a consumer that is running.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use crate::faults::{FaultHook, FaultPlan, FaultState};
use crate::stats::{FaultStats, WireSnapshot};
use crate::sync::{lock, wait_timeout_while, wait_while};
use crate::trace::{pack_peer_count, EventKind, Tracer};
use crate::{NodeId, MAX_NODES};

/// One in-flight message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Protocol payload.
    pub msg: M,
}

/// What actually lands in an inbox: every envelope a single flush of one
/// (src, dst) egress buffer produced, in send order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireBatch<M> {
    /// The node all payloads were sent by.
    pub src: NodeId,
    /// Fabric-unique batch id (monotonic over the fabric's lifetime), so a
    /// trace can correlate each flush with the drain that consumed it.
    pub id: u64,
    /// The payloads, in per-link FIFO order.
    pub msgs: WirePayload<M>,
}

/// A wire batch's payloads. Singletons — the demand request/reply
/// ping-pong, which no amount of batching can aggregate — are carried
/// inline with zero heap allocation; only genuine aggregation pays for a
/// `Vec`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WirePayload<M> {
    /// Exactly one envelope (allocation-free).
    One(M),
    /// Two or more envelopes, in send order.
    Many(Vec<M>),
}

impl<M> WirePayload<M> {
    /// Number of envelopes aboard.
    pub fn len(&self) -> usize {
        match self {
            WirePayload::One(_) => 1,
            WirePayload::Many(v) => v.len(),
        }
    }

    /// A wire batch is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// Egress aggregation policy of a fabric.
///
/// `max_batch` is the force-flush threshold of each per-destination egress
/// buffer; `1` disables aggregation (every envelope becomes its own wire
/// batch, the pre-batching behavior). Nothing in the environment selects
/// it: a fabric built without an explicit config flushes at
/// [`BatchConfig::DEFAULT_MAX`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Flush an egress buffer once it holds this many envelopes.
    pub max_batch: usize,
}

impl BatchConfig {
    /// Default force-flush threshold (chosen by the batch-size ablation in
    /// EXPERIMENTS.md; see `ablation batching`).
    pub const DEFAULT_MAX: usize = 16;

    /// A policy flushing at `max_batch` envelopes (clamped to at least 1).
    pub fn new(max_batch: usize) -> BatchConfig {
        BatchConfig { max_batch: max_batch.max(1) }
    }

    /// Aggregation disabled: one wire batch per envelope.
    pub fn off() -> BatchConfig {
        BatchConfig { max_batch: 1 }
    }

    /// Is aggregation actually on?
    pub fn is_batching(&self) -> bool {
        self.max_batch > 1
    }
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig { max_batch: Self::DEFAULT_MAX }
    }
}

/// Shared teardown state of one fabric plus the wire-level counters. A
/// send can only fail after the destination endpoint was dropped; that is
/// legitimate during machine teardown but a protocol bug at any other
/// time, so the machine layer marks the fabric as closing before dropping
/// endpoints and the fabric counts (and, in debug builds, asserts on)
/// drops.
#[derive(Debug, Default)]
pub struct FabricCtl {
    closing: AtomicBool,
    aborting: AtomicBool,
    teardown_drops: AtomicU64,
    wire_batches: AtomicU64,
    wire_msgs: AtomicU64,
    /// Occupancy histogram of successful batches (same buckets as
    /// [`WireSnapshot::BUCKETS`]).
    wire_hist: [AtomicU64; WireSnapshot::NUM_BUCKETS],
    /// Batch-id source. Separate from `wire_batches`, which only counts
    /// *successful* sends: ids are claimed before the delivery so a
    /// teardown drop burns its id rather than reusing it.
    batch_seq: AtomicU64,
}

impl FabricCtl {
    /// Declare that teardown has begun: endpoints may now disappear and
    /// sends to them be dropped without it being a bug.
    pub fn mark_closing(&self) {
        self.closing.store(true, Ordering::Release);
    }

    /// Has teardown begun?
    pub fn is_closing(&self) -> bool {
        self.closing.load(Ordering::Acquire)
    }

    /// Declare the run dead: a node panicked, an unrecoverable crash
    /// fired, or the watchdog gave up. Retry loops that would otherwise
    /// re-arm their timeouts forever (fetch, pre-send ack wait) check this
    /// and unwind with [`crate::Aborted`] instead.
    pub fn abort(&self) {
        self.aborting.store(true, Ordering::Release);
    }

    /// Has the run been declared dead?
    pub fn is_aborting(&self) -> bool {
        self.aborting.load(Ordering::Acquire)
    }

    /// Number of messages dropped because their destination endpoint was
    /// already gone.
    pub fn teardown_drops(&self) -> u64 {
        self.teardown_drops.load(Ordering::Relaxed)
    }

    /// Account for `n` envelopes that could not be delivered to `dst`
    /// because its endpoint no longer exists.
    fn count_teardown_drop(&self, n: u64, dst: NodeId) {
        self.teardown_drops.fetch_add(n, Ordering::Relaxed);
        debug_assert!(
            self.is_closing(),
            "message to node {dst} dropped before teardown was signalled"
        );
    }

    /// Wire-level transport counters so far: batches put into inboxes and
    /// the envelopes they carried. Unlike the logical traffic counters
    /// these depend on thread timing (how full a buffer was when a flush
    /// hit it), so they are reported but never equality-gated.
    pub fn wire(&self) -> WireSnapshot {
        let mut hist = [0u64; WireSnapshot::NUM_BUCKETS];
        for (h, c) in hist.iter_mut().zip(&self.wire_hist) {
            *h = c.load(Ordering::Relaxed);
        }
        WireSnapshot {
            batches: self.wire_batches.load(Ordering::Relaxed),
            envelopes: self.wire_msgs.load(Ordering::Relaxed),
            hist,
        }
    }
}

/// Delivery failure: the destination's endpoint no longer exists.
/// Legitimate only during teardown, and accounted as a teardown drop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Undeliverable;

/// An inbox: an unbounded queue any thread pushes to and the one owner of
/// its [`InboxRx`] pops from (see the module docs).
struct Inbox<T> {
    state: Mutex<InboxState<T>>,
    /// Signalled by the first push into each park; only the consumer waits.
    ready: Condvar,
}

struct InboxState<T> {
    queue: VecDeque<T>,
    /// Cleared when the consumer goes; pushes fail from then on.
    open: bool,
    /// The consumer is parked, or about to be, on an empty queue and no
    /// push has signalled it yet.
    parked: bool,
}

/// The consuming end of an [`Inbox`]. Dropping it closes the inbox.
struct InboxRx<T>(Arc<Inbox<T>>);

impl<T> Inbox<T> {
    fn new() -> (Arc<Inbox<T>>, InboxRx<T>) {
        let inbox = Arc::new(Inbox {
            state: Mutex::new(InboxState { queue: VecDeque::new(), open: true, parked: false }),
            ready: Condvar::new(),
        });
        (Arc::clone(&inbox), InboxRx(inbox))
    }

    fn push(&self, item: T) -> Result<(), Undeliverable> {
        let mut st = lock(&self.state);
        if !st.open {
            return Err(Undeliverable);
        }
        st.queue.push_back(item);
        let wake = std::mem::take(&mut st.parked);
        drop(st);
        if wake {
            self.ready.notify_one();
        }
        Ok(())
    }
}

impl<T> InboxRx<T> {
    fn try_pop(&self) -> Option<T> {
        lock(&self.0.state).queue.pop_front()
    }

    /// Pop the oldest item, parking while there is none; `None` once
    /// `timeout` (if any) has passed with the queue still empty.
    fn pop(&self, timeout: Option<Duration>) -> Option<T> {
        let Inbox { state, ready } = &*self.0;
        let park = |st: &mut InboxState<T>| {
            st.parked = st.queue.is_empty();
            st.parked
        };
        let mut st = match timeout {
            None => wait_while(ready, lock(state), park),
            Some(t) => wait_timeout_while(ready, lock(state), t, park),
        };
        st.parked = false;
        st.queue.pop_front()
    }
}

impl<T> Drop for InboxRx<T> {
    fn drop(&mut self) {
        let mut st = lock(&self.0.state);
        st.open = false;
        // What nobody can receive any more goes now, not when the last
        // sender does (and outside the lock: a payload's drop is its own).
        let dead = std::mem::take(&mut st.queue);
        drop(st);
        drop(dead);
    }
}

/// Where finished wire batches go. Implementations only move an opaque
/// [`WireBatch`] to the inbox of `dst`; egress buffering, fault
/// injection, tracing, and teardown accounting all happen in [`Net`]
/// *above* this trait, so protocol behavior cannot depend on what is
/// below it.
pub trait Transport<M: Send>: Send + Sync {
    /// Deliver `batch` to node `dst`'s inbox, preserving per-link order.
    fn deliver(&self, dst: NodeId, batch: WireBatch<M>) -> Result<(), Undeliverable>;

    /// Number of node inboxes reachable through this transport.
    fn nodes(&self) -> usize;
}

/// The transport machines run on: one inbox per node, each drained by
/// that node's own thread.
pub struct ChannelTransport<M> {
    inboxes: Box<[Arc<Inbox<WireBatch<M>>>]>,
}

impl<M: Send> Transport<M> for ChannelTransport<M> {
    fn deliver(&self, dst: NodeId, batch: WireBatch<M>) -> Result<(), Undeliverable> {
        self.inboxes[dst as usize].push(batch)
    }

    fn nodes(&self) -> usize {
        self.inboxes.len()
    }
}

/// The shard transport: `S` inboxes for `n` nodes, node `i` assigned to
/// shard `i mod S` (see [`ShardEndpoint`]). Per-link FIFO holds: all
/// traffic for a given destination lands in one inbox, in send order
/// per sender, with a single consumer.
struct ShardTransport<M> {
    inboxes: Box<[Arc<Inbox<ShardFrame<M>>>]>,
    nodes: usize,
}

/// A frame on a shard inbox: the destination member plus its batch.
type ShardFrame<M> = (NodeId, WireBatch<M>);

impl<M: Send> Transport<M> for ShardTransport<M> {
    fn deliver(&self, dst: NodeId, batch: WireBatch<M>) -> Result<(), Undeliverable> {
        self.inboxes[dst as usize % self.inboxes.len()].push((dst, batch))
    }

    fn nodes(&self) -> usize {
        self.nodes
    }
}

/// The per-destination egress buffers of one node, shared by every clone
/// of its [`Net`].
struct Egress<M> {
    bufs: Box<[Mutex<Vec<M>>]>,
    max: usize,
    /// Bitmask of destinations with buffered envelopes, so the
    /// flush-before-block fast path is one load when clean. All
    /// transitions happen under the corresponding buffer lock. Its width
    /// is why a fabric asserts `n <= MAX_NODES`: without the mask the
    /// fabric itself has no node limit.
    dirty: AtomicU64,
}

/// A cloneable handle that can inject messages into any node's inbox on
/// behalf of node `me`.
pub struct Net<M> {
    me: NodeId,
    transport: Arc<dyn Transport<M>>,
    ctl: Arc<FabricCtl>,
    faults: Option<Arc<dyn FaultHook<M>>>,
    egress: Arc<Egress<M>>,
    tracer: Tracer,
}

impl<M> Clone for Net<M> {
    fn clone(&self) -> Self {
        Net {
            me: self.me,
            transport: Arc::clone(&self.transport),
            ctl: Arc::clone(&self.ctl),
            faults: self.faults.clone(),
            egress: Arc::clone(&self.egress),
            tracer: self.tracer.clone(),
        }
    }
}

/// Assemble a [`Net`] over an arbitrary transport.
fn make_net<M: Send + 'static>(
    me: NodeId,
    n: usize,
    transport: Arc<dyn Transport<M>>,
    ctl: Arc<FabricCtl>,
    faults: Option<Arc<dyn FaultHook<M>>>,
    batch: BatchConfig,
) -> Net<M> {
    Net {
        me,
        transport,
        ctl,
        faults,
        egress: Arc::new(Egress {
            bufs: (0..n).map(|_| Mutex::new(Vec::new())).collect(),
            max: batch.max_batch,
            dirty: AtomicU64::new(0),
        }),
        tracer: Tracer::off(),
    }
}

impl<M: Send> Net<M> {
    /// The node this handle sends as.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Number of nodes on the fabric.
    pub fn nodes(&self) -> usize {
        self.transport.nodes()
    }

    /// The fabric's shared teardown state.
    pub fn ctl(&self) -> &Arc<FabricCtl> {
        &self.ctl
    }

    /// This node's tracing handle (the disabled handle unless the machine
    /// layer installed one via [`Endpoint::set_tracer`]).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Queue `msg` for `dst` (self-sends are allowed and used by the
    /// protocols to keep one code path for local and remote faults). The
    /// envelope leaves the node when its buffer reaches the batch
    /// threshold or at the next flush — callers must [`Net::flush_all`]
    /// before blocking on a reply ([`Endpoint::recv`] does so itself).
    /// On a faulty fabric the message may be delayed, duplicated, or
    /// dropped at flush time — except self-sends, which go straight on
    /// the wire, unbuffered and unfaulted (the fault layer's "local
    /// hand-off" rule): a node can always reach its own handler — e.g. a
    /// shutdown self-send — even when nothing will flush it again.
    pub fn send(&self, dst: NodeId, msg: M) {
        if dst == self.me {
            self.send_wire(dst, WirePayload::One(msg));
            return;
        }
        let mut buf = lock(&self.egress.bufs[dst as usize]);
        buf.push(msg);
        if buf.len() >= self.egress.max {
            self.flush_locked(dst, &mut buf);
        } else {
            self.egress.dirty.fetch_or(1 << dst, Ordering::Relaxed);
        }
    }

    /// Discard everything the fault layer is holding (delayed/stalled
    /// traffic) on every link. See [`FaultHook::purge`]: the recovery
    /// protocol calls this at a quiescent cut, where held messages belong
    /// to the rolled-back execution. No-op on a clean fabric.
    pub fn purge_faults(&self) {
        if let Some(f) = &self.faults {
            f.purge();
        }
    }

    /// Flush the egress buffer of one destination.
    pub fn flush(&self, dst: NodeId) {
        let mut buf = lock(&self.egress.bufs[dst as usize]);
        self.flush_locked(dst, &mut buf);
    }

    /// Flush every dirty egress buffer. O(1) when nothing is buffered.
    pub fn flush_all(&self) {
        let mut dirty = self.egress.dirty.load(Ordering::Relaxed);
        while dirty != 0 {
            let dst = dirty.trailing_zeros() as NodeId;
            dirty &= dirty - 1;
            self.flush(dst);
        }
    }

    /// Drain one buffer into a wire batch. The buffer lock is held across
    /// the delivery so two threads of one node can never reorder the
    /// link (take-buffer / put-on-wire is atomic per destination).
    fn flush_locked(&self, dst: NodeId, buf: &mut Vec<M>) {
        self.egress.dirty.fetch_and(!(1 << dst), Ordering::Relaxed);
        if buf.is_empty() {
            return;
        }
        // `drain` (not `mem::take`) keeps the buffer's capacity, so a
        // steady-state link allocates only when it genuinely aggregates
        // (≥ 2 envelopes); the singleton ping-pong path allocates nothing.
        let survivors = match &self.faults {
            None if buf.len() == 1 => WirePayload::One(buf.pop().expect("len checked")),
            #[allow(clippy::drain_collect)] // mem::take would surrender the capacity
            None => WirePayload::Many(buf.drain(..).collect()),
            Some(f) => {
                // The fault layer sees individual envelopes, exactly as
                // before batching: the k-th send on a link keeps the k-th
                // fate from the seeded stream, counters fire per envelope,
                // a delay holds back everything behind it (preserving
                // mode) while drops and duplicates act on single
                // envelopes. Whatever survives goes out as one batch.
                let mut out = Vec::with_capacity(buf.len());
                for msg in buf.drain(..) {
                    f.process(Envelope { src: self.me, dst, msg }, &self.tracer, &mut |e| {
                        debug_assert_eq!(e.dst, dst, "fault layer must not reroute");
                        out.push(e.msg);
                    });
                }
                match out.len() {
                    0 => return,
                    1 => WirePayload::One(out.pop().expect("len checked")),
                    _ => WirePayload::Many(out),
                }
            }
        };
        self.send_wire(dst, survivors);
    }

    fn send_wire(&self, dst: NodeId, msgs: WirePayload<M>) {
        let n = msgs.len() as u64;
        if let Some(id) = self.deliver(dst, msgs) {
            self.ctl.wire_batches.fetch_add(1, Ordering::Relaxed);
            self.ctl.wire_msgs.fetch_add(n, Ordering::Relaxed);
            self.ctl.wire_hist[WireSnapshot::bucket_index(n)].fetch_add(1, Ordering::Relaxed);
            self.tracer.emit(EventKind::WireFlush, pack_peer_count(dst, n), id);
        }
    }

    /// Hand one batch to the transport; returns its id when it reached
    /// `dst`'s inbox. An inbox that is gone is legitimate only once the
    /// machine has signalled teardown, and is accounted as such.
    fn deliver(&self, dst: NodeId, msgs: WirePayload<M>) -> Option<u64> {
        let n = msgs.len() as u64;
        let id = self.ctl.batch_seq.fetch_add(1, Ordering::Relaxed);
        match self.transport.deliver(dst, WireBatch { src: self.me, id, msgs }) {
            Ok(()) => Some(id),
            Err(Undeliverable) => {
                self.ctl.count_teardown_drop(n, dst);
                None
            }
        }
    }

    /// Put `msg` straight into `dst`'s inbox: no egress buffer, no fault
    /// layer, no wire counter. For host-level wake-ups (a barrier release,
    /// an abort), which carry no protocol meaning, may overtake buffered
    /// traffic, and must arrive even on a partitioned fabric.
    pub fn send_direct(&self, dst: NodeId, msg: M) {
        self.deliver(dst, WirePayload::One(msg));
    }
}

/// Result of a receive that may come back empty-handed.
#[derive(Debug)]
pub enum TryRecv<M> {
    /// A message arrived.
    Msg(Envelope<M>),
    /// Nothing arrived (yet, or in time).
    Empty,
}

/// A node's receiving endpoint plus its sending handle.
///
/// Receives are batch-drained: one inbox operation moves a whole
/// [`WireBatch`] into an internal ring, and subsequent receives pop
/// envelopes from the ring without touching the inbox. One thread drains
/// an endpoint (the ring is a `RefCell`: `Send`, not `Sync`).
pub struct Endpoint<M> {
    /// This endpoint's node id.
    pub me: NodeId,
    rx: InboxRx<WireBatch<M>>,
    ring: RefCell<VecDeque<Envelope<M>>>,
    net: Net<M>,
}

impl<M: Send> Endpoint<M> {
    /// Block until a message arrives. Before actually blocking, flushes
    /// this node's own egress buffers — the quiescence rule that keeps
    /// batching deadlock-free (nothing this node produced can be stuck
    /// behind a partial batch while it sleeps). Always `Some`: an endpoint
    /// can reach its own inbox, so no inbox it waits on is ever orphaned;
    /// the `Option` is what the repo benchmark's probes match on.
    pub fn recv(&self) -> Option<Envelope<M>> {
        if let TryRecv::Msg(env) = self.try_recv() {
            return Some(env);
        }
        self.net.flush_all();
        self.rx.pop(None).map(|batch| self.accept(batch))
    }

    /// [`Endpoint::recv`] that gives up after `timeout`: `Empty` means
    /// nothing arrived in time. Flushes the egress before blocking, like
    /// `recv`.
    pub fn recv_timeout(&self, timeout: Duration) -> TryRecv<M> {
        if let got @ TryRecv::Msg(_) = self.try_recv() {
            return got;
        }
        self.net.flush_all();
        match self.rx.pop(Some(timeout)) {
            Some(batch) => TryRecv::Msg(self.accept(batch)),
            None => TryRecv::Empty,
        }
    }

    /// Non-blocking receive: pops the ring first, then at most one inbox
    /// operation. Does *not* flush the egress (it never blocks).
    pub fn try_recv(&self) -> TryRecv<M> {
        if let Some(env) = self.ring.borrow_mut().pop_front() {
            return TryRecv::Msg(env);
        }
        match self.rx.try_pop() {
            Some(batch) => TryRecv::Msg(self.accept(batch)),
            None => TryRecv::Empty,
        }
    }

    /// Unpack a wire batch (never empty) into the ring and pop the oldest
    /// envelope. Singletons skip the ring entirely when it is empty (the
    /// common demand ping-pong case).
    fn accept(&self, batch: WireBatch<M>) -> Envelope<M> {
        let src = batch.src;
        self.net.tracer.emit(
            EventKind::WireRecv,
            pack_peer_count(src, batch.msgs.len() as u64),
            batch.id,
        );
        let mut ring = self.ring.borrow_mut();
        match batch.msgs {
            WirePayload::One(msg) if ring.is_empty() => return Envelope { src, dst: self.me, msg },
            WirePayload::One(msg) => ring.push_back(Envelope { src, dst: self.me, msg }),
            WirePayload::Many(msgs) => {
                ring.extend(msgs.into_iter().map(|msg| Envelope { src, dst: self.me, msg }));
            }
        }
        ring.pop_front().expect("a wire batch carries at least one envelope")
    }

    /// The sending handle for this node.
    pub fn net(&self) -> &Net<M> {
        &self.net
    }

    /// Install this node's tracing handle. Must run before [`Endpoint::net`]
    /// is cloned into the protocol layer — clones taken earlier keep the
    /// handle they were built with (the disabled one).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.net.tracer = tracer;
    }

    /// The fabric's shared teardown state.
    pub fn ctl(&self) -> &Arc<FabricCtl> {
        self.net.ctl()
    }
}

/// The receiving end of one shard of a shard transport: the multiplexed
/// inboxes of every node assigned to this shard, plus those nodes'
/// sending handles. Kept at exactly what the repo benchmark's
/// `fabric.sharded_pingpong_us` probe calls (see the module docs).
pub struct ShardEndpoint<M> {
    rx: InboxRx<ShardFrame<M>>,
    ring: RefCell<VecDeque<Envelope<M>>>,
    /// Nodes hosted by this shard, ascending; `nets` runs parallel.
    members: Vec<NodeId>,
    nets: Vec<Net<M>>,
}

impl<M: Send> ShardEndpoint<M> {
    /// The sending handle of member `node`.
    pub fn net(&self, node: NodeId) -> &Net<M> {
        let i = self.members.binary_search(&node).expect("node is not hosted by this shard");
        &self.nets[i]
    }

    /// Flush every member's egress buffers — the shard form of the
    /// never-block-dirty rule.
    pub fn flush_members(&self) {
        for net in &self.nets {
            net.flush_all();
        }
    }

    /// Block until a message for any member arrives; `env.dst` says which
    /// member. Always `Some`, as [`Endpoint::recv`]. Flushes every
    /// member's egress before actually blocking.
    pub fn recv(&self) -> Option<Envelope<M>> {
        loop {
            if let Some(env) = self.ring.borrow_mut().pop_front() {
                return Some(env);
            }
            let (dst, batch) = match self.rx.try_pop() {
                Some(frame) => frame,
                None => {
                    self.flush_members();
                    self.rx.pop(None)?
                }
            };
            let src = batch.src;
            let mut ring = self.ring.borrow_mut();
            match batch.msgs {
                WirePayload::One(msg) => ring.push_back(Envelope { src, dst, msg }),
                WirePayload::Many(msgs) => {
                    ring.extend(msgs.into_iter().map(|msg| Envelope { src, dst, msg }));
                }
            }
        }
    }
}

/// Construct a fabric for `n` nodes, returning one endpoint per node.
pub struct Fabric;

impl Fabric {
    /// Build the endpoints with the default batch policy. Endpoint `i` receives everything addressed to node `i`.
    #[allow(clippy::new_ret_no_self)]
    pub fn new<M: Send + 'static>(n: usize) -> Vec<Endpoint<M>> {
        Fabric::new_with(n, BatchConfig::default())
    }

    /// Build the endpoints with an explicit batch policy.
    pub fn new_with<M: Send + 'static>(n: usize, batch: BatchConfig) -> Vec<Endpoint<M>> {
        Fabric::build(n, None, batch)
    }

    /// Build a fabric whose inter-node links run through the fault layer
    /// described by `plan`, with the default batch policy. Also returns the per-link fault counters.
    pub fn new_faulty<M: Send + Clone + 'static>(
        n: usize,
        plan: FaultPlan,
    ) -> (Vec<Endpoint<M>>, Arc<FaultStats>) {
        Fabric::new_faulty_with(n, plan, BatchConfig::default())
    }

    /// Build a faulty fabric with an explicit batch policy. The `Clone`
    /// bound lives here, not on [`Net::send`]: only the duplication fault
    /// ever clones a payload, so clean fabrics carry non-`Clone` types.
    pub fn new_faulty_with<M: Send + Clone + 'static>(
        n: usize,
        plan: FaultPlan,
        batch: BatchConfig,
    ) -> (Vec<Endpoint<M>>, Arc<FaultStats>) {
        let faults = Arc::new(FaultState::new(n, plan));
        let stats = Arc::clone(faults.stats());
        (Fabric::build(n, Some(faults as Arc<dyn FaultHook<M>>), batch), stats)
    }

    /// Build a shard transport: `n` node inboxes multiplexed onto `shards`
    /// shard endpoints (clamped to `1..=n`), default batch policy, no
    /// fault layer. Node `i` is received by shard `i mod shards`.
    pub fn new_sharded<M: Send + 'static>(n: usize, shards: usize) -> Vec<ShardEndpoint<M>> {
        assert!(n <= MAX_NODES, "egress dirty mask caps the fabric at {MAX_NODES} nodes");
        assert!(n > 0, "a fabric needs at least one node");
        let shards = shards.clamp(1, n);
        let (inboxes, rxs): (Vec<_>, Vec<_>) = (0..shards).map(|_| Inbox::new()).unzip();
        let transport: Arc<dyn Transport<M>> =
            Arc::new(ShardTransport { inboxes: inboxes.into_boxed_slice(), nodes: n });
        let ctl = Arc::new(FabricCtl::default());
        let mut eps: Vec<ShardEndpoint<M>> = rxs
            .into_iter()
            .map(|rx| ShardEndpoint {
                rx,
                ring: RefCell::new(VecDeque::new()),
                members: Vec::new(),
                nets: Vec::new(),
            })
            .collect();
        for i in 0..n {
            let net = make_net(
                i as NodeId,
                n,
                Arc::clone(&transport),
                Arc::clone(&ctl),
                None,
                BatchConfig::default(),
            );
            let ep = &mut eps[i % shards];
            ep.members.push(i as NodeId);
            ep.nets.push(net);
        }
        eps
    }

    fn build<M: Send + 'static>(
        n: usize,
        faults: Option<Arc<dyn FaultHook<M>>>,
        batch: BatchConfig,
    ) -> Vec<Endpoint<M>> {
        assert!(n <= MAX_NODES, "egress dirty mask caps the fabric at {MAX_NODES} nodes");
        let (inboxes, rxs): (Vec<_>, Vec<_>) = (0..n).map(|_| Inbox::new()).unzip();
        let transport: Arc<dyn Transport<M>> =
            Arc::new(ChannelTransport { inboxes: inboxes.into_boxed_slice() });
        let ctl = Arc::new(FabricCtl::default());
        rxs.into_iter()
            .enumerate()
            .map(|(i, rx)| {
                let me = i as NodeId;
                let net = make_net(
                    me,
                    n,
                    Arc::clone(&transport),
                    Arc::clone(&ctl),
                    faults.clone(),
                    batch,
                );
                Endpoint { me, rx, ring: RefCell::new(VecDeque::new()), net }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_fifo() {
        let eps = Fabric::new_with::<u32>(2, BatchConfig::new(16));
        let (a, b) = (&eps[0], &eps[1]);
        for i in 0..100 {
            a.net().send(1, i);
        }
        a.net().flush_all();
        for i in 0..100 {
            let env = b.recv().unwrap();
            assert_eq!(env.src, 0);
            assert_eq!(env.msg, i);
        }
    }

    #[test]
    fn self_send() {
        // Self-sends bypass the egress buffer and go straight on the
        // wire: visible via try_recv (which never flushes) with no
        // explicit flush — a node can always reach its own handler.
        let eps = Fabric::new::<&'static str>(1);
        eps[0].net().send(0, "hello");
        assert!(matches!(eps[0].try_recv(), TryRecv::Msg(env) if env.msg == "hello"));
    }

    #[test]
    fn non_clone_payloads_on_clean_fabric() {
        // `Net::send` must not demand `Clone`: only the fault layer clones.
        struct Token(#[allow(dead_code)] Box<u64>);
        let eps = Fabric::new::<Token>(2);
        eps[0].net().send(1, Token(Box::new(7)));
        eps[0].net().flush_all();
        assert!(matches!(eps[1].try_recv(), TryRecv::Msg(_)));
    }

    #[test]
    fn threshold_forces_flush_without_explicit_call() {
        let eps = Fabric::new_with::<u32>(2, BatchConfig::new(4));
        for i in 0..4 {
            eps[0].net().send(1, i);
        }
        // Exactly one wire batch of 4 must already be in the inbox.
        let w = eps[0].ctl().wire();
        assert_eq!((w.batches, w.envelopes), (1, 4));
        for i in 0..4 {
            assert!(matches!(eps[1].try_recv(), TryRecv::Msg(Envelope { msg, .. }) if msg == i));
        }
    }

    #[test]
    fn wire_counters_track_batches_and_occupancy() {
        let eps = Fabric::new_with::<u32>(2, BatchConfig::new(64));
        for i in 0..10 {
            eps[0].net().send(1, i);
        }
        eps[0].net().flush_all();
        eps[0].net().flush_all(); // idempotent: clean buffers send nothing
        let w = eps[0].ctl().wire();
        assert_eq!((w.batches, w.envelopes), (1, 10));
        assert_eq!(w.mean_occupancy(), 10.0);
    }

    #[test]
    fn batches_interleave_per_link_fifo_across_sources() {
        let eps = Fabric::new_with::<u32>(3, BatchConfig::new(8));
        for i in 0..20 {
            eps[0].net().send(2, i);
            eps[1].net().send(2, 100 + i);
        }
        eps[0].net().flush_all();
        eps[1].net().flush_all();
        let (mut from0, mut from1) = (vec![], vec![]);
        while let TryRecv::Msg(env) = eps[2].try_recv() {
            if env.src == 0 {
                from0.push(env.msg)
            } else {
                from1.push(env.msg)
            }
        }
        assert_eq!(from0, (0..20).collect::<Vec<_>>());
        assert_eq!(from1, (100..120).collect::<Vec<_>>());
    }

    #[test]
    fn cross_thread() {
        let mut eps = Fabric::new::<u64>(3);
        let e2 = eps.pop().unwrap();
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        let t1 = std::thread::spawn(move || {
            for i in 0..50 {
                e1.net().send(2, 100 + i);
            }
            e1.net().flush_all();
        });
        let t0 = std::thread::spawn(move || {
            for i in 0..50 {
                e0.net().send(2, i);
            }
            e0.net().flush_all();
        });
        let mut from0 = vec![];
        let mut from1 = vec![];
        for _ in 0..100 {
            let env = e2.recv().unwrap();
            if env.src == 0 {
                from0.push(env.msg);
            } else {
                from1.push(env.msg);
            }
        }
        t0.join().unwrap();
        t1.join().unwrap();
        // Per-sender FIFO even under interleaving.
        assert_eq!(from0, (0..50).collect::<Vec<_>>());
        assert_eq!(from1, (100..150).collect::<Vec<_>>());
    }

    #[test]
    fn try_recv_is_empty_until_a_flush_delivers() {
        let eps = Fabric::new::<u8>(2);
        assert!(matches!(eps[0].try_recv(), TryRecv::Empty));
        eps[1].net().send(0, 9);
        assert!(matches!(eps[0].try_recv(), TryRecv::Empty), "still in node 1's egress");
        eps[1].net().flush_all();
        assert!(matches!(eps[0].try_recv(), TryRecv::Msg(Envelope { msg: 9, .. })));
        assert!(matches!(eps[0].try_recv(), TryRecv::Empty));
    }

    #[test]
    fn teardown_drops_are_counted_after_closing() {
        let mut eps = Fabric::new::<u8>(2);
        let e1 = eps.pop().unwrap();
        let e0 = eps.pop().unwrap();
        let net0 = e0.net().clone();
        net0.send_direct(1, 7); // queued in an inbox that is about to go
        net0.ctl().mark_closing();
        drop(e1);
        let batch = WireBatch { src: 0, id: 0, msgs: WirePayload::One(42) };
        assert_eq!(net0.transport.deliver(1, batch), Err(Undeliverable));
        assert_eq!(net0.ctl().teardown_drops(), 0, "the transport reports, `Net` counts");
        net0.send(1, 42);
        net0.flush_all();
        assert_eq!(net0.ctl().teardown_drops(), 1);
        drop(e0);
    }

    #[test]
    fn two_producers_keep_per_sender_fifo() {
        const N: u64 = 20_000;
        let (inbox, rx) = Inbox::<(u8, u64)>::new();
        let start = std::sync::Barrier::new(3);
        std::thread::scope(|s| {
            for who in 0..2u8 {
                let (inbox, start) = (&inbox, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..N {
                        inbox.push((who, i)).unwrap();
                    }
                });
            }
            start.wait();
            let mut next = [0u64; 2];
            for _ in 0..2 * N {
                let (who, i) = rx.pop(None).unwrap();
                assert_eq!(i, next[who as usize], "sender {who} overtook itself");
                next[who as usize] += 1;
            }
            assert_eq!(next, [N, N]);
        });
        assert!(rx.try_pop().is_none());
    }

    /// A push racing a parking receiver must never be lost: each side
    /// parks after every send, so one lost wake-up hangs the test. Run
    /// under `taskset -c 0` in CI, where the race is a preemption between
    /// the emptiness check and the park.
    #[test]
    fn inbox_pingpong_never_loses_a_wakeup() {
        const ROUNDS: u64 = 10_000;
        let mut eps = Fabric::new_with::<u64>(2, BatchConfig::off()).into_iter();
        let (a, b) = (eps.next().unwrap(), eps.next().unwrap());
        std::thread::scope(|s| {
            s.spawn(move || {
                for _ in 0..ROUNDS {
                    let env = b.recv().unwrap();
                    b.net().send(0, env.msg + 1);
                }
            });
            for i in 0..ROUNDS {
                a.net().send(1, 2 * i);
                let back = a.recv_timeout(Duration::from_secs(60));
                assert!(
                    matches!(back, TryRecv::Msg(Envelope { src: 1, msg, .. }) if msg == 2 * i + 1),
                    "round {i}: {back:?}"
                );
            }
        });
    }

    /// Is the consumer of `inbox` parked and not yet signalled?
    fn parked<T>(inbox: &Inbox<T>) -> bool {
        lock(&inbox.state).parked
    }

    /// Spin until the consumer of `inbox` parks; `false` if it has not
    /// within 10 s.
    fn await_park<T>(inbox: &Inbox<T>) -> bool {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !parked(inbox) {
            if std::time::Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    /// Four producers burst into one consumer that alternates a blocking
    /// receive with a short timed one: pushes that signal nobody must not
    /// strand a later park, and timeouts must not strand the flag.
    #[test]
    fn inbox_burst_survives_alternating_recv_and_timeouts() {
        const PRODUCERS: usize = 4;
        const SENDS: u64 = 5_000;
        let mut eps = Fabric::new_with::<u64>(PRODUCERS + 1, BatchConfig::off());
        let consumer = eps.pop().unwrap();
        let dst = consumer.me;
        std::thread::scope(|s| {
            for ep in eps {
                s.spawn(move || {
                    for i in 0..SENDS {
                        ep.net().send(dst, i);
                        // Let the consumer drain to empty and park while
                        // this burst is still coming.
                        if i.is_multiple_of(64) {
                            std::thread::yield_now();
                        }
                    }
                });
            }
            let mut next = [0u64; PRODUCERS];
            let mut calls = 0u64;
            while next.iter().sum::<u64>() < PRODUCERS as u64 * SENDS {
                calls += 1;
                let got = if calls.is_multiple_of(2) {
                    consumer.recv()
                } else {
                    match consumer.recv_timeout(Duration::from_micros(50)) {
                        TryRecv::Msg(env) => Some(env),
                        TryRecv::Empty => None,
                    }
                };
                if let Some(env) = got {
                    let who = env.src as usize;
                    assert_eq!(env.msg, next[who], "sender {who} overtook itself");
                    next[who] += 1;
                }
            }
            assert_eq!(next, [SENDS; PRODUCERS]);
        });
        assert!(matches!(consumer.try_recv(), TryRecv::Empty));
    }

    /// A timed receive that expires lowers the flag, and a blocking
    /// receive after it still parks and is woken by the next push.
    #[test]
    fn inbox_blocking_recv_after_a_timeout_is_woken() {
        let mut eps = Fabric::new_with::<u32>(2, BatchConfig::off()).into_iter();
        let (a, b) = (eps.next().unwrap(), eps.next().unwrap());
        let inbox = Arc::clone(&b.rx.0);
        assert!(matches!(b.recv_timeout(Duration::from_millis(5)), TryRecv::Empty));
        assert!(!parked(&inbox), "a timeout must lower the flag");
        std::thread::scope(|s| {
            s.spawn(move || {
                await_park(&inbox);
                a.net().send(1, 3);
            });
            let got = b.recv();
            assert!(matches!(got, Some(Envelope { src: 0, msg: 3, .. })), "{got:?}");
        });
    }

    /// The first push into a park takes the flag; the second finds it
    /// down and signals nothing.
    #[test]
    fn inbox_first_push_into_a_park_takes_the_flag() {
        let (inbox, rx) = Inbox::<u32>::new();
        std::thread::scope(|s| {
            // A timed pop, so a consumer that is never signalled still
            // comes back and the test fails instead of hanging.
            let consumer = s.spawn(|| rx.pop(Some(Duration::from_secs(20))));
            let was_parked = await_park(&inbox);
            inbox.push(1).unwrap();
            let after_first = parked(&inbox);
            inbox.push(2).unwrap();
            assert_eq!(consumer.join().unwrap(), Some(1));
            assert!(was_parked, "the consumer never raised the flag");
            assert!(!after_first, "the first push must take the flag");
        });
        assert!(!parked(&inbox));
        assert_eq!(rx.try_pop(), Some(2));
    }

    #[test]
    fn faulty_fabric_preserving_keeps_per_link_fifo() {
        let plan = FaultPlan::new(77).delaying(200, 4).duplicating(100);
        let (eps, stats) = Fabric::new_faulty::<u32>(2, plan);
        for i in 0..500 {
            eps[0].net().send(1, i);
        }
        eps[0].net().flush_all();
        let mut got = Vec::new();
        while let TryRecv::Msg(env) = eps[1].try_recv() {
            got.push(env.msg);
        }
        let mut dedup = got.clone();
        dedup.dedup();
        let mut sorted = dedup.clone();
        sorted.sort_unstable();
        assert_eq!(dedup, sorted, "preserving mode must keep FIFO per link");
        let s = stats.link(0, 1).snapshot();
        assert!(s.delayed > 0 && s.duplicated > 0, "plan must have fired: {s:?}");
    }

    #[test]
    fn batched_faulty_fabric_same_faults_as_unbatched() {
        // Same seed, same send sequence: the k-th send on the link draws
        // the k-th fate regardless of how sends pack into wire batches —
        // the surviving envelope sequence is bit-identical.
        let plan = FaultPlan::chaos(0xC0FFEE);
        let mut runs = Vec::new();
        for max in [1usize, 4, 16, 64] {
            let (eps, stats) = Fabric::new_faulty_with::<u32>(2, plan, BatchConfig::new(max));
            for i in 0..800 {
                eps[0].net().send(1, i);
            }
            eps[0].net().flush_all();
            let mut got = Vec::new();
            while let TryRecv::Msg(env) = eps[1].try_recv() {
                got.push(env.msg);
            }
            let s = stats.link(0, 1).snapshot();
            runs.push((got, (s.delayed, s.duplicated, s.dropped)));
        }
        for r in &runs[1..] {
            assert_eq!(r, &runs[0], "fault fates must not depend on batch size");
        }
        assert!(runs[0].1 .0 > 0 && runs[0].1 .2 > 0, "chaos plan must fire: {:?}", runs[0].1);
    }

    #[test]
    fn faulty_fabric_duplicates_arrive() {
        let plan = FaultPlan::new(13).duplicating(1000); // every message doubled
        let (eps, stats) = Fabric::new_faulty::<u32>(2, plan);
        for i in 0..10 {
            eps[0].net().send(1, i);
        }
        eps[0].net().flush_all();
        let mut got = Vec::new();
        while let TryRecv::Msg(env) = eps[1].try_recv() {
            got.push(env.msg);
        }
        let expect: Vec<u32> = (0..10).flat_map(|i| [i, i]).collect();
        assert_eq!(got, expect);
        assert_eq!(stats.link(0, 1).snapshot().duplicated, 10);
    }

    #[test]
    fn faulty_fabric_never_touches_self_sends() {
        let plan = FaultPlan::new(1).dropping(1000);
        let (eps, stats) = Fabric::new_faulty::<u32>(2, plan);
        for i in 0..50 {
            eps[0].net().send(0, i);
        }
        eps[0].net().flush_all();
        let mut got = Vec::new();
        while let TryRecv::Msg(env) = eps[0].try_recv() {
            got.push(env.msg);
        }
        assert_eq!(got, (0..50).collect::<Vec<_>>());
        assert_eq!(stats.total().dropped, 0);
    }

    #[test]
    fn sharded_transport_keeps_per_link_fifo() {
        // 5 nodes on 2 shards: shard 0 hosts {0,2,4}, shard 1 hosts {1,3}.
        let eps = Fabric::new_sharded::<u32>(5, 2);
        for i in 0..200 {
            eps[0].net(0).send(3, i);
            eps[0].net(2).send(3, 1000 + i);
        }
        eps[0].flush_members();
        eps[1].net(1).send(1, u32::MAX); // self-send: straight on the wire
        let (mut from0, mut from2) = (vec![], vec![]);
        for _ in 0..400 {
            let env = eps[1].recv().unwrap();
            assert_eq!(env.dst, 3, "only node 3 was addressed so far");
            if env.src == 0 {
                from0.push(env.msg)
            } else {
                from2.push(env.msg)
            }
        }
        assert_eq!(from0, (0..200).collect::<Vec<_>>());
        assert_eq!(from2, (1000..1200).collect::<Vec<_>>());
        let own = eps[1].recv().unwrap();
        assert_eq!((own.src, own.dst, own.msg), (1, 1, u32::MAX));
    }

    #[test]
    fn recv_timeout_flushes_then_gives_up_or_delivers() {
        let eps = Fabric::new_with::<u32>(2, BatchConfig::new(16));
        eps[0].net().send(1, 7); // buffered
        let t = std::time::Instant::now();
        assert!(matches!(eps[0].recv_timeout(Duration::from_millis(20)), TryRecv::Empty));
        assert!(t.elapsed() >= Duration::from_millis(20));
        // Blocking flushed node 0's egress, so node 1 sees the message.
        assert!(matches!(
            eps[1].recv_timeout(Duration::from_secs(5)),
            TryRecv::Msg(Envelope { src: 0, msg: 7, .. })
        ));
    }

    #[test]
    fn recv_timeout_delivers_a_push_made_before_its_deadline() {
        let mut eps = Fabric::new_with::<u32>(2, BatchConfig::off()).into_iter();
        let (a, b) = (eps.next().unwrap(), eps.next().unwrap());
        // `parked` is released by `b` just before it blocks; the push can
        // land before or after the park, and must be received either way,
        // long before the deadline.
        let parked = &std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(move || {
                parked.wait();
                a.net().send(1, 5);
            });
            parked.wait();
            let t = std::time::Instant::now();
            let got = b.recv_timeout(Duration::from_secs(60));
            assert!(matches!(got, TryRecv::Msg(Envelope { src: 0, msg: 5, .. })), "{got:?}");
            assert!(t.elapsed() < Duration::from_secs(30));
        });
    }

    #[test]
    fn send_direct_skips_buffer_faults_and_wire_counters() {
        let plan = FaultPlan::new(1).dropping(1000);
        let (eps, stats) = Fabric::new_faulty::<u32>(2, plan);
        eps[0].net().send_direct(1, 9);
        assert!(matches!(eps[1].try_recv(), TryRecv::Msg(Envelope { src: 0, msg: 9, .. })));
        assert_eq!(stats.total().dropped, 0);
        assert_eq!(eps[0].ctl().wire().batches, 0);
    }

    #[test]
    fn faulty_fabric_violating_mode_reorders() {
        let plan = FaultPlan::new(5).delaying(400, 6).fifo_violating();
        let (eps, _) = Fabric::new_faulty::<u32>(2, plan);
        for i in 0..1000 {
            eps[0].net().send(1, i);
        }
        eps[0].net().flush_all();
        let mut got = Vec::new();
        while let TryRecv::Msg(env) = eps[1].try_recv() {
            got.push(env.msg);
        }
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_ne!(got, sorted, "violating mode must produce at least one overtake");
    }
}
