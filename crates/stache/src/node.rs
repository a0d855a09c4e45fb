//! Per-node state and the node's one thread.
//!
//! Each emulated node is **one** OS thread, as a Blizzard node was one CM-5
//! processor: the program and the protocol handlers take turns on it, so a
//! node's memory never has two concurrent users. Handlers run wherever the
//! program would otherwise wait — a fault ([`crate::engine::fetch`]), an
//! acknowledgement wait, a barrier ([`Node::barrier`]) — and at a poll
//! every so many accesses ([`Node::poll`], Blizzard's poll), which is what
//! lets a peer's request be served inside a long stretch of hits.
//!
//! A node is split in two. [`NodeShared`] is what other threads may look
//! at (ids, configuration, counters, the sending handle): it is `Sync` and
//! holds no lock. [`NodeState`] — block store, directory, recall-reply
//! cache — is owned by the node's thread through its [`Node`] for as long
//! as that thread runs, and is reached by `&mut`; there is no lock order
//! because there are no locks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use prescient_tempest::barrier::BarrierOut;
use prescient_tempest::fabric::{Endpoint, Envelope, Net, TryRecv};
use prescient_tempest::trace::{pack_msg, EventKind, Tracer};
use prescient_tempest::{
    Aborted, BlockId, CostModel, GlobalLayout, HomeView, IdMap, MemCheckpoint, NodeId, NodeMem,
    NodeStats, VBarrier,
};

use crate::dir::{DirCheckpoint, Directory};
use crate::engine::Engine;
use crate::hooks::Hooks;
use crate::msg::{Msg, Wake};

/// Request retry policy. The timeout is wall-clock (it bounds how long a
/// blocked fetch waits for a grant that a faulty fabric may have dropped);
/// its *virtual-time* cost is billed separately as `CostModel::retry_ns`
/// per retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryConfig {
    /// How long a fetch waits for its grant before re-issuing the request.
    pub timeout: Duration,
    /// Upper bound on re-issues of one fetch before declaring the machine
    /// wedged (panics; only reachable if the fabric drops everything or a
    /// protocol bug loses a request).
    pub max_retries: u32,
}

impl Default for RetryConfig {
    fn default() -> RetryConfig {
        RetryConfig { timeout: Duration::from_millis(200), max_retries: 50 }
    }
}

/// The recorded reply to the last recall this node answered for a block:
/// re-sent verbatim if the same recall round asks again (its first reply
/// was lost), so recall replies are idempotent and modified data cannot be
/// lost or resurrected by retransmissions.
#[derive(Debug, Clone)]
pub struct RecallReply {
    /// Recall round the reply answered.
    pub op: u64,
    /// Bytes shipped home (shared with the in-flight reply; re-sending is
    /// a refcount bump).
    pub data: Arc<[u8]>,
    /// The copy was an unread pre-send.
    pub unused: bool,
}

/// The part of a node any thread may hold (`Sync`, lock-free): identity,
/// configuration, counters and the sending handle. The watchdog, the
/// machine's reports and protocol extensions read it while the node's
/// thread runs.
pub struct NodeShared {
    /// This node's id.
    pub me: NodeId,
    /// Machine layout (node count, block size, homes).
    pub layout: GlobalLayout,
    /// Virtual-time cost constants.
    pub cost: CostModel,
    /// Request retry policy.
    pub retry: RetryConfig,
    /// The machine's block→home view: immutable configuration, one
    /// instance shared by every node and block store. Identity (homes
    /// follow the segment layout) unless a remap overlay or rotation was
    /// configured.
    pub homes: Arc<HomeView>,
    /// Event counters.
    pub stats: NodeStats,
    /// Next request sequence number (monotonic; 0 is never issued).
    seq: AtomicU64,
    /// Seq of the fetch in flight (0 = none). Grants that do not match are
    /// stale and must not install. Written by the node's thread only;
    /// atomic so death reports can read it.
    outstanding: AtomicU64,
    /// Tear-downs of the wave in flight still ungranted, and the lowest
    /// seq among them ([`crate::engine::fetch_all`]; home-local requests
    /// never set `outstanding`). Same writer, same readers.
    wave: [AtomicU64; 2],
    net: Net<Msg>,
}

impl NodeShared {
    fn new(homes: Arc<HomeView>, cost: CostModel, net: Net<Msg>, retry: RetryConfig) -> NodeShared {
        NodeShared {
            me: net.me(),
            layout: *homes.layout(),
            cost,
            retry,
            homes,
            stats: NodeStats::default(),
            seq: AtomicU64::new(1),
            outstanding: AtomicU64::new(0),
            wave: [AtomicU64::new(0), AtomicU64::new(0)],
            net,
        }
    }

    /// Draw the next request sequence number.
    pub fn next_seq(&self) -> u64 {
        self.next_seqs(1)
    }

    /// Draw `count` consecutive sequence numbers; the first of them.
    pub fn next_seqs(&self, count: u64) -> u64 {
        self.seq.fetch_add(count, Ordering::Relaxed)
    }

    /// Declare `seq` as the fetch in flight (0 = none).
    pub fn set_outstanding(&self, seq: u64) {
        self.outstanding.store(seq, Ordering::Relaxed);
    }

    /// The fetch in flight (0 = none).
    pub fn outstanding(&self) -> u64 {
        self.outstanding.load(Ordering::Relaxed)
    }

    /// Publish the tear-down wave in flight: `left` requests ungranted,
    /// the lowest of them `low_seq` (`left == 0`: none, reads `(0, 0)`).
    pub fn set_wave(&self, left: u64, low_seq: u64) {
        self.wave[0].store(left, Ordering::Relaxed);
        self.wave[1].store(if left == 0 { 0 } else { low_seq }, Ordering::Relaxed);
    }

    /// `(ungranted tear-downs, lowest pending seq)` of the wave in flight.
    pub fn wave(&self) -> (u64, u64) {
        (self.wave[0].load(Ordering::Relaxed), self.wave[1].load(Ordering::Relaxed))
    }

    /// Send a protocol message to `dst`, counting it. The message may sit
    /// in the fabric's per-destination egress buffer until the next flush;
    /// [`Node::next_wake`] and [`Node::poll`] flush before they block or
    /// return, so handlers and drivers only call [`NodeShared::flush_net`]
    /// where they stop sending without doing either.
    pub fn send(&self, dst: NodeId, msg: Msg) {
        NodeStats::bump(&self.stats.msgs_out);
        self.net.tracer().emit(EventKind::MsgSend, pack_msg(msg.kind_code(), dst), msg.trace_aux());
        self.net.send(dst, msg);
    }

    /// Wake `dst`'s waiting loop with a [`Msg::Kick`], put straight into
    /// its inbox: not counted as a message, not traced, not subject to
    /// batching or injected faults.
    pub fn kick(&self, dst: NodeId) {
        self.net.send_direct(dst, Msg::Kick);
    }

    /// [`NodeShared::kick`] every node but this one.
    pub fn kick_peers(&self) {
        (0..self.nodes() as NodeId).filter(|&d| d != self.me).for_each(|d| self.kick(d));
    }

    /// Declare the machine dead and get every node out of whatever it is
    /// waiting in: raise the fabric's abort flag, poison `barrier`, kick
    /// every inbox. Callable from any thread.
    pub fn abort_machine(&self, barrier: &VBarrier) {
        self.net.ctl().abort();
        barrier.poison();
        (0..self.nodes() as NodeId).for_each(|d| self.kick(d));
    }

    /// This node's tracing handle (the one its fabric endpoint carries;
    /// disabled unless the machine layer installed a live tracer).
    pub fn tracer(&self) -> &Tracer {
        self.net.tracer()
    }

    /// Push every buffered outgoing message onto the wire (see
    /// [`Net::flush_all`]). Cheap when nothing is buffered.
    pub fn flush_net(&self) {
        self.net.flush_all();
    }

    /// Number of nodes in the machine.
    pub fn nodes(&self) -> usize {
        self.layout.nodes
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.layout.block_size
    }

    /// Has the machine been declared dead (panic isolation or watchdog)?
    pub fn is_aborting(&self) -> bool {
        self.net.ctl().is_aborting()
    }

    /// Discard everything the fabric's fault layer is holding (see
    /// `Net::purge_faults`); part of the recovery drain.
    pub fn purge_faults(&self) {
        self.net.purge_faults();
    }
}

/// The part of a node only its own thread touches: what the handlers and
/// the program's accesses read and write.
pub struct NodeState {
    /// Block store: home memory plus cached remote blocks.
    pub mem: NodeMem,
    /// Home directory for this node's blocks.
    pub dir: Directory,
    /// Per-block record of the last recall reply sent (see [`RecallReply`]).
    pub recalled: IdMap<BlockId, RecallReply>,
}

/// One node, as its thread holds it: the shared part, the owned state, the
/// inbox, and the handlers.
pub struct Node {
    /// What other threads may see of this node.
    pub shared: Arc<NodeShared>,
    /// Block store, directory, recall-reply cache.
    pub state: NodeState,
    endpoint: Endpoint<Msg>,
    engine: Engine,
}

impl Node {
    /// Assemble the node behind `endpoint` over the machine's home view
    /// (every node of one machine must be given the same `Arc`).
    pub fn new(
        homes: Arc<HomeView>,
        cost: CostModel,
        endpoint: Endpoint<Msg>,
        hooks: Arc<dyn Hooks>,
        retry: RetryConfig,
    ) -> Node {
        let state = NodeState {
            mem: NodeMem::with_view(endpoint.me, Arc::clone(&homes)),
            dir: Directory::new(),
            recalled: IdMap::default(),
        };
        let shared = Arc::new(NodeShared::new(homes, cost, endpoint.net().clone(), retry));
        Node { shared, state, endpoint, engine: Engine::new(hooks) }
    }

    fn handle(&mut self, env: Envelope<Msg>) -> Option<Wake> {
        if env.msg != Msg::Kick {
            self.shared.tracer().emit(
                EventKind::MsgRecv,
                pack_msg(env.msg.kind_code(), env.src),
                env.msg.trace_aux(),
            );
        }
        self.engine.handle(&self.shared, &mut self.state, env.src, env.msg)
    }

    /// Handle everything already in the inbox without blocking, then put
    /// the replies on the wire. What a handler reports back is dropped:
    /// nothing is being waited for.
    pub fn poll(&mut self) {
        while let TryRecv::Msg(env) = self.endpoint.try_recv() {
            self.handle(env);
        }
        self.shared.flush_net();
    }

    /// Serve the inbox until a handler reports something to the waiting
    /// program, blocking while it is empty; `None` once `deadline` (if
    /// any) has passed with nothing to report. The egress is flushed
    /// before every block and before returning.
    ///
    /// # Panics
    ///
    /// Unwinds with [`Aborted`] when it wakes (by [`Msg::Kick`] or
    /// timeout) to find the machine declared dead.
    pub fn next_wake(&mut self, deadline: Option<Instant>) -> Option<Wake> {
        loop {
            let got = match (self.endpoint.try_recv(), deadline) {
                (TryRecv::Empty, None) => TryRecv::Msg(
                    self.endpoint.recv().expect("an untimed receive returns a message"),
                ),
                (TryRecv::Empty, Some(d)) => {
                    self.endpoint.recv_timeout(d.saturating_duration_since(Instant::now()))
                }
                (got, _) => got,
            };
            let wake = match got {
                TryRecv::Msg(env) => match self.handle(env) {
                    Some(w) => Some(w),
                    None => continue,
                },
                TryRecv::Empty => None,
            };
            // A kick and the clock are the two ways out of a wait on a
            // dead machine.
            if matches!(wake, None | Some(Wake::Kick)) && self.shared.is_aborting() {
                std::panic::panic_any(Aborted);
            }
            self.shared.flush_net();
            return wake;
        }
    }

    /// The one acknowledged wait: serve the inbox until none of `left`
    /// pending entries (grants, acknowledgements) remains. `step` sees
    /// every wake as `Ok`, with the node's state (it may issue more work
    /// from inside the wait), and answers how many entries are still
    /// pending; after [`RetryConfig::timeout`] in which that count did not
    /// change it sees `Err(round)` — the moment to re-issue what is
    /// pending — and the clock re-arms. The deadline runs from the last
    /// progress, so a long wave on a slow host is not a timeout. Under
    /// [`crate::engine::fetch`] and [`crate::engine::fetch_all`], the
    /// pre-send window and the merge ack wait.
    ///
    /// # Panics
    ///
    /// When round [`RetryConfig::max_retries`]` + 1` would begin: `what`
    /// never settled (the fabric drops everything, or a protocol bug).
    pub fn settle(
        &mut self,
        what: std::fmt::Arguments<'_>,
        mut left: usize,
        mut step: impl FnMut(&NodeShared, &mut NodeState, Result<Wake, u32>) -> usize,
    ) {
        let RetryConfig { timeout, max_retries } = self.shared.retry;
        let (mut rounds, mut deadline) = (0u32, Instant::now() + timeout);
        while left > 0 {
            let event = match self.next_wake(Some(deadline)) {
                Some(wake) => Ok(wake),
                None => {
                    rounds += 1;
                    assert!(
                        rounds <= max_retries,
                        "node {}: {left} {what} after {max_retries} retry rounds (machine wedged)",
                        self.shared.me
                    );
                    Err(rounds)
                }
            };
            let now = step(&self.shared, &mut self.state, event);
            if now > 0 && (now != left || event.is_err()) {
                deadline = Instant::now() + timeout;
            }
            left = now;
        }
    }

    /// Global barrier that keeps serving: arrive, then drain the inbox
    /// until the episode is released. The last arriver kicks every peer,
    /// always *after* the release is published, so a waiter that saw no
    /// release before blocking is woken by the kick.
    pub fn barrier(&mut self, barrier: &VBarrier, arrival_ns: u64) -> BarrierOut {
        self.barrier_then(barrier, arrival_ns, || ())
    }

    /// [`Node::barrier`], where the last arriver runs `on_release` before
    /// the release is published ([`VBarrier::arrive`]): every node has
    /// arrived, no node has left, and no node's post-barrier message
    /// exists yet.
    pub fn barrier_then(
        &mut self,
        barrier: &VBarrier,
        arrival_ns: u64,
        on_release: impl FnOnce(),
    ) -> BarrierOut {
        self.shared.flush_net();
        let ticket = match barrier.arrive(arrival_ns, on_release) {
            Ok(out) => {
                self.shared.kick_peers();
                return out;
            }
            Err(t) => t,
        };
        loop {
            if let Some(out) = barrier.poll(&ticket) {
                return out;
            }
            self.next_wake(None);
        }
    }

    /// Capture this node's full protocol state at a quiescent cut — the
    /// block store, the home directory shard, the request-seq counter, and
    /// the recall-reply cache — into `ckpt`, overwriting what it held and
    /// keeping its buffers. The block store writes only what changed
    /// since it last filled or restored from `ckpt.mem`.
    pub fn checkpoint_into(&mut self, ckpt: &mut NodeCheckpoint) {
        self.state.mem.checkpoint_into(&mut ckpt.mem);
        self.state.dir.checkpoint_into(&mut ckpt.dir);
        ckpt.seq = self.shared.seq.load(Ordering::Relaxed);
        ckpt.recalled.clear();
        ckpt.recalled.extend(self.state.recalled.iter().map(|(b, r)| (*b, r.clone())));
    }

    /// Roll this node's protocol state back to a captured cut. Callable
    /// only while the machine is quiescent (the recovery protocol drains
    /// the channels first): the block store, directory shard, seq counter,
    /// and recall-reply cache all rewind together, so replayed requests
    /// re-draw the same seqs the restored watermarks expect.
    pub fn restore(&mut self, ckpt: &NodeCheckpoint) {
        self.state.dir.restore(&ckpt.dir);
        self.state.mem.restore(&ckpt.mem);
        self.state.recalled = ckpt.recalled.iter().cloned().collect();
        self.shared.seq.store(ckpt.seq, Ordering::Relaxed);
        self.shared.set_outstanding(0);
        self.shared.set_wave(0, 0);
    }
}

/// One node's shard of a barrier-consistent checkpoint: block store,
/// directory, request-seq counter, and recall-reply cache, captured
/// together at the cut by [`Node::checkpoint_into`].
#[derive(Debug, Default)]
pub struct NodeCheckpoint {
    /// The paged block store (bytes, tags, unread-pre-send bits, allocator).
    pub mem: MemCheckpoint,
    /// The home directory shard (entries, seq watermarks, op allocator).
    pub dir: DirCheckpoint,
    /// The node's request sequence counter at the cut.
    pub seq: u64,
    /// The recall-reply idempotency cache at the cut.
    pub recalled: Vec<(BlockId, RecallReply)>,
}

impl NodeCheckpoint {
    /// Block-data bytes aboard (the checkpoint's dominant cost).
    pub fn bytes(&self) -> u64 {
        self.mem.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dir::DirState;
    use crate::hooks::NoHooks;
    use crate::testkit::Cluster;
    use prescient_tempest::Tag;

    fn cluster() -> Cluster {
        Cluster::new(2, 32, RetryConfig::default(), None, |_| Arc::new(NoHooks))
    }

    type Blocks = Vec<(u64, Tag, Vec<u8>)>;
    type Recalls = Vec<(u64, u64, Vec<u8>, bool)>;

    /// Everything a restore rewinds: blocks with tags and bytes, unread
    /// pre-sends, directory states, the seq counter, the recall replies.
    fn view(n: &Node) -> (Blocks, usize, Vec<(u64, DirState)>, u64, Recalls) {
        let mem = &n.state.mem;
        let mut blocks: Blocks = mem
            .iter_blocks()
            .map(|(b, tag)| (b.0, tag, mem.data(b).expect("materialized").to_vec()))
            .collect();
        blocks.sort_by_key(|b| b.0);
        let mut dir: Vec<(u64, DirState)> =
            n.state.dir.iter().map(|(b, e)| (b.0, e.state)).collect();
        dir.sort_by_key(|d| d.0);
        let mut recalled: Recalls =
            n.state.recalled.iter().map(|(b, r)| (b.0, r.op, r.data.to_vec(), r.unused)).collect();
        recalled.sort_by_key(|r| r.0);
        let seq = n.shared.seq.load(Ordering::Relaxed);
        (blocks, mem.unused_presends(), dir, seq, recalled)
    }

    #[test]
    fn reused_checkpoint_buffer_leaks_nothing() {
        let reply =
            |op: u64, byte: u8| RecallReply { op, data: vec![byte; 32].into(), unused: false };
        let (mut big, mut small) = (cluster(), cluster());
        let node = &mut big.nodes[0];
        let remote = node.shared.layout.block_of(node.shared.layout.heap_base(1));
        for _ in 0..6 {
            let a = node.state.mem.alloc(32, 32);
            node.state.mem.write_in_block(a, &[9; 8]).unwrap();
        }
        node.state.mem.install(remote, &[4; 32], Tag::ReadOnly, true);
        for b in 0..4 {
            node.state.dir.entry(BlockId(b)).state = DirState::Exclusive(1);
            node.state.recalled.insert(BlockId(b), reply(b + 1, 7));
        }
        node.shared.next_seqs(40);
        let node = &mut small.nodes[0];
        let a = node.state.mem.alloc(32, 32);
        node.state.mem.write_in_block(a, &[1; 8]).unwrap();
        node.state.dir.entry(BlockId(9)).state = DirState::Exclusive(1);
        node.state.recalled.insert(BlockId(9), reply(3, 2));

        let (mut reused, mut fresh) = (NodeCheckpoint::default(), NodeCheckpoint::default());
        big.nodes[0].checkpoint_into(&mut reused);
        small.nodes[0].checkpoint_into(&mut reused);
        small.nodes[0].checkpoint_into(&mut fresh);
        let (mut from_reused, mut from_fresh) = (cluster(), cluster());
        from_reused.nodes[0].restore(&reused);
        from_fresh.nodes[0].restore(&fresh);
        assert_eq!(view(&from_reused.nodes[0]), view(&from_fresh.nodes[0]));
        assert_eq!(view(&from_fresh.nodes[0]), view(&small.nodes[0]));
    }
}
