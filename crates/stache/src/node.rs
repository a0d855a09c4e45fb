//! Per-node shared state and the protocol-handler thread.
//!
//! Each emulated node runs **two** OS threads, mirroring Blizzard on the
//! CM-5: a *compute* thread executing the application (and blocking on its
//! own access faults) and a *protocol-handler* thread draining the node's
//! network inbox (Blizzard ran handlers from the network interrupt). Both
//! threads share this [`NodeShared`] bundle.
//!
//! Lock ordering: `dir` before extension-internal locks (e.g. the
//! predictive protocol's schedule/health state) before `mem`; `recalled`
//! is a leaf lock never held together with any of them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam::channel::Sender;
use parking_lot::Mutex;
use prescient_tempest::fabric::{Endpoint, FabricCtl, Net, ShardEndpoint};
use prescient_tempest::trace::{pack_msg, EventKind, Tracer};
use prescient_tempest::{
    BlockId, CostModel, GlobalLayout, HomeView, MemCheckpoint, NodeId, NodeMem, NodeStats,
};

use crate::dir::{DirCheckpoint, Directory};
use crate::engine::Engine;
use crate::hooks::Hooks;
use crate::msg::{Msg, Wake};

/// Compute-side request retry policy. The timeout is wall-clock (it bounds
/// how long a blocked fetch waits for a grant that a faulty fabric may
/// have dropped); its *virtual-time* cost is billed separately as
/// `CostModel::retry_ns` per retry.
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

/// State shared between a node's compute thread and its protocol-handler
/// thread (and readable by extensions).
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
    /// Block store: home memory plus cached remote blocks.
    pub mem: Mutex<NodeMem>,
    /// Home directory for this node's blocks.
    pub dir: Mutex<Directory>,
    /// Per-block record of the last recall reply sent (see [`RecallReply`]).
    pub recalled: Mutex<HashMap<BlockId, RecallReply>>,
    /// Event counters.
    pub stats: NodeStats,
    /// Next request sequence number (monotonic; 0 is never issued).
    seq: AtomicU64,
    /// Seq of the fetch in flight on the compute thread (0 = none). Grants
    /// that do not match are stale and must not install.
    outstanding: AtomicU64,
    net: Net<Msg>,
    wake_tx: Sender<Wake>,
}

impl NodeShared {
    /// Assemble the shared state for node `me` with the default retry
    /// policy.
    pub fn new(
        layout: GlobalLayout,
        cost: CostModel,
        net: Net<Msg>,
        wake_tx: Sender<Wake>,
    ) -> NodeShared {
        NodeShared::new_with_retry(layout, cost, net, wake_tx, RetryConfig::default())
    }

    /// Assemble the shared state with an explicit retry policy and the
    /// identity home view (no placement).
    pub fn new_with_retry(
        layout: GlobalLayout,
        cost: CostModel,
        net: Net<Msg>,
        wake_tx: Sender<Wake>,
        retry: RetryConfig,
    ) -> NodeShared {
        let homes = Arc::new(HomeView::identity(layout));
        NodeShared::new_with_homes(homes, cost, net, wake_tx, retry)
    }

    /// Assemble the shared state over the machine's home view (every node
    /// of one machine must be given the same `Arc`).
    pub fn new_with_homes(
        homes: Arc<HomeView>,
        cost: CostModel,
        net: Net<Msg>,
        wake_tx: Sender<Wake>,
        retry: RetryConfig,
    ) -> NodeShared {
        let me = net.me();
        let layout = *homes.layout();
        NodeShared {
            me,
            layout,
            cost,
            retry,
            mem: Mutex::new(NodeMem::with_view(me, Arc::clone(&homes))),
            homes,
            dir: Mutex::new(Directory::new()),
            recalled: Mutex::new(HashMap::new()),
            stats: NodeStats::default(),
            seq: AtomicU64::new(1),
            outstanding: AtomicU64::new(0),
            net,
            wake_tx,
        }
    }

    /// Draw the next request sequence number.
    pub fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Declare `seq` as the fetch in flight.
    pub fn set_outstanding(&self, seq: u64) {
        self.outstanding.store(seq, Ordering::Release);
    }

    /// The fetch in flight (0 = none). To stay race-free against grant
    /// installation, the compute thread clears this while holding the
    /// `mem` lock and the grant handler reads it under the same lock.
    pub fn outstanding(&self) -> u64 {
        self.outstanding.load(Ordering::Acquire)
    }

    /// Clear the fetch in flight. Call with the `mem` lock held (see
    /// [`NodeShared::outstanding`]).
    pub fn clear_outstanding(&self) {
        self.outstanding.store(0, Ordering::Release);
    }

    /// Send a protocol message to `dst`, counting it. The message may sit
    /// in the fabric's per-destination egress buffer until the next flush;
    /// any code that blocks waiting for a *reply* must call
    /// [`NodeShared::flush_net`] after its last send (the protocol thread
    /// itself flushes automatically before blocking on an empty inbox).
    pub fn send(&self, dst: NodeId, msg: Msg) {
        NodeStats::bump(&self.stats.msgs_out);
        self.net.tracer().emit(EventKind::MsgSend, pack_msg(msg.kind_code(), dst), msg.trace_aux());
        self.net.send(dst, msg);
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

    /// Wake this node's compute thread.
    pub fn wake(&self, w: Wake) {
        // Failure means the compute side hung up (teardown); harmless.
        let _ = self.wake_tx.send(w);
    }

    /// Number of nodes in the machine.
    pub fn nodes(&self) -> usize {
        self.layout.nodes
    }

    /// Block size in bytes.
    pub fn block_size(&self) -> usize {
        self.layout.block_size
    }

    /// The fabric's shared control block (teardown / abort flags).
    pub fn fabric_ctl(&self) -> &Arc<FabricCtl> {
        self.net.ctl()
    }

    /// Has the machine been declared dead (panic isolation or watchdog)?
    /// Retry loops check this instead of re-arming their timeouts forever.
    pub fn is_aborting(&self) -> bool {
        self.net.ctl().is_aborting()
    }

    /// Discard everything the fabric's fault layer is holding (see
    /// `Net::purge_faults`); part of the recovery drain.
    pub fn purge_faults(&self) {
        self.net.purge_faults();
    }

    /// Capture this node's full protocol state at a quiescent cut: the
    /// block store, the home directory shard, the request-seq counter, and
    /// the recall-reply cache. Every lock is taken briefly and in order
    /// (`dir` before `mem`, `recalled` leaf); at a barrier no other thread
    /// contends.
    pub fn checkpoint(&self) -> NodeCheckpoint {
        let dir = self.dir.lock().checkpoint();
        let mem = self.mem.lock().checkpoint();
        let recalled = self.recalled.lock().iter().map(|(b, r)| (*b, r.clone())).collect();
        NodeCheckpoint { mem, dir, seq: self.seq.load(Ordering::Relaxed), recalled }
    }

    /// Roll this node's protocol state back to a captured cut. Callable
    /// only while the machine is quiescent (the recovery protocol drains
    /// the channels first): the block store, directory shard, seq counter,
    /// and recall-reply cache all rewind together, so replayed requests
    /// re-draw the same seqs the restored watermarks expect.
    pub fn restore(&self, ckpt: &NodeCheckpoint) {
        self.dir.lock().restore(&ckpt.dir);
        self.mem.lock().restore(&ckpt.mem);
        *self.recalled.lock() = ckpt.recalled.iter().cloned().collect();
        self.seq.store(ckpt.seq, Ordering::Relaxed);
        self.outstanding.store(0, Ordering::Release);
    }
}

/// One node's shard of a barrier-consistent checkpoint: block store,
/// directory, request-seq counter, and recall-reply cache, captured
/// together at the cut by [`NodeShared::checkpoint`].
#[derive(Debug, Clone)]
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

/// Start the protocol-handler thread for a node: drains `endpoint`,
/// dispatching every message through the engine until `Msg::Shutdown`.
///
/// On exit the thread marks the fabric as closing before its endpoint is
/// dropped: from the first `Shutdown` onward, in-flight traffic addressed
/// to exited nodes (e.g. duplicates released by the fault layer) is
/// legitimate teardown loss rather than a protocol bug.
pub fn spawn_protocol(
    shared: Arc<NodeShared>,
    endpoint: Endpoint<Msg>,
    hooks: Arc<dyn Hooks>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("proto-{}", shared.me))
        .spawn(move || {
            let engine = Engine::new(hooks);
            while let Some(env) = endpoint.recv() {
                shared.tracer().emit(
                    EventKind::MsgRecv,
                    pack_msg(env.msg.kind_code(), env.src),
                    env.msg.trace_aux(),
                );
                if !engine.handle(&shared, env.src, env.msg) {
                    break;
                }
            }
            // Replies produced while draining the final batch (before the
            // Shutdown envelope) may still sit in the egress; push them
            // out before this endpoint disappears.
            shared.flush_net();
            endpoint.ctl().mark_closing();
        })
        .expect("spawn protocol thread")
}

/// Start one shard loop of a sharded fabric: a single OS thread drains
/// the [`ShardEndpoint`] and dispatches each envelope to the engine of
/// the member node it addresses, replacing one protocol thread per node
/// with one per shard. `members` must match `ep.members()` one-to-one,
/// in the same (ascending) order.
///
/// Teardown semantics mirror the per-node loop exactly: once a member has
/// handled its `Msg::Shutdown`, later envelopes addressed to it are
/// dropped unprocessed (in the per-node model they would sit in a dead
/// thread's inbox), and the loop exits when every member has shut down.
pub fn spawn_protocol_shard(
    members: Vec<(Arc<NodeShared>, Arc<dyn Hooks>)>,
    ep: ShardEndpoint<Msg>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(format!("proto-shard-{}", ep.shard()))
        .spawn(move || {
            let ids: Vec<NodeId> = members.iter().map(|(s, _)| s.me).collect();
            assert_eq!(ids, ep.members(), "members must match the shard endpoint");
            let engines: Vec<(Arc<NodeShared>, Engine)> =
                members.into_iter().map(|(s, h)| (s, Engine::new(h))).collect();
            let mut live = vec![true; engines.len()];
            let mut alive = engines.len();
            while alive > 0 {
                let Some(env) = ep.recv() else { break };
                let idx = ids.binary_search(&env.dst).expect("envelope for a non-member node");
                if !live[idx] {
                    continue;
                }
                let (shared, engine) = &engines[idx];
                shared.tracer().emit(
                    EventKind::MsgRecv,
                    pack_msg(env.msg.kind_code(), env.src),
                    env.msg.trace_aux(),
                );
                if !engine.handle(shared, env.src, env.msg) {
                    live[idx] = false;
                    alive -= 1;
                }
            }
            for (shared, _) in &engines {
                shared.flush_net();
            }
            ep.ctl().mark_closing();
        })
        .expect("spawn shard protocol thread")
}
