//! Protocol event tracing: per-node virtual-time-stamped trace rings.
//!
//! The paper's whole argument rests on *seeing* protocol behavior —
//! Figures 5–7 decompose execution time, §5.2–§5.4 reason about per-phase
//! schedule build/replay dynamics. Cumulative counters ([`crate::stats`])
//! answer "how much"; this module answers "when": every interesting
//! protocol event (fault begin/end, message send/receive, pre-send
//! push/install, schedule record/flush/coalesce, degradation transitions,
//! retries, barrier crossings, wire batches) can be recorded as a compact
//! [`TraceEvent`], stamped with the node's **virtual time**, current phase
//! id, and node id.
//!
//! # Design
//!
//! * **One fixed-capacity ring per node** ([`TraceRing`]): a power-of-two
//!   array of 5-word slots written lock-free (slots are claimed with one
//!   `fetch_add`). A node's own thread writes its ring, for its program
//!   and its protocol handlers alike; the only other emitter is the
//!   watchdog, whose `WatchdogFire` lands on node 0's ring after the
//!   watchdog has declared the machine dead. When the ring wraps, the
//!   oldest events are overwritten and counted as dropped; tracing is a
//!   flight recorder, not a reliable log.
//! * **Zero-cost when disabled**: the [`Tracer`] handle is an
//!   `Option`-like wrapper; every emission site is one branch on a
//!   never-taken pointer when tracing is off, and the disabled tracer
//!   allocates nothing.
//! * **Virtual-time stamps**: the node's program publishes its virtual
//!   clock into the tracer at every protocol-relevant boundary (fault
//!   begin/end, barriers, phase directives). Events emitted from the
//!   protocol handlers (which run on the same thread, between those
//!   boundaries) are stamped with the *last published* vtime — an
//!   approximation documented in DESIGN.md §11: handler events carry the
//!   vtime of the program activity they interleave with, which is exactly
//!   the resolution the per-phase analyses need.
//! * **Quiescent drain**: rings are read only when the machine is idle
//!   (between runs or at teardown). A torn slot — possible only when
//!   node 0's ring wrapped *and* the watchdog's `WatchdogFire` raced node
//!   0's thread for the same slot — is detected by its sequence tag and
//!   skipped.
//!
//! Enabling: [`TraceConfig`] on the machine configuration, or the
//! `PRESCIENT_TRACE` environment variable (`1`/`on` for the default
//! capacity, an integer > 1 for an explicit per-node event capacity).
//! Export: [`merge`] the rings into one sorted buffer, then [`to_jsonl`]
//! (compact line-per-event dump, the `prescient-telemetry` analyzer's
//! input) and/or [`to_chrome_json`] (Chrome trace-event JSON, loadable in
//! Perfetto or `chrome://tracing`, one process per node with semantic
//! tracks).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::json::{uint_text, Json, Layout, Writer};
use crate::{NodeId, MAX_NODES};

/// Tracing policy of one machine.
///
/// `Copy` so it can ride along in machine configurations; the output path
/// is not part of it (exporters take the path explicitly, and the runtime
/// reads `PRESCIENT_TRACE_OUT` at export time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Master switch. Off = every tracer is a no-op handle.
    pub enabled: bool,
    /// Ring capacity in events per node (rounded up to a power of two).
    pub capacity: usize,
}

impl TraceConfig {
    /// Default per-node ring capacity (events). 2^17 events × 40 bytes ≈
    /// 5 MB per node — adaptive at paper scale fits with room to spare;
    /// barnes at paper scale wraps and reports the drop count honestly.
    pub const DEFAULT_CAPACITY: usize = 1 << 17;

    /// Tracing disabled.
    pub fn off() -> TraceConfig {
        TraceConfig { enabled: false, capacity: 0 }
    }

    /// Tracing enabled at the default capacity.
    pub fn on() -> TraceConfig {
        TraceConfig { enabled: true, capacity: Self::DEFAULT_CAPACITY }
    }

    /// Tracing enabled with an explicit per-node event capacity.
    pub fn with_capacity(capacity: usize) -> TraceConfig {
        TraceConfig { enabled: true, capacity: capacity.max(1024).next_power_of_two() }
    }

    /// Parse a `PRESCIENT_TRACE` value: `0`/`off` disable, `1`/`on`
    /// enable at the default capacity, any larger integer enables with
    /// that capacity. (`runtime::env` owns the variable and the wording
    /// of its error.)
    pub fn parse(s: &str) -> Result<TraceConfig, String> {
        match s.trim() {
            "0" | "off" => Ok(TraceConfig::off()),
            "1" | "on" => Ok(TraceConfig::on()),
            t => t
                .parse::<usize>()
                .map(TraceConfig::with_capacity)
                .map_err(|_| "not a ring capacity".to_string()),
        }
    }
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig::off()
    }
}

/// Semantic track (Chrome "thread") an event renders on. Nodes map to
/// Chrome processes; inside each node, events group into a phase track,
/// the program's fault/barrier/pre-send spans, the protocol handlers'
/// instants, and the wire/fault-injection layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Track {
    Phase,
    Compute,
    Protocol,
    Wire,
}

/// Track names, indexed by `Track as usize` (the Chrome `tid`).
const TRACKS: [&str; 4] = ["phase", "compute", "protocol", "wire"];

/// Declares the event vocabulary once: the enum with its stable codes and
/// docs, [`EventKind::ALL`], the dump names, the Chrome track each kind
/// renders on and which kind a span-closing kind closes. A new kind is
/// one entry in the invocation below.
macro_rules! event_kinds {
    ($($(#[$doc:meta])* $name:ident = $code:literal on $track:ident $(closes $open:ident)?,)*) => {
        /// What happened. Codes are stable (they appear in trace dumps).
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u8)]
        pub enum EventKind {
            $($(#[$doc])* $name = $code,)*
        }

        impl EventKind {
            /// Every kind, in code order (export and analysis iterate this).
            pub const ALL: [EventKind; [$($code),*].len()] = [$(EventKind::$name),*];

            /// Stable name, as written into trace dumps.
            pub fn name(self) -> &'static str {
                match self {
                    $(EventKind::$name => stringify!($name),)*
                }
            }

            fn track(self) -> Track {
                match self {
                    $(EventKind::$name => Track::$track,)*
                }
            }

            /// The span-opening kind this kind closes, if it closes one.
            fn closes(self) -> Option<EventKind> {
                match self {
                    $(EventKind::$name => None::<EventKind>$(.or(Some(EventKind::$open)))?,)*
                }
            }
        }
    };
}

event_kinds! {
    /// Compute thread faulted on a shared access. `a` = block, `b` = 1 for
    /// a write fault.
    FaultBegin = 1 on Compute,
    /// The fault's grant arrived and was billed. `a` = block, `b` =
    /// [`pack_fault_end`] (excl, extra hops, retries). Latency = this
    /// event's vtime minus the matching [`EventKind::FaultBegin`]'s.
    FaultEnd = 2 on Compute closes FaultBegin,
    /// Compute thread entered a barrier (egress already flushed).
    BarrierEnter = 3 on Compute,
    /// Barrier crossed. `a` = this node's stall in ns.
    BarrierExit = 4 on Compute closes BarrierEnter,
    /// `phase_begin(id)` directive entered. `a` = phase id.
    PhaseBegin = 5 on Phase,
    /// `phase_end()` directive completed. `a` = phase id.
    PhaseEnd = 6 on Phase closes PhaseBegin,
    /// A protocol message was sent. `a` = [`pack_msg`] (message kind code,
    /// destination), `b` = message-specific argument (block / push id).
    MsgSend = 7 on Protocol,
    /// A protocol message was handled. `a` = [`pack_msg`] (kind, source),
    /// `b` = message-specific argument.
    MsgRecv = 8 on Protocol,
    /// The pre-send driver started a window. `a` = phase id.
    PresendStart = 9 on Compute,
    /// The pre-send window completed (all pushes acknowledged). `a` =
    /// phase id, `b` = block copies pushed.
    PresendEnd = 10 on Compute closes PresendStart,
    /// One pre-send bulk message left the driver. `a` = push id, `b` =
    /// [`pack_peer_count`] (target node, blocks aboard).
    PresendPush = 11 on Protocol,
    /// A pre-send payload run was installed at this node. `a` = first
    /// block of the contiguous run, `b` = [`pack_peer_count`] (pushing
    /// home, blocks in the run).
    PresendInstall = 12 on Protocol,
    /// First access to a block installed by a pre-send (its unread bit was
    /// still set). `a` = block. Lead time = this vtime minus the install's.
    PresendFirstTouch = 13 on Compute,
    /// The ack wait timed out and unacked pushes were retransmitted. `a` =
    /// pushes still outstanding, `b` = retransmission round.
    PresendRetry = 14 on Protocol,
    /// A home recorded a request into the armed phase's schedule. `a` =
    /// block, `b` = requester << 1 | excl.
    SchedRecord = 15 on Protocol,
    /// A phase's schedule was discarded. `a` = phase id.
    SchedFlush = 16 on Protocol,
    /// Pass 2 grouped the push list into bulk messages. `a` = phase id,
    /// `b` = [`pack_counts`] (pushes, groups).
    SchedCoalesce = 17 on Protocol,
    /// A phase's schedule was snapshotted for replay. `a` = phase id,
    /// `b` = run-length-encoded runs in the snapshot.
    SchedReplay = 18 on Protocol,
    /// The degradation policy flushed the phase's schedule and fell back
    /// to plain Stache. `a` = phase id, `b` = instance at which recording
    /// re-arms.
    Degrade = 19 on Protocol,
    /// A degraded phase's backoff expired; recording re-arms. `a` = phase
    /// id, `b` = instance counter.
    Rearm = 20 on Protocol,
    /// A blocked fetch timed out and re-issued its request. `a` = block,
    /// `b` = attempt number.
    Retry = 21 on Compute,
    /// One egress buffer was flushed onto a channel. `a` =
    /// [`pack_peer_count`] (destination, envelopes aboard), `b` = the wire
    /// batch's fabric-unique id.
    WireFlush = 22 on Wire,
    /// One wire batch was drained into this node's inbox ring. `a` =
    /// [`pack_peer_count`] (source, envelopes aboard), `b` = batch id.
    WireRecv = 23 on Wire,
    /// The fault layer acted on an envelope. `a` = destination, `b` =
    /// [`pack_counts`] (fate — 1 delay, 2 duplicate, 3 drop, 4 release,
    /// 5 partition — and the fate's argument, e.g. the delay's event
    /// count).
    FaultInject = 24 on Wire,
    /// An injected node crash fired at a phase boundary. `a` = crashed
    /// node, `b` = the phase-execution version the crash destroyed.
    Crash = 25 on Compute,
    /// A barrier-consistent checkpoint capture started. `a` = checkpoint
    /// version (phase-execution ordinal at the cut).
    CheckpointBegin = 26 on Compute,
    /// The checkpoint capture completed. `a` = checkpoint version, `b` =
    /// block-data bytes captured.
    CheckpointEnd = 27 on Compute closes CheckpointBegin,
    /// Rollback to the last barrier-consistent cut started. `a` = the
    /// checkpoint version being restored, `b` = the crashed node.
    RecoveryBegin = 28 on Compute,
    /// Rollback completed; the phase replays next. `a` = the restored
    /// checkpoint version.
    RecoveryEnd = 29 on Compute closes RecoveryBegin,
    /// The liveness watchdog declared the machine stuck. `a` = 1 crash /
    /// 2 deadlock, `b` = blocked-node bitmap (nodes 0–63).
    WatchdogFire = 30 on Compute,
    /// A commutative-merge exchange window opened by the node's program.
    /// `a` = phase id, `b` = outgoing payload targets.
    MergeBegin = 31 on Compute,
    /// The merge window closed: all delta chunks pushed and acknowledged,
    /// the inbox drained. `a` = phase id, `b` = [`pack_counts`]
    /// (chunks sent, chunks received).
    MergeEnd = 32 on Compute closes MergeBegin,
}

impl EventKind {
    /// Decode a stored kind code.
    pub fn from_code(code: u8) -> Option<EventKind> {
        EventKind::ALL.get(code.wrapping_sub(1) as usize).copied()
    }

    /// Decode a dump name (the inverse of [`EventKind::name`]).
    pub fn from_name(name: &str) -> Option<EventKind> {
        EventKind::ALL.iter().copied().find(|k| k.name() == name)
    }
}

// ---- argument packing -----------------------------------------------------
//
// Events carry two u64 arguments; multi-field payloads pack into them with
// the helpers below so the emitters and the analyzer agree on one layout.

/// Pack a fault's completion: exclusive bit, extra protocol hops, retries.
pub fn pack_fault_end(excl: bool, extra_hops: u32, retries: u32) -> u64 {
    u64::from(excl) | (u64::from(extra_hops) << 1) | (u64::from(retries) << 32)
}

/// Unpack [`pack_fault_end`]: `(excl, extra_hops, retries)`.
pub fn unpack_fault_end(b: u64) -> (bool, u32, u32) {
    (b & 1 != 0, ((b >> 1) & 0x7fff_ffff) as u32, (b >> 32) as u32)
}

/// Pack a message event's kind code and peer node.
pub fn pack_msg(kind_code: u16, peer: NodeId) -> u64 {
    (u64::from(kind_code) << 16) | u64::from(peer)
}

/// Unpack [`pack_msg`]: `(kind_code, peer)`.
pub fn unpack_msg(a: u64) -> (u16, NodeId) {
    ((a >> 16) as u16, (a & 0xffff) as NodeId)
}

/// Pack a peer node with a count (push targets, wire occupancy, installs).
pub fn pack_peer_count(peer: NodeId, count: u64) -> u64 {
    (u64::from(peer) << 48) | (count & 0xffff_ffff_ffff)
}

/// Unpack [`pack_peer_count`]: `(peer, count)`.
pub fn unpack_peer_count(v: u64) -> (NodeId, u64) {
    ((v >> 48) as NodeId, v & 0xffff_ffff_ffff)
}

/// Pack two counts (pushes/groups, fault fate/argument).
pub fn pack_counts(hi: u64, lo: u64) -> u64 {
    (hi << 32) | (lo & 0xffff_ffff)
}

/// Unpack [`pack_counts`]: `(hi, lo)`.
pub fn unpack_counts(v: u64) -> (u64, u64) {
    (v >> 32, v & 0xffff_ffff)
}

// ---- the ring -------------------------------------------------------------

/// One ring slot: a claimed-sequence tag plus the event's four payload
/// words. The tag is written last (Release) so a drain can detect slots
/// whose write never completed or was lapped mid-write.
#[derive(Default)]
struct Slot {
    /// `(seq + 1) << 8 | kind` of the event the slot holds; 0 = never
    /// written.
    tag: AtomicU64,
    t_ns: AtomicU64,
    phase: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// A lock-free, fixed-capacity, overwrite-oldest event ring.
pub struct TraceRing {
    /// Next sequence number to claim (== events ever emitted).
    head: AtomicU64,
    mask: u64,
    slots: Box<[Slot]>,
}

impl TraceRing {
    /// A ring holding `capacity` events (rounded up to a power of two).
    pub fn new(capacity: usize) -> TraceRing {
        let cap = capacity.max(2).next_power_of_two();
        TraceRing {
            head: AtomicU64::new(0),
            mask: cap as u64 - 1,
            slots: (0..cap).map(|_| Slot::default()).collect(),
        }
    }

    /// Events ever emitted into the ring (not capped by capacity).
    pub fn emitted(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    fn push(&self, kind: EventKind, t_ns: u64, phase: u64, a: u64, b: u64) {
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(seq & self.mask) as usize];
        slot.t_ns.store(t_ns, Ordering::Relaxed);
        slot.phase.store(phase, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.tag.store(((seq + 1) << 8) | kind as u64, Ordering::Release);
    }

    /// Events the ring holds: what a drain returns at most.
    fn held(&self) -> usize {
        self.head.load(Ordering::Acquire).min(self.slots.len() as u64) as usize
    }

    /// Append the ring's current contents to `out`, oldest first; returns
    /// the events lost. Non-destructive and intended for **quiescent**
    /// rings (no concurrent emitters); slots whose tag does not match
    /// their expected sequence (a write torn by ring wrap) are skipped and
    /// counted in the returned drop total alongside genuinely overwritten
    /// events.
    fn drain_into(&self, node: NodeId, out: &mut Vec<TraceEvent>) -> u64 {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = head.saturating_sub(cap);
        let mut dropped = start;
        for seq in start..head {
            let slot = &self.slots[(seq & self.mask) as usize];
            let tag = slot.tag.load(Ordering::Acquire);
            let kind = EventKind::from_code((tag & 0xff) as u8);
            if tag >> 8 != seq + 1 {
                dropped += 1; // torn or lapped mid-write
                continue;
            }
            let Some(kind) = kind else {
                dropped += 1;
                continue;
            };
            out.push(TraceEvent {
                node,
                seq,
                t_ns: slot.t_ns.load(Ordering::Relaxed),
                phase: slot.phase.load(Ordering::Relaxed) as u32,
                kind,
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
            });
        }
        dropped
    }
}

/// One decoded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Emitting node.
    pub node: NodeId,
    /// Per-node emission sequence number (gaps = dropped events).
    pub seq: u64,
    /// Virtual-time stamp (ns since run start; handler events carry the
    /// last vtime the node's program published).
    pub t_ns: u64,
    /// Phase id current at emission (0 before the first `phase_begin`).
    pub phase: u32,
    /// What happened.
    pub kind: EventKind,
    /// First argument (see [`EventKind`]).
    pub a: u64,
    /// Second argument (see [`EventKind`]).
    pub b: u64,
}

/// Everything one node's ring held at drain time.
#[derive(Debug, Clone)]
pub struct TraceDump {
    /// The node the ring belongs to.
    pub node: NodeId,
    /// Events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Events lost to ring wrap (plus torn slots, if any).
    pub dropped: u64,
}

// ---- the handle -----------------------------------------------------------

/// Shared tracing state of one node: the ring plus the published
/// virtual-time and phase cells.
pub struct TraceShared {
    node: NodeId,
    ring: TraceRing,
    vtime: AtomicU64,
    phase: AtomicU64,
}

/// A node's tracing handle. Cloneable and cheap; the disabled handle
/// (`Tracer::off()`, the default) holds no allocation and compiles every
/// emission down to one never-taken branch.
#[derive(Clone, Default)]
pub struct Tracer(Option<Arc<TraceShared>>);

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => write!(f, "Tracer(off)"),
            Some(s) => write!(f, "Tracer(node {}, {} emitted)", s.node, s.ring.emitted()),
        }
    }
}

impl Tracer {
    /// The disabled handle.
    pub fn off() -> Tracer {
        Tracer(None)
    }

    /// An enabled handle for `node` with the given ring capacity.
    pub fn new(node: NodeId, capacity: usize) -> Tracer {
        Tracer(Some(Arc::new(TraceShared {
            node,
            ring: TraceRing::new(capacity),
            vtime: AtomicU64::new(0),
            phase: AtomicU64::new(0),
        })))
    }

    /// A handle per [`TraceConfig`]: enabled handles when the config says
    /// so, disabled otherwise.
    pub fn for_node(cfg: TraceConfig, node: NodeId) -> Tracer {
        if cfg.enabled {
            Tracer::new(node, cfg.capacity)
        } else {
            Tracer::off()
        }
    }

    /// Is tracing live on this handle?
    #[inline]
    pub fn on(&self) -> bool {
        self.0.is_some()
    }

    /// Publish the node's virtual clock; subsequent events (the program's
    /// and the handlers') are stamped with it.
    #[inline]
    pub fn set_vtime(&self, t_ns: u64) {
        if let Some(s) = &self.0 {
            s.vtime.store(t_ns, Ordering::Relaxed);
        }
    }

    /// Publish the current phase id.
    #[inline]
    pub fn set_phase(&self, phase: u32) {
        if let Some(s) = &self.0 {
            s.phase.store(u64::from(phase), Ordering::Relaxed);
        }
    }

    /// Emit one event stamped with the published vtime and phase.
    #[inline]
    pub fn emit(&self, kind: EventKind, a: u64, b: u64) {
        if let Some(s) = &self.0 {
            let t = s.vtime.load(Ordering::Relaxed);
            s.ring.push(kind, t, s.phase.load(Ordering::Relaxed), a, b);
        }
    }

    /// Read the ring (see `TraceRing::drain_into` for the quiescence
    /// contract). `None` on a disabled handle.
    pub fn drain(&self) -> Option<TraceDump> {
        self.0.as_ref().map(|s| {
            let mut events = Vec::with_capacity(s.ring.held());
            let dropped = s.ring.drain_into(s.node, &mut events);
            TraceDump { node: s.node, events, dropped }
        })
    }
}

// ---- merge & export -------------------------------------------------------

/// Drain every node's ring into one machine-wide event stream ordered by
/// (vtime, node, per-node sequence). The rings drain into one buffer of
/// the size they hold, sorted in place: the key is unique, so an unstable
/// sort gives the order a stable one would. Returns the stream and the
/// total dropped-event count.
pub fn merge(tracers: &[Tracer]) -> (Vec<TraceEvent>, u64) {
    let live = || tracers.iter().filter_map(|t| t.0.as_deref());
    let mut all = Vec::with_capacity(live().map(|s| s.ring.held()).sum());
    let dropped = live().map(|s| s.ring.drain_into(s.node, &mut all)).sum();
    all.sort_unstable_by_key(|e| (e.t_ns, e.node, e.seq));
    (all, dropped)
}

/// Write an event stream as JSONL into `out`: one compact, flat JSON
/// object per line — the `prescient-telemetry` analyzer's input format.
pub fn write_jsonl<W: fmt::Write>(events: &[TraceEvent], out: W) -> W {
    let mut w = Writer::new(out, 0);
    for e in events {
        w.object(Layout::Compact);
        w.key("node").uint(e.node.into()).key("seq").uint(e.seq).key("t").uint(e.t_ns);
        w.key("phase").uint(e.phase.into()).key("kind").str(e.kind.name());
        w.key("a").uint(e.a).key("b").uint(e.b).end().newline();
    }
    w.finish()
}

/// [`write_jsonl`] into a fresh string.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    write_jsonl(events, String::with_capacity(events.len() * 80))
}

impl TraceEvent {
    /// Read back one [`write_jsonl`] line, already parsed. Every field is
    /// range-checked: a garbled line is an error naming the field, never
    /// another node's event.
    pub fn from_json(v: &Json<'_>) -> Result<TraceEvent, String> {
        let kind = v.string("kind")?;
        Ok(TraceEvent {
            node: node_field(v)?,
            seq: v.int("seq")?,
            t_ns: v.int("t")?,
            phase: v.int("phase")?,
            kind: EventKind::from_name(kind).ok_or_else(|| format!("unknown kind {kind:?}"))?,
            a: v.int("a")?,
            b: v.int("b")?,
        })
    }
}

/// The `node` member of a trace or metrics line, checked against
/// [`MAX_NODES`].
pub(crate) fn node_field(v: &Json<'_>) -> Result<NodeId, String> {
    let node: NodeId = v.int("node")?;
    if usize::from(node) < MAX_NODES {
        Ok(node)
    } else {
        Err(format!("field `node`: {node} is not a node id (a machine has at most {MAX_NODES})"))
    }
}

/// Below this many nanoseconds `ns as f64 / 1000.0` is within a quarter
/// of a thousandth of the exact microseconds (the quotient is below 2⁴²,
/// so its rounding error is at most 2⁻¹²), and printing it to three
/// decimals gives the exact digits.
const MICROS_EXACT_NS: u64 = 1000 << 42;

/// `ns` as microseconds to three decimals: the text `fixed(ns as f64 /
/// 1000.0, 3)` writes, in integer arithmetic wherever the two agree
/// (below [`MICROS_EXACT_NS`]), and through the float above it.
fn micros<W: fmt::Write>(w: &mut Writer<W>, ns: u64) {
    if ns >= MICROS_EXACT_NS {
        w.fixed(ns as f64 / 1000.0, 3);
        return;
    }
    let (mut digits, mut text) = ([0; 20], [0; 24]);
    let whole = uint_text(ns / 1000, &mut digits).as_bytes();
    let frac = ns % 1000;
    let len = whole.len() + 4;
    text[..whole.len()].copy_from_slice(whole);
    text[whole.len()..len].copy_from_slice(&[
        b'.',
        b'0' + (frac / 100) as u8,
        b'0' + (frac / 10 % 10) as u8,
        b'0' + (frac % 10) as u8,
    ]);
    w.raw(std::str::from_utf8(&text[..len]).unwrap_or("0"));
}

/// One Chrome trace event: a duration span (`dur_ns` given) or an instant.
fn chrome_event<W: fmt::Write>(
    w: &mut Writer<W>,
    name: &str,
    at: &TraceEvent,
    dur_ns: Option<u64>,
    b: u64,
) {
    let tid = at.kind.track() as usize;
    w.object(Layout::Compact);
    match dur_ns {
        Some(_) => w.key("ph").str("X"),
        None => w.key("ph").str("i").key("s").str("t"),
    };
    w.key("name").str(name).key("cat").str(TRACKS[tid]);
    w.key("pid").uint(at.node.into()).key("tid").uint(tid as u64);
    micros(w.key("ts"), at.t_ns);
    if let Some(d) = dur_ns {
        micros(w.key("dur"), d);
    }
    w.key("args").object(Layout::Compact);
    w.key("phase").uint(at.phase.into()).key("a").uint(at.a).key("b").uint(b).end().end();
}

/// Write an event stream as Chrome trace-event JSON (the `traceEvents`
/// array format), loadable in Perfetto and `chrome://tracing`. Each node
/// becomes a process; tracks are semantic (`phase` / `compute` /
/// `protocol` / `wire`), not OS threads. Begin/end pairs (faults,
/// barriers, pre-send windows, phases) render as duration spans in
/// virtual time; everything else renders as instants. Timestamps are the
/// events' virtual-time stamps, in microseconds as the format requires.
pub fn write_chrome_json<W: fmt::Write>(events: &[TraceEvent], out: W) -> W {
    let mut w = Writer::new(out, 0);
    w.object(Layout::Compact).key("displayTimeUnit").str("ns");
    w.key("traceEvents").array(Layout::Lines);
    let mut nodes: Vec<NodeId> = events.iter().map(|e| e.node).collect();
    nodes.sort_unstable();
    nodes.dedup();
    let mut meta = |what: &str, node: NodeId, tid: usize, name: &str| {
        w.object(Layout::Compact).key("ph").str("M").key("name").str(what);
        w.key("pid").uint(node.into()).key("tid").uint(tid as u64);
        w.key("args").object(Layout::Compact).key("name").str(name).end().end();
    };
    for &n in &nodes {
        meta("process_name", n, 0, &format!("node {n}"));
        for (tid, name) in TRACKS.iter().enumerate() {
            meta("thread_name", n, tid, name);
        }
    }
    // Span pairing: per (node, opening kind), spans never overlap — a
    // node's program is serial and phases/windows nest properly — so a
    // simple open-event stack per key suffices. The stacks sit in one
    // table, (node, kind code) in row-major order.
    let opens = |k: EventKind| EventKind::ALL.iter().any(|c| c.closes() == Some(k));
    let opening: Vec<bool> = std::iter::once(false).chain(EventKind::ALL.map(opens)).collect();
    let stack = |node: NodeId, kind: EventKind| {
        nodes.binary_search(&node).unwrap_or(0) * opening.len() + kind as usize
    };
    let mut open: Vec<Vec<&TraceEvent>> = vec![Vec::new(); nodes.len() * opening.len()];
    for e in events {
        if opening[e.kind as usize] {
            open[stack(e.node, e.kind)].push(e);
            continue;
        }
        let opener = e.kind.closes().and_then(|o| open[stack(e.node, o)].pop());
        match opener {
            Some(b) => {
                chrome_event(&mut w, b.kind.name(), b, Some(e.t_ns.saturating_sub(b.t_ns)), e.b)
            }
            None => chrome_event(&mut w, e.kind.name(), e, None, e.b),
        }
    }
    // Unclosed spans (a fault in flight at drain time) render as instants
    // so no event is silently lost.
    for b in open.into_iter().flatten() {
        chrome_event(&mut w, &format!("{}(unclosed)", b.kind.name()), b, None, b.b);
    }
    if w.is_empty() {
        w.newline(); // what an export of no events has always looked like
    }
    w.end().end().newline();
    w.finish()
}

/// [`write_chrome_json`] into a fresh string.
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    write_chrome_json(events, String::with_capacity(events.len() * 120 + 1024))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let t = Tracer::off();
        assert!(!t.on());
        t.set_vtime(5);
        t.emit(EventKind::FaultBegin, 1, 2);
        assert!(t.drain().is_none());
    }

    #[test]
    fn emit_and_drain_round_trip() {
        let t = Tracer::new(3, 1024);
        t.set_vtime(100);
        t.set_phase(7);
        t.emit(EventKind::FaultBegin, 42, 1);
        t.set_vtime(250);
        t.emit(EventKind::FaultEnd, 42, pack_fault_end(true, 2, 0));
        let d = t.drain().expect("enabled");
        assert_eq!(d.node, 3);
        assert_eq!(d.dropped, 0);
        assert_eq!(d.events.len(), 2);
        let e = &d.events[1];
        assert_eq!((e.node, e.seq, e.t_ns, e.phase), (3, 1, 250, 7));
        assert_eq!(e.kind, EventKind::FaultEnd);
        assert_eq!(unpack_fault_end(e.b), (true, 2, 0));
        // Drain is non-destructive.
        assert_eq!(t.drain().expect("enabled").events.len(), 2);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let t = Tracer::new(0, 4); // rounds to capacity 4
        for i in 0..10u64 {
            t.emit(EventKind::MsgSend, i, 0);
        }
        let d = t.drain().expect("enabled");
        assert_eq!(d.dropped, 6);
        assert_eq!(d.events.iter().map(|e| e.a).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        assert_eq!(d.events[0].seq, 6);
    }

    #[test]
    fn concurrent_emitters_keep_all_events_unwrapped() {
        let t = Tracer::new(0, 1 << 12);
        let t2 = t.clone();
        let h = std::thread::spawn(move || {
            for i in 0..1000 {
                t2.emit(EventKind::MsgRecv, i, 0);
            }
        });
        for i in 0..1000 {
            t.emit(EventKind::MsgSend, i, 0);
        }
        h.join().unwrap();
        let d = t.drain().expect("enabled");
        assert_eq!(d.dropped, 0);
        assert_eq!(d.events.len(), 2000);
        let sends: Vec<u64> =
            d.events.iter().filter(|e| e.kind == EventKind::MsgSend).map(|e| e.a).collect();
        assert_eq!(sends, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn packing_round_trips() {
        assert_eq!(unpack_fault_end(pack_fault_end(false, 3, 17)), (false, 3, 17));
        assert_eq!(unpack_msg(pack_msg(9, 63)), (9, 63));
        assert_eq!(unpack_peer_count(pack_peer_count(31, 12345)), (31, 12345));
        assert_eq!(unpack_counts(pack_counts(7, 9)), (7, 9));
    }

    #[test]
    fn kind_codes_and_names_round_trip() {
        for k in EventKind::ALL {
            assert_eq!(EventKind::from_code(k as u8), Some(k));
            assert_eq!(EventKind::from_name(k.name()), Some(k));
        }
        assert_eq!(EventKind::from_code(0), None);
        assert_eq!(EventKind::from_code(200), None);
    }

    #[test]
    fn merge_orders_by_vtime_then_node() {
        let a = Tracer::new(0, 64);
        let b = Tracer::new(1, 64);
        a.set_vtime(50);
        a.emit(EventKind::MsgSend, 1, 0);
        b.set_vtime(20);
        b.emit(EventKind::MsgSend, 2, 0);
        b.set_vtime(50);
        b.emit(EventKind::MsgSend, 3, 0);
        let (all, dropped) = merge(&[a, Tracer::off(), b]);
        assert_eq!(dropped, 0);
        assert_eq!(all.iter().map(|e| e.a).collect::<Vec<_>>(), vec![2, 1, 3]);
    }

    /// The merge as it was: a dump per node, concatenated, stable-sorted.
    fn merge_by_dumps(tracers: &[Tracer]) -> (Vec<TraceEvent>, u64) {
        let dumps: Vec<TraceDump> = tracers.iter().filter_map(Tracer::drain).collect();
        let dropped = dumps.iter().map(|d| d.dropped).sum();
        let mut all: Vec<TraceEvent> = dumps.into_iter().flat_map(|d| d.events).collect();
        all.sort_by_key(|e| (e.t_ns, e.node, e.seq));
        (all, dropped)
    }

    #[test]
    fn one_buffer_merge_equals_the_per_node_merge() {
        // Node 2 wraps its ring; node 1's clock goes back to 0 (a second
        // run, or a rollback); every node stamps some events at the same
        // vtimes as the others.
        let tracers: Vec<Tracer> =
            [(0, 64), (1, 64), (2, 16)].map(|(n, cap)| Tracer::new(n, cap)).into();
        for step in 0..40u64 {
            for (n, t) in tracers.iter().enumerate() {
                let vtime = match (n, step) {
                    (1, 20..) => (step - 20) * 10,
                    _ => step / 3 * 10,
                };
                t.set_vtime(vtime);
                t.emit(EventKind::ALL[(step as usize + n) % EventKind::ALL.len()], step, n as u64);
            }
        }
        let (got, dropped) = merge(&tracers);
        let (want, want_dropped) = merge_by_dumps(&tracers);
        assert_eq!(got, want);
        assert_eq!((dropped, want_dropped), (24, 24), "the wrapped ring's losses");
        assert_eq!(got.len(), 40 + 40 + 16);
        assert!(got.windows(2).any(|w| w[0].t_ns == w[1].t_ns && w[0].node != w[1].node));
        assert_eq!(got.capacity(), got.len(), "one buffer of the size the rings hold");
    }

    fn micros_text(ns: u64) -> String {
        let mut w = Writer::new(String::new(), 0);
        micros(&mut w, ns);
        w.finish()
    }

    #[test]
    fn integer_micros_print_what_the_float_printed() {
        let float = |ns: u64| format!("{:.3}", ns as f64 / 1000.0);
        for ns in 0..=1_000_000 {
            assert_eq!(micros_text(ns), float(ns), "{ns} ns");
        }
        for k in 0..=19 {
            let p = 10u64.pow(k);
            for ns in [p - 1, p, p + 1] {
                assert_eq!(micros_text(ns), float(ns), "{ns} ns");
            }
        }
        // Both sides of the switch: the integer form just below it, the
        // float at and above it.
        for ns in (MICROS_EXACT_NS - 2000..MICROS_EXACT_NS + 2000).chain([u64::MAX - 1, u64::MAX]) {
            assert_eq!(micros_text(ns), float(ns), "{ns} ns");
        }
        assert_eq!(micros_text(MICROS_EXACT_NS - 1), "4398046511103.999");
        assert_eq!(micros_text(u64::MAX), "18446744073709552.000");
    }

    #[test]
    fn jsonl_lines_are_flat_objects() {
        let t = Tracer::new(2, 64);
        t.set_vtime(9);
        t.emit(EventKind::SchedRecord, 5, 3);
        let d = t.drain().expect("enabled");
        let line = to_jsonl(&d.events);
        assert_eq!(
            line,
            "{\"node\":2,\"seq\":0,\"t\":9,\"phase\":0,\"kind\":\"SchedRecord\",\"a\":5,\"b\":3}\n"
        );
    }

    #[test]
    fn chrome_export_pairs_spans() {
        let t = Tracer::new(0, 64);
        t.set_vtime(10);
        t.emit(EventKind::FaultBegin, 7, 0);
        t.set_vtime(90);
        t.emit(EventKind::FaultEnd, 7, pack_fault_end(false, 1, 0));
        t.emit(EventKind::MsgSend, 1, 2);
        let d = t.drain().expect("enabled");
        let json = to_chrome_json(&d.events);
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"ph\":\"X\",\"name\":\"FaultBegin\""));
        assert!(json.contains("\"dur\":0.080"));
        assert!(json.contains("\"ph\":\"i\",\"s\":\"t\",\"name\":\"MsgSend\""));
        assert!(json.trim_end().ends_with("]}"));
    }

    #[test]
    fn trace_config_env_forms() {
        assert!(!TraceConfig::off().enabled);
        assert!(TraceConfig::on().enabled);
        assert_eq!(TraceConfig::on().capacity, TraceConfig::DEFAULT_CAPACITY);
        let c = TraceConfig::with_capacity(5000);
        assert!(c.enabled);
        assert_eq!(c.capacity, 8192);
        assert_eq!(TraceConfig::with_capacity(0).capacity, 1024);
    }
}
