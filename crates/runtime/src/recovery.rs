//! Crash model, barrier-consistent checkpoints, and the liveness watchdog.
//!
//! The recovery story (DESIGN.md §12) leans on the paper's own structure:
//! iterative applications separate parallel phases with global barriers, and
//! barrier entry is already a protocol quiescence point (egress flushed, no
//! multi-hop round in flight, every pre-send push acknowledged). The
//! runtime therefore gets coordinated checkpointing *for free*: each node
//! snapshots its own shard of machine state at `phase_begin`, and the set
//! of per-node snapshots taken at the same barrier is a consistent cut —
//! no message is in flight across it, so no channel state needs saving.
//!
//! Three pieces live here:
//!
//! * [`CheckpointStore`] / [`Checkpoint`] — the per-node snapshot slots
//!   (block store, directory shard, protocol watermarks, predictive
//!   schedules, statistics, virtual clock);
//! * [`RecoveryCtl`] — the crash flag every node observes at its next
//!   `phase_end` barrier, plus the once-only latch for the injected
//!   [`CrashPlan`](prescient_tempest::CrashPlan);
//! * [`MachineError`] and the [`WatchdogConfig`]-driven liveness monitor —
//!   the machinery that converts would-be infinite hangs (full partitions,
//!   mid-phase panics, protocol deadlocks) into a structured error naming
//!   the blocked nodes, their protocol state, and the tail of the trace.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

use prescient_core::{CommuteCheckpoint, PredCheckpoint};
use prescient_stache::NodeCheckpoint;
use prescient_stache::NodeShared;
use prescient_tempest::stats::StatsSnapshot;
use prescient_tempest::sync::{lock, wait_timeout_while};
use prescient_tempest::trace::EventKind;
use prescient_tempest::{NodeId, TimeBreakdown, Tracer, VBarrier, MAX_NODES};

// ---- checkpoints ----------------------------------------------------------

/// One node's complete rollback state, captured at a `phase_begin` barrier.
///
/// The `version` is the phase-execution ordinal the checkpoint guards (the
/// phase about to run when it was taken); restoring rolls the node back to
/// the instant *before* that phase's body touched anything.
#[derive(Default)]
pub struct Checkpoint {
    /// Phase-execution ordinal this checkpoint guards.
    pub version: u64,
    /// Protocol-level state: block store, directory shard, seq counter,
    /// recall-reply cache.
    pub node: NodeCheckpoint,
    /// Predictive-protocol state (schedules, health, the pre-send window);
    /// empty on a Stache machine.
    pub pred: PredCheckpoint,
    /// Merge state (the merge window, undrained delta chunks); empty on a
    /// predictive machine.
    pub commute: CommuteCheckpoint,
    /// Every statistics counter at the cut — restored on rollback so the
    /// replayed phase re-counts its events and the run's totals stay
    /// bit-identical to a fault-free execution.
    pub stats: StatsSnapshot,
    /// The node's virtual clock at the cut.
    pub vtime: TimeBreakdown,
    /// The node's reduction-round counter at the cut.
    pub reduce_round: u64,
}

impl Checkpoint {
    /// Block-data bytes aboard (the checkpoint's dominant cost).
    pub fn bytes(&self) -> u64 {
        self.node.bytes()
    }
}

/// One checkpoint slot per node. Each node's thread takes only its own
/// slot, so its lock is never contended; a new checkpoint is captured over
/// the previous one in place (recovery always rolls back to the *last
/// completed* barrier cut), and recovery restores from the slot where it
/// lies.
pub struct CheckpointStore {
    slots: Vec<Mutex<Option<Checkpoint>>>,
}

impl CheckpointStore {
    /// Empty slots for `n` nodes.
    pub fn new(n: usize) -> CheckpointStore {
        CheckpointStore { slots: (0..n).map(|_| Mutex::new(None)).collect() }
    }

    /// Node `node`'s slot: `None` until its first checkpoint.
    pub fn slot(&self, node: NodeId) -> MutexGuard<'_, Option<Checkpoint>> {
        lock(&self.slots[node as usize])
    }
}

// ---- the crash flag -------------------------------------------------------

/// Machine-wide recovery control: the crash flag raised by the injected
/// crash and observed by every node at its next `phase_end` barrier, plus
/// the once-only latch that keeps a [`CrashPlan`](prescient_tempest::CrashPlan)
/// from re-firing on the replayed (or any later) instance of its phase.
#[derive(Default)]
pub struct RecoveryCtl {
    /// 0 = no crash pending; `node + 1` otherwise.
    crashed: AtomicU64,
    /// 0 = the crash plan has not fired yet.
    consumed: AtomicU64,
}

impl RecoveryCtl {
    /// Fresh control block (no crash pending, plan unfired).
    pub fn new() -> RecoveryCtl {
        RecoveryCtl::default()
    }

    /// Latch the crash plan: returns `true` exactly once, ever — the
    /// replayed phase passes the same version ordinal and must not crash
    /// again.
    pub fn consume_crash(&self) -> bool {
        self.consumed.swap(1, Ordering::AcqRel) == 0
    }

    /// Raise the crash flag. Called by the crashing node *before* it
    /// enters the phase-end barrier, so every node observes the flag when
    /// it leaves that barrier.
    pub fn declare_crash(&self, node: NodeId) {
        self.crashed.store(u64::from(node) + 1, Ordering::Release);
    }

    /// The node whose crash is pending, if any.
    pub fn crashed(&self) -> Option<NodeId> {
        match self.crashed.load(Ordering::Acquire) {
            0 => None,
            n => Some((n - 1) as NodeId),
        }
    }

    /// Lower the crash flag (the release action of the recovery
    /// protocol's last barrier, once every node has restored).
    pub fn clear(&self) {
        self.crashed.store(0, Ordering::Release);
    }
}

// ---- structured machine errors --------------------------------------------

/// Why a machine died.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// A node thread panicked mid-run (application or protocol bug,
    /// or an injected crash without checkpointing).
    Panic,
    /// The watchdog found no node making progress and no crash pending:
    /// the machine is deadlocked (e.g. a full fabric partition).
    Deadlock,
    /// The watchdog found no progress while a crash was pending: the
    /// recovery protocol itself stalled.
    Crash,
    /// `Machine::run` misuse: a run is already executing on this machine,
    /// or a previous run died (the fabric abort flag and barrier poison
    /// stay raised — build a fresh machine). Reported as a structured
    /// error instead of a panic mid-assembly, so drivers that reuse a
    /// machine across runs can handle the condition.
    AlreadyRunning,
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FailureKind::Panic => "panic",
            FailureKind::Deadlock => "deadlock",
            FailureKind::Crash => "crash",
            FailureKind::AlreadyRunning => "misuse (already running or dead)",
        })
    }
}

/// One node's protocol state at the time of death, embedded in
/// [`MachineError`] so a hang report names exactly where each node stood.
#[derive(Debug, Clone, Copy)]
pub struct NodeErrorState {
    /// The node.
    pub node: NodeId,
    /// Seq of the fetch it was waiting on (0 = none).
    pub outstanding_fetch: u64,
    /// `(ungranted tear-downs, lowest pending seq)` of the pre-send wave
    /// it was waiting on (`(0, 0)` = none); such requests are home-local
    /// and never show as `outstanding_fetch`.
    pub wave: (u64, u64),
    /// Messages sent so far.
    pub msgs_out: u64,
    /// Fetch re-issues so far (ticks while a partition eats grants).
    pub retries: u64,
    /// Pre-send retransmission rounds so far.
    pub presend_retries: u64,
    /// Recoveries completed so far.
    pub recoveries: u64,
}

/// A machine death, structured: what happened, who, every node's protocol
/// state, and the tail of the merged event trace (empty when tracing is
/// off). Returned by `Machine::try_run` instead of hanging or tearing the
/// process down with a bare panic.
#[derive(Debug, Clone)]
pub struct MachineError {
    /// What killed the machine.
    pub kind: FailureKind,
    /// The node at fault (the panicking node, the crashed node), when one
    /// is identifiable.
    pub node: Option<NodeId>,
    /// Human-readable account: the panic message, or the watchdog's
    /// report naming the blocked nodes.
    pub message: String,
    /// Every node's protocol state at death.
    pub nodes: Vec<NodeErrorState>,
    /// The last few merged trace events (JSONL lines), when tracing ran.
    pub trace_tail: Vec<String>,
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "machine {}", self.kind)?;
        if let Some(n) = self.node {
            write!(f, " (node {n})")?;
        }
        write!(f, ": {}", self.message)?;
        for s in &self.nodes {
            write!(
                f,
                "\n  node {}: outstanding_fetch={} pending_teardowns={} (lowest seq {}) msgs_out={} \
                 retries={} presend_retries={} recoveries={}",
                s.node,
                s.outstanding_fetch,
                s.wave.0,
                s.wave.1,
                s.msgs_out,
                s.retries,
                s.presend_retries,
                s.recoveries
            )?;
        }
        if !self.trace_tail.is_empty() {
            write!(f, "\n  trace tail ({} events):", self.trace_tail.len())?;
            for line in &self.trace_tail {
                write!(f, "\n    {line}")?;
            }
        }
        Ok(())
    }
}

impl std::error::Error for MachineError {}

/// The first failure observed during a run (panic isolation and the
/// watchdog race to fill it; first writer wins, later failures are
/// collateral).
pub(crate) struct ErrorSlot {
    slot: Mutex<Option<(FailureKind, Option<NodeId>, String)>>,
}

impl ErrorSlot {
    pub(crate) fn new() -> ErrorSlot {
        ErrorSlot { slot: Mutex::new(None) }
    }

    /// Record a failure unless one is already recorded.
    pub(crate) fn record(&self, kind: FailureKind, node: Option<NodeId>, message: String) {
        let mut g = lock(&self.slot);
        if g.is_none() {
            *g = Some((kind, node, message));
        }
    }

    pub(crate) fn take(&self) -> Option<(FailureKind, Option<NodeId>, String)> {
        lock(&self.slot).take()
    }
}

// ---- the liveness watchdog ------------------------------------------------

/// Liveness watchdog policy. The watchdog samples every node's
/// useful-progress counters once per `poll`; after `stalled_polls`
/// consecutive samples with zero machine-wide progress it declares the
/// machine dead, so the wall-clock detection budget is
/// `poll * stalled_polls` (plus one poll of slack).
///
/// *Useful progress* deliberately excludes retry counters: a fully
/// partitioned machine retries forever without accomplishing anything, and
/// exactly that busy-wait must trip the watchdog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Sampling interval.
    pub poll: Duration,
    /// Consecutive zero-progress samples before firing.
    pub stalled_polls: u32,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig { poll: Duration::from_millis(100), stalled_polls: 20 }
    }
}

impl WatchdogConfig {
    /// The wall-clock budget after which a stalled machine is declared
    /// dead.
    pub fn budget(&self) -> Duration {
        self.poll * self.stalled_polls
    }
}

/// The counters that constitute *useful* progress for one node. Retries
/// and pre-send retransmissions are excluded on purpose (see
/// [`WatchdogConfig`]); checkpoint/recovery counters are included so a
/// machine busy recovering is never declared dead.
fn progress(s: &StatsSnapshot) -> u64 {
    s.reads
        + s.writes
        + s.data_bytes_in
        + s.presend_blocks_in
        + s.sched_records
        + s.invals_in
        + s.recalls_in
        + s.checkpoints
        + s.recoveries
}

pub(crate) struct Watchdog {
    /// Raised (and signalled) by [`Watchdog::stop`].
    stop: Arc<(Mutex<bool>, Condvar)>,
    join: JoinHandle<()>,
}

/// Sleep for `poll` on `stop`'s condition variable; `true` if the flag was
/// raised meanwhile.
fn stopped_within(stop: &(Mutex<bool>, Condvar), poll: Duration) -> bool {
    *wait_timeout_while(&stop.1, lock(&stop.0), poll, |raised| !*raised)
}

impl Watchdog {
    /// Start the monitor thread. On firing it records the failure into
    /// `errors`, emits a `WatchdogFire` trace event, and aborts the
    /// machine (fabric abort flag, barrier poison, a kick to every inbox)
    /// so every waiting node unwinds instead of hanging.
    pub(crate) fn spawn(
        cfg: WatchdogConfig,
        shareds: Vec<Arc<NodeShared>>,
        recovery: Arc<RecoveryCtl>,
        barrier: Arc<VBarrier>,
        errors: Arc<ErrorSlot>,
        tracer: Tracer,
    ) -> Watchdog {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let stop_rx = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("watchdog".into())
            .spawn(move || {
                let mut last: Vec<u64> =
                    shareds.iter().map(|s| progress(&s.stats.snapshot())).collect();
                let mut stalled = 0u32;
                while !stopped_within(&stop_rx, cfg.poll) {
                    let cur: Vec<u64> =
                        shareds.iter().map(|s| progress(&s.stats.snapshot())).collect();
                    if cur == last {
                        stalled += 1;
                    } else {
                        stalled = 0;
                        last = cur;
                    }
                    if stalled < cfg.stalled_polls {
                        continue;
                    }
                    // No node made useful progress for the whole budget:
                    // the machine is dead. Classify, report, abort.
                    let crashed = recovery.crashed();
                    let kind =
                        if crashed.is_some() { FailureKind::Crash } else { FailureKind::Deadlock };
                    let blocked: Vec<NodeId> = (0..shareds.len()).map(|i| i as NodeId).collect();
                    let mut bitmap = 0u64;
                    for &b in &blocked {
                        if (b as usize) < MAX_NODES {
                            bitmap |= 1 << b;
                        }
                    }
                    let detail: Vec<String> = shareds
                        .iter()
                        .map(|s| {
                            let (torn, low) = s.wave();
                            format!(
                                "node {} (outstanding fetch seq {}, {torn} pending tear-downs \
                                 from seq {low}, {} retries)",
                                s.me,
                                s.outstanding(),
                                s.stats.retries.load(Ordering::Relaxed)
                            )
                        })
                        .collect();
                    let message = format!(
                        "no useful progress for {:?} ({} polls x {:?}); {}; blocked: {}",
                        cfg.budget(),
                        cfg.stalled_polls,
                        cfg.poll,
                        match crashed {
                            Some(n) => format!("crash of node {n} pending, recovery stalled"),
                            None => "no crash pending: deadlock (all nodes blocked, none at a \
                                     completed barrier)"
                                .into(),
                        },
                        detail.join("; "),
                    );
                    tracer.emit(
                        EventKind::WatchdogFire,
                        if kind == FailureKind::Crash { 1 } else { 2 },
                        bitmap,
                    );
                    errors.record(kind, crashed, message);
                    shareds[0].abort_machine(&barrier);
                    return;
                }
            })
            .expect("spawn watchdog thread");
        Watchdog { stop, join }
    }

    /// Stop the monitor (normal end of run) and wait for it to exit.
    pub(crate) fn stop(self) {
        *lock(&self.stop.0) = true;
        self.stop.1.notify_one();
        let _ = self.join.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_ctl_flag_round_trip() {
        let r = RecoveryCtl::new();
        assert_eq!(r.crashed(), None);
        assert!(r.consume_crash(), "first fire consumes the plan");
        assert!(!r.consume_crash(), "second fire is latched out");
        r.declare_crash(3);
        assert_eq!(r.crashed(), Some(3));
        r.clear();
        assert_eq!(r.crashed(), None);
    }

    #[test]
    fn error_slot_first_writer_wins() {
        let e = ErrorSlot::new();
        e.record(FailureKind::Panic, Some(1), "first".into());
        e.record(FailureKind::Deadlock, Some(2), "second".into());
        let (kind, node, msg) = e.take().expect("recorded");
        assert_eq!(kind, FailureKind::Panic);
        assert_eq!(node, Some(1));
        assert_eq!(msg, "first");
        assert!(e.take().is_none(), "take drains the slot");
    }

    #[test]
    fn machine_error_display_names_everything() {
        let err = MachineError {
            kind: FailureKind::Deadlock,
            node: None,
            message: "no progress".into(),
            nodes: vec![NodeErrorState {
                node: 2,
                outstanding_fetch: 17,
                wave: (3, 40),
                msgs_out: 5,
                retries: 9,
                presend_retries: 0,
                recoveries: 0,
            }],
            trace_tail: vec!["{\"kind\":\"Retry\"}".into()],
        };
        let s = err.to_string();
        assert!(s.contains("machine deadlock"));
        assert!(s.contains("node 2"));
        assert!(s.contains("retries=9"));
        assert!(s.contains("pending_teardowns=3 (lowest seq 40)"));
        assert!(s.contains("Retry"));
    }

    #[test]
    fn watchdog_budget() {
        let w = WatchdogConfig { poll: Duration::from_millis(10), stalled_polls: 5 };
        assert_eq!(w.budget(), Duration::from_millis(50));
    }
}
