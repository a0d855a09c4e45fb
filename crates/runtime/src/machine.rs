//! The emulated machine: node assembly, SPMD execution, reduction scratch.

use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use prescient_core::{AccessTap, Commute, Predictive};
use prescient_stache::{Hooks, Msg, Node, NodeShared};
use prescient_tempest::fabric::{Fabric, FabricCtl};
use prescient_tempest::json::{IoSink, Writer};
use prescient_tempest::sync::{lock, try_lock};
use prescient_tempest::trace::{merge, to_jsonl, write_chrome_json, write_jsonl};
use prescient_tempest::{
    Aborted, GAddr, GlobalLayout, HomeMap, HomeView, MetricsHub, NodeId, PhaseRecord, TraceEvent,
    Tracer, VBarrier,
};

use crate::config::{MachineConfig, PlacementSpec, ProtocolKind};
use crate::ctx::{CtxInit, MetricsInit, NodeCtx};
use crate::recovery::{
    CheckpointStore, ErrorSlot, FailureKind, MachineError, NodeErrorState, RecoveryCtl, Watchdog,
};
use crate::report::{NodeReport, PhaseFold, PhaseGroup, RunReport, RunTimeline};

/// Scratch space for runtime reductions (a C\*\* language feature, handled
/// outside the coherence protocol — §1 notes reductions are not a
/// predictive-protocol target).
pub(crate) struct ReduceScratch {
    pub(crate) state: Mutex<ReduceState>,
}

#[derive(Default)]
pub(crate) struct ReduceState {
    /// Round whose contribution slots are currently valid.
    zeroed_round: u64,
    /// One contribution vector per node; summed in node order at read-out
    /// so the reduction is deterministic regardless of arrival order.
    contrib: Vec<Vec<f64>>,
    /// Round `sum` holds the node-ordered sum of.
    summed_round: u64,
    sum: Vec<f64>,
}

impl ReduceState {
    fn new(nodes: usize) -> ReduceState {
        ReduceState { contrib: vec![Vec::new(); nodes], ..ReduceState::default() }
    }

    /// Node `me`'s contribution to `round` (before the round's barrier).
    /// The first contribution to a round clears the last one's: its
    /// contributor is past that round's barrier and has read its sum, so
    /// the sum was taken before anything here was cleared.
    pub(crate) fn contribute(&mut self, round: u64, me: usize, vals: &[f64]) {
        if self.zeroed_round < round {
            self.zeroed_round = round;
            self.contrib.iter_mut().for_each(Vec::clear);
        }
        self.contrib[me].extend_from_slice(vals);
    }

    /// The sum of `round`'s contributions into `vals` (after the round's
    /// barrier). The first caller adds them up, in node order; the rest
    /// copy its result — the same bits every node used to compute for
    /// itself — and it stays until the next round's barrier, which every
    /// node reaches only after it has read this one.
    pub(crate) fn read_sum(&mut self, round: u64, vals: &mut [f64]) {
        if self.summed_round < round {
            self.summed_round = round;
            self.sum.clear();
            self.sum.resize(vals.len(), 0.0);
            for c in &self.contrib {
                assert_eq!(c.len(), vals.len(), "mismatched allreduce lengths");
                for (v, x) in self.sum.iter_mut().zip(c) {
                    *v += *x;
                }
            }
        }
        assert_eq!(self.sum.len(), vals.len(), "mismatched allreduce lengths");
        vals.copy_from_slice(&self.sum);
    }
}

/// An emulated multi-node machine.
///
/// Between runs the machine owns no thread: each [`Machine::run`] call
/// starts one thread per node (`node-<id>`), which locks its node for the
/// length of the run, executes the given SPMD program and the protocol
/// handlers on it, and serves its peers until every program is done.
pub struct Machine {
    cfg: MachineConfig,
    layout: GlobalLayout,
    /// Each node's state and inbox; its thread holds the lock for a whole
    /// run, the driver takes it briefly between runs.
    nodes: Vec<Mutex<Node>>,
    shareds: Vec<Arc<NodeShared>>,
    /// Every node's predictive state, in node order: one node's closing
    /// barrier disarms them all (`NodeCtx::try_phase_end`).
    preds: Option<Arc<[Arc<Predictive>]>>,
    /// Every node's merge state, in node order (a Stache machine's; empty
    /// on a predictive one).
    commutes: Vec<Arc<Commute>>,
    barrier: Arc<VBarrier>,
    reduce: Arc<ReduceScratch>,
    ctl: Arc<FabricCtl>,
    tracers: Vec<Tracer>,
    /// Crash flag + crash-plan latch; machine-lifetime, so a plan fires at
    /// most once even across multiple [`Machine::run`] calls.
    recovery: Arc<RecoveryCtl>,
    /// Per-node checkpoint slots (empty until a checkpointed phase runs).
    ckpts: Arc<CheckpointStore>,
    /// Metrics runtime: the hub plus its optional publisher/exposition
    /// threads. `None` when metrics are off.
    metrics: Option<MetricsRt>,
}

/// The machine side of the metrics subsystem: the record hub shared with
/// every node, the background JSONL publisher (when `stream:` is
/// configured), and the machine-lifetime run counter.
struct MetricsRt {
    hub: Arc<MetricsHub>,
    publisher: Option<JoinHandle<io::Result<Vec<PhaseGroup>>>>,
    runs: u64,
}

impl Machine {
    /// Build a machine: fabric and per-node state. Starts no thread.
    pub fn new(cfg: MachineConfig) -> Machine {
        let layout = GlobalLayout::new(cfg.nodes, cfg.block_size);
        let mut nodes = Vec::with_capacity(cfg.nodes);
        let mut shareds = Vec::with_capacity(cfg.nodes);
        let mut preds = cfg.protocol.is_predictive().then(|| Vec::with_capacity(cfg.nodes));
        let mut commutes = Vec::new();
        let eps = match cfg.faults.filter(|plan| plan.is_active()) {
            Some(plan) => Fabric::new_faulty_with::<Msg>(cfg.nodes, plan, cfg.batch).0,
            None => Fabric::new_with::<Msg>(cfg.nodes, cfg.batch),
        };
        let ctl = eps[0].ctl().clone();
        // One block→home view for the whole machine, fixed here: the
        // identity view when placement is off (the bit-identical
        // compiled-in-but-disabled path), else the rotate shift plus the
        // remap overlay. An out-of-range home fails here, not mid-run.
        let overlay = match &cfg.placement {
            PlacementSpec::Remap(map) => map.clone(),
            PlacementSpec::Off => HomeMap::new(),
        };
        let homes = Arc::new(HomeView::with_placement(layout, cfg.home_shift, overlay));
        let mut tracers = Vec::with_capacity(cfg.nodes);
        for (i, mut ep) in eps.into_iter().enumerate() {
            // The tracer must land on the endpoint *before* its `Net` is
            // cloned into `NodeShared`, which is how handlers and the
            // program reach it.
            let tracer = Tracer::for_node(cfg.trace, i as NodeId);
            ep.set_tracer(tracer.clone());
            tracers.push(tracer);
            let hooks: Arc<dyn Hooks> = match cfg.protocol {
                ProtocolKind::Predictive(pcfg) => {
                    let pred = Arc::new(Predictive::new(pcfg));
                    preds.as_mut().expect("predictive mode").push(Arc::clone(&pred));
                    pred
                }
                ProtocolKind::Stache => {
                    let cm = Arc::new(Commute::default());
                    commutes.push(Arc::clone(&cm));
                    cm
                }
            };
            let node = Node::new(Arc::clone(&homes), cfg.cost, ep, hooks, cfg.retry);
            shareds.push(Arc::clone(&node.shared));
            nodes.push(Mutex::new(node));
        }
        // Metrics plumbing: the hub exists as soon as the machine does, so
        // the publisher streams records live. Output failures are loud (a
        // mistyped stream path must fail the run, not silently record
        // nothing).
        let metrics = if cfg.metrics.enabled {
            let hub = Arc::new(MetricsHub::new());
            let publisher = cfg.metrics.stream.as_ref().map(|path| {
                let file = File::create(path).unwrap_or_else(|e| {
                    panic!("PRESCIENT_METRICS: cannot open stream file {path:?}: {e}")
                });
                let hub = Arc::clone(&hub);
                std::thread::Builder::new()
                    .name("metrics-pub".into())
                    .spawn(move || publish(&hub, IoSink::new(file)))
                    .expect("spawn metrics publisher thread")
            });
            Some(MetricsRt { hub, publisher, runs: 0 })
        } else {
            None
        };
        let n = cfg.nodes;
        Machine {
            metrics,
            cfg,
            layout,
            nodes,
            shareds,
            preds: preds.map(Arc::from),
            commutes,
            barrier: Arc::new(VBarrier::new(n)),
            reduce: Arc::new(ReduceScratch { state: Mutex::new(ReduceState::new(n)) }),
            ctl,
            tracers,
            recovery: Arc::new(RecoveryCtl::new()),
            ckpts: Arc::new(CheckpointStore::new(n)),
        }
    }

    /// Drain every node's trace ring and merge the streams by virtual
    /// time. Returns the merged events plus the total number of events
    /// lost to ring wrap-around. Empty when tracing is disabled. Only
    /// meaningful between runs, when the machine is quiescent; drains are
    /// non-destructive, so calling this does not disturb the teardown
    /// export.
    pub fn trace_events(&self) -> (Vec<TraceEvent>, u64) {
        merge(&self.tracers)
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The address-space layout.
    pub fn layout(&self) -> GlobalLayout {
        self.layout
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.cfg.nodes
    }

    /// Host barrier episodes released on this machine so far, every run
    /// included.
    pub fn barrier_episodes(&self) -> u64 {
        self.barrier.episodes()
    }

    /// Allocate `bytes` of shared memory homed at `node` (driver-side
    /// allocation, before or between runs).
    pub fn alloc_on(&self, node: NodeId, bytes: u64, align: u64) -> GAddr {
        lock(&self.nodes[node as usize]).state.mem.alloc(bytes, align)
    }

    /// The predictive-protocol state of `node`, if the machine runs the
    /// predictive protocol (used for manual schedules and diagnostics).
    pub fn predictive(&self, node: NodeId) -> Option<&Arc<Predictive>> {
        self.preds.as_ref().map(|p| &p[node as usize])
    }

    /// Install a schedule-oracle recording tap on every node's predictive
    /// protocol (no-op under plain Stache, returning `false`). The tap
    /// observes every home-node request regardless of the protocol's
    /// recording state; remove it with [`Machine::remove_tap`].
    pub fn install_tap(&self, tap: &Arc<AccessTap>) -> bool {
        let Some(preds) = self.preds.as_ref() else { return false };
        for p in preds.iter() {
            p.set_tap(Some(Arc::clone(tap)));
        }
        true
    }

    /// Remove a previously installed recording tap from every node.
    pub fn remove_tap(&self) {
        if let Some(preds) = self.preds.as_ref() {
            for p in preds.iter() {
                p.set_tap(None);
            }
        }
    }

    /// Verify all coherence invariants (single writer / valid sharers /
    /// data agreement — see `prescient_stache::check`). Only meaningful
    /// between runs, when the machine is quiescent. Panics with the list
    /// of violations if any invariant is broken.
    pub fn assert_coherent(&self) {
        let held: Vec<_> = self.nodes.iter().map(lock).collect();
        let violations =
            prescient_stache::check_coherence(&held.iter().map(|g| &**g).collect::<Vec<_>>());
        assert!(violations.is_empty(), "coherence violations: {violations:#?}");
    }

    /// Run an SPMD program: `f` executes concurrently on every node's
    /// thread. Returns each node's result plus the run report with
    /// the paper's time breakdown.
    ///
    /// # Panics
    ///
    /// Panics with the structured [`MachineError`] report if the run dies
    /// (a node thread panicked, or the watchdog declared the machine
    /// stalled). Use [`Machine::try_run`] to handle failures as values.
    pub fn run<R, F>(&mut self, f: F) -> (Vec<R>, RunReport)
    where
        R: Send,
        F: Fn(&mut NodeCtx) -> R + Sync,
    {
        self.try_run(f).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Machine::run`], but a dying machine produces `Err(MachineError)`
    /// instead of a hang or a bare panic: every node thread runs under a
    /// panic guard, and the first failure aborts the fabric, poisons the
    /// barrier and kicks every inbox so all of its siblings unwind and join (a mid-phase
    /// panic on one node can never hang the other 31 in a barrier). With a
    /// watchdog configured, zero-progress hangs (e.g. a full partition)
    /// are converted the same way within the watchdog's wall-clock budget.
    ///
    /// A machine that returned `Err` is dead — the fabric abort flag and
    /// barrier poison stay raised; build a fresh machine to run again.
    pub fn try_run<R, F>(&mut self, f: F) -> Result<(Vec<R>, RunReport), MachineError>
    where
        R: Send,
        F: Fn(&mut NodeCtx) -> R + Sync,
    {
        // Misuse is a structured error, not a panic: a node whose lock is
        // held belongs to a run that is executing on this machine right
        // now, and an aborted fabric means a previous run died (its abort
        // flag and barrier poison stay raised) — starting node threads in
        // either state would hang or panic mid-assembly.
        if self.nodes.iter().any(|n| try_lock(n).is_none()) {
            return Err(self.machine_error(
                FailureKind::AlreadyRunning,
                None,
                "a run is already executing on this machine".into(),
            ));
        }
        if self.ctl.is_aborting() {
            return Err(self.machine_error(
                FailureKind::AlreadyRunning,
                None,
                "this machine died in a previous run; build a fresh machine".into(),
            ));
        }
        let wall_start = Instant::now();
        let stats0: Vec<_> = self.shareds.iter().map(|s| s.stats.snapshot()).collect();
        // Charge the offline remap to this run's report: each node counts
        // the overlay blocks it now homes (never gated — remap changes no
        // gated counter, only msgs/bytes, and those are allowed to drop).
        if let PlacementSpec::Remap(map) = &self.cfg.placement {
            for (_, home) in map.iter() {
                self.shareds[home as usize].stats.remapped_blocks.fetch_add(1, Ordering::Relaxed);
            }
        }
        let wire0 = self.ctl.wire();
        let run_ord = self.metrics.as_mut().map(|m| {
            m.runs += 1;
            m.runs
        });
        let errors = Arc::new(ErrorSlot::new());
        let watchdog = self.cfg.watchdog.map(|wcfg| {
            Watchdog::spawn(
                wcfg,
                self.shareds.clone(),
                Arc::clone(&self.recovery),
                Arc::clone(&self.barrier),
                Arc::clone(&errors),
                self.tracers[0].clone(),
            )
        });

        let mut out: Vec<Option<(R, prescient_tempest::TimeBreakdown)>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..self.cfg.nodes)
                    .map(|i| {
                        let f = &f;
                        let slot = &self.nodes[i];
                        let init = CtxInit {
                            preds: self.preds.clone(),
                            commute: self.commutes.get(i).cloned(),
                            barrier: Arc::clone(&self.barrier),
                            reduce: Arc::clone(&self.reduce),
                            recovery: Arc::clone(&self.recovery),
                            ckpts: Arc::clone(&self.ckpts),
                            crash: self.cfg.crash,
                            checkpoints: self.cfg.checkpoints,
                            // Node 0 additionally records the fabric-global
                            // wire deltas on the whole machine's behalf.
                            metrics: self.metrics.as_ref().map(|m| MetricsInit {
                                hub: Arc::clone(&m.hub),
                                run: run_ord.expect("metrics on"),
                                baseline: stats0[i],
                                ctl: (i == 0).then(|| Arc::clone(&self.ctl)),
                                wire0,
                            }),
                        };
                        let errors = Arc::clone(&errors);
                        let body = move || {
                            let mut node = lock(slot);
                            let guard_barrier = Arc::clone(&init.barrier);
                            let r = catch_unwind(AssertUnwindSafe(|| {
                                let mut ctx = NodeCtx::new(&mut node, init);
                                let r = f(&mut ctx);
                                (r, ctx.finish())
                            }));
                            match r {
                                Ok(v) => Some(v),
                                Err(payload) => {
                                    // `Aborted` payloads are collateral from a
                                    // failure already recorded elsewhere; real
                                    // panics race for the first-failure slot.
                                    if payload.downcast_ref::<Aborted>().is_none() {
                                        let msg = payload
                                            .downcast_ref::<&str>()
                                            .map(|s| (*s).to_string())
                                            .or_else(|| payload.downcast_ref::<String>().cloned())
                                            .unwrap_or_else(|| {
                                                "node thread panicked (opaque payload)".into()
                                            });
                                        errors.record(FailureKind::Panic, Some(i as NodeId), msg);
                                    }
                                    // Unblock every sibling, whatever it
                                    // is waiting in.
                                    node.shared.abort_machine(&guard_barrier);
                                    None
                                }
                            }
                        };
                        std::thread::Builder::new()
                            .name(format!("node-{i}"))
                            .spawn_scoped(scope, body)
                            .expect("spawn node thread")
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("node thread panicked outside the panic guard"))
                    .collect()
            });

        if let Some(w) = watchdog {
            w.stop();
        }

        if let Some((kind, node, message)) = errors.take() {
            return Err(self.machine_error(kind, node, message));
        }
        if out.iter().any(Option::is_none) {
            // Abort collateral without a recorded first failure should be
            // impossible; refuse to fabricate a success if it happens.
            return Err(self.machine_error(
                FailureKind::Panic,
                None,
                "node thread aborted without a recorded failure".into(),
            ));
        }

        if self.cfg.validate {
            // All node threads have joined and every fetch/pre-send
            // completed, so the machine is quiescent (straggler duplicates
            // still parked in the fault layer cannot change protocol state
            // — the handlers reject them by seqno/op/epoch).
            self.assert_coherent();
        }

        let mut results = Vec::with_capacity(out.len());
        let mut per_node = Vec::with_capacity(out.len());
        for (i, o) in out.drain(..).enumerate() {
            let (r, breakdown) = o.expect("checked above");
            results.push(r);
            let stats = self.shareds[i].stats.snapshot();
            per_node.push(NodeReport {
                node: i as NodeId,
                breakdown,
                stats: stats.sub(&stats0[i]),
                unused_presends: lock(&self.nodes[i]).state.mem.unused_presends() as u64,
            });
        }
        Ok((
            results,
            RunReport { per_node, wall: wall_start.elapsed(), wire: self.ctl.wire().sub(&wire0) },
        ))
    }

    /// The metrics timeline accumulated so far: every phase record every
    /// run has cut on this machine, wrapped for aggregation and export.
    /// `None` when metrics are off. Callable mid-run (the hub is live) —
    /// but only records already cut are included; call between runs for a
    /// consistent picture.
    ///
    /// A streamed machine holds no record it has written: this waits until
    /// the publisher has written every record cut so far, then reads the
    /// stream back. A stream that cannot be read, or holds fewer records
    /// than were cut (a write failed), panics naming the file.
    pub fn timeline(&self) -> Option<RunTimeline> {
        let m = self.metrics.as_ref()?;
        let Some(stream) = &self.cfg.metrics.stream else {
            return Some(RunTimeline::new(self.cfg.nodes, m.hub.snapshot()));
        };
        let cut = m.hub.wait_written();
        let records = File::open(stream)
            .map_err(|e| e.to_string())
            .and_then(|f| {
                BufReader::new(f)
                    .lines()
                    .map(|line| PhaseRecord::parse_line(&line.map_err(|e| e.to_string())?))
                    .collect::<Result<Vec<_>, _>>()
            })
            .unwrap_or_else(|e| panic!("metrics stream {stream:?}: {e}"));
        assert_eq!(
            records.len() as u64,
            cut,
            "metrics stream {stream:?} holds {} of the {cut} records cut",
            records.len()
        );
        Some(RunTimeline::new(self.cfg.nodes, records))
    }

    /// Assemble the structured death report: the failure, every node's
    /// protocol state, and the tail of the merged trace (when tracing ran).
    fn machine_error(
        &self,
        kind: FailureKind,
        node: Option<NodeId>,
        message: String,
    ) -> MachineError {
        let nodes = self
            .shareds
            .iter()
            .map(|s| NodeErrorState {
                node: s.me,
                outstanding_fetch: s.outstanding(),
                wave: s.wave(),
                msgs_out: s.stats.msgs_out.load(Ordering::Relaxed),
                retries: s.stats.retries.load(Ordering::Relaxed),
                presend_retries: s.stats.presend_retries.load(Ordering::Relaxed),
                recoveries: s.stats.recoveries.load(Ordering::Relaxed),
            })
            .collect();
        let (events, _) = self.trace_events();
        let tail_from = events.len().saturating_sub(16);
        let trace_tail = to_jsonl(&events[tail_from..]).lines().map(str::to_string).collect();
        MachineError { kind, node, message, nodes, trace_tail }
    }
}

impl Drop for Machine {
    fn drop(&mut self) {
        // From here on a send that finds its endpoint gone is legitimate
        // teardown loss.
        self.ctl.mark_closing();
        // No node thread exists between runs, so the rings are quiescent:
        // export the merged event stream. `PRESCIENT_TRACE_OUT` overrides
        // the output basename (default `trace` → `trace.json` +
        // `trace.jsonl`). Both exports stream into their files: at paper
        // scale they are tens of megabytes, never held as strings.
        if self.tracers.iter().any(Tracer::on) {
            let (events, dropped) = self.trace_events();
            if dropped > 0 {
                eprintln!("prescient: trace rings wrapped, {dropped} events lost");
            }
            let base = crate::env::trace_out(&crate::env::process);
            export("trace", &format!("{base}.json"), |path| {
                write_chrome_json(&events, IoSink::new(File::create(path)?)).finish()
            });
            export("trace", &format!("{base}.jsonl"), |path| {
                write_jsonl(&events, IoSink::new(File::create(path)?)).finish()
            });
        }
        // Metrics teardown: close the hub (the publisher writes its tail
        // and exits), then splice the RunTimeline JSON next to the stream
        // file from the stream's lines and the phase groups the publisher
        // folded. An in-memory machine exports nothing (its user holds
        // `Machine::timeline`).
        if let Some(m) = self.metrics.as_mut() {
            m.hub.close();
            if let (Some(p), Some(stream)) = (m.publisher.take(), &self.cfg.metrics.stream) {
                export("metrics timeline", &format!("{stream}.timeline.json"), |path| {
                    let groups = p
                        .join()
                        .unwrap_or_else(|_| Err(io::Error::other("the publisher panicked")))
                        .map_err(|e| io::Error::new(e.kind(), format!("writing {stream}: {e}")))?;
                    let lines = BufReader::new(File::open(stream)?);
                    let out = IoSink::new(File::create(path)?);
                    RunTimeline::splice(self.cfg.nodes, lines, &groups, out)?.finish()
                });
            }
        }
    }
}

/// Write the teardown export at `path` with `write`, or say why not and
/// remove what was written of it: a trace or timeline cut short must not
/// pass for a whole one, and none at all is left rather than an older one.
fn export(what: &str, path: &str, write: impl FnOnce(&str) -> io::Result<()>) {
    if let Err(e) = write(path) {
        let _ = std::fs::remove_file(path);
        eprintln!("prescient: {what} {path} not written: {e}");
    }
}

/// A streamed machine's metrics publisher: writes every record the hub
/// queues as one stream line and folds it into its phase group for the
/// teardown timeline. It flushes once per batch, not per line: a follower
/// sees whole records, and the run is never blocked on the file (the hub
/// queues). Returns the groups, or the first error writing the stream.
fn publish<S: io::Write>(hub: &MetricsHub, sink: IoSink<S>) -> io::Result<Vec<PhaseGroup>> {
    let mut lines = Writer::new(sink, 0);
    let (mut batch, mut fold) = (Vec::new(), PhaseFold::default());
    loop {
        if hub.wait_more(&mut batch) && batch.is_empty() {
            return lines.finish().finish().map(|()| fold.finish());
        }
        for r in batch.drain(..) {
            r.write_json(&mut lines);
            lines.newline();
            fold.add(&r);
        }
        lines.sink().flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What every node computed for itself before the sum was shared.
    fn per_node_sum(contrib: &[Vec<f64>]) -> Vec<f64> {
        let mut vals = vec![0.0; contrib[0].len()];
        for c in contrib {
            for (v, x) in vals.iter_mut().zip(c) {
                *v += *x;
            }
        }
        vals
    }

    #[test]
    fn shared_sum_equals_the_per_node_summation_bit_for_bit() {
        let mut rng = prescient_tempest::faults::SplitMix64::new(19);
        for nodes in 1..=9usize {
            let mut st = ReduceState::new(nodes);
            for round in 1..=6u64 {
                let len = 1 + (round as usize * 5) % 7;
                // Magnitudes from 1e-3 to 1e17 with both signs, and every
                // third slot a cancellation (small, big, -big) in which
                // the order of addition decides the result.
                let contrib: Vec<Vec<f64>> = (0..nodes)
                    .map(|node| {
                        (0..len)
                            .map(|i| match (i % 3, node % 3) {
                                (0, 1) => 1e16,
                                (0, 2) => -1e16,
                                _ => {
                                    let r = rng.next_u64();
                                    let mag = 10f64.powi((r % 21) as i32 - 3);
                                    (r >> 11) as f64 / (1u64 << 53) as f64
                                        * mag
                                        * if r & 1024 == 0 { 1.0 } else { -1.0 }
                                }
                            })
                            .collect()
                    })
                    .collect();
                // Arrival order is the host's: contribute back to front.
                for node in (0..nodes).rev() {
                    st.contribute(round, node, &contrib[node]);
                }
                let want: Vec<u64> = per_node_sum(&contrib).iter().map(|v| v.to_bits()).collect();
                for _reader in 0..nodes {
                    let mut got = vec![f64::NAN; len];
                    st.read_sum(round, &mut got);
                    let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                    assert_eq!(got, want, "{nodes} nodes, round {round}");
                }
            }
        }
        // The fixture does exercise order: some slot of three nodes sums
        // differently back to front.
        let c = [vec![1.0], vec![1e16], vec![-1e16]];
        let rev: Vec<Vec<f64>> = c.iter().rev().cloned().collect();
        assert_ne!(per_node_sum(&c)[0].to_bits(), per_node_sum(&rev)[0].to_bits());
    }

    fn cfg(nodes: usize) -> MachineConfig {
        MachineConfig::stache(nodes, 64)
    }

    fn record(node: NodeId, seq: u64, phase: u32) -> PhaseRecord {
        PhaseRecord {
            node,
            seq,
            run: 1,
            phase,
            iter: 0,
            version: seq,
            vtime: prescient_tempest::TimeBreakdown { compute_ns: seq, ..Default::default() },
            stats: Default::default(),
            fetch: Default::default(),
            wire: None,
        }
    }

    #[test]
    fn publisher_writes_the_lines_and_folds_the_groups() {
        let hub = MetricsHub::new();
        let records = [record(0, 0, 0), record(1, 0, 0), record(0, 1, 3), record(1, 1, 3)];
        records.iter().for_each(|r| hub.push(r.clone()));
        hub.close();
        let mut out = Vec::new();
        let groups = publish(&hub, IoSink::new(&mut out)).expect("a Vec takes every write");
        let lines: Vec<String> = records.iter().map(PhaseRecord::to_json_line).collect();
        assert_eq!(String::from_utf8(out).unwrap(), lines.join("\n") + "\n");
        let want = RunTimeline::new(2, records.to_vec()).phases();
        assert_eq!(groups, want);
        assert_eq!(hub.wait_written(), 4, "nothing left in flight");
    }

    #[test]
    fn publisher_returns_the_streams_first_write_error() {
        struct Full;
        impl io::Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Err(io::Error::other("disk full"))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let hub = MetricsHub::new();
        hub.push(record(0, 0, 1));
        hub.close();
        let err = publish(&hub, IoSink::new(Full)).expect_err("the write error comes back");
        assert_eq!(err.to_string(), "disk full");
        assert_eq!(hub.wait_written(), 1, "a failed publisher still releases its readers");
    }

    /// A file that takes `room` bytes, then fails as one over its size
    /// limit does.
    struct Room<W: io::Write> {
        inner: W,
        room: usize,
    }

    impl<W: io::Write> io::Write for Room<W> {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let n = buf.len().min(self.room);
            if n == 0 && !buf.is_empty() {
                return Err(io::Error::other("File too large"));
            }
            self.room -= n;
            self.inner.write(&buf[..n])
        }
        fn flush(&mut self) -> io::Result<()> {
            self.inner.flush()
        }
    }

    #[test]
    fn a_trace_export_cut_short_fails_and_leaves_no_file() {
        use prescient_tempest::json::Sink;
        use prescient_tempest::trace::{to_chrome_json, EventKind};
        const CHUNK: usize = <IoSink<File> as Sink>::CHUNK;
        let events: Vec<TraceEvent> = (0..3000u64)
            .map(|i| TraceEvent {
                node: (i % 4) as NodeId,
                seq: i / 4,
                t_ns: i * 1_733,
                phase: 1,
                kind: [EventKind::FaultBegin, EventKind::MsgSend, EventKind::FaultEnd]
                    [i as usize % 3],
                a: i,
                b: 0,
            })
            .collect();
        type Cut<'e> = &'e dyn Fn(IoSink<Room<&mut Vec<u8>>>) -> IoSink<Room<&mut Vec<u8>>>;
        let exports: [(Cut, String); 2] = [
            (&|s| write_chrome_json(&events, s), to_chrome_json(&events)),
            (&|s| write_jsonl(&events, s), to_jsonl(&events)),
        ];
        for (export, whole) in exports {
            assert!(whole.len() > 2 * CHUNK, "the export spans chunks");
            for room in [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, whole.len() - 1, whole.len()] {
                let mut taken = Vec::new();
                let written = export(IoSink::new(Room { inner: &mut taken, room })).finish();
                assert_eq!(taken, whole.as_bytes()[..room], "what fit, and nothing after it");
                match written {
                    Ok(()) => assert_eq!(room, whole.len()),
                    Err(e) => assert_eq!(e.to_string(), "File too large", "{room} bytes of room"),
                }
            }
        }
        let path = std::env::temp_dir().join(format!("prescient-cut-{}.json", std::process::id()));
        let path = path.to_str().expect("a UTF-8 temp dir");
        let events = &events;
        let cut_at = |room: usize| {
            move |path: &str| {
                let file = Room { inner: File::create(path)?, room };
                write_chrome_json(events, IoSink::new(file)).finish()
            }
        };
        export("trace", path, cut_at(usize::MAX));
        assert!(std::fs::metadata(path).is_ok_and(|m| m.len() > 0), "a whole export stays");
        export("trace", path, cut_at(CHUNK + 7));
        assert!(std::fs::metadata(path).is_err(), "a cut one is removed, older one and all");
    }

    #[test]
    fn second_run_on_dead_machine_errors_instead_of_panicking() {
        let mut m = Machine::new(cfg(2));
        let err = m
            .try_run(|ctx| {
                if ctx.me() == 1 {
                    panic!("deliberate test panic");
                }
                ctx.barrier();
            })
            .expect_err("a panicking node must fail the run");
        assert_eq!(err.kind, FailureKind::Panic);
        assert_eq!(err.node, Some(1));
        // The machine is dead (abort flag + barrier poison stay raised); a
        // second run must come back as a structured misuse error, not a
        // panic or a hang.
        let err = m.try_run(|_| ()).expect_err("a dead machine must refuse to run");
        assert_eq!(err.kind, FailureKind::AlreadyRunning);
        assert!(err.message.contains("died in a previous run"), "got: {}", err.message);
    }

    #[test]
    fn held_node_lock_reports_already_running() {
        let mut m = Machine::new(cfg(2));
        // What `try_run` observes when a concurrent run is mid-flight: a
        // node thread holds its node's lock (leaked here, so it stays
        // held). The run must come back at once, not wait for the lock.
        std::mem::forget(lock(&m.nodes[1]));
        let err = m.try_run(|_| ()).expect_err("must refuse to double-run");
        assert_eq!(err.kind, FailureKind::AlreadyRunning);
        assert!(err.message.contains("already executing"), "got: {}", err.message);
    }
}
