//! The emulated machine: node assembly, SPMD execution, reduction scratch.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use crossbeam::channel::{unbounded, Receiver};
use parking_lot::Mutex;
use prescient_core::{AccessTap, Commute, Predictive};
use prescient_stache::{
    spawn_protocol, spawn_protocol_shard, Hooks, Msg, NoHooks, NodeShared, Wake,
};
use prescient_tempest::fabric::{Endpoint, Fabric, FabricCtl, ShardEndpoint};
use prescient_tempest::socket::{self, SocketGuard};
use prescient_tempest::trace::{merge, to_chrome_json, to_jsonl};
use prescient_tempest::{
    Aborted, FaultStats, GAddr, GlobalLayout, HomeMap, HomeView, MetricsHub, MetricsServer, NodeId,
    TraceEvent, Tracer, VBarrier,
};

use crate::config::{FabricKind, MachineConfig, PlacementSpec, ProtocolKind};
use crate::ctx::{MetricsInit, NodeCtx};
use crate::recovery::{
    CheckpointStore, ErrorSlot, FailureKind, MachineError, NodeErrorState, RecoveryCtl, Watchdog,
};
use crate::report::{NodeReport, RunReport, RunTimeline};

/// Scratch space for runtime reductions (a C\*\* language feature, handled
/// outside the coherence protocol — §1 notes reductions are not a
/// predictive-protocol target).
pub(crate) struct ReduceScratch {
    pub(crate) state: Mutex<ReduceState>,
}

pub(crate) struct ReduceState {
    /// Round whose contribution slots are currently valid.
    pub(crate) zeroed_round: u64,
    /// One contribution vector per node; summed in node order at read-out
    /// so the reduction is deterministic regardless of arrival order.
    pub(crate) contrib: Vec<Vec<f64>>,
}

/// An emulated multi-node machine.
///
/// Protocol-handler threads persist for the machine's lifetime; each
/// [`Machine::run`] call spawns fresh compute threads executing the given
/// SPMD program.
pub struct Machine {
    cfg: MachineConfig,
    layout: GlobalLayout,
    shareds: Vec<Arc<NodeShared>>,
    preds: Option<Vec<Arc<Predictive>>>,
    commutes: Option<Vec<Arc<Commute>>>,
    wake_rxs: Vec<Option<Receiver<Wake>>>,
    barrier: Arc<VBarrier>,
    reduce: Arc<ReduceScratch>,
    fault_stats: Option<Arc<FaultStats>>,
    ctl: Arc<FabricCtl>,
    tracers: Vec<Tracer>,
    joins: Vec<JoinHandle<()>>,
    /// Crash flag + crash-plan latch; machine-lifetime, so a plan fires at
    /// most once even across multiple [`Machine::run`] calls.
    recovery: Arc<RecoveryCtl>,
    /// Per-node checkpoint slots (empty until a checkpointed phase runs).
    ckpts: Arc<CheckpointStore>,
    /// Metrics runtime: the hub plus its optional publisher/exposition
    /// threads. `None` when metrics are off.
    metrics: Option<MetricsRt>,
    /// Socket-backend teardown guard: joins the reader threads and closes
    /// the streams. Held last so it drops after the `Drop` body has joined
    /// the protocol threads (which may still be flushing onto the wire).
    _socket: Option<SocketGuard>,
}

/// The machine side of the metrics subsystem: the record hub shared with
/// every node, the background JSONL publisher (when `stream:` is
/// configured), the Prometheus TCP endpoint (when `tcp:` is configured),
/// and the machine-lifetime run counter.
struct MetricsRt {
    hub: Arc<MetricsHub>,
    publisher: Option<JoinHandle<()>>,
    server: Option<MetricsServer>,
    stream_path: Option<String>,
    runs: u64,
}

/// The per-backend endpoint set a machine's fabric produced.
enum Built {
    /// One endpoint (and one protocol thread) per node.
    PerNode(Vec<Endpoint<Msg>>),
    /// One endpoint (and one protocol thread) per shard.
    Sharded(Vec<ShardEndpoint<Msg>>),
}

/// Shard count for `FabricKind::Sharded { shards: 0 }`: half the host's
/// parallelism — the compute threads need the other half — but at least
/// one and at most one shard per node.
fn auto_shards(nodes: usize) -> usize {
    let cores = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(2);
    (cores / 2).clamp(1, nodes)
}

impl Machine {
    /// Build a machine: fabric, per-node state, and protocol threads.
    pub fn new(cfg: MachineConfig) -> Machine {
        let layout = GlobalLayout::new(cfg.nodes, cfg.block_size);
        let mut shareds = Vec::with_capacity(cfg.nodes);
        let mut wake_rxs = Vec::with_capacity(cfg.nodes);
        let mut joins = Vec::with_capacity(cfg.nodes);
        let mut preds = match cfg.protocol {
            ProtocolKind::Predictive(_) => Some(Vec::with_capacity(cfg.nodes)),
            ProtocolKind::Stache | ProtocolKind::Commutative(_) => None,
        };
        let mut commutes = match cfg.protocol {
            ProtocolKind::Commutative(_) => Some(Vec::with_capacity(cfg.nodes)),
            ProtocolKind::Stache | ProtocolKind::Predictive(_) => None,
        };
        let active_faults = match cfg.faults {
            Some(plan) if plan.is_active() => Some(plan),
            _ => None,
        };
        let mut fault_stats = None;
        let mut socket_guard = None;
        // All three backends present the same `Net`/inbox surface; faults,
        // batching, tracing, and teardown accounting sit above the
        // `Transport` trait, so the choice here cannot change any gated
        // counter (the backend-matrix CI job pins that).
        let mut built = match cfg.fabric {
            FabricKind::Channel => match active_faults {
                Some(plan) => {
                    let (eps, fs) = Fabric::new_faulty_with::<Msg>(cfg.nodes, plan, cfg.batch);
                    fault_stats = Some(fs);
                    Built::PerNode(eps)
                }
                None => Built::PerNode(Fabric::new_with::<Msg>(cfg.nodes, cfg.batch)),
            },
            FabricKind::Sharded { shards } => {
                let shards = if shards == 0 { auto_shards(cfg.nodes) } else { shards };
                match active_faults {
                    Some(plan) => {
                        let (eps, fs) = Fabric::new_sharded_faulty_with::<Msg>(
                            cfg.nodes, shards, plan, cfg.batch,
                        );
                        fault_stats = Some(fs);
                        Built::Sharded(eps)
                    }
                    None => Built::Sharded(Fabric::new_sharded_with::<Msg>(
                        cfg.nodes, shards, cfg.batch,
                    )),
                }
            }
            FabricKind::SocketPair { split } => {
                let split = if split == 0 { (cfg.nodes / 2).max(1) } else { split };
                let (eps, guard) = match active_faults {
                    Some(plan) => {
                        let (eps, fs, guard) =
                            socket::pair_faulty_with::<Msg>(cfg.nodes, split, plan, cfg.batch)
                                .expect("loopback socket fabric");
                        fault_stats = Some(fs);
                        (eps, guard)
                    }
                    None => socket::pair_with::<Msg>(cfg.nodes, split, None, cfg.batch)
                        .expect("loopback socket fabric"),
                };
                socket_guard = Some(guard);
                Built::PerNode(eps)
            }
        };
        let ctl = match &built {
            Built::PerNode(eps) => eps[0].ctl().clone(),
            Built::Sharded(eps) => eps[0].ctl().clone(),
        };
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
        let mut hooks: Vec<Arc<dyn Hooks>> = Vec::with_capacity(cfg.nodes);
        for i in 0..cfg.nodes {
            // The tracer must land on the endpoint *before* its `Net` is
            // cloned into `NodeShared` — both the compute and protocol
            // sides reach the tracer through that clone.
            let tracer = Tracer::for_node(cfg.trace, i as NodeId);
            let net = match &mut built {
                Built::PerNode(eps) => {
                    eps[i].set_tracer(tracer.clone());
                    eps[i].net().clone()
                }
                Built::Sharded(eps) => {
                    let shard = i % eps.len();
                    eps[shard].set_tracer(i as NodeId, tracer.clone());
                    eps[shard].net(i as NodeId).clone()
                }
            };
            tracers.push(tracer);
            let (wake_tx, wake_rx) = unbounded();
            let shared = Arc::new(NodeShared::new_with_homes(
                Arc::clone(&homes),
                cfg.cost,
                net,
                wake_tx,
                cfg.retry,
            ));
            let hook: Arc<dyn Hooks> = match cfg.protocol {
                ProtocolKind::Predictive(pcfg) => {
                    let pred = Arc::new(Predictive::new(pcfg));
                    preds.as_mut().expect("predictive mode").push(Arc::clone(&pred));
                    pred
                }
                ProtocolKind::Commutative(ccfg) => {
                    let cm = Arc::new(Commute::new(ccfg));
                    commutes.as_mut().expect("commutative mode").push(Arc::clone(&cm));
                    cm
                }
                ProtocolKind::Stache => Arc::new(NoHooks),
            };
            hooks.push(hook);
            shareds.push(shared);
            wake_rxs.push(Some(wake_rx));
        }
        match built {
            Built::PerNode(eps) => {
                for (i, ep) in eps.into_iter().enumerate() {
                    joins.push(spawn_protocol(Arc::clone(&shareds[i]), ep, Arc::clone(&hooks[i])));
                }
            }
            Built::Sharded(eps) => {
                for ep in eps {
                    let members = ep
                        .members()
                        .iter()
                        .map(|&n| {
                            (Arc::clone(&shareds[n as usize]), Arc::clone(&hooks[n as usize]))
                        })
                        .collect();
                    joins.push(spawn_protocol_shard(members, ep));
                }
            }
        }
        // Metrics plumbing: the hub exists as soon as the machine does, so
        // the publisher streams records live and a scrape during the run
        // sees the timeline so far. Output failures are loud (a mistyped
        // stream path must fail the run, not silently record nothing).
        let metrics = if cfg.metrics.enabled {
            let hub = Arc::new(MetricsHub::new());
            let stream_path = cfg.metrics.stream.clone();
            let publisher = stream_path.as_ref().map(|path| {
                use std::io::Write as _;
                let mut file =
                    std::io::BufWriter::new(std::fs::File::create(path).unwrap_or_else(|e| {
                        panic!("PRESCIENT_METRICS: cannot open stream file {path:?}: {e}")
                    }));
                let hub = Arc::clone(&hub);
                std::thread::Builder::new()
                    .name("metrics-pub".into())
                    .spawn(move || {
                        let mut seen = 0;
                        loop {
                            let (batch, closed) = hub.wait_more(seen);
                            seen += batch.len();
                            for r in &batch {
                                let _ = writeln!(file, "{}", r.to_json_line());
                            }
                            // Flush per batch, not per line: a follower
                            // sees whole records, and the run is never
                            // blocked on the file (the hub buffers).
                            let _ = file.flush();
                            if closed && batch.is_empty() {
                                return;
                            }
                        }
                    })
                    .expect("spawn metrics publisher thread")
            });
            let server = cfg.metrics.tcp.as_ref().map(|addr| {
                MetricsServer::spawn(Arc::clone(&hub), addr).unwrap_or_else(|e| {
                    panic!("PRESCIENT_METRICS: cannot bind tcp endpoint {addr:?}: {e}")
                })
            });
            Some(MetricsRt { hub, publisher, server, stream_path, runs: 0 })
        } else {
            None
        };
        let nodes = cfg.nodes;
        Machine {
            metrics,
            cfg,
            layout,
            shareds,
            preds,
            commutes,
            wake_rxs,
            barrier: Arc::new(VBarrier::new(nodes)),
            reduce: Arc::new(ReduceScratch {
                state: Mutex::new(ReduceState {
                    zeroed_round: 0,
                    contrib: vec![Vec::new(); nodes],
                }),
            }),
            fault_stats,
            ctl,
            tracers,
            joins,
            recovery: Arc::new(RecoveryCtl::new()),
            ckpts: Arc::new(CheckpointStore::new(nodes)),
            _socket: socket_guard,
        }
    }

    /// Drain every node's trace ring and merge the streams by virtual
    /// time. Returns the merged events plus the total number of events
    /// lost to ring wrap-around. Empty when tracing is disabled. Only
    /// meaningful between runs, when the machine is quiescent; drains are
    /// non-destructive, so calling this does not disturb the teardown
    /// export.
    pub fn trace_events(&self) -> (Vec<TraceEvent>, u64) {
        let dumps: Vec<_> = self.tracers.iter().filter_map(|t| t.drain()).collect();
        merge(dumps)
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

    /// Per-link fault counters, when the machine runs a faulty fabric.
    pub fn fault_stats(&self) -> Option<&Arc<FaultStats>> {
        self.fault_stats.as_ref()
    }

    /// Allocate `bytes` of shared memory homed at `node` (driver-side
    /// allocation, before or between runs).
    pub fn alloc_on(&self, node: NodeId, bytes: u64, align: u64) -> GAddr {
        self.shareds[node as usize].mem.lock().alloc(bytes, align)
    }

    /// The predictive-protocol state of `node`, if the machine runs the
    /// predictive protocol (used for manual schedules and diagnostics).
    pub fn predictive(&self, node: NodeId) -> Option<&Arc<Predictive>> {
        self.preds.as_ref().map(|p| &p[node as usize])
    }

    /// The commutative-merge state of `node`, if the machine runs the
    /// merge extension.
    pub fn commute(&self, node: NodeId) -> Option<&Arc<Commute>> {
        self.commutes.as_ref().map(|c| &c[node as usize])
    }

    /// Install a schedule-oracle recording tap on every node's predictive
    /// protocol (no-op under plain Stache, returning `false`). The tap
    /// observes every home-node request regardless of the protocol's
    /// recording state; remove it with [`Machine::remove_tap`].
    pub fn install_tap(&self, tap: &Arc<AccessTap>) -> bool {
        let Some(preds) = self.preds.as_ref() else { return false };
        for p in preds {
            p.set_tap(Some(Arc::clone(tap)));
        }
        true
    }

    /// Remove a previously installed recording tap from every node.
    pub fn remove_tap(&self) {
        if let Some(preds) = self.preds.as_ref() {
            for p in preds {
                p.set_tap(None);
            }
        }
    }

    /// Verify all coherence invariants (single writer / valid sharers /
    /// data agreement — see `prescient_stache::check`). Only meaningful
    /// between runs, when the machine is quiescent. Panics with the list
    /// of violations if any invariant is broken.
    pub fn assert_coherent(&self) {
        let violations = prescient_stache::check_coherence(&self.shareds);
        assert!(violations.is_empty(), "coherence violations: {violations:#?}");
    }

    /// Run an SPMD program: `f` executes concurrently on every node's
    /// compute thread. Returns each node's result plus the run report with
    /// the paper's time breakdown.
    ///
    /// # Panics
    ///
    /// Panics with the structured [`MachineError`] report if the run dies
    /// (a compute thread panicked, or the watchdog declared the machine
    /// stalled). Use [`Machine::try_run`] to handle failures as values.
    pub fn run<R, F>(&mut self, f: F) -> (Vec<R>, RunReport)
    where
        R: Send,
        F: Fn(&mut NodeCtx) -> R + Sync,
    {
        self.try_run(f).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Machine::run`], but a dying machine produces `Err(MachineError)`
    /// instead of a hang or a bare panic: every compute thread runs under
    /// a panic guard, and the first failure aborts the fabric and poisons
    /// the barrier so all of its siblings unwind and join (a mid-phase
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
        // Misuse is a structured error, not a panic: a wake inbox that is
        // still checked out means another run is executing on this machine
        // right now, and an aborted fabric means a previous run died (its
        // abort flag and barrier poison stay raised) — spawning compute
        // threads in either state would hang or panic mid-assembly.
        if self.wake_rxs.iter().any(Option::is_none) {
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
        let rxs: Vec<Receiver<Wake>> =
            self.wake_rxs.iter_mut().map(|o| o.take().expect("checked above")).collect();
        // Restore clones immediately (crossbeam receivers share the
        // channel), so the machine's inboxes survive even a panicked run.
        for (i, rx) in rxs.iter().enumerate() {
            self.wake_rxs[i] = Some(rx.clone());
        }

        let errors = Arc::new(ErrorSlot::new());
        let watchdog = self.cfg.watchdog.map(|wcfg| {
            Watchdog::spawn(
                wcfg,
                self.shareds.clone(),
                Arc::clone(&self.recovery),
                Arc::clone(&self.barrier),
                Arc::clone(&self.ctl),
                Arc::clone(&errors),
                self.tracers[0].clone(),
            )
        });

        let mut out: Vec<Option<(R, prescient_tempest::TimeBreakdown)>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = rxs
                    .into_iter()
                    .enumerate()
                    .map(|(i, rx)| {
                        let f = &f;
                        let shared = Arc::clone(&self.shareds[i]);
                        let pred = self.preds.as_ref().map(|p| Arc::clone(&p[i]));
                        let commute = self.commutes.as_ref().map(|c| Arc::clone(&c[i]));
                        let barrier = Arc::clone(&self.barrier);
                        let reduce = Arc::clone(&self.reduce);
                        let recovery = Arc::clone(&self.recovery);
                        let ckpts = Arc::clone(&self.ckpts);
                        let crash = self.cfg.crash;
                        let checkpoints = self.cfg.checkpoints;
                        let errors = Arc::clone(&errors);
                        let ctl = Arc::clone(&self.ctl);
                        // Node 0 additionally records the fabric-global
                        // wire deltas on the whole machine's behalf.
                        let metrics = self.metrics.as_ref().map(|m| MetricsInit {
                            hub: Arc::clone(&m.hub),
                            run: run_ord.expect("metrics on"),
                            baseline: stats0[i],
                            ctl: (i == 0).then(|| Arc::clone(&self.ctl)),
                            wire0,
                        });
                        scope.spawn(move || {
                            let guard_barrier = Arc::clone(&barrier);
                            let r = catch_unwind(AssertUnwindSafe(|| {
                                let mut ctx = NodeCtx::new(
                                    shared,
                                    pred,
                                    commute,
                                    rx,
                                    barrier,
                                    reduce,
                                    recovery,
                                    ckpts,
                                    crash,
                                    checkpoints,
                                    metrics,
                                );
                                let r = f(&mut ctx);
                                let (breakdown, _rx) = ctx.finish();
                                (r, breakdown)
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
                                                "compute thread panicked (opaque payload)".into()
                                            });
                                        errors.record(FailureKind::Panic, Some(i as NodeId), msg);
                                    }
                                    // Unblock every sibling: barrier waiters
                                    // unwind via poison, fetch/pre-send
                                    // timeout loops via the abort flag.
                                    ctl.abort();
                                    guard_barrier.poison();
                                    None
                                }
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("compute thread panicked outside the panic guard"))
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
                "compute thread aborted without a recorded failure".into(),
            ));
        }

        if self.cfg.validate {
            // All compute threads have joined and every fetch/pre-send
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
                unused_presends: self.shareds[i].mem.lock().unused_presends() as u64,
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
    pub fn timeline(&self) -> Option<RunTimeline> {
        self.metrics.as_ref().map(|m| RunTimeline::new(self.cfg.nodes, m.hub.snapshot()))
    }

    /// The bound address of the Prometheus text-exposition endpoint, when
    /// the metrics config asked for one (`tcp:ADDR`; an `ADDR` with port
    /// 0 resolves here to the picked port).
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.metrics.as_ref().and_then(|m| m.server.as_ref()).map(MetricsServer::addr)
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
        // Signal teardown before the shutdown messages fan out: any
        // in-flight traffic addressed to a node whose handler has already
        // exited is legitimate teardown loss from here on.
        self.ctl.mark_closing();
        for s in &self.shareds {
            s.send(s.me, Msg::Shutdown);
            // The shutdown self-send goes straight on the wire, but any
            // stragglers still parked in this node's egress should too.
            s.flush_net();
        }
        for j in self.joins.drain(..) {
            let _ = j.join();
        }
        // With every thread joined the rings are quiescent: export the
        // merged event stream. `PRESCIENT_TRACE_OUT` overrides the output
        // basename (default `trace` → `trace.json` + `trace.jsonl`).
        if self.tracers.iter().any(Tracer::on) {
            let (events, dropped) = self.trace_events();
            if dropped > 0 {
                eprintln!("prescient: trace rings wrapped, {dropped} events lost");
            }
            let base = std::env::var("PRESCIENT_TRACE_OUT").unwrap_or_else(|_| "trace".into());
            let chrome = to_chrome_json(&events);
            let jsonl = to_jsonl(&events);
            if let Err(e) = std::fs::write(format!("{base}.json"), chrome)
                .and_then(|()| std::fs::write(format!("{base}.jsonl"), jsonl))
            {
                eprintln!("prescient: trace export to {base}.json[l] failed: {e}");
            }
        }
        // Metrics teardown: close the hub (the publisher drains its tail
        // and exits), stop the exposition endpoint, then merge every
        // node's series into the RunTimeline JSON. `PRESCIENT_METRICS_OUT`
        // names the export base explicitly; otherwise a streamed machine
        // exports next to its stream file, and an in-memory machine
        // exports nothing (its user holds `Machine::timeline`).
        if let Some(m) = self.metrics.as_mut() {
            m.hub.close();
            if let Some(p) = m.publisher.take() {
                let _ = p.join();
            }
            if let Some(mut s) = m.server.take() {
                s.shutdown();
            }
            let out = std::env::var("PRESCIENT_METRICS_OUT")
                .ok()
                .map(|base| format!("{base}.timeline.json"))
                .or_else(|| m.stream_path.as_ref().map(|p| format!("{p}.timeline.json")));
            if let Some(path) = out {
                let tl = RunTimeline::new(self.cfg.nodes, m.hub.snapshot());
                if let Err(e) = std::fs::write(&path, tl.to_json()) {
                    eprintln!("prescient: metrics timeline export to {path} failed: {e}");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(nodes: usize) -> MachineConfig {
        // Pin the backend: these tests exercise run-state misuse, not the
        // backend matrix, and must not follow a `PRESCIENT_FABRIC` override.
        MachineConfig::stache(nodes, 64).with_fabric(FabricKind::Channel)
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
    fn checked_out_wake_inbox_reports_already_running() {
        let mut m = Machine::new(cfg(1));
        // What `try_run` observes when a concurrent run is mid-flight.
        m.wake_rxs[0] = None;
        let err = m.try_run(|_| ()).expect_err("must refuse to double-run");
        assert_eq!(err.kind, FailureKind::AlreadyRunning);
        assert!(err.message.contains("already executing"), "got: {}", err.message);
    }

    #[test]
    fn machine_runs_on_every_backend() {
        for fabric in [
            FabricKind::Channel,
            FabricKind::Sharded { shards: 2 },
            FabricKind::SocketPair { split: 0 },
        ] {
            let mut m = Machine::new(cfg(4).with_fabric(fabric));
            let (sums, _report) = m.run(|ctx| {
                let n = ctx.nodes() as u64;
                ctx.barrier();
                u64::from(ctx.me()) + n
            });
            assert_eq!(sums, vec![4, 5, 6, 7], "backend {fabric:?}");
        }
    }
}
