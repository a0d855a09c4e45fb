//! Machine configuration.

use prescient_core::PredictiveConfig;
use prescient_stache::RetryConfig;
use prescient_tempest::{
    BatchConfig, CostModel, CrashPlan, FaultPlan, HomeMap, MetricsConfig, TraceConfig,
};

use crate::recovery::WatchdogConfig;

/// Which coherence protocol the machine runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ProtocolKind {
    /// Plain Stache (write-invalidate). The `phase_begin`/`phase_end`
    /// directives degrade to the natural end-of-phase barrier — this is the
    /// paper's *unoptimized* configuration. Phases the `cstar`
    /// commutativity analysis proves mergeable may run privatized, with
    /// per-node delta buffers exchanged in bulk at the phase barrier
    /// (`NodeCtx::merge_exchange`).
    Stache,
    /// Stache plus the predictive protocol: directives record schedules and
    /// pre-send data — the paper's *optimized* configuration.
    Predictive(PredictiveConfig),
}

impl ProtocolKind {
    /// Default optimized configuration.
    pub fn predictive() -> ProtocolKind {
        ProtocolKind::Predictive(PredictiveConfig::default())
    }

    /// Is the predictive protocol active?
    pub fn is_predictive(&self) -> bool {
        matches!(self, ProtocolKind::Predictive(_))
    }
}

/// Traffic-aware block→home placement. `Off` is the default and leaves
/// every gated counter bit-identical to a build without the feature;
/// `Remap` applies a schedule-guided overlay computed offline (e.g. by
/// `prescient-telemetry emit-remap`). Either way the mapping is fixed at
/// machine construction.
#[derive(Debug, Clone, PartialEq, Default)]
pub enum PlacementSpec {
    /// Blocks stay at their (possibly rotate-shifted) base-layout homes.
    #[default]
    Off,
    /// Apply an explicit block→home overlay before the first phase.
    Remap(HomeMap),
}

impl PlacementSpec {
    /// Is placement disabled?
    pub fn is_off(&self) -> bool {
        matches!(self, PlacementSpec::Off)
    }

    /// Parse a `PRESCIENT_PLACEMENT` value: `"off"` or `"remap:PATH"` (the
    /// file is read and validated against `nodes` immediately — a missing
    /// or malformed remap file must fail the run, not silently measure
    /// `Off`). (`crate::env` owns the variable and the wording of its
    /// error.)
    pub fn parse(s: &str, nodes: usize) -> Result<PlacementSpec, String> {
        let t = s.trim();
        match t.split_once(':') {
            None if t == "off" => Ok(PlacementSpec::Off),
            Some(("remap", path)) => {
                let text = std::fs::read_to_string(path.trim())
                    .map_err(|e| format!("cannot read the remap file: {e}"))?;
                let map =
                    HomeMap::parse(&text, nodes).map_err(|e| format!("bad remap file: {e}"))?;
                Ok(PlacementSpec::Remap(map))
            }
            _ => Err("unknown mode".to_string()),
        }
    }
}

/// The fabric a machine runs on. There is one — the in-process fabric of
/// `prescient_tempest::fabric` — and nothing selects it: the type and
/// [`MachineConfig::with_fabric`] remain only because the repo benchmark,
/// which this crate cannot edit, still names them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricKind {
    /// One in-process inbox per node.
    Channel,
}

/// Configuration of one emulated machine.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of nodes (the paper's machine has 32).
    pub nodes: usize,
    /// Cache-block size in bytes (the paper sweeps 32–1024).
    pub block_size: usize,
    /// Virtual-time cost constants.
    pub cost: CostModel,
    /// Coherence protocol.
    pub protocol: ProtocolKind,
    /// Fabric fault injection; `None` (or an inactive plan) is a perfect
    /// fabric. Chaos tests use [`FaultPlan::chaos`].
    pub faults: Option<FaultPlan>,
    /// Compute-side request retry policy (timeouts matter only when the
    /// fabric can drop or delay messages).
    pub retry: RetryConfig,
    /// Run the whole-machine coherence check after every
    /// [`run`](crate::Machine::run) returns; panics on violations. Cheap for
    /// test-sized machines, intended for chaos tests.
    pub validate: bool,
    /// Fabric egress aggregation policy: the fabric default
    /// ([`BatchConfig::DEFAULT_MAX`]) unless [`MachineConfig::with_batch`]
    /// pins another (the batching-invariance tests and the ablation do).
    pub batch: BatchConfig,
    /// Protocol event tracing. Constructors take the `PRESCIENT_TRACE`
    /// environment override when present (off otherwise — tracing is
    /// zero-cost when disabled); [`MachineConfig::with_trace`] pins it
    /// explicitly. On teardown a traced machine exports the merged event
    /// stream (see `crate::Machine`).
    pub trace: TraceConfig,
    /// Injected crash: "crash node n at phase-execution k" (fires at that
    /// phase's end, destroying its work). Constructors take the
    /// `PRESCIENT_CRASH` environment override (`"node@version"`) when
    /// present; [`MachineConfig::with_crash_plan`] pins it explicitly and
    /// enables checkpointing so the machine can recover.
    pub crash: Option<CrashPlan>,
    /// Barrier-consistent checkpointing: every `phase_begin` snapshots
    /// each node's protocol state so an injected crash rolls the machine
    /// back to the last completed barrier instead of dying. Off by
    /// default (zero overhead); enabled by
    /// [`MachineConfig::with_checkpoints`] or implicitly by a crash plan.
    pub checkpoints: bool,
    /// Liveness watchdog: convert infinite hangs (full partitions,
    /// stalled recoveries, protocol deadlocks) into a structured
    /// `MachineError` within a bounded wall-clock budget. `None` (the
    /// default) runs no monitor thread.
    pub watchdog: Option<WatchdogConfig>,
    /// Always [`FabricKind::Channel`] (see there).
    pub fabric: FabricKind,
    /// Traffic-aware home placement. Constructors take the
    /// `PRESCIENT_PLACEMENT` environment override when present (off
    /// otherwise); [`MachineConfig::with_placement`] pins it explicitly.
    pub placement: PlacementSpec,
    /// Phase-granular metrics timeline. Constructors take the
    /// `PRESCIENT_METRICS` environment override when present (off
    /// otherwise — no hub, no cuts, no threads);
    /// [`MachineConfig::with_metrics`] pins it explicitly. Recording cuts
    /// bill no virtual time and send no messages, so every gated counter
    /// stays bit-identical with metrics off or on.
    pub metrics: MetricsConfig,
    /// Naive rotate-shift applied to the base block→home layout: block
    /// `b`'s view home becomes `(segment_home(b) + home_shift) % nodes`.
    /// `0` (the default) is the allocation-directed owner placement. The
    /// placement ablation uses a non-zero shift as its deliberately bad
    /// static layout for the remap to recover from.
    pub home_shift: u16,
}

impl MachineConfig {
    /// An unoptimized (plain Stache) machine, with whatever the
    /// `PRESCIENT_*` variables select (see [`crate::env`]) applied on top.
    ///
    /// # Panics
    ///
    /// Panics if a variable holds a value its grammar rejects.
    pub fn stache(nodes: usize, block_size: usize) -> MachineConfig {
        let mut cfg = MachineConfig {
            nodes,
            block_size,
            cost: CostModel::default(),
            protocol: ProtocolKind::Stache,
            faults: None,
            retry: RetryConfig::default(),
            validate: false,
            batch: BatchConfig::default(),
            trace: TraceConfig::off(),
            crash: None,
            checkpoints: false,
            watchdog: None,
            fabric: FabricKind::Channel,
            placement: PlacementSpec::Off,
            metrics: MetricsConfig::off(),
            home_shift: 0,
        };
        crate::env::apply(&mut cfg, &crate::env::process).unwrap_or_else(|e| panic!("{e}"));
        cfg
    }

    /// An optimized (predictive protocol) machine.
    pub fn predictive(nodes: usize, block_size: usize) -> MachineConfig {
        MachineConfig {
            protocol: ProtocolKind::predictive(),
            ..MachineConfig::stache(nodes, block_size)
        }
    }

    /// Inject faults into the fabric.
    pub fn with_faults(mut self, plan: FaultPlan) -> MachineConfig {
        self.faults = Some(plan);
        self
    }

    /// Override the request retry policy.
    pub fn with_retry(mut self, retry: RetryConfig) -> MachineConfig {
        self.retry = retry;
        self
    }

    /// Check coherence invariants after every run.
    pub fn validated(mut self) -> MachineConfig {
        self.validate = true;
        self
    }

    /// Pin the fabric's egress aggregation policy.
    pub fn with_batch(mut self, batch: BatchConfig) -> MachineConfig {
        self.batch = batch;
        self
    }

    /// Pin the tracing policy (overrides the environment default).
    pub fn with_trace(mut self, trace: TraceConfig) -> MachineConfig {
        self.trace = trace;
        self
    }

    /// Inject a crash (overrides the `PRESCIENT_CRASH` environment
    /// default) and enable the checkpointing that lets the machine
    /// recover from it.
    pub fn with_crash_plan(mut self, plan: CrashPlan) -> MachineConfig {
        self.crash = Some(plan);
        self.checkpoints = true;
        self
    }

    /// Enable or disable barrier-consistent checkpointing explicitly.
    pub fn with_checkpoints(mut self, on: bool) -> MachineConfig {
        self.checkpoints = on;
        self
    }

    /// Run the liveness watchdog with the given policy.
    pub fn with_watchdog(mut self, watchdog: WatchdogConfig) -> MachineConfig {
        self.watchdog = Some(watchdog);
        self
    }

    /// A no-op kept for the repo benchmark (see [`FabricKind`]).
    pub fn with_fabric(mut self, fabric: FabricKind) -> MachineConfig {
        self.fabric = fabric;
        self
    }

    /// Pin the placement mode (overrides the environment default).
    pub fn with_placement(mut self, placement: PlacementSpec) -> MachineConfig {
        self.placement = placement;
        self
    }

    /// Pin the metrics policy (overrides the environment default).
    pub fn with_metrics(mut self, metrics: MetricsConfig) -> MachineConfig {
        self.metrics = metrics;
        self
    }

    /// Rotate every block's view home by `shift` nodes (the placement
    /// ablation's deliberately traffic-oblivious static layout).
    pub fn with_home_shift(mut self, shift: u16) -> MachineConfig {
        self.home_shift = shift;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let u = MachineConfig::stache(4, 32);
        assert!(!u.protocol.is_predictive());
        assert!(u.faults.is_none());
        assert!(!u.validate);
        let o = MachineConfig::predictive(4, 32);
        assert!(o.protocol.is_predictive());
        assert_eq!(o.nodes, 4);
        assert_eq!(o.block_size, 32);
    }

    #[test]
    fn builders() {
        let c = MachineConfig::stache(4, 32).with_faults(FaultPlan::chaos(7)).validated();
        assert!(c.faults.expect("plan").is_active());
        assert!(c.validate);
        let c = c.with_batch(BatchConfig::off());
        assert!(!c.batch.is_batching());
        assert_eq!(
            MachineConfig::stache(2, 32).with_batch(BatchConfig::new(64)).batch.max_batch,
            64
        );
    }

    #[test]
    fn crash_plan_brings_checkpoints_along() {
        let c = MachineConfig::predictive(4, 32);
        assert!(c.crash.is_none());
        assert!(!c.checkpoints);
        assert!(c.watchdog.is_none());
        let c = c.with_crash_plan(CrashPlan::new(2, 3));
        assert_eq!(c.crash.expect("plan").node, 2);
        assert!(c.checkpoints, "a crash plan must enable recovery");
        let c = MachineConfig::stache(4, 32).with_checkpoints(true);
        assert!(c.checkpoints);
        let c = c.with_watchdog(WatchdogConfig::default());
        assert!(c.watchdog.is_some());
    }

    // Malformed values must be rejected, never silently fall back to a
    // default — a CI job with a typo in `PRESCIENT_CRASH` would otherwise
    // measure the wrong configuration and nobody would know. (The
    // variables themselves are driven through `crate::env` in
    // `tests/text_boundary.rs`.)

    #[test]
    fn crash_plan_rejects_garbage() {
        assert_eq!(CrashPlan::parse("off"), Ok(None));
        let p = CrashPlan::parse("2@5").expect("2@5").expect("some plan");
        assert_eq!((p.node, p.at_version), (2, 5));
        for bad in ["", "2", "@5", "2@", "x@5", "2@y", "2@5@7", "node2@5"] {
            assert!(CrashPlan::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn placement_spec_parses_and_rejects_garbage() {
        assert!(PlacementSpec::parse("off", 4).expect("off").is_off());
        for bad in ["", "on", "remap", "online", "online:4,75,128", "move:now"] {
            assert_eq!(PlacementSpec::parse(bad, 4).expect_err(bad), "unknown mode", "{bad:?}");
        }
        // A remap pointing at a missing file fails loudly, not as Off.
        assert!(PlacementSpec::parse("remap:/no/such/remap.txt", 4).is_err());
    }

    #[test]
    fn placement_spec_remap_round_trips_through_a_file() {
        let mut map = HomeMap::new();
        map.insert(prescient_tempest::BlockId(7), 2);
        map.insert(prescient_tempest::BlockId(9), 0);
        let path = std::env::temp_dir().join(format!("prescient_remap_{}.txt", std::process::id()));
        std::fs::write(&path, map.to_text()).expect("write remap");
        let spec = PlacementSpec::parse(&format!("remap:{}", path.display()), 4).expect("parse");
        std::fs::remove_file(&path).ok();
        assert_eq!(spec, PlacementSpec::Remap(map));
        // A home out of range for the machine is rejected at load time.
        assert!(PlacementSpec::parse("remap:/no/such", 4).is_err());
        let cfg = MachineConfig::stache(4, 32).with_home_shift(1);
        assert_eq!(cfg.home_shift, 1);
        assert!(cfg.placement.is_off());
    }

    #[test]
    fn trace_config_rejects_garbage() {
        assert!(!TraceConfig::parse("off").expect("off").enabled);
        assert!(TraceConfig::parse("on").expect("on").enabled);
        assert!(TraceConfig::parse("4096").expect("4096").enabled);
        for bad in ["", "maybe", "-1", "4096x", "on,off"] {
            assert!(TraceConfig::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn metrics_config_rejects_garbage() {
        assert!(!MetricsConfig::parse("off").expect("off").enabled);
        assert!(MetricsConfig::parse("on").expect("on").enabled);
        let s = MetricsConfig::parse("stream:/tmp/run.jsonl").expect("stream");
        assert_eq!(s.stream.as_deref(), Some("/tmp/run.jsonl"));
        for bad in ["", "maybe", "2", "stream:", "tcp:", "tcp:127.0.0.1:9100", "on,stream:x"] {
            assert!(MetricsConfig::parse(bad).is_err(), "{bad:?} must not parse");
        }
        let cfg = MachineConfig::stache(4, 32).with_metrics(MetricsConfig::on());
        assert!(cfg.metrics.enabled);
        assert!(!MachineConfig::stache(4, 32).metrics.enabled);
    }
}
