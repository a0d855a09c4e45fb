//! The four workloads: inputs made from a seed, and the one machine
//! configuration each of them runs on.

use std::path::Path;
use std::time::Duration;

use prescient_apps::adaptive::{mesh_checksum, run_adaptive, seq_adaptive, AdaptiveConfig};
use prescient_apps::barnes::{run_barnes, seq_barnes, BarnesConfig};
use prescient_apps::water::{position_checksum, run_water, seq_water, WaterConfig};
use prescient_apps::AppRun;
use prescient_runtime::{FabricKind, MachineConfig, PlacementSpec};
use prescient_stache::RetryConfig;
use prescient_tempest::{BatchConfig, MetricsConfig, TraceConfig};

/// Cache-block size every workload runs with (the paper's Table 1 runs).
pub const BLOCK_SIZE: usize = 128;

/// Ring capacity per node of the `adaptive_observed` protocol trace.
pub const OBSERVED_TRACE_CAPACITY: usize = 4096;

/// At a seed other than 0 Adaptive's refinement threshold is drawn from
/// this range, just above the paper's 0.5, and Barnes' opening criterion
/// from [`THETA_RANGE`], just above the paper's 0.7. Both are narrow on
/// purpose. A seed is then another input (the mesh refines a little
/// earlier or later, a few more or fewer cells are opened), but messages,
/// bytes and simulated time stay within about a part in a thousand of one
/// another, so that runs at different seeds are runs of one workload and
/// the simulated metrics can be held to a bound of 1 %.
pub const TAU_RANGE: (f64, f64) = (0.5001, 0.5005);
pub const THETA_RANGE: (f64, f64) = (0.700, 0.701);

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["water", "barnes", "adaptive", "adaptive_observed"];

/// The generated input of one application run. The program only ever sees
/// this, never the seed.
#[derive(Debug, Clone, Copy)]
pub enum Input {
    Water(WaterConfig),
    Barnes(BarnesConfig),
    Adaptive(AdaptiveConfig),
}

/// One workload at one seed.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub input: Input,
    /// Telemetry on (`adaptive_observed`): protocol trace, streamed
    /// metrics timeline and per-phase checkpoints.
    pub observed: bool,
    pub nodes: usize,
    /// Fewest timed reps a run reports a median over, however long they
    /// take.
    pub min_reps: usize,
    /// Inputs are the paper's and the machine is 32 nodes, so the counters
    /// must equal `results/BENCH_prescient.json`.
    pub paper_inputs: bool,
}

/// `seed` × 2⁶⁴ ÷ the golden ratio, modulo 2⁶⁴. As a fraction of 2⁶⁴ the
/// values for seeds 1, 2, 3, … (what a driver runs) are spread evenly over
/// the unit interval and no two fall close together, which hashed draws
/// now and then do: two runs whose θ differ in the ninth digit make
/// identical simulations.
fn spread(seed: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

impl Workload {
    /// Workload `name` at `seed`. Seed 0 is the paper's inputs; any other
    /// seed derives from it Water's input seed (other molecule positions),
    /// Barnes' θ in [`THETA_RANGE`] or Adaptive's τ in [`TAU_RANGE`].
    /// `quick` shrinks machine and inputs to a smoke test.
    pub fn new(name: &str, seed: u64, quick: bool) -> Result<Workload, String> {
        let name = *NAMES
            .iter()
            .find(|n| **n == name)
            .ok_or_else(|| format!("unknown workload {name:?} (expected one of {NAMES:?})"))?;
        let (mut input, min_reps) = match name {
            "water" => (Input::Water(WaterConfig::default()), 30),
            "barnes" => (Input::Barnes(BarnesConfig::default()), 3),
            "adaptive" => (Input::Adaptive(AdaptiveConfig::default()), 10),
            _ => (Input::Adaptive(AdaptiveConfig::default()), 6),
        };
        if seed != 0 {
            let unit = (spread(seed) >> 11) as f64 / (1u64 << 53) as f64;
            let within = |range: (f64, f64)| range.0 + (range.1 - range.0) * unit;
            match &mut input {
                Input::Water(c) => c.seed = spread(seed),
                Input::Barnes(c) => c.theta = within(THETA_RANGE),
                Input::Adaptive(c) => c.tau = within(TAU_RANGE),
            }
        }
        if quick {
            match &mut input {
                Input::Water(c) => (c.n, c.steps) = (128, 5),
                Input::Barnes(c) => (c.n, c.steps) = (512, 2),
                Input::Adaptive(c) => (c.n, c.iters) = (32, 10),
            }
        }
        Ok(Workload {
            name,
            input,
            observed: name == "adaptive_observed",
            nodes: if quick { 8 } else { 32 },
            min_reps: if quick { 2 } else { min_reps },
            paper_inputs: seed == 0 && !quick,
        })
    }

    /// Name of the application, as `results/BENCH_prescient.json` has it.
    pub fn app(&self) -> &'static str {
        match self.input {
            Input::Water(_) => "water",
            Input::Barnes(_) => "barnes",
            Input::Adaptive(_) => "adaptive",
        }
    }

    /// The machine one rep runs on. Every field a `PRESCIENT_*` variable
    /// could have set is set here instead, so the configuration is a
    /// function of the workload alone. `telemetry` is the directory the
    /// program's trace and timeline go to; `metrics` turns the timeline on
    /// for a workload that does not have it on by itself (the traced run's
    /// counting rep).
    pub fn machine(&self, telemetry: &Path, metrics: bool) -> MachineConfig {
        let mut cfg = pinned(MachineConfig::predictive(self.nodes, BLOCK_SIZE));
        if self.observed {
            cfg = cfg
                .with_trace(TraceConfig::with_capacity(OBSERVED_TRACE_CAPACITY))
                .with_checkpoints(true);
        }
        if self.observed || metrics {
            let stream = telemetry.join("metrics.jsonl").to_string_lossy().into_owned();
            cfg = cfg.with_metrics(MetricsConfig::stream(stream));
        }
        cfg
    }

    /// Run the application once.
    pub fn run(&self, machine: MachineConfig) -> AppRun {
        match &self.input {
            Input::Water(c) => run_water(machine, c),
            Input::Barnes(c) => run_barnes(machine, c),
            Input::Adaptive(c) => run_adaptive(machine, c),
        }
    }

    /// Checksum of the plain single-thread reference on the same input.
    pub fn reference_checksum(&self) -> f64 {
        match &self.input {
            Input::Water(c) => position_checksum(&seq_water(c)),
            Input::Barnes(c) => position_checksum(&seq_barnes(c)),
            Input::Adaptive(c) => {
                let m = seq_adaptive(c);
                mesh_checksum(&m.roots, &m.depths)
            }
        }
    }

    /// The generated input in words, as the perf gate writes its `config`.
    pub fn describe(&self) -> String {
        match &self.input {
            Input::Water(c) => format!("n={} steps={} seed={:#x}", c.n, c.steps, c.seed),
            Input::Barnes(c) => {
                format!("n={} steps={} theta={} seed={:#x}", c.n, c.steps, c.theta, c.seed)
            }
            Input::Adaptive(c) => {
                format!("n={} iters={} tau={} max_depth={}", c.n, c.iters, c.tau, c.max_depth)
            }
        }
    }
}

/// `cfg` with every field a `PRESCIENT_*` variable could have set put back
/// to one stated value: channel fabric, default batching, no placement, no
/// telemetry, no checkpoints, no injected crash. Workloads and layer
/// probes both build their machines through this.
pub fn pinned(cfg: MachineConfig) -> MachineConfig {
    let mut cfg = cfg
        .with_fabric(FabricKind::Channel)
        .with_batch(BatchConfig::default())
        .with_placement(PlacementSpec::Off)
        // A clean fabric retransmits only when the host schedules a
        // protocol thread late; a long timeout keeps `msgs` and `vtime_s`
        // independent of host load (as `perf_gate` does).
        .with_retry(RetryConfig { timeout: Duration::from_secs(30), max_retries: 4 })
        .with_trace(TraceConfig::off())
        .with_metrics(MetricsConfig::off())
        .with_checkpoints(false);
    cfg.crash = None;
    cfg
}

/// Remove every inherited `PRESCIENT_*` variable. The library's
/// constructors read (and panic on malformed) environment knobs before the
/// builder calls above can override them, so the harness starts from none.
/// Call before any thread exists.
pub fn scrub_env() {
    let inherited: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("PRESCIENT_"))
        .collect();
    for k in inherited {
        std::env::remove_var(k);
    }
}
