//! # prescient-bench
//!
//! The harness that regenerates every table and figure of the paper's
//! evaluation (§5), plus the ablations DESIGN.md calls out. One binary per
//! figure or table and one `ablation <name>` for the ablations
//! (`src/bin/`), microbenches in `benches/`.
//!
//! Every figure binary accepts:
//!
//! * `--paper` — run at the paper's Table 1 scale (32 nodes, full data
//!   sets). The default is a reduced scale that preserves the figures'
//!   *shape* while staying friendly to small CI machines.
//! * `--nodes N` — override the node count.
//!
//! The output format mirrors the paper's stacked bars: per version, the
//! total virtual execution time normalized to the fastest version, split
//! into *remote data wait*, *predictive protocol* (pre-send), and
//! *compute + synch*.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod telemetry;

use std::time::Duration;

use prescient_apps::adaptive::{run_adaptive, AdaptiveConfig};
use prescient_apps::barnes::{run_barnes, BarnesConfig};
use prescient_apps::water::{run_water, WaterConfig};
use prescient_apps::AppRun;
use prescient_runtime::{MachineConfig, RunReport};
use prescient_stache::RetryConfig;

/// Command-line scale options shared by the figure binaries.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Run at the paper's full scale.
    pub paper: bool,
    /// Node count (paper: 32).
    pub nodes: usize,
}

impl Scale {
    /// Parse from `std::env::args`: `--paper`, `--nodes N`.
    pub fn from_args() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        let paper = args.iter().any(|a| a == "--paper");
        let mut nodes = if paper { 32 } else { 8 };
        if let Some(i) = args.iter().position(|a| a == "--nodes") {
            nodes = args.get(i + 1).and_then(|v| v.parse().ok()).expect("--nodes needs a number");
        }
        Scale { paper, nodes }
    }
}

/// The three applications' inputs at one scale.
#[derive(Debug, Clone, Copy)]
pub struct Inputs {
    /// Water's.
    pub water: WaterConfig,
    /// Barnes'.
    pub barnes: BarnesConfig,
    /// Adaptive's.
    pub adaptive: AdaptiveConfig,
}

impl Scale {
    /// The perf gate's inputs, which the ablations share: Table 1's data
    /// sets at `--paper`, else 128 molecules × 5 steps, 512 bodies × 2
    /// steps and a 32×32 mesh × 10 iterations.
    pub fn inputs(&self) -> Inputs {
        let (water, barnes, adaptive) = Default::default();
        if self.paper {
            Inputs { water, barnes, adaptive }
        } else {
            Inputs {
                water: WaterConfig { n: 128, steps: 5, ..water },
                barnes: BarnesConfig { n: 512, steps: 2, ..barnes },
                adaptive: AdaptiveConfig { n: 32, iters: 10, ..adaptive },
            }
        }
    }
}

/// One application's driver, bound to its input.
pub type Leg<'a> = Box<dyn Fn(MachineConfig) -> AppRun + 'a>;

impl Inputs {
    /// The three applications on these inputs: name, the input in words
    /// (the perf gate's `config` string) and the driver.
    pub fn apps(&self) -> [(&'static str, String, Leg<'_>); 3] {
        let Inputs { water: w, barnes: b, adaptive: a } = self;
        [
            (
                "water",
                format!("n={} steps={} seed={:#x}", w.n, w.steps, w.seed),
                Box::new(|m| run_water(m, w)),
            ),
            (
                "barnes",
                format!("n={} steps={} seed={:#x}", b.n, b.steps, b.seed),
                Box::new(|m| run_barnes(m, b)),
            ),
            (
                "adaptive",
                format!("n={} iters={} tau={} max_depth={}", a.n, a.iters, a.tau, a.max_depth),
                Box::new(|m| run_adaptive(m, a)),
            ),
        ]
    }
}

/// The retry policy of every measured run on a clean fabric: with no
/// fault injection a retransmit can only fire when the host schedules a
/// home node's thread late — noise that would perturb the gated
/// `msgs`/`vtime_ns` counters on a loaded runner. A generous timeout
/// makes the counters load-independent.
pub fn patient_retry() -> RetryConfig {
    RetryConfig { timeout: Duration::from_secs(30), max_retries: 4 }
}

/// One measured version of a benchmark (one bar of a figure).
pub struct Bar {
    /// Version label, e.g. `"C** optimized (32B)"`.
    pub label: String,
    /// The run.
    pub report: RunReport,
}

/// Render a figure: the paper's stacked bars, normalized to the fastest
/// version, plus the raw protocol counters.
pub fn render_figure(title: &str, bars: &[Bar]) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    writeln!(s, "== {title} ==").unwrap();
    let best = bars.iter().map(|b| b.report.exec_time_ns()).min().unwrap_or(1).max(1);
    writeln!(
        s,
        "{:<34} {:>9} {:>11} {:>9} {:>9} {:>9}  bar",
        "version", "rel.time", "total(ms)", "wait%", "presend%", "cs%"
    )
    .unwrap();
    for b in bars {
        let total = b.report.exec_time_ns().max(1);
        let m = b.report.mean_breakdown();
        let wait = m.wait_ns as f64 / total as f64;
        let pre = m.presend_ns as f64 / total as f64;
        let cs = m.compute_synch_ns() as f64 / total as f64;
        let rel = total as f64 / best as f64;
        let width = (rel * 30.0).round() as usize;
        let w_w = (wait * width as f64).round() as usize;
        let w_p = (pre * width as f64).round() as usize;
        let w_c = width.saturating_sub(w_w + w_p);
        writeln!(
            s,
            "{:<34} {:>9.2} {:>11.2} {:>8.1}% {:>8.1}% {:>8.1}%  {}{}{}",
            b.label,
            rel,
            total as f64 / 1e6,
            wait * 100.0,
            pre * 100.0,
            cs * 100.0,
            "W".repeat(w_w),
            "P".repeat(w_p),
            "=".repeat(w_c),
        )
        .unwrap();
    }
    writeln!(
        s,
        "\n{:<34} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "counters", "misses", "slow", "presend", "msgs", "local%"
    )
    .unwrap();
    for b in bars {
        let t = b.report.total_stats();
        writeln!(
            s,
            "{:<34} {:>10} {:>10} {:>10} {:>10} {:>9.2}%",
            b.label,
            t.misses(),
            t.slow_misses,
            t.presend_blocks_out,
            t.msgs_out,
            b.report.local_fraction() * 100.0
        )
        .unwrap();
    }
    s
}

/// Ratio of two bars' execution times (`a` over `b`).
pub fn speedup(a: &Bar, b: &Bar) -> f64 {
    a.report.exec_time_ns() as f64 / b.report.exec_time_ns() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use prescient_runtime::{Machine, MachineConfig, NodeCtx};

    fn tiny_report() -> RunReport {
        let mut m = Machine::new(MachineConfig::stache(2, 32));
        let (_, r) = m.run(|ctx: &mut NodeCtx| {
            ctx.work(100);
            ctx.barrier();
        });
        r
    }

    #[test]
    fn render_contains_labels_and_percentages() {
        let bars = vec![
            Bar { label: "unopt".into(), report: tiny_report() },
            Bar { label: "opt".into(), report: tiny_report() },
        ];
        let out = render_figure("test figure", &bars);
        assert!(out.contains("test figure"));
        assert!(out.contains("unopt"));
        assert!(out.contains("wait%"));
        assert!(out.contains("local%"));
    }

    #[test]
    fn speedup_is_ratio() {
        let a = Bar { label: "a".into(), report: tiny_report() };
        let b = Bar { label: "b".into(), report: tiny_report() };
        let s = speedup(&a, &b);
        assert!(s > 0.0 && s.is_finite());
    }
}
