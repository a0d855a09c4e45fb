//! # prescient-bench
//!
//! The harness that regenerates every table and figure of the paper's
//! evaluation (§5), plus the ablations DESIGN.md calls out: one
//! `figures <name>` binary for the paper's tables and figures, one
//! `ablation <name>` for the ablations (`src/bin/`), microbenches in
//! `benches/`. `results/figures.sh` writes the committed figure files.
//!
//! Both binaries accept, after the sub-command:
//!
//! * `--paper` — run at the paper's Table 1 scale (32 nodes, full data
//!   sets). The default is a reduced scale that preserves the figures'
//!   *shape* while staying friendly to small CI machines.
//! * `--nodes N` — override the node count (1 to [`MAX_NODES`]).
//!
//! Anything else is refused with the usage and exit code 2 before a
//! machine is built ([`Scale::parse`]). A sub-command's reduced inputs
//! come from one table, [`inputs`].
//!
//! The figures' output format mirrors the paper's stacked bars: per
//! version, the total virtual execution time normalized to the fastest
//! version, split into *remote data wait*, *predictive protocol*
//! (pre-send), and *compute + synch*.

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
use prescient_tempest::MAX_NODES;

/// Command-line scale options shared by `figures`, `ablation` and
/// `perf_gate`.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Run at the paper's full scale.
    pub paper: bool,
    /// Node count (paper: 32).
    pub nodes: usize,
}

impl Scale {
    /// Parse `[--paper] [--nodes N]`: a missing, non-numeric or
    /// out-of-range node count and any other argument are errors.
    pub fn parse(args: &[String]) -> Result<Scale, String> {
        let (mut paper, mut nodes) = (false, None);
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--paper" => paper = true,
                "--nodes" => {
                    let v = args.next().ok_or("--nodes needs a node count")?;
                    match v.parse() {
                        Ok(n) if (1..=MAX_NODES).contains(&n) => nodes = Some(n),
                        _ => return Err(format!("--nodes {v:?}: expected 1 to {MAX_NODES}")),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(Scale { paper, nodes: nodes.unwrap_or(if paper { 32 } else { 8 }) })
    }

    /// [`Scale::parse`], or print the error and `usage` and exit 2.
    pub fn from_args(args: &[String], usage: &str) -> Scale {
        Scale::parse(args).unwrap_or_else(|e| refuse(&e, usage))
    }
}

fn refuse(error: &str, usage: &str) -> ! {
    eprintln!("error: {error}\n{usage}");
    std::process::exit(2)
}

/// A sub-command of `figures` or `ablation`, run at a scale on its
/// [`inputs`].
pub type Subcommand = fn(Scale, Inputs);

/// `bin <name> [--paper] [--nodes N]`: run the sub-command of `names`
/// that the process arguments name, or refuse them (exit 2) before any
/// machine is built.
pub fn dispatch(bin: &str, names: &[(&str, Subcommand)]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let list: Vec<&str> = names.iter().map(|(n, _)| *n).collect();
    let usage = format!("usage: {bin} <{}> [--paper] [--nodes N]", list.join("|"));
    let first = args.first().map_or("", String::as_str);
    let Some(&(name, run)) = names.iter().find(|(n, _)| *n == first) else {
        refuse(&format!("unknown sub-command {first:?}"), &usage)
    };
    let scale = Scale::from_args(&args[1..], &usage);
    run(scale, inputs(name, scale));
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

/// The inputs of sub-command `name` of `figures` or `ablation`, or of the
/// perf gate (any other name): Table 1's data sets at `--paper`, else 128
/// molecules × 5 steps, 512 bodies × 2 steps and a 32×32 mesh × 10
/// iterations, but where a figure or ablation was sized otherwise.
/// Table 1's "This run" column is rendered from this table, so it cannot
/// drift from the runs.
pub fn inputs(name: &str, scale: Scale) -> Inputs {
    let (water, barnes, adaptive) = Default::default();
    if scale.paper {
        return Inputs { water, barnes, adaptive };
    }
    let water = |n, steps| WaterConfig { n, steps, ..water };
    let mesh = |n, iters, tau| AdaptiveConfig { n, iters, tau, ..adaptive };
    let mut i = Inputs {
        water: water(128, 5),
        barnes: BarnesConfig { n: 512, steps: 2, ..barnes },
        adaptive: mesh(32, 10, 0.5),
    };
    match name {
        "fig6" => i.barnes = BarnesConfig { n: 1024, steps: 3, ..barnes },
        "fig7" => i.water = water(128, 6),
        "sweep" => (i.water, i.adaptive) = (water(128, 4), mesh(24, 8, 0.5)),
        "coalesce" => i.adaptive = mesh(24, 8, 0.5),
        "incremental" => i.adaptive = mesh(24, 12, 0.5),
        "placement" => (i.water, i.adaptive) = (water(64, 8), mesh(24, 8, 0.4)),
        _ => {}
    }
    i
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

    fn parse(args: &[&str]) -> Result<Scale, String> {
        Scale::parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn scale_parses_paper_and_nodes_and_refuses_the_rest() {
        let s = parse(&[]).unwrap();
        assert!(!s.paper && s.nodes == 8);
        let s = parse(&["--paper"]).unwrap();
        assert!(s.paper && s.nodes == 32);
        let s = parse(&["--nodes", "64", "--paper"]).unwrap();
        assert!(s.paper && s.nodes == MAX_NODES);
        assert_eq!(parse(&["--nodes", "1"]).unwrap().nodes, 1);
        for bad in [
            &["--nodes"][..],
            &["--nodes", "x"],
            &["--nodes", "0"],
            &["--nodes", "65"],
            &["--nodes", "-3"],
            &["--nodes", ""],
            &["--frobnicate"],
            &["--paper", "fig5"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
    }

    /// Each sub-command's reduced inputs, as its old binary ran them.
    #[test]
    fn the_input_table_keeps_every_runs_inputs() {
        let reduced = Scale { paper: false, nodes: 8 };
        let i = |name| inputs(name, reduced);
        assert_eq!((i("fig5").adaptive.n, i("fig5").adaptive.iters), (32, 10));
        assert_eq!((i("fig6").barnes.n, i("fig6").barnes.steps), (1024, 3));
        assert_eq!((i("fig7").water.n, i("fig7").water.steps), (128, 6));
        let s = i("sweep");
        assert_eq!((s.water.n, s.water.steps, s.barnes.n, s.barnes.steps), (128, 4, 512, 2));
        assert_eq!((s.adaptive.n, s.adaptive.iters), (24, 8));
        assert_eq!(i("incremental").adaptive.iters, 12);
        let p = i("placement");
        assert_eq!((p.water.n, p.water.steps, p.adaptive.tau), (64, 8, 0.4));
        let paper = inputs("fig6", Scale { paper: true, nodes: 32 });
        assert_eq!((paper.barnes.n, paper.water.n, paper.adaptive.n), (16384, 512, 128));
    }
}
