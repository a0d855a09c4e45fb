//! The paper's evaluation (§5), one sub-command per table or figure:
//!
//! ```text
//! cargo run --release -p prescient-bench --bin figures -- <name> [--paper] [--nodes N]
//! ```
//!
//! | name | paper content |
//! |---|---|
//! | `fig4` | the Barnes main-loop CFG with access lists (a) and the phase directives placed (b) |
//! | `fig5` | Adaptive: {unoptimized, optimized} × {32 B, 256 B} |
//! | `fig6` | Barnes: {unoptimized, optimized} × {32 B, 1024 B}, plus the hand-optimized SPMD write-update code |
//! | `fig7` | Water: unoptimized, optimized and Splash, each at its best block size |
//! | `table1` | the applications, the paper's data sets and this run's |
//! | `sweep` | §5.4 block-size sensitivity: both protocols at 32–1024 B |
//!
//! Every machine runs with [`patient_retry`]; the reduced inputs are
//! [`prescient_bench::inputs`]. `results/figures.sh` writes the committed
//! files.

use prescient_apps::adaptive::run_adaptive;
use prescient_apps::barnes::{run_barnes, run_barnes_spmd};
use prescient_apps::water::{run_splash_water, run_water};
use prescient_apps::AppRun;
use prescient_bench::{
    dispatch, inputs, patient_retry, render_figure, speedup, Bar, Inputs, Scale, Subcommand,
};
use prescient_cstar::cfg::CfgNode;
use prescient_cstar::directives::{place_directives, render_plan};
use prescient_cstar::sema::ClassifyRules;
use prescient_cstar::{compile_diag, lint_program};
use prescient_runtime::MachineConfig;

const NAMES: [(&str, Subcommand); 6] = [
    ("fig4", fig4),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("table1", table1),
    ("sweep", sweep),
];

fn main() {
    dispatch("figures", &NAMES);
}

/// The unoptimized (Stache) or optimized (predictive) machine, retrying
/// patiently.
fn machine(optimized: bool, nodes: usize, block_size: usize) -> MachineConfig {
    let m = if optimized {
        MachineConfig::predictive(nodes, block_size)
    } else {
        MachineConfig::stache(nodes, block_size)
    };
    m.with_retry(patient_retry())
}

fn bar(label: String, mcfg: MachineConfig, run: impl Fn(MachineConfig) -> AppRun) -> Bar {
    eprintln!("running {label} ...");
    Bar { report: run(mcfg).report, label }
}

/// The C\*\* versions of Figures 5 and 6: unoptimized, then optimized, at
/// each block size.
fn cstar_bars(nodes: usize, sizes: [usize; 2], run: impl Fn(MachineConfig) -> AppRun) -> Vec<Bar> {
    let mut bars = Vec::new();
    for bs in sizes {
        for optimized in [false, true] {
            let label = format!("C** {}optimized ({bs}B)", if optimized { "" } else { "un" });
            bars.push(bar(label, machine(optimized, nodes, bs), &run));
        }
    }
    bars
}

// ---- Figure 4 -------------------------------------------------------------

const BARNES: &str = include_str!("../../models/barnes.cstar");

/// Figure 4: the control-flow graph of the Barnes main loop, annotated
/// with parallel-function access lists (a), and with the runtime phase
/// directives placed by the compiler analysis (b) — including the
/// coalescing optimization that leaves a *single* directive covering the
/// whole center-of-mass loop. The loop is the C\*\* model in
/// `models/barnes.cstar`, compiled like any other program.
fn fig4(_: Scale, _: Inputs) {
    let prog = compile_diag(BARNES, true, ClassifyRules::default()).expect("the model compiles");
    let (cfg, sol, plan) = (&prog.cfg, &prog.reaching, &prog.plan);

    println!("== Figure 4(a): Barnes main-loop CFG with access lists ==\n");
    for (i, node) in cfg.nodes.iter().enumerate() {
        match node {
            CfgNode::Call(c) => {
                let acc: Vec<String> = c
                    .access
                    .iter()
                    .filter(|(_, pa)| pa.any())
                    .map(|(a, pa)| format!("({a}: {})", pa.describe()))
                    .collect();
                println!("  n{i}: {}  {}", c.func, acc.join(" "));
            }
            CfgNode::LoopHead { label } => println!("  n{i}: loop head `{label}`"),
            other => println!("  n{i}: {other:?}"),
        }
        if !cfg.succs[i].is_empty() {
            println!("       -> {:?}", cfg.succs[i]);
        }
    }

    println!("\n== Reaching unstructured accesses (at each call's entry) ==\n");
    for &n in &cfg.call_nodes() {
        let c = cfg.call(n).unwrap();
        let reached: Vec<&str> = cfg
            .aggs
            .iter()
            .enumerate()
            .filter(|(b, _)| sol.reaches(n, *b))
            .map(|(_, a)| a.as_str())
            .collect();
        println!("  {:<16} reached by: {{{}}}", c.func, reached.join(", "));
    }

    println!("\n== Figure 4(b): with predictive-protocol phase directives ==\n");
    print!("{}", render_plan(cfg, plan));
    println!(
        "\n{} parallel phases placed (paper: 4 phases for Barnes, with a \
         single directive covering the center-of-mass loop).",
        plan.assignment.n_phases
    );

    let unopt = place_directives(cfg, sol, false);
    println!(
        "Without the coalescing/hoisting optimization: {} phases (directive \
         inside the center-of-mass loop, re-executed every level).",
        unopt.assignment.n_phases
    );

    println!("\n== Plan audit (cstar-lint W001/W002/W007) ==\n");
    let lints = lint_program(&prog);
    let findings: Vec<_> = ["W001", "W002", "W007"]
        .iter()
        .flat_map(|code| lints.iter().filter(move |d| d.code == *code))
        .collect();
    if findings.is_empty() {
        println!("  no findings");
    }
    for d in &findings {
        println!("  {d}");
    }
}

// ---- Figures 5-7 ----------------------------------------------------------

/// Figure 5: execution time for four versions of **Adaptive** — C\*\*
/// with and without optimized communication at two cache-block sizes
/// (32 B and 256 B), stacked into remote-data wait / predictive protocol /
/// compute+synch.
///
/// Paper's shape: the predictive protocol cuts shared-data wait *and*
/// synchronization time (the wait imbalance feeds the barriers); at 256 B
/// the unoptimized version improves (spatial locality) while pre-sending
/// gets less effective (redundant data), and the best optimized version is
/// ~1.56× faster than the best unoptimized one.
fn fig5(scale: Scale, i: Inputs) {
    let cfg = i.adaptive;
    let bars = cstar_bars(scale.nodes, [32, 256], |m| run_adaptive(m, &cfg));
    let title = format!(
        "Figure 5: Adaptive ({}x{} mesh, {} iterations, {} nodes)",
        cfg.n, cfg.n, cfg.iters, scale.nodes
    );
    println!("{}", render_figure(&title, &bars));

    let best_unopt = if speedup(&bars[0], &bars[2]) > 1.0 { &bars[2] } else { &bars[0] };
    let best_opt = if speedup(&bars[1], &bars[3]) > 1.0 { &bars[3] } else { &bars[1] };
    println!(
        "best optimized vs best unoptimized: {:.2}x (paper: 1.56x)",
        speedup(best_unopt, best_opt)
    );
}

/// Figure 6: execution time for five versions of **Barnes** — C\*\* with
/// and without optimized communication at 32 B and 1024 B cache blocks,
/// plus the hand-optimized SPMD version using an application-specific
/// write-update protocol (Falsafi et al.).
///
/// Paper's shape: at 32 B the predictive protocol removes most of the
/// shared-memory wait; Barnes has excellent spatial locality, so the
/// unoptimized version benefits enormously from 1024 B blocks and ends up
/// marginally faster than the optimized one; both 1024 B versions edge out
/// the hand-optimized SPMD code.
fn fig6(scale: Scale, i: Inputs) {
    let cfg = i.barnes;
    let mut bars = cstar_bars(scale.nodes, [32, 1024], |m| run_barnes(m, &cfg));
    let spmd = machine(true, scale.nodes, 1024);
    bars.push(bar("hand-opt SPMD update (1024B)".into(), spmd, |m| run_barnes_spmd(m, &cfg)));
    let title = format!(
        "Figure 6: Barnes ({} bodies, {} iterations, {} nodes)",
        cfg.n, cfg.steps, scale.nodes
    );
    println!("{}", render_figure(&title, &bars));

    println!(
        "opt(32B) vs unopt(32B): {:.2}x  (paper: optimization wins clearly at 32B)",
        speedup(&bars[0], &bars[1])
    );
    println!(
        "unopt(1024B) vs opt(1024B): {:.2}x  (paper: unopt marginally faster at 1024B)",
        speedup(&bars[3], &bars[2])
    );
    println!(
        "C** opt(1024B) vs SPMD: {:.2}x  (paper: both 1024B versions slightly faster than SPMD)",
        speedup(&bars[4], &bars[3])
    );
}

const BLOCK_SIZES: [usize; 6] = [32, 64, 128, 256, 512, 1024];

/// The fastest of `run` across [`BLOCK_SIZES`] (the smaller block on a
/// tie), labelled with its size.
fn best_of(
    label: &str,
    nodes: usize,
    optimized: bool,
    run: impl Fn(MachineConfig) -> AppRun,
) -> Bar {
    BLOCK_SIZES
        .map(|bs| bar(format!("{label} ({bs}B)"), machine(optimized, nodes, bs), &run))
        .into_iter()
        .min_by_key(|b| b.report.exec_time_ns())
        .expect("six block sizes")
}

/// Figure 7: execution time for three versions of **Water** — C\*\* with
/// and without optimized communication, and the Splash-style version
/// (transparent shared memory, no custom protocols). As in the paper, each
/// version runs at its own best cache-block size (found by a small sweep).
///
/// Paper's shape: the optimized version is modestly faster than the
/// unoptimized one (1.05–1.07×) and ~1.2× faster than Splash.
fn fig7(scale: Scale, i: Inputs) {
    let (cfg, nodes) = (i.water, scale.nodes);
    let bars = [
        best_of("C** unoptimized", nodes, false, |m| run_water(m, &cfg)),
        best_of("C** optimized", nodes, true, |m| run_water(m, &cfg)),
        best_of("Splash (transparent shm)", nodes, false, |m| run_splash_water(m, &cfg)),
    ];
    let title = format!(
        "Figure 7: Water ({} molecules, {} steps, {} nodes; best block size per version)",
        cfg.n, cfg.steps, nodes
    );
    println!("{}", render_figure(&title, &bars));

    println!("opt vs unopt: {:.2}x (paper: 1.05-1.07x)", speedup(&bars[0], &bars[1]));
    println!("opt vs Splash: {:.2}x (paper: 1.2x)", speedup(&bars[2], &bars[1]));
}

// ---- Table 1 and the block-size sweep -------------------------------------

/// Table 1: the benchmark applications and their data sets, with the
/// inputs Figures 5–7 run at this scale.
fn table1(scale: Scale, _: Inputs) {
    let data_sets = |s: Scale| {
        let (a, b, w) =
            (inputs("fig5", s).adaptive, inputs("fig6", s).barnes, inputs("fig7", s).water);
        [
            format!("{}x{} mesh, {} iterations", a.n, a.n, a.iters),
            format!("{} bodies, {} iterations", b.n, b.steps),
            format!("{} molecules, {} iterations", w.n, w.steps),
        ]
    };
    println!("== Table 1: Benchmark applications ==\n");
    println!(
        "{:<10} {:<36} {:<30} {:<30}",
        "Program", "Brief description", "Paper data set", "This run"
    );
    let programs = [
        ("Adaptive", "Structured adaptive mesh"),
        ("Barnes", "Gravitational N-body simulation"),
        ("Water", "Molecular dynamics"),
    ];
    let paper = data_sets(Scale { paper: true, ..scale });
    for (((p, d), ds), run) in programs.iter().zip(paper).zip(data_sets(scale)) {
        println!("{p:<10} {d:<36} {ds:<30} {run:<30}");
    }
    println!(
        "\nMachine: {} emulated nodes (paper: 32-processor CM-5 under Blizzard).",
        scale.nodes
    );
    println!("Pass --paper for the full Table 1 data sets.");
}

/// §5.4 block-size sensitivity: execution time of each application under
/// both protocols across cache-block sizes 32–1024 B.
///
/// Paper's observation: "the predictive protocol worked best for small
/// cache blocks (the smallest being 32 bytes), while the unoptimized or
/// hand-tuned SPMD codes were able to exploit larger cache blocks
/// effectively."
fn sweep(scale: Scale, i: Inputs) {
    let apps = i.apps();
    let names: Vec<String> =
        apps.iter().map(|(app, config, _)| format!("{app} {config}")).collect();
    println!("== Block-size sweep ({} nodes) ==", scale.nodes);
    println!("inputs: {}", names.join("; "));
    println!(
        "{:<10} {:>6}  {:>14} {:>14} {:>9}",
        "app", "block", "unopt(ms)", "opt(ms)", "opt/unopt"
    );
    for (app, _, run) in apps {
        for bs in BLOCK_SIZES {
            let ms = |optimized| {
                run(machine(optimized, scale.nodes, bs)).report.exec_time_ns() as f64 / 1e6
            };
            let (ut, ot) = (ms(false), ms(true));
            println!("{app:<10} {bs:>5}B  {ut:>14.2} {ot:>14.2} {:>9.2}", ot / ut);
        }
    }
}
