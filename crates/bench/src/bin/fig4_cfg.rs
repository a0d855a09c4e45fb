//! Figure 4: the control-flow graph of the Barnes main loop, annotated
//! with parallel-function access lists (a), and with the runtime phase
//! directives placed by the compiler analysis (b) — including the
//! coalescing optimization that leaves a *single* directive covering the
//! whole center-of-mass loop. The loop is the C\*\* model in
//! `models/barnes.cstar`, compiled like any other program.

use prescient_cstar::directives::{place_directives, render_plan};
use prescient_cstar::sema::ClassifyRules;
use prescient_cstar::{compile_diag, lint_program};

const BARNES: &str = include_str!("../../models/barnes.cstar");

fn main() {
    let prog = compile_diag(BARNES, true, ClassifyRules::default()).expect("the model compiles");
    let (cfg, sol, plan) = (&prog.cfg, &prog.reaching, &prog.plan);

    println!("== Figure 4(a): Barnes main-loop CFG with access lists ==\n");
    for (i, node) in cfg.nodes.iter().enumerate() {
        match node {
            prescient_cstar::cfg::CfgNode::Call(c) => {
                let acc: Vec<String> = c
                    .access
                    .iter()
                    .filter(|(_, pa)| pa.any())
                    .map(|(a, pa)| format!("({a}: {})", pa.describe()))
                    .collect();
                println!("  n{i}: {}  {}", c.func, acc.join(" "));
            }
            prescient_cstar::cfg::CfgNode::LoopHead { label } => {
                println!("  n{i}: loop head `{label}`");
            }
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
