//! End-to-end compiler tests: parse → analyze → place directives →
//! interpret on a live DSM machine, under both protocols, checking results
//! against sequential expectations and checking that the *compiler-placed*
//! directives (not hand annotations) drive the predictive protocol.

use prescient_cstar::compile::compile;
use prescient_cstar::interp::{materialize, read_aggregate_f64, run_program};
use prescient_runtime::{Machine, MachineConfig};

const JACOBI: &str = r#"
    aggregate G[16][16] of float;
    aggregate H[16][16] of float;

    parallel fn sweep(g, h) {
        if #0 > 0 {
            if #0 < 15 {
                if #1 > 0 {
                    if #1 < 15 {
                        h[#0][#1] = 0.25 * (g[#0-1][#1] + g[#0+1][#1] + g[#0][#1-1] + g[#0][#1+1]);
                    }
                }
            }
        }
    }

    fn main() {
        for it in 0 .. 4 {
            sweep(G, H);
            sweep(H, G);
        }
    }
"#;

/// Sequential reference for the Jacobi program above (interior sweeps,
/// boundary held at its initial values; note H starts equal to G so
/// untouched boundary cells agree).
fn jacobi_reference(n: usize, iters: usize, init: impl Fn(usize, usize) -> f64) -> Vec<f64> {
    let mut g: Vec<f64> = (0..n * n).map(|k| init(k / n, k % n)).collect();
    let mut h = g.clone();
    for _ in 0..iters {
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                h[i * n + j] = 0.25
                    * (g[(i - 1) * n + j]
                        + g[(i + 1) * n + j]
                        + g[i * n + j - 1]
                        + g[i * n + j + 1]);
            }
        }
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                g[i * n + j] = 0.25
                    * (h[(i - 1) * n + j]
                        + h[(i + 1) * n + j]
                        + h[i * n + j - 1]
                        + h[i * n + j + 1]);
            }
        }
    }
    g
}

fn init_value(i: usize, j: usize) -> f64 {
    (i * 31 + j * 7) as f64 % 17.0
}

fn run_jacobi(cfg: MachineConfig) -> (Vec<f64>, prescient_runtime::RunReport) {
    let prog = compile(JACOBI).expect("compiles");
    let mut machine = Machine::new(cfg);
    let aggs = materialize(&machine, &prog);
    let report = run_program(&mut machine, &prog, &aggs, |ctx, aggs| {
        // Owners initialize both grids identically.
        use prescient_cstar::interp::AggStore;
        for name in ["G", "H"] {
            if let AggStore::F2(a) = &aggs[name] {
                for i in a.my_rows(ctx.me()) {
                    for j in 0..a.cols() {
                        ctx.write(a.addr(i, j), init_value(i, j));
                    }
                }
            }
        }
    });
    let vals = read_aggregate_f64(&mut machine, &aggs, "G");
    (vals, report)
}

#[test]
fn compiled_jacobi_matches_reference_under_both_protocols() {
    let expect = jacobi_reference(16, 4, init_value);
    for cfg in [MachineConfig::stache(4, 32), MachineConfig::predictive(4, 32)] {
        let predictive = cfg.protocol.is_predictive();
        let (got, _) = run_jacobi(cfg);
        for (k, (&g, &e)) in got.iter().zip(&expect).enumerate() {
            assert!((g - e).abs() < 1e-12, "cell {k}: {g} vs {e} (predictive={predictive})");
        }
    }
}

#[test]
fn compiled_directives_drive_presend() {
    let (_, unopt) = run_jacobi(MachineConfig::stache(4, 32));
    let (_, opt) = run_jacobi(MachineConfig::predictive(4, 32));
    let mu = unopt.total_stats().misses();
    let mo = opt.total_stats().misses();
    assert!(mo < mu, "compiler-placed directives must reduce misses: {mo} vs {mu}");
    assert!(opt.total_stats().presend_blocks_out > 0, "pre-sends must have happened");
    assert!(opt.mean_breakdown().wait_ns < unopt.mean_breakdown().wait_ns);
}

/// Figure 3's unstructured bipartite-mesh update, with an indirection
/// array: the compiler cannot see the pattern, but the predictive
/// protocol learns it at run time.
#[test]
fn unstructured_mesh_update_via_indirection() {
    let src = r#"
        aggregate Primal[64] of float;
        aggregate Dual[64] of float;
        aggregate Nbr[64] of int;

        parallel fn update(primal, dual, nbr) {
            let k = nbr[#0];
            primal[#0] = primal[#0] + 0.5 * dual[k];
        }

        parallel fn relax_dual(dual, primal, nbr) {
            let k = nbr[#0];
            dual[#0] = 0.9 * dual[#0] + 0.1 * primal[k];
        }

        fn main() {
            for t in 0 .. 5 {
                update(Primal, Dual, Nbr);
                relax_dual(Dual, Primal, Nbr);
            }
        }
    "#;
    let prog = compile(src).unwrap();
    // Both calls are unstructured: two phases.
    assert_eq!(prog.plan.assignment.n_phases, 2);

    let n = 64usize;
    // A fixed scrambled neighbor map (deterministic, crosses partitions).
    let nbr = |i: usize| -> i64 { ((i * 37 + 11) % n) as i64 };

    let run = |cfg: MachineConfig| -> (Vec<f64>, prescient_runtime::RunReport) {
        let mut machine = Machine::new(cfg);
        let aggs = materialize(&machine, &prog);
        let report = run_program(&mut machine, &prog, &aggs, |ctx, aggs| {
            use prescient_cstar::interp::AggStore;
            if let AggStore::F1(a) = &aggs["Primal"] {
                for i in a.my_range(ctx.me()) {
                    ctx.write(a.addr(i), i as f64);
                }
            }
            if let AggStore::F1(a) = &aggs["Dual"] {
                for i in a.my_range(ctx.me()) {
                    ctx.write(a.addr(i), (2 * i) as f64);
                }
            }
            if let AggStore::I1(a) = &aggs["Nbr"] {
                for i in a.my_range(ctx.me()) {
                    ctx.write(a.addr(i), nbr(i));
                }
            }
        });
        let vals = read_aggregate_f64(&mut machine, &aggs, "Primal");
        (vals, report)
    };

    // Sequential reference.
    let mut primal: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut dual: Vec<f64> = (0..n).map(|i| (2 * i) as f64).collect();
    for _ in 0..5 {
        let d0 = dual.clone();
        for i in 0..n {
            primal[i] += 0.5 * d0[nbr(i) as usize];
        }
        let p0 = primal.clone();
        for i in 0..n {
            dual[i] = 0.9 * dual[i] + 0.1 * p0[nbr(i) as usize];
        }
    }

    let (got_u, rep_u) = run(MachineConfig::stache(4, 32));
    let (got_o, rep_o) = run(MachineConfig::predictive(4, 32));
    for k in 0..n {
        assert!((got_u[k] - primal[k]).abs() < 1e-9, "unopt cell {k}");
        assert!((got_o[k] - primal[k]).abs() < 1e-9, "opt cell {k}");
    }
    // The learned schedule must shrink misses for the irregular pattern.
    assert!(
        rep_o.total_stats().misses() < rep_u.total_stats().misses(),
        "{} vs {}",
        rep_o.total_stats().misses(),
        rep_u.total_stats().misses()
    );
}

/// A home-only program needs no directives at all, and both protocols
/// behave identically (no pre-sends, no misses after initialization).
#[test]
fn home_only_program_gets_no_directives() {
    let src = r#"
        aggregate A[32] of float;
        parallel fn scale(a) { a[#0] = a[#0] * 1.5; }
        fn main() {
            for t in 0 .. 3 { scale(A); }
        }
    "#;
    let prog = compile(src).unwrap();
    assert_eq!(prog.plan.assignment.n_phases, 0, "no communication, no phases");

    let mut machine = Machine::new(MachineConfig::predictive(2, 32));
    let aggs = materialize(&machine, &prog);
    let report = run_program(&mut machine, &prog, &aggs, |ctx, aggs| {
        use prescient_cstar::interp::AggStore;
        if let AggStore::F1(a) = &aggs["A"] {
            for i in a.my_range(ctx.me()) {
                ctx.write(a.addr(i), 2.0);
            }
        }
    });
    assert_eq!(report.total_stats().misses(), 0, "home-only program never misses");
    assert_eq!(report.total_stats().presend_blocks_out, 0);
    let vals = read_aggregate_f64(&mut machine, &aggs, "A");
    assert!(vals.iter().all(|&v| (v - 2.0 * 1.5f64.powi(3)).abs() < 1e-12));
}

/// Integer aggregates work end to end (the indirection arrays of adaptive
/// codes).
#[test]
fn integer_aggregates_roundtrip() {
    let src = r#"
        aggregate P[16] of int;
        parallel fn bump(p) { p[#0] = p[#0] + 2; }
        fn main() { for t in 0 .. 4 { bump(P); } }
    "#;
    let prog = compile(src).unwrap();
    let mut machine = Machine::new(MachineConfig::stache(2, 32));
    let aggs = materialize(&machine, &prog);
    run_program(&mut machine, &prog, &aggs, |ctx, aggs| {
        use prescient_cstar::interp::AggStore;
        if let AggStore::I1(a) = &aggs["P"] {
            for i in a.my_range(ctx.me()) {
                ctx.write(a.addr(i), i as i64);
            }
        }
    });
    let vals = read_aggregate_f64(&mut machine, &aggs, "P");
    for (i, v) in vals.iter().enumerate() {
        assert_eq!(*v, (i + 8) as f64);
    }
}

/// Control flow inside parallel functions: `for` loops and `if/else`
/// evaluate correctly through the DSM (a blur that only touches cells
/// above a threshold, with an inner smoothing loop).
#[test]
fn dsl_control_flow_executes() {
    let src = r#"
        aggregate A[24] of float;
        parallel fn sharpen(a) {
            if a[#0] > 4.0 {
                for t in 0 .. 3 {
                    a[#0] = a[#0] - 1.0;
                }
            } else {
                a[#0] = a[#0] + 0.5;
            }
        }
        fn main() { for it in 0 .. 2 { sharpen(A); } }
    "#;
    let prog = compile(src).unwrap();
    let mut machine = Machine::new(MachineConfig::stache(3, 32));
    let aggs = materialize(&machine, &prog);
    run_program(&mut machine, &prog, &aggs, |ctx, aggs| {
        use prescient_cstar::interp::AggStore;
        if let AggStore::F1(a) = &aggs["A"] {
            for i in a.my_range(ctx.me()) {
                ctx.write(a.addr(i), i as f64);
            }
        }
    });
    let got = read_aggregate_f64(&mut machine, &aggs, "A");
    // Sequential model.
    let mut a: Vec<f64> = (0..24).map(|i| i as f64).collect();
    for _ in 0..2 {
        for v in a.iter_mut() {
            if *v > 4.0 {
                *v -= 3.0;
            } else {
                *v += 0.5;
            }
        }
    }
    for (k, (&g, &e)) in got.iter().zip(&a).enumerate() {
        assert!((g - e).abs() < 1e-12, "cell {k}: {g} vs {e}");
    }
}

/// Modulo, comparisons and builtins through the interpreter.
#[test]
fn dsl_builtins_and_mod() {
    let src = r#"
        aggregate A[16] of int;
        parallel fn f(a) {
            let v = a[#0];
            a[#0] = max(v % 5, min(v, 3)) + abs(0 - 1);
        }
        fn main() { f(A); }
    "#;
    let prog = compile(src).unwrap();
    let mut machine = Machine::new(MachineConfig::stache(2, 32));
    let aggs = materialize(&machine, &prog);
    run_program(&mut machine, &prog, &aggs, |ctx, aggs| {
        use prescient_cstar::interp::AggStore;
        if let AggStore::I1(a) = &aggs["A"] {
            for i in a.my_range(ctx.me()) {
                ctx.write(a.addr(i), i as i64);
            }
        }
    });
    let got = read_aggregate_f64(&mut machine, &aggs, "A");
    for (i, &g) in got.iter().enumerate() {
        let v = i as i64;
        let expect = (v % 5).max(v.min(3)) + 1;
        assert_eq!(g, expect as f64, "cell {i}");
    }
}

// ---- the four example programs, pinned -----------------------------------

/// One `examples/*.cstar` program on 4 nodes with 32-byte blocks, seeded
/// contents, under one protocol.
fn run_example(name: &str, predictive: bool) -> prescient_runtime::RunReport {
    let path = format!("{}/../../examples/{name}.cstar", env!("CARGO_MANIFEST_DIR"));
    let prog = compile(&std::fs::read_to_string(path).expect("example source")).expect("compiles");
    let mut cfg =
        if predictive { MachineConfig::predictive(4, 32) } else { MachineConfig::stache(4, 32) };
    // No host scheduling delay may pass for a lost message.
    cfg.retry.timeout = std::time::Duration::from_secs(30);
    let mut machine = Machine::new(cfg);
    let aggs = materialize(&machine, &prog);
    run_program(&mut machine, &prog, &aggs, prescient_cstar::interp::seeded_init(7))
}

/// Recorded at the commit before the interpreter took affine read sites in
/// run form: `(example, predictive, [vtime_ns, reads, writes, read_misses,
/// write_misses, msgs_out, presend_blocks_out, data_bytes_in])`. Reading a
/// row ahead of its invocations must leave every one where it was.
/// `transport` has three run-form sites, `jacobi` none.
const EXAMPLE_PINS: [(&str, bool, [u64; 8]); 4] = [
    ("jacobi", false, [6_425_120, 1488, 744, 72, 66, 408, 0, 2304]),
    ("jacobi", true, [2_751_120, 1488, 744, 12, 12, 408, 60, 2304]),
    ("transport", false, [28_202_880, 5120, 2048, 496, 240, 2464, 0, 15_872]),
    ("transport", true, [9_489_880, 5120, 2048, 62, 30, 2408, 434, 15_872]),
];

#[test]
fn example_programs_report_the_counters_they_did_per_word() {
    for (name, predictive, want) in EXAMPLE_PINS {
        let r = run_example(name, predictive);
        let t = r.total_stats();
        let got = [
            r.exec_time_ns(),
            t.reads,
            t.writes,
            t.read_misses,
            t.write_misses,
            t.msgs_out,
            t.presend_blocks_out,
            t.data_bytes_in,
        ];
        assert_eq!(got, want, "{name}, predictive={predictive}");
    }
    // `relax` and `histogram` write one block from two nodes, so their
    // protocol counters depend on who wins; what the programs themselves
    // do does not.
    for (name, reads, writes) in [("relax", 4800, 1600), ("histogram", 768, 256)] {
        for predictive in [false, true] {
            let t = run_example(name, predictive).total_stats();
            assert_eq!((t.reads, t.writes), (reads, writes), "{name}, predictive={predictive}");
        }
    }
}

// ---- run-form sites ------------------------------------------------------

/// Compile `src`, fill every float aggregate with `init(name, row-major
/// index)`, run, and return the named aggregate with the run's report.
fn run_filled(
    src: &str,
    cfg: MachineConfig,
    init: impl Fn(&str, usize) -> f64 + Sync,
    result: &str,
) -> (Vec<f64>, prescient_runtime::RunReport) {
    use prescient_cstar::interp::AggStore;
    let prog = compile(src).expect("compiles");
    let mut machine = Machine::new(cfg);
    let aggs = materialize(&machine, &prog);
    let report = run_program(&mut machine, &prog, &aggs, |ctx, aggs| {
        for (name, store) in aggs {
            match store {
                AggStore::F1(a) => {
                    a.my_range(ctx.me()).for_each(|i| ctx.write(a.addr(i), init(name, i)));
                }
                AggStore::F2(a) => {
                    for (i, j) in
                        a.my_rows(ctx.me()).flat_map(|i| (0..a.cols()).map(move |j| (i, j)))
                    {
                        ctx.write(a.addr(i, j), init(name, i * a.cols() + j));
                    }
                }
                _ => unreachable!("float aggregates only"),
            }
        }
    });
    (read_aggregate_f64(&mut machine, &aggs, result), report)
}

/// Affine sites with offsets, 1-D and 2-D, whose rows lie partly on other
/// nodes: the row read ahead is the row the invocations would have read.
#[test]
fn offset_sites_in_run_form_read_the_shifted_row() {
    let src = r#"
        aggregate H[6][8] of float;
        aggregate W[7][9] of float;
        aggregate Out[10] of float;
        aggregate Inp[12] of float;
        parallel fn lift(h, w) { h[#0][#1] = 2.0 * w[#0+1][#1+1] + w[#0][#1]; }
        parallel fn slide(out, inp) { out[#0] = inp[#0+2] - inp[#0]; }
        fn main() { lift(H, W); slide(Out, Inp); }
    "#;
    let sums = compile(src).unwrap().summaries;
    assert_eq!((sums["lift"].hoisted().count(), sums["slide"].hoisted().count()), (2, 2));
    let init = |name: &str, k: usize| {
        if name == "W" {
            (100 * (k / 9) + k % 9) as f64
        } else {
            (k * k) as f64
        }
    };
    for nodes in 1..=3 {
        for cfg in [MachineConfig::stache(nodes, 32), MachineConfig::predictive(nodes, 32)] {
            let (h, report) = run_filled(src, cfg.clone(), init, "H");
            let want: Vec<f64> = (0..48)
                .map(|k| (k / 8, k % 8))
                .map(|(i, j)| (2 * (100 * (i + 1) + j + 1) + 100 * i + j) as f64)
                .collect();
            assert_eq!(h, want, "{nodes} nodes");
            let (out, _) = run_filled(src, cfg, init, "Out");
            let want: Vec<f64> = (0..10).map(|i| ((i + 2) * (i + 2) - i * i) as f64).collect();
            assert_eq!(out, want, "{nodes} nodes");
            // Two reads per invocation, in run form or not.
            assert_eq!(report.total_stats().reads, 2 * 48 + 2 * 10, "{nodes} nodes");
        }
    }
}

/// A call that binds one aggregate to a read parameter and a written one:
/// each invocation must see the store the one before it made, so the read
/// site, hoisted by the summary, is not read ahead for this call.
#[test]
fn an_aliased_call_keeps_its_reads_per_word() {
    let src = r#"
        aggregate P[7] of float;
        aggregate A[8] of float;
        parallel fn chain(p, dst, src) { dst[#0+1] = src[#0] + 1.0; }
        fn main() { chain(P, A, A); }
    "#;
    assert_eq!(compile(src).unwrap().summaries["chain"].hoisted().count(), 1);
    let (a, _) = run_filled(src, MachineConfig::stache(1, 32), |_, _| 0.0, "A");
    assert_eq!(a, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
}
