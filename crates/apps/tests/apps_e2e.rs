//! End-to-end application tests at test scale: every application's DSM run
//! matches its sequential reference under both protocols, the predictive
//! protocol reduces misses/remote wait on each, and the baselines behave
//! as modeled.

use prescient_apps::adaptive::{run_adaptive_full, seq_adaptive, AdaptiveConfig};
use prescient_apps::barnes::{
    barnes_final_positions, initial_bodies, run_barnes, run_barnes_spmd, seq_barnes, BarnesConfig,
};
use prescient_apps::water::{
    initial_positions, run_splash_water, run_water, seq_water, water_final_positions, WaterConfig,
};
use prescient_runtime::MachineConfig;

const NODES: usize = 4;
const BS: usize = 32;

fn wcfg() -> WaterConfig {
    WaterConfig { n: 64, steps: 4, ..Default::default() }
}

fn bcfg() -> BarnesConfig {
    BarnesConfig { n: 192, steps: 2, ..Default::default() }
}

fn acfg() -> AdaptiveConfig {
    AdaptiveConfig { n: 12, iters: 4, tau: 0.4, max_depth: 2, flush_every: None }
}

/// The paper-scale inputs, bit for bit as `rand` 0.8's `SmallRng` and
/// `gen_range` drew them at the parent commit: the first two and the last
/// element of each.
#[test]
fn input_generators_equal_the_parent_commits() {
    let probe =
        |pos: &[[f64; 3]]| [pos[0], pos[1], pos[pos.len() - 1]].map(|p| p.map(f64::to_bits));
    let water = initial_positions(&WaterConfig::default());
    assert_eq!(water.len(), 512);
    assert_eq!(
        probe(&water),
        [
            [0x3fdffdcad434d4a7, 0x3fdf0c31a99f76ec, 0x3fe088463a6bb33b],
            [0x3fdf4838d3a1fe5b, 0x3fe1c7432d4fdb6a, 0x3ff93541ab8159fd],
            [0x40203e95c0fad57c, 0x40202154aff8a3ca, 0x40201dcec21a44a2],
        ]
    );
    let (bodies, mass) = initial_bodies(&BarnesConfig::default());
    assert_eq!((bodies.len(), mass[0]), (16384, 1.0 / 16384.0));
    assert_eq!(
        probe(&bodies),
        [
            [0x3fcd5fd564913acc, 0x3fd67e11dea7830b, 0x3fd327f17f7e900a],
            [0x3fe56ac82f849734, 0x3fe312887232448b, 0x3fd796d232a7198c],
            [0x3fe56e37cc90f7cc, 0x3fc6634b0eb9ef08, 0x3feb681c00e69a60],
        ]
    );
}

#[test]
fn water_matches_sequential_under_both_protocols() {
    let cfg = wcfg();
    let expect = seq_water(&cfg);
    for mcfg in [MachineConfig::stache(NODES, BS), MachineConfig::predictive(NODES, BS)] {
        let got = water_final_positions(mcfg.clone(), &cfg);
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            for k in 0..3 {
                assert!(
                    (g[k] - e[k]).abs() < 1e-9,
                    "molecule {i} axis {k}: {} vs {} (predictive={})",
                    g[k],
                    e[k],
                    mcfg.protocol.is_predictive()
                );
            }
        }
    }
}

#[test]
fn water_predictive_reduces_misses() {
    let cfg = wcfg();
    let unopt = run_water(MachineConfig::stache(NODES, BS), &cfg);
    let opt = run_water(MachineConfig::predictive(NODES, BS), &cfg);
    assert_eq!(unopt.checksum, opt.checksum, "same physics either way");
    let (mu, mo) = (unopt.report.total_stats().misses(), opt.report.total_stats().misses());
    assert!(mo < mu / 2, "water misses: {mo} vs {mu}");
    assert!(opt.report.mean_breakdown().wait_ns < unopt.report.mean_breakdown().wait_ns);
    assert!(opt.report.total_stats().presend_blocks_out > 0);
}

#[test]
fn splash_water_same_physics_no_presend() {
    let cfg = wcfg();
    let cc = run_water(MachineConfig::stache(NODES, BS), &cfg);
    let splash = run_splash_water(MachineConfig::stache(NODES, BS), &cfg);
    assert!(
        (cc.checksum - splash.checksum).abs() < 1e-6 * cc.checksum.abs().max(1.0),
        "{} vs {}",
        cc.checksum,
        splash.checksum
    );
    assert_eq!(splash.report.total_stats().presend_blocks_out, 0);
    // The shared-memory reduction costs extra remote traffic.
    assert!(
        splash.report.total_stats().misses() > cc.report.total_stats().misses(),
        "splash should communicate more: {} vs {}",
        splash.report.total_stats().misses(),
        cc.report.total_stats().misses()
    );
}

#[test]
fn barnes_matches_sequential_under_both_protocols() {
    let cfg = bcfg();
    let expect = seq_barnes(&cfg);
    for mcfg in [MachineConfig::stache(NODES, BS), MachineConfig::predictive(NODES, BS)] {
        let got = barnes_final_positions(mcfg.clone(), &cfg);
        for (i, (g, e)) in got.iter().zip(&expect).enumerate() {
            for k in 0..3 {
                assert!(
                    (g[k] - e[k]).abs() < 1e-9,
                    "body {i} axis {k}: {} vs {} (predictive={})",
                    g[k],
                    e[k],
                    mcfg.protocol.is_predictive()
                );
            }
        }
    }
}

#[test]
fn barnes_predictive_reduces_wait() {
    let cfg = BarnesConfig { n: 192, steps: 3, ..Default::default() };
    let unopt = run_barnes(MachineConfig::stache(NODES, BS), &cfg);
    let opt = run_barnes(MachineConfig::predictive(NODES, BS), &cfg);
    assert_eq!(unopt.checksum, opt.checksum);
    let (mu, mo) = (unopt.report.total_stats().misses(), opt.report.total_stats().misses());
    assert!(mo < mu, "barnes misses: {mo} vs {mu}");
    assert!(
        opt.report.mean_breakdown().wait_ns < unopt.report.mean_breakdown().wait_ns,
        "wait: {} vs {}",
        opt.report.mean_breakdown().wait_ns,
        unopt.report.mean_breakdown().wait_ns
    );
}

#[test]
fn barnes_spmd_baseline_matches_and_presends() {
    let cfg = bcfg();
    let auto = run_barnes(MachineConfig::predictive(NODES, BS), &cfg);
    let spmd = run_barnes_spmd(MachineConfig::predictive(NODES, BS), &cfg);
    assert_eq!(auto.checksum, spmd.checksum, "same physics");
    // The manual write-update schedule pushes data without any recording.
    assert!(spmd.report.total_stats().presend_blocks_out > 0);
    assert_eq!(spmd.report.total_stats().sched_records, 0, "no recording in SPMD mode");
}

#[test]
fn adaptive_matches_sequential_under_both_protocols() {
    let cfg = acfg();
    let seq = seq_adaptive(&cfg);
    for mcfg in [MachineConfig::stache(NODES, BS), MachineConfig::predictive(NODES, BS)] {
        let (_, roots, depths) = run_adaptive_full(mcfg.clone(), &cfg);
        for i in 0..cfg.n {
            for j in 0..cfg.n {
                let k = i * cfg.n + j;
                assert_eq!(
                    depths[k],
                    seq.depths[k],
                    "depth mismatch at ({i},{j}) predictive={}",
                    mcfg.protocol.is_predictive()
                );
                assert!(
                    (roots[k] - seq.roots[k]).abs() < 1e-12,
                    "root mismatch at ({i},{j}): {} vs {}",
                    roots[k],
                    seq.roots[k]
                );
            }
        }
    }
}

#[test]
fn adaptive_predictive_reduces_wait_and_schedule_grows() {
    let cfg = AdaptiveConfig { n: 12, iters: 6, tau: 0.4, max_depth: 2, flush_every: None };
    let (unopt, _, _) = run_adaptive_full(MachineConfig::stache(NODES, BS), &cfg);
    let (opt, _, depths) = run_adaptive_full(MachineConfig::predictive(NODES, BS), &cfg);
    assert!(depths.iter().any(|&d| d > 0), "refinement must happen");
    let (mu, mo) = (unopt.report.total_stats().misses(), opt.report.total_stats().misses());
    assert!(mo < mu, "adaptive misses: {mo} vs {mu}");
    assert!(opt.report.mean_breakdown().wait_ns < unopt.report.mean_breakdown().wait_ns);
    // Incremental growth: schedules recorded entries over the run.
    assert!(opt.report.total_stats().sched_records > 0);
}

// ---- the modelled machine, pinned ----------------------------------------

/// The eight gated columns of one run: checksum bits, then `vtime_ns`,
/// `msgs`, `bytes_moved`, `blocks_moved`, `misses`, `presend_blocks`,
/// `presend_useless`.
type Gated = [u64; 8];

fn gated(run: &prescient_apps::AppRun) -> Gated {
    let (r, t) = (&run.report, run.report.total_stats());
    [
        run.checksum.to_bits(),
        r.exec_time_ns(),
        t.msgs_out,
        r.bytes_moved(),
        r.blocks_moved(),
        t.misses(),
        t.presend_blocks_out,
        t.presend_useless,
    ]
}

/// The perf gate's machine (predictive, validated, a retry timeout no
/// host scheduling delay can reach) at 8 nodes.
fn gate_machine(block_size: usize) -> MachineConfig {
    let retry = prescient_stache::RetryConfig {
        timeout: std::time::Duration::from_secs(30),
        max_retries: 4,
    };
    MachineConfig::predictive(8, block_size).with_retry(retry).validated()
}

/// Recorded at the commit before the apps' structured accesses took the
/// run form (`NodeCtx::read_run`/`write_run`), one row per block size 32,
/// 128, 1024: the run form must leave every gated column where the
/// per-word loops put it.
const WATER_PINS: [(usize, Gated); 3] = [
    (32, [0x40bd5509c6b4817c, 0x510ee10, 0x16c0, 0x1b000, 0x7e0, 0x1e0, 0x600, 0x0]),
    (128, [0x40bd5509c6b4817c, 0x49f38b0, 0x670, 0x1b000, 0x1f8, 0x78, 0x180, 0x0]),
    (1024, [0x40bd5509c6b4817c, 0x48fb7f0, 0x2d0, 0x48000, 0xa8, 0x28, 0x80, 0x0]),
];
const BARNES_PINS: [(usize, Gated); 3] = [
    (32, [0x40b5a4af575ab773, 0x102bdc10, 0xab36, 0xba320, 0x43e6, 0x2608, 0x1dde, 0x0]),
    (128, [0x40b5a4af575ab773, 0x5c2f6a0, 0x2d20, 0xcf880, 0x12c8, 0xa6d, 0x85b, 0x0]),
    (1024, [0x40b5a4af575ab773, 0x2dd5ea8, 0x8a4, 0x11b800, 0x32a, 0x1b0, 0x17a, 0x0]),
];

#[test]
fn water_gated_columns_are_the_per_word_forms() {
    let cfg = WaterConfig { n: 128, steps: 5, ..Default::default() };
    for (bs, want) in WATER_PINS {
        let got = gated(&run_water(gate_machine(bs), &cfg));
        assert_eq!(got, want, "water, block size {bs}: {got:#x?}");
    }
}

#[test]
fn barnes_gated_columns_are_the_per_word_forms() {
    let cfg = BarnesConfig { n: 512, steps: 2, ..Default::default() };
    for (bs, want) in BARNES_PINS {
        let got = gated(&run_barnes(gate_machine(bs), &cfg));
        assert_eq!(got, want, "barnes, block size {bs}: {got:#x?}");
    }
}

/// Adaptive is where a pre-send window is mostly tear-down (mesh cells
/// refine, so last iteration's readers hold stale copies everywhere).
/// Recorded at the commit before the tear-downs of a window went out in
/// waves: the 8 gated columns, then every `NodeStats` counter summed over
/// nodes in `StatsSnapshot::fields` order — a wave must send what the
/// block-at-a-time tear-down sent and count what it counted.
///
/// 1024-byte blocks are not in the table: a block then spans quad-tree
/// cells of several nodes, demand traffic inside a phase depends on who
/// faults first, and six runs of that commit gave six different rows. What
/// it does fix — the answer and the accesses made — is pinned below.
const ADAPTIVE_PINS: [(usize, Gated, [u64; 30]); 2] = [
    (
        32,
        [0x40973d55c4b7928d, 0x5cc6fb4, 0x4f7c, 0x3c2c0, 0x11e6, 0x3f4, 0xdf2, 0x32f],
        [
            331290, 115205, 562, 450, 450, 3875, 0, 20348, 3570, 1862, 114240, 3570, 924, 0, 0, 0,
            0, 0, 0, 0, 0, 132224, 815, 1, 0, 0, 0, 0, 0, 0,
        ],
    ),
    (
        128,
        [0x40973d55c4b7928d, 0x3d054dc, 0x2940, 0x6c500, 0x7ce, 0x16a, 0x664, 0x178],
        [
            331290, 115205, 194, 168, 168, 1769, 0, 10560, 1636, 1548, 209408, 1636, 362, 0, 0, 0,
            0, 0, 0, 0, 0, 234240, 376, 0, 0, 0, 0, 0, 0, 0,
        ],
    ),
];

#[test]
fn adaptive_gated_columns_and_counters_are_the_serial_tear_downs() {
    let cfg = AdaptiveConfig { n: 32, iters: 12, tau: 0.45, max_depth: 3, flush_every: None };
    for (bs, want, want_stats) in ADAPTIVE_PINS {
        let (run, _, depths) = run_adaptive_full(gate_machine(bs), &cfg);
        assert!(depths.iter().any(|&d| d > 0), "refinement must happen");
        let got = gated(&run);
        let stats = run.report.total_stats().fields().map(|(_, v)| v);
        assert_eq!(got, want, "adaptive, block size {bs}: {got:#x?}");
        assert_eq!(stats, want_stats, "adaptive, block size {bs}: {stats:?}");
    }
    let (run, _, _) = run_adaptive_full(gate_machine(1024), &cfg);
    let t = run.report.total_stats();
    assert_eq!(
        (run.checksum.to_bits(), t.reads, t.writes),
        (0x40973d55c4b7928d, 331290, 115205),
        "adaptive, block size 1024"
    );
    assert!(t.invals_in > 0 && t.presend_blocks_out > 0, "windows tear down and push");
}
