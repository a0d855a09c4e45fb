//! Crash/recovery chaos tests (DESIGN.md §12): inject a crash that
//! destroys a phase's work, recover from the barrier-consistent
//! checkpoint, and require the recovered run to be **bit-identical** to a
//! fault-free run in every gated observable — application checksums and
//! `blocks_moved` (misses + pre-sent blocks). The recovery machinery may
//! not perturb what the paper measures.

use prescient_apps::adaptive::{run_adaptive_full, AdaptiveConfig};
use prescient_apps::barnes::{run_barnes, run_barnes_commute, BarnesConfig};
use prescient_apps::water::{run_water, WaterConfig};
use prescient_apps::AppRun;
use prescient_runtime::MachineConfig;
use prescient_stache::RetryConfig;
use prescient_tempest::rng::cases;
use prescient_tempest::{BatchConfig, CrashPlan, FaultPlan};
use std::time::Duration;

const NODES: usize = 4;

fn water_cfg() -> WaterConfig {
    WaterConfig { n: 64, steps: 3, ..Default::default() }
}

fn barnes_cfg() -> BarnesConfig {
    BarnesConfig { n: 192, steps: 2, ..Default::default() }
}

fn adaptive_cfg() -> AdaptiveConfig {
    AdaptiveConfig { n: 16, iters: 4, tau: 0.4, max_depth: 2, flush_every: None }
}

fn blocks_moved(run: &AppRun) -> u64 {
    let t = run.report.total_stats();
    t.misses() + t.presend_blocks_out
}

/// Assert the crashed-and-recovered run is bit-identical to the fault-free
/// baseline in the gated observables, and that it actually recovered.
fn assert_recovered(tag: &str, base: &AppRun, run: &AppRun) {
    assert_eq!(
        run.checksum.to_bits(),
        base.checksum.to_bits(),
        "{tag}: recovered checksum must be bit-identical to fault-free \
         ({} vs {})",
        run.checksum,
        base.checksum,
    );
    assert_eq!(
        blocks_moved(run),
        blocks_moved(base),
        "{tag}: recovered blocks_moved must equal fault-free"
    );
    let t = run.report.total_stats();
    assert_eq!(t.recoveries, NODES as u64, "{tag}: every node runs the recovery protocol once");
    assert_eq!(t.replays, NODES as u64, "{tag}: every node replays the destroyed phase once");
    assert!(t.checkpoints > 0, "{tag}: checkpoints were taken");
    assert!(t.checkpoint_bytes > 0, "{tag}: checkpoints carry block data");
    let tb = base.report.total_stats();
    assert_eq!(tb.recoveries, 0, "{tag}: baseline saw no recovery");
}

// ---- crash at a phase boundary, each app, both protocols ----------------

#[test]
fn water_crash_recovers_bit_identically() {
    let cfg = water_cfg();
    let base = run_water(MachineConfig::predictive(NODES, 64).validated(), &cfg);
    // Crash different nodes at different phase executions: first-ever
    // phase, a mid-run phase, and the very last phase (water runs
    // 2 * steps = 6 phase executions).
    for (node, version) in [(0u16, 1u64), (2, 3), (3, 6)] {
        let run = run_water(
            MachineConfig::predictive(NODES, 64)
                .with_crash_plan(CrashPlan::new(node, version))
                .validated(),
            &cfg,
        );
        assert_recovered(&format!("water crash {node}@{version}"), &base, &run);
    }
}

#[test]
fn water_crash_recovers_under_plain_stache() {
    let cfg = water_cfg();
    let base = run_water(MachineConfig::stache(NODES, 64).validated(), &cfg);
    let run = run_water(
        MachineConfig::stache(NODES, 64).with_crash_plan(CrashPlan::new(1, 4)).validated(),
        &cfg,
    );
    assert_recovered("stache water crash 1@4", &base, &run);
}

#[test]
fn barnes_crash_recovers_bit_identically() {
    let cfg = barnes_cfg();
    let base = run_barnes(MachineConfig::predictive(NODES, 64).validated(), &cfg);
    // Barnes runs 4 phases per step; crash in the middle of each step.
    for (node, version) in [(1u16, 2u64), (3, 7)] {
        let run = run_barnes(
            MachineConfig::predictive(NODES, 64)
                .with_crash_plan(CrashPlan::new(node, version))
                .validated(),
            &cfg,
        );
        assert_recovered(&format!("barnes crash {node}@{version}"), &base, &run);
    }
}

#[test]
fn barnes_commute_crash_recovers_bit_identically() {
    // Crash the commutative-merge mode during the build phase itself —
    // the phase whose in-flight deltas the checkpoint must capture.
    // Versions 1 and 5 are the two build-phase executions (4 phases per
    // step), so the destroyed work includes a completed merge window; the
    // replay re-runs the exchange with the restored push ids and epoch,
    // and idempotent re-delivery must leave every gated observable
    // bit-identical.
    let cfg = barnes_cfg();
    let base = run_barnes_commute(MachineConfig::stache(NODES, 64).validated(), &cfg);
    for (node, version) in [(2u16, 1u64), (1, 5), (3, 7)] {
        let run = run_barnes_commute(
            MachineConfig::stache(NODES, 64)
                .with_crash_plan(CrashPlan::new(node, version))
                .validated(),
            &cfg,
        );
        assert_recovered(&format!("barnes commute crash {node}@{version}"), &base, &run);
    }
}

#[test]
fn adaptive_crash_recovers_bit_identically() {
    let cfg = adaptive_cfg();
    let base = run_adaptive_full(MachineConfig::predictive(NODES, 64).validated(), &cfg);
    for (node, version) in [(0u16, 2u64), (2, 9)] {
        let run = run_adaptive_full(
            MachineConfig::predictive(NODES, 64)
                .with_crash_plan(CrashPlan::new(node, version))
                .validated(),
            &cfg,
        );
        assert_recovered(&format!("adaptive crash {node}@{version}"), &base.0, &run.0);
        assert_eq!(run.1, base.1, "adaptive roots must match exactly");
        assert_eq!(run.2, base.2, "adaptive depths must match exactly");
    }
}

// ---- crash on top of a faulty fabric ------------------------------------

fn chaos(block: usize) -> MachineConfig {
    MachineConfig::predictive(NODES, block)
        .with_faults(FaultPlan::chaos(0xC0FFEE))
        .with_retry(RetryConfig { timeout: Duration::from_millis(25), max_retries: 400 })
        .validated()
}

#[test]
fn water_crash_recovers_on_chaotic_fabric() {
    // The recovery protocol must also survive a fabric that delays,
    // duplicates, and drops messages: the purge + double-fence drain has
    // to silence the network before the rollback.
    let cfg = water_cfg();
    let base = run_water(chaos(64), &cfg);
    let run = run_water(chaos(64).with_crash_plan(CrashPlan::new(2, 4)), &cfg);
    assert_eq!(
        run.checksum.to_bits(),
        base.checksum.to_bits(),
        "chaotic-fabric recovery must preserve the checksum"
    );
    assert_eq!(blocks_moved(&run), blocks_moved(&base));
    assert_eq!(run.report.total_stats().recoveries, NODES as u64);
}

#[test]
fn adaptive_crash_recovers_on_chaotic_fabric() {
    let cfg = adaptive_cfg();
    let base = run_adaptive_full(chaos(64), &cfg);
    let run = run_adaptive_full(chaos(64).with_crash_plan(CrashPlan::new(1, 5)), &cfg);
    assert_eq!(run.0.checksum.to_bits(), base.0.checksum.to_bits());
    assert_eq!(blocks_moved(&run.0), blocks_moved(&base.0));
    assert_eq!(run.1, base.1);
}

// ---- crash under both egress batching policies --------------------------

#[test]
fn crash_recovery_is_batching_invariant() {
    let cfg = adaptive_cfg();
    for batch in [BatchConfig::off(), BatchConfig::new(64)] {
        let base = run_adaptive_full(MachineConfig::predictive(NODES, 64).with_batch(batch), &cfg);
        let run = run_adaptive_full(
            MachineConfig::predictive(NODES, 64)
                .with_batch(batch)
                .with_crash_plan(CrashPlan::new(3, 6)),
            &cfg,
        );
        assert_eq!(
            run.0.checksum.to_bits(),
            base.0.checksum.to_bits(),
            "batch={batch:?}: checksum must survive recovery"
        );
        assert_eq!(blocks_moved(&run.0), blocks_moved(&base.0), "batch={batch:?}");
    }
}

// ---- randomized crash point ---------------------------------------------

#[test]
fn randomized_crash_points_recover_across_all_apps() {
    // Random (node, phase-execution) crash points under a random fault
    // seed, for all three applications at small scale. Every combination
    // must recover to the bit-identical fault-free result.
    let wcfg = water_cfg();
    let bcfg = barnes_cfg();
    let acfg = adaptive_cfg();
    let water_base = run_water(MachineConfig::predictive(NODES, 64).validated(), &wcfg);
    let barnes_base = run_barnes(MachineConfig::predictive(NODES, 64).validated(), &bcfg);
    let adaptive_base = run_adaptive_full(MachineConfig::predictive(NODES, 64).validated(), &acfg);

    cases(3, |g| {
        let node = g.below(NODES as u64) as u16;
        // Per-app phase-execution counts: water 2/step, barnes 4/step,
        // adaptive 3/iter.
        match g.below(3) {
            0 => {
                let version = 1 + g.below(2 * wcfg.steps as u64);
                let run = run_water(
                    MachineConfig::predictive(NODES, 64)
                        .with_crash_plan(CrashPlan::new(node, version))
                        .validated(),
                    &wcfg,
                );
                assert_recovered(&format!("water {node}@{version}"), &water_base, &run);
            }
            1 => {
                let version = 1 + g.below(4 * bcfg.steps as u64);
                let run = run_barnes(
                    MachineConfig::predictive(NODES, 64)
                        .with_crash_plan(CrashPlan::new(node, version))
                        .validated(),
                    &bcfg,
                );
                assert_recovered(&format!("barnes {node}@{version}"), &barnes_base, &run);
            }
            _ => {
                let version = 1 + g.below(3 * acfg.iters as u64);
                let run = run_adaptive_full(
                    MachineConfig::predictive(NODES, 64)
                        .with_crash_plan(CrashPlan::new(node, version))
                        .validated(),
                    &acfg,
                );
                assert_recovered(&format!("adaptive {node}@{version}"), &adaptive_base.0, &run.0);
            }
        }
    });
}

// ---- paper scale --------------------------------------------------------

/// Paper-scale recovery smoke: Adaptive at the paper's mesh (128×128, 32
/// nodes), crashed mid-run, must recover to the bit-identical fault-free
/// result. Expensive — run explicitly (the `chaos-recovery` CI job does).
#[test]
#[ignore = "paper scale; run explicitly or via the chaos-recovery CI job"]
fn paper_scale_adaptive_crash_smoke() {
    let cfg = AdaptiveConfig { iters: 20, ..Default::default() };
    let mcfg = MachineConfig::predictive(32, 128);
    let base = run_adaptive_full(mcfg.clone(), &cfg);
    let run = run_adaptive_full(mcfg.with_crash_plan(CrashPlan::new(17, 31)), &cfg);
    assert_eq!(run.0.checksum.to_bits(), base.0.checksum.to_bits());
    assert_eq!(blocks_moved(&run.0), blocks_moved(&base.0));
    assert_eq!(run.1, base.1);
    assert_eq!(run.2, base.2);
    assert_eq!(run.0.report.total_stats().recoveries, 32);
}
