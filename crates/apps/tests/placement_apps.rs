//! Application-level placement tests (DESIGN.md §14): the offline remap
//! must be invisible to the evaluation apps — bit-identical checksums
//! against a static-layout run — while cutting message counts where the
//! sharing pattern has third-party homes, and it must stay correct on a
//! chaotic fabric and across a crash.
//!
//! All legs run plain Stache over a rotate-shifted layout: the apps
//! allocate owner-homed, so the unshifted default is already
//! placement-optimal; the shift is the deliberately bad static placement
//! the remap recovers from. The remap is the owner mapping
//! `prescient-telemetry emit-remap` converges to on these apps: every block
//! of the front of each node's heap segment goes back to that node.
//!
//! What is gated where: water's producer–consumer phases are fully
//! deterministic, so the water legs gate miss/`blocks_moved` parity and a
//! strict message reduction on top of checksum identity. Barnes under a
//! shifted layout is *contended* — concurrent readers race the writer's
//! invalidations, so demand-miss counts vary run-to-run even with
//! placement off — and the chaos leg perturbs retry interleaving the same
//! way; those legs gate the checksum (the correctness invariant) and the
//! overlay accounting, not the traffic counts.

use std::time::Duration;

use prescient_apps::barnes::{run_barnes, BarnesConfig};
use prescient_apps::water::{run_water, WaterConfig};
use prescient_apps::AppRun;
use prescient_runtime::{MachineConfig, PlacementSpec};
use prescient_stache::RetryConfig;
use prescient_tempest::{BlockId, CrashPlan, FaultPlan, GlobalLayout, HomeMap};

const NODES: usize = 4;
const BS: usize = 64;
/// Bytes of each node's heap segment the owner remap covers — well past
/// what these small app instances allocate.
const COVER: u64 = 256 << 10;

/// Undo the rotate shift for the front of every heap segment.
fn owner_remap() -> PlacementSpec {
    let layout = GlobalLayout::new(NODES, BS);
    let mut map = HomeMap::new();
    for node in 0..NODES as u16 {
        let first = layout.block_of(layout.heap_base(node)).0;
        for b in first..first + COVER / BS as u64 {
            map.insert(BlockId(b), node);
        }
    }
    PlacementSpec::Remap(map)
}

fn remapped_blocks() -> u64 {
    NODES as u64 * (COVER / BS as u64)
}

fn water_cfg() -> WaterConfig {
    WaterConfig { n: 64, steps: 8, ..Default::default() }
}

fn blocks_moved(run: &AppRun) -> u64 {
    let t = run.report.total_stats();
    t.misses() + t.presend_blocks_out
}

#[test]
fn water_remap_is_transparent_and_cuts_messages() {
    let cfg = water_cfg();
    let base = MachineConfig::stache(NODES, BS).with_home_shift(1).validated();
    let stat = run_water(base.clone(), &cfg);
    let placed = run_water(base.with_placement(owner_remap()), &cfg);
    assert_eq!(
        placed.checksum.to_bits(),
        stat.checksum.to_bits(),
        "the remap must not perturb water's result"
    );
    assert_eq!(blocks_moved(&placed), blocks_moved(&stat), "blocks_moved must be bit-identical");
    let (ts, tp) = (stat.report.total_stats(), placed.report.total_stats());
    assert_eq!(tp.remapped_blocks, remapped_blocks(), "every overlay entry is accounted");
    assert!(
        tp.msgs_out < ts.msgs_out,
        "owner-homed blocks must cut messages ({} vs {})",
        tp.msgs_out,
        ts.msgs_out
    );
}

/// Barnes: the tree blocks are read by every node,
/// so shifted-layout runs are contended and their miss counts are not
/// run-to-run stable (placement or no placement). The gated invariant is
/// the checksum; the overlay counter proves the remap was live.
#[test]
fn barnes_remap_is_transparent() {
    let cfg = BarnesConfig { n: 192, steps: 2, ..Default::default() };
    let base = MachineConfig::stache(NODES, BS).with_home_shift(2).validated();
    let stat = run_barnes(base.clone(), &cfg);
    let placed = run_barnes(base.with_placement(owner_remap()), &cfg);
    assert_eq!(
        placed.checksum.to_bits(),
        stat.checksum.to_bits(),
        "the remap must not perturb barnes' result"
    );
    assert_eq!(placed.report.total_stats().remapped_blocks, remapped_blocks());
}

/// Chaos leg: drops, duplicates and reorders must not perturb what the
/// remapped run *computes*. The traffic counters are not gated — retries
/// and nudges shift them under faults.
#[test]
fn water_remap_survives_a_chaotic_fabric() {
    let cfg = water_cfg();
    let placed = MachineConfig::stache(NODES, BS).with_home_shift(1).with_placement(owner_remap());
    let clean = run_water(placed.clone().validated(), &cfg);
    let chaos = run_water(
        placed
            .with_faults(FaultPlan::chaos(0xFEED))
            .with_retry(RetryConfig { timeout: Duration::from_millis(25), max_retries: 400 })
            .validated(),
        &cfg,
    );
    assert_eq!(
        chaos.checksum.to_bits(),
        clean.checksum.to_bits(),
        "chaos must not perturb the remapped run's result"
    );
    assert_eq!(chaos.report.total_stats().remapped_blocks, remapped_blocks());
}

/// Crash mid-run under a remap: the home view is configuration, not
/// state, so rollback has nothing of it to restore — the replayed phases
/// fault against the same homes and the recovered run matches the
/// crash-free one bit-for-bit, overlay accounting included.
#[test]
fn water_crash_recovers_under_remap_bit_identically() {
    let cfg = water_cfg();
    let placed = MachineConfig::stache(NODES, BS)
        .with_home_shift(1)
        .with_placement(owner_remap())
        .validated();
    let base = run_water(placed.clone(), &cfg);
    let run = run_water(placed.with_crash_plan(CrashPlan::new(2, 6)), &cfg);
    assert_eq!(
        run.checksum.to_bits(),
        base.checksum.to_bits(),
        "recovery over remapped homes must preserve the checksum"
    );
    assert_eq!(blocks_moved(&run), blocks_moved(&base));
    let (tb, tr) = (base.report.total_stats(), run.report.total_stats());
    assert_eq!(tr.remapped_blocks, tb.remapped_blocks, "overlay accounting survives rollback");
    assert_eq!(tr.remapped_blocks, remapped_blocks());
    assert_eq!(tr.recoveries, NODES as u64, "every node ran the recovery protocol once");
}
