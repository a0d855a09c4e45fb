//! The commutative-merge protocol mode on Barnes: the privatized build
//! must produce bit-identical physics to the demand-driven build (the
//! replay reconstructs the serialized insertion order exactly) while
//! moving measurably fewer messages — the paper's conflict phase, which
//! the predictive protocol must leave without action, turned into bulk
//! barrier traffic.

use prescient_apps::barnes::{run_barnes, run_barnes_commute, BarnesConfig};
use prescient_runtime::MachineConfig;
use prescient_tempest::BatchConfig;

const NODES: usize = 4;
const BS: usize = 64;

fn bcfg() -> BarnesConfig {
    BarnesConfig { n: 256, steps: 2, ..Default::default() }
}

#[test]
fn commute_build_is_bit_identical_to_stache() {
    let cfg = bcfg();
    let stache = run_barnes(MachineConfig::stache(NODES, BS).validated(), &cfg);
    let commute = run_barnes_commute(MachineConfig::stache(NODES, BS).validated(), &cfg);
    assert_eq!(
        commute.checksum.to_bits(),
        stache.checksum.to_bits(),
        "merged trees must replay the serialized insertion order exactly \
         ({} vs {})",
        commute.checksum,
        stache.checksum,
    );
}

#[test]
fn commute_build_moves_fewer_messages() {
    let cfg = bcfg();
    let stache = run_barnes(MachineConfig::stache(NODES, BS).validated(), &cfg);
    let commute = run_barnes_commute(MachineConfig::stache(NODES, BS).validated(), &cfg);
    assert_eq!(commute.checksum.to_bits(), stache.checksum.to_bits(), "same physics either way");
    let (ms, mc) = (stache.report.total_stats().msgs_out, commute.report.total_stats().msgs_out);
    assert!(mc < ms, "the bulk exchange must beat the per-block build scan: {mc} vs {ms} messages");
    // The merge traffic itself is visible: every node pushed deltas.
    assert!(commute.report.total_stats().data_bytes_in > 0);
}

#[test]
fn commute_mode_is_batching_invariant() {
    // The gated observables may not depend on the egress aggregation
    // policy (the merge already coalesces; batching must only wrap it).
    let cfg = bcfg();
    let off =
        run_barnes_commute(MachineConfig::stache(NODES, BS).with_batch(BatchConfig::off()), &cfg);
    let on =
        run_barnes_commute(MachineConfig::stache(NODES, BS).with_batch(BatchConfig::new(64)), &cfg);
    assert_eq!(off.checksum.to_bits(), on.checksum.to_bits());
    assert_eq!(
        off.report.total_stats().msgs_out,
        on.report.total_stats().msgs_out,
        "merge message count must not depend on batching"
    );
}

#[test]
fn commute_mode_is_deterministic() {
    let cfg = bcfg();
    let a = run_barnes_commute(MachineConfig::stache(NODES, BS), &cfg);
    let b = run_barnes_commute(MachineConfig::stache(NODES, BS), &cfg);
    assert_eq!(a.checksum.to_bits(), b.checksum.to_bits());
    assert_eq!(a.report.total_stats().msgs_out, b.report.total_stats().msgs_out);
    assert_eq!(a.report.exec_time_ns(), b.report.exec_time_ns(), "virtual time is deterministic");
}
