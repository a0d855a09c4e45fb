//! Backend-equivalence suite: the `Transport` backends must be
//! indistinguishable above the fabric. Each evaluation application runs
//! at small scale on both backends — per-node channels and the loopback
//! socket pair — and every deterministic gated
//! counter (checksum, msgs, bytes_moved, blocks_moved) must be
//! bit-identical, because faults, batching, tracing, and teardown
//! accounting all sit *above* the `Transport` trait. A divergence means
//! a backend reordered, duplicated, or dropped protocol traffic.
//!
//! The chaos test covers the same pair: the fault layer hashes per-link
//! message indices, not threads or clocks, so an identical plan must
//! leave both backends at an identical final state.

use prescient_apps::adaptive::{run_adaptive_full, AdaptiveConfig};
use prescient_apps::barnes::{run_barnes, BarnesConfig};
use prescient_apps::water::{run_water, WaterConfig};
use std::time::Duration;

use prescient_apps::AppRun;
use prescient_runtime::{FabricKind, MachineConfig};
use prescient_stache::RetryConfig;
use prescient_tempest::FaultPlan;

const NODES: usize = 4;
const BS: usize = 32;

/// No faults are active in the equivalence tests, so no message can be
/// lost and a retry can only be *spurious* — a scheduler stall on an
/// oversubscribed test runner outlasting the default 200ms timeout,
/// which would inflate `msgs` nondeterministically. A generous timeout
/// keeps the retry machinery compiled in but silent, so the msgs column
/// stays comparable. The chaos test below keeps the default: there
/// retries are load-bearing and only final state is compared.
fn no_spurious_retries(cfg: MachineConfig) -> MachineConfig {
    cfg.with_retry(RetryConfig { timeout: Duration::from_secs(60), max_retries: 3 })
}

const BACKENDS: [FabricKind; 2] = [FabricKind::Channel, FabricKind::SocketPair { split: 0 }];

/// The gated signature of a run: checksum bits plus the deterministic
/// protocol counters. `wall_ms` and the `wire_*` keys are timing
/// artifacts and are never compared.
fn signature(run: &AppRun) -> (u64, u64, u64, u64) {
    let t = run.report.total_stats();
    (run.checksum.to_bits(), t.msgs_out, run.report.bytes_moved(), run.report.blocks_moved())
}

fn assert_equivalent(what: &str, runs: &[(FabricKind, AppRun)]) {
    let (base_kind, base) = &runs[0];
    for (kind, run) in &runs[1..] {
        assert_eq!(
            signature(run),
            signature(base),
            "{what}: (checksum, msgs, bytes_moved, blocks_moved) must be bit-identical \
             on {kind:?} and {base_kind:?}"
        );
    }
}

#[test]
fn water_predictive_is_backend_invariant() {
    let cfg = WaterConfig { n: 64, steps: 4, ..Default::default() };
    let runs: Vec<_> = BACKENDS
        .iter()
        .map(|&k| {
            let m = no_spurious_retries(MachineConfig::predictive(NODES, BS).validated());
            (k, run_water(m.with_fabric(k), &cfg))
        })
        .collect();
    assert!(
        runs[0].1.report.total_stats().presend_blocks_out > 0,
        "water must pre-send at this scale, or the matrix is vacuous"
    );
    assert_equivalent("water/predictive", &runs);
}

#[test]
fn barnes_stache_is_backend_invariant() {
    let cfg = BarnesConfig { n: 192, steps: 2, ..Default::default() };
    let runs: Vec<_> = BACKENDS
        .iter()
        .map(|&k| {
            let m = no_spurious_retries(MachineConfig::stache(NODES, BS).validated());
            (k, run_barnes(m.with_fabric(k), &cfg))
        })
        .collect();
    assert_equivalent("barnes/stache", &runs);
}

#[test]
fn adaptive_predictive_is_backend_invariant() {
    // Config chosen for *run*-determinism: some small meshes (e.g. n=12,
    // tau=0.4) leave one pre-send racing the consumer's demand fetch, so
    // msgs/bytes wobble between repeated runs on ANY backend — useless
    // for an equivalence test. n=16/tau=0.5 was probed 8x run-identical.
    let cfg = AdaptiveConfig { n: 16, iters: 6, tau: 0.5, max_depth: 2, flush_every: None };
    let runs: Vec<_> = BACKENDS
        .iter()
        .map(|&k| {
            let m = no_spurious_retries(MachineConfig::predictive(NODES, BS).validated());
            let (run, _, _) = run_adaptive_full(m.with_fabric(k), &cfg);
            (k, run)
        })
        .collect();
    assert_equivalent("adaptive/predictive", &runs);
}

#[test]
fn chaos_final_state_is_identical_across_backends() {
    // Timing-dependent retries make message counts legitimately diverge
    // under chaos, but the *final state* may not: the protocol absorbs
    // drops/duplicates/reorders identically wherever its handlers run.
    let cfg = WaterConfig { n: 64, steps: 4, ..Default::default() };
    let mut checksums = Vec::new();
    for k in BACKENDS {
        let m = MachineConfig::stache(NODES, BS)
            .validated()
            .with_faults(FaultPlan::chaos(0xFEED))
            .with_fabric(k);
        checksums.push(run_water(m, &cfg).checksum.to_bits());
    }
    assert_eq!(
        checksums[0], checksums[1],
        "chaos on the socket backend must converge to the channel backend's state"
    );
}
