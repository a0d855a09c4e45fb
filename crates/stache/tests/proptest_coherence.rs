//! Property-based coherence torture: random phase-structured access
//! programs run on a live machine must always observe the values a simple
//! sequential memory model predicts.
//!
//! Programs are sequences of *phases* (barrier-separated), each phase
//! either a write round (each address written by at most one node) or a
//! read round (arbitrary nodes read arbitrary addresses) — the
//! data-parallel discipline under which sequential consistency makes the
//! outcome deterministic.

use std::sync::Arc;
use std::time::Duration;

use prescient_stache::testkit::Cluster;
use prescient_stache::{fetch, NoHooks, RetryConfig};
use prescient_tempest::{FaultPlan, GAddr, NodeId, Prim};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Phase {
    /// `(address index, writer node, value)` — distinct address indices.
    Writes(Vec<(usize, NodeId, u64)>),
    /// `(address index, reader node)`.
    Reads(Vec<(usize, NodeId)>),
}

fn phase_strategy(n_addrs: usize, nodes: u16) -> impl Strategy<Value = Phase> {
    let writes = proptest::collection::btree_map(0..n_addrs, (0..nodes, any::<u64>()), 1..6)
        .prop_map(|m| Phase::Writes(m.into_iter().map(|(a, (w, v))| (a, w, v)).collect()));
    let reads = proptest::collection::vec((0..n_addrs, 0..nodes), 1..10).prop_map(Phase::Reads);
    prop_oneof![writes, reads]
}

fn build_machine(nodes: usize, block_size: usize, plan: Option<FaultPlan>) -> Cluster {
    // Short wall-clock retry timeout so dropped/stalled messages are
    // re-issued quickly under fault injection.
    let retry = RetryConfig { timeout: Duration::from_millis(25), max_retries: 400 };
    Cluster::new(nodes, block_size, retry, plan, |_| Arc::new(NoHooks))
}

fn run_torture(nodes: usize, block_size: usize, phases: Vec<Phase>) {
    run_torture_faulty(nodes, block_size, phases, None);
}

fn run_torture_faulty(
    nodes: usize,
    block_size: usize,
    phases: Vec<Phase>,
    plan: Option<FaultPlan>,
) {
    let mut m = build_machine(nodes, block_size, plan);

    // Address pool: a few addresses homed on every node, some sharing
    // blocks (consecutive words) to exercise false sharing.
    let mut addrs: Vec<GAddr> = Vec::new();
    for node in &mut m.nodes {
        let base = node.state.mem.alloc(8 * 4, 8);
        for k in 0..4 {
            addrs.push(base.add(8 * k));
        }
    }
    let n_addrs = addrs.len();

    // Sequential model.
    let mut model = vec![0u64; n_addrs];

    // Precompute each phase clamped to the address pool.
    let phases: Vec<Phase> = phases
        .into_iter()
        .map(|p| match p {
            Phase::Writes(ws) => {
                Phase::Writes(ws.into_iter().map(|(a, w, v)| (a % n_addrs, w, v)).collect())
            }
            Phase::Reads(rs) => {
                Phase::Reads(rs.into_iter().map(|(a, r)| (a % n_addrs, r)).collect())
            }
        })
        .collect();

    // Expected values after each phase, for the readers to check.
    let mut expects: Vec<Vec<u64>> = Vec::with_capacity(phases.len());
    for p in &phases {
        if let Phase::Writes(ws) = p {
            for &(a, _, v) in ws {
                model[a] = v;
            }
        }
        expects.push(model.clone());
    }
    let fails: Vec<String> = m
        .run(|node, barrier| {
            let me = node.shared.me;
            let mut failures = Vec::new();
            for (pi, phase) in phases.iter().enumerate() {
                match phase {
                    Phase::Writes(ws) => {
                        for &(a, w, v) in ws {
                            if w == me {
                                let mut buf = [0u8; 8];
                                v.store(&mut buf);
                                while let Err(f) = node.state.mem.write_in_block(addrs[a], &buf) {
                                    fetch(node, f.fault().block, true);
                                }
                            }
                        }
                    }
                    Phase::Reads(rs) => {
                        for &(a, r) in rs {
                            if r == me {
                                let mut buf = [0u8; 8];
                                while let Err(f) = node.state.mem.read_in_block(addrs[a], &mut buf)
                                {
                                    fetch(node, f.fault().block, false);
                                }
                                let got = u64::load(&buf);
                                let want = expects[pi][a];
                                if got != want {
                                    failures.push(format!(
                                        "phase {pi}: node {me} read addr[{a}] = {got}, expected {want}"
                                    ));
                                }
                            }
                        }
                    }
                }
                node.barrier(barrier, 0);
            }
            failures
        })
        .into_iter()
        .flatten()
        .collect();

    // With every script done, the machine is quiescent: all coherence
    // invariants must hold globally.
    let invariant_violations = m.violations();
    assert!(fails.is_empty(), "coherence violations: {fails:#?}");
    assert!(invariant_violations.is_empty(), "invariant violations: {invariant_violations:#?}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn coherence_holds_under_random_phase_programs(
        phases in proptest::collection::vec(phase_strategy(12, 3), 1..14),
        block_size in prop_oneof![Just(32usize), Just(64), Just(128)],
    ) {
        run_torture(3, block_size, phases);
    }

    /// Duplicated delivery: every protocol message may arrive twice, in
    /// order. The (requester, seq) watermark, recall-round op ids, and
    /// epoch-stamped pre-sends must make all of them idempotent.
    #[test]
    fn coherence_holds_under_duplicated_delivery(
        phases in proptest::collection::vec(phase_strategy(12, 3), 1..10),
        seed in any::<u64>(),
        dup in 100u16..=1000,
    ) {
        run_torture_faulty(3, 32, phases, Some(FaultPlan::new(seed).duplicating(dup)));
    }

    /// Delayed (FIFO-preserving) delivery plus duplicates: stalled links
    /// release under later traffic and retries; values never diverge.
    #[test]
    fn coherence_holds_under_delayed_delivery(
        phases in proptest::collection::vec(phase_strategy(12, 3), 1..10),
        seed in any::<u64>(),
        delay in 50u16..400,
        max_delay in 1u32..4,
    ) {
        let plan = FaultPlan::new(seed).delaying(delay, max_delay).duplicating(60);
        run_torture_faulty(3, 32, phases, Some(plan));
    }
}

/// A regression-style deterministic case: interleaved writers and readers
/// with false sharing inside one block.
#[test]
fn deterministic_false_sharing_case() {
    let phases = vec![
        Phase::Writes(vec![(0, 0, 11), (1, 1, 22), (2, 2, 33)]),
        Phase::Reads(vec![(0, 2), (1, 0), (2, 1)]),
        Phase::Writes(vec![(0, 2, 44), (3, 0, 55)]),
        Phase::Reads(vec![(0, 0), (0, 1), (3, 2), (1, 2)]),
        Phase::Writes(vec![(1, 0, 66)]),
        Phase::Reads(vec![(1, 1), (0, 1)]),
    ];
    run_torture(3, 32, phases);
}

/// Pinned fault-injection case (regression seed): the same false-sharing
/// program with every message duplicated and links stalling — the shape
/// that exercises duplicate recalls against a busy directory entry.
#[test]
fn deterministic_false_sharing_case_under_faults() {
    let phases = vec![
        Phase::Writes(vec![(0, 0, 11), (1, 1, 22), (2, 2, 33)]),
        Phase::Reads(vec![(0, 2), (1, 0), (2, 1)]),
        Phase::Writes(vec![(0, 2, 44), (3, 0, 55)]),
        Phase::Reads(vec![(0, 0), (0, 1), (3, 2), (1, 2)]),
        Phase::Writes(vec![(1, 0, 66)]),
        Phase::Reads(vec![(1, 1), (0, 1)]),
    ];
    let plan = FaultPlan::new(0xC0FFEE).duplicating(1000).delaying(150, 3).dropping(60);
    run_torture_faulty(3, 32, phases, Some(plan));
}
