//! Property test for the pre-send ↔ recall interleaving (satellite of the
//! hot-path PR): random programs that alternate pre-send rounds of a
//! manual schedule with demand writes (which recall or invalidate the
//! pushed copies) and demand reads must always observe the values a
//! sequential model predicts, and must leave the machine coherent.
//!
//! The concurrent stress twin lives in `presend_race.rs`; this file
//! explores many orderings of the same ingredients deterministically, so a
//! shrunken counterexample is replayable.

use std::sync::Arc;

use prescient_core::manual::ManualEntry;
use prescient_core::presend::presend;
use prescient_core::{DegradeConfig, Predictive, PredictiveConfig};
use prescient_stache::testkit::Cluster;
use prescient_stache::{fetch, Node, RetryConfig};
use prescient_tempest::{GAddr, NodeId, NodeSet, Prim};
use proptest::prelude::*;

const NODES: usize = 4;
const BLOCKS: usize = 6;

/// One step of the interleaved program. All blocks are homed at node 0,
/// which also runs the pre-send rounds.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Node 0 executes one pre-send window of the manual schedule.
    Presend,
    /// `(block index, writer node, value)` — a demand write; if the block
    /// was pre-sent earlier, this recalls/invalidates the pushed copies.
    Write(usize, NodeId, u64),
    /// `(block index, reader node)` — must observe the model's value.
    Read(usize, NodeId),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => Just(Op::Presend),
        3 => (0..BLOCKS, 1..NODES as NodeId, any::<u64>()).prop_map(|(b, w, v)| Op::Write(b, w, v)),
        3 => (0..BLOCKS, 0..NODES as NodeId).prop_map(|(b, r)| Op::Read(b, r)),
    ]
}

fn read_u64(node: &mut Node, addr: GAddr) -> u64 {
    let mut buf = [0u8; 8];
    while let Err(e) = node.state.mem.read_in_block(addr, &mut buf) {
        fetch(node, e.fault().block, false);
    }
    u64::load(&buf)
}

fn write_u64(node: &mut Node, addr: GAddr, v: u64) {
    let mut buf = [0u8; 8];
    v.store(&mut buf);
    while let Err(e) = node.state.mem.write_in_block(addr, &buf) {
        fetch(node, e.fault().block, true);
    }
}

fn build_machine() -> (Cluster, Vec<Arc<Predictive>>) {
    let cfg = PredictiveConfig {
        degrade: DegradeConfig { enabled: false, ..DegradeConfig::default() },
        ..PredictiveConfig::default()
    };
    let preds: Vec<Arc<Predictive>> = (0..NODES).map(|_| Arc::new(Predictive::new(cfg))).collect();
    let cluster = Cluster::new(NODES, 32, RetryConfig::default(), None, |i| {
        Arc::clone(&preds[i as usize]) as _
    });
    (cluster, preds)
}

fn run_program(ops: Vec<Op>) {
    let (mut m, preds) = build_machine();
    let addrs: Vec<GAddr> = (0..BLOCKS).map(|_| m.nodes[0].state.mem.alloc(32, 32)).collect();
    let layout = m.nodes[0].shared.layout;
    // The manual schedule pushes read-only copies of every block to nodes
    // 1 and 2 each window (node 3 stays a demand-only consumer).
    preds[0].install_manual(
        1,
        addrs.iter().map(|a| {
            (layout.block_of(*a), ManualEntry::Readers([1u16, 2].into_iter().collect::<NodeSet>()))
        }),
    );

    // One op at a time: the acting node runs it, the others serve.
    let mut model = [0u64; BLOCKS];
    for op in ops {
        match op {
            Op::Presend => {
                m.on(0, |n| presend(&preds[0], n, 1));
            }
            Op::Write(b, w, v) => {
                m.on(w, |n| write_u64(n, addrs[b], v));
                model[b] = v;
            }
            Op::Read(b, r) => {
                let got = m.on(r, |n| read_u64(n, addrs[b]));
                assert_eq!(
                    got, model[b],
                    "node {r} read stale data from block {b} (pre-send leaked a stale copy)"
                );
            }
        }
    }

    // Quiesced (ops are sequential; every push was acknowledged before the
    // pre-send returned): the invariants must hold.
    let violations = m.violations();
    assert!(violations.is_empty(), "coherence violations: {violations:#?}");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Random interleavings of pre-send rounds, recalls (via demand
    /// writes), and demand reads preserve sequential semantics and every
    /// coherence invariant.
    #[test]
    fn presend_interleaved_with_recalls(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        run_program(ops);
    }
}
