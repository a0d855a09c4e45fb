//! Regression tests for the pass-1 → pass-2 pre-send race (satellite of
//! the hot-path PR): a push group whose targets' directory state changes
//! between pass 1 (recording/teardown) and pass 2 (send) must not pre-send
//! a copy to a node while another node holds an exclusive one.
//!
//! The seed code `debug_assert!`ed that pass 2 never sees a busy entry and
//! then overwrote the directory state unconditionally — under a concurrent
//! demand request (reachable via a delayed request on a faulty fabric, or
//! any driver that pre-sends outside the barrier-delimited window) that
//! either aborted a debug build or corrupted an in-flight round's state in
//! release. Pass 2 now revalidates every push against the directory and
//! drops stale ones (`presend_aborted`).
//!
//! `presend_interleaved_with_recalls` interleaves recalls with pre-send
//! rounds one op at a time under a sequential model, so a failing seed
//! replays; `concurrent_demand_writes_during_presend_rounds` stresses the
//! genuinely concurrent interleaving.

use std::sync::Arc;

use prescient_core::manual::ManualEntry;
use prescient_core::presend::presend;
use prescient_core::{Predictive, PredictiveConfig};
use prescient_stache::testkit::{read_u64, write_u64, Cluster};
use prescient_stache::RetryConfig;
use prescient_tempest::rng::{cases, Gen};
use prescient_tempest::{GAddr, NodeId, NodeSet};

fn machine(n: usize, block_size: usize) -> (Cluster, Vec<Arc<Predictive>>) {
    let cfg = PredictiveConfig {
        // Keep pushing every round: degradation would flush the manual
        // schedule once the rogue writer makes most pushes useless.
        degrade: false,
        ..PredictiveConfig::default()
    };
    let preds: Vec<Arc<Predictive>> = (0..n).map(|_| Arc::new(Predictive::new(cfg))).collect();
    let cluster = Cluster::new(n, block_size, RetryConfig::default(), None, |i| {
        Arc::clone(&preds[i as usize]) as _
    });
    (cluster, preds)
}

/// Node 0 (home) runs pre-send rounds for a manual schedule while node 1
/// hammers the same blocks with demand writes (each write recalls or
/// invalidates pre-sent copies) and node 2 with demand reads. The rounds
/// and the demand traffic interleave freely — exactly the window in which
/// the pass-1 → pass-2 race lives. Afterwards the machine must be
/// coherent, every block must hold its last written value, and the
/// pre-send machinery must still have made progress.
#[test]
fn concurrent_demand_writes_during_presend_rounds() {
    const BLOCKS: usize = 8;
    const ROUNDS: usize = 60;
    const WRITES: usize = 240;
    let (mut m, preds) = machine(4, 32);

    let addrs: Vec<GAddr> = (0..BLOCKS).map(|_| m.nodes[0].state.mem.alloc(32, 32)).collect();
    let layout = m.nodes[0].shared.layout;
    preds[0].install_manual(
        1,
        addrs.iter().map(|a| {
            (layout.block_of(*a), ManualEntry::Readers([2u16, 3].into_iter().collect::<NodeSet>()))
        }),
    );

    let last_written = m.run(|node, _| {
        let mut last = [0u64; BLOCKS];
        match node.shared.me {
            0 => {
                for _ in 0..ROUNDS {
                    presend(&preds[0], node, 1);
                }
            }
            1 => {
                for i in 0..WRITES {
                    let b = i % BLOCKS;
                    let v = (i as u64) << 8 | b as u64;
                    write_u64(node, addrs[b], v);
                    last[b] = v;
                }
            }
            2 => {
                for i in 0..WRITES {
                    read_u64(node, addrs[i % BLOCKS]);
                }
            }
            _ => {}
        }
        last
    })[1];

    // Quiesced: every script returned, every push acknowledged and every
    // fetch granted. The invariants must hold.
    let violations = m.violations();
    assert!(violations.is_empty(), "coherence violations after race: {violations:#?}");

    // Every block reads back as its last demand-written value.
    for (b, addr) in addrs.iter().enumerate() {
        assert_eq!(m.on(3, |n| read_u64(n, *addr).0), last_written[b], "block {b} lost a write");
    }

    // The rounds actually pushed copies (the race did not wedge or
    // permanently abort the machinery).
    let pushed = m.nodes[0].shared.stats.snapshot().presend_blocks_out;
    assert!(pushed > 0, "pre-send made no progress across {ROUNDS} rounds");
}

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

const NODES: usize = 4;
const BLOCKS: usize = 6;

fn op(g: &mut Gen) -> Op {
    let block = g.below(BLOCKS as u64) as usize;
    match g.below(8) {
        0..=1 => Op::Presend,
        2..=4 => Op::Write(block, g.range(1..NODES as u64) as NodeId, g.u64()),
        _ => Op::Read(block, g.below(NODES as u64) as NodeId),
    }
}

fn run_program(ops: Vec<Op>) {
    let (mut m, preds) = machine(NODES, 32);
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
                let (got, _) = m.on(r, |n| read_u64(n, addrs[b]));
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

/// Random interleavings of pre-send rounds, recalls (via demand writes),
/// and demand reads preserve sequential semantics and every coherence
/// invariant.
#[test]
fn presend_interleaved_with_recalls() {
    cases(24, |g| run_program(g.vec(1..40, op)));
}
