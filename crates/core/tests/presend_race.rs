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
//! The proptest companion (`proptest_presend_race.rs`) interleaves recalls
//! with pre-send rounds sequentially under a model; this file stresses the
//! genuinely concurrent interleaving.

use std::sync::Arc;

use prescient_core::manual::ManualEntry;
use prescient_core::presend::presend;
use prescient_core::{DegradeConfig, Predictive, PredictiveConfig};
use prescient_stache::testkit::Cluster;
use prescient_stache::{fetch, Node, RetryConfig};
use prescient_tempest::{GAddr, NodeSet, Prim};

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

fn machine(n: usize, block_size: usize) -> (Cluster, Vec<Arc<Predictive>>) {
    let cfg = PredictiveConfig {
        // Keep pushing every round: degradation would flush the manual
        // schedule once the rogue writer makes most pushes useless.
        degrade: DegradeConfig { enabled: false, ..DegradeConfig::default() },
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
        assert_eq!(m.on(3, |n| read_u64(n, *addr)), last_written[b], "block {b} lost a write");
    }

    // The rounds actually pushed copies (the race did not wedge or
    // permanently abort the machinery).
    let pushed = m.nodes[0].shared.stats.snapshot().presend_blocks_out;
    assert!(pushed > 0, "pre-send made no progress across {ROUNDS} rounds");
}
