//! Regression stress for the self-grant/waiter-queue race: three nodes
//! concurrently upgrade distinct words of one falsely shared block, then
//! all read every word back. Before the fix (a home's own grant installs
//! nothing: the table's requester row `Grant, local` only wakes), a home
//! node's queued self-grant could resurrect a revoked writable tag after
//! the block had been re-granted to a waiter, silently losing the home's
//! writes.

use prescient_stache::testkit::Cluster;
use prescient_stache::{fetch, NoHooks, Node, RetryConfig};
use prescient_tempest::{GAddr, Prim};
use std::sync::Arc;

fn write(node: &mut Node, a: GAddr, v: u64) {
    let mut buf = [0u8; 8];
    v.store(&mut buf);
    while let Err(f) = node.state.mem.write_in_block(a, &buf) {
        fetch(node, f.fault().block, true);
    }
}

fn read(node: &mut Node, a: GAddr) -> u64 {
    let mut buf = [0u8; 8];
    while let Err(f) = node.state.mem.read_in_block(a, &mut buf) {
        fetch(node, f.fault().block, false);
    }
    u64::load(&buf)
}

#[test]
fn false_sharing_stress() {
    for round in 0..6 {
        let mut m = Cluster::new(3, 64, RetryConfig::default(), None, |_| Arc::new(NoHooks));
        let base = m.nodes[2].state.mem.alloc(8 * 4, 8);
        let fails: Vec<String> = m
            .run(|node, barrier| {
                let me = u64::from(node.shared.me);
                let mut fails = vec![];
                for iter in 0..6u64 {
                    // write phase: node k writes word k
                    write(node, base.add(8 * me), 1000 * iter + me);
                    node.barrier(barrier, 0);
                    // read phase: everyone reads all three words
                    for k in 0..3u64 {
                        let got = read(node, base.add(8 * k));
                        let want = 1000 * iter + k;
                        if got != want {
                            fails.push(format!(
                                "round {round} iter {iter}: node {me} word {k}: got {got} want {want}"
                            ));
                        }
                    }
                    node.barrier(barrier, 0);
                }
                fails
            })
            .into_iter()
            .flatten()
            .collect();
        assert!(fails.is_empty(), "{fails:#?}");
    }
}
