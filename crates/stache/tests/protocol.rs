//! End-to-end tests of the Stache write-invalidate protocol on a small
//! emulated machine: coherence, sequential-consistency-visible values, hop
//! accounting, and waiter queueing.

use std::sync::Arc;

use prescient_stache::testkit::{read_u64, write_u64, Cluster};
use prescient_stache::{fetch, NoHooks, Node, RetryConfig};
use prescient_tempest::tag::Tag;
use prescient_tempest::{GAddr, Prim};

fn machine(n: usize, block_size: usize) -> Cluster {
    Cluster::new(n, block_size, RetryConfig::default(), None, |_| Arc::new(NoHooks))
}

/// One node acts, every other node serves: the sequential style of the
/// tests below.
trait Seq {
    fn read(&mut self, node: u16, addr: GAddr) -> (u64, u32);
    fn write(&mut self, node: u16, addr: GAddr, v: u64) -> u32;
}

impl Seq for Cluster {
    fn read(&mut self, node: u16, addr: GAddr) -> (u64, u32) {
        self.on(node, |n| read_u64(n, addr))
    }

    fn write(&mut self, node: u16, addr: GAddr, v: u64) -> u32 {
        self.on(node, |n| write_u64(n, addr, v))
    }
}

#[test]
fn remote_read_fetches_home_data() {
    let mut m = machine(2, 32);
    // Node 0 writes into its own home memory; node 1 reads it remotely.
    let addr = m.nodes[0].state.mem.alloc(8, 8);
    assert_eq!(m.write(0, addr, 0xabcd), 0, "home write must hit");
    let (v, faults) = m.read(1, addr);
    assert_eq!(v, 0xabcd);
    assert_eq!(faults, 1);
    // Second read hits the cached copy.
    let (v2, faults2) = m.read(1, addr);
    assert_eq!(v2, 0xabcd);
    assert_eq!(faults2, 0);
}

#[test]
fn write_invalidates_remote_readers() {
    let mut m = machine(3, 32);
    let addr = m.nodes[0].state.mem.alloc(8, 8);
    m.write(0, addr, 1);
    // Nodes 1 and 2 cache read-only copies.
    assert_eq!(m.read(1, addr).0, 1);
    assert_eq!(m.read(2, addr).0, 1);
    // Home writes a new value: must invalidate both sharers first.
    let faults = m.write(0, addr, 2);
    assert_eq!(faults, 1, "home write to shared block faults once");
    // Readers fault again and observe the new value.
    let (v1, f1) = m.read(1, addr);
    let (v2, f2) = m.read(2, addr);
    assert_eq!((v1, v2), (2, 2));
    assert_eq!((f1, f2), (1, 1));
    let s1 = m.nodes[1].shared.stats.snapshot();
    assert_eq!(s1.invals_in, 1);
}

#[test]
fn producer_consumer_four_hop() {
    // Producer (node 1) and consumer (node 2) of data homed at node 0:
    // each transfer costs extra hops (recall), the §3.2 inefficiency.
    let mut m = machine(3, 32);
    let addr = m.nodes[0].state.mem.alloc(8, 8);
    for round in 0..5u64 {
        m.write(1, addr, round * 10);
        let (v, faults) = m.read(2, addr);
        assert_eq!(v, round * 10);
        assert_eq!(faults, 1, "every consume misses under write-invalidate");
    }
    // The producer's writes after round 0 must recall/invalidate the
    // consumer's copy each round.
    let s2 = m.nodes[2].shared.stats.snapshot();
    assert!(s2.invals_in + s2.recalls_in >= 4, "consumer copies must be torn down each round");
}

#[test]
fn read_of_exclusive_block_downgrades_owner() {
    let mut m = machine(3, 64);
    let addr = m.nodes[0].state.mem.alloc(8, 8);
    m.write(1, addr, 77); // node 1 becomes exclusive owner
    let (v, _) = m.read(2, addr);
    assert_eq!(v, 77);
    // Owner was downgraded, not invalidated: its next read hits.
    let (v1, f1) = m.read(1, addr);
    assert_eq!(v1, 77);
    assert_eq!(f1, 0);
    assert_eq!(m.nodes[1].shared.stats.snapshot().recalls_in, 1);
}

#[test]
fn upgrade_moves_no_data() {
    let mut m = machine(2, 32);
    let addr = m.nodes[0].state.mem.alloc(8, 8);
    m.write(0, addr, 5);
    let (v, _) = m.read(1, addr);
    assert_eq!(v, 5);
    // Node 1 upgrades its read-only copy to writable: grant without data.
    let mut buf = [0u8; 8];
    9u64.store(&mut buf);
    let fault = m.nodes[1].state.mem.write_in_block(addr, &buf).unwrap_err();
    let info = m.on(1, |n| fetch(n, fault.fault().block, true));
    assert_eq!(info.bytes, 0, "upgrade grant carries no data");
    assert_eq!(m.write(1, addr, 9), 0);
    assert_eq!(m.read(0, addr).0, 9);
}

#[test]
fn home_read_of_remote_exclusive_recalls() {
    let mut m = machine(2, 32);
    let addr = m.nodes[0].state.mem.alloc(8, 8);
    m.write(1, addr, 1234); // remote node owns home's block
    assert_eq!(m.nodes[0].state.mem.probe(addr.block(32)), Tag::Invalid);
    let (v, faults) = m.read(0, addr);
    assert_eq!(v, 1234);
    assert_eq!(faults, 1, "home read of remotely owned block faults");
}

#[test]
fn contended_exclusive_serializes() {
    // Many nodes hammer exclusive writes to one block; the waiter queue
    // must serialize them and every increment must survive.
    let n = 8;
    let mut m = machine(n, 32);
    let addr = m.nodes[0].state.mem.alloc(8, 8);
    let rounds = 20;

    m.run(|node, _| {
        for _ in 0..rounds {
            // read-modify-write; each iteration re-acquires exclusivity
            loop {
                // no inbox drain inside the RMW, so the local copy can't
                // be recalled mid-update
                let mem = &mut node.state.mem;
                let mut buf = [0u8; 8];
                if mem.read_in_block(addr, &mut buf).is_ok() && mem.probe(addr.block(32)).writable()
                {
                    let v = u64::load(&buf) + 1;
                    v.store(&mut buf);
                    mem.write_in_block(addr, &buf).unwrap();
                    break;
                }
                fetch(node, addr.block(32), true);
            }
        }
    });
    let (total, _) = m.read(0, addr);
    assert_eq!(total, (n * rounds) as u64);
}

#[test]
fn distinct_blocks_are_independent() {
    let mut m = machine(2, 32);
    let a = m.nodes[0].state.mem.alloc(8, 8);
    let b = m.nodes[0].state.mem.alloc(32, 32); // next block
    assert_ne!(a.block(32), b.block(32));
    m.write(0, a, 1);
    m.write(1, b, 2);
    assert_eq!(m.read(1, a).0, 1);
    assert_eq!(m.read(0, b).0, 2);
    // Writing b again on node 1 must not disturb node 1's copy of a.
    m.write(1, b, 3);
    assert_eq!(m.read(1, a).1, 0, "block a still cached");
}

#[test]
fn false_sharing_within_block_pingpongs() {
    // Two nodes write different words of the same 32-byte block: the block
    // must ping-pong (correct but slow — motivates small blocks).
    let mut m = machine(3, 32);
    let base = m.nodes[0].state.mem.alloc(32, 32);
    let w0 = base;
    let w1 = base.add(8);
    for i in 0..4u64 {
        m.write(1, w0, i);
        m.write(2, w1, 100 + i);
    }
    assert_eq!(m.read(0, w0).0, 3);
    assert_eq!(m.read(0, w1).0, 103);
    let s1 = m.nodes[1].shared.stats.snapshot();
    assert!(s1.recalls_in + s1.invals_in >= 3, "false sharing forces repeated teardown");
}

#[test]
fn a_run_segment_reads_one_version_of_its_block_while_the_next_is_invalidated() {
    // The run-granular access (`NodeCtx::read_run`) reads a run one block
    // segment at a time, each under one tag observation (`read_hit`), and
    // polls only between segments. Here the reader is inside block b of a
    // two-block run when the home rewrites block b+1; the poll between the
    // segments is a barrier, so it is certain to serve the invalidation.
    let mut m = machine(2, 32);
    let base = m.nodes[0].state.mem.alloc(64, 32);
    let word = |w: u64| base.add(8 * w);
    m.on(0, |n| (0..8).for_each(|w| assert_eq!(write_u64(n, word(w), 100 + w), 0)));
    let out = m.run(|node, bar| {
        if node.shared.me == 0 {
            node.barrier(bar, 0);
            // Block b+1, all four words: one fault, which invalidates the
            // reader's copy.
            let faults: u32 = (4..8).map(|w| write_u64(node, word(w), 200 + w)).sum();
            assert_eq!(faults, 1);
            node.barrier(bar, 0);
            return None;
        }
        // Both blocks cached read-only, as the per-word loop would have.
        assert_eq!((read_u64(node, word(0)).1, read_u64(node, word(4)).1), (1, 1));
        let seg = |node: &Node, w: u64| {
            node.state
                .mem
                .read_hit(word(w), 32)
                .map(|b| b.chunks_exact(8).map(u64::load).collect::<Vec<u64>>())
        };
        assert!(seg(node, 4).is_some(), "block b+1 would hit now");
        let first = seg(node, 0).expect("segment one hits");
        node.barrier(bar, 0);
        node.barrier(bar, 0);
        // Segment two: not a hit any more, so it goes word by word
        // through the slow path — one fault, then the new version.
        assert_eq!(seg(node, 4), None, "the invalidated block must not hit");
        let second: Vec<(u64, u32)> = (4..8).map(|w| read_u64(node, word(w))).collect();
        Some((first, second))
    });
    let (first, second) = out.into_iter().flatten().next().expect("the reader's result");
    assert_eq!(first, vec![100, 101, 102, 103], "segment one: the old version throughout");
    assert_eq!(second, vec![(204, 1), (205, 0), (206, 0), (207, 0)], "segment two: the new one");
    assert!(m.violations().is_empty(), "{:?}", m.violations());
}
