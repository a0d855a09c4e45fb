//! End-to-end tests of the predictive protocol on a live emulated machine:
//! schedules are recorded during iteration 1 and pre-sends eliminate misses
//! from iteration 2 on, for producer–consumer and migratory patterns;
//! conflicts are skipped; incremental growth and flush behave as §3.3
//! describes.
//!
//! Test programs follow the paper's phase discipline: a datum is produced
//! in one parallel phase and consumed in another (writing and reading the
//! same block within one phase instance is exactly the *conflict* case).

use std::sync::{Arc, Mutex};

use prescient_core::manual::ManualEntry;
use prescient_core::presend::presend;
use prescient_core::{Predictive, PredictiveConfig};
use prescient_stache::testkit::{read_u64, write_u64, Cluster};
use prescient_stache::{Node, NodeShared, RetryConfig};
use prescient_tempest::sync::lock;
use prescient_tempest::{GAddr, NodeId, NodeSet, VBarrier};

/// One node as a test script sees it.
struct TestNode<'a> {
    node: &'a mut Node,
    pred: Arc<Predictive>,
    /// Every node's, in node order.
    preds: &'a [Arc<Predictive>],
    barrier: &'a VBarrier,
}

impl TestNode<'_> {
    /// A barrier inside a phase (the node keeps serving while it waits).
    fn sync(&mut self) {
        self.node.barrier(self.barrier, 0);
    }

    /// The runtime's `phase_begin` directive: pre-send, arm recording,
    /// stability barrier (arming precedes the barrier so every home is
    /// recording before any node can fault on this instance), close the
    /// window.
    fn phase_begin(&mut self, phase: u32) {
        self.sync();
        presend(&self.pred, self.node, phase);
        self.pred.arm(phase);
        self.sync();
        self.pred.window().close();
    }

    /// The runtime's `phase_end` directive: one barrier, whose release
    /// disarms every home after all in-phase requests were recorded and
    /// before any node can send a post-phase one.
    fn phase_end(&mut self) {
        let preds = self.preds;
        self.node.barrier_then(self.barrier, 0, || preds.iter().for_each(|p| p.end_phase()));
    }
}

/// What the test thread keeps of each node between runs.
struct Handle {
    shared: Arc<NodeShared>,
    pred: Arc<Predictive>,
}

struct TestMachine {
    cluster: Cluster,
    nodes: Vec<Handle>,
}

fn machine(n: usize, block_size: usize) -> TestMachine {
    machine_cfg(n, block_size, PredictiveConfig::default())
}

fn machine_cfg(n: usize, block_size: usize, cfg: PredictiveConfig) -> TestMachine {
    let preds: Vec<Arc<Predictive>> = (0..n).map(|_| Arc::new(Predictive::new(cfg))).collect();
    let cluster = Cluster::new(n, block_size, RetryConfig::default(), None, |i| {
        Arc::clone(&preds[i as usize]) as _
    });
    let nodes = cluster
        .nodes
        .iter()
        .zip(preds)
        .map(|(node, pred)| Handle { shared: Arc::clone(&node.shared), pred })
        .collect();
    TestMachine { cluster, nodes }
}

impl TestMachine {
    /// Shared memory homed at `node`.
    fn alloc(&mut self, node: usize, bytes: u64, align: u64) -> GAddr {
        self.cluster.nodes[node].state.mem.alloc(bytes, align)
    }

    /// Run `f(node_id, node)` on every node concurrently, SPMD style.
    fn spmd<F>(mut self, f: F) -> TestMachine
    where
        F: Fn(NodeId, &mut TestNode) + Send + Sync + 'static,
    {
        let preds: Vec<_> = self.nodes.iter().map(|h| Arc::clone(&h.pred)).collect();
        self.cluster.run(|node, barrier| {
            let me = node.shared.me;
            let pred = Arc::clone(&preds[me as usize]);
            f(me, &mut TestNode { node, pred, preds: &preds, barrier });
        });
        self
    }
}

const W: u32 = 1; // producer phase
const R: u32 = 2; // consumer phase

/// Producer–consumer across two phases: node 1 writes a value homed at
/// node 0 in phase W; node 2 reads it in phase R. After the recording
/// iteration, pre-sends must make both the write and the read hit locally.
#[test]
fn producer_consumer_becomes_local_after_recording() {
    let mut m = machine(3, 32);
    let addr = m.alloc(0, 8, 8);

    let log: Arc<Mutex<Vec<(u64, u32, u32)>>> = Arc::new(Mutex::new(Vec::new()));
    let l2 = Arc::clone(&log);

    let m = m.spmd(move |me, tn| {
        for iter in 0..5u64 {
            let mut wf = 0;
            let mut rf = 0;
            tn.phase_begin(W);
            if me == 1 {
                wf = write_u64(tn.node, addr, 100 + iter);
            }
            tn.phase_end();
            tn.phase_begin(R);
            if me == 2 {
                let (v, f) = read_u64(tn.node, addr);
                assert_eq!(v, 100 + iter);
                rf = f;
            }
            tn.phase_end();
            if me == 1 || me == 2 {
                lock(&l2).push((iter, wf, rf));
            }
        }
    });

    let log = lock(&log);
    for &(iter, wf, rf) in log.iter() {
        if iter >= 1 {
            assert_eq!(wf, 0, "producer write must hit after pre-send (iter {iter})");
            assert_eq!(rf, 0, "consumer read must hit after pre-send (iter {iter})");
        }
    }
    let iter0_faults: u32 = log.iter().filter(|e| e.0 == 0).map(|e| e.1 + e.2).sum();
    assert!(iter0_faults >= 2, "recording iteration must fault");
    // No conflicts: production and consumption are in distinct phases.
    drop(log);
    assert_eq!(m.nodes[0].pred.conflicts(W), 0);
    assert_eq!(m.nodes[0].pred.conflicts(R), 0);
    // Every window closed, as the runtime closes it: five iterations of
    // two phases each.
    for (i, h) in m.nodes.iter().enumerate() {
        assert_eq!(h.pred.window().epoch(), 1 + 2 * 5, "node {i}: one epoch per window");
    }
}

/// Read+write of the same block in one phase instance marks it conflict;
/// the protocol then takes no pre-send action and the faults persist
/// (correct, just unoptimized — §3.4).
#[test]
fn conflict_blocks_get_no_action() {
    let mut m = machine(3, 32);
    let addr = m.alloc(0, 8, 8);

    let fault_log: Arc<Mutex<Vec<u32>>> = Arc::new(Mutex::new(vec![]));
    let fl = Arc::clone(&fault_log);

    let m = m.spmd(move |me, tn| {
        for iter in 0..4u64 {
            tn.phase_begin(9);
            // Node 1 writes and node 2 reads within the SAME phase
            // instance (serialized by an internal barrier so values are
            // deterministic, but one phase as far as the schedule goes).
            if me == 1 {
                write_u64(tn.node, addr, iter);
            }
            tn.sync();
            if me == 2 {
                let (_, f) = read_u64(tn.node, addr);
                if iter > 0 {
                    lock(&fl).push(f);
                }
            }
            tn.phase_end();
        }
    });

    assert_eq!(m.nodes[0].pred.conflicts(9), 1, "home must mark the block conflict");
    let faults = lock(&fault_log);
    assert!(faults.iter().all(|&f| f > 0), "conflict block must not be pre-sent: {faults:?}");
    drop(faults);
}

/// Incremental growth: a reader that joins at iteration 2 faults once and
/// is served by pre-sends from iteration 3 on.
#[test]
fn incremental_schedule_adds_new_readers() {
    let mut m = machine(4, 32);
    let addr = m.alloc(0, 8, 8);

    let log: Arc<Mutex<Vec<(u64, NodeId, u32)>>> = Arc::new(Mutex::new(vec![]));
    let l2 = Arc::clone(&log);

    m.spmd(move |me, tn| {
        for iter in 0..6u64 {
            tn.phase_begin(W);
            if me == 1 {
                write_u64(tn.node, addr, iter);
            }
            tn.phase_end();
            tn.phase_begin(R);
            let late_joiner = me == 3 && iter >= 2;
            if me == 2 || late_joiner {
                let (v, f) = read_u64(tn.node, addr);
                assert_eq!(v, iter);
                lock(&l2).push((iter, me, f));
            }
            tn.phase_end();
        }
    });

    let log = lock(&log);
    for &(iter, me, f) in log.iter() {
        if me == 2 && iter >= 1 {
            assert_eq!(f, 0, "established reader faults at iter {iter}");
        }
        if me == 3 {
            match iter {
                2 => assert_eq!(f, 1, "late joiner must fault once on arrival"),
                i if i >= 3 => assert_eq!(f, 0, "late joiner served by pre-send at iter {i}"),
                _ => {}
            }
        }
    }
    drop(log);
}

/// Flushing a schedule reverts the phase to fault-and-record behavior.
#[test]
fn flush_rebuilds_schedule() {
    let mut m = machine(3, 32);
    let addr = m.alloc(0, 8, 8);

    let log: Arc<Mutex<Vec<(u64, u32)>>> = Arc::new(Mutex::new(vec![]));
    let l2 = Arc::clone(&log);

    m.spmd(move |me, tn| {
        for iter in 0..6u64 {
            if iter == 3 {
                tn.pred.flush(W);
                tn.pred.flush(R);
            }
            tn.phase_begin(W);
            if me == 1 {
                write_u64(tn.node, addr, iter);
            }
            tn.phase_end();
            tn.phase_begin(R);
            if me == 2 {
                let (_, f) = read_u64(tn.node, addr);
                lock(&l2).push((iter, f));
            }
            tn.phase_end();
        }
    });

    let mut entries = lock(&log).clone();
    entries.sort_unstable();
    let faults: Vec<u32> = entries.into_iter().map(|(_, f)| f).collect();
    // iter 0: fault (cold). iters 1,2: pre-sent. iter 3: fault again
    // (flushed). iters 4,5: pre-sent again.
    assert_eq!(faults, vec![1, 0, 0, 1, 0, 0]);
}

/// Contiguous blocks pushed to one reader coalesce into fewer bulk
/// messages; disabling coalescing sends one message per block.
#[test]
fn coalescing_reduces_message_count() {
    for coalesce in [true, false] {
        let cfg = PredictiveConfig { coalesce, ..Default::default() };
        let mut m = machine_cfg(2, 32, cfg);
        // 16 contiguous blocks homed at node 0, hand-scheduled for reader 1
        // (the SPMD/manual-protocol path also covers install_manual here).
        let base = m.alloc(0, 16 * 32, 32);
        let entries: Vec<_> = (0..16u64)
            .map(|i| (base.add(i * 32).block(32), ManualEntry::Readers(NodeSet::single(1))))
            .collect();
        m.nodes[0].pred.install_manual(4, entries);

        let m = m.spmd(move |me, tn| {
            tn.phase_begin(4);
            if me == 1 {
                for i in 0..16u64 {
                    let (_, f) = read_u64(tn.node, base.add(i * 32));
                    assert_eq!(f, 0, "manually scheduled block {i} must be pre-sent");
                }
            }
            tn.phase_end();
        });

        let s0 = m.nodes[0].shared.stats.snapshot();
        assert_eq!(s0.presend_blocks_out, 16, "coalesce={coalesce}");
        if coalesce {
            assert_eq!(s0.presend_msgs_out, 1, "one bulk message for the run");
        } else {
            assert_eq!(s0.presend_msgs_out, 16, "one message per block without coalescing");
        }
        let s1 = m.nodes[1].shared.stats.snapshot();
        assert_eq!(s1.presend_blocks_in, 16);
    }
}

/// The §3.4 optional policy: with conflict anticipation enabled, a
/// write-then-read conflict block is pre-granted toward its first stable
/// state (the writer), so the writer stops faulting while the reader
/// still pays demand misses.
#[test]
fn conflict_anticipation_pregrants_first_state() {
    let cfg = PredictiveConfig { anticipate_conflicts: true, ..Default::default() };
    let mut m = machine_cfg(3, 32, cfg);
    let addr = m.alloc(0, 8, 8);

    let log: Arc<Mutex<Vec<(u64, u32, u32)>>> = Arc::new(Mutex::new(vec![]));
    let l2 = Arc::clone(&log);

    let m = m.spmd(move |me, tn| {
        for iter in 0..5u64 {
            tn.phase_begin(9);
            // Writer first, reader second, same phase instance: conflict.
            if me == 1 {
                write_u64(tn.node, addr, iter);
            }
            tn.sync();
            let mut rf = 0;
            if me == 2 {
                let (v, f) = read_u64(tn.node, addr);
                assert_eq!(v, iter);
                rf = f;
            }
            tn.phase_end();
            if me == 1 || me == 2 {
                // write faults are observed via a second write probe: record reader faults only
                lock(&l2).push((iter, me as u32, rf));
            }
        }
    });

    assert_eq!(m.nodes[0].pred.conflicts(9), 1, "block is conflict-marked");
    // The writer is pre-granted: its writes hit from iteration 1 on. We
    // verify through the stats: write misses stop accumulating.
    let s1 = m.nodes[1].shared.stats.snapshot();
    assert!(
        s1.write_misses <= 2,
        "writer pre-granted under anticipation: {} write misses",
        s1.write_misses
    );
    // The reader still faults every iteration (it is on the losing side of
    // the anticipated state).
    let log = lock(&log);
    let reader_faults: u32 = log.iter().filter(|e| e.1 == 2).map(|e| e.2).sum();
    assert!(reader_faults >= 4, "reader keeps faulting: {reader_faults}");
    drop(log);
}

/// Migratory pattern: ownership of a block moves to the recorded writer
/// ahead of its write.
#[test]
fn migratory_write_is_present_to_writer() {
    let mut m = machine(3, 32);
    let addr = m.alloc(0, 8, 8);

    let log: Arc<Mutex<Vec<(u64, u32)>>> = Arc::new(Mutex::new(vec![]));
    let l2 = Arc::clone(&log);

    let m = m.spmd(move |me, tn| {
        for iter in 0..4u64 {
            tn.phase_begin(3);
            if me == 2 {
                // Node 2 increments the remotely homed counter each
                // iteration (migratory/owner-compute pattern).
                let (v, _) = read_u64(tn.node, addr);
                let f = write_u64(tn.node, addr, v + 1);
                lock(&l2).push((iter, f));
            }
            tn.phase_end();
        }
    });

    let log = lock(&log);
    for &(iter, f) in log.iter() {
        if iter >= 1 {
            assert_eq!(f, 0, "write must be pre-granted at iter {iter}");
        }
    }
    drop(log);
    let mut m = m;
    let (v, _) = m.cluster.on(0, |node| read_u64(node, addr));
    assert_eq!(v, 4);
}

/// The redundant pre-send diagnostic: a reader recorded once but absent in
/// later iterations keeps receiving (unused) copies, because schedules do
/// not track deletions (§3.3).
#[test]
fn deletions_are_not_tracked() {
    let mut m = machine(3, 32);
    let addr = m.alloc(0, 8, 8);

    let m = m.spmd(move |me, tn| {
        for iter in 0..4u64 {
            tn.phase_begin(W);
            if me == 1 {
                write_u64(tn.node, addr, iter);
            }
            tn.phase_end();
            tn.phase_begin(R);
            if me == 2 && iter == 0 {
                // Reads only in the first iteration, then never again.
                read_u64(tn.node, addr);
            }
            tn.phase_end();
        }
    });

    // Node 2 received pre-sent copies for iterations it never read in.
    let s2 = m.nodes[2].shared.stats.snapshot();
    assert!(
        s2.presend_blocks_in >= 2,
        "stale reader keeps receiving copies: {}",
        s2.presend_blocks_in
    );
    let unused = m.cluster.nodes[2].state.mem.unused_presends();
    assert_eq!(unused, 1, "the last pre-sent copy was never read");
}

/// Graceful degradation: a reader recorded once but never returning makes
/// every later pre-send useless. After `consecutive` bad instances the
/// home flushes the phase's schedule and stops recording for
/// `backoff_instances` (bounding the waste the test above diagnoses);
/// when the backoff lapses, a returning reader is re-recorded and served
/// by pre-sends again.
#[test]
fn useless_presends_trigger_degradation_then_rearm() {
    let mut m = machine(3, 32); // degradation on by default: 50% / 3 bad / backoff 4
    let addr = m.alloc(0, 8, 8);

    let log: Arc<Mutex<Vec<(u64, u32)>>> = Arc::new(Mutex::new(vec![]));
    let l2 = Arc::clone(&log);

    let m = m.spmd(move |me, tn| {
        for iter in 0..13u64 {
            tn.phase_begin(W);
            if me == 1 {
                write_u64(tn.node, addr, iter);
            }
            tn.phase_end();
            tn.phase_begin(R);
            if me == 2 && (iter == 0 || iter >= 10) {
                let (v, f) = read_u64(tn.node, addr);
                assert_eq!(v, iter);
                lock(&l2).push((iter, f));
            }
            tn.phase_end();
        }
    });

    // Exactly one degradation event at the home, resolved by the end; the
    // healthy producer phase is untouched.
    assert_eq!(m.nodes[0].pred.degrade_events(R), 1, "R must degrade once");
    assert!(!m.nodes[0].pred.is_degraded(R), "backoff must have lapsed");
    assert_eq!(m.nodes[0].pred.degrade_events(W), 0, "W stays healthy");

    let mut entries = lock(&log).clone();
    entries.sort_unstable();
    let faults: Vec<u32> = entries.into_iter().map(|(_, f)| f).collect();
    // iter 0: cold fault, recorded. iter 10: the schedule was flushed by
    // degradation, so the returning reader faults once and is re-recorded.
    // iters 11, 12: pre-sent again.
    assert_eq!(faults, vec![1, 1, 0, 0]);

    // The useless stream was cut: without degradation the reader would be
    // pushed a copy in each of iters 1..=12.
    let s2 = m.nodes[2].shared.stats.snapshot();
    assert!(s2.presend_blocks_in <= 7, "waste must be bounded: {} pushes", s2.presend_blocks_in);
    let s0 = m.nodes[0].shared.stats.snapshot();
    assert!(s0.presend_useless >= 3, "home must have observed the useless acks");
    assert_eq!(s0.degrade_events, 1);
}

/// Baseline for the degradation test: with the policy disabled, the
/// (correct but wasteful) push stream continues for the whole run.
#[test]
fn degradation_disabled_keeps_pushing() {
    let cfg = PredictiveConfig { degrade: false, ..Default::default() };
    let mut m = machine_cfg(3, 32, cfg);
    let addr = m.alloc(0, 8, 8);

    let m = m.spmd(move |me, tn| {
        for iter in 0..11u64 {
            tn.phase_begin(W);
            if me == 1 {
                write_u64(tn.node, addr, iter);
            }
            tn.phase_end();
            tn.phase_begin(R);
            if me == 2 && iter == 0 {
                read_u64(tn.node, addr);
            }
            tn.phase_end();
        }
    });

    assert_eq!(m.nodes[0].pred.degrade_events(R), 0);
    let s2 = m.nodes[2].shared.stats.snapshot();
    assert!(s2.presend_blocks_in >= 9, "stream never stops: {} pushes", s2.presend_blocks_in);
}
