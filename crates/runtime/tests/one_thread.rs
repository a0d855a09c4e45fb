//! One thread per node: the program's thread is also the one that answers
//! the node's peers, so every place it can spend a long time — computing on
//! data it holds, parked in a barrier, done with its program — must keep
//! serving the inbox. Each test hangs (and fails by its bounded wait, its
//! retry budget or its test-level timeout) when the matching serve point is
//! removed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use prescient_runtime::{Agg1D, Dist1D, Machine, MachineConfig, NodeCtx};
use prescient_stache::RetryConfig;

/// A stache machine whose fetches never retry within a test's lifetime: a
/// request is answered because its home served it, or not at all.
fn patient(nodes: usize) -> MachineConfig {
    MachineConfig::stache(nodes, 32)
        .with_retry(RetryConfig { timeout: Duration::from_secs(120), max_retries: 1 })
}

/// A machine whose unanswered fetch gives up within a second.
fn impatient(nodes: usize) -> MachineConfig {
    MachineConfig::stache(nodes, 32)
        .with_retry(RetryConfig { timeout: Duration::from_millis(50), max_retries: 20 })
}

/// Run `f` on its own thread and fail loudly if it has not finished within
/// `limit` (a lost wake-up shows as a hang, never as a wrong answer).
fn within<R: Send + 'static>(limit: Duration, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || tx.send(f()));
    rx.recv_timeout(limit).expect("the machine hung: a node stopped serving its inbox")
}

/// (a) Node 0 computes on its own home data — every access a hit, no fault,
/// no barrier — while node 1 first reads a block homed at node 0
/// (`GetShared` to a busy home) and then writes a block node 0 holds a
/// read-only copy of (`Invalidate` to a busy sharer). Both must be answered
/// from inside the stretch, by the poll.
#[test]
fn a_node_computing_on_its_own_data_answers_its_peers() {
    let mut m = Machine::new(patient(2));
    let a = Agg1D::<f64>::new(&m, 2 * 1024, Dist1D::Block);
    let answered = AtomicBool::new(false);
    let (inside, report) = m.run(|ctx: &mut NodeCtx| {
        let mine = a.my_range(ctx.me());
        for i in mine.clone() {
            ctx.write(a.addr(i), i as f64);
        }
        if ctx.me() == 0 {
            // Become a sharer of node 1's first block.
            ctx.read::<f64>(a.addr(a.my_range(1).start));
        }
        ctx.barrier();
        if ctx.me() == 1 {
            let got: f64 = ctx.read(a.addr(0));
            assert_eq!(got, 0.0);
            ctx.write(a.addr(mine.start), -1.0);
            answered.store(true, Ordering::Release);
            return true;
        }
        // The stretch: hits on the second half of node 0's own elements,
        // bounded by wall time so a missing poll fails instead of hanging.
        let start = Instant::now();
        let mut sum = 0.0;
        while !answered.load(Ordering::Acquire) && start.elapsed() < Duration::from_secs(10) {
            for i in mine.start + 512..mine.end {
                sum += ctx.read::<f64>(a.addr(i));
            }
        }
        std::hint::black_box(sum);
        answered.load(Ordering::Acquire)
    });
    assert!(inside[0], "node 1's requests were not answered inside node 0's stretch of hits");
    let s0 = &report.per_node[0].stats;
    assert_eq!((s0.read_misses, s0.write_misses), (1, 0), "the stretch itself must not fault");
    assert_eq!(s0.invals_in, 1, "node 0 was invalidated inside the stretch");
}

/// (b) Node 0's program returns at once; node 1 then faults on data homed
/// at node 0. Node 0 serves from the end-of-run barrier.
#[test]
fn a_node_whose_program_returned_serves_until_the_run_ends() {
    let mut m = Machine::new(impatient(2));
    let a = Agg1D::<f64>::new(&m, 64, Dist1D::Block);
    let (got, report) = m.run(|ctx: &mut NodeCtx| {
        if ctx.me() == 0 {
            return 0.0;
        }
        std::thread::sleep(Duration::from_millis(30)); // let node 0 finish first
        ctx.write(a.addr(0), 7.0f64);
        ctx.read::<f64>(a.addr(0))
    });
    assert_eq!(got[1], 7.0);
    assert_eq!(report.total_stats().retries, 0, "node 0 answered without being asked twice");
}

/// (c) Every node but the straggler is parked in `barrier()` when the
/// straggler faults on data homed at each of them.
#[test]
fn a_node_parked_in_a_barrier_serves_a_straggler() {
    let nodes = 4;
    let mut m = Machine::new(impatient(nodes));
    let a = Agg1D::<f64>::new(&m, 32 * nodes, Dist1D::Block);
    let (sums, report) = m.run(|ctx: &mut NodeCtx| {
        let mut sum = 0.0;
        if ctx.me() == 1 {
            std::thread::sleep(Duration::from_millis(30)); // the others park first
            for home in 0..nodes as u16 {
                sum += ctx.read::<f64>(a.addr(a.my_range(home).start));
            }
        }
        ctx.barrier();
        sum
    });
    assert_eq!(sums[1], 0.0);
    assert_eq!(report.per_node[1].stats.read_misses, 3);
    assert_eq!(report.total_stats().retries, 0);
}

/// (c) 10 000 back-to-back barriers on 32 nodes: a release whose kick is
/// lost leaves a node blocked on its inbox for good.
#[test]
fn back_to_back_barriers_lose_no_release() {
    let rounds = within(Duration::from_secs(300), || {
        let mut m = Machine::new(patient(32));
        m.run(|ctx: &mut NodeCtx| {
            let mut n = 0u32;
            for _ in 0..10_000 {
                ctx.barrier();
                n += 1;
            }
            n
        })
        .0
    });
    assert_eq!(rounds, vec![10_000; 32]);
}

/// (d) A fault on a node's own home block is still a counted self-send
/// each way. The script and its per-node message counts are the parent
/// commit's (two threads per node): node 1 takes node 0's block exclusive
/// (GetExcl, Grant), node 0 reads it back (GetShared→self, Recall,
/// RecallData, Grant→self), then writes it (GetExcl→self, Invalidate,
/// InvalAck, Grant→self).
#[test]
fn an_own_home_fault_is_two_counted_self_sends() {
    let mut m = Machine::new(patient(2));
    let a = Agg1D::<f64>::new(&m, 64, Dist1D::Block);
    let (_, report) = m.run(|ctx: &mut NodeCtx| {
        if ctx.me() == 0 {
            ctx.write(a.addr(0), 1.0f64);
        }
        ctx.barrier();
        if ctx.me() == 1 {
            ctx.write(a.addr(0), 2.0f64);
        }
        ctx.barrier();
        if ctx.me() == 0 {
            assert_eq!(ctx.read::<f64>(a.addr(0)), 2.0);
        }
        ctx.barrier();
        if ctx.me() == 0 {
            ctx.write(a.addr(0), 3.0f64);
        }
    });
    let msgs: Vec<u64> = report.per_node.iter().map(|n| n.stats.msgs_out).collect();
    assert_eq!(msgs, vec![7, 3]);
    let s0 = &report.per_node[0].stats;
    assert_eq!((s0.read_misses, s0.write_misses), (1, 1));
}
