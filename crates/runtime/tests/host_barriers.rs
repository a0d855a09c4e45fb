//! Every host barrier orders something. The modelled machine keeps its
//! barriers (virtual time bills each one), but a host episode is spent
//! only where some ordering needs it: a predictive phase meets three
//! times (pre-send entry, stability, close), and twice inside a phase
//! sequence, whose closing barrier also opens the next phase; an
//! all-reduce once, a recovery four times. These tests pin the episode
//! counts, and the orderings the removed episodes used to buy: recording
//! is closed on every home by the time any node leaves `phase_end` or
//! starts the next phase's pre-send, and a round's sum survives the next
//! round's contributions.

use std::sync::Arc;

use prescient_runtime::{Agg1D, Dist1D, Machine, MachineConfig, NodeCtx, RunReport};
use prescient_tempest::{CrashPlan, NodeId};

/// Host episodes one `f` run adds to `m`.
fn episodes(m: &mut Machine, f: impl Fn(&mut NodeCtx) + Sync) -> u64 {
    let before = m.barrier_episodes();
    m.run(f);
    m.barrier_episodes() - before
}

/// Episodes per `NodeCtx::phase`, per protocol and checkpoint setting, and
/// one per all-reduce, barrier and end of run. A crash adds the recovery's
/// four and the replayed phase's own.
#[test]
fn each_construct_spends_the_episodes_its_orderings_need() {
    const PHASES: u64 = 5;
    const REDUCES: u64 = 3;
    let crash = CrashPlan { node: 1, at_version: 2 };
    let table = [
        ("stache", MachineConfig::stache(4, 32), 1, 0),
        ("stache + checkpoints", MachineConfig::stache(4, 32).with_checkpoints(true), 3, 0),
        ("stache + crash", MachineConfig::stache(4, 32).with_crash_plan(crash), 3, 4 + 3),
        ("predictive", MachineConfig::predictive(4, 32), 3, 0),
        ("predictive + checkpoints", MachineConfig::predictive(4, 32).with_checkpoints(true), 4, 0),
        ("predictive + crash", MachineConfig::predictive(4, 32).with_crash_plan(crash), 4, 4 + 4),
    ];
    for (name, cfg, per_phase, recovery) in table {
        let mut m = Machine::new(cfg);
        let got = episodes(&mut m, |ctx| {
            for _ in 0..PHASES {
                ctx.phase(1, &mut (), |_, _| {});
            }
            let mut v = [1.0f64; 3];
            for _ in 0..REDUCES {
                ctx.allreduce_sum(&mut v);
            }
            ctx.barrier();
        });
        assert_eq!(got, PHASES * per_phase + recovery + REDUCES + 1 + 1, "{name}");
    }
    // The two-barrier windows: a manual pre-send and a merge exchange.
    let mut m = Machine::new(MachineConfig::predictive(4, 32));
    assert_eq!(episodes(&mut m, |ctx| ctx.presend_only(1)), 2 + 1);
    let mut m = Machine::new(MachineConfig::stache(4, 32));
    assert_eq!(episodes(&mut m, |ctx| drop(ctx.merge_exchange(1, &[]))), 2 + 1);
}

/// A sequence of P phases (`NodeCtx::phases`, or the fused directive
/// `phase_next` by hand) meets once per boundary: predictive 2P + 1 (an
/// entry, then a stability and a closing barrier per phase), + P with
/// checkpoints (each cut still closes at the entry); Stache 2P + 1 with
/// checkpoints (a cut close and a closing barrier per phase), P without.
#[test]
fn a_phase_sequence_meets_once_per_boundary() {
    const P: u64 = 6;
    let table = [
        ("stache", MachineConfig::stache(4, 32), P),
        ("stache + checkpoints", MachineConfig::stache(4, 32).with_checkpoints(true), 2 * P + 1),
        ("predictive", MachineConfig::predictive(4, 32), 2 * P + 1),
        (
            "predictive + checkpoints",
            MachineConfig::predictive(4, 32).with_checkpoints(true),
            3 * P + 1,
        ),
    ];
    let ids = || (0..P as u32).map(|k| k % 2 + 1);
    for (name, cfg, per_sequence) in table {
        let mut m = Machine::new(cfg);
        let got = episodes(&mut m, |ctx| ctx.phases(ids(), &mut (), |_, _, _| {}));
        assert_eq!(got, per_sequence + 1, "{name}: phases");
        let got = episodes(&mut m, |ctx| {
            ctx.phase_begin(1);
            ids().skip(1).for_each(|id| ctx.phase_next(id));
            ctx.phase_end();
        });
        assert_eq!(got, per_sequence + 1, "{name}: phase_next");
    }
}

/// Node `i` reads the first block of node `i + 1` in phase 1, and writes
/// its own in phase 2, which takes the reader's copy away: every phase-1
/// pre-send pushes that copy back, every phase-2 one tears it down.
fn ping_pong(ctx: &mut NodeCtx, a: &Agg1D<f64>, phase: u32) {
    let me = ctx.me();
    if phase == 1 {
        let next = a.my_range((me + 1) % ctx.nodes() as NodeId).start;
        ctx.read::<f64>(a.addr(next));
    } else {
        ctx.write(a.addr(a.my_range(me).start), f64::from(me));
    }
}

/// At a fused boundary nothing separates the closing barrier from the
/// next phase's pre-send, so that barrier's release must already have
/// disarmed every home: no home records phase k when any node's pre-send
/// for phase k + 1 starts. The sequence draws each id between the close
/// of one phase and the open of the next, which is where it looks. (A
/// faster peer may already record phase k + 1: its window arms its home.)
#[test]
fn no_home_records_the_closed_phase_when_the_next_presend_starts() {
    const NODES: usize = 8;
    let mut m = Machine::new(MachineConfig::predictive(NODES, 32));
    let a = Agg1D::<f64>::new(&m, NODES * 16, Dist1D::Block);
    let preds = preds(&m);
    let (_, report) = m.run(|ctx: &mut NodeCtx| {
        let phase = |k: u32| k % 2 + 1;
        let ids = (0..200u32).map(|k| {
            let closed = Some(phase(k + 1));
            let armed: Vec<_> = (0..NODES).filter(|&i| preds[i].recording() == closed).collect();
            assert!(armed.is_empty(), "before phase instance {k}: homes {armed:?} still recording");
            phase(k)
        });
        ctx.phases(ids, &mut (), |ctx, phase, _| {
            let armed = preds.iter().filter(|p| p.recording() == Some(phase)).count();
            assert_eq!(armed, NODES, "phase {phase}: a home is not recording it");
            ping_pong(ctx, &a, phase);
        });
    });
    let pushed: u64 = report.per_node.iter().map(|n| n.stats.presend_blocks_out).sum();
    assert!(pushed > 0, "the boundaries must carry pre-sends");
}

/// `NodeCtx::phases` over eight phase versions on a checkpointing
/// predictive machine, crashing node 1 at `crash` if given: every node's
/// replay state (a tally of what it read) and the report.
fn sequence_run(crash: Option<u64>) -> (Vec<Vec<u64>>, RunReport) {
    const NODES: usize = 4;
    let mut cfg = MachineConfig::predictive(NODES, 32).with_checkpoints(true);
    if let Some(v) = crash {
        cfg = cfg.with_crash_plan(CrashPlan::new(1, v));
    }
    let mut m = Machine::new(cfg.validated());
    let a = Agg1D::<f64>::new(&m, NODES * 16, Dist1D::Block);
    m.run(|ctx: &mut NodeCtx| {
        for i in a.my_range(ctx.me()) {
            ctx.write(a.addr(i), i as f64);
        }
        ctx.barrier();
    });
    m.run(|ctx: &mut NodeCtx| {
        let mut seen = Vec::new();
        ctx.phases((0..8u32).map(|k| k % 2 + 1), &mut seen, |ctx, phase, seen| {
            ping_pong(ctx, &a, phase);
            // A block of its own that no peer reads.
            let mine = a.my_range(ctx.me()).start + 4;
            let v: f64 = ctx.read(a.addr(mine));
            ctx.write(a.addr(mine), v + f64::from(phase));
            seen.push(v.to_bits());
        });
        seen
    })
}

/// A crash in the middle of a sequence rolls back to that phase's
/// checkpoint, replays it unfused and carries on fused: the run equals a
/// crash-free one in its replay state and in every gated column.
#[test]
fn a_crash_inside_a_sequence_replays_bit_identically() {
    let (clean_seen, clean) = sequence_run(None);
    let (seen, crashed) = sequence_run(Some(4));
    let t = crashed.total_stats();
    assert_eq!((t.recoveries, t.replays), (4, 4), "every node recovers and replays once");
    assert_eq!(seen, clean_seen);
    let gated = |r: &RunReport| {
        let t = r.total_stats();
        (r.exec_time_ns(), t.msgs_out, t.misses(), t.presend_blocks_out, t.data_bytes_in)
    };
    assert_eq!(gated(&crashed), gated(&clean));
    assert_eq!(clean.total_stats().replays, 0);
}

/// Every node's predictive state, cloned out of the machine.
fn preds(m: &Machine) -> Vec<Arc<prescient_core::Predictive>> {
    (0..m.nodes()).map(|i| Arc::clone(m.predictive(i as NodeId).expect("predictive"))).collect()
}

/// Recording closes at the closing barrier's release, for every home at
/// once: a node that leaves `phase_end` finds no home still recording, and
/// inside the phase finds every home recording it.
#[test]
fn every_home_is_disarmed_when_any_node_leaves_phase_end() {
    const NODES: usize = 8;
    let mut m = Machine::new(MachineConfig::predictive(NODES, 32));
    let a = Agg1D::<f64>::new(&m, NODES * 16, Dist1D::Block);
    let preds = preds(&m);
    m.run(|ctx: &mut NodeCtx| {
        let next = a.my_range((ctx.me() + 1) % NODES as NodeId).start;
        for iter in 0..200 {
            ctx.phase_begin(1);
            let armed = preds.iter().filter(|p| p.recording() == Some(1)).count();
            assert_eq!(armed, NODES, "iteration {iter}: a home is not recording the phase");
            ctx.read::<f64>(a.addr(next + 4 * (iter % 4)));
            ctx.phase_end();
            let armed: Vec<_> = (0..NODES).filter(|&i| preds[i].recording().is_some()).collect();
            assert!(armed.is_empty(), "iteration {iter}: homes {armed:?} still recording");
        }
    });
}

/// What the disarm is for: a request a node sends right after `phase_end`
/// must not land in the closed phase's schedule, however late its home
/// leaves the barrier. Node `i` reads block 0 of node `i + 1` inside phase
/// `P`, and block 1 right after it; phase `Q` has the home write block 1,
/// which takes the reader's copy away, so every iteration's post-phase read
/// is a request. Each home's `P` schedule must hold block 0 alone.
#[test]
fn a_request_sent_after_phase_end_is_not_recorded_into_the_phase() {
    const NODES: usize = 8;
    const P: u32 = 1;
    const Q: u32 = 2;
    // 32 B blocks of four f64: two blocks per node.
    let mut m = Machine::new(MachineConfig::predictive(NODES, 32));
    let a = Agg1D::<f64>::new(&m, NODES * 8, Dist1D::Block);
    let (_, report) = m.run(|ctx: &mut NodeCtx| {
        let me = ctx.me();
        let next = a.my_range((me + 1) % NODES as NodeId).start;
        let mine = a.my_range(me).start;
        for iter in 0..100 {
            ctx.phase(P, &mut (), |ctx, _| {
                ctx.read::<f64>(a.addr(next));
            });
            ctx.read::<f64>(a.addr(next + 4));
            ctx.phase(Q, &mut (), |ctx, _| ctx.write(a.addr(mine + 4), f64::from(iter)));
        }
    });
    let faulted: u64 = report.per_node.iter().map(|n| n.stats.read_misses).sum();
    assert!(faulted >= (NODES * 100) as u64, "the post-phase read must fault every iteration");
    for (home, p) in preds(&m).iter().enumerate() {
        assert_eq!(p.entries(P), 1, "home {home}: a post-phase request was recorded into P");
    }
}

/// One host barrier per all-reduce: contributions go in before it, the sum
/// is read after it, and a fast node's next contribution — which clears
/// the last round's — cannot spoil a slow node's read. Lengths change
/// every round, and every third slot is a cancellation whose result
/// depends on the order of addition.
#[test]
fn back_to_back_allreduces_sum_in_node_order() {
    const NODES: usize = 8;
    const ROUNDS: usize = 300;
    fn value(node: usize, round: usize, slot: usize) -> f64 {
        match (slot % 3, node % 3) {
            (0, 1) => 1e16,
            (0, 2) => -1e16,
            _ => (node * 1000 + round) as f64 + slot as f64 / 8.0,
        }
    }
    let mut m = Machine::new(MachineConfig::stache(NODES, 32));
    let (wrong, _) = m.run(|ctx: &mut NodeCtx| {
        let me = ctx.me() as usize;
        let mut wrong = Vec::new();
        for round in 0..ROUNDS {
            let len = 1 + round % 7;
            let mut vals: Vec<f64> = (0..len).map(|s| value(me, round, s)).collect();
            ctx.allreduce_sum(&mut vals);
            let want = (0..len).map(|s| (0..NODES).fold(0.0, |acc, n| acc + value(n, round, s)));
            if !vals.iter().zip(want).all(|(got, want)| got.to_bits() == want.to_bits()) {
                wrong.push(round);
            }
        }
        wrong
    });
    for (node, rounds) in wrong.iter().enumerate() {
        assert!(rounds.is_empty(), "node {node}: wrong sums in rounds {rounds:?}");
    }
}
