//! Coherence under random phase-structured programs, on a clean fabric
//! and on one that delays, duplicates, and drops messages (seeded,
//! reproducible fault schedules).
//!
//! Programs are sequences of *phases* (barrier-separated), each phase
//! either a write round (each address written by at most one node) or a
//! read round (arbitrary nodes read arbitrary addresses) — the
//! data-parallel discipline under which sequential consistency makes the
//! outcome deterministic. Every run must observe exactly the values the
//! sequential model predicts, finish (liveness under drops comes from the
//! retry machinery), and leave the machine in a state that passes the
//! whole-machine coherence check — i.e. results are bit-equal to a
//! fault-free run.
//!
//! Injected delays keep point-to-point FIFO (a delayed message stalls its
//! whole link, `prescient_tempest::faults`): Stache's grant/recall
//! ordering requires it, and the fabric guarantees it.

use std::sync::Arc;
use std::time::Duration;

use prescient_stache::testkit::{read_u64, write_u64, Cluster};
use prescient_stache::{fetch, NoHooks, RetryConfig};
use prescient_tempest::rng::{cases, replay, Gen};
use prescient_tempest::{FaultPlan, FaultStats, GAddr, NodeId, Prim};

/// Fast wall-clock retry policy for tests: dropped messages are re-issued
/// quickly so drop-heavy runs stay fast.
fn test_retry() -> RetryConfig {
    RetryConfig { timeout: Duration::from_millis(25), max_retries: 400 }
}

#[derive(Debug, Clone)]
enum Phase {
    /// `(address index, writer node, value)` — one writer per address.
    Writes(Vec<(usize, NodeId, u64)>),
    /// `(address index, reader node)`.
    Reads(Vec<(usize, NodeId)>),
}

/// A write round: 1 to 5 distinct addresses, each with one writer.
fn writes(g: &mut Gen, n_addrs: usize, nodes: u16) -> Phase {
    let mut ws: Vec<(usize, NodeId, u64)> = Vec::new();
    for _ in 0..g.len(1..6) {
        let (a, w, v) =
            (g.below(n_addrs as u64) as usize, g.below(nodes.into()) as NodeId, g.u64());
        if ws.iter().all(|&(b, _, _)| b != a) {
            ws.push((a, w, v));
        }
    }
    Phase::Writes(ws)
}

/// A read round: 1 to 9 `(address, reader)` pairs.
fn reads(g: &mut Gen, n_addrs: usize, nodes: u16) -> Phase {
    Phase::Reads(
        g.vec(1..10, |g| (g.below(n_addrs as u64) as usize, g.below(nodes.into()) as NodeId)),
    )
}

/// `len` rounds of either kind over 12 addresses and 3 nodes: the
/// properties' programs.
fn program(g: &mut Gen, len: std::ops::Range<usize>) -> Vec<Phase> {
    g.vec(len, |g| if g.bool() { writes(g, 12, 3) } else { reads(g, 12, 3) })
}

/// The program `seed` names: alternating write and read rounds, so that
/// every run carries invalidation traffic for the fault layer to act on.
fn seeded_program(seed: u64, nodes: u16, n_addrs: usize, n_phases: usize) -> Vec<Phase> {
    let round = |g: &mut Gen, pi| {
        if pi % 2 == 0 {
            writes(g, n_addrs, nodes)
        } else {
            reads(g, n_addrs, nodes)
        }
    };
    replay(seed, 100, |g| (0..n_phases).map(|pi| round(g, pi)).collect())
}

fn build_machine(nodes: usize, block_size: usize, plan: Option<FaultPlan>) -> Cluster {
    Cluster::new(nodes, block_size, test_retry(), plan, |_| Arc::new(NoHooks))
}

/// Outcome of one program run: every read observation in a canonical
/// order, plus protocol-level stat totals for the fault-activity asserts.
struct RunOutcome {
    /// `(phase, addr index, reader, value)` sorted — deterministic given
    /// the program, independent of interleaving.
    observations: Vec<(usize, usize, NodeId, u64)>,
    retries: u64,
    dup_reqs_in: u64,
    faults: Option<Arc<FaultStats>>,
}

/// Run `phases` on a live machine (optionally faulty), check every read
/// against the sequential model and the quiescent machine against the
/// coherence invariants, and return the canonical observations.
fn run_program(
    nodes: usize,
    block_size: usize,
    plan: Option<FaultPlan>,
    phases: Vec<Phase>,
) -> RunOutcome {
    let mut m = build_machine(nodes, block_size, plan);

    // Address pool: 4 words homed on every node (some share a block).
    let mut addrs: Vec<GAddr> = Vec::new();
    for node in &mut m.nodes {
        let base = node.state.mem.alloc(8 * 4, 8);
        for k in 0..4 {
            addrs.push(base.add(8 * k));
        }
    }
    let n_addrs = addrs.len();

    // Sequential model: expected memory after each phase.
    let mut model = vec![0u64; n_addrs];
    let mut expects: Vec<Vec<u64>> = Vec::with_capacity(phases.len());
    for p in &phases {
        if let Phase::Writes(ws) = p {
            for &(a, _, v) in ws {
                model[a] = v;
            }
        }
        expects.push(model.clone());
    }

    // Each node logs `(phase, addr index, reader, value)` for its reads.
    let logs = m.run(|node, barrier| {
        let me = node.shared.me;
        let mut seen: Vec<(usize, usize, NodeId, u64)> = Vec::new();
        for (pi, phase) in phases.iter().enumerate() {
            match phase {
                Phase::Writes(ws) => {
                    for &(a, w, v) in ws {
                        if w == me {
                            write_u64(node, addrs[a], v);
                        }
                    }
                }
                Phase::Reads(rs) => {
                    for &(a, r) in rs {
                        if r == me {
                            let (got, _) = read_u64(node, addrs[a]);
                            let want = expects[pi][a];
                            assert_eq!(
                                got, want,
                                "phase {pi}: node {me} read addr[{a}] = {got}, expected {want}"
                            );
                            seen.push((pi, a, me, got));
                        }
                    }
                }
            }
            node.barrier(barrier, 0);
        }
        seen
    });

    // Quiescent: every invariant must hold machine-wide.
    let violations = m.violations();
    assert!(violations.is_empty(), "invariant violations: {violations:#?}");

    let (mut retries, mut dup_reqs_in) = (0, 0);
    for node in &m.nodes {
        let s = node.shared.stats.snapshot();
        retries += s.retries;
        dup_reqs_in += s.dup_reqs_in;
    }
    let mut observations: Vec<_> = logs.into_iter().flatten().collect();
    observations.sort_unstable();
    RunOutcome { observations, retries, dup_reqs_in, faults: m.faults }
}

const NODES: usize = 8;

/// Random programs under the full chaos mix (delay + duplicate + drop,
/// FIFO-preserving): results bit-equal to the fault-free run, coherence
/// intact, and the fault layer demonstrably active.
#[test]
fn random_programs_survive_chaos() {
    for seed in [0xC0FFEE_u64, 17, 9001] {
        let program = seeded_program(seed, NODES as u16, 32, 14);
        let clean = run_program(NODES, 32, None, program.clone());
        let chaos = run_program(NODES, 32, Some(FaultPlan::chaos(seed)), program);
        assert_eq!(
            clean.observations, chaos.observations,
            "seed {seed}: chaos run diverged from fault-free run"
        );
        let f = chaos.faults.expect("fault layer active").total();
        assert!(
            f.delayed + f.duplicated + f.dropped > 0,
            "seed {seed}: the chaos plan must actually inject faults"
        );
    }
}

/// Every inter-node message duplicated: duplicate fetches must be
/// absorbed by the home's (requester, seq) watermark — no double grant,
/// no directory divergence — and duplicate recalls/grants by op ids and
/// epoch checks. The contended counter is the sharpest probe: a granted
/// duplicate would double-apply an increment or wedge the waiter queue.
#[test]
fn duplicated_requests_are_idempotent() {
    let plan = FaultPlan::new(7).duplicating(1000);
    let mut m = build_machine(NODES, 32, Some(plan));
    let addr = m.nodes[0].state.mem.alloc(8, 8);
    let rounds = 12u64;

    m.run(|node, _| {
        for _ in 0..rounds {
            loop {
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

    // Every increment applied exactly once.
    let (total, _) = m.on(0, |node| read_u64(node, addr));
    assert_eq!(total, NODES as u64 * rounds);

    let violations = m.violations();
    assert!(violations.is_empty(), "invariant violations: {violations:#?}");

    let duplicated = m.faults.as_ref().expect("fault layer active").total().duplicated;
    assert!(duplicated > 50, "every message is duplicated, got {duplicated}");
    let dup_reqs: u64 = m.nodes.iter().map(|n| n.shared.stats.snapshot().dup_reqs_in).sum();
    assert!(dup_reqs > 0, "homes must observe and absorb duplicate requests");
}

/// Drop-heavy fabric: liveness comes from timeouts and re-issued
/// requests; the run completes with fault-free-equal results.
#[test]
fn drop_heavy_runs_complete_via_retry() {
    let seed = 0xD20FF_u64;
    let plan = FaultPlan::new(seed).dropping(180).delaying(80, 2);
    let program = seeded_program(seed, NODES as u16, 24, 10);
    let clean = run_program(NODES, 32, None, program.clone());
    let chaos = run_program(NODES, 32, Some(plan), program);
    assert_eq!(clean.observations, chaos.observations, "drop-heavy run diverged");
    let f = chaos.faults.expect("fault layer active").total();
    assert!(f.dropped > 0, "an 18% drop rate must drop something");
    assert!(
        chaos.retries > 0,
        "dropped requests are only survivable by re-issuing; got {} retries",
        chaos.retries
    );
    assert_eq!(clean.retries, 0, "the fault-free run never needs to retry");
    assert!(clean.dup_reqs_in <= chaos.dup_reqs_in, "retries surface as duplicates at homes");
}

/// Regression cases distilled from chaos-run shrinking: fixed programs and
/// plans that once exposed ordering/dedup bugs stay pinned here.
#[test]
fn regression_duplicated_recall_round() {
    // Producer/consumer of one block homed at a third node, with every
    // message duplicated and mild delays: exercises duplicate recalls and
    // duplicate grants across repeated recall rounds.
    let phases = vec![
        Phase::Writes(vec![(0, 1, 11)]),
        Phase::Reads(vec![(0, 2), (0, 3)]),
        Phase::Writes(vec![(0, 1, 22)]),
        Phase::Reads(vec![(0, 4), (0, 2)]),
        Phase::Writes(vec![(0, 5, 33), (1, 6, 44)]),
        Phase::Reads(vec![(0, 0), (1, 7), (1, 1)]),
    ];
    let plan = FaultPlan::new(3).duplicating(1000).delaying(120, 2);
    let clean = run_program(NODES, 32, None, phases.clone());
    let chaos = run_program(NODES, 32, Some(plan), phases);
    assert_eq!(clean.observations, chaos.observations);
}

#[test]
fn regression_false_sharing_under_drops() {
    // Two writers in different words of one block while the fabric drops:
    // a lost invalidate acknowledgment must not wedge the busy entry.
    let phases = vec![
        Phase::Writes(vec![(0, 1, 1), (1, 2, 2)]),
        Phase::Reads(vec![(0, 3), (1, 3)]),
        Phase::Writes(vec![(0, 2, 3), (1, 1, 4)]),
        Phase::Reads(vec![(0, 1), (1, 2), (0, 5), (1, 6)]),
    ];
    let plan = FaultPlan::new(41).dropping(250);
    let clean = run_program(NODES, 32, None, phases.clone());
    let chaos = run_program(NODES, 32, Some(plan), phases);
    assert_eq!(clean.observations, chaos.observations);
}

// ---- properties (3 nodes, 12 addresses) and their pinned cases -----------

#[test]
fn coherence_holds_under_random_phase_programs() {
    cases(24, |g| {
        let (phases, block_size) = (program(g, 1..14), g.pick(&[32usize, 64, 128]));
        run_program(3, block_size, None, phases);
    });
}

/// Duplicated delivery: every protocol message may arrive twice, in
/// order. The (requester, seq) watermark, recall-round op ids, and
/// epoch-stamped pre-sends must make all of them idempotent.
#[test]
fn coherence_holds_under_duplicated_delivery() {
    cases(24, |g| {
        let phases = program(g, 1..10);
        let plan = FaultPlan::new(g.u64()).duplicating(g.range(100..1001) as u16);
        run_program(3, 32, Some(plan), phases);
    });
}

/// Delayed (FIFO-preserving) delivery plus duplicates: stalled links
/// release under later traffic and retries; values never diverge.
#[test]
fn coherence_holds_under_delayed_delivery() {
    cases(24, |g| {
        let phases = program(g, 1..10);
        let plan = FaultPlan::new(g.u64())
            .delaying(g.range(50..400) as u16, g.range(1..4) as u32)
            .duplicating(60);
        run_program(3, 32, Some(plan), phases);
    });
}

/// Interleaved writers and readers with false sharing inside one block.
fn false_sharing_case() -> Vec<Phase> {
    vec![
        Phase::Writes(vec![(0, 0, 11), (1, 1, 22), (2, 2, 33)]),
        Phase::Reads(vec![(0, 2), (1, 0), (2, 1)]),
        Phase::Writes(vec![(0, 2, 44), (3, 0, 55)]),
        Phase::Reads(vec![(0, 0), (0, 1), (3, 2), (1, 2)]),
        Phase::Writes(vec![(1, 0, 66)]),
        Phase::Reads(vec![(1, 1), (0, 1)]),
    ]
}

#[test]
fn deterministic_false_sharing_case() {
    run_program(3, 32, None, false_sharing_case());
}

/// Pinned fault-injection case (regression seed): the same false-sharing
/// program with every message duplicated and links stalling — the shape
/// that exercises duplicate recalls against a busy directory entry.
#[test]
fn deterministic_false_sharing_case_under_faults() {
    let plan = FaultPlan::new(0xC0FFEE).duplicating(1000).delaying(150, 3).dropping(60);
    run_program(3, 32, Some(plan), false_sharing_case());
}

/// The case the retired proptest harness had shrunk and saved (64-byte
/// blocks, twelve rounds), pinned here when its regression file went.
#[test]
fn shrunk_case_with_64_byte_blocks() {
    use Phase::{Reads as R, Writes as W};
    let phases = vec![
        R(vec![(3, 0), (5, 0)]),
        W(vec![(5, 0, 18427189421063975524)]),
        W(vec![
            (8, 2, 13426523303742176575),
            (9, 1, 12082817195746022718),
            (11, 0, 2860813970261959552),
        ]),
        R(vec![(6, 2), (5, 2), (9, 1), (6, 0), (6, 0), (6, 2), (3, 2), (7, 0)]),
        W(vec![
            (3, 2, 7223228280769112191),
            (4, 0, 16201217000018916851),
            (5, 2, 7404519436462015783),
            (9, 1, 9720883561445607880),
        ]),
        R(vec![(6, 2), (4, 2), (1, 0), (5, 0), (7, 1), (4, 0), (9, 0), (0, 0)]),
        R(vec![(9, 0), (9, 1), (4, 0), (6, 2), (11, 0)]),
        R(vec![(6, 0), (2, 0), (6, 2)]),
        R(vec![(1, 1), (1, 2)]),
        R(vec![(0, 0), (8, 2)]),
        R(vec![(9, 1), (7, 1), (11, 1), (9, 1)]),
        W(vec![
            (0, 1, 17084951859056702892),
            (3, 1, 13259948890354677059),
            (4, 1, 12751160706609448220),
            (6, 0, 8647870685506600900),
        ]),
    ];
    run_program(3, 64, None, phases);
}

/// The protocol table's rows that only a fault reaches in a real run
/// (`rows.rs` injects what the fault delivers) are reached here under a
/// plan that duplicates every message: the duplicate of a request, of a
/// `RecallData`, of an `InvalAck`, of an invalidating `Recall`, of an
/// `Invalidate` and of a grant.
#[cfg(debug_assertions)]
#[test]
fn duplicated_delivery_reaches_the_rows_only_faults_reach() {
    use prescient_stache::table::*;
    use std::sync::atomic::Ordering;
    let rows = [
        home_row(U, DUP, 0),
        home_row(U, RDATA_STALE, 0),
        home_row(U, ACK_STALE, 0),
        HOME_ROWS.len() + peer_row(TI, RECALL, INVAL | RECORDED),
        HOME_ROWS.len() + peer_row(TI, INVALIDATE, 0),
        HOME_ROWS.len() + peer_row(TI, GRANT, 0),
    ];
    let hits = || rows.map(|r| HITS[r].load(Ordering::Relaxed));
    let before = hits();
    run_program(3, 32, Some(FaultPlan::new(5).duplicating(1000)), seeded_program(5, 3, 12, 12));
    let after = hits();
    for (i, r) in rows.iter().enumerate() {
        assert!(after[i] > before[i], "row {r} (0-based, home then peer) never fired");
    }
}
