//! The run-granular access against the per-word one.
//!
//! `NodeCtx::read_run`/`write_run` claim to be observably `n` calls of
//! `read`/`write`: same values, same counters, same virtual time in every
//! bar segment, same faults at the same words in the same order with the
//! same stamps. The differential test runs one SPMD program twice — every
//! structured access word by word, then in run form — and compares all of
//! it, over node counts, block sizes and both protocols. The program's
//! runs start unaligned, cross block and partition boundaries, have
//! length 0, 1 and k, meet ReadWrite, ReadOnly, Invalid, unmaterialised
//! and unread-pre-sent blocks, and are long enough to span the poll
//! interval.
//!
//! Every phase has one acting node, so each run is deterministic down to
//! the event stamps and the comparison can be exact.
//!
//! Mutations this suite was checked against (each fails it): `read_hit`
//! or `write_hit` without its metadata compare (every present block
//! "hits"); `run_segment` without its poll (the liveness test runs into
//! its bound); `bill_hits` one word short. `run_segment` without the
//! block cut is *not* observable from outside — `read_hit` refuses a
//! range that leaves its block, so every segment would fall back to the
//! per-word path and only the speed would go; the cut is pinned by a unit
//! test in `ctx.rs`, the refusal by the `mem_model` grid in
//! `prescient-tempest`.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use prescient_runtime::ctx::POLL_EVERY;
use prescient_runtime::{Agg1D, Dist1D, Machine, MachineConfig, NodeCtx, RunReport};
use prescient_stache::RetryConfig;
use prescient_tempest::{EventKind, TraceConfig};

/// Traced machines export at drop to the process-global
/// `PRESCIENT_TRACE_OUT`; point it at the temp directory and serialize.
static EXPORT_LOCK: Mutex<()> = Mutex::new(());

fn export_to_temp() -> MutexGuard<'static, ()> {
    let guard = EXPORT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let base = std::env::temp_dir().join(format!("prescient_run_access_{}", std::process::id()));
    std::env::set_var("PRESCIENT_TRACE_OUT", base);
    guard
}

/// Elements per node: 1200 bytes, so a partition crosses a block boundary
/// at every block size and a run over it spans the poll interval.
const PER: usize = 150;
const _: () = assert!(PER > 2 * POLL_EVERY as usize);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Form {
    Word,
    Run,
}

fn rd(ctx: &mut NodeCtx, form: Form, a: &Agg1D<f64>, range: Range<usize>) -> Vec<f64> {
    match form {
        Form::Word => range.map(|i| ctx.read(a.addr(i))).collect(),
        Form::Run => {
            let mut out = vec![0.0; range.len()];
            let mut done = 0;
            for (addr, n) in a.runs(range) {
                ctx.read_run(addr, &mut out[done..done + n]);
                done += n;
            }
            out
        }
    }
}

fn wr(ctx: &mut NodeCtx, form: Form, a: &Agg1D<f64>, start: usize, vals: &[f64]) {
    match form {
        Form::Word => vals.iter().enumerate().for_each(|(w, v)| ctx.write(a.addr(start + w), *v)),
        Form::Run => {
            let mut done = 0;
            for (addr, n) in a.runs(start..start + vals.len()) {
                ctx.write_run(addr, &vals[done..done + n]);
                done += n;
            }
        }
    }
}

/// `n` distinct values that name who wrote them and when.
fn stamp(tag: usize, n: usize) -> Vec<f64> {
    (0..n).map(|w| (1000 * tag + w) as f64).collect()
}

/// One step of the program's script.
enum Op {
    /// Store `stamp(tag, n)` at elements `start..start + n`, structured.
    Wr(usize, usize, usize),
    /// Load a range, structured; the values go on the node's record.
    Rd(Range<usize>),
    /// Load one element with the per-word access in both forms (moves
    /// the poll countdown between runs).
    RdWord(usize),
}

/// Iteration `it` of the program: four phases, each with its one acting
/// node and what that node does.
fn script(nodes: usize, it: usize) -> [(u32, u16, Vec<Op>); 4] {
    use Op::*;
    let len = PER * nodes;
    let (owner, reader, third) = (0u16, (nodes - 1) as u16, (1 % nodes) as u16);
    let lo = [0, 0, 20, 5][it];
    let hi = [PER + 10, 80, PER + 10, 140][it].min(len);
    let edge = PER.min(len - 4);
    [
        // The owner rewrites part of its partition (the copies the reader
        // took make it read-only at home), then sweeps all of it: stretches
        // of hits longer than two poll intervals, with per-word accesses
        // in between to move the countdown.
        (
            1,
            owner,
            vec![
                Wr(3, 10 + it, 70),
                Wr(100, 20 + it, 1),
                Wr(120, 0, 0),
                Rd(0..PER),
                RdWord(1),
                RdWord(2),
                RdWord(3),
                Rd(10..11),
                Rd(1..PER - 1),
            ],
        ),
        // The reader reads across the owner's partition and on into the
        // next one — a different stretch every iteration, so under the
        // predictive protocol some pre-sent copies stay unread and some
        // blocks arrive only on demand — then most of it again.
        (2, reader, vec![Rd(lo..hi), Rd(5..6), Rd(7..7), Rd(lo + 3..hi - 3)]),
        // The reader writes into blocks it holds read-only and blocks it
        // does not hold, across the partition boundary.
        (3, reader, vec![Wr(40, 30 + it, 50), Wr(edge - 4, 40 + it, 8)]),
        // A third node reads what the reader now holds exclusively.
        (4, third, vec![Rd(30..PER)]),
    ]
}

const ITERS: usize = 4;

/// What every node must have read, by running the script on a plain
/// vector: phases have one actor, so the program is sequential.
fn expected(nodes: usize) -> Vec<Vec<f64>> {
    let mut mem: Vec<f64> = (0..nodes).flat_map(|p| stamp(p + 1, PER)).collect();
    let mut seen = vec![Vec::new(); nodes];
    for it in 0..ITERS {
        for (_, actor, ops) in script(nodes, it) {
            for op in ops {
                match op {
                    Op::Wr(start, tag, n) => mem[start..start + n].copy_from_slice(&stamp(tag, n)),
                    Op::Rd(range) => seen[actor as usize].extend_from_slice(&mem[range]),
                    Op::RdWord(i) => seen[actor as usize].push(mem[i]),
                }
            }
        }
    }
    seen[0].extend_from_slice(&mem);
    seen
}

/// What one execution of the program showed: per node, every value it
/// read, every event its program emitted (kind, a, b, virtual-time stamp)
/// in order, and the sorted (kind, a, b) of every event of its handlers.
struct Outcome {
    values: Vec<Vec<f64>>,
    report: RunReport,
    events: Vec<Vec<(EventKind, u64, u64, u64)>>,
    served: Vec<Vec<(u8, u64, u64)>>,
}

fn execute(cfg: MachineConfig, form: Form) -> Outcome {
    let nodes = cfg.nodes;
    let mut m = Machine::new(cfg.with_trace(TraceConfig::with_capacity(1 << 15)));
    // One word per node first, so the partitions below start 8 bytes into
    // a block: no run is block-aligned.
    let _pad = Agg1D::<f64>::new(&m, nodes, Dist1D::Block);
    let a = Agg1D::<f64>::new(&m, PER * nodes, Dist1D::Block);
    let (values, report) = m.run(|ctx: &mut NodeCtx| {
        let me = ctx.me();
        let mut seen = Vec::new();
        // First touch of the node's own pages: unmaterialised, then hits.
        wr(ctx, form, &a, a.my_range(me).start, &stamp(me as usize + 1, PER));
        ctx.barrier();
        for it in 0..ITERS {
            for (phase, actor, ops) in script(nodes, it) {
                ctx.phase_begin(phase);
                for op in ops.into_iter().filter(|_| me == actor) {
                    match op {
                        Op::Wr(start, tag, n) => wr(ctx, form, &a, start, &stamp(tag, n)),
                        Op::Rd(range) => seen.extend(rd(ctx, form, &a, range)),
                        Op::RdWord(i) => seen.push(ctx.read(a.addr(i))),
                    }
                }
                ctx.phase_end();
            }
        }
        if me == 0 {
            seen.extend(rd(ctx, form, &a, 0..a.len()));
        }
        ctx.barrier();
        seen
    });
    let (all, dropped) = m.trace_events();
    assert_eq!(dropped, 0, "the trace ring must hold the whole run");
    let mut events = vec![Vec::new(); nodes];
    let mut served = vec![Vec::new(); nodes];
    for e in all {
        match e.kind {
            // The program's own events: ordered, stamped with its clock.
            EventKind::FaultBegin
            | EventKind::FaultEnd
            | EventKind::PresendFirstTouch
            | EventKind::BarrierEnter
            | EventKind::BarrierExit
            | EventKind::PhaseBegin
            | EventKind::PhaseEnd
            | EventKind::PresendStart
            | EventKind::PresendEnd => events[e.node as usize].push((e.kind, e.a, e.b, e.t_ns)),
            // Wire batching depends on when the host ran the flusher.
            EventKind::WireFlush | EventKind::WireRecv => {}
            // What the node did for its peers: the same work either way,
            // but the host decides when a message is picked up (a peer
            // released from a barrier may send before this node has
            // noticed the release), so neither order nor stamp is fixed.
            _ => served[e.node as usize].push((e.kind as u8, e.a, e.b)),
        }
    }
    served.iter_mut().for_each(|s| s.sort_unstable());
    Outcome { values, report, events, served }
}

fn assert_same(word: &Outcome, run: &Outcome, what: &str) {
    assert_eq!(word.values, run.values, "{what}: values read");
    for (w, r) in word.report.per_node.iter().zip(&run.report.per_node) {
        let node = w.node;
        assert_eq!(w.stats.fields(), r.stats.fields(), "{what}: node {node} counters");
        assert_eq!(w.breakdown, r.breakdown, "{what}: node {node} time breakdown");
        assert_eq!(w.unused_presends, r.unused_presends, "{what}: node {node} unread pre-sends");
    }
    assert_eq!(word.served, run.served, "{what}: handler events");
    for (node, (w, r)) in word.events.iter().zip(&run.events).enumerate() {
        if let Some(at) = (0..w.len().max(r.len())).find(|&i| w.get(i) != r.get(i)) {
            panic!(
                "{what}: node {node} event {at} differs: per-word {:?}, run form {:?}",
                w.get(at),
                r.get(at)
            );
        }
    }
}

fn patient(cfg: MachineConfig) -> MachineConfig {
    cfg.with_retry(RetryConfig { timeout: Duration::from_secs(60), max_retries: 2 })
}

#[test]
fn the_run_form_is_the_per_word_form_in_everything_observable() {
    let _export = export_to_temp();
    for nodes in 1..=4 {
        for block_size in [32, 128, 1024] {
            for predictive in [false, true] {
                let cfg = || {
                    patient(if predictive {
                        MachineConfig::predictive(nodes, block_size)
                    } else {
                        MachineConfig::stache(nodes, block_size)
                    })
                    .validated()
                };
                let what = format!("{nodes} nodes, {block_size} B, predictive={predictive}");
                let word = execute(cfg(), Form::Word);
                let run = execute(cfg(), Form::Run);
                assert_eq!(word.values, expected(nodes), "{what}: the per-word form's values");
                assert_same(&word, &run, &what);
                // The program does what its comment says it does.
                let t = word.report.total_stats();
                assert!(
                    t.reads > (ITERS * 2 * PER) as u64 && t.writes > (ITERS * 70) as u64,
                    "{what}"
                );
                if nodes > 1 {
                    assert!(t.read_misses > 0 && t.write_misses > 0, "{what}");
                    assert!(t.invals_in + t.recalls_in > 0, "{what}");
                    let touched = word.events.iter().flatten();
                    let first_touches =
                        touched.filter(|e| e.0 == EventKind::PresendFirstTouch).count();
                    assert_eq!(first_touches > 0, predictive, "{what}: unread pre-sent copies");
                }
            }
        }
    }
}

#[test]
fn a_run_bills_its_words_and_keeps_the_poll_rate() {
    // A long sweep over own data in run form counts every word, charges
    // every word, and leaves the virtual clock where the loop would.
    let execute_sweep = |form: Form| {
        let mut m = Machine::new(patient(MachineConfig::stache(1, 128)));
        let a = Agg1D::<f64>::new(&m, 1000, Dist1D::Block);
        m.run(|ctx: &mut NodeCtx| {
            wr(ctx, form, &a, 0, &stamp(1, 1000));
            let before = ctx.now_ns();
            let got = rd(ctx, form, &a, 0..1000);
            (got, ctx.now_ns() - before)
        })
    };
    let (word, word_report) = execute_sweep(Form::Word);
    let (run, run_report) = execute_sweep(Form::Run);
    assert_eq!(word, run);
    assert_eq!(run[0].0, stamp(1, 1000));
    let stats = run_report.total_stats();
    assert_eq!((stats.reads, stats.writes), (1000, 1000));
    assert_eq!(stats.fields(), word_report.total_stats().fields());
}

/// A node sweeping its own data in run form — every segment a hit, no
/// fault, no barrier — still answers its peers: `run_segment` polls.
#[test]
fn a_node_sweeping_in_run_form_answers_its_peers() {
    let mut m = Machine::new(
        MachineConfig::stache(2, 32)
            .with_retry(RetryConfig { timeout: Duration::from_secs(120), max_retries: 1 }),
    );
    let a = Agg1D::<f64>::new(&m, 2 * 1024, Dist1D::Block);
    let answered = AtomicBool::new(false);
    let (inside, report) = m.run(|ctx: &mut NodeCtx| {
        let mine = a.my_range(ctx.me());
        wr(ctx, Form::Run, &a, mine.start, &stamp(ctx.me() as usize, mine.len()));
        ctx.barrier();
        if ctx.me() == 1 {
            let got: f64 = ctx.read(a.addr(0));
            assert_eq!(got, 0.0);
            answered.store(true, Ordering::Release);
            return true;
        }
        let start = Instant::now();
        let mut buf = vec![0.0; 512];
        while !answered.load(Ordering::Acquire) && start.elapsed() < Duration::from_secs(10) {
            for (addr, n) in a.runs(mine.start + 512..mine.end) {
                ctx.read_run(addr, &mut buf[..n]);
            }
        }
        answered.load(Ordering::Acquire)
    });
    assert!(inside[0], "node 1's read was not answered inside node 0's sweep");
    assert_eq!(report.per_node[0].stats.read_misses, 0, "the sweep itself must not fault");
}

#[test]
#[should_panic(expected = "run access at g")]
fn read_run_at_an_unaligned_address_panics_in_every_profile() {
    let mut m = Machine::new(MachineConfig::stache(1, 32));
    let a = Agg1D::<f64>::new(&m, 8, Dist1D::Block);
    m.run(|ctx: &mut NodeCtx| ctx.read_run(a.addr(1).add(4), &mut [0.0f64; 2]));
}

#[test]
#[should_panic(expected = "not 8-byte aligned")]
fn write_run_at_an_unaligned_address_panics_in_every_profile() {
    let mut m = Machine::new(MachineConfig::stache(1, 32));
    let a = Agg1D::<f64>::new(&m, 8, Dist1D::Block);
    m.run(|ctx: &mut NodeCtx| ctx.write_run(a.addr(1).add(2), &[1.0f64; 2]));
}
