//! Robustness end-to-end tests (DESIGN.md §12): mid-phase panics become
//! structured errors instead of hangs, the liveness watchdog converts a
//! fully partitioned (deadlocked) machine into a bounded-time
//! [`MachineError`], and the checkpoint/recovery trace events appear in
//! the protocol event stream.

use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use prescient_runtime::{
    Agg1D, Dist1D, FailureKind, Machine, MachineConfig, NodeCtx, RunReport, WatchdogConfig,
};
use prescient_stache::RetryConfig;
use prescient_tempest::trace::EventKind;
use prescient_tempest::{CrashPlan, FaultPlan, PartitionSpec, TraceConfig};

const NODES: usize = 4;
const N: usize = 256;

/// A traced machine exports its event stream when it drops, to the
/// basename in the process-global `PRESCIENT_TRACE_OUT` — by default
/// `trace`, which for a test is the crate directory. The traced tests
/// point it at the temp directory and hold this lock until their machine
/// is gone, so exports never interleave.
static EXPORT_LOCK: Mutex<()> = Mutex::new(());

fn export_to_temp(tag: &str) -> MutexGuard<'static, ()> {
    let guard = EXPORT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let base =
        std::env::temp_dir().join(format!("prescient_robustness_{}_{tag}", std::process::id()));
    std::env::set_var("PRESCIENT_TRACE_OUT", base);
    guard
}

/// One relaxation sweep over a shared array — enough traffic that every
/// node blocks on its neighbors.
fn sweep(ctx: &mut NodeCtx, a: &Agg1D<f64>, b: &Agg1D<f64>) {
    let n = a.len();
    for i in a.my_range(ctx.me()) {
        let v = if i > 0 && i + 1 < n {
            let l: f64 = ctx.read(a.addr(i - 1));
            let r: f64 = ctx.read(a.addr(i + 1));
            0.5 * (l + r)
        } else {
            ctx.read(a.addr(i))
        };
        ctx.write(b.addr(i), v);
    }
}

fn init(m: &mut Machine, a: &Agg1D<f64>, b: &Agg1D<f64>) {
    m.run(|ctx: &mut NodeCtx| {
        for i in a.my_range(ctx.me()) {
            ctx.write(a.addr(i), i as f64);
            ctx.write(b.addr(i), i as f64);
        }
        ctx.barrier();
    });
}

// ---- panic isolation ----------------------------------------------------

#[test]
fn mid_phase_panic_becomes_structured_error_not_a_hang() {
    // Regression for the panic-hang class: before try_run, a panicking
    // compute thread left its siblings blocked in the barrier forever and
    // the std::thread::scope join deadlocked the whole process.
    let start = Instant::now();
    let mut m = Machine::new(MachineConfig::predictive(NODES, 64));
    let a = Agg1D::<f64>::new(&m, N, Dist1D::Block);
    let b = Agg1D::<f64>::new(&m, N, Dist1D::Block);
    init(&mut m, &a, &b);

    let err = m
        .try_run(|ctx: &mut NodeCtx| {
            ctx.phase_begin(1);
            sweep(ctx, &a, &b);
            if ctx.me() == 1 {
                panic!("injected application bug on node 1");
            }
            ctx.phase_end();
            ctx.barrier();
        })
        .expect_err("a panicking node must fail the run");

    assert_eq!(err.kind, FailureKind::Panic);
    assert_eq!(err.node, Some(1), "the panicking node is identified");
    assert!(
        err.message.contains("injected application bug"),
        "the panic message survives: {}",
        err.message
    );
    assert_eq!(err.nodes.len(), NODES, "per-node protocol state is attached");
    // The whole teardown (including Machine drop later) must be prompt —
    // the old behavior was an infinite hang.
    assert!(start.elapsed() < Duration::from_secs(60), "teardown must not hang");
    drop(m);
    assert!(start.elapsed() < Duration::from_secs(60), "drop must not hang");
}

#[test]
fn run_panics_with_the_structured_report() {
    // `run` (the panicking wrapper) must carry the MachineError display.
    let mut m = Machine::new(MachineConfig::stache(2, 64));
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        m.run(|ctx: &mut NodeCtx| {
            if ctx.me() == 0 {
                panic!("boom");
            }
            ctx.barrier();
        });
    }))
    .expect_err("must panic");
    let msg = caught.downcast_ref::<String>().expect("string panic payload");
    assert!(msg.contains("machine panic"), "structured prefix: {msg}");
    assert!(msg.contains("boom"), "original message: {msg}");
}

#[test]
fn raw_phase_end_refuses_to_swallow_a_replay() {
    // Crash injected, but the program uses the raw phase_end() directive:
    // the runtime must fail loudly, pointing at NodeCtx::phase, rather
    // than silently committing a destroyed phase.
    let mut m =
        Machine::new(MachineConfig::predictive(NODES, 64).with_crash_plan(CrashPlan::new(1, 1)));
    let a = Agg1D::<f64>::new(&m, N, Dist1D::Block);
    let b = Agg1D::<f64>::new(&m, N, Dist1D::Block);
    init(&mut m, &a, &b);

    let err = m
        .try_run(|ctx: &mut NodeCtx| {
            ctx.phase_begin(1);
            sweep(ctx, &a, &b);
            ctx.phase_end();
        })
        .expect_err("raw phase_end under a crash must error");
    assert_eq!(err.kind, FailureKind::Panic);
    assert!(
        err.message.contains("NodeCtx::phase"),
        "the error teaches the recoverable API: {}",
        err.message
    );
}

// ---- the liveness watchdog ----------------------------------------------

#[test]
fn watchdog_converts_full_partition_into_bounded_deadlock_error() {
    // Sever every inter-node link from the first send onward. Every fetch
    // retries forever (retries are excluded from "useful progress"), so
    // without the watchdog this run would hang until the retry budget's
    // "machine wedged" panic — and hang forever if retries were unbounded.
    let wd = WatchdogConfig { poll: Duration::from_millis(25), stalled_polls: 8 };
    let _export = export_to_temp("watchdog");
    let start = Instant::now();
    let mut m = Machine::new(
        MachineConfig::stache(NODES, 64)
            .with_faults(FaultPlan::new(7).partitioned(PartitionSpec::total()))
            .with_retry(RetryConfig { timeout: Duration::from_millis(25), max_retries: 1_000_000 })
            .with_watchdog(wd)
            .with_trace(TraceConfig::on()),
    );
    let a = Agg1D::<f64>::new(&m, N, Dist1D::Block);
    let b = Agg1D::<f64>::new(&m, N, Dist1D::Block);
    // No init run: the first sweep's remote reads block immediately.

    let err = m
        .try_run(|ctx: &mut NodeCtx| {
            sweep(ctx, &a, &b);
            ctx.barrier();
        })
        .expect_err("a fully partitioned machine must be declared dead");

    // Classification: no crash is pending, so this is a deadlock.
    assert_eq!(err.kind, FailureKind::Deadlock);
    assert!(err.message.contains("no useful progress"), "{}", err.message);
    assert!(err.message.contains("deadlock"), "{}", err.message);
    // The report names the blocked nodes and their protocol state.
    assert_eq!(err.nodes.len(), NODES);
    assert!(
        err.nodes.iter().any(|s| s.outstanding_fetch > 0),
        "some node must be blocked on a fetch: {err}"
    );
    assert!(err.nodes.iter().any(|s| s.retries > 0), "retries tick during the partition: {err}");
    // The last trace events ride along (tracing was on).
    assert!(!err.trace_tail.is_empty(), "trace tail attached");
    // Detection is wall-clock bounded: budget (200ms) plus scheduling and
    // teardown slack — far below the >25 000s the retry budget would take.
    assert!(
        start.elapsed() < wd.budget() + Duration::from_secs(30),
        "watchdog must fire within its budget plus slack, took {:?}",
        start.elapsed()
    );
    let (events, _) = m.trace_events();
    assert!(events.iter().any(|e| e.kind == EventKind::WatchdogFire), "WatchdogFire event emitted");
}

#[test]
fn a_partition_during_a_presend_window_reports_the_pending_wave() {
    // Two nodes; node 1 reads node 0's half of `a` in phase 1, node 0
    // overwrites it in phase 2. From the second iteration on, phase 2's
    // pre-send prefetches ownership home: one wave of 64 invalidation
    // rounds, all home-local requests — `outstanding_fetch` reads 0 for
    // the whole of it. Per directed link the first iteration is 64 + 64
    // messages (grants | requests, then invalidations | acks) and phase
    // 1's second pre-send a few bulk pushes | acks, so severing both links
    // from their 150th send cuts the wave about a third of the way in.
    let wd = WatchdogConfig { poll: Duration::from_millis(25), stalled_polls: 8 };
    let start = Instant::now();
    let mut m = Machine::new(
        MachineConfig::predictive(2, 64)
            .with_faults(
                FaultPlan::new(7).partitioned(PartitionSpec::total().during(150, u64::MAX)),
            )
            .with_retry(RetryConfig { timeout: Duration::from_millis(25), max_retries: 1_000_000 })
            .with_watchdog(wd),
    );
    let a = Agg1D::<f64>::new(&m, 1024, Dist1D::Block);
    let half = a.my_range(0);
    assert_eq!(half.len() * 8 / 64, 64, "node 0's half is 64 blocks");

    let err = m
        .try_run(|ctx: &mut NodeCtx| {
            for it in 0..3 {
                ctx.phase_begin(1);
                if ctx.me() == 1 {
                    for i in half.clone() {
                        let _: f64 = ctx.read(a.addr(i));
                    }
                }
                ctx.phase_end();
                ctx.phase_begin(2);
                if ctx.me() == 0 {
                    for i in half.clone() {
                        ctx.write(a.addr(i), (it * 1024 + i) as f64);
                    }
                }
                ctx.phase_end();
            }
        })
        .expect_err("a machine partitioned mid-window must be declared dead");

    assert_eq!(err.kind, FailureKind::Deadlock);
    let home = err.nodes[0];
    assert_eq!(home.outstanding_fetch, 0, "a tear-down is not a remote fetch: {err}");
    assert!(home.wave.0 > 0 && home.wave.0 < 64, "part of the wave is pending: {err}");
    assert!(home.wave.1 > 0, "and its lowest seq is named: {err}");
    assert_eq!(err.nodes[1].wave, (0, 0), "node 1 waits at the window's barrier: {err}");
    assert!(err.message.contains(&format!("{} pending tear-downs", home.wave.0)), "{err}");
    assert!(home.retries > 0, "the wave re-issues what is pending: {err}");
    assert!(
        start.elapsed() < wd.budget() + Duration::from_secs(30),
        "bounded, not a hang: {:?}",
        start.elapsed()
    );
}

#[test]
fn watchdog_stays_quiet_on_a_healthy_run() {
    // A healthy machine with an aggressive watchdog must not be killed:
    // progress counters tick, so the stall counter never accumulates.
    let mut m = Machine::new(
        MachineConfig::predictive(NODES, 64)
            .with_watchdog(WatchdogConfig { poll: Duration::from_millis(10), stalled_polls: 3 })
            .validated(),
    );
    let a = Agg1D::<f64>::new(&m, N, Dist1D::Block);
    let b = Agg1D::<f64>::new(&m, N, Dist1D::Block);
    init(&mut m, &a, &b);
    for _ in 0..3 {
        m.try_run(|ctx: &mut NodeCtx| {
            for _ in 0..4 {
                ctx.phase_begin(1);
                sweep(ctx, &a, &b);
                ctx.phase_end();
                ctx.phase_begin(2);
                sweep(ctx, &b, &a);
                ctx.phase_end();
            }
        })
        .expect("healthy run must not be watchdogged");
    }
}

// ---- recovery trace events ----------------------------------------------

#[test]
fn recovery_emits_the_full_event_sequence() {
    let _export = export_to_temp("recovery");
    let mut m = Machine::new(
        MachineConfig::predictive(NODES, 64)
            .with_crash_plan(CrashPlan::new(2, 3))
            .with_trace(TraceConfig::on())
            .validated(),
    );
    let a = Agg1D::<f64>::new(&m, N, Dist1D::Block);
    let b = Agg1D::<f64>::new(&m, N, Dist1D::Block);
    init(&mut m, &a, &b);

    let (_, report) = m.run(|ctx: &mut NodeCtx| {
        for _ in 0..3 {
            ctx.phase(1, &mut (), |ctx, _| sweep(ctx, &a, &b));
            ctx.phase(2, &mut (), |ctx, _| sweep(ctx, &b, &a));
        }
    });

    let t = report.total_stats();
    assert_eq!(t.recoveries, NODES as u64);
    assert_eq!(t.replays, NODES as u64);
    // 6 committed phases + 1 replayed phase, every node checkpoints each.
    // A checkpoint's snapshot is taken *after* its own counter bump (the
    // cut is self-consistent), so the rollback keeps the destroyed
    // phase's checkpoint and the replay adds another: 7 per node.
    assert_eq!(t.checkpoints, 7 * NODES as u64, "replayed phase re-checkpoints");

    let (events, _) = m.trace_events();
    let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count();
    // The crash fires once, on one node.
    assert_eq!(count(EventKind::Crash), 1);
    // Every node opens and closes a recovery span once.
    assert_eq!(count(EventKind::RecoveryBegin), NODES);
    assert_eq!(count(EventKind::RecoveryEnd), NODES);
    // Checkpoint spans: the rings hold the *physical* history — 6
    // committed + 1 replayed phase_begin per node.
    assert_eq!(count(EventKind::CheckpointBegin), 7 * NODES);
    assert_eq!(count(EventKind::CheckpointEnd), 7 * NODES);
    // No watchdog ran.
    assert_eq!(count(EventKind::WatchdogFire), 0);
}

// ---- access counters under rollback --------------------------------------

/// [`sweep`], tallying the `(reads, writes)` it issues.
fn counted_sweep(ctx: &mut NodeCtx, a: &Agg1D<f64>, b: &Agg1D<f64>, calls: &mut (u64, u64)) {
    let n = a.len();
    for i in a.my_range(ctx.me()) {
        let interior = i > 0 && i + 1 < n;
        calls.0 += if interior { 2 } else { 1 };
        calls.1 += 1;
    }
    sweep(ctx, a, b);
}

#[test]
fn access_counters_equal_the_calls_made_fault_free_and_after_a_replay() {
    // `reads`/`writes` are bumped with a single-writer load + store and
    // rolled back by `stats.restore` in `recover()`, both on the compute
    // thread. The tally rides in the phase state, which a replay rolls
    // back too, so on both legs it counts the committed calls exactly.
    let run = |crash: Option<CrashPlan>| {
        let mut cfg = MachineConfig::predictive(NODES, 64).with_checkpoints(true);
        if let Some(plan) = crash {
            cfg = cfg.with_crash_plan(plan);
        }
        let mut m = Machine::new(cfg.validated());
        let a = Agg1D::<f64>::new(&m, N, Dist1D::Block);
        let b = Agg1D::<f64>::new(&m, N, Dist1D::Block);
        init(&mut m, &a, &b);
        m.run(|ctx: &mut NodeCtx| {
            let mut calls = (0u64, 0u64);
            for _ in 0..3 {
                ctx.phase(1, &mut calls, |ctx, calls| counted_sweep(ctx, &a, &b, calls));
                ctx.phase(2, &mut calls, |ctx, calls| counted_sweep(ctx, &b, &a, calls));
                // Accesses between phases are counted like any other.
                let first = a.my_range(ctx.me()).start;
                let v: f64 = ctx.read(a.addr(first));
                ctx.write(b.addr(first), v);
                calls.0 += 1;
                calls.1 += 1;
                ctx.barrier();
            }
            calls
        })
    };

    let (calls, clean) = run(None);
    let (calls_crashed, crashed) = run(Some(CrashPlan::new(2, 3)));
    assert_eq!(crashed.total_stats().replays, NODES as u64, "the crash leg must replay a phase");
    assert_eq!(clean.total_stats().replays, 0);
    assert_eq!(calls, calls_crashed, "the same program commits the same calls");
    for report in [&clean, &crashed] {
        for (nr, &(reads, writes)) in report.per_node.iter().zip(&calls) {
            assert!(reads > 0 && writes > 0);
            assert_eq!(nr.stats.reads, reads, "node {}: reads", nr.node);
            assert_eq!(nr.stats.writes, writes, "node {}: writes", nr.node);
        }
    }
}

// ---- checkpointing without a crash is inert -----------------------------

/// Every protocol kind, by name. Each has its own closing fence for the
/// checkpoint cut (DESIGN.md §12): Stache a recovery barrier, the
/// predictive protocol the pre-send window's entry barrier.
const KINDS: [(&str, Constructor); 2] =
    [("stache", MachineConfig::stache), ("predictive", MachineConfig::predictive)];

/// A machine constructor: `(nodes, block size)` to configuration.
type Constructor = fn(usize, usize) -> MachineConfig;

/// Phase versions [`checkpointed_sweeps`] executes.
const VERSIONS: u64 = 8;

/// Four rounds of two recoverable sweeps on a machine built from `cfg`:
/// every node's final share of `a`, bit for bit, and the run's report.
fn checkpointed_sweeps(cfg: MachineConfig) -> (Vec<Vec<u64>>, RunReport) {
    let mut m = Machine::new(cfg.validated());
    let a = Agg1D::<f64>::new(&m, N, Dist1D::Block);
    let b = Agg1D::<f64>::new(&m, N, Dist1D::Block);
    init(&mut m, &a, &b);
    m.run(|ctx: &mut NodeCtx| {
        for _ in 0..VERSIONS / 2 {
            ctx.phase(1, &mut (), |ctx, _| sweep(ctx, &a, &b));
            ctx.phase(2, &mut (), |ctx, _| sweep(ctx, &b, &a));
        }
        a.my_range(ctx.me()).map(|i| ctx.read::<f64>(a.addr(i)).to_bits()).collect()
    })
}

/// The gated observables of a [`checkpointed_sweeps`] run.
fn gated(run: &(Vec<Vec<u64>>, RunReport)) -> (Vec<Vec<u64>>, u64, u64, u64, u64, u64) {
    let t = run.1.total_stats();
    let (msgs, blocks, bytes) = (t.msgs_out, t.presend_blocks_out, t.data_bytes_in);
    (run.0.clone(), run.1.exec_time_ns(), msgs, t.misses(), blocks, bytes)
}

#[test]
fn checkpointing_alone_leaves_gated_counters_untouched() {
    // Enabling checkpoints (without a crash) must not change any gated
    // counter under any protocol kind, whichever barrier closes the cut —
    // only the never-gated checkpoint columns may differ.
    for (kind, cfg) in KINDS {
        let off = checkpointed_sweeps(cfg(NODES, 64));
        let on = checkpointed_sweeps(cfg(NODES, 64).with_checkpoints(true));
        assert_eq!(gated(&on), gated(&off), "{kind}: gated counters are checkpoint-invariant");
        let (ts_on, ts_off) = (on.1.total_stats(), off.1.total_stats());
        assert_eq!(ts_off.checkpoints, 0);
        assert_eq!(ts_on.checkpoints, VERSIONS * NODES as u64, "{kind}: one per node per phase");
        assert!(ts_on.checkpoint_bytes > 0);
    }
}

#[test]
fn a_crash_at_the_first_or_last_phase_recovers_under_every_protocol_kind() {
    // The cut each kind's fences close must be one a crash can roll back
    // to: at the first phase version (the cut right after set-up) and at
    // the last, the recovered run equals the crash-free one.
    for (kind, cfg) in KINDS {
        let clean = checkpointed_sweeps(cfg(NODES, 64).with_checkpoints(true));
        for version in [1, VERSIONS] {
            let crashed =
                checkpointed_sweeps(cfg(NODES, 64).with_crash_plan(CrashPlan::new(1, version)));
            assert_eq!(crashed.1.total_stats().recoveries, NODES as u64, "{kind} 1@{version}");
            assert_eq!(gated(&crashed), gated(&clean), "{kind}: crash 1@{version}");
        }
    }
}
