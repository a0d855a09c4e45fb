//! End-to-end tests of the metrics timeline: per-phase records must
//! reconcile *exactly* with the run report (the telescoping-sum
//! invariant), must not perturb the measured computation, must survive
//! crash-replay without double-counting, and the live outputs (JSONL
//! stream, teardown timeline) must agree with each other.

use std::time::Duration;

use prescient_runtime::{Agg1D, Dist1D, Machine, MachineConfig, NodeCtx, RunReport, RunTimeline};
use prescient_stache::RetryConfig;
use prescient_tempest::{CrashPlan, MetricsConfig, PhaseRecord};

const NODES: usize = 4;
const N: usize = 64;
const ITERS: usize = 4;

fn base_cfg() -> MachineConfig {
    // Generous timeout: on a clean fabric a retry can only be host-load
    // noise, which would make the off/on comparison flaky.
    MachineConfig::predictive(NODES, 32)
        .with_retry(RetryConfig { timeout: Duration::from_secs(30), max_retries: 4 })
}

/// Init + double-buffered relaxation + gather in ONE run, so run 1's
/// records cover exactly what the run report counts.
fn run_relaxation(cfg: MachineConfig) -> (Vec<f64>, RunReport, Machine) {
    relaxation_runs(cfg, 1)
}

/// [`run_relaxation`]'s run, `runs` times on one machine; the last run's
/// result and report.
fn relaxation_runs(cfg: MachineConfig, runs: usize) -> (Vec<f64>, RunReport, Machine) {
    let mut m = Machine::new(cfg);
    let a = Agg1D::<f64>::new(&m, N, Dist1D::Block);
    let b = Agg1D::<f64>::new(&m, N, Dist1D::Block);
    let mut last = None;
    for _ in 0..runs {
        last = Some(relax(&mut m, &a, &b));
    }
    let (vals, report) = last.expect("at least one run");
    (vals, report, m)
}

fn relax(m: &mut Machine, a: &Agg1D<f64>, b: &Agg1D<f64>) -> (Vec<f64>, RunReport) {
    let (vals, report) = m.run(|ctx: &mut NodeCtx| {
        for i in a.my_range(ctx.me()) {
            ctx.write(a.addr(i), i as f64);
            ctx.write(b.addr(i), i as f64);
        }
        ctx.barrier();
        for _ in 0..ITERS {
            for (phase, src, dst) in [(1u32, a, b), (2, b, a)] {
                ctx.phase_begin(phase);
                for i in src.my_range(ctx.me()) {
                    let v = if i > 0 && i + 1 < N {
                        let l: f64 = ctx.read(src.addr(i - 1));
                        let r: f64 = ctx.read(src.addr(i + 1));
                        ctx.work(2);
                        0.5 * (l + r)
                    } else {
                        ctx.read(src.addr(i))
                    };
                    ctx.write(dst.addr(i), v);
                }
                ctx.phase_end();
            }
        }
        let mut out = Vec::new();
        if ctx.me() == 0 {
            for i in 0..N {
                out.push(ctx.read::<f64>(a.addr(i)));
            }
        }
        ctx.barrier();
        out
    });
    (vals.into_iter().next().expect("node 0 result"), report)
}

fn tmp(tag: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("prescient_metrics_e2e_{}_{tag}", std::process::id()));
    p.to_string_lossy().into_owned()
}

#[test]
fn timeline_reconciles_exactly_with_the_report() {
    let (_, report, m) = run_relaxation(base_cfg().with_metrics(MetricsConfig::on()));
    let t = m.timeline().expect("metrics on");
    t.reconciles_with(&report, 1).expect("telescoping sums must match the report");

    // Every phase instance is cut by every node, in program order.
    let phases = t.phases();
    let phase_groups: Vec<_> = phases.iter().filter(|g| g.phase != 0).collect();
    assert_eq!(phase_groups.len(), 2 * ITERS, "two phases per iteration");
    for (k, g) in phase_groups.iter().enumerate() {
        assert_eq!(g.phase as usize, 1 + k % 2, "program phase order");
        assert_eq!(g.iter, (k / 2) as u64, "iteration ordinals count per phase id");
        assert_eq!(g.records, NODES, "every node cuts every phase instance");
        assert!(g.vtime_ns > 0);
    }
    // The relaxation misses across block edges, so fetch histograms fill.
    assert!(phase_groups.iter().any(|g| g.fetch.n() > 0), "fetch latency recorded");
    // Wire deltas are recorded by node 0 only, on the machine's behalf.
    for r in &t.records {
        assert_eq!(r.wire.is_some(), r.node == 0, "wire deltas come from node 0");
    }
}

#[test]
fn metrics_do_not_perturb_the_run() {
    let (v_off, r_off, m_off) = run_relaxation(base_cfg().with_metrics(MetricsConfig::off()));
    assert!(m_off.timeline().is_none(), "disabled metrics record nothing");
    drop(m_off);
    let (v_on, r_on, _m) = run_relaxation(base_cfg().with_metrics(MetricsConfig::on()));
    assert_eq!(v_off, v_on, "metrics must not change results");
    // The gated perf columns must be bit-identical, not merely close.
    let sig = |r: &RunReport| {
        let t = r.total_stats();
        (
            r.exec_time_ns(),
            t.msgs_out,
            t.data_bytes_in + t.presend_bytes_out,
            t.misses() + t.presend_blocks_out,
            t.misses(),
            t.presend_blocks_out,
            t.presend_useless,
        )
    };
    assert_eq!(sig(&r_off), sig(&r_on), "gated counters must be bit-identical off vs on");
}

/// A relaxation whose node 2 crashes at phase execution 3 and replays.
fn run_crashing(metrics: MetricsConfig) -> (RunReport, Machine) {
    // Crash-recoverable phases must run through the `ctx.phase` wrapper so
    // the destroyed body can re-run.
    let mut m =
        Machine::new(base_cfg().with_metrics(metrics).with_crash_plan(CrashPlan::new(2, 3)));
    let a = Agg1D::<f64>::new(&m, N, Dist1D::Block);
    let b = Agg1D::<f64>::new(&m, N, Dist1D::Block);
    let sweep = |ctx: &mut NodeCtx, src: &Agg1D<f64>, dst: &Agg1D<f64>| {
        for i in src.my_range(ctx.me()) {
            let v = if i > 0 && i + 1 < N {
                let l: f64 = ctx.read(src.addr(i - 1));
                let r: f64 = ctx.read(src.addr(i + 1));
                0.5 * (l + r)
            } else {
                ctx.read(src.addr(i))
            };
            ctx.write(dst.addr(i), v);
        }
    };
    let (_, report) = m.run(|ctx: &mut NodeCtx| {
        for i in a.my_range(ctx.me()) {
            ctx.write(a.addr(i), i as f64);
            ctx.write(b.addr(i), i as f64);
        }
        ctx.barrier();
        for _ in 0..ITERS {
            ctx.phase(1, &mut (), |ctx, _| sweep(ctx, &a, &b));
            ctx.phase(2, &mut (), |ctx, _| sweep(ctx, &b, &a));
        }
    });
    (report, m)
}

#[test]
fn crash_replay_cuts_one_record_per_phase_instance() {
    let (report, m) = run_crashing(MetricsConfig::on());
    let t = m.timeline().expect("metrics on");
    // Rollback arithmetic and record deltas are cut from the same
    // counters, so the sums still match exactly through a replay.
    t.reconciles_with(&report, 1).expect("replayed run still reconciles");
    assert!(report.total_stats().replays > 0, "the crash must actually fire");
    // The replayed phase spans first-begin .. replay-commit as ONE record
    // per node — never two. (Gap records all share the key `(0, 0)`, so
    // only real phase groups are pinned to one cut per node.)
    for g in t.phases().iter().filter(|g| g.phase != 0) {
        assert_eq!(
            g.records, NODES,
            "phase {} iter {}: exactly one cut per node, replay included",
            g.phase, g.iter
        );
    }
}

/// Drop a streamed machine, then check that the timeline its teardown
/// spliced from the stream is byte for byte what `RunTimeline` writes for
/// the stream's records. Returns the records and both texts.
fn teardown_splices_the_stream(m: Machine, path: &str) -> (Vec<PhaseRecord>, String, String) {
    drop(m); // close the hub, join the publisher, export the timeline
    let stream = std::fs::read_to_string(path).expect("stream file written");
    let streamed: Vec<PhaseRecord> = stream
        .lines()
        .map(|l| PhaseRecord::parse_line(l).expect("every stream line parses"))
        .collect();
    let tj = std::fs::read_to_string(format!("{path}.timeline.json")).expect("timeline exported");
    assert_eq!(tj, RunTimeline::new(NODES, streamed.clone()).to_json(), "spliced == built");
    let _ = std::fs::remove_file(path);
    let _ = std::fs::remove_file(format!("{path}.timeline.json"));
    (streamed, stream, tj)
}

#[test]
fn stream_file_matches_the_teardown_timeline() {
    let path = tmp("stream");
    let (_, report, m) = run_relaxation(base_cfg().with_metrics(MetricsConfig::stream(&path)));
    let timeline = m.timeline().expect("metrics on");
    let (streamed, stream, tj) = teardown_splices_the_stream(m, &path);
    assert_eq!(streamed, timeline.records, "live stream equals the teardown timeline");
    let rt = RunTimeline::new(NODES, streamed);
    rt.reconciles_with(&report, 1).expect("reparsed stream reconciles");

    // The timeline export rides on the stream path and embeds the same
    // lines verbatim — live and post-hoc views are textually comparable.
    for line in stream.lines() {
        assert!(tj.contains(line), "stream line missing from timeline json: {line}");
    }
    assert_eq!(tj.matches('{').count(), tj.matches('}').count());
}

#[test]
fn a_replayed_phase_is_one_record_in_the_spliced_timeline() {
    let path = tmp("crash_stream");
    let (report, m) = run_crashing(MetricsConfig::stream(&path));
    assert!(report.total_stats().replays > 0, "the crash must actually fire");
    let (streamed, _, _) = teardown_splices_the_stream(m, &path);
    let t = RunTimeline::new(NODES, streamed);
    t.reconciles_with(&report, 1).expect("replayed stream reconciles");
    for g in t.phases().iter().filter(|g| g.phase != 0) {
        assert_eq!(g.records, NODES, "phase {} iter {}: one cut per node", g.phase, g.iter);
    }
}

#[test]
fn a_machine_that_runs_twice_splices_both_runs_in_run_order() {
    let path = tmp("two_runs");
    let (_, report, m) = relaxation_runs(base_cfg().with_metrics(MetricsConfig::stream(&path)), 2);
    let (streamed, _, _) = teardown_splices_the_stream(m, &path);
    let t = RunTimeline::new(NODES, streamed);
    t.reconciles_with(&report, 2).expect("the second run reconciles");
    assert_eq!(t.runs(), [1, 2]);
    let phases = t.phases();
    let first_of_run_2 = phases.iter().position(|g| g.run == 2).expect("run 2 has groups");
    assert!(phases[..first_of_run_2].iter().all(|g| g.run == 1), "groups by run");
    assert_eq!(phases.len(), 2 * first_of_run_2, "both runs cut the same groups");
}
