//! End-to-end tests of protocol event tracing: the trace must reconcile
//! with the counter subsystem, must not perturb the traced computation,
//! and must export loadable files at machine teardown.

use std::sync::Mutex;
use std::time::Duration;

use prescient_runtime::{Agg1D, Dist1D, Machine, MachineConfig, NodeCtx, RunReport, RunTimeline};
use prescient_stache::RetryConfig;
use prescient_tempest::rng::cases;
use prescient_tempest::trace::{to_chrome_json, to_jsonl, unpack_peer_count};
use prescient_tempest::{EventKind, MetricsConfig, TraceConfig};

/// Traced machines export files at drop, and the export basename comes
/// from the process-global `PRESCIENT_TRACE_OUT`; serialize these tests
/// so exports never interleave.
static EXPORT_LOCK: Mutex<()> = Mutex::new(());

fn set_out(tag: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("prescient_trace_e2e_{}_{tag}", std::process::id()));
    let base = p.to_string_lossy().into_owned();
    std::env::set_var("PRESCIENT_TRACE_OUT", &base);
    base
}

/// A relaxation's shape: node count, array length, iteration count.
#[derive(Clone, Copy)]
struct Shape {
    nodes: usize,
    n: usize,
    iters: usize,
}

const FIXED: Shape = Shape { nodes: 4, n: 64, iters: 4 };

fn base_cfg(nodes: usize) -> MachineConfig {
    // Generous timeout: on a clean fabric a retry can only be host-load
    // noise, which would perturb the traced event stream.
    MachineConfig::predictive(nodes, 32)
        .with_retry(RetryConfig { timeout: Duration::from_secs(30), max_retries: 4 })
}

fn traced_cfg(nodes: usize) -> MachineConfig {
    base_cfg(nodes).with_trace(TraceConfig::with_capacity(1 << 15))
}

/// Init + double-buffered relaxation + gather in ONE run, so the run
/// report's counters cover exactly what the trace rings saw.
fn run_relaxation(
    cfg: MachineConfig,
    Shape { n, iters, .. }: Shape,
) -> (Vec<f64>, RunReport, Machine) {
    let mut m = Machine::new(cfg);
    let a = Agg1D::<f64>::new(&m, n, Dist1D::Block);
    let b = Agg1D::<f64>::new(&m, n, Dist1D::Block);
    let (vals, report) = m.run(|ctx: &mut NodeCtx| {
        for i in a.my_range(ctx.me()) {
            ctx.write(a.addr(i), i as f64);
            ctx.write(b.addr(i), i as f64);
        }
        ctx.barrier();
        for _ in 0..iters {
            for (phase, src, dst) in [(1u32, &a, &b), (2, &b, &a)] {
                ctx.phase_begin(phase);
                for i in src.my_range(ctx.me()) {
                    let v = if i > 0 && i + 1 < n {
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
            for i in 0..n {
                out.push(ctx.read::<f64>(a.addr(i)));
            }
        }
        ctx.barrier();
        out
    });
    (vals.into_iter().next().expect("node 0 result"), report, m)
}

/// Run `shape` traced and hold the trace to the counters, node by node.
fn run_and_reconcile(shape: Shape) -> RunReport {
    let (_, report, m) = run_relaxation(traced_cfg(shape.nodes), shape);
    let (events, dropped) = m.trace_events();
    assert_eq!(dropped, 0, "ring must not wrap at this capacity");
    assert!(!events.is_empty(), "traced run must record events");
    for nr in &report.per_node {
        let node = nr.node;
        let count = |k: EventKind| -> u64 {
            events.iter().filter(|e| e.node == node && e.kind == k).count() as u64
        };
        assert_eq!(
            count(EventKind::FaultBegin),
            nr.stats.misses(),
            "node {node}: every miss opens exactly one fault span"
        );
        assert_eq!(
            count(EventKind::FaultBegin),
            count(EventKind::FaultEnd),
            "node {node}: the program ends quiescent, so every span closes"
        );
        let installed: u64 = events
            .iter()
            .filter(|e| e.node == node && e.kind == EventKind::PresendInstall)
            .map(|e| unpack_peer_count(e.b).1)
            .sum();
        assert_eq!(
            installed, nr.stats.presend_blocks_in,
            "node {node}: install events cover every pre-sent block"
        );
        assert_eq!(
            count(EventKind::SchedRecord),
            nr.stats.sched_records,
            "node {node}: record events match the home-side counter"
        );
        assert_eq!(count(EventKind::Retry), nr.stats.retries, "node {node}: retries reconcile");
    }
    report
}

#[test]
fn trace_reconciles_with_counters() {
    let _g = EXPORT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_out("reconcile");
    let report = run_and_reconcile(FIXED);
    // Pre-sends must actually flow for the install checks to mean much.
    assert!(report.total_stats().presend_blocks_in > 0);
}

/// Random machine/program shapes keep the trace and the counters in exact
/// agreement.
#[test]
fn trace_reconciles_across_shapes() {
    let _g = EXPORT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_out("shapes");
    cases(8, |g| {
        let shape = Shape {
            nodes: g.range(2..5) as usize,
            n: g.range(24..64) as usize,
            iters: g.range(1..4) as usize,
        };
        run_and_reconcile(shape);
    });
}

#[test]
fn same_config_runs_trace_identically() {
    let _g = EXPORT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_out("determinism");
    let (v1, _, m1) = run_relaxation(traced_cfg(FIXED.nodes), FIXED);
    let (e1, d1) = m1.trace_events();
    drop(m1);
    let (v2, _, m2) = run_relaxation(traced_cfg(FIXED.nodes), FIXED);
    let (e2, d2) = m2.trace_events();
    assert_eq!(v1, v2, "results must be bit-identical");
    assert_eq!((d1, d2), (0, 0));
    // Directive-level events are fully deterministic: same multiset of
    // (node, kind, phase, a) across runs. (Wire, retry, and fault-layer
    // events are timing-dependent; demand/pre-send interleavings are
    // deterministic only in aggregate — checked below.)
    let stable = |evs: &[prescient_tempest::TraceEvent]| {
        let mut v: Vec<(u16, u8, u32, u64)> = evs
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::PhaseBegin
                        | EventKind::PhaseEnd
                        | EventKind::PresendStart
                        | EventKind::BarrierEnter
                )
            })
            .map(|e| (e.node, e.kind as u8, e.phase, e.a))
            .collect();
        v.sort_unstable();
        v
    };
    assert_eq!(stable(&e1), stable(&e2), "directive event multisets must match");
    // The blocks-moved aggregate (faults + pre-sent blocks) is the
    // deterministic quantity the perf gate also pins.
    let moved = |evs: &[prescient_tempest::TraceEvent]| -> u64 {
        let faults = evs.iter().filter(|e| e.kind == EventKind::FaultBegin).count() as u64;
        let installed: u64 = evs
            .iter()
            .filter(|e| e.kind == EventKind::PresendInstall)
            .map(|e| unpack_peer_count(e.b).1)
            .sum();
        faults + installed
    };
    assert_eq!(moved(&e1), moved(&e2), "traced blocks-moved must match");
}

#[test]
fn tracing_does_not_perturb_the_run() {
    let _g = EXPORT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_out("perturb");
    let (v_off, r_off, m_off) =
        run_relaxation(base_cfg(FIXED.nodes).with_trace(TraceConfig::off()), FIXED);
    assert_eq!(m_off.trace_events().0.len(), 0, "disabled tracer records nothing");
    drop(m_off);
    let (v_on, r_on, _m_on) = run_relaxation(traced_cfg(FIXED.nodes), FIXED);
    assert_eq!(v_off, v_on, "tracing must not change results");
    let moved = |r: &RunReport| {
        let t = r.total_stats();
        t.misses() + t.presend_blocks_out
    };
    assert_eq!(moved(&r_off), moved(&r_on), "tracing must not change data movement");
}

#[test]
fn a_presend_read_twice_is_one_first_touch() {
    let _g = EXPORT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_out("first_touch");
    let mut m = Machine::new(
        MachineConfig::predictive(2, 32)
            .with_retry(RetryConfig { timeout: Duration::from_secs(30), max_retries: 4 })
            .with_trace(TraceConfig::with_capacity(1 << 12)),
    );
    // Node 0 owns elements 0..8: two blocks of 4 × f64 at 32 B.
    let a = Agg1D::<f64>::new(&m, 16, Dist1D::Block);
    let blocks = [m.layout().block_of(a.addr(0)), m.layout().block_of(a.addr(4))];
    assert_ne!(blocks[0], blocks[1]);
    const ITERS: u64 = 3;
    m.run(|ctx: &mut NodeCtx| {
        for it in 0..ITERS {
            // Node 0 rewrites both blocks, taking node 1's copies away.
            ctx.phase_begin(1);
            if ctx.me() == 0 {
                ctx.write(a.addr(0), it as f64);
                ctx.write(a.addr(4), it as f64);
            }
            ctx.phase_end();
            // Node 1 reads the first block three times while the second
            // still sits unread, then the second twice: two misses in the
            // first iteration, two pre-sent copies from then on.
            ctx.phase_begin(2);
            if ctx.me() == 1 {
                assert_eq!(ctx.read::<f64>(a.addr(0)), it as f64);
                assert_eq!(ctx.read::<f64>(a.addr(0)), it as f64);
                let _: f64 = ctx.read(a.addr(3));
                assert_eq!(ctx.read::<f64>(a.addr(4)), it as f64);
                assert_eq!(ctx.read::<f64>(a.addr(4)), it as f64);
            }
            ctx.phase_end();
        }
    });
    let (events, dropped) = m.trace_events();
    assert_eq!(dropped, 0);
    let installs: u64 = events
        .iter()
        .filter(|e| e.node == 1 && e.kind == EventKind::PresendInstall)
        .map(|e| unpack_peer_count(e.b).1)
        .sum();
    assert_eq!(installs, 2 * (ITERS - 1), "later iterations are served by pre-sent copies");
    for block in blocks {
        let on_node1 = |k: EventKind| {
            events.iter().filter(|e| e.node == 1 && e.kind == k && e.a == block.0).count() as u64
        };
        assert_eq!(on_node1(EventKind::FaultBegin), 1, "{block:?}: only iteration 0 misses");
        assert_eq!(
            on_node1(EventKind::PresendFirstTouch),
            ITERS - 1,
            "{block:?}: repeated reads of one pre-sent copy are one first touch"
        );
    }
    let first_touches =
        events.iter().filter(|e| e.kind == EventKind::PresendFirstTouch).count() as u64;
    assert_eq!(first_touches, 2 * (ITERS - 1), "and nothing else is one");
}

/// The write twin of the test above: a word write into an unread
/// pre-sent exclusive copy is no hit. It clears the copy's unread bit
/// once, on the slow path, with one first touch; the writes after it hit.
#[test]
fn a_presend_written_twice_is_one_first_touch() {
    let _g = EXPORT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    set_out("first_write");
    let mut m = Machine::new(
        MachineConfig::predictive(2, 32)
            .with_retry(RetryConfig { timeout: Duration::from_secs(30), max_retries: 4 })
            .with_trace(TraceConfig::with_capacity(1 << 12)),
    );
    // Node 0 owns elements 0..8: two blocks of 4 × f64 at 32 B.
    let a = Agg1D::<f64>::new(&m, 16, Dist1D::Block);
    let block = m.layout().block_of(a.addr(0));
    const ITERS: u64 = 3;
    let (_, r) = m.run(|ctx: &mut NodeCtx| {
        for it in 0..ITERS {
            // Node 0 reads the block back, recalling node 1's copy.
            ctx.phase_begin(1);
            if ctx.me() == 0 && it > 0 {
                assert_eq!(ctx.read::<f64>(a.addr(1)), it as f64);
            }
            ctx.phase_end();
            // Node 1 writes it three times: a miss in the first iteration,
            // a pre-sent exclusive copy from then on.
            ctx.phase_begin(2);
            if ctx.me() == 1 {
                ctx.write(a.addr(0), 0.5);
                ctx.write(a.addr(0), -0.5);
                ctx.write(a.addr(1), (it + 1) as f64);
            }
            ctx.phase_end();
        }
    });
    let (events, dropped) = m.trace_events();
    assert_eq!(dropped, 0);
    let on_node1 = |k: EventKind| {
        events.iter().filter(|e| e.node == 1 && e.kind == k && e.a == block.0).count() as u64
    };
    assert_eq!(on_node1(EventKind::FaultBegin), 1, "only iteration 0 misses");
    assert_eq!(on_node1(EventKind::PresendFirstTouch), ITERS - 1, "one first touch per copy");
    let first_touches =
        events.iter().filter(|e| e.kind == EventKind::PresendFirstTouch).count() as u64;
    assert_eq!(first_touches, ITERS - 1, "and nothing else is one");
    assert_eq!(r.per_node[1].stats.writes, 3 * ITERS);
    assert_eq!(r.per_node[1].unused_presends, 0, "every pre-sent copy was written");
}

#[test]
fn teardown_exports_loadable_files() {
    let _g = EXPORT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let base = set_out("export");
    let (_, _, m) = run_relaxation(traced_cfg(FIXED.nodes), FIXED);
    drop(m);
    let jsonl = std::fs::read_to_string(format!("{base}.jsonl")).expect("jsonl exported");
    let chrome = std::fs::read_to_string(format!("{base}.json")).expect("chrome json exported");
    assert!(jsonl.lines().count() > 100, "paper-style run must trace many events");
    let first = jsonl.lines().next().expect("non-empty");
    assert!(first.starts_with("{\"node\":") && first.ends_with('}'), "flat JSONL: {first}");
    assert!(chrome.starts_with("{\"displayTimeUnit\""));
    assert_eq!(chrome.matches('{').count(), chrome.matches('}').count());
    assert_eq!(chrome.matches('[').count(), chrome.matches(']').count());
    assert!(chrome.contains("\"ph\":\"X\",\"name\":\"PhaseBegin\""), "phases render as spans");
    let _ = std::fs::remove_file(format!("{base}.jsonl"));
    let _ = std::fs::remove_file(format!("{base}.json"));
}

/// Exports are rewritten in place and cut to length: a smaller run into
/// the same paths leaves exactly its own bytes, none of the bigger run's.
#[test]
fn a_smaller_rerun_leaves_no_byte_of_the_last_runs_exports() {
    let _g = EXPORT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let base = set_out("rerun");
    let stream = format!("{base}.metrics.jsonl");
    let files =
        [format!("{base}.jsonl"), format!("{base}.json"), format!("{stream}.timeline.json")];
    let mut sizes = Vec::new();
    for shape in [FIXED, Shape { nodes: 2, n: 32, iters: 2 }] {
        let cfg = traced_cfg(shape.nodes).with_metrics(MetricsConfig::stream(&stream));
        let (_, _, m) = run_relaxation(cfg, shape);
        let (events, dropped) = m.trace_events();
        assert_eq!(dropped, 0, "ring must not wrap at this capacity");
        let records = m.timeline().expect("metrics on").records;
        drop(m);
        let timeline = RunTimeline::new(shape.nodes, records).to_json();
        let rendered = [to_jsonl(&events), to_chrome_json(&events), timeline];
        for (file, want) in files.iter().zip(&rendered) {
            let got = std::fs::read_to_string(file).expect("exported");
            assert!(got == *want, "{file}: the export is the in-memory rendering, no more");
        }
        sizes.push(rendered.map(|r| r.len()));
    }
    for (what, (first, second)) in files.iter().zip(sizes[0].iter().zip(&sizes[1])) {
        assert!(second < first, "{what}: the second run's export is the smaller");
    }
    for f in files.iter().chain([&stream]) {
        let _ = std::fs::remove_file(f);
    }
}
