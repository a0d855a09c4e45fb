//! The traced run: per-layer metrics.
//!
//! Counts come from the program's own report and timeline, unit costs from
//! `probes`, and a layer's share of a run is count × unit cost ÷ the run's
//! wall time. On one CPU the 64 program threads never overlap, so shares
//! of wall time add up; what they leave is `host.unattributed_share`.

use std::path::Path;
use std::time::Instant;

use prescient_runtime::RunReport;

use crate::host::CpuSet;
use crate::json::Json;
use crate::probes::{self, UnitCosts};
use crate::run::{kept, metrics_json, summarise, Harness, Metric, Options, Rep, RepTiming};
use crate::stats::{median, Summary};

/// Barrier episodes in one predictive phase: two in `phase_begin`, two in
/// the closing directive.
const BARRIERS_PER_PHASE: f64 = 4.0;

/// Share of the run's budget the all-CPU block may take.
const ALLCPU_BUDGET_SHARE: f64 = 0.1;

/// What the program's telemetry files of one rep say.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Telemetry {
    /// Phase instances of the main loop (the machine's second run).
    pub phases: u64,
    /// Timeline records of the whole call.
    pub records: u64,
    /// Protocol events exported.
    pub trace_events: u64,
    /// Protocol events the rings had overwritten by teardown.
    pub trace_dropped: u64,
    /// Size of the two trace exports, in MiB.
    pub trace_export_mb: f64,
}

/// The machine's `Machine::run` ordinal of an application's main loop: the
/// init run is 1, the gather run 3.
const MAIN_LOOP_RUN: u64 = 2;

/// Count phases and records in a timeline document.
pub fn read_timeline(text: &str) -> Result<(u64, u64), String> {
    let doc = Json::parse(text)?;
    let phases = doc.get("phases").and_then(Json::as_arr).ok_or("timeline has no phases")?;
    let records = doc.get("records").and_then(Json::as_arr).ok_or("timeline has no records")?;
    let main_loop = phases
        .iter()
        .filter(|p| {
            p.get("run").and_then(Json::as_u64) == Some(MAIN_LOOP_RUN)
                && p.get("phase").and_then(Json::as_u64) != Some(0)
        })
        .count();
    Ok((main_loop as u64, records.len() as u64))
}

/// Count exported events and, from the per-node sequence numbers, the
/// events each node's ring had already overwritten.
pub fn read_trace(jsonl: &str) -> Result<(u64, u64), String> {
    let mut kept = 0u64;
    let mut emitted: Vec<u64> = Vec::new();
    for line in jsonl.lines() {
        let e = Json::parse(line)?;
        let field =
            |k: &str| e.get(k).and_then(Json::as_u64).ok_or(format!("trace line lacks {k}"));
        let (node, seq) = (field("node")? as usize, field("seq")?);
        if node >= prescient_tempest::MAX_NODES {
            return Err(format!("trace line names node {node}"));
        }
        if emitted.len() <= node {
            emitted.resize(node + 1, 0);
        }
        emitted[node] = emitted[node].max(seq + 1);
        kept += 1;
    }
    Ok((kept, emitted.iter().sum::<u64>().saturating_sub(kept)))
}

fn read_telemetry(dir: &Path, observed: bool) -> Result<Telemetry, String> {
    let read = |name: &str| {
        let p = dir.join(name);
        std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (phases, records) = read_timeline(&read("metrics.jsonl.timeline.json")?)?;
    let mut t = Telemetry { phases, records, ..Telemetry::default() };
    if observed {
        let (jsonl, chrome) = (read("trace.jsonl")?, read("trace.json")?);
        (t.trace_events, t.trace_dropped) = read_trace(&jsonl)?;
        t.trace_export_mb = (jsonl.len() + chrome.len()) as f64 / (1 << 20) as f64;
    }
    Ok(t)
}

/// The rest of a traced run after its cold rep, and its per-layer metrics.
pub fn traced(
    h: &mut Harness,
    cold: &Rep,
    opts: &Options,
    unpinned: &CpuSet,
) -> Result<(Vec<Metric>, Json), String> {
    let w = h.workload;
    // The cold rep ran with the timeline on; read what it left behind
    // before another rep overwrites it.
    let telemetry = read_telemetry(h.telemetry.path(), w.observed)?;

    // The plain single-thread program on the same input.
    let (seq_raw, scale) = h.measured("probe:apps", |h| {
        let t = Instant::now();
        std::hint::black_box(h.workload.reference_checksum());
        t.elapsed().as_secs_f64()
    });
    let seq_s = scale.apply(seq_raw);

    let costs = probes::run_all(h, w.nodes, if opts.quick { 20 } else { 1 });

    // A short block with the affinity the process started with: what the
    // same code costs when the host may spread it over every CPU.
    unpinned.apply()?;
    h.pinned = false;
    let allcpu_deadline = h.started.elapsed().as_secs_f64() + ALLCPU_BUDGET_SHARE * opts.seconds;
    let allcpu = h.timed_reps(1, allcpu_deadline);
    crate::host::pin_to_first_cpu()?;
    h.pinned = true;

    // Timed reps with the harness's spans on, as the whole traced run is.
    let spans_before = h.spans.recorded();
    let min_reps = (w.min_reps / 2).max(2);
    let reps = h.timed_reps(min_reps, opts.seconds);
    let spans_per_rep = (h.spans.recorded() - spans_before) as f64 / reps.len().max(1) as f64;
    let timed = kept(&reps, min_reps);
    let (Some(wall), Some(wall_allcpu)) =
        (summarise(&timed, RepTiming::wall_s), summarise(&allcpu, RepTiming::wall_s))
    else {
        // A rep failed; `failed` says so and there is nothing to attribute.
        return Ok((Vec::new(), Json::Null));
    };
    let wall_raw = summarise(&timed, |t| t.wall_raw_s).expect("same reps").median;
    let occupancy = median(&reps.iter().map(|t| t.scale.occupancy).collect::<Vec<_>>());
    let slices = Summary::of(&h.sampler.all()).expect("the first slice ran");

    let metrics = assemble(Inputs {
        report: &cold.run.report,
        telemetry,
        observed: w.observed,
        costs: &costs,
        seq_s,
        wall_s: wall.median,
        span_s_per_rep: spans_per_rep * probes::span_cost_s(),
        wall_raw_s: wall_raw,
        occupancy,
        wall_allcpu_s: wall_allcpu.median,
        calib_ms: slices.median * 1e3,
        calib_spread_pct: slices.iqr_share() * 100.0,
        nproc: unpinned.count(),
    });
    let detail = Json::obj([
        ("wall_s", wall.to_json()),
        ("wall_allcpu_s", wall_allcpu.to_json()),
        ("slice_s", slices.to_json()),
        ("per_layer", metrics_json(&metrics)),
    ]);
    Ok((metrics, detail))
}

/// Everything the per-layer table is computed from.
struct Inputs<'a> {
    /// The cold rep's report. The gated counters are the same in every rep
    /// (each rep is checked against the first); the wire counters depend
    /// on timing and are that rep's.
    report: &'a RunReport,
    telemetry: Telemetry,
    /// The workload runs with its telemetry on.
    observed: bool,
    costs: &'a UnitCosts,
    seq_s: f64,
    wall_s: f64,
    /// What recording the harness's spans adds to one rep.
    span_s_per_rep: f64,
    wall_raw_s: f64,
    occupancy: f64,
    wall_allcpu_s: f64,
    calib_ms: f64,
    calib_spread_pct: f64,
    nproc: usize,
}

/// The per-layer table. Order and names are `BENCHMARK.json`'s.
fn assemble(x: Inputs<'_>) -> Vec<Metric> {
    let t = x.report.total_stats();
    let sim = x.report.mean_breakdown();
    let sim_total = (sim.compute_ns + sim.wait_ns + sim.presend_ns + sim.synch_ns).max(1) as f64;
    let cost = |name: &str| x.costs.get(name);
    let share = |seconds: f64| seconds / x.wall_s;
    let phases = x.telemetry.phases as f64;

    let hit_s = ((t.reads - t.read_misses) as f64 * cost("ctx.read_hit_ns")
        + (t.writes - t.write_misses) as f64 * cost("ctx.write_hit_ns"))
        / 1e9;
    let phase_s = phases * cost("ctx.phase_us_n32") / 1e6;
    let miss_s = (t.read_misses as f64 * cost("stache.read_miss_us")
        + t.write_misses as f64 * cost("stache.write_miss_us"))
        / 1e6;
    let presend_s = (t.presend_blocks_out as f64 * cost("presend.us_per_block")
        + t.presend_msgs_out as f64 * cost("presend.us_per_msg"))
        / 1e6;
    // Telemetry, zero unless the workload has it on: checkpoint copies,
    // protocol events (kept or overwritten, each was emitted), record cuts.
    let checkpoint_s =
        t.checkpoint_bytes as f64 / (1 << 20) as f64 * cost("mem.checkpoint_us_per_mb") / 1e6;
    let trace_s =
        (x.telemetry.trace_events + x.telemetry.trace_dropped) as f64 * cost("trace.emit_ns") / 1e9;
    let cuts_s = if x.observed { phases * cost("metrics.cut_us_per_phase") / 1e6 } else { 0.0 };
    // These eight are disjoint; barrier and fabric time sit inside the
    // phase, miss and pre-send costs and are not added again.
    let attributed =
        [x.seq_s, hit_s, phase_s, miss_s, presend_s, checkpoint_s, trace_s, cuts_s].map(share);

    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name: &'static str, value: f64, unit: &'static str| {
        out.push(Metric { name, value, unit });
    };

    put("apps.seq_s", x.seq_s, "s");
    put("apps.accesses", t.accesses() as f64, "count");
    put("apps.compute_share", attributed[0], "share");

    put("ctx.phases", phases, "count");
    put("ctx.hit_share", attributed[1], "share");
    put("ctx.phase_share", attributed[2], "share");

    put(
        "barrier.share",
        share(phases * BARRIERS_PER_PHASE * cost("barrier.wait_us_n32") / 1e6),
        "share",
    );

    put("fabric.wire_batches", x.report.wire.batches as f64, "count");
    put("fabric.wire_occupancy", x.report.wire.mean_occupancy(), "msgs/batch");
    put("fabric.share", share(t.msgs_out as f64 * cost("fabric.send_recv_ns") / 1e9), "share");

    put("stache.read_misses", t.read_misses as f64, "count");
    put("stache.write_misses", t.write_misses as f64, "count");
    put("stache.slow_misses", t.slow_misses as f64, "count");
    put("stache.invals_in", t.invals_in as f64, "count");
    put("stache.recalls_in", t.recalls_in as f64, "count");
    put("stache.retries", t.retries as f64, "count");
    put("stache.miss_share", attributed[3], "share");

    put("schedule.records", t.sched_records as f64, "count");
    put("presend.blocks_out", t.presend_blocks_out as f64, "count");
    put("presend.msgs_out", t.presend_msgs_out as f64, "count");
    put("presend.bytes_out", t.presend_bytes_out as f64, "bytes");
    put("presend.useless", t.presend_useless as f64, "count");
    let useful = t.presend_blocks_out.saturating_sub(t.presend_useless) as f64;
    put("presend.useful_ratio", useful / t.presend_blocks_out.max(1) as f64, "ratio");
    put("presend.races", t.presend_races as f64, "count");
    put("predictive.degrade_events", t.degrade_events as f64, "count");
    put("presend.share", attributed[4], "share");

    put("recovery.checkpoints", t.checkpoints as f64, "count");
    put("recovery.checkpoint_mb", t.checkpoint_bytes as f64 / (1 << 20) as f64, "MiB");
    put("recovery.share", attributed[5], "share");
    put("trace.events", x.telemetry.trace_events as f64, "count");
    put("trace.dropped", x.telemetry.trace_dropped as f64, "count");
    put("trace.export_mb", x.telemetry.trace_export_mb, "MiB");
    put("trace.share", attributed[6], "share");
    put("metrics.records", x.telemetry.records as f64, "count");
    put("metrics.share", attributed[7], "share");

    for m in &x.costs.0 {
        put(m.name, m.value, m.unit);
    }

    put("sim.compute_pct", 100.0 * sim.compute_ns as f64 / sim_total, "%");
    put("sim.wait_pct", 100.0 * sim.wait_ns as f64 / sim_total, "%");
    put("sim.presend_pct", 100.0 * sim.presend_ns as f64 / sim_total, "%");
    put("sim.synch_pct", 100.0 * sim.synch_ns as f64 / sim_total, "%");
    put("sim.local_pct", 100.0 * x.report.local_fraction(), "%");
    put("sim.misses", t.misses() as f64, "count");
    put("sim.blocks_moved", x.report.blocks_moved() as f64, "count");

    put("host.calib_ms", x.calib_ms, "ms");
    put("host.calib_spread_pct", x.calib_spread_pct, "%");
    put("host.nproc", x.nproc as f64, "count");
    put("host.wall_raw_s", x.wall_raw_s, "s");
    put("host.occupancy_pct", 100.0 * x.occupancy, "%");
    put("host.ns_per_msg", x.wall_s * 1e9 / t.msgs_out.max(1) as f64, "ns");
    put("host.ns_per_access", x.wall_s * 1e9 / t.accesses().max(1) as f64, "ns");
    put("host.wall_allcpu_s", x.wall_allcpu_s, "s");
    put("host.parallel_speedup", x.wall_s / x.wall_allcpu_s, "ratio");
    put("host.unattributed_share", 1.0 - attributed.iter().sum::<f64>(), "share");
    put("harness.trace_overhead_pct", 100.0 * x.span_s_per_rep / x.wall_s, "%");
    out
}
