//! The one-shot ablations DESIGN.md calls out, one sub-command each:
//!
//! ```text
//! cargo run --release -p prescient-bench --bin ablation -- <name> [--paper] [--nodes N]
//! ```
//!
//! | name | question |
//! |---|---|
//! | `batching` | egress batch threshold 1/4/16/64: wall clock and wire occupancy (checksums equal down the column) |
//! | `coalesce` | pre-send block coalescing on/off (§3.4): message count and pre-send time |
//! | `commute` | Barnes' tree build as privatize-and-merge vs. demand scans: traffic, bit-identical checksums |
//! | `degradation` | a rotating-reader adversary with degradation off/on; then the price of a chaotic fabric |
//! | `incremental` | incremental schedules vs. periodic flush-and-rebuild (§3.3) |
//! | `metrics` | the metrics timeline's wall-clock cost; gated columns asserted bit-identical off vs. on, stream reconciled |
//! | `placement` | owner / rotate / rotate+remap homes: the record → emit-remap → rerun pipeline (DESIGN.md §14) |
//!
//! Paper scale is Table 1's data sets for every ablation; the reduced
//! inputs are [`prescient_bench::inputs`], one table with the figures'.

use std::time::Duration;

use prescient_apps::adaptive::{run_adaptive, AdaptiveConfig};
use prescient_apps::barnes::{run_barnes, run_barnes_commute};
use prescient_apps::AppRun;
use prescient_bench::telemetry::{emit_remap, read_lines};
use prescient_bench::{dispatch, patient_retry, Inputs, Leg, Scale, Subcommand};
use prescient_core::PredictiveConfig;
use prescient_runtime::{
    Machine, MachineConfig, NodeCtx, PlacementSpec, ProtocolKind, RunReport, RunTimeline,
};
use prescient_stache::RetryConfig;
use prescient_tempest::trace::{TraceConfig, TraceEvent};
use prescient_tempest::{BatchConfig, FaultPlan, GAddr, HomeMap, MetricsConfig, PhaseRecord};

const NAMES: [(&str, Subcommand); 7] = [
    ("batching", batching),
    ("coalesce", coalesce),
    ("commute", commute),
    ("degradation", degradation),
    ("incremental", incremental),
    ("metrics", metrics),
    ("placement", placement),
];

fn main() {
    dispatch("ablation", &NAMES);
}

fn checksum(r: &AppRun) -> String {
    format!("{:016x}", r.checksum.to_bits())
}

// ---- batching -------------------------------------------------------------

/// The aggregation layer packs consecutive same-destination envelopes
/// into wire batches; `max_batch` bounds how many pile up before a buffer
/// is force-flushed. Threshold 1 is batching off — the pre-batching
/// transport. Batching is transport-only and cannot change results.
fn batching(scale: Scale, i: Inputs) {
    let bs = 128;
    println!("== Ablation: egress batch threshold ({} nodes, {bs}B blocks) ==\n", scale.nodes);
    println!(
        "{:<10} {:>6} {:>10} {:>12} {:>10} {:>10} {:>10} {:>18}",
        "app", "batch", "wall(ms)", "msgs", "batches", "occupancy", "wiremsgs", "checksum"
    );
    for (app, _, run) in i.apps() {
        for max_batch in [1, 4, 16, 64] {
            let cfg = MachineConfig::predictive(scale.nodes, bs)
                .with_retry(patient_retry())
                .with_batch(BatchConfig::new(max_batch));
            let r = run(cfg);
            println!(
                "{app:<10} {max_batch:>6} {:>10} {:>12} {:>10} {:>10.2} {:>10} {:>18}",
                r.report.wall.as_millis(),
                r.report.total_stats().msgs_out,
                r.report.wire.batches,
                r.report.wire.mean_occupancy(),
                r.report.wire.envelopes,
                checksum(&r),
            );
        }
    }
}

// ---- coalesce -------------------------------------------------------------

/// The pre-send phase coalesces runs of neighboring blocks with identical
/// targets into bulk messages, amortizing per-message startup. Water and
/// Adaptive with coalescing disabled show the message-count and
/// pre-send-time inflation.
fn coalesce(scale: Scale, i: Inputs) {
    println!("== Ablation: pre-send coalescing ({} nodes, 32B blocks) ==\n", scale.nodes);
    println!(
        "{:<10} {:<10} {:>12} {:>12} {:>12} {:>12}",
        "app", "coalesce", "presendblk", "presendmsg", "presend(ms)", "total(ms)"
    );
    for (app, _, run) in i.apps().into_iter().filter(|(app, ..)| *app != "barnes") {
        for coalesce in [true, false] {
            let pcfg = PredictiveConfig { coalesce, ..Default::default() };
            let r = run(MachineConfig {
                protocol: ProtocolKind::Predictive(pcfg),
                ..MachineConfig::predictive(scale.nodes, 32)
            });
            let t = r.report.total_stats();
            let presend_ms = r.report.mean_breakdown().presend_ns as f64 / 1e6;
            let total_ms = r.report.exec_time_ns() as f64 / 1e6;
            println!(
                "{app:<10} {:<10} {:>12} {:>12} {presend_ms:>12.2} {total_ms:>12.2}",
                coalesce, t.presend_blocks_out, t.presend_msgs_out
            );
        }
    }
}

// ---- commute --------------------------------------------------------------

/// The build phase is the §3.4 conflict phase — tree blocks are both read
/// and written within one phase instance, so the predictive protocol must
/// leave them alone. The commutativity analysis proves the phase's
/// aggregate updates mergeable (lint W007), and the `CommutativeMerge`
/// directive turns it into privatize-and-merge: delta records exchanged
/// in bulk at the phase barrier instead of demand scans of every position
/// block. The merged replay reconstructs the serialized insertion order
/// exactly, so the checksums must be bit-identical.
fn commute(scale: Scale, i: Inputs) {
    let (bs, cfg) = (128, i.barnes);
    println!(
        "== Ablation: commutative-merge tree build (barnes n={}, {} steps, {} nodes, {bs}B \
         blocks) ==\n",
        cfg.n, cfg.steps, scale.nodes
    );
    println!(
        "{:<22} {:>10} {:>12} {:>14} {:>12} {:>18}",
        "version", "wall(ms)", "msgs", "bytes_moved", "blocks", "checksum"
    );
    let row = |label: &str, r: &AppRun| {
        println!(
            "{label:<22} {:>10} {:>12} {:>14} {:>12} {:>18}",
            r.report.wall.as_millis(),
            r.report.total_stats().msgs_out,
            r.report.bytes_moved(),
            r.report.blocks_moved(),
            checksum(r),
        );
    };
    let stache =
        run_barnes(MachineConfig::stache(scale.nodes, bs).with_retry(patient_retry()), &cfg);
    row("stache (demand scan)", &stache);
    let commute = run_barnes_commute(
        MachineConfig::stache(scale.nodes, bs).with_retry(patient_retry()),
        &cfg,
    );
    row("commutative merge", &commute);

    assert_eq!(
        commute.checksum.to_bits(),
        stache.checksum.to_bits(),
        "the merged build must be bit-identical to the demand-driven build"
    );
    let (ms, mc) = (stache.report.total_stats().msgs_out, commute.report.total_stats().msgs_out);
    assert!(mc < ms, "the merge must move fewer messages: {mc} vs {ms}");
    println!(
        "\nchecksums bit-identical; messages {ms} -> {mc} ({:.1}% of stache, {:.2}x reduction)",
        100.0 * mc as f64 / ms as f64,
        ms as f64 / mc as f64,
    );
}

// ---- degradation ----------------------------------------------------------

const BLOCK: usize = 32;

/// `blocks` blocks written by their owners then read by one other node,
/// `iters` times; the reader of block `b` rotates each iteration when
/// `rotate`, else stays fixed.
struct Pattern {
    blocks: usize,
    iters: u64,
    rotate: bool,
}

fn run_pattern(mcfg: MachineConfig, pat: &Pattern) -> RunReport {
    let nodes = mcfg.nodes;
    let mut m = Machine::new(mcfg);
    let addrs: Vec<GAddr> = (0..pat.blocks)
        .map(|b| m.alloc_on((b % nodes) as u16, BLOCK as u64, BLOCK as u64))
        .collect();
    let (iters, rotate) = (pat.iters, pat.rotate);
    let (_, report) = m.run(move |ctx: &mut NodeCtx| {
        let me = ctx.me() as usize;
        let n = ctx.nodes();
        for iter in 0..iters {
            ctx.phase_begin(1);
            for (b, &addr) in addrs.iter().enumerate() {
                if b % n == me {
                    ctx.write::<u64>(addr, iter * 1000 + b as u64);
                }
            }
            ctx.phase_end();
            ctx.phase_begin(2);
            for (b, &addr) in addrs.iter().enumerate() {
                // Rotating: a different node each time.
                let reader = if rotate { (b + 1 + iter as usize) % n } else { (b + 1) % n };
                if reader == me {
                    assert_eq!(ctx.read::<u64>(addr), iter * 1000 + b as u64);
                }
            }
            ctx.phase_end();
        }
    });
    report
}

/// The adversarial pattern is a *rotating reader*: each iteration a
/// different node consumes each block, so the schedule recorded from the
/// previous instance pushes to the wrong node every time — 100% useless
/// pre-sends that incremental schedules never self-correct (deletions are
/// not tracked, §3.3). Plain Stache is the overhead floor, predictive
/// without degradation the waste ceiling. A second section prices the
/// reliability machinery itself: stable readers on a clean fabric vs. one
/// that delays, duplicates, and drops messages (`FaultPlan::chaos`).
fn degradation(scale: Scale, _: Inputs) {
    let predictive = |degrade: bool| {
        let mut cfg = MachineConfig::predictive(scale.nodes, BLOCK);
        cfg.protocol = ProtocolKind::Predictive(PredictiveConfig { degrade, ..Default::default() });
        cfg
    };
    let header = || {
        println!(
            "{:<26} {:>8} {:>10} {:>10} {:>8} {:>8} {:>11}",
            "variant", "misses", "presendblk", "useless", "degrade", "retries", "total(ms)"
        )
    };
    let row = |label: &str, r: &RunReport| {
        let t = r.total_stats();
        let unused: u64 = r.per_node.iter().map(|n| n.unused_presends).sum();
        println!(
            "{label:<26} {:>8} {:>10} {:>10} {:>8} {:>8} {:>11.2}",
            t.misses(),
            t.presend_blocks_out,
            t.presend_useless + unused,
            t.degrade_events,
            t.retries,
            r.exec_time_ns() as f64 / 1e6,
        );
    };
    let (blocks, iters) = if scale.paper { (64, 48) } else { (24, 24) };
    let pat = Pattern { blocks, iters, rotate: true };

    println!(
        "== Ablation: degradation under a rotating-reader adversary ({} nodes) ==\n",
        scale.nodes
    );
    header();
    row("stache (no presend)", &run_pattern(MachineConfig::stache(scale.nodes, BLOCK), &pat));
    row("predictive, no degrade", &run_pattern(predictive(false), &pat));
    row("predictive + degrade", &run_pattern(predictive(true), &pat));
    println!(
        "\nEvery pre-send misses its reader; degradation caps the useless \
         stream at ~consecutive*blocks and converges to Stache behavior."
    );

    let stable = Pattern { rotate: false, ..pat };
    let chaos = predictive(true)
        .with_faults(FaultPlan::chaos(7))
        .with_retry(RetryConfig { timeout: Duration::from_millis(25), max_retries: 400 })
        .validated();
    println!("\n== Reliability overhead: stable readers, clean vs chaotic fabric ==\n");
    header();
    row("clean fabric", &run_pattern(predictive(true), &stable));
    row("chaos fabric (seed 7)", &run_pattern(chaos, &stable));
    println!(
        "\nDelays/dups/drops cost retries and virtual wait time, never \
         results: the chaotic run is validated coherent at teardown."
    );
}

// ---- incremental ----------------------------------------------------------

/// Incremental schedules track additions but not deletions, so stale
/// entries cause redundant pre-sends; the paper's remedy is flushing the
/// schedule and rebuilding. Adaptive (whose refinement keeps adding
/// entries) with no flushing and with several flush periods: redundant
/// pre-sends (copies delivered but never read) against the re-recording
/// cost.
fn incremental(scale: Scale, i: Inputs) {
    println!(
        "== Ablation: incremental schedules vs flush-and-rebuild ({} nodes) ==\n",
        scale.nodes
    );
    println!(
        "{:<16} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "policy", "misses", "presendblk", "unused", "records", "total(ms)"
    );
    for flush in [None, Some(6), Some(3), Some(1)] {
        let cfg = AdaptiveConfig { flush_every: flush, ..i.adaptive };
        let r = run_adaptive(MachineConfig::predictive(scale.nodes, 32), &cfg);
        let t = r.report.total_stats();
        let unused: u64 = r.report.per_node.iter().map(|n| n.unused_presends).sum();
        let label = flush.map_or("incremental".to_string(), |k| format!("flush every {k}"));
        println!(
            "{label:<16} {:>10} {:>12} {:>12} {:>12} {:>12.2}",
            t.misses(),
            t.presend_blocks_out,
            unused,
            t.sched_records,
            r.report.exec_time_ns() as f64 / 1e6
        );
    }
    println!(
        "\nFlushing trades extra faults (rebuild misses, higher `records`) \
         for fewer stale pre-sends (`unused`)."
    );
}

// ---- metrics --------------------------------------------------------------

/// The perf gate's eight equality-gated columns.
fn gated(r: &AppRun) -> [(&'static str, u64); 8] {
    let t = r.report.total_stats();
    [
        ("checksum", r.checksum.to_bits()),
        ("vtime_ns", r.report.exec_time_ns()),
        ("msgs", t.msgs_out),
        ("bytes_moved", r.report.bytes_moved()),
        ("blocks_moved", r.report.blocks_moved()),
        ("misses", t.misses()),
        ("presend_blocks", t.presend_blocks_out),
        ("presend_useless", t.presend_useless),
    ]
}

/// Each app with metrics off, then streaming to a live JSONL file:
/// **asserts** the eight gated columns bit-identical (recording must not
/// change what is being measured), **reconciles** the live stream against
/// the measured run's report (the telescoping-sum invariant, at full app
/// scale), and **reports** the only honest cost, wall clock.
fn metrics(scale: Scale, i: Inputs) {
    // The measured run is the second `Machine::run` of every app driver
    // (setup / measured / gather).
    const MEASURED_RUN: u64 = 2;
    let mcfg = || MachineConfig::predictive(scale.nodes, 128).with_retry(patient_retry());
    println!("== Ablation: metrics timeline overhead ({} nodes, 128B blocks) ==", scale.nodes);
    println!("(gated columns asserted bit-identical off vs on; wall-clock is the whole cost)\n");
    println!(
        "{:<10} {:>10} {:>10} {:>9} {:>8} {:>8}",
        "app", "off(ms)", "on(ms)", "overhead", "records", "measured"
    );
    for (app, _, run) in i.apps() {
        let stream = std::env::temp_dir()
            .join(format!("prescient_ablation_metrics_{}_{app}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned();
        let off = run(mcfg());
        let on = run(mcfg().with_metrics(MetricsConfig::stream(&stream)));
        for ((name, a), (_, b)) in gated(&off).iter().zip(gated(&on)) {
            assert_eq!(
                *a, b,
                "{app}: gated column {name} changed with metrics on ({a} vs {b}) — \
                 the zero-perturbation bar is broken"
            );
        }
        let records = read_lines(&stream, PhaseRecord::from_json).expect("live stream parses");
        let timeline = RunTimeline::new(scale.nodes, records);
        timeline
            .reconciles_with(&on.report, MEASURED_RUN)
            .expect("stream reconciles with the measured report");
        let cuts = timeline.records.iter().filter(|r| r.run == MEASURED_RUN).count();
        let off_ms = off.report.wall.as_secs_f64() * 1e3;
        let on_ms = on.report.wall.as_secs_f64() * 1e3;
        println!(
            "{app:<10} {:>10.1} {:>10.1} {:>8.1}% {:>8} {:>8}",
            off_ms,
            on_ms,
            (on_ms - off_ms) / off_ms.max(1e-9) * 100.0,
            timeline.records.len(),
            cuts,
        );
        for f in [stream.clone(), format!("{stream}.timeline.json")] {
            let _ = std::fs::remove_file(f);
        }
    }
    println!("\nall gated columns bit-identical off vs on; streams reconcile with the reports");
}

// ---- placement ------------------------------------------------------------

/// Run `leg` with tracing on, then distill the recorded traffic into a
/// remap map the way `prescient-telemetry emit-remap` would. The trace lands
/// in a scratch file keyed by `tag` so legs never clobber each other.
fn record_and_remap(tag: &str, leg: &Leg<'_>, cfg: MachineConfig) -> (AppRun, HomeMap) {
    let nodes = cfg.nodes;
    let base =
        std::env::temp_dir().join(format!("ablation_placement_{}_{tag}", std::process::id()));
    let base = base.to_str().expect("utf-8 temp path").to_string();
    // Machines are torn down (and the trace written) before this returns;
    // no other machine is alive, so the env var is race-free.
    std::env::set_var("PRESCIENT_TRACE_OUT", &base);
    let run = leg(cfg.with_trace(TraceConfig::with_capacity(1 << 18)));
    std::env::remove_var("PRESCIENT_TRACE_OUT");
    let events =
        read_lines(&format!("{base}.jsonl"), TraceEvent::from_json).expect("trace export readable");
    let map = HomeMap::parse(&emit_remap(&events), nodes)
        .expect("emit-remap output is a valid remap file");
    for f in [format!("{base}.json"), format!("{base}.jsonl")] {
        let _ = std::fs::remove_file(f);
    }
    (run, map)
}

/// Three legs per application, all plain Stache: **owner** — the apps'
/// natural owner-homed allocation (the control: `emit-remap` over its
/// traffic should find almost nothing to re-home); **rotate** —
/// `home_shift(1)`, the deliberately bad static layout where every
/// directory sits one node from its owner (§3.2); **remap** — the rotate
/// leg recorded, distilled to a remap file and rerun with the overlay
/// applied from step one. Placement moves directory entries, never
/// results, so checksums must be bit-identical; message counts are the
/// measurement (`blocks` is comparable only where the fault pattern is
/// deterministic — water; barnes' contended tree reads make miss counts
/// layout-dependent, which the table shows honestly).
fn placement(scale: Scale, i: Inputs) {
    let bs = 64;
    let row = |label: &str, r: &AppRun| {
        let t = r.report.total_stats();
        println!(
            "{label:<22} {:>10} {:>12} {:>14} {:>12} {:>6} {:>18}",
            r.report.wall.as_millis(),
            t.msgs_out,
            r.report.bytes_moved(),
            r.report.blocks_moved(),
            t.remapped_blocks,
            checksum(r),
        );
    };
    println!("== Ablation: traffic-aware home placement ({} nodes, {bs}B blocks) ==", scale.nodes);
    let sizes = [
        format!("n={}, {} steps", i.water.n, i.water.steps),
        format!("n={}, {} steps", i.barnes.n, i.barnes.steps),
        format!("n={}, {} iters", i.adaptive.n, i.adaptive.iters),
    ];
    let mut outcomes = Vec::new();
    for ((app, _, leg), size) in i.apps().into_iter().zip(sizes) {
        println!("\n-- {app} ({size}) --");
        println!(
            "{:<22} {:>10} {:>12} {:>14} {:>12} {:>6} {:>18}",
            "version", "wall(ms)", "msgs", "bytes_moved", "blocks", "remap", "checksum"
        );
        let mk = || MachineConfig::stache(scale.nodes, bs).with_retry(patient_retry());
        let (owner, owner_map) = record_and_remap(&format!("{app}_owner"), &leg, mk());
        row("owner (control)", &owner);
        let (rotate, map) =
            record_and_remap(&format!("{app}_rotate"), &leg, mk().with_home_shift(1));
        row("rotate (bad static)", &rotate);
        let remapped = map.len();
        let remap = leg(mk().with_home_shift(1).with_placement(PlacementSpec::Remap(map)));
        row("rotate + remap", &remap);
        for (tag, r) in [("rotate", &rotate), ("remap", &remap)] {
            assert_eq!(
                r.checksum.to_bits(),
                owner.checksum.to_bits(),
                "{app}/{tag}: placement must not perturb the result"
            );
        }
        println!(
            "  emit-remap: owner layout re-homes {} blocks; rotate layout re-homes {remapped}",
            owner_map.len()
        );
        let msgs = |r: &AppRun| r.report.total_stats().msgs_out;
        outcomes.push((app, msgs(&rotate), msgs(&remap)));
    }

    println!("\n== summary: messages vs the rotate layout ==");
    let mut improved = 0;
    for &(app, rotate_msgs, remap_msgs) in &outcomes {
        let helped = remap_msgs < rotate_msgs;
        improved += u32::from(helped);
        println!(
            "{app:<10} rotate {rotate_msgs:>9}  remap {remap_msgs:>9} ({:>5.1}%){}",
            100.0 * remap_msgs as f64 / rotate_msgs.max(1) as f64,
            if helped { "" } else { "  [no win — reported, not gated]" },
        );
    }
    assert!(
        outcomes[0].2 < outcomes[0].1,
        "water's producer-consumer pattern must benefit from the remap"
    );
    assert!(improved >= 2, "remap must cut messages on at least 2 of 3 apps, got {improved}");
    println!(
        "\nchecksums bit-identical on every leg; {improved}/3 apps move fewer messages under remap"
    );
}
