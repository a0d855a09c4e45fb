//! `prescient-metrics`: offline/live analyzer for metrics timelines.
//!
//! Input is either the live JSONL stream a machine appends while running
//! (`PRESCIENT_METRICS=stream:PATH`) or the `*.timeline.json` a machine
//! exports at teardown; both carry the same record lines.
//!
//! ```text
//! prescient-metrics report   FILE                  # per-phase tables
//! prescient-metrics watch    STREAM [--once]       # follow a live stream
//! prescient-metrics anomaly  FILE [--threshold N]  # flag deviant iterations
//! prescient-metrics validate STREAM [TIMELINE]     # CI structural checks
//! ```
//!
//! `report` prints the phase-instance table (one row per `(run, phase,
//! iteration)` with the gate's traffic columns, the fetch-latency mean
//! and the wire occupancy), then per-run totals. `watch` tails a stream,
//! one formatted line per record as nodes cut them; `--once` drains what
//! is there and exits. `anomaly` compares every phase instance against
//! the median of its sibling iterations and attributes deviations to the
//! cause counters recorded in the same deltas (DESIGN.md §15). `validate`
//! checks that a stream parses, reconciles record-for-record with its
//! teardown timeline when one is given, and exits non-zero on any
//! mismatch.

use std::io::Read;
use std::process::ExitCode;

use prescient_bench::metrics::{
    detect_anomalies, load_stream, load_timeline, parse_stream, parse_timeline,
};
use prescient_runtime::RunTimeline;
use prescient_tempest::PhaseRecord;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    let r = match strs.as_slice() {
        ["report", file] => report(file),
        ["watch", stream] => watch(stream, false),
        ["watch", stream, "--once"] => watch(stream, true),
        ["anomaly", file] => anomaly(file, 50.0),
        ["anomaly", file, "--threshold", pct] => match pct.parse::<f64>() {
            Ok(p) => anomaly(file, p),
            Err(e) => Err(format!("--threshold {pct:?}: {e}")),
        },
        ["validate", stream] => validate(stream, None),
        ["validate", stream, timeline] => validate(stream, Some(timeline)),
        _ => {
            eprintln!(
                "usage: prescient-metrics report FILE\n\
                 \x20      prescient-metrics watch STREAM [--once]\n\
                 \x20      prescient-metrics anomaly FILE [--threshold PCT]\n\
                 \x20      prescient-metrics validate STREAM [TIMELINE]"
            );
            return ExitCode::from(2);
        }
    };
    match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("prescient-metrics: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Load either input format: a JSONL stream (its first line is a whole
/// record; wrapped as a whole-machine timeline over the nodes seen) or
/// timeline JSON (one document over many lines).
fn load_any(file: &str) -> Result<RunTimeline, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
    let first = text.lines().next().unwrap_or("");
    if first.is_empty() || prescient_tempest::json::parse(first).is_ok() {
        let records = parse_stream(&text).map_err(|e| format!("{file}: {e}"))?;
        let nodes = records.iter().map(|r| r.node as usize + 1).max().unwrap_or(0);
        Ok(RunTimeline::new(nodes, records))
    } else {
        parse_timeline(&text).map_err(|e| format!("{file}: {e}"))
    }
}

fn report(file: &str) -> Result<(), String> {
    let t = load_any(file)?;
    println!("== metrics timeline: {file} ({} nodes, {} records) ==", t.nodes, t.records.len());
    println!(
        "\n{:>3} {:>5} {:>4} {:>5} {:>12} {:>8} {:>12} {:>8} {:>8} {:>8} {:>10} {:>6}",
        "run",
        "phase",
        "iter",
        "cuts",
        "vtime(ms)",
        "msgs",
        "bytes",
        "blocks",
        "misses",
        "presend",
        "fetch(us)",
        "occ"
    );
    for g in t.phases() {
        let label = if g.phase == 0 { "gap".to_string() } else { g.phase.to_string() };
        println!(
            "{:>3} {:>5} {:>4} {:>5} {:>12.3} {:>8} {:>12} {:>8} {:>8} {:>8} {:>10.2} {:>6.2}",
            g.run,
            label,
            g.iter,
            g.records,
            g.vtime_ns as f64 / 1e6,
            g.stats.msgs_out,
            g.bytes_moved(),
            g.blocks_moved(),
            g.stats.misses(),
            g.stats.presend_blocks_out,
            g.fetch.mean_ns() / 1e3,
            g.wire.map_or(1.0, |w| w.mean_occupancy()),
        );
    }
    println!();
    for run in t.runs() {
        let mut stats = prescient_tempest::stats::StatsSnapshot::default();
        let mut vtime = prescient_tempest::TimeBreakdown::default();
        for r in t.records.iter().filter(|r| r.run == run) {
            stats = stats.merge(&r.stats);
            vtime = vtime.merge(&r.vtime);
        }
        println!(
            "run {run}: vtime {:.3} ms (wait {:.1}%)  msgs {}  bytes {}  misses {}  \
             presend {} ({} useless)",
            vtime.total_ns() as f64 / 1e6,
            vtime.wait_ns as f64 / vtime.total_ns().max(1) as f64 * 100.0,
            stats.msgs_out,
            stats.data_bytes_in + stats.presend_bytes_out,
            stats.misses(),
            stats.presend_blocks_out,
            stats.presend_useless,
        );
    }
    Ok(())
}

fn fmt_record(r: &PhaseRecord) -> String {
    let label = if r.phase == 0 { "gap".to_string() } else { format!("p{}", r.phase) };
    format!(
        "run {} {:>4} iter {:>2} node {:>2}  vtime {:>9.3} ms  msgs {:>6}  bytes {:>9}  \
         misses {:>5}  fetch n={}",
        r.run,
        label,
        r.iter,
        r.node,
        r.vtime.total_ns() as f64 / 1e6,
        r.stats.msgs_out,
        r.stats.data_bytes_in + r.stats.presend_bytes_out,
        r.stats.misses(),
        r.fetch.n(),
    )
}

/// Tail a live stream: print each record as its line lands in the file.
/// The publisher appends whole lines and flushes per batch, so reading
/// from the last seen offset and splitting on complete lines is safe.
fn watch(stream: &str, once: bool) -> Result<(), String> {
    let mut seen = 0usize;
    let mut buf = String::new();
    loop {
        buf.clear();
        let mut f = std::fs::File::open(stream).map_err(|e| format!("{stream}: {e}"))?;
        f.read_to_string(&mut buf).map_err(|e| format!("{stream}: {e}"))?;
        let new = &buf[seen.min(buf.len())..];
        let complete = new.rfind('\n').map_or(0, |i| i + 1);
        for line in new[..complete].lines() {
            match PhaseRecord::parse_line(line) {
                Ok(r) => println!("{}", fmt_record(&r)),
                Err(e) => eprintln!("prescient-metrics: skipping bad line ({e})"),
            }
        }
        seen += complete;
        if once {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
}

fn anomaly(file: &str, threshold_pct: f64) -> Result<(), String> {
    let t = load_any(file)?;
    let hits = detect_anomalies(&t, threshold_pct);
    if hits.is_empty() {
        println!(
            "no anomalies: every phase instance within {threshold_pct}% of its siblings' median"
        );
        return Ok(());
    }
    println!("{} anomalies (threshold {threshold_pct}%):", hits.len());
    for a in &hits {
        let cause =
            if a.causes.is_empty() { "unexplained".to_string() } else { a.causes.join("; ") };
        println!(
            "  run {} phase {} iter {}: {} = {} vs median {} ({:+.0}%)  <- {cause}",
            a.run,
            a.phase,
            a.iter,
            a.metric,
            a.value,
            a.median,
            if a.value >= a.median { a.deviation_pct } else { -a.deviation_pct },
        );
    }
    Ok(())
}

fn validate(stream: &str, timeline: Option<&str>) -> Result<(), String> {
    let records = load_stream(stream)?;
    if records.is_empty() {
        return Err(format!("{stream}: no records"));
    }
    // Per-(node, run) seq must be gapless from 0 — a gap means lost
    // records. (seq restarts each run: a run builds fresh node contexts.)
    let keys: std::collections::BTreeSet<(u16, u64)> =
        records.iter().map(|r| (r.node, r.run)).collect();
    for (node, run) in keys {
        let mut seqs: Vec<u64> =
            records.iter().filter(|r| r.node == node && r.run == run).map(|r| r.seq).collect();
        seqs.sort_unstable();
        for (want, got) in seqs.iter().enumerate() {
            if *got != want as u64 {
                return Err(format!("node {node} run {run}: seq gap, expected {want} got {got}"));
            }
        }
    }
    if let Some(tl) = timeline {
        let t = load_timeline(tl)?;
        if t.records != records {
            return Err(format!(
                "{stream} ({} records) and {tl} ({} records) disagree",
                records.len(),
                t.records.len()
            ));
        }
    }
    println!(
        "ok: {} records{}",
        records.len(),
        if timeline.is_some() { ", stream == timeline" } else { "" }
    );
    Ok(())
}
