//! Offline analysis of metrics timelines, shared by `prescient-metrics`
//! (the CLI) and the reconciliation tests.
//!
//! Input is either the live JSONL stream a machine appends to while
//! running (`PRESCIENT_METRICS=stream:PATH`, one [`PhaseRecord`] per
//! line) or the merged `*.timeline.json` exported at teardown — the
//! latter embeds the exact same record lines, so both load through the
//! same parser and are textually comparable.
//!
//! The anomaly detector exploits the paper's iterative structure: the
//! same phase id recurs once per outer iteration with near-identical
//! traffic, so a phase instance whose gated metrics deviate from the
//! median of its *sibling* iterations is worth flagging — and the cause
//! counters recorded in the same deltas (schedule rebuilds, degradation
//! flushes, crash recoveries, a home remap) usually name the reason.

use prescient_runtime::{PhaseGroup, RunTimeline};
use prescient_tempest::json::{Json, Reader};
use prescient_tempest::PhaseRecord;

/// Load a JSONL stream file: one [`PhaseRecord`] per line.
pub fn load_stream(path: &str) -> Result<Vec<PhaseRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_stream(&text).map_err(|e| format!("{path}: {e}"))
}

/// Parse JSONL stream text (split out for tests and for `watch`).
pub fn parse_stream(text: &str) -> Result<Vec<PhaseRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(PhaseRecord::parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

/// Load a `*.timeline.json` export: the `nodes` member gives the machine
/// size, and every element of `records` is a stream line.
pub fn load_timeline(path: &str) -> Result<RunTimeline, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_timeline(&text).map_err(|e| format!("{path}: {e}"))
}

/// Parse timeline JSON text, one record at a time (a paper-scale export
/// is tens of megabytes; only `nodes` and `records` are read, the
/// aggregates are recomputed from the records).
pub fn parse_timeline(text: &str) -> Result<RunTimeline, String> {
    let (mut nodes, mut records) = (None, Vec::new());
    let mut doc = Reader::new(text);
    doc.object(|key, r| match &*key {
        "nodes" => r.value().map(|v| nodes = Some(v)),
        "records" => r.array(|r| {
            let rec = PhaseRecord::from_json(&r.value()?);
            records.push(rec.map_err(|e| format!("record {}: {e}", records.len()))?);
            Ok(())
        }),
        _ => r.value().map(drop),
    })?;
    doc.end()?;
    let nodes = match nodes {
        Some(Json::Int(n)) => usize::try_from(n).ok(),
        _ => None,
    };
    nodes
        .map(|n| RunTimeline::new(n, records))
        .ok_or_else(|| "missing header field \"nodes\"".to_string())
}

/// One flagged phase instance: a gated metric of `(run, phase, iter)`
/// deviated from the median of the same phase's other iterations.
#[derive(Debug, Clone)]
pub struct Anomaly {
    /// Run ordinal of the flagged instance.
    pub run: u64,
    /// Phase id.
    pub phase: u32,
    /// Iteration ordinal within the run.
    pub iter: u64,
    /// Which metric deviated (`bytes_moved`, `misses`, ...).
    pub metric: &'static str,
    /// The instance's value.
    pub value: u64,
    /// Median of the sibling iterations' values.
    pub median: u64,
    /// Deviation from the median, in percent of the median.
    pub deviation_pct: f64,
    /// Causes recorded in the same deltas (empty = unexplained).
    pub causes: Vec<String>,
}

/// The per-instance metrics the detector watches: the gate's traffic
/// columns plus virtual time.
fn watched(g: &PhaseGroup) -> [(&'static str, u64); 5] {
    [
        ("vtime_ns", g.vtime_ns),
        ("msgs", g.stats.msgs_out),
        ("bytes_moved", g.bytes_moved()),
        ("blocks_moved", g.blocks_moved()),
        ("misses", g.stats.misses()),
    ]
}

/// Cause counters carried by the instance's own deltas, with the
/// human-readable attribution the report prints.
fn causes_of(g: &PhaseGroup) -> Vec<String> {
    let mut out = Vec::new();
    let s = &g.stats;
    if s.sched_records > 0 {
        out.push(format!("schedule rebuild ({} records)", s.sched_records));
    }
    if s.degrade_events > 0 {
        out.push(format!("degradation flush ({} events)", s.degrade_events));
    }
    if s.recoveries > 0 || s.replays > 0 {
        out.push(format!("crash recovery ({} recoveries, {} replays)", s.recoveries, s.replays));
    }
    if s.remapped_blocks > 0 {
        out.push(format!("home remap ({} blocks)", s.remapped_blocks));
    }
    out
}

/// Flag phase instances whose watched metrics deviate more than
/// `threshold_pct` percent from the median of the same `(run, phase)`
/// pair's *other* iterations. Gap records (phase 0) and phases with
/// fewer than three iterations (no meaningful median) are skipped.
pub fn detect_anomalies(timeline: &RunTimeline, threshold_pct: f64) -> Vec<Anomaly> {
    let groups = timeline.phases();
    let mut out = Vec::new();
    for g in groups.iter().filter(|g| g.phase != 0) {
        let siblings: Vec<&PhaseGroup> = groups
            .iter()
            .filter(|o| o.run == g.run && o.phase == g.phase && o.iter != g.iter)
            .collect();
        if siblings.len() < 2 {
            continue;
        }
        for (i, (metric, value)) in watched(g).into_iter().enumerate() {
            let mut vals: Vec<u64> = siblings.iter().map(|o| watched(o)[i].1).collect();
            vals.sort_unstable();
            let median = vals[vals.len() / 2];
            let dev = value.abs_diff(median) as f64 / median.max(1) as f64 * 100.0;
            if dev > threshold_pct {
                out.push(Anomaly {
                    run: g.run,
                    phase: g.phase,
                    iter: g.iter,
                    metric,
                    value,
                    median,
                    deviation_pct: dev,
                    causes: causes_of(g),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use prescient_tempest::stats::StatsSnapshot;
    use prescient_tempest::{LatencyHist, TimeBreakdown};

    fn rec(node: u16, seq: u64, phase: u32, iter: u64, msgs: u64) -> PhaseRecord {
        PhaseRecord {
            node,
            seq,
            run: 1,
            phase,
            iter,
            version: seq,
            vtime: TimeBreakdown { compute_ns: 100, wait_ns: 0, presend_ns: 0, synch_ns: 0 },
            stats: StatsSnapshot { msgs_out: msgs, ..StatsSnapshot::default() },
            fetch: LatencyHist::default(),
            wire: None,
        }
    }

    #[test]
    fn stream_roundtrips() {
        let recs = vec![rec(0, 0, 1, 0, 3), rec(1, 0, 1, 0, 4)];
        let text: String = recs.iter().map(|r| r.to_json_line() + "\n").collect();
        assert_eq!(parse_stream(&text).unwrap(), recs);
        assert!(parse_stream("{\"node\":oops}\n").is_err());
    }

    #[test]
    fn timeline_roundtrips_through_json() {
        let t = RunTimeline::new(2, vec![rec(0, 0, 1, 0, 3), rec(1, 0, 1, 0, 4)]);
        let back = parse_timeline(&t.to_json()).unwrap();
        assert_eq!(back.nodes, 2);
        assert_eq!(back.records, t.records);
        assert!(parse_timeline("{}").is_err(), "missing header is loud");
    }

    #[test]
    fn detector_flags_the_deviant_iteration_with_causes() {
        // Phase 1 runs 5 iterations with msgs = 10, except iteration 3
        // which triples — and carries a degradation flush to explain it.
        let mut records = Vec::new();
        for it in 0..5u64 {
            let mut r = rec(0, it, 1, it, if it == 3 { 30 } else { 10 });
            if it == 3 {
                r.stats.degrade_events = 2;
            }
            records.push(r);
        }
        let t = RunTimeline::new(1, records);
        let hits = detect_anomalies(&t, 50.0);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!((hits[0].phase, hits[0].iter, hits[0].metric), (1, 3, "msgs"));
        assert_eq!(hits[0].median, 10);
        assert!(hits[0].causes[0].contains("degradation flush"), "{:?}", hits[0].causes);
        // Steady traffic below the threshold stays quiet.
        assert!(detect_anomalies(&t, 250.0).is_empty());
    }

    #[test]
    fn detector_needs_enough_siblings() {
        let t = RunTimeline::new(1, vec![rec(0, 0, 1, 0, 10), rec(0, 1, 1, 1, 99)]);
        assert!(detect_anomalies(&t, 10.0).is_empty(), "two iterations have no median");
    }
}
