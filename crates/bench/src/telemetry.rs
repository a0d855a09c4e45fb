//! Offline telemetry: the readers of the three files a machine exports
//! and the analyses over them, shared by the `prescient-telemetry` CLI,
//! `ablation` and the tests.
//!
//! * a **trace**, one [`TraceEvent`] per line (`trace::write_jsonl`);
//! * a **metrics stream**, one [`PhaseRecord`] per line, appended while
//!   the machine runs (`PRESCIENT_METRICS=stream:PATH`);
//! * a **metrics timeline**, the `*.timeline.json` document exported at
//!   teardown, which embeds the stream's record lines verbatim.
//!
//! [`load`] tells the three apart by the file's first line — the one
//! place that does. [`read_lines`] reads both line formats and
//! [`parse_timeline`] the document, one record at a time.
//!
//! Two policies live here. **Placement** (DESIGN.md §14): every
//! `GetShared` a home handles scores 1 for the requester, every `GetExcl`
//! scores 2 — writers drag invalidation rounds behind them, so
//! co-locating the home with the writer saves more than co-locating with
//! a reader. A block whose top scorer strictly beats every other
//! requester re-homes there; ties and blocks their own home dominates
//! stay put. **Anomalies** (DESIGN.md §15): the same phase id recurs once
//! per outer iteration with near-identical traffic, so a phase instance
//! whose gated metrics deviate from the median of its *sibling*
//! iterations is worth flagging — and the cause counters recorded in the
//! same deltas (schedule rebuilds, degradation flushes, crash recoveries,
//! a home remap) usually name the reason.

use std::collections::{BTreeMap, HashMap};
use std::io::BufRead;

use prescient_runtime::{PhaseGroup, RunTimeline};
use prescient_tempest::json::{self, Json, Reader};
use prescient_tempest::trace::{
    unpack_fault_end, unpack_msg, unpack_peer_count, EventKind, TraceEvent,
};
use prescient_tempest::{LatencyHist, NodeId, PhaseRecord};

// ---- readers --------------------------------------------------------------

/// One telemetry file, by what [`load`] found in it.
pub enum Input {
    /// A trace's events, in file order.
    Trace(Vec<TraceEvent>),
    /// A timeline document, or a stream's records in file order as a
    /// timeline over the nodes they name.
    Metrics(RunTimeline),
}

/// Read `path` as whatever its first line says it is: a whole JSON value
/// with a `kind` member opens a trace, any other whole value (or an empty
/// file) a stream, and a line that is not a whole value a timeline
/// document, which spans many lines.
pub fn load(path: &str) -> Result<Input, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut first = String::new();
    std::io::BufReader::new(file).read_line(&mut first).map_err(|e| format!("{path}: {e}"))?;
    match json::parse(first.trim()) {
        Ok(v) if v.field("kind").is_some() => {
            read_lines(path, TraceEvent::from_json).map(Input::Trace)
        }
        Err(_) if !first.trim().is_empty() => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            parse_timeline(&text).map(Input::Metrics).map_err(|e| format!("{path}: {e}"))
        }
        _ => {
            let records = read_lines(path, PhaseRecord::from_json)?;
            let nodes = records.iter().map(|r| usize::from(r.node) + 1).max().unwrap_or(0);
            Ok(Input::Metrics(RunTimeline::new(nodes, records)))
        }
    }
}

/// Every non-blank line of `path`, parsed as one JSON value and read by
/// `parse` — [`TraceEvent::from_json`] for a trace,
/// [`PhaseRecord::from_json`] for a stream. An error names the line.
pub fn read_lines<T>(
    path: &str,
    parse: impl Fn(&Json<'_>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let lines = text.lines().enumerate().filter(|(_, line)| !line.trim().is_empty());
    lines
        .map(|(i, line)| {
            json::parse(line).and_then(|v| parse(&v)).map_err(|e| format!("{path}:{}: {e}", i + 1))
        })
        .collect()
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

// ---- sequence numbers -----------------------------------------------------

/// One key's sequence numbers, as [`seq_pass`] found them.
#[derive(Debug, PartialEq, Eq)]
pub struct Seqs {
    /// The lowest: every value below it is missing (a leading hole).
    pub first: u64,
    /// The lowest value that occurs more than once.
    pub duplicate: Option<u64>,
    /// The lowest value missing between `first` and the highest.
    pub hole: Option<u64>,
}

/// Group `seq` numbers by key and report each key's [`Seqs`]. The trace
/// rule ([`wrapped_nodes`]) and the metrics rule ([`check_stream`]) both
/// read the result.
pub fn seq_pass<K: Ord>(items: impl IntoIterator<Item = (K, u64)>) -> BTreeMap<K, Seqs> {
    let mut keys: BTreeMap<K, Vec<u64>> = BTreeMap::new();
    for (key, seq) in items {
        keys.entry(key).or_default().push(seq);
    }
    keys.into_iter()
        .map(|(key, mut s)| {
            s.sort_unstable();
            let duplicate = s.windows(2).find(|w| w[0] == w[1]).map(|w| w[0]);
            let hole = s.windows(2).find(|w| w[1] - w[0] > 1).map(|w| w[0] + 1);
            (key, Seqs { first: s[0], duplicate, hole })
        })
        .collect()
}

/// The trace rule: no node repeats a seq — a repeat means its ring
/// replayed a slot. Seqs are dense from zero, so a node whose lowest is
/// above zero lost that many oldest events to ring wrap (the tracer is a
/// flight recorder); it comes back with that count. Holes above the
/// lowest are torn slots, which the drain already counted as dropped.
pub fn wrapped_nodes(events: &[TraceEvent]) -> Result<BTreeMap<NodeId, u64>, String> {
    let mut wrapped = BTreeMap::new();
    for (node, s) in seq_pass(events.iter().map(|e| (e.node, e.seq))) {
        if let Some(seq) = s.duplicate {
            return Err(format!("node {node}: duplicate seq {seq}"));
        }
        if s.first > 0 {
            wrapped.insert(node, s.first);
        }
    }
    Ok(wrapped)
}

/// The metrics rule: there are records, and per `(node, run)` their
/// seqs run 0, 1, 2, … with no hole — a hole is a lost record — and no
/// duplicate. (Seq restarts each run: a run builds fresh node contexts.)
pub fn check_stream(records: &[PhaseRecord]) -> Result<(), String> {
    if records.is_empty() {
        return Err("no records".to_string());
    }
    for ((node, run), s) in seq_pass(records.iter().map(|r| ((r.node, r.run), r.seq))) {
        if let Some(seq) = s.duplicate {
            return Err(format!("node {node} run {run}: duplicate seq {seq}"));
        }
        if let Some(seq) = if s.first > 0 { Some(0) } else { s.hole } {
            return Err(format!("node {node} run {run}: seq gap, {seq} missing"));
        }
    }
    Ok(())
}

// ---- trace checks ---------------------------------------------------------

/// A trace's structural invariants: the trace rule; span pairing — per
/// node, ends never outnumber begins (a node's program is serial, so
/// spans of one kind never nest), except on a wrapped node, whose
/// openers may have been overwritten; and message-kind codes that
/// decode. Returns the wrapped nodes.
pub fn validate_trace(events: &[TraceEvent]) -> Result<BTreeMap<NodeId, u64>, String> {
    let wrapped = wrapped_nodes(events)?;
    for (open, close) in [
        (EventKind::FaultBegin, EventKind::FaultEnd),
        (EventKind::BarrierEnter, EventKind::BarrierExit),
        (EventKind::PresendStart, EventKind::PresendEnd),
        (EventKind::PhaseBegin, EventKind::PhaseEnd),
    ] {
        let mut depth: HashMap<NodeId, u64> = HashMap::new();
        for e in events {
            let d = depth.entry(e.node).or_default();
            if e.kind == open {
                *d += 1;
            } else if e.kind == close && *d > 0 {
                *d -= 1;
            } else if e.kind == close && !wrapped.contains_key(&e.node) {
                let (close, open) = (close.name(), open.name());
                return Err(format!("node {}: {close} without matching {open}", e.node));
            }
        }
    }
    for e in events.iter().filter(|e| matches!(e.kind, EventKind::MsgSend | EventKind::MsgRecv)) {
        let (code, _) = unpack_msg(e.a);
        if prescient_stache::Msg::kind_name(code) == "?" {
            return Err(format!("undecodable message kind code {code}"));
        }
    }
    Ok(wrapped)
}

/// The Chrome export at `path` parses, has the header, and every trace
/// event is an object with a phase tag — walked one event at a time.
pub fn check_chrome(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let (mut unit, mut events) = (false, false);
    let mut doc = Reader::new(&text);
    let walked = doc.object(|key, r| match &*key {
        "displayTimeUnit" => r.value().map(|_| unit = true),
        "traceEvents" => {
            events = true;
            r.array(|r| r.value()?.string("ph").map(drop))
        }
        _ => r.value().map(drop),
    });
    match walked.and_then(|()| doc.end()) {
        Ok(()) if unit && events => Ok(()),
        Ok(()) => Err(format!("{path}: not a Chrome trace-event export")),
        Err(e) => Err(format!("{path}: {e}")),
    }
}

// ---- trace analyses -------------------------------------------------------

/// Demand-fault latencies per phase, reads and writes:
/// FaultBegin/FaultEnd pair up per node (a node's program is serial, so
/// faults never nest).
pub fn fault_latencies(events: &[TraceEvent]) -> BTreeMap<u32, (LatencyHist, LatencyHist)> {
    let mut open: HashMap<NodeId, &TraceEvent> = HashMap::new();
    let mut phases: BTreeMap<u32, (LatencyHist, LatencyHist)> = BTreeMap::new();
    for e in events {
        match e.kind {
            EventKind::FaultBegin => {
                open.insert(e.node, e);
            }
            EventKind::FaultEnd => {
                if let Some(b) = open.remove(&e.node) {
                    let (excl, _, _) = unpack_fault_end(e.b);
                    let (rd, wr) = phases.entry(b.phase).or_default();
                    (if excl { wr } else { rd }).record(e.t_ns.saturating_sub(b.t_ns));
                }
            }
            _ => {}
        }
    }
    phases
}

/// What the pre-sends did: the lead times, first-touch vtime minus
/// install vtime per (node, block); the installed blocks never touched;
/// and per pushing home, the block copies it installed and how many of
/// them were never touched (useless).
pub fn presend_outcomes(events: &[TraceEvent]) -> (LatencyHist, u64, BTreeMap<NodeId, (u64, u64)>) {
    let mut installed: HashMap<(NodeId, u64), (u64, NodeId)> = HashMap::new();
    let (mut lead, mut homes) = (LatencyHist::default(), BTreeMap::<NodeId, (u64, u64)>::new());
    for e in events {
        match e.kind {
            EventKind::PresendInstall => {
                let (home, count) = unpack_peer_count(e.b);
                homes.entry(home).or_default().0 += count;
                for blk in e.a..e.a.saturating_add(count) {
                    installed.insert((e.node, blk), (e.t_ns, home));
                }
            }
            EventKind::PresendFirstTouch => {
                if let Some((t0, _)) = installed.remove(&(e.node, e.a)) {
                    lead.record(e.t_ns.saturating_sub(t0));
                }
            }
            _ => {}
        }
    }
    let untouched = installed.len() as u64;
    for (_, home) in installed.into_values() {
        homes.entry(home).or_default().1 += 1;
    }
    (lead, untouched, homes)
}

/// Weighted demand traffic of one block: which home served it and each
/// requester's score.
#[derive(Default)]
pub struct BlockTraffic {
    /// The home that served the block's requests.
    pub home: NodeId,
    /// Weighted score per requester (2 per exclusive, 1 per shared).
    pub score: HashMap<NodeId, u64>,
}

impl BlockTraffic {
    /// Total weighted traffic of the block.
    pub fn total(&self) -> u64 {
        self.score.values().sum()
    }

    /// The strictly dominant requester, if any: the unique node whose
    /// score beats every other requester's. A tie for the top leaves the
    /// block where it is (`None`).
    pub fn dominant(&self) -> Option<NodeId> {
        let (&best, &s) = self.score.iter().max_by_key(|&(n, s)| (*s, std::cmp::Reverse(*n)))?;
        (!self.score.iter().any(|(&n, &v)| n != best && v >= s)).then_some(best)
    }
}

/// Aggregate `MsgRecv` demand requests (GetShared = 1×, GetExcl = 2×) per
/// block. This is the exact aggregation `emit-remap` decides from.
pub fn traffic_tally(events: &[TraceEvent]) -> BTreeMap<u64, BlockTraffic> {
    let mut tally: BTreeMap<u64, BlockTraffic> = BTreeMap::new();
    for e in events.iter().filter(|e| e.kind == EventKind::MsgRecv) {
        let (code, src) = unpack_msg(e.a);
        let weight = match code {
            1 => 1, // GetShared
            2 => 2, // GetExcl
            _ => continue,
        };
        let t = tally.entry(e.b).or_default();
        t.home = e.node;
        *t.score.entry(src).or_default() += weight;
    }
    tally
}

/// Distill a recorded run into remap-file text (`HomeMap` format: one
/// `block home` line per re-homed block), loadable with
/// `PRESCIENT_PLACEMENT=remap:<path>`.
pub fn emit_remap(events: &[TraceEvent]) -> String {
    let mut out = String::from("# block home  (emit-remap: dominant-requester placement)\n");
    for (block, t) in traffic_tally(events) {
        if let Some(d) = t.dominant().filter(|&d| d != t.home) {
            out.push_str(&format!("{block} {d}\n"));
        }
    }
    out
}

// ---- metrics analyses -----------------------------------------------------

/// One flagged phase instance: a gated metric of `(run, phase, iter)`
/// deviated from the median of the same phase's other iterations.
#[derive(Debug, Clone)]
pub struct Anomaly {
    /// The flagged instance; [`causes`] names what its deltas recorded.
    pub group: PhaseGroup,
    /// Which metric deviated (`bytes_moved`, `misses`, ...).
    pub metric: &'static str,
    /// The instance's value.
    pub value: u64,
    /// Median of the sibling iterations' values.
    pub median: u64,
    /// Deviation from the median, in percent of the median (negative
    /// below it).
    pub deviation_pct: f64,
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
/// human-readable attribution the report prints (empty = unexplained).
pub fn causes(g: &PhaseGroup) -> Vec<String> {
    let s = &g.stats;
    let recovery = format!("crash recovery ({} recoveries, {} replays)", s.recoveries, s.replays);
    [
        (s.sched_records > 0, format!("schedule rebuild ({} records)", s.sched_records)),
        (s.degrade_events > 0, format!("degradation flush ({} events)", s.degrade_events)),
        (s.recoveries > 0 || s.replays > 0, recovery),
        (s.remapped_blocks > 0, format!("home remap ({} blocks)", s.remapped_blocks)),
    ]
    .into_iter()
    .filter_map(|(hit, cause)| hit.then_some(cause))
    .collect()
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
                let deviation_pct = if value >= median { dev } else { -dev };
                out.push(Anomaly { group: g.clone(), metric, value, median, deviation_pct });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use prescient_tempest::stats::StatsSnapshot;
    use prescient_tempest::trace::{pack_fault_end, pack_msg, pack_peer_count, to_jsonl};
    use prescient_tempest::TimeBreakdown;

    fn ev(
        node: NodeId,
        seq: u64,
        t: u64,
        phase: u32,
        kind: EventKind,
        a: u64,
        b: u64,
    ) -> TraceEvent {
        TraceEvent { node, seq, t_ns: t, phase, kind, a, b }
    }

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

    /// `text` in a file of its own; the caller removes it.
    fn file(tag: &str, text: &str) -> String {
        let name = format!("prescient_telemetry_{}_{tag}", std::process::id());
        let path = std::env::temp_dir().join(name).to_string_lossy().into_owned();
        std::fs::write(&path, text).expect("temp file");
        path
    }

    #[test]
    fn parse_round_trip() {
        let line =
            "{\"node\":2,\"seq\":7,\"t\":900,\"phase\":3,\"kind\":\"SchedRecord\",\"a\":5,\"b\":3}";
        let path = file("round_trip", &format!("{line}\n\n"));
        let events = read_lines(&path, TraceEvent::from_json).expect("parses");
        assert_eq!(events, [ev(2, 7, 900, 3, EventKind::SchedRecord, 5, 3)]);
        std::fs::write(&path, format!("{line}\n{{\"kind\":\"Nope\"}}\n")).expect("rewrite");
        let err = read_lines(&path, TraceEvent::from_json).expect_err("unknown kind");
        assert!(err.starts_with(&format!("{path}:2: ")), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn stream_roundtrips() {
        let recs = vec![rec(0, 0, 1, 0, 3), rec(1, 0, 1, 0, 4)];
        let text: String = recs.iter().map(|r| r.to_json_line() + "\n").collect();
        let path = file("stream", &text);
        assert_eq!(read_lines(&path, PhaseRecord::from_json).unwrap(), recs);
        std::fs::write(&path, "{\"node\":oops}\n").expect("rewrite");
        assert!(read_lines(&path, PhaseRecord::from_json).is_err());
        let _ = std::fs::remove_file(path);
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
    fn load_tells_the_three_kinds_apart() {
        let records = vec![rec(0, 0, 1, 0, 3), rec(1, 0, 1, 0, 4)];
        let stream: String = records.iter().map(|r| r.to_json_line() + "\n").collect();
        let events = [ev(0, 0, 5, 0, EventKind::PhaseBegin, 1, 0)];
        let timeline = RunTimeline::new(3, records.clone()).to_json();
        for (tag, text, want) in [
            ("kind_stream", stream, Some((2, &records[..]))),
            ("kind_timeline", timeline, Some((3, &records[..]))),
            ("kind_empty", String::new(), Some((0, &[][..]))),
            ("kind_trace", to_jsonl(&events), None),
        ] {
            let path = file(tag, &text);
            match (load(&path).expect(tag), want) {
                (Input::Trace(got), None) => assert_eq!(got, events),
                (Input::Metrics(t), Some((nodes, records))) => {
                    assert_eq!((t.nodes, &t.records[..]), (nodes, records), "{tag}")
                }
                _ => panic!("{tag}: loaded as the wrong kind"),
            }
            let _ = std::fs::remove_file(path);
        }
        assert!(load("/nonexistent/prescient.jsonl").is_err());
    }

    #[test]
    fn seq_pass_reports_first_duplicates_and_holes() {
        let pass = seq_pass([(1, 41), (0, 0), (1, 40), (0, 2), (1, 41), (0, 1), (2, 0), (2, 3)]);
        let top = seq_pass([(0, u64::MAX), (0, u64::MAX)]);
        assert_eq!(top[&0], Seqs { first: u64::MAX, duplicate: Some(u64::MAX), hole: None });
        assert_eq!(pass[&0], Seqs { first: 0, duplicate: None, hole: None });
        assert_eq!(pass[&1], Seqs { first: 40, duplicate: Some(41), hole: None });
        assert_eq!(pass[&2], Seqs { first: 0, duplicate: None, hole: Some(1) });
    }

    #[test]
    fn wrap_detection_counts_lost_events() {
        // Node 0 intact (seq from 0); node 1 wrapped, oldest surviving
        // seq 40 => 40 events lost; order in the stream must not matter.
        let at = |node, seq| ev(node, seq, 0, 0, EventKind::PhaseBegin, 0, 0);
        let events = vec![at(1, 41), at(0, 0), at(1, 40), at(0, 1), at(1, 42)];
        assert_eq!(wrapped_nodes(&events).unwrap(), BTreeMap::from([(1, 40)]));
        assert!(wrapped_nodes(&[at(0, 0), at(1, 0)]).unwrap().is_empty());
        assert!(wrapped_nodes(&[at(0, 3), at(0, 3)]).is_err(), "a replayed slot");
    }

    #[test]
    fn metrics_rule_rejects_holes_and_duplicates() {
        let ok = vec![rec(0, 0, 1, 0, 1), rec(1, 0, 1, 0, 1), rec(0, 1, 1, 1, 1)];
        assert_eq!(check_stream(&ok), Ok(()));
        for (bad, what) in [
            (vec![], "no records"),
            (vec![rec(0, 0, 1, 0, 1), rec(0, 2, 1, 1, 1)], "seq gap, 1 missing"),
            (vec![rec(0, 1, 1, 0, 1)], "seq gap, 0 missing"),
            (vec![rec(0, 0, 1, 0, 1), rec(0, 0, 1, 1, 1)], "duplicate seq 0"),
        ] {
            let err = check_stream(&bad).expect_err(what);
            assert!(err.contains(what), "{err}");
        }
    }

    #[test]
    fn fault_pairing_and_latency() {
        let events = vec![
            ev(0, 0, 100, 1, EventKind::FaultBegin, 7, 0),
            ev(0, 1, 400, 1, EventKind::FaultEnd, 7, pack_fault_end(false, 0, 0)),
            ev(0, 2, 500, 1, EventKind::FaultBegin, 8, 1),
            ev(0, 3, 900, 1, EventKind::FaultEnd, 8, pack_fault_end(true, 1, 0)),
        ];
        let phases = fault_latencies(&events);
        assert_eq!(phases.len(), 1);
        let (rd, wr) = &phases[&1];
        assert_eq!((rd.n(), rd.sum_ns), (1, 300));
        assert_eq!((wr.n(), wr.sum_ns), (1, 400));
    }

    #[test]
    fn lead_time_matches_install_runs() {
        let events = vec![
            ev(1, 0, 100, 2, EventKind::PresendInstall, 10, pack_peer_count(0, 3)),
            ev(1, 1, 600, 2, EventKind::PresendFirstTouch, 11, 0),
            ev(2, 0, 100, 2, EventKind::PresendInstall, 10, pack_peer_count(0, 1)),
        ];
        let (lead, untouched, homes) = presend_outcomes(&events);
        assert_eq!((lead.n(), untouched), (1, 3));
        assert_eq!(homes, BTreeMap::from([(0, (4, 3))])); // blocks 10,12 on node 1 + 10 on node 2
        assert_eq!(lead.sum_ns, 500);
    }

    #[test]
    fn emit_remap_picks_the_strictly_dominant_requester() {
        // Block 7 homed at node 0: node 2 writes (2 GetExcl = 4 points),
        // nodes 1 and 3 read once each -> node 2 strictly dominates.
        // Block 9 homed at node 1: nodes 2 and 3 tie -> stays put.
        // Block 11 homed at node 3: only node 3 itself asks -> stays put.
        let events = vec![
            ev(0, 0, 10, 1, EventKind::MsgRecv, pack_msg(2, 2), 7),
            ev(0, 1, 20, 1, EventKind::MsgRecv, pack_msg(1, 1), 7),
            ev(0, 2, 30, 1, EventKind::MsgRecv, pack_msg(1, 3), 7),
            ev(0, 3, 40, 2, EventKind::MsgRecv, pack_msg(2, 2), 7),
            ev(1, 0, 15, 1, EventKind::MsgRecv, pack_msg(1, 2), 9),
            ev(1, 1, 25, 1, EventKind::MsgRecv, pack_msg(1, 3), 9),
            ev(3, 0, 12, 1, EventKind::MsgRecv, pack_msg(2, 3), 11),
            // Non-demand traffic (a Grant) never feeds the tally.
            ev(2, 0, 50, 1, EventKind::MsgRecv, pack_msg(7, 0), 7),
        ];
        let tally = traffic_tally(&events);
        assert_eq!(tally.len(), 3);
        assert_eq!(tally[&7].total(), 6);
        assert_eq!(tally[&7].dominant(), Some(2));
        assert_eq!(tally[&9].dominant(), None, "tied requesters stay put");
        assert_eq!(tally[&11].dominant(), Some(3), "home keeps a self-dominated block");
        let text = emit_remap(&events);
        let lines: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(lines, ["7 2"], "only the dominated, non-home block moves");
        // The output is directly loadable as a HomeMap remap file.
        let map = prescient_tempest::HomeMap::parse(&text, 4).expect("valid remap text");
        assert_eq!(map.len(), 1);
    }

    #[test]
    fn validate_catches_unpaired_end() {
        let bad = vec![ev(0, 0, 5, 0, EventKind::FaultEnd, 7, 0)];
        assert!(validate_trace(&bad).is_err());
        let ok = vec![
            ev(0, 0, 5, 0, EventKind::FaultBegin, 7, 0),
            ev(0, 1, 9, 0, EventKind::FaultEnd, 7, 0),
        ];
        assert!(validate_trace(&ok).is_ok());
        // A wrapped node's stream may open mid-span: the end is clamped.
        let wrapped = vec![ev(0, 9, 5, 0, EventKind::FaultEnd, 7, 0)];
        assert_eq!(validate_trace(&wrapped), Ok(BTreeMap::from([(0, 9)])));
        let duplicated = vec![
            ev(0, 2, 5, 0, EventKind::MsgSend, 1 << 16, 0),
            ev(0, 2, 9, 0, EventKind::MsgSend, 1 << 16, 0),
        ];
        assert!(validate_trace(&duplicated).is_err());
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
        assert_eq!((hits[0].group.phase, hits[0].group.iter, hits[0].metric), (1, 3, "msgs"));
        assert_eq!(hits[0].median, 10);
        let why = causes(&hits[0].group);
        assert!(why[0].contains("degradation flush"), "{why:?}");
        // Steady traffic below the threshold stays quiet.
        assert!(detect_anomalies(&t, 250.0).is_empty());
    }

    #[test]
    fn detector_needs_enough_siblings() {
        let t = RunTimeline::new(1, vec![rec(0, 0, 1, 0, 10), rec(0, 1, 1, 1, 99)]);
        assert!(detect_anomalies(&t, 10.0).is_empty(), "two iterations have no median");
    }
}
