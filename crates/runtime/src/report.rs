//! Run reports: the paper's execution-time breakdown per node and machine.

use std::collections::HashMap;
use std::io::{self, BufRead};
use std::time::Duration;

use prescient_tempest::json::{Layout, Sink, Writer};
use prescient_tempest::stats::StatsSnapshot;
use prescient_tempest::{NodeId, PhaseRecord, TimeBreakdown, WireSnapshot};

/// One node's contribution to a run.
#[derive(Debug, Clone, Copy)]
pub struct NodeReport {
    /// Node id.
    pub node: NodeId,
    /// Virtual-time breakdown (compute / wait / pre-send / synch).
    pub breakdown: TimeBreakdown,
    /// Protocol event counters for this run.
    pub stats: StatsSnapshot,
    /// Blocks pre-sent to this node but never accessed (redundant
    /// pre-sends, cumulative at run end).
    pub unused_presends: u64,
}

/// A whole-machine run report.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-node reports, indexed by node id.
    pub per_node: Vec<NodeReport>,
    /// Host wall-clock time of the run (diagnostic only; the figures use
    /// virtual time).
    pub wall: Duration,
    /// Wire-level transport counters for this run: batches on the fabric's
    /// channels and their mean occupancy (envelopes per batch). Like
    /// `wall`, timing-dependent — reported, never equality-gated.
    pub wire: WireSnapshot,
}

impl RunReport {
    /// The machine's execution time: the maximum node virtual time (all
    /// programs end with a barrier, so nodes agree up to the final stall).
    pub fn exec_time_ns(&self) -> u64 {
        self.per_node.iter().map(|n| n.breakdown.total_ns()).max().unwrap_or(0)
    }

    /// Machine-wide breakdown: per-segment *average* over nodes, so the
    /// segments sum to (roughly) the execution time, as in the paper's
    /// stacked bars.
    pub fn mean_breakdown(&self) -> TimeBreakdown {
        let n = self.per_node.len().max(1) as u64;
        let sum =
            self.per_node.iter().fold(TimeBreakdown::default(), |acc, r| acc.merge(&r.breakdown));
        TimeBreakdown {
            compute_ns: sum.compute_ns / n,
            wait_ns: sum.wait_ns / n,
            presend_ns: sum.presend_ns / n,
            synch_ns: sum.synch_ns / n,
        }
    }

    /// Machine-wide event totals.
    pub fn total_stats(&self) -> StatsSnapshot {
        self.per_node.iter().fold(StatsSnapshot::default(), |acc, r| acc.merge(&r.stats))
    }

    /// Total bytes moved over the fabric: demand-fetched data plus
    /// pre-sent data (the paper's "amount of data moved" metric).
    pub fn bytes_moved(&self) -> u64 {
        let t = self.total_stats();
        t.data_bytes_in + t.presend_bytes_out
    }

    /// Total blocks moved: demand misses plus pre-sent blocks.
    pub fn blocks_moved(&self) -> u64 {
        let t = self.total_stats();
        t.misses() + t.presend_blocks_out
    }

    /// Fraction of shared accesses satisfied locally.
    pub fn local_fraction(&self) -> f64 {
        self.total_stats().local_fraction()
    }

    /// Write the run's gated counters as members of the object `w` has
    /// open. This is the single source of truth for the perf gate's schema
    /// (DESIGN.md §8): `perf_gate` writes its per-app objects through it,
    /// so the keys CI diffs (`wall_ms`, `vtime_ns`,
    /// `msgs`, `bytes_moved`, `blocks_moved`, `misses`, `presend_blocks`,
    /// `presend_useless`, `wire_batches`, `wire_occupancy`, `wire_hist`,
    /// `checkpoints`, `checkpoint_bytes`, `recoveries`, `replays`,
    /// `remapped_blocks`, `local_pct`) are
    /// defined here exactly once. `wall_ms`, the `wire_*` keys and
    /// `wire_hist` are timing-dependent — reported, never equality-gated;
    /// the checkpoint/recovery counters (DESIGN.md §12) are
    /// fault-tolerance observability, likewise never equality-gated; the
    /// placement counter (DESIGN.md §14) is zero with placement off and
    /// counts the remap overlay when it is on, also never equality-gated.
    pub fn write_gate_counters<W: Sink>(&self, w: &mut Writer<W>) {
        let t = self.total_stats();
        w.key("wall_ms").uint(self.wall.as_millis() as u64);
        w.key("vtime_ns").uint(self.exec_time_ns()).key("msgs").uint(t.msgs_out);
        w.key("bytes_moved").uint(self.bytes_moved());
        w.key("blocks_moved").uint(self.blocks_moved()).key("misses").uint(t.misses());
        w.key("presend_blocks").uint(t.presend_blocks_out);
        w.key("presend_useless").uint(t.presend_useless);
        w.key("wire_batches").uint(self.wire.batches);
        w.key("wire_occupancy").fixed(self.wire.mean_occupancy(), 2);
        w.key("wire_hist").object(Layout::Spaced);
        for (i, n) in self.wire.hist.iter().enumerate() {
            w.key(WireSnapshot::bucket_label(i)).uint(*n);
        }
        w.end().key("checkpoints").uint(t.checkpoints);
        w.key("checkpoint_bytes").uint(t.checkpoint_bytes).key("recoveries").uint(t.recoveries);
        w.key("replays").uint(t.replays).key("remapped_blocks").uint(t.remapped_blocks);
        w.key("local_pct").fixed(self.local_fraction() * 100.0, 2);
    }

    /// [`RunReport::write_gate_counters`] as body lines for a document
    /// laid out by hand: one key per line, each prefixed with `indent`;
    /// the last line has no trailing comma and no newline.
    pub fn gate_counters_json(&self, indent: &str) -> String {
        let mut w = Writer::members(String::new(), indent);
        self.write_gate_counters(&mut w);
        w.finish()
    }

    /// The whole report as a JSON object: the gated counters, the
    /// machine-wide mean breakdown, every total counter, and the
    /// per-node breakdowns and counters.
    pub fn to_json(&self) -> String {
        let mut w = Writer::new(String::new(), 2);
        w.object(Layout::Lines);
        self.write_gate_counters(&mut w);
        inline_object(w.key("mean_breakdown"), self.mean_breakdown().fields());
        inline_object(w.key("totals"), self.total_stats().fields());
        w.key("per_node").array(Layout::Lines);
        for r in &self.per_node {
            w.object(Layout::Lines).key("node").uint(r.node.into());
            inline_object(w.key("breakdown"), r.breakdown.fields());
            w.key("unused_presends").uint(r.unused_presends);
            inline_object(w.key("stats"), r.stats.fields());
            w.end();
        }
        w.end().end().newline();
        w.finish()
    }

    /// Render the paper-style stacked bar as a one-line summary:
    /// `total | wait / presend / compute+synch` in milliseconds of virtual
    /// time.
    pub fn bar_line(&self) -> String {
        let b = self.mean_breakdown();
        format!(
            "total {:>10.3} ms | remote-wait {:>10.3} | presend {:>9.3} | compute+synch {:>10.3}",
            self.exec_time_ns() as f64 / 1e6,
            b.wait_ns as f64 / 1e6,
            b.presend_ns as f64 / 1e6,
            b.compute_synch_ns() as f64 / 1e6,
        )
    }
}

/// `{"name": value, ...}` on one line: how breakdowns and counter sets sit
/// inside the laid-out documents.
fn inline_object<W: Sink>(
    w: &mut Writer<W>,
    fields: impl IntoIterator<Item = (&'static str, u64)>,
) {
    w.object(Layout::Spaced);
    for (name, v) in fields {
        w.key(name).uint(v);
    }
    w.end();
}

/// Aggregate of one `(run, phase, iter)` group across the nodes that
/// reported it: what the machine as a whole did in that phase instance.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseGroup {
    /// 1-based `Machine::run` ordinal.
    pub run: u64,
    /// Phase id (0 = the gaps between phases).
    pub phase: u32,
    /// Iteration ordinal of this phase id within the run.
    pub iter: u64,
    /// Number of per-node records in the group.
    pub records: usize,
    /// Maximum per-node vtime delta (the phase instance's execution-time
    /// contribution, by the same max-over-nodes rule as
    /// [`RunReport::exec_time_ns`]).
    pub vtime_ns: u64,
    /// Sum of per-node vtime deltas, segment-wise.
    pub vtime: TimeBreakdown,
    /// Sum of per-node counter deltas.
    pub stats: StatsSnapshot,
    /// Sum of per-node fetch-latency histograms.
    pub fetch: prescient_tempest::LatencyHist,
    /// Wire delta (recorded by node 0 on the machine's behalf).
    pub wire: Option<WireSnapshot>,
}

impl PhaseGroup {
    /// Fold one more per-node record into the group: the one aggregation
    /// both [`RunTimeline::phases`] and a streamed machine's publisher
    /// run.
    pub fn add(&mut self, r: &PhaseRecord) {
        self.records += 1;
        self.vtime_ns = self.vtime_ns.max(r.vtime.total_ns());
        self.vtime = self.vtime.merge(&r.vtime);
        self.stats = self.stats.merge(&r.stats);
        self.fetch = self.fetch.merge(&r.fetch);
        if let Some(w) = &r.wire {
            self.wire = Some(self.wire.map_or(*w, |acc| acc.merge(w)));
        }
    }

    /// Bytes moved in this phase instance (the gate metric's per-phase
    /// restriction).
    pub fn bytes_moved(&self) -> u64 {
        self.stats.data_bytes_in + self.stats.presend_bytes_out
    }

    /// Blocks moved in this phase instance.
    pub fn blocks_moved(&self) -> u64 {
        self.stats.misses() + self.stats.presend_blocks_out
    }
}

/// A machine's metrics timeline: every [`PhaseRecord`] its runs cut.
#[derive(Debug, Clone)]
pub struct RunTimeline {
    /// Nodes in the machine.
    pub nodes: usize,
    /// Every record, in hub push order.
    pub records: Vec<PhaseRecord>,
}

impl RunTimeline {
    /// The timeline of a machine of `nodes` nodes.
    pub fn new(nodes: usize, records: Vec<PhaseRecord>) -> RunTimeline {
        RunTimeline { nodes, records }
    }

    /// The distinct run ordinals present, ascending.
    pub fn runs(&self) -> Vec<u64> {
        let mut rs: Vec<u64> = self.records.iter().map(|r| r.run).collect();
        rs.sort_unstable();
        rs.dedup();
        rs
    }

    /// Group the records by `(run, phase, iter)` and aggregate each group
    /// across nodes, ordered by run, then first appearance (which follows
    /// the program's phase order — every node pushes its cut for a phase
    /// before any node can cut the next one, barriers being barriers).
    pub fn phases(&self) -> Vec<PhaseGroup> {
        let mut fold = PhaseFold::default();
        self.records.iter().for_each(|r| fold.add(r));
        fold.finish()
    }

    /// Verify the telescoping-sum invariant against a run's report: for
    /// every node of the machine, the sum of the node's record
    /// deltas for `run` must equal the report's per-node stats and vtime
    /// breakdown *exactly* (phase attribution may race the protocol
    /// thread; the sums cannot). Returns the first discrepancy.
    pub fn reconciles_with(&self, report: &RunReport, run: u64) -> Result<(), String> {
        for node in 0..self.nodes as NodeId {
            let (mut stats, mut vtime) = (StatsSnapshot::default(), TimeBreakdown::default());
            let mut cuts = 0;
            for r in self.records.iter().filter(|r| r.run == run && r.node == node) {
                stats = stats.merge(&r.stats);
                vtime = vtime.merge(&r.vtime);
                cuts += 1;
            }
            if cuts == 0 {
                return Err(format!("node {node}: no records for run {run}"));
            }
            let rep = report
                .per_node
                .iter()
                .find(|n| n.node == node)
                .ok_or_else(|| format!("node {node}: missing from the run report"))?;
            for ((name, a), (_, b)) in stats.fields().iter().zip(rep.stats.fields()) {
                if *a != b {
                    return Err(format!(
                        "node {node} run {run}: {name} sums to {a} over {cuts} records, \
                         report says {b}"
                    ));
                }
            }
            if vtime != rep.breakdown {
                return Err(format!(
                    "node {node} run {run}: vtime sums to {vtime:?}, report says {:?}",
                    rep.breakdown
                ));
            }
        }
        Ok(())
    }

    /// Write the timeline as JSON: the machine size, every
    /// record verbatim in the stream's line format (so the stream and the
    /// timeline are textually comparable record-for-record), the
    /// `(run, phase, iter)` aggregates under the gate metrics' names, and
    /// the counter totals in the run report's schema.
    pub fn write_json<W: Sink>(&self, out: W) -> W {
        let mut w = open_timeline(out, self.nodes);
        for r in &self.records {
            r.write_json(&mut w);
        }
        close_timeline(w, &self.phases())
    }

    /// [`RunTimeline::write_json`] into a fresh string.
    pub fn to_json(&self) -> String {
        self.write_json(String::new())
    }

    /// What [`RunTimeline::write_json`] writes for the records on the
    /// lines of `stream`, without holding them: each line is copied
    /// through as it is, and `groups` are the records' phase groups,
    /// folded while the stream was written. A stream with another number
    /// of lines than the groups hold records (rewritten under the
    /// machine) is an error.
    pub(crate) fn splice<W: Sink>(
        nodes: usize,
        mut stream: impl BufRead,
        groups: &[PhaseGroup],
        out: W,
    ) -> io::Result<W> {
        let mut w = open_timeline(out, nodes);
        let (mut line, mut lines) = (String::new(), 0);
        while stream.read_line(&mut line)? > 0 {
            w.raw(line.strip_suffix('\n').unwrap_or(&line));
            line.clear();
            lines += 1;
        }
        let cut: usize = groups.iter().map(|g| g.records).sum();
        if lines != cut {
            let why = format!("the stream holds {lines} lines for {cut} records");
            return Err(io::Error::new(io::ErrorKind::InvalidData, why));
        }
        Ok(close_timeline(w, groups))
    }
}

/// The timeline document up to its open `records` array.
fn open_timeline<W: Sink>(out: W, nodes: usize) -> Writer<W> {
    let mut w = Writer::new(out, 0);
    w.object(Layout::Lines).key("nodes").uint(nodes as u64);
    w.key("records").array(Layout::Lines);
    w
}

/// The rest of the timeline document once its records are written: the
/// phase groups, then the counter totals, summed from the groups (every
/// record is in exactly one).
fn close_timeline<W: Sink>(mut w: Writer<W>, groups: &[PhaseGroup]) -> W {
    w.end().key("phases").array(Layout::Lines);
    for g in groups {
        let wire = g.wire.unwrap_or_default();
        w.object(Layout::Spaced).key("run").uint(g.run).key("phase").uint(g.phase.into());
        w.key("iter").uint(g.iter).key("cuts").uint(g.records as u64);
        w.key("vtime_ns").uint(g.vtime_ns).key("msgs").uint(g.stats.msgs_out);
        w.key("bytes_moved").uint(g.bytes_moved()).key("blocks_moved").uint(g.blocks_moved());
        w.key("misses").uint(g.stats.misses());
        w.key("presend_blocks").uint(g.stats.presend_blocks_out);
        w.key("presend_useless").uint(g.stats.presend_useless);
        w.key("fetch_mean_ns").fixed(g.fetch.mean_ns(), 0);
        w.key("wire_batches").uint(wire.batches);
        w.key("wire_occupancy").fixed(wire.mean_occupancy(), 2).end();
    }
    w.end();
    let totals = groups.iter().fold(StatsSnapshot::default(), |acc, g| acc.merge(&g.stats));
    inline_object(w.key("totals"), totals.fields());
    w.end().newline();
    w.finish()
}

/// Phase groups folded one record at a time, in the order
/// [`RunTimeline::phases`] returns them.
#[derive(Default)]
pub(crate) struct PhaseFold {
    at: HashMap<(u64, u32, u64), usize>,
    groups: Vec<PhaseGroup>,
}

impl PhaseFold {
    /// Fold `r` into its `(run, phase, iter)` group, opened at the
    /// group's first record.
    pub(crate) fn add(&mut self, r: &PhaseRecord) {
        let i = *self.at.entry((r.run, r.phase, r.iter)).or_insert_with(|| {
            self.groups.push(PhaseGroup {
                run: r.run,
                phase: r.phase,
                iter: r.iter,
                ..PhaseGroup::default()
            });
            self.groups.len() - 1
        });
        self.groups[i].add(r);
    }

    /// The groups by run, then by first appearance within the run.
    pub(crate) fn finish(mut self) -> Vec<PhaseGroup> {
        self.groups.sort_by_key(|g| g.run); // stable
        self.groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(breakdowns: Vec<TimeBreakdown>) -> RunReport {
        RunReport {
            per_node: breakdowns
                .into_iter()
                .enumerate()
                .map(|(i, b)| NodeReport {
                    node: i as NodeId,
                    breakdown: b,
                    stats: StatsSnapshot::default(),
                    unused_presends: 0,
                })
                .collect(),
            wall: Duration::from_millis(1),
            wire: WireSnapshot::default(),
        }
    }

    #[test]
    fn exec_time_is_max() {
        let r = report(vec![
            TimeBreakdown { compute_ns: 10, wait_ns: 0, presend_ns: 0, synch_ns: 0 },
            TimeBreakdown { compute_ns: 30, wait_ns: 5, presend_ns: 0, synch_ns: 0 },
        ]);
        assert_eq!(r.exec_time_ns(), 35);
    }

    #[test]
    fn mean_breakdown_averages() {
        let r = report(vec![
            TimeBreakdown { compute_ns: 10, wait_ns: 20, presend_ns: 2, synch_ns: 0 },
            TimeBreakdown { compute_ns: 30, wait_ns: 0, presend_ns: 4, synch_ns: 8 },
        ]);
        let b = r.mean_breakdown();
        assert_eq!(b.compute_ns, 20);
        assert_eq!(b.wait_ns, 10);
        assert_eq!(b.presend_ns, 3);
        assert_eq!(b.synch_ns, 4);
    }

    #[test]
    fn gate_counters_shape() {
        let r = report(vec![TimeBreakdown {
            compute_ns: 1_000_000,
            wait_ns: 0,
            presend_ns: 0,
            synch_ns: 0,
        }]);
        let j = r.gate_counters_json("      ");
        assert!(j.starts_with("      \"wall_ms\": "));
        assert!(j.contains("\"vtime_ns\": 1000000,"));
        assert!(j.contains("\"wire_hist\": {\"1\": 0, \"2\": 0,"));
        assert!(j.contains("\"checkpoints\": 0,"));
        assert!(j.contains("\"checkpoint_bytes\": 0,"));
        assert!(j.contains("\"recoveries\": 0,"));
        assert!(j.contains("\"replays\": 0,"));
        assert!(j.contains("\"remapped_blocks\": 0,"));
        // Last line: no trailing comma, no trailing newline.
        assert!(j.ends_with("\"local_pct\": 100.00"));
    }

    #[test]
    fn to_json_is_balanced() {
        let r = report(vec![
            TimeBreakdown { compute_ns: 10, wait_ns: 20, presend_ns: 2, synch_ns: 0 },
            TimeBreakdown { compute_ns: 30, wait_ns: 0, presend_ns: 4, synch_ns: 8 },
        ]);
        let j = r.to_json();
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.contains("\"per_node\": ["));
        assert!(j.contains("\"sched_records\": 0"));
        assert!(!j.contains(",\n  ]"), "no trailing comma before array close");
    }

    #[test]
    fn bar_line_formats() {
        let r = report(vec![TimeBreakdown {
            compute_ns: 1_000_000,
            wait_ns: 2_000_000,
            presend_ns: 0,
            synch_ns: 0,
        }]);
        let line = r.bar_line();
        assert!(line.contains("remote-wait"));
        assert!(line.contains("3.000 ms"));
    }

    fn rec(node: NodeId, seq: u64, phase: u32, iter: u64, msgs: u64, wait: u64) -> PhaseRecord {
        PhaseRecord {
            node,
            seq,
            run: 1,
            phase,
            iter,
            version: seq,
            vtime: TimeBreakdown { compute_ns: 0, wait_ns: wait, presend_ns: 0, synch_ns: 0 },
            stats: StatsSnapshot { msgs_out: msgs, ..StatsSnapshot::default() },
            fetch: prescient_tempest::LatencyHist::default(),
            wire: None,
        }
    }

    #[test]
    fn timeline_phases_group_in_program_order() {
        // Two nodes, two iterations of phase 7, with gap cuts interleaved.
        let records = vec![
            rec(0, 0, 0, 0, 1, 10),
            rec(1, 0, 0, 0, 1, 12),
            rec(0, 1, 7, 0, 3, 20),
            rec(1, 1, 7, 0, 4, 25),
            rec(0, 2, 7, 1, 5, 30),
            rec(1, 2, 7, 1, 6, 15),
        ];
        let t = RunTimeline::new(2, records);
        let phases = t.phases();
        assert_eq!(phases.len(), 3);
        assert_eq!((phases[0].phase, phases[0].iter), (0, 0));
        assert_eq!((phases[1].phase, phases[1].iter), (7, 0));
        assert_eq!((phases[2].phase, phases[2].iter), (7, 1));
        assert_eq!(phases[1].records, 2);
        assert_eq!(phases[1].stats.msgs_out, 7);
        // vtime_ns is the max-over-nodes delta, vtime the sum.
        assert_eq!(phases[2].vtime_ns, 30);
        assert_eq!(phases[2].vtime.wait_ns, 45);
        assert_eq!(phases.iter().map(|g| g.stats.msgs_out).sum::<u64>(), 20);
        assert_eq!(t.runs(), vec![1]);
    }

    #[test]
    fn timeline_reconciles_exactly_and_flags_drift() {
        let records = vec![rec(0, 0, 0, 0, 2, 5), rec(0, 1, 7, 0, 3, 10)];
        let t = RunTimeline::new(1, records);
        let mut rep =
            report(vec![TimeBreakdown { compute_ns: 0, wait_ns: 15, presend_ns: 0, synch_ns: 0 }]);
        rep.per_node[0].stats.msgs_out = 5;
        assert!(t.reconciles_with(&rep, 1).is_ok());
        // Any counter off by one is a loud, named failure.
        rep.per_node[0].stats.msgs_out = 6;
        let err = t.reconciles_with(&rep, 1).unwrap_err();
        assert!(err.contains("msgs_out"), "got: {err}");
        // A run with no records is also a failure, not a vacuous pass.
        assert!(t.reconciles_with(&rep, 9).is_err());
    }

    #[test]
    fn splice_writes_the_built_timeline_from_its_stream_and_nothing_else() {
        let records = vec![rec(0, 0, 0, 0, 1, 10), rec(1, 0, 7, 0, 3, 20), rec(0, 1, 7, 0, 4, 25)];
        let t = RunTimeline::new(2, records.clone());
        let stream: String = records.iter().map(|r| r.to_json_line() + "\n").collect();
        let groups = t.phases();
        // Through a 64-byte reader, so every record straddles its buffer.
        let splice = |stream: &[u8], groups: &[PhaseGroup]| {
            let lines = io::BufReader::with_capacity(64, stream);
            RunTimeline::splice(2, lines, groups, String::new())
                .map_err(|e| (e.kind(), e.to_string()))
        };
        let invalid = |why: &str| Err((io::ErrorKind::InvalidData, why.to_string()));
        assert_eq!(splice(stream.as_bytes(), &groups), Ok(t.to_json()));
        let last_unbroken = stream.strip_suffix('\n').expect("lines");
        assert_eq!(splice(last_unbroken.as_bytes(), &groups), Ok(t.to_json()));
        let empty = RunTimeline::new(2, Vec::new());
        assert_eq!(splice(b"", &[]), Ok(empty.to_json()));
        assert_eq!(splice(b"", &groups), invalid("the stream holds 0 lines for 3 records"));
        let short = &stream[..stream.find('\n').expect("lines") + 1];
        let more = stream.clone() + "{}\n";
        for (lines, n) in [(short, 1), (&more, 4)] {
            let why = format!("the stream holds {n} lines for 3 records");
            assert_eq!(splice(lines.as_bytes(), &groups), invalid(&why));
        }
        let mut bytes = stream.clone().into_bytes();
        bytes[100] = 0xff;
        assert_eq!(splice(&bytes, &groups), invalid("stream did not contain valid UTF-8"));
    }

    #[test]
    fn timeline_json_embeds_stream_lines_verbatim() {
        let r0 = rec(0, 0, 7, 0, 3, 20);
        let line = r0.to_json_line();
        let t = RunTimeline::new(1, vec![r0]);
        let j = t.to_json();
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.contains(&line), "record line must appear verbatim in the timeline");
        assert!(j.contains("\"nodes\": 1,"));
        assert!(j.contains("\"phases\": ["));
        assert!(j.contains("\"totals\": {"));
        assert!(j.contains("\"msgs_out\": 3"));
    }
}
