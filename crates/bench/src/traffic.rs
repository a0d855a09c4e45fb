//! Per-block demand-traffic aggregation over recorded traces, shared by
//! `prescient-trace` (the `report` traffic matrix and the `emit-remap`
//! subcommand) and `ablation placement` (which runs the full
//! record → emit-remap → rerun pipeline in-process).
//!
//! This is where the dominance policy lives: every `GetShared` a home
//! handles scores 1 for the requester, every `GetExcl` scores 2 — writers
//! drag invalidation rounds behind them, so co-locating the home with
//! the writer saves more than co-locating with a reader. A block whose
//! top scorer strictly beats every other requester re-homes there; ties
//! and blocks their own home dominates stay put (DESIGN.md §14).

use std::collections::{BTreeMap, HashMap};

use prescient_tempest::json;
use prescient_tempest::trace::{unpack_msg, EventKind, TraceEvent};
use prescient_tempest::NodeId;

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
        if self.score.iter().any(|(&n, &v)| n != best && v >= s) {
            None
        } else {
            Some(best)
        }
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
        if let Some(d) = t.dominant() {
            if d != t.home {
                out.push_str(&format!("{block} {d}\n"));
            }
        }
    }
    out
}

// ---- JSONL parsing --------------------------------------------------------

/// Parse one line of a trace JSONL export.
pub fn parse_trace_line(line: &str) -> Result<TraceEvent, String> {
    TraceEvent::from_json(&json::parse(line)?)
}

/// Load a trace JSONL export from disk.
pub fn load_trace(path: &str) -> Result<Vec<TraceEvent>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(parse_trace_line(line).map_err(|e| format!("{path}:{}: {e}", i + 1))?);
    }
    Ok(out)
}

/// Detect wrapped trace rings: a node whose stream's lowest sequence
/// number is above zero lost its oldest events to ring-buffer wrap (the
/// tracer is a flight recorder; see `prescient_tempest::trace`). Returns
/// `(node, events_lost)` per wrapped node — sequence numbers are dense,
/// so the first surviving seq *is* the drop count.
pub fn wrapped_nodes(events: &[TraceEvent]) -> Vec<(NodeId, u64)> {
    let mut first: BTreeMap<NodeId, u64> = BTreeMap::new();
    for e in events {
        let f = first.entry(e.node).or_insert(e.seq);
        *f = (*f).min(e.seq);
    }
    first.into_iter().filter(|&(_, seq)| seq > 0).collect()
}

/// Print the loud per-node wrapped-ring warning analyses share: every
/// aggregate computed from a wrapped stream undercounts, and `what` says
/// which decision is at risk (a traffic report, a remap emission).
pub fn warn_wrapped(events: &[TraceEvent], what: &str) {
    for (node, lost) in wrapped_nodes(events) {
        eprintln!(
            "WARNING: node {node}: trace ring wrapped, ~{lost} oldest events lost — \
             {what} undercounts this node's early traffic (rerun with a larger \
             PRESCIENT_TRACE capacity for full coverage)"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(node: NodeId, seq: u64) -> TraceEvent {
        TraceEvent { node, seq, t_ns: 0, phase: 0, kind: EventKind::PhaseBegin, a: 0, b: 0 }
    }

    #[test]
    fn wrap_detection_counts_lost_events() {
        // Node 0 intact (seq from 0); node 1 wrapped, oldest surviving
        // seq 40 => 40 events lost; order in the stream must not matter.
        let events = vec![ev(1, 41), ev(0, 0), ev(1, 40), ev(0, 1), ev(1, 42)];
        assert_eq!(wrapped_nodes(&events), vec![(1, 40)]);
        assert_eq!(wrapped_nodes(&[ev(0, 0), ev(1, 0)]), vec![]);
    }
}
