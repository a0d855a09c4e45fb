//! `prescient-trace`: offline analyzer for protocol event traces.
//!
//! Input is the JSONL dump a traced machine writes at teardown (one flat
//! JSON object per event — see `prescient_tempest::trace::to_jsonl`).
//!
//! ```text
//! prescient-trace report     trace.jsonl        # full analysis
//! prescient-trace validate   trace.jsonl [trace.json]
//! prescient-trace diff       a.jsonl b.jsonl    # compare two runs
//! prescient-trace emit-remap trace.jsonl [out.remap]
//! ```
//!
//! `report` prints per-phase demand-fault latency histograms, the
//! schedule build→replay timeline, pre-send lead times (install to first
//! access), the useless-push breakdown, the per-block traffic matrix
//! (who asks which home for what), and the wire-batch occupancy
//! histogram. `validate` checks structural invariants of an export (CI's
//! trace-smoke job runs it); with a second path it also sanity-checks the
//! Chrome JSON companion. `diff` compares per-kind event counts and the
//! headline latency/lead-time numbers of two runs. `emit-remap` distills
//! the traffic matrix of a recorded run into a block→home remap file
//! (DESIGN.md §14) that `PRESCIENT_PLACEMENT=remap:<path>` applies on the
//! next run: each block whose weighted traffic has a strictly dominant
//! requester is re-homed there; ties and home-dominated blocks stay put.

use std::collections::HashMap;
use std::process::ExitCode;

use prescient_bench::traffic::{emit_remap, load_trace as load, traffic_tally, warn_wrapped};
use prescient_tempest::json::Reader;
use prescient_tempest::trace::{
    unpack_counts, unpack_fault_end, unpack_msg, unpack_peer_count, EventKind, TraceEvent,
};
use prescient_tempest::{NodeId, WireSnapshot};

// ---- histograms -----------------------------------------------------------

/// A log2 histogram over ns quantities (latencies, lead times).
struct Log2Hist {
    counts: [u64; 64],
    n: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Log2Hist {
    fn default() -> Log2Hist {
        Log2Hist { counts: [0; 64], n: 0, sum: 0, min: 0, max: 0 }
    }
}

impl Log2Hist {
    fn add(&mut self, v: u64) {
        let b = 63 - v.max(1).leading_zeros() as usize;
        self.counts[b] += 1;
        self.n += 1;
        self.sum += v;
        self.min = if self.n == 1 { v } else { self.min.min(v) };
        self.max = self.max.max(v);
    }

    fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    fn print(&self, indent: &str) {
        if self.n == 0 {
            println!("{indent}(empty)");
            return;
        }
        println!(
            "{indent}n={}  min={}  mean={:.0}  max={}  (ns)",
            self.n,
            self.min,
            self.mean(),
            self.max
        );
        let peak = self.counts.iter().copied().max().unwrap_or(1).max(1);
        for (b, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let bar = "#".repeat(((c * 40).div_ceil(peak)) as usize);
            println!("{indent}[{:>10} ns, {:>10} ns)  {c:>8}  {bar}", 1u64 << b, 2u64 << b);
        }
    }
}

// ---- analyses -------------------------------------------------------------

/// Pair FaultBegin/FaultEnd per node (a node's program is serial, so
/// faults never nest) and bucket latencies per phase, split read/write.
fn fault_latencies(events: &[TraceEvent]) -> Vec<(u32, Log2Hist, Log2Hist)> {
    fn slot(
        phases: &mut Vec<(u32, Log2Hist, Log2Hist)>,
        phase: u32,
    ) -> &mut (u32, Log2Hist, Log2Hist) {
        if let Some(i) = phases.iter().position(|p| p.0 == phase) {
            return &mut phases[i];
        }
        phases.push((phase, Log2Hist::default(), Log2Hist::default()));
        phases.last_mut().expect("just pushed")
    }
    let mut open: HashMap<NodeId, &TraceEvent> = HashMap::new();
    let mut phases: Vec<(u32, Log2Hist, Log2Hist)> = Vec::new();
    for e in events {
        match e.kind {
            EventKind::FaultBegin => {
                open.insert(e.node, e);
            }
            EventKind::FaultEnd => {
                if let Some(b) = open.remove(&e.node) {
                    let lat = e.t_ns.saturating_sub(b.t_ns);
                    let (excl, _, _) = unpack_fault_end(e.b);
                    let p = slot(&mut phases, b.phase);
                    if excl {
                        p.2.add(lat)
                    } else {
                        p.1.add(lat)
                    }
                }
            }
            _ => {}
        }
    }
    phases.sort_by_key(|p| p.0);
    phases
}

fn report_faults(events: &[TraceEvent]) {
    println!("== demand-fault latency, per phase ==");
    let phases = fault_latencies(events);
    if phases.is_empty() {
        println!("  (no faults)");
    }
    for (phase, rd, wr) in &phases {
        println!("phase {phase}:");
        println!("  read faults:");
        rd.print("    ");
        println!("  write faults:");
        wr.print("    ");
    }
}

/// Per-phase schedule lifecycle: when records accumulate, how replay
/// coalesces them, and how often the degradation policy intervened.
fn report_schedule(events: &[TraceEvent]) {
    println!("\n== schedule build -> replay timeline, per phase ==");
    #[derive(Default)]
    struct Ph {
        records: u64,
        first_rec: u64,
        last_rec: u64,
        replays: u64,
        runs: u64,
        pushes: u64,
        groups: u64,
        flushes: u64,
        degrades: u64,
        rearms: u64,
    }
    let mut phases: HashMap<u32, Ph> = HashMap::new();
    for e in events {
        // Most schedule events carry the phase they concern in `a`;
        // SchedRecord's `a` is the block, so it uses the ambient phase.
        let key = match e.kind {
            EventKind::SchedRecord => e.phase,
            EventKind::SchedReplay
            | EventKind::SchedCoalesce
            | EventKind::SchedFlush
            | EventKind::Degrade
            | EventKind::Rearm => e.a as u32,
            _ => continue,
        };
        let p = phases.entry(key).or_default();
        match e.kind {
            EventKind::SchedRecord => {
                p.records += 1;
                if p.records == 1 {
                    p.first_rec = e.t_ns;
                }
                p.last_rec = e.t_ns;
            }
            EventKind::SchedReplay => {
                p.replays += 1;
                p.runs += e.b;
            }
            EventKind::SchedCoalesce => {
                let (pushes, groups) = unpack_counts(e.b);
                p.pushes += pushes;
                p.groups += groups;
            }
            EventKind::SchedFlush => p.flushes += 1,
            EventKind::Degrade => p.degrades += 1,
            EventKind::Rearm => p.rearms += 1,
            _ => {}
        }
    }
    let mut ids: Vec<u32> = phases
        .iter()
        .filter(|(_, p)| p.records + p.replays + p.pushes + p.flushes + p.degrades + p.rearms > 0)
        .map(|(id, _)| *id)
        .collect();
    ids.sort_unstable();
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7}",
        "phase",
        "records",
        "first@ns",
        "last@ns",
        "replays",
        "runs",
        "pushes",
        "groups",
        "flushes",
        "deg/arm"
    );
    for id in ids {
        let p = &phases[&id];
        println!(
            "{:>6} {:>8} {:>12} {:>12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>3}/{:<3}",
            id,
            p.records,
            p.first_rec,
            p.last_rec,
            p.replays,
            p.runs,
            p.pushes,
            p.groups,
            p.flushes,
            p.degrades,
            p.rearms
        );
    }
}

/// Lead time = first-touch vtime − install vtime, per (node, block).
fn lead_times(events: &[TraceEvent]) -> (Log2Hist, u64, u64) {
    let mut installed: HashMap<(NodeId, u64), u64> = HashMap::new();
    let mut lead = Log2Hist::default();
    let mut untouched = 0u64;
    for e in events {
        match e.kind {
            EventKind::PresendInstall => {
                let (_, count) = unpack_peer_count(e.b);
                for blk in e.a..e.a + count {
                    installed.insert((e.node, blk), e.t_ns);
                }
            }
            EventKind::PresendFirstTouch => {
                if let Some(t0) = installed.remove(&(e.node, e.a)) {
                    lead.add(e.t_ns.saturating_sub(t0));
                }
            }
            _ => {}
        }
    }
    untouched += installed.len() as u64;
    let touched = lead.n;
    (lead, touched, untouched)
}

fn report_leads(events: &[TraceEvent]) {
    println!("\n== pre-send lead time (install -> first access) ==");
    let (lead, touched, untouched) = lead_times(events);
    lead.print("  ");
    println!("  blocks touched: {touched}   installed but never touched: {untouched}");
}

/// Useless-push breakdown: per pushing home, how many installed block
/// copies were never first-touched at their target.
fn report_useless(events: &[TraceEvent]) {
    println!("\n== useless-push breakdown, per pushing home ==");
    let mut installed: HashMap<(NodeId, u64), NodeId> = HashMap::new();
    let mut pushed: HashMap<NodeId, u64> = HashMap::new();
    for e in events {
        match e.kind {
            EventKind::PresendInstall => {
                let (home, count) = unpack_peer_count(e.b);
                *pushed.entry(home).or_default() += count;
                for blk in e.a..e.a + count {
                    installed.insert((e.node, blk), home);
                }
            }
            EventKind::PresendFirstTouch => {
                installed.remove(&(e.node, e.a));
            }
            _ => {}
        }
    }
    let mut useless: HashMap<NodeId, u64> = HashMap::new();
    for home in installed.values() {
        *useless.entry(*home).or_default() += 1;
    }
    let mut homes: Vec<NodeId> = pushed.keys().copied().collect();
    homes.sort_unstable();
    println!("{:>6} {:>10} {:>10} {:>8}", "home", "installed", "useless", "pct");
    for h in homes {
        let p = pushed[&h];
        let u = useless.get(&h).copied().unwrap_or(0);
        println!(
            "{h:>6} {p:>10} {u:>10} {:>7.1}%",
            if p == 0 { 0.0 } else { u as f64 * 100.0 / p as f64 }
        );
    }
}

// ---- per-block traffic / remap --------------------------------------------

fn report_traffic(events: &[TraceEvent], top: usize) {
    println!("\n== per-block traffic matrix (2*excl + 1*shared, top {top} by score) ==");
    let tally = traffic_tally(events);
    if tally.is_empty() {
        println!("  (no demand requests)");
        return;
    }
    let mut blocks: Vec<_> = tally.iter().collect();
    blocks.sort_by_key(|(b, t)| (std::cmp::Reverse(t.total()), **b));
    println!(
        "{:>10} {:>5} {:>7}  {:<28} {:>8}",
        "block", "home", "total", "requester:score", "move?"
    );
    for (block, t) in blocks.iter().take(top) {
        let mut scores: Vec<(&NodeId, &u64)> = t.score.iter().collect();
        scores.sort_by_key(|(n, s)| (std::cmp::Reverse(**s), **n));
        let cells: Vec<String> = scores.iter().map(|(n, s)| format!("{n}:{s}")).collect();
        let dest = match t.dominant() {
            Some(d) if d != t.home => format!("-> {d}"),
            Some(_) => "stays".into(),
            None => "tie".into(),
        };
        println!("{block:>10} {:>5} {:>7}  {:<28} {:>8}", t.home, t.total(), cells.join(" "), dest);
    }
    let moves = tally.values().filter(|t| t.dominant().is_some_and(|d| d != t.home)).count();
    println!(
        "  {} blocks with demand traffic, {moves} would re-home under emit-remap",
        tally.len()
    );
}

/// Wire-batch occupancy from WireFlush events, in the same buckets the
/// fabric's live histogram uses.
fn report_wire(events: &[TraceEvent]) {
    println!("\n== wire-batch occupancy (from WireFlush) ==");
    let mut hist = [0u64; WireSnapshot::NUM_BUCKETS];
    let (mut batches, mut envs) = (0u64, 0u64);
    for e in events.iter().filter(|e| e.kind == EventKind::WireFlush) {
        let (_, n) = unpack_peer_count(e.a);
        hist[WireSnapshot::bucket_index(n)] += 1;
        batches += 1;
        envs += n;
    }
    if batches == 0 {
        println!("  (no wire events)");
        return;
    }
    println!(
        "  batches={batches}  envelopes={envs}  mean occupancy={:.2}",
        envs as f64 / batches as f64
    );
    let peak = hist.iter().copied().max().unwrap_or(1).max(1);
    for (i, &c) in hist.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let bar = "#".repeat(((c * 40).div_ceil(peak)) as usize);
        println!("  {:>6}  {c:>8}  {bar}", WireSnapshot::bucket_label(i));
    }
}

fn kind_counts(events: &[TraceEvent]) -> HashMap<EventKind, u64> {
    let mut m = HashMap::new();
    for e in events {
        *m.entry(e.kind).or_insert(0) += 1;
    }
    m
}

fn report(events: &[TraceEvent]) {
    // A wrapped ring silently undercounts every analysis below — say so
    // per node, loudly, before printing any number.
    warn_wrapped(events, "every analysis below");
    let nodes = events.iter().map(|e| e.node).max().map_or(0, |n| u64::from(n) + 1);
    let t_max = events.iter().map(|e| e.t_ns).max().unwrap_or(0);
    println!("{} events, {} nodes, vtime span {} ns", events.len(), nodes, t_max);
    let counts = kind_counts(events);
    let mut kinds: Vec<_> = counts.iter().collect();
    kinds.sort_by_key(|(k, _)| **k as u8);
    for (k, c) in kinds {
        println!("  {:<18} {c}", k.name());
    }
    report_faults(events);
    report_schedule(events);
    report_leads(events);
    report_useless(events);
    report_traffic(events, 20);
    report_wire(events);
}

// ---- validate -------------------------------------------------------------

fn validate(events: &[TraceEvent], chrome: Option<&str>) -> Result<(), String> {
    // Per-node sequence numbers are unique. (The merged stream is sorted
    // by vtime, and a node's handlers stamp events with the last
    // *published* vtime, so seq order is not vtime order; gaps = ring
    // drops are legal too.
    // Duplication, however, means the ring replayed a slot.)
    let mut seen: HashMap<NodeId, std::collections::HashSet<u64>> = HashMap::new();
    for e in events {
        if !seen.entry(e.node).or_default().insert(e.seq) {
            return Err(format!("node {}: duplicate seq {}", e.node, e.seq));
        }
    }
    // Span pairing: per node, ends never outnumber begins (the compute
    // thread is serial, so spans of one kind never nest). A node whose
    // stream starts at seq > 0 lost its oldest events to ring wrap, so
    // its unmatched closes are legal and clamped instead of rejected.
    let mut first_seq: HashMap<NodeId, u64> = HashMap::new();
    for e in events {
        first_seq.entry(e.node).or_insert(e.seq);
    }
    for (open, close) in [
        (EventKind::FaultBegin, EventKind::FaultEnd),
        (EventKind::BarrierEnter, EventKind::BarrierExit),
        (EventKind::PresendStart, EventKind::PresendEnd),
        (EventKind::PhaseBegin, EventKind::PhaseEnd),
    ] {
        let mut depth: HashMap<NodeId, i64> = HashMap::new();
        for e in events {
            let d = depth.entry(e.node).or_insert(0);
            if e.kind == open {
                *d += 1;
            } else if e.kind == close {
                *d -= 1;
                if *d < 0 {
                    if first_seq.get(&e.node).copied().unwrap_or(0) > 0 {
                        *d = 0; // wrapped stream: the opener was overwritten
                    } else {
                        return Err(format!(
                            "node {}: {} without matching {}",
                            e.node,
                            close.name(),
                            open.name()
                        ));
                    }
                }
            }
        }
    }
    // Message-kind codes decode.
    for e in events {
        if matches!(e.kind, EventKind::MsgSend | EventKind::MsgRecv) {
            let (code, _) = unpack_msg(e.a);
            if prescient_stache::Msg::kind_name(code) == "?" {
                return Err(format!("undecodable message kind code {code}"));
            }
        }
    }
    if let Some(path) = chrome {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        check_chrome(&text).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

/// The Chrome export parses, has the header, and every trace event is an
/// object with a phase tag — walked one event at a time.
fn check_chrome(text: &str) -> Result<(), String> {
    let (mut unit, mut events) = (false, false);
    let mut doc = Reader::new(text);
    doc.object(|key, r| match &*key {
        "displayTimeUnit" => r.value().map(|_| unit = true),
        "traceEvents" => {
            events = true;
            r.array(|r| r.value()?.string("ph").map(drop))
        }
        _ => r.value().map(drop),
    })?;
    doc.end()?;
    if unit && events {
        Ok(())
    } else {
        Err("not a Chrome trace-event export".to_string())
    }
}

// ---- diff -----------------------------------------------------------------

fn diff(a: &[TraceEvent], b: &[TraceEvent]) {
    println!("== per-kind event counts ==");
    let (ca, cb) = (kind_counts(a), kind_counts(b));
    println!("{:<18} {:>10} {:>10} {:>10}", "kind", "left", "right", "delta");
    for k in EventKind::ALL {
        let (x, y) = (ca.get(&k).copied().unwrap_or(0), cb.get(&k).copied().unwrap_or(0));
        if x == 0 && y == 0 {
            continue;
        }
        println!("{:<18} {x:>10} {y:>10} {:>+10}", k.name(), y as i64 - x as i64);
    }
    println!("\n== headline latencies ==");
    let mean_fault = |ev: &[TraceEvent]| {
        let phases = fault_latencies(ev);
        let (n, sum) = phases
            .iter()
            .fold((0u64, 0u64), |(n, s), (_, rd, wr)| (n + rd.n + wr.n, s + rd.sum + wr.sum));
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    };
    println!("mean fault latency : {:>12.0} ns | {:>12.0} ns", mean_fault(a), mean_fault(b));
    let (la, ta, ua) = lead_times(a);
    let (lb, tb, ub) = lead_times(b);
    println!("mean presend lead  : {:>12.0} ns | {:>12.0} ns", la.mean(), lb.mean());
    println!("blocks touched     : {ta:>12} | {tb:>12}");
    println!("blocks untouched   : {ua:>12} | {ub:>12}");
}

// ---- entry ----------------------------------------------------------------

fn usage() -> ExitCode {
    eprintln!("usage: prescient-trace report <trace.jsonl>");
    eprintln!("       prescient-trace validate <trace.jsonl> [trace.json]");
    eprintln!("       prescient-trace diff <a.jsonl> <b.jsonl>");
    eprintln!("       prescient-trace emit-remap <trace.jsonl> [out.remap]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => return usage(),
    };
    let fail = |e: String| {
        eprintln!("prescient-trace: {e}");
        ExitCode::FAILURE
    };
    match (cmd, rest) {
        ("report", [path]) => match load(path) {
            Ok(events) => {
                report(&events);
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        ("validate", [path, chrome @ ..]) if chrome.len() <= 1 => {
            let events = match load(path) {
                Ok(ev) => ev,
                Err(e) => return fail(e),
            };
            match validate(&events, chrome.first().map(String::as_str)) {
                Ok(()) => {
                    println!("ok: {} events valid", events.len());
                    ExitCode::SUCCESS
                }
                Err(e) => fail(e),
            }
        }
        ("diff", [a, b]) => match (load(a), load(b)) {
            (Ok(ea), Ok(eb)) => {
                diff(&ea, &eb);
                ExitCode::SUCCESS
            }
            (Err(e), _) | (_, Err(e)) => fail(e),
        },
        ("emit-remap", [path, out @ ..]) if out.len() <= 1 => match load(path) {
            Ok(events) => {
                // A wrapped ring skews the traffic tally the placement
                // decision is based on — warn before emitting.
                warn_wrapped(&events, "the placement traffic tally");
                let text = emit_remap(&events);
                let entries = text.lines().filter(|l| !l.starts_with('#')).count();
                match out.first() {
                    Some(f) => {
                        if let Err(e) = std::fs::write(f, &text) {
                            return fail(format!("{f}: {e}"));
                        }
                        eprintln!("wrote {entries} remap entries to {f}");
                    }
                    None => print!("{text}"),
                }
                ExitCode::SUCCESS
            }
            Err(e) => fail(e),
        },
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prescient_bench::traffic::parse_trace_line;

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

    #[test]
    fn parse_round_trip() {
        let line =
            "{\"node\":2,\"seq\":7,\"t\":900,\"phase\":3,\"kind\":\"SchedRecord\",\"a\":5,\"b\":3}";
        let e = parse_trace_line(line).expect("parses");
        assert_eq!((e.node, e.seq, e.t_ns, e.phase), (2, 7, 900, 3));
        assert_eq!(e.kind, EventKind::SchedRecord);
        assert_eq!((e.a, e.b), (5, 3));
        assert!(parse_trace_line("{\"kind\":\"Nope\"}").is_err());
    }

    #[test]
    fn fault_pairing_and_latency() {
        use prescient_tempest::trace::pack_fault_end;
        let events = vec![
            ev(0, 0, 100, 1, EventKind::FaultBegin, 7, 0),
            ev(0, 1, 400, 1, EventKind::FaultEnd, 7, pack_fault_end(false, 0, 0)),
            ev(0, 2, 500, 1, EventKind::FaultBegin, 8, 1),
            ev(0, 3, 900, 1, EventKind::FaultEnd, 8, pack_fault_end(true, 1, 0)),
        ];
        let phases = fault_latencies(&events);
        assert_eq!(phases.len(), 1);
        let (phase, rd, wr) = &phases[0];
        assert_eq!(*phase, 1);
        assert_eq!((rd.n, rd.sum), (1, 300));
        assert_eq!((wr.n, wr.sum), (1, 400));
    }

    #[test]
    fn lead_time_matches_install_runs() {
        use prescient_tempest::trace::pack_peer_count;
        let events = vec![
            ev(1, 0, 100, 2, EventKind::PresendInstall, 10, pack_peer_count(0, 3)),
            ev(1, 1, 600, 2, EventKind::PresendFirstTouch, 11, 0),
            ev(2, 0, 100, 2, EventKind::PresendInstall, 10, pack_peer_count(0, 1)),
        ];
        let (lead, touched, untouched) = lead_times(&events);
        assert_eq!((touched, untouched), (1, 3)); // blocks 10,12 on node 1 + block 10 on node 2
        assert_eq!(lead.sum, 500);
    }

    #[test]
    fn emit_remap_picks_the_strictly_dominant_requester() {
        use prescient_tempest::trace::pack_msg;
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
        assert!(validate(&bad, None).is_err());
        let ok = vec![
            ev(0, 0, 5, 0, EventKind::FaultBegin, 7, 0),
            ev(0, 1, 9, 0, EventKind::FaultEnd, 7, 0),
        ];
        assert!(validate(&ok, None).is_ok());
        let duplicated = vec![
            ev(0, 2, 5, 0, EventKind::MsgSend, 1 << 16, 0),
            ev(0, 2, 9, 0, EventKind::MsgSend, 1 << 16, 0),
        ];
        assert!(validate(&duplicated, None).is_err());
    }
}
