//! `prescient-telemetry`: the offline analyzer of what a machine
//! exports — its protocol trace and its metrics stream or timeline.
//!
//! ```text
//! prescient-telemetry report     FILE                   # trace or metrics
//! prescient-telemetry validate   FILE [COMPANION]       # CI structural checks
//! prescient-telemetry diff       A.jsonl B.jsonl        # compare two traces
//! prescient-telemetry emit-remap TRACE [OUT]            # distill a remap file
//! prescient-telemetry watch      STREAM [--once]        # follow a live stream
//! prescient-telemetry anomaly    FILE [--threshold PCT] # flag deviant iterations
//! ```
//!
//! The input kind is read from the file (`telemetry::load`). On a trace,
//! `report` prints the event census, per-phase demand-fault latency
//! histograms, the schedule build→replay timeline, pre-send lead times
//! (install to first access), the useless-push breakdown, the per-block
//! traffic matrix (who asks which home for what) and the wire-batch
//! occupancy histogram. On metrics it prints the phase-instance table
//! (one row per `(run, phase, iteration)` with the gate's traffic
//! columns, the fetch-latency mean and the wire occupancy), then per-run
//! totals. `validate` checks a trace's structural invariants (and, given
//! it, the Chrome JSON companion), or a stream's sequence numbers (and,
//! given it, that the teardown timeline holds the same records). `diff`
//! compares two traces' per-kind counts and headline latencies.
//! `emit-remap` distills a trace's traffic matrix into a block→home remap
//! file (DESIGN.md §14) that `PRESCIENT_PLACEMENT=remap:<path>` applies
//! on the next run. `watch` tails a live stream, one line per record as
//! nodes cut them; `--once` drains what is there and exits. `anomaly`
//! compares every phase instance against the median of its sibling
//! iterations and attributes deviations to the cause counters recorded in
//! the same deltas (DESIGN.md §15).

use std::collections::BTreeMap;
use std::fmt::Display;
use std::process::ExitCode;

use prescient_bench::telemetry::{
    causes, check_chrome, check_stream, detect_anomalies, emit_remap, fault_latencies, load,
    presend_outcomes, traffic_tally, validate_trace, wrapped_nodes, Input,
};
use prescient_runtime::RunTimeline;
use prescient_tempest::stats::StatsSnapshot;
use prescient_tempest::trace::{unpack_counts, unpack_peer_count, EventKind, TraceEvent};
use prescient_tempest::{LatencyHist, NodeId, PhaseRecord, TimeBreakdown, WireSnapshot};

const USAGE: &str = "usage: prescient-telemetry report FILE
       prescient-telemetry validate FILE [COMPANION]
       prescient-telemetry diff A.jsonl B.jsonl
       prescient-telemetry emit-remap TRACE [OUT]
       prescient-telemetry watch STREAM [--once]
       prescient-telemetry anomaly FILE [--threshold PCT]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let done = match args.as_slice() {
        ["report", file] => load(file).and_then(|input| match input {
            Input::Trace(events) => report_trace(&events),
            Input::Metrics(t) => report_metrics(file, &t),
        }),
        ["validate", file, rest @ ..] if rest.len() <= 1 => validate(file, rest.first().copied()),
        ["diff", a, b] => trace(a).and_then(|a| trace(b).map(|b| diff(&a, &b))),
        ["emit-remap", file, out @ ..] if out.len() <= 1 => emit(file, out.first().copied()),
        ["watch", stream] => watch(stream, false),
        ["watch", stream, "--once"] => watch(stream, true),
        ["anomaly", file] => anomaly(file, 50.0),
        ["anomaly", file, "--threshold", pct] => threshold(pct).and_then(|p| anomaly(file, p)),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("prescient-telemetry: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `path`'s events; an error unless it holds a trace.
fn trace(path: &str) -> Result<Vec<TraceEvent>, String> {
    match load(path)? {
        Input::Trace(events) => Ok(events),
        Input::Metrics(_) => Err(format!("{path}: metrics, not a trace")),
    }
}

/// `path`'s timeline; an error unless it holds a stream or a timeline.
fn metrics(path: &str) -> Result<RunTimeline, String> {
    match load(path)? {
        Input::Metrics(t) => Ok(t),
        Input::Trace(_) => Err(format!("{path}: a trace, not metrics")),
    }
}

fn validate(file: &str, companion: Option<&str>) -> Result<(), String> {
    match load(file)? {
        Input::Trace(events) => {
            warn_wrapped(&validate_trace(&events)?, "its unmatched span ends are let through");
            companion.map_or(Ok(()), check_chrome)?;
            println!("ok: {} events valid", events.len());
        }
        Input::Metrics(t) => {
            check_stream(&t.records).map_err(|e| format!("{file}: {e}"))?;
            if let Some(tl) = companion {
                let (n, other) = (t.records.len(), metrics(tl)?.records);
                if other != t.records {
                    let m = other.len();
                    return Err(format!("{file} ({n} records) and {tl} ({m} records) disagree"));
                }
            }
            let matched = if companion.is_some() { ", stream == timeline" } else { "" };
            println!("ok: {} records{matched}", t.records.len());
        }
    }
    Ok(())
}

/// The loud per-node warning for a wrapped ring, before any number an
/// analysis prints: `what` says what the lost events cost.
fn warn_wrapped(wrapped: &BTreeMap<NodeId, u64>, what: &str) {
    for (node, lost) in wrapped {
        eprintln!(
            "WARNING: node {node}: trace ring wrapped, ~{lost} oldest events lost — {what} \
             (rerun with a larger PRESCIENT_TRACE capacity for full coverage)"
        );
    }
}

// ---- trace report ---------------------------------------------------------

/// One table line: each cell right-aligned to its column's width, one
/// space apart.
fn cols(widths: &[usize], cells: impl IntoIterator<Item = impl Display>) -> String {
    let cells: Vec<String> = widths.iter().zip(cells).map(|(w, c)| format!("{c:>w$}")).collect();
    cells.join(" ")
}

/// A `#` bar, 40 wide at the histogram's peak.
fn bar(count: u64, peak: u64) -> String {
    "#".repeat((count * 40).div_ceil(peak.max(1)) as usize)
}

/// A latency histogram: its summary line, then one bar per non-empty
/// power-of-two bucket (the last is open-ended).
fn print_hist(h: &LatencyHist, indent: &str) {
    if h.n() == 0 {
        println!("{indent}(empty)");
        return;
    }
    println!("{indent}n={}  mean={:.0}  max={}  (ns)", h.n(), h.mean_ns(), h.max_ns);
    let peak = h.counts.iter().copied().max().unwrap_or(0);
    for (b, &c) in h.counts.iter().enumerate().filter(|(_, &c)| c > 0) {
        let hi =
            if b + 1 < LatencyHist::NUM_BUCKETS { (2u64 << b).to_string() } else { "inf".into() };
        println!("{indent}[{:>10} ns, {hi:>10} ns)  {c:>8}  {}", 1u64 << b, bar(c, peak));
    }
}

fn kind_counts(events: &[TraceEvent]) -> [u64; EventKind::ALL.len()] {
    let mut counts = [0; EventKind::ALL.len()];
    events.iter().for_each(|e| counts[e.kind as usize - 1] += 1);
    counts
}

fn report_trace(events: &[TraceEvent]) -> Result<(), String> {
    // A wrapped ring silently undercounts every analysis below — say so
    // per node, loudly, before printing any number.
    warn_wrapped(&wrapped_nodes(events)?, "every analysis below undercounts its early traffic");
    let nodes = events.iter().map(|e| e.node).max().map_or(0, |n| u64::from(n) + 1);
    let t_max = events.iter().map(|e| e.t_ns).max().unwrap_or(0);
    println!("{} events, {} nodes, vtime span {} ns", events.len(), nodes, t_max);
    for (k, c) in EventKind::ALL.iter().zip(kind_counts(events)).filter(|(_, c)| *c > 0) {
        println!("  {:<18} {c}", k.name());
    }
    println!("== demand-fault latency, per phase ==");
    let phases = fault_latencies(events);
    if phases.is_empty() {
        println!("  (no faults)");
    }
    for (phase, (rd, wr)) in &phases {
        println!("phase {phase}:");
        println!("  read faults:");
        print_hist(rd, "    ");
        println!("  write faults:");
        print_hist(wr, "    ");
    }
    report_schedule(events);
    println!("\n== pre-send lead time (install -> first access) ==");
    let (lead, untouched, homes) = presend_outcomes(events);
    print_hist(&lead, "  ");
    println!("  blocks touched: {}   installed but never touched: {untouched}", lead.n());
    // Per pushing home: the block copies it installed that were never
    // first-touched at their target.
    println!("\n== useless-push breakdown, per pushing home ==");
    const USELESS: [usize; 4] = [6, 10, 10, 8];
    println!("{}", cols(&USELESS, ["home", "installed", "useless", "pct"]));
    for (h, &(p, u)) in &homes {
        let pct = format!("{:.1}%", if p == 0 { 0.0 } else { u as f64 * 100.0 / p as f64 });
        println!("{}", cols(&USELESS, [h as &dyn Display, &p, &u, &pct]));
    }
    report_traffic(events, 20);
    report_wire(events);
    Ok(())
}

/// Per-phase schedule lifecycle: when records accumulate, how replay
/// coalesces them, and how often the degradation policy intervened.
fn report_schedule(events: &[TraceEvent]) {
    use EventKind::{Degrade, Rearm, SchedCoalesce, SchedFlush, SchedRecord, SchedReplay};
    println!("\n== schedule build -> replay timeline, per phase ==");
    #[derive(Default)]
    struct Ph {
        records: u64,
        first: u64,
        last: u64,
        replays: u64,
        runs: u64,
        pushes: u64,
        groups: u64,
        flushes: u64,
        degrades: u64,
        rearms: u64,
    }
    let mut phases: BTreeMap<u32, Ph> = BTreeMap::new();
    for e in events {
        if !matches!(
            e.kind,
            SchedRecord | SchedReplay | SchedCoalesce | SchedFlush | Degrade | Rearm
        ) {
            continue;
        }
        // Most schedule events carry the phase they concern in `a`;
        // SchedRecord's `a` is the block, so it uses the ambient phase.
        let p = phases.entry(if e.kind == SchedRecord { e.phase } else { e.a as u32 }).or_default();
        match e.kind {
            SchedRecord => {
                p.first = if p.records == 0 { e.t_ns } else { p.first };
                p.records += 1;
                p.last = e.t_ns;
            }
            SchedReplay => (p.replays, p.runs) = (p.replays + 1, p.runs + e.b),
            SchedCoalesce => {
                let (pushes, groups) = unpack_counts(e.b);
                (p.pushes, p.groups) = (p.pushes + pushes, p.groups + groups);
            }
            SchedFlush => p.flushes += 1,
            Degrade => p.degrades += 1,
            _ => p.rearms += 1,
        }
    }
    const SCHED: [usize; 10] = [6, 8, 12, 12, 8, 8, 8, 8, 8, 7];
    let head = "phase records first@ns last@ns replays runs pushes groups flushes deg/arm";
    println!("{}", cols(&SCHED, head.split(' ')));
    for (id, p) in &phases {
        if p.records + p.replays + p.pushes + p.flushes + p.degrades + p.rearms == 0 {
            continue;
        }
        let deg_arm = format!("{:>3}/{:<3}", p.degrades, p.rearms);
        let row: [&dyn Display; 10] = [
            id, &p.records, &p.first, &p.last, &p.replays, &p.runs, &p.pushes, &p.groups,
            &p.flushes, &deg_arm,
        ];
        println!("{}", cols(&SCHED, row));
    }
}

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
    let mut w = WireSnapshot::default();
    for e in events.iter().filter(|e| e.kind == EventKind::WireFlush) {
        let (_, n) = unpack_peer_count(e.a);
        w.hist[WireSnapshot::bucket_index(n)] += 1;
        (w.batches, w.envelopes) = (w.batches + 1, w.envelopes + n);
    }
    if w.batches == 0 {
        println!("  (no wire events)");
        return;
    }
    let (batches, envs, mean) = (w.batches, w.envelopes, w.mean_occupancy());
    println!("  batches={batches}  envelopes={envs}  mean occupancy={mean:.2}");
    let peak = w.hist.iter().copied().max().unwrap_or(0);
    for (i, &c) in w.hist.iter().enumerate().filter(|(_, &c)| c > 0) {
        println!("  {:>6}  {c:>8}  {}", WireSnapshot::bucket_label(i), bar(c, peak));
    }
}

// ---- diff and emit-remap --------------------------------------------------

fn diff(a: &[TraceEvent], b: &[TraceEvent]) {
    println!("== per-kind event counts ==");
    println!("{:<18} {:>10} {:>10} {:>10}", "kind", "left", "right", "delta");
    let counts = kind_counts(a).into_iter().zip(kind_counts(b));
    for (k, (x, y)) in EventKind::ALL.iter().zip(counts).filter(|(_, (x, y))| x + y > 0) {
        println!("{:<18} {x:>10} {y:>10} {:>+10}", k.name(), y as i64 - x as i64);
    }
    println!("\n== headline latencies ==");
    let mean_fault = |ev: &[TraceEvent]| {
        let all = LatencyHist::default();
        fault_latencies(ev).values().fold(all, |all, (rd, wr)| all.merge(rd).merge(wr)).mean_ns()
    };
    println!("mean fault latency : {:>12.0} ns | {:>12.0} ns", mean_fault(a), mean_fault(b));
    let ((la, ua, _), (lb, ub, _)) = (presend_outcomes(a), presend_outcomes(b));
    println!("mean presend lead  : {:>12.0} ns | {:>12.0} ns", la.mean_ns(), lb.mean_ns());
    println!("blocks touched     : {:>12} | {:>12}", la.n(), lb.n());
    println!("blocks untouched   : {ua:>12} | {ub:>12}");
}

fn emit(file: &str, out: Option<&str>) -> Result<(), String> {
    let events = trace(file)?;
    // A wrapped ring skews the traffic tally the placement decision is
    // based on — warn before emitting.
    warn_wrapped(&wrapped_nodes(&events)?, "the placement traffic tally undercounts it");
    let text = emit_remap(&events);
    match out {
        Some(f) => {
            std::fs::write(f, &text).map_err(|e| format!("{f}: {e}"))?;
            let entries = text.lines().filter(|l| !l.starts_with('#')).count();
            eprintln!("wrote {entries} remap entries to {f}");
        }
        None => print!("{text}"),
    }
    Ok(())
}

// ---- metrics --------------------------------------------------------------

fn report_metrics(file: &str, t: &RunTimeline) -> Result<(), String> {
    println!("== metrics timeline: {file} ({} nodes, {} records) ==", t.nodes, t.records.len());
    const PHASES: [usize; 12] = [3, 5, 4, 5, 12, 8, 12, 8, 8, 8, 10, 6];
    let head = "run phase iter cuts vtime(ms) msgs bytes blocks misses presend fetch(us) occ";
    println!("\n{}", cols(&PHASES, head.split(' ')));
    let mut runs: BTreeMap<u64, (StatsSnapshot, TimeBreakdown)> = BTreeMap::new();
    for g in t.phases() {
        let run = runs.entry(g.run).or_default();
        *run = (run.0.merge(&g.stats), run.1.merge(&g.vtime));
        let label = if g.phase == 0 { "gap".to_string() } else { g.phase.to_string() };
        let vtime = format!("{:.3}", g.vtime_ns as f64 / 1e6);
        let fetch = format!("{:.2}", g.fetch.mean_ns() / 1e3);
        let occ = format!("{:.2}", g.wire.map_or(1.0, |w| w.mean_occupancy()));
        let (s, bytes, blocks) = (&g.stats, g.bytes_moved(), g.blocks_moved());
        let (msgs, misses, presend) = (s.msgs_out, s.misses(), s.presend_blocks_out);
        let row: [&dyn Display; 12] = [
            &g.run, &label, &g.iter, &g.records, &vtime, &msgs, &bytes, &blocks, &misses, &presend,
            &fetch, &occ,
        ];
        println!("{}", cols(&PHASES, row));
    }
    println!();
    for (run, (stats, vtime)) in runs {
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

/// Tail a live stream: print each record as its line lands in the file.
/// The publisher appends whole lines and flushes per batch, so reading
/// from the last seen offset and splitting on complete lines is safe. A
/// new run re-creates the file: when it shrinks, start over from byte 0.
fn watch(stream: &str, once: bool) -> Result<(), String> {
    let mut seen = 0;
    loop {
        let buf = std::fs::read(stream).map_err(|e| format!("{stream}: {e}"))?;
        if buf.len() < seen {
            seen = 0;
        }
        let new = &buf[seen..];
        let complete = new.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
        for line in String::from_utf8_lossy(&new[..complete]).lines() {
            match PhaseRecord::parse_line(line) {
                Ok(r) => print_record(&r),
                Err(e) => eprintln!("prescient-telemetry: skipping bad line ({e})"),
            }
        }
        seen += complete;
        if once {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
}

fn print_record(r: &PhaseRecord) {
    let label = if r.phase == 0 { "gap".to_string() } else { format!("p{}", r.phase) };
    println!(
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
    );
}

/// `--threshold`: a finite percentage, zero or more (`NaN` would flag
/// nothing, a negative value everything).
fn threshold(pct: &str) -> Result<f64, String> {
    match pct.parse::<f64>() {
        Ok(p) if p.is_finite() && p >= 0.0 => Ok(p),
        _ => Err(format!("--threshold {pct:?}: expected a finite percentage >= 0")),
    }
}

fn anomaly(file: &str, threshold_pct: f64) -> Result<(), String> {
    let hits = detect_anomalies(&metrics(file)?, threshold_pct);
    if hits.is_empty() {
        println!(
            "no anomalies: every phase instance within {threshold_pct}% of its siblings' median"
        );
        return Ok(());
    }
    println!("{} anomalies (threshold {threshold_pct}%):", hits.len());
    for a in &hits {
        let (g, why) = (&a.group, causes(&a.group));
        let why = if why.is_empty() { "unexplained".to_string() } else { why.join("; ") };
        println!(
            "  run {} phase {} iter {}: {} = {} vs median {} ({:+.0}%)  <- {why}",
            g.run, g.phase, g.iter, a.metric, a.value, a.median, a.deviation_pct,
        );
    }
    Ok(())
}
