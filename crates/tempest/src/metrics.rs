//! Phase-granular run telemetry: live per-node metric timelines.
//!
//! Cumulative counters ([`crate::stats`]) answer "how much, over the whole
//! run"; trace rings ([`crate::trace`]) answer "when, per event" but are
//! flight recorders that wrap at paper scale. This module sits between the
//! two: at every phase barrier each node cuts a **delta snapshot** of its
//! counters and virtual-time breakdown into a [`PhaseRecord`], and pushes
//! it into a shared [`MetricsHub`] that a background publisher can drain
//! *while the run is still going* — as JSONL heartbeats appended to a
//! stream file, or as a merged Prometheus text-exposition snapshot served
//! over a tiny TCP endpoint ([`MetricsServer`]).
//!
//! # Zero perturbation
//!
//! Recording must not change what is being measured. Every cut is taken by
//! the node's thread at a phase boundary it was crossing anyway, costs
//! only relaxed atomic loads plus a `Vec` push under an uncontended mutex,
//! bills **no virtual time**, and sends **no messages** — so the gated
//! perf-counter columns (vtime, msgs, bytes/blocks moved, misses,
//! pre-sends) are bit-identical with metrics off and on, by construction.
//! Wall-clock is the only cost, and it is measured honestly in
//! EXPERIMENTS.md.
//!
//! # Exactness
//!
//! A node serves its peers' requests whenever they arrive — inside a
//! barrier as well as inside a phase — so *which* phase a served request is
//! attributed to is approximate at the margin. The per-node **sums** are
//! not: records are deltas between consecutive snapshots of the same
//! cumulative counters, so they telescope —
//! `(c1-c0) + (c2-c1) + … + (cn-c(n-1)) = cn - c0` — and reconcile
//! exactly with the teardown `RunReport`.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::stats::{StatsSnapshot, TimeBreakdown, WireSnapshot};
use crate::sync::{lock, wait_while};
use crate::NodeId;

/// Metrics policy of one machine.
///
/// Unlike [`crate::trace::TraceConfig`] this carries optional output
/// targets (a stream path and a TCP listen address), so it is `Clone`
/// rather than `Copy`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsConfig {
    /// Master switch. Off = no hub, no cuts, no threads.
    pub enabled: bool,
    /// Append one JSONL line per phase record to this file, live.
    pub stream: Option<String>,
    /// Serve the merged snapshot in Prometheus text-exposition format on
    /// this `host:port` address (`:0` picks a free port; see
    /// `Machine::metrics_addr`).
    pub tcp: Option<String>,
}

impl MetricsConfig {
    /// Metrics disabled.
    pub fn off() -> MetricsConfig {
        MetricsConfig::default()
    }

    /// Metrics enabled, in-memory only (drain via `Machine::timeline`).
    pub fn on() -> MetricsConfig {
        MetricsConfig { enabled: true, stream: None, tcp: None }
    }

    /// Metrics enabled, streaming JSONL records to `path` as they are cut.
    pub fn stream(path: impl Into<String>) -> MetricsConfig {
        MetricsConfig { enabled: true, stream: Some(path.into()), tcp: None }
    }

    /// Metrics enabled, serving Prometheus text on `addr`.
    pub fn tcp(addr: impl Into<String>) -> MetricsConfig {
        MetricsConfig { enabled: true, stream: None, tcp: Some(addr.into()) }
    }

    /// Parse a `PRESCIENT_METRICS` value: `0`/`off` disable, `1`/`on`
    /// enable in-memory, `stream:PATH` streams JSONL to PATH, `tcp:ADDR`
    /// serves Prometheus text on ADDR (`host:port`).
    pub fn parse(s: &str) -> Result<MetricsConfig, String> {
        let t = s.trim();
        match t {
            "" | "0" | "off" => return Ok(MetricsConfig::off()),
            "1" | "on" => return Ok(MetricsConfig::on()),
            _ => {}
        }
        if let Some(path) = t.strip_prefix("stream:") {
            if path.is_empty() {
                return Err("PRESCIENT_METRICS: \"stream:\" needs a file path".into());
            }
            return Ok(MetricsConfig::stream(path));
        }
        if let Some(addr) = t.strip_prefix("tcp:") {
            if addr.is_empty() || !addr.contains(':') {
                return Err(format!(
                    "PRESCIENT_METRICS: \"tcp:\" needs a host:port address, got {addr:?}"
                ));
            }
            return Ok(MetricsConfig::tcp(addr));
        }
        Err(format!(
            "PRESCIENT_METRICS: expected \"on\", \"off\", \"stream:PATH\" or \"tcp:ADDR\", \
             got {s:?}"
        ))
    }

    /// The `PRESCIENT_METRICS` override, if set. Panics on an unparsable
    /// value rather than silently recording nothing.
    pub fn from_env() -> Option<MetricsConfig> {
        let v = std::env::var("PRESCIENT_METRICS").ok()?;
        match MetricsConfig::parse(&v) {
            Ok(m) => Some(m),
            Err(e) => panic!("{e}"),
        }
    }

    /// The env override if present, else disabled.
    pub fn default_for_machine() -> MetricsConfig {
        MetricsConfig::from_env().unwrap_or_else(MetricsConfig::off)
    }
}

/// A log2-bucketed latency histogram, cheap enough to feed from the fault
/// path: one `leading_zeros` and one array increment per sample, no
/// atomics (it lives in compute-thread-local metrics state).
///
/// Bucket `i` holds samples with `2^i <= v < 2^(i+1)` ns (bucket 0 also
/// takes v = 0); the last bucket is open-ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyHist {
    /// Sample counts per power-of-two bucket.
    pub counts: [u64; LatencyHist::NUM_BUCKETS],
    /// Sum of all samples, ns.
    pub sum_ns: u64,
    /// Largest sample, ns.
    pub max_ns: u64,
}

impl Default for LatencyHist {
    fn default() -> LatencyHist {
        LatencyHist { counts: [0; LatencyHist::NUM_BUCKETS], sum_ns: 0, max_ns: 0 }
    }
}

impl LatencyHist {
    /// Number of buckets: 2^31 ns ≈ 2.1 s covers any plausible fetch.
    pub const NUM_BUCKETS: usize = 32;

    /// Record one sample.
    pub fn record(&mut self, v_ns: u64) {
        let b = (63 - v_ns.max(1).leading_zeros() as usize).min(Self::NUM_BUCKETS - 1);
        self.counts[b] += 1;
        self.sum_ns += v_ns;
        self.max_ns = self.max_ns.max(v_ns);
    }

    /// Number of samples.
    pub fn n(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Mean sample, ns (0.0 when empty).
    pub fn mean_ns(&self) -> f64 {
        let n = self.n();
        if n == 0 {
            0.0
        } else {
            self.sum_ns as f64 / n as f64
        }
    }

    /// Element-wise sum.
    pub fn merge(&self, o: &LatencyHist) -> LatencyHist {
        let mut counts = self.counts;
        for (c, x) in counts.iter_mut().zip(o.counts) {
            *c += x;
        }
        LatencyHist { counts, sum_ns: self.sum_ns + o.sum_ns, max_ns: self.max_ns.max(o.max_ns) }
    }

    /// Sparse `"bucket:count bucket:count"` encoding of the non-zero
    /// buckets (empty string when no samples).
    pub fn encode(&self) -> String {
        encode_sparse(&self.counts)
    }

    /// Inverse of [`LatencyHist::encode`]; `sum_ns`/`max_ns` travel as
    /// separate fields and are supplied by the caller.
    pub fn decode(s: &str, sum_ns: u64, max_ns: u64) -> Result<LatencyHist, String> {
        let mut counts = [0u64; Self::NUM_BUCKETS];
        decode_sparse(s, &mut counts)?;
        Ok(LatencyHist { counts, sum_ns, max_ns })
    }
}

fn encode_sparse(counts: &[u64]) -> String {
    let mut s = String::new();
    for (i, &c) in counts.iter().enumerate() {
        if c > 0 {
            if !s.is_empty() {
                s.push(' ');
            }
            s.push_str(&format!("{i}:{c}"));
        }
    }
    s
}

fn decode_sparse(s: &str, counts: &mut [u64]) -> Result<(), String> {
    for part in s.split_whitespace() {
        let (i, c) = part.split_once(':').ok_or_else(|| format!("bad hist entry {part:?}"))?;
        let i: usize = i.parse().map_err(|_| format!("bad hist bucket {part:?}"))?;
        let c: u64 = c.parse().map_err(|_| format!("bad hist count {part:?}"))?;
        *counts.get_mut(i).ok_or_else(|| format!("hist bucket {i} out of range"))? = c;
    }
    Ok(())
}

/// One delta cut of one node's counters: what this node did between the
/// previous cut and this one.
///
/// Two kinds of record share the shape, distinguished by `phase`:
///
/// * **phase records** (`phase > 0`): cut when the phase's `phase_end`
///   commits; they span from the phase's *first* `phase_begin` to the
///   commit, so a crash-replayed phase produces exactly one record whose
///   deltas match the rolled-back-and-recounted stats arithmetic.
/// * **gap records** (`phase == 0`): cut at the next `phase_begin` (or at
///   run teardown) and carry everything that happened *between* phases —
///   setup traffic, checkpoints, the run's tail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRecord {
    /// Node the record belongs to.
    pub node: NodeId,
    /// Per-node cut ordinal within the run, 0-based: orders this node's
    /// records without trusting file order.
    pub seq: u64,
    /// 1-based ordinal of the `Machine::run` call on its machine (apps
    /// typically run setup / measured / gather as runs 1–3).
    pub run: u64,
    /// Phase id for phase records, 0 for gap records.
    pub phase: u32,
    /// 0-based iteration ordinal of this phase id within the run (the
    /// paper's iterative structure: the same phase id recurs once per
    /// outer iteration). 0 for gap records.
    pub iter: u64,
    /// The node's phase-version counter at the cut (total `phase_begin`
    /// count, diagnostics).
    pub version: u64,
    /// Virtual-time accrued since the previous cut.
    pub vtime: TimeBreakdown,
    /// Counter deltas since the previous cut.
    pub stats: StatsSnapshot,
    /// Fetch-latency histogram of the misses billed since the previous
    /// cut (the wait actually charged, including retry penalties).
    pub fetch: LatencyHist,
    /// Wire-level delta since the previous cut. The wire counters are
    /// fabric-global, so only node 0 records them; at gap cuts the fabric
    /// may not be quiescent, so these are approximate and never
    /// equality-gated.
    pub wire: Option<WireSnapshot>,
}

impl PhaseRecord {
    /// One-line JSON encoding — the stream format, also embedded verbatim
    /// in the `RunTimeline` JSON. Keys are unique within the line, so the
    /// repo's substring-based JSON field readers work on it.
    pub fn to_json_line(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(640);
        write!(
            s,
            "{{\"node\":{},\"seq\":{},\"run\":{},\"phase\":{},\"iter\":{},\"version\":{}",
            self.node, self.seq, self.run, self.phase, self.iter, self.version
        )
        .unwrap();
        write!(
            s,
            ",\"compute_ns\":{},\"wait_ns\":{},\"presend_ns\":{},\"synch_ns\":{}",
            self.vtime.compute_ns, self.vtime.wait_ns, self.vtime.presend_ns, self.vtime.synch_ns
        )
        .unwrap();
        for (name, v) in self.stats.fields() {
            write!(s, ",\"{name}\":{v}").unwrap();
        }
        write!(
            s,
            ",\"fetch_sum_ns\":{},\"fetch_max_ns\":{},\"fetch_hist\":\"{}\"",
            self.fetch.sum_ns,
            self.fetch.max_ns,
            self.fetch.encode()
        )
        .unwrap();
        if let Some(w) = &self.wire {
            write!(
                s,
                ",\"wire_batches\":{},\"wire_envelopes\":{},\"wire_hist\":\"{}\"",
                w.batches,
                w.envelopes,
                encode_sparse(&w.hist)
            )
            .unwrap();
        }
        s.push('}');
        s
    }

    /// Parse one stream line. Inverse of [`PhaseRecord::to_json_line`].
    pub fn parse_line(line: &str) -> Result<PhaseRecord, String> {
        let u = |k: &str| field_u64(line, k).ok_or_else(|| format!("missing field {k:?}"));
        let mut stats = StatsSnapshot::default();
        for (name, v) in stats.fields_mut() {
            *v = field_u64(line, name).ok_or_else(|| format!("missing counter {name:?}"))?;
        }
        let fetch = LatencyHist::decode(
            field_str(line, "fetch_hist").ok_or("missing field \"fetch_hist\"")?,
            u("fetch_sum_ns")?,
            u("fetch_max_ns")?,
        )?;
        let wire = match field_u64(line, "wire_batches") {
            None => None,
            Some(batches) => {
                let mut hist = [0u64; WireSnapshot::NUM_BUCKETS];
                decode_sparse(
                    field_str(line, "wire_hist").ok_or("missing field \"wire_hist\"")?,
                    &mut hist,
                )?;
                Some(WireSnapshot { batches, envelopes: u("wire_envelopes")?, hist })
            }
        };
        Ok(PhaseRecord {
            node: u("node")? as NodeId,
            seq: u("seq")?,
            run: u("run")?,
            phase: u("phase")? as u32,
            iter: u("iter")?,
            version: u("version")?,
            vtime: TimeBreakdown {
                compute_ns: u("compute_ns")?,
                wait_ns: u("wait_ns")?,
                presend_ns: u("presend_ns")?,
                synch_ns: u("synch_ns")?,
            },
            stats,
            fetch,
            wire,
        })
    }
}

/// Extract `"key":<u64>` from a one-line JSON object.
pub fn field_u64(line: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    let end = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Extract `"key":"<str>"` from a one-line JSON object. No escapes: the
/// values this repo writes (encoded histograms, event-kind names) contain
/// only alphanumerics, colons and spaces.
pub fn field_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let at = line.find(&pat)? + pat.len();
    let rest = &line[at..];
    Some(&rest[..rest.find('"')?])
}

#[derive(Default)]
struct HubState {
    records: Vec<PhaseRecord>,
    closed: bool,
}

/// The machine-wide collection point: every node pushes its cuts here;
/// the publisher thread and the TCP endpoint read from here. Push is a
/// short uncontended critical section (nodes cut at barriers, so pushes
/// are naturally staggered by the barrier's wake order).
#[derive(Default)]
pub struct MetricsHub {
    state: Mutex<HubState>,
    more: Condvar,
}

impl MetricsHub {
    /// An empty, open hub.
    pub fn new() -> MetricsHub {
        MetricsHub::default()
    }

    /// Append one record and wake waiting drainers.
    pub fn push(&self, r: PhaseRecord) {
        lock(&self.state).records.push(r);
        self.more.notify_all();
    }

    /// Number of records so far.
    pub fn len(&self) -> usize {
        lock(&self.state).records.len()
    }

    /// True when no records have been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy of every record pushed so far.
    pub fn snapshot(&self) -> Vec<PhaseRecord> {
        lock(&self.state).records.clone()
    }

    /// Mark the hub closed (no more records will arrive) and wake every
    /// drainer so it can exit.
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.more.notify_all();
    }

    /// True after [`MetricsHub::close`].
    pub fn is_closed(&self) -> bool {
        lock(&self.state).closed
    }

    /// Block until records beyond index `from` exist or the hub closes;
    /// returns the new records and whether the hub is now closed. A
    /// closed hub returns immediately (possibly with a final batch), so a
    /// drain loop terminates once it has seen `(empty, true)`.
    pub fn wait_more(&self, from: usize) -> (Vec<PhaseRecord>, bool) {
        let st =
            wait_while(&self.more, lock(&self.state), |st| st.records.len() <= from && !st.closed);
        (st.records[from.min(st.records.len())..].to_vec(), st.closed)
    }
}

/// Render records as Prometheus text exposition (version 0.0.4): each
/// counter as `prescient_<name>_total{node="i"}`, cumulative over all
/// records seen so far, plus vtime segments and node-0 wire totals.
pub fn prometheus_text(records: &[PhaseRecord]) -> String {
    use std::collections::BTreeMap;
    use std::fmt::Write as _;
    let mut per_node: BTreeMap<NodeId, (StatsSnapshot, TimeBreakdown, u64)> = BTreeMap::new();
    let mut wire = WireSnapshot::default();
    for r in records {
        let e = per_node.entry(r.node).or_default();
        e.0 = e.0.merge(&r.stats);
        e.1 = e.1.merge(&r.vtime);
        e.2 += 1;
        if let Some(w) = &r.wire {
            wire = wire.merge(w);
        }
    }
    let mut out = String::new();
    out.push_str("# TYPE prescient_phase_records_total counter\n");
    for (node, (_, _, n)) in &per_node {
        writeln!(out, "prescient_phase_records_total{{node=\"{node}\"}} {n}").unwrap();
    }
    let names: Vec<&'static str> =
        StatsSnapshot::default().fields().iter().map(|(n, _)| *n).collect();
    for (i, name) in names.iter().enumerate() {
        writeln!(out, "# TYPE prescient_{name}_total counter").unwrap();
        for (node, (s, _, _)) in &per_node {
            let v = s.fields()[i].1;
            writeln!(out, "prescient_{name}_total{{node=\"{node}\"}} {v}").unwrap();
        }
    }
    for (seg, get) in [("compute_ns", 0usize), ("wait_ns", 1), ("presend_ns", 2), ("synch_ns", 3)] {
        writeln!(out, "# TYPE prescient_vtime_{seg}_total counter").unwrap();
        for (node, (_, t, _)) in &per_node {
            let v = [t.compute_ns, t.wait_ns, t.presend_ns, t.synch_ns][get];
            writeln!(out, "prescient_vtime_{seg}_total{{node=\"{node}\"}} {v}").unwrap();
        }
    }
    out.push_str("# TYPE prescient_wire_batches_total counter\n");
    writeln!(out, "prescient_wire_batches_total {}", wire.batches).unwrap();
    out.push_str("# TYPE prescient_wire_envelopes_total counter\n");
    writeln!(out, "prescient_wire_envelopes_total {}", wire.envelopes).unwrap();
    out
}

/// A tiny single-threaded HTTP endpoint serving [`prometheus_text`] of
/// the hub's current contents — enough for `curl` or a Prometheus scrape,
/// nothing more (every response closes the connection).
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Bind `addr` (`host:port`; port 0 picks a free one) and serve the
    /// hub's merged snapshot until [`MetricsServer::shutdown`].
    pub fn spawn(hub: Arc<MetricsHub>, addr: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let join = std::thread::Builder::new()
            .name("metrics-http".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(mut sock) = conn else { continue };
                    // Consume (best-effort) the request head before
                    // replying, so well-behaved clients don't see a reset.
                    let _ = sock.set_read_timeout(Some(Duration::from_millis(500)));
                    let mut buf = [0u8; 1024];
                    let _ = sock.read(&mut buf);
                    let body = prometheus_text(&hub.snapshot());
                    let resp = format!(
                        "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
                         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
                        body.len(),
                        body
                    );
                    let _ = sock.write_all(resp.as_bytes());
                }
            })
            .expect("spawn metrics-http thread");
        Ok(MetricsServer { addr, stop, join: Some(join) })
    }

    /// The bound address (resolves `:0` to the picked port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the serving thread. A self-connection
    /// unblocks the accept loop; idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(j) = self.join.take() {
            let _ = TcpStream::connect(self.addr);
            let _ = j.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_record(node: NodeId, with_wire: bool) -> PhaseRecord {
        let stats = StatsSnapshot {
            reads: 100,
            msgs_out: 7,
            data_bytes_in: 4096,
            merge_chunks_out: 3,
            ..Default::default()
        };
        let mut fetch = LatencyHist::default();
        fetch.record(900);
        fetch.record(1800);
        fetch.record(0);
        let mut wire = WireSnapshot { batches: 5, envelopes: 12, hist: [0; 8] };
        wire.hist[0] = 3;
        wire.hist[2] = 2;
        PhaseRecord {
            node,
            seq: 2,
            run: 1,
            phase: 4,
            iter: 1,
            version: 9,
            vtime: TimeBreakdown { compute_ns: 10, wait_ns: 20, presend_ns: 0, synch_ns: 5 },
            stats,
            fetch,
            wire: with_wire.then_some(wire),
        }
    }

    #[test]
    fn config_parses_all_forms() {
        assert_eq!(MetricsConfig::parse("").unwrap(), MetricsConfig::off());
        assert_eq!(MetricsConfig::parse("off").unwrap(), MetricsConfig::off());
        assert_eq!(MetricsConfig::parse("0").unwrap(), MetricsConfig::off());
        assert_eq!(MetricsConfig::parse("on").unwrap(), MetricsConfig::on());
        assert_eq!(MetricsConfig::parse("1").unwrap(), MetricsConfig::on());
        assert_eq!(
            MetricsConfig::parse("stream:/tmp/m.jsonl").unwrap(),
            MetricsConfig::stream("/tmp/m.jsonl")
        );
        assert_eq!(
            MetricsConfig::parse("tcp:127.0.0.1:0").unwrap(),
            MetricsConfig::tcp("127.0.0.1:0")
        );
    }

    #[test]
    fn config_rejects_garbage() {
        for bad in ["maybe", "stream:", "tcp:", "tcp:nohost", "udp:x:1", "on,stream:x", "2"] {
            assert!(MetricsConfig::parse(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn latency_hist_buckets_and_roundtrip() {
        let mut h = LatencyHist::default();
        h.record(0); // bucket 0
        h.record(1); // bucket 0
        h.record(2); // bucket 1
        h.record(1023); // bucket 9
        h.record(1024); // bucket 10
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[9], 1);
        assert_eq!(h.counts[10], 1);
        assert_eq!(h.n(), 5);
        assert_eq!(h.max_ns, 1024);
        let rt = LatencyHist::decode(&h.encode(), h.sum_ns, h.max_ns).unwrap();
        assert_eq!(rt, h);
        assert!(h.merge(&h).n() == 10);
    }

    #[test]
    fn record_roundtrips_through_json_line() {
        for with_wire in [true, false] {
            let r = sample_record(3, with_wire);
            let line = r.to_json_line();
            assert!(line.starts_with("{\"node\":3,"));
            let back = PhaseRecord::parse_line(&line).unwrap();
            assert_eq!(back, r);
        }
    }

    #[test]
    fn parse_rejects_truncated_line() {
        let line = sample_record(0, true).to_json_line();
        assert!(PhaseRecord::parse_line(&line[..line.len() / 2]).is_err());
        assert!(PhaseRecord::parse_line("{}").is_err());
    }

    #[test]
    fn hub_wait_more_drains_and_terminates() {
        let hub = Arc::new(MetricsHub::new());
        let h2 = Arc::clone(&hub);
        let t = std::thread::spawn(move || {
            let mut seen = 0;
            loop {
                let (batch, closed) = h2.wait_more(seen);
                seen += batch.len();
                if closed && batch.is_empty() {
                    return seen;
                }
            }
        });
        hub.push(sample_record(0, false));
        hub.push(sample_record(1, false));
        hub.close();
        assert_eq!(t.join().unwrap(), 2);
        assert_eq!(hub.len(), 2);
    }

    #[test]
    fn prometheus_text_sums_per_node() {
        let recs = vec![sample_record(0, true), sample_record(0, false), sample_record(1, false)];
        let text = prometheus_text(&recs);
        assert!(text.contains("prescient_reads_total{node=\"0\"} 200"));
        assert!(text.contains("prescient_reads_total{node=\"1\"} 100"));
        assert!(text.contains("prescient_merge_chunks_out_total{node=\"0\"} 6"));
        assert!(text.contains("prescient_vtime_wait_ns_total{node=\"1\"} 20"));
        assert!(text.contains("prescient_wire_batches_total 5"));
        assert!(text.contains("prescient_phase_records_total{node=\"0\"} 2"));
    }

    #[test]
    fn server_serves_and_shuts_down() {
        let hub = Arc::new(MetricsHub::new());
        hub.push(sample_record(0, false));
        let mut srv = MetricsServer::spawn(Arc::clone(&hub), "127.0.0.1:0").unwrap();
        let mut sock = TcpStream::connect(srv.addr()).unwrap();
        sock.write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut resp = String::new();
        sock.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.1 200 OK"));
        assert!(resp.contains("prescient_msgs_out_total{node=\"0\"} 7"));
        srv.shutdown();
        srv.shutdown(); // idempotent
    }
}
