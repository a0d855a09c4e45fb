//! Phase-granular run telemetry: live per-node metric timelines.
//!
//! Cumulative counters ([`crate::stats`]) answer "how much, over the whole
//! run"; trace rings ([`crate::trace`]) answer "when, per event" but are
//! flight recorders that wrap at paper scale. This module sits between the
//! two: at every phase barrier each node cuts a **delta snapshot** of its
//! counters and virtual-time breakdown into a [`PhaseRecord`], and pushes
//! it into a shared [`MetricsHub`] that a background publisher can drain
//! *while the run is still going* — as JSONL heartbeats appended to a
//! stream file (`prescient-telemetry watch` follows it live). On such a
//! streamed machine the hub is a queue: a record is held only until the
//! publisher has written it.
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

use std::sync::{Condvar, Mutex};

use crate::json::{self, uint_digits, Json, Layout, Sink, Writer};
use crate::stats::{StatsSnapshot, TimeBreakdown, WireSnapshot};
use crate::sync::{lock, wait_while};
use crate::NodeId;

/// Metrics policy of one machine.
///
/// Unlike [`crate::trace::TraceConfig`] this carries an optional output
/// target (the stream path), so it is `Clone` rather than `Copy`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsConfig {
    /// Master switch. Off = no hub, no cuts, no threads.
    pub enabled: bool,
    /// Append one JSONL line per phase record to this file, live; at
    /// teardown the merged timeline lands next to it as
    /// `{stream}.timeline.json`.
    pub stream: Option<String>,
}

impl MetricsConfig {
    /// Metrics disabled.
    pub fn off() -> MetricsConfig {
        MetricsConfig::default()
    }

    /// Metrics enabled, in-memory only (drain via `Machine::timeline`).
    pub fn on() -> MetricsConfig {
        MetricsConfig { enabled: true, stream: None }
    }

    /// Metrics enabled, streaming JSONL records to `path` as they are cut.
    pub fn stream(path: impl Into<String>) -> MetricsConfig {
        MetricsConfig { enabled: true, stream: Some(path.into()) }
    }

    /// Parse a `PRESCIENT_METRICS` value: `0`/`off` disable, `1`/`on`
    /// enable in-memory, `stream:PATH` streams JSONL to PATH.
    /// (`runtime::env` owns the variable and the wording of its error.)
    pub fn parse(s: &str) -> Result<MetricsConfig, String> {
        match s.trim() {
            "0" | "off" => Ok(MetricsConfig::off()),
            "1" | "on" => Ok(MetricsConfig::on()),
            t => match t.strip_prefix("stream:") {
                Some("") => Err("\"stream:\" needs a file path".to_string()),
                Some(path) => Ok(MetricsConfig::stream(path)),
                None => Err("unknown mode".to_string()),
            },
        }
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
        encode_sparse(&self.counts, &mut [0; SPARSE_MAX]).to_string()
    }

    /// Inverse of [`LatencyHist::encode`]; `sum_ns`/`max_ns` travel as
    /// separate fields and are supplied by the caller.
    pub fn decode(s: &str, sum_ns: u64, max_ns: u64) -> Result<LatencyHist, String> {
        let mut counts = [0u64; Self::NUM_BUCKETS];
        decode_sparse(s, &mut counts)?;
        Ok(LatencyHist { counts, sum_ns, max_ns })
    }
}

/// Longest sparse encoding of at most [`LatencyHist::NUM_BUCKETS`]
/// counts: per bucket two index digits, `:`, twenty count digits and a
/// space.
const SPARSE_MAX: usize = LatencyHist::NUM_BUCKETS * 24;

/// The sparse encoding of `counts`, built in `buf` (a stream line writes
/// two of these, so they stay off the heap).
fn encode_sparse<'b>(counts: &[u64], buf: &'b mut [u8; SPARSE_MAX]) -> &'b str {
    debug_assert!(counts.len() <= LatencyHist::NUM_BUCKETS);
    let mut len = 0;
    for (i, &c) in counts.iter().enumerate().filter(|(_, &c)| c > 0) {
        if len > 0 {
            buf[len] = b' ';
            len += 1;
        }
        // "i:c", built from the back.
        let mut entry = [0; 23];
        let colon = uint_digits(c, &mut entry) - 1;
        entry[colon] = b':';
        let at = uint_digits(i as u64, &mut entry[..colon]);
        buf[len..len + entry.len() - at].copy_from_slice(&entry[at..]);
        len += entry.len() - at;
    }
    std::str::from_utf8(&buf[..len]).unwrap_or("")
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
    /// Write the one-line JSON encoding — the stream format, also embedded
    /// verbatim in the `RunTimeline` JSON — as the writer's next value.
    pub fn write_json<W: Sink>(&self, w: &mut Writer<W>) {
        w.object(Layout::Compact);
        w.key("node").uint(self.node.into()).key("seq").uint(self.seq).key("run").uint(self.run);
        w.key("phase").uint(self.phase.into()).key("iter").uint(self.iter);
        w.key("version").uint(self.version);
        for (name, v) in self.vtime.fields().into_iter().chain(self.stats.fields()) {
            w.key(name).uint(v);
        }
        w.key("fetch_sum_ns").uint(self.fetch.sum_ns).key("fetch_max_ns").uint(self.fetch.max_ns);
        let mut hist = [0; SPARSE_MAX];
        w.key("fetch_hist").str(encode_sparse(&self.fetch.counts, &mut hist));
        if let Some(wire) = &self.wire {
            w.key("wire_batches").uint(wire.batches).key("wire_envelopes").uint(wire.envelopes);
            w.key("wire_hist").str(encode_sparse(&wire.hist, &mut hist));
        }
        w.end();
    }

    /// [`PhaseRecord::write_json`] into a fresh string.
    pub fn to_json_line(&self) -> String {
        let mut w = Writer::new(String::with_capacity(640), 0);
        self.write_json(&mut w);
        w.finish()
    }

    /// Parse one stream line. Inverse of [`PhaseRecord::to_json_line`].
    pub fn parse_line(line: &str) -> Result<PhaseRecord, String> {
        PhaseRecord::from_json(&json::parse(line)?)
    }

    /// Read a record back from its parsed line. Counters stay exact (the
    /// `reconciles_with` contract compares them for equality) and every
    /// narrowed field is range-checked.
    pub fn from_json(v: &Json<'_>) -> Result<PhaseRecord, String> {
        let mut stats = StatsSnapshot::default();
        for (name, slot) in stats.fields_mut() {
            *slot = v.int(name)?;
        }
        let fetch = LatencyHist::decode(
            v.string("fetch_hist")?,
            v.int("fetch_sum_ns")?,
            v.int("fetch_max_ns")?,
        )?;
        let wire = match v.field("wire_batches") {
            None => None,
            Some(_) => {
                let mut hist = [0u64; WireSnapshot::NUM_BUCKETS];
                decode_sparse(v.string("wire_hist")?, &mut hist)?;
                Some(WireSnapshot {
                    batches: v.int("wire_batches")?,
                    envelopes: v.int("wire_envelopes")?,
                    hist,
                })
            }
        };
        Ok(PhaseRecord {
            node: crate::trace::node_field(v)?,
            seq: v.int("seq")?,
            run: v.int("run")?,
            phase: v.int("phase")?,
            iter: v.int("iter")?,
            version: v.int("version")?,
            vtime: TimeBreakdown {
                compute_ns: v.int("compute_ns")?,
                wait_ns: v.int("wait_ns")?,
                presend_ns: v.int("presend_ns")?,
                synch_ns: v.int("synch_ns")?,
            },
            stats,
            fetch,
            wire,
        })
    }
}

#[derive(Default)]
struct HubState {
    /// Every record pushed (a keeping hub), or those the drainer has not
    /// taken yet (a queue).
    records: Vec<PhaseRecord>,
    /// Records pushed, ever.
    pushed: u64,
    /// The drainer holds a batch it has not finished writing.
    draining: bool,
    closed: bool,
}

/// The machine-wide collection point: every node pushes its cuts here.
/// Push is a short uncontended critical section (nodes cut at barriers,
/// so pushes are naturally staggered by the barrier's wake order).
///
/// Without a drainer the hub keeps every record (an in-memory machine,
/// read through [`MetricsHub::snapshot`]). With one — a streamed
/// machine's publisher, looping on [`MetricsHub::wait_more`] — it is a
/// queue: a record stays only until the drainer takes it to write.
#[derive(Default)]
pub struct MetricsHub {
    state: Mutex<HubState>,
    /// Records queued, or the hub closed.
    more: Condvar,
    /// The drainer finished a batch.
    written: Condvar,
}

impl MetricsHub {
    /// An empty, open hub.
    pub fn new() -> MetricsHub {
        MetricsHub::default()
    }

    /// Append one record and wake a waiting drainer.
    pub fn push(&self, r: PhaseRecord) {
        let mut st = lock(&self.state);
        st.records.push(r);
        st.pushed += 1;
        drop(st);
        self.more.notify_all();
    }

    /// Copy of every record the hub holds.
    pub fn snapshot(&self) -> Vec<PhaseRecord> {
        lock(&self.state).records.clone()
    }

    /// Mark the hub closed (no more records will arrive) and wake the
    /// drainer so it can exit.
    pub fn close(&self) {
        lock(&self.state).closed = true;
        self.more.notify_all();
    }

    /// The drainer's side of the queue. Finishes the previous batch (the
    /// drainer has written it, and `batch` comes back empty), then blocks
    /// until records are queued or the hub closes, and swaps what is
    /// queued into `batch`. Returns whether the hub is closed; a closed
    /// hub with nothing queued returns at once with `batch` empty, so a
    /// drain loop ends when it sees `(closed, empty)`.
    pub fn wait_more(&self, batch: &mut Vec<PhaseRecord>) -> bool {
        debug_assert!(batch.is_empty(), "the previous batch is written");
        let mut st = lock(&self.state);
        if std::mem::take(&mut st.draining) {
            self.written.notify_all();
        }
        let mut st = wait_while(&self.more, st, |st| st.records.is_empty() && !st.closed);
        std::mem::swap(&mut st.records, batch);
        st.draining = !batch.is_empty();
        st.closed
    }

    /// Block until the drainer has written every record queued so far;
    /// returns how many records were ever pushed.
    pub fn wait_written(&self) -> u64 {
        let st = lock(&self.state);
        wait_while(&self.written, st, |st| !st.records.is_empty() || st.draining).pushed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
        assert_eq!(MetricsConfig::parse("off").unwrap(), MetricsConfig::off());
        assert_eq!(MetricsConfig::parse("0").unwrap(), MetricsConfig::off());
        assert_eq!(MetricsConfig::parse("on").unwrap(), MetricsConfig::on());
        assert_eq!(MetricsConfig::parse("1").unwrap(), MetricsConfig::on());
        assert_eq!(
            MetricsConfig::parse("stream:/tmp/m.jsonl").unwrap(),
            MetricsConfig::stream("/tmp/m.jsonl")
        );
    }

    #[test]
    fn config_rejects_garbage() {
        for bad in
            ["", "maybe", "stream:", "tcp:", "tcp:127.0.0.1:0", "udp:x:1", "on,stream:x", "2"]
        {
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
            let (mut seen, mut batch) = (Vec::new(), Vec::new());
            loop {
                let closed = h2.wait_more(&mut batch);
                if closed && batch.is_empty() {
                    return seen;
                }
                seen.append(&mut batch);
            }
        });
        hub.push(sample_record(0, false));
        hub.push(sample_record(1, false));
        // A reader waits for the drainer, and the queue keeps nothing the
        // drainer took.
        assert_eq!(hub.wait_written(), 2);
        assert!(hub.snapshot().is_empty());
        hub.push(sample_record(2, false));
        hub.close();
        let seen = t.join().unwrap();
        assert_eq!(seen.iter().map(|r| r.node).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(hub.wait_written(), 3);
    }

    #[test]
    fn sparse_encoding_is_the_formatted_one() {
        let mut counts = [0u64; LatencyHist::NUM_BUCKETS];
        assert_eq!(encode_sparse(&counts, &mut [0; SPARSE_MAX]), "");
        counts.iter_mut().enumerate().for_each(|(i, c)| *c = u64::MAX - i as u64);
        let want: Vec<String> =
            counts.iter().enumerate().map(|(i, c)| format!("{i}:{c}")).collect();
        assert_eq!(encode_sparse(&counts, &mut [0; SPARSE_MAX]), want.join(" "));
        assert_eq!(encode_sparse(&[0, 5, 0, 1], &mut [0; SPARSE_MAX]), "1:5 3:1");
    }
}
