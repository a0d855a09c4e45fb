//! The text boundary, end to end: what the program writes is
//! byte-identical to what its hand-rolled writers wrote at the parent
//! commit, what it reads — JSON, `PRESCIENT_*` values, C\*\* source — is
//! safe on hostile bytes, and the `PRESCIENT_*` table is the one the
//! README prints.

mod hostile;

use std::collections::{BTreeMap, HashMap};
use std::time::Duration;

use prescient::cstar::diag::{codes, Diagnostic, Span};
use prescient::cstar::directives::{CallDecision, DirectivePlan, ExecOp, PhaseAssignment};
use prescient::cstar::parser::MAX_DEPTH;
use prescient::cstar::{compile_diag, lint_program};
use prescient::runtime::{env, MachineConfig, NodeReport, PlacementSpec, RunReport, RunTimeline};
use prescient::tempest::json::{self, Json};
use prescient::tempest::stats::StatsSnapshot;
use prescient::tempest::trace::{
    pack_fault_end, pack_msg, pack_peer_count, to_chrome_json, to_jsonl, EventKind, TraceEvent,
};
use prescient::tempest::{
    CrashPlan, LatencyHist, MetricsConfig, PhaseRecord, TimeBreakdown, TraceConfig, WireSnapshot,
};

// ---- fixtures (small, fixed, and the same at the parent commit) -----------

fn events() -> Vec<TraceEvent> {
    let ev = |node, seq, t_ns, phase, kind, a, b| TraceEvent { node, seq, t_ns, phase, kind, a, b };
    vec![
        ev(0, 0, 0, 0, EventKind::PhaseBegin, 3, 0),
        ev(0, 1, 10, 3, EventKind::FaultBegin, 7, 1),
        ev(1, 0, 10, 3, EventKind::MsgRecv, pack_msg(2, 0), 7),
        ev(0, 2, 1510, 3, EventKind::FaultEnd, 7, pack_fault_end(true, 2, 1)),
        ev(1, 1, 1600, 3, EventKind::WireFlush, pack_peer_count(0, 4), 99),
        ev(0, 3, 2001, 3, EventKind::PhaseEnd, 3, 0),
        ev(1, 2, 2500, 3, EventKind::BarrierEnter, 0, 0),
        ev(1, 3, u64::MAX, u32::MAX, EventKind::MergeEnd, u64::MAX, u64::MAX),
    ]
}

fn record(node: u16, with_wire: bool) -> PhaseRecord {
    let stats = StatsSnapshot {
        reads: 100,
        msgs_out: 7,
        data_bytes_in: 4096,
        read_misses: 3,
        presend_blocks_out: 5,
        presend_bytes_out: 640,
        // One line carries `u64::MAX`: it must come back exactly.
        merge_chunks_out: if node == 3 { u64::MAX } else { 2 },
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

fn report() -> RunReport {
    let node = |node: u16, k: u64| NodeReport {
        node,
        breakdown: TimeBreakdown {
            compute_ns: 1000 * k,
            wait_ns: 200 * k,
            presend_ns: 30 * k,
            synch_ns: 4 * k,
        },
        stats: StatsSnapshot {
            reads: 1000 * k,
            writes: 10 * k,
            read_misses: 7 * k,
            write_misses: k,
            msgs_out: 40 * k,
            presend_blocks_out: 3 * k,
            presend_bytes_out: 384 * k,
            data_bytes_in: 1024 * k,
            presend_useless: k,
            checkpoints: 2,
            checkpoint_bytes: 8192,
            ..Default::default()
        },
        unused_presends: k,
    };
    let mut wire = WireSnapshot { batches: 9, envelopes: 31, hist: [0; 8] };
    wire.hist[0] = 4;
    wire.hist[3] = 5;
    RunReport { per_node: vec![node(0, 1), node(1, 3)], wall: Duration::from_millis(1234), wire }
}

fn diags() -> Vec<Diagnostic> {
    vec![
        Diagnostic::warning(codes::PHASE_CONFLICT, "phase 1 reads and writes `A`")
            .with_label(Span::new(3, 9, 1), "read \"here\"")
            .with_label(Span::new(12, 14, 2), "write here\nand\tthere\\")
            .with_note("the predictive protocol will self-disable (§3.4)")
            .with_note("bell \u{1} and cr \r")
            .with_file("dir/x.cstar"),
        Diagnostic::error(codes::LEX, "unexpected character `$`"),
    ]
}

fn plan() -> DirectivePlan {
    let mut calls = BTreeMap::new();
    calls.insert(0, CallDecision { needs: true, home_only: false, phase: Some(1) });
    calls.insert(1, CallDecision { needs: false, home_only: true, phase: None });
    calls.insert(5, CallDecision { needs: true, home_only: true, phase: Some(2) });
    DirectivePlan {
        assignment: PhaseAssignment { calls, n_phases: 2 },
        ops: vec![
            ExecOp::LoopBegin { label: "t \"outer\"".into(), lo: -2, hi: 10 },
            ExecOp::PhaseBegin(1),
            ExecOp::Call(0),
            ExecOp::CommutativeMerge { phase: 1, agg: "hist".into(), call: 0 },
            ExecOp::PhaseEnd(1),
            ExecOp::Call(1),
            ExecOp::LoopEnd,
        ],
    }
}

// ---- goldens: captured at the parent commit (fbd2f3b) ---------------------
//
// Each literal below is what the parent's hand-rolled writer returned for
// the fixture above it, printed with `{:?}` from a scratch copy of that
// commit. The benchmark harness reads `trace.jsonl`, `trace.json` and
// `{stream}.timeline.json`, CI reads `BENCH_prescient.json`, and people's
// scripts read the rest: none of them may see a byte move.

const JSONL: &str = "{\"node\":0,\"seq\":0,\"t\":0,\"phase\":0,\"kind\":\"PhaseBegin\",\"a\":3,\"b\":0}\n{\"node\":0,\"seq\":1,\"t\":10,\"phase\":3,\"kind\":\"FaultBegin\",\"a\":7,\"b\":1}\n{\"node\":1,\"seq\":0,\"t\":10,\"phase\":3,\"kind\":\"MsgRecv\",\"a\":131072,\"b\":7}\n{\"node\":0,\"seq\":2,\"t\":1510,\"phase\":3,\"kind\":\"FaultEnd\",\"a\":7,\"b\":4294967301}\n{\"node\":1,\"seq\":1,\"t\":1600,\"phase\":3,\"kind\":\"WireFlush\",\"a\":4,\"b\":99}\n{\"node\":0,\"seq\":3,\"t\":2001,\"phase\":3,\"kind\":\"PhaseEnd\",\"a\":3,\"b\":0}\n{\"node\":1,\"seq\":2,\"t\":2500,\"phase\":3,\"kind\":\"BarrierEnter\",\"a\":0,\"b\":0}\n{\"node\":1,\"seq\":3,\"t\":18446744073709551615,\"phase\":4294967295,\"kind\":\"MergeEnd\",\"a\":18446744073709551615,\"b\":18446744073709551615}\n";
const CHROME: &str = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"node 0\"}},\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"phase\"}},\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":1,\"args\":{\"name\":\"compute\"}},\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":2,\"args\":{\"name\":\"protocol\"}},\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":0,\"tid\":3,\"args\":{\"name\":\"wire\"}},\n{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"node 1\"}},\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"phase\"}},\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"compute\"}},\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":2,\"args\":{\"name\":\"protocol\"}},\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":3,\"args\":{\"name\":\"wire\"}},\n{\"ph\":\"i\",\"s\":\"t\",\"name\":\"MsgRecv\",\"cat\":\"protocol\",\"pid\":1,\"tid\":2,\"ts\":0.010,\"args\":{\"phase\":3,\"a\":131072,\"b\":7}},\n{\"ph\":\"X\",\"name\":\"FaultBegin\",\"cat\":\"compute\",\"pid\":0,\"tid\":1,\"ts\":0.010,\"dur\":1.500,\"args\":{\"phase\":3,\"a\":7,\"b\":4294967301}},\n{\"ph\":\"i\",\"s\":\"t\",\"name\":\"WireFlush\",\"cat\":\"wire\",\"pid\":1,\"tid\":3,\"ts\":1.600,\"args\":{\"phase\":3,\"a\":4,\"b\":99}},\n{\"ph\":\"X\",\"name\":\"PhaseBegin\",\"cat\":\"phase\",\"pid\":0,\"tid\":0,\"ts\":0.000,\"dur\":2.001,\"args\":{\"phase\":0,\"a\":3,\"b\":0}},\n{\"ph\":\"i\",\"s\":\"t\",\"name\":\"MergeEnd\",\"cat\":\"compute\",\"pid\":1,\"tid\":1,\"ts\":18446744073709552.000,\"args\":{\"phase\":4294967295,\"a\":18446744073709551615,\"b\":18446744073709551615}},\n{\"ph\":\"i\",\"s\":\"t\",\"name\":\"BarrierEnter(unclosed)\",\"cat\":\"compute\",\"pid\":1,\"tid\":1,\"ts\":2.500,\"args\":{\"phase\":3,\"a\":0,\"b\":0}}\n]}\n";
const CHROME_EMPTY: &str = "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n\n]}\n";
const LINE_WIRE: &str = "{\"node\":3,\"seq\":2,\"run\":1,\"phase\":4,\"iter\":1,\"version\":9,\"compute_ns\":10,\"wait_ns\":20,\"presend_ns\":0,\"synch_ns\":5,\"reads\":100,\"writes\":0,\"read_misses\":3,\"write_misses\":0,\"slow_misses\":0,\"invals_in\":0,\"recalls_in\":0,\"msgs_out\":7,\"presend_blocks_out\":5,\"presend_msgs_out\":0,\"presend_bytes_out\":640,\"presend_blocks_in\":0,\"sched_records\":0,\"presend_races\":0,\"retries\":0,\"presend_retries\":0,\"dup_reqs_in\":0,\"stale_msgs_in\":0,\"stale_grants_in\":0,\"presend_stale_in\":0,\"presend_aborted\":0,\"data_bytes_in\":4096,\"presend_useless\":0,\"degrade_events\":0,\"checkpoints\":0,\"checkpoint_bytes\":0,\"recoveries\":0,\"replays\":0,\"remapped_blocks\":0,\"merge_chunks_out\":18446744073709551615,\"fetch_sum_ns\":2700,\"fetch_max_ns\":1800,\"fetch_hist\":\"0:1 9:1 10:1\",\"wire_batches\":5,\"wire_envelopes\":12,\"wire_hist\":\"0:3 2:2\"}";
const LINE_PLAIN: &str = "{\"node\":0,\"seq\":2,\"run\":1,\"phase\":4,\"iter\":1,\"version\":9,\"compute_ns\":10,\"wait_ns\":20,\"presend_ns\":0,\"synch_ns\":5,\"reads\":100,\"writes\":0,\"read_misses\":3,\"write_misses\":0,\"slow_misses\":0,\"invals_in\":0,\"recalls_in\":0,\"msgs_out\":7,\"presend_blocks_out\":5,\"presend_msgs_out\":0,\"presend_bytes_out\":640,\"presend_blocks_in\":0,\"sched_records\":0,\"presend_races\":0,\"retries\":0,\"presend_retries\":0,\"dup_reqs_in\":0,\"stale_msgs_in\":0,\"stale_grants_in\":0,\"presend_stale_in\":0,\"presend_aborted\":0,\"data_bytes_in\":4096,\"presend_useless\":0,\"degrade_events\":0,\"checkpoints\":0,\"checkpoint_bytes\":0,\"recoveries\":0,\"replays\":0,\"remapped_blocks\":0,\"merge_chunks_out\":2,\"fetch_sum_ns\":2700,\"fetch_max_ns\":1800,\"fetch_hist\":\"0:1 9:1 10:1\"}";
const GATE: &str = "      \"wall_ms\": 1234,\n      \"vtime_ns\": 3702,\n      \"msgs\": 160,\n      \"bytes_moved\": 5632,\n      \"blocks_moved\": 44,\n      \"misses\": 32,\n      \"presend_blocks\": 12,\n      \"presend_useless\": 4,\n      \"wire_batches\": 9,\n      \"wire_occupancy\": 3.44,\n      \"wire_hist\": {\"1\": 4, \"2\": 0, \"3-4\": 0, \"5-8\": 5, \"9-16\": 0, \"17-32\": 0, \"33-64\": 0, \"65+\": 0},\n      \"checkpoints\": 4,\n      \"checkpoint_bytes\": 16384,\n      \"recoveries\": 0,\n      \"replays\": 0,\n      \"remapped_blocks\": 0,\n      \"local_pct\": 99.21";
const REPORT: &str = "{\n  \"wall_ms\": 1234,\n  \"vtime_ns\": 3702,\n  \"msgs\": 160,\n  \"bytes_moved\": 5632,\n  \"blocks_moved\": 44,\n  \"misses\": 32,\n  \"presend_blocks\": 12,\n  \"presend_useless\": 4,\n  \"wire_batches\": 9,\n  \"wire_occupancy\": 3.44,\n  \"wire_hist\": {\"1\": 4, \"2\": 0, \"3-4\": 0, \"5-8\": 5, \"9-16\": 0, \"17-32\": 0, \"33-64\": 0, \"65+\": 0},\n  \"checkpoints\": 4,\n  \"checkpoint_bytes\": 16384,\n  \"recoveries\": 0,\n  \"replays\": 0,\n  \"remapped_blocks\": 0,\n  \"local_pct\": 99.21,\n  \"mean_breakdown\": {\"compute_ns\": 2000, \"wait_ns\": 400, \"presend_ns\": 60, \"synch_ns\": 8},\n  \"totals\": {\"reads\": 4000, \"writes\": 40, \"read_misses\": 28, \"write_misses\": 4, \"slow_misses\": 0, \"invals_in\": 0, \"recalls_in\": 0, \"msgs_out\": 160, \"presend_blocks_out\": 12, \"presend_msgs_out\": 0, \"presend_bytes_out\": 1536, \"presend_blocks_in\": 0, \"sched_records\": 0, \"presend_races\": 0, \"retries\": 0, \"presend_retries\": 0, \"dup_reqs_in\": 0, \"stale_msgs_in\": 0, \"stale_grants_in\": 0, \"presend_stale_in\": 0, \"presend_aborted\": 0, \"data_bytes_in\": 4096, \"presend_useless\": 4, \"degrade_events\": 0, \"checkpoints\": 4, \"checkpoint_bytes\": 16384, \"recoveries\": 0, \"replays\": 0, \"remapped_blocks\": 0, \"merge_chunks_out\": 0},\n  \"per_node\": [\n    {\n      \"node\": 0,\n      \"breakdown\": {\"compute_ns\": 1000, \"wait_ns\": 200, \"presend_ns\": 30, \"synch_ns\": 4},\n      \"unused_presends\": 1,\n      \"stats\": {\"reads\": 1000, \"writes\": 10, \"read_misses\": 7, \"write_misses\": 1, \"slow_misses\": 0, \"invals_in\": 0, \"recalls_in\": 0, \"msgs_out\": 40, \"presend_blocks_out\": 3, \"presend_msgs_out\": 0, \"presend_bytes_out\": 384, \"presend_blocks_in\": 0, \"sched_records\": 0, \"presend_races\": 0, \"retries\": 0, \"presend_retries\": 0, \"dup_reqs_in\": 0, \"stale_msgs_in\": 0, \"stale_grants_in\": 0, \"presend_stale_in\": 0, \"presend_aborted\": 0, \"data_bytes_in\": 1024, \"presend_useless\": 1, \"degrade_events\": 0, \"checkpoints\": 2, \"checkpoint_bytes\": 8192, \"recoveries\": 0, \"replays\": 0, \"remapped_blocks\": 0, \"merge_chunks_out\": 0}\n    },\n    {\n      \"node\": 1,\n      \"breakdown\": {\"compute_ns\": 3000, \"wait_ns\": 600, \"presend_ns\": 90, \"synch_ns\": 12},\n      \"unused_presends\": 3,\n      \"stats\": {\"reads\": 3000, \"writes\": 30, \"read_misses\": 21, \"write_misses\": 3, \"slow_misses\": 0, \"invals_in\": 0, \"recalls_in\": 0, \"msgs_out\": 120, \"presend_blocks_out\": 9, \"presend_msgs_out\": 0, \"presend_bytes_out\": 1152, \"presend_blocks_in\": 0, \"sched_records\": 0, \"presend_races\": 0, \"retries\": 0, \"presend_retries\": 0, \"dup_reqs_in\": 0, \"stale_msgs_in\": 0, \"stale_grants_in\": 0, \"presend_stale_in\": 0, \"presend_aborted\": 0, \"data_bytes_in\": 3072, \"presend_useless\": 3, \"degrade_events\": 0, \"checkpoints\": 2, \"checkpoint_bytes\": 8192, \"recoveries\": 0, \"replays\": 0, \"remapped_blocks\": 0, \"merge_chunks_out\": 0}\n    }\n  ]\n}\n";
const TIMELINE: &str = "{\n\"nodes\": 2,\n\"records\": [\n{\"node\":0,\"seq\":2,\"run\":1,\"phase\":4,\"iter\":1,\"version\":9,\"compute_ns\":10,\"wait_ns\":20,\"presend_ns\":0,\"synch_ns\":5,\"reads\":100,\"writes\":0,\"read_misses\":3,\"write_misses\":0,\"slow_misses\":0,\"invals_in\":0,\"recalls_in\":0,\"msgs_out\":7,\"presend_blocks_out\":5,\"presend_msgs_out\":0,\"presend_bytes_out\":640,\"presend_blocks_in\":0,\"sched_records\":0,\"presend_races\":0,\"retries\":0,\"presend_retries\":0,\"dup_reqs_in\":0,\"stale_msgs_in\":0,\"stale_grants_in\":0,\"presend_stale_in\":0,\"presend_aborted\":0,\"data_bytes_in\":4096,\"presend_useless\":0,\"degrade_events\":0,\"checkpoints\":0,\"checkpoint_bytes\":0,\"recoveries\":0,\"replays\":0,\"remapped_blocks\":0,\"merge_chunks_out\":2,\"fetch_sum_ns\":2700,\"fetch_max_ns\":1800,\"fetch_hist\":\"0:1 9:1 10:1\",\"wire_batches\":5,\"wire_envelopes\":12,\"wire_hist\":\"0:3 2:2\"},\n{\"node\":1,\"seq\":2,\"run\":1,\"phase\":4,\"iter\":1,\"version\":9,\"compute_ns\":10,\"wait_ns\":20,\"presend_ns\":0,\"synch_ns\":5,\"reads\":100,\"writes\":0,\"read_misses\":3,\"write_misses\":0,\"slow_misses\":0,\"invals_in\":0,\"recalls_in\":0,\"msgs_out\":7,\"presend_blocks_out\":5,\"presend_msgs_out\":0,\"presend_bytes_out\":640,\"presend_blocks_in\":0,\"sched_records\":0,\"presend_races\":0,\"retries\":0,\"presend_retries\":0,\"dup_reqs_in\":0,\"stale_msgs_in\":0,\"stale_grants_in\":0,\"presend_stale_in\":0,\"presend_aborted\":0,\"data_bytes_in\":4096,\"presend_useless\":0,\"degrade_events\":0,\"checkpoints\":0,\"checkpoint_bytes\":0,\"recoveries\":0,\"replays\":0,\"remapped_blocks\":0,\"merge_chunks_out\":2,\"fetch_sum_ns\":2700,\"fetch_max_ns\":1800,\"fetch_hist\":\"0:1 9:1 10:1\"}\n],\n\"phases\": [\n{\"run\": 1, \"phase\": 4, \"iter\": 1, \"cuts\": 2, \"vtime_ns\": 35, \"msgs\": 14, \"bytes_moved\": 9472, \"blocks_moved\": 16, \"misses\": 6, \"presend_blocks\": 10, \"presend_useless\": 0, \"fetch_mean_ns\": 900, \"wire_batches\": 5, \"wire_occupancy\": 2.40}\n],\n\"totals\": {\"reads\": 200, \"writes\": 0, \"read_misses\": 6, \"write_misses\": 0, \"slow_misses\": 0, \"invals_in\": 0, \"recalls_in\": 0, \"msgs_out\": 14, \"presend_blocks_out\": 10, \"presend_msgs_out\": 0, \"presend_bytes_out\": 1280, \"presend_blocks_in\": 0, \"sched_records\": 0, \"presend_races\": 0, \"retries\": 0, \"presend_retries\": 0, \"dup_reqs_in\": 0, \"stale_msgs_in\": 0, \"stale_grants_in\": 0, \"presend_stale_in\": 0, \"presend_aborted\": 0, \"data_bytes_in\": 8192, \"presend_useless\": 0, \"degrade_events\": 0, \"checkpoints\": 0, \"checkpoint_bytes\": 0, \"recoveries\": 0, \"replays\": 0, \"remapped_blocks\": 0, \"merge_chunks_out\": 4}\n}\n";
const TIMELINE_EMPTY: &str = "{\n\"nodes\": 1,\n\"records\": [\n],\n\"phases\": [\n],\n\"totals\": {\"reads\": 0, \"writes\": 0, \"read_misses\": 0, \"write_misses\": 0, \"slow_misses\": 0, \"invals_in\": 0, \"recalls_in\": 0, \"msgs_out\": 0, \"presend_blocks_out\": 0, \"presend_msgs_out\": 0, \"presend_bytes_out\": 0, \"presend_blocks_in\": 0, \"sched_records\": 0, \"presend_races\": 0, \"retries\": 0, \"presend_retries\": 0, \"dup_reqs_in\": 0, \"stale_msgs_in\": 0, \"stale_grants_in\": 0, \"presend_stale_in\": 0, \"presend_aborted\": 0, \"data_bytes_in\": 0, \"presend_useless\": 0, \"degrade_events\": 0, \"checkpoints\": 0, \"checkpoint_bytes\": 0, \"recoveries\": 0, \"replays\": 0, \"remapped_blocks\": 0, \"merge_chunks_out\": 0}\n}\n";
const DIAGS: &str = "[{\"code\":\"W001\",\"severity\":\"warning\",\"message\":\"phase 1 reads and writes `A`\",\"file\":\"dir/x.cstar\",\"labels\":[{\"lo\":3,\"hi\":9,\"line\":1,\"text\":\"read \\\"here\\\"\"},{\"lo\":12,\"hi\":14,\"line\":2,\"text\":\"write here\\nand\\tthere\\\\\"}],\"notes\":[\"the predictive protocol will self-disable (§3.4)\",\"bell \\u0001 and cr \\r\"]},{\"code\":\"E001\",\"severity\":\"error\",\"message\":\"unexpected character `$`\",\"labels\":[],\"notes\":[]}]";
const PLAN: &str = "{\"n_phases\":2,\"calls\":[{\"id\":0,\"needs\":1,\"home_only\":0,\"phase\":1},{\"id\":1,\"needs\":0,\"home_only\":1},{\"id\":5,\"needs\":1,\"home_only\":1,\"phase\":2}],\"ops\":[{\"op\":\"loop_begin\",\"label\":\"t \\\"outer\\\"\",\"lo\":-2,\"hi\":10},{\"op\":\"phase_begin\",\"phase\":1},{\"op\":\"call\",\"id\":0},{\"op\":\"commutative_merge\",\"agg\":\"hist\",\"phase\":1,\"call\":0},{\"op\":\"phase_end\",\"phase\":1},{\"op\":\"call\",\"id\":1},{\"op\":\"loop_end\"}]}";

#[test]
fn trace_exports_are_byte_identical_to_the_parent() {
    assert_eq!(to_jsonl(&events()), JSONL);
    assert_eq!(to_jsonl(&[]), "");
    assert_eq!(to_chrome_json(&events()), CHROME);
    assert_eq!(to_chrome_json(&[]), CHROME_EMPTY);
}

#[test]
fn metrics_lines_and_timeline_are_byte_identical_to_the_parent() {
    assert_eq!(record(3, true).to_json_line(), LINE_WIRE);
    assert_eq!(record(0, false).to_json_line(), LINE_PLAIN);
    let timeline = RunTimeline::new(2, vec![record(0, true), record(1, false)]);
    assert_eq!(timeline.to_json(), TIMELINE);
    assert_eq!(RunTimeline::new(1, vec![]).to_json(), TIMELINE_EMPTY);
}

#[test]
fn run_report_and_gate_counters_are_byte_identical_to_the_parent() {
    assert_eq!(report().gate_counters_json("      "), GATE);
    assert_eq!(report().to_json(), REPORT);
}

#[test]
fn compiler_output_is_byte_identical_to_the_parent() {
    assert_eq!(Diagnostic::json_array(&diags()), DIAGS);
    assert_eq!(Diagnostic::json_array(&[]), "[]");
    assert_eq!(plan().to_json(), PLAN);
}

#[test]
fn every_golden_reads_back_through_the_one_reader() {
    for line in JSONL.lines().chain([LINE_WIRE, LINE_PLAIN, DIAGS, PLAN]) {
        json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
    }
    for doc in [CHROME, CHROME_EMPTY, REPORT, TIMELINE, TIMELINE_EMPTY] {
        json::parse(doc).unwrap_or_else(|e| panic!("{e}: {doc}"));
    }
    json::parse(&format!("{{\n{GATE}\n}}")).expect("the gate fragment is an object body");
    // Exact integers: `u64::MAX` survives a metrics line and a trace line.
    assert_eq!(PhaseRecord::parse_line(LINE_WIRE).expect("parses"), record(3, true));
    assert_eq!(PhaseRecord::parse_line(LINE_PLAIN).expect("parses"), record(0, false));
    let last = json::parse(JSONL.lines().last().expect("lines")).expect("parses");
    assert_eq!(TraceEvent::from_json(&last).expect("reads"), *events().last().expect("events"));
}

// ---- hostile input ----------------------------------------------------------

/// The typed parsers of the crates this package can see; the bench
/// crate's two are held to the same table in its own test.
fn typed_parsers_reject(row: &hostile::Row) {
    let t = &row.text;
    assert!(PhaseRecord::parse_line(t).is_err(), "{}: phase record", row.name);
    let event = json::parse(t).and_then(|v| TraceEvent::from_json(&v));
    assert!(event.is_err(), "{}: trace event", row.name);
}

#[test]
fn hostile_table_never_panics_and_answers_as_tabled() {
    for row in hostile::rows() {
        assert_eq!(json::parse(&row.text).is_ok(), row.json_ok, "{}", row.name);
        typed_parsers_reject(&row);
    }
    // Not in the `Ok` column by accident: the values are the right ones.
    assert_eq!(json::parse(r#"{"a":1,"a":2}"#).expect("ok").int::<u8>("a"), Ok(1));
    assert_eq!(json::parse(r#""\ud83d\ude00""#).expect("ok").as_str(), Some("\u{1f600}"));
    assert_eq!(json::parse("-0").expect("ok"), Json::Int(0));
    let max = format!("[{}, {}]", u64::MAX, i64::MIN);
    assert_eq!(
        json::parse(&max).expect("ok"),
        Json::Arr(vec![Json::Int(u64::MAX.into()), Json::Int(i64::MIN.into())])
    );
}

#[test]
fn every_truncation_of_a_valid_document_is_an_error() {
    let docs = [
        ("trace line", JSONL.lines().next().expect("lines")),
        ("metrics line", LINE_WIRE),
        ("diagnostics", DIAGS),
        ("plan", PLAN),
        ("timeline", TIMELINE),
        ("chrome export", CHROME),
        ("run report", REPORT),
    ];
    for (what, doc) in docs {
        for row in hostile::prefixes(what, doc) {
            assert!(json::parse(&row.text).is_err(), "{}", row.name);
            typed_parsers_reject(&row);
        }
    }
}

#[test]
fn narrowing_is_checked_and_names_the_field() {
    let line = |node: &str, phase: &str, a: &str| {
        format!(
            "{{\"node\":{node},\"seq\":0,\"t\":0,\"phase\":{phase},\"kind\":\"MsgRecv\",\
             \"a\":{a},\"b\":0}}"
        )
    };
    let event = |text: String| json::parse(&text).and_then(|v| TraceEvent::from_json(&v));
    assert_eq!(event(line("63", "4294967295", "1")).expect("in range").node, 63);
    // A garbled line must not become another node's event (`as` would
    // have made 65600 node 64 -> 64, 4294967296 phase 0, -1 a huge id).
    for (node, phase, a, field) in [
        ("64", "0", "1", "`node`"),
        ("65600", "0", "1", "`node`"),
        ("-1", "0", "1", "`node`"),
        ("1", "4294967296", "1", "`phase`"),
        ("1", "-3", "1", "`phase`"),
        ("1", "0", "1.0", "`a`"),
        ("1", "0", "\"7\"", "`a`"),
        ("1", "0", "18446744073709551616", "`a`"),
    ] {
        let err = event(line(node, phase, a)).expect_err(field);
        assert!(err.contains(field), "{node}/{phase}/{a}: {err}");
    }
    // The same rule on a metrics line.
    let bad_node = LINE_PLAIN.replacen("\"node\":0", "\"node\":64", 1);
    assert!(PhaseRecord::parse_line(&bad_node).expect_err("node").contains("`node`"));
    let bad_phase = LINE_PLAIN.replacen("\"phase\":4", "\"phase\":4294967296", 1);
    assert!(PhaseRecord::parse_line(&bad_phase).expect_err("phase").contains("`phase`"));
}

// ---- C** source -------------------------------------------------------------

/// What `cstar-lint` does with a source: compile it, then lint it. Any
/// answer will do; it must come back, not panic or abort. An error is the
/// diagnostic's message.
fn compile_and_lint(src: &str) -> Result<usize, String> {
    let prog = compile_diag(src, true, Default::default()).map_err(|d| d.message)?;
    Ok(lint_program(&prog).len())
}

/// `body` as the statement list of a one-aggregate parallel function.
fn in_fn(body: &str) -> String {
    format!("aggregate A[4] of float;\nparallel fn f(a) {{ {body} }}\nfn main() {{ f(A); }}\n")
}

#[test]
fn every_prefix_of_every_cstar_source_compiles_or_is_diagnosed() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = 0;
    for dir in ["examples", "crates/cstar/tests/lints", "crates/bench/models"] {
        for entry in std::fs::read_dir(root.join(dir)).expect("fixture directory") {
            let path = entry.expect("entry").path();
            if path.extension().is_some_and(|e| e == "cstar") {
                let src = std::fs::read_to_string(&path).expect("fixture");
                files += 1;
                for end in (0..=src.len()).filter(|&i| src.is_char_boundary(i)) {
                    let _ = compile_and_lint(&src[..end]);
                }
                assert!(compile_and_lint(&src).is_ok() || dir.ends_with("lints"), "{path:?}");
            }
        }
    }
    assert!(files >= 10, "only {files} C** sources found");
}

#[test]
fn hostile_cstar_is_a_diagnostic_not_an_abort() {
    let deep = 10 * MAX_DEPTH;
    let parens = |n: usize| in_fn(&format!("a[#0] = {}1{};", "(".repeat(n), ")".repeat(n)));
    let nesting = Some("nesting deeper");
    let rows = [
        ("parens at 10x the bound", parens(deep), nesting),
        (
            "negations at 10x the bound",
            in_fn(&format!("a[#0] = {}1.0;", "-".repeat(deep))),
            nesting,
        ),
        (
            "ifs at 10x the bound",
            in_fn(&format!("{}a[#0] = 1.0;", "if 1 < 2 { ".repeat(deep))),
            nesting,
        ),
        ("10 000 parens", parens(10_000), nesting),
        ("200 000 negations", in_fn(&format!("a[#0] = {}1;", "-".repeat(200_000))), nesting),
        ("position #99", in_fn("a[#99] = 1.0;"), Some("#0 and #1")),
        ("integer past i64", in_fn("a[#0] = 9223372036854775808;"), None),
        ("a stray `..`", in_fn("a[#0] = 1 .. 2;"), None),
        ("`..` for an expression", in_fn("a[#0] = ..;"), None),
        ("a non-ASCII token", in_fn("a[#0] = é;"), None),
        ("a non-ASCII identifier", "aggregate Ä[4] of float;\nfn main() {}\n".into(), None),
        ("an emoji", in_fn("a[#0] = 1.0 \u{1f600} 2.0;"), None),
        ("a lone `#`", in_fn("a[#] = 1.0;"), None),
    ];
    for (name, src, want) in rows {
        let err = compile_and_lint(&src).expect_err(name);
        assert!(want.is_none_or(|w| err.contains(w)), "{name}: {err}");
    }
}

// ---- the PRESCIENT_* table ------------------------------------------------

/// A machine configuration with exactly `vars` in its environment.
fn configured(vars: &[(&str, &str)]) -> Result<MachineConfig, String> {
    let vars: HashMap<String, String> =
        vars.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
    let mut cfg = MachineConfig::stache(4, 32);
    env::apply(&mut cfg, &|name| vars.get(name).cloned())?;
    Ok(cfg)
}

#[test]
fn every_variable_takes_its_valid_forms() {
    let trace = |v| configured(&[("PRESCIENT_TRACE", v)]).expect(v).trace;
    assert_eq!(trace("on"), TraceConfig::on());
    assert_eq!(trace("1"), TraceConfig::on());
    assert_eq!(trace("off"), TraceConfig::off());
    assert_eq!(trace("0"), TraceConfig::off());
    assert_eq!(trace("5000"), TraceConfig::with_capacity(5000));
    let metrics = |v| configured(&[("PRESCIENT_METRICS", v)]).expect(v).metrics;
    assert_eq!(metrics("on"), MetricsConfig::on());
    assert_eq!(metrics("1"), MetricsConfig::on());
    assert_eq!(metrics("off"), MetricsConfig::off());
    assert_eq!(metrics("0"), MetricsConfig::off());
    assert_eq!(metrics("stream:/tmp/m.jsonl"), MetricsConfig::stream("/tmp/m.jsonl"));
    // A value holding a `:` of its own is all path.
    assert_eq!(metrics("stream:a:b"), MetricsConfig::stream("a:b"));

    let crash = configured(&[("PRESCIENT_CRASH", "3@7")]).expect("3@7");
    assert_eq!(crash.crash, Some(CrashPlan::new(3, 7)));
    assert!(crash.checkpoints, "an injected crash brings checkpointing along");
    for off in ["off", "OFF", "0"] {
        let cfg = configured(&[("PRESCIENT_CRASH", off)]).expect(off);
        assert!(cfg.crash.is_none() && !cfg.checkpoints, "{off}");
    }

    assert!(configured(&[("PRESCIENT_PLACEMENT", "off")]).expect("off").placement.is_off());
    let remap = std::env::temp_dir().join(format!("text_boundary_{}.remap", std::process::id()));
    std::fs::write(&remap, "7 2\n9 0\n").expect("write remap");
    let value = format!("remap:{}", remap.display());
    let placed = configured(&[("PRESCIENT_PLACEMENT", &value)]).expect("remap").placement;
    std::fs::remove_file(&remap).ok();
    assert!(matches!(placed, PlacementSpec::Remap(ref m) if m.len() == 2), "{placed:?}");

    let lookup = |v: Option<&str>| {
        let v = v.map(str::to_string);
        env::trace_out(&move |_| v.clone())
    };
    assert_eq!(lookup(Some("/tmp/run7")), "/tmp/run7");
    assert_eq!(lookup(None), "trace");
    assert_eq!(lookup(Some("")), "trace");
    configured(&[("PRESCIENT_TRACE_OUT", "anything at all")]).expect("a basename is any text");
}

#[test]
fn unset_and_empty_change_nothing() {
    let plain = format!("{:?}", configured(&[]).expect("no variables"));
    for var in &env::VARS {
        for empty in ["", "  "] {
            let cfg = configured(&[(var.name, empty)]).expect("empty counts as unset");
            assert_eq!(format!("{cfg:?}"), plain, "{}={empty:?}", var.name);
        }
    }
}

#[test]
fn garbage_is_rejected_in_the_one_format() {
    let garbage: [(&str, &[&str]); 4] = [
        ("PRESCIENT_TRACE", &["maybe", "-1", "4096x", "on,off", "\0"]),
        (
            "PRESCIENT_METRICS",
            // `tcp:` was the Prometheus listener: retired, so it is garbage.
            &["maybe", "2", "stream:", "tcp:127.0.0.1:9898", "tcp:", "udp:x:1", "on,stream:x"],
        ),
        ("PRESCIENT_PLACEMENT", &["on", "remap", "online", "online:4,75,128", "remap:/no/such"]),
        ("PRESCIENT_CRASH", &["2", "@5", "2@", "x@5", "2@y", "2@5@7", "node2@5", "70000@1"]),
    ];
    for (name, values) in garbage {
        let var = env::VARS.iter().find(|v| v.name == name).expect("in the table");
        for value in values {
            let err = configured(&[(name, value)]).expect_err(value);
            let want = format!("{name}: expected {}, got {value:?}", var.grammar);
            assert!(err.starts_with(&want), "{err:?} should start with {want:?}");
        }
    }
    // The first rejected variable, in table order, is the one reported.
    let err = configured(&[("PRESCIENT_CRASH", "x"), ("PRESCIENT_TRACE", "y")]).expect_err("both");
    assert!(err.starts_with("PRESCIENT_TRACE:"), "{err}");
}

#[test]
fn retired_variables_are_not_read() {
    let plain = format!("{:?}", configured(&[]).expect("no variables"));
    for (name, value) in [
        ("PRESCIENT_BATCH", "off"),
        ("PRESCIENT_BATCH", "garbage"),
        ("PRESCIENT_METRICS_OUT", "/tmp/elsewhere"),
        ("PRESCIENT_FABRIC", "socket"),
    ] {
        let cfg = configured(&[(name, value)]).expect("not read, so not rejected");
        assert_eq!(format!("{cfg:?}"), plain, "{name}={value}");
    }
    let names: Vec<&str> = env::VARS.iter().map(|v| v.name).collect();
    assert_eq!(
        names,
        [
            "PRESCIENT_TRACE",
            "PRESCIENT_TRACE_OUT",
            "PRESCIENT_METRICS",
            "PRESCIENT_PLACEMENT",
            "PRESCIENT_CRASH"
        ]
    );
}

#[test]
fn readme_prints_the_table_as_rendered() {
    let readme = include_str!("../README.md");
    let table = env::render_table();
    assert!(readme.contains(&table), "README.md's variable table must be exactly:\n{table}");
    for retired in ["PRESCIENT_BATCH", "PRESCIENT_METRICS_OUT"] {
        assert!(!table.contains(retired));
        assert!(readme.contains(&format!("`{retired}`")), "README lists {retired} under removed");
    }
}
