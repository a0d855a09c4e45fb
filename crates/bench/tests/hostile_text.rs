//! The hostile-input table of `tests/hostile/mod.rs` (shared with the
//! root package's `text_boundary.rs`) against the readers of
//! `telemetry`: `parse_timeline` and the trace-line read `read_lines`
//! applies to every line answer `Err` on every row and on every
//! truncation of a valid document — no panic, no abort, no stack
//! overflow — and a valid document still loads, as the kind it is.

#[path = "../../../tests/hostile/mod.rs"]
mod hostile;

use prescient_bench::telemetry::{load, parse_timeline, Input};
use prescient_runtime::RunTimeline;
use prescient_tempest::json;
use prescient_tempest::stats::StatsSnapshot;
use prescient_tempest::trace::{to_jsonl, EventKind, TraceEvent};
use prescient_tempest::{LatencyHist, PhaseRecord, TimeBreakdown};

fn timeline() -> RunTimeline {
    let rec = |node, msgs_out| PhaseRecord {
        node,
        seq: 0,
        run: 1,
        phase: 2,
        iter: 0,
        version: 1,
        vtime: TimeBreakdown { compute_ns: 5, wait_ns: 6, presend_ns: 7, synch_ns: 8 },
        stats: StatsSnapshot { msgs_out, ..StatsSnapshot::default() },
        fetch: LatencyHist::default(),
        wire: None,
    };
    // Phase groups sum their records: only one can hold the maximum.
    RunTimeline::new(2, vec![rec(0, u64::MAX), rec(1, 0)])
}

fn trace_line() -> String {
    let e = TraceEvent {
        node: 63,
        seq: 9,
        t_ns: u64::MAX,
        phase: u32::MAX,
        kind: EventKind::MsgRecv,
        a: 1 << 16,
        b: 7,
    };
    to_jsonl(&[e]).trim_end().to_string()
}

/// One trace line, read the way `read_lines` reads each.
fn parse_trace_line(line: &str) -> Result<TraceEvent, String> {
    TraceEvent::from_json(&json::parse(line)?)
}

#[test]
fn valid_documents_load_exactly() {
    let t = timeline();
    let back = parse_timeline(&t.to_json()).expect("own export parses");
    assert_eq!((back.nodes, &back.records), (2, &t.records));
    let e = parse_trace_line(&trace_line()).expect("own line parses");
    assert_eq!((e.node, e.t_ns, e.phase), (63, u64::MAX, u32::MAX));
    let stream: String = t.records.iter().map(|r| r.to_json_line() + "\n").collect();
    let path = std::env::temp_dir().join(format!("prescient_hostile_{}", std::process::id()));
    std::fs::write(&path, stream).expect("temp stream");
    let loaded = load(path.to_str().expect("utf-8 temp path"));
    let _ = std::fs::remove_file(&path);
    match loaded.expect("stream parses") {
        Input::Metrics(back) => assert_eq!((back.nodes, back.records), (2, t.records)),
        Input::Trace(_) => panic!("a stream loaded as a trace"),
    }
}

#[test]
fn hostile_table_is_an_error_not_a_crash() {
    let mut rows = hostile::rows();
    rows.extend(hostile::prefixes("timeline", &timeline().to_json()));
    rows.extend(hostile::prefixes("trace line", &trace_line()));
    for row in rows {
        assert_eq!(json::parse(&row.text).is_ok(), row.json_ok, "{}", row.name);
        assert!(parse_timeline(&row.text).is_err(), "{}: timeline", row.name);
        assert!(parse_trace_line(&row.text).is_err(), "{}: trace line", row.name);
    }
}

#[test]
fn a_garbled_trace_line_never_becomes_another_nodes_event() {
    let good = trace_line();
    for (from, to, field) in [
        ("\"node\":63", "\"node\":64", "`node`"),
        ("\"node\":63", "\"node\":65599", "`node`"), // `as u16` would say 63
        ("\"node\":63", "\"node\":-1", "`node`"),
        ("\"phase\":4294967295", "\"phase\":4294967296", "`phase`"), // `as u32`: 0
        ("\"b\":7", "\"b\":7.5", "`b`"),
        ("\"kind\":\"MsgRecv\"", "\"kind\":\"Nope\"", "Nope"),
    ] {
        assert!(good.contains(from), "fixture drifted: {from}");
        let err = parse_trace_line(&good.replacen(from, to, 1)).expect_err(to);
        assert!(err.contains(field), "{to}: {err}");
    }
    // A timeline whose header or a record is off is an error naming where.
    let doc = timeline().to_json();
    assert!(parse_timeline(&doc.replacen("\"nodes\": 2", "\"nodes\": -2", 1)).is_err());
    assert!(parse_timeline(&doc.replacen("\"nodes\": 2,", "", 1)).is_err());
    let err = parse_timeline(&doc.replacen("\"node\":1", "\"node\":64", 1)).expect_err("node");
    assert!(err.contains("record 1") && err.contains("`node`"), "{err}");
}
