//! The bench binaries' command lines. `prescient-telemetry` end to end: a
//! 4-node `figures fig5` run exports a trace and a metrics stream into a
//! temp directory (the child's own environment names the paths, so
//! nothing here sets a process-global variable); every subcommand must
//! exit 0 on them, and hostile input must exit non-zero with a message,
//! never a panic. `figures` and `ablation` refuse bad arguments the same
//! way, before they build a machine.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use prescient_tempest::stats::StatsSnapshot;
use prescient_tempest::{LatencyHist, PhaseRecord, TimeBreakdown};

const CLI: &str = env!("CARGO_BIN_EXE_prescient-telemetry");

/// A fresh directory of its own under the system temp dir.
fn scratch(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("prescient_cli_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.to_str().expect("utf-8 temp path").to_string()
}

fn cli(args: &[&str]) -> Output {
    run(CLI, args)
}

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("the binary runs")
}

fn ok(args: &[&str]) -> String {
    let out = cli(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{args:?}: {:?}\n{stderr}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// A non-zero exit with a message, and the process did not panic (a
/// panic exits 101).
fn refused(args: &[&str]) {
    refused_by(CLI, args);
}

fn refused_by(bin: &str, args: &[&str]) -> Output {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(matches!(out.status.code(), Some(1 | 2)), "{args:?}: {:?}\n{stderr}", out.status);
    assert!(!stderr.contains("panicked") && !stderr.is_empty(), "{args:?}: {stderr}");
    out
}

/// `text` as a file in `dir`.
fn file(dir: &str, name: &str, text: &str) -> String {
    let path = format!("{dir}/{name}");
    std::fs::write(&path, text).expect("write fixture");
    path
}

/// One stream line per iteration of phase 1 on node 0 of run `run`.
fn stream(run: u64, iters: u64) -> String {
    let rec = |iter| PhaseRecord {
        node: 0,
        seq: iter,
        run,
        phase: 1,
        iter,
        version: iter,
        vtime: TimeBreakdown { compute_ns: 100, wait_ns: 0, presend_ns: 0, synch_ns: 0 },
        stats: StatsSnapshot { msgs_out: 10 + iter, ..StatsSnapshot::default() },
        fetch: LatencyHist::default(),
        wire: None,
    };
    (0..iters).map(|i| rec(i).to_json_line() + "\n").collect()
}

#[test]
fn every_subcommand_on_a_real_run_and_hostile_input() {
    let dir = scratch("run");
    let metrics = format!("{dir}/metrics.jsonl");
    let fig5 = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(["fig5", "--nodes", "4"])
        .env("PRESCIENT_TRACE", "1")
        .env("PRESCIENT_TRACE_OUT", format!("{dir}/trace"))
        .env("PRESCIENT_METRICS", format!("stream:{metrics}"))
        .output()
        .expect("figures runs");
    assert!(fig5.status.success(), "{}", String::from_utf8_lossy(&fig5.stderr));
    let (jsonl, chrome) = (&format!("{dir}/trace.jsonl"), &format!("{dir}/trace.json"));
    let (metrics, timeline) = (&metrics, &format!("{metrics}.timeline.json"));
    let remap = &format!("{dir}/out.remap");

    assert!(ok(&["report", jsonl]).contains("== demand-fault latency, per phase =="));
    assert!(ok(&["validate", jsonl, chrome]).starts_with("ok: "));
    assert!(ok(&["diff", jsonl, jsonl]).contains("== headline latencies =="));
    let text = ok(&["emit-remap", jsonl]);
    ok(&["emit-remap", jsonl, remap]);
    assert_eq!(std::fs::read_to_string(remap).expect("remap written"), text);
    prescient_tempest::HomeMap::parse(&text, 4).expect("a loadable remap file");
    for input in [metrics, timeline] {
        assert!(ok(&["report", input]).contains("4 nodes"));
        ok(&["anomaly", input, "--threshold", "50"]);
    }
    assert!(ok(&["validate", metrics, timeline]).ends_with("stream == timeline\n"));
    let lines = std::fs::read_to_string(metrics).expect("stream").lines().count();
    assert_eq!(ok(&["watch", metrics, "--once"]).lines().count(), lines);

    // Hostile rows: each is refused with a message, never a panic.
    let good = std::fs::read_to_string(jsonl).expect("trace");
    let truncated = &file(&dir, "truncated.jsonl", &good[..good.len() - 20]);
    let (first, rest) = good.split_once('\n').expect("two lines");
    let node = first.replacen("\"node\":0", "\"node\":64", 1);
    assert_ne!(node, first, "fixture drifted");
    let node64 = &file(&dir, "node64.jsonl", &format!("{node}\n{rest}"));
    let gap = &file(&dir, "gap.jsonl", &stream(1, 4).replacen("\"seq\":2,", "\"seq\":7,", 1));
    let missing = &format!("{dir}/missing.jsonl");
    for args in [
        &["report", truncated][..],
        &["report", node64],
        &["validate", gap],
        &["frobnicate", jsonl],
        &["report"],
        &["anomaly", metrics, "--threshold", "NaN"],
        &["anomaly", jsonl],
        &["diff", metrics, jsonl],
        &["validate", jsonl, timeline],
        &["report", missing],
    ] {
        refused(args);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A missing, non-numeric or out-of-range node count, an unknown flag and
/// an unknown sub-command are usage errors: exit 2, and nothing on stdout,
/// since nothing ran.
#[test]
fn figures_and_ablation_refuse_bad_arguments() {
    let bins = [env!("CARGO_BIN_EXE_figures"), env!("CARGO_BIN_EXE_ablation")];
    for (bin, name) in bins.into_iter().zip(["fig5", "degradation"]) {
        for args in [
            &[name, "--nodes"][..],
            &[name, "--nodes", "x"],
            &[name, "--nodes", "0"],
            &[name, "--nodes", "65"],
            &[name, "--nodes", "-1"],
            &[name, "--frobnicate"],
            &[name, "--paper", "extra"],
            &["frobnicate"],
            &[],
        ] {
            let out = refused_by(bin, args);
            assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
            assert!(out.stdout.is_empty(), "{bin} {args:?} printed a result");
        }
    }
    // perf_gate shares the parser; `--out` takes a path.
    let perf_gate = env!("CARGO_BIN_EXE_perf_gate");
    for args in [&["--frobnicate"][..], &["--out"], &["--nodes", "0", "--out", "x.json"]] {
        assert_eq!(refused_by(perf_gate, args).status.code(), Some(2), "perf_gate {args:?}");
    }
    // `table1` and `fig4` build no machine: the largest node count is
    // accepted, before `--paper` too.
    let figures = env!("CARGO_BIN_EXE_figures");
    let out = run(figures, &["table1", "--nodes", "64", "--paper"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Machine: 64 emulated nodes"));
    assert!(run(figures, &["fig4"]).status.success());
    // The schedule oracle reports a program that fails to evaluate as an
    // error diagnostic: exit 1, no panic.
    let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/../cstar/tests/lints/e007_eval.cstar");
    let lint = env!("CARGO_BIN_EXE_cstar-lint");
    let out = refused_by(lint, &["--oracle", "--nodes", "2", fixture]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("error[E007]"));
}

/// `NaN` compared false against every deviation ("no anomalies: every
/// phase instance within NaN%"), and a negative threshold flagged every
/// instance: only a finite percentage of zero or more is a threshold.
#[test]
fn anomaly_threshold_is_a_finite_non_negative_percentage() {
    let dir = scratch("threshold");
    let s = &file(&dir, "s.jsonl", &stream(1, 5));
    for bad in ["NaN", "nan", "inf", "-inf", "-5", "-0.5", "fifty", ""] {
        refused(&["anomaly", s, "--threshold", bad]);
    }
    for good in ["0", "50", "1e3"] {
        ok(&["anomaly", s, "--threshold", good]);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A new run re-creates (truncates) the stream; `watch` must start over
/// from byte 0, not wait for the file to outgrow its old offset.
#[test]
fn watch_starts_over_when_a_new_run_recreates_the_stream() {
    let dir = scratch("watch");
    let s = file(&dir, "s.jsonl", &stream(1, 3));
    let mut child = Command::new(CLI)
        .arg("watch")
        .arg(&s)
        .stdout(Stdio::piped())
        .spawn()
        .expect("watch starts");
    let (tx, rx) = mpsc::channel();
    let stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let next = || rx.recv_timeout(Duration::from_secs(30));
    for iter in 0..3 {
        let line = next().expect("the first run's records");
        assert!(line.starts_with("run 1 ") && line.contains(&format!("iter  {iter}")), "{line}");
    }
    std::fs::write(&s, stream(7, 1)).expect("a new run re-creates the stream");
    let line = next();
    let _ = child.kill();
    let _ = child.wait();
    reader.join().expect("the stdout reader ends with the child");
    let _ = std::fs::remove_dir_all(&dir);
    let line = line.expect("watch prints the new run's record");
    assert!(line.starts_with("run 7 "), "{line}");
}
