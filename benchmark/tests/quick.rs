//! Smoke test of the built binary in `--quick` mode: every workload, both
//! trace settings, and the result line against `BENCHMARK.json`.

use std::process::Command;

use prescient_benchmark::json::Json;
use prescient_benchmark::workload::NAMES;

const EXE: &str = env!("CARGO_BIN_EXE_prescient-benchmark");

fn manifest_names(section: &str) -> Vec<String> {
    let manifest = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
    let mut names: Vec<String> = manifest
        .get(section)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
        .collect();
    names.sort();
    names
}

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(EXE)
        // Knobs a caller may have exported must not matter.
        .env("PRESCIENT_FABRIC", "sharded:3")
        .env("PRESCIENT_TRACE", "1")
        .args(args)
        .output()
        .unwrap();
    (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
}

#[test]
fn every_workload_reports_every_metric_of_the_manifest() {
    for name in NAMES {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let (ok, stdout) = run(&[
                "--workload",
                name,
                "--seed",
                "3",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--quick",
            ]);
            assert!(ok, "{name} --trace {trace} failed");
            let line = Json::parse(stdout.lines().last().unwrap()).unwrap();
            let keys: Vec<&str> = line.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
            assert_eq!(line.get("failed").unwrap().as_u64(), Some(0));
            assert!(line.get("attempted").unwrap().as_u64().unwrap() >= 3);
            let metrics = line.get("metrics").unwrap().as_obj().unwrap();
            let mut got: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
            got.sort();
            assert_eq!(got, manifest_names(section), "{name} --trace {trace}");
            for (k, m) in metrics {
                assert!(m.get("value").unwrap().as_f64().is_some(), "{name}: {k} is not a number");
                assert!(m.get("unit").unwrap().as_str().is_some());
            }
        }
    }
}

#[test]
fn bad_command_lines_fail_without_a_result() {
    for args in [
        &["--workload", "nbody", "--quick"][..],
        &["--workload", "water", "--trace", "2"],
        &["--seconds", "10"],
        &["--workload", "water", "--seconds", "0"],
        &["--frobnicate"],
    ] {
        let (ok, stdout) = run(args);
        assert!(!ok && stdout.is_empty(), "{args:?}: ok={ok} stdout={stdout:?}");
    }
}
