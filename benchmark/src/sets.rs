//! Sets of runs, each run a child process of this executable: `--aa` runs
//! the whole set twice to show that two sets of runs of the same code agree
//! within the benchmark's own bounds; `--record` takes the numbers that go
//! into `baseline.json` and `history.jsonl`.

use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::run::Options;
use crate::stats::Summary;
use crate::workload::NAMES;

/// Untraced runs per workload in a recorded baseline.
const RECORDED_RUNS: usize = 5;

/// The manifest, read at build time: the one place the bounds are written.
const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json`.
pub fn bounds() -> Result<Vec<(String, f64)>, String> {
    let doc = Json::parse(MANIFEST)?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end")?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let bound = m.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// Metric values of a result line, after checking it reports a clean run.
pub fn parse_result(line: &str) -> Result<Metrics, String> {
    let doc = Json::parse(line)?;
    if doc.get("correct").and_then(Json::as_bool) != Some(true)
        || doc.get("failed").and_then(Json::as_u64) != Some(0)
    {
        return Err(format!("run was not clean: {line}"));
    }
    doc.get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line has no metrics")?
        .iter()
        .map(|(name, m)| {
            let v = m.get("value").and_then(Json::as_f64).ok_or(format!("{name} has no value"))?;
            Ok((name.clone(), v))
        })
        .collect()
}

/// Metric values by name, as a result line has them.
type Metrics = Vec<(String, f64)>;

fn value_of(metrics: &Metrics, name: &str) -> Result<f64, String> {
    metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v).ok_or(format!("no {name} reported"))
}

/// One run of `workload` in a child process, with the seed, budget and
/// quick mode of `set`; its metrics.
fn child(exe: &Path, workload: &str, set: &Options, trace: bool) -> Result<Metrics, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--trace", if trace { "1" } else { "0" }]).args([
        "--seed",
        &set.seed.to_string(),
        "--seconds",
        &set.seconds.to_string(),
    ]);
    if set.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end and collects what it printed.
    let out = cmd.output().map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!("{workload}: child ended with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    parse_result(stdout.lines().last().ok_or(format!("{workload}: child printed nothing"))?)
}

fn this_exe() -> Result<std::path::PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("current_exe: {e}"))
}

/// Run every workload twice (A then B, workload by workload), print both
/// values and their relative difference for every end-to-end metric, and
/// say whether every difference is within its bound.
pub fn aa(set: &Options) -> Result<bool, String> {
    let exe = this_exe()?;
    let bounds = bounds()?;
    let mut ok = true;
    println!(
        "{:<18} {:<12} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "diff", "bound"
    );
    for workload in NAMES {
        let a = child(&exe, workload, set, false)?;
        let b = child(&exe, workload, set, false)?;
        for (name, bound) in &bounds {
            let (va, vb) = (value_of(&a, name)?, value_of(&b, name)?);
            let diff = (vb - va) / va;
            let within = diff.abs() <= *bound;
            ok &= within;
            println!(
                "{workload:<18} {name:<12} {va:>14.6} {vb:>14.6} {:>8.2}% {:>6.0}%{}",
                diff * 100.0,
                bound * 100.0,
                if within { "" } else { "  EXCEEDED" }
            );
        }
    }
    Ok(ok)
}

fn values_json(metrics: &Metrics) -> Json {
    Json::obj(metrics.iter().map(|(k, v)| (k.as_str(), Json::Num(*v))))
}

/// Take the defining numbers: five untraced runs and one traced run of
/// every workload. Writes `DIR/baseline.json` (every run, the summary of
/// each end-to-end metric over the five, the full per-layer table) and
/// appends one row to `DIR/history.jsonl` (medians and spreads). Writes
/// neither when (max − min)/median of any metric over the five runs
/// exceeds the metric's bound.
pub fn record(dir: &Path, commit: &str, set: &Options) -> Result<(), String> {
    let exe = this_exe()?;
    let bounds = bounds()?;
    // Metrics whose five runs spread wider than their own bound.
    let mut unsettled = Vec::new();
    let mut baseline = Vec::new();
    let mut row = Vec::new();
    let mut calib_ms = Vec::new();
    for workload in NAMES {
        let mut runs = Vec::new();
        for i in 0..RECORDED_RUNS {
            eprintln!("record: {workload} untraced {}/{RECORDED_RUNS}", i + 1);
            runs.push(child(&exe, workload, set, false)?);
        }
        eprintln!("record: {workload} traced");
        let traced = child(&exe, workload, set, true)?;
        calib_ms.push(value_of(&traced, "host.calib_ms")?);

        let mut summary = Vec::new();
        let mut brief = Vec::new();
        for (name, bound) in &bounds {
            let values: Vec<f64> =
                runs.iter().map(|r| value_of(r, name)).collect::<Result<_, _>>()?;
            let s = Summary::of(&values).ok_or(format!("{workload}.{name} is not finite"))?;
            if s.range_share() > *bound {
                unsettled.push(format!(
                    "{workload}.{name} spreads {:.1} % over {RECORDED_RUNS} runs, bound {:.0} %",
                    s.range_share() * 100.0,
                    bound * 100.0
                ));
            }
            summary.push((name.as_str(), s.to_json()));
            brief.push((
                name.as_str(),
                Json::obj([
                    ("median", Json::Num(s.median)),
                    ("range_share", Json::Num(s.range_share())),
                ]),
            ));
        }
        baseline.push((
            workload,
            Json::obj([
                ("untraced", Json::Arr(runs.iter().map(values_json).collect())),
                ("summary", Json::obj(summary)),
                ("traced", values_json(&traced)),
            ]),
        ));
        row.push((workload, Json::obj(brief)));
    }
    // Numbers that do not repeat within the bounds they define are not a
    // baseline: nothing is written, and the run says which ones.
    if !unsettled.is_empty() {
        return Err(format!("not recorded, the host is unsettled:\n  {}", unsettled.join("\n  ")));
    }
    let header = |rest: Vec<(&str, Json)>| {
        let mut doc = vec![
            ("commit", Json::str(commit)),
            ("seed", Json::Num(set.seed as f64)),
            ("seconds", Json::Num(set.seconds)),
            ("quick", Json::Bool(set.quick)),
            ("untraced_runs", Json::Num(RECORDED_RUNS as f64)),
            ("host.calib_ms", Json::Num(crate::stats::median(&calib_ms))),
        ];
        doc.extend(rest);
        Json::obj(doc)
    };
    let failed = |path: &Path, e: std::io::Error| format!("{}: {e}", path.display());
    let baseline_path = dir.join("baseline.json");
    let baseline = header(vec![("workloads", Json::obj(baseline))]).to_pretty();
    std::fs::write(&baseline_path, baseline).map_err(|e| failed(&baseline_path, e))?;
    let history_path = dir.join("history.jsonl");
    let row = header(vec![("workloads", Json::obj(row))]).to_line() + "\n";
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history_path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, row.as_bytes()))
        .map_err(|e| failed(&history_path, e))
}
