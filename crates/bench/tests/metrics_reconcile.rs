//! Reconciliation tests over the three evaluation applications: every
//! per-phase delta record cut by the metrics timeline must sum *exactly*
//! to the measured run's report (the telescoping-sum invariant at app
//! scale), and turning metrics on must leave the gated perf columns
//! bit-identical.

use std::time::Duration;

use prescient_apps::adaptive::{run_adaptive, AdaptiveConfig};
use prescient_apps::barnes::{run_barnes, BarnesConfig};
use prescient_apps::water::{run_water, WaterConfig};
use prescient_apps::AppRun;
use prescient_bench::telemetry::read_lines;
use prescient_runtime::{MachineConfig, RunTimeline};
use prescient_stache::RetryConfig;
use prescient_tempest::{MetricsConfig, PhaseRecord};

const NODES: usize = 4;

/// App drivers run setup / measured / gather; the `AppRun` report is the
/// measured run.
const MEASURED_RUN: u64 = 2;

fn mcfg() -> MachineConfig {
    // Generous timeout: a host-load retry would perturb the off-vs-on
    // comparison (retries bill wait vtime).
    MachineConfig::predictive(NODES, 64)
        .with_retry(RetryConfig { timeout: Duration::from_secs(30), max_retries: 4 })
}

fn stream_path(tag: &str) -> String {
    let mut p = std::env::temp_dir();
    p.push(format!("prescient_metrics_reconcile_{}_{tag}.jsonl", std::process::id()));
    p.to_string_lossy().into_owned()
}

/// Run an app with metrics streaming, then check the live stream's
/// records reconcile with the measured report — per node, per counter,
/// exactly — and that phase records actually exist (the apps are phased).
fn reconcile(tag: &str, run: impl FnOnce(MachineConfig) -> AppRun) {
    let path = stream_path(tag);
    let _ = std::fs::remove_file(&path);
    let app = run(mcfg().with_metrics(MetricsConfig::stream(&path)));
    let records = read_lines(&path, PhaseRecord::from_json).expect("live stream parses");
    let timeline = RunTimeline::new(NODES, records);
    timeline
        .reconciles_with(&app.report, MEASURED_RUN)
        .expect("phase deltas must sum exactly to the measured report");
    let phased = timeline.records.iter().filter(|r| r.run == MEASURED_RUN && r.phase != 0).count();
    assert!(phased > 0, "{tag}: the measured run must cut real phase records");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(format!("{path}.timeline.json"));
}

#[test]
fn water_stream_reconciles_with_the_measured_report() {
    let cfg = WaterConfig { n: 64, steps: 4, ..Default::default() };
    reconcile("water", |m| run_water(m, &cfg));
}

#[test]
fn barnes_stream_reconciles_with_the_measured_report() {
    let cfg = BarnesConfig { n: 256, steps: 2, ..Default::default() };
    reconcile("barnes", |m| run_barnes(m, &cfg));
}

#[test]
fn adaptive_stream_reconciles_with_the_measured_report() {
    let cfg = AdaptiveConfig { n: 16, iters: 6, ..Default::default() };
    reconcile("adaptive", |m| run_adaptive(m, &cfg));
}

/// The perf gate's equality-gated signature.
fn gated(r: &AppRun) -> (u64, u64, u64, u64, u64, u64, u64, u64) {
    let t = r.report.total_stats();
    (
        r.checksum.to_bits(),
        r.report.exec_time_ns(),
        t.msgs_out,
        t.data_bytes_in + t.presend_bytes_out,
        t.misses() + t.presend_blocks_out,
        t.misses(),
        t.presend_blocks_out,
        t.presend_useless,
    )
}

/// Metrics on (in-memory hub, the worst-perturbation mode: every cut
/// still happens) vs off must leave the gated signature bit-identical.
#[test]
fn metrics_do_not_perturb_the_channel_backend() {
    let cfg = WaterConfig { n: 64, steps: 4, ..Default::default() };
    let off = run_water(mcfg().with_metrics(MetricsConfig::off()), &cfg);
    let on = run_water(mcfg().with_metrics(MetricsConfig::on()), &cfg);
    assert_eq!(gated(&off), gated(&on), "gated columns must be bit-identical off vs on");
}
