//! The CI perf gate: run all three evaluation applications (Table 1) on
//! the optimized (predictive) machine with fixed seeds and emit a
//! machine-readable baseline, `BENCH_prescient.json`.
//!
//! ```text
//! cargo run --release -p prescient-bench --bin perf_gate -- --paper
//! ```
//!
//! Flags: `--paper` (Table 1 scale: 32 nodes, 512 molecules / 16384 bodies
//! / 128×128 mesh), `--nodes N`, `--out PATH` (default
//! `BENCH_prescient.json` in the current directory).
//!
//! The JSON schema is documented in DESIGN.md §8. Every number is
//! deterministic for a given scale — virtual time, message counts, bytes
//! and checksums are seeded and fabric-order independent — except
//! `wall_ms`, which is the host wall clock and recorded for trend
//! eyeballing only.

use prescient_apps::AppRun;
use prescient_bench::{inputs, patient_retry, Scale};
use prescient_runtime::MachineConfig;
use prescient_tempest::json::{Layout, Writer};

struct Row {
    app: &'static str,
    config: String,
    run: AppRun,
}

/// One JSON object per app: identity, then the gated counters written by
/// [`RunReport::write_gate_counters`] — the report serializer is the
/// single source of truth for the counter schema (DESIGN.md §8), so the
/// gate cannot drift from it. Timing-dependent keys (`wall_ms`, `wire_*`)
/// are reported but never equality-gated.
///
/// [`RunReport::write_gate_counters`]: prescient_runtime::RunReport::write_gate_counters
fn render(rows: &[Row], scale: Scale, block_size: usize) -> String {
    let mut w = Writer::new(String::new(), 2);
    w.object(Layout::Lines).key("suite").str("prescient perf gate");
    w.key("scale").str(if scale.paper { "paper" } else { "reduced" });
    w.key("nodes").uint(scale.nodes as u64).key("block_size").uint(block_size as u64);
    w.key("apps").array(Layout::Lines);
    for r in rows {
        w.object(Layout::Lines).key("app").str(r.app).key("config").str(&r.config);
        w.key("checksum").str(&format!("{:016x}", r.run.checksum.to_bits()));
        r.run.report.write_gate_counters(&mut w);
        w.end();
    }
    w.end().end().newline();
    w.finish()
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = "BENCH_prescient.json".to_string();
    if let Some(i) = args.iter().position(|a| a == "--out").filter(|i| i + 1 < args.len()) {
        out = args.remove(i + 1);
        args.remove(i);
    }
    let scale = Scale::from_args(&args, "usage: perf_gate [--paper] [--nodes N] [--out PATH]");

    let block_size = 128;
    let rows: Vec<Row> = inputs("perf_gate", scale)
        .apps()
        .into_iter()
        .map(|(app, config, run)| {
            eprintln!("perf gate: {app} ({config}) ...");
            let mcfg = MachineConfig::predictive(scale.nodes, block_size);
            Row { app, run: run(mcfg.with_retry(patient_retry()).validated()), config }
        })
        .collect();

    let json = render(&rows, scale, block_size);
    std::fs::write(&out, &json).expect("write baseline json");
    print!("{json}");
    eprintln!("perf gate: wrote {out}");
}
