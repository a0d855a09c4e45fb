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

use std::fmt::Write as _;
use std::time::Duration;

use prescient_apps::adaptive::{run_adaptive, AdaptiveConfig};
use prescient_apps::barnes::{run_barnes, BarnesConfig};
use prescient_apps::water::{run_water, WaterConfig};
use prescient_apps::AppRun;
use prescient_bench::Scale;
use prescient_runtime::MachineConfig;
use prescient_stache::RetryConfig;

struct Row {
    app: &'static str,
    config: String,
    run: AppRun,
}

/// One JSON object per app: identity, then the gated counter lines
/// spliced verbatim from [`RunReport::gate_counters_json`] — the report
/// serializer is the single source of truth for the counter schema
/// (DESIGN.md §8), so the gate cannot drift from it. Timing-dependent
/// keys (`wall_ms`, `wire_*`) are reported but never equality-gated.
fn render(rows: &[Row], scale: Scale, block_size: usize) -> String {
    let mut s = String::new();
    writeln!(s, "{{").unwrap();
    writeln!(s, "  \"suite\": \"prescient perf gate\",").unwrap();
    writeln!(s, "  \"scale\": \"{}\",", if scale.paper { "paper" } else { "reduced" }).unwrap();
    writeln!(s, "  \"nodes\": {},", scale.nodes).unwrap();
    writeln!(s, "  \"block_size\": {block_size},").unwrap();
    writeln!(s, "  \"apps\": [").unwrap();
    for (i, r) in rows.iter().enumerate() {
        writeln!(s, "    {{").unwrap();
        writeln!(s, "      \"app\": \"{}\",", r.app).unwrap();
        writeln!(s, "      \"config\": \"{}\",", r.config).unwrap();
        writeln!(s, "      \"checksum\": \"{:016x}\",", r.run.checksum.to_bits()).unwrap();
        writeln!(s, "{}", r.run.report.gate_counters_json("      ")).unwrap();
        writeln!(s, "    }}{}", if i + 1 < rows.len() { "," } else { "" }).unwrap();
    }
    writeln!(s, "  ]").unwrap();
    writeln!(s, "}}").unwrap();
    s
}

fn main() {
    let scale = Scale::from_args();
    let args: Vec<String> = std::env::args().collect();
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_prescient.json".to_string());

    let block_size = 128;
    // The fabric is clean (no fault injection), so a retransmit can only
    // fire when the host schedules a home node's thread late — noise that
    // would perturb the gated `msgs`/`vtime_ns` counters on a loaded CI
    // runner. A generous timeout makes the counters load-independent.
    let retry = RetryConfig { timeout: Duration::from_secs(30), max_retries: 4 };
    let mcfg = || MachineConfig::predictive(scale.nodes, block_size).with_retry(retry).validated();

    let water_cfg = if scale.paper {
        WaterConfig::default()
    } else {
        WaterConfig { n: 128, steps: 5, ..Default::default() }
    };
    let barnes_cfg = if scale.paper {
        BarnesConfig::default()
    } else {
        BarnesConfig { n: 512, steps: 2, ..Default::default() }
    };
    let adaptive_cfg = if scale.paper {
        AdaptiveConfig::default()
    } else {
        AdaptiveConfig { n: 32, iters: 10, ..Default::default() }
    };

    eprintln!("perf gate: water (n={}, steps={}) ...", water_cfg.n, water_cfg.steps);
    let water = run_water(mcfg(), &water_cfg);
    eprintln!("perf gate: barnes (n={}, steps={}) ...", barnes_cfg.n, barnes_cfg.steps);
    let barnes = run_barnes(mcfg(), &barnes_cfg);
    eprintln!("perf gate: adaptive (n={}, iters={}) ...", adaptive_cfg.n, adaptive_cfg.iters);
    let adaptive = run_adaptive(mcfg(), &adaptive_cfg);

    let rows = [
        Row {
            app: "water",
            config: format!(
                "n={} steps={} seed={:#x}",
                water_cfg.n, water_cfg.steps, water_cfg.seed
            ),
            run: water,
        },
        Row {
            app: "barnes",
            config: format!(
                "n={} steps={} seed={:#x}",
                barnes_cfg.n, barnes_cfg.steps, barnes_cfg.seed
            ),
            run: barnes,
        },
        Row {
            app: "adaptive",
            config: format!(
                "n={} iters={} tau={} max_depth={}",
                adaptive_cfg.n, adaptive_cfg.iters, adaptive_cfg.tau, adaptive_cfg.max_depth
            ),
            run: adaptive,
        },
    ];

    let json = render(&rows, scale, block_size);
    std::fs::write(&out, &json).expect("write baseline json");
    print!("{json}");
    eprintln!("perf gate: wrote {out}");
}
