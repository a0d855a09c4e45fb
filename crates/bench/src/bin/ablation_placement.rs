//! Ablation: traffic-aware home placement (DESIGN.md §14).
//!
//! Three legs per application, all plain Stache (the placement machinery
//! is compiled in everywhere; only the configuration differs):
//!
//! * **owner** — the apps' natural owner-homed allocation. The control:
//!   recording this leg and running `emit-remap` over its traffic should
//!   find (almost) nothing to re-home, because the dominant requester of
//!   a written block is already its home.
//! * **rotate** — `home_shift(1)`, the deliberately bad static layout:
//!   every block's directory sits one node away from its owner, so every
//!   producer–consumer exchange pays third-party hops (§3.2).
//! * **remap** — the full offline pipeline, in-process: the rotate leg is
//!   recorded, its per-block traffic distilled to a remap file
//!   (`prescient-trace emit-remap`), and the run repeated with the remap
//!   overlay applied from step one.
//!
//! Checksums must be bit-identical down every column — placement moves
//! directory entries, never results. Message counts are the measurement;
//! `blocks_moved` is printed per leg but only comparable where the app's
//! fault pattern is deterministic (water; barnes' contended tree reads
//! make miss counts layout-dependent, which the table shows honestly).
//!
//! ```text
//! cargo run --release -p prescient-bench --bin ablation_placement -- --paper
//! ```

use std::time::Duration;

use prescient_apps::adaptive::{run_adaptive, AdaptiveConfig};
use prescient_apps::barnes::{run_barnes, BarnesConfig};
use prescient_apps::water::{run_water, WaterConfig};
use prescient_apps::AppRun;
use prescient_bench::traffic::{emit_remap, load_trace};
use prescient_bench::Scale;
use prescient_runtime::{MachineConfig, PlacementSpec};
use prescient_stache::RetryConfig;
use prescient_tempest::trace::TraceConfig;
use prescient_tempest::HomeMap;

fn retry() -> RetryConfig {
    RetryConfig { timeout: Duration::from_secs(30), max_retries: 4 }
}

fn row(label: &str, r: &AppRun) {
    let t = r.report.total_stats();
    let bytes = t.data_bytes_in + t.presend_bytes_out;
    println!(
        "{label:<22} {:>10} {:>12} {:>14} {:>12} {:>6} {:>18}",
        r.report.wall.as_millis(),
        t.msgs_out,
        bytes,
        t.misses() + t.presend_blocks_out,
        t.remapped_blocks,
        format!("{:016x}", r.checksum.to_bits()),
    );
}

/// Run `leg` with tracing on, then distill the recorded traffic into a
/// remap map the way `prescient-trace emit-remap` would. Returns the run
/// and the map. The trace lands in a scratch file keyed by `tag` so legs
/// never clobber each other.
fn record_and_remap(
    tag: &str,
    nodes: usize,
    leg: impl FnOnce(MachineConfig) -> AppRun,
    cfg: MachineConfig,
) -> (AppRun, HomeMap) {
    let base =
        std::env::temp_dir().join(format!("ablation_placement_{}_{tag}", std::process::id()));
    let base = base.to_str().expect("utf-8 temp path").to_string();
    // Machines are torn down (and the trace written) before this returns;
    // no other machine is alive, so the env var is race-free.
    std::env::set_var("PRESCIENT_TRACE_OUT", &base);
    let run = leg(cfg.with_trace(TraceConfig::with_capacity(1 << 18)));
    std::env::remove_var("PRESCIENT_TRACE_OUT");
    let events = load_trace(&format!("{base}.jsonl")).expect("trace export readable");
    let text = emit_remap(&events);
    let map = HomeMap::parse(&text, nodes).expect("emit-remap output is a valid remap file");
    for f in [format!("{base}.json"), format!("{base}.jsonl")] {
        let _ = std::fs::remove_file(f);
    }
    (run, map)
}

struct Outcome {
    app: &'static str,
    rotate_msgs: u64,
    remap_msgs: u64,
}

fn ablate(
    app: &'static str,
    nodes: usize,
    bs: usize,
    leg: impl Fn(MachineConfig) -> AppRun + Copy,
) -> Outcome {
    println!(
        "{:<22} {:>10} {:>12} {:>14} {:>12} {:>6} {:>18}",
        "version", "wall(ms)", "msgs", "bytes_moved", "blocks", "remap", "checksum"
    );
    let mk = || MachineConfig::stache(nodes, bs).with_retry(retry());

    let (owner, owner_map) = record_and_remap(&format!("{app}_owner"), nodes, leg, mk());
    row("owner (control)", &owner);

    let (rotate, map) =
        record_and_remap(&format!("{app}_rotate"), nodes, leg, mk().with_home_shift(1));
    row("rotate (bad static)", &rotate);

    let remapped = map.len();
    let remap = leg(mk().with_home_shift(1).with_placement(PlacementSpec::Remap(map)));
    row("rotate + remap", &remap);

    for (tag, r) in [("rotate", &rotate), ("remap", &remap)] {
        assert_eq!(
            r.checksum.to_bits(),
            owner.checksum.to_bits(),
            "{app}/{tag}: placement must not perturb the result"
        );
    }
    println!(
        "  emit-remap: owner layout re-homes {} blocks; rotate layout re-homes {remapped}",
        owner_map.len()
    );
    Outcome {
        app,
        rotate_msgs: rotate.report.total_stats().msgs_out,
        remap_msgs: remap.report.total_stats().msgs_out,
    }
}

fn main() {
    let scale = Scale::from_args();
    let bs = 64;
    let (water_cfg, barnes_cfg, adaptive_cfg) = if scale.paper {
        (
            WaterConfig::default(),  // n = 512, 20 steps
            BarnesConfig::default(), // n = 16384, 3 steps
            AdaptiveConfig::default(),
        )
    } else {
        (
            WaterConfig { n: 64, steps: 8, ..Default::default() },
            BarnesConfig { n: 512, steps: 2, ..Default::default() },
            AdaptiveConfig { n: 24, iters: 8, tau: 0.4, max_depth: 3, flush_every: None },
        )
    };

    println!("== Ablation: traffic-aware home placement ({} nodes, {bs}B blocks) ==", scale.nodes);

    println!("\n-- water (n={}, {} steps) --", water_cfg.n, water_cfg.steps);
    let water = ablate("water", scale.nodes, bs, |m| run_water(m, &water_cfg));

    println!("\n-- barnes (n={}, {} steps) --", barnes_cfg.n, barnes_cfg.steps);
    let barnes = ablate("barnes", scale.nodes, bs, |m| run_barnes(m, &barnes_cfg));

    println!("\n-- adaptive (n={}, {} iters) --", adaptive_cfg.n, adaptive_cfg.iters);
    let adaptive = ablate("adaptive", scale.nodes, bs, |m| run_adaptive(m, &adaptive_cfg));

    println!("\n== summary: messages vs the rotate layout ==");
    let mut improved = 0;
    for o in [&water, &barnes, &adaptive] {
        let helped = o.remap_msgs < o.rotate_msgs;
        improved += u32::from(helped);
        println!(
            "{:<10} rotate {:>9}  remap {:>9} ({:>5.1}%){}",
            o.app,
            o.rotate_msgs,
            o.remap_msgs,
            100.0 * o.remap_msgs as f64 / o.rotate_msgs.max(1) as f64,
            if helped { "" } else { "  [no win — reported, not gated]" },
        );
    }
    assert!(
        water.remap_msgs < water.rotate_msgs,
        "water's producer-consumer pattern must benefit from the remap"
    );
    assert!(improved >= 2, "remap must cut messages on at least 2 of 3 apps, got {improved}");
    println!(
        "\nchecksums bit-identical on every leg; {improved}/3 apps move fewer messages under remap"
    );
}
