//! §5.4 block-size sensitivity: execution time of each application under
//! both protocols across cache-block sizes 32–1024 B.
//!
//! Paper's observation: "the predictive protocol worked best for small
//! cache blocks (the smallest being 32 bytes), while the unoptimized or
//! hand-tuned SPMD codes were able to exploit larger cache blocks
//! effectively."

use prescient_apps::adaptive::AdaptiveConfig;
use prescient_apps::barnes::BarnesConfig;
use prescient_apps::water::WaterConfig;
use prescient_bench::{Inputs, Scale};
use prescient_runtime::MachineConfig;

fn main() {
    let scale = Scale::from_args();
    let inputs = if scale.paper {
        scale.inputs()
    } else {
        Inputs {
            water: WaterConfig { n: 128, steps: 4, ..Default::default() },
            barnes: BarnesConfig { n: 512, steps: 2, ..Default::default() },
            adaptive: AdaptiveConfig { n: 24, iters: 8, tau: 0.5, max_depth: 3, flush_every: None },
        }
    };

    println!("== Block-size sweep ({} nodes) ==", scale.nodes);
    println!(
        "{:<10} {:>6}  {:>14} {:>14} {:>9}",
        "app", "block", "unopt(ms)", "opt(ms)", "opt/unopt"
    );
    for (app, _, run) in inputs.apps() {
        for bs in [32usize, 64, 128, 256, 512, 1024] {
            let ut = run(MachineConfig::stache(scale.nodes, bs)).report.exec_time_ns() as f64 / 1e6;
            let ot =
                run(MachineConfig::predictive(scale.nodes, bs)).report.exec_time_ns() as f64 / 1e6;
            println!("{app:<10} {bs:>5}B  {ut:>14.2} {ot:>14.2} {:>9.2}", ot / ut);
        }
    }
}
