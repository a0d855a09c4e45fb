//! Ambient `PRESCIENT_*` variables must not change what a workload runs.
//! Alone in its test binary: it edits the process environment.

use std::path::Path;

use prescient_benchmark::workload::{self, Workload, NAMES};
use prescient_runtime::FabricKind;
use prescient_tempest::BatchConfig;

#[test]
fn inherited_knobs_do_not_reach_the_machine() {
    let configs = || -> Vec<String> {
        NAMES
            .iter()
            .map(|n| {
                format!("{:?}", Workload::new(n, 0, false).unwrap().machine(Path::new("t"), false))
            })
            .collect()
    };
    workload::scrub_env();
    let clean = configs();

    std::env::set_var("PRESCIENT_FABRIC", "sharded:3");
    std::env::set_var("PRESCIENT_TRACE", "1");
    std::env::set_var("PRESCIENT_BATCH", "1");
    std::env::set_var("PRESCIENT_METRICS", "on");
    // A malformed knob would panic the library's constructors if it got that far.
    std::env::set_var("PRESCIENT_PLACEMENT", "nonsense");
    workload::scrub_env();
    assert!(std::env::vars().all(|(k, _)| !k.starts_with("PRESCIENT_")));
    assert_eq!(configs(), clean);

    let plain = Workload::new("adaptive", 0, false).unwrap().machine(Path::new("t"), false);
    assert_eq!(plain.fabric, FabricKind::Channel);
    assert_eq!(plain.batch, BatchConfig::default());
    assert!(!plain.trace.enabled && !plain.metrics.enabled && !plain.checkpoints);
    assert!(plain.placement.is_off() && plain.crash.is_none() && plain.faults.is_none());
    assert_eq!((plain.nodes, plain.block_size), (32, 128));
    assert_eq!(plain.retry.timeout.as_secs(), 30);

    let observed =
        Workload::new("adaptive_observed", 0, false).unwrap().machine(Path::new("t"), false);
    assert!(observed.trace.enabled && observed.checkpoints);
    assert_eq!(observed.trace.capacity, 4096);
    assert_eq!(observed.metrics.stream.as_deref(), Some("t/metrics.jsonl"));
}
