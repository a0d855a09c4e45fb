//! Thread census. Alone in its test binary, so no other test's machine
//! adds threads to the count: during a run the process has one `node-<id>`
//! thread per node and no `proto-*` thread; between runs, neither.

use prescient_runtime::{Machine, MachineConfig, NodeCtx};

/// `(node-*, proto-*)` thread counts of this process.
fn census() -> (usize, usize) {
    let mut counts = (0, 0);
    for task in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let comm = task.expect("task entry").path().join("comm");
        // A thread may exit between the listing and the read.
        let Ok(name) = std::fs::read_to_string(comm) else { continue };
        counts.0 += usize::from(name.starts_with("node-"));
        counts.1 += usize::from(name.starts_with("proto-"));
    }
    counts
}

#[test]
fn a_run_has_one_thread_per_node_and_no_protocol_thread() {
    let mut m = Machine::new(MachineConfig::predictive(32, 32));
    assert_eq!(census(), (0, 0), "a machine at rest owns no thread");
    for _ in 0..2 {
        let (seen, _) = m.run(|ctx: &mut NodeCtx| {
            ctx.barrier(); // all 32 are alive
            let seen = census();
            ctx.barrier(); // and stay so until everyone has counted
            seen
        });
        assert_eq!(seen, vec![(32, 0); 32]);
        assert_eq!(census(), (0, 0), "no thread outlives its run");
    }
}
