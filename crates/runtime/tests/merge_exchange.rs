//! End-to-end tests of the merge exchange on a Stache machine: every
//! window of `NodeCtx::merge_exchange` must deliver every contributor's
//! payload exactly once, in deterministic (contributor, chunk) order,
//! across chunking, repeated windows, chaotic fabrics, and tracing.

use std::time::Duration;

use prescient_core::commute::MAX_CHUNK_BYTES;
use prescient_runtime::{Machine, MachineConfig, NodeCtx};
use prescient_stache::RetryConfig;
use prescient_tempest::trace::pack_counts;
use prescient_tempest::{EventKind, FaultPlan, NodeId, TraceConfig};

const NODES: usize = 4;

fn stache_cfg() -> MachineConfig {
    MachineConfig::stache(NODES, 32)
        .with_retry(RetryConfig { timeout: Duration::from_secs(30), max_retries: 4 })
}

/// Bytes of the payloads the unchunked tests send: one chunk each.
const SMALL: usize = 16;

/// Bytes of the payloads the chunked tests send: three chunks each.
const LARGE: usize = 2 * MAX_CHUNK_BYTES + 16;

/// The payload node `src` sends to node `dst` in window `w`, `len + src`
/// bytes: unique per (src, dst, window) so cross-window or cross-target
/// mixups are caught.
fn payload(src: u16, dst: u16, w: usize, len: usize) -> Vec<u8> {
    (0..len + src as usize)
        .map(|i| (src as usize * 31 + dst as usize * 7 + w * 3 + i) as u8)
        .collect()
}

/// Run `windows` merge windows of `len`-byte payloads on an existing
/// machine and assert each delivers every contributor's bytes, in
/// ascending contributor order, in as many chunks as the limit makes.
fn run_windows(m: &mut Machine, windows: usize, len: usize) {
    m.run(|ctx: &mut NodeCtx| {
        let me = ctx.me();
        for w in 0..windows {
            let outgoing: Vec<(NodeId, Vec<u8>)> =
                (0..NODES as u16).map(|dst| (dst, payload(me, dst, w, len))).collect();
            let merged = ctx.merge_exchange(1, &outgoing);
            let chunks: usize = (0..NODES).map(|src| (len + src).div_ceil(MAX_CHUNK_BYTES)).sum();
            assert_eq!(merged.len(), chunks, "node {me}, window {w}: chunks in");
            // Chunks from one contributor are adjacent and in order, so
            // concatenating per contributor reassembles the payload.
            let mut got: Vec<(u16, Vec<u8>)> = Vec::new();
            for (src, bytes) in merged {
                match got.last_mut() {
                    Some((s, buf)) if *s == src => buf.extend_from_slice(&bytes),
                    _ => got.push((src, bytes.to_vec())),
                }
            }
            let expect: Vec<(u16, Vec<u8>)> =
                (0..NODES as u16).map(|src| (src, payload(src, me, w, len))).collect();
            assert_eq!(got, expect, "node {me}, window {w}");
        }
    });
}

#[test]
fn merge_delivers_every_contributor_in_order() {
    let mut m = Machine::new(stache_cfg().validated());
    run_windows(&mut m, 1, SMALL);
}

#[test]
fn repeated_windows_are_isolated_by_epochs() {
    // Five back-to-back windows: push-id/epoch bookkeeping must keep each
    // window's deltas separate and fully delivered.
    let mut m = Machine::new(stache_cfg().validated());
    run_windows(&mut m, 5, SMALL);
}

#[test]
fn chunked_payloads_reassemble() {
    // Payloads past twice the chunk limit go in three chunks each.
    let mut m = Machine::new(stache_cfg().validated());
    run_windows(&mut m, 3, LARGE);
}

#[test]
fn merge_survives_a_chaotic_fabric() {
    // Dropped pushes and dropped acks: the retransmission path plus
    // (push id, epoch) idempotency must still deliver exactly-once.
    let cfg = MachineConfig::stache(NODES, 32)
        .with_faults(FaultPlan::chaos(0x6E26E))
        .with_retry(RetryConfig { timeout: Duration::from_millis(25), max_retries: 400 })
        .validated();
    let mut m = Machine::new(cfg);
    run_windows(&mut m, 3, LARGE);
}

#[test]
#[should_panic(expected = "runs on a Stache machine")]
fn merge_on_a_predictive_machine_panics_naming_the_stache_machine() {
    let mut m = Machine::new(MachineConfig::predictive(2, 32));
    m.run(|ctx: &mut NodeCtx| drop(ctx.merge_exchange(1, &[])));
}

#[test]
fn merge_windows_are_traced() {
    std::env::set_var(
        "PRESCIENT_TRACE_OUT",
        std::env::temp_dir()
            .join(format!("merge_trace_{}", std::process::id()))
            .to_string_lossy()
            .as_ref(),
    );
    let windows = 2;
    let mut m = Machine::new(stache_cfg().with_trace(TraceConfig::with_capacity(1 << 15)));
    run_windows(&mut m, windows, SMALL);
    let (events, dropped) = m.trace_events();
    assert_eq!(dropped, 0);
    for node in 0..NODES as u16 {
        let begins: Vec<_> =
            events.iter().filter(|e| e.node == node && e.kind == EventKind::MergeBegin).collect();
        let ends: Vec<_> =
            events.iter().filter(|e| e.node == node && e.kind == EventKind::MergeEnd).collect();
        assert_eq!(begins.len(), windows, "node {node}: one MergeBegin per window");
        assert_eq!(ends.len(), windows, "node {node}: one MergeEnd per window");
        for b in &begins {
            assert_eq!(b.a, 1, "phase id rides in `a`");
            assert_eq!(b.b, NODES as u64, "payload target count rides in `b`");
        }
        for e in &ends {
            // Each window: one chunk out per remote target (the local
            // contribution skips the fabric), one chunk in per contributor
            // including self (payloads fit a single chunk at the default
            // limit).
            assert_eq!(e.b, pack_counts(NODES as u64 - 1, NODES as u64));
        }
    }
}
