//! Two-process socket-fabric smoke test.
//!
//! The parent process hosts nodes `0..2` and the child (re-spawned from
//! the same executable) hosts nodes `2..4` of one 4-node fabric; the two
//! halves rendezvous over TCP (`SocketHost` / `connect`) and run the
//! full Stache protocol across the process boundary. The workload is an
//! exclusive-increment torture: every node repeatedly upgrades every
//! counter block to exclusive and increments it, so ownership of each
//! block moves across the wire on nearly every step (gets, recalls,
//! grants, and data all cross the socket). Each node then polls until
//! every counter reaches `nodes × rounds` — invalidation-based polling,
//! which only converges if cross-process recalls work.
//!
//! Termination uses a separate one-byte control socket: neither side's
//! nodes may stop serving until *both* have verified, or the peer's
//! in-flight fetches would hang against nodes nobody drains. There is
//! deliberately no shared-memory coordination — everything between the
//! processes travels over the two sockets.
//!
//! Run with no arguments (the parent spawns the child); exits non-zero
//! on any divergence. The `socket_two_process` integration test drives
//! it in CI.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::Command;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use prescient_runtime::RunTimeline;
use prescient_stache::testkit::Cluster;
use prescient_stache::{fetch, Msg, NoHooks, Node, RetryConfig};
use prescient_tempest::fabric::Endpoint;
use prescient_tempest::socket::{connect, NodeRange, SocketGuard, SocketHost};
use prescient_tempest::{
    BatchConfig, GAddr, GlobalLayout, LatencyHist, NodeId, PhaseRecord, Prim, TimeBreakdown,
};

const NODES: usize = 4;
const SPLIT: u16 = 2;
const BS: usize = 64;
const ROUNDS: u64 = 8;
const TARGET: u64 = NODES as u64 * ROUNDS;

/// One u64 counter per node, at the base of its heap segment — both
/// processes derive every address from the layout alone, no exchange.
fn counter_addr(layout: &GlobalLayout, node: NodeId) -> GAddr {
    layout.heap_base(node)
}

/// Increment the counter at `addr`: read + write with no drain of the
/// inbox between them (nothing can revoke ownership mid-increment, because
/// only this thread runs the node's handlers), faulting into `fetch` for
/// exclusive access.
fn incr(node: &mut Node, addr: GAddr) {
    let mut buf = [0u8; 8];
    loop {
        let mem = &mut node.state.mem;
        let fault = match mem.read_in_block(addr, &mut buf) {
            Err(f) => Some(f.fault().block),
            Ok(()) => {
                let v = u64::load(&buf) + 1;
                v.store(&mut buf);
                match mem.write_in_block(addr, &buf) {
                    Ok(()) => None,
                    Err(f) => Some(f.fault().block),
                }
            }
        };
        match fault {
            None => return,
            Some(block) => {
                fetch(node, block, true);
            }
        }
    }
}

/// Poll until the counter at `addr` reaches `want`. A stale read-only
/// copy stays stale until a writer's recall invalidates it, so a
/// successful read below target serves the inbox for a millisecond; the
/// final increment must invalidate every copy, after which the re-read
/// faults and fetches the final value.
fn await_value(node: &mut Node, addr: GAddr, want: u64) {
    let mut buf = [0u8; 8];
    loop {
        match node.state.mem.read_in_block(addr, &mut buf) {
            Ok(()) => {
                let v = u64::load(&buf);
                assert!(v <= want, "counter {addr:?} overshot: {v} > {want}");
                if v == want {
                    return;
                }
                node.next_wake(Some(Instant::now() + Duration::from_millis(1)));
            }
            Err(f) => {
                fetch(node, f.fault().block, false);
            }
        }
    }
}

/// Per-process metrics export: with `PRESCIENT_METRICS_OUT` set, each
/// process writes its half's whole-run counter timeline to
/// `{base}.{start}-{end}.timeline.json` (one record per local node; the
/// schema carries the node range, so `prescient-metrics merge`
/// reassembles the machine from the per-process files).
fn export_timeline(range: NodeRange, nodes: &[Node]) {
    let Ok(base) = std::env::var("PRESCIENT_METRICS_OUT") else { return };
    let records = nodes
        .iter()
        .map(|n| &n.shared)
        .map(|s| PhaseRecord {
            node: s.me,
            seq: 0,
            run: 1,
            phase: 0,
            iter: 0,
            version: 0,
            vtime: TimeBreakdown::default(),
            stats: s.stats.snapshot(),
            fetch: LatencyHist::default(),
            wire: None,
        })
        .collect();
    let t = RunTimeline::with_range(NODES, range, records);
    let path = format!("{base}.{}-{}.timeline.json", range.start, range.end());
    std::fs::write(&path, t.to_json()).expect("write per-process timeline export");
    eprintln!("socket_smoke: wrote {path}");
}

/// Run this process's half: one thread per local node runs the increment
/// workload and verification, then keeps serving until `sync_done` has
/// confirmed the peer is also done. Returns the local nodes' total message
/// count.
fn run_side(
    eps: Vec<Endpoint<Msg>>,
    range: NodeRange,
    mut guard: SocketGuard,
    sync_done: impl FnOnce(),
) -> u64 {
    let layout = GlobalLayout::new(NODES, BS);
    let retry = RetryConfig { timeout: Duration::from_millis(100), max_retries: 600 };
    let ctl = Arc::clone(eps[0].ctl());
    let mut half = Cluster::over(eps, layout, retry, |_| Arc::new(NoHooks));
    for node in &mut half.nodes {
        assert_eq!(
            node.state.mem.alloc(8, 8),
            counter_addr(&layout, node.shared.me),
            "counter address must be derivable from the layout alone"
        );
    }

    half.run_then(
        |node, _| {
            for _ in 0..ROUNDS {
                for t in 0..NODES as NodeId {
                    incr(node, counter_addr(&layout, t));
                }
            }
            for t in 0..NODES as NodeId {
                await_value(node, counter_addr(&layout, t), TARGET);
            }
        },
        // Both halves verified before either stops serving.
        sync_done,
    );

    // Counters are final: export, then tear the sockets down.
    export_timeline(range, &half.nodes);
    ctl.mark_closing();
    guard.shutdown();
    half.nodes.iter().map(|n| n.shared.stats.msgs_out.load(Ordering::Relaxed)).sum()
}

fn parent() {
    let host = SocketHost::bind("127.0.0.1:0").expect("bind fabric rendezvous");
    let fabric_addr = host.local_addr().expect("fabric addr").to_string();
    let ctl_listener = TcpListener::bind("127.0.0.1:0").expect("bind control");
    let ctl_addr = ctl_listener.local_addr().expect("control addr").to_string();
    let exe = std::env::current_exe().expect("current exe");
    let mut child = Command::new(exe)
        .args(["--child", &fabric_addr, &ctl_addr])
        .spawn()
        .expect("spawn child process");

    let batch = BatchConfig::default_for_fabric();
    let range = NodeRange::new(0, SPLIT);
    let (eps, guard) = host.accept::<Msg>(NODES, range, batch).expect("accept peer");
    let msgs = run_side(eps, range, guard, || {
        let (mut s, _) = ctl_listener.accept().expect("control accept");
        let mut byte = [0u8; 1];
        s.read_exact(&mut byte).expect("child done byte");
        s.write_all(&[0xAA]).expect("parent done byte");
    });

    let status = child.wait().expect("child wait");
    assert!(status.success(), "child process failed: {status}");
    println!("socket_smoke: PASS {NODES} nodes across 2 processes, {TARGET} per counter, {msgs} parent-side msgs");
}

fn child(fabric_addr: &str, ctl_addr: &str) {
    let batch = BatchConfig::default_for_fabric();
    let range = NodeRange::new(SPLIT, NODES as u16 - SPLIT);
    let (eps, guard) = connect::<Msg>(fabric_addr, NODES, range, batch, Duration::from_secs(10))
        .expect("connect to parent fabric");
    let msgs = run_side(eps, range, guard, || {
        let mut s = TcpStream::connect(ctl_addr).expect("control connect");
        s.write_all(&[0xEE]).expect("child done byte");
        let mut byte = [0u8; 1];
        s.read_exact(&mut byte).expect("parent done byte");
    });
    println!("socket_smoke: child half done, {msgs} child-side msgs");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.as_slice() {
        [_, flag, fabric, ctl] if flag == "--child" => child(fabric, ctl),
        [_] => parent(),
        _ => {
            eprintln!("usage: socket_smoke            (parent: spawns its own child)");
            eprintln!("       socket_smoke --child <fabric_addr> <ctl_addr>");
            std::process::exit(2);
        }
    }
}
