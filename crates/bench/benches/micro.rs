//! Microbenches for the core mechanisms, on a private timing loop
//! (`cargo bench -p prescient-bench --bench micro -- [NAME-PREFIX] [--quick]`
//! prints the median and range of k samples per bench as `ns/iter`):
//!
//! * `protocol/remote_read_miss` — a full 2-hop miss through the engine;
//! * `protocol/producer_consumer_roundtrip` — the 4-message §3.2 pattern;
//! * `presend/record_and_presend_64_blocks` — schedule recording and the
//!   pre-send walk;
//! * `presend/replay_4k` — encoding a 4 Ki-entry schedule's runs afresh
//!   (the repo benchmark's `schedule.replay_us_4k` probe), and
//!   `presend/replay_steady` the same schedule's runs at a steady-state
//!   instance, taken from the per-generation cache;
//! * `presend/teardown_wave_k64` — one home tearing down 64 stale blocks,
//!   one sharer each on three peers, in one pre-send window: time **per
//!   block**, to set beside `protocol/producer_consumer_roundtrip` (one
//!   blocking 4-message exchange; the wave's 4 messages per block overlap);
//! * `compiler/compile_jacobi` — the whole mini-C\*\* pipeline;
//! * `dataflow/solve` — the bit-vector fixpoint on a deep loop nest;
//! * `machine/barrier` — one virtual-time barrier episode;
//! * `barrier/serve_wait_n32` — the same through the runtime on the
//!   paper's 32 nodes: arrive, serve the inbox until released, the last
//!   arriver kicking 31 peers (not bare `VBarrier::wait`);
//! * `barrier/empty_phase_n32`, `barrier/allreduce_n32` — an empty
//!   predictive phase (three host episodes) and a 16-word all-reduce (one)
//!   on 32 nodes: what a phase boundary and a reduction cost the host
//!   beyond their bodies;
//! * `barrier/phase_seq_n32` — two adjacent empty predictive phases
//!   through `NodeCtx::phases` (five host episodes: the first phase's
//!   closing barrier opens the second); its time less two
//!   `empty_phase_n32`s is what the fused boundary saves;
//! * `mem/*` — the flat paged arena in isolation: block lookup on the hit
//!   path, tag probe, data reply snapshot, and the dense block walk;
//!   `mem/checkpoint_24k` is the allocating `NodeMem::checkpoint` the repo
//!   benchmark's `mem.checkpoint_us_per_mb` probe times;
//! * `recovery/capture_24k` — one node's per-phase checkpoint captured in
//!   place into a reused buffer, 24 KiB resident (an Adaptive node's share
//!   at paper scale), after an untimed rewrite of one block in three (an
//!   Adaptive phase rewrites about a third of a node's blocks): the capture
//!   copies those alone;
//! * `ctx/*` — the same hit one layer up, through `NodeCtx::read`/`write`
//!   (access counter, virtual clock, poll countdown, then `mem/*`'s work),
//!   reads and writes apart; `ctx/poll_empty` is what every
//!   `POLL_EVERY`-th access adds: one drain of an empty inbox;
//!   `ctx/{read,write}_run_16` and `ctx/read_run_4` are the run form, one
//!   iteration a whole run (Water's 16 partners in one 128-byte block,
//!   Barnes' 4-word cell summary) — divide by the length to set it beside
//!   `ctx/read_hit`; `mem/read_hit_slice` is the borrowed hit under it;
//! * `dir/entry_hit` — a home's directory lookup of a block it has seen
//!   (the map every request and pre-send at the home goes through), over
//!   4096 of one home's blocks;
//! * `agg/*` — element index → global address for the two distributions
//!   the applications use, at their paper shapes, and `agg/runs_256`, one
//!   molecule's partner range cut into its 17 partition runs. `addr_*`
//!   calls are independent, so the CPU overlaps them; each `addr_*_chain`
//!   twin derives its next index from the previous address, so it shows
//!   the latency an access waits for;
//! * `fabric/*` — the raw wire: a 256-message burst sent one envelope per
//!   wire op (`send_single`, the pre-batching behavior) vs. packed into
//!   wire batches (`send_batched`), and the receive-side batch drain in
//!   isolation (`drain`);
//! * `telemetry/*` — the teardown exports at the repo benchmark's
//!   `adaptive_observed` shape, written into a sink that only counts:
//!   `chrome_export` and `jsonl_export` one iteration all 32 × 4 096
//!   merged trace events (their `_io` twins the same through an
//!   `IoSink` over `io::sink()`: a file's writes, no disk),
//!   `timeline_export` the timeline of 19 296 phase records;
//!   `record_json` is one record's stream line, the benchmark's
//!   `metrics.record_json_ns` probe.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use prescient_core::manual::ManualEntry;
use prescient_core::presend::presend;
use prescient_core::{PhaseSchedule, Predictive, PredictiveConfig};
use prescient_cstar::dataflow::ReachingUnstructured;
use prescient_runtime::{Agg1D, Agg2D, Dist1D, Dist2D, Machine, MachineConfig, NodeCtx};
use prescient_stache::testkit::Cluster;
use prescient_stache::{Directory, NoHooks, NodeCheckpoint, RetryConfig};
use prescient_tempest::{
    BatchConfig, BlockId, Fabric, GAddr, GlobalLayout, NodeId, NodeMem, TryRecv,
};

fn bench_remote_miss(c: &mut Timer) {
    let mut machine = Machine::new(MachineConfig::stache(2, 64));
    let a = Agg1D::<f64>::new(&machine, 64, Dist1D::Block);
    c.bench_function("protocol/remote_read_miss", |b| {
        b.iter_custom(|iters| {
            let (durs, _) = machine.run(|ctx: &mut NodeCtx| {
                let start = std::time::Instant::now();
                // Node 1 reads node 0's element; node 0 rewrites it each
                // round to force a fresh miss.
                for i in 0..iters {
                    if ctx.me() == 0 {
                        ctx.write(a.addr(0), i as f64);
                    }
                    ctx.barrier();
                    if ctx.me() == 1 {
                        let _: f64 = ctx.read(a.addr(0));
                    }
                    ctx.barrier();
                }
                let d = start.elapsed();
                ctx.barrier();
                d
            });
            durs[1]
        })
    });
}

fn bench_producer_consumer(c: &mut Timer) {
    let mut machine = Machine::new(MachineConfig::stache(3, 64));
    let a = Agg1D::<f64>::new(&machine, 64, Dist1D::Block);
    c.bench_function("protocol/producer_consumer_roundtrip", |b| {
        b.iter_custom(|iters| {
            let (durs, _) = machine.run(|ctx: &mut NodeCtx| {
                // Home is node 0; producer node 1; consumer node 2 — the
                // full 4-message transfer of §3.2.
                let start = std::time::Instant::now();
                for i in 0..iters {
                    if ctx.me() == 1 {
                        ctx.write(a.addr(0), i as f64);
                    }
                    ctx.barrier();
                    if ctx.me() == 2 {
                        let _: f64 = ctx.read(a.addr(0));
                    }
                    ctx.barrier();
                }
                let d = start.elapsed();
                ctx.barrier();
                d
            });
            durs[2]
        })
    });
}

fn bench_presend(c: &mut Timer) {
    c.bench_function("presend/record_and_presend_64_blocks", |b| {
        b.iter_custom(|iters| {
            let mut machine = Machine::new(MachineConfig::predictive(2, 32));
            let a = Agg1D::<f64>::new(&machine, 256, Dist1D::Block); // 64 blocks total
            let (durs, _) = machine.run(|ctx: &mut NodeCtx| {
                let start = std::time::Instant::now();
                for _ in 0..iters {
                    ctx.phase_begin(1);
                    if ctx.me() == 1 {
                        for i in 0..128 {
                            let _: f64 = ctx.read(a.addr(i));
                        }
                    }
                    ctx.phase_end();
                    ctx.phase_begin(2);
                    if ctx.me() == 0 {
                        for i in a.my_range(0) {
                            ctx.write(a.addr(i), 1.0);
                        }
                    }
                    ctx.phase_end();
                }
                let d = start.elapsed();
                ctx.barrier();
                d
            });
            durs[0]
        })
    });
}

fn bench_replay(c: &mut Timer) {
    let mut schedule = PhaseSchedule::default();
    for i in 0..4096u64 {
        schedule.record_read(BlockId(i), (1 + i % 7) as NodeId);
    }
    c.bench_function("presend/replay_4k", |b| b.iter(|| schedule.replay(true)));
    c.bench_function("presend/replay_steady", |b| b.iter(|| schedule.runs(true)));
}

fn bench_teardown_wave(c: &mut Timer) {
    const K: usize = 64;
    let pred = Arc::new(Predictive::new(PredictiveConfig::default()));
    let mut m = Cluster::new(4, 32, RetryConfig::default(), None, |i| match i {
        0 => Arc::clone(&pred) as _,
        _ => Arc::new(NoHooks) as _,
    });
    let addrs: Vec<GAddr> = (0..K).map(|_| m.nodes[0].state.mem.alloc(32, 32)).collect();
    let layout = m.nodes[0].shared.layout;
    // Node 0 prefetches ownership of its own blocks home: tear-downs only.
    pred.install_manual(1, addrs.iter().map(|a| (layout.block_of(*a), ManualEntry::Writer(0))));
    c.bench_function("presend/teardown_wave_k64", |b| {
        b.iter_custom(|iters| {
            // One iteration is one block: whole windows, scaled.
            let windows = iters.div_ceil(K as u64);
            let mut window = std::time::Duration::ZERO;
            for _ in 0..windows {
                // Untimed: block i goes stale at peer 1 + i mod 3.
                m.run(|node, _| {
                    for (i, a) in addrs.iter().enumerate() {
                        if node.shared.me as usize == 1 + i % 3 {
                            prescient_stache::fetch(node, layout.block_of(*a), false);
                        }
                    }
                });
                let (rep, d) = m.on(0, |node| {
                    let start = std::time::Instant::now();
                    (presend(&pred, node, 1), start.elapsed())
                });
                assert_eq!(rep.ensure_fetches, K as u64);
                window += d;
            }
            window.mul_f64(iters as f64 / (windows * K as u64) as f64)
        })
    });
}

fn bench_compiler(c: &mut Timer) {
    const SRC: &str = r#"
        aggregate G[64][64] of float;
        aggregate H[64][64] of float;
        parallel fn sweep(g, h) {
            h[#0][#1] = 0.25 * (g[#0-1][#1] + g[#0+1][#1] + g[#0][#1-1] + g[#0][#1+1]);
        }
        fn main() {
            for it in 0 .. 100 { sweep(G, H); sweep(H, G); }
        }
    "#;
    c.bench_function("compiler/compile_jacobi", |b| {
        b.iter(|| prescient_cstar::compile::compile(std::hint::black_box(SRC)).unwrap())
    });
}

fn bench_dataflow(c: &mut Timer) {
    // A deep loop nest with many aggregates: stress the fixpoint. Call `fi`
    // touches aggregate `Ai` alone: an owner write when 3 | i, a non-home
    // read when 2 | i, a non-home write when 5 | i.
    let mut src = String::new();
    for i in 0..32 {
        src.push_str(&format!("aggregate A{i}[8] of float;\n"));
    }
    for i in 0..32 {
        let mut body = String::from("let x = 0.0;");
        if i % 2 == 0 {
            body.push_str(" x = a[7 - #0];");
        }
        if i % 3 == 0 {
            body.push_str(" a[#0] = x;");
        }
        if i % 5 == 0 {
            body.push_str(" a[7 - #0] = x;");
        }
        src.push_str(&format!("parallel fn f{i}(a) {{ {body} }}\n"));
    }
    src.push_str("fn main() {\n");
    for depth in 0..6 {
        src.push_str(&format!("for l{depth} in 0 .. 2 {{\n"));
    }
    for i in 0..32 {
        src.push_str(&format!("f{i}(A{i});\n"));
    }
    src.push_str(&"}\n".repeat(7));
    let cfg = prescient_cstar::compile::compile(&src).expect("the nest compiles").cfg;
    c.bench_function("dataflow/solve_32aggs_6deep", |b| {
        b.iter(|| ReachingUnstructured::solve(std::hint::black_box(&cfg)).unwrap())
    });
}

fn bench_barrier(c: &mut Timer) {
    let stache = |nodes| MachineConfig::stache(nodes, 64);
    on_every_node(c, "machine/barrier_4nodes", stache(4), |ctx| ctx.barrier());
    on_every_node(c, "barrier/serve_wait_n32", stache(32), |ctx| ctx.barrier());
    on_every_node(c, "barrier/empty_phase_n32", MachineConfig::predictive(32, 64), |ctx| {
        ctx.phase(1, &mut (), |_, _| {})
    });
    on_every_node(c, "barrier/phase_seq_n32", MachineConfig::predictive(32, 64), |ctx| {
        ctx.phases([1, 2], &mut (), |_, _, _| {})
    });
    on_every_node(c, "barrier/allreduce_n32", stache(32), |ctx| ctx.allreduce_sum(&mut [1.0; 16]));
}

/// Time `op`, run by every node of a `cfg` machine once per iteration,
/// as node 0 sees it.
fn on_every_node(c: &mut Timer, name: &str, cfg: MachineConfig, op: impl Fn(&mut NodeCtx) + Sync) {
    let mut machine = Machine::new(cfg);
    c.bench_function(name, |b| {
        b.iter_custom(|iters| {
            let (durs, _) = machine.run(|ctx: &mut NodeCtx| {
                let start = std::time::Instant::now();
                for _ in 0..iters {
                    op(ctx);
                }
                start.elapsed()
            });
            durs[0]
        })
    });
}

fn bench_mem(c: &mut Timer) {
    let layout = GlobalLayout::new(4, 32);
    // A store with 1024 resident home blocks (4 arena pages), written so
    // every slot is materialized.
    let mut mem = NodeMem::new(layout, 0);
    let base = mem.alloc(1024 * 32, 32);
    for i in 0..1024u64 {
        mem.write_in_block(base.add(i * 32), &[i as u8; 8]).unwrap();
    }
    let addrs: Vec<_> = (0..1024u64).map(|i| base.add(i * 32)).collect();
    let blocks: Vec<_> = addrs.iter().map(|a| a.block(32)).collect();

    c.bench_function("mem/block_lookup_hit", |b| {
        let mut i = 0usize;
        let mut buf = [0u8; 8];
        b.iter(|| {
            i = (i + 1) & 1023;
            mem.read_in_block(std::hint::black_box(addrs[i]), &mut buf).unwrap();
            buf
        })
    });
    c.bench_function("mem/read_hit_slice", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) & 1023;
            mem.read_hit(std::hint::black_box(addrs[i]), 32).map(|s| s[0])
        })
    });
    c.bench_function("mem/probe", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) & 1023;
            mem.probe(std::hint::black_box(blocks[i]))
        })
    });
    c.bench_function("mem/snapshot_resident", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) & 1023;
            mem.snapshot(std::hint::black_box(blocks[i]))
        })
    });
    c.bench_function("mem/iter_blocks_1k_resident", |b| b.iter(|| mem.iter_blocks().count()));
}

fn bench_recovery(c: &mut Timer) {
    // One node holding 24 KiB of 128-byte blocks, the share an Adaptive
    // node checkpoints per phase at paper scale.
    const BYTES: u64 = 24 << 10;
    let mut m = Cluster::new(2, 128, RetryConfig::default(), None, |_| Arc::new(NoHooks));
    let node = &mut m.nodes[0];
    let base = node.state.mem.alloc(BYTES, 128);
    for i in 0..BYTES / 128 {
        node.state.mem.write_in_block(base.add(i * 128), &[i as u8; 8]).unwrap();
    }
    let mut ckpt = NodeCheckpoint::default();
    c.bench_function("recovery/capture_24k", |b| {
        b.iter_custom(|iters| {
            let mut spent = Duration::ZERO;
            for n in 0..iters {
                for i in (0..BYTES / 128).step_by(3) {
                    node.state.mem.write_in_block(base.add(i * 128), &[n as u8; 8]).unwrap();
                }
                let start = Instant::now();
                node.checkpoint_into(&mut ckpt);
                spent += start.elapsed();
            }
            spent
        })
    });
    c.bench_function("mem/checkpoint_24k", |b| b.iter(|| node.state.mem.checkpoint()));
}

/// Time `access` over `addrs` (4096 of them, cycled) on node 0 of
/// `machine`, from inside the node's thread.
fn timed_on_node_0(
    c: &mut Timer,
    machine: &mut Machine,
    addrs: &[GAddr],
    name: &str,
    access: &(dyn Fn(&mut NodeCtx, GAddr, u64) + Sync),
) {
    c.bench_function(name, |b| {
        b.iter_custom(|iters| {
            let (durs, _) = machine.run(|ctx: &mut NodeCtx| {
                let start = std::time::Instant::now();
                if ctx.me() == 0 {
                    for i in 0..iters {
                        access(ctx, std::hint::black_box(addrs[i as usize & 4095]), i);
                    }
                }
                let d = start.elapsed();
                ctx.barrier();
                d
            });
            durs[0]
        })
    });
}

fn bench_ctx(c: &mut Timer) {
    // Node 0 cycles over 4096 of its own elements (1024 blocks, all
    // written first so every access is a hit). Addresses are computed
    // outside the timed loop: `agg/*` times them on their own.
    let mut machine = Machine::new(MachineConfig::stache(2, 32));
    let a = Agg1D::<f64>::new(&machine, 2 * 4096, Dist1D::Block);
    let addrs: Vec<GAddr> = a.my_range(0).map(|i| a.addr(i)).collect();
    machine.run(|ctx: &mut NodeCtx| {
        if ctx.me() == 0 {
            for &addr in &addrs {
                ctx.write(addr, 1.0f64);
            }
        }
        ctx.barrier();
    });
    timed_on_node_0(c, &mut machine, &addrs, "ctx/read_hit", &|ctx, addr, _| {
        std::hint::black_box(ctx.read::<f64>(addr));
    });
    timed_on_node_0(c, &mut machine, &addrs, "ctx/write_hit", &|ctx, addr, i| {
        ctx.write(addr, i as f64)
    });

    // The run form at the paper's 128-byte blocks: 4096 block-aligned
    // runs of 16 words, and the 4-word run at the head of each.
    let mut wide = Machine::new(MachineConfig::stache(2, 128));
    let base = wide.alloc_on(0, 4096 * 128, 128);
    let runs: Vec<GAddr> = (0..4096).map(|r| base.add(128 * r)).collect();
    wide.run(|ctx: &mut NodeCtx| {
        if ctx.me() == 0 {
            runs.iter().for_each(|&r| ctx.write_run(r, &[1.0f64; 16]));
        }
        ctx.barrier();
    });
    timed_on_node_0(c, &mut wide, &runs, "ctx/read_run_16", &|ctx, addr, _| {
        let mut out = [0.0f64; 16];
        ctx.read_run(addr, &mut out);
        std::hint::black_box(out);
    });
    timed_on_node_0(c, &mut wide, &runs, "ctx/read_run_4", &|ctx, addr, _| {
        let mut out = [0.0f64; 4];
        ctx.read_run(addr, &mut out);
        std::hint::black_box(out);
    });
    timed_on_node_0(c, &mut wide, &runs, "ctx/write_run_16", &|ctx, addr, i| {
        ctx.write_run(addr, &[i as f64; 16])
    });

    // The poll itself, below the runtime: a node whose inbox is empty.
    let mut idle =
        Cluster::new(1, 32, RetryConfig::default(), None, |_| std::sync::Arc::new(NoHooks));
    c.bench_function("ctx/poll_empty", |b| b.iter(|| idle.nodes[0].poll()));

    // The home's directory lookup every request takes: node 3's shard of
    // a 32-node machine, 4096 of its own blocks already entered.
    let layout = GlobalLayout::new(32, 32);
    let mut mem = NodeMem::new(layout, 3);
    let base = mem.alloc(4096 * 32, 32);
    let blocks: Vec<BlockId> = (0..4096u64).map(|i| base.add(i * 32).block(32)).collect();
    let mut dir = Directory::new();
    for &b in &blocks {
        dir.entry(b);
    }
    c.bench_function("dir/entry_hit", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) & 4095;
            dir.entry(std::hint::black_box(blocks[i])).is_busy()
        })
    });
}

fn bench_agg(c: &mut Timer) {
    // Water's position vectors (512 molecules) and Adaptive's mesh
    // (128 x 128), both on the paper's 32 nodes.
    let machine = Machine::new(MachineConfig::stache(32, 32));
    let a = Agg1D::<f64>::new(&machine, 512, Dist1D::Block);
    let g = Agg2D::<f64>::new(&machine, 128, 128, Dist2D::RowBlock);
    c.bench_function("agg/addr_block_1d", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 37) & 511;
            a.addr(std::hint::black_box(i))
        })
    });
    c.bench_function("agg/runs_256", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 37) & 255;
            a.runs(std::hint::black_box(i + 1..i + 256))
                .fold(0, |n, (addr, k)| n + addr.0 as usize + k)
        })
    });
    c.bench_function("agg/addr_rowblock_2d", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 37) & 127;
            g.addr(std::hint::black_box(i), std::hint::black_box(127 - i))
        })
    });
    c.bench_function("agg/addr_block_1d_chain", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let addr = a.addr(i);
            i = ((addr.0 >> 3) as usize + 37) & 511;
            addr
        })
    });
    c.bench_function("agg/addr_rowblock_2d_chain", |b| {
        let mut i = 0usize;
        b.iter(|| {
            let addr = g.addr(i, 127 - i);
            i = ((addr.0 >> 3) as usize + 37) & 127;
            addr
        })
    });
}

fn bench_fabric(c: &mut Timer) {
    const BURST: u64 = 256;

    // One envelope per wire op (max_batch = 1): every send pays one inbox
    // lock and push. The receiver only polls, so it never parks and no
    // send signals it. This is the pre-batching transport.
    {
        let eps = Fabric::new_with::<u64>(2, BatchConfig::off());
        c.bench_function("fabric/send_single", |b| {
            b.iter(|| {
                for i in 0..BURST {
                    eps[0].net().send(1, std::hint::black_box(i));
                }
                eps[0].net().flush_all();
                let mut n = 0u64;
                while let TryRecv::Msg(_) = eps[1].try_recv() {
                    n += 1;
                }
                n
            })
        });
    }

    // Same burst through the egress buffers: consecutive envelopes pack
    // into wire batches, one channel op per batch.
    {
        let eps = Fabric::new_with::<u64>(2, BatchConfig::new(64));
        c.bench_function("fabric/send_batched", |b| {
            b.iter(|| {
                for i in 0..BURST {
                    eps[0].net().send(1, std::hint::black_box(i));
                }
                eps[0].net().flush_all();
                let mut n = 0u64;
                while let TryRecv::Msg(_) = eps[1].try_recv() {
                    n += 1;
                }
                n
            })
        });
    }

    // Receive side in isolation: the burst is already on the wire (sent
    // batched, outside the timed routine); measure draining it through
    // the endpoint's internal ring.
    {
        let eps = Fabric::new_with::<u64>(2, BatchConfig::new(64));
        c.bench_function("fabric/drain", |b| {
            b.iter_batched(
                || {
                    for i in 0..BURST {
                        eps[0].net().send(1, i);
                    }
                    eps[0].net().flush_all();
                },
                |()| {
                    let mut n = 0u64;
                    while let TryRecv::Msg(_) = eps[1].try_recv() {
                        n += 1;
                    }
                    n
                },
            )
        });
    }
}

fn bench_telemetry(c: &mut Timer) {
    use prescient_runtime::RunTimeline;
    use prescient_tempest::json::{IoSink, Sink};
    use prescient_tempest::trace::{write_chrome_json, write_jsonl, EventKind, TraceEvent};
    use prescient_tempest::{LatencyHist, PhaseRecord, TimeBreakdown, WireSnapshot};

    /// A sink that keeps nothing: the benches time the writers alone. It
    /// takes the writer's bytes in a file's chunks.
    struct Count(usize);
    impl Sink for Count {
        const CHUNK: usize = <IoSink<std::io::Sink> as Sink>::CHUNK;
        fn take(&mut self, bytes: &mut Vec<u8>) {
            self.0 += bytes.len();
            bytes.clear();
        }
    }

    // Each node's events open and close spans in program order: a phase
    // around faults, messages, a wire flush and a barrier.
    const CYCLE: [EventKind; 9] = [
        EventKind::PhaseBegin,
        EventKind::FaultBegin,
        EventKind::MsgSend,
        EventKind::MsgRecv,
        EventKind::FaultEnd,
        EventKind::WireFlush,
        EventKind::BarrierEnter,
        EventKind::BarrierExit,
        EventKind::PhaseEnd,
    ];
    let (nodes, per_node) = (32u64, 4096u64);
    let events: Vec<TraceEvent> = (0..nodes * per_node)
        .map(|i| {
            let (node, seq) = (i % nodes, i / nodes);
            TraceEvent {
                node: node as u16,
                seq,
                t_ns: seq * 1_733 + node * 11,
                phase: (seq / CYCLE.len() as u64 % 3) as u32 + 1,
                kind: CYCLE[seq as usize % CYCLE.len()],
                a: seq * 64,
                b: node,
            }
        })
        .collect();
    c.bench_function("telemetry/chrome_export", |b| {
        b.iter(|| write_chrome_json(&events, Count(0)).0)
    });
    c.bench_function("telemetry/jsonl_export", |b| b.iter(|| write_jsonl(&events, Count(0)).0));
    // The same exports through a file sink that discards: the `write`
    // calls a real export makes, without the disk.
    let io = || IoSink::new(std::io::sink());
    c.bench_function("telemetry/chrome_export_io", |b| {
        b.iter(|| write_chrome_json(&events, io()).finish())
    });
    c.bench_function("telemetry/jsonl_export_io", |b| {
        b.iter(|| write_jsonl(&events, io()).finish())
    });

    let records: Vec<PhaseRecord> = (0..19_296u64)
        .map(|i| {
            let (node, cut) = (i % nodes, i / nodes);
            let mut stats = prescient_tempest::stats::StatsSnapshot::default();
            for (k, (_, v)) in stats.fields_mut().into_iter().enumerate() {
                *v = (cut * 31 + k as u64 * 7) % 5000;
            }
            let mut fetch = LatencyHist::default();
            (0..8).for_each(|k| fetch.record(900 + k * 300 + cut));
            PhaseRecord {
                node: node as u16,
                seq: cut,
                run: 2,
                phase: (cut % 3) as u32,
                iter: cut / 3,
                version: cut,
                vtime: TimeBreakdown {
                    compute_ns: 40_000 + cut,
                    wait_ns: 9_000,
                    presend_ns: 700,
                    synch_ns: 1_200,
                },
                stats,
                fetch,
                wire: (node == 0).then_some(WireSnapshot {
                    batches: 40,
                    envelopes: 90,
                    hist: [5; 8],
                }),
            }
        })
        .collect();
    let mut i = 0usize;
    c.bench_function("telemetry/record_json", |b| {
        b.iter(|| {
            i = (i + 1) % records.len();
            records[i].to_json_line()
        })
    });
    let timeline = RunTimeline::new(nodes as usize, records);
    c.bench_function("telemetry/timeline_export", |b| b.iter(|| timeline.write_json(Count(0)).0));
}

/// One sample: `iters` runs of the routine and the time they took.
struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        let start = Instant::now();
        (0..self.iters).for_each(|_| drop(black_box(routine())));
        self.elapsed = start.elapsed();
    }

    /// The routine times `iters` runs itself (from inside a node thread).
    fn iter_custom(&mut self, mut routine: impl FnMut(u64) -> Duration) {
        self.elapsed = routine(self.iters);
    }

    /// `setup` before every run, untimed.
    fn iter_batched<I, R>(&mut self, mut setup: impl FnMut() -> I, mut run: impl FnMut(I) -> R) {
        self.elapsed = Duration::ZERO;
        for _ in 0..self.iters {
            let input = setup();
            let start = Instant::now();
            drop(black_box(run(input)));
            self.elapsed += start.elapsed();
        }
    }
}

/// The timing loop: benches whose name starts with the first non-flag
/// argument, `samples` samples each of at least `sample_time`.
struct Timer {
    prefix: String,
    samples: usize,
    sample_time: Duration,
}

impl Timer {
    fn bench_function(&mut self, name: &str, mut bench: impl FnMut(&mut Bencher)) {
        if !name.starts_with(&self.prefix) {
            return;
        }
        let mut b = Bencher { iters: 1, elapsed: Duration::ZERO };
        let mut sample = |b: &mut Bencher| {
            bench(b);
            b.elapsed
        };
        // Double the run count until one sample is long enough to time.
        while sample(&mut b) < self.sample_time {
            b.iters *= 2;
        }
        let mut ns: Vec<f64> =
            (0..self.samples).map(|_| sample(&mut b).as_nanos() as f64 / b.iters as f64).collect();
        ns.sort_by(f64::total_cmp);
        let (lo, mid, hi) = (ns[0], ns[ns.len() / 2], ns[ns.len() - 1]);
        println!("{name:<40} {mid:>12.1} ns/iter  [{lo:.1} .. {hi:.1}]  x{}", b.iters);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut c = Timer {
        prefix: args.into_iter().find(|a| !a.starts_with('-')).unwrap_or_default(),
        samples: if quick { 3 } else { 10 },
        sample_time: Duration::from_millis(if quick { 20 } else { 200 }),
    };
    let groups: [fn(&mut Timer); 14] = [
        bench_remote_miss,
        bench_producer_consumer,
        bench_presend,
        bench_replay,
        bench_teardown_wave,
        bench_compiler,
        bench_dataflow,
        bench_barrier,
        bench_mem,
        bench_recovery,
        bench_ctx,
        bench_agg,
        bench_fabric,
        bench_telemetry,
    ];
    groups.iter().for_each(|group| group(&mut c));
}
