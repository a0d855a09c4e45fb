//! Layer probes: what one operation of each layer costs, measured by
//! calling the layer's public API in isolation, on the same pinned CPU and
//! in the same calibrated units as the application runs.
//!
//! A probe's number is a unit cost for the attribution in `layers`, not a
//! gated metric. Each layer's probes run inside one `probe:<layer>` span,
//! calibrated like a rep: by the calibration slices that ran inside it.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use prescient_core::PhaseSchedule;
use prescient_runtime::{Agg1D, Dist1D, Machine, MachineConfig, NodeCtx};
use prescient_tempest::{
    BatchConfig, BlockId, EventKind, Fabric, GlobalLayout, MetricsConfig, NodeId, NodeMem, Tag,
    Tracer, TryRecv, VBarrier,
};

use crate::run::{Harness, Metric};
use crate::workload::{pinned, BLOCK_SIZE};

/// The C** program the compiler probe compiles.
const JACOBI: &str = include_str!("../../examples/jacobi.cstar");

/// Elements of the vector the allreduce probe sums: Water's force vector
/// at paper scale (3 × 512), the one allreduce the applications make.
const ALLREDUCE_LEN: usize = 1536;

/// Blocks the store probes cycle over: 512 KiB of data at 128 B, past the
/// first-level cache as the applications' working sets are.
const STORE_BLOCKS: u64 = 4096;

/// Unit costs by metric name, in each metric's own unit, calibrated.
pub struct UnitCosts(pub Vec<Metric>);

impl UnitCosts {
    /// The cost named `name`; every name asked for is one a probe below
    /// produced, so a miss is a bug in this file.
    pub fn get(&self, name: &str) -> f64 {
        match self.0.iter().find(|m| m.name == name) {
            Some(m) => m.value,
            None => panic!("no probe made {name}"),
        }
    }
}

/// A raw probe result: `seconds` per operation, reported in `unit`.
fn cost(name: &'static str, seconds: f64, unit: &'static str) -> Metric {
    let scale = match unit {
        "ns" => 1e9,
        "us" | "us/MiB" => 1e6,
        "ms" => 1e3,
        other => panic!("probe unit {other}"),
    };
    Metric { name, value: seconds * scale, unit }
}

/// Seconds per iteration of `body` over `iters` iterations.
fn per_iter(iters: u64, mut body: impl FnMut(u64)) -> f64 {
    let t = Instant::now();
    for i in 0..iters {
        body(i);
    }
    t.elapsed().as_secs_f64() / iters as f64
}

/// Run every probe. `nodes` is the workload's machine size (the `_n32`
/// probes run at it); `shrink` divides every iteration count (quick mode).
pub fn run_all(h: &mut Harness, nodes: usize, shrink: u64) -> UnitCosts {
    let mut out = Vec::new();
    let iters = |n: u64| (n / shrink).max(4);
    let layers: [(&str, &dyn Fn() -> Vec<Metric>); 11] = [
        ("tempest::mem", &|| mem(iters(2_000_000))),
        ("runtime::ctx", &|| ctx(nodes, iters(2_000_000), iters(600))),
        ("tempest::barrier", &|| barrier(nodes, iters(20_000), iters(2000))),
        ("tempest::fabric", &|| fabric(iters(4000), iters(40_000))),
        ("stache", &|| stache(nodes, iters(10_000), iters(600))),
        ("core", &|| core(iters(2_000_000), iters(400), iters(200))),
        ("runtime::machine", &|| machine(nodes, iters(40), iters(200))),
        ("runtime::recovery", &|| recovery(nodes, iters(80))),
        ("tempest::trace", &|| trace(iters(8_000_000))),
        ("tempest::metrics", &|| metrics(nodes, iters(600), iters(40_000))),
        ("cstar", &|| vec![cost("cstar.compile_us", cstar(iters(2000)), "us")]),
    ];
    for (layer, probe) in layers {
        let (raw, scale) = h.measured(&format!("probe:{layer}"), |_| probe());
        out.extend(raw.into_iter().map(|m| Metric { value: scale.apply(m.value), ..m }));
    }
    UnitCosts(out)
}

// ---- tempest::mem ----------------------------------------------------------

fn mem(iters: u64) -> Vec<Metric> {
    let bs = BLOCK_SIZE as u64;
    let layout = GlobalLayout::new(4, BLOCK_SIZE);
    let mut home = NodeMem::new(layout, 0);
    let base = home.alloc(STORE_BLOCKS * bs, bs);
    let addrs: Vec<_> = (0..STORE_BLOCKS).map(|i| base.add(i * bs)).collect();
    let blocks: Vec<BlockId> = addrs.iter().map(|a| a.block(BLOCK_SIZE)).collect();
    let at = |i: u64| (i % STORE_BLOCKS) as usize;
    for a in &addrs {
        home.write_in_block(*a, &[1u8; 8]).expect("home block is writable");
    }

    let mut buf = [0u8; 8];
    let read = per_iter(iters, |i| {
        home.read_in_block(black_box(addrs[at(i)]), &mut buf).expect("hit");
        black_box(&buf);
    });
    let write = per_iter(iters, |i| {
        home.write_in_block(black_box(addrs[at(i)]), &i.to_le_bytes()).expect("hit");
    });
    let probe = per_iter(iters, |i| {
        black_box(home.probe(black_box(blocks[at(i)])));
    });
    let snapshot = per_iter(iters / 4, |i| {
        black_box(home.snapshot(black_box(blocks[at(i)])));
    });

    // Installs land in another node's store, as data replies and pre-sends
    // do: the same blocks, cached at node 1.
    let mut cache = NodeMem::new(layout, 1);
    let data: Arc<[u8]> = vec![7u8; BLOCK_SIZE].into();
    let install = per_iter(iters / 4, |i| {
        black_box(cache.install(blocks[at(i)], &data, Tag::ReadOnly, false));
    });
    let bulk: Vec<(BlockId, Arc<[u8]>)> =
        blocks[..64].iter().map(|b| (*b, Arc::clone(&data))).collect();
    let install_bulk = per_iter(iters / 256, |_| {
        black_box(cache.install_bulk(black_box(&bulk), Tag::ReadOnly, true));
    }) / bulk.len() as f64;

    let mib = home.checkpoint().bytes() as f64 / (1 << 20) as f64;
    let checkpoint = per_iter((iters / 20_000).max(4), |_| {
        black_box(home.checkpoint());
    }) / mib;

    vec![
        cost("mem.read_hit_ns", read, "ns"),
        cost("mem.write_hit_ns", write, "ns"),
        cost("mem.probe_ns", probe, "ns"),
        cost("mem.install_ns", install, "ns"),
        cost("mem.install_bulk_ns_per_block", install_bulk, "ns"),
        cost("mem.snapshot_ns", snapshot, "ns"),
        cost("mem.checkpoint_us_per_mb", checkpoint, "us/MiB"),
    ]
}

// ---- runtime::ctx ----------------------------------------------------------

/// Node 0's answer from a run where every node returns one.
fn node0<R>(results: Vec<R>) -> R {
    results.into_iter().next().expect("a machine has a node 0")
}

fn predictive(nodes: usize) -> MachineConfig {
    pinned(MachineConfig::predictive(nodes, BLOCK_SIZE))
}

fn stache_cfg(nodes: usize) -> MachineConfig {
    pinned(MachineConfig::stache(nodes, BLOCK_SIZE))
}

/// Seconds per empty phase on `machine`, seen from node 0.
fn empty_phases(machine: &mut Machine, phases: u64) -> f64 {
    node0(machine.run(|ctx: &mut NodeCtx| per_iter(phases, |_| ctx.phase(1, &mut (), |_, _| {}))).0)
}

fn ctx(nodes: usize, accesses: u64, phases: u64) -> Vec<Metric> {
    // The hit path does not depend on the machine's size: two nodes.
    let mut small = Machine::new(predictive(2));
    let a = Agg1D::<f64>::new(&small, 2 * STORE_BLOCKS as usize, Dist1D::Block);
    let (read, write) = node0(
        small
            .run(|ctx: &mut NodeCtx| {
                let mut hit = (0.0, 0.0);
                if ctx.me() == 0 {
                    let mine = a.my_range(0);
                    let at = |i: u64| mine.start + (i % mine.len() as u64) as usize;
                    for i in mine.clone() {
                        ctx.write(a.addr(i), 1.0f64);
                    }
                    let mut sum = 0.0;
                    hit.0 = per_iter(accesses, |i| sum += ctx.read::<f64>(a.addr(at(i))));
                    black_box(sum);
                    hit.1 = per_iter(accesses, |i| ctx.write(a.addr(at(i)), i as f64));
                }
                ctx.barrier();
                hit
            })
            .0,
    );

    let mut big = Machine::new(predictive(nodes));
    let phase = empty_phases(&mut big, phases);
    let allreduce = node0(
        big.run(|ctx: &mut NodeCtx| {
            let mut v = vec![1.0f64; ALLREDUCE_LEN];
            per_iter(phases, |_| ctx.allreduce_sum(&mut v))
        })
        .0,
    );
    vec![
        cost("ctx.read_hit_ns", read, "ns"),
        cost("ctx.write_hit_ns", write, "ns"),
        cost("ctx.phase_us_n32", phase, "us"),
        cost("ctx.allreduce_us_n32", allreduce, "us"),
    ]
}

// ---- tempest::barrier ------------------------------------------------------

/// Seconds per barrier episode with `parties` threads on this CPU.
fn barrier_wait(parties: usize, waits: u64) -> f64 {
    let b = VBarrier::new(parties);
    std::thread::scope(|s| {
        for _ in 1..parties {
            s.spawn(|| {
                for i in 0..waits {
                    b.wait(i);
                }
            });
        }
        per_iter(waits, |i| {
            b.wait(i);
        })
    })
}

fn barrier(nodes: usize, waits_n2: u64, waits_big: u64) -> Vec<Metric> {
    vec![
        cost("barrier.wait_us_n2", barrier_wait(2, waits_n2), "us"),
        cost("barrier.wait_us_n32", barrier_wait(nodes, waits_big), "us"),
    ]
}

// ---- tempest::fabric -------------------------------------------------------

/// Tells the echo side of a ping-pong to stop.
const STOP: u64 = u64::MAX;

fn fabric(bursts: u64, round_trips: u64) -> Vec<Metric> {
    // One thread, both ends: the cost of moving a message through egress
    // buffer, wire batch, channel and receive ring, with no wake-up.
    const BURST: u64 = 256;
    let eps = Fabric::new_with::<u64>(2, BatchConfig::default());
    let send_recv = per_iter(bursts, |_| {
        for i in 0..BURST {
            eps[0].net().send(1, black_box(i));
        }
        eps[0].net().flush_all();
        while let TryRecv::Msg(env) = eps[1].try_recv() {
            black_box(env);
        }
    }) / BURST as f64;

    // Two threads: every message wakes a sleeping receiver.
    let mut eps = Fabric::new_with::<u64>(2, BatchConfig::default()).into_iter();
    let (a, b) = (eps.next().expect("node 0"), eps.next().expect("node 1"));
    let pingpong = std::thread::scope(|s| {
        s.spawn(move || {
            while let Some(env) = b.recv() {
                if env.msg == STOP {
                    break;
                }
                b.net().send(0, env.msg);
            }
        });
        let rt = per_iter(round_trips, |i| {
            a.net().send(1, i);
            black_box(a.recv());
        });
        a.net().send(1, STOP);
        a.net().flush_all();
        rt
    });

    // The same exchange over the sharded backend, one node per shard.
    let mut eps = Fabric::new_sharded::<u64>(2, 2).into_iter();
    let (a, b) = (eps.next().expect("shard 0"), eps.next().expect("shard 1"));
    let sharded = std::thread::scope(|s| {
        s.spawn(move || {
            while let Some(env) = b.recv() {
                if env.msg == STOP {
                    break;
                }
                b.net(1).send(0, env.msg);
            }
        });
        let rt = per_iter(round_trips, |i| {
            a.net(0).send(1, i);
            black_box(a.recv());
        });
        a.net(0).send(1, STOP);
        a.flush_members();
        rt
    });

    vec![
        cost("fabric.send_recv_ns", send_recv, "ns"),
        cost("fabric.pingpong_us", pingpong, "us"),
        cost("fabric.sharded_pingpong_us", sharded, "us"),
    ]
}

// ---- stache ----------------------------------------------------------------

/// Mean seconds `victim` spends in `access` per round, where each round is
/// `setup` on every node, a barrier, the timed access, a barrier. Only the
/// access is timed, so the barriers cost nothing here.
fn miss_cost(
    machine: &mut Machine,
    rounds: u64,
    victim: NodeId,
    setup: impl Fn(&mut NodeCtx, u64) + Sync,
    access: impl Fn(&mut NodeCtx, u64) + Sync,
) -> f64 {
    let per_node = machine
        .run(|ctx: &mut NodeCtx| {
            let mut spent = 0.0;
            for i in 0..rounds {
                setup(ctx, i);
                ctx.barrier();
                if ctx.me() == victim {
                    let t = Instant::now();
                    access(ctx, i);
                    spent += t.elapsed().as_secs_f64();
                }
                ctx.barrier();
            }
            spent / rounds as f64
        })
        .0;
    per_node[victim as usize]
}

fn stache(nodes: usize, rounds: u64, fanout_rounds: u64) -> Vec<Metric> {
    // Element 0 is homed at node 0 in every machine below.
    let mut two = Machine::new(stache_cfg(2));
    let a = Agg1D::<f64>::new(&two, 64, Dist1D::Block);
    let home_writes = |ctx: &mut NodeCtx, i: u64| {
        if ctx.me() == 0 {
            ctx.write(a.addr(0), i as f64);
        }
    };
    let read_miss = miss_cost(&mut two, rounds, 1, home_writes, |ctx, _| {
        black_box(ctx.read::<f64>(a.addr(0)));
    });
    let write_miss =
        miss_cost(&mut two, rounds, 1, home_writes, |ctx, i| ctx.write(a.addr(0), i as f64));

    // Producer (node 1) to consumer (node 2) through the home (node 0):
    // the four-message transfer of the paper's §3.2.
    let mut three = Machine::new(stache_cfg(3));
    let a3 = Agg1D::<f64>::new(&three, 96, Dist1D::Block);
    let transfer = miss_cost(
        &mut three,
        rounds,
        2,
        |ctx, i| {
            if ctx.me() == 1 {
                ctx.write(a3.addr(0), i as f64);
            }
        },
        |ctx, _| {
            black_box(ctx.read::<f64>(a3.addr(0)));
        },
    );

    // Every node holds a read-only copy; node 1's write invalidates them all.
    let mut wide = Machine::new(stache_cfg(nodes));
    let aw = Agg1D::<f64>::new(&wide, 32 * nodes, Dist1D::Block);
    let fanout = miss_cost(
        &mut wide,
        fanout_rounds,
        1,
        |ctx, _| {
            black_box(ctx.read::<f64>(aw.addr(0)));
        },
        |ctx, i| ctx.write(aw.addr(0), i as f64),
    );

    vec![
        cost("stache.read_miss_us", read_miss, "us"),
        cost("stache.write_miss_us", write_miss, "us"),
        cost("stache.transfer_us", transfer, "us"),
        cost("stache.inval_fanout_us_n32", fanout, "us"),
    ]
}

// ---- core ------------------------------------------------------------------

fn core(records: u64, replays: u64, presend_iters: u64) -> Vec<Metric> {
    let mut schedule = PhaseSchedule::default();
    let record = per_iter(records, |i| {
        schedule.record_read(BlockId(black_box(i % STORE_BLOCKS)), (1 + i % 7) as NodeId);
    });
    // The schedule now holds `STORE_BLOCKS` (4 Ki) read entries.
    let replay = per_iter(replays, |_| {
        black_box(schedule.replay(true));
    });

    // A pre-send costs something per message and something per block.
    // Contiguous blocks travel many to a message, scattered ones one
    // each: two patterns, two equations, two unit costs.
    let (t1, b1, m1) = presend(1, presend_iters);
    let (t2, b2, m2) = presend(2, presend_iters);
    let per_block = (t1 * m2 - t2 * m1) / (b1 * m2 - b2 * m1);
    let per_msg = (t2 - b2 * per_block) / m2;

    vec![
        cost("schedule.record_ns", record, "ns"),
        cost("schedule.replay_us_4k", replay, "us"),
        cost("presend.us_per_block", per_block, "us"),
        cost("presend.us_per_msg", per_msg, "us"),
    ]
}

/// Blocks the pre-send probe pushes per phase instance.
const PRESEND_BLOCKS: usize = 256;

/// Seconds node 0 spent pre-sending, and the blocks and messages it pushed,
/// over `iters` rounds of: node 1 reads one element of every `stride`-th
/// block of node 0 in phase 1; node 0 rewrites those in phase 2, so every
/// later instance of phase 1 pre-sends them all again; phase 3 has no
/// schedule. The time is what `phase_begin(1)` takes beyond
/// `phase_begin(3)`.
fn presend(stride: usize, iters: u64) -> (f64, f64, f64) {
    let per_block = BLOCK_SIZE / std::mem::size_of::<f64>();
    let mut m = Machine::new(predictive(2));
    let a = Agg1D::<f64>::new(&m, 2 * stride * PRESEND_BLOCKS * per_block, Dist1D::Block);
    let (spent, report) = m.run(|ctx: &mut NodeCtx| {
        let touched = a.my_range(0).step_by(stride * per_block);
        let (mut with, mut without) = (0.0, 0.0);
        for i in 0..iters {
            let t = Instant::now();
            ctx.phase_begin(1);
            with += t.elapsed().as_secs_f64();
            if ctx.me() == 1 {
                for k in touched.clone() {
                    black_box(ctx.read::<f64>(a.addr(k)));
                }
            }
            ctx.phase_end();
            ctx.phase_begin(2);
            if ctx.me() == 0 {
                for k in touched.clone() {
                    ctx.write(a.addr(k), i as f64);
                }
            }
            ctx.phase_end();
            let t = Instant::now();
            ctx.phase_begin(3);
            without += t.elapsed().as_secs_f64();
            ctx.phase_end();
        }
        with - without
    });
    let t = report.total_stats();
    (node0(spent), t.presend_blocks_out as f64, t.presend_msgs_out as f64)
}

// ---- runtime::machine ------------------------------------------------------

fn machine(nodes: usize, builds: u64, runs: u64) -> Vec<Metric> {
    let build = per_iter(builds, |_| drop(Machine::new(predictive(nodes))));
    let mut m = Machine::new(predictive(nodes));
    let run_empty = per_iter(runs, |_| {
        m.run(|ctx: &mut NodeCtx| ctx.barrier());
    });
    vec![
        cost("machine.build_ms_n32", build, "ms"),
        cost("machine.run_empty_us_n32", run_empty, "us"),
    ]
}

// ---- runtime::recovery, tempest::trace, tempest::metrics -------------------

/// Shared data each node holds while the checkpoint probe runs. A
/// checkpoint copies every resident block, and Adaptive at paper scale
/// copies about 21 KiB per node and phase (`recovery.checkpoint_mb` ÷
/// `recovery.checkpoints`).
const CHECKPOINT_BYTES_PER_NODE: usize = 24 << 10;

fn recovery(nodes: usize, phases: u64) -> Vec<Metric> {
    let per_node = CHECKPOINT_BYTES_PER_NODE / std::mem::size_of::<f64>();
    let per_phase = |checkpoints: bool| {
        let mut m = Machine::new(predictive(nodes).with_checkpoints(checkpoints));
        let a = Agg1D::<f64>::new(&m, nodes * per_node, Dist1D::Block);
        m.run(|ctx: &mut NodeCtx| {
            for i in a.my_range(ctx.me()) {
                ctx.write(a.addr(i), 1.0f64);
            }
            ctx.barrier();
        });
        empty_phases(&mut m, phases)
    };
    vec![cost("recovery.checkpoint_us_per_phase", per_phase(true) - per_phase(false), "us")]
}

fn trace(emits: u64) -> Vec<Metric> {
    let on = black_box(Tracer::new(0, crate::workload::OBSERVED_TRACE_CAPACITY));
    let off = black_box(Tracer::off());
    let emit = |t: &Tracer| per_iter(emits, |i| t.emit(EventKind::FaultBegin, black_box(i), 0));
    vec![cost("trace.emit_ns", emit(&on), "ns"), cost("trace.emit_off_ns", emit(&off), "ns")]
}

fn metrics(nodes: usize, phases: u64, lines: u64) -> Vec<Metric> {
    let mut off = Machine::new(predictive(nodes));
    let mut on = Machine::new(predictive(nodes).with_metrics(MetricsConfig::on()));
    let cut = empty_phases(&mut on, phases) - empty_phases(&mut off, phases);
    let records = on.timeline().expect("metrics are on").records;
    let json = per_iter(lines, |i| {
        black_box(records[i as usize % records.len()].to_json_line());
    });
    vec![cost("metrics.cut_us_per_phase", cut, "us"), cost("metrics.record_json_ns", json, "ns")]
}

// ---- cstar -----------------------------------------------------------------

fn cstar(compiles: u64) -> f64 {
    per_iter(compiles, |_| {
        black_box(prescient_cstar::compile::compile(black_box(JACOBI)).expect("jacobi compiles"));
    })
}

// ---- harness ---------------------------------------------------------------

/// Raw seconds the harness's own recorder takes to record one span, nested
/// as a rep's are. Multiplied by the spans a rep records, this is what the
/// traced run's tracing adds to it.
pub fn span_cost_s() -> f64 {
    let mut spans = crate::spans::Spans::new(true);
    spans.enter("run");
    per_iter(100_000, |_| {
        spans.enter("rep");
        spans.enter("app_call");
        spans.exit();
        spans.exit();
    }) / 2.0
}
