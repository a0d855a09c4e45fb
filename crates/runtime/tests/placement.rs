//! Traffic-aware home placement (DESIGN.md §14): the schedule-guided
//! offline remap, the one mechanism that moves homes.
//!
//! The contract these tests pin down: placement may only change *where*
//! directory entries live — application results and the demand-fetch
//! pattern are untouched. Concretely, against a static-layout run of the
//! same program, a remapped run must keep the final values bit-identical
//! and `blocks_moved` (misses, under plain Stache) exactly equal, while
//! message counts are allowed to drop — and do, because moving a home to
//! its dominant requester removes the third-party hops of §3.2.
//!
//! Every leg uses a non-zero `home_shift` as the deliberately bad static
//! layout: the apps allocate owner-homed, so the unshifted default is
//! already placement-optimal and there would be nothing to recover.

use prescient_runtime::{Agg1D, Dist1D, Machine, MachineConfig, NodeCtx, PlacementSpec, RunReport};
use prescient_tempest::{BlockId, HomeMap};

const NODES: usize = 4;
const N: usize = 64;
const ITERS: usize = 6;

/// The double-buffered Jacobi relaxation from `machine_e2e`, returning the
/// final array (read on node 0) and the measured run's report.
fn relax(cfg: MachineConfig) -> (Vec<f64>, RunReport) {
    let mut m = Machine::new(cfg);
    let a = Agg1D::<f64>::new(&m, N, Dist1D::Block);
    let b = Agg1D::<f64>::new(&m, N, Dist1D::Block);
    m.run(|ctx: &mut NodeCtx| {
        for i in a.my_range(ctx.me()) {
            ctx.write(a.addr(i), i as f64);
            ctx.write(b.addr(i), i as f64);
        }
        ctx.barrier();
    });
    let sweep = |ctx: &mut NodeCtx, src: &Agg1D<f64>, dst: &Agg1D<f64>| {
        for i in src.my_range(ctx.me()) {
            let v = if i > 0 && i + 1 < N {
                let l: f64 = ctx.read(src.addr(i - 1));
                let r: f64 = ctx.read(src.addr(i + 1));
                0.5 * (l + r)
            } else {
                ctx.read(src.addr(i))
            };
            ctx.write(dst.addr(i), v);
        }
    };
    let (_, report) = m.run(|ctx: &mut NodeCtx| {
        for _ in 0..ITERS {
            ctx.phase(1, &mut (), |ctx, ()| sweep(ctx, &a, &b));
            ctx.phase(2, &mut (), |ctx, ()| sweep(ctx, &b, &a));
        }
    });
    let (vals, _) = m.run(|ctx: &mut NodeCtx| {
        let mut out = Vec::new();
        if ctx.me() == 0 {
            for i in 0..N {
                out.push(ctx.read::<f64>(a.addr(i)));
            }
        }
        ctx.barrier();
        out
    });
    (vals[0].clone(), report)
}

fn assert_same_values(tag: &str, base: &[f64], got: &[f64]) {
    assert_eq!(base.len(), got.len(), "{tag}: result length");
    for (i, (b, g)) in base.iter().zip(got).enumerate() {
        assert_eq!(b.to_bits(), g.to_bits(), "{tag}: value {i} diverged ({b} vs {g})");
    }
}

/// The owner mapping of `relax`'s two aggregates — what
/// `prescient-telemetry emit-remap` distills from a recorded run of it —
/// learned from a throwaway machine with identical allocations.
fn owner_map() -> HomeMap {
    let probe = Machine::new(MachineConfig::stache(NODES, 32));
    let pa = Agg1D::<f64>::new(&probe, N, Dist1D::Block);
    let pb = Agg1D::<f64>::new(&probe, N, Dist1D::Block);
    let mut map = HomeMap::new();
    for agg in [&pa, &pb] {
        for node in 0..NODES as u16 {
            for i in agg.my_range(node) {
                map.insert(probe.layout().block_of(agg.addr(i)), node);
            }
        }
    }
    assert!(!map.is_empty());
    map
}

/// The remap contract under one protocol: against the shifted
/// static layout, the owner remap keeps the values bit-identical,
/// accounts every overlay entry, and strictly cuts messages. Under plain
/// Stache the demand pattern is deterministic, so misses and
/// `blocks_moved` must also be exactly equal; under the predictive
/// protocol a reader that became the home is served from home memory
/// instead of a push, so pre-sending must stay live but may only shrink.
fn remap_contract(map: &HomeMap, predictive: bool) {
    let base = if predictive {
        MachineConfig::predictive(NODES, 32)
    } else {
        MachineConfig::stache(NODES, 32)
    }
    .with_home_shift(1);
    let remapped = map.len() as u64;
    let (v0, r0) = relax(base.clone().validated());
    let (v1, r1) = relax(base.with_placement(PlacementSpec::Remap(map.clone())).validated());
    let tag = format!("remap/{}", if predictive { "predictive" } else { "stache" });
    assert_same_values(&tag, &v0, &v1);
    let (s0, s1) = (r0.total_stats(), r1.total_stats());
    assert_eq!(s1.remapped_blocks, remapped, "{tag}: every overlay entry is accounted");
    assert_eq!(s0.remapped_blocks, 0, "{tag}: the static leg remaps nothing");
    if predictive {
        assert!(s1.presend_blocks_out > 0, "{tag}: remapped homes must keep pre-sending");
        assert!(
            s1.presend_blocks_out <= s0.presend_blocks_out,
            "{tag}: remap must not inflate pre-sends ({} vs {})",
            s1.presend_blocks_out,
            s0.presend_blocks_out
        );
    } else {
        assert_eq!(s1.misses(), s0.misses(), "{tag}: remap must not change demand misses");
        assert_eq!(r1.blocks_moved(), r0.blocks_moved(), "{tag}: blocks_moved must be identical");
    }
    assert!(
        s1.msgs_out < s0.msgs_out,
        "{tag}: owner remap must cut messages ({} vs {})",
        s1.msgs_out,
        s0.msgs_out
    );
}

#[test]
fn schedule_guided_remap_matches_static_and_cuts_messages() {
    // The remap text format round-trips exactly.
    let map = owner_map();
    assert_eq!(HomeMap::parse(&map.to_text(), NODES).expect("round-trip"), map);

    for predictive in [false, true] {
        remap_contract(&map, predictive);
    }
}

/// A programmatic remap naming a node outside the machine must fail at
/// construction with a message naming the block and home — not as an
/// index panic mid-run (only `HomeMap::parse` range-checks on its own).
#[test]
#[should_panic(expected = "remap of block 12: home 4 out of range (nodes=4)")]
fn out_of_range_programmatic_remap_fails_at_construction() {
    let mut map = HomeMap::new();
    map.insert(BlockId(12), NODES as u16);
    let _ =
        Machine::new(MachineConfig::stache(NODES, 32).with_placement(PlacementSpec::Remap(map)));
}

/// Hostile input on the remap surface: whatever bytes arrive in a remap
/// file or a `PRESCIENT_PLACEMENT` value, the parsers return `Ok`/`Err`
/// and never panic; the retired `online` spellings are ordinary unknown
/// modes.
#[test]
fn hostile_remap_input_never_panics() {
    // Enough of an input to identify the case in a failure message.
    let head = |s: &str| s.chars().take(24).collect::<String>();
    let huge_line = "9".repeat(1 << 20);
    let lossy = String::from_utf8_lossy(b"12 \xff\xfe 3\n\x80").into_owned();
    let max_block = format!("{} 3", u64::MAX);
    let overflow = format!("{}0 3", u64::MAX);
    // (input, parses as a remap file?)
    let files: [(&str, bool); 10] = [
        ("", true),
        ("\n\n# only comments\n", true),
        (&max_block, true),
        (&overflow, false),
        ("\0", false),
        ("12\x00 3", false),
        (&lossy, false),
        (&huge_line, false),
        ("12 -1", false),
        ("12 65536", false),
    ];
    for (text, ok) in files {
        let got = HomeMap::parse(text, NODES);
        assert_eq!(got.is_ok(), ok, "HomeMap::parse({:?}...) = {got:?}", head(text));
    }
    assert_eq!(HomeMap::parse(&max_block, NODES).expect("max").get(BlockId(u64::MAX)), Some(3));

    let specs = ["", "\0", "remap:", "remap:\0", &lossy, &huge_line, "off:", ":", "remap"];
    for s in specs {
        assert!(PlacementSpec::parse(s, NODES).is_err(), "{:?}... must not parse", head(s));
    }
    for online in ["online", "online:1,2,3"] {
        assert_eq!(PlacementSpec::parse(online, NODES).expect_err(online), "unknown mode");
    }
}
