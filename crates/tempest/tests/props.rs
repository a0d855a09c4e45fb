//! Properties of the substrate primitives: NodeSet vs a model set,
//! address/block math, allocator invariants, Prim roundtrips, and per-link
//! FIFO on a batched faulty fabric — each over the seeded cases of
//! `tempest::rng` (256 apiece, as under proptest's default).

use std::collections::BTreeSet;
use std::num::FpCategory;

use prescient_tempest::rng::{cases, Gen};
use prescient_tempest::{
    BatchConfig, Fabric, FaultPlan, GAddr, GlobalLayout, NodeMem, NodeSet, Prim, TryRecv,
};

/// Up to 31 node ids below 64.
fn id_set(g: &mut Gen) -> BTreeSet<u16> {
    g.vec(0..32, |g| g.below(64) as u16).into_iter().collect()
}

#[test]
fn nodeset_matches_btreeset_model() {
    cases(256, |g| {
        let mut s = NodeSet::EMPTY;
        let mut model = BTreeSet::new();
        for (n, insert) in g.vec(0..200, |g| (g.below(64) as u16, g.bool())) {
            if insert {
                s.insert(n);
                model.insert(n);
            } else {
                s.remove(n);
                model.remove(&n);
            }
            assert_eq!(s.len(), model.len());
            assert_eq!(s.is_empty(), model.is_empty());
        }
        let collected: Vec<u16> = s.iter().collect();
        let expected: Vec<u16> = model.into_iter().collect();
        assert_eq!(collected, expected, "iteration ascending and complete");
    });
}

#[test]
fn nodeset_algebra_matches_model() {
    cases(256, |g| {
        let (a, b) = (id_set(g), id_set(g));
        let sa: NodeSet = a.iter().copied().collect();
        let sb: NodeSet = b.iter().copied().collect();
        let union: BTreeSet<u16> = a.union(&b).copied().collect();
        let inter: BTreeSet<u16> = a.intersection(&b).copied().collect();
        let minus: BTreeSet<u16> = a.difference(&b).copied().collect();
        assert_eq!(sa.union(sb).iter().collect::<BTreeSet<_>>(), union);
        assert_eq!(sa.intersect(sb).iter().collect::<BTreeSet<_>>(), inter);
        assert_eq!(sa.minus(sb).iter().collect::<BTreeSet<_>>(), minus);
    });
}

#[test]
fn block_math_consistent() {
    cases(256, |g| {
        let a = GAddr(g.range(1..1 << 40));
        let bs = 1usize << g.range(3..11); // block sizes 8..1024
        let b = a.block(bs);
        let base = b.base(bs);
        assert!(base.0 <= a.0);
        assert!(a.0 < base.0 + bs as u64);
        assert_eq!(base.offset_in_block(bs), 0);
        assert_eq!(a.offset_in_block(bs) as u64, a.0 - base.0);
        // Neighboring block bases differ by exactly the block size.
        assert_eq!(b.next().base(bs).0, base.0 + bs as u64);
    });
}

#[test]
fn allocator_never_overlaps_or_straddles() {
    cases(256, |g| {
        let sizes = g.vec(1..40, |g| (g.range(1..100), 1u64 << g.below(4)));
        let bs = 1usize << g.range(5..9);
        let layout = GlobalLayout::new(3, bs);
        let mut mem = NodeMem::new(layout, 1);
        let mut regions: Vec<(u64, u64)> = Vec::new();
        for (bytes, align) in sizes {
            let a = mem.alloc(bytes, align);
            assert_eq!(a.0 % align, 0, "alignment respected");
            assert_eq!(layout.home_of(a), 1, "allocation homed locally");
            // Small allocations never straddle a block boundary.
            if bytes as usize <= bs {
                let end = a.0 + bytes - 1;
                assert_eq!(a.block(bs), GAddr(end).block(bs), "no straddle");
            }
            for &(s, e) in &regions {
                assert!(a.0 + bytes <= s || a.0 >= e, "no overlap");
            }
            regions.push((a.0, a.0 + bytes));
        }
    });
}

/// Any `f64` bit pattern, with NaN, the infinities, both zeros, the
/// extremes and subnormals over-represented (what `any::<f64>()` drew).
fn any_f64(g: &mut Gen) -> f64 {
    const EDGES: [f64; 7] =
        [f64::NAN, f64::INFINITY, -f64::INFINITY, 0.0, -0.0, f64::MAX, f64::MIN_POSITIVE];
    match g.below(4) {
        0 => g.pick(&EDGES),
        // Exponent field 0: a subnormal of either sign.
        1 => f64::from_bits(g.u64() & !(0x7ff << 52)),
        _ => f64::from_bits(g.u64()),
    }
}

#[test]
fn any_f64_draws_every_class_proptest_did() {
    let mut seen = [false; 6];
    cases(256, |g| {
        let v = any_f64(g);
        let class = match v.classify() {
            FpCategory::Nan => 0,
            FpCategory::Infinite => 1 + usize::from(v < 0.0),
            FpCategory::Zero if v.is_sign_negative() => 3,
            FpCategory::Subnormal => 4,
            _ => 5,
        };
        seen[class] = true;
    });
    assert_eq!(seen, [true; 6], "NaN, +inf, -inf, -0.0, subnormal, anything else");
}

#[test]
fn prim_f64_roundtrip() {
    cases(256, |g| {
        let v = any_f64(g);
        let mut buf = [0u8; 8];
        v.store(&mut buf);
        // NaN-safe comparison via bits.
        assert_eq!(f64::load(&buf).to_bits(), v.to_bits());
    });
}

#[test]
fn prim_u64_i64_roundtrip() {
    cases(256, |g| {
        let (v, w) = (g.u64(), g.u64() as i64);
        let mut buf = [0u8; 8];
        v.store(&mut buf);
        assert_eq!(u64::load(&buf), v);
        w.store(&mut buf);
        assert_eq!(i64::load(&buf), w);
    });
}

/// A batched faulty fabric in FIFO-preserving mode keeps per-link order
/// (after collapsing back-to-back duplicates, survivors are strictly
/// ascending), delivers only messages that were sent, and — because fault
/// fates are drawn per-envelope at flush time — the per-link survivor
/// sequence is bit-identical to an unbatched (`max_batch = 1`) fabric with
/// the same seed and send sequence.
#[test]
fn batched_faulty_fabric_keeps_per_link_fifo() {
    cases(256, |g| {
        let plan = FaultPlan::new(g.u64())
            .delaying(g.below(300) as u16, 4)
            .duplicating(g.below(200) as u16)
            .dropping(g.below(150) as u16);
        let (batch, count) = (g.range(1..65) as usize, g.range(1..160));
        // Two sources fan in to one destination; the payload tags the
        // source so each link's stream can be recovered at the receiver.
        let mut runs: Vec<Vec<Vec<u64>>> = Vec::new();
        for max in [1usize, batch] {
            let (eps, _stats) = Fabric::new_faulty_with::<u64>(3, plan, BatchConfig::new(max));
            for seq in 0..count {
                eps[0].net().send(2, seq);
                eps[1].net().send(2, (1 << 32) | seq);
            }
            eps[0].net().flush_all();
            eps[1].net().flush_all();
            let mut per_src = vec![Vec::new(), Vec::new()];
            while let TryRecv::Msg(env) = eps[2].try_recv() {
                per_src[(env.msg >> 32) as usize].push(env.msg & 0xffff_ffff);
            }
            for stream in &mut per_src {
                // The fault layer delivers duplicates back-to-back on
                // their link, so collapsing adjacent repeats leaves the
                // surviving sends, which must still be in send order.
                stream.dedup();
                let mut sorted = stream.clone();
                sorted.sort_unstable();
                assert_eq!(stream, &sorted, "per-link FIFO must survive batching");
                assert!(stream.iter().all(|&q| q < count), "only sent messages arrive");
            }
            runs.push(per_src);
        }
        assert_eq!(runs[0], runs[1], "survivors must not depend on batch size");
    });
}
