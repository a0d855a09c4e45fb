//! Observational equivalence: the flat segment-indexed paged arena behind
//! [`NodeMem`] behaves exactly like the seed implementation's
//! `HashMap<BlockId, LocalBlock>` store (`model::RefStore`) under arbitrary
//! access sequences — same tags, same bytes, same fault/boundary errors,
//! same useless-pre-send signals, same residency accounting. One op
//! generator feeds the property (64 growing cases) and the long fixed-seed
//! tortures.
//!
//! The scripted tests at the end walk every transition between the store's
//! hit path and its slow path one by one, against the same oracle and
//! against the outcome each must have.

mod model;

use std::sync::Arc;

use model::{apply_and_check, check_final, pattern, Op, RefStore};
use prescient_tempest::rng::{cases, replay, Gen};
use prescient_tempest::tag::Access;
use prescient_tempest::{
    BlockId, Fault, GAddr, GlobalLayout, HomeMap, HomeView, MemCheckpoint, MemError, NodeMem, Tag,
};

/// One op on a block of some node's heap segment, slot indices clustered
/// around arena page boundaries (pages hold 256 blocks).
fn op(g: &mut Gen, layout: GlobalLayout) -> Op {
    let bs = layout.block_size;
    let slot = g.pick(&[0u64, 1, 2, 127, 255, 256, 257, 300, 511, 512]);
    let block = BlockId(g.below(layout.nodes as u64) * ((1u64 << 32) / bs as u64) + slot);
    let tag = g.pick(&[Tag::Invalid, Tag::ReadOnly, Tag::ReadWrite]);
    // Lengths beyond the block size exercise the boundary-crossing error
    // path on both sides.
    let (off, len) = (g.below(bs as u64) as usize, g.range(1..40) as usize);
    match g.below(10) {
        0..=1 => Op::Install(block, g.u64() as u8, tag, g.bool()),
        2 => Op::SetTag(block, tag),
        3..=5 => Op::Read(block, off, len),
        6..=7 => Op::Write(block, off, len, g.u64() as u8),
        8 => Op::Snapshot(block),
        _ => Op::ClearUnused(block),
    }
}

/// `n` generated ops against node `me`'s store and its model, every
/// observable compared after every step and the dense enumeration at the
/// end.
fn torture(g: &mut Gen, layout: GlobalLayout, me: u16, n: usize) {
    let mut mem = NodeMem::new(layout, me);
    let mut model = RefStore::new(layout, me);
    for _ in 0..n {
        apply_and_check(&mut mem, &mut model, &op(g, layout));
    }
    check_final(&mem, &model);
}

#[test]
fn flat_arena_is_observationally_equivalent_to_hashmap_store() {
    cases(64, |g| {
        let n = g.len(1..200);
        torture(g, GlobalLayout::new(4, 32), 1, n);
    });
}

#[test]
fn arena_matches_hashmap_model_under_seeded_torture() {
    for seed in [0xDEAD_BEEFu64, 0x5EED_0001, 0x5EED_0002, 0xFACE_FEED] {
        replay(seed, 100, |g| torture(g, GlobalLayout::new(4, 32), 1, 4000));
    }
}

/// Same torture at a different block size (page geometry shifts: 64-byte
/// blocks halve the blocks-per-segment count and move every boundary).
#[test]
fn arena_matches_hashmap_model_64b_blocks() {
    replay(0xB10C_64B1_0C64_B10C, 100, |g| torture(g, GlobalLayout::new(3, 64), 0, 4000));
}

// ---- incremental capture -------------------------------------------------

/// `op` on `mem` alone, its outcome dropped.
fn apply(mem: &mut NodeMem, op: &Op) {
    let bs = mem.layout().block_size;
    let at = |block: BlockId, off: usize| GAddr(block.0 * bs as u64 + off as u64);
    match *op {
        Op::Install(block, seed, tag, presend) => {
            mem.install(block, &pattern(seed, bs), tag, presend);
        }
        Op::SetTag(block, tag) => mem.set_tag(block, tag),
        Op::Read(block, off, len) => {
            let _ = mem.read_in_block(at(block, off), &mut vec![0; len]);
        }
        Op::Write(block, off, len, seed) => {
            let _ = mem.write_in_block(at(block, off), &pattern(seed, len));
        }
        Op::Snapshot(block) => drop(mem.snapshot(block)),
        Op::ClearUnused(block) => mem.clear_presend_unused(block),
    }
}

/// A block as a restore rewinds it: tag, bytes and unread-pre-send bit.
type Restored = (BlockId, Tag, Vec<u8>, bool);

/// Everything a restore rewinds that a store shows: every block and the
/// unread count.
fn view(mem: &NodeMem) -> (Vec<Restored>, usize) {
    let blocks = mem.iter_blocks().map(|(b, tag)| {
        (b, tag, mem.data(b).expect("materialized").to_vec(), mem.presend_unused(b))
    });
    (blocks.collect(), mem.unused_presends())
}

/// A store captured over and over into one image, between seeded runs of
/// writes, installs, tag changes, unread-bit flips and new blocks — and now
/// and then restored from another image, or its image overwritten by
/// another store. After each capture the image must restore to what a full
/// capture of a twin store (the same ops, never captured into the image)
/// restores to, and to the store itself.
#[test]
fn incremental_capture_equals_a_full_one() {
    let layout = GlobalLayout::new(4, 32);
    cases(64, |g| {
        let (mut mem, mut twin) = (NodeMem::new(layout, 1), NodeMem::new(layout, 1));
        let mut peer = NodeMem::new(layout, 2);
        let (mut image, mut elsewhere) = (MemCheckpoint::default(), MemCheckpoint::default());
        for _ in 0..g.len(4..24) {
            for _ in 0..g.len(1..60) {
                let next = op(g, layout);
                apply(&mut mem, &next);
                apply(&mut twin, &next);
                apply(&mut peer, &op(g, layout));
            }
            match g.below(6) {
                // The peer takes the image: the store's next capture is full.
                0 => peer.checkpoint_into(&mut image),
                // The store rolls back to another image it is then bound
                // to: a capture into `image` is full again.
                1 => {
                    peer.checkpoint_into(&mut elsewhere);
                    mem.restore(&elsewhere);
                    twin.restore(&elsewhere);
                }
                // The store rolls back to its own image and stays bound.
                2 => {
                    mem.restore(&image);
                    twin.restore(&image);
                }
                _ => {}
            }
            mem.checkpoint_into(&mut image);
            let full = twin.checkpoint();
            assert_eq!(image.bytes(), full.bytes());
            assert_eq!(image.block_count(), full.block_count());
            let (mut from_image, mut from_full) =
                (NodeMem::new(layout, 1), NodeMem::new(layout, 1));
            from_image.restore(&image);
            from_full.restore(&full);
            assert_eq!(view(&from_image), view(&from_full));
            assert_eq!(view(&from_full), view(&mem));
        }
    });
}

// ---- hit path / slow path transitions, one by one -------------------------

/// The store of node 1 of 4 (32-byte blocks) beside its model, with one
/// block of node 1's own segment remapped away by a placement overlay.
struct Pair {
    mem: NodeMem,
    model: RefStore,
}

const ME: u16 = 1;
const BS: usize = 32;
const BLOCKS_PER_SEG: u64 = (1u64 << 32) / BS as u64;

/// Block `off` of node `seg`'s heap segment.
fn blk(seg: u64, off: u64) -> BlockId {
    BlockId(seg * BLOCKS_PER_SEG + off)
}

/// The own-segment block the overlay re-homes at node 3.
const REMAPPED: BlockId = BlockId(BLOCKS_PER_SEG + 4);

impl Pair {
    fn new() -> Pair {
        let layout = GlobalLayout::new(4, BS);
        let mut overlay = HomeMap::new();
        overlay.insert(REMAPPED, 3);
        let view = Arc::new(HomeView::with_placement(layout, 0, overlay));
        Pair {
            mem: NodeMem::with_view(ME, view),
            model: RefStore::with_remapped(layout, ME, &[REMAPPED]),
        }
    }

    /// Apply to both stores (which must agree on every observable) and
    /// return the refusal, if any.
    fn step(&mut self, op: Op) -> Option<MemError> {
        apply_and_check(&mut self.mem, &mut self.model, &op)
    }

    fn read(&mut self, b: BlockId, off: usize, len: usize) -> Option<MemError> {
        self.step(Op::Read(b, off, len))
    }

    fn write(&mut self, b: BlockId, off: usize, len: usize) -> Option<MemError> {
        self.step(Op::Write(b, off, len, 0xA5))
    }
}

fn fault(block: BlockId, access: Access, observed: Tag) -> Option<MemError> {
    Some(MemError::Fault(Fault { block, access, observed }))
}

#[test]
fn first_touch_of_an_own_home_block_materializes_it_read_write() {
    for write_first in [false, true] {
        let mut p = Pair::new();
        let own = blk(1, 3);
        assert_eq!(p.mem.resident_blocks(), 0);
        let first = if write_first { p.write(own, 8, 8) } else { p.read(own, 8, 8) };
        assert_eq!(first, None, "an own home block is there from the start");
        assert_eq!(p.mem.resident_blocks(), 1, "the first touch materializes exactly it");
        assert_eq!(p.mem.probe(own), Tag::ReadWrite);
        // From here on every access is a hit: nothing else changes.
        assert_eq!(p.write(own, 0, 32), None);
        assert_eq!(p.read(own, 0, 32), None);
        assert_eq!(p.read(own, 31, 1), None);
        p.step(Op::Snapshot(own));
        assert_eq!(p.mem.resident_blocks(), 1);
        assert_eq!(p.mem.unused_presends(), 0);
        check_final(&p.mem, &p.model);
    }
}

#[test]
fn present_blocks_hit_or_fault_by_tag() {
    let mut p = Pair::new();
    for b in [blk(1, 3), blk(2, 3), REMAPPED] {
        p.step(Op::Install(b, 7, Tag::ReadWrite, false));
        assert_eq!(p.read(b, 4, 8), None, "ReadWrite reads");
        assert_eq!(p.write(b, 4, 8), None, "ReadWrite writes");

        p.step(Op::SetTag(b, Tag::ReadOnly));
        assert_eq!(p.read(b, 4, 8), None, "ReadOnly reads");
        assert_eq!(p.write(b, 4, 8), fault(b, Access::Write, Tag::ReadOnly));
        assert_eq!(p.read(b, 4, 8), None, "a refused write changed nothing");

        p.step(Op::SetTag(b, Tag::Invalid));
        assert_eq!(p.read(b, 4, 8), fault(b, Access::Read, Tag::Invalid));
        assert_eq!(p.write(b, 4, 8), fault(b, Access::Write, Tag::Invalid));
        // Present-but-Invalid is not "absent": an own home block does not
        // fall back to its first-touch ReadWrite.
        assert_eq!(p.mem.probe(b), Tag::Invalid);
        p.step(Op::Snapshot(b));
    }
    assert_eq!(p.mem.resident_blocks(), 3);
    check_final(&p.mem, &p.model);
}

#[test]
fn first_touch_of_a_remote_or_remapped_block_faults_and_materializes_nothing() {
    let mut p = Pair::new();
    // A remote block whose page does not exist, the remapped own block,
    // and — after one install allocates the page — a remote block whose
    // page exists but whose slot is absent.
    p.step(Op::Install(blk(3, 600), 1, Tag::ReadOnly, false));
    for b in [blk(2, 3), blk(0, 0), REMAPPED, blk(3, 601), blk(3, 0)] {
        assert_eq!(p.read(b, 0, 8), fault(b, Access::Read, Tag::Invalid), "{b:?}");
        assert_eq!(p.write(b, 0, 8), fault(b, Access::Write, Tag::Invalid), "{b:?}");
        assert_eq!(p.mem.data(b), None, "{b:?} must not materialize");
    }
    assert_eq!(p.mem.resident_blocks(), 1, "only the installed block is resident");
    check_final(&p.mem, &p.model);
}

#[test]
fn an_unread_presend_is_consumed_by_exactly_one_access() {
    let mut p = Pair::new();
    let (ro, rw, other) = (blk(2, 3), blk(2, 4), blk(0, 9));
    p.step(Op::Install(ro, 1, Tag::ReadOnly, true));
    p.step(Op::Install(rw, 2, Tag::ReadWrite, true));
    p.step(Op::Install(other, 3, Tag::ReadOnly, true));
    assert_eq!(p.mem.unused_presends(), 3);

    // A refused write does not consume the copy.
    assert_eq!(p.write(ro, 0, 4), fault(ro, Access::Write, Tag::ReadOnly));
    assert_eq!(p.mem.unused_presends(), 3);
    assert!(p.mem.presend_unused(ro));

    // The first read does, once; the second is a plain hit.
    assert_eq!(p.read(ro, 0, 4), None);
    assert_eq!(p.mem.unused_presends(), 2);
    assert!(!p.mem.presend_unused(ro));
    assert_eq!(p.read(ro, 0, 4), None);
    assert_eq!(p.mem.unused_presends(), 2);

    // Likewise a first write.
    assert_eq!(p.write(rw, 8, 8), None);
    assert_eq!(p.mem.unused_presends(), 1);
    assert_eq!(p.write(rw, 8, 8), None);
    assert_eq!(p.read(rw, 8, 8), None);
    assert_eq!(p.mem.unused_presends(), 1, "the untouched copy is still unread");
    assert!(p.mem.presend_unused(other));

    // A re-push over a consumed copy is not waste and arms the bit again.
    p.step(Op::Install(ro, 4, Tag::ReadOnly, true));
    assert_eq!(p.mem.unused_presends(), 2);
    assert_eq!(p.read(ro, 28, 4), None);
    assert_eq!(p.mem.unused_presends(), 1);
    check_final(&p.mem, &p.model);
}

#[test]
fn boundary_crossing_is_refused_whatever_the_block_state() {
    let mut p = Pair::new();
    let (hit, unread, absent_own, absent_remote) = (blk(1, 3), blk(2, 3), blk(1, 5), blk(2, 5));
    p.step(Op::Install(hit, 1, Tag::ReadWrite, false));
    p.step(Op::Install(unread, 2, Tag::ReadWrite, true));
    for b in [hit, unread, absent_own, absent_remote] {
        let addr = GAddr(b.0 * BS as u64 + 28);
        assert_eq!(p.read(b, 28, 8), Some(MemError::CrossesBoundary { addr, len: 8 }), "{b:?}");
        assert_eq!(p.write(b, 28, 8), Some(MemError::CrossesBoundary { addr, len: 8 }), "{b:?}");
        let addr = GAddr(b.0 * BS as u64);
        assert_eq!(p.read(b, 0, 33), Some(MemError::CrossesBoundary { addr, len: 33 }), "{b:?}");
    }
    // Refused accesses consumed nothing and materialized nothing.
    assert_eq!(p.mem.unused_presends(), 1);
    assert_eq!(p.mem.resident_blocks(), 2);
    // An access that ends exactly on the boundary is in the block.
    assert_eq!(p.read(hit, 28, 4), None);
    assert_eq!(p.write(hit, 0, 32), None);
    check_final(&p.mem, &p.model);
}

#[test]
fn a_borrowed_hit_is_the_access_it_stands_for() {
    // `read_hit`/`write_hit` against the oracle in every block state (the
    // torture above checks them before every Read and Write op too): a
    // slice comes back exactly when the access would complete with no
    // bookkeeping, and storing through `write_hit`'s slice is the write.
    let mut p = Pair::new();
    let (rw, ro, inv, unread, absent_own) = (blk(2, 3), blk(2, 4), blk(2, 5), blk(2, 6), blk(1, 7));
    p.step(Op::Install(rw, 1, Tag::ReadWrite, false));
    p.step(Op::Install(ro, 2, Tag::ReadOnly, false));
    p.step(Op::Install(inv, 3, Tag::Invalid, false));
    p.step(Op::Install(unread, 4, Tag::ReadWrite, true));
    let at = |b: BlockId, off: u64| GAddr(b.0 * BS as u64 + off);
    for (b, reads, writes) in [
        (rw, true, true),
        (ro, true, false),
        (inv, false, false),
        (unread, false, false),
        (absent_own, false, false),
        (blk(0, 0), false, false),
    ] {
        for (off, len) in [(0, 32), (8, 8), (31, 1), (24, 8)] {
            assert_eq!(p.mem.read_hit(at(b, off), len).is_some(), reads, "{b:?} read {off}+{len}");
            assert_eq!(p.mem.read_hit(at(b, off), len), p.model.hit(at(b, off), len, false));
            assert_eq!(
                p.mem.write_hit(at(b, off), len).is_some(),
                writes,
                "{b:?} write {off}+{len}"
            );
        }
        // A range that leaves the block is never a hit, whatever the tag.
        for (off, len) in [(28, 8), (0, 33), (31, 2)] {
            assert_eq!(p.mem.read_hit(at(b, off), len), None, "{b:?} read {off}+{len}");
            assert!(p.mem.write_hit(at(b, off), len).is_none(), "{b:?} write {off}+{len}");
        }
    }
    // Asking changed nothing: the unread copy is still unread, the absent
    // own block still absent.
    assert_eq!(p.mem.unused_presends(), 1);
    assert_eq!(p.mem.resident_blocks(), 4);
    // The slice is the block's storage.
    p.mem.write_hit(at(rw, 8), 16).expect("hit").copy_from_slice(&[0xC3; 16]);
    p.model.write_in_block(at(rw, 8), &[0xC3; 16]).expect("the model's write");
    assert_eq!(p.read(rw, 0, 32), None);
    assert_eq!(p.mem.read_hit(at(rw, 8), 16), Some(&[0xC3; 16][..]));
    // Once the slow path consumed the unread copy, it hits.
    assert_eq!(p.read(unread, 0, 8), None);
    assert!(p.mem.read_hit(at(unread, 0), 32).is_some());
    assert!(p.mem.write_hit(at(unread, 0), 32).is_some());
    check_final(&p.mem, &p.model);
}

/// The first address past the last node's heap segment.
fn past_every_segment() -> GAddr {
    GAddr(4 << 32)
}

#[test]
#[should_panic(expected = "outside any node heap segment")]
fn out_of_segment_read_panics_in_every_build_profile() {
    let mut p = Pair::new();
    let _ = p.mem.read_in_block(past_every_segment(), &mut [0u8; 8]);
}

#[test]
#[should_panic(expected = "outside any node heap segment")]
fn out_of_segment_write_panics_in_every_build_profile() {
    let mut p = Pair::new();
    let _ = p.mem.write_in_block(past_every_segment(), &[0u8; 8]);
}
