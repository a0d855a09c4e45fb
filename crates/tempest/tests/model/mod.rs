//! Reference model for [`NodeMem`]: the seed implementation's
//! `HashMap<BlockId, LocalBlock>` semantics, kept as an executable oracle.
//! The flat segment-indexed paged arena must be observationally equivalent
//! to this model under any access sequence.

use std::collections::{HashMap, HashSet};

use prescient_tempest::tag::Access;
use prescient_tempest::{BlockId, Fault, GAddr, GlobalLayout, MemError, NodeId, NodeMem, Tag};

/// One operation against both stores.
#[derive(Debug, Clone)]
pub enum Op {
    /// Protocol installs a copy: `(block, fill seed, tag, pre-send?)`.
    Install(BlockId, u8, Tag, bool),
    /// Protocol retags a copy (grant/downgrade/invalidate).
    SetTag(BlockId, Tag),
    /// Compute-thread load: `(block, offset, length)`.
    Read(BlockId, usize, usize),
    /// Compute-thread store: `(block, offset, length, fill seed)`.
    Write(BlockId, usize, usize, u8),
    /// Protocol snapshots the block for a data reply.
    Snapshot(BlockId),
    /// Recall/invalidate clears the unread-pre-send bit.
    ClearUnused(BlockId),
}

/// The fill pattern `Install`/`Write` use, distinct per seed and offset.
pub fn pattern(seed: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| seed.wrapping_mul(31).wrapping_add(i as u8)).collect()
}

struct Entry {
    data: Vec<u8>,
    tag: Tag,
    unused: bool,
}

/// The seed store: a hash map from block id to a boxed block.
pub struct RefStore {
    layout: GlobalLayout,
    me: NodeId,
    /// Blocks a placement overlay acts on: they start `Invalid` everywhere,
    /// their segment's own node included.
    remapped: HashSet<BlockId>,
    map: HashMap<BlockId, Entry>,
}

impl RefStore {
    pub fn new(layout: GlobalLayout, me: NodeId) -> RefStore {
        RefStore::with_remapped(layout, me, &[])
    }

    /// The model of a store whose home view remaps `remapped`.
    pub fn with_remapped(layout: GlobalLayout, me: NodeId, remapped: &[BlockId]) -> RefStore {
        RefStore { layout, me, remapped: remapped.iter().copied().collect(), map: HashMap::new() }
    }

    fn is_home(&self, block: BlockId) -> bool {
        self.layout.home_of_block(block) == self.me && !self.remapped.contains(&block)
    }

    fn materialize(&mut self, block: BlockId) -> &mut Entry {
        let home = self.is_home(block);
        let bs = self.layout.block_size;
        self.map.entry(block).or_insert_with(|| Entry {
            data: vec![0u8; bs],
            tag: if home { Tag::ReadWrite } else { Tag::Invalid },
            unused: false,
        })
    }

    pub fn probe(&self, block: BlockId) -> Tag {
        match self.map.get(&block) {
            Some(e) => e.tag,
            None if self.is_home(block) => Tag::ReadWrite,
            None => Tag::Invalid,
        }
    }

    pub fn install(&mut self, block: BlockId, data: &[u8], tag: Tag, presend: bool) -> bool {
        let e = self.materialize(block);
        let wasted = e.unused;
        e.data.copy_from_slice(data);
        e.tag = tag;
        e.unused = presend;
        wasted
    }

    pub fn set_tag(&mut self, block: BlockId, tag: Tag) {
        // Tag only: the unread-pre-send bit survives a retag (a granted
        // upgrade does not mean the pre-sent data was read).
        self.materialize(block).tag = tag;
    }

    pub fn read_in_block(&mut self, addr: GAddr, buf: &mut [u8]) -> Result<(), MemError> {
        let bs = self.layout.block_size;
        let block = addr.block(bs);
        let off = addr.offset_in_block(bs);
        if off + buf.len() > bs {
            return Err(MemError::CrossesBoundary { addr, len: buf.len() });
        }
        let observed = self.probe(block);
        if !observed.readable() {
            return Err(Fault { block, access: Access::Read, observed }.into());
        }
        let e = self.materialize(block);
        e.unused = false;
        buf.copy_from_slice(&e.data[off..off + buf.len()]);
        Ok(())
    }

    pub fn write_in_block(&mut self, addr: GAddr, bytes: &[u8]) -> Result<(), MemError> {
        let bs = self.layout.block_size;
        let block = addr.block(bs);
        let off = addr.offset_in_block(bs);
        if off + bytes.len() > bs {
            return Err(MemError::CrossesBoundary { addr, len: bytes.len() });
        }
        let observed = self.probe(block);
        if !observed.writable() {
            return Err(Fault { block, access: Access::Write, observed }.into());
        }
        let e = self.materialize(block);
        e.unused = false;
        e.data[off..off + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// The bytes a borrow-returning hit (`NodeMem::read_hit`, or
    /// `write_hit` with `write`) must return: the access lies in one
    /// block, which is materialized, carries a tag that permits the
    /// access, and has no unread pre-sent copy. A hit changes nothing, so
    /// neither does asking.
    pub fn hit(&self, addr: GAddr, len: usize, write: bool) -> Option<&[u8]> {
        let bs = self.layout.block_size;
        let off = addr.offset_in_block(bs);
        let e = self.map.get(&addr.block(bs)).filter(|_| off + len <= bs)?;
        let permitted = if write { e.tag.writable() } else { e.tag.readable() };
        (permitted && !e.unused).then(|| &e.data[off..off + len])
    }

    pub fn snapshot(&self, block: BlockId) -> Vec<u8> {
        match self.map.get(&block) {
            Some(e) => e.data.clone(),
            None => vec![0u8; self.layout.block_size],
        }
    }

    pub fn presend_unused(&self, block: BlockId) -> bool {
        self.map.get(&block).is_some_and(|e| e.unused)
    }

    pub fn clear_presend_unused(&mut self, block: BlockId) {
        if let Some(e) = self.map.get_mut(&block) {
            e.unused = false;
        }
    }

    pub fn resident_blocks(&self) -> usize {
        self.map.len()
    }

    pub fn unused_presends(&self) -> usize {
        self.map.values().filter(|e| e.unused).count()
    }

    pub fn blocks(&self) -> Vec<(BlockId, Tag)> {
        let mut v: Vec<_> = self.map.iter().map(|(b, e)| (*b, e.tag)).collect();
        v.sort_by_key(|(b, _)| *b);
        v
    }
}

/// Apply `op` to both stores and check every observable agrees. Returns
/// the error of an access both stores refused (`None`: the op completed).
pub fn apply_and_check(mem: &mut NodeMem, model: &mut RefStore, op: &Op) -> Option<MemError> {
    let bs = mem.layout().block_size;
    let mut refused = None;
    match *op {
        Op::Install(block, seed, tag, presend) => {
            let data = pattern(seed, bs);
            let wasted_mem = mem.install(block, &data, tag, presend);
            let wasted_model = model.install(block, &data, tag, presend);
            assert_eq!(wasted_mem, wasted_model, "useless-pre-send signal diverged at {block:?}");
        }
        Op::SetTag(block, tag) => {
            mem.set_tag(block, tag);
            model.set_tag(block, tag);
        }
        Op::Read(block, off, len) => {
            let addr = GAddr(block.0 * bs as u64 + off as u64);
            assert_eq!(
                mem.read_hit(addr, len),
                model.hit(addr, len, false),
                "read_hit {addr:?}+{len}"
            );
            let mut got = vec![0u8; len];
            let mut want = vec![0u8; len];
            let rm = mem.read_in_block(addr, &mut got);
            let rr = model.read_in_block(addr, &mut want);
            assert_eq!(rm, rr, "read outcome diverged at {addr:?}+{len}");
            if rm.is_ok() {
                assert_eq!(got, want, "read bytes diverged at {addr:?}+{len}");
            }
            refused = rm.err();
        }
        Op::Write(block, off, len, seed) => {
            let addr = GAddr(block.0 * bs as u64 + off as u64);
            let bytes = pattern(seed, len);
            let hit = mem.write_hit(addr, len).map(|dst| &*dst);
            assert_eq!(hit, model.hit(addr, len, true), "write_hit {addr:?}+{len}");
            let rm = mem.write_in_block(addr, &bytes);
            let rr = model.write_in_block(addr, &bytes);
            assert_eq!(rm, rr, "write outcome diverged at {addr:?}+{len}");
            refused = rm.err();
        }
        Op::Snapshot(block) => {
            let snap = mem.snapshot(block);
            assert_eq!(&snap[..], &model.snapshot(block)[..], "snapshot diverged at {block:?}");
        }
        Op::ClearUnused(block) => {
            mem.clear_presend_unused(block);
            model.clear_presend_unused(block);
        }
    }
    // Observables that must agree after every single step.
    let probed = match *op {
        Op::Install(b, ..)
        | Op::SetTag(b, _)
        | Op::Read(b, ..)
        | Op::Write(b, ..)
        | Op::Snapshot(b)
        | Op::ClearUnused(b) => b,
    };
    assert_eq!(mem.probe(probed), model.probe(probed), "probe diverged at {probed:?}");
    assert_eq!(
        mem.presend_unused(probed),
        model.presend_unused(probed),
        "unread-pre-send bit diverged at {probed:?}"
    );
    assert_eq!(mem.resident_blocks(), model.resident_blocks(), "residency diverged");
    assert_eq!(mem.unused_presends(), model.unused_presends(), "unused count diverged");
    refused
}

/// Final whole-store comparison: the dense iteration must enumerate exactly
/// the model's blocks with matching tags and bytes.
pub fn check_final(mem: &NodeMem, model: &RefStore) {
    let mut got: Vec<(BlockId, Tag)> = mem.iter_blocks().collect();
    got.sort_by_key(|(b, _)| *b);
    assert_eq!(got, model.blocks(), "materialized block enumeration diverged");
    for (block, _) in got {
        assert_eq!(
            mem.data(block).unwrap(),
            &model.snapshot(block)[..],
            "stored bytes diverged at {block:?}"
        );
    }
}
