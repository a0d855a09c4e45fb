//! Per-node block storage: home memory, the remote-block cache ("stache"),
//! and the node-local shared-heap allocator.
//!
//! Each node stores every cache block it currently holds a copy of: blocks
//! whose home it is (materialized lazily, zero-filled, with a `ReadWrite`
//! tag — a block "resides initially at its home node") and remote blocks
//! installed by the coherence protocol with an appropriate tag. Blizzard
//! backed this cache with ordinary main memory and performed no capacity
//! evictions at the working-set sizes of the paper's programs; we adopt the
//! same simplification.
//!
//! # Flat segment-indexed paged arena
//!
//! The store is *not* a hash table. A [`crate::BlockId`] is globally dense
//! within each node's heap segment (the bump allocator hands out addresses
//! from the segment base upward), so a block resolves to a storage slot
//! with pure index arithmetic:
//!
//! ```text
//! segment = block >> log2(blocks_per_segment)   (the block's home node)
//! rel     = block &  (blocks_per_segment - 1)
//! page    = rel >> log2(PAGE_BLOCKS),  slot = rel & (PAGE_BLOCKS - 1)
//! ```
//!
//! Each segment owns a lazily grown table of fixed-size *pages*; a page
//! packs `PAGE_BLOCKS` blocks' bytes into one contiguous buffer plus one
//! metadata byte per block (tag, present bit, unread-pre-send bit).
//! Residency and unread-pre-send counts are maintained on the transitions,
//! so [`NodeMem::resident_blocks`] and [`NodeMem::unused_presends`] are O(1)
//! and iteration for invariant checks walks dense pages instead of hashing.
//!
//! # Hit path and slow path
//!
//! [`NodeMem::read_in_block`] and [`NodeMem::write_in_block`] — the tag
//! check behind every shared load and store — split into a hit path and a
//! `#[cold]` slow path. A *hit* is an in-block access to a materialized
//! block whose tag permits it and whose unread-pre-send bit is clear. It
//! costs the index arithmetic above once (two precomputed shifts and a
//! mask off the address, then segment table → page table → page), one
//! comparison of the slot's metadata byte against the one or two values
//! that mean "present, permitted, already read", and one copy. It changes
//! no count; a write hit stores the slot's metadata byte back with its
//! dirty bit set (below).
//!
//! Everything else takes the slow path, which starts again from the
//! address and makes every check in order: boundary crossing
//! ([`MemError::CrossesBoundary`]), an address outside every heap segment
//! (panics), the tag (a [`Fault`], consulting the [`HomeView`] for a block
//! not yet materialized), first-touch materialization of an own home
//! block, and clearing the unread-pre-send bit with its count. The hit
//! path is a pure shortcut: removing it leaves every result the same.
//!
//! The hit is also available without the copy: [`NodeMem::read_hit`] and
//! [`NodeMem::write_hit`] make the same lookup and comparison and lend the
//! page's bytes, so a caller that knows it is sweeping a block (the
//! runtime's run-granular access) decodes many words under one check.
//! `read_in_block`/`write_in_block` are that plus the copy.
//!
//! [`NodeMem::snapshot`] is non-materializing: snapshotting a never-touched
//! home block returns the canonical zero block without installing anything,
//! so protocol data replies cannot inflate residency or pollute
//! unread-pre-send accounting (they used to, via the lazy `block_mut`
//! path).
//!
//! A slot's metadata byte also carries a dirty bit, and a captured page
//! keeps each slot's index in the [`MemCheckpoint`] the store is *bound*
//! to: a capture into that image copies only what changed (DESIGN.md §12,
//! "Capture is incremental").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::layout::NODE_HEAP_BYTES;
use crate::tag::{Access, Tag};
use crate::{BlockId, GAddr, GlobalLayout, HomeView, NodeId};

/// Blocks per arena page (power of two).
pub const PAGE_BLOCKS: usize = 256;
const PAGE_SHIFT: u32 = PAGE_BLOCKS.trailing_zeros();

/// An access fault: the tag did not permit the access.
///
/// Faults are vectored to the coherence protocol, which obtains an
/// appropriate copy and retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// The faulting block.
    pub block: BlockId,
    /// The kind of access that faulted.
    pub access: Access,
    /// Tag observed at fault time.
    pub observed: Tag,
}

/// Why a checked shared-memory access did not complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The block's tag did not permit the access; vector to the protocol
    /// and retry.
    Fault(Fault),
    /// The access straddles a cache-block boundary — a layout bug in the
    /// caller, never serviceable by the protocol. Reported as a proper
    /// error in every build profile (it used to be a `debug_assert!`, which
    /// in release builds decayed into a slice-index panic or a short copy).
    CrossesBoundary {
        /// First byte of the access.
        addr: GAddr,
        /// Access length in bytes.
        len: usize,
    },
}

impl From<Fault> for MemError {
    fn from(f: Fault) -> MemError {
        MemError::Fault(f)
    }
}

impl MemError {
    /// The access fault, for callers that route every error to the
    /// protocol. Panics with a diagnosable message on a boundary-crossing
    /// access, which no protocol action can repair.
    pub fn fault(self) -> Fault {
        match self {
            MemError::Fault(f) => f,
            MemError::CrossesBoundary { addr, len } => {
                panic!("{len}-byte access at {addr:?} crosses a cache-block boundary")
            }
        }
    }
}

// Slot metadata byte: bits 0–1 tag, bit 2 present, bit 3 unread pre-send,
// bit 4 changed since the last capture or restore (never in an image).
const META_TAG_MASK: u8 = 0b011;
const META_PRESENT: u8 = 0b100;
const META_UNUSED: u8 = 0b1000;
const META_DIRTY: u8 = 0b1_0000;
// The metadata bytes of a hit, dirty bit set: present, unread-pre-send bit
// clear, and a tag that permits the access.
const META_HIT_RO: u8 = META_DIRTY | META_PRESENT | tag_code(Tag::ReadOnly);
const META_HIT_RW: u8 = META_DIRTY | META_PRESENT | tag_code(Tag::ReadWrite);

#[inline]
const fn tag_code(tag: Tag) -> u8 {
    match tag {
        Tag::Invalid => 0,
        Tag::ReadOnly => 1,
        Tag::ReadWrite => 2,
    }
}

#[inline]
fn code_tag(code: u8) -> Tag {
    match code & META_TAG_MASK {
        0 => Tag::Invalid,
        1 => Tag::ReadOnly,
        _ => Tag::ReadWrite,
    }
}

/// A slot's index in the bound image when it is not there.
const UNPLACED: u32 = u32::MAX;

/// The last image id handed out; 0 is an image no store is bound to.
static IMAGES: AtomicU64 = AtomicU64::new(0);

/// One arena page: `PAGE_BLOCKS` blocks of data plus a metadata byte each.
struct Page {
    /// `PAGE_BLOCKS * block_size` bytes, zero-initialized.
    data: Box<[u8]>,
    /// Per-slot metadata.
    meta: [u8; PAGE_BLOCKS],
    /// Each slot's index in the bound image, or [`UNPLACED`]; made by the
    /// page's first capture or restore.
    at: Option<Box<[u32; PAGE_BLOCKS]>>,
}

impl Page {
    fn new(block_size: usize) -> Page {
        Page {
            data: vec![0u8; PAGE_BLOCKS * block_size].into_boxed_slice(),
            meta: [0; PAGE_BLOCKS],
            at: None,
        }
    }

    /// Mark `slot` changed since the last capture.
    #[inline]
    fn touch(&mut self, slot: usize) {
        self.meta[slot] |= META_DIRTY;
    }

    #[inline]
    fn present(&self, slot: usize) -> bool {
        self.meta[slot] & META_PRESENT != 0
    }

    #[inline]
    fn tag(&self, slot: usize) -> Tag {
        code_tag(self.meta[slot])
    }

    #[inline]
    fn unused(&self, slot: usize) -> bool {
        self.meta[slot] & META_UNUSED != 0
    }

    #[inline]
    fn block(&self, slot: usize, bs: usize) -> &[u8] {
        &self.data[slot * bs..(slot + 1) * bs]
    }

    #[inline]
    fn block_mut(&mut self, slot: usize, bs: usize) -> &mut [u8] {
        &mut self.data[slot * bs..(slot + 1) * bs]
    }
}

/// Per-node block store plus the node's bump allocator for its segment of
/// the shared heap.
pub struct NodeMem {
    layout: GlobalLayout,
    me: NodeId,
    /// The machine's block→home view (one instance shared by every node).
    homes: Arc<HomeView>,
    /// `log2(block size)`: an address's block is one shift.
    block_shift: u32,
    /// `log2(blocks per heap segment)`; a block's segment (= home node) and
    /// in-segment offset fall out of one shift and one mask.
    seg_shift: u32,
    /// One page table per node heap segment, grown lazily to the highest
    /// touched page.
    segs: Vec<Vec<Option<Box<Page>>>>,
    /// Blocks currently materialized (maintained on transitions; O(1)).
    resident: usize,
    /// Materialized blocks whose unread-pre-send bit is set (O(1)).
    unused: usize,
    /// Id of the bound image (module doc); 0 binds none.
    image: u64,
    /// The canonical zero block, shared by non-materializing snapshots of
    /// untouched home blocks.
    zero: Arc<[u8]>,
    alloc_next: u64,
    alloc_end: u64,
}

impl NodeMem {
    /// Create the store for node `me` with the identity home view.
    pub fn new(layout: GlobalLayout, me: NodeId) -> NodeMem {
        NodeMem::with_view(me, Arc::new(HomeView::identity(layout)))
    }

    /// Create the store for node `me` over the machine's home view.
    pub fn with_view(me: NodeId, homes: Arc<HomeView>) -> NodeMem {
        let layout = *homes.layout();
        let blocks_per_seg = NODE_HEAP_BYTES / layout.block_size as u64;
        NodeMem {
            layout,
            me,
            homes,
            block_shift: layout.block_size.trailing_zeros(),
            seg_shift: blocks_per_seg.trailing_zeros(),
            segs: (0..layout.nodes).map(|_| Vec::new()).collect(),
            resident: 0,
            unused: 0,
            image: 0,
            zero: vec![0u8; layout.block_size].into(),
            alloc_next: layout.heap_base(me).0,
            alloc_end: layout.heap_end(me).0,
        }
    }

    /// The node this store belongs to.
    pub fn node(&self) -> NodeId {
        self.me
    }

    /// The machine layout this store was created with.
    pub fn layout(&self) -> GlobalLayout {
        self.layout
    }

    /// Is this node the (current view's) home of `block`?
    #[inline]
    pub fn is_home(&self, block: BlockId) -> bool {
        self.homes.home_of_block(block) == self.me
    }

    /// Does `block` materialize as `ReadWrite` here on first touch?
    ///
    /// Only when this node is the block's segment-derived home *and* no
    /// placement (shift or overlay entry) acts on the block. Placement-
    /// affected blocks start `Invalid` everywhere, so the first touch
    /// faults and the view home's directory learns of the copy — a silent
    /// `ReadWrite` materialization at a node the directory does not watch
    /// would break coherence, and one at the view home would make miss
    /// counts depend on where the overlay points.
    #[inline]
    fn auto_rw(&self, block: BlockId) -> bool {
        self.homes.is_identity_block(block) && self.layout.home_of_block(block) == self.me
    }

    /// Allocate `bytes` of shared memory from this node's heap segment,
    /// aligned to `align` (a power of two). The returned region is homed at
    /// this node.
    ///
    /// Allocations of at most one block never straddle a block boundary, so
    /// small records (tree nodes, molecules' fields) are reachable with
    /// single-block transfers.
    pub fn alloc(&mut self, bytes: u64, align: u64) -> GAddr {
        assert!(align.is_power_of_two());
        let bs = self.layout.block_size as u64;
        let mut a = (self.alloc_next + align - 1) & !(align - 1);
        if bytes <= bs {
            let first_block = a / bs;
            let last_block = (a + bytes - 1) / bs;
            if first_block != last_block {
                a = last_block * bs; // skip to the next block boundary
            }
        }
        assert!(
            a + bytes <= self.alloc_end,
            "node {} shared heap exhausted ({} bytes requested)",
            self.me,
            bytes
        );
        self.alloc_next = a + bytes;
        GAddr(a)
    }

    /// Segment, page and slot index of `block` — the module doc's index
    /// arithmetic, with the segment not yet checked against the machine.
    #[inline]
    fn split(&self, block: BlockId) -> (usize, usize, usize) {
        let seg = (block.0 >> self.seg_shift) as usize;
        let rel = block.0 & ((1u64 << self.seg_shift) - 1);
        (seg, (rel >> PAGE_SHIFT) as usize, (rel & (PAGE_BLOCKS as u64 - 1)) as usize)
    }

    /// The block containing `addr`.
    #[inline]
    fn block_at(&self, addr: GAddr) -> BlockId {
        BlockId(addr.0 >> self.block_shift)
    }

    /// [`Self::split`], panicking on a block outside every heap segment.
    #[inline]
    fn locate(&self, block: BlockId) -> (usize, usize, usize) {
        let at = self.split(block);
        assert!(at.0 < self.segs.len(), "{block:?} outside any node heap segment");
        at
    }

    /// The page and slot holding `block`, if its page was ever allocated.
    #[inline]
    fn page(&self, block: BlockId) -> Option<(&Page, usize)> {
        let (seg, page, slot) = self.locate(block);
        match self.segs[seg].get(page) {
            Some(Some(p)) => Some((p, slot)),
            _ => None,
        }
    }

    /// Materialize `block`'s slot (zero-filled; tag `ReadWrite` at home,
    /// `Invalid` elsewhere) and return its page and slot index.
    fn materialize(&mut self, block: BlockId) -> (&mut Page, usize) {
        let (seg, page, slot) = self.locate(block);
        let home = self.auto_rw(block);
        let bs = self.layout.block_size;
        let pages = &mut self.segs[seg];
        if pages.len() <= page {
            pages.resize_with(page + 1, || None);
        }
        let p = pages[page].get_or_insert_with(|| Box::new(Page::new(bs)));
        if p.meta[slot] & META_PRESENT == 0 {
            p.meta[slot] =
                META_PRESENT | tag_code(if home { Tag::ReadWrite } else { Tag::Invalid });
            p.touch(slot);
            self.resident += 1;
        }
        (p, slot)
    }

    /// Flip `block`'s unread-pre-send bit, keeping the O(1) count in step.
    /// The slot must be present.
    #[inline]
    fn set_unused_bit(p: &mut Page, slot: usize, unused_count: &mut usize, v: bool) {
        let was = p.meta[slot] & META_UNUSED != 0;
        if v && !was {
            p.meta[slot] |= META_UNUSED;
            *unused_count += 1;
            p.touch(slot);
        } else if !v && was {
            p.meta[slot] &= !META_UNUSED;
            *unused_count -= 1;
            p.touch(slot);
        }
    }

    /// Current tag for `block` on this node (`Invalid` if the node holds no
    /// copy).
    #[inline]
    pub fn probe(&self, block: BlockId) -> Tag {
        match self.page(block) {
            Some((p, slot)) if p.present(slot) => p.tag(slot),
            _ if self.auto_rw(block) => Tag::ReadWrite, // lazily materialized
            _ => Tag::Invalid,
        }
    }

    /// Borrow a block's current bytes, if the block is materialized.
    pub fn data(&self, block: BlockId) -> Option<&[u8]> {
        let bs = self.layout.block_size;
        self.page(block).filter(|(p, slot)| p.present(*slot)).map(|(p, slot)| p.block(slot, bs))
    }

    /// Was `block` installed by a pre-send and never accessed since?
    pub fn presend_unused(&self, block: BlockId) -> bool {
        self.page(block).is_some_and(|(p, slot)| p.unused(slot))
    }

    /// Clear `block`'s unread-pre-send bit (the copy is being recalled or
    /// invalidated; waste is accounted at the home).
    pub fn clear_presend_unused(&mut self, block: BlockId) {
        let (seg, page, slot) = self.locate(block);
        if let Some(Some(p)) = self.segs[seg].get_mut(page) {
            Self::set_unused_bit(p, slot, &mut self.unused, false);
        }
    }

    /// Set the access tag of a block (materializing it on demand:
    /// zero-filled home blocks start `ReadWrite`, remote ones `Invalid`).
    pub fn set_tag(&mut self, block: BlockId, tag: Tag) {
        let (p, slot) = self.materialize(block);
        p.meta[slot] = (p.meta[slot] & !META_TAG_MASK) | tag_code(tag);
        p.touch(slot);
    }

    /// Install a copy of a remote block with the given tag, as done by the
    /// protocol when a data reply or pre-send arrives. Returns `true` if
    /// the install overwrote a pre-sent copy that was never accessed — a
    /// "useless pre-send" signal fed to the degradation policy.
    pub fn install(&mut self, block: BlockId, data: &[u8], tag: Tag, presend: bool) -> bool {
        let bs = self.layout.block_size;
        debug_assert_eq!(data.len(), bs, "install payload is not one block");
        let mut unused = self.unused;
        let (p, slot) = self.materialize(block);
        let wasted = p.unused(slot);
        p.block_mut(slot, bs).copy_from_slice(data);
        p.meta[slot] = (p.meta[slot] & !META_TAG_MASK) | tag_code(tag);
        p.touch(slot);
        Self::set_unused_bit(p, slot, &mut unused, presend);
        self.unused = unused;
        wasted
    }

    /// Install a bulk pre-send payload under one borrow: N blocks, one
    /// upcall. Returns how many installs overwrote a pre-sent copy that was
    /// never accessed (the "useless pre-send" count the ack reports).
    pub fn install_bulk(
        &mut self,
        blocks: &[(BlockId, Arc<[u8]>)],
        tag: Tag,
        presend: bool,
    ) -> u64 {
        let mut wasted = 0u64;
        for (block, data) in blocks {
            if self.install(*block, data, tag, presend) {
                wasted += 1;
            }
        }
        wasted
    }

    /// The bytes a `len`-byte read at `addr` sees, borrowed from the page —
    /// `Some` exactly when the read is a hit (module doc): inside one
    /// block, materialized, tag readable, unread-pre-send bit clear. One
    /// metadata observation covers every byte returned, so a caller may
    /// decode any number of words from the slice as that many hits.
    #[inline]
    pub fn read_hit(&self, addr: GAddr, len: usize) -> Option<&[u8]> {
        let bs = self.layout.block_size;
        let off = addr.offset_in_block(bs);
        let end = off + len;
        let (seg, page, slot) = self.split(self.block_at(addr));
        match self.segs.get(seg).and_then(|pages| pages.get(page)) {
            Some(Some(p))
                if end <= bs && matches!(p.meta[slot] | META_DIRTY, META_HIT_RO | META_HIT_RW) =>
            {
                Some(&p.data[slot * bs + off..slot * bs + end])
            }
            _ => None,
        }
    }

    /// Read `buf.len()` bytes starting at `addr`. The read must not cross a
    /// block boundary. On success the bytes are copied into `buf`; on an
    /// access fault nothing is copied and the fault is returned.
    #[inline]
    pub fn read_in_block(&mut self, addr: GAddr, buf: &mut [u8]) -> Result<(), MemError> {
        if let Some(src) = self.read_hit(addr, buf.len()) {
            buf.copy_from_slice(src);
            return Ok(());
        }
        self.read_slow(addr, buf)
    }

    /// Every read that is not a hit (module doc): the full sequence of
    /// checks, from the address.
    #[cold]
    fn read_slow(&mut self, addr: GAddr, buf: &mut [u8]) -> Result<(), MemError> {
        let bs = self.layout.block_size;
        let block = self.block_at(addr);
        let off = addr.offset_in_block(bs);
        if off + buf.len() > bs {
            return Err(MemError::CrossesBoundary { addr, len: buf.len() });
        }
        let observed = self.probe(block);
        if !observed.readable() {
            return Err(Fault { block, access: Access::Read, observed }.into());
        }
        let mut unused = self.unused;
        let (p, slot) = self.materialize(block);
        Self::set_unused_bit(p, slot, &mut unused, false);
        buf.copy_from_slice(&p.block(slot, bs)[off..off + buf.len()]);
        self.unused = unused;
        Ok(())
    }

    /// [`Self::read_hit`]'s write twin: the page bytes a `len`-byte write
    /// at `addr` lands in, `Some` exactly when the write is a hit (tag
    /// `ReadWrite`).
    #[inline]
    pub fn write_hit(&mut self, addr: GAddr, len: usize) -> Option<&mut [u8]> {
        let bs = self.layout.block_size;
        let off = addr.offset_in_block(bs);
        let end = off + len;
        let (seg, page, slot) = self.split(self.block_at(addr));
        match self.segs.get_mut(seg).and_then(|pages| pages.get_mut(page)) {
            Some(Some(p)) if end <= bs && p.meta[slot] | META_DIRTY == META_HIT_RW => {
                p.meta[slot] = META_HIT_RW;
                Some(&mut p.data[slot * bs + off..slot * bs + end])
            }
            _ => None,
        }
    }

    /// Write `bytes` starting at `addr`. The write must not cross a block
    /// boundary. On an access fault nothing is written.
    #[inline]
    pub fn write_in_block(&mut self, addr: GAddr, bytes: &[u8]) -> Result<(), MemError> {
        if let Some(dst) = self.write_hit(addr, bytes.len()) {
            dst.copy_from_slice(bytes);
            return Ok(());
        }
        self.write_slow(addr, bytes)
    }

    /// Every write that is not a hit (module doc).
    #[cold]
    fn write_slow(&mut self, addr: GAddr, bytes: &[u8]) -> Result<(), MemError> {
        let bs = self.layout.block_size;
        let block = self.block_at(addr);
        let off = addr.offset_in_block(bs);
        if off + bytes.len() > bs {
            return Err(MemError::CrossesBoundary { addr, len: bytes.len() });
        }
        let observed = self.probe(block);
        if !observed.writable() {
            return Err(Fault { block, access: Access::Write, observed }.into());
        }
        let mut unused = self.unused;
        let (p, slot) = self.materialize(block);
        Self::set_unused_bit(p, slot, &mut unused, false);
        p.block_mut(slot, bs)[off..off + bytes.len()].copy_from_slice(bytes);
        p.touch(slot);
        self.unused = unused;
        Ok(())
    }

    /// Copy of a block's current data (for protocol data replies), shared
    /// behind an `Arc` so fan-out and retransmission never re-copy the
    /// bytes.
    ///
    /// Non-materializing: snapshotting a block this node holds no copy of
    /// returns the canonical zero block (the content a home block
    /// materializes with) without installing anything.
    pub fn snapshot(&self, block: BlockId) -> Arc<[u8]> {
        match self.data(block) {
            Some(d) => Arc::from(d),
            None => Arc::clone(&self.zero),
        }
    }

    /// Number of blocks currently materialized on this node. O(1).
    pub fn resident_blocks(&self) -> usize {
        self.resident
    }

    /// Count of blocks installed by pre-send that were never accessed
    /// (redundant pre-sends, §5.1's "larger amounts of data, some of which
    /// may be redundant"). O(1).
    pub fn unused_presends(&self) -> usize {
        self.unused
    }

    /// [`Self::checkpoint_into`] a fresh [`MemCheckpoint`]: a full capture.
    pub fn checkpoint(&mut self) -> MemCheckpoint {
        let mut ckpt = MemCheckpoint::default();
        self.checkpoint_into(&mut ckpt);
        ckpt
    }

    /// Capture the store's full logical state — every materialized block's
    /// bytes, tag, and unread-pre-send bit, plus the allocator watermark —
    /// into `ckpt`, keeping its buffers, so a capture that fits them
    /// allocates nothing. Into the bound image only the slots changed
    /// since are written; any other image is overwritten whole (module
    /// doc). Taken at a phase barrier (a protocol quiescence point) this is
    /// one node's shard of a consistent cut.
    pub fn checkpoint_into(&mut self, ckpt: &mut MemCheckpoint) {
        let (bs, seg_shift) = (self.layout.block_size, self.seg_shift);
        let full = self.image == 0 || ckpt.image != self.image;
        if full {
            ckpt.blocks.clear();
            ckpt.data.clear();
        }
        for (seg, pages) in self.segs.iter_mut().enumerate() {
            let pages =
                pages.iter_mut().enumerate().filter_map(|(i, p)| Some((i, p.as_deref_mut()?)));
            for (pi, page) in pages {
                let base = (seg as u64) << seg_shift | (pi as u64) << PAGE_SHIFT;
                let want = if full { META_PRESENT } else { META_DIRTY };
                // Eight metadata bytes at a time, one bit each to look at.
                for eight in (0..PAGE_BLOCKS).step_by(8) {
                    let metas = u64::from_le_bytes(page.meta[eight..eight + 8].try_into().unwrap());
                    let mut hits = metas & u64::from_le_bytes([want; 8]);
                    while hits != 0 {
                        let slot = eight + hits.trailing_zeros() as usize / 8;
                        hits &= hits - 1;
                        page.meta[slot] &= !META_DIRTY;
                        let at = page.at.get_or_insert_with(|| Box::new([UNPLACED; PAGE_BLOCKS]));
                        let (meta, bytes, i) =
                            (page.meta[slot], &page.data[slot * bs..][..bs], at[slot]);
                        if full || i == UNPLACED {
                            at[slot] = ckpt.blocks.len() as u32;
                            ckpt.blocks.push((BlockId(base | slot as u64), meta));
                            ckpt.data.extend_from_slice(bytes);
                        } else {
                            ckpt.blocks[i as usize].1 = meta;
                            ckpt.data[i as usize * bs..][..bs].copy_from_slice(bytes);
                        }
                    }
                }
            }
        }
        ckpt.alloc_next = self.alloc_next;
        self.image = IMAGES.fetch_add(1, Ordering::Relaxed) + 1;
        ckpt.image = self.image;
    }

    /// Roll the store back to a previously captured [`MemCheckpoint`]:
    /// every block materialized since the cut is forgotten, every block in
    /// the checkpoint comes back with its exact bytes, tag, and
    /// unread-pre-send bit, and the allocator watermark rewinds. The store
    /// binds to `ckpt`, with no slot dirty.
    pub fn restore(&mut self, ckpt: &MemCheckpoint) {
        for pages in &mut self.segs {
            pages.clear();
        }
        self.resident = 0;
        self.alloc_next = ckpt.alloc_next;
        let bs = self.layout.block_size;
        let images = ckpt.blocks.iter().zip(ckpt.data.chunks_exact(bs));
        for (i, (&(block, meta), data)) in images.enumerate() {
            let (p, slot) = self.materialize(block);
            p.block_mut(slot, bs).copy_from_slice(data);
            p.meta[slot] = meta;
            p.at.get_or_insert_with(|| Box::new([UNPLACED; PAGE_BLOCKS]))[slot] = i as u32;
        }
        self.unused = ckpt.blocks.iter().filter(|(_, meta)| meta & META_UNUSED != 0).count();
        self.image = ckpt.image;
    }

    /// Every materialized block with its page and slot, in block order.
    fn slots(&self) -> impl Iterator<Item = (BlockId, &Page, usize)> + '_ {
        let seg_shift = self.seg_shift;
        self.segs.iter().enumerate().flat_map(move |(seg, pages)| {
            pages
                .iter()
                .enumerate()
                .filter_map(|(pi, p)| p.as_deref().map(move |p| (pi, p)))
                .flat_map(move |(pi, page)| {
                    (0..PAGE_BLOCKS).filter(|&slot| page.present(slot)).map(move |slot| {
                        let id =
                            ((seg as u64) << seg_shift) | ((pi as u64) << PAGE_SHIFT) | slot as u64;
                        (BlockId(id), page, slot)
                    })
                })
        })
    }

    /// Iterate over all materialized blocks and their tags (diagnostics,
    /// invariant checking). Walks dense pages — no hashing.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, Tag)> + '_ {
        self.slots().map(|(block, page, slot)| (block, page.tag(slot)))
    }
}

/// A full logical snapshot of one node's block store at a consistent cut,
/// flat: every materialized block's id and metadata byte (tag,
/// unread-pre-send bit), its bytes in one buffer in the same order, and
/// the bump allocator's watermark. Filled by [`NodeMem::checkpoint_into`]
/// and consumed by [`NodeMem::restore`]; block order after a full
/// capture, with later materializations appended by incremental ones.
#[derive(Debug, Default)]
pub struct MemCheckpoint {
    blocks: Vec<(BlockId, u8)>,
    data: Vec<u8>,
    alloc_next: u64,
    /// Stamped by each capture (module doc); 0 until the first.
    image: u64,
}

impl MemCheckpoint {
    /// Materialized blocks captured in the checkpoint.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Block-data bytes captured (the checkpoint's dominant cost).
    pub fn bytes(&self) -> u64 {
        self.data.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> NodeMem {
        NodeMem::new(GlobalLayout::new(4, 32), 1)
    }

    #[test]
    fn home_blocks_materialize_writable() {
        let mut m = mem();
        let a = m.alloc(8, 8);
        assert_eq!(m.layout().home_of(a), 1);
        let mut buf = [0u8; 8];
        m.read_in_block(a, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8]);
        m.write_in_block(a, &[1, 2, 3, 4, 5, 6, 7, 8]).unwrap();
        m.read_in_block(a, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn remote_blocks_fault_until_installed() {
        let mut m = mem();
        // An address homed at node 2.
        let l = m.layout();
        let remote = l.heap_base(2);
        let mut buf = [0u8; 8];
        let err = m.read_in_block(remote, &mut buf).unwrap_err().fault();
        assert_eq!(err.access, Access::Read);
        assert_eq!(err.observed, Tag::Invalid);

        let data = vec![7u8; 32];
        m.install(l.block_of(remote), &data, Tag::ReadOnly, false);
        m.read_in_block(remote, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 8]);
        // Still not writable.
        assert!(m.write_in_block(remote, &[0u8; 4]).is_err());
    }

    #[test]
    fn faulting_access_does_not_materialize() {
        let mut m = mem();
        let l = m.layout();
        let mut buf = [0u8; 8];
        assert!(m.read_in_block(l.heap_base(2), &mut buf).is_err());
        assert!(m.write_in_block(l.heap_base(3), &buf).is_err());
        assert_eq!(m.resident_blocks(), 0, "faults must not install blocks");
    }

    #[test]
    fn alloc_no_straddle() {
        let mut m = mem();
        let _ = m.alloc(24, 8);
        // Next 16-byte record would straddle the 32-byte boundary: it must
        // be pushed to the next block.
        let b = m.alloc(16, 8);
        assert_eq!(b.offset_in_block(32), 0);
    }

    #[test]
    fn alloc_alignment() {
        let mut m = mem();
        let a = m.alloc(1, 1);
        let b = m.alloc(8, 8);
        assert_eq!(b.0 % 8, 0);
        assert!(b.0 > a.0);
    }

    #[test]
    fn presend_tracking() {
        let mut m = mem();
        let l = m.layout();
        let remote = l.heap_base(3);
        m.install(l.block_of(remote), &[1u8; 32], Tag::ReadOnly, true);
        assert_eq!(m.unused_presends(), 1);
        let mut buf = [0u8; 4];
        m.read_in_block(remote, &mut buf).unwrap();
        assert_eq!(m.unused_presends(), 0);
    }

    #[test]
    fn probe_tags() {
        let mut m = mem();
        let own = m.alloc(8, 8);
        let l = m.layout();
        assert_eq!(m.probe(l.block_of(own)), Tag::ReadWrite);
        assert_eq!(m.probe(l.block_of(l.heap_base(2))), Tag::Invalid);
    }

    #[test]
    fn snapshot_does_not_materialize() {
        // Regression: a protocol data reply for a never-touched home block
        // used to lazily install a zero-filled ReadWrite copy, inflating
        // resident_blocks() on non-home nodes via the same path.
        let mut m = mem();
        let a = m.alloc(8, 8);
        let l = m.layout();
        let snap = m.snapshot(l.block_of(a));
        assert!(snap.iter().all(|&b| b == 0), "untouched home block snapshots as zeros");
        assert_eq!(snap.len(), 32);
        assert_eq!(m.resident_blocks(), 0, "snapshot must not install the block");
        assert_eq!(m.unused_presends(), 0);

        // A materialized block snapshots its real bytes.
        m.write_in_block(a, &[9u8; 8]).unwrap();
        let snap = m.snapshot(l.block_of(a));
        assert_eq!(&snap[..8], &[9u8; 8]);
        assert_eq!(m.resident_blocks(), 1);
    }

    #[test]
    fn boundary_crossing_is_a_proper_error() {
        // Satellite: must hold in BOTH build profiles (no debug_assert).
        let mut m = mem();
        let a = m.alloc(32, 8); // a whole block
        let cross = a.add(28); // 8 bytes from here straddle the boundary
        let mut buf = [0u8; 8];
        match m.read_in_block(cross, &mut buf) {
            Err(MemError::CrossesBoundary { addr, len }) => {
                assert_eq!(addr, cross);
                assert_eq!(len, 8);
            }
            other => panic!("expected CrossesBoundary, got {other:?}"),
        }
        match m.write_in_block(cross, &buf) {
            Err(MemError::CrossesBoundary { .. }) => {}
            other => panic!("expected CrossesBoundary, got {other:?}"),
        }
        // Nothing was installed or copied.
        assert_eq!(m.resident_blocks(), 0);
    }

    #[test]
    fn install_bulk_counts_waste() {
        let mut m = mem();
        let l = m.layout();
        let b0 = l.block_of(l.heap_base(2));
        let b1 = b0.next();
        let payload: Vec<(BlockId, Arc<[u8]>)> =
            vec![(b0, vec![1u8; 32].into()), (b1, vec![2u8; 32].into())];
        assert_eq!(m.install_bulk(&payload, Tag::ReadOnly, true), 0);
        assert_eq!(m.unused_presends(), 2);
        // Read one block; re-push both: exactly one was still unread.
        let mut buf = [0u8; 8];
        m.read_in_block(b0.base(32), &mut buf).unwrap();
        assert_eq!(m.install_bulk(&payload, Tag::ReadOnly, true), 1);
        assert_eq!(m.unused_presends(), 2);
    }

    #[test]
    fn iter_blocks_walks_materialized_slots() {
        let mut m = mem();
        let l = m.layout();
        let a = m.alloc(8, 8);
        m.write_in_block(a, &[1u8; 8]).unwrap();
        m.install(l.block_of(l.heap_base(3)), &[5u8; 32], Tag::ReadOnly, false);
        let mut seen: Vec<(BlockId, Tag)> = m.iter_blocks().collect();
        seen.sort_by_key(|(b, _)| b.0);
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0], (l.block_of(a), Tag::ReadWrite));
        assert_eq!(seen[1], (l.block_of(l.heap_base(3)), Tag::ReadOnly));
        assert_eq!(m.resident_blocks(), 2);
    }

    #[test]
    fn checkpoint_restore_round_trips_exactly() {
        let mut m = mem();
        let l = m.layout();
        let a = m.alloc(32, 8);
        m.write_in_block(a, &[3u8; 8]).unwrap();
        m.install(l.block_of(l.heap_base(2)), &[5u8; 32], Tag::ReadOnly, true);
        let ckpt = m.checkpoint();
        assert_eq!(ckpt.block_count(), 2);
        assert_eq!(ckpt.bytes(), 64);

        // Diverge: new allocation, new install, touch the pre-sent copy,
        // drop a tag.
        let b = m.alloc(32, 8);
        m.write_in_block(b, &[9u8; 8]).unwrap();
        m.install(l.block_of(l.heap_base(3)), &[7u8; 32], Tag::ReadWrite, false);
        let mut buf = [0u8; 4];
        m.read_in_block(l.heap_base(2), &mut buf).unwrap();
        m.set_tag(l.block_of(a), Tag::Invalid);
        assert_eq!(m.resident_blocks(), 4);
        assert_eq!(m.unused_presends(), 0);

        m.restore(&ckpt);
        assert_eq!(m.resident_blocks(), 2, "post-cut blocks must be forgotten");
        assert_eq!(m.unused_presends(), 1, "unread-pre-send bit must come back");
        assert_eq!(m.probe(l.block_of(a)), Tag::ReadWrite);
        assert_eq!(m.probe(l.block_of(l.heap_base(3))), Tag::Invalid);
        let mut buf = [0u8; 8];
        m.read_in_block(a, &mut buf).unwrap();
        assert_eq!(buf, [3u8; 8]);
        // Allocator rewound: the next alloc reuses b's address.
        assert_eq!(m.alloc(32, 8), b);
    }

    #[test]
    fn reused_checkpoint_buffer_leaks_nothing() {
        // Everything a restore rewinds: blocks, tags, bytes, unread
        // pre-sends, the allocator.
        let view = |m: &NodeMem| {
            let blocks: Vec<(BlockId, Tag, Vec<u8>)> =
                m.iter_blocks().map(|(b, t)| (b, t, m.data(b).unwrap().to_vec())).collect();
            (blocks, m.unused_presends(), m.alloc_next)
        };
        let l = mem().layout();
        let mut big = mem();
        for i in 0..6u8 {
            let a = big.alloc(32, 8);
            big.write_in_block(a, &[i + 1; 8]).unwrap();
        }
        big.install(l.block_of(l.heap_base(2)), &[5u8; 32], Tag::ReadOnly, true);
        big.install(l.block_of(l.heap_base(3)), &[6u8; 32], Tag::ReadOnly, true);
        let mut small = mem();
        let a = small.alloc(32, 8);
        small.write_in_block(a, &[9u8; 8]).unwrap();
        small.install(l.block_of(l.heap_base(2)), &[7u8; 32], Tag::ReadWrite, false);

        let (mut reused, mut fresh) = (MemCheckpoint::default(), MemCheckpoint::default());
        big.checkpoint_into(&mut reused);
        small.checkpoint_into(&mut reused);
        small.checkpoint_into(&mut fresh);
        assert_eq!(reused.bytes(), fresh.bytes(), "checkpoint_bytes counts this capture only");
        let (mut from_reused, mut from_fresh) = (mem(), mem());
        from_reused.restore(&reused);
        from_fresh.restore(&fresh);
        assert_eq!(view(&from_reused), view(&from_fresh));
        assert_eq!(view(&from_fresh), view(&small));
    }

    #[test]
    fn lookup_is_stable_across_page_boundaries() {
        let mut m = mem();
        let l = m.layout();
        // Touch blocks straddling several pages of segment 2.
        let base = l.block_of(l.heap_base(2));
        for i in [0u64, 1, PAGE_BLOCKS as u64 - 1, PAGE_BLOCKS as u64, 3 * PAGE_BLOCKS as u64 + 7] {
            let b = BlockId(base.0 + i);
            m.install(b, &[i as u8; 32], Tag::ReadOnly, false);
        }
        for i in [0u64, 1, PAGE_BLOCKS as u64 - 1, PAGE_BLOCKS as u64, 3 * PAGE_BLOCKS as u64 + 7] {
            let b = BlockId(base.0 + i);
            assert_eq!(m.probe(b), Tag::ReadOnly);
            assert_eq!(m.data(b).unwrap(), &vec![i as u8; 32][..]);
        }
        assert_eq!(m.resident_blocks(), 5);
    }
}
