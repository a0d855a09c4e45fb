//! Global address-space layout: which node is each block's *home*.
//!
//! Stache maps each shared cache block to a home node, where the block
//! initially resides and where its directory entry is kept (§3.1). We carve
//! the 64-bit address space into one large *heap segment per node*; a
//! block's home is the node whose segment contains it.
//!
//! This makes data distribution a pure allocation decision: the C\*\*
//! runtime places each aggregate partition (and each dynamically allocated
//! tree node) in the heap of the node that should own it, so "home" and
//! "owner of the partition" coincide — just as the paper's page-granularity
//! distribution achieves.

use std::collections::BTreeMap;

use crate::{BlockId, GAddr, NodeId};

/// Size of each node's heap segment in bytes of address space.
///
/// This is virtual naming space, not physical memory: blocks are
/// materialized lazily on first touch.
pub const NODE_HEAP_BYTES: u64 = 1 << 32; // 4 GiB of naming space per node

/// The global address-space layout of one machine.
#[derive(Clone, Copy, Debug)]
pub struct GlobalLayout {
    /// Number of nodes in the machine.
    pub nodes: usize,
    /// Cache-block size in bytes (power of two; the paper uses 32–1024).
    pub block_size: usize,
}

impl GlobalLayout {
    /// Create a layout. `block_size` must be a power of two ≥ 8 and `nodes`
    /// must be between 1 and [`crate::MAX_NODES`].
    pub fn new(nodes: usize, block_size: usize) -> GlobalLayout {
        assert!((1..=crate::MAX_NODES).contains(&nodes), "node count {nodes} out of range");
        assert!(
            block_size.is_power_of_two() && block_size >= 8,
            "block size {block_size} must be a power of two >= 8"
        );
        GlobalLayout { nodes, block_size }
    }

    /// First usable address of `node`'s heap segment.
    ///
    /// Node 0's segment skips its first block so that address 0 can serve
    /// as the [`GAddr::NULL`] sentinel.
    #[inline]
    pub fn heap_base(&self, node: NodeId) -> GAddr {
        let base = node as u64 * NODE_HEAP_BYTES;
        if node == 0 {
            GAddr(base + self.block_size as u64)
        } else {
            GAddr(base)
        }
    }

    /// Exclusive upper bound of `node`'s heap segment.
    #[inline]
    pub fn heap_end(&self, node: NodeId) -> GAddr {
        GAddr((node as u64 + 1) * NODE_HEAP_BYTES)
    }

    /// The home node of an address.
    ///
    /// Panics on an address outside every node's heap segment: in release
    /// builds a silent modulo/truncation here would mis-home the block and
    /// corrupt the directory, so the check is a real assert, not a
    /// `debug_assert`.
    #[inline]
    pub fn home_of(&self, addr: GAddr) -> NodeId {
        let n = (addr.0 / NODE_HEAP_BYTES) as usize;
        assert!(n < self.nodes, "address {addr:?} outside any node heap (nodes={})", self.nodes);
        n as NodeId
    }

    /// The home node of a block.
    #[inline]
    pub fn home_of_block(&self, block: BlockId) -> NodeId {
        self.home_of(block.base(self.block_size))
    }

    /// The block containing `addr` under this layout's block size.
    #[inline]
    pub fn block_of(&self, addr: GAddr) -> BlockId {
        addr.block(self.block_size)
    }
}

/// A sparse block→home remap table: the serialized form of a placement
/// overlay.
///
/// The text format is one `block home` pair per line (block number and node
/// id, base 10), with `#` comments and blank lines ignored — the format
/// `prescient-telemetry emit-remap` writes and `MachineConfig` loads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HomeMap {
    entries: BTreeMap<BlockId, NodeId>,
}

impl HomeMap {
    /// An empty map.
    pub fn new() -> HomeMap {
        HomeMap::default()
    }

    /// Map `block` to `home` (replacing any earlier entry).
    pub fn insert(&mut self, block: BlockId, home: NodeId) {
        self.entries.insert(block, home);
    }

    /// The remapped home of `block`, if any.
    pub fn get(&self, block: BlockId) -> Option<NodeId> {
        self.entries.get(&block).copied()
    }

    /// Number of remapped blocks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate entries in block order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (BlockId, NodeId)> + '_ {
        self.entries.iter().map(|(b, h)| (*b, *h))
    }

    /// Parse the text format. Homes are validated against `nodes`.
    pub fn parse(text: &str, nodes: usize) -> Result<HomeMap, String> {
        let mut map = HomeMap::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut it = line.split_whitespace();
            let (b, h) = (it.next(), it.next());
            if it.next().is_some() {
                return Err(format!("remap line {}: expected `block home`", lineno + 1));
            }
            let block = b
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| format!("remap line {}: bad block number", lineno + 1))?;
            let home = h
                .and_then(|s| s.parse::<u16>().ok())
                .ok_or_else(|| format!("remap line {}: bad home node", lineno + 1))?;
            if (home as usize) >= nodes {
                return Err(format!(
                    "remap line {}: home {} out of range (nodes={})",
                    lineno + 1,
                    home,
                    nodes
                ));
            }
            map.insert(BlockId(block), home);
        }
        Ok(map)
    }

    /// Serialize to the text format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# block home\n");
        for (b, h) in self.iter() {
            out.push_str(&format!("{} {}\n", b.0, h));
        }
        out
    }
}

/// The machine's block→home mapping: the segment-derived default
/// ([`GlobalLayout`]) composed with an optional rotate shift (naive
/// round-robin placement, for placement experiments) and a sparse overlay
/// of offline remap entries.
///
/// Immutable configuration: built once at machine construction and shared
/// by every node, so a block's home is a pure function of its address for
/// the lifetime of the machine. The identity view (no shift, empty
/// overlay) short-circuits to the plain segment divide.
#[derive(Debug)]
pub struct HomeView {
    base: GlobalLayout,
    shift: u16,
    /// `shift == 0` and the overlay is empty.
    identity: bool,
    overlay: BTreeMap<BlockId, NodeId>,
}

impl HomeView {
    /// The identity view over `base`.
    pub fn identity(base: GlobalLayout) -> HomeView {
        HomeView::with_placement(base, 0, HomeMap::new())
    }

    /// A view with a rotate shift and a remap overlay. Panics if the shift
    /// or any overlay home names a node outside the machine.
    pub fn with_placement(base: GlobalLayout, shift: u16, overlay: HomeMap) -> HomeView {
        assert!((shift as usize) < base.nodes, "rotate shift {shift} out of range");
        for (block, home) in overlay.iter() {
            assert!(
                (home as usize) < base.nodes,
                "remap of block {}: home {home} out of range (nodes={})",
                block.0,
                base.nodes
            );
        }
        let identity = shift == 0 && overlay.is_empty();
        HomeView { base, shift, identity, overlay: overlay.entries }
    }

    /// The underlying segment layout.
    pub fn layout(&self) -> &GlobalLayout {
        &self.base
    }

    /// The home of `block`.
    #[inline]
    pub fn home_of_block(&self, block: BlockId) -> NodeId {
        if self.identity {
            return self.base.home_of_block(block);
        }
        if let Some(h) = self.overlay.get(&block) {
            return *h;
        }
        let b = self.base.home_of_block(block) as usize;
        ((b + self.shift as usize) % self.base.nodes) as NodeId
    }

    /// True iff this view maps `block` exactly like the segment layout
    /// *because placement is not acting on it*: no shift and no overlay
    /// entry. The first-touch fast path (auto-RW materialization of a
    /// node's own home blocks) is gated on this, so enabling placement
    /// changes first-touch behavior uniformly per block rather than
    /// depending on where an overlay happens to point.
    #[inline]
    pub fn is_identity_block(&self, block: BlockId) -> bool {
        self.identity || (self.shift == 0 && !self.overlay.contains_key(&block))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homes_partition_the_space() {
        let l = GlobalLayout::new(4, 64);
        assert_eq!(l.home_of(l.heap_base(0)), 0);
        assert_eq!(l.home_of(l.heap_base(3)), 3);
        assert_eq!(l.home_of(GAddr(NODE_HEAP_BYTES + 8)), 1);
    }

    #[test]
    fn node0_base_skips_null_block() {
        let l = GlobalLayout::new(2, 32);
        assert!(l.heap_base(0).0 >= 32);
        assert!(!l.heap_base(0).is_null());
    }

    #[test]
    fn block_home_matches_addr_home() {
        let l = GlobalLayout::new(8, 128);
        for n in 0..8u16 {
            let a = l.heap_base(n).add(12345 * 128);
            assert_eq!(l.home_of(a), n);
            assert_eq!(l.home_of_block(l.block_of(a)), n);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_bad_block_size() {
        GlobalLayout::new(2, 48);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_node_count() {
        GlobalLayout::new(65, 32);
    }

    #[test]
    #[should_panic(expected = "outside any node heap")]
    fn out_of_range_address_panics_not_mishomes() {
        let l = GlobalLayout::new(4, 64);
        // One byte past the last node's heap: must panic (also in release
        // builds), never silently return a bogus home.
        let _ = l.home_of(GAddr(4 * NODE_HEAP_BYTES));
    }

    #[test]
    fn homemap_parse_roundtrip() {
        let text = "# comment\n12 3\n\n99 0  # trailing comment\n";
        let m = HomeMap::parse(text, 4).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(BlockId(12)), Some(3));
        assert_eq!(m.get(BlockId(99)), Some(0));
        assert_eq!(m.get(BlockId(1)), None);
        let again = HomeMap::parse(&m.to_text(), 4).unwrap();
        assert_eq!(again, m);
    }

    #[test]
    fn homemap_rejects_bad_lines() {
        assert!(HomeMap::parse("12", 4).is_err());
        assert!(HomeMap::parse("12 3 9", 4).is_err());
        assert!(HomeMap::parse("x 3", 4).is_err());
        assert!(HomeMap::parse("12 4", 4).is_err(), "home out of range");
    }

    #[test]
    fn homeview_identity_matches_layout() {
        let l = GlobalLayout::new(4, 64);
        let v = HomeView::identity(l);
        for n in 0..4u16 {
            let b = l.block_of(l.heap_base(n));
            assert_eq!(v.home_of_block(b), n);
            assert!(v.is_identity_block(b));
        }
    }

    #[test]
    fn homeview_rotate_and_overlay() {
        let l = GlobalLayout::new(4, 64);
        let mut m = HomeMap::new();
        let b0 = l.block_of(l.heap_base(0));
        m.insert(b0, 2);
        let v = HomeView::with_placement(l, 1, m);
        // Overlay wins over the rotate default.
        assert_eq!(v.home_of_block(b0), 2);
        // Rotate applies where the overlay is silent.
        let b3 = l.block_of(l.heap_base(3));
        assert_eq!(v.home_of_block(b3), 0);
        assert!(!v.is_identity_block(b0));
        assert!(!v.is_identity_block(b3));
    }

    #[test]
    #[should_panic(expected = "remap of block 7: home 4 out of range (nodes=4)")]
    fn homeview_rejects_out_of_range_overlay_home() {
        let mut m = HomeMap::new();
        m.insert(BlockId(7), 4);
        HomeView::with_placement(GlobalLayout::new(4, 64), 0, m);
    }
}
