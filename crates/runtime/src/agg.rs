//! Distributed aggregates — C\*\*'s data collections (§4.1).
//!
//! An aggregate is a global array of primitive elements distributed across
//! the nodes. Distribution is an *allocation* decision: each node's
//! partition lives in that node's heap segment, so the partition's blocks
//! are homed where the owning computation runs (the effect of the paper's
//! page-granularity distribution through Stache).
//!
//! Supported computation distributions (§4.1): block distributions on 1-D
//! aggregates, row-block and tiled distributions on 2-D aggregates, plus a
//! cyclic 1-D distribution for load-imbalance experiments.

use std::marker::PhantomData;

use prescient_tempest::{GAddr, NodeId, Prim};

use crate::machine::Machine;

/// 1-D distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist1D {
    /// Contiguous chunks of `ceil(len/P)` elements per node.
    Block,
    /// Element `i` owned by node `i mod P` (cyclic).
    Cyclic,
}

/// 2-D distributions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist2D {
    /// Contiguous row ranges per node.
    RowBlock,
    /// A `pr × pc` process grid of tiles.
    Tiled {
        /// Process-grid rows.
        pr: usize,
        /// Process-grid columns.
        pc: usize,
    },
}

/// A distributed 1-D aggregate of `T`.
pub struct Agg1D<T: Prim> {
    len: usize,
    nodes: usize,
    dist: Dist1D,
    /// Elements per node under `Block` (`block_range`'s chunk), fixed at
    /// construction so an address costs one division.
    per: usize,
    /// Partition base address per node.
    bases: Vec<GAddr>,
    _t: PhantomData<T>,
}

impl<T: Prim> Agg1D<T> {
    /// Allocate an aggregate of `len` elements on `m` with distribution
    /// `dist`.
    pub fn new(m: &Machine, len: usize, dist: Dist1D) -> Agg1D<T> {
        let nodes = m.nodes();
        let mut bases = Vec::with_capacity(nodes);
        for p in 0..nodes {
            let count = match dist {
                Dist1D::Block => block_range(len, nodes, p).len(),
                Dist1D::Cyclic => cyclic_count(len, nodes, p),
            };
            let bytes = (count.max(1) * T::BYTES) as u64;
            bases.push(m.alloc_on(p as NodeId, bytes, T::BYTES as u64));
        }
        Agg1D { len, nodes, dist, per: chunk(len, nodes), bases, _t: PhantomData }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the aggregate empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The owning node of element `i`.
    pub fn owner(&self, i: usize) -> NodeId {
        debug_assert!(i < self.len);
        match self.dist {
            Dist1D::Block => (i / self.per).min(self.nodes - 1) as NodeId,
            Dist1D::Cyclic => (i % self.nodes) as NodeId,
        }
    }

    /// Global address of element `i`.
    pub fn addr(&self, i: usize) -> GAddr {
        debug_assert!(i < self.len, "index {i} out of bounds {}", self.len);
        match self.dist {
            Dist1D::Block => {
                let p = self.owner(i) as usize;
                let start = (p * self.per).min(self.len);
                self.bases[p].add(((i - start) * T::BYTES) as u64)
            }
            Dist1D::Cyclic => {
                let p = i % self.nodes;
                let k = i / self.nodes;
                self.bases[p].add((k * T::BYTES) as u64)
            }
        }
    }

    /// The element indices owned by node `p`.
    pub fn my_elems(&self, p: NodeId) -> Vec<usize> {
        let p = p as usize;
        match self.dist {
            Dist1D::Block => block_range(self.len, self.nodes, p).collect(),
            Dist1D::Cyclic => (p..self.len).step_by(self.nodes).collect(),
        }
    }

    /// The contiguous index range owned by node `p` (Block distribution
    /// only).
    pub fn my_range(&self, p: NodeId) -> std::ops::Range<usize> {
        assert_eq!(self.dist, Dist1D::Block, "my_range requires the Block distribution");
        block_range(self.len, self.nodes, p as usize)
    }
}

/// A distributed 2-D aggregate of `T`, `rows × cols`.
pub struct Agg2D<T: Prim> {
    rows: usize,
    cols: usize,
    nodes: usize,
    dist: Dist2D,
    /// Rows per node under `RowBlock`, fixed at construction like
    /// [`Agg1D`]'s.
    per: usize,
    bases: Vec<GAddr>,
    _t: PhantomData<T>,
}

impl<T: Prim> Agg2D<T> {
    /// Allocate a `rows × cols` aggregate on `m`.
    pub fn new(m: &Machine, rows: usize, cols: usize, dist: Dist2D) -> Agg2D<T> {
        if let Dist2D::Tiled { pr, pc } = dist {
            assert_eq!(pr * pc, m.nodes(), "tile grid must cover exactly all nodes");
        }
        let nodes = m.nodes();
        let mut bases = Vec::with_capacity(nodes);
        for p in 0..nodes {
            let count = match dist {
                Dist2D::RowBlock => block_range(rows, nodes, p).len() * cols,
                Dist2D::Tiled { pr, pc } => {
                    let (tr, tc) = (p / pc, p % pc);
                    block_range(rows, pr, tr).len() * block_range(cols, pc, tc).len()
                }
            };
            let bytes = (count.max(1) * T::BYTES) as u64;
            bases.push(m.alloc_on(p as NodeId, bytes, T::BYTES as u64));
        }
        Agg2D { rows, cols, nodes, dist, per: chunk(rows, nodes), bases, _t: PhantomData }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Owning node of element `(i, j)`.
    pub fn owner(&self, i: usize, j: usize) -> NodeId {
        debug_assert!(i < self.rows && j < self.cols);
        match self.dist {
            Dist2D::RowBlock => (i / self.per).min(self.nodes - 1) as NodeId,
            Dist2D::Tiled { pr, pc } => {
                let tr = owner_of(self.rows, pr, i);
                let tc = owner_of(self.cols, pc, j);
                (tr * pc + tc) as NodeId
            }
        }
    }

    /// Global address of element `(i, j)`.
    pub fn addr(&self, i: usize, j: usize) -> GAddr {
        debug_assert!(i < self.rows && j < self.cols, "({i},{j}) out of bounds");
        match self.dist {
            Dist2D::RowBlock => {
                let p = self.owner(i, j) as usize;
                let r0 = (p * self.per).min(self.rows);
                self.bases[p].add((((i - r0) * self.cols + j) * T::BYTES) as u64)
            }
            Dist2D::Tiled { pr, pc } => {
                let tr = owner_of(self.rows, pr, i);
                let tc = owner_of(self.cols, pc, j);
                let p = tr * pc + tc;
                let r0 = block_range(self.rows, pr, tr).start;
                let c0 = block_range(self.cols, pc, tc).start;
                let width = block_range(self.cols, pc, tc).len();
                self.bases[p].add((((i - r0) * width + (j - c0)) * T::BYTES) as u64)
            }
        }
    }

    /// Row range owned by node `p` (RowBlock only).
    pub fn my_rows(&self, p: NodeId) -> std::ops::Range<usize> {
        assert_eq!(self.dist, Dist2D::RowBlock, "my_rows requires the RowBlock distribution");
        block_range(self.rows, self.nodes, p as usize)
    }

    /// `(row range, col range)` owned by node `p` (Tiled only).
    pub fn my_tile(&self, p: NodeId) -> (std::ops::Range<usize>, std::ops::Range<usize>) {
        let Dist2D::Tiled { pr, pc } = self.dist else {
            panic!("my_tile requires the Tiled distribution");
        };
        let _ = pr;
        let (tr, tc) = ((p as usize) / pc, (p as usize) % pc);
        (block_range(self.rows, pr, tr), block_range(self.cols, pc, tc))
    }
}

/// Elements per part when `len` contiguous elements split into `parts`.
fn chunk(len: usize, parts: usize) -> usize {
    len.div_ceil(parts).max(1)
}

/// Contiguous `len` elements split into `parts`: the range of part `p`.
fn block_range(len: usize, parts: usize, p: usize) -> std::ops::Range<usize> {
    let per = chunk(len, parts);
    let start = (p * per).min(len);
    let end = ((p + 1) * per).min(len);
    start..end
}

fn cyclic_count(len: usize, parts: usize, p: usize) -> usize {
    if p < len % parts {
        len / parts + 1
    } else {
        len / parts
    }
}

fn owner_of(len: usize, parts: usize, i: usize) -> usize {
    (i / chunk(len, parts)).min(parts - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn machine(n: usize) -> Machine {
        Machine::new(MachineConfig::stache(n, 32))
    }

    #[test]
    fn block_ranges_partition() {
        for (len, parts) in [(10, 3), (128, 4), (7, 8), (0, 2)] {
            let mut covered = 0;
            for p in 0..parts {
                covered += block_range(len, parts, p).len();
            }
            assert_eq!(covered, len, "len={len} parts={parts}");
        }
    }

    #[test]
    fn agg1d_block_layout() {
        let m = machine(4);
        let a = Agg1D::<f64>::new(&m, 100, Dist1D::Block);
        assert_eq!(a.len(), 100);
        // Partition ownership matches home nodes of addresses.
        for i in [0, 24, 25, 49, 50, 99] {
            let owner = a.owner(i);
            assert_eq!(m.layout().home_of(a.addr(i)), owner, "element {i}");
        }
        assert_eq!(a.my_range(0), 0..25);
        assert_eq!(a.my_range(3), 75..100);
    }

    #[test]
    fn agg1d_cyclic_layout() {
        let m = machine(3);
        let a = Agg1D::<u64>::new(&m, 10, Dist1D::Cyclic);
        assert_eq!(a.owner(0), 0);
        assert_eq!(a.owner(4), 1);
        assert_eq!(a.my_elems(0), vec![0, 3, 6, 9]);
        assert_eq!(a.my_elems(2), vec![2, 5, 8]);
        // Distinct elements get distinct addresses.
        let mut addrs: Vec<u64> = (0..10).map(|i| a.addr(i).0).collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 10);
    }

    #[test]
    fn agg2d_rowblock_layout() {
        let m = machine(4);
        let g = Agg2D::<f64>::new(&m, 16, 8, Dist2D::RowBlock);
        assert_eq!(g.my_rows(0), 0..4);
        assert_eq!(g.my_rows(3), 12..16);
        for (i, j) in [(0, 0), (3, 7), (4, 0), (15, 7)] {
            assert_eq!(m.layout().home_of(g.addr(i, j)), g.owner(i, j));
        }
        // Row-major within a partition.
        assert_eq!(g.addr(0, 1).0 - g.addr(0, 0).0, 8);
        assert_eq!(g.addr(1, 0).0 - g.addr(0, 0).0, 8 * 8);
    }

    #[test]
    fn agg2d_tiled_layout() {
        let m = machine(4);
        let g = Agg2D::<f64>::new(&m, 8, 8, Dist2D::Tiled { pr: 2, pc: 2 });
        assert_eq!(g.owner(0, 0), 0);
        assert_eq!(g.owner(0, 7), 1);
        assert_eq!(g.owner(7, 0), 2);
        assert_eq!(g.owner(7, 7), 3);
        let (rr, cc) = g.my_tile(3);
        assert_eq!((rr, cc), (4..8, 4..8));
        for (i, j) in [(0, 0), (2, 5), (5, 2), (7, 7)] {
            assert_eq!(m.layout().home_of(g.addr(i, j)), g.owner(i, j));
        }
    }

    /// The addressing formulas as they stood before `per` was cached at
    /// construction, verbatim: the oracle for the grid tests below.
    mod oracle {
        pub fn block_range(len: usize, parts: usize, p: usize) -> std::ops::Range<usize> {
            let per = len.div_ceil(parts).max(1);
            let start = (p * per).min(len);
            let end = ((p + 1) * per).min(len);
            start..end
        }

        pub fn owner_of(len: usize, parts: usize, i: usize) -> usize {
            let per = len.div_ceil(parts).max(1);
            (i / per).min(parts - 1)
        }

        /// 1-D Block: (owner, element offset in the owner's partition).
        pub fn block_1d(len: usize, nodes: usize, i: usize) -> (usize, usize) {
            let per = len.div_ceil(nodes);
            let p = (i / per.max(1)).min(nodes - 1);
            let start = block_range(len, nodes, p).start;
            (p, i - start)
        }

        /// 1-D Cyclic.
        pub fn cyclic_1d(nodes: usize, i: usize) -> (usize, usize) {
            (i % nodes, i / nodes)
        }

        /// 2-D RowBlock.
        pub fn rowblock_2d(
            rows: usize,
            cols: usize,
            nodes: usize,
            i: usize,
            j: usize,
        ) -> (usize, usize) {
            let per = rows.div_ceil(nodes);
            let p = (i / per.max(1)).min(nodes - 1);
            let r0 = block_range(rows, nodes, p).start;
            (p, (i - r0) * cols + j)
        }

        /// 2-D Tiled on a `pr × pc` grid.
        pub fn tiled_2d(
            rows: usize,
            cols: usize,
            pr: usize,
            pc: usize,
            i: usize,
            j: usize,
        ) -> (usize, usize) {
            let tr = owner_of(rows, pr, i);
            let tc = owner_of(cols, pc, j);
            let p = tr * pc + tc;
            let r0 = block_range(rows, pr, tr).start;
            let c0 = block_range(cols, pc, tc).start;
            let width = block_range(cols, pc, tc).len();
            (p, (i - r0) * width + (j - c0))
        }
    }

    /// `addr`/`owner` of one element against the oracle's (owner, offset),
    /// and the address's home against the owner. Every aggregate in the
    /// grid tests has 8-byte elements.
    fn check_elem(m: &Machine, bases: &[GAddr], addr: GAddr, owner: NodeId, want: (usize, usize)) {
        let (p, off) = want;
        assert_eq!(owner as usize, p);
        assert_eq!(addr, bases[p].add((off * 8) as u64));
        assert_eq!(m.layout().home_of(addr), owner);
    }

    #[test]
    fn agg1d_addressing_matches_the_pre_cache_formulas_on_a_small_grid() {
        for nodes in 1..=9 {
            let m = machine(nodes);
            for len in 0..=40 {
                let a = Agg1D::<f64>::new(&m, len, Dist1D::Block);
                let c = Agg1D::<u64>::new(&m, len, Dist1D::Cyclic);
                for i in 0..len {
                    check_elem(
                        &m,
                        &a.bases,
                        a.addr(i),
                        a.owner(i),
                        oracle::block_1d(len, nodes, i),
                    );
                    check_elem(&m, &c.bases, c.addr(i), c.owner(i), oracle::cyclic_1d(nodes, i));
                }
                for p in 0..nodes {
                    assert_eq!(a.my_range(p as NodeId), oracle::block_range(len, nodes, p));
                }
            }
        }
    }

    #[test]
    fn agg2d_addressing_matches_the_pre_cache_formulas_on_a_small_grid() {
        for nodes in 1..=9 {
            let m = machine(nodes);
            let grids: Vec<(usize, usize)> =
                (1..=nodes).filter(|pr| nodes % pr == 0).map(|pr| (pr, nodes / pr)).collect();
            for rows in 0..=40 {
                for cols in [1, 5, 12] {
                    let g = Agg2D::<f64>::new(&m, rows, cols, Dist2D::RowBlock);
                    for (i, j) in (0..rows).flat_map(|i| (0..cols).map(move |j| (i, j))) {
                        let want = oracle::rowblock_2d(rows, cols, nodes, i, j);
                        check_elem(&m, &g.bases, g.addr(i, j), g.owner(i, j), want);
                    }
                    for p in 0..nodes {
                        assert_eq!(g.my_rows(p as NodeId), oracle::block_range(rows, nodes, p));
                    }
                    for &(pr, pc) in &grids {
                        let t = Agg2D::<u64>::new(&m, rows, cols, Dist2D::Tiled { pr, pc });
                        for (i, j) in (0..rows).flat_map(|i| (0..cols).map(move |j| (i, j))) {
                            let want = oracle::tiled_2d(rows, cols, pr, pc, i, j);
                            check_elem(&m, &t.bases, t.addr(i, j), t.owner(i, j), want);
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "tile grid")]
    fn tiled_grid_must_match_nodes() {
        let m = machine(4);
        let _ = Agg2D::<f64>::new(&m, 8, 8, Dist2D::Tiled { pr: 3, pc: 2 });
    }
}
