//! Distributed aggregates — C\*\*'s data collections (§4.1).
//!
//! An aggregate is a global array of primitive elements distributed across
//! the nodes. Distribution is an *allocation* decision: each node's
//! partition lives in that node's heap segment, so the partition's blocks
//! are homed where the owning computation runs (the effect of the paper's
//! page-granularity distribution through Stache).
//!
//! Supported computation distributions (§4.1): block distributions on 1-D
//! aggregates, row-block on 2-D aggregates, plus a cyclic 1-D distribution
//! for load-imbalance experiments.
//!
//! Besides per-element addressing ([`Agg1D::addr`]), an aggregate cuts an
//! index range into *runs* — maximal stretches that are contiguous in one
//! partition ([`Agg1D::runs`], [`Agg2D::row_runs`]) — which is what
//! [`crate::NodeCtx::read_run`] and `write_run` take: one address per
//! run instead of one per element. A `RowBlock` address is a load from a
//! table of row bases; a 1-D address divides once (by the per-node chunk
//! under `Block`, by the node count under `Cyclic`).

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
    #[inline]
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

    /// `range` cut into its contiguous runs, in index order, each as
    /// `(address of its first element, element count)`. A `Block` range is
    /// cut where it crosses from one node's partition into the next; a
    /// `Cyclic` one has no two neighbours in one partition, so every run
    /// has length 1.
    ///
    /// # Panics
    ///
    /// Panics, in every build profile, if `range` reaches past the
    /// aggregate.
    pub fn runs(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = (GAddr, usize)> + '_ {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "index range {range:?} out of bounds for length {}",
            self.len
        );
        let mut i = range.start;
        std::iter::from_fn(move || {
            if i == range.end {
                return None;
            }
            let run = match self.dist {
                Dist1D::Block => {
                    let p = (i / self.per).min(self.nodes - 1);
                    let n = ((p + 1) * self.per).min(range.end) - i;
                    (self.bases[p].add(((i - p * self.per) * T::BYTES) as u64), n)
                }
                Dist1D::Cyclic => (self.addr(i), 1),
            };
            i += run.1;
            Some(run)
        })
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
    cols: usize,
    nodes: usize,
    /// Rows per node under `RowBlock`.
    per: usize,
    /// Base address of each row: an address is one load, no division.
    row_base: Vec<GAddr>,
    _t: PhantomData<T>,
}

impl<T: Prim> Agg2D<T> {
    /// Allocate a `rows × cols` aggregate on `m`.
    pub fn new(m: &Machine, rows: usize, cols: usize, dist: Dist2D) -> Agg2D<T> {
        let Dist2D::RowBlock = dist;
        let nodes = m.nodes();
        let mut row_base = Vec::with_capacity(rows);
        for p in 0..nodes {
            let range = block_range(rows, nodes, p);
            let bytes = ((range.len() * cols).max(1) * T::BYTES) as u64;
            let base = m.alloc_on(p as NodeId, bytes, T::BYTES as u64);
            row_base.extend((0..range.len()).map(|r| base.add((r * cols * T::BYTES) as u64)));
        }
        Agg2D { cols, nodes, per: chunk(rows, nodes), row_base, _t: PhantomData }
    }

    /// Row count.
    pub fn rows(&self) -> usize {
        self.row_base.len()
    }

    /// Column count.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Owning node of element `(i, j)`.
    pub fn owner(&self, i: usize, j: usize) -> NodeId {
        debug_assert!(i < self.rows() && j < self.cols);
        (i / self.per).min(self.nodes - 1) as NodeId
    }

    /// Global address of element `(i, j)`.
    #[inline]
    pub fn addr(&self, i: usize, j: usize) -> GAddr {
        debug_assert!(i < self.rows() && j < self.cols, "({i},{j}) out of bounds");
        self.row_base[i].add((j * T::BYTES) as u64)
    }

    /// The columns `cols` of row `i` cut into contiguous runs, like
    /// [`Agg1D::runs`]: a row lies in one node's partition, row-major, so
    /// a non-empty range is one run.
    ///
    /// # Panics
    ///
    /// Panics, in every build profile, if the row or the column range
    /// reaches past the aggregate.
    pub fn row_runs(
        &self,
        i: usize,
        cols: std::ops::Range<usize>,
    ) -> impl Iterator<Item = (GAddr, usize)> {
        assert!(
            i < self.rows() && cols.start <= cols.end && cols.end <= self.cols,
            "row {i}, column range {cols:?} out of bounds for {} x {}",
            self.rows(),
            self.cols
        );
        (!cols.is_empty()).then(|| (self.addr(i, cols.start), cols.len())).into_iter()
    }

    /// Row range owned by node `p`.
    pub fn my_rows(&self, p: NodeId) -> std::ops::Range<usize> {
        block_range(self.rows(), self.nodes, p as usize)
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

    /// The addressing formulas as they stood before `per` was cached at
    /// construction (and so before the row table), verbatim: the oracle
    /// for the grid tests below.
    mod oracle {
        pub fn block_range(len: usize, parts: usize, p: usize) -> std::ops::Range<usize> {
            let per = len.div_ceil(parts).max(1);
            let start = (p * per).min(len);
            let end = ((p + 1) * per).min(len);
            start..end
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

    /// Where each node's partition of the aggregate allocated last begins,
    /// found without asking the aggregate: the bump allocator puts the
    /// next 8-byte allocation right at the partition's end.
    fn partition_bases(m: &Machine, elems: impl Fn(usize) -> usize) -> Vec<GAddr> {
        let end = |p: usize| m.alloc_on(p as NodeId, 8, 8);
        (0..m.nodes()).map(|p| GAddr(end(p).0 - (elems(p).max(1) * 8) as u64)).collect()
    }

    /// Every element of a `len`-element Block and Cyclic aggregate on `m`.
    fn check_1d(m: &Machine, len: usize) {
        let nodes = m.nodes();
        let a = Agg1D::<f64>::new(m, len, Dist1D::Block);
        let c = Agg1D::<u64>::new(m, len, Dist1D::Cyclic);
        for i in 0..len {
            check_elem(m, &a.bases, a.addr(i), a.owner(i), oracle::block_1d(len, nodes, i));
            check_elem(m, &c.bases, c.addr(i), c.owner(i), oracle::cyclic_1d(nodes, i));
        }
        for p in 0..nodes {
            assert_eq!(a.my_range(p as NodeId), oracle::block_range(len, nodes, p));
        }
    }

    /// Every element of a `rows × cols` RowBlock aggregate on `m`.
    fn check_2d(m: &Machine, rows: usize, cols: usize) {
        let nodes = m.nodes();
        let g = Agg2D::<f64>::new(m, rows, cols, Dist2D::RowBlock);
        let bases = partition_bases(m, |p| oracle::block_range(rows, nodes, p).len() * cols);
        assert_eq!(g.rows(), rows);
        for (i, j) in (0..rows).flat_map(|i| (0..cols).map(move |j| (i, j))) {
            let want = oracle::rowblock_2d(rows, cols, nodes, i, j);
            check_elem(m, &bases, g.addr(i, j), g.owner(i, j), want);
        }
        for p in 0..nodes {
            assert_eq!(g.my_rows(p as NodeId), oracle::block_range(rows, nodes, p));
        }
    }

    #[test]
    fn agg1d_addressing_matches_the_pre_cache_formulas_on_a_small_grid() {
        for nodes in 1..=9 {
            let m = machine(nodes);
            for len in 0..=40 {
                check_1d(&m, len);
            }
        }
    }

    #[test]
    fn agg2d_addressing_matches_the_pre_cache_formulas_on_a_small_grid() {
        for nodes in 1..=9 {
            let m = machine(nodes);
            for rows in 0..=40 {
                for cols in [1, 5, 12] {
                    check_2d(&m, rows, cols);
                }
            }
        }
    }

    /// The shapes the applications allocate: Water's 512 molecules,
    /// Barnes' 16 384 bodies, Adaptive's 128 x 64 root halves and its
    /// 128 x 8 192 slab store — on 1 to 9 nodes and the paper's 32.
    #[test]
    fn addressing_matches_the_pre_cache_formulas_at_the_apps_shapes() {
        for nodes in (1..=9).chain([32]) {
            let m = machine(nodes);
            check_1d(&m, 512);
            check_1d(&m, 16_384);
            check_2d(&m, 128, 64);
            check_2d(&m, 128, 8_192);
        }
    }

    /// Element addresses a run list covers, in order.
    fn run_addrs(runs: impl Iterator<Item = (GAddr, usize)>) -> Vec<GAddr> {
        runs.flat_map(|(a, n)| (0..n).map(move |w| a.add(8 * w as u64))).collect()
    }

    #[test]
    fn runs_concatenate_to_the_per_element_addresses_on_a_small_grid() {
        for nodes in 1..=9 {
            let m = machine(nodes);
            for len in 0..=40 {
                let a = Agg1D::<f64>::new(&m, len, Dist1D::Block);
                let c = Agg1D::<u64>::new(&m, len, Dist1D::Cyclic);
                for (lo, hi) in (0..=len).flat_map(|lo| (lo..=len).map(move |hi| (lo, hi))) {
                    let want: Vec<GAddr> = (lo..hi).map(|i| a.addr(i)).collect();
                    assert_eq!(run_addrs(a.runs(lo..hi)), want, "block {nodes}/{len} {lo}..{hi}");
                    // Maximal: a Block range touches each partition once.
                    let parts = (lo..hi).map(|i| a.owner(i)).collect::<Vec<_>>();
                    let mut distinct = parts.clone();
                    distinct.dedup();
                    assert_eq!(a.runs(lo..hi).count(), distinct.len());
                    let want: Vec<GAddr> = (lo..hi).map(|i| c.addr(i)).collect();
                    assert_eq!(run_addrs(c.runs(lo..hi)), want, "cyclic {nodes}/{len} {lo}..{hi}");
                    assert!(c.runs(lo..hi).all(|(_, n)| n == 1));
                }
            }
        }
    }

    #[test]
    fn row_runs_concatenate_to_the_per_element_addresses_on_a_small_grid() {
        for nodes in 1..=9 {
            let m = machine(nodes);
            for rows in 1..=40 {
                for cols in [1, 5, 12] {
                    let g = Agg2D::<f64>::new(&m, rows, cols, Dist2D::RowBlock);
                    for i in 0..rows {
                        for (lo, hi) in
                            (0..=cols).flat_map(|lo| (lo..=cols).map(move |hi| (lo, hi)))
                        {
                            let want: Vec<GAddr> = (lo..hi).map(|j| g.addr(i, j)).collect();
                            assert_eq!(run_addrs(g.row_runs(i, lo..hi)), want);
                            assert_eq!(g.row_runs(i, lo..hi).count(), usize::from(lo < hi));
                        }
                    }
                }
            }
        }
    }

    // The run views check their bounds in every build profile (`addr`'s
    // `debug_assert!` lets `px.addr(len)` through in release, where it is
    // the first word of whatever the last node allocated next).
    #[test]
    #[should_panic(expected = "index range 3..11 out of bounds for length 10")]
    fn runs_past_the_end_panic_in_every_profile() {
        let m = machine(2);
        let _ = Agg1D::<f64>::new(&m, 10, Dist1D::Block).runs(3..11).count();
    }

    #[test]
    #[should_panic(expected = "row 1, column range 2..9 out of bounds for 4 x 8")]
    fn row_runs_past_the_row_end_panic_in_every_profile() {
        let m = machine(2);
        let _ = Agg2D::<f64>::new(&m, 4, 8, Dist2D::RowBlock).row_runs(1, 2..9).count();
    }

    #[test]
    #[should_panic(expected = "row 4, column range 0..1 out of bounds for 4 x 8")]
    fn row_runs_past_the_last_row_panic_in_every_profile() {
        let m = machine(2);
        let _ = Agg2D::<f64>::new(&m, 4, 8, Dist2D::RowBlock).row_runs(4, 0..1).count();
    }
}
