//! **Adaptive** — structured adaptive mesh relaxation (§5.1).
//!
//! A potential field on an `n × n` cell mesh over a box. Each iteration is
//! a red-black sweep: a cell's value relaxes toward the average of its
//! four neighbors. Where the gradient is steep, a cell *subdivides*: its
//! quad-tree grows one level (up to `max_depth`), represented as a
//! `2^d × 2^d` sub-grid slab in the owner's address space (allocated once,
//! addresses stable). Refined cells relax their slab against neighbor
//! boundary values read *from the neighbors' slabs at their own
//! resolution* — so as the mesh refines, new remote reads appear and the
//! communication schedule grows incrementally, while the extra sub-cell
//! work concentrates on the nodes owning the steep region (the load
//! imbalance whose synchronization cost §5.1 shows the predictive
//! protocol reducing).
//!
//! Phase structure per iteration (directive ids as the compiler assigns):
//! red sweep, black sweep, refine. Red and black root values live in
//! *separate* aggregates so a root block is never both read and written in
//! one phase (the layout split a C\*\* programmer gets for free from
//! distinct aggregates; without it every root block would be a conflict
//! block).
//!
//! The update numerics are written once, generic over a [`Mesh`] trait,
//! and instantiated both by the sequential reference and by the DSM
//! version — the parallel run must reproduce the sequential field
//! bit-for-bit (all reads are of the previous phase's data).
//!
//! A refined cell reads and stores its own slab in one sweep each
//! ([`Mesh::slab_all`], [`Mesh::set_slab_all`]), which the DSM version
//! maps to the run form (`NodeCtx::read_run`/`write_run`).

use prescient_runtime::{Agg2D, Dist2D, Machine, MachineConfig, NodeCtx};

use crate::AppRun;

/// Adaptive configuration.
#[derive(Debug, Clone, Copy)]
pub struct AdaptiveConfig {
    /// Mesh side (the paper uses 128).
    pub n: usize,
    /// Iterations (the paper uses 100).
    pub iters: usize,
    /// Refinement threshold on the neighbor gradient.
    pub tau: f64,
    /// Maximum quad-tree depth (slab side `2^d`).
    pub max_depth: u32,
    /// Flush all communication schedules every `k` iterations (the §3.3
    /// rebuild policy for patterns with deletions); `None` = pure
    /// incremental growth.
    pub flush_every: Option<usize>,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig { n: 128, iters: 100, tau: 0.5, max_depth: 3, flush_every: None }
    }
}

impl AdaptiveConfig {
    /// Initial potential: a hot Gaussian bump off-center (steep ring →
    /// concentrated refinement → load imbalance).
    pub fn initial(&self, i: usize, j: usize) -> f64 {
        let n = self.n as f64;
        let (ci, cj) = (0.55 * n, 0.45 * n);
        let d2 = (i as f64 - ci).powi(2) + (j as f64 - cj).powi(2);
        let w = 0.12 * n;
        10.0 * (-d2 / (w * w)).exp()
    }

    fn slab_cap(&self) -> usize {
        let s = 1usize << self.max_depth;
        s * s
    }
}

/// The four neighbor sides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Up,
    Down,
    Left,
    Right,
}

impl Side {
    const ALL: [Side; 4] = [Side::Up, Side::Down, Side::Left, Side::Right];

    fn neighbor(self, i: usize, j: usize) -> (usize, usize) {
        match self {
            Side::Up => (i - 1, j),
            Side::Down => (i + 1, j),
            Side::Left => (i, j - 1),
            Side::Right => (i, j + 1),
        }
    }
}

/// Storage interface shared by the sequential reference and the DSM
/// version: cell root values, quad-tree depths, and sub-grid slabs
/// (indexed `(a, b)` within an `s × s` grid, `s = 2^depth`).
pub trait Mesh {
    /// Mesh side.
    fn n(&self) -> usize;
    /// Root (effective) value of cell `(i, j)`.
    fn root(&mut self, i: usize, j: usize) -> f64;
    /// Set the root value.
    fn set_root(&mut self, i: usize, j: usize, v: f64);
    /// Quad-tree depth of the cell.
    fn depth(&mut self, i: usize, j: usize) -> u32;
    /// Set the depth.
    fn set_depth(&mut self, i: usize, j: usize, d: u32);
    /// Sub-grid value `(a, b)` of the `s × s` slab of cell `(i, j)`.
    fn slab(&mut self, i: usize, j: usize, s: usize, a: usize, b: usize) -> f64;
    /// The whole `s × s` slab of cell `(i, j)`, row-major, into `out`
    /// (`s * s` long): a sweep, where the DSM version takes the run form.
    fn slab_all(&mut self, i: usize, j: usize, s: usize, out: &mut [f64]) {
        for a in 0..s {
            for b in 0..s {
                out[a * s + b] = self.slab(i, j, s, a, b);
            }
        }
    }
    /// Store the whole `s × s` slab of cell `(i, j)` from the first `s * s`
    /// values of `vals`, laid out as [`Mesh::slab_all`] reads one.
    fn set_slab_all(&mut self, i: usize, j: usize, s: usize, vals: &[f64]);
    /// Charge arithmetic (no-op for the reference).
    fn work(&mut self, _flops: u64) {}
}

/// Neighbor boundary value for sub-row/column `k` of our `s`-wide edge on
/// `side`: sampled from the neighbor's slab at *its* resolution, or its
/// root when unrefined.
fn boundary_value<M: Mesh>(m: &mut M, i: usize, j: usize, side: Side, k: usize, s: usize) -> f64 {
    let (ni, nj) = side.neighbor(i, j);
    let nd = m.depth(ni, nj);
    if nd == 0 {
        return m.root(ni, nj);
    }
    let sn = 1usize << nd;
    let kn = k * sn / s;
    match side {
        Side::Up => m.slab(ni, nj, sn, sn - 1, kn),
        Side::Down => m.slab(ni, nj, sn, 0, kn),
        Side::Left => m.slab(ni, nj, sn, kn, sn - 1),
        Side::Right => m.slab(ni, nj, sn, kn, 0),
    }
}

/// Relax one interior cell: unrefined cells average their four neighbors'
/// effective values; refined cells run one Jacobi sweep of their slab
/// against neighbor boundaries and update their root to the slab average.
pub fn update_cell<M: Mesh>(m: &mut M, i: usize, j: usize) {
    let d = m.depth(i, j);
    if d == 0 {
        let v = 0.25
            * (boundary_value(m, i, j, Side::Up, 0, 1)
                + boundary_value(m, i, j, Side::Down, 0, 1)
                + boundary_value(m, i, j, Side::Left, 0, 1)
                + boundary_value(m, i, j, Side::Right, 0, 1));
        m.work(4);
        m.set_root(i, j, v);
        return;
    }
    let s = 1usize << d;
    let mut buf = vec![0.0f64; 2 * s * s];
    let (old, new) = buf.split_at_mut(s * s);
    m.slab_all(i, j, s, old);
    let mut sum = 0.0;
    for a in 0..s {
        for b in 0..s {
            let up =
                if a > 0 { old[(a - 1) * s + b] } else { boundary_value(m, i, j, Side::Up, b, s) };
            let dn = if a + 1 < s {
                old[(a + 1) * s + b]
            } else {
                boundary_value(m, i, j, Side::Down, b, s)
            };
            let le =
                if b > 0 { old[a * s + b - 1] } else { boundary_value(m, i, j, Side::Left, a, s) };
            let ri = if b + 1 < s {
                old[a * s + b + 1]
            } else {
                boundary_value(m, i, j, Side::Right, a, s)
            };
            let v = 0.25 * (up + dn + le + ri);
            m.work(5);
            new[a * s + b] = v;
            sum += v;
        }
    }
    m.set_slab_all(i, j, s, new);
    m.set_root(i, j, sum / (s * s) as f64);
}

/// Refine one interior cell when its neighbor gradient exceeds `tau`:
/// depth grows by one level and the new slab is seeded by upsampling the
/// old one (or flooding the root value at the first refinement).
pub fn refine_cell<M: Mesh>(m: &mut M, i: usize, j: usize, tau: f64, max_depth: u32) -> bool {
    let d = m.depth(i, j);
    if d >= max_depth {
        return false;
    }
    let r = m.root(i, j);
    let mut grad: f64 = 0.0;
    for side in Side::ALL {
        let (ni, nj) = side.neighbor(i, j);
        grad = grad.max((r - m.root(ni, nj)).abs());
    }
    m.work(8);
    if grad <= tau {
        return false;
    }
    let s_old = 1usize << d;
    let s_new = s_old * 2;
    // An unrefined cell's "slab" is its root value.
    let mut buf = vec![r; s_old * s_old + s_new * s_new];
    let (old, new) = buf.split_at_mut(s_old * s_old);
    if d > 0 {
        m.slab_all(i, j, s_old, old);
    }
    m.set_depth(i, j, d + 1);
    for a in 0..s_new {
        for b in 0..s_new {
            new[a * s_new + b] = old[(a / 2) * s_old + b / 2];
        }
    }
    m.set_slab_all(i, j, s_new, new);
    true
}

// ---------------------------------------------------------------------
// Sequential reference.
// ---------------------------------------------------------------------

/// The whole mesh state in plain vectors.
pub struct SeqMesh {
    /// Mesh side.
    pub n: usize,
    /// Root values, row-major.
    pub roots: Vec<f64>,
    /// Depths, row-major.
    pub depths: Vec<u32>,
    /// Slabs (capacity for `max_depth`), row-major per cell.
    pub slabs: Vec<Vec<f64>>,
}

impl SeqMesh {
    /// Initialize from a config.
    pub fn new(cfg: &AdaptiveConfig) -> SeqMesh {
        let n = cfg.n;
        SeqMesh {
            n,
            roots: (0..n * n).map(|k| cfg.initial(k / n, k % n)).collect(),
            depths: vec![0; n * n],
            slabs: vec![Vec::new(); n * n],
        }
    }
}

impl Mesh for SeqMesh {
    fn n(&self) -> usize {
        self.n
    }
    fn root(&mut self, i: usize, j: usize) -> f64 {
        self.roots[i * self.n + j]
    }
    fn set_root(&mut self, i: usize, j: usize, v: f64) {
        self.roots[i * self.n + j] = v;
    }
    fn depth(&mut self, i: usize, j: usize) -> u32 {
        self.depths[i * self.n + j]
    }
    fn set_depth(&mut self, i: usize, j: usize, d: u32) {
        self.depths[i * self.n + j] = d;
    }
    fn slab(&mut self, i: usize, j: usize, s: usize, a: usize, b: usize) -> f64 {
        self.slabs[i * self.n + j][a * s + b]
    }
    fn set_slab_all(&mut self, i: usize, j: usize, s: usize, vals: &[f64]) {
        let cell = &mut self.slabs[i * self.n + j];
        if cell.len() < s * s {
            cell.resize(s * s, 0.0);
        }
        cell[..s * s].copy_from_slice(&vals[..s * s]);
    }
}

/// One full iteration: red sweep, black sweep, refine (interior cells
/// only; the box edge is a fixed Dirichlet boundary).
pub fn seq_iteration(m: &mut SeqMesh, cfg: &AdaptiveConfig) {
    let n = m.n;
    for color in 0..2usize {
        for i in 1..n - 1 {
            for j in 1..n - 1 {
                if (i + j) % 2 == color {
                    update_cell(m, i, j);
                }
            }
        }
    }
    for i in 1..n - 1 {
        for j in 1..n - 1 {
            refine_cell(m, i, j, cfg.tau, cfg.max_depth);
        }
    }
}

/// Run the sequential reference to completion; returns the mesh.
pub fn seq_adaptive(cfg: &AdaptiveConfig) -> SeqMesh {
    let mut m = SeqMesh::new(cfg);
    for _ in 0..cfg.iters {
        seq_iteration(&mut m, cfg);
    }
    m
}

/// Field checksum (roots weighted by position, plus total refinement).
pub fn mesh_checksum(roots: &[f64], depths: &[u32]) -> f64 {
    let field: f64 = roots.iter().enumerate().map(|(k, v)| (1 + k % 5) as f64 * v).sum();
    let refinement: f64 = depths.iter().map(|&d| d as f64).sum();
    field + 1e-3 * refinement
}

// ---------------------------------------------------------------------
// DSM version.
// ---------------------------------------------------------------------

const PHASE_RED: u32 = 1;
const PHASE_BLACK: u32 = 2;
const PHASE_REFINE: u32 = 3;

struct AdaptiveAggs {
    /// Red roots: cell (i, j) with (i+j) even, at column j/2.
    red: Agg2D<f64>,
    /// Black roots.
    black: Agg2D<f64>,
    depth: Agg2D<i64>,
    /// Slab storage: row i, columns `j*cap .. (j+1)*cap`.
    slabs: Agg2D<f64>,
    cap: usize,
}

impl AdaptiveAggs {
    fn new(machine: &Machine, cfg: &AdaptiveConfig) -> AdaptiveAggs {
        let n = cfg.n;
        let cap = cfg.slab_cap();
        AdaptiveAggs {
            red: Agg2D::new(machine, n, n.div_ceil(2), Dist2D::RowBlock),
            black: Agg2D::new(machine, n, n.div_ceil(2), Dist2D::RowBlock),
            depth: Agg2D::new(machine, n, n, Dist2D::RowBlock),
            slabs: Agg2D::new(machine, n, n * cap, Dist2D::RowBlock),
            cap,
        }
    }
}

struct DsmMesh<'a, 'c, 'n> {
    aggs: &'a AdaptiveAggs,
    ctx: &'c mut NodeCtx<'n>,
    n: usize,
}

impl Mesh for DsmMesh<'_, '_, '_> {
    fn n(&self) -> usize {
        self.n
    }
    fn root(&mut self, i: usize, j: usize) -> f64 {
        let agg = if (i + j).is_multiple_of(2) { &self.aggs.red } else { &self.aggs.black };
        self.ctx.read(agg.addr(i, j / 2))
    }
    fn set_root(&mut self, i: usize, j: usize, v: f64) {
        let agg = if (i + j).is_multiple_of(2) { &self.aggs.red } else { &self.aggs.black };
        self.ctx.write(agg.addr(i, j / 2), v);
    }
    fn depth(&mut self, i: usize, j: usize) -> u32 {
        self.ctx.read::<i64>(self.aggs.depth.addr(i, j)) as u32
    }
    fn set_depth(&mut self, i: usize, j: usize, d: u32) {
        self.ctx.write(self.aggs.depth.addr(i, j), d as i64);
    }
    fn slab(&mut self, i: usize, j: usize, s: usize, a: usize, b: usize) -> f64 {
        self.ctx.read(self.aggs.slabs.addr(i, j * self.aggs.cap + a * s + b))
    }
    fn slab_all(&mut self, i: usize, j: usize, s: usize, out: &mut [f64]) {
        self.ctx.read_run(self.aggs.slabs.addr(i, j * self.aggs.cap), &mut out[..s * s]);
    }
    fn set_slab_all(&mut self, i: usize, j: usize, s: usize, vals: &[f64]) {
        self.ctx.write_run(self.aggs.slabs.addr(i, j * self.aggs.cap), &vals[..s * s]);
    }
    fn work(&mut self, flops: u64) {
        self.ctx.work(flops);
    }
}

/// Run the data-parallel Adaptive. Works under both machines. Returns the
/// run plus the final `(roots, depths)` for validation.
pub fn run_adaptive_full(
    mcfg: MachineConfig,
    cfg: &AdaptiveConfig,
) -> (AppRun, Vec<f64>, Vec<u32>) {
    let n = cfg.n;
    let iters = cfg.iters;
    let tau = cfg.tau;
    let max_depth = cfg.max_depth;

    let mut machine = Machine::new(mcfg);
    let aggs = AdaptiveAggs::new(&machine, cfg);

    // Initialize roots and depths (not measured).
    machine.run(|ctx: &mut NodeCtx| {
        let rows = aggs.depth.my_rows(ctx.me());
        let mut m = DsmMesh { aggs: &aggs, ctx, n };
        for i in rows {
            for j in 0..n {
                m.set_root(i, j, cfg.initial(i, j));
                m.set_depth(i, j, 0);
            }
        }
        ctx.barrier();
    });

    let (_, report) = machine.run(|ctx: &mut NodeCtx| {
        let rows = aggs.depth.my_rows(ctx.me());
        let interior = |i: usize| -> std::ops::Range<usize> {
            if i == 0 || i == n - 1 {
                0..0
            } else {
                1..n - 1
            }
        };
        // The phases between two schedule flushes (all 3 × `iters` of
        // them without a flush policy) run as one sequence: each boundary
        // is one host episode (`NodeCtx::phases`).
        let every = cfg.flush_every.unwrap_or(iters).max(1);
        for first in (0..iters).step_by(every) {
            if first > 0 {
                for phase in [PHASE_RED, PHASE_BLACK, PHASE_REFINE] {
                    ctx.flush_schedule(phase);
                }
            }
            let sweeps = (first..iters.min(first + every))
                .flat_map(|_| [PHASE_RED, PHASE_BLACK, PHASE_REFINE]);
            // Every phase body is idempotent (cell updates read the
            // previous phase's data, and `DsmMesh` holds no cross-phase
            // private state), so the recovery wrapper needs no replay
            // state beyond the shared-memory rollback itself.
            ctx.phases(sweeps, &mut (), |ctx, phase, _| {
                for i in rows.clone() {
                    for j in interior(i) {
                        let mut m = DsmMesh { aggs: &aggs, ctx, n };
                        match phase {
                            PHASE_REFINE => {
                                refine_cell(&mut m, i, j, tau, max_depth);
                            }
                            PHASE_RED if (i + j) % 2 == 0 => update_cell(&mut m, i, j),
                            PHASE_BLACK if (i + j) % 2 == 1 => update_cell(&mut m, i, j),
                            _ => {}
                        }
                    }
                }
            });
        }
    });

    // Gather for validation.
    let (gathered, _) = machine.run(|ctx: &mut NodeCtx| {
        let mut out = (Vec::new(), Vec::new());
        if ctx.me() == 0 {
            let mut m = DsmMesh { aggs: &aggs, ctx, n };
            for i in 0..n {
                for j in 0..n {
                    out.0.push(m.root(i, j));
                    out.1.push(m.depth(i, j));
                }
            }
        }
        ctx.barrier();
        out
    });
    let (roots, depths) = gathered.into_iter().next().expect("node 0");
    let checksum = mesh_checksum(&roots, &depths);
    (AppRun { report, checksum }, roots, depths)
}

/// Run Adaptive and return just the [`AppRun`].
pub fn run_adaptive(mcfg: MachineConfig, cfg: &AdaptiveConfig) -> AppRun {
    run_adaptive_full(mcfg, cfg).0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> AdaptiveConfig {
        AdaptiveConfig { n: 12, iters: 4, tau: 0.4, max_depth: 2, flush_every: None }
    }

    #[test]
    fn initial_bump_peaks_inside() {
        let cfg = AdaptiveConfig::default();
        let peak = cfg.initial(70, 58);
        assert!(peak > 8.0);
        assert!(cfg.initial(0, 0) < 0.1);
    }

    #[test]
    fn refinement_happens_and_is_bounded() {
        let cfg = small();
        let m = seq_adaptive(&cfg);
        let refined = m.depths.iter().filter(|&&d| d > 0).count();
        assert!(refined > 0, "steep bump must trigger refinement");
        assert!(m.depths.iter().all(|&d| d <= cfg.max_depth));
        // Boundary never refines.
        let n = cfg.n;
        for k in 0..n {
            assert_eq!(m.depths[k], 0);
            assert_eq!(m.depths[(n - 1) * n + k], 0);
        }
    }

    #[test]
    fn field_relaxes_toward_smoothness() {
        let cfg = AdaptiveConfig { n: 12, iters: 30, tau: 1e9, max_depth: 0, flush_every: None };
        let m = seq_adaptive(&cfg);
        // With a fixed zero boundary and many sweeps, the interior decays.
        let max_interior = (1..11)
            .flat_map(|i| (1..11).map(move |j| (i, j)))
            .map(|(i, j)| m.roots[i * 12 + j].abs())
            .fold(0.0f64, f64::max);
        assert!(max_interior < 10.0 * 0.9, "field must decay: {max_interior}");
    }

    #[test]
    fn upsample_preserves_average() {
        let cfg = small();
        let mut m = SeqMesh::new(&cfg);
        // Force one refinement of a steep cell and check slab seeding.
        let (i, j) = (6, 5);
        let r = m.root(i, j);
        assert!(refine_cell(&mut m, i, j, 0.0, 2) || r == 0.0);
        if m.depth(i, j) == 1 {
            for a in 0..2 {
                for b in 0..2 {
                    assert_eq!(m.slab(i, j, 2, a, b), r);
                }
            }
        }
    }

    #[test]
    fn update_unrefined_averages_neighbors() {
        let cfg = small();
        let mut m = SeqMesh::new(&cfg);
        let (i, j) = (5, 5);
        let expect =
            0.25 * (m.root(i - 1, j) + m.root(i + 1, j) + m.root(i, j - 1) + m.root(i, j + 1));
        update_cell(&mut m, i, j);
        assert_eq!(m.root(i, j), expect);
    }

    #[test]
    fn checksum_sensitive_to_depths() {
        let a = mesh_checksum(&[1.0, 2.0], &[0, 0]);
        let b = mesh_checksum(&[1.0, 2.0], &[0, 1]);
        assert_ne!(a, b);
    }
}
