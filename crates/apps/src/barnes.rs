//! **Barnes** — gravitational N-body simulation over an oct-tree (§5.2;
//! SPLASH's Barnes-Hut).
//!
//! Bodies live in the unit cube. Space is cut by a fixed 4×4×4 region grid
//! (64 regions, assigned to nodes cyclically); each region owner builds an
//! oct-tree for its region in a node-local *arena* whose addresses are
//! reused every time step, so the communication pattern is repetitive with
//! small incremental changes as bodies drift between regions — exactly the
//! adaptive behavior of §1. Each time step runs the paper's four phases
//! (Figure 4):
//!
//! 1. **build** — region owners scan all body positions (unstructured
//!    remote reads) and insert their region's bodies into their trees
//!    (home writes, which invalidate copies cached by the previous force
//!    phase);
//! 2. **center-of-mass** — an upward pass over the owner's own trees
//!    (home writes of the mass/COM fields);
//! 3. **forces** — every body traverses all 64 region trees with the
//!    θ-opening criterion (unstructured reads of remote tree cells and of
//!    leaf bodies' positions); accelerations stay in private memory;
//! 4. **advance** — owners integrate and write new positions (owner
//!    writes).
//!
//! [`run_barnes_spmd`] models the paper's hand-optimized SPMD baseline
//! (Falsafi et al.'s application-specific write-update protocol): the
//! known broadcast of positions is installed as a *manual* communication
//! schedule and executed as update pushes, with no recording overhead.
//!
//! [`run_barnes_commute`] runs the build phase under the `commute`
//! directive that the `cstar` commutativity analysis suggests (lint W007):
//! tree insertion is an associative-commutative aggregate update, so each
//! node privatizes its own bodies' contributions into `(region, body,
//! position)` delta records and the records are merged in bulk at the
//! phase barrier ([`NodeCtx::merge_exchange`]) — the Stache bulk install.
//! Region owners replay their regions' insertions from the merged set in
//! the serialized build's order, and the full set doubles as the step's
//! read-only position snapshot for the summary and force phases. No node
//! ever read-shares a position block, which eliminates both the owners'
//! demand scans of all `n` positions *and* the advance phase's
//! invalidation of the scattered copies — the trees and the final
//! checksum stay bit-identical to the demand-driven build's.

use std::collections::HashMap;

use prescient_core::manual::ManualEntry;
use prescient_runtime::{Agg1D, Dist1D, Machine, MachineConfig, NodeCtx};
use prescient_tempest::{GAddr, NodeId, NodeSet, Xoshiro256pp};

use crate::AppRun;

/// Region grid: 4 per axis → 64 regions (supports up to 64 nodes).
pub const GRID: usize = 4;
/// Total regions.
pub const REGIONS: usize = GRID * GRID * GRID;

/// Barnes configuration.
#[derive(Debug, Clone, Copy)]
pub struct BarnesConfig {
    /// Number of bodies (the paper uses 16384).
    pub n: usize,
    /// Time steps (the paper uses 3).
    pub steps: usize,
    /// Opening criterion θ.
    pub theta: f64,
    /// Integration step.
    pub dt: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BarnesConfig {
    fn default() -> Self {
        BarnesConfig { n: 16384, steps: 3, theta: 0.7, dt: 1e-3, seed: 0xbab1e5 }
    }
}

/// Deterministic initial bodies: two clustered blobs plus a uniform
/// background (clustering makes the tree uneven, as in real N-body data).
pub fn initial_bodies(cfg: &BarnesConfig) -> (Vec<[f64; 3]>, Vec<f64>) {
    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
    let mut pos = Vec::with_capacity(cfg.n);
    let mut mass = Vec::with_capacity(cfg.n);
    let blob = |rng: &mut Xoshiro256pp, c: [f64; 3], r: f64| {
        let mut p = [0.0; 3];
        for (k, pk) in p.iter_mut().enumerate() {
            *pk = (c[k] + rng.range_f64(-r..r)).rem_euclid(1.0);
        }
        p
    };
    for i in 0..cfg.n {
        let p = match i % 4 {
            0 => blob(&mut rng, [0.3, 0.3, 0.3], 0.08),
            1 => blob(&mut rng, [0.7, 0.6, 0.4], 0.05),
            _ => [rng.range_f64(0.0..1.0), rng.range_f64(0.0..1.0), rng.range_f64(0.0..1.0)],
        };
        pos.push(p);
        mass.push(1.0 / cfg.n as f64);
    }
    (pos, mass)
}

/// Region index of a position.
#[inline]
pub fn region_of(p: &[f64; 3]) -> usize {
    let g = GRID as f64;
    let ix = ((p[0] * g) as usize).min(GRID - 1);
    let iy = ((p[1] * g) as usize).min(GRID - 1);
    let iz = ((p[2] * g) as usize).min(GRID - 1);
    ix + GRID * (iy + GRID * iz)
}

/// Lower corner of a region's box.
#[inline]
fn region_corner(r: usize) -> [f64; 3] {
    let g = GRID as f64;
    [(r % GRID) as f64 / g, ((r / GRID) % GRID) as f64 / g, (r / (GRID * GRID)) as f64 / g]
}

const SOFTENING2: f64 = 1e-6;
const MAX_DEPTH: usize = 24;

// ---------------------------------------------------------------------
// Sequential reference: the same region-rooted Barnes-Hut, on plain Vecs.
// ---------------------------------------------------------------------

/// A tree cell in the sequential reference.
#[derive(Clone)]
struct SeqCell {
    children: [SeqChild; 8],
    mass: f64,
    com: [f64; 3],
}

#[derive(Clone, Copy, PartialEq)]
enum SeqChild {
    Empty,
    Body(usize),
    Cell(usize),
}

impl Default for SeqCell {
    fn default() -> Self {
        SeqCell { children: [SeqChild::Empty; 8], mass: 0.0, com: [0.0; 3] }
    }
}

/// Octant of `p` within the cell with corner `corner` and size `size`.
#[inline]
fn octant(p: &[f64; 3], corner: &[f64; 3], size: f64) -> (usize, [f64; 3]) {
    let half = size / 2.0;
    let mut idx = 0;
    let mut c = *corner;
    for k in 0..3 {
        if p[k] >= corner[k] + half {
            idx |= 1 << k;
            c[k] += half;
        }
    }
    (idx, c)
}

struct SeqTree {
    cells: Vec<SeqCell>,
    roots: [Option<usize>; REGIONS],
}

fn seq_build(pos: &[[f64; 3]], mass: &[f64]) -> SeqTree {
    let mut t = SeqTree { cells: Vec::new(), roots: [None; REGIONS] };
    let rsize = 1.0 / GRID as f64;
    for b in 0..pos.len() {
        let r = region_of(&pos[b]);
        let root = *t.roots[r].get_or_insert_with(|| {
            t.cells.push(SeqCell::default());
            t.cells.len() - 1
        });
        // Standard BH insertion within the region's box.
        let mut cell = root;
        let mut corner = region_corner(r);
        let mut size = rsize;
        let mut depth = 0;
        loop {
            let (oi, oc) = octant(&pos[b], &corner, size);
            match t.cells[cell].children[oi] {
                SeqChild::Empty => {
                    t.cells[cell].children[oi] = SeqChild::Body(b);
                    break;
                }
                SeqChild::Cell(c) => {
                    cell = c;
                    corner = oc;
                    size /= 2.0;
                    depth += 1;
                }
                SeqChild::Body(other) => {
                    if depth >= MAX_DEPTH {
                        // Coincident bodies: fold into the cell's summary
                        // only (documented approximation).
                        break;
                    }
                    t.cells.push(SeqCell::default());
                    let nc = t.cells.len() - 1;
                    t.cells[cell].children[oi] = SeqChild::Cell(nc);
                    let (ooi, _) = octant(&pos[other], &oc, size / 2.0);
                    t.cells[nc].children[ooi] = SeqChild::Body(other);
                    cell = nc;
                    corner = oc;
                    size /= 2.0;
                    depth += 1;
                }
            }
        }
    }
    // COM pass.
    fn com(t: &mut SeqTree, cell: usize, pos: &[[f64; 3]], mass: &[f64]) -> (f64, [f64; 3]) {
        let children = t.cells[cell].children;
        let mut m = 0.0;
        let mut c = [0.0; 3];
        for ch in children {
            let (cm, cc) = match ch {
                SeqChild::Empty => continue,
                SeqChild::Body(b) => (mass[b], pos[b]),
                SeqChild::Cell(x) => com(t, x, pos, mass),
            };
            m += cm;
            for k in 0..3 {
                c[k] += cm * cc[k];
            }
        }
        if m > 0.0 {
            for ck in c.iter_mut() {
                *ck /= m;
            }
        }
        t.cells[cell].mass = m;
        t.cells[cell].com = c;
        (m, c)
    }
    for r in 0..REGIONS {
        if let Some(root) = t.roots[r] {
            com(&mut t, root, pos, mass);
        }
    }
    t
}

fn accumulate(acc: &mut [f64; 3], p: &[f64; 3], q: &[f64; 3], m: f64) {
    let dx = q[0] - p[0];
    let dy = q[1] - p[1];
    let dz = q[2] - p[2];
    let r2 = dx * dx + dy * dy + dz * dz + SOFTENING2;
    let inv_r = 1.0 / r2.sqrt();
    let f = m * inv_r * inv_r * inv_r;
    acc[0] += f * dx;
    acc[1] += f * dy;
    acc[2] += f * dz;
}

fn seq_force(t: &SeqTree, b: usize, pos: &[[f64; 3]], mass: &[f64], theta: f64) -> [f64; 3] {
    let mut acc = [0.0f64; 3];
    let rsize = 1.0 / GRID as f64;
    #[allow(clippy::too_many_arguments)]
    fn walk(
        t: &SeqTree,
        cell: usize,
        size: f64,
        b: usize,
        pos: &[[f64; 3]],
        mass: &[f64],
        theta: f64,
        acc: &mut [f64; 3],
    ) {
        let c = &t.cells[cell];
        let p = &pos[b];
        let dx = c.com[0] - p[0];
        let dy = c.com[1] - p[1];
        let dz = c.com[2] - p[2];
        let d2 = dx * dx + dy * dy + dz * dz;
        if c.mass > 0.0 && size * size < theta * theta * d2 {
            accumulate(acc, p, &c.com, c.mass);
            return;
        }
        for ch in c.children {
            match ch {
                SeqChild::Empty => {}
                SeqChild::Body(j) => {
                    if j != b {
                        accumulate(acc, p, &pos[j], mass[j]);
                    }
                }
                SeqChild::Cell(x) => {
                    walk(t, x, size / 2.0, b, pos, mass, theta, acc);
                }
            }
        }
    }
    for r in 0..REGIONS {
        if let Some(root) = t.roots[r] {
            walk(t, root, rsize, b, pos, mass, theta, &mut acc);
        }
    }
    acc
}

/// The sequential reference: returns final positions.
pub fn seq_barnes(cfg: &BarnesConfig) -> Vec<[f64; 3]> {
    let (mut pos, mass) = initial_bodies(cfg);
    let mut vel = vec![[0.0f64; 3]; cfg.n];
    for _ in 0..cfg.steps {
        let t = seq_build(&pos, &mass);
        let accs: Vec<[f64; 3]> =
            (0..cfg.n).map(|b| seq_force(&t, b, &pos, &mass, cfg.theta)).collect();
        for b in 0..cfg.n {
            for k in 0..3 {
                vel[b][k] += accs[b][k] * cfg.dt;
                pos[b][k] = (pos[b][k] + vel[b][k] * cfg.dt).rem_euclid(1.0);
            }
        }
    }
    pos
}

// ---------------------------------------------------------------------
// DSM version.
// ---------------------------------------------------------------------

/// Cell layout in the shared arena, in 8-byte words:
/// `[0..8)`  children (u64-encoded: 0 empty, odd = body*2+1, even = cell
/// address), `[8]` mass (f64), `[9..12)` COM (f64), `[12]` pad.
const CELL_WORDS: u64 = 12;
const CELL_BYTES: u64 = CELL_WORDS * 8;

#[inline]
fn child_encode_body(b: usize) -> u64 {
    (b as u64) << 1 | 1
}

#[inline]
fn child_encode_cell(a: GAddr) -> u64 {
    debug_assert_eq!(a.0 & 1, 0);
    a.0
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Child {
    Empty,
    Body(usize),
    Cell(GAddr),
}

#[inline]
fn child_decode(w: u64) -> Child {
    if w == 0 {
        Child::Empty
    } else if w & 1 == 1 {
        Child::Body((w >> 1) as usize)
    } else {
        Child::Cell(GAddr(w))
    }
}

/// Phase ids as the compiler assigns for the four-phase main loop
/// (Figure 4).
const PHASE_BUILD: u32 = 1;
const PHASE_COM: u32 = 2;
const PHASE_FORCE: u32 = 3;
const PHASE_ADVANCE: u32 = 4;

struct BarnesShared {
    px: Agg1D<f64>,
    py: Agg1D<f64>,
    pz: Agg1D<f64>,
    mass: Agg1D<f64>,
    /// Root cell address per region (0 = region empty this step).
    roots: Agg1D<u64>,
    /// Per-node arena base and capacity in cells.
    arena_base: Vec<GAddr>,
    arena_cells: u64,
}

/// Count the cells one region's tree allocates for the given bodies — the
/// same insertion walk as the build phase, on private memory. Used to size
/// the per-node arenas: the clustered initial conditions pack thousands of
/// bodies into a single region, so the uniform `4n/P` estimate is wrong at
/// paper scale (n=16384 exhausts it and the build phase panics).
fn count_region_cells(pos: &[[f64; 3]], r: usize) -> u64 {
    let rsize = 1.0 / GRID as f64;
    let corner0 = region_corner(r);
    // Children words per cell: 0 empty, odd = body, even nonzero = cell
    // index * 2 + 2 (a private re-encoding of the shared-arena scheme).
    let mut cells: Vec<[u64; 8]> = Vec::new();
    let mut root: Option<usize> = None;
    for (b, p) in pos.iter().enumerate() {
        if region_of(p) != r {
            continue;
        }
        let root_idx = match root {
            Some(i) => i,
            None => {
                cells.push([0; 8]);
                root = Some(cells.len() - 1);
                cells.len() - 1
            }
        };
        let mut cell = root_idx;
        let mut corner = corner0;
        let mut size = rsize;
        let mut depth = 0;
        loop {
            let (oi, oc) = octant(p, &corner, size);
            let w = cells[cell][oi];
            if w == 0 {
                cells[cell][oi] = (b as u64) << 1 | 1;
                break;
            } else if w & 1 == 0 {
                cell = (w / 2 - 1) as usize;
                corner = oc;
                size /= 2.0;
                depth += 1;
            } else {
                if depth >= MAX_DEPTH {
                    break;
                }
                let other = (w >> 1) as usize;
                cells.push([0; 8]);
                let nc = cells.len() - 1;
                cells[cell][oi] = (nc as u64) * 2 + 2;
                let (ooi, _) = octant(&pos[other], &oc, size / 2.0);
                cells[nc][ooi] = (other as u64) << 1 | 1;
                cell = nc;
                corner = oc;
                size /= 2.0;
                depth += 1;
            }
        }
    }
    cells.len() as u64
}

fn setup(machine: &Machine, cfg: &BarnesConfig, init_pos: &[[f64; 3]]) -> BarnesShared {
    let n = cfg.n;
    let nodes = machine.nodes();
    // Arena capacity: 4n/P cells per node covers near-uniform data (a body
    // insertion allocates amortized ~1 cell). Clustered data can blow past
    // that on the node owning the dense region, so take the larger of the
    // uniform estimate and the measured per-node demand for the initial
    // bodies (plus 25% + 16 slack for drift between regions). The uniform
    // value is kept whenever it suffices so that the address layout — and
    // with it the recorded traffic counters — is unchanged at the scales
    // that already fit.
    let uniform = (4 * n / nodes + 64) as u64;
    let mut per_node = vec![0u64; nodes];
    for r in 0..REGIONS {
        per_node[r % nodes] += count_region_cells(init_pos, r);
    }
    let needed = per_node.iter().copied().max().unwrap_or(0);
    let arena_cells = if needed <= uniform { uniform } else { needed + needed / 4 + 16 };
    let arena_base =
        (0..nodes).map(|p| machine.alloc_on(p as u16, arena_cells * CELL_BYTES, 8)).collect();
    BarnesShared {
        px: Agg1D::new(machine, n, Dist1D::Block),
        py: Agg1D::new(machine, n, Dist1D::Block),
        pz: Agg1D::new(machine, n, Dist1D::Block),
        mass: Agg1D::new(machine, n, Dist1D::Block),
        roots: Agg1D::new(machine, REGIONS, Dist1D::Cyclic),
        arena_base,
        arena_cells,
    }
}

impl BarnesShared {
    fn read_pos(&self, ctx: &mut NodeCtx, b: usize) -> [f64; 3] {
        [
            ctx.read::<f64>(self.px.addr(b)),
            ctx.read::<f64>(self.py.addr(b)),
            ctx.read::<f64>(self.pz.addr(b)),
        ]
    }

    fn cell_child_addr(&self, cell: GAddr, oi: usize) -> GAddr {
        cell.add(oi as u64 * 8)
    }

    /// The cell's summary record: mass and the three COM words, one run.
    fn cell_summary_addr(&self, cell: GAddr) -> GAddr {
        cell.add(8 * 8)
    }

    /// A cell's eight child words, read as one run.
    fn read_children(&self, ctx: &mut NodeCtx, cell: GAddr) -> [u64; 8] {
        let mut children = [0u64; 8];
        ctx.read_run(self.cell_child_addr(cell, 0), &mut children);
        children
    }
}

/// One node's arena cursor for a time step: cells are reused in place each
/// step so that tree addresses — and therefore the communication pattern —
/// stay stable across iterations.
struct Arena {
    base: GAddr,
    cells: u64,
    next: u64,
}

impl Arena {
    fn fresh_cell(&mut self, ctx: &mut NodeCtx, sh: &BarnesShared) -> GAddr {
        assert!(self.next < self.cells, "tree arena exhausted");
        let a = GAddr(self.base.0 + self.next * CELL_BYTES);
        self.next += 1;
        // Clear the children; summary words are overwritten by the COM
        // pass.
        ctx.write_run(sh.cell_child_addr(a, 0), &[0u64; 8]);
        a
    }
}

/// How the build phase communicates.
#[derive(Debug, Clone, Copy, PartialEq)]
enum BuildMode {
    /// Demand-driven reads of every position — plain Stache, or predictive
    /// with the conflict blocks left alone (the paper's "no action").
    Shared,
    /// The hand-written SPMD update schedule.
    SpmdManual,
    /// Privatize-and-merge under the `commute` directive.
    Commute,
}

/// Run the data-parallel Barnes. Works under both machines.
pub fn run_barnes(mcfg: MachineConfig, cfg: &BarnesConfig) -> AppRun {
    let (pos, report) = barnes_driver(mcfg, cfg, BuildMode::Shared);
    AppRun { report, checksum: crate::water::position_checksum(&pos) }
}

/// Final positions (validation helper).
pub fn barnes_final_positions(mcfg: MachineConfig, cfg: &BarnesConfig) -> Vec<[f64; 3]> {
    barnes_driver(mcfg, cfg, BuildMode::Shared).0
}

/// The hand-optimized SPMD baseline: a write-update custom protocol,
/// modeled as hand-installed (manual) communication schedules that
/// broadcast position blocks to all nodes before each build phase and push
/// ownership back for the advance phase — with recording disabled (no
/// schedule-building overhead). Requires a predictive-protocol machine.
pub fn run_barnes_spmd(mcfg: MachineConfig, cfg: &BarnesConfig) -> AppRun {
    assert!(mcfg.protocol.is_predictive(), "the SPMD baseline uses the update machinery");
    let (pos, report) = barnes_driver(mcfg, cfg, BuildMode::SpmdManual);
    AppRun { report, checksum: crate::water::position_checksum(&pos) }
}

/// Barnes with the tree build run under the `commute` directive: the
/// commutativity analysis proves the insertion loop mergeable (W007), so
/// every node contributes `(region, body, position)` records from its own
/// bodies and the merged set is installed everywhere at the phase
/// barrier — region owners replay their insertions from it and the
/// consuming phases read positions from the snapshot instead of the DSM.
/// Requires a Stache machine ([`MachineConfig::stache`]).
pub fn run_barnes_commute(mcfg: MachineConfig, cfg: &BarnesConfig) -> AppRun {
    assert!(!mcfg.protocol.is_predictive(), "merge_exchange runs on a Stache machine");
    let (pos, report) = barnes_driver(mcfg, cfg, BuildMode::Commute);
    AppRun { report, checksum: crate::water::position_checksum(&pos) }
}

/// One node's private state across a step's phases (the replay state of
/// `barnes_driver`'s phase sequence).
#[derive(Clone)]
struct Step {
    roots: Vec<(usize, GAddr)>,
    merged_pos: HashMap<usize, [f64; 3]>,
    accs: Vec<[f64; 3]>,
    vel: Vec<[f64; 3]>,
}

fn barnes_driver(
    mcfg: MachineConfig,
    cfg: &BarnesConfig,
    mode: BuildMode,
) -> (Vec<[f64; 3]>, prescient_runtime::RunReport) {
    let n = cfg.n;
    let steps = cfg.steps;
    let theta = cfg.theta;
    let dt = cfg.dt;
    let (init_pos, init_mass) = initial_bodies(cfg);

    let mut machine = Machine::new(mcfg);
    let sh = setup(&machine, cfg, &init_pos);
    let nodes = machine.nodes();

    // Initialization (not measured).
    machine.run(|ctx: &mut NodeCtx| {
        for b in sh.px.my_range(ctx.me()) {
            ctx.write(sh.px.addr(b), init_pos[b][0]);
            ctx.write(sh.py.addr(b), init_pos[b][1]);
            ctx.write(sh.pz.addr(b), init_pos[b][2]);
            ctx.write(sh.mass.addr(b), init_mass[b]);
        }
        ctx.barrier();
    });

    // SPMD baseline: install the hand-written update schedules once.
    if mode == BuildMode::SpmdManual {
        let bs = machine.config().block_size;
        for p in 0..nodes {
            let pred = machine.predictive(p as u16).expect("predictive machine");
            let everyone = NodeSet::all(nodes);
            let mut entries = Vec::new();
            for agg in [&sh.px, &sh.py, &sh.pz] {
                let range = agg.my_range(p as u16);
                if range.is_empty() {
                    continue;
                }
                let first = agg.addr(range.start).block(bs);
                let last = agg.addr(range.end - 1).block(bs);
                let mut blk = first;
                loop {
                    // Broadcast copies to every reader before the build
                    // phase (the write-update push)...
                    entries.push((blk, ManualEntry::Readers(everyone.without(p as u16))));
                    if blk == last {
                        break;
                    }
                    blk = blk.next();
                }
            }
            pred.install_manual(PHASE_BUILD, entries.clone());
            // ...and return exclusive ownership before the advance phase.
            let writeback: Vec<_> =
                entries.iter().map(|(b, _)| (*b, ManualEntry::Writer(p as u16))).collect();
            pred.install_manual(PHASE_ADVANCE, writeback);
        }
    }

    let (_, report) = machine.run(|ctx: &mut NodeCtx| {
        let me = ctx.me();
        let my_bodies = sh.px.my_range(me);
        let my_regions: Vec<usize> = (0..REGIONS).filter(|r| r % nodes == me as usize).collect();
        let mut vel = vec![[0.0f64; 3]; my_bodies.len()];
        let mut arena = Arena { base: sh.arena_base[me as usize], cells: sh.arena_cells, next: 0 };

        if mode == BuildMode::SpmdManual {
            let mut accs = vec![[0.0f64; 3]; my_bodies.len()];
            for _step in 0..steps {
                ctx.presend_only(PHASE_BUILD);
                let my_roots = build_phase(ctx, &sh, &my_regions, &mut arena, n);
                ctx.barrier();
                for &(_r, root) in &my_roots {
                    com_pass(ctx, &sh, root, None);
                }
                ctx.barrier();
                force_phase(ctx, &sh, my_bodies.clone(), theta, &mut accs, None);
                ctx.barrier();
                ctx.presend_only(PHASE_ADVANCE);
                advance_phase(ctx, &sh, my_bodies.clone(), &accs, dt, &mut vel);
                ctx.barrier();
            }
            return;
        }
        // Every step's four phases, all steps in one sequence. The
        // cross-phase private state — the root list, the commute mode's
        // merged position snapshot, the accelerations — is fully rebuilt
        // by its producing phase, and the arena cursor resets at build
        // entry, so every body is replay-safe; the state rides along for
        // the velocities, which accumulate.
        let ids = (0..steps).flat_map(|_| [PHASE_BUILD, PHASE_COM, PHASE_FORCE, PHASE_ADVANCE]);
        let mut st = Step {
            roots: Vec::new(),
            merged_pos: HashMap::new(),
            accs: vec![[0.0f64; 3]; my_bodies.len()],
            vel,
        };
        ctx.phases(ids, &mut st, |ctx, phase, st| {
            // Commute mode only: the consuming phases read positions from
            // the step's merged snapshot.
            let snapshot = (mode == BuildMode::Commute).then_some(&st.merged_pos);
            match phase {
                PHASE_BUILD if mode == BuildMode::Commute => {
                    (st.roots, st.merged_pos) = build_phase_commute(
                        ctx,
                        &sh,
                        my_bodies.clone(),
                        &my_regions,
                        &mut arena,
                        nodes,
                        n,
                    );
                }
                PHASE_BUILD => st.roots = build_phase(ctx, &sh, &my_regions, &mut arena, n),
                PHASE_COM => {
                    for &(_r, root) in &st.roots {
                        com_pass(ctx, &sh, root, snapshot);
                    }
                }
                PHASE_FORCE => {
                    force_phase(ctx, &sh, my_bodies.clone(), theta, &mut st.accs, snapshot)
                }
                _ => advance_phase(ctx, &sh, my_bodies.clone(), &st.accs, dt, &mut st.vel),
            }
        });
    });

    // Gather final positions.
    let (out, _) = machine.run(|ctx: &mut NodeCtx| {
        let mut v = Vec::new();
        if ctx.me() == 0 {
            for b in 0..n {
                v.push(sh.read_pos(ctx, b));
            }
        }
        ctx.barrier();
        v
    });
    (out.into_iter().next().expect("node 0"), report)
}

/// The build phase body: reset the arena cursor and insert every body of
/// this node's regions into fresh region trees. Fully rebuilds its outputs
/// (arena layout, root list, shared root words), so a crash replay runs it
/// again verbatim.
fn build_phase(
    ctx: &mut NodeCtx,
    sh: &BarnesShared,
    my_regions: &[usize],
    arena: &mut Arena,
    n: usize,
) -> Vec<(usize, GAddr)> {
    let rsize = 1.0 / GRID as f64;
    arena.next = 0;
    let mut my_roots: Vec<(usize, GAddr)> = Vec::new();
    for &r in my_regions {
        let corner0 = region_corner(r);
        let mut root: Option<GAddr> = None;
        for b in 0..n {
            let p = sh.read_pos(ctx, b);
            ctx.work(4);
            if region_of(&p) != r {
                continue;
            }
            let root_addr = match root {
                Some(a) => a,
                None => {
                    let a = arena.fresh_cell(ctx, sh);
                    root = Some(a);
                    a
                }
            };
            // BH insertion.
            let mut cell = root_addr;
            let mut corner = corner0;
            let mut size = rsize;
            let mut depth = 0;
            loop {
                let (oi, oc) = octant(&p, &corner, size);
                ctx.work(6);
                let slot = sh.cell_child_addr(cell, oi);
                match child_decode(ctx.read::<u64>(slot)) {
                    Child::Empty => {
                        ctx.write(slot, child_encode_body(b));
                        break;
                    }
                    Child::Cell(c) => {
                        cell = c;
                        corner = oc;
                        size /= 2.0;
                        depth += 1;
                    }
                    Child::Body(other) => {
                        if depth >= MAX_DEPTH {
                            break; // folded into the summary only
                        }
                        let nc = arena.fresh_cell(ctx, sh);
                        ctx.write(slot, child_encode_cell(nc));
                        let op = sh.read_pos(ctx, other);
                        let (ooi, _) = octant(&op, &oc, size / 2.0);
                        ctx.write(sh.cell_child_addr(nc, ooi), child_encode_body(other));
                        cell = nc;
                        corner = oc;
                        size /= 2.0;
                        depth += 1;
                    }
                }
            }
        }
        if let Some(a) = root {
            my_roots.push((r, a));
        }
        ctx.write(sh.roots.addr(r), root.map_or(0, |a| a.0));
    }
    my_roots
}

/// One record of the build phase's merge payload: the region a body landed
/// in, the body index, and its position.
const MERGE_REC_BYTES: usize = 4 + 4 + 3 * 8;

/// The build phase under the `commute` directive: instead of every region
/// owner scanning all `n` positions on demand, each node reads its *own*
/// bodies (home reads — no messages), encodes them as `(region, body,
/// position)` records, and broadcasts the records in one bulk payload per
/// peer at the phase barrier. Each owner replays its regions' insertions
/// from the merged set, region-major and body-minor — exactly the
/// serialized build's insertion order — so tree structure, arena
/// addresses, and summary words are bit-identical to [`build_phase`]'s.
/// The full set is returned as the step's position snapshot: the summary
/// and force phases read body positions from it (the same bits the owner
/// wrote), so position blocks are never read-shared at all. Fully
/// rebuilds its outputs, and the merge itself is idempotent (push ids +
/// merge epochs), so a crash replay runs it again verbatim.
#[allow(clippy::type_complexity)]
fn build_phase_commute(
    ctx: &mut NodeCtx,
    sh: &BarnesShared,
    my_bodies: std::ops::Range<usize>,
    my_regions: &[usize],
    arena: &mut Arena,
    nodes: usize,
    n: usize,
) -> (Vec<(usize, GAddr)>, HashMap<usize, [f64; 3]>) {
    // Privatize: this node's contribution records, broadcast to everyone.
    let mut records = Vec::with_capacity(my_bodies.len() * MERGE_REC_BYTES);
    for b in my_bodies {
        let p = sh.read_pos(ctx, b);
        ctx.work(4);
        let r = region_of(&p);
        records.extend_from_slice(&(r as u32).to_le_bytes());
        records.extend_from_slice(&(b as u32).to_le_bytes());
        for pk in &p {
            records.extend_from_slice(&pk.to_le_bytes());
        }
    }
    let outgoing: Vec<(NodeId, Vec<u8>)> = (0..nodes as NodeId)
        .filter(|_| !records.is_empty())
        .map(|peer| (peer, records.clone()))
        .collect();
    let merged = ctx.merge_exchange(PHASE_BUILD, &outgoing);

    // Decode into the step's position snapshot and this node's per-region
    // membership lists.
    let slot_of: HashMap<usize, usize> =
        my_regions.iter().enumerate().map(|(i, &r)| (r, i)).collect();
    let mut pos_of: HashMap<usize, [f64; 3]> = HashMap::new();
    let mut members: Vec<Vec<usize>> = vec![Vec::new(); my_regions.len()];
    // Chunks from one contributor are adjacent and ordered, so
    // concatenating per contributor reassembles its payload even when a
    // record straddles a chunk boundary.
    let mut payloads: Vec<(NodeId, Vec<u8>)> = Vec::new();
    for (src, bytes) in &merged {
        match payloads.last_mut() {
            Some((s, buf)) if s == src => buf.extend_from_slice(bytes),
            _ => payloads.push((*src, bytes.to_vec())),
        }
    }
    for (_src, bytes) in &payloads {
        assert_eq!(bytes.len() % MERGE_REC_BYTES, 0, "corrupt merge payload");
        for rec in bytes.chunks_exact(MERGE_REC_BYTES) {
            let r = u32::from_le_bytes(rec[0..4].try_into().expect("region")) as usize;
            let b = u32::from_le_bytes(rec[4..8].try_into().expect("body")) as usize;
            let mut p = [0.0f64; 3];
            for (k, pk) in p.iter_mut().enumerate() {
                *pk = f64::from_le_bytes(rec[8 + 8 * k..16 + 8 * k].try_into().expect("coord"));
            }
            pos_of.insert(b, p);
            if let Some(&slot) = slot_of.get(&r) {
                members[slot].push(b);
            }
        }
    }
    assert_eq!(pos_of.len(), n, "the merged snapshot must cover every body");

    // Replay in the serialized build's order (contributors arrive sorted
    // by node and bodies are block-distributed, so the lists are already
    // ascending; the sort pins determinism rather than establishing it).
    let rsize = 1.0 / GRID as f64;
    arena.next = 0;
    let mut my_roots: Vec<(usize, GAddr)> = Vec::new();
    for (slot, &r) in my_regions.iter().enumerate() {
        members[slot].sort_unstable();
        let corner0 = region_corner(r);
        let mut root: Option<GAddr> = None;
        for &b in &members[slot] {
            let p = pos_of[&b];
            let root_addr = match root {
                Some(a) => a,
                None => {
                    let a = arena.fresh_cell(ctx, sh);
                    root = Some(a);
                    a
                }
            };
            // The same BH insertion as `build_phase`, with the position
            // lookups served from the merged table instead of the DSM.
            let mut cell = root_addr;
            let mut corner = corner0;
            let mut size = rsize;
            let mut depth = 0;
            loop {
                let (oi, oc) = octant(&p, &corner, size);
                ctx.work(6);
                let slot_addr = sh.cell_child_addr(cell, oi);
                match child_decode(ctx.read::<u64>(slot_addr)) {
                    Child::Empty => {
                        ctx.write(slot_addr, child_encode_body(b));
                        break;
                    }
                    Child::Cell(c) => {
                        cell = c;
                        corner = oc;
                        size /= 2.0;
                        depth += 1;
                    }
                    Child::Body(other) => {
                        if depth >= MAX_DEPTH {
                            break; // folded into the summary only
                        }
                        let nc = arena.fresh_cell(ctx, sh);
                        ctx.write(slot_addr, child_encode_cell(nc));
                        let op = pos_of[&other];
                        let (ooi, _) = octant(&op, &oc, size / 2.0);
                        ctx.write(sh.cell_child_addr(nc, ooi), child_encode_body(other));
                        cell = nc;
                        corner = oc;
                        size /= 2.0;
                        depth += 1;
                    }
                }
            }
        }
        if let Some(a) = root {
            my_roots.push((r, a));
        }
        ctx.write(sh.roots.addr(r), root.map_or(0, |a| a.0));
    }
    (my_roots, pos_of)
}

/// A body position, from the step's merged snapshot (commute mode — no
/// DSM traffic, same bits) or through the DSM.
fn body_pos(
    ctx: &mut NodeCtx,
    sh: &BarnesShared,
    snapshot: Option<&HashMap<usize, [f64; 3]>>,
    b: usize,
) -> [f64; 3] {
    match snapshot {
        Some(t) => t[&b],
        None => sh.read_pos(ctx, b),
    }
}

/// The force phase body: every owned body traverses all region trees;
/// accelerations overwrite `accs` element-wise (replay-safe).
fn force_phase(
    ctx: &mut NodeCtx,
    sh: &BarnesShared,
    my_bodies: std::ops::Range<usize>,
    theta: f64,
    accs: &mut [[f64; 3]],
    snapshot: Option<&HashMap<usize, [f64; 3]>>,
) {
    let rsize = 1.0 / GRID as f64;
    for (bi, b) in my_bodies.enumerate() {
        let p = body_pos(ctx, sh, snapshot, b);
        let mut acc = [0.0f64; 3];
        for r in 0..REGIONS {
            let rw = ctx.read::<u64>(sh.roots.addr(r));
            if rw != 0 {
                walk_force(ctx, sh, GAddr(rw), rsize, b, &p, theta, &mut acc, snapshot);
            }
        }
        accs[bi] = acc;
    }
}

/// The advance phase body: owners integrate and write new positions. The
/// velocity array (the owned bodies', indexed like `accs`) is the phase's
/// replay state — it accumulates across steps, so the recovery wrapper
/// must roll it back alongside shared memory.
fn advance_phase(
    ctx: &mut NodeCtx,
    sh: &BarnesShared,
    my_bodies: std::ops::Range<usize>,
    accs: &[[f64; 3]],
    dt: f64,
    vel: &mut [[f64; 3]],
) {
    for (bi, b) in my_bodies.enumerate() {
        let mut p = sh.read_pos(ctx, b);
        for k in 0..3 {
            vel[bi][k] += accs[bi][k] * dt;
            p[k] = (p[k] + vel[bi][k] * dt).rem_euclid(1.0);
        }
        ctx.work(12);
        ctx.write(sh.px.addr(b), p[0]);
        ctx.write(sh.py.addr(b), p[1]);
        ctx.write(sh.pz.addr(b), p[2]);
    }
}

/// Post-order COM computation over one owned region tree. Leaf positions
/// come from the merge snapshot in commute mode.
fn com_pass(
    ctx: &mut NodeCtx,
    sh: &BarnesShared,
    cell: GAddr,
    snapshot: Option<&HashMap<usize, [f64; 3]>>,
) -> (f64, [f64; 3]) {
    let mut m = 0.0f64;
    let mut c = [0.0f64; 3];
    for w in sh.read_children(ctx, cell) {
        let (cm, cc) = match child_decode(w) {
            Child::Empty => continue,
            Child::Body(b) => {
                let bm = ctx.read::<f64>(sh.mass.addr(b));
                (bm, body_pos(ctx, sh, snapshot, b))
            }
            Child::Cell(x) => com_pass(ctx, sh, x, snapshot),
        };
        m += cm;
        for k in 0..3 {
            c[k] += cm * cc[k];
        }
        ctx.work(4);
    }
    if m > 0.0 {
        for ck in c.iter_mut() {
            *ck /= m;
        }
    }
    ctx.write_run(sh.cell_summary_addr(cell), &[m, c[0], c[1], c[2]]);
    (m, c)
}

/// Force traversal of one region tree through the DSM.
#[allow(clippy::too_many_arguments)]
fn walk_force(
    ctx: &mut NodeCtx,
    sh: &BarnesShared,
    cell: GAddr,
    size: f64,
    b: usize,
    p: &[f64; 3],
    theta: f64,
    acc: &mut [f64; 3],
    snapshot: Option<&HashMap<usize, [f64; 3]>>,
) {
    let mut summary = [0.0f64; 4];
    ctx.read_run(sh.cell_summary_addr(cell), &mut summary);
    let [mass, com @ ..] = summary;
    let dx = com[0] - p[0];
    let dy = com[1] - p[1];
    let dz = com[2] - p[2];
    let d2 = dx * dx + dy * dy + dz * dz;
    ctx.work(8);
    if mass > 0.0 && size * size < theta * theta * d2 {
        accumulate(acc, p, &com, mass);
        ctx.work(10);
        return;
    }
    for w in sh.read_children(ctx, cell) {
        match child_decode(w) {
            Child::Empty => {}
            Child::Body(j) => {
                if j != b {
                    let q = body_pos(ctx, sh, snapshot, j);
                    let mj = ctx.read::<f64>(sh.mass.addr(j));
                    accumulate(acc, p, &q, mj);
                    ctx.work(10);
                }
            }
            Child::Cell(x) => walk_force(ctx, sh, x, size / 2.0, b, p, theta, acc, snapshot),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_partition_the_cube() {
        assert_eq!(region_of(&[0.0, 0.0, 0.0]), 0);
        assert_eq!(region_of(&[0.99, 0.99, 0.99]), REGIONS - 1);
        assert_eq!(region_of(&[0.3, 0.0, 0.0]), 1);
        // Boundary clamping.
        assert_eq!(region_of(&[1.0, 1.0, 1.0]), REGIONS - 1);
    }

    #[test]
    fn octant_selection() {
        let corner = [0.0, 0.0, 0.0];
        let (i, c) = octant(&[0.1, 0.1, 0.1], &corner, 1.0);
        assert_eq!(i, 0);
        assert_eq!(c, corner);
        let (i, c) = octant(&[0.9, 0.1, 0.9], &corner, 1.0);
        assert_eq!(i, 0b101);
        assert_eq!(c, [0.5, 0.0, 0.5]);
    }

    #[test]
    fn child_encoding_roundtrip() {
        assert_eq!(child_decode(0), Child::Empty);
        assert_eq!(child_decode(child_encode_body(42)), Child::Body(42));
        let a = GAddr(0x1000);
        assert_eq!(child_decode(child_encode_cell(a)), Child::Cell(a));
    }

    #[test]
    fn seq_tree_masses_sum() {
        let cfg = BarnesConfig { n: 256, steps: 1, ..Default::default() };
        let (pos, mass) = initial_bodies(&cfg);
        let t = seq_build(&pos, &mass);
        let total: f64 =
            (0..REGIONS).filter_map(|r| t.roots[r]).map(|root| t.cells[root].mass).sum();
        let expect: f64 = mass.iter().sum();
        assert!((total - expect).abs() < 1e-12, "{total} vs {expect}");
    }

    #[test]
    fn cell_count_matches_seq_build() {
        // The arena-sizing walk must allocate exactly as many cells as the
        // real insertion does, region by region — including at the paper's
        // clustered n=16384, where the uniform 4n/P estimate falls short.
        for n in [128usize, 1024, 16384] {
            let cfg = BarnesConfig { n, steps: 1, ..Default::default() };
            let (pos, mass) = initial_bodies(&cfg);
            let t = seq_build(&pos, &mass);
            let counted: u64 = (0..REGIONS).map(|r| count_region_cells(&pos, r)).sum();
            assert_eq!(counted, t.cells.len() as u64, "n={n}");
        }
    }

    #[test]
    fn paper_scale_arena_fits_clustered_regions() {
        // Regression for the paper-scale build panic: the densest node's
        // region trees need more cells than the uniform estimate, and the
        // occupancy-based capacity must cover them with slack.
        let cfg = BarnesConfig::default(); // n = 16384
        let (pos, _) = initial_bodies(&cfg);
        let nodes = 32;
        let uniform = (4 * cfg.n / nodes + 64) as u64;
        let mut per_node = vec![0u64; nodes];
        for r in 0..REGIONS {
            per_node[r % nodes] += count_region_cells(&pos, r);
        }
        let needed = *per_node.iter().max().unwrap();
        assert!(needed > uniform, "clustered demand {needed} should exceed uniform {uniform}");
        assert!(needed + needed / 4 + 16 > needed, "slack must be positive");
    }

    #[test]
    fn seq_forces_approximate_direct_sum() {
        // With θ → 0 the BH force must equal the direct O(n²) sum.
        let cfg = BarnesConfig { n: 64, steps: 1, theta: 1e-9, ..Default::default() };
        let (pos, mass) = initial_bodies(&cfg);
        let t = seq_build(&pos, &mass);
        for b in [0usize, 13, 63] {
            let bh = seq_force(&t, b, &pos, &mass, cfg.theta);
            let mut direct = [0.0f64; 3];
            for j in 0..cfg.n {
                if j != b {
                    accumulate(&mut direct, &pos[b], &pos[j], mass[j]);
                }
            }
            for k in 0..3 {
                assert!(
                    (bh[k] - direct[k]).abs() < 1e-9,
                    "body {b} axis {k}: {} vs {}",
                    bh[k],
                    direct[k]
                );
            }
        }
    }

    #[test]
    fn seq_barnes_runs_and_stays_in_box() {
        let cfg = BarnesConfig { n: 128, steps: 2, ..Default::default() };
        let pos = seq_barnes(&cfg);
        for p in &pos {
            for k in 0..3 {
                assert!(p[k].is_finite() && (0.0..1.0).contains(&p[k]));
            }
        }
    }
}
