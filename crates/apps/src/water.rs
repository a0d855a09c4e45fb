//! **Water** — molecular dynamics with a half-shell spherical cutoff
//! (§5.3; SPLASH's water code, simplified to a Lennard-Jones system).
//!
//! `n` molecules in a periodic box. Each time step has two parallel
//! phases:
//!
//! 1. **interactions** — each molecule computes pair forces with the n/2
//!    molecules following it (pairs within the cutoff radius, half the box
//!    length). This reads the *positions* of remote molecules — a static,
//!    repetitive producer–consumer pattern: "a molecule's position updated
//!    in one iteration is read by n/2 other molecules in the following
//!    iteration". Forces accumulate in private arrays and are combined
//!    with the language-level reduction (reductions are not a predictive
//!    protocol target, §1).
//! 2. **advance** — owners integrate velocities and write the new
//!    positions (owner writes that invalidate all cached copies; the
//!    predictive protocol records and pre-invalidates/pushes them).
//!
//! [`run_splash_water`] is the Figure-7 baseline: the same physics
//! restructured the way the Splash-2 code uses transparent shared memory —
//! per-processor partial-force arrays living in shared memory and summed
//! by owners through ordinary loads, with no protocol directives.

use prescient_runtime::{Agg1D, Agg2D, Dist1D, Dist2D, Machine, MachineConfig, NodeCtx};
use prescient_tempest::{GAddr, Xoshiro256pp};

use crate::AppRun;

/// Water configuration.
#[derive(Debug, Clone, Copy)]
pub struct WaterConfig {
    /// Number of molecules (the paper uses 512).
    pub n: usize,
    /// Time steps (the paper uses 20).
    pub steps: usize,
    /// Integration step.
    pub dt: f64,
    /// RNG seed for initial conditions.
    pub seed: u64,
}

impl Default for WaterConfig {
    fn default() -> Self {
        WaterConfig { n: 512, steps: 20, dt: 1e-3, seed: 0x5eed_0001 }
    }
}

impl WaterConfig {
    /// Box side for the configured density (reduced units, ρ = 0.8).
    pub fn box_len(&self) -> f64 {
        (self.n as f64 / 0.8).cbrt()
    }

    /// Cutoff radius: half the box length (§5.3).
    pub fn cutoff(&self) -> f64 {
        self.box_len() / 2.0
    }
}

/// Deterministic initial state: a jittered cubic lattice with zero
/// velocities.
pub fn initial_positions(cfg: &WaterConfig) -> Vec<[f64; 3]> {
    let l = cfg.box_len();
    let per_side = (cfg.n as f64).cbrt().ceil() as usize;
    let spacing = l / per_side as f64;
    let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed);
    let mut pos = Vec::with_capacity(cfg.n);
    'outer: for ix in 0..per_side {
        for iy in 0..per_side {
            for iz in 0..per_side {
                if pos.len() == cfg.n {
                    break 'outer;
                }
                let jitter = 0.05 * spacing;
                pos.push([
                    (ix as f64 + 0.5) * spacing + rng.range_f64(-jitter..jitter),
                    (iy as f64 + 0.5) * spacing + rng.range_f64(-jitter..jitter),
                    (iz as f64 + 0.5) * spacing + rng.range_f64(-jitter..jitter),
                ]);
            }
        }
    }
    pos
}

/// Minimum-image displacement component.
#[inline]
fn min_image(mut d: f64, l: f64) -> f64 {
    if d > l / 2.0 {
        d -= l;
    } else if d < -l / 2.0 {
        d += l;
    }
    d
}

/// Lennard-Jones force magnitude over distance (f/r), truncated.
#[inline]
fn lj_force_over_r(r2: f64) -> f64 {
    let inv_r2 = 1.0 / r2;
    let s6 = inv_r2 * inv_r2 * inv_r2;
    24.0 * inv_r2 * s6 * (2.0 * s6 - 1.0)
}

/// Should the (i, j = i+d mod n) pair be computed by molecule `i`?
/// Half-shell rule: d in 1..=n/2, with the d == n/2 pairs (when n is even)
/// computed only from the lower index to avoid double counting.
#[inline]
fn owns_pair(i: usize, d: usize, n: usize) -> bool {
    d >= 1 && (2 * d < n || (2 * d == n && i < (i + d) % n))
}

/// Clamp a force component to keep the simplified integrator stable when
/// the jittered lattice makes close pairs.
#[inline]
fn clamp_force(f: f64) -> f64 {
    f.clamp(-1e3, 1e3)
}

/// The sequential reference. Returns final positions.
pub fn seq_water(cfg: &WaterConfig) -> Vec<[f64; 3]> {
    let n = cfg.n;
    let l = cfg.box_len();
    let rc2 = cfg.cutoff() * cfg.cutoff();
    let mut pos = initial_positions(cfg);
    let mut vel = vec![[0.0f64; 3]; n];
    for _ in 0..cfg.steps {
        let mut force = vec![[0.0f64; 3]; n];
        for i in 0..n {
            for d in 1..=n / 2 {
                if !owns_pair(i, d, n) {
                    continue;
                }
                let j = (i + d) % n;
                let dx = min_image(pos[i][0] - pos[j][0], l);
                let dy = min_image(pos[i][1] - pos[j][1], l);
                let dz = min_image(pos[i][2] - pos[j][2], l);
                let r2 = dx * dx + dy * dy + dz * dz;
                if r2 < rc2 && r2 > 1e-12 {
                    let f = lj_force_over_r(r2);
                    let (fx, fy, fz) =
                        (clamp_force(f * dx), clamp_force(f * dy), clamp_force(f * dz));
                    force[i][0] += fx;
                    force[i][1] += fy;
                    force[i][2] += fz;
                    force[j][0] -= fx;
                    force[j][1] -= fy;
                    force[j][2] -= fz;
                }
            }
        }
        for i in 0..n {
            for k in 0..3 {
                vel[i][k] += force[i][k] * cfg.dt;
                pos[i][k] = (pos[i][k] + vel[i][k] * cfg.dt).rem_euclid(l);
            }
        }
    }
    pos
}

/// Checksum over positions (order-independent enough for comparisons, but
/// computed identically everywhere).
pub fn position_checksum(pos: &[[f64; 3]]) -> f64 {
    pos.iter()
        .enumerate()
        .map(|(i, p)| (1.0 + (i % 7) as f64) * (p[0] + 2.0 * p[1] + 3.0 * p[2]))
        .sum()
}

/// Phase ids (as the C\*\* compiler would assign for the two-phase main
/// loop).
const PHASE_INTERACT: u32 = 1;
const PHASE_ADVANCE: u32 = 2;

/// Run the data-parallel Water under the given machine configuration.
/// Works unoptimized (Stache) and optimized (predictive) — the directives
/// are no-ops in the former.
pub fn run_water(mcfg: MachineConfig, cfg: &WaterConfig) -> AppRun {
    let (pos, report) = water_driver(mcfg, cfg);
    AppRun { report, checksum: position_checksum(&pos) }
}

/// Final positions from a DSM run (validation helper).
pub fn water_final_positions(mcfg: MachineConfig, cfg: &WaterConfig) -> Vec<[f64; 3]> {
    water_driver(mcfg, cfg).0
}

/// The molecules' positions: one block-distributed aggregate per
/// coordinate, all three cut into partitions the same way.
struct Coords([Agg1D<f64>; 3]);

/// Scratch for one segment's coordinates, one vector per axis.
type Scratch = [Vec<f64>; 3];

/// Scratch that holds any segment: a segment lies inside one cache block.
fn scratch(ctx: &NodeCtx) -> Scratch {
    [(); 3].map(|()| vec![0.0; ctx.block_size() / 8])
}

impl Coords {
    fn new(machine: &Machine, n: usize) -> Coords {
        Coords([(); 3].map(|()| Agg1D::new(machine, n, Dist1D::Block)))
    }

    fn my_range(&self, ctx: &NodeCtx) -> std::ops::Range<usize> {
        self.0[0].my_range(ctx.me())
    }

    /// Molecules `range` cut into segments `(first molecule, address of
    /// its x, y and z, molecules)` within which each coordinate is
    /// contiguous and inside one cache block. Taking a structured sweep
    /// segment by segment — all x, then all y, then all z — first-touches
    /// the blocks in the order the molecule-by-molecule loop does.
    fn segments(
        &self,
        ctx: &NodeCtx,
        range: std::ops::Range<usize>,
    ) -> impl Iterator<Item = (usize, [GAddr; 3], usize)> + '_ {
        let bs = ctx.block_size();
        let [x, y, z] = &self.0;
        let mut first = range.start;
        x.runs(range.clone()).zip(y.runs(range.clone())).zip(z.runs(range)).flat_map(
            move |(((ax, n), (ay, _)), (az, _))| {
                let start = first;
                first += n;
                let mut w = 0;
                std::iter::from_fn(move || {
                    let at = [ax, ay, az].map(|a| a.add(8 * w as u64));
                    let room = at.map(|a| (bs - a.offset_in_block(bs)) / 8);
                    let k = room.into_iter().min().expect("three axes").min(n - w);
                    w += k;
                    (k > 0).then_some((start + w - k, at, k))
                })
            },
        )
    }

    /// Read one segment's coordinates into `buf[axis][..k]`.
    fn read(ctx: &mut NodeCtx, at: [GAddr; 3], k: usize, buf: &mut Scratch) {
        for (a, b) in at.into_iter().zip(buf) {
            ctx.read_run(a, &mut b[..k]);
        }
    }

    /// One molecule's position, word by word.
    fn read_one(&self, ctx: &mut NodeCtx, i: usize) -> [f64; 3] {
        [0, 1, 2].map(|c| ctx.read::<f64>(self.0[c].addr(i)))
    }

    /// Owners write the initial positions (its own unmeasured run).
    fn init(&self, machine: &mut Machine, init: &[[f64; 3]]) {
        machine.run(|ctx: &mut NodeCtx| {
            for (i0, at, k) in self.segments(ctx, self.my_range(ctx)) {
                for (c, a) in at.into_iter().enumerate() {
                    let vals: Vec<f64> = init[i0..i0 + k].iter().map(|p| p[c]).collect();
                    ctx.write_run(a, &vals);
                }
            }
            ctx.barrier();
        });
    }

    /// Node 0 reads every position (validation; its own unmeasured run).
    fn gather(&self, machine: &mut Machine, n: usize) -> Vec<[f64; 3]> {
        let (out, _) = machine.run(|ctx: &mut NodeCtx| {
            let mut out = Vec::new();
            if ctx.me() == 0 {
                let mut buf = scratch(ctx);
                for (_, at, k) in self.segments(ctx, 0..n) {
                    Coords::read(ctx, at, k, &mut buf);
                    out.extend((0..k).map(|t| [buf[0][t], buf[1][t], buf[2][t]]));
                }
            }
            ctx.barrier();
            out
        });
        out.into_iter().next().expect("node 0")
    }
}

/// The interaction phase body: every molecule of `mine` against the
/// partners the half-shell rule gives it, pair forces accumulated into
/// the private `force`. The partner sweep is the access summary's
/// structured non-home read — molecules `i+1 ..= i+(n-1)/2`, wrapping —
/// and takes the run form; the `d = n/2` partner, computed from the lower
/// index only, stays a per-word access so exactly the positions the rule
/// selects are read.
fn interactions(
    ctx: &mut NodeCtx,
    pos: &Coords,
    mine: std::ops::Range<usize>,
    (n, l, rc2): (usize, f64, f64),
    force: &mut [f64],
) {
    let mut buf = scratch(ctx);
    for i in mine {
        let pi = pos.read_one(ctx, i);
        let mut pair = |ctx: &mut NodeCtx, j: usize, pj: [f64; 3]| {
            let dx = min_image(pi[0] - pj[0], l);
            let dy = min_image(pi[1] - pj[1], l);
            let dz = min_image(pi[2] - pj[2], l);
            let r2 = dx * dx + dy * dy + dz * dz;
            // Distance check + pair bookkeeping; the in-cutoff charge
            // models the paper's multi-site water potential (hundreds of
            // flops per molecule pair), which our simplified LJ kernel
            // stands in for.
            ctx.work(30);
            if r2 < rc2 && r2 > 1e-12 {
                let f = lj_force_over_r(r2);
                let (fx, fy, fz) = (clamp_force(f * dx), clamp_force(f * dy), clamp_force(f * dz));
                ctx.work(300);
                force[3 * i] += fx;
                force[3 * i + 1] += fy;
                force[3 * i + 2] += fz;
                force[3 * j] -= fx;
                force[3 * j + 1] -= fy;
                force[3 * j + 2] -= fz;
            }
        };
        let end = i + 1 + (n - 1) / 2;
        for partners in [i + 1..end.min(n), 0..end.saturating_sub(n)] {
            for (j0, at, k) in pos.segments(ctx, partners) {
                Coords::read(ctx, at, k, &mut buf);
                for t in 0..k {
                    pair(ctx, j0 + t, [buf[0][t], buf[1][t], buf[2][t]]);
                }
            }
        }
        if n % 2 == 0 && owns_pair(i, n / 2, n) {
            let j = (i + n / 2) % n;
            let pj = pos.read_one(ctx, j);
            pair(ctx, j, pj);
        }
    }
}

/// The shared driver: set up, run the measured main loop, gather
/// positions.
fn water_driver(
    mcfg: MachineConfig,
    cfg: &WaterConfig,
) -> (Vec<[f64; 3]>, prescient_runtime::RunReport) {
    let n = cfg.n;
    let l = cfg.box_len();
    let rc2 = cfg.cutoff() * cfg.cutoff();
    let dt = cfg.dt;
    let steps = cfg.steps;

    let mut machine = Machine::new(mcfg);
    let pos = Coords::new(&machine, n);
    pos.init(&mut machine, &initial_positions(cfg));

    let (_, report) = machine.run(|ctx: &mut NodeCtx| {
        let mine = pos.my_range(ctx);
        // Private (non-shared) per-node state: the owned molecules'
        // velocities, from `mine.start`. They survive across phases, so
        // the advance phase passes them as its replay state — a crash
        // rolls them back together with shared memory.
        let mut vel = vec![[0.0f64; 3]; mine.len()];
        let mut buf = scratch(ctx);
        for _step in 0..steps {
            // ---- Phase 1: interactions ------------------------------
            // The force accumulator is the phase's replay state: it is
            // zeroed here, so a replayed body re-accumulates from clean.
            let mut force = vec![0.0f64; 3 * n];
            ctx.phase(PHASE_INTERACT, &mut force, |ctx, force| {
                interactions(ctx, &pos, mine.clone(), (n, l, rc2), force);
            });

            // ---- Reduction (language feature) -----------------------
            ctx.allreduce_sum(&mut force);

            // ---- Phase 2: advance -----------------------------------
            // The owners' sweep over their own molecules: structured home
            // reads and writes, a segment at a time.
            ctx.phase(PHASE_ADVANCE, &mut vel, |ctx, vel| {
                for (i0, at, k) in pos.segments(ctx, mine.clone()) {
                    Coords::read(ctx, at, k, &mut buf);
                    for (t, i) in (i0..i0 + k).enumerate() {
                        for c in 0..3 {
                            vel[i - mine.start][c] += force[3 * i + c] * dt;
                            buf[c][t] = (buf[c][t] + vel[i - mine.start][c] * dt).rem_euclid(l);
                        }
                        ctx.work(12);
                    }
                    for (a, b) in at.into_iter().zip(&buf) {
                        ctx.write_run(a, &b[..k]);
                    }
                }
            });
        }
    });

    (pos.gather(&mut machine, n), report)
}

/// The Splash-style baseline (Figure 7's third bar): transparent shared
/// memory only. Per-processor partial-force arrays live in shared memory
/// (one row per node); owners sum all rows through ordinary loads. No
/// directives, no pre-sends — run it on a Stache machine.
pub fn run_splash_water(mcfg: MachineConfig, cfg: &WaterConfig) -> AppRun {
    assert!(
        !mcfg.protocol.is_predictive(),
        "the Splash baseline uses transparent shared memory only"
    );
    let n = cfg.n;
    let l = cfg.box_len();
    let rc2 = cfg.cutoff() * cfg.cutoff();
    let dt = cfg.dt;
    let steps = cfg.steps;
    let nodes = mcfg.nodes;

    let mut machine = Machine::new(mcfg);
    let pos = Coords::new(&machine, n);
    // Per-node partial forces in shared memory: row p is node p's
    // contribution, 3n floats (SPLASH-2's per-process arrays).
    let partial = Agg2D::<f64>::new(&machine, nodes, 3 * n, Dist2D::RowBlock);
    pos.init(&mut machine, &initial_positions(cfg));

    let (_, report) = machine.run(|ctx: &mut NodeCtx| {
        let mine = pos.my_range(ctx);
        let me = ctx.me() as usize;
        let mut vel = vec![[0.0f64; 3]; mine.len()];
        for _ in 0..steps {
            // Interactions: accumulate locally, then publish the whole
            // partial row to shared memory (home writes, one run).
            let mut force = vec![0.0f64; 3 * n];
            interactions(ctx, &pos, mine.clone(), (n, l, rc2), &mut force);
            for (a, _) in partial.row_runs(me, 0..3 * n) {
                ctx.write_run(a, &force);
            }
            ctx.barrier();

            // Owners sum contributing nodes' partial rows through shared
            // memory — the transparent-shared-memory reduction. In the
            // half-shell decomposition only this node and the (cyclically)
            // preceding P/2 nodes can touch our molecules, so only those
            // rows are read (as the SPLASH code's per-molecule lock
            // accumulation effectively does).
            let contributors: Vec<usize> =
                (0..=nodes / 2).map(|k| (me + nodes - k) % nodes).collect();
            for i in mine.clone() {
                let mut f = [0.0f64; 3];
                for &p in &contributors {
                    let mut fp = [0.0f64; 3];
                    for (a, _) in partial.row_runs(p, 3 * i..3 * i + 3) {
                        ctx.read_run(a, &mut fp);
                    }
                    for k in 0..3 {
                        f[k] += fp[k];
                    }
                    ctx.work(3);
                }
                let mut pv = pos.read_one(ctx, i);
                for k in 0..3 {
                    vel[i - mine.start][k] += f[k] * dt;
                    pv[k] = (pv[k] + vel[i - mine.start][k] * dt).rem_euclid(l);
                }
                ctx.work(12);
                for k in 0..3 {
                    ctx.write(pos.0[k].addr(i), pv[k]);
                }
            }
            ctx.barrier();
        }
    });

    AppRun { report, checksum: position_checksum(&pos.gather(&mut machine, n)) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_ownership_covers_each_pair_once() {
        for n in [6usize, 7, 8, 16] {
            let mut count = vec![vec![0u32; n]; n];
            for i in 0..n {
                for d in 1..=n / 2 {
                    if owns_pair(i, d, n) {
                        let j = (i + d) % n;
                        count[i.min(j)][i.max(j)] += 1;
                    }
                }
            }
            for i in 0..n {
                for j in i + 1..n {
                    assert_eq!(count[i][j], 1, "pair ({i},{j}) of n={n}");
                }
            }
        }
    }

    #[test]
    fn min_image_wraps() {
        let l = 10.0;
        assert_eq!(min_image(6.0, l), -4.0);
        assert_eq!(min_image(-6.0, l), 4.0);
        assert_eq!(min_image(3.0, l), 3.0);
    }

    #[test]
    fn initial_positions_in_box() {
        let cfg = WaterConfig { n: 64, steps: 1, ..Default::default() };
        let pos = initial_positions(&cfg);
        assert_eq!(pos.len(), 64);
        let l = cfg.box_len();
        for p in &pos {
            for k in 0..3 {
                assert!(p[k] >= -0.5 && p[k] <= l + 0.5);
            }
        }
        // Deterministic.
        assert_eq!(pos, initial_positions(&cfg));
    }

    #[test]
    fn seq_water_is_stable() {
        let cfg = WaterConfig { n: 64, steps: 5, ..Default::default() };
        let pos = seq_water(&cfg);
        let l = cfg.box_len();
        for p in &pos {
            for k in 0..3 {
                assert!(p[k].is_finite() && p[k] >= 0.0 && p[k] < l);
            }
        }
    }

    #[test]
    fn lj_force_signs() {
        // Repulsive when close (r < 2^(1/6)), attractive when farther.
        assert!(lj_force_over_r(1.0) > 0.0);
        assert!(lj_force_over_r(2.0) < 0.0);
    }
}
