//! Mg — 3-D Poisson solver using multigrid (Table 2: 32 x 32 x 64
//! grid, 10 iterations, ~2.4 MB).
//!
//! V-cycles over a hierarchy of grids, each level holding solution,
//! right-hand-side, residual and scratch arrays. Grids are partitioned
//! by z-planes; every smoothing/residual sweep reads the two
//! neighbouring planes (nearest-neighbour sharing), while restriction
//! and prolongation couple adjacent levels. A barrier separates every
//! phase. Mg's working set almost fits in memory + NWCache, giving it
//! the second-highest victim hit rate of the suite (Table 7).

use crate::layout::{block_partition, Allocator, Vec1};
use crate::{Action, ActionStream, AppBuild};

const FULL_NX: u64 = 32;
const FULL_NY: u64 = 32;
const FULL_NZ: u64 = 64;
const ITERS: u32 = 10;
const COMPUTE_PER_LINE: u32 = 56;

/// One grid level's arrays and geometry.
#[derive(Debug, Clone, Copy)]
struct Level {
    u: Vec1,
    rhs: Vec1,
    res: Vec1,
    tmp: Vec1,
    nx: u64,
    ny: u64,
    nz: u64,
}

impl Level {
    fn alloc(a: &mut Allocator, nx: u64, ny: u64, nz: u64) -> Self {
        let cells = nx * ny * nz;
        Level {
            u: Vec1::alloc(a, cells, 8),
            rhs: Vec1::alloc(a, cells, 8),
            res: Vec1::alloc(a, cells, 8),
            tmp: Vec1::alloc(a, cells, 8),
            nx,
            ny,
            nz,
        }
    }

    /// Element index range of plane `z`.
    fn plane(&self, z: u64) -> (u64, u64) {
        let n = self.nx * self.ny;
        (z * n, (z + 1) * n)
    }
}

/// The per-iteration phase schedule (identical on every processor).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Jacobi smoothing half-sweep at `level`: reads `u`, writes the
    /// scratch grid (`to_tmp = true`) or reads scratch, writes `u`.
    Smooth(usize, bool),
    /// Residual computation at `level`.
    Residual(usize),
    /// Restrict residual of `level` to rhs of `level + 1`.
    Restrict(usize),
    /// Prolong u of `level + 1` onto u of `level`.
    Prolong(usize),
}

fn vcycle_plan(levels: usize) -> Vec<Phase> {
    let mut plan = Vec::new();
    for l in 0..levels - 1 {
        plan.push(Phase::Smooth(l, true));
        plan.push(Phase::Smooth(l, false));
        plan.push(Phase::Residual(l));
        plan.push(Phase::Restrict(l));
    }
    plan.push(Phase::Smooth(levels - 1, true));
    plan.push(Phase::Smooth(levels - 1, false));
    for l in (0..levels - 1).rev() {
        plan.push(Phase::Prolong(l));
        plan.push(Phase::Smooth(l, true));
        plan.push(Phase::Smooth(l, false));
    }
    plan
}

/// The planes processor `p` sweeps in `phase`: z-planes of the level
/// the phase writes.
fn planes(levels: &[Level], phase: Phase, p: usize, nprocs: usize) -> (u64, u64) {
    let nz = match phase {
        Phase::Smooth(l, _) | Phase::Residual(l) | Phase::Prolong(l) => levels[l].nz,
        Phase::Restrict(l) => levels[l + 1].nz,
    };
    block_partition(nz, nprocs, p)
}

/// One plane of a stencil sweep at level `lv`: read `src`'s plane `z`,
/// the planes on either side and the rhs, write `dst`.
fn stencil(lv: Level, src: Vec1, dst: Vec1, z: u64, out: &mut Vec<Action>) {
    let (e0, e1) = lv.plane(z);
    let (m0, _) = lv.plane(z.saturating_sub(1));
    let (p0, _) = lv.plane((z + 1).min(lv.nz - 1));
    for (i, line) in src.lines(e0, e1).enumerate() {
        let off = (i as u64) * src.elems_per_line();
        out.extend([
            Action::Read(src.line_of(m0 + off)),
            Action::Read(line),
            Action::Read(src.line_of(p0 + off)),
            Action::Read(lv.rhs.line_of(e0 + off)),
            Action::Compute(COMPUTE_PER_LINE),
            Action::Write(dst.line_of(e0 + off)),
        ]);
    }
}

/// Append the actions of `phase` on plane `z` to `out`.
fn plane_actions(levels: &[Level], phase: Phase, z: u64, out: &mut Vec<Action>) {
    match phase {
        Phase::Smooth(l, to_tmp) => {
            // Jacobi half-sweep: one grid in, the other grid out.
            let lv = levels[l];
            let (src, dst) = if to_tmp { (lv.u, lv.tmp) } else { (lv.tmp, lv.u) };
            stencil(lv, src, dst, z, out);
        }
        Phase::Residual(l) => {
            let lv = levels[l];
            stencil(lv, lv.u, lv.res, z, out);
        }
        Phase::Restrict(l) => {
            let fine = levels[l];
            let coarse = levels[l + 1];
            let (c0, c1) = coarse.plane(z);
            let (f0, _) = fine.plane((z * 2).min(fine.nz - 1));
            let epl = fine.res.elems_per_line();
            for (i, cline) in coarse.rhs.lines(c0, c1).enumerate() {
                // Each coarse line aggregates ~4 fine lines.
                let foff = f0 + (i as u64) * 4 * epl;
                for k in 0..4 {
                    let idx = (foff + k * epl).min(fine.res.len - 1);
                    out.push(Action::Read(fine.res.line_of(idx)));
                }
                out.extend([Action::Compute(32), Action::Write(cline)]);
            }
        }
        Phase::Prolong(l) => {
            let fine = levels[l];
            let coarse = levels[l + 1];
            let (e0, e1) = fine.plane(z);
            let (c0, _) = coarse.plane((z / 2).min(coarse.nz - 1));
            for (i, fline) in fine.u.lines(e0, e1).enumerate() {
                let cidx = (c0 + (i as u64 / 4) * coarse.u.elems_per_line()).min(coarse.u.len - 1);
                out.extend([
                    Action::Read(coarse.u.line_of(cidx)),
                    Action::Read(fline),
                    Action::Compute(24),
                    Action::Write(fline),
                ]);
            }
        }
    }
}

/// Build the multigrid kernel streams. A unit is one z-plane of a
/// phase, or the phase's barrier.
pub fn build(nprocs: usize, scale: f64, _seed: u64) -> AppBuild {
    // Scale each dimension by the cube root of `scale`.
    let f = scale.cbrt();
    let dim = |full: u64| (((full as f64 * f) as u64) / 4).max(1) * 4;
    let (nx, ny, nz) = (dim(FULL_NX), dim(FULL_NY), dim(FULL_NZ));

    let mut alloc = Allocator::new();
    let mut levels = Vec::new();
    let (mut cx, mut cy, mut cz) = (nx, ny, nz);
    loop {
        levels.push(Level::alloc(&mut alloc, cx, cy, cz));
        if cx / 2 < 4 || cy / 2 < 4 || cz / 2 < 4 {
            break;
        }
        cx /= 2;
        cy /= 2;
        cz /= 2;
    }
    let data_bytes = alloc.allocated();
    let plan = vcycle_plan(levels.len());
    let plan_len = plan.len() as u32;

    let streams = (0..nprocs)
        .map(|p| {
            let levels = levels.clone();
            let plan = plan.clone();
            // Iteration `it`, plan step `pi`, planes of it done `done`.
            let (mut it, mut pi, mut done) = (0u32, 0usize, 0u64);
            ActionStream::generate(move |out| {
                if it == ITERS {
                    return false;
                }
                let (z0, z1) = planes(&levels, plan[pi], p, nprocs);
                if z0 + done < z1 {
                    plane_actions(&levels, plan[pi], z0 + done, out);
                    done += 1;
                    return true;
                }
                out.push(Action::Barrier(it * plan_len + pi as u32));
                done = 0;
                pi += 1;
                if pi == plan.len() {
                    pi = 0;
                    it += 1;
                }
                true
            })
        })
        .collect();

    AppBuild {
        name: "mg",
        data_bytes,
        streams,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every action processor `p` emits in `phase`, barrier excluded.
    fn phase_actions(levels: &[Level], phase: Phase, p: usize, nprocs: usize) -> Vec<Action> {
        let mut out = Vec::new();
        let (z0, z1) = planes(levels, phase, p, nprocs);
        for z in z0..z1 {
            plane_actions(levels, phase, z, &mut out);
        }
        out
    }

    #[test]
    fn footprint_matches_paper() {
        let b = build(8, 1.0, 0);
        let mb = b.data_bytes as f64 / (1024.0 * 1024.0);
        assert!((mb - 2.2).abs() < 0.45, "{mb}");
    }

    #[test]
    fn plan_is_a_v_cycle() {
        let plan = vcycle_plan(3);
        assert_eq!(
            plan,
            vec![
                Phase::Smooth(0, true),
                Phase::Smooth(0, false),
                Phase::Residual(0),
                Phase::Restrict(0),
                Phase::Smooth(1, true),
                Phase::Smooth(1, false),
                Phase::Residual(1),
                Phase::Restrict(1),
                Phase::Smooth(2, true),
                Phase::Smooth(2, false),
                Phase::Prolong(1),
                Phase::Smooth(1, true),
                Phase::Smooth(1, false),
                Phase::Prolong(0),
                Phase::Smooth(0, true),
                Phase::Smooth(0, false),
            ]
        );
    }

    #[test]
    fn coarse_levels_touch_fewer_lines() {
        let mut a = Allocator::new();
        let l0 = Level::alloc(&mut a, 16, 16, 32);
        let l1 = Level::alloc(&mut a, 8, 8, 16);
        let levels = vec![l0, l1];
        let fine = phase_actions(&levels, Phase::Smooth(0, true), 0, 1);
        let coarse = phase_actions(&levels, Phase::Smooth(1, true), 0, 1);
        assert!(fine.len() > 4 * coarse.len());
    }

    #[test]
    fn smooth_writes_u_residual_writes_res() {
        let mut a = Allocator::new();
        let l0 = Level::alloc(&mut a, 8, 8, 8);
        let levels = vec![l0];
        // Smooth(_, false) writes u (the first region).
        for act in phase_actions(&levels, Phase::Smooth(0, false), 0, 1) {
            if let Action::Write(l) = act {
                assert!(l < l0.rhs.line_of(0), "smooth wrote outside u: {l}");
            }
        }
        // Smooth(_, true) writes tmp.
        for act in phase_actions(&levels, Phase::Smooth(0, true), 0, 1) {
            if let Action::Write(l) = act {
                assert!(l >= l0.tmp.line_of(0), "smooth wrote outside tmp: {l}");
            }
        }
        for act in phase_actions(&levels, Phase::Residual(0), 0, 1) {
            if let Action::Write(l) = act {
                assert!(
                    l >= l0.res.line_of(0) && l < l0.tmp.line_of(0),
                    "residual wrote outside res: {l}"
                );
            }
        }
    }

    #[test]
    fn barrier_count_is_iters_times_plan() {
        let b = build(2, 0.05, 0);
        let barriers = b
            .streams
            .into_iter()
            .next()
            .unwrap()
            .filter(|a| matches!(a, Action::Barrier(_)))
            .count();
        // scale 0.05 -> cbrt ~ 0.368 -> dims (8, 8, 20)... at least
        // two levels; plan length depends on levels, but must be a
        // multiple of ITERS.
        assert_eq!(barriers % ITERS as usize, 0);
        assert!(barriers >= ITERS as usize * 6);
    }
}
