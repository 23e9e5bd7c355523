//! The IGR entropic pressure: source term and elliptic solve (eq. 9).
//!
//! The regularization solves, at every RHS evaluation,
//!
//! ```text
//! Σ/ρ − α ∇·(∇Σ/ρ) = b,     b := α (tr((∇u)²) + tr²(∇u)),
//! ```
//!
//! with a 7-point stencil for the elliptic operator. Because `α ∝ Δx²`, the
//! discrete system is uniformly well conditioned and grid-point local: with
//! the previous Σ as warm start, ≤ 5 Jacobi or Gauss–Seidel sweeps converge
//! to far below the discretization error (§5.2).

use crate::config::EllipticKind;
use crate::memory::MemoryReport;
use crate::state::State;
use crate::CONVERT_BLOCK;
use igr_grid::{Axis, Domain, Field, GridShape};
use igr_prec::{Real, Storage};
use rayon::prelude::*;

/// Compute the elliptic right-hand side `b = α (tr((∇u)²) + tr²(∇u))` at
/// every interior cell. Velocity gradients use 2nd-order central differences
/// (the paper reuses the viscous-flux gradients; they are the same
/// discretization). Ghost cells of `q` must be filled.
///
/// This is the fused implementation: each stencil row's velocity `m/ρ` (one
/// reciprocal per cell) is computed once into a contiguous row buffer and
/// shared by every cell that reads it, with the three y-rows of the current
/// k-plane carried in a rolling window as `j` advances. The reference kernel
/// re-derives the velocity behind each stencil leg per cell — 6 redundant
/// `1/ρ` divisions per cell in 3-D, 4 in 2-D. Per-cell arithmetic (and thus
/// the result) is bitwise identical to [`compute_igr_source_reference`]:
/// every buffered velocity is produced by exactly the expression the
/// reference's `vel_at` evaluates.
pub fn compute_igr_source<R: Real, S: Storage<R>>(
    q: &State<R, S>,
    domain: &Domain,
    alpha: f64,
    out: &mut Field<R, S>,
) {
    let shape = q.shape();
    let al = R::from_f64(alpha);
    let inv2dx: [R; 3] = [
        R::from_f64(0.5 / domain.dx(Axis::X)),
        R::from_f64(0.5 / domain.dx(Axis::Y)),
        R::from_f64(0.5 / domain.dx(Axis::Z)),
    ];
    let active: [bool; 3] = [
        shape.is_active(Axis::X),
        shape.is_active(Axis::Y),
        shape.is_active(Axis::Z),
    ];

    let sxy = shape.stride(Axis::Z);
    let gz = shape.ghosts(Axis::Z);
    let nx = shape.nx;
    let ny = shape.ny;
    let rho_p = q.rho.packed();
    let mx_p = q.mx.packed();
    let my_p = q.my.packed();
    let mz_p = q.mz.packed();
    // Rows extend one ghost cell past each x-end (the x-stencil legs) only
    // when x is an active axis — degenerate axes carry no ghosts.
    let ext = usize::from(active[0]);
    // Velocity of row (j, k) over i = -ext..nx+ext: one reciprocal per
    // cell, exactly the reference's `inv_rho = 1/ρ; u_a = m_a · inv_rho`.
    // `conv` holds one block of the four unpacked rows.
    let fill_row = |conv: &mut [[R; CONVERT_BLOCK]; 4], dst: &mut Vec<[R; 3]>, j: i32, k: i32| {
        dst.clear();
        let start = shape.idx(-(ext as i32), j, k);
        let end = start + nx + 2 * ext;
        for at in (start..end).step_by(CONVERT_BLOCK) {
            let n = CONVERT_BLOCK.min(end - at);
            let [b0, b1, b2, b3] = conv.each_mut();
            let rho = S::unpack_view(&rho_p[at..at + n], b0);
            let mx = S::unpack_view(&mx_p[at..at + n], b1);
            let my = S::unpack_view(&my_p[at..at + n], b2);
            let mz = S::unpack_view(&mz_p[at..at + n], b3);
            dst.extend((0..n).map(|o| {
                let inv_rho = R::ONE / rho[o];
                [mx[o] * inv_rho, my[o] * inv_rho, mz[o] * inv_rho]
            }));
        }
    };

    out.packed_mut()
        .par_chunks_mut(sxy)
        .enumerate()
        .for_each(|(layer, chunk)| {
            let k = layer as i32 - gz as i32;
            if k < 0 || k >= shape.nz as i32 {
                return;
            }
            let conv = &mut [[R::ZERO; CONVERT_BLOCK]; 4];
            // Rolling window over the k-plane: rows j−1, j, j+1. The z-rows
            // (j, k±1) belong to other layers' windows and are refilled per j.
            let mut c: Vec<[R; 3]> = Vec::with_capacity(nx + 2 * ext);
            let mut jm: Vec<[R; 3]> = Vec::new();
            let mut jp: Vec<[R; 3]> = Vec::new();
            let mut km: Vec<[R; 3]> = Vec::new();
            let mut kp: Vec<[R; 3]> = Vec::new();
            fill_row(conv, &mut c, 0, k);
            if active[1] {
                fill_row(conv, &mut jm, -1, k);
                fill_row(conv, &mut jp, 1, k);
            }
            for j in 0..ny as i32 {
                if j > 0 {
                    // Roll: last step's centre row becomes j−1, its j+1 row
                    // becomes the centre; only row j+1 is computed fresh.
                    std::mem::swap(&mut jm, &mut c);
                    std::mem::swap(&mut c, &mut jp);
                    fill_row(conv, &mut jp, j + 1, k);
                }
                if active[2] {
                    fill_row(conv, &mut km, j, k - 1);
                    fill_row(conv, &mut kp, j, k + 1);
                }
                for i in 0..nx as i32 {
                    let o = i as usize + ext;
                    let mut g = [[R::ZERO; 3]; 3];
                    if active[0] {
                        let (up, dn) = (c[o + 1], c[o - 1]);
                        for a in 0..3 {
                            g[a][0] = (up[a] - dn[a]) * inv2dx[0];
                        }
                    }
                    if active[1] {
                        let (up, dn) = (jp[o], jm[o]);
                        for a in 0..3 {
                            g[a][1] = (up[a] - dn[a]) * inv2dx[1];
                        }
                    }
                    if active[2] {
                        let (up, dn) = (kp[o], km[o]);
                        for a in 0..3 {
                            g[a][2] = (up[a] - dn[a]) * inv2dx[2];
                        }
                    }
                    let mut tr_g2 = R::ZERO;
                    for a in 0..3 {
                        for b in 0..3 {
                            tr_g2 += g[a][b] * g[b][a];
                        }
                    }
                    let tr = g[0][0] + g[1][1] + g[2][2];
                    let b_val = al * (tr_g2 + tr * tr);
                    let lin = shape.idx(i, j, k);
                    chunk[lin - layer * sxy] = S::pack(b_val);
                }
            }
        });
}

/// [`compute_igr_source`] with the pre-optimization per-cell neighbour
/// divisions — the kernel [`crate::config::KernelPath::Reference`] runs and
/// the rolling-buffer path is pinned bitwise against.
pub fn compute_igr_source_reference<R: Real, S: Storage<R>>(
    q: &State<R, S>,
    domain: &Domain,
    alpha: f64,
    out: &mut Field<R, S>,
) {
    let shape = q.shape();
    let al = R::from_f64(alpha);
    let inv2dx: [R; 3] = [
        R::from_f64(0.5 / domain.dx(Axis::X)),
        R::from_f64(0.5 / domain.dx(Axis::Y)),
        R::from_f64(0.5 / domain.dx(Axis::Z)),
    ];
    let active: [bool; 3] = [
        shape.is_active(Axis::X),
        shape.is_active(Axis::Y),
        shape.is_active(Axis::Z),
    ];

    let sxy = shape.stride(Axis::Z);
    let gz = shape.ghosts(Axis::Z);
    out.packed_mut()
        .par_chunks_mut(sxy)
        .enumerate()
        .for_each(|(layer, chunk)| {
            let k = layer as i32 - gz as i32;
            if k < 0 || k >= shape.nz as i32 {
                return;
            }
            for j in 0..shape.ny as i32 {
                for i in 0..shape.nx as i32 {
                    let g = velocity_gradient(q, shape, i, j, k, &inv2dx, &active);
                    let mut tr_g2 = R::ZERO;
                    for a in 0..3 {
                        for b in 0..3 {
                            tr_g2 += g[a][b] * g[b][a];
                        }
                    }
                    let tr = g[0][0] + g[1][1] + g[2][2];
                    let b_val = al * (tr_g2 + tr * tr);
                    let lin = shape.idx(i, j, k);
                    chunk[lin - layer * sxy] = S::pack(b_val);
                }
            }
        });
}

/// Central-difference velocity gradient tensor `g[a][b] = ∂u_a/∂x_b` at cell
/// `(i, j, k)`. Inactive axes contribute zero.
#[inline(always)]
pub fn velocity_gradient<R: Real, S: Storage<R>>(
    q: &State<R, S>,
    shape: GridShape,
    i: i32,
    j: i32,
    k: i32,
    inv2dx: &[R; 3],
    active: &[bool; 3],
) -> [[R; 3]; 3] {
    let mut g = [[R::ZERO; 3]; 3];
    let vel_at = |di: i32, dj: i32, dk: i32| -> [R; 3] {
        let lin = shape.idx(i + di, j + dj, k + dk);
        let inv_rho = R::ONE / q.rho.at_lin(lin);
        [
            q.mx.at_lin(lin) * inv_rho,
            q.my.at_lin(lin) * inv_rho,
            q.mz.at_lin(lin) * inv_rho,
        ]
    };
    for (b, axis) in Axis::ALL.iter().enumerate() {
        if !active[b] {
            continue;
        }
        let (di, dj, dk) = axis.unit();
        let up = vel_at(di, dj, dk);
        let dn = vel_at(-di, -dj, -dk);
        for a in 0..3 {
            g[a][b] = (up[a] - dn[a]) * inv2dx[b];
        }
    }
    g
}

/// One Jacobi sweep: `sigma_new` from `sigma_old` (ghosts of `sigma_old` and
/// `rho` must be filled). Returns nothing; callers refresh ghosts between
/// sweeps (BC fill or halo exchange).
///
/// Discrete operator: interface densities are arithmetic means, so
///
/// ```text
/// Σ_c/ρ_c + α Σ_d [ (Σ_c−Σ_+)/ρ̄_+ + (Σ_c−Σ_−)/ρ̄_− ] / Δx_d² = b_c
/// ```
///
/// This is the fused implementation: per-row slice windows with fixed axis
/// strides, so the inner loop is unit-stride over contiguous storage and the
/// autovectorizer can batch the divisions. Per-cell arithmetic order is
/// exactly that of [`jacobi_sweep_reference`] — the two are bitwise equal.
pub fn jacobi_sweep<R: Real, S: Storage<R>>(
    rho: &Field<R, S>,
    b: &Field<R, S>,
    sigma_old: &Field<R, S>,
    sigma_new: &mut Field<R, S>,
    domain: &Domain,
    alpha: f64,
) {
    let shape = rho.shape();
    let al = R::from_f64(alpha);
    let coefs = axis_coefs::<R>(shape, domain);
    match coefs.len() {
        0 => jacobi_rows::<R, S, 0>(rho, b, sigma_old, sigma_new, shape, al, &coefs),
        1 => jacobi_rows::<R, S, 1>(rho, b, sigma_old, sigma_new, shape, al, &coefs),
        2 => jacobi_rows::<R, S, 2>(rho, b, sigma_old, sigma_new, shape, al, &coefs),
        _ => jacobi_rows::<R, S, 3>(rho, b, sigma_old, sigma_new, shape, al, &coefs),
    }
}

/// Monomorphized row kernel of [`jacobi_sweep`]: `NA` is the active-axis
/// count, so the per-cell stencil loop unrolls fully. 3-D grids parallelize
/// over z-layers; 2-D grids (one interior z-layer — a single chunk) over
/// y-rows instead, so the sweep actually spreads across the pool. Cells are
/// updated independently with a fixed arithmetic order either way, so the
/// result is bitwise independent of the chunking.
fn jacobi_rows<R: Real, S: Storage<R>, const NA: usize>(
    rho: &Field<R, S>,
    b: &Field<R, S>,
    sigma_old: &Field<R, S>,
    sigma_new: &mut Field<R, S>,
    shape: GridShape,
    alpha: R,
    coefs: &[(usize, R)],
) {
    let c: [(usize, R); NA] = std::array::from_fn(|a| coefs[a]);
    let sxy = shape.stride(Axis::Z);
    let gz = shape.ghosts(Axis::Z);
    let nx = shape.nx;
    let rho_p = rho.packed();
    let b_p = b.packed();
    let sig_p = sigma_old.packed();

    if shape.nz == 1 && shape.ny > 1 {
        // 2-D: one interior z-layer — chunking by layer would serialize the
        // whole sweep. Parallelize over y-rows of that single plane.
        let sy = shape.stride(Axis::Y);
        let gy = shape.ghosts(Axis::Y);
        sigma_new
            .packed_mut()
            .par_chunks_mut(sy)
            .enumerate()
            .for_each(|(row, chunk)| {
                let j = row as i32 - gy as i32;
                if j < 0 || j >= shape.ny as i32 {
                    return;
                }
                let base = shape.idx(0, j, 0);
                let off = base - row * sy;
                jacobi_row_kernel::<R, S, NA>(
                    rho_p,
                    b_p,
                    sig_p,
                    &mut chunk[off..off + nx],
                    base,
                    alpha,
                    &c,
                );
            });
        return;
    }

    sigma_new
        .packed_mut()
        .par_chunks_mut(sxy)
        .enumerate()
        .for_each(|(layer, chunk)| {
            let k = layer as i32 - gz as i32;
            if k < 0 || k >= shape.nz as i32 {
                return;
            }
            for j in 0..shape.ny as i32 {
                let base = shape.idx(0, j, k);
                let off = base - layer * sxy;
                jacobi_row_kernel::<R, S, NA>(
                    rho_p,
                    b_p,
                    sig_p,
                    &mut chunk[off..off + nx],
                    base,
                    alpha,
                    &c,
                );
            }
        });
}

/// One interior row of the fused Jacobi sweep, starting at linear index
/// `base`. Each block of the 2 + 4·NA rows it reads is unpacked once; the
/// cell loops are then unit stride over compute-precision rows, so the
/// autovectorizer can batch the divisions. One pass per active axis, in
/// axis order, applies to every cell the same operations in the same order
/// as a single per-cell loop over the axes.
#[inline]
fn jacobi_row_kernel<R: Real, S: Storage<R>, const NA: usize>(
    rho_p: &[S::Packed],
    b_p: &[S::Packed],
    sig_p: &[S::Packed],
    out: &mut [S::Packed],
    base: usize,
    alpha: R,
    c: &[(usize, R); NA],
) {
    // Conversion buffers (unused where the storage is the compute type).
    let [mut rc_b, mut rp_b, mut rm_b, mut sp_b, mut sm_b] = [[R::ZERO; CONVERT_BLOCK]; 5];
    let (mut num, mut den) = ([R::ZERO; CONVERT_BLOCK], [R::ZERO; CONVERT_BLOCK]);
    for (bi, o) in out.chunks_mut(CONVERT_BLOCK).enumerate() {
        let (at, n) = (base + bi * CONVERT_BLOCK, o.len());
        let (num, den) = (&mut num[..n], &mut den[..n]);
        let rc = S::unpack_view(&rho_p[at..at + n], &mut rc_b);
        let bc = S::unpack_view(&b_p[at..at + n], &mut rp_b);
        for i in 0..n {
            num[i] = bc[i];
            den[i] = R::ONE / rc[i];
        }
        for &(stride, inv_dx2) in c {
            let (hi, lo) = (at + stride, at - stride);
            let rp = S::unpack_view(&rho_p[hi..hi + n], &mut rp_b);
            let rm = S::unpack_view(&rho_p[lo..lo + n], &mut rm_b);
            let sp = S::unpack_view(&sig_p[hi..hi + n], &mut sp_b);
            let sm = S::unpack_view(&sig_p[lo..lo + n], &mut sm_b);
            for i in 0..n {
                let rp = (rc[i] + rp[i]) * R::HALF;
                let rm = (rc[i] + rm[i]) * R::HALF;
                num[i] += alpha * inv_dx2 * (sp[i] / rp + sm[i] / rm);
                den[i] += alpha * inv_dx2 * (R::ONE / rp + R::ONE / rm);
            }
        }
        for (x, &d) in num.iter_mut().zip(&*den) {
            *x /= d;
        }
        S::pack_slice(num, o);
    }
}

/// [`jacobi_sweep`] with the pre-optimization per-cell indexing — the
/// reference path the determinism regression test pins bitwise equality to.
pub fn jacobi_sweep_reference<R: Real, S: Storage<R>>(
    rho: &Field<R, S>,
    b: &Field<R, S>,
    sigma_old: &Field<R, S>,
    sigma_new: &mut Field<R, S>,
    domain: &Domain,
    alpha: f64,
) {
    let shape = rho.shape();
    let al = R::from_f64(alpha);
    let coefs = axis_coefs::<R>(shape, domain);
    let sxy = shape.stride(Axis::Z);
    let gz = shape.ghosts(Axis::Z);

    sigma_new
        .packed_mut()
        .par_chunks_mut(sxy)
        .enumerate()
        .for_each(|(layer, chunk)| {
            let k = layer as i32 - gz as i32;
            if k < 0 || k >= shape.nz as i32 {
                return;
            }
            for j in 0..shape.ny as i32 {
                for i in 0..shape.nx as i32 {
                    let lin = shape.idx(i, j, k);
                    let val = point_update(rho, b, sigma_old, shape, lin, al, &coefs);
                    chunk[lin - layer * sxy] = S::pack(val);
                }
            }
        });
}

/// Shared mutable base pointer for the red–black sweep. Each color pass
/// writes a disjoint set of cells and reads only cells of the *other* color,
/// so tasks never touch overlapping memory.
#[derive(Clone, Copy)]
struct SendPtr<T>(*mut T);
// SAFETY: the pointer is only dereferenced inside one fork-join batch whose
// pieces write disjoint (color-partitioned) cells, and `run_batch` blocks the
// submitting thread until every piece finishes — the pointee outlives every
// use and no two threads ever write the same cell. See `red_black_row`.
unsafe impl<T> Send for SendPtr<T> {}
// SAFETY: sharing `&SendPtr` across threads only copies the raw pointer
// value; all dereferences are governed by the disjointness argument above.
unsafe impl<T> Sync for SendPtr<T> {}

/// One in-place Gauss–Seidel sweep in red–black (two-color) ordering,
/// parallel over slabs of the outermost active axis. Needs no extra Σ array —
/// the paper's alternative to Jacobi.
///
/// The 7-point stencil couples each cell only to neighbours of the opposite
/// parity of `i+j+k`, so a full sweep is two embarrassingly parallel
/// half-sweeps: update all *red* cells (even parity) from black values, then
/// all *black* cells from the fresh red values. Within a color every cell's
/// update is independent with a fixed arithmetic order, so the result is
/// bitwise independent of the thread count — the same contract as the flux
/// kernels. (Ordering differs from lexicographic Gauss–Seidel, so iterates
/// differ slightly from the old serial sweep; convergence behavior is the
/// same class.)
pub fn gauss_seidel_sweep<R: Real, S: Storage<R>>(
    rho: &Field<R, S>,
    b: &Field<R, S>,
    sigma: &mut Field<R, S>,
    domain: &Domain,
    alpha: f64,
) {
    let shape = rho.shape();
    let al = R::from_f64(alpha);
    let coefs = axis_coefs::<R>(shape, domain);
    match coefs.len() {
        0 => red_black_sweep::<R, S, 0>(rho, b, sigma, shape, al, &coefs),
        1 => red_black_sweep::<R, S, 1>(rho, b, sigma, shape, al, &coefs),
        2 => red_black_sweep::<R, S, 2>(rho, b, sigma, shape, al, &coefs),
        _ => red_black_sweep::<R, S, 3>(rho, b, sigma, shape, al, &coefs),
    }
}

fn red_black_sweep<R: Real, S: Storage<R>, const NA: usize>(
    rho: &Field<R, S>,
    b: &Field<R, S>,
    sigma: &mut Field<R, S>,
    shape: GridShape,
    alpha: R,
    coefs: &[(usize, R)],
) {
    let c: [(usize, R); NA] = std::array::from_fn(|a| coefs[a]);
    let rho_p = rho.packed();
    let b_p = b.packed();
    let sig = SendPtr(sigma.packed_mut().as_mut_ptr());

    // Each range item sweeps a whole plane/row of interior cells — hint the
    // actual cell count so small grids take the pool's serial fallback
    // (per-color results are identical either way: rows are disjoint).
    let interior = shape.nx * shape.ny * shape.nz;
    for color in 0..2usize {
        // Race-check builds: each color pass is one recorded scope — every
        // task claims the rows it writes (conservatively, the full row span;
        // both parities of a row belong to the same piece), and the recorder
        // asserts the claims of different pieces never overlap. A bad slab
        // split of the outer axis is caught at the end of the fork-join.
        #[cfg(igr_race_check)]
        rayon::shadow::scope_begin("sigma.red_black");
        if shape.nz > 1 {
            (0..shape.nz as i32)
                .into_par_iter()
                .with_elements_hint(interior)
                .for_each(|k| {
                    for j in 0..shape.ny as i32 {
                        #[cfg(igr_race_check)]
                        rayon::shadow::record(k as usize, shape.idx(0, j, k), shape.nx);
                        red_black_row::<R, S, NA>(rho_p, b_p, sig, shape, alpha, &c, color, j, k);
                    }
                });
        } else if shape.ny > 1 {
            (0..shape.ny as i32)
                .into_par_iter()
                .with_elements_hint(interior)
                .for_each(|j| {
                    #[cfg(igr_race_check)]
                    rayon::shadow::record(j as usize, shape.idx(0, j, 0), shape.nx);
                    red_black_row::<R, S, NA>(rho_p, b_p, sig, shape, alpha, &c, color, j, 0)
                });
        } else {
            red_black_row::<R, S, NA>(rho_p, b_p, sig, shape, alpha, &c, color, 0, 0);
        }
        #[cfg(igr_race_check)]
        rayon::shadow::scope_end();
    }
}

/// Update the `color`-parity cells of interior row `(j, k)` in place.
#[allow(clippy::too_many_arguments)]
#[inline]
fn red_black_row<R: Real, S: Storage<R>, const NA: usize>(
    rho_p: &[S::Packed],
    b_p: &[S::Packed],
    sig: SendPtr<S::Packed>,
    shape: GridShape,
    alpha: R,
    coefs: &[(usize, R); NA],
    color: usize,
    j: i32,
    k: i32,
) {
    let base = shape.idx(0, j, k);
    let mut i = (color + j as usize + k as usize) & 1;
    while i < shape.nx {
        let lin = base + i;
        let rc = S::unpack(rho_p[lin]);
        let mut num = S::unpack(b_p[lin]);
        let mut den = R::ONE / rc;
        for &(stride, inv_dx2) in coefs.iter() {
            let rp = (rc + S::unpack(rho_p[lin + stride])) * R::HALF;
            let rm = (rc + S::unpack(rho_p[lin - stride])) * R::HALF;
            // SAFETY: `lin ± stride` are in-bounds stored cells (interior
            // cell ± one axis stride stays inside the ghosted allocation) of
            // the *opposite* color; this pass writes only `color`-parity
            // cells, so these reads never race with a write.
            let (sp, sm) = unsafe {
                (
                    S::unpack(*sig.0.add(lin + stride)),
                    S::unpack(*sig.0.add(lin - stride)),
                )
            };
            num += alpha * inv_dx2 * (sp / rp + sm / rm);
            den += alpha * inv_dx2 * (R::ONE / rp + R::ONE / rm);
        }
        // SAFETY: `lin` is an interior cell of `color` parity in row (j, k);
        // rows are partitioned disjointly across the batch's tasks and the
        // opposite-color reads above never touch `color`-parity cells, so
        // exactly one task writes this cell and nobody concurrently reads it.
        unsafe { *sig.0.add(lin) = S::pack(num / den) };
        i += 2;
    }
}

/// Max-norm residual of the discrete elliptic equation over interior cells
/// (diagnostic; the production path never computes it). Iterates interior
/// rows as slices — same fixed evaluation order as the old per-cell loop,
/// without per-cell ghost-offset arithmetic.
pub fn elliptic_residual<R: Real, S: Storage<R>>(
    rho: &Field<R, S>,
    b: &Field<R, S>,
    sigma: &Field<R, S>,
    domain: &Domain,
    alpha: f64,
) -> f64 {
    let shape = rho.shape();
    let al = R::from_f64(alpha);
    let coefs = axis_coefs::<R>(shape, domain);
    let nx = shape.nx;
    let rho_p = rho.packed();
    let b_p = b.packed();
    let sig_p = sigma.packed();
    let mut res = 0.0f64;
    for base in shape.interior_row_starts() {
        for i in 0..nx {
            let lin = base + i;
            let sc = S::unpack(sig_p[lin]);
            let rc = S::unpack(rho_p[lin]);
            let mut lhs = sc / rc;
            for &(stride, inv_dx2) in &coefs {
                let sp = S::unpack(sig_p[lin + stride]);
                let sm = S::unpack(sig_p[lin - stride]);
                let rp = (rc + S::unpack(rho_p[lin + stride])) * R::HALF;
                let rm = (rc + S::unpack(rho_p[lin - stride])) * R::HALF;
                lhs += al * inv_dx2 * ((sc - sp) / rp + (sc - sm) / rm);
            }
            res = res.max((lhs - S::unpack(b_p[lin])).to_f64().abs());
        }
    }
    res
}

/// `(stride, 1/Δx²)` per active axis.
fn axis_coefs<R: Real>(shape: GridShape, domain: &Domain) -> Vec<(usize, R)> {
    shape
        .active_axes()
        .map(|a| {
            let dx = domain.dx(a);
            (shape.stride(a), R::from_f64(1.0 / (dx * dx)))
        })
        .collect()
}

/// Solve the diagonal for one cell given current neighbour values.
#[inline(always)]
fn point_update<R: Real, S: Storage<R>>(
    rho: &Field<R, S>,
    b: &Field<R, S>,
    sigma: &Field<R, S>,
    _shape: GridShape,
    lin: usize,
    alpha: R,
    coefs: &[(usize, R)],
) -> R {
    let rc = rho.at_lin(lin);
    let mut num = b.at_lin(lin);
    let mut den = R::ONE / rc;
    for &(stride, inv_dx2) in coefs {
        let rp = (rc + rho.at_lin(lin + stride)) * R::HALF;
        let rm = (rc + rho.at_lin(lin - stride)) * R::HALF;
        num +=
            alpha * inv_dx2 * (sigma.at_lin(lin + stride) / rp + sigma.at_lin(lin - stride) / rm);
        den += alpha * inv_dx2 * (R::ONE / rp + R::ONE / rm);
    }
    num / den
}

/// A Jacobi sweep kernel, `(ρ, b, Σ_old, Σ_new, domain, α)`:
/// [`jacobi_sweep`] or [`jacobi_sweep_reference`].
pub type JacobiSweep<R, S> =
    fn(&Field<R, S>, &Field<R, S>, &Field<R, S>, &mut Field<R, S>, &Domain, f64);

/// The persistent arrays of the elliptic solve and its warm-start flag: Σ,
/// the elliptic right-hand side `b`, and Σ's Jacobi copy (absent under
/// Gauss–Seidel — the paper's `17 N` vs `17 N + 1 N`). Every IGR scheme
/// keeps one; each computes `b` and the density the sweeps read its own way.
pub struct EllipticWorkspace<R: Real, S: Storage<R>> {
    sigma: Field<R, S>,
    source: Field<R, S>,
    sigma_tmp: Option<Field<R, S>>,
    /// False until the first solve has run (cold start needs more sweeps;
    /// every later solve warm-starts from the previous Σ).
    warm: bool,
}

impl<R: Real, S: Storage<R>> EllipticWorkspace<R, S> {
    /// Zeroed, cold workspace on `shape` for the given relaxation method.
    pub fn new(shape: GridShape, elliptic: EllipticKind) -> Self {
        EllipticWorkspace {
            sigma_tmp: match elliptic {
                EllipticKind::Jacobi => Some(Field::zeros(shape)),
                EllipticKind::GaussSeidel => None,
            },
            sigma: Field::zeros(shape),
            source: Field::zeros(shape),
            warm: false,
        }
    }

    /// Current entropic pressure field.
    pub fn sigma(&self) -> &Field<R, S> {
        &self.sigma
    }

    /// Mutable access to Σ for checkpoint restore. Marks the workspace warm
    /// so the next solve does ordinary warm-started sweeps instead of the
    /// cold-start count — restoring both Σ and the flow state reproduces an
    /// uninterrupted run bit for bit.
    pub fn sigma_mut(&mut self) -> &mut Field<R, S> {
        self.warm = true;
        &mut self.sigma
    }

    /// The elliptic right-hand side `b`, for the caller's source kernel.
    pub fn source_mut(&mut self) -> &mut Field<R, S> {
        &mut self.source
    }

    /// Relax eq. (9) with density `rho`, warm-starting from the previous Σ:
    /// `sweeps` sweeps (at least `cold_start_sweeps` on the first solve),
    /// Jacobi through `jacobi` or in-place red–black Gauss–Seidel, with
    /// `fill` refreshing Σ's ghosts before every sweep and once after.
    #[allow(clippy::too_many_arguments)]
    pub fn relax(
        &mut self,
        rho: &Field<R, S>,
        domain: &Domain,
        alpha: f64,
        sweeps: usize,
        cold_start_sweeps: usize,
        jacobi: JacobiSweep<R, S>,
        mut fill: impl FnMut(&mut Field<R, S>),
    ) {
        let sweeps = if self.warm {
            sweeps
        } else {
            sweeps.max(cold_start_sweeps)
        };
        self.warm = true;
        for _ in 0..sweeps {
            {
                let _sp = igr_obs::span!("ghost.sigma");
                fill(&mut self.sigma);
            }
            let _sp = igr_obs::span!("sigma.sweep");
            match &mut self.sigma_tmp {
                Some(tmp) => {
                    jacobi(rho, &self.source, &self.sigma, tmp, domain, alpha);
                    std::mem::swap(&mut self.sigma, tmp);
                }
                None => gauss_seidel_sweep(rho, &self.source, &mut self.sigma, domain, alpha),
            }
        }
        let _sp = igr_obs::span!("ghost.sigma");
        fill(&mut self.sigma);
    }

    /// The workspace's rows of a [`MemoryReport`].
    pub fn memory_report(&self, report: &mut MemoryReport) {
        let n = self.sigma.shape().n_total();
        report.push("sigma", n, self.sigma.storage_bytes());
        report.push("igr_rhs", n, self.source.storage_bytes());
        if let Some(tmp) = &self.sigma_tmp {
            report.push("sigma_tmp (Jacobi)", n, tmp.storage_bytes());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc::{fill_ghosts, fill_scalar_ghosts, BcSet, ALL_FACES};
    use crate::eos::Prim;
    use igr_prec::StoreF64;

    type St = State<f64, StoreF64>;
    type F = Field<f64, StoreF64>;

    fn periodic_sine_state(n: usize) -> (St, Domain, BcSet) {
        let shape = GridShape::new(n, 1, 1, 3);
        let domain = Domain::unit(shape);
        let mut q = St::zeros(shape);
        let tau = std::f64::consts::TAU;
        q.set_prim_field(&domain, 1.4, |p| {
            Prim::new(
                1.0 + 0.2 * (tau * p[0]).sin(),
                [(tau * p[0]).cos(), 0.0, 0.0],
                1.0,
            )
        });
        let bcs = BcSet::all_periodic();
        (q, domain, bcs)
    }

    #[test]
    fn source_is_zero_for_uniform_flow() {
        let shape = GridShape::new(8, 8, 1, 3);
        let domain = Domain::unit(shape);
        let mut q = St::zeros(shape);
        q.set_prim_field(&domain, 1.4, |_| Prim::new(1.0, [3.0, -2.0, 0.0], 1.0));
        fill_ghosts(
            &mut q,
            &domain,
            &BcSet::all_periodic(),
            1.4,
            0.0,
            &ALL_FACES,
        );
        let mut b = F::zeros(shape);
        compute_igr_source(&q, &domain, 0.01, &mut b);
        assert_eq!(b.max_interior(|x| x.abs()), 0.0);
    }

    #[test]
    fn source_matches_analytic_value_for_linear_velocity() {
        // u = (s x, 0, 0): grad has single entry s; b = alpha*(s^2 + s^2).
        let shape = GridShape::new(16, 1, 1, 3);
        let domain = Domain::unit(shape);
        let s = 0.7;
        let mut q = St::zeros(shape);
        q.set_prim_field(&domain, 1.4, |p| Prim::new(1.0, [s * p[0], 0.0, 0.0], 1.0));
        // Outflow ghosts would flatten the gradient at boundaries; check an
        // interior cell only.
        fill_ghosts(&mut q, &domain, &BcSet::all_outflow(), 1.4, 0.0, &ALL_FACES);
        let alpha = 0.02;
        let mut b = F::zeros(shape);
        compute_igr_source(&q, &domain, alpha, &mut b);
        let expect = alpha * 2.0 * s * s;
        assert!(
            (b.at(8, 0, 0) - expect).abs() < 1e-10,
            "{} vs {expect}",
            b.at(8, 0, 0)
        );
    }

    #[test]
    fn rotation_gives_negative_tr_g2_and_zero_divergence() {
        // u = (-w y, w x, 0): tr(G^2) = -2 w^2, tr(G) = 0 => b = -2 alpha w^2.
        let shape = GridShape::new(16, 16, 1, 3);
        let domain = Domain::unit(shape);
        let w = 1.3;
        let mut q = St::zeros(shape);
        q.set_prim_field(&domain, 1.4, |p| {
            Prim::new(1.0, [-w * (p[1] - 0.5), w * (p[0] - 0.5), 0.0], 1.0)
        });
        fill_ghosts(&mut q, &domain, &BcSet::all_outflow(), 1.4, 0.0, &ALL_FACES);
        let alpha = 0.01;
        let mut b = F::zeros(shape);
        compute_igr_source(&q, &domain, alpha, &mut b);
        let expect = -2.0 * alpha * w * w;
        assert!((b.at(8, 8, 0) - expect).abs() < 1e-10);
    }

    /// Jacobi iterations must contract the residual monotonically, and the
    /// iteration must converge (the 7-point operator with alpha ~ dx^2 is
    /// strictly diagonally dominant). The paper's "<= 5 sweeps" claim is a
    /// *warm-start* statement — tested separately below — not a cold-start
    /// convergence claim: the smooth-mode damping factor is 4k/(1+4k) per
    /// sweep with k = alpha/dx^2 = O(10).
    #[test]
    fn jacobi_residual_decreases_monotonically_and_converges() {
        let (mut q, domain, bcs) = periodic_sine_state(64);
        fill_ghosts(&mut q, &domain, &bcs, 1.4, 0.0, &ALL_FACES);
        let alpha = 10.0 * domain.dx(Axis::X).powi(2);
        let shape = q.shape();
        let mut b = F::zeros(shape);
        compute_igr_source(&q, &domain, alpha, &mut b);
        let b_scale = b.max_interior(|x| x.abs());

        let mut sigma = F::zeros(shape);
        let mut tmp = F::zeros(shape);
        let mut res_prev = f64::INFINITY;
        for sweep in 0..200 {
            fill_scalar_ghosts(&mut sigma, &bcs, &ALL_FACES);
            jacobi_sweep(&q.rho, &b, &sigma, &mut tmp, &domain, alpha);
            std::mem::swap(&mut sigma, &mut tmp);
            fill_scalar_ghosts(&mut sigma, &bcs, &ALL_FACES);
            let res = elliptic_residual(&q.rho, &b, &sigma, &domain, alpha);
            if sweep < 5 {
                assert!(
                    res < res_prev,
                    "sweep {sweep}: residual must decrease ({res} !< {res_prev})"
                );
            }
            res_prev = res;
        }
        assert!(
            res_prev < 1e-3 * b_scale,
            "res {res_prev} vs source scale {b_scale}"
        );
    }

    /// Red–black Gauss–Seidel has the squared Jacobi convergence rate
    /// asymptotically (consistently ordered matrix). Its max-norm residual
    /// transiently *lags* Jacobi for the first ~dozen sweeps (the two-color
    /// ordering leaves the first color's cells one update stale), so the
    /// per-sweep advantage is asserted after the transient.
    #[test]
    fn gauss_seidel_converges_at_least_as_fast_as_jacobi() {
        let (mut q, domain, bcs) = periodic_sine_state(64);
        fill_ghosts(&mut q, &domain, &bcs, 1.4, 0.0, &ALL_FACES);
        let alpha = 10.0 * domain.dx(Axis::X).powi(2);
        let shape = q.shape();
        let mut b = F::zeros(shape);
        compute_igr_source(&q, &domain, alpha, &mut b);

        let run = |gs: bool| -> f64 {
            let mut sigma = F::zeros(shape);
            let mut tmp = F::zeros(shape);
            for _ in 0..20 {
                fill_scalar_ghosts(&mut sigma, &bcs, &ALL_FACES);
                if gs {
                    gauss_seidel_sweep(&q.rho, &b, &mut sigma, &domain, alpha);
                } else {
                    jacobi_sweep(&q.rho, &b, &sigma, &mut tmp, &domain, alpha);
                    std::mem::swap(&mut sigma, &mut tmp);
                }
            }
            fill_scalar_ghosts(&mut sigma, &bcs, &ALL_FACES);
            elliptic_residual(&q.rho, &b, &sigma, &domain, alpha)
        };
        let res_gs = run(true);
        let res_jac = run(false);
        assert!(res_gs <= res_jac, "GS {res_gs} vs Jacobi {res_jac}");
    }

    #[test]
    fn warm_start_beats_cold_start() {
        // Solve once, perturb the state slightly, and verify that restarting
        // from the previous Sigma yields a smaller residual after one sweep
        // than starting from zero — the paper's warm-start argument.
        let (mut q, domain, bcs) = periodic_sine_state(64);
        fill_ghosts(&mut q, &domain, &bcs, 1.4, 0.0, &ALL_FACES);
        let alpha = 10.0 * domain.dx(Axis::X).powi(2);
        let shape = q.shape();
        let mut b = F::zeros(shape);
        compute_igr_source(&q, &domain, alpha, &mut b);

        // Converge well.
        let mut sigma = F::zeros(shape);
        let mut tmp = F::zeros(shape);
        for _ in 0..50 {
            fill_scalar_ghosts(&mut sigma, &bcs, &ALL_FACES);
            jacobi_sweep(&q.rho, &b, &sigma, &mut tmp, &domain, alpha);
            std::mem::swap(&mut sigma, &mut tmp);
        }

        // Perturb the source a little (as a time step would).
        let mut b2 = b.clone();
        b2.map_interior(|_, _, _, x| x * 1.01);

        let one_sweep_res = |start: &F| -> f64 {
            let mut s = start.clone();
            let mut t = F::zeros(shape);
            fill_scalar_ghosts(&mut s, &bcs, &ALL_FACES);
            jacobi_sweep(&q.rho, &b2, &s, &mut t, &domain, alpha);
            std::mem::swap(&mut s, &mut t);
            fill_scalar_ghosts(&mut s, &bcs, &ALL_FACES);
            elliptic_residual(&q.rho, &b2, &s, &domain, alpha)
        };
        let warm = one_sweep_res(&sigma);
        let cold = one_sweep_res(&F::zeros(shape));
        assert!(
            warm < cold * 0.2,
            "warm {warm} must beat cold {cold} decisively"
        );
    }

    /// A 3-D state rich enough that any indexing slip in the fused kernels
    /// shows up (distinct extents per axis, non-trivial density/velocity).
    fn wavy_3d_state() -> (St, Domain, BcSet) {
        let shape = GridShape::new(12, 10, 8, 3);
        let domain = Domain::unit(shape);
        let mut q = St::zeros(shape);
        let tau = std::f64::consts::TAU;
        q.set_prim_field(&domain, 1.4, |p| {
            Prim::new(
                1.0 + 0.3 * (tau * p[0]).sin() * (tau * p[1]).cos(),
                [
                    0.5 * (tau * p[2]).sin(),
                    -0.2 * (tau * p[0]).cos(),
                    0.1 * (tau * p[1]).sin(),
                ],
                1.0 + 0.2 * (tau * p[2]).cos(),
            )
        });
        let bcs = BcSet::all_periodic();
        (q, domain, bcs)
    }

    /// The rolling-row source kernel must agree with the per-cell reference
    /// bit for bit on every grid dimensionality (the satellite's contract:
    /// fewer divisions, identical arithmetic per value).
    #[test]
    fn rolling_buffer_source_matches_reference_bitwise() {
        let mut setups: Vec<(St, Domain)> = Vec::new();
        {
            let (q, domain, _) = wavy_3d_state();
            setups.push((q, domain));
        }
        for shape in [GridShape::new(24, 18, 1, 3), GridShape::new(48, 1, 1, 3)] {
            let domain = Domain::unit(shape);
            let mut q = St::zeros(shape);
            let tau = std::f64::consts::TAU;
            q.set_prim_field(&domain, 1.4, |p| {
                Prim::new(
                    1.0 + 0.25 * (tau * p[0]).sin() * (1.0 + 0.5 * (tau * p[1]).cos()),
                    [0.6 * (tau * p[1]).sin(), -0.3 * (tau * p[0]).cos(), 0.1],
                    1.0,
                )
            });
            setups.push((q, domain));
        }
        for (mut q, domain) in setups {
            let bcs = BcSet::all_periodic();
            fill_ghosts(&mut q, &domain, &bcs, 1.4, 0.0, &ALL_FACES);
            let shape = q.shape();
            let alpha = 10.0 * domain.dx(Axis::X).powi(2);
            let mut fused = F::zeros(shape);
            let mut reference = F::zeros(shape);
            compute_igr_source(&q, &domain, alpha, &mut fused);
            compute_igr_source_reference(&q, &domain, alpha, &mut reference);
            for lin in shape.interior_indices() {
                assert_eq!(
                    fused.at_lin(lin).to_bits(),
                    reference.at_lin(lin).to_bits(),
                    "shape {shape:?}: rolling-buffer source must equal the reference bitwise"
                );
            }
        }
    }

    /// The 2-D Jacobi sweep now chunks over y-rows (a 2-D grid has a single
    /// z-layer, which used to serialize it); the result must stay bitwise
    /// independent of the thread count.
    #[test]
    fn jacobi_2d_row_parallelism_is_thread_count_independent_bitwise() {
        let shape = GridShape::new(32, 24, 1, 3);
        let domain = Domain::unit(shape);
        let mut q = St::zeros(shape);
        let tau = std::f64::consts::TAU;
        q.set_prim_field(&domain, 1.4, |p| {
            Prim::new(
                1.0 + 0.3 * (tau * p[0]).sin() * (tau * p[1]).cos(),
                [0.5 * (tau * p[1]).sin(), -0.2 * (tau * p[0]).cos(), 0.0],
                1.0,
            )
        });
        let bcs = BcSet::all_periodic();
        fill_ghosts(&mut q, &domain, &bcs, 1.4, 0.0, &ALL_FACES);
        let alpha = 10.0 * domain.dx(Axis::X).powi(2);
        let mut b = F::zeros(shape);
        compute_igr_source(&q, &domain, alpha, &mut b);

        let run = |threads: usize| -> F {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let mut sigma = F::zeros(shape);
                let mut tmp = F::zeros(shape);
                for _ in 0..4 {
                    fill_scalar_ghosts(&mut sigma, &bcs, &ALL_FACES);
                    jacobi_sweep(&q.rho, &b, &sigma, &mut tmp, &domain, alpha);
                    std::mem::swap(&mut sigma, &mut tmp);
                }
                sigma
            })
        };
        let s1 = run(1);
        let s6 = run(6);
        let mut reference = F::zeros(shape);
        let mut tmp = F::zeros(shape);
        for _ in 0..4 {
            fill_scalar_ghosts(&mut reference, &bcs, &ALL_FACES);
            jacobi_sweep_reference(&q.rho, &b, &reference, &mut tmp, &domain, alpha);
            std::mem::swap(&mut reference, &mut tmp);
        }
        for lin in shape.interior_indices() {
            assert_eq!(s1.at_lin(lin), s6.at_lin(lin), "thread-count dependent");
            assert_eq!(
                s1.at_lin(lin),
                reference.at_lin(lin),
                "diverged from reference"
            );
        }
    }

    #[test]
    fn fused_jacobi_matches_reference_bitwise() {
        let (mut q, domain, bcs) = wavy_3d_state();
        fill_ghosts(&mut q, &domain, &bcs, 1.4, 0.0, &ALL_FACES);
        let alpha = 10.0 * domain.dx(Axis::X).powi(2);
        let shape = q.shape();
        let mut b = F::zeros(shape);
        compute_igr_source(&q, &domain, alpha, &mut b);

        let mut sig_fused = F::zeros(shape);
        let mut sig_ref = F::zeros(shape);
        let mut tmp = F::zeros(shape);
        for _ in 0..4 {
            fill_scalar_ghosts(&mut sig_fused, &bcs, &ALL_FACES);
            jacobi_sweep(&q.rho, &b, &sig_fused, &mut tmp, &domain, alpha);
            std::mem::swap(&mut sig_fused, &mut tmp);

            fill_scalar_ghosts(&mut sig_ref, &bcs, &ALL_FACES);
            jacobi_sweep_reference(&q.rho, &b, &sig_ref, &mut tmp, &domain, alpha);
            std::mem::swap(&mut sig_ref, &mut tmp);

            for lin in shape.interior_indices() {
                assert_eq!(
                    sig_fused.at_lin(lin),
                    sig_ref.at_lin(lin),
                    "fused and reference Jacobi must agree bitwise"
                );
            }
        }
    }

    #[test]
    fn red_black_sweep_is_thread_count_independent_bitwise() {
        let (mut q, domain, bcs) = wavy_3d_state();
        fill_ghosts(&mut q, &domain, &bcs, 1.4, 0.0, &ALL_FACES);
        let alpha = 10.0 * domain.dx(Axis::X).powi(2);
        let shape = q.shape();
        let mut b = F::zeros(shape);
        compute_igr_source(&q, &domain, alpha, &mut b);

        let run = |threads: usize| -> F {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let mut sigma = F::zeros(shape);
                for _ in 0..3 {
                    fill_scalar_ghosts(&mut sigma, &bcs, &ALL_FACES);
                    gauss_seidel_sweep(&q.rho, &b, &mut sigma, &domain, alpha);
                }
                sigma
            })
        };
        let s1 = run(1);
        let s5 = run(5);
        for lin in shape.interior_indices() {
            assert_eq!(
                s1.at_lin(lin),
                s5.at_lin(lin),
                "red-black must be deterministic"
            );
        }
    }

    #[test]
    fn red_black_converges_on_2d_and_1d_grids() {
        // The color partition must stay correct when axes degenerate.
        for shape in [GridShape::new(32, 24, 1, 3), GridShape::new(48, 1, 1, 3)] {
            let domain = Domain::unit(shape);
            let mut q = St::zeros(shape);
            let tau = std::f64::consts::TAU;
            q.set_prim_field(&domain, 1.4, |p| {
                Prim::new(
                    1.0 + 0.2 * (tau * p[0]).sin(),
                    [(tau * p[0]).cos(), 0.0, 0.0],
                    1.0,
                )
            });
            let bcs = BcSet::all_periodic();
            fill_ghosts(&mut q, &domain, &bcs, 1.4, 0.0, &ALL_FACES);
            let alpha = 10.0 * domain.dx(Axis::X).powi(2);
            let mut b = F::zeros(shape);
            compute_igr_source(&q, &domain, alpha, &mut b);
            let b_scale = b.max_interior(|x| x.abs());

            let mut sigma = F::zeros(shape);
            for _ in 0..200 {
                fill_scalar_ghosts(&mut sigma, &bcs, &ALL_FACES);
                gauss_seidel_sweep(&q.rho, &b, &mut sigma, &domain, alpha);
            }
            fill_scalar_ghosts(&mut sigma, &bcs, &ALL_FACES);
            let res = elliptic_residual(&q.rho, &b, &sigma, &domain, alpha);
            assert!(
                res < 1e-3 * b_scale,
                "shape {shape:?}: residual {res} vs source scale {b_scale}"
            );
        }
    }

    #[test]
    fn alpha_zero_gives_sigma_equals_rho_b() {
        // With alpha = 0 the elliptic operator degenerates to Sigma = rho*b.
        let (mut q, domain, bcs) = periodic_sine_state(32);
        fill_ghosts(&mut q, &domain, &bcs, 1.4, 0.0, &ALL_FACES);
        let shape = q.shape();
        let mut b = F::zeros(shape);
        b.map_interior(|i, _, _, _| i as f64 * 0.1);
        let mut sigma = F::zeros(shape);
        let mut tmp = F::zeros(shape);
        jacobi_sweep(&q.rho, &b, &sigma, &mut tmp, &domain, 0.0);
        std::mem::swap(&mut sigma, &mut tmp);
        for i in 0..32 {
            let expect = q.rho.at(i, 0, 0) * b.at(i, 0, 0);
            assert!((sigma.at(i, 0, 0) - expect).abs() < 1e-12);
        }
    }
}
