//! The staged WENO5 + HLLC scheme, implementing [`igr_core::RhsScheme`].
//!
//! Unlike the paper's fused IGR kernel, the classic pipeline *materializes*
//! its intermediates: primitive variables, left/right reconstructed states
//! per direction, and interface fluxes per direction all live in persistent
//! arrays (this is how MFC's optimized WENO path is structured, and it is
//! what the paper's 25× memory-footprint comparison counts). The stages are
//!
//! 1. primitive conversion (5 arrays),
//! 2. per direction: componentwise WENO5 reconstruction of primitives into
//!    `qL`/`qR` (10 arrays per direction),
//! 3. per direction: HLLC fluxes into `F` (5 arrays per direction),
//! 4. per direction: flux difference accumulated into the RHS,
//! 5. (viscous runs) central velocity-gradient arrays (9 more).
//!
//! WENO's smoothness indicators are ill-conditioned below FP64 (§4.3) — the
//! scheme is precision-generic here exactly so the Fig. 5 / Table 3
//! experiments can demonstrate that.

use crate::hllc::hllc_flux_prim;
use crate::weno::weno5_pair;
use igr_core::bc::BcSet;
use igr_core::config::RkOrder;
use igr_core::eos::{Prim, NV};
use igr_core::memory::MemoryReport;
use igr_core::rhs::par_over_chunks;
use igr_core::solver::{GhostOps, RhsScheme, SchemeParams};
use igr_core::state::State;
use igr_core::Fields;
use igr_grid::{Axis, Domain, Field, GridShape};
use igr_prec::{Real, Storage};
use rayon::prelude::*;

/// Baseline configuration (the subset of `IgrConfig` that applies: no α, no
/// elliptic solve).
#[derive(Clone, Debug)]
pub struct WenoConfig {
    pub gamma: f64,
    pub mu: f64,
    pub zeta: f64,
    pub cfl: f64,
    pub rk: RkOrder,
    pub bc: BcSet,
}

impl Default for WenoConfig {
    fn default() -> Self {
        WenoConfig {
            gamma: 1.4,
            mu: 0.0,
            zeta: 0.0,
            cfl: 0.4,
            rk: RkOrder::Rk3,
            bc: BcSet::all_periodic(),
        }
    }
}

/// Per-direction persistent intermediates.
pub(crate) struct DirBuffers<R: Real, S: Storage<R>> {
    pub(crate) axis: Axis,
    /// Left/right reconstructed *primitive* states at interfaces
    /// (stored at the index of the interface's lower cell).
    pub(crate) ql: State<R, S>,
    pub(crate) qr: State<R, S>,
    /// Interface fluxes (conservative).
    pub(crate) flux: State<R, S>,
}

/// The staged WENO5+HLLC spatial scheme.
pub struct WenoHllcScheme<R: Real, S: Storage<R>> {
    pub cfg: WenoConfig,
    pub domain: Domain,
    /// Cell-centred primitive variables (ρ, u, v, w, p in the five slots).
    prim: State<R, S>,
    dirs: Vec<DirBuffers<R, S>>,
    /// Cell-centred velocity gradients (du_a/dx_b), allocated when viscous.
    grads: Vec<Field<R, S>>,
}

impl<R: Real, S: Storage<R>> WenoHllcScheme<R, S> {
    pub fn new(cfg: WenoConfig, domain: Domain) -> Self {
        cfg.bc.validate().expect("invalid boundary conditions");
        let shape = domain.shape;
        let dirs = shape
            .active_axes()
            .map(|axis| DirBuffers {
                axis,
                ql: State::zeros(shape),
                qr: State::zeros(shape),
                flux: State::zeros(shape),
            })
            .collect();
        let grads = if cfg.mu != 0.0 || cfg.zeta != 0.0 {
            (0..9).map(|_| Field::zeros(shape)).collect()
        } else {
            Vec::new()
        };
        WenoHllcScheme {
            cfg,
            domain,
            prim: State::zeros(shape),
            dirs,
            grads,
        }
    }

    /// Stage 1: primitive conversion over every stored cell (ghosts too, so
    /// reconstruction windows are valid).
    fn compute_primitives(&mut self, q: &State<R, S>) {
        let gamma = R::from_f64(self.cfg.gamma);
        let shape = q.shape();
        let sxy = shape.stride(Axis::Z).max(shape.stride(Axis::Y));
        par_over_chunks(&mut self.prim, sxy, |ci, chunks| {
            let off = ci * sxy;
            let [c_rho, c_u, c_v, c_w, c_p] = chunks;
            for (loc, pr) in c_rho.iter_mut().enumerate() {
                let lin = off + loc;
                let q5 = q.cons_at_lin(lin);
                if q5[0] == R::ZERO {
                    continue; // untouched corner ghost
                }
                let prim = igr_core::eos::cons_to_prim(&q5, gamma);
                *pr = S::pack(prim.rho);
                c_u[loc] = S::pack(prim.vel[0]);
                c_v[loc] = S::pack(prim.vel[1]);
                c_w[loc] = S::pack(prim.vel[2]);
                c_p[loc] = S::pack(prim.p);
            }
        });
    }

    /// Stage 5 (viscous only): central velocity gradients at cell centres.
    ///
    /// Extends one layer into the ghost region along every active axis: the
    /// interface-gradient average in [`subtract_viscous`] reads the gradient
    /// of the cell on *each* side of boundary interfaces, so the first ghost
    /// cell needs a value too (its own stencil stays in the stored block
    /// because the ghost width is 3). Without this, boundary-interface
    /// viscous fluxes are silently halved.
    fn compute_gradients(&mut self) {
        if self.grads.is_empty() {
            return;
        }
        let shape = self.prim.shape();
        let inv2dx = [
            R::from_f64(0.5 / self.domain.dx(Axis::X)),
            R::from_f64(0.5 / self.domain.dx(Axis::Y)),
            R::from_f64(0.5 / self.domain.dx(Axis::Z)),
        ];
        let ext = |axis: Axis| if shape.is_active(axis) { 1i32 } else { 0 };
        let (ex, ey, ez) = (ext(Axis::X), ext(Axis::Y), ext(Axis::Z));
        let prim = &self.prim;
        let sxy = shape.stride(Axis::Z);
        let gz = shape.ghosts(Axis::Z);
        for a in 0..3 {
            for (b, axis) in Axis::ALL.iter().enumerate() {
                let g = &mut self.grads[a * 3 + b];
                if !shape.is_active(*axis) {
                    g.fill(R::ZERO);
                    continue;
                }
                let st = shape.stride(*axis);
                let vel_field = [&prim.mx, &prim.my, &prim.mz][a];
                g.packed_mut()
                    .par_chunks_mut(sxy)
                    .enumerate()
                    .for_each(|(layer, chunk)| {
                        let k = layer as i32 - gz as i32;
                        if k < -ez || k >= shape.nz as i32 + ez {
                            return;
                        }
                        for j in -ey..shape.ny as i32 + ey {
                            for i in -ex..shape.nx as i32 + ex {
                                let lin = shape.idx(i, j, k);
                                let d = (vel_field.at_lin(lin + st) - vel_field.at_lin(lin - st))
                                    * inv2dx[b];
                                chunk[lin - layer * sxy] = S::pack(d);
                            }
                        }
                    });
            }
        }
    }

    /// Stage 2: componentwise WENO5 of each primitive field along `axis`,
    /// for every interface the RHS needs (cells `-1..n-1` along the axis).
    fn reconstruct(&mut self, di: usize) {
        let shape = self.prim.shape();
        let axis = self.dirs[di].axis;
        let st = shape.stride(axis);
        let prim = &self.prim;
        let (lo, hi) = interface_cell_range(shape, axis);

        let DirBuffers { ql, qr, .. } = &mut self.dirs[di];
        let ql_fields = ql.fields_mut();
        let qr_fields = qr.fields_mut();
        for ((v, dst_l), dst_r) in (0..NV).zip(ql_fields).zip(qr_fields) {
            let src = prim.fields()[v];
            par_interface_map::<R, S>(
                shape,
                axis,
                lo,
                hi,
                dst_l.packed_mut(),
                dst_r.packed_mut(),
                |lin| {
                    let base = lin - 2 * st;
                    let w: [R; 6] = std::array::from_fn(|o| src.at_lin(base + o * st));
                    weno5_pair(&w)
                },
            );
        }
    }

    /// Stage 3: HLLC flux (+ viscous) at every interface along `axis`.
    fn compute_fluxes(&mut self, di: usize) {
        let shape = self.prim.shape();
        let axis = self.dirs[di].axis;
        let d = axis.dim();
        let gamma = R::from_f64(self.cfg.gamma);
        let st = shape.stride(axis);
        let (lo, hi) = interface_cell_range(shape, axis);
        let viscous = !self.grads.is_empty();
        let mu = R::from_f64(self.cfg.mu);
        let zeta = R::from_f64(self.cfg.zeta);

        let grads = &self.grads;
        let sxy = layer_stride(shape);
        let DirBuffers { ql, qr, flux, .. } = &mut self.dirs[di];
        let (ql, qr) = (&*ql, &*qr);
        par_over_chunks(flux, sxy, |ci, chunks| {
            let off = ci * sxy;
            let [c0, c1, c2, c3, c4] = chunks;
            let n_loc = c0.len();
            for loc in 0..n_loc {
                let lin = off + loc;
                let Some((i, j, k)) = in_interface_range(shape, axis, lin, lo, hi) else {
                    continue;
                };
                let _ = (i, j, k);
                let prl = prim_at(ql, lin);
                let prr = prim_at(qr, lin);
                if prl.rho <= R::ZERO || prr.rho <= R::ZERO || prl.p <= R::ZERO || prr.p <= R::ZERO
                {
                    // Reconstruction failed positivity: fall back to cell values.
                    continue;
                }
                let qcl = prl.to_cons(gamma);
                let qcr = prr.to_cons(gamma);
                let mut f = hllc_flux_prim(d, &qcl, &prl, &qcr, &prr, gamma);
                if viscous {
                    subtract_viscous(&mut f, d, lin, st, grads, &prl, &prr, mu, zeta);
                }
                c0[loc] = S::pack(f[0]);
                c1[loc] = S::pack(f[1]);
                c2[loc] = S::pack(f[2]);
                c3[loc] = S::pack(f[3]);
                c4[loc] = S::pack(f[4]);
            }
        });
    }

    /// Stage 4: `rhs += (F_{c-1} − F_c)/Δx` along `axis`.
    fn accumulate(&self, di: usize, rhs: &mut State<R, S>) {
        let shape = self.prim.shape();
        let axis = self.dirs[di].axis;
        let st = shape.stride(axis);
        let inv_dx = R::from_f64(1.0 / self.domain.dx(axis));
        let flux = &self.dirs[di].flux;
        let sxy = layer_stride(shape);
        par_over_chunks(rhs, sxy, |ci, chunks| {
            let off = ci * sxy;
            let [c0, c1, c2, c3, c4] = chunks;
            let n_loc = c0.len();
            for loc in 0..n_loc {
                let lin = off + loc;
                let Some((i, j, k)) = stored_coords(shape, lin) else {
                    continue;
                };
                if !shape.in_interior(i, j, k) {
                    continue;
                }
                let fm = flux.cons_at_lin(lin - st);
                let fp = flux.cons_at_lin(lin);
                let add = |c: &mut S::Packed, v: usize| {
                    *c = S::pack(S::unpack(*c) + (fm[v] - fp[v]) * inv_dx);
                };
                add(&mut c0[loc], 0);
                add(&mut c1[loc], 1);
                add(&mut c2[loc], 2);
                add(&mut c3[loc], 3);
                add(&mut c4[loc], 4);
            }
        });
    }
}

/// Primitive tuple from the 5-slot container used for primitive storage.
#[inline(always)]
pub(crate) fn prim_at<R: Real, S: Storage<R>>(p: &State<R, S>, lin: usize) -> Prim<R> {
    Prim {
        rho: p.rho.at_lin(lin),
        vel: [p.mx.at_lin(lin), p.my.at_lin(lin), p.mz.at_lin(lin)],
        p: p.en.at_lin(lin),
    }
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn subtract_viscous<R: Real, S: Storage<R>>(
    f: &mut [R; NV],
    d: usize,
    lin: usize,
    st: usize,
    grads: &[Field<R, S>],
    prl: &Prim<R>,
    prr: &Prim<R>,
    mu: R,
    zeta: R,
) {
    // Interface gradient = average of the two adjacent cell-centred values.
    let g = |a: usize, b: usize| -> R {
        R::HALF * (grads[a * 3 + b].at_lin(lin) + grads[a * 3 + b].at_lin(lin + st))
    };
    let div = g(0, 0) + g(1, 1) + g(2, 2);
    let bulk = (zeta - R::TWO * mu / R::from_f64(3.0)) * div;
    for a in 0..3 {
        let mut tau = mu * (g(a, d) + g(d, a));
        if a == d {
            tau += bulk;
        }
        f[1 + a] -= tau;
        f[4] -= R::HALF * (prl.vel[a] + prr.vel[a]) * tau;
    }
}

/// Interfaces along `axis` live at cells `-1 ..= n-2` plus the one at `n-1`
/// (i.e. cells `-1..n`); we compute for cells in `[-1, n-1]`.
pub(crate) fn interface_cell_range(shape: GridShape, axis: Axis) -> (i32, i32) {
    (-1, shape.extent(axis) as i32 - 1)
}

/// Chunk stride: full xy-planes in 3-D, x-rows in 2-D/1-D.
pub(crate) fn layer_stride(shape: GridShape) -> usize {
    if shape.is_active(Axis::Z) {
        shape.stride(Axis::Z)
    } else {
        shape.stride(Axis::Y)
    }
}

/// Stored coordinates of a linear index, or None if out of the stored block.
#[inline(always)]
pub(crate) fn stored_coords(shape: GridShape, lin: usize) -> Option<(i32, i32, i32)> {
    if lin >= shape.n_total() {
        return None;
    }
    Some(shape.coords(lin))
}

/// Is `lin` a cell whose `axis` coordinate lies in `[lo, hi]` with the other
/// coordinates interior? Returns the coordinates when so.
#[inline(always)]
pub(crate) fn in_interface_range(
    shape: GridShape,
    axis: Axis,
    lin: usize,
    lo: i32,
    hi: i32,
) -> Option<(i32, i32, i32)> {
    let (i, j, k) = stored_coords(shape, lin)?;
    let (c, a_ok, b_ok) = match axis {
        Axis::X => (
            i,
            j >= 0 && (j as usize) < shape.ny,
            k >= 0 && (k as usize) < shape.nz,
        ),
        Axis::Y => (
            j,
            i >= 0 && (i as usize) < shape.nx,
            k >= 0 && (k as usize) < shape.nz,
        ),
        Axis::Z => (
            k,
            i >= 0 && (i as usize) < shape.nx,
            j >= 0 && (j as usize) < shape.ny,
        ),
    };
    if c >= lo && c <= hi && a_ok && b_ok {
        Some((i, j, k))
    } else {
        None
    }
}

/// Parallel map over interface cells along `axis`, writing one (left, right)
/// pair per interface into two packed arrays.
pub(crate) fn par_interface_map<R: Real, S: Storage<R>>(
    shape: GridShape,
    axis: Axis,
    lo: i32,
    hi: i32,
    dst_l: &mut [S::Packed],
    dst_r: &mut [S::Packed],
    f: impl Fn(usize) -> (R, R) + Sync,
) {
    let sxy = layer_stride(shape);
    dst_l
        .par_chunks_mut(sxy)
        .zip(dst_r.par_chunks_mut(sxy))
        .enumerate()
        .for_each(|(ci, (cl, cr))| {
            let off = ci * sxy;
            for loc in 0..cl.len() {
                let lin = off + loc;
                if in_interface_range(shape, axis, lin, lo, hi).is_none() {
                    continue;
                }
                let (l, r) = f(lin);
                cl[loc] = S::pack(l);
                cr[loc] = S::pack(r);
            }
        });
}

impl<R: Real, S: Storage<R>> RhsScheme<R, S> for WenoHllcScheme<R, S> {
    fn name(&self) -> &'static str {
        "weno5-hllc"
    }

    fn params(&self) -> SchemeParams {
        SchemeParams {
            gamma: self.cfg.gamma,
            mu: self.cfg.mu,
            zeta: self.cfg.zeta,
            cfl: self.cfg.cfl,
            rk: self.cfg.rk,
        }
    }

    fn compute_rhs(
        &mut self,
        q: &mut State<R, S>,
        t: f64,
        rhs: &mut State<R, S>,
        ghost: &mut dyn GhostOps<R, S>,
    ) {
        ghost.fill_state(q, t);
        self.compute_primitives(q);
        self.compute_gradients();
        rhs.zero();
        for di in 0..self.dirs.len() {
            self.reconstruct(di);
            self.compute_fluxes(di);
            self.accumulate(di, rhs);
        }
    }

    fn memory_report(&self, report: &mut MemoryReport) {
        let n = self.domain.shape.n_total();
        report.push("prim (5 arrays)", 5 * n, self.prim.storage_bytes());
        for dir in &self.dirs {
            let name = dir.axis.name();
            report.push(
                format!("qL_{name} (5 arrays)"),
                5 * n,
                dir.ql.storage_bytes(),
            );
            report.push(
                format!("qR_{name} (5 arrays)"),
                5 * n,
                dir.qr.storage_bytes(),
            );
            report.push(
                format!("flux_{name} (5 arrays)"),
                5 * n,
                dir.flux.storage_bytes(),
            );
        }
        if !self.grads.is_empty() {
            let bytes: usize = self.grads.iter().map(|g| g.storage_bytes()).sum();
            report.push("velocity gradients (9 arrays)", 9 * n, bytes);
        }
    }
}

/// Convenience constructor mirroring `igr_core::solver::igr_solver`.
pub fn weno_solver<R: Real, S: Storage<R>>(
    cfg: WenoConfig,
    domain: Domain,
    q: State<R, S>,
) -> igr_core::solver::Solver<R, S, WenoHllcScheme<R, S>, igr_core::solver::BcGhostOps> {
    let ghost = igr_core::solver::BcGhostOps::new(domain, cfg.bc.clone(), cfg.gamma);
    let scheme = WenoHllcScheme::new(cfg, domain);
    igr_core::solver::Solver::new(scheme, ghost, domain, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use igr_prec::StoreF64;

    type St = State<f64, StoreF64>;

    fn smooth_state(shape: GridShape) -> (WenoConfig, Domain, St) {
        let domain = Domain::unit(shape);
        let cfg = WenoConfig::default();
        let mut q = St::zeros(shape);
        let tau = std::f64::consts::TAU;
        q.set_prim_field(&domain, cfg.gamma, |p| {
            Prim::new(
                1.0 + 0.2 * (tau * p[0]).sin() * (tau * p[1]).cos(),
                [0.3, -0.1, 0.2],
                1.0 + 0.1 * (tau * p[2]).sin(),
            )
        });
        (cfg, domain, q)
    }

    #[test]
    fn uniform_state_is_equilibrium() {
        let shape = GridShape::new(8, 6, 4, 3);
        let domain = Domain::unit(shape);
        let cfg = WenoConfig::default();
        let mut q = St::zeros(shape);
        q.set_prim_field(&domain, cfg.gamma, |_| {
            Prim::new(1.0, [0.4, 0.2, -0.1], 2.0)
        });
        let mut solver = weno_solver(cfg, domain, q);
        solver.fixed_dt = Some(1e-3);
        solver.step().unwrap();
        // State must remain uniform to machine precision.
        let pr = solver.q.prim_at(3, 3, 2, 1.4);
        assert!((pr.rho - 1.0).abs() < 1e-12);
        assert!((pr.p - 2.0).abs() < 1e-11);
    }

    #[test]
    fn conservation_on_periodic_box() {
        let (cfg, domain, q) = smooth_state(GridShape::new(12, 10, 8, 3));
        let before = q.totals(&domain);
        let mut solver = weno_solver(cfg, domain, q);
        for _ in 0..5 {
            solver.step().unwrap();
        }
        let after = solver.q.totals(&domain);
        for v in 0..5 {
            let scale = before[v].abs().max(1.0);
            assert!(
                (after[v] - before[v]).abs() < 1e-12 * scale,
                "var {v}: {} -> {}",
                before[v],
                after[v]
            );
        }
    }

    #[test]
    fn memory_footprint_dwarfs_igr() {
        // The point of the paper's Table: the staged baseline holds many
        // more persistent arrays than fused IGR (3-D: 15 shared + 5 prim +
        // 45 staged = 65 vs IGR's 18).
        let (cfg, domain, q) = smooth_state(GridShape::new(8, 8, 8, 3));
        let weno = weno_solver(cfg, domain, q.clone());
        let weno_mem = weno.memory_report();
        let igr = igr_core::solver::igr_solver(igr_core::IgrConfig::default(), domain, q);
        let igr_mem = igr.memory_report();
        assert_eq!(weno_mem.total_scalars(), 65 * domain.shape.n_total());
        assert_eq!(igr_mem.total_scalars(), 18 * domain.shape.n_total());
        let ratio = weno_mem.total_bytes() as f64 / igr_mem.total_bytes() as f64;
        assert!(ratio > 3.5, "scalar-count ratio {ratio}");
    }

    #[test]
    fn one_d_allocates_only_one_direction() {
        let shape = GridShape::new(32, 1, 1, 3);
        let (cfg, domain, q) = {
            let domain = Domain::unit(shape);
            let cfg = WenoConfig::default();
            let mut q = St::zeros(shape);
            q.set_prim_field(&domain, cfg.gamma, |_| Prim::new(1.0, [0.0; 3], 1.0));
            (cfg, domain, q)
        };
        let solver = weno_solver(cfg, domain, q);
        let r = solver.memory_report();
        // 15 shared + 5 prim + 15 (x only) = 35 arrays.
        assert_eq!(r.total_scalars(), 35 * shape.n_total());
    }

    #[test]
    fn smooth_advection_stays_accurate() {
        // Advect a smooth density wave one period and compare to the exact
        // translation: WENO5+HLLC should transport it with tiny error.
        let n = 64;
        let shape = GridShape::new(n, 1, 1, 3);
        let domain = Domain::unit(shape);
        let cfg = WenoConfig {
            cfl: 0.4,
            ..Default::default()
        };
        let tau = std::f64::consts::TAU;
        let mut q = St::zeros(shape);
        q.set_prim_field(&domain, cfg.gamma, |p| {
            Prim::new(1.0 + 0.05 * (tau * p[0]).sin(), [1.0, 0.0, 0.0], 1.0)
        });
        let mut solver = weno_solver(cfg, domain, q);
        solver.run_until(0.1, 10_000).unwrap();
        // Compare against exact advection of the initial profile.
        let mut err = 0.0f64;
        for i in 0..n as i32 {
            let x = domain.center(Axis::X, i);
            // The small-amplitude wave advects at ~u=1 (acoustic corrections
            // are O(amplitude)); tolerance accounts for that.
            let expect = 1.0 + 0.05 * (tau * (x - 0.1)).sin();
            err = err.max((solver.q.rho.at(i, 0, 0) - expect).abs());
        }
        assert!(err < 6e-3, "advection error {err}");
        assert!(solver.q.find_non_finite().is_none());
    }

    #[test]
    fn viscous_configuration_allocates_gradients() {
        let shape = GridShape::new(8, 8, 1, 3);
        let domain = Domain::unit(shape);
        let cfg = WenoConfig {
            mu: 0.01,
            ..Default::default()
        };
        let mut q = St::zeros(shape);
        q.set_prim_field(&domain, cfg.gamma, |_| Prim::new(1.0, [0.0; 3], 1.0));
        let solver = weno_solver(cfg, domain, q);
        let r = solver.memory_report();
        let has_grads = r.entries.iter().any(|e| e.name.contains("gradients"));
        assert!(has_grads);
    }
}
