//! Staged IGR: the ablation that isolates *kernel fusion* from *numerics*.
//!
//! The paper's 25× memory-footprint claim mixes two effects: (i) IGR's
//! simpler numerics need fewer intermediates than WENO+HLLC, and (ii) the
//! fused single-kernel implementation (§5.4) materializes none of them.
//! This scheme runs IGR's exact numerics (linear 5th-order reconstruction,
//! Lax–Friedrichs flux with entropic pressure, the same elliptic solve)
//! through the *staged* pipeline of the WENO baseline — persistent
//! reconstruction and flux arrays per direction — so
//!
//! * `StagedIgrScheme` vs `IgrScheme` (fused) measures the fusion effect
//!   alone (identical physics, ~4× the persistent arrays);
//! * `StagedIgrScheme` vs `WenoHllcScheme` measures the numerics effect
//!   alone (identical staging, different kernels).

use crate::scheme::{
    in_interface_range, interface_cell_range, layer_stride, par_interface_map, stored_coords,
    DirBuffers,
};
use igr_core::config::IgrConfig;
use igr_core::eos::{inviscid_flux, max_wave_speed, NV};
use igr_core::memory::MemoryReport;
use igr_core::recon::recon5;
use igr_core::rhs::par_over_chunks;
use igr_core::sigma::{compute_igr_source, jacobi_sweep, EllipticWorkspace};
use igr_core::solver::{GhostOps, RhsScheme, SchemeParams};
use igr_core::state::State;
use igr_core::Fields;
use igr_grid::{Domain, Field};
use igr_prec::{Real, Storage};

/// IGR numerics in staged (stored-intermediate) form.
pub struct StagedIgrScheme<R: Real, S: Storage<R>> {
    pub cfg: IgrConfig,
    pub domain: Domain,
    alpha: f64,
    /// Per-direction reconstructed states and fluxes (15 arrays each).
    dirs: Vec<DirBuffers<R, S>>,
    /// Reconstructed Σ at interfaces, per direction (2 arrays each).
    sigma_recon: Vec<(Field<R, S>, Field<R, S>)>,
    elliptic: EllipticWorkspace<R, S>,
}

impl<R: Real, S: Storage<R>> StagedIgrScheme<R, S> {
    pub fn new(cfg: IgrConfig, domain: Domain) -> Self {
        cfg.validate().expect("invalid IgrConfig");
        let shape = domain.shape;
        let alpha = cfg.alpha(domain.dx_max());
        let dirs: Vec<_> = shape
            .active_axes()
            .map(|axis| DirBuffers {
                axis,
                ql: State::zeros(shape),
                qr: State::zeros(shape),
                flux: State::zeros(shape),
            })
            .collect();
        let sigma_recon = dirs
            .iter()
            .map(|_| (Field::zeros(shape), Field::zeros(shape)))
            .collect();
        StagedIgrScheme {
            elliptic: EllipticWorkspace::new(shape, cfg.elliptic),
            cfg,
            domain,
            alpha,
            dirs,
            sigma_recon,
        }
    }

    fn solve_sigma(&mut self, q: &State<R, S>, ghost: &mut dyn GhostOps<R, S>) {
        let ws = &mut self.elliptic;
        compute_igr_source(q, &self.domain, self.alpha, ws.source_mut());
        let (sweeps, cold) = (self.cfg.sweeps, self.cfg.cold_start_sweeps);
        ws.relax(
            &q.rho,
            &self.domain,
            self.alpha,
            sweeps,
            cold,
            jacobi_sweep,
            |s| ghost.fill_scalar(s),
        );
    }

    /// Stage 2: linear recon of the five *conservative* variables and Σ
    /// along `axis` — the same inputs the fused kernel reconstructs, so the
    /// two implementations differ only in staging, not numerics.
    fn reconstruct(&mut self, di: usize, q: &State<R, S>) {
        let shape = q.shape();
        let axis = self.dirs[di].axis;
        let st = shape.stride(axis);
        let (lo, hi) = interface_cell_range(shape, axis);

        let DirBuffers { ql, qr, .. } = &mut self.dirs[di];
        for ((v, dst_l), dst_r) in (0..NV).zip(ql.fields_mut()).zip(qr.fields_mut()) {
            let src = q.fields()[v];
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
                    recon5(&w)
                },
            );
        }
        let sigma = self.elliptic.sigma();
        let (sl, sr) = &mut self.sigma_recon[di];
        par_interface_map::<R, S>(
            shape,
            axis,
            lo,
            hi,
            sl.packed_mut(),
            sr.packed_mut(),
            |lin| {
                let base = lin - 2 * st;
                let w: [R; 6] = std::array::from_fn(|o| sigma.at_lin(base + o * st));
                recon5(&w)
            },
        );
    }

    /// Stage 3: Lax–Friedrichs flux with Σ at every interface.
    fn compute_fluxes(&mut self, di: usize) {
        let shape = self.domain.shape;
        let axis = self.dirs[di].axis;
        let d = axis.dim();
        let gamma = R::from_f64(self.cfg.gamma);
        let (lo, hi) = interface_cell_range(shape, axis);
        let sxy = layer_stride(shape);
        let (sig_l, sig_r) = &self.sigma_recon[di];
        let DirBuffers { ql, qr, flux, .. } = &mut self.dirs[di];
        let (ql, qr) = (&*ql, &*qr);
        par_over_chunks(flux, sxy, |ci, chunks| {
            let off = ci * sxy;
            let [c0, c1, c2, c3, c4] = chunks;
            for loc in 0..c0.len() {
                let lin = off + loc;
                if in_interface_range(shape, axis, lin, lo, hi).is_none() {
                    continue;
                }
                let qcl = ql.cons_at_lin(lin);
                let qcr = qr.cons_at_lin(lin);
                let prl = igr_core::eos::cons_to_prim(&qcl, gamma);
                let prr = igr_core::eos::cons_to_prim(&qcr, gamma);
                if prl.rho <= R::ZERO || prr.rho <= R::ZERO || prl.p <= R::ZERO || prr.p <= R::ZERO
                {
                    continue; // positivity fallback handled as zero-flux skip
                }
                let sl = sig_l.at_lin(lin);
                let sr = sig_r.at_lin(lin);
                let lam =
                    max_wave_speed(d, &prl, sl, gamma).max(max_wave_speed(d, &prr, sr, gamma));
                let fl = inviscid_flux(d, &qcl, &prl, prl.p + sl);
                let fr = inviscid_flux(d, &qcr, &prr, prr.p + sr);
                let mut f = [R::ZERO; NV];
                for v in 0..NV {
                    f[v] = R::HALF * (fl[v] + fr[v]) - R::HALF * lam * (qcr[v] - qcl[v]);
                }
                c0[loc] = S::pack(f[0]);
                c1[loc] = S::pack(f[1]);
                c2[loc] = S::pack(f[2]);
                c3[loc] = S::pack(f[3]);
                c4[loc] = S::pack(f[4]);
            }
        });
    }

    /// Stage 4: flux difference into the RHS.
    fn accumulate(&self, di: usize, rhs: &mut State<R, S>) {
        let shape = self.domain.shape;
        let axis = self.dirs[di].axis;
        let st = shape.stride(axis);
        let inv_dx = R::from_f64(1.0 / self.domain.dx(axis));
        let flux = &self.dirs[di].flux;
        let sxy = layer_stride(shape);
        par_over_chunks(rhs, sxy, |ci, chunks| {
            let off = ci * sxy;
            let [c0, c1, c2, c3, c4] = chunks;
            for loc in 0..c0.len() {
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

impl<R: Real, S: Storage<R>> RhsScheme<R, S> for StagedIgrScheme<R, S> {
    fn name(&self) -> &'static str {
        "igr-staged"
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
        if self.alpha > 0.0 {
            self.solve_sigma(q, ghost);
        }
        rhs.zero();
        for di in 0..self.dirs.len() {
            self.reconstruct(di, q);
            self.compute_fluxes(di);
            self.accumulate(di, rhs);
        }
    }

    fn memory_report(&self, report: &mut MemoryReport) {
        let n = self.domain.shape.n_total();
        for (dir, (sl, sr)) in self.dirs.iter().zip(&self.sigma_recon) {
            let name = dir.axis.name();
            report.push(format!("qL_{name} (5)"), 5 * n, dir.ql.storage_bytes());
            report.push(format!("qR_{name} (5)"), 5 * n, dir.qr.storage_bytes());
            report.push(format!("flux_{name} (5)"), 5 * n, dir.flux.storage_bytes());
            report.push(format!("sigmaL_{name}"), n, sl.storage_bytes());
            report.push(format!("sigmaR_{name}"), n, sr.storage_bytes());
        }
        self.elliptic.memory_report(report);
    }
}

/// Convenience constructor mirroring `igr_core::solver::igr_solver`.
pub fn staged_igr_solver<R: Real, S: Storage<R>>(
    cfg: IgrConfig,
    domain: Domain,
    q: State<R, S>,
) -> igr_core::solver::Solver<R, S, StagedIgrScheme<R, S>, igr_core::solver::BcGhostOps> {
    let ghost = igr_core::solver::BcGhostOps::new(domain, cfg.bc.clone(), cfg.gamma);
    let scheme = StagedIgrScheme::new(cfg, domain);
    igr_core::solver::Solver::new(scheme, ghost, domain, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use igr_core::eos::Prim;
    use igr_grid::GridShape;
    use igr_prec::StoreF64;

    fn smooth_case(n: usize) -> (IgrConfig, Domain, State<f64, StoreF64>) {
        let shape = GridShape::new(n, n / 2, 1, 3);
        let domain = Domain::unit(shape);
        let cfg = IgrConfig::default();
        let tau = std::f64::consts::TAU;
        let mut q = State::zeros(shape);
        q.set_prim_field(&domain, cfg.gamma, |p| {
            Prim::new(
                1.0 + 0.2 * (tau * p[0]).sin() * (tau * p[1]).cos(),
                [0.4 * (tau * p[1]).sin(), -0.2 * (tau * p[0]).cos(), 0.0],
                1.0,
            )
        });
        (cfg, domain, q)
    }

    /// The defining property: staged and fused IGR compute identical
    /// numerics (same conservative-variable reconstruction, same flux),
    /// differing only in intermediate-rounding order through the staged
    /// arrays — results agree to near machine precision.
    #[test]
    fn staged_matches_fused_igr_closely() {
        let (cfg, domain, q) = smooth_case(32);
        let mut fused = igr_core::solver::igr_solver(cfg.clone(), domain, q.clone());
        let mut staged = staged_igr_solver(cfg, domain, q);
        let dt = fused.stable_dt().min(staged.stable_dt());
        fused.fixed_dt = Some(dt);
        staged.fixed_dt = Some(dt);
        for _ in 0..5 {
            fused.step().unwrap();
            staged.step().unwrap();
        }
        let diff = fused.q.max_diff(&staged.q);
        assert!(
            diff < 1e-12,
            "staged and fused IGR numerics must agree to rounding: {diff}"
        );
    }

    #[test]
    fn staged_conserves_on_periodic_box() {
        let (cfg, domain, q) = smooth_case(24);
        let before = q.totals(&domain);
        let mut solver = staged_igr_solver(cfg, domain, q);
        for _ in 0..5 {
            solver.step().unwrap();
        }
        let after = solver.q.totals(&domain);
        for v in 0..5 {
            let scale = before[v].abs().max(1.0);
            assert!((after[v] - before[v]).abs() < 1e-12 * scale, "var {v}");
        }
    }

    /// The fusion ablation: same numerics, ~3x the persistent arrays in 2-D
    /// (fused: 18; staged: 15 shared + 5 prim + 2x17 staged + 3 sigma = 57).
    #[test]
    fn staging_multiplies_the_memory_footprint() {
        let (cfg, domain, q) = smooth_case(24);
        let fused = igr_core::solver::igr_solver(cfg.clone(), domain, q.clone());
        let staged = staged_igr_solver(cfg, domain, q);
        let f = fused.memory_report().total_scalars();
        let s = staged.memory_report().total_scalars();
        let n = domain.shape.n_total();
        assert_eq!(f, 18 * n);
        // 15 shared + 2 directions x (15 recon/flux + 2 sigma recon) + 3 sigma.
        assert_eq!(s, (15 + 2 * 17 + 3) * n);
        assert!(s as f64 / f as f64 > 2.8);
    }
}
