//! The dimension-split RHS kernel of the two-fluid model.
//!
//! The slab decomposition ([`igr_core::rhs::par_over_slabs`]) and the
//! buffered row walks ([`igr_core::rhs::walk_x_rows`],
//! [`igr_core::rhs::walk_transverse_rows`]) are `igr-core`'s, so results are
//! bitwise independent of the thread count there too. What is specific to
//! the model is the per-interface flux:
//!
//! 1. seven stored variables, the mixture EOS and its validity fallback, and
//! 2. the quasi-conservative volume-fraction update
//!    `∂α/∂t = −∇·(αu) + α ∇·u`, whose non-conservative product uses the
//!    *same* interface velocity `u* = (u_L + u_R)/2` as the central part of
//!    the conservative flux — so a uniform `α` receives an exactly zero
//!    update, and (because `Γ(α)` is linear) a material interface in
//!    pressure/velocity equilibrium stays in equilibrium to machine
//!    precision.

use crate::eos::{
    cons_to_prim, inviscid_flux, max_wave_speed, Cons2, MixEos, MixPrim, I_A, I_E, I_MX, NS,
};
use crate::state::SpeciesState;
use igr_core::config::ReconOrder;
use igr_core::recon::recon;
use igr_core::rhs::{par_over_slabs, walk_transverse_rows, walk_x_rows, FaceFlux};
use igr_core::Fields;
use igr_grid::{Axis, Domain, Field, GridShape};
use igr_prec::{Real, Storage};
use rayon::prelude::*;
use std::ops::Range;

/// Interface flux record: the seven numerical fluxes plus the interface
/// velocity that feeds the non-conservative `α ∇·u` term.
#[derive(Clone, Copy)]
pub struct IfaceFlux<R: Real> {
    /// Numerical flux of each stored variable.
    pub f: Cons2<R>,
    /// `u* = (u_L + u_R)/2` along the sweep direction.
    pub ustar: R,
}

/// Everything the flux kernel needs, borrowed immutably and shared across
/// tasks.
pub struct FluxParams2<'a, R: Real, S: Storage<R>> {
    /// Current stage state (ghosts filled).
    pub q: &'a SpeciesState<R, S>,
    /// Entropic pressure field; read only when `use_sigma`.
    pub sigma: &'a Field<R, S>,
    /// Mixture equation of state.
    pub eos: MixEos,
    /// Shear viscosity.
    pub mu: R,
    /// Bulk viscosity.
    pub zeta: R,
    /// Are viscous fluxes active?
    pub viscous: bool,
    /// Is the entropic pressure active?
    pub use_sigma: bool,
    /// Reconstruction order.
    pub order: ReconOrder,
    /// `1/Δx` per axis.
    pub inv_dx: [R; 3],
    /// `1/(2Δx)` per axis.
    pub inv2dx: [R; 3],
    /// Linear strides per axis.
    pub strides: [usize; 3],
    /// Grid shape.
    pub shape: GridShape,
}

impl<'a, R: Real, S: Storage<R>> FluxParams2<'a, R, S> {
    /// Bundle the kernel inputs.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        q: &'a SpeciesState<R, S>,
        sigma: &'a Field<R, S>,
        domain: &Domain,
        eos: MixEos,
        mu: f64,
        zeta: f64,
        order: ReconOrder,
        use_sigma: bool,
    ) -> Self {
        let shape = q.shape();
        let dx = [domain.dx(Axis::X), domain.dx(Axis::Y), domain.dx(Axis::Z)];
        FluxParams2 {
            q,
            sigma,
            eos,
            mu: R::from_f64(mu),
            zeta: R::from_f64(zeta),
            viscous: mu != 0.0 || zeta != 0.0,
            use_sigma,
            order,
            inv_dx: std::array::from_fn(|d| R::from_f64(1.0 / dx[d])),
            inv2dx: std::array::from_fn(|d| R::from_f64(0.5 / dx[d])),
            strides: [
                shape.stride(Axis::X),
                shape.stride(Axis::Y),
                shape.stride(Axis::Z),
            ],
            shape,
        }
    }

    /// Cell-centred mixture velocity at a linear index.
    #[inline(always)]
    fn vel_at(&self, lin: usize) -> [R; 3] {
        let q = self.q;
        let inv_rho = R::ONE / (q.field(0).at_lin(lin) + q.field(1).at_lin(lin));
        [
            q.field(I_MX).at_lin(lin) * inv_rho,
            q.field(I_MX + 1).at_lin(lin) * inv_rho,
            q.field(I_MX + 2).at_lin(lin) * inv_rho,
        ]
    }

    /// Viscous contribution at the interface, identical to the single-fluid
    /// kernel with the mixture density in the velocities.
    #[inline(always)]
    fn subtract_viscous_flux(
        &self,
        d: usize,
        lin_c: usize,
        prl: &MixPrim<R>,
        prr: &MixPrim<R>,
        f: &mut Cons2<R>,
    ) {
        let st = self.strides[d];
        let lin_p = lin_c + st;
        let u_c = self.vel_at(lin_c);
        let u_p = self.vel_at(lin_p);

        let mut grad = [[R::ZERO; 3]; 3];
        for a in 0..3 {
            grad[a][d] = (u_p[a] - u_c[a]) * self.inv_dx[d];
        }
        for (e, axis) in Axis::ALL.iter().enumerate() {
            if e == d || !self.shape.is_active(*axis) {
                continue;
            }
            let se = self.strides[e];
            let up_c = self.vel_at(lin_c + se);
            let dn_c = self.vel_at(lin_c - se);
            let up_p = self.vel_at(lin_p + se);
            let dn_p = self.vel_at(lin_p - se);
            for a in 0..3 {
                let g_c = (up_c[a] - dn_c[a]) * self.inv2dx[e];
                let g_p = (up_p[a] - dn_p[a]) * self.inv2dx[e];
                grad[a][e] = R::HALF * (g_c + g_p);
            }
        }

        let div = grad[0][0] + grad[1][1] + grad[2][2];
        let bulk = (self.zeta - R::TWO * self.mu / R::from_f64(3.0)) * div;
        for a in 0..3 {
            let mut tau_ad = self.mu * (grad[a][d] + grad[d][a]);
            if a == d {
                tau_ad += bulk;
            }
            f[I_MX + a] -= tau_ad;
            f[I_E] -= R::HALF * (prl.vel[a] + prr.vel[a]) * tau_ad;
        }
    }
}

impl<R: Real, S: Storage<R>> FaceFlux for FluxParams2<'_, R, S> {
    type Flux = IfaceFlux<R>;

    /// Numerical flux through the interface between cell `lin_c` and its
    /// successor along axis `d`.
    #[inline(always)]
    fn face_flux(&self, d: usize, lin_c: usize) -> IfaceFlux<R> {
        let st = self.strides[d];
        let base = lin_c - 2 * st;

        // Load the 6-cell stored windows (Algorithm 1's q ← -2..3 — which in
        // the paper already includes the advected α).
        let mut w = [[R::ZERO; 6]; NS];
        for o in 0..6 {
            let lin = base + o * st;
            let qq = self.q.cons_at_lin(lin);
            for v in 0..NS {
                w[v][o] = qq[v];
            }
        }

        let mut ql = [R::ZERO; NS];
        let mut qr = [R::ZERO; NS];
        for v in 0..NS {
            let (l, r) = recon(self.order, &w[v]);
            ql[v] = l;
            qr[v] = r;
        }

        // Entropic pressure at the interface: same reconstruction.
        let (mut sl, mut sr) = (R::ZERO, R::ZERO);
        if self.use_sigma {
            let mut sw = [R::ZERO; 6];
            for (o, swo) in sw.iter_mut().enumerate() {
                *swo = self.sigma.at_lin(base + o * st);
            }
            let (l, r) = recon(self.order, &sw);
            sl = l;
            sr = r;
        }

        let mut prl = cons_to_prim(&ql, &self.eos);
        let mut prr = cons_to_prim(&qr, &self.eos);

        // Positivity/validity safeguard: fall back to donor-cell states when
        // the linear reconstruction overshoots into an inadmissible mixture
        // (negative mixture density/pressure, or α far enough outside [0, 1]
        // that Γ(α) flips sign).
        let valid = |pr: &MixPrim<R>| {
            pr.rho() > R::ZERO && pr.p > R::ZERO && self.eos.big_gamma(pr.alpha) > R::ZERO
        };
        if !(valid(&prl) && valid(&prr)) {
            for v in 0..NS {
                ql[v] = w[v][2];
                qr[v] = w[v][3];
            }
            prl = cons_to_prim(&ql, &self.eos);
            prr = cons_to_prim(&qr, &self.eos);
            if self.use_sigma {
                sl = self.sigma.at_lin(lin_c);
                sr = self.sigma.at_lin(lin_c + st);
            }
        }

        let lam =
            max_wave_speed(d, &prl, sl, &self.eos).max(max_wave_speed(d, &prr, sr, &self.eos));
        let fl = inviscid_flux(d, &ql, &prl, prl.p + sl);
        let fr = inviscid_flux(d, &qr, &prr, prr.p + sr);

        let mut out = IfaceFlux {
            f: std::array::from_fn(|v| R::HALF * (fl[v] + fr[v]) - R::HALF * lam * (qr[v] - ql[v])),
            ustar: R::HALF * (prl.vel[d] + prr.vel[d]),
        };

        if self.viscous {
            self.subtract_viscous_flux(d, lin_c, &prl, &prr, &mut out.f);
        }
        out
    }
}

/// Accumulate `−∇·F` (plus the non-conservative `α ∇·u` term) into `rhs` for
/// all active directions. `rhs` must be zeroed; ghosts of `q` and `sigma`
/// must be filled.
pub fn accumulate_fluxes2<R: Real, S: Storage<R>>(
    p: &FluxParams2<'_, R, S>,
    rhs: &mut SpeciesState<R, S>,
) {
    par_over_slabs(rhs, |mut chunks, off, j_range, k_range| {
        for axis in p.shape.active_axes() {
            sweep(p, &mut chunks, off, axis, j_range.clone(), k_range.clone());
        }
    });
}

/// One direction's flux differences over the cell rows `j_range × k_range`
/// of a slab, including the non-conservative volume-fraction term:
/// `−∇·(αu)` comes with the conservative fluxes, `+α_c ∇·u` is added from
/// the same interface velocities, so a uniform `α` telescopes to exactly
/// zero.
fn sweep<R: Real, S: Storage<R>>(
    p: &FluxParams2<'_, R, S>,
    chunks: &mut [&mut [S::Packed]; NS],
    off: usize,
    axis: Axis,
    j_range: Range<i32>,
    k_range: Range<i32>,
) {
    let d = axis.dim();
    let inv_dx = p.inv_dx[d];
    let alpha = p.q.field(I_A);
    let apply = |row: usize, lo: &[IfaceFlux<R>], hi: &[IfaceFlux<R>]| {
        for (i, (lo, hi)) in lo.iter().zip(hi).enumerate() {
            let loc = row + i - off;
            for v in 0..NS {
                let acc = S::unpack(chunks[v][loc]) + (lo.f[v] - hi.f[v]) * inv_dx;
                chunks[v][loc] = S::pack(acc);
            }
            let alpha_c = alpha.at_lin(row + i);
            let acc = S::unpack(chunks[I_A][loc]) + alpha_c * (hi.ustar - lo.ustar) * inv_dx;
            chunks[I_A][loc] = S::pack(acc);
        }
    };
    match axis {
        Axis::X => walk_x_rows(p, p.shape, j_range, k_range, apply),
        _ => walk_transverse_rows(p, p.shape, axis, j_range, k_range, apply),
    }
}

/// Compute the IGR elliptic source `b = α_igr (tr((∇u)²) + tr²(∇u))` with
/// mixture velocities (the two-fluid sibling of
/// `igr_core::sigma::compute_igr_source`).
pub fn compute_igr_source_mix<R: Real, S: Storage<R>>(
    q: &SpeciesState<R, S>,
    domain: &Domain,
    alpha_igr: f64,
    out: &mut Field<R, S>,
) {
    let shape = q.shape();
    let al = R::from_f64(alpha_igr);
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
            let vel_at = |lin: usize| -> [R; 3] {
                let inv_rho = R::ONE / (q.field(0).at_lin(lin) + q.field(1).at_lin(lin));
                [
                    q.field(I_MX).at_lin(lin) * inv_rho,
                    q.field(I_MX + 1).at_lin(lin) * inv_rho,
                    q.field(I_MX + 2).at_lin(lin) * inv_rho,
                ]
            };
            for j in 0..shape.ny as i32 {
                for i in 0..shape.nx as i32 {
                    let lin = shape.idx(i, j, k);
                    let mut g = [[R::ZERO; 3]; 3];
                    for (b, axis) in Axis::ALL.iter().enumerate() {
                        if !active[b] {
                            continue;
                        }
                        let st = shape.stride(*axis);
                        let up = vel_at(lin + st);
                        let dn = vel_at(lin - st);
                        for a in 0..3 {
                            g[a][b] = (up[a] - dn[a]) * inv2dx[b];
                        }
                    }
                    let mut tr_g2 = R::ZERO;
                    for a in 0..3 {
                        for b in 0..3 {
                            tr_g2 += g[a][b] * g[b][a];
                        }
                    }
                    let tr = g[0][0] + g[1][1] + g[2][2];
                    chunk[lin - layer * sxy] = S::pack(al * (tr_g2 + tr * tr));
                }
            }
        });
}

/// Mixture density `ρ = m₁ + m₂` over every stored cell (input to the
/// elliptic sweeps, which take a density field).
pub fn compute_mixture_density<R: Real, S: Storage<R>>(
    q: &SpeciesState<R, S>,
    out: &mut Field<R, S>,
) {
    let m1 = q.field(0);
    let m2 = q.field(1);
    out.packed_mut()
        .par_iter_mut()
        .enumerate()
        .for_each(|(lin, o)| {
            *o = S::pack(m1.at_lin(lin) + m2.at_lin(lin));
        });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc::{fill_ghosts, SpeciesBcSet};
    use igr_prec::StoreF64;

    type St = SpeciesState<f64, StoreF64>;
    type F = Field<f64, StoreF64>;

    const EOS: MixEos = MixEos {
        gamma1: 1.4,
        gamma2: 1.67,
    };

    fn rhs_of(shape: GridShape, init: impl Fn([f64; 3]) -> MixPrim<f64>, mu: f64) -> (St, Domain) {
        let domain = Domain::unit(shape);
        let mut q = St::zeros(shape);
        q.set_prim_field(&domain, &EOS, init);
        fill_ghosts(&mut q, &domain, &SpeciesBcSet::all_periodic(), &EOS, 0.0);
        let sigma = F::zeros(shape);
        let params = FluxParams2::new(&q, &sigma, &domain, EOS, mu, 0.0, ReconOrder::Fifth, false);
        let mut rhs = St::zeros(shape);
        accumulate_fluxes2(&params, &mut rhs);
        (rhs, domain)
    }

    #[test]
    fn uniform_mixture_is_equilibrium() {
        for shape in [
            GridShape::new(16, 1, 1, 3),
            GridShape::new(8, 8, 1, 3),
            GridShape::new(6, 6, 6, 3),
        ] {
            let (rhs, _) = rhs_of(
                shape,
                |_| MixPrim::new([0.3, 0.9], [0.4, -0.2, 0.1], 1.5, 0.25),
                0.0,
            );
            for f in rhs.fields() {
                assert!(f.max_interior(|x| x.abs()) < 1e-13, "shape {shape:?}");
            }
        }
    }

    #[test]
    fn material_interface_at_rest_stays_at_rest() {
        // Varying α and partial densities; uniform p, u = 0. The momentum
        // and *total energy divided by Γ(α)* must see zero RHS: the LF
        // dissipation of E matches the dissipation of Γ(α)·p by linearity.
        let tau = std::f64::consts::TAU;
        let (rhs, _) = rhs_of(
            GridShape::new(32, 1, 1, 3),
            |p| {
                let a = 0.5 + 0.4 * (tau * p[0]).sin();
                MixPrim::new([a * 1.0, (1.0 - a) * 0.2], [0.0; 3], 1.0, a)
            },
            0.0,
        );
        // Momentum RHS must vanish identically (uniform pressure).
        for v in I_MX..I_MX + 3 {
            assert!(
                rhs.field(v).max_interior(|x| x.abs()) < 1e-12,
                "momentum component {v} must be in equilibrium"
            );
        }
    }

    #[test]
    fn uniform_alpha_receives_exactly_zero_update() {
        // Strongly varying velocity/density, uniform α: conservative α flux
        // and the non-conservative term must cancel to machine precision.
        let tau = std::f64::consts::TAU;
        let a0 = 0.37;
        let (rhs, _) = rhs_of(
            GridShape::new(48, 1, 1, 3),
            |p| {
                let rho = 1.0 + 0.4 * (tau * p[0]).sin();
                MixPrim::new(
                    [a0 * rho, (1.0 - a0) * rho],
                    [0.7 * (tau * p[0]).cos(), 0.0, 0.0],
                    1.0 + 0.2 * (tau * 2.0 * p[0]).cos(),
                    a0,
                )
            },
            0.0,
        );
        assert!(
            rhs.field(I_A).max_interior(|x| x.abs()) < 1e-12,
            "uniform α must telescope to zero: {}",
            rhs.field(I_A).max_interior(|x| x.abs())
        );
    }

    #[test]
    fn conservative_variables_telescope_on_periodic_box() {
        let tau = std::f64::consts::TAU;
        let (rhs, _) = rhs_of(
            GridShape::new(12, 10, 8, 3),
            |p| {
                let a = 0.5 + 0.3 * (tau * p[0]).sin() * (tau * p[1]).cos();
                MixPrim::new(
                    [a * (1.0 + 0.2 * (tau * p[2]).sin()), (1.0 - a) * 0.8],
                    [0.5 * (tau * p[2]).sin(), -0.2, 0.1 * (tau * p[0]).cos()],
                    1.0 + 0.2 * (tau * p[1]).sin(),
                    a,
                )
            },
            0.0,
        );
        // The first six variables are conservative: their RHS sums telescope.
        for v in 0..I_A {
            let f = rhs.field(v);
            let total = f.sum_interior(|x| x);
            let scale = f.max_interior(|x| x.abs()).max(1.0);
            assert!(
                total.abs() < 1e-10 * scale * rhs.shape().n_interior() as f64,
                "var {v}: total {total}"
            );
        }
    }

    #[test]
    fn species_advection_matches_analytic_derivative() {
        // Pure α advection at constant (rho, u, p): dα/dt = −u ∂α/∂x.
        let n = 64;
        let tau = std::f64::consts::TAU;
        let u0 = 0.7;
        let eps = 1e-3;
        let (rhs, domain) = rhs_of(
            GridShape::new(n, 1, 1, 3),
            |p| {
                let a = 0.5 + eps * (tau * p[0]).sin();
                MixPrim::new([a, 1.0 - a], [u0, 0.0, 0.0], 1.0, a)
            },
            0.0,
        );
        let mut max_err = 0.0f64;
        for i in 0..n as i32 {
            let x = domain.center(Axis::X, i);
            let expect = -u0 * eps * tau * (tau * x).cos();
            max_err = max_err.max((rhs.field(I_A).at(i, 0, 0) - expect).abs());
        }
        assert!(max_err < 1e-3 * eps, "max_err {max_err}");
    }

    #[test]
    fn rhs_is_independent_of_thread_count_bitwise() {
        let tau = std::f64::consts::TAU;
        let init = |p: [f64; 3]| {
            let a = 0.5 + 0.3 * (tau * p[0]).sin();
            MixPrim::new(
                [a, (1.0 - a) * 1.3],
                [0.4 * (tau * p[1]).cos(), 0.1, -0.3 * (tau * p[2]).sin()],
                1.0,
                a,
            )
        };
        let shape = GridShape::new(16, 12, 10, 3);
        let pool1 = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap();
        let pool4 = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        let r1 = pool1.install(|| rhs_of(shape, init, 0.01).0);
        let r4 = pool4.install(|| rhs_of(shape, init, 0.01).0);
        assert_eq!(r1.max_diff(&r4), 0.0);
    }

    #[test]
    fn mixture_density_and_igr_source_agree_with_single_fluid() {
        // Embed a single-fluid state; the mixture source must equal the
        // single-fluid source field exactly.
        let shape = GridShape::new(16, 8, 1, 3);
        let domain = Domain::unit(shape);
        let tau = std::f64::consts::TAU;
        let mut q5: igr_core::State<f64, StoreF64> = igr_core::State::zeros(shape);
        q5.set_prim_field(&domain, 1.4, |p| {
            igr_core::eos::Prim::new(
                1.0 + 0.2 * (tau * p[0]).sin(),
                [(tau * p[1]).cos(), 0.3, 0.0],
                1.0,
            )
        });
        igr_core::bc::fill_ghosts(
            &mut q5,
            &domain,
            &igr_core::bc::BcSet::all_periodic(),
            1.4,
            0.0,
            &igr_core::bc::ALL_FACES,
        );
        let q7 = St::from_single_fluid(&q5, 0.4);

        let alpha_igr = 0.01;
        let mut b5 = F::zeros(shape);
        igr_core::sigma::compute_igr_source(&q5, &domain, alpha_igr, &mut b5);
        let mut b7 = F::zeros(shape);
        compute_igr_source_mix(&q7, &domain, alpha_igr, &mut b7);
        let mut rho = F::zeros(shape);
        compute_mixture_density(&q7, &mut rho);
        for lin in shape.interior_indices() {
            assert!((b5.at_lin(lin) - b7.at_lin(lin)).abs() < 1e-13);
            assert!((rho.at_lin(lin) - q5.rho.at_lin(lin)).abs() < 1e-14);
        }
    }
}
