//! The seven stored fields of the two-fluid model as structure-of-arrays.

use crate::eos::{cons_to_prim, MixEos, MixPrim, I_A, I_E, I_MX, I_MY, I_MZ, I_R1, I_R2, NS};
use igr_core::Fields;
use igr_grid::{Domain, Field, GridShape};
use igr_prec::{Real, Storage};
use rayon::prelude::*;

/// Stored state (or RHS accumulator) of the two-fluid model on one block:
/// `(α₁ρ₁, α₂ρ₂, ρu, ρv, ρw, E, α₁)`, each its own [`Field`] (SoA). Tuple
/// access, the RK updates, integrals and health scans come from [`Fields`].
#[derive(Clone, Debug)]
pub struct SpeciesState<R: Real, S: Storage<R>> {
    fields: [Field<R, S>; NS],
    shape: GridShape,
}

impl<R: Real, S: Storage<R>> Fields<R, S, NS> for SpeciesState<R, S> {
    #[inline]
    fn shape(&self) -> GridShape {
        self.shape
    }

    #[inline(always)]
    fn fields(&self) -> [&Field<R, S>; NS] {
        // `from_fn`, not `each_ref()`: the latter survives into the flux
        // kernel's tuple loads and costs 2–3 % of the species sweep.
        std::array::from_fn(|v| &self.fields[v])
    }

    #[inline(always)]
    fn fields_mut(&mut self) -> [&mut Field<R, S>; NS] {
        self.fields.each_mut()
    }
}

impl<R: Real, S: Storage<R>> SpeciesState<R, S> {
    /// All-zero state on `shape`.
    pub fn zeros(shape: GridShape) -> Self {
        SpeciesState {
            fields: std::array::from_fn(|_| Field::zeros(shape)),
            shape,
        }
    }

    /// One field by variable index (`I_R1` … `I_A`).
    #[inline]
    pub fn field(&self, v: usize) -> &Field<R, S> {
        &self.fields[v]
    }

    /// Primitive mixture state at a cell.
    #[inline]
    pub fn prim_at(&self, i: i32, j: i32, k: i32, eos: &MixEos) -> MixPrim<R> {
        cons_to_prim(&self.cons_at(i, j, k), eos)
    }

    /// Initialize every interior cell from a primitive-state function of the
    /// cell-center position.
    pub fn set_prim_field(
        &mut self,
        domain: &Domain,
        eos: &MixEos,
        f: impl Fn([f64; 3]) -> MixPrim<f64>,
    ) {
        let shape = self.shape;
        for k in 0..shape.nz as i32 {
            for j in 0..shape.ny as i32 {
                for i in 0..shape.nx as i32 {
                    let p64 = f(domain.cell_center(i, j, k));
                    let pr: MixPrim<R> =
                        MixPrim::from_f64([p64.ar[0], p64.ar[1]], p64.vel, p64.p, p64.alpha);
                    self.set_cons(i, j, k, pr.to_cons(eos));
                }
            }
        }
    }

    /// Largest admissible time step under the acoustic CFL condition, with a
    /// parabolic term when viscosity is active.
    pub fn max_dt(&self, domain: &Domain, eos: &MixEos, mu: f64, zeta: f64, cfl: f64) -> f64 {
        let shape = self.shape;
        let inv_dx: Vec<(usize, f64)> = shape
            .active_axes()
            .map(|a| (a.dim(), 1.0 / domain.dx(a)))
            .collect();
        let diff = mu.max(zeta);
        let max_signal = (0..shape.nz as i32)
            .into_par_iter()
            // One range item scans a whole z-layer; hint the interior cell
            // count so small grids reduce serially (max is order-free, so
            // the result is bitwise identical either way).
            .with_elements_hint(shape.nx * shape.ny * shape.nz)
            .map(|k| {
                let mut local_max = 0.0f64;
                for j in 0..shape.ny as i32 {
                    for i in 0..shape.nx as i32 {
                        let pr = self.prim_at(i, j, k, eos);
                        let c = pr.sound_speed(eos).to_f64();
                        let mut s = 0.0;
                        for &(d, idx) in &inv_dx {
                            s += (pr.vel[d].to_f64().abs() + c) * idx;
                            if diff > 0.0 {
                                s += 2.0 * diff / pr.rho().to_f64() * idx * idx;
                            }
                        }
                        local_max = local_max.max(s);
                    }
                }
                local_max
            })
            .reduce(|| 0.0, f64::max);
        assert!(
            max_signal > 0.0 && max_signal.is_finite(),
            "degenerate wave speeds"
        );
        cfl / max_signal
    }

    /// Interior range of the volume fraction `(min, max)` — the boundedness
    /// diagnostic (`α ∈ [0, 1]` up to reconstruction overshoot).
    pub fn alpha_range(&self) -> (f64, f64) {
        let f = &self.fields[I_A];
        let max = f.max_interior(|x| x.to_f64());
        let min = -f.max_interior(|x| -x.to_f64());
        (min, max)
    }

    /// Embed a single-fluid conserved state at uniform volume fraction
    /// `alpha`: `m₁ = α·ρ`, `m₂ = (1−α)·ρ`, momenta/energy copied. Used by
    /// the single-fluid-reduction tests and cases.
    pub fn from_single_fluid(q5: &igr_core::State<R, S>, alpha: f64) -> Self {
        let shape = q5.shape();
        let mut out = Self::zeros(shape);
        let a = R::from_f64(alpha);
        for lin in 0..shape.n_total() {
            let rho = q5.rho.at_lin(lin);
            out.fields[I_R1].set_lin(lin, a * rho);
            out.fields[I_R2].set_lin(lin, (R::ONE - a) * rho);
            out.fields[I_MX].set_lin(lin, q5.mx.at_lin(lin));
            out.fields[I_MY].set_lin(lin, q5.my.at_lin(lin));
            out.fields[I_MZ].set_lin(lin, q5.mz.at_lin(lin));
            out.fields[I_E].set_lin(lin, q5.en.at_lin(lin));
            out.fields[I_A].set_lin(lin, a);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igr_prec::StoreF64;

    type St = SpeciesState<f64, StoreF64>;

    const EOS: MixEos = MixEos {
        gamma1: 1.4,
        gamma2: 1.67,
    };

    fn uniform(shape: GridShape, pr: MixPrim<f64>) -> (St, Domain) {
        let domain = Domain::unit(shape);
        let mut s = St::zeros(shape);
        s.set_prim_field(&domain, &EOS, |_| pr);
        (s, domain)
    }

    #[test]
    fn set_prim_then_prim_at_roundtrips() {
        let shape = GridShape::new(4, 4, 2, 3);
        let (s, _) = uniform(shape, MixPrim::new([0.3, 0.9], [0.1, 0.2, 0.3], 0.8, 0.4));
        let pr = s.prim_at(2, 1, 1, &EOS);
        assert!((pr.p - 0.8).abs() < 1e-14);
        assert!((pr.alpha - 0.4).abs() < 1e-14);
        assert!((pr.rho() - 1.2).abs() < 1e-14);
    }

    #[test]
    fn totals_of_uniform_state() {
        let shape = GridShape::new(8, 8, 1, 3);
        let (s, d) = uniform(shape, MixPrim::new([0.5, 1.5], [0.0; 3], 1.0, 0.25));
        let t = s.totals(&d);
        assert!((t[I_R1] - 0.5).abs() < 1e-12);
        assert!((t[I_R2] - 1.5).abs() < 1e-12);
        assert!((t[I_A] - 0.25).abs() < 1e-12);
        assert!(t[I_MX].abs() < 1e-14);
    }

    #[test]
    fn euler_and_rk_combine_are_affine() {
        let shape = GridShape::new(4, 1, 1, 3);
        let (base, _) = uniform(shape, MixPrim::new([1.0, 0.0], [0.0; 3], 1.0, 1.0));
        let mut rhs = St::zeros(shape);
        rhs.fields_mut()[I_A].map_interior(|_, _, _, _| 2.0);
        let mut out = St::zeros(shape);
        out.euler_from(&base, 0.25, &rhs);
        assert!((out.field(I_A).at(1, 0, 0) - 1.5).abs() < 1e-14);
        out.rk_combine(0.5, &base, 0.5, 0.25, &rhs);
        // 0.5*1 + 0.5*(1.5 + 0.25*2) = 1.5
        assert!((out.field(I_A).at(1, 0, 0) - 1.5).abs() < 1e-14);
    }

    #[test]
    fn max_dt_uses_the_fastest_pure_fluid() {
        let shape = GridShape::new(16, 1, 1, 3);
        let (s1, d) = uniform(shape, MixPrim::pure1(1.0, [0.0; 3], 1.0));
        let (s2, _) = uniform(shape, MixPrim::pure2(1.0, [0.0; 3], 1.0));
        let dt1 = s1.max_dt(&d, &EOS, 0.0, 0.0, 0.5);
        let dt2 = s2.max_dt(&d, &EOS, 0.0, 0.0, 0.5);
        // Fluid 2 (higher gamma) is stiffer: smaller dt.
        assert!(dt2 < dt1);
        let c = 1.4f64.sqrt();
        assert!((dt1 - 0.5 / (c * 16.0)).abs() < 1e-12);
    }

    #[test]
    fn alpha_range_and_non_finite_detection() {
        let shape = GridShape::new(4, 4, 1, 3);
        let (mut s, _) = uniform(shape, MixPrim::new([0.5, 0.5], [0.0; 3], 1.0, 0.5));
        assert_eq!(s.alpha_range(), (0.5, 0.5));
        assert!(s.find_non_finite().is_none());
        s.fields_mut()[I_E].set(1, 2, 0, f64::INFINITY);
        let (v, pos) = s.find_non_finite().unwrap();
        assert_eq!(v, I_E);
        assert_eq!(pos, (1, 2, 0));
    }

    #[test]
    fn single_fluid_embedding_preserves_mixture_density_and_energy() {
        let shape = GridShape::new(8, 1, 1, 3);
        let domain = Domain::unit(shape);
        let mut q5: igr_core::State<f64, StoreF64> = igr_core::State::zeros(shape);
        q5.set_prim_field(&domain, 1.4, |p| {
            igr_core::eos::Prim::new(1.0 + 0.3 * p[0], [0.5, 0.0, 0.0], 2.0)
        });
        let q7 = St::from_single_fluid(&q5, 0.3);
        for i in 0..8 {
            let pr5 = q5.prim_at(i, 0, 0, 1.4);
            let pr7 = q7.prim_at(i, 0, 0, &MixEos::single(1.4));
            assert!((pr7.rho() - pr5.rho).abs() < 1e-14);
            assert!((pr7.p - pr5.p).abs() < 1e-12);
            assert!((pr7.alpha - 0.3).abs() < 1e-15);
        }
    }
}
