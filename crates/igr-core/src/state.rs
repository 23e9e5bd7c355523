//! Structure-of-arrays state: the [`Fields`] trait every equation set's
//! state implements, and [`State`], the five conserved fields
//! `(ρ, ρu, ρv, ρw, E)`.

use crate::eos::{cons_to_prim, Cons, Prim, NV};
use crate::CONVERT_BLOCK;
use igr_grid::{Axis, Domain, Field, GridShape};
use igr_prec::{Real, Storage};
use rayon::prelude::*;

/// `NF` same-shape [`Field`]s held as structure-of-arrays: a stored state,
/// an RK stage buffer or an RHS accumulator of any equation set.
///
/// Implementors supply the shape and the field views; everything that does
/// not depend on the physics (tuple access, zeroing, the RK updates,
/// integrals, health scans) is provided here once. Every field must live on
/// [`Fields::shape`]: tuple access computes a cell's linear index once for
/// all of them.
pub trait Fields<R: Real, S: Storage<R>, const NF: usize> {
    /// The grid shape every field lives on.
    fn shape(&self) -> GridShape;

    /// The fields, in stored order.
    fn fields(&self) -> [&Field<R, S>; NF];

    /// Mutable views of the fields, in stored order.
    fn fields_mut(&mut self) -> [&mut Field<R, S>; NF];

    /// The packed arrays as mutable slices (for chunked parallel writes).
    fn split_mut_packed(&mut self) -> [&mut [S::Packed]; NF] {
        self.fields_mut().map(|f| f.packed_mut())
    }

    /// Total storage bytes of the fields.
    fn storage_bytes(&self) -> usize {
        self.fields().iter().map(|f| f.storage_bytes()).sum()
    }

    /// Stored tuple at a (possibly ghost) cell.
    #[inline(always)]
    fn cons_at(&self, i: i32, j: i32, k: i32) -> [R; NF] {
        self.cons_at_lin(self.shape().idx(i, j, k))
    }

    /// Stored tuple at a linear index.
    #[inline(always)]
    fn cons_at_lin(&self, lin: usize) -> [R; NF] {
        let f = self.fields();
        std::array::from_fn(|v| f[v].at_lin(lin))
    }

    /// Write a stored tuple at a cell.
    #[inline(always)]
    fn set_cons(&mut self, i: i32, j: i32, k: i32, q: [R; NF]) {
        let lin = self.shape().idx(i, j, k);
        let f = self.fields_mut();
        for v in 0..NF {
            f[v].set_lin(lin, q[v]);
        }
    }

    /// Set every stored (interior + ghost) cell to zero.
    fn zero(&mut self) {
        for f in self.fields_mut() {
            f.fill(R::ZERO);
        }
    }

    /// `self = src + dt * rhs` elementwise (RK stage 1), parallel.
    fn euler_from(&mut self, src: &Self, dt: R, rhs: &Self) {
        combine_with(self.split_mut_packed(), src, rhs, |_, s, r| s + dt * r);
    }

    /// `self = a*base + b*(self + dt*rhs)` elementwise (SSP-RK combine),
    /// parallel. This is the paper's two-buffer arrangement (§5.5.3): the
    /// "previous state" buffer updates the current RK stage in place.
    fn rk_combine(&mut self, a: R, base: &Self, b: R, dt: R, rhs: &Self) {
        let f = |cur: R, s: R, r: R| a * s + b * (cur + dt * r);
        combine_with(self.split_mut_packed(), base, rhs, f);
    }

    /// Interior integrals of the stored quantities times the cell volume
    /// (conservation checks).
    fn totals(&self, domain: &Domain) -> [f64; NF] {
        let vol = domain.cell_volume();
        self.fields().map(|f| f.sum_interior(|x| x.to_f64()) * vol)
    }

    /// First non-finite interior value as `(field, cell)`, if any
    /// (instability detection). Row-slice scan with a branch-free healthy
    /// path — see [`Field::find_non_finite_interior`].
    fn find_non_finite(&self) -> Option<(usize, (i32, i32, i32))> {
        self.fields()
            .into_iter()
            .enumerate()
            .find_map(|(v, f)| f.find_non_finite_interior().map(|pos| (v, pos)))
    }

    /// Max-norm of the difference to another state over interior cells.
    fn max_diff(&self, other: &Self) -> f64 {
        assert_eq!(self.shape(), other.shape());
        let mut m = 0.0f64;
        for (a, b) in self.fields().into_iter().zip(other.fields()) {
            for lin in self.shape().interior_indices() {
                m = m.max((a.at_lin(lin).to_f64() - b.at_lin(lin).to_f64()).abs());
            }
        }
        m
    }
}

/// `dst[i] = f(dst[i], src[i], rhs[i])` over every stored cell of every
/// field, parallel over fixed-size chunks converted through stack buffers.
fn combine_with<R: Real, S: Storage<R>, const NF: usize, Q: Fields<R, S, NF> + ?Sized>(
    dsts: [&mut [S::Packed]; NF],
    src: &Q,
    rhs: &Q,
    f: impl Fn(R, R, R) -> R + Sync,
) {
    for ((dst, s), r) in dsts.into_iter().zip(src.fields()).zip(rhs.fields()) {
        let (s, r) = (s.packed(), r.packed());
        dst.par_chunks_mut(CONVERT_BLOCK)
            .enumerate()
            .for_each(|(ci, d)| {
                let span = ci * CONVERT_BLOCK..ci * CONVERT_BLOCK + d.len();
                let [mut cb, mut sb, mut rb] = [[R::ZERO; CONVERT_BLOCK]; 3];
                let sv = S::unpack_view(&s[span.clone()], &mut sb);
                let rv = S::unpack_view(&r[span], &mut rb);
                S::update_slice(d, &mut cb, |cur| {
                    for ((c, &x), &y) in cur.iter_mut().zip(sv).zip(rv) {
                        *c = f(*c, x, y);
                    }
                });
            });
    }
}

/// Conserved state (or RHS accumulator) on one grid block.
///
/// Held as five separate [`Field`]s (SoA), matching the paper's array layout;
/// storage precision `S` is independent of compute precision `R`
/// (FP16-storage mode stores these in binary16).
#[derive(Clone, Debug)]
pub struct State<R: Real, S: Storage<R>> {
    pub rho: Field<R, S>,
    pub mx: Field<R, S>,
    pub my: Field<R, S>,
    pub mz: Field<R, S>,
    pub en: Field<R, S>,
    shape: GridShape,
}

impl<R: Real, S: Storage<R>> Fields<R, S, NV> for State<R, S> {
    #[inline]
    fn shape(&self) -> GridShape {
        self.shape
    }

    #[inline(always)]
    fn fields(&self) -> [&Field<R, S>; NV] {
        [&self.rho, &self.mx, &self.my, &self.mz, &self.en]
    }

    #[inline(always)]
    fn fields_mut(&mut self) -> [&mut Field<R, S>; NV] {
        [
            &mut self.rho,
            &mut self.mx,
            &mut self.my,
            &mut self.mz,
            &mut self.en,
        ]
    }
}

impl<R: Real, S: Storage<R>> State<R, S> {
    pub fn zeros(shape: GridShape) -> Self {
        State {
            rho: Field::zeros(shape),
            mx: Field::zeros(shape),
            my: Field::zeros(shape),
            mz: Field::zeros(shape),
            en: Field::zeros(shape),
            shape,
        }
    }

    /// [`Fields::shape`], callable without the trait.
    #[inline]
    pub fn shape(&self) -> GridShape {
        Fields::shape(self)
    }

    /// [`Fields::fields`], callable without the trait.
    #[inline(always)]
    pub fn fields(&self) -> [&Field<R, S>; NV] {
        Fields::fields(self)
    }

    /// [`Fields::zero`], callable without the trait.
    pub fn zero(&mut self) {
        Fields::zero(self)
    }

    /// [`Fields::find_non_finite`], callable without the trait.
    pub fn find_non_finite(&self) -> Option<(usize, (i32, i32, i32))> {
        Fields::find_non_finite(self)
    }

    /// Primitive state at a cell.
    #[inline]
    pub fn prim_at(&self, i: i32, j: i32, k: i32, gamma: R) -> Prim<R> {
        let q: Cons<R> = self.cons_at(i, j, k);
        cons_to_prim(&q, gamma)
    }

    /// Initialize every interior cell from a primitive-state function of the
    /// cell-center position.
    pub fn set_prim_field(
        &mut self,
        domain: &Domain,
        gamma: f64,
        f: impl Fn([f64; 3]) -> Prim<f64>,
    ) {
        let shape = self.shape;
        let g = R::from_f64(gamma);
        for k in 0..shape.nz as i32 {
            for j in 0..shape.ny as i32 {
                for i in 0..shape.nx as i32 {
                    let p64 = f(domain.cell_center(i, j, k));
                    let pr: Prim<R> =
                        Prim::from_f64(p64.rho, [p64.vel[0], p64.vel[1], p64.vel[2]], p64.p);
                    self.set_cons(i, j, k, pr.to_cons(g));
                }
            }
        }
    }

    /// Largest admissible time step: `cfl / max_cells Σ_d (|u_d|+c)/Δx_d`,
    /// with a parabolic term when viscosity is active. Parallel reduction
    /// over z-layers.
    pub fn max_dt(&self, domain: &Domain, gamma: f64, mu: f64, zeta: f64, cfl: f64) -> f64 {
        let shape = self.shape;
        let g = R::from_f64(gamma);
        let inv_dx: Vec<(usize, f64)> = shape
            .active_axes()
            .map(|a| (a.dim(), 1.0 / domain.dx(a)))
            .collect();
        let diff = mu.max(zeta); // diffusivity scale for the parabolic limit
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
                        let pr = self.prim_at(i, j, k, g);
                        let c = pr.sound_speed(g).to_f64();
                        let mut s = 0.0;
                        for &(d, idx) in &inv_dx {
                            s += (pr.vel[d].to_f64().abs() + c) * idx;
                            if diff > 0.0 {
                                s += 2.0 * diff / pr.rho.to_f64() * idx * idx;
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
}

/// Sum the interior of `field` along the line of `axis` through `(j, k)` —
/// test/diagnostic helper.
pub fn line_values<R: Real, S: Storage<R>>(
    field: &Field<R, S>,
    axis: Axis,
    a: i32,
    b: i32,
) -> Vec<f64> {
    let shape = field.shape();
    let n = shape.extent(axis) as i32;
    (0..n)
        .map(|c| match axis {
            Axis::X => field.at(c, a, b).to_f64(),
            Axis::Y => field.at(a, c, b).to_f64(),
            Axis::Z => field.at(a, b, c).to_f64(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use igr_prec::StoreF64;

    type St = State<f64, StoreF64>;

    fn uniform_state(shape: GridShape, pr: Prim<f64>) -> (St, Domain) {
        let domain = Domain::unit(shape);
        let mut s = St::zeros(shape);
        s.set_prim_field(&domain, 1.4, |_| pr);
        (s, domain)
    }

    #[test]
    fn set_prim_field_then_prim_at_roundtrips() {
        let shape = GridShape::new(4, 4, 2, 3);
        let (s, _) = uniform_state(shape, Prim::new(1.2, [0.1, 0.2, 0.3], 0.8));
        let pr = s.prim_at(2, 1, 1, 1.4);
        assert!((pr.rho - 1.2).abs() < 1e-14);
        assert!((pr.p - 0.8).abs() < 1e-14);
        assert!((pr.vel[2] - 0.3).abs() < 1e-14);
    }

    #[test]
    fn totals_of_uniform_state() {
        let shape = GridShape::new(8, 8, 8, 3);
        let (s, d) = uniform_state(shape, Prim::new(2.0, [0.0; 3], 1.0));
        let t = s.totals(&d);
        assert!((t[0] - 2.0).abs() < 1e-12, "mass = rho * volume = 2");
        assert!(t[1].abs() < 1e-12);
        assert!((t[4] - 1.0 / 0.4).abs() < 1e-12);
    }

    #[test]
    fn euler_step_is_affine() {
        let shape = GridShape::new(4, 2, 2, 3);
        let (base, _) = uniform_state(shape, Prim::new(1.0, [0.0; 3], 1.0));
        let mut rhs = St::zeros(shape);
        rhs.rho.map_interior(|_, _, _, _| 3.0);
        let mut out = St::zeros(shape);
        out.euler_from(&base, 0.1, &rhs);
        assert!((out.rho.at(1, 1, 1) - 1.3).abs() < 1e-14);
        assert!((out.en.at(1, 1, 1) - base.en.at(1, 1, 1)).abs() < 1e-14);
    }

    #[test]
    fn rk_combine_reproduces_ssp_stage() {
        // q2 = 3/4 q0 + 1/4 (q1 + dt L): check with scalars.
        let shape = GridShape::new(2, 2, 2, 3);
        let (q0, _) = uniform_state(shape, Prim::new(4.0, [0.0; 3], 4.0));
        let (mut q1, _) = uniform_state(shape, Prim::new(2.0, [0.0; 3], 2.0));
        let mut rhs = St::zeros(shape);
        rhs.rho.map_interior(|_, _, _, _| 8.0);
        q1.rk_combine(0.75, &q0, 0.25, 0.5, &rhs);
        // rho: 0.75*4 + 0.25*(2 + 0.5*8) = 3 + 1.5 = 4.5
        assert!((q1.rho.at(0, 0, 0) - 4.5).abs() < 1e-14);
    }

    #[test]
    fn max_dt_scales_inversely_with_speed() {
        let shape = GridShape::new(16, 1, 1, 3);
        let (slow, d) = uniform_state(shape, Prim::new(1.0, [0.0; 3], 1.0));
        let (fast, _) = uniform_state(shape, Prim::new(1.0, [10.0, 0.0, 0.0], 1.0));
        let dt_slow = slow.max_dt(&d, 1.4, 0.0, 0.0, 0.5);
        let dt_fast = fast.max_dt(&d, 1.4, 0.0, 0.0, 0.5);
        assert!(dt_fast < dt_slow);
        let c = (1.4f64).sqrt();
        let expect = 0.5 / ((10.0 + c) * 16.0);
        assert!((dt_fast - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn max_dt_ignores_inactive_axes() {
        // dz = 1 on a degenerate axis must not enter the CFL sum.
        let shape = GridShape::new(16, 1, 1, 3);
        let (s, d) = uniform_state(shape, Prim::new(1.0, [0.0; 3], 1.0));
        let dt = s.max_dt(&d, 1.4, 0.0, 0.0, 1.0);
        let c = (1.4f64).sqrt();
        assert!((dt - 1.0 / (c * 16.0)).abs() < 1e-12);
    }

    #[test]
    fn viscosity_tightens_dt() {
        let shape = GridShape::new(32, 1, 1, 3);
        let (s, d) = uniform_state(shape, Prim::new(1.0, [0.0; 3], 1.0));
        let dt_inviscid = s.max_dt(&d, 1.4, 0.0, 0.0, 0.5);
        let dt_viscous = s.max_dt(&d, 1.4, 0.1, 0.0, 0.5);
        assert!(dt_viscous < dt_inviscid);
    }

    #[test]
    fn find_non_finite_locates_nan() {
        let shape = GridShape::new(4, 4, 1, 3);
        let (mut s, _) = uniform_state(shape, Prim::new(1.0, [0.0; 3], 1.0));
        assert!(s.find_non_finite().is_none());
        s.en.set(2, 3, 0, f64::NAN);
        let (v, (i, j, k)) = s.find_non_finite().unwrap();
        assert_eq!(v, 4);
        assert_eq!((i, j, k), (2, 3, 0));
    }

    #[test]
    fn max_diff_detects_perturbation() {
        let shape = GridShape::new(4, 4, 1, 3);
        let (a, _) = uniform_state(shape, Prim::new(1.0, [0.0; 3], 1.0));
        let mut b = a.clone();
        assert_eq!(a.max_diff(&b), 0.0);
        b.mx.set(0, 0, 0, 0.125);
        assert_eq!(a.max_diff(&b), 0.125);
    }

    #[test]
    fn storage_bytes_counts_five_fields() {
        let shape = GridShape::new(4, 4, 4, 3);
        let s = St::zeros(shape);
        assert_eq!(s.storage_bytes(), 5 * shape.n_total() * 8);
    }
}
