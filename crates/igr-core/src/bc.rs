//! Boundary conditions: ghost-cell fill.
//!
//! The paper's thruster cases use inflow boundaries for the engine exits
//! ("We model them through inflow boundary conditions", Fig. 1 caption),
//! outflow elsewhere, and periodic boundaries for the scaling kernels.
//!
//! Ghost layers are filled axis-by-axis (x, then y, then z) over the *full*
//! stored extent of the previously filled axes, so edge and corner ghosts
//! get consistent values — required by the transverse derivatives of the
//! viscous stress and the IGR source term.

use crate::eos::Prim;
use crate::state::{Fields, State};
use igr_grid::{Axis, Domain, Field, GridShape};
use igr_prec::{Real, Storage};
use std::sync::Arc;

/// A spatially varying, time-dependent inflow state (e.g. a jet array).
pub trait InflowProfile: Send + Sync {
    /// Primitive state imposed at position `pos` and time `t`.
    fn prim(&self, pos: [f64; 3], t: f64) -> Prim<f64>;

    /// Whether [`InflowProfile::prim`] actually depends on `t`. Profiles
    /// that are pure functions of position (e.g. a fixed-gimbal engine
    /// array — 33 `tanh` lip evaluations per ghost cell) should return
    /// `false`: the ghost fill then evaluates the plane once and replays the
    /// identical values every step ([`InflowCache`]), which removes the
    /// profile evaluation from the per-step hot path without changing a bit
    /// of the result. Defaults to `true` (always re-evaluate — correct for
    /// every profile, fast for none).
    fn time_varying(&self) -> bool {
        true
    }

    /// Downcast hook for run-time actuation: profiles that support being
    /// mutated mid-run (gimbal retargets, engine-out, backpressure changes)
    /// expose their concrete type here so an actuator can clone, mutate, and
    /// reinstall them. Defaults to `None` (profile is opaque — actions that
    /// need to rewrite it are refused).
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        None
    }
}

impl<F> InflowProfile for F
where
    F: Fn([f64; 3], f64) -> Prim<f64> + Send + Sync,
{
    fn prim(&self, pos: [f64; 3], t: f64) -> Prim<f64> {
        self(pos, t)
    }
}

/// Boundary condition on one face.
#[derive(Clone)]
pub enum Bc {
    /// Wrap around to the opposite side (single-block only; decomposed runs
    /// realize periodicity through halo exchange instead).
    Periodic,
    /// Zero-gradient extrapolation (non-reflecting outflow approximation).
    Outflow,
    /// Slip wall: mirror the interior, negate the normal momentum.
    Reflective,
    /// Uniform Dirichlet inflow.
    Inflow(Prim<f64>),
    /// Spatially varying Dirichlet inflow (jet arrays).
    InflowProfile(Arc<dyn InflowProfile>),
}

impl std::fmt::Debug for Bc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Bc::Periodic => write!(f, "Periodic"),
            Bc::Outflow => write!(f, "Outflow"),
            Bc::Reflective => write!(f, "Reflective"),
            Bc::Inflow(p) => write!(f, "Inflow({p:?})"),
            Bc::InflowProfile(_) => write!(f, "InflowProfile(..)"),
        }
    }
}

/// Boundary conditions on all six faces: `faces[axis][0]` is the low side,
/// `faces[axis][1]` the high side.
#[derive(Clone, Debug)]
pub struct BcSet {
    pub faces: [[Bc; 2]; 3],
}

impl BcSet {
    pub fn all_periodic() -> Self {
        BcSet {
            faces: std::array::from_fn(|_| [Bc::Periodic, Bc::Periodic]),
        }
    }

    pub fn all_outflow() -> Self {
        BcSet {
            faces: std::array::from_fn(|_| [Bc::Outflow, Bc::Outflow]),
        }
    }

    pub fn with_face(mut self, axis: Axis, side: usize, bc: Bc) -> Self {
        self.faces[axis.dim()][side] = bc;
        self
    }

    pub fn face(&self, axis: Axis, side: usize) -> &Bc {
        &self.faces[axis.dim()][side]
    }

    /// Periodicity flags per axis (used by the decomposition). A face pair is
    /// periodic only if *both* sides are periodic.
    pub fn periodic_axes(&self) -> [bool; 3] {
        std::array::from_fn(|d| {
            matches!(self.faces[d][0], Bc::Periodic) && matches!(self.faces[d][1], Bc::Periodic)
        })
    }

    pub fn validate(&self) -> Result<(), String> {
        for d in 0..3 {
            let lo = matches!(self.faces[d][0], Bc::Periodic);
            let hi = matches!(self.faces[d][1], Bc::Periodic);
            if lo != hi {
                return Err(format!("axis {d}: periodic BCs must come in pairs"));
            }
        }
        Ok(())
    }
}

/// Which faces the ghost fill should touch. Decomposed runs mask off faces
/// owned by a neighbouring rank (those ghosts come from halo exchange).
pub type FaceMask = [[bool; 2]; 3];

pub const ALL_FACES: FaceMask = [[true; 2]; 3];

/// Memoized inflow-profile planes, one slot per face.
///
/// For a time-*independent* [`InflowProfile`] (see
/// [`InflowProfile::time_varying`]), the profile values over a face's ghost
/// block never change between fills. The first fill through
/// [`fill_ghosts_cached`] stores them here (as `Prim<f64>`, the profile's
/// native output, so one cache serves every storage precision) and later
/// fills replay them — bitwise identical to re-evaluating, minus the cost.
/// Owned by `BcGhostOps`; plain [`fill_ghosts`] never caches.
#[derive(Default)]
pub struct InflowCache {
    planes: [[Option<Vec<Prim<f64>>>; 2]; 3],
}

impl InflowCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// Drop every memoized plane (e.g. after swapping boundary conditions).
    pub fn clear(&mut self) {
        self.planes = Default::default();
    }
}

/// Fill ghost layers of the conserved state on the masked faces.
pub fn fill_ghosts<R: Real, S: Storage<R>>(
    state: &mut State<R, S>,
    domain: &Domain,
    bcs: &BcSet,
    gamma: f64,
    t: f64,
    mask: &FaceMask,
) {
    fill_ghosts_inner(state, domain, bcs, gamma, t, mask, None);
}

/// [`fill_ghosts`] with inflow-plane memoization for static profiles.
pub fn fill_ghosts_cached<R: Real, S: Storage<R>>(
    state: &mut State<R, S>,
    domain: &Domain,
    bcs: &BcSet,
    gamma: f64,
    t: f64,
    mask: &FaceMask,
    cache: &mut InflowCache,
) {
    fill_ghosts_inner(state, domain, bcs, gamma, t, mask, Some(cache));
}

fn fill_ghosts_inner<R: Real, S: Storage<R>>(
    state: &mut State<R, S>,
    domain: &Domain,
    bcs: &BcSet,
    gamma: f64,
    t: f64,
    mask: &FaceMask,
    mut cache: Option<&mut InflowCache>,
) {
    let shape = state.shape();
    for axis in [Axis::X, Axis::Y, Axis::Z] {
        if !shape.is_active(axis) {
            continue;
        }
        for side in 0..2 {
            if !mask[axis.dim()][side] {
                continue;
            }
            let slot = cache
                .as_deref_mut()
                .map(|c| &mut c.planes[axis.dim()][side]);
            fill_face(
                state,
                domain,
                bcs.face(axis, side),
                gamma,
                t,
                axis,
                side,
                slot,
            );
        }
    }
}

/// Fill one axis's ghost layers on the masked faces. Decomposed runs call
/// this per axis, interleaved with halo exchanges, so the x → y → z fill
/// order (and thus every corner ghost) matches the single-block path.
pub fn fill_ghosts_axis<R: Real, S: Storage<R>>(
    state: &mut State<R, S>,
    domain: &Domain,
    bcs: &BcSet,
    gamma: f64,
    t: f64,
    axis: Axis,
    mask: &FaceMask,
) {
    for side in 0..2 {
        if !mask[axis.dim()][side] {
            continue;
        }
        fill_face(
            state,
            domain,
            bcs.face(axis, side),
            gamma,
            t,
            axis,
            side,
            None,
        );
    }
}

/// [`fill_ghosts_axis`] with inflow-plane memoization for static profiles —
/// the decomposed runner's per-axis analogue of [`fill_ghosts_cached`], so
/// halo-exchanging ranks that own an inflow wall stop re-evaluating the
/// engine-array `tanh` plane every stage. The replayed values are exactly
/// what the profile would return (it is a pure function of position), so the
/// fill stays bit-identical to the uncached path.
#[allow(clippy::too_many_arguments)]
pub fn fill_ghosts_axis_cached<R: Real, S: Storage<R>>(
    state: &mut State<R, S>,
    domain: &Domain,
    bcs: &BcSet,
    gamma: f64,
    t: f64,
    axis: Axis,
    mask: &FaceMask,
    cache: &mut InflowCache,
) {
    for side in 0..2 {
        if !mask[axis.dim()][side] {
            continue;
        }
        let slot = &mut cache.planes[axis.dim()][side];
        fill_face(
            state,
            domain,
            bcs.face(axis, side),
            gamma,
            t,
            axis,
            side,
            Some(slot),
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn fill_face<R: Real, S: Storage<R>>(
    state: &mut State<R, S>,
    domain: &Domain,
    bc: &Bc,
    gamma: f64,
    t: f64,
    axis: Axis,
    side: usize,
    cache_slot: Option<&mut Option<Vec<Prim<f64>>>>,
) {
    if let Some(kind) = bc.ghost_copy() {
        copy_face(state.fields_mut(), axis, side, kind, 1 + axis.dim());
        return;
    }
    let shape = state.shape();
    let n = shape.extent(axis) as i32;
    let ng = shape.ghosts(axis) as i32;
    let g = R::from_f64(gamma);

    // Static inflow profiles: evaluate the plane once, replay thereafter.
    // The replayed values are exactly what `profile.prim` would return (the
    // profile is a pure function of position), so the fill is bit-identical.
    if let (Bc::InflowProfile(profile), Some(slot)) = (bc, cache_slot) {
        if !profile.time_varying() {
            let vals = slot.get_or_insert_with(|| {
                let mut vals = Vec::new();
                for l in 1..=ng {
                    let ghost = if side == 0 { -l } else { n - 1 + l };
                    for (b, a) in cross_section(shape, axis) {
                        let (i, j, k) = assemble(axis, ghost, a, b);
                        vals.push(profile.prim(domain.cell_center(i, j, k), t));
                    }
                }
                vals
            });
            let mut it = vals.iter();
            for l in 1..=ng {
                let ghost = if side == 0 { -l } else { n - 1 + l };
                for (b, a) in cross_section(shape, axis) {
                    let (i, j, k) = assemble(axis, ghost, a, b);
                    let pr = it.next().expect("inflow cache shape mismatch");
                    let prr: Prim<R> =
                        Prim::from_f64(pr.rho, [pr.vel[0], pr.vel[1], pr.vel[2]], pr.p);
                    state.set_cons(i, j, k, prr.to_cons(g));
                }
            }
            return;
        }
    }

    // Dirichlet faces: one state per ghost cell, layer l = 1..=ng measured
    // outward from the boundary.
    for l in 1..=ng {
        let ghost = if side == 0 { -l } else { n - 1 + l };
        for (b, a) in cross_section(shape, axis) {
            let (i, j, k) = assemble(axis, ghost, a, b);
            let pr = match bc {
                Bc::InflowProfile(profile) => profile.prim(domain.cell_center(i, j, k), t),
                Bc::Inflow(pr) => *pr,
                Bc::Periodic | Bc::Outflow | Bc::Reflective => unreachable!("copied above"),
            };
            let prr: Prim<R> = Prim::from_f64(pr.rho, [pr.vel[0], pr.vel[1], pr.vel[2]], pr.p);
            state.set_cons(i, j, k, prr.to_cons(g));
        }
    }
}

/// How a copy-type face fills its ghost layers: every ghost cell takes the
/// stored word of one cell on its own grid line (the line along the face
/// normal), so no value is widened to compute precision and narrowed back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GhostCopy {
    /// Periodic: ghost layer `l` beyond one face copies the `l`-th interior
    /// layer inside the opposite face.
    Wrap,
    /// Zero-gradient outflow: every ghost layer copies the boundary layer.
    Extend,
    /// Slip wall: ghost layer `l` copies its mirror image, interior layer
    /// `l` inside the same face.
    Mirror,
}

impl GhostCopy {
    /// Axis coordinate whose word ghost layer `l` (`1..=ng`, counted
    /// outward) on `side` copies, on an axis of `n` interior cells.
    #[inline]
    fn source(self, side: usize, n: i32, l: i32) -> i32 {
        match (self, side) {
            (GhostCopy::Wrap, 0) => n - l,
            (GhostCopy::Wrap, _) => l - 1,
            (GhostCopy::Extend, 0) => 0,
            (GhostCopy::Extend, _) => n - 1,
            (GhostCopy::Mirror, 0) => l - 1,
            (GhostCopy::Mirror, _) => n - l,
        }
    }
}

impl Bc {
    /// The word copy that fills this face, or `None` for the inflow faces,
    /// which impose a state per ghost cell.
    fn ghost_copy(&self) -> Option<GhostCopy> {
        match self {
            Bc::Periodic => Some(GhostCopy::Wrap),
            Bc::Outflow => Some(GhostCopy::Extend),
            Bc::Reflective => Some(GhostCopy::Mirror),
            Bc::Inflow(_) | Bc::InflowProfile(_) => None,
        }
    }
}

/// Fill the ghost layers beyond `side` of `axis` in every field of a stored
/// tuple by copying stored words, over the full stored cross-section. A
/// [`GhostCopy::Mirror`] face then negates field `normal`, the momentum
/// normal to the face.
pub fn copy_face<R: Real, S: Storage<R>, const NF: usize>(
    fields: [&mut Field<R, S>; NF],
    axis: Axis,
    side: usize,
    kind: GhostCopy,
    normal: usize,
) {
    for (v, f) in fields.into_iter().enumerate() {
        copy_ghost_layers(
            f,
            axis,
            side,
            kind,
            kind == GhostCopy::Mirror && v == normal,
        );
    }
}

/// Fill the ghost layers beyond `side` of `axis` over the full stored
/// cross-section (transverse ghosts included, so corners follow the
/// x → y → z fill order) by copying stored words. With `negate`, each
/// copied value changes sign.
///
/// A run of `stride(axis)` contiguous cells shares one coordinate along
/// `axis`: a whole z-plane for z, one x-row for y, a single cell for x. Each
/// run is one `copy_within`, and each x-row gets all of its ghost layers in
/// one visit. Layers are written outward in order on every grid line, so a
/// source that is itself a ghost (an axis shorter than the ghost width)
/// reads what the per-cell fill would have read.
fn copy_ghost_layers<R: Real, S: Storage<R>>(
    field: &mut Field<R, S>,
    axis: Axis,
    side: usize,
    kind: GhostCopy,
    negate: bool,
) {
    let shape = field.shape();
    let n = shape.extent(axis) as i32;
    let ng = shape.ghosts(axis) as i32;
    let run = shape.stride(axis);
    let block = run * shape.total(axis);
    let data = field.packed_mut();
    for base in (0..data.len()).step_by(block) {
        for l in 1..=ng {
            let ghost = if side == 0 { -l } else { n - 1 + l };
            let dst = base + (ghost + ng) as usize * run;
            let src = base + (kind.source(side, n, l) + ng) as usize * run;
            if run == 1 {
                data[dst] = data[src];
            } else {
                data.copy_within(src..src + run, dst);
            }
            if negate {
                for p in &mut data[dst..dst + run] {
                    *p = S::pack(-S::unpack(*p));
                }
            }
        }
    }
}

/// Fill ghost layers of a scalar field (the entropic pressure Σ).
///
/// Periodic axes wrap; every other BC kind gets zero-gradient, which is the
/// natural Neumann closure of the elliptic operator at physical boundaries.
pub fn fill_scalar_ghosts<R: Real, S: Storage<R>>(
    field: &mut Field<R, S>,
    bcs: &BcSet,
    mask: &FaceMask,
) {
    let shape = field.shape();
    for axis in [Axis::X, Axis::Y, Axis::Z] {
        if !shape.is_active(axis) {
            continue;
        }
        fill_scalar_ghosts_axis(field, bcs, axis, mask);
    }
}

/// One axis of [`fill_scalar_ghosts`] (decomposed-run building block).
pub fn fill_scalar_ghosts_axis<R: Real, S: Storage<R>>(
    field: &mut Field<R, S>,
    bcs: &BcSet,
    axis: Axis,
    mask: &FaceMask,
) {
    for side in 0..2 {
        if !mask[axis.dim()][side] {
            continue;
        }
        let kind = match bcs.face(axis, side) {
            Bc::Periodic => GhostCopy::Wrap,
            _ => GhostCopy::Extend,
        };
        copy_ghost_layers(field, axis, side, kind, false);
    }
}

/// Iterate over the full stored cross-section perpendicular to `axis`
/// (including ghost rows of other axes, so corners get filled).
fn cross_section(shape: GridShape, axis: Axis) -> impl Iterator<Item = (i32, i32)> {
    let (ea, eb) = match axis {
        Axis::X => (Axis::Y, Axis::Z),
        Axis::Y => (Axis::X, Axis::Z),
        Axis::Z => (Axis::X, Axis::Y),
    };
    let (ga, gb) = (shape.ghosts(ea) as i32, shape.ghosts(eb) as i32);
    let (na, nb) = (shape.extent(ea) as i32, shape.extent(eb) as i32);
    (-gb..nb + gb).flat_map(move |b| (-ga..na + ga).map(move |a| (b, a)))
}

/// Build `(i, j, k)` from the axis coordinate `c` and cross-section coords.
/// For `axis = X`, `(a, b) = (j... )`: a is the first non-axis coordinate in
/// x,y,z order, b the second.
#[inline]
fn assemble(axis: Axis, c: i32, a: i32, b: i32) -> (i32, i32, i32) {
    match axis {
        Axis::X => (c, a, b),
        Axis::Y => (a, c, b),
        Axis::Z => (a, b, c),
    }
}

/// The per-cell fills the word copies replaced: every ghost cell is read
/// and written through `cons_at`/`set_cons` (or `at`/`set`) in compute
/// precision. Kept as the reference the packed fills must match bit for bit.
#[cfg(test)]
mod oracle {
    use super::*;

    pub fn fill_ghosts<R: Real, S: Storage<R>>(
        state: &mut State<R, S>,
        domain: &Domain,
        bcs: &BcSet,
        gamma: f64,
        t: f64,
        mask: &FaceMask,
    ) {
        for axis in Axis::ALL {
            if state.shape().is_active(axis) {
                fill_ghosts_axis(state, domain, bcs, gamma, t, axis, mask);
            }
        }
    }

    pub fn fill_ghosts_axis<R: Real, S: Storage<R>>(
        state: &mut State<R, S>,
        domain: &Domain,
        bcs: &BcSet,
        gamma: f64,
        t: f64,
        axis: Axis,
        mask: &FaceMask,
    ) {
        let shape = state.shape();
        let n = shape.extent(axis) as i32;
        let ng = shape.ghosts(axis) as i32;
        let g = R::from_f64(gamma);
        for side in 0..2 {
            if !mask[axis.dim()][side] {
                continue;
            }
            for l in 1..=ng {
                let ghost = if side == 0 { -l } else { n - 1 + l };
                for (b, a) in cross_section(shape, axis) {
                    let (i, j, k) = assemble(axis, ghost, a, b);
                    let from = |src: i32| assemble(axis, src, a, b);
                    let q = match bcs.face(axis, side) {
                        Bc::Periodic => {
                            let (si, sj, sk) = from(if side == 0 { n - l } else { l - 1 });
                            state.cons_at(si, sj, sk)
                        }
                        Bc::Outflow => {
                            let (si, sj, sk) = from(if side == 0 { 0 } else { n - 1 });
                            state.cons_at(si, sj, sk)
                        }
                        Bc::Reflective => {
                            let (si, sj, sk) = from(if side == 0 { l - 1 } else { n - l });
                            let mut q = state.cons_at(si, sj, sk);
                            q[1 + axis.dim()] = -q[1 + axis.dim()];
                            q
                        }
                        Bc::Inflow(pr) => {
                            let prr: Prim<R> = Prim::from_f64(pr.rho, pr.vel, pr.p);
                            prr.to_cons(g)
                        }
                        Bc::InflowProfile(profile) => {
                            let pr = profile.prim(domain.cell_center(i, j, k), t);
                            let prr: Prim<R> = Prim::from_f64(pr.rho, pr.vel, pr.p);
                            prr.to_cons(g)
                        }
                    };
                    state.set_cons(i, j, k, q);
                }
            }
        }
    }

    pub fn fill_scalar_ghosts_axis<R: Real, S: Storage<R>>(
        field: &mut Field<R, S>,
        bcs: &BcSet,
        axis: Axis,
        mask: &FaceMask,
    ) {
        let shape = field.shape();
        let n = shape.extent(axis) as i32;
        let ng = shape.ghosts(axis) as i32;
        for side in 0..2 {
            if !mask[axis.dim()][side] {
                continue;
            }
            let periodic = matches!(bcs.face(axis, side), Bc::Periodic);
            for l in 1..=ng {
                let ghost = if side == 0 { -l } else { n - 1 + l };
                let src = match (periodic, side) {
                    (true, 0) => n - l,
                    (true, _) => l - 1,
                    (false, 0) => 0,
                    (false, _) => n - 1,
                };
                for (b, a) in cross_section(shape, axis) {
                    let (i, j, k) = assemble(axis, ghost, a, b);
                    let (si, sj, sk) = assemble(axis, src, a, b);
                    let v = field.at(si, sj, sk);
                    field.set(i, j, k, v);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igr_prec::{StoreF16, StoreF32, StoreF64};

    type St = State<f64, StoreF64>;

    fn linear_state(shape: GridShape) -> (St, Domain) {
        let domain = Domain::unit(shape);
        let mut s = St::zeros(shape);
        s.set_prim_field(&domain, 1.4, |p| {
            Prim::new(1.0 + 0.1 * p[0] + 0.2 * p[1], [0.5, -0.25, 0.1], 1.0)
        });
        (s, domain)
    }

    #[test]
    fn periodic_fill_wraps_interior() {
        let shape = GridShape::new(8, 4, 1, 3);
        let (mut s, d) = linear_state(shape);
        fill_ghosts(&mut s, &d, &BcSet::all_periodic(), 1.4, 0.0, &ALL_FACES);
        for j in 0..4 {
            for l in 1..=3 {
                assert_eq!(s.rho.at(-l, j, 0), s.rho.at(8 - l, j, 0));
                assert_eq!(s.rho.at(7 + l, j, 0), s.rho.at(l - 1, j, 0));
            }
        }
    }

    #[test]
    fn outflow_fill_is_zero_gradient() {
        let shape = GridShape::new(8, 1, 1, 3);
        let (mut s, d) = linear_state(shape);
        fill_ghosts(&mut s, &d, &BcSet::all_outflow(), 1.4, 0.0, &ALL_FACES);
        for l in 1..=3 {
            assert_eq!(s.rho.at(-l, 0, 0), s.rho.at(0, 0, 0));
            assert_eq!(s.en.at(7 + l, 0, 0), s.en.at(7, 0, 0));
        }
    }

    #[test]
    fn reflective_fill_mirrors_and_negates_normal_momentum() {
        let shape = GridShape::new(8, 1, 1, 3);
        let (mut s, d) = linear_state(shape);
        let bcs = BcSet::all_outflow()
            .with_face(Axis::X, 0, Bc::Reflective)
            .with_face(Axis::X, 1, Bc::Reflective);
        fill_ghosts(&mut s, &d, &bcs, 1.4, 0.0, &ALL_FACES);
        for l in 1..=3i32 {
            assert_eq!(s.rho.at(-l, 0, 0), s.rho.at(l - 1, 0, 0));
            assert_eq!(s.mx.at(-l, 0, 0), -s.mx.at(l - 1, 0, 0));
            // Tangential momentum is preserved.
            assert_eq!(s.my.at(-l, 0, 0), s.my.at(l - 1, 0, 0));
        }
    }

    #[test]
    fn inflow_fill_imposes_dirichlet_state() {
        let shape = GridShape::new(8, 1, 1, 3);
        let (mut s, d) = linear_state(shape);
        let jet = Prim::new(2.0, [3.0, 0.0, 0.0], 5.0);
        let bcs = BcSet::all_outflow().with_face(Axis::X, 0, Bc::Inflow(jet));
        fill_ghosts(&mut s, &d, &bcs, 1.4, 0.0, &ALL_FACES);
        let pr = s.prim_at(-1, 0, 0, 1.4);
        assert!((pr.rho - 2.0).abs() < 1e-14);
        assert!((pr.vel[0] - 3.0).abs() < 1e-14);
        assert!((pr.p - 5.0).abs() < 1e-14);
    }

    /// A jet-lip inflow plane; `moving` makes it depend on `t` and say so.
    struct Lips {
        moving: bool,
    }

    impl InflowProfile for Lips {
        fn prim(&self, pos: [f64; 3], t: f64) -> Prim<f64> {
            let t = if self.moving { t } else { 0.0 };
            let rho = 1.0 + (7.0 * pos[0]).tanh() + 0.3 * (5.0 * pos[1] + t).sin();
            Prim::new(rho, [0.1 * t, 0.0, 4.0], 1.5 + t)
        }
        fn time_varying(&self) -> bool {
            self.moving
        }
    }

    /// Every stored value, ghosts included, as raw bits.
    fn bits(s: &St) -> Vec<u64> {
        s.fields()
            .into_iter()
            .flat_map(|f| f.packed().iter().map(|v| v.to_bits()))
            .collect()
    }

    /// The cached fills must replay exactly the values the uncached fills
    /// evaluate, and keep replaying them on later fills: per axis (the
    /// decomposed runner) and for the full 3-D state (`BcGhostOps`), with a
    /// static profile (memoized) and a time-varying one (re-evaluated at
    /// every distinct `t`).
    #[test]
    fn cached_axis_fill_matches_uncached_bitwise() {
        let shape = GridShape::new(8, 6, 1, 3);
        let profile = Arc::new(Lips { moving: false });
        let bcs = BcSet::all_outflow().with_face(Axis::Y, 0, Bc::InflowProfile(profile));
        let (mut plain, d) = linear_state(shape);
        let mut cached = plain.clone();
        let mut cache = InflowCache::new();
        for _ in 0..3 {
            for axis in [Axis::X, Axis::Y] {
                fill_ghosts_axis(&mut plain, &d, &bcs, 1.4, 0.0, axis, &ALL_FACES);
                fill_ghosts_axis_cached(
                    &mut cached,
                    &d,
                    &bcs,
                    1.4,
                    0.0,
                    axis,
                    &ALL_FACES,
                    &mut cache,
                );
            }
            assert!(bits(&plain) == bits(&cached), "cached axis fill diverged");
        }
        assert!(cache.planes[1][0].is_some(), "static plane not memoized");

        let shape = GridShape::new(6, 5, 4, 3);
        for moving in [false, true] {
            let bcs = BcSet::all_outflow()
                .with_face(Axis::Z, 0, Bc::InflowProfile(Arc::new(Lips { moving })))
                .with_face(Axis::X, 1, Bc::Reflective);
            let (mut plain, d) = linear_state(shape);
            let mut cached = plain.clone();
            let mut cache = InflowCache::new();
            for t in [0.0, 0.25, 0.5, 1.0] {
                fill_ghosts(&mut plain, &d, &bcs, 1.4, t, &ALL_FACES);
                fill_ghosts_cached(&mut cached, &d, &bcs, 1.4, t, &ALL_FACES, &mut cache);
                assert!(
                    bits(&plain) == bits(&cached),
                    "cached 3-D fill diverged (moving = {moving}, t = {t})"
                );
            }
            assert_eq!(cache.planes[2][0].is_some(), !moving);
        }
    }

    /// Every stored word of every field, ghosts included, widened to f64
    /// bits (exact for the finite values stored here, so equal bits mean
    /// equal stored words at every precision).
    fn words<R: Real, S: Storage<R>>(fields: &[&Field<R, S>]) -> Vec<u64> {
        fields
            .iter()
            .flat_map(|f| f.packed().iter().map(|&p| S::unpack(p).to_f64().to_bits()))
            .collect()
    }

    /// Distinct, sign-mixed values in every stored cell (ghosts included, so
    /// a ghost the fill misses keeps a value no fill would write).
    fn scrambled<R: Real, S: Storage<R>>(shape: GridShape, salt: u64) -> State<R, S> {
        let mut s = State::<R, S>::zeros(shape);
        let mut x = salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        for (v, f) in s.fields_mut().into_iter().enumerate() {
            for p in f.packed_mut() {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let u = (x >> 11) as f64 / (1u64 << 53) as f64;
                let val = if v == 0 || v == 4 { 0.5 + u } else { u - 0.5 };
                *p = S::pack(R::from_f64(val));
            }
        }
        s
    }

    /// The packed fills against the per-cell oracle, bit for bit, over every
    /// `Bc` kind on every face of 1-D, 2-D and non-cubic 3-D blocks (one
    /// with an axis shorter than the ghost width), under the full and a
    /// partial face mask, through every public fill entry point.
    fn fills_match_oracle_at<R: Real, S: Storage<R>>() {
        let kinds: [Bc; 6] = [
            Bc::Periodic,
            Bc::Outflow,
            Bc::Reflective,
            Bc::Inflow(Prim::new(2.0, [3.0, -0.5, 0.25], 5.0)),
            Bc::InflowProfile(Arc::new(Lips { moving: false })),
            Bc::InflowProfile(Arc::new(Lips { moving: true })),
        ];
        let shapes = [
            GridShape::new(9, 1, 1, 3),
            GridShape::new(7, 5, 1, 3),
            GridShape::new(6, 5, 4, 3),
            GridShape::new(5, 2, 3, 3),
        ];
        let masks: [FaceMask; 2] = [ALL_FACES, [[true, false], [false, true], [true, true]]];
        for (si, &shape) in shapes.iter().enumerate() {
            let d = Domain::unit(shape);
            for rot in 0..kinds.len() {
                // Face (axis d, side s) takes kind (rot + 2d + s): over all
                // rotations every face sees every kind, next to varied
                // neighbours at the edges and corners.
                let bcs = BcSet {
                    faces: std::array::from_fn(|d| {
                        std::array::from_fn(|s| kinds[(rot + 2 * d + s) % kinds.len()].clone())
                    }),
                };
                for (mi, mask) in masks.iter().enumerate() {
                    let what = format!("{} shape {si} rot {rot} mask {mi}", S::MODE);
                    let start = scrambled::<R, S>(shape, (si * 100 + rot * 10 + mi) as u64);
                    let axes = || Axis::ALL.into_iter().filter(|&a| shape.is_active(a));

                    let mut want = start.clone();
                    let mut got = start.clone();
                    let mut cache = InflowCache::new();
                    let mut cached = start.clone();
                    let mut axis_cache = InflowCache::new();
                    let mut by_axis = start.clone();
                    let mut by_axis_cached = start.clone();
                    for t in [0.0, 0.5, 0.5] {
                        oracle::fill_ghosts(&mut want, &d, &bcs, 1.4, t, mask);
                        fill_ghosts(&mut got, &d, &bcs, 1.4, t, mask);
                        fill_ghosts_cached(&mut cached, &d, &bcs, 1.4, t, mask, &mut cache);
                        for axis in axes() {
                            fill_ghosts_axis(&mut by_axis, &d, &bcs, 1.4, t, axis, mask);
                            fill_ghosts_axis_cached(
                                &mut by_axis_cached,
                                &d,
                                &bcs,
                                1.4,
                                t,
                                axis,
                                mask,
                                &mut axis_cache,
                            );
                        }
                        let want = words(&want.fields());
                        assert!(want == words(&got.fields()), "fill_ghosts, {what}");
                        assert!(
                            want == words(&cached.fields()),
                            "fill_ghosts_cached, {what}"
                        );
                        assert!(want == words(&by_axis.fields()), "fill_ghosts_axis, {what}");
                        assert!(
                            want == words(&by_axis_cached.fields()),
                            "fill_ghosts_axis_cached, {what}"
                        );
                    }

                    let mut want = start.rho.clone();
                    let mut got = start.rho.clone();
                    let mut by_axis = start.rho.clone();
                    for axis in axes() {
                        oracle::fill_scalar_ghosts_axis(&mut want, &bcs, axis, mask);
                        fill_scalar_ghosts_axis(&mut by_axis, &bcs, axis, mask);
                    }
                    fill_scalar_ghosts(&mut got, &bcs, mask);
                    let want = words(&[&want]);
                    assert!(want == words(&[&got]), "fill_scalar_ghosts, {what}");
                    assert!(
                        want == words(&[&by_axis]),
                        "fill_scalar_ghosts_axis, {what}"
                    );
                }
            }
        }
    }

    #[test]
    fn packed_fills_match_per_cell_oracle_bitwise() {
        fills_match_oracle_at::<f64, StoreF64>();
        fills_match_oracle_at::<f32, StoreF32>();
        fills_match_oracle_at::<f32, StoreF16>();
    }

    #[test]
    fn inflow_profile_sees_ghost_positions_and_time() {
        let shape = GridShape::new(4, 4, 1, 2);
        let (mut s, d) = linear_state(shape);
        let profile =
            Arc::new(|pos: [f64; 3], t: f64| Prim::new(1.0 + pos[1] + 10.0 * t, [0.0; 3], 1.0));
        let bcs = BcSet::all_outflow().with_face(Axis::X, 0, Bc::InflowProfile(profile));
        fill_ghosts(&mut s, &d, &bcs, 1.4, 0.25, &ALL_FACES);
        // Ghost at j=1: y-center = 0.375 -> rho = 1 + 0.375 + 2.5.
        let pr = s.prim_at(-1, 1, 0, 1.4);
        assert!((pr.rho - 3.875).abs() < 1e-12);
    }

    #[test]
    fn face_mask_skips_masked_faces() {
        let shape = GridShape::new(8, 1, 1, 3);
        let (mut s, d) = linear_state(shape);
        // Poison the ghosts, then fill only the high side.
        for l in 1..=3 {
            s.rho.set(-l, 0, 0, -99.0);
            s.rho.set(7 + l, 0, 0, -99.0);
        }
        let mask: FaceMask = [[false, true], [true, true], [true, true]];
        fill_ghosts(&mut s, &d, &BcSet::all_outflow(), 1.4, 0.0, &mask);
        assert_eq!(s.rho.at(-1, 0, 0), -99.0, "low face must stay untouched");
        assert_eq!(s.rho.at(8, 0, 0), s.rho.at(7, 0, 0));
    }

    #[test]
    fn corner_ghosts_are_consistent_for_periodic_fill() {
        let shape = GridShape::new(4, 4, 1, 2);
        let (mut s, d) = linear_state(shape);
        fill_ghosts(&mut s, &d, &BcSet::all_periodic(), 1.4, 0.0, &ALL_FACES);
        // Corner ghost (-1,-1) must equal interior (3,3) under double wrap.
        assert_eq!(s.rho.at(-1, -1, 0), s.rho.at(3, 3, 0));
        assert_eq!(s.rho.at(5, -2, 0), s.rho.at(1, 2, 0));
    }

    #[test]
    fn scalar_ghost_fill_periodic_and_neumann() {
        let shape = GridShape::new(6, 1, 1, 3);
        let mut f: Field<f64, StoreF64> = Field::zeros(shape);
        for i in 0..6 {
            f.set(i, 0, 0, i as f64);
        }
        let mut fp = f.clone();
        fill_scalar_ghosts(&mut fp, &BcSet::all_periodic(), &ALL_FACES);
        assert_eq!(fp.at(-1, 0, 0), 5.0);
        assert_eq!(fp.at(6, 0, 0), 0.0);
        let mut fn_ = f.clone();
        fill_scalar_ghosts(&mut fn_, &BcSet::all_outflow(), &ALL_FACES);
        assert_eq!(fn_.at(-1, 0, 0), 0.0);
        assert_eq!(fn_.at(6, 0, 0), 5.0);
        assert_eq!(fn_.at(8, 0, 0), 5.0);
    }

    #[test]
    fn periodicity_must_be_paired() {
        let bad = BcSet::all_periodic().with_face(Axis::Y, 0, Bc::Outflow);
        assert!(bad.validate().is_err());
        assert!(BcSet::all_periodic().validate().is_ok());
        let flags = BcSet::all_periodic().periodic_axes();
        assert_eq!(flags, [true, true, true]);
    }
}
