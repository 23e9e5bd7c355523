//! Ghost-cell fill for the two-fluid state.
//!
//! Mirrors `igr_core::bc` (axis-by-axis over the full stored cross-section,
//! so edge and corner ghosts are consistent) but carries the seven-field
//! state and mixture inflow profiles. Periodic, outflow and reflective faces
//! share the single-fluid word copy ([`igr_core::bc::copy_face`]).

use crate::eos::{MixEos, MixPrim, I_MX};
use crate::state::SpeciesState;
use igr_core::bc::{copy_face, GhostCopy};
use igr_core::Fields;
use igr_grid::{Axis, Domain, GridShape};
use igr_prec::{Real, Storage};
use std::sync::Arc;

/// A spatially varying, time-dependent mixture inflow (e.g. a two-gas jet
/// array: exhaust species into ambient air).
pub trait MixInflowProfile: Send + Sync {
    /// Primitive mixture state imposed at position `pos` and time `t`.
    fn prim(&self, pos: [f64; 3], t: f64) -> MixPrim<f64>;
}

impl<F> MixInflowProfile for F
where
    F: Fn([f64; 3], f64) -> MixPrim<f64> + Send + Sync,
{
    fn prim(&self, pos: [f64; 3], t: f64) -> MixPrim<f64> {
        self(pos, t)
    }
}

/// Boundary condition on one face of the two-fluid domain.
#[derive(Clone)]
pub enum SpeciesBc {
    /// Wrap to the opposite side.
    Periodic,
    /// Zero-gradient extrapolation.
    Outflow,
    /// Slip wall: mirror the interior, negate the normal momentum.
    Reflective,
    /// Uniform Dirichlet inflow.
    Inflow(MixPrim<f64>),
    /// Spatially varying Dirichlet inflow.
    InflowProfile(Arc<dyn MixInflowProfile>),
}

impl std::fmt::Debug for SpeciesBc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpeciesBc::Periodic => write!(f, "Periodic"),
            SpeciesBc::Outflow => write!(f, "Outflow"),
            SpeciesBc::Reflective => write!(f, "Reflective"),
            SpeciesBc::Inflow(p) => write!(f, "Inflow({p:?})"),
            SpeciesBc::InflowProfile(_) => write!(f, "InflowProfile(..)"),
        }
    }
}

/// Boundary conditions on all six faces; `faces[axis][0]` is the low side.
#[derive(Clone, Debug)]
pub struct SpeciesBcSet {
    /// Per-axis `[low, high]` conditions.
    pub faces: [[SpeciesBc; 2]; 3],
}

impl SpeciesBcSet {
    /// Periodic on every face.
    pub fn all_periodic() -> Self {
        SpeciesBcSet {
            faces: std::array::from_fn(|_| [SpeciesBc::Periodic, SpeciesBc::Periodic]),
        }
    }

    /// Zero-gradient outflow on every face.
    pub fn all_outflow() -> Self {
        SpeciesBcSet {
            faces: std::array::from_fn(|_| [SpeciesBc::Outflow, SpeciesBc::Outflow]),
        }
    }

    /// Replace one face's condition (builder style).
    pub fn with_face(mut self, axis: Axis, side: usize, bc: SpeciesBc) -> Self {
        self.faces[axis.dim()][side] = bc;
        self
    }

    /// The condition on one face.
    pub fn face(&self, axis: Axis, side: usize) -> &SpeciesBc {
        &self.faces[axis.dim()][side]
    }

    /// Periodic pairs must match, as in the single-fluid solver.
    pub fn validate(&self) -> Result<(), String> {
        for d in 0..3 {
            let lo = matches!(self.faces[d][0], SpeciesBc::Periodic);
            let hi = matches!(self.faces[d][1], SpeciesBc::Periodic);
            if lo != hi {
                return Err(format!("axis {d}: periodic BCs must come in pairs"));
            }
        }
        Ok(())
    }

    /// The equivalent single-fluid `BcSet` for *scalar* ghost fills (Σ):
    /// only periodic-vs-Neumann matters there, so every non-periodic face
    /// maps to `Outflow`.
    pub fn scalar_bcs(&self) -> igr_core::bc::BcSet {
        let mut out = igr_core::bc::BcSet::all_outflow();
        for (d, axis) in Axis::ALL.iter().enumerate() {
            for side in 0..2 {
                if matches!(self.faces[d][side], SpeciesBc::Periodic) {
                    out = out.with_face(*axis, side, igr_core::bc::Bc::Periodic);
                }
            }
        }
        out
    }
}

/// Fill every ghost layer of the two-fluid state at time `t`.
pub fn fill_ghosts<R: Real, S: Storage<R>>(
    state: &mut SpeciesState<R, S>,
    domain: &Domain,
    bcs: &SpeciesBcSet,
    eos: &MixEos,
    t: f64,
) {
    let shape = state.shape();
    for axis in [Axis::X, Axis::Y, Axis::Z] {
        if !shape.is_active(axis) {
            continue;
        }
        for side in 0..2 {
            fill_face(state, domain, bcs.face(axis, side), eos, t, axis, side);
        }
    }
}

fn fill_face<R: Real, S: Storage<R>>(
    state: &mut SpeciesState<R, S>,
    domain: &Domain,
    bc: &SpeciesBc,
    eos: &MixEos,
    t: f64,
    axis: Axis,
    side: usize,
) {
    let kind = match bc {
        SpeciesBc::Periodic => Some(GhostCopy::Wrap),
        SpeciesBc::Outflow => Some(GhostCopy::Extend),
        SpeciesBc::Reflective => Some(GhostCopy::Mirror),
        SpeciesBc::Inflow(_) | SpeciesBc::InflowProfile(_) => None,
    };
    if let Some(kind) = kind {
        copy_face(state.fields_mut(), axis, side, kind, I_MX + axis.dim());
        return;
    }
    let shape = state.shape();
    let n = shape.extent(axis) as i32;
    let ng = shape.ghosts(axis) as i32;

    for l in 1..=ng {
        let ghost = if side == 0 { -l } else { n - 1 + l };
        for (b, a) in cross_section(shape, axis) {
            let (i, j, k) = assemble(axis, ghost, a, b);
            let pr = match bc {
                SpeciesBc::InflowProfile(profile) => profile.prim(domain.cell_center(i, j, k), t),
                SpeciesBc::Inflow(pr) => *pr,
                SpeciesBc::Periodic | SpeciesBc::Outflow | SpeciesBc::Reflective => {
                    unreachable!("copied above")
                }
            };
            let prr: MixPrim<R> = MixPrim::from_f64([pr.ar[0], pr.ar[1]], pr.vel, pr.p, pr.alpha);
            state.set_cons(i, j, k, prr.to_cons(eos));
        }
    }
}

/// Full stored cross-section perpendicular to `axis` (ghost rows of the
/// other axes included, so corners get filled by the sequential x→y→z pass).
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

#[inline]
fn assemble(axis: Axis, c: i32, a: i32, b: i32) -> (i32, i32, i32) {
    match axis {
        Axis::X => (c, a, b),
        Axis::Y => (a, c, b),
        Axis::Z => (a, b, c),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eos::I_A;
    use igr_prec::StoreF64;

    type St = SpeciesState<f64, StoreF64>;

    const EOS: MixEos = MixEos {
        gamma1: 1.4,
        gamma2: 1.67,
    };

    fn graded_state(shape: GridShape) -> (St, Domain) {
        let domain = Domain::unit(shape);
        let mut s = St::zeros(shape);
        s.set_prim_field(&domain, &EOS, |p| {
            let a = (0.2 + 0.6 * p[0]).clamp(0.0, 1.0);
            MixPrim::new(
                [a * 1.0, (1.0 - a) * 0.5],
                [0.5, -0.25, 0.0],
                1.0 + 0.1 * p[0],
                a,
            )
        });
        (s, domain)
    }

    #[test]
    fn periodic_fill_wraps_all_seven_fields() {
        let shape = GridShape::new(8, 4, 1, 3);
        let (mut s, d) = graded_state(shape);
        fill_ghosts(&mut s, &d, &SpeciesBcSet::all_periodic(), &EOS, 0.0);
        for j in 0..4 {
            for l in 1..=3 {
                assert_eq!(s.cons_at(-l, j, 0), s.cons_at(8 - l, j, 0));
                assert_eq!(s.cons_at(7 + l, j, 0), s.cons_at(l - 1, j, 0));
            }
        }
    }

    #[test]
    fn reflective_fill_negates_only_normal_momentum() {
        let shape = GridShape::new(8, 1, 1, 3);
        let (mut s, d) = graded_state(shape);
        let bcs = SpeciesBcSet::all_outflow()
            .with_face(Axis::X, 0, SpeciesBc::Reflective)
            .with_face(Axis::X, 1, SpeciesBc::Reflective);
        fill_ghosts(&mut s, &d, &bcs, &EOS, 0.0);
        for l in 1..=3i32 {
            let g = s.cons_at(-l, 0, 0);
            let m = s.cons_at(l - 1, 0, 0);
            assert_eq!(g[I_MX], -m[I_MX]);
            assert_eq!(g[I_MX + 1], m[I_MX + 1]);
            assert_eq!(g[I_A], m[I_A]);
        }
    }

    #[test]
    fn inflow_imposes_the_mixture_state() {
        let shape = GridShape::new(8, 1, 1, 3);
        let (mut s, d) = graded_state(shape);
        let jet = MixPrim::new([2.0, 0.0], [3.0, 0.0, 0.0], 5.0, 1.0);
        let bcs = SpeciesBcSet::all_outflow().with_face(Axis::X, 0, SpeciesBc::Inflow(jet));
        fill_ghosts(&mut s, &d, &bcs, &EOS, 0.0);
        let pr = s.prim_at(-1, 0, 0, &EOS);
        assert!((pr.ar[0] - 2.0).abs() < 1e-14);
        assert!((pr.p - 5.0).abs() < 1e-13);
        assert!((pr.alpha - 1.0).abs() < 1e-14);
    }

    #[test]
    fn inflow_profile_sees_position_and_time() {
        let shape = GridShape::new(4, 4, 1, 2);
        let (mut s, d) = graded_state(shape);
        let profile = Arc::new(|pos: [f64; 3], t: f64| {
            MixPrim::new([1.0 + pos[1] + t, 0.0], [0.0; 3], 1.0, 1.0)
        });
        let bcs =
            SpeciesBcSet::all_outflow().with_face(Axis::X, 0, SpeciesBc::InflowProfile(profile));
        fill_ghosts(&mut s, &d, &bcs, &EOS, 0.5);
        let pr = s.prim_at(-1, 1, 0, &EOS);
        // y-center of j=1 on a 4-cell unit axis = 0.375.
        assert!((pr.ar[0] - (1.0 + 0.375 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn scalar_bcs_preserve_periodicity_only() {
        let bcs = SpeciesBcSet::all_outflow()
            .with_face(Axis::Y, 0, SpeciesBc::Periodic)
            .with_face(Axis::Y, 1, SpeciesBc::Periodic)
            .with_face(
                Axis::X,
                0,
                SpeciesBc::Inflow(MixPrim::pure1(1.0, [0.0; 3], 1.0)),
            );
        let sb = bcs.scalar_bcs();
        assert!(matches!(sb.face(Axis::Y, 0), igr_core::bc::Bc::Periodic));
        assert!(matches!(sb.face(Axis::X, 0), igr_core::bc::Bc::Outflow));
        bcs.validate().unwrap();
    }

    #[test]
    fn unpaired_periodicity_is_rejected() {
        let bad = SpeciesBcSet::all_periodic().with_face(Axis::Z, 1, SpeciesBc::Outflow);
        assert!(bad.validate().is_err());
    }
}
