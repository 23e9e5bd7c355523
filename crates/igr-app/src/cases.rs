//! The case library: every workload the paper's evaluation uses.

use crate::jets::{three_engine_row, JetArrayInflow, JetConditions};
use igr_baseline::scheme::WenoConfig;
use igr_core::bc::{Bc, BcSet};
use igr_core::eos::Prim;
use igr_core::{IgrConfig, State};
use igr_grid::{Axis, Domain, GridShape};
use igr_prec::{Real, Storage};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// A fully specified problem: geometry, physics parameters, boundary
/// conditions, and initial state. Both schemes (IGR and the WENO baseline)
/// consume the same setup, which is what makes Table 3/Fig. 5-style
/// comparisons apples-to-apples.
#[derive(Clone)]
pub struct CaseSetup {
    /// Human-readable case name (report rows, file stems).
    pub name: String,
    /// The computational domain (shape, extents, ghost width).
    pub domain: Domain,
    /// Ratio of specific heats.
    pub gamma: f64,
    /// Shear viscosity (0 = inviscid).
    pub mu: f64,
    /// Bulk viscosity (0 = inviscid).
    pub zeta: f64,
    /// Boundary conditions on the six faces.
    pub bc: BcSet,
    /// Initial primitive state as a function of position.
    pub init: Arc<dyn Fn([f64; 3]) -> Prim<f64> + Send + Sync>,
    /// The engine-array inflow for jet cases (None for non-jet workloads) —
    /// diagnostics like [`crate::base::BaseHeatingReport`] need the layout.
    pub jet_inflow: Option<Arc<JetArrayInflow>>,
}

impl CaseSetup {
    /// IGR configuration for this case (paper defaults elsewhere).
    pub fn igr_config(&self) -> IgrConfig {
        IgrConfig {
            gamma: self.gamma,
            mu: self.mu,
            zeta: self.zeta,
            bc: self.bc.clone(),
            ..IgrConfig::default()
        }
    }

    /// Baseline configuration for this case.
    pub fn weno_config(&self) -> WenoConfig {
        WenoConfig {
            gamma: self.gamma,
            mu: self.mu,
            zeta: self.zeta,
            bc: self.bc.clone(),
            ..WenoConfig::default()
        }
    }

    /// Initial state in the requested precision.
    pub fn init_state<R: Real, S: Storage<R>>(&self) -> State<R, S> {
        let mut q = State::zeros(self.domain.shape);
        let f = &self.init;
        q.set_prim_field(&self.domain, self.gamma, |p| f(p));
        q
    }

    /// Ready-to-run IGR solver.
    pub fn igr_solver<R: Real, S: Storage<R>>(
        &self,
    ) -> igr_core::solver::Solver<R, S, igr_core::IgrScheme<R, S>, igr_core::solver::BcGhostOps>
    {
        igr_core::solver::igr_solver(self.igr_config(), self.domain, self.init_state())
    }

    /// Ready-to-run WENO+HLLC baseline solver.
    pub fn weno_solver<R: Real, S: Storage<R>>(
        &self,
    ) -> igr_core::solver::Solver<
        R,
        S,
        igr_baseline::WenoHllcScheme<R, S>,
        igr_core::solver::BcGhostOps,
    > {
        igr_baseline::scheme::weno_solver(self.weno_config(), self.domain, self.init_state())
    }
}

/// Sod shock tube on `[0, 1]` (validation ground truth via the exact
/// Riemann solver).
///
/// The initial jump is smoothed over two cells: a zero-width discontinuity
/// is not an admissible state for the *regularized* equations (its O(1/Δx)
/// gradient pumps a transient Σ spike whose acoustic remnant pollutes the
/// solution), and the smoothing is an O(Δx) perturbation of the exact-
/// solution comparison. Use [`sod_sharp`] for schemes that want the raw jump.
pub fn sod(n: usize) -> CaseSetup {
    let mut case = sod_sharp(n);
    let w = 2.0 / n as f64;
    case.init = Arc::new(move |p| {
        let blend = 0.5 * (1.0 - ((p[0] - 0.5) / w).tanh());
        Prim::new(0.125 + 0.875 * blend, [0.0; 3], 0.1 + 0.9 * blend)
    });
    case
}

/// Sod tube with the textbook zero-width initial discontinuity.
pub fn sod_sharp(n: usize) -> CaseSetup {
    let shape = GridShape::new(n, 1, 1, 3);
    CaseSetup {
        name: "sod".into(),
        domain: Domain::unit(shape),
        gamma: 1.4,
        mu: 0.0,
        zeta: 0.0,
        bc: BcSet::all_outflow(),
        init: Arc::new(|p| {
            if p[0] < 0.5 {
                Prim::new(1.0, [0.0; 3], 1.0)
            } else {
                Prim::new(0.125, [0.0; 3], 0.1)
            }
        }),
        jet_inflow: None,
    }
}

/// A steepening wave that forms a shock — Fig. 2(a)'s "shock problem".
/// `amp` sets the velocity amplitude (shock formation at t* ≈ 1/(amp·2π)).
pub fn steepening_wave(n: usize, amp: f64) -> CaseSetup {
    let shape = GridShape::new(n, 1, 1, 3);
    CaseSetup {
        name: "steepening-wave".into(),
        domain: Domain::unit(shape),
        gamma: 1.4,
        mu: 0.0,
        zeta: 0.0,
        bc: BcSet::all_periodic(),
        init: Arc::new(move |p| {
            Prim::new(
                1.0,
                [amp * (std::f64::consts::TAU * p[0]).sin(), 0.0, 0.0],
                1.0,
            )
        }),
        jet_inflow: None,
    }
}

/// Shu–Osher shock/entropy-wave interaction on `[-5, 5]`: a Mach-3 shock
/// runs into a sinusoidal density field. The canonical stress test of
/// Fig. 2's claim — a method must carry a strong shock *and* preserve the
/// oscillatory waves it excites downstream. Run to `t = 1.8`.
pub fn shu_osher(n: usize) -> CaseSetup {
    let shape = GridShape::new(n, 1, 1, 3);
    let domain = Domain::new([-5.0, 0.0, 0.0], [5.0, 1.0, 1.0], shape);
    let w = 2.0 * domain.dx(Axis::X); // admissible-data smoothing, as in sod()
    CaseSetup {
        name: "shu-osher".into(),
        domain,
        gamma: 1.4,
        mu: 0.0,
        zeta: 0.0,
        bc: BcSet::all_outflow(),
        init: Arc::new(move |p| {
            let x = p[0];
            let blend = 0.5 * (1.0 - ((x + 4.0) / w).tanh()); // 1 left of -4
            let rho_r = 1.0 + 0.2 * (5.0 * x).sin();
            Prim::new(
                rho_r + blend * (3.857143 - rho_r),
                [blend * 2.629369, 0.0, 0.0],
                1.0 + blend * (10.33333 - 1.0),
            )
        }),
        jet_inflow: None,
    }
}

/// A small-amplitude high-wavenumber acoustic packet — Fig. 2(b)'s
/// "oscillatory problem". Right-running simple wave with `k` periods.
pub fn acoustic_packet(n: usize, k: usize, amp: f64) -> CaseSetup {
    let shape = GridShape::new(n, 1, 1, 3);
    let gamma = 1.4;
    CaseSetup {
        name: "acoustic-packet".into(),
        domain: Domain::unit(shape),
        gamma,
        mu: 0.0,
        zeta: 0.0,
        bc: BcSet::all_periodic(),
        init: Arc::new(move |p| {
            let s = amp * (std::f64::consts::TAU * k as f64 * p[0]).sin();
            // Linear acoustic relations around (rho, p) = (1, 1).
            let c = (gamma * 1.0f64 / 1.0).sqrt();
            Prim::new(1.0 + s, [c * s, 0.0, 0.0], 1.0 + gamma * s)
        }),
        jet_inflow: None,
    }
}

/// 2-D isentropic vortex (periodic; exact solution is pure advection) —
/// the smooth-accuracy workhorse.
pub fn isentropic_vortex(n: usize) -> CaseSetup {
    let shape = GridShape::new(n, n, 1, 3);
    let gamma = 1.4;
    CaseSetup {
        name: "isentropic-vortex".into(),
        domain: Domain::new([-5.0, -5.0, 0.0], [5.0, 5.0, 1.0], shape),
        gamma,
        mu: 0.0,
        zeta: 0.0,
        bc: BcSet::all_periodic(),
        init: Arc::new(move |p| {
            let (x, y) = (p[0], p[1]);
            let beta = 5.0;
            let r2 = x * x + y * y;
            let factor = beta / std::f64::consts::TAU * (0.5 * (1.0 - r2)).exp();
            let du = -y * factor;
            let dv = x * factor;
            let dt_temp = -(gamma - 1.0) * beta * beta
                / (8.0 * gamma * std::f64::consts::PI * std::f64::consts::PI)
                * (1.0 - r2).exp();
            let temp = 1.0 + dt_temp;
            let rho = temp.powf(1.0 / (gamma - 1.0));
            let pres = temp.powf(gamma / (gamma - 1.0));
            Prim::new(rho, [1.0 + du, 0.5 + dv, 0.0], pres)
        }),
        jet_inflow: None,
    }
}

/// The representative Table 3 workload: a single Mach-10 jet entering a
/// 3-D box through the x=0 face. `n` is the resolution across the box; the
/// jet diameter spans ~n/4 cells.
pub fn single_jet_3d(n: usize) -> CaseSetup {
    let shape = GridShape::new(2 * n, n, n, 3);
    let domain = Domain::new([0.0, -0.5, -0.5], [2.0, 0.5, 0.5], shape);
    jet_case(
        "single-jet-3d",
        domain,
        crate::jets::single_engine(0.125),
        (1, 2),
        0,
    )
}

/// The Fig. 5 configuration: three engines in a row, 2-D (one cell deep in
/// z), exhausting along +y from the y=0 face, seeded with smooth random
/// noise (the paper seeds "with smooth, random noise in all cases").
pub fn three_engine_2d(n: usize, noise_amp: f64, seed: u64) -> CaseSetup {
    let shape = GridShape::new(2 * n, n, 1, 3);
    // z is the degenerate axis; center it on the engine plane (z = 0) so
    // the in-plane distance of the inflow profile carries no z offset.
    let domain = Domain::new([-1.0, 0.0, -0.5], [1.0, 1.0, 0.5], shape);
    let mut case = jet_case(
        "three-engine-2d",
        domain,
        three_engine_row(0.08, 0.3),
        (0, 2),
        1,
    );
    // Smooth random noise: a few low-wavenumber modes with random phases.
    let mut rng = StdRng::seed_from_u64(seed);
    let modes: Vec<(f64, f64, f64)> = (0..6)
        .map(|_| {
            (
                rng.gen_range(1.0..4.0f64).round(),
                rng.gen_range(1.0..4.0f64).round(),
                rng.gen_range(0.0..std::f64::consts::TAU),
            )
        })
        .collect();
    let base = case.init.clone();
    case.init = Arc::new(move |p| {
        let mut s = 0.0;
        for &(kx, ky, ph) in &modes {
            s += (std::f64::consts::TAU * (kx * p[0] + ky * p[1]) + ph).sin();
        }
        let pr = base(p);
        Prim::new(
            pr.rho * (1.0 + noise_amp * s / 6.0),
            pr.vel,
            pr.p * (1.0 + noise_amp * s / 6.0),
        )
    });
    case
}

/// The headline demonstration: the 33-engine Super-Heavy-inspired array
/// exhausting along +z, at laptop scale. `n` cells across the booster
/// diameter.
pub fn super_heavy_3d(n: usize) -> CaseSetup {
    let shape = GridShape::new(n, n, n, 3);
    let domain = Domain::new([-1.5, -1.5, 0.0], [1.5, 1.5, 3.0], shape);
    jet_case(
        "super-heavy-33",
        domain,
        crate::jets::super_heavy_33(1.0),
        (0, 1),
        2,
    )
}

/// A 2-D row of `n_engines` engines exhausting along +y at the given
/// conditions — the base-heating sweep workload (engine count × altitude,
/// the parameter plane §3 of the paper motivates; prior work topped out at
/// 7 engines).
pub fn engine_row_2d(n: usize, n_engines: usize, conditions: JetConditions) -> CaseSetup {
    assert!(n_engines >= 1);
    let shape = GridShape::new(2 * n, n, 1, 3);
    let domain = Domain::new([-1.0, 0.0, -0.5], [1.0, 1.0, 0.5], shape);
    // Fit the row into [-0.75, 0.75] regardless of count.
    let radius = (0.5 / n_engines as f64).min(0.08);
    let pitch = if n_engines > 1 {
        1.5 / (n_engines as f64 - 1.0)
    } else {
        0.0
    };
    let engines = (0..n_engines)
        .map(|i| {
            let x = if n_engines == 1 {
                0.0
            } else {
                -0.75 + i as f64 * pitch
            };
            crate::jets::Engine::new([x, 0.0], radius)
        })
        .collect();
    jet_case_with("engine-row-2d", domain, engines, (0, 2), 1, conditions)
}

/// Three engines in a row with the outer two gimbaled *inward* by `angle`
/// radians — a steering configuration that squeezes the center plume and
/// intensifies plume–plume interaction.
pub fn three_engine_gimbaled_2d(n: usize, angle: f64) -> CaseSetup {
    let shape = GridShape::new(2 * n, n, 1, 3);
    let domain = Domain::new([-1.0, 0.0, -0.5], [1.0, 1.0, 0.5], shape);
    let mut engines = three_engine_row(0.08, 0.3);
    engines[0] = engines[0].with_gimbal([angle, 0.0]); // tilt toward +x
    engines[2] = engines[2].with_gimbal([-angle, 0.0]); // tilt toward -x
    jet_case_with(
        "three-engine-gimbaled-2d",
        domain,
        engines,
        (0, 2),
        1,
        JetConditions::mach10(),
    )
}

/// The 33-engine array with the engines at `out` shut down — the
/// engine-failure/landing-throttle scenario of §3.
pub fn super_heavy_engine_out(n: usize, out: &[usize]) -> CaseSetup {
    let shape = GridShape::new(n, n, n, 3);
    let domain = Domain::new([-1.5, -1.5, 0.0], [1.5, 1.5, 3.0], shape);
    let engines = crate::jets::without_engines(crate::jets::super_heavy_33(1.0), out);
    jet_case_with(
        "super-heavy-engine-out",
        domain,
        engines,
        (0, 1),
        2,
        JetConditions::mach10(),
    )
}

/// A 2-D jet case (one cell deep in z, exhausting along +y) with an
/// arbitrary engine set and conditions — the campaign engine's entry point
/// for derived scenarios (engine-out subsets, per-engine gimbal, altitude
/// backpressure) that have no dedicated constructor above.
pub fn engine_array_2d(
    name: impl Into<String>,
    n: usize,
    engines: Vec<crate::jets::Engine>,
    conditions: JetConditions,
) -> CaseSetup {
    let shape = GridShape::new(2 * n, n, 1, 3);
    let domain = Domain::new([-1.0, 0.0, -0.5], [1.0, 1.0, 0.5], shape);
    jet_case_with(name, domain, engines, (0, 2), 1, conditions)
}

/// A 3-D jet case (exhausting along +z from the z=0 face) with an arbitrary
/// engine set and conditions — the campaign-engine entry point at
/// Super-Heavy-like geometry.
pub fn engine_array_3d(
    name: impl Into<String>,
    n: usize,
    engines: Vec<crate::jets::Engine>,
    conditions: JetConditions,
) -> CaseSetup {
    let shape = GridShape::new(n, n, n, 3);
    let domain = Domain::new([-1.5, -1.5, 0.0], [1.5, 1.5, 3.0], shape);
    jet_case_with(name, domain, engines, (0, 1), 2, conditions)
}

fn jet_case(
    name: impl Into<String>,
    domain: Domain,
    engines: Vec<crate::jets::Engine>,
    plane_dims: (usize, usize),
    flow_dim: usize,
) -> CaseSetup {
    jet_case_with(
        name,
        domain,
        engines,
        plane_dims,
        flow_dim,
        JetConditions::mach10(),
    )
}

/// Assemble a jet [`CaseSetup`]: ambient initial state, outflow everywhere
/// except the engine-array inflow face.
pub fn jet_case_with(
    name: impl Into<String>,
    domain: Domain,
    engines: Vec<crate::jets::Engine>,
    plane_dims: (usize, usize),
    flow_dim: usize,
    conditions: JetConditions,
) -> CaseSetup {
    let dx = domain.dx(Axis::X);
    let inflow = Arc::new(JetArrayInflow {
        engines,
        conditions,
        plane_dims,
        flow_dim,
        lip_width: 2.0 * dx,
    });
    let flow_axis = [Axis::X, Axis::Y, Axis::Z][flow_dim];
    let bc = BcSet::all_outflow().with_face(flow_axis, 0, Bc::InflowProfile(inflow.clone()));
    let ambient = conditions.ambient;
    CaseSetup {
        name: name.into(),
        domain,
        gamma: conditions.gamma,
        mu: 0.0,
        zeta: 0.0,
        bc,
        init: Arc::new(move |_| ambient),
        jet_inflow: Some(inflow),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use igr_core::Fields;
    use igr_prec::StoreF64;

    #[test]
    fn sod_initializes_the_two_states() {
        let case = sod_sharp(64);
        let q: State<f64, StoreF64> = case.init_state();
        let left = q.prim_at(5, 0, 0, case.gamma);
        let right = q.prim_at(60, 0, 0, case.gamma);
        assert!((left.rho - 1.0).abs() < 1e-14);
        assert!((right.rho - 0.125).abs() < 1e-14);
        assert!((right.p - 0.1).abs() < 1e-14);
    }

    #[test]
    fn acoustic_packet_is_a_right_running_simple_wave() {
        let case = acoustic_packet(64, 8, 1e-3);
        let q: State<f64, StoreF64> = case.init_state();
        // u and (rho - 1) must have the same sign everywhere (right-runner).
        for i in 0..64 {
            let pr = q.prim_at(i, 0, 0, case.gamma);
            let drho = pr.rho - 1.0;
            if drho.abs() > 1e-5 {
                assert!(pr.vel[0] * drho > 0.0, "cell {i}");
            }
        }
    }

    #[test]
    fn vortex_center_is_a_pressure_minimum() {
        let case = isentropic_vortex(32);
        let q: State<f64, StoreF64> = case.init_state();
        let center = q.prim_at(16, 16, 0, case.gamma);
        let corner = q.prim_at(0, 0, 0, case.gamma);
        assert!(center.p < corner.p);
        // Background advection velocity present.
        assert!((corner.vel[0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn jet_cases_have_inflow_on_the_right_face() {
        let case = single_jet_3d(16);
        assert!(matches!(case.bc.face(Axis::X, 0), Bc::InflowProfile(_)));
        assert!(matches!(case.bc.face(Axis::X, 1), Bc::Outflow));
        let sh = three_engine_2d(16, 1e-3, 42);
        assert!(matches!(sh.bc.face(Axis::Y, 0), Bc::InflowProfile(_)));
        let sup = super_heavy_3d(16);
        assert!(matches!(sup.bc.face(Axis::Z, 0), Bc::InflowProfile(_)));
    }

    #[test]
    fn noise_seed_is_deterministic_and_seed_dependent() {
        let a: State<f64, StoreF64> = three_engine_2d(16, 1e-3, 1).init_state();
        let b: State<f64, StoreF64> = three_engine_2d(16, 1e-3, 1).init_state();
        let c: State<f64, StoreF64> = three_engine_2d(16, 1e-3, 2).init_state();
        assert_eq!(a.max_diff(&b), 0.0, "same seed, same field");
        assert!(a.max_diff(&c) > 0.0, "different seed, different field");
    }

    #[test]
    fn engine_row_fits_any_count_inside_the_domain() {
        for n_engines in [1usize, 3, 7, 11] {
            let case = engine_row_2d(32, n_engines, JetConditions::mach10());
            let inflow = case.jet_inflow.as_ref().unwrap();
            assert_eq!(inflow.engines.len(), n_engines);
            for e in &inflow.engines {
                assert!(
                    e.center[0].abs() + e.radius <= 0.85,
                    "engine at {:?}",
                    e.center
                );
            }
        }
    }

    #[test]
    fn gimbaled_case_tilts_only_the_outer_pair() {
        let case = three_engine_gimbaled_2d(32, 0.1);
        let engines = &case.jet_inflow.as_ref().unwrap().engines;
        assert_eq!(engines[0].gimbal, [0.1, 0.0]);
        assert_eq!(engines[1].gimbal, [0.0, 0.0]);
        assert_eq!(engines[2].gimbal, [-0.1, 0.0]);
    }

    #[test]
    fn engine_out_case_drops_the_requested_engines() {
        let full = super_heavy_3d(16);
        let out = super_heavy_engine_out(16, &[0, 1, 2]);
        let n_full = full.jet_inflow.as_ref().unwrap().engines.len();
        let n_out = out.jet_inflow.as_ref().unwrap().engines.len();
        assert_eq!(n_full, 33);
        assert_eq!(n_out, 30, "the three core engines are shut down");
    }

    #[test]
    fn altitude_case_carries_the_thin_ambient() {
        let case = engine_row_2d(32, 1, JetConditions::mach10_at_altitude(0.25));
        let q: State<f64, StoreF64> = case.init_state();
        let pr = q.prim_at(5, 20, 0, case.gamma);
        assert!((pr.p - 0.25).abs() < 1e-12, "ambient pressure {}", pr.p);
        assert!((pr.rho - 0.25).abs() < 1e-12);
    }

    #[test]
    fn shu_osher_initializes_shock_and_wavetrain() {
        let case = shu_osher(400);
        let q: State<f64, StoreF64> = case.init_state();
        let left = q.prim_at(5, 0, 0, case.gamma);
        assert!((left.rho - 3.857143).abs() < 1e-3);
        assert!((left.p - 10.33333).abs() < 1e-2);
        // Pre-shock sinusoid: rho(x) = 1 + 0.2 sin(5x) at x = 2.0125.
        let i = (0.7 * 400.0) as i32; // x = -5 + 10*0.70125-ish
        let x = case.domain.center(igr_grid::Axis::X, i);
        let pr = q.prim_at(i, 0, 0, case.gamma);
        assert!((pr.rho - (1.0 + 0.2 * (5.0 * x).sin())).abs() < 1e-12);
        assert!((pr.p - 1.0).abs() < 1e-12);
    }

    #[test]
    fn both_solvers_construct_and_step_on_a_small_case() {
        let case = steepening_wave(32, 0.1);
        let mut igr = case.igr_solver::<f64, StoreF64>();
        igr.step().unwrap();
        let mut weno = case.weno_solver::<f64, StoreF64>();
        weno.step().unwrap();
    }
}
