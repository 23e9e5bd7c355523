//! Configuration and time-marching driver for the two-fluid IGR solver.

use crate::bc::{fill_ghosts, SpeciesBcSet};
use crate::eos::MixEos;
use crate::rhs::{
    accumulate_fluxes2, compute_igr_source_mix, compute_mixture_density, FluxParams2,
};
use crate::state::SpeciesState;
use igr_core::bc::{fill_scalar_ghosts, ALL_FACES};
use igr_core::config::{validate_march, EllipticKind, ReconOrder, RkOrder};
use igr_core::memory::MemoryReport;
use igr_core::sigma::{jacobi_sweep, EllipticWorkspace};
use igr_core::solver::{SolverError, StepInfo};
use igr_core::stepper::advance;
use igr_core::Fields;
use igr_grid::{Domain, Field};
use igr_prec::{Real, Storage};

/// Full configuration of the two-fluid IGR solver. Mirrors
/// [`igr_core::IgrConfig`] with the mixture EOS in place of a single γ.
#[derive(Clone, Debug)]
pub struct SpeciesConfig {
    /// Two-gas mixture equation of state.
    pub eos: MixEos,
    /// Shear viscosity of the mixture (single constant; per-fluid blending
    /// is a straightforward extension).
    pub mu: f64,
    /// Bulk viscosity of the mixture.
    pub zeta: f64,
    /// IGR strength prefactor: `α_igr = alpha_factor · Δx_max²`.
    pub alpha_factor: f64,
    /// Elliptic sweeps per RHS evaluation (warm-started).
    pub sweeps: usize,
    /// Sweeps for the very first RHS evaluation.
    pub cold_start_sweeps: usize,
    /// Jacobi or Gauss–Seidel relaxation.
    pub elliptic: EllipticKind,
    /// Interface reconstruction order.
    pub order: ReconOrder,
    /// Time integrator.
    pub rk: RkOrder,
    /// Acoustic CFL number.
    pub cfl: f64,
    /// Boundary conditions on the six faces.
    pub bc: SpeciesBcSet,
}

impl Default for SpeciesConfig {
    fn default() -> Self {
        SpeciesConfig {
            eos: MixEos::air_helium(),
            mu: 0.0,
            zeta: 0.0,
            alpha_factor: 10.0,
            sweeps: 5,
            cold_start_sweeps: 100,
            elliptic: EllipticKind::Jacobi,
            order: ReconOrder::Fifth,
            rk: RkOrder::Rk3,
            cfl: 0.4,
            bc: SpeciesBcSet::all_periodic(),
        }
    }
}

impl SpeciesConfig {
    /// The regularization strength for a given maximum cell size.
    pub fn alpha(&self, dx_max: f64) -> f64 {
        self.alpha_factor * dx_max * dx_max
    }

    /// Reject invalid parameter combinations.
    pub fn validate(&self) -> Result<(), String> {
        self.eos.validate()?;
        validate_march(self.cfl, self.alpha_factor, self.mu, self.zeta, self.sweeps)?;
        self.bc.validate()
    }
}

/// Time-marching driver of the two-fluid model: owns the two state buffers
/// (the paper's two-buffer RK arrangement), the RHS buffer, the elliptic
/// workspace, and the mixture density the elliptic sweeps read.
pub struct SpeciesSolver<R: Real, S: Storage<R>> {
    /// Configuration (treat as immutable after construction).
    pub cfg: SpeciesConfig,
    /// Current solution.
    pub q: SpeciesState<R, S>,
    q_rk: SpeciesState<R, S>,
    rhs: SpeciesState<R, S>,
    elliptic: EllipticWorkspace<R, S>,
    rho_mix: Field<R, S>,
    domain: Domain,
    alpha_igr: f64,
    t: f64,
    step_count: usize,
    /// Check for NaN/Inf every `n` steps (0 disables).
    pub nan_check_every: usize,
    /// Optional fixed time step (bypasses the CFL scan when set).
    pub fixed_dt: Option<f64>,
}

impl<R: Real, S: Storage<R>> SpeciesSolver<R, S> {
    /// Build a solver on `domain` with initial state `q`.
    pub fn new(cfg: SpeciesConfig, domain: Domain, q: SpeciesState<R, S>) -> Self {
        cfg.validate().expect("invalid SpeciesConfig");
        let shape = domain.shape;
        assert_eq!(q.shape(), shape, "state shape must match domain shape");
        let alpha_igr = cfg.alpha(domain.dx_max());
        SpeciesSolver {
            q,
            q_rk: SpeciesState::zeros(shape),
            rhs: SpeciesState::zeros(shape),
            elliptic: EllipticWorkspace::new(shape, cfg.elliptic),
            rho_mix: Field::zeros(shape),
            cfg,
            domain,
            alpha_igr,
            t: 0.0,
            step_count: 0,
            nan_check_every: 1,
            fixed_dt: None,
        }
    }

    /// Current simulated time.
    pub fn t(&self) -> f64 {
        self.t
    }

    /// Steps taken so far.
    pub fn steps_taken(&self) -> usize {
        self.step_count
    }

    /// Reset the march clock (simulation time and step counter) — checkpoint
    /// restore re-enters an interrupted run's timeline.
    pub fn reset_clock(&mut self, t: f64, steps: usize) {
        self.t = t;
        self.step_count = steps;
    }

    /// The domain this solver marches on.
    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// The regularization strength in use.
    pub fn alpha_igr(&self) -> f64 {
        self.alpha_igr
    }

    /// Current entropic pressure field.
    pub fn sigma(&self) -> &Field<R, S> {
        self.elliptic.sigma()
    }

    /// Mutable access to Σ for checkpoint restore (see
    /// [`EllipticWorkspace::sigma_mut`]: the next solve runs warm).
    pub fn sigma_mut(&mut self) -> &mut Field<R, S> {
        self.elliptic.sigma_mut()
    }

    /// CFL-limited time step for the current state.
    pub fn stable_dt(&self) -> f64 {
        self.q.max_dt(
            &self.domain,
            &self.cfg.eos,
            self.cfg.mu,
            self.cfg.zeta,
            self.cfg.cfl,
        )
    }

    /// Advance one step (SSP-RK per the configuration). Returns the step
    /// record or the detected failure.
    pub fn step(&mut self) -> Result<StepInfo, SolverError> {
        let dt = self.fixed_dt.unwrap_or_else(|| self.stable_dt());
        if !(dt > 0.0 && dt.is_finite()) {
            return Err(SolverError::DegenerateDt {
                step: self.step_count,
                dt,
            });
        }
        let t0 = self.t;
        let SpeciesSolver {
            cfg,
            q,
            q_rk,
            rhs,
            elliptic,
            rho_mix,
            domain,
            alpha_igr,
            ..
        } = self;
        advance(cfg.rk, R::from_f64(dt), q, q_rk, rhs, |stage, out| {
            fill_ghosts(stage, domain, &cfg.bc, &cfg.eos, t0);
            let use_sigma = *alpha_igr > 0.0;
            if use_sigma {
                compute_igr_source_mix(stage, domain, *alpha_igr, elliptic.source_mut());
                compute_mixture_density(stage, rho_mix);
                let scalar_bcs = cfg.bc.scalar_bcs();
                elliptic.relax(
                    rho_mix,
                    domain,
                    *alpha_igr,
                    cfg.sweeps,
                    cfg.cold_start_sweeps,
                    jacobi_sweep,
                    |s| fill_scalar_ghosts(s, &scalar_bcs, &ALL_FACES),
                );
            }
            out.zero();
            let params = FluxParams2::new(
                stage,
                elliptic.sigma(),
                domain,
                cfg.eos,
                cfg.mu,
                cfg.zeta,
                cfg.order,
                use_sigma,
            );
            accumulate_fluxes2(&params, out);
        });

        self.t += dt;
        self.step_count += 1;
        if self.nan_check_every > 0 && self.step_count % self.nan_check_every == 0 {
            if let Some((var, pos)) = self.q.find_non_finite() {
                return Err(SolverError::NonFinite {
                    step: self.step_count,
                    var,
                    pos,
                });
            }
        }
        Ok(StepInfo {
            step: self.step_count,
            t: self.t,
            dt,
        })
    }

    /// March to `t_end` (never overshooting) or `max_steps`, whichever first.
    pub fn run_until(&mut self, t_end: f64, max_steps: usize) -> Result<usize, SolverError> {
        let mut n = 0;
        while self.t < t_end && n < max_steps {
            let remaining = t_end - self.t;
            let dt_cfl = self.fixed_dt.unwrap_or_else(|| self.stable_dt());
            let prev_fixed = self.fixed_dt;
            self.fixed_dt = Some(dt_cfl.min(remaining));
            let r = self.step();
            self.fixed_dt = prev_fixed;
            r?;
            n += 1;
        }
        Ok(n)
    }

    /// Persistent-array inventory: `3·7` state/stage/RHS arrays + Σ +
    /// elliptic RHS + mixture density (+ Σ copy under Jacobi) — the
    /// two-fluid analogue of the paper's 17–18 N accounting.
    pub fn memory_report(&self) -> MemoryReport {
        let shape = self.domain.shape;
        let mut r = MemoryReport::new(shape.n_interior());
        r.push_state_buffers([&self.q, &self.q_rk, &self.rhs]);
        self.elliptic.memory_report(&mut r);
        r.push("rho_mix", shape.n_total(), self.rho_mix.storage_bytes());
        r
    }
}

/// Convenience constructor mirroring `igr_core::solver::igr_solver`.
pub fn species_solver<R: Real, S: Storage<R>>(
    cfg: SpeciesConfig,
    domain: Domain,
    q: SpeciesState<R, S>,
) -> SpeciesSolver<R, S> {
    SpeciesSolver::new(cfg, domain, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eos::{MixPrim, I_E, I_R1, I_R2};
    use igr_grid::GridShape;
    use igr_prec::StoreF64;

    type Sv = SpeciesSolver<f64, StoreF64>;

    fn interface_setup(n: usize, u0: f64) -> (SpeciesConfig, Domain, SpeciesState<f64, StoreF64>) {
        let shape = GridShape::new(n, 1, 1, 3);
        let domain = Domain::unit(shape);
        let cfg = SpeciesConfig::default();
        let mut q = SpeciesState::zeros(shape);
        let w = 4.0 / n as f64;
        q.set_prim_field(&domain, &cfg.eos, |p| {
            // Smooth material blob: fluid 1 (air-like) inside, fluid 2 out.
            let a = 0.5 * ((p[0] - 0.3) / w).tanh() - 0.5 * ((p[0] - 0.7) / w).tanh();
            let a = a.clamp(0.0, 1.0);
            MixPrim::new([a * 1.0, (1.0 - a) * 0.138], [u0, 0.0, 0.0], 1.0, a)
        });
        (cfg, domain, q)
    }

    #[test]
    fn resting_material_interface_is_a_steady_state() {
        let (cfg, domain, q) = interface_setup(64, 0.0);
        let mut s = Sv::new(cfg, domain, q);
        let before = s.q.clone();
        for _ in 0..20 {
            s.step().unwrap();
        }
        for i in 0..64 {
            let pr = s.q.prim_at(i, 0, 0, &s.cfg.eos);
            assert!(pr.vel[0].abs() < 1e-12, "u stays zero: {}", pr.vel[0]);
            assert!((pr.p - 1.0).abs() < 1e-11, "p stays 1: {}", pr.p);
        }
        // The interface itself may diffuse a little; density field is close.
        assert!(s.q.max_diff(&before) < 0.05);
    }

    #[test]
    fn advected_interface_keeps_pressure_and_velocity_constant() {
        // The classic oscillation-free interface-advection test: p and u
        // must stay uniform while the material interface translates.
        let (cfg, domain, q) = interface_setup(128, 1.0);
        let mut s = Sv::new(cfg, domain, q);
        s.run_until(0.25, 10_000).unwrap();
        let mut max_dp = 0.0f64;
        let mut max_du = 0.0f64;
        for i in 0..128 {
            let pr = s.q.prim_at(i, 0, 0, &s.cfg.eos);
            max_dp = max_dp.max((pr.p - 1.0).abs());
            max_du = max_du.max((pr.vel[0] - 1.0).abs());
        }
        assert!(max_dp < 1e-9, "pressure oscillation {max_dp}");
        assert!(max_du < 1e-9, "velocity oscillation {max_du}");
        let (lo, hi) = s.q.alpha_range();
        assert!(hi > 0.9 && lo > -1e-6, "α range [{lo}, {hi}]");
    }

    #[test]
    fn conserved_totals_are_preserved_on_periodic_box() {
        let (cfg, domain, q) = interface_setup(64, 0.7);
        let before = q.totals(&domain);
        let mut s = Sv::new(cfg, domain, q);
        for _ in 0..15 {
            s.step().unwrap();
        }
        let after = s.q.totals(&domain);
        for v in [I_R1, I_R2, I_E] {
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
    fn reduces_exactly_to_single_fluid_when_gammas_match() {
        // γ1 = γ2: the mixture model must reproduce the single-fluid IGR
        // solver's pressure/velocity evolution on a steepening wave.
        let n = 64;
        let shape = GridShape::new(n, 1, 1, 3);
        let domain = Domain::unit(shape);
        let tau = std::f64::consts::TAU;

        let mut q5: igr_core::State<f64, StoreF64> = igr_core::State::zeros(shape);
        q5.set_prim_field(&domain, 1.4, |p| {
            igr_core::eos::Prim::new(1.0, [0.4 * (tau * p[0]).sin(), 0.0, 0.0], 1.0)
        });
        let cfg5 = igr_core::IgrConfig::default();
        let mut s5 = igr_core::solver::igr_solver(cfg5, domain, q5.clone());

        let q7 = SpeciesState::from_single_fluid(&q5, 0.3);
        let cfg7 = SpeciesConfig {
            eos: MixEos::single(1.4),
            ..Default::default()
        };
        let mut s7 = Sv::new(cfg7, domain, q7);

        let dt = 1e-3;
        s5.fixed_dt = Some(dt);
        s7.fixed_dt = Some(dt);
        for _ in 0..50 {
            s5.step().unwrap();
            s7.step().unwrap();
        }
        let eos = MixEos::single(1.4);
        let mut max_dp = 0.0f64;
        let mut max_drho = 0.0f64;
        for i in 0..n as i32 {
            let a = s5.q.prim_at(i, 0, 0, 1.4);
            let b = s7.q.prim_at(i, 0, 0, &eos);
            max_dp = max_dp.max((a.p - b.p).abs());
            max_drho = max_drho.max((a.rho - b.rho()).abs());
            assert!((b.alpha - 0.3).abs() < 1e-12, "α must stay exactly uniform");
        }
        assert!(max_dp < 1e-11, "pressure deviation {max_dp}");
        assert!(max_drho < 1e-11, "density deviation {max_drho}");
    }

    #[test]
    fn two_gamma_sod_produces_a_single_pressure_plateau() {
        // Air (γ=1.4, left) driving helium (γ=1.67, right): the star region
        // must have matched pressure and velocity across the contact.
        let n = 256;
        let shape = GridShape::new(n, 1, 1, 3);
        let domain = Domain::unit(shape);
        let cfg = SpeciesConfig {
            bc: SpeciesBcSet::all_outflow(),
            ..Default::default()
        };
        let mut q = SpeciesState::zeros(shape);
        let w = 2.0 / n as f64;
        q.set_prim_field(&domain, &cfg.eos, |p| {
            let b = 0.5 * (1.0 - ((p[0] - 0.5) / w).tanh()); // 1 left, 0 right
            MixPrim::new([b * 1.0, (1.0 - b) * 0.125], [0.0; 3], 0.1 + 0.9 * b, b)
        });
        let mut s = Sv::new(cfg, domain, q);
        s.run_until(0.15, 20_000).unwrap();
        assert!(s.q.find_non_finite().is_none());
        // Linear (unlimited) reconstruction overshoots the steep contact by
        // a few percent; IGR regularizes *shocks* (velocity-gradient
        // driven), not contacts, so a small α overshoot is the expected
        // behaviour of this scheme class.
        let (lo, hi) = s.q.alpha_range();
        assert!(lo > -0.05 && hi < 1.05, "α range [{lo}, {hi}]");
        // Sample the star region left and right of the contact: pressures
        // match (a contact supports no pressure jump).
        let eos = s.cfg.eos;
        let pr_l = s.q.prim_at((0.62 * n as f64) as i32, 0, 0, &eos);
        let pr_r = s.q.prim_at((0.72 * n as f64) as i32, 0, 0, &eos);
        assert!(
            (pr_l.p - pr_r.p).abs() < 0.05 * pr_l.p,
            "star pressures {} vs {}",
            pr_l.p,
            pr_r.p
        );
        assert!((pr_l.vel[0] - pr_r.vel[0]).abs() < 0.05 * pr_l.vel[0].abs().max(0.1));
    }

    #[test]
    fn memory_report_counts_the_two_fluid_budget() {
        let (cfg, domain, q) = interface_setup(32, 0.0);
        assert_eq!(cfg.elliptic, EllipticKind::Jacobi);
        let s = Sv::new(cfg, domain, q);
        let r = s.memory_report();
        // 21 state/stage/rhs + sigma + igr_rhs + rho_mix + sigma_tmp = 25.
        assert_eq!(r.entries.len(), 25);
        assert_eq!(r.total_scalars(), 25 * domain.shape.n_total());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut cfg = SpeciesConfig::default();
        cfg.eos.gamma2 = 0.5;
        assert!(cfg.validate().is_err());
        let cfg2 = SpeciesConfig {
            cfl: 0.0,
            ..Default::default()
        };
        assert!(cfg2.validate().is_err());
        let cfg3 = SpeciesConfig {
            sweeps: 0,
            ..Default::default()
        };
        assert!(cfg3.validate().is_err());
        let cfg4 = SpeciesConfig {
            sweeps: 0,
            alpha_factor: 0.0,
            ..Default::default()
        };
        assert!(cfg4.validate().is_ok());
    }

    #[test]
    fn nan_parameters_are_rejected() {
        let set: [fn(&mut SpeciesConfig); 6] = [
            |c| c.eos.gamma1 = f64::NAN,
            |c| c.eos.gamma2 = f64::NAN,
            |c| c.cfl = f64::NAN,
            |c| c.alpha_factor = f64::NAN,
            |c| c.mu = f64::NAN,
            |c| c.zeta = f64::NAN,
        ];
        for (i, f) in set.into_iter().enumerate() {
            let mut c = SpeciesConfig::default();
            f(&mut c);
            assert!(c.validate().is_err(), "NaN in field {i} must be rejected");
        }
    }

    #[test]
    fn nan_detection_aborts_cleanly() {
        let (cfg, domain, mut q) = interface_setup(32, 0.0);
        q.fields_mut()[I_E].set(5, 0, 0, f64::NAN);
        let mut s = Sv::new(cfg, domain, q);
        let err = s.step().unwrap_err();
        assert!(matches!(err, SolverError::NonFinite { .. }));
    }

    #[test]
    fn alpha_stays_bounded_through_a_shock_interface_interaction() {
        // A right-running shock in air hits a helium slab: α must remain in
        // [−ε, 1+ε] and the solution finite (IGR smooths the shock).
        let n = 256;
        let shape = GridShape::new(n, 1, 1, 3);
        let domain = Domain::unit(shape);
        let cfg = SpeciesConfig {
            bc: SpeciesBcSet::all_outflow(),
            ..Default::default()
        };
        let mut q = SpeciesState::zeros(shape);
        let w = 2.0 / n as f64;
        q.set_prim_field(&domain, &cfg.eos, |p| {
            // Post-shock air (Ms ≈ 1.5) | quiescent air | helium slab.
            let sh = 0.5 * (1.0 - ((p[0] - 0.2) / w).tanh());
            let he = 0.5 * (((p[0] - 0.5) / w).tanh() - ((p[0] - 0.8) / w).tanh());
            let a = (1.0 - he).clamp(0.0, 1.0);
            let rho_air = 1.0 + sh * 0.862; // 1.862 post-shock
            let rho = a * rho_air + (1.0 - a) * 0.138;
            let u = sh * 0.7;
            let p_ = 1.0 + sh * 1.458; // 2.458 post-shock
            MixPrim::new([a * rho, (1.0 - a) * rho], [u, 0.0, 0.0], p_, a)
        });
        let mut s = Sv::new(cfg, domain, q);
        s.run_until(0.25, 40_000).unwrap();
        assert!(s.q.find_non_finite().is_none());
        let (lo, hi) = s.q.alpha_range();
        assert!(lo > -0.05 && hi < 1.05, "α range [{lo}, {hi}]");
    }

    #[test]
    fn gauss_seidel_and_rk2_paths_run() {
        let (mut cfg, domain, q) = interface_setup(48, 0.5);
        cfg.elliptic = EllipticKind::GaussSeidel;
        cfg.rk = RkOrder::Rk2;
        let mut s = Sv::new(cfg, domain, q);
        for _ in 0..5 {
            s.step().unwrap();
        }
        assert!(s.q.find_non_finite().is_none());
        // GS variant drops the extra Σ array: 24 entries instead of 25.
        assert_eq!(s.memory_report().entries.len(), 24);
    }
}
