//! The user-facing solver driver.
//!
//! [`Solver`] owns the two state buffers, the RHS buffer, and a scheme
//! ([`IgrScheme`] here; the WENO+HLLC baseline in `igr-baseline` implements
//! the same [`RhsScheme`] trait), and advances them with SSP-RK time
//! stepping. Ghost filling is abstracted behind [`GhostOps`] so the same
//! solver runs single-block (BC fill) and decomposed (halo exchange via
//! `igr-comm`).

use crate::bc::{fill_ghosts_cached, fill_scalar_ghosts, BcSet, FaceMask, InflowCache, ALL_FACES};
use crate::config::{IgrConfig, KernelPath, RkOrder};
use crate::memory::MemoryReport;
use crate::rhs::{accumulate_fluxes, FluxParams};
use crate::sigma::{
    compute_igr_source, compute_igr_source_reference, jacobi_sweep, jacobi_sweep_reference,
    EllipticWorkspace,
};
use crate::state::State;
use crate::stepper::advance;
use igr_grid::{Domain, Field};
use igr_prec::{Real, Storage};

/// How ghost cells get their values. Single-block runs use [`BcGhostOps`];
/// decomposed runs install a halo-exchanging implementation.
pub trait GhostOps<R: Real, S: Storage<R>>: Send {
    /// Fill the conserved-state ghosts at time `t`.
    fn fill_state(&mut self, q: &mut State<R, S>, t: f64);
    /// Fill the ghosts of a scalar field (the entropic pressure).
    fn fill_scalar(&mut self, f: &mut Field<R, S>);
    /// Turn this block's CFL time step into the one every block of the run
    /// must share. A single block is the whole run (identity, the default);
    /// decomposed ghost ops min-reduce across ranks.
    fn reduce_dt(&mut self, local_dt: f64) -> f64 {
        local_dt
    }
}

/// Plain boundary-condition ghost fill on all faces, with static inflow
/// planes memoized across fills (see [`InflowCache`]).
///
/// If you mutate `bcs` or `mask` after stepping has begun, call
/// [`BcGhostOps::invalidate_inflow_cache`] — cached planes are keyed by
/// face only and would otherwise keep replaying the old profile.
pub struct BcGhostOps {
    pub domain: Domain,
    pub bcs: BcSet,
    pub gamma: f64,
    pub mask: FaceMask,
    inflow_cache: InflowCache,
}

impl BcGhostOps {
    pub fn new(domain: Domain, bcs: BcSet, gamma: f64) -> Self {
        BcGhostOps {
            domain,
            bcs,
            gamma,
            mask: ALL_FACES,
            inflow_cache: InflowCache::new(),
        }
    }

    /// Drop memoized inflow planes. Required after swapping `bcs` (or
    /// enlarging `mask`) on a ghost-ops value that has already filled
    /// ghosts, so the next fill re-evaluates the new profiles.
    pub fn invalidate_inflow_cache(&mut self) {
        self.inflow_cache.clear();
    }
}

impl<R: Real, S: Storage<R>> GhostOps<R, S> for BcGhostOps {
    fn fill_state(&mut self, q: &mut State<R, S>, t: f64) {
        fill_ghosts_cached(
            q,
            &self.domain,
            &self.bcs,
            self.gamma,
            t,
            &self.mask,
            &mut self.inflow_cache,
        );
    }
    fn fill_scalar(&mut self, f: &mut Field<R, S>) {
        fill_scalar_ghosts(f, &self.bcs, &self.mask);
    }
}

/// Scalar parameters the time loop needs from a scheme.
#[derive(Clone, Copy, Debug)]
pub struct SchemeParams {
    pub gamma: f64,
    pub mu: f64,
    pub zeta: f64,
    pub cfl: f64,
    pub rk: RkOrder,
}

/// A spatial discretization: fills `rhs` given the current stage state.
pub trait RhsScheme<R: Real, S: Storage<R>> {
    fn name(&self) -> &'static str;
    fn params(&self) -> SchemeParams;

    /// Compute `rhs = L(q)` at time `t`. May mutate `q` only to fill its
    /// ghost layers (via `ghost`).
    fn compute_rhs(
        &mut self,
        q: &mut State<R, S>,
        t: f64,
        rhs: &mut State<R, S>,
        ghost: &mut dyn GhostOps<R, S>,
    );

    /// Persistent arrays held by the scheme itself (Σ etc. for IGR; stored
    /// reconstructions/fluxes for the staged baseline).
    fn memory_report(&self, report: &mut MemoryReport);
}

/// The paper's scheme: IGR entropic pressure + linear reconstruction +
/// Lax–Friedrichs fluxes.
pub struct IgrScheme<R: Real, S: Storage<R>> {
    pub cfg: IgrConfig,
    pub domain: Domain,
    alpha: f64,
    elliptic: EllipticWorkspace<R, S>,
}

impl<R: Real, S: Storage<R>> IgrScheme<R, S> {
    pub fn new(cfg: IgrConfig, domain: Domain) -> Self {
        cfg.validate().expect("invalid IgrConfig");
        cfg.bc.validate().expect("invalid boundary conditions");
        IgrScheme {
            alpha: cfg.alpha(domain.dx_max()),
            elliptic: EllipticWorkspace::new(domain.shape, cfg.elliptic),
            cfg,
            domain,
        }
    }

    /// The regularization strength in use.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Current entropic pressure field (diagnostics, checkpointing).
    pub fn sigma(&self) -> &Field<R, S> {
        self.elliptic.sigma()
    }

    /// Mutable access to Σ for checkpoint restore (see
    /// [`EllipticWorkspace::sigma_mut`]: the next solve runs warm).
    pub fn sigma_mut(&mut self) -> &mut Field<R, S> {
        self.elliptic.sigma_mut()
    }

    /// Relax the elliptic system (eq. 9) with the configured method,
    /// warm-starting from the previous Σ.
    fn solve_sigma(&mut self, q: &State<R, S>, ghost: &mut dyn GhostOps<R, S>) {
        let source = match self.cfg.kernel {
            KernelPath::Fused => compute_igr_source,
            KernelPath::Reference => compute_igr_source_reference,
        };
        {
            let _sp = igr_obs::span!("igr.source");
            source(q, &self.domain, self.alpha, self.elliptic.source_mut());
        }
        let cfg = &self.cfg;
        self.elliptic.relax(
            &q.rho,
            &self.domain,
            self.alpha,
            cfg.sweeps,
            cfg.cold_start_sweeps,
            match cfg.kernel {
                KernelPath::Fused => jacobi_sweep,
                KernelPath::Reference => jacobi_sweep_reference,
            },
            |s| ghost.fill_scalar(s),
        );
    }
}

impl<R: Real, S: Storage<R>> RhsScheme<R, S> for IgrScheme<R, S> {
    fn name(&self) -> &'static str {
        "igr"
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
        {
            let _sp = igr_obs::span!("ghost.fill_state");
            ghost.fill_state(q, t);
        }
        let use_sigma = self.alpha > 0.0;
        if use_sigma {
            let _sp = igr_obs::span!("sigma.solve");
            self.solve_sigma(q, ghost);
        }
        rhs.zero();
        let params = FluxParams::new(
            q,
            self.elliptic.sigma(),
            &self.domain,
            self.cfg.gamma,
            self.cfg.mu,
            self.cfg.zeta,
            self.cfg.order,
            use_sigma,
        )
        .with_kernel(self.cfg.kernel);
        let _sp = igr_obs::span!("flux.sweep");
        accumulate_fluxes(&params, rhs);
    }

    fn memory_report(&self, report: &mut MemoryReport) {
        self.elliptic.memory_report(report);
    }
}

/// Failure modes of a time step.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// A conserved variable became NaN/Inf — the scheme went unstable
    /// (the fate of the WENO baseline below FP64, §5.6).
    NonFinite {
        step: usize,
        var: usize,
        pos: (i32, i32, i32),
    },
    /// The CFL time step collapsed to a non-positive value.
    DegenerateDt { step: usize, dt: f64 },
}

impl std::fmt::Display for SolverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolverError::NonFinite { step, var, pos } => {
                write!(
                    f,
                    "non-finite value in variable {var} at {pos:?} after step {step}"
                )
            }
            SolverError::DegenerateDt { step, dt } => {
                write!(f, "degenerate time step {dt} at step {step}")
            }
        }
    }
}

impl std::error::Error for SolverError {}

/// Outcome of one time step.
#[derive(Debug, Clone, Copy)]
pub struct StepInfo {
    pub step: usize,
    pub t: f64,
    pub dt: f64,
}

/// Time-marching driver owning state, scratch, scheme, and ghost policy.
pub struct Solver<R: Real, S: Storage<R>, Sch: RhsScheme<R, S>, G: GhostOps<R, S>> {
    pub scheme: Sch,
    pub ghost: G,
    pub q: State<R, S>,
    q_rk: State<R, S>,
    rhs: State<R, S>,
    domain: Domain,
    t: f64,
    step_count: usize,
    /// Check for NaN/Inf every `n` steps (0 disables; benches disable it).
    pub nan_check_every: usize,
    /// Optional fixed time step (bypasses the CFL scan when set).
    pub fixed_dt: Option<f64>,
}

impl<R: Real, S: Storage<R>, Sch: RhsScheme<R, S>, G: GhostOps<R, S>> Solver<R, S, Sch, G> {
    pub fn new(scheme: Sch, ghost: G, domain: Domain, q: State<R, S>) -> Self {
        let shape = domain.shape;
        assert_eq!(q.shape(), shape, "state shape must match domain shape");
        Solver {
            scheme,
            ghost,
            q,
            q_rk: State::zeros(shape),
            rhs: State::zeros(shape),
            domain,
            t: 0.0,
            step_count: 0,
            nan_check_every: 1,
            fixed_dt: None,
        }
    }

    pub fn t(&self) -> f64 {
        self.t
    }

    pub fn steps_taken(&self) -> usize {
        self.step_count
    }

    /// Reset the march clock (simulation time and step counter) — checkpoint
    /// restore re-enters an interrupted run's timeline so that a resumed run
    /// reports the same `t`/step trajectory as an uninterrupted one.
    pub fn reset_clock(&mut self, t: f64, steps: usize) {
        self.t = t;
        self.step_count = steps;
    }

    pub fn domain(&self) -> &Domain {
        &self.domain
    }

    /// CFL-limited time step for this block's current state.
    pub fn stable_dt(&self) -> f64 {
        let p = self.scheme.params();
        self.q.max_dt(&self.domain, p.gamma, p.mu, p.zeta, p.cfl)
    }

    /// The adaptive time step the whole run takes next: [`Solver::stable_dt`]
    /// passed through [`GhostOps::reduce_dt`] (a collective on decomposed
    /// runs — every rank must call it the same number of times).
    pub fn global_dt(&mut self) -> f64 {
        let local = self.stable_dt();
        self.ghost.reduce_dt(local)
    }

    /// Advance one step. Returns the step record or the detected failure.
    pub fn step(&mut self) -> Result<StepInfo, SolverError> {
        let _sp_step = igr_obs::span!("solver.step");
        let dt = match self.fixed_dt {
            Some(dt) => dt,
            None => {
                let _sp = igr_obs::span!("solver.cfl");
                self.global_dt()
            }
        };
        if !(dt > 0.0 && dt.is_finite()) {
            return Err(SolverError::DegenerateDt {
                step: self.step_count,
                dt,
            });
        }
        let p = self.scheme.params();
        let t0 = self.t;
        let scheme = &mut self.scheme;
        let ghost = &mut self.ghost;
        advance(
            p.rk,
            R::from_f64(dt),
            &mut self.q,
            &mut self.q_rk,
            &mut self.rhs,
            |stage, out| scheme.compute_rhs(stage, t0, out, ghost),
        );
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

    /// Full persistent-array inventory: the two state buffers, the RHS
    /// buffer, and the scheme's own arrays — the paper's 17–18 N accounting.
    pub fn memory_report(&self) -> MemoryReport {
        let mut r = MemoryReport::new(self.domain.shape.n_interior());
        r.push_state_buffers([&self.q, &self.q_rk, &self.rhs]);
        self.scheme.memory_report(&mut r);
        r
    }
}

/// Convenience constructor for the common single-block IGR case.
pub fn igr_solver<R: Real, S: Storage<R>>(
    cfg: IgrConfig,
    domain: Domain,
    q: State<R, S>,
) -> Solver<R, S, IgrScheme<R, S>, BcGhostOps> {
    let ghost = BcGhostOps::new(domain, cfg.bc.clone(), cfg.gamma);
    let scheme = IgrScheme::new(cfg, domain);
    Solver::new(scheme, ghost, domain, q)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EllipticKind;
    use crate::eos::Prim;
    use crate::state::Fields;
    use igr_grid::GridShape;
    use igr_prec::StoreF64;

    fn smooth_setup(n: usize) -> (IgrConfig, Domain, State<f64, StoreF64>) {
        let shape = GridShape::new(n, 1, 1, 3);
        let domain = Domain::unit(shape);
        let cfg = IgrConfig::default();
        let mut q = State::zeros(shape);
        let tau = std::f64::consts::TAU;
        q.set_prim_field(&domain, cfg.gamma, |p| {
            Prim::new(1.0 + 0.2 * (tau * p[0]).sin(), [0.5, 0.0, 0.0], 1.0)
        });
        (cfg, domain, q)
    }

    #[test]
    fn conservation_to_machine_precision_on_periodic_box() {
        let (cfg, domain, q) = smooth_setup(64);
        let before = q.totals(&domain);
        let mut solver = igr_solver(cfg, domain, q);
        for _ in 0..20 {
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
    fn memory_budget_matches_paper_17n_plus_jacobi_copy() {
        let (cfg, domain, q) = smooth_setup(64);
        assert_eq!(cfg.elliptic, EllipticKind::Jacobi);
        let solver = igr_solver(cfg, domain, q);
        let r = solver.memory_report();
        // 15 state/rk/rhs arrays + sigma + igr_rhs + sigma_tmp = 18 arrays.
        assert_eq!(r.entries.len(), 18);
        let n_total = domain.shape.n_total();
        assert_eq!(r.total_scalars(), 18 * n_total);
    }

    #[test]
    fn gauss_seidel_variant_drops_the_extra_array() {
        let (mut cfg, domain, q) = smooth_setup(64);
        cfg.elliptic = EllipticKind::GaussSeidel;
        let solver = igr_solver(cfg, domain, q);
        assert_eq!(solver.memory_report().entries.len(), 17);
    }

    #[test]
    fn smooth_wave_stays_smooth_and_finite() {
        let (cfg, domain, q) = smooth_setup(128);
        let mut solver = igr_solver(cfg, domain, q);
        let steps = solver.run_until(0.2, 10_000).unwrap();
        assert!(steps > 10);
        assert!(
            (solver.t() - 0.2).abs() < 1e-12,
            "run_until must hit t_end exactly"
        );
        assert!(solver.q.find_non_finite().is_none());
        let rho_max = solver.q.rho.max_interior(|x| x);
        assert!(rho_max < 1.5, "no spurious amplification: {rho_max}");
    }

    #[test]
    fn nan_detection_aborts_cleanly() {
        let (cfg, domain, mut q) = smooth_setup(32);
        q.en.set(5, 0, 0, f64::NAN);
        let mut solver = igr_solver(cfg, domain, q);
        let err = solver.step().unwrap_err();
        assert!(matches!(err, SolverError::NonFinite { .. }));
    }

    #[test]
    fn fixed_dt_overrides_cfl() {
        let (cfg, domain, q) = smooth_setup(32);
        let mut solver = igr_solver(cfg, domain, q);
        solver.fixed_dt = Some(1e-4);
        let info = solver.step().unwrap();
        assert_eq!(info.dt, 1e-4);
    }

    #[test]
    fn alpha_zero_runs_plain_euler() {
        let (mut cfg, domain, q) = smooth_setup(64);
        cfg.alpha_factor = 0.0;
        cfg.sweeps = 0;
        let mut solver = igr_solver(cfg, domain, q);
        solver.run_until(0.05, 1000).unwrap();
        assert!(solver.q.find_non_finite().is_none());
    }

    /// A steepening wave that would form a shock: IGR must keep the solution
    /// finite and smooth at the grid scale where an unregularized linear
    /// scheme blows up or rings.
    #[test]
    fn igr_survives_wave_steepening() {
        let shape = GridShape::new(256, 1, 1, 3);
        let domain = Domain::unit(shape);
        let cfg = IgrConfig {
            alpha_factor: 20.0,
            ..Default::default()
        };
        let mut q = State::<f64, StoreF64>::zeros(shape);
        let tau = std::f64::consts::TAU;
        // Strong velocity perturbation -> compression front.
        q.set_prim_field(&domain, cfg.gamma, |p| {
            Prim::new(1.0, [0.8 * (tau * p[0]).sin(), 0.0, 0.0], 1.0)
        });
        let mut solver = igr_solver(cfg, domain, q);
        // Well past the shock-formation time for this amplitude.
        solver.run_until(0.35, 20_000).unwrap();
        assert!(solver.q.find_non_finite().is_none());
        // Density must stay positive everywhere.
        let rho_min = -solver.q.rho.max_interior(|x| -x);
        assert!(rho_min > 0.0, "rho_min {rho_min}");
    }
}
