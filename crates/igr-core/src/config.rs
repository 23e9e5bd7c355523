//! Solver configuration.

use crate::bc::BcSet;

/// Which iterative method relaxes the IGR elliptic problem (§5.2: "up to 5
/// sweeps of Jacobi or Gauss–Seidel iteration, with the previously computed
/// Σ as an initial guess").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EllipticKind {
    /// Parallel Jacobi sweeps; requires one extra Σ-sized array (the paper's
    /// `17N + 1N` case).
    Jacobi,
    /// In-place red–black (two-color) Gauss–Seidel: no extra array, the
    /// squared Jacobi convergence rate asymptotically, parallel over slabs
    /// with bitwise thread-count-independent results.
    GaussSeidel,
}

/// Which implementation of the per-step hot kernels (flux sweeps, Jacobi
/// point update) runs.
///
/// Both paths compute *bitwise identical* results — the fused path reorders
/// memory traffic (row-buffered SoA loads, slice-level stride arithmetic),
/// never per-cell floating-point operations. The reference path is retained
/// as the oracle the determinism regression tests compare against.
///
/// Scope: the selector covers the flux sweeps and the Jacobi point update.
/// It does *not* resurrect the old serial lexicographic Gauss–Seidel:
/// [`EllipticKind::GaussSeidel`] is the parallel red–black ordering on both
/// paths (a deliberate iteration-order change; see
/// `sigma::gauss_seidel_sweep`). The default [`EllipticKind::Jacobi`]
/// configuration is unaffected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPath {
    /// Straight-line per-cell indexing (the pre-optimization kernels).
    Reference,
    /// Row-buffered SoA sweeps + slice-fused elliptic updates (default).
    Fused,
}

/// Spatial reconstruction order of the linear interface interpolation.
/// The paper uses "a third- or fifth-order accurate finite volume method";
/// first order is retained for ablation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReconOrder {
    First,
    Third,
    Fifth,
}

impl ReconOrder {
    /// Ghost/stencil half-width needed by this order.
    pub fn stencil_width(self) -> usize {
        match self {
            ReconOrder::First => 1,
            ReconOrder::Third => 2,
            ReconOrder::Fifth => 3,
        }
    }
}

/// Runge–Kutta order (paper: 3rd-order TVD/SSP of Gottlieb & Shu).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RkOrder {
    Rk1,
    Rk2,
    Rk3,
}

impl RkOrder {
    pub fn stages(self) -> usize {
        match self {
            RkOrder::Rk1 => 1,
            RkOrder::Rk2 => 2,
            RkOrder::Rk3 => 3,
        }
    }
}

/// Full configuration of the IGR solver.
///
/// All parameters are plain `f64`; kernels convert to the compute precision
/// at startup.
#[derive(Clone, Debug)]
pub struct IgrConfig {
    /// Ratio of specific heats γ.
    pub gamma: f64,
    /// Shear viscosity μ (eq. 5). Zero disables the viscous fluxes.
    pub mu: f64,
    /// Bulk viscosity ζ (eq. 5).
    pub zeta: f64,
    /// IGR strength prefactor: `α = alpha_factor · Δx_max²` (§5.2: α ∝ Δx²).
    pub alpha_factor: f64,
    /// Hot-kernel implementation (fused default; reference retained as the
    /// determinism tests' oracle).
    pub kernel: KernelPath,
    /// Elliptic sweeps per RHS evaluation (paper: ⪅ 5, *warm-started* from
    /// the previous Σ).
    pub sweeps: usize,
    /// Sweeps for the very first RHS evaluation, where no previous Σ exists
    /// to warm-start from. Sharp initial data (a shock-tube discontinuity)
    /// needs a converged Σ immediately; afterwards `sweeps` suffices.
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
    pub bc: BcSet,
}

impl Default for IgrConfig {
    fn default() -> Self {
        IgrConfig {
            gamma: 1.4,
            mu: 0.0,
            zeta: 0.0,
            alpha_factor: 10.0,
            kernel: KernelPath::Fused,
            sweeps: 5,
            cold_start_sweeps: 100,
            elliptic: EllipticKind::Jacobi,
            order: ReconOrder::Fifth,
            rk: RkOrder::Rk3,
            cfl: 0.4,
            bc: BcSet::all_periodic(),
        }
    }
}

impl IgrConfig {
    /// The regularization strength for a given maximum cell size.
    pub fn alpha(&self, dx_max: f64) -> f64 {
        self.alpha_factor * dx_max * dx_max
    }

    /// Is the viscous stress tensor active?
    pub fn viscous(&self) -> bool {
        self.mu != 0.0 || self.zeta != 0.0
    }

    // Negated comparisons on purpose: a NaN must fail each check.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn validate(&self) -> Result<(), String> {
        if !(self.gamma > 1.0) {
            return Err(format!("gamma must exceed 1, got {}", self.gamma));
        }
        validate_march(self.cfl, self.alpha_factor, self.mu, self.zeta, self.sweeps)
    }
}

/// The march-parameter checks every IGR configuration shares. Each test is
/// the negation of the valid range, so a NaN fails it.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn validate_march(
    cfl: f64,
    alpha_factor: f64,
    mu: f64,
    zeta: f64,
    sweeps: usize,
) -> Result<(), String> {
    if !(cfl > 0.0 && cfl <= 1.0) {
        return Err(format!("cfl must be in (0, 1], got {cfl}"));
    }
    if !(alpha_factor >= 0.0) {
        return Err(format!(
            "alpha_factor must be non-negative, got {alpha_factor}"
        ));
    }
    if !(mu >= 0.0 && zeta >= 0.0) {
        return Err(format!(
            "viscosities must be non-negative, got ({mu}, {zeta})"
        ));
    }
    if sweeps == 0 && alpha_factor > 0.0 {
        return Err("IGR requires at least one elliptic sweep".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid_and_matches_paper_choices() {
        let c = IgrConfig::default();
        c.validate().unwrap();
        assert_eq!(c.order, ReconOrder::Fifth);
        assert_eq!(c.rk, RkOrder::Rk3);
        assert!(c.sweeps <= 5);
        assert_eq!(c.elliptic, EllipticKind::Jacobi);
        assert!(!c.viscous());
    }

    #[test]
    fn alpha_scales_with_dx_squared() {
        let c = IgrConfig {
            alpha_factor: 10.0,
            ..Default::default()
        };
        let a1 = c.alpha(0.1);
        let a2 = c.alpha(0.2);
        assert!((a2 / a1 - 4.0).abs() < 1e-12);
        assert!((a1 - 0.1).abs() < 1e-12);
    }

    #[test]
    fn stencil_widths() {
        assert_eq!(ReconOrder::First.stencil_width(), 1);
        assert_eq!(ReconOrder::Third.stencil_width(), 2);
        assert_eq!(ReconOrder::Fifth.stencil_width(), 3);
        assert_eq!(RkOrder::Rk3.stages(), 3);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = IgrConfig {
            gamma: 0.9,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c.gamma = 1.4;
        c.cfl = 0.0;
        assert!(c.validate().is_err());
        c.cfl = 0.4;
        c.mu = -1.0;
        assert!(c.validate().is_err());
        c.mu = 0.0;
        c.sweeps = 0;
        assert!(c.validate().is_err());
        c.alpha_factor = 0.0;
        assert!(
            c.validate().is_ok(),
            "alpha=0 disables IGR; 0 sweeps then fine"
        );
    }

    #[test]
    fn nan_parameters_are_rejected() {
        let set: [fn(&mut IgrConfig); 5] = [
            |c| c.gamma = f64::NAN,
            |c| c.cfl = f64::NAN,
            |c| c.alpha_factor = f64::NAN,
            |c| c.mu = f64::NAN,
            |c| c.zeta = f64::NAN,
        ];
        for (i, f) in set.into_iter().enumerate() {
            let mut c = IgrConfig::default();
            f(&mut c);
            assert!(c.validate().is_err(), "NaN in field {i} must be rejected");
        }
    }
}
