//! Grind-time measurement: nanoseconds per grid cell per time step, the
//! normalization Table 3 reports ("used to normalize against the different
//! problem sizes that fit within device memory").

use igr_core::solver::{GhostOps, RhsScheme, Solver};
use igr_prec::{Real, Storage};
use std::time::Instant;

/// One grind measurement.
#[derive(Clone, Copy, Debug)]
pub struct GrindResult {
    /// Nanoseconds per cell per step (smaller is faster).
    pub ns_per_cell_step: f64,
    /// Timed steps.
    pub steps: usize,
    /// Interior cells of the measured grid.
    pub cells: usize,
    /// Wall-clock seconds the timed steps took.
    pub wall_s: f64,
}

impl GrindResult {
    /// Energy proxy in µJ/cell/step for an assumed average power draw.
    pub fn energy_uj(&self, watts: f64) -> f64 {
        watts * self.ns_per_cell_step * 1e-9 * 1e6
    }
}

/// Time `steps` solver steps after `warmup` untimed ones (first-touch,
/// cache warm, Σ warm start). Uses a fixed dt captured after warmup so the
/// timed region is pure stepping, mirroring the paper's timer placement
/// around time stepping only (§6.3). The caller's `fixed_dt` and
/// `nan_check_every` are restored before returning.
///
/// Panics if a step fails or the state is non-finite after the timed steps.
pub fn measure_grind<R, S, Sch, G>(
    solver: &mut Solver<R, S, Sch, G>,
    warmup: usize,
    steps: usize,
) -> GrindResult
where
    R: Real,
    S: Storage<R>,
    Sch: RhsScheme<R, S>,
    G: GhostOps<R, S>,
{
    assert!(steps > 0);
    let saved = (solver.fixed_dt, solver.nan_check_every);
    let cells = solver.domain().shape.n_interior();
    let timed = (|| -> Result<f64, igr_core::SolverError> {
        // Check every warmup step (cheap insurance against bad initial data)...
        solver.nan_check_every = 1;
        for _ in 0..warmup {
            solver.step()?;
        }
        // ...but keep the timed region check-free so the grind number stays a
        // pure stepping cost. Divergence inside the timed window is caught by
        // the explicit scan below.
        solver.nan_check_every = 0;
        // Freeze dt so every timed step does identical work.
        solver.fixed_dt = Some(solver.stable_dt());
        let start = Instant::now();
        for _ in 0..steps {
            solver.step()?;
        }
        let wall_s = start.elapsed().as_secs_f64();
        match solver.q.find_non_finite() {
            Some((var, pos)) => Err(igr_core::SolverError::NonFinite {
                step: solver.steps_taken(),
                var,
                pos,
            }),
            None => Ok(wall_s),
        }
    })();
    (solver.fixed_dt, solver.nan_check_every) = saved;
    let wall_s = timed.expect("grind measurement step failed");
    GrindResult {
        ns_per_cell_step: wall_s * 1e9 / (steps as f64 * cells as f64),
        steps,
        cells,
        wall_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases;
    use igr_prec::StoreF64;

    #[test]
    fn grind_measurement_reports_plausible_numbers() {
        let case = cases::steepening_wave(128, 0.2);
        let mut solver = case.igr_solver::<f64, StoreF64>();
        let g = measure_grind(&mut solver, 2, 5);
        assert_eq!(g.steps, 5);
        assert_eq!(g.cells, 128);
        assert!(g.ns_per_cell_step > 0.0 && g.ns_per_cell_step < 1e9);
        assert!(g.wall_s > 0.0);
    }

    #[test]
    fn grind_measurement_restores_the_callers_solver_settings() {
        let case = cases::steepening_wave(64, 0.2);
        let mut solver = case.igr_solver::<f64, StoreF64>();
        let dt0 = 0.5 * solver.stable_dt();
        solver.fixed_dt = Some(dt0);
        solver.nan_check_every = 3;
        measure_grind(&mut solver, 2, 3);
        assert_eq!(solver.fixed_dt, Some(dt0));
        assert_eq!(solver.nan_check_every, 3);
    }

    #[test]
    fn energy_proxy_scales_with_power() {
        let g = GrindResult {
            ns_per_cell_step: 10.0,
            steps: 1,
            cells: 1,
            wall_s: 1.0,
        };
        // 10 ns at 100 W = 1e-6 J = 1 µJ per cell-step.
        assert!((g.energy_uj(100.0) - 1.0).abs() < 1e-12);
        assert_eq!(g.energy_uj(200.0), 2.0 * g.energy_uj(100.0));
    }

    #[test]
    fn weno_grind_exceeds_igr_grind() {
        // The core claim of Table 3 at laptop scale: the baseline's
        // per-cell cost is a multiple of IGR's.
        let case = cases::steepening_wave(256, 0.2);
        let mut igr = case.igr_solver::<f64, StoreF64>();
        let mut weno = case.weno_solver::<f64, StoreF64>();
        let gi = measure_grind(&mut igr, 2, 8);
        let gw = measure_grind(&mut weno, 2, 8);
        assert!(
            gw.ns_per_cell_step > gi.ns_per_cell_step,
            "WENO {:.0} ns must exceed IGR {:.0} ns",
            gw.ns_per_cell_step,
            gi.ns_per_cell_step
        );
    }
}
