//! Run-time diagnostics: integral histories and flow probes.
//!
//! Production campaigns monitor conserved totals, kinetic energy, and peak
//! Mach number while stepping — both to catch drift/instability early (the
//! paper's sub-FP64 runs live or die by this) and to produce the
//! time-series behind instability-onset plots like our Fig. 5 study.

use igr_core::eos::Prim;
use igr_core::Fields;
use igr_core::State;
use igr_grid::Domain;
use igr_prec::{Real, Storage};

/// One sampled record.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Absolute step the sample was taken after.
    pub step: usize,
    /// Simulation time of the sample.
    pub t: f64,
    /// Conserved integrals: mass, 3 momenta, total energy.
    pub totals: [f64; 5],
    /// Volume-integrated kinetic energy.
    pub kinetic_energy: f64,
    /// Peak Mach number over the interior.
    pub max_mach: f64,
    /// Minimum density (positivity watch).
    pub min_rho: f64,
}

/// Per-phase wall-time totals over one observation interval, as recorded
/// by the driver's `MetricsObserver` from the `igr-obs` registry.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseSample {
    /// Absolute step the interval ended at.
    pub step: usize,
    /// Simulation time the interval ended at.
    pub t: f64,
    /// `(phase, seconds, spans)` accumulated since the previous phase
    /// sample (or since the run started, for the first), name-sorted.
    pub phases: Vec<(String, f64, u64)>,
}

/// A growing time series of [`Sample`]s, plus an optional parallel series
/// of [`PhaseSample`]s when a run is instrumented.
#[derive(Clone, Debug, Default)]
pub struct History {
    /// Flow samples, in recording order.
    pub samples: Vec<Sample>,
    /// Phase-timing samples, in recording order (empty unless instrumented).
    pub phase_samples: Vec<PhaseSample>,
}

/// Sample the flow quantities of a single-fluid state — the scan behind
/// [`History::record`], shared with the driver's `Probe` implementations.
pub fn sample_state<R: Real, S: Storage<R>>(
    q: &State<R, S>,
    domain: &Domain,
    gamma: f64,
    step: usize,
    t: f64,
) -> Sample {
    let g = R::from_f64(gamma);
    let shape = q.shape();
    let vol = domain.cell_volume();
    let mut ke = 0.0f64;
    let mut max_mach = 0.0f64;
    let mut min_rho = f64::INFINITY;
    for k in 0..shape.nz as i32 {
        for j in 0..shape.ny as i32 {
            for i in 0..shape.nx as i32 {
                let pr: Prim<R> = q.prim_at(i, j, k, g);
                let rho = pr.rho.to_f64();
                let speed2 = pr.vel.iter().map(|v| v.to_f64().powi(2)).sum::<f64>();
                ke += 0.5 * rho * speed2;
                let c2 = gamma * pr.p.to_f64() / rho;
                if c2 > 0.0 {
                    max_mach = max_mach.max((speed2 / c2).sqrt());
                }
                min_rho = min_rho.min(rho);
            }
        }
    }
    Sample {
        step,
        t,
        totals: q.totals(domain),
        kinetic_energy: ke * vol,
        max_mach,
        min_rho,
    }
}

impl History {
    /// An empty history.
    pub fn new() -> Self {
        History::default()
    }

    /// Append a per-phase timing record (the driver's `MetricsObserver`
    /// feeds registry snapshots through this).
    pub fn push_phases(&mut self, sample: PhaseSample) {
        self.phase_samples.push(sample);
    }

    /// CSV rendering of the phase-timing series: one row per
    /// `(sample, phase)` pair.
    pub fn phases_to_csv(&self) -> String {
        let mut out = String::from("step,t,phase,seconds,spans\n");
        for ps in &self.phase_samples {
            for (name, secs, spans) in &ps.phases {
                out.push_str(&format!(
                    "{},{:.9e},{},{:.9e},{}\n",
                    ps.step, ps.t, name, secs, spans
                ));
            }
        }
        out
    }

    /// Append an already-computed sample (the driver's
    /// `DiagnosticsObserver` feeds probes through this).
    pub fn push(&mut self, sample: Sample) {
        self.samples.push(sample);
    }

    /// Sample the state and append a record.
    pub fn record<R: Real, S: Storage<R>>(
        &mut self,
        q: &State<R, S>,
        domain: &Domain,
        gamma: f64,
        step: usize,
        t: f64,
    ) -> Sample {
        let sample = sample_state(q, domain, gamma, step, t);
        self.samples.push(sample);
        sample
    }

    /// Drift of a conserved total between the first and last samples,
    /// relative to `max(|initial|, 1)` — totals like net momentum are often
    /// exactly zero, where a pure relative measure would be ill-posed.
    pub fn drift(&self, var: usize) -> f64 {
        match (self.samples.first(), self.samples.last()) {
            (Some(a), Some(b)) if self.samples.len() >= 2 => {
                let scale = a.totals[var].abs().max(1.0);
                (b.totals[var] - a.totals[var]).abs() / scale
            }
            _ => 0.0,
        }
    }

    /// CSV rendering of the full history.
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("step,t,mass,mom_x,mom_y,mom_z,energy,kinetic_energy,max_mach,min_rho\n");
        for s in &self.samples {
            out.push_str(&format!(
                "{},{:.9e},{:.12e},{:.12e},{:.12e},{:.12e},{:.12e},{:.9e},{:.6},{:.9e}\n",
                s.step,
                s.t,
                s.totals[0],
                s.totals[1],
                s.totals[2],
                s.totals[3],
                s.totals[4],
                s.kinetic_energy,
                s.max_mach,
                s.min_rho
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases;
    use igr_prec::StoreF64;

    #[test]
    fn samples_capture_flow_quantities() {
        let case = cases::steepening_wave(48, 0.3);
        let mut solver = case.igr_solver::<f64, StoreF64>();
        let mut hist = History::new();
        let s0 = hist.record(&solver.q, &case.domain, case.gamma, 0, 0.0);
        assert!(
            (s0.totals[0] - 1.0).abs() < 1e-12,
            "unit mass on the unit box"
        );
        assert!(s0.kinetic_energy > 0.0);
        assert!(s0.max_mach > 0.2 && s0.max_mach < 0.4, "0.3/c ~ 0.25");
        assert!(s0.min_rho > 0.99);

        for _ in 0..5 {
            solver.step().unwrap();
        }
        hist.record(&solver.q, &case.domain, case.gamma, 5, solver.t());
        assert_eq!(hist.samples.len(), 2);
        // Periodic box: conserved totals must not drift.
        for v in 0..5 {
            assert!(hist.drift(v) < 1e-13, "var {v} drift {}", hist.drift(v));
        }
    }

    #[test]
    fn kinetic_energy_tracks_instability_growth() {
        // On the steepening wave, KE converts to internal energy through
        // the (regularized) shock: KE must decrease over time.
        let case = cases::steepening_wave(128, 0.5);
        let mut solver = case.igr_solver::<f64, StoreF64>();
        let mut hist = History::new();
        hist.record(&solver.q, &case.domain, case.gamma, 0, 0.0);
        solver.run_until(0.5, 100_000).unwrap();
        hist.record(
            &solver.q,
            &case.domain,
            case.gamma,
            solver.steps_taken(),
            solver.t(),
        );
        let (a, b) = (
            hist.samples[0].kinetic_energy,
            hist.samples[1].kinetic_energy,
        );
        assert!(
            b < 0.8 * a,
            "shock must dissipate kinetic energy: {a} -> {b}"
        );
        // But total energy is conserved exactly.
        assert!(hist.drift(4) < 1e-12);
    }

    #[test]
    fn csv_rendering_has_one_row_per_sample() {
        let case = cases::steepening_wave(16, 0.1);
        let solver = case.igr_solver::<f64, StoreF64>();
        let mut hist = History::new();
        hist.record(&solver.q, &case.domain, case.gamma, 0, 0.0);
        hist.record(&solver.q, &case.domain, case.gamma, 1, 0.1);
        let csv = hist.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("step,t,mass"));
    }

    #[test]
    fn drift_is_zero_for_short_histories() {
        let hist = History::new();
        assert_eq!(hist.drift(0), 0.0);
    }
}
