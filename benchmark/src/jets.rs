//! The three jet workloads: the 33-engine array (two engines shut down by
//! the seed) through the IGR solver at fp32 and fp16 storage, and through
//! the WENO baseline at fp64.
//!
//! Protocol, shared by all three: set up (timed, repeated), spin up untimed,
//! capture the state with `Checkpointable::capture`, then per quantum
//! restore the capture (untimed) and time a fixed number of CFL-adaptive
//! `Solver::step()` calls. Every quantum does bit-identical work, so every
//! quantum's state digest must equal the first one's.

use crate::trace::Tracer;
use crate::workloads::Quanta;
use igr_app::cases::{self, CaseSetup};
use igr_app::checkpoint::{Checkpoint, CheckpointScalar};
use igr_app::diagnostics::{sample_state, Sample};
use igr_app::driver::Checkpointable;
use igr_core::solver::{BcGhostOps, RhsScheme, Solver};
use igr_prec::{f16, Real, Storage};
use std::time::Instant;

/// Sizes of one jet run; the workloads fix them, the unit tests shrink them.
#[derive(Clone, Copy, Debug)]
pub struct JetPlan {
    /// Cells across the booster diameter (the grid is `n³`).
    pub n: usize,
    /// Untimed steps before the capture, the set-up's first step included.
    pub spinup_steps: usize,
    /// Steps one quantum times.
    pub steps_per_quantum: usize,
    /// Timed repetitions of the set-up.
    pub setup_reps: usize,
}

/// The jet case for `seed`: the 33-engine array minus the seed's two engines.
pub fn build_case(n: usize, seed: u64) -> CaseSetup {
    cases::super_heavy_engine_out(n, &crate::specgen::engines_out(seed))
}

/// Bit pattern of a packed scalar, for the state digest.
pub trait PackedBits: Copy {
    fn bits(self) -> u64;
}

impl PackedBits for f64 {
    fn bits(self) -> u64 {
        self.to_bits()
    }
}

impl PackedBits for f32 {
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

impl PackedBits for f16 {
    fn bits(self) -> u64 {
        u64::from(self.to_bits())
    }
}

/// FNV-1a over the packed words of every conserved field, ghosts included.
pub fn state_digest<R: Real, S: Storage<R>>(q: &igr_core::State<R, S>) -> u64
where
    S::Packed: PackedBits,
{
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for field in q.fields() {
        for &p in field.packed() {
            h = (h ^ p.bits()).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// An open jet workload: a spun-up solver and the capture its quanta start
/// from.
pub struct JetSession<R: Real, S: Storage<R>, Sch: RhsScheme<R, S>> {
    pub case: CaseSetup,
    pub solver: Solver<R, S, Sch, BcGhostOps>,
    pub snapshot: Checkpoint,
    steps_per_quantum: usize,
    first_digest: Option<u64>,
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Seconds of the untimed spin-up after the last set-up.
    pub spinup_s: f64,
}

impl<R, S, Sch> JetSession<R, S, Sch>
where
    R: Real,
    S: Storage<R>,
    S::Packed: PackedBits + CheckpointScalar,
    Sch: RhsScheme<R, S>,
    Solver<R, S, Sch, BcGhostOps>: Checkpointable,
{
    /// Set up `plan.setup_reps` times — each repetition is everything a user
    /// waits for before useful work: build the case, fill the initial state,
    /// construct the solver, take the first step (cold Σ solve, inflow cache
    /// fill) — then spin the last solver up and capture it.
    pub fn open(
        plan: &JetPlan,
        seed: u64,
        make: impl Fn(&CaseSetup) -> Solver<R, S, Sch, BcGhostOps>,
        tr: &mut Tracer,
    ) -> Result<Self, String> {
        assert!(plan.setup_reps >= 1 && plan.spinup_steps >= 1);
        let mut setup_s = Vec::with_capacity(plan.setup_reps);
        let mut last = None;
        for _ in 0..plan.setup_reps {
            drop(last.take()); // never hold two solvers: peak RSS is a metric
            let t0 = Instant::now();
            let opened = tr.span("harness.setup", |tr| {
                let case = tr.span("igr-app.case_build", |_| build_case(plan.n, seed));
                let mut solver = tr.span("igr-core.solver_new", |_| make(&case));
                tr.span("igr-core.first_step", |_| solver.step())
                    .map(|_| (case, solver))
            });
            setup_s.push(t0.elapsed().as_secs_f64());
            last = Some(opened.map_err(|e| format!("first step failed: {e}"))?);
        }
        let (case, mut solver) = last.expect("setup_reps >= 1");
        let t0 = Instant::now();
        tr.span("harness.spinup", |_| {
            (1..plan.spinup_steps).try_for_each(|_| solver.step().map(|_| ()))
        })
        .map_err(|e| format!("spin-up failed: {e}"))?;
        let spinup_s = t0.elapsed().as_secs_f64();
        let snapshot = solver.capture();
        Ok(JetSession {
            case,
            solver,
            snapshot,
            steps_per_quantum: plan.steps_per_quantum,
            first_digest: None,
            setup_s,
            spinup_s,
        })
    }

    /// Put the solver back on the capture (untimed by the callers).
    pub fn restore(&mut self) -> Result<(), String> {
        self.solver
            .restore(&self.snapshot)
            .map_err(|e| format!("restore failed: {e}"))
    }

    pub fn cells(&self) -> usize {
        self.solver.domain().shape.n_interior()
    }

    /// Flow sample of the current state (after a quantum: the capture plus
    /// `steps_per_quantum` steps).
    pub fn sample(&self) -> Sample {
        sample_of(&self.solver)
    }
}

fn sample_of<R, S, Sch>(solver: &Solver<R, S, Sch, BcGhostOps>) -> Sample
where
    R: Real,
    S: Storage<R>,
    Sch: RhsScheme<R, S>,
{
    sample_state(
        &solver.q,
        solver.domain(),
        solver.scheme.params().gamma,
        solver.steps_taken(),
        solver.t(),
    )
}

impl<R, S, Sch> Quanta for JetSession<R, S, Sch>
where
    R: Real,
    S: Storage<R>,
    S::Packed: PackedBits + CheckpointScalar,
    Sch: RhsScheme<R, S>,
    Solver<R, S, Sch, BcGhostOps>: Checkpointable,
{
    /// Restore the capture, time the steps, check the digest.
    fn quantum(&mut self, tr: &mut Tracer) -> Result<(f64, f64), String> {
        tr.span("igr-app.snapshot_restore", |_| self.restore())?;
        let steps = self.steps_per_quantum;
        let solver = &mut self.solver;
        let (seconds, stepped) = tr.span("harness.quantum", |tr| {
            let t0 = Instant::now();
            let stepped = (0..steps)
                .try_for_each(|_| tr.span("igr-core.step", |_| solver.step()).map(|_| ()));
            (t0.elapsed().as_secs_f64(), stepped)
        });
        stepped.map_err(|e| format!("step failed: {e}"))?;
        let digest = state_digest(&self.solver.q);
        match self.first_digest {
            None => self.first_digest = Some(digest),
            Some(first) if first != digest => {
                return Err(format!(
                    "state digest {digest:016x} differs from the first quantum's {first:016x}"
                ));
            }
            Some(_) => {}
        }
        Ok((seconds, (self.cells() * steps) as f64))
    }
}

/// The fp64 reference sample for a jet workload: the same protocol's state
/// after `steps` steps from the initial condition.
pub fn reference_sample<Sch>(
    n: usize,
    seed: u64,
    steps: usize,
    make: impl Fn(&CaseSetup) -> Solver<f64, igr_prec::StoreF64, Sch, BcGhostOps>,
) -> Result<Sample, String>
where
    Sch: RhsScheme<f64, igr_prec::StoreF64>,
{
    let case = build_case(n, seed);
    let mut solver = make(&case);
    for _ in 0..steps {
        solver
            .step()
            .map_err(|e| format!("reference step failed: {e}"))?;
    }
    Ok(sample_of(&solver))
}

#[cfg(test)]
mod tests {
    use super::*;
    use igr_prec::{StoreF16, StoreF32, StoreF64};

    const SMALL: JetPlan = JetPlan {
        n: 12,
        spinup_steps: 2,
        steps_per_quantum: 1,
        setup_reps: 1,
    };

    fn smoke<R, S, Sch>(make: impl Fn(&CaseSetup) -> Solver<R, S, Sch, BcGhostOps>)
    where
        R: Real,
        S: Storage<R>,
        S::Packed: PackedBits + CheckpointScalar,
        Sch: RhsScheme<R, S>,
        Solver<R, S, Sch, BcGhostOps>: Checkpointable,
    {
        let mut tr = Tracer::new(true, "smoke");
        let mut s = JetSession::open(&SMALL, 1, make, &mut tr).unwrap();
        assert_eq!(s.setup_s.len(), 1);
        assert_eq!(s.solver.steps_taken(), 2);
        let (a, cell_steps) = s.quantum(&mut tr).unwrap();
        let (b, _) = s.quantum(&mut tr).unwrap();
        assert!(a > 0.0 && b > 0.0);
        assert_eq!(cell_steps, (12 * 12 * 12) as f64);
        assert_eq!(
            s.solver.steps_taken(),
            3,
            "each quantum restarts from the capture"
        );
        assert_eq!(s.cells(), 12 * 12 * 12);
        let sample = s.sample();
        assert!(sample.min_rho > 0.0 && sample.totals[0].is_finite());
        assert!(tr.spans().iter().any(|sp| sp.name == "igr-core.step"));
    }

    #[test]
    fn two_quantum_smoke_of_each_jet_workload() {
        smoke(|c| c.igr_solver::<f32, StoreF32>());
        smoke(|c| c.igr_solver::<f32, StoreF16>());
        smoke(|c| c.weno_solver::<f64, StoreF64>());
    }

    #[test]
    fn a_perturbed_state_fails_the_digest_check() {
        let mut tr = Tracer::new(false, "smoke");
        let mut s =
            JetSession::open(&SMALL, 1, |c| c.igr_solver::<f64, StoreF64>(), &mut tr).unwrap();
        s.quantum(&mut tr).unwrap();
        // Corrupt the capture the next quantum restores: different work,
        // different bits.
        s.solver.q.rho.set(3, 3, 3, 1.25);
        s.snapshot = s.solver.capture();
        let err = s.quantum(&mut tr).unwrap_err();
        assert!(err.contains("digest"), "{err}");
    }

    #[test]
    fn digest_sees_a_single_flipped_bit() {
        let case = build_case(12, 1);
        let mut q = case.init_state::<f32, StoreF32>();
        let before = state_digest(&q);
        let x = q.en.at(5, 5, 5);
        q.en.set(5, 5, 5, f32::from_bits(x.to_bits() ^ 1));
        assert_ne!(state_digest(&q), before);
    }
}
