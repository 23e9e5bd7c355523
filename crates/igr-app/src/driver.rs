//! The unified run-loop: one instrumented way to march **any** solver.
//!
//! Every workload in this repro used to hand-roll its own stepping loop —
//! examples, figure bins, the campaign executor, and the species solver each
//! re-implemented "step until X while watching Y". This module replaces
//! those loops with one composable surface:
//!
//! * [`Steppable`] — the minimal march contract (time, `stable_dt`,
//!   `step() → StepInfo`), implemented by `igr_core::Solver` (any scheme)
//!   and `igr_species::SpeciesSolver`;
//! * [`Probe`] — scheme-agnostic flow sampling ([`Sample`]) for
//!   diagnostics-driven observers and stop rules;
//! * [`Checkpointable`] — bit-exact capture/restore, built on the
//!   [`Checkpoint`] format (state + Σ + clock + pinned dt), powering
//!   [`CheckpointObserver`] autosaves and [`Driver::resume_from`];
//! * [`Observer`]s with [`Cadence`]s — every-N-steps, every-Δt of
//!   simulation time, or wall-clock intervals;
//! * [`StopCondition`]s — `t_end` (never overshooting — the driver clips
//!   the final steps exactly like the old `run_until`), max steps,
//!   wall-clock budget, NaN/divergence guard, steady-state residual;
//! * a progress/abort hook ([`Driver::on_progress`]);
//! * [`Controller`]s — the **act** phase of the two-phase loop. Observers
//!   stay read-only; controllers return typed [`Action`] requests after
//!   observing a step, and the driver applies them at the step boundary
//!   through [`crate::actions::Actuate`], appending every applied action to
//!   its [`ActionLog`]. The log rides in checkpoints, so
//!   [`Driver::resume_from`] replays a mutated run bitwise (see
//!   docs/DRIVER.md "Controllers & determinism");
//! * one entry point: [`Driver::run`] is the only marching loop. What a run
//!   can do beyond observing — act, checkpoint, recover — is attached on
//!   the builder, where the solver's trait bounds are checked at compile
//!   time (the capability table on [`Driver`]). Each rank of a decomposed
//!   run marches through the same loop ([`crate::parallel`]).
//!
//! ```
//! use igr_app::cases;
//! use igr_app::diagnostics::History;
//! use igr_app::driver::{Cadence, DiagnosticsObserver, Driver};
//! use igr_prec::StoreF64;
//!
//! let case = cases::steepening_wave(64, 0.3);
//! let mut solver = case.igr_solver::<f64, StoreF64>();
//! let mut history = History::new();
//! let summary = Driver::new()
//!     .until(0.05)
//!     .max_steps(10_000)
//!     .observe(Cadence::EverySteps(5), DiagnosticsObserver::new(&mut history))
//!     .run(&mut solver)
//!     .unwrap();
//! assert!((solver.t() - 0.05).abs() < 1e-12, "t_end is hit exactly");
//! assert!(!history.samples.is_empty());
//! # let _ = summary;
//! ```

use crate::actions::{installed_jet_state, Action, ActionLog, Actuate, ActuateError};
use crate::checkpoint::{Checkpoint, CheckpointError, CheckpointScalar, RankMeta};
use crate::diagnostics::{sample_state, History, Sample};
use crate::recovery::{InjectNan, RecoveryLog, RecoveryPolicy, Windows};
use igr_core::solver::{BcGhostOps, GhostOps, RhsScheme, Solver, SolverError, StepInfo};
use igr_core::Fields;
use igr_core::IgrScheme;
use igr_grid::Domain;
use igr_prec::{Real, Storage};
use igr_species::SpeciesSolver;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// The march contracts
// ---------------------------------------------------------------------------

/// The minimal time-marching contract the [`Driver`] needs.
///
/// Implementors: `igr_core::Solver` (IGR and the WENO baseline alike) and
/// `igr_species::SpeciesSolver`. The `fixed_dt` accessors let the driver
/// clip the final steps of a `t_end` run without overshooting, restoring
/// the caller's pinned dt afterwards.
pub trait Steppable {
    /// Current simulated time.
    fn time(&self) -> f64;
    /// Steps taken since construction (or since the restored checkpoint).
    fn steps_taken(&self) -> usize;
    /// CFL-limited time step the run takes next from the current state. On
    /// a decomposed run this is the globally min-reduced dt — a collective,
    /// hence `&mut self`: every rank calls it the same number of times.
    fn stable_dt(&mut self) -> f64;
    /// The pinned time step, if any.
    fn fixed_dt(&self) -> Option<f64>;
    /// Pin (or unpin) the time step.
    fn set_fixed_dt(&mut self, dt: Option<f64>);
    /// Advance one step.
    fn step(&mut self) -> Result<StepInfo, SolverError>;
    /// The domain being marched on.
    fn domain(&self) -> &Domain;
    /// First non-finite conserved value, if any (divergence guard).
    fn find_non_finite(&self) -> Option<(usize, (i32, i32, i32))>;
}

/// Scheme-agnostic flow sampling: what diagnostics observers and
/// steady-state stop rules read. Both solvers map their state onto the
/// single [`Sample`] record (the two-fluid solver reports mixture totals).
pub trait Probe: Steppable {
    /// Sample the current flow state.
    fn probe(&self) -> Sample;
}

/// Bit-exact capture/restore of everything a resumed run needs: conserved
/// state, Σ (warm-start trajectory), clock, and pinned dt.
pub trait Checkpointable: Steppable {
    /// Snapshot the current state.
    fn capture(&self) -> Checkpoint;
    /// Restore a snapshot (shape/precision validated), including the march
    /// clock and pinned dt.
    fn restore(&mut self, ck: &Checkpoint) -> Result<(), CheckpointError>;
}

/// Solvers that can write a VTK snapshot of their current state (the
/// [`VtkObserver`] contract).
pub trait VtkSnapshot: Steppable {
    /// Write the visualization bundle for the current state.
    fn write_vtk(&self, path: &Path, title: &str) -> std::io::Result<()>;
}

// ---------------------------------------------------------------------------
// Trait implementations for the solvers
// ---------------------------------------------------------------------------

impl<R, S, Sch, G> Steppable for Solver<R, S, Sch, G>
where
    R: Real,
    S: Storage<R>,
    Sch: RhsScheme<R, S>,
    G: GhostOps<R, S>,
{
    fn time(&self) -> f64 {
        self.t()
    }
    fn steps_taken(&self) -> usize {
        Solver::steps_taken(self)
    }
    fn stable_dt(&mut self) -> f64 {
        self.global_dt()
    }
    fn fixed_dt(&self) -> Option<f64> {
        self.fixed_dt
    }
    fn set_fixed_dt(&mut self, dt: Option<f64>) {
        self.fixed_dt = dt;
    }
    fn step(&mut self) -> Result<StepInfo, SolverError> {
        Solver::step(self)
    }
    fn domain(&self) -> &Domain {
        Solver::domain(self)
    }
    fn find_non_finite(&self) -> Option<(usize, (i32, i32, i32))> {
        self.q.find_non_finite()
    }
}

impl<R, S, Sch, G> Probe for Solver<R, S, Sch, G>
where
    R: Real,
    S: Storage<R>,
    Sch: RhsScheme<R, S>,
    G: GhostOps<R, S>,
{
    fn probe(&self) -> Sample {
        let gamma = self.scheme.params().gamma;
        sample_state(
            &self.q,
            Solver::domain(self),
            gamma,
            Solver::steps_taken(self),
            self.t(),
        )
    }
}

impl<R, S, Sch, G> VtkSnapshot for Solver<R, S, Sch, G>
where
    R: Real,
    S: Storage<R>,
    Sch: RhsScheme<R, S>,
    G: GhostOps<R, S>,
{
    fn write_vtk(&self, path: &Path, title: &str) -> std::io::Result<()> {
        let gamma = self.scheme.params().gamma;
        crate::vtk::write_state_vtk(path, title, &self.q, Solver::domain(self), gamma)
    }
}

/// The IGR solver checkpoints its Σ field alongside the conserved state, so
/// a restored run's warm-started elliptic solve stays on the identical
/// trajectory.
impl<R, S, G> Checkpointable for Solver<R, S, IgrScheme<R, S>, G>
where
    R: Real,
    S: Storage<R>,
    S::Packed: CheckpointScalar,
    G: GhostOps<R, S>,
{
    fn capture(&self) -> Checkpoint {
        Checkpoint::capture_fields(
            &self.q.fields(),
            Some(self.scheme.sigma()),
            self.t(),
            Solver::steps_taken(self),
            self.fixed_dt,
        )
    }

    fn restore(&mut self, ck: &Checkpoint) -> Result<(), CheckpointError> {
        ck.restore_fields(&mut self.q.fields_mut(), Some(self.scheme.sigma_mut()))?;
        self.reset_clock(ck.t, ck.step);
        self.fixed_dt = ck.fixed_dt;
        Ok(())
    }
}

/// The WENO baseline recomputes every per-step buffer from the conserved
/// state, so its snapshot is the state plus the clock — no Σ.
impl<R, S, G> Checkpointable for Solver<R, S, igr_baseline::WenoHllcScheme<R, S>, G>
where
    R: Real,
    S: Storage<R>,
    S::Packed: CheckpointScalar,
    G: GhostOps<R, S>,
{
    fn capture(&self) -> Checkpoint {
        Checkpoint::capture_fields(
            &self.q.fields(),
            None,
            self.t(),
            Solver::steps_taken(self),
            self.fixed_dt,
        )
    }

    fn restore(&mut self, ck: &Checkpoint) -> Result<(), CheckpointError> {
        ck.restore_fields(&mut self.q.fields_mut(), None)?;
        self.reset_clock(ck.t, ck.step);
        self.fixed_dt = ck.fixed_dt;
        Ok(())
    }
}

impl<R, S> Steppable for SpeciesSolver<R, S>
where
    R: Real,
    S: Storage<R>,
{
    fn time(&self) -> f64 {
        self.t()
    }
    fn steps_taken(&self) -> usize {
        SpeciesSolver::steps_taken(self)
    }
    fn stable_dt(&mut self) -> f64 {
        SpeciesSolver::stable_dt(self)
    }
    fn fixed_dt(&self) -> Option<f64> {
        self.fixed_dt
    }
    fn set_fixed_dt(&mut self, dt: Option<f64>) {
        self.fixed_dt = dt;
    }
    fn step(&mut self) -> Result<StepInfo, SolverError> {
        SpeciesSolver::step(self)
    }
    fn domain(&self) -> &Domain {
        SpeciesSolver::domain(self)
    }
    fn find_non_finite(&self) -> Option<(usize, (i32, i32, i32))> {
        self.q.find_non_finite()
    }
}

impl<R, S> Probe for SpeciesSolver<R, S>
where
    R: Real,
    S: Storage<R>,
{
    /// Two-fluid probe: totals report the *mixture* (ρ₁+ρ₂ as mass, the
    /// shared momenta and energy), Mach uses the mixture sound speed.
    fn probe(&self) -> Sample {
        use igr_species::eos::{I_E, I_MX, I_R1, I_R2};
        let eos = &self.cfg.eos;
        let domain = SpeciesSolver::domain(self);
        let shape = self.q.shape();
        let vol = domain.cell_volume();
        let mut ke = 0.0f64;
        let mut max_mach = 0.0f64;
        let mut min_rho = f64::INFINITY;
        for k in 0..shape.nz as i32 {
            for j in 0..shape.ny as i32 {
                for i in 0..shape.nx as i32 {
                    let pr = self.q.prim_at(i, j, k, eos);
                    let rho = pr.rho().to_f64();
                    let speed2 = pr.vel.iter().map(|v| v.to_f64().powi(2)).sum::<f64>();
                    ke += 0.5 * rho * speed2;
                    let c = pr.sound_speed(eos).to_f64();
                    if c > 0.0 {
                        max_mach = max_mach.max(speed2.sqrt() / c);
                    }
                    min_rho = min_rho.min(rho);
                }
            }
        }
        let t7 = self.q.totals(domain);
        Sample {
            step: SpeciesSolver::steps_taken(self),
            t: self.t(),
            totals: [
                t7[I_R1] + t7[I_R2],
                t7[I_MX],
                t7[I_MX + 1],
                t7[I_MX + 2],
                t7[I_E],
            ],
            kinetic_energy: ke * vol,
            max_mach,
            min_rho,
        }
    }
}

impl<R, S> Checkpointable for SpeciesSolver<R, S>
where
    R: Real,
    S: Storage<R>,
    S::Packed: CheckpointScalar,
{
    fn capture(&self) -> Checkpoint {
        Checkpoint::capture_fields(
            &self.q.fields(),
            Some(self.sigma()),
            self.t(),
            SpeciesSolver::steps_taken(self),
            self.fixed_dt,
        )
    }

    fn restore(&mut self, ck: &Checkpoint) -> Result<(), CheckpointError> {
        // Split the borrow: fields_mut() and sigma_mut() both take &mut self.
        let (t, step, fixed_dt) = (ck.t, ck.step, ck.fixed_dt);
        ck.restore_fields(&mut self.q.fields_mut(), None)?;
        // `restore_fields` with `None` sigma succeeds on a sigma-carrying
        // snapshot; pull Σ explicitly afterwards.
        ck.restore_sigma_into(self.sigma_mut())?;
        self.reset_clock(t, step);
        self.fixed_dt = fixed_dt;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Observers
// ---------------------------------------------------------------------------

/// How often an observer (or the progress hook) fires.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Cadence {
    /// After every step.
    EveryStep,
    /// Every `n` steps, aligned to the absolute step counter (so a resumed
    /// run fires on the same steps the uninterrupted run would).
    EverySteps(usize),
    /// Whenever at least `Δt` of *simulation* time has passed since the
    /// last firing.
    EveryTime(f64),
    /// Whenever at least this much wall-clock time has passed since the
    /// last firing.
    EveryWall(Duration),
}

/// Per-observer cadence bookkeeping.
#[derive(Clone, Copy)]
struct CadenceState {
    last_t: f64,
    last_wall: Instant,
}

impl Cadence {
    fn validate(&self) {
        match self {
            Cadence::EverySteps(n) => assert!(*n >= 1, "EverySteps cadence needs n >= 1"),
            Cadence::EveryTime(dt) => assert!(*dt > 0.0, "EveryTime cadence needs dt > 0"),
            _ => {}
        }
    }

    fn fires(&self, state: &mut CadenceState, info: &StepInfo) -> bool {
        match self {
            Cadence::EveryStep => true,
            Cadence::EverySteps(n) => info.step % n == 0,
            Cadence::EveryTime(dt) => {
                if info.t >= state.last_t + dt {
                    state.last_t = info.t;
                    true
                } else {
                    false
                }
            }
            Cadence::EveryWall(d) => {
                if state.last_wall.elapsed() >= *d {
                    state.last_wall = Instant::now();
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// Anything the driver can fail with.
#[derive(Debug)]
pub enum DriverError {
    /// The solver itself failed (NaN blow-up, degenerate dt).
    Solver(SolverError),
    /// An observer's I/O failed (VTK/CSV write).
    Io(std::io::Error),
    /// Checkpoint save/load/restore failed.
    Checkpoint(CheckpointError),
    /// A controller-requested action could not be applied (unsupported by
    /// the solver, parameters out of range, or `RequestCheckpoint` without
    /// a configured [`Driver::checkpoint_to`] path).
    Action(String),
    /// [`StopCondition::DivergenceGuard`] tripped: the flow is blowing up
    /// (KE growth or positivity loss) even though every value is still
    /// finite. Recoverable under a [`Driver::recover`] policy.
    Diverged {
        /// Absolute step the guard tripped at.
        step: usize,
        /// Kinetic energy at the trip.
        kinetic_energy: f64,
        /// Kinetic energy at the previous probe (NaN if none).
        prev: f64,
    },
    /// A recovered run rolled back `retries` times within one backoff
    /// chain without getting past the trip — the divergence is persistent,
    /// not transient.
    RetriesExhausted {
        /// Absolute step the final trip happened at.
        step: usize,
        /// The policy's retry budget that was exhausted.
        retries: usize,
    },
}

impl std::fmt::Display for DriverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DriverError::Solver(e) => write!(f, "solver: {e}"),
            DriverError::Io(e) => write!(f, "observer I/O: {e}"),
            DriverError::Checkpoint(e) => write!(f, "checkpoint: {e}"),
            DriverError::Action(m) => write!(f, "action: {m}"),
            DriverError::Diverged {
                step,
                kinetic_energy,
                prev,
            } => write!(
                f,
                "diverged at step {step}: kinetic energy {kinetic_energy:e} (was {prev:e})"
            ),
            DriverError::RetriesExhausted { step, retries } => write!(
                f,
                "recovery retries exhausted: still diverged at step {step} after {retries} rollbacks"
            ),
        }
    }
}

impl std::error::Error for DriverError {}

impl From<SolverError> for DriverError {
    fn from(e: SolverError) -> Self {
        DriverError::Solver(e)
    }
}
impl From<std::io::Error> for DriverError {
    fn from(e: std::io::Error) -> Self {
        DriverError::Io(e)
    }
}
impl From<CheckpointError> for DriverError {
    fn from(e: CheckpointError) -> Self {
        DriverError::Checkpoint(e)
    }
}

/// A composable run-loop instrument. Observers see the system immutably
/// *after* each step they fire on; they mutate only their own sinks
/// (history buffers, files on disk).
pub trait Observer<P: ?Sized> {
    /// Called after a step on which the observer's cadence fires.
    fn on_step(&mut self, sys: &P, info: &StepInfo) -> Result<(), DriverError>;
    /// Called once when the run ends (any stop reason; not on error).
    fn on_finish(&mut self, sys: &P) -> Result<(), DriverError> {
        let _ = sys;
        Ok(())
    }
}

/// Records a [`Sample`] time series into a caller-owned [`History`] — the
/// in-flight diagnostics every long campaign run wants (conserved-total
/// drift, kinetic energy, peak Mach, positivity watch).
pub struct DiagnosticsObserver<'h> {
    history: &'h mut History,
}

impl<'h> DiagnosticsObserver<'h> {
    /// Record into `history`.
    pub fn new(history: &'h mut History) -> Self {
        DiagnosticsObserver { history }
    }
}

impl<P: Probe + ?Sized> Observer<P> for DiagnosticsObserver<'_> {
    fn on_step(&mut self, sys: &P, _info: &StepInfo) -> Result<(), DriverError> {
        self.history.push(sys.probe());
        Ok(())
    }
}

/// Snapshots per-phase wall-time totals from the `igr-obs` registry into a
/// caller-owned [`History`] at cadence: each firing records, per phase, the
/// seconds and span count accumulated *since the previous firing* (so the
/// series integrates to the run's phase breakdown). Construction enables
/// span recording globally ([`igr_obs::enable`]); it is left on afterwards
/// — instrumentation never perturbs FP results, only wall time.
pub struct MetricsObserver<'h> {
    history: &'h mut History,
    /// Per-phase `(total_ns, count)` at the previous firing.
    last: std::collections::BTreeMap<String, (u64, u64)>,
}

impl<'h> MetricsObserver<'h> {
    /// Record phase deltas into `history` (enables span recording).
    pub fn new(history: &'h mut History) -> Self {
        igr_obs::enable();
        // Deltas are measured against the registry as it stands now, not
        // against zero — a second instrumented run in the same process must
        // not inherit the first run's totals.
        let last = Self::totals(&igr_obs::Registry::global().snapshot());
        MetricsObserver { history, last }
    }

    fn totals(snap: &igr_obs::Snapshot) -> std::collections::BTreeMap<String, (u64, u64)> {
        snap.histograms
            .iter()
            .map(|h| (h.name.clone(), (h.total_ns, h.count)))
            .collect()
    }
}

impl<P: Steppable + ?Sized> Observer<P> for MetricsObserver<'_> {
    fn on_step(&mut self, _sys: &P, info: &StepInfo) -> Result<(), DriverError> {
        let now = Self::totals(&igr_obs::Registry::global().snapshot());
        let mut phases = Vec::new();
        for (name, (total_ns, count)) in &now {
            let (prev_ns, prev_n) = self.last.get(name).copied().unwrap_or((0, 0));
            let d_ns = total_ns.saturating_sub(prev_ns);
            let d_n = count.saturating_sub(prev_n);
            if d_n > 0 {
                phases.push((name.clone(), d_ns as f64 * 1e-9, d_n));
            }
        }
        self.last = now;
        self.history.push_phases(crate::diagnostics::PhaseSample {
            step: info.step,
            t: info.t,
            phases,
        });
        Ok(())
    }
}

/// Streams the `igr-obs` event buffer to a trace file when the run ends.
/// Construction enables span recording *and* event capture; `on_finish`
/// writes either a `chrome://tracing`-compatible `trace.json` or an
/// append-only JSONL event log, depending on the constructor used.
pub struct TraceObserver {
    path: PathBuf,
    chrome: bool,
}

impl TraceObserver {
    /// Write a `chrome://tracing` / Perfetto `trace.json` to `path` when
    /// the run finishes.
    pub fn chrome(path: impl Into<PathBuf>) -> Self {
        igr_obs::enable();
        igr_obs::Registry::global().set_capture_events(true);
        TraceObserver {
            path: path.into(),
            chrome: true,
        }
    }

    /// Write a JSON-lines event log to `path` when the run finishes.
    pub fn jsonl(path: impl Into<PathBuf>) -> Self {
        igr_obs::enable();
        igr_obs::Registry::global().set_capture_events(true);
        TraceObserver {
            path: path.into(),
            chrome: false,
        }
    }

    /// The output path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl<P: ?Sized> Observer<P> for TraceObserver {
    fn on_step(&mut self, _sys: &P, _info: &StepInfo) -> Result<(), DriverError> {
        Ok(())
    }

    fn on_finish(&mut self, _sys: &P) -> Result<(), DriverError> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&self.path)?);
        let reg = igr_obs::Registry::global();
        if self.chrome {
            reg.export_chrome_trace(&mut f)?;
        } else {
            reg.export_jsonl(&mut f)?;
        }
        use std::io::Write;
        f.flush()?;
        Ok(())
    }
}

/// Autosaves a restart file. Each firing captures a full bit-exact
/// [`Checkpoint`] and replaces the file atomically through the one shared
/// writer ([`Checkpoint::save_atomic`]: uniquely named tmp + rename), so a
/// crash mid-save leaves the previous restart intact and a concurrent
/// controller-requested snapshot on the same path can never interleave
/// bytes with an autosave.
pub struct CheckpointObserver {
    path: PathBuf,
    /// How many snapshots this observer has written.
    pub saved: usize,
}

impl CheckpointObserver {
    /// Autosave to `path`, overwriting (latest-wins restart-file semantics).
    pub fn autosave(path: impl Into<PathBuf>) -> Self {
        CheckpointObserver {
            path: path.into(),
            saved: 0,
        }
    }

    /// The restart-file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl<P: Checkpointable + ?Sized> Observer<P> for CheckpointObserver {
    fn on_step(&mut self, sys: &P, _info: &StepInfo) -> Result<(), DriverError> {
        sys.capture().save_atomic(&self.path)?;
        self.saved += 1;
        Ok(())
    }
}

/// Writes step-numbered VTK snapshots (`<stem>_NNNNNN.vtk`) for volume
/// rendering — the Fig. 1 pipeline as an observer.
pub struct VtkObserver {
    dir: PathBuf,
    stem: String,
    title: String,
    /// Paths written so far, in order.
    pub written: Vec<PathBuf>,
}

impl VtkObserver {
    /// Write `<dir>/<stem>_NNNNNN.vtk` snapshots titled `title`.
    pub fn new(dir: impl Into<PathBuf>, stem: impl Into<String>, title: impl Into<String>) -> Self {
        VtkObserver {
            dir: dir.into(),
            stem: stem.into(),
            title: title.into(),
            written: Vec::new(),
        }
    }
}

impl<P: VtkSnapshot + ?Sized> Observer<P> for VtkObserver {
    fn on_step(&mut self, sys: &P, info: &StepInfo) -> Result<(), DriverError> {
        let path = self.dir.join(format!("{}_{:06}.vtk", self.stem, info.step));
        sys.write_vtk(&path, &self.title)?;
        self.written.push(path);
        Ok(())
    }
}

/// Adapter turning a closure into an observer — the escape hatch for
/// bespoke per-run instrumentation (figure bins record custom series with
/// this instead of hand-rolling a loop).
pub struct FnObserver<F>(pub F);

impl<P: ?Sized, F> Observer<P> for FnObserver<F>
where
    F: FnMut(&P, &StepInfo) -> Result<(), DriverError>,
{
    fn on_step(&mut self, sys: &P, info: &StepInfo) -> Result<(), DriverError> {
        (self.0)(sys, info)
    }
}

// ---------------------------------------------------------------------------
// Controllers — the act phase
// ---------------------------------------------------------------------------

/// The act phase of the two-phase loop: after observing a step (same
/// immutable view as an [`Observer`]), a controller returns the [`Action`]s
/// it wants applied. The driver applies them **at the step boundary**, in
/// the order returned, through [`Actuate`], and appends each applied action
/// to the run's [`ActionLog`].
///
/// Determinism: a controller fired at a deterministic cadence
/// ([`Cadence::EverySteps`] is absolute-step aligned) whose decisions are a
/// pure function of `(sys, info)` yields the same action sequence on every
/// run — and because the log replays on resume, an interrupted controlled
/// run matches the uninterrupted one bitwise. Wall-clock cadences or
/// stateful controllers forfeit that.
pub trait Controller<P: ?Sized> {
    /// Observe the post-step state and return the actions to apply now.
    fn control(&mut self, sys: &P, info: &StepInfo) -> Vec<Action>;
}

/// A scripted controller: emits each `(step, action)` entry the first time
/// the run reaches (or passes) that absolute step. The injected-fault
/// workhorse — engine-out cascades and backpressure transients for tests
/// and examples.
pub struct ScheduledActions {
    schedule: Vec<(usize, Action)>,
    next: usize,
}

impl ScheduledActions {
    /// Build from `(absolute step, action)` pairs; entries are applied in
    /// step order (stable for equal steps).
    pub fn new(mut schedule: Vec<(usize, Action)>) -> Self {
        schedule.sort_by_key(|(s, _)| *s);
        ScheduledActions { schedule, next: 0 }
    }

    /// Drop entries at or before `step` — for resumed runs, where the
    /// checkpoint's replayed log already covers everything up to the
    /// snapshot step.
    pub fn skip_through(mut self, step: usize) -> Self {
        while self.next < self.schedule.len() && self.schedule[self.next].0 <= step {
            self.next += 1;
        }
        self
    }
}

impl<P: ?Sized> Controller<P> for ScheduledActions {
    fn control(&mut self, _sys: &P, info: &StepInfo) -> Vec<Action> {
        let mut out = Vec::new();
        while self.next < self.schedule.len() && self.schedule[self.next].0 <= info.step {
            out.push(self.schedule[self.next].1.clone());
            self.next += 1;
        }
        out
    }
}

/// Proportional feedback gimbal controller on the probe-sampled
/// thrust-asymmetry cost.
///
/// The cost signal is the flux-weighted backflow centroid of the base
/// plane ([`crate::base::BaseHeatingReport::footprint_centroid`]): on a
/// symmetric engine array it sits at the array centroid; an engine-out or
/// gimbal imbalance pushes it off-center. The controller steers every
/// engine's gimbal proportionally against that offset
/// (`target = clamp(-gain · offset, ±max_angle)`), emitting
/// [`Action::SetGimbal`] only when the correction exceeds `deadband`.
///
/// The controller is **stateless**: its output is a pure function of the
/// observed state and the installed inflow profile, so a resumed run (which
/// reconstructs the profile by replaying the action log) recomputes the
/// identical commands — controlled resume stays bitwise.
pub struct GimbalFeedbackController {
    /// Proportional gain mapping centroid offset (domain units) to gimbal
    /// angle (radians).
    pub gain: f64,
    /// Slew rate forwarded to [`Action::SetGimbal`]; 0 = instant retarget.
    pub rate: f64,
    /// Minimum command change (radians, per axis) worth acting on.
    pub deadband: f64,
    /// Gimbal authority limit (radians, per axis).
    pub max_angle: f64,
}

impl GimbalFeedbackController {
    /// A controller with the given gain, instant retargets, and the default
    /// deadband (1e-4 rad) and authority limit (0.35 rad ≈ 20°).
    pub fn with_gain(gain: f64) -> Self {
        GimbalFeedbackController {
            gain,
            rate: 0.0,
            deadband: 1e-4,
            max_angle: 0.35,
        }
    }
}

impl<R, S, Sch> Controller<Solver<R, S, Sch, BcGhostOps>> for GimbalFeedbackController
where
    R: Real,
    S: Storage<R>,
    Sch: RhsScheme<R, S>,
{
    fn control(&mut self, sys: &Solver<R, S, Sch, BcGhostOps>, info: &StepInfo) -> Vec<Action> {
        let Some((jet, gimbals)) = installed_jet_state(&sys.ghost.bcs, info.t) else {
            return Vec::new();
        };
        if jet.engines.is_empty() {
            return Vec::new();
        }
        let gamma = sys.scheme.params().gamma;
        let report =
            crate::base::BaseHeatingReport::measure(&sys.q, Solver::domain(sys), gamma, &jet);
        let n = jet.engines.len() as f64;
        let center = jet.engines.iter().fold([0.0f64; 2], |acc, e| {
            [acc[0] + e.center[0] / n, acc[1] + e.center[1] / n]
        });
        let offset = [
            report.footprint_centroid[0] - center[0],
            report.footprint_centroid[1] - center[1],
        ];
        if !(offset[0].is_finite() && offset[1].is_finite()) {
            // No backflow sampled (zero-flux centroid is NaN): nothing to
            // correct against yet.
            return Vec::new();
        }
        let target = [
            (-self.gain * offset[0]).clamp(-self.max_angle, self.max_angle),
            (-self.gain * offset[1]).clamp(-self.max_angle, self.max_angle),
        ];
        let mut out = Vec::new();
        for (i, g) in gimbals.iter().enumerate() {
            let delta = (target[0] - g[0]).abs().max((target[1] - g[1]).abs());
            if delta > self.deadband {
                out.push(Action::SetGimbal {
                    engine: i,
                    target,
                    rate: self.rate,
                });
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Stop conditions
// ---------------------------------------------------------------------------

/// Why a run may end. All conditions on a driver are checked every step;
/// the first that holds ends the run (its [`StopReason`] is reported).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StopCondition {
    /// March to `t_end` exactly (the driver clips the last steps so the run
    /// never overshoots, like the old `run_until`).
    TimeReached(f64),
    /// At most this many steps *in this run* (a resumed run gets a fresh
    /// budget).
    MaxSteps(usize),
    /// March to this **absolute** step count (`Steppable::steps_taken`),
    /// checked before each step — the recovery loop's window boundary,
    /// which must land on the same absolute steps whether the run is
    /// fresh, re-run after a rollback, or resumed from a checkpoint.
    StepReached(usize),
    /// Wall-clock budget for this run.
    WallClock(Duration),
    /// Scan the state for NaN/Inf every `every` steps and fail the run (as
    /// [`SolverError::NonFinite`]) if any — the guard for benchmark-style
    /// runs that disable the solver's own per-step check.
    NanGuard {
        /// Scan cadence in steps.
        every: usize,
    },
    /// Declare steady state when the relative change of volume-integrated
    /// kinetic energy between consecutive probes (taken every `every`
    /// steps) drops below `tol`.
    SteadyState {
        /// Probe cadence in steps.
        every: usize,
        /// Relative-change threshold.
        tol: f64,
    },
    /// Probe every `every` steps and fail the run
    /// ([`DriverError::Diverged`]) when the flow is blowing up *before*
    /// the NaNs arrive: kinetic energy non-finite or growing faster than
    /// `max_growth`× between consecutive probes, or density no longer
    /// positive. Catching the spike early keeps the recovery rollback
    /// window short.
    DivergenceGuard {
        /// Probe cadence in steps.
        every: usize,
        /// Maximum allowed KE ratio between consecutive probes (> 1).
        max_growth: f64,
    },
}

/// How a completed run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// [`StopCondition::TimeReached`] was hit (exactly).
    TimeReached,
    /// [`StopCondition::MaxSteps`] exhausted.
    MaxSteps,
    /// [`StopCondition::WallClock`] exhausted.
    WallClock,
    /// [`StopCondition::SteadyState`] held.
    SteadyState,
    /// [`StopCondition::StepReached`] was hit (absolute step count).
    StepReached,
    /// The progress hook returned `false`.
    Aborted,
}

/// What a completed (non-error) run did.
#[derive(Clone, Copy, Debug)]
pub struct RunSummary {
    /// Steps taken by this `run` call.
    pub steps: usize,
    /// Simulation time at the end.
    pub t: f64,
    /// Which condition ended the run.
    pub stop: StopReason,
    /// Wall-clock seconds spent inside `run`.
    pub wall_s: f64,
}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

type ProgressHook<'a, P> = Box<dyn FnMut(&P, &StepInfo) -> bool + 'a>;

/// Why [`Driver::control`] and [`Driver::recover`] refuse each other.
const CONTROL_VS_RECOVERY: &str =
    "recovered runs do not support controllers (windows re-run on rollback)";

/// Composable run-loop: observers + stop conditions + progress hook over
/// any [`Probe`]-capable solver, plus the capabilities attached on the
/// builder — each checked against the solver's traits where it is attached,
/// so [`Driver::run`] is the one way to march:
///
/// | builder | needs | adds |
/// |---|---|---|
/// | [`Driver::control`] | [`Actuate`] | controllers whose actions apply at step boundaries and are logged |
/// | [`Driver::checkpoint_to`] | [`Checkpointable`] | the restart file (autosave cadence, `RequestCheckpoint`) with both logs embedded |
/// | [`Driver::recover`] | [`Checkpointable`] | snapshot ring, rollback and dt backoff on divergence |
/// | [`Driver::inject_nan_at`] | [`InjectNan`] | the chaos hook recovery tests trip on |
/// | [`Driver::resume_from`] | [`Checkpointable`] + [`Actuate`] | re-entry from a restart file |
///
/// Build with the fluent methods, then call [`Driver::run`] (repeatedly, if
/// marching in segments — cadence state resets per call, stop conditions
/// and both logs persist).
pub struct Driver<'a, P: ?Sized> {
    observers: Vec<(Cadence, Box<dyn Observer<P> + 'a>)>,
    stops: Vec<StopCondition>,
    progress: Option<(Cadence, ProgressHook<'a, P>)>,
    controllers: Vec<(Cadence, Box<dyn Controller<P> + 'a>)>,
    /// The solver's [`Actuate::actuate`], captured by [`Driver::control`].
    actuate: Option<ActuateFn<P>>,
    /// The restart file: `(path, optional autosave cadence)`.
    checkpoint: Option<(PathBuf, Option<Cadence>)>,
    /// The solver's [`Checkpointable::capture`], captured by
    /// [`Driver::checkpoint_to`] / [`Driver::recover`].
    capture: Option<fn(&P) -> Checkpoint>,
    /// The recovery policy and the solver's [`Checkpointable::restore`].
    pub(crate) recovery: Option<(RecoveryPolicy, RestoreFn<P>)>,
    /// Chaos hook: the absolute step to poison at and the solver's
    /// [`InjectNan::inject_nan`].
    pub(crate) nan_injection: Option<(usize, InjectFn<P>)>,
    /// Set by the decomposed launcher: every snapshot this driver writes is
    /// one rank's shard and carries the `IGRRANK` trailer.
    pub(crate) rank_meta: Option<RankMeta>,
    action_log: ActionLog,
    pub(crate) recovery_log: RecoveryLog,
}

// The solver capabilities the builder methods capture, as plain fn pointers
// — which is what lets `run` ask for nothing beyond `Probe`.
type ActuateFn<P> = fn(&mut P, &Action, f64) -> Result<(), ActuateError>;
type RestoreFn<P> = fn(&mut P, &Checkpoint) -> Result<(), CheckpointError>;
type InjectFn<P> = fn(&mut P);

impl<'a, P: ?Sized> Default for Driver<'a, P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a, P: ?Sized> Driver<'a, P> {
    /// A driver with nothing attached: add at least one terminating stop
    /// condition before [`Driver::run`].
    pub fn new() -> Self {
        Driver {
            observers: Vec::new(),
            stops: Vec::new(),
            progress: None,
            controllers: Vec::new(),
            actuate: None,
            checkpoint: None,
            capture: None,
            recovery: None,
            nan_injection: None,
            rank_meta: None,
            action_log: ActionLog::new(),
            recovery_log: RecoveryLog::new(),
        }
    }

    /// Attach an observer at a cadence.
    pub fn observe(mut self, cadence: Cadence, obs: impl Observer<P> + 'a) -> Self {
        cadence.validate();
        self.observers.push((cadence, Box::new(obs)));
        self
    }

    /// Attach a controller at a cadence. Controllers fire after all
    /// observers and the progress hook, in attachment order; their actions
    /// apply **at the step boundary**, before the next step begins —
    /// [`Action::RequestCheckpoint`] snapshots to the
    /// [`Driver::checkpoint_to`] path, every other action goes through
    /// [`Actuate::actuate`] — and each applied action is appended to the
    /// driver's [`ActionLog`]. Use [`Cadence::EverySteps`] (absolute-step
    /// aligned) for resume-deterministic control.
    ///
    /// Panics if a recovery policy is attached: windows re-run on rollback
    /// and would apply a controller's actions twice.
    pub fn control(mut self, cadence: Cadence, ctrl: impl Controller<P> + 'a) -> Self
    where
        P: Actuate,
    {
        cadence.validate();
        assert!(self.recovery.is_none(), "{CONTROL_VS_RECOVERY}");
        self.controllers.push((cadence, Box::new(ctrl)));
        self.actuate = Some(P::actuate);
        self
    }

    /// Set the restart file: controller [`Action::RequestCheckpoint`]s
    /// snapshot here, with `autosave = Some(cadence)` the driver also saves
    /// periodically, and a recovered run saves at every healthy window
    /// boundary (the cadence is then unused). Every snapshot embeds the
    /// current [`ActionLog`] and [`RecoveryLog`] — empty logs add no bytes —
    /// and goes through the one atomic writer ([`Checkpoint::save_atomic`]),
    /// so writers can never race each other on the file.
    pub fn checkpoint_to(mut self, path: impl Into<PathBuf>, autosave: Option<Cadence>) -> Self
    where
        P: Checkpointable,
    {
        if let Some(c) = &autosave {
            c.validate();
        }
        self.checkpoint = Some((path.into(), autosave));
        self.capture = Some(P::capture);
        self
    }

    /// Heal divergence instead of failing: the run proceeds in windows
    /// bounded by the policy's snapshot cadence; a trip (solver error, NaN
    /// scan hit, [`StopCondition::DivergenceGuard`]) rolls back to the last
    /// healthy snapshot and re-runs the window at a backed-off fixed dt.
    /// See [`crate::recovery`] for the contract.
    ///
    /// Panics on a degenerate policy, or if controllers are attached.
    pub fn recover(mut self, policy: RecoveryPolicy) -> Self
    where
        P: Checkpointable,
    {
        policy.validate();
        assert!(self.controllers.is_empty(), "{CONTROL_VS_RECOVERY}");
        self.recovery = Some((policy, P::restore));
        self.capture = Some(P::capture);
        self
    }

    /// Chaos-engineering hook: poison one cell with NaN when a recovered
    /// run first reaches absolute step `step` (an injection, not physics —
    /// see [`InjectNan`]). Fires once, at a window boundary of a
    /// [`Driver::recover`] run, and only while the recovery log is empty,
    /// so resumed mid-recovery runs stay bitwise.
    pub fn inject_nan_at(mut self, step: usize) -> Self
    where
        P: InjectNan,
    {
        self.nan_injection = Some((step, P::inject_nan));
        self
    }

    /// Re-enter an interrupted run from a loaded restart file: restore the
    /// conserved state (bit-exact), Σ, march clock and pinned dt — validated
    /// before anything is written, so an error leaves `sys` untouched —
    /// then **replay** the embedded action log against the freshly built
    /// solver (checkpoints carry fields, not boundary conditions: the replay
    /// reconstructs engine knock-outs, gimbal ramps and backpressure changes
    /// from their recorded application times) and seed both of this
    /// driver's logs, so later snapshots carry the full history and a
    /// recovered run replays the identical dt schedule.
    pub fn resume_from(&mut self, sys: &mut P, ck: &Checkpoint) -> Result<(), DriverError>
    where
        P: Checkpointable + Actuate,
    {
        sys.restore(ck)?;
        crate::actions::replay(&ck.actions, sys).map_err(|e| DriverError::Action(e.to_string()))?;
        self.action_log = ck.actions.clone();
        self.recovery_log = ck.recoveries.clone();
        Ok(())
    }

    /// The actions applied so far (across `run` calls, plus any seeded by
    /// [`Driver::resume_from`]).
    pub fn action_log(&self) -> &ActionLog {
        &self.action_log
    }

    /// Take ownership of the accumulated action log (leaves an empty one).
    pub fn take_action_log(&mut self) -> ActionLog {
        std::mem::take(&mut self.action_log)
    }

    /// The rollbacks performed so far (across `run` calls, plus any seeded
    /// by [`Driver::resume_from`]).
    pub fn recovery_log(&self) -> &RecoveryLog {
        &self.recovery_log
    }

    /// Take ownership of the accumulated recovery log (leaves an empty one).
    pub fn take_recovery_log(&mut self) -> RecoveryLog {
        std::mem::take(&mut self.recovery_log)
    }

    /// Add a stop condition (the first condition to hold ends the run).
    pub fn stop_when(mut self, cond: StopCondition) -> Self {
        if let StopCondition::NanGuard { every }
        | StopCondition::SteadyState { every, .. }
        | StopCondition::DivergenceGuard { every, .. } = &cond
        {
            assert!(*every >= 1, "stop-condition cadence needs every >= 1");
        }
        if let StopCondition::DivergenceGuard { max_growth, .. } = &cond {
            assert!(
                *max_growth > 1.0 && max_growth.is_finite(),
                "DivergenceGuard needs a finite max_growth > 1"
            );
        }
        self.stops.push(cond);
        self
    }

    /// Sugar for [`StopCondition::TimeReached`].
    pub fn until(self, t_end: f64) -> Self {
        self.stop_when(StopCondition::TimeReached(t_end))
    }

    /// Sugar for [`StopCondition::MaxSteps`].
    pub fn max_steps(self, n: usize) -> Self {
        self.stop_when(StopCondition::MaxSteps(n))
    }

    /// Attach a progress hook. Return `false` to abort the run cleanly
    /// (observers still see their `on_finish`; the summary reports
    /// [`StopReason::Aborted`]).
    pub fn on_progress(
        mut self,
        cadence: Cadence,
        hook: impl FnMut(&P, &StepInfo) -> bool + 'a,
    ) -> Self {
        cadence.validate();
        self.progress = Some((cadence, Box::new(hook)));
        self
    }

    /// A full snapshot of `sys`: state plus both logs (and the rank trailer
    /// for a decomposed run's shard).
    pub(crate) fn snapshot(&self, sys: &P) -> Checkpoint {
        let capture = self
            .capture
            .expect("checkpoint_to/recover captured the solver's capture fn");
        let mut ck = capture(sys)
            .with_actions(self.action_log.clone())
            .with_recoveries(self.recovery_log.clone());
        ck.rank_meta = self.rank_meta;
        ck
    }

    /// Write `ck` to the restart file, if one is configured.
    pub(crate) fn save(&self, ck: &Checkpoint) -> Result<(), DriverError> {
        if let Some((path, _)) = &self.checkpoint {
            ck.save_atomic(path)?;
        }
        Ok(())
    }

    /// Apply one action at the boundary after absolute step `step` (time
    /// `t`) and append it to the log.
    pub(crate) fn apply(
        &mut self,
        sys: &mut P,
        action: &Action,
        step: usize,
        t: f64,
    ) -> Result<(), DriverError> {
        if matches!(action, Action::RequestCheckpoint) {
            if self.checkpoint.is_none() {
                return Err(DriverError::Action(
                    "RequestCheckpoint needs a checkpoint_to path".into(),
                ));
            }
            // Record the request BEFORE capturing, so the snapshot's
            // embedded log covers it and a resumed run's log matches the
            // uninterrupted run's.
            self.action_log.record(step as u64, t, action.clone());
            return self.save(&self.snapshot(sys));
        }
        let actuate = self.actuate.expect("control() captured the actuator");
        actuate(sys, action, t).map_err(|e| DriverError::Action(e.to_string()))?;
        self.action_log.record(step as u64, t, action.clone());
        Ok(())
    }

    /// The pre-step termination check (a zero-step run is legal).
    fn stop_due(&self, sys: &P, m: &March) -> Option<StopReason>
    where
        P: Steppable,
    {
        if m.t_end.is_some_and(|te| sys.time() >= te) {
            return Some(StopReason::TimeReached);
        }
        self.stops.iter().find_map(|s| match s {
            StopCondition::MaxSteps(n) if m.steps >= *n => Some(StopReason::MaxSteps),
            StopCondition::StepReached(n) if sys.steps_taken() >= *n => {
                Some(StopReason::StepReached)
            }
            StopCondition::WallClock(d) if m.started.elapsed() >= *d => Some(StopReason::WallClock),
            _ => None,
        })
    }

    /// March `sys` until a stop condition holds. Every driver needs at
    /// least one of [`StopCondition::TimeReached`], [`StopCondition::MaxSteps`],
    /// [`StopCondition::StepReached`], [`StopCondition::WallClock`] or
    /// [`StopCondition::SteadyState`] — guards alone would loop forever.
    ///
    /// Each step: observers (read-only), the progress hook, then
    /// controllers, whose actions apply at the step boundary; the autosave
    /// cadence; then the guards. With a [`Driver::recover`] policy a
    /// tripped guard or solver error rolls the window back instead of
    /// ending the run.
    pub fn run(&mut self, sys: &mut P) -> Result<RunSummary, DriverError>
    where
        P: Probe,
    {
        assert!(
            self.stops.iter().any(|s| matches!(
                s,
                StopCondition::TimeReached(_)
                    | StopCondition::MaxSteps(_)
                    | StopCondition::StepReached(_)
                    | StopCondition::WallClock(_)
                    | StopCondition::SteadyState { .. }
            )),
            "driver needs a terminating stop condition"
        );
        let started = Instant::now();
        let mark = CadenceState {
            last_t: sys.time(),
            last_wall: started,
        };
        let mut march = March {
            started,
            observers: vec![mark; self.observers.len()],
            controllers: vec![mark; self.controllers.len()],
            progress: mark,
            autosave: mark,
            // The nearest t_end across TimeReached conditions bounds every dt.
            t_end: self
                .stops
                .iter()
                .filter_map(|s| match s {
                    StopCondition::TimeReached(t) => Some(*t),
                    _ => None,
                })
                .reduce(f64::min),
            last_ke: None,
            last_div_ke: None,
            steps: 0,
        };
        let mut windows = Windows::default();

        let stop = loop {
            let due = self.stop_due(sys, &march);
            // A recovered run pauses at every window boundary — and once
            // more wherever it ends — to scan, snapshot and autosave; a
            // boundary scan that trips rolls back and marches on.
            if self.recovery.is_some()
                && windows.at_boundary(sys.steps_taken(), due.is_some())
                && self.window_boundary(sys, &mut windows, &mut march)?
            {
                continue;
            }
            if let Some(stop) = due {
                break stop;
            }
            match self.advance(sys, &mut march) {
                Ok(None) => {}
                Ok(Some(stop)) => break stop,
                Err(DriverError::Solver(_) | DriverError::Diverged { .. })
                    if self.recovery.is_some() =>
                {
                    self.heal(sys, &mut windows, &mut march)?;
                }
                Err(e) => return Err(e),
            }
        };
        for (_, obs) in self.observers.iter_mut() {
            obs.on_finish(sys)?;
        }
        Ok(RunSummary {
            steps: march.steps,
            t: sys.time(),
            stop,
            wall_s: started.elapsed().as_secs_f64(),
        })
    }

    /// One iteration of the march: the step (clipped so a `TimeReached` run
    /// never overshoots), then observers, the progress hook, controllers,
    /// the autosave cadence and the guards. `Ok(Some(_))` ends the run.
    fn advance(&mut self, sys: &mut P, m: &mut March) -> Result<Option<StopReason>, DriverError>
    where
        P: Probe,
    {
        // Identical arithmetic to the old `run_until`: the pinned-or-CFL dt
        // is min'ed against the remaining time.
        let info = if let Some(te) = m.t_end {
            let prev_fixed = sys.fixed_dt();
            let dt = match prev_fixed {
                Some(dt) => dt,
                None => sys.stable_dt(),
            };
            sys.set_fixed_dt(Some(dt.min(te - sys.time())));
            let r = sys.step();
            sys.set_fixed_dt(prev_fixed);
            r?
        } else {
            sys.step()?
        };
        m.steps += 1;

        for ((cadence, obs), state) in self.observers.iter_mut().zip(&mut m.observers) {
            if cadence.fires(state, &info) {
                obs.on_step(sys, &info)?;
            }
        }
        if let Some((cadence, hook)) = &mut self.progress {
            if cadence.fires(&mut m.progress, &info) && !hook(sys, &info) {
                return Ok(Some(StopReason::Aborted));
            }
        }
        // Phase two: controllers observe, then their actions apply at this
        // step boundary (before the next step begins).
        if !self.controllers.is_empty() {
            let mut pending: Vec<Action> = Vec::new();
            for ((cadence, ctrl), state) in self.controllers.iter_mut().zip(&mut m.controllers) {
                if cadence.fires(state, &info) {
                    pending.extend(ctrl.control(sys, &info));
                }
            }
            for action in &pending {
                self.apply(sys, action, info.step, info.t)?;
            }
        }
        // A recovered run saves at its window boundaries instead.
        if let (Some((_, Some(cadence))), false) = (&self.checkpoint, self.recovery.is_some()) {
            if cadence.fires(&mut m.autosave, &info) {
                self.save(&self.snapshot(sys))?;
            }
        }

        // Post-step guards and steady-state detection.
        for s in &self.stops {
            match s {
                StopCondition::NanGuard { every } if info.step % every == 0 => {
                    if let Some((var, pos)) = sys.find_non_finite() {
                        return Err(SolverError::NonFinite {
                            step: info.step,
                            var,
                            pos,
                        }
                        .into());
                    }
                }
                StopCondition::SteadyState { every, tol } if info.step % every == 0 => {
                    let ke = sys.probe().kinetic_energy;
                    if let Some(prev) = m.last_ke {
                        let rel = (ke - prev).abs() / prev.abs().max(f64::MIN_POSITIVE);
                        if rel < *tol {
                            return Ok(Some(StopReason::SteadyState));
                        }
                    }
                    m.last_ke = Some(ke);
                }
                StopCondition::DivergenceGuard { every, max_growth } if info.step % every == 0 => {
                    let sample = sys.probe();
                    let ke = sample.kinetic_energy;
                    let blown = !ke.is_finite()
                        || !sample.min_rho.is_finite()
                        || sample.min_rho <= 0.0
                        || matches!(m.last_div_ke, Some(prev) if prev > 0.0 && ke > prev * max_growth);
                    if blown {
                        return Err(DriverError::Diverged {
                            step: info.step,
                            kinetic_energy: ke,
                            prev: m.last_div_ke.unwrap_or(f64::NAN),
                        });
                    }
                    m.last_div_ke = Some(ke);
                }
                _ => {}
            }
        }
        Ok(None)
    }
}

/// The per-`run` bookkeeping of the march: the start time, cadence marks,
/// the clipping bound, what the guards last saw, and the steps taken so far.
pub(crate) struct March {
    started: Instant,
    observers: Vec<CadenceState>,
    controllers: Vec<CadenceState>,
    progress: CadenceState,
    autosave: CadenceState,
    t_end: Option<f64>,
    /// Kinetic energy at the previous [`StopCondition::SteadyState`] probe.
    pub(crate) last_ke: Option<f64>,
    /// Kinetic energy at the previous [`StopCondition::DivergenceGuard`] probe.
    pub(crate) last_div_ke: Option<f64>,
    steps: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cases;
    use igr_prec::{StoreF32, StoreF64};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("igr_driver_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Load the restart file at `path` and re-enter `sys` from it.
    fn resume<P: Checkpointable + Actuate>(sys: &mut P, path: &Path) -> Checkpoint {
        let ck = Checkpoint::load(path).unwrap();
        Driver::new().resume_from(sys, &ck).unwrap();
        ck
    }

    #[test]
    fn until_hits_t_end_exactly_and_matches_run_until() {
        let case = cases::steepening_wave(96, 0.3);
        let mut a = case.igr_solver::<f64, StoreF64>();
        let mut b = case.igr_solver::<f64, StoreF64>();
        a.run_until(0.08, 10_000).unwrap();
        let summary = Driver::new()
            .until(0.08)
            .max_steps(10_000)
            .run(&mut b)
            .unwrap();
        assert_eq!(summary.stop, StopReason::TimeReached);
        assert_eq!(
            a.t().to_bits(),
            b.t().to_bits(),
            "same clipped-dt arithmetic"
        );
        assert_eq!(
            a.q.max_diff(&b.q),
            0.0,
            "driver must replay run_until bitwise"
        );
    }

    #[test]
    fn observers_fire_on_their_cadence() {
        let case = cases::steepening_wave(48, 0.2);
        let mut solver = case.igr_solver::<f64, StoreF64>();
        let mut hist = History::new();
        let mut every_step = 0usize;
        Driver::new()
            .max_steps(12)
            .observe(Cadence::EverySteps(4), DiagnosticsObserver::new(&mut hist))
            .observe(
                Cadence::EveryStep,
                FnObserver(|_: &_, _: &StepInfo| {
                    every_step += 1;
                    Ok(())
                }),
            )
            .run(&mut solver)
            .unwrap();
        assert_eq!(every_step, 12);
        assert_eq!(hist.samples.len(), 3, "steps 4, 8, 12");
        assert_eq!(hist.samples[0].step, 4);
        assert_eq!(hist.samples[2].step, 12);
    }

    #[test]
    fn sim_time_cadence_fires_at_intervals() {
        let case = cases::steepening_wave(48, 0.2);
        let mut solver = case.igr_solver::<f64, StoreF64>();
        let mut fired: Vec<f64> = Vec::new();
        Driver::new()
            .until(0.05)
            .max_steps(10_000)
            .observe(
                Cadence::EveryTime(0.01),
                FnObserver(|_: &_, info: &StepInfo| {
                    fired.push(info.t);
                    Ok(())
                }),
            )
            .run(&mut solver)
            .unwrap();
        assert!(
            fired.len() >= 4 && fired.len() <= 6,
            "~5 firings: {fired:?}"
        );
        for w in fired.windows(2) {
            assert!(w[1] - w[0] >= 0.01 - 1e-12, "firings at least Δt apart");
        }
    }

    #[test]
    fn checkpoint_observer_resume_is_bitwise() {
        let case = cases::steepening_wave(64, 0.25);
        let path = tmp("driver_autosave.ckpt");
        let _ = std::fs::remove_file(&path);

        let mut straight = case.igr_solver::<f64, StoreF64>();
        Driver::new().max_steps(10).run(&mut straight).unwrap();

        let mut first = case.igr_solver::<f64, StoreF64>();
        let mut driver = Driver::new()
            .max_steps(6)
            .observe(Cadence::EverySteps(3), CheckpointObserver::autosave(&path));
        driver.run(&mut first).unwrap();

        let mut resumed = case.igr_solver::<f64, StoreF64>();
        let ck = resume(&mut resumed, &path);
        assert_eq!(ck.step, 6, "autosave overwrote down to the latest step");
        Driver::new().max_steps(4).run(&mut resumed).unwrap();
        assert_eq!(resumed.steps_taken(), 10);
        assert_eq!(
            straight.q.max_diff(&resumed.q),
            0.0,
            "resume must reproduce the uninterrupted run bitwise"
        );
    }

    #[test]
    fn species_solver_drives_probes_and_resumes() {
        use igr_core::config::EllipticKind;
        use igr_grid::{Domain, GridShape};
        use igr_species::eos::MixPrim;
        use igr_species::{species_solver, SpeciesConfig, SpeciesState};

        let shape = GridShape::new(48, 1, 1, 3);
        let domain = Domain::unit(shape);
        let cfg = SpeciesConfig {
            elliptic: EllipticKind::GaussSeidel,
            ..Default::default()
        };
        let make = || {
            let mut q = SpeciesState::zeros(shape);
            let w = 4.0 / 48.0;
            q.set_prim_field(&domain, &cfg.eos, |p| {
                let a = (0.5 * ((p[0] - 0.3) / w).tanh() - 0.5 * ((p[0] - 0.7) / w).tanh())
                    .clamp(0.0, 1.0);
                MixPrim::new([a, (1.0 - a) * 0.138], [0.5, 0.0, 0.0], 1.0, a)
            });
            species_solver::<f64, StoreF64>(cfg.clone(), domain, q)
        };

        let mut straight = make();
        let mut hist = History::new();
        Driver::new()
            .max_steps(8)
            .observe(Cadence::EverySteps(2), DiagnosticsObserver::new(&mut hist))
            .run(&mut straight)
            .unwrap();
        assert_eq!(hist.samples.len(), 4);
        assert!(hist.samples[0].kinetic_energy > 0.0);
        assert!(hist.samples[0].min_rho > 0.0);
        // Periodic box: mixture mass conserved across the series.
        let (m0, m1) = (hist.samples[0].totals[0], hist.samples[3].totals[0]);
        assert!((m1 - m0).abs() < 1e-12 * m0.abs());

        // Mid-run snapshot → fresh solver → bitwise-equal final state.
        let path = tmp("driver_species.ckpt");
        let mut first = make();
        let mut driver = Driver::new()
            .max_steps(4)
            .observe(Cadence::EverySteps(4), CheckpointObserver::autosave(&path));
        driver.run(&mut first).unwrap();
        let mut resumed = make();
        resume(&mut resumed, &path);
        Driver::new().max_steps(4).run(&mut resumed).unwrap();
        assert_eq!(straight.q.max_diff(&resumed.q), 0.0);
    }

    #[test]
    fn f32_storage_resume_is_bitwise() {
        let case = cases::steepening_wave(48, 0.25);
        let path = tmp("driver_f32.ckpt");
        let mut straight = case.igr_solver::<f32, StoreF32>();
        Driver::new().max_steps(8).run(&mut straight).unwrap();

        let mut first = case.igr_solver::<f32, StoreF32>();
        let mut driver = Driver::new()
            .max_steps(4)
            .observe(Cadence::EverySteps(4), CheckpointObserver::autosave(&path));
        driver.run(&mut first).unwrap();
        let mut resumed = case.igr_solver::<f32, StoreF32>();
        resume(&mut resumed, &path);
        Driver::new().max_steps(4).run(&mut resumed).unwrap();
        assert_eq!(straight.q.max_diff(&resumed.q), 0.0);
    }

    #[test]
    fn metrics_and_trace_observers_record_phase_timings() {
        let case = cases::steepening_wave(48, 0.2);
        let mut solver = case.igr_solver::<f64, StoreF64>();
        let mut hist = History::new();
        let trace_path = tmp("driver_trace.json");
        let _ = std::fs::remove_file(&trace_path);
        Driver::new()
            .max_steps(6)
            .observe(Cadence::EverySteps(3), MetricsObserver::new(&mut hist))
            .observe(Cadence::EveryStep, TraceObserver::chrome(&trace_path))
            .run(&mut solver)
            .unwrap();

        assert_eq!(hist.phase_samples.len(), 2, "fired on steps 3 and 6");
        let names: std::collections::BTreeSet<&str> = hist.phase_samples[0]
            .phases
            .iter()
            .map(|(n, _, _)| n.as_str())
            .collect();
        for phase in [
            "solver.step",
            "ghost.fill_state",
            "igr.source",
            "sigma.sweep",
            "flux.sweep",
        ] {
            assert!(names.contains(phase), "missing phase {phase}: {names:?}");
        }
        for (_, secs, spans) in &hist.phase_samples[0].phases {
            assert!(*secs >= 0.0 && *spans > 0);
        }
        let csv = hist.phases_to_csv();
        assert!(csv.starts_with("step,t,phase,seconds,spans\n"));
        assert!(csv.contains("flux.sweep"));

        let trace = std::fs::read_to_string(&trace_path).unwrap();
        assert!(
            trace.trim_start().starts_with('['),
            "chrome trace is a JSON array"
        );
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("solver.step"));
        igr_obs::Registry::global().set_capture_events(false);
    }

    #[test]
    fn nan_guard_catches_injected_divergence() {
        let case = cases::steepening_wave(48, 0.2);
        let mut solver = case.igr_solver::<f64, StoreF64>();
        solver.nan_check_every = 0; // benchmark-style: solver's own check off
        let mut poisoned = false;
        let result = Driver::new()
            .max_steps(50)
            .observe(
                Cadence::EverySteps(3),
                FnObserver(|_: &_, _: &StepInfo| {
                    poisoned = true;
                    Ok(())
                }),
            )
            .stop_when(StopCondition::NanGuard { every: 1 })
            .run(&mut {
                solver.q.en.set(5, 0, 0, f64::NAN);
                solver
            });
        match result {
            Err(DriverError::Solver(SolverError::NonFinite { .. })) => {}
            other => panic!("expected NonFinite, got {other:?}"),
        }
    }

    #[test]
    fn steady_state_stop_triggers_on_settled_flow() {
        // A uniform-flow periodic box is exactly steady: KE never changes.
        use igr_core::eos::Prim;
        use igr_core::{IgrConfig, State};
        use igr_grid::{Domain, GridShape};
        let shape = GridShape::new(32, 1, 1, 3);
        let domain = Domain::unit(shape);
        let cfg = IgrConfig::default();
        let mut q: State<f64, StoreF64> = State::zeros(shape);
        q.set_prim_field(&domain, cfg.gamma, |_| Prim::new(1.0, [0.5, 0.0, 0.0], 1.0));
        let mut solver = igr_core::solver::igr_solver(cfg, domain, q);
        let summary = Driver::new()
            .max_steps(1000)
            .stop_when(StopCondition::SteadyState {
                every: 2,
                tol: 1e-12,
            })
            .run(&mut solver)
            .unwrap();
        assert_eq!(summary.stop, StopReason::SteadyState);
        assert!(summary.steps <= 6, "two probes suffice: {}", summary.steps);
    }

    #[test]
    fn progress_hook_can_abort() {
        let case = cases::steepening_wave(48, 0.2);
        let mut solver = case.igr_solver::<f64, StoreF64>();
        let summary = Driver::new()
            .max_steps(100)
            .on_progress(Cadence::EveryStep, |_: &_, info: &StepInfo| info.step < 7)
            .run(&mut solver)
            .unwrap();
        assert_eq!(summary.stop, StopReason::Aborted);
        assert_eq!(summary.steps, 7);
    }

    #[test]
    fn wall_clock_budget_stops_the_run() {
        let case = cases::steepening_wave(48, 0.2);
        let mut solver = case.igr_solver::<f64, StoreF64>();
        let summary = Driver::new()
            .max_steps(1_000_000)
            .stop_when(StopCondition::WallClock(Duration::from_millis(50)))
            .run(&mut solver)
            .unwrap();
        assert_eq!(summary.stop, StopReason::WallClock);
        assert!(summary.wall_s < 5.0);
    }

    #[test]
    fn controlled_run_applies_scheduled_actions_and_logs_them() {
        let case = cases::engine_row_2d(48, 3, crate::jets::JetConditions::mach10());
        let mut solver = case.igr_solver::<f64, StoreF64>();
        let mut driver = Driver::new().max_steps(6).control(
            Cadence::EveryStep,
            ScheduledActions::new(vec![
                (2, Action::EngineOut { engine: 1 }),
                (4, Action::SetFixedDt { dt: Some(1e-4) }),
            ]),
        );
        driver.run(&mut solver).unwrap();
        let log = driver.action_log();
        assert_eq!(log.len(), 2);
        assert_eq!(log.records()[0].step, 2);
        assert!(matches!(
            log.records()[0].action,
            Action::EngineOut { engine: 1 }
        ));
        assert_eq!(log.records()[1].step, 4);
        assert_eq!(solver.fixed_dt, Some(1e-4), "dt policy applied");
        // Run again: the same driver keeps accumulating into one log.
        driver.run(&mut solver).unwrap();
        assert_eq!(driver.action_log().len(), 2, "schedule already drained");
    }

    #[test]
    fn controlled_resume_replays_the_action_log_bitwise() {
        let case = cases::engine_row_2d(48, 3, crate::jets::JetConditions::mach10());
        let path = tmp("driver_controlled.ckpt");
        let _ = std::fs::remove_file(&path);
        let schedule = || {
            ScheduledActions::new(vec![
                (
                    2,
                    Action::SetGimbal {
                        engine: 0,
                        target: [0.12, 0.0],
                        rate: 2.0,
                    },
                ),
                (3, Action::EngineOut { engine: 2 }),
                (5, Action::RequestCheckpoint),
                (7, Action::SetBackpressure { pressure: 0.6 }),
            ])
        };

        // Uninterrupted controlled run: 10 steps, checkpoint at step 5.
        let mut straight = case.igr_solver::<f64, StoreF64>();
        let mut d1 = Driver::new()
            .max_steps(10)
            .checkpoint_to(&path, None)
            .control(Cadence::EveryStep, schedule());
        d1.run(&mut straight).unwrap();
        assert_eq!(d1.action_log().len(), 4);

        // Resume from the step-5 snapshot with the tail of the schedule.
        let ck = Checkpoint::load(&path).unwrap();
        assert_eq!(ck.step, 5);
        assert_eq!(ck.actions.len(), 3, "log up to and incl. the request");
        let mut resumed = case.igr_solver::<f64, StoreF64>();
        let mut d2 = Driver::new()
            .max_steps(5)
            .control(Cadence::EveryStep, schedule().skip_through(5));
        d2.resume_from(&mut resumed, &ck).unwrap();
        d2.run(&mut resumed).unwrap();

        assert_eq!(resumed.steps_taken(), 10);
        assert_eq!(
            straight.q.max_diff(&resumed.q),
            0.0,
            "controlled resume must be bitwise"
        );
        assert_eq!(
            d2.action_log(),
            d1.action_log(),
            "resumed log matches the uninterrupted log bit-exactly"
        );
    }

    /// `checkpoint_to` is the one restart-file writer: with both logs empty
    /// it must add no trailer, i.e. write the bytes `CheckpointObserver`
    /// writes at the same step.
    #[test]
    fn checkpoint_to_with_empty_logs_matches_the_autosave_observer_bytes() {
        let case = cases::steepening_wave(48, 0.25);
        let (observed, driven) = (tmp("observer.ckpt"), tmp("checkpoint_to.ckpt"));
        let mut a = case.igr_solver::<f64, StoreF64>();
        Driver::new()
            .max_steps(6)
            .observe(
                Cadence::EverySteps(3),
                CheckpointObserver::autosave(&observed),
            )
            .run(&mut a)
            .unwrap();
        let mut b = case.igr_solver::<f64, StoreF64>();
        Driver::new()
            .max_steps(6)
            .checkpoint_to(&driven, Some(Cadence::EverySteps(3)))
            .run(&mut b)
            .unwrap();
        assert_eq!(Checkpoint::load(&driven).unwrap().step, 6);
        assert_eq!(
            std::fs::read(&observed).unwrap(),
            std::fs::read(&driven).unwrap(),
            "empty logs must add no bytes"
        );
    }

    /// A restart file carrying all three trailers (`ACTLOG` + `RECLOG` +
    /// `IGRRANK`, written by the unchanged encoder) re-enters through the
    /// one resume method: state restored, actions replayed, both logs
    /// seeded, and the finished run bitwise equal to the uninterrupted one.
    #[test]
    fn resume_from_takes_a_three_trailer_file_and_finishes_bitwise() {
        use crate::recovery::RecoveryRecord;
        let case = cases::engine_row_2d(48, 3, crate::jets::JetConditions::mach10());
        let schedule = || {
            ScheduledActions::new(vec![
                (2, Action::EngineOut { engine: 1 }),
                (8, Action::SetBackpressure { pressure: 0.6 }),
            ])
        };
        let mut straight = case.igr_solver::<f64, StoreF64>();
        let mut d = Driver::new()
            .max_steps(10)
            .control(Cadence::EveryStep, schedule());
        d.run(&mut straight).unwrap();

        let mut first = case.igr_solver::<f64, StoreF64>();
        let mut d1 = Driver::new()
            .max_steps(6)
            .control(Cadence::EveryStep, schedule());
        d1.run(&mut first).unwrap();
        let mut rollbacks = RecoveryLog::new();
        rollbacks.push(RecoveryRecord {
            trip_step: 3,
            rollback_step: 2,
            rollback_t: 0.125,
            prev_dt: f64::NAN,
            backoff_dt: 1e-4,
            hold_until: 4,
            retry: 1,
        });
        let meta = RankMeta {
            rank: 0,
            n_ranks: 1,
            global: [96, 48, 1],
            dims: [1, 1, 1],
            offset: [0; 3],
            extent: [96, 48, 1],
        };
        let path = tmp("three_trailers.ckpt");
        first
            .capture()
            .with_actions(d1.take_action_log())
            .with_recoveries(rollbacks.clone())
            .with_rank_meta(meta)
            .save(&path)
            .unwrap();

        let ck = Checkpoint::load(&path).unwrap();
        assert_eq!((ck.step, ck.rank_meta), (6, Some(meta)));
        let mut resumed = case.igr_solver::<f64, StoreF64>();
        let mut d2 = Driver::new()
            .max_steps(4)
            .control(Cadence::EveryStep, schedule().skip_through(ck.step));
        d2.resume_from(&mut resumed, &ck).unwrap();
        assert_eq!(first.q.max_diff(&resumed.q), 0.0, "restore is bit-exact");
        assert_eq!(d2.recovery_log(), &rollbacks, "recovery log seeded");
        d2.run(&mut resumed).unwrap();
        assert_eq!(straight.q.max_diff(&resumed.q), 0.0);
        assert_eq!(d2.action_log(), d.action_log(), "action log seeded");
    }

    /// A controller and a recovery policy do not compose (windows re-run
    /// and would double-apply actions): refused where the second of the two
    /// is attached, in either order — not when the run starts.
    #[test]
    fn controller_plus_recovery_is_refused_at_attach_time() {
        type S = Solver<f64, StoreF64, IgrScheme<f64, StoreF64>, BcGhostOps>;
        let message = |attach: fn() -> Driver<'static, S>| {
            let payload = std::panic::catch_unwind(attach).err().expect("must refuse");
            payload.downcast_ref::<String>().cloned().unwrap()
        };
        let control_then_recover = || {
            Driver::new()
                .control(Cadence::EveryStep, ScheduledActions::new(vec![]))
                .recover(RecoveryPolicy::default())
        };
        let recover_then_control = || {
            Driver::new()
                .recover(RecoveryPolicy::default())
                .control(Cadence::EveryStep, ScheduledActions::new(vec![]))
        };
        for attach in [control_then_recover, recover_then_control] {
            assert_eq!(
                message(attach),
                "recovered runs do not support controllers (windows re-run on rollback)"
            );
        }
    }

    #[test]
    fn gimbal_feedback_counters_an_engine_out() {
        // After knocking out an outer engine the backflow centroid shifts;
        // the proportional controller must emit gimbal commands steering
        // against the offset (commands are clamped and deadbanded).
        let case = cases::engine_row_2d(64, 3, crate::jets::JetConditions::mach10());
        let mut solver = case.igr_solver::<f64, StoreF64>();
        let mut driver = Driver::new()
            .max_steps(30)
            .control(
                Cadence::EveryStep,
                ScheduledActions::new(vec![(10, Action::EngineOut { engine: 0 })]),
            )
            .control(
                Cadence::EverySteps(5),
                GimbalFeedbackController::with_gain(1.5),
            );
        driver.run(&mut solver).unwrap();
        let log = driver.action_log();
        let gimbal_cmds: Vec<_> = log
            .records()
            .iter()
            .filter(|r| matches!(r.action, Action::SetGimbal { .. }))
            .collect();
        assert!(
            !gimbal_cmds.is_empty(),
            "controller issued no commands: {log:?}"
        );
        for r in &gimbal_cmds {
            if let Action::SetGimbal { target, .. } = r.action {
                assert!(target[0].abs() <= 0.35 && target[1].abs() <= 0.35);
            }
        }
    }

    #[test]
    fn vtk_observer_writes_step_numbered_snapshots() {
        let case = cases::steepening_wave(24, 0.2);
        let mut solver = case.igr_solver::<f64, StoreF64>();
        let dir = std::env::temp_dir().join("igr_driver_vtk");
        std::fs::create_dir_all(&dir).unwrap();
        let vtk = VtkObserver::new(&dir, "wave", "driver test");
        let mut driver = Driver::new()
            .max_steps(4)
            .observe(Cadence::EverySteps(2), vtk);
        driver.run(&mut solver).unwrap();
        // Ownership moved into the driver; verify via the filesystem.
        for step in [2, 4] {
            let p = dir.join(format!("wave_{step:06}.vtk"));
            assert!(p.exists(), "{p:?} missing");
            std::fs::remove_file(p).unwrap();
        }
    }
}
