//! Application layer: the workloads of the paper and the machinery to run
//! them.
//!
//! * [`cases`] — the case library: Sod tube, steepening waves, acoustic
//!   packets (Fig. 2 workloads), the single Mach-10 jet (Table 3's
//!   representative problem), and the 3-/33-engine arrays (Figs. 1 and 5);
//! * [`jets`] — engine layouts and inflow profiles, including the
//!   Super-Heavy-inspired 33-engine pattern, per-engine gimbal (thrust
//!   vectoring), altitude (ambient-backpressure) conditions, and engine-out
//!   scenarios;
//! * [`driver`] — the unified run-loop: `Steppable`/`Probe`/`Checkpointable`
//!   solvers driven by a `Driver` composing observers (diagnostics,
//!   checkpoint autosave, VTK snapshots), cadences, stop conditions
//!   (`t_end`, step/wall budgets, NaN guard, steady state), and
//!   checkpoint/resume — every example, figure bin, and the campaign
//!   executor march through it;
//! * [`actions`] — the act phase of the two-phase control loop: typed
//!   mid-run `Action`s (gimbal retarget/ramp, engine-out, backpressure,
//!   inflow swap, dt policy, checkpoint request), the `Actuate` surface
//!   that applies them at step boundaries, and the deterministic
//!   `ActionLog` that checkpoints embed and resumes replay;
//! * [`recovery`] — self-healing runs: a snapshot ring plus dt backoff that
//!   rolls a diverging march back to the last healthy boundary and re-runs
//!   the window, with every rollback recorded in a deterministic
//!   `RecoveryLog` that checkpoints embed and resumes replay;
//! * [`base`] — base-heating diagnostics (recirculation flux, thermal load,
//!   heating footprint), the engineering quantity behind §3 of the paper;
//! * [`parallel`] — the decomposed (multi-rank) solver driver: halo-
//!   exchanging ghost ops over `igr-comm`, global time-step reduction, and
//!   state gathering;
//! * [`grind`] — wall-clock grind-time measurement (ns per cell per step,
//!   Table 3's metric);
//! * [`io`] — CSV series and field-slice output ("results reported based on
//!   whole application including I/O");
//! * [`vtk`] — legacy-VTK structured-points writer for 3-D visualization
//!   (the Fig. 1 rendering path at laptop scale).

#![deny(missing_docs)]

pub mod actions;
pub mod base;
pub mod cases;
pub mod checkpoint;
pub mod diagnostics;
pub mod driver;
pub mod grind;
pub mod io;
pub mod jets;
pub mod parallel;
pub mod recovery;
pub mod vtk;

pub use actions::{Action, ActionLog, ActionRecord, Actuate, ActuateError};
pub use base::BaseHeatingReport;
pub use cases::CaseSetup;
pub use checkpoint::Checkpoint;
pub use diagnostics::History;
pub use driver::{
    Cadence, CheckpointObserver, Checkpointable, Controller, DiagnosticsObserver, Driver,
    DriverError, FnObserver, GimbalFeedbackController, Observer, Probe, RunSummary,
    ScheduledActions, Steppable, StopCondition, StopReason, VtkObserver,
};
pub use grind::{measure_grind, GrindResult};
pub use parallel::{run_decomposed, DecomposedRun};
pub use recovery::{InjectNan, RecoveryLog, RecoveryPolicy, RecoveryRecord};
