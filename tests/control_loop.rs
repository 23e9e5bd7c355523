//! Integration coverage for the two-phase observe/act control loop's
//! determinism contract, from the public API:
//!
//! 1. A controlled run with a mid-flight action schedule (engine-out,
//!    backpressure transient, gimbal retarget) that is interrupted and
//!    resumed from its checkpoint — whose embedded [`ActionLog`] replays the
//!    boundary-condition mutations — finishes **bit-for-bit** identical to
//!    the uninterrupted run, at f64 AND f32 storage.
//! 2. The same actioned run is bitwise identical across
//!    [`KernelPath::Reference`] and [`KernelPath::Fused`]: actions mutate
//!    boundary conditions, never per-cell arithmetic, so the kernel-path
//!    equivalence contract survives closed-loop control.

use igr::app::actions::{Action, ActionLog};
use igr::app::checkpoint::{Checkpoint, CheckpointScalar};
use igr::app::driver::{Cadence, Driver, ScheduledActions};
use igr::core::config::KernelPath;
use igr::core::State;
use igr::prec::{Real, Storage};
use igr::prelude::*;

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("igr_control_loop_it");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The mid-flight fault schedule: knock out the middle engine, then a
/// backpressure transient, then retarget an outboard gimbal — one of every
/// boundary-condition-mutating action family, all before the cut step so
/// the resumed run must reconstruct them purely from the replayed log.
fn schedule() -> ScheduledActions {
    ScheduledActions::new(vec![
        (3, Action::EngineOut { engine: 1 }),
        (5, Action::SetBackpressure { pressure: 0.6 }),
        (
            8,
            Action::SetGimbal {
                engine: 0,
                target: [0.08, -0.02],
                rate: 0.0,
            },
        ),
    ])
}

/// Uninterrupted controlled run vs. interrupted-at-`cut`-and-resumed run,
/// compared bitwise (state AND accumulated action log).
fn controlled_resume_roundtrip<R, S>(name: &str)
where
    R: Real,
    S: Storage<R>,
    S::Packed: CheckpointScalar,
{
    let case = cases::engine_row_2d(24, 3, igr::app::jets::JetConditions::mach10());
    let (total, cut) = (14usize, 9usize);
    let path = tmp(name);

    // Uninterrupted reference run.
    let mut straight = case.igr_solver::<R, S>();
    let mut d = Driver::new()
        .max_steps(total)
        .control(Cadence::EverySteps(1), schedule());
    d.run(&mut straight).unwrap();
    let straight_log: ActionLog = d.take_action_log();
    assert_eq!(
        straight_log.len(),
        3,
        "every scheduled action must have applied"
    );

    // Interrupted run: autosave every 3 steps, stop at the cut.
    let mut first = case.igr_solver::<R, S>();
    let mut d1 = Driver::new()
        .max_steps(cut)
        .control(Cadence::EverySteps(1), schedule())
        .checkpoint_to(&path, Some(Cadence::EverySteps(3)));
    d1.run(&mut first).unwrap();

    // Resume into a fresh solver: restore + replay the embedded log, then
    // march the remainder with the tail of the schedule.
    let mut resumed = case.igr_solver::<R, S>();
    let mut d2 = Driver::new().max_steps(total - cut);
    let ck = Checkpoint::load(&path).unwrap();
    d2.resume_from(&mut resumed, &ck).unwrap();
    assert_eq!(ck.step, cut, "snapshot lands on the autosave boundary");
    assert_eq!(ck.actions.len(), 3, "the log rides the restart file");
    let mut d2 = d2.control(Cadence::EverySteps(1), schedule().skip_through(ck.step));
    d2.run(&mut resumed).unwrap();

    assert_eq!(resumed.steps_taken(), total);
    assert_eq!(
        straight.q.max_diff(&resumed.q),
        0.0,
        "{name}: resumed actioned run must equal the uninterrupted one bitwise"
    );
    assert_eq!(straight.t().to_bits(), resumed.t().to_bits());
    assert!(
        d2.action_log() == &straight_log,
        "{name}: resumed log must match the uninterrupted log bit-exactly"
    );
}

#[test]
fn actioned_resume_is_bitwise_at_f64_storage() {
    controlled_resume_roundtrip::<f64, StoreF64>("actioned_f64.ckpt");
}

#[test]
fn actioned_resume_is_bitwise_at_f32_storage() {
    controlled_resume_roundtrip::<f32, StoreF32>("actioned_f32.ckpt");
}

/// The actioned jet run under one kernel path.
fn run_with_actions(kernel: KernelPath) -> State<f64, StoreF64> {
    let case = cases::engine_row_2d(24, 3, igr::app::jets::JetConditions::mach10());
    let mut cfg = case.igr_config();
    cfg.kernel = kernel;
    let mut solver =
        igr::core::solver::igr_solver(cfg, case.domain, case.init_state::<f64, StoreF64>());
    let mut d = Driver::new()
        .max_steps(14)
        .control(Cadence::EverySteps(1), schedule());
    d.run(&mut solver).unwrap();
    assert_eq!(d.action_log().len(), 3);
    solver.q
}

#[test]
fn kernel_paths_stay_bitwise_identical_under_actions() {
    let reference = run_with_actions(KernelPath::Reference);
    let fused = run_with_actions(KernelPath::Fused);
    assert_eq!(
        reference.max_diff(&fused),
        0.0,
        "reference vs fused kernels must agree bitwise under mid-run actions"
    );
}
