//! Integration coverage for the unified run-loop's checkpoint/resume
//! contract: a run saved mid-flight and resumed into a fresh solver must
//! finish **bit-for-bit** identical to an uninterrupted run — at f32 and
//! f64 storage, for the IGR scheme (Σ rides the snapshot), the WENO
//! baseline (stateless scheme), and with a pinned dt (grind-style runs).

use igr::app::checkpoint::{Checkpoint, CheckpointScalar};
use igr::app::driver::{
    Cadence, CheckpointObserver, Checkpointable, Driver, DriverError, StopCondition, StopReason,
};
use igr::app::Actuate;
use igr::prec::{Real, Storage};
use igr::prelude::*;

/// Load the restart file at `path` and re-enter `sys` from it through the
/// driver's one resume method.
fn resume_from<P: Checkpointable + Actuate>(
    sys: &mut P,
    path: &std::path::Path,
) -> Result<Checkpoint, DriverError> {
    let ck = Checkpoint::load(path)?;
    Driver::new().resume_from(sys, &ck)?;
    Ok(ck)
}

fn tmp(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("igr_driver_resume_it");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Save at `cut` of `total` steps on a jet case (inflow boundaries, Σ under
/// load), resume, compare bitwise.
fn jet_resume_roundtrip<R, S>(name: &str)
where
    R: Real,
    S: Storage<R>,
    S::Packed: CheckpointScalar,
{
    let case = cases::engine_row_2d(24, 3, igr::app::jets::JetConditions::mach10());
    let (total, cut) = (14usize, 9usize);
    let path = tmp(name);

    let mut straight = case.igr_solver::<R, S>();
    Driver::new().max_steps(total).run(&mut straight).unwrap();

    let mut first = case.igr_solver::<R, S>();
    Driver::new()
        .max_steps(cut)
        .observe(Cadence::EverySteps(3), CheckpointObserver::autosave(&path))
        .run(&mut first)
        .unwrap();

    let mut resumed = case.igr_solver::<R, S>();
    let ck = resume_from(&mut resumed, &path).unwrap();
    assert_eq!(ck.step, cut);
    assert!(
        (resumed.t() - first.t()).abs() == 0.0,
        "clock restores exactly"
    );
    Driver::new()
        .max_steps(total - cut)
        .run(&mut resumed)
        .unwrap();

    assert_eq!(resumed.steps_taken(), total);
    assert_eq!(
        straight.q.max_diff(&resumed.q),
        0.0,
        "{name}: resumed jet run must equal the uninterrupted one bitwise"
    );
}

#[test]
fn igr_jet_resume_is_bitwise_at_f64_storage() {
    jet_resume_roundtrip::<f64, StoreF64>("jet_f64.ckpt");
}

#[test]
fn igr_jet_resume_is_bitwise_at_f32_storage() {
    jet_resume_roundtrip::<f32, StoreF32>("jet_f32.ckpt");
}

#[test]
fn weno_baseline_resume_is_bitwise() {
    let case = cases::steepening_wave(64, 0.3);
    let (total, cut) = (12usize, 7usize);
    let path = tmp("weno.ckpt");

    let mut straight = case.weno_solver::<f64, StoreF64>();
    Driver::new().max_steps(total).run(&mut straight).unwrap();

    let mut first = case.weno_solver::<f64, StoreF64>();
    Driver::new()
        .max_steps(cut)
        .observe(Cadence::EverySteps(7), CheckpointObserver::autosave(&path))
        .run(&mut first)
        .unwrap();

    let mut resumed = case.weno_solver::<f64, StoreF64>();
    resume_from(&mut resumed, &path).unwrap();
    Driver::new()
        .max_steps(total - cut)
        .run(&mut resumed)
        .unwrap();
    assert_eq!(straight.q.max_diff(&resumed.q), 0.0);
}

/// Grind-style runs pin dt; the pinned value must survive the snapshot so
/// the resumed run replays identical step sizes.
#[test]
fn pinned_dt_survives_the_restart_file() {
    let case = cases::steepening_wave(48, 0.25);
    let path = tmp("pinned_dt.ckpt");

    let mut straight = case.igr_solver::<f64, StoreF64>();
    let dt = 0.5 * straight.stable_dt();
    straight.fixed_dt = Some(dt);
    Driver::new().max_steps(10).run(&mut straight).unwrap();

    let mut first = case.igr_solver::<f64, StoreF64>();
    first.fixed_dt = Some(dt);
    Driver::new()
        .max_steps(6)
        .observe(Cadence::EverySteps(6), CheckpointObserver::autosave(&path))
        .run(&mut first)
        .unwrap();

    let mut resumed = case.igr_solver::<f64, StoreF64>();
    let ck = resume_from(&mut resumed, &path).unwrap();
    assert_eq!(ck.fixed_dt.unwrap().to_bits(), dt.to_bits());
    assert_eq!(resumed.fixed_dt.unwrap().to_bits(), dt.to_bits());
    Driver::new().max_steps(4).run(&mut resumed).unwrap();
    assert_eq!(straight.q.max_diff(&resumed.q), 0.0);
    assert_eq!(straight.t().to_bits(), resumed.t().to_bits());
}

/// Decomposed (`ranks > 1`) runs snapshot per rank and resume from the
/// file *set*: interrupt at the cut, restart from `<stem>.rank<N>.ckpt`,
/// finish bitwise-identical to the uninterrupted run — with an active
/// action schedule (engine knock-outs before and after the cut, plus a
/// pinned-dt override), so the replayed ActionLog and the live schedule
/// are both under test.
fn decomposed_resume_roundtrip<R, S>(name: &str)
where
    R: Real + igr::comm::CommData,
    S: Storage<R>,
    S::Packed: CheckpointScalar,
{
    use igr::app::actions::Action;
    use igr::app::parallel::{rank_ckpt_path, run_decomposed, DecompCheckpointing};

    let case = cases::engine_row_2d(16, 3, igr::app::jets::JetConditions::mach10());
    let cfg = case.igr_config();
    let (total, cut, ranks) = (10usize, 6usize, 2usize);
    // The pin makes steps 4.. integrate on a frozen dt — it must survive
    // the snapshot (header slot) exactly like the single-block path.
    let schedule = vec![
        (2usize, Action::EngineOut { engine: 1 }),
        (4usize, Action::SetFixedDt { dt: Some(1e-6) }),
        (8usize, Action::EngineOut { engine: 0 }),
    ];
    let dir = std::env::temp_dir().join("igr_driver_resume_it");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = DecompCheckpointing {
        dir: dir.clone(),
        stem: name.to_string(),
        every: 3,
    };

    let i1 = case.init.clone();
    let straight = run_decomposed::<R, S>(
        &cfg,
        &case.domain,
        ranks,
        total,
        move |p| i1(p),
        None,
        &schedule,
    );

    let i2 = case.init.clone();
    let interrupted = run_decomposed::<R, S>(
        &cfg,
        &case.domain,
        ranks,
        cut,
        move |p| i2(p),
        Some(ckpt.clone()),
        &schedule,
    );
    assert_eq!(interrupted.resumed_from, None, "no prior files");
    for rank in 0..ranks {
        assert!(rank_ckpt_path(&dir, name, rank).exists());
    }

    let i3 = case.init.clone();
    let resumed = run_decomposed::<R, S>(
        &cfg,
        &case.domain,
        ranks,
        total,
        move |p| i3(p),
        Some(ckpt),
        &schedule,
    );
    assert_eq!(resumed.resumed_from, Some(cut), "picked up at the cut");
    assert_eq!(
        straight.state.max_diff(&resumed.state),
        0.0,
        "{name}: resumed decomposed run must equal the straight one bitwise"
    );
    assert_eq!(straight.t.to_bits(), resumed.t.to_bits());
    for rank in 0..ranks {
        let _ = std::fs::remove_file(rank_ckpt_path(&dir, name, rank));
    }
}

#[test]
fn decomposed_resume_is_bitwise_at_f64_storage() {
    decomposed_resume_roundtrip::<f64, StoreF64>("decomp_f64");
}

#[test]
fn decomposed_resume_is_bitwise_at_f32_storage() {
    decomposed_resume_roundtrip::<f32, StoreF32>("decomp_f32");
}

/// A stale restart file from a different precision is refused, not
/// silently misread.
#[test]
fn cross_precision_restore_is_refused() {
    let case = cases::steepening_wave(32, 0.2);
    let path = tmp("precision_mismatch.ckpt");
    let mut f64run = case.igr_solver::<f64, StoreF64>();
    Driver::new()
        .max_steps(2)
        .observe(Cadence::EverySteps(2), CheckpointObserver::autosave(&path))
        .run(&mut f64run)
        .unwrap();
    let mut f32run = case.igr_solver::<f32, StoreF32>();
    assert!(resume_from(&mut f32run, &path).is_err());
}

/// `until` + wall-clock + steady-state compose across solver types; this
/// pins the public stop-condition surface from outside the crate.
#[test]
fn stop_conditions_compose_from_the_public_api() {
    let case = cases::steepening_wave(48, 0.2);
    let mut solver = case.igr_solver::<f64, StoreF64>();
    let summary = Driver::new()
        .until(0.02)
        .max_steps(50_000)
        .stop_when(StopCondition::WallClock(std::time::Duration::from_secs(
            600,
        )))
        .run(&mut solver)
        .unwrap();
    assert_eq!(summary.stop, StopReason::TimeReached);
    assert!((solver.t() - 0.02).abs() < 1e-12);
}
