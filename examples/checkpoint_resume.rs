//! Checkpoint/resume round trip: prove that a run interrupted mid-flight
//! and resumed from its autosaved restart file finishes **bit-for-bit**
//! identical to a run that was never interrupted — at FP64 and FP32
//! storage, for both the single-fluid IGR solver and the two-fluid
//! species solver.
//!
//! This is the property production campaigns live on (the paper's hero run
//! spent 16 wall-clock hours on 9.2 K GH200s; nobody restarts those from
//! t = 0): `CheckpointObserver` autosaves while the `Driver` marches, and
//! `Driver::resume_from` restores the state, the entropic pressure Σ, the
//! march clock, and any pinned dt from the loaded restart file.
//!
//! ```bash
//! cargo run --release --example checkpoint_resume
//! ```

use igr::prelude::*;
use igr::species::eos::MixPrim;

const TOTAL_STEPS: usize = 24;
const CUT_AT: usize = 16; // the autosave the "crash" leaves behind

fn single_fluid<R: igr::prec::Real, S: igr::prec::Storage<R>>(label: &str)
where
    S::Packed: igr::app::checkpoint::CheckpointScalar,
{
    let case = cases::three_engine_2d(32, 1e-4, 7);
    let path = std::env::temp_dir().join(format!("igr_resume_{label}.ckpt"));

    // The uninterrupted reference.
    let mut straight = case.igr_solver::<R, S>();
    Driver::new()
        .max_steps(TOTAL_STEPS)
        .run(&mut straight)
        .expect("reference run");

    // The "interrupted" run: autosave every 8 steps, stop (crash) at 16.
    let mut first = case.igr_solver::<R, S>();
    Driver::new()
        .max_steps(CUT_AT)
        .observe(Cadence::EverySteps(8), CheckpointObserver::autosave(&path))
        .run(&mut first)
        .expect("interrupted run");
    drop(first); // the process "dies": only the restart file survives

    // Resume into a *fresh* solver and finish the timeline.
    let mut resumed = case.igr_solver::<R, S>();
    let ck = igr::app::Checkpoint::load(&path).expect("load");
    assert_eq!(ck.step, CUT_AT);
    let mut driver = Driver::new().max_steps(TOTAL_STEPS - CUT_AT);
    driver.resume_from(&mut resumed, &ck).expect("restore");
    driver.run(&mut resumed).expect("resumed run");

    let diff = straight.q.max_diff(&resumed.q);
    println!(
        "{label:>18}: {} steps straight vs {} + resume -> max |diff| = {diff:e}",
        TOTAL_STEPS, CUT_AT
    );
    assert_eq!(diff, 0.0, "{label}: resume must be bitwise identical");
    std::fs::remove_file(&path).ok();
}

fn two_fluid() {
    let shape = GridShape::new(64, 1, 1, 3);
    let domain = Domain::unit(shape);
    let cfg = SpeciesConfig::default();
    let make = || {
        let mut q = SpeciesState::zeros(shape);
        let w = 4.0 / 64.0;
        q.set_prim_field(&domain, &cfg.eos, |p| {
            let a =
                (0.5 * ((p[0] - 0.3) / w).tanh() - 0.5 * ((p[0] - 0.7) / w).tanh()).clamp(0.0, 1.0);
            MixPrim::new([a, (1.0 - a) * 0.138], [0.7, 0.0, 0.0], 1.0, a)
        });
        species_solver::<f64, StoreF64>(cfg.clone(), domain, q)
    };
    let path = std::env::temp_dir().join("igr_resume_species.ckpt");

    let mut straight = make();
    Driver::new()
        .max_steps(TOTAL_STEPS)
        .run(&mut straight)
        .expect("species reference");

    let mut first = make();
    Driver::new()
        .max_steps(CUT_AT)
        .observe(Cadence::EverySteps(8), CheckpointObserver::autosave(&path))
        .run(&mut first)
        .expect("species interrupted");
    drop(first);

    let mut resumed = make();
    let ck = igr::app::Checkpoint::load(&path).expect("species load");
    let mut driver = Driver::new().max_steps(TOTAL_STEPS - CUT_AT);
    driver
        .resume_from(&mut resumed, &ck)
        .expect("species restore");
    driver.run(&mut resumed).expect("species resumed");

    let diff = straight.q.max_diff(&resumed.q);
    println!("{:>18}: max |diff| = {diff:e}", "species fp64");
    assert_eq!(diff, 0.0, "species resume must be bitwise identical");
    std::fs::remove_file(&path).ok();
}

fn main() {
    println!(
        "checkpoint/resume round trip: interrupt at step {CUT_AT}, \
         finish at step {TOTAL_STEPS}, compare against the uninterrupted run\n"
    );
    single_fluid::<f64, StoreF64>("single-fluid fp64");
    single_fluid::<f32, StoreF32>("single-fluid fp32");
    two_fluid();
    println!("\nOK: resume round trip is bitwise identical at every storage precision.");
}
