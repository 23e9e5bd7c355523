//! Shadow-access race checking of the in-place parallel kernels.
//!
//! Only compiled under `--cfg igr_race_check` (set via `RUSTFLAGS`), which
//! turns on the write-set recorder in the vendored rayon stand-in (see
//! `vendor/rayon/src/shadow.rs`): the red–black Gauss–Seidel sweep and the
//! uneven-chunk RHS dispatch record, per fork-join piece, the index
//! intervals they write, and every batch asserts cross-piece disjointness
//! as it completes.
//!
//! ```bash
//! RUSTFLAGS="--cfg igr_race_check" cargo test --release --test race_check
//! ```
//!
//! Two sides are pinned here:
//!
//! 1. **The solver's decompositions are disjoint** — a real 33-engine 3-D
//!    jet runs to completion with the recorder armed, at 1 thread (serial
//!    drain path) and 8 threads (pool path), under the Gauss–Seidel
//!    elliptic (raw-pointer in-place writes — the kernel the checker was
//!    built for); so does a 3-D two-gas mixture through the species solver,
//!    under Jacobi and Gauss–Seidel (its RHS dispatch is the same
//!    uneven-chunk helper).
//! 2. **The checker actually fires** — an intentionally overlapped split
//!    panics with the offending intervals, so a future race cannot pass
//!    silently because the recorder rotted into a no-op.

#![cfg(igr_race_check)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use igr::app::cases;
use igr::core::config::EllipticKind;
use igr::core::solver::igr_solver;
use igr::grid::{Domain, GridShape};
use igr::prec::StoreF64;
use igr::species::{species_solver, MixEos, MixPrim, SpeciesConfig, SpeciesState};

/// The shadow recorder routes records by thread lineage, but these tests
/// deliberately open scopes and run whole solvers; serialize them so one
/// test's intentional overlap can never fire inside another's batch.
static SERIAL: Mutex<()> = Mutex::new(());

/// 10 steps of the 33-engine jet with the recorder armed. Panics (failing
/// the test) if any color pass or RHS dispatch records overlapping pieces.
///
/// The serial-work fallback is disabled for the run: the 16³ case sits
/// below the default threshold, and the point here is to drive the *pool*
/// path — worker-side recording through scope inheritance and the
/// batch-end disjointness check in `run_batch` — not the serial drain.
fn run_checked(threads: usize) {
    let prev = rayon::serial_work_threshold();
    rayon::set_serial_work_threshold(0);
    let case = cases::super_heavy_3d(16);
    let mut cfg = case.igr_config();
    cfg.elliptic = EllipticKind::GaussSeidel;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    let recorded_before = rayon::shadow::recorded_total();
    pool.install(|| {
        let mut solver = igr_solver(cfg, case.domain, case.init_state::<f64, StoreF64>());
        for _ in 0..10 {
            solver
                .step()
                .expect("jet case must stay finite for 10 steps");
        }
    });
    let recorded = rayon::shadow::recorded_total() - recorded_before;
    assert!(
        recorded > 1000,
        "the run recorded only {recorded} intervals — the instrumentation \
         has rotted into a no-op and the disjointness checks were vacuous"
    );
    rayon::set_serial_work_threshold(prev);
}

#[test]
fn red_black_sweep_write_sets_are_disjoint_serial() {
    let _guard = SERIAL.lock().unwrap();
    run_checked(1);
}

#[test]
fn red_black_sweep_write_sets_are_disjoint_parallel() {
    let _guard = SERIAL.lock().unwrap();
    run_checked(8);
}

/// 5 steps of a smooth 3-D two-gas mixture (16 × 8 × 8, periodic) under
/// each elliptic method, recorder armed and serial fallback disabled as in
/// [`run_checked`].
fn run_species_checked(threads: usize) {
    let prev = rayon::serial_work_threshold();
    rayon::set_serial_work_threshold(0);
    let shape = GridShape::new(16, 8, 8, 3);
    let domain = Domain::new([0.0, -0.5, -0.5], [2.0, 0.5, 0.5], shape);
    let tau = std::f64::consts::TAU;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    for elliptic in [EllipticKind::Jacobi, EllipticKind::GaussSeidel] {
        let cfg = SpeciesConfig {
            eos: MixEos {
                gamma1: 1.4,
                gamma2: 1.25,
            },
            elliptic,
            ..Default::default()
        };
        let mut q: SpeciesState<f64, StoreF64> = SpeciesState::zeros(shape);
        q.set_prim_field(&domain, &cfg.eos, |p| {
            let a = (0.5 + 0.4 * (tau * p[0]).sin() * (tau * p[1]).cos()).clamp(0.01, 0.99);
            MixPrim::new(
                [a, (1.0 - a) * 0.5],
                [0.5 * (tau * p[2]).sin(), 0.2, 0.0],
                1.0,
                a,
            )
        });
        let recorded_before = rayon::shadow::recorded_total();
        pool.install(|| {
            let mut solver = species_solver(cfg, domain, q);
            for _ in 0..5 {
                solver.step().expect("mixture must stay finite for 5 steps");
            }
        });
        let recorded = rayon::shadow::recorded_total() - recorded_before;
        assert!(
            recorded > 100,
            "{elliptic:?}: the species run recorded only {recorded} intervals — \
             its RHS dispatch is not instrumented"
        );
    }
    rayon::set_serial_work_threshold(prev);
}

#[test]
fn species_solver_write_sets_are_disjoint_serial() {
    let _guard = SERIAL.lock().unwrap();
    run_species_checked(1);
}

#[test]
fn species_solver_write_sets_are_disjoint_parallel() {
    let _guard = SERIAL.lock().unwrap();
    run_species_checked(8);
}

/// The checker must fire on a bad decomposition: two pieces claiming
/// overlapping intervals inside one scope panic at scope end with both
/// intervals in the message.
#[test]
fn intentionally_overlapped_split_is_caught() {
    let _guard = SERIAL.lock().unwrap();
    let err = catch_unwind(AssertUnwindSafe(|| {
        rayon::shadow::scope_begin("test.overlapped_split");
        // A "split" of 100 cells into [0, 60) and [50, 100): piece 1's
        // start underlaps piece 0's end by 10 cells.
        rayon::shadow::record(0, 0, 60);
        rayon::shadow::record(1, 50, 50);
        rayon::shadow::scope_end();
    }))
    .unwrap_err();
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(
        msg.contains("overlapping cells [50, 60)"),
        "checker must name the overlap, got: {msg}"
    );
}

/// Same-piece revisits are not races: a piece may record overlapping
/// intervals of its own (the five zipped RHS arrays share coordinates).
#[test]
fn same_piece_overlap_is_allowed() {
    let _guard = SERIAL.lock().unwrap();
    rayon::shadow::scope_begin("test.same_piece");
    for _ in 0..5 {
        rayon::shadow::record(0, 0, 64);
        rayon::shadow::record(1, 64, 64);
    }
    rayon::shadow::scope_end();
}
