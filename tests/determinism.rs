//! Determinism regression tests for the grind-time performance pass.
//!
//! The optimized kernels (row-buffered SoA flux sweeps, slice-fused Jacobi,
//! red–black Gauss–Seidel, memoized inflow planes) reorder memory traffic
//! and parallel decomposition but never per-cell floating-point arithmetic.
//! These tests pin the two resulting contracts on a real 3-D jet workload,
//! at both storage precisions:
//!
//! 1. **Thread-count independence**: the solver state after 20 steps is
//!    bitwise identical for 1 vs. N worker threads.
//! 2. **Kernel-path equivalence**: the fused path is bitwise identical to
//!    the retained reference (pre-optimization) path.
//! 3. **Golden digests**: a few steps of the jet (IGR at every storage
//!    precision, WENO at fp64) and of the two-gas mixture hash to pinned
//!    constants, so a refactor that claims "no arithmetic changed" is
//!    checked against the stored bits of the code it replaced.

use igr::app::cases;
use igr::core::config::{EllipticKind, KernelPath};
use igr::core::solver::igr_solver;
use igr::core::{Fields, State};
use igr::grid::{Domain, Field, GridShape};
use igr::prec::{Real, Storage, StoreF16, StoreF32, StoreF64};
use igr::species::{species_solver, MixEos, MixPrim, SpeciesConfig, SpeciesState};

/// 20 steps of a 3-D many-engine jet under the given kernel/elliptic
/// configuration and thread count.
fn run_case<R: Real, S: Storage<R>>(
    kernel: KernelPath,
    elliptic: EllipticKind,
    threads: usize,
) -> State<R, S> {
    let case = cases::super_heavy_3d(16);
    let mut cfg = case.igr_config();
    cfg.kernel = kernel;
    cfg.elliptic = elliptic;
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(|| {
        let mut solver = igr_solver(cfg, case.domain, case.init_state::<R, S>());
        for _ in 0..20 {
            solver
                .step()
                .expect("jet case must stay finite for 20 steps");
        }
        solver.q
    })
}

fn assert_bitwise_equal<R: Real, S: Storage<R>>(a: &State<R, S>, b: &State<R, S>, what: &str) {
    // max_diff is exact in f64 for both storage precisions, so a 0.0
    // difference means every stored bit pattern agrees (NaNs would already
    // have failed the step() above).
    assert_eq!(
        a.max_diff(b),
        0.0,
        "{what}: states must be bitwise identical"
    );
}

fn threads_and_kernels_agree<R: Real, S: Storage<R>>(precision: &str) {
    // Fused path: 1 vs. 5 threads (odd count exercises uneven layer chunks).
    let fused_1t = run_case::<R, S>(KernelPath::Fused, EllipticKind::Jacobi, 1);
    let fused_5t = run_case::<R, S>(KernelPath::Fused, EllipticKind::Jacobi, 5);
    assert_bitwise_equal(&fused_1t, &fused_5t, &format!("{precision} fused 1t vs 5t"));

    // Reference path: also thread-count independent.
    let ref_1t = run_case::<R, S>(KernelPath::Reference, EllipticKind::Jacobi, 1);
    let ref_4t = run_case::<R, S>(KernelPath::Reference, EllipticKind::Jacobi, 4);
    assert_bitwise_equal(&ref_1t, &ref_4t, &format!("{precision} reference 1t vs 4t"));

    // Old vs. new kernel paths.
    assert_bitwise_equal(
        &fused_1t,
        &ref_1t,
        &format!("{precision} fused vs reference"),
    );
}

#[test]
fn f64_storage_threads_and_kernel_paths_are_bitwise_identical() {
    threads_and_kernels_agree::<f64, StoreF64>("fp64");
}

#[test]
fn f32_storage_threads_and_kernel_paths_are_bitwise_identical() {
    threads_and_kernels_agree::<f32, StoreF32>("fp32");
}

#[test]
fn span_tracing_never_perturbs_the_solution() {
    // Observability is read-only by contract: running the identical case
    // with igr-obs span tracing (and event capture) enabled must produce a
    // bitwise-identical state to the untraced run. Spans only bracket
    // phases with timers — they touch no solver data and no FP arithmetic.
    let untraced = run_case::<f64, StoreF64>(KernelPath::Fused, EllipticKind::Jacobi, 4);

    igr::obs::enable();
    igr::obs::Registry::global().set_capture_events(true);
    let traced = run_case::<f64, StoreF64>(KernelPath::Fused, EllipticKind::Jacobi, 4);
    igr::obs::Registry::global().set_capture_events(false);
    igr::obs::disable();

    assert_bitwise_equal(&untraced, &traced, "tracing disabled vs enabled");
    // And the traced run really was traced — the registry saw the phases.
    let snap = igr::obs::Registry::global().snapshot();
    for phase in ["solver.step", "sigma.solve", "flux.sweep"] {
        assert!(
            snap.histogram(phase).is_some_and(|h| h.count > 0),
            "phase '{phase}' must have recorded spans"
        );
    }
}

#[test]
fn serial_fallback_threshold_boundary_is_bitwise_neutral() {
    // The pool-backed `for_each`/`reduce` drop to a serial drain whenever a
    // kernel's interior-cell count sits below the granularity threshold.
    // Crossing that boundary must never change a single bit: run the same
    // case with the threshold forced far above the workload (everything
    // serial) and disabled entirely (everything parallel) and compare.
    let saved = rayon::serial_work_threshold();

    rayon::set_serial_work_threshold(usize::MAX);
    let all_serial = run_case::<f64, StoreF64>(KernelPath::Fused, EllipticKind::GaussSeidel, 4);

    rayon::set_serial_work_threshold(0); // 0 disables the fallback
    let all_parallel = run_case::<f64, StoreF64>(KernelPath::Fused, EllipticKind::GaussSeidel, 4);

    rayon::set_serial_work_threshold(saved);
    assert_bitwise_equal(&all_serial, &all_parallel, "serial fallback vs parallel");
}

#[test]
fn red_black_elliptic_solve_is_thread_count_independent() {
    // The red–black Gauss–Seidel sweep writes Σ in place from parallel
    // tasks; its two-color partition must keep the full solver run bitwise
    // reproducible across thread counts.
    let a = run_case::<f64, StoreF64>(KernelPath::Fused, EllipticKind::GaussSeidel, 1);
    let b = run_case::<f64, StoreF64>(KernelPath::Fused, EllipticKind::GaussSeidel, 6);
    assert_bitwise_equal(&a, &b, "red-black 1t vs 6t");
}

/// FNV-1a over the bits of every stored value (ghosts included) of each
/// field in turn, then of the simulated time. Each value is widened to f64
/// first, which is exact from every storage format, so equal digests mean
/// equal stored bits.
fn digest<'a, R: Real, S: Storage<R>>(
    fields: impl IntoIterator<Item = &'a Field<R, S>>,
    t: f64,
) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bits: u64| h = (h ^ bits).wrapping_mul(0x0000_0100_0000_01b3);
    for f in fields {
        for &p in f.packed() {
            eat(S::unpack(p).to_f64().to_bits());
        }
    }
    eat(t.to_bits());
    h
}

const GOLDEN_STEPS: usize = 8;

/// Digest of the 33-engine jet (16³) after [`GOLDEN_STEPS`] IGR steps:
/// state, Σ and `t`.
fn igr_jet_digest<R: Real, S: Storage<R>>() -> u64 {
    let case = cases::super_heavy_3d(16);
    let mut solver = case.igr_solver::<R, S>();
    for _ in 0..GOLDEN_STEPS {
        solver.step().expect("jet case must stay finite");
    }
    let fields = solver.q.fields().into_iter().chain([solver.scheme.sigma()]);
    digest(fields, solver.t())
}

/// Digest of the same jet after [`GOLDEN_STEPS`] WENO5+HLLC steps.
fn weno_jet_digest() -> u64 {
    let case = cases::super_heavy_3d(16);
    let mut solver = case.weno_solver::<f64, StoreF64>();
    for _ in 0..GOLDEN_STEPS {
        solver.step().expect("jet case must stay finite");
    }
    digest(solver.q.fields(), solver.t())
}

/// Digest of a smooth two-gas mixture on 32 × 16 × 16 (γ = 1.4 / 1.25,
/// periodic) after [`GOLDEN_STEPS`] steps: the seven stored fields, Σ and `t`.
fn species_digest<R: Real, S: Storage<R>>() -> u64 {
    let n = 16;
    let shape = GridShape::new(2 * n, n, n, igr::core::GHOST_WIDTH);
    let domain = Domain::new([0.0, -0.5, -0.5], [2.0, 0.5, 0.5], shape);
    let eos = MixEos {
        gamma1: 1.4,
        gamma2: 1.25,
    };
    let cfg = SpeciesConfig {
        eos,
        ..Default::default()
    };
    let tau = std::f64::consts::TAU;
    let mut q: SpeciesState<R, S> = SpeciesState::zeros(shape);
    q.set_prim_field(&domain, &eos, |p| {
        let a = (0.5 + 0.4 * (tau * p[0]).sin() * (tau * p[1]).cos()).clamp(0.01, 0.99);
        MixPrim::new(
            [a, (1.0 - a) * 0.5],
            [0.5 * (tau * p[2]).sin(), 0.2, 0.0],
            1.0 + 0.1 * (tau * p[0]).cos(),
            a,
        )
    });
    let mut solver = species_solver(cfg, domain, q);
    for _ in 0..GOLDEN_STEPS {
        solver.step().expect("mixture must stay finite");
    }
    let fields = solver.q.fields().into_iter().chain([solver.sigma()]);
    digest(fields, solver.t())
}

fn assert_golden(got: u64, pinned: u64, what: &str) {
    assert_eq!(
        got, pinned,
        "{what}: digest {got:#018x} differs from the pinned {pinned:#018x}"
    );
}

#[test]
fn igr_jet_golden_digests() {
    assert_golden(
        igr_jet_digest::<f64, StoreF64>(),
        0x0671_f06d_fd7b_ba3e,
        "IGR jet fp64",
    );
    assert_golden(
        igr_jet_digest::<f32, StoreF32>(),
        0x746c_f162_62a8_f2ae,
        "IGR jet fp32",
    );
    assert_golden(
        igr_jet_digest::<f32, StoreF16>(),
        0xd4fd_e203_490d_d24b,
        "IGR jet fp16",
    );
}

#[test]
fn weno_jet_golden_digest() {
    assert_golden(weno_jet_digest(), 0xde43_88cc_cda6_b04a, "WENO jet fp64");
}

#[test]
fn species_mixture_golden_digests() {
    assert_golden(
        species_digest::<f64, StoreF64>(),
        0xcce8_24b7_a9e4_3f41,
        "mixture fp64",
    );
    assert_golden(
        species_digest::<f32, StoreF32>(),
        0x192e_31f6_d0e5_c344,
        "mixture fp32",
    );
    assert_golden(
        species_digest::<f32, StoreF16>(),
        0xe3db_e411_6d4b_d890,
        "mixture fp16",
    );
}
