//! Property-based conservation and stability tests across crates.

use igr::prelude::*;
use proptest::prelude::*;

/// Random smooth periodic initial conditions (bounded-amplitude Fourier
/// modes; always positive density/pressure).
fn smooth_case(
    n: usize,
    amps: [f64; 3],
    phases: [f64; 3],
) -> (IgrConfig, Domain, State<f64, StoreF64>) {
    let tau = std::f64::consts::TAU;
    let shape = GridShape::new(n, 1, 1, 3);
    let domain = Domain::unit(shape);
    let cfg = IgrConfig::default();
    let mut q = State::zeros(shape);
    q.set_prim_field(&domain, cfg.gamma, |p| {
        let x = p[0];
        Prim::new(
            1.0 + 0.3 * amps[0] * (tau * x + phases[0]).sin(),
            [0.5 * amps[1] * (tau * x + phases[1]).cos(), 0.0, 0.0],
            1.0 + 0.3 * amps[2] * (tau * x + phases[2]).sin(),
        )
    });
    (cfg, domain, q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Mass, momentum, and energy are conserved to machine precision on a
    /// periodic box for arbitrary smooth data — the flux-difference form
    /// telescopes exactly, Σ or not.
    #[test]
    fn igr_conserves_on_random_smooth_data(
        a0 in 0.0..1.0f64, a1 in 0.0..1.0f64, a2 in 0.0..1.0f64,
        p0 in 0.0..6.28f64, p1 in 0.0..6.28f64, p2 in 0.0..6.28f64,
    ) {
        let (cfg, domain, q) = smooth_case(48, [a0, a1, a2], [p0, p1, p2]);
        let before = q.totals(&domain);
        let mut solver = igr_core::solver::igr_solver(cfg, domain, q);
        for _ in 0..5 {
            solver.step().unwrap();
        }
        let after = solver.q.totals(&domain);
        for v in 0..5 {
            let scale = before[v].abs().max(1.0);
            prop_assert!(
                (after[v] - before[v]).abs() < 1e-12 * scale,
                "var {}: {} -> {}", v, before[v], after[v]
            );
        }
    }

    /// The WENO+HLLC baseline conserves identically.
    #[test]
    fn weno_conserves_on_random_smooth_data(
        a0 in 0.0..1.0f64, a1 in 0.0..1.0f64,
        p0 in 0.0..6.28f64, p1 in 0.0..6.28f64,
    ) {
        let (cfg, domain, q) = smooth_case(48, [a0, a1, 0.3], [p0, p1, 1.0]);
        let wcfg = igr::baseline::scheme::WenoConfig {
            gamma: cfg.gamma,
            bc: cfg.bc.clone(),
            ..Default::default()
        };
        let before = q.totals(&domain);
        let mut solver = igr::baseline::scheme::weno_solver(wcfg, domain, q);
        for _ in 0..5 {
            solver.step().unwrap();
        }
        let after = solver.q.totals(&domain);
        for v in 0..5 {
            let scale = before[v].abs().max(1.0);
            prop_assert!((after[v] - before[v]).abs() < 1e-12 * scale);
        }
    }

    /// Decomposed runs match single-rank runs bitwise for random rank
    /// counts and smooth data (the cross-crate halo-exchange guarantee).
    #[test]
    fn decomposition_is_invisible(
        ranks in 2usize..5,
        a0 in 0.1..1.0f64,
        p0 in 0.0..6.28f64,
    ) {
        let tau = std::f64::consts::TAU;
        let shape = GridShape::new(60, 1, 1, 3);
        let domain = Domain::unit(shape);
        let cfg = IgrConfig::default();
        let init = move |p: [f64; 3]| {
            Prim::new(1.0 + 0.2 * a0 * (tau * p[0] + p0).sin(), [0.3, 0.0, 0.0], 1.0)
        };
        let single = igr::app::run_decomposed::<f64, StoreF64>(&cfg, &domain, 1, 4, init, None, &[]);
        let multi = igr::app::run_decomposed::<f64, StoreF64>(&cfg, &domain, ranks, 4, init, None, &[]);
        prop_assert_eq!(single.state.max_diff(&multi.state), 0.0);
    }

    /// FP16-storage runs of smooth flows stay finite and within the FP16
    /// rounding envelope of the FP64 solution over short horizons.
    #[test]
    fn fp16_storage_tracks_fp64_within_rounding_envelope(
        a0 in 0.1..0.8f64,
        p0 in 0.0..6.28f64,
    ) {
        let tau = std::f64::consts::TAU;
        let shape = GridShape::new(48, 1, 1, 3);
        let domain = Domain::unit(shape);
        let cfg = IgrConfig::default();
        let mk = |amp: f64, ph: f64| {
            let mut q64: State<f64, StoreF64> = State::zeros(shape);
            q64.set_prim_field(&domain, cfg.gamma, |p| {
                Prim::new(1.0 + 0.2 * amp * (tau * p[0] + ph).sin(), [0.3, 0.0, 0.0], 1.0)
            });
            let mut q16: State<f32, StoreF16> = State::zeros(shape);
            q16.set_prim_field(&domain, cfg.gamma, |p| {
                Prim::new(1.0 + 0.2 * amp * (tau * p[0] + ph).sin(), [0.3, 0.0, 0.0], 1.0)
            });
            (q64, q16)
        };
        let (q64, q16) = mk(a0, p0);
        let mut s64 = igr_core::solver::igr_solver(cfg.clone(), domain, q64);
        let mut s16 = igr_core::solver::igr_solver(cfg.clone(), domain, q16);
        for _ in 0..5 {
            s64.step().unwrap();
            s16.step().unwrap();
        }
        // Compare densities: the FP16 run must stay within a few hundred
        // storage-roundoff units of the FP64 run after 5 steps.
        let mut max_err = 0.0f64;
        for i in 0..48 {
            let a = s64.q.rho.at(i, 0, 0);
            let b = s16.q.rho.at(i, 0, 0) as f64;
            max_err = max_err.max((a - b).abs());
        }
        prop_assert!(max_err < 0.02, "fp16 deviation {max_err}");
        prop_assert!(s16.q.find_non_finite().is_none());
    }
}
