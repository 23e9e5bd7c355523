//! Accuracy-side ablations of the design choices DESIGN.md calls out.
//!
//! The `benchmark/` harness times the solver; this report measures what
//! these knobs do to the *solution*:
//!
//! 1. α-prefactor sweep → regularized shock width (√α scaling, §5.2);
//! 2. Jacobi vs Gauss–Seidel residual per sweep (warm-started);
//! 3. reconstruction order 1/3/5 → smooth-advection error;
//! 4. RK order 1/2/3 → temporal convergence;
//! 5. warm-start sweep count → Sod accuracy (the "≤ 5 sweeps" claim).

use igr_app::cases;
use igr_baseline::exact_riemann::{ExactRiemann, PrimitiveState};
use igr_bench::{fmt_g, section, TextTable};
use igr_core::config::{EllipticKind, ReconOrder, RkOrder};
use igr_core::solver::igr_solver;
use igr_grid::Axis;
use igr_prec::StoreF64;

/// 10–90 % density-transition width of the regularized shock in a Sod run.
fn sod_shock_width(n: usize, alpha_factor: f64) -> f64 {
    let case = cases::sod(n);
    let mut cfg = case.igr_config();
    cfg.alpha_factor = alpha_factor;
    let mut s = igr_solver::<f64, StoreF64>(cfg, case.domain, case.init_state());
    s.run_until(0.2, 100_000).expect("sod run");
    // The shock at t=0.2 sits near x ~ 0.85 with rho jumping ~0.266->0.125.
    let exact = ExactRiemann::solve(
        PrimitiveState::new(1.0, 0.0, 1.0),
        PrimitiveState::new(0.125, 0.0, 0.1),
        case.gamma,
    );
    let (rho_post, rho_pre) = (exact.sample(1.6).rho, 0.125);
    let hi = rho_pre + 0.9 * (rho_post - rho_pre);
    let lo = rho_pre + 0.1 * (rho_post - rho_pre);
    let mut x_hi = f64::NAN;
    let mut x_lo = f64::NAN;
    for i in (0..n as i32).rev() {
        let r = s.q.rho.at(i, 0, 0);
        if r >= lo && x_lo.is_nan() {
            x_lo = case.domain.center(Axis::X, i);
        }
        if r >= hi && x_hi.is_nan() {
            x_hi = case.domain.center(Axis::X, i);
            break;
        }
    }
    (x_lo - x_hi).abs()
}

/// L∞ advection error of the density RHS at a given reconstruction order.
fn advection_error(order: ReconOrder) -> f64 {
    use igr_core::bc::{fill_ghosts, BcSet, ALL_FACES};
    use igr_core::eos::Prim;
    use igr_core::rhs::{accumulate_fluxes, FluxParams};
    use igr_grid::{Domain, Field, GridShape};

    let n = 64;
    let shape = GridShape::new(n, 1, 1, 3);
    let domain = Domain::unit(shape);
    let tau = std::f64::consts::TAU;
    let u0 = 0.7;
    let eps = 1e-3;
    let mut q: igr_core::State<f64, StoreF64> = igr_core::State::zeros(shape);
    q.set_prim_field(&domain, 1.4, |p| {
        Prim::new(1.0 + eps * (tau * p[0]).sin(), [u0, 0.0, 0.0], 1.0)
    });
    fill_ghosts(
        &mut q,
        &domain,
        &BcSet::all_periodic(),
        1.4,
        0.0,
        &ALL_FACES,
    );
    let sigma: Field<f64, StoreF64> = Field::zeros(shape);
    let params = FluxParams::new(&q, &sigma, &domain, 1.4, 0.0, 0.0, order, false);
    let mut rhs = igr_core::State::zeros(shape);
    accumulate_fluxes(&params, &mut rhs);
    let mut e = 0.0f64;
    for i in 0..n as i32 {
        let x = domain.center(Axis::X, i);
        let expect = -u0 * eps * tau * (tau * x).cos();
        e = e.max((rhs.rho.at(i, 0, 0) - expect).abs());
    }
    e
}

/// Sod L1 density error at a given warm-start sweep count.
fn sod_l1(sweeps: usize, elliptic: EllipticKind) -> f64 {
    let n = 512;
    let case = cases::sod(n);
    let mut cfg = case.igr_config();
    cfg.sweeps = sweeps;
    cfg.elliptic = elliptic;
    let mut s = igr_solver::<f64, StoreF64>(cfg, case.domain, case.init_state());
    s.run_until(0.2, 100_000).expect("sod run");
    let exact = ExactRiemann::solve(
        PrimitiveState::new(1.0, 0.0, 1.0),
        PrimitiveState::new(0.125, 0.0, 0.1),
        case.gamma,
    );
    let mut l1 = 0.0;
    for i in 0..n as i32 {
        let x = case.domain.center(Axis::X, i);
        l1 += (s.q.rho.at(i, 0, 0) - exact.sample((x - 0.5) / 0.2).rho).abs();
    }
    l1 / n as f64
}

fn main() {
    section("Ablation 1: alpha prefactor -> regularized shock width (Sod, 512 cells)");
    let mut t = TextTable::new(vec!["alpha_f", "width (cells)", "width / sqrt(alpha_f)"]);
    let n = 512;
    let dx = 1.0 / n as f64;
    for af in [2.5, 10.0, 40.0] {
        let w = sod_shock_width(n, af);
        t.row(vec![
            format!("{af}"),
            fmt_g(w / dx),
            fmt_g(w / dx / af.sqrt()),
        ]);
    }
    println!("{}", t.render());
    println!(
        "Constant last column = the paper's 'alpha sets the width, sqrt(alpha) ~ mesh' (§5.2)."
    );

    section("Ablation 2: reconstruction order -> smooth advection error (64 cells)");
    let mut t = TextTable::new(vec!["order", "Linf(d rho/dt)"]);
    for (name, order) in [
        ("1st", ReconOrder::First),
        ("3rd", ReconOrder::Third),
        ("5th", ReconOrder::Fifth),
    ] {
        t.row(vec![
            name.to_string(),
            format!("{:.3e}", advection_error(order)),
        ]);
    }
    println!("{}", t.render());

    section("Ablation 3: RK order -> temporal error (smooth wave, fixed dt)");
    let mut t = TextTable::new(vec!["rk", "L1(rho) vs rk3 fine-dt ref"]);
    let reference = {
        let case = cases::steepening_wave(128, 0.1);
        let mut cfg = case.igr_config();
        cfg.rk = RkOrder::Rk3;
        let mut s = igr_solver::<f64, StoreF64>(cfg, case.domain, case.init_state());
        s.fixed_dt = Some(2.5e-4);
        s.run_until(0.2, 100_000).unwrap();
        s
    };
    for (name, rk) in [
        ("rk1", RkOrder::Rk1),
        ("rk2", RkOrder::Rk2),
        ("rk3", RkOrder::Rk3),
    ] {
        let case = cases::steepening_wave(128, 0.1);
        let mut cfg = case.igr_config();
        cfg.rk = rk;
        let mut s = igr_solver::<f64, StoreF64>(cfg, case.domain, case.init_state());
        s.fixed_dt = Some(2e-3);
        s.run_until(0.2, 100_000).unwrap();
        let mut l1 = 0.0;
        for i in 0..128 {
            l1 += (s.q.rho.at(i, 0, 0) - reference.q.rho.at(i, 0, 0)).abs();
        }
        t.row(vec![name.to_string(), format!("{:.3e}", l1 / 128.0)]);
    }
    println!("{}", t.render());

    section("Ablation 4: warm-start sweeps x relaxation -> Sod L1 (the '<= 5 sweeps' claim)");
    let mut t = TextTable::new(vec!["sweeps", "Jacobi L1", "Gauss-Seidel L1"]);
    for sweeps in [1usize, 2, 5, 10] {
        t.row(vec![
            sweeps.to_string(),
            format!("{:.4e}", sod_l1(sweeps, EllipticKind::Jacobi)),
            format!("{:.4e}", sod_l1(sweeps, EllipticKind::GaussSeidel)),
        ]);
    }
    println!("{}", t.render());
    println!("Accuracy saturates by ~5 sweeps — more sweeps buy nothing (paper §5.2).");
}
