//! Jet and engine-array physics across crates: symmetry, stability at high
//! Mach, and decomposed-run equivalence with inflow boundaries.

use igr::prelude::*;

#[test]
fn symmetric_three_engine_flow_stays_symmetric() {
    // Zero-noise three-engine array: the layout is mirror-symmetric in x
    // about 0, and the solution must stay so to near machine precision.
    let n = 24;
    let case = cases::three_engine_2d(n, 0.0, 0);
    let mut solver = case.igr_solver::<f64, StoreF64>();
    for _ in 0..20 {
        solver.step().unwrap();
    }
    let shape = solver.q.shape();
    let nx = shape.nx as i32;
    let mut worst = 0.0f64;
    for j in 0..shape.ny as i32 {
        for i in 0..nx / 2 {
            let mirror = nx - 1 - i;
            let a = solver.q.rho.at(i, j, 0);
            let b = solver.q.rho.at(mirror, j, 0);
            worst = worst.max((a - b).abs());
            // x-momentum is antisymmetric.
            let ma = solver.q.mx.at(i, j, 0);
            let mb = solver.q.mx.at(mirror, j, 0);
            worst = worst.max((ma + mb).abs());
        }
    }
    assert!(worst < 1e-10, "symmetry violation {worst}");
}

#[test]
fn mach10_jet_runs_stably_and_entrains_flow() {
    let case = cases::single_jet_3d(12);
    let mut solver = case.igr_solver::<f64, StoreF64>();
    let mut max_u = 0.0f64;
    for _ in 0..25 {
        let info = solver.step().expect("Mach-10 jet must be stable under IGR");
        assert!(info.dt > 0.0);
    }
    let shape = solver.q.shape();
    for k in 0..shape.nz as i32 {
        for j in 0..shape.ny as i32 {
            for i in 0..shape.nx as i32 {
                let pr = solver.q.prim_at(i, j, k, case.gamma);
                max_u = max_u.max(pr.vel[0]);
            }
        }
    }
    let u_exit = 10.0 * (1.4f64).sqrt();
    assert!(
        max_u > 0.5 * u_exit,
        "jet must penetrate the domain: max u {max_u:.2} vs exit {u_exit:.2}"
    );
}

#[test]
fn super_heavy_inflow_is_positive_everywhere() {
    // The 33-engine inflow profile must produce physically valid states at
    // every boundary position (no negative blends between engines).
    let case = cases::super_heavy_3d(24);
    let q: State<f64, StoreF64> = case.init_state();
    assert!(q.find_non_finite().is_none());
    let mut solver = case.igr_solver::<f64, StoreF64>();
    for _ in 0..5 {
        solver.step().unwrap();
    }
    let rho_min = -solver.q.rho.max_interior(|x| -x);
    assert!(rho_min > 0.0, "density must stay positive: {rho_min}");
}

#[test]
fn decomposed_jet_with_inflow_matches_single_rank_closely() {
    // Inflow-profile BCs evaluate positions from each rank's local domain,
    // whose origin differs from the global formula in the last ulp — so
    // equality is near-bitwise rather than exact.
    let shape = GridShape::new(32, 16, 1, 3);
    let domain = Domain::new([0.0, -0.5, 0.0], [2.0, 0.5, 1.0], shape);
    let inflow = std::sync::Arc::new(igr::app::jets::JetArrayInflow {
        engines: igr::app::jets::single_engine(0.2),
        conditions: igr::app::jets::JetConditions::mach10(),
        plane_dims: (1, 2),
        flow_dim: 0,
        lip_width: 0.1,
    });
    let bc = igr::core::bc::BcSet::all_outflow().with_face(
        Axis::X,
        0,
        igr::core::bc::Bc::InflowProfile(inflow),
    );
    let cfg = IgrConfig {
        bc,
        ..IgrConfig::default()
    };
    let ambient = Prim::new(1.0, [0.0; 3], 1.0);
    let init = move |_: [f64; 3]| ambient;
    let single = igr::app::run_decomposed::<f64, StoreF64>(&cfg, &domain, 1, 6, init, None, &[]);
    let multi = igr::app::run_decomposed::<f64, StoreF64>(&cfg, &domain, 4, 6, init, None, &[]);
    let diff = single.state.max_diff(&multi.state);
    assert!(diff < 1e-11, "decomposed jet deviates by {diff}");
}

#[test]
fn engine_count_controls_plume_count() {
    // Count supersonic streaks just above the inflow plane for 1 vs 3
    // engines: distinct engines must appear as distinct plumes.
    let count_plumes = |case: &CaseSetup| -> usize {
        let mut solver = case.igr_solver::<f64, StoreF64>();
        for _ in 0..15 {
            solver.step().unwrap();
        }
        let shape = solver.q.shape();
        // Scan the row 2 cells above the inflow face; a plume is a cluster
        // of cells above 60% of the row's peak velocity (the inter-engine
        // valleys sit well below that).
        let row: Vec<f64> = (0..shape.nx as i32)
            .map(|i| solver.q.prim_at(i, 2, 0, case.gamma).vel[1])
            .collect();
        let peak = row.iter().cloned().fold(0.0f64, f64::max);
        let mut clusters = 0;
        let mut inside = false;
        for &v in &row {
            let fast = v > 0.6 * peak;
            if fast && !inside {
                clusters += 1;
            }
            inside = fast;
        }
        clusters
    };
    let three = cases::three_engine_2d(32, 0.0, 0);
    assert_eq!(count_plumes(&three), 3, "three engines, three plumes");
}
