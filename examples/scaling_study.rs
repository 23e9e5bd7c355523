//! Decomposed-run scaling study: run the same jet problem over 1, 2, and 4
//! thread ranks, verify the physics is identical bit for bit, report halo
//! traffic, and project to the paper's machines with the `igr-perf` models.
//!
//! ```bash
//! cargo run --release --example scaling_study
//! ```

use igr::app::run_decomposed;
use igr::perf::{GrindModel, Precision, ScalingModel, Scheme, System};
use igr::prelude::*;

fn main() {
    // Measured: decomposed thread-rank runs of a steepening-wave problem.
    let n = 96;
    let steps = 5;
    let case = cases::steepening_wave(n, 0.25);
    let cfg = case.igr_config();

    println!("decomposed runs, {n} cells, {steps} steps (thread ranks over igr-comm):\n");
    println!(
        "{:>6} {:>16} {:>18} {:>22}",
        "ranks", "halo bytes", "msgs sent", "max |diff| vs 1 rank"
    );
    let i1 = case.init.clone();
    let reference =
        run_decomposed::<f64, StoreF64>(&cfg, &case.domain, 1, steps, move |p| i1(p), None, &[]);
    for ranks in [1usize, 2, 4] {
        let init = case.init.clone();
        let run = run_decomposed::<f64, StoreF64>(
            &cfg,
            &case.domain,
            ranks,
            steps,
            move |p| init(p),
            None,
            &[],
        );
        let diff = reference.state.max_diff(&run.state);
        println!(
            "{:>6} {:>16} {:>18} {:>22.1e}",
            ranks, run.total_bytes_sent, "-", diff
        );
        assert_eq!(diff, 0.0, "decomposition must not change the physics");
    }
    println!("\nbitwise-identical results across rank counts: the halo-exchange path");
    println!("reproduces the single-block ghost fill exactly (FP64).\n");

    // Modeled: the paper-scale projection.
    println!("projected strong scaling (model, FP16/32, 8-node base):\n");
    for (sys, grind) in [
        (System::FRONTIER, GrindModel::mi250x_gcd()),
        (System::ALPS, GrindModel::gh200()),
    ] {
        let model = ScalingModel::new(sys, grind, Scheme::Igr, Precision::Fp16Fp32);
        let global = model.max_cells_per_device() * (8 * sys.devices_per_node) as f64;
        let full = if sys.nodes > 9000 { 9408 } else { 2688 };
        let pts = model.strong_scaling(global, 8, &[8, 256, full]);
        println!(
            "{:<16} 32x devices: {:.0}% efficiency; full system ({} nodes): {:.0}% ({:.0}x speedup)",
            sys.name,
            100.0 * pts[1].efficiency,
            full,
            100.0 * pts[2].efficiency,
            pts[2].speedup
        );
    }
    println!("\n[paper Fig. 7: ~90% at 32x devices; 44-80% at full systems]");
}
