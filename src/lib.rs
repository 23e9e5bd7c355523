//! # igr — information geometric regularization for compressible CFD
//!
//! A Rust reproduction of *"Simulating many-engine spacecraft: Exceeding 1
//! quadrillion degrees of freedom via information geometric regularization"*
//! (SC '25): the IGR solver, the WENO5+HLLC state-of-the-art baseline it is
//! measured against, and simulated substrates for the hardware the paper
//! ran on (unified GPU memory, MPI, three exascale machines).
//!
//! This crate is a facade: it re-exports the workspace's crates under one
//! name and carries the runnable examples and cross-crate integration
//! tests. Start with [`core`]'s `Solver`, or run:
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`prec`] | `igr-prec` | software binary16, `Real` trait, mixed-precision storage |
//! | [`grid`] | `igr-grid` | ghost-cell fields, domains, block decomposition |
//! | [`mem`] | `igr-mem` | unified-memory simulator (pools, placement, traffic) |
//! | [`comm`] | `igr-comm` | thread-rank message passing (the MPI stand-in) |
//! | [`core`] | `igr-core` | the IGR scheme: elliptic Σ solve, fused RHS, SSP-RK3 |
//! | [`baseline`] | `igr-baseline` | WENO5-JS + HLLC, LAD, exact Riemann solver |
//! | [`app`] | `igr-app` | case library (jets, engine arrays), decomposed runner |
//! | [`perf`] | `igr-perf` | machine models: grind time, scaling, energy, capacity |
//! | [`species`] | `igr-species` | two-fluid five-equation model with IGR (advected α) |
//! | [`campaign`] | `igr-campaign` | scenario DSL, sweeps, sharded cached ensemble execution |
//! | [`obs`] | `igr-obs` | phase-scoped tracing, metrics registry, trace exporters |

#![deny(missing_docs)]
pub use igr_app as app;
pub use igr_baseline as baseline;
pub use igr_campaign as campaign;
pub use igr_comm as comm;
pub use igr_core as core;
pub use igr_grid as grid;
pub use igr_mem as mem;
pub use igr_obs as obs;
pub use igr_perf as perf;
pub use igr_prec as prec;
pub use igr_species as species;

/// Convenience prelude for examples and downstream users.
pub mod prelude {
    pub use igr_app::cases::{self, CaseSetup};
    pub use igr_app::diagnostics::History;
    pub use igr_app::driver::{
        Cadence, CheckpointObserver, DiagnosticsObserver, Driver, FnObserver, MetricsObserver,
        Probe, Steppable, StopCondition, StopReason, TraceObserver, VtkObserver,
    };
    pub use igr_baseline::scheme::weno_solver;
    pub use igr_core::eos::Prim;
    pub use igr_core::solver::igr_solver;
    pub use igr_core::{Fields, IgrConfig, State};
    pub use igr_grid::{Axis, Domain, GridShape};
    pub use igr_prec::{f16, PrecisionMode, StoreF16, StoreF32, StoreF64};
    pub use igr_species::{
        species_solver, MixEos, MixPrim, SpeciesBc, SpeciesBcSet, SpeciesConfig, SpeciesSolver,
        SpeciesState,
    };
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile_and_link() {
        // Touch one item per crate so a broken re-export fails this test.
        let _ = crate::prec::f16::ONE;
        let _ = crate::grid::GridShape::new(2, 2, 2, 1);
        let _ = crate::mem::DeviceSpec::GH200;
        let _ = crate::core::DOF_PER_CELL;
        let _ = crate::baseline::weno::WENO_EPS;
        let _ = crate::perf::System::FRONTIER;
        let _ = crate::species::MixEos::air_helium();
        assert_eq!(crate::core::DOF_PER_CELL, 5);
        assert_eq!(crate::species::DOF_PER_CELL_TWO_FLUID, 7);
    }
}
