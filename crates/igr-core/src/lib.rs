//! Information geometric regularization (IGR) for compressible flow — the
//! primary contribution of the SC '25 paper, reimplemented in Rust.
//!
//! IGR (Cao & Schäfer) regularizes the compressible Euler/Navier–Stokes
//! equations *inviscidly*: an entropic pressure `Σ` is added to the
//! thermodynamic pressure in the momentum and energy fluxes (eqs. 6–8),
//! where `Σ` solves the grid-point-local elliptic problem (eq. 9)
//!
//! ```text
//! α (tr((∇u)²) + tr²(∇u)) = Σ/ρ − α ∇·(∇Σ/ρ),        α ∝ Δx²
//! ```
//!
//! Shocks become smooth at the grid scale, so no nonlinear shock capturing
//! (WENO, Riemann solvers) is needed: a linear 5th-order reconstruction with
//! Lax–Friedrichs fluxes and SSP-RK3 suffices, and the whole right-hand side
//! fuses into one kernel whose intermediates are thread-local (§5.3–5.4).
//!
//! Crate layout:
//! * [`eos`] — ideal-gas thermodynamics and flux vectors;
//! * [`recon`] — 1st/3rd/5th-order linear interface reconstruction;
//! * [`state`] — the [`Fields`] trait every equation set's state implements
//!   (tuple access, RK updates, integrals, health scans), and the five
//!   conserved fields;
//! * [`bc`] — periodic/outflow/reflective/inflow ghost fill (jet inflow
//!   profiles included);
//! * [`sigma`] — the IGR elliptic source + Jacobi/Gauss–Seidel solve;
//! * [`rhs`] — the fused, `rayon`-parallel dimension-split RHS kernel;
//! * [`stepper`] — SSP-RK1/2/3 with the paper's two-buffer arrangement;
//! * [`solver`] — [`solver::Solver`], the user-facing driver, generic over
//!   compute precision and storage precision (FP64 / FP32 / FP16-storage);
//! * [`pressureless`] — the 1-D pressureless IGR system and flow-map tracers
//!   (Fig. 3 of the paper);
//! * [`memory`] — per-array memory-footprint accounting (the `17 N` budget).

pub mod bc;
pub mod config;
pub mod eos;
pub mod memory;
pub mod pressureless;
pub mod recon;
pub mod rhs;
pub mod sigma;
pub mod solver;
pub mod state;
pub mod stepper;

pub use config::{EllipticKind, IgrConfig, ReconOrder, RkOrder};
pub use solver::{IgrScheme, RhsScheme, Solver, SolverError, StepInfo};
pub use state::{Fields, State};

/// Ghost width required by the widest stencil (5th-order reconstruction
/// reaches cells -2..+3 around an interface).
pub const GHOST_WIDTH: usize = 3;

/// Degrees of freedom per grid cell: the five conserved state variables
/// (ρ, ρu, ρv, ρw, E). This is the paper's "1 quadrillion DoF = 200 T cells
/// × 5" accounting.
pub const DOF_PER_CELL: usize = 5;

/// Cells per stack buffer when a kernel converts a row between storage and
/// compute precision (`Storage::{unpack_view, update_slice, pack_slice}`):
/// a 48-cell row is one block, and the Jacobi row kernel's seven f64 blocks
/// take 3.5 KiB of stack.
pub(crate) const CONVERT_BLOCK: usize = 64;
