//! Multicomponent IGR: the two-fluid five-equation model with an advected
//! volume fraction, regularized by the entropic pressure.
//!
//! The paper's Algorithm 1 already carries an advected field `α` next to
//! `(ρ, ρu, E)` — MFC is a multi-component solver — and §3 names "tracking
//! the mixture ratios of different gases and fluids" as the natural
//! extension of the demonstration. This crate implements that extension:
//! the Allaire-style five-equation model for two ideal gases,
//!
//! ```text
//! ∂(α₁ρ₁)/∂t + ∇·(α₁ρ₁ u)              = 0
//! ∂(α₂ρ₂)/∂t + ∇·(α₂ρ₂ u)              = 0
//! ∂(ρu)/∂t   + ∇·(ρu⊗u + (p+Σ)I − τ)   = 0
//! ∂E/∂t      + ∇·[(E + p + Σ)u − u·τ]  = 0
//! ∂α₁/∂t     + u·∇α₁                    = 0
//! ```
//!
//! with the isobaric-closure mixture rule `Γ(α) := 1/(γ_mix−1)
//! = α/(γ₁−1) + (1−α)/(γ₂−1)` and `p = (E − ρ|u|²/2)/Γ(α)`. The entropic
//! pressure Σ solves the same elliptic problem as in the single-fluid
//! solver (eq. 9 of the paper) with the *mixture* density.
//!
//! The volume fraction is updated quasi-conservatively,
//! `∂α/∂t = −∇·(αu) + α∇·u`, with the non-conservative product discretized
//! from the same interface velocities as the conservative flux. Because
//! `Γ` is *linear* in `α`, this discretization transports material
//! interfaces without spurious pressure oscillations (Abgrall's
//! consistency argument) — verified to machine precision by the tests.
//!
//! What is shared with `igr-core` through its [`igr_core::Fields`] trait:
//! the state operations (tuple access, zeroing, the RK updates on the F16C
//! slice path, integrals, health scans), the SSP-RK two-buffer loop
//! (`igr_core::stepper::advance`), the slab-parallel chunk dispatch and the
//! buffered flux-row walks, the Σ workspace and its relaxation loop
//! (`igr_core::sigma::EllipticWorkspace`), and the memory-report rows. What
//! is still species-specific: the mixture EOS, the interface flux with the
//! `α∇·u` term, the Σ source and mixture density, the boundary fill and the
//! CFL scan.
//!
//! Crate layout:
//! * [`eos`] — mixture thermodynamics (`MixEos`, `MixPrim`) and fluxes;
//! * [`state`] — the seven stored fields `(α₁ρ₁, α₂ρ₂, ρu, ρv, ρw, E, α₁)`;
//! * [`bc`] — ghost fill for the seven-field state;
//! * [`rhs`] — the fused dimension-split RHS kernel;
//! * [`solver`] — configuration and the time-marching driver.

#![deny(missing_docs)]

pub mod bc;
pub mod eos;
pub mod rhs;
pub mod solver;
pub mod state;

pub use bc::{SpeciesBc, SpeciesBcSet};
pub use eos::{MixEos, MixPrim, NS};
pub use solver::{species_solver, SpeciesConfig, SpeciesSolver};
pub use state::SpeciesState;

/// Degrees of freedom per grid cell in the two-fluid model: two partial
/// densities, three momenta, total energy, and the volume fraction.
pub const DOF_PER_CELL_TWO_FLUID: usize = NS;
