//! Precision substrate for the IGR solver stack.
//!
//! The paper stores state in IEEE 754 binary16 ("FP16") while computing in
//! FP32, which halves the memory footprint and doubles the maximum problem
//! size relative to pure FP32 (§5.6). Rust has no stable `f16`, and the
//! sanctioned dependency set has no half-precision crate, so this crate
//! implements binary16 from scratch:
//!
//! * [`f16`](struct@f16) — binary16 with round-to-nearest-even conversions
//!   from/to `f32`, subnormal handling, and total-order helpers. The scalar
//!   conversions are branch-free integer/FP formulations; on x86_64 hosts
//!   whose CPU reports F16C, the slice conversions behind
//!   [`Storage::unpack_slice`]/[`Storage::pack_slice`] run `vcvtph2ps`/
//!   `vcvtps2ph` eight lanes at a time (selected at run time). Every path
//!   gives the same bits on every input, NaNs included.
//! * [`Real`] — the compute-precision abstraction (implemented for `f32` and
//!   `f64`) that lets every kernel in `igr-core`/`igr-baseline` be generic
//!   over compute precision.
//! * [`Storage`] + [`PrecisionMode`] — the storage-precision abstraction: a
//!   field array stores `f16`/`f32`/`f64` and exposes loads/stores in the
//!   compute type, per scalar or per row slice, mirroring the paper's
//!   FP16-storage/FP32-compute split.

mod half;
mod real;
mod storage;

pub use half::f16;
pub use real::Real;
pub use storage::{MixedVec, PrecisionMode, Storage, StoreF16, StoreF32, StoreF64};

/// Bytes used to *store* one scalar in each precision mode.
///
/// This is the quantity that enters the paper's memory-footprint arithmetic
/// (17 floats per cell; FP16 storage halves it relative to FP32).
pub const fn bytes_per_scalar(mode: PrecisionMode) -> usize {
    match mode {
        PrecisionMode::Fp64 => 8,
        PrecisionMode::Fp32 => 4,
        PrecisionMode::Fp16Fp32 => 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_per_scalar_matches_modes() {
        assert_eq!(bytes_per_scalar(PrecisionMode::Fp64), 8);
        assert_eq!(bytes_per_scalar(PrecisionMode::Fp32), 4);
        assert_eq!(bytes_per_scalar(PrecisionMode::Fp16Fp32), 2);
    }
}
