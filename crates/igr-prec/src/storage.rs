//! Storage-precision abstraction: how field arrays live in memory.
//!
//! The paper's mixed-precision strategy (§5.6) stores conserved variables in
//! FP16 while all arithmetic happens in FP32. [`Storage`] captures that
//! split: a storage format `S: Storage<R>` holds scalars in some packed form
//! and loads/stores them in the compute type `R`. [`MixedVec`] is the
//! resulting field container used by the solvers.

use crate::half::{self, f16};
use crate::real::Real;

/// Runtime tag for the three precision configurations evaluated in the paper
/// (Table 3 rows: FP64, FP32, FP16/32).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PrecisionMode {
    /// FP64 compute, FP64 storage.
    Fp64,
    /// FP32 compute, FP32 storage.
    Fp32,
    /// FP32 compute, FP16 storage — the paper's mixed mode.
    Fp16Fp32,
}

impl PrecisionMode {
    pub const ALL: [PrecisionMode; 3] = [
        PrecisionMode::Fp64,
        PrecisionMode::Fp32,
        PrecisionMode::Fp16Fp32,
    ];

    /// Label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            PrecisionMode::Fp64 => "FP64",
            PrecisionMode::Fp32 => "FP32",
            PrecisionMode::Fp16Fp32 => "FP16/32",
        }
    }
}

impl std::fmt::Display for PrecisionMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A storage format for compute type `R`.
///
/// `Packed` is the in-memory representation; `load`/`store` convert at the
/// memory boundary, exactly where a GPU's FP16 load/store units would.
pub trait Storage<R: Real>: Copy + Send + Sync + 'static {
    type Packed: Copy + Default + Send + Sync + 'static;

    const BYTES: usize;
    const MODE: PrecisionMode;

    fn pack(x: R) -> Self::Packed;
    fn unpack(p: Self::Packed) -> R;

    /// [`Storage::unpack`] every element of `src` into `dst`, which must have
    /// the same length. Bit-identical to the elementwise loop; formats with
    /// a faster row conversion override it.
    fn unpack_slice(src: &[Self::Packed], dst: &mut [R]) {
        assert_eq!(src.len(), dst.len(), "slice conversion needs equal lengths");
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = Self::unpack(s);
        }
    }

    /// [`Storage::pack`] every element of `src` into `dst`, which must have
    /// the same length. Bit-identical to the elementwise loop.
    fn pack_slice(src: &[R], dst: &mut [Self::Packed]) {
        assert_eq!(src.len(), dst.len(), "slice conversion needs equal lengths");
        for (d, &s) in dst.iter_mut().zip(src) {
            *d = Self::pack(s);
        }
    }

    /// `src` in compute precision: unpacked into the front of `buf` (which
    /// must be at least as long), or `src` itself where the packed format
    /// is the compute type, so row kernels pay for no copy there.
    fn unpack_view<'a>(src: &'a [Self::Packed], buf: &'a mut [R]) -> &'a [R] {
        let dst = &mut buf[..src.len()];
        Self::unpack_slice(src, dst);
        dst
    }

    /// Run `f` on `data` in compute precision and store the result: through
    /// the front of `buf` (unpack, `f`, pack), or in place where the packed
    /// format is the compute type.
    fn update_slice(data: &mut [Self::Packed], buf: &mut [R], f: impl FnOnce(&mut [R])) {
        let vals = &mut buf[..data.len()];
        Self::unpack_slice(data, vals);
        f(vals);
        Self::pack_slice(vals, data);
    }
}

/// FP64 storage for FP64 compute.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreF64;

impl Storage<f64> for StoreF64 {
    type Packed = f64;
    const BYTES: usize = 8;
    const MODE: PrecisionMode = PrecisionMode::Fp64;

    #[inline(always)]
    fn pack(x: f64) -> f64 {
        x
    }
    #[inline(always)]
    fn unpack(p: f64) -> f64 {
        p
    }
    #[inline(always)]
    fn unpack_view<'a>(src: &'a [f64], _: &'a mut [f64]) -> &'a [f64] {
        src
    }
    #[inline(always)]
    fn update_slice(data: &mut [f64], _: &mut [f64], f: impl FnOnce(&mut [f64])) {
        f(data)
    }
}

/// FP32 storage for FP32 compute.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreF32;

impl Storage<f32> for StoreF32 {
    type Packed = f32;
    const BYTES: usize = 4;
    const MODE: PrecisionMode = PrecisionMode::Fp32;

    #[inline(always)]
    fn pack(x: f32) -> f32 {
        x
    }
    #[inline(always)]
    fn unpack(p: f32) -> f32 {
        p
    }
    #[inline(always)]
    fn unpack_view<'a>(src: &'a [f32], _: &'a mut [f32]) -> &'a [f32] {
        src
    }
    #[inline(always)]
    fn update_slice(data: &mut [f32], _: &mut [f32], f: impl FnOnce(&mut [f32])) {
        f(data)
    }
}

/// FP16 storage for FP32 compute — the paper's mixed-precision mode.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreF16;

impl Storage<f32> for StoreF16 {
    type Packed = f16;
    const BYTES: usize = 2;
    const MODE: PrecisionMode = PrecisionMode::Fp16Fp32;

    #[inline(always)]
    fn pack(x: f32) -> f16 {
        f16::from_f32(x)
    }
    #[inline(always)]
    fn unpack(p: f16) -> f32 {
        p.to_f32()
    }

    /// F16C `vcvtph2ps` where the host has it; NaNs widen as
    /// [`Storage::unpack`] does.
    #[inline]
    fn unpack_slice(src: &[f16], dst: &mut [f32]) {
        half::widen_slice(src, dst);
    }

    /// F16C `vcvtps2ph` (round to nearest even) where the host has it.
    #[inline]
    fn pack_slice(src: &[f32], dst: &mut [f16]) {
        half::narrow_slice(src, dst);
    }
}

/// A field array with storage precision decoupled from compute precision.
///
/// This is a thin, allocation-conscious wrapper over a `Vec` of packed
/// scalars; the solvers use it for the persistent state (the `17 N` floats of
/// §5.2) while keeping all thread-local temporaries in the compute type.
#[derive(Clone, Debug)]
pub struct MixedVec<R: Real, S: Storage<R>> {
    data: Vec<S::Packed>,
    _marker: std::marker::PhantomData<(R, S)>,
}

impl<R: Real, S: Storage<R>> MixedVec<R, S> {
    /// Zero-initialized array of `n` scalars.
    pub fn zeros(n: usize) -> Self {
        MixedVec {
            data: vec![S::Packed::default(); n],
            _marker: std::marker::PhantomData,
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Bytes of backing storage (the paper's footprint accounting unit).
    pub fn storage_bytes(&self) -> usize {
        self.data.len() * S::BYTES
    }

    #[inline(always)]
    pub fn get(&self, i: usize) -> R {
        S::unpack(self.data[i])
    }

    #[inline(always)]
    pub fn set(&mut self, i: usize, x: R) {
        self.data[i] = S::pack(x);
    }

    /// Raw packed slice (for halo packing / I/O).
    pub fn packed(&self) -> &[S::Packed] {
        &self.data
    }

    pub fn packed_mut(&mut self) -> &mut [S::Packed] {
        &mut self.data
    }

    /// Unpack the whole array into a compute-precision `Vec`.
    pub fn to_compute_vec(&self) -> Vec<R> {
        let mut out = vec![R::ZERO; self.data.len()];
        S::unpack_slice(&self.data, &mut out);
        out
    }

    /// Overwrite from a compute-precision slice (packs every element).
    pub fn copy_from_compute(&mut self, src: &[R]) {
        S::pack_slice(src, &mut self.data);
    }

    pub fn fill(&mut self, x: R) {
        let p = S::pack(x);
        self.data.iter_mut().for_each(|d| *d = p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_storage_is_lossless() {
        let mut v: MixedVec<f64, StoreF64> = MixedVec::zeros(8);
        v.set(3, 0.1234567890123456789);
        assert_eq!(v.get(3), 0.1234567890123456789);
        assert_eq!(v.storage_bytes(), 64);
    }

    #[test]
    fn f16_storage_rounds_but_bounds_error() {
        let mut v: MixedVec<f32, StoreF16> = MixedVec::zeros(4);
        let x = 1.2345678f32;
        v.set(0, x);
        let err = (v.get(0) - x).abs();
        assert!(err > 0.0, "1.2345678 is not representable in binary16");
        assert!(err <= x * f16::STORAGE_ROUNDOFF);
        assert_eq!(v.storage_bytes(), 8);
    }

    #[test]
    fn mixed_modes_report_bytes() {
        assert_eq!(<StoreF64 as Storage<f64>>::BYTES, 8);
        assert_eq!(<StoreF32 as Storage<f32>>::BYTES, 4);
        assert_eq!(<StoreF16 as Storage<f32>>::BYTES, 2);
        assert_eq!(<StoreF16 as Storage<f32>>::MODE, PrecisionMode::Fp16Fp32);
    }

    #[test]
    fn copy_roundtrip_through_compute_vec() {
        let src: Vec<f32> = (0..16).map(|i| i as f32 * 0.25).collect();
        let mut v: MixedVec<f32, StoreF16> = MixedVec::zeros(16);
        v.copy_from_compute(&src);
        // Quarter-integers up to 4 are exactly representable in binary16.
        assert_eq!(v.to_compute_vec(), src);
    }

    /// The slice forms of all three formats agree with `pack`/`unpack`.
    #[test]
    fn slice_forms_match_elementwise_pack_and_unpack() {
        fn check<R: Real, S: Storage<R>>(xs: &[R])
        where
            S::Packed: PartialEq + std::fmt::Debug,
        {
            let mut packed = vec![S::Packed::default(); xs.len()];
            S::pack_slice(xs, &mut packed);
            let elementwise: Vec<S::Packed> = xs.iter().map(|&x| S::pack(x)).collect();
            assert_eq!(packed, elementwise, "{}", S::MODE);
            let mut back = vec![R::ZERO; xs.len()];
            S::unpack_slice(&packed, &mut back);
            let mut buf = vec![R::ZERO; xs.len() + 3];
            let view = S::unpack_view(&packed, &mut buf).to_vec();
            for ((b, v), &p) in back.iter().zip(&view).zip(&packed) {
                assert_eq!(b.to_f64().to_bits(), S::unpack(p).to_f64().to_bits());
                assert_eq!(v.to_f64().to_bits(), S::unpack(p).to_f64().to_bits());
            }
            // update_slice stores f's result, rounded as `pack` rounds it.
            S::update_slice(&mut packed, &mut buf, |vals| {
                vals.iter_mut().for_each(|x| *x += R::HALF);
            });
            let bumped: Vec<S::Packed> = view.iter().map(|&v| S::pack(v + R::HALF)).collect();
            assert_eq!(packed, bumped, "{}", S::MODE);
        }
        let xs: Vec<f64> = (0..19).map(|i| (i as f64 - 9.0) * 0.3377e-3).collect();
        let xs32: Vec<f32> = xs.iter().map(|&x| x as f32).collect();
        check::<f64, StoreF64>(&xs);
        check::<f32, StoreF32>(&xs32);
        check::<f32, StoreF16>(&xs32);
    }

    #[test]
    fn fill_sets_every_element() {
        let mut v: MixedVec<f32, StoreF32> = MixedVec::zeros(5);
        v.fill(2.5);
        assert!(v.to_compute_vec().iter().all(|&x| x == 2.5));
    }

    #[test]
    fn labels_match_paper_tables() {
        assert_eq!(PrecisionMode::Fp64.label(), "FP64");
        assert_eq!(PrecisionMode::Fp32.label(), "FP32");
        assert_eq!(PrecisionMode::Fp16Fp32.label(), "FP16/32");
        assert_eq!(PrecisionMode::ALL.len(), 3);
    }
}
