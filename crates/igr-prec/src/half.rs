//! IEEE 754 binary16 ("half precision").
//!
//! Layout: 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
//! Conversions implement round-to-nearest, ties-to-even — the default IEEE
//! rounding mode and the one hardware FP16 units use — so simulation results
//! match what the paper's GH200/MI300A storage path would produce. NaNs
//! follow one rule on every path (see [`f16`](struct@f16)).
//!
//! The slice forms ([`widen_slice`], [`narrow_slice`]) give the same bits as
//! the scalar routines on every input. On x86_64 hosts with F16C they
//! convert eight lanes per instruction; the tail and every other host use
//! the portable loop ([`widen_portable`], [`narrow_portable`]).

use std::cmp::Ordering;
use std::fmt;

/// IEEE 754 binary16 floating point number.
///
/// Stored as its raw bit pattern. All arithmetic is performed by widening to
/// `f32` (exactly representable: binary16 ⊂ binary32), mirroring the paper's
/// "FP32 compute, FP16 storage" strategy where the half values only ever live
/// in memory, never in registers.
///
/// NaN rule, identical for the scalar and slice conversions: narrowing sets
/// the binary16 quiet bit `0x0200` and keeps the top 10 payload bits;
/// widening sets the binary32 quiet bit `0x0040_0000` and keeps the payload.
/// That is the IEEE 754 conversion behaviour and what x86 F16C
/// (`vcvtph2ps`/`vcvtps2ph`) does. Narrowing never produces a signalling
/// NaN, so the widening rule changes no value a store can hold.
#[allow(non_camel_case_types)]
#[derive(Clone, Copy, Default, PartialEq, Eq)]
#[repr(transparent)]
pub struct f16(pub u16);

impl f16 {
    pub const ZERO: f16 = f16(0x0000);
    pub const NEG_ZERO: f16 = f16(0x8000);
    pub const ONE: f16 = f16(0x3C00);
    pub const NEG_ONE: f16 = f16(0xBC00);
    pub const INFINITY: f16 = f16(0x7C00);
    pub const NEG_INFINITY: f16 = f16(0xFC00);
    /// A quiet NaN.
    pub const NAN: f16 = f16(0x7E00);
    /// Largest finite value: 65504.
    pub const MAX: f16 = f16(0x7BFF);
    /// Smallest finite value: -65504.
    pub const MIN: f16 = f16(0xFBFF);
    /// Smallest positive normal value: 2^-14.
    pub const MIN_POSITIVE: f16 = f16(0x0400);
    /// Smallest positive subnormal value: 2^-24.
    pub const MIN_POSITIVE_SUBNORMAL: f16 = f16(0x0001);
    /// Machine epsilon: 2^-10.
    pub const EPSILON: f16 = f16(0x1400);

    const EXP_MASK: u16 = 0x7C00;
    const MAN_MASK: u16 = 0x03FF;
    const SIGN_MASK: u16 = 0x8000;

    /// Reinterpret raw bits as `f16`.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        f16(bits)
    }

    /// The raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Convert from `f32` with round-to-nearest-even.
    ///
    /// Values above the binary16 range saturate to ±infinity (matching IEEE
    /// conversion semantics); NaNs are quieted (see the type-level NaN rule).
    ///
    /// Branch-free: all three candidate encodings are computed and one is
    /// selected, so the loop form vectorizes.
    #[inline]
    pub fn from_f32(x: f32) -> Self {
        let bits = x.to_bits();
        let sign = (bits >> 16) as u16 & Self::SIGN_MASK;
        let a = bits & 0x7FFF_FFFF;

        // Normal range: rebias the exponent 127 -> 15 and round the 13
        // dropped mantissa bits to nearest even by adding 0xFFF plus the
        // lowest kept bit. A carry out of the mantissa increments the
        // exponent, up to infinity. Lanes outside the range wrap and are
        // discarded by the select below.
        let odd = (a >> 13) & 1;
        let normal = a.wrapping_add(0xC800_0FFF + odd) >> 13;

        // Subnormal range (|x| < 2^-14): adding 0.5 puts the f32 ulp at
        // 2^-24, the binary16 subnormal step, so the FP adder's
        // round-to-nearest-even does the rounding (up to MIN_POSITIVE,
        // 0x0400). Needs the default rounding mode, which Rust never changes;
        // only an f32 subnormal input (below 2^-126) costs a microcode assist.
        let sub = (f32::from_bits(a) + 0.5)
            .to_bits()
            .wrapping_sub(0x3F00_0000);

        // Overflow and infinity map to infinity; a NaN sets 0x0200 and keeps
        // the top 10 payload bits.
        let nan = if a > 0x7F80_0000 {
            0x0200 | ((a >> 13) & 0x03FF)
        } else {
            0
        };
        let h = if a >= 0x4780_0000 {
            0x7C00 | nan
        } else if a < 0x3880_0000 {
            sub
        } else {
            normal
        };
        f16(sign | h as u16)
    }

    /// Convert from `f64` (via the correctly-rounded `f64 -> f32` step; double
    /// rounding is harmless here because binary32 has >2x the precision of
    /// binary16 plus a guard margin for all binary64 inputs except a measure-
    /// zero set irrelevant to stored simulation data).
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        Self::from_f32(x as f32)
    }

    /// Widen to `f32` (exact for every non-NaN; a NaN comes back quiet, see
    /// the type-level NaN rule).
    ///
    /// Branch-free, like [`Self::from_f32`].
    #[inline]
    pub fn to_f32(self) -> f32 {
        let a = (self.0 & !Self::SIGN_MASK) as u32;
        let sign = ((self.0 & Self::SIGN_MASK) as u32) << 16;
        let shifted = a << 13;

        // Normal: rebias the exponent 15 -> 127.
        let normal = shifted + (112 << 23);
        // Infinity / NaN: all-ones exponent, plus the f32 quiet bit for NaN.
        let quiet = if a > 0x7C00 { 0x0040_0000 } else { 0 };
        let inf_nan = shifted | 0x7F80_0000 | quiet;
        // Zero / subnormal: 2^-14 * (1 + m/1024) - 2^-14 = m * 2^-24, exact.
        // Both operands are normal f32s; scaling `shifted` by 2^112 instead
        // would feed subnormal f32s to the FPU, which costs ~40 ns each in
        // microcode assists on x86.
        let magic = f32::from_bits(113 << 23);
        let sub = (f32::from_bits(shifted | (113 << 23)) - magic).to_bits();

        let bits = if a >= 0x7C00 {
            inf_nan
        } else if a < 0x0400 {
            sub
        } else {
            normal
        };
        f32::from_bits(sign | bits)
    }

    /// Widen to `f64` (exact).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & Self::EXP_MASK) == Self::EXP_MASK && (self.0 & Self::MAN_MASK) != 0
    }

    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & !Self::SIGN_MASK) == Self::EXP_MASK
    }

    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & Self::EXP_MASK) != Self::EXP_MASK
    }

    #[inline]
    pub fn is_sign_negative(self) -> bool {
        self.0 & Self::SIGN_MASK != 0
    }

    #[inline]
    pub fn is_subnormal(self) -> bool {
        (self.0 & Self::EXP_MASK) == 0 && (self.0 & Self::MAN_MASK) != 0
    }

    #[inline]
    pub fn abs(self) -> Self {
        f16(self.0 & !Self::SIGN_MASK)
    }

    /// The unit roundoff of the FP16 *storage* channel: 2^-11.
    ///
    /// Storing an FP32 value x in FP16 perturbs it by at most
    /// `|x| * STORAGE_ROUNDOFF` (in the normal range). This is the noise the
    /// paper says seeds hydrodynamic instabilities earlier (Fig. 5) while
    /// leaving the resolved flow faithful.
    pub const STORAGE_ROUNDOFF: f32 = 4.8828125e-4; // 2^-11
}

impl fmt::Debug for f16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f16({})", self.to_f32())
    }
}

impl fmt::Display for f16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl PartialOrd for f16 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl From<f16> for f32 {
    fn from(h: f16) -> f32 {
        h.to_f32()
    }
}

impl From<f16> for f64 {
    fn from(h: f16) -> f64 {
        h.to_f64()
    }
}

/// Widen `src` into `dst` (equal lengths), bit-identical to [`f16::to_f32`].
pub(crate) fn widen_slice(src: &[f16], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "slice conversion needs equal lengths");
    #[cfg(target_arch = "x86_64")]
    if f16c::detected() {
        // SAFETY: the host supports f16c and avx, checked just above.
        return unsafe { f16c::widen(src, dst) };
    }
    widen_portable(src, dst);
}

/// Narrow `src` into `dst` (equal lengths), bit-identical to
/// [`f16::from_f32`].
pub(crate) fn narrow_slice(src: &[f32], dst: &mut [f16]) {
    assert_eq!(src.len(), dst.len(), "slice conversion needs equal lengths");
    #[cfg(target_arch = "x86_64")]
    if f16c::detected() {
        // SAFETY: the host supports f16c and avx, checked just above.
        return unsafe { f16c::narrow(src, dst) };
    }
    narrow_portable(src, dst);
}

/// The portable form of [`widen_slice`]: the scalar routine per element.
fn widen_portable(src: &[f16], dst: &mut [f32]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = s.to_f32();
    }
}

/// The portable form of [`narrow_slice`]: the scalar routine per element.
fn narrow_portable(src: &[f32], dst: &mut [f16]) {
    for (d, &s) in dst.iter_mut().zip(src) {
        *d = f16::from_f32(s);
    }
}

/// Eight-lane F16C conversions; the `len % 8` tail goes through the
/// portable loop.
#[cfg(target_arch = "x86_64")]
mod f16c {
    use super::f16;
    use std::arch::x86_64::{
        __m128i, _mm256_cvtph_ps, _mm256_cvtps_ph, _mm256_loadu_ps, _mm256_storeu_ps,
        _mm_loadu_si128, _mm_storeu_si128, _MM_FROUND_TO_NEAREST_INT,
    };

    /// Whether this host can run [`widen`] and [`narrow`] (std caches the
    /// CPUID probe, so this is a load and a test).
    #[inline]
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("f16c") && is_x86_feature_detected!("avx")
    }

    /// [`super::widen_slice`] with `vcvtph2ps`; `src` and `dst` have equal
    /// lengths.
    #[target_feature(enable = "f16c,avx")]
    pub(super) fn widen(src: &[f16], dst: &mut [f32]) {
        let mut s8 = src.chunks_exact(8);
        let mut d8 = dst.chunks_exact_mut(8);
        for (s, d) in (&mut s8).zip(&mut d8) {
            // SAFETY: `s` is 8 `f16`s (`repr(transparent)` over u16), the
            // 16 bytes one unaligned 128-bit load reads; `d` is 8 `f32`s,
            // the 32 bytes one unaligned 256-bit store writes.
            unsafe {
                let h = _mm_loadu_si128(s.as_ptr().cast::<__m128i>());
                _mm256_storeu_ps(d.as_mut_ptr(), _mm256_cvtph_ps(h));
            }
        }
        super::widen_portable(s8.remainder(), d8.into_remainder());
    }

    /// [`super::narrow_slice`] with `vcvtps2ph` (immediate round to nearest
    /// even, independent of MXCSR); `src` and `dst` have equal lengths.
    #[target_feature(enable = "f16c,avx")]
    pub(super) fn narrow(src: &[f32], dst: &mut [f16]) {
        let mut s8 = src.chunks_exact(8);
        let mut d8 = dst.chunks_exact_mut(8);
        for (s, d) in (&mut s8).zip(&mut d8) {
            // SAFETY: `s` is 8 `f32`s, the 32 bytes one unaligned 256-bit
            // load reads; `d` is 8 `f16`s (`repr(transparent)` over u16),
            // the 16 bytes one unaligned 128-bit store writes.
            unsafe {
                let x = _mm256_loadu_ps(s.as_ptr());
                let h = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(x);
                _mm_storeu_si128(d.as_mut_ptr().cast::<__m128i>(), h);
            }
        }
        super::narrow_portable(s8.remainder(), d8.into_remainder());
    }
}

/// The branchy conversions the branch-free ones replaced, kept as the
/// bitwise oracle. `to_f32` here leaves a signalling NaN signalling.
#[cfg(test)]
mod oracle {
    use std::cmp::Ordering;

    pub(super) fn from_f32(x: f32) -> u16 {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let man = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Infinity or NaN. Keep a nonzero mantissa bit for NaN.
            return if man != 0 {
                sign | 0x7C00 | 0x0200 | ((man >> 13) as u16 & 0x03FF)
            } else {
                sign | 0x7C00
            };
        }

        // Unbiased exponent in binary32; binary16 bias is 15.
        let half_exp = exp - 127 + 15;
        if half_exp >= 0x1F {
            // Overflow: round-to-nearest maps to infinity.
            return sign | 0x7C00;
        }

        if half_exp <= 0 {
            // Subnormal or underflow-to-zero range.
            if half_exp < -10 {
                return sign;
            }
            // Implicit leading 1 becomes explicit; shift right so the result
            // lands in the 10-bit subnormal mantissa field.
            let man32 = man | 0x0080_0000;
            let shift = (14 - half_exp) as u32; // in [14, 24]
            let half_man = man32 >> shift;
            let rem = man32 & ((1u32 << shift) - 1);
            let halfway = 1u32 << (shift - 1);
            let rounded = match rem.cmp(&halfway) {
                Ordering::Greater => half_man + 1,
                Ordering::Less => half_man,
                Ordering::Equal => half_man + (half_man & 1),
            };
            return sign | rounded as u16;
        }

        // Normal range: drop 13 mantissa bits with round-to-nearest-even.
        let half_man = (man >> 13) as u16;
        let rem = man & 0x1FFF;
        let base = sign | ((half_exp as u16) << 10) | half_man;
        match rem.cmp(&0x1000) {
            Ordering::Greater => base + 1,
            Ordering::Less => base,
            Ordering::Equal => base + (base & 1),
        }
    }

    pub(super) fn to_f32(h: u16) -> f32 {
        let sign = ((h & 0x8000) as u32) << 16;
        let exp = ((h & 0x7C00) >> 10) as u32;
        let man = (h & 0x03FF) as u32;

        let bits = if exp == 0x1F {
            sign | 0x7F80_0000 | (man << 13)
        } else if exp == 0 {
            if man == 0 {
                sign
            } else {
                // Subnormal: normalize man = 2^k * 1.xxx, k the MSB index.
                let k = 31 - man.leading_zeros();
                let unbiased = k as i32 - 24;
                let man32 = (man << (23 - k)) & 0x007F_FFFF;
                sign | (((unbiased + 127) as u32) << 23) | man32
            }
        } else {
            sign | ((exp + 127 - 15) << 23) | (man << 13)
        };
        f32::from_bits(bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(x: f32) -> f32 {
        f16::from_f32(x).to_f32()
    }

    #[test]
    fn exact_small_integers_roundtrip() {
        for i in -2048..=2048 {
            let x = i as f32;
            assert_eq!(roundtrip(x), x, "integer {i} must be exact in binary16");
        }
    }

    #[test]
    fn known_constants() {
        assert_eq!(f16::from_f32(1.0).to_bits(), 0x3C00);
        assert_eq!(f16::from_f32(-1.0).to_bits(), 0xBC00);
        assert_eq!(f16::from_f32(0.5).to_bits(), 0x3800);
        assert_eq!(f16::from_f32(2.0).to_bits(), 0x4000);
        assert_eq!(f16::from_f32(65504.0).to_bits(), 0x7BFF);
        assert_eq!(f16::from_f32(0.0).to_bits(), 0x0000);
        assert_eq!(f16::from_f32(-0.0).to_bits(), 0x8000);
        // 1/3 rounds to 0x3555 (0.33325195) in round-to-nearest-even.
        assert_eq!(f16::from_f32(1.0 / 3.0).to_bits(), 0x3555);
    }

    #[test]
    fn widening_known_bit_patterns() {
        assert_eq!(f16::from_bits(0x3C00).to_f32(), 1.0);
        assert_eq!(f16::from_bits(0x3800).to_f32(), 0.5);
        assert_eq!(f16::from_bits(0x7BFF).to_f32(), 65504.0);
        assert_eq!(f16::from_bits(0x0400).to_f32(), 6.103515625e-5); // 2^-14
        assert_eq!(f16::from_bits(0x0001).to_f32(), 5.960464477539063e-8); // 2^-24
        assert_eq!(f16::from_bits(0x03FF).to_f32(), 6.097555160522461e-5); // max subnormal
    }

    #[test]
    fn overflow_saturates_to_infinity() {
        assert_eq!(f16::from_f32(65520.0).to_bits(), 0x7C00); // ties to even -> inf
        assert_eq!(f16::from_f32(1.0e6), f16::INFINITY);
        assert_eq!(f16::from_f32(-1.0e6), f16::NEG_INFINITY);
        assert_eq!(f16::from_f32(f32::INFINITY), f16::INFINITY);
    }

    #[test]
    fn underflow_flushes_to_zero_below_half_min_subnormal() {
        let half_min_sub = 2.0f32.powi(-25);
        assert_eq!(f16::from_f32(half_min_sub * 0.99).to_bits(), 0x0000);
        // Exactly half the min subnormal: ties-to-even -> zero (even).
        assert_eq!(f16::from_f32(half_min_sub).to_bits(), 0x0000);
        // Just above: rounds up to the min subnormal.
        assert_eq!(f16::from_f32(half_min_sub * 1.01).to_bits(), 0x0001);
        assert_eq!(f16::from_f32(-half_min_sub * 1.01).to_bits(), 0x8001);
    }

    #[test]
    fn subnormal_conversion_roundtrips() {
        for bits in 1u16..=0x03FF {
            let h = f16::from_bits(bits);
            assert!(h.is_subnormal());
            assert_eq!(f16::from_f32(h.to_f32()).to_bits(), bits);
        }
    }

    #[test]
    fn all_finite_bit_patterns_roundtrip_exactly() {
        // Exhaustive: every finite f16 widens to f32 and narrows back bit-identically.
        for bits in 0u16..=0xFFFF {
            let h = f16::from_bits(bits);
            if h.is_nan() {
                assert!(f16::from_f32(h.to_f32()).is_nan());
            } else {
                assert_eq!(
                    f16::from_f32(h.to_f32()).to_bits(),
                    bits,
                    "bits {bits:#06x}"
                );
            }
        }
    }

    #[test]
    fn rounding_is_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10; even -> 1.0.
        let x = 1.0f32 + 2.0f32.powi(-11);
        assert_eq!(f16::from_f32(x).to_bits(), 0x3C00);
        // 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; even -> 1+2^-9.
        let y = 1.0f32 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(f16::from_f32(y).to_bits(), 0x3C02);
        // Slightly above halfway rounds up.
        let z = 1.0f32 + 2.0f32.powi(-11) + 2.0f32.powi(-20);
        assert_eq!(f16::from_f32(z).to_bits(), 0x3C01);
    }

    #[test]
    fn rounding_error_bound_holds() {
        // |round(x) - x| <= |x| * 2^-11 for normal-range x.
        let mut x = 6.2e-5f32;
        while x < 6.0e4 {
            let e = (roundtrip(x) - x).abs();
            assert!(e <= x * f16::STORAGE_ROUNDOFF * 1.0001, "x={x} err={e}");
            x *= 1.37;
        }
    }

    #[test]
    fn nan_propagates() {
        assert!(f16::from_f32(f32::NAN).is_nan());
        assert!(f16::NAN.to_f32().is_nan());
        assert!(f16::NAN.is_nan());
        assert!(!f16::INFINITY.is_nan());
        assert!(f16::INFINITY.is_infinite());
        assert!(!f16::MAX.is_infinite());
        assert!(f16::MAX.is_finite());
    }

    #[test]
    fn ordering_matches_f32_ordering() {
        let vals = [-65504.0f32, -1.5, -0.0, 0.0, 1.0e-7, 0.3, 1.0, 1.5, 65504.0];
        for &a in &vals {
            for &b in &vals {
                let (ha, hb) = (f16::from_f32(a), f16::from_f32(b));
                assert_eq!(
                    ha.partial_cmp(&hb),
                    ha.to_f32().partial_cmp(&hb.to_f32()),
                    "ordering mismatch for {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn abs_and_sign() {
        assert_eq!(f16::from_f32(-2.5).abs(), f16::from_f32(2.5));
        assert!(f16::from_f32(-2.5).is_sign_negative());
        assert!(!f16::from_f32(2.5).is_sign_negative());
        assert!(f16::NEG_ZERO.is_sign_negative());
    }

    #[test]
    fn from_f64_matches_from_f32_for_representables() {
        for i in -100..=100 {
            let x = i as f64 * 0.125;
            assert_eq!(
                f16::from_f64(x).to_bits(),
                f16::from_f32(x as f32).to_bits()
            );
        }
    }

    /// Whether `widen_slice`/`narrow_slice` take the F16C path on this host.
    fn hardware() -> bool {
        #[cfg(target_arch = "x86_64")]
        return f16c::detected();
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    /// Scalar, portable-slice and dispatched-slice narrowing all equal the
    /// oracle, bit for bit, on every input.
    fn assert_narrows_like_oracle(xs: &[f32]) {
        let mut portable = vec![f16::ZERO; xs.len()];
        let mut sliced = vec![f16::ZERO; xs.len()];
        narrow_portable(xs, &mut portable);
        narrow_slice(xs, &mut sliced);
        for (i, &x) in xs.iter().enumerate() {
            let (want, b) = (oracle::from_f32(x), x.to_bits());
            assert_eq!(f16::from_f32(x).0, want, "scalar, f32 {b:#010x}");
            assert_eq!(portable[i].0, want, "portable, f32 {b:#010x}");
            assert_eq!(
                sliced[i].0,
                want,
                "slice, F16C {}, f32 {b:#010x}",
                hardware()
            );
        }
    }

    #[test]
    fn every_half_widens_like_the_oracle_on_every_path() {
        let src: Vec<f16> = (0..=u16::MAX).map(f16).collect();
        let mut portable = vec![0.0f32; src.len()];
        let mut sliced = vec![0.0f32; src.len()];
        widen_portable(&src, &mut portable);
        widen_slice(&src, &mut sliced);
        let mut signalling = 0;
        for (i, &h) in src.iter().enumerate() {
            // The one deliberate difference from the oracle: NaNs come back
            // quiet (the oracle kept the 1,022 signalling ones signalling).
            let mut want = oracle::to_f32(h.0).to_bits();
            if h.is_nan() && want & 0x0040_0000 == 0 {
                want |= 0x0040_0000;
                signalling += 1;
            }
            assert_eq!(h.to_f32().to_bits(), want, "scalar, half {:#06x}", h.0);
            assert_eq!(portable[i].to_bits(), want, "portable, half {:#06x}", h.0);
            assert_eq!(
                sliced[i].to_bits(),
                want,
                "slice, F16C {}, half {:#06x}",
                hardware(),
                h.0
            );
        }
        assert_eq!(signalling, 2 * 511);
        // For example 0x7C01 widens like `vcvtph2ps` does.
        assert_eq!(f16(0x7C01).to_f32().to_bits(), 0x7FC0_2000);
    }

    #[test]
    fn narrowing_never_produces_a_signalling_nan() {
        for bits in [0x7F80_0001u32, 0x7F80_2000, 0x7FBF_FFFF, 0xFF80_0001] {
            let h = f16::from_f32(f32::from_bits(bits));
            assert!(
                h.is_nan() && h.0 & 0x0200 != 0,
                "{bits:#010x} -> {:#06x}",
                h.0
            );
        }
    }

    #[test]
    fn structured_narrowing_sweep_matches_oracle() {
        // Every sign x exponent x top-10 mantissa bits, with the dropped 13
        // bits in each rounding class: exact, just above, just below the
        // tie, the tie, just above it, all ones. Exponent 255 covers
        // infinity and the NaN payloads; exponent 0 the f32 subnormals.
        const LOW13: [u32; 6] = [0, 1, 0x0FFF, 0x1000, 0x1001, 0x1FFF];
        let mut xs = Vec::with_capacity(2 * 256 * 1024 * LOW13.len() + 7 * 2 * 8193);
        for sign in [0u32, 1] {
            for exp in 0..256u32 {
                for top10 in 0..1024u32 {
                    for low in LOW13 {
                        xs.push(f32::from_bits(sign << 31 | exp << 23 | top10 << 13 | low));
                    }
                }
            }
        }
        // Every f32 within 4096 ulps of the range boundaries: half the
        // smallest subnormal, the smallest subnormal and normal, the largest
        // finite, the overflow tie, 2^16 and infinity.
        let edges = [2f32.powi(-25), 2f32.powi(-24), 2f32.powi(-14)];
        for edge in edges
            .into_iter()
            .chain([65504.0, 65520.0, 65536.0, f32::INFINITY])
        {
            for bits in edge.to_bits() - 4096..=edge.to_bits() + 4096 {
                xs.extend([f32::from_bits(bits), f32::from_bits(bits | 0x8000_0000)]);
            }
        }
        assert_narrows_like_oracle(&xs);
    }

    #[test]
    #[ignore = "all 2^32 f32 inputs; run in release: cargo test --release -p igr-prec -- --ignored"]
    fn every_f32_narrows_like_the_oracle() {
        let mut xs = vec![0.0f32; 1 << 16];
        for hi in 0..=u32::from(u16::MAX) {
            for (lo, x) in (0u32..).zip(xs.iter_mut()) {
                *x = f32::from_bits(hi << 16 | lo);
            }
            assert_narrows_like_oracle(&xs);
        }
    }

    #[test]
    fn slice_forms_handle_every_tail_length_and_alignment() {
        // Spread over the whole bit space: normals, subnormals, NaNs, zeros.
        let halfs: Vec<f16> = (0..40u32).map(|i| f16((i * 1657) as u16)).collect();
        let floats: Vec<f32> = (0..40u32)
            .map(|i| f32::from_bits(i.wrapping_mul(0x1234_5679)))
            .collect();
        for start in 0..8 {
            for len in 0..=17 {
                let r = start..start + len;
                let mut wide = [-1.0f32; 40];
                widen_slice(&halfs[r.clone()], &mut wide[r.clone()]);
                let mut narrow = [f16(0xDEAD); 40];
                narrow_slice(&floats[r.clone()], &mut narrow[r.clone()]);
                for i in 0..40 {
                    let (w, n) = if r.contains(&i) {
                        (halfs[i].to_f32(), f16::from_f32(floats[i]))
                    } else {
                        (-1.0, f16(0xDEAD)) // outside the slice: untouched
                    };
                    assert_eq!(wide[i].to_bits(), w.to_bits(), "widen {r:?} at {i}");
                    assert_eq!(narrow[i], n, "narrow {r:?} at {i}");
                }
            }
        }
    }
}
