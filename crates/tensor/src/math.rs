//! Transcendental functions owned by this crate, so that the bits a
//! model computes do not depend on the platform's libm.
//!
//! [`tanh`] is a port of fdlibm's `s_tanhf.c` and the part of
//! `s_expm1f.c` it reaches, as glibc ships them in
//! `sysdeps/ieee754/flt-32` up to glibc 2.40. It keeps fdlibm's
//! constants and operation order in plain `f32` arithmetic (Rust never
//! contracts `a * b + c` into a fused multiply-add) and truncates with
//! `as i32` where the C code converts, so it returns glibc 2.36's
//! `tanhf` bits on every f32 input, within 2 ulp of the exact tanh.
//! The AVX2 kernel (`kernels::tanh_inplace_simd`) performs the same
//! operations lane by lane and returns the same bits.

// fdlibm's `expm1f` constants by their bits, shared with the AVX2
// kernel.
pub(crate) const LN2_HI: f32 = f32::from_bits(0x3f31_7180); // 6.9313812256e-01
pub(crate) const LN2_LO: f32 = f32::from_bits(0x3717_f7d1); // 9.0580006145e-06
pub(crate) const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b); // 1.4426950216e+00
pub(crate) const Q1: f32 = f32::from_bits(0xbd08_8889); // -3.3333335072e-02
pub(crate) const Q2: f32 = f32::from_bits(0x3ad0_0d01); // 1.5873016091e-03
pub(crate) const Q3: f32 = f32::from_bits(0xb8a6_70cd); // -7.9365076090e-05
pub(crate) const Q4: f32 = f32::from_bits(0x3686_7e54); // 4.0082177293e-06
pub(crate) const Q5: f32 = f32::from_bits(0xb457_edbb); // -2.0109921195e-07

/// `expm1f` for the arguments [`tanh`] passes: `-2|x|` with
/// `2⁻⁵⁵ ≤ |x| < 1`, or `2|x|` with `1 ≤ |x| < 22`. fdlibm's filters
/// for non-finite, overflowing and `x < -27·ln2` arguments and its
/// `k == 1` and `k == 128` cases are unreachable there and left out.
fn expm1f(mut x: f32) -> f32 {
    debug_assert!(x > -2.0 && x < 44.0, "expm1f({x}) outside tanh's range");

    let hx = x.to_bits() & 0x7fff_ffff;
    let k: i32;
    let mut c = 0.0f32;
    // Argument reduction: x = k·ln2 + r with |r| ≤ 0.5·ln2.
    if hx > 0x3eb1_7218 {
        // |x| > 0.5·ln2
        let (hi, lo);
        if hx < 0x3f85_1592 {
            // and |x| < 1.5·ln2: only x < 0 comes here from tanh
            (hi, lo, k) = (x + LN2_HI, -LN2_LO, -1);
        } else {
            k = (INVLN2 * x + if x < 0.0 { -0.5 } else { 0.5 }) as i32;
            let t = k as f32;
            hi = x - t * LN2_HI; // t·ln2_hi is exact here
            lo = t * LN2_LO;
        }
        x = hi - lo;
        c = (hi - x) - lo;
    } else if hx < 0x3300_0000 {
        // |x| < 2⁻²⁵
        return x;
    } else {
        k = 0;
    }

    // x is now in the primary range.
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let mut e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs); // c is 0
    }
    e = x * (e - c) - c;
    e -= hxs;
    if k == -1 {
        return 0.5 * (x - e) - 0.5;
    }
    // `k << 23` adds k to the exponent of a y near 1.
    let scale = |y: f32| f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32);
    if k <= -2 || k > 56 {
        // exp(x) - 1 is exp(x) to within rounding
        scale(1.0 - (e - x)) - 1.0
    } else if k < 23 {
        let t = f32::from_bits((0x3f80_0000 - (0x0100_0000 >> k)) as u32); // 1 - 2⁻ᵏ
        scale(t - (e - x))
    } else {
        let t = f32::from_bits(((0x7f - k) << 23) as u32); // 2⁻ᵏ
        scale(x - (e + t) + 1.0)
    }
}

/// Hyperbolic tangent, bit-identical to glibc ≤ 2.40's `tanhf` (see
/// the module doc). NaN in, NaN out, with an unspecified payload.
pub fn tanh(x: f32) -> f32 {
    if x.is_nan() {
        return x; // fdlibm's 1/x ± 1; ±inf joins |x| ≥ 22 below
    }
    let ix = x.to_bits() & 0x7fff_ffff;
    let z = if ix < 0x41b0_0000 {
        // |x| < 22
        if ix < 0x2400_0000 {
            // |x| < 2⁻⁵⁵, ±0 included: fdlibm's x·(1 + x), which is x
            return x;
        }
        if ix >= 0x3f80_0000 {
            // |x| ≥ 1
            let t = expm1f(2.0 * x.abs());
            1.0 - 2.0 / (t + 2.0)
        } else {
            let t = expm1f(-2.0 * x.abs());
            -t / (t + 2.0)
        }
    } else {
        // |x| ≥ 22: fdlibm's `one - tiny`, which rounds to 1
        1.0
    };
    if x.is_sign_negative() {
        -z
    } else {
        z
    }
}
