//! Bit-identity proofs for the scalar-reference vs AVX2 kernels.
//!
//! Every reduction kernel in `pge_tensor::kernels` exists as a blocked
//! scalar reference and an AVX2 `f32x8` path; the determinism story of
//! the whole workspace (bit-identical training resume, scan shard
//! CRCs) rests on the two producing the same bits. These proptests
//! sweep ragged lengths (non-multiples of 8, including 0 and < 8) and
//! adversarial values — NaN, ±inf, subnormals, huge magnitudes that
//! overflow to inf during accumulation — and compare via `to_bits`,
//! which also distinguishes NaN payloads and -0.0 from +0.0.
//!
//! On hosts without AVX2 the `_simd` entry points fall back to the
//! scalar reference, making these tests trivially green there; CI
//! x86-64 runners all have AVX2, so the real comparison runs in CI.

use pge_tensor::kernels;
use proptest::prelude::*;

/// An f32 strategy that heavily favors the values that break naive
/// float-reduction equivalence claims: ~1 in 5 draws is NaN, ±inf,
/// ±0.0, a subnormal, or a magnitude that overflows mid-accumulation.
fn weird_f32() -> impl Strategy<Value = f32> {
    const SPECIALS: [f32; 10] = [
        f32::NAN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        0.0,
        -0.0,
        f32::MIN_POSITIVE / 2.0, // subnormal
        f32::MAX,
        f32::MIN,
        1e30,
        -1e30,
    ];
    (0..5u32, 0..10usize, -1e3f32..1e3f32).prop_map(|(pick_special, which, normal)| {
        if pick_special == 0 {
            SPECIALS[which]
        } else {
            normal
        }
    })
}

/// Equal-length vectors across ragged sizes: 0, < 8, exact blocks,
/// blocks + tail.
fn vec_pair(max_len: usize) -> impl Strategy<Value = (Vec<f32>, Vec<f32>)> {
    (0..=max_len).prop_flat_map(|n| {
        (
            prop::collection::vec(weird_f32(), n),
            prop::collection::vec(weird_f32(), n),
        )
    })
}

fn vec_triple(max_len: usize) -> impl Strategy<Value = (Vec<f32>, Vec<f32>, Vec<f32>)> {
    (0..=max_len).prop_flat_map(|n| {
        (
            prop::collection::vec(weird_f32(), n),
            prop::collection::vec(weird_f32(), n),
            prop::collection::vec(weird_f32(), n),
        )
    })
}

/// Bit equality with the one documented carve-out: when a result is
/// NaN both kernels must agree it is NaN, but the payload/sign bits
/// are unspecified — LLVM reserves the right to commute operands and
/// constant-fold NaN-producing expressions, so payload identity is
/// unattainable even between two builds of the *scalar* kernel. All
/// durable artifacts (text-formatted scores, shard CRCs) render NaN
/// payload-invariantly, so determinism guarantees are unaffected.
fn assert_bits_eq(a: f32, b: f32, what: &str) {
    if a.is_nan() && b.is_nan() {
        return;
    }
    assert_eq!(
        a.to_bits(),
        b.to_bits(),
        "{what}: scalar {a:?} ({:#010x}) != simd {b:?} ({:#010x})",
        a.to_bits(),
        b.to_bits()
    );
}

proptest! {
    #[test]
    fn dot_scalar_simd_bit_identical((a, b) in vec_pair(67)) {
        assert_bits_eq(kernels::dot_scalar(&a, &b), kernels::dot_simd(&a, &b), "dot");
    }

    #[test]
    fn axpy_scalar_simd_bit_identical(alpha in weird_f32(), (x, y0) in vec_pair(67)) {
        let mut ys = y0.clone();
        let mut yv = y0;
        kernels::axpy_scalar(alpha, &x, &mut ys);
        kernels::axpy_simd(alpha, &x, &mut yv);
        for (i, (s, v)) in ys.iter().zip(&yv).enumerate() {
            assert_bits_eq(*s, *v, &format!("axpy[{i}]"));
        }
    }

    #[test]
    fn l1_dist3_scalar_simd_bit_identical((h, r, t) in vec_triple(67)) {
        assert_bits_eq(
            kernels::l1_dist3_scalar(&h, &r, &t),
            kernels::l1_dist3_simd(&h, &r, &t),
            "l1_dist3",
        );
    }

    #[test]
    fn dot3_scalar_simd_bit_identical((h, r, t) in vec_triple(67)) {
        assert_bits_eq(
            kernels::dot3_scalar(&h, &r, &t),
            kernels::dot3_simd(&h, &r, &t),
            "dot3",
        );
    }

    #[test]
    fn rotate_dist_scalar_simd_bit_identical(
        (h_re, h_im, t_re) in vec_triple(67),
        seed in 0..u64::MAX,
    ) {
        let m = h_re.len();
        // Phase angles and the tail vector derive deterministically
        // from the seed; sin/cos are precomputed exactly as the
        // scorer's prepared-relation path does.
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((s >> 33) as f32 / (1u64 << 31) as f32 - 0.5) * 8.0
        };
        let theta: Vec<f32> = (0..m).map(|_| next()).collect();
        let t_im: Vec<f32> = (0..m).map(|_| next()).collect();
        let (sin, cos): (Vec<f32>, Vec<f32>) = theta.iter().map(|x| x.sin_cos()).unzip();
        assert_bits_eq(
            kernels::rotate_dist_scalar(&h_re, &h_im, &sin, &cos, &t_re, &t_im, 1e-9),
            kernels::rotate_dist_simd(&h_re, &h_im, &sin, &cos, &t_re, &t_im, 1e-9),
            "rotate_dist",
        );
    }
}

/// One `conv_max_pool` case: window, stride and positions, then the
/// weights (one row per filter), the input and the bias.
type ConvCase = ((usize, usize, usize), (Vec<f32>, Vec<f32>, Vec<f32>));

/// Filters 1..=19 (two full 8-filter tiles plus ragged remainders),
/// windows 1..=67 (the tile needs a multiple of 8; the rest takes the
/// per-row path), positions 1..=24, strides up to the window.
fn conv_case<S: Strategy<Value = f32>>(
    value: impl Fn() -> S + Copy,
) -> impl Strategy<Value = ConvCase> {
    (1..=19usize, 1..=67usize, 1..=24usize).prop_flat_map(move |(rows, window, positions)| {
        (1..=window).prop_flat_map(move |stride| {
            (
                Just((window, stride, positions)),
                (
                    prop::collection::vec(value(), rows * window),
                    prop::collection::vec(value(), (positions - 1) * stride + window),
                    prop::collection::vec(value(), rows),
                ),
            )
        })
    })
}

fn check_conv_max_pool(((window, stride, positions), (w, x, bias)): ConvCase) {
    let rows = bias.len();
    let (mut best_s, mut arg_s) = (vec![0.0; rows], vec![0; rows]);
    let (mut best_v, mut arg_v) = (vec![0.0; rows], vec![0; rows]);
    kernels::conv_max_pool_scalar(
        &w,
        window,
        &x,
        stride,
        positions,
        &bias,
        &mut best_s,
        &mut arg_s,
    );
    kernels::conv_max_pool_simd(
        &w,
        window,
        &x,
        stride,
        positions,
        &bias,
        &mut best_v,
        &mut arg_v,
    );
    for f in 0..rows {
        assert_bits_eq(best_s[f], best_v[f], &format!("conv_max_pool best[{f}]"));
    }
    assert_eq!(arg_s, arg_v, "conv_max_pool argmax");
}

proptest! {
    // Only windows that are a multiple of 8 with ≥ 8 filters reach the
    // tile (~1 case in 13), so run enough cases to cover it well.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn conv_max_pool_scalar_simd_bit_identical(case in conv_case(weird_f32)) {
        check_conv_max_pool(case);
    }

    /// With ~1 special value in 5, nearly every window's dot is inf or
    /// NaN; finite inputs exercise the running max and argmax proper.
    #[test]
    fn conv_max_pool_finite_scalar_simd_bit_identical(case in conv_case(|| -1e3f32..1e3f32)) {
        check_conv_max_pool(case);
    }
}

/// Identical windows tie at every position: both kernels keep the
/// first, in the tile and in the per-row remainder.
#[test]
fn conv_max_pool_ties_keep_the_first_position() {
    let (rows, window, positions) = (11, 16, 5);
    let w: Vec<f32> = (0..rows * window).map(|i| (i as f32 * 0.7).sin()).collect();
    let x: Vec<f32> = (0..window).map(|i| (i as f32 * 0.3).cos()).collect();
    let x = x.repeat(positions);
    let bias = vec![0.25; rows];
    let (mut best, mut arg) = (vec![0.0; rows], vec![9; rows]);
    kernels::conv_max_pool_simd(
        &w, window, &x, window, positions, &bias, &mut best, &mut arg,
    );
    assert_eq!(arg, vec![0; rows]);
    check_conv_max_pool(((window, window, positions), (w, x, bias)));
}

/// The dispatching entry points agree with both per-kernel paths
/// regardless of which kernel is globally active — flipping the
/// override must never change results.
#[test]
fn dispatch_is_kernel_invariant() {
    let a: Vec<f32> = (0..37).map(|i| (i as f32 * 0.37).sin()).collect();
    let b: Vec<f32> = (0..37).map(|i| (i as f32 * 0.61).cos()).collect();
    let reference = kernels::dot_scalar(&a, &b);
    for want in [kernels::Kernel::Scalar, kernels::Kernel::Simd] {
        kernels::set_kernel(Some(want));
        assert_eq!(kernels::dot(&a, &b).to_bits(), reference.to_bits());
    }
    kernels::set_kernel(None);
}
