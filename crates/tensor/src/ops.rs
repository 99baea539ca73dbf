//! Elementwise kernels, activations, and reductions over `f32` slices.
//!
//! These free functions are the numerical vocabulary of the neural
//! layers: everything takes plain slices so callers can apply them to
//! matrix rows, whole buffers, or scratch vectors without copies.

/// Dot product of two equal-length slices.
///
/// Dispatched to the active compute kernel (blocked scalar reference
/// or AVX2 `f32x8`); both produce bit-identical results — see
/// [`crate::kernels`].
///
/// # Panics
/// Panics if lengths differ (debug) — callers guarantee shapes.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    crate::kernels::dot(a, b)
}

/// `y += alpha * x` over slices; dispatched like [`dot`].
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    crate::kernels::axpy(alpha, x, y)
}

/// L1 norm.
pub fn l1_norm(a: &[f32]) -> f32 {
    a.iter().map(|x| x.abs()).sum()
}

/// L2 norm.
pub fn l2_norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Normalize `a` to unit L2 norm in place; leaves zero vectors alone.
pub fn l2_normalize(a: &mut [f32]) {
    let n = l2_norm(a);
    if n > 1e-12 {
        let inv = 1.0 / n;
        a.iter_mut().for_each(|x| *x *= inv);
    }
}

/// Cosine similarity in [-1, 1]; 0 when either vector is ~zero.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = l2_norm(a);
    let nb = l2_norm(b);
    if na < 1e-12 || nb < 1e-12 {
        0.0
    } else {
        (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
    }
}

/// Numerically stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        let e = (-x).exp();
        1.0 / (1.0 + e)
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable `log(sigmoid(x))`.
///
/// For large negative `x`, `sigmoid(x)` underflows to 0 and its log to
/// `-inf`; the identity `log σ(x) = x - log(1 + e^x) = min(x,0) -
/// log(1+e^{-|x|})` avoids that.
#[inline]
pub fn log_sigmoid(x: f32) -> f32 {
    x.min(0.0) - (-x.abs()).exp().ln_1p()
}

/// Hyperbolic tangent ([`crate::math::tanh`]) applied in place;
/// dispatched like [`dot`].
#[inline]
pub fn tanh_inplace(a: &mut [f32]) {
    crate::kernels::tanh_inplace(a)
}

/// Derivative of tanh given the *activated* value `t = tanh(x)`.
#[inline]
pub fn tanh_deriv_from_output(t: f32) -> f32 {
    1.0 - t * t
}

/// ReLU applied in place.
pub fn relu_inplace(a: &mut [f32]) {
    a.iter_mut().for_each(|x| *x = x.max(0.0));
}

/// Stable in-place softmax over a slice; no-op for an empty slice.
pub fn softmax_inplace(a: &mut [f32]) {
    if a.is_empty() {
        return;
    }
    let m = a.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in a.iter_mut() {
        *x = (*x - m).exp();
        sum += *x;
    }
    let inv = 1.0 / sum;
    a.iter_mut().for_each(|x| *x *= inv);
}

/// Index and value of the maximum element.
///
/// # Panics
/// Panics on an empty slice.
pub fn argmax(a: &[f32]) -> (usize, f32) {
    assert!(!a.is_empty(), "argmax of empty slice");
    let mut bi = 0;
    let mut bv = a[0];
    for (i, &v) in a.iter().enumerate().skip(1) {
        if v > bv {
            bv = v;
            bi = i;
        }
    }
    (bi, bv)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(a: &[f32]) -> f32 {
    if a.is_empty() {
        0.0
    } else {
        a.iter().sum::<f32>() / a.len() as f32
    }
}

/// Population variance (0 for an empty slice).
pub fn variance(a: &[f32]) -> f32 {
    if a.is_empty() {
        return 0.0;
    }
    let m = mean(a);
    a.iter().map(|x| (x - m) * (x - m)).sum::<f32>() / a.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn dot_and_axpy() {
        let a = [1.0, 2.0, 3.0];
        let mut y = [1.0, 1.0, 1.0];
        assert!(close(dot(&a, &a), 14.0));
        axpy(2.0, &a, &mut y);
        assert_eq!(y, [3.0, 5.0, 7.0]);
    }

    #[test]
    fn norms_and_normalize() {
        let mut v = [3.0, 4.0];
        assert!(close(l1_norm(&v), 7.0));
        assert!(close(l2_norm(&v), 5.0));
        l2_normalize(&mut v);
        assert!(close(l2_norm(&v), 1.0));
        let mut z = [0.0, 0.0];
        l2_normalize(&mut z);
        assert_eq!(z, [0.0, 0.0]);
    }

    #[test]
    fn cosine_basics() {
        assert!(close(cosine(&[1.0, 0.0], &[1.0, 0.0]), 1.0));
        assert!(close(cosine(&[1.0, 0.0], &[0.0, 1.0]), 0.0));
        assert!(close(cosine(&[1.0, 0.0], &[-1.0, 0.0]), -1.0));
        assert_eq!(cosine(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
    }

    #[test]
    fn sigmoid_symmetry_and_extremes() {
        assert!(close(sigmoid(0.0), 0.5));
        assert!(close(sigmoid(3.0) + sigmoid(-3.0), 1.0));
        assert!(sigmoid(100.0) <= 1.0 && sigmoid(100.0) > 0.999);
        assert!(sigmoid(-100.0) >= 0.0 && sigmoid(-100.0) < 1e-3);
    }

    #[test]
    fn log_sigmoid_is_stable_and_consistent() {
        for &x in &[-80.0f32, -5.0, -0.5, 0.0, 0.5, 5.0, 80.0] {
            let ls = log_sigmoid(x);
            assert!(ls.is_finite(), "log_sigmoid({x}) not finite");
            if x.abs() < 20.0 {
                assert!(close(ls, sigmoid(x).ln()), "x={x}");
            }
        }
        // σ(-80) underflows but logσ must stay ≈ -80.
        assert!(close(log_sigmoid(-80.0), -80.0));
    }

    #[test]
    fn softmax_sums_to_one_and_is_shift_invariant() {
        let mut a = [1.0, 2.0, 3.0];
        let mut b = [1001.0, 1002.0, 1003.0];
        softmax_inplace(&mut a);
        softmax_inplace(&mut b);
        assert!(close(a.iter().sum::<f32>(), 1.0));
        for (x, y) in a.iter().zip(&b) {
            assert!(close(*x, *y));
        }
        assert!(a[2] > a[1] && a[1] > a[0]);
    }

    #[test]
    fn softmax_empty_is_noop() {
        let mut e: [f32; 0] = [];
        softmax_inplace(&mut e);
    }

    #[test]
    fn argmax_picks_first_max() {
        assert_eq!(argmax(&[1.0, 5.0, 5.0, 2.0]), (1, 5.0));
        assert_eq!(argmax(&[-3.0]), (0, -3.0));
    }

    #[test]
    fn mean_variance() {
        assert!(close(mean(&[1.0, 2.0, 3.0]), 2.0));
        assert!(close(variance(&[1.0, 2.0, 3.0]), 2.0 / 3.0));
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
    }

    #[test]
    fn activations_inplace() {
        let mut a = [-1.0, 0.0, 2.0];
        relu_inplace(&mut a);
        assert_eq!(a, [0.0, 0.0, 2.0]);
        let mut t = [0.0f32];
        tanh_inplace(&mut t);
        assert_eq!(t, [0.0]);
        assert!(close(tanh_deriv_from_output(0.0), 1.0));
    }
}
