//! Runtime-dispatched f32 compute kernels: a blocked scalar reference
//! and an explicit AVX2 `f32x8` implementation of the same arithmetic.
//!
//! Every kernel here exists in (up to) two forms that are **bit
//! identical** by construction:
//!
//! * the *scalar reference* — eight independent accumulators walked
//!   over full 8-wide blocks, combined by a fixed pairwise tree, then
//!   a sequential tail for the ragged remainder;
//! * the *SIMD path* — one `f32x8` vector accumulator doing the exact
//!   same per-lane multiply-then-add (no FMA: fused multiply-add
//!   rounds once where `mul` + `add` round twice, so using it would
//!   change bits), stored to lanes and reduced by the *same* tree and
//!   tail code.
//!
//! Both paths perform the same IEEE-754 operations in the same order,
//! so reductions agree to the last ulp — ±inf overflow, subnormals,
//! and signed zeros included. `pge-scan`'s shard CRCs and the
//! trainer's bit-identical-resume guarantee therefore survive kernel
//! switches: a model trained or a catalog scanned with `simd` is
//! byte-identical to `scalar`.
//!
//! One documented carve-out: when a result is NaN, both kernels agree
//! it is NaN (NaN-ness depends only on values and association, which
//! are identical), but the NaN *payload/sign bits* are unspecified —
//! LLVM may commute operands or constant-fold NaN-producing
//! expressions, so payload identity is unattainable even between two
//! builds of the scalar kernel alone. This cannot leak into durable
//! artifacts: scan shards and scores format floats as text ("NaN"
//! regardless of payload) before CRC-ing, and a NaN weight means a
//! diverged training run, which no determinism guarantee covers. The
//! CI-gated proptests in `tests/kernel_parity.rs` pin exactly this
//! contract.
//!
//! `tanh_inplace` is elementwise. Its scalar reference is
//! [`crate::math::tanh`], a port of fdlibm's `tanhf` that returns the
//! bits of glibc ≤ 2.40's `tanhf` and is within 2 ulp of the exact
//! tanh; the AVX2 path runs the port's operations on eight lanes at
//! once, and a vector with a lane outside 2⁻⁵⁵ ≤ |x| < 22 takes the
//! scalar port. The ignored release-mode tests in
//! `tests/kernel_parity.rs` check both claims over all 2³² inputs.
//!
//! Note the blocked reduction order is *not* the naive sequential sum
//! the pre-dispatch code used — switching to it changed low bits of
//! every dot product once, at the PR introducing this module. The
//! blocked order is now the documented reference.
//!
//! Selection: [`active_kernel`] picks SIMD when the host has AVX2,
//! overridable by the `PGE_KERNEL` environment variable
//! (`scalar` | `simd` | `auto`) or programmatically via
//! [`set_kernel`] (tests and the CLI use this). Requesting `simd` on
//! a host without AVX2 silently falls back to the scalar reference —
//! the results are identical either way, only the speed differs.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which kernel implementation backs the hot loops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Blocked scalar reference implementation.
    Scalar,
    /// Explicit `f32x8` AVX2 implementation.
    Simd,
}

impl Kernel {
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Simd => "simd",
        }
    }
}

/// Encoded selection: 0 = undecided, 1 = scalar, 2 = simd.
static KERNEL: AtomicU8 = AtomicU8::new(0);

/// True when this build/host can run the AVX2 path.
pub fn simd_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

fn encode(k: Kernel) -> u8 {
    match k {
        Kernel::Scalar => 1,
        Kernel::Simd => 2,
    }
}

/// Resolve a request against hardware support: `None` = auto.
fn resolve(want: Option<Kernel>) -> Kernel {
    match want {
        Some(Kernel::Scalar) => Kernel::Scalar,
        Some(Kernel::Simd) | None => {
            if simd_supported() {
                Kernel::Simd
            } else {
                Kernel::Scalar
            }
        }
    }
}

fn decide_from_env() -> Kernel {
    let want = match std::env::var("PGE_KERNEL").ok().as_deref() {
        Some("scalar") => Some(Kernel::Scalar),
        Some("simd") => Some(Kernel::Simd),
        _ => None,
    };
    resolve(want)
}

/// The kernel the dispatching entry points currently use.
#[inline]
pub fn active_kernel() -> Kernel {
    match KERNEL.load(Ordering::Relaxed) {
        1 => Kernel::Scalar,
        2 => Kernel::Simd,
        _ => {
            let k = decide_from_env();
            KERNEL.store(encode(k), Ordering::Relaxed);
            k
        }
    }
}

/// Force a kernel (`None` = return to auto-detection). Requesting
/// [`Kernel::Simd`] on a host without AVX2 falls back to scalar.
/// Process-global; safe to flip at any time because both kernels are
/// bit-identical.
pub fn set_kernel(want: Option<Kernel>) {
    let k = match want {
        None => decide_from_env(),
        some => resolve(some),
    };
    KERNEL.store(encode(k), Ordering::Relaxed);
}

/// Fixed lane-combine shared by every reduction kernel: pairwise tree
/// over the eight block accumulators, then the sequential tail sum.
/// Keeping this in exactly one place is what makes the scalar and
/// SIMD reductions bit-identical.
#[inline]
fn reduce_lanes(l: &[f32; 8]) -> f32 {
    ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7]))
}

// ---------------------------------------------------------------------------
// dot
// ---------------------------------------------------------------------------

/// Blocked scalar reference for [`dot`].
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let blocks = a.len() / 8;
    let mut acc = [0.0f32; 8];
    for i in 0..blocks {
        let ca = &a[i * 8..i * 8 + 8];
        let cb = &b[i * 8..i * 8 + 8];
        for j in 0..8 {
            acc[j] += ca[j] * cb[j];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in a[blocks * 8..].iter().zip(&b[blocks * 8..]) {
        tail += x * y;
    }
    reduce_lanes(&acc) + tail
}

/// AVX2 `f32x8` implementation of [`dot`]; falls back to the scalar
/// reference on hosts without AVX2 (results are identical either way).
pub fn dot_simd(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if simd_supported() {
        // SAFETY: AVX2 availability just confirmed.
        return unsafe { avx2::dot(a, b) };
    }
    dot_scalar(a, b)
}

/// Dot product dispatched to the active kernel.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    match active_kernel() {
        Kernel::Simd => dot_simd(a, b),
        Kernel::Scalar => dot_scalar(a, b),
    }
}

// ---------------------------------------------------------------------------
// gemv (out[r] = dot(w_row_r, x)) — the shared inner op of the conv
// pre-activation loop, `Linear::affine`, and `matmul_transposed`.
// Each output element is defined as exactly `dot(row, x)`, so the
// scalar reference *is* a loop of `dot_scalar` calls; the AVX2 path
// tiles rows eight at a time to load each `x` block once per tile
// instead of once per row, keeping every row's accumulation sequence
// identical to `dot_simd`.
// ---------------------------------------------------------------------------

/// Scalar reference for [`gemv`]: `w` is row-major `out.len()` rows
/// of `x.len()` columns.
pub fn gemv_scalar(w: &[f32], x: &[f32], out: &mut [f32]) {
    debug_assert_eq!(w.len(), x.len() * out.len());
    let len = x.len();
    for (r, o) in out.iter_mut().enumerate() {
        *o = dot_scalar(&w[r * len..(r + 1) * len], x);
    }
}

/// AVX2 implementation of [`gemv`]; scalar fallback without AVX2.
pub fn gemv_simd(w: &[f32], x: &[f32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd_supported() {
        // SAFETY: AVX2 availability just confirmed.
        unsafe { avx2::gemv(w, x, out) };
        return;
    }
    gemv_scalar(w, x, out)
}

/// Row-major matrix–vector product dispatched to the active kernel.
/// `out[r] == dot(w_row_r, x)` bit for bit.
#[inline]
pub fn gemv(w: &[f32], x: &[f32], out: &mut [f32]) {
    match active_kernel() {
        Kernel::Simd => gemv_simd(w, x, out),
        Kernel::Scalar => gemv_scalar(w, x, out),
    }
}

// ---------------------------------------------------------------------------
// conv_max_pool — a 1-d convolution with max-over-time pooling fused
// in: for filter f, the largest `dot(w_f, window_i) + bias[f]` over
// positions i, and the first i that attains it. Window i is the
// contiguous slice `x[i·stride .. i·stride + window]`. Each
// pre-activation is defined as exactly `gemv`'s row f, so the scalar
// reference is one `gemv_scalar` per window followed by `p > best`;
// the AVX2 path scores a tile of eight filters against each window
// and reduces the eight accumulators together (see `avx2::reduce8`).
// ---------------------------------------------------------------------------

/// Scalar reference for [`conv_max_pool`]: `w` is row-major
/// `best.len()` filters of `window` columns. A filter whose every
/// pre-activation is NaN (never `> best`) keeps `-inf` at position 0.
#[allow(clippy::too_many_arguments)]
pub fn conv_max_pool_scalar(
    w: &[f32],
    window: usize,
    x: &[f32],
    stride: usize,
    positions: usize,
    bias: &[f32],
    best: &mut [f32],
    arg: &mut [u32],
) {
    debug_assert_eq!(w.len(), window * best.len());
    debug_assert!(bias.len() == best.len() && arg.len() == best.len());
    best.fill(f32::NEG_INFINITY);
    arg.fill(0);
    for i in 0..positions {
        let win = &x[i * stride..i * stride + window];
        // `gemv_scalar(w, win, ·)` one row at a time, so no buffer.
        for f in 0..best.len() {
            let p = dot_scalar(&w[f * window..(f + 1) * window], win) + bias[f];
            if p > best[f] {
                best[f] = p;
                arg[f] = i as u32;
            }
        }
    }
}

/// AVX2 implementation of [`conv_max_pool`]; scalar fallback without
/// AVX2.
#[allow(clippy::too_many_arguments)]
pub fn conv_max_pool_simd(
    w: &[f32],
    window: usize,
    x: &[f32],
    stride: usize,
    positions: usize,
    bias: &[f32],
    best: &mut [f32],
    arg: &mut [u32],
) {
    #[cfg(target_arch = "x86_64")]
    if simd_supported() {
        // SAFETY: AVX2 availability just confirmed.
        unsafe { avx2::conv_max_pool(w, window, x, stride, positions, bias, best, arg) };
        return;
    }
    conv_max_pool_scalar(w, window, x, stride, positions, bias, best, arg)
}

/// Convolution + max-over-time pooling dispatched to the active
/// kernel: `best[f]` is the largest `dot(w_f, window_i) + bias[f]`
/// (bit for bit `gemv`'s row f plus the bias) and `arg[f]` the first
/// position attaining it.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn conv_max_pool(
    w: &[f32],
    window: usize,
    x: &[f32],
    stride: usize,
    positions: usize,
    bias: &[f32],
    best: &mut [f32],
    arg: &mut [u32],
) {
    match active_kernel() {
        Kernel::Simd => conv_max_pool_simd(w, window, x, stride, positions, bias, best, arg),
        Kernel::Scalar => conv_max_pool_scalar(w, window, x, stride, positions, bias, best, arg),
    }
}

// ---------------------------------------------------------------------------
// axpy (y += alpha * x) — elementwise, so both paths are trivially
// bit-identical; SIMD only changes speed.
// ---------------------------------------------------------------------------

/// Scalar reference for [`axpy`].
pub fn axpy_scalar(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// AVX2 implementation of [`axpy`]; scalar fallback without AVX2.
pub fn axpy_simd(alpha: f32, x: &[f32], y: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd_supported() {
        // SAFETY: AVX2 availability just confirmed.
        unsafe { avx2::axpy(alpha, x, y) };
        return;
    }
    axpy_scalar(alpha, x, y)
}

/// `y += alpha * x` dispatched to the active kernel.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    match active_kernel() {
        Kernel::Simd => axpy_simd(alpha, x, y),
        Kernel::Scalar => axpy_scalar(alpha, x, y),
    }
}

// ---------------------------------------------------------------------------
// tanh — elementwise like axpy. The scalar reference is
// `math::tanh`, the fdlibm port; the AVX2 path runs its operations on
// eight lanes at once (see `avx2::tanh8`).
// ---------------------------------------------------------------------------

/// Scalar reference for [`tanh_inplace`].
pub fn tanh_inplace_scalar(a: &mut [f32]) {
    a.iter_mut().for_each(|x| *x = crate::math::tanh(*x));
}

/// AVX2 implementation of [`tanh_inplace`]; scalar fallback without
/// AVX2.
pub fn tanh_inplace_simd(a: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd_supported() {
        // SAFETY: AVX2 availability just confirmed.
        unsafe { avx2::tanh_inplace(a) };
        return;
    }
    tanh_inplace_scalar(a)
}

/// `x = tanh(x)` elementwise, dispatched to the active kernel.
#[inline]
pub fn tanh_inplace(a: &mut [f32]) {
    match active_kernel() {
        Kernel::Simd => tanh_inplace_simd(a),
        Kernel::Scalar => tanh_inplace_scalar(a),
    }
}

// ---------------------------------------------------------------------------
// Fused scorer distance kernels. These back `pge-core`'s scoring
// functions on the bulk-scan/serve hot path; keeping them here lets
// one blocked reference define the bits for both kernels.
// ---------------------------------------------------------------------------

/// Blocked scalar reference for [`l1_dist3`].
pub fn l1_dist3_scalar(h: &[f32], r: &[f32], t: &[f32]) -> f32 {
    debug_assert_eq!(h.len(), r.len());
    debug_assert_eq!(h.len(), t.len());
    let blocks = h.len() / 8;
    let mut acc = [0.0f32; 8];
    for i in 0..blocks {
        let o = i * 8;
        for j in 0..8 {
            acc[j] += (h[o + j] + r[o + j] - t[o + j]).abs();
        }
    }
    let mut tail = 0.0f32;
    for i in blocks * 8..h.len() {
        tail += (h[i] + r[i] - t[i]).abs();
    }
    reduce_lanes(&acc) + tail
}

/// AVX2 implementation of [`l1_dist3`]; scalar fallback without AVX2.
pub fn l1_dist3_simd(h: &[f32], r: &[f32], t: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if simd_supported() {
        // SAFETY: AVX2 availability just confirmed.
        return unsafe { avx2::l1_dist3(h, r, t) };
    }
    l1_dist3_scalar(h, r, t)
}

/// `Σ |h + r − t|` — the TransE distance — dispatched.
#[inline]
pub fn l1_dist3(h: &[f32], r: &[f32], t: &[f32]) -> f32 {
    match active_kernel() {
        Kernel::Simd => l1_dist3_simd(h, r, t),
        Kernel::Scalar => l1_dist3_scalar(h, r, t),
    }
}

/// Blocked scalar reference for [`dot3`].
pub fn dot3_scalar(h: &[f32], r: &[f32], t: &[f32]) -> f32 {
    debug_assert_eq!(h.len(), r.len());
    debug_assert_eq!(h.len(), t.len());
    let blocks = h.len() / 8;
    let mut acc = [0.0f32; 8];
    for i in 0..blocks {
        let o = i * 8;
        for j in 0..8 {
            acc[j] += h[o + j] * r[o + j] * t[o + j];
        }
    }
    let mut tail = 0.0f32;
    for i in blocks * 8..h.len() {
        tail += h[i] * r[i] * t[i];
    }
    reduce_lanes(&acc) + tail
}

/// AVX2 implementation of [`dot3`]; scalar fallback without AVX2.
pub fn dot3_simd(h: &[f32], r: &[f32], t: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if simd_supported() {
        // SAFETY: AVX2 availability just confirmed.
        return unsafe { avx2::dot3(h, r, t) };
    }
    dot3_scalar(h, r, t)
}

/// `Σ h·r·t` — the DistMult score — dispatched.
#[inline]
pub fn dot3(h: &[f32], r: &[f32], t: &[f32]) -> f32 {
    match active_kernel() {
        Kernel::Simd => dot3_simd(h, r, t),
        Kernel::Scalar => dot3_scalar(h, r, t),
    }
}

/// Blocked scalar reference for [`rotate_dist`].
#[allow(clippy::too_many_arguments)]
pub fn rotate_dist_scalar(
    h_re: &[f32],
    h_im: &[f32],
    sin: &[f32],
    cos: &[f32],
    t_re: &[f32],
    t_im: &[f32],
    eps: f32,
) -> f32 {
    let m = h_re.len();
    debug_assert!([h_im.len(), sin.len(), cos.len(), t_re.len(), t_im.len()] == [m; 5]);
    let blocks = m / 8;
    let mut acc = [0.0f32; 8];
    for i in 0..blocks {
        let o = i * 8;
        for j in 0..8 {
            acc[j] += rotate_term(
                h_re[o + j],
                h_im[o + j],
                sin[o + j],
                cos[o + j],
                t_re[o + j],
                t_im[o + j],
                eps,
            );
        }
    }
    let mut tail = 0.0f32;
    for i in blocks * 8..m {
        tail += rotate_term(h_re[i], h_im[i], sin[i], cos[i], t_re[i], t_im[i], eps);
    }
    reduce_lanes(&acc) + tail
}

/// One complex-modulus term of the RotatE distance. `sqrt` is an
/// IEEE-exact operation, so the SIMD `sqrtps` matches this bit for
/// bit.
#[inline]
fn rotate_term(h_re: f32, h_im: f32, sin: f32, cos: f32, t_re: f32, t_im: f32, eps: f32) -> f32 {
    let dre = (h_re * cos - h_im * sin) - t_re;
    let dim = (h_re * sin + h_im * cos) - t_im;
    (dre * dre + dim * dim + eps).sqrt()
}

/// AVX2 implementation of [`rotate_dist`]; scalar fallback without
/// AVX2.
#[allow(clippy::too_many_arguments)]
pub fn rotate_dist_simd(
    h_re: &[f32],
    h_im: &[f32],
    sin: &[f32],
    cos: &[f32],
    t_re: &[f32],
    t_im: &[f32],
    eps: f32,
) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if simd_supported() {
        // SAFETY: AVX2 availability just confirmed.
        return unsafe { avx2::rotate_dist(h_re, h_im, sin, cos, t_re, t_im, eps) };
    }
    rotate_dist_scalar(h_re, h_im, sin, cos, t_re, t_im, eps)
}

/// `Σ ‖(h ∘ e^{iθ}) − t‖` over ℂ^m with the rotation given as
/// precomputed `sin`/`cos` arrays — the RotatE distance — dispatched.
#[allow(clippy::too_many_arguments)]
#[inline]
pub fn rotate_dist(
    h_re: &[f32],
    h_im: &[f32],
    sin: &[f32],
    cos: &[f32],
    t_re: &[f32],
    t_im: &[f32],
    eps: f32,
) -> f32 {
    match active_kernel() {
        Kernel::Simd => rotate_dist_simd(h_re, h_im, sin, cos, t_re, t_im, eps),
        Kernel::Scalar => rotate_dist_scalar(h_re, h_im, sin, cos, t_re, t_im, eps),
    }
}

// ---------------------------------------------------------------------------
// Resolve once per pass. A layer pass that runs many small primitives
// (the CNN encoder's backward is ~160 `axpy`s per text) is written
// once, generic over `Ops`, and `run` picks the kernel a single time.
// Under AVX2 the whole pass is compiled inside a `target_feature`
// function, so the primitives inline into it instead of being called
// through the per-call dispatch above. Either instantiation performs
// the same IEEE operations as the dispatched entry points.
// ---------------------------------------------------------------------------

/// A kernel's primitives, each bit-identical to the dispatched entry
/// point of the same name.
pub trait Ops: Copy {
    fn gemv(self, w: &[f32], x: &[f32], out: &mut [f32]);
    fn axpy(self, alpha: f32, x: &[f32], y: &mut [f32]);
    fn tanh_inplace(self, a: &mut [f32]);
    #[allow(clippy::too_many_arguments)]
    fn conv_max_pool(
        self,
        w: &[f32],
        window: usize,
        x: &[f32],
        stride: usize,
        positions: usize,
        bias: &[f32],
        best: &mut [f32],
        arg: &mut [u32],
    );
}

/// A computation generic over the kernel; see [`run`].
pub trait Pass {
    type Output;
    fn run<O: Ops>(self, ops: O) -> Self::Output;
}

/// The scalar references.
#[derive(Clone, Copy, Debug)]
struct ScalarOps;

impl Ops for ScalarOps {
    #[inline(always)]
    fn gemv(self, w: &[f32], x: &[f32], out: &mut [f32]) {
        gemv_scalar(w, x, out)
    }
    #[inline(always)]
    fn axpy(self, alpha: f32, x: &[f32], y: &mut [f32]) {
        axpy_scalar(alpha, x, y)
    }
    #[inline(always)]
    fn tanh_inplace(self, a: &mut [f32]) {
        tanh_inplace_scalar(a)
    }
    #[inline(always)]
    fn conv_max_pool(
        self,
        w: &[f32],
        window: usize,
        x: &[f32],
        stride: usize,
        positions: usize,
        bias: &[f32],
        best: &mut [f32],
        arg: &mut [u32],
    ) {
        conv_max_pool_scalar(w, window, x, stride, positions, bias, best, arg)
    }
}

/// The dispatched entry points themselves: the kernel is re-read on
/// every call. For code off the hot path that shares a generic body
/// with a pass run through [`run`].
#[derive(Clone, Copy, Debug)]
pub struct DispatchedOps;

impl Ops for DispatchedOps {
    #[inline]
    fn gemv(self, w: &[f32], x: &[f32], out: &mut [f32]) {
        gemv(w, x, out)
    }
    #[inline]
    fn axpy(self, alpha: f32, x: &[f32], y: &mut [f32]) {
        axpy(alpha, x, y)
    }
    #[inline]
    fn tanh_inplace(self, a: &mut [f32]) {
        tanh_inplace(a)
    }
    #[inline]
    fn conv_max_pool(
        self,
        w: &[f32],
        window: usize,
        x: &[f32],
        stride: usize,
        positions: usize,
        bias: &[f32],
        best: &mut [f32],
        arg: &mut [u32],
    ) {
        conv_max_pool(w, window, x, stride, positions, bias, best, arg)
    }
}

/// Run `pass` under the active kernel, chosen once.
#[inline]
pub fn run<P: Pass>(pass: P) -> P::Output {
    #[cfg(target_arch = "x86_64")]
    if active_kernel() == Kernel::Simd && simd_supported() {
        // SAFETY: AVX2 availability just confirmed.
        return unsafe { avx2::run(pass) };
    }
    pass.run(ScalarOps)
}

// ---------------------------------------------------------------------------
// AVX2 implementations
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::*;

    /// Reduce a vector accumulator exactly like the scalar reference:
    /// store to lanes, pairwise tree, sequential tail.
    #[inline]
    unsafe fn finish(acc: __m256, tail: f32) -> f32 {
        let mut lanes = [0.0f32; 8];
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
        super::reduce_lanes(&lanes) + tail
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn dot(a: &[f32], b: &[f32]) -> f32 {
        debug_assert_eq!(a.len(), b.len());
        let blocks = a.len() / 8;
        let (pa, pb) = (a.as_ptr(), b.as_ptr());
        let mut acc = _mm256_setzero_ps();
        for i in 0..blocks {
            let va = _mm256_loadu_ps(pa.add(i * 8));
            let vb = _mm256_loadu_ps(pb.add(i * 8));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(va, vb));
        }
        let mut tail = 0.0f32;
        for (x, y) in a[blocks * 8..].iter().zip(&b[blocks * 8..]) {
            tail += x * y;
        }
        finish(acc, tail)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn gemv(w: &[f32], x: &[f32], out: &mut [f32]) {
        debug_assert_eq!(w.len(), x.len() * out.len());
        let len = x.len();
        let blocks = len / 8;
        let px = x.as_ptr();
        let mut r = 0;
        // Eight rows per tile: eight accumulators plus the shared x
        // block fit the sixteen ymm registers with room to spare, and
        // each x block is loaded once per tile instead of once per
        // row. Within a row the mul/add chain is exactly `dot`'s.
        while r + 8 <= out.len() {
            let rows: [*const f32; 8] = std::array::from_fn(|k| w.as_ptr().add((r + k) * len));
            let mut acc = [_mm256_setzero_ps(); 8];
            for i in 0..blocks {
                let vx = _mm256_loadu_ps(px.add(i * 8));
                for k in 0..8 {
                    let vw = _mm256_loadu_ps(rows[k].add(i * 8));
                    acc[k] = _mm256_add_ps(acc[k], _mm256_mul_ps(vw, vx));
                }
            }
            for k in 0..8 {
                let row = &w[(r + k) * len..(r + k + 1) * len];
                let mut tail = 0.0f32;
                for (a, b) in row[blocks * 8..].iter().zip(&x[blocks * 8..]) {
                    tail += a * b;
                }
                out[r + k] = finish(acc[k], tail);
            }
            r += 8;
        }
        for k in r..out.len() {
            out[k] = dot(&w[k * len..(k + 1) * len], x);
        }
    }

    /// Lane k of the result is `reduce_lanes` of `acc[k]`'s lanes,
    /// bit for bit. `hadd` sums adjacent lane pairs, so two rounds of
    /// it transpose the tile while forming `(l0+l1)+(l2+l3)` and
    /// `(l4+l5)+(l6+l7)` for every filter, and the final vertical add
    /// joins those two halves — the tree's exact pairing. (`hadd`
    /// computes `l1+l0` where the tree has `l0+l1`; IEEE addition is
    /// commutative, NaN payloads aside, as for every kernel here.)
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn reduce8(acc: &[__m256; 8]) -> __m256 {
        let ab = _mm256_hadd_ps(acc[0], acc[1]);
        let cd = _mm256_hadd_ps(acc[2], acc[3]);
        let ef = _mm256_hadd_ps(acc[4], acc[5]);
        let gh = _mm256_hadd_ps(acc[6], acc[7]);
        // [a_lo b_lo c_lo d_lo | a_hi b_hi c_hi d_hi], likewise e..h.
        let abcd = _mm256_hadd_ps(ab, cd);
        let efgh = _mm256_hadd_ps(ef, gh);
        let lo = _mm256_permute2f128_ps::<0x20>(abcd, efgh);
        let hi = _mm256_permute2f128_ps::<0x31>(abcd, efgh);
        _mm256_add_ps(lo, hi)
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn conv_max_pool(
        w: &[f32],
        window: usize,
        x: &[f32],
        stride: usize,
        positions: usize,
        bias: &[f32],
        best: &mut [f32],
        arg: &mut [u32],
    ) {
        let nf = best.len();
        debug_assert_eq!(w.len(), window * nf);
        debug_assert!(bias.len() == nf && arg.len() == nf);
        debug_assert!(positions == 0 || (positions - 1) * stride + window <= x.len());
        let mut r = 0;
        // The tile needs whole 8-wide blocks: `finish`'s tail is then
        // empty and adds +0.0, which the tile adds too (it turns a
        // -0.0 sum into +0.0, exactly as `dot` does).
        if window.is_multiple_of(8) {
            let blocks = window / 8;
            let zero = _mm256_setzero_ps();
            while r + 8 <= nf {
                let rows: [*const f32; 8] =
                    std::array::from_fn(|k| w.as_ptr().add((r + k) * window));
                let vbias = _mm256_loadu_ps(bias.as_ptr().add(r));
                let mut vbest = _mm256_set1_ps(f32::NEG_INFINITY);
                let mut varg = _mm256_setzero_si256();
                for i in 0..positions {
                    let px = x.as_ptr().add(i * stride);
                    let mut acc = [zero; 8];
                    for b in 0..blocks {
                        let vx = _mm256_loadu_ps(px.add(b * 8));
                        for k in 0..8 {
                            let vw = _mm256_loadu_ps(rows[k].add(b * 8));
                            acc[k] = _mm256_add_ps(acc[k], _mm256_mul_ps(vw, vx));
                        }
                    }
                    let p = _mm256_add_ps(_mm256_add_ps(reduce8(&acc), zero), vbias);
                    // `p > best` is false for NaN on either side, as in
                    // the scalar compare; ties keep the earlier position.
                    let gt = _mm256_cmp_ps::<_CMP_GT_OQ>(p, vbest);
                    vbest = _mm256_blendv_ps(vbest, p, gt);
                    varg = _mm256_castps_si256(_mm256_blendv_ps(
                        _mm256_castsi256_ps(varg),
                        _mm256_castsi256_ps(_mm256_set1_epi32(i as i32)),
                        gt,
                    ));
                }
                _mm256_storeu_ps(best.as_mut_ptr().add(r), vbest);
                _mm256_storeu_si256(arg.as_mut_ptr().add(r) as *mut __m256i, varg);
                r += 8;
            }
        }
        // Leftover filters (and every filter of a ragged window): one
        // `dot` per window, the scalar reference's loop.
        for f in r..nf {
            let row = &w[f * window..(f + 1) * window];
            let (mut b, mut a) = (f32::NEG_INFINITY, 0u32);
            for i in 0..positions {
                let p = dot(row, &x[i * stride..i * stride + window]) + bias[f];
                if p > b {
                    b = p;
                    a = i as u32;
                }
            }
            best[f] = b;
            arg[f] = a;
        }
    }

    /// The AVX2 primitives. Only [`run`] constructs one, after the
    /// caller confirmed AVX2.
    #[derive(Clone, Copy)]
    struct SimdOps(());

    impl super::Ops for SimdOps {
        #[inline(always)]
        fn gemv(self, w: &[f32], x: &[f32], out: &mut [f32]) {
            // SAFETY: a `SimdOps` exists only inside `run`.
            unsafe { gemv(w, x, out) }
        }
        #[inline(always)]
        fn axpy(self, alpha: f32, x: &[f32], y: &mut [f32]) {
            // SAFETY: as above.
            unsafe { axpy(alpha, x, y) }
        }
        #[inline(always)]
        fn tanh_inplace(self, a: &mut [f32]) {
            // SAFETY: as above.
            unsafe { tanh_inplace(a) }
        }
        #[inline(always)]
        fn conv_max_pool(
            self,
            w: &[f32],
            window: usize,
            x: &[f32],
            stride: usize,
            positions: usize,
            bias: &[f32],
            best: &mut [f32],
            arg: &mut [u32],
        ) {
            // SAFETY: as above.
            unsafe { conv_max_pool(w, window, x, stride, positions, bias, best, arg) }
        }
    }

    /// Run `pass` with AVX2 primitives; the pass body is compiled
    /// with AVX2 enabled when it inlines here.
    #[target_feature(enable = "avx2")]
    pub unsafe fn run<P: super::Pass>(pass: P) -> P::Output {
        pass.run(SimdOps(()))
    }

    // `#[inline]` so a pass run through `run` can inline it across
    // the crate boundary; the per-call entry points still call it.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
        debug_assert_eq!(x.len(), y.len());
        let blocks = x.len() / 8;
        let va = _mm256_set1_ps(alpha);
        let px = x.as_ptr();
        let py = y.as_mut_ptr();
        for i in 0..blocks {
            let vx = _mm256_loadu_ps(px.add(i * 8));
            let vy = _mm256_loadu_ps(py.add(i * 8));
            _mm256_storeu_ps(py.add(i * 8), _mm256_add_ps(vy, _mm256_mul_ps(va, vx)));
        }
        for (yi, &xi) in y[blocks * 8..].iter_mut().zip(&x[blocks * 8..]) {
            *yi += alpha * xi;
        }
    }

    // `#[inline]` for the same reason as `axpy`.
    #[inline]
    #[target_feature(enable = "avx2")]
    pub unsafe fn tanh_inplace(a: &mut [f32]) {
        let mut blocks = a.chunks_exact_mut(8);
        for b in &mut blocks {
            match tanh8(_mm256_loadu_ps(b.as_ptr())) {
                Some(t) => _mm256_storeu_ps(b.as_mut_ptr(), t),
                None => super::tanh_inplace_scalar(b),
            }
        }
        super::tanh_inplace_scalar(blocks.into_remainder());
    }

    /// `math::tanh` on eight lanes, or `None` unless every lane has
    /// 2⁻⁵⁵ ≤ |x| < 22 (the caller then takes the scalar port). Each
    /// lane performs the port's IEEE operations in the port's order and
    /// its branches become blends. `expm1f`'s three reductions (`k = 0`,
    /// `k = -1`, general) are the general one with `t = k`, bit for
    /// bit: `x - (-1)·ln2_hi` is `x + ln2_hi`, and `t = 0` leaves `x`
    /// as it is with `c = 0`, so the shared `(x·(e − c) − c) − hxs` is
    /// the `k = 0` branch's `x·e − hxs`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tanh8(x: __m256) -> Option<__m256> {
        use crate::math::{INVLN2, LN2_HI, LN2_LO, Q1, Q2, Q3, Q4, Q5};
        let f = _mm256_set1_ps;
        let i = _mm256_set1_epi32;
        let sign = _mm256_castsi256_ps(i(i32::MIN));
        let ix = _mm256_and_si256(_mm256_castps_si256(x), i(0x7fff_ffff));
        let in_range = _mm256_and_si256(
            _mm256_cmpgt_epi32(ix, i(0x2400_0000 - 1)),
            _mm256_cmpgt_epi32(i(0x41b0_0000), ix),
        );
        if _mm256_movemask_ps(_mm256_castsi256_ps(in_range)) != 0xff {
            return None;
        }
        let ax = _mm256_castsi256_ps(ix);
        // |x| ≥ 1 takes expm1f(2|x|), else expm1f(-2|x|); the second
        // are exactly the lanes where the expm1f argument is negative.
        let big = _mm256_cmp_ps::<_CMP_GE_OQ>(ax, f(1.0));
        let a = _mm256_blendv_ps(_mm256_mul_ps(f(-2.0), ax), _mm256_mul_ps(f(2.0), ax), big);

        // expm1f(a): argument reduction.
        let ha = _mm256_and_si256(_mm256_castps_si256(a), i(0x7fff_ffff));
        let reduce = _mm256_cmpgt_epi32(ha, i(0x3eb1_7218));
        // |a| < 1.5·ln2 only for a < 0 here, whose k is -1.
        let near = _mm256_cmpgt_epi32(i(0x3f85_1592), ha);
        let half = _mm256_blendv_ps(f(-0.5), f(0.5), big);
        let kg = _mm256_cvttps_epi32(_mm256_add_ps(_mm256_mul_ps(f(INVLN2), a), half));
        let k = _mm256_and_si256(reduce, _mm256_blendv_epi8(kg, i(-1), near));
        let t = _mm256_cvtepi32_ps(k);
        let hi = _mm256_sub_ps(a, _mm256_mul_ps(t, f(LN2_HI)));
        let lo = _mm256_mul_ps(t, f(LN2_LO));
        let xr = _mm256_sub_ps(hi, lo);
        let c = _mm256_sub_ps(_mm256_sub_ps(hi, xr), lo);

        // Primary range.
        let hfx = _mm256_mul_ps(f(0.5), xr);
        let hxs = _mm256_mul_ps(xr, hfx);
        // r1 = 1 + hxs·(Q1 + hxs·(Q2 + hxs·(Q3 + hxs·(Q4 + hxs·Q5))))
        let mut r1 = f(Q5);
        for coef in [Q4, Q3, Q2, Q1, 1.0] {
            r1 = _mm256_add_ps(f(coef), _mm256_mul_ps(hxs, r1));
        }
        let t = _mm256_sub_ps(f(3.0), _mm256_mul_ps(r1, hfx));
        let e = _mm256_mul_ps(
            hxs,
            _mm256_div_ps(
                _mm256_sub_ps(r1, t),
                _mm256_sub_ps(f(6.0), _mm256_mul_ps(xr, t)),
            ),
        );
        let e = _mm256_sub_ps(
            _mm256_sub_ps(_mm256_mul_ps(xr, _mm256_sub_ps(e, c)), c),
            hxs,
        );
        let e_x = _mm256_sub_ps(e, xr);

        // One candidate per k-class; `scale` adds k to the exponent.
        let k23 = _mm256_slli_epi32::<23>(k);
        let scale = |y: __m256| _mm256_castsi256_ps(_mm256_add_epi32(_mm256_castps_si256(y), k23));
        let r_zero = _mm256_sub_ps(xr, e);
        let r_m1 = _mm256_sub_ps(_mm256_mul_ps(f(0.5), _mm256_sub_ps(xr, e)), f(0.5));
        let r_ext = _mm256_sub_ps(scale(_mm256_sub_ps(f(1.0), e_x)), f(1.0));
        let t_mid = _mm256_sub_epi32(i(0x3f80_0000), _mm256_srlv_epi32(i(0x0100_0000), k));
        let r_mid = scale(_mm256_sub_ps(_mm256_castsi256_ps(t_mid), e_x));
        let t_high = _mm256_castsi256_ps(_mm256_slli_epi32::<23>(_mm256_sub_epi32(i(0x7f), k)));
        let r_high = scale(_mm256_add_ps(
            _mm256_sub_ps(xr, _mm256_add_ps(e, t_high)),
            f(1.0),
        ));

        let lanes = |m: __m256i| _mm256_castsi256_ps(m);
        let ext = _mm256_or_si256(_mm256_cmpgt_epi32(i(-1), k), _mm256_cmpgt_epi32(k, i(56)));
        let mut em1 = _mm256_blendv_ps(r_high, r_mid, lanes(_mm256_cmpgt_epi32(i(23), k)));
        em1 = _mm256_blendv_ps(em1, r_ext, lanes(ext));
        em1 = _mm256_blendv_ps(em1, r_m1, lanes(_mm256_cmpeq_epi32(k, i(-1))));
        em1 = _mm256_blendv_ps(em1, r_zero, lanes(_mm256_cmpeq_epi32(k, i(0))));
        // |a| < 2⁻²⁵ returns a itself.
        em1 = _mm256_blendv_ps(em1, a, lanes(_mm256_cmpgt_epi32(i(0x3300_0000), ha)));

        // tanh: 1 - 2/(t+2) for |x| ≥ 1, -t/(t+2) below, sign of x.
        let d = _mm256_add_ps(em1, f(2.0));
        let num = _mm256_blendv_ps(_mm256_xor_ps(em1, sign), f(2.0), big);
        let qt = _mm256_div_ps(num, d);
        let z = _mm256_blendv_ps(qt, _mm256_sub_ps(f(1.0), qt), big);
        Some(_mm256_xor_ps(z, _mm256_and_ps(x, sign)))
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn l1_dist3(h: &[f32], r: &[f32], t: &[f32]) -> f32 {
        debug_assert_eq!(h.len(), r.len());
        debug_assert_eq!(h.len(), t.len());
        let blocks = h.len() / 8;
        let (ph, pr, pt) = (h.as_ptr(), r.as_ptr(), t.as_ptr());
        // |x| as a bit mask: clear the sign bit, exactly `f32::abs`.
        let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
        let mut acc = _mm256_setzero_ps();
        for i in 0..blocks {
            let vh = _mm256_loadu_ps(ph.add(i * 8));
            let vr = _mm256_loadu_ps(pr.add(i * 8));
            let vt = _mm256_loadu_ps(pt.add(i * 8));
            let d = _mm256_sub_ps(_mm256_add_ps(vh, vr), vt);
            acc = _mm256_add_ps(acc, _mm256_and_ps(d, abs_mask));
        }
        let mut tail = 0.0f32;
        for i in blocks * 8..h.len() {
            tail += (h[i] + r[i] - t[i]).abs();
        }
        finish(acc, tail)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn dot3(h: &[f32], r: &[f32], t: &[f32]) -> f32 {
        debug_assert_eq!(h.len(), r.len());
        debug_assert_eq!(h.len(), t.len());
        let blocks = h.len() / 8;
        let (ph, pr, pt) = (h.as_ptr(), r.as_ptr(), t.as_ptr());
        let mut acc = _mm256_setzero_ps();
        for i in 0..blocks {
            let vh = _mm256_loadu_ps(ph.add(i * 8));
            let vr = _mm256_loadu_ps(pr.add(i * 8));
            let vt = _mm256_loadu_ps(pt.add(i * 8));
            acc = _mm256_add_ps(acc, _mm256_mul_ps(_mm256_mul_ps(vh, vr), vt));
        }
        let mut tail = 0.0f32;
        for i in blocks * 8..h.len() {
            tail += h[i] * r[i] * t[i];
        }
        finish(acc, tail)
    }

    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn rotate_dist(
        h_re: &[f32],
        h_im: &[f32],
        sin: &[f32],
        cos: &[f32],
        t_re: &[f32],
        t_im: &[f32],
        eps: f32,
    ) -> f32 {
        let m = h_re.len();
        debug_assert!([h_im.len(), sin.len(), cos.len(), t_re.len(), t_im.len()] == [m; 5]);
        let blocks = m / 8;
        let veps = _mm256_set1_ps(eps);
        let mut acc = _mm256_setzero_ps();
        for i in 0..blocks {
            let o = i * 8;
            let vhre = _mm256_loadu_ps(h_re.as_ptr().add(o));
            let vhim = _mm256_loadu_ps(h_im.as_ptr().add(o));
            let vsin = _mm256_loadu_ps(sin.as_ptr().add(o));
            let vcos = _mm256_loadu_ps(cos.as_ptr().add(o));
            let vtre = _mm256_loadu_ps(t_re.as_ptr().add(o));
            let vtim = _mm256_loadu_ps(t_im.as_ptr().add(o));
            let dre = _mm256_sub_ps(
                _mm256_sub_ps(_mm256_mul_ps(vhre, vcos), _mm256_mul_ps(vhim, vsin)),
                vtre,
            );
            let dim = _mm256_sub_ps(
                _mm256_add_ps(_mm256_mul_ps(vhre, vsin), _mm256_mul_ps(vhim, vcos)),
                vtim,
            );
            let sq = _mm256_add_ps(
                _mm256_add_ps(_mm256_mul_ps(dre, dre), _mm256_mul_ps(dim, dim)),
                veps,
            );
            acc = _mm256_add_ps(acc, _mm256_sqrt_ps(sq));
        }
        let mut tail = 0.0f32;
        for i in blocks * 8..m {
            tail += super::rotate_term(h_re[i], h_im[i], sin[i], cos[i], t_re[i], t_im[i], eps);
        }
        finish(acc, tail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_override_round_trips() {
        let before = active_kernel();
        set_kernel(Some(Kernel::Scalar));
        assert_eq!(active_kernel(), Kernel::Scalar);
        if simd_supported() {
            set_kernel(Some(Kernel::Simd));
            assert_eq!(active_kernel(), Kernel::Simd);
        } else {
            set_kernel(Some(Kernel::Simd));
            assert_eq!(active_kernel(), Kernel::Scalar, "no AVX2: falls back");
        }
        set_kernel(Some(before));
        assert_eq!(active_kernel(), before);
    }

    #[test]
    fn dot_known_value_blocked_order() {
        // 10 elements: one full block + a 2-element tail.
        let a: Vec<f32> = (1..=10).map(|i| i as f32).collect();
        let s = dot_scalar(&a, &a);
        assert_eq!(s, 385.0);
        assert_eq!(dot(&a, &a), s);
    }

    #[test]
    fn empty_and_short_slices() {
        assert_eq!(dot_scalar(&[], &[]), 0.0);
        assert_eq!(dot_scalar(&[2.0], &[3.0]), 6.0);
        assert_eq!(l1_dist3_scalar(&[], &[], &[]), 0.0);
        let mut y = [1.0f32];
        axpy_scalar(2.0, &[3.0], &mut y);
        assert_eq!(y, [7.0]);
    }
}
