//! A learnable tensor with its gradient and Adam moment estimates.

use crate::adam::AdamHparams;
use pge_tensor::Matrix;

/// A parameter tensor plus everything training needs alongside it.
///
/// Keeping the gradient and the Adam first/second moments inline (at a
/// 4× memory cost that is irrelevant at this workspace's scales) means
/// the optimizer is a pair of methods rather than an external registry
/// keyed by parameter identity, and sparse row-wise updates for
/// embedding tables fall out naturally.
#[derive(Clone, Debug)]
pub struct Param {
    /// Current value.
    pub value: Matrix,
    /// Accumulated gradient (same shape as `value`).
    pub grad: Matrix,
    /// Adam first-moment estimate.
    m: Matrix,
    /// Adam second-moment estimate.
    v: Matrix,
}

impl Param {
    /// Wrap an initialized value tensor.
    pub fn new(value: Matrix) -> Self {
        let (r, c) = (value.rows(), value.cols());
        Param {
            value,
            grad: Matrix::zeros(r, c),
            m: Matrix::zeros(r, c),
            v: Matrix::zeros(r, c),
        }
    }

    /// Zero-initialized parameter (used for biases).
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Param::new(Matrix::zeros(rows, cols))
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.value.rows()
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.value.cols()
    }

    /// Reset the accumulated gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.fill_zero();
    }

    /// Fold an externally-accumulated gradient buffer (same shape as
    /// `value`) into this parameter's gradient. Used by data-parallel
    /// training, where each worker accumulates into its own buffer and
    /// the buffers are reduced here in a fixed order.
    pub fn accumulate_matrix(&mut self, g: &Matrix) {
        self.grad.add_assign(g);
    }

    /// Dense Adam step over the whole tensor, then clears the gradient.
    ///
    /// `t` is the 1-based global step count used for bias correction.
    pub fn adam_step(&mut self, hp: &AdamHparams, t: u64) {
        self.share().adam_step(hp, t);
    }

    /// Sparse ("lazy") Adam step over the listed rows only.
    ///
    /// Embedding tables touch a tiny fraction of their rows per batch;
    /// updating (and zeroing) just those rows keeps the step cost
    /// proportional to the batch, not the vocabulary. Rows may repeat;
    /// a repeated row is stepped once per occurrence, which is the
    /// standard lazy-Adam behaviour and harmless because its gradient
    /// is cleared by the first step.
    pub fn adam_step_rows(&mut self, rows: &[usize], hp: &AdamHparams, t: u64) {
        let cols = self.value.cols();
        self.share().adam_step_rows(rows, cols, hp, t);
    }

    /// The whole parameter as one [`ParamShare`].
    fn share(&mut self) -> ParamShare<'_> {
        ParamShare {
            offset: 0,
            value: self.value.as_mut_slice(),
            grad: self.grad.as_mut_slice(),
            m: self.m.as_mut_slice(),
            v: self.v.as_mut_slice(),
        }
    }

    /// Cut the parameter into consecutive element ranges, ending at
    /// each of `ends` in turn (ascending, the last one `rows · cols`),
    /// so that several workers can fold and step disjoint ranges of
    /// one parameter at once. A share updates its elements exactly as
    /// the whole-parameter methods do.
    pub(crate) fn shares(&mut self, ends: impl IntoIterator<Item = usize>) -> Vec<ParamShare<'_>> {
        let mut rest = (
            self.value.as_mut_slice(),
            self.grad.as_mut_slice(),
            self.m.as_mut_slice(),
            self.v.as_mut_slice(),
        );
        let mut offset = 0;
        let mut out = Vec::new();
        for end in ends {
            let len = end - offset;
            let (value, r0) = std::mem::take(&mut rest.0).split_at_mut(len);
            let (grad, r1) = std::mem::take(&mut rest.1).split_at_mut(len);
            let (m, r2) = std::mem::take(&mut rest.2).split_at_mut(len);
            let (v, r3) = std::mem::take(&mut rest.3).split_at_mut(len);
            rest = (r0, r1, r2, r3);
            out.push(ParamShare {
                offset,
                value,
                grad,
                m,
                v,
            });
            offset = end;
        }
        debug_assert!(rest.0.is_empty(), "the last bound must be the length");
        out
    }

    /// Borrow the Adam `(first, second)` moment estimates — read by
    /// trainer checkpointing, which must persist the full optimizer
    /// state for a resumed run to be bit-identical to an
    /// uninterrupted one.
    pub fn adam_state(&self) -> (&Matrix, &Matrix) {
        (&self.m, &self.v)
    }

    /// Mutable Adam `(first, second)` moments — written when restoring
    /// a trainer checkpoint.
    pub fn adam_state_mut(&mut self) -> (&mut Matrix, &mut Matrix) {
        (&mut self.m, &mut self.v)
    }
}

/// A contiguous element range of one [`Param`] — its values, gradient
/// and Adam moments — cut off by [`Param::shares`]. Shares of one
/// parameter are disjoint, so workers may update them concurrently.
#[derive(Debug)]
pub(crate) struct ParamShare<'a> {
    /// Offset of the range in the parameter's row-major elements.
    offset: usize,
    value: &'a mut [f32],
    grad: &'a mut [f32],
    m: &'a mut [f32],
    v: &'a mut [f32],
}

/// Adam's update of one element from its gradient `g`; `bc1`/`bc2` are
/// [`AdamHparams::bias_corrections`]. Every Adam step in this crate
/// runs this one function, so a split step has the bits of a whole one.
#[inline(always)]
fn adam_update(
    hp: &AdamHparams,
    (bc1, bc2): (f32, f32),
    g: f32,
    x: &mut f32,
    m: &mut f32,
    v: &mut f32,
) {
    *m = hp.beta1 * *m + (1.0 - hp.beta1) * g;
    *v = hp.beta2 * *v + (1.0 - hp.beta2) * g * g;
    let m_hat = *m / bc1;
    let v_hat = *v / bc2;
    *x -= hp.lr * m_hat / (v_hat.sqrt() + hp.eps);
}

impl ParamShare<'_> {
    /// [`Param::accumulate_matrix`] restricted to this range: add the
    /// range's elements of `g` (shaped like the whole parameter).
    pub(crate) fn accumulate(&mut self, g: &Matrix) {
        let src = &g.as_slice()[self.offset..self.offset + self.grad.len()];
        for (a, b) in self.grad.iter_mut().zip(src) {
            *a += b;
        }
    }

    /// Add `g` to table row `row` of a `cols`-wide parameter; the row
    /// must lie in this range.
    pub(crate) fn accumulate_row(&mut self, row: usize, cols: usize, g: &[f32]) {
        let lo = row * cols - self.offset;
        for (a, b) in self.grad[lo..lo + cols].iter_mut().zip(g) {
            *a += b;
        }
    }

    /// [`Param::adam_step`] restricted to this range.
    pub(crate) fn adam_step(&mut self, hp: &AdamHparams, t: u64) {
        let bc = hp.bias_corrections(t);
        for i in 0..self.value.len() {
            let g = self.grad[i];
            adam_update(
                hp,
                bc,
                g,
                &mut self.value[i],
                &mut self.m[i],
                &mut self.v[i],
            );
            self.grad[i] = 0.0;
        }
    }

    /// [`Param::adam_step_rows`] restricted to this range: `rows` are
    /// table rows of a `cols`-wide parameter, each inside the range.
    pub(crate) fn adam_step_rows(&mut self, rows: &[usize], cols: usize, hp: &AdamHparams, t: u64) {
        let bc = hp.bias_corrections(t);
        for &r in rows {
            let lo = r * cols - self.offset;
            for i in lo..lo + cols {
                let g = self.grad[i];
                if g == 0.0 && self.m[i] == 0.0 && self.v[i] == 0.0 {
                    continue;
                }
                adam_update(
                    hp,
                    bc,
                    g,
                    &mut self.value[i],
                    &mut self.m[i],
                    &mut self.v[i],
                );
                self.grad[i] = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hp(lr: f32) -> AdamHparams {
        AdamHparams {
            lr,
            ..AdamHparams::default()
        }
    }

    #[test]
    fn adam_moves_against_gradient() {
        let mut p = Param::new(Matrix::full(1, 2, 1.0));
        p.grad.as_mut_slice()[0] = 1.0; // positive grad → value decreases
        p.grad.as_mut_slice()[1] = -1.0; // negative grad → value increases
        p.adam_step(&hp(0.1), 1);
        assert!(p.value.as_slice()[0] < 1.0);
        assert!(p.value.as_slice()[1] > 1.0);
        // Gradient cleared after the step.
        assert_eq!(p.grad.as_slice(), &[0.0, 0.0]);
    }

    #[test]
    fn adam_first_step_size_is_lr() {
        // With bias correction, the very first Adam step has magnitude
        // ≈ lr regardless of gradient scale.
        for &g in &[1e-3f32, 1.0, 1e3] {
            let mut p = Param::new(Matrix::zeros(1, 1));
            p.grad.as_mut_slice()[0] = g;
            p.adam_step(&hp(0.01), 1);
            let step = p.value.as_slice()[0].abs();
            assert!((step - 0.01).abs() < 1e-3, "g={g} step={step}");
        }
    }

    #[test]
    fn sparse_step_touches_only_listed_rows() {
        let mut p = Param::new(Matrix::full(3, 2, 1.0));
        for x in p.grad.as_mut_slice() {
            *x = 1.0;
        }
        p.adam_step_rows(&[1], &hp(0.1), 1);
        assert_eq!(p.value.row(0), &[1.0, 1.0]);
        assert!(p.value.row(1)[0] < 1.0);
        assert_eq!(p.value.row(2), &[1.0, 1.0]);
        // Row 1's grad cleared, others kept.
        assert_eq!(p.grad.row(1), &[0.0, 0.0]);
        assert_eq!(p.grad.row(0), &[1.0, 1.0]);
    }

    #[test]
    fn sparse_step_handles_repeated_rows() {
        let mut p = Param::new(Matrix::full(2, 2, 1.0));
        for x in p.grad.as_mut_slice() {
            *x = 1.0;
        }
        let before = p.value.row(0).to_vec();
        p.adam_step_rows(&[0, 0], &hp(0.1), 1);
        // Second visit sees zero grad + nonzero moments; it still decays
        // the moments but must not blow up.
        assert!(p.value.row(0)[0] < before[0]);
        assert!(p.value.row(0)[0].is_finite());
    }

    #[test]
    fn adam_state_transplant_resumes_bit_identically() {
        // Copying value + moments into a fresh Param and continuing
        // training must match the original bit for bit — the invariant
        // trainer checkpoint/resume is built on.
        let h = hp(0.05);
        let mut a = Param::new(Matrix::full(1, 2, 1.0));
        a.grad.as_mut_slice().copy_from_slice(&[0.7, -1.3]);
        a.adam_step(&h, 1);
        let (m, v) = a.adam_state();
        assert!(m.as_slice().iter().any(|&x| x != 0.0));
        let mut b = Param::new(a.value.clone());
        {
            let (bm, bv) = b.adam_state_mut();
            *bm = m.clone();
            *bv = v.clone();
        }
        for t in 2..5 {
            a.grad.as_mut_slice().copy_from_slice(&[0.2, 0.4]);
            b.grad.as_mut_slice().copy_from_slice(&[0.2, 0.4]);
            a.adam_step(&h, t);
            b.adam_step(&h, t);
        }
        let bits =
            |p: &Param| -> Vec<u32> { p.value.as_slice().iter().map(|x| x.to_bits()).collect() };
        assert_eq!(bits(&a), bits(&b));
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // Minimize f(x) = (x-3)², a smoke test that the update rule is
        // actually Adam and not something sign-flipped.
        let mut p = Param::new(Matrix::zeros(1, 1));
        let h = hp(0.1);
        for t in 1..=500 {
            let x = p.value.as_slice()[0];
            p.grad.as_mut_slice()[0] = 2.0 * (x - 3.0);
            p.adam_step(&h, t);
        }
        assert!((p.value.as_slice()[0] - 3.0).abs() < 0.05);
    }
}
