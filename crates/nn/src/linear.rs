//! Fully-connected layer `y = act(W·x + b)`.

use crate::adam::AdamHparams;
use crate::param::Param;
use pge_tensor::kernels::{DispatchedOps, Ops};
use pge_tensor::{init, ops, Matrix};
use rand::Rng;

/// Pointwise nonlinearity applied after the affine transform.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Activation {
    /// Identity.
    None,
    /// Hyperbolic tangent — the paper's choice for the projection from
    /// text representation to final entity embedding.
    Tanh,
    /// Rectified linear unit — used inside transformer FFN blocks.
    Relu,
}

impl Activation {
    #[inline(always)]
    fn apply<O: Ops>(self, kern: O, y: &mut [f32]) {
        match self {
            Activation::None => {}
            Activation::Tanh => kern.tanh_inplace(y),
            Activation::Relu => ops::relu_inplace(y),
        }
    }

    /// Multiply `grad` by the activation derivative, expressed in
    /// terms of the *activated output* `y`.
    #[inline]
    fn backprop(self, y: &[f32], grad: &mut [f32]) {
        match self {
            Activation::None => {}
            Activation::Tanh => {
                for (g, &o) in grad.iter_mut().zip(y) {
                    *g *= ops::tanh_deriv_from_output(o);
                }
            }
            Activation::Relu => {
                for (g, &o) in grad.iter_mut().zip(y) {
                    if o <= 0.0 {
                        *g = 0.0;
                    }
                }
            }
        }
    }
}

/// Cache produced by [`Linear::forward`]: the input and the activated
/// output, both needed by the backward pass.
#[derive(Clone, Debug)]
pub struct LinearCache {
    x: Vec<f32>,
    y: Vec<f32>,
}

/// A dense layer with weight `W: out×in`, bias `b: out`, and an
/// optional activation.
#[derive(Clone, Debug)]
pub struct Linear {
    pub(crate) w: Param,
    pub(crate) b: Param,
    pub(crate) act: Activation,
}

impl Linear {
    /// Xavier-initialized layer.
    pub fn new<R: Rng>(rng: &mut R, input: usize, output: usize, act: Activation) -> Self {
        Linear {
            w: Param::new(init::xavier_uniform(rng, output, input)),
            b: Param::zeros(1, output),
            act,
        }
    }

    #[inline]
    pub fn input_dim(&self) -> usize {
        self.w.cols()
    }

    #[inline]
    pub fn output_dim(&self) -> usize {
        self.w.rows()
    }

    /// Inference-only forward pass: no cache, `&self`.
    pub fn infer(&self, x: &[f32]) -> Vec<f32> {
        let mut y = vec![0.0f32; self.output_dim()];
        self.infer_with(DispatchedOps, x, &mut y);
        y
    }

    /// [`Linear::infer`] into a caller-owned `y`, on kernel `kern`.
    #[inline(always)]
    pub(crate) fn infer_with<O: Ops>(&self, kern: O, x: &[f32], y: &mut [f32]) {
        debug_assert_eq!(x.len(), self.input_dim());
        // One gemv over all output rows; `b[o] + dot(row_o, x)` is
        // bit-identical to the previous per-row `y[o] += dot(...)`.
        kern.gemv(self.w.value.as_slice(), x, y);
        for (yo, &bo) in y.iter_mut().zip(self.b.value.as_slice()) {
            // `bo + dot` keeps the historical operand order; only the
            // NaN-payload carve-out distinguishes it from `+=`.
            #[allow(clippy::assign_op_pattern)]
            {
                *yo = bo + *yo;
            }
        }
        self.act.apply(kern, y);
    }

    /// Training forward pass returning the output and a backward cache.
    pub fn forward(&self, x: &[f32]) -> (Vec<f32>, LinearCache) {
        let y = self.infer(x);
        (y.clone(), LinearCache { x: x.to_vec(), y })
    }

    /// Accumulate parameter gradients and return the input gradient.
    ///
    /// `grad_out` is dL/dy (post-activation).
    pub fn backward(&mut self, cache: &LinearCache, grad_out: &[f32]) -> Vec<f32> {
        let Linear { w, b, act } = self;
        let mut g = vec![0.0; grad_out.len()];
        let mut dx = vec![0.0; w.cols()];
        backward_with(
            DispatchedOps,
            &w.value,
            *act,
            &cache.x,
            &cache.y,
            grad_out,
            &mut w.grad,
            b.grad.as_mut_slice(),
            &mut g,
            &mut dx,
        );
        dx
    }

    /// [`Linear::backward`] with `&self`, accumulating into external
    /// buffers `dw`/`db` (same shapes as the weight and bias) instead
    /// of the inline parameter gradients — lets several workers run
    /// backward passes concurrently against one shared layer.
    pub fn backward_into(
        &self,
        cache: &LinearCache,
        grad_out: &[f32],
        dw: &mut Matrix,
        db: &mut Matrix,
    ) -> Vec<f32> {
        let mut g = vec![0.0; grad_out.len()];
        let mut dx = vec![0.0; self.input_dim()];
        backward_with(
            DispatchedOps,
            &self.w.value,
            self.act,
            &cache.x,
            &cache.y,
            grad_out,
            dw,
            db.as_mut_slice(),
            &mut g,
            &mut dx,
        );
        dx
    }

    /// Fold external gradient buffers (from [`Linear::backward_into`])
    /// into the inline parameter gradients, clearing the buffers.
    pub fn apply_grads(&mut self, dw: &mut Matrix, db: &mut Matrix) {
        self.w.accumulate_matrix(dw);
        self.b.accumulate_matrix(db);
        dw.fill_zero();
        db.fill_zero();
    }

    /// Zeroed gradient buffers shaped for [`Linear::backward_into`].
    pub fn grad_buffer(&self) -> (Matrix, Matrix) {
        (
            Matrix::zeros(self.w.rows(), self.w.cols()),
            Matrix::zeros(self.b.rows(), self.b.cols()),
        )
    }

    /// Dense Adam step for both parameters.
    pub fn adam_step(&mut self, hp: &AdamHparams, t: u64) {
        self.w.adam_step(hp, t);
        self.b.adam_step(hp, t);
    }

    pub fn zero_grad(&mut self) {
        self.w.zero_grad();
        self.b.zero_grad();
    }

    /// Raw parameter access (weight then bias).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }
}

/// Shared backward kernel: reads the weight value, accumulates into
/// whichever gradient storage the caller supplies (inline `Param.grad`
/// or an external per-worker buffer), and overwrites `dx` with dL/dx.
/// `x` and `y` are the forward input and activated output; `g` is
/// scratch of the output width.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
pub(crate) fn backward_with<O: Ops>(
    kern: O,
    w_value: &Matrix,
    act: Activation,
    x: &[f32],
    y: &[f32],
    grad_out: &[f32],
    dw: &mut Matrix,
    db: &mut [f32],
    g: &mut [f32],
    dx: &mut [f32],
) {
    debug_assert_eq!(grad_out.len(), w_value.rows());
    g.copy_from_slice(grad_out);
    act.backprop(y, g);
    // db += g ; dW[o] += g[o] * x ; dx += Σ_o g[o] * W[o]
    kern.axpy(1.0, g, db);
    dx.fill(0.0);
    for (o, &go) in g.iter().enumerate() {
        if go == 0.0 {
            continue;
        }
        kern.axpy(go, x, dw.row_mut(o));
        kern.axpy(go, w_value.row(o), dx);
    }
}

impl crate::gradcheck::HasParams for Linear {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Linear::params_mut(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_activation_known_values() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut l = Linear::new(&mut rng, 2, 2, Activation::None);
        // Overwrite with known weights.
        let mut ps = l.params_mut();
        ps[0].value = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        ps[1].value = Matrix::from_rows(&[vec![0.5, -0.5]]);
        drop(ps);
        let y = l.infer(&[1.0, 1.0]);
        assert_eq!(y, vec![3.5, 6.5]);
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = StdRng::seed_from_u64(2);
        let l = Linear::new(&mut rng, 5, 3, Activation::Tanh);
        let x = [0.1, -0.2, 0.3, 0.0, 0.5];
        let (y, _) = l.forward(&x);
        assert_eq!(y, l.infer(&x));
    }

    #[test]
    fn relu_kills_negative_grads() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut l = Linear::new(&mut rng, 1, 1, Activation::Relu);
        let mut ps = l.params_mut();
        ps[0].value = Matrix::from_rows(&[vec![-1.0]]);
        ps[1].value = Matrix::zeros(1, 1);
        drop(ps);
        let (y, cache) = l.forward(&[1.0]);
        assert_eq!(y, vec![0.0]); // relu(-1) = 0
        let dx = l.backward(&cache, &[1.0]);
        assert_eq!(dx, vec![0.0]); // gradient blocked
    }

    #[test]
    fn backward_into_matches_inline_backward() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut l = Linear::new(&mut rng, 4, 3, Activation::Tanh);
        let x = [0.3, -0.7, 0.2, 0.9];
        let g_out = [1.0f32, -2.0, 0.5];
        let (_, cache) = l.forward(&x);
        let (mut dw, mut db) = l.grad_buffer();
        let dx_ext = l.backward_into(&cache, &g_out, &mut dw, &mut db);
        let dx_inline = l.backward(&cache, &g_out);
        assert_eq!(dx_ext, dx_inline);
        let ps = l.params_mut();
        assert_eq!(ps[0].grad.as_slice(), dw.as_slice());
        assert_eq!(ps[1].grad.as_slice(), db.as_slice());
    }

    #[test]
    fn apply_grads_folds_and_clears_buffers() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut l = Linear::new(&mut rng, 2, 2, Activation::None);
        let (_, cache) = l.forward(&[1.0, -1.0]);
        let (mut dw, mut db) = l.grad_buffer();
        l.backward_into(&cache, &[1.0, 1.0], &mut dw, &mut db);
        let expect_w = dw.as_slice().to_vec();
        l.apply_grads(&mut dw, &mut db);
        assert!(dw.as_slice().iter().all(|&x| x == 0.0));
        assert!(db.as_slice().iter().all(|&x| x == 0.0));
        let ps = l.params_mut();
        assert_eq!(ps[0].grad.as_slice(), &expect_w[..]);
    }

    #[test]
    fn gradcheck_all_activations() {
        for act in [Activation::None, Activation::Tanh, Activation::Relu] {
            let mut rng = StdRng::seed_from_u64(42);
            let mut l = Linear::new(&mut rng, 4, 3, act);
            let x = [0.3, -0.7, 0.2, 0.9];
            // Scalar loss: weighted sum of outputs to break symmetry.
            let weights = [1.0f32, -2.0, 0.5];
            let loss =
                |l: &Linear| -> f32 { l.infer(&x).iter().zip(&weights).map(|(y, w)| y * w).sum() };

            l.zero_grad();
            let (_, cache) = l.forward(&x);
            let dx = l.backward(&cache, &weights);

            gradcheck::check_param_grads(&mut l, loss, 2e-2, &format!("{act:?}"));

            let numeric_dx = gradcheck::numeric_input_grad(&x, |x| {
                l.infer(x).iter().zip(&weights).map(|(y, w)| y * w).sum()
            });
            gradcheck::assert_close(&dx, &numeric_dx, 2e-2, &format!("{act:?} input"));
        }
    }
}
