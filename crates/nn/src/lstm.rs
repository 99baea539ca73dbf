//! Single-layer LSTM sequence encoder (the paper's "LSTM" NLP
//! baseline encodes the triple text and classifies from the final
//! hidden state).

use crate::adam::AdamHparams;
use crate::embedding::Embedding;
use crate::gradcheck::HasParams;
use crate::param::Param;
use pge_tensor::{init, math, ops};
use rand::Rng;

/// LSTM over embedded tokens; the encoding of a sequence is the final
/// hidden state `h_T`.
///
/// Gate weights are packed as `W: 4h × (d + h)` with row blocks
/// `[input; forget; cell; output]`, biases `b: 1 × 4h`. The forget
/// bias is initialized to 1 (standard trick to keep early memory).
#[derive(Clone, Debug)]
pub struct Lstm {
    words: Embedding,
    w: Param,
    b: Param,
    hidden: usize,
    max_len: usize,
}

/// Per-timestep values needed by backpropagation through time.
#[derive(Clone, Debug)]
struct StepCache {
    /// Concatenated `[x_t ; h_{t-1}]`.
    xh: Vec<f32>,
    /// Activated gates `i, f, g, o` (each `hidden` long).
    i: Vec<f32>,
    f: Vec<f32>,
    g: Vec<f32>,
    o: Vec<f32>,
    /// tanh of the cell state after the step.
    tanh_c: Vec<f32>,
    /// Cell state before the step.
    c_prev: Vec<f32>,
}

/// Backward cache of one [`Lstm::forward`] call.
#[derive(Clone, Debug)]
pub struct LstmCache {
    padded: Vec<u32>,
    steps: Vec<StepCache>,
}

impl Lstm {
    pub fn new<R: Rng>(
        rng: &mut R,
        vocab: usize,
        word_dim: usize,
        hidden: usize,
        max_len: usize,
    ) -> Self {
        let words = Embedding::new(rng, vocab, word_dim);
        let w = Param::new(init::xavier_uniform(rng, 4 * hidden, word_dim + hidden));
        let mut b = Param::zeros(1, 4 * hidden);
        // Forget-gate bias block starts at `hidden`.
        for x in &mut b.value.as_mut_slice()[hidden..2 * hidden] {
            *x = 1.0;
        }
        Lstm {
            words,
            w,
            b,
            hidden,
            max_len,
        }
    }

    /// Build on pre-trained word embeddings.
    pub fn with_embeddings<R: Rng>(
        rng: &mut R,
        words: Embedding,
        hidden: usize,
        max_len: usize,
    ) -> Self {
        let word_dim = words.dim();
        let w = Param::new(init::xavier_uniform(rng, 4 * hidden, word_dim + hidden));
        let mut b = Param::zeros(1, 4 * hidden);
        for x in &mut b.value.as_mut_slice()[hidden..2 * hidden] {
            *x = 1.0;
        }
        Lstm {
            words,
            w,
            b,
            hidden,
            max_len,
        }
    }

    #[inline]
    pub fn out_dim(&self) -> usize {
        self.hidden
    }

    fn pad(&self, tokens: &[u32]) -> Vec<u32> {
        crate::pad_tokens(tokens, 1, self.max_len, 0)
    }

    /// One LSTM cell step; returns `(h_t, step_cache)` if caching.
    fn step(
        &self,
        x: &[f32],
        h_prev: &[f32],
        c_prev: &[f32],
        want_cache: bool,
    ) -> (Vec<f32>, Vec<f32>, Option<StepCache>) {
        let h = self.hidden;
        let mut xh = Vec::with_capacity(x.len() + h);
        xh.extend_from_slice(x);
        xh.extend_from_slice(h_prev);
        // z = W · xh + b, gate blocks [i f g o].
        let mut z = self.b.value.as_slice().to_vec();
        for (r, zr) in z.iter_mut().enumerate() {
            *zr += ops::dot(self.w.value.row(r), &xh);
        }
        let (mut i, mut f, mut g, mut o) = (vec![0.0; h], vec![0.0; h], vec![0.0; h], vec![0.0; h]);
        for k in 0..h {
            i[k] = ops::sigmoid(z[k]);
            f[k] = ops::sigmoid(z[h + k]);
            g[k] = math::tanh(z[2 * h + k]);
            o[k] = ops::sigmoid(z[3 * h + k]);
        }
        let mut c = vec![0.0; h];
        let mut tanh_c = vec![0.0; h];
        let mut h_t = vec![0.0; h];
        for k in 0..h {
            c[k] = f[k] * c_prev[k] + i[k] * g[k];
            tanh_c[k] = math::tanh(c[k]);
            h_t[k] = o[k] * tanh_c[k];
        }
        let cache = want_cache.then(|| StepCache {
            xh,
            i,
            f,
            g,
            o,
            tanh_c: tanh_c.clone(),
            c_prev: c_prev.to_vec(),
        });
        (h_t, c, cache)
    }

    /// Inference-only encoding of a token sequence.
    pub fn infer(&self, tokens: &[u32]) -> Vec<f32> {
        let padded = self.pad(tokens);
        let mut h = vec![0.0; self.hidden];
        let mut c = vec![0.0; self.hidden];
        for &id in &padded {
            let x = self.words.row(id).to_vec();
            let (nh, nc, _) = self.step(&x, &h, &c, false);
            h = nh;
            c = nc;
        }
        h
    }

    /// Training forward: final hidden state + BPTT cache.
    pub fn forward(&self, tokens: &[u32]) -> (Vec<f32>, LstmCache) {
        let padded = self.pad(tokens);
        let mut h = vec![0.0; self.hidden];
        let mut c = vec![0.0; self.hidden];
        let mut steps = Vec::with_capacity(padded.len());
        for &id in &padded {
            let x = self.words.row(id).to_vec();
            let (nh, nc, cache) = self.step(&x, &h, &c, true);
            steps.push(cache.expect("cache requested"));
            h = nh;
            c = nc;
        }
        (h, LstmCache { padded, steps })
    }

    /// Backpropagation through time from dL/dh_T.
    pub fn backward(&mut self, cache: &LstmCache, grad_h_last: &[f32]) {
        let h = self.hidden;
        let d = self.words.dim();
        let mut dh = grad_h_last.to_vec();
        let mut dc = vec![0.0; h];
        for (t, step) in cache.steps.iter().enumerate().rev() {
            // h_t = o · tanh(c_t)
            let mut dz = vec![0.0; 4 * h];
            for k in 0..h {
                let do_ = dh[k] * step.tanh_c[k];
                dc[k] += dh[k] * step.o[k] * ops::tanh_deriv_from_output(step.tanh_c[k]);
                let di = dc[k] * step.g[k];
                let df = dc[k] * step.c_prev[k];
                let dg = dc[k] * step.i[k];
                dz[k] = di * step.i[k] * (1.0 - step.i[k]);
                dz[h + k] = df * step.f[k] * (1.0 - step.f[k]);
                dz[2 * h + k] = dg * ops::tanh_deriv_from_output(step.g[k]);
                dz[3 * h + k] = do_ * step.o[k] * (1.0 - step.o[k]);
            }
            // dW += dz ⊗ xh ; db += dz ; dxh = Wᵀ dz
            ops::axpy(1.0, &dz, self.b.grad.as_mut_slice());
            let mut dxh = vec![0.0; d + h];
            for (r, &dzr) in dz.iter().enumerate() {
                if dzr == 0.0 {
                    continue;
                }
                ops::axpy(dzr, &step.xh, self.w.grad.row_mut(r));
                ops::axpy(dzr, self.w.value.row(r), &mut dxh);
            }
            // Split dxh into dx_t (to word embedding) and dh_{t-1}.
            self.words.accumulate_grad(cache.padded[t], &dxh[..d]);
            dh[..h].copy_from_slice(&dxh[d..d + h]);
            for (dck, fk) in dc.iter_mut().zip(&step.f) {
                *dck *= fk;
            }
        }
    }

    pub fn adam_step(&mut self, hp: &AdamHparams, t: u64) {
        self.words.adam_step(hp, t);
        self.w.adam_step(hp, t);
        self.b.adam_step(hp, t);
    }

    /// Approximate multiply–accumulates for encoding `len` tokens.
    pub fn flops(&self, len: usize) -> u64 {
        let len = len.clamp(1, self.max_len) as u64;
        len * (4 * self.hidden * (self.words.dim() + self.hidden)) as u64
    }
}

impl HasParams for Lstm {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![self.words.param_mut(), &mut self.w, &mut self.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> Lstm {
        let mut rng = StdRng::seed_from_u64(1);
        Lstm::new(&mut rng, 10, 3, 4, 6)
    }

    #[test]
    fn infer_matches_forward_and_is_deterministic() {
        let l = tiny();
        let tokens = [2u32, 5, 7];
        let (h, _) = l.forward(&tokens);
        assert_eq!(h, l.infer(&tokens));
        assert_eq!(h.len(), 4);
        assert_eq!(l.infer(&tokens), l.infer(&tokens));
    }

    #[test]
    fn different_sequences_encode_differently() {
        let l = tiny();
        assert_ne!(l.infer(&[1, 2, 3]), l.infer(&[3, 2, 1]));
    }

    #[test]
    fn empty_input_is_padded_not_panicking() {
        let l = tiny();
        let h = l.infer(&[]);
        assert!(h.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn truncates_beyond_max_len() {
        let l = tiny();
        let long: Vec<u32> = (0..20).map(|i| (i % 10) as u32).collect();
        let h_long = l.infer(&long);
        let h_trunc = l.infer(&long[..6]);
        assert_eq!(h_long, h_trunc);
    }

    #[test]
    fn gradcheck_bptt() {
        let mut l = tiny();
        let tokens = [2u32, 5, 7, 1];
        let weights = [1.0f32, -0.5, 0.25, 2.0];
        let loss = |l: &Lstm| -> f32 {
            l.infer(&tokens)
                .iter()
                .zip(&weights)
                .map(|(h, w)| h * w)
                .sum()
        };
        let (_, cache) = l.forward(&tokens);
        l.backward(&cache, &weights);
        gradcheck::check_param_grads(&mut l, loss, 3e-2, "Lstm");
    }

    #[test]
    fn training_reduces_loss() {
        let mut l = tiny();
        let tokens = [3u32, 4, 5];
        let hp = AdamHparams::with_lr(0.05);
        let before = -l.infer(&tokens)[0];
        for t in 1..=40 {
            let (h, cache) = l.forward(&tokens);
            let mut g = vec![0.0; h.len()];
            g[0] = -1.0;
            l.backward(&cache, &g);
            l.adam_step(&hp, t);
        }
        let after = -l.infer(&tokens)[0];
        assert!(after < before, "{before} -> {after}");
    }

    #[test]
    fn flops_scale_with_len() {
        let l = tiny();
        assert_eq!(l.flops(4), 2 * l.flops(2));
    }
}
