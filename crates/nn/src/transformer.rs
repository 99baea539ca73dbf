//! Transformer encoder with `[CLS]` pooling.
//!
//! Serves two roles in the reproduction: the "Transformer" NLP
//! baseline (1–2 shallow layers) and the "BERT-style" deep text
//! encoder of the scalability study (more layers, wider FFN). The
//! architecture is pre-LN: each sublayer is `x + Sublayer(LN(x))`,
//! which trains stably without warmup at our scales.

// Attention/LN loops index several parallel matrices by row; iterator
// adaptors would obscure the math without changing codegen.
#![allow(clippy::needless_range_loop)]

use crate::adam::AdamHparams;
use crate::embedding::Embedding;
use crate::gradcheck::HasParams;
use crate::param::Param;
use pge_tensor::{init, ops, Matrix};
use rand::Rng;

/// Shape of a Transformer encoder.
#[derive(Clone, Debug)]
pub struct TransformerConfig {
    pub vocab: usize,
    /// Model width; must be divisible by `heads`.
    pub dim: usize,
    pub heads: usize,
    pub layers: usize,
    /// Hidden width of the position-wise FFN.
    pub ffn_dim: usize,
    pub max_len: usize,
}

impl TransformerConfig {
    /// The shallow baseline configuration.
    pub fn baseline(vocab: usize) -> Self {
        TransformerConfig {
            vocab,
            dim: 32,
            heads: 4,
            layers: 1,
            ffn_dim: 64,
            max_len: 24,
        }
    }

    /// The deep "BERT-style" configuration used for Table 5: several
    /// times the layers and FFN width of the baseline, mirroring the
    /// paper's CNN-vs-BERT cost gap.
    pub fn bert_style(vocab: usize) -> Self {
        TransformerConfig {
            vocab,
            dim: 64,
            heads: 8,
            layers: 4,
            ffn_dim: 256,
            max_len: 32,
        }
    }
}

/// Layer normalization over the last axis with learnable gain/bias.
#[derive(Clone, Debug)]
struct LayerNorm {
    gamma: Param,
    beta: Param,
    eps: f32,
}

/// Per-row statistics cached for LN backward: normalized input and
/// 1/σ.
#[derive(Clone, Debug)]
struct LnCache {
    xhat: Matrix,
    inv_std: Vec<f32>,
}

impl LayerNorm {
    fn new(dim: usize) -> Self {
        LayerNorm {
            gamma: Param::new(Matrix::full(1, dim, 1.0)),
            beta: Param::zeros(1, dim),
            eps: 1e-5,
        }
    }

    fn forward(&self, x: &Matrix) -> (Matrix, LnCache) {
        let d = x.cols();
        let mut y = Matrix::zeros(x.rows(), d);
        let mut xhat = Matrix::zeros(x.rows(), d);
        let mut inv_std = vec![0.0; x.rows()];
        let g = self.gamma.value.as_slice();
        let b = self.beta.value.as_slice();
        for r in 0..x.rows() {
            let row = x.row(r);
            let mu = ops::mean(row);
            let var = ops::variance(row);
            let inv = 1.0 / (var + self.eps).sqrt();
            inv_std[r] = inv;
            let xh = xhat.row_mut(r);
            let yr = y.row_mut(r);
            for c in 0..d {
                xh[c] = (row[c] - mu) * inv;
                yr[c] = xh[c] * g[c] + b[c];
            }
        }
        (y, LnCache { xhat, inv_std })
    }

    fn infer(&self, x: &Matrix) -> Matrix {
        self.forward(x).0
    }

    /// Returns dL/dx given dL/dy; accumulates γ/β grads.
    fn backward(&mut self, cache: &LnCache, dy: &Matrix) -> Matrix {
        let d = dy.cols();
        let n = d as f32;
        let mut dx = Matrix::zeros(dy.rows(), d);
        let g = self.gamma.value.as_slice().to_vec();
        for r in 0..dy.rows() {
            let dyr = dy.row(r);
            let xh = cache.xhat.row(r);
            // Accumulate parameter grads.
            {
                let dg = self.gamma.grad.as_mut_slice();
                let db = self.beta.grad.as_mut_slice();
                for c in 0..d {
                    dg[c] += dyr[c] * xh[c];
                    db[c] += dyr[c];
                }
            }
            // dxhat = dy * gamma; dx via the standard LN backward.
            let mut sum_dxhat = 0.0;
            let mut sum_dxhat_xhat = 0.0;
            for c in 0..d {
                let dxh = dyr[c] * g[c];
                sum_dxhat += dxh;
                sum_dxhat_xhat += dxh * xh[c];
            }
            let inv = cache.inv_std[r];
            let dxr = dx.row_mut(r);
            for c in 0..d {
                let dxh = dyr[c] * g[c];
                dxr[c] = inv * (dxh - sum_dxhat / n - xh[c] * sum_dxhat_xhat / n);
            }
        }
        dx
    }
}

/// Dense projection applied row-wise to a sequence matrix:
/// `Y = X Wᵀ + b`.
#[derive(Clone, Debug)]
struct SeqLinear {
    /// `out × in`.
    w: Param,
    b: Param,
}

impl SeqLinear {
    fn new<R: Rng>(rng: &mut R, input: usize, output: usize) -> Self {
        SeqLinear {
            w: Param::new(init::xavier_uniform(rng, output, input)),
            b: Param::zeros(1, output),
        }
    }

    fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul_transposed(&self.w.value);
        let b = self.b.value.as_slice();
        for r in 0..y.rows() {
            ops::axpy(1.0, b, y.row_mut(r));
        }
        y
    }

    /// Accumulates grads; returns dL/dX. `x` is the forward input.
    fn backward(&mut self, x: &Matrix, dy: &Matrix) -> Matrix {
        // dW += dYᵀ X ; db += Σ rows dY ; dX = dY W
        let dw = dy.transposed().matmul(x);
        self.w.grad.add_assign(&dw);
        for r in 0..dy.rows() {
            ops::axpy(1.0, dy.row(r), self.b.grad.as_mut_slice());
        }
        dy.matmul(&self.w.value)
    }
}

/// One pre-LN encoder block.
#[derive(Clone, Debug)]
struct Block {
    ln1: LayerNorm,
    wq: SeqLinear,
    wk: SeqLinear,
    wv: SeqLinear,
    wo: SeqLinear,
    ln2: LayerNorm,
    ff1: SeqLinear,
    ff2: SeqLinear,
    heads: usize,
}

/// Forward cache of one block.
#[derive(Clone, Debug)]
struct BlockCache {
    x_in: Matrix,
    ln1: LnCache,
    a: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Per-head attention probabilities, each `L × L`.
    probs: Vec<Matrix>,
    concat: Matrix,
    ln2: LnCache,
    b_norm: Matrix,
    ff_hidden_pre_relu: Matrix,
    ff_hidden: Matrix,
}

impl Block {
    fn new<R: Rng>(rng: &mut R, dim: usize, heads: usize, ffn: usize) -> Self {
        Block {
            ln1: LayerNorm::new(dim),
            wq: SeqLinear::new(rng, dim, dim),
            wk: SeqLinear::new(rng, dim, dim),
            wv: SeqLinear::new(rng, dim, dim),
            wo: SeqLinear::new(rng, dim, dim),
            ln2: LayerNorm::new(dim),
            ff1: SeqLinear::new(rng, dim, ffn),
            ff2: SeqLinear::new(rng, ffn, dim),
            heads,
        }
    }

    /// Multi-head self-attention on normalized input `a`; returns the
    /// concatenated head outputs plus (q, k, v, per-head probs).
    fn attention(&self, a: &Matrix) -> (Matrix, Matrix, Matrix, Matrix, Vec<Matrix>) {
        let l = a.rows();
        let d = a.cols();
        let dh = d / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let q = self.wq.forward(a);
        let k = self.wk.forward(a);
        let v = self.wv.forward(a);
        let mut concat = Matrix::zeros(l, d);
        let mut probs = Vec::with_capacity(self.heads);
        for h in 0..self.heads {
            let off = h * dh;
            let mut p = Matrix::zeros(l, l);
            for i in 0..l {
                let qi = &q.row(i)[off..off + dh];
                let pr = p.row_mut(i);
                for j in 0..l {
                    pr[j] = ops::dot(qi, &k.row(j)[off..off + dh]) * scale;
                }
                ops::softmax_inplace(pr);
            }
            for i in 0..l {
                let out = &mut concat.row_mut(i)[off..off + dh];
                for j in 0..l {
                    let pij = p[(i, j)];
                    if pij != 0.0 {
                        ops::axpy(pij, &v.row(j)[off..off + dh], out);
                    }
                }
            }
            probs.push(p);
        }
        (concat, q, k, v, probs)
    }

    fn forward(&self, x: &Matrix, want_cache: bool) -> (Matrix, Option<BlockCache>) {
        // Attention sublayer.
        let (a, ln1_cache) = self.ln1.forward(x);
        let (concat, q, k, v, probs) = self.attention(&a);
        let attn_out = self.wo.forward(&concat);
        let mut x_mid = x.clone();
        x_mid.add_assign(&attn_out);
        // FFN sublayer.
        let (b_norm, ln2_cache) = self.ln2.forward(&x_mid);
        let hidden_pre = self.ff1.forward(&b_norm);
        let mut hidden = hidden_pre.clone();
        ops::relu_inplace(hidden.as_mut_slice());
        let ff_out = self.ff2.forward(&hidden);
        let mut out = x_mid.clone();
        out.add_assign(&ff_out);
        let cache = want_cache.then(|| BlockCache {
            x_in: x.clone(),
            ln1: ln1_cache,
            a,
            q,
            k,
            v,
            probs,
            concat,
            ln2: ln2_cache,
            b_norm,
            ff_hidden_pre_relu: hidden_pre,
            ff_hidden: hidden,
        });
        (out, cache)
    }

    /// Returns dL/dx_in.
    fn backward(&mut self, cache: &BlockCache, dout: &Matrix) -> Matrix {
        let l = cache.x_in.rows();
        let d = cache.x_in.cols();
        let dh = d / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();

        // FFN sublayer: out = x_mid + ff2(relu(ff1(ln2(x_mid)))).
        let mut d_hidden = self.ff2.backward(&cache.ff_hidden, dout);
        for (g, &pre) in d_hidden
            .as_mut_slice()
            .iter_mut()
            .zip(cache.ff_hidden_pre_relu.as_slice())
        {
            if pre <= 0.0 {
                *g = 0.0;
            }
        }
        let d_bnorm = self.ff1.backward(&cache.b_norm, &d_hidden);
        let mut d_xmid = self.ln2.backward(&cache.ln2, &d_bnorm);
        d_xmid.add_assign(dout); // residual path

        // Attention sublayer: x_mid = x_in + wo(attn(ln1(x_in))).
        let d_concat = self.wo.backward(&cache.concat, &d_xmid);
        let mut dq = Matrix::zeros(l, d);
        let mut dk = Matrix::zeros(l, d);
        let mut dv = Matrix::zeros(l, d);
        for h in 0..self.heads {
            let off = h * dh;
            let p = &cache.probs[h];
            for i in 0..l {
                let doi = &d_concat.row(i)[off..off + dh];
                // dV_j += P_ij · dO_i ; dP_ij = dO_i · V_j
                let mut dp = vec![0.0; l];
                for j in 0..l {
                    let pij = p[(i, j)];
                    if pij != 0.0 {
                        ops::axpy(pij, doi, &mut dv.row_mut(j)[off..off + dh]);
                    }
                    dp[j] = ops::dot(doi, &cache.v.row(j)[off..off + dh]);
                }
                // Softmax backward: dS_ij = P_ij (dP_ij − Σ_k dP_ik P_ik).
                let dot_pp = ops::dot(&dp, p.row(i));
                for j in 0..l {
                    let ds = p[(i, j)] * (dp[j] - dot_pp) * scale;
                    if ds != 0.0 {
                        ops::axpy(
                            ds,
                            &cache.k.row(j)[off..off + dh],
                            &mut dq.row_mut(i)[off..off + dh],
                        );
                        let qi = cache.q.row(i)[off..off + dh].to_vec();
                        ops::axpy(ds, &qi, &mut dk.row_mut(j)[off..off + dh]);
                    }
                }
            }
        }
        let mut d_a = self.wq.backward(&cache.a, &dq);
        d_a.add_assign(&self.wk.backward(&cache.a, &dk));
        d_a.add_assign(&self.wv.backward(&cache.a, &dv));
        let mut d_x = self.ln1.backward(&cache.ln1, &d_a);
        d_x.add_assign(&d_xmid); // residual path
        d_x
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![
            &mut self.ln1.gamma,
            &mut self.ln1.beta,
            &mut self.wq.w,
            &mut self.wq.b,
            &mut self.wk.w,
            &mut self.wk.b,
            &mut self.wv.w,
            &mut self.wv.b,
            &mut self.wo.w,
            &mut self.wo.b,
            &mut self.ln2.gamma,
            &mut self.ln2.beta,
            &mut self.ff1.w,
            &mut self.ff1.b,
            &mut self.ff2.w,
            &mut self.ff2.b,
        ]
    }
}

/// Backward cache of one [`TransformerEncoder::forward`] call.
#[derive(Clone, Debug)]
pub struct TransformerCache {
    padded: Vec<u32>,
    blocks: Vec<BlockCache>,
    ln_f: LnCache,
}

/// Transformer encoder; the sequence encoding is the final-LN output
/// at position 0, so callers should place a `[CLS]`-style token first
/// (see [`TransformerEncoder::CLS`]).
#[derive(Clone, Debug)]
pub struct TransformerEncoder {
    words: Embedding,
    pos: Param,
    blocks: Vec<Block>,
    ln_f: LayerNorm,
    cfg: TransformerConfig,
}

impl TransformerEncoder {
    /// Conventional id of the `[CLS]` token. Generators reserve ids 0
    /// (pad) and 1 (cls) in every vocabulary.
    pub const CLS: u32 = 1;

    pub fn new<R: Rng>(rng: &mut R, cfg: TransformerConfig) -> Self {
        assert!(
            cfg.dim.is_multiple_of(cfg.heads),
            "dim must divide into heads"
        );
        let words = Embedding::new(rng, cfg.vocab, cfg.dim);
        let pos = Param::new(init::uniform(rng, cfg.max_len, cfg.dim, 0.02));
        let blocks = (0..cfg.layers)
            .map(|_| Block::new(rng, cfg.dim, cfg.heads, cfg.ffn_dim))
            .collect();
        let ln_f = LayerNorm::new(cfg.dim);
        TransformerEncoder {
            words,
            pos,
            blocks,
            ln_f,
            cfg,
        }
    }

    #[inline]
    pub fn out_dim(&self) -> usize {
        self.cfg.dim
    }

    #[inline]
    pub fn config(&self) -> &TransformerConfig {
        &self.cfg
    }

    /// `[CLS]` + tokens, padded/truncated to the model's max length.
    fn pad(&self, tokens: &[u32]) -> Vec<u32> {
        let mut seq = Vec::with_capacity(self.cfg.max_len);
        seq.push(Self::CLS);
        seq.extend(tokens.iter().copied().take(self.cfg.max_len - 1));
        if seq.len() < 2 {
            seq.push(0);
        }
        seq
    }

    fn embed(&self, padded: &[u32]) -> Matrix {
        let mut x = self.words.gather(padded);
        for (r, _) in padded.iter().enumerate() {
            ops::axpy(1.0, self.pos.value.row(r), x.row_mut(r));
        }
        x
    }

    /// Inference-only `[CLS]` encoding.
    pub fn infer(&self, tokens: &[u32]) -> Vec<f32> {
        let padded = self.pad(tokens);
        let mut x = self.embed(&padded);
        for b in &self.blocks {
            x = b.forward(&x, false).0;
        }
        self.ln_f.infer(&x).row(0).to_vec()
    }

    /// Training forward: `[CLS]` encoding plus cache.
    pub fn forward(&self, tokens: &[u32]) -> (Vec<f32>, TransformerCache) {
        let padded = self.pad(tokens);
        let mut x = self.embed(&padded);
        let mut caches = Vec::with_capacity(self.blocks.len());
        for b in &self.blocks {
            let (nx, c) = b.forward(&x, true);
            caches.push(c.expect("cache requested"));
            x = nx;
        }
        let (y, ln_f_cache) = self.ln_f.forward(&x);
        (
            y.row(0).to_vec(),
            TransformerCache {
                padded,
                blocks: caches,
                ln_f: ln_f_cache,
            },
        )
    }

    /// Backward from dL/d(cls encoding).
    pub fn backward(&mut self, cache: &TransformerCache, grad_out: &[f32]) {
        let l = cache.padded.len();
        let d = self.cfg.dim;
        let mut dy = Matrix::zeros(l, d);
        dy.row_mut(0).copy_from_slice(grad_out);
        let mut dx = self.ln_f.backward(&cache.ln_f, &dy);
        for (b, c) in self.blocks.iter_mut().zip(&cache.blocks).rev() {
            dx = b.backward(c, &dx);
        }
        // Into token + positional embeddings.
        for (r, &id) in cache.padded.iter().enumerate() {
            self.words.accumulate_grad(id, dx.row(r));
            ops::axpy(1.0, dx.row(r), self.pos.grad.row_mut(r));
        }
    }

    pub fn adam_step(&mut self, hp: &AdamHparams, t: u64) {
        self.words.adam_step(hp, t);
        self.pos.adam_step(hp, t);
        for b in &mut self.blocks {
            for p in b.params_mut() {
                p.adam_step(hp, t);
            }
        }
        self.ln_f.gamma.adam_step(hp, t);
        self.ln_f.beta.adam_step(hp, t);
    }

    /// Approximate multiply–accumulates for encoding `len` tokens —
    /// quadratic in sequence length via attention, linear in layers.
    pub fn flops(&self, len: usize) -> u64 {
        let l = (len + 1).min(self.cfg.max_len) as u64;
        let d = self.cfg.dim as u64;
        let f = self.cfg.ffn_dim as u64;
        let per_layer = 4 * l * d * d // q,k,v,o projections
            + 2 * l * l * d          // scores + weighted sum
            + 2 * l * d * f; // ffn
        per_layer * self.cfg.layers as u64
    }
}

impl HasParams for TransformerEncoder {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = vec![self.words.param_mut()];
        ps.push(&mut self.pos);
        for b in &mut self.blocks {
            ps.extend(b.params_mut());
        }
        ps.push(&mut self.ln_f.gamma);
        ps.push(&mut self.ln_f.beta);
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny() -> TransformerEncoder {
        let mut rng = StdRng::seed_from_u64(1);
        TransformerEncoder::new(
            &mut rng,
            TransformerConfig {
                vocab: 12,
                dim: 8,
                heads: 2,
                layers: 2,
                ffn_dim: 12,
                max_len: 6,
            },
        )
    }

    #[test]
    fn layernorm_normalizes_rows() {
        let ln = LayerNorm::new(4);
        let x = Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0], vec![10.0, 10.0, 10.0, 10.0]]);
        let (y, _) = ln.forward(&x);
        // Row 0: zero mean, unit variance under γ=1, β=0.
        assert!(ops::mean(y.row(0)).abs() < 1e-5);
        assert!((ops::variance(y.row(0)) - 1.0).abs() < 1e-3);
        // Constant row maps to ~0 (variance ≈ 0 guarded by eps).
        assert!(y.row(1).iter().all(|v| v.abs() < 1e-2));
    }

    #[test]
    fn infer_matches_forward() {
        let t = tiny();
        let tokens = [3u32, 5, 7];
        let (e, _) = t.forward(&tokens);
        assert_eq!(e, t.infer(&tokens));
        assert_eq!(e.len(), 8);
    }

    #[test]
    fn order_sensitivity_via_positions() {
        let t = tiny();
        assert_ne!(t.infer(&[2, 3]), t.infer(&[3, 2]));
    }

    #[test]
    fn empty_input_ok() {
        let t = tiny();
        let e = t.infer(&[]);
        assert!(e.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn gradcheck_transformer() {
        let mut rng = StdRng::seed_from_u64(3);
        // Single layer keeps finite-difference noise manageable.
        let mut t = TransformerEncoder::new(
            &mut rng,
            TransformerConfig {
                vocab: 10,
                dim: 4,
                heads: 2,
                layers: 1,
                ffn_dim: 6,
                max_len: 5,
            },
        );
        let tokens = [2u32, 4, 6];
        let weights = [1.0f32, -0.5, 0.25, 0.75];
        let loss = |t: &TransformerEncoder| -> f32 {
            t.infer(&tokens)
                .iter()
                .zip(&weights)
                .map(|(e, w)| e * w)
                .sum()
        };
        let (_, cache) = t.forward(&tokens);
        t.backward(&cache, &weights);
        gradcheck::check_param_grads(&mut t, loss, 5e-2, "Transformer");
    }

    #[test]
    fn training_reduces_loss() {
        let mut t = tiny();
        let tokens = [3u32, 4, 5];
        let hp = AdamHparams::with_lr(0.02);
        let before = -t.infer(&tokens)[0];
        for step in 1..=40 {
            let (e, cache) = t.forward(&tokens);
            let mut g = vec![0.0; e.len()];
            g[0] = -1.0;
            t.backward(&cache, &g);
            t.adam_step(&hp, step);
        }
        let after = -t.infer(&tokens)[0];
        assert!(after < before, "{before} -> {after}");
    }

    #[test]
    fn bert_style_is_much_more_expensive_than_baseline() {
        let base = TransformerConfig::baseline(100);
        let bert = TransformerConfig::bert_style(100);
        let mut rng = StdRng::seed_from_u64(4);
        let tb = TransformerEncoder::new(&mut rng, base);
        let td = TransformerEncoder::new(&mut rng, bert);
        assert!(td.flops(20) > 5 * tb.flops(20));
    }
}
