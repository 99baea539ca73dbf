//! 1-d convolutional text encoder (Fig. 4 of the paper).
//!
//! The encoder embeds a token sequence, runs several shallow 1-d
//! convolutions with *different filter widths* in parallel (capturing
//! local semantics of different spans), max-pools each feature map
//! over time, concatenates the pooled features, and projects the
//! result through a fully-connected tanh layer into the final
//! text-based representation.

use crate::adam::AdamHparams;
use crate::embedding::Embedding;
use crate::gradcheck::HasParams;
use crate::linear::{self, Activation, Linear};
use crate::param::Param;
use pge_tensor::kernels::{self, DispatchedOps, Ops, Pass};
use pge_tensor::{init, ops, Matrix};
use rand::Rng;

/// One 1-d convolution of width `k` over a `L × in_dim` sequence,
/// with tanh activation and max-over-time pooling fused in.
#[derive(Clone, Debug)]
pub struct Conv1d {
    /// `filters × (k·in_dim)` weights; each row is one flattened filter.
    w: Param,
    /// `1 × filters` bias.
    b: Param,
    width: usize,
    in_dim: usize,
}

impl Conv1d {
    pub fn new<R: Rng>(rng: &mut R, width: usize, in_dim: usize, filters: usize) -> Self {
        assert!(width >= 1 && in_dim >= 1 && filters >= 1);
        Conv1d {
            w: Param::new(init::xavier_uniform(rng, filters, width * in_dim)),
            b: Param::zeros(1, filters),
            width,
            in_dim,
        }
    }

    #[inline]
    pub fn filters(&self) -> usize {
        self.w.rows()
    }

    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Max-over-time pooled features of the sequence `x` (`L × in_dim`
    /// row-major, `L ≥ width`) on kernel `kern`: `act[f]` is filter
    /// f's activation at its temporal max, `arg[f]` that position.
    #[inline(always)]
    pub(crate) fn pool_with<O: Ops>(&self, kern: O, x: &[f32], act: &mut [f32], arg: &mut [u32]) {
        let rows = x.len() / self.in_dim;
        assert!(
            rows >= self.width,
            "sequence length {rows} shorter than filter width {}",
            self.width
        );
        // tanh is strictly increasing, so max-over-time of tanh(pre)
        // is tanh(max-over-time pre): the kernel compares raw
        // pre-activations and each filter is activated once.
        //
        // Edge cases vs activating inside the loop: when rounding
        // maps two distinct pre-activations to the same tanh, the
        // argmax recorded for backward is the larger *pre* (the output
        // value is identical); an all-NaN feature map pools to
        // tanh(-inf) = -1.0 rather than -inf. Both kernels share this
        // definition, so determinism is unaffected.
        kern.conv_max_pool(
            self.w.value.as_slice(),
            self.width * self.in_dim,
            x,
            self.in_dim,
            rows - self.width + 1,
            self.b.value.as_slice(),
            act,
            arg,
        );
        kern.tanh_inplace(act);
    }

    /// Fold external gradient buffers into the inline parameter
    /// gradients, clearing the buffers.
    pub fn apply_grads(&mut self, dw: &mut Matrix, db: &mut Matrix) {
        self.w.accumulate_matrix(dw);
        self.b.accumulate_matrix(db);
        dw.fill_zero();
        db.fill_zero();
    }

    /// Zeroed gradient buffers (`dW`, `db`) shaped like the parameters.
    pub fn grad_buffer(&self) -> (Matrix, Matrix) {
        (
            Matrix::zeros(self.w.rows(), self.w.cols()),
            Matrix::zeros(self.b.rows(), self.b.cols()),
        )
    }

    pub fn adam_step(&mut self, hp: &AdamHparams, t: u64) {
        self.w.adam_step(hp, t);
        self.b.adam_step(hp, t);
    }

    pub fn zero_grad(&mut self) {
        self.w.zero_grad();
        self.b.zero_grad();
    }

    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.w, &mut self.b]
    }
}

/// Backward through [`Conv1d::pool_with`]: reads the weight value,
/// accumulates into whichever gradient storage the caller supplies
/// (inline `Param.grad` or an external per-worker buffer), and adds
/// the input gradient into `dx` (same layout as the forward `x`).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn conv_backward<O: Ops>(
    kern: O,
    w_value: &Matrix,
    in_dim: usize,
    x: &[f32],
    act: &[f32],
    arg: &[u32],
    grad_out: &[f32],
    dw: &mut Matrix,
    db: &mut [f32],
    dx: &mut [f32],
) {
    debug_assert_eq!(grad_out.len(), w_value.rows());
    debug_assert_eq!(dx.len(), x.len());
    let window = w_value.cols();
    for (f, &g_out) in grad_out.iter().enumerate() {
        if g_out == 0.0 {
            continue;
        }
        let g = g_out * ops::tanh_deriv_from_output(act[f]);
        let lo = arg[f] as usize * in_dim;
        db[f] += g;
        kern.axpy(g, &x[lo..lo + window], dw.row_mut(f));
        kern.axpy(g, w_value.row(f), &mut dx[lo..lo + window]);
    }
}

/// Configuration of the CNN text encoder.
#[derive(Clone, Debug)]
pub struct CnnConfig {
    /// Vocabulary size (id 0 is the padding token by convention).
    pub vocab: usize,
    /// Word-embedding dimension.
    pub word_dim: usize,
    /// Filter widths of the parallel convolutions. The paper sweeps
    /// widths in {1,2,3,4} across three CNNs; we default to [1,2,3].
    pub widths: Vec<usize>,
    /// Feature maps per convolution.
    pub filters_per_width: usize,
    /// Output (entity-embedding) dimension after the FC projection.
    pub out_dim: usize,
    /// Token sequences are truncated to this length.
    pub max_len: usize,
}

impl CnnConfig {
    /// Small defaults suitable for the rescaled experiments.
    pub fn small(vocab: usize, out_dim: usize) -> Self {
        CnnConfig {
            vocab,
            word_dim: 32,
            widths: vec![1, 2, 3],
            filters_per_width: 16,
            out_dim,
            max_len: 24,
        }
    }
}

/// A detached gradient buffer covering every parameter of a
/// [`TextCnnEncoder`]: sparse word-embedding rows, per-convolution
/// weight/bias pairs, and the projection layer. One buffer per worker
/// lets backward passes run concurrently against a shared `&self`
/// encoder; [`TextCnnEncoder::apply_grads`] folds buffers back in a
/// caller-chosen (fixed, hence deterministic) order.
#[derive(Debug)]
pub struct CnnGrads {
    /// Sparse word-embedding row gradients, in first-touch order.
    pub words: crate::grad::SparseRowGrads,
    /// `(dW, db)` per convolution, in convolution order.
    pub convs: Vec<(Matrix, Matrix)>,
    /// `(dW, db)` of the projection layer.
    pub proj: (Matrix, Matrix),
    /// Backward scratch, reused across calls: the projection's
    /// pre-activation gradient, dL/dh, and dL/dx.
    dy: Vec<f32>,
    dh: Vec<f32>,
    dx: Vec<f32>,
}

/// The buffers of one [`TextCnnEncoder::forward_into`]: its backward
/// cache, and — reused from call to call — the scratch that keeps
/// encoding allocation-free.
#[derive(Clone, Debug, Default)]
pub struct CnnEncCache {
    /// Token ids after padding/truncation.
    padded: Vec<u32>,
    /// Their word vectors, `padded.len() × word_dim` row-major.
    x: Vec<f32>,
    /// Pooled activations of every convolution, concatenated: the
    /// projection's input.
    h: Vec<f32>,
    /// Per entry of `h`, the position of its temporal max.
    arg: Vec<u32>,
    /// The projection's activated output: the embedding.
    out: Vec<f32>,
}

impl CnnEncCache {
    /// The embedding the last [`TextCnnEncoder::forward_into`] wrote.
    pub fn embedding(&self) -> &[f32] {
        &self.out
    }

    /// Per pooled feature (convolution-major), the position of its
    /// temporal max — where backward routes that feature's gradient.
    pub fn argmax(&self) -> &[u32] {
        &self.arg
    }
}

/// The paper's text encoder: word embeddings → parallel Conv1d +
/// max-over-time → concat → FC(tanh).
#[derive(Clone, Debug)]
pub struct TextCnnEncoder {
    words: Embedding,
    convs: Vec<Conv1d>,
    proj: Linear,
    cfg: CnnConfig,
}

/// [`TextCnnEncoder::forward_into`] as a pass over the active kernel.
struct Encode<'a> {
    enc: &'a TextCnnEncoder,
    tokens: &'a [u32],
    cache: &'a mut CnnEncCache,
}

impl Pass for Encode<'_> {
    type Output = ();
    #[inline(always)]
    fn run<O: Ops>(self, kern: O) {
        let Encode {
            enc,
            tokens,
            cache: c,
        } = self;
        let min = enc.min_len();
        crate::pad_tokens_into(tokens, min, enc.cfg.max_len.max(min), 0, &mut c.padded);
        enc.words.gather_into(&c.padded, &mut c.x);
        let f = enc.cfg.filters_per_width;
        c.h.resize(enc.convs.len() * f, 0.0);
        c.arg.resize(enc.convs.len() * f, 0);
        for (ci, conv) in enc.convs.iter().enumerate() {
            let span = ci * f..(ci + 1) * f;
            conv.pool_with(kern, &c.x, &mut c.h[span.clone()], &mut c.arg[span]);
        }
        c.out.resize(enc.cfg.out_dim, 0.0);
        enc.proj.infer_with(kern, &c.h, &mut c.out);
    }
}

/// [`TextCnnEncoder::backward_into`] as a pass over the active kernel.
struct BackwardInto<'a> {
    enc: &'a TextCnnEncoder,
    cache: &'a CnnEncCache,
    grad_out: &'a [f32],
    g: &'a mut CnnGrads,
}

impl Pass for BackwardInto<'_> {
    type Output = ();
    #[inline(always)]
    fn run<O: Ops>(self, kern: O) {
        let BackwardInto {
            enc,
            cache: c,
            grad_out,
            g,
        } = self;
        let CnnGrads {
            words,
            convs,
            proj,
            dy,
            dh,
            dx,
        } = g;
        dy.resize(grad_out.len(), 0.0);
        dh.resize(c.h.len(), 0.0);
        linear::backward_with(
            kern,
            &enc.proj.w.value,
            enc.proj.act,
            &c.h,
            &c.out,
            grad_out,
            &mut proj.0,
            proj.1.as_mut_slice(),
            dy,
            dh,
        );
        dx.clear();
        dx.resize(c.x.len(), 0.0);
        let f = enc.cfg.filters_per_width;
        for (ci, (conv, (dw, db))) in enc.convs.iter().zip(convs).enumerate() {
            let span = ci * f..(ci + 1) * f;
            conv_backward(
                kern,
                &conv.w.value,
                conv.in_dim,
                &c.x,
                &c.h[span.clone()],
                &c.arg[span.clone()],
                &dh[span],
                dw,
                db.as_mut_slice(),
                dx,
            );
        }
        let d = enc.cfg.word_dim;
        for (&id, row) in c.padded.iter().zip(dx.chunks_exact(d)) {
            kern.axpy(1.0, row, words.row_mut(id as usize));
        }
    }
}

impl TextCnnEncoder {
    /// Build with randomly-initialized word embeddings.
    pub fn new<R: Rng>(rng: &mut R, cfg: CnnConfig) -> Self {
        let words = Embedding::new(rng, cfg.vocab, cfg.word_dim);
        Self::with_embeddings(rng, cfg, words)
    }

    /// Build on top of pre-trained word embeddings (word2vec init, as
    /// in the paper). The table is fine-tuned end to end.
    pub fn with_embeddings<R: Rng>(rng: &mut R, cfg: CnnConfig, words: Embedding) -> Self {
        assert_eq!(words.len(), cfg.vocab, "embedding table size != cfg.vocab");
        assert_eq!(words.dim(), cfg.word_dim, "embedding dim != cfg.word_dim");
        assert!(!cfg.widths.is_empty(), "need at least one filter width");
        let convs: Vec<Conv1d> = cfg
            .widths
            .iter()
            .map(|&w| Conv1d::new(rng, w, cfg.word_dim, cfg.filters_per_width))
            .collect();
        let concat = cfg.widths.len() * cfg.filters_per_width;
        let proj = Linear::new(rng, concat, cfg.out_dim, Activation::Tanh);
        TextCnnEncoder {
            words,
            convs,
            proj,
            cfg,
        }
    }

    #[inline]
    pub fn out_dim(&self) -> usize {
        self.cfg.out_dim
    }

    #[inline]
    pub fn config(&self) -> &CnnConfig {
        &self.cfg
    }

    fn min_len(&self) -> usize {
        self.cfg.widths.iter().copied().max().unwrap_or(1)
    }

    /// Encode `tokens` into `cache`, reusing its buffers: the embedding
    /// is [`CnnEncCache::embedding`], and the cache is what
    /// [`TextCnnEncoder::backward_into`] reads. `&self` — safe to call
    /// from many threads, each with its own cache.
    pub fn forward_into(&self, tokens: &[u32], cache: &mut CnnEncCache) {
        kernels::run(Encode {
            enc: self,
            tokens,
            cache,
        })
    }

    /// Inference-only encoding: [`TextCnnEncoder::forward_into`] on a
    /// scratch cache.
    pub fn infer(&self, tokens: &[u32]) -> Vec<f32> {
        let mut cache = CnnEncCache::default();
        self.forward_into(tokens, &mut cache);
        cache.out
    }

    /// Training forward: final embedding plus backward cache.
    pub fn forward(&self, tokens: &[u32]) -> (Vec<f32>, CnnEncCache) {
        let mut cache = CnnEncCache::default();
        self.forward_into(tokens, &mut cache);
        (cache.out.clone(), cache)
    }

    /// Backward from dL/d(embedding); accumulates into all parameter
    /// grads including the word-embedding rows used by this sequence.
    pub fn backward(&mut self, c: &CnnEncCache, grad_out: &[f32]) {
        let TextCnnEncoder {
            words,
            convs,
            proj,
            cfg,
        } = self;
        let mut dy = vec![0.0; grad_out.len()];
        let mut dh = vec![0.0; c.h.len()];
        linear::backward_with(
            DispatchedOps,
            &proj.w.value,
            proj.act,
            &c.h,
            &c.out,
            grad_out,
            &mut proj.w.grad,
            proj.b.grad.as_mut_slice(),
            &mut dy,
            &mut dh,
        );
        let mut dx = Matrix::zeros(c.padded.len(), cfg.word_dim);
        let f = cfg.filters_per_width;
        for (ci, conv) in convs.iter_mut().enumerate() {
            let span = ci * f..(ci + 1) * f;
            let Conv1d { w, b, in_dim, .. } = conv;
            conv_backward(
                DispatchedOps,
                &w.value,
                *in_dim,
                &c.x,
                &c.h[span.clone()],
                &c.arg[span.clone()],
                &dh[span],
                &mut w.grad,
                b.grad.as_mut_slice(),
                dx.as_mut_slice(),
            );
        }
        words.accumulate_seq_grad(&c.padded, &dx);
    }

    /// A zeroed [`CnnGrads`] buffer shaped for this encoder.
    pub fn grad_buffer(&self) -> CnnGrads {
        CnnGrads {
            words: crate::grad::SparseRowGrads::new(self.cfg.word_dim),
            convs: self.convs.iter().map(Conv1d::grad_buffer).collect(),
            proj: self.proj.grad_buffer(),
            dy: Vec::new(),
            dh: Vec::new(),
            dx: Vec::new(),
        }
    }

    /// [`TextCnnEncoder::backward`] with `&self`, accumulating into an
    /// external [`CnnGrads`] buffer instead of the inline parameter
    /// gradients — the data-parallel training path. The kernel is
    /// chosen once per call and the scratch lives in `g`, so a call
    /// allocates nothing once `g` has seen the longest text.
    pub fn backward_into(&self, cache: &CnnEncCache, grad_out: &[f32], g: &mut CnnGrads) {
        kernels::run(BackwardInto {
            enc: self,
            cache,
            grad_out,
            g,
        })
    }

    /// Fold one gradient buffer into the inline parameter gradients
    /// and clear it for reuse. Call once per buffer, in a fixed order,
    /// before the optimizer step.
    pub fn apply_grads(&mut self, g: &mut CnnGrads) {
        for (row, grad) in g.words.iter() {
            self.words.accumulate_grad(row as u32, grad);
        }
        g.words.clear();
        for (conv, (dw, db)) in self.convs.iter_mut().zip(&mut g.convs) {
            conv.apply_grads(dw, db);
        }
        self.proj.apply_grads(&mut g.proj.0, &mut g.proj.1);
    }

    /// Optimizer step over all parameters (sparse for the word table).
    pub fn adam_step(&mut self, hp: &AdamHparams, t: u64) {
        self.words.adam_step(hp, t);
        for c in &mut self.convs {
            c.adam_step(hp, t);
        }
        self.proj.adam_step(hp, t);
    }

    /// Approximate multiply–accumulate count for encoding one sequence
    /// of `len` tokens (used by the scalability study).
    pub fn flops(&self, len: usize) -> u64 {
        let len = len.clamp(self.min_len(), self.cfg.max_len.max(self.min_len()));
        let mut total = 0u64;
        for c in &self.convs {
            let positions = (len - c.width + 1) as u64;
            total += positions * (c.width * self.cfg.word_dim) as u64 * c.filters() as u64;
        }
        total += (self.proj.input_dim() * self.proj.output_dim()) as u64;
        total
    }

    /// Borrow the word-embedding table (tests / analysis).
    pub fn word_embeddings(&self) -> &Embedding {
        &self.words
    }
}

impl HasParams for TextCnnEncoder {
    fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut ps = vec![self.words.param_mut()];
        for c in &mut self.convs {
            ps.extend(c.params_mut());
        }
        ps.extend(self.proj.params_mut());
        ps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_cfg() -> CnnConfig {
        CnnConfig {
            vocab: 12,
            word_dim: 4,
            widths: vec![1, 2],
            filters_per_width: 3,
            out_dim: 5,
            max_len: 6,
        }
    }

    #[test]
    fn conv_known_value_single_filter() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv1d::new(&mut rng, 1, 1, 1);
        let mut ps = conv.params_mut();
        ps[0].value = Matrix::from_rows(&[vec![1.0]]);
        ps[1].value = Matrix::zeros(1, 1);
        drop(ps);
        // width-1, identity filter: output = max(tanh(x_i))
        let x = [-0.5, 0.8, 0.2];
        let mut out = [0.0];
        conv.pool_with(DispatchedOps, &x, &mut out, &mut [0]);
        assert!((out[0] - 0.8f32.tanh()).abs() < 1e-6);
    }

    #[test]
    fn conv_cache_records_argmax() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut conv = Conv1d::new(&mut rng, 1, 1, 1);
        let mut ps = conv.params_mut();
        ps[0].value = Matrix::from_rows(&[vec![1.0]]);
        ps[1].value = Matrix::zeros(1, 1);
        drop(ps);
        let mut arg = [0];
        conv.pool_with(DispatchedOps, &[0.1, 0.9, 0.3], &mut [0.0], &mut arg);
        assert_eq!(arg, [1]);
    }

    #[test]
    #[should_panic(expected = "shorter than filter width")]
    fn conv_rejects_short_sequences() {
        let mut rng = StdRng::seed_from_u64(3);
        let conv = Conv1d::new(&mut rng, 3, 2, 1);
        conv.pool_with(DispatchedOps, &[0.0; 4], &mut [0.0], &mut [0]);
    }

    #[test]
    fn encoder_infer_matches_forward() {
        let mut rng = StdRng::seed_from_u64(4);
        let enc = TextCnnEncoder::new(&mut rng, tiny_cfg());
        let tokens = [3u32, 5, 7, 1];
        let (e, _) = enc.forward(&tokens);
        assert_eq!(e, enc.infer(&tokens));
        assert_eq!(e.len(), 5);
    }

    #[test]
    fn encoder_handles_empty_and_long_input() {
        let mut rng = StdRng::seed_from_u64(5);
        let enc = TextCnnEncoder::new(&mut rng, tiny_cfg());
        let short = enc.infer(&[]);
        assert_eq!(short.len(), 5);
        assert!(short.iter().all(|x| x.is_finite()));
        let long: Vec<u32> = (0..50).map(|i| (i % 12) as u32).collect();
        let e = enc.infer(&long);
        assert!(e.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn similar_token_sequences_produce_similar_embeddings() {
        let mut rng = StdRng::seed_from_u64(6);
        let enc = TextCnnEncoder::new(&mut rng, tiny_cfg());
        let a = enc.infer(&[2, 3, 4, 5]);
        let b = enc.infer(&[2, 3, 4, 5]);
        let c = enc.infer(&[9, 10, 11, 8]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn gradcheck_full_encoder() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut enc = TextCnnEncoder::new(&mut rng, tiny_cfg());
        // Spread the word embeddings out: with the default tiny init
        // the max-pooling pre-activations are nearly tied across
        // positions and finite differences flip the argmax.
        enc.words.param_mut().value.scale(8.0);
        let tokens = [3u32, 5, 7, 1, 2];
        let weights: Vec<f32> = (0..5).map(|i| 0.5 - 0.3 * i as f32).collect();
        let loss = |enc: &TextCnnEncoder| -> f32 {
            enc.infer(&tokens)
                .iter()
                .zip(&weights)
                .map(|(e, w)| e * w)
                .sum()
        };
        let (_, cache) = enc.forward(&tokens);
        enc.backward(&cache, &weights);
        // NOTE: max-over-time pooling makes the loss only piecewise
        // smooth; with a tiny net and small eps the argmax is stable,
        // so finite differences remain valid.
        gradcheck::check_param_grads(&mut enc, loss, 3e-2, "TextCnnEncoder");
    }

    #[test]
    fn backward_into_plus_apply_matches_inline_backward() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut a = TextCnnEncoder::new(&mut rng, tiny_cfg());
        let mut b = a.clone();
        let tokens = [3u32, 5, 7, 1, 2];
        let grad_out = [0.5f32, -1.0, 0.25, 2.0, -0.75];

        let (_, cache_a) = a.forward(&tokens);
        a.backward(&cache_a, &grad_out);

        let (_, cache_b) = b.forward(&tokens);
        let mut buf = b.grad_buffer();
        b.backward_into(&cache_b, &grad_out, &mut buf);
        b.apply_grads(&mut buf);

        // Bit-identical gradients on every parameter, and the buffer
        // comes back cleared for reuse.
        let ga: Vec<Vec<f32>> = a
            .params_mut()
            .iter()
            .map(|p| p.grad.as_slice().to_vec())
            .collect();
        let gb: Vec<Vec<f32>> = b
            .params_mut()
            .iter()
            .map(|p| p.grad.as_slice().to_vec())
            .collect();
        assert_eq!(ga, gb);
        assert!(buf.words.is_empty());
        assert!(buf
            .convs
            .iter()
            .all(|(dw, db)| dw.as_slice().iter().all(|&x| x == 0.0)
                && db.as_slice().iter().all(|&x| x == 0.0)));
        assert!(buf.proj.0.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn adam_step_reduces_simple_loss() {
        // Train the encoder to push one embedding coordinate up: loss
        // should fall monotonically-ish over a few steps.
        let mut rng = StdRng::seed_from_u64(8);
        let mut enc = TextCnnEncoder::new(&mut rng, tiny_cfg());
        let tokens = [1u32, 2, 3];
        let hp = AdamHparams::with_lr(0.05);
        let loss_of = |e: &TextCnnEncoder| -e.infer(&tokens)[0];
        let before = loss_of(&enc);
        for t in 1..=30 {
            let (e, cache) = enc.forward(&tokens);
            let mut g = vec![0.0; e.len()];
            g[0] = -1.0; // d(-e0)/de
            enc.backward(&cache, &g);
            enc.adam_step(&hp, t);
        }
        let after = loss_of(&enc);
        assert!(
            after < before,
            "training did not reduce loss: {before} -> {after}"
        );
    }

    #[test]
    fn flops_monotone_in_length() {
        let mut rng = StdRng::seed_from_u64(9);
        let enc = TextCnnEncoder::new(&mut rng, tiny_cfg());
        assert!(enc.flops(6) >= enc.flops(3));
        assert!(enc.flops(3) > 0);
    }
}
