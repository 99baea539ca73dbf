//! Text-encoder abstraction: CNN (the paper's choice) or the deep
//! BERT-style Transformer used in the scalability analysis (§4.6).

use pge_nn::{
    AdamHparams, CnnConfig, Embedding, TextCnnEncoder, TransformerConfig, TransformerEncoder,
};
use rand::Rng;

/// Which text encoder PGE uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EncoderKind {
    /// Shallow multi-width CNN (Fig. 4). Scales to large PGs.
    Cnn,
    /// Deep Transformer with [CLS] pooling. Reproduces the PGE(BERT)
    /// rows of Table 5 — far more expensive per token.
    Bert,
}

impl EncoderKind {
    pub fn name(self) -> &'static str {
        match self {
            EncoderKind::Cnn => "CNN",
            EncoderKind::Bert => "BERT",
        }
    }
}

/// A text encoder of either kind with the unified API the trainer
/// needs.
#[derive(Clone, Debug)]
pub enum TextEncoder {
    Cnn(TextCnnEncoder),
    Bert(TransformerEncoder),
}

/// Backward cache matching [`TextEncoder::forward`].
#[derive(Clone, Debug)]
pub enum EncCache {
    Cnn(pge_nn::conv::CnnEncCache),
    Bert(pge_nn::transformer::TransformerCache),
}

impl TextEncoder {
    /// Build a CNN encoder on pre-trained word embeddings.
    pub fn cnn<R: Rng>(rng: &mut R, cfg: CnnConfig, words: Embedding) -> Self {
        TextEncoder::Cnn(TextCnnEncoder::with_embeddings(rng, cfg, words))
    }

    /// Build a BERT-style encoder (owns its own token embeddings; the
    /// [CLS] pooling requires them to be trained jointly anyway).
    pub fn bert<R: Rng>(rng: &mut R, cfg: TransformerConfig) -> Self {
        TextEncoder::Bert(TransformerEncoder::new(rng, cfg))
    }

    pub fn kind(&self) -> EncoderKind {
        match self {
            TextEncoder::Cnn(_) => EncoderKind::Cnn,
            TextEncoder::Bert(_) => EncoderKind::Bert,
        }
    }

    pub fn out_dim(&self) -> usize {
        match self {
            TextEncoder::Cnn(e) => e.out_dim(),
            TextEncoder::Bert(e) => e.out_dim(),
        }
    }

    /// Inference-only encoding; `&self`, thread-safe.
    pub fn infer(&self, tokens: &[u32]) -> Vec<f32> {
        match self {
            TextEncoder::Cnn(e) => e.infer(tokens),
            TextEncoder::Bert(e) => e.infer(tokens),
        }
    }

    /// [`TextEncoder::infer`] reusing `cache`'s buffers: the CNN's only
    /// allocation is the returned vector.
    pub fn infer_with(&self, tokens: &[u32], cache: &mut pge_nn::conv::CnnEncCache) -> Vec<f32> {
        match self {
            TextEncoder::Cnn(e) => {
                e.forward_into(tokens, cache);
                cache.embedding().to_vec()
            }
            TextEncoder::Bert(e) => e.infer(tokens),
        }
    }

    /// Training forward.
    pub fn forward(&self, tokens: &[u32]) -> (Vec<f32>, EncCache) {
        match self {
            TextEncoder::Cnn(e) => {
                let (out, c) = e.forward(tokens);
                (out, EncCache::Cnn(c))
            }
            TextEncoder::Bert(e) => {
                let (out, c) = e.forward(tokens);
                (out, EncCache::Bert(c))
            }
        }
    }

    /// Backward; cache must come from this encoder's `forward`.
    ///
    /// # Panics
    /// Panics when the cache kind does not match the encoder kind.
    pub fn backward(&mut self, cache: &EncCache, grad: &[f32]) {
        match (self, cache) {
            (TextEncoder::Cnn(e), EncCache::Cnn(c)) => e.backward(c, grad),
            (TextEncoder::Bert(e), EncCache::Bert(c)) => e.backward(c, grad),
            _ => panic!("encoder/cache kind mismatch"),
        }
    }

    pub fn adam_step(&mut self, hp: &AdamHparams, t: u64) {
        match self {
            TextEncoder::Cnn(e) => e.adam_step(hp, t),
            TextEncoder::Bert(e) => e.adam_step(hp, t),
        }
    }

    /// Approximate MACs for encoding `len` tokens (Table 5 analysis).
    pub fn flops(&self, len: usize) -> u64 {
        match self {
            TextEncoder::Cnn(e) => e.flops(len),
            TextEncoder::Bert(e) => e.flops(len),
        }
    }
}

impl pge_nn::gradcheck::HasParams for TextEncoder {
    fn params_mut(&mut self) -> Vec<&mut pge_nn::Param> {
        match self {
            TextEncoder::Cnn(e) => e.params_mut(),
            TextEncoder::Bert(e) => e.params_mut(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cnn_enc() -> TextEncoder {
        let mut rng = StdRng::seed_from_u64(1);
        let words = Embedding::new(&mut rng, 20, 8);
        TextEncoder::cnn(
            &mut rng,
            CnnConfig {
                vocab: 20,
                word_dim: 8,
                widths: vec![1, 2],
                filters_per_width: 4,
                out_dim: 6,
                max_len: 10,
            },
            words,
        )
    }

    #[test]
    fn unified_api_cnn() {
        let enc = cnn_enc();
        assert_eq!(enc.kind(), EncoderKind::Cnn);
        assert_eq!(enc.out_dim(), 6);
        let (e, _) = enc.forward(&[3, 4, 5]);
        assert_eq!(e, enc.infer(&[3, 4, 5]));
    }

    #[test]
    fn unified_api_bert() {
        let mut rng = StdRng::seed_from_u64(2);
        let enc = TextEncoder::bert(
            &mut rng,
            TransformerConfig {
                vocab: 20,
                dim: 8,
                heads: 2,
                layers: 1,
                ffn_dim: 12,
                max_len: 8,
            },
        );
        assert_eq!(enc.kind(), EncoderKind::Bert);
        let (e, _) = enc.forward(&[3, 4, 5]);
        assert_eq!(e, enc.infer(&[3, 4, 5]));
        assert_eq!(e.len(), 8);
    }

    #[test]
    #[should_panic(expected = "kind mismatch")]
    fn mismatched_cache_panics() {
        let mut rng = StdRng::seed_from_u64(3);
        let cnn = cnn_enc();
        let mut bert = TextEncoder::bert(
            &mut rng,
            TransformerConfig {
                vocab: 20,
                dim: 8,
                heads: 2,
                layers: 1,
                ffn_dim: 12,
                max_len: 8,
            },
        );
        let (_, cache) = cnn.forward(&[1, 2, 3]);
        bert.backward(&cache, &[0.0; 8]);
    }

    #[test]
    fn bert_flops_dominate_cnn() {
        let mut rng = StdRng::seed_from_u64(4);
        let cnn = cnn_enc();
        let bert = TextEncoder::bert(&mut rng, TransformerConfig::bert_style(20));
        assert!(bert.flops(16) > 10 * cnn.flops(16));
    }
}
