//! PGE's text encoder: the shallow multi-width CNN of the paper's
//! Fig. 4. PGE(BERT), the Transformer cost contrast of Table 5, is a
//! baseline (`pge_baselines::pge_bert`), not a second arm of this type.

use pge_nn::{CnnConfig, Embedding, TextCnnEncoder};
use rand::Rng;
use std::ops::{Deref, DerefMut};

/// The CNN text encoder behind [`crate::PgeModel::encoder`]. It stays a
/// one-variant enum only because the benchmark crate matches
/// `TextEncoder::Cnn(enc)`; it derefs to the [`TextCnnEncoder`], and it
/// goes away once the benchmark crate stops naming the variant.
#[derive(Clone, Debug)]
pub enum TextEncoder {
    Cnn(TextCnnEncoder),
}

impl TextEncoder {
    /// Build a CNN encoder on pre-trained word embeddings.
    pub fn cnn<R: Rng>(rng: &mut R, cfg: CnnConfig, words: Embedding) -> Self {
        TextEncoder::Cnn(TextCnnEncoder::with_embeddings(rng, cfg, words))
    }
}

impl Deref for TextEncoder {
    type Target = TextCnnEncoder;

    fn deref(&self) -> &TextCnnEncoder {
        let TextEncoder::Cnn(e) = self;
        e
    }
}

impl DerefMut for TextEncoder {
    fn deref_mut(&mut self) -> &mut TextCnnEncoder {
        let TextEncoder::Cnn(e) = self;
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn unified_api_cnn() {
        let mut rng = StdRng::seed_from_u64(1);
        let words = Embedding::new(&mut rng, 20, 8);
        let enc = TextEncoder::cnn(
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
        );
        assert_eq!(enc.out_dim(), 6);
        let (e, _) = enc.forward(&[3, 4, 5]);
        assert_eq!(e, enc.infer(&[3, 4, 5]));
    }
}
