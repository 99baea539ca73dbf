//! PGE(BERT): PGE's objective (Eq. 3) and its noise-aware confidence
//! weighting (Eq. 6) over a deep Transformer text encoder with `[CLS]`
//! pooling instead of the CNN. It exists for one row of the paper's
//! Table 5 (§4.6), the cost contrast that runs out of budget beyond
//! 10 % of the catalog.
//!
//! It reads the same [`PgeConfig`] as [`pge_core::train_pge`] but
//! trains in one serial loop, the way DKRL does: the Transformer's
//! backward pass accumulates into its own parameters, so there are no
//! gradient lanes and `threads` is ignored. Confidence always follows
//! the `pge` backend (Eq. 6), and the CNN-only knobs (`word_dim`,
//! `widths`, `filters_per_width`, `word2vec_epochs`) do not apply. The
//! model is never checkpointed or saved.

use pge_core::corpus::{build_corpus, TokenizedGraph};
use pge_core::trainer::shuffle_into;
use pge_core::{ConfidenceStore, ErrorDetector, PgeConfig, ScoreKind, Scorer};
use pge_graph::{Dataset, NegativeSampler, ProductGraph, Triple};
use pge_nn::{AdamHparams, Embedding, TransformerConfig, TransformerEncoder};
use pge_tensor::ops;
use pge_text::Vocab;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// A trained PGE(BERT) model.
pub struct PgeBertModel {
    /// Training-corpus vocabulary (unseen words map to `<unk>`).
    pub vocab: Vocab,
    encoder: TransformerEncoder,
    relations: Embedding,
    scorer: Scorer,
    /// Mean triple loss per epoch.
    pub epoch_losses: Vec<f32>,
    pub train_secs: f64,
}

impl ErrorDetector for PgeBertModel {
    fn name(&self) -> String {
        format!("PGE(BERT)-{}", self.scorer.kind.name())
    }

    fn plausibility(&self, graph: &ProductGraph, t: &Triple) -> f32 {
        let embed = |text: &str| self.encoder.infer(&self.vocab.encode_text(text));
        let h = embed(graph.title(t.product));
        let v = embed(graph.value_text(t.value));
        self.scorer
            .score(&h, self.relations.row(t.attr.0 as u32), &v)
    }
}

/// Train PGE(BERT) on a dataset's training split.
pub fn train_pge_bert(dataset: &Dataset, cfg: &PgeConfig) -> PgeBertModel {
    let start = Instant::now();
    let graph = &dataset.graph;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let scorer = Scorer::new(cfg.score, cfg.gamma);
    let vocab = build_corpus(graph, &dataset.train).vocab;
    // The [CLS] state is the entity representation, so the encoder's
    // width is the entity dimension.
    let dim = cfg.dim.max(16);
    let mut encoder = TransformerEncoder::new(
        &mut rng,
        TransformerConfig {
            vocab: vocab.len(),
            dim,
            heads: 4,
            layers: 4,
            ffn_dim: dim * 4,
            max_len: cfg.max_len.max(8),
        },
    );
    let attrs = graph.num_attrs().max(1);
    let mut relations = if cfg.score == ScoreKind::RotatE && cfg.rotate_phase_init {
        Embedding::new_phases(&mut rng, attrs, scorer.rel_dim(dim))
    } else {
        Embedding::new_xavier(&mut rng, attrs, scorer.rel_dim(dim))
    };
    let tokens = TokenizedGraph::new(&vocab, graph);

    let sampler = NegativeSampler::new(graph, cfg.sampling);
    let mut confidence =
        ConfidenceStore::new(dataset.train.len(), cfg.alpha, cfg.beta, cfg.confidence_lr);
    let hp = AdamHparams::with_lr(cfg.lr);
    let k = cfg.negatives.max(1);
    let mut order = vec![0; dataset.train.len()];
    let mut step = 0u64;
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    let (mut dh, mut dr, mut dv) = (
        vec![0.0f32; dim],
        vec![0.0f32; scorer.rel_dim(dim)],
        vec![0.0f32; dim],
    );
    for epoch in 0..cfg.epochs {
        shuffle_into(&mut order, 0.., cfg.seed, epoch);
        let confidence_active = cfg.noise_aware && epoch >= cfg.confidence_warmup;
        let (mut loss_sum, mut loss_n) = (0.0f64, 0usize);
        for batch in order.chunks(cfg.batch.max(1)) {
            step += 1;
            for &i in batch {
                let triple = dataset.train[i];
                let (e_t, cache_t) = encoder.forward(&tokens.titles[triple.product.0 as usize]);
                let (e_v, cache_v) = encoder.forward(&tokens.values[triple.value.0 as usize]);
                let r = relations.row(triple.attr.0 as u32).to_vec();
                let f_pos = scorer.score(&e_t, &r, &e_v);
                let negs = sampler.sample(&mut rng, &triple, k);
                if negs.is_empty() {
                    continue;
                }
                // Eq. 3's per-triple term, weighted by the triple's
                // confidence once Eq. 6 is active.
                let mut l_i = -ops::log_sigmoid(f_pos);
                let w = if confidence_active {
                    confidence.get(i)
                } else {
                    1.0
                };
                dh.fill(0.0);
                dr.fill(0.0);
                if w > 0.0 {
                    // Positive term: dL/df⁺ = −σ(−f⁺).
                    dv.fill(0.0);
                    let df_pos = -w * ops::sigmoid(-f_pos);
                    scorer.backward(&e_t, &r, &e_v, df_pos, &mut dh, &mut dr, &mut dv);
                    encoder.backward(&cache_v, &dv);
                }
                let inv_k = 1.0 / negs.len() as f32;
                for &neg in &negs {
                    let (e_n, cache_n) = encoder.forward(&tokens.values[neg.0 as usize]);
                    let f_neg = scorer.score(&e_t, &r, &e_n);
                    l_i += -inv_k * ops::log_sigmoid(-f_neg);
                    if w > 0.0 {
                        // Negative term: dL/df⁻ = σ(f⁻)/k.
                        dv.fill(0.0);
                        let df_neg = w * inv_k * ops::sigmoid(f_neg);
                        scorer.backward(&e_t, &r, &e_n, df_neg, &mut dh, &mut dr, &mut dv);
                        encoder.backward(&cache_n, &dv);
                    }
                }
                if w > 0.0 {
                    encoder.backward(&cache_t, &dh);
                    relations.accumulate_grad(triple.attr.0 as u32, &dr);
                }
                if confidence_active {
                    confidence.update(i, l_i);
                }
                loss_sum += l_i as f64;
                loss_n += 1;
            }
            encoder.adam_step(&hp, step);
            relations.adam_step(&hp, step);
        }
        epoch_losses.push(if loss_n == 0 {
            0.0
        } else {
            (loss_sum / loss_n as f64) as f32
        });
    }

    PgeBertModel {
        vocab,
        encoder,
        relations,
        scorer,
        epoch_losses,
        train_secs: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pge_nn::{CnnConfig, TextCnnEncoder};

    /// The paper's "CNN ≪ BERT" cost claim: at the same sequence
    /// length the BERT-style encoder costs over ten times the CNN's
    /// multiply-adds.
    #[test]
    fn bert_flops_dominate_cnn() {
        let mut rng = StdRng::seed_from_u64(4);
        let words = Embedding::new(&mut rng, 20, 8);
        let cnn = TextCnnEncoder::with_embeddings(
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
        let bert = TransformerEncoder::new(&mut rng, TransformerConfig::bert_style(20));
        assert!(bert.flops(16) > 10 * cnn.flops(16));
    }

    #[test]
    fn trains_with_decreasing_loss() {
        let mut g = ProductGraph::new();
        let mut train = Vec::new();
        for i in 0..30 {
            let (flavor, ing, word) = if i % 2 == 0 {
                ("spicy", "cayenne pepper", "hot")
            } else {
                ("sweet", "cane sugar", "honey")
            };
            let title = format!("brand{i} {word} {flavor} snack chips {i}");
            train.push(g.add_fact(&title, "flavor", flavor));
            train.push(g.add_fact(&title, "ingredient", ing));
        }
        let probe = train[0];
        let d = Dataset::new(g, train, vec![], vec![]);
        let cfg = PgeConfig {
            epochs: 6,
            batch: 16,
            dim: 16,
            ..PgeConfig::tiny()
        };
        let m = train_pge_bert(&d, &cfg);
        assert_eq!(m.name(), "PGE(BERT)-RotatE");
        assert!(m.plausibility(&d.graph, &probe).is_finite());
        let (first, last) = (m.epoch_losses[0], *m.epoch_losses.last().unwrap());
        assert!(last < first, "loss did not decrease: {:?}", m.epoch_losses);
    }
}
