//! DKRL (Xie et al., 2016): description-embodied knowledge
//! representation learning — the paper's representative "text and KG
//! joint embedding" baseline.
//!
//! DKRL keeps *two* representations per entity: a structural id
//! embedding and a CNN encoding of its description. Crucially — and
//! this is the weakness the PGE paper calls out — the two are trained
//! by **separate energy functions** (`E_S` on the structural vectors,
//! `E_D` on the description vectors, sharing only the relation
//! embedding) and combined at detection time by a **linear
//! combination** `λ·f_S + (1−λ)·f_D`, instead of learning one unified
//! representation.

use pge_core::corpus::{build_corpus, TokenizedGraph};
use pge_core::{ErrorDetector, ScoreKind, Scorer};
use pge_graph::{Dataset, NegativeSampler, ProductGraph, SamplingMode, Triple};
use pge_nn::{AdamHparams, CnnConfig, Embedding, TextCnnEncoder};
use pge_tensor::ops;
use pge_text::Vocab;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// DKRL training knobs.
#[derive(Clone, Debug)]
pub struct DkrlConfig {
    pub dim: usize,
    pub word_dim: usize,
    pub gamma: f32,
    pub epochs: usize,
    pub batch: usize,
    pub negatives: usize,
    pub lr: f32,
    /// Detection-time mixing weight of the structural score.
    pub lambda: f32,
    pub max_len: usize,
    pub sampling: SamplingMode,
    pub seed: u64,
}

impl Default for DkrlConfig {
    fn default() -> Self {
        DkrlConfig {
            dim: 32,
            word_dim: 32,
            gamma: 6.0,
            epochs: 12,
            batch: 128,
            negatives: 4,
            lr: 3e-3,
            lambda: 0.5,
            max_len: 20,
            sampling: SamplingMode::GlobalUniform,
            seed: 37,
        }
    }
}

impl DkrlConfig {
    pub fn tiny() -> Self {
        DkrlConfig {
            dim: 16,
            word_dim: 16,
            epochs: 6,
            max_len: 14,
            ..Default::default()
        }
    }
}

/// A trained DKRL model.
pub struct DkrlModel {
    /// Training-corpus vocabulary (unseen words map to `<unk>`).
    pub vocab: Vocab,
    heads_s: Embedding,
    tails_s: Embedding,
    rels: Embedding,
    encoder: TextCnnEncoder,
    scorer: Scorer,
    lambda: f32,
    tokens: TokenizedGraph,
    pub train_secs: f64,
}

impl DkrlModel {
    /// Structural energy score.
    pub fn score_structural(&self, t: &Triple) -> f32 {
        self.scorer.score(
            self.heads_s.row(t.product.0),
            self.rels.row(t.attr.0 as u32),
            self.tails_s.row(t.value.0),
        )
    }

    /// Description energy score.
    pub fn score_description(&self, t: &Triple) -> f32 {
        let h = self
            .encoder
            .infer(&self.tokens.titles[t.product.0 as usize]);
        let v = self.encoder.infer(&self.tokens.values[t.value.0 as usize]);
        self.scorer.score(&h, self.rels.row(t.attr.0 as u32), &v)
    }

    /// Linear combination used for detection.
    pub fn score(&self, t: &Triple) -> f32 {
        self.lambda * self.score_structural(t) + (1.0 - self.lambda) * self.score_description(t)
    }
}

impl ErrorDetector for DkrlModel {
    fn name(&self) -> String {
        "DKRL".into()
    }

    fn plausibility(&self, _graph: &ProductGraph, t: &Triple) -> f32 {
        self.score(t)
    }
}

/// Train DKRL: structural TransE + description TransE as separate
/// losses over shared relation vectors.
pub fn train_dkrl(dataset: &Dataset, cfg: &DkrlConfig) -> DkrlModel {
    let start = Instant::now();
    let graph = &dataset.graph;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let scorer = Scorer::new(ScoreKind::TransE, cfg.gamma);

    let corpus = build_corpus(graph, &dataset.train);
    let vocab = corpus.vocab;
    let words = Embedding::new(&mut rng, vocab.len(), cfg.word_dim);
    let mut encoder = TextCnnEncoder::with_embeddings(
        &mut rng,
        CnnConfig {
            vocab: vocab.len(),
            word_dim: cfg.word_dim,
            widths: vec![1, 2],
            filters_per_width: cfg.dim / 2,
            out_dim: cfg.dim,
            max_len: cfg.max_len,
        },
        words,
    );
    let mut heads_s = Embedding::new_xavier(&mut rng, graph.num_products().max(1), cfg.dim);
    let mut tails_s = Embedding::new_xavier(&mut rng, graph.num_values().max(1), cfg.dim);
    let mut rels =
        Embedding::new_xavier(&mut rng, graph.num_attrs().max(1), scorer.rel_dim(cfg.dim));

    let tokens = TokenizedGraph::new(&vocab, graph);

    let sampler = NegativeSampler::new(graph, cfg.sampling);
    let hp = AdamHparams::with_lr(cfg.lr);
    let k = cfg.negatives.max(1);
    let mut order: Vec<usize> = (0..dataset.train.len()).collect();
    let mut step = 0u64;
    let dim = cfg.dim;
    for _epoch in 0..cfg.epochs {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for batch in order.chunks(cfg.batch.max(1)) {
            step += 1;
            for &i in batch {
                let triple = dataset.train[i];
                let negs = sampler.sample(&mut rng, &triple, k);
                if negs.is_empty() {
                    continue;
                }
                let inv_k = 1.0 / negs.len() as f32;
                let r = rels.row(triple.attr.0 as u32).to_vec();
                let mut dr = vec![0.0f32; r.len()];

                // --- Structural energy E_S (own loss). ---
                {
                    let h = heads_s.row(triple.product.0).to_vec();
                    let t = tails_s.row(triple.value.0).to_vec();
                    let mut dh = vec![0.0f32; dim];
                    let mut dt = vec![0.0f32; dim];
                    let f_pos = scorer.score(&h, &r, &t);
                    scorer.backward(&h, &r, &t, -ops::sigmoid(-f_pos), &mut dh, &mut dr, &mut dt);
                    tails_s.accumulate_grad(triple.value.0, &dt);
                    for &neg in &negs {
                        let tn = tails_s.row(neg.0).to_vec();
                        let f_neg = scorer.score(&h, &r, &tn);
                        let mut dtn = vec![0.0f32; dim];
                        scorer.backward(
                            &h,
                            &r,
                            &tn,
                            inv_k * ops::sigmoid(f_neg),
                            &mut dh,
                            &mut dr,
                            &mut dtn,
                        );
                        tails_s.accumulate_grad(neg.0, &dtn);
                    }
                    heads_s.accumulate_grad(triple.product.0, &dh);
                }

                // --- Description energy E_D (separate loss). ---
                {
                    let (h, cache_h) = encoder.forward(&tokens.titles[triple.product.0 as usize]);
                    let (t, cache_t) = encoder.forward(&tokens.values[triple.value.0 as usize]);
                    let mut dh = vec![0.0f32; dim];
                    let mut dt = vec![0.0f32; dim];
                    let f_pos = scorer.score(&h, &r, &t);
                    scorer.backward(&h, &r, &t, -ops::sigmoid(-f_pos), &mut dh, &mut dr, &mut dt);
                    encoder.backward(&cache_t, &dt);
                    for &neg in &negs {
                        let (tn, cache_n) = encoder.forward(&tokens.values[neg.0 as usize]);
                        let f_neg = scorer.score(&h, &r, &tn);
                        let mut dtn = vec![0.0f32; dim];
                        scorer.backward(
                            &h,
                            &r,
                            &tn,
                            inv_k * ops::sigmoid(f_neg),
                            &mut dh,
                            &mut dr,
                            &mut dtn,
                        );
                        encoder.backward(&cache_n, &dtn);
                    }
                    encoder.backward(&cache_h, &dh);
                }

                rels.accumulate_grad(triple.attr.0 as u32, &dr);
            }
            heads_s.adam_step(&hp, step);
            tails_s.adam_step(&hp, step);
            rels.adam_step(&hp, step);
            encoder.adam_step(&hp, step);
        }
    }

    DkrlModel {
        vocab,
        heads_s,
        tails_s,
        rels,
        encoder,
        scorer,
        lambda: cfg.lambda,
        tokens,
        train_secs: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pge_graph::LabeledTriple;

    fn texty_dataset() -> Dataset {
        let mut g = ProductGraph::new();
        let mut train = Vec::new();
        for i in 0..40 {
            let flavor = if i % 2 == 0 { "spicy" } else { "sweet" };
            let title = format!("brand{i} {flavor} snack chips item {i}");
            train.push(g.add_fact(&title, "flavor", flavor));
        }
        let mut test = Vec::new();
        for i in 0..8 {
            let (flavor, wrong) = if i % 2 == 0 {
                ("spicy", "sweet")
            } else {
                ("sweet", "spicy")
            };
            let title = format!("brand{i} {flavor} snack chips item {i}");
            let pid = g.lookup_product(&title).unwrap();
            let attr = g.intern_attr("flavor");
            test.push(LabeledTriple {
                triple: Triple::new(pid, attr, g.intern_value(flavor)),
                correct: true,
            });
            test.push(LabeledTriple {
                triple: Triple::new(pid, attr, g.intern_value(wrong)),
                correct: false,
            });
        }
        Dataset::new(g, train, vec![], test)
    }

    #[test]
    fn separates_correct_from_swapped() {
        let d = texty_dataset();
        let cfg = DkrlConfig {
            epochs: 12,
            sampling: SamplingMode::PerAttribute,
            ..DkrlConfig::tiny()
        };
        let m = train_dkrl(&d, &cfg);
        let (mut good, mut bad) = (0.0, 0.0);
        for lt in &d.test {
            let f = m.score(&lt.triple);
            if lt.correct {
                good += f;
            } else {
                bad += f;
            }
        }
        assert!(good > bad, "good={good} bad={bad}");
    }

    #[test]
    fn lambda_mixes_the_two_energies() {
        let d = texty_dataset();
        let mut m = train_dkrl(
            &d,
            &DkrlConfig {
                epochs: 2,
                ..DkrlConfig::tiny()
            },
        );
        let t = d.test[0].triple;
        m.lambda = 1.0;
        let s_only = m.score(&t);
        assert!((s_only - m.score_structural(&t)).abs() < 1e-6);
        m.lambda = 0.0;
        let d_only = m.score(&t);
        assert!((d_only - m.score_description(&t)).abs() < 1e-6);
    }

    #[test]
    fn vocab_from_training_text() {
        let d = texty_dataset();
        let m = train_dkrl(
            &d,
            &DkrlConfig {
                epochs: 1,
                ..DkrlConfig::tiny()
            },
        );
        assert!(m.vocab.get("spicy").is_some());
        assert_eq!(m.name(), "DKRL");
    }
}
