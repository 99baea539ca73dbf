//! NLP-based baselines: LSTM and Transformer triple classifiers.
//!
//! A triple is serialized as `title ⟨sep⟩ attribute ⟨sep⟩ value`
//! tokens and fed to a sequence encoder; a logistic head predicts
//! correctness. Training uses the observed triples as positives and
//! sampled value corruptions as negatives. These methods see *only
//! text* — no graph ids — which is why they transfer well to the
//! inductive setting but lag where structure dominates (FB-like data).

use pge_core::corpus::{build_corpus, TokenizedGraph};
use pge_core::ErrorDetector;
use pge_graph::{Dataset, NegativeSampler, ProductGraph, SamplingMode, Triple};
use pge_nn::{Activation, AdamHparams, Linear, Lstm, TransformerConfig, TransformerEncoder};
use pge_tensor::ops;
use pge_text::Vocab;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Which sequence architecture the classifier uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NlpArch {
    Lstm,
    Transformer,
}

impl NlpArch {
    pub fn name(self) -> &'static str {
        match self {
            NlpArch::Lstm => "LSTM",
            NlpArch::Transformer => "Transformer",
        }
    }
}

/// NLP classifier knobs.
#[derive(Clone, Debug)]
pub struct NlpConfig {
    pub arch: NlpArch,
    pub word_dim: usize,
    pub hidden: usize,
    pub max_len: usize,
    pub epochs: usize,
    pub batch: usize,
    /// Corruptions per positive.
    pub negatives: usize,
    pub lr: f32,
    pub sampling: SamplingMode,
    pub seed: u64,
}

impl Default for NlpConfig {
    fn default() -> Self {
        NlpConfig::for_arch(NlpArch::Transformer)
    }
}

impl NlpConfig {
    /// Tuned defaults per architecture (the paper grid-searches each
    /// baseline; these are the winners of our small grid — the
    /// transformer needs a gentler learning rate than the LSTM).
    pub fn for_arch(arch: NlpArch) -> Self {
        NlpConfig {
            arch,
            word_dim: 32,
            hidden: 32,
            max_len: 24,
            epochs: 10,
            batch: 32,
            negatives: 2,
            lr: match arch {
                NlpArch::Lstm => 3e-3,
                NlpArch::Transformer => 1e-3,
            },
            sampling: SamplingMode::GlobalUniform,
            seed: 31,
        }
    }

    pub fn tiny(arch: NlpArch) -> Self {
        NlpConfig {
            word_dim: 16,
            hidden: 16,
            max_len: 18,
            epochs: 6,
            ..NlpConfig::for_arch(arch)
        }
    }
}

enum SeqEncoder {
    Lstm(Box<Lstm>),
    Transformer(Box<TransformerEncoder>),
}

impl SeqEncoder {
    fn out_dim(&self) -> usize {
        match self {
            SeqEncoder::Lstm(e) => e.out_dim(),
            SeqEncoder::Transformer(e) => e.out_dim(),
        }
    }

    fn infer(&self, tokens: &[u32]) -> Vec<f32> {
        match self {
            SeqEncoder::Lstm(e) => e.infer(tokens),
            SeqEncoder::Transformer(e) => e.infer(tokens),
        }
    }

    fn adam_step(&mut self, hp: &AdamHparams, t: u64) {
        match self {
            SeqEncoder::Lstm(e) => e.adam_step(hp, t),
            SeqEncoder::Transformer(e) => e.adam_step(hp, t),
        }
    }
}

/// A trained NLP triple classifier.
pub struct NlpModel {
    /// Training-corpus vocabulary (unseen words map to `<unk>`).
    pub vocab: Vocab,
    encoder: SeqEncoder,
    head: Linear,
    arch: NlpArch,
    /// Token cache per graph title / value / attribute id.
    tokens: TokenizedGraph,
    attr_tokens: Vec<Vec<u32>>,
    pub train_secs: f64,
}

impl NlpModel {
    fn sequence(&self, t: &Triple) -> Vec<u32> {
        let mut seq = self.tokens.titles[t.product.0 as usize].clone();
        seq.extend(&self.attr_tokens[t.attr.0 as usize]);
        seq.extend(&self.tokens.values[t.value.0 as usize]);
        seq
    }

    /// P(correct) for a triple.
    pub fn prob_correct(&self, t: &Triple) -> f32 {
        let enc = self.encoder.infer(&self.sequence(t));
        ops::sigmoid(self.head.infer(&enc)[0])
    }
}

impl ErrorDetector for NlpModel {
    fn name(&self) -> String {
        self.arch.name().to_string()
    }

    fn plausibility(&self, _graph: &ProductGraph, t: &Triple) -> f32 {
        self.prob_correct(t)
    }
}

/// Train an NLP triple classifier.
pub fn train_nlp(dataset: &Dataset, cfg: &NlpConfig) -> NlpModel {
    let start = Instant::now();
    let graph = &dataset.graph;
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Vocabulary from training triples only.
    let vocab = build_corpus(graph, &dataset.train).vocab;

    let encoder = match cfg.arch {
        NlpArch::Lstm => SeqEncoder::Lstm(Box::new(Lstm::new(
            &mut rng,
            vocab.len(),
            cfg.word_dim,
            cfg.hidden,
            cfg.max_len,
        ))),
        NlpArch::Transformer => SeqEncoder::Transformer(Box::new(TransformerEncoder::new(
            &mut rng,
            TransformerConfig {
                vocab: vocab.len(),
                dim: cfg.hidden,
                heads: (cfg.hidden / 8).clamp(1, 4),
                layers: 1,
                ffn_dim: cfg.hidden * 2,
                max_len: cfg.max_len,
            },
        ))),
    };
    let head = Linear::new(&mut rng, encoder.out_dim(), 1, Activation::None);

    let tokens = TokenizedGraph::new(&vocab, graph);
    let attr_tokens = graph
        .attr_names()
        .iter()
        .map(|a| vocab.encode_text(a))
        .collect();

    let mut model = NlpModel {
        vocab,
        encoder,
        head,
        arch: cfg.arch,
        tokens,
        attr_tokens,
        train_secs: 0.0,
    };

    let sampler = NegativeSampler::new(graph, cfg.sampling);
    let hp = AdamHparams::with_lr(cfg.lr);
    let mut order: Vec<usize> = (0..dataset.train.len()).collect();
    let mut step = 0u64;
    for _epoch in 0..cfg.epochs {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for batch in order.chunks(cfg.batch.max(1)) {
            step += 1;
            for &i in batch {
                let pos = dataset.train[i];
                train_example(&mut model, &pos, 1.0);
                for _ in 0..cfg.negatives {
                    if let Some(v) = sampler.sample_one(&mut rng, &pos) {
                        let neg = Triple::new(pos.product, pos.attr, v);
                        train_example(&mut model, &neg, 0.0);
                    }
                }
            }
            model.encoder_step(&hp, step);
        }
    }
    model.train_secs = start.elapsed().as_secs_f64();
    model
}

impl NlpModel {
    fn encoder_step(&mut self, hp: &AdamHparams, step: u64) {
        self.encoder.adam_step(hp, step);
        self.head.adam_step(hp, step);
    }
}

/// One BCE step on a (triple, label) example; accumulates grads.
fn train_example(model: &mut NlpModel, t: &Triple, label: f32) {
    let seq = model.sequence(t);
    match &mut model.encoder {
        SeqEncoder::Lstm(enc) => {
            let (h, cache) = enc.forward(&seq);
            let (logit, head_cache) = model.head.forward(&h);
            let p = ops::sigmoid(logit[0]);
            let dlogit = p - label; // dBCE/dlogit
            let dh = model.head.backward(&head_cache, &[dlogit]);
            enc.backward(&cache, &dh);
        }
        SeqEncoder::Transformer(enc) => {
            let (h, cache) = enc.forward(&seq);
            let (logit, head_cache) = model.head.forward(&h);
            let p = ops::sigmoid(logit[0]);
            let dlogit = p - label;
            let dh = model.head.backward(&head_cache, &[dlogit]);
            enc.backward(&cache, &dh);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pge_graph::LabeledTriple;

    /// Text-separable dataset: titles contain the flavor word, values
    /// either match ("spicy" on a spicy title) or not.
    fn texty_dataset() -> Dataset {
        let mut g = ProductGraph::new();
        let mut train = Vec::new();
        for i in 0..40 {
            let flavor = if i % 2 == 0 { "spicy" } else { "sweet" };
            let title = format!("brand{i} {flavor} snack chips number {i}");
            train.push(g.add_fact(&title, "flavor", flavor));
        }
        let mut test = Vec::new();
        for i in 0..10 {
            let (flavor, wrong) = if i % 2 == 0 {
                ("spicy", "sweet")
            } else {
                ("sweet", "spicy")
            };
            let title = format!("newbrand{i} {flavor} snack chips fresh");
            let pid = g.intern_product(&title);
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
    fn lstm_learns_text_consistency() {
        let d = texty_dataset();
        // The label here depends on the *interaction* between the
        // flavor word in the title and the value token (each value is
        // correct for exactly half the titles), which the LSTM only
        // picks up with a longer budget and hotter learning rate than
        // the plain tiny() config.
        let m = train_nlp(
            &d,
            &NlpConfig {
                epochs: 48,
                lr: 1e-2,
                ..NlpConfig::tiny(NlpArch::Lstm)
            },
        );
        let (mut good, mut bad) = (0.0, 0.0);
        for lt in &d.test {
            let p = m.prob_correct(&lt.triple);
            if lt.correct {
                good += p;
            } else {
                bad += p;
            }
        }
        assert!(good > bad, "good={good} bad={bad}");
    }

    #[test]
    fn transformer_learns_text_consistency() {
        let d = texty_dataset();
        let m = train_nlp(
            &d,
            &NlpConfig {
                epochs: 12,
                ..NlpConfig::tiny(NlpArch::Transformer)
            },
        );
        let (mut good, mut bad) = (0.0, 0.0);
        for lt in &d.test {
            let p = m.prob_correct(&lt.triple);
            if lt.correct {
                good += p;
            } else {
                bad += p;
            }
        }
        assert!(good > bad, "good={good} bad={bad}");
    }

    #[test]
    fn probabilities_in_unit_interval() {
        let d = texty_dataset();
        let m = train_nlp(
            &d,
            &NlpConfig {
                epochs: 2,
                ..NlpConfig::tiny(NlpArch::Lstm)
            },
        );
        for lt in &d.test {
            let p = m.prob_correct(&lt.triple);
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn names_match_paper_labels() {
        assert_eq!(NlpArch::Lstm.name(), "LSTM");
        assert_eq!(NlpArch::Transformer.name(), "Transformer");
    }

    #[test]
    fn vocab_is_training_only() {
        let d = texty_dataset();
        let m = train_nlp(
            &d,
            &NlpConfig {
                epochs: 1,
                ..NlpConfig::tiny(NlpArch::Lstm)
            },
        );
        assert!(m.vocab.get("brand0").is_some());
        // Test-only words are absent.
        assert!(m.vocab.get("newbrand0").is_none());
    }
}
