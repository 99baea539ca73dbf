//! Structure-based KG embedding baselines: id-embedded entities with
//! TransE / DistMult / ComplEx / RotatE scoring.
//!
//! This is the classic setup the paper contrasts PGE against: every
//! product title and every value string gets an *opaque id* and a
//! learnable vector. Surface variants of the same concept ("chipotle
//! pepper" / "chipotle pepper powder") become unrelated entities —
//! exactly the weakness (C1) the paper identifies.

use pge_core::{ErrorDetector, ScoreKind, Scorer};
use pge_graph::{Dataset, NegativeSampler, ProductGraph, SamplingMode, Triple};
use pge_nn::{AdamHparams, Embedding};
use pge_tensor::ops;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Training knobs for the id-based KGE baselines.
#[derive(Clone, Debug)]
pub struct KgeConfig {
    pub dim: usize,
    pub score: ScoreKind,
    pub gamma: f32,
    pub epochs: usize,
    pub batch: usize,
    pub negatives: usize,
    pub lr: f32,
    pub sampling: SamplingMode,
    /// Self-adversarial negative weighting temperature (Sun et al.,
    /// 2019): negatives are weighted by softmax(α·f) instead of 1/k.
    /// `None` = uniform weighting.
    pub adversarial_temp: Option<f32>,
    pub seed: u64,
}

impl Default for KgeConfig {
    fn default() -> Self {
        KgeConfig {
            dim: 32,
            score: ScoreKind::RotatE,
            gamma: 6.0,
            epochs: 25,
            batch: 256,
            negatives: 4,
            lr: 1e-2,
            sampling: SamplingMode::GlobalUniform,
            adversarial_temp: Some(1.0),
            seed: 21,
        }
    }
}

impl KgeConfig {
    pub fn tiny() -> Self {
        KgeConfig {
            dim: 16,
            epochs: 10,
            ..Default::default()
        }
    }
}

/// A trained id-based KGE model.
pub struct KgeModel {
    pub heads: Embedding,
    pub tails: Embedding,
    pub rels: Embedding,
    pub scorer: Scorer,
    /// Wall-clock training seconds (Table 3/5 columns).
    pub train_secs: f64,
    pub(crate) name: String,
}

impl KgeModel {
    pub fn score(&self, t: &Triple) -> f32 {
        self.scorer.score(
            self.heads.row(t.product.0),
            self.rels.row(t.attr.0 as u32),
            self.tails.row(t.value.0),
        )
    }
}

impl ErrorDetector for KgeModel {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn plausibility(&self, _graph: &ProductGraph, t: &Triple) -> f32 {
        self.score(t)
    }
}

/// Train an id-based KGE baseline on the dataset's training split.
pub fn train_kge(dataset: &Dataset, cfg: &KgeConfig) -> KgeModel {
    train_kge_weighted(dataset, cfg, &mut (), cfg.score.name().to_string())
}

/// A per-training-triple hook into [`train_kge_weighted`]'s loop. CKRL
/// weights each triple's loss by its confidence and moves that
/// confidence by the scores the step computed; `()` is the plain loop.
pub(crate) trait TripleWeights {
    /// Loss weight of training triple `i` in `epoch`. A triple that
    /// weighs ≤ 0 is skipped before it samples its negatives.
    fn weight(&self, _i: usize, _epoch: usize) -> f32 {
        1.0
    }

    /// Triple `i`'s positive score and its negatives' scores, seen
    /// once its gradients are accumulated.
    fn observe(&mut self, _i: usize, _epoch: usize, _f_pos: f32, _f_negs: &[f32]) {}
}

impl TripleWeights for () {}

/// The id-based training loop, with `weights` hooked in per triple.
pub(crate) fn train_kge_weighted(
    dataset: &Dataset,
    cfg: &KgeConfig,
    weights: &mut impl TripleWeights,
    name: String,
) -> KgeModel {
    let start = Instant::now();
    let graph = &dataset.graph;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let scorer = Scorer::new(cfg.score, cfg.gamma);
    // Embedding tables sized for the full graph (test entities get
    // vectors too; for held-out entities they simply stay untrained —
    // this is precisely why id-based KGE cannot do inductive
    // detection).
    let mut heads = Embedding::new_xavier(&mut rng, graph.num_products().max(1), cfg.dim);
    let mut tails = Embedding::new_xavier(&mut rng, graph.num_values().max(1), cfg.dim);
    // RotatE relations are rotation phases; the original initializes
    // them uniform in [-π, π] (identity-like Xavier phases break
    // symmetry far too slowly).
    let mut rels = if cfg.score == ScoreKind::RotatE {
        Embedding::new_phases(&mut rng, graph.num_attrs().max(1), scorer.rel_dim(cfg.dim))
    } else {
        Embedding::new_xavier(&mut rng, graph.num_attrs().max(1), scorer.rel_dim(cfg.dim))
    };
    let sampler = NegativeSampler::new(graph, cfg.sampling);
    let hp = AdamHparams::with_lr(cfg.lr);

    let k = cfg.negatives.max(1);
    let mut order: Vec<usize> = (0..dataset.train.len()).collect();
    let mut step = 0u64;
    let mut dh = vec![0.0f32; cfg.dim];
    let mut dr = vec![0.0f32; scorer.rel_dim(cfg.dim)];
    let mut dt = vec![0.0f32; cfg.dim];
    for epoch in 0..cfg.epochs {
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        for batch in order.chunks(cfg.batch.max(1)) {
            step += 1;
            for &i in batch {
                let triple = dataset.train[i];
                let w = weights.weight(i, epoch);
                if w <= 0.0 {
                    continue;
                }
                let negs = sampler.sample(&mut rng, &triple, k);
                if negs.is_empty() {
                    continue;
                }
                let h = heads.row(triple.product.0).to_vec();
                let r = rels.row(triple.attr.0 as u32).to_vec();
                let t = tails.row(triple.value.0).to_vec();
                dh.iter_mut().for_each(|x| *x = 0.0);
                dr.iter_mut().for_each(|x| *x = 0.0);
                dt.iter_mut().for_each(|x| *x = 0.0);
                let f_pos = scorer.score(&h, &r, &t);
                scorer.backward(
                    &h,
                    &r,
                    &t,
                    -w * ops::sigmoid(-f_pos),
                    &mut dh,
                    &mut dr,
                    &mut dt,
                );
                tails.accumulate_grad(triple.value.0, &dt);
                // Negative weights: uniform 1/k or self-adversarial
                // softmax(α·f_neg) (hard negatives dominate).
                let f_negs: Vec<f32> = negs
                    .iter()
                    .map(|&n| scorer.score(&h, &r, tails.row(n.0)))
                    .collect();
                let neg_w = negative_weights(&f_negs, cfg.adversarial_temp);
                for (j, &neg) in negs.iter().enumerate() {
                    let tn = tails.row(neg.0).to_vec();
                    dt.iter_mut().for_each(|x| *x = 0.0);
                    scorer.backward(
                        &h,
                        &r,
                        &tn,
                        w * neg_w[j] * ops::sigmoid(f_negs[j]),
                        &mut dh,
                        &mut dr,
                        &mut dt,
                    );
                    tails.accumulate_grad(neg.0, &dt);
                }
                heads.accumulate_grad(triple.product.0, &dh);
                rels.accumulate_grad(triple.attr.0 as u32, &dr);
                weights.observe(i, epoch, f_pos, &f_negs);
            }
            heads.adam_step(&hp, step);
            tails.adam_step(&hp, step);
            rels.adam_step(&hp, step);
        }
    }

    KgeModel {
        heads,
        tails,
        rels,
        scorer,
        train_secs: start.elapsed().as_secs_f64(),
        name,
    }
}

/// Per-negative loss weights: uniform or self-adversarial softmax.
pub(crate) fn negative_weights(f_negs: &[f32], temp: Option<f32>) -> Vec<f32> {
    match temp {
        None => vec![1.0 / f_negs.len().max(1) as f32; f_negs.len()],
        Some(a) => {
            let mut w: Vec<f32> = f_negs.iter().map(|&f| a * f).collect();
            ops::softmax_inplace(&mut w);
            w
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pge_graph::{LabeledTriple, ValueId};

    /// Structure-only dataset: attribute "r" links products to values
    /// with a strict parity pattern (even products → even values).
    fn parity_dataset() -> Dataset {
        let mut g = ProductGraph::new();
        let mut train = Vec::new();
        for p in 0..40u32 {
            for v in 0..3u32 {
                let value = 2 * v + (p % 2);
                train.push(g.add_fact(&format!("p{p}"), "r", &format!("v{value}")));
            }
        }
        // Test: correct = matching parity (held out), incorrect = off.
        let mut test = Vec::new();
        for p in 0..10u32 {
            let pid = g.lookup_product(&format!("p{p}")).unwrap();
            let attr = g.lookup_attr("r").unwrap();
            let good_v = g.lookup_value(&format!("v{}", 4 + (p % 2))).unwrap();
            let bad_v = g.lookup_value(&format!("v{}", 4 + ((p + 1) % 2))).unwrap();
            test.push(LabeledTriple {
                triple: Triple::new(pid, attr, good_v),
                correct: true,
            });
            test.push(LabeledTriple {
                triple: Triple::new(pid, attr, bad_v),
                correct: false,
            });
        }
        Dataset::new(g, train, vec![], test)
    }

    #[test]
    fn learns_graph_structure() {
        for kind in [ScoreKind::TransE, ScoreKind::RotatE, ScoreKind::DistMult] {
            let d = parity_dataset();
            let cfg = KgeConfig {
                score: kind,
                epochs: 20,
                ..KgeConfig::tiny()
            };
            let m = train_kge(&d, &cfg);
            let mut good = 0.0;
            let mut bad = 0.0;
            for lt in &d.test {
                let f = m.score(&lt.triple);
                if lt.correct {
                    good += f;
                } else {
                    bad += f;
                }
            }
            assert!(
                good > bad,
                "{kind:?}: correct triples should outscore corrupted ones ({good} vs {bad})"
            );
        }
    }

    /// Weighs every triple 0.
    struct Zero;

    impl TripleWeights for Zero {
        fn weight(&self, _i: usize, _epoch: usize) -> f32 {
            0.0
        }
    }

    #[test]
    fn zero_weight_triples_are_skipped() {
        let d = parity_dataset();
        let m = train_kge_weighted(&d, &KgeConfig::tiny(), &mut Zero, "w0".into());
        // With all weights zero no embedding moves: scores for two
        // different runs must be identical to a fresh init.
        let m2 = train_kge_weighted(&d, &KgeConfig::tiny(), &mut Zero, "w0".into());
        let t = d.test[0].triple;
        assert_eq!(m.score(&t), m2.score(&t));
    }

    #[test]
    fn name_reflects_score_kind() {
        let d = parity_dataset();
        let m = train_kge(
            &d,
            &KgeConfig {
                epochs: 1,
                score: ScoreKind::ComplEx,
                ..KgeConfig::tiny()
            },
        );
        assert_eq!(m.name(), "ComplEx");
        assert!(m.train_secs > 0.0);
    }

    #[test]
    fn negative_weights_sum_to_one_and_favor_hard() {
        let uniform = negative_weights(&[0.0, 1.0, 2.0], None);
        assert!(uniform.iter().all(|&w| (w - 1.0 / 3.0).abs() < 1e-6));
        let adv = negative_weights(&[0.0, 1.0, 2.0], Some(1.0));
        assert!((adv.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(adv[2] > adv[1] && adv[1] > adv[0]);
    }

    #[test]
    fn detector_trait_plumbs_through() {
        let d = parity_dataset();
        let m = train_kge(
            &d,
            &KgeConfig {
                epochs: 2,
                ..KgeConfig::tiny()
            },
        );
        let triples: Vec<Triple> = d.test.iter().map(|lt| lt.triple).collect();
        let scores = m.plausibility_all(&d.graph, &triples);
        assert_eq!(scores.len(), triples.len());
        let _ = ValueId(0);
    }
}
