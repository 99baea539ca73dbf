//! CKRL (Xie et al., 2018): confidence-aware *structural* KG
//! embedding — the paper's "noise-aware KG embedding" baseline.
//!
//! Original CKRL combines local triple confidence (LT) with prior/
//! adaptive path confidences (PP/AP). In a bipartite product graph the
//! informative paths are 2-hop value co-occurrences, whose sufficient
//! statistic is the attribute–value support count; we therefore
//! implement LT exactly (margin-driven moving update on the current
//! triple quality) and replace PP/AP with a frequency prior
//! `count(a,v) / max_v count(a,v)` (see DESIGN.md §5). Unlike PGE,
//! CKRL has no access to text, which is why its confidences are
//! "easily affected by model bias" (the paper's critique).

use crate::kge::{train_kge_weighted, KgeConfig, KgeModel, TripleWeights};
use pge_core::{ErrorDetector, ScoreKind};
use pge_graph::{Dataset, ProductGraph, SamplingMode, Triple};
use pge_tensor::{ops, FxHashMap};
use std::time::Instant;

/// Sharpness of the LT-confidence target `σ(s · margin)` — margins on
/// rescaled embeddings are small, so a flat sigmoid would leave all
/// confidences indistinguishable near 0.5.
const MARGIN_SHARPNESS: f32 = 3.0;

/// Confidence kicks in at this epoch, once embeddings carry signal.
const CONFIDENCE_FROM_EPOCH: usize = 2;

/// CKRL training knobs.
#[derive(Clone, Debug)]
pub struct CkrlConfig {
    pub dim: usize,
    pub gamma: f32,
    pub epochs: usize,
    pub batch: usize,
    pub negatives: usize,
    pub lr: f32,
    /// LT confidence decay/learning rate.
    pub lt_lr: f32,
    /// Mixing weight of LT vs the frequency prior.
    pub lt_weight: f32,
    pub sampling: SamplingMode,
    pub seed: u64,
}

impl Default for CkrlConfig {
    fn default() -> Self {
        CkrlConfig {
            dim: 32,
            gamma: 6.0,
            epochs: 25,
            batch: 256,
            negatives: 4,
            lr: 1e-2,
            lt_lr: 0.15,
            lt_weight: 0.7,
            sampling: SamplingMode::GlobalUniform,
            seed: 23,
        }
    }
}

impl CkrlConfig {
    pub fn tiny() -> Self {
        CkrlConfig {
            dim: 16,
            epochs: 10,
            ..Default::default()
        }
    }
}

/// A trained CKRL model: the structural embeddings plus the final
/// triple confidences.
pub struct CkrlModel {
    pub kge: KgeModel,
    /// Final confidence per training triple.
    pub confidence: Vec<f32>,
    pub train_secs: f64,
}

impl ErrorDetector for CkrlModel {
    fn name(&self) -> String {
        "CKRL".into()
    }

    fn plausibility(&self, _graph: &ProductGraph, t: &Triple) -> f32 {
        self.kge.score(t)
    }
}

/// CKRL's per-triple confidence: LT mixed with the frequency prior.
/// From [`CONFIDENCE_FROM_EPOCH`] on, it weighs each training triple's
/// loss, and each step moves the triple's LT.
struct Confidence<'a> {
    cfg: &'a CkrlConfig,
    /// LT confidence per training triple, initialized optimistic.
    lt: Vec<f32>,
    /// Frequency prior per training triple (PP/AP stand-in). A
    /// training triple's value occurs at least once, so it is > 0 and
    /// so is every weight: no triple is skipped.
    prior: Vec<f32>,
}

impl Confidence<'_> {
    fn mixed(&self, i: usize) -> f32 {
        self.cfg.lt_weight * self.lt[i] + (1.0 - self.cfg.lt_weight) * self.prior[i]
    }
}

impl TripleWeights for Confidence<'_> {
    fn weight(&self, i: usize, epoch: usize) -> f32 {
        if epoch >= CONFIDENCE_FROM_EPOCH {
            self.mixed(i)
        } else {
            1.0
        }
    }

    fn observe(&mut self, i: usize, epoch: usize, f_pos: f32, f_negs: &[f32]) {
        if epoch < CONFIDENCE_FROM_EPOCH {
            return;
        }
        // LT update (CKRL Eq. 5-style): positive margins over
        // corruptions raise confidence, negative margins lower it. The
        // sharpness factor keeps the sigmoid from saturating flat
        // around margin ≈ 0.
        let margin_sum = f_negs.iter().fold(0.0f32, |s, &f_neg| s + (f_pos - f_neg));
        let mean_margin = margin_sum * (1.0 / f_negs.len() as f32);
        let target = ops::sigmoid(MARGIN_SHARPNESS * mean_margin);
        self.lt[i] = (self.lt[i] + self.cfg.lt_lr * (target - self.lt[i])).clamp(0.0, 1.0);
    }
}

/// Train CKRL: TransE embeddings through the id-based KGE loop, with
/// per-triple confidence weighting updated during training.
pub fn train_ckrl(dataset: &Dataset, cfg: &CkrlConfig) -> CkrlModel {
    let start = Instant::now();
    let counts = dataset.graph.attr_value_counts();
    let mut max_per_attr: FxHashMap<u16, u32> = FxHashMap::default();
    for (&(a, _), &c) in &counts {
        let e = max_per_attr.entry(a.0).or_insert(0);
        *e = (*e).max(c);
    }
    let prior = |t: &Triple| -> f32 {
        let c = counts.get(&(t.attr, t.value)).copied().unwrap_or(0) as f32;
        let m = max_per_attr.get(&t.attr.0).copied().unwrap_or(1) as f32;
        (c / m.max(1.0)).sqrt() // sqrt softens the skew
    };
    let mut conf = Confidence {
        cfg,
        lt: vec![1.0; dataset.train.len()],
        prior: dataset.train.iter().map(prior).collect(),
    };
    let kge_cfg = KgeConfig {
        dim: cfg.dim,
        score: ScoreKind::TransE,
        gamma: cfg.gamma,
        epochs: cfg.epochs,
        batch: cfg.batch,
        negatives: cfg.negatives,
        lr: cfg.lr,
        sampling: cfg.sampling,
        adversarial_temp: None,
        seed: cfg.seed,
    };
    let kge = train_kge_weighted(dataset, &kge_cfg, &mut conf, "CKRL".into());
    CkrlModel {
        kge,
        confidence: (0..dataset.train.len()).map(|i| conf.mixed(i)).collect(),
        train_secs: start.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pge_graph::inject_noise;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Cluster-consistent dataset: each product belongs to a latent
    /// cluster that determines the value of all three attributes, so
    /// a corrupted value genuinely conflicts with the product's other
    /// (mostly clean) triples.
    fn structured_dataset() -> Dataset {
        let mut g = ProductGraph::new();
        let mut train = Vec::new();
        for p in 0..60u32 {
            let c = p % 4;
            for attr in ["r1", "r2", "r3"] {
                train.push(g.add_fact(&format!("p{p}"), attr, &format!("{attr}-v{c}")));
            }
        }
        Dataset::new(g, train, vec![], vec![])
    }

    #[test]
    fn confidence_lower_for_injected_noise() {
        let mut d = structured_dataset();
        let mut rng = StdRng::seed_from_u64(3);
        let (noisy, clean) = inject_noise(&d.graph, &d.train, 0.15, &mut rng);
        d.train = noisy;
        d.train_clean = clean;
        let m = train_ckrl(
            &d,
            &CkrlConfig {
                epochs: 30,
                ..CkrlConfig::tiny()
            },
        );
        let mean = |sel: bool| {
            let xs: Vec<f32> = d
                .train_clean
                .iter()
                .enumerate()
                .filter(|(_, &c)| c == sel)
                .map(|(i, _)| m.confidence[i])
                .collect();
            xs.iter().sum::<f32>() / xs.len() as f32
        };
        assert!(
            mean(true) > mean(false),
            "clean {} vs noisy {}",
            mean(true),
            mean(false)
        );
    }

    #[test]
    fn deterministic() {
        let d = structured_dataset();
        let a = train_ckrl(&d, &CkrlConfig::tiny());
        let b = train_ckrl(&d, &CkrlConfig::tiny());
        assert_eq!(a.confidence, b.confidence);
    }

    #[test]
    fn detector_name() {
        let d = structured_dataset();
        let m = train_ckrl(
            &d,
            &CkrlConfig {
                epochs: 1,
                ..CkrlConfig::tiny()
            },
        );
        assert_eq!(m.name(), "CKRL");
    }
}
