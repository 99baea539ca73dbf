//! Skip-gram with negative sampling (Mikolov et al., 2013).
//!
//! Produces the word2vec initialization for the CNN text encoder. Only
//! the properties the PGE paper relies on matter here: words that
//! co-occur ("chipotle", "pepper", "spicy") end up with high cosine
//! similarity, and the vectors are a reasonable starting point for
//! fine-tuning.

use crate::vocab::Vocab;
use pge_tensor::kernels::{self, Ops, Pass};
use pge_tensor::{init, ops, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Skip-gram training knobs.
#[derive(Clone, Debug)]
pub struct Word2VecConfig {
    /// Vector dimension.
    pub dim: usize,
    /// Symmetric context window size.
    pub window: usize,
    /// Negative samples per (center, context) pair.
    pub negatives: usize,
    /// Passes over the corpus.
    pub epochs: usize,
    /// Initial SGD learning rate (linearly decayed to 10%).
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Word2VecConfig {
    fn default() -> Self {
        Word2VecConfig {
            dim: 32,
            window: 3,
            negatives: 5,
            epochs: 3,
            lr: 0.05,
            seed: 17,
        }
    }
}

/// Unigram^0.75 sampling table over non-reserved vocabulary ids.
struct NegativeTable {
    /// Cumulative weights paired with ids, for inverse-CDF sampling.
    cumulative: Vec<f32>,
    ids: Vec<u32>,
    /// `x · scale` truncated is the bucket of a draw `x`.
    scale: f32,
    /// Per bucket, how many cumulative weights lie in earlier buckets:
    /// a lower bound on the position of any draw in the bucket.
    starts: Vec<u32>,
}

impl NegativeTable {
    fn new(vocab: &Vocab) -> Self {
        let mut ids = Vec::new();
        let mut cumulative = Vec::new();
        let mut acc = 0.0f32;
        for id in 3..vocab.len() as u32 {
            let w = (vocab.count(id) as f32).powf(0.75);
            if w > 0.0 {
                acc += w;
                ids.push(id);
                cumulative.push(acc);
            }
        }
        let buckets = 2 * cumulative.len().max(1);
        let scale = if acc > 0.0 { buckets as f32 / acc } else { 0.0 };
        let mut table = NegativeTable {
            cumulative,
            ids,
            scale,
            starts: vec![0; buckets],
        };
        let starts = (0..buckets)
            .map(|b| table.cumulative.partition_point(|&c| table.bucket(c) < b) as u32)
            .collect();
        table.starts = starts;
        table
    }

    /// The bucket of a draw `x ≥ 0`; monotone in `x`.
    fn bucket(&self, x: f32) -> usize {
        ((x * self.scale) as usize).min(self.starts.len() - 1)
    }

    /// `cumulative.partition_point(|&c| c < x)`, found from the bucket
    /// of `x`. Every weight in an earlier bucket than `x`'s is below
    /// `x`, because [`NegativeTable::bucket`] is monotone, so the
    /// bucket's start never overshoots and a forward scan ends on the
    /// binary search's answer.
    fn position(&self, x: f32) -> usize {
        let mut i = self.starts[self.bucket(x)] as usize;
        while self.cumulative.get(i).is_some_and(|&c| c < x) {
            i += 1;
        }
        i
    }

    fn sample<R: Rng>(&self, rng: &mut R) -> Option<u32> {
        let total = *self.cumulative.last()?;
        let x = rng.gen_range(0.0..total);
        Some(self.ids[self.position(x).min(self.ids.len() - 1)])
    }
}

/// Train skip-gram vectors over `sentences` (already encoded with
/// `vocab`). Returns a `vocab.len() × dim` matrix of input vectors;
/// reserved ids keep near-zero rows (the pad row in particular stays
/// small, so convolution padding is close to a no-op).
pub fn train_word2vec(vocab: &Vocab, sentences: &[Vec<u32>], cfg: &Word2VecConfig) -> Matrix {
    kernels::run(Sgns {
        vocab,
        sentences,
        cfg,
    })
}

/// [`train_word2vec`] as one pass over the active kernel, so that the
/// per-pair `dot` and `axpy` inline into the loop.
struct Sgns<'a> {
    vocab: &'a Vocab,
    sentences: &'a [Vec<u32>],
    cfg: &'a Word2VecConfig,
}

impl Pass for Sgns<'_> {
    type Output = Matrix;

    #[inline(always)]
    fn run<O: Ops>(self, kern: O) -> Matrix {
        let Sgns {
            vocab,
            sentences,
            cfg,
        } = self;
        let n = vocab.len();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut input = init::embedding(&mut rng, n, cfg.dim);
        let mut output = Matrix::zeros(n, cfg.dim);
        let table = NegativeTable::new(vocab);
        if table.ids.is_empty() {
            return input;
        }

        let total_steps = (cfg.epochs * sentences.len()).max(1) as f32;
        let mut step = 0usize;
        let mut grad_in = vec![0.0f32; cfg.dim];
        for _ in 0..cfg.epochs {
            for sent in sentences {
                step += 1;
                let progress = step as f32 / total_steps;
                let lr = cfg.lr * (1.0 - 0.9 * progress);
                for (ci, &center) in sent.iter().enumerate() {
                    if center < 3 {
                        continue;
                    }
                    let lo = ci.saturating_sub(cfg.window);
                    let hi = (ci + cfg.window + 1).min(sent.len());
                    for (oi, &ctx) in sent[lo..hi].iter().enumerate() {
                        if lo + oi == ci || ctx < 3 {
                            continue;
                        }
                        grad_in.iter_mut().for_each(|g| *g = 0.0);
                        // Positive pair.
                        let vi = input.row(center as usize);
                        sgns_pair(kern, vi, &mut output, ctx, 1.0, lr, &mut grad_in);
                        // Negatives.
                        for _ in 0..cfg.negatives {
                            if let Some(neg) = table.sample(&mut rng) {
                                if neg != ctx {
                                    sgns_pair(kern, vi, &mut output, neg, 0.0, lr, &mut grad_in);
                                }
                            }
                        }
                        kern.axpy(-lr, &grad_in, input.row_mut(center as usize));
                    }
                }
            }
        }
        input
    }
}

/// One (center, context/negative) update. Accumulates the gradient
/// w.r.t. the center's input vector `vi` into `grad_in`; updates the
/// output vector immediately (standard word2vec scheme). The input
/// vector is only read here — the caller applies `grad_in` after the
/// last pair.
#[inline(always)]
fn sgns_pair<O: Ops>(
    kern: O,
    vi: &[f32],
    output: &mut Matrix,
    other: u32,
    label: f32,
    lr: f32,
    grad_in: &mut [f32],
) {
    let vo = output.row_mut(other as usize);
    let score = ops::sigmoid(kern.dot(vi, vo));
    let g = score - label; // d(-log σ(±x))/dx folded into one form
    kern.axpy(g, vo, grad_in);
    kern.axpy(-lr * g, vi, vo);
}

/// Most similar words to `id` by cosine over the vector table
/// (excluding reserved ids and `id` itself).
pub fn most_similar(vectors: &Matrix, id: u32, top_k: usize) -> Vec<(u32, f32)> {
    let target = vectors.row(id as usize);
    let mut sims: Vec<(u32, f32)> = (3..vectors.rows() as u32)
        .filter(|&j| j != id)
        .map(|j| (j, ops::cosine(target, vectors.row(j as usize))))
        .collect();
    sims.sort_by(|a, b| b.1.total_cmp(&a.1));
    sims.truncate(top_k);
    sims
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize;

    /// Two disjoint topic clusters; skip-gram must separate them.
    fn cluster_corpus(vocab: &mut Vocab) -> Vec<Vec<u32>> {
        let spicy = "spicy pepper chipotle cayenne hot jalapeno heat";
        let sweet = "sweet sugar honey caramel candy syrup dessert";
        let mut sentences = Vec::new();
        for i in 0..120 {
            let base = if i % 2 == 0 { spicy } else { sweet };
            // Rotate word order so every pair co-occurs within windows.
            let words = tokenize(base);
            let rotated: Vec<String> = words
                .iter()
                .cycle()
                .skip(i % words.len())
                .take(words.len())
                .cloned()
                .collect();
            sentences.push(vocab.add_all(&rotated));
        }
        sentences
    }

    #[test]
    fn clusters_have_higher_intra_similarity() {
        let mut vocab = Vocab::new();
        let sentences = cluster_corpus(&mut vocab);
        let cfg = Word2VecConfig {
            epochs: 8,
            ..Default::default()
        };
        let vecs = train_word2vec(&vocab, &sentences, &cfg);
        let spicy = vocab.get("spicy").unwrap();
        let pepper = vocab.get("pepper").unwrap();
        let sugar = vocab.get("sugar").unwrap();
        let honey = vocab.get("honey").unwrap();
        let intra1 = ops::cosine(vecs.row(spicy as usize), vecs.row(pepper as usize));
        let intra2 = ops::cosine(vecs.row(sugar as usize), vecs.row(honey as usize));
        let inter = ops::cosine(vecs.row(spicy as usize), vecs.row(sugar as usize));
        assert!(
            intra1 > inter && intra2 > inter,
            "intra1={intra1} intra2={intra2} inter={inter}"
        );
    }

    #[test]
    fn most_similar_finds_cluster_mates() {
        let mut vocab = Vocab::new();
        let sentences = cluster_corpus(&mut vocab);
        let cfg = Word2VecConfig {
            epochs: 8,
            ..Default::default()
        };
        let vecs = train_word2vec(&vocab, &sentences, &cfg);
        let spicy = vocab.get("spicy").unwrap();
        let top: Vec<String> = most_similar(&vecs, spicy, 3)
            .into_iter()
            .map(|(id, _)| vocab.word(id).to_string())
            .collect();
        let spicy_cluster = ["pepper", "chipotle", "cayenne", "hot", "jalapeno", "heat"];
        let hits = top
            .iter()
            .filter(|w| spicy_cluster.contains(&w.as_str()))
            .count();
        assert!(hits >= 2, "nearest to 'spicy' were {top:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let mut vocab = Vocab::new();
        let sentences = cluster_corpus(&mut vocab);
        let cfg = Word2VecConfig::default();
        let a = train_word2vec(&vocab, &sentences, &cfg);
        let b = train_word2vec(&vocab, &sentences, &cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn empty_corpus_returns_init_vectors() {
        let vocab = Vocab::new(); // only reserved tokens, no counts
        let vecs = train_word2vec(&vocab, &[], &Word2VecConfig::default());
        assert_eq!(vecs.rows(), 3);
        assert!(vecs.as_slice().iter().all(|x| x.is_finite()));
    }

    /// A Zipf-like vocabulary: word `i` occurs `⌈4000 / i⌉` times.
    fn zipf_vocab(words: usize) -> Vocab {
        let mut vocab = Vocab::new();
        for i in 1..=words {
            for _ in 0..4000_usize.div_ceil(i) {
                vocab.add(&format!("w{i}"));
            }
        }
        vocab
    }

    #[test]
    fn bucket_sampler_equals_binary_search() {
        let table = NegativeTable::new(&zipf_vocab(3000));
        let binary = |x: f32| table.cumulative.partition_point(|&c| c < x);
        let total = *table.cumulative.last().unwrap();
        // The edges, and every cumulative weight with its neighbours.
        let mut xs = vec![0.0, f32::from_bits(1), total, total.next_down()];
        for &c in &table.cumulative {
            xs.extend([c.next_down(), c, c.next_up()]);
        }
        for x in xs {
            assert_eq!(table.position(x), binary(x), "x={x:e}");
        }
        // Seeded draws, as `sample` makes them; the scan stays short.
        let mut rng = StdRng::seed_from_u64(3);
        let mut scanned = 0;
        let draws = 10_000_000;
        for _ in 0..draws {
            let x = rng.gen_range(0.0..total);
            let i = table.position(x);
            assert_eq!(i, binary(x), "x={x:e}");
            scanned += i - table.starts[table.bucket(x)] as usize;
        }
        assert!(
            scanned < 2 * draws,
            "mean scan {}",
            scanned as f64 / draws as f64
        );
    }

    #[test]
    fn word2vec_bits_match_under_both_kernels() {
        use pge_tensor::{set_kernel, Kernel};
        let mut vocab = Vocab::new();
        let sentences = cluster_corpus(&mut vocab);
        let cfg = Word2VecConfig::default();
        let bits = |kernel| {
            set_kernel(Some(kernel));
            let v = train_word2vec(&vocab, &sentences, &cfg);
            set_kernel(None);
            v.as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<u32>>()
        };
        assert_eq!(bits(Kernel::Scalar), bits(Kernel::Simd));
    }

    #[test]
    fn pad_row_stays_tiny() {
        let mut vocab = Vocab::new();
        let sentences = cluster_corpus(&mut vocab);
        let vecs = train_word2vec(&vocab, &sentences, &Word2VecConfig::default());
        // Reserved rows never receive updates; they keep the small init.
        assert!(ops::l2_norm(vecs.row(Vocab::PAD as usize)) < 0.1);
    }
}
