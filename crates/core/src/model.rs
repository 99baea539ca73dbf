//! The PGE model (Fig. 3): text-based entity representations feeding
//! a KG-embedding scoring function, with learnable relation vectors.

use crate::encoder::TextEncoder;
use crate::score::Scorer;
use pge_graph::AttrId;
use pge_nn::Embedding;
use pge_text::{tokenize_each, Vocab};

/// Reusable buffers for [`PgeModel::embed_text_with`]: token ids and
/// the CNN encoder's cache.
#[derive(Default)]
pub(crate) struct EncodeScratch {
    ids: Vec<u32>,
    cnn: pge_nn::conv::CnnEncCache,
}

/// A trained (or in-training) PGE model.
///
/// Entities (titles and values) are *not* id-embedded: their vectors
/// are produced by the text encoder from their raw text, which is what
/// makes the model inductive (C2 of the paper). Relations are few and
/// closed-world, so they keep classic learnable vectors.
#[derive(Clone, Debug)]
pub struct PgeModel {
    /// Vocabulary built from the training corpus; unseen words map to
    /// `<unk>`.
    pub vocab: Vocab,
    pub(crate) encoder: TextEncoder,
    pub(crate) relations: Embedding,
    pub(crate) scorer: Scorer,
    /// Attribute names in relation-row order (relations are
    /// closed-world), so raw-text facts are scored without a graph.
    pub(crate) attr_names: Vec<String>,
    /// Optional out-of-core embedding bank (precomputed entity
    /// vectors served from a PGEBIN02 snapshot, usually mmapped).
    /// Consulted before the encoder in [`PgeModel::embed_text_with`]; rows
    /// are the exact bit patterns the encoder would produce, so the
    /// bank can change latency and residency but never a score.
    pub(crate) bank: Option<std::sync::Arc<pge_store::EmbeddingBank>>,
}

impl PgeModel {
    /// Assemble a model. `attr_names[i]` names relation row `i`.
    pub fn new(
        vocab: Vocab,
        encoder: TextEncoder,
        relations: Embedding,
        scorer: Scorer,
        attr_names: Vec<String>,
    ) -> Self {
        PgeModel {
            vocab,
            encoder,
            relations,
            scorer,
            attr_names,
            bank: None,
        }
    }

    /// Attach an out-of-core embedding bank. Bank rows must have been
    /// computed by *this* model's encoder (the store loaders only
    /// attach a bank shipped in the same snapshot as the parameters,
    /// which guarantees it).
    pub fn attach_bank(&mut self, bank: std::sync::Arc<pge_store::EmbeddingBank>) {
        assert_eq!(
            bank.dim(),
            self.dim(),
            "bank dim {} does not match model dim {}",
            bank.dim(),
            self.dim()
        );
        self.bank = Some(bank);
    }

    /// The attached embedding bank, if any.
    pub fn bank(&self) -> Option<&std::sync::Arc<pge_store::EmbeddingBank>> {
        self.bank.as_ref()
    }

    /// Entity-embedding dimension.
    pub fn dim(&self) -> usize {
        self.encoder.out_dim()
    }

    /// The configured scorer.
    pub fn scorer(&self) -> Scorer {
        self.scorer
    }

    /// Borrow the text encoder.
    pub fn encoder(&self) -> &TextEncoder {
        &self.encoder
    }

    /// Relation vector of an attribute.
    pub fn relation(&self, a: AttrId) -> &[f32] {
        self.relations.row(a.0 as u32)
    }

    /// Embed a piece of raw text (title or value) — tokenize, encode
    /// against the training vocabulary, and run the text encoder —
    /// reusing `scratch`: the returned vector is the only allocation.
    pub(crate) fn embed_text_with(&self, text: &str, scratch: &mut EncodeScratch) -> Vec<f32> {
        // A bank hit serves the precomputed row (bit-identical to the
        // encoder's output by construction) straight from the
        // snapshot backing — page cache instead of a CNN forward.
        if let Some(bank) = &self.bank {
            if let Some(row) = bank.lookup(text) {
                return row.to_vec();
            }
        }
        self.encode_text(text, scratch)
    }

    /// `embed_text_with` bypassing the bank — always runs the
    /// encoder. `pge embed` builds banks with this (a bank row must
    /// come from the encoder, not from a previously attached bank),
    /// and bit-identity tests compare the two paths.
    pub fn embed_text_uncached(&self, text: &str) -> Vec<f32> {
        self.encode_text(text, &mut EncodeScratch::default())
    }

    fn encode_text(&self, text: &str, scratch: &mut EncodeScratch) -> Vec<f32> {
        // Tokenize and encode in one streaming pass: same tokens in
        // the same order as `vocab.encode(&tokenize(text))`, without
        // allocating a `String` per token on the scan's miss path.
        scratch.ids.clear();
        tokenize_each(text, |tok| scratch.ids.push(self.vocab.get_or_unk(tok)));
        self.encoder.forward_into(&scratch.ids, &mut scratch.cnn);
        scratch.cnn.embedding().to_vec()
    }

    /// Score a fact given *raw text*: neither the title nor the value
    /// needs to exist in the graph (unknown words fall back to
    /// `<unk>`). The oracle and offline detection both score here.
    pub(crate) fn score_fact(&self, title: &str, attr: AttrId, value: &str) -> f32 {
        let mut scratch = EncodeScratch::default();
        let h = self.embed_text_with(title, &mut scratch);
        let v = self.embed_text_with(value, &mut scratch);
        self.scorer.score(&h, self.relation(attr), &v)
    }

    /// Resolve an attribute by name (attributes are closed-world: a
    /// relation vector only exists for attributes seen in training).
    pub fn lookup_attr(&self, name: &str) -> Option<AttrId> {
        self.attr_names
            .iter()
            .position(|n| n == name)
            .map(|i| AttrId(i as u16))
    }

    /// Attribute names known to the model, in id order.
    pub fn attr_names(&self) -> &[String] {
        &self.attr_names
    }

    /// Fully text-level scoring: `(title, attribute name, value)`,
    /// none of which needs to exist in any graph — the uncached
    /// scoring door (see [`crate::CachedModel`] for the cached one),
    /// and the fully inductive entry point. Returns `None` when
    /// the attribute is unknown — there is no relation vector to score
    /// against, which is different from an unknown *word* (those fall
    /// back to `<unk>`).
    pub fn score_text_triple(&self, title: &str, attr: &str, value: &str) -> Option<f32> {
        self.lookup_attr(attr)
            .map(|a| self.score_fact(title, a, value))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::TextEncoder;
    use crate::score::{ScoreKind, Scorer};
    use pge_graph::ProductGraph;
    use pge_nn::CnnConfig;
    use pge_text::tokenize;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model(graph: &ProductGraph) -> PgeModel {
        let mut vocab = Vocab::new();
        for i in 0..graph.num_products() {
            for w in tokenize(graph.title(pge_graph::ProductId(i as u32))) {
                vocab.add(&w);
            }
        }
        for i in 0..graph.num_values() {
            for w in tokenize(graph.value_text(pge_graph::ValueId(i as u32))) {
                vocab.add(&w);
            }
        }
        let mut rng = StdRng::seed_from_u64(1);
        let words = pge_nn::Embedding::new(&mut rng, vocab.len(), 8);
        let enc = TextEncoder::cnn(
            &mut rng,
            CnnConfig {
                vocab: vocab.len(),
                word_dim: 8,
                widths: vec![1, 2],
                filters_per_width: 4,
                out_dim: 6,
                max_len: 12,
            },
            words,
        );
        let scorer = Scorer::new(ScoreKind::TransE, 4.0);
        let relations =
            pge_nn::Embedding::new_xavier(&mut rng, graph.num_attrs(), scorer.rel_dim(6));
        PgeModel::new(vocab, enc, relations, scorer, graph.attr_names().to_vec())
    }

    fn tiny_graph() -> ProductGraph {
        let mut g = ProductGraph::new();
        g.add_fact("spicy tortilla chips", "flavor", "spicy queso");
        g.add_fact("sweet honey granola", "flavor", "honey");
        g
    }

    #[test]
    fn score_triple_is_deterministic_and_finite() {
        use crate::api::ErrorDetector;
        let g = tiny_graph();
        let m = tiny_model(&g);
        let t = g.triples()[0];
        let a = m.plausibility(&g, &t);
        let b = m.plausibility(&g, &t);
        assert_eq!(a.to_bits(), b.to_bits());
        assert!(a.is_finite());
    }

    #[test]
    fn unseen_words_fall_back_to_unk() {
        let g = tiny_graph();
        let m = tiny_model(&g);
        let t = g.triples()[0];
        // Fully unseen title: encoder still produces a finite score.
        let f = m.score_fact("zzz qqq www", t.attr, "spicy queso");
        assert!(f.is_finite());
        // And it equals scoring the literal unk sequence.
        let f2 = m.score_fact("unkish bogus trio", t.attr, "spicy queso");
        assert!((f - f2).abs() < 1e-6, "pure-unk sequences must agree");
    }

    #[test]
    fn score_text_triple_resolves_attrs_by_name() {
        let g = tiny_graph();
        let m = tiny_model(&g);
        let t = g.triples()[0];
        let by_name = m
            .score_text_triple("spicy tortilla chips", "flavor", "spicy queso")
            .unwrap();
        assert_eq!(
            by_name,
            m.score_fact("spicy tortilla chips", t.attr, "spicy queso")
        );
        assert_eq!(m.score_text_triple("x", "no-such-attr", "y"), None);
        assert_eq!(m.attr_names(), &["flavor".to_string()]);
    }

    #[test]
    fn embeddings_have_declared_dim() {
        let g = tiny_graph();
        let m = tiny_model(&g);
        assert_eq!(m.embed_text_uncached("spicy tortilla chips").len(), m.dim());
        assert_eq!(m.embed_text_uncached("spicy queso").len(), m.dim());
    }
}
