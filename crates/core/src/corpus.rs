//! Training-corpus construction shared by PGE and the text-aware
//! baselines.
//!
//! Models may only see text reachable from their *training* triples;
//! unseen test words then honestly map to `<unk>` in the inductive
//! evaluation.

use pge_graph::{ProductGraph, ProductId, Triple, ValueId};
use pge_text::{tokenize, Vocab};

/// A tokenized training corpus: vocabulary plus one sentence per
/// training triple (`title ++ attribute ++ value` token ids). The
/// sentences double as word2vec training data.
#[derive(Clone, Debug)]
pub struct Corpus {
    pub vocab: Vocab,
    pub sentences: Vec<Vec<u32>>,
}

/// Build the corpus for a set of training triples.
pub fn build_corpus(graph: &ProductGraph, triples: &[Triple]) -> Corpus {
    let mut vocab = Vocab::new();
    let mut sentences = Vec::with_capacity(triples.len());
    // Token ids per title / attribute / value id, assigned the first
    // time a training triple reaches the string.
    let mut titles = vec![None; graph.num_products()];
    let mut attrs = vec![None; graph.num_attrs()];
    let mut values = vec![None; graph.num_values()];
    for t in triples {
        let mut sent = Vec::new();
        for (seen, ix, text) in [
            (&mut titles, t.product.0 as usize, graph.title(t.product)),
            (&mut attrs, t.attr.0 as usize, graph.attr_name(t.attr)),
            (&mut values, t.value.0 as usize, graph.value_text(t.value)),
        ] {
            let ids = seen[ix].get_or_insert_with(|| vocab.add_all(&tokenize(text)));
            sent.extend_from_slice(ids);
        }
        sentences.push(sent);
    }
    Corpus { vocab, sentences }
}

/// Token ids of every title and value string of a graph, encoded
/// through a frozen vocabulary: what a trainer encodes a triple's
/// entities from. Only trainers hold one; a model encodes raw text.
#[derive(Clone, Debug, Default)]
pub struct TokenizedGraph {
    /// Token ids per product title, indexed by `ProductId`.
    pub titles: Vec<Vec<u32>>,
    /// Token ids per value string, indexed by `ValueId`.
    pub values: Vec<Vec<u32>>,
}

impl TokenizedGraph {
    pub fn new(vocab: &Vocab, graph: &ProductGraph) -> TokenizedGraph {
        let mut tokens = TokenizedGraph::default();
        tokens.extend(vocab, graph);
        tokens
    }

    /// Encode the entities interned into `graph` since the last call —
    /// how the incremental trainer follows a graph that grows one delta
    /// window at a time. Ids are append-only, so existing entries stay;
    /// unseen words map to `<unk>` exactly as they do at inference.
    pub fn extend(&mut self, vocab: &Vocab, graph: &ProductGraph) {
        for i in self.titles.len()..graph.num_products() {
            self.titles
                .push(vocab.encode_text(graph.title(ProductId(i as u32))));
        }
        for i in self.values.len()..graph.num_values() {
            self.values
                .push(vocab.encode_text(graph.value_text(ValueId(i as u32))));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocab_limited_to_given_triples() {
        let mut g = ProductGraph::new();
        let t0 = g.add_fact("spicy tortilla chips", "flavor", "spicy queso");
        let _t1 = g.add_fact("mystery snack", "flavor", "enigma berry");
        let c = build_corpus(&g, &[t0]);
        assert!(c.vocab.get("spicy").is_some());
        assert!(c.vocab.get("mystery").is_none());
        assert_eq!(c.sentences.len(), 1);
    }

    #[test]
    fn sentence_layout() {
        let mut g = ProductGraph::new();
        let t = g.add_fact("tortilla chips", "flavor", "spicy queso");
        let c = build_corpus(&g, &[t]);
        let words: Vec<&str> = c.sentences[0].iter().map(|&id| c.vocab.word(id)).collect();
        assert_eq!(words, vec!["tortilla", "chips", "flavor", "spicy", "queso"]);
    }
}
