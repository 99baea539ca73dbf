//! From-scratch neural-network substrate for the PGE reproduction.
//!
//! No deep-learning framework exists in the permitted dependency set,
//! so this crate implements everything the paper's models need:
//!
//! * [`param::Param`] — a tensor bundled with its gradient and Adam
//!   moment estimates, plus dense and sparse (row-wise) update steps;
//! * [`embedding::Embedding`] — lookup tables with sparse gradients;
//! * [`linear::Linear`] — fully-connected layers with optional
//!   activations;
//! * [`conv::Conv1d`] / [`conv::TextCnnEncoder`] — the paper's text
//!   encoder: parallel 1-d convolutions with different filter widths,
//!   max-over-time pooling, concatenation and a projection layer
//!   (Fig. 4 of the paper);
//! * [`lstm::Lstm`] — the LSTM used by the NLP baseline;
//! * [`transformer::TransformerEncoder`] — the Transformer baseline
//!   and the "BERT-style" deep text encoder of the scalability study;
//! * [`grad::SparseRowGrads`] / [`conv::CnnGrads`] — detached gradient
//!   buffers that let data-parallel workers run backward passes
//!   against a shared network and reduce in a fixed order;
//! * [`gradcheck`] — central-finite-difference gradient verification,
//!   used pervasively by this crate's test-suite.
//!
//! Layers follow one convention: `forward` borrows `&self` and returns
//! the output together with an explicit cache object; `backward`
//! borrows `&mut self`, consumes the cache, and *accumulates* into the
//! parameter gradients. Inference-only paths (`infer`) never allocate
//! caches, take `&self`, and are therefore trivially shareable across
//! threads.

pub mod adam;
pub mod conv;
pub mod embedding;
pub mod grad;
pub mod gradcheck;
pub mod linear;
pub mod lstm;
pub mod param;
pub mod transformer;

pub use adam::AdamHparams;
pub use conv::{CnnConfig, CnnGrads, EncoderShare, TextCnnEncoder};
pub use embedding::{Embedding, RowShare};
pub use grad::SparseRowGrads;
pub use linear::{Activation, Linear};
pub use lstm::Lstm;
pub use param::Param;
pub use transformer::{TransformerConfig, TransformerEncoder};

/// Pad/truncate a token sequence to `min_len..=max_len` using `pad_id`.
///
/// Every sequence encoder in this crate requires at least one token
/// (convolutions additionally require `min_len >= widest filter`).
pub fn pad_tokens(tokens: &[u32], min_len: usize, max_len: usize, pad_id: u32) -> Vec<u32> {
    let mut out = Vec::with_capacity(max_len.max(min_len));
    pad_tokens_into(tokens, min_len, max_len, pad_id, &mut out);
    out
}

/// [`pad_tokens`] into a reused buffer.
pub fn pad_tokens_into(
    tokens: &[u32],
    min_len: usize,
    max_len: usize,
    pad_id: u32,
    out: &mut Vec<u32>,
) {
    out.clear();
    out.extend(tokens.iter().copied().take(max_len));
    if out.len() < min_len {
        out.resize(min_len, pad_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pad_tokens_pads_and_truncates() {
        assert_eq!(pad_tokens(&[1, 2], 4, 8, 0), vec![1, 2, 0, 0]);
        assert_eq!(pad_tokens(&[1, 2, 3, 4, 5], 2, 3, 0), vec![1, 2, 3]);
        assert_eq!(pad_tokens(&[], 2, 3, 9), vec![9, 9]);
        assert_eq!(pad_tokens(&[7, 8, 9], 3, 3, 0), vec![7, 8, 9]);
    }
}
