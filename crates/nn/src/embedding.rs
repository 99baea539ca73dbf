//! Lookup-table embeddings with sparse gradients.

use crate::adam::AdamHparams;
use crate::grad::SparseRowGrads;
use crate::param::{Param, ParamShare};
use pge_tensor::{init, ops, Matrix};
use rand::Rng;

/// An embedding table mapping ids `0..n` to `dim`-vectors.
///
/// Gradients are accumulated into a dense shadow matrix but only the
/// rows touched since the last optimizer step are tracked, so both the
/// backward pass and the Adam step cost O(batch · dim), not
/// O(vocab · dim).
#[derive(Clone, Debug)]
pub struct Embedding {
    table: Param,
    touched: Vec<usize>,
    /// Dedup bitmap aligned with rows; avoids `touched` growing with
    /// duplicate ids within a batch.
    touched_mark: Vec<bool>,
}

impl Embedding {
    /// New table with word2vec-style uniform init.
    pub fn new<R: Rng>(rng: &mut R, n: usize, dim: usize) -> Self {
        Embedding::from_matrix(init::embedding(rng, n, dim))
    }

    /// New table with Xavier init (used for relation embeddings where
    /// larger initial magnitudes train faster).
    pub fn new_xavier<R: Rng>(rng: &mut R, n: usize, dim: usize) -> Self {
        Embedding::from_matrix(init::xavier_uniform(rng, n, dim))
    }

    /// New table with uniform phases in `[-π, π]` (RotatE relations).
    pub fn new_phases<R: Rng>(rng: &mut R, n: usize, dim: usize) -> Self {
        Embedding::from_matrix(init::phases(rng, n, dim))
    }

    /// Wrap a pre-trained matrix (e.g. word2vec vectors).
    pub fn from_matrix(table: Matrix) -> Self {
        let n = table.rows();
        Embedding {
            table: Param::new(table),
            touched: Vec::new(),
            touched_mark: vec![false; n],
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.table.rows()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.table.cols()
    }

    /// Borrow the row for `id`.
    #[inline]
    pub fn row(&self, id: u32) -> &[f32] {
        self.table.value.row(id as usize)
    }

    /// Mutable row access (pre-training / tests).
    #[inline]
    pub fn row_mut(&mut self, id: u32) -> &mut [f32] {
        self.table.value.row_mut(id as usize)
    }

    /// Gather rows for a token sequence into an `L × dim` matrix.
    pub fn gather(&self, ids: &[u32]) -> Matrix {
        let mut out = Vec::with_capacity(ids.len() * self.dim());
        self.gather_into(ids, &mut out);
        Matrix::from_vec(ids.len(), self.dim(), out)
    }

    /// [`Embedding::gather`] into a reused row-major buffer.
    pub fn gather_into(&self, ids: &[u32], out: &mut Vec<f32>) {
        out.clear();
        for &id in ids {
            out.extend_from_slice(self.row(id));
        }
    }

    /// Accumulate `grad` into the row for `id`, tracking it for the
    /// next sparse optimizer step.
    pub fn accumulate_grad(&mut self, id: u32, grad: &[f32]) {
        let r = id as usize;
        ops::axpy(1.0, grad, self.table.grad.row_mut(r));
        if !self.touched_mark[r] {
            self.touched_mark[r] = true;
            self.touched.push(r);
        }
    }

    /// Scatter a sequence-gradient matrix back onto its source rows.
    pub fn accumulate_seq_grad(&mut self, ids: &[u32], grad: &Matrix) {
        debug_assert_eq!(ids.len(), grad.rows());
        debug_assert_eq!(self.dim(), grad.cols());
        for (r, &id) in ids.iter().enumerate() {
            self.accumulate_grad(id, grad.row(r));
        }
    }

    /// Fold a detached sparse gradient buffer (from data-parallel
    /// workers) into the inline row gradients, clearing the buffer.
    /// Rows are folded in the buffer's first-touch order, so repeated
    /// reductions over a fixed buffer sequence are deterministic.
    pub fn apply_sparse_grads(&mut self, g: &mut SparseRowGrads) {
        debug_assert_eq!(g.dim(), self.dim());
        for (row, grad) in g.iter() {
            self.accumulate_grad(row as u32, grad);
        }
        g.clear();
    }

    /// Sparse Adam step over the touched rows; clears the touch set.
    pub fn adam_step(&mut self, hp: &AdamHparams, t: u64) {
        self.table.adam_step_rows(&self.touched, hp, t);
        for &r in &self.touched {
            self.touched_mark[r] = false;
        }
        self.touched.clear();
    }

    /// Split the next optimizer step over `parts` workers. Every row
    /// the buffers `grads` touch is marked, as
    /// [`Embedding::apply_sparse_grads`] would mark it, and the marked
    /// rows are cut into `parts` contiguous row ranges holding
    /// near-equal numbers of them. The buffers are read, not cleared.
    pub fn split_step<'a, 'g>(
        &'a mut self,
        grads: impl IntoIterator<Item = &'g SparseRowGrads>,
        parts: usize,
    ) -> Vec<RowShare<'a>> {
        let mut touched = std::mem::take(&mut self.touched);
        for g in grads {
            for (r, _) in g.iter() {
                if !self.touched_mark[r] {
                    self.touched_mark[r] = true;
                    touched.push(r);
                }
            }
        }
        for &r in &touched {
            self.touched_mark[r] = false;
        }
        touched.sort_unstable();
        let (n, rows, cols) = (touched.len(), self.len(), self.dim());
        // Share p holds touched rows n·p/parts.. and starts at the
        // first of them; share 0 starts at row 0, and the last share
        // ends at the end of the table.
        let first = |p: usize| match p {
            0 => 0,
            p if p == parts => rows,
            p => touched.get(n * p / parts).copied().unwrap_or(rows),
        };
        let shares = self.table.shares((1..=parts).map(|p| first(p) * cols));
        let out = shares
            .into_iter()
            .enumerate()
            .map(|(p, share)| RowShare {
                rows: first(p)..first(p + 1),
                touched: touched[n * p / parts..n * (p + 1) / parts].to_vec(),
                cols,
                share,
            })
            .collect();
        touched.clear();
        self.touched = touched;
        out
    }

    /// Rows currently touched (for tests/diagnostics).
    pub fn touched_rows(&self) -> &[usize] {
        &self.touched
    }

    /// Read-only access to the full table.
    pub fn table(&self) -> &Matrix {
        &self.table.value
    }

    /// Raw parameter access for gradient checking.
    pub fn param_mut(&mut self) -> &mut Param {
        &mut self.table
    }
}

/// The rows of an [`Embedding`] that one worker folds and steps in a
/// split optimizer step ([`Embedding::split_step`]): a contiguous row
/// range of the table, and the touched rows inside it.
#[derive(Debug)]
pub struct RowShare<'a> {
    rows: std::ops::Range<usize>,
    touched: Vec<usize>,
    cols: usize,
    share: ParamShare<'a>,
}

impl RowShare<'_> {
    /// Add the rows of `grads` that lie in this share, buffer by buffer
    /// in the order given, then take the lazy Adam step `t` over the
    /// share's touched rows: bit for bit what
    /// [`Embedding::apply_sparse_grads`] per buffer followed by
    /// [`Embedding::adam_step`] does to these rows.
    pub fn fold_adam_step<'g>(
        &mut self,
        grads: impl IntoIterator<Item = &'g SparseRowGrads>,
        hp: &AdamHparams,
        t: u64,
    ) {
        for g in grads {
            for (r, row) in g.iter() {
                if self.rows.contains(&r) {
                    self.share.accumulate_row(r, self.cols, row);
                }
            }
        }
        self.share.adam_step_rows(&self.touched, self.cols, hp, t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gather_returns_rows_in_order() {
        let mut rng = StdRng::seed_from_u64(1);
        let e = Embedding::new(&mut rng, 5, 3);
        let g = e.gather(&[2, 0, 2]);
        assert_eq!(g.rows(), 3);
        assert_eq!(g.row(0), e.row(2));
        assert_eq!(g.row(1), e.row(0));
        assert_eq!(g.row(2), e.row(2));
    }

    #[test]
    fn touched_rows_deduplicated() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut e = Embedding::new(&mut rng, 4, 2);
        e.accumulate_grad(1, &[1.0, 1.0]);
        e.accumulate_grad(1, &[1.0, 1.0]);
        e.accumulate_grad(3, &[1.0, 1.0]);
        assert_eq!(e.touched_rows(), &[1, 3]);
        // Grad accumulated twice on row 1.
        assert_eq!(e.param_mut().grad.row(1), &[2.0, 2.0]);
    }

    #[test]
    fn adam_step_updates_touched_only_and_clears() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut e = Embedding::new(&mut rng, 3, 2);
        let before0 = e.row(0).to_vec();
        let before1 = e.row(1).to_vec();
        e.accumulate_grad(1, &[1.0, -1.0]);
        e.adam_step(&AdamHparams::with_lr(0.05), 1);
        assert_eq!(e.row(0), &before0[..]);
        assert_ne!(e.row(1), &before1[..]);
        assert!(e.touched_rows().is_empty());
        // A second step with no grads is a no-op for row 0.
        e.adam_step(&AdamHparams::with_lr(0.05), 2);
        assert_eq!(e.row(0), &before0[..]);
    }

    #[test]
    fn seq_grad_scatters() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut e = Embedding::new(&mut rng, 4, 2);
        let grad = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        e.accumulate_seq_grad(&[2, 2], &grad);
        assert_eq!(e.param_mut().grad.row(2), &[1.0, 1.0]);
    }
}
