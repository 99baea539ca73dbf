//! Detached gradient buffers for data-parallel training.
//!
//! The classic convention in this crate keeps each parameter's
//! gradient inline (`Param.grad`), which forces `backward` to take
//! `&mut self` and serializes training. The types here decouple
//! gradient *storage* from the parameters so several workers can run
//! backward passes concurrently against a shared `&self` network, each
//! into its own buffer, and the buffers can then be reduced into the
//! real parameter gradients in a fixed order — the foundation of the
//! deterministic data-parallel trainer (and of any future sharded or
//! distributed setup).
//!
//! Determinism contract: every buffer replays its accumulation in
//! insertion order, so "accumulate per worker, reduce in fixed worker
//! order" produces bit-identical floats regardless of how many OS
//! threads actually ran the workers.

use pge_tensor::{ops, FxHashMap, Matrix};

/// A sparse row-wise gradient buffer for an embedding table.
///
/// Rows are tracked in first-touch (insertion) order and replayed in
/// that order by [`SparseRowGrads::iter`], which keeps reductions
/// deterministic. Cleared buffers keep their row allocations, so a
/// per-batch accumulate → reduce → clear cycle stops allocating after
/// warm-up.
#[derive(Debug, Default)]
pub struct SparseRowGrads {
    dim: usize,
    /// row id → slot in `rows`/`grads`.
    index: FxHashMap<usize, usize>,
    /// Row ids in first-touch order.
    rows: Vec<usize>,
    /// Gradient storage; slots `0..rows.len()` are active, the rest
    /// are a reuse pool from earlier cycles.
    grads: Vec<Vec<f32>>,
}

impl SparseRowGrads {
    /// An empty buffer for `dim`-wide rows.
    pub fn new(dim: usize) -> Self {
        SparseRowGrads {
            dim,
            ..Default::default()
        }
    }

    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of distinct rows touched since the last [`clear`](Self::clear).
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Accumulate `grad` into the buffer row for table row `row`.
    pub fn add_row(&mut self, row: usize, grad: &[f32]) {
        debug_assert_eq!(grad.len(), self.dim);
        ops::axpy(1.0, grad, self.row_mut(row));
    }

    /// The buffer row for table row `row`, zeroed on its first touch
    /// since the last [`clear`](Self::clear).
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        let slot = match self.index.get(&row) {
            Some(&s) => s,
            None => {
                let s = self.rows.len();
                if s == self.grads.len() {
                    self.grads.push(vec![0.0; self.dim]);
                } else {
                    self.grads[s].iter_mut().for_each(|x| *x = 0.0);
                }
                self.index.insert(row, s);
                self.rows.push(row);
                s
            }
        };
        &mut self.grads[slot]
    }

    /// Scatter a sequence-gradient matrix (one row per token) back
    /// onto its source rows.
    pub fn add_seq(&mut self, ids: &[u32], grad: &Matrix) {
        debug_assert_eq!(ids.len(), grad.rows());
        debug_assert_eq!(self.dim, grad.cols());
        for (r, &id) in ids.iter().enumerate() {
            self.add_row(id as usize, grad.row(r));
        }
    }

    /// Touched rows with their gradients, in first-touch order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[f32])> {
        self.rows
            .iter()
            .zip(&self.grads)
            .map(|(&r, g)| (r, g.as_slice()))
    }

    /// Forget all touched rows, keeping allocations for reuse.
    pub fn clear(&mut self) {
        self.index.clear();
        self.rows.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_per_row_in_insertion_order() {
        let mut g = SparseRowGrads::new(2);
        g.add_row(7, &[1.0, 0.0]);
        g.add_row(3, &[0.0, 1.0]);
        g.add_row(7, &[1.0, 1.0]);
        let got: Vec<(usize, Vec<f32>)> = g.iter().map(|(r, v)| (r, v.to_vec())).collect();
        assert_eq!(got, vec![(7, vec![2.0, 1.0]), (3, vec![0.0, 1.0])]);
    }

    #[test]
    fn clear_resets_rows_but_reuses_slots() {
        let mut g = SparseRowGrads::new(1);
        g.add_row(0, &[5.0]);
        g.add_row(1, &[6.0]);
        g.clear();
        assert!(g.is_empty());
        // Reused slot must not leak the old accumulation.
        g.add_row(9, &[1.0]);
        let got: Vec<(usize, Vec<f32>)> = g.iter().map(|(r, v)| (r, v.to_vec())).collect();
        assert_eq!(got, vec![(9, vec![1.0])]);
    }

    #[test]
    fn add_seq_scatters_by_token() {
        let mut g = SparseRowGrads::new(2);
        let m = Matrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 2.0], vec![1.0, 1.0]]);
        g.add_seq(&[4, 4, 2], &m);
        let got: Vec<(usize, Vec<f32>)> = g.iter().map(|(r, v)| (r, v.to_vec())).collect();
        assert_eq!(got, vec![(4, vec![1.0, 2.0]), (2, vec![1.0, 1.0])]);
    }
}
