//! Error detection on top of a trained model (§4.2): threshold
//! selection on validation accuracy, classification, and error
//! ranking.

use crate::api::{default_scoring_threads, plausibility_parallel, ErrorDetector};
use crate::model::PgeModel;
use crate::threshold::best_threshold;
use pge_graph::{LabeledTriple, ProductGraph, Triple};
use pge_obs::span;

impl ErrorDetector for PgeModel {
    fn name(&self) -> String {
        format!("PGE(CNN)-{}", self.scorer().kind.name())
    }

    /// Scores the triple's text through the oracle
    /// [`PgeModel::score_text_triple`], binding the attribute by name:
    /// `graph` need not be the training graph. An attribute the model
    /// has no relation for scores NaN, which detection flags.
    fn plausibility(&self, graph: &ProductGraph, t: &Triple) -> f32 {
        self.score_text_triple(
            graph.title(t.product),
            graph.attr_name(t.attr),
            graph.value_text(t.value),
        )
        .unwrap_or(f32::NAN)
    }
}

/// A thresholded classifier wrapping any [`ErrorDetector`].
pub struct Detector<'a, D: ErrorDetector> {
    pub method: &'a D,
    /// Triples with plausibility ≤ θ are classified incorrect.
    pub threshold: f32,
    /// Validation accuracy achieved at `threshold`.
    pub valid_accuracy: f32,
}

impl<'a, D: ErrorDetector> Detector<'a, D> {
    /// Fit the threshold θ that maximizes classification accuracy on
    /// the validation split (the paper's §4.2 protocol).
    pub fn fit(method: &'a D, graph: &ProductGraph, valid: &[LabeledTriple]) -> Self {
        let _s = span("detect.fit");
        let triples: Vec<Triple> = valid.iter().map(|lt| lt.triple).collect();
        let scores = plausibility_parallel(method, graph, &triples, default_scoring_threads());
        let pairs: Vec<(f32, bool)> = scores
            .iter()
            .zip(valid)
            .map(|(&s, lt)| (s, lt.correct))
            .collect();
        let (threshold, valid_accuracy) = best_threshold(&pairs);
        Detector {
            method,
            threshold,
            valid_accuracy,
        }
    }

    /// Classify one triple: `true` = flagged as an error. A triple is
    /// an error when its plausibility is *not above* θ, so a NaN score
    /// (untrustworthy by definition) is flagged — matching the
    /// `score > θ` rule used for accuracy.
    pub fn is_error(&self, graph: &ProductGraph, t: &Triple) -> bool {
        let p = self.method.plausibility(graph, t);
        p.is_nan() || p <= self.threshold
    }

    /// Score a batch (parallel) and return plausibilities.
    pub fn scores(&self, graph: &ProductGraph, triples: &[Triple]) -> Vec<f32> {
        let _s = span("detect.score");
        plausibility_parallel(self.method, graph, triples, default_scoring_threads())
    }

    /// Rank triples most-suspicious first: returns indices into
    /// `triples` sorted by ascending plausibility (Table 6's
    /// "identified errors" listing).
    pub fn rank_errors(&self, graph: &ProductGraph, triples: &[Triple]) -> Vec<usize> {
        let scores = self.scores(graph, triples);
        let mut order: Vec<usize> = (0..triples.len()).collect();
        order.sort_by(|&a, &b| scores[a].total_cmp(&scores[b]));
        order
    }

    /// Test accuracy under the fitted threshold.
    pub fn accuracy(&self, graph: &ProductGraph, test: &[LabeledTriple]) -> f32 {
        if test.is_empty() {
            return 0.0;
        }
        let triples: Vec<Triple> = test.iter().map(|lt| lt.triple).collect();
        let scores = self.scores(graph, &triples);
        let hits = scores
            .iter()
            .zip(test)
            .filter(|(&s, lt)| (s > self.threshold) == lt.correct)
            .count();
        hits as f32 / test.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pge_graph::{AttrId, ProductId, ValueId};

    /// Plausibility = value id: small ids look like errors.
    struct ById;

    impl ErrorDetector for ById {
        fn name(&self) -> String {
            "by-id".into()
        }
        fn plausibility(&self, _g: &ProductGraph, t: &Triple) -> f32 {
            t.value.0 as f32
        }
    }

    fn graph() -> ProductGraph {
        let mut g = ProductGraph::new();
        for i in 0..20 {
            g.add_fact(&format!("p{i}"), "a", &format!("v{i}"));
        }
        g
    }

    fn labeled(range: std::ops::Range<u32>, correct_above: u32) -> Vec<LabeledTriple> {
        range
            .map(|i| LabeledTriple {
                triple: Triple::new(ProductId(i), AttrId(0), ValueId(i)),
                correct: i >= correct_above,
            })
            .collect()
    }

    #[test]
    fn fit_finds_separating_threshold() {
        let g = graph();
        // values 0..5 incorrect, 5..10 correct; perfectly separable.
        let valid = labeled(0..10, 5);
        let det = Detector::fit(&ById, &g, &valid);
        assert!((det.valid_accuracy - 1.0).abs() < 1e-6);
        assert!(det.threshold >= 4.0 && det.threshold < 5.0);
        assert!(det.is_error(&g, &valid[0].triple));
        assert!(!det.is_error(&g, &valid[9].triple));
    }

    #[test]
    fn rank_errors_orders_ascending_plausibility() {
        let g = graph();
        let triples: Vec<Triple> = (0..6u32)
            .rev()
            .map(|i| Triple::new(ProductId(i), AttrId(0), ValueId(i)))
            .collect();
        let det = Detector::fit(&ById, &g, &labeled(0..10, 5));
        let order = det.rank_errors(&g, &triples);
        // triples are in descending value order; rank must invert it.
        assert_eq!(order, vec![5, 4, 3, 2, 1, 0]);
    }

    #[test]
    fn accuracy_on_separable_test() {
        let g = graph();
        let det = Detector::fit(&ById, &g, &labeled(0..10, 5));
        let test = labeled(10..20, 10); // all correct, all above θ
        assert!((det.accuracy(&g, &test) - 1.0).abs() < 1e-6);
        assert_eq!(det.accuracy(&g, &[]), 0.0);
    }

    /// NaN for even value ids, the id itself otherwise.
    struct NanById;

    impl ErrorDetector for NanById {
        fn name(&self) -> String {
            "nan-by-id".into()
        }
        fn plausibility(&self, _g: &ProductGraph, t: &Triple) -> f32 {
            if t.value.0.is_multiple_of(2) {
                f32::NAN
            } else {
                t.value.0 as f32
            }
        }
    }

    #[test]
    fn fit_terminates_with_nan_plausibilities() {
        // Regression: a NaN score used to wedge the threshold sweep in
        // an infinite loop, hanging `fit` (and `pge eval` with it).
        let g = graph();
        let valid = labeled(0..10, 5);
        let det = Detector::fit(&NanById, &g, &valid);
        assert!(det.threshold.is_finite());
        assert!((0.0..=1.0).contains(&det.valid_accuracy));
        // NaN-scored and low-scored triples are flagged; a correct
        // high-scored one is not.
        assert!(det.is_error(&g, &valid[0].triple)); // NaN score
        assert!(det.is_error(&g, &valid[1].triple)); // score 1
        assert!(!det.is_error(&g, &valid[9].triple)); // score 9
    }

    #[test]
    fn model_name_for_reports() {
        // Covered more cheaply here than by training: the trait impl
        // formats like the paper's method labels.
        let _ = ById.name();
    }
}
