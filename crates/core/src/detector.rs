//! Error detection on top of a trained model (§4.2): threshold
//! selection on validation accuracy, classification, and error
//! ranking.

use crate::api::{plausibility_parallel, ErrorDetector};
use crate::model::PgeModel;
use pge_graph::{LabeledTriple, ProductGraph, Triple};
use pge_obs::span;

impl ErrorDetector for PgeModel {
    fn name(&self) -> String {
        format!(
            "PGE({})-{}",
            self.encoder().kind().name(),
            self.scorer().kind.name()
        )
    }

    /// Scores the triple's text, through the same function as the
    /// oracle [`PgeModel::score_text_triple`].
    fn plausibility(&self, graph: &ProductGraph, t: &Triple) -> f32 {
        self.score_fact(graph.title(t.product), t.attr, graph.value_text(t.value))
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
        let scores = plausibility_parallel(method, graph, &triples, default_threads());
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
        plausibility_parallel(self.method, graph, triples, default_threads())
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

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(1)
}

/// Accuracy-maximizing threshold over `(score, is_correct)` pairs
/// (same contract as `pge_eval::best_accuracy_threshold`, duplicated
/// here because `pge-core` stays independent of the eval crate).
fn best_threshold(pairs: &[(f32, bool)]) -> (f32, f32) {
    if pairs.is_empty() {
        return (0.0, 0.0);
    }
    // NaN scores never satisfy `score > θ` (always predicted
    // incorrect), so they add a constant to the accuracy and must be
    // excluded from the sweep — a NaN group would never advance the
    // dedup loop below (`NaN == NaN` is false) and `fit` used to hang.
    let nan_hits = pairs.iter().filter(|(s, c)| s.is_nan() && !*c).count() as f32;
    let n = pairs.len() as f32;
    let mut sorted: Vec<(f32, bool)> = pairs.iter().copied().filter(|(s, _)| !s.is_nan()).collect();
    if sorted.is_empty() {
        return (0.0, nan_hits / n);
    }
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut hits = sorted.iter().filter(|(_, c)| *c).count() as f32 + nan_hits;
    let mut best_acc = hits / n;
    let mut best_theta = sorted[0].0 - 1.0;
    let mut i = 0;
    while i < sorted.len() {
        let s = sorted[i].0;
        while i < sorted.len() && sorted[i].0 == s {
            hits += if sorted[i].1 { -1.0 } else { 1.0 };
            i += 1;
        }
        let acc = hits / n;
        if acc > best_acc {
            best_acc = acc;
            best_theta = if i < sorted.len() {
                (s + sorted[i].0) / 2.0
            } else {
                s + 1.0
            };
        }
    }
    (best_theta, best_acc)
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
