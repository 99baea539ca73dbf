//! Validation-accuracy threshold selection (§4.2 of the paper).
//!
//! A triple is classified correct when its plausibility score
//! `f_a(t,v)` exceeds θ; θ is chosen to maximize classification
//! accuracy on the validation set. [`crate::Detector::fit`] runs this
//! sweep for detect, eval, scan and the gateway.

/// Find `(θ, accuracy)` maximizing accuracy of the rule
/// `predict correct ⇔ score > θ` over `(score, is_correct)` pairs.
///
/// Candidate thresholds are midpoints between adjacent distinct scores
/// plus sentinels below/above all scores. Returns `(0.0, 0.0)` for an
/// empty input.
pub(crate) fn best_threshold(pairs: &[(f32, bool)]) -> (f32, f32) {
    if pairs.is_empty() {
        return (0.0, 0.0);
    }
    // A NaN score never satisfies `score > θ`, so NaN items are
    // predicted incorrect at every threshold: they contribute a
    // constant to the accuracy and take no part in the sweep. They
    // must be excluded *before* the dedup loop below — `NaN == NaN`
    // is false, so a NaN group would never advance `i` and the sweep
    // used to hang forever.
    let nan_hits = pairs.iter().filter(|(s, c)| s.is_nan() && !*c).count();
    let n = pairs.len();
    let mut sorted: Vec<(f32, bool)> = pairs.iter().copied().filter(|(s, _)| !s.is_nan()).collect();
    if sorted.is_empty() {
        // Every score is NaN: all thresholds are equivalent.
        return (0.0, nan_hits as f32 / n as f32);
    }
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));

    // Sweep thresholds from below the minimum upward. At θ = -inf all
    // items are predicted correct; moving θ past an item flips that
    // item's prediction to incorrect.
    //
    // Hit counts are integers end to end, and a candidate wins only on
    // a strictly greater count, so ties between equal-accuracy
    // plateaus always resolve to the *lowest* θ — exactly, for any
    // input size. An `f32` count would round above 2^24 items, and
    // comparing quotients could then flip which plateau wins with the
    // input order.
    let correct_total = sorted.iter().filter(|(_, c)| *c).count();
    // Start: everything (except NaN items) predicted correct.
    let mut hits = correct_total + nan_hits;
    let mut best_hits = hits;
    let mut best_theta = sorted[0].0 - 1.0;

    let mut i = 0;
    while i < sorted.len() {
        // Move θ past every item sharing this score.
        let s = sorted[i].0;
        while i < sorted.len() && sorted[i].0 == s {
            if sorted[i].1 {
                hits -= 1; // correct item now predicted incorrect
            } else {
                hits += 1; // incorrect item now predicted incorrect
            }
            i += 1;
        }
        if hits > best_hits {
            best_hits = hits;
            best_theta = if i < sorted.len() {
                (s + sorted[i].0) / 2.0
            } else {
                s + 1.0
            };
        }
    }
    (best_theta, best_hits as f32 / n as f32)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accuracy of `predict correct ⇔ score > θ` on `(score, is_correct)`.
    fn accuracy_at(pairs: &[(f32, bool)], theta: f32) -> f32 {
        if pairs.is_empty() {
            return 0.0;
        }
        let hits = pairs.iter().filter(|(s, c)| (*s > theta) == *c).count();
        hits as f32 / pairs.len() as f32
    }

    #[test]
    fn separable_data_achieves_perfect_accuracy() {
        let pairs = [(0.9, true), (0.8, true), (0.2, false), (0.1, false)];
        let (theta, acc) = best_threshold(&pairs);
        assert!((acc - 1.0).abs() < 1e-6);
        assert!(theta > 0.2 && theta < 0.8, "theta={theta}");
        assert!((accuracy_at(&pairs, theta) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn overlapping_data_picks_best_tradeoff() {
        // correct: 0.9 0.6 0.3 ; incorrect: 0.7 0.2 0.1
        let pairs = [
            (0.9, true),
            (0.6, true),
            (0.3, true),
            (0.7, false),
            (0.2, false),
            (0.1, false),
        ];
        let (theta, acc) = best_threshold(&pairs);
        // θ between 0.2 and 0.3 gets 5/6 (only 0.7-incorrect wrong).
        assert!((acc - 5.0 / 6.0).abs() < 1e-6, "acc={acc}");
        assert!(theta > 0.2 && theta < 0.3, "theta={theta}");
    }

    #[test]
    fn empty_input() {
        assert_eq!(best_threshold(&[]), (0.0, 0.0));
        assert_eq!(accuracy_at(&[], 0.0), 0.0);
    }

    #[test]
    fn all_one_class() {
        let all_correct = [(0.5, true), (0.7, true)];
        let (theta, acc) = best_threshold(&all_correct);
        assert!((acc - 1.0).abs() < 1e-6);
        assert!(theta < 0.5); // predicts everything correct

        let all_wrong = [(0.5, false), (0.7, false)];
        let (theta2, acc2) = best_threshold(&all_wrong);
        assert!((acc2 - 1.0).abs() < 1e-6);
        assert!(theta2 >= 0.7); // predicts everything incorrect
    }

    #[test]
    fn tied_scores_handled() {
        let pairs = [(0.5, true), (0.5, false), (0.5, true)];
        let (_, acc) = best_threshold(&pairs);
        assert!((acc - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn nan_scores_terminate_and_count_as_predicted_incorrect() {
        // Regression: a NaN score used to wedge the dedup loop forever
        // (`NaN == NaN` is false, so `i` never advanced).
        let pairs = [
            (f32::NAN, false),
            (0.9, true),
            (0.2, false),
            (f32::NAN, true),
        ];
        let (theta, acc) = best_threshold(&pairs);
        assert!(theta.is_finite());
        // NaN is never > θ: the NaN-incorrect item is always a hit and
        // the NaN-correct one never is; θ in (0.2, 0.9) gets the rest.
        assert!((acc - 0.75).abs() < 1e-6, "acc={acc}");
        assert!((accuracy_at(&pairs, theta) - acc).abs() < 1e-6);
    }

    #[test]
    fn all_nan_scores() {
        let (theta, acc) = best_threshold(&[(f32::NAN, true)]);
        assert!(theta.is_finite());
        assert_eq!(acc, 0.0);

        let all_wrong = [(f32::NAN, false), (f32::NAN, false)];
        let (theta2, acc2) = best_threshold(&all_wrong);
        assert!(theta2.is_finite());
        assert!((acc2 - 1.0).abs() < 1e-6);
    }

    #[test]
    fn equal_accuracy_plateaus_break_ties_to_lowest_threshold() {
        // Two disjoint thresholds reach the same best accuracy (3/4):
        // θ ∈ (0.1, 0.2) and θ ∈ (0.3, 0.4). The sweep must pick the
        // lower midpoint, exactly, regardless of input order.
        let base = [(0.1, false), (0.2, true), (0.3, false), (0.4, true)];
        let (theta, acc) = best_threshold(&base);
        assert_eq!(theta, (0.1 + 0.2) / 2.0);
        assert!((acc - 0.75).abs() < 1e-6);
        // All 24 permutations return bit-identical (θ, accuracy).
        let perms = [
            [0, 1, 2, 3],
            [3, 2, 1, 0],
            [1, 3, 0, 2],
            [2, 0, 3, 1],
            [0, 2, 1, 3],
            [3, 1, 2, 0],
        ];
        for p in perms {
            let shuffled: Vec<_> = p.iter().map(|&i| base[i]).collect();
            let (t, a) = best_threshold(&shuffled);
            assert_eq!(t.to_bits(), theta.to_bits(), "perm {p:?}");
            assert_eq!(a.to_bits(), acc.to_bits(), "perm {p:?}");
        }
    }

    #[test]
    fn accuracy_never_exceeds_reported_best() {
        let pairs = [
            (0.9, true),
            (0.4, false),
            (0.6, true),
            (0.5, false),
            (0.45, true),
        ];
        let (_, best) = best_threshold(&pairs);
        for probe in [-1.0, 0.0, 0.42, 0.47, 0.55, 0.7, 1.0] {
            assert!(accuracy_at(&pairs, probe) <= best + 1e-6);
        }
    }
}
