//! Property-based tests for the evaluation metrics.

use pge_eval::{average_precision, pr_curve, recall_at_precision, Histogram, Scored};
use proptest::prelude::*;

fn arb_scored() -> impl Strategy<Value = Vec<Scored>> {
    prop::collection::vec((-100.0f32..100.0, any::<bool>()), 1..200)
        .prop_map(|v| v.into_iter().map(|(s, p)| Scored::new(s, p)).collect())
}

proptest! {
    #[test]
    fn ap_is_bounded(items in arb_scored()) {
        let ap = average_precision(&items);
        prop_assert!((0.0..=1.0).contains(&ap), "ap={ap}");
    }

    #[test]
    fn ap_of_perfect_ranking_is_one(n_pos in 1usize..50, n_neg in 0usize..50) {
        let mut items = Vec::new();
        for i in 0..n_pos {
            items.push(Scored::new(1000.0 + i as f32, true));
        }
        for i in 0..n_neg {
            items.push(Scored::new(-(i as f32), false));
        }
        prop_assert!((average_precision(&items) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn recall_at_precision_monotone_in_p(items in arb_scored()) {
        let r_low = recall_at_precision(&items, 0.3);
        let r_mid = recall_at_precision(&items, 0.6);
        let r_high = recall_at_precision(&items, 0.9);
        prop_assert!(r_low + 1e-6 >= r_mid);
        prop_assert!(r_mid + 1e-6 >= r_high);
    }

    #[test]
    fn curve_recall_monotone_and_ends_at_one(items in arb_scored()) {
        let curve = pr_curve(&items);
        prop_assume!(!curve.is_empty());
        for w in curve.windows(2) {
            prop_assert!(w[1].0 + 1e-6 >= w[0].0);
        }
        prop_assert!((curve.last().unwrap().0 - 1.0).abs() < 1e-5);
    }

    #[test]
    fn ap_invariant_to_score_shift_and_scale(
        items in arb_scored(),
        shift in -50.0f32..50.0,
        scale in 0.1f32..10.0,
    ) {
        let transformed: Vec<Scored> = items
            .iter()
            .map(|s| Scored::new(s.score * scale + shift, s.positive))
            .collect();
        let a = average_precision(&items);
        let b = average_precision(&transformed);
        prop_assert!((a - b).abs() < 1e-4, "{a} vs {b}");
    }

    #[test]
    fn histogram_total_matches_input(xs in prop::collection::vec(-2.0f32..3.0, 0..200)) {
        let mut h = Histogram::unit(7);
        h.add_all(xs.iter().copied());
        prop_assert_eq!(h.total(), xs.len() as u64);
        prop_assert_eq!(h.counts().iter().sum::<u64>(), xs.len() as u64);
    }

    #[test]
    fn histogram_fraction_below_is_cdf_like(xs in prop::collection::vec(0.0f32..1.0, 1..100)) {
        let mut h = Histogram::unit(10);
        h.add_all(xs.iter().copied());
        let f3 = h.fraction_below(0.3);
        let f7 = h.fraction_below(0.7);
        prop_assert!(f3 <= f7 + 1e-6);
        prop_assert!((0.0..=1.0).contains(&f3));
        prop_assert!((h.fraction_below(1.0) - 1.0).abs() < 1e-6);
    }
}
