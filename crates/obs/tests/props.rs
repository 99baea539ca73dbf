//! Property-based tests for the shared observability primitives.

use pge_obs::json::{parse, Json};
use pge_obs::{sparkline, AtomicHistogram, MetricsRegistry};
use proptest::prelude::*;

fn arb_bounds() -> impl Strategy<Value = Vec<f64>> {
    // Strictly ascending positive bounds.
    prop::collection::vec(0.001f64..1000.0, 1..12).prop_map(|mut v| {
        v.sort_by(f64::total_cmp);
        v.dedup();
        v
    })
}

/// Any `char`, weighted towards the ones a JSON string must escape or
/// that span several UTF-8 bytes.
fn arb_char() -> impl Strategy<Value = char> {
    (0u8..4, 0u32..0x11_0000).prop_map(|(class, x)| {
        let c = match class {
            0 => x % 0x80,
            1 => [0x00, 0x08, 0x0a, 0x1f, 0x22, 0x5c, 0x7f][x as usize % 7],
            2 => 0x80 + x % 0xff80,
            _ => x,
        };
        char::from_u32(c).unwrap_or('\u{fffd}')
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn json_strings_round_trip(chars in prop::collection::vec(arb_char(), 0..64)) {
        let s: String = chars.into_iter().collect();
        let original = Json::Str(s);
        prop_assert_eq!(parse(&original.to_string()).unwrap(), original);
    }
}

proptest! {
    #[test]
    fn count_conserves_observations(bounds in arb_bounds(),
                                    xs in prop::collection::vec(-10.0f64..1e6, 0..200)) {
        let h = AtomicHistogram::new(bounds);
        for &x in &xs {
            h.observe(x);
        }
        prop_assert_eq!(h.count(), xs.len() as u64);
        prop_assert_eq!(h.bucket_counts().iter().sum::<u64>(), xs.len() as u64);
    }

    #[test]
    fn quantile_is_none_iff_empty(bounds in arb_bounds(),
                                  xs in prop::collection::vec(0.0f64..100.0, 0..50)) {
        let h = AtomicHistogram::new(bounds);
        for &x in &xs {
            h.observe(x);
        }
        prop_assert_eq!(h.quantile(0.5).is_none(), xs.is_empty());
    }

    #[test]
    fn quantile_is_monotone_and_within_bounds(bounds in arb_bounds(),
                                              xs in prop::collection::vec(0.0f64..2000.0, 1..100)) {
        let h = AtomicHistogram::new(bounds.clone());
        for &x in &xs {
            h.observe(x);
        }
        let mut prev = f64::NEG_INFINITY;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            prop_assert!(v >= prev, "quantile({q}) = {v} < {prev}");
            prop_assert!(bounds.contains(&v));
            prev = v;
        }
    }

    #[test]
    fn quantile_upper_bounds_the_true_value(bounds in arb_bounds(),
                                            xs in prop::collection::vec(0.0f64..100.0, 1..100)) {
        // For values that fall inside the bounded range, the reported
        // bucket bound is >= the true quantile value.
        let h = AtomicHistogram::new(bounds.clone());
        let last = *bounds.last().unwrap();
        let inside: Vec<f64> = xs.into_iter().filter(|&x| x <= last).collect();
        prop_assume!(!inside.is_empty());
        for &x in &inside {
            h.observe(x);
        }
        let mut sorted = inside.clone();
        sorted.sort_by(f64::total_cmp);
        for q in [0.1, 0.5, 0.9] {
            let true_q = sorted[((sorted.len() - 1) as f64 * q) as usize];
            prop_assert!(h.quantile(q).unwrap() >= true_q);
        }
    }

    #[test]
    fn overflow_accounting_matches(bounds in arb_bounds(),
                                   xs in prop::collection::vec(0.0f64..2000.0, 0..100)) {
        let h = AtomicHistogram::new(bounds.clone());
        let last = *bounds.last().unwrap();
        for &x in &xs {
            h.observe(x);
        }
        let expected = xs.iter().filter(|&&x| x > last).count() as u64;
        prop_assert_eq!(h.overflow_count(), expected);
    }

    #[test]
    fn sum_tracks_clamped_total(xs in prop::collection::vec(-5.0f64..100.0, 0..100)) {
        let h = AtomicHistogram::new(vec![1.0]);
        for &x in &xs {
            h.observe(x);
        }
        let expected: f64 = xs.iter().map(|&x| x.max(0.0)).sum();
        prop_assert!((h.sum() - expected).abs() < 1e-3 * (1.0 + expected));
    }

    #[test]
    fn nan_observations_change_nothing(xs in prop::collection::vec(0.0f64..10.0, 0..50),
                                       nans in 0usize..5) {
        let h = AtomicHistogram::new(vec![1.0, 5.0]);
        for &x in &xs {
            h.observe(x);
        }
        let before = h.bucket_counts();
        for _ in 0..nans {
            h.observe(f64::NAN);
        }
        prop_assert_eq!(h.bucket_counts(), before);
    }

    #[test]
    fn rendered_histogram_counts_are_cumulative(xs in prop::collection::vec(0.0f64..20.0, 0..50)) {
        let r = MetricsRegistry::new();
        let h = r.histogram("pge_prop_seconds", "prop", vec![1.0, 5.0, 10.0]);
        for &x in &xs {
            h.observe(x);
        }
        let text = r.render();
        let mut last = 0u64;
        let mut bucket_lines = 0;
        for line in text.lines().filter(|l| l.contains("_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            prop_assert!(v >= last, "{text}");
            last = v;
            bucket_lines += 1;
        }
        prop_assert_eq!(bucket_lines, 4); // 3 bounds + +Inf
        prop_assert_eq!(last, xs.len() as u64);
    }

    #[test]
    fn sparkline_len_matches_input(xs in prop::collection::vec(-100.0f64..100.0, 0..50)) {
        prop_assert_eq!(sparkline(&xs).chars().count(), xs.len());
    }
}
