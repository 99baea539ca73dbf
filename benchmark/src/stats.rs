//! Order statistics for pass and window samples.

/// A metric value as reported: the median of its samples with the
/// quartiles and the sample count beside it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// A single observation (a count, a ratio, a one-shot timing).
    pub fn single(value: f64) -> Summary {
        Summary {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// The largest of `samples`, with their quartiles beside it: the
    /// fastest pass or window of a throughput. Interference on a
    /// shared host only ever slows a pass down, and comes in bursts
    /// that can cover most of a run, so the fastest pass is the one
    /// that says most about the code and least about the neighbours.
    pub fn fastest(samples: &[f64]) -> Summary {
        Summary {
            value: fastest(samples),
            ..Summary::of(samples)
        }
    }

    /// Median and quartiles of `samples`; zero when there are none.
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary::single(0.0);
        }
        let (q1, value, q3) = quartiles(samples);
        Summary {
            value,
            q1,
            q3,
            n: samples.len(),
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    v
}

/// The largest sample; NaN when there are none.
pub fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::NAN, f64::max)
}

pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(samples, n=4)` gives them — the driver sizes
/// run-to-run spread with that function, so `check` must too.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let v = sorted(samples);
    let ld = v.len();
    match ld {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile; zero when there are no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let v = sorted(samples);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn fastest_keeps_the_quartiles_of_all_samples() {
        let s = Summary::fastest(&[3.0, 1.0, 2.0]);
        assert_eq!((s.value, s.q1, s.q3, s.n), (3.0, 1.0, 3.0, 3));
        assert!(fastest(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }
}
