//! Fixed-range histograms (Fig. 5's confidence-score distributions).
//!
//! The lock-free [`AtomicHistogram`] used for concurrent latency
//! recording lives in `pge-obs` now (every subsystem shares it); it is
//! re-exported here so existing `pge_eval::AtomicHistogram` callers
//! keep compiling.

pub use pge_obs::AtomicHistogram;

/// A histogram over a fixed `[lo, hi]` range with uniform bins.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    lo: f32,
    hi: f32,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// # Panics
    /// Panics unless `lo < hi` and `bins >= 1`.
    pub fn new(lo: f32, hi: f32, bins: usize) -> Self {
        assert!(lo < hi && bins >= 1, "bad histogram range/bins");
        Histogram {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Histogram over `[0, 1]` — the confidence-score range.
    pub fn unit(bins: usize) -> Self {
        Histogram::new(0.0, 1.0, bins)
    }

    /// Add one observation; out-of-range values clamp to the edge
    /// bins (confidence scores are clamped to `[0, 1]` anyway).
    pub fn add(&mut self, x: f32) {
        let bins = self.counts.len();
        let t = ((x - self.lo) / (self.hi - self.lo)).clamp(0.0, 1.0);
        let mut b = (t * bins as f32) as usize;
        if b == bins {
            b -= 1;
        }
        self.counts[b] += 1;
        self.total += 1;
    }

    pub fn add_all(&mut self, xs: impl IntoIterator<Item = f32>) {
        for x in xs {
            self.add(x);
        }
    }

    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    /// Fraction of mass in bins whose upper edge is ≤ `x`.
    pub fn fraction_below(&self, x: f32) -> f32 {
        if self.total == 0 {
            return 0.0;
        }
        let bins = self.counts.len();
        let width = (self.hi - self.lo) / bins as f32;
        let mut below = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            let upper = self.lo + width * (b + 1) as f32;
            if upper <= x + 1e-6 {
                below += c;
            }
        }
        below as f32 / self.total as f32
    }

    /// Render as an ASCII bar chart, one line per bin.
    pub fn render(&self, width: usize) -> String {
        let bins = self.counts.len();
        let bin_w = (self.hi - self.lo) / bins as f32;
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (b, &c) in self.counts.iter().enumerate() {
            let lo = self.lo + bin_w * b as f32;
            let bar = "#".repeat(((c as f32 / max as f32) * width as f32).round() as usize);
            out.push_str(&format!(
                "[{:>5.2},{:>5.2}) {:>7} {}\n",
                lo,
                lo + bin_w,
                c,
                bar
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_and_totals() {
        let mut h = Histogram::unit(10);
        h.add_all([0.05, 0.05, 0.95, 0.5]);
        assert_eq!(h.total(), 4);
        assert_eq!(h.counts()[0], 2);
        assert_eq!(h.counts()[9], 1);
        assert_eq!(h.counts()[5], 1);
    }

    #[test]
    fn upper_edge_lands_in_last_bin() {
        let mut h = Histogram::unit(4);
        h.add(1.0);
        assert_eq!(h.counts()[3], 1);
    }

    #[test]
    fn out_of_range_clamps() {
        let mut h = Histogram::unit(4);
        h.add(-5.0);
        h.add(7.0);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[3], 1);
    }

    #[test]
    fn fraction_below_midpoint() {
        let mut h = Histogram::unit(10);
        h.add_all([0.1, 0.2, 0.3, 0.9]);
        assert!((h.fraction_below(0.5) - 0.75).abs() < 1e-6);
        assert_eq!(Histogram::unit(4).fraction_below(0.5), 0.0);
    }

    #[test]
    fn render_is_stable() {
        let mut h = Histogram::unit(2);
        h.add_all([0.25, 0.25, 0.75]);
        let r = h.render(10);
        assert!(r.contains("##########"), "{r}");
        assert_eq!(r.lines().count(), 2);
    }

    #[test]
    fn single_bin_histogram_saturates_correctly() {
        let mut h = Histogram::unit(1);
        h.add_all([0.0, 0.5, 1.0, 2.0, -1.0]);
        assert_eq!(h.counts(), &[5]);
        assert!((h.fraction_below(1.0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn reexported_atomic_histogram_still_works() {
        // The shared implementation moved to pge-obs; the old path
        // must keep functioning for downstream callers.
        let h = AtomicHistogram::exponential(1e-4, 2.0, 4);
        h.observe(2e-4);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.5), Some(2e-4));
    }

    #[test]
    #[should_panic(expected = "bad histogram")]
    fn rejects_empty_range() {
        let _ = Histogram::new(1.0, 1.0, 4);
    }
}
