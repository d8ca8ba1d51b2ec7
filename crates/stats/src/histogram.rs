//! Fixed-bin histograms with an ASCII renderer, used by the examples to
//! visualise empirical sampling distributions (the paper's §7.2 "empirically
//! observed distribution of samples").

/// A histogram over `[lo, hi)` with equally wide bins.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    /// Observations outside `[lo, hi)`.
    outliers: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins over `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "need at least one bin");
        assert!(lo < hi, "empty range [{lo}, {hi})");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            outliers: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        if x < self.lo || x >= self.hi {
            self.outliers += 1;
            return;
        }
        let frac = (x - self.lo) / (self.hi - self.lo);
        let idx = ((frac * self.bins.len() as f64) as usize).min(self.bins.len() - 1);
        self.bins[idx] += 1;
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// The `[lo, hi)` range the bins cover.
    pub fn range(&self) -> (f64, f64) {
        (self.lo, self.hi)
    }

    /// Observations that fell outside the range.
    pub fn outliers(&self) -> u64 {
        self.outliers
    }

    /// Total in-range observations.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum()
    }

    /// Renders the histogram as rows of `#` bars, `width` characters at the
    /// tallest bin.
    pub fn render(&self, width: usize) -> String {
        let max = self.bins.iter().copied().max().unwrap_or(0).max(1);
        let bin_w = (self.hi - self.lo) / self.bins.len() as f64;
        let mut out = String::new();
        for (i, &c) in self.bins.iter().enumerate() {
            let bar_len = (c as f64 / max as f64 * width as f64).round() as usize;
            let lo = self.lo + i as f64 * bin_w;
            out.push_str(&format!(
                "[{:>12.1}, {:>12.1}) | {:<w$} {}\n",
                lo,
                lo + bin_w,
                "#".repeat(bar_len),
                c,
                w = width
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_into_correct_bins() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        h.record(0.0);
        h.record(1.9);
        h.record(2.0);
        h.record(9.99);
        assert_eq!(h.counts(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.total(), 4);
    }

    #[test]
    fn outliers_tracked() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.record(-0.5);
        h.record(1.0); // hi is exclusive
        h.record(0.5);
        assert_eq!(h.outliers(), 2);
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn render_is_proportional() {
        let mut h = Histogram::new(0.0, 2.0, 2);
        for _ in 0..10 {
            h.record(0.5);
        }
        for _ in 0..5 {
            h.record(1.5);
        }
        let s = h.render(20);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].matches('#').count() == 20);
        assert!(lines[1].matches('#').count() == 10);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_panic() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }
}
