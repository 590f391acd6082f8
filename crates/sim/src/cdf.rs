//! Cumulative distribution functions for experiment reporting.
//!
//! Every figure in the paper is a CDF ("cumulative % of ISP pairs / flows
//! / failed links" on the y-axis). [`Cdf`] collects samples and emits the
//! same series: the x-value at each cumulative percentage.
//!
//! Result structs hold every series whole, as a `Vec<f64>`, and build a
//! [`Cdf`] only when a report or gate reads it. The largest series,
//! Fig. 6's per-flow gains, is 160 832 samples (1.3 MB) per column at
//! full paper scale.

/// An empirical CDF over `f64` samples.
#[derive(Debug, Clone)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from samples (non-finite samples are rejected).
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|s| s.is_finite()),
            "CDF samples must be finite"
        );
        samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        Self { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The x-value below which `pct` percent of samples fall
    /// (nearest-rank percentile). Panics on an empty CDF or `pct` outside
    /// `[0, 100]`.
    pub fn percentile(&self, pct: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "percentile of empty CDF");
        assert!((0.0..=100.0).contains(&pct), "pct out of range: {pct}");
        if self.sorted.len() == 1 {
            return self.sorted[0];
        }
        let rank = (pct / 100.0) * (self.sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// Median.
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Smallest sample.
    pub fn min(&self) -> f64 {
        *self.sorted.first().expect("empty CDF")
    }

    /// Largest sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().expect("empty CDF")
    }

    /// The standard report series: x-values at 5% steps, matching how the
    /// paper's curves are read off.
    pub fn series(&self) -> Vec<(f64, f64)> {
        (0..=20)
            .map(|i| {
                let pct = i as f64 * 5.0;
                (pct, self.percentile(pct))
            })
            .collect()
    }

    /// Print the series as aligned rows with a label.
    pub fn print(&self, label: &str) {
        if self.is_empty() {
            println!("{label}: (no samples)");
            return;
        }
        println!("{label} (n={}):", self.len());
        println!("  cumulative%      x");
        for (pct, x) in self.series() {
            println!("  {pct:10.0} {x:10.3}");
        }
    }
}

impl FromIterator<f64> for Cdf {
    fn from_iter<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        Self::new(samples.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_uniform_ramp() {
        let cdf = Cdf::new((0..=100).map(|i| i as f64).collect());
        assert_eq!(cdf.percentile(0.0), 0.0);
        assert_eq!(cdf.percentile(50.0), 50.0);
        assert_eq!(cdf.percentile(100.0), 100.0);
        assert_eq!(cdf.median(), 50.0);
        assert_eq!(cdf.min(), 0.0);
        assert_eq!(cdf.max(), 100.0);
    }

    #[test]
    fn interpolation_between_ranks() {
        let cdf = Cdf::new(vec![0.0, 10.0]);
        assert!((cdf.percentile(50.0) - 5.0).abs() < 1e-9);
        assert!((cdf.percentile(25.0) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn single_sample() {
        let cdf = Cdf::new(vec![7.0]);
        assert_eq!(cdf.percentile(0.0), 7.0);
        assert_eq!(cdf.percentile(100.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn rejects_nan() {
        Cdf::new(vec![f64::NAN]);
    }

    #[test]
    fn series_has_21_points() {
        let cdf = Cdf::new(vec![1.0, 2.0, 3.0]);
        let s = cdf.series();
        assert_eq!(s.len(), 21);
        assert_eq!(s[0].0, 0.0);
        assert_eq!(s[20].0, 100.0);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn percentile_is_monotone(
                samples in proptest::collection::vec(-1e6f64..1e6, 1..200),
                p1 in 0.0f64..100.0,
                p2 in 0.0f64..100.0,
            ) {
                let cdf = Cdf::new(samples);
                let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
                prop_assert!(cdf.percentile(lo) <= cdf.percentile(hi) + 1e-9);
            }

            #[test]
            fn percentile_within_sample_range(
                samples in proptest::collection::vec(-1e6f64..1e6, 1..200),
                p in 0.0f64..100.0,
            ) {
                let cdf = Cdf::new(samples);
                let v = cdf.percentile(p);
                prop_assert!(v >= cdf.min() - 1e-9 && v <= cdf.max() + 1e-9);
            }
        }
    }
}
