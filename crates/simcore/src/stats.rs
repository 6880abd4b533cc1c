//! Measurement: streaming moments, exact quantiles, and CCDF extraction.
//!
//! Every figure in the paper reports one of three things — a mean, a high
//! quantile (99th / 99.9th percentile), or a "fraction later than threshold"
//! curve (a complementary CDF on log axes). [`Welford`] provides numerically
//! stable streaming moments; [`SampleSet`] keeps the full sample for exact
//! order statistics (our experiments record at most a few million points, so
//! exactness is affordable and avoids quantile-sketch error bars right where
//! the paper's claims live — the extreme tail); [`Ccdf`] renders the
//! tail-fraction curves.

/// Numerically stable streaming mean/variance (Welford's algorithm) with
/// min/max tracking.
#[derive(Clone, Debug, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 with fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Smallest observation (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (Chan's parallel update).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// A full-sample collection supporting exact quantiles and tail fractions.
#[derive(Clone, Debug, Default)]
pub struct SampleSet {
    xs: Vec<f64>,
    sorted: bool,
}

impl SampleSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        SampleSet {
            xs: Vec::new(),
            sorted: true,
        }
    }

    /// Creates an empty set with reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        SampleSet {
            xs: Vec::with_capacity(cap),
            sorted: true,
        }
    }

    /// Adds one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        debug_assert!(!x.is_nan());
        self.xs.push(x);
        self.sorted = false;
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// `true` if no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.xs.sort_unstable_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.xs.is_empty() {
            0.0
        } else {
            self.xs.iter().sum::<f64>() / self.xs.len() as f64
        }
    }

    /// Exact interpolated quantile, `q ∈ [0, 1]` (linear interpolation
    /// between closest ranks, the R-7 definition).
    ///
    /// # Panics
    /// Panics on an empty set or out-of-range `q`.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!(!self.xs.is_empty(), "quantile of empty sample");
        assert!((0.0..=1.0).contains(&q), "quantile {q} out of range");
        self.ensure_sorted();
        let n = self.xs.len();
        if n == 1 {
            return self.xs[0];
        }
        let h = q * (n - 1) as f64;
        let lo = h.floor() as usize;
        let hi = (lo + 1).min(n - 1);
        let frac = h - lo as f64;
        self.xs[lo] + (self.xs[hi] - self.xs[lo]) * frac
    }

    /// Median (50th percentile).
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// Fraction of observations strictly greater than `threshold` — the
    /// y-axis of the paper's "fraction later than threshold" plots.
    pub fn tail_fraction(&mut self, threshold: f64) -> f64 {
        if self.xs.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        // First index with value > threshold.
        let idx = self.xs.partition_point(|&x| x <= threshold);
        (self.xs.len() - idx) as f64 / self.xs.len() as f64
    }

    /// Appends all samples from `other`, consuming it: merging into an
    /// empty set moves `other`'s storage instead of copying it.
    pub fn merge(&mut self, other: SampleSet) {
        if self.xs.is_empty() {
            *self = other;
        } else {
            self.xs.extend_from_slice(&other.xs);
            self.sorted = false;
        }
    }

    /// Extracts a complementary CDF with `points` log-spaced thresholds
    /// between the smallest positive sample and the maximum.
    pub fn ccdf(&mut self, points: usize) -> Ccdf {
        assert!(points >= 2, "need at least 2 ccdf points");
        self.ensure_sorted();
        let lo = self
            .xs
            .iter()
            .copied()
            .find(|&x| x > 0.0)
            .unwrap_or(1e-9)
            .max(1e-12);
        let hi = self
            .xs
            .last()
            .copied()
            .unwrap_or(1.0)
            .max(lo * (1.0 + 1e-9));
        let ratio = (hi / lo).powf(1.0 / (points - 1) as f64);
        let mut entries = Vec::with_capacity(points);
        let mut t = lo;
        for _ in 0..points {
            entries.push((t, self.tail_fraction(t)));
            t *= ratio;
        }
        Ccdf { entries }
    }
}

impl FromIterator<f64> for SampleSet {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = SampleSet::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

/// A complementary CDF: `(threshold, fraction of samples > threshold)`
/// pairs, log-spaced — directly plottable against the paper's Fig 1(c),
/// Fig 5-13 right panels, and Fig 15.
#[derive(Clone, Debug)]
pub struct Ccdf {
    entries: Vec<(f64, f64)>,
}

impl Ccdf {
    /// The `(threshold, tail fraction)` pairs.
    pub fn entries(&self) -> &[(f64, f64)] {
        &self.entries
    }

    /// Writes the curve as two-column text (gnuplot-ready).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for &(t, frac) in &self.entries {
            out.push_str(&format!("{t:.9e} {frac:.9e}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
        assert_eq!(w.min(), 1.0);
        assert_eq!(w.max(), 9.0);
        assert_eq!(w.count(), 8);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 * 0.5).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for (i, &x) in xs.iter().enumerate() {
            if i % 3 == 0 {
                a.push(x)
            } else {
                b.push(x)
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn quantiles_exact_on_known_data() {
        let mut s: SampleSet = (1..=100).map(|i| i as f64).collect();
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert!((s.median() - 50.5).abs() < 1e-12);
        // R-7: q(0.99) of 1..=100 is 99.01.
        assert!((s.quantile(0.99) - 99.01).abs() < 1e-9);
    }

    #[test]
    fn quantile_edge_cases() {
        // q = 0 and q = 1 are the exact extremes, bit-for-bit.
        let mut s: SampleSet = [5.0, -2.0, 11.0, 3.0].into_iter().collect();
        assert_eq!(s.quantile(0.0), -2.0);
        assert_eq!(s.quantile(1.0), 11.0);

        // A single-element sample returns that element for every q.
        let mut one: SampleSet = [42.5].into_iter().collect();
        for q in [0.0, 0.3, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile(q), 42.5);
        }

        // Interpolation exactly on an index boundary: for n = 5 the rank
        // h = q·(n−1) is integral at q = 0.25 (h = 1) and q = 0.75 (h = 3),
        // so the result must be the sorted element itself with zero
        // interpolation residue.
        let mut five: SampleSet = [10.0, 20.0, 30.0, 40.0, 50.0].into_iter().collect();
        assert_eq!(five.quantile(0.25), 20.0);
        assert_eq!(five.quantile(0.75), 40.0);
        // And just off the boundary it interpolates linearly.
        assert!((five.quantile(0.5 + 0.125) - 35.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn quantile_out_of_range_panics() {
        let mut s: SampleSet = [1.0].into_iter().collect();
        let _ = s.quantile(1.5);
    }

    #[test]
    fn tail_fraction_counts_strictly_greater() {
        let mut s: SampleSet = [1.0, 2.0, 2.0, 3.0].into_iter().collect();
        assert_eq!(s.tail_fraction(0.5), 1.0);
        assert_eq!(s.tail_fraction(2.0), 0.25);
        assert_eq!(s.tail_fraction(3.0), 0.0);
    }

    #[test]
    fn ccdf_is_monotone_nonincreasing() {
        let mut rng = crate::rng::Rng::seed_from(3);
        let mut s = SampleSet::new();
        for _ in 0..10_000 {
            s.push(rng.exponential(1.0));
        }
        let c = s.ccdf(50);
        assert_eq!(c.entries().len(), 50);
        for w in c.entries().windows(2) {
            assert!(w[0].0 < w[1].0, "thresholds not increasing");
            assert!(w[0].1 >= w[1].1, "ccdf increased");
        }
    }

    #[test]
    fn merge_sampleset() {
        let mut a: SampleSet = [1.0, 2.0].into_iter().collect();
        let b: SampleSet = [3.0, 4.0].into_iter().collect();
        a.merge(b);
        assert_eq!(a.len(), 4);
        assert_eq!(a.quantile(1.0), 4.0);
        // Merging into an empty set takes the other set whole.
        let mut c = SampleSet::new();
        c.merge(a.clone());
        assert_eq!((c.len(), c.mean()), (4, 2.5));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn quantile_of_empty_panics() {
        let mut s = SampleSet::new();
        let _ = s.quantile(0.5);
    }
}
