//! Statistics helpers for Monte-Carlo experiments.
//!
//! Provides [`RunningStats`] (Welford single-pass mean/variance),
//! percentile estimation, and [`Ccdf`] — the complementary CDF estimator
//! used for PAPR curves (experiment E10).

/// Single-pass mean/variance accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use wlan_math::stats::RunningStats;
/// let mut s = RunningStats::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 4);
/// assert!((s.mean() - 2.5).abs() < 1e-12);
/// assert!((s.variance() - 5.0 / 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
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

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance.
    ///
    /// Contract: with fewer than two observations there is no spread
    /// evidence, so this returns `0.0` (never NaN from a `0/0`), which is
    /// what a report wants for a degenerate one-sample ensemble.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel Welford).
    ///
    /// Contract: merging an empty `other` is the identity (no `0/0` NaN
    /// can leak into the mean), merging into an empty `self` copies
    /// `other`, and merging two empties leaves an empty accumulator —
    /// so per-batch partials from a parallel sweep can always be folded
    /// without special-casing batches that saw no data.
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for RunningStats {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = RunningStats::new();
        s.extend(iter);
        s
    }
}

/// Estimates the `p`-quantile (0 ≤ p ≤ 1) by linear interpolation on the
/// sorted sample.
///
/// Contract: NaN observations are treated as missing data and ignored —
/// a placeholder entry from an aborted sweep must not poison a whole
/// delay report. Returns `None` when no finite-or-infinite observations
/// remain (empty slice, or all NaN).
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]` (including NaN `p`).
pub fn percentile(data: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&p), "p must be within [0, 1]");
    let mut sorted: Vec<f64> = data.iter().copied().filter(|x| !x.is_nan()).collect();
    if sorted.is_empty() {
        return None;
    }
    sorted.sort_by(|a, b| a.total_cmp(b));
    let idx = p * (sorted.len() - 1) as f64;
    let lo = idx.floor() as usize;
    let hi = idx.ceil() as usize;
    let frac = idx - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Empirical complementary CDF: `P(X > x)` evaluated on a fixed grid.
///
/// Used for PAPR CCDF plots (experiment E10): feed per-symbol PAPR values
/// in dB and query how often a threshold is exceeded.
///
/// # Examples
///
/// ```
/// use wlan_math::stats::Ccdf;
/// let mut c = Ccdf::new(0.0, 10.0, 11);
/// for x in [1.0, 3.0, 5.0, 9.0] {
///     c.push(x);
/// }
/// assert!((c.eval(4.0) - 0.5).abs() < 1e-12); // 5.0 and 9.0 exceed 4.0
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ccdf {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Ccdf {
    /// Creates a CCDF estimator with `bins` grid points spanning `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `hi <= lo` or `bins < 2`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo, "grid must have positive width");
        assert!(bins >= 2, "need at least two grid points");
        Ccdf {
            lo,
            hi,
            counts: vec![0; bins],
            total: 0,
        }
    }

    /// Records an observation.
    pub fn push(&mut self, x: f64) {
        self.total += 1;
        // counts[i] accumulates observations exceeding grid point i.
        let bins = self.counts.len();
        for i in 0..bins {
            if x > self.grid_point(i) {
                self.counts[i] += 1;
            }
        }
    }

    /// The `i`-th grid point.
    fn grid_point(&self, i: usize) -> f64 {
        self.lo + (self.hi - self.lo) * i as f64 / (self.counts.len() - 1) as f64
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Evaluates `P(X > x)` at the nearest grid point at or above `x`.
    ///
    /// Returns 0 when no observations have been recorded.
    pub fn eval(&self, x: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let bins = self.counts.len();
        let pos = (x - self.lo) / (self.hi - self.lo) * (bins - 1) as f64;
        let idx = pos.ceil().clamp(0.0, (bins - 1) as f64) as usize;
        self.counts[idx] as f64 / self.total as f64
    }

    /// Iterates `(grid_point, P(X > grid_point))` pairs.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let total = self.total.max(1) as f64;
        (0..self.counts.len()).map(move |i| (self.grid_point(i), self.counts[i] as f64 / total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_two_pass() {
        let data = [2.5, -1.0, 3.7, 0.0, 8.2, -4.4];
        let s: RunningStats = data.iter().copied().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), -4.4);
        assert_eq!(s.max(), 8.2);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn merge_equals_sequential() {
        let a_data = [1.0, 2.0, 3.0];
        let b_data = [10.0, 20.0, 30.0, 40.0];
        let mut merged: RunningStats = a_data.iter().copied().collect();
        let b: RunningStats = b_data.iter().copied().collect();
        merged.merge(&b);
        let all: RunningStats = a_data.iter().chain(&b_data).copied().collect();
        assert!((merged.mean() - all.mean()).abs() < 1e-12);
        assert!((merged.variance() - all.variance()).abs() < 1e-12);
        assert_eq!(merged.count(), all.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: RunningStats = [5.0, 7.0].iter().copied().collect();
        let before = s;
        s.merge(&RunningStats::new());
        assert_eq!(s, before);
        assert!(!s.mean().is_nan() && !s.variance().is_nan());
    }

    #[test]
    fn merge_empty_into_empty_stays_empty_and_nan_free() {
        let mut s = RunningStats::new();
        s.merge(&RunningStats::new());
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        // min/max keep their empty-identity sentinels, ready for more merges.
        assert_eq!(s.min(), f64::INFINITY);
        assert_eq!(s.max(), f64::NEG_INFINITY);
    }

    #[test]
    fn merge_into_empty_copies_other() {
        let other: RunningStats = [1.0, 3.0, 5.0].iter().copied().collect();
        let mut s = RunningStats::new();
        s.merge(&other);
        assert_eq!(s, other);
    }

    #[test]
    fn single_sample_variance_is_zero_not_nan() {
        let mut s = RunningStats::new();
        s.push(4.2);
        assert_eq!(s.count(), 1);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!(s.mean(), 4.2);
    }

    #[test]
    fn percentile_interpolates() {
        let data = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&data, 0.0), Some(1.0));
        assert_eq!(percentile(&data, 1.0), Some(4.0));
        assert_eq!(percentile(&data, 0.5), Some(2.5));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn percentile_ignores_nan_observations() {
        // NaN entries are missing data, not poison: the quantile is taken
        // over the remaining observations.
        let data = [f64::NAN, 1.0, 2.0, f64::NAN, 3.0, 4.0];
        assert_eq!(percentile(&data, 0.5), Some(2.5));
        assert_eq!(percentile(&data, 0.0), Some(1.0));
        assert_eq!(percentile(&data, 1.0), Some(4.0));
        // All-NaN behaves like an empty sample.
        assert_eq!(percentile(&[f64::NAN, f64::NAN], 0.5), None);
    }

    #[test]
    #[should_panic(expected = "p must be within")]
    fn percentile_rejects_nan_p() {
        let _ = percentile(&[1.0, 2.0], f64::NAN);
    }

    #[test]
    fn ccdf_monotone_nonincreasing() {
        let mut c = Ccdf::new(0.0, 12.0, 25);
        for i in 0..1000 {
            c.push((i % 13) as f64);
        }
        let pts: Vec<(f64, f64)> = c.points().collect();
        for w in pts.windows(2) {
            assert!(w[0].1 >= w[1].1, "CCDF must not increase");
        }
        assert_eq!(c.count(), 1000);
    }

    #[test]
    fn ccdf_extremes() {
        let mut c = Ccdf::new(0.0, 10.0, 11);
        c.push(5.0);
        assert_eq!(c.eval(0.0), 1.0);
        assert_eq!(c.eval(10.0), 0.0);
    }
}
