//! A log-bucketed value histogram in the spirit of HdrHistogram.
//!
//! Values (typically latencies in nanoseconds) are binned into buckets whose
//! width grows geometrically: each power-of-two range is subdivided into
//! `2^SUB_BITS` linear sub-buckets, bounding the relative quantization error
//! at `2^-SUB_BITS` (< 1.6 % with the default of 6 sub-bucket bits) while
//! using a few kilobytes of memory regardless of the value range.

const SUB_BITS: u32 = 6;
const SUB_COUNT: usize = 1 << SUB_BITS;
/// Buckets cover values up to 2^40 ns ≈ 18 minutes, far beyond any latency
/// the experiments produce.
const RANGES: usize = 41;
const BUCKETS: usize = RANGES * SUB_COUNT;

/// Log-bucketed histogram with percentile, mean and standard-deviation
/// queries.
///
/// Recording is O(1); percentile queries are O(buckets). The exact sum of
/// raw values is kept alongside the buckets, so [`mean`](Histogram::mean) is
/// exact while percentiles carry the (bounded) bucket quantization error.
///
/// # Example
/// ```
/// use idem_metrics::Histogram;
/// let mut h = Histogram::new();
/// h.record_n(1_000, 10);
/// h.record(8_000);
/// assert_eq!(h.count(), 11);
/// assert_eq!(h.max(), 8_000 /* exact: maxima are tracked raw */);
/// let p50 = h.percentile(50.0);
/// assert!((990..=1024).contains(&p50), "p50 was {p50}");
/// ```
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u32>,
    count: u64,
    sum: u128,
    sum_sq: f64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            sum_sq: 0.0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_index(value: u64) -> usize {
        // Values below SUB_COUNT map linearly onto the first range.
        if value < SUB_COUNT as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros(); // >= SUB_BITS
        let range = (msb - SUB_BITS + 1).min(RANGES as u32 - 1);
        let sub = (value >> (range - 1)) as usize & (SUB_COUNT - 1);
        // range 0 is the linear region handled above; ranges 1.. hold
        // [2^(SUB_BITS+range-1), 2^(SUB_BITS+range)).
        range as usize * SUB_COUNT + sub
    }

    fn bucket_value(index: usize) -> u64 {
        let range = (index / SUB_COUNT) as u32;
        let sub = (index % SUB_COUNT) as u64;
        if range == 0 {
            sub
        } else {
            // Midpoint-ish representative: low edge of the sub-bucket.
            (sub | SUB_COUNT as u64) << (range - 1)
        }
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` observations of `value`.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = Self::bucket_index(value);
        self.buckets[idx] = self.buckets[idx].saturating_add(n.min(u64::from(u32::MAX)) as u32);
        self.count += n;
        self.sum += u128::from(value) * u128::from(n);
        self.sum_sq += (value as f64) * (value as f64) * (n as f64);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact arithmetic mean of all recorded values, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Population standard deviation of recorded values, or 0 if empty.
    pub fn stddev(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mean = self.mean();
        let var = self.sum_sq / self.count as f64 - mean * mean;
        var.max(0.0).sqrt()
    }

    /// Smallest recorded value (exact), or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value (exact), or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at or below which `p` percent of observations fall
    /// (`0.0 ..= 100.0`). Returns 0 for an empty histogram. The result
    /// carries the bucket quantization error (< 1.6 % relative).
    ///
    /// # Panics
    /// Panics if `p` is not within `0.0 ..= 100.0`.
    pub fn percentile(&self, p: f64) -> u64 {
        assert!((0.0..=100.0).contains(&p), "percentile must be in 0..=100");
        if self.count == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += u64::from(c);
            if seen >= target {
                // Clamp to true extrema so p0/p100 are exact.
                return Self::bucket_value(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Resolves several percentiles in a single pass over the buckets.
    ///
    /// Returns one value per entry of `ps`, each numerically identical to
    /// what [`percentile`](Self::percentile) returns for that entry — this
    /// exists so metric summaries asking for many quantiles (p50, p99, …)
    /// scan the bucket array once instead of once per quantile.
    ///
    /// # Example
    /// ```
    /// use idem_metrics::Histogram;
    /// let mut h = Histogram::new();
    /// for v in 1..=100u64 {
    ///     h.record(v * 1000);
    /// }
    /// let both = h.percentiles(&[50.0, 99.0]);
    /// assert_eq!(both, vec![h.percentile(50.0), h.percentile(99.0)]);
    /// ```
    ///
    /// # Panics
    /// Panics if any entry is not within `0.0 ..= 100.0`.
    pub fn percentiles(&self, ps: &[f64]) -> Vec<u64> {
        for &p in ps {
            assert!((0.0..=100.0).contains(&p), "percentile must be in 0..=100");
        }
        let mut out = vec![0u64; ps.len()];
        if self.count == 0 {
            return out;
        }
        // Same target rank as `percentile`, resolved in ascending order so
        // one scan covers every requested quantile.
        let targets: Vec<u64> = ps
            .iter()
            .map(|&p| ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64)
            .collect();
        let mut order: Vec<usize> = (0..ps.len()).collect();
        order.sort_by_key(|&k| targets[k]);
        let mut next = 0usize;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if next == order.len() {
                break;
            }
            seen += u64::from(c);
            while next < order.len() && seen >= targets[order[next]] {
                // Clamp to true extrema so p0/p100 are exact.
                out[order[next]] = Self::bucket_value(i).clamp(self.min, self.max);
                next += 1;
            }
        }
        for &k in &order[next..] {
            out[k] = self.max;
        }
        out
    }

    /// Merges another histogram into this one.
    ///
    /// # Example
    /// ```
    /// use idem_metrics::Histogram;
    /// let mut a = Histogram::new();
    /// a.record(10);
    /// let mut b = Histogram::new();
    /// b.record(20);
    /// a.merge(&b);
    /// assert_eq!(a.count(), 2);
    /// ```
    pub fn merge(&mut self, other: &Histogram) {
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst = dst.saturating_add(*src);
        }
        self.count += other.count;
        self.sum += other.sum;
        self.sum_sq += other.sum_sq;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Removes all recorded observations.
    pub fn clear(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
        self.sum = 0;
        self.sum_sq = 0.0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.stddev(), 0.0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::new();
        for v in 0..SUB_COUNT as u64 {
            h.record(v);
        }
        // The first range is linear, so every small value has its own bucket.
        assert_eq!(h.percentile(100.0), SUB_COUNT as u64 - 1);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn mean_is_exact() {
        let mut h = Histogram::new();
        h.record(1_000_003);
        h.record(999_997);
        assert_eq!(h.mean(), 1_000_000.0);
    }

    #[test]
    fn percentile_relative_error_is_bounded() {
        let mut h = Histogram::new();
        let values: Vec<u64> = (1..=1000).map(|i| i * 977).collect();
        for &v in &values {
            h.record(v);
        }
        for p in [10.0, 25.0, 50.0, 75.0, 90.0, 99.0] {
            let exact = values[((p / 100.0) * values.len() as f64).ceil() as usize - 1];
            let approx = h.percentile(p);
            let rel = (approx as f64 - exact as f64).abs() / exact as f64;
            assert!(rel < 0.04, "p{p}: exact {exact} approx {approx} rel {rel}");
        }
    }

    #[test]
    fn stddev_matches_closed_form() {
        let mut h = Histogram::new();
        for v in [2u64, 4, 4, 4, 5, 5, 7, 9] {
            h.record(v);
        }
        // Known population stddev of this set is 2.0.
        assert!((h.stddev() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn merge_combines_counts_and_extrema() {
        let mut a = Histogram::new();
        a.record(5);
        let mut b = Histogram::new();
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn merging_an_empty_histogram_changes_nothing() {
        // An empty histogram's min sentinel must not leak into the result.
        let mut h = Histogram::new();
        for v in [7u64, 70, 700_000] {
            h.record(v);
        }
        let before = (h.count(), h.mean(), h.stddev(), h.min(), h.max());
        let p99 = h.percentile(99.0);
        h.merge(&Histogram::new());
        assert_eq!((h.count(), h.mean(), h.stddev(), h.min(), h.max()), before);
        assert_eq!(h.percentile(99.0), p99);
    }

    #[test]
    fn one_repeated_value_has_zero_stddev() {
        let mut h = Histogram::new();
        h.record_n(1_234_567, 1_000);
        assert_eq!(h.stddev(), 0.0);
        assert_eq!(h.mean(), 1_234_567.0);
        assert_eq!((h.min(), h.max()), (1_234_567, 1_234_567));
    }

    #[test]
    fn clear_resets_everything() {
        let mut h = Histogram::new();
        h.record(42);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.percentile(99.0), 0);
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let mut a = Histogram::new();
        a.record_n(123, 50);
        let mut b = Histogram::new();
        for _ in 0..50 {
            b.record(123);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(a.percentile(50.0), b.percentile(50.0));
        assert_eq!(a.mean(), b.mean());
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.count(), 1);
        assert_eq!(h.max(), u64::MAX);
        assert!(h.percentile(100.0) > 0);
    }

    #[test]
    fn percentiles_are_monotone() {
        let mut h = Histogram::new();
        let mut x = 1u64;
        for i in 0..1000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            h.record(x % 10_000_000);
        }
        let mut last = 0;
        for p in 1..=100 {
            let v = h.percentile(p as f64);
            assert!(v >= last, "p{p} = {v} < previous {last}");
            last = v;
        }
    }

    #[test]
    #[should_panic(expected = "percentile must be in 0..=100")]
    fn out_of_range_percentile_panics() {
        Histogram::new().percentile(101.0);
    }

    #[test]
    fn percentiles_match_repeated_percentile_exactly() {
        let mut h = Histogram::new();
        let mut x = 7u64;
        for i in 0..5000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            h.record(x % 50_000_000);
        }
        // Deliberately unsorted, with duplicates and the extremes.
        let ps = [99.0, 0.0, 50.0, 100.0, 99.0, 12.5, 90.0];
        let batch = h.percentiles(&ps);
        for (&p, &got) in ps.iter().zip(&batch) {
            assert_eq!(got, h.percentile(p), "p{p} diverged");
        }
    }

    #[test]
    fn percentiles_on_empty_histogram_are_zero() {
        assert_eq!(Histogram::new().percentiles(&[50.0, 99.0]), vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "percentile must be in 0..=100")]
    fn out_of_range_batch_percentile_panics() {
        let _ = Histogram::new().percentiles(&[50.0, 101.0]);
    }
}
