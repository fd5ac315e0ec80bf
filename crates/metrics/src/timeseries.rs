//! Fixed-bin-width time series.
//!
//! The crash-timeline figures of the paper (Figures 3 and 10) plot
//! throughput and average latency over wall-clock time. [`TimeSeries`]
//! accumulates `(count, sum)` per fixed-width time bin, from which both
//! series are derived: `count / bin_width` is the throughput, `sum / count`
//! the average of the recorded value (e.g. latency) in that bin.

use std::time::Duration;

/// One bin of a [`TimeSeries`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeBin {
    /// Number of events recorded in this bin.
    pub count: u64,
    /// Sum of the values recorded in this bin.
    pub sum: u64,
}

impl TimeBin {
    /// Average recorded value in this bin, or `None` if the bin is empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }
}

/// Accumulates timestamped events into fixed-width bins.
///
/// Timestamps are nanoseconds since the start of the measured interval.
/// Bins are allocated lazily as events arrive; querying beyond the last
/// recorded bin yields empty bins.
///
/// # Example
/// ```
/// use idem_metrics::TimeSeries;
/// use std::time::Duration;
///
/// let mut ts = TimeSeries::new(Duration::from_secs(1));
/// ts.record(500_000_000, 100);   // t = 0.5 s, value 100
/// ts.record(1_200_000_000, 300); // t = 1.2 s, value 300
/// assert_eq!(ts.bin(0).count, 1);
/// assert_eq!(ts.bin(1).sum, 300);
/// ```
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bin_width: Duration,
    bins: Vec<TimeBin>,
}

impl TimeSeries {
    /// Creates a series with the given bin width.
    ///
    /// # Panics
    /// Panics if `bin_width` is zero.
    pub fn new(bin_width: Duration) -> TimeSeries {
        assert!(!bin_width.is_zero(), "bin width must be positive");
        TimeSeries {
            bin_width,
            bins: Vec::new(),
        }
    }

    /// Reserves capacity for all bins up to `horizon`, so a series whose
    /// run length is known up front never reallocates while recording.
    /// Capacity only: allocated length, [`len`](Self::len) and iteration
    /// are unaffected.
    pub fn reserve_for(&mut self, horizon: Duration) {
        let bins = (horizon.as_nanos() / self.bin_width.as_nanos()).saturating_add(1) as usize;
        self.bins.reserve(bins.saturating_sub(self.bins.len()));
    }

    /// Records an event at `timestamp_ns` carrying `value` (e.g. the
    /// request latency in nanoseconds).
    pub fn record(&mut self, timestamp_ns: u64, value: u64) {
        let idx = (timestamp_ns / self.bin_width.as_nanos() as u64) as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, TimeBin::default());
        }
        let bin = &mut self.bins[idx];
        bin.count += 1;
        bin.sum += value;
    }

    /// The bin at `index` (empty default if never written).
    pub fn bin(&self, index: usize) -> TimeBin {
        self.bins.get(index).copied().unwrap_or_default()
    }

    /// Number of allocated bins (index of the last written bin + 1).
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// Whether no event was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.bins.iter().all(|b| b.count == 0)
    }

    /// Iterates `(bin_start, bin)` over all allocated bins.
    pub fn iter(&self) -> impl Iterator<Item = (Duration, TimeBin)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .map(move |(i, &b)| (self.bin_width * i as u32, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_land_in_correct_bins() {
        let mut ts = TimeSeries::new(Duration::from_millis(100));
        ts.record(0, 1);
        ts.record(99_999_999, 2);
        ts.record(100_000_000, 3);
        assert_eq!(ts.bin(0).count, 2);
        assert_eq!(ts.bin(0).sum, 3);
        assert_eq!(ts.bin(1).count, 1);
    }

    #[test]
    fn unwritten_bins_are_empty() {
        let mut ts = TimeSeries::new(Duration::from_secs(1));
        ts.record(5_000_000_000, 10);
        assert_eq!(ts.bin(0).count, 0);
        assert_eq!(ts.bin(3).count, 0);
        assert_eq!(ts.bin(5).count, 1);
        assert_eq!(ts.bin(99).count, 0);
        assert_eq!(ts.len(), 6);
    }

    #[test]
    fn is_empty_until_an_event_is_recorded() {
        let mut ts = TimeSeries::new(Duration::from_millis(250));
        assert!(ts.is_empty());
        ts.reserve_for(Duration::from_secs(10));
        assert!(ts.is_empty(), "reserving bins records nothing");
        ts.record(2_000_000_000, 0);
        assert!(!ts.is_empty(), "a zero value still counts as an event");
        assert_eq!(ts.len(), 9);
    }

    #[test]
    fn bin_mean() {
        let mut ts = TimeSeries::new(Duration::from_secs(1));
        ts.record(0, 10);
        ts.record(1, 30);
        assert_eq!(ts.bin(0).mean(), Some(20.0));
        assert_eq!(ts.bin(1).mean(), None);
    }

    #[test]
    fn iter_reports_bin_starts() {
        let mut ts = TimeSeries::new(Duration::from_secs(2));
        ts.record(3_000_000_000, 1);
        let starts: Vec<_> = ts.iter().map(|(t, _)| t.as_secs()).collect();
        assert_eq!(starts, vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "bin width must be positive")]
    fn zero_bin_width_rejected() {
        let _ = TimeSeries::new(Duration::ZERO);
    }

    #[test]
    fn reserve_for_does_not_change_observable_state() {
        let mut ts = TimeSeries::new(Duration::from_millis(250));
        ts.record(100_000_000, 5);
        ts.reserve_for(Duration::from_secs(60));
        assert_eq!(ts.len(), 1);
        assert_eq!(ts.bin(0).count, 1);
        assert!(ts.bins.capacity() >= 241);
        let before = ts.bins.as_ptr();
        for i in 0..240u64 {
            ts.record(i * 250_000_000, 1);
        }
        assert_eq!(ts.bins.as_ptr(), before, "recording must not reallocate");
    }
}
