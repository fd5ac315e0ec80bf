//! IDEM protocol configuration.

use std::time::Duration;

use idem_common::QuorumSet;

use crate::acceptance::AcceptancePolicy;

/// Configuration of an IDEM replica group.
///
/// Defaults mirror the evaluation setup of the paper (Section 7.1):
/// reject threshold `RT = 50`, active queue management with 2 s time
/// slices, and a 10 ms forward timeout. The view-change timeout is
/// [`idem_common::PROGRESS_TIMEOUT`].
///
/// # Example
/// ```
/// use idem_core::{AcceptancePolicy, IdemConfig};
/// let cfg = IdemConfig::for_faults(1)
///     .with_reject_threshold(75)
///     .with_acceptance(AcceptancePolicy::TailDrop);
/// assert_eq!(cfg.quorum.n(), 3);
/// assert_eq!(cfg.reject_threshold, 75);
/// assert_eq!(cfg.r_max(), 225);
/// assert_eq!(cfg.window_size(), 450);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct IdemConfig {
    /// Replica group size / fault threshold.
    pub quorum: QuorumSet,
    /// `r`, the maximum number of concurrently accepted client-issued
    /// requests per replica (the *reject threshold* of Section 7.5).
    pub reject_threshold: u32,
    /// The acceptance test variant (Section 5.1).
    pub acceptance: AcceptancePolicy,
    /// A checkpoint is taken every this many executed instances.
    pub checkpoint_interval: u64,
    /// Delay before an accepted-but-unexecuted request is forwarded to the
    /// other replicas (Section 5.2, "delayed forwarding").
    pub forward_timeout: Duration,
    /// Capacity of the recently-rejected request cache (Section 5.2).
    pub rejected_cache_capacity: usize,
    /// CPU cost charged per received protocol message, whatever its size.
    pub message_cost: Duration,
}

impl IdemConfig {
    /// Creates the default configuration for a group tolerating `f`
    /// crashes (`n = 2f + 1` replicas).
    pub fn for_faults(f: u32) -> IdemConfig {
        let quorum = QuorumSet::for_faults(f);
        let reject_threshold = 50;
        IdemConfig {
            quorum,
            reject_threshold,
            acceptance: AcceptancePolicy::default(),
            checkpoint_interval: 128,
            forward_timeout: Duration::from_millis(10),
            rejected_cache_capacity: 4 * reject_threshold as usize,
            message_cost: Duration::from_micros(2),
        }
    }

    /// `r_max = n × r`: the system-wide bound on concurrently active
    /// requests (Section 4.3).
    pub fn r_max(&self) -> u64 {
        u64::from(self.quorum.n()) * u64::from(self.reject_threshold)
    }

    /// Size of the parallel consensus window: twice
    /// [`r_max`](IdemConfig::r_max), so implicit garbage collection is
    /// sound (Theorem 6.1 needs at least `r_max`).
    pub fn window_size(&self) -> u64 {
        2 * self.r_max()
    }

    /// Returns a copy with a different reject threshold, keeping the cache
    /// at four times the threshold.
    #[must_use]
    pub fn with_reject_threshold(mut self, rt: u32) -> IdemConfig {
        self.reject_threshold = rt;
        self.rejected_cache_capacity = 4 * rt as usize;
        self
    }

    /// Returns a copy with a different acceptance policy.
    #[must_use]
    pub fn with_acceptance(mut self, policy: AcceptancePolicy) -> IdemConfig {
        self.acceptance = policy;
        self
    }

    /// Returns a copy with a different forward timeout.
    #[must_use]
    pub fn with_forward_timeout(mut self, t: Duration) -> IdemConfig {
        self.forward_timeout = t;
        self
    }

    /// Returns a copy with a different per-message CPU cost.
    #[must_use]
    pub fn with_message_cost(mut self, cost: Duration) -> IdemConfig {
        self.message_cost = cost;
        self
    }

    /// Validates the invariants the protocol relies on.
    ///
    /// # Panics
    /// Panics if the reject threshold or the checkpoint interval is zero.
    pub fn validate(&self) {
        assert!(
            self.reject_threshold > 0,
            "reject threshold must be positive"
        );
        assert!(
            self.checkpoint_interval > 0,
            "checkpoint interval must be positive"
        );
    }
}

impl Default for IdemConfig {
    /// The paper's standard setup: `f = 1` (three replicas), `RT = 50`.
    fn default() -> IdemConfig {
        IdemConfig::for_faults(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let cfg = IdemConfig::default();
        assert_eq!(cfg.quorum.n(), 3);
        assert_eq!(cfg.reject_threshold, 50);
        assert_eq!(cfg.r_max(), 150);
        assert_eq!(cfg.forward_timeout, Duration::from_millis(10));
        cfg.validate();
    }

    #[test]
    fn with_reject_threshold_rescales_window_and_cache() {
        let cfg = IdemConfig::for_faults(1).with_reject_threshold(20);
        assert_eq!(cfg.r_max(), 60);
        assert_eq!(cfg.window_size(), 120);
        assert_eq!(cfg.rejected_cache_capacity, 80);
        cfg.validate();
    }

    #[test]
    fn window_size_covers_r_max_for_every_group_and_threshold() {
        // Theorem 6.1 needs a window of at least r_max; the derived window
        // is twice that for every group size and threshold.
        for f in 1..=3 {
            for rt in [1, 20, 50, 75] {
                let cfg = IdemConfig::for_faults(f).with_reject_threshold(rt);
                let n = u64::from(2 * f + 1);
                assert_eq!(cfg.r_max(), n * u64::from(rt));
                assert_eq!(cfg.window_size(), 2 * cfg.r_max());
            }
        }
    }

    #[test]
    fn builders_replace_only_their_own_field() {
        let base = IdemConfig::default();
        let cfg = base
            .clone()
            .with_acceptance(AcceptancePolicy::AlwaysAccept)
            .with_forward_timeout(Duration::from_millis(3))
            .with_message_cost(Duration::from_micros(7));
        assert_eq!(cfg.acceptance, AcceptancePolicy::AlwaysAccept);
        assert_eq!(cfg.forward_timeout, Duration::from_millis(3));
        assert_eq!(cfg.message_cost, Duration::from_micros(7));
        assert_eq!(cfg.reject_threshold, base.reject_threshold);
        assert_eq!(cfg.checkpoint_interval, base.checkpoint_interval);
        assert_eq!(cfg.rejected_cache_capacity, base.rejected_cache_capacity);
        assert_eq!(cfg.window_size(), base.window_size());
    }

    #[test]
    #[should_panic(expected = "checkpoint interval must be positive")]
    fn validate_rejects_zero_checkpoint_interval() {
        let cfg = IdemConfig {
            checkpoint_interval: 0,
            ..IdemConfig::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "reject threshold must be positive")]
    fn validate_rejects_zero_threshold() {
        let cfg = IdemConfig {
            reject_threshold: 0,
            ..IdemConfig::default()
        };
        cfg.validate();
    }
}
