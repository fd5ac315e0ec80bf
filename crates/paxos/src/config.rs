//! Paxos baseline configuration.

use std::time::Duration;

use idem_common::QuorumSet;

/// Number of consensus instances the leader proposes concurrently.
pub(crate) const WINDOW_SIZE: u64 = 256;

/// Rejection behaviour of the Paxos leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RejectPolicy {
    /// Plain Paxos: queue everything, never reject (unbounded queues).
    #[default]
    Never,
    /// Leader-based rejection (Paxos_LBR, paper Section 3.3): the leader
    /// rejects incoming requests while more than the given number of
    /// requests are queued or in flight.
    LeaderBased {
        /// Maximum leader load (queued + proposed-unexecuted requests)
        /// before rejection starts.
        threshold: u32,
    },
}

/// Configuration of a Paxos replica group.
///
/// # Example
/// ```
/// use idem_paxos::{PaxosConfig, RejectPolicy};
/// let cfg = PaxosConfig::for_faults(1)
///     .with_reject_policy(RejectPolicy::LeaderBased { threshold: 150 });
/// assert_eq!(cfg.quorum.n(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct PaxosConfig {
    /// Replica group size / fault threshold.
    pub quorum: QuorumSet,
    /// Leader rejection behaviour.
    pub reject_policy: RejectPolicy,
    /// A checkpoint is taken every this many executed instances; the
    /// instance window is garbage-collected up to the checkpoint.
    pub checkpoint_interval: u64,
    /// CPU cost charged per received protocol message, whatever its size.
    pub message_cost: Duration,
}

impl PaxosConfig {
    /// Default configuration for a group tolerating `f` crashes.
    pub fn for_faults(f: u32) -> PaxosConfig {
        PaxosConfig {
            quorum: QuorumSet::for_faults(f),
            reject_policy: RejectPolicy::Never,
            checkpoint_interval: 128,
            message_cost: Duration::from_micros(2),
        }
    }

    /// Returns a copy with a different rejection policy.
    #[must_use]
    pub fn with_reject_policy(mut self, policy: RejectPolicy) -> PaxosConfig {
        self.reject_policy = policy;
        self
    }

    /// Returns a copy with a different per-message CPU cost.
    #[must_use]
    pub fn with_message_cost(mut self, cost: Duration) -> PaxosConfig {
        self.message_cost = cost;
        self
    }

    /// Validates invariants.
    ///
    /// # Panics
    /// Panics if the checkpoint interval is zero.
    pub fn validate(&self) {
        assert!(
            self.checkpoint_interval > 0,
            "checkpoint interval must be positive"
        );
    }
}

impl Default for PaxosConfig {
    fn default() -> PaxosConfig {
        PaxosConfig::for_faults(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        let cfg = PaxosConfig::default();
        cfg.validate();
        assert_eq!(cfg.reject_policy, RejectPolicy::Never);
    }

    #[test]
    #[should_panic(expected = "checkpoint interval must be positive")]
    fn zero_checkpoint_interval_is_invalid() {
        let cfg = PaxosConfig {
            checkpoint_interval: 0,
            ..PaxosConfig::default()
        };
        cfg.validate();
    }

    #[test]
    fn window_spans_more_than_one_checkpoint_interval() {
        // The instance window is only garbage-collected up to a
        // checkpoint, so it must hold at least one interval's worth.
        assert!(WINDOW_SIZE > PaxosConfig::default().checkpoint_interval);
    }

    #[test]
    fn lbr_policy_round_trips() {
        let cfg = PaxosConfig::for_faults(1)
            .with_reject_policy(RejectPolicy::LeaderBased { threshold: 42 });
        assert_eq!(
            cfg.reject_policy,
            RejectPolicy::LeaderBased { threshold: 42 }
        );
    }
}
