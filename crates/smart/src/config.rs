//! Configuration of the BFT-SMaRt-style baseline.

use std::time::Duration;

use idem_common::QuorumSet;

/// Bits reserved for the in-batch offset when a SMaRt execution slot is
/// packed as `(batch_sqn << SLOT_BATCH_SHIFT) | offset`: the exec log, the
/// WAL's accept and exec records and replay all rely on commands of one
/// batch keeping distinct slots, which bounds `max_batch`.
pub(crate) const SLOT_BATCH_SHIFT: u32 = 20;

/// Configuration of a SMaRt replica group.
///
/// # Example
/// ```
/// use idem_smart::SmartConfig;
/// let cfg = SmartConfig::for_faults(1).with_max_batch(64);
/// assert_eq!(cfg.max_batch, 64);
/// ```
#[derive(Debug, Clone)]
pub struct SmartConfig {
    /// Replica group size / fault threshold.
    pub quorum: QuorumSet,
    /// Maximum number of requests per proposed batch.
    pub max_batch: usize,
    /// A checkpoint is taken every this many executed *batches*.
    pub checkpoint_interval: u64,
    /// CPU cost charged per received protocol message, whatever its size.
    pub message_cost: Duration,
}

impl SmartConfig {
    /// Default configuration for a group tolerating `f` crashes: batches of
    /// up to 256 requests.
    pub fn for_faults(f: u32) -> SmartConfig {
        SmartConfig {
            quorum: QuorumSet::for_faults(f),
            max_batch: 256,
            checkpoint_interval: 64,
            message_cost: Duration::from_micros(2),
        }
    }

    /// Returns a copy with a different maximum batch size.
    ///
    /// # Panics
    /// Panics if `max_batch` is zero.
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: usize) -> SmartConfig {
        assert!(max_batch > 0, "batch size must be positive");
        self.max_batch = max_batch;
        self
    }

    /// Checks the configuration for consistency.
    ///
    /// # Panics
    /// Panics if the batch size is zero (the leader would open empty
    /// instances forever) or does not fit the in-batch offset of a packed
    /// execution slot, or the checkpoint interval is zero.
    pub fn validate(&self) {
        assert!(self.max_batch > 0, "batch size must be positive");
        assert!(
            self.max_batch < 1 << SLOT_BATCH_SHIFT,
            "batch size must stay below 2^{SLOT_BATCH_SHIFT}, the in-batch offset of a packed slot"
        );
        assert!(
            self.checkpoint_interval > 0,
            "checkpoint interval must be positive"
        );
    }

    /// Returns a copy with a different per-message CPU cost.
    #[must_use]
    pub fn with_message_cost(mut self, cost: Duration) -> SmartConfig {
        self.message_cost = cost;
        self
    }
}

impl Default for SmartConfig {
    fn default() -> SmartConfig {
        SmartConfig::for_faults(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let cfg = SmartConfig::default();
        assert_eq!(cfg.quorum.n(), 3);
        assert_eq!(cfg.max_batch, 256);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_rejected() {
        let _ = SmartConfig::default().with_max_batch(0);
    }

    #[test]
    fn defaults_are_valid() {
        SmartConfig::default().validate();
        SmartConfig::for_faults(2).with_max_batch(1).validate();
    }

    // Struct-update literals bypass `with_max_batch`; `validate` (which
    // `SmartReplica::new` calls) is what stops them.

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_literal_is_invalid() {
        let cfg = SmartConfig {
            max_batch: 0,
            ..SmartConfig::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "batch size must stay below 2^20")]
    fn batch_overflowing_the_slot_packing_is_invalid() {
        let cfg = SmartConfig {
            max_batch: 1 << SLOT_BATCH_SHIFT,
            ..SmartConfig::default()
        };
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "checkpoint interval must be positive")]
    fn zero_checkpoint_interval_is_invalid() {
        let cfg = SmartConfig {
            checkpoint_interval: 0,
            ..SmartConfig::default()
        };
        cfg.validate();
    }
}
