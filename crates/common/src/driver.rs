//! The protocol-agnostic client-driver interface.
//!
//! Every protocol in this suite (IDEM, Paxos, the BFT-SMaRt-style baseline)
//! exposes a client node that is *driven* by an application implementing
//! [`ClientApp`]: the application supplies the next command and consumes
//! terminal [`OperationOutcome`]s. Keeping this interface protocol-agnostic
//! lets the experiment harness reuse one workload driver and one metrics
//! recorder across all systems under comparison.

use std::time::Duration;

use rand::rngs::SmallRng;

use crate::ids::RequestId;
use idem_simnet::SimTime;

/// Terminal state of one client operation.
///
/// For IDEM these mirror the client-side semantics of paper Section 5.3;
/// the baselines use the subset that applies to them (Paxos_LBR produces
/// `RejectedFinal` from its leader, plain Paxos and BFT-SMaRt only
/// `Success`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutcomeKind {
    /// A reply arrived: the operation is durable and its result usable.
    Success,
    /// Aborted out of the ambivalence state (`n − f` rejects; a straggler
    /// reply can no longer be ruled out but will not be waited for).
    RejectedAmbivalent,
    /// Conclusively rejected (all `n` replicas in IDEM; the leader in
    /// leader-based rejection).
    RejectedFinal,
}

impl OutcomeKind {
    /// Whether the operation completed with a usable reply.
    pub fn is_success(self) -> bool {
        self == OutcomeKind::Success
    }
}

/// Report handed to the [`ClientApp`] when an operation terminates.
#[derive(Debug, Clone, PartialEq)]
pub struct OperationOutcome {
    /// The operation's request id.
    pub id: RequestId,
    /// How it ended.
    pub kind: OutcomeKind,
    /// End-to-end latency: issue → reply / abort decision. For rejected
    /// operations this is the paper's *reject latency*.
    pub latency: Duration,
    /// Virtual time of completion.
    pub completed_at: SimTime,
    /// The reply payload for successes.
    pub result: Option<crate::request::ResultBytes>,
}

/// The application driving a client: supplies commands, consumes outcomes.
///
/// This is where a semi-autonomous client's *fallback* lives: on a rejected
/// outcome the application typically computes a local approximation instead
/// of the replicated result (paper Section 2.2).
///
/// # Example
/// ```
/// use idem_common::driver::{ClientApp, OperationOutcome};
/// use rand::rngs::SmallRng;
///
/// /// Issues ten empty commands, then stops.
/// struct TenOps(u32);
/// impl ClientApp for TenOps {
///     fn next_command(&mut self, _rng: &mut SmallRng) -> Option<Vec<u8>> {
///         if self.0 == 10 { return None; }
///         self.0 += 1;
///         Some(Vec::new())
///     }
///     fn on_outcome(&mut self, _outcome: &OperationOutcome) {}
/// }
/// ```
pub trait ClientApp {
    /// The next command to submit, or `None` to stop issuing operations.
    fn next_command(&mut self, rng: &mut SmallRng) -> Option<Vec<u8>>;

    /// Invoked exactly once per issued operation with its terminal outcome.
    fn on_outcome(&mut self, outcome: &OperationOutcome);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_kind_classification() {
        assert!(OutcomeKind::Success.is_success());
        assert!(!OutcomeKind::RejectedAmbivalent.is_success());
        assert!(!OutcomeKind::RejectedFinal.is_success());
    }
}
