//! The IDEM client: its configuration and its port — where a request goes
//! (every member) and what a reject means (pessimistic / optimistic
//! handling of ambivalence, paper Sections 4.1 and 5.3). Issuing, backoff
//! and retransmission are the shared [`Client`] chassis.

use std::time::Duration;

use idem_common::client::{Client, ClientEvent, ClientPort, ClientSetup, ClientTiming};
use idem_common::{Directory, Membership, OpNumber, QuorumSet, Request};
use idem_simnet::{Context, NodeId};

pub use idem_common::client::ClientStats;
pub use idem_common::driver::{ClientApp, OperationOutcome, OutcomeKind};

use crate::messages::IdemMessage;

/// How a client reacts once it has collected `n − f` REJECTs (the
/// *ambivalence* state of Section 5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectHandling {
    /// Abort immediately on the `n − f`th reject, minimizing rejection
    /// latency.
    Pessimistic,
    /// Wait up to the given grace period for a late reply (or the remaining
    /// rejects) before aborting — trades rejection latency for success
    /// rate. The paper's evaluation uses 5 ms.
    Optimistic(Duration),
}

/// Client-side protocol configuration.
///
/// # Example
/// ```
/// use idem_core::{ClientConfig, RejectHandling};
/// use idem_common::QuorumSet;
/// use std::time::Duration;
/// let cfg = ClientConfig::for_quorum(QuorumSet::for_faults(1))
///     .with_reject_handling(RejectHandling::Pessimistic);
/// assert_eq!(cfg.reject_handling, RejectHandling::Pessimistic);
/// assert_eq!(cfg.backoff, (Duration::from_millis(50), Duration::from_millis(100)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// The replica group accessed.
    pub quorum: QuorumSet,
    /// Reaction to the ambivalence state.
    pub reject_handling: RejectHandling,
    /// Uniform random delay before the next operation after an abort
    /// (load regulation, Section 7.1: 50–100 ms).
    pub backoff: (Duration, Duration),
    /// Retransmission interval for unanswered requests (fair-loss links).
    pub retransmit_interval: Duration,
    /// Fixed delay before this client starts issuing operations (e.g. to
    /// model clients joining mid-run, like a login storm).
    pub start_delay: Duration,
    /// The first operation is additionally delayed by a uniform random
    /// amount up to this, decorrelating client start times.
    pub start_stagger: Duration,
    /// Closed-loop think time between a success and the next operation.
    pub think_time: Duration,
}

impl ClientConfig {
    /// The paper's client setup for the given group: optimistic handling
    /// with a 5 ms grace period, 50–100 ms backoff.
    pub fn for_quorum(quorum: QuorumSet) -> ClientConfig {
        ClientConfig {
            quorum,
            reject_handling: RejectHandling::Optimistic(Duration::from_millis(5)),
            backoff: (Duration::from_millis(50), Duration::from_millis(100)),
            retransmit_interval: Duration::from_millis(200),
            start_delay: Duration::ZERO,
            start_stagger: Duration::from_millis(10),
            think_time: Duration::ZERO,
        }
    }

    /// Returns a copy with different reject handling.
    #[must_use]
    pub fn with_reject_handling(mut self, handling: RejectHandling) -> ClientConfig {
        self.reject_handling = handling;
        self
    }

    /// Returns a copy with a different post-abort backoff range.
    #[must_use]
    pub fn with_backoff(mut self, min: Duration, max: Duration) -> ClientConfig {
        assert!(min <= max, "backoff range must be ordered");
        self.backoff = (min, max);
        self
    }

    /// Returns a copy with a different start stagger.
    #[must_use]
    pub fn with_start_stagger(mut self, stagger: Duration) -> ClientConfig {
        self.start_stagger = stagger;
        self
    }

    /// Returns a copy with a fixed start delay (the client joins the
    /// system only after this much time).
    #[must_use]
    pub fn with_start_delay(mut self, delay: Duration) -> ClientConfig {
        self.start_delay = delay;
        self
    }

    /// Returns a copy with a different think time.
    #[must_use]
    pub fn with_think_time(mut self, think: Duration) -> ClientConfig {
        self.think_time = think;
        self
    }
}

/// The IDEM port: requests are multicast to every member, and rejects are
/// counted toward the ambivalence quorum `n − f`. Built by
/// [`ClientConfig::port`](ClientSetup::port).
pub struct IdemPort {
    handling: RejectHandling,
    /// Addresses of the current members, in sorted member order —
    /// identical to the directory's replica slice at epoch 0.
    targets: Vec<NodeId>,
    ambivalence: u32,
}

impl ClientPort for IdemPort {
    type Msg = IdemMessage;

    fn submit(&mut self, ctx: &mut Context<'_, IdemMessage>, _: &Directory<NodeId>, req: Request) {
        ctx.multicast(self.targets.iter().copied(), IdemMessage::Request(req));
    }

    fn classify(&self, msg: IdemMessage) -> ClientEvent {
        match msg {
            IdemMessage::Reply(reply) => ClientEvent::Reply(reply),
            IdemMessage::Reject(id) => ClientEvent::Reject(id),
            IdemMessage::MembershipUpdate(m) => ClientEvent::Membership(m),
            _ => ClientEvent::Other,
        }
    }

    fn reject_threshold(&self) -> Option<u32> {
        Some(self.ambivalence)
    }

    fn reject_is_final(&self) -> bool {
        false
    }

    fn tick(arg: u64) -> IdemMessage {
        IdemMessage::RetransmitTimer(OpNumber(arg))
    }

    fn tick_arg(msg: &IdemMessage) -> Option<u64> {
        match msg {
            IdemMessage::RetransmitTimer(op) => Some(op.0),
            _ => None,
        }
    }

    fn reject_grace(&self) -> Option<Duration> {
        match self.handling {
            RejectHandling::Pessimistic => None,
            RejectHandling::Optimistic(grace) => Some(grace),
        }
    }

    fn retarget(&mut self, dir: &Directory<NodeId>, group: &Membership) {
        self.targets = dir.member_addrs(group);
        self.ambivalence = group.ambivalence();
    }
}

impl ClientSetup for ClientConfig {
    type Port = IdemPort;

    fn quorum(&self) -> QuorumSet {
        self.quorum
    }

    fn timing(&self) -> ClientTiming {
        ClientTiming {
            retransmit_interval: self.retransmit_interval,
            backoff: self.backoff,
            start_delay: self.start_delay,
            start_stagger: self.start_stagger,
            think_time: self.think_time,
        }
    }

    fn port(&self, dir: &Directory<NodeId>, group: &Membership) -> IdemPort {
        IdemPort {
            handling: self.reject_handling,
            targets: dir.member_addrs(group),
            ambivalence: group.ambivalence(),
        }
    }
}

/// An IDEM client node: the closed-loop [`Client`] chassis with the
/// reject semantics of Section 5.3.
pub type IdemClient = Client<IdemPort>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builder_round_trips() {
        let cfg = ClientConfig::for_quorum(QuorumSet::for_faults(2))
            .with_reject_handling(RejectHandling::Pessimistic)
            .with_backoff(Duration::from_millis(1), Duration::from_millis(2))
            .with_start_stagger(Duration::ZERO)
            .with_think_time(Duration::from_micros(5));
        assert_eq!(cfg.quorum.n(), 5);
        assert_eq!(cfg.reject_handling, RejectHandling::Pessimistic);
        assert_eq!(cfg.backoff.0, Duration::from_millis(1));
        assert_eq!(cfg.think_time, Duration::from_micros(5));
    }

    #[test]
    #[should_panic(expected = "backoff range must be ordered")]
    fn backoff_range_must_be_ordered() {
        let _ = ClientConfig::for_quorum(QuorumSet::for_faults(1))
            .with_backoff(Duration::from_millis(5), Duration::from_millis(1));
    }

    #[test]
    fn default_matches_paper_parameters() {
        let cfg = ClientConfig::for_quorum(QuorumSet::for_faults(1));
        assert_eq!(
            cfg.reject_handling,
            RejectHandling::Optimistic(Duration::from_millis(5))
        );
        assert_eq!(
            cfg.backoff,
            (Duration::from_millis(50), Duration::from_millis(100))
        );
    }

    #[test]
    fn port_takes_threshold_from_the_group_and_grace_from_the_handling() {
        let dir = Directory::new((0..5).map(NodeId).collect(), vec![NodeId(5)]);
        let cfg = ClientConfig::for_quorum(QuorumSet::for_faults(1));
        let mut port = cfg.port(&dir, &Membership::bootstrap(3));
        assert_eq!(port.reject_threshold(), Some(2));
        assert_eq!(port.reject_grace(), Some(Duration::from_millis(5)));
        assert!(!port.reject_is_final());
        port.retarget(&dir, &Membership::bootstrap(5));
        assert_eq!(port.reject_threshold(), Some(3));
        let pessimistic = cfg.with_reject_handling(RejectHandling::Pessimistic);
        let port = pessimistic.port(&dir, &Membership::bootstrap(3));
        assert_eq!(port.reject_grace(), None);
    }
}
