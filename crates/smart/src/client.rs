//! The SMaRt baseline client: its configuration and its port — multicast
//! submission, first reply wins — over the shared [`Client`] chassis.

use std::time::Duration;

use idem_common::client::{Client, ClientEvent, ClientPort, ClientSetup, ClientTiming};
use idem_common::{Directory, Membership, OpNumber, QuorumSet, Request};
use idem_simnet::{Context, NodeId};

use crate::messages::SmartMessage;

/// SMaRt client configuration.
///
/// # Example
/// ```
/// use idem_smart::SmartClientConfig;
/// use std::time::Duration;
/// let cfg = SmartClientConfig::default();
/// assert_eq!(cfg.retransmit_interval, Duration::from_millis(500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmartClientConfig {
    /// The replica group accessed.
    pub quorum: QuorumSet,
    /// Retransmission interval for unanswered requests.
    pub retransmit_interval: Duration,
    /// Uniform random delay of the first operation.
    pub start_stagger: Duration,
    /// Closed-loop think time after a success.
    pub think_time: Duration,
}

impl Default for SmartClientConfig {
    fn default() -> SmartClientConfig {
        SmartClientConfig {
            quorum: QuorumSet::for_faults(1),
            retransmit_interval: Duration::from_millis(500),
            start_stagger: Duration::from_millis(10),
            think_time: Duration::ZERO,
        }
    }
}

impl SmartClientConfig {
    /// Returns a copy with a different quorum.
    #[must_use]
    pub fn with_quorum(mut self, quorum: QuorumSet) -> SmartClientConfig {
        self.quorum = quorum;
        self
    }

    /// Returns a copy with a different start stagger.
    #[must_use]
    pub fn with_start_stagger(mut self, stagger: Duration) -> SmartClientConfig {
        self.start_stagger = stagger;
        self
    }
}

/// The SMaRt port: requests are multicast to every member, the first
/// reply wins, and there is no rejection path. Built by
/// [`SmartClientConfig::port`](ClientSetup::port).
pub struct SmartPort {
    /// Addresses of the current members, in sorted member order.
    targets: Vec<NodeId>,
}

impl ClientPort for SmartPort {
    type Msg = SmartMessage;

    fn submit(&mut self, ctx: &mut Context<'_, SmartMessage>, _: &Directory<NodeId>, req: Request) {
        ctx.multicast(self.targets.iter().copied(), SmartMessage::Request(req));
    }

    fn classify(&self, msg: SmartMessage) -> ClientEvent {
        match msg {
            SmartMessage::Reply(reply) => ClientEvent::Reply(reply),
            SmartMessage::MembershipUpdate(m) => ClientEvent::Membership(m),
            _ => ClientEvent::Other,
        }
    }

    fn reject_threshold(&self) -> Option<u32> {
        None
    }

    fn reject_is_final(&self) -> bool {
        true
    }

    fn tick(arg: u64) -> SmartMessage {
        SmartMessage::ClientTimeout(OpNumber(arg))
    }

    fn tick_arg(msg: &SmartMessage) -> Option<u64> {
        match msg {
            SmartMessage::ClientTimeout(op) => Some(op.0),
            _ => None,
        }
    }

    fn retarget(&mut self, dir: &Directory<NodeId>, group: &Membership) {
        self.targets = dir.member_addrs(group);
    }
}

impl ClientSetup for SmartClientConfig {
    type Port = SmartPort;

    fn quorum(&self) -> QuorumSet {
        self.quorum
    }

    fn timing(&self) -> ClientTiming {
        ClientTiming {
            retransmit_interval: self.retransmit_interval,
            // Never drawn from: nothing rejects a SMaRt client.
            backoff: (Duration::ZERO, Duration::ZERO),
            start_delay: Duration::ZERO,
            start_stagger: self.start_stagger,
            think_time: self.think_time,
        }
    }

    fn port(&self, dir: &Directory<NodeId>, group: &Membership) -> SmartPort {
        SmartPort {
            targets: dir.member_addrs(group),
        }
    }
}

/// A SMaRt client node: the closed-loop [`Client`] chassis behind a
/// multicast port.
pub type SmartClient = Client<SmartPort>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders() {
        let cfg = SmartClientConfig::default()
            .with_quorum(QuorumSet::for_faults(2))
            .with_start_stagger(Duration::ZERO);
        assert_eq!(cfg.quorum.n(), 5);
        assert_eq!(cfg.start_stagger, Duration::ZERO);
    }
}
