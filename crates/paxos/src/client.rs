//! The Paxos client: its configuration and its port — leader-directed
//! submission with timeout-based failover — over the shared [`Client`]
//! chassis.
//!
//! The structural difference to IDEM's client is what drives the Figure 3 /
//! 10d contrast: a Paxos client only talks to its *presumed leader*, so
//! after a leader crash it must burn one or more client-side timeouts
//! probing replicas before its requests (and, under LBR, its rejection
//! notifications) flow again.

use std::time::Duration;

use idem_common::client::{
    Client, ClientEvent, ClientPort, ClientSetup, ClientTiming, REJECT_BACKOFF,
};
use idem_common::{Directory, Membership, OpNumber, QuorumSet, ReplicaId, Request};
use idem_simnet::{Context, NodeId};

use crate::messages::PaxosMessage;

/// Paxos client configuration.
///
/// # Example
/// ```
/// use idem_paxos::PaxosClientConfig;
/// use std::time::Duration;
/// let cfg = PaxosClientConfig::default().with_request_timeout(Duration::from_millis(500));
/// assert_eq!(cfg.request_timeout, Duration::from_millis(500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PaxosClientConfig {
    /// The replica group accessed.
    pub quorum: QuorumSet,
    /// How long to wait for a reply before assuming the presumed leader is
    /// unreachable and probing the next replica.
    pub request_timeout: Duration,
    /// Uniform random delay of the first operation.
    pub start_stagger: Duration,
}

impl Default for PaxosClientConfig {
    /// `f = 1`, 1 s request timeout.
    fn default() -> PaxosClientConfig {
        PaxosClientConfig {
            quorum: QuorumSet::for_faults(1),
            request_timeout: Duration::from_secs(1),
            start_stagger: Duration::from_millis(10),
        }
    }
}

impl PaxosClientConfig {
    /// Returns a copy with a different request timeout.
    #[must_use]
    pub fn with_request_timeout(mut self, t: Duration) -> PaxosClientConfig {
        self.request_timeout = t;
        self
    }

    /// Returns a copy with a different quorum.
    #[must_use]
    pub fn with_quorum(mut self, quorum: QuorumSet) -> PaxosClientConfig {
        self.quorum = quorum;
        self
    }

    /// Returns a copy with a different start stagger.
    #[must_use]
    pub fn with_start_stagger(mut self, stagger: Duration) -> PaxosClientConfig {
        self.start_stagger = stagger;
        self
    }
}

/// The Paxos port: requests go to the one replica presumed to lead —
/// the group's first member to begin with, then whoever answered last; an
/// unanswered request moves the presumption round-robin through the
/// group. A reject is the leader's and final. Built by
/// [`PaxosClientConfig::port`](ClientSetup::port).
pub struct PaxosPort {
    /// The current members, in the membership's order.
    members: Vec<ReplicaId>,
    /// Index into `members` of the presumed leader. An index (not a
    /// replica id) so failover walks exactly the current members, never
    /// departed ones.
    leader: usize,
}

impl PaxosPort {
    /// Which replica this port currently believes to be the leader.
    pub fn presumed_leader(&self) -> ReplicaId {
        self.members[self.leader]
    }
}

impl ClientPort for PaxosPort {
    type Msg = PaxosMessage;

    fn submit(
        &mut self,
        ctx: &mut Context<'_, PaxosMessage>,
        dir: &Directory<NodeId>,
        req: Request,
    ) {
        let leader = dir.replica(self.presumed_leader());
        ctx.send(leader, PaxosMessage::Request(req));
    }

    fn classify(&self, msg: PaxosMessage) -> ClientEvent {
        match msg {
            PaxosMessage::Reply(reply) => ClientEvent::Reply(reply),
            PaxosMessage::Reject(id) => ClientEvent::Reject(id),
            PaxosMessage::MembershipUpdate(m) => ClientEvent::Membership(m),
            _ => ClientEvent::Other,
        }
    }

    /// Whoever answered leads (an answer from a non-member is stale by
    /// definition and changes nothing).
    fn note_reply_from(&mut self, dir: &Directory<NodeId>, from: NodeId) {
        let answered = dir.replica_of(from);
        if let Some(idx) = self.members.iter().position(|&m| Some(m) == answered) {
            self.leader = idx;
        }
    }

    fn reject_threshold(&self) -> Option<u32> {
        None
    }

    fn reject_is_final(&self) -> bool {
        true
    }

    fn tick(arg: u64) -> PaxosMessage {
        PaxosMessage::ClientTimeout(OpNumber(arg))
    }

    fn tick_arg(msg: &PaxosMessage) -> Option<u64> {
        match msg {
            PaxosMessage::ClientTimeout(op) => Some(op.0),
            _ => None,
        }
    }

    /// No answer from the presumed leader: probe the next member.
    fn note_timeout(&mut self) {
        self.leader = (self.leader + 1) % self.members.len();
    }

    /// Keeps pointing at the same presumed leader if it survived the
    /// change, and falls back to the first member otherwise.
    fn retarget(&mut self, _: &Directory<NodeId>, group: &Membership) {
        let presumed = self.presumed_leader();
        self.members = group.members().to_vec();
        let survivor = self.members.iter().position(|&m| m == presumed);
        self.leader = survivor.unwrap_or(0);
    }
}

impl ClientSetup for PaxosClientConfig {
    type Port = PaxosPort;

    fn quorum(&self) -> QuorumSet {
        self.quorum
    }

    fn timing(&self) -> ClientTiming {
        ClientTiming {
            retransmit_interval: self.request_timeout,
            // After an LBR rejection: the same load regulation as IDEM's.
            backoff: REJECT_BACKOFF,
            start_delay: Duration::ZERO,
            start_stagger: self.start_stagger,
            think_time: Duration::ZERO,
        }
    }

    fn port(&self, _: &Directory<NodeId>, group: &Membership) -> PaxosPort {
        PaxosPort {
            members: group.members().to_vec(),
            leader: 0,
        }
    }
}

/// A Paxos client node: the closed-loop [`Client`] chassis behind a
/// leader-directed port.
pub type PaxosClient = Client<PaxosPort>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders() {
        let cfg = PaxosClientConfig::default()
            .with_request_timeout(Duration::from_millis(250))
            .with_quorum(QuorumSet::for_faults(2))
            .with_start_stagger(Duration::ZERO);
        assert_eq!(cfg.request_timeout, Duration::from_millis(250));
        assert_eq!(cfg.quorum.n(), 5);
        assert_eq!(cfg.start_stagger, Duration::ZERO);
    }

    #[test]
    fn timing_backs_off_50_to_100_ms_after_a_rejection_and_never_thinks() {
        let cfg = PaxosClientConfig::default().with_request_timeout(Duration::from_millis(300));
        let timing = cfg.timing();
        assert_eq!(timing.retransmit_interval, Duration::from_millis(300));
        assert_eq!(
            timing.backoff,
            (Duration::from_millis(50), Duration::from_millis(100))
        );
        assert_eq!(timing.start_stagger, cfg.start_stagger);
        assert_eq!(timing.start_delay, Duration::ZERO);
        assert_eq!(timing.think_time, Duration::ZERO);
    }

    #[test]
    fn port_follows_answers_walks_members_on_timeout_and_remaps_a_departed_leader() {
        use idem_common::ReconfigCommand;
        // Four replica slots, the last one a spare outside the group.
        let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
        let dir = Directory::new(nodes.clone(), vec![NodeId(4)]);
        let mut group = Membership::bootstrap(3);
        let mut port = PaxosClientConfig::default().port(&dir, &group);
        assert_eq!(port.presumed_leader(), ReplicaId(0));

        // Whoever answers leads, unless it is not a member (or no replica).
        port.note_reply_from(&dir, nodes[2]);
        assert_eq!(port.presumed_leader(), ReplicaId(2));
        port.note_reply_from(&dir, nodes[3]);
        port.note_reply_from(&dir, NodeId(4));
        assert_eq!(port.presumed_leader(), ReplicaId(2));

        // Timeouts walk the member list round-robin.
        let walk = |port: &mut PaxosPort| {
            port.note_timeout();
            port.presumed_leader().0
        };
        assert_eq!(
            [walk(&mut port), walk(&mut port), walk(&mut port)],
            [0, 1, 2]
        );

        // Replica 1 is replaced by the spare: a surviving presumed leader
        // is kept though its index moved, and the walk covers exactly the
        // new members.
        group.apply(&ReconfigCommand::Replace {
            old: ReplicaId(1),
            new: ReplicaId(3),
        });
        port.retarget(&dir, &group);
        assert_eq!(port.presumed_leader(), ReplicaId(2));
        assert_eq!(
            [walk(&mut port), walk(&mut port), walk(&mut port)],
            [3, 0, 2]
        );

        // A departed presumed leader falls back to the first member.
        group.apply(&ReconfigCommand::Leave(ReplicaId(2)));
        port.retarget(&dir, &group);
        assert_eq!(port.presumed_leader(), ReplicaId(0));
    }
}
