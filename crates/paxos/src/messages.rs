//! Paxos baseline wire messages and timer payloads.

use idem_common::{
    CheckpointData, Membership, OpNumber, ReplicaWire, Reply, Request, RequestId, SeqNumber, View,
};
use idem_simnet::Wire;

/// One entry of a view-change window summary. Unlike IDEM, the entry must
/// carry the full request: Paxos disseminates bodies only through the
/// leader, so the new leader may never have seen them otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct PaxosWindowEntry {
    /// The consensus instance.
    pub sqn: SeqNumber,
    /// View the request was proposed in.
    pub view: View,
    /// The full proposed request.
    pub request: Request,
}

impl PaxosWindowEntry {
    /// Estimated wire size of this entry.
    pub fn wire_size(&self) -> usize {
        16 + self.request.wire_size()
    }
}

/// All messages of the Paxos baseline.
///
/// Variants past `Checkpoint` are timer payloads that never travel on the
/// wire.
#[derive(Debug, Clone, PartialEq)]
pub enum PaxosMessage {
    /// Client request, sent to the presumed leader only.
    Request(Request),
    /// Execution result from the leader.
    Reply(Reply),
    /// Leader-based rejection notice (Paxos_LBR only).
    Reject(RequestId),
    /// Leader's ordering proposal carrying the full request body — the
    /// leader-distribution bottleneck of IDEM paper Section 4.2.
    Propose {
        /// Sequence number.
        sqn: SeqNumber,
        /// Leader's view.
        view: View,
        /// The full request.
        request: Request,
    },
    /// Acceptor vote.
    Accept {
        /// Sequence number.
        sqn: SeqNumber,
        /// View of the accepted proposal.
        view: View,
        /// Id of the accepted request (sanity binding).
        id: RequestId,
    },
    /// View-change request with the sender's window.
    ViewChange {
        /// Target view.
        target: View,
        /// First sequence number the sender has not executed. The new
        /// leader must not propose below the quorum's maximum: slots under
        /// it were executed somewhere and survive only in checkpoints, so
        /// re-filling them (with no-ops or fresh requests) would diverge
        /// from the replicas that already executed them.
        next_exec: SeqNumber,
        /// The sender's current proposal window, bodies included.
        window: Vec<PaxosWindowEntry>,
    },
    /// Ask a peer for its newest checkpoint.
    CheckpointRequest,
    /// Checkpoint transfer: application snapshot + client table.
    Checkpoint(CheckpointData),
    /// Replica → client: the group reconfigured; re-resolve the presumed
    /// leader against this membership instead of timing out against
    /// departed replicas.
    MembershipUpdate(Membership),

    // ----- timer payloads (never on the wire) -----
    /// Replica progress (view-change) timer.
    ProgressTimer,
    /// The client's timer. A client is the only consumer of its own
    /// timers, so it multiplexes them over this one variant: the payload
    /// is the operation number for a request timeout (leader failover),
    /// and carries a kind tag in its top byte otherwise
    /// (`idem_common::client::encode_tick`).
    ClientTimeout(OpNumber),
    /// Replica catch-up retry after a reboot: rotates the
    /// checkpoint-request target until some peer answers.
    RecoveryTimer,
}

impl Wire for PaxosMessage {
    fn wire_size(&self) -> usize {
        match self {
            PaxosMessage::Request(r) => r.wire_size(),
            PaxosMessage::Reply(r) => r.wire_size(),
            PaxosMessage::Reject(_) => RequestId::WIRE_SIZE,
            PaxosMessage::Propose { request, .. } => 16 + request.wire_size(),
            PaxosMessage::Accept { .. } => 16 + RequestId::WIRE_SIZE,
            PaxosMessage::ViewChange { window, .. } => {
                16 + window
                    .iter()
                    .map(PaxosWindowEntry::wire_size)
                    .sum::<usize>()
            }
            PaxosMessage::CheckpointRequest => 4,
            PaxosMessage::Checkpoint(data) => data.wire_size(),
            PaxosMessage::MembershipUpdate(m) => m.wire_size(),
            PaxosMessage::ProgressTimer
            | PaxosMessage::ClientTimeout(_)
            | PaxosMessage::RecoveryTimer => 0,
        }
    }
}

impl ReplicaWire for PaxosMessage {
    const CHECKPOINT_REQUEST: PaxosMessage = PaxosMessage::CheckpointRequest;
    const PROGRESS_TIMER: PaxosMessage = PaxosMessage::ProgressTimer;
    const RECOVERY_TIMER: PaxosMessage = PaxosMessage::RecoveryTimer;
    fn checkpoint(data: CheckpointData) -> PaxosMessage {
        PaxosMessage::Checkpoint(data)
    }
    fn membership_update(membership: Membership) -> PaxosMessage {
        PaxosMessage::MembershipUpdate(membership)
    }
    fn reply(reply: Reply) -> PaxosMessage {
        PaxosMessage::Reply(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idem_common::{ClientId, OpNumber};

    fn req(bytes: usize) -> Request {
        Request::new(RequestId::new(ClientId(1), OpNumber(1)), vec![0u8; bytes])
    }

    #[test]
    fn propose_carries_full_body() {
        // The structural contrast to IDEM: proposals scale with command
        // size here.
        let msg = PaxosMessage::Propose {
            sqn: SeqNumber(1),
            view: View(0),
            request: req(1000),
        };
        assert!(msg.wire_size() > 1000);
    }

    #[test]
    fn accept_is_small() {
        let msg = PaxosMessage::Accept {
            sqn: SeqNumber(1),
            view: View(0),
            id: RequestId::new(ClientId(1), OpNumber(1)),
        };
        assert_eq!(msg.wire_size(), 28);
    }

    #[test]
    fn viewchange_scales_with_bodies() {
        let entry = PaxosWindowEntry {
            sqn: SeqNumber(0),
            view: View(0),
            request: req(100),
        };
        let msg = PaxosMessage::ViewChange {
            target: View(1),
            next_exec: SeqNumber(0),
            window: vec![entry; 3],
        };
        assert_eq!(msg.wire_size(), 16 + 3 * (16 + 12 + 100));
    }

    #[test]
    fn checkpoint_membership_is_wire_free_at_bootstrap() {
        let rows = [(1, 2, &[0; 8][..])].into_iter();
        let bootstrap = Membership::bootstrap(3);
        let msg = PaxosMessage::Checkpoint(CheckpointData::new(
            SeqNumber(4),
            &[0; 50],
            rows,
            &bootstrap,
        ));
        // Unchanged from the fixed-membership protocol.
        assert_eq!(msg.wire_size(), 8 + 50 + 12 + 8);
        assert_eq!(
            PaxosMessage::MembershipUpdate(Membership::bootstrap(3)).wire_size(),
            0
        );
    }

    #[test]
    fn timers_are_free() {
        assert_eq!(PaxosMessage::ProgressTimer.wire_size(), 0);
        assert_eq!(PaxosMessage::ClientTimeout(OpNumber(1)).wire_size(), 0);
        assert_eq!(PaxosMessage::RecoveryTimer.wire_size(), 0);
    }
}
