//! IDEM wire messages and internal timer payloads.

pub use idem_common::CheckpointData;
use idem_common::{Membership, OpNumber, ReplicaWire, Reply, Request, RequestId, SeqNumber, View};
use idem_simnet::Wire;

/// One entry of a view-change window summary: the binding of a sequence
/// number to a request id, tagged with the view it was proposed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowEntry {
    /// The consensus instance.
    pub sqn: SeqNumber,
    /// The request id bound to it.
    pub id: RequestId,
    /// The view of the binding (the merge keeps the highest).
    pub view: View,
}

impl WindowEntry {
    /// Wire size of one entry: sqn (8) + id (12) + view (8).
    pub const WIRE_SIZE: usize = 28;
}

/// All messages of the IDEM protocol.
///
/// Variants past `Checkpoint` are **timer payloads** that never travel on
/// the wire (their [`Wire::wire_size`] is zero); they exist because the
/// simulator delivers timer callbacks through the same message type.
#[derive(Debug, Clone, PartialEq)]
pub enum IdemMessage {
    // ----- client → replica -----
    /// A client request (Section 4.3).
    Request(Request),

    // ----- replica → client -----
    /// Proactive rejection notice (Section 4.1).
    Reject(RequestId),
    /// Execution result, sent by the leader.
    Reply(Reply),

    // ----- replica → replica -----
    /// "I accepted this request" endorsement sent to the leader.
    Require(RequestId),
    /// Leader's ordering proposal for a request id.
    Propose {
        /// Proposed request.
        id: RequestId,
        /// Assigned sequence number.
        sqn: SeqNumber,
        /// Leader's view.
        view: View,
    },
    /// Second-phase agreement vote.
    Commit {
        /// Committed request.
        id: RequestId,
        /// Sequence number.
        sqn: SeqNumber,
        /// View of the proposal being committed.
        view: View,
    },
    /// Relayed full request (delayed forwarding / fetch response).
    Forward(Request),
    /// Explicit ask for the body of a request (Section 5.2).
    Fetch(RequestId),
    /// View-change request carrying the sender's proposal window.
    ViewChange {
        /// The view being moved to.
        target: View,
        /// The sender's current proposal window.
        window: Vec<WindowEntry>,
    },
    /// Ask a peer for its newest checkpoint (lagging-replica catch-up).
    CheckpointRequest,
    /// A checkpoint transfer.
    Checkpoint(CheckpointData),
    /// Replica → client: the group reconfigured; re-resolve against this
    /// membership instead of timing out against departed replicas. Sent
    /// to all clients at each epoch switch, and to any client that talks
    /// to a non-member.
    MembershipUpdate(Membership),

    // ----- timer payloads (never on the wire) -----
    /// Delayed-forwarding timer for an accepted request.
    ForwardTimer(RequestId),
    /// Progress (view-change) timer.
    ProgressTimer,
    /// The client's timer. A client is the only consumer of its own
    /// timers, so it multiplexes them over this one variant: the payload
    /// is the operation number for a retransmission, and carries a kind
    /// tag in its top byte otherwise (`idem_common::client::encode_tick`).
    RetransmitTimer(OpNumber),
    /// Replica-side catch-up retry after a reboot: rotates the
    /// checkpoint-request target until some peer answers.
    RecoveryTimer,
}

impl Wire for IdemMessage {
    fn wire_size(&self) -> usize {
        match self {
            IdemMessage::Request(r) => r.wire_size(),
            IdemMessage::Reject(_) => RequestId::WIRE_SIZE,
            IdemMessage::Reply(r) => r.wire_size(),
            IdemMessage::Require(_) => RequestId::WIRE_SIZE,
            IdemMessage::Propose { .. } | IdemMessage::Commit { .. } => {
                RequestId::WIRE_SIZE + 8 + 8
            }
            IdemMessage::Forward(r) => r.wire_size(),
            IdemMessage::Fetch(_) => RequestId::WIRE_SIZE,
            IdemMessage::ViewChange { window, .. } => 8 + window.len() * WindowEntry::WIRE_SIZE,
            IdemMessage::CheckpointRequest => 4,
            IdemMessage::Checkpoint(data) => data.wire_size(),
            IdemMessage::MembershipUpdate(m) => m.wire_size(),
            IdemMessage::ForwardTimer(_)
            | IdemMessage::ProgressTimer
            | IdemMessage::RetransmitTimer(_)
            | IdemMessage::RecoveryTimer => 0,
        }
    }
}

impl ReplicaWire for IdemMessage {
    const CHECKPOINT_REQUEST: IdemMessage = IdemMessage::CheckpointRequest;
    const PROGRESS_TIMER: IdemMessage = IdemMessage::ProgressTimer;
    const RECOVERY_TIMER: IdemMessage = IdemMessage::RecoveryTimer;
    fn checkpoint(data: CheckpointData) -> IdemMessage {
        IdemMessage::Checkpoint(data)
    }
    fn membership_update(membership: Membership) -> IdemMessage {
        IdemMessage::MembershipUpdate(membership)
    }
    fn reply(reply: Reply) -> IdemMessage {
        IdemMessage::Reply(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idem_common::ClientId;

    fn rid() -> RequestId {
        RequestId::new(ClientId(1), OpNumber(2))
    }

    #[test]
    fn agreement_messages_are_id_sized_not_body_sized() {
        // The design point of Section 4.2: agreement happens on ids, so
        // Propose/Commit stay small no matter how large commands are.
        let big_request = Request::new(rid(), vec![0u8; 1 << 20]);
        let req_size = IdemMessage::Request(big_request).wire_size();
        let prop_size = IdemMessage::Propose {
            id: rid(),
            sqn: SeqNumber(1),
            view: View(0),
        }
        .wire_size();
        assert!(req_size > 1 << 20);
        assert_eq!(prop_size, 28);
    }

    #[test]
    fn timer_payloads_cost_no_traffic() {
        assert_eq!(IdemMessage::ForwardTimer(rid()).wire_size(), 0);
        assert_eq!(IdemMessage::ProgressTimer.wire_size(), 0);
        assert_eq!(IdemMessage::RetransmitTimer(OpNumber(1)).wire_size(), 0);
        assert_eq!(IdemMessage::RecoveryTimer.wire_size(), 0);
    }

    #[test]
    fn viewchange_size_scales_with_window() {
        let entry = WindowEntry {
            sqn: SeqNumber(1),
            id: rid(),
            view: View(0),
        };
        let small = IdemMessage::ViewChange {
            target: View(1),
            window: vec![entry; 2],
        };
        let large = IdemMessage::ViewChange {
            target: View(1),
            window: vec![entry; 10],
        };
        assert_eq!(small.wire_size(), 8 + 2 * 28);
        assert_eq!(large.wire_size(), 8 + 10 * 28);
    }

    #[test]
    fn checkpoint_size_counts_snapshot_and_clients() {
        let rows = [(0, 5, &[0; 8][..])].into_iter();
        let data = CheckpointData::new(SeqNumber(10), &[0; 100], rows, &Membership::bootstrap(3));
        // The bootstrap membership is wire-free: checkpoint sizes are
        // unchanged from the fixed-membership protocol.
        assert_eq!(data.wire_size(), 8 + 100 + 12 + 8);
        assert_eq!(
            IdemMessage::Checkpoint(data.clone()).wire_size(),
            data.wire_size()
        );
    }

    #[test]
    fn membership_updates_are_free_only_at_bootstrap() {
        use idem_common::membership::ReconfigCommand;
        use idem_common::ReplicaId;
        let mut m = Membership::bootstrap(3);
        assert_eq!(IdemMessage::MembershipUpdate(m.clone()).wire_size(), 0);
        m.apply(&ReconfigCommand::Join(ReplicaId(3)));
        assert!(IdemMessage::MembershipUpdate(m).wire_size() > 0);
    }
}
