//! SMaRt baseline wire messages and timer payloads.

use idem_common::{
    CheckpointData, Membership, OpNumber, ReplicaWire, Reply, Request, SeqNumber, View,
};
use idem_simnet::Wire;

/// All messages of the SMaRt baseline.
///
/// Variants past `Checkpoint` are timer payloads that never travel on the
/// wire.
#[derive(Debug, Clone, PartialEq)]
pub enum SmartMessage {
    /// Client request, multicast to all replicas.
    Request(Request),
    /// Execution result. Every replica replies; the client keeps the first.
    Reply(Reply),
    /// Leader's batch proposal (sequential consensus: one open instance at
    /// a time).
    Propose {
        /// Consensus instance number.
        sqn: SeqNumber,
        /// Leader's view (called "regency" in BFT-SMaRt).
        view: View,
        /// The proposed batch, bodies included.
        batch: Vec<Request>,
    },
    /// Acceptor vote for a proposed batch.
    Accept {
        /// Instance number.
        sqn: SeqNumber,
        /// View of the accepted proposal.
        view: View,
    },
    /// View-change request carrying the sender's undecided proposal (if
    /// any).
    ViewChange {
        /// Target view.
        target: View,
        /// Instance the sender saw proposed but not decided.
        pending: Option<(SeqNumber, View, Vec<Request>)>,
        /// The sender's next undecided instance number.
        next_sqn: SeqNumber,
    },
    /// Ask a peer for its newest checkpoint.
    CheckpointRequest,
    /// Checkpoint transfer; `next_exec` is the first instance not covered.
    Checkpoint(CheckpointData),
    /// Replica → client: the group reconfigured; re-resolve the multicast
    /// target set against this membership.
    MembershipUpdate(Membership),

    // ----- timer payloads (never on the wire) -----
    /// Replica progress (view-change) timer.
    ProgressTimer,
    /// The client's timer. A client is the only consumer of its own
    /// timers, so it multiplexes them over this one variant: the payload
    /// is the operation number for a retransmission, and carries a kind
    /// tag in its top byte otherwise (`idem_common::client::encode_tick`).
    ClientTimeout(OpNumber),
    /// Replica catch-up retry after a reboot: re-asks the cluster for a
    /// checkpoint until some peer answers.
    RecoveryTimer,
}

fn batch_size(batch: &[Request]) -> usize {
    batch.iter().map(Request::wire_size).sum::<usize>() + 4
}

impl Wire for SmartMessage {
    fn wire_size(&self) -> usize {
        match self {
            SmartMessage::Request(r) => r.wire_size(),
            SmartMessage::Reply(r) => r.wire_size(),
            SmartMessage::Propose { batch, .. } => 16 + batch_size(batch),
            SmartMessage::Accept { .. } => 16,
            SmartMessage::ViewChange { pending, .. } => {
                16 + pending
                    .as_ref()
                    .map_or(0, |(_, _, batch)| 16 + batch_size(batch))
            }
            SmartMessage::CheckpointRequest => 4,
            SmartMessage::Checkpoint(data) => data.wire_size(),
            SmartMessage::MembershipUpdate(m) => m.wire_size(),
            SmartMessage::ProgressTimer
            | SmartMessage::ClientTimeout(_)
            | SmartMessage::RecoveryTimer => 0,
        }
    }
}

impl ReplicaWire for SmartMessage {
    const CHECKPOINT_REQUEST: SmartMessage = SmartMessage::CheckpointRequest;
    const PROGRESS_TIMER: SmartMessage = SmartMessage::ProgressTimer;
    const RECOVERY_TIMER: SmartMessage = SmartMessage::RecoveryTimer;
    fn checkpoint(data: CheckpointData) -> SmartMessage {
        SmartMessage::Checkpoint(data)
    }
    fn membership_update(membership: Membership) -> SmartMessage {
        SmartMessage::MembershipUpdate(membership)
    }
    fn reply(reply: Reply) -> SmartMessage {
        SmartMessage::Reply(reply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use idem_common::{ClientId, RequestId};

    fn req(bytes: usize, op: u64) -> Request {
        Request::new(RequestId::new(ClientId(1), OpNumber(op)), vec![0; bytes])
    }

    #[test]
    fn propose_scales_with_batch() {
        let small = SmartMessage::Propose {
            sqn: SeqNumber(0),
            view: View(0),
            batch: vec![req(100, 1)],
        };
        let large = SmartMessage::Propose {
            sqn: SeqNumber(0),
            view: View(0),
            batch: (0..10).map(|i| req(100, i)).collect(),
        };
        assert!(large.wire_size() > small.wire_size() * 8);
    }

    #[test]
    fn accepts_are_tiny() {
        assert_eq!(
            SmartMessage::Accept {
                sqn: SeqNumber(0),
                view: View(0)
            }
            .wire_size(),
            16
        );
    }

    #[test]
    fn checkpoint_membership_is_wire_free_at_bootstrap() {
        let rows = [(1, 2, &[0; 8][..])].into_iter();
        let bootstrap = Membership::bootstrap(3);
        let msg = SmartMessage::Checkpoint(CheckpointData::new(
            SeqNumber(4),
            &[0; 50],
            rows,
            &bootstrap,
        ));
        // Unchanged from the fixed-membership protocol.
        assert_eq!(msg.wire_size(), 8 + 50 + 12 + 8);
        assert_eq!(
            SmartMessage::MembershipUpdate(Membership::bootstrap(3)).wire_size(),
            0
        );
    }

    #[test]
    fn timers_are_free() {
        assert_eq!(SmartMessage::ProgressTimer.wire_size(), 0);
        assert_eq!(SmartMessage::RecoveryTimer.wire_size(), 0);
    }
}
